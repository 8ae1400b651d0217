"""Discrete indicator systems: assembly, Tikhonov least squares, integration.

Vector systems carry one R^n unknown mu_j per sample point (columns grouped
per point); scalar systems use known normals and solve for the elements
tau_j directly. The solve minimizes ||A w - b||^2 + lambda^2 ||w||^2 through
one Householder QR of a lambda-stacked matrix, built in Fortran order so that
LAPACK factors it in place and Q is never formed, at O(max(m, n) min(m, n)^2):

- tall (m >= n): [A; lambda I] = Q R, with Q^T [b; 0] applied during the
  factorization, and w = R^-1 Q^T [b; 0];
- wide (m < n): [A^T; lambda I] = Q R, so R^T R = A A^T + lambda^2 I and
  w = A^T R^-1 R^-T b.

Neither path forms the Gram matrix A A^T + lambda^2 I: its Cholesky is
faster on wide systems but squares the condition number, and at the
production lambda it fails as "not positive definite" on S^2 cap systems.
Neither needs an SVD. Plain least squares (lambda = 0) uses an SVD-backed
solve with a rank check.
"""

import warnings
from dataclasses import dataclass
from enum import Enum

import numpy as np
import scipy.linalg as sla

from .errors import ClampedMassWarning, IllPosedSystemError
from .geometry import OrientedSample, PointCloud
from .kernel import KernelConfig

# queries per evaluator chunk; bounds the memory of a few (chunk, N_Y) arrays
# on the contracted Euclidean path, and of the (chunk, N_Y, n) kernel block on
# vector assembly and on the S^2 field
QUERY_CHUNK = 256

AUTO_REGULARIZATION = None
_AUTO_SCALE = 1e-6

# a clamp that removes (or a flip that carries) more than this share of the
# kept mass sum(tau) warns; half the tightest integral tolerance of the
# acceptance suite (2%)
CLAMP_WARN_FRACTION = 0.01


class SystemLayout(Enum):
    VECTOR_UNKNOWNS = "vector_unknowns"
    SCALAR_UNKNOWNS = "scalar_unknowns"
    OFFSET_AUGMENTED = "offset_augmented"


class NegativeWeightPolicy(Enum):
    """What a negative raw scalar weight becomes: zero, or its magnitude |raw|."""

    CLAMP_TO_ZERO = "clamp_to_zero"
    FLIP = "flip"


@dataclass(frozen=True)
class IndicatorSystem:
    """Assembled linear system: one row per query point."""

    matrix: np.ndarray
    rhs: np.ndarray
    layout: SystemLayout
    sample_count: int

    def __post_init__(self):
        A = np.asarray(self.matrix, dtype=float)
        b = np.asarray(self.rhs, dtype=float)
        object.__setattr__(self, "matrix", A)
        object.__setattr__(self, "rhs", b)
        if A.ndim != 2 or b.ndim != 1 or A.shape[0] != b.shape[0]:
            raise ValueError("matrix rows and rhs length must agree")
        if not np.all(np.isin(b, (0.0, 0.5, 1.0))):
            raise ValueError("rhs entries must be 0, 1/2 or 1")

    @property
    def query_count(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class SolverConfig:
    """Tikhonov weight lambda and negative-weight handling.

    regularization=None picks lambda = 1e-6 * max|A| at solve time.
    """

    regularization: float | None = AUTO_REGULARIZATION
    negative_weight_policy: NegativeWeightPolicy = NegativeWeightPolicy.CLAMP_TO_ZERO

    def __post_init__(self):
        if self.regularization is not None and self.regularization < 0:
            raise ValueError("regularization must be nonnegative")


@dataclass(frozen=True)
class SolveDiagnostics:
    """What a solve did; removed_mass is sum |raw| over negative raw scalar weights.

    path names the factorization: "tall-qr", "wide-qr" or "lstsq" (lambda = 0).
    """

    rows: int
    cols: int
    regularization: float
    negative_count: int
    removed_mass: float = 0.0
    path: str = ""


@dataclass(frozen=True)
class WeightSolution:
    """Recovered vector elements mu_j, scalar elements tau_j = ||mu_j||."""

    mu: np.ndarray  # (N_Y, n)
    tau: np.ndarray  # (N_Y,)
    residual_norm: float
    diagnostics: SolveDiagnostics
    offset: float | None = None

    def __post_init__(self):
        if np.any(self.tau < 0):
            raise ValueError("tau must be nonnegative")


def _rhs_values(rhs, count: int) -> np.ndarray:
    """rhs=None is 1 on every row: the indicator at interior queries."""
    if rhs is None:
        return np.ones(count)
    vals = np.asarray(rhs, dtype=float)
    if vals.shape != (count,):
        raise ValueError("per-row rhs must have one value per query")
    return vals


def double_layer(field, queries: np.ndarray, points: np.ndarray,
                 vectors: np.ndarray | None = None, summed: bool = False) -> np.ndarray:
    """Double-layer potential of a kernel field, built in chunks of QUERY_CHUNK queries.

    field(chunk, points, vectors) returns the rows sum_k K_ijk v_jk, shape (chunk, N);
    the Euclidean field(chunk, points) returns the kernel block K, shape (chunk, N, n).
    Without vectors the result is K's rows over columns (j, k); with vectors
    v_j it is the contracted rows, or with summed their sums over j.
    """
    if queries.shape[1] != points.shape[1]:
        raise ValueError("queries and sample must share an ambient dimension")
    m = len(queries)
    if vectors is None:
        out = np.empty((m, points.size))
    else:
        out = np.empty(m if summed else (m, len(points)))
    # each block goes straight into its reduction: a name bound to it would
    # keep the previous chunk's block alive while the next one is built
    for lo in range(0, m, QUERY_CHUNK):
        chunk = queries[lo:lo + QUERY_CHUNK]
        if vectors is None:
            out[lo:lo + len(chunk)] = field(chunk, points).reshape(len(chunk), -1)
        elif summed:
            out[lo:lo + len(chunk)] = field(chunk, points, vectors).sum(axis=1)
        else:
            out[lo:lo + len(chunk)] = field(chunk, points, vectors)
    return out


def assemble_vector_system(queries: PointCloud, sample: PointCloud,
                           config: KernelConfig, rhs=None) -> IndicatorSystem:
    """Rows K(x_i, y_j)_k over columns (j, k); unknowns are the mu_jk."""
    A = double_layer(config.field, queries.points, sample.points)
    return IndicatorSystem(A, _rhs_values(rhs, len(queries)),
                           SystemLayout.VECTOR_UNKNOWNS, len(sample))


def assemble_scalar_system(queries: PointCloud, sample: OrientedSample,
                           config: KernelConfig, rhs=None) -> IndicatorSystem:
    """Rows dot(K(x_i, y_j), N(y_j)); unknowns are the scalars tau_j."""
    A = double_layer(config.field, queries.points, sample.points, sample.normals)
    return IndicatorSystem(A, _rhs_values(rhs, len(queries)),
                           SystemLayout.SCALAR_UNKNOWNS, len(sample))


def _solver_path(shape: tuple[int, int], lam: float) -> str:
    """The factorization _tikhonov_solve uses for a matrix of this shape."""
    if lam <= 0.0:
        return "lstsq"
    return "tall-qr" if shape[0] >= shape[1] else "wide-qr"


def _tikhonov_solve(A: np.ndarray, b: np.ndarray, lam: float) -> np.ndarray:
    path = _solver_path(A.shape, lam)
    if path == "lstsq":
        w, _, rank, _ = sla.lstsq(A, b, lapack_driver="gelsd")
        if rank < A.shape[1]:
            raise IllPosedSystemError(
                f"system has rank {rank} < {A.shape[1]} unknowns and no regularization")
        return w
    # [M; lam I] with M = A (tall) or A^T (wide), in Fortran order so that
    # LAPACK overwrites it with the factorization instead of copying it
    M = A if path == "tall-qr" else A.T
    rows, k = M.shape
    stacked = np.zeros((rows + k, k), order="F")
    stacked[:rows] = M
    np.fill_diagonal(stacked[rows:], lam)
    if path == "tall-qr":
        qtb, R = sla.qr_multiply(stacked, np.concatenate([b, np.zeros(k)]),
                                 mode="right", overwrite_a=True)
        return sla.solve_triangular(R, qtb)
    # R^T R = A A^T + lam^2 I, so w = A^T (A A^T + lam^2 I)^-1 b
    _, R = sla.qr(stacked, mode="raw", overwrite_a=True)
    return A.T @ sla.solve_triangular(R, sla.solve_triangular(R, b, trans="T"))


def _warn_if_policy_moved_mass(action: str, mass: float, kept: float) -> None:
    # compared without dividing: a clamp may leave no kept mass at all
    if mass <= CLAMP_WARN_FRACTION * kept:
        return
    share = f"{mass / kept:.1%} of the kept mass {kept:.6g}" if kept > 0.0 else "all of it"
    warnings.warn(ClampedMassWarning(
        f"{action} mass {mass:.6g}, {share}; "
        f"the sample likely does not resolve the indicator at the queries"), stacklevel=3)


def solve_weights(system: IndicatorSystem, config: SolverConfig = SolverConfig(),
                  normals: np.ndarray | None = None) -> WeightSolution:
    """Solve the indicator system and unpack mu/tau per the system layout.

    Scalar layouts need the sample normals to reconstruct mu_j = tau_j N(y_j).
    """
    A, b = system.matrix, system.rhs
    if A.shape[0] < 1:
        raise ValueError("system must have at least one row")
    lam = config.regularization
    if lam is None:
        # max|A| without the |A| temporary, which is as large as A
        scale = float(max(A.max(), -A.min())) if A.size else 0.0
        lam = _AUTO_SCALE * scale

    w = _tikhonov_solve(A, b, lam)
    residual = float(np.linalg.norm(A @ w - b))

    offset = None
    if system.layout is SystemLayout.VECTOR_UNKNOWNS:
        mu = w.reshape(system.sample_count, -1)
        tau = np.linalg.norm(mu, axis=1)
        negative, removed = 0, 0.0
    else:
        raw = w
        if system.layout is SystemLayout.OFFSET_AUGMENTED:
            offset = float(w[-1])
            raw = w[:-1]
        if normals is None:
            raise ValueError("scalar layouts need normals to reconstruct mu")
        normals = np.asarray(normals, dtype=float)
        if normals.shape[0] != system.sample_count:
            raise ValueError("normals count must match the sample count")
        negative = int(np.sum(raw < 0))
        removed = float(np.sum(np.maximum(-raw, 0.0)))
        if config.negative_weight_policy is NegativeWeightPolicy.CLAMP_TO_ZERO:
            tau = np.maximum(raw, 0.0)
            action = f"clamping {negative} negative raw weights removed"
        else:
            tau = np.abs(raw)
            action = f"flipping {negative} negative raw weights to |raw| carried"
        _warn_if_policy_moved_mass(action, removed, float(tau.sum()))
        mu = tau[:, None] * normals

    diag = SolveDiagnostics(rows=A.shape[0], cols=A.shape[1], regularization=lam,
                            negative_count=negative, removed_mass=removed,
                            path=_solver_path(A.shape, lam))
    return WeightSolution(mu=mu, tau=tau, residual_norm=residual,
                          diagnostics=diag, offset=offset)


def indicator_values(queries: PointCloud, sample: PointCloud,
                     solution: WeightSolution, config: KernelConfig) -> np.ndarray:
    """Recovered indicator sum_j dot(K(x, y_j), mu_j) (+ offset) at each query."""
    out = double_layer(config.field, queries.points, sample.points, solution.mu, summed=True)
    return out if solution.offset is None else out + solution.offset


def integrate_function(f_values: np.ndarray, solution: WeightSolution) -> float:
    """Riemann-style sum over the sample: sum_j f(y_j) tau_j."""
    f = np.asarray(f_values, dtype=float)
    if f.shape != solution.tau.shape:
        raise ValueError("f_values length must equal the sample count")
    return float(np.dot(f, solution.tau))
