"""Discrete indicator systems: assembly, Tikhonov least squares, integration.

Vector systems carry one R^n unknown mu_j per sample point (columns grouped
per point); scalar systems use known normals and solve for the elements
tau_j directly. The solve minimizes ||A w - b||^2 + lambda^2 ||w||^2, with
lambda a plain float (None: 1e-6 max|A|), through one Householder QR of
[lambda I; M], with M = A (tall, m >= n) or A^T (wide), so Q is never
formed. For M of r x k it costs about 2 k^2 r flops:

- tall: [lambda I, 0; A, b] = Q [R, c; 0, d]. The last column [0; b] is
  factored with the rest, so the reflectors leave c = Q^T [0; b] in R's
  rows, and w = R^-1 c;
- wide: [lambda I; A^T] = Q [R; 0], so R^T R = A A^T + lambda^2 I and
  w = A^T R^-1 R^-T b.

_tikhonov_qr factors blocks of QR_BLOCK columns and never touches a lambda
row before its own block: a later column's lambda row is zero in the
block's columns, so the block's reflectors leave it as it is (Elden, BIT
17, 1977). M sits below a slot of QR_BLOCK rows that takes each block's
own lambda rows in turn; dgeqrt factors the block's panel in place and
dgemqrt applies it to the columns to its right. Factoring the whole stack,
zeros included, took 2 k^2 (r + 2k/3) flops. dgeqrt runs nearly all of
its work on level-3 BLAS (Elmroth & Gustavson, IBM J. Res. Dev. 44(4),
2000); LAPACK's dtpqrt, made for this structure, runs its panels on
level-2 BLAS in OpenBLAS and was slower (README, numerical notes).

Neither path forms the Gram matrix A A^T + lambda^2 I: its Cholesky is
faster on wide systems but squares the condition number. On S^2 cap
systems at the production lambda the computed Gram matrix is indefinite,
its smallest eigenvalue -1.3e-12 to -6.4e-12 against lambda^2 = 1e-12 on
four query draws; whether its Cholesky fails depends on rounding.
Neither needs an SVD. Plain least squares (lambda = 0) is the tall path
with a zero slot. It refuses a wide system, which has a null space, and
R with a reciprocal condition estimate (dtrcon, 1-norm) <= machine eps.
A^T z and A w run on scipy's BLAS, as dgeqrt does (README, numerical notes).
"""

import os
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from enum import Enum

import numpy as np
import scipy.linalg as sla

from .errors import ClampedMassWarning, IllPosedSystemError
from .geometry import OrientedSample, PointCloud
from .kernel import KernelConfig

# entries per evaluator scratch array, which the lanes split: chunks take
# max(1, CHUNK_ENTRIES // (LANES * N_Y)) queries, so each array is 512 KB over
# all lanes, the arrays of one lane's chunk stay in L2 and one workspace
# serves every chunk
CHUNK_ENTRIES = 1 << 16

# fewest entries of a lane's chunk while N_Y is below it: with fewer, the
# fixed cost of a chunk's ufunc calls shows in one lane's time
LANE_ENTRIES = 1 << 14

# lanes of one double_layer call: the CPUs this process may run on, but at
# most CHUNK_ENTRIES // LANE_ENTRIES, which also bounds the loss where a CPU
# quota leaves fewer CPUs than the affinity names
LANES = min(len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1, CHUNK_ENTRIES // LANE_ENTRIES)

# columns per block of the Tikhonov QR, and rows of the slot that holds a
# block's lambda rows: on the benchmark's shapes (2 CPUs) 32 was up to 10%
# slower than 64, and 128 up to 14% faster on the largest tall solves but
# 2-8% slower on the tubes (README, numerical notes)
QR_BLOCK = 64

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


@dataclass(frozen=True)
class SolveDiagnostics:
    """What a solve did; removed_mass is sum |raw| over negative raw scalar weights.

    path names the factorization: "tall-qr" (rows >= cols) or "wide-qr".
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


def double_layer(field, queries: np.ndarray, points: np.ndarray,
                 vectors: np.ndarray | None = None, summed: bool = False) -> np.ndarray:
    """Double-layer potential of a kernel field, built in chunks of queries.

    field(chunk, points, vectors, work) writes the chunk's rows into work[-1]
    and returns them: with vectors v_j the contracted rows sum_k K_ijk v_jk,
    shape (chunk, N), which summed sums over j; without, K's rows over
    columns (j, k). Every chunk takes max(1, CHUNK_ENTRIES // (LANES * N))
    queries. Lane k of LANES takes chunks k, k + LANES, ..., the caller's
    thread lane 0 and threads of a pool the call starts the others, and
    reuses its own part of one workspace: three (chunk, N) scratch arrays,
    then the result's own rows, or a fourth array to sum when summed. So
    field must be safe to call from several threads at once on disjoint
    planes. A row does not depend on its chunk, so the result is bit for bit
    that of one lane. Each lane runs under the caller's np.errstate with its
    share of the caller's ufunc buffer size, and the call returns or raises
    a lane's error only after every lane has stopped.
    """
    if queries.shape[1] != points.shape[1]:
        raise ValueError("queries and sample must share an ambient dimension")
    m, count = len(queries), len(points)
    out = np.empty(m if summed else (m, points.size if vectors is None else count))
    step = max(1, CHUNK_ENTRIES // (LANES * max(1, count)))
    starts = range(0, m, step)
    lanes = max(1, min(LANES, len(starts)))
    work = np.empty((lanes, 3 + summed, min(step, m), count))

    # each lane runs under the caller's numpy error state, which is per
    # thread, and holds ufunc buffers of its own, so the lanes split the
    # caller's buffer size (a multiple of 16, as numpy 1.x requires)
    err = dict(np.geterr(), call=np.geterrcall())
    buffer = max(16, np.getbufsize() // lanes // 16 * 16)

    def lane(k):
        with np.errstate(**err):
            # numpy 1.x's errstate does not restore the buffer size
            before = np.setbufsize(buffer)
            try:
                for lo in starts[k::lanes]:
                    chunk = queries[lo:lo + step]
                    rows = out[lo:lo + len(chunk)]
                    planes = [*work[k, :, :len(chunk)]] + ([] if summed else [rows])
                    result = field(chunk, points, vectors, planes)
                    if summed:
                        result.sum(axis=1, out=rows)
            finally:
                np.setbufsize(before)

    # the pool starts lanes - 1 threads, none for one lane, and leaving it
    # joins them, also when lane 0 raises
    with ThreadPoolExecutor(lanes, "double-layer") as pool:
        others = [pool.submit(lane, k) for k in range(1, lanes)]
        lane(0)
    for future in others:
        future.result()
    return out


def assemble_vector_system(queries: PointCloud, sample: PointCloud,
                           config: KernelConfig) -> IndicatorSystem:
    """Rows K(x_i, y_j)_k over columns (j, k), rhs 1 at the interior queries; unknowns mu_jk."""
    A = double_layer(config.field, queries.points, sample.points)
    return IndicatorSystem(A, np.ones(len(queries)), SystemLayout.VECTOR_UNKNOWNS, len(sample))


def assemble_scalar_system(queries: PointCloud, sample: OrientedSample,
                           config: KernelConfig) -> IndicatorSystem:
    """Rows dot(K(x_i, y_j), N(y_j)), rhs 1 at the interior queries; unknowns tau_j."""
    A = double_layer(config.field, queries.points, sample.points, sample.normals)
    return IndicatorSystem(A, np.ones(len(queries)), SystemLayout.SCALAR_UNKNOWNS, len(sample))


def _matvec(A: np.ndarray, x: np.ndarray, trans: bool = False) -> np.ndarray:
    """A x, or A^T x with trans, by scipy's dgemv on whichever of A, A^T is F-ordered."""
    if A.flags.f_contiguous:
        return sla.blas.dgemv(1.0, A, x, trans=trans)
    return sla.blas.dgemv(1.0, A.T, x, trans=not trans)


def _tikhonov_qr(M: np.ndarray, lam: float, b: np.ndarray | None = None
                 ) -> tuple[np.ndarray, np.ndarray | None]:
    """R of [lam I; M] = Q [R; 0] for M of r x k, and with b, c = (Q^T [0; b])[:k].

    The LAPACK calls write only the work array, never M or b.
    """
    r, k = M.shape
    tall = b is not None
    work = np.empty((QR_BLOCK + r, k + tall), order="F")
    work[QR_BLOCK:, :k] = M
    if tall:
        work[QR_BLOCK:, k] = b
    R = np.zeros((k, k + tall), order="F")
    for j0 in range(0, k, QR_BLOCK):
        j1 = min(j0 + QR_BLOCK, k)
        w = j1 - j0
        # lam on the block's own diagonal only: in a partial last block the
        # slot's next row would put it into the [0; b] column
        work[:QR_BLOCK, j0:] = 0.0
        work[range(w), range(j0, j1)] = lam
        # F-ordered column slices, which the wrappers overwrite in place
        panel = work[:, j0:j1]
        _, t, info = sla.lapack.dgeqrt(w, panel, overwrite_a=True)
        if info == 0 and j1 < k + tall:
            _, info = sla.lapack.dgemqrt(panel, t, work[:, j1:], trans="T", overwrite_c=True)
        if info != 0:
            raise ValueError(f"LAPACK: illegal value in argument {-info}")
        # the slot is zero below its diagonal, and no reflector of the block
        # has a component there, so its rows are R's rows as they stand
        R[j0:j1, j0:] = work[:w, j0:]
    return R[:, :k], (R[:, k] if tall else None)


def _tikhonov_solve(A: np.ndarray, b: np.ndarray, lam: float) -> np.ndarray:
    if A.shape[0] < A.shape[1]:
        if lam == 0.0:
            raise IllPosedSystemError(f"{A.shape[0]} rows cannot fix {A.shape[1]} unknowns "
                                      f"without regularization")
        # R^T R = A A^T + lam^2 I, so w = A^T (A A^T + lam^2 I)^-1 b
        R, _ = _tikhonov_qr(A.T, lam)
        return _matvec(A, sla.solve_triangular(R, sla.solve_triangular(R, b, trans="T")),
                       trans=True)
    R, c = _tikhonov_qr(A, lam, b)
    if lam == 0.0 and not (rcond := sla.lapack.dtrcon(R, norm="1")[0]) > np.finfo(float).eps:
        raise IllPosedSystemError(f"system is rank deficient (reciprocal condition "
                                  f"{rcond:.3g}) and has no regularization")
    return sla.solve_triangular(R, c)


def _warn_if_policy_moved_mass(action: str, mass: float, kept: float) -> None:
    # compared without dividing: a clamp may leave no kept mass at all
    if mass <= CLAMP_WARN_FRACTION * kept:
        return
    share = f"{mass / kept:.1%} of the kept mass {kept:.6g}" if kept > 0.0 else "all of it"
    warnings.warn(ClampedMassWarning(
        f"{action} mass {mass:.6g}, {share}; "
        f"the sample likely does not resolve the indicator at the queries"), stacklevel=3)


def solve_weights(system: IndicatorSystem, regularization: float | None = None,
                  normals: np.ndarray | None = None, *,
                  policy: NegativeWeightPolicy = NegativeWeightPolicy.CLAMP_TO_ZERO
                  ) -> WeightSolution:
    """Solve the indicator system and unpack mu/tau per the system layout.

    regularization is lambda >= 0, None for 1e-6 * max|A|. Scalar layouts
    need the sample normals to reconstruct mu_j = tau_j N(y_j), and apply
    policy to their negative raw weights.
    """
    # not (0 <= lam < inf) also refuses nan, which every comparison fails
    if regularization is not None and not 0.0 <= regularization < np.inf:
        raise ValueError(f"regularization must be nonnegative and finite, "
                         f"not {regularization}")
    A, b = system.matrix, system.rhs
    if A.shape[0] < 1 or A.shape[1] < 1:
        raise ValueError("system must have at least one row and one column")
    lam = regularization
    if lam is None:
        # max|A| without the |A| temporary, which is as large as A
        lam = _AUTO_SCALE * float(max(A.max(), -A.min()))

    w = _tikhonov_solve(A, b, lam)
    residual = float(np.linalg.norm(_matvec(A, w) - b))

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
        if policy is NegativeWeightPolicy.CLAMP_TO_ZERO:
            tau = np.maximum(raw, 0.0)
            action = f"clamping {negative} negative raw weights removed"
        else:
            tau = np.abs(raw)
            action = f"flipping {negative} negative raw weights to |raw| carried"
        _warn_if_policy_moved_mass(action, removed, float(tau.sum()))
        mu = tau[:, None] * normals

    diag = SolveDiagnostics(rows=A.shape[0], cols=A.shape[1], regularization=lam,
                            negative_count=negative, removed_mass=removed,
                            path="tall-qr" if A.shape[0] >= A.shape[1] else "wide-qr")
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
