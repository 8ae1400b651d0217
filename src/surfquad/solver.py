"""Discrete indicator systems: assembly, Tikhonov least squares, integration.

Vector systems carry one R^n unknown mu_j per sample point (columns grouped
per point); scalar systems use known normals and solve for the elements
tau_j directly. The solve minimizes ||A w - b||^2 + lambda^2 ||w||^2, with
lambda a plain float (None: 1e-6 max|A|, by point block if vector), through
one Householder QR of [lambda I; M], with M = A (tall, m >= n) or A^T
(wide), so Q is never formed. For M of r x k it costs about 2 k^2 r flops:

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
zeros included, took 2 k^2 (r + 2k/3) flops. No finished panel is read
again, so each block writes its rows of R, C-ordered, into the work
array's first k * k doubles: R is a view of the work array, and the solve
holds no second k x k array. dgeqrt runs nearly all of its work on
level-3 BLAS (Elmroth & Gustavson, IBM J. Res. Dev. 44(4), 2000); LAPACK's
dtpqrt, made for this structure, runs its panels on level-2 BLAS in
OpenBLAS and was slower (README, numerical notes).

Neither path forms the Gram matrix A A^T + lambda^2 I: its Cholesky is
faster on wide systems but squares the condition number. On S^2 cap
systems at the production lambda the computed Gram matrix is indefinite,
its smallest eigenvalue -1.3e-12 to -6.4e-12 against lambda^2 = 1e-12 on
four query draws; whether its Cholesky fails depends on rounding.
Neither needs an SVD. Plain least squares (lambda = 0) is the tall path
with a zero slot. It refuses a wide system, which has a null space, and
R with a reciprocal condition estimate (dtrcon, 1-norm) <= machine eps.
A^T z and A w run on scipy's BLAS, as dgeqrt does (README, numerical notes).
scipy.linalg is loaded by the first solve, not by import surfquad: reading
weights, integrating and evaluating the indicator run on numpy alone.
"""

import os
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from enum import Enum

import numpy as np

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

# side of the square tiles that load M into the F-ordered work array. One
# assignment of a C-ordered 3000 x 1500 M strides one side and took 25 ms,
# tiles of 128, 256 and 512 took 4.8, 3.9 and 3.4 ms (2 CPUs); on an
# F-ordered M tiles of 256 cost 0.3-0.5 ms more than one assignment. A pair
# of 256-tiles is 1 MB, a pair of 512-tiles 4 MB
LOAD_TILE = 256

_AUTO_SCALE = 1e-6

# a clamp that removes (or a flip that carries) more than this share of the
# kept mass sum(tau) warns; half the tightest integral tolerance of the
# acceptance suite (2%)
CLAMP_WARN_FRACTION = 0.01


class NegativeWeightPolicy(Enum):
    """What a negative raw scalar weight becomes: zero, or its magnitude |raw|."""

    CLAMP_TO_ZERO = "clamp_to_zero"
    FLIP = "flip"


@dataclass(frozen=True)
class IndicatorSystem:
    """Assembled linear system: one row per query point, one column per unknown.

    On a PointCloud the unknowns are the vectors mu_j, columns (j, k); on an
    OrientedSample they are the scalars tau_j along its normals, one column
    per point, and a further trailing column holds a compact manifold's offset.
    """

    matrix: np.ndarray
    rhs: np.ndarray
    sample: PointCloud | OrientedSample

    def __post_init__(self):
        A = np.asarray(self.matrix, dtype=float)
        b = np.asarray(self.rhs, dtype=float)
        object.__setattr__(self, "matrix", A)
        object.__setattr__(self, "rhs", b)
        if A.ndim != 2 or b.ndim != 1 or A.shape[0] != b.shape[0]:
            raise ValueError("matrix rows and rhs length must agree")
        if not np.all(np.isin(b, (0.0, 0.5, 1.0))):
            raise ValueError("rhs entries must be 0, 1/2 or 1")
        if A.shape[0] < 1 or A.shape[1] < 1:
            raise ValueError("system must have at least one row and one column")
        n = len(self.sample)
        fits = (n, n + 1) if isinstance(self.sample, OrientedSample) else (self.sample.points.size,)
        if A.shape[1] not in fits:
            raise ValueError(f"a sample of {n} points ({type(self.sample).__name__}) takes "
                             f"{' or '.join(map(str, fits))} columns, not {A.shape[1]}")


@dataclass(frozen=True)
class SolveDiagnostics:
    """What a solve did; removed_mass is sum |raw| over negative raw scalar weights."""

    rows: int
    cols: int
    regularization: float
    negative_count: int
    removed_mass: float = 0.0

    @property
    def path(self) -> str:
        """The factorization that _tikhonov_solve picks for this shape."""
        return "tall-qr" if self.rows >= self.cols else "wide-qr"


@dataclass(frozen=True)
class WeightSolution:
    """Recovered vector elements mu_j, scalar elements tau_j = ||mu_j||."""

    mu: np.ndarray  # (N_Y, n)
    tau: np.ndarray  # (N_Y,)
    residual_norm: float
    diagnostics: SolveDiagnostics
    offset: float | None = None

    def __post_init__(self):
        # not all(tau >= 0) also refuses nan, which every comparison fails
        if not np.all(self.tau >= 0):
            raise ValueError("tau must be nonnegative")


def double_layer(field, queries: np.ndarray, points: np.ndarray,
                 vectors: np.ndarray | None = None, summed: bool = False) -> np.ndarray:
    """Double-layer potential of a kernel field, built in chunks of queries.

    field(points, vectors) binds the sample once per call, in the caller's
    thread before any lane starts: it checks the sample and returns
    rows(chunk, work), which writes the chunk's rows into work[-1] and
    returns them: with vectors v_j the contracted rows sum_k K_ijk v_jk,
    shape (chunk, N), which summed sums over j; without, K's rows over
    columns (j, k). vectors must have the shape of points, one vector per
    sample point. Every chunk takes max(1, CHUNK_ENTRIES // (LANES * N))
    queries. Lane k of LANES takes chunks k, k + LANES, ..., the caller's
    thread lane 0 and threads of a pool the call starts the others, and
    reuses its own part of one workspace: three (chunk, N) scratch arrays,
    then the result's own rows, or a fourth array to sum when summed. So
    rows must be safe to call from several threads at once on disjoint
    planes. A row does not depend on its chunk, so the result is bit for bit
    that of one lane. Each lane runs under the caller's np.errstate with its
    share of the caller's ufunc buffer size, and the call returns or raises
    a lane's error only after every lane has stopped.
    """
    if queries.shape[1] != points.shape[1]:
        raise ValueError("queries and sample must share an ambient dimension")
    if vectors is not None and np.shape(vectors) != points.shape:
        raise ValueError(f"vectors of shape {np.shape(vectors)} do not match the sample "
                         f"of shape {points.shape}: one vector per sample point")
    rows = field(points, vectors)
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
                    into = out[lo:lo + len(chunk)]
                    planes = [*work[k, :, :len(chunk)]] + ([] if summed else [into])
                    result = rows(chunk, planes)
                    if summed:
                        result.sum(axis=1, out=into)
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
    return IndicatorSystem(A, np.ones(len(queries)), sample)


def assemble_scalar_system(queries: PointCloud, sample: OrientedSample,
                           config: KernelConfig) -> IndicatorSystem:
    """Rows dot(K(x_i, y_j), N(y_j)), rhs 1 at the interior queries; unknowns tau_j."""
    A = double_layer(config.field, queries.points, sample.points, sample.normals)
    return IndicatorSystem(A, np.ones(len(queries)), sample)


def _matvec(A: np.ndarray, x: np.ndarray, trans: bool = False) -> np.ndarray:
    """A x, or A^T x with trans, by scipy's dgemv on whichever of A, A^T is F-ordered."""
    import scipy.linalg as sla  # loaded by the first solve, not by import surfquad

    if A.flags.f_contiguous:
        return sla.blas.dgemv(1.0, A, x, trans=trans)
    return sla.blas.dgemv(1.0, A.T, x, trans=not trans)


def _tikhonov_qr(M: np.ndarray, lam: float, b: np.ndarray | None = None
                 ) -> tuple[np.ndarray, np.ndarray | None]:
    """R of [lam I; M] = Q [R; 0] for M of r x k, and with b, c = (Q^T [0; b])[:k].

    R is a C-ordered k x k view of the work array's first k * k doubles:
    no reflector is needed after its block has been applied, so a block
    writes its rows j0:j1 of R, zeros left of j0, to flat[j0 k : j1 k] of
    the F-ordered work array. They end at j1 k <= j1 (QR_BLOCK + r), the
    start of the first column that later blocks still read. c is a k-vector
    of its own. The LAPACK calls write only the work array, never M or b.
    """
    import scipy.linalg as sla

    r, k = M.shape
    tall = b is not None
    work = np.empty((QR_BLOCK + r, k + tall), order="F")
    below = work[QR_BLOCK:, :k]
    for i in range(0, r, LOAD_TILE):
        for j in range(0, k, LOAD_TILE):
            tile = np.s_[i:i + LOAD_TILE, j:j + LOAD_TILE]
            below[tile] = M[tile]
    if tall:
        work[QR_BLOCK:, k] = b
    flat = work.reshape(-1, order="F")
    c = np.empty(k) if tall else None
    lower = np.tri(QR_BLOCK, k=-1, dtype=bool)
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
        # has a component there, so its rows are R's rows as they stand; the
        # reflector parts that dgeqrt stores below the w x w corner's
        # diagonal are zeros, which the copy sets to +0.0 whatever their
        # sign. They are copied out first: on square systems
        # flat[j0 k : j1 k] overlaps the block's own panel
        rows = work[:w, j0:k].copy()
        np.copyto(rows[:, :w], 0.0, where=lower[:w, :w])
        if tall:
            c[j0:j1] = work[:w, k]
        dest = flat[j0 * k:j1 * k].reshape(w, k)
        dest[:, :j0] = 0.0
        dest[:, j0:] = rows
    return flat[:k * k].reshape(k, k), c


def _tikhonov_solve(A: np.ndarray, b: np.ndarray, lam: float) -> np.ndarray:
    import scipy.linalg as sla

    if A.shape[0] < A.shape[1]:
        if lam == 0.0:
            raise IllPosedSystemError(f"{A.shape[0]} rows cannot fix {A.shape[1]} unknowns "
                                      f"without regularization")
        # R^T R = A A^T + lam^2 I, so w = A^T (A A^T + lam^2 I)^-1 b
        R, _ = _tikhonov_qr(A.T, lam)
        # A is finite (solve_weights), so are R and b: no finiteness pass over R
        y = sla.solve_triangular(R, b, trans="T", check_finite=False)
        return _matvec(A, sla.solve_triangular(R, y, check_finite=False), trans=True)
    R, c = _tikhonov_qr(A, lam, b)
    # R's 1-norm condition is the infinity-norm condition of R^T, which is
    # F-ordered and lower triangular, so dtrcon reads it without a copy
    if lam == 0.0:
        rcond = sla.lapack.dtrcon(R.T, norm="I", uplo="L")[0]
        if not rcond > np.finfo(float).eps:
            raise IllPosedSystemError(f"system is rank deficient (reciprocal condition "
                                      f"{rcond:.3g}) and has no regularization")
    return sla.solve_triangular(R, c, check_finite=False)


def _warn_if_policy_moved_mass(action: str, mass: float, kept: float) -> None:
    # compared without dividing: a clamp may leave no kept mass at all
    if mass <= CLAMP_WARN_FRACTION * kept:
        return
    share = f"{mass / kept:.1%} of the kept mass {kept:.6g}" if kept > 0.0 else "all of it"
    warnings.warn(ClampedMassWarning(
        f"{action} mass {mass:.6g}, {share}; "
        f"the sample likely does not resolve the indicator at the queries"), stacklevel=3)


def solve_weights(system: IndicatorSystem, regularization: float | None = None, *,
                  policy: NegativeWeightPolicy = NegativeWeightPolicy.CLAMP_TO_ZERO
                  ) -> WeightSolution:
    """Solve the indicator system and unpack mu/tau on the system's sample.

    regularization is lambda >= 0, None for 1e-6 * max|A| (vector systems: the
    largest 2-norm of a row's block of one point's n columns); A must be finite.
    Scalar unknowns give mu_j = tau_j N(y_j), after policy has ruled on the
    negative raw weights.
    """
    # not (0 <= lam < inf) also refuses nan, which every comparison fails
    if regularization is not None and not 0.0 <= regularization < np.inf:
        raise ValueError(f"regularization must be nonnegative and finite, "
                         f"not {regularization}")
    A, b, sample = system.matrix, system.rhs, system.sample
    # max|A| without the |A| temporary, which is as large as A; nan if A holds one
    scale = float(max(A.max(), -A.min()))
    if not scale < np.inf:
        raise ValueError("system matrix holds a non-finite entry")
    if regularization is None and not isinstance(sample, OrientedSample):
        # a rotation of sample and queries rotates each block and keeps its norm
        blocks = A.reshape(len(A), len(sample), sample.dim)
        scale = float(np.sqrt(np.einsum("ijk,ijk->ij", blocks, blocks).max()))
    lam = _AUTO_SCALE * scale if regularization is None else regularization

    w = _tikhonov_solve(A, b, lam)
    residual = float(np.linalg.norm(_matvec(A, w) - b))

    offset = None
    if not isinstance(sample, OrientedSample):
        mu = w.reshape(sample.points.shape)
        tau = np.linalg.norm(mu, axis=1)
        negative, removed = 0, 0.0
    else:
        raw = w[:len(sample)]
        if len(raw) < len(w):
            offset = float(w[-1])
        negative = int(np.sum(raw < 0))
        removed = float(np.sum(np.maximum(-raw, 0.0)))
        if policy is NegativeWeightPolicy.CLAMP_TO_ZERO:
            tau = np.maximum(raw, 0.0)
            action = f"clamping {negative} negative raw weights removed"
        else:
            tau = np.abs(raw)
            action = f"flipping {negative} negative raw weights to |raw| carried"
        _warn_if_policy_moved_mass(action, removed, float(tau.sum()))
        mu = tau[:, None] * sample.normals

    diag = SolveDiagnostics(rows=A.shape[0], cols=A.shape[1], regularization=lam,
                            negative_count=negative, removed_mass=removed)
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
