"""Assembly layout, Tikhonov solve vs the normal-equations oracle, integration."""

import re
import tracemalloc

import numpy as np
import pytest
import scipy.linalg as sla

from conftest import normal_equations_solve
from surfquad.errors import ClampedMassWarning, IllPosedSystemError, SingularEvaluationError
from surfquad.geometry import (OrientedSample, PointCloud, gen_fibonacci_sphere,
                               interior_queries, sphere_spec)
from surfquad.kernel import KernelConfig
from surfquad.riemannian import (SphereModel, assemble_riemann_system, cap_boundary_sample,
                                 cap_query_points)
from surfquad.solver import (LOAD_TILE, QR_BLOCK, IndicatorSystem, NegativeWeightPolicy,
                             SolveDiagnostics, WeightSolution, _matvec, _tikhonov_qr,
                             _tikhonov_solve, assemble_scalar_system, assemble_vector_system,
                             double_layer, indicator_values, integrate_function, solve_weights)


def _cloud(count, dim):
    """count distinct points in R^dim, built without a random draw."""
    return PointCloud(np.arange(count * dim, dtype=float).reshape(count, dim))


def _oriented(count):
    """_cloud(count, 3) with every normal e_1."""
    return OrientedSample(_cloud(count, 3), np.tile([1.0, 0.0, 0.0], (count, 1)))


def _scalar_system(A, rhs):
    return IndicatorSystem(A, rhs, _oriented(A.shape[1]))


def _vector_system(A, rhs, dim):
    """Vector unknowns in R^dim: A's columns (j, k) over A.shape[1] // dim points."""
    return IndicatorSystem(A, rhs, _cloud(A.shape[1] // dim, dim))


def test_rhs_entries_validated():
    with pytest.raises(ValueError):
        IndicatorSystem(np.eye(2), np.array([0.3, 1.0]), _oriented(2))


# --- assembly ----------------------------------------------------------------

def test_vector_assembly_single_pair():
    q = PointCloud(np.zeros((1, 3)))
    s = PointCloud(np.array([[1.0, 0.0, 0.0]]))
    system = assemble_vector_system(q, s)
    assert system.matrix.shape == (1, 3)
    assert np.allclose(system.matrix[0], [1.0 / (4.0 * np.pi), 0.0, 0.0])
    assert system.rhs.tolist() == [1.0]


def test_vector_assembly_shape_contract():
    sample = gen_fibonacci_sphere(50)
    queries = interior_queries(sphere_spec(), 200, seed=1)
    system = assemble_vector_system(queries, sample.cloud)
    assert system.matrix.shape == (200, 150)
    assert np.all(system.rhs == 1.0)
    assert system.sample is sample.cloud


def test_vector_rows_against_exact_elements():
    sample = gen_fibonacci_sphere(2000)
    queries = interior_queries(sphere_spec(), 50, seed=2)
    system = assemble_vector_system(queries, sample.cloud)
    mu_exact = (sample.points * (4.0 * np.pi / 2000)).ravel()
    values = system.matrix @ mu_exact
    assert np.max(np.abs(values - 1.0)) < 0.05


def test_scalar_assembly_entry_and_flip():
    q = PointCloud(np.zeros((1, 3)))
    s = OrientedSample(PointCloud(np.array([[1.0, 0, 0]])), np.array([[1.0, 0, 0]]))
    system = assemble_scalar_system(q, s)
    assert system.matrix[0, 0] == pytest.approx(1.0 / (4.0 * np.pi))
    assert system.rhs.tolist() == [1.0]
    flipped = assemble_scalar_system(q, OrientedSample(s.cloud, -s.normals))
    assert np.allclose(flipped.matrix, -system.matrix)


def test_scalar_exact_elements_residual():
    sample = gen_fibonacci_sphere(1000)
    queries = interior_queries(sphere_spec(), 100, seed=3)
    system = assemble_scalar_system(queries, sample)
    residual = system.matrix @ np.full(1000, 4.0 * np.pi / 1000) - system.rhs
    assert np.max(np.abs(residual)) < 0.05


@pytest.mark.parametrize("n", [3, 4, 5])
def test_assembly_reads_the_kernel_of_the_sample_dimension(n):
    # the assemblers build KernelConfig(sample.dim) themselves: their rows are
    # the double layer of that kernel, bit for bit
    rng = np.random.default_rng(40 + n)
    queries = PointCloud(rng.standard_normal((30, n)))
    normals = rng.standard_normal((20, n))
    sample = OrientedSample(PointCloud(rng.standard_normal((20, n))),
                            normals / np.linalg.norm(normals, axis=1, keepdims=True))
    field = KernelConfig(n).field
    assert np.array_equal(assemble_scalar_system(queries, sample).matrix,
                          double_layer(field, queries.points, sample.points, sample.normals))
    assert np.array_equal(assemble_vector_system(queries, sample.cloud).matrix,
                          double_layer(field, queries.points, sample.points))


def test_assembly_rejects_dimension_mismatch():
    q = PointCloud(np.zeros((1, 4)))
    s = PointCloud(np.array([[1.0, 0, 0]]))
    with pytest.raises(ValueError):
        assemble_vector_system(q, s)


def test_assembly_rejects_coincident_points_unsoftened():
    q = PointCloud(np.array([[1.0, 0, 0]]))
    s = PointCloud(np.array([[1.0, 0, 0], [0.0, 1, 0]]))
    with pytest.raises(SingularEvaluationError):
        assemble_vector_system(q, s)
    with pytest.raises(SingularEvaluationError):
        assemble_scalar_system(q, OrientedSample(s, np.eye(3)[:2]))


def test_assembly_per_row_rhs():
    q = PointCloud(np.array([[0.0, 0, 0], [0.0, 0, 0.1]]))
    s = PointCloud(np.array([[1.0, 0, 0]]))
    # assembled rows are interior queries; a per-row rhs pairs with the matrix
    # in an IndicatorSystem of its own
    system = assemble_vector_system(q, s)
    assert system.rhs.tolist() == [1.0, 1.0]
    mixed = IndicatorSystem(system.matrix, np.array([1.0, 0.0]), system.sample)
    assert mixed.rhs.tolist() == [1.0, 0.0]


# --- solve -------------------------------------------------------------------

def test_identity_system_recovers_rhs():
    system = _scalar_system(np.eye(3), np.array([1.0, 1.0, 1.0]))
    sol = solve_weights(system, 0.0)
    assert np.allclose(sol.tau, [1.0, 1.0, 1.0])


def test_huge_regularization_shrinks_to_zero():
    system = _scalar_system(np.eye(3), np.array([1.0, 0.5, 1.0]))
    sol = solve_weights(system, 1e12)
    assert np.max(sol.tau) < 1e-12


@pytest.mark.parametrize("lam", [0.0, 1e-3])
@pytest.mark.parametrize("shape", [(40, 12), (120, 60), (200, 200)])
def test_tikhonov_matches_normal_equations_oracle(lam, shape):
    rng = np.random.default_rng(shape[0] + shape[1])
    A = rng.standard_normal(shape)
    b = rng.standard_normal(shape[0])
    w = _tikhonov_solve(A, b, lam)
    oracle = normal_equations_solve(A, b, lam)
    assert np.linalg.norm(w - oracle) <= 1e-8 * np.linalg.norm(oracle)


def test_tikhonov_wide_branch_matches_oracle():
    # wide systems take the dual QR of [A^T; lam I]; lam large enough that
    # the normal-equations oracle itself keeps 10 clean digits
    rng = np.random.default_rng(31)
    A = rng.standard_normal((30, 80))
    b = rng.standard_normal(30)
    lam = 1e-2
    w = _tikhonov_solve(A, b, lam)
    oracle = normal_equations_solve(A, b, lam)
    assert np.linalg.norm(w - oracle) <= 1e-8 * np.linalg.norm(oracle)


# factored widths k of one block, one column short of a block, an exact
# block, a partial last block and several blocks, as tall (2k + 1, k) and
# wide (k, 2k + 1) systems; the tall stack factors k + 1 columns, its last
# one [b; 0]
BLOCK_EDGE_SHAPES = [shape for k in (1, QR_BLOCK - 1, QR_BLOCK, QR_BLOCK + 1, 2 * QR_BLOCK + 2)
                     for shape in ((2 * k + 1, k), (k, 2 * k + 1))]

# M of more than one load tile each way, whose last tiles are partial
TILE_EDGE_SHAPES = [(LOAD_TILE + 5, LOAD_TILE + 3), (LOAD_TILE + 3, LOAD_TILE + 5)]


@pytest.mark.parametrize("shape", BLOCK_EDGE_SHAPES)
def test_tikhonov_block_edges_match_normal_equations(shape):
    # entries scaled so that the singular values stay O(1) at every k: the
    # wide oracle's A^T A + lam^2 I is singular at lam = 0, and its condition
    # number (sigma_max / lam)^2 must leave it 10 clean digits
    rng = np.random.default_rng(shape[0] + shape[1])
    A = rng.standard_normal(shape) / np.sqrt(shape[1])
    b = rng.standard_normal(shape[0])
    w = _tikhonov_solve(A, b, 1e-3)
    oracle = normal_equations_solve(A, b, 1e-3)
    assert np.linalg.norm(w - oracle) <= 1e-8 * np.linalg.norm(oracle)


@pytest.mark.parametrize("shape", BLOCK_EDGE_SHAPES)
def test_tikhonov_block_edges_where_lambda_dominates(shape):
    # at lam = 1 against singular values O(1) each block's lam rows weigh
    # as much as M, so lam rows that a block lost, doubled or shifted show
    rng = np.random.default_rng(2 * shape[0] + shape[1])
    A = rng.standard_normal(shape) / np.sqrt(shape[1])
    b = rng.standard_normal(shape[0])
    w = _tikhonov_solve(A, b, 1.0)
    oracle = normal_equations_solve(A, b, 1.0)
    assert np.linalg.norm(w - oracle) <= 1e-10 * np.linalg.norm(oracle)


@pytest.mark.parametrize("lam", [0.0, 1e-3, 1.0])
@pytest.mark.parametrize("shape", [*BLOCK_EDGE_SHAPES, *TILE_EDGE_SHAPES])
def test_tikhonov_qr_factors_the_regularized_gram_matrix(shape, lam):
    # M = A on the tall path, with c = (Q^T [0; b])[:k], so that
    # R^T c = [lam I; M]^T [0; b] = M^T b; M = A^T on the wide path
    rng = np.random.default_rng(5 * shape[0] + shape[1])
    A = rng.standard_normal(shape)
    b = rng.standard_normal(shape[0])
    tall = shape[0] >= shape[1]
    M = A if tall else A.T
    R, c = _tikhonov_qr(M, lam, b if tall else None)
    k = M.shape[1]
    assert R.shape == (k, k) and np.array_equal(R, np.triu(R)) and R.flags.c_contiguous
    scale = np.linalg.norm(M, 2) ** 2
    gram = M.T @ M + lam * lam * np.eye(k)
    assert np.max(np.abs(R.T @ R - gram)) <= 1e-12 * scale
    if tall:
        assert np.max(np.abs(R.T @ c - M.T @ b)) <= 1e-12 * np.sqrt(scale) * np.linalg.norm(b)
    else:
        assert c is None


@pytest.mark.parametrize("layout", ["C", "F", "strided"])
@pytest.mark.parametrize("shape, lam", [((2 * QR_BLOCK + 5, QR_BLOCK + 3), 1e-3),
                                        ((QR_BLOCK + 3, 2 * QR_BLOCK + 5), 1e-3),
                                        ((2 * QR_BLOCK + 5, QR_BLOCK + 3), 0.0),
                                        *((shape, 1e-3) for shape in TILE_EDGE_SHAPES)])
def test_solve_leaves_its_inputs_unchanged(shape, lam, layout):
    # the in-place LAPACK calls may write only the solve's own work array
    rng = np.random.default_rng(shape[0] + 3 * shape[1])
    base = rng.standard_normal((shape[0], 2 * shape[1]))
    A = {"C": np.ascontiguousarray(base[:, :shape[1]]),
         "F": np.asfortranarray(base[:, :shape[1]]),
         "strided": base[:, ::2]}[layout]
    b = rng.standard_normal(shape[0])
    before = base.tobytes(), A.tobytes(), b.tobytes()
    _tikhonov_solve(A, b, lam)
    assert (base.tobytes(), A.tobytes(), b.tobytes()) == before


@pytest.mark.parametrize("shape, lam", [((16 * QR_BLOCK, 8 * QR_BLOCK), 1e-3),
                                        ((8 * QR_BLOCK, 8 * QR_BLOCK), 1e-3),
                                        ((8 * QR_BLOCK, 16 * QR_BLOCK), 1e-3),
                                        ((16 * QR_BLOCK, 8 * QR_BLOCK), 0.0)])
def test_solve_keeps_r_in_its_work_array(shape, lam):
    # R sits in the work array's finished panels, so beyond A and b the
    # solve holds the work array and block-sized temporaries, not a second
    # k x k array of doubles (measured 0.30 of R's bytes at k = 8 QR_BLOCK,
    # 1.13 with R apart)
    rng = np.random.default_rng(shape[0] + 2 * shape[1])
    A = rng.standard_normal(shape)
    b = rng.standard_normal(shape[0])
    tall = shape[0] >= shape[1]
    r, k = shape if tall else shape[::-1]
    work = (QR_BLOCK + r) * (k + tall) * 8
    tracemalloc.start()
    try:
        _tikhonov_solve(A, b, lam)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < work + k * k * 8 / 2


def _svd_filter_solve(A, b, lam):
    """Tikhonov reference through the SVD filter factors s / (s^2 + lam^2)."""
    U, s, Vt = np.linalg.svd(A, full_matrices=False)
    return Vt.T @ (s / (s * s + lam * lam) * (U.T @ b))


@pytest.mark.parametrize("shape", [(60, 25), (40, 40), (25, 60), *BLOCK_EDGE_SHAPES])
def test_tikhonov_matches_svd_reference_at_production_lambda(shape):
    rng = np.random.default_rng(7 * shape[0] + shape[1])
    A = rng.standard_normal(shape)
    b = rng.standard_normal(shape[0])
    lam = 1e-6 * np.max(np.abs(A))
    ref = _svd_filter_solve(A, b, lam)
    w = _tikhonov_solve(A, b, lam)
    assert np.linalg.norm(w - ref) <= 1e-10 * np.linalg.norm(ref)


def test_tall_path_on_closed_sphere_at_production_lambda():
    # 800 x 400, seven blocks of the tall stack; lam = 1e-6 max|A| is 7e-9 of
    # A's largest singular value. Relative to the reference, over query seeds
    # 1-8, the weights were 8.5e-9 to 1.3e-8 away with qr_multiply and 1.1e-8
    # to 1.6e-8 with dgeqrt, the objective within 3.0e-10 and 1.4e-10; at
    # seed 1, 8.5e-9 and 1.6e-8 away, within 7.7e-11 and 1.4e-11
    sample = gen_fibonacci_sphere(400)
    queries = interior_queries(sphere_spec(), 800, seed=1)
    A = assemble_scalar_system(queries, sample).matrix
    b = np.ones(len(A))
    lam = 1e-6 * np.max(np.abs(A))
    ref = _svd_filter_solve(A, b, lam)
    w = _tikhonov_solve(A, b, lam)

    def objective(x):
        return np.linalg.norm(A @ x - b) ** 2 + lam * lam * np.linalg.norm(x) ** 2

    assert np.linalg.norm(w - ref) <= 5e-8 * np.linalg.norm(ref)
    assert abs(objective(w) - objective(ref)) <= 1e-9 * objective(ref)


@pytest.mark.parametrize("seeds", [(4, 5), (14, 15), (24, 25), (34, 35)])
def test_cap_system_gram_matrix_is_indefinite(seeds):
    # the benchmark's s2-cap systems: whether the Gram Cholesky fails is
    # rounding, but the computed A A^T + lam^2 I has a negative eigenvalue,
    # -1.3e-12 to -6.4e-12 on these four against lam^2 = 1e-12
    alpha = np.pi / 3
    system = assemble_riemann_system(cap_query_points(alpha, 500, seeds[0], side="interior"),
                                     cap_query_points(alpha, 500, seeds[1], side="exterior"),
                                     cap_boundary_sample(alpha, 2000), SphereModel())
    A = system.matrix
    lam = 1e-6 * np.max(np.abs(A))
    assert np.linalg.eigvalsh(A @ A.T + lam * lam * np.eye(len(A)))[0] < 0.0


def test_tikhonov_on_cap_system_where_gram_cholesky_fails():
    # the s2-cap operating point of the benchmark (alpha = pi/3, N = 2000,
    # 500 + 500 queries; interior seed 14, exterior seed 15): A has singular
    # values down to 1e-16, far below lam = 1e-6 max|A|
    alpha = np.pi / 3
    system = assemble_riemann_system(cap_query_points(alpha, 500, 14, side="interior"),
                                     cap_query_points(alpha, 500, 15, side="exterior"),
                                     cap_boundary_sample(alpha, 2000), SphereModel())
    A, b = system.matrix, system.rhs
    lam = 1e-6 * np.max(np.abs(A))
    ref = _svd_filter_solve(A, b, lam)
    w = _tikhonov_solve(A, b, lam)
    assert np.linalg.norm(w - ref) <= 1e-7 * np.linalg.norm(ref)
    # why the wide path does not factor the Gram matrix: forming it squares
    # the condition number, and its Cholesky fails in floating point
    with pytest.raises(np.linalg.LinAlgError):
        sla.cho_factor(A @ A.T + lam * lam * np.eye(len(A)))


@pytest.mark.parametrize("shape, lam, path", [((30, 12), 1e-3, "tall-qr"),
                                              ((12, 12), 1e-3, "tall-qr"),
                                              ((12, 30), 1e-3, "wide-qr"),
                                              ((30, 12), 0.0, "tall-qr")])
def test_solve_reports_solver_path(shape, lam, path):
    rng = np.random.default_rng(shape[0] * shape[1])
    A = rng.standard_normal(shape)
    system = _vector_system(A, np.ones(shape[0]), 3)
    sol = solve_weights(system, lam)
    assert sol.diagnostics.path == path


class _NoMatmul(np.ndarray):
    """A matrix whose np.matmul (the @ operator, on numpy's own BLAS) raises."""

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc is np.matmul:
            raise AssertionError("np.matmul runs on numpy's BLAS, not scipy's")
        inputs = [x.view(np.ndarray) if isinstance(x, _NoMatmul) else x for x in inputs]
        return getattr(ufunc, method)(*inputs, **kwargs)


@pytest.mark.parametrize("shape, lam", [((40, 12), 1e-3), ((12, 40), 1e-3), ((40, 12), 0.0)])
def test_solve_products_run_on_scipy_blas(shape, lam):
    # numpy's OpenBLAS pool spins on after a product and slows the next QR,
    # so no product of the solve may go through np.matmul
    rng = np.random.default_rng(shape[0] + 2 * shape[1])
    A = rng.standard_normal(shape)
    b = rng.standard_normal(shape[0])
    guarded = A.view(_NoMatmul)
    with pytest.raises(AssertionError, match="numpy's BLAS"):
        guarded.T @ b
    w = _tikhonov_solve(guarded, b, lam)
    assert np.array_equal(w, _tikhonov_solve(A, b, lam))
    assert np.array_equal(_matvec(guarded, w), _matvec(A, w))
    assert np.array_equal(_matvec(guarded, b, trans=True), _matvec(A, b, trans=True))


@pytest.mark.parametrize("shape", [(40, 12), (12, 40)])
def test_solve_takes_every_matrix_layout(shape):
    # C order and a strided column slice both run dgemv on A^T (the slice on
    # f2py's C-ordered copy) and agree bit for bit; F order runs dgemv on A
    # itself, uncopied, whose other summation order moves only the rounding
    rng = np.random.default_rng(shape[0] * shape[1])
    A = rng.standard_normal(shape)
    wider = np.zeros((shape[0], shape[1] + 5))
    wider[:, 2:-3] = A
    columns = wider[:, 2:-3]
    assert not columns.flags.c_contiguous and not columns.flags.f_contiguous
    c, sliced, fortran = (
        solve_weights(_vector_system(M, np.ones(shape[0]), 1), 1e-3)
        for M in (A, columns, np.asfortranarray(A)))
    assert np.array_equal(sliced.mu, c.mu) and sliced.residual_norm == c.residual_norm
    assert np.max(np.abs(fortran.mu - c.mu)) <= 1e-14 * np.max(np.abs(c.mu))
    scale = np.linalg.norm(A) * np.linalg.norm(c.mu)
    assert abs(fortran.residual_norm - c.residual_norm) <= 1e-14 * scale


@pytest.mark.parametrize("shape", [(60, 25), (25, 60)])
def test_residual_norm_matches_an_independent_residual(shape):
    # lambda = 1 keeps the wide residual far above the rounding of A w
    rng = np.random.default_rng(3 * shape[0] + shape[1])
    A = rng.standard_normal(shape)
    b = np.ones(shape[0])
    system = _vector_system(A, b, 1)
    sol = solve_weights(system, 1.0)
    oracle = np.linalg.norm(A @ sol.mu.ravel() - b)
    assert sol.residual_norm == pytest.approx(oracle, rel=1e-12, abs=0.0)


def test_solve_weights_matches_oracle_end_to_end():
    # valid {0, 1/2, 1} rhs so the full IndicatorSystem contract is in play
    rng = np.random.default_rng(23)
    A = rng.standard_normal((50, 20))
    rhs = rng.choice([0.0, 0.5, 1.0], size=50)
    system = _scalar_system(A, rhs)
    lam = 1e-3
    # a random system is no indicator: its flip carries most of the mass
    with pytest.warns(ClampedMassWarning, match="flipping"):
        sol = solve_weights(system, lam, policy=NegativeWeightPolicy.FLIP)
    oracle = normal_equations_solve(A, rhs, lam)
    assert np.linalg.norm(sol.tau - np.abs(oracle)) <= 1e-8 * np.linalg.norm(oracle)


@pytest.mark.parametrize("lam", [None, 1e-3])
@pytest.mark.parametrize("shape", [(0, 3), (3, 0)])
def test_solve_refuses_a_system_without_rows_or_columns(shape, lam):
    # the system refuses itself, before any solve
    with pytest.raises(ValueError, match="at least one row and one column"):
        solve_weights(IndicatorSystem(np.zeros(shape), np.ones(shape[0]), _oriented(3)), lam)


def test_rank_deficient_unregularized_raises():
    A = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
    system = _scalar_system(A, np.ones(3))
    with pytest.raises(IllPosedSystemError):
        solve_weights(system, 0.0)


def test_wide_unregularized_raises():
    # full row rank, but fewer rows than unknowns: the minimizers form a line
    A = np.array([[1.0, 0.0, 2.0], [0.0, 1.0, 3.0]])
    system = _scalar_system(A, np.ones(2))
    with pytest.raises(IllPosedSystemError, match="without regularization"):
        solve_weights(system, 0.0)


@pytest.mark.parametrize("lam", [None, 1e-3, 0.0])
@pytest.mark.parametrize("shape", [(90, 60), (30, 60)])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_matrix_refused_by_name(bad, shape, lam):
    # refused before any factorization, whatever the shape and lambda
    A = np.random.default_rng(shape[0]).standard_normal(shape)
    A[shape[0] // 2, 7] = bad
    with pytest.raises(ValueError, match="system matrix holds a non-finite entry"):
        solve_weights(_scalar_system(A, np.ones(shape[0])), lam)


def test_unregularized_least_squares_scaling_covariance():
    rng = np.random.default_rng(11)
    A = rng.standard_normal((25, 10))
    b = rng.standard_normal(25)
    base = _tikhonov_solve(A, b, 0.0)
    for s in (2.0, -3.5, 0.25):
        assert np.allclose(_tikhonov_solve(A, s * b, 0.0), s * base, rtol=1e-10)


def test_residual_monotone_in_lambda():
    sample = gen_fibonacci_sphere(40)
    queries = interior_queries(sphere_spec(), 80, seed=12)
    system = assemble_scalar_system(queries, sample)
    residuals = []
    for lam in (0.0, 1e-4, 1e-3, 1e-2, 1e-1, 1.0):
        sol = solve_weights(system, lam)
        residuals.append(sol.residual_norm)
    assert all(residuals[i + 1] >= residuals[i] - 1e-12 for i in range(len(residuals) - 1))


def test_negative_weight_policies():
    system = _scalar_system(-np.eye(2), np.array([0.0, 1.0]))
    # the flip carries half of the kept mass, so it must warn like a clamp
    with pytest.warns(ClampedMassWarning, match="flipping 1 negative raw weights"):
        flip = solve_weights(system, 0.0, policy=NegativeWeightPolicy.FLIP)
    assert np.allclose(flip.tau, [0.0, 1.0])
    assert flip.diagnostics.negative_count == 1
    assert flip.diagnostics.removed_mass == pytest.approx(1.0)
    # the clamp keeps no mass at all, so any removed mass must warn
    with pytest.warns(ClampedMassWarning, match="1 negative raw weights"):
        clamp = solve_weights(system, 0.0)
    assert np.allclose(clamp.tau, [0.0, 0.0])
    assert clamp.diagnostics.negative_count == 1
    assert clamp.diagnostics.removed_mass == pytest.approx(1.0)


def test_scalar_solve_requires_normals():
    # scalar unknowns need normals, which a cloud lacks: its unknowns are
    # vectors, and 2 points in R^3 take 6 columns, not 2
    with pytest.raises(ValueError, match=re.escape("a sample of 2 points (PointCloud) "
                                                   "takes 6 columns, not 2")):
        IndicatorSystem(np.eye(2), np.array([1.0, 1.0]), _cloud(2, 3))


@pytest.mark.parametrize("sample, cols, takes", [
    (_oriented(5), 4, "5 or 6"), (_oriented(5), 7, "5 or 6"),
    (_cloud(5, 3), 14, "15"), (_cloud(5, 3), 17, "15")])
def test_columns_the_sample_does_not_have_are_refused(sample, cols, takes):
    # N - 1 and N + 2 columns on 5 oriented points, which take 5, or 6 with
    # the offset; nN - 1 and nN + 2 on 5 points in R^3, which take 15
    with pytest.raises(ValueError, match=re.escape(
            f"a sample of 5 points ({type(sample).__name__}) takes {takes} columns, not {cols}")):
        IndicatorSystem(np.ones((8, cols)), np.ones(8), sample)


def test_vector_mode_tau_is_mu_norm():
    sample = gen_fibonacci_sphere(30)
    queries = interior_queries(sphere_spec(), 120, seed=5)
    system = assemble_vector_system(queries, sample.cloud)
    sol = solve_weights(system, None)
    assert sol.mu.shape == (30, 3)
    assert np.max(np.abs(sol.tau - np.linalg.norm(sol.mu, axis=1))) < 1e-12
    assert np.all(sol.tau >= 0.0)
    assert sol.diagnostics.removed_mass == 0.0


def test_auto_regularization_recorded():
    sample = gen_fibonacci_sphere(20)
    queries = interior_queries(sphere_spec(), 60, seed=9)
    system = assemble_scalar_system(queries, sample)
    sol = solve_weights(system, None)
    expected = 1e-6 * np.max(np.abs(system.matrix))
    assert sol.diagnostics.regularization == pytest.approx(expected, rel=1e-12)
    assert sol.diagnostics.rows == 60 and sol.diagnostics.cols == 20


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_auto_regularization_is_exactly_scaled_abs_max(sign):
    # the largest magnitude is an entry of either sign
    A = sign * np.array([[0.5, -3.0, 1.0], [2.0, 0.25, -1.5]])
    system = _scalar_system(A, np.ones(2))
    # either sign leaves a negative raw weight, which the clamp removes
    with pytest.warns(ClampedMassWarning, match="clamping"):
        sol = solve_weights(system)
    assert sol.diagnostics.regularization == 1e-6 * np.max(np.abs(A))


def test_auto_regularization_of_a_vector_system_is_its_largest_point_block():
    # two points in R^3: the block norms are sqrt(10.25), sqrt(6.3125),
    # sqrt(12.75) and sqrt(3), and the largest entry, 3, sits in another block
    A = np.array([[0.5, -3.0, 1.0, 2.0, 0.25, -1.5], [-2.5, 2.5, 0.5, 1.0, 1.0, 1.0]])
    lam = solve_weights(_vector_system(A, np.ones(2), 3)).diagnostics.regularization
    assert lam == 1e-6 * np.sqrt(12.75)
    # rotating every point's block keeps it
    c, s = np.cos(0.7), np.sin(0.7)
    Q = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    rotated = (A.reshape(2, 2, 3) @ Q.T).reshape(2, 6)
    sol = solve_weights(_vector_system(rotated, np.ones(2), 3))
    assert sol.diagnostics.regularization == pytest.approx(lam, rel=1e-14)


# --- indicator and integration -----------------------------------------------

def _indicator_at(x, sample, solution):
    """indicator_values on a one-point query cloud."""
    return indicator_values(PointCloud(x[None, :]), sample.cloud, solution, KernelConfig(3))[0]


def test_indicator_exact_at_origin(exact_sphere_weights):
    sample, solution = exact_sphere_weights(1000)
    val = _indicator_at(np.zeros(3), sample, solution)
    assert abs(val - 1.0) < 1e-12


def test_indicator_far_field_small(exact_sphere_weights):
    sample, solution = exact_sphere_weights(2000)
    val = _indicator_at(np.array([10.0, 0.0, 0.0]), sample, solution)
    assert abs(val) < 0.01


def test_indicator_boundary_half(exact_sphere_weights):
    sample, solution = exact_sphere_weights(2000)
    # midpoint of two nearby lattice points, projected back to the sphere
    mid = sample.points[1000] + sample.points[1013]
    mid /= np.linalg.norm(mid)
    val = _indicator_at(mid, sample, solution)
    assert abs(val - 0.5) < 0.1


def test_indicator_singular_at_sample_point(exact_sphere_weights):
    sample, solution = exact_sphere_weights(100)
    with pytest.raises(SingularEvaluationError):
        _indicator_at(sample.points[3], sample, solution)


def test_indicator_values_offset_applied(exact_sphere_weights):
    sample, solution = exact_sphere_weights(100)
    shifted = type(solution)(mu=solution.mu, tau=solution.tau,
                             residual_norm=0.0, diagnostics=solution.diagnostics,
                             offset=0.25)
    q = PointCloud(np.zeros((1, 3)))
    base = indicator_values(q, sample.cloud, solution, KernelConfig(3))[0]
    with_offset = indicator_values(q, sample.cloud, shifted, KernelConfig(3))[0]
    assert with_offset == pytest.approx(base + 0.25, abs=1e-12)


def test_integrate_function_values(exact_sphere_weights):
    sample, solution = exact_sphere_weights(2000)
    assert integrate_function(np.zeros(2000), solution) == 0.0
    assert integrate_function(np.ones(2000), solution) == pytest.approx(4.0 * np.pi, rel=1e-12)
    z2 = integrate_function(sample.points[:, 2] ** 2, solution)
    assert z2 == pytest.approx(4.0 * np.pi / 3.0, rel=0.005)


def test_integrate_function_length_mismatch(exact_sphere_weights):
    _, solution = exact_sphere_weights(100)
    with pytest.raises(ValueError):
        integrate_function(np.ones(99), solution)


def test_system_refuses_an_rhs_of_another_length():
    sample = gen_fibonacci_sphere(2)
    with pytest.raises(ValueError, match="^matrix rows and rhs length must agree$"):
        IndicatorSystem(np.ones((2, 2)), np.ones(3), sample)


@pytest.mark.parametrize("tau", [-1e-300, np.nan])
def test_solution_refuses_a_tau_that_is_not_nonnegative(tau):
    with pytest.raises(ValueError, match="^tau must be nonnegative$"):
        WeightSolution(np.zeros((1, 3)), np.array([tau]), 0.0, SolveDiagnostics(1, 1, 0.0, 0))
