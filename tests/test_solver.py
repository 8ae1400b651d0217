"""Assembly layout, Tikhonov solve vs the normal-equations oracle, integration."""

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
from surfquad.solver import (IndicatorSystem, NegativeWeightPolicy, SolverConfig,
                             SystemLayout, _tikhonov_solve, assemble_scalar_system,
                             assemble_vector_system, indicator_values,
                             integrate_function, solve_weights)


def _scalar_system(A, rhs, count=None):
    return IndicatorSystem(A, rhs, SystemLayout.SCALAR_UNKNOWNS,
                           count if count is not None else A.shape[1])


def test_rhs_entries_validated():
    with pytest.raises(ValueError):
        IndicatorSystem(np.eye(2), np.array([0.3, 1.0]), SystemLayout.SCALAR_UNKNOWNS, 2)


# --- assembly ----------------------------------------------------------------

def test_vector_assembly_single_pair():
    q = PointCloud(np.zeros((1, 3)))
    s = PointCloud(np.array([[1.0, 0.0, 0.0]]))
    system = assemble_vector_system(q, s, KernelConfig(3))
    assert system.matrix.shape == (1, 3)
    assert np.allclose(system.matrix[0], [1.0 / (4.0 * np.pi), 0.0, 0.0])
    assert system.rhs.tolist() == [1.0]


def test_vector_assembly_shape_contract():
    sample = gen_fibonacci_sphere(50)
    queries = interior_queries(sphere_spec(), 200, seed=1)
    system = assemble_vector_system(queries, sample.cloud, KernelConfig(3))
    assert system.matrix.shape == (200, 150)
    assert np.all(system.rhs == 1.0)
    assert system.layout is SystemLayout.VECTOR_UNKNOWNS


def test_vector_rows_against_exact_elements():
    sample = gen_fibonacci_sphere(2000)
    queries = interior_queries(sphere_spec(), 50, seed=2)
    system = assemble_vector_system(queries, sample.cloud, KernelConfig(3))
    mu_exact = (sample.points * (4.0 * np.pi / 2000)).ravel()
    values = system.matrix @ mu_exact
    assert np.max(np.abs(values - 1.0)) < 0.05


def test_scalar_assembly_entry_and_flip():
    q = PointCloud(np.zeros((1, 3)))
    s = OrientedSample(PointCloud(np.array([[1.0, 0, 0]])), np.array([[1.0, 0, 0]]))
    system = assemble_scalar_system(q, s, KernelConfig(3), np.array([0.5]))
    assert system.matrix[0, 0] == pytest.approx(1.0 / (4.0 * np.pi))
    assert system.rhs.tolist() == [0.5]
    flipped = assemble_scalar_system(q, s.flipped(), KernelConfig(3))
    assert np.allclose(flipped.matrix, -system.matrix)


def test_scalar_exact_elements_residual():
    sample = gen_fibonacci_sphere(1000)
    queries = interior_queries(sphere_spec(), 100, seed=3)
    system = assemble_scalar_system(queries, sample, KernelConfig(3))
    residual = system.matrix @ np.full(1000, 4.0 * np.pi / 1000) - system.rhs
    assert np.max(np.abs(residual)) < 0.05


def test_assembly_rejects_dimension_mismatch():
    q = PointCloud(np.zeros((1, 4)))
    s = PointCloud(np.array([[1.0, 0, 0]]))
    with pytest.raises(ValueError):
        assemble_vector_system(q, s, KernelConfig(3))


def test_assembly_rejects_coincident_points_unsoftened():
    q = PointCloud(np.array([[1.0, 0, 0]]))
    s = PointCloud(np.array([[1.0, 0, 0], [0.0, 1, 0]]))
    with pytest.raises(SingularEvaluationError):
        assemble_vector_system(q, s, KernelConfig(3))
    with pytest.raises(SingularEvaluationError):
        assemble_scalar_system(q, OrientedSample(s, np.eye(3)[:2]), KernelConfig(3))


def test_assembly_per_row_rhs():
    q = PointCloud(np.array([[0.0, 0, 0], [0.0, 0, 0.1]]))
    s = PointCloud(np.array([[1.0, 0, 0]]))
    system = assemble_vector_system(q, s, KernelConfig(3), np.array([1.0, 0.0]))
    assert system.rhs.tolist() == [1.0, 0.0]


# --- solve -------------------------------------------------------------------

def test_identity_system_recovers_rhs():
    system = _scalar_system(np.eye(3), np.array([1.0, 1.0, 1.0]))
    sol = solve_weights(system, SolverConfig(regularization=0.0), normals=np.eye(3))
    assert np.allclose(sol.tau, [1.0, 1.0, 1.0])


def test_huge_regularization_shrinks_to_zero():
    system = _scalar_system(np.eye(3), np.array([1.0, 0.5, 1.0]))
    sol = solve_weights(system, SolverConfig(regularization=1e12), normals=np.eye(3))
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


def _svd_filter_solve(A, b, lam):
    """Tikhonov reference through the SVD filter factors s / (s^2 + lam^2)."""
    U, s, Vt = np.linalg.svd(A, full_matrices=False)
    return Vt.T @ (s / (s * s + lam * lam) * (U.T @ b))


@pytest.mark.parametrize("shape", [(60, 25), (40, 40), (25, 60)])
def test_tikhonov_matches_svd_reference_at_production_lambda(shape):
    rng = np.random.default_rng(7 * shape[0] + shape[1])
    A = rng.standard_normal(shape)
    b = rng.standard_normal(shape[0])
    lam = 1e-6 * np.max(np.abs(A))
    ref = _svd_filter_solve(A, b, lam)
    w = _tikhonov_solve(A, b, lam)
    assert np.linalg.norm(w - ref) <= 1e-10 * np.linalg.norm(ref)


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
                                              ((30, 12), 0.0, "lstsq")])
def test_solve_reports_solver_path(shape, lam, path):
    rng = np.random.default_rng(shape[0] * shape[1])
    A = rng.standard_normal(shape)
    system = IndicatorSystem(A, np.ones(shape[0]), SystemLayout.VECTOR_UNKNOWNS, shape[1] // 3)
    sol = solve_weights(system, SolverConfig(regularization=lam))
    assert sol.diagnostics.path == path


def test_solve_weights_matches_oracle_end_to_end():
    # valid {0, 1/2, 1} rhs so the full IndicatorSystem contract is in play
    rng = np.random.default_rng(23)
    A = rng.standard_normal((50, 20))
    rhs = rng.choice([0.0, 0.5, 1.0], size=50)
    system = _scalar_system(A, rhs)
    lam = 1e-3
    # a random system is no indicator: its flip carries most of the mass
    with pytest.warns(ClampedMassWarning, match="flipping"):
        sol = solve_weights(system, SolverConfig(regularization=lam,
                                                 negative_weight_policy=NegativeWeightPolicy.FLIP),
                            normals=rng.standard_normal((20, 3)))
    oracle = normal_equations_solve(A, rhs, lam)
    assert np.linalg.norm(sol.tau - np.abs(oracle)) <= 1e-8 * np.linalg.norm(oracle)


def test_rank_deficient_unregularized_raises():
    A = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
    system = _scalar_system(A, np.ones(3))
    with pytest.raises(IllPosedSystemError):
        solve_weights(system, SolverConfig(regularization=0.0), normals=np.eye(2))


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
    system = assemble_scalar_system(queries, sample, KernelConfig(3))
    residuals = []
    for lam in (0.0, 1e-4, 1e-3, 1e-2, 1e-1, 1.0):
        sol = solve_weights(system, SolverConfig(regularization=lam),
                            normals=sample.normals)
        residuals.append(sol.residual_norm)
    assert all(residuals[i + 1] >= residuals[i] - 1e-12 for i in range(len(residuals) - 1))


def test_negative_weight_policies():
    system = _scalar_system(-np.eye(2), np.array([0.0, 1.0]))
    normals = np.array([[1.0, 0, 0], [0, 1.0, 0]])
    # the flip carries half of the kept mass, so it must warn like a clamp
    with pytest.warns(ClampedMassWarning, match="flipping 1 negative raw weights"):
        flip = solve_weights(system, SolverConfig(
            regularization=0.0, negative_weight_policy=NegativeWeightPolicy.FLIP),
            normals=normals)
    assert np.allclose(flip.tau, [0.0, 1.0])
    assert flip.diagnostics.negative_count == 1
    assert flip.diagnostics.removed_mass == pytest.approx(1.0)
    # the clamp keeps no mass at all, so any removed mass must warn
    with pytest.warns(ClampedMassWarning, match="1 negative raw weights"):
        clamp = solve_weights(system, SolverConfig(regularization=0.0), normals=normals)
    assert np.allclose(clamp.tau, [0.0, 0.0])
    assert clamp.diagnostics.negative_count == 1
    assert clamp.diagnostics.removed_mass == pytest.approx(1.0)


def test_scalar_solve_requires_normals():
    system = _scalar_system(np.eye(2), np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        solve_weights(system, SolverConfig(regularization=0.0))


def test_vector_mode_tau_is_mu_norm():
    sample = gen_fibonacci_sphere(30)
    queries = interior_queries(sphere_spec(), 120, seed=5)
    system = assemble_vector_system(queries, sample.cloud, KernelConfig(3))
    sol = solve_weights(system, SolverConfig())
    assert sol.mu.shape == (30, 3)
    assert np.max(np.abs(sol.tau - np.linalg.norm(sol.mu, axis=1))) < 1e-12
    assert np.all(sol.tau >= 0.0)
    assert sol.diagnostics.removed_mass == 0.0


def test_auto_regularization_recorded():
    sample = gen_fibonacci_sphere(20)
    queries = interior_queries(sphere_spec(), 60, seed=9)
    system = assemble_scalar_system(queries, sample, KernelConfig(3))
    sol = solve_weights(system, SolverConfig(), normals=sample.normals)
    expected = 1e-6 * np.max(np.abs(system.matrix))
    assert sol.diagnostics.regularization == pytest.approx(expected, rel=1e-12)
    assert sol.diagnostics.rows == 60 and sol.diagnostics.cols == 20


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_auto_regularization_is_exactly_scaled_abs_max(sign):
    # the largest magnitude is an entry of either sign
    A = sign * np.array([[0.5, -3.0, 1.0], [2.0, 0.25, -1.5]])
    system = IndicatorSystem(A, np.ones(2), SystemLayout.VECTOR_UNKNOWNS, 1)
    sol = solve_weights(system)
    assert sol.diagnostics.regularization == 1e-6 * np.max(np.abs(A))


# --- indicator and integration -----------------------------------------------

def _indicator_at(x, sample, solution):
    """indicator_values on a one-point query cloud."""
    return indicator_values(PointCloud(x), sample.cloud, solution, KernelConfig(3))[0]


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
