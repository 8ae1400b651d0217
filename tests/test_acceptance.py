"""Acceptance suite: every exit criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -s` to see one PASS/FAIL line per
criterion; each test also enforces its runtime budget.
"""

import csv
import time

import numpy as np
import pytest

from conftest import normal_equations_solve
from surfquad.collar import CollarConfig, build_collar, integrate_with_boundary
from surfquad.errors import ClampedMassWarning
from surfquad.geometry import (PointCloud, gen_circle_r3, gen_fibonacci_sphere,
                               gen_hemisphere, hemisphere_spec, interior_queries,
                               median_nn_spacing, sphere_spec)
from surfquad.kernel import (KernelConfig, double_layer_block, double_layer_row,
                             fundamental_solution)
from surfquad.pipelines import (solve_closed_scalar, solve_closed_vector,
                                solve_collar, solve_manifold_boundary, solve_tube)
from surfquad.riemannian import (SphereModel, cap_boundary_sample, cap_query_points,
                                 continuous_cap_indicator)
from surfquad.solver import (CLAMP_WARN_FRACTION, IndicatorSystem, SolverConfig,
                             SystemLayout, indicator_values, integrate_function,
                             solve_weights)
from surfquad.tube import build_tube, integrate_codim, sample_normal_sphere


def _clamp_kept_mass(solution) -> bool:
    """The negative-weight clamp removed no more than its warning threshold."""
    return solution.diagnostics.removed_mass <= CLAMP_WARN_FRACTION * solution.tau.sum()


def _report(number: int, label: str, passed: bool, elapsed: float):
    state = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number:2d} {state}  {label}  [{elapsed:.2f}s]")
    assert passed, f"criterion {number}: {label}"


@pytest.fixture(scope="module")
def sphere_scalar_solution():
    """Criterion 3's operating point, shared with criterion 5."""
    sample = gen_fibonacci_sphere(1000)
    queries = interior_queries(sphere_spec(), 300, seed=11, margin=0.5)
    solution = solve_closed_scalar(sample, queries)
    return sample, solution


def test_criterion_1_kernel_gradient():
    start = time.perf_counter()
    ok = True
    for n in (3, 4, 5):
        cfg = KernelConfig(n)
        rng = np.random.default_rng(n)
        for _ in range(100):
            x = rng.standard_normal(n)
            y = x + rng.standard_normal(n)
            row = double_layer_row(x, y, cfg)
            fd = np.empty(n)
            step = 1e-5
            for k in range(n):
                e = np.zeros(n)
                e[k] = step
                # translation-invariant kernel: differencing the first slot
                # realizes the gradient the double-layer row implements
                fd[k] = (fundamental_solution(x + e, y, cfg)
                         - fundamental_solution(x - e, y, cfg)) / (2 * step)
            ok &= np.linalg.norm(row - fd) < 1e-6 * np.linalg.norm(fd)
    elapsed = time.perf_counter() - start
    _report(1, "double-layer row matches finite differences", ok and elapsed < 1.0, elapsed)


def test_criterion_2_exact_gauss_identity():
    start = time.perf_counter()
    ok = True
    cfg = KernelConfig(3)
    for count in (10, 100, 1000):
        sample = gen_fibonacci_sphere(count)
        mu = sample.points * (4.0 * np.pi / count)
        rows = double_layer_block(np.zeros((1, 3)), sample.points, cfg)[0]
        value = float(np.einsum("jk,jk->", rows, mu))
        ok &= abs(value - 1.0) < 1e-12
    elapsed = time.perf_counter() - start
    _report(2, "indicator exactly 1 at the sphere center", ok and elapsed < 1.0, elapsed)


def test_criterion_3_scalar_weight_recovery(sphere_scalar_solution):
    start = time.perf_counter()
    sample, solution = sphere_scalar_solution
    area = integrate_function(np.ones(1000), solution)
    z2 = integrate_function(sample.points[:, 2] ** 2, solution)
    z1 = integrate_function(sample.points[:, 2], solution)
    ok = (abs(area - 4 * np.pi) <= 0.02 * 4 * np.pi
          and abs(z2 - 4 * np.pi / 3) <= 0.03 * 4 * np.pi / 3
          and -0.05 < z1 < 0.05
          and _clamp_kept_mass(solution))
    elapsed = time.perf_counter() - start
    _report(3, "scalar weights on S^2 (area, z^2, z moments)", ok and elapsed < 30.0, elapsed)


def test_criterion_4_vector_mode():
    start = time.perf_counter()
    sample = gen_fibonacci_sphere(1000)
    queries = interior_queries(sphere_spec(), 3000, seed=13, margin=0.5)
    solution = solve_closed_vector(sample.cloud, queries)
    directions = solution.mu / np.maximum(solution.tau[:, None], 1e-300)
    cosang = np.clip(np.einsum("jk,jk->j", directions, sample.normals), -1.0, 1.0)
    mean_angle = float(np.degrees(np.arccos(cosang)).mean())
    total = float(solution.tau.sum())
    ok = mean_angle < 10.0 and abs(total - 4 * np.pi) <= 0.05 * 4 * np.pi
    elapsed = time.perf_counter() - start
    _report(4, f"vector unknowns (mean normal angle {mean_angle:.2f} deg)",
            ok and elapsed < 60.0, elapsed)


def test_criterion_5_indicator_field(sphere_scalar_solution):
    start = time.perf_counter()
    sample, solution = sphere_scalar_solution
    cfg = KernelConfig(3)
    held_out = interior_queries(sphere_spec(), 100, seed=99, margin=0.5)
    chi_in = indicator_values(held_out, sample.cloud, solution, cfg)
    rng = np.random.default_rng(17)
    dirs = rng.standard_normal((100, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    outside = PointCloud(dirs * rng.uniform(2.0, 3.0, 100)[:, None])
    chi_out = indicator_values(outside, sample.cloud, solution, cfg)
    ok = np.max(np.abs(chi_in - 1.0)) < 0.05 and np.max(np.abs(chi_out)) < 0.05
    elapsed = time.perf_counter() - start
    _report(5, "indicator 1 inside / 0 outside at held-out points",
            ok and elapsed < 5.0, elapsed)


def test_criterion_6_collar_pipeline():
    start = time.perf_counter()
    hemi = gen_hemisphere(2000)
    eps = 2.0 * median_nn_spacing(hemi.cloud)
    collar = build_collar(hemi, CollarConfig(eps))
    queries = interior_queries(hemisphere_spec(), 2000, seed=3, epsilon=eps)
    # the default flip carries 3.4% of the kept mass here (ROADMAP item 1)
    with pytest.warns(ClampedMassWarning, match="flipping"):
        result = solve_collar(collar, queries)
    area = integrate_with_boundary(np.ones(2000), result.front_tau, result.back_tau)
    rel = abs(area - 2 * np.pi) / (2 * np.pi)
    ok = rel <= 0.05
    elapsed = time.perf_counter() - start
    _report(6, f"collar half-sum hemisphere area (rel err {rel:.3f})",
            ok and elapsed < 60.0, elapsed)


def test_criterion_7_tube_pipeline():
    start = time.perf_counter()
    base = gen_circle_r3(200)
    directions = sample_normal_sphere(2, 16, 0.05)
    tube = build_tube(base, directions)
    from surfquad.geometry import circle_r3_spec

    queries = interior_queries(circle_r3_spec(), 400, seed=5, epsilon=0.05)
    solution = solve_tube(tube, queries)
    length = integrate_codim(np.ones(200), solution.tau, directions)
    rel = abs(length - 2 * np.pi) / (2 * np.pi)
    ok = rel <= 0.05 and _clamp_kept_mass(solution)
    elapsed = time.perf_counter() - start
    _report(7, f"tube circle length (rel err {rel:.3f})", ok and elapsed < 60.0, elapsed)


def test_criterion_8_solver_oracle():
    start = time.perf_counter()
    ok = True
    rng = np.random.default_rng(8)
    for trial in range(10):
        sample_count = int(rng.integers(10, 66))  # 3k unknowns <= 200
        cols = 3 * sample_count
        rows = cols + int(rng.integers(10, 120))
        A = rng.standard_normal((rows, cols))
        rhs = rng.choice([0.0, 0.5, 1.0], size=rows)
        system = IndicatorSystem(A, rhs, SystemLayout.VECTOR_UNKNOWNS, sample_count)
        for lam in (0.0, 1e-3):
            solution = solve_weights(system, SolverConfig(regularization=lam))
            oracle = normal_equations_solve(A, rhs, lam)
            err = np.linalg.norm(solution.mu.ravel() - oracle) / np.linalg.norm(oracle)
            ok &= err < 1e-8
    elapsed = time.perf_counter() - start
    _report(8, "solve matches normal-equations oracle on 20 systems",
            ok and elapsed < 5.0, elapsed)


def test_criterion_9_continuous_cap_identity():
    start = time.perf_counter()
    north = np.array([0.0, 0.0, 1.0])
    south = np.array([0.0, 0.0, -1.0])
    ok = True
    for alpha in (np.pi / 6, np.pi / 3, np.pi / 2, 2 * np.pi / 3):
        inside = continuous_cap_indicator(north, alpha, 256)
        outside = continuous_cap_indicator(south, alpha, 256)
        ok &= abs(inside - np.cos(alpha / 2.0) ** 2) < 1e-6
        ok &= abs(inside - outside - 1.0) < 1e-8
    elapsed = time.perf_counter() - start
    _report(9, "continuous cap indicator and unit jump", ok and elapsed < 1.0, elapsed)


def test_criterion_10_riemannian_pipeline():
    start = time.perf_counter()
    alpha = np.pi / 3
    sample = cap_boundary_sample(alpha, 400)
    interior = cap_query_points(alpha, 50, seed=21, side="interior")
    exterior = cap_query_points(alpha, 50, seed=22, side="exterior")
    solution = solve_manifold_boundary(sample, SphereModel(), interior, exterior)
    length = integrate_function(np.ones(400), solution)
    want = np.pi * np.sqrt(3.0)
    ok = (abs(length - want) <= 0.05 * want
          and abs(solution.offset - 0.25) <= 0.05
          and _clamp_kept_mass(solution))
    elapsed = time.perf_counter() - start
    _report(10, f"cap boundary length and offset (c = {solution.offset:.3f})",
            ok and elapsed < 30.0, elapsed)


def test_criterion_11_convergence_study(tmp_path):
    start = time.perf_counter()
    from surfquad.cli import main

    out = tmp_path / "study.csv"
    code = main(["study", "--fixture", "sphere", "--sizes", "250,500,1000,2000",
                 "-o", str(out)])
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    errors = [float(r[6]) for r in rows[1:]]
    steps_down = sum(errors[i + 1] <= errors[i] for i in range(3))
    ok = code == 0 and len(errors) == 4 and steps_down >= 2 and errors[-1] < 0.02
    elapsed = time.perf_counter() - start
    _report(11, f"area error trend over N (final {errors[-1]:.2e})",
            ok and elapsed < 300.0, elapsed)
