"""Collar construction and the half-sum integration rule."""

import numpy as np
import pytest

from surfquad.collar import (CollarConfig, CollarSample, build_collar,
                             default_epsilon, integrate_with_boundary,
                             strip_defect_area)
from surfquad.errors import ClampedMassWarning, SelfIntersectionError
from surfquad.geometry import (OrientedSample, PointCloud, gen_fibonacci_sphere,
                               gen_hemisphere, hemisphere_spec, interior_queries,
                               median_nn_spacing, sphere_spec)
from surfquad.kernel import KernelConfig
from surfquad.pipelines import solve_closed_scalar, solve_collar
from surfquad.solver import SolverConfig


def _single_point_sample():
    return OrientedSample(PointCloud(np.array([[0.0, 0.0, 1.0]])),
                          np.array([[0.0, 0.0, 1.0]]))


def test_build_collar_single_point():
    collar = build_collar(_single_point_sample(), CollarConfig(0.1))
    assert np.allclose(collar.back.points[0], [0.0, 0.0, 1.1])
    assert np.allclose(collar.back.normals[0], [0.0, 0.0, -1.0])
    assert len(collar) == 2


def test_collar_offsets_and_negated_normals():
    hemi = gen_hemisphere(500)
    collar = build_collar(hemi, CollarConfig(0.05))
    gaps = np.linalg.norm(collar.back.points - collar.front.points, axis=1)
    assert np.max(np.abs(gaps - 0.05)) < 1e-12
    assert np.array_equal(collar.back.normals, -collar.front.normals)
    assert len(collar) == 1000


def test_zero_epsilon_rejected():
    with pytest.raises(ValueError):
        CollarConfig(0.0)


def test_default_epsilon_is_twice_spacing():
    hemi = gen_hemisphere(400)
    assert default_epsilon(hemi) == pytest.approx(2.0 * median_nn_spacing(hemi.cloud))


def test_self_intersection_detected():
    # two stacked points: offsetting the lower one lands on the upper one
    pts = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 0.1]])
    normals = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 1.0]])
    sample = OrientedSample(PointCloud(pts), normals)
    with pytest.raises(SelfIntersectionError):
        build_collar(sample, CollarConfig(0.1))


def test_back_face_fold_detected():
    # opposing normals fold the two offset points onto each other
    pts = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 0.2]])
    normals = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]])
    sample = OrientedSample(PointCloud(pts), normals)
    with pytest.raises(SelfIntersectionError):
        build_collar(sample, CollarConfig(0.1))


def test_collar_sample_invariants_enforced():
    front = _single_point_sample()
    good_back = OrientedSample(PointCloud(np.array([[0.0, 0.0, 1.1]])),
                               np.array([[0.0, 0.0, -1.0]]))
    CollarSample(front=front, back=good_back, epsilon=0.1)
    with pytest.raises(ValueError):
        CollarSample(front=front, back=good_back, epsilon=0.2)  # gap mismatch
    flipped = OrientedSample(good_back.cloud, np.array([[0.0, 0.0, 1.0]]))
    with pytest.raises(ValueError):
        CollarSample(front=front, back=flipped, epsilon=0.1)  # not negated


def test_outward_orientation_flips_stored_normals():
    collar = build_collar(_single_point_sample(), CollarConfig(0.2))
    outward = collar.outward()
    assert np.allclose(outward.normals[0], [0.0, 0.0, -1.0])  # front face
    assert np.allclose(outward.normals[1], [0.0, 0.0, 1.0])   # back face


def test_half_sum_trivial_values():
    f = np.zeros(4)
    assert integrate_with_boundary(f, np.ones(4), np.ones(4)) == 0.0
    tau = np.full(4, 2.0 * np.pi / 4)
    assert integrate_with_boundary(np.ones(4), tau, tau) == pytest.approx(2.0 * np.pi)


def test_half_sum_symmetric_in_faces():
    rng = np.random.default_rng(3)
    f, a, b = rng.random(32), rng.random(32), rng.random(32)
    assert integrate_with_boundary(f, a, b) == pytest.approx(integrate_with_boundary(f, b, a))


def test_half_sum_length_mismatch():
    with pytest.raises(ValueError):
        integrate_with_boundary(np.ones(3), np.ones(3), np.ones(4))


def test_strip_defect_area():
    collar = build_collar(_single_point_sample(), CollarConfig(0.25))
    assert strip_defect_area(collar, 2.0 * np.pi) == pytest.approx(0.25 * 2.0 * np.pi)


def test_hemisphere_pipeline_half_sum_area():
    """Full collar pipeline at the acceptance operating point."""
    hemi = gen_hemisphere(2000)
    eps = default_epsilon(hemi)
    collar = build_collar(hemi, CollarConfig(eps))
    queries = interior_queries(hemisphere_spec(), 2000, seed=3, epsilon=eps)
    with pytest.warns(ClampedMassWarning, match="flipping"):
        result = solve_collar(collar, queries)
    area = integrate_with_boundary(np.ones(2000), result.front_tau, result.back_tau)
    assert area == pytest.approx(2.0 * np.pi, rel=0.05)


def test_collar_flip_of_negative_weights_warns():
    """The collar default keeps |raw|; a flip that carries real mass must say so.

    At N = 1000, default eps, 1000 queries and query seed 2, 303 raw weights
    are negative and carry 6.3% of the kept mass; the half-sum area is then
    about 9% high.
    """
    hemi = gen_hemisphere(1000)
    eps = default_epsilon(hemi)
    collar = build_collar(hemi, CollarConfig(eps))
    queries = interior_queries(hemisphere_spec(), 1000, seed=2, epsilon=eps)
    with pytest.warns(ClampedMassWarning, match="flipping .* negative raw weights"):
        result = solve_collar(collar, queries)
    sol = result.solution
    assert sol.diagnostics.removed_mass > 0.05 * sol.tau.sum()


def test_hemisphere_front_back_weight_agreement():
    """Faces carry comparable elements once the split is observable.

    In-shell rows alone cannot separate the two faces (their columns are
    near-antiparallel); adding cavity rows with rhs 0 and enough damping
    resolves the split, and the per-point face elements then agree to the
    curvature-growth level.
    """
    from surfquad.solver import assemble_scalar_system, solve_weights

    hemi = gen_hemisphere(2000)
    eps = default_epsilon(hemi)
    collar = build_collar(hemi, CollarConfig(eps))
    outward = collar.outward()

    def rotz(pts, ang):
        c, s = np.cos(ang), np.sin(ang)
        return pts @ np.array([[c, -s, 0], [s, c, 0], [0, 0, 1]]).T

    shell = rotz(gen_hemisphere(1500).points, 2.399963) * (1.0 + eps / 2)
    rng = np.random.default_rng(12)
    z = rng.uniform(0, 1, 150)
    phi = rng.uniform(0, 2 * np.pi, 150)
    r = np.sqrt(1 - z * z)
    cavity = (np.column_stack([r * np.cos(phi), r * np.sin(phi), z])
              * (0.75 * rng.random(150) ** (1.0 / 3.0))[:, None])
    queries = PointCloud(np.vstack([shell, cavity]))
    rhs = np.concatenate([np.ones(len(shell)), np.zeros(150)])
    system = assemble_scalar_system(queries, outward, KernelConfig(3), rhs)
    sol = solve_weights(system, SolverConfig(regularization=1.0), normals=outward.normals)
    front, back = sol.tau[:2000], sol.tau[2000:]
    median_gap = np.median(np.abs(front - back) / np.maximum(front, 1e-30))
    assert median_gap < 0.3


def test_collar_on_closed_surface_consistent_with_single_copy():
    """Degenerate use: collar over a closed sphere vs the plain pipeline.

    A closed surface bounds a cavity, so the query set can mix in-shell
    rows (rhs 1) with cavity rows (rhs 0) that pin the face split.
    """
    from surfquad.solver import assemble_scalar_system, solve_weights

    sphere = gen_fibonacci_sphere(2000)
    eps = default_epsilon(sphere)
    collar = build_collar(sphere, CollarConfig(eps))
    outward = collar.outward()
    rng = np.random.default_rng(5)

    def unit_dirs(n):
        d = rng.standard_normal((n, 3))
        return d / np.linalg.norm(d, axis=1, keepdims=True)

    shell = unit_dirs(300) * (1.0 + rng.uniform(0.4 * eps, 0.6 * eps, 300))[:, None]
    cavity = unit_dirs(300) * (0.6 * rng.random(300) ** (1.0 / 3.0))[:, None]
    queries = PointCloud(np.vstack([shell, cavity]))
    rhs = np.concatenate([np.ones(300), np.zeros(300)])
    system = assemble_scalar_system(queries, outward, KernelConfig(3), rhs)
    sol = solve_weights(system, SolverConfig(), normals=outward.normals)
    collar_area = integrate_with_boundary(np.ones(2000), sol.tau[:2000], sol.tau[2000:])

    single = solve_closed_scalar(sphere, interior_queries(sphere_spec(), 300, seed=11))
    single_area = float(single.tau.sum())
    # twice the collar pipeline's 5% area tolerance
    assert abs(collar_area - single_area) <= 0.10 * single_area
