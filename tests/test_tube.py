"""Tube boundary construction and the 1/s_r integration rule."""

import re

import numpy as np
import pytest

from surfquad.errors import ClampedMassWarning, SelfIntersectionError
from surfquad.geometry import (FramedSample, PointCloud, circle_r3_spec,
                               gen_circle_r3, gen_fibonacci_sphere, interior_queries,
                               median_nn_spacing)
from surfquad.pipelines import solve_tube
from surfquad.tube import (SphereDirections, TubeSample, build_tube, integrate_codim,
                           sample_normal_sphere, tube_sphere_measure)


# --- direction spheres ---------------------------------------------------------

def test_directions_r1_forced_pair():
    d = sample_normal_sphere(1, 5, 0.3)
    assert sorted(d.directions.ravel().tolist()) == [-0.3, 0.3]
    assert d.count == 2


def test_directions_r2_equally_spaced():
    d = sample_normal_sphere(2, 4, 1.0)
    expected = np.array([[1, 0], [0, 1], [-1, 0], [0, -1]], dtype=float)
    assert np.allclose(d.directions, expected, atol=1e-12)


def test_directions_r3_balanced():
    d = sample_normal_sphere(3, 100, 0.1)
    assert np.max(np.abs(np.linalg.norm(d.directions, axis=1) - 0.1)) < 1e-13
    assert np.linalg.norm(d.directions.mean(axis=0)) < 0.02 * 0.1


def test_directions_r4_deterministic():
    a = sample_normal_sphere(4, 20, 0.5)
    b = sample_normal_sphere(4, 20, 0.5)
    assert np.array_equal(a.directions, b.directions)
    assert np.max(np.abs(np.linalg.norm(a.directions, axis=1) - 0.5)) < 1e-12


def test_directions_too_few_rejected():
    with pytest.raises(ValueError):
        sample_normal_sphere(3, 3, 0.1)
    with pytest.raises(ValueError):
        SphereDirections(np.array([[0.1, 0.0], [0.0, 0.1]]), 0.1)


# --- sphere measures -----------------------------------------------------------

@pytest.mark.parametrize("r,eps,expected", [
    (1, 0.5, 2.0),
    (2, 0.1, 2.0 * np.pi * 0.1),
    (3, 1.0, 4.0 * np.pi),
])
def test_tube_sphere_measure(r, eps, expected):
    assert tube_sphere_measure(r, eps) == pytest.approx(expected, rel=1e-14)


def test_tube_sphere_measure_rejects_bad_eps():
    with pytest.raises(ValueError):
        tube_sphere_measure(2, 0.0)


@pytest.mark.parametrize("eps", [np.nan, np.inf])
def test_non_finite_eps_rejected(eps):
    with pytest.raises(ValueError, match="epsilon must be positive and finite"):
        sample_normal_sphere(2, 8, eps)
    with pytest.raises(ValueError, match="epsilon must be positive and finite"):
        tube_sphere_measure(2, eps)


# --- build_tube ----------------------------------------------------------------

def test_build_tube_circle_points_and_normals():
    base = gen_circle_r3(4)
    dirs = sample_normal_sphere(2, 4, 0.1)
    tube = build_tube(base, dirs)
    assert len(tube) == 16
    # base point (1,0,0), frame {radial, z}: the four slice points
    first = tube.boundary.points[:4]
    expected = np.array([[1.1, 0, 0], [1.0, 0, 0.1], [0.9, 0, 0], [1.0, 0, -0.1]])
    assert np.allclose(first, expected, atol=1e-12)
    assert np.allclose(tube.boundary.normals[0], [1.0, 0.0, 0.0], atol=1e-12)


def test_tube_points_at_distance_eps():
    base = gen_circle_r3(50)
    dirs = sample_normal_sphere(2, 8, 0.07)
    tube = build_tube(base, dirs)
    gaps = np.linalg.norm(tube.boundary.points
                          - np.repeat(base.points, 8, axis=0), axis=1)
    assert np.max(np.abs(gaps - 0.07)) < 1e-11
    lengths = np.linalg.norm(tube.boundary.normals, axis=1)
    assert np.max(np.abs(lengths - 1.0)) < 1e-11


def test_tube_codim_mismatch_rejected():
    base = gen_circle_r3(10)
    dirs = sample_normal_sphere(1, 2, 0.05)
    with pytest.raises(ValueError):
        build_tube(base, dirs)


def test_tube_reach_exceeded_detected():
    # eps = 1 collapses the inner equator of the torus onto the circle axis
    base = gen_circle_r3(64)
    dirs = sample_normal_sphere(2, 8, 1.0)
    with pytest.raises(SelfIntersectionError):
        build_tube(base, dirs)


def test_tube_sample_builds_its_boundary():
    base = gen_circle_r3(30)
    dirs = sample_normal_sphere(2, 8, 0.1)
    tube = TubeSample(base, dirs)
    offsets = np.einsum("ik,jkn->jin", dirs.directions, base.frames)
    assert np.array_equal(tube.boundary.points,
                          (base.points[:, None, :] + offsets).reshape(-1, 3))
    assert np.array_equal(tube.boundary.normals, (offsets / 0.1).reshape(-1, 3))
    assert np.array_equal(build_tube(base, dirs).boundary.points, tube.boundary.points)
    with pytest.raises(TypeError):  # the boundary is no input
        TubeSample(base=base, directions=dirs, boundary=tube.boundary)


def test_tube_sample_refuses_codim_mismatch():
    with pytest.raises(ValueError, match="base codimension must match"):
        TubeSample(gen_circle_r3(10), sample_normal_sphere(1, 2, 0.05))


def test_tube_sample_refuses_eps_beyond_the_reach():
    with pytest.raises(SelfIntersectionError, match="exceeds the reach"):
        TubeSample(gen_circle_r3(64), sample_normal_sphere(2, 8, 1.0))


# --- integrate_codim -----------------------------------------------------------

def test_integrate_codim_zero_function():
    dirs = sample_normal_sphere(2, 4, 0.1)
    assert integrate_codim(np.zeros(7), np.ones(28), dirs) == 0.0


def test_integrate_codim_torus_oracle():
    """Exact grid elements of the torus give the circle length exactly."""
    p, q, eps = 200, 16, 0.05
    dirs = sample_normal_sphere(2, q, eps)
    phi = 2.0 * np.pi * np.arange(q) / q
    element = eps * (1.0 + eps * np.cos(phi)) * (2.0 * np.pi / p) * (2.0 * np.pi / q)
    tau = np.tile(element, p)
    value = integrate_codim(np.ones(p), tau, dirs)
    assert value == pytest.approx(2.0 * np.pi, rel=0.02)


def test_integrate_codim_relabeling_invariance():
    rng = np.random.default_rng(5)
    p, q = 11, 6
    dirs = sample_normal_sphere(2, q, 0.2)
    f = rng.random(p)
    tau = rng.random(p * q)
    base_value = integrate_codim(f, tau, dirs)
    perm = rng.permutation(q)
    shuffled_dirs = SphereDirections(dirs.directions[perm], 0.2)
    shuffled_tau = tau.reshape(p, q)[:, perm].ravel()
    assert integrate_codim(f, shuffled_tau, shuffled_dirs) == pytest.approx(base_value)


def test_integrate_codim_index_mismatch():
    dirs = sample_normal_sphere(2, 4, 0.1)
    with pytest.raises(ValueError):
        integrate_codim(np.ones(5), np.ones(19), dirs)


def test_frame_rotation_invariance():
    """Rotating frames and counter-rotating directions leaves the tube fixed."""
    base = gen_circle_r3(40)
    dirs = sample_normal_sphere(2, 8, 0.05)
    tube = build_tube(base, dirs)
    ang = 0.7
    R = np.array([[np.cos(ang), -np.sin(ang)], [np.sin(ang), np.cos(ang)]])
    rotated_frames = np.einsum("ab,jbn->jan", R, base.frames)
    rotated_base = FramedSample(base.cloud, rotated_frames)
    counter_dirs = SphereDirections(dirs.directions @ R.T, 0.05)
    tube2 = build_tube(rotated_base, counter_dirs)
    assert np.max(np.abs(tube.boundary.points - tube2.boundary.points)) < 1e-10


def test_codim3_tube_in_r4():
    """Construction invariants hold for a codim-3 tube around a circle in R^4."""
    count = 24
    theta = 2.0 * np.pi * np.arange(count) / count
    pts = np.column_stack([np.cos(theta), np.sin(theta),
                           np.zeros(count), np.zeros(count)])
    n1 = np.column_stack([np.cos(theta), np.sin(theta), np.zeros(count), np.zeros(count)])
    n2 = np.tile([0.0, 0.0, 1.0, 0.0], (count, 1))
    n3 = np.tile([0.0, 0.0, 0.0, 1.0], (count, 1))
    base = FramedSample(PointCloud(pts), np.stack([n1, n2, n3], axis=1))
    dirs = sample_normal_sphere(3, 32, 0.05)
    tube = build_tube(base, dirs)
    assert len(tube) == count * 32
    gaps = np.linalg.norm(tube.boundary.points - np.repeat(pts, 32, axis=0), axis=1)
    assert np.max(np.abs(gaps - 0.05)) < 1e-11
    assert tube_sphere_measure(3, 0.05) == pytest.approx(4 * np.pi * 0.05 ** 2)


def test_circle_tube_pipeline_length():
    """Full tube pipeline at the acceptance operating point."""
    base = gen_circle_r3(200)
    dirs = sample_normal_sphere(2, 16, 0.05)
    tube = build_tube(base, dirs)
    queries = interior_queries(circle_r3_spec(), 400, seed=5, epsilon=0.05)
    sol = solve_tube(tube, queries)
    length = integrate_codim(np.ones(200), sol.tau, dirs)
    assert length == pytest.approx(2.0 * np.pi, rel=0.05)


def _circle_r4_base(count):
    """Unit circle in the x1x2-plane of R^4, framed by (radial, e3, e4)."""
    theta = 2.0 * np.pi * np.arange(count) / count
    zeros = np.zeros(count)
    pts = np.column_stack([np.cos(theta), np.sin(theta), zeros, zeros])
    radial = np.column_stack([np.cos(theta), np.sin(theta), zeros, zeros])
    e3 = np.tile([0.0, 0.0, 1.0, 0.0], (count, 1))
    e4 = np.tile([0.0, 0.0, 0.0, 1.0], (count, 1))
    return FramedSample(PointCloud(pts), np.stack([radial, e3, e4], axis=1))


def _circle_r4_tube(base, eps):
    """Codim-3 tube (48 directions) around the R^4 circle base, plus 600
    seeded queries inside the solid tube: a base angle and an offset in the
    3-dim normal space, kept at radius <= eps/2 from the core circle."""
    dirs = sample_normal_sphere(3, 48, eps)
    tube = build_tube(base, dirs)

    rng = np.random.default_rng(7)
    ang = rng.uniform(0.0, 2.0 * np.pi, 600)
    offs = rng.standard_normal((600, 3))
    offs /= np.linalg.norm(offs, axis=1, keepdims=True)
    rho = (eps / 2.0) * rng.random(600) ** (1.0 / 3.0)
    frames_at = np.stack([np.column_stack([np.cos(ang), np.sin(ang),
                                           np.zeros(600), np.zeros(600)]),
                          np.tile([0.0, 0.0, 1.0, 0.0], (600, 1)),
                          np.tile([0.0, 0.0, 0.0, 1.0], (600, 1))], axis=1)
    core = np.column_stack([np.cos(ang), np.sin(ang), np.zeros(600), np.zeros(600)])
    queries = PointCloud(core + np.einsum("ik,ikn->in", rho[:, None] * offs, frames_at))
    return tube, dirs, queries


def test_codim3_tube_pipeline_in_r4():
    """End-to-end solve for a circle in R^4 (codim 3, n = 4 kernel).

    eps is the tube default of twice the median base spacing h, so queries
    within eps/2 of the core sit at least h from the tube sample. Closer
    queries are not resolved by the base, and no weights fit the rows.
    """
    count = 48
    base = _circle_r4_base(count)
    eps = 2.0 * median_nn_spacing(base.cloud)
    tube, dirs, queries = _circle_r4_tube(base, eps)

    sol = solve_tube(tube, queries)
    length = integrate_codim(np.ones(count), sol.tau, dirs)
    assert length == pytest.approx(2.0 * np.pi, rel=0.05)


def test_codim3_tube_under_resolved_clamp_warns():
    """At eps = 0.08 below the base spacing 0.131 the clamp discards most of
    the signed solution, and the solve must say so instead of staying quiet."""
    tube, _, queries = _circle_r4_tube(_circle_r4_base(48), 0.08)
    with pytest.warns(ClampedMassWarning, match="negative raw weights"):
        sol = solve_tube(tube, queries)
    assert sol.diagnostics.removed_mass > 0.5 * sol.tau.sum()


def test_codim1_tube_matches_collar_limit():
    """The r = 1 tube on a closed sphere is the collar with faces at 1 -+ eps.

    Building the collar from the inner-sphere sample with thickness 2 eps
    places its front/back exactly on the tube's two faces, so the two code
    paths solve the same geometry and the integrals must agree.
    """
    from surfquad.collar import CollarConfig, build_collar, integrate_with_boundary
    from surfquad.geometry import OrientedSample
    from surfquad.pipelines import solve_collar

    sphere = gen_fibonacci_sphere(1000)
    eps = median_nn_spacing(sphere.cloud)
    base = FramedSample(sphere.cloud, sphere.normals[:, None, :])
    dirs = sample_normal_sphere(1, 2, eps)
    tube = build_tube(base, dirs)

    rng = np.random.default_rng(2)
    d = rng.standard_normal((1000, 3))
    d /= np.linalg.norm(d, axis=1, keepdims=True)
    t = rng.uniform(-eps / 2, eps / 2, 1000)
    queries = PointCloud(d * (1.0 + t)[:, None])

    from surfquad.kernel import KernelConfig
    from surfquad.solver import NegativeWeightPolicy, assemble_scalar_system, solve_weights

    # the tube solve with the collar's flip in place of the clamp
    system = assemble_scalar_system(queries, tube.boundary, KernelConfig(3))
    with pytest.warns(ClampedMassWarning, match="flipping"):
        sol = solve_weights(system, policy=NegativeWeightPolicy.FLIP)
    tube_area = integrate_codim(np.ones(1000), sol.tau, dirs)

    inner = OrientedSample(PointCloud(sphere.points * (1.0 - eps)), sphere.normals)
    collar = build_collar(inner, CollarConfig(2.0 * eps))
    with pytest.warns(ClampedMassWarning, match="flipping"):
        res = solve_collar(collar, queries)
    collar_area = integrate_with_boundary(np.ones(1000), res.front_tau, res.back_tau)
    assert abs(tube_area - collar_area) <= 0.02 * collar_area


@pytest.mark.parametrize("make, message", [
    (lambda: SphereDirections(np.ones(3), 1.0), "directions must be a (q, r) array"),
    (lambda: sample_normal_sphere(0, 4, 0.1), "codimension must be at least 1"),
    (lambda: tube_sphere_measure(0, 0.1), "codimension must be at least 1"),
], ids=["directions-of-rank-1", "sphere-codim-0", "measure-codim-0"])
def test_bad_direction_input_is_refused_by_name(make, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        make()
