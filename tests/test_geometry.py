"""Generator contracts, sample invariants, and interior-query membership."""

import numpy as np
import pytest

from surfquad.geometry import (FramedSample, OrientedSample, PointCloud,
                               circle_r3_spec, ellipsoid_spec, evaluate_integrand,
                               gen_circle_r3, gen_ellipsoid, gen_fibonacci_sphere,
                               gen_hemisphere, gen_sphere_nd, hemisphere_spec,
                               interior_queries, median_nn_spacing, s2_cap_spec,
                               sphere_spec)


def test_point_cloud_rejects_duplicates():
    with pytest.raises(ValueError):
        PointCloud(np.array([[0.0, 0, 1], [0.0, 0, 1]]))


def test_point_cloud_rejects_nonfinite():
    with pytest.raises(ValueError):
        PointCloud(np.array([[np.inf, 0, 0]]))


def test_oriented_sample_rejects_non_unit_normals():
    pts = np.array([[1.0, 0, 0]])
    with pytest.raises(ValueError):
        OrientedSample(PointCloud(pts), np.array([[1.0, 1.0, 0.0]]))


def test_framed_sample_rejects_skew_frames():
    pts = np.array([[1.0, 0, 0]])
    frames = np.array([[[1.0, 0, 0], [0.6, 0.8, 0]]])  # not orthogonal
    with pytest.raises(ValueError):
        FramedSample(PointCloud(pts), frames)


# --- gen_fibonacci_sphere ----------------------------------------------------

def test_fibonacci_single_point():
    s = gen_fibonacci_sphere(1)
    assert np.linalg.norm(s.points[0]) == pytest.approx(1.0, abs=1e-15)
    assert np.allclose(s.normals, s.points)


def test_fibonacci_mean_is_small():
    s = gen_fibonacci_sphere(1000)
    assert np.linalg.norm(s.points.mean(axis=0)) < 0.01


@pytest.mark.parametrize("count", [2, 17, 400])
def test_fibonacci_pairwise_distinct(count):
    s = gen_fibonacci_sphere(count)  # PointCloud would reject duplicates
    assert len(s) == count


def test_fibonacci_rejects_zero():
    with pytest.raises(ValueError):
        gen_fibonacci_sphere(0)


@pytest.mark.parametrize("count", [100, 500, 2000])
def test_fibonacci_uniformity_band(count):
    h = median_nn_spacing(gen_fibonacci_sphere(count).cloud)
    assert 4.0 * np.pi * 0.5 < h * h * count < 4.0 * np.pi * 2.0


# --- gen_sphere_nd -----------------------------------------------------------

def test_sphere_nd_unit_norms():
    s = gen_sphere_nd(10, 4, seed=7)
    assert len(s) == 10
    assert np.max(np.abs(np.linalg.norm(s.points, axis=1) - 1.0)) < 1e-12


def test_sphere_nd_deterministic():
    a = gen_sphere_nd(50, 5, seed=3)
    b = gen_sphere_nd(50, 5, seed=3)
    assert np.array_equal(a.points, b.points)
    assert np.array_equal(a.normals, b.normals)


def test_sphere_nd_coordinate_means():
    s = gen_sphere_nd(5000, 3, seed=1)
    means = s.points.mean(axis=0)
    assert np.all(means > -0.05) and np.all(means < 0.05)


def test_sphere_nd_rejects_low_dim():
    with pytest.raises(ValueError):
        gen_sphere_nd(10, 2, seed=0)


# --- gen_ellipsoid -----------------------------------------------------------

def test_ellipsoid_unit_case_is_sphere():
    e = gen_ellipsoid(1, 1, 1, 100, seed=2)
    assert np.allclose(e.normals, e.points, atol=1e-12)


def test_ellipsoid_axis_normal():
    # a point on the long axis must have the axis direction as its normal
    e = gen_ellipsoid(2, 1, 1, 1, seed=0)
    p = np.array([2.0, 0.0, 0.0])
    grad = p / np.array([4.0, 1.0, 1.0])
    assert np.allclose(grad / np.linalg.norm(grad), [1.0, 0.0, 0.0])


def test_ellipsoid_implicit_and_normals():
    a, b, c = 2.0, 1.5, 1.0
    e = gen_ellipsoid(a, b, c, 300, seed=3)
    implicit = (e.points[:, 0] / a) ** 2 + (e.points[:, 1] / b) ** 2 + (e.points[:, 2] / c) ** 2
    assert np.max(np.abs(implicit - 1.0)) < 1e-10
    # normals orthogonal to finite-difference surface tangents
    rng = np.random.default_rng(0)
    step = 1e-6
    for idx in rng.choice(len(e), 20, replace=False):
        p, n = e.points[idx], e.normals[idx]
        t = np.cross(n, rng.standard_normal(3))
        t /= np.linalg.norm(t)
        # project p + step*t back to the surface and compare directions
        moved = p + step * t
        scale = 1.0 / np.sqrt((moved[0] / a) ** 2 + (moved[1] / b) ** 2 + (moved[2] / c) ** 2)
        tangent = (moved * scale - p) / step
        assert abs(np.dot(tangent, n)) < 1e-5


def test_ellipsoid_rejects_bad_axes():
    with pytest.raises(ValueError):
        gen_ellipsoid(0.0, 1, 1, 10, seed=0)


# --- gen_hemisphere ----------------------------------------------------------

def test_hemisphere_above_plane():
    s = gen_hemisphere(500)
    assert np.min(s.points[:, 2]) >= -1e-12
    assert np.max(np.abs(np.linalg.norm(s.normals, axis=1) - 1.0)) < 1e-12


def test_hemisphere_includes_boundary_circle():
    s = gen_hemisphere(500)
    assert np.min(s.points[:, 2]) == 0.0


def test_hemisphere_band_density():
    s = gen_hemisphere(2000)
    counts, _ = np.histogram(s.points[:, 2], bins=np.linspace(0.0, 1.0, 11))
    assert np.all(np.abs(counts - 200) <= 0.2 * 200)


# --- gen_circle_r3 -----------------------------------------------------------

def test_circle_contains_axis_points():
    s = gen_circle_r3(4)
    pts = s.points
    assert np.min(np.linalg.norm(pts - np.array([1.0, 0, 0]), axis=1)) < 1e-12
    assert np.min(np.linalg.norm(pts - np.array([0.0, 1, 0]), axis=1)) < 1e-12


def test_circle_frames_orthonormal_and_normal_to_tangent():
    s = gen_circle_r3(64)
    theta = 2.0 * np.pi * np.arange(64) / 64
    tangents = np.column_stack([-np.sin(theta), np.cos(theta), np.zeros(64)])
    for frame_idx in range(2):
        dots = np.einsum("jk,jk->j", s.frames[:, frame_idx, :], tangents)
        assert np.max(np.abs(dots)) < 1e-12
    gram = np.einsum("jan,jbn->jab", s.frames, s.frames)
    assert np.max(np.abs(gram - np.eye(2))) < 1e-10


def test_circle_rejects_small_counts():
    with pytest.raises(ValueError):
        gen_circle_r3(2)


# --- surface specs -----------------------------------------------------------

def test_sphere_spec_values():
    spec = sphere_spec()
    assert spec.analytic_area == pytest.approx(4.0 * np.pi)
    assert spec.analytic_integrals["z2"] == pytest.approx(4.0 * np.pi / 3.0)


def test_sphere_spec_in_r4():
    spec = sphere_spec(4)
    assert spec.analytic_area == pytest.approx(2.0 * np.pi ** 2, rel=1e-15)
    assert spec.analytic_integrals["x2"] == pytest.approx(np.pi ** 2 / 2.0, rel=1e-15)
    q = interior_queries(spec, 100, seed=5)
    assert q.dim == 4
    assert np.max(np.linalg.norm(q.points, axis=1)) <= 0.5 + 1e-12


def test_ellipsoid_spec_matches_sphere_case():
    assert ellipsoid_spec(1, 1, 1).analytic_area == pytest.approx(4.0 * np.pi, rel=1e-9)


def test_cap_spec_integrals_against_quadrature():
    alpha = np.pi / 3
    spec = s2_cap_spec(alpha)
    m = 4096
    phi = 2.0 * np.pi * np.arange(m) / m
    rho = np.sin(alpha)
    pts = np.column_stack([rho * np.cos(phi), rho * np.sin(phi),
                           np.full(m, np.cos(alpha))])
    dl = spec.analytic_area / m
    for name, exact in spec.analytic_integrals.items():
        est = float(evaluate_integrand(name, pts).sum() * dl)
        assert est == pytest.approx(exact, abs=1e-9 * (1 + abs(exact)))


def test_hemisphere_spec_integrals_against_quadrature():
    spec = hemisphere_spec()
    m = 600
    z, wz = np.polynomial.legendre.leggauss(m)
    z = 0.5 * (z + 1.0)  # area measure on the hemisphere is uniform in z
    wz *= 0.5
    phi = 2.0 * np.pi * (np.arange(m) + 0.5) / m
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    for name, exact in spec.analytic_integrals.items():
        vals = 0.0
        for p in phi:
            pts = np.column_stack([r * np.cos(p), r * np.sin(p), z])
            vals += np.dot(wz, evaluate_integrand(name, pts))
        est = vals * (2.0 * np.pi / m) * (spec.analytic_area / (2.0 * np.pi))
        assert est == pytest.approx(exact, abs=1e-8 * (1 + abs(exact)))


def test_unknown_integrand_rejected():
    with pytest.raises(ValueError):
        evaluate_integrand("nope", np.zeros((1, 3)))


# --- interior queries --------------------------------------------------------

def test_sphere_interior_queries_margin():
    q = interior_queries(sphere_spec(), 100, seed=5)
    assert len(q) == 100
    assert np.max(np.linalg.norm(q.points, axis=1)) <= 0.5 + 1e-12


def test_interior_queries_deterministic():
    a = interior_queries(sphere_spec(), 64, seed=9)
    b = interior_queries(sphere_spec(), 64, seed=9)
    assert np.array_equal(a.points, b.points)


def test_ellipsoid_interior_membership():
    a, b, c = 2.0, 1.5, 1.0
    q = interior_queries(ellipsoid_spec(a, b, c), 200, seed=4)
    implicit = np.sqrt((q.points[:, 0] / a) ** 2 + (q.points[:, 1] / b) ** 2
                       + (q.points[:, 2] / c) ** 2)
    assert np.max(implicit) <= 0.5 + 1e-12  # margin = half inradius


def test_hemisphere_collar_membership():
    eps = 0.1
    q = interior_queries(hemisphere_spec(), 300, seed=6, epsilon=eps)
    radii = np.linalg.norm(q.points, axis=1)
    assert np.all(radii > 1.0 + eps / 4 - 1e-12)
    assert np.all(radii < 1.0 + eps - eps / 4 + 1e-12)
    assert np.all(q.points[:, 2] > 0.0)


def test_circle_tube_membership():
    eps = 0.05
    q = interior_queries(circle_r3_spec(), 300, seed=6, epsilon=eps)
    ring = np.linalg.norm(q.points[:, :2], axis=1)
    dist = np.sqrt((ring - 1.0) ** 2 + q.points[:, 2] ** 2)
    assert np.max(dist) <= eps / 2 + 1e-12  # margin = half inradius of the tube


def test_queries_without_interior_rejected():
    with pytest.raises(ValueError):
        interior_queries(hemisphere_spec(), 10, seed=0)  # no collar epsilon
    with pytest.raises(ValueError):
        interior_queries(s2_cap_spec(np.pi / 3), 10, seed=0)  # cap_query_points draws these
    with pytest.raises(ValueError):
        interior_queries(circle_r3_spec(), 10, seed=0)  # no tube epsilon


def test_median_spacing_requires_two_points():
    with pytest.raises(ValueError):
        median_nn_spacing(PointCloud(np.array([[1.0, 0, 0]])))


@pytest.mark.parametrize("make", [
    lambda: gen_fibonacci_sphere(137),
    lambda: gen_sphere_nd(137, 4, seed=9),
    lambda: gen_ellipsoid(2.0, 1.5, 1.0, 137, seed=9),
    lambda: gen_hemisphere(137),
])
def test_all_generators_emit_unit_normals(make):
    sample = make()
    lengths = np.linalg.norm(sample.normals, axis=1)
    assert np.max(np.abs(lengths - 1.0)) < 1e-12
