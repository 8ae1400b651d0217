"""Generator contracts, sample invariants, and interior-query membership."""

import itertools
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import surfquad
from surfquad.geometry import (FramedSample, OrientedSample, PointCloud, SurfaceSpec,
                               circle_r3_spec, ellipsoid_spec, evaluate_integrand,
                               gen_circle_r3, gen_ellipsoid, gen_fibonacci_sphere,
                               gen_hemisphere, gen_sphere_nd, hemisphere_spec,
                               interior_queries, median_nn_spacing, nearest_gaps,
                               require_within, s2_cap_spec, sphere_spec)
from surfquad.riemannian import ManifoldBoundarySample, s2_green_gradient
from surfquad.tube import SphereDirections


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


def test_require_within_names_the_worst_defect_and_refuses_nan():
    require_within(np.array([0.0, 1e-3]), 1e-3, "unused {worst}")
    require_within(np.empty(0), 0.0, "an empty defect passes")
    with pytest.raises(ValueError, match=r"^worst 0\.5 > 0\.1$"):
        require_within(np.array([0.2, 0.5]), 0.1, "worst {worst:g} > 0.1")
    with pytest.raises(ValueError, match="worst nan"):
        require_within(np.array([0.0, np.nan]), 0.1, "worst {worst}")


# each tolerance check, handed a nan where it measures its defect
NAN_DEFECTS = {
    "unit-normals": (lambda: OrientedSample(PointCloud([[1.0, 0, 0]]), [[np.nan, 0, 0]]),
                     "normals must have unit length"),
    "orthonormal-frames": (lambda: FramedSample(PointCloud([[1.0, 0, 0]]),
                                                [[[0, 1.0, 0], [0, 0, np.nan]]]),
                           "normal frames must be orthonormal"),
    "on-the-sphere": (lambda: s2_green_gradient([0, 0, np.nan], [1.0, 0, 0]),
                      "query point off the unit sphere: ||x| - 1| reaches nan"),
    # a nan conormal meets the unit-length check of OrientedSample first
    "tangent-conormals": (lambda: ManifoldBoundarySample(PointCloud([[1.0, 0, 0]]),
                                                         [[0, np.nan, 0]]),
                          "normals must have unit length"),
    "direction-lengths": (lambda: SphereDirections([[0.1, 0], [-0.1, 0], [0, 0.1]], np.nan),
                          "every direction must have length epsilon"),
}


@pytest.mark.parametrize("make, message", NAN_DEFECTS.values(), ids=NAN_DEFECTS)
def test_tolerance_checks_refuse_a_nan_defect(make, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        make()


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


@pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0, -1.0])
@pytest.mark.parametrize("axis", range(3))
def test_semi_axes_must_be_positive_and_finite(axis, bad):
    axes = [1.0, 1.5, 2.0]
    axes[axis] = bad
    with pytest.raises(ValueError, match="semi-axes must be positive"):
        ellipsoid_spec(*axes)
    with pytest.raises(ValueError, match="semi-axes must be positive"):
        gen_ellipsoid(*axes, 10, seed=0)


@pytest.mark.parametrize("area", [np.nan, np.inf, 0.0])
def test_surface_spec_refuses_an_area_outside_the_positive_reals(area):
    with pytest.raises(ValueError, match="analytic_area must be positive"):
        SurfaceSpec({"const1": area})


def _spheroid_area(a, c):
    """Elementary area of the spheroid with equatorial radius a and polar semi-axis c."""
    if c < a:  # oblate
        e = np.sqrt(1.0 - (c / a) ** 2)
        return 2.0 * np.pi * a * a * (1.0 + (1.0 - e * e) / e * np.arctanh(e))
    e = np.sqrt(1.0 - (a / c) ** 2)  # prolate
    return 2.0 * np.pi * a * a * (1.0 + c / (a * e) * np.arcsin(e))


def test_ellipsoid_area_of_the_unit_sphere():
    assert ellipsoid_spec(1, 1, 1).analytic_area == pytest.approx(4.0 * np.pi, rel=1e-13)


@pytest.mark.parametrize("a, c", [(1.0, 0.5), (2.0, 0.1), (1.0, 1.5), (0.3, 5.0)])
def test_ellipsoid_area_matches_the_spheroid_formulas(a, c):
    expected = _spheroid_area(a, c)
    for axes in set(itertools.permutations((a, a, c))):
        assert ellipsoid_spec(*axes).analytic_area == pytest.approx(expected, rel=1e-13)


def test_ellipsoid_area_is_symmetric_and_scales_quadratically():
    rng = np.random.default_rng(21)
    for axes in rng.uniform(0.2, 5.0, (10, 3)):
        area = ellipsoid_spec(*axes).analytic_area
        for perm in itertools.permutations(axes):
            assert ellipsoid_spec(*perm).analytic_area == pytest.approx(area, rel=1e-13)
        for t in (0.25, 3.0):
            scaled = ellipsoid_spec(*(t * axes)).analytic_area
            assert scaled == pytest.approx(t * t * area, rel=1e-13)


def test_import_leaves_quadrature_and_optimizers_unloaded():
    code = ("import sys, surfquad; "
            "print([m for m in ('scipy.integrate', 'scipy.optimize', 'scipy.fft', "
            "'scipy.spatial', 'scipy.special') if m in sys.modules])")
    env = dict(os.environ, PYTHONPATH=str(Path(surfquad.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True, timeout=120)
    assert done.stdout.strip() == "[]"


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


def test_integrands_are_the_explicit_coordinate_products():
    p = np.random.default_rng(11).standard_normal((1000, 4))
    x, y, z = p[:, 0], p[:, 1], p[:, 2]
    explicit = {"const1": np.ones(1000), "x": x, "y": y, "z": z, "x2": x ** 2, "y2": y ** 2,
                "z2": z ** 2, "xy": x * y, "xz": x * z, "yz": y * z}
    for name, values in explicit.items():
        assert np.array_equal(evaluate_integrand(name, p), values), name


_ZEROS = {"x": 0.0, "y": 0.0, "xy": 0.0, "xz": 0.0, "yz": 0.0}


@pytest.mark.parametrize("make, expected", [
    (lambda: sphere_spec(3), {**_ZEROS, "const1": 12.566370614359172, "z": 0.0,
                              "x2": 4.1887902047863905, "y2": 4.1887902047863905,
                              "z2": 4.1887902047863905}),
    (lambda: sphere_spec(4), {**_ZEROS, "const1": 19.739208802178716, "z": 0.0,
                              "x2": 4.934802200544679, "y2": 4.934802200544679,
                              "z2": 4.934802200544679}),
    # no squares: they have no closed form on an ellipsoid
    (lambda: ellipsoid_spec(1, 1.5, 2), {**_ZEROS, "const1": 27.88644247350258, "z": 0.0}),
    (hemisphere_spec, {**_ZEROS, "const1": 6.283185307179586, "z": 3.141592653589793,
                       "x2": 2.0943951023931953, "y2": 2.0943951023931953,
                       "z2": 2.0943951023931953}),
    (circle_r3_spec, {**_ZEROS, "const1": 6.283185307179586, "z": 0.0,
                      "x2": 3.141592653589793, "y2": 3.141592653589793, "z2": 0.0}),
    (lambda: s2_cap_spec(np.pi / 3), {**_ZEROS, "const1": 5.441398092702653,
                                      "z": 2.720699046351327, "x2": 2.0405242847634946,
                                      "y2": 2.0405242847634946, "z2": 1.360349523175664}),
], ids=["sphere3", "sphere4", "ellipsoid", "hemisphere", "circle-r3", "s2-cap"])
def test_spec_reference_table_is_pinned(make, expected):
    # every key and every value, to the bit: no moment added or dropped
    ints = make().analytic_integrals
    assert sorted(ints) == sorted(expected)
    assert all(ints[name] == expected[name] for name in expected)


# --- interior queries --------------------------------------------------------

def test_sphere_interior_queries_margin():
    q = interior_queries(sphere_spec(), 100, seed=5)
    assert len(q) == 100
    assert np.max(np.linalg.norm(q.points, axis=1)) <= 0.5 + 1e-12


@pytest.mark.parametrize("seed", [0, 5, 9, 123])
@pytest.mark.parametrize("margin", [None, 0.1, 0.5, 0.9])
def test_sphere_queries_are_the_unit_ellipsoid_rule(seed, margin):
    # one ball rule serves both closed surfaces, draw for draw
    a = interior_queries(sphere_spec(), 64, seed, margin=margin)
    b = interior_queries(ellipsoid_spec(1, 1, 1), 64, seed, margin=margin)
    assert np.array_equal(a.points, b.points)


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


@pytest.mark.parametrize("eps", [np.nan, np.inf])
@pytest.mark.parametrize("spec", [hemisphere_spec(), circle_r3_spec()], ids=["collar", "tube"])
def test_interior_queries_refuse_a_non_finite_epsilon(spec, eps):
    with pytest.raises(ValueError, match="epsilon must be positive and finite"):
        interior_queries(spec, 10, seed=0, margin=0.01, epsilon=eps)


def test_nearest_gaps_match_brute_force():
    pts = np.random.default_rng(21).standard_normal((300, 3))
    pairwise = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
    np.fill_diagonal(pairwise, np.inf)
    assert np.allclose(nearest_gaps(pts), pairwise.min(axis=1), rtol=1e-14, atol=0.0)
    assert nearest_gaps(pts[:1])[0] == np.inf  # no other point


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


# --- refusals: each bad input is refused with a message that names it -----------

REFUSALS = {
    "points-of-rank-3": (lambda: PointCloud(np.zeros((2, 2, 3))),
                         "expected a (count, dim) array, got shape (2, 2, 3)"),
    "normals-of-another-count": (lambda: OrientedSample(PointCloud([[1.0, 0, 0], [0, 1.0, 0]]),
                                                        [[1.0, 0, 0]]),
                                 "normals must match points in count and dimension"),
    "frames-of-rank-2": (lambda: FramedSample(PointCloud([[1.0, 0, 0]]), [[0, 0, 1.0]]),
                         "frames must have shape (count, codim, dim)"),
    "frames-of-full-codim": (lambda: FramedSample(PointCloud([[1.0, 0, 0]]), np.eye(3)[None]),
                             "codimension must satisfy 1 <= r < ambient dimension"),
    "sphere-spec-in-r2": (lambda: sphere_spec(2), "ambient dimension must be at least 3"),
    "cap-spec-angle-0": (lambda: s2_cap_spec(0.0), "cap angle must lie in (0, pi)"),
    "sphere-nd-count-0": (lambda: gen_sphere_nd(0, 3, seed=1), "count must be at least 1"),
}


@pytest.mark.parametrize("make, message", REFUSALS.values(), ids=REFUSALS)
def test_bad_input_is_refused_by_name(make, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        make()
