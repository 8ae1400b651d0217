"""Sphere Green-gradient identities, cap quadrature, and the cap pipeline."""

import re

import numpy as np
import pytest

from conftest import lane_rows, s3_boundary, spied
from surfquad.errors import DegeneratePairError
from surfquad.geometry import OrientedSample, PointCloud
from surfquad.pipelines import solve_manifold_boundary
from surfquad.riemannian import (ManifoldBoundarySample, SphereModel,
                                 assemble_riemann_system, cap_boundary_sample,
                                 cap_query_points, continuous_cap_indicator,
                                 s2_green_gradient)
from surfquad.solver import LANES, double_layer, integrate_function

NORTH = np.array([0.0, 0.0, 1.0])
SOUTH = np.array([0.0, 0.0, -1.0])


def _on_sphere(theta, phi=0.0):
    return np.array([np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi),
                     np.cos(theta)])


# --- green gradient ----------------------------------------------------------

def test_gradient_magnitude_right_angle():
    g = s2_green_gradient(NORTH, _on_sphere(np.pi / 2))
    assert np.linalg.norm(g) == pytest.approx(1.0 / (4.0 * np.pi), rel=1e-12)


def test_gradient_vanishes_toward_antipode():
    g = s2_green_gradient(NORTH, _on_sphere(np.pi - 1e-6))
    assert np.linalg.norm(g) < 1e-7


def test_gradient_direction_points_away_from_source():
    q = _on_sphere(1.0)
    g = s2_green_gradient(NORTH, q)
    away = np.array([np.cos(1.0), 0.0, -np.sin(1.0)])  # d/dtheta at q
    # gradient of a decaying profile points back toward the source
    assert np.dot(g, away) < 0


def test_gradient_tangency():
    rng = np.random.default_rng(4)
    for _ in range(50):
        p = rng.standard_normal(3)
        q = rng.standard_normal(3)
        p /= np.linalg.norm(p)
        q /= np.linalg.norm(q)
        g = s2_green_gradient(p, q)
        assert abs(np.dot(g, q)) < 1e-10


def test_gradient_rotation_equivariance():
    rng = np.random.default_rng(9)
    from scipy.stats import special_ortho_group

    R = special_ortho_group.rvs(3, random_state=7)
    for _ in range(20):
        p = rng.standard_normal(3)
        q = rng.standard_normal(3)
        p /= np.linalg.norm(p)
        q /= np.linalg.norm(q)
        lhs = s2_green_gradient(R @ p, R @ q)
        rhs = R @ s2_green_gradient(p, q)
        assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_gradient_matches_profile_finite_difference():
    # magnitude along the geodesic equals -d/dtheta of the radial profile
    theta, step = 1.0, 1e-6

    def profile(t):
        return -np.log(2.0 * np.sin(t / 2.0)) / (2.0 * np.pi)

    fd = (profile(theta + step) - profile(theta - step)) / (2.0 * step)
    g = s2_green_gradient(NORTH, _on_sphere(theta))
    assert np.linalg.norm(g) == pytest.approx(abs(fd), rel=1e-6)


def test_gradient_degenerate_pairs_raise():
    with pytest.raises(DegeneratePairError):
        s2_green_gradient(NORTH, NORTH)
    with pytest.raises(DegeneratePairError):
        s2_green_gradient(NORTH, SOUTH)


# --- cap boundary fixtures -----------------------------------------------------

def test_cap_boundary_equator_conormals():
    sample = cap_boundary_sample(np.pi / 2, 4)
    assert np.allclose(sample.conormals, np.tile([0.0, 0.0, -1.0], (4, 1)), atol=1e-12)


def test_cap_boundary_tangent_and_unit():
    sample = cap_boundary_sample(np.pi / 5, 64)
    assert np.max(np.abs(np.linalg.norm(sample.conormals, axis=1) - 1.0)) < 1e-12
    radial = np.abs(np.einsum("jk,jk->j", sample.conormals, sample.points))
    assert np.max(radial) < 1e-12


def test_cap_boundary_rejects_bad_alpha():
    with pytest.raises(ValueError):
        cap_boundary_sample(0.0, 8)
    with pytest.raises(ValueError):
        cap_boundary_sample(np.pi, 8)


def test_cap_query_sides():
    alpha = np.pi / 3
    qi = cap_query_points(alpha, 200, seed=1, side="interior")
    qe = cap_query_points(alpha, 200, seed=2, side="exterior")
    ti = np.arccos(np.clip(qi.points[:, 2], -1, 1))
    te = np.arccos(np.clip(qe.points[:, 2], -1, 1))
    assert np.max(ti) <= 0.8 * alpha + 1e-12
    assert np.min(te) >= 1.2 * alpha - 1e-12


@pytest.mark.parametrize("side", ["interior", "exterior"])
@pytest.mark.parametrize("margin", [0.0, -0.3, np.nan])
def test_cap_query_margin_must_be_positive(side, margin):
    # a negative margin would put the queries on the other side of the boundary
    with pytest.raises(ValueError, match="margin must be positive"):
        cap_query_points(np.pi / 3, 20, seed=1, side=side, margin=margin)


@pytest.mark.parametrize("side, margin", [("interior", np.pi / 3), ("exterior", 2 * np.pi / 3)])
def test_cap_query_margin_leaves_no_side(side, margin):
    with pytest.raises(ValueError, match=f"margin leaves no {side}"):
        cap_query_points(np.pi / 3, 20, seed=1, side=side, margin=margin)


# --- continuous indicator ------------------------------------------------------

@pytest.mark.parametrize("alpha", [np.pi / 6, np.pi / 3, np.pi / 2, 2 * np.pi / 3])
def test_cap_identity_north_pole(alpha):
    val = continuous_cap_indicator(NORTH, alpha, 256)
    assert val == pytest.approx(np.cos(alpha / 2.0) ** 2, abs=1e-6)


def test_cap_exterior_value_south_pole():
    alpha = np.pi / 3
    val = continuous_cap_indicator(SOUTH, alpha, 256)
    assert val == pytest.approx(-np.sin(alpha / 2.0) ** 2, abs=1e-8)


@pytest.mark.parametrize("alpha", [np.pi / 6, np.pi / 2, 2 * np.pi / 3])
def test_interior_exterior_jump_is_one(alpha):
    jump = (continuous_cap_indicator(NORTH, alpha, 256)
            - continuous_cap_indicator(SOUTH, alpha, 256))
    assert jump == pytest.approx(1.0, abs=1e-10)


def test_off_axis_jump():
    alpha = np.pi / 3
    inside = _on_sphere(0.3, phi=1.1)
    outside = _on_sphere(2.4, phi=-0.4)
    jump = (continuous_cap_indicator(inside, alpha, 512)
            - continuous_cap_indicator(outside, alpha, 512))
    assert jump == pytest.approx(1.0, abs=1e-8)


# --- discrete system -----------------------------------------------------------

def test_assemble_shapes_and_rhs():
    sample = cap_boundary_sample(np.pi / 3, 2)
    qi = PointCloud(NORTH[None, :])
    qe = PointCloud(SOUTH[None, :])
    system = assemble_riemann_system(qi, qe, sample, SphereModel())
    assert system.matrix.shape == (2, 3)
    assert system.rhs.tolist() == [1.0, 0.0]
    assert system.sample is sample
    assert np.all(system.matrix[:, -1] == 1.0)


def test_boundary_sample_off_the_sphere_rejected():
    sample = cap_boundary_sample(np.pi / 3, 16)
    with pytest.raises(ValueError, match="off the unit sphere"):
        ManifoldBoundarySample(PointCloud(1.3 * sample.points), sample.conormals)


def test_boundary_sample_outside_r3_rejected():
    # on S^3 and tangent there: only the dimension is wrong
    points, conormals = s3_boundary(120, 4)
    with pytest.raises(ValueError, match="S\\^2 boundary points need 3 coordinates, not 4"):
        ManifoldBoundarySample(PointCloud(points), conormals)


def test_sphere_field_refuses_points_outside_r3():
    points, conormals = s3_boundary(120, 4)
    queries = s3_boundary(5, 8)[0]
    with pytest.raises(ValueError, match="S\\^2 points need 3 coordinates, not 4"):
        double_layer(SphereModel().field, queries, points, conormals)


def test_cap_sample_is_an_oriented_sample():
    sample = cap_boundary_sample(np.pi / 3, 16)
    assert isinstance(sample, OrientedSample)
    assert sample.conormals is sample.normals
    assert len(sample) == 16 and sample.dim == 3
    # the flipped conormals bound the complementary cap
    flipped = sample.flipped()
    assert type(flipped) is ManifoldBoundarySample
    assert np.array_equal(flipped.conormals, -sample.conormals)


def test_conormal_off_unit_length_rejected():
    # the unit-length check of every oriented sample (1e-12) holds for conormals
    sample = cap_boundary_sample(np.pi / 3, 16)
    conormals = sample.conormals.copy()
    conormals[0] *= 1.0 + 1e-11
    with pytest.raises(ValueError, match="unit length"):
        ManifoldBoundarySample(sample.cloud, conormals)


def test_conormal_off_the_tangent_plane_rejected():
    sample = cap_boundary_sample(np.pi / 3, 16)
    conormals = sample.conormals.copy()
    conormals[0] = sample.points[0]
    with pytest.raises(ValueError, match="tangent"):
        ManifoldBoundarySample(sample.cloud, conormals)


def test_assemble_requires_both_query_classes():
    sample = cap_boundary_sample(np.pi / 3, 4)
    q = PointCloud(NORTH[None, :])
    with pytest.raises(ValueError):
        assemble_riemann_system(q, PointCloud(np.empty((0, 3))), sample, SphereModel())


def test_conormal_flip_negates_kernel_entries():
    sample = cap_boundary_sample(np.pi / 3, 8)
    flipped = ManifoldBoundarySample(sample.cloud, -sample.conormals)
    qi = PointCloud(NORTH[None, :])
    qe = PointCloud(SOUTH[None, :])
    a = assemble_riemann_system(qi, qe, sample, SphereModel()).matrix
    b = assemble_riemann_system(qi, qe, flipped, SphereModel()).matrix
    assert np.allclose(a[:, :-1], -b[:, :-1], atol=1e-14)
    assert np.allclose(a[:, -1], b[:, -1])


def test_field_rows_do_not_depend_on_the_chunk():
    # each query's cosines are one matrix-vector product, so the rows of
    # several full chunks and a partial one (unless a chunk is one query)
    # equal the rows of one query a call
    sample = cap_boundary_sample(np.pi / 3, 2000)
    p = np.vstack([cap_query_points(np.pi / 3, 45, seed=5, side=side).points
                   for side in ("interior", "exterior")])
    step = lane_rows(len(sample))
    assert len(p) > 2 * step
    field = SphereModel().field
    rows = double_layer(field, p, sample.points, sample.conormals)
    single = np.vstack([double_layer(field, p[i:i + 1], sample.points, sample.conormals)
                        for i in range(len(p))])
    assert np.array_equal(rows, single)


def test_antipodal_pair_in_second_chunk_raises():
    # the second chunk is lane 1's whenever there are two lanes or more
    sample = cap_boundary_sample(np.pi / 3, 2000)
    step = lane_rows(len(sample))
    p = cap_query_points(np.pi / 3, 3 * step, seed=6).points.copy()
    field = SphereModel().field
    double_layer(field, p, sample.points, sample.conormals)
    p[step] = -sample.points[7]
    with pytest.raises(DegeneratePairError, match="antipodal"):
        double_layer(field, p, sample.points, sample.conormals)


@pytest.mark.parametrize("tangent", [True, False], ids=["tangent", "generic"])
@pytest.mark.parametrize("summed", [False, True], ids=["rows", "summed"])
def test_field_matches_gradient_oracle(tangent, summed):
    # cap conormals are tangent, so c (q.v) vanishes; generic vectors keep it.
    # The queries keep a geodesic margin of 0.2 alpha from the boundary
    # points, so no pair is near enough for 1 - c c to lose digits.
    sample = cap_boundary_sample(np.pi / 3, 700)
    points = sample.points
    vectors = (sample.conormals if tangent
               else np.random.default_rng(31).standard_normal(points.shape))
    step = lane_rows(len(points))
    p = np.vstack([cap_query_points(np.pi / 3, 2 * step + 1, seed=8, side=side).points
                   for side in ("interior", "exterior")])
    assert len(p) > 2 * step and len(p) % step
    ref = np.einsum("ijk,jk->ij", -s2_green_gradient(p, points), vectors)
    if summed:
        ref = ref.sum(axis=1)
    got = double_layer(SphereModel().field, p, points, vectors, summed=summed)
    assert got.shape == ref.shape
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize("summed", [False, True], ids=["rows", "summed"])
def test_field_coincident_pair_raises(summed):
    sample = cap_boundary_sample(np.pi / 3, 64)
    p = np.vstack([NORTH, sample.points[5]])
    with pytest.raises(DegeneratePairError, match="coincident"):
        double_layer(SphereModel().field, p, sample.points, sample.conormals, summed=summed)


@pytest.mark.parametrize("summed", [False, True], ids=["rows", "summed"])
def test_field_query_off_the_sphere_raises(summed):
    sample = cap_boundary_sample(np.pi / 3, 64)
    p = np.vstack([NORTH, 1.01 * SOUTH])
    with pytest.raises(ValueError, match="off the unit sphere"):
        double_layer(SphereModel().field, p, sample.points, sample.conormals, summed=summed)


@pytest.mark.parametrize("summed", [False, True], ids=["rows", "summed"])
def test_sample_off_the_sphere_raises_before_any_lane_starts(pools, summed):
    sample = cap_boundary_sample(np.pi / 3, 500)
    points = sample.points.copy()
    points[-1] *= 1.01
    p = cap_query_points(np.pi / 3, 3 * LANES * lane_rows(len(points)), seed=10).points
    field, log = spied(SphereModel().field)
    with pytest.raises(ValueError, match="sample point off the unit sphere"):
        double_layer(field, p, points, sample.conormals, summed=summed)
    assert log == ["bind"] and pools == []


def test_exact_elements_near_zero_residual():
    alpha = np.pi / 3
    sample = cap_boundary_sample(alpha, 400)
    qi = cap_query_points(alpha, 25, seed=3, side="interior")
    qe = cap_query_points(alpha, 25, seed=4, side="exterior")
    system = assemble_riemann_system(qi, qe, sample, SphereModel())
    w = np.concatenate([np.full(400, 2.0 * np.pi * np.sin(alpha) / 400),
                        [np.sin(alpha / 2.0) ** 2]])
    residual = system.matrix @ w - system.rhs
    assert np.max(np.abs(residual)) < 0.05


def test_cap_pipeline_length_and_offset():
    alpha = np.pi / 3
    sample = cap_boundary_sample(alpha, 400)
    qi = cap_query_points(alpha, 50, seed=21, side="interior")
    qe = cap_query_points(alpha, 50, seed=22, side="exterior")
    sol = solve_manifold_boundary(sample, SphereModel(), qi, qe)
    length = integrate_function(np.ones(400), sol)
    assert length == pytest.approx(2.0 * np.pi * np.sin(alpha), rel=0.05)
    assert sol.offset == pytest.approx(np.sin(alpha / 2.0) ** 2, abs=0.05)


@pytest.mark.parametrize("seed", range(8))
def test_cap_pipeline_is_rotation_invariant(seed):
    # rotating the sample, its conormals and the queries moves the cap, not
    # its solve
    from scipy.stats import special_ortho_group

    alpha = np.pi / 3
    sample = cap_boundary_sample(alpha, 400)
    qi = cap_query_points(alpha, 50, seed=21, side="interior")
    qe = cap_query_points(alpha, 50, seed=22, side="exterior")
    base = solve_manifold_boundary(sample, SphereModel(), qi, qe)
    R = special_ortho_group.rvs(3, random_state=seed)
    rotated = ManifoldBoundarySample(PointCloud(sample.points @ R.T), sample.conormals @ R.T)
    sol = solve_manifold_boundary(rotated, SphereModel(), PointCloud(qi.points @ R.T),
                                  PointCloud(qe.points @ R.T))
    length = integrate_function(np.ones(400), base)
    assert integrate_function(np.ones(400), sol) == pytest.approx(length, rel=1e-12, abs=0)
    assert sol.offset == pytest.approx(base.offset, rel=0, abs=1e-12)
    assert np.max(np.abs(sol.tau - base.tau)) <= 1e-8 * np.max(base.tau)


def test_pipeline_integrates_named_moments():
    alpha = np.pi / 2
    sample = cap_boundary_sample(alpha, 256)
    qi = cap_query_points(alpha, 40, seed=5, side="interior")
    qe = cap_query_points(alpha, 40, seed=6, side="exterior")
    sol = solve_manifold_boundary(sample, SphereModel(), qi, qe)
    x2 = integrate_function(sample.points[:, 0] ** 2, sol)
    assert x2 == pytest.approx(np.pi, rel=0.05)  # equator: pi * sin^3(alpha)


REFUSALS = {
    "boundary-count-0": (lambda: cap_boundary_sample(1.0, 0), "count must be at least 1"),
    "query-angle-0": (lambda: cap_query_points(0.0, 10, 1), "cap angle must lie in (0, pi)"),
    "query-count-0": (lambda: cap_query_points(1.0, 0, 1), "count must be at least 1"),
    "query-side": (lambda: cap_query_points(1.0, 10, 1, side="boundary"),
                   "side must be 'interior' or 'exterior'"),
}


@pytest.mark.parametrize("make, message", REFUSALS.values(), ids=REFUSALS)
def test_bad_cap_input_is_refused_by_name(make, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        make()
