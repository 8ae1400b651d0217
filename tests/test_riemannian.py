"""Sphere Green-gradient identities, cap quadrature, and the cap pipeline."""

import numpy as np
import pytest

from surfquad.errors import DegeneratePairError
from surfquad.geometry import PointCloud
from surfquad.pipelines import solve_manifold_boundary
from surfquad.riemannian import (ManifoldBoundarySample, SphereModel,
                                 assemble_riemann_system, cap_boundary_sample,
                                 cap_query_points, continuous_cap_indicator,
                                 s2_green_gradient)
from surfquad.solver import SystemLayout, integrate_function

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
    assert system.layout is SystemLayout.OFFSET_AUGMENTED
    assert np.all(system.matrix[:, -1] == 1.0)


def test_boundary_sample_off_the_sphere_rejected():
    sample = cap_boundary_sample(np.pi / 3, 16)
    with pytest.raises(ValueError, match="off the unit sphere"):
        ManifoldBoundarySample(PointCloud(1.3 * sample.points), sample.conormals)


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


def test_pipeline_integrates_named_moments():
    alpha = np.pi / 2
    sample = cap_boundary_sample(alpha, 256)
    qi = cap_query_points(alpha, 40, seed=5, side="interior")
    qe = cap_query_points(alpha, 40, seed=6, side="exterior")
    sol = solve_manifold_boundary(sample, SphereModel(), qi, qe)
    x2 = integrate_function(sample.points[:, 0] ** 2, sol)
    assert x2 == pytest.approx(np.pi, rel=0.05)  # equator: pi * sin^3(alpha)
