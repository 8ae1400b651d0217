"""Invariances of the double-layer evaluator for the Euclidean and S^2 fields,
and of the closed row's weights.

Rows are the scalar rows sum_k K_ijk N_jk that assembly solves against. An
orthogonal map of the whole configuration leaves them unchanged, relabeling
the samples permutes their columns bit for bit, and the Euclidean kernel is
homogeneous: rows(sX, sY) = s^(1-n) rows(X, Y). The Euclidean cases run in
R^3 and R^4, whose kernels take the odd and the even power of rho. So the
weights tau of a closed solve stay under a rotation, permute with the
sample and scale as s^(n-1), at fixed seeds on irregular samples.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from surfquad.errors import ClampedMassWarning
from surfquad.geometry import (OrientedSample, PointCloud, ellipsoid_spec, gen_ellipsoid,
                               gen_sphere_nd, interior_queries, sphere_spec)
from surfquad.kernel import KernelConfig
from surfquad.pipelines import solve_closed_scalar, solve_closed_vector
from surfquad.riemannian import SphereModel
from surfquad.solver import double_layer

_SPHERE = SphereModel().field
_COS_LIMIT = 1.0 - 1e-3  # keeps S^2 pairs off coincidence and antipodes

seeds = st.integers(0, 2 ** 32 - 1)
counts = st.integers(1, 12)
dims = st.sampled_from([3, 4])
fields = st.sampled_from([("euclidean", 3), ("euclidean", 4), ("sphere", 3)])
_PROPERTY = settings(max_examples=25, deadline=None)


def _unit(rng, count, n=3):
    v = rng.standard_normal((count, n))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def _configuration(kind, n, seed, n_queries, n_samples):
    """(field, queries, points, vectors) in R^n with every pair well separated."""
    rng = np.random.default_rng(seed)
    points = _unit(rng, n_samples, n)
    if kind == "euclidean":
        # radii in [0, 0.95] or [1.05, 3]: at least 0.05 from the unit-sphere samples
        radii = np.where(rng.random(n_queries) < 0.5, rng.uniform(0.0, 0.95, n_queries),
                         rng.uniform(1.05, 3.0, n_queries))
        return (KernelConfig(n).field, _unit(rng, n_queries, n) * radii[:, None], points,
                _unit(rng, n_samples, n))
    queries = _unit(rng, 4 * n_queries)
    far = np.max(np.abs(queries @ points.T), axis=1) <= _COS_LIMIT
    queries = queries[far][:n_queries]
    # conormals: unit tangents at the points
    tangents = np.cross(points, _unit(rng, n_samples))
    tangents /= np.linalg.norm(tangents, axis=1, keepdims=True)
    return _SPHERE, queries, points, tangents


@_PROPERTY
@given(case=fields, seed=seeds, n_queries=counts, n_samples=counts)
def test_rows_invariant_under_orthogonal_maps(case, seed, n_queries, n_samples):
    field, X, Y, V = _configuration(*case, seed, n_queries, n_samples)
    assume(len(X) > 0)
    n = case[1]
    Q, _ = np.linalg.qr(np.random.default_rng(seed + 1).standard_normal((n, n)))
    A = double_layer(field, X, Y, V)
    rotated = double_layer(field, X @ Q.T, Y @ Q.T, V @ Q.T)
    assert np.max(np.abs(rotated - A)) <= 1e-11 * np.max(np.abs(A))


@_PROPERTY
@given(case=fields, seed=seeds, n_queries=counts, n_samples=counts)
def test_sample_permutation_permutes_columns(case, seed, n_queries, n_samples):
    field, X, Y, V = _configuration(*case, seed, n_queries, n_samples)
    assume(len(X) > 0)
    perm = np.random.default_rng(seed + 2).permutation(len(Y))
    permuted = double_layer(field, X, Y[perm], V[perm])
    assert np.array_equal(permuted, double_layer(field, X, Y, V)[:, perm])


@_PROPERTY
@given(n=dims, seed=seeds, n_queries=counts, n_samples=counts,
       scale=st.floats(0.1, 10.0, allow_nan=False, allow_infinity=False))
def test_euclidean_rows_scale_as_s_to_one_minus_n(n, seed, n_queries, n_samples, scale):
    field, X, Y, V = _configuration("euclidean", n, seed, n_queries, n_samples)
    A = double_layer(field, X, Y, V)
    scaled = double_layer(field, scale * X, scale * Y, V)
    factor = scale ** (1.0 - n)
    assert np.max(np.abs(scaled - factor * A)) <= 1e-12 * factor * np.max(np.abs(A))


# --- weights of the closed row ------------------------------------------------

# irregular samples: random S^2 in R^3, random S^3 in R^4, a random ellipsoid
CLOSED_CASES = {
    "sphere-r3": (lambda: gen_sphere_nd(200, 3, 2), lambda: sphere_spec(3)),
    "sphere-r4": (lambda: gen_sphere_nd(200, 4, 2), lambda: sphere_spec(4)),
    "ellipsoid": (lambda: gen_ellipsoid(1.0, 1.5, 2.0, 300, 3),
                  lambda: ellipsoid_spec(1.0, 1.5, 2.0)),
}
_SCALE = 3.7


def _rotation(n, seed):
    """A seeded rotation of R^n: the Q of a Gaussian draw's QR, with det +1."""
    Q, R = np.linalg.qr(np.random.default_rng(seed).standard_normal((n, n)))
    Q = Q * np.sign(np.diag(R))
    Q[:, 0] *= np.sign(np.linalg.det(Q))
    return Q


def _mapped(kind, sample, queries):
    """(points, normals, queries) under the map, and its action on tau."""
    Y, N, X = sample.points, sample.normals, queries.points
    if kind == "rotation":
        Q = _rotation(sample.dim, 7)
        return Y @ Q.T, N @ Q.T, X @ Q.T, lambda tau: tau
    if kind == "permutation":
        perm = np.random.default_rng(5).permutation(len(Y))
        return Y[perm], N[perm], X, lambda tau: tau[perm]
    # the kernel is homogeneous of degree 1 - n, and the default lambda
    # 1e-6 max|A| scales with it
    return _SCALE * Y, N, _SCALE * X, lambda tau: _SCALE ** (sample.dim - 1) * tau


def _weights(sample, queries, vector):
    if vector:
        return solve_closed_vector(sample.cloud, queries).tau
    # a third to a half of these samples' raw weights are negative and the
    # clamp removes most of the mass (ROADMAP item 1); the clamp maps alike
    with pytest.warns(ClampedMassWarning, match="clamping"):
        return solve_closed_scalar(sample, queries).tau


def _weight_defect(case, kind, vector):
    """max |tau of the mapped input - the map's action on tau| / max tau."""
    make_sample, make_spec = CLOSED_CASES[case]
    sample = make_sample()
    queries = interior_queries(make_spec(), (sample.dim if vector else 2) * len(sample), 11)
    tau = _weights(sample, queries, vector)
    Y, N, X, act = _mapped(kind, sample, queries)
    mapped = _weights(OrientedSample(PointCloud(Y), N), PointCloud(X), vector)
    return np.max(np.abs(mapped - act(tau))) / np.max(tau)


@pytest.mark.parametrize("kind", ["rotation", "permutation", "scale"])
@pytest.mark.parametrize("case", list(CLOSED_CASES))
def test_scalar_weights_commute_with_rotation_permutation_and_scale(case, kind):
    # measured 2.4e-13 to 1.0e-8
    assert _weight_defect(case, kind, vector=False) <= 1e-7


@pytest.mark.parametrize("kind", ["permutation", "scale"])
@pytest.mark.parametrize("case", list(CLOSED_CASES))
def test_vector_weights_commute_with_permutation_and_scale(case, kind):
    # measured 3.1e-10 to 9.9e-8
    assert _weight_defect(case, kind, vector=True) <= 1e-6


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 14: vector weights on irregular "
                          "samples move under a rotation")
@pytest.mark.parametrize("case", list(CLOSED_CASES))
def test_vector_weights_stay_under_rotation(case):
    # measured 9.1e-4 to 8.5e-3. The rotated system is A (I x Q^T), which the
    # Tikhonov minimizer follows exactly, but the default lambda 1e-6 max|A|
    # reads single coordinates of the rotated K and moves by up to 3.1%; at
    # one fixed lambda the defect is 2.1e-10 to 2.5e-8, so these weights are
    # set by lambda, not by the indicator rows
    assert _weight_defect(case, "rotation", vector=True) <= 1e-6
