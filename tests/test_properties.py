"""Invariances of the double-layer evaluator for the Euclidean and S^2 fields.

Rows are the scalar rows sum_k K_ijk N_jk that assembly solves against. An
orthogonal map of the whole configuration leaves them unchanged, relabeling
the samples permutes their columns bit for bit, and the Euclidean kernel is
homogeneous: rows(sX, sY) = s^(1-n) rows(X, Y). The Euclidean cases run in
R^3 and R^4, whose kernels take the odd and the even power of rho.
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from surfquad.kernel import KernelConfig
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
