"""The construction table, walked as a library without the command line."""

import warnings
from functools import partial

import numpy as np
import pytest

from surfquad import textio
from surfquad.collar import CollarConfig, build_collar, default_epsilon
from surfquad.errors import ClampedMassWarning
from surfquad.geometry import (circle_r3_spec, gen_circle_r3, gen_fibonacci_sphere,
                               gen_hemisphere, hemisphere_spec, interior_queries,
                               median_nn_spacing, s2_cap_spec, sphere_spec)
from surfquad.pipelines import (PIPELINES, solve_closed_scalar, solve_closed_vector,
                                solve_collar, solve_manifold_boundary, solve_tube)
from surfquad.riemannian import SphereModel, cap_boundary_sample, cap_query_points
from surfquad.tube import build_tube, sample_normal_sphere

SEED = 4
ALPHA = np.pi / 3


def _closed(vector):
    sample = gen_fibonacci_sphere(150)
    queries = interior_queries(sphere_spec(), (3 if vector else 2) * 150, SEED)
    sol = (solve_closed_vector(sample.cloud, queries) if vector
           else solve_closed_scalar(sample, queries))
    return sample, sphere_spec(), sol.tau


def _collar():
    sample = gen_hemisphere(150)
    eps = default_epsilon(sample)
    queries = interior_queries(hemisphere_spec(), 150, SEED, epsilon=eps)
    return sample, hemisphere_spec(), solve_collar(build_collar(sample, CollarConfig(eps)),
                                                   queries).solution.tau


def _tube():
    base = gen_circle_r3(60)
    eps = 2.0 * median_nn_spacing(base.cloud)
    queries = interior_queries(circle_r3_spec(), 120, SEED, epsilon=eps)
    return base, circle_r3_spec(), solve_tube(
        build_tube(base, sample_normal_sphere(2, 16, eps)), queries).tau


def _cap():
    sample = cap_boundary_sample(ALPHA, 100)
    return sample, s2_cap_spec(ALPHA), solve_manifold_boundary(
        sample, SphereModel(), cap_query_points(ALPHA, 50, SEED, side="interior"),
        cap_query_points(ALPHA, 50, SEED + 1, side="exterior")).tau


# each row of the table, with the direct solve_* call it must reproduce
CASES = {("closed", False): partial(_closed, False), ("closed", True): partial(_closed, True),
         ("collar", False): _collar, ("tube", False): _tube, ("s2-cap", False): _cap}


def test_every_row_has_a_case():
    assert {name for name, _ in CASES} == set(PIPELINES)


def _chain(name, vector):
    """The case's sample, its direct tau, and what the row builds and solves from it."""
    row = PIPELINES[name]
    with warnings.catch_warnings():
        # the chain and the direct call clamp or flip the same mass; not under test here
        warnings.simplefilter("ignore", ClampedMassWarning)
        sample, spec, tau = CASES[name, vector]()
        # every optional input omitted: the row fills in its defaults
        eps = row.epsilon(sample, None)
        built = row.build(sample, eps, None)
        queries = row.queries(sample, spec, row.query_count(sample, vector), SEED, eps, None)
        return sample, tau, built, row.solve(built, queries, vector, None)


@pytest.mark.parametrize("name, vector", list(CASES))
def test_row_chain_matches_the_direct_solve(name, vector):
    row = PIPELINES[name]
    sample, tau, built, sol = _chain(name, vector)
    assert np.array_equal(sol.tau, tau)
    weighted = row.weighted(built)
    assert weighted.points.shape == weighted.normals.shape == (len(tau), sample.dim)
    assert ("vector" in row.reads) == (name == "closed")


@pytest.mark.parametrize("name, vector", list(CASES))
def test_weight_file_rebuilds_its_construction(tmp_path, name, vector):
    row = PIPELINES[name]
    sample, _, built, sol = _chain(name, vector)
    weighted = row.weighted(built)
    sample_path, weights_path = tmp_path / "s.txt", tmp_path / "w.txt"
    row.write(sample_path, sample)
    textio.write_weights(weights_path, weighted.points, sol.tau, normals=weighted.normals,
                         offset=sol.offset, extra=row.tag(built))
    record = textio.read_weights(weights_path)
    # the header's tags and the sample file are all that rebuild the construction
    meta = record.meta
    rebuilt = row.build(row.read(sample_path), float(meta["eps"]) if "eps" in meta else None,
                        int(meta["q"]) if "q" in meta else None)
    assert np.array_equal(row.weighted(rebuilt).points, record.points)
    ones = np.ones(len(sample))
    assert row.total(ones, record.tau, rebuilt) == row.total(ones, record.tau, built)
