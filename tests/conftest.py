"""Shared oracles and fixtures for the test suite."""

import numpy as np
import pytest


def lane_rows(count):
    """Queries per double_layer chunk when the lanes split the workspace over count points."""
    from surfquad.solver import CHUNK_ENTRIES, LANES

    return max(1, CHUNK_ENTRIES // (LANES * count))


def spied(field):
    """field wrapped to log "bind" for each binding and "rows" for each chunk, and the log."""
    log = []

    def bind(points, vectors):
        log.append("bind")
        rows = field(points, vectors)

        def logged(chunk, work):
            log.append("rows")
            return rows(chunk, work)

        return logged

    return bind, log


@pytest.fixture
def pools(monkeypatch):
    """The thread pools that solver.double_layer starts, one entry each, from this test on."""
    from concurrent.futures import ThreadPoolExecutor

    from surfquad import solver

    started = []

    class Recorded(ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            started.append(args)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(solver, "ThreadPoolExecutor", Recorded)
    return started


def s3_boundary(count, seed):
    """Points on S^3 in R^4 with unit conormals tangent there: a cap sample one dimension up."""
    from surfquad.geometry import gen_sphere_nd

    points = gen_sphere_nd(count, 4, seed).points
    raw = np.random.default_rng(seed + 1).standard_normal(points.shape)
    raw -= np.einsum("jk,jk->j", raw, points)[:, None] * points
    return points, raw / np.linalg.norm(raw, axis=1, keepdims=True)


def normal_equations_solve(A, b, lam):
    """Independent Tikhonov oracle: dense elimination on (A^T A + lam^2 I) w = A^T b."""
    A = np.asarray(A, dtype=float)
    n = A.shape[1]
    return np.linalg.solve(A.T @ A + lam * lam * np.eye(n), A.T @ b)


@pytest.fixture(scope="session")
def unit_sphere_1000():
    from surfquad.geometry import gen_fibonacci_sphere

    return gen_fibonacci_sphere(1000)


@pytest.fixture(scope="session")
def exact_sphere_weights():
    """WeightSolution carrying the exact unit-sphere elements 4*pi/N."""
    from surfquad.geometry import gen_fibonacci_sphere
    from surfquad.solver import SolveDiagnostics, WeightSolution

    def make(count):
        sample = gen_fibonacci_sphere(count)
        mu = sample.points * (4.0 * np.pi / count)
        return sample, WeightSolution(
            mu=mu, tau=np.linalg.norm(mu, axis=1), residual_norm=0.0,
            diagnostics=SolveDiagnostics(0, count, 0.0, 0))

    return make
