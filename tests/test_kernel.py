"""Kernel row and fundamental solution checks against closed forms and FD."""

import tracemalloc

import numpy as np
import pytest

from surfquad.errors import SingularEvaluationError
from surfquad.kernel import (KernelConfig, double_layer_block, double_layer_row,
                             fundamental_solution, unit_sphere_measure)
from surfquad.solver import CHUNK_ENTRIES, double_layer


@pytest.mark.parametrize("n,expected", [
    (2, 2.0 * np.pi),
    (3, 4.0 * np.pi),
    (4, 2.0 * np.pi ** 2),
    (5, 8.0 * np.pi ** 2 / 3.0),
])
def test_unit_sphere_measure_closed_forms(n, expected):
    assert unit_sphere_measure(n) == pytest.approx(expected, rel=1e-14)


def test_unit_sphere_measure_rejects_low_dim():
    with pytest.raises(ValueError):
        unit_sphere_measure(1)


@pytest.mark.parametrize("dist,expected", [
    (1.0, 1.0 / (4.0 * np.pi)),
    (2.0, 1.0 / (8.0 * np.pi)),
])
def test_fundamental_solution_r3(dist, expected):
    cfg = KernelConfig(3)
    val = fundamental_solution(np.zeros(3), np.array([dist, 0.0, 0.0]), cfg)
    assert val == pytest.approx(expected, rel=1e-14)


def test_fundamental_solution_r4_unit_distance():
    cfg = KernelConfig(4)
    val = fundamental_solution(np.zeros(4), np.array([1.0, 0, 0, 0]), cfg)
    assert val == pytest.approx(1.0 / (4.0 * np.pi ** 2), rel=1e-14)


def test_singular_evaluation_raises():
    cfg = KernelConfig(3)
    p = np.array([0.3, -0.2, 1.0])
    with pytest.raises(SingularEvaluationError):
        fundamental_solution(p, p, cfg)
    with pytest.raises(SingularEvaluationError):
        double_layer_row(p, p, cfg)


def test_double_layer_row_axis_value():
    cfg = KernelConfig(3)
    row = double_layer_row(np.zeros(3), np.array([1.0, 0.0, 0.0]), cfg)
    assert np.allclose(row, [1.0 / (4.0 * np.pi), 0.0, 0.0], atol=1e-16)


def test_double_layer_antisymmetry():
    rng = np.random.default_rng(42)
    cfg = KernelConfig(3)
    for _ in range(100):
        x, y = rng.standard_normal(3), rng.standard_normal(3)
        assert np.allclose(double_layer_row(x, y, cfg),
                           -double_layer_row(y, x, cfg), rtol=1e-14)


def _fd_gradient_first_slot(x, y, cfg, step=1e-5):
    """Central differences of the fundamental solution in its first slot.

    The kernel convention fixes K(x, y) = (y - x)/(omega_n rho^n), which is
    the first-slot gradient of G (the second-slot gradient is its negation
    because G depends on x - y only).
    """
    grad = np.empty_like(x)
    for k in range(x.size):
        e = np.zeros_like(x)
        e[k] = step
        grad[k] = (fundamental_solution(x + e, y, cfg)
                   - fundamental_solution(x - e, y, cfg)) / (2.0 * step)
    return grad


@pytest.mark.parametrize("n", [3, 4, 5])
def test_gradient_consistency(n):
    rng = np.random.default_rng(n)
    cfg = KernelConfig(n)
    for _ in range(25):
        x = rng.standard_normal(n)
        y = x + rng.standard_normal(n)
        row = double_layer_row(x, y, cfg)
        fd = _fd_gradient_first_slot(x, y, cfg)
        assert np.linalg.norm(row - fd) <= 1e-6 * np.linalg.norm(fd)


@pytest.mark.parametrize("count", [1, 10, 100, 1000])
def test_exact_gauss_identity(count, exact_sphere_weights):
    sample, solution = exact_sphere_weights(count)
    cfg = KernelConfig(3)
    rows = double_layer_block(np.zeros((1, 3)), sample.points, cfg)[0]
    total = float(np.einsum("jk,jk->", rows, solution.mu))
    assert abs(total - 1.0) < 1e-12


def _contracted_rows(count):
    """Queries per chunk of the contracted Euclidean rows over count sample points."""
    return max(1, CHUNK_ENTRIES // count)


@pytest.mark.parametrize("n", [3, 4])
def test_contracted_rows_match_block(n):
    # one full contracted chunk and a partial one, so the rows come from two field calls
    rng = np.random.default_rng(11)
    X = rng.standard_normal((_contracted_rows(40) + 44, n))
    Y = rng.standard_normal((40, n))
    V = rng.standard_normal((40, n))
    cfg = KernelConfig(n)
    block = double_layer_block(X, Y, cfg)
    rows = double_layer(cfg.field, X, Y, V)
    expected = np.einsum("ijk,jk->ij", block, V)
    assert np.max(np.abs(rows - expected)) <= 1e-14 * np.max(np.abs(expected))
    sums = double_layer(cfg.field, X, Y, V, summed=True)
    assert np.max(np.abs(sums - np.einsum("ijk,jk->i", block, V))) <= 1e-14 * np.max(np.abs(expected))
    # vector assembly writes the planes d_k into the result, by the block's own
    # arithmetic: a reshape that copied would leave its rows unwritten
    assert np.array_equal(double_layer(cfg.field, X, Y), block.reshape(len(X), -1))


@pytest.mark.parametrize("summed", [False, True])
def test_coincident_pair_in_last_partial_chunk_raises(summed):
    rng = np.random.default_rng(12)
    Y = rng.standard_normal((40, 3))
    X = rng.standard_normal((2 * _contracted_rows(40) + 5, 3))
    X[-1] = Y[7]
    cfg = KernelConfig(3)
    # rows with vectors, and without them as vector assembly builds its rows
    for vectors in (Y,) if summed else (Y, None):
        double_layer(cfg.field, X[:-1], Y, vectors)
        with pytest.raises(SingularEvaluationError):
            double_layer(cfg.field, X, Y, vectors, summed=summed)


def test_contracted_results_own_their_memory_and_sums_match_rows():
    # the workspace is reused across chunks, never across calls
    rng = np.random.default_rng(13)
    Y = rng.standard_normal((40, 3))
    V = rng.standard_normal((40, 3))
    X = rng.standard_normal((_contracted_rows(40) + 44, 3))
    cfg = KernelConfig(3)
    rows = double_layer(cfg.field, X, Y, V)
    again = double_layer(cfg.field, 2.0 * X, Y, V)
    sums = double_layer(cfg.field, X, Y, V, summed=True)
    sums_again = double_layer(cfg.field, 2.0 * X, Y, V, summed=True)
    assert not np.shares_memory(rows, again)
    assert not np.shares_memory(sums, sums_again)
    assert np.array_equal(rows, double_layer(cfg.field, X, Y, V))
    assert np.array_equal(sums, rows.sum(axis=1))
    assert np.array_equal(sums_again, again.sum(axis=1))


def _traced_peak(call):
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_contracted_evaluation_memory():
    # 2000 x 2000: the summed rows need one workspace of four 32-query chunk
    # arrays (2 MB), whatever the query count
    rng = np.random.default_rng(14)
    Y = rng.standard_normal((2000, 3))
    X = rng.standard_normal((2000, 3))
    cfg = KernelConfig(3)
    _, peak = _traced_peak(lambda: double_layer(cfg.field, X, Y, Y, summed=True))
    assert peak < 4e6
    # rows are built in the result itself: three chunk arrays beside it, and
    # numpy's transient ufunc buffers (two of np.getbufsize() doubles, 128 KiB),
    # which stay under a fourth
    out, peak = _traced_peak(lambda: double_layer(cfg.field, X, Y, Y))
    chunk = _contracted_rows(len(Y)) * len(Y) * out.itemsize
    assert peak <= out.nbytes + 4 * chunk
    # vector assembly writes its (chunk, N, n) rows in the result as well
    out, peak = _traced_peak(lambda: double_layer(cfg.field, X, Y))
    assert peak <= out.nbytes + 4 * chunk


@pytest.mark.parametrize("scale", [0.5, 2.0, 7.3])
def test_homogeneity(scale):
    rng = np.random.default_rng(5)
    for n in (3, 4):
        cfg = KernelConfig(n)
        x, y = rng.standard_normal(n), rng.standard_normal(n)
        lhs = double_layer_row(scale * x, scale * y, cfg)
        rhs = scale ** (1 - n) * double_layer_row(x, y, cfg)
        assert np.allclose(lhs, rhs, rtol=1e-12)


def test_kernel_config_validation():
    with pytest.raises(ValueError):
        KernelConfig(2)
