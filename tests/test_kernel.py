"""Kernel row and fundamental solution checks against closed forms and FD."""

import multiprocessing
import os
import re
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import surfquad
from conftest import lane_rows, spied
from surfquad import solver
from surfquad.errors import SingularEvaluationError
from surfquad.kernel import (KernelConfig, double_layer_block, double_layer_row,
                             fundamental_solution, unit_sphere_measure)
from surfquad.solver import CHUNK_ENTRIES, LANES, double_layer


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
    with pytest.raises(SingularEvaluationError, match="^coincident query/sample point$"):
        double_layer_block(np.array([[0.5, 0, 0], p]), np.array([[0.0, 0, 1], p]), cfg)


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
    # one full contracted chunk and a partial one, so the rows come from two chunk calls
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


def _power_rows(X, Y, V, n):
    """Contracted rows by the arithmetic the field ran per chunk before it bound its sample.

    Strided sample columns and rho^n = rho2^(n//2) by np.power (times rho for
    odd n): the oracle that the bound field's product forms must match bit for bit.
    """
    d = Y[:, 0] - X[:, 0, None]
    rows, rho2 = d * V[:, 0], d * d
    for k in range(1, n):
        d = Y[:, k] - X[:, k, None]
        rows += d * V[:, k]
        rho2 += d * d
    den = np.power(rho2, n // 2)
    if n % 2:
        den *= np.sqrt(rho2)
    den *= unit_sphere_measure(n)
    return rows / den


@pytest.mark.parametrize("n", [3, 4, 5])
def test_bound_rows_match_the_power_form(n):
    # several chunks per lane and a partial last one
    rng = np.random.default_rng(20 + n)
    Y = rng.standard_normal((300, n))
    V = rng.standard_normal((300, n))
    X = rng.standard_normal((2 * LANES * lane_rows(300) + 7, n))
    expected = _power_rows(X, Y, V, n)
    field = KernelConfig(n).field
    assert np.array_equal(double_layer(field, X, Y, V), expected)
    assert np.array_equal(double_layer(field, X, Y, V, summed=True), expected.sum(axis=1))


def test_field_is_bound_once_per_call(pools):
    rng = np.random.default_rng(21)
    Y = rng.standard_normal((40, 3))
    X = rng.standard_normal((3 * LANES * lane_rows(40) + 1, 3))
    chunks = len(range(0, len(X), lane_rows(40)))
    assert chunks > LANES
    field, log = spied(KernelConfig(3).field)
    for vectors, summed in ((Y, False), (Y, True), (None, False)):
        log.clear()
        double_layer(field, X, Y, vectors, summed=summed)
        assert log[0] == "bind" and log.count("bind") == 1 and log.count("rows") == chunks
    assert pools


@pytest.mark.parametrize("summed", [False, True])
@pytest.mark.parametrize("shape", [(40, 4), (39, 3), (40,), (120,)])
def test_misshaped_vectors_raise_before_any_lane_starts(pools, shape, summed):
    # (40, 4) vectors once lost their 4th column without a word; the others
    # failed inside a lane with numpy's broadcast text, which names no argument
    rng = np.random.default_rng(22)
    Y = rng.standard_normal((40, 3))
    X = rng.standard_normal((3 * LANES * lane_rows(40), 3))
    field, log = spied(KernelConfig(3).field)
    with pytest.raises(ValueError, match=re.escape(f"{shape}") + ".*" + re.escape("(40, 3)")):
        double_layer(field, X, Y, np.ones(shape), summed=summed)
    assert log == [] and pools == []


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


@pytest.mark.parametrize("summed", [False, True])
def test_coincident_pair_in_second_chunk_raises(summed):
    # the second chunk is lane 1's whenever there are two lanes or more
    rng = np.random.default_rng(15)
    Y = rng.standard_normal((40, 3))
    X = rng.standard_normal((3 * lane_rows(40), 3))
    cfg = KernelConfig(3)
    for vectors in (Y,) if summed else (Y, None):
        double_layer(cfg.field, X, Y, vectors, summed=summed)
        bad = X.copy()
        bad[lane_rows(40)] = Y[7]
        with pytest.raises(SingularEvaluationError):
            double_layer(cfg.field, bad, Y, vectors, summed=summed)


def test_call_returns_after_every_lane_has_stopped():
    # query i carries i, so a rows call knows its chunk; every chunk but the
    # first sleeps, so the other lanes are still running when lane 0 is done
    step = lane_rows(40)
    X = np.zeros((4 * step, 3))
    X[:, 0] = np.arange(len(X))
    Y = np.ones((40, 3))
    started, stopped = [], []
    other_lane_running = threading.Event()

    def field(points, vectors, fail_first=False):
        def rows(chunk, work):
            lo = int(chunk[0, 0])
            if lo == 0 and fail_first:
                if LANES > 1:
                    other_lane_running.wait(timeout=10)
                raise SingularEvaluationError("first chunk")
            started.append(lo)
            if lo:
                other_lane_running.set()
                time.sleep(0.05)
            work[-1][:] = lo
            stopped.append(lo)
            return work[-1]

        return rows

    rows = double_layer(field, X, Y, Y)
    assert np.array_equal(rows[:, 0], np.arange(len(X)) // step * step)
    assert sorted(started) == sorted(stopped) == list(range(0, len(X), step))
    started.clear()
    stopped.clear()
    other_lane_running.clear()
    with pytest.raises(SingularEvaluationError):
        double_layer(lambda *a: field(*a, fail_first=True), X, Y, Y, summed=True)
    # lane 0 failed while another lane was inside a chunk, and the call waited for it
    assert started or LANES == 1
    assert sorted(started) == sorted(stopped)


def test_concurrent_callers_get_the_reference_bits():
    # more callers than CPUs, each call split into lanes of its own, with
    # thread switches forced often: every result must still be the reference
    rng = np.random.default_rng(19)
    X = rng.standard_normal((4 * lane_rows(300) + 3, 3))
    Y = rng.standard_normal((300, 3))
    field = KernelConfig(3).field
    expected = (double_layer(field, X, Y, Y), double_layer(field, X, Y, Y, summed=True))
    mismatches = []

    def caller():
        for _ in range(5):
            got = (double_layer(field, X, Y, Y), double_layer(field, X, Y, Y, summed=True))
            mismatches.extend(not np.array_equal(a, b) for a, b in zip(got, expected))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        callers = [threading.Thread(target=caller) for _ in range(2 * LANES + 2)]
        for thread in callers:
            thread.start()
        for thread in callers:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in callers)
    assert len(mismatches) == 2 * 5 * len(callers) and not any(mismatches)


def test_lanes_keep_the_callers_error_state():
    # coordinates of 1e-110 underflow rho^3 to zero; pytest's error::RuntimeWarning
    # filter fails a lane that does not run under the caller's np.errstate
    rng = np.random.default_rng(16)
    X = 1e-110 * rng.standard_normal((400, 3))
    Y = 1e-110 * rng.standard_normal((400, 3))
    cfg = KernelConfig(3)
    assert len(X) > LANES * lane_rows(len(Y))
    with pytest.warns(RuntimeWarning, match="divide by zero"):
        double_layer(cfg.field, X, Y, Y)
    bufsize = np.getbufsize()
    with np.errstate(all="ignore"):
        rows = double_layer(cfg.field, X, Y, Y)
        sums = double_layer(cfg.field, X, Y, Y, summed=True)
    assert np.isinf(rows).all() and not np.isfinite(sums).any()
    # lane 0 runs in the caller's thread on its share of the ufunc buffer
    assert np.getbufsize() == bufsize


def _summed_in_child(X, Y):
    double_layer(KernelConfig(3).field, X, Y, Y, summed=True)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_forked_child_evaluates_after_the_parent_used_the_lanes():
    # a fork child starts lanes of its own after the parent ran its lanes
    rng = np.random.default_rng(17)
    X = rng.standard_normal((4 * lane_rows(500), 3))
    Y = rng.standard_normal((500, 3))
    _summed_in_child(X, Y)
    child = multiprocessing.get_context("fork").Process(target=_summed_in_child, args=(X, Y))
    child.start()
    try:
        child.join(timeout=60)
        assert child.exitcode == 0
    finally:
        if child.is_alive():
            child.kill()
            child.join()


_ONE_LANE = """
import os, sys
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
import numpy as np
from surfquad import solver
from surfquad.kernel import KernelConfig
assert solver.LANES == 1
inputs = np.load(sys.argv[1])
X, Y, V = inputs["X"], inputs["Y"], inputs["V"]
field = KernelConfig(3).field
np.savez(sys.argv[2], rows=solver.double_layer(field, X, Y, V),
         sums=solver.double_layer(field, X, Y, V, summed=True),
         block=solver.double_layer(field, X, Y))
"""


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs CPU affinity")
def test_one_lane_gives_the_same_bits(tmp_path):
    # a process pinned to one CPU runs one lane with chunks LANES times as long
    rng = np.random.default_rng(18)
    X = rng.standard_normal((3 * lane_rows(300) + 7, 3))
    Y = rng.standard_normal((300, 3))
    V = rng.standard_normal((300, 3))
    np.savez(tmp_path / "in.npz", X=X, Y=Y, V=V)
    env = dict(os.environ, PYTHONPATH=str(Path(surfquad.__file__).parents[1]))
    subprocess.run([sys.executable, "-c", _ONE_LANE, tmp_path / "in.npz", tmp_path / "out.npz"],
                   env=env, check=True, timeout=120)
    one = np.load(tmp_path / "out.npz")
    field = KernelConfig(3).field
    assert np.array_equal(one["rows"], double_layer(field, X, Y, V))
    assert np.array_equal(one["sums"], double_layer(field, X, Y, V, summed=True))
    assert np.array_equal(one["block"], double_layer(field, X, Y))


def _traced_peak(call):
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_contracted_evaluation_memory():
    # 2000 x 2000: the summed rows need one workspace of four arrays of 32
    # queries (2 MB), whatever the query count; the lanes split it, each
    # taking 32 // LANES queries of every array
    rng = np.random.default_rng(14)
    Y = rng.standard_normal((2000, 3))
    X = rng.standard_normal((2000, 3))
    cfg = KernelConfig(3)
    _, peak = _traced_peak(lambda: double_layer(cfg.field, X, Y, Y, summed=True))
    assert peak < 4e6
    # rows are built in the result itself: three workspace arrays beside it,
    # and numpy's transient ufunc buffers (up to two of np.getbufsize()
    # doubles, 128 KiB, which the lanes split), which stay under a fourth
    out, peak = _traced_peak(lambda: double_layer(cfg.field, X, Y, Y))
    chunk = _contracted_rows(len(Y)) * len(Y) * out.itemsize
    assert peak <= out.nbytes + 4 * chunk
    # vector assembly writes its (chunk, N, n) rows in the result as well
    out, peak = _traced_peak(lambda: double_layer(cfg.field, X, Y))
    assert peak <= out.nbytes + 4 * chunk


@pytest.mark.parametrize("lanes", [4, 16])
def test_evaluation_memory_does_not_grow_with_lanes(monkeypatch, lanes):
    # more lanes than LANES allows: each takes a smaller share of the
    # workspace and of numpy's ufunc buffer, so the bounds above still hold
    monkeypatch.setattr(solver, "LANES", lanes)
    test_contracted_evaluation_memory()


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


def test_block_refuses_points_of_another_dimension():
    with pytest.raises(ValueError, match="^query/sample dimension does not match kernel config$"):
        double_layer_block(np.zeros((1, 2)), np.ones((1, 3)), KernelConfig(3))
