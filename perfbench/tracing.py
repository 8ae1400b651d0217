"""Spans around the public layer calls of surfquad, for the traced run.

``Tracer.installed()`` rebinds every module-level name in the surfquad
package that refers to one of the functions in ``LAYER_CALLS`` to a wrapper
that records a span (name, start, end, parent, op id) and, where the layer
has one, a computed count. Calls made inside the package, such as
``pipelines.solve_collar -> solver.solve_weights``, are seen as well. On
exit the original functions are restored, so untraced cycles run the
program as shipped. Spans stay in memory until the run writes them out.
"""

import inspect
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    op: int | None
    end: float = 0.0
    child_s: float = 0.0  # time covered by direct children
    counts: dict = field(default_factory=dict)

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.child_s


# --- computed counts, from argument shapes only ----------------------------
#
# Solve paths follow solver._tikhonov_solve: lambda > 0 and rows >= cols
# factors the stacked [A; lambda I] by economic QR and forms Q; rows < cols
# takes the economy SVD of A. Flop counts (Golub & Van Loan, Matrix
# Computations, 4th ed.: Householder QR 5.2, R-SVD 8.6), with m rows, n
# columns and M = m + n stacked rows:
#   tall: 4 n^2 (M - n/3)   QR plus forming Q (LAPACK dgeqrf + dorgqr)
#         + 2 M n + n^2     Q^T b and the triangular solve
#         + 2 m n           the residual A w
#   wide: 6 n m^2 + 20 m^3  R-SVD of the m x n matrix
#         + 2 m^2 + 4 m n   U^T b, V (factors U^T b), the residual A w
# Workspace counts the float64 arrays the path allocates: tall, the stacked
# matrix, LAPACK's copy of it and Q (3 M n) plus R (n^2); wide, the copy of
# A and V^T (2 m n) plus U (m^2).

def solve_model(rows: int, cols: int) -> dict:
    m, n = rows, cols
    if m >= n:
        big_m = m + n
        flops = 4 * n * n * (big_m - n / 3) + 2 * big_m * n + n * n + 2 * m * n
        return {"path": "tall", "flops": flops, "workspace_bytes": 8 * (3 * big_m * n + n * n)}
    flops = 6 * n * m * m + 20 * m ** 3 + 2 * m * m + 4 * m * n
    return {"path": "wide", "flops": flops, "workspace_bytes": 8 * (2 * m * n + m * m)}


def _count_solve(call, result):
    rows, cols = call["system"].matrix.shape
    counts = solve_model(rows, cols)
    counts["negative_count"] = result.diagnostics.negative_count
    counts["residual"] = result.residual_norm
    return counts


def _count_system(call, result):
    rows, cols = result.matrix.shape
    return {"entries": rows * cols, "bytes": 8 * rows * cols}


def _count_indicator(call, result):
    return {"pairs": len(call["queries"]) * len(call["sample"])}


def _count_file(call, result):
    return {"bytes": os.path.getsize(call["path"])}


LAYER_CALLS = (
    ("geometry", "gen_fibonacci_sphere", None),
    ("geometry", "gen_ellipsoid", None),
    ("geometry", "gen_hemisphere", None),
    ("geometry", "gen_circle_r3", None),
    ("geometry", "ellipsoid_spec", None),
    ("geometry", "interior_queries", None),
    ("geometry", "median_nn_spacing", None),
    ("collar", "build_collar", None),
    ("collar", "integrate_with_boundary", None),
    ("tube", "build_tube", None),
    ("tube", "integrate_codim", None),
    ("solver", "assemble_scalar_system", _count_system),
    ("solver", "assemble_vector_system", _count_system),
    ("solver", "solve_weights", _count_solve),
    ("solver", "indicator_values", _count_indicator),
    ("solver", "integrate_function", None),
    ("riemannian", "assemble_riemann_system", _count_system),
    ("pipelines", "solve_closed_scalar", None),
    ("pipelines", "solve_closed_vector", None),
    ("pipelines", "solve_collar", None),
    ("pipelines", "solve_tube", None),
    ("pipelines", "solve_manifold_boundary", None),
    ("textio", "read_weights", _count_file),
    ("textio", "write_weights", _count_file),
)


class Tracer:
    """Records spans; ``op`` is the id stamped on spans opened meanwhile."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op: int | None = None
        self._stack: list[int] = []

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), parent, self.op))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, index: int) -> Span:
        span = self.spans[index]
        span.end = time.perf_counter()
        self._stack.pop()
        if span.parent is not None:
            self.spans[span.parent].child_s += span.end - span.start
        return span

    @contextmanager
    def span(self, name: str):
        index = self._open(name)
        try:
            yield self.spans[index]
        finally:
            self._close(index)

    def _wrap(self, name, fn, count):
        signature = inspect.signature(fn)

        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                span = self._close(index)
            if count is not None:
                span.counts.update(count(signature.bind(*args, **kwargs).arguments, result))
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self):
        modules = [m for name, m in list(sys.modules.items())
                   if name == "surfquad" or name.startswith("surfquad.")]
        patched = []
        for module_name, fn_name, count in LAYER_CALLS:
            # a layer function the program no longer has simply records no spans
            original = getattr(sys.modules[f"surfquad.{module_name}"], fn_name, None)
            if original is None:
                continue
            wrapper = self._wrap(f"{module_name}.{fn_name}", original, count)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        patched.append((module, attr, original))
                        setattr(module, attr, wrapper)
        try:
            yield self
        finally:
            for module, attr, original in reversed(patched):
                setattr(module, attr, original)

    def dump(self) -> list[dict]:
        return [{"id": i, "name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
                 "op": s.op, "self_s": s.self_s, "counts": s.counts}
                for i, s in enumerate(self.spans)]
