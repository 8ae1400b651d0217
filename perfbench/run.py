"""Run one surfquad benchmark workload and print its metrics.

    python3 perfbench/run.py --workload closed-tall --seed 1 --seconds 30 --trace 0

One process, one caller in a closed loop: ops run back to back in a fixed
round-robin order of the workload's op kinds, whole cycles at a time; the
timed phase ends at the cycle boundary nearest to ``--seconds``. Inputs come
from ``--seed``; each cycle's inputs are drawn just before it, and the clock
of the timed phase stops while they are drawn. With ``--trace 0`` the last
line of stdout is a JSON object
with the end-to-end metrics; with ``--trace 1`` odd cycles run traced, even
cycles untraced, and the object holds the per-layer metrics. The lines
before it state the environment, the percentile behind ``op_s_hi`` and each
op kind's check results.

The program is imported from ``src/`` next to this directory; without it the
run exits with an error before printing a result.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from collections import defaultdict
from contextlib import nullcontext
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")

SETUP_BUILDS = 3  # set-up is built this many times; setup_s takes the median build
HI_TAIL = 10  # op_s_hi: the highest percentile with at least this many ops beyond it

# per-layer counts derived from array shapes; they repeat exactly from run to run
COMPUTED = {"assemble.entries", "assemble.bytes", "riemann.entries", "solve.flops",
            "solve.workspace_bytes", "indicator.pairs"}

END_TO_END_UNITS = {"ops_per_s": "1/s", "op_s_p50": "s", "op_s_hi": "s",
                    "peak_rss_mb": "MB", "setup_s": "s", "ok_frac": "frac"}


def import_program():
    """Put the checkout's src/ first on the path and import surfquad from it."""
    if not os.path.isfile(os.path.join(SRC, "surfquad", "__init__.py")):
        sys.exit(f"error: no surfquad sources under {SRC}; run from a checkout of the repository")
    sys.path.insert(0, SRC)
    import surfquad

    if not os.path.abspath(surfquad.__file__).startswith(SRC + os.sep):
        sys.exit(f"error: surfquad was imported from {surfquad.__file__}, not from {SRC}")


@dataclass
class Op:
    kind: str
    seconds: float
    traced: bool
    known_defect: bool
    check: object = None  # workloads.Check, or None when the op raised
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.error is None and self.check.ok

    @property
    def failed(self) -> bool:
        return self.error is not None or not (self.check.ok or self.known_defect)


def run_op(kind, inputs, out_path, tracer, traced) -> Op:
    span = tracer.span(f"op.{kind.name}") if traced else nullcontext()
    start = time.perf_counter()
    check, error = None, None
    try:
        with span:
            check = kind.check(kind.run(inputs, out_path))
    except Exception as exc:  # an op that raises is a failed op; the run goes on
        error = f"{type(exc).__name__}: {exc}"
    return Op(kind.name, time.perf_counter() - start, traced, kind.known_defect is not None,
              check, error)


def high_percentile(times):
    """(value, percentile) of the slowest op with at least HI_TAIL ops beyond it."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= HI_TAIL:
        return ordered[-1], 100.0
    rank = n - HI_TAIL  # nearest rank, 1-based
    return ordered[rank - 1], 100.0 * rank / n


def kind_balanced_median(ops):
    """Mean over op kinds of each kind's median op time.

    Every cycle runs each kind once, so this is the median op time of a
    typical cycle. A plain median over a mix of kinds with well separated
    times falls between two kinds and jumps with the extremes of each.
    """
    kinds = sorted({op.kind for op in ops})
    return statistics.fmean(statistics.median(op.seconds for op in ops if op.kind == kind)
                            for kind in kinds)


def end_to_end(ops, elapsed, setup_s):
    hi, _ = high_percentile([op.seconds for op in ops])
    return {"ops_per_s": len(ops) / elapsed,
            "op_s_p50": kind_balanced_median(ops),
            "op_s_hi": hi,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "setup_s": setup_s,
            "ok_frac": sum(op.ok for op in ops) / len(ops)}


_INTEGRATE = {"solver.integrate_function", "collar.integrate_with_boundary",
              "tube.integrate_codim"}
_ASSEMBLE = {"solver.assemble_scalar_system", "solver.assemble_vector_system"}


def layer_metrics(tracer, ops, builds, all_kinds):
    """Per-layer metrics from the spans of traced ops (seconds are self time per op)."""
    traced = {i for i, op in enumerate(ops) if op.traced}
    per_op = max(len(traced), 1)
    t = defaultdict(float)  # self seconds, summed
    c = defaultdict(float)  # counts, summed
    workspace, residual = 0.0, 0.0
    for span in tracer.spans:
        name = span.name
        if span.op is None:
            if name.startswith("geometry."):
                t["geometry"] += span.self_s
            continue
        if span.op not in traced:
            continue
        if name.startswith("op."):
            t["op"] += span.end - span.start
        elif name == "collar.build_collar":
            t["collar.build"] += span.self_s
        elif name == "tube.build_tube":
            t["tube.build"] += span.self_s
        elif name in _ASSEMBLE:
            t["assemble"] += span.self_s
            c["assemble.entries"] += span.counts["entries"]
            c["assemble.bytes"] += span.counts["bytes"]
        elif name == "riemannian.assemble_riemann_system":
            t["riemann"] += span.self_s
            c["riemann.entries"] += span.counts["entries"]
        elif name == "solver.solve_weights":
            t["solve." + span.counts["path"]] += span.self_s
            c["solve.flops"] += span.counts["flops"]
            c["solve.negative_count"] += span.counts["negative_count"]
            c["solve.calls"] += 1
            workspace = max(workspace, float(span.counts["workspace_bytes"]))
            residual = max(residual, span.counts["residual"])
        elif name in _INTEGRATE:
            t["integrate"] += span.self_s
        elif name == "solver.indicator_values":
            t["indicator"] += span.self_s
            c["indicator.pairs"] += span.counts["pairs"]
        elif name == "textio.read_weights":
            t["textio.read"] += span.self_s
            c["textio.bytes"] += span.counts["bytes"]
        elif name == "textio.write_weights":
            t["textio.write"] += span.self_s
            c["textio.bytes"] += span.counts["bytes"]
        elif name.startswith("pipelines."):
            t["pipelines"] += span.self_s
    solve_s = t["solve.tall"] + t["solve.wide"]

    def rate(count, seconds, scale):
        return count / seconds / scale if seconds > 0 else 0.0

    rel_err = {kind: max((op.check.rel_err for op in ops if op.kind == kind and op.check),
                         default=0.0) for kind in all_kinds}
    metrics = {
        "geometry.generate_s": (t["geometry"] / builds, "s"),
        "collar.build_s": (t["collar.build"] / per_op, "s/op"),
        "tube.build_s": (t["tube.build"] / per_op, "s/op"),
        "assemble.s": (t["assemble"] / per_op, "s/op"),
        "assemble.entries": (c["assemble.entries"] / per_op, "entries/op"),
        "assemble.bytes": (c["assemble.bytes"] / per_op, "B/op"),
        "assemble.mentries_per_s": (rate(c["assemble.entries"], t["assemble"], 1e6),
                                    "Mentries/s"),
        "riemann.assemble_s": (t["riemann"] / per_op, "s/op"),
        "riemann.entries": (c["riemann.entries"] / per_op, "entries/op"),
        "solve.tall_s": (t["solve.tall"] / per_op, "s/op"),
        "solve.wide_s": (t["solve.wide"] / per_op, "s/op"),
        "solve.flops": (c["solve.flops"] / per_op, "flop/op"),
        "solve.gflops_per_s": (rate(c["solve.flops"], solve_s, 1e9), "Gflop/s"),
        "solve.workspace_bytes": (workspace, "B"),
        "solve.negative_count": (c["solve.negative_count"] / per_op, "count/op"),
        "solve.residual_max": (residual, "1"),
        "solve.calls": (c["solve.calls"] / per_op, "count/op"),
        "solve.op_frac": (solve_s / t["op"] if t["op"] else 0.0, "frac"),
        "integrate.s": (t["integrate"] / per_op, "s/op"),
        "indicator.s": (t["indicator"] / per_op, "s/op"),
        "indicator.pairs": (c["indicator.pairs"] / per_op, "pairs/op"),
        "indicator.mpairs_per_s": (rate(c["indicator.pairs"], t["indicator"], 1e6), "Mpairs/s"),
        "indicator.op_frac": (t["indicator"] / t["op"] if t["op"] else 0.0, "frac"),
        "textio.read_s": (t["textio.read"] / per_op, "s/op"),
        "textio.write_s": (t["textio.write"] / per_op, "s/op"),
        "textio.bytes": (c["textio.bytes"] / per_op, "B/op"),
        "pipelines.self_s": (t["pipelines"] / per_op, "s/op"),
        "trace.overhead_frac": (kind_balanced_median([op for op in ops if op.traced])
                                / kind_balanced_median([op for op in ops if not op.traced])
                                - 1.0, "frac"),
    }
    for kind, err in rel_err.items():
        metrics[f"integrate.rel_err_max.{kind}"] = (err, "rel")
    return metrics


def _blas_threads():
    """Thread count of each OpenBLAS library numpy and scipy loaded, by ctypes."""
    import ctypes
    import glob

    import numpy
    import scipy

    found = {}
    for package in (numpy, scipy):
        libs = os.path.join(os.path.dirname(package.__file__), os.pardir,
                            package.__name__ + ".libs")
        for path in glob.glob(os.path.join(libs, "*openblas*.so*")):
            lib = ctypes.CDLL(path)
            for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                           "openblas_get_num_threads64_", "openblas_get_num_threads"):
                fn = getattr(lib, symbol, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    found[f"{package.__name__}:{os.path.basename(path)}"] = fn()
                    break
    return found


def _git_commit():
    """HEAD of the checkout's git repository, read from .git without a subprocess."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest():
    import hashlib

    digest = hashlib.sha256()
    package = os.path.join(SRC, "surfquad")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return digest.hexdigest()[:16]


def environment(seed):
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    scipy_blas = scipy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "machine": platform.machine(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "numpy_blas": f"{blas['name']} {blas['version']}",
            "scipy_blas": f"{scipy_blas['name']} {scipy_blas['version']}",
            "blas_threads": _blas_threads(),
            "blas_env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
                         if k in os.environ},
            "git_commit": _git_commit(), "source_sha256": _source_digest(), "seed": seed}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("closed-tall", "wide-mixed", "probe"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="length of the timed phase, ended at the nearest cycle boundary")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every op for a smoke test; full is the benchmark")
    parser.add_argument("--record", help="also write the full result record to this JSON file")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    t0 = time.perf_counter()
    import_program()
    import tracing
    import workloads

    import_s = time.perf_counter() - t0
    workload = workloads.make_workload(args.workload, tiny=args.size == "tiny")
    tracer = tracing.Tracer() if args.trace else None
    os.makedirs(OUT_DIR, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR)
    try:
        builds = []
        for _ in range(SETUP_BUILDS):
            start = time.perf_counter()
            with tracer.installed() if tracer else nullcontext():
                workload.build(args.seed, work_dir)
            builds.append(time.perf_counter() - start)
        out_paths = [os.path.join(work_dir, f"{kind.name}-weights.txt")
                     for kind in workload.kinds]
        start = time.perf_counter()
        for kind, inputs, path in zip(workload.kinds, workload.inputs(args.seed, 0), out_paths):
            run_op(kind, inputs, path, tracer, False)  # warm-up: first solves run slower
        setup_s = import_s + statistics.median(builds) + time.perf_counter() - start

        ops = []
        cycle = 1
        drawing_s = 0.0  # input draws; the timed phase leaves them out
        start = time.perf_counter()
        while True:
            draw_start = time.perf_counter()
            cycle_inputs = workload.inputs(args.seed, cycle)
            drawing_s += time.perf_counter() - draw_start
            traced = tracer is not None and cycle % 2 == 1
            with tracer.installed() if traced else nullcontext():
                for kind, inputs, path in zip(workload.kinds, cycle_inputs, out_paths):
                    if traced:
                        tracer.op = len(ops)
                    ops.append(run_op(kind, inputs, path, tracer, traced))
                    if traced:
                        tracer.op = None
            cycle += 1
            elapsed = time.perf_counter() - start - drawing_s
            # stop at the cycle boundary nearest to --seconds
            if (elapsed + 0.5 * elapsed / (cycle - 1) >= args.seconds
                    and (tracer is None or cycle > 2)):
                break
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    env = environment(args.seed)
    failed = sum(op.failed for op in ops)
    hi, pct = high_percentile([op.seconds for op in ops])
    print("env " + json.dumps(env, sort_keys=True))
    print(f"workload {args.workload}: {len(ops)} ops in {cycle - 1} cycles over {elapsed:.3f} s; "
          f"set-up builds {', '.join(f'{b:.3f}' for b in builds)} s")
    print(f"op_s_hi is the p{pct:.1f} op time over {len(ops)} ops "
          f"(the slowest op with at least {HI_TAIL} beyond it)")
    kinds_summary = {}
    for kind in workload.kinds:
        mine = [op for op in ops if op.kind == kind.name]
        ok = sum(op.ok for op in mine)
        worst = max((op for op in mine if op.check), key=lambda op: op.check.rel_err, default=None)
        errors = sorted({op.error for op in mine if op.error})
        kinds_summary[kind.name] = {"ops": len(mine), "ok": ok,
                                    "known_defect": kind.known_defect,
                                    "p50_s": statistics.median(op.seconds for op in mine),
                                    "worst": worst.check.detail if worst else None,
                                    "errors": errors}
        line = (f"  {kind.name}: {ok}/{len(mine)} within tolerance, "
                f"p50 {kinds_summary[kind.name]['p50_s']:.4f} s")
        if worst:
            line += f"; worst {worst.check.detail}"
        if kind.known_defect and ok < len(mine):
            line += f"; known defect, {kind.known_defect}"
        for error in errors:
            line += f"; raised {error}"
        print(line)
    print(f"failed_frac {1.0 - sum(op.ok for op in ops) / len(ops):.6g} "
          f"(ops outside tolerance or raising, known defects included); "
          f"{failed} ops failed outside the known defects")

    if tracer is None:
        values = end_to_end(ops, elapsed, setup_s)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
    else:
        pairs = layer_metrics(tracer, ops, SETUP_BUILDS, workloads.ALL_KINDS)
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in pairs.items()}
        spans_path = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.json")
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"env": env, "ops": [op.kind for op in ops], "spans": tracer.dump()}, fh)
        print(f"spans written to {os.path.relpath(spans_path, ROOT)}")
    for name, metric in metrics.items():
        label = " (computed)" if name in COMPUTED else ""
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}{label}")

    result = {"correct": failed == 0, "attempted": len(ops), "failed": failed, "metrics": metrics}
    if args.record:
        with open(args.record, "w", encoding="utf-8") as fh:
            json.dump({"args": vars(args), "env": env, "op_s_hi_percentile": pct,
                       "kinds": kinds_summary, "setup_builds_s": builds,
                       "ops": [[op.kind, op.seconds, op.traced] for op in ops],
                       "result": result}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
