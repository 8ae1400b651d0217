"""Run sets of benchmark runs and compare two sets.

    python3 perfbench/sets.py run --out perfbench/out/A --seeds 1-10
    python3 perfbench/sets.py run --out perfbench/out/B --seeds 11-20 --workloads probe
    python3 perfbench/sets.py compare perfbench/out/A perfbench/out/B

``run`` calls run.py once per workload and seed, one run at a time, with the
run length from BENCHMARK.json, and keeps each run's record in the output
directory. ``compare`` prints, per workload and end-to-end metric, each
set's median and quartile spread (the distance between the first and third
quartiles as a share of the median) and whether the second median is worse
than the first by more than the metric's bound. Traced runs (``--trace 1``)
are summarised the same way, without bounds.
"""

import argparse
import glob
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def cmd_run(args, spec):
    os.makedirs(args.out, exist_ok=True)
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    for workload in workloads:
        for seed in parse_seeds(args.seeds):
            record = os.path.join(args.out, f"{workload}-trace{args.trace}-seed{seed}.json")
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                   "--trace", str(args.trace), "--record", record]
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
            if done.returncode != 0:
                print(done.stdout + done.stderr, file=sys.stderr)
                return done.returncode
            result = json.loads(done.stdout.strip().splitlines()[-1])
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}", flush=True)
    return 0


def spread(values):
    """Quartile distance over the median, as the acceptance rule takes it."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / abs(median) if median else 0.0


def load_set(directory):
    """{(workload, trace): {metric: [values]}} from the records in a directory."""
    table = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path, encoding="utf-8") as fh:
            record = json.load(fh)
        key = (record["args"]["workload"], record["args"]["trace"])
        for name, metric in record["result"]["metrics"].items():
            table.setdefault(key, {}).setdefault(name, []).append(metric["value"])
    return table


def cmd_compare(args, spec):
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    sets = [load_set(d) for d in args.dirs]
    worse_any = False
    for key in sorted(set().union(*sets)):
        workload, trace = key
        print(f"{workload} (trace {trace})")
        names = sets[0].get(key) or sets[-1].get(key)
        for name in names:
            cells, medians = [], []
            for table in sets:
                values = table.get(key, {}).get(name, [])
                if not values:
                    cells.append(f"{'-':>28}")
                    continue
                medians.append(statistics.median(values))
                spread_text = f"{spread(values):6.1%}" if len(values) > 1 else f"{'':6}"
                cells.append(f"{medians[-1]:12.6g} +-{spread_text} n={len(values):<2}")
            verdict = ""
            bound = bounds.get(name) if trace == 0 else None
            if bound and len(medians) == 2 and medians[0]:
                change = (medians[1] - medians[0]) / abs(medians[0])
                worse = change > bound["bound"] if bound["better"] == "lower" \
                    else -change > bound["bound"]
                worse_any |= worse
                verdict = f"{change:+7.1%} (bound {bound['bound']:.0%}) " + \
                    ("WORSE" if worse else "ok")
            print(f"  {name:44s} " + "  ".join(cells) + "  " + verdict)
    return 1 if worse_any else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run each workload once per seed and keep the records")
    run.add_argument("--out", required=True, help="directory for the run records")
    run.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    run.add_argument("--workloads", nargs="*", help="default: every workload")
    run.add_argument("--trace", type=int, choices=(0, 1), default=0)
    cmp_ = sub.add_parser("compare", help="medians and spreads of one or two sets")
    cmp_.add_argument("dirs", nargs="+", help="one set to summarise, or two to compare")
    args = parser.parse_args(argv)
    spec = load_spec()
    if args.command == "run":
        return cmd_run(args, spec)
    if len(args.dirs) > 2:
        parser.error("compare takes one or two directories")
    return cmd_compare(args, spec)


if __name__ == "__main__":
    sys.exit(main())
