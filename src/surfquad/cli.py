"""Command-line front end: fixtures, weight solves, integration, studies.

Subcommands: generate | weights | integrate | indicator | study. Every
command is deterministic given its flags; all randomness flows through the
seeds named in them. Each construction is one row of
``pipelines.PIPELINES``, and every subcommand runs through that row; this
module holds the argument parser, the fixtures, file handling and printing.
A flag that the chosen pipeline or fixture row does not read is refused
(exit 1) before any file is read or written, and a --fixture of another
pipeline before the sample file is read. ``integrate`` rebuilds the
construction from the sample file and the weight file's header tags, and
refuses (exit 1) a sample that does not rebuild the weight file's points.
"""

import argparse
import sys
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import textio
from .errors import SurfquadError
from .geometry import (INTEGRANDS, circle_r3_spec, ellipsoid_spec, evaluate_integrand,
                       gen_circle_r3, gen_ellipsoid, gen_fibonacci_sphere, gen_hemisphere,
                       gen_sphere_nd, hemisphere_spec, median_nn_spacing, s2_cap_spec,
                       sphere_spec)
from .pipelines import PIPELINES, Pipeline
from .riemannian import cap_angle, cap_boundary_sample
from .solver import double_layer


@dataclass(frozen=True)
class _Fixture:
    """A synthetic sample of one construction, with its reference values."""

    pipeline: str
    generate: Callable     # (args, count) -> sample
    # (args, sample) -> SurfaceSpec; the sample fixes the dimension and the cap angle
    spec: Callable
    reads: dict = field(default_factory=dict)  # the flags it reads, with their defaults


# a sample file does not record its ellipsoid's axes; a point this far from
# x^2/a^2 + y^2/b^2 + z^2/c^2 = 1 (17-digit files round to about 1e-15) means
# --a/--b/--c name another ellipsoid
ON_ELLIPSOID_TOL = 1e-9
# `integrate` refuses a rebuilt construction off the weight file's points by more than
# this times the sample's largest coordinate; another surface is off by its spacing
REBUILT_TOL = 1e-9


def _ellipsoid_fixture_spec(args, sample):
    """The spec of the ellipsoid --a/--b/--c name, which the sample must lie on."""
    spec = ellipsoid_spec(args.a, args.b, args.c)
    off = (float(np.max(np.abs(np.sum((sample.points / (args.a, args.b, args.c)) ** 2, axis=1)
                               - 1.0))) if sample.dim == 3 else np.inf)
    if not off <= ON_ELLIPSOID_TOL:
        raise SurfquadError(
            f"sample does not lie on the ellipsoid a={args.a:g} b={args.b:g} c={args.c:g}: "
            f"max |x^2/a^2 + y^2/b^2 + z^2/c^2 - 1| = {off:.3g} > {ON_ELLIPSOID_TOL:g}; "
            f"pass the --a/--b/--c the sample was generated with")
    return spec


_FIXTURES = {
    "sphere": _Fixture("closed", lambda a, n: gen_fibonacci_sphere(n),
                       lambda a, s: sphere_spec()),
    "sphere-nd": _Fixture("closed", lambda a, n: gen_sphere_nd(n, a.dim, a.seed),
                          lambda a, s: sphere_spec(s.dim), {"dim": 3}),
    "ellipsoid": _Fixture("closed", lambda a, n: gen_ellipsoid(a.a, a.b, a.c, n, a.seed),
                          _ellipsoid_fixture_spec, {"a": 1.0, "b": 1.0, "c": 1.0}),
    "hemisphere": _Fixture("collar", lambda a, n: gen_hemisphere(n),
                           lambda a, s: hemisphere_spec()),
    "circle-r3": _Fixture("tube", lambda a, n: gen_circle_r3(n),
                          lambda a, s: circle_r3_spec()),
    "s2-cap": _Fixture("s2-cap", lambda a, n: cap_boundary_sample(a.alpha, n),
                       lambda a, s: s2_cap_spec(cap_angle(s)), {"alpha": np.pi / 3}),
}
STUDY_HEADER = ["N", "eps", "lambda", "residual", "integral", "ref", "rel_err", "seconds"]
# the flag of each optional pipeline or fixture input, as a refusal names it
_FLAGS = {"epsilon": "--epsilon", "q_directions": "--q-directions", "vector": "--mode vector",
          "queries": "--queries file", "dim": "--dim", "alpha": "--alpha",
          "a": "--a", "b": "--b", "c": "--c"}
_DRAW_FLAGS = {"query_count": "--query-count", "margin": "--margin", "query_seed": "--query-seed"}


def _rows(args, pipeline: str | None = None):
    """The --fixture row (None without one) and the pipeline row, the fixture's by default.

    A flag that another row of a table reads, or a query-draw flag where no
    draw happens, is refused; omitted fixture flags and draw seeds take defaults.
    """
    fixture = _FIXTURES.get(args.fixture)
    pipeline = pipeline or (fixture.pipeline if fixture else None)
    given = {key for key in _FLAGS if getattr(args, key, None) is not None}
    if getattr(args, "mode", None) == "vector":
        given.add("vector")
    if args.command == "generate" and args.queries_path:
        given.add("queries")  # the file generate draws queries into
    for table, name, kind in ((_FIXTURES, args.fixture, "fixture"),
                              (PIPELINES, pipeline, "pipeline")):
        reads = table[name].reads if name else ()
        for key in [key for key in _FLAGS if key in given and key not in reads]:
            readers = [n for n, row in table.items() if key in row.reads]
            if readers:
                raise SurfquadError(f"{_FLAGS[key]} applies to the {', '.join(readers)} {kind}"
                                    f"{'s' if len(readers) > 1 else ''} only; "
                                    f"{name or f'a command without --{kind}'} reads no "
                                    f"{_FLAGS[key]}")
    # generate draws only into --queries, and reads --epsilon only for that draw
    generate = args.command == "generate"
    draws = bool(args.queries_path) if generate else not getattr(args, "queries", None)
    keys = {**_DRAW_FLAGS, "epsilon": "--epsilon"} if generate else _DRAW_FLAGS
    unused = [flag for key, flag in keys.items() if getattr(args, key, None) is not None]
    if unused and not draws:
        raise SurfquadError(f"{', '.join(unused)}: " + ("generate draws queries only with --queries"
                            if generate else "a --queries file replaces the query draw"))
    if draws and getattr(args, "query_seed", 0) is None:
        args.query_seed = 1
    for key, default in (fixture.reads.items() if fixture else ()):
        if getattr(args, key, None) is None:
            setattr(args, key, default)
    return fixture, PIPELINES.get(pipeline)


def _read_sample(args, fixture: _Fixture | None, pipeline: str):
    """The --sample and --fixture's spec (or None), refusing another pipeline's fixture first."""
    if fixture is not None and fixture.pipeline != pipeline:
        raise SurfquadError(f"fixture {args.fixture} is a {fixture.pipeline} sample, "
                            f"not a {pipeline} one")
    sample = PIPELINES[pipeline].read(args.sample_path)
    return sample, fixture.spec(args, sample) if fixture else None


def _solve(row: Pipeline, sample, spec, args, seed: int, study: bool = False):
    """eps -> solid -> queries -> solve, the chain `weights` and `study` share."""
    eps = row.epsilon(sample, args.epsilon)
    built = row.build(sample, eps, args.q_directions)
    vector = args.mode == "vector"
    count = args.query_count
    if count is None:
        count = (study and row.study_query_count) or row.query_count(sample, vector)
    margin = row.study_margin if study and args.margin is None else args.margin
    queries = (textio.read_cloud(args.queries) if args.queries else
               row.queries(sample, spec, count, seed, eps, margin))
    return eps, built, row.solve(built, queries, vector, args.regularization)


def _pipeline_of(record: textio.WeightRecord) -> str:
    """The pipeline that wrote a weight file, read off its header tags."""
    for name in ("tube", "collar"):
        if name in record.flags:
            return name
    return "s2-cap" if record.meta.get("manifold") == "s2" else "closed"


def cmd_generate(args) -> int:
    if args.fixture is None:
        raise SurfquadError("generate needs --fixture")
    fixture, row = _rows(args)
    sample = fixture.generate(args, args.count)
    # draw the queries before writing anything, so a failed draw leaves no file
    queries = None
    if args.queries_path:
        count = args.count if args.query_count is None else args.query_count
        queries = row.queries(sample, fixture.spec(args, sample), count, args.query_seed,
                              row.epsilon(sample, args.epsilon), args.margin)
    row.write(args.output, sample)
    cloud = sample.cloud
    h = median_nn_spacing(cloud) if len(cloud) > 1 else float("nan")
    print(f"wrote {len(cloud)} points to {args.output} (median spacing h={h:.6g})")
    if queries is not None:
        textio.write_cloud(args.queries_path, queries)
        print(f"wrote {len(queries)} interior queries to {args.queries_path}")
    return 0


def cmd_weights(args) -> int:
    fixture, row = _rows(args, args.pipeline)
    sample, spec = _read_sample(args, fixture, args.pipeline)
    eps, built, sol = _solve(row, sample, spec, args, args.query_seed)
    weighted = row.weighted(built)
    # vector unknowns write the orientations they recovered
    normals = (sol.mu / np.maximum(sol.tau[:, None], 1e-300) if args.mode == "vector"
               else weighted.normals)
    textio.write_weights(args.output, weighted.points, sol.tau, normals=normals,
                         offset=sol.offset, extra=row.tag(built))
    print(f"solver path:     {sol.diagnostics.path}")
    print(f"residual norm:   {sol.residual_norm:.6g}")
    print(f"sum of elements: {sol.tau.sum():.8g}")
    print(f"negative raw weights: {sol.diagnostics.negative_count}")
    print(f"removed mass:    {sol.diagnostics.removed_mass:.6g} (sum of |negative raw|)")
    if sol.offset is not None:
        print(f"offset c:        {sol.offset:.8g}")
    if eps is not None:
        print(f"epsilon:         {eps:.6g}")
    return 0


def cmd_integrate(args) -> int:
    """Rebuild the construction the weight file's header names and sum over it."""
    fixture, _ = _rows(args)
    record = textio.read_weights(args.weights_path)
    pipeline = _pipeline_of(record)
    row = PIPELINES[pipeline]
    sample, spec = _read_sample(args, fixture, pipeline)
    meta = record.meta
    for key, tag in (("epsilon", "eps"), ("q_directions", "q")):
        if key in row.reads and tag not in meta:
            raise SurfquadError(f"{args.weights_path} has no {tag}= header tag to rebuild "
                                f"its {pipeline} construction from")
    built = row.build(sample, textio.header_tag(args.weights_path, meta, "eps", float),
                      textio.header_tag(args.weights_path, meta, "q"))
    points, tol = row.weighted(built).points, REBUILT_TOL * np.max(np.abs(sample.points))
    if points.shape != record.points.shape or not np.max(np.abs(points - record.points)) <= tol:
        raise SurfquadError(f"{args.weights_path} was not solved on {args.sample_path}: "
                            f"its {len(record.points)} points are not those of the "
                            f"{len(points)}-point {pipeline} construction rebuilt from it")
    value = row.total(evaluate_integrand(args.integrand, sample.points), record.tau, built)
    print(f"integral[{args.integrand}] = {value:.10g}  ({len(sample)} sample points)")
    ref = spec.analytic_integrals.get(args.integrand) if spec is not None else None
    if ref is not None:
        # signed, as in the study CSV: negative when the integral is short
        err = (value - ref) / abs(ref) if ref else value
        kindword = "rel" if ref else "abs"
        print(f"reference = {ref:.10g}  {kindword}_err = {err:.3e}")
    return 0


def cmd_indicator(args) -> int:
    record = textio.read_weights(args.weights_path)
    queries = textio.read_cloud(args.queries_path)
    field = PIPELINES[_pipeline_of(record)].field(queries.dim)
    chi = double_layer(field, queries.points, record.points,
                       record.tau[:, None] * record.normals, summed=True)
    if record.offset is not None:
        chi += record.offset
    textio.write_csv(args.output, [f"x{i+1}" for i in range(queries.dim)] + ["chi"],
                     np.column_stack([queries.points, chi]).tolist())
    print(f"wrote indicator values for {len(queries)} queries to {args.output}")
    return 0


def cmd_study(args) -> int:
    try:
        sizes = [int(v) for v in str(args.sizes).split(",") if v]
    except ValueError:
        raise SurfquadError(f"--sizes takes comma-separated integers, not {args.sizes!r}") from None
    if not sizes:
        raise SurfquadError("empty --sizes list")
    fixture, row = _rows(args)
    rows = []
    for i, n in enumerate(sizes):
        start = time.perf_counter()
        sample = fixture.generate(args, n)
        spec = fixture.spec(args, sample)
        ref = spec.analytic_integrals["const1"]
        eps, built, sol = _solve(row, sample, spec, args, args.seed + i, study=True)
        integral = row.total(np.ones(len(sample)), sol.tau, built)
        rows.append([n, eps or 0.0, sol.diagnostics.regularization, sol.residual_norm,
                     integral, ref, (integral - ref) / abs(ref),
                     time.perf_counter() - start])
    textio.write_csv(args.output, STUDY_HEADER, rows)
    for row in rows:
        print(f"N={row[0]}: integral={row[4]:.8g} rel_err={row[6]:.3e} ({row[7]:.2f}s)")
    print(f"wrote {len(rows)} study rows to {args.output}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="surfquad",
                                     description="Meshless integration on point-sampled submanifolds")
    sub = parser.add_subparsers(dest="command", required=True)
    g = sub.add_parser("generate", help="write fixture samples (and optional queries)")
    g.add_argument("--count", type=int, required=True)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--dim", type=int)
    g.add_argument("--queries", dest="queries_path")
    g.set_defaults(run=cmd_generate)

    w = sub.add_parser("weights", help="assemble and solve an indicator system")
    w.add_argument("--pipeline", choices=PIPELINES, required=True)
    w.add_argument("--queries")
    w.add_argument("--mode", choices=("scalar", "vector"), default="scalar")
    w.set_defaults(run=cmd_weights)

    it = sub.add_parser("integrate", help="integrate a named function with solved weights")
    it.add_argument("--weights", dest="weights_path", required=True)
    it.add_argument("--integrand", choices=sorted(INTEGRANDS), default="const1")
    it.set_defaults(run=cmd_integrate)

    ind = sub.add_parser("indicator", help="probe the recovered indicator on a query file")
    ind.add_argument("--weights", dest="weights_path", required=True)
    ind.add_argument("--queries", dest="queries_path", required=True)
    ind.set_defaults(run=cmd_indicator)

    st = sub.add_parser("study", help="convergence sweep with CSV output")
    st.add_argument("--fixture", choices=("sphere", "hemisphere", "circle-r3", "s2-cap"),
                    required=True)
    st.add_argument("--sizes", required=True,
                    help="comma-separated sample sizes, e.g. 250,500,1000,2000")
    st.add_argument("--seed", type=int, default=100)
    # study generates its samples and queries, and solves scalar systems
    st.set_defaults(run=cmd_study, queries=None, mode="scalar")

    for p in (g, w, ind, st):
        p.add_argument("-o", "--output", required=True)
    for p in (w, it):
        p.add_argument("--sample", dest="sample_path", required=True)
    # weights and integrate read the dimension and the cap angle off the sample
    for p in (g, w, it):
        p.add_argument("--fixture", choices=_FIXTURES)
        for axis in ("--a", "--b", "--c"):
            p.add_argument(axis, type=float)
    for p in (g, st):
        p.add_argument("--alpha", type=float)
    for p in (g, w, st):
        p.add_argument("--query-count", type=int)
        p.add_argument("--margin", type=float, help="query margin from the surface")
        p.add_argument("--epsilon", type=float)
    for p in (g, w):
        p.add_argument("--query-seed", type=int, help="query draw seed (default 1)")
    for p in (w, st):
        p.add_argument("--q-directions", type=int)
        p.add_argument("--lambda", dest="regularization", type=float,
                       help="Tikhonov weight (default: 1e-6 * max|A|)")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.run(args)
    except (SurfquadError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
