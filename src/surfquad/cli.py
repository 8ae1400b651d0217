"""Command-line front end: fixtures, weight solves, integration, studies.

Subcommands: generate | weights | integrate | indicator | study. Every
command is deterministic given its flags; all randomness flows through the
seeds named in them. Each construction is wired once, as one row of
``_PIPELINES``, and every subcommand runs through that row.
"""

import argparse
import csv
import sys
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import textio
from .collar import CollarConfig, build_collar, default_epsilon, integrate_with_boundary
from .errors import SurfquadError
from .geometry import (INTEGRANDS, PointCloud, circle_r3_spec, ellipsoid_spec,
                       evaluate_integrand, gen_circle_r3, gen_ellipsoid, gen_fibonacci_sphere,
                       gen_hemisphere, gen_sphere_nd, hemisphere_spec, interior_queries,
                       median_nn_spacing, s2_cap_spec, sphere_spec)
from .kernel import KernelConfig
from .pipelines import (solve_closed_scalar, solve_closed_vector, solve_collar,
                        solve_manifold_boundary, solve_tube)
from .riemannian import (ManifoldBoundarySample, SphereModel, cap_angle, cap_boundary_sample,
                         cap_query_points)
from .solver import SolverConfig, double_layer
from .tube import build_tube, integrate_codim, sample_normal_sphere

def _read_cap(path) -> ManifoldBoundarySample:
    sample = textio.read_oriented(path)
    return ManifoldBoundarySample(sample.cloud, sample.normals)


def _build_tube(base, eps, args):
    if base.codim == 2 and args.q_directions < 8:
        raise SurfquadError("codimension-2 tubes need at least 8 directions "
                            "to keep the slice system conditioned")
    return build_tube(base, sample_normal_sphere(base.codim, args.q_directions, eps))


def _interior(sample, spec, count, seed, eps, margin, args) -> PointCloud:
    if args.queries_path:
        return textio.read_cloud(args.queries_path)
    if spec is None:
        raise SurfquadError("need --queries or --fixture to produce interior queries")
    return interior_queries(spec, count, seed, margin=margin, epsilon=eps)


def _cap_queries(sample, spec, count, seed, eps, margin, args):
    if args.queries_path:
        raise SurfquadError("s2-cap draws its interior and exterior queries from the cap "
                            "angle of the sample and --margin; it reads no --queries file")
    alpha = cap_angle(sample)
    return (cap_query_points(alpha, count, seed, side="interior", margin=margin),
            cap_query_points(alpha, count, seed + 1, side="exterior", margin=margin))


def _solve_closed(sample, queries, args, config):
    if args.mode == "vector":
        sol = solve_closed_vector(sample.cloud, queries, config)
        return sol, sample.points, sol.mu / np.maximum(sol.tau[:, None], 1e-300)
    return solve_closed_scalar(sample, queries, config), sample.points, sample.normals


def _solve_collar(collar, queries, args, config):
    outward = collar.outward()
    return solve_collar(collar, queries, config).solution, outward.points, outward.normals


def _solve_tube(tube, queries, args, config):
    b = tube.boundary
    return solve_tube(tube, queries, config), b.points, b.normals


def _solve_cap(sample, queries, args, config):
    return (solve_manifold_boundary(sample, SphereModel(), *queries, config),
            sample.points, sample.conormals)


def _weighted_sum(f, tau, meta) -> float:
    # f = None integrates 1: the sum of elements that `weights` prints
    return float(tau.sum()) if f is None else float(np.dot(f, tau))


def _half_sum(f, tau, meta) -> float:
    n = len(tau) // 2
    return integrate_with_boundary(np.ones(n) if f is None else f, tau[:n], tau[n:])


def _tube_total(f, tau, meta) -> float:
    q = int(meta["q"])
    dirs = sample_normal_sphere(int(meta["r"]), q, float(meta["eps"]))
    return integrate_codim(np.ones(len(tau) // q) if f is None else f, tau, dirs)


@dataclass(frozen=True)
class _Fixture:
    """A synthetic sample of one construction, with its reference values."""

    pipeline: str
    generate: Callable     # (args, count) -> sample
    # (args, sample) -> SurfaceSpec; the sample fixes the dimension and the cap angle
    spec: Callable


@dataclass(frozen=True)
class _Pipeline:
    """One construction, from its sample file to its summation rule.

    The defaults wire a closed hypersurface; a row names what differs.
    """

    solve: Callable        # (built, queries, args, config) -> (solution, points, normals)
    query_count: Callable  # (sample, args) -> default number of queries
    read: Callable = textio.read_oriented           # sample file -> sample
    write: Callable = textio.write_oriented         # (path, sample) -> None
    epsilon: Callable = lambda sample, args: None   # thickness of the solid, if any
    build: Callable = lambda sample, eps, args: sample  # -> what the solve takes
    # (sample, spec, count, seed, eps, margin, args) -> queries
    queries: Callable = _interior
    tag: Callable = lambda built, eps: ""           # weight-file header tags
    per_point: Callable = lambda meta: 1  # weight-file header -> weights per sample point
    total: Callable = _weighted_sum    # (f at sample points or None for 1, tau, meta) -> integral
    # ambient dim -> the double-layer field the indicator evaluates
    field: Callable = lambda dim: KernelConfig(dim).field
    vector: bool = False   # whether `weights --mode vector` applies
    note: str = ""         # extra `weights` report line, formatted with eps
    # `study` defaults where they differ from `weights`
    study_query_count: int | None = None
    study_margin: float | None = None


_PIPELINES = {
    "closed": _Pipeline(
        solve=_solve_closed, vector=True,
        query_count=lambda s, a: (s.dim if a.mode == "vector" else 2) * len(s),
        # closer queries than the deep-interior default: the study should
        # expose the resolution-limited error, not the machine floor
        study_query_count=300, study_margin=0.3),
    "collar": _Pipeline(
        solve=_solve_collar,
        # one row per front point: thin-shell rows beyond that mostly add
        # near-field noise rather than information
        query_count=lambda s, a: len(s),
        epsilon=lambda s, a: default_epsilon(s) if a.epsilon is None else a.epsilon,
        build=lambda s, eps, a: build_collar(s, CollarConfig(eps)),
        tag=lambda collar, eps: f"collar eps={eps:.17g}",
        per_point=lambda meta: 2,
        total=_half_sum,
        note="collar epsilon:  {eps:.6g} (side-strip defect area ~ eps * boundary length)"),
    "tube": _Pipeline(
        solve=_solve_tube, query_count=lambda s, a: 2 * len(s),
        read=textio.read_framed, write=textio.write_framed,
        epsilon=lambda s, a: 2.0 * median_nn_spacing(s.cloud) if a.epsilon is None else a.epsilon,
        build=_build_tube,
        tag=lambda tube, eps: (f"tube r={tube.directions.codim} q={tube.directions.count} "
                               f"eps={eps:.17g}"),
        per_point=lambda meta: int(meta["q"]), total=_tube_total),
    "s2-cap": _Pipeline(
        solve=_solve_cap, query_count=lambda s, a: 50, read=_read_cap,
        write=lambda path, s: textio.write_oriented(path, s, extra="manifold=s2"),
        queries=_cap_queries, tag=lambda built, eps: "manifold=s2",
        field=lambda dim: SphereModel().field),
}

# a sample file does not record its ellipsoid's axes; a point this far from
# x^2/a^2 + y^2/b^2 + z^2/c^2 = 1 (17-digit files round to about 1e-15) means
# --a/--b/--c name another ellipsoid
ON_ELLIPSOID_TOL = 1e-9


def _ellipsoid_fixture_spec(args, sample):
    """The spec of the ellipsoid --a/--b/--c name, which the sample must lie on."""
    spec = ellipsoid_spec(args.a, args.b, args.c)
    off = (float(np.max(np.abs(np.sum((sample.points / spec.radii) ** 2, axis=1) - 1.0)))
           if sample.dim == 3 else np.inf)
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
                          lambda a, s: sphere_spec(s.dim)),
    "ellipsoid": _Fixture("closed", lambda a, n: gen_ellipsoid(a.a, a.b, a.c, n, a.seed),
                          _ellipsoid_fixture_spec),
    "hemisphere": _Fixture("collar", lambda a, n: gen_hemisphere(n),
                           lambda a, s: hemisphere_spec()),
    "circle-r3": _Fixture("tube", lambda a, n: gen_circle_r3(n),
                          lambda a, s: circle_r3_spec()),
    "s2-cap": _Fixture("s2-cap", lambda a, n: cap_boundary_sample(a.alpha, n),
                       lambda a, s: s2_cap_spec(cap_angle(s))),
}
FIXTURES = tuple(_FIXTURES)
PIPELINES = tuple(_PIPELINES)
STUDY_HEADER = ["N", "eps", "lambda", "residual", "integral", "ref", "rel_err", "seconds"]


def _spec(args, pipeline: str, sample):
    """The reference spec of --fixture, which must be a sample of this pipeline."""
    if not args.fixture:
        return None
    fixture = _FIXTURES[args.fixture]
    if fixture.pipeline != pipeline:
        raise SurfquadError(f"fixture {args.fixture} is a {fixture.pipeline} sample, "
                            f"not a {pipeline} one")
    return fixture.spec(args, sample)


def _solve(row: _Pipeline, sample, spec, args, seed: int, study: bool = False):
    """eps -> solid -> queries -> solve, the chain `weights` and `study` share."""
    eps = row.epsilon(sample, args)
    built = row.build(sample, eps, args)
    count = args.query_count
    if count is None:
        count = (study and row.study_query_count) or row.query_count(sample, args)
    margin = row.study_margin if study and args.margin is None else args.margin
    queries = row.queries(sample, spec, count, seed, eps, margin, args)
    config = SolverConfig(regularization=args.regularization)
    return (eps, built, *row.solve(built, queries, args, config))


def _pipeline_of(record: textio.WeightRecord) -> str:
    """The pipeline that wrote a weight file, read off its header tags."""
    for name in ("tube", "collar"):
        if name in record.flags:
            return name
    return "s2-cap" if record.meta.get("manifold") == "s2" else "closed"


def _header_meta(tag: str) -> dict:
    return dict(token.split("=", 1) for token in tag.split() if "=" in token)


def cmd_generate(args) -> int:
    if args.fixture is None:
        raise SurfquadError("generate needs --fixture")
    fixture = _FIXTURES[args.fixture]
    row = _PIPELINES[fixture.pipeline]
    sample = fixture.generate(args, args.count)
    # draw the queries before writing anything, so a failed draw leaves no file
    queries = None
    if args.queries_path:
        count = args.count if args.query_count is None else args.query_count
        queries = interior_queries(fixture.spec(args, sample), count,
                                   args.query_seed, margin=args.margin,
                                   epsilon=row.epsilon(sample, args))
    row.write(args.output, sample)
    cloud = sample.cloud
    h = median_nn_spacing(cloud) if len(cloud) > 1 else float("nan")
    print(f"wrote {len(cloud)} points to {args.output} (median spacing h={h:.6g})")
    if queries is not None:
        textio.write_cloud(args.queries_path, queries)
        print(f"wrote {len(queries)} interior queries to {args.queries_path}")
    return 0


def _report_solution(sol):
    print(f"solver path:     {sol.diagnostics.path}")
    print(f"residual norm:   {sol.residual_norm:.6g}")
    print(f"sum of elements: {sol.tau.sum():.8g}")
    print(f"negative raw weights: {sol.diagnostics.negative_count}")
    print(f"removed mass:    {sol.diagnostics.removed_mass:.6g} (sum of |negative raw|)")
    if sol.offset is not None:
        print(f"offset c:        {sol.offset:.8g}")


def cmd_weights(args) -> int:
    row = _PIPELINES[args.pipeline]
    if args.mode == "vector" and not row.vector:
        raise SurfquadError("--mode vector applies to the closed pipeline only; "
                            f"{args.pipeline} solves for scalar elements")
    sample = row.read(args.sample_path)
    spec = _spec(args, args.pipeline, sample)
    eps, built, sol, points, normals = _solve(row, sample, spec, args, args.query_seed)
    textio.write_weights(args.output, points, sol.tau, normals=normals, offset=sol.offset,
                         extra=row.tag(built, eps))
    _report_solution(sol)
    if row.note:
        print(row.note.format(eps=eps))
    return 0


def cmd_integrate(args) -> int:
    """Apply the summation rule of the construction the weight file's header names."""
    record = textio.read_weights(args.weights_path)
    pipeline = _pipeline_of(record)
    row = _PIPELINES[pipeline]
    sample = row.read(args.sample_path)
    spec = _spec(args, pipeline, sample)
    k = row.per_point(record.meta)
    if len(record.tau) != k * len(sample):
        raise SurfquadError(f"{pipeline} weight file holds {len(record.tau)} weights, "
                            f"not {k} per point of the {len(sample)}-point sample")
    value = row.total(evaluate_integrand(args.integrand, sample.points), record.tau, record.meta)
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
    field = _PIPELINES[_pipeline_of(record)].field(queries.dim)
    chi = double_layer(field, queries.points, record.points,
                       record.tau[:, None] * record.normals, summed=True)
    if record.offset is not None:
        chi += record.offset
    with open(args.output, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"x{i+1}" for i in range(queries.dim)] + ["chi"])
        for pt, v in zip(queries.points, chi):
            writer.writerow([f"{c:.17g}" for c in pt] + [f"{v:.17g}"])
    print(f"wrote indicator values for {len(queries)} queries to {args.output}")
    return 0


def cmd_study(args) -> int:
    sizes = [int(v) for v in str(args.sizes).split(",") if v]
    if not sizes:
        raise SurfquadError("empty --sizes list")
    fixture = _FIXTURES[args.fixture]
    row = _PIPELINES[fixture.pipeline]
    rows = []
    for i, n in enumerate(sizes):
        start = time.perf_counter()
        sample = fixture.generate(args, n)
        spec = fixture.spec(args, sample)
        ref = spec.analytic_integrals["const1"]
        eps, built, sol, _, _ = _solve(row, sample, spec, args, args.seed + i, study=True)
        integral = row.total(None, sol.tau, _header_meta(row.tag(built, eps)))
        rows.append([n, eps or 0.0, sol.diagnostics.regularization, sol.residual_norm,
                     integral, ref, (integral - ref) / abs(ref),
                     time.perf_counter() - start])
    with open(args.output, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(STUDY_HEADER)
        for row in rows:
            writer.writerow([f"{v:.17g}" if isinstance(v, float) else str(v) for v in row])
    for row in rows:
        print(f"N={row[0]}: integral={row[4]:.8g} rel_err={row[6]:.3e} ({row[7]:.2f}s)")
    print(f"wrote {len(rows)} study rows to {args.output}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="surfquad",
                                     description="Meshless integration on point-sampled submanifolds")
    sub = parser.add_subparsers(dest="command", required=True)

    # weights and integrate read the dimension and the cap angle off the sample
    def fixture_args(p):
        p.add_argument("--fixture", choices=FIXTURES)
        p.add_argument("--a", type=float, default=1.0)
        p.add_argument("--b", type=float, default=1.0)
        p.add_argument("--c", type=float, default=1.0)

    g = sub.add_parser("generate", help="write fixture samples (and optional queries)")
    fixture_args(g)
    g.add_argument("--dim", type=int, default=3)
    g.add_argument("--alpha", type=float, default=np.pi / 3)
    g.add_argument("--count", type=int, required=True)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("-o", "--output", required=True)
    g.add_argument("--queries", dest="queries_path")
    g.add_argument("--query-count", type=int, default=None)
    g.add_argument("--query-seed", type=int, default=1)
    g.add_argument("--margin", type=float, default=None)
    g.add_argument("--epsilon", type=float, default=None)
    g.set_defaults(run=cmd_generate)

    w = sub.add_parser("weights", help="assemble and solve an indicator system")
    w.add_argument("--pipeline", choices=PIPELINES, required=True)
    w.add_argument("--sample", dest="sample_path", required=True)
    w.add_argument("-o", "--output", required=True)
    w.add_argument("--queries", dest="queries_path")
    fixture_args(w)
    w.add_argument("--query-count", type=int, default=None)
    w.add_argument("--query-seed", type=int, default=1)
    w.add_argument("--margin", type=float, default=None)
    w.add_argument("--epsilon", type=float, default=None)
    w.add_argument("--q-directions", type=int, default=16)
    w.add_argument("--mode", choices=("scalar", "vector"), default="scalar")
    w.set_defaults(run=cmd_weights)

    it = sub.add_parser("integrate", help="integrate a named function with solved weights")
    it.add_argument("--sample", dest="sample_path", required=True)
    it.add_argument("--weights", dest="weights_path", required=True)
    it.add_argument("--integrand", choices=sorted(INTEGRANDS), default="const1")
    fixture_args(it)
    it.set_defaults(run=cmd_integrate)

    ind = sub.add_parser("indicator", help="probe the recovered indicator on a query file")
    ind.add_argument("--weights", dest="weights_path", required=True)
    ind.add_argument("--queries", dest="queries_path", required=True)
    ind.add_argument("-o", "--output", required=True)
    ind.set_defaults(run=cmd_indicator)

    st = sub.add_parser("study", help="convergence sweep with CSV output")
    st.add_argument("--fixture", choices=("sphere", "hemisphere", "circle-r3", "s2-cap"),
                    required=True)
    st.add_argument("--sizes", required=True,
                    help="comma-separated sample sizes, e.g. 250,500,1000,2000")
    st.add_argument("--seed", type=int, default=100)
    st.add_argument("--query-count", type=int, default=None)
    st.add_argument("--margin", type=float, default=None,
                    help="query margin from the surface (sphere default 0.3)")
    st.add_argument("--epsilon", type=float, default=None)
    st.add_argument("--q-directions", type=int, default=16)
    st.add_argument("--alpha", type=float, default=np.pi / 3)
    st.add_argument("-o", "--output", required=True)
    # study generates its samples and queries, and solves scalar systems
    st.set_defaults(run=cmd_study, queries_path=None, mode="scalar")

    for p in (w, st):
        p.add_argument("--lambda", dest="regularization", type=float, default=None,
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
