"""Op kinds of the benchmark workloads: set-up inputs, the op, its check.

Each op kind builds its fixed inputs (sample, reference values) once per
set-up and draws one fresh query set per cycle, all from the workload seed.
An op calls the documented surfquad entry points through their module
attributes, so the traced run sees every layer call, writes or reads a
weight file with textio as the command line does, and checks its result
against a tolerance whose source is named next to it.

Three op kinds carry a known defect of the program: the ellipsoid and the
codim-3 tube miss their tolerance on every op (ROADMAP item 1), and the
collar misses it on an occasional query draw. They stay in the workloads,
are checked like every other op and lower ``ok_frac``; they are not counted
in ``failed``, which is kept for ops that raise or miss a tolerance that
today's program meets.
"""

import math
import multiprocessing
import os
from dataclasses import dataclass

import numpy as np

from surfquad import collar, geometry, pipelines, riemannian, solver, textio, tube
from surfquad.geometry import FramedSample, PointCloud
from surfquad.kernel import KernelConfig

FOUR_PI = 4.0 * math.pi
TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class Check:
    ok: bool
    rel_err: float  # error of the checked integral, relative to its reference
    detail: str


def query_seed(seed: int, kind: int, cycle: int) -> int:
    return int(np.random.SeedSequence([seed, kind, cycle]).generate_state(1)[0])


def _rel(value: float, ref: float) -> float:
    return abs(value - ref) / abs(ref)


class OpKind:
    """One kind of op. Subclasses fill in the four steps below."""

    name = ""
    known_defect = None  # text citing the documented defect, or None

    def __init__(self, tiny: bool):
        self.tiny = tiny

    def setup(self, seed: int, out_dir: str):
        """Cycle-independent inputs and reference values."""

    def inputs(self, seed: int) -> tuple:
        """Fresh per-op inputs for one cycle."""
        raise NotImplementedError

    def run(self, inputs: tuple, out_path: str):
        raise NotImplementedError

    def check(self, result) -> Check:
        raise NotImplementedError


class ClosedScalar(OpKind):
    """Scalar closed solve with 2N interior queries (the CLI default rows)."""

    def __init__(self, tiny, name, ellipsoid):
        super().__init__(tiny)
        self.name = name
        self.ellipsoid = ellipsoid
        if ellipsoid:
            self.known_defect = ("ROADMAP item 1: clamping 570+ negative raw weights "
                                 "inflates the area (76.77 vs 27.89 at the CLI defaults)")

    def setup(self, seed, out_dir):
        self.count = 150 if self.tiny else 1500
        if self.ellipsoid:
            self.sample = geometry.gen_ellipsoid(1.0, 1.5, 2.0, self.count, seed)
            self.spec = geometry.ellipsoid_spec(1.0, 1.5, 2.0)
        else:
            self.sample = geometry.gen_fibonacci_sphere(self.count)
            self.spec = geometry.sphere_spec()
        self.ones = np.ones(self.count)

    def inputs(self, seed):
        return (geometry.interior_queries(self.spec, 2 * self.count, seed),)

    def run(self, inputs, out_path):
        sol = pipelines.solve_closed_scalar(self.sample, inputs[0])
        area = solver.integrate_function(self.ones, sol)
        textio.write_weights(out_path, self.sample.points, sol.tau, normals=self.sample.normals)
        return area

    def check(self, area):
        # criterion 3: area within 2% of the analytic value; the ellipsoid
        # uses the same bound against its quadrature reference
        ref = self.spec.analytic_area
        rel = _rel(area, ref)
        return Check(rel <= 0.02, rel, f"area {area:.6g} vs {ref:.6g}")


class ClosedVector(OpKind):
    """Vector-unknown closed solve with 3N queries (square, QR path)."""

    name = "closed-vector-sphere"

    def setup(self, seed, out_dir):
        self.count = 200 if self.tiny else 600
        self.sample = geometry.gen_fibonacci_sphere(self.count)
        self.spec = geometry.sphere_spec()
        self.ones = np.ones(self.count)

    def inputs(self, seed):
        return (geometry.interior_queries(self.spec, 3 * self.count, seed),)

    def run(self, inputs, out_path):
        sol = pipelines.solve_closed_vector(self.sample.cloud, inputs[0])
        area = solver.integrate_function(self.ones, sol)
        normals = sol.mu / np.maximum(sol.tau[:, None], 1e-300)
        textio.write_weights(out_path, self.sample.points, sol.tau, normals=normals)
        cosang = np.clip(np.einsum("jk,jk->j", normals, self.sample.normals), -1.0, 1.0)
        return area, float(np.degrees(np.arccos(cosang)).mean())

    def check(self, result):
        # criterion 4: area within 5% and mean normal angle under 10 degrees
        area, angle = result
        rel = _rel(area, FOUR_PI)
        return Check(rel <= 0.05 and angle < 10.0, rel,
                     f"area {area:.6g} vs {FOUR_PI:.6g}, mean normal angle {angle:.3g} deg")


class CollarHemisphere(OpKind):
    """Collar over the upper hemisphere at the default epsilon (wide, SVD)."""

    name = "collar-hemisphere"
    known_defect = ("the area error depends on the query draw: over 60 draws it ran "
                    "from +1.2% to +40%, and 1 in 60 missed the 20% tolerance")

    def setup(self, seed, out_dir):
        # no tiny size: below N = 1000 the collar error nears its tolerance
        self.count = 1000
        self.sample = geometry.gen_hemisphere(self.count)
        self.eps = collar.default_epsilon(self.sample)
        self.spec = geometry.hemisphere_spec()
        self.ones = np.ones(self.count)

    def inputs(self, seed):
        return (geometry.interior_queries(self.spec, self.count, seed, epsilon=self.eps),)

    def run(self, inputs, out_path):
        solid = collar.build_collar(self.sample, collar.CollarConfig(self.eps))
        cs = pipelines.solve_collar(solid, inputs[0])
        area = collar.integrate_with_boundary(self.ones, cs.front_tau, cs.back_tau)
        outward = solid.outward()
        textio.write_weights(out_path, outward.points, cs.solution.tau, normals=outward.normals,
                             extra=f"collar eps={self.eps:.17g}")
        return area

    def check(self, area):
        # criterion 6 (5% of 2 pi) plus the side-strip defect eps * L that the
        # README and collar.strip_defect_area document, L = 2 pi the rim length
        rel = _rel(area, TWO_PI)
        return Check(abs(area - TWO_PI) <= 0.05 * TWO_PI + self.eps * TWO_PI, rel,
                     f"area {area:.6g} vs {TWO_PI:.6g} (eps {self.eps:.4g})")


class TubeCircleR3(OpKind):
    """Criterion 7's tube: unit circle in R^3, 200 x 16 boundary points."""

    name = "tube-circle-r3"

    def setup(self, seed, out_dir):
        self.count = 100 if self.tiny else 200
        self.eps = 0.1 if self.tiny else 0.05
        self.base = geometry.gen_circle_r3(self.count)
        self.dirs = tube.sample_normal_sphere(2, 16, self.eps)
        self.spec = geometry.circle_r3_spec()
        self.ones = np.ones(self.count)

    def inputs(self, seed):
        return (geometry.interior_queries(self.spec, 2 * self.count, seed, epsilon=self.eps),)

    def run(self, inputs, out_path):
        t = tube.build_tube(self.base, self.dirs)
        sol = pipelines.solve_tube(t, inputs[0])
        length = tube.integrate_codim(self.ones, sol.tau, self.dirs)
        textio.write_weights(out_path, t.boundary.points, sol.tau, normals=t.boundary.normals,
                             extra=f"tube r=2 q=16 eps={self.eps:.17g}")
        return length

    def check(self, length):
        # criterion 7: length within 5% of 2 pi
        rel = _rel(length, TWO_PI)
        return Check(rel <= 0.05, rel, f"length {length:.6g} vs {TWO_PI:.6g}")


class TubeCircleR4(OpKind):
    """The codim-3 tube of tests/test_tube.py (48 x 48 points, 600 queries)."""

    name = "tube-circle-r4-codim3"
    known_defect = ("ROADMAP item 1: under-resolved base (spacing 0.131 > eps 0.08); "
                    "clamping gives length 42.77 vs 2 pi")

    def setup(self, seed, out_dir):
        self.count, self.eps = (24, 0.16) if self.tiny else (48, 0.08)
        self.queries = 300 if self.tiny else 600
        theta = TWO_PI * np.arange(self.count) / self.count
        self.base = FramedSample(PointCloud(self._core(theta)), self._frames(theta))
        self.dirs = tube.sample_normal_sphere(3, 48, self.eps)
        self.ones = np.ones(self.count)

    @staticmethod
    def _core(ang):
        zeros = np.zeros_like(ang)
        return np.column_stack([np.cos(ang), np.sin(ang), zeros, zeros])

    def _frames(self, ang):
        n = len(ang)
        return np.stack([self._core(ang), np.tile([0.0, 0.0, 1.0, 0.0], (n, 1)),
                         np.tile([0.0, 0.0, 0.0, 1.0], (n, 1))], axis=1)

    def inputs(self, seed):
        # the test's query rule: base angle plus an offset of radius <= eps/2
        # in the 3-dim normal space
        rng = np.random.default_rng(seed)
        n = self.queries
        ang = rng.uniform(0.0, TWO_PI, n)
        offs = rng.standard_normal((n, 3))
        offs /= np.linalg.norm(offs, axis=1, keepdims=True)
        rho = (self.eps / 2.0) * rng.random(n) ** (1.0 / 3.0)
        pts = self._core(ang) + np.einsum("ik,ikn->in", rho[:, None] * offs, self._frames(ang))
        return (PointCloud(pts),)

    def run(self, inputs, out_path):
        t = tube.build_tube(self.base, self.dirs)
        sol = pipelines.solve_tube(t, inputs[0])
        length = tube.integrate_codim(self.ones, sol.tau, self.dirs)
        textio.write_weights(out_path, t.boundary.points, sol.tau, normals=t.boundary.normals,
                             extra=f"tube r=3 q=48 eps={self.eps:.17g}")
        return length

    def check(self, length):
        # tests/test_tube.py::test_codim3_tube_pipeline_in_r4: 5% of 2 pi
        rel = _rel(length, TWO_PI)
        return Check(rel <= 0.05, rel, f"length {length:.6g} vs {TWO_PI:.6g}")


class S2Cap(OpKind):
    """Boundary of the polar cap alpha = pi/3 on S^2 (offset-augmented, wide)."""

    name = "s2-cap"
    alpha = math.pi / 3.0

    def setup(self, seed, out_dir):
        self.count = 200 if self.tiny else 2000
        self.queries = 50 if self.tiny else 500
        self.sample = riemannian.cap_boundary_sample(self.alpha, self.count)
        self.model = riemannian.SphereModel()
        self.spec = geometry.s2_cap_spec(self.alpha)
        self.ones = np.ones(self.count)

    def inputs(self, seed):
        return (riemannian.cap_query_points(self.alpha, self.queries, seed, side="interior"),
                riemannian.cap_query_points(self.alpha, self.queries, seed + 1, side="exterior"))

    def run(self, inputs, out_path):
        sol = pipelines.solve_manifold_boundary(self.sample, self.model, *inputs)
        length = solver.integrate_function(self.ones, sol)
        textio.write_weights(out_path, self.sample.points, sol.tau,
                             normals=self.sample.conormals, offset=sol.offset,
                             extra="manifold=s2")
        return length, sol.offset

    def check(self, result):
        # criterion 10: length within 5% of 2 pi sin(alpha), offset 0.25 +- 0.05
        length, offset = result
        ref = self.spec.analytic_area
        rel = _rel(length, ref)
        return Check(rel <= 0.05 and abs(offset - 0.25) <= 0.05, rel,
                     f"length {length:.6g} vs {ref:.6g}, offset {offset:.4g}")


def _solve_and_write(sample, queries, path):
    sol = pipelines.solve_closed_scalar(sample, queries)
    textio.write_weights(path, sample.points, sol.tau, normals=sample.normals)


class Probe(OpKind):
    """Read a solved sphere back, probe its indicator, integrate ten integrands.

    Set-up solves criterion 3's closed sphere at N = 2000 once and writes the
    weight file; ops never solve.
    """

    name = "probe"

    def setup(self, seed, out_dir):
        count = 200 if self.tiny else 2000
        self.probes = 200 if self.tiny else 2000  # per side
        self.spec = geometry.sphere_spec()
        sample = geometry.gen_fibonacci_sphere(count)
        queries = geometry.interior_queries(self.spec, 2 * count, seed)
        self.path = os.path.join(out_dir, "probe-weights.txt")
        # The solve runs in a child process: its tall-QR workspace (about
        # 380 MB at N = 2000) would otherwise set this process's peak_rss_mb,
        # which is meant to show the memory the probe ops use.
        child = multiprocessing.get_context("fork").Process(
            target=_solve_and_write, args=(sample, queries, self.path))
        child.start()
        child.join()
        if child.exitcode != 0:
            raise RuntimeError(f"probe set-up solve exited with code {child.exitcode}")
        self.kernel = KernelConfig(3)

    def inputs(self, seed):
        # criterion 5's probes: inside at margin 0.5, outside at radius 2-3
        inside = geometry.interior_queries(self.spec, self.probes, seed, margin=0.5)
        rng = np.random.default_rng(seed + 1)
        dirs = rng.standard_normal((self.probes, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        outside = PointCloud(dirs * rng.uniform(2.0, 3.0, self.probes)[:, None])
        return inside, outside

    def run(self, inputs, out_path):
        rec = textio.read_weights(self.path)
        sol = solver.WeightSolution(mu=rec.tau[:, None] * rec.normals, tau=rec.tau,
                                    residual_norm=0.0,
                                    diagnostics=solver.SolveDiagnostics(0, len(rec.tau), 0.0, 0),
                                    offset=rec.offset)
        cloud = PointCloud(rec.points)
        chi_in = solver.indicator_values(inputs[0], cloud, sol, self.kernel)
        chi_out = solver.indicator_values(inputs[1], cloud, sol, self.kernel)
        integrals = {name: solver.integrate_function(
                         geometry.evaluate_integrand(name, rec.points), sol)
                     for name in geometry.INTEGRANDS}
        return float(np.max(np.abs(chi_in - 1.0))), float(np.max(np.abs(chi_out))), integrals

    def check(self, result):
        # criterion 5: |chi - 1| < 0.05 inside and |chi| < 0.05 outside.
        # criterion 3: area within 2%, second moments within 3%, first
        # moments within 0.05; the mixed moments take the first-moment bound
        err_in, err_out, integrals = result
        refs = self.spec.analytic_integrals
        ok = err_in < 0.05 and err_out < 0.05
        for name, value in integrals.items():
            ref = refs[name]
            if name == "const1":
                ok &= _rel(value, ref) <= 0.02
            elif ref:
                ok &= _rel(value, ref) <= 0.03
            else:
                ok &= abs(value) < 0.05
        worst = max(abs(v - refs[k]) for k, v in integrals.items()) / FOUR_PI
        return Check(bool(ok), worst,
                     f"max |chi-1| inside {err_in:.3g}, max |chi| outside {err_out:.3g}")


@dataclass(frozen=True)
class Workload:
    kinds: tuple

    def build(self, seed: int, out_dir: str):
        """Set each kind up: samples, reference values, the probe's weight file."""
        for kind in self.kinds:
            kind.setup(seed, out_dir)

    def inputs(self, seed: int, cycle: int) -> list:
        """Fresh inputs of every kind for one cycle."""
        return [kind.inputs(query_seed(seed, k, cycle)) for k, kind in enumerate(self.kinds)]


def make_workload(name: str, tiny: bool = False) -> Workload:
    if name == "closed-tall":
        return Workload((ClosedScalar(tiny, "closed-scalar-sphere", ellipsoid=False),
                         ClosedScalar(tiny, "closed-scalar-ellipsoid", ellipsoid=True),
                         ClosedVector(tiny)))
    if name == "wide-mixed":
        return Workload((CollarHemisphere(tiny), TubeCircleR3(tiny), TubeCircleR4(tiny),
                         S2Cap(tiny)))
    if name == "probe":
        return Workload((Probe(tiny),))
    raise ValueError(f"unknown workload {name!r}")


ALL_KINDS = ("closed-scalar-sphere", "closed-scalar-ellipsoid", "closed-vector-sphere",
             "collar-hemisphere", "tube-circle-r3", "tube-circle-r4-codim3", "s2-cap", "probe")
