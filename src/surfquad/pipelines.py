"""End-to-end weight recovery for each supported construction.

The ``solve_*`` helpers wire samples, query clouds, kernel assembly and the
Tikhonov solve together, so library users and tests run one call instead of
four, and pass their ``regularization`` (lambda) to ``solve_weights``.
``PIPELINES`` holds one ``Pipeline`` row per construction, from its
sample file to its summation rule; the command-line front end runs every
subcommand through these rows. Row callables take plain values, not parsed
command lines, and each row names the optional inputs it ``reads``. What a
row ``build``s (the sample, a ``CollarSample`` or a ``TubeSample``) is the one
layout of its weight files: ``weighted`` names the sample the weights live on,
``tag`` the inputs that rebuild it, and ``total`` sums over it.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import textio
from .collar import CollarSample, default_epsilon, integrate_with_boundary
from .errors import SurfquadError
from .geometry import OrientedSample, PointCloud, interior_queries
from .kernel import KernelConfig
from .riemannian import (ManifoldBoundarySample, SphereModel, assemble_riemann_system,
                         cap_angle, cap_query_points)
from .solver import (NegativeWeightPolicy, WeightSolution, assemble_scalar_system,
                     assemble_vector_system, solve_weights)
from .tube import TubeSample, integrate_codim, sample_normal_sphere

def solve_closed_scalar(sample: OrientedSample, queries: PointCloud,
                        regularization: float | None = None) -> WeightSolution:
    """Scalar-unknown solve for a closed oriented hypersurface."""
    system = assemble_scalar_system(queries, sample)
    return solve_weights(system, regularization)


def solve_closed_vector(sample: PointCloud, queries: PointCloud,
                        regularization: float | None = None) -> WeightSolution:
    """Vector-unknown solve; recovers both elements and orientations."""
    system = assemble_vector_system(queries, sample)
    return solve_weights(system, regularization)


@dataclass(frozen=True)
class CollarSolution:
    """Weight solution over both collar faces, split for the half-sum rule."""

    solution: WeightSolution
    front_tau: np.ndarray
    back_tau: np.ndarray


def solve_collar(collar: CollarSample, queries: PointCloud,
                 regularization: float | None = None) -> CollarSolution:
    """Scalar solve over both collar faces against queries inside the solid.

    Assembly reads the boundary the collar stored when it was built (and
    geometry.nearest_gaps guarded), whose normals point out of the solid, so
    interior queries pair with rhs = 1 and positive elements.
    """
    system = assemble_scalar_system(queries, collar.boundary)
    # Near-antiparallel face pairs make the sign of a raw collar weight pure
    # orientation noise; flipping it to its magnitude (instead of clamping)
    # preserves the pair sums the half-sum rule needs.
    sol = solve_weights(system, regularization, policy=NegativeWeightPolicy.FLIP)
    half = len(collar.front)
    return CollarSolution(solution=sol, front_tau=sol.tau[:half], back_tau=sol.tau[half:])


def solve_tube(tube: TubeSample, queries: PointCloud,
               regularization: float | None = None) -> WeightSolution:
    """Scalar solve over the tube boundary (its slice normals point out of the tube)."""
    return solve_closed_scalar(tube.boundary, queries, regularization)


def solve_manifold_boundary(sample: ManifoldBoundarySample, model: SphereModel,
                            interior_queries: PointCloud, exterior_queries: PointCloud,
                            regularization: float | None = None) -> WeightSolution:
    """Offset-augmented solve on a compact Riemannian manifold."""
    system = assemble_riemann_system(interior_queries, exterior_queries, sample, model)
    return solve_weights(system, regularization)


def _read_cap(path) -> ManifoldBoundarySample:
    sample = textio.read_oriented(path)
    return ManifoldBoundarySample(sample.cloud, sample.normals)


def _tube(base, eps, q_directions):
    q = 16 if q_directions is None else q_directions
    # the codim-1 direction sphere is the two points +-eps, whatever q is asked for
    if base.codim == 1 and q_directions not in (None, 2):
        raise SurfquadError(f"codimension-1 tubes use the two directions +-eps, not q={q}")
    if base.codim == 2 and q < 8:
        raise SurfquadError("codimension-2 tubes need at least 8 directions "
                            "to keep the slice system conditioned")
    return TubeSample(base, sample_normal_sphere(base.codim, q, eps))


def _interior(sample, spec, count, seed, eps, margin) -> PointCloud:
    if spec is None:
        raise SurfquadError("need --queries or --fixture to produce interior queries")
    return interior_queries(spec, count, seed, margin=margin, epsilon=eps)


def _cap_queries(sample, spec, count, seed, eps, margin):
    alpha = cap_angle(sample)
    return (cap_query_points(alpha, count, seed, side="interior", margin=margin),
            cap_query_points(alpha, count, seed + 1, side="exterior", margin=margin))


@dataclass(frozen=True)
class Pipeline:
    """One construction, from its sample file to its summation rule.

    The defaults wire a closed hypersurface; a row names what differs. An
    omitted optional input is None, and the row fills in its default.
    """

    solve: Callable        # (built, queries, vector, regularization) -> WeightSolution
    query_count: Callable  # (sample, vector) -> default number of queries
    # the optional inputs it reads: "epsilon", "q_directions", "vector" (vector
    # unknowns) and "queries" (a query file); every row reads count, seed,
    # margin and the Tikhonov weight lambda
    reads: frozenset = frozenset({"queries"})
    read: Callable = textio.read_oriented           # sample file -> sample
    write: Callable = textio.write_oriented         # (path, sample) -> None
    build: Callable = lambda sample, eps, q_directions: sample  # -> what the solve takes
    weighted: Callable = lambda built: built  # built -> the OrientedSample the weights live on
    # (sample, spec, count, seed, eps, margin) -> queries, where no query file is given
    queries: Callable = _interior
    tag: Callable = lambda built: ""  # built -> weight-file header tags, the eps/q that rebuild it
    # (f at the sample points, tau, built) -> the integral of f
    total: Callable = lambda f, tau, built: float(np.dot(f, tau))
    # ambient dim -> the double-layer field the indicator evaluates
    field: Callable = lambda dim: KernelConfig(dim).field

    def epsilon(self, sample, epsilon: float | None) -> float | None:
        """None where the row reads no "epsilon", else epsilon, or default_epsilon(sample)."""
        if "epsilon" not in self.reads:
            return None
        return default_epsilon(sample) if epsilon is None else epsilon


PIPELINES = {
    "closed": Pipeline(
        solve=lambda s, queries, vector, lam: (
            solve_closed_vector(s.cloud, queries, lam) if vector
            else solve_closed_scalar(s, queries, lam)),
        reads=frozenset({"queries", "vector"}),
        query_count=lambda s, vector: (s.dim if vector else 2) * len(s)),
    "collar": Pipeline(
        solve=lambda s, queries, vector, lam: solve_collar(s, queries, lam).solution,
        reads=frozenset({"queries", "epsilon"}),
        # one row per front point: thin-shell rows beyond that mostly add
        # near-field noise rather than information
        query_count=lambda s, vector: len(s),
        build=lambda s, eps, q_directions: CollarSample(s, eps),
        weighted=lambda collar: collar.boundary,
        tag=lambda collar: f"collar eps={collar.epsilon:.17g}",
        # tau holds the front face's weights, then the back face's
        total=lambda f, tau, collar: integrate_with_boundary(f, *np.split(tau, 2))),
    "tube": Pipeline(
        solve=lambda tube, queries, vector, lam: solve_tube(tube, queries, lam),
        reads=frozenset({"queries", "epsilon", "q_directions"}),
        query_count=lambda s, vector: 2 * len(s),
        read=textio.read_framed, write=textio.write_framed,
        build=_tube, weighted=lambda tube: tube.boundary,
        total=lambda f, tau, tube: integrate_codim(f, tau, tube.directions),
        tag=lambda tube: (f"tube r={tube.directions.codim} q={tube.directions.count} "
                          f"eps={tube.directions.epsilon:.17g}")),
    # the cap angle of its queries is the sample's; it reads no query file
    "s2-cap": Pipeline(
        solve=lambda s, qs, vector, lam: solve_manifold_boundary(s, SphereModel(), *qs, lam),
        reads=frozenset(), query_count=lambda s, vector: 50, read=_read_cap,
        write=lambda path, s: textio.write_oriented(path, s, extra="manifold=s2"),
        queries=_cap_queries, tag=lambda built: "manifold=s2",
        field=lambda dim: SphereModel().field),
}
