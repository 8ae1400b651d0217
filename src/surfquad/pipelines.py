"""End-to-end weight recovery for each supported construction.

These helpers wire fixture samples, query clouds, kernel assembly and the
Tikhonov solve together the same way the command-line front end does, so
library users and tests run one call instead of four.
"""

from dataclasses import dataclass

import numpy as np

from .collar import CollarSample
from .geometry import OrientedSample, PointCloud
from .kernel import KernelConfig
from .riemannian import ManifoldBoundarySample, SphereModel, assemble_riemann_system
from .solver import (NegativeWeightPolicy, SolverConfig, WeightSolution,
                     assemble_scalar_system, assemble_vector_system,
                     solve_weights)
from .tube import TubeSample


def solve_closed_scalar(sample: OrientedSample, queries: PointCloud,
                        solver_config: SolverConfig = SolverConfig()) -> WeightSolution:
    """Scalar-unknown solve for a closed oriented hypersurface."""
    system = assemble_scalar_system(queries, sample, KernelConfig(sample.dim))
    return solve_weights(system, solver_config, normals=sample.normals)


def solve_closed_vector(sample: PointCloud, queries: PointCloud,
                        solver_config: SolverConfig = SolverConfig()) -> WeightSolution:
    """Vector-unknown solve; recovers both elements and orientations."""
    system = assemble_vector_system(queries, sample, KernelConfig(sample.dim))
    return solve_weights(system, solver_config)


@dataclass(frozen=True)
class CollarSolution:
    """Weight solution over both collar faces, split for the half-sum rule."""

    solution: WeightSolution
    front_tau: np.ndarray
    back_tau: np.ndarray


def solve_collar(collar: CollarSample, queries: PointCloud,
                 solver_config: SolverConfig = SolverConfig()) -> CollarSolution:
    """Scalar solve over both collar faces against queries inside the solid.

    Assembly uses the outward orientation of the collar boundary (the stored
    collar normals point into the solid), so interior queries pair with
    rhs = 1 and positive elements.
    """
    outward = collar.outward()
    system = assemble_scalar_system(queries, outward, KernelConfig(outward.dim))
    # Near-antiparallel face pairs make the sign of a raw collar weight pure
    # orientation noise; flipping it to its magnitude (instead of clamping)
    # preserves the pair sums the half-sum rule needs.
    sol = solve_weights(system, solver_config, normals=outward.normals,
                        policy=NegativeWeightPolicy.FLIP)
    half = len(collar.front)
    return CollarSolution(solution=sol, front_tau=sol.tau[:half], back_tau=sol.tau[half:])


def solve_tube(tube: TubeSample, queries: PointCloud,
               solver_config: SolverConfig = SolverConfig()) -> WeightSolution:
    """Scalar solve over the tube boundary (slice normals are outward already)."""
    return solve_closed_scalar(tube.boundary, queries, solver_config)


def solve_manifold_boundary(sample: ManifoldBoundarySample, model: SphereModel,
                            interior_queries: PointCloud, exterior_queries: PointCloud,
                            solver_config: SolverConfig = SolverConfig()) -> WeightSolution:
    """Offset-augmented solve on a compact Riemannian manifold."""
    system = assemble_riemann_system(interior_queries, exterior_queries, sample, model)
    return solve_weights(system, solver_config, normals=sample.conormals)
