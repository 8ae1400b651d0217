"""Meshless integration on point-sampled submanifolds.

Recovers per-point surface elements by solving discrete double-layer
indicator systems, then integrates functions over closed hypersurfaces,
hypersurfaces with boundary (collars), codimension-r submanifolds (tubes)
in R^n, and boundaries of domains on the round sphere.
"""

from .collar import CollarConfig, CollarSample, build_collar, integrate_with_boundary
from .errors import (ClampedMassWarning, DegeneratePairError, IllPosedSystemError,
                     SelfIntersectionError, SingularEvaluationError, SurfquadError)
from .geometry import (FramedSample, OrientedSample, PointCloud, SurfaceKind,
                       SurfaceSpec, circle_r3_spec, ellipsoid_spec, gen_circle_r3,
                       gen_ellipsoid, gen_fibonacci_sphere, gen_hemisphere,
                       gen_sphere_nd, hemisphere_spec, interior_queries,
                       median_nn_spacing, s2_cap_spec, sphere_spec)
from .kernel import (KernelConfig, double_layer_row, fundamental_solution,
                     unit_sphere_measure)
from .pipelines import (CollarSolution, solve_closed_scalar, solve_closed_vector,
                        solve_collar, solve_manifold_boundary, solve_tube)
from .riemannian import (ManifoldBoundarySample, SphereModel, assemble_riemann_system,
                         cap_boundary_sample, continuous_cap_indicator, s2_green_gradient)
from .solver import (IndicatorSystem, NegativeWeightPolicy, SolverConfig,
                     SystemLayout, WeightSolution, assemble_scalar_system,
                     assemble_vector_system, double_layer, indicator_values,
                     integrate_function, solve_weights)
from .tube import (SphereDirections, TubeSample, build_tube, integrate_codim,
                   sample_normal_sphere, tube_sphere_measure)

__version__ = "0.1.0"
