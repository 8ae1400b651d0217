"""Indicator-based integration on boundaries of domains in the round sphere.

The Euclidean machinery carries over once the kernel row is replaced by the
pairing of the manifold Green-function gradient with the boundary conormal.
On the unit sphere the closed-form radial profile G(theta) =
-(1/(2 pi)) ln(2 sin(theta/2)) supplies that gradient directly; its
magnitude is (1/(4 pi)) cot(theta/2). Because the manifold is compact, the
double-layer field recovers the indicator only up to the constant
vol(domain)/vol(M); the assembled system carries a trailing offset column
that absorbs it, with rhs 1 on interior queries and 0 on exterior ones.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DegeneratePairError
from .geometry import PointCloud, _uniform_cap_points
from .solver import IndicatorSystem, SystemLayout, double_layer

TANGENT_TOL = 1e-10
_PAIR_TOL = 1e-14


def _require_on_sphere(points: np.ndarray, what: str) -> None:
    defect = np.abs(np.linalg.norm(points, axis=-1) - 1.0)
    if np.any(defect > TANGENT_TOL):
        raise ValueError(f"{what} off the unit sphere: ||x| - 1| reaches "
                         f"{np.max(defect):.3g} > {TANGENT_TOL:g}")


def s2_green_gradient(p, q) -> np.ndarray:
    """Green-function gradient at q on the unit sphere, embedded in R^3.

    Returns -(1/(4 pi)) cot(theta/2) * t_hat with theta the geodesic angle
    and t_hat the unit tangent at q pointing away from p along their great
    circle. p holds source (query) points, shape (..., 3); q holds one field
    (sample) point, shape (3,), or rows of them, shape (..., N, 3). Leading
    axes broadcast as in a matrix-vector product, giving shape (..., N, 3) or
    (..., 3). Undefined (raises) for coincident or antipodal pairs, and for
    points off the unit sphere.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if q.ndim == 1:
        return s2_green_gradient(p, q[None, :])[..., 0, :]
    _require_on_sphere(p, "query point")
    _require_on_sphere(q, "sample point")
    # cosines, shape (..., N, 1): one matrix-vector product q @ p per source
    # point, so a chunk of sources rounds exactly as one source at a time does
    c = np.matmul(q, p[..., :, None])
    if np.any(c >= 1.0 - _PAIR_TOL):
        raise DegeneratePairError("green gradient undefined at coincident points")
    if np.any(c <= -1.0 + _PAIR_TOL):
        raise DegeneratePairError("green gradient undefined at antipodal points")
    theta = np.arccos(np.clip(c, -1.0, 1.0))
    away = c * q - p[..., None, :]
    away /= np.linalg.norm(away, axis=-1, keepdims=True)
    return (-1.0 / (4.0 * np.pi)) / np.tan(theta / 2.0) * away


class SphereModel:
    """Round unit sphere S^2 embedded in R^3; supplies its double-layer field."""

    def field(self, queries: np.ndarray, points: np.ndarray, vectors: np.ndarray) -> np.ndarray:
        """Rows -g(grad G(p_i, q_j), v_j) over query points p_i, shape (N_P, N_Q).

        The rows contract the block with einsum; a cap-system solver test pins that rounding.
        """
        return np.einsum("ijk,jk->ij", -s2_green_gradient(queries, points), vectors)


@dataclass(frozen=True)
class ManifoldBoundarySample:
    """Boundary points q_j with outward unit conormals tangent to the manifold."""

    cloud: PointCloud
    conormals: np.ndarray  # (N, 3)

    def __post_init__(self):
        con = np.array(self.conormals, dtype=float)
        object.__setattr__(self, "conormals", con)
        con.setflags(write=False)
        if con.shape != self.cloud.points.shape:
            raise ValueError("conormals must match points in count and dimension")
        lengths = np.linalg.norm(con, axis=1)
        if np.max(np.abs(lengths - 1.0)) > TANGENT_TOL:
            raise ValueError("conormals must be unit vectors")
        _require_on_sphere(self.cloud.points, "boundary point")
        radial = np.abs(np.einsum("jk,jk->j", con, self.cloud.points))
        if np.max(radial) > TANGENT_TOL:
            raise ValueError("conormals must be tangent to the sphere at their points")

    @property
    def points(self) -> np.ndarray:
        return self.cloud.points

    def __len__(self) -> int:
        return len(self.cloud)


def cap_boundary_sample(alpha: float, count: int) -> ManifoldBoundarySample:
    """Equally spaced points on the colatitude-alpha circle, conormals away from the cap."""
    if not 0.0 < alpha < np.pi:
        raise ValueError("cap angle must lie in (0, pi)")
    if count < 1:
        raise ValueError("count must be at least 1")
    phi = 2.0 * np.pi * np.arange(count) / count
    sa, ca = np.sin(alpha), np.cos(alpha)
    pts = np.column_stack([sa * np.cos(phi), sa * np.sin(phi), np.full(count, ca)])
    conormals = np.column_stack([ca * np.cos(phi), ca * np.sin(phi), np.full(count, -sa)])
    return ManifoldBoundarySample(PointCloud(pts), conormals)


def cap_query_points(alpha: float, count: int, seed: int, side: str = "interior",
                     margin: float | None = None) -> PointCloud:
    """Seeded on-sphere queries inside (or outside) the polar cap.

    The colatitude threshold keeps a geodesic margin (default 0.2 * alpha)
    from the boundary circle on the requested side.
    """
    if not 0.0 < alpha < np.pi:
        raise ValueError("cap angle must lie in (0, pi)")
    if count < 1:
        raise ValueError("count must be at least 1")
    m = 0.2 * alpha if margin is None else margin
    rng = np.random.default_rng(seed)
    if side == "interior":
        if m >= alpha:
            raise ValueError("margin leaves no interior")
        z_lo, z_hi = np.cos(alpha - m), 1.0
    elif side == "exterior":
        if alpha + m >= np.pi:
            raise ValueError("margin leaves no exterior")
        z_lo, z_hi = -1.0, np.cos(alpha + m)
    else:
        raise ValueError("side must be 'interior' or 'exterior'")
    return PointCloud(_uniform_cap_points(rng, count, z_lo, z_hi))


def continuous_cap_indicator(p, alpha: float, quadrature_count: int) -> float:
    """Trapezoid evaluation of -contour integral of g(grad G(p, .), N) over the cap boundary.

    The integrand is 2 pi periodic in azimuth, so the uniform rule converges
    spectrally in quadrature_count.
    """
    if not 0.0 < alpha < np.pi:
        raise ValueError("cap angle must lie in (0, pi)")
    if quadrature_count < 1:
        raise ValueError("quadrature_count must be positive")
    nodes = cap_boundary_sample(alpha, quadrature_count)
    p = np.asarray(p, dtype=float).reshape(1, 3)
    row = double_layer(SphereModel().field, p, nodes.points, nodes.conormals)[0]
    circumference = 2.0 * np.pi * np.sin(alpha)
    return float(np.mean(row) * circumference)


def assemble_riemann_system(interior_queries: PointCloud, exterior_queries: PointCloud,
                            sample: ManifoldBoundarySample,
                            model: SphereModel) -> IndicatorSystem:
    """Offset-augmented scalar system: rows -g(grad G(p_i, q_j), N(q_j)) | 1.

    rhs is 1 for interior queries, 0 for exterior ones; the trailing unknown
    absorbs the compact-manifold constant. Both query classes are required,
    otherwise the offset column and the weights are confounded.
    """
    if len(interior_queries) < 1 or len(exterior_queries) < 1:
        raise ValueError("need at least one interior and one exterior query")
    queries = np.vstack([interior_queries.points, exterior_queries.points])
    A = double_layer(model.field, queries, sample.points, sample.conormals)
    A = np.hstack([A, np.ones((A.shape[0], 1))])
    rhs = np.concatenate([np.ones(len(interior_queries)), np.zeros(len(exterior_queries))])
    return IndicatorSystem(A, rhs, SystemLayout.OFFSET_AUGMENTED, len(sample))
