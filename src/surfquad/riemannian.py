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

import numpy as np

from .errors import DegeneratePairError
from .geometry import OrientedSample, PointCloud, _on_unit_sphere, require_within
from .solver import IndicatorSystem, double_layer

TANGENT_TOL = 1e-10
_PAIR_TOL = 1e-14


def _require_on_sphere(points: np.ndarray, what: str) -> None:
    require_within(np.abs(np.linalg.norm(points, axis=-1) - 1.0), TANGENT_TOL,
                   what + " off the unit sphere: ||x| - 1| reaches {worst:.3g} > 1e-10")


def s2_green_gradient(p, q) -> np.ndarray:
    """Green-function gradient at q on the unit sphere, embedded in R^3.

    Returns -(1/(4 pi)) cot(theta/2) * t_hat with theta the geodesic angle
    and t_hat the unit tangent at q pointing away from p along their great
    circle. p holds source (query) points, shape (..., 3); q holds one field
    (sample) point, shape (3,), or rows of them, shape (..., N, 3). Leading
    axes broadcast as in a matrix-vector product, giving shape (..., N, 3) or
    (..., 3). Undefined (raises) for coincident or antipodal pairs, and for
    points off the unit sphere. SphereModel.field does not call it: it is
    the direct form that tests check the field against.
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

    def field(self, points: np.ndarray, vectors: np.ndarray):
        """Bind a sample q_j with vectors v_j and return rows(queries, work).

        The binding runs once per double_layer call: it checks that the
        sample has 3 coordinates and lies on the unit sphere, and takes
        q_j.v_j and contiguous (3, N) planes of q and v. rows writes the rows
        -g(grad G(p_i, q_j), v_j), shape (N_P, N_Q), into work[-1] and returns
        them. With c = p.q, cot(theta/2) = (1 + c) / sin(theta), t_hat.v =
        (c q.v - p.v) / sin(theta) and sin^2(theta) = 1 - c c, each entry is
        (1 + c) (c (q_j.v_j) - p_i.v_j) / (4 pi (1 - c c)), the contraction
        of s2_green_gradient without its (N_P, N_Q, 3) block. work[:3] are
        three (N_P, N_Q) scratch arrays: c, p.v then the denominator, and the
        numerator. c and p.v are summed one coordinate at a time, not by a
        matrix product, so a row does not depend on its chunk and relabeling
        the samples permutes the rows bit for bit. A cap-system solver test
        pins this rounding.
        """
        if vectors is None:
            raise ValueError("S^2 rows need one vector per sample point")
        Q, V = np.asarray(points, dtype=float), np.asarray(vectors, dtype=float)
        if Q.shape[-1] != 3:
            raise ValueError(f"S^2 points need 3 coordinates, not {Q.shape[-1]} (sample)")
        _require_on_sphere(Q, "sample point")
        qv = np.einsum("jk,jk->j", Q, V)
        Q, V = np.ascontiguousarray(Q.T), np.ascontiguousarray(V.T)

        def rows(P: np.ndarray, work) -> np.ndarray:
            _require_on_sphere(P, "query point")
            c, pv, num, out = work[0], work[1], work[2], work[-1]
            np.multiply(P[:, 0, None], Q[0], out=c)
            for k in (1, 2):
                c += np.multiply(P[:, k, None], Q[k], out=num)
            if c.max() >= 1.0 - _PAIR_TOL:
                raise DegeneratePairError("green gradient undefined at coincident points")
            if c.min() <= -1.0 + _PAIR_TOL:
                raise DegeneratePairError("green gradient undefined at antipodal points")
            np.multiply(P[:, 0, None], V[0], out=pv)
            for k in (1, 2):
                pv += np.multiply(P[:, k, None], V[k], out=num)
            np.multiply(c, qv, out=num)
            num -= pv
            den = np.multiply(c, c, out=pv)
            np.subtract(1.0, den, out=den)
            den *= 4.0 * np.pi
            np.add(1.0, c, out=out)
            out *= num
            out /= den
            return out

        return rows


class ManifoldBoundarySample(OrientedSample):
    """Boundary points q_j with outward unit conormals, stored as the normals.

    Adds to OrientedSample's checks: the points have 3 coordinates and lie on
    the unit sphere, and the conormals are tangent to it there, both within
    TANGENT_TOL.
    """

    def __post_init__(self):
        super().__post_init__()
        if self.dim != 3:
            raise ValueError(f"S^2 boundary points need 3 coordinates, not {self.dim}")
        _require_on_sphere(self.points, "boundary point")
        require_within(np.abs(np.einsum("jk,jk->j", self.normals, self.points)), TANGENT_TOL,
                       "conormals must be tangent to the sphere at their points")

    @property
    def conormals(self) -> np.ndarray:
        return self.normals


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


def cap_angle(sample: ManifoldBoundarySample) -> float:
    """The colatitude every boundary point shares: the angle of the polar cap they bound."""
    colatitude = np.arccos(np.clip(sample.points[:, 2], -1.0, 1.0))
    spread = float(np.ptp(colatitude))
    if spread > TANGENT_TOL:
        raise ValueError(f"sample points share no colatitude (they spread over {spread:.3g} "
                         f"rad), so they bound no polar cap")
    return float(colatitude[0])


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
    if not m > 0.0:
        raise ValueError(f"margin must be positive, not {m}")
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
    z = rng.uniform(z_lo, z_hi, count)  # area-uniform on the band z_lo <= z <= z_hi
    return PointCloud(_on_unit_sphere(z, rng.uniform(0.0, 2.0 * np.pi, count)))


def continuous_cap_indicator(p, alpha: float, quadrature_count: int) -> float:
    """Trapezoid evaluation of -contour integral of g(grad G(p, .), N) over the cap boundary.

    The integrand is 2 pi periodic in azimuth, so the uniform rule converges
    spectrally in quadrature_count.
    """
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
    queries = np.vstack([interior_queries.points, exterior_queries.points])
    A = double_layer(model.field, queries, sample.points, sample.conormals)
    A = np.hstack([A, np.ones((A.shape[0], 1))])
    rhs = np.concatenate([np.ones(len(interior_queries)), np.zeros(len(exterior_queries))])
    return IndicatorSystem(A, rhs, sample)
