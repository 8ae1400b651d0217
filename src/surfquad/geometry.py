"""Point samples, normals and normal frames, plus synthetic test surfaces.

All sample containers are immutable numpy-backed dataclasses. Generators are
pure functions of their arguments: a fixed seed gives bitwise-identical
output, which keeps every downstream tolerance reproducible. Each fixture
spec carries its closed-form integrals and the rule that draws queries
inside its solid, which ``interior_queries`` runs.
"""

from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from .kernel import unit_sphere_measure

UNIT_NORMAL_TOL = 1e-12
FRAME_ORTHO_TOL = 1e-10

_GOLDEN_ANGLE = np.pi * (3.0 - np.sqrt(5.0))


def require_within(defect, tol: float, message: str) -> None:
    """Raise ValueError(message.format(worst=max defect)) unless max defect <= tol; NaN fails."""
    if not (worst := np.max(defect, initial=0.0)) <= tol:
        raise ValueError(message.format(worst=worst))


def _as_points(points) -> np.ndarray:
    # copy before locking writes so the caller's array is left untouched
    pts = np.array(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[None, :]
    if pts.ndim != 2:
        raise ValueError(f"expected a (count, dim) array, got shape {pts.shape}")
    return pts


@dataclass(frozen=True)
class PointCloud:
    """Ordered set of distinct points in R^n."""

    points: np.ndarray  # (N, n)

    def __post_init__(self):
        pts = _as_points(self.points)
        object.__setattr__(self, "points", pts)
        pts.setflags(write=False)
        if pts.shape[0] == 0:
            raise ValueError("point cloud must contain at least one point")
        if not np.all(np.isfinite(pts)):
            raise ValueError("point coordinates must be finite")
        # sorted by their columns, equal rows sit side by side, and == holds
        # -0.0 equal to 0.0. np.unique(axis=0) sorts rows as records and took
        # 2.2-2.5 times as long at 2000-4000 points
        rows = pts[np.lexsort(pts.T)]
        if (rows[1:] == rows[:-1]).all(axis=1).any():
            raise ValueError("point cloud contains duplicate points")

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def __len__(self) -> int:
        return self.points.shape[0]


@dataclass(frozen=True)
class _AttachedSample:
    """Per-point data attached to a cloud; points, dim and length are the cloud's."""

    cloud: PointCloud

    @property
    def points(self) -> np.ndarray:
        return self.cloud.points

    @property
    def dim(self) -> int:
        return self.cloud.dim

    def __len__(self) -> int:
        return len(self.cloud)


@dataclass(frozen=True)
class OrientedSample(_AttachedSample):
    """Sample points on a hypersurface with unit normals, positionally paired."""

    normals: np.ndarray  # (N, n)

    def __post_init__(self):
        nrm = _as_points(self.normals)
        object.__setattr__(self, "normals", nrm)
        nrm.setflags(write=False)
        if nrm.shape != self.cloud.points.shape:
            raise ValueError("normals must match points in count and dimension")
        require_within(np.abs(np.linalg.norm(nrm, axis=1) - 1.0), UNIT_NORMAL_TOL,
                       "normals must have unit length within 1e-12")


@dataclass(frozen=True)
class FramedSample(_AttachedSample):
    """Codimension-r sample with an orthonormal normal frame at each point."""

    frames: np.ndarray  # (N, r, n)

    def __post_init__(self):
        fr = np.array(self.frames, dtype=float)
        object.__setattr__(self, "frames", fr)
        fr.setflags(write=False)
        if fr.ndim != 3 or fr.shape[0] != len(self.cloud) or fr.shape[2] != self.cloud.dim:
            raise ValueError("frames must have shape (count, codim, dim)")
        r = fr.shape[1]
        if not 1 <= r < self.cloud.dim:
            raise ValueError("codimension must satisfy 1 <= r < ambient dimension")
        require_within(np.abs(np.einsum("jan,jbn->jab", fr, fr) - np.eye(r)), FRAME_ORTHO_TOL,
                       "normal frames must be orthonormal within 1e-10")

    @property
    def codim(self) -> int:
        return self.frames.shape[1]


@dataclass(frozen=True)
class SurfaceSpec:
    """Synthetic test surface with analytic reference values and its query rule.

    ``analytic_integrals`` maps integrand names (see INTEGRANDS) to exact
    values of the integral over the surface; its ``const1`` entry is the
    area. ``draw(rng, count, margin, epsilon)`` returns ``count`` points
    inside the fixture's solid (see ``interior_queries``); it is None where
    the fixture has no such rule.
    """

    analytic_integrals: dict
    draw: Callable | None = None

    def __post_init__(self):
        if not 0.0 < self.analytic_area < np.inf:
            raise ValueError(f"analytic_area must be positive and finite, not {self.analytic_area}")

    @property
    def analytic_area(self) -> float:
        return self.analytic_integrals["const1"]


# --- named integrands: products of coordinate columns, x, y, z = 0, 1, 2 ---------

INTEGRANDS = {"const1": (), "x": (0,), "y": (1,), "z": (2,), "x2": (0, 0), "y2": (1, 1),
              "z2": (2, 2), "xy": (0, 1), "xz": (0, 2), "yz": (1, 2)}


def evaluate_integrand(name: str, points: np.ndarray) -> np.ndarray:
    """The product of the coordinate columns INTEGRANDS names, at each point."""
    if name not in INTEGRANDS:
        raise ValueError(f"unknown integrand {name!r}; choose from {sorted(INTEGRANDS)}")
    return np.prod(np.asarray(points, dtype=float)[:, list(INTEGRANDS[name])], axis=1)


# --- fixture specs -----------------------------------------------------------

# every fixture is symmetric under x -> -x and under y -> -y, so these vanish on each
_ODD_MOMENTS = {"x": 0.0, "y": 0.0, "xy": 0.0, "xz": 0.0, "yz": 0.0}


def sphere_spec(n: int = 3) -> SurfaceSpec:
    """Unit sphere S^{n-1} in R^n: the ellipsoid with n unit semi-axes."""
    if n < 3:
        raise ValueError("ambient dimension must be at least 3")
    area = unit_sphere_measure(n)
    ints = {**_ODD_MOMENTS, "const1": area, "z": 0.0, "x2": area / n, "y2": area / n, "z2": area / n}
    return SurfaceSpec(ints, partial(_ellipsoid_draw, (1.0,) * n))


def _require_semi_axes(a: float, b: float, c: float) -> None:
    if not all(0.0 < x < np.inf for x in (a, b, c)):
        raise ValueError(f"semi-axes must be positive and finite, not a={a:g} b={b:g} c={c:g}")


def ellipsoid_spec(a: float, b: float, c: float) -> SurfaceSpec:
    """Axis-aligned ellipsoid x^2/a^2 + y^2/b^2 + z^2/c^2 = 1; area by DLMF 19.33.1."""
    from scipy.special import elliprg  # loaded on first use, not by import surfquad

    _require_semi_axes(a, b, c)
    area = float(4.0 * np.pi * a * b * c * elliprg(a ** -2, b ** -2, c ** -2))
    ints = {**_ODD_MOMENTS, "const1": area, "z": 0.0}  # the squares have no closed form
    return SurfaceSpec(ints, partial(_ellipsoid_draw, (a, b, c)))


def hemisphere_spec() -> SurfaceSpec:
    """Closed upper unit hemisphere {|p| = 1, z >= 0} (curved part only)."""
    ints = {**_ODD_MOMENTS, "const1": 2.0 * np.pi, "z": np.pi,
            "x2": 2.0 * np.pi / 3.0, "y2": 2.0 * np.pi / 3.0, "z2": 2.0 * np.pi / 3.0}
    return SurfaceSpec(ints, _collar_draw)


def circle_r3_spec() -> SurfaceSpec:
    """Unit circle in the plane z = 0 of R^3 (a codimension-2 submanifold)."""
    ints = {**_ODD_MOMENTS, "const1": 2.0 * np.pi, "z": 0.0, "x2": np.pi, "y2": np.pi, "z2": 0.0}
    return SurfaceSpec(ints, _tube_draw)


def s2_cap_spec(alpha: float) -> SurfaceSpec:
    """Boundary circle of the polar cap {colatitude < alpha} on the unit sphere.

    The 'area' of this fixture is the boundary length 2*pi*sin(alpha);
    that circle is the integration domain of the Riemannian pipeline.
    """
    if not 0.0 < alpha < np.pi:
        raise ValueError("cap angle must lie in (0, pi)")
    rho = np.sin(alpha)
    length = 2.0 * np.pi * rho
    ints = {**_ODD_MOMENTS, "const1": length, "z": np.cos(alpha) * length,
            "x2": np.pi * rho ** 3, "y2": np.pi * rho ** 3, "z2": np.cos(alpha) ** 2 * length}
    return SurfaceSpec(ints)


# --- generators --------------------------------------------------------------

def _on_unit_sphere(z: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Points of the unit sphere S^2 at heights z and azimuths phi."""
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    return np.column_stack([r * np.cos(phi), r * np.sin(phi), z])


def _golden_spiral(count: int, height: Callable) -> OrientedSample:
    """Point i at z = height(i) on S^2, turned by i golden angles; normals equal the points."""
    if count < 1:
        raise ValueError("count must be at least 1")
    i = np.arange(count, dtype=float)
    pts = _on_unit_sphere(height(i), _GOLDEN_ANGLE * i)
    return OrientedSample(PointCloud(pts), pts.copy())


def gen_fibonacci_sphere(count: int) -> OrientedSample:
    """Fibonacci lattice on the unit sphere S^2; normals equal the points."""
    return _golden_spiral(count, lambda i: 1.0 - (2.0 * i + 1.0) / count)


def gen_sphere_nd(count: int, n: int, seed: int) -> OrientedSample:
    """Uniform points on S^{n-1} from normalized seeded Gaussian draws."""
    if n < 3:
        raise ValueError("ambient dimension must be at least 3")
    if count < 1:
        raise ValueError("count must be at least 1")
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((count, n))
    pts = raw / np.linalg.norm(raw, axis=1, keepdims=True)
    return OrientedSample(PointCloud(pts), pts.copy())


def gen_ellipsoid(a: float, b: float, c: float, count: int, seed: int) -> OrientedSample:
    """Seeded sample of the ellipsoid surface with exact gradient normals."""
    _require_semi_axes(a, b, c)
    sphere = gen_sphere_nd(count, 3, seed)
    pts = sphere.points * np.array([a, b, c])
    grad = pts / np.array([a * a, b * b, c * c])
    normals = grad / np.linalg.norm(grad, axis=1, keepdims=True)
    return OrientedSample(PointCloud(pts), normals)


def gen_hemisphere(count: int) -> OrientedSample:
    """Fibonacci-style sample of the closed upper unit hemisphere {z >= 0}.

    z runs over i/count so the boundary circle z = 0 carries a sample point;
    uniform z gives uniform density per solid angle. Normals are the points
    themselves (outward for the sphere the hemisphere sits on).
    """
    return _golden_spiral(count, lambda i: i / count)


def gen_circle_r3(count: int) -> FramedSample:
    """Unit circle in z = 0 with frame N1 = radial, N2 = z-axis (codim 2)."""
    if count < 3:
        raise ValueError("count must be at least 3")
    theta = 2.0 * np.pi * np.arange(count) / count
    ct, st = np.cos(theta), np.sin(theta)
    zeros = np.zeros(count)
    pts = np.column_stack([ct, st, zeros])
    n1 = np.column_stack([ct, st, zeros])
    n2 = np.column_stack([zeros, zeros, np.ones(count)])
    frames = np.stack([n1, n2], axis=1)
    return FramedSample(PointCloud(pts), frames)


def nearest_gaps(points: np.ndarray) -> np.ndarray:
    """Each point's distance to its nearest other point, inf for a lone point (k-d tree)."""
    from scipy.spatial import cKDTree

    return cKDTree(points).query(points, k=2)[0][:, 1]


def median_nn_spacing(cloud: PointCloud) -> float:
    """Median nearest-neighbor distance h of a cloud; sets collar/tube defaults."""
    if len(cloud) < 2:
        raise ValueError("spacing needs at least two points")
    return float(np.median(nearest_gaps(cloud.points)))


# --- interior query generation ----------------------------------------------

def _uniform_ball(rng: np.random.Generator, count: int, n: int) -> np.ndarray:
    dirs = rng.standard_normal((count, n))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    radii = rng.random(count) ** (1.0 / n)
    return dirs * radii[:, None]


def _ellipsoid_draw(radii: tuple, rng, count, margin, epsilon) -> np.ndarray:
    """The solid ellipsoid with semi-axes ``radii`` in R^len(radii), ``margin`` inside."""
    c_min = min(radii)
    m = 0.5 * c_min if margin is None else margin
    if not 0.0 < m < c_min:
        raise ValueError("margin must lie in (0, min semi-axis)")
    # points with sqrt(F(p)) <= s sit at distance >= (1-s)*c_min from the surface
    s = 1.0 - m / c_min
    return _uniform_ball(rng, count, len(radii)) * (s * np.array(radii))


def _collar_draw(rng, count, margin, epsilon) -> np.ndarray:
    """The collar solid of thickness ``epsilon`` over the upper unit hemisphere."""
    if epsilon is None:
        raise ValueError("hemisphere fixture has no interior without a collar epsilon")
    m = epsilon / 4.0 if margin is None else margin
    if not 0.0 < m < epsilon / 2.0:
        raise ValueError("margin must lie in (0, epsilon/2)")
    # stay m away from the front/back faces and from the equatorial strip
    t = rng.uniform(m, epsilon - m, count)
    z = rng.uniform(np.sin(m), 1.0, count)  # area-uniform on the band z >= sin(m)
    base = _on_unit_sphere(z, rng.uniform(0.0, 2.0 * np.pi, count))
    return base * (1.0 + t)[:, None]


def _tube_draw(rng, count, margin, epsilon) -> np.ndarray:
    """The tube solid of radius ``epsilon`` around the unit circle in z = 0."""
    if epsilon is None:
        raise ValueError("circle fixture has no interior without a tube epsilon")
    m = epsilon / 2.0 if margin is None else margin
    if not 0.0 < m < epsilon:
        raise ValueError("margin must lie in (0, epsilon)")
    theta = rng.uniform(0.0, 2.0 * np.pi, count)
    phi = rng.uniform(0.0, 2.0 * np.pi, count)
    rho = (epsilon - m) * np.sqrt(rng.random(count))
    ring = (1.0 + rho * np.cos(phi))
    return np.column_stack([ring * np.cos(theta), ring * np.sin(theta), rho * np.sin(phi)])


def interior_queries(spec: SurfaceSpec, count: int, seed: int,
                     margin: float | None = None,
                     epsilon: float | None = None) -> PointCloud:
    """Seeded points strictly inside the solid region a fixture describes.

    The spec's ``draw`` rule picks the region. For sphere/ellipsoid it is the
    enclosed volume. For hemisphere and circle_r3 it is the collar (resp.
    tube) solid of thickness ``epsilon``, which must be supplied. The default
    margin is half the region's inradius. Caps on S^2 have no rule here; they
    draw their queries with ``riemannian.cap_query_points``.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    if spec.draw is None:
        raise ValueError("no interior-query rule for this fixture")
    if epsilon is not None and not 0.0 < epsilon < np.inf:
        raise ValueError(f"epsilon must be positive and finite, not {epsilon}")
    return PointCloud(spec.draw(np.random.default_rng(seed), count, margin, epsilon))
