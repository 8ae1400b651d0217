"""Point samples, normals and normal frames, plus synthetic test surfaces.

All sample containers are immutable numpy-backed dataclasses. Generators are
pure functions of their arguments: a fixed seed gives bitwise-identical
output, which keeps every downstream tolerance reproducible.
"""

from dataclasses import dataclass, field
from enum import Enum

import numpy as np
from scipy import integrate
from scipy.spatial import cKDTree

from .kernel import unit_sphere_measure

UNIT_NORMAL_TOL = 1e-12
FRAME_ORTHO_TOL = 1e-10

_GOLDEN_ANGLE = np.pi * (3.0 - np.sqrt(5.0))


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
        if np.unique(pts, axis=0).shape[0] != pts.shape[0]:
            raise ValueError("point cloud contains duplicate points")

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def __len__(self) -> int:
        return self.points.shape[0]


@dataclass(frozen=True)
class OrientedSample:
    """Sample points on a hypersurface with unit normals, positionally paired."""

    cloud: PointCloud
    normals: np.ndarray  # (N, n)

    def __post_init__(self):
        nrm = _as_points(self.normals)
        object.__setattr__(self, "normals", nrm)
        nrm.setflags(write=False)
        if nrm.shape != self.cloud.points.shape:
            raise ValueError("normals must match points in count and dimension")
        lengths = np.linalg.norm(nrm, axis=1)
        if np.max(np.abs(lengths - 1.0)) > UNIT_NORMAL_TOL:
            raise ValueError("normals must have unit length within 1e-12")

    @property
    def points(self) -> np.ndarray:
        return self.cloud.points

    @property
    def dim(self) -> int:
        return self.cloud.dim

    def __len__(self) -> int:
        return len(self.cloud)

    def flipped(self) -> "OrientedSample":
        """Same points with every normal negated."""
        return OrientedSample(self.cloud, -self.normals)


@dataclass(frozen=True)
class FramedSample:
    """Codimension-r sample with an orthonormal normal frame at each point."""

    cloud: PointCloud
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
        gram = np.einsum("jan,jbn->jab", fr, fr)
        defect = np.abs(gram - np.eye(r))
        if np.max(defect) > FRAME_ORTHO_TOL:
            raise ValueError("normal frames must be orthonormal within 1e-10")

    @property
    def codim(self) -> int:
        return self.frames.shape[1]

    @property
    def points(self) -> np.ndarray:
        return self.cloud.points

    @property
    def dim(self) -> int:
        return self.cloud.dim

    def __len__(self) -> int:
        return len(self.cloud)


class SurfaceKind(Enum):
    SPHERE = "sphere"
    ELLIPSOID = "ellipsoid"
    HEMISPHERE = "hemisphere"
    CIRCLE_R3 = "circle_r3"
    S2_CAP = "s2_cap"


@dataclass(frozen=True)
class SurfaceSpec:
    """Synthetic test surface with analytic reference values.

    ``analytic_integrals`` maps integrand names (see INTEGRANDS) to exact
    values of the integral over the surface.
    """

    kind: SurfaceKind
    analytic_area: float
    radii: tuple = (1.0, 1.0, 1.0)
    analytic_integrals: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.analytic_area <= 0:
            raise ValueError("analytic_area must be positive")


# --- named integrands (coordinate polynomials up to degree 2) ---------------

def _coord(k):
    return lambda pts: pts[:, k]


def _coord2(k):
    return lambda pts: pts[:, k] ** 2


def _coord_prod(j, k):
    return lambda pts: pts[:, j] * pts[:, k]


INTEGRANDS = {
    "const1": lambda pts: np.ones(pts.shape[0]),
    "x": _coord(0),
    "y": _coord(1),
    "z": _coord(2),
    "x2": _coord2(0),
    "y2": _coord2(1),
    "z2": _coord2(2),
    "xy": _coord_prod(0, 1),
    "xz": _coord_prod(0, 2),
    "yz": _coord_prod(1, 2),
}


def evaluate_integrand(name: str, points: np.ndarray) -> np.ndarray:
    try:
        fn = INTEGRANDS[name]
    except KeyError:
        raise ValueError(f"unknown integrand {name!r}; choose from {sorted(INTEGRANDS)}") from None
    return fn(np.asarray(points, dtype=float))


# --- fixture specs -----------------------------------------------------------

def sphere_spec(n: int = 3) -> SurfaceSpec:
    """Unit sphere S^{n-1} in R^n; its radii carry the ambient dimension."""
    if n < 3:
        raise ValueError("ambient dimension must be at least 3")
    area = unit_sphere_measure(n)
    ints = {"const1": area, "x": 0.0, "y": 0.0, "z": 0.0,
            "x2": area / n, "y2": area / n, "z2": area / n,
            "xy": 0.0, "xz": 0.0, "yz": 0.0}
    return SurfaceSpec(SurfaceKind.SPHERE, area, radii=(1.0,) * n, analytic_integrals=ints)


def _ellipsoid_area(a: float, b: float, c: float) -> float:
    # Adaptive quadrature of the parametric surface element; exact enough
    # for reference use (abs tol ~1e-9) without special-casing degeneracies.
    def element(theta, phi):
        st, ct = np.sin(theta), np.cos(theta)
        sp, cp = np.sin(phi), np.cos(phi)
        return st * np.sqrt((b * c * st * cp) ** 2 + (a * c * st * sp) ** 2 + (a * b * ct) ** 2)

    val, _ = integrate.dblquad(element, 0.0, 2.0 * np.pi, 0.0, np.pi, epsabs=1e-10, epsrel=1e-10)
    return val


def ellipsoid_spec(a: float, b: float, c: float) -> SurfaceSpec:
    """Axis-aligned ellipsoid x^2/a^2 + y^2/b^2 + z^2/c^2 = 1."""
    if min(a, b, c) <= 0:
        raise ValueError("semi-axes must be positive")
    area = _ellipsoid_area(a, b, c)
    ints = {"const1": area, "x": 0.0, "y": 0.0, "z": 0.0, "xy": 0.0, "xz": 0.0, "yz": 0.0}
    return SurfaceSpec(SurfaceKind.ELLIPSOID, area, radii=(a, b, c), analytic_integrals=ints)


def hemisphere_spec() -> SurfaceSpec:
    """Closed upper unit hemisphere {|p| = 1, z >= 0} (curved part only)."""
    area = 2.0 * np.pi
    ints = {"const1": area, "x": 0.0, "y": 0.0, "z": np.pi,
            "x2": 2.0 * np.pi / 3.0, "y2": 2.0 * np.pi / 3.0, "z2": 2.0 * np.pi / 3.0,
            "xy": 0.0, "xz": 0.0, "yz": 0.0}
    return SurfaceSpec(SurfaceKind.HEMISPHERE, area, analytic_integrals=ints)


def circle_r3_spec() -> SurfaceSpec:
    """Unit circle in the plane z = 0 of R^3 (a codimension-2 submanifold)."""
    length = 2.0 * np.pi
    ints = {"const1": length, "x": 0.0, "y": 0.0, "z": 0.0,
            "x2": np.pi, "y2": np.pi, "z2": 0.0, "xy": 0.0, "xz": 0.0, "yz": 0.0}
    return SurfaceSpec(SurfaceKind.CIRCLE_R3, length, analytic_integrals=ints)


def s2_cap_spec(alpha: float) -> SurfaceSpec:
    """Boundary circle of the polar cap {colatitude < alpha} on the unit sphere.

    The 'area' of this fixture is the boundary length 2*pi*sin(alpha);
    that circle is the integration domain of the Riemannian pipeline.
    """
    if not 0.0 < alpha < np.pi:
        raise ValueError("cap angle must lie in (0, pi)")
    rho = np.sin(alpha)
    length = 2.0 * np.pi * rho
    ints = {"const1": length, "x": 0.0, "y": 0.0, "z": np.cos(alpha) * length,
            "x2": np.pi * rho ** 3, "y2": np.pi * rho ** 3, "z2": np.cos(alpha) ** 2 * length,
            "xy": 0.0, "xz": 0.0, "yz": 0.0}
    return SurfaceSpec(SurfaceKind.S2_CAP, length, analytic_integrals=ints)


# --- generators --------------------------------------------------------------

def gen_fibonacci_sphere(count: int) -> OrientedSample:
    """Fibonacci lattice on the unit sphere S^2; normals equal the points."""
    if count < 1:
        raise ValueError("count must be at least 1")
    i = np.arange(count, dtype=float)
    z = 1.0 - (2.0 * i + 1.0) / count
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    phi = _GOLDEN_ANGLE * i
    pts = np.column_stack([r * np.cos(phi), r * np.sin(phi), z])
    return OrientedSample(PointCloud(pts), pts.copy())


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
    if min(a, b, c) <= 0:
        raise ValueError("semi-axes must be positive")
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
    if count < 1:
        raise ValueError("count must be at least 1")
    i = np.arange(count, dtype=float)
    z = i / count
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    phi = _GOLDEN_ANGLE * i
    pts = np.column_stack([r * np.cos(phi), r * np.sin(phi), z])
    return OrientedSample(PointCloud(pts), pts.copy())


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


def median_nn_spacing(cloud: PointCloud) -> float:
    """Median nearest-neighbor distance h of a cloud; sets collar/tube defaults."""
    pts = cloud.points
    if len(cloud) < 2:
        raise ValueError("spacing needs at least two points")
    dists, _ = cKDTree(pts).query(pts, k=2)
    return float(np.median(dists[:, 1]))


# --- interior query generation ----------------------------------------------

def _uniform_ball(rng: np.random.Generator, count: int, n: int) -> np.ndarray:
    dirs = rng.standard_normal((count, n))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    radii = rng.random(count) ** (1.0 / n)
    return dirs * radii[:, None]


def _uniform_cap_points(rng: np.random.Generator, count: int, z_lo: float, z_hi: float) -> np.ndarray:
    """Area-uniform points on the unit-sphere band z in [z_lo, z_hi]."""
    z = rng.uniform(z_lo, z_hi, count)
    phi = rng.uniform(0.0, 2.0 * np.pi, count)
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    return np.column_stack([r * np.cos(phi), r * np.sin(phi), z])


def interior_queries(spec: SurfaceSpec, count: int, seed: int,
                     margin: float | None = None,
                     epsilon: float | None = None) -> PointCloud:
    """Seeded points strictly inside the solid region a fixture describes.

    For sphere/ellipsoid the region is the enclosed volume. For hemisphere
    and circle_r3 the region is the collar (resp. tube) solid of thickness
    ``epsilon``, which must be supplied. The default margin is half the
    region's inradius. Caps on S^2 draw their queries with
    ``riemannian.cap_query_points``.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    rng = np.random.default_rng(seed)

    if spec.kind is SurfaceKind.SPHERE:
        m = 0.5 if margin is None else margin
        if not 0.0 < m < 1.0:
            raise ValueError("margin must lie in (0, 1) for the unit sphere")
        return PointCloud(_uniform_ball(rng, count, len(spec.radii)) * (1.0 - m))

    if spec.kind is SurfaceKind.ELLIPSOID:
        a, b, c = spec.radii
        c_min = min(a, b, c)
        m = 0.5 * c_min if margin is None else margin
        if not 0.0 < m < c_min:
            raise ValueError("margin must lie in (0, min semi-axis)")
        # points with sqrt(F(p)) <= s sit at Euclidean distance >= (1-s)*c_min
        # from the surface
        s = 1.0 - m / c_min
        return PointCloud(_uniform_ball(rng, count, 3) * (s * np.array([a, b, c])))

    if spec.kind is SurfaceKind.HEMISPHERE:
        if epsilon is None:
            raise ValueError("hemisphere fixture has no interior without a collar epsilon")
        m = epsilon / 4.0 if margin is None else margin
        if not 0.0 < m < epsilon / 2.0:
            raise ValueError("margin must lie in (0, epsilon/2)")
        # stay m away from the front/back faces and from the equatorial strip
        t = rng.uniform(m, epsilon - m, count)
        base = _uniform_cap_points(rng, count, np.sin(m), 1.0)
        return PointCloud(base * (1.0 + t)[:, None])

    if spec.kind is SurfaceKind.CIRCLE_R3:
        if epsilon is None:
            raise ValueError("circle fixture has no interior without a tube epsilon")
        m = epsilon / 2.0 if margin is None else margin
        if not 0.0 < m < epsilon:
            raise ValueError("margin must lie in (0, epsilon)")
        theta = rng.uniform(0.0, 2.0 * np.pi, count)
        phi = rng.uniform(0.0, 2.0 * np.pi, count)
        rho = (epsilon - m) * np.sqrt(rng.random(count))
        ring = (1.0 + rho * np.cos(phi))
        pts = np.column_stack([ring * np.cos(theta), ring * np.sin(theta), rho * np.sin(phi)])
        return PointCloud(pts)

    raise ValueError(f"no interior-query rule for fixture kind {spec.kind}")
