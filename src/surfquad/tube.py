"""Tubular-neighborhood boundary sampling for codimension-r submanifolds.

Each base point fans out into q points on the radius-eps sphere of its
normal space; the union samples the tube boundary, a closed hypersurface.
The slice normals are the direction vectors scaled to unit length. Integrals
over the base manifold come back through the 1/s_r normalization, where s_r
is the measure of the r-dimensional direction sphere.

Base manifolds are assumed closed: the construction samples only the slice
spheres, never end caps over a base boundary.

Resolution: the queries must sit farther from the boundary sample than its
spacing, along the base and across the slices alike. Queries within eps/2 of
the core sit at least eps/2 from the tube boundary, so eps must be about
twice the base spacing h; the command-line default eps = 2h keeps to this.
Below it the indicator is not resolved at the queries, no weights fit the
rows, and the clamped solve warns (ClampedMassWarning).
"""

from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .errors import SelfIntersectionError
from .geometry import (FramedSample, OrientedSample, PointCloud, gen_fibonacci_sphere,
                       gen_sphere_nd)
from .kernel import unit_sphere_measure


@dataclass(frozen=True)
class SphereDirections:
    """q direction vectors a_i of length eps in the codimension space R^r."""

    directions: np.ndarray  # (q, r)
    epsilon: float

    def __post_init__(self):
        dirs = np.array(self.directions, dtype=float)
        object.__setattr__(self, "directions", dirs)
        dirs.setflags(write=False)
        if dirs.ndim != 2:
            raise ValueError("directions must be a (q, r) array")
        q, r = dirs.shape
        if q < r + 1:
            raise ValueError("need at least r + 1 directions to span the normal sphere")
        lengths = np.linalg.norm(dirs, axis=1)
        if np.max(np.abs(lengths - self.epsilon)) > 1e-12 * max(1.0, self.epsilon):
            raise ValueError("every direction must have length epsilon")

    @property
    def codim(self) -> int:
        return self.directions.shape[1]

    @property
    def count(self) -> int:
        return self.directions.shape[0]


def sample_normal_sphere(r: int, q: int, eps: float) -> SphereDirections:
    """Deterministic sample of the radius-eps sphere in R^r.

    r = 1 gives the two-point sphere {+eps, -eps} (q is forced to 2); r = 2
    gives q equally spaced points on the circle; r = 3 a Fibonacci lattice;
    higher r falls back to normalized draws from a generator seeded by (r, q).
    """
    if r < 1:
        raise ValueError("codimension must be at least 1")
    if eps <= 0:
        raise ValueError("epsilon must be positive")
    if r == 1:
        return SphereDirections(np.array([[eps], [-eps]]), eps)
    if q < r + 1:
        raise ValueError("need at least r + 1 directions")
    if r == 2:
        phi = 2.0 * np.pi * np.arange(q) / q
        dirs = np.column_stack([np.cos(phi), np.sin(phi)])
    elif r == 3:
        dirs = gen_fibonacci_sphere(q).points
    else:
        dirs = gen_sphere_nd(q, r, 90_000 + 1000 * r + q).points
    return SphereDirections(eps * dirs, eps)


def tube_sphere_measure(r: int, eps: float) -> float:
    """Measure s_r of the radius-eps sphere in R^r (counting measure 2 for r = 1)."""
    if r < 1:
        raise ValueError("codimension must be at least 1")
    if eps <= 0:
        raise ValueError("epsilon must be positive")
    if r == 1:
        return 2.0
    return unit_sphere_measure(r) * eps ** (r - 1)


@dataclass(frozen=True)
class TubeSample:
    """Boundary sample of the eps-tube around a framed base sample.

    Tube points are grouped base-point-major: entry j*q + i is direction i
    applied at base point j.
    """

    base: FramedSample
    directions: SphereDirections
    boundary: OrientedSample

    def __post_init__(self):
        q, eps = self.directions.count, self.directions.epsilon
        if len(self.boundary) != q * len(self.base):
            raise ValueError("boundary must hold q points per base point")
        gaps = np.linalg.norm(self.boundary.points
                              - np.repeat(self.base.points, q, axis=0), axis=1)
        if np.max(np.abs(gaps - eps)) > 1e-11 * max(1.0, eps):
            raise ValueError("tube points must sit at distance epsilon from their bases")

    @property
    def base_index(self) -> np.ndarray:
        q = self.directions.count
        return np.repeat(np.arange(len(self.base)), q)

    def __len__(self) -> int:
        return len(self.boundary)


def build_tube(base: FramedSample, directions: SphereDirections) -> TubeSample:
    """Fan every base point out along the direction sphere through its frame."""
    if base.codim != directions.codim:
        raise ValueError("base codimension must match the direction sphere")
    a = directions.directions
    # points[j, i] = y_j + sum_k a[i, k] frames[j, k]
    offsets = np.einsum("ik,jkn->jin", a, base.frames)
    pts = (base.points[:, None, :] + offsets).reshape(-1, base.dim)
    normals = (offsets / directions.epsilon).reshape(-1, base.dim)
    dists, _ = cKDTree(pts).query(pts, k=2)
    if np.min(dists[:, 1]) <= 1e-8 * directions.epsilon:
        raise SelfIntersectionError(
            "tube boundary points coincide; epsilon exceeds the reach of the base manifold")
    boundary = OrientedSample(PointCloud(pts), normals)
    return TubeSample(base=base, directions=directions, boundary=boundary)


def integrate_codim(f_values: np.ndarray, tau: np.ndarray,
                    directions: SphereDirections) -> float:
    """(1/s_r) * sum_{i,j} f(y_j) tau(a_i(y_j)), tau in base-point-major order."""
    f = np.asarray(f_values, dtype=float)
    t = np.asarray(tau, dtype=float)
    q = directions.count
    if t.shape != (f.shape[0] * q,):
        raise ValueError("tau must hold q entries per base point")
    s_r = tube_sphere_measure(directions.codim, directions.epsilon)
    return float(np.dot(f, t.reshape(-1, q).sum(axis=1))) / s_r
