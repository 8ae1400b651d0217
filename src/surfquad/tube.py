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

from dataclasses import dataclass, field

import numpy as np

from .errors import SelfIntersectionError
from .geometry import (FramedSample, OrientedSample, PointCloud, gen_fibonacci_sphere,
                       gen_sphere_nd, nearest_gaps, require_within)
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
        require_within(np.abs(np.linalg.norm(dirs, axis=1) - self.epsilon),
                       1e-12 * max(1.0, self.epsilon), "every direction must have length epsilon")

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
    if not 0.0 < eps < np.inf:
        raise ValueError(f"epsilon must be positive and finite, not {eps}")
    if r == 1:
        return SphereDirections(np.array([[eps], [-eps]]), eps)
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
    if not 0.0 < eps < np.inf:
        raise ValueError(f"epsilon must be positive and finite, not {eps}")
    if r == 1:
        return 2.0
    return unit_sphere_measure(r) * eps ** (r - 1)


@dataclass(frozen=True)
class TubeSample:
    """Boundary sample of the eps-tube around a framed base sample.

    The boundary is built from the two inputs: every base point fans out
    along the direction sphere through its frame. Tube points are grouped
    base-point-major: entry j*q + i is direction i applied at base point j.
    """

    base: FramedSample
    directions: SphereDirections
    boundary: OrientedSample = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        base, directions = self.base, self.directions
        if base.codim != directions.codim:
            raise ValueError("base codimension must match the direction sphere")
        a = directions.directions
        # points[j, i] = y_j + sum_k a[i, k] frames[j, k]
        offsets = np.einsum("ik,jkn->jin", a, base.frames)
        pts = (base.points[:, None, :] + offsets).reshape(-1, base.dim)
        normals = (offsets / directions.epsilon).reshape(-1, base.dim)
        if np.min(nearest_gaps(pts)) <= 1e-8 * directions.epsilon:
            raise SelfIntersectionError(
                "tube boundary points coincide; epsilon exceeds the reach of the base manifold")
        object.__setattr__(self, "boundary", OrientedSample(PointCloud(pts), normals))

    def __len__(self) -> int:
        return len(self.boundary)


def build_tube(base: FramedSample, directions: SphereDirections) -> TubeSample:
    """Fan every base point out along the direction sphere through its frame."""
    return TubeSample(base, directions)


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
