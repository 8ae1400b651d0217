"""Solid collar construction for hypersurfaces with boundary.

A sample of a bordered hypersurface is doubled into front/back faces of the
collar solid {y + t N(y), 0 <= t <= eps}. The stored orientation keeps the
original normals on the front and their negations on the back; both point
into the solid, so assemblies against interior queries use the flipped
(outward) field. Integrals over the original surface come from the half-sum
of front and back elements. The collar's side strip over the surface
boundary is deliberately left unsampled; its area eps * length(boundary) is
reported as an expected defect.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import SelfIntersectionError
from .geometry import FramedSample, OrientedSample, PointCloud, median_nn_spacing

DEFAULT_EPS_FACTOR = 2.0  # default epsilon = 2 * median nearest-neighbor spacing


@dataclass(frozen=True)
class CollarConfig:
    epsilon: float

    def __post_init__(self):
        if not 0.0 < self.epsilon < np.inf:
            raise ValueError(f"collar epsilon must be positive and finite, not {self.epsilon}")


def default_epsilon(sample: OrientedSample | FramedSample) -> float:
    """The collar and tube thickness default, eps = 2h for the sample's spacing h."""
    return DEFAULT_EPS_FACTOR * median_nn_spacing(sample.cloud)


@dataclass(frozen=True)
class CollarSample:
    """Front/back faces of the collar solid of thickness epsilon over one oriented sample.

    The back face, points y + eps N(y) with normals -N, is built from the two inputs.
    """

    front: OrientedSample
    epsilon: float
    back: OrientedSample = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        from scipy.spatial import cKDTree

        CollarConfig(self.epsilon)  # the thickness rule
        sample, eps = self.front, self.epsilon
        back_pts = sample.points + eps * sample.normals
        near, _ = cKDTree(sample.points).query(back_pts, k=1)
        collision = np.min(near) <= 1e-9 * eps
        if not collision and len(sample) > 1:
            pair, _ = cKDTree(back_pts).query(back_pts, k=2)
            collision = np.min(pair[:, 1]) <= 1e-9 * eps
        if collision:
            raise SelfIntersectionError(
                "offset points collide; epsilon exceeds the local feature size")
        object.__setattr__(self, "back", OrientedSample(PointCloud(back_pts), -sample.normals))

    def __len__(self) -> int:
        return 2 * len(self.front)

    def outward(self) -> OrientedSample:
        """Both faces, front first, oriented outward from the collar solid, for assembly."""
        pts = np.vstack([self.front.points, self.back.points])
        return OrientedSample(PointCloud(pts), -np.vstack([self.front.normals, self.back.normals]))


def build_collar(sample: OrientedSample, config: CollarConfig) -> CollarSample:
    """Duplicate the sample across the collar: back points y + eps N(y), normals -N."""
    return CollarSample(sample, config.epsilon)


def strip_defect_area(collar: CollarSample, boundary_length: float) -> float:
    """Unsampled side-strip area eps * length(dM), the construction's known defect."""
    return collar.epsilon * boundary_length


def integrate_with_boundary(f_values: np.ndarray, front_tau: np.ndarray,
                            back_tau: np.ndarray) -> float:
    """Half-sum rule: 1/2 * sum_j f(y_j) (tau_j + tau-bar_j)."""
    f = np.asarray(f_values, dtype=float)
    tf = np.asarray(front_tau, dtype=float)
    tb = np.asarray(back_tau, dtype=float)
    if not (f.shape == tf.shape == tb.shape):
        raise ValueError("f_values, front_tau and back_tau must have equal length")
    return 0.5 * float(np.dot(f, tf + tb))
