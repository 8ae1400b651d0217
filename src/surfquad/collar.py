"""Solid collar construction for hypersurfaces with boundary.

A sample of a bordered hypersurface is doubled into the front and back faces
of the collar solid {y + t N(y), 0 <= t <= eps}, stored as one closed
boundary oriented outward from the solid, as a tube's is: the front points
with normals -N, then y + eps N(y) with normals N. It is built once, and
refused where geometry.nearest_gaps puts a back point within 1e-9 eps of
another boundary point. Integrals over the original surface come from the
half-sum of front and back elements. The collar's side strip over the
surface boundary is deliberately left unsampled; its area
eps * length(boundary) is reported as an expected defect.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import SelfIntersectionError
from .geometry import FramedSample, OrientedSample, PointCloud, median_nn_spacing, nearest_gaps

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
    """Outward closed boundary of the collar solid of thickness epsilon over an oriented sample.

    Front points y with normals -N, then y + eps N(y) with normals N, built from the two inputs.
    """

    front: OrientedSample
    epsilon: float
    boundary: OrientedSample = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        CollarConfig(self.epsilon)  # the thickness rule
        y, n, eps = self.front.points, self.front.normals, self.epsilon
        pts = np.vstack([y, y + eps * n])
        # a back point on a front point or on another back point
        if np.min(nearest_gaps(pts)[len(y):]) <= 1e-9 * eps:
            raise SelfIntersectionError(
                "offset points collide; epsilon exceeds the local feature size")
        object.__setattr__(self, "boundary", OrientedSample(PointCloud(pts), np.vstack([-n, n])))

    def __len__(self) -> int:
        return len(self.boundary)

    def outward(self) -> OrientedSample:
        """The stored boundary, front first, oriented outward from the collar solid."""
        return self.boundary


def build_collar(sample: OrientedSample, config: CollarConfig) -> CollarSample:
    """The collar of thickness config.epsilon over the sample: CollarSample(sample, epsilon)."""
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
