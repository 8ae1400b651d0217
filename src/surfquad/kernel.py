"""Newtonian fundamental solution in R^n and the double-layer kernel row.

Convention: K(x, y) = (y - x) / (omega_n * (|x-y|^2 + w^2)^(n/2)). With this
sign the exact Gauss identity holds: summing dot(K(0, y_j), N(y_j)) * tau_j
over a unit-sphere sample with elements 4*pi/N gives +1 at the origin. The
optional softening width w bounds the kernel everywhere (K(x, x) = 0).
"""

from dataclasses import dataclass
from math import gamma

import numpy as np

from .errors import SingularEvaluationError


@dataclass(frozen=True)
class KernelConfig:
    """Ambient dimension and isotropic softening width."""

    dim: int
    softening: float = 0.0

    def __post_init__(self):
        if self.dim < 3:
            raise ValueError("kernel requires ambient dimension n >= 3")
        if self.softening < 0:
            raise ValueError("softening width must be nonnegative")

    def field(self, queries: np.ndarray, points: np.ndarray) -> np.ndarray:
        """The double-layer kernel block K(x_i, y_j), shape (N_X, N_Y, n)."""
        return double_layer_block(queries, points, self)


def unit_sphere_measure(n: int) -> float:
    """(n-1)-dimensional measure of the unit sphere in R^n: 2 pi^(n/2) / Gamma(n/2)."""
    if n < 2:
        raise ValueError("unit sphere measure defined for n >= 2")
    return 2.0 * np.pi ** (n / 2.0) / gamma(n / 2.0)


def fundamental_solution(x, y, config: KernelConfig) -> float:
    """rho^(2-n) / ((n-2) omega_n) with rho = sqrt(|x-y|^2 + w^2)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = config.dim
    rho2 = float(np.sum((x - y) ** 2)) + config.softening ** 2
    if rho2 == 0.0:
        raise SingularEvaluationError("fundamental solution evaluated at coincident points")
    omega = unit_sphere_measure(n)
    return rho2 ** ((2.0 - n) / 2.0) / ((n - 2.0) * omega)


def double_layer_row(x, y, config: KernelConfig) -> np.ndarray:
    """Vector K(x, y); dot it with mu_j to get sample j's indicator contribution."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = config.dim
    diff = y - x
    rho2 = float(np.sum(diff * diff)) + config.softening ** 2
    if rho2 == 0.0:
        raise SingularEvaluationError("double layer kernel evaluated at coincident points")
    omega = unit_sphere_measure(n)
    return diff / (omega * rho2 ** (n / 2.0))


def double_layer_block(queries: np.ndarray, sample: np.ndarray, config: KernelConfig) -> np.ndarray:
    """K(x_i, y_j) for all pairs, shape (N_X, N_Y, n).

    Raises on any coincident pair when the softening width is zero.
    """
    X = np.asarray(queries, dtype=float)
    Y = np.asarray(sample, dtype=float)
    n = config.dim
    if X.shape[1] != n or Y.shape[1] != n:
        raise ValueError("query/sample dimension does not match kernel config")
    diff = Y[None, :, :] - X[:, None, :]
    rho2 = np.einsum("ijk,ijk->ij", diff, diff) + config.softening ** 2
    if np.any(rho2 == 0.0):
        raise SingularEvaluationError("coincident query/sample point with zero softening")
    omega = unit_sphere_measure(n)
    return diff / (omega * rho2 ** (n / 2.0))[:, :, None]
