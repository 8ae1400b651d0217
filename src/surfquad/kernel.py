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

    def field(self, queries: np.ndarray, points: np.ndarray,
              vectors: np.ndarray | None = None) -> np.ndarray:
        """The kernel block K(x_i, y_j), shape (N_X, N_Y, n), or with vectors v_j
        its rows dot(K(x_i, y_j), v_j), shape (N_X, N_Y).

        The rows come from (N_X, N_Y) arrays, one coordinate at a time. Each
        difference is taken per pair, not expanded into products with X, so
        near pairs do not cancel and relabeling the samples permutes the
        rows bit for bit.
        """
        if vectors is None:
            return double_layer_block(queries, points, self)
        X, Y = _checked_pair(queries, points, self)
        V = np.asarray(vectors, dtype=float)
        # four (N_X, N_Y) arrays: the difference d_k, a scratch t, and the sums
        d = Y[:, 0] - X[:, 0, None]
        num = d * V[:, 0]
        rho2 = d * d
        t = np.empty_like(d)
        for k in range(1, self.dim):
            np.subtract(Y[:, k], X[:, k, None], out=d)
            num += np.multiply(d, V[:, k], out=t)
            rho2 += np.multiply(d, d, out=t)
        if self.softening:
            rho2 += self.softening ** 2
        # rho2 >= 0, so all() is false exactly when some pair coincides
        if not rho2.all():
            raise SingularEvaluationError("coincident query/sample point with zero softening")
        # omega_n rho^n, with rho^n = rho2^(n//2) times rho for odd n
        den = np.power(rho2, self.dim // 2, out=t)
        if self.dim % 2:
            den *= np.sqrt(rho2, out=d)
        den *= unit_sphere_measure(self.dim)
        num /= den
        return num


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


def _checked_pair(queries, sample, config: KernelConfig):
    X = np.asarray(queries, dtype=float)
    Y = np.asarray(sample, dtype=float)
    if X.shape[1] != config.dim or Y.shape[1] != config.dim:
        raise ValueError("query/sample dimension does not match kernel config")
    return X, Y


def double_layer_block(queries: np.ndarray, sample: np.ndarray, config: KernelConfig) -> np.ndarray:
    """K(x_i, y_j) for all pairs, shape (N_X, N_Y, n).

    Raises on any coincident pair when the softening width is zero.
    """
    X, Y = _checked_pair(queries, sample, config)
    n = config.dim
    diff = Y[None, :, :] - X[:, None, :]
    rho2 = np.einsum("ijk,ijk->ij", diff, diff) + config.softening ** 2
    if np.any(rho2 == 0.0):
        raise SingularEvaluationError("coincident query/sample point with zero softening")
    omega = unit_sphere_measure(n)
    return diff / (omega * rho2 ** (n / 2.0))[:, :, None]
