"""Newtonian fundamental solution in R^n and the double-layer kernel row.

Convention: K(x, y) = (y - x) / (omega_n * |x-y|^n). With this sign the exact
Gauss identity holds: summing dot(K(0, y_j), N(y_j)) * tau_j over a
unit-sphere sample with elements 4*pi/N gives +1 at the origin. The kernel
is singular at coincident points, where every evaluator raises.
"""

from dataclasses import dataclass
from math import gamma

import numpy as np

from .errors import SingularEvaluationError


@dataclass(frozen=True)
class KernelConfig:
    """Ambient dimension of the Newtonian kernel."""

    dim: int

    def __post_init__(self):
        if self.dim < 3:
            raise ValueError("kernel requires ambient dimension n >= 3")

    def field(self, points: np.ndarray, vectors: np.ndarray | None):
        """Bind a sample y_j (and vectors v_j) and return rows(queries, work).

        The binding runs once per double_layer call: it checks the sample's
        dimension and takes contiguous (n, N) planes of Y and V, so no chunk
        reads a strided column. rows writes the rows of K(x_i, y_j) into
        work[-1] and returns them. With vectors the rows are
        dot(K(x_i, y_j), v_j), shape (N_X, N_Y); without, work[-1] holds the
        kernel block K over columns (j, k), shape (N_X, N_Y * n), built in
        place by the arithmetic of double_layer_block, so it matches that
        block bit for bit. work[:3] are three (N_X, N_Y) scratch arrays (d, t,
        rho2). Each difference is taken per pair, not expanded into products
        with X, so near pairs do not cancel and relabeling the samples
        permutes the rows bit for bit.
        """
        n = self.dim
        Y = np.ascontiguousarray(_checked(points, self).T)
        V = None if vectors is None else np.ascontiguousarray(np.transpose(vectors), dtype=float)
        omega = unit_sphere_measure(n)

        def rows(X: np.ndarray, work) -> np.ndarray:
            d, t, rho2, out = work[0], work[1], work[2], work[-1]
            if V is None:
                # a view of the result, as out is a run of whole rows of a C-ordered array
                block = out.reshape(len(X), Y.shape[1], n)
                for k in range(n):
                    np.subtract(Y[k], X[:, k, None], out=block[:, :, k])
                np.einsum("ijk,ijk->ij", block, block, out=rho2)
                den = np.power(rho2, n / 2.0, out=t)
            else:
                np.subtract(Y[0], X[:, 0, None], out=d)
                np.multiply(d, V[0], out=out)
                np.multiply(d, d, out=rho2)
                for k in range(1, n):
                    np.subtract(Y[k], X[:, k, None], out=d)
                    out += np.multiply(d, V[k], out=t)
                    rho2 += np.multiply(d, d, out=t)
                # rho^n = rho2^(n//2), times rho for odd n. The products round
                # as np.power(rho2, 1) and np.power(rho2, 2) do, and the first
                # spends a pass on a copy
                if n == 3:
                    den = np.multiply(rho2, np.sqrt(rho2, out=d), out=t)
                elif n == 4:
                    den = np.multiply(rho2, rho2, out=t)
                else:
                    den = np.power(rho2, n // 2, out=t)
                    if n % 2:
                        den *= np.sqrt(rho2, out=d)
            # rho2 >= 0, so all() is false exactly when some pair coincides
            if not rho2.all():
                raise SingularEvaluationError("coincident query/sample point")
            den *= omega
            if V is None:
                block /= den[:, :, None]
            else:
                out /= den
            return out

        return rows


def unit_sphere_measure(n: int) -> float:
    """(n-1)-dimensional measure of the unit sphere in R^n: 2 pi^(n/2) / Gamma(n/2)."""
    if n < 2:
        raise ValueError("unit sphere measure defined for n >= 2")
    return 2.0 * np.pi ** (n / 2.0) / gamma(n / 2.0)


def fundamental_solution(x, y, config: KernelConfig) -> float:
    """|x-y|^(2-n) / ((n-2) omega_n)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = config.dim
    rho2 = float(np.sum((x - y) ** 2))
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
    rho2 = float(np.sum(diff * diff))
    if rho2 == 0.0:
        raise SingularEvaluationError("double layer kernel evaluated at coincident points")
    omega = unit_sphere_measure(n)
    return diff / (omega * rho2 ** (n / 2.0))


def _checked(points, config: KernelConfig) -> np.ndarray:
    X = np.asarray(points, dtype=float)
    if X.shape[1] != config.dim:
        raise ValueError("query/sample dimension does not match kernel config")
    return X


def double_layer_block(queries: np.ndarray, sample: np.ndarray, config: KernelConfig) -> np.ndarray:
    """K(x_i, y_j) for all pairs, shape (N_X, N_Y, n).

    Raises on any coincident pair. The evaluator does not call it: it is the
    direct form that tests check KernelConfig.field against.
    """
    X, Y = _checked(queries, config), _checked(sample, config)
    n = config.dim
    diff = Y[None, :, :] - X[:, None, :]
    rho2 = np.einsum("ijk,ijk->ij", diff, diff)
    if np.any(rho2 == 0.0):
        raise SingularEvaluationError("coincident query/sample point")
    omega = unit_sphere_measure(n)
    return diff / (omega * rho2 ** (n / 2.0))[:, :, None]
