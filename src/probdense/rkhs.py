"""Finite representer-form RKHS functions and the Gram injectivity probe.

An RkhsFunction is a finite expansion f = sum_i alpha_i k(., x_i), and
evaluation goes through kernel_matvec.  A 1-D Wendland expansion is
evaluated as a piecewise quintic, which agrees with K @ alpha to rounding
relative to |K| |alpha| and is exactly 0 outside every support.  Any other
expansion, evaluated on its own centers, agrees bitwise with K @ alpha when
they fit in one block, and to BLAS rounding otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernels import gram_matrix, kernel_matvec
from .util import as_points

__all__ = ["RkhsFunction", "injectivity_probe"]


@dataclass(frozen=True, eq=False)
class RkhsFunction:
    """f(x) = sum_i coefficients[i] * k(x, centers[i])."""

    kernel: object
    centers: np.ndarray
    coefficients: np.ndarray

    def __post_init__(self):
        centers = as_points(self.centers, "centers")
        coeffs = np.asarray(self.coefficients, dtype=float)
        if coeffs.shape != (centers.shape[0],):
            raise ValueError(
                f"coefficients must have shape ({centers.shape[0]},), got {coeffs.shape}"
            )
        if not np.all(np.isfinite(coeffs)):
            raise ValueError("coefficients must be finite")
        object.__setattr__(self, "centers", centers)
        object.__setattr__(self, "coefficients", coeffs)

    def __call__(self, x):
        arr = np.asarray(x, dtype=float)
        single = arr.ndim == 1
        X = arr[None, :] if single else arr
        values = kernel_matvec(self.kernel, X, self.centers, self.coefficients)
        return float(values[0]) if single else values


def injectivity_probe(k, pts) -> float:
    """Smallest eigenvalue of the Gram matrix at pairwise-distinct points.

    A strictly positive value certifies the kernel sections at these points
    are linearly independent.  Duplicate points are rejected: they force a
    zero eigenvalue vacuously.
    """
    X = as_points(pts, "pts")
    if np.unique(X, axis=0).shape[0] != X.shape[0]:
        raise ValueError("pts must be pairwise distinct")
    K = gram_matrix(k, X)
    return float(np.linalg.eigvalsh(K)[0])
