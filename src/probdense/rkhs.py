"""Finite representer-form RKHS functions and empirical L^p machinery.

An RkhsFunction is a finite expansion f = sum_i alpha_i k(., x_i).  Its norm
is sqrt(alpha' K alpha), and evaluation runs block by block through the
pairwise kernel path, so evaluating f on its own centers agrees bitwise with
K @ alpha when they fit in one block, and to BLAS rounding otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernels import (
    EmpiricalMeasure,
    _kernel_diag,
    _require_point_kernel,
    gram_matrix,
    kernel_matvec,
)
from .util import NumericalError, as_points

__all__ = [
    "RkhsFunction",
    "QuadratureSpec",
    "rkhs_norm",
    "lp_norm",
    "kernel_lp_norm",
    "apply_integral_operator",
    "injectivity_probe",
]


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


@dataclass(frozen=True, eq=False)
class QuadratureSpec:
    """Empirical measure plus exponent p >= 1 for L^p estimates."""

    measure: EmpiricalMeasure
    p: float = 2.0

    def __post_init__(self):
        if not (np.isfinite(self.p) and self.p >= 1.0):
            raise ValueError(f"p must be a finite real >= 1, got {self.p!r}")


def rkhs_norm(f: RkhsFunction) -> float:
    """RKHS norm sqrt(alpha' K alpha) of a representer expansion.

    The quadratic form is mathematically nonnegative; roundoff below
    -1e-8 * ||K||_F * ||alpha||^2 is treated as a bug, smaller negatives
    are clamped to 0.
    """
    K = gram_matrix(f.kernel, f.centers)
    q = float(f.coefficients @ K @ f.coefficients)
    if q < 0.0:
        scale = float(np.linalg.norm(K)) * float(f.coefficients @ f.coefficients)
        if q < -1e-8 * max(scale, 1e-300):
            raise NumericalError(f"quadratic form {q!r} is negative beyond roundoff")
        q = 0.0
    return float(np.sqrt(q))


def lp_norm(f, quad: QuadratureSpec) -> float:
    """Empirical L^p norm (sum_j w_j |f(x_j)|^p)^(1/p)."""
    values = np.asarray(f(quad.measure.atoms), dtype=float)
    return float(np.dot(quad.measure.weights, np.abs(values) ** quad.p) ** (1.0 / quad.p))


def kernel_lp_norm(k, quad: QuadratureSpec) -> float:
    """Empirical L^p size of the kernel: (sum_j w_j k(x_j, x_j)^(p/2))^(1/p).

    Multiplying by the RKHS norm bounds the empirical L^p norm of any
    representer expansion.
    """
    _require_point_kernel(k)
    diag = _kernel_diag(k, quad.measure.atoms.shape[0])
    return float(np.dot(quad.measure.weights, diag ** (quad.p / 2.0)) ** (1.0 / quad.p))


def apply_integral_operator(k, g, quad: QuadratureSpec, x):
    """Smoothing operator sum_j w_j k(x, x_j) g(x_j).

    Maps any evaluable g to a function in the kernel's span; accepts a
    single point or an (m, d) batch for x.
    """
    atoms = quad.measure.atoms
    gv = np.asarray(g(atoms), dtype=float)
    if gv.shape != (atoms.shape[0],):
        raise ValueError(f"g must return shape ({atoms.shape[0]},), got {gv.shape}")
    arr = np.asarray(x, dtype=float)
    single = arr.ndim == 1
    X = arr[None, :] if single else arr
    values = kernel_matvec(k, X, atoms, quad.measure.weights * gv)
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
