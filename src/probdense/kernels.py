"""Bounded positive definite kernels on R^d and on empirical measures.

Point-level kernels (Gaussian RBF, compactly supported Wendland C^2) are
evaluated through one row-block path (``_blocks``) so that k(x, y) == k(y, x)
bitwise, Gram entries agree bitwise with pairwise evaluation, and kernel
expansions are evaluated without holding the full kernel matrix.  On top of
them sits a measure-level Gaussian kernel: a Gaussian of the maximum mean
discrepancy between two empirical measures.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .util import NumericalError, as_points, as_weights

__all__ = [
    "GaussianRBF",
    "WendlandC2",
    "MeasureGaussian",
    "EmpiricalMeasure",
    "eval_kernel",
    "gram_matrix",
    "kernel_matvec",
    "sup_kernel_norm",
    "mmd_squared",
    "eval_measure_kernel",
    "measure_gram_matrix",
    "mmd_clamp_count",
    "reset_mmd_clamp_count",
]

# Entries per evaluation block: a block is as many whole rows as keep its
# (rows, m, d) coordinate differences within this count (2 MiB of float64),
# and at least one row.  A call reuses the same few block-sized buffers for
# every block, so evaluation memory is bounded by this size, never by the
# number of points.  Blocks split rows only, so every entry is bitwise
# independent of it.
_BLOCK_ENTRIES = 1 << 18


@dataclass(frozen=True)
class GaussianRBF:
    """Gaussian radial kernel exp(-||x - y||^2 / gamma^2)."""

    gamma: float = 1.0

    def __post_init__(self):
        if not (np.isfinite(self.gamma) and self.gamma > 0.0):
            raise ValueError(f"gamma must be a positive finite real, got {self.gamma!r}")

    def _transform(self, d2: np.ndarray, work: np.ndarray) -> None:
        """Overwrite squared distances with exp(-d2 / gamma^2); work is unused."""
        d2 /= -(self.gamma * self.gamma)
        np.exp(d2, out=d2)


@dataclass(frozen=True)
class WendlandC2:
    """Compactly supported Wendland kernel (1 - r)_+^4 (4r + 1).

    r is the Euclidean distance divided by ``support_radius``; the kernel is
    exactly zero for r >= 1, C^2 smooth, and takes values in [0, 1].
    """

    support_radius: float = 1.0

    def __post_init__(self):
        if not (np.isfinite(self.support_radius) and self.support_radius > 0.0):
            raise ValueError(
                f"support_radius must be a positive finite real, got {self.support_radius!r}"
            )

    def _transform(self, d2: np.ndarray, work: np.ndarray) -> None:
        """Overwrite squared distances with the kernel; work is same-shape scratch."""
        r = np.sqrt(d2, out=d2)
        r /= self.support_radius
        base = np.subtract(1.0, r, out=work)
        np.maximum(0.0, base, out=base)
        np.power(base, 4, out=base)
        r *= 4.0
        r += 1.0
        r *= base


# family name -> class; the config parser and StudyConfig read this one list
_KERNEL_FAMILIES = {"gaussian_rbf": GaussianRBF, "wendland_c2": WendlandC2}
_POINT_KERNELS = tuple(_KERNEL_FAMILIES.values())


@dataclass(frozen=True)
class MeasureGaussian:
    """Gaussian kernel on empirical measures: exp(-mmd^2(base; P, Q) / gamma^2).

    ``gamma`` is an outer bandwidth, independent of any bandwidth the base
    point kernel carries.
    """

    base: GaussianRBF | WendlandC2
    gamma: float = 1.0

    def __post_init__(self):
        if not isinstance(self.base, _POINT_KERNELS):
            raise TypeError("base of a measure-level kernel must be a point-level kernel")
        if not (np.isfinite(self.gamma) and self.gamma > 0.0):
            raise ValueError(f"gamma must be a positive finite real, got {self.gamma!r}")


@dataclass(frozen=True, eq=False)
class EmpiricalMeasure:
    """Weighted atoms sum(w_i * delta_{x_i}) with w_i >= 0, sum w_i = 1."""

    atoms: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        atoms = as_points(self.atoms, "atoms")
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "weights", as_weights(self.weights, atoms.shape[0]))

    @property
    def dim(self) -> int:
        return self.atoms.shape[1]


def _require_point_kernel(k) -> None:
    if isinstance(k, MeasureGaussian):
        raise TypeError("point-level kernel required, got a measure-level kernel")
    if not isinstance(k, _POINT_KERNELS):
        raise TypeError(f"unknown kernel type {type(k).__name__}")


def _point_pair(k, X, Y) -> tuple[np.ndarray, np.ndarray]:
    _require_point_kernel(k)
    X = as_points(X, "X")
    Y = as_points(Y, "Y")
    if X.shape[1] != Y.shape[1]:
        raise ValueError(f"dimension mismatch: {X.shape[1]} vs {Y.shape[1]}")
    return X, Y


def _blocks(k, X: np.ndarray, Y: np.ndarray, out: np.ndarray | None = None):
    """Yield (rows, K[rows]) for consecutive row blocks of K[i, j] = k(X[i], Y[j]).

    Each block is built in place from explicit coordinate differences (never
    the expanded dot-product identity): subtract, square, sum over the
    coordinate axis when d > 1, then the kernel's transform.  Blocks are
    views of ``out`` when given, else of one scratch buffer that the next
    block overwrites.
    """
    n, d = X.shape
    m = Y.shape[0]
    rows = min(n, max(1, _BLOCK_ENTRIES // (m * d)))
    diff = np.empty((rows, m, d)) if d > 1 else None
    scratch = np.empty((rows, m)) if out is None else None
    work = np.empty((rows, m))
    for start in range(0, n, rows):
        stop = min(n, start + rows)
        size = stop - start
        block = scratch[:size] if out is None else out[start:stop]
        if d == 1:
            np.subtract(X[start:stop], Y.T, out=block)
            np.multiply(block, block, out=block)
        else:
            t = diff[:size]
            np.subtract(X[start:stop, None, :], Y[None, :, :], out=t)
            np.multiply(t, t, out=t)
            np.sum(t, axis=-1, out=block)
        k._transform(block, work[:size])
        yield slice(start, stop), block


def _kernel_diag(k, n: int) -> np.ndarray:
    """k(x, x) at n points: the kernel's transform of zero squared distances."""
    diag = np.zeros(n)
    k._transform(diag, np.empty(n))
    return diag


def pairwise(k, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Matrix of k(X[i], Y[j]) for a point-level kernel.

    Filled block by block in place, which makes the result exactly symmetric
    when X is Y and bitwise consistent with single-pair evaluation.
    """
    X, Y = _point_pair(k, X, Y)
    out = np.empty((X.shape[0], Y.shape[0]))
    for _ in _blocks(k, X, Y, out):
        pass
    return out


def kernel_matvec(k, X, C, a) -> np.ndarray:
    """pairwise(k, X, C) @ a without forming the (len(X), len(C)) matrix.

    Each row block is multiplied by ``a`` as soon as it is built, so memory
    stays bounded by the block size.  When all rows fit in one block the
    result is bitwise equal to ``pairwise(k, X, C) @ a``; otherwise it agrees
    up to the rounding of row-split BLAS products.
    """
    X, C = _point_pair(k, X, C)
    a = np.asarray(a, dtype=float)
    if a.shape != (C.shape[0],):
        raise ValueError(f"a must have shape ({C.shape[0]},), got {a.shape}")
    out = np.empty(X.shape[0])
    for rows, block in _blocks(k, X, C):
        np.matmul(block, a, out=out[rows])
    return out


def eval_kernel(k, x, y) -> float:
    """Single kernel evaluation k(x, y) for a point-level kernel.

    Delegates to pairwise on 1x1 inputs, so the value agrees bitwise with
    the corresponding Gram entry.
    """
    x = np.asarray(x, dtype=float).reshape(-1)
    y = np.asarray(y, dtype=float).reshape(-1)
    return float(pairwise(k, x[None, :], y[None, :])[0, 0])


def gram_matrix(k, pts) -> np.ndarray:
    """Gram matrix K[i, j] = k(pts[i], pts[j]); exactly symmetric."""
    X = as_points(pts, "pts")
    return pairwise(k, X, X)


def sup_kernel_norm(k, probe) -> float:
    """Largest sqrt(k(x, x)) over a finite probe set, for a point-level kernel."""
    _require_point_kernel(k)
    X = as_points(probe, "probe")
    return float(np.sqrt(_kernel_diag(k, X.shape[0])).max())


_mmd_clamp_count = 0


def mmd_clamp_count() -> int:
    """How many times mmd_squared clamped a small negative value to 0."""
    return _mmd_clamp_count


def reset_mmd_clamp_count() -> None:
    global _mmd_clamp_count
    _mmd_clamp_count = 0


def _inner(base, p: EmpiricalMeasure, q: EmpiricalMeasure) -> float:
    """sum_ij w_i v_j k(x_i, y_j): the inner product of two kernel mean embeddings."""
    return float(p.weights @ kernel_matvec(base, p.atoms, q.atoms, q.weights))


def _mmd_from_self_terms(base, p, q, kxx: float, kyy: float) -> float:
    """mmd_squared(base, p, q) given kxx = _inner(base, p, p) and kyy = _inner(base, q, q)."""
    global _mmd_clamp_count
    value = (kxx + kyy) - 2.0 * _inner(base, p, q)
    if value < 0.0:
        if value < -1e-8:
            raise NumericalError(f"mmd_squared produced {value!r}, below the -1e-8 bug threshold")
        _mmd_clamp_count += 1
        value = 0.0
    return value


def mmd_squared(base, p: EmpiricalMeasure, q: EmpiricalMeasure) -> float:
    """Squared maximum mean discrepancy between two empirical measures.

    sum_ij w_i w_j k(x_i, x_j) + sum_ij v_i v_j k(y_i, y_j)
        - 2 sum_ij w_i v_j k(x_i, y_j)

    Each term is w @ kernel_matvec(...), so memory is bounded by the
    evaluation block, not by the number of atoms.  Nonnegative up to
    roundoff; tiny negative values are clamped to 0 and counted, magnitudes
    below -1e-8 raise NumericalError.  When p and q hold identical arrays all
    three terms share one arithmetic path, so the result is exactly 0.
    """
    if p.dim != q.dim:
        raise ValueError(f"dimension mismatch: {p.dim} vs {q.dim}")
    return _mmd_from_self_terms(base, p, q, _inner(base, p, p), _inner(base, q, q))


def _require_measure_kernel(k) -> None:
    if not isinstance(k, MeasureGaussian):
        raise TypeError("measure-level kernel required, got a point-level kernel")


def _measure_kernel_value(k: MeasureGaussian, mmd2: float) -> float:
    return float(np.exp(-mmd2 / (k.gamma * k.gamma)))


def eval_measure_kernel(k: MeasureGaussian, p: EmpiricalMeasure, q: EmpiricalMeasure) -> float:
    """Measure-level kernel value exp(-mmd^2(base; p, q) / gamma^2), in (0, 1]."""
    _require_measure_kernel(k)
    return _measure_kernel_value(k, mmd_squared(k.base, p, q))


def measure_gram_matrix(k: MeasureGaussian, measures) -> np.ndarray:
    """Gram matrix of the measure-level kernel over a list of measures.

    Bitwise equal to eval_measure_kernel on every pair: each measure's
    self-term is computed once and shared by its n - 1 pairs, and the
    diagonal is exactly 1 (mmd_squared of a measure with itself is exactly 0).
    """
    _require_measure_kernel(k)
    ms = list(measures)
    if not ms:
        raise ValueError("measures must be nonempty")
    self_terms = [_inner(k.base, p, p) for p in ms]
    n = len(ms)
    K = np.empty((n, n), dtype=float)
    for i in range(n):
        K[i, i] = 1.0
        for j in range(i + 1, n):
            mmd2 = _mmd_from_self_terms(k.base, ms[i], ms[j], self_terms[i], self_terms[j])
            K[i, j] = K[j, i] = _measure_kernel_value(k, mmd2)
    return K
