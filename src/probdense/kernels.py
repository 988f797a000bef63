"""Bounded positive definite kernels on R^d and on empirical measures.

Point-level kernels (Gaussian RBF, compactly supported Wendland C^2) are
evaluated through one row-block path (``_blocks``) so that k(x, y) == k(y, x)
bitwise, Gram entries agree bitwise with pairwise evaluation, and kernel
expansions are evaluated without holding the full kernel matrix.  The
Gaussian takes squared distances and divides them by gamma^2; the Wendland
kernel divides the coordinates by its support radius once per call and
takes scaled distances r = |x' - c'| (1-D) or sqrt(sum (x' - c')^2).  A
Wendland expansion evaluates, per row block, only the centres whose first
scaled coordinate lies within 1 of the block's rows: the skipped columns
are exactly zero, but the sum runs in sorted order, so it agrees with
``pairwise(k, X, C) @ a`` to rounding and depends on the block size.
On top of them sits a measure-level Gaussian kernel: a Gaussian of the
maximum mean discrepancy between two empirical measures.
"""

from __future__ import annotations

import logging
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
]

log = logging.getLogger(__name__)

# Entries per evaluation block: a block is as many whole rows as keep its
# (rows, m, d) coordinate differences within this count (512 KiB of float64,
# so each buffer stays in a core's L2 cache), and at least one row.  A call
# reuses the same three block-sized buffers for every block, so evaluation
# memory is bounded by this size, never by the number of points.  Blocks
# split rows only, so every entry is bitwise independent of it.
_BLOCK_ENTRIES = 1 << 16


def _check_bandwidth(name: str, value) -> None:
    """Reject a bandwidth whose square is not a normal double.

    The Gaussian divides squared distances by the squared bandwidth; below
    sqrt(tiny) ~ 1.49e-154 it underflows to 0, above sqrt(max) it overflows,
    and the values are wrong.  The Wendland kernel, which divides the
    coordinates by its radius instead, keeps the same range.
    """
    if not (value > 0.0 and np.finfo(float).tiny <= value * value < np.inf):
        raise ValueError(
            f"{name} must be a positive real whose square is a normal double "
            f"(1.5e-154 to 1.3e154), got {value!r}"
        )


@dataclass(frozen=True)
class GaussianRBF:
    """Gaussian radial kernel exp(-||x - y||^2 / gamma^2)."""

    gamma: float = 1.0
    # _transform takes squared distances in the caller's coordinates
    _distances = False

    def __post_init__(self):
        _check_bandwidth("gamma", self.gamma)

    def _scaled(self, X: np.ndarray, name: str) -> np.ndarray:
        """X itself: the Gaussian divides squared distances by gamma^2 instead."""
        return X

    def _transform(self, d2: np.ndarray, work: np.ndarray) -> None:
        """Overwrite squared distances with exp(-d2 / gamma^2); work is unused."""
        d2 /= -(self.gamma * self.gamma)
        np.exp(d2, out=d2)


@dataclass(frozen=True)
class WendlandC2:
    """Compactly supported Wendland kernel (1 - r)_+^4 (4r + 1).

    r is the Euclidean distance divided by ``support_radius``; the kernel is
    exactly zero for r >= 1, C^2 smooth, and takes values in [0, 1].  Each
    call divides the coordinates by ``support_radius`` once and measures r
    between the scaled points: |x' - c'| in 1-D, sqrt(sum (x' - c')^2)
    otherwise.  Points whose scaled coordinates overflow are a ValueError.
    r is clipped at 1, so far points, even at an infinite computed
    distance, give exactly 0.  The fourth power is two squarings.
    ``kernel_matvec`` skips the centres outside the support of each row
    block, whose values are exactly zero, and sums the rest in sorted order.
    """

    support_radius: float = 1.0
    # _transform takes distances between the points of _scaled
    _distances = True

    def __post_init__(self):
        _check_bandwidth("support_radius", self.support_radius)

    def _scaled(self, X: np.ndarray, name: str) -> np.ndarray:
        """X / support_radius; a non-finite result is a ValueError that names name."""
        R = self.support_radius
        with np.errstate(over="ignore"):
            scaled = X / R
        if not np.isfinite(scaled).all():
            raise ValueError(
                f"{name} divided by support_radius {R!r} overflow: |coordinates| up to "
                f"{float(np.abs(X).max())!r} must stay below support_radius * 1.8e308"
            )
        return scaled

    def _transform(self, r: np.ndarray, work: np.ndarray) -> None:
        """Overwrite scaled distances with the kernel; work is same-shape scratch."""
        np.minimum(r, 1.0, out=r)
        base = np.subtract(1.0, r, out=work)
        np.multiply(base, base, out=base)
        np.multiply(base, base, out=base)
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
        _check_bandwidth("gamma", self.gamma)


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


def _blocks(k, X: np.ndarray, Y: np.ndarray, out=None, reach=None):
    """Yield (rows, cols, block) with block = K[rows, cols], K[i, j] = k(X[i], Y[j]).

    X and Y are in the kernel's ``_scaled`` coordinates.  Each block is built
    in place from explicit coordinate differences (never the expanded
    dot-product identity): subtract, then square and sum over the coordinate
    axis (a square root of the sum, or the absolute difference in 1-D, for
    a kernel that takes distances), then the kernel's transform.  Blocks are
    views of ``out`` when given, else of a scratch buffer that the next block
    overwrites.  With ``reach``, X and Y must be sorted by their first
    coordinate, and a block holds only the columns whose first coordinate
    lies within ``reach`` of its rows' (all of Y otherwise).  The row split
    depends on _BLOCK_ENTRIES and the shapes only, and memory is one set of
    block buffers.  Overflow is silenced while a block is built, not in the
    caller's use of it: a far point's distance overflows to inf, which the
    transform maps to exactly 0.
    """
    n, d = X.shape
    m = Y.shape[0]
    rows = min(n, max(1, _BLOCK_ENTRIES // (m * d)))
    # flat buffers, so that a block narrower than Y is still a contiguous prefix
    diff = np.empty(rows * m * d) if d > 1 else None
    scratch = np.empty(rows * m) if out is None else None
    work = np.empty(rows * m)
    cols = slice(0, m)
    if reach is not None:
        first = np.arange(0, n, rows)
        last = np.minimum(first + rows, n) - 1
        # Rounding is monotone, so y1 < fl(x1 - reach) implies x1 - y1 > reach,
        # hence a computed |x1 - y1| >= reach; a column with
        # y1 == fl(x1 -/+ reach) may lie within reach and is kept.
        lo = np.searchsorted(Y[:, 0], X[first, 0] - reach, side="left")
        hi = np.searchsorted(Y[:, 0], X[last, 0] + reach, side="right")
    for b, start in enumerate(range(0, n, rows)):
        stop = min(n, start + rows)
        if reach is not None:
            cols = slice(lo[b], hi[b])
        Yb = Y[cols]
        shape = (stop - start, Yb.shape[0])
        entries = shape[0] * shape[1]
        block = scratch[:entries].reshape(shape) if out is None else out[start:stop]
        with np.errstate(over="ignore"):
            if d == 1:
                np.subtract(X[start:stop], Yb.T, out=block)
                if k._distances:
                    np.abs(block, out=block)
                else:
                    np.multiply(block, block, out=block)
            else:
                t = diff[: entries * d].reshape(shape + (d,))
                np.subtract(X[start:stop, None, :], Yb[None, :, :], out=t)
                np.multiply(t, t, out=t)
                np.sum(t, axis=-1, out=block)
                if k._distances:
                    np.sqrt(block, out=block)
            k._transform(block, work[:entries].reshape(shape))
        yield slice(start, stop), cols, block


def _kernel_diag(k, n: int) -> np.ndarray:
    """k(x, x) at n points: the kernel's transform of zero distances."""
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
    Xs = k._scaled(X, "X")
    for _ in _blocks(k, Xs, Xs if Y is X else k._scaled(Y, "Y"), out):
        pass
    return out


def kernel_matvec(k, X, C, a) -> np.ndarray:
    """pairwise(k, X, C) @ a without forming the (len(X), len(C)) matrix.

    Each row block is multiplied by ``a`` as soon as it is built, so memory
    stays bounded by a few blocks.  When all rows fit in one block it is
    bitwise equal to ``pairwise(k, X, C) @ a``; otherwise it agrees up to
    the rounding of row-split BLAS products.

    For a Wendland kernel the scaled rows and centres (coordinates divided
    by the support radius) are sorted by their first coordinate, and each
    block of sorted rows is evaluated only against the centres whose first
    scaled coordinate lies within 1 of the block's first-coordinate range;
    the values are scattered back to the caller's row order.  Since
    |x_1 - c_1| <= ||x - c||, every skipped column is exactly zero in any
    dimension, but the remaining ones are summed in sorted order over a
    window that depends on the block size, so the result agrees with
    ``pairwise(k, X, C) @ a`` to rounding.  The rows are sorted on all scaled
    coordinates and equal ones are evaluated once, so the value of each row
    is bitwise independent of the row order.
    """
    X, C = _point_pair(k, X, C)
    a = np.asarray(a, dtype=float)
    if a.shape != (C.shape[0],):
        raise ValueError(f"a must have shape ({C.shape[0]},), got {a.shape}")
    out = np.empty(X.shape[0])
    if not isinstance(k, WendlandC2):
        for rows, _, block in _blocks(k, X, C):
            np.matmul(block, a, out=out[rows])
        return out
    X, C = k._scaled(X, "X"), k._scaled(C, "C")
    order = np.lexsort(X.T[::-1])
    X = X[order]
    # one evaluation per distinct row: equal rows in different blocks could
    # otherwise get different roundings, and the row order would show
    distinct = np.ones(X.shape[0], dtype=bool)
    distinct[1:] = (X[1:] != X[:-1]).any(axis=1)
    X = X[distinct]
    by_first = np.argsort(C[:, 0], kind="stable")
    C, a = C[by_first], a[by_first]
    # in scaled coordinates the support is r < 1: a computed |x1 - c1| >= 1
    # gives a computed r >= 1 and a value of exactly 0
    values = np.empty(X.shape[0])
    for rows, cols, block in _blocks(k, X, C, reach=1.0):
        np.matmul(block, a[cols], out=values[rows])
    out[order] = values[np.cumsum(distinct) - 1]
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


def _inner(base, p: EmpiricalMeasure, q: EmpiricalMeasure) -> float:
    """sum_ij w_i v_j k(x_i, y_j): the inner product of two kernel mean embeddings."""
    return float(p.weights @ kernel_matvec(base, p.atoms, q.atoms, q.weights))


def _mmd_from_self_terms(base, p, q, kxx: float, kyy: float) -> float:
    """mmd_squared(base, p, q) given kxx = _inner(base, p, p) and kyy = _inner(base, q, q)."""
    value = (kxx + kyy) - 2.0 * _inner(base, p, q)
    if value < 0.0:
        if value < -1e-8:
            raise NumericalError(f"mmd_squared produced {value!r}, below the -1e-8 bug threshold")
        log.info("mmd_squared clamped %r to 0", value)
        value = 0.0
    return value


def mmd_squared(base, p: EmpiricalMeasure, q: EmpiricalMeasure) -> float:
    """Squared maximum mean discrepancy between two empirical measures.

    sum_ij w_i w_j k(x_i, x_j) + sum_ij v_i v_j k(y_i, y_j)
        - 2 sum_ij w_i v_j k(x_i, y_j)

    Each term is w @ kernel_matvec(...), so memory is bounded by the
    evaluation block, not by the number of atoms.  Nonnegative up to
    roundoff; tiny negative values are clamped to 0 and logged at INFO,
    magnitudes below -1e-8 raise NumericalError.  When p and q hold
    identical arrays all three terms share one arithmetic path, so the
    result is exactly 0.
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
