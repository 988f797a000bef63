"""Bounded positive definite kernels on R^d and on empirical measures.

Point-level kernels (Gaussian RBF, compactly supported Wendland C^2) are
evaluated through one row-block path (``_blocks``) so that k(x, y) == k(y, x)
bitwise, Gram entries agree bitwise with pairwise evaluation, and kernel
expansions are evaluated without holding the full kernel matrix.  The
Gaussian takes squared distances and divides them by gamma^2; the Wendland
kernel divides the coordinates by its support radius once per call and
takes scaled distances r = |x' - c'| (1-D) or sqrt(sum (x' - c')^2).  A 1-D
Wendland expansion is evaluated as a piecewise quintic instead: between
consecutive support events it is one quintic, whose Taylor coefficients
about both ends of the piece come from double-double running sums of the
coefficients' powers, and each point takes Horner's rule about the nearer
end.  The work per point does not grow with the number of centres, the
result agrees with ``pairwise(k, X, C) @ a`` to rounding relative to
sum |a_i k(x, c_i)|, and it is exactly 0 outside every support.  Every
other expansion, a Wendland one in d > 1 included, is multiplied out row
block by row block.  On top of them sits a measure-level Gaussian kernel:
a Gaussian of the maximum mean discrepancy between two empirical measures.
"""

from __future__ import annotations

import logging
import math
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
    ``kernel_matvec`` evaluates a 1-D expansion as a piecewise quintic.
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


def _blocks(k, X: np.ndarray, Y: np.ndarray, out=None):
    """Yield (rows, block) with block = K[rows], K[i, j] = k(X[i], Y[j]).

    X and Y are in the kernel's ``_scaled`` coordinates.  Each block is built
    in place from explicit coordinate differences (never the expanded
    dot-product identity): subtract, then square and sum over the coordinate
    axis (a square root of the sum, or the absolute difference in 1-D, for
    a kernel that takes distances), then the kernel's transform.  Blocks are
    views of ``out`` when given, else of a scratch buffer that the next block
    overwrites.  The row split depends on _BLOCK_ENTRIES and the shapes
    only, and memory is one set of block buffers.  Overflow is silenced
    while a block is built, not in the caller's use of it: a far point's
    distance overflows to inf, which the transform maps to exactly 0.
    """
    n, d = X.shape
    m = Y.shape[0]
    rows = min(n, max(1, _BLOCK_ENTRIES // (m * d)))
    diff = np.empty((rows, m, d)) if d > 1 else None
    scratch = np.empty((rows, m)) if out is None else None
    work = np.empty((rows, m))
    for start in range(0, n, rows):
        stop = min(n, start + rows)
        block = scratch[: stop - start] if out is None else out[start:stop]
        with np.errstate(over="ignore"):
            if d == 1:
                np.subtract(X[start:stop], Y.T, out=block)
                if k._distances:
                    np.abs(block, out=block)
                else:
                    np.multiply(block, block, out=block)
            else:
                t = diff[: stop - start]
                np.subtract(X[start:stop, None, :], Y[None, :, :], out=t)
                np.multiply(t, t, out=t)
                np.sum(t, axis=-1, out=block)
                if k._distances:
                    np.sqrt(block, out=block)
            k._transform(block, work[: stop - start])
        yield slice(start, stop), block


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


# The Wendland kernel in scaled 1-D coordinates: phi(t) = (1 - t)^4 (4t + 1) =
# 1 - 10t^2 + 20t^3 - 15t^4 + 4t^5 on [0, 1).  For a point x with anchor
# o = floor(x), u = x - o and a centre c with w = c - o, a term left of x
# (c <= x) is phi(u - w) = sum_j u^j g_j(-w) and a term right of it is
# phi(w - u) = sum_j u^j (-1)^j g_j(w), with g_j = phi^(j) / j! =
# sum_k _TAYLOR[k, j] w^k.  Over left centres L and right centres R the
# coefficient of u^j is therefore
#   G_j = sum_k _TAYLOR[k, j] (-1)^k (sum_L a w^k + (-1)^(j + k) sum_R a w^k).
_PHI = (1.0, 0.0, -10.0, 20.0, -15.0, 4.0)
_TAYLOR = np.array(
    [[math.comb(k + j, j) * _PHI[k + j] if k + j < 6 else 0.0 for j in range(6)] for k in range(6)]
)
_SIGNED_TAYLOR = _TAYLOR * np.array([1.0, -1.0] * 3)[:, None]  # (-1)^k _TAYLOR[k, j]
# the 21 products _SIGNED_TAYLOR[k, j] X[(j + k) % 2, k], j + k <= 5, in
# blocks of equal k; row (j + k) % 2 * 6 + k of the stacked (12, pieces) X
_TERM_K, _TERM_J = (np.array(v) for v in zip(*[(k, j) for k in range(6) for j in range(6 - k)]))
_TERM_ROW = (_TERM_J + _TERM_K) % 2 * 6 + _TERM_K
_TERM_FACTOR = _SIGNED_TAYLOR[_TERM_K, _TERM_J][:, None]
_TERM_BLOCKS = np.cumsum([0] + [6 - k for k in range(6)])
# _BINOMIAL[j, k] = C(k, j): about v, sum_k G_k u^k has coefficients
# sum_k C(k, j) v^(k - j) G_k of (u - v)^j
_BINOMIAL = np.array([[math.comb(k, j) for k in range(6)] for j in range(6)], dtype=float)

# A 1-D Wendland evaluation takes its sorted points in groups: a group's
# anchors keep their tables (anchors times the widest window) within
# _GROUP_CELLS cells, one anchor at least, and it holds at most
# _GROUP_PIECES pieces.  Its points are evaluated _CHUNK_POINTS at a time.
_GROUP_CELLS = _BLOCK_ENTRIES // 32
_GROUP_PIECES = _BLOCK_ENTRIES // 64
_CHUNK_POINTS = _BLOCK_ENTRIES // 4
# Coefficients are scaled by 2^-e so that their largest magnitude in each
# window is below 2^_SCALE_BITS, small enough that no double-double sum or
# split overflows; e = 0 for all but huge coefficients.
_SCALE_BITS = 900

# Double-double arithmetic: a value is an unevaluated pair hi + lo of
# doubles (Dekker 1971; Knuth's TwoSum).  The 1-D Wendland sums are formed in
# it, because their Taylor coefficients cancel near the edge of every
# support, and rounded to doubles once per coefficient.
_SPLIT = 134217729.0  # 2^27 + 1: halves of 26 and 27 bits, whose products are exact


def _split(x, splitter=_SPLIT):
    """(hi, lo) with hi + lo == x exactly (Veltkamp); hi has 53 - log2(splitter - 1) bits."""
    c = splitter * x
    hi = c - x
    np.subtract(c, hi, out=hi)
    np.subtract(x, hi, out=c)
    return hi, c


def _integer_halves(xh, xl, bits):
    """The pair xh + xl as a high part of 53 - bits bits and the rest.

    Times an integer below 2^bits the high part is exact and the rest
    rounds at 2^(bits - 106) of |xh|, so such products need no TwoProduct.
    """
    hi, lo = _split(xh, 2.0**bits + 1.0)
    lo += xl
    return hi, lo


def _add(xh, xl, yh, yl):
    """The pair (xh + xl) + (yh + yl), with the exact error of xh + yh (TwoSum)."""
    s = xh + yh
    v = s - xh
    e = s - v
    np.subtract(xh, e, out=e)
    np.subtract(yh, v, out=v)
    e += v
    e += xl
    e += yl
    return s, e


def _sub(xh, xl, yh, yl):
    """The pair (xh + xl) - (yh + yl)."""
    return _add(xh, xl, -yh, -yl)


def _mul(xh, xl, y, halves, out=None):
    """The pair (xh + xl) * y, for a double y with halves = _split(y) (Dekker)."""
    p, e = (None, None) if out is None else out
    p = np.multiply(xh, y, out=p)
    hi, lo = _split(xh)
    e = np.multiply(hi, halves[0], out=e)
    e -= p
    hi *= halves[1]
    e += hi
    np.multiply(lo, halves[0], out=hi)
    e += hi
    lo *= halves[1]
    e += lo
    np.multiply(xl, y, out=lo)
    e += lo
    return p, e


def _support_events(C: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For sorted scaled centres C: the first x at which each enters and leaves the support.

    enter[i] is the least double x with fl(C[i] - x) < 1 and leave[i] the
    least with fl(x - C[i]) >= 1: the computed distance, as ``pairwise``
    takes it, decides, so C[i] contributes to x exactly when
    enter[i] <= x < leave[i].  Both are nondecreasing in C.  fl(s) < 1 exactly
    when s < 1 - 2^-54, so each lies within two ulps of
    fl(fl(C -/+ 1) +/- 2^-54), which is exact where the ulps are finer than
    2^-54; the least of the candidates around it that passes the computed
    test is taken.
    """

    def least(z, test):
        above = np.nextafter(z, np.inf)
        candidates = (np.nextafter(z, -np.inf), z, above, np.nextafter(above, np.inf))
        first = candidates[-1]
        for c in candidates[-2::-1]:
            first = np.where(test(c), c, first)
        return first

    with np.errstate(over="ignore"):
        enter = least((C - 1.0) + 2.0**-54, lambda x: C - x < 1.0)
        leave = least((C + 1.0) - 2.0**-54, lambda x: x - C >= 1.0)
    return enter, leave


def _sorted_distinct(v: np.ndarray) -> np.ndarray:
    """The distinct values of v, sorted (np.unique would import numpy.ma, about 1 MiB)."""
    v = np.sort(v)
    return v[np.concatenate(([True], v[1:] != v[:-1]))]


def _power_tables(anchors, first, last, C, a):
    """Running sums of a w^k, k = 0 .. 5, over each anchor's window, as pairs.

    The window of anchor o is C[first:last], the centres within computed
    distance 1 of some x with floor(x) = o, and w = C - o.  Entry [k, p, q]
    is the sum over the first q centres of anchor p's window, in
    (6, anchors, widest + 1) arrays of high and low parts.  Each window's
    coefficients are scaled by 2^-e (_SCALE_BITS); the exponents e are
    returned too.  The sums run along each window in order and carry the
    exact rounding error of every step in the low part, so each entry
    depends only on its own window.
    """
    size = last - first
    column = np.arange(int(size.max()) + 1)
    valid = (column >= 1) & (column <= size[:, None])
    centre = np.where(valid, first[:, None] + column - 1, 0)
    w = np.where(valid, C[centre], anchors[:, None]) - anchors[:, None]  # 0 off the window
    coef = np.where(valid, a[centre], 0.0)
    exponent = np.maximum(np.frexp(np.abs(coef).max(axis=1))[1] - _SCALE_BITS, 0)
    high = np.empty((6,) + w.shape)
    low = np.zeros_like(high)
    high[0] = np.ldexp(coef, -exponent[:, None])
    halves = _split(w)
    for k in range(1, 6):
        _mul(high[k - 1], low[k - 1], w, halves, out=(high[k], low[k]))
    run = np.cumsum(high, axis=-1)
    # the exact error of each step before + t of the running sum (TwoSum)
    before, after, t = run[..., :-1], run[..., 1:], high[..., 1:]
    step = after - before
    error = after - step
    np.subtract(before, error, out=error)
    np.subtract(t, step, out=t)
    del high, step
    error += t
    low[..., 1:] += error
    del error
    np.cumsum(low, axis=-1, out=low)
    return run, low, exponent


def _piece_coefficients(starts, ends, owner, anchors, first, last, C, a, enter, leave):
    """Taylor coefficients of the expansion on each piece about both of its ends.

    Piece p covers [starts[p], ends[p]) in the cell of anchor o =
    anchors[owner[p]]; its left centres C[i1:i2] and right centres C[i2:i3]
    give power sums as differences of the anchor's tables, and those give
    the coefficients G_j of u^j, u = x - o, all in double-double.  They are
    shifted to v = starts - o and ends - o and rounded: a (6, 2 * pieces)
    array whose column 2p + side holds the coefficients of (u - v)^j.
    Returns it with each piece's exponent.
    """
    pieces = starts.size
    base = anchors[owner]
    offset = first[owner]
    i1, i2, i3 = (np.searchsorted(v, starts, "right") - offset for v in (leave, C, enter))
    run, low, exponent = _power_tables(anchors, first, last, C, a)
    at = owner * run.shape[-1]
    run, low = run.reshape(6, -1), low.reshape(6, -1)

    def table(i):
        return np.take(run, at + i, axis=1), np.take(low, at + i, axis=1)

    # X[0] = left + right = P3 - P1 and X[1] = left - right = 2 (P2 - P1) - X[0]
    p1 = table(i1)
    plus = _sub(*table(i3), *p1)
    left = _sub(*table(i2), *p1)
    del run, low, p1
    minus = _sub(2.0 * left[0], 2.0 * left[1], *plus)
    del left
    xh, xl = _integer_halves(np.concatenate((plus[0], minus[0])), np.concatenate((plus[1], minus[1])), 7)
    del plus, minus
    th, tl = xh[_TERM_ROW], xl[_TERM_ROW]
    del xh, xl
    th *= _TERM_FACTOR
    tl *= _TERM_FACTOR
    gh, gl = th[:6], tl[:6]
    for k in range(1, 6):
        block = slice(_TERM_BLOCKS[k], _TERM_BLOCKS[k + 1])
        gh[: 6 - k], gl[: 6 - k] = _add(gh[: 6 - k], gl[: 6 - k], th[block], tl[block])
    del th, tl
    gh, gl = _integer_halves(gh, gl, 4)
    v = np.stack((starts - base, ends - base))
    halves = _split(v)
    bh, bl = np.empty((6, 2, pieces)), np.empty((6, 2, pieces))
    bh[:], bl[:] = _BINOMIAL[:, 5, None, None] * gh[5], _BINOMIAL[:, 5, None, None] * gl[5]
    for k in range(4, -1, -1):
        rows = k + 1
        n = _BINOMIAL[:rows, k, None, None]
        bh[:rows], bl[:rows] = _add(*_mul(bh[:rows], bl[:rows], v, halves), n * gh[k], n * gl[k])
    bh += bl
    return bh.transpose(0, 2, 1).reshape(6, -1), exponent[owner]


def _piece_values(xp, starts, ends, beta, exponent):
    """The expansion at sorted points xp of one group, from its pieces' coefficients.

    Each point takes Horner's rule about the nearer end of its piece: the
    points of piece p up to its midpoint form segment 2p, the rest segment
    2p + 1, and a segment's end and coefficients are repeated over its
    points.  Every term's own support edge is an end, so no term is
    expanded about a point farther from x than its distance to its edge,
    and the rounding stays relative to sum |a_i k(x, c_i)|.
    """
    middle = starts + 0.5 * (ends - starts)
    lefts = np.searchsorted(xp, starts)
    # a midpoint that rounds up to the next start still ends its piece
    rights = np.minimum(np.searchsorted(xp, middle, "right"), np.append(lefts[1:], xp.size))
    count = np.diff(np.stack((lefts, rights), axis=1).ravel(), append=xp.size)
    d = xp - np.repeat(np.stack((starts, ends), axis=1).ravel(), count)
    value = np.repeat(beta[5], count)
    for j in range(4, -1, -1):
        value *= d
        value += np.repeat(beta[j], count)
    if exponent.any():
        with np.errstate(over="ignore"):
            np.ldexp(value, np.repeat(exponent, 2)[np.repeat(np.arange(2 * starts.size), count)], out=value)
    value += 0.0  # no -0.0
    return value


def _wendland_line(x: np.ndarray, C: np.ndarray, a: np.ndarray) -> np.ndarray:
    """sum_i a[i] phi(|x - C[i]|) at scaled 1-D points x, as a piecewise quintic.

    The pieces of anchor o start at o and at the support events in its cell
    [o, o + 1), and end at the next start or at o + 1; on a piece the
    expansion is one quintic.  Points are sorted and taken in groups of
    anchors and pieces, from the piece that holds the group's first point
    (_piece_coefficients, _piece_values).  A point's value depends only on
    x, C and a.  With no centre in its support its sums are empty, and it
    reads exactly 0.
    """
    out = np.empty(x.size)
    by_value = np.argsort(C, kind="stable")
    C, a = C[by_value], a[by_value]
    enter, leave = _support_events(C)
    events = _sorted_distinct(np.concatenate((enter, C, leave)))
    cells, enter_cells = np.floor(events), np.floor(enter)
    order = np.argsort(x)
    xs = x[order]
    start = 0
    while start < x.size:
        o = np.floor(xs[start : start + _CHUNK_POINTS]) + 0.0  # no -0.0 anchor
        anchors = o[np.concatenate(([True], o[1:] != o[:-1]))][:_GROUP_PIECES]
        del o
        first = np.searchsorted(leave, anchors, "right")
        last = np.searchsorted(enter_cells, anchors, "right")
        cost = np.maximum.accumulate(last - first + 1) * np.arange(1, anchors.size + 1)
        keep = max(1, int(np.searchsorted(cost, _GROUP_CELLS, "right")))
        anchors = anchors[:keep]
        lower, upper = np.searchsorted(cells, anchors[0]), np.searchsorted(cells, anchors[-1], "right")
        near = cells[lower:upper]
        own = anchors[np.searchsorted(anchors, near)] == near
        starts = _sorted_distinct(np.concatenate((anchors, events[lower:upper][own])))
        owner = np.searchsorted(anchors, np.floor(starts))
        ends = np.minimum(np.append(starts[1:], np.inf), anchors[owner] + 1.0)
        low = int(np.searchsorted(starts, xs[start], "right")) - 1
        high = min(starts.size, low + _GROUP_PIECES)
        if high < starts.size:
            boundary = starts[high]
        else:
            top = anchors[-1] + 1.0
            boundary = top if top > anchors[-1] else np.nextafter(anchors[-1], np.inf)
        starts, ends, owner = starts[low:high], ends[low:high], owner[low:high]
        keep = owner[-1] + 1
        anchors, first, last = anchors[:keep], first[:keep], last[:keep]
        beta, exponent = _piece_coefficients(starts, ends, owner, anchors, first, last, C, a, enter, leave)
        stop = start + int(np.searchsorted(xs[start:], boundary))
        for s in range(start, stop, _CHUNK_POINTS):
            chunk = slice(s, min(stop, s + _CHUNK_POINTS))
            out[order[chunk]] = _piece_values(xs[chunk], starts, ends, beta, exponent)
        start = stop
    return out


def kernel_matvec(k, X, C, a) -> np.ndarray:
    """pairwise(k, X, C) @ a without forming the (len(X), len(C)) matrix.

    Every expansion but a 1-D Wendland one is taken row block by row block
    (``_blocks``), each block multiplied by ``a`` as soon as it is built,
    so memory stays bounded by a few blocks.  When all rows fit in one
    block it is bitwise equal to ``pairwise(k, X, C) @ a``; otherwise it
    agrees up to the rounding of row-split BLAS products.

    A 1-D Wendland expansion is a piecewise quintic (``_wendland_line``):
    the work per point does not grow with len(C).  Where the scaled
    differences x' - c' are exact, each value lies within a few eps
    sum |a_i k(x, c_i)| of ``pairwise(k, X, C) @ a`` (17 eps at most in a
    fuzz) plus the double-double floor, about 2^-88 sum |a_i| over the
    centres within scaled distance 2, which shows only at points near the
    edge of every support that holds them.  Elsewhere ``pairwise`` rounds
    x' - c' itself; each value then lies within 16 eps sum |a_i| over the
    centres within scaled distance 2 (3.2 eps at most in a fuzz of 45 000
    cases).  A point outside every support reads exactly 0, and a point's
    value depends only on x and the expansion, not on the other points,
    their order or how they are grouped.  Coefficients are scaled by a
    power of two per anchor window only where some exceed 2^900, so no sum
    overflows; in such a window, coefficients below 2^-898 lose accuracy.
    Its memory is the tables of one group of anchors (_GROUP_CELLS cells,
    or one window) and _GROUP_PIECES pieces, and the buffers of
    _CHUNK_POINTS points.
    """
    X, C = _point_pair(k, X, C)
    a = np.asarray(a, dtype=float)
    if a.shape != (C.shape[0],):
        raise ValueError(f"a must have shape ({C.shape[0]},), got {a.shape}")
    X, C = k._scaled(X, "X"), k._scaled(C, "C")
    if isinstance(k, WendlandC2) and X.shape[1] == 1:
        return _wendland_line(X[:, 0], C[:, 0], a)
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
