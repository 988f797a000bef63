"""Metrics of convergence in probability over weighted distance samples.

A PairedSample holds pointwise distances between two functions together with
probability weights.  Two metrics consume it: the Ky Fan metric
inf{eps >= 0 : P(d > eps) <= eps} and the integrated-psi metric
sum_j w_j psi(d_j) for a bounded subadditive transform psi.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .util import as_points, as_weights

__all__ = [
    "RatioPsi",
    "CappedPsi",
    "TabulatedPsi",
    "PairedSample",
    "PsiValidationReport",
    "apply_psi",
    "validate_psi",
    "psi_metric",
    "ky_fan_metric",
    "paired_sample",
]


@dataclass(frozen=True)
class RatioPsi:
    """psi(x) = x / (1 + x): strictly increasing, concave, limit 1."""

    def raw(self, x: np.ndarray) -> np.ndarray:
        return x / (1.0 + x)


@dataclass(frozen=True)
class CappedPsi:
    """psi(x) = min(1, x): the identity capped at 1."""

    def raw(self, x: np.ndarray) -> np.ndarray:
        return np.minimum(1.0, x)


@dataclass(frozen=True)
class TabulatedPsi:
    """Piecewise-linear transform tabulated on a grid starting at 0.

    Values are linearly interpolated between knots and held constant beyond
    the last knot.  The table is taken as given; whether it satisfies the
    psi axioms is the job of validate_psi, which inspects the raw
    (unclamped) interpolant.
    """

    grid_x: tuple
    grid_y: tuple

    def __post_init__(self):
        gx = tuple(float(v) for v in self.grid_x)
        gy = tuple(float(v) for v in self.grid_y)
        if len(gx) != len(gy) or len(gx) < 2:
            raise ValueError("grid_x and grid_y must have equal length >= 2")
        if not all(np.isfinite(gx)) or not all(np.isfinite(gy)):
            raise ValueError("grid values must be finite")
        if gx[0] != 0.0:
            raise ValueError("grid_x must start at 0")
        if any(b <= a for a, b in zip(gx, gx[1:])):
            raise ValueError("grid_x must be strictly increasing")
        object.__setattr__(self, "grid_x", gx)
        object.__setattr__(self, "grid_y", gy)

    def raw(self, x: np.ndarray) -> np.ndarray:
        return np.interp(x, self.grid_x, self.grid_y)


# psi kind name -> class; the config parser and StudyConfig read this one list
_PSI_KINDS = {"ratio": RatioPsi, "capped": CappedPsi, "custom": TabulatedPsi}


def apply_psi(psi, x):
    """Evaluate psi on nonnegative distances, clamped into [0, 1]."""
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError("distances must be finite")
    if np.any(arr < 0.0):
        raise ValueError("distances must be nonnegative")
    out = np.clip(psi.raw(arr), 0.0, 1.0)
    return float(out) if np.isscalar(x) or arr.ndim == 0 else out


@dataclass(frozen=True)
class PsiValidationReport:
    """Axiom check result: passed flag plus one message per failed axiom."""

    passed: bool
    failures: tuple

    def __str__(self) -> str:
        if self.passed:
            return "psi axioms: pass"
        return "psi axioms: FAIL\n" + "\n".join(f"  - {msg}" for msg in self.failures)


def _psi_grid(grid_max: float, grid_n: int) -> np.ndarray:
    """The grid_n evenly spaced points of [0, grid_max] that validate_psi checks."""
    if not (np.isfinite(grid_max) and grid_max > 0.0):
        raise ValueError(f"grid_max must be positive, got {grid_max!r}")
    if grid_n < 2:
        raise ValueError(f"grid_n must be >= 2, got {grid_n}")
    return np.linspace(0.0, grid_max, grid_n)


def validate_psi(psi, grid_max: float = 10.0, grid_n: int = 1000) -> PsiValidationReport:
    """Check the psi axioms numerically on [0, grid_max].

    Verified on the raw (unclamped) transform: psi(0) = 0, psi(x) > 0 for
    x > 0, values in [0, 1], monotone nondecreasing, and subadditivity
    psi(a + b) <= psi(a) + psi(b) over all grid pairs.  Violations are
    reported, not raised.
    """
    grid = _psi_grid(grid_max, grid_n)
    y = np.asarray(psi.raw(grid), dtype=float)
    r = lambda v: repr(float(v))
    failures = []
    if not np.all(np.isfinite(y)):
        i = int(np.argmin(np.isfinite(y)))
        failures.append(f"non-finite value psi({r(grid[i])}) = {r(y[i])}")
        return PsiValidationReport(False, tuple(failures))
    if y[0] != 0.0:
        failures.append(f"psi(0) = {r(y[0])}, expected 0")
    pos = y[1:] <= 0.0
    if np.any(pos):
        i = int(np.argmax(pos)) + 1
        failures.append(f"psi({r(grid[i])}) = {r(y[i])} is not > 0")
    out_of_range = (y < 0.0) | (y > 1.0)
    if np.any(out_of_range):
        i = int(np.argmax(out_of_range))
        failures.append(f"psi({r(grid[i])}) = {r(y[i])} outside [0, 1]")
    drops = np.diff(y) < 0.0
    if np.any(drops):
        i = int(np.argmax(drops))
        failures.append(f"psi decreases between {r(grid[i])} and {r(grid[i + 1])}")
    sums = grid[:, None] + grid[None, :]
    lhs = np.asarray(psi.raw(sums), dtype=float)
    rhs = y[:, None] + y[None, :]
    bad = lhs > rhs + 1e-12
    if np.any(bad):
        i, j = np.unravel_index(int(np.argmax(bad)), bad.shape)
        failures.append(
            f"subadditivity fails: psi({r(sums[i, j])}) = {r(lhs[i, j])} "
            f"> psi({r(grid[i])}) + psi({r(grid[j])}) = {r(rhs[i, j])}"
        )
    return PsiValidationReport(not failures, tuple(failures))


@dataclass(frozen=True, eq=False)
class PairedSample:
    """Pointwise distances between two functions with probability weights."""

    distances: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        d = np.asarray(self.distances, dtype=float)
        if d.ndim != 1 or d.size == 0:
            raise ValueError(f"distances must be a nonempty 1-D array, got shape {d.shape}")
        if not np.all(np.isfinite(d)):
            raise ValueError("distances must be finite")
        if np.any(d < 0.0):
            raise ValueError("distances must be nonnegative")
        object.__setattr__(self, "distances", d)
        object.__setattr__(self, "weights", as_weights(self.weights, d.size))


def paired_sample(f, g, pts, weights=None) -> PairedSample:
    """Evaluate two function handles on shared points and collect |f - g|.

    Handles take an (n, d) array and return (n,) values or (n, k) vectors;
    vector outputs are reduced with the Euclidean norm per point.  Weights
    default to uniform.
    """
    X = as_points(pts, "pts")
    fv = np.asarray(f(X), dtype=float)
    gv = np.asarray(g(X), dtype=float)
    if fv.shape != gv.shape or fv.shape[0] != X.shape[0]:
        raise ValueError(f"function outputs disagree: {fv.shape} vs {gv.shape} on {X.shape[0]} points")
    diff = fv - gv
    dist = np.abs(diff) if diff.ndim == 1 else np.sqrt((diff * diff).sum(axis=1))
    if weights is None:
        weights = np.full(X.shape[0], 1.0 / X.shape[0])
    return PairedSample(dist, weights)


def psi_metric(psi, sample: PairedSample) -> float:
    """Integrated-psi metric sum_j w_j psi(d_j), in [0, 1]."""
    return float(np.dot(sample.weights, apply_psi(psi, sample.distances)))


def ky_fan_metric(sample: PairedSample) -> float:
    """Ky Fan metric: the smallest eps >= 0 with P(d > eps) <= eps, in closed form.

    Sort the positive-weight distances once, stably, to d_(1) <= ... <= d_(m)
    and let S_i be the weight of d_(i), ..., d_(m), with S_(m+1) = 0.  Each
    c_i = d_(i) if S_(i+1) <= d_(i), else S_(i+1), is feasible, since
    P(d > c_i) <= S_(i+1) <= c_i, and so is S_1; the metric is
    min(S_1, min_i c_i).  The minimum is attained at the last element of a
    run of tied distances, whose mass above is exactly the exceedance mass
    P(d > d_(i)).  A -0.0 result is returned as 0.0.
    """
    keep = sample.weights > 0.0
    d = sample.distances[keep]
    order = np.argsort(d, kind="stable")
    ds = d[order]
    suffix = np.cumsum(sample.weights[keep][order][::-1])[::-1]
    above = np.append(suffix[1:], 0.0)
    return float(min(suffix[0], np.where(above <= ds, ds, above).min())) + 0.0
