"""Regularized empirical risk minimization in kernel span.

Solvers return representer expansions over the training inputs: a direct
kernel ridge solve, a subgradient method for convex Lipschitz losses, and a
direct solve for the pairwise ranking objective, an exact quadratic.
Clipping and the empirical risk functional round out the toolkit.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .kernels import gram_matrix
from .rkhs import RkhsFunction
from .util import NumericalError, as_points

__all__ = [
    "Dataset",
    "SquaredLoss",
    "AbsoluteLoss",
    "PinballLoss",
    "RankingSquaredLoss",
    "FitConfig",
    "FitInfo",
    "fit_kernel_ridge",
    "fit_erm",
    "fit_pairwise",
    "clip",
    "ClippedFunction",
    "empirical_risk",
]

log = logging.getLogger(__name__)


@dataclass(frozen=True, eq=False)
class Dataset:
    """Supervised sample: inputs (n, d), real outputs (n,)."""

    inputs: np.ndarray
    outputs: np.ndarray

    def __post_init__(self):
        X = as_points(self.inputs, "inputs")
        y = np.asarray(self.outputs, dtype=float)
        if y.shape != (X.shape[0],):
            raise ValueError(f"outputs must have shape ({X.shape[0]},), got {y.shape}")
        if not np.all(np.isfinite(y)):
            raise ValueError("outputs must be finite")
        object.__setattr__(self, "inputs", X)
        object.__setattr__(self, "outputs", y)

    @property
    def n(self) -> int:
        return self.inputs.shape[0]


@dataclass(frozen=True)
class SquaredLoss:
    """L(y, t) = (y - t)^2.

    Lipschitz only on bounded output ranges; if a range-restricted constant
    is known it can be stored, otherwise lipschitz_constant stays None and
    Lipschitz-based bounds do not apply.
    """

    lipschitz_constant: float | None = None

    def values(self, y, t):
        r = y - t
        return r * r

    def subgradient(self, y, t):
        return 2.0 * (t - y)


@dataclass(frozen=True)
class AbsoluteLoss:
    """L(y, t) = |y - t|, Lipschitz constant 1."""

    @property
    def lipschitz_constant(self) -> float:
        return 1.0

    def values(self, y, t):
        return np.abs(y - t)

    def subgradient(self, y, t):
        # subgradient choice 0 at residual 0
        return -np.sign(y - t)


@dataclass(frozen=True)
class PinballLoss:
    """Quantile loss: tau * r for residual r = y - t >= 0, (tau - 1) * r below.

    At residual exactly 0 the subgradient uses the (tau - 1) branch, a
    deterministic tie-break.  PinballLoss(0.5) equals AbsoluteLoss / 2.
    """

    tau: float

    def __post_init__(self):
        if not (np.isfinite(self.tau) and 0.0 < self.tau < 1.0):
            raise ValueError(f"tau must lie strictly in (0, 1), got {self.tau!r}")

    @property
    def lipschitz_constant(self) -> float:
        return max(self.tau, 1.0 - self.tau)

    def values(self, y, t):
        r = np.asarray(y - t, dtype=float)
        return np.where(r >= 0.0, self.tau * r, (self.tau - 1.0) * r)

    def subgradient(self, y, t):
        r = np.asarray(y - t, dtype=float)
        return np.where(r > 0.0, -self.tau, 1.0 - self.tau)


@dataclass(frozen=True)
class RankingSquaredLoss:
    """Pairwise loss ((y_i - y_j) - (t_i - t_j))^2 averaged over all pairs."""

    def pair_values(self, dy, dt):
        r = dy - dt
        return r * r


# loss name -> (class, default solver, solvers that minimise it)
_LOSSES = {
    "squared": (SquaredLoss, "ridge", ("ridge", "subgradient")),
    "absolute": (AbsoluteLoss, "subgradient", ("subgradient",)),
    "pinball": (PinballLoss, "subgradient", ("subgradient",)),
    "ranking_squared": (RankingSquaredLoss, "pairwise", ("pairwise",)),
}


@dataclass(frozen=True)
class FitConfig:
    """Solver knobs: lam for every solver; max_iters, step_size0 and tol for fit_erm only."""

    lam: float
    max_iters: int = 1000
    step_size0: float = 1.0
    tol: float = 1e-8

    def __post_init__(self):
        if not (np.isfinite(self.lam) and self.lam > 0.0):
            raise ValueError(f"lam must be positive, got {self.lam!r}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")
        if not (np.isfinite(self.step_size0) and self.step_size0 > 0.0):
            raise ValueError(f"step_size0 must be positive, got {self.step_size0!r}")
        if not (np.isfinite(self.tol) and self.tol >= 0.0):
            raise ValueError(f"tol must be >= 0, got {self.tol!r}")


@dataclass(frozen=True)
class FitInfo:
    """Fit diagnostics: objective, objective of alpha = 0, iterations, gradient norm, exit state."""

    objective: float
    objective_at_zero: float
    n_iters: int
    grad_norm: float
    converged: bool


def _mirror_lower(A: np.ndarray) -> None:
    """Copy A's strict lower triangle onto its strict upper one, a row at a time."""
    for i in range(A.shape[0] - 1):
        A[i, i + 1 :] = A[i + 1 :, i]


def _jittered_cholesky_solve(A: np.ndarray, shift: float, b: np.ndarray, lam: float) -> np.ndarray:
    """Solve (A + shift * I) x = b by Cholesky for exactly symmetric A, overwriting A.

    A is shifted and factored in place: LAPACK gets the F-contiguous view A.T,
    the same matrix since A is symmetric, so no n x n copy is made.  After a
    failed factorization, rebuild the triangle LAPACK overwrote from the
    untouched one and the diagonal from a saved copy, add 1e-12 * trace(A) / n
    to the diagonal and retry with 10x the jitter, at most three times, then
    raise NumericalError.  Each escalation is logged as a WARNING.
    """
    n = A.shape[0]
    jitter = 1e-12 * float(np.trace(A)) / n
    diag = np.diag_indices(n)
    A[diag] += shift
    d = A.diagonal().copy()
    attempt = 0
    while True:
        try:
            factor = cho_factor(A.T, lower=True, overwrite_a=True, check_finite=False)
            break
        except np.linalg.LinAlgError:
            if attempt >= 3:
                raise NumericalError(
                    f"Cholesky failed after {attempt} jitter escalations (n={n}, lam={lam!r})"
                ) from None
            attempt += 1
            log.warning(
                "Cholesky failed; jitter escalation %d of 3 adds %r to the diagonal (n=%d, lam=%r)",
                attempt,
                jitter,
                n,
                lam,
            )
            _mirror_lower(A)
            d += jitter
            A[diag] = d
            jitter *= 10.0
    return cho_solve(factor, b, check_finite=False)


def fit_kernel_ridge(data: Dataset, kernel, lam: float) -> RkhsFunction:
    """Solve (K + n * lam * I) alpha = y and return the representer expansion.

    Cholesky with escalating jitter: on factorization failure, add
    1e-12 * trace(K) / n to the diagonal and retry with 10x the jitter,
    at most three times, then raise NumericalError.
    """
    if not (np.isfinite(lam) and lam > 0.0):
        raise ValueError(f"lam must be positive, got {lam!r}")
    A = gram_matrix(kernel, data.inputs)
    alpha = _jittered_cholesky_solve(A, data.n * lam, data.outputs, lam)
    return RkhsFunction(kernel, data.inputs, alpha)


def fit_erm(
    data: Dataset, kernel, loss, cfg: FitConfig, return_info: bool = False
) -> RkhsFunction | tuple[RkhsFunction, FitInfo]:
    """Subgradient descent for (1/n) sum L(y_i, f(x_i)) + lam * ||f||_H^2.

    Steps follow step_size0 / sqrt(t); the best iterate by objective is
    returned, starting the comparison at alpha = 0, so the result never
    exceeds the objective of the zero function.  Two n x n matvecs per
    iteration: fvals = K @ alpha serves the gradient's penalty term and the
    objective's penalty alpha @ fvals.
    """
    K = gram_matrix(kernel, data.inputs)
    y = data.outputs
    n = data.n
    alpha = np.zeros(n)
    fvals = np.zeros(n)

    def objective(a, fv):
        # overflow here is handled by the explicit finiteness check below
        with np.errstate(over="ignore", invalid="ignore"):
            return float(np.mean(loss.values(y, fv)) + cfg.lam * (a @ fv))

    best_alpha = alpha
    best_obj = obj_zero = objective(alpha, fvals)
    grad_norm = np.inf
    iters_run = 0
    for t in range(1, cfg.max_iters + 1):
        with np.errstate(over="ignore", invalid="ignore"):
            grad = (K @ loss.subgradient(y, fvals)) / n + (2.0 * cfg.lam) * fvals
            grad_norm = float(np.linalg.norm(grad))
            if grad_norm <= cfg.tol:
                break
            step = cfg.step_size0 / np.sqrt(t)
            alpha = alpha - step * grad
            fvals = K @ alpha
        obj = objective(alpha, fvals)
        if not np.isfinite(obj):
            raise NumericalError(
                f"objective became non-finite at iteration {t} (step {float(step):g}); "
                "reduce step_size0"
            )
        if obj < best_obj:
            best_obj = obj
            best_alpha = alpha
        iters_run = t
    result = RkhsFunction(kernel, data.inputs, best_alpha)
    if not return_info:
        return result
    return result, FitInfo(best_obj, obj_zero, iters_run, grad_norm, grad_norm <= cfg.tol)


def _centre(v: np.ndarray) -> np.ndarray:
    """P v for the centring matrix P; shifting by v[0] first centres constant v to exact zeros."""
    c = v - v[0]
    c -= c.mean()
    return c


def fit_pairwise(
    data: Dataset, kernel, loss: RankingSquaredLoss, cfg: FitConfig, return_info: bool = False
) -> RkhsFunction | tuple[RkhsFunction, FitInfo]:
    """Exact minimiser of the mean pairwise ranking objective.

    (1/n^2) sum_ij ((y_i - y_j) - (f(x_i) - f(x_j)))^2 + lam * ||f||_H^2
    equals (2/n) ||P (y - K alpha)||^2 + lam * alpha' K alpha, P = I - 11'/n,
    a quadratic minimised by (P K P + (n lam / 2) I) alpha = P y.  That
    system is positive definite and is solved on the ridge solver's jittered
    Cholesky path; its solution sums to zero, so it also solves
    ((2/n) P K + lam I) alpha = (2/n) P y.  FitInfo reports n_iters = 0,
    converged = True and the gradient norm at the solution; cfg supplies
    only lam.
    """
    if not isinstance(loss, RankingSquaredLoss):
        raise TypeError("fit_pairwise requires RankingSquaredLoss")
    if data.n < 2:
        raise ValueError("pairwise fitting needs at least 2 observations")
    K = gram_matrix(kernel, data.inputs)
    n = data.n
    lam = cfg.lam
    # P K P = K - m 1' - 1 m' + mean(m) for symmetric K with row means m; its
    # two triangles round differently and the in-place solve needs exact
    # symmetry, so the lower triangle is copied onto the upper one
    m = K.mean(axis=1)
    A = K - m[:, None]
    A -= m
    A += m.mean()
    _mirror_lower(A)
    yc = _centre(data.outputs)
    alpha = _jittered_cholesky_solve(A, 0.5 * n * lam, yc, lam)
    del A
    result = RkhsFunction(kernel, data.inputs, alpha)
    if not return_info:
        return result
    fvals = K @ alpha
    pr = yc - _centre(fvals)
    objective = float((2.0 / n) * (pr @ pr) + lam * (alpha @ fvals))
    grad_norm = float(np.linalg.norm(K @ (2.0 * lam * alpha - (4.0 / n) * pr)))
    return result, FitInfo(objective, float((2.0 / n) * (yc @ yc)), 0, grad_norm, True)


@dataclass(frozen=True, eq=False)
class ClippedFunction:
    """Pointwise clamp of a function into [-bound, bound]."""

    inner: object
    bound: float

    def __call__(self, x):
        values = self.inner(x)
        if np.isscalar(values) or np.ndim(values) == 0:
            return float(min(self.bound, max(-self.bound, float(values))))
        return np.clip(values, -self.bound, self.bound)


def clip(f, bound: float) -> ClippedFunction:
    """Clamp predictions into [-bound, bound]; idempotent, 1-Lipschitz in values."""
    if not (np.isfinite(bound) and bound > 0.0):
        raise ValueError(f"bound must be positive, got {bound!r}")
    return ClippedFunction(f, float(bound))


def empirical_risk(f, data: Dataset, loss) -> float:
    """Mean loss of f over the dataset: (1/n) sum L(y_i, f(x_i))."""
    values = np.asarray(f(data.inputs), dtype=float)
    return float(np.mean(loss.values(data.outputs, values)))
