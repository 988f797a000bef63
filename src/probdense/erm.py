"""Regularized empirical risk minimization in kernel span.

Solvers return representer expansions over the training inputs: a direct
kernel ridge solve, an exact active-set solve of the dual box QP for the
pinball and absolute losses (Takeuchi, Le, Sears & Smola, JMLR 7, 2006;
Moré & Toraldo, SIAM J. Optim. 1, 1991), and the ridge solve with a free
intercept for the pairwise ranking objective: one exact solver per loss.
Clipping and the empirical risk functional round out the toolkit.

A Gaussian ridge or ranking fit is solved through a greedy pivoted
Cholesky factor K ~ L L' (Harbrecht, Peters & Schneider, Appl. Numer.
Math. 62, 2012) and the Woodbury identity (Fine & Scheinberg, JMLR 2,
2001), so it never forms the n x n Gram matrix; when the numerical rank is
not small, and for compactly supported kernels, it takes the dense solve
instead, by one rule whatever n is.  A low-rank ridge fit also yields its
projection onto the r pivot sections k(., x_p), an expansion over r
centres with a certified sup-norm distance to the full one; greedy
pivoting is the P-greedy point selection of De Marchi, Schaback & Wendland
(Adv. Comput. Math. 23, 2005).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .kernels import WendlandC2, _kernel_diag, gram_matrix, kernel_matvec, pairwise
from .rkhs import RkhsFunction
from .util import NumericalError, as_points

__all__ = [
    "Dataset",
    "SquaredLoss",
    "AbsoluteLoss",
    "PinballLoss",
    "RankingSquaredLoss",
    "FitInfo",
    "fit_kernel_ridge",
    "fit_quantile",
    "fit_pairwise",
    "clip",
    "ClippedFunction",
    "empirical_risk",
]

log = logging.getLogger(__name__)

# Low-rank solves of K + shift * I: the pivoted Cholesky stops once the residual
# at its next pivot is at most max(_PIVOT_TOL * shift, _PIVOT_FLOOR * max k(x, x)),
# and gives up (dense solve) when that takes more than min(n // 8, _MAX_RANK)
# pivots.  The floor keeps every pivot above the rounding of the residual
# diagonals, a few units of roundoff of the largest diagonal.
_PIVOT_TOL = 1e-14
_PIVOT_FLOOR = 8.0 * np.finfo(float).eps
_MAX_RANK = 512

# Dual active-set solves: stop once every KKT violation is at most
# _KKT_TOL * max(1, max |y|) plus the rounding of f = K alpha; a bound joins
# the free face only when its Schur complement exceeds _DEPENDENT * k(x, x).
# A fit counts as converged only if its relative duality gap is at most _GAP_TOL.
_KKT_TOL = 1e-12
_GAP_TOL = 1e-6
_DEPENDENT = 16.0 * np.finfo(float).eps

# cho_factor factors, and _solve_lower substitutes, _BLOCK columns or rows at
# a time, so no temporary exceeds n x _BLOCK: below about 64, numpy's
# per-call cost dominates the study's small solves; above it, the
# O(_BLOCK^3) diagonal-block solves do.
_BLOCK = 64


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
    """L(y, t) = (y - t)^2, Lipschitz only on bounded output ranges."""

    @property
    def lipschitz_constant(self) -> None:
        """None: no global constant exists, so Lipschitz-based bounds do not apply."""
        return None

    def values(self, y, t):
        r = y - t
        return r * r


@dataclass(frozen=True)
class AbsoluteLoss:
    """L(y, t) = |y - t|, Lipschitz constant 1."""

    @property
    def lipschitz_constant(self) -> float:
        return 1.0

    def values(self, y, t):
        return np.abs(y - t)


@dataclass(frozen=True)
class PinballLoss:
    """Quantile loss: tau * r for residual r = y - t >= 0, (tau - 1) * r below.

    PinballLoss(0.5) equals AbsoluteLoss / 2.
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


@dataclass(frozen=True)
class RankingSquaredLoss:
    """Pairwise loss ((y_i - y_j) - (t_i - t_j))^2 averaged over all pairs."""

    def pair_values(self, dy, dt):
        r = dy - dt
        return r * r


# loss name -> (class, the one solver that minimises it)
_LOSSES = {
    "squared": (SquaredLoss, "ridge"),
    "absolute": (AbsoluteLoss, "dual"),
    "pinball": (PinballLoss, "dual"),
    "ranking_squared": (RankingSquaredLoss, "pairwise"),
}


def _check_lam(lam: float) -> None:
    """Raise ValueError unless the penalty lam is positive and finite."""
    if not (np.isfinite(lam) and lam > 0.0):
        raise ValueError(f"lam must be positive, got {lam!r}")


def _check_spread(y: np.ndarray, lam: float) -> None:
    """NumericalError when the outputs' spread max y - min y overflows, before anything warns."""
    with np.errstate(over="ignore"):
        spread = np.ptp(y)
    if not np.isfinite(spread):
        raise NumericalError(f"outputs' spread max y - min y overflows (n={y.size}, lam={lam!r})")


def _check_objective(objective: float, n: int, lam: float) -> None:
    """NumericalError when a fit's objective, computed under np.errstate, overflowed."""
    if not np.isfinite(objective):
        raise NumericalError(f"fit gave a non-finite objective (n={n}, lam={lam!r})")


def _expansion(kernel, X: np.ndarray, coefficients: np.ndarray, lam: float) -> RkhsFunction:
    """The solved expansion, or NumericalError when the solve overflowed to inf or nan."""
    if not np.all(np.isfinite(coefficients)):
        raise NumericalError(f"solve gave non-finite coefficients (n={X.shape[0]}, lam={lam!r})")
    return RkhsFunction(kernel, X, coefficients)


@dataclass(frozen=True)
class FitInfo:
    """Fit diagnostics: objective, objective of alpha = 0, steps, optimality residual, exit state.

    fit_quantile reports its active-set steps, the 2-norm of its KKT
    violations and the relative gap (P - D) / max(P, tol) between the primal
    objective P and the dual D of the returned fit, tol its KKT tolerance,
    as duality_gap, and converged only when the KKT violations are within
    tol and the gap is at most 1e-6; fit_pairwise, a direct solve, reports
    0 steps, its gradient norm and duality_gap None.
    """

    objective: float
    objective_at_zero: float
    n_iters: int
    grad_norm: float
    converged: bool
    duality_gap: float | None = None


def cho_factor(A: np.ndarray) -> np.ndarray:
    """Overwrite the lower triangle of the symmetric matrix A with its Cholesky factor L; returns A.

    A = L L', left-looking by blocks of _BLOCK columns (Golub & Van Loan,
    Matrix Computations, 4th ed., Sec. 4.2): a block column takes the
    update by the columns left of it, np.linalg.cholesky factors its
    diagonal block D, and the rows below are multiplied by D^-T.  Only the
    lower triangle is read; above the diagonal blocks A keeps its entries,
    and within them it holds zeros.  No temporary is larger than
    n x _BLOCK.  Raises np.linalg.LinAlgError when A is not positive
    definite, with A partly overwritten.
    """
    n = A.shape[0]
    for j in range(0, n, _BLOCK):
        e = min(j + _BLOCK, n)
        A[j:, j:e] -= A[j:, :j] @ A[j:e, :j].T
        D = np.linalg.cholesky(A[j:e, j:e])
        A[j:e, j:e] = D
        if e < n:
            A[e:, j:e] = A[e:, j:e] @ np.linalg.inv(D).T
    return A


def _solve_lower(L: np.ndarray, b: np.ndarray, trans: bool = False) -> np.ndarray:
    """x with L x = b, or L' x = b when trans, for b of shape (n,) or (n, k).

    Block forward (back, when trans) substitution, _BLOCK rows at a time;
    np.linalg.solve solves each diagonal block.  Only the lower triangle of
    L is read, so the factor cho_factor leaves in place serves as it is,
    and an upper triangular U is solved as _solve_lower(U.T, b, trans=True).
    """
    n = L.shape[0]
    x = np.array(b, dtype=float)
    starts = range(0, n, _BLOCK)
    for j in reversed(starts) if trans else starts:
        e = min(j + _BLOCK, n)
        D = np.tril(L[j:e, j:e])
        if trans:
            x[j:e] -= L[e:, j:e].T @ x[e:]
            x[j:e] = np.linalg.solve(D.T, x[j:e])
        else:
            x[j:e] -= L[j:e, :j] @ x[:j]
            x[j:e] = np.linalg.solve(D, x[j:e])
    return x


def _dense_solve(kernel, X: np.ndarray, shift: float, b: np.ndarray, lam: float) -> np.ndarray:
    """Solve (K + shift * I) x = b by Cholesky, building K and factoring it in place.

    cho_factor overwrites the lower triangle of K with the factor, so no
    n x n copy is made.  After a failed factorization, build K again
    (bitwise the same matrix), add 1e-12 * trace(K) / n to the diagonal and
    retry with 10x the jitter, at most three times, then raise
    NumericalError.  Each escalation is logged as a WARNING.
    """
    A = gram_matrix(kernel, X)
    n = A.shape[0]
    jitter = 1e-12 * float(np.trace(A)) / n
    diag = np.diag_indices(n)
    d = A.diagonal() + shift
    attempt = 0
    while True:
        A[diag] = d
        try:
            L = cho_factor(A)
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
        d += jitter
        jitter *= 10.0
        # past the except block the failed call's traceback no longer holds
        # the overwritten K, so releasing it here frees its n x n array
        del A
        A = gram_matrix(kernel, X)
    return _solve_lower(L, _solve_lower(L, b), trans=True)


def _pivoted_cholesky(kernel, X: np.ndarray, tol: float, cap: int):
    """Greedy pivoted Cholesky (Lt, pivots, d) with K ~ Lt' Lt, or None past cap pivots.

    Each step picks the largest accumulated residual diagonal (the first
    index on a tie), evaluates that column of K with one pairwise call and
    subtracts the rows so far; it stops once that diagonal, or the fresh
    residual at the pick, is at most max(tol, _PIVOT_FLOOR * max k(x, x)),
    and otherwise divides the column by the fresh residual's square root,
    so every pivot-block diagonal squares to more than the threshold.  Lt
    has shape (r, n), pivots holds the r pivot indices in order, so
    Lt[:, pivots] is upper triangular (below its diagonal it holds
    rounding, not zeros), and d is the final residual diagonal:
    E = K - Lt' Lt is positive semidefinite with diag E = d <= that
    threshold, up to rounding.  The pivot choice uses no randomness, so the
    factor is deterministic.
    """
    n = X.shape[0]
    Lt = np.empty((cap, n))
    pivots = np.empty(cap, dtype=np.intp)
    d = _kernel_diag(kernel, n)
    tol = max(tol, _PIVOT_FLOOR * float(d.max()))
    for r in range(cap):
        i = int(np.argmax(d))
        if d[i] <= tol:
            return Lt[:r], pivots[:r], d
        row = Lt[r]
        row[:] = pairwise(kernel, X, X[i : i + 1])[:, 0]
        row -= Lt[:r, i] @ Lt[:r]
        if row[i] <= tol:  # the accumulated d[i] overstated it by rounding
            return Lt[:r], pivots[:r], d
        pivots[r] = i
        row /= np.sqrt(row[i])
        d -= row * row
        d[i] = 0.0  # exact: the residual vanishes at a pivot
    return (Lt, pivots, d) if d.max() <= tol else None


def _woodbury_solve(Lt: np.ndarray, shift: float, b: np.ndarray) -> np.ndarray | None:
    """Solve (Lt' Lt + shift * I) x = b with one Cholesky of Lt Lt' + shift * I; None if it fails."""
    M = Lt @ Lt.T
    M[np.diag_indices(M.shape[0])] += shift
    try:
        L = cho_factor(M)
    except np.linalg.LinAlgError:
        return None
    z = _solve_lower(L, _solve_lower(L, Lt @ b), trans=True)
    return (b - Lt.T @ z) / shift


def _shifted_solve(kernel, X: np.ndarray, b: np.ndarray, shift: float, lam: float):
    """Solve (K + shift * I) Z = b, b of shape (n,) or (n, k), on fit_kernel_ridge's paths.

    Returns (Z, factor): the low-rank path's pivoted Cholesky (Lt, pivots, d), or None.
    A solve that overflows gives inf or nan in Z, which the callers check, not a warning.
    """
    n = X.shape[0]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        if isinstance(kernel, WendlandC2):
            # a compactly supported kernel's Gram matrix is not low-rank
            log.info("dense solve: compactly supported kernel")
        else:
            cap = min(n // 8, _MAX_RANK)
            factor = _pivoted_cholesky(kernel, X, _PIVOT_TOL * shift, cap)
            if factor is None:
                log.info("dense solve: rank cap %d reached", cap)
            else:
                Z = _woodbury_solve(factor[0], shift, b)
                if Z is not None:
                    log.info("low-rank solve: rank %d of %d", factor[0].shape[0], n)
                    return Z, factor
                log.info("dense solve: rank-%d factor failed", factor[0].shape[0])
                del factor
        return _dense_solve(kernel, X, shift, b, lam), None


def _ridge_solve(data: Dataset, kernel, lam: float):
    """fit_kernel_ridge's expansion f, plus its pivot-basis projection and bound.

    Returns (f, f_hat, bound).  When the low-rank path ran, f_hat is the
    RKHS-orthogonal projection of f onto the pivot sections k(., x_p),
    sum_p beta_p k(., x_p) with beta = B^-1 (Lt alpha) for the upper
    triangle of the pivot block B = Lt[:, pivots], and for every x
    |f(x) - f_hat(x)| <= P(x) sqrt(alpha' E alpha) <= bound =
    sqrt(max k(x, x) * trace E) * ||alpha||, with P the power function of
    the pivots and E = K - Lt' Lt, up to rounding.  On the dense path, and
    for a rank-0 factor, f_hat and bound are None; a non-finite beta raises
    NumericalError naming the fit's n.
    """
    _check_lam(lam)
    X = data.inputs
    alpha, factor = _shifted_solve(kernel, X, data.outputs, data.n * lam, lam)
    f = _expansion(kernel, X, alpha, lam)
    if factor is None or factor[1].size == 0:
        return f, None, None
    Lt, pivots, d = factor
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        beta = _solve_lower(Lt[:, pivots].T, Lt @ alpha, trans=True)
        kmax = float(_kernel_diag(kernel, 1)[0])
        bound = float(np.sqrt(kmax * d.clip(min=0.0).sum()) * np.linalg.norm(alpha))
    if not np.all(np.isfinite(beta)):
        raise NumericalError(f"pivot-basis projection gave non-finite coefficients (n={data.n}, lam={lam!r})")
    return f, RkhsFunction(kernel, X[pivots], beta), bound


def fit_kernel_ridge(data: Dataset, kernel, lam: float) -> RkhsFunction:
    """Solve (K + n * lam * I) alpha = y and return the representer expansion.

    With s = n * lam, at any n: unless the kernel is compactly supported,
    K is replaced by a greedy pivoted Cholesky factor L L' stopped at
    residual diagonal <= max(1e-14 * s, 8 * eps * max k(x, x)), and
    (L L' + s I) alpha = y is solved by Woodbury with one r x r Cholesky.
    Then ||(K + s I) alpha - y|| <= n * 1e-14 * ||y|| plus rounding (where
    the floor binds, it adds at most 8 * n / s units of roundoff times
    ||y||, the size of the rounding any solve of the system shares), the
    n x n Gram matrix is never formed, and the result is deterministic but
    not bitwise the dense solve.  If the rank would exceed min(n // 8, 512)
    or the r x r factorization fails, and for a WendlandC2 kernel, the dense
    path runs: Cholesky of K + s I with escalating jitter (on failure, add
    1e-12 * trace(K) / n to the diagonal and retry with 10x the jitter, at
    most three times, then raise NumericalError).  One INFO record from
    probdense.erm names the path taken.  The expansion holds all n training
    inputs as centres either way; non-finite coefficients, from a solve
    that overflows, raise NumericalError naming n, with no numpy warning.
    """
    _check_lam(lam)
    alpha, _ = _shifted_solve(kernel, data.inputs, data.outputs, data.n * lam, lam)
    return _expansion(kernel, data.inputs, alpha, lam)


def _cholesky_delete(L: np.ndarray, m: int) -> np.ndarray:
    """Lower Cholesky factor of A without row and column m, from the factor L of A.

    The rows below m keep their first m columns; their trailing block takes
    the rank-one update by the deleted column L[m + 1:, m], which can only
    raise its pivots, so the factor stays valid.
    """
    x = L[m + 1 :, m].copy()
    L = np.delete(np.delete(L, m, axis=0), m, axis=1)
    for k in range(m, L.shape[0]):
        i = k - m
        r = np.hypot(L[k, k], x[i])
        c, s = r / L[k, k], x[i] / L[k, k]
        L[k, k] = r
        L[k + 1 :, k] = (L[k + 1 :, k] + s * x[i + 1 :]) / c
        x[i + 1 :] = c * x[i + 1 :] - s * L[k + 1 :, k]
    return L


def _cholesky_append(L: np.ndarray, v: np.ndarray, d: float) -> np.ndarray:
    """The lower Cholesky factor L grown by the row (v, sqrt(d))."""
    grown = np.zeros((L.shape[0] + 1,) * 2)
    grown[:-1, :-1], grown[-1, :-1], grown[-1, -1] = L, v, np.sqrt(d)
    return grown


def _dual_active_set(K: np.ndarray, y: np.ndarray, tau: float, scale: float, tol: float, lam: float):
    """Minimise (1/2) u' K u / scale - u' y over [tau - 1, tau]^n; returns (u, steps).

    A primal active-set method from the vertex u_i = tau where y_i lies above
    the tau-quantile of y, u_i = tau - 1 elsewhere.  With f = K u / scale and
    r = y - f, the KKT conditions are r_i >= 0 at tau, r_i <= 0 at tau - 1
    and r_i = 0 on the free face F.  Each step either frees the bound with
    the largest violation or, while r_F is not zero, solves K_FF p = r_F by
    the face's Cholesky factor and moves alpha_F = u_F / scale by p, cut
    short where a free point meets a bound, which then leaves F.  A bound
    whose column of K depends on F's (a Schur complement at most
    _DEPENDENT * k(x, x), as for a duplicated input) does not join F: it moves
    along the null direction of K_F,j to the first bound met instead, where
    the objective falls linearly.  f follows each step through the changed
    rows of K and is recomputed from u before the solve may stop, once every
    violation is at most tol, or after 10 n + 100 steps.  At the first of
    these stops one solve by the face's factor sets the free duals,
    u_F = scale K_FF^-1 (y_F - K_FB u_B / scale), which drops the rounding
    the steps left on them.  A step scale * p that overflows raises
    NumericalError naming n and lam.
    """
    lo, hi = tau - 1.0, tau
    u = np.where(y > np.quantile(y, tau), hi, lo)
    f = K @ (u / scale)
    fresh = True
    free: list = []  # the free face, in the order of L's rows
    L = np.empty((0, 0))  # lower Cholesky factor of K[F][:, F]
    steps = 0
    while steps < 10 * y.size + 100:
        r = y - f
        if free and np.abs(r[free]).max() > tol:
            steps += 1
            idx, reach = list(free), 1.0
            p = _solve_lower(L, _solve_lower(L, r[idx]), trans=True)
        else:
            violation = np.where(u == hi, -r, r)
            violation[free] = -np.inf
            j = int(np.argmax(violation))
            if violation[j] <= tol:
                if fresh:
                    u_bound = u.copy()
                    u_bound[free] = 0.0
                    b = y[free] - K[free] @ (u_bound / scale)
                    u[free] = scale * _solve_lower(L, _solve_lower(L, b), trans=True)
                    return u, steps
                f, fresh = K @ (u / scale), True
                continue
            steps += 1
            v = _solve_lower(L, K[free, j])
            d = K[j, j] - v @ v
            if d > _DEPENDENT * K[j, j]:
                free.append(j)
                L = _cholesky_append(L, v, d)
                continue
            w = _solve_lower(L, v, trans=True)
            idx, reach = free + [j], np.inf
            p = np.sign(r[j]) * np.append(-w, 1.0)
        old = u[idx]
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            du = scale * p
            if not np.isfinite(du).all():
                raise NumericalError(f"dual active-set step is not finite (n={y.size}, lam={lam!r})")
            room = np.where(du > 0.0, (hi - old) / du, np.where(du < 0.0, (lo - old) / du, np.inf))
        k = int(np.argmin(room))
        new = np.clip(old + min(reach, room[k]) * du, lo, hi)
        if room[k] <= reach:
            new[k] = hi if du[k] > 0.0 else lo
        u[idx] = new
        f += ((new - old) / scale) @ K[idx]
        fresh = False
        if room[k] > reach or k == len(free):
            continue  # the same face, or j went on to its other bound
        free.pop(k)
        L = _cholesky_delete(L, k)
        if reach == np.inf:
            # j left its bound and takes the blocked point's place; its Schur
            # complement may still be rounding, which the floor keeps valid
            v = _solve_lower(L, K[free, j])
            free.append(j)
            L = _cholesky_append(L, v, max(K[j, j] - v @ v, _DEPENDENT * K[j, j]))
    return u, steps


def fit_quantile(data: Dataset, kernel, loss, lam: float) -> tuple[RkhsFunction, FitInfo]:
    """Exact minimiser of (1/n) sum L(y_i, f(x_i)) + lam * ||f||_H^2 for the pinball or absolute loss.

    The dual of the pinball problem at quantile tau minimises
    (1/2) u' K u / (2 lam n) - u' y over the box [tau - 1, tau]^n, and
    alpha = u / (2 lam n); the absolute loss is 2 * pinball(0.5) at lam / 2.
    _dual_active_set solves it; it stops once every KKT violation of
    r = y - K alpha is at most 1e-12 * max(1, max |y|) plus 16 units of
    roundoff of max k(x, x) / (2 lam), which bounds the rounding of
    f = K alpha since sum |alpha_i| <= n / (2 lam n) (it binds only for
    small lam), and gives up after 10 n + 100 steps with a WARNING.
    FitInfo reports the step count as n_iters, the 2-norm of the KKT
    violations as grad_norm, and the relative duality gap
    (1/n) sum (L(r_i) - u_i r_i) / max(objective, tol), each term
    nonnegative, so it carries no cancellation; the KKT tolerance tol is
    its floor, so an exact fit at a zero optimum does not read 100 %.
    converged holds when the violations are within the tolerance and the gap
    is at most _GAP_TOL = 1e-6; outputs far below the rounding of f = K alpha
    can meet the first with a gap of several percent, and such a fit logs one
    WARNING naming the gap, n and lam.  K is the only n x n array; the
    result is deterministic.  One INFO record from probdense.erm gives the
    step count, the free points and the gap.
    A solve whose objective exceeds objective_at_zero * (1 + 1e-12), which
    outputs far below the rounding of f = K alpha can leave within the KKT
    tolerance, is replaced by alpha = 0 with a WARNING naming both
    objectives, so no fit is worse than the zero function; FitInfo then
    describes alpha = 0.  Outputs whose spread overflows, a lam so small that
    max k(x, x) / (2 lam) + max |y| overflows, an active-set step and an
    objective that overflow raise NumericalError before anything warns.
    """
    _check_lam(lam)
    if isinstance(loss, AbsoluteLoss):
        tau, pinball_lam, weight = 0.5, 0.5 * lam, 2.0
    elif isinstance(loss, PinballLoss):
        tau, pinball_lam, weight = loss.tau, lam, 1.0
    else:
        raise TypeError("fit_quantile requires PinballLoss or AbsoluteLoss")
    y, n = data.outputs, data.n
    _check_spread(y, lam)
    K = gram_matrix(kernel, data.inputs)
    scale = 2.0 * pinball_lam * n
    with np.errstate(divide="ignore", over="ignore"):  # |f| = |K u| / scale <= reach, as |u| <= 1
        reach = float(K.diagonal().max() / (2.0 * pinball_lam))
    if not np.isfinite(reach + float(np.abs(y).max())):  # then no f or residual below overflows
        raise NumericalError(f"dual bound on |f| plus max |y| overflows (n={n}, lam={lam!r})")
    rounding = 16.0 * np.finfo(float).eps * reach
    tol = float(_KKT_TOL * max(1.0, float(np.abs(y).max())) + rounding)
    u, steps = _dual_active_set(K, y, tau, scale, tol, lam)
    alpha = u / scale
    f = _expansion(kernel, data.inputs, alpha, lam)
    with np.errstate(over="ignore", invalid="ignore"):
        fvals = K @ alpha
        objective = float(np.mean(loss.values(y, fvals)) + lam * (alpha @ fvals))
    _check_objective(objective, n, lam)
    objective_at_zero = float(np.mean(loss.values(y, 0.0)))
    if objective > objective_at_zero * (1.0 + 1e-12):
        # outputs below the rounding of f = K alpha, which the KKT tolerance
        # allows for, can leave the solve worse than the zero function
        log.warning(
            "dual active-set solve gave objective %r above %r, the objective at alpha = 0; "
            "returning alpha = 0 (n=%d, lam=%r)",
            objective, objective_at_zero, n, lam,
        )
        objective, u = objective_at_zero, np.zeros(n)
        f, fvals = RkhsFunction(kernel, data.inputs, u), u
    r = y - fvals
    lo, hi = tau - 1.0, tau
    kkt = np.where(u == hi, -r, np.where(u == lo, r, np.abs(r))).clip(min=0.0)
    gap = weight * float(np.mean(np.where(r >= 0.0, (tau - u) * r, (tau - 1.0 - u) * r)))
    gap = gap / max(objective, tol)
    kkt_met = bool(kkt.max() <= tol)
    if not kkt_met:
        log.warning(
            "dual active-set solve stopped after %d steps with KKT violation %r > %r (n=%d, lam=%r)",
            steps, float(kkt.max()), tol, n, lam,
        )
    gap_met = gap <= _GAP_TOL
    if not gap_met:
        log.warning("duality gap %.3g exceeds %g: fit not certified (n=%d, lam=%r)", gap, _GAP_TOL, n, lam)
    log.info(
        "dual active-set solve: %d steps, %d free points, duality gap %.3g",
        steps, int(np.count_nonzero((u > lo) & (u < hi))), gap,
    )
    info = FitInfo(objective, objective_at_zero, steps, float(np.hypot.reduce(kkt)), kkt_met and gap_met, gap)
    return f, info


def fit_pairwise(
    data: Dataset, kernel, loss: RankingSquaredLoss, lam: float
) -> tuple[RkhsFunction, FitInfo]:
    """Exact minimiser of the mean pairwise ranking objective, with its FitInfo.

    (1/n^2) sum_ij ((y_i - y_j) - (f(x_i) - f(x_j)))^2 + lam * ||f||_H^2
    equals (2/n) ||P (y - K alpha)||^2 + lam * alpha' K alpha, P = I - 11'/n:
    as ||P v||^2 = min_b ||v - b 1||^2, the ridge objective at lam / 2 with a
    free intercept b, minimised where (K + (n lam / 2) I) alpha + b 1 = y and
    1' alpha = 0.  So the ridge solve of (K + (n lam / 2) I) Z = [y - y_0 1, 1]
    gives b = 1' Z_0 / 1' Z_1 and alpha = Z_0 - b Z_1 (RankRLS; Pahikkala et
    al., Machine Learning 75, 2009); the shift by y_0 makes constant outputs
    exact zeros.  FitInfo reports n_iters = 0, converged = True and the
    gradient norm, computed from alpha by kernel_matvec.  Outputs whose
    spread max y - min y overflows, and an objective that overflows, raise
    NumericalError.
    """
    _check_lam(lam)
    if not isinstance(loss, RankingSquaredLoss):
        raise TypeError("fit_pairwise requires RankingSquaredLoss")
    if data.n < 2:
        raise ValueError("pairwise fitting needs at least 2 observations")
    X, n = data.inputs, data.n
    _check_spread(data.outputs, lam)
    yc = data.outputs - data.outputs[0]
    Z, _ = _shifted_solve(kernel, X, np.column_stack((yc, np.ones(n))), 0.5 * n * lam, lam)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # _expansion checks alpha
        b = Z[:, 0].sum() / Z[:, 1].sum()
        alpha = Z[:, 0] - b * Z[:, 1]
    f = _expansion(kernel, X, alpha, lam)
    with np.errstate(over="ignore", invalid="ignore"):
        fvals = kernel_matvec(kernel, X, X, alpha)
        pr = yc - fvals
        pr -= pr.mean()
        objective = float((2.0 / n) * (pr @ pr) + lam * (alpha @ fvals))
        grad_norm = float(np.linalg.norm(kernel_matvec(kernel, X, X, 2.0 * lam * alpha - (4.0 / n) * pr)))
    _check_objective(objective, n, lam)
    info = FitInfo(objective, float(2.0 * np.var(yc)), 0, grad_norm, True)
    return f, info


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
