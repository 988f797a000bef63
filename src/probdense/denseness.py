"""Empirical denseness studies: fit smooth kernel models to rough targets.

The lab draws growing training samples from a 1-D input distribution,
fits kernel ridge approximants under shrinking bandwidth and penalty
schedules, and measures the gap to the target in four ways: integrated-psi
metric, Ky Fan metric, empirical L^1 gap, and the sup gap on a dense grid
that straddles every jump of the target.  Probability metrics shrink for
discontinuous targets while the sup gap stays pinned near the jump height;
a continuous control target shows the sup gap shrinking too.

A fit that took the low-rank ridge path is evaluated in its pivot basis:
the projection of the fitted expansion onto its r pivot sections, r
centres instead of n, within a logged sup-norm bound of the full fit.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, fields

import numpy as np

from .erm import Dataset, _ridge_solve
from .kernels import _KERNEL_FAMILIES
from .metrics import _PSI_KINDS, CappedPsi, PairedSample, ky_fan_metric, psi_metric
from .util import NumericalError, as_points, derive_rng

__all__ = [
    "IntervalIndicator",
    "PiecewiseConstant",
    "SignStep",
    "SineWave",
    "uniform_sampler",
    "truncated_gaussian_sampler",
    "StudyConfig",
    "StudyCell",
    "ConvergenceReport",
    "RiskCheckResult",
    "fit_approximant",
    "sup_gap_estimate",
    "run_study",
    "risk_convergence_check",
]

log = logging.getLogger(__name__)

# bandwidth schedule exponent -1/(d+2) with d = 1
_SCHEDULE_EXPONENT = -1.0 / 3.0

# Phi(-2), the standard normal mass below -2: the truncated Gaussian's lower cut
_PHI_MINUS_2 = 0.5 * math.erfc(math.sqrt(2.0))

# Wichura's AS241 (PPND16, Applied Statistics 37, 1988): the numerator and
# denominator coefficients, highest degree first, of its central branch
# (|p - 0.5| <= 0.425, in r = 0.180625 - (p - 0.5)^2) and of its first tail
# branch (in r = sqrt(-log min(p, 1 - p)) - 1.6, which holds for r + 1.6 <= 5,
# i.e. min(p, 1 - p) >= 1.4e-11)
_AS241 = np.array((
    (2.5090809287301226727e3, 3.3430575583588128105e4, 6.7265770927008700853e4,
     4.5921953931549871457e4, 1.3731693765509461125e4, 1.9715909503065514427e3,
     1.3314166789178437745e2, 3.3871328727963666080e0),
    (5.2264952788528545610e3, 2.8729085735721942674e4, 3.9307895800092710610e4,
     2.1213794301586595867e4, 5.3941960214247511077e3, 6.8718700749205790830e2,
     4.2313330701600911252e1, 1.0),
    (7.74545014278341407640e-4, 2.27238449892691845833e-2, 2.41780725177450611770e-1,
     1.27045825245236838258e0, 3.64784832476320460504e0, 5.76949722146069140550e0,
     4.63033784615654529590e0, 1.42343711074968357734e0),
    (1.05075007164441684324e-9, 5.47593808499534494600e-4, 1.51986665636164571966e-2,
     1.48103976427480074590e-1, 6.89767334985100004550e-1, 1.67638483018380384940e0,
     2.05319162663775882187e0, 1.0),
))


def _check_domain(domain) -> tuple[float, float]:
    low, high = float(domain[0]), float(domain[1])
    if not (low < high and np.isfinite(high - low)):
        raise ValueError(
            f"domain must be a finite interval (low < high) of finite width, got {domain!r}"
        )
    return low, high


def _domain_values(x, domain) -> np.ndarray:
    X = as_points(x, "x")
    if X.shape[1] != 1:
        raise ValueError(f"targets are 1-D, got points of dimension {X.shape[1]}")
    v = X[:, 0]
    low, high = domain
    if v.min() < low or v.max() > high:
        raise ValueError(f"point outside target domain [{low}, {high}]")
    return v


@dataclass(frozen=True)
class IntervalIndicator:
    """1 on the closed interval [lower, upper], 0 elsewhere in the domain."""

    lower: float
    upper: float
    domain: tuple = (0.0, 1.0)

    def __post_init__(self):
        low, high = _check_domain(self.domain)
        object.__setattr__(self, "domain", (low, high))
        if not (low <= self.lower <= self.upper <= high):
            raise ValueError(
                f"need domain_low <= lower <= upper <= domain_high, got "
                f"[{self.lower}, {self.upper}] in [{low}, {high}]"
            )

    @property
    def discontinuities(self) -> tuple:
        return (self.lower, self.upper)

    def __call__(self, x):
        v = _domain_values(x, self.domain)
        return ((v >= self.lower) & (v <= self.upper)).astype(float)


@dataclass(frozen=True)
class PiecewiseConstant:
    """Sum of level * indicator over pairwise disjoint closed intervals.

    pieces is a tuple of (lower, upper, level) triples.
    """

    pieces: tuple
    domain: tuple = (0.0, 1.0)

    def __post_init__(self):
        low, high = _check_domain(self.domain)
        object.__setattr__(self, "domain", (low, high))
        pieces = tuple((float(a), float(b), float(c)) for a, b, c in self.pieces)
        if not pieces:
            raise ValueError("pieces must be nonempty")
        for a, b, c in pieces:
            if not (low <= a <= b <= high):
                raise ValueError(f"piece [{a}, {b}] not inside domain [{low}, {high}]")
            if not np.isfinite(c):
                raise ValueError(f"piece level must be finite, got {c!r}")
        ordered = sorted(pieces)
        for (_, b1, _), (a2, _, _) in zip(ordered, ordered[1:]):
            if b1 >= a2:
                raise ValueError("pieces must be pairwise disjoint closed intervals")
        object.__setattr__(self, "pieces", pieces)

    @property
    def discontinuities(self) -> tuple:
        return tuple(sorted({v for a, b, _ in self.pieces for v in (a, b)}))

    def __call__(self, x):
        v = _domain_values(x, self.domain)
        out = np.zeros_like(v)
        for a, b, c in self.pieces:
            out += c * ((v >= a) & (v <= b))
        return out


@dataclass(frozen=True)
class SignStep:
    """sign(x - offset), values in {-1, 0, 1}."""

    offset: float = 0.0
    domain: tuple = (-1.0, 1.0)

    def __post_init__(self):
        low, high = _check_domain(self.domain)
        object.__setattr__(self, "domain", (low, high))
        if not (low <= self.offset <= high):
            raise ValueError(f"offset {self.offset!r} outside domain [{low}, {high}]")

    @property
    def discontinuities(self) -> tuple:
        return (self.offset,)

    def __call__(self, x):
        return np.sign(_domain_values(x, self.domain) - self.offset)


@dataclass(frozen=True)
class SineWave:
    """Continuous control target sin(2 pi frequency x)."""

    frequency: float = 1.0
    domain: tuple = (0.0, 1.0)

    def __post_init__(self):
        low, high = _check_domain(self.domain)
        object.__setattr__(self, "domain", (low, high))
        if not (np.isfinite(self.frequency) and self.frequency > 0.0):
            raise ValueError(f"frequency must be positive, got {self.frequency!r}")
        if not math.isfinite(2.0 * np.pi * float(self.frequency) * max(abs(low), abs(high))):
            raise ValueError(
                f"domain [{low}, {high}] at frequency {self.frequency!r} overflows the phase "
                "2 pi frequency x"
            )

    @property
    def discontinuities(self) -> tuple:
        return ()

    def __call__(self, x):
        return np.sin(2.0 * np.pi * self.frequency * _domain_values(x, self.domain))


def uniform_sampler(domain):
    """Sampler drawing uniform points from the domain interval."""
    low, high = _check_domain(domain)

    def sample(rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.uniform(low, high, (n, 1))

    return sample


def _normal_quantile(p: np.ndarray) -> np.ndarray:
    """Inverse standard normal CDF by AS241's central and first tail branches.

    Valid for min(p, 1 - p) >= 1.4e-11; the sampler's p lie in [Phi(-2), Phi(2)].
    """
    q = p - 0.5
    r = np.empty((4, p.size))
    r[:2] = 0.180625 - q * q
    r[2:] = np.sqrt(-np.log(np.minimum(p, 1.0 - p))) - 1.6
    # the four polynomials of both branches by one Horner pass, in place
    y = np.repeat(_AS241[:, :1], p.size, axis=1)
    for column in _AS241.T[1:, :, None]:
        y *= r
        y += column
    return np.where(np.abs(q) <= 0.425, q * y[0] / y[1], np.copysign(y[2] / y[3], q))


def truncated_gaussian_sampler(domain):
    """Sampler drawing from N(mid, (width/4)^2) truncated to the domain interval.

    Each draw inverts the normal CDF between the masses below -2 and +2 sigma:
    mid + (width/4) * Phi^-1(Phi(-2) + q * (1 - 2 Phi(-2))) for one uniform q
    of the Generator, clipped to the domain against rounding at its ends.
    Phi^-1 is _normal_quantile, the numpy port of AS241.
    """
    low, high = _check_domain(domain)
    c, s = low + 0.5 * (high - low), 0.25 * (high - low)

    def sample(rng: np.random.Generator, n: int) -> np.ndarray:
        q = rng.uniform(size=n)
        z = _normal_quantile(_PHI_MINUS_2 + q * (1.0 - 2.0 * _PHI_MINUS_2))
        return np.clip(c + s * z, low, high).reshape(n, 1)

    return sample


# the one list of target names (-> class) and of sampler names (-> factory of
# a domain); StudyConfig and the config parser both read them
_TARGETS = {
    "indicator": IntervalIndicator,
    "piecewise": PiecewiseConstant,
    "sign": SignStep,
    "sine": SineWave,
}
_SAMPLERS = {"uniform": uniform_sampler, "truncated_gaussian": truncated_gaussian_sampler}


@dataclass(frozen=True)
class StudyConfig:
    """Full description of a denseness study; deterministic given seed.

    Bandwidth shrinks as gamma_coeff * n^(-1/3) and the ridge penalty as
    lambda_coeff / n.  eval_sample_size defaults to 10 * max(sample_sizes);
    every cell draws fresh evaluation points from the same input
    distribution as training, on an independent derived seed.  The input
    distribution is the sampler's: uniform on the target's domain, or
    truncated_gaussian, N(mid, (width/4)^2) truncated to it.
    """

    target: object
    sample_sizes: tuple
    seed: int
    replicates: int = 1
    kernel_family: str = "gaussian_rbf"
    gamma_coeff: float = 1.0
    lambda_coeff: float = 1.0
    psi: object = CappedPsi()
    eval_sample_size: int | None = None
    grid_resolution: int = 10001
    sampler: str = "uniform"

    def __post_init__(self):
        if not isinstance(self.target, tuple(_TARGETS.values())):
            name = type(self.target).__name__
            raise ValueError(f"target must be one of the target types, got {name}")
        sizes = tuple(int(n) for n in self.sample_sizes)
        if not sizes or any(n < 1 for n in sizes):
            raise ValueError(f"sample_sizes must be positive ints, got {self.sample_sizes!r}")
        if any(b <= a for a, b in zip(sizes, sizes[1:])):
            raise ValueError(f"sample_sizes must be strictly increasing, got {sizes!r}")
        object.__setattr__(self, "sample_sizes", sizes)
        object.__setattr__(self, "seed", int(self.seed))
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.replicates < 1:
            raise ValueError(f"replicates must be >= 1, got {self.replicates}")
        if self.kernel_family not in _KERNEL_FAMILIES:
            raise ValueError(
                f"kernel_family must be one of {tuple(_KERNEL_FAMILIES)}, "
                f"got {self.kernel_family!r}"
            )
        if not (np.isfinite(self.gamma_coeff) and self.gamma_coeff > 0.0):
            raise ValueError(f"gamma_coeff must be positive, got {self.gamma_coeff!r}")
        for n in (sizes[-1], sizes[0]):  # the smallest and the largest bandwidth
            try:
                # every point lies in the domain, so its ends bound the scaled coordinates
                self.kernel_for(n)._scaled(np.array(self.target.domain)[:, None], "domain")
            except ValueError as exc:
                raise ValueError(f"gamma_coeff {self.gamma_coeff!r} at n = {n}: {exc}") from None
        if not (np.isfinite(self.lambda_coeff) and self.lambda_coeff > 0.0):
            raise ValueError(f"lambda_coeff must be positive, got {self.lambda_coeff!r}")
        if not isinstance(self.psi, tuple(_PSI_KINDS.values())):
            raise ValueError(f"psi must be a psi transform, got {type(self.psi).__name__}")
        size = 10 * max(sizes) if self.eval_sample_size is None else int(self.eval_sample_size)
        if size < 1:
            raise ValueError(f"eval_sample_size must be >= 1, got {size}")
        object.__setattr__(self, "eval_sample_size", size)
        if self.grid_resolution < 2:
            raise ValueError(f"grid_resolution must be >= 2, got {self.grid_resolution}")
        if self.sampler not in _SAMPLERS:
            raise ValueError(f"sampler must be one of {tuple(_SAMPLERS)}, got {self.sampler!r}")

    def bandwidth_for(self, n: int) -> float:
        return self.gamma_coeff * float(n) ** _SCHEDULE_EXPONENT

    def penalty_for(self, n: int) -> float:
        return self.lambda_coeff / float(n)

    def kernel_for(self, n: int):
        # the bandwidth is each family's one field: gamma or support_radius
        return _KERNEL_FAMILIES[self.kernel_family](self.bandwidth_for(n))


@dataclass(frozen=True)
class StudyCell:
    """Metrics for one (n, replicate) pair.

    No timing is kept: reports must be byte-identical across runs with the
    same seed, which a measured clock value can never be.  Per-cell timings
    are written to the log at INFO level.
    """

    n: int
    replicate: int
    d_psi: float
    ky_fan: float
    sup_gap: float
    l1_gap: float
    risk_gap: float
    error: str | None = None


# the metric fields of a StudyCell, in CSV column order
_METRICS = tuple(f.name for f in fields(StudyCell) if f.name not in ("n", "replicate", "error"))


@dataclass(frozen=True)
class ConvergenceReport:
    """All study cells in deterministic (n, replicate) order."""

    config: StudyConfig
    cells: tuple

    @property
    def partial(self) -> bool:
        return any(c.error is not None for c in self.cells)


def fit_approximant(target, n: int, kernel, lam: float, sampler, rng) -> object:
    """Draw n training points, label them with the target, fit kernel ridge.

    Returns fit_kernel_ridge's expansion f over all n points, except when
    the fit took the low-rank path with at least one pivot, as a Gaussian
    fit within its rank cap does at any n: then it returns the projection
    f_hat of f onto the r pivot sections k(., x_p), an RkhsFunction over the r pivot
    inputs with sup |f - f_hat| <= sqrt(max k(x, x) * trace E) * ||alpha||
    (E the residual of the pivoted Cholesky factor), up to rounding, and
    logs r and that bound as one INFO record.
    """
    X = sampler(rng, int(n))
    y = target(X)
    f, f_hat, bound = _ridge_solve(Dataset(X, y), kernel, lam)
    if f_hat is None:
        return f
    log.info(
        "pivot-basis evaluation: %d of %d centres, sup |f - f_hat| <= %.3g",
        f_hat.coefficients.size,
        n,
        bound,
    )
    return f_hat


def _sup_grid(target, grid_resolution: int) -> np.ndarray:
    """A uniform grid on target.domain plus jump straddles, as (points, 1).

    For every location j in target.discontinuities the points j - h, j,
    j + h are added, h one grid spacing, so a genuine jump cannot slip
    between grid nodes.
    """
    low, high = target.domain
    if grid_resolution < 2:
        raise ValueError(f"grid_resolution must be >= 2, got {grid_resolution}")
    grid = np.linspace(low, high, int(grid_resolution))
    h = (high - low) / (int(grid_resolution) - 1)
    extras = [np.asarray([j - h, j, j + h]) for j in target.discontinuities]
    pts = np.concatenate([grid] + extras) if extras else grid
    return np.clip(pts, low, high)[:, None]


def sup_gap_estimate(target, g, grid_resolution: int) -> float:
    """Max |target - g| over the points of _sup_grid(target, grid_resolution)."""
    pts = _sup_grid(target, grid_resolution)
    fv = np.asarray(target(pts), dtype=float)
    gv = np.asarray(g(pts), dtype=float)
    return float(np.abs(fv - gv).max())


def _study_cell(cfg: StudyConfig, sampler, n: int, rep: int, kernel, lam: float) -> StudyCell:
    """Fit and measure one cell; NumericalError when a value it measures is not finite.

    The target and the fit are evaluated once, on the eval draws and the
    sup grid together.
    """
    target = cfg.target
    fitted = fit_approximant(target, n, kernel, lam, sampler, derive_rng(cfg.seed, n, rep, "train"))
    Xe = sampler(derive_rng(cfg.seed, n, rep, "eval"), cfg.eval_sample_size)
    m = Xe.shape[0]
    pts = np.concatenate([Xe, _sup_grid(target, cfg.grid_resolution)])
    gaps = np.asarray(target(pts), dtype=float)
    gaps -= fitted(pts)
    np.abs(gaps, out=gaps)
    distances = gaps[:m]
    if not np.all(np.isfinite(distances)):
        raise NumericalError(f"fitted values or distances are not finite (n={n}, lam={lam!r})")
    ps = PairedSample(distances, np.full(m, 1.0 / m))
    l1_gap = float(np.mean(distances))
    metrics = {
        "d_psi": psi_metric(cfg.psi, ps),
        "ky_fan": ky_fan_metric(ps),
        "sup_gap": float(gaps[m:].max()),
        "l1_gap": l1_gap,
        # |R(fitted) - R(target)| under the absolute loss with noise-free
        # labels is |l1_gap - 0|, bitwise l1_gap, so this column carries no
        # information of its own
        "risk_gap": l1_gap,
    }
    for name, value in metrics.items():
        if not np.isfinite(value):
            raise NumericalError(f"{name} is not finite (n={n}, lam={lam!r})")
    return StudyCell(n=n, replicate=rep, **metrics)


def run_study(cfg: StudyConfig) -> ConvergenceReport:
    """Run the full denseness study described by cfg.

    For each sample size and replicate: fit an approximant on a fresh
    training draw, then measure all gaps on an independent fresh evaluation
    draw from the same input distribution.  A numerical failure in one cell,
    a fitted value, distance or metric that overflows to inf or nan among
    them, is recorded on that cell and the run continues.  Deterministic
    given cfg.seed.
    """
    sampler = _SAMPLERS[cfg.sampler](cfg.target.domain)
    cells = []
    for n in cfg.sample_sizes:
        kernel = cfg.kernel_for(n)
        lam = cfg.penalty_for(n)
        for rep in range(cfg.replicates):
            t0 = time.perf_counter()
            try:
                # an overflow shows as a non-finite value, which fails the cell
                with np.errstate(over="ignore", invalid="ignore"):
                    cell = _study_cell(cfg, sampler, n, rep, kernel, lam)
            except (NumericalError, np.linalg.LinAlgError) as exc:
                log.warning("cell (n=%d, replicate=%d) failed: %s", n, rep, exc)
                nans = dict.fromkeys(_METRICS, float("nan"))
                cell = StudyCell(n=n, replicate=rep, **nans, error=str(exc))
            log.info(
                "cell n=%d replicate=%d done in %.3fs%s",
                n,
                rep,
                time.perf_counter() - t0,
                "" if cell.error is None else " (FAILED)",
            )
            cells.append(cell)
    return ConvergenceReport(cfg, tuple(cells))


@dataclass(frozen=True)
class RiskCheckResult:
    """Outcome of the Lipschitz risk-transfer check over a report."""

    passed: bool
    worst_margin: float
    cells_checked: int


def risk_convergence_check(report: ConvergenceReport) -> RiskCheckResult:
    """Check risk_gap <= |L|_1 * l1_gap + 1e-10 on every non-errored cell.

    risk_gap is taken under the absolute loss, so |L|_1 = 1.  The margin of
    a cell is the slack in that inequality; the result records the worst one.
    """
    margins = [c.l1_gap + 1e-10 - c.risk_gap for c in report.cells if c.error is None]
    if not margins:
        return RiskCheckResult(False, float("nan"), 0)
    worst = float(min(margins))
    return RiskCheckResult(worst >= 0.0, worst, len(margins))
