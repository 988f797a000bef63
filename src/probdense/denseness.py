"""Empirical denseness studies: fit smooth kernel models to rough targets.

The lab draws growing training samples from a 1-D input distribution,
fits kernel ridge approximants under shrinking bandwidth and penalty
schedules, and measures the gap to the target in four ways: integrated-psi
metric, Ky Fan metric, empirical L^1 gap, and the sup gap on a dense grid
that straddles every jump of the target.  Probability metrics shrink for
discontinuous targets while the sup gap stays pinned near the jump height;
a continuous control target shows the sup gap shrinking too.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, fields

import numpy as np
from scipy.special import log1p, log_ndtr, logsumexp, ndtr, ndtri_exp

from .erm import Dataset, fit_kernel_ridge
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


def _check_domain(domain) -> tuple[float, float]:
    low, high = float(domain[0]), float(domain[1])
    if not (np.isfinite(low) and np.isfinite(high) and low < high):
        raise ValueError(f"domain must be a finite interval (low < high), got {domain!r}")
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

    @property
    def discontinuities(self) -> tuple:
        return ()

    def __call__(self, x):
        return np.sin(2.0 * np.pi * self.frequency * _domain_values(x, self.domain))


# the one list of target names (-> class) and of sampler names; StudyConfig
# and the config parser both read them
_TARGETS = {
    "indicator": IntervalIndicator,
    "piecewise": PiecewiseConstant,
    "sign": SignStep,
    "sine": SineWave,
}
_SAMPLERS = ("uniform", "truncated_gaussian")


def uniform_sampler(domain):
    """Sampler drawing uniform points from the domain interval."""
    low, high = _check_domain(domain)

    def sample(rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.uniform(low, high, (n, 1))

    return sample


def _gaussian_params(domain, center, scale):
    """(low, high, center, scale) of a truncated Gaussian sampler, defaults filled in, checked."""
    low, high = _check_domain(domain)
    c = 0.5 * (low + high) if center is None else float(center)
    s = 0.25 * (high - low) if scale is None else float(scale)
    if not (np.isfinite(c) and low <= c <= high):
        raise ValueError(f"center {c!r} outside domain [{low}, {high}]")
    if not (np.isfinite(s) and s > 0.0):
        raise ValueError(f"scale must be positive, got {s!r}")
    return low, high, c, s


def truncated_gaussian_sampler(domain, center: float | None = None, scale: float | None = None):
    """Sampler drawing from a Gaussian truncated to the domain interval.

    Defaults: center at the midpoint, scale a quarter of the interval width.
    """
    low, high, c, s = _gaussian_params(domain, center, scale)
    a, b = (low - c) / s, (high - c) / s
    # Inverse-CDF draws on the arithmetic of scipy.stats.truncnorm.rvs, so they
    # are bitwise its draws for the same Generator.  The center lies in the
    # domain, so a <= 0 <= b: the log mass of [a, b] is scipy's central case,
    # or its left-tail case (a complex log-difference) when b == 0.
    if b <= 0.0:
        log_mass = logsumexp([log_ndtr(b), log_ndtr(a) + np.pi * 1j], axis=0).real
    else:
        log_mass = log1p(-ndtr(a) - ndtr(-b))
    # like scipy, invert from the left tail when a < 0, else from the right one
    left = a < 0.0
    log_tail = log_ndtr(a if left else -b)

    def sample(rng: np.random.Generator, n: int) -> np.ndarray:
        q = rng.uniform(size=n)
        log_q = np.log(q) if left else np.log1p(-q)
        x = ndtri_exp(logsumexp([np.full(n, log_tail), log_q + log_mass], axis=0))
        return ((x if left else -x) * s + c).reshape(n, 1)

    return sample


@dataclass(frozen=True)
class StudyConfig:
    """Full description of a denseness study; deterministic given seed.

    Bandwidth shrinks as gamma_coeff * n^(-1/3) and the ridge penalty as
    lambda_coeff / n.  eval_sample_size defaults to 10 * max(sample_sizes);
    every cell draws fresh evaluation points from the same input
    distribution as training, on an independent derived seed.
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
    sampler_center: float | None = None
    sampler_scale: float | None = None

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
        if self.replicates < 1:
            raise ValueError(f"replicates must be >= 1, got {self.replicates}")
        if self.kernel_family not in _KERNEL_FAMILIES:
            raise ValueError(
                f"kernel_family must be one of {tuple(_KERNEL_FAMILIES)}, "
                f"got {self.kernel_family!r}"
            )
        if not (np.isfinite(self.gamma_coeff) and self.gamma_coeff > 0.0):
            raise ValueError(f"gamma_coeff must be positive, got {self.gamma_coeff!r}")
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
            raise ValueError(f"sampler must be one of {_SAMPLERS}, got {self.sampler!r}")
        if self.sampler == "truncated_gaussian":
            try:
                _gaussian_params(self.target.domain, self.sampler_center, self.sampler_scale)
            except ValueError as exc:
                # name the fields: "center ..." becomes "sampler_center ..."
                raise ValueError(f"sampler_{exc}") from None
        elif self.sampler_center is not None or self.sampler_scale is not None:
            raise ValueError(
                "sampler_center and sampler_scale apply only to sampler = truncated_gaussian"
            )

    def bandwidth_for(self, n: int) -> float:
        return self.gamma_coeff * float(n) ** _SCHEDULE_EXPONENT

    def penalty_for(self, n: int) -> float:
        return self.lambda_coeff / float(n)

    def kernel_for(self, n: int):
        # the bandwidth is each family's one field: gamma or support_radius
        return _KERNEL_FAMILIES[self.kernel_family](self.bandwidth_for(n))

    def build_sampler(self):
        if self.sampler == "uniform":
            return uniform_sampler(self.target.domain)
        return truncated_gaussian_sampler(
            self.target.domain, self.sampler_center, self.sampler_scale
        )


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
    """Draw n training points, label them with the target, fit kernel ridge."""
    X = sampler(rng, int(n))
    y = target(X)
    return fit_kernel_ridge(Dataset(X, y), kernel, lam)


def sup_gap_estimate(f, g, domain, grid_resolution: int, discontinuities=None) -> float:
    """Max |f - g| over a uniform grid plus points straddling each jump of f.

    For every discontinuity location j (taken from f.discontinuities when
    not given) the points j - h, j, j + h are added, h one grid spacing, so
    a genuine jump cannot slip between grid nodes.
    """
    low, high = _check_domain(domain)
    if grid_resolution < 2:
        raise ValueError(f"grid_resolution must be >= 2, got {grid_resolution}")
    grid = np.linspace(low, high, int(grid_resolution))
    h = (high - low) / (int(grid_resolution) - 1)
    if discontinuities is None:
        discontinuities = getattr(f, "discontinuities", ())
    extras = [np.asarray([j - h, j, j + h]) for j in discontinuities]
    pts = np.concatenate([grid] + extras) if extras else grid
    pts = np.clip(pts, low, high)[:, None]
    fv = np.asarray(f(pts), dtype=float)
    gv = np.asarray(g(pts), dtype=float)
    return float(np.abs(fv - gv).max())


def run_study(cfg: StudyConfig) -> ConvergenceReport:
    """Run the full denseness study described by cfg.

    For each sample size and replicate: fit an approximant on a fresh
    training draw, then measure all gaps on an independent fresh evaluation
    draw from the same input distribution.  A numerical failure in one cell
    is recorded on that cell and the run continues.  Deterministic given
    cfg.seed.
    """
    target = cfg.target
    sampler = cfg.build_sampler()
    cells = []
    for n in cfg.sample_sizes:
        kernel = cfg.kernel_for(n)
        lam = cfg.penalty_for(n)
        for rep in range(cfg.replicates):
            t0 = time.perf_counter()
            try:
                fitted = fit_approximant(
                    target, n, kernel, lam, sampler, derive_rng(cfg.seed, n, rep, "train")
                )
                eval_rng = derive_rng(cfg.seed, n, rep, "eval")
                Xe = sampler(eval_rng, cfg.eval_sample_size)
                ye = target(Xe)
                ge = fitted(Xe)
                diffs = np.abs(ye - ge)
                l1_gap = float(np.mean(diffs))
                ps = PairedSample(diffs, np.full(diffs.size, 1.0 / diffs.size))
                cell = StudyCell(
                    n=n,
                    replicate=rep,
                    d_psi=psi_metric(cfg.psi, ps),
                    ky_fan=ky_fan_metric(ps),
                    sup_gap=sup_gap_estimate(target, fitted, target.domain, cfg.grid_resolution),
                    l1_gap=l1_gap,
                    # |R(ge) - R(ye)| under the absolute loss with noise-free
                    # labels is |l1_gap - 0|, bitwise l1_gap (ROADMAP item 3)
                    risk_gap=l1_gap,
                )
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


def risk_convergence_check(report: ConvergenceReport, lipschitz_constant: float = 1.0) -> RiskCheckResult:
    """Check risk_gap <= |L|_1 * l1_gap + 1e-10 on every non-errored cell.

    The margin of a cell is the slack in that inequality; the result
    records the worst one.
    """
    if not (np.isfinite(lipschitz_constant) and lipschitz_constant >= 0.0):
        raise ValueError(f"lipschitz_constant must be >= 0, got {lipschitz_constant!r}")
    margins = [
        lipschitz_constant * c.l1_gap + 1e-10 - c.risk_gap
        for c in report.cells
        if c.error is None
    ]
    if not margins:
        return RiskCheckResult(False, float("nan"), 0)
    worst = float(min(margins))
    return RiskCheckResult(worst >= 0.0, worst, len(margins))
