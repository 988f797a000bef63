"""Tests for targets, samplers, and the denseness study driver."""

import json
import logging
import re
from dataclasses import astuple, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtri
from scipy.stats import truncnorm

from probdense import (
    ConvergenceReport,
    Dataset,
    GaussianRBF,
    IntervalIndicator,
    NumericalError,
    PiecewiseConstant,
    RatioPsi,
    SignStep,
    SineWave,
    StudyCell,
    StudyConfig,
    WendlandC2,
    fit_approximant,
    fit_kernel_ridge,
    risk_convergence_check,
    run_study,
    truncated_gaussian_sampler,
    uniform_sampler,
)
from probdense import denseness as denseness_mod
from probdense import rkhs as rkhs_mod
from probdense.config import parse_study_config
from probdense.reporting import emit_report, read_report_csv
from probdense.util import derive_rng


def tiny_config(**kw):
    base = dict(
        target=IntervalIndicator(0.0, 0.5),
        sample_sizes=(4, 8),
        seed=123,
        replicates=2,
        eval_sample_size=32,
        grid_resolution=51,
    )
    base.update(kw)
    return StudyConfig(**base)


def test_interval_indicator_values_closed_endpoints():
    f = IntervalIndicator(0.0, 0.5)
    out = f([0.25, 0.75, 0.5, 0.0])
    assert np.array_equal(out, np.array([1.0, 0.0, 1.0, 1.0]))
    assert f.discontinuities == (0.0, 0.5)


def test_sign_step_values():
    f = SignStep()
    assert np.array_equal(f([-0.3, 0.0, 0.4]), np.array([-1.0, 0.0, 1.0]))
    assert f.discontinuities == (0.0,)


def test_sine_wave_values():
    f = SineWave()
    out = f([0.25, 0.0])
    assert out[0] == 1.0
    assert out[1] == 0.0
    assert f.discontinuities == ()


@pytest.mark.parametrize(
    "frequency, domain", [(1.0, (1e308, 1.5e308)), (1.0, (-1e308, 0.0)), (1e308, (0.0, 1.0))]
)
def test_sine_wave_rejects_a_phase_that_overflows(frequency, domain):
    # 2 pi frequency x must be finite on the whole domain, or the target's values are not
    with pytest.raises(ValueError, match=r"^domain .* overflows the phase"):
        SineWave(frequency, domain)
    # the largest finite phase is accepted, and sin of it is finite
    f = SineWave(1.0, (0.0, 1e307))
    assert np.isfinite(f([0.0, 1e307])).all()


def test_piecewise_constant_levels_and_jumps():
    f = PiecewiseConstant(((0.4, 0.6, -1.0), (0.0, 0.2, 2.0)))
    assert np.array_equal(f([0.1, 0.5, 0.3]), np.array([2.0, -1.0, 0.0]))
    assert f.discontinuities == (0.0, 0.2, 0.4, 0.6)


def test_piecewise_constant_rejects_overlap():
    with pytest.raises(ValueError, match="disjoint"):
        PiecewiseConstant(((0.0, 0.5, 1.0), (0.5, 0.8, 2.0)))
    with pytest.raises(ValueError):
        PiecewiseConstant(())


def test_targets_reject_points_outside_domain():
    f = IntervalIndicator(0.0, 0.5)
    with pytest.raises(ValueError, match="domain"):
        f([0.2, 1.5])
    with pytest.raises(ValueError, match="1-D"):
        f(np.zeros((3, 2)))


@pytest.mark.parametrize(
    "bad",
    [
        lambda: IntervalIndicator(0.6, 0.4),
        lambda: IntervalIndicator(0.0, 2.0),
        lambda: SignStep(offset=5.0),
        lambda: SineWave(frequency=0.0),
        lambda: SineWave(domain=(1.0, 0.0)),
    ],
)
def test_target_validation(bad):
    with pytest.raises(ValueError):
        bad()


def test_uniform_sampler_stays_in_domain_and_is_reproducible():
    sample = uniform_sampler((-2.0, 3.0))
    X = sample(derive_rng(7, 4, 0, "train"), 200)
    assert X.shape == (200, 1)
    assert X.min() >= -2.0 and X.max() <= 3.0
    Y = sample(derive_rng(7, 4, 0, "train"), 200)
    assert np.array_equal(X, Y)
    Z = sample(derive_rng(7, 4, 0, "eval"), 200)
    assert not np.array_equal(X, Z)


def test_truncated_gaussian_sampler_stays_in_domain():
    sample = truncated_gaussian_sampler((0.0, 1.0))
    X = sample(np.random.default_rng(0), 500)
    assert X.shape == (500, 1)
    assert X.min() >= 0.0 and X.max() <= 1.0


# the largest distance measured over these input ranges was 11 ulps (about 28 000
# domains, one draw of up to 5120 points each, most near the symmetric domains
# where the bound is tightest); the tails of the inverse CDF amplify the rounding
# of both constructions
_TRUNCNORM_ULPS = 16


@settings(max_examples=200, deadline=None)
@given(
    low=st.one_of(st.floats(-100.0, 100.0), st.floats(-1e6, 1e6)),
    log_width=st.floats(-9.0, 2.0),
    n=st.sampled_from([1, 2, 5120]),
    seed=st.integers(0, 2**32 - 1),
)
def test_truncated_gaussian_draws_are_close_to_truncnorm(low, log_width, n, seed):
    # far from 0, a narrow domain's midpoint rounds, so a and b are -2 and 2 only roughly
    high = low + 10.0**log_width
    X = truncated_gaussian_sampler((low, high))(np.random.default_rng(seed), n)
    center, scale = 0.5 * (low + high), 0.25 * (high - low)
    a, b = (low - center) / scale, (high - center) / scale
    rng = np.random.default_rng(seed)
    expected = truncnorm.rvs(a, b, loc=center, scale=scale, size=(n, 1), random_state=rng)
    assert X.shape == (n, 1)
    assert X.min() >= low and X.max() <= high
    ulp = np.spacing(max(abs(low), abs(high)))
    assert np.abs(X - expected).max() <= _TRUNCNORM_ULPS * ulp


# p in the sampler's range [Phi(-2), Phi(2)], both ends, and the AS241 branch
# switch |p - 0.5| = 0.425 with its neighbours on either side
_P_LOW, _P_HIGH = denseness_mod._PHI_MINUS_2, 1.0 - denseness_mod._PHI_MINUS_2
_P_SWITCHES = (0.5 - 0.425, 0.5 + 0.425)
_P_EDGES = [_P_LOW, _P_HIGH, np.nextafter(_P_LOW, 1.0), np.nextafter(_P_HIGH, 0.0), 0.5] + [
    v for s in _P_SWITCHES for v in (np.nextafter(s, 0.0), s, np.nextafter(s, 1.0))
]


@settings(max_examples=200, deadline=None)
@given(p=st.lists(st.floats(_P_LOW, _P_HIGH), min_size=1, max_size=64))
def test_normal_quantile_is_close_to_ndtri(p):
    # within 4 ulps of 2 of scipy's ndtri (3 measured over 20 M uniform p)
    p = np.array(p + _P_EDGES)
    assert np.abs(denseness_mod._normal_quantile(p) - ndtri(p)).max() <= 4 * np.spacing(2.0)


def test_normal_quantile_is_monotone_and_zero_at_the_median():
    # grids spaced well above the rounding, plus the switch's ulp neighbours:
    # elsewhere, at single-ulp steps of p, the rounding of the rational
    # functions can step z back by a few ulps
    grid = np.sort(
        np.concatenate(
            [np.linspace(_P_LOW, _P_HIGH, 1_000_001), _P_EDGES]
            + [np.linspace(s - 1e-9, s + 1e-9, 20_001) for s in _P_SWITCHES]
        )
    )
    assert (np.diff(denseness_mod._normal_quantile(grid)) >= 0.0).all()
    assert denseness_mod._normal_quantile(np.array([0.5]))[0] == 0.0


def test_truncated_gaussian_sampler_validation():
    # the sampler rejects only what _check_domain rejects: it draws inside any
    # finite domain of finite width, including these edge cases
    domains = [
        (1.0, np.nextafter(1.0, 2.0)),  # the midpoint rounds onto an end
        (1e308, 1.5e308),  # low + high overflows
        (0.0, 1e-323),  # width / 4 underflows to 0
    ]
    for low, high in domains:
        X = truncated_gaussian_sampler((low, high))(np.random.default_rng(0), 1000)
        assert X.shape == (1000, 1)
        assert X.min() >= low and X.max() <= high


@pytest.mark.parametrize("factory", [uniform_sampler, truncated_gaussian_sampler])
def test_samplers_reject_a_domain_whose_width_overflows(factory):
    with pytest.raises(ValueError, match="domain must be .* of finite width"):
        factory((-1e308, 1e308))


def test_schedules():
    cfg = tiny_config()
    assert cfg.bandwidth_for(8) == pytest.approx(0.5, abs=1e-12)
    assert cfg.penalty_for(8) == 0.125
    assert isinstance(cfg.kernel_for(8), GaussianRBF)
    w = tiny_config(kernel_family="wendland_c2")
    k = w.kernel_for(8)
    assert isinstance(k, WendlandC2)
    assert k.support_radius == pytest.approx(0.5, abs=1e-12)


def test_config_defaults():
    cfg = StudyConfig(target=SineWave(), sample_sizes=(16, 64), seed=0)
    assert cfg.eval_sample_size == 640
    assert cfg.grid_resolution == 10001
    assert cfg.replicates == 1


@pytest.mark.parametrize(
    "kw",
    [
        dict(sample_sizes=(8, 8)),
        dict(sample_sizes=(8, 4)),
        dict(sample_sizes=()),
        dict(replicates=0),
        dict(kernel_family="cauchy"),
        dict(gamma_coeff=0.0),
        dict(gamma_coeff=1e-160),  # bandwidth squares underflow
        dict(gamma_coeff=1e155),  # and overflow
        dict(lambda_coeff=-1.0),
        dict(psi=0.5),
        dict(eval_sample_size=0),
        dict(grid_resolution=1),
        dict(sampler="poisson"),
        dict(target=lambda x: x),
        dict(sample_sizes=(0, 8)),
        dict(seed=-1),
        dict(lambda_coeff=float("nan")),
        dict(sampler="gaussian"),
        dict(lambda_coeff=0.0),
    ],
)
def test_config_validation(kw):
    with pytest.raises(ValueError):
        tiny_config(**kw)


def test_zero_gamma_coeff_is_rejected_before_the_kernel_sees_it():
    # the kernel's own bandwidth check would raise too, with its own message
    with pytest.raises(ValueError, match="gamma_coeff must be positive, got 0.0"):
        tiny_config(gamma_coeff=0.0)


def test_fit_approximant_zero_target_gives_zero_function():
    target = PiecewiseConstant(((0.2, 0.3, 0.0),))
    f = fit_approximant(
        target, 10, GaussianRBF(0.5), 0.1, uniform_sampler((0.0, 1.0)), np.random.default_rng(1)
    )
    assert np.array_equal(f.coefficients, np.zeros(10))


def test_fit_approximant_evaluates_large_fits_in_the_pivot_basis():
    target = IntervalIndicator(0.0, 0.5)
    sampler = uniform_sampler((0.0, 1.0))
    # past its rank cap n // 8 = 8 the fit is the full expansion
    n = 64
    kernel = GaussianRBF(n ** (-1 / 3))
    f = fit_approximant(target, n, kernel, 1.0 / n, sampler, np.random.default_rng(n))
    X = sampler(np.random.default_rng(n), n)
    ridge = fit_kernel_ridge(Dataset(X, target(X)), kernel, 1.0 / n)
    assert np.array_equal(f.centers, ridge.centers)
    assert np.array_equal(f.coefficients, ridge.coefficients)
    # within the cap, at n = 512 as at the study's largest cell: the
    # projection has at most n // 8 centres, all training inputs, and stays
    # within rounding of the full expansion
    for n in (512, 4096):
        kernel = GaussianRBF(n ** (-1 / 3))
        f = fit_approximant(target, n, kernel, 1.0 / n, sampler, np.random.default_rng(n))
        X = sampler(np.random.default_rng(n), n)
        ridge = fit_kernel_ridge(Dataset(X, target(X)), kernel, 1.0 / n)
        assert f.centers.shape[0] <= n // 8
        assert np.isin(f.centers[:, 0], X[:, 0]).all()
        grid = np.linspace(0.0, 1.0, 2001)[:, None]
        assert np.abs(f(grid) - ridge(grid)).max() <= 1e-12


def test_fit_approximant_without_pivots_is_the_full_expansion():
    # a shift n * lam = 1e15 puts the pivot tolerance 1e-14 * shift above
    # every k(x, x) = 1: a rank-0 factor, which spans no pivot basis
    target = IntervalIndicator(0.0, 0.5)
    sampler = uniform_sampler((0.0, 1.0))
    n, lam = 1024, 1e15 / 1024
    kernel = GaussianRBF(n ** (-1 / 3))
    f = fit_approximant(target, n, kernel, lam, sampler, np.random.default_rng(n))
    X = sampler(np.random.default_rng(n), n)
    ridge = fit_kernel_ridge(Dataset(X, target(X)), kernel, lam)
    assert np.array_equal(f.centers, X)
    assert np.array_equal(f.coefficients, ridge.coefficients)


def test_pivot_basis_cells_are_logged(caplog):
    caplog.set_level(logging.INFO, logger="probdense.denseness")
    run_study(tiny_config(sample_sizes=(64, 1024), replicates=1, eval_sample_size=64))
    pattern = r"pivot-basis evaluation: (\d+) of (\d+) centres, sup \|f - f_hat\| <= (\S+)"
    found = [
        re.fullmatch(pattern, r.getMessage())
        for r in caplog.records
        if r.name == "probdense.denseness" and r.getMessage().startswith("pivot-basis")
    ]
    assert len(found) == 1 and found[0] is not None
    rank, n, bound = found[0].groups()
    assert n == "1024" and 0 < int(rank) <= 1024 // 8 and float(bound) > 0.0


def grid_sup_gap(target, g, grid_resolution):
    """The sup gap's definition: max |target - g| over _sup_grid(target, grid_resolution)."""
    pts = denseness_mod._sup_grid(target, grid_resolution)
    return float(np.abs(target(pts) - g(pts)).max())


def test_sup_gap_of_target_with_itself_is_zero():
    f = IntervalIndicator(0.1, 0.6)
    assert grid_sup_gap(f, f, 101) == 0.0


def test_sup_gap_against_constant_half():
    f = IntervalIndicator(0.0, 0.5)
    g = lambda X: np.full(X.shape[0], 0.5)
    assert grid_sup_gap(f, g, 101) == 0.5


def test_sup_grid_catches_jump_between_grid_nodes():
    # the jump at 0.45 sits between the 11 grid nodes; an interpolant that
    # matches every node exactly only gets caught at the jump point itself
    f = IntervalIndicator(0.0, 0.45)
    nodes = np.linspace(0.0, 1.0, 11)
    node_vals = f(nodes[:, None])
    g = lambda X: np.interp(X[:, 0], nodes, node_vals)
    assert np.array_equal(g(nodes[:, None]), node_vals)
    pts = denseness_mod._sup_grid(f, 11)
    assert np.array_equal(pts[:, 0], np.append(nodes, [0.0, 0.45]))
    assert grid_sup_gap(f, g, 11) == pytest.approx(0.5, abs=1e-9)


def test_sup_gap_validation():
    # the grid needs both ends of the domain; StudyConfig checks it
    with pytest.raises(ValueError, match="grid_resolution must be >= 2, got 1"):
        tiny_config(grid_resolution=1)
    # a float resolution is taken as an int, as eval_sample_size is
    cfg = tiny_config(grid_resolution=51.0, sample_sizes=(4,))
    assert cfg.grid_resolution == 51 and not run_study(cfg).partial


def test_run_study_shape_and_determinism():
    cfg = tiny_config()
    r1 = run_study(cfg)
    r2 = run_study(cfg)
    assert r1.cells == r2.cells
    assert [(c.n, c.replicate) for c in r1.cells] == [(4, 0), (4, 1), (8, 0), (8, 1)]
    assert not r1.partial
    for c in r1.cells:
        assert c.error is None
        for v in (c.d_psi, c.ky_fan, c.sup_gap, c.l1_gap, c.risk_gap):
            assert np.isfinite(v) and v >= 0.0
        # target risk is exactly zero, so the gap is the fitted L1 risk
        assert c.risk_gap == c.l1_gap


def test_study_cell_evaluates_the_fit_once(monkeypatch):
    cfg = tiny_config(kernel_family="wendland_c2", sample_sizes=(8,))
    real = rkhs_mod.kernel_matvec
    rows = []

    def counted(k, X, C, a):
        rows.append(X.shape[0])
        return real(k, X, C, a)

    monkeypatch.setattr(rkhs_mod, "kernel_matvec", counted)
    report = run_study(cfg)
    grid = 51 + len(cfg.target.discontinuities)
    assert rows == [32 + grid] * len(report.cells)
    # 1-D Wendland values do not depend on the batch: the grid's part of the
    # one evaluation gives the sup gap's definition bitwise
    monkeypatch.setattr(rkhs_mod, "kernel_matvec", real)
    sampler = uniform_sampler(cfg.target.domain)
    for cell in report.cells:
        rng = derive_rng(cfg.seed, 8, cell.replicate, "train")
        fitted = fit_approximant(cfg.target, 8, cfg.kernel_for(8), cfg.penalty_for(8), sampler, rng)
        assert cell.sup_gap == grid_sup_gap(cfg.target, fitted, cfg.grid_resolution)


WENDLAND_STUDY = Path(__file__).parent / "data" / "wendland_study.json"


def test_wendland_study_matches_recorded_values():
    # a wrong support window moves these far beyond rel 1e-9; rounding does not
    recorded = json.loads(WENDLAND_STUDY.read_text())
    report = run_study(
        StudyConfig(
            target=PiecewiseConstant(((0.1, 0.25, 1.0), (0.4, 0.6, -0.5), (0.75, 0.9, 0.8))),
            sample_sizes=tuple(recorded["sample_sizes"]),
            seed=recorded["seed"],
            replicates=recorded["replicates"],
            kernel_family="wendland_c2",
            psi=RatioPsi(),
            sampler="truncated_gaussian",
        )
    )
    assert not report.partial
    assert len(report.cells) == len(recorded["cells"])
    for cell, ref in zip(report.cells, recorded["cells"]):
        assert (cell.n, cell.replicate) == (ref["n"], ref["replicate"])
        for name in ("d_psi", "ky_fan", "sup_gap", "l1_gap"):
            assert getattr(cell, name) == pytest.approx(ref[name], rel=1e-9, abs=0.0), name


LOWRANK_STUDY = Path(__file__).parent / "data" / "lowrank_study.json"


def test_low_rank_solve_matches_the_dense_study_values():
    # recorded with the dense Gram matrix and a full Cholesky; the n = 1024
    # cells now take the pivoted-Cholesky solve and must agree to rel 1e-9
    recorded = json.loads(LOWRANK_STUDY.read_text())
    cfg = parse_study_config(Path(__file__).parents[1] / recorded["config"])
    report = run_study(
        replace(
            cfg,
            sample_sizes=tuple(recorded["sample_sizes"]),
            replicates=recorded["replicates"],
            eval_sample_size=None,
        )
    )
    assert cfg.seed == recorded["seed"]
    assert not report.partial
    assert len(report.cells) == len(recorded["cells"])
    for cell, ref in zip(report.cells, recorded["cells"]):
        assert (cell.n, cell.replicate) == (ref["n"], ref["replicate"])
        for name in ("d_psi", "ky_fan", "sup_gap", "l1_gap"):
            assert getattr(cell, name) == pytest.approx(ref[name], rel=1e-9, abs=0.0), name


def test_risk_convergence_check_passes_on_clean_study():
    report = run_study(tiny_config())
    res = risk_convergence_check(report)
    assert res.passed
    assert res.cells_checked == 4
    assert res.worst_margin > 0.0


def test_run_study_continues_past_failing_cell(monkeypatch):
    real = denseness_mod._ridge_solve

    def flaky(data, kernel, lam):
        if data.n == 8:
            raise NumericalError("forced failure")
        return real(data, kernel, lam)

    monkeypatch.setattr(denseness_mod, "_ridge_solve", flaky)
    report = run_study(tiny_config())
    assert report.partial
    good = [c for c in report.cells if c.n == 4]
    bad = [c for c in report.cells if c.n == 8]
    assert all(c.error is None and np.isfinite(c.d_psi) for c in good)
    assert all(c.error == "forced failure" for c in bad)
    assert all(np.isnan(c.d_psi) and np.isnan(c.sup_gap) for c in bad)


def test_risk_check_with_no_valid_cells():
    cell = StudyCell(4, 0, *(float("nan"),) * 5, "boom")
    report = ConvergenceReport(tiny_config(), (cell,))
    res = risk_convergence_check(report)
    assert not res.passed
    assert res.cells_checked == 0
    assert np.isnan(res.worst_margin)


def test_report_csv_round_trips_cells(tmp_path):
    good = run_study(tiny_config(sample_sizes=(4,))).cells
    nans = dict.fromkeys(("d_psi", "ky_fan", "sup_gap", "l1_gap", "risk_gap"), float("nan"))
    failed = StudyCell(n=8, replicate=0, **nans, error="boom")
    report = ConvergenceReport(tiny_config(), (*good, failed))
    out = tmp_path / "r.csv"
    emit_report(report, out, "config", "0" * 64)
    back = read_report_csv(out)
    # repr compares floats bitwise and nan equal to nan; the error text is in the manifest
    assert [repr(astuple(c)) for c in back] == [
        repr(astuple(replace(c, error=None))) for c in report.cells
    ]
    assert "error_cell = n=8 replicate=0: boom\n" in (tmp_path / "r.csv.manifest.txt").read_text()
