"""Tests for targets, samplers, and the denseness study driver."""

from dataclasses import astuple, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import truncnorm

from probdense import (
    ConvergenceReport,
    GaussianRBF,
    IntervalIndicator,
    NumericalError,
    PiecewiseConstant,
    SignStep,
    SineWave,
    StudyCell,
    StudyConfig,
    WendlandC2,
    fit_approximant,
    risk_convergence_check,
    run_study,
    sup_gap_estimate,
    truncated_gaussian_sampler,
    uniform_sampler,
)
from probdense import denseness as denseness_mod
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


@settings(max_examples=200, deadline=None)
@given(
    low=st.floats(-100.0, 100.0),
    log_width=st.floats(-3.0, 2.0),
    where=st.one_of(st.sampled_from(["low", "high"]), st.floats(0.0, 1.0)),
    log_scale=st.floats(-3.0, 2.0),
    n=st.sampled_from([1, 2, 5120]),
    seed=st.integers(0, 2**32 - 1),
)
def test_truncated_gaussian_draws_are_bitwise_truncnorm(low, log_width, where, log_scale, n, seed):
    high = low + 10.0**log_width
    if where == "low":
        center = low
    elif where == "high":
        center = high
    else:
        center = min(high, low + where * (high - low))
    scale = 10.0**log_scale
    X = truncated_gaussian_sampler((low, high), center, scale)(np.random.default_rng(seed), n)
    a, b = (low - center) / scale, (high - center) / scale
    rng = np.random.default_rng(seed)
    expected = truncnorm.rvs(a, b, loc=center, scale=scale, size=(n, 1), random_state=rng)
    assert X.shape == (n, 1)
    assert np.array_equal(X, expected)


def test_truncated_gaussian_sampler_validation():
    with pytest.raises(ValueError, match="center"):
        truncated_gaussian_sampler((0.0, 1.0), center=2.0)
    with pytest.raises(ValueError, match="scale"):
        truncated_gaussian_sampler((0.0, 1.0), scale=0.0)


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
        dict(lambda_coeff=-1.0),
        dict(psi=0.5),
        dict(eval_sample_size=0),
        dict(grid_resolution=1),
        dict(sampler="poisson"),
        dict(target=lambda x: x),
        dict(sampler="truncated_gaussian", sampler_center=5.0),
        dict(sampler="truncated_gaussian", sampler_scale=0.0),
        dict(sampler_center=0.3),
        dict(sampler_scale=0.1),
    ],
)
def test_config_validation(kw):
    with pytest.raises(ValueError):
        tiny_config(**kw)


def test_fit_approximant_zero_target_gives_zero_function():
    target = PiecewiseConstant(((0.2, 0.3, 0.0),))
    f = fit_approximant(
        target, 10, GaussianRBF(0.5), 0.1, uniform_sampler((0.0, 1.0)), np.random.default_rng(1)
    )
    assert np.array_equal(f.coefficients, np.zeros(10))


def test_sup_gap_of_target_with_itself_is_zero():
    f = IntervalIndicator(0.1, 0.6)
    assert sup_gap_estimate(f, f, f.domain, 101) == 0.0


def test_sup_gap_against_constant_half():
    f = IntervalIndicator(0.0, 0.5)
    g = lambda X: np.full(X.shape[0], 0.5)
    assert sup_gap_estimate(f, g, f.domain, 101) == 0.5


def test_sup_gap_straddle_catches_jump_between_grid_nodes():
    # the jump at 0.45 sits between the 11 grid nodes; an interpolant that
    # matches every node exactly only gets caught by the straddle points
    f = IntervalIndicator(0.0, 0.45)
    nodes = np.linspace(0.0, 1.0, 11)
    node_vals = f(nodes[:, None])
    g = lambda X: np.interp(X[:, 0], nodes, node_vals)
    assert sup_gap_estimate(f, g, f.domain, 11, discontinuities=()) == 0.0
    assert sup_gap_estimate(f, g, f.domain, 11) == pytest.approx(0.5, abs=1e-9)


def test_sup_gap_validation():
    f = IntervalIndicator(0.0, 0.5)
    with pytest.raises(ValueError):
        sup_gap_estimate(f, f, f.domain, 1)
    with pytest.raises(ValueError):
        sup_gap_estimate(f, f, (1.0, 0.0), 11)


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


def test_risk_convergence_check_passes_on_clean_study():
    report = run_study(tiny_config())
    res = risk_convergence_check(report)
    assert res.passed
    assert res.cells_checked == 4
    assert res.worst_margin > 0.0


def test_risk_convergence_check_validation():
    report = run_study(tiny_config(sample_sizes=(4,), replicates=1))
    with pytest.raises(ValueError):
        risk_convergence_check(report, lipschitz_constant=-1.0)


def test_run_study_continues_past_failing_cell(monkeypatch):
    real = denseness_mod.fit_kernel_ridge

    def flaky(data, kernel, lam):
        if data.n == 8:
            raise NumericalError("forced failure")
        return real(data, kernel, lam)

    monkeypatch.setattr(denseness_mod, "fit_kernel_ridge", flaky)
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
    emit_report(report, out)
    back = read_report_csv(out)
    # repr compares floats bitwise and nan equal to nan; the error text is in the manifest
    assert [repr(astuple(c)) for c in back] == [
        repr(astuple(replace(c, error=None))) for c in report.cells
    ]
    assert "error_cell = n=8 replicate=0: boom\n" in (tmp_path / "r.csv.manifest.txt").read_text()
