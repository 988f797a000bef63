"""Tests for the regularized ERM solvers, clipping, and risk machinery."""

import logging
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import cho_factor, cho_solve

from probdense import (
    AbsoluteLoss,
    Dataset,
    FitConfig,
    FitInfo,
    GaussianRBF,
    NumericalError,
    PinballLoss,
    RankingSquaredLoss,
    RkhsFunction,
    SquaredLoss,
    clip,
    empirical_risk,
    fit_erm,
    fit_kernel_ridge,
    fit_pairwise,
    gram_matrix,
    WendlandC2,
)
from probdense import erm as erm_mod


def separated_problem(rng, n):
    """Perturbed-grid inputs with bandwidth equal to the spacing.

    Keeps the Gram well conditioned so the decaying-step solver actually
    reaches the ridge optimum.
    """
    spacing = 1.0 / n
    x = (np.arange(n) + rng.uniform(0.2, 0.8, n)) * spacing
    y = np.sin(3.0 * x) + 0.2 * rng.normal(size=n)
    return Dataset(x[:, None], y), GaussianRBF(spacing)


def ridge_objective(data, kernel, lam, f):
    K = gram_matrix(kernel, data.inputs)
    fv = K @ f.coefficients
    return float(np.mean((data.outputs - fv) ** 2) + lam * f.coefficients @ K @ f.coefficients)


def test_dataset_validation():
    with pytest.raises(ValueError):
        Dataset(np.zeros((3, 1)), np.zeros(2))
    with pytest.raises(ValueError):
        Dataset(np.zeros((2, 1)), np.array([0.0, np.nan]))
    assert Dataset(np.zeros((4, 2)), np.zeros(4)).n == 4


def test_loss_values_and_subgradients():
    y = np.array([1.0, -1.0, 0.0])
    t = np.zeros(3)
    assert np.array_equal(SquaredLoss().values(y, t), np.array([1.0, 1.0, 0.0]))
    assert np.array_equal(AbsoluteLoss().values(y, t), np.array([1.0, 1.0, 0.0]))
    # absolute subgradient picks 0 at an exact tie
    assert np.array_equal(AbsoluteLoss().subgradient(y, t), np.array([-1.0, 1.0, 0.0]))
    pin = PinballLoss(0.9)
    low = 1.0 - 0.9  # deliberately not 0.1: floats
    assert np.array_equal(pin.values(y, t), np.array([0.9, low, 0.0]))
    # residual 0 takes the tau-1 branch
    assert np.array_equal(pin.subgradient(y, t), np.array([-0.9, low, low]))
    assert pin.lipschitz_constant == 0.9
    assert AbsoluteLoss().lipschitz_constant == 1.0


def test_pinball_half_is_half_absolute():
    rng = np.random.default_rng(3)
    y = rng.normal(size=50)
    t = rng.normal(size=50)
    t[7] = y[7]
    assert np.array_equal(PinballLoss(0.5).values(y, t), AbsoluteLoss().values(y, t) / 2.0)


@pytest.mark.parametrize("tau", [0.0, 1.0, -0.2, float("nan")])
def test_pinball_tau_range_enforced(tau):
    with pytest.raises(ValueError):
        PinballLoss(tau)


def test_fit_config_validation():
    with pytest.raises(ValueError):
        FitConfig(lam=0.0)
    with pytest.raises(ValueError):
        FitConfig(lam=1.0, max_iters=0)
    with pytest.raises(ValueError):
        FitConfig(lam=1.0, step_size0=-1.0)


def test_ridge_single_point_closed_form():
    data = Dataset(np.array([[0.0]]), np.array([2.0]))
    f = fit_kernel_ridge(data, GaussianRBF(1.0), 1.0)
    # (k(0,0) + 1*1) alpha = 2  =>  alpha = 1
    assert f.coefficients[0] == pytest.approx(1.0, abs=1e-12)
    assert f([0.0]) == pytest.approx(1.0, abs=1e-12)


def test_ridge_zero_outputs_give_zero_function():
    rng = np.random.default_rng(5)
    data = Dataset(rng.normal(size=(8, 2)), np.zeros(8))
    f = fit_kernel_ridge(data, GaussianRBF(0.7), 1e-3)
    assert np.array_equal(f.coefficients, np.zeros(8))


def test_ridge_huge_penalty_shrinks_to_zero():
    rng = np.random.default_rng(7)
    data = Dataset(rng.uniform(0, 1, (12, 1)), rng.normal(size=12))
    f = fit_kernel_ridge(data, GaussianRBF(0.5), 1e6)
    bound = np.linalg.norm(data.outputs) / (12 * 1e6)
    assert np.linalg.norm(f.coefficients) <= bound * (1.0 + 1e-8)
    assert np.abs(f(data.inputs)).max() < 1e-5


def test_ridge_residual_certificate():
    rng = np.random.default_rng(11)
    for _ in range(10):
        n = int(rng.integers(5, 120))
        X = rng.uniform(-1, 1, (n, int(rng.integers(1, 4))))
        y = rng.normal(size=n)
        lam = 10 ** rng.uniform(-6, 0)
        k = GaussianRBF(float(rng.uniform(0.2, 1.5)))
        f = fit_kernel_ridge(Dataset(X, y), k, lam)
        K = gram_matrix(k, X)
        residual = np.linalg.norm((K + n * lam * np.eye(n)) @ f.coefficients - y)
        assert residual <= 1e-8 * (np.linalg.norm(y) + 1.0)


def test_ridge_centers_are_training_inputs():
    rng = np.random.default_rng(13)
    data = Dataset(rng.normal(size=(9, 2)), rng.normal(size=9))
    f = fit_kernel_ridge(data, GaussianRBF(), 0.1)
    assert np.array_equal(f.centers, data.inputs)


def test_ridge_jitter_recovers_from_transient_failures(monkeypatch):
    from scipy.linalg import cho_factor

    calls = {"n": 0}

    def flaky(A, **kw):
        calls["n"] += 1
        if calls["n"] <= 2:
            raise np.linalg.LinAlgError("forced")
        return cho_factor(A, **kw)

    monkeypatch.setattr(erm_mod, "cho_factor", flaky)
    data = Dataset(np.array([[0.0], [1.0]]), np.array([1.0, 2.0]))
    f = fit_kernel_ridge(data, GaussianRBF(), 0.5)
    assert calls["n"] == 3
    assert np.all(np.isfinite(f.coefficients))


def test_ridge_raises_after_jitter_escalation(monkeypatch):
    def always_fail(A, **kw):
        raise np.linalg.LinAlgError("forced")

    monkeypatch.setattr(erm_mod, "cho_factor", always_fail)
    data = Dataset(np.array([[0.0], [1.0]]), np.array([1.0, 2.0]))
    with pytest.raises(NumericalError, match=r"3 jitter escalations \(n=2, lam=0\.5\)"):
        fit_kernel_ridge(data, GaussianRBF(), 0.5)


def _ridge_reference(data, kernel, lam, factorize=cho_factor):
    """fit_kernel_ridge's coefficients as computed by its own inline jitter loop."""
    A = gram_matrix(kernel, data.inputs)
    return _jitter_reference(A, data.n * lam, data.outputs, factorize)


def _pairwise_reference(data, kernel, lam, factorize=cho_factor):
    """fit_pairwise's coefficients: the centred system on the same inline jitter loop."""
    K = gram_matrix(kernel, data.inputs)
    m = K.mean(axis=1)
    A = K - m[:, None]
    A -= m
    A += m.mean()
    yc = data.outputs - data.outputs[0]
    yc -= yc.mean()
    return _jitter_reference(A, 0.5 * data.n * lam, yc, factorize)


def _jitter_reference(A, shift, b, factorize):
    """Cholesky of a copy of A + shift * I with the solvers' jitter escalation."""
    n = A.shape[0]
    jitter = 1e-12 * float(np.trace(A)) / n
    diag = np.diag_indices(n)
    A[diag] += shift
    attempt = 0
    while True:
        try:
            factor = factorize(A, lower=True, check_finite=False)
            break
        except np.linalg.LinAlgError:
            assert attempt < 3
            A[diag] += jitter
            jitter *= 10.0
            attempt += 1
    return cho_solve(factor, b, check_finite=False)


def _counting_cho_factor(failures, forced=0):
    """cho_factor that fails its first `forced` calls and counts every failure."""

    def factorize(A, **kw):
        try:
            if failures["calls"] < forced:
                raise np.linalg.LinAlgError("forced")
            return cho_factor(A, **kw)
        except np.linalg.LinAlgError:
            failures["n"] += 1
            raise
        finally:
            failures["calls"] += 1

    return factorize


def test_ridge_shared_cholesky_path_is_bitwise_unchanged(monkeypatch):
    rng = np.random.default_rng(53)
    data, kernel = separated_problem(rng, 60)
    failures = {"n": 0, "calls": 0}
    monkeypatch.setattr(erm_mod, "cho_factor", _counting_cho_factor(failures))
    f = fit_kernel_ridge(data, kernel, 1e-3)
    assert np.array_equal(f.coefficients, _ridge_reference(data, kernel, 1e-3))
    assert failures["n"] == 0
    # duplicated inputs and a penalty below rounding: singular, so the jitter retries
    x = np.repeat(rng.uniform(0, 1, 4), 3)
    dup = Dataset(x[:, None], rng.normal(size=x.size))
    f = fit_kernel_ridge(dup, GaussianRBF(0.5), 1e-300)
    assert failures["n"] >= 1
    assert np.array_equal(f.coefficients, _ridge_reference(dup, GaussianRBF(0.5), 1e-300))
    # two forced retries at a penalty that moves trace(A): jitter comes from trace(K)
    failures = {"n": 0, "calls": 0}
    monkeypatch.setattr(erm_mod, "cho_factor", _counting_cho_factor(failures, forced=2))
    f = fit_kernel_ridge(data, kernel, 0.05)
    assert failures["n"] == 2
    forced = _counting_cho_factor({"n": 0, "calls": 0}, forced=2)
    assert np.array_equal(f.coefficients, _ridge_reference(data, kernel, 0.05, forced))


def test_jitter_escalations_are_logged(monkeypatch, caplog):
    rng = np.random.default_rng(61)
    data, kernel = separated_problem(rng, 20)
    jitter = 1e-12 * float(np.trace(gram_matrix(kernel, data.inputs))) / data.n
    caplog.set_level(logging.WARNING, logger="probdense.erm")
    fit_kernel_ridge(data, kernel, 0.05)
    assert caplog.records == []
    monkeypatch.setattr(erm_mod, "cho_factor", _counting_cho_factor({"n": 0, "calls": 0}, forced=2))
    fit_kernel_ridge(data, kernel, 0.05)
    assert [(r.name, r.levelno) for r in caplog.records] == [("probdense.erm", logging.WARNING)] * 2
    assert [r.getMessage() for r in caplog.records] == [
        f"Cholesky failed; jitter escalation {k} of 3 adds {j!r} to the diagonal (n=20, lam=0.05)"
        for k, j in ((1, jitter), (2, jitter * 10.0))
    ]
    caplog.clear()
    monkeypatch.setattr(erm_mod, "cho_factor", _counting_cho_factor({"n": 0, "calls": 0}, forced=4))
    with pytest.raises(NumericalError):
        fit_kernel_ridge(data, kernel, 0.05)
    assert [r.getMessage().split(" adds ")[0] for r in caplog.records] == [
        f"Cholesky failed; jitter escalation {k} of 3" for k in (1, 2, 3)
    ]


def test_in_place_factorization_is_bitwise_unchanged(monkeypatch):
    # LAPACK overwrites the system it factors in place; a retry must see it restored
    rng = np.random.default_rng(59)
    data, kernel = separated_problem(rng, 60)
    for fit, reference in (
        (lambda: fit_kernel_ridge(data, kernel, 1e-3), _ridge_reference),
        (
            lambda: fit_pairwise(data, kernel, RankingSquaredLoss(), FitConfig(1e-3)),
            _pairwise_reference,
        ),
    ):
        monkeypatch.setattr(erm_mod, "cho_factor", cho_factor)
        assert np.array_equal(fit().coefficients, reference(data, kernel, 1e-3))
        seen = []

        def factor_then_fail_once(A, **kw):
            before = A.copy()
            factor = cho_factor(A, **kw)
            seen.append(not np.array_equal(A, before))
            if len(seen) == 1:
                raise np.linalg.LinAlgError("forced after factoring")
            return factor

        monkeypatch.setattr(erm_mod, "cho_factor", factor_then_fail_once)
        f = fit()
        assert seen == [True, True]
        fail_once = _counting_cho_factor({"n": 0, "calls": 0}, forced=1)
        assert np.array_equal(f.coefficients, reference(data, kernel, 1e-3, fail_once))


def test_ridge_factors_the_system_in_place():
    rng = np.random.default_rng(61)
    n = 2048
    data = Dataset(rng.uniform(0, 1, (n, 1)), rng.normal(size=n))
    tracemalloc.start()
    try:
        fit_kernel_ridge(data, GaussianRBF(0.1), 1e-3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # K alone is 32 MiB; a copying factorization peaks at 64 MiB
    assert peak < 40 * 2**20


def test_subgradient_zero_data_stays_at_zero():
    rng = np.random.default_rng(17)
    data = Dataset(rng.normal(size=(10, 1)), np.zeros(10))
    f, info = fit_erm(data, GaussianRBF(), AbsoluteLoss(), FitConfig(0.1, max_iters=50), return_info=True)
    assert info.objective_at_zero == 0.0
    assert info.objective == 0.0
    assert np.array_equal(f.coefficients, np.zeros(10))


def test_subgradient_never_beats_zero_function_bound():
    rng = np.random.default_rng(19)
    for _ in range(10):
        n = int(rng.integers(3, 40))
        data = Dataset(rng.normal(size=(n, 2)), rng.normal(size=n))
        loss = [AbsoluteLoss(), PinballLoss(0.3), SquaredLoss()][int(rng.integers(0, 3))]
        cfg = FitConfig(10 ** rng.uniform(-4, 0), max_iters=60, step_size0=float(rng.uniform(0.01, 2.0)))
        _, info = fit_erm(data, GaussianRBF(0.6), loss, cfg, return_info=True)
        assert info.objective <= info.objective_at_zero


def test_subgradient_matches_ridge_on_squared_loss():
    rng = np.random.default_rng(23)
    data, kernel = separated_problem(rng, 50)
    lam = 0.05
    ridge = fit_kernel_ridge(data, kernel, lam)
    target = ridge_objective(data, kernel, lam, ridge)
    K = gram_matrix(kernel, data.inputs)
    ew = np.linalg.eigvalsh(K)
    step = 1.0 / float((2.0 * ew**2 / data.n + 2.0 * lam * ew).max())
    _, info = fit_erm(
        data, kernel, SquaredLoss(), FitConfig(lam, max_iters=4000, step_size0=step), return_info=True
    )
    assert abs(info.objective - target) <= 1e-4 * target


def test_pinball_half_fit_equals_rescaled_absolute_fit():
    # rho_{1/2} = |r|/2 makes the two objectives proportional once the
    # penalty doubles, and step doubling matches the trajectories exactly
    rng = np.random.default_rng(29)
    data = Dataset(rng.uniform(0, 1, (30, 1)), rng.normal(size=30))
    k = GaussianRBF(0.4)
    fp = fit_erm(data, k, PinballLoss(0.5), FitConfig(1e-2, max_iters=400, step_size0=1.0))
    fa = fit_erm(data, k, AbsoluteLoss(), FitConfig(2e-2, max_iters=400, step_size0=0.5))
    assert np.abs(fp(data.inputs) - fa(data.inputs)).max() <= 1e-10


def test_subgradient_divergence_raises():
    rng = np.random.default_rng(31)
    data = Dataset(rng.uniform(0, 1, (6, 1)), rng.normal(size=6))
    cfg = FitConfig(1e-3, max_iters=50, step_size0=1e200)
    with pytest.raises(NumericalError):
        fit_erm(data, GaussianRBF(0.5), AbsoluteLoss(), cfg)


def _four_matvec_subgradient(data, kernel, loss, cfg):
    """fit_erm as first written: K @ alpha recomputed for the gradient, fvals and the penalty."""
    K = gram_matrix(kernel, data.inputs)
    y, n = data.outputs, data.n
    alpha = np.zeros(n)
    fvals = np.zeros(n)

    def objective(a, fv):
        return float(np.mean(loss.values(y, fv)) + cfg.lam * (a @ (K @ a)))

    best_alpha = alpha
    best_obj = obj_zero = objective(alpha, fvals)
    grad_norm = np.inf
    iters_run = 0
    for t in range(1, cfg.max_iters + 1):
        grad = (K @ loss.subgradient(y, fvals)) / n + (2.0 * cfg.lam) * (K @ alpha)
        grad_norm = float(np.linalg.norm(grad))
        if grad_norm <= cfg.tol:
            break
        alpha = alpha - cfg.step_size0 / np.sqrt(t) * grad
        fvals = K @ alpha
        obj = objective(alpha, fvals)
        if obj < best_obj:
            best_obj, best_alpha = obj, alpha
        iters_run = t
    return best_alpha, FitInfo(best_obj, obj_zero, iters_run, grad_norm, grad_norm <= cfg.tol)


@pytest.mark.parametrize("loss", [PinballLoss(0.9), AbsoluteLoss(), SquaredLoss()])
def test_subgradient_reuses_fvals_bitwise(loss):
    rng = np.random.default_rng(59)
    x = rng.uniform(0, 1, 80)
    data = Dataset(x[:, None], np.sin(2 * np.pi * x) + 0.3 * rng.normal(size=80))
    cfg = FitConfig(1e-3, max_iters=300, step_size0=0.5)
    f, info = fit_erm(data, GaussianRBF(0.2), loss, cfg, return_info=True)
    alpha, expected = _four_matvec_subgradient(data, GaussianRBF(0.2), loss, cfg)
    assert np.array_equal(f.coefficients, alpha)
    assert info == expected


def test_pairwise_equal_outputs_stay_at_zero():
    data = Dataset(np.array([[0.0], [0.5], [1.0]]), np.full(3, 2.0))
    f, info = fit_pairwise(
        data, GaussianRBF(), RankingSquaredLoss(), FitConfig(0.1, max_iters=50), return_info=True
    )
    assert info.objective == 0.0
    assert info.converged
    assert np.array_equal(f.coefficients, np.zeros(3))


def test_pairwise_two_point_sign_convention():
    data = Dataset(np.array([[0.0], [100.0]]), np.array([0.0, 1.0]))
    cfg = FitConfig(1e-6, max_iters=500, step_size0=1.0)
    f = fit_pairwise(data, GaussianRBF(1.0), RankingSquaredLoss(), cfg)
    fitted_diff = f([0.0]) - f([100.0])
    assert abs(fitted_diff - (-1.0)) < 0.1


def test_pairwise_huge_penalty_shrinks_to_zero():
    rng = np.random.default_rng(37)
    data = Dataset(rng.uniform(0, 1, (12, 1)), rng.normal(size=12))
    f = fit_pairwise(data, GaussianRBF(0.5), RankingSquaredLoss(), FitConfig(1e6, max_iters=200))
    assert np.abs(f(data.inputs)).max() < 1e-3


def test_pairwise_rejects_wrong_loss_and_tiny_datasets():
    data = Dataset(np.array([[0.0], [1.0]]), np.array([0.0, 1.0]))
    with pytest.raises(TypeError):
        fit_pairwise(data, GaussianRBF(), AbsoluteLoss(), FitConfig(0.1))
    single = Dataset(np.array([[0.0]]), np.array([1.0]))
    with pytest.raises(ValueError):
        fit_pairwise(single, GaussianRBF(), RankingSquaredLoss(), FitConfig(0.1))


def _pairwise_objective(data, kernel, lam, a):
    """The ranking objective by its O(n^2) definition over all pairs."""
    K = gram_matrix(kernel, data.inputs)
    y, f = data.outputs, K @ a
    pairs = RankingSquaredLoss().pair_values(y[:, None] - y[None, :], f[:, None] - f[None, :])
    return float(pairs.mean() + lam * (a @ f))


@settings(max_examples=60, deadline=None)
@given(
    x=st.lists(st.floats(-2.0, 2.0), min_size=2, max_size=40),
    data=st.data(),
    kernel=st.sampled_from([GaussianRBF(0.1), GaussianRBF(1.0), WendlandC2(0.5), WendlandC2(3.0)]),
    lam=st.floats(-4.0, 0.0).map(lambda e: 10.0**e),
    shift=st.floats(-10.0, 10.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_pairwise_fit_is_the_exact_minimiser(x, data, kernel, lam, shift, seed):
    n = len(x)
    y = np.array(data.draw(st.lists(st.floats(-5.0, 5.0), min_size=n, max_size=n)))
    X = np.array(x)[:, None]
    sample = Dataset(X, y)
    f, info = fit_pairwise(sample, kernel, RankingSquaredLoss(), FitConfig(lam), return_info=True)
    a = f.coefficients
    assert (info.n_iters, info.converged) == (0, True)
    K = gram_matrix(kernel, X)
    P = np.eye(n) - 1.0 / n
    # rounding-level bounds, with a floor at the underflow threshold for subnormal outputs
    tiny = 1e-300
    scale = 2.0 * np.abs(a).sum() + lam * np.abs(a).max() + 2.0 * np.abs(y).max()
    stationarity = ((2.0 / n) * P @ K + lam * np.eye(n)) @ a - (2.0 / n) * P @ y
    assert np.abs(stationarity).max() <= 1e-12 * scale + tiny
    # the gradient is 2 K (lam alpha - (2/n) P r), so the residual's bound times ||K|| <= n
    assert info.grad_norm <= 2e-12 * n**1.5 * scale + tiny
    assert abs(a.sum()) <= 1e-12 * (np.abs(a).sum() + np.abs(y).sum() / (n * lam)) + tiny
    shifted = fit_pairwise(Dataset(X, y + shift), kernel, RankingSquaredLoss(), FitConfig(lam))
    atol = 1e-11 * (np.abs(y).max() + abs(shift)) / lam + tiny
    np.testing.assert_allclose(shifted.coefficients, a, rtol=0, atol=atol)
    obj = _pairwise_objective(sample, kernel, lam, a)
    assert obj == pytest.approx(info.objective, rel=1e-10, abs=tiny)
    assert info.objective <= info.objective_at_zero * (1.0 + 1e-10) + tiny
    rng = np.random.default_rng(seed)
    for size in (1e-6, 1e-3, 1.0):
        perturbed = _pairwise_objective(sample, kernel, lam, a + size * rng.normal(size=n))
        assert obj <= perturbed * (1.0 + 1e-10) + tiny


@pytest.mark.parametrize("c", [2.0, 0.1, -3.7e5, 1e-300])
def test_pairwise_constant_outputs_give_zero(c):
    data = Dataset(np.linspace(0.0, 1.0, 7)[:, None], np.full(7, c))
    f, info = fit_pairwise(
        data, GaussianRBF(0.3), RankingSquaredLoss(), FitConfig(1e-3), return_info=True
    )
    assert np.array_equal(f.coefficients, np.zeros(7))
    assert info.objective == 0.0 and info.objective_at_zero == 0.0 and info.grad_norm == 0.0


def test_clip_pointwise_values():
    f = clip(lambda x: np.asarray([3.0, -5.0, 0.5]), 1.0)
    assert np.array_equal(f(None), np.array([1.0, -1.0, 0.5]))
    g = clip(lambda x: -5.0, 2.0)
    assert g(None) == -2.0
    with pytest.raises(ValueError):
        clip(lambda x: x, 0.0)


def test_clip_is_idempotent():
    rng = np.random.default_rng(41)
    f = RkhsFunction(GaussianRBF(0.3), rng.normal(size=(8, 1)), 3.0 * rng.normal(size=8))
    once = clip(f, 0.7)
    twice = clip(once, 0.7)
    X = rng.normal(size=(40, 1))
    assert np.array_equal(once(X), twice(X))


def test_clipping_never_increases_risk():
    rng = np.random.default_rng(43)
    M = 1.0
    losses = [SquaredLoss(), AbsoluteLoss(), PinballLoss(0.25)]
    for trial in range(60):
        n = int(rng.integers(2, 30))
        X = rng.uniform(-1, 1, (n, 1))
        y = rng.uniform(-M, M, n)
        data = Dataset(X, y)
        f = RkhsFunction(GaussianRBF(0.4), rng.uniform(-1, 1, (6, 1)), 4.0 * rng.normal(size=6))
        loss = losses[trial % 3]
        assert empirical_risk(clip(f, M), data, loss) <= empirical_risk(f, data, loss) + 1e-12


def test_risk_difference_obeys_lipschitz_bound():
    rng = np.random.default_rng(47)
    for trial in range(60):
        n = int(rng.integers(2, 40))
        X = rng.uniform(-1, 1, (n, 1))
        data = Dataset(X, rng.normal(size=n))
        f = RkhsFunction(GaussianRBF(0.5), rng.uniform(-1, 1, (5, 1)), rng.normal(size=5))
        g = RkhsFunction(GaussianRBF(0.3), rng.uniform(-1, 1, (7, 1)), rng.normal(size=7))
        loss = AbsoluteLoss() if trial % 2 == 0 else PinballLoss(0.8)
        gap = abs(empirical_risk(f, data, loss) - empirical_risk(g, data, loss))
        l1 = float(np.mean(np.abs(f(X) - g(X))))
        assert gap <= loss.lipschitz_constant * l1 + 1e-12


def test_empirical_risk_frozen_values():
    data = Dataset(np.array([[0.0], [1.0]]), np.array([1.0, -1.0]))
    zero = lambda X: np.zeros(X.shape[0])
    assert empirical_risk(zero, data, AbsoluteLoss()) == 1.0
    interpolant = lambda X: np.array([1.0, -1.0])
    assert empirical_risk(interpolant, data, SquaredLoss()) == 0.0
    one = Dataset(np.array([[0.0]]), np.array([1.0]))
    assert empirical_risk(zero, one, PinballLoss(0.9)) == pytest.approx(0.9, abs=1e-15)
