"""Tests for the regularized ERM solvers, clipping, and risk machinery."""

import contextlib
import logging
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
import scipy.linalg

from probdense import (
    AbsoluteLoss,
    Dataset,
    GaussianRBF,
    NumericalError,
    PinballLoss,
    RankingSquaredLoss,
    RkhsFunction,
    SquaredLoss,
    clip,
    empirical_risk,
    fit_kernel_ridge,
    fit_pairwise,
    fit_quantile,
    gram_matrix,
    WendlandC2,
)
from probdense import erm as erm_mod
from probdense import kernels as kernels_mod
from probdense.cli import main
from probdense.kernels import pairwise

# erm's own factor, kept before any test monkeypatches erm.cho_factor
cho_factor = erm_mod.cho_factor

# fit_quantile's bound on the relative duality gap of a converged fit
GAP_TOL = 1e-6


def _gap_messages(caplog):
    return [r.getMessage() for r in caplog.records if r.getMessage().startswith("duality gap ")]


def separated_problem(rng, n):
    """Perturbed-grid inputs with bandwidth equal to the spacing, a well-conditioned Gram matrix."""
    spacing = 1.0 / n
    x = (np.arange(n) + rng.uniform(0.2, 0.8, n)) * spacing
    y = np.sin(3.0 * x) + 0.2 * rng.normal(size=n)
    return Dataset(x[:, None], y), GaussianRBF(spacing)


def test_dataset_validation():
    with pytest.raises(ValueError):
        Dataset(np.zeros((3, 1)), np.zeros(2))
    with pytest.raises(ValueError):
        Dataset(np.zeros((2, 1)), np.array([0.0, np.nan]))
    assert Dataset(np.zeros((4, 2)), np.zeros(4)).n == 4


def test_loss_values():
    y = np.array([1.0, -1.0, 0.0])
    t = np.zeros(3)
    assert np.array_equal(SquaredLoss().values(y, t), np.array([1.0, 1.0, 0.0]))
    assert np.array_equal(AbsoluteLoss().values(y, t), np.array([1.0, 1.0, 0.0]))
    pin = PinballLoss(0.9)
    low = 1.0 - 0.9  # deliberately not 0.1: floats
    assert np.array_equal(pin.values(y, t), np.array([0.9, low, 0.0]))
    assert pin.lipschitz_constant == 0.9
    assert AbsoluteLoss().lipschitz_constant == 1.0
    assert SquaredLoss().lipschitz_constant is None


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
    # every solver rejects a penalty that is not positive and finite
    data = Dataset(np.array([[0.0], [1.0]]), np.array([0.0, 1.0]))
    solvers = (
        lambda lam: fit_kernel_ridge(data, GaussianRBF(), lam),
        lambda lam: fit_quantile(data, GaussianRBF(), PinballLoss(0.5), lam),
        lambda lam: fit_pairwise(data, GaussianRBF(), RankingSquaredLoss(), lam),
    )
    for solve in solvers:
        for lam in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="lam must be positive"):
                solve(lam)


def _overflow_ignored():
    return np.errstate(over="ignore", invalid="ignore")


SPREAD = "outputs' spread max y - min y overflows"


@pytest.mark.parametrize(
    "solve,lam,context,message",
    [
        pytest.param(
            lambda data, k, lam: fit_kernel_ridge(data, k, lam),
            1e-12,
            _overflow_ignored,
            "solve gave non-finite coefficients",
            id="ridge",
        ),
        # the outputs' spread overflows; that is caught before any arithmetic warns
        pytest.param(
            lambda data, k, lam: fit_pairwise(data, k, RankingSquaredLoss(), lam),
            1e-12,
            contextlib.nullcontext,
            SPREAD,
            marks=pytest.mark.filterwarnings("error"),
            id="pairwise",
        ),
        # the same spread check runs before the dual solve starts
        pytest.param(
            lambda data, k, lam: fit_quantile(data, k, PinballLoss(0.5), lam),
            1e-320,
            _overflow_ignored,
            SPREAD,
            id="quantile",
        ),
    ],
)
def test_non_finite_coefficients_are_a_numerical_error(solve, lam, context, message):
    # outputs near the float limit overflow the solve; this is a numerical
    # failure that names n and lam, not an invalid RkhsFunction
    data = Dataset(np.array([[0.0], [0.001]]), np.array([1e308, -1e308]))
    with context():
        with pytest.raises(NumericalError, match=rf"{message} \(n=2, lam={lam!r}\)"):
            solve(data, GaussianRBF(1.0), lam)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "rows,loss,lam,gamma,message",
    [
        # the outputs' spread overflows, caught before the dual's start vertex
        ("0.0,1e308\n0.001,-1e308\n", "absolute", 1e-12, 1.0, SPREAD),
        # finite coefficients whose objective overflows
        ("0.0,4e299\n0.5,-4e299\n", "ranking_squared", 0.5, 0.3, "fit gave a non-finite objective"),
        # finite outputs whose dual active-set step u += 2 lam n p overflows
        ("0.698,-1.3e306\n0.314,-6e305\n", "absolute", 1000.0, 2.2, "dual active-set step is not finite"),
        # a penalty so small that alpha = u / (lam n) and f = K alpha overflow
        ("0.0,1.0\n1.0,-1.0\n", "absolute", 1e-320, 1.0, "dual bound on |f| plus max |y| overflows"),
    ],
    ids=["absolute", "ranking", "active-set-step", "tiny-lambda"],
)
def test_cli_fit_never_exits_0_with_a_non_finite_objective(tmp_path, capsys, rows, loss, lam, gamma, message):
    data = tmp_path / "d.csv"
    data.write_text(rows)
    cfg = tmp_path / "fit.ini"
    cfg.write_text(
        f"[fit]\ndata = {data}\nloss = {loss}\nlambda = {lam!r}\n"
        f"[kernel]\nfamily = gaussian_rbf\ngamma = {gamma!r}\n"
    )
    assert main(["fit", "--config", str(cfg), "--out", str(tmp_path / "f.csv")]) == 2
    err = capsys.readouterr().err
    assert f"numerical failure: {message} (n=2, lam={lam!r})" in err
    assert "Traceback" not in err and "RuntimeWarning" not in err
    assert not (tmp_path / "f.csv").exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    n=st.integers(1, 40),
    scale=st.floats(-300.0, 307.5).map(lambda e: 10.0**e),
    loss=st.sampled_from(["squared", "absolute", "pinball", "ranking_squared"]),
    tau=st.floats(0.01, 0.99),
    lam=st.floats(-323.0, 3.0).map(lambda e: 10.0**e),
    gamma=st.floats(-3.0, 3.0).map(lambda e: 10.0**e),
    seed=st.integers(0, 2**32 - 1),
)
def test_cli_fit_at_every_output_scale_exits_cleanly(
    tmp_path, capsys, caplog, n, scale, loss, tau, lam, gamma, seed
):
    # a fit succeeds with a finite objective and coefficients, or fails as a
    # config error (1) or a numerical failure (2): never a traceback or a
    # RuntimeWarning; a dual fit prints a certified gap or logs that it is not
    caplog.clear()
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.0, 1.0, n)
    y = np.clip(rng.normal(size=n) * scale, -1.7e308, 1.7e308)
    data, cfg, out = tmp_path / "d.csv", tmp_path / "fit.ini", tmp_path / "f.csv"
    data.write_text("".join(f"{a!r},{b!r}\n" for a, b in zip(x.tolist(), y.tolist())))
    cfg.write_text(
        f"[fit]\ndata = {data}\nloss = {loss}\nlambda = {lam!r}\n"
        + (f"tau = {tau!r}\n" if loss == "pinball" else "")
        + f"[kernel]\nfamily = gaussian_rbf\ngamma = {gamma!r}\n"
    )
    out.unlink(missing_ok=True)
    code = main(["fit", "--config", str(cfg), "--out", str(out)])
    printed = capsys.readouterr()
    assert code in (0, 1, 2), printed.err
    if code == 0:
        objective = re.search(r"objective (\S+?)[,)]", printed.out)
        assert loss == "squared" or np.isfinite(float(objective.group(1)))
        assert np.all(np.isfinite(np.loadtxt(out, delimiter=",", skiprows=1, ndmin=2)))
        gap = re.search(r"duality gap (\S+) after", printed.out)
        assert (gap is None) == (loss in ("squared", "ranking_squared"))
        assert gap is None or float(gap.group(1)) <= GAP_TOL or _gap_messages(caplog)
    else:
        assert not out.exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("lam", [1e-297, 1e-298])
def test_low_rank_ridge_at_outputs_near_overflow_builds_no_projection(tmp_path, capsys, lam):
    # a wide Gaussian at n = 600 takes the low-rank solve, whose coefficients
    # reach 5e306 (5e307 at the smaller penalty): the fit itself is finite,
    # while ||alpha|| and then the pivot-basis projection, which only a study
    # cell builds, overflow
    rng = np.random.default_rng(0)
    x, y = rng.uniform(0.0, 1.0, 600), rng.normal(size=600) * 1e12
    data, cfg, out = tmp_path / "d.csv", tmp_path / "fit.ini", tmp_path / "f.csv"
    data.write_text("".join(f"{a!r},{b!r}\n" for a, b in zip(x.tolist(), y.tolist())))
    cfg.write_text(
        f"[fit]\ndata = {data}\nloss = squared\nlambda = {lam!r}\n"
        "[kernel]\nfamily = gaussian_rbf\ngamma = 100.0\n"
    )
    assert main(["fit", "--config", str(cfg), "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    assert np.all(np.isfinite(np.loadtxt(out, delimiter=",", skiprows=1, ndmin=2)))
    solve = lambda: erm_mod._ridge_solve(Dataset(x[:, None], y), GaussianRBF(100.0), lam)
    if lam == 1e-297:
        _, f_hat, bound = solve()
        assert np.all(np.isfinite(f_hat.coefficients)) and bound == np.inf
    else:
        with pytest.raises(NumericalError, match=r"projection .*\(n=600, lam=1e-298\)"):
            solve()


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


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    n=st.integers(0, 300),
    block=st.sampled_from([1, 3, 8, erm_mod._BLOCK]),
    columns=st.sampled_from([None, 2]),
    shift=st.floats(-8.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=0, block=erm_mod._BLOCK, columns=None, shift=0.0, seed=0)
@example(n=0, block=3, columns=2, shift=0.0, seed=0)
def test_blocked_cholesky_and_triangular_solves_match_scipy(monkeypatch, n, block, columns, shift, seed):
    # residuals within a few units n * eps * ||A|| ||x|| of scipy's, on every
    # block split; nan above the diagonal shows that only the lower triangle is read
    monkeypatch.setattr(erm_mod, "_BLOCK", block)
    rng = np.random.default_rng(seed)
    G = rng.normal(size=(n, n))
    A = G @ G.T / max(n, 1) + 10.0**shift * np.eye(n)
    b = rng.normal(size=n if columns is None else (n, columns))
    slack = 4 * max(n, 1) * np.finfo(float).eps
    lower = np.tril(np.ones((n, n), dtype=bool))

    def check(solve, reference, M, norm):
        x, x_ref = solve(b), reference(b)
        assert x.shape == b.shape
        bound = slack * norm * max(np.linalg.norm(x), np.linalg.norm(x_ref))
        assert abs(np.linalg.norm(M @ x - b) - np.linalg.norm(M @ x_ref - b)) <= bound

    L = cho_factor(np.where(lower, A, np.nan))
    assert np.isnan(L[np.triu_indices(n, block)]).all()  # above the diagonal blocks, untouched
    factor = scipy.linalg.cho_factor(A, lower=True)
    check(
        lambda v: erm_mod._solve_lower(L, erm_mod._solve_lower(L, v), trans=True),
        lambda v: scipy.linalg.cho_solve(factor, v),
        A,
        np.linalg.norm(A, 2) if n else 0.0,
    )
    T = np.tril(rng.normal(size=(n, n)), -1) + np.diag(rng.uniform(0.5, 2.0, n))
    norm = np.linalg.norm(T, 2) if n else 0.0
    for trans in (False, True):
        check(
            lambda v: erm_mod._solve_lower(np.where(lower, T, np.nan), v, trans),
            lambda v: scipy.linalg.solve_triangular(T, v, lower=True, trans=int(trans)),
            T.T if trans else T,
            norm,
        )
    # an upper triangular U is solved as _solve_lower(U.T, b, trans=True); nan below U's diagonal
    U = T.T
    check(
        lambda v: erm_mod._solve_lower(np.where(lower.T, U, np.nan).T, v, trans=True),
        lambda v: scipy.linalg.solve_triangular(U, v, lower=False),
        U,
        norm,
    )


@pytest.mark.parametrize("block", [1, 3, 8, erm_mod._BLOCK])
def test_blocked_cholesky_rejects_a_late_non_positive_minor(monkeypatch, block):
    monkeypatch.setattr(erm_mod, "_BLOCK", block)
    rng = np.random.default_rng(block)
    n = 150
    L = np.tril(rng.normal(size=(n, n)), -1) / n + np.eye(n)
    for k in (block + 1, n // 2 + 1, n - 1):
        # A = L D L' with D = diag(1, ..., -1 at k, ..., 1): the leading minors are
        # positive up to order k and negative at order k + 1, past the first block
        D = np.ones(n)
        D[k] = -1.0
        A = (L * D) @ L.T
        assert np.linalg.eigvalsh(A[:k, :k]).min() > 0.0
        with pytest.raises(np.linalg.LinAlgError):
            cho_factor(A)


def test_ridge_jitter_recovers_from_transient_failures(monkeypatch):
    calls = {"n": 0}

    def flaky(A):
        calls["n"] += 1
        if calls["n"] <= 2:
            raise np.linalg.LinAlgError("forced")
        return cho_factor(A)

    monkeypatch.setattr(erm_mod, "cho_factor", flaky)
    data = Dataset(np.array([[0.0], [1.0]]), np.array([1.0, 2.0]))
    f = fit_kernel_ridge(data, GaussianRBF(), 0.5)
    assert calls["n"] == 3
    assert np.all(np.isfinite(f.coefficients))


def test_ridge_raises_after_jitter_escalation(monkeypatch):
    def always_fail(A):
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
    """fit_pairwise's coefficients: K + (n lam / 2) I on the same inline jitter loop, two right-hand sides."""
    K = gram_matrix(kernel, data.inputs)
    y = data.outputs
    Z = _jitter_reference(K, 0.5 * data.n * lam, np.column_stack((y - y[0], np.ones(data.n))), factorize)
    b = Z[:, 0].sum() / Z[:, 1].sum()
    return Z[:, 0] - b * Z[:, 1]


def _jitter_reference(A, shift, b, factorize):
    """Cholesky of a copy of A + shift * I with the solvers' jitter escalation, then the two solves."""
    n = A.shape[0]
    jitter = 1e-12 * float(np.trace(A)) / n
    diag = np.diag_indices(n)
    A[diag] += shift
    attempt = 0
    while True:
        try:
            L = factorize(A.copy())
            break
        except np.linalg.LinAlgError:
            assert attempt < 3
            A[diag] += jitter
            jitter *= 10.0
            attempt += 1
    return erm_mod._solve_lower(L, erm_mod._solve_lower(L, b), trans=True)


def _counting_cho_factor(failures, forced=0):
    """cho_factor that fails its first `forced` calls and counts every failure."""

    def factorize(A):
        try:
            if failures["calls"] < forced:
                raise np.linalg.LinAlgError("forced")
            return cho_factor(A)
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
    # cho_factor overwrites the system it factors in place; a retry must see it restored
    rng = np.random.default_rng(59)
    data, kernel = separated_problem(rng, 60)
    for fit, reference in (
        (lambda: fit_kernel_ridge(data, kernel, 1e-3), _ridge_reference),
        (
            lambda: fit_pairwise(data, kernel, RankingSquaredLoss(), 1e-3)[0],
            _pairwise_reference,
        ),
    ):
        monkeypatch.setattr(erm_mod, "cho_factor", cho_factor)
        assert np.array_equal(fit().coefficients, reference(data, kernel, 1e-3))
        seen = []

        def factor_then_fail_once(A):
            before = A.copy()
            factor = cho_factor(A)
            seen.append(not np.array_equal(A, before))
            if len(seen) == 1:
                raise np.linalg.LinAlgError("forced after factoring")
            return factor

        monkeypatch.setattr(erm_mod, "cho_factor", factor_then_fail_once)
        f = fit()
        assert seen == [True, True]
        fail_once = _counting_cho_factor({"n": 0, "calls": 0}, forced=1)
        assert np.array_equal(f.coefficients, reference(data, kernel, 1e-3, fail_once))


def _peak_fit_memory(data, kernel, lam, fit=fit_kernel_ridge):
    """Peak traced allocation of one fit(data, kernel, lam) call, in bytes."""
    tracemalloc.start()
    try:
        fit(data, kernel, lam)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_ridge_factors_the_system_in_place():
    rng = np.random.default_rng(61)
    n = 2048
    data = Dataset(rng.uniform(0, 1, (n, 1)), rng.normal(size=n))
    # a Wendland Gram matrix is not low-rank, so this fit takes the dense path;
    # K alone is 32 MiB; a copying factorization peaks at 64 MiB
    assert _peak_fit_memory(data, WendlandC2(0.1), 1e-3) < 40 * 2**20


def test_large_gaussian_ridge_never_forms_the_gram_matrix():
    rng = np.random.default_rng(67)
    n = 4096
    data = Dataset(rng.uniform(0, 1, (n, 1)), rng.normal(size=n))
    # the study's bandwidth and penalty; the Gram matrix alone is 128 MiB
    assert _peak_fit_memory(data, GaussianRBF(n ** (-1 / 3)), 1.0 / n) < 32 * 2**20


def _solve_messages(caplog, fit):
    """Run fit() and return the messages probdense.erm logged meanwhile."""
    caplog.clear()
    result = fit()
    assert all((r.name, r.levelno) == ("probdense.erm", logging.INFO) for r in caplog.records)
    return result, [r.getMessage() for r in caplog.records]


def test_ridge_logs_the_solve_path(monkeypatch, caplog):
    caplog.set_level(logging.INFO, logger="probdense.erm")
    rng = np.random.default_rng(71)

    def fit(n, kernel, lam):
        data = Dataset(rng.uniform(0, 1, (n, 1)), rng.normal(size=n))
        return _solve_messages(caplog, lambda: fit_kernel_ridge(data, kernel, lam))[1]

    def paths():
        rng.bit_generator.state = np.random.default_rng(71).bit_generator.state
        return [
            fit(512, GaussianRBF(0.1), 1e-3),
            fit(1024, GaussianRBF(1024 ** (-1 / 3)), 1.0 / 1024),
            fit(600, WendlandC2(600 ** (-1 / 3)), 1.0 / 600),
            fit(600, GaussianRBF(0.005), 1.0 / 600),
        ]

    [small], [message], wendland, capped = logged = paths()
    # one rule at every n: a small Gaussian fit within its cap n // 8 is low-rank too
    for text, n in ((small, 512), (message, 1024)):
        assert text.startswith("low-rank solve: rank ") and text.endswith(f" of {n}")
        assert 0 < int(text.split()[3]) <= n // 8
    assert wendland == ["dense solve: compactly supported kernel"]
    assert capped == ["dense solve: rank cap 75 reached"]
    # a small Gaussian fit past its cap is bitwise the dense solve
    X, y = rng.uniform(0, 1, (64, 1)), rng.normal(size=64)
    kernel = GaussianRBF(64 ** (-1 / 3))
    f, messages = _solve_messages(caplog, lambda: fit_kernel_ridge(Dataset(X, y), kernel, 1.0 / 64))
    assert messages == ["dense solve: rank cap 8 reached"]
    assert np.array_equal(f.coefficients, erm_mod._dense_solve(kernel, X, 1.0, y, 1.0 / 64))
    # the solver's rule is its own: a larger or smaller evaluation block
    # than the default moves no fit
    for block in (2**20, 2**12):
        monkeypatch.setattr(kernels_mod, "_BLOCK_ENTRIES", block)
        assert paths() == logged
    monkeypatch.setattr(erm_mod, "cho_factor", _counting_cho_factor({"n": 0, "calls": 0}, forced=1))
    [message] = fit(1024, GaussianRBF(1024 ** (-1 / 3)), 1.0 / 1024)
    assert message.startswith("dense solve: rank-") and message.endswith(" factor failed")


def test_ridge_fallback_is_bitwise_dense(monkeypatch, caplog):
    caplog.set_level(logging.INFO, logger="probdense.erm")
    rng = np.random.default_rng(73)
    cases = [
        # a Wendland Gram matrix is not low-rank
        (rng.uniform(0, 1, (700, 1)), WendlandC2(700 ** (-1 / 3)), 1.0 / 700, None),
        # a penalty so small that the pivots never reach 1e-14 * n * lam
        (rng.uniform(0, 1, (600, 2)), GaussianRBF(0.2), 1e-10, None),
        # a low-rank fit whose r x r factorization fails
        (rng.uniform(0, 1, (1024, 1)), GaussianRBF(1024 ** (-1 / 3)), 1.0 / 1024, 1),
    ]
    for X, kernel, lam, forced in cases:
        n = X.shape[0]
        y = rng.normal(size=n)
        dense = erm_mod._dense_solve(kernel, X, n * lam, y, lam)
        if forced is not None:
            monkeypatch.setattr(erm_mod, "cho_factor", _counting_cho_factor({"n": 0, "calls": 0}, forced))
        f, [message] = _solve_messages(caplog, lambda: fit_kernel_ridge(Dataset(X, y), kernel, lam))
        assert message.startswith("dense solve: ")
        assert np.array_equal(f.coefficients, dense)


def _ridge_residual_bound(n, shift):
    """Residual bound of a low-rank ridge solve, relative to ||y||.

    E = K - L L' is PSD with trace E <= n * 1e-14 * shift, and ||alpha|| <=
    ||y|| / shift, so ||E alpha|| <= n * 1e-14 * ||y||.  The rest is the
    rounding of solving a system of norm up to n + shift, which any
    backward-stable solve shares: 1e-12, and about n / shift units of
    roundoff once the shift is small.
    """
    return n * 1e-14 + 1e-12 + 1e-15 * n / shift


def _check_low_rank_residual(caplog, X, y, kernel, lam):
    n = X.shape[0]
    f, [message] = _solve_messages(caplog, lambda: fit_kernel_ridge(Dataset(X, y), kernel, lam))
    if message.startswith("dense solve: "):
        return None
    K = gram_matrix(kernel, X)
    residual = np.linalg.norm(K @ f.coefficients + (n * lam) * f.coefficients - y)
    assert residual <= _ridge_residual_bound(n, n * lam) * np.linalg.norm(y)
    return int(message.removeprefix("low-rank solve: rank ").removesuffix(f" of {n}"))


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    n=st.integers(513, 1200),
    d=st.integers(1, 2),
    gamma=st.floats(0.05, 2.0),
    lam=st.floats(-9.0, 0.0).map(lambda e: 10.0**e),
    seed=st.integers(0, 2**32 - 1),
)
def test_low_rank_ridge_residual_bound(caplog, n, d, gamma, lam, seed):
    caplog.set_level(logging.INFO, logger="probdense.erm")
    rng = np.random.default_rng(seed)
    _check_low_rank_residual(caplog, rng.uniform(0, 1, (n, d)), rng.normal(size=n), GaussianRBF(gamma), lam)


@pytest.mark.parametrize("d", [1, 2])
def test_low_rank_ridge_on_duplicated_inputs(caplog, d):
    # n draws of 40 distinct points: rank at most 40, and the duplicates'
    # residual diagonals fall to rounding level with their pivot's; at
    # shift 7.1e-3, 1e-14 * shift lies below that level and the floor of the
    # stop threshold ends the pivoting
    caplog.set_level(logging.INFO, logger="probdense.erm")
    rng = np.random.default_rng(79 + d)
    for n, shift in ((1024, 1.0), (1034, 7.1e-3)):
        X = rng.uniform(0, 1, (40, d))[rng.integers(0, 40, n)]
        y = rng.normal(size=n)
        rank = _check_low_rank_residual(caplog, X, y, GaussianRBF(n ** (-1 / 3)), shift / n)
        assert rank is not None and rank <= 40


def _pivot_factor(X, kernel, lam):
    """The pivoted Cholesky factor the ridge solve builds: (Lt, pivots, d) or None."""
    n = X.shape[0]
    cap = min(n // 8, erm_mod._MAX_RANK)
    return erm_mod._pivoted_cholesky(kernel, X, erm_mod._PIVOT_TOL * n * lam, cap)


@pytest.mark.parametrize("n, lam", [(600, 1e-15), (1024, 1e-9)])
def test_pivots_stay_above_the_rounding_floor(n, lam):
    # 1e-14 * n * lam is far below rounding here: unfloored, the loop pivoted
    # on rounding noise and the pivot block came out singular
    X = np.random.default_rng(83).uniform(0, 1, (n, 1))
    Lt, pivots, _ = _pivot_factor(X, GaussianRBF(0.1), lam)
    assert np.all(np.diagonal(Lt[:, pivots]) ** 2 >= erm_mod._PIVOT_FLOOR)


def test_pivot_block_diagonal_stays_above_the_stop_threshold():
    # at rank ~400 the accumulated residual diagonal the loop picks on drifts
    # from the fresh residual by ~sqrt(r) units of roundoff; dividing by the
    # accumulated one left min B_jj^2 at 0.53 x the floor here
    n, lam = 4096, 1e-12
    X = np.random.default_rng(0).uniform(0, 1, (n, 2))
    Lt, pivots, _ = _pivot_factor(X, GaussianRBF(0.25), lam)
    threshold = max(erm_mod._PIVOT_TOL * n * lam, erm_mod._PIVOT_FLOOR)
    assert Lt.shape[0] > 300
    assert np.all(np.diagonal(Lt[:, pivots]) ** 2 > threshold)


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(513, 1200),
    d=st.integers(1, 2),
    gamma=st.floats(0.05, 2.0),
    lam=st.floats(-9.0, 0.0).map(lambda e: 10.0**e),
    seed=st.integers(0, 2**32 - 1),
)
def test_pivot_basis_certificate(n, d, gamma, lam, seed):
    """|f(x) - f_hat(x)| <= P(x) sqrt(alpha' E alpha) <= bound, up to rounding.

    P is the power function of the pivots, P(x)^2 = k(x, x) - ||B^-T k_P(x)||^2
    for the pivot block B, and E = K - Lt' Lt.  The rounding term covers
    evaluating both expansions: 16 units of roundoff of
    sum |alpha_i| + sum |beta_p| (the Gaussian kernel is at most 1).
    """
    rng = np.random.default_rng(seed)
    X = rng.uniform(0, 1, (n, d))
    kernel = GaussianRBF(gamma)
    f, f_hat, bound = erm_mod._ridge_solve(Dataset(X, rng.normal(size=n)), kernel, lam)
    if f_hat is None:
        return
    Lt, pivots, _ = _pivot_factor(X, kernel, lam)
    assert np.array_equal(f_hat.centers, X[pivots])
    alpha, beta = f.coefficients, f_hat.coefficients
    E = gram_matrix(kernel, X) - Lt.T @ Lt
    norm_e = np.sqrt(max(float(alpha @ E @ alpha), 0.0))
    x = rng.uniform(0, 1, (256, d))
    newton = scipy.linalg.solve_triangular(Lt[:, pivots], pairwise(kernel, x, X[pivots]).T, trans="T")
    power = np.sqrt(np.clip(1.0 - (newton * newton).sum(axis=0), 0.0, None))
    rounding = 16 * np.finfo(float).eps * (np.abs(alpha).sum() + np.abs(beta).sum())
    gap = np.abs(f(x) - f_hat(x))
    assert np.all(gap <= power * norm_e + rounding)
    assert gap.max() <= bound + rounding


def test_pinball_half_fit_equals_rescaled_absolute_fit():
    # rho_{1/2} = |r|/2 makes the two objectives proportional once the
    # penalty doubles, so the exact fits coincide to rounding
    rng = np.random.default_rng(29)
    data = Dataset(rng.uniform(0, 1, (30, 1)), rng.normal(size=30))
    k = GaussianRBF(0.4)
    fp, ip = fit_quantile(data, k, PinballLoss(0.5), 1e-2)
    fa, ia = fit_quantile(data, k, AbsoluteLoss(), 2e-2)
    assert np.abs(fp(data.inputs) - fa(data.inputs)).max() <= 1e-10
    assert ia.objective == pytest.approx(2.0 * ip.objective, rel=1e-12)


def _quantile_tolerance(y, lam):
    """fit_quantile's KKT tolerance for a kernel with max k(x, x) = 1."""
    return 1e-12 * max(1.0, float(np.abs(y).max())) + 16.0 * np.finfo(float).eps / (2.0 * lam)


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(2, 60),
    distinct=st.integers(1, 60),
    d=st.integers(1, 2),
    tied=st.booleans(),
    tau=st.floats(0.01, 0.99),
    lam=st.floats(-6.0, 2.0).map(lambda e: 10.0**e),
    gamma=st.floats(-1.5, 0.5).map(lambda e: 10.0**e),
    seed=st.integers(0, 2**32 - 1),
)
# two rows with tied outputs at a small lam: the rounding that the active-set
# steps left on the free duals spoiled the certificate
@example(n=2, distinct=2, d=2, tied=True, tau=0.3275175151934529, lam=1e-6, gamma=1.0, seed=68)
@example(n=2, distinct=1, d=1, tied=True, tau=0.14810397642748008, lam=1e-6, gamma=1.0, seed=1)
@example(n=2, distinct=2, d=1, tied=True, tau=0.47052635003713966, lam=1e-3, gamma=1.0, seed=1898)
def test_fit_quantile_is_the_exact_minimiser(n, distinct, d, tied, tau, lam, gamma, seed):
    rng = np.random.default_rng(seed)
    m = min(distinct, n)  # m < n duplicates inputs, and makes free faces singular
    X = rng.uniform(0, 1, (m, d))[rng.integers(0, m, n)]
    y = rng.choice([-1.5, 0.25, 2.0], n) if tied else rng.uniform(-3.0, 3.0, n)
    data, kernel, loss = Dataset(X, y), GaussianRBF(gamma), PinballLoss(tau)
    f, info = fit_quantile(data, kernel, loss, lam)
    tol = _quantile_tolerance(y, lam)
    assert info.converged and info.grad_norm <= np.sqrt(n) * tol
    # KKT: u = 2 lam n alpha in [tau - 1, tau], u = tau where r > 0, tau - 1 where r < 0
    K = gram_matrix(kernel, X)
    u = 2.0 * lam * n * f.coefficients
    r = y - K @ f.coefficients
    slack = 4 * np.finfo(float).eps
    assert np.all((u >= tau - 1.0 - slack) & (u <= tau + slack))
    assert np.all(np.abs(u[r > tol] - tau) <= slack)
    assert np.all(np.abs(u[r < -tol] - (tau - 1.0)) <= slack)
    # every duality-gap term is at most a KKT violation
    assert 0.0 <= info.duality_gap * info.objective <= tol
    if lam >= 1e-3:  # f = K alpha is known to far better than 1e-10 of the objective
        assert info.duality_gap <= 1e-10
        dual = float(u @ y - 0.5 * u @ (K @ f.coefficients)) / n
        rounding = 8 * np.finfo(float).eps * (np.abs(y).max() + np.abs(K @ f.coefficients).max())
        assert info.objective - dual <= 1e-10 * info.objective + rounding
    assert info.objective <= info.objective_at_zero * (1.0 + 1e-12) + tol
    # the absolute loss is 2 * pinball(0.5) at half the penalty
    fa, ia = fit_quantile(data, kernel, AbsoluteLoss(), lam)
    fp, ip = fit_quantile(data, kernel, PinballLoss(0.5), lam / 2.0)
    np.testing.assert_allclose(fa.coefficients, fp.coefficients, rtol=1e-12, atol=0.0)
    assert ia.objective == pytest.approx(2.0 * ip.objective, rel=1e-12)


def test_fit_quantile_on_one_repeated_input_is_the_penalised_median():
    # K = 11' is singular: f is the constant c = sum alpha, and
    # mean |y - c| / 2 + lam c^2 is minimised at the median 2, a kink
    data = Dataset(np.full((5, 1), 0.3), np.arange(5.0))
    f, info = fit_quantile(data, GaussianRBF(0.5), PinballLoss(0.5), 1e-3)
    assert info.converged
    assert f(np.array([[0.3]]))[0] == pytest.approx(2.0, abs=1e-12)
    assert info.objective == pytest.approx(0.6 + 1e-3 * 4.0, rel=1e-12)


@pytest.mark.parametrize("seed", [2, 10, 28, 35])
def test_fit_quantile_on_a_numerically_singular_gram_matrix(seed):
    # a bandwidth 10x the domain leaves K with a numerical rank near 10; in
    # these draws a freed point's Schur complement falls to rounding and it
    # moves along the null direction of the free face instead of joining it
    rng = np.random.default_rng(seed)
    x = rng.uniform(0, 1, 40)
    y = rng.uniform(-3.0, 3.0, 40)
    lam, tau = 1e-11, 0.7
    f, info = fit_quantile(Dataset(x[:, None], y), GaussianRBF(10.0), PinballLoss(tau), lam)
    tol = _quantile_tolerance(y, lam)
    assert info.converged and np.all(np.isfinite(f.coefficients))
    u = 2.0 * lam * 40 * f.coefficients
    r = y - gram_matrix(GaussianRBF(10.0), x[:, None]) @ f.coefficients
    slack = 4 * np.finfo(float).eps
    assert np.all((u >= tau - 1.0 - slack) & (u <= tau + slack))
    assert np.all(np.abs(u[r > tol] - tau) <= slack)
    assert np.all(np.abs(u[r < -tol] - (tau - 1.0)) <= slack)
    assert info.objective <= info.objective_at_zero


def test_fit_quantile_zero_outputs_give_zero_function():
    data = Dataset(np.random.default_rng(71).uniform(0, 1, (12, 1)), np.zeros(12))
    f, info = fit_quantile(data, GaussianRBF(0.3), PinballLoss(0.3), 0.1)
    assert info.converged and info.objective_at_zero == 0.0
    assert np.abs(f(data.inputs)).max() <= 1e-12
    assert info.objective <= 1e-12


def _fit_scaled_sine(seed, scale):
    rng = np.random.default_rng(seed)
    x = rng.uniform(0, 1, 50)
    y = scale * (np.sin(6.0 * x) + 0.1 * rng.normal(size=50))
    return fit_quantile(Dataset(x[:, None], y), GaussianRBF(0.2), PinballLoss(0.3), 1e-3)


@pytest.mark.parametrize("scale", [1.0, 1e-9, 1e-12, 1e-20])
def test_fit_quantile_is_never_worse_than_the_zero_function(caplog, scale):
    # the KKT tolerance is absolute, so outputs far below the rounding of
    # f = K alpha pass it with an objective above the zero function's; such a
    # solve is replaced by alpha = 0, and FitInfo then describes alpha = 0
    caplog.set_level(logging.WARNING, logger="probdense.erm")
    f, info = _fit_scaled_sine(83, scale)
    assert info.objective <= info.objective_at_zero * (1.0 + 1e-12)
    messages = [r.getMessage() for r in caplog.records]
    fallback = [m for m in messages if m.startswith("dual active-set solve gave objective ")]
    gap_messages = _gap_messages(caplog)
    assert len(messages) == len(fallback) + len(gap_messages)  # no KKT failure
    assert info.converged == (info.duality_gap <= GAP_TOL) == (gap_messages == [])
    if scale > 1e-12:
        assert fallback == [] and f.coefficients.any()
    elif scale < 1e-12:
        [message] = fallback
        assert f" above {info.objective_at_zero!r}, the objective at alpha = 0; returning alpha = 0 " in message
        assert not f.coefficients.any() and info.objective == info.objective_at_zero


@pytest.mark.parametrize(
    "scale, certified",
    [(1.0, True), (1e-5, True), (1e-10, False), (1e-11, False), (1e-12, False), (1e-15, False), (1e-20, True)],
)
def test_fit_quantile_converged_certifies_the_duality_gap(caplog, scale, certified):
    # between about 1e-9 and 1e-15 the outputs pass the absolute KKT
    # tolerance with relative gaps up to 11 %: such a fit is not converged,
    # and one WARNING names its gap, n and lam
    caplog.set_level(logging.WARNING, logger="probdense.erm")
    _, info = _fit_scaled_sine(0, scale)
    assert info.converged == certified == (info.duality_gap <= GAP_TOL)
    expected = f"duality gap {info.duality_gap:.3g} exceeds 1e-06: fit not certified (n=50, lam=0.001)"
    assert _gap_messages(caplog) == ([] if certified else [expected])


@pytest.mark.parametrize("gamma", [0.5, 1.0, 2.0, 3.0])
def test_fit_quantile_gap_at_a_zero_optimum_is_rounding(gamma):
    # the objective is rounding (about 1e-17); relative to it the gap would
    # read 1, relative to the KKT tolerance it reads what it is
    data = Dataset(np.array([[0.1], [0.7]]), np.zeros(2))
    _, info = fit_quantile(data, GaussianRBF(gamma), PinballLoss(0.416), 1.81)
    assert info.converged and info.objective <= 1e-16
    assert 0.0 <= info.duality_gap <= 1e-4


@pytest.mark.parametrize("m", [0, 3, 6])
def test_cholesky_delete_is_the_factor_of_the_smaller_matrix(m):
    rng = np.random.default_rng(79)
    B = rng.normal(size=(7, 7))
    A = B @ B.T + 0.1 * np.eye(7)
    L = erm_mod._cholesky_delete(np.linalg.cholesky(A), m)
    keep = np.delete(np.arange(7), m)
    np.testing.assert_allclose(L, np.linalg.cholesky(A[np.ix_(keep, keep)]), rtol=0, atol=1e-12)


def test_fit_quantile_rejects_other_losses():
    data = Dataset(np.array([[0.0], [1.0]]), np.array([0.0, 1.0]))
    for loss in (SquaredLoss(), RankingSquaredLoss()):
        with pytest.raises(TypeError):
            fit_quantile(data, GaussianRBF(), loss, 0.1)


def test_fit_quantile_holds_one_n_by_n_array():
    rng = np.random.default_rng(73)
    n = 2048
    x = rng.uniform(0, 1, n)
    data = Dataset(x[:, None], np.sin(6.0 * x) + 0.3 * rng.normal(size=n))
    tracemalloc.start()
    try:
        _, info = fit_quantile(data, GaussianRBF(0.2), PinballLoss(0.9), 1e-3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert info.converged
    # K alone is 32 MiB, its block buffers 1.5 MiB; a copy of K would add 32 MiB
    assert peak < 40 * 2**20


def _fit_ranking(data, kernel, lam):
    return fit_pairwise(data, kernel, RankingSquaredLoss(), lam)


def test_ranking_fit_factors_k_itself_in_place():
    rng = np.random.default_rng(61)
    n = 2048
    data = Dataset(rng.uniform(0, 1, (n, 1)), rng.normal(size=n))
    # the dense path; K alone is 32 MiB, a centred copy of it would add 32 MiB
    assert _peak_fit_memory(data, WendlandC2(0.1), 1e-3, _fit_ranking) < 40 * 2**20


@pytest.mark.parametrize("fit", [fit_kernel_ridge, _fit_ranking], ids=["ridge", "ranking"])
def test_jitter_retry_rebuilds_k_without_a_second_copy(monkeypatch, fit):
    calls = []

    def factor_then_fail_once(A):
        factor = cho_factor(A)
        calls.append(A.shape)
        if len(calls) == 1:
            raise np.linalg.LinAlgError("forced after factoring")
        return factor

    monkeypatch.setattr(erm_mod, "cho_factor", factor_then_fail_once)
    rng = np.random.default_rng(61)
    n = 2048
    data = Dataset(rng.uniform(0, 1, (n, 1)), rng.normal(size=n))
    # the retry builds K again; built while the overwritten one is still held
    # (by the failed call's traceback, say), the peak would be 64 MiB
    assert _peak_fit_memory(data, WendlandC2(0.1), 1e-3, fit) < 40 * 2**20
    assert calls == [(n, n)] * 2


def test_large_gaussian_ranking_fit_never_forms_the_gram_matrix():
    rng = np.random.default_rng(61)
    n = 2048
    data = Dataset(rng.uniform(0, 1, (n, 1)), rng.normal(size=n))
    # the low-rank path: the pivot rows at the rank cap take 4 MiB, K would take 32 MiB
    assert _peak_fit_memory(data, GaussianRBF(n ** (-1 / 3)), 1.0 / n, _fit_ranking) < 8 * 2**20


def test_ranking_fit_logs_the_ridge_solve_path(caplog):
    caplog.set_level(logging.INFO, logger="probdense.erm")
    rng = np.random.default_rng(71)
    data = Dataset(rng.uniform(0, 1, (512, 1)), rng.normal(size=512))
    _, [message] = _solve_messages(caplog, lambda: _fit_ranking(data, GaussianRBF(0.1), 1e-3))
    assert message.startswith("low-rank solve: rank ") and message.endswith(" of 512")
    assert 0 < int(message.split()[3]) <= 512 // 8
    # past the cap n // 8 the ranking fit takes the dense solve
    data = Dataset(data.inputs[:64], data.outputs[:64])
    _, messages = _solve_messages(caplog, lambda: _fit_ranking(data, GaussianRBF(64 ** (-1 / 3)), 1.0 / 64))
    assert messages == ["dense solve: rank cap 8 reached"]


def _centred(v):
    return v - v.mean()


@pytest.mark.parametrize("n", [1024, 2048])
def test_low_rank_ranking_fit_is_the_exact_minimiser(caplog, n):
    caplog.set_level(logging.INFO, logger="probdense.erm")
    rng = np.random.default_rng(89)
    X = rng.uniform(0, 1, (n, 1))
    y = np.sin(6.0 * X[:, 0]) + 0.3 * rng.normal(size=n)
    kernel, lam = GaussianRBF(n ** (-1 / 3)), 1.0 / n
    (f, info), [message] = _solve_messages(caplog, lambda: _fit_ranking(Dataset(X, y), kernel, lam))
    assert message.startswith("low-rank solve: rank ") and message.endswith(f" of {n}")
    a = f.coefficients
    K = gram_matrix(kernel, X)
    # ((2/n) P K + lam I) alpha = (2/n) P y is (2/n) P times the ridge system at
    # shift n lam / 2 with the intercept, so the ridge residual bound carries over
    stationarity = (2.0 / n) * _centred(K @ a) + lam * a - (2.0 / n) * _centred(y)
    bound = (2.0 / n) * _ridge_residual_bound(n, 0.5 * n * lam) * np.linalg.norm(y)
    assert np.linalg.norm(stationarity) <= bound
    assert abs(a.sum()) <= 16 * np.finfo(float).eps * np.abs(a).sum()

    def objective(c):
        return float((2.0 / n) * np.sum(_centred(y - K @ c) ** 2) + lam * (c @ (K @ c)))

    # the optimum as perfbench/checks.py computes it, on the full system
    P = np.eye(n) - 1.0 / n
    optimum = objective(np.linalg.solve((2.0 / n) * P @ K + lam * np.eye(n), (2.0 / n) * P @ y))
    assert objective(a) == pytest.approx(optimum, rel=1e-12)
    assert info.objective == pytest.approx(optimum, rel=1e-12)


def test_pairwise_equal_outputs_stay_at_zero():
    data = Dataset(np.array([[0.0], [0.5], [1.0]]), np.full(3, 2.0))
    f, info = fit_pairwise(data, GaussianRBF(), RankingSquaredLoss(), 0.1)
    assert info.objective == 0.0
    assert info.converged
    assert np.array_equal(f.coefficients, np.zeros(3))


def test_pairwise_two_point_sign_convention():
    data = Dataset(np.array([[0.0], [100.0]]), np.array([0.0, 1.0]))
    f, _ = fit_pairwise(data, GaussianRBF(1.0), RankingSquaredLoss(), 1e-6)
    fitted_diff = f([0.0]) - f([100.0])
    assert abs(fitted_diff - (-1.0)) < 0.1


def test_pairwise_huge_penalty_shrinks_to_zero():
    rng = np.random.default_rng(37)
    data = Dataset(rng.uniform(0, 1, (12, 1)), rng.normal(size=12))
    f, _ = fit_pairwise(data, GaussianRBF(0.5), RankingSquaredLoss(), 1e6)
    assert np.abs(f(data.inputs)).max() < 1e-3


def test_pairwise_rejects_wrong_loss_and_tiny_datasets():
    data = Dataset(np.array([[0.0], [1.0]]), np.array([0.0, 1.0]))
    with pytest.raises(TypeError):
        fit_pairwise(data, GaussianRBF(), AbsoluteLoss(), 0.1)
    single = Dataset(np.array([[0.0]]), np.array([1.0]))
    with pytest.raises(ValueError):
        fit_pairwise(single, GaussianRBF(), RankingSquaredLoss(), 0.1)


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
    f, info = fit_pairwise(sample, kernel, RankingSquaredLoss(), lam)
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
    shifted, _ = fit_pairwise(Dataset(X, y + shift), kernel, RankingSquaredLoss(), lam)
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
    f, info = fit_pairwise(data, GaussianRBF(0.3), RankingSquaredLoss(), 1e-3)
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
