"""Differential test: whole study cells recomputed from their definitions.

Every layer under ``run_study`` (samplers, kernels, the dense and low-rank
ridge solves, the pivot basis, the evaluation path and the metrics) is
replaced here by its textbook form: the same ``derive_rng`` streams drawn by
the sampler formulas (scipy's ``ndtri`` for the truncated Gaussian), each
kernel by its closed formula on the full matrices, the fit by
``scipy.linalg.cho_solve`` on the full Gram matrix, d_psi and the L^1 gap
as plain means, the Ky Fan metric by the interval scan of test_metrics and
the sup gap over the same grid (McKeeman, "Differential testing for
software", Digital Technical Journal 10, 1998).
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import cho_factor, cho_solve
from scipy.special import ndtri
from test_metrics import ky_fan_scan

from probdense import (
    CappedPsi,
    IntervalIndicator,
    PairedSample,
    PiecewiseConstant,
    RatioPsi,
    SignStep,
    SineWave,
    StudyConfig,
    run_study,
)
from probdense import denseness as denseness_mod
from probdense.util import derive_rng

METRICS = ("d_psi", "ky_fan", "sup_gap", "l1_gap", "risk_gap")


def _kernel_matrix(family, bandwidth, X, Y):
    diff = X[:, None, 0] - Y[None, :, 0]
    if family == "gaussian_rbf":
        return np.exp(-(diff * diff) / (bandwidth * bandwidth))
    r = np.abs(diff) / bandwidth
    return np.maximum(1.0 - r, 0.0) ** 4 * (4.0 * r + 1.0)


def _draw(sampler, domain, rng, n):
    low, high = domain
    if sampler == "uniform":
        return rng.uniform(low, high, (n, 1))
    lower_mass = 0.5 * math.erfc(math.sqrt(2.0))  # Phi(-2)
    z = ndtri(lower_mass + rng.uniform(size=n) * (1.0 - 2.0 * lower_mass))
    width = high - low
    return np.clip(low + 0.5 * width + 0.25 * width * z, low, high).reshape(n, 1)


def _psi(psi, d):
    return d / (1.0 + d) if isinstance(psi, RatioPsi) else np.minimum(1.0, d)


def _reference_cell(cfg, n, rep):
    """The five metrics of cell (n, rep), recomputed from their definitions."""
    family, target = cfg.kernel_family, cfg.target
    bandwidth = cfg.gamma_coeff * float(n) ** (-1.0 / 3.0)
    shift = n * (cfg.lambda_coeff / n)
    X = _draw(cfg.sampler, target.domain, derive_rng(cfg.seed, n, rep, "train"), n)
    K = _kernel_matrix(family, bandwidth, X, X)
    alpha = cho_solve(cho_factor(K + shift * np.eye(n), lower=True), target(X))
    eval_rng = derive_rng(cfg.seed, n, rep, "eval")
    Xe = _draw(cfg.sampler, target.domain, eval_rng, cfg.eval_sample_size)
    d = np.abs(target(Xe) - _kernel_matrix(family, bandwidth, Xe, X) @ alpha)
    low, high = target.domain
    h = (high - low) / (cfg.grid_resolution - 1)
    straddles = [v for j in target.discontinuities for v in (j - h, j, j + h)]
    grid = np.concatenate([np.linspace(low, high, cfg.grid_resolution), straddles])
    grid = np.clip(grid, low, high)[:, None]
    sup_gap = np.abs(target(grid) - _kernel_matrix(family, bandwidth, grid, X) @ alpha).max()
    weights = np.full(d.size, 1.0 / d.size)
    l1_gap = d.mean()
    return {
        "d_psi": min(1.0, _psi(cfg.psi, d).mean()),
        "ky_fan": ky_fan_scan(PairedSample(d, weights)),
        "sup_gap": sup_gap,
        "l1_gap": l1_gap,
        # absolute loss, noise-free labels: |R(f) - R(target)| = mean |target - f|
        "risk_gap": l1_gap,
    }


def _breakpoints(k):
    return st.lists(st.floats(0.0, 1.0), min_size=2 * k, max_size=2 * k, unique=True).map(sorted)


def _pieces(k):
    levels = st.lists(st.floats(-2.0, 2.0), min_size=k, max_size=k)
    return st.tuples(_breakpoints(k), levels).map(
        lambda bl: PiecewiseConstant(tuple(zip(bl[0][::2], bl[0][1::2], bl[1])))
    )


TARGETS = st.one_of(
    _breakpoints(1).map(lambda b: IntervalIndicator(b[0], b[1])),
    st.integers(1, 3).flatmap(_pieces),
    st.floats(-1.0, 1.0).map(SignStep),
    st.floats(0.5, 4.0).map(SineWave),
)


def _config(target, sizes, kernel, sampler, gamma, lam, psi, m, grid, replicates, seed):
    return StudyConfig(
        target=target,
        sample_sizes=tuple(sorted(sizes)),
        seed=seed,
        replicates=replicates,
        kernel_family=kernel,
        gamma_coeff=gamma,
        lambda_coeff=lam,
        psi=psi,
        eval_sample_size=m,
        grid_resolution=grid,
        sampler=sampler,
    )


@settings(max_examples=20, deadline=None)
@given(
    target=TARGETS,
    sizes=st.lists(st.integers(8, 700), min_size=1, max_size=3, unique=True),
    kernel=st.sampled_from(["gaussian_rbf", "wendland_c2"]),
    sampler=st.sampled_from(["uniform", "truncated_gaussian"]),
    gamma=st.floats(0.3, 3.0),
    lam=st.floats(0.3, 3.0),
    psi=st.sampled_from([RatioPsi(), CappedPsi()]),
    m=st.integers(1, 2000),
    grid=st.integers(2, 2001),
    replicates=st.integers(1, 2),
    seed=st.integers(0, 2**32 - 1),
)
# the low-rank solve and its pivot basis, under both samplers
@example(IntervalIndicator(0.2, 0.7), [600], "gaussian_rbf", "truncated_gaussian",
         1.0, 1.0, RatioPsi(), 2000, 2001, 1, 5)
@example(SineWave(2.0), [8, 700], "gaussian_rbf", "uniform", 0.5, 0.3, CappedPsi(), 1500, 1001, 1, 6)
# the shipped indicator study's n = 256 cells, which take the pivot basis
# below n = 512, and a Gaussian cell past its rank cap n // 8 (dense, no slack)
@example(IntervalIndicator(0.0, 0.5), [256], "gaussian_rbf", "uniform",
         1.0, 1.0, RatioPsi(), 40960, 10001, 3, 20260822)
@example(IntervalIndicator(0.0, 0.5), [64], "gaussian_rbf", "uniform",
         1.0, 1.0, RatioPsi(), 2000, 2001, 2, 9)
# Wendland cells on the sign and sine targets, the largest dense size
@example(SignStep(0.1), [16, 512], "wendland_c2", "truncated_gaussian",
         1.0, 1.0, RatioPsi(), 2000, 2001, 2, 7)
@example(SineWave(3.0), [700], "wendland_c2", "uniform", 0.3, 3.0, CappedPsi(), 2000, 2001, 1, 8)
# a subnormal level: 1e-9 |ref| underflows to 0, and both gaps lie within
# one subnormal ulp of the exact one
@example(PiecewiseConstant(((0.0, 1.0, 5e-324),)), [8], "gaussian_rbf", "uniform",
         1.0, 1.0, RatioPsi(), 1, 2, 1, 0)
def test_study_cells_match_their_definitions(
    target, sizes, kernel, sampler, gamma, lam, psi, m, grid, replicates, seed
):
    cfg = _config(target, sizes, kernel, sampler, gamma, lam, psi, m, grid, replicates, seed)
    real = denseness_mod._ridge_solve
    bounds = []  # the pivot-basis bound of each fit in cell order, None on the dense path

    def recorded(data, k, lam_n):
        f, f_hat, bound = real(data, k, lam_n)
        bounds.append(bound)
        return f, f_hat, bound

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(denseness_mod, "_ridge_solve", recorded)
        report = run_study(cfg)
    assert not report.partial
    assert len(bounds) == len(report.cells)
    for cell, bound in zip(report.cells, bounds):
        ref = _reference_cell(cfg, cell.n, cell.replicate)
        # every metric is 1-Lipschitz in a uniform change of the fitted
        # values, so a pivot-basis cell may also move by its logged bound
        slack = 0.0 if bound is None else bound
        for name in METRICS:
            value = getattr(cell, name)
            tol = 1e-9 * abs(ref[name]) + 4 * np.finfo(float).smallest_subnormal + slack
            assert abs(value - ref[name]) <= tol, (cell, name, ref[name])
