"""End-to-end acceptance gate: ten go/no-go checks at fixed tolerances.

Run `pytest tests/test_acceptance.py -v -s` to get one PASS/FAIL line per
criterion.  The thresholds are gates, not tuning knobs: a red here means
the library regressed, not that a tolerance needs loosening.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from probdense import (
    AbsoluteLoss,
    CappedPsi,
    Dataset,
    EmpiricalMeasure,
    GaussianRBF,
    IntervalIndicator,
    MeasureGaussian,
    PairedSample,
    PinballLoss,
    RatioPsi,
    RkhsFunction,
    SineWave,
    SquaredLoss,
    StudyConfig,
    clip,
    empirical_risk,
    eval_measure_kernel,
    fit_kernel_ridge,
    fit_quantile,
    gram_matrix,
    injectivity_probe,
    ky_fan_metric,
    measure_gram_matrix,
    mmd_squared,
    psi_metric,
    risk_convergence_check,
    run_study,
)
from probdense.cli import main as cli_main

PILOT = Path(__file__).parent / "data" / "pilot_study.json"


class criterion:
    """Prints one pass/fail line per criterion; visible under pytest -s."""

    def __init__(self, num: int, name: str):
        self.num, self.name = num, name

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        print(f"criterion {self.num:02d} ({self.name}): {'PASS' if exc_type is None else 'FAIL'}")
        return False


def random_weights(rng, n):
    if rng.random() < 0.5:
        return np.full(n, 1.0 / n)
    w = rng.random(n) + 0.05
    return w / w.sum()


def exceedance_mass(sample: PairedSample, eps: float) -> float:
    return float(sample.weights[sample.distances > eps].sum())


def random_distance_sample(rng) -> PairedSample:
    n = int(rng.integers(1, 301))
    style = rng.integers(0, 4)
    if style == 0:
        d = rng.uniform(0.0, 1.5, n)
    elif style == 1:
        d = rng.exponential(0.3, n)
    elif style == 2:
        d = np.round(rng.uniform(0.0, 1.0, n), 1)  # heavy ties
    else:
        d = rng.uniform(0.0, 1.0, n)
        d[rng.random(n) < 0.3] = 0.0
    return PairedSample(d, random_weights(rng, n))


def test_criterion_01_metric_axioms():
    with criterion(1, "metric axioms"):
        rng = np.random.default_rng(101)
        psis = (RatioPsi(), CappedPsi())
        for _ in range(1000):
            scale = 10 ** rng.uniform(-1, 1)
            f, g, h = (scale * rng.normal(size=500) for _ in range(3))
            w = random_weights(rng, 500)
            for psi in psis:
                dfg = psi_metric(psi, PairedSample(np.abs(f - g), w))
                dgf = psi_metric(psi, PairedSample(np.abs(g - f), w))
                assert dfg == dgf
                dgh = psi_metric(psi, PairedSample(np.abs(g - h), w))
                dfh = psi_metric(psi, PairedSample(np.abs(f - h), w))
                assert dfh <= dfg + dgh + 1e-12


def test_criterion_02_convergence_equivalence():
    with criterion(2, "convergence equivalence"):
        n = 1000
        # difference supported on a single cell of mass 1/n
        d = np.zeros(n)
        d[n // 2] = 1.0
        sample = PairedSample(d, np.full(n, 1.0 / n))
        assert psi_metric(CappedPsi(), sample) <= 0.002
        assert ky_fan_metric(sample) <= 0.002
        # constant unit offset never converges: both metrics pinned at 1
        # (up to the roundoff of summing n copies of 1/n)
        for m in (10, 100, 1000):
            off = PairedSample(np.ones(m), np.full(m, 1.0 / m))
            assert psi_metric(CappedPsi(), off) == pytest.approx(1.0, abs=1e-12)
            assert ky_fan_metric(off) == pytest.approx(1.0, abs=1e-12)


def test_criterion_03_ky_fan_defining_inequality():
    with criterion(3, "ky fan defining inequality"):
        rng = np.random.default_rng(103)
        for _ in range(1000):
            sample = random_distance_sample(rng)
            eps = ky_fan_metric(sample)
            assert exceedance_mass(sample, eps) <= eps + 1e-12
            if eps >= 1e-6:
                shrunk = eps - 1e-6
                assert exceedance_mass(sample, shrunk) > shrunk


def separated_points(rng):
    d = int(rng.integers(1, 4))
    n = int(rng.integers(2, 201))
    side = int(np.ceil(n ** (1.0 / d))) + 1
    grid = np.stack(np.meshgrid(*[np.arange(side)] * d, indexing="ij"), axis=-1).reshape(-1, d)
    sites = grid[rng.choice(grid.shape[0], size=n, replace=False)]
    return (sites + rng.uniform(-0.2, 0.2, sites.shape)).astype(float)


def test_criterion_04_gram_psd_and_injectivity():
    with criterion(4, "gram psd and injectivity"):
        rng = np.random.default_rng(104)
        kernel = GaussianRBF(0.5)
        for _ in range(100):
            X = separated_points(rng)
            lam_min = injectivity_probe(kernel, X)
            assert lam_min > 0.0
            K = gram_matrix(kernel, X)
            assert lam_min >= -1e-8 * np.abs(K).max()
        for _ in range(5):
            X = separated_points(rng)
            X = np.vstack([X, X[:1]])
            with pytest.raises(ValueError):
                injectivity_probe(kernel, X)


def test_criterion_05_ridge_optimality():
    with criterion(5, "ridge and quantile optimality"):
        rng = np.random.default_rng(105)
        for _ in range(100):
            n = int(rng.integers(5, 301))
            X = rng.uniform(-1, 1, (n, int(rng.integers(1, 4))))
            y = rng.normal(size=n)
            lam = 10 ** rng.uniform(-6, 0)
            k = GaussianRBF(float(rng.uniform(0.2, 1.5)))
            f = fit_kernel_ridge(Dataset(X, y), k, lam)
            K = gram_matrix(k, X)
            residual = np.linalg.norm((K + n * lam * np.eye(n)) @ f.coefficients - y)
            assert residual <= 1e-8 * (np.linalg.norm(y) + 1.0)
        # the exact quantile solve certifies its optimality by a duality gap
        for trial in range(20):
            n = int(rng.integers(20, 301))
            x = rng.uniform(0, 1, n)
            data = Dataset(x[:, None], np.sin(6.0 * x) + (0.1 + 0.4 * x) * rng.normal(size=n))
            loss = PinballLoss(float(rng.uniform(0.05, 0.95))) if trial % 2 else AbsoluteLoss()
            lam = 10 ** rng.uniform(-3, -1)
            _, info = fit_quantile(data, GaussianRBF(float(rng.uniform(0.1, 0.5))), loss, lam)
            assert info.converged
            assert 0.0 <= info.duality_gap <= 1e-10


def test_criterion_06_clipping_and_risk_bounds():
    with criterion(6, "clipping and risk bounds"):
        rng = np.random.default_rng(106)
        losses = [SquaredLoss(), AbsoluteLoss(), PinballLoss(0.25), PinballLoss(0.8)]
        for trial in range(1000):
            n = int(rng.integers(2, 30))
            M = float(rng.uniform(0.5, 2.0))
            data = Dataset(rng.uniform(-1, 1, (n, 1)), rng.uniform(-M, M, n))
            f = RkhsFunction(GaussianRBF(0.4), rng.uniform(-1, 1, (6, 1)), 4.0 * rng.normal(size=6))
            loss = losses[trial % 4]
            assert empirical_risk(clip(f, M), data, loss) <= empirical_risk(f, data, loss)
        for trial in range(1000):
            n = int(rng.integers(2, 40))
            X = rng.uniform(-1, 1, (n, 1))
            data = Dataset(X, rng.normal(size=n))
            f = RkhsFunction(GaussianRBF(0.5), rng.uniform(-1, 1, (5, 1)), rng.normal(size=5))
            g = RkhsFunction(GaussianRBF(0.3), rng.uniform(-1, 1, (7, 1)), rng.normal(size=7))
            loss = [AbsoluteLoss(), PinballLoss(0.25), PinballLoss(0.8)][trial % 3]
            gap = abs(empirical_risk(f, data, loss) - empirical_risk(g, data, loss))
            assert gap <= loss.lipschitz_constant * float(np.mean(np.abs(f(X) - g(X)))) + 1e-12


def main_study_config(target):
    return StudyConfig(
        target=target,
        sample_sizes=(64, 256, 1024, 4096),
        seed=20260822,
        replicates=3,
    )


def cells_by_size(report):
    by = {}
    for c in report.cells:
        by.setdefault(c.n, []).append(c)
    return by


def test_criterion_07_denseness_demonstration():
    with criterion(7, "denseness demonstration"):
        report = run_study(main_study_config(IntervalIndicator(0.0, 0.5)))
        assert not report.partial
        recorded = json.loads(PILOT.read_text())
        for cell, ref in zip(report.cells, recorded["cells"]):
            assert (cell.n, cell.replicate) == (ref["n"], ref["replicate"])
            # slack absorbs BLAS variation between machines, nothing more
            assert cell.d_psi == pytest.approx(ref["d_psi"], rel=0.05)
        by = cells_by_size(report)
        for r in range(3):
            d_small, d_large = by[64][r].d_psi, by[4096][r].d_psi
            assert d_large < 0.1
            assert d_large < 0.5 * d_small
        assert all(c.sup_gap >= 0.45 for c in report.cells)
        check = risk_convergence_check(report)
        assert check.passed and check.worst_margin >= 0.0


def test_criterion_08_continuous_control():
    with criterion(8, "continuous control"):
        report = run_study(main_study_config(SineWave()))
        assert not report.partial
        by = cells_by_size(report)
        for r in range(3):
            assert by[4096][r].sup_gap < 0.5 * by[64][r].sup_gap


def random_measure(rng, d: int) -> EmpiricalMeasure:
    n = int(rng.integers(1, 41))
    return EmpiricalMeasure(rng.normal(size=(n, d)), random_weights(rng, n))


def test_criterion_09_measure_kernel():
    with criterion(9, "measure kernel"):
        rng = np.random.default_rng(109)
        mk = MeasureGaussian(GaussianRBF(0.8), gamma=1.2)
        for _ in range(100):
            P = random_measure(rng, int(rng.integers(1, 4)))
            assert eval_measure_kernel(mk, P, P) == 1.0
        base = GaussianRBF(1.0)
        dx = EmpiricalMeasure(np.array([[0.0]]), np.array([1.0]))
        dy = EmpiricalMeasure(np.array([[1.0]]), np.array([1.0]))
        assert mmd_squared(base, dx, dy) == pytest.approx(2.0 - 2.0 / np.e, abs=1e-12)
        measures = [random_measure(rng, 2) for _ in range(20)]
        K = measure_gram_matrix(mk, measures)
        sym = 0.5 * (K + K.T)
        assert np.linalg.eigvalsh(sym).min() >= -1e-8 * np.abs(K).max()


STUDY_INI = """\
[study]
target = indicator
lower = 0.0
upper = 0.5
sample_sizes = 16 64
replicates = 2
seed = 31
eval_sample_size = 256
grid_resolution = 501
"""


def test_criterion_10_determinism(tmp_path):
    with criterion(10, "byte-identical reruns"):
        cfg = tmp_path / "study.ini"
        cfg.write_text(STUDY_INI, encoding="utf-8")
        out1, out2 = tmp_path / "run1.csv", tmp_path / "run2.csv"
        assert cli_main(["study", "--config", str(cfg), "--out", str(out1)]) == 0
        assert cli_main(["study", "--config", str(cfg), "--out", str(out2)]) == 0
        b1, b2 = out1.read_bytes(), out2.read_bytes()
        assert b1 == b2
        assert b1.startswith(b"n,replicate,d_psi,")
