"""Tests for the psi transforms, the integrated-psi metric, and the Ky Fan metric."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from probdense import (
    CappedPsi,
    PairedSample,
    RatioPsi,
    TabulatedPsi,
    apply_psi,
    ky_fan_metric,
    paired_sample,
    psi_metric,
    validate_psi,
)


def exceedance_mass(sample: PairedSample, eps: float) -> float:
    return float(sample.weights[sample.distances > eps].sum())


def ky_fan_bruteforce(sample: PairedSample) -> float:
    """Independent O(n^2) oracle: minimize over the only possible optima.

    The optimum is either 0, a distance value, or an exceedance mass, so
    checking feasibility of each candidate directly gives the answer.
    """
    candidates = {0.0}
    candidates.update(float(d) for d in sample.distances)
    for d in sample.distances:
        candidates.add(exceedance_mass(sample, float(d)))
    candidates.add(exceedance_mass(sample, 0.0))
    feasible = [c for c in candidates if exceedance_mass(sample, c) <= c]
    return min(feasible)


def ky_fan_scan(sample: PairedSample) -> float:
    """Reference: walk the constant intervals of eps -> P(d > eps) upwards.

    On an interval [lo, hi) with exceedance mass m the smallest feasible
    candidate is lo if m <= lo, else m if m < hi; the first interval that
    admits a candidate yields the metric.  This is the loop the closed form
    in ky_fan_metric replaced.
    """
    keep = sample.weights > 0.0
    d = sample.distances[keep]
    w = sample.weights[keep]
    order = np.argsort(d, kind="stable")
    ds = d[order]
    ws = w[order]
    # suffix[i] = total weight of ds[i:]; suffix[len] = 0
    suffix = np.concatenate([np.cumsum(ws[::-1])[::-1], [0.0]])
    vals, first = np.unique(ds, return_index=True)
    mass_above = np.append(suffix[first[1:]], 0.0)
    if vals[0] > 0.0:
        bounds = np.concatenate([[0.0], vals])
        masses = np.concatenate([[suffix[0]], mass_above])
    else:
        bounds = vals
        masses = mass_above
    for t in range(bounds.size):
        lo = bounds[t]
        hi = bounds[t + 1] if t + 1 < bounds.size else np.inf
        m = masses[t]
        cand = lo if m <= lo else m
        if cand < hi:
            return float(cand)
    raise AssertionError("the final interval always admits a candidate")


def bits(x: float) -> bytes:
    return np.float64(x).tobytes()


def test_ratio_psi_values():
    psi = RatioPsi()
    assert apply_psi(psi, 0.0) == 0.0
    assert apply_psi(psi, 1.0) == 0.5
    assert apply_psi(psi, 3.0) == 0.75


def test_capped_psi_values():
    psi = CappedPsi()
    assert apply_psi(psi, 2.0) == 1.0
    assert apply_psi(psi, 0.3) == 0.3
    assert apply_psi(psi, 0.0) == 0.0


def test_apply_psi_rejects_negative_and_nonfinite():
    with pytest.raises(ValueError):
        apply_psi(CappedPsi(), -0.1)
    with pytest.raises(ValueError):
        apply_psi(CappedPsi(), float("nan"))


def test_apply_psi_clamps_tabulated_overshoot():
    # raw table exceeds 1; the metric-facing evaluation clamps it
    psi = TabulatedPsi((0.0, 1.0, 2.0), (0.0, 1.0, 4.0))
    assert psi.raw(np.array([2.0]))[0] == 4.0
    assert apply_psi(psi, 2.0) == 1.0


def test_tabulated_psi_grid_validation():
    with pytest.raises(ValueError):
        TabulatedPsi((0.5, 1.0), (0.0, 1.0))  # must start at 0
    with pytest.raises(ValueError):
        TabulatedPsi((0.0, 1.0, 1.0), (0.0, 0.5, 1.0))  # strictly increasing
    with pytest.raises(ValueError):
        TabulatedPsi((0.0, 1.0), (0.0,))  # length mismatch


def test_tabulated_psi_constant_beyond_last_knot():
    psi = TabulatedPsi((0.0, 1.0), (0.0, 0.8))
    assert apply_psi(psi, 50.0) == 0.8


@pytest.mark.parametrize("psi", [RatioPsi(), CappedPsi()])
def test_builtin_psis_satisfy_axioms(psi):
    report = validate_psi(psi, grid_max=10.0, grid_n=100)
    assert report.passed
    assert report.failures == ()
    assert str(report) == "psi axioms: pass"


def test_quadratic_table_fails_subadditivity_and_range():
    psi = TabulatedPsi((0.0, 1.0, 2.0), (0.0, 1.0, 4.0))
    report = validate_psi(psi, grid_max=2.0, grid_n=100)
    assert not report.passed
    text = str(report)
    assert "subadditivity" in text
    assert "outside [0, 1]" in text


def test_decreasing_table_fails_monotonicity():
    psi = TabulatedPsi((0.0, 1.0, 2.0), (0.0, 0.9, 0.4))
    report = validate_psi(psi, grid_max=2.0, grid_n=50)
    assert not report.passed
    assert any("decreases" in msg for msg in report.failures)


def test_validate_psi_bad_grid_arguments():
    with pytest.raises(ValueError):
        validate_psi(CappedPsi(), grid_max=0.0)
    with pytest.raises(ValueError):
        validate_psi(CappedPsi(), grid_n=1)


def test_paired_sample_validation():
    with pytest.raises(ValueError):
        PairedSample(np.array([0.1, -0.2]), np.array([0.5, 0.5]))
    with pytest.raises(ValueError):
        PairedSample(np.array([0.1, 0.2]), np.array([0.5, 0.4]))
    with pytest.raises(ValueError):
        PairedSample(np.array([]), np.array([]))


def test_paired_sample_direct_evaluation():
    s = paired_sample(lambda X: X[:, 0], lambda X: np.zeros(X.shape[0]), [[0.0], [1.0]])
    assert np.array_equal(s.distances, np.array([0.0, 1.0]))
    assert np.array_equal(s.weights, np.array([0.5, 0.5]))


def test_paired_sample_identical_functions():
    f = lambda X: np.sin(X[:, 0])
    pts = np.linspace(0.0, 1.0, 17)[:, None]
    s = paired_sample(f, f, pts)
    assert np.all(s.distances == 0.0)


def test_paired_sample_indicator_half_mass():
    f = lambda X: (X[:, 0] <= 0.5).astype(float)
    g = lambda X: np.zeros(X.shape[0])
    pts = np.linspace(0.0, 1.0, 1000)[:, None]
    s = paired_sample(f, g, pts)
    assert int((s.distances == 1.0).sum()) == 500


def test_paired_sample_vector_outputs_use_euclidean_norm():
    f = lambda X: np.stack([X[:, 0], np.zeros(X.shape[0])], axis=1)
    g = lambda X: np.stack([np.zeros(X.shape[0]), X[:, 0]], axis=1)
    s = paired_sample(f, g, [[3.0]])
    assert s.distances[0] == pytest.approx(3.0 * np.sqrt(2.0), abs=1e-14)


def test_psi_metric_frozen_values():
    uniform4 = np.full(4, 0.25)
    s = PairedSample(np.full(4, 0.3), uniform4)
    assert psi_metric(CappedPsi(), s) == pytest.approx(0.3, abs=1e-15)
    s2 = PairedSample(np.array([0.0, 1.0]), np.array([0.5, 0.5]))
    assert psi_metric(RatioPsi(), s2) == 0.25
    zeros = PairedSample(np.zeros(5), np.full(5, 0.2))
    assert psi_metric(CappedPsi(), zeros) == 0.0
    assert psi_metric(RatioPsi(), zeros) == 0.0


def test_psi_metric_symmetry_is_exact():
    rng = np.random.default_rng(3)
    pts = rng.uniform(0.0, 1.0, (300, 1))
    f = lambda X: np.sin(5.0 * X[:, 0])
    g = lambda X: X[:, 0] ** 2
    for psi in (RatioPsi(), CappedPsi()):
        assert psi_metric(psi, paired_sample(f, g, pts)) == psi_metric(
            psi, paired_sample(g, f, pts)
        )


@pytest.mark.parametrize("psi", [RatioPsi(), CappedPsi()])
def test_psi_metric_triangle_inequality(psi):
    rng = np.random.default_rng(19)
    pts = rng.uniform(-1.0, 1.0, (200, 1))
    for _ in range(100):
        a, b, c = rng.normal(size=3)
        f = lambda X: np.sin(a * 7.0 * X[:, 0])
        g = lambda X: b * X[:, 0]
        h = lambda X: np.cos(c * 3.0 * X[:, 0])
        dfh = psi_metric(psi, paired_sample(f, h, pts))
        dfg = psi_metric(psi, paired_sample(f, g, pts))
        dgh = psi_metric(psi, paired_sample(g, h, pts))
        assert dfh <= dfg + dgh + 1e-12


def test_ky_fan_frozen_values():
    uniform4 = np.full(4, 0.25)
    assert ky_fan_metric(PairedSample(np.array([1.0, 1.0, 0.0, 0.0]), uniform4)) == 0.5
    assert ky_fan_metric(PairedSample(np.full(3, 1.0), np.array([0.2, 0.3, 0.5]))) == 1.0
    assert ky_fan_metric(PairedSample(np.zeros(4), uniform4)) == 0.0
    # single atom: answer is min(distance, mass) territory, here the distance
    assert ky_fan_metric(PairedSample(np.array([0.4]), np.array([1.0]))) == 0.4
    # mass above the low distance is what binds
    s = PairedSample(np.array([0.2, 0.9]), np.array([0.7, 0.3]))
    assert ky_fan_metric(s) == 0.3
    # distance value binds when the mass drop comes too late
    s = PairedSample(np.array([0.05, 0.5]), np.array([0.5, 0.5]))
    assert ky_fan_metric(s) == 0.5
    s = PairedSample(np.array([0.5, 0.6]), np.array([0.9, 0.1]))
    assert ky_fan_metric(s) == 0.5


def test_ky_fan_ignores_zero_weight_atoms():
    s = PairedSample(np.array([5.0, 0.1]), np.array([0.0, 1.0]))
    assert ky_fan_metric(s) == 0.1


def test_ky_fan_matches_bruteforce_oracle():
    rng = np.random.default_rng(47)
    for trial in range(200):
        n = int(rng.integers(1, 40))
        d = rng.uniform(0.0, 1.5, n)
        if trial % 3 == 0:
            d = np.round(d, 1)  # force ties
        if trial % 5 == 0:
            d[rng.integers(0, n)] = 0.0
        w = rng.uniform(0.0, 1.0, n)
        if w.sum() == 0.0:
            w[0] = 1.0
        w /= w.sum()
        s = PairedSample(d, w)
        assert ky_fan_metric(s) == pytest.approx(ky_fan_bruteforce(s), abs=1e-12)


def test_ky_fan_defining_inequality_and_minimality():
    rng = np.random.default_rng(53)
    for _ in range(100):
        n = int(rng.integers(2, 60))
        d = rng.uniform(0.0, 2.0, n)
        w = rng.uniform(0.05, 1.0, n)
        w /= w.sum()
        s = PairedSample(d, w)
        eps = ky_fan_metric(s)
        assert exceedance_mass(s, eps) <= eps + 1e-12
        if eps > 1e-6:
            probe = eps - 1e-6
            assert exceedance_mass(s, probe) > probe


def test_ky_fan_zero_iff_all_weighted_distances_zero():
    s = PairedSample(np.array([0.0, 0.0, 2.0]), np.array([0.6, 0.4, 0.0]))
    assert ky_fan_metric(s) == 0.0
    s = PairedSample(np.array([0.0, 1e-9]), np.array([0.5, 0.5]))
    assert ky_fan_metric(s) > 0.0


def test_capped_psi_metric_bounded_by_twice_ky_fan():
    rng = np.random.default_rng(59)
    for _ in range(200):
        n = int(rng.integers(1, 50))
        d = rng.uniform(0.0, 3.0, n)
        w = rng.uniform(0.0, 1.0, n)
        if w.sum() == 0.0:
            w[0] = 1.0
        w /= w.sum()
        s = PairedSample(d, w)
        assert psi_metric(CappedPsi(), s) <= 2.0 * ky_fan_metric(s) + 1e-12


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(1, 3000),
    seed=st.integers(0, 2**32 - 1),
    scale=st.sampled_from([1e-3, 0.5, 2.0]),
    decimals=st.sampled_from([None, 0, 1, 2, 3]),
    zero_frac=st.sampled_from([0.0, 0.1, 0.5, 1.0]),
    negative_zeros=st.booleans(),
    weights=st.sampled_from(["uniform", "random", "some zero"]),
)
def test_ky_fan_closed_form_is_bitwise_the_scan(
    n, seed, scale, decimals, zero_frac, negative_zeros, weights
):
    rng = np.random.default_rng(seed)
    d = rng.uniform(0.0, scale, n)
    if decimals is not None:
        d = np.round(d, decimals)  # ties
    d[rng.random(n) < zero_frac] = 0.0
    if negative_zeros:
        d[(d == 0.0) & (rng.random(n) < 0.5)] = -0.0
    if weights == "uniform":
        w = np.full(n, 1.0 / n)
    else:
        w = rng.uniform(0.0, 1.0, n)
        if weights == "some zero":
            w[rng.random(n) < 0.5] = 0.0
        if w.sum() == 0.0:
            w[0] = 1.0
        w /= w.sum()
    s = PairedSample(d, w)
    eps = ky_fan_metric(s)
    # the scan's zero keeps the sign of a -0.0 distance; the closed form returns +0.0
    assert bits(eps) == bits(ky_fan_scan(s) + 0.0)
    assert not np.signbit(eps)
    assert eps == pytest.approx(ky_fan_bruteforce(s), abs=1e-12)


def test_ky_fan_negative_zero_distance_gives_positive_zero():
    s = PairedSample(np.array([-0.0, 0.0, 3.0]), np.array([0.5, 0.5, 0.0]))
    assert np.signbit(ky_fan_scan(s))
    assert bits(ky_fan_metric(s)) == bits(0.0)
