"""Tests for point-level and measure-level kernels."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from probdense import (
    EmpiricalMeasure,
    GaussianRBF,
    MeasureGaussian,
    NumericalError,
    WendlandC2,
    eval_kernel,
    eval_measure_kernel,
    gram_matrix,
    measure_gram_matrix,
    mmd_clamp_count,
    mmd_squared,
    reset_mmd_clamp_count,
    sup_kernel_norm,
)
from probdense import kernels as kernels_mod

E_INV = 0.36787944117144233  # exp(-1), checked below against math.exp


def test_gaussian_zero_distance_is_one():
    assert eval_kernel(GaussianRBF(1.0), [0.3], [0.3]) == 1.0
    assert eval_kernel(GaussianRBF(0.2), [1.0, 2.0], [1.0, 2.0]) == 1.0


def test_gaussian_unit_distance():
    v = eval_kernel(GaussianRBF(1.0), [0.0], [1.0])
    assert v == pytest.approx(E_INV, abs=1e-15)
    assert abs(E_INV - math.exp(-1.0)) < 1e-16
    # bandwidth rescales the exponent: gamma=2 halves the distance twice over
    v2 = eval_kernel(GaussianRBF(2.0), [0.0], [1.0])
    assert v2 == pytest.approx(math.exp(-0.25), abs=1e-15)


def test_wendland_support_boundary_and_interior():
    assert eval_kernel(WendlandC2(1.0), [0.0], [1.0]) == 0.0
    assert eval_kernel(WendlandC2(1.0), [0.0], [0.0]) == 1.0
    # (1 - 0.5)^4 * (4*0.5 + 1) = 0.0625 * 3, exact in binary
    assert eval_kernel(WendlandC2(1.0), [0.0], [0.5]) == 0.1875
    assert eval_kernel(WendlandC2(2.0), [0.0], [1.0]) == 0.1875


def test_wendland_vanishes_beyond_support():
    rng = np.random.default_rng(11)
    k = WendlandC2(0.7)
    for _ in range(50):
        x = rng.normal(size=3)
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        y = x + direction * (0.7 + rng.uniform(0.0, 5.0))
        assert eval_kernel(k, x, y) == 0.0


@pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
def test_invalid_bandwidths_rejected(bad):
    with pytest.raises(ValueError):
        GaussianRBF(bad)
    with pytest.raises(ValueError):
        WendlandC2(bad)


@pytest.mark.parametrize("k", [GaussianRBF(0.8), WendlandC2(2.5)])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_symmetry_is_exact(k, d):
    rng = np.random.default_rng(100 + d)
    X = rng.normal(size=(40, d))
    Y = rng.normal(size=(23, d))
    assert np.array_equal(kernels_mod.pairwise(k, X, Y), kernels_mod.pairwise(k, Y, X).T)
    K = gram_matrix(k, X)
    assert np.array_equal(K, K.T)


@pytest.mark.parametrize("k", [GaussianRBF(0.8), WendlandC2(2.5)])
def test_gram_entries_match_single_evaluation_bitwise(k):
    rng = np.random.default_rng(5)
    X = rng.normal(size=(15, 3))
    K = gram_matrix(k, X)
    for i in range(15):
        for j in range(15):
            assert K[i, j] == eval_kernel(k, X[i], X[j])


def test_row_chunking_does_not_change_results(monkeypatch):
    rng = np.random.default_rng(17)
    X = rng.normal(size=(150, 2))
    expected = gram_matrix(GaussianRBF(), X)
    monkeypatch.setattr(kernels_mod, "_BLOCK_ENTRIES", 64)
    assert np.array_equal(gram_matrix(GaussianRBF(), X), expected)


def _sqdist_formula(k, X, Y):
    """Out-of-place reference: the kernel of ((X[:, None] - Y[None]) ** 2).sum(-1)."""
    d2 = ((X[:, None, :] - Y[None, :, :]) ** 2).sum(-1)
    if isinstance(k, GaussianRBF):
        return np.exp(-d2 / (k.gamma * k.gamma))
    r = np.sqrt(d2) / k.support_radius
    base = np.maximum(0.0, 1.0 - r)
    return base ** 4 * (4.0 * r + 1.0)


@settings(max_examples=40, deadline=None)
@given(
    kernel=st.sampled_from([GaussianRBF(0.3), GaussianRBF(2.0), WendlandC2(0.8), WendlandC2(3.0)]),
    d=st.sampled_from([1, 3]),
    n=st.integers(1, 70),
    m=st.integers(1, 40),
    block=st.sampled_from([1, 7, 64, 200]),
    seed=st.integers(0, 2**32 - 1),
)
def test_block_evaluation_matches_formula(kernel, d, n, m, block, seed):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    C = rng.normal(size=(m, d))
    a = rng.normal(size=m)
    expected = _sqdist_formula(kernel, X, C)
    saved = kernels_mod._BLOCK_ENTRIES
    kernels_mod._BLOCK_ENTRIES = block
    try:
        K = kernels_mod.pairwise(kernel, X, C)
        fa = kernels_mod.kernel_matvec(kernel, X, C, a)
    finally:
        kernels_mod._BLOCK_ENTRIES = saved
    assert np.array_equal(K, expected)
    np.testing.assert_allclose(fa, K @ a, rtol=1e-12, atol=1e-12 * np.abs(a).sum())


def test_kernel_matvec_checks_coefficient_shape():
    with pytest.raises(ValueError, match="shape"):
        kernels_mod.kernel_matvec(GaussianRBF(), np.zeros((3, 1)), np.zeros((2, 1)), np.zeros(3))


@pytest.mark.parametrize("k", [GaussianRBF(0.5), WendlandC2(1.5)])
def test_gram_is_positive_semidefinite(k):
    rng = np.random.default_rng(23)
    for n in (5, 60, 200):
        X = rng.uniform(0.0, 1.0, size=(n, 2))
        K = gram_matrix(k, X)
        lam_min = np.linalg.eigvalsh(K)[0]
        assert lam_min >= -1e-8 * np.abs(K).max()


def test_gaussian_gram_strictly_positive_at_distinct_points():
    rng = np.random.default_rng(29)
    X = rng.uniform(0.0, 1.0, size=(50, 2))
    K = gram_matrix(GaussianRBF(0.5), X)
    assert np.linalg.eigvalsh(K)[0] > 0.0


def test_identical_points_give_rank_deficient_gram():
    K = gram_matrix(GaussianRBF(), np.array([[0.5], [0.5]]))
    assert np.array_equal(K, np.ones((2, 2)))
    assert np.linalg.eigvalsh(K)[0] == pytest.approx(0.0, abs=1e-15)


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError, match="dimension mismatch"):
        eval_kernel(GaussianRBF(), [0.0, 1.0], [0.0])
    with pytest.raises(ValueError, match="dimension mismatch"):
        kernels_mod.pairwise(GaussianRBF(), np.zeros((3, 2)), np.zeros((3, 1)))


def test_measure_kernel_rejected_where_point_kernel_required():
    mk = MeasureGaussian(GaussianRBF())
    with pytest.raises(TypeError):
        eval_kernel(mk, [0.0], [1.0])
    with pytest.raises(TypeError):
        gram_matrix(mk, np.zeros((2, 1)))


def test_measure_kernel_base_must_be_point_level():
    with pytest.raises(TypeError):
        MeasureGaussian(MeasureGaussian(GaussianRBF()))


def test_empirical_measure_validation():
    m = EmpiricalMeasure(np.array([0.0, 1.0]), np.array([0.5, 0.5]))
    assert m.atoms.shape == (2, 1)
    assert m.dim == 1
    with pytest.raises(ValueError):
        EmpiricalMeasure(np.array([0.0, 1.0]), np.array([0.4, 0.5]))
    with pytest.raises(ValueError):
        EmpiricalMeasure(np.array([0.0, 1.0]), np.array([-0.5, 1.5]))
    with pytest.raises(ValueError):
        EmpiricalMeasure(np.array([0.0, 1.0]), np.array([1.0]))


def test_mmd_identical_measures_is_exactly_zero():
    rng = np.random.default_rng(31)
    atoms = rng.normal(size=(12, 2))
    w = rng.uniform(0.1, 1.0, 12)
    w /= w.sum()
    p = EmpiricalMeasure(atoms, w)
    q = EmpiricalMeasure(atoms.copy(), w.copy())
    assert mmd_squared(GaussianRBF(), p, q) == 0.0


def test_mmd_two_diracs_closed_form():
    p = EmpiricalMeasure(np.array([[0.0]]), np.array([1.0]))
    q = EmpiricalMeasure(np.array([[1.0]]), np.array([1.0]))
    v = mmd_squared(GaussianRBF(1.0), p, q)
    # k(x,x) + k(y,y) - 2 k(x,y) = 2 - 2/e
    assert v == pytest.approx(2.0 - 2.0 * E_INV, abs=1e-15)
    assert v == pytest.approx(1.2642411176571153, abs=1e-15)


def test_mmd_split_atom_measure_has_equal_embedding():
    p = EmpiricalMeasure(np.array([[0.25]]), np.array([1.0]))
    q = EmpiricalMeasure(np.array([[0.25], [0.25]]), np.array([0.5, 0.5]))
    assert mmd_squared(GaussianRBF(), p, q) == 0.0


def test_mmd_nonnegative_on_random_measures():
    rng = np.random.default_rng(37)
    for _ in range(30):
        n, m = rng.integers(1, 15, size=2)
        wp = rng.uniform(0.1, 1.0, n)
        wq = rng.uniform(0.1, 1.0, m)
        p = EmpiricalMeasure(rng.normal(size=(n, 2)), wp / wp.sum())
        q = EmpiricalMeasure(rng.normal(size=(m, 2)), wq / wq.sum())
        assert mmd_squared(WendlandC2(2.0), p, q) >= 0.0


def test_mmd_clamp_counter_and_bug_threshold(monkeypatch):
    p = EmpiricalMeasure(np.array([[0.0]]), np.array([1.0]))
    q = EmpiricalMeasure(np.array([[1.0]]), np.array([1.0]))
    reset_mmd_clamp_count()

    # single unit-weight atoms: each term w @ kernel_matvec(...) is the patched value
    quads = iter([0.5, 0.5, 0.5 + 3e-9])
    monkeypatch.setattr(kernels_mod, "kernel_matvec", lambda k, X, Y, v: np.array([next(quads)]))
    assert mmd_squared(GaussianRBF(), p, q) == 0.0
    assert mmd_clamp_count() == 1

    quads = iter([0.5, 0.5, 0.5 + 1e-4])
    monkeypatch.setattr(kernels_mod, "kernel_matvec", lambda k, X, Y, v: np.array([next(quads)]))
    with pytest.raises(NumericalError):
        mmd_squared(GaussianRBF(), p, q)
    reset_mmd_clamp_count()
    assert mmd_clamp_count() == 0


def test_mmd_memory_is_bounded_by_the_block():
    # two 4000-atom measures in d = 2: full kernel matrices would take 122 MiB each
    rng = np.random.default_rng(47)
    n = 4000
    p = EmpiricalMeasure(rng.normal(size=(n, 2)), np.full(n, 1.0 / n))
    q = EmpiricalMeasure(rng.normal(size=(n, 2)), np.full(n, 1.0 / n))
    tracemalloc.start()
    try:
        value = mmd_squared(GaussianRBF(), p, q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 0.0 <= value < 1e-2
    assert peak < 32 * 2**20
    assert mmd_squared(GaussianRBF(), p, EmpiricalMeasure(p.atoms.copy(), p.weights.copy())) == 0.0


def test_measure_kernel_self_value_is_one():
    rng = np.random.default_rng(41)
    k = MeasureGaussian(GaussianRBF(), gamma=0.7)
    for _ in range(20):
        n = int(rng.integers(1, 10))
        w = rng.uniform(0.1, 1.0, n)
        p = EmpiricalMeasure(rng.normal(size=(n, 3)), w / w.sum())
        assert eval_measure_kernel(k, p, p) == 1.0


def test_measure_kernel_two_dirac_value():
    p = EmpiricalMeasure(np.array([[0.0]]), np.array([1.0]))
    q = EmpiricalMeasure(np.array([[1.0]]), np.array([1.0]))
    v = eval_measure_kernel(MeasureGaussian(GaussianRBF(1.0), gamma=1.0), p, q)
    assert v == pytest.approx(math.exp(-(2.0 - 2.0 * E_INV)), abs=1e-15)
    assert v == pytest.approx(0.2824535638505403, abs=1e-15)


def test_measure_kernel_requires_measure_kernel():
    p = EmpiricalMeasure(np.array([[0.0]]), np.array([1.0]))
    with pytest.raises(TypeError):
        eval_measure_kernel(GaussianRBF(), p, p)


def test_measure_gram_is_symmetric_psd():
    rng = np.random.default_rng(43)
    measures = []
    for _ in range(10):
        n = int(rng.integers(2, 8))
        w = rng.uniform(0.1, 1.0, n)
        measures.append(EmpiricalMeasure(rng.normal(size=(n, 2)), w / w.sum()))
    K = measure_gram_matrix(MeasureGaussian(GaussianRBF(), gamma=1.5), measures)
    assert np.array_equal(K, K.T)
    assert np.all(np.diag(K) == 1.0)
    assert np.linalg.eigvalsh(K)[0] >= -1e-8 * np.linalg.norm(K)


def test_measure_gram_caches_self_terms_bitwise(monkeypatch):
    rng = np.random.default_rng(44)
    measures = []
    for _ in range(7):
        m = int(rng.integers(1, 30))
        w = rng.uniform(0.1, 1.0, m)
        measures.append(EmpiricalMeasure(rng.normal(size=(m, 2)), w / w.sum()))
    k = MeasureGaussian(WendlandC2(2.5), gamma=0.8)
    real = kernels_mod.kernel_matvec
    calls = {"n": 0}

    def counted(*args):
        calls["n"] += 1
        return real(*args)

    monkeypatch.setattr(kernels_mod, "kernel_matvec", counted)
    K = measure_gram_matrix(k, measures)
    n = len(measures)
    # one self-term per measure, one cross term per pair (3 n (n + 1) / 2 before caching)
    assert calls["n"] == n * (n + 1) // 2
    for i in range(n):
        for j in range(i, n):
            value = eval_measure_kernel(k, measures[i], measures[j])
            assert K[i, j] == K[j, i] == value
    assert np.all(np.diag(K) == 1.0)


def test_sup_kernel_norm_is_one_for_bounded_kernels():
    pts = np.array([[0.0], [0.3], [2.0]])
    assert sup_kernel_norm(GaussianRBF(), pts) == 1.0
    assert sup_kernel_norm(WendlandC2(), pts) == 1.0
