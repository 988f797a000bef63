"""Tests for representer expansions and the Gram injectivity probe."""

import tracemalloc

import numpy as np
import pytest

from probdense import GaussianRBF, RkhsFunction, WendlandC2, gram_matrix, injectivity_probe

E_INV = 0.36787944117144233


def random_expansion(rng, n=12, d=2, kernel=None):
    kernel = GaussianRBF(0.8) if kernel is None else kernel
    return RkhsFunction(kernel, rng.normal(size=(n, d)), rng.normal(size=n))


def test_zero_coefficients_give_zero_function():
    f = RkhsFunction(GaussianRBF(), np.array([[0.0], [1.0]]), np.zeros(2))
    assert f([0.3]) == 0.0
    assert np.array_equal(f(np.array([[0.1], [0.9]])), np.zeros(2))


def test_single_center_evaluations():
    f = RkhsFunction(GaussianRBF(1.0), np.array([[0.5]]), np.array([1.0]))
    assert f([0.5]) == 1.0
    g = RkhsFunction(GaussianRBF(1.0), np.array([[0.0]]), np.array([2.0]))
    assert g([1.0]) == pytest.approx(2.0 * E_INV, abs=1e-15)
    assert g([1.0]) == pytest.approx(0.7357588823428847, abs=1e-15)


def test_batch_and_single_evaluation_agree():
    rng = np.random.default_rng(2)
    f = random_expansion(rng)
    X = rng.normal(size=(7, 2))
    batch = f(X)
    for i in range(7):
        assert batch[i] == pytest.approx(f(X[i]), abs=1e-15)


def test_coefficient_shape_and_finiteness_checked():
    with pytest.raises(ValueError):
        RkhsFunction(GaussianRBF(), np.zeros((3, 1)), np.zeros(2))
    with pytest.raises(ValueError):
        RkhsFunction(GaussianRBF(), np.zeros((2, 1)), np.array([1.0, np.inf]))


def test_evaluating_on_centers_matches_gram_product():
    rng = np.random.default_rng(7)
    f = random_expansion(rng, n=25, d=3, kernel=GaussianRBF(0.8))
    K = gram_matrix(f.kernel, f.centers)
    assert np.array_equal(f(f.centers), K @ f.coefficients)
    g = random_expansion(rng, n=25, d=3, kernel=WendlandC2(2.0))
    K = gram_matrix(g.kernel, g.centers)
    assert np.array_equal(g(g.centers), K @ g.coefficients)


@pytest.mark.parametrize("kernel", [GaussianRBF(0.05), WendlandC2(0.1)])
def test_evaluation_memory_is_bounded_by_the_block(kernel):
    # the full 20000 x 2000 kernel matrix would take 305 MiB
    rng = np.random.default_rng(3)
    f = RkhsFunction(kernel, rng.uniform(0.0, 1.0, (2000, 1)), rng.normal(size=2000))
    X = rng.uniform(0.0, 1.0, (20000, 1))
    tracemalloc.start()
    try:
        values = f(X)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert values.shape == (20000,)
    assert peak < 2 * 2**20  # one set of three 2**16-double block buffers is 1.5 MiB


def test_injectivity_probe_frozen_values():
    assert injectivity_probe(GaussianRBF(), np.array([[0.4]])) == 1.0
    v = injectivity_probe(GaussianRBF(1.0), np.array([[0.0], [1.0]]))
    # 2x2 Gram eigenvalues are 1 +- 1/e
    assert v == pytest.approx(1.0 - E_INV, abs=1e-12)
    assert v == pytest.approx(0.6321205588285577, abs=1e-12)


def test_injectivity_probe_positive_at_separated_points():
    # the certificate needs separation matched to bandwidth: neighbors one
    # grid step apart with gamma = half a step keep the Gram well conditioned
    rng = np.random.default_rng(29)
    X = (np.arange(100) * 0.01 + rng.uniform(0.0, 0.004, 100))[:, None]
    assert injectivity_probe(GaussianRBF(0.005), X) > 1e-6


def test_injectivity_probe_keeps_psd_floor_on_clustered_points():
    # 100 uniform points in [0,1] at gamma 0.2 are numerically rank deficient:
    # the true smallest eigenvalue sits far below eigensolver resolution, so
    # the probe cannot certify positivity, only the roundoff floor
    rng = np.random.default_rng(29)
    X = rng.uniform(0.0, 1.0, (100, 1))
    v = injectivity_probe(GaussianRBF(0.2), X)
    assert v >= -1e-8


def test_injectivity_probe_rejects_duplicates():
    with pytest.raises(ValueError, match="distinct"):
        injectivity_probe(GaussianRBF(), np.array([[0.1], [0.1], [0.2]]))
