"""Tests for representer expansions, norms, and the smoothing operator."""

import tracemalloc

import numpy as np
import pytest

from probdense import (
    EmpiricalMeasure,
    GaussianRBF,
    NumericalError,
    QuadratureSpec,
    RkhsFunction,
    WendlandC2,
    apply_integral_operator,
    gram_matrix,
    injectivity_probe,
    kernel_lp_norm,
    lp_norm,
    rkhs_norm,
)
from probdense import rkhs as rkhs_mod

E_INV = 0.36787944117144233


def random_expansion(rng, n=12, d=2, kernel=None):
    kernel = GaussianRBF(0.8) if kernel is None else kernel
    return RkhsFunction(kernel, rng.normal(size=(n, d)), rng.normal(size=n))


def uniform_measure(rng, n=20, d=2):
    return EmpiricalMeasure(rng.uniform(-1.0, 1.0, (n, d)), np.full(n, 1.0 / n))


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


def test_rkhs_norm_frozen_values():
    assert rkhs_norm(RkhsFunction(GaussianRBF(), np.zeros((3, 1)), np.zeros(3))) == 0.0
    f = RkhsFunction(GaussianRBF(), np.array([[0.7]]), np.array([-2.5]))
    assert rkhs_norm(f) == 2.5
    g = RkhsFunction(GaussianRBF(1.0), np.array([[0.0], [1.0]]), np.array([1.0, -1.0]))
    # alpha' K alpha = 2 - 2/e
    assert rkhs_norm(g) == pytest.approx(np.sqrt(2.0 - 2.0 * E_INV), abs=1e-15)
    assert rkhs_norm(g) == pytest.approx(1.1243847729568004, abs=1e-15)


def test_rkhs_norm_absolute_homogeneity():
    rng = np.random.default_rng(13)
    for _ in range(25):
        f = random_expansion(rng)
        a = float(rng.normal())
        scaled = RkhsFunction(f.kernel, f.centers, a * f.coefficients)
        assert rkhs_norm(scaled) == pytest.approx(abs(a) * rkhs_norm(f), abs=1e-12)


def test_rkhs_norm_clamps_tiny_negative_quadratic_form(monkeypatch):
    f = RkhsFunction(GaussianRBF(), np.array([[0.0], [1.0]]), np.array([0.0, 1.0]))
    monkeypatch.setattr(rkhs_mod, "gram_matrix", lambda k, pts: np.diag([1.0, -1e-12]))
    assert rkhs_norm(f) == 0.0


def test_rkhs_norm_flags_large_negative_quadratic_form(monkeypatch):
    f = RkhsFunction(GaussianRBF(), np.array([[0.0], [1.0]]), np.array([0.0, 1.0]))
    monkeypatch.setattr(rkhs_mod, "gram_matrix", lambda k, pts: -np.eye(2))
    with pytest.raises(NumericalError):
        rkhs_norm(f)


def test_quadrature_spec_validates_exponent():
    m = EmpiricalMeasure(np.array([[0.0]]), np.array([1.0]))
    with pytest.raises(ValueError):
        QuadratureSpec(m, p=0.5)
    assert QuadratureSpec(m).p == 2.0


def test_lp_norm_frozen_values():
    m = EmpiricalMeasure(np.array([[0.0], [1.0]]), np.array([0.5, 0.5]))
    quad = QuadratureSpec(m, p=2.0)
    assert lp_norm(lambda X: np.zeros(X.shape[0]), quad) == 0.0
    assert lp_norm(lambda X: np.full(X.shape[0], -3.0), quad) == pytest.approx(3.0, abs=1e-12)
    v = lp_norm(lambda X: X[:, 0], quad)
    assert v == pytest.approx(np.sqrt(0.5), abs=1e-15)
    assert v == pytest.approx(0.7071067811865476, abs=1e-15)


def test_kernel_lp_norm_is_one_for_unit_diagonal_kernels():
    rng = np.random.default_rng(17)
    quad = QuadratureSpec(uniform_measure(rng), p=3.0)
    assert kernel_lp_norm(GaussianRBF(0.3), quad) == pytest.approx(1.0, abs=1e-12)
    assert kernel_lp_norm(WendlandC2(5.0), quad) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
def test_lp_norm_bounded_by_kernel_factor_times_rkhs_norm(p):
    rng = np.random.default_rng(170 + int(p))
    for _ in range(30):
        kernel = GaussianRBF(float(rng.uniform(0.3, 2.0)))
        f = random_expansion(rng, n=int(rng.integers(1, 15)), kernel=kernel)
        quad = QuadratureSpec(uniform_measure(rng, n=int(rng.integers(1, 25))), p=p)
        bound = kernel_lp_norm(kernel, quad) * rkhs_norm(f)
        assert lp_norm(f, quad) <= bound + 1e-8


def test_integral_operator_frozen_values():
    x = np.array([0.25, 0.5])
    same = EmpiricalMeasure(np.tile(x, (3, 1)), np.full(3, 1.0 / 3.0))
    quad = QuadratureSpec(same)
    one = lambda pts: np.ones(pts.shape[0])
    assert apply_integral_operator(GaussianRBF(), one, quad, x) == pytest.approx(1.0, abs=1e-15)
    zero = lambda pts: np.zeros(pts.shape[0])
    assert apply_integral_operator(GaussianRBF(), zero, quad, x) == 0.0

    two = EmpiricalMeasure(np.array([[0.0], [1.0]]), np.array([0.5, 0.5]))
    v = apply_integral_operator(GaussianRBF(1.0), one, QuadratureSpec(two), [0.0])
    assert v == pytest.approx((1.0 + E_INV) / 2.0, abs=1e-15)
    assert v == pytest.approx(0.6839397205857212, abs=1e-15)


def test_integral_operator_is_linear():
    rng = np.random.default_rng(23)
    quad = QuadratureSpec(uniform_measure(rng, n=15, d=1))
    g1 = lambda pts: np.sin(pts[:, 0])
    g2 = lambda pts: pts[:, 0] ** 2
    a, b = 1.7, -0.4
    combo = lambda pts: a * g1(pts) + b * g2(pts)
    X = rng.uniform(-1.0, 1.0, (9, 1))
    lhs = apply_integral_operator(GaussianRBF(), combo, quad, X)
    rhs = a * apply_integral_operator(GaussianRBF(), g1, quad, X) + b * apply_integral_operator(
        GaussianRBF(), g2, quad, X
    )
    assert np.max(np.abs(lhs - rhs)) <= 1e-12


def test_integral_operator_checks_g_output_shape():
    quad = QuadratureSpec(EmpiricalMeasure(np.array([[0.0], [1.0]]), np.array([0.5, 0.5])))
    with pytest.raises(ValueError):
        apply_integral_operator(GaussianRBF(), lambda pts: np.zeros(3), quad, [0.0])


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_integral_operator_rejects_non_finite_g(bad):
    quad = QuadratureSpec(EmpiricalMeasure(np.array([[0.0], [1.0]]), np.array([0.5, 0.5])))
    with pytest.raises(ValueError, match="finite"):
        apply_integral_operator(GaussianRBF(), lambda pts: np.array([1.0, bad]), quad, [0.0])


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
