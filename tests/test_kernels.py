"""Tests for point-level and measure-level kernels."""

import logging
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
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
    mmd_squared,
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


# 1e-160 and 1e-170 square to subnormal or zero, 1e155 to inf
@pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf"), 1e-160, 1e-170, 1e155])
def test_invalid_bandwidths_rejected(bad):
    with pytest.raises(ValueError):
        GaussianRBF(bad)
    with pytest.raises(ValueError):
        WendlandC2(bad)
    with pytest.raises(ValueError):
        MeasureGaussian(GaussianRBF(), gamma=bad)


def test_smallest_bandwidths_keep_their_values():
    # the smallest accepted bandwidth: ten radii away is outside the support
    tiny = math.sqrt(np.finfo(float).tiny)
    assert eval_kernel(WendlandC2(tiny), [0.0], [10.0 * tiny]) == 0.0
    assert eval_kernel(GaussianRBF(tiny), [0.0], [tiny]) == pytest.approx(E_INV, rel=1e-15)


def test_wendland_far_points_are_exactly_zero():
    # distances whose square (d = 2) or difference (x' = +-1e308) overflows to inf
    k = WendlandC2(1.0)
    assert eval_kernel(k, [0.0], [1e155]) == 0.0
    assert eval_kernel(k, [0.0, 0.0], [1e155, 0.0]) == 0.0
    assert eval_kernel(k, [-1e308], [1e308]) == 0.0
    K = kernels_mod.pairwise(k, np.array([[-1e308], [0.0]]), np.array([[1e308], [0.5]]))
    assert np.array_equal(K, [[0.0, 0.0], [0.0, 0.1875]])


def test_wendland_scaled_coordinates_must_be_finite():
    # 1e300 / 1e-150 overflows; the same points are fine for the Gaussian
    k = WendlandC2(1e-150)
    X = np.array([[0.0], [1e300]])
    for call in (
        lambda: gram_matrix(k, X),
        lambda: eval_kernel(k, [1e300], [0.0]),
        lambda: kernels_mod.kernel_matvec(k, X[:1], X, np.ones(2)),
        lambda: kernels_mod.kernel_matvec(k, X, X[:1], np.ones(1)),
    ):
        with pytest.raises(ValueError, match=r"divided by support_radius 1e-150 overflow"):
            call()
    # the Gaussian squares the differences, which overflow to inf: k = 0
    assert np.array_equal(gram_matrix(GaussianRBF(1e-150), X), np.eye(2))
    assert gram_matrix(WendlandC2(1e-8), X)[0, 0] == 1.0


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
    """Out-of-place reference arithmetic of each kernel.

    Gaussian: exp of ((X[:, None] - Y[None]) ** 2).sum(-1) / -gamma^2.  Wendland:
    the coordinates divided by the support radius, then r = |x' - y'| in 1-D and
    sqrt of the summed squared differences otherwise, clipped at 1.
    """
    if isinstance(k, GaussianRBF):
        d2 = ((X[:, None, :] - Y[None, :, :]) ** 2).sum(-1)
        return np.exp(-d2 / (k.gamma * k.gamma))
    diff = X[:, None, :] / k.support_radius - Y[None, :, :] / k.support_radius
    r = np.abs(diff[..., 0]) if X.shape[1] == 1 else np.sqrt((diff**2).sum(-1))
    r = np.minimum(r, 1.0)
    base = 1.0 - r
    return (base * base) * (base * base) * (4.0 * r + 1.0)


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


def test_wendland_squarings_match_power_form():
    # r = 0, 0.0001, ..., 1.2 with the support boundary r = 1 on the grid
    r = np.round(np.linspace(0.0, 1.2, 12001), 12)
    assert 1.0 in r
    values = kernels_mod.pairwise(WendlandC2(1.0), np.zeros((1, 1)), r[:, None])[0]
    powered = np.power(np.maximum(0.0, 1.0 - r), 4) * (4.0 * r + 1.0)
    assert np.all(np.abs(values - powered) <= 1e-15 * powered)
    assert values[0] == 1.0
    assert np.all(values[r >= 1.0] == 0.0)


def _at_radius(rng, centers, radius, k, d):
    """A point at scaled distance 1 + k 2^-52 (distance / radius) from a random centre.

    The offset is along the first axis or not; the point is built in scaled
    coordinates and multiplied back by radius, so it lies within a few units of
    roundoff of the support boundary.
    """
    c = centers[rng.integers(len(centers))] / radius
    u = np.eye(d)[0] if rng.random() < 0.5 else rng.normal(size=d)
    u *= rng.choice([-1.0, 1.0]) / np.linalg.norm(u)
    return (c + (1.0 + k * 2.0**-52) * u) * radius


def _local_bound(X, C, a, radius):
    """16 eps times sum |a_i| over the centres within scaled distance 2 of each point."""
    return 16 * np.finfo(float).eps * ((np.abs(X / radius - (C / radius).T) < 2.0) @ np.abs(a))


@settings(max_examples=150, deadline=None)
@given(
    radius=st.sampled_from([0.05, 0.1, 0.3, 1.0 / 3.0, 1.0, 2.5]),
    offset=st.sampled_from([0.0, 1e3]),
    d=st.sampled_from([1, 3]),
    n=st.integers(1, 60),
    m=st.integers(1, 40),
    duplicates=st.integers(0, 5),
    boundary=st.integers(0, 20),
    block=st.sampled_from([1, 7, 64, 2**16]),
    seed=st.integers(0, 2**32 - 1),
)
def test_wendland_matvec_skips_only_zero_columns(
    radius, offset, d, n, m, duplicates, boundary, block, seed
):
    rng = np.random.default_rng(seed)
    k = WendlandC2(radius)
    C = offset + rng.uniform(-3.0, 3.0, size=(m, d))
    C = np.concatenate([C, C[rng.integers(m, size=duplicates)]])
    X = offset + rng.uniform(-3.0, 3.0, size=(n, d))
    near = [_at_radius(rng, C, radius, int(rng.integers(-4, 5)), d) for _ in range(boundary)]
    far = C[C[:, 0].argmax()] + 2.0 * radius * np.eye(d)[0]  # every centre at distance >= 2R
    X = np.concatenate([X, *([np.array(near)] if near else []), far[None, :]])
    X = np.concatenate([X, X[rng.integers(len(X), size=duplicates)]])
    X = X[rng.permutation(len(X))]
    a = rng.normal(size=len(C))
    K = kernels_mod.pairwise(k, X, C)
    perm = rng.permutation(len(X))
    saved = kernels_mod._BLOCK_ENTRIES
    kernels_mod._BLOCK_ENTRIES = block
    try:
        fa = kernels_mod.kernel_matvec(k, X, C, a)
        permuted = kernels_mod.kernel_matvec(k, X[perm], C, a)
        # one unit coefficient makes each sum exact: every column reads K[:, j]
        columns = [kernels_mod.kernel_matvec(k, X, C, e) for e in np.eye(len(C)) if d > 1]
    finally:
        kernels_mod._BLOCK_ENTRIES = saved
    if d == 1:
        # the piecewise quintic takes Taylor coefficients, not kernel values:
        # at a boundary point pairwise's own rounding of x' - c' shows, so
        # the bound is on the coefficients within scaled distance 2
        assert np.all(np.abs(fa - K @ a) <= _local_bound(X, C, a, radius))
    else:
        assert np.all(np.abs(fa - K @ a) <= 1e-12 * (np.abs(K) @ np.abs(a)))
        assert np.array_equal(np.column_stack(columns), K)
    outside = ~K.any(axis=1)
    assert outside.sum() >= 1
    assert np.all(fa[outside] == 0.0)
    if d == 1:
        # row blocks round by row position in d > 1, as for the Gaussian
        assert np.array_equal(permuted, fa[perm])


@pytest.mark.parametrize(
    "radius, centres",
    [
        (1e-150, np.random.default_rng(41).uniform(0.0, 1.0, 50)),
        # scaled unit spacing: x' +- 1 is the next centre, at distance exactly 1
        (1.0, 2.0**52 + np.arange(8.0)),
        # x' +- 1 rounds to x'
        (1.0, 2.0**53 + 2.0 * np.arange(8.0)),
        # neighbouring doubles, 256 apart
        (2.0**-40, 2.0**-40 * (2.0**60 + 256.0 * np.arange(8.0))),
        # both ends of the double range: no difference of far values overflows
        (1.0, np.array([-1.7e308, -1e300, 0.0, 1e300, 1.7e308])),
    ],
)
def test_wendland_line_at_huge_scaled_coordinates(radius, centres):
    # every centre lies outside every other's support, so a point on a centre
    # gets exactly that centre's coefficient and any other point exactly 0
    rng = np.random.default_rng(42)
    k = WendlandC2(radius)
    C = centres[:, None]
    a = rng.normal(size=C.shape[0])
    X = np.concatenate([C, (C[:-1] + C[1:]) / 2.0])[rng.permutation(2 * C.shape[0] - 1)]
    fa = kernels_mod.kernel_matvec(k, X, C, a)
    K = kernels_mod.pairwise(k, X, C)
    assert np.array_equal(fa, K @ a)
    on = (X == C.T).any(axis=1)
    assert np.array_equal(fa[on], a[(X[on] == C.T).argmax(axis=1)])
    assert np.all(fa[~on] == 0.0)


def test_wendland_line_with_dense_anchors_matches_pairwise(monkeypatch):
    # 1e4 scaled units hold 2000 centres: most anchors see no centre at all
    rng = np.random.default_rng(43)
    k = WendlandC2(1e-4)
    C = rng.uniform(0.0, 1.0, (2000, 1))
    a = rng.normal(size=2000)
    X = rng.uniform(0.0, 1.0, (20000, 1))
    real, tabled = kernels_mod._power_tables, []

    def recorded(anchors, *args):
        tables = real(anchors, *args)
        tabled.append((anchors, tables[0].shape))
        return tables

    monkeypatch.setattr(kernels_mod, "_power_tables", recorded)
    fa = kernels_mod.kernel_matvec(k, X, C, a)
    # tables only for the anchors that hold points, each group's within the
    # cell budget or one window (each centre lies in at most three windows);
    # a group that ends inside an anchor leaves its table to be built again
    assert all(
        anchors * width <= max(kernels_mod._GROUP_CELLS, 3 * 2000 + anchors)
        for _, (_, anchors, width) in tabled
    )
    occupied = np.unique(np.floor(X / k.support_radius))
    assert np.array_equal(np.unique(np.concatenate([t for t, _ in tabled])), occupied)
    assert sum(t.size for t, _ in tabled) <= occupied.size + len(tabled)
    for rows in np.array_split(np.arange(20000), 10):
        K = kernels_mod.pairwise(k, X[rows], C)
        assert np.all(np.abs(fa[rows] - K @ a) <= _local_bound(X[rows], C, a, k.support_radius))
        assert np.all(fa[rows][~K.any(axis=1)] == 0.0)


def test_wendland_line_keeps_huge_coefficients_finite():
    # tables scaled by a power of two: no overflow (a RuntimeWarning is an
    # error here) where the direct sum stays finite
    rng = np.random.default_rng(44)
    k = WendlandC2(0.2)
    C = rng.uniform(0.0, 1.0, (30, 1))
    a = rng.choice([-1e306, 1e306], size=30)
    X = np.concatenate([rng.uniform(0.0, 1.0, (500, 1)), C])
    fa = kernels_mod.kernel_matvec(k, X, C, a)
    direct = kernels_mod.pairwise(k, X, C) @ a
    assert np.all(np.isfinite(direct))
    assert np.all(np.isfinite(fa))
    assert np.all(np.abs(fa - direct) <= _local_bound(X, C, a, k.support_radius))


def test_wendland_line_scales_each_window_on_its_own():
    # a huge coefficient far away neither overflows nor flushes a tiny one to
    # zero: only a window that holds a coefficient above 2^900 is scaled
    k = WendlandC2(1.0)
    C = np.array([[0.0], [10.0], [10.5]])
    a = np.array([1e-300, 1e306, -1e306])
    X = np.array([[0.0], [0.5], [0.99], [10.0], [10.2], [11.0]])
    fa = kernels_mod.kernel_matvec(k, X, C, a)
    K = kernels_mod.pairwise(k, X, C)
    assert np.all(np.isfinite(fa))
    assert np.all(fa[:3] != 0.0)
    assert np.all(np.abs(fa - K @ a) <= 1e-14 * (np.abs(K) @ np.abs(a)))


@pytest.mark.parametrize("points, cells", [(7, 2), (4096, 512), (1 << 14, 1 << 11)])
def test_wendland_line_point_values_ignore_the_batch(monkeypatch, points, cells):
    monkeypatch.setattr(kernels_mod, "_CHUNK_POINTS", points)
    monkeypatch.setattr(kernels_mod, "_GROUP_PIECES", cells)
    rng = np.random.default_rng(45)
    k = WendlandC2(0.05)
    C = rng.uniform(0.0, 1.0, (80, 1))
    C = np.concatenate([C, C[:5]])
    a = rng.normal(size=C.shape[0])
    X = rng.uniform(-0.1, 1.1, (60, 1))
    batch = np.concatenate([X, C, rng.uniform(-0.1, 1.1, (3000, 1))])
    perm = rng.permutation(batch.shape[0])
    values = np.empty(batch.shape[0])
    values[perm] = kernels_mod.kernel_matvec(k, batch[perm], C, a)
    alone = np.array([kernels_mod.kernel_matvec(k, x[None, :], C, a)[0] for x in batch[:100]])
    assert alone.tobytes() == values[:100].tobytes()


@settings(max_examples=80, deadline=None)
@given(
    radius=st.sampled_from([0.1, 0.3, 1.0 / 3.0]),
    d=st.sampled_from([1, 3]),
    n=st.integers(1, 20),
    m=st.integers(1, 30),
    block=st.sampled_from([1, 7, 64, 2**16]),
    seed=st.integers(0, 2**32 - 1),
)
# one point near the edges of its supports: |K||a| is small there
@example(radius=0.1, d=1, n=1, m=18, block=1, seed=18)
def test_wendland_scaled_path_is_one_arithmetic(radius, d, n, m, block, seed):
    # radii whose reciprocal is inexact, on offset coordinates 1e3 + u whose
    # scaled differences carry the rounding of the division
    rng = np.random.default_rng(seed)
    k = WendlandC2(radius)
    X = 1e3 + rng.uniform(0.0, 1.0, size=(n, d))
    C = 1e3 + rng.uniform(0.0, 1.0, size=(m, d))
    a = rng.normal(size=m)
    saved = kernels_mod._BLOCK_ENTRIES
    kernels_mod._BLOCK_ENTRIES = block
    try:
        K = kernels_mod.pairwise(k, X, C)
        KT = kernels_mod.pairwise(k, C, X)
        G = gram_matrix(k, X)
        GX = kernels_mod.pairwise(k, X, X.copy())
        fa = kernels_mod.kernel_matvec(k, X, C, a)
    finally:
        kernels_mod._BLOCK_ENTRIES = saved
    assert np.array_equal(K, KT.T)
    assert np.array_equal(G, G.T)
    assert np.array_equal(G, GX)
    assert np.array_equal(K, _sqdist_formula(k, X, C))
    assert all(G[i, j] == eval_kernel(k, X[i], X[j]) for i in range(n) for j in range(n))
    assert all(K[i, j] == eval_kernel(k, X[i], C[j]) for i in range(n) for j in range(m))
    np.testing.assert_allclose(fa, K @ a, rtol=0, atol=1e-12 * (np.abs(K) @ np.abs(a)).max())


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


def test_mmd_clamp_is_logged_and_bug_threshold(monkeypatch, caplog):
    p = EmpiricalMeasure(np.array([[0.0]]), np.array([1.0]))
    q = EmpiricalMeasure(np.array([[1.0]]), np.array([1.0]))
    caplog.set_level(logging.INFO, logger="probdense.kernels")

    assert mmd_squared(GaussianRBF(), p, p) == 0.0
    assert caplog.records == []

    # single unit-weight atoms: each term w @ kernel_matvec(...) is the patched value
    quads = iter([0.5, 0.5, 0.5 + 3e-9])
    monkeypatch.setattr(kernels_mod, "kernel_matvec", lambda k, X, Y, v: np.array([next(quads)]))
    assert mmd_squared(GaussianRBF(), p, q) == 0.0
    clamped = (0.5 + 0.5) - 2.0 * (0.5 + 3e-9)
    assert [(r.levelname, r.getMessage()) for r in caplog.records] == [
        ("INFO", f"mmd_squared clamped {clamped!r} to 0")
    ]

    caplog.clear()
    quads = iter([0.5, 0.5, 0.5 + 1e-4])
    monkeypatch.setattr(kernels_mod, "kernel_matvec", lambda k, X, Y, v: np.array([next(quads)]))
    with pytest.raises(NumericalError):
        mmd_squared(GaussianRBF(), p, q)
    assert caplog.records == []


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
    assert peak < 2 * 2**20  # one set of three 2**16-double block buffers is 1.5 MiB
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
