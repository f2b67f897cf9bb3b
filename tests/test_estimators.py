"""Tests for the gradient estimators: frozen values, algebraic identities,
cross-estimator equivalences, and the binary reduction to the oracle's arms."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carms.estimators import carms, loorf
from carms.oracle import arms_binary, bernoulli_pair_correlation, carms_pair_sum
from carms.sampling import (
    bivariate_pmf_averaged,
    gumbel_pair_pmf,
    onehot,
    sample_antithetic_gumbel,
    sample_antithetic_inverse_cdf,
)


def _random_batch(rng, n, c):
    cats = rng.integers(0, c, size=n)
    z = onehot(cats, c)
    f = rng.normal(size=n)
    p = rng.dirichlet(np.ones(c))
    return f, z, p


# ---------------------------------------------------------------------------
# loorf


def test_loorf_frozen_binary_pair():
    f = [1.0, 0.0]
    z = [[1.0, 0.0], [0.0, 1.0]]
    g = loorf(f, z, [0.5, 0.5])
    assert np.allclose(g, [0.5, -0.5], atol=1e-15)


def test_loorf_constant_f_is_zero():
    rng = np.random.default_rng(0)
    f = np.full(6, 3.7)
    z = onehot(rng.integers(0, 4, size=6), 4)
    assert np.max(np.abs(loorf(f, z, np.full(4, 0.25)))) <= 1e-14


def test_loorf_needs_two_samples():
    with pytest.raises(ValueError):
        loorf([1.0], [[1.0, 0.0]], [0.5, 0.5])


# ---------------------------------------------------------------------------
# carms at N = 2: one debiased antithetic pair (carts)


def test_carts_identical_samples_vanish():
    # R is not read for a same-category pair, so a nonfinite diagonal stays out
    r = np.full((3, 3), 7.0)
    for bad in (np.inf, np.nan):
        np.fill_diagonal(r, bad)
        g = carms([1.0, 5.0], onehot([0, 0], 3), r, [0.2, 0.3, 0.5])
        assert np.array_equal(g, np.zeros(3))
        f, zs = [1.0, 2.0, 4.0], onehot([0, 0, 1], 3)
        assert np.all(np.isfinite(carms_pair_sum(f, zs, r)))


def test_carts_frozen_binary_ratio_half():
    r = np.array([[1.0, 0.5], [0.5, 1.0]])
    g = carms([1.0, 0.0], onehot([0, 1], 2), r, [0.5, 0.5])
    assert np.allclose(g, [0.25, -0.25], atol=1e-15)


# ---------------------------------------------------------------------------
# carms


def test_carms_matrix_form_matches_pair_sum():
    rng = np.random.default_rng(5)
    for _ in range(200):
        n, c = int(rng.integers(2, 8)), int(rng.integers(2, 5))
        f, z, p = _random_batch(rng, n, c)
        r = np.exp(rng.normal(size=(c, c)))
        r = 0.5 * (r + r.T)
        g = carms(f, z, r, p)
        ref = carms_pair_sum(f, z, r)
        scale = max(1.0, np.max(np.abs(ref)))
        assert np.max(np.abs(g - ref)) <= 1e-12 * scale


def test_carms_two_samples_equal_carts():
    # the paper's pair term (1/2) (f - f') (z - z') r[c, c'], written inline
    rng = np.random.default_rng(6)
    for _ in range(50):
        c = int(rng.integers(2, 5))
        f, z, p = _random_batch(rng, 2, c)
        r = np.exp(rng.normal(size=(c, c)))
        r = 0.5 * (r + r.T)
        g = carms(f, z, r, p)
        ref = 0.5 * (f[0] - f[1]) * (z[0] - z[1]) * r[z[0].argmax(), z[1].argmax()]
        assert np.max(np.abs(g - ref)) <= 1e-13


def test_carms_gradient_coordinates_sum_to_zero():
    # softmax logits are shift invariant, so every estimate lives on the
    # zero-sum hyperplane
    rng = np.random.default_rng(7)
    for _ in range(100):
        n, c = int(rng.integers(2, 8)), int(rng.integers(2, 6))
        f, z, p = _random_batch(rng, n, c)
        r = np.exp(rng.normal(size=(c, c)))
        assert abs(carms(f, z, r, p).sum()) <= 1e-9
        assert abs(loorf(f, z, p).sum()) <= 1e-9


def test_carms_permutation_equivariance():
    rng = np.random.default_rng(8)
    for _ in range(50):
        n, c = int(rng.integers(2, 7)), int(rng.integers(2, 6))
        f, z, p = _random_batch(rng, n, c)
        r = np.exp(rng.normal(size=(c, c)))
        r = 0.5 * (r + r.T)
        perm = rng.permutation(c)
        g = carms(f, z, r, p)
        g_perm = carms(f, z[:, perm], r[np.ix_(perm, perm)], p[perm])
        assert np.max(np.abs(g_perm - g[perm])) <= 1e-12


def test_carms_ignores_diagonal_ratios():
    # a pair of samples in one category contributes (f_m - f_m')(z_m - z_m')
    # = 0, so the ratio at (i, i) never enters the estimate: the result is
    # the same bit for bit whatever the diagonal holds
    rng = np.random.default_rng(9)
    for _ in range(50):
        n, c = int(rng.integers(2, 8)), int(rng.integers(2, 6))
        f, z, p = _random_batch(rng, n, c)
        r = np.exp(rng.normal(size=(c, c)))
        r = 0.5 * (r + r.T)
        np.fill_diagonal(r, 0.0)
        ref = carms(f, z, r, p)
        for diag in (np.exp(rng.normal(size=c) * 5.0), np.inf, np.nan, -1.0):
            other = r.copy()
            np.fill_diagonal(other, diag)
            assert np.array_equal(carms(f, z, other, p), ref)


def test_carms_on_realized_ratios_equals_carms_on_the_full_law():
    # the samplers build the ratios at realized pairs only; on draws with a
    # category drawn twice, carms must match its value on the full law's
    # ratios to rounding (the Gumbel draw's quadrature runs on fewer rows)
    rng = np.random.default_rng(15)
    repeated = 0
    for case in range(40):
        c, n = int(rng.integers(2, 9)), int(rng.integers(2, 8))
        p = rng.dirichlet(np.ones(c))
        if case % 2:
            sample, law = sample_antithetic_gumbel, gumbel_pair_pmf(p, n)
        else:
            sample, law = sample_antithetic_inverse_cdf, bivariate_pmf_averaged(p, n)
        with np.errstate(divide="ignore"):
            full = np.where(law > 0.0, np.outer(p, p) / law, 1.0)
        for _ in range(5):
            z, ratios = sample(n, p, rng, clip=None)
            if z.sum(axis=0).max() < 2:
                continue
            repeated += 1
            f = rng.normal(size=n)
            gap = np.max(np.abs(carms(f, z, ratios, p) - carms(f, z, full, p)))
            scale = max(np.max(full), np.max(ratios.ratios)) * np.max(np.abs(f))
            assert gap <= 1e-14 * scale
    assert repeated >= 50


def test_carms_nonfinite_ratio_only_fails_when_read():
    f = [1.0, 0.0]
    z = onehot([0, 1], 3)
    r = np.ones((3, 3))
    r[0, 2] = r[2, 0] = np.inf  # category 2 absent: never read
    carms(f, z, r, [0.2, 0.3, 0.5])
    r[0, 0] = np.inf  # a diagonal entry: never read
    assert np.array_equal(carms(f, z, r, [0.2, 0.3, 0.5]), [0.5, -0.5, 0.0])
    r_bad = np.ones((3, 3))
    r_bad[0, 1] = np.inf  # realized pair
    with pytest.raises(ValueError):
        carms(f, z, r_bad, [0.2, 0.3, 0.5])


def test_carms_shape_validation():
    f = [1.0, 0.0]
    z = onehot([0, 1], 2)
    with pytest.raises(ValueError):
        carms(f, z, np.ones((3, 3)), [0.5, 0.5])
    with pytest.raises(ValueError):
        carms(f, z, np.ones((3, 3)), [0.2, 0.3, 0.5])  # two-column samples
    with pytest.raises(ValueError):
        carms([1.0], z[:1], np.ones((2, 2)), [0.5, 0.5])


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_carms_pair_sum_property(data):
    n = data.draw(st.integers(2, 6))
    c = data.draw(st.integers(2, 4))
    cats = data.draw(st.lists(st.integers(0, c - 1), min_size=n, max_size=n))
    f = np.asarray(
        data.draw(
            st.lists(
                st.floats(-5, 5, allow_nan=False), min_size=n, max_size=n
            )
        )
    )
    z = onehot(np.asarray(cats), c)
    r = np.ones((c, c)) * data.draw(st.floats(0.1, 3.0))
    p = np.full(c, 1.0 / c)
    g = carms(f, z, r, p)
    ref = carms_pair_sum(f, z, r)
    assert np.max(np.abs(g - ref)) <= 1e-11 * max(1.0, np.max(np.abs(ref)))


# ---------------------------------------------------------------------------
# per-pair unbiasedness by direct enumeration (N = 2, exact ratios)


def _pair_enumeration(p, f, pmf, ratios):
    """sum over category pairs (i, j) of P(i, j) carms(f[[i, j]], (e_i, e_j))."""
    total = np.zeros(p.size)
    for i, j in zip(*np.nonzero(pmf)):
        total += pmf[i, j] * carms(f[[i, j]], onehot([i, j], p.size), ratios, p)
    return total


def _exact_ratios(p, pmf):
    with np.errstate(divide="ignore"):
        return np.outer(p, p) / pmf  # an unrealized pair's inf is never read


def test_carts_enumeration_recovers_exact_gradient():
    # sum over pairs of P(i,j) * carms with the matched ratios telescopes to
    # sum_{i != j} p_i p_j (f_i - f_j) e_i / 2 ... = the exact softmax gradient
    for p in ([0.3, 0.7], [0.1, 0.2, 0.7], [0.25, 0.25, 0.5]):
        p = np.asarray(p)
        f = np.arange(1.0, p.size + 1.0) ** 2
        exact = p * (f - float(f @ p))
        for pmf in (bivariate_pmf_averaged(p, 2), gumbel_pair_pmf(p, 2)):
            total = _pair_enumeration(p, f, pmf, _exact_ratios(p, pmf))
            assert np.max(np.abs(total - exact)) <= 1e-10


def test_carts_enumeration_detects_a_corrupted_ratio():
    # the same enumeration with one symmetric ratio entry negated must miss
    p = np.asarray([0.1, 0.2, 0.7])
    f = np.array([1.0, 4.0, 9.0])
    exact = p * (f - float(f @ p))
    for pmf in (bivariate_pmf_averaged(p, 2), gumbel_pair_pmf(p, 2)):
        ratios = _exact_ratios(p, pmf)
        ratios[0, 1] = ratios[1, 0] = -ratios[0, 1]
        total = _pair_enumeration(p, f, pmf, ratios)
        assert np.max(np.abs(total - exact)) > 1e-3


# ---------------------------------------------------------------------------
# binary reduction: carms on C = 2 is arms coordinatewise


def test_binary_carms_equals_arms_per_sample():
    # with C = 2 the copula-coupled pair ratio is exactly 1/(1 - rho_b), so
    # the carms estimate reproduces arms on the category-0 indicator sample
    # for sample, not just in expectation
    rng = np.random.default_rng(14)
    for _ in range(200):
        p0 = float(rng.uniform(0.05, 0.95))
        p = np.array([p0, 1 - p0])
        n = int(rng.integers(2, 7))
        z, ratios = sample_antithetic_inverse_cdf(n, p, rng, clip=None)
        f = rng.normal(size=n)
        rho = bernoulli_pair_correlation(p0, n)
        g_carms = carms(f, z, ratios, p)
        g_arms = arms_binary(f, z[:, :1], [p0], rho)
        assert abs(g_carms[0] - g_arms[0]) <= 1e-12
        assert abs(g_carms[1] + g_arms[0]) <= 1e-12
