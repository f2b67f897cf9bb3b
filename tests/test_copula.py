"""Tests for the copula layer.

The closed form used by ``dirichlet_bivariate_cdf`` is re-derived here from
first principles, since the sampler's correctness rests on it.

Let d ~ Dirichlet(1_n), i.e. uniform on the (n-1)-simplex.  Any single
coordinate is Beta(1, n-1):

    P(d_i <= a) = 1 - (1 - a)^(n-1).

For a pair of coordinates, the event {d_i > a, d_j > b} requires mass
a + b to be set aside, and the remaining coordinates again form a scaled
uniform simplex, so

    P(d_i > a, d_j > b) = max(0, 1 - a - b)^(n-1).

Inclusion-exclusion turns the joint survival function into the joint CDF:

    P(d_i <= a, d_j <= b)
        = 1 - P(d_i > a) - P(d_j > b) + P(d_i > a, d_j > b)
        = 1 - (1-a)^(n-1) - (1-b)^(n-1) + max(0, 1 - a - b)^(n-1).

The copula coordinate is the probability integral transform
u_i = 1 - (1 - d_i)^(n-1), which is strictly increasing in d_i, so with
a = 1 - (1-p)^(1/(n-1)) (the d-value mapping to u = p):

    Phi(p, q) = P(u_i <= p, u_j <= q)
              = p + q - 1 + max(0, (1-p)^(1/(n-1)) + (1-q)^(1/(n-1)) - 1)^(n-1).

At n = 2 the exponents vanish and Phi(p, q) = max(p + q - 1, 0), the
lower Frechet-Hoeffding bound, i.e. the exact antithetic pair (u, 1-u).
The Monte Carlo consistency test below checks the sampled construction
against this closed form on a grid, which validates both at once.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from carms.copula import (
    CLAMP_EPS,
    _dirichlet_cdf,
    _dirichlet_conditional,
    _dirichlet_slope,
    _dirichlet_t,
    _int_power,
    _sample_dirichlet_copula_batch,
    _sample_gaussian_copula_batch,
    dirichlet_bivariate_cdf,
)

# the two copula draws, each (k, n, rng) -> (k, n) uniforms
SAMPLERS = (_sample_dirichlet_copula_batch, _sample_gaussian_copula_batch)


class _FakeRng:
    """Stands in for a Generator; returns constant exponentials."""

    def standard_exponential(self, out):
        out[...] = 1.0
        return out


# ---------------------------------------------------------------------------
# dirichlet_bivariate_cdf


def test_cdf_frozen_values():
    # n=2 closed form max(p+q-1, 0)
    assert dirichlet_bivariate_cdf(0.6, 0.3, 2) == 0.0
    assert dirichlet_bivariate_cdf(0.7, 0.5, 2) == pytest.approx(0.2, abs=1e-15)
    # general n against the derivation evaluated by hand
    p, q, n = 0.4, 0.5, 4
    expected = p + q - 1 + max(0.0, 0.6 ** (1 / 3) + 0.5 ** (1 / 3) - 1) ** 3
    assert dirichlet_bivariate_cdf(p, q, n) == pytest.approx(expected, abs=1e-15)


@given(
    p=st.floats(0.0, 1.0),
    n=st.integers(2, 12),
)
def test_cdf_boundary_identities(p, n):
    assert dirichlet_bivariate_cdf(p, 1.0, n) == pytest.approx(p, abs=1e-15)
    assert dirichlet_bivariate_cdf(1.0, p, n) == pytest.approx(p, abs=1e-15)
    assert dirichlet_bivariate_cdf(p, 0.0, n) == 0.0
    assert dirichlet_bivariate_cdf(0.0, p, n) == 0.0


@given(
    p=st.floats(0.0, 1.0),
    q=st.floats(0.0, 1.0),
    n=st.integers(2, 12),
)
# boundary row p = 1: the CDF is exactly q, while the envelope's p + q - 1
# rounds to 1.0000000000065e-05
@example(p=1.0, q=1e-05, n=2)
def test_cdf_symmetry_and_frechet_bounds(p, q, n):
    val = dirichlet_bivariate_cdf(p, q, n)
    assert val == dirichlet_bivariate_cdf(q, p, n)
    # Frechet-Hoeffding envelope; the lower bound is attained exactly at n=2.
    # The envelope itself is computed in floating point: p + q rounds once,
    # by up to 2.2e-16, so both bounds get the same 1e-15 slack.
    assert val >= max(p + q - 1.0, 0.0) - 1e-15
    assert val <= min(p, q) + 1e-15
    if n == 2:
        assert abs(val - max(p + q - 1.0, 0.0)) <= 1e-15


def test_cdf_monotone_in_each_argument():
    grid = np.linspace(0.0, 1.0, 41)
    for n in (2, 3, 7):
        surface = dirichlet_bivariate_cdf(grid[:, None], grid[None, :], n)
        assert np.all(np.diff(surface, axis=0) >= -1e-15)
        assert np.all(np.diff(surface, axis=1) >= -1e-15)


def test_cdf_rejects_bad_arguments():
    with pytest.raises(ValueError):
        dirichlet_bivariate_cdf(-0.1, 0.5, 2)
    with pytest.raises(ValueError):
        dirichlet_bivariate_cdf(0.5, 1.1, 2)
    with pytest.raises(ValueError):
        dirichlet_bivariate_cdf(0.5, np.nan, 2)
    with pytest.raises(ValueError):
        dirichlet_bivariate_cdf(0.5, 0.5, 1)


def test_cdf_scalar_in_scalar_out():
    out = dirichlet_bivariate_cdf(0.3, 0.4, 3)
    assert isinstance(out, float)
    out = dirichlet_bivariate_cdf(np.full(4, 0.3), 0.4, 3)
    assert out.shape == (4,)


def _first_partial(cdf, u, v, h=1e-6):
    return (cdf(u + h, v) - cdf(u - h, v)) / (2 * h)


def _pair_cdfs(n, p, q):
    # C(p, q) and, for n > 2, dC/dp(p, q) from the shared t and p's slope,
    # as the Gumbel pair law's kernel forms it
    cond = None
    if n > 2:
        cond = _dirichlet_conditional(_dirichlet_t(p, q, n), _dirichlet_slope(p, n), n)
    return _dirichlet_cdf(p, q, n), cond


def test_dirichlet_pair_cdfs_are_the_cdf_and_its_first_partial():
    # the Dirichlet kernels behind the Gumbel pair law, on (0, 1] where it
    # evaluates them (N = 2 has a mirror law of its own and no dC/dp)
    grid = np.linspace(0.05, 0.95, 19)
    u, v = grid[:, None], grid[None, :]
    for n in (3, 4, 7):
        joint, cond = _pair_cdfs(n, u, v)
        assert np.array_equal(joint, dirichlet_bivariate_cdf(u, v, n))
        fd = _first_partial(lambda a, b: dirichlet_bivariate_cdf(a, b, n), u, v)
        assert np.max(np.abs(cond - fd)) <= 1e-5
    # the boundary row and column at 1: the conditional is exact, the joint
    # CDF carries the rounding of its p + q - 1
    for n in (2, 3, 6):
        for args in ((grid, 1.0), (1.0, grid)):
            joint, cond = _pair_cdfs(n, *args)
            assert n == 2 or np.all(cond == 1.0)
            assert np.max(np.abs(joint - grid)) <= 1e-15


# (C(p, q), dC/dp(p, q)) at p in (0.2, 0.55, 0.9) down, q in (0.35, 0.7) across;
# no dC/dp at n = 2, whose law is the mirror kernel's
DIRICHLET_PAIR_CDFS = {
    2: ([[0.0, 0.0], [0.0, 0.25], [0.25, 0.6000000000000001]], None),
    3: ([[0.040914578526054124, 0.0954964001031072],
         [0.12757304647961312, 0.2977610213247474],
         [0.2649948696658927, 0.6000000000000001]],
        [[0.2166461698838974, 0.5056615530541002],
         [0.28886155984519657, 0.6742154040721337],
         [0.6127679033719868, 1.0]]),
    4: ([[0.05162013943495669, 0.11357986946416787],
         [0.15309383606754662, 0.3327350266079774],
         [0.2860671797830988, 0.6023841837891062]],
        [[0.26741731152926684, 0.585383208535234],
         [0.3186357083402608, 0.6766660820765682],
         [0.49331102287054807, 0.9171625946919855]]),
    6: ([[0.059410405898151164, 0.12545501609829926],
         [0.1704126243392704, 0.35603973240101866],
         [0.29960421025780787, 0.6126030079422481]],
        [[0.30308107160701125, 0.6369420657697556],
         [0.3346478579952046, 0.6853665535909357],
         [0.42929085495246533, 0.8092874083461927]]),
}


@pytest.mark.parametrize("n", sorted(DIRICHLET_PAIR_CDFS))
def test_dirichlet_kernels_write_only_the_arrays_they_make(n):
    # the kernels work in place: p, q and the t that the CDF and dC/dp share
    # must come out as they went in, and the values as frozen
    p, q = np.array([[0.2], [0.55], [0.9]]), np.array([[0.35, 0.7]])
    joint, cond = _pair_cdfs(n, p, q)
    frozen_joint, frozen_cond = DIRICHLET_PAIR_CDFS[n]
    np.testing.assert_allclose(joint, frozen_joint, rtol=1e-15, atol=1e-17)
    if n > 2:
        np.testing.assert_allclose(cond, frozen_cond, rtol=1e-15, atol=1e-17)
        t = _dirichlet_t(p, q, n)
        shared, slope = t.copy(), _dirichlet_slope(p, n)
        # into given arrays, as the Gumbel kernel calls it, bit for bit
        out, scratch = np.empty(t.shape), np.empty(t.shape)
        assert _dirichlet_conditional(t, slope, n, out, scratch) is out
        assert np.array_equal(out, cond)
        assert _dirichlet_cdf(p, q, n, t, out, scratch) is out
        assert np.array_equal(out, joint)
        assert np.array_equal(_dirichlet_cdf(p, q, n, t), joint)
        assert np.array_equal(t, shared)
        assert _int_power(t, 1) is not t
    assert np.array_equal(p, [[0.2], [0.55], [0.9]]) and np.array_equal(q, [[0.35, 0.7]])
    # one point in, one float out, equal to the same point of an array call
    for i, j in np.ndindex(joint.shape):
        value = dirichlet_bivariate_cdf(p[i, 0], q[0, j], n)
        assert isinstance(value, float) and value == joint[i, j]


# ---------------------------------------------------------------------------
# sampling


def test_dirichlet_simplex_center_maps_to_five_ninths():
    # equal exponentials normalize to d = 1/n; at n=3 the transform gives
    # u = 1 - (2/3)^2 = 5/9
    u = _sample_dirichlet_copula_batch(2, 3, _FakeRng())
    assert np.allclose(u, 5.0 / 9.0, atol=1e-15)


def _squaring_power(x, k):
    # x^k as the squares x^(2^j) at the set bits of k, multiplied in from the
    # lowest, each product a fresh array
    result, square = None, x
    while k:
        if k & 1:
            result = square if result is None else result * square
        square, k = square * square, k >> 1
    return result


@pytest.mark.parametrize("k", range(1, 14))
def test_int_power_in_place_matches_the_fresh_product(k):
    x = np.random.default_rng(k).random((3, 7))
    ref = _squaring_power(x, k)
    fresh = _int_power(x, k)
    assert np.array_equal(fresh, ref) and fresh is not x
    scratch = np.empty_like(x)
    assert _int_power(x, k, out=x, scratch=scratch) is x and np.array_equal(x, ref)


@pytest.mark.parametrize("n", [2, 3, 4, 10])
def test_dirichlet_batch_is_bit_identical_to_the_row_sum_formula(n):
    # the batch sums each row left to right, which numpy's row sum does below
    # N = 8 only (pairwise from there): the in-order cumsum is the reference,
    # on the same stream, and the power is the repeated-squaring product
    ref_rng, rng = np.random.default_rng(40 + n), np.random.default_rng(40 + n)
    e = ref_rng.standard_exponential((5000, n))
    total = np.cumsum(e, axis=1)[:, -1:]
    ref = np.clip(1 - _squaring_power(1 - e / total, n - 1), CLAMP_EPS, 1 - CLAMP_EPS)
    u = _sample_dirichlet_copula_batch(5000, n, rng)
    # laid out as (N, k) columns, so the categorizations read u.T in place
    assert np.array_equal(u, ref) and u.T.flags.c_contiguous
    assert np.array_equal(rng.random(4), ref_rng.random(4))
    # one draw at a time sums in the same order
    rng = np.random.default_rng(40 + n)
    assert np.array_equal([_sample_dirichlet_copula_batch(1, n, rng)[0] for _ in range(50)], ref[:50])
    # in a caller's work array, refilled in place: the same draws, stream and columns
    rng, work = np.random.default_rng(40 + n), np.full((2, 3000 * n), np.nan)
    first = _sample_dirichlet_copula_batch(3000, n, rng, work)
    assert np.array_equal(first, ref[:3000]) and np.shares_memory(first, work)
    assert np.array_equal(_sample_dirichlet_copula_batch(2000, n, rng, work), ref[3000:])
    ref_rng = np.random.default_rng(40 + n)
    ref_rng.standard_exponential((5000, n))
    assert np.array_equal(rng.random(4), ref_rng.random(4))


def test_dirichlet_n2_is_exact_antithetic_pair():
    rng = np.random.default_rng(0)
    u = _sample_dirichlet_copula_batch(10_000, 2, rng)
    assert np.max(np.abs(u[:, 0] + u[:, 1] - 1.0)) <= 1e-12


def test_gaussian_n2_full_anticorrelation_is_exact_pair():
    rng = np.random.default_rng(0)
    u = _sample_gaussian_copula_batch(10_000, 2, rng)
    assert np.max(np.abs(u[:, 0] + u[:, 1] - 1.0)) <= 1e-12


@pytest.mark.parametrize("n", [3, 50, 99])
def test_gaussian_normal_scores_sum_to_zero(n):
    # at rho = -1/(n-1), Var(sum x_i) = n (1 + (n-1) rho) = 0: every draw's
    # normal scores cancel, to rounding
    from scipy.special import ndtri

    u = _sample_gaussian_copula_batch(20_000, n, np.random.default_rng(n))
    assert np.max(np.abs(ndtri(u).sum(axis=1))) <= 1e-9


def test_draws_are_clamped_strictly_inside_unit_interval():
    rng = np.random.default_rng(1)
    for sample in SAMPLERS:
        u = sample(50_000, 3, rng)
        assert u.min() >= CLAMP_EPS
        assert u.max() <= 1.0 - CLAMP_EPS


def test_unit_samplers_validate_n():
    rng = np.random.default_rng(0)
    for sample in SAMPLERS:
        with pytest.raises(ValueError):
            sample(5, 1, rng)


def test_unit_samplers_return_copula_draws():
    rng = np.random.default_rng(0)
    d = _sample_dirichlet_copula_batch(5, 4, rng)
    g = _sample_gaussian_copula_batch(5, 3, rng)
    assert d.shape == (5, 4) and g.shape == (5, 3)


@pytest.mark.parametrize("sample", SAMPLERS, ids=["dirichlet", "gaussian"])
@pytest.mark.parametrize("n", [2, 3, 5, 10])
def test_marginal_uniformity_ks(sample, n):
    # KS at the 1% level over 1e5 draws, every coordinate
    rng = np.random.default_rng(1234 + n)
    u = sample(100_000, n, rng)
    for coord in range(n):
        assert stats.kstest(u[:, coord], "uniform").pvalue > 0.01


@pytest.mark.parametrize("n", [2, 3])
def test_cdf_consistency_on_grid(n):
    # empirical frequency of {u1 < p, u2 < q} within 4 SE of the closed form
    rng = np.random.default_rng(7)
    draws = 100_000
    u = _sample_dirichlet_copula_batch(draws, n, rng)
    grid = np.arange(0.1, 0.95, 0.1)
    analytic = dirichlet_bivariate_cdf(grid[:, None], grid[None, :], n)
    empirical = np.mean(
        (u[:, 0, None, None] < grid[:, None]) & (u[:, 1, None, None] < grid[None, :]),
        axis=0,
    )
    se = np.sqrt(np.maximum(analytic * (1 - analytic), 1e-12) / draws)
    # structurally-zero cells must stay empty; elsewhere a 4 SE band applies
    zero = analytic == 0.0
    assert np.all(empirical[zero] == 0.0)
    assert np.all(np.abs(empirical - analytic)[~zero] <= 4.0 * se[~zero])


def test_exchangeability_across_coordinate_pairs():
    # the bivariate law must not depend on which coordinate pair is read
    rng = np.random.default_rng(11)
    draws = 100_000
    u = _sample_dirichlet_copula_batch(draws, 4, rng)
    points = [(0.3, 0.3), (0.5, 0.7), (0.8, 0.2)]
    pairs = [(0, 1), (2, 3), (1, 3)]
    for p, q in points:
        freqs = [np.mean((u[:, i] < p) & (u[:, j] < q)) for i, j in pairs]
        ref = dirichlet_bivariate_cdf(p, q, 4)
        se = np.sqrt(ref * (1 - ref) / draws)
        assert max(freqs) - min(freqs) <= 8.0 * se


def test_gaussian_equicorrelation_value():
    # corr(u1, u2) for a Gaussian copula with normal correlation rho is
    # (6/pi) asin(rho/2); check at n = 3, rho = -0.5, within 3 SE
    rng = np.random.default_rng(3)
    draws = 100_000
    u = _sample_gaussian_copula_batch(draws, 3, rng)
    r = np.corrcoef(u[:, 0], u[:, 1])[0, 1]
    expected = (6.0 / np.pi) * np.arcsin(-0.25)
    se = (1 - expected**2) / np.sqrt(draws)
    assert r < 0
    assert abs(r - expected) <= 3.0 * se


# ---------------------------------------------------------------------------
# determinism


def test_same_seed_same_draws():
    for sample in SAMPLERS:
        a = sample(100, 4, np.random.default_rng(99))
        b = sample(100, 4, np.random.default_rng(99))
        assert np.array_equal(a, b)
