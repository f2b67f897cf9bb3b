"""Tests for the enumeration oracles.

The oracles are what the estimators are judged against, so they get their own
independent cross-checks: finite differences against the score identity, and a
hand-rolled pair enumeration against the vectorized one.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import numpy as np
import pytest

import carms.copula
import carms.estimators
import carms.oracle
import carms.sampling
from carms.estimators import loorf
from carms.experiments import make_gradient_estimator, toy_objective
from carms.oracle import (
    ENUMERATION_LIMIT,
    InconsistentDistributionError,
    TabulatedObjective,
    arms_binary,
    bernoulli_pair_correlation,
    exact_carms_expectation,
    exact_gradient,
    expected_value,
    finite_difference_gradient,
    mc_estimator_moments,
    softmax,
)
from carms.sampling import bivariate_pmf_averaged, onehot
from carms.selfcheck import WORKED_P


def _independent_pmf(p):
    return np.outer(p, p)


# ---------------------------------------------------------------------------
# softmax, objective table


def test_softmax_rows_and_shift_invariance():
    phi = np.array([[0.0, 1.0, -2.0], [3.0, 3.0, 3.0]])
    p = softmax(phi)
    assert np.allclose(p.sum(axis=1), 1.0, atol=1e-15)
    assert np.allclose(softmax(phi + 100.0), p, atol=1e-12)
    assert np.allclose(p[1], 1.0 / 3.0, atol=1e-15)


def test_tabulated_objective_validation_and_lookup():
    with pytest.raises(ValueError):
        TabulatedObjective(np.zeros(()))
    with pytest.raises(ValueError):
        TabulatedObjective(np.zeros((3, 2)))  # not (C,)*D
    with pytest.raises(ValueError):
        TabulatedObjective([1.0])  # C >= 2
    with pytest.raises(ValueError):
        TabulatedObjective([1.0, np.inf])
    f = TabulatedObjective(np.arange(9.0).reshape(3, 3))
    assert f.dims == 2 and f.n_categories == 3
    assert f.value([1, 2]) == 5.0
    assert np.array_equal(f.values_at(np.array([[0, 0], [2, 1]])), [0.0, 7.0])


def test_tabulated_objective_from_function():
    f = TabulatedObjective.from_function(lambda a: float(a[0] * 10 + a[1]), 3, 2)
    assert f.table[2, 1] == 21.0


# ---------------------------------------------------------------------------
# exact gradient


def test_exact_gradient_frozen_binary():
    f = TabulatedObjective([1.0, 0.0])
    g = exact_gradient(f, np.zeros((1, 2)))
    assert np.allclose(g, [[0.25, -0.25]], atol=1e-15)


def test_exact_gradient_constant_objective_is_zero():
    f = TabulatedObjective(np.full((3, 3), 2.5))
    g = exact_gradient(f, np.array([[0.1, -0.2, 0.3], [1.0, 0.0, -1.0]]))
    assert np.max(np.abs(g)) <= 1e-14


def test_exact_gradient_matches_finite_differences():
    rng = np.random.default_rng(0)
    for _ in range(50):
        c = int(rng.integers(2, 6))
        d = int(rng.integers(1, 4))
        f = TabulatedObjective(rng.normal(size=(c,) * d))
        phi = rng.normal(size=(d, c))
        g = exact_gradient(f, phi)
        fd = finite_difference_gradient(f, phi, step=1e-5)
        assert np.max(np.abs(g - fd)) <= 1e-6


def test_expected_value_frozen():
    f = TabulatedObjective([[0.0, 1.0], [2.0, 3.0]])
    # uniform over 4 assignments
    assert expected_value(f, np.zeros((2, 2))) == pytest.approx(1.5, abs=1e-14)


def test_enumeration_limits_enforced():
    c = 101
    f = TabulatedObjective(np.zeros((c,) * 3))
    assert c**3 > ENUMERATION_LIMIT
    with pytest.raises(ValueError):
        exact_gradient(f, np.zeros((3, c)))
    # pair enumeration squares the exponent, so it trips earlier
    f2 = TabulatedObjective(np.zeros((11,) * 3))
    pmf = np.broadcast_to(np.full((11, 11), 1 / 121), (3, 11, 11))
    with pytest.raises(ValueError):
        exact_carms_expectation(f2, np.zeros((3, 11)), pmf)


def test_objective_logit_shape_mismatch():
    f = TabulatedObjective([1.0, 0.0])
    with pytest.raises(ValueError):
        exact_gradient(f, np.zeros((1, 3)))
    with pytest.raises(ValueError):
        exact_gradient(f, np.zeros((2, 2)))


# ---------------------------------------------------------------------------
# exact pair-estimator moments


def test_independent_pairs_mean_equals_gradient():
    rng = np.random.default_rng(1)
    for _ in range(40):
        c = int(rng.integers(2, 5))
        d = int(rng.integers(1, 3))
        phi = rng.normal(size=(d, c))
        p = softmax(phi)
        f = TabulatedObjective(rng.normal(size=(c,) * d))
        pmf = np.stack([_independent_pmf(p[k]) for k in range(d)])
        moments = exact_carms_expectation(f, phi, pmf)
        assert np.max(np.abs(moments.mean - exact_gradient(f, phi))) <= 1e-10


def test_any_consistent_coupling_keeps_the_mean():
    # symmetric, marginal-preserving perturbations of the independent coupling
    # leave the debiased mean untouched as long as no off-diagonal support
    # is destroyed
    rng = np.random.default_rng(2)
    for _ in range(100):
        c = int(rng.integers(2, 5))
        p = rng.dirichlet(np.ones(c) * 3.0)
        phi = np.log(p)[None]
        base = _independent_pmf(p)
        # symmetric zero-row-sum noise: a weighted sum of (e_i - e_j)(e_i - e_j)^T
        noise = np.zeros((c, c))
        for i in range(c):
            for j in range(i + 1, c):
                e = np.zeros(c)
                e[i], e[j] = 1.0, -1.0
                noise += rng.normal() * np.outer(e, e)
        # keep every entry strictly positive
        scale = 0.4 * base.min() / max(np.abs(noise).max(), 1e-12)
        pmf = base + scale * noise
        assert pmf.min() > 0.0
        assert np.max(np.abs(pmf.sum(axis=1) - p)) <= 1e-12
        f = TabulatedObjective(rng.normal(size=c))
        moments = exact_carms_expectation(f, phi, pmf)
        assert np.max(np.abs(moments.mean - exact_gradient(f, phi))) <= 1e-10


def test_antithetic_coupling_mean_and_variance_dominance():
    # the worked three-category distribution: exact mean, and the antithetic
    # pair law beats independent pairs coordinatewise on variance
    phi = np.log(WORKED_P)[None]
    f = TabulatedObjective([1.0, 2.0, 4.0])
    anti = exact_carms_expectation(f, phi, bivariate_pmf_averaged(WORKED_P, 2))
    ind = exact_carms_expectation(f, phi, _independent_pmf(WORKED_P))
    g = exact_gradient(f, phi)
    assert np.max(np.abs(anti.mean - g)) <= 1e-10
    assert np.max(np.abs(ind.mean - g)) <= 1e-10
    assert np.all(anti.variance <= ind.variance + 1e-12)
    assert np.any(anti.variance < ind.variance - 1e-6)


def test_moments_against_hand_rolled_enumeration():
    # independent check of the vectorized pair sweep on a tiny instance
    p = np.array([0.3, 0.7])
    phi = np.log(p)[None]
    f = TabulatedObjective([2.0, -1.0])
    pmf = bivariate_pmf_averaged(p, 2)
    moments = exact_carms_expectation(f, phi, pmf)
    mean = np.zeros(2)
    second = np.zeros(2)
    for i in range(2):
        for j in range(2):
            q = pmf[i, j]
            if q == 0.0:
                continue
            r = p[i] * p[j] / q
            e = np.zeros(2)
            e[i] += 1.0
            e[j] -= 1.0
            g = 0.5 * (f.table[i] - f.table[j]) * e * r
            mean += q * g
            second += q * g * g
    assert np.max(np.abs(moments.mean - mean)) <= 1e-14
    assert np.max(np.abs(moments.variance - (second - mean**2))) <= 1e-14


def test_multivariate_coupled_mean_equals_gradient():
    rng = np.random.default_rng(3)
    c, d = 3, 2
    phi = rng.normal(size=(d, c))
    p = softmax(phi)
    f = TabulatedObjective(rng.normal(size=(c,) * d))
    pmf = np.stack([bivariate_pmf_averaged(p[k], 2) for k in range(d)])
    moments = exact_carms_expectation(f, phi, pmf)
    assert np.max(np.abs(moments.mean - exact_gradient(f, phi))) <= 1e-10


def test_constant_objective_has_zero_mean_and_variance():
    p = np.array([0.5, 0.5])
    f = TabulatedObjective([3.0, 3.0])
    moments = exact_carms_expectation(f, np.log(p)[None], _independent_pmf(p))
    assert np.max(np.abs(moments.mean)) <= 1e-14
    assert np.max(np.abs(moments.variance)) <= 1e-14


def test_marginal_mismatch_raises():
    p = np.array([0.3, 0.7])
    f = TabulatedObjective([1.0, 0.0])
    bad = _independent_pmf(np.array([0.5, 0.5]))
    with pytest.raises(InconsistentDistributionError):
        exact_carms_expectation(f, np.log(p)[None], bad)


def test_pair_pmf_shape_and_sign_validation():
    p = np.array([0.5, 0.5])
    f = TabulatedObjective([1.0, 0.0])
    with pytest.raises(ValueError):
        exact_carms_expectation(f, np.log(p)[None], np.full((3, 3), 1 / 9))
    with pytest.raises(ValueError):
        exact_carms_expectation(f, np.log(p)[None], np.array([[0.5, -0.25], [0.25, 0.5]]))


def test_chunked_sweep_is_chunk_size_invariant():
    rng = np.random.default_rng(4)
    phi = rng.normal(size=(2, 3))
    f = TabulatedObjective(rng.normal(size=(3, 3)))
    pmf = np.stack([_independent_pmf(softmax(phi)[k]) for k in range(2)])
    a = exact_carms_expectation(f, phi, pmf, chunk_size=7)
    b = exact_carms_expectation(f, phi, pmf, chunk_size=100_000)
    assert np.max(np.abs(a.mean - b.mean)) <= 1e-14
    assert np.max(np.abs(a.variance - b.variance)) <= 1e-14


# ---------------------------------------------------------------------------
# Monte Carlo moments


def test_mc_moments_recover_loorf_mean():
    p = np.array([0.2, 0.5, 0.3])
    table = np.array([1.0, -0.5, 2.0])
    f = TabulatedObjective(table)
    grad = exact_gradient(f, np.log(p)[None])[0]

    def estimate(rng, k):
        cats = rng.choice(3, size=(k, 4), p=p)
        out = np.empty((k, 3))
        for t in range(k):
            out[t] = loorf(table[cats[t]], onehot(cats[t], 3), p)
        return out, None

    moments = mc_estimator_moments(estimate, 3000, np.random.default_rng(5))
    assert moments.trials == 3000
    assert moments.clip_fraction == 0.0
    dev = np.abs(moments.mean - grad) / moments.stderr
    assert np.max(dev) <= 4.0


def test_mc_moments_constant_estimator():
    def estimate(rng, k):
        return np.full((k, 2), 1.5), None

    moments = mc_estimator_moments(estimate, 100, np.random.default_rng(6))
    assert np.array_equal(moments.mean, [1.5, 1.5])
    assert np.max(moments.variance) <= 1e-12
    assert np.max(moments.stderr) <= 1e-7


def test_mc_moments_counts_clipped_trials():
    def estimate(rng, k):
        return np.zeros((k, 1)), np.arange(k) % 2 == 0

    moments = mc_estimator_moments(estimate, 1000, np.random.default_rng(7))
    assert moments.clip_fraction == pytest.approx(0.5, abs=1e-12)


def test_mc_moments_validation():
    def estimate(rng, k):
        return np.zeros((k + 1, 1)), None

    with pytest.raises(ValueError):
        mc_estimator_moments(estimate, 1, np.random.default_rng(8))
    with pytest.raises(ValueError):
        mc_estimator_moments(estimate, 10, np.random.default_rng(8))


def test_mc_moments_chunking_matches_single_pass():
    def estimate(rng, k):
        return rng.normal(size=(k, 2)), None

    a = mc_estimator_moments(estimate, 500, np.random.default_rng(9), chunk_size=33)
    b = mc_estimator_moments(estimate, 500, np.random.default_rng(9), chunk_size=500)
    assert np.max(np.abs(a.mean - b.mean)) <= 1e-12
    assert np.max(np.abs(a.variance - b.variance)) <= 1e-12


def test_mc_moments_variance_survives_a_large_offset():
    # the one-pass rule (sum x^2 - n mean^2) / (n - 1) loses every digit of a
    # unit variance under a 1e8 offset; chunks of 777 also exercise the merge
    def estimate(rng, k):
        return 1e8 + rng.normal(size=(k, 3)), None

    moments = mc_estimator_moments(estimate, 5000, np.random.default_rng(31), chunk_size=777)
    draws = estimate(np.random.default_rng(31), 5000)[0] - 1e8
    reference = draws.var(axis=0, ddof=1)
    assert np.max(np.abs(moments.variance / reference - 1.0)) <= 1e-6
    assert np.max(np.abs(moments.mean - 1e8 - draws.mean(axis=0))) <= 1e-6


def test_mc_moments_one_chunk_is_numpys_variance():
    # one chunk takes numpy's two-pass variance, the rule run_toy uses
    p = np.array([[0.5, 0.3, 0.2], [0.1, 0.6, 0.3]])
    est = make_gradient_estimator("carms-i", p, 4, toy_objective(3, 2))
    moments = mc_estimator_moments(est, 3000, np.random.default_rng(32))
    estimates = est(np.random.default_rng(32), 3000)[0]
    assert np.array_equal(moments.variance, estimates.var(axis=0, ddof=1))


# ---------------------------------------------------------------------------
# arms and its copula pair correlation


def test_arms_binary_frozen_perfect_antithesis():
    g = arms_binary([1.0, 0.0], [[1.0], [0.0]], [0.5], -1.0)
    assert np.allclose(g, [0.25], atol=1e-15)


def test_arms_binary_zero_rho_equals_binary_loorf():
    rng = np.random.default_rng(12)
    for _ in range(50):
        n = int(rng.integers(2, 8))
        p0 = float(rng.uniform(0.1, 0.9))
        b = rng.integers(0, 2, size=(n, 1)).astype(float)
        f = rng.normal(size=n)
        z = np.column_stack([b[:, 0], 1 - b[:, 0]])
        g = arms_binary(f, b, [p0], 0.0)
        assert abs(g[0] - loorf(f, z, [p0, 1 - p0])[0]) <= 1e-12


def test_arms_binary_validation():
    f, b = [1.0, 0.0], [[1.0], [0.0]]
    with pytest.raises(ValueError):
        arms_binary(f, b, [0.5], 1.0)  # rho must stay below 1
    with pytest.raises(ValueError):
        arms_binary(f, b, [0.0], 0.0)  # degenerate probability
    with pytest.raises(ValueError):
        arms_binary(f, [[0.5], [0.0]], [0.5], 0.0)  # non-binary entries
    with pytest.raises(ValueError):
        arms_binary([1.0], [[1.0]], [0.5], 0.0)  # N >= 2
    # a nan passed both range checks and came back as a nan gradient
    f2, b2 = [1.0, 0.0], [[1.0, 0.0], [0.0, 1.0]]
    for p, rho in (([np.nan, 0.5], 0.0), ([0.5, 0.5], np.nan), ([0.5, 0.5], [0.0, -np.inf])):
        with pytest.raises(ValueError, match="finite|strictly inside"):
            arms_binary(f2, b2, p, rho)


def test_arms_binary_broadcasts_scalar_rho():
    rng = np.random.default_rng(13)
    b = rng.integers(0, 2, size=(4, 3)).astype(float)
    f = rng.normal(size=4)
    p = [0.3, 0.5, 0.7]
    assert np.array_equal(
        arms_binary(f, b, p, -0.2), arms_binary(f, b, p, [-0.2, -0.2, -0.2])
    )


def test_bernoulli_pair_correlation_frozen_values():
    assert bernoulli_pair_correlation(0.5, 2) == pytest.approx(-1.0, abs=1e-12)
    assert bernoulli_pair_correlation(0.9, 2) == pytest.approx(-1.0 / 9.0, abs=1e-12)


def test_bernoulli_pair_correlation_range_and_errors():
    for n in (2, 3, 5, 8):
        for p in np.linspace(0.02, 0.98, 25):
            rho = bernoulli_pair_correlation(float(p), n)
            assert -1.0 - 1e-12 <= rho <= 0.0
    for bad in (0.0, 1.0, -0.2, np.nan):
        with pytest.raises(ValueError):
            bernoulli_pair_correlation(bad, 2)
    for bad_n in (1, 2.0, True):
        with pytest.raises(ValueError):
            bernoulli_pair_correlation(0.5, bad_n)


# ---------------------------------------------------------------------------
# independence of the references


MOVED_REFERENCES = (
    "Ordering", "make_ordering", "all_orderings", "bivariate_pmf_one_ordering",
    "bivariate_pmf_matrix", "carms_pair_sum", "loorf_matrix_form",
    "arms_binary", "bernoulli_pair_correlation",
)
# the deleted one-pair and single-sample estimators, which no module may keep
DELETED_NAMES = ("carts", "two_sample_loorf", "reinforce_single", "_as_onehot_row")
# the library kernels and checks that a reference computing through them would name
KERNEL_NAMES = {
    "_cell_edges", "_rectangle_mass", "_dirichlet_cdf", "_dirichlet_cdf_exact_edges",
    "_anchored_inverse", "as_probs", "carts",
}


def test_the_oracles_import_nothing_from_the_library():
    # a reference that shares a kernel with what it judges cancels the same
    # way, so the oracles take nothing from carms, and the references that
    # moved here are not left behind as re-exports
    tree = ast.parse((Path(__file__).parents[1] / "src/carms/oracle.py").read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            assert node.level == 0, f"relative import at line {node.lineno}"
            assert node.module.split(".")[0] != "carms", node.module
        elif isinstance(node, ast.Import):
            assert all(alias.name.split(".")[0] != "carms" for alias in node.names)
        elif isinstance(node, (ast.Name, ast.Attribute)):
            assert getattr(node, "id", getattr(node, "attr", None)) not in KERNEL_NAMES
    judged = (carms.sampling, carms.estimators, carms.copula)
    for name in MOVED_REFERENCES:
        assert hasattr(carms.oracle, name), name
        assert not any(hasattr(module, name) for module in judged), name
    modules = [
        importlib.import_module(f"carms.{info.name}")
        for info in pkgutil.iter_modules(carms.__path__)
        if info.name != "__main__"
    ]
    for name in DELETED_NAMES:
        assert not any(hasattr(module, name) for module in modules), name
