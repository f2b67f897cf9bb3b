"""Built-in consistency checks runnable from the CLI.

Fast checks are pure algebra and enumeration (a few seconds); the full level
adds statistical checks on the samplers and estimators.  Every check derives
its stream from the given seed, so a report is reproducible byte for byte.

Each claim has one check here.  A check's size is a keyword argument whose
default is the selfcheck's; the acceptance gates in tests/test_acceptance.py
call the same checks, with the same bounds, at their own sizes and seeds.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .copula import _sample_dirichlet_copula_batch
from .estimators import carms, loorf
from .experiments import _empirical_joint_batch, make_gradient_estimator
from .oracle import (
    TabulatedObjective,
    bivariate_pmf_one_ordering,
    carms_pair_sum,
    exact_carms_expectation,
    exact_gradient,
    loorf_matrix_form,
    make_ordering,
    mc_estimator_moments,
)
from .sampling import (
    _gumbel_categories_batch,
    _inverse_cdf_categories_batch,
    bivariate_pmf_averaged,
    gumbel_pair_pmf,
    onehot,
)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _random_onehot(rng, n, c):
    return onehot(rng.integers(0, c, size=n), c)


def _check_loorf_matrix_equivalence(rng, cases=100) -> CheckResult:
    worst = 0.0
    for _ in range(cases):
        n = int(rng.integers(2, 9))
        c = int(rng.integers(2, 7))
        f = rng.normal(size=n)
        z = _random_onehot(rng, n, c)
        p = rng.dirichlet(np.ones(c))
        ref = loorf(f, z, p)
        worst = max(worst, float(np.max(np.abs(loorf_matrix_form(f, z, p) - ref))))
        worst = max(worst, float(np.max(np.abs(carms(f, z, np.ones((c, c)), p) - ref))))
    return CheckResult(
        "loorf-matrix-equivalence", worst <= 1e-13, f"max absolute gap {worst:.3e}"
    )


def _check_carms_pair_identity(rng, cases=100) -> CheckResult:
    # the gap relative to the reference's largest entry, floored at 1
    worst = 0.0
    for _ in range(cases):
        n = int(rng.integers(2, 8))
        c = int(rng.integers(2, 6))
        f = rng.normal(size=n)
        z = _random_onehot(rng, n, c)
        p = rng.dirichlet(np.ones(c))
        base = rng.uniform(0.1, 3.0, size=(c, c))
        ratios = (base + base.T) / 2
        ref = carms_pair_sum(f, z, ratios)
        gap = np.max(np.abs(carms(f, z, ratios, p) - ref)) / max(1.0, np.max(np.abs(ref)))
        worst = max(worst, float(gap))
    return CheckResult(
        "carms-pair-identity", worst <= 1e-12, f"max relative gap {worst:.3e}"
    )


def _random_law(rng):
    """(p, n): p from Dirichlet(1, ..., 1) over 2 to 6 categories, 2 to 10 samples."""
    c = int(rng.integers(2, 7))
    n = int(rng.integers(2, 11))
    return rng.dirichlet(np.ones(c)), n


def _check_pmf_validity(rng, cases=30) -> CheckResult:
    worst_mass = 0.0
    worst_row = 0.0
    anchored_ok = True
    for _ in range(cases):
        p, n = _random_law(rng)
        c = p.size
        pmf = bivariate_pmf_averaged(p, n)
        if np.any(pmf < 0.0):
            return CheckResult("pmf-validity", False, "negative entry")
        worst_mass = max(worst_mass, abs(float(pmf.sum()) - 1.0))
        worst_row = max(worst_row, float(np.max(np.abs(pmf.sum(axis=1) - p))))
        off = pmf[~np.eye(c, dtype=bool)]
        anchored_ok &= bool(np.all(off > 0.0))
    ok = worst_mass <= 1e-10 and worst_row <= 1e-10 and anchored_ok
    return CheckResult(
        "pmf-validity",
        ok,
        f"mass gap {worst_mass:.3e}, row gap {worst_row:.3e}, "
        f"off-diagonals positive: {anchored_ok}",
    )


def _check_unbiasedness_enumeration(rng, cases=20, max_c=4) -> CheckResult:
    worst = 0.0
    for _ in range(cases):
        c = int(rng.integers(2, max_c + 1))
        d = int(rng.integers(1, 3))
        n = int(rng.choice([2, 3, 5]))
        phi = rng.normal(scale=1.0, size=(d, c))
        f = TabulatedObjective(rng.normal(size=(c,) * d))
        p = np.exp(phi - phi.max(axis=1, keepdims=True))
        p /= p.sum(axis=1, keepdims=True)
        pmf = np.stack([bivariate_pmf_averaged(p[dim], n) for dim in range(d)])
        moments = exact_carms_expectation(f, phi, pmf)
        worst = max(worst, float(np.max(np.abs(moments.mean - exact_gradient(f, phi)))))
    return CheckResult(
        "unbiasedness-enumeration", worst <= 1e-9, f"max coordinate gap {worst:.3e}"
    )


def _check_unbiasedness_enumeration_wide(rng) -> CheckResult:
    wide = _check_unbiasedness_enumeration(rng, cases=60, max_c=5)
    return replace(wide, name="unbiasedness-enumeration-wide")


# The worked coupling of three categories for p = (0.6, 0.3, 0.1): the published
# table with its cell (3, 3) corrected from 0.01 to 0.00, so that mass and
# marginals agree.  Its off-diagonals all dominate the independent p_i p_j.
WORKED_P = np.array([0.6, 0.3, 0.1])
WORKED_ANTITHETIC_PMF = np.array(
    [
        [0.30, 0.24, 0.06],
        [0.24, 0.02, 0.04],
        [0.06, 0.04, 0.00],
    ]
)


def _check_antithetic_variance_dominance(_rng) -> CheckResult:
    f = TabulatedObjective(np.array([1.0, 2.0, 4.0]))
    phi = np.log(WORKED_P)[None, :]
    grad = exact_gradient(f, phi)
    anti = exact_carms_expectation(f, phi, WORKED_ANTITHETIC_PMF)
    indep = exact_carms_expectation(f, phi, np.outer(WORKED_P, WORKED_P))
    mean_gap = max(
        float(np.max(np.abs(anti.mean - grad))), float(np.max(np.abs(indep.mean - grad)))
    )
    dominated = bool(np.all(anti.variance <= indep.variance + 1e-12))
    strict = bool(np.any(anti.variance < indep.variance - 1e-12))
    return CheckResult(
        "antithetic-variance-dominance",
        mean_gap <= 1e-10 and dominated and strict,
        f"mean gap {mean_gap:.3e}, dominated={dominated}, strict={strict}",
    )


def _check_impossible_pair(_rng) -> CheckResult:
    p = np.array([0.1, 0.2, 0.7])
    val = bivariate_pmf_one_ordering(p, make_ordering(0, 2, 3), 0, 1, 2)
    return CheckResult(
        "impossible-pair", val == 0.0, f"P(1, 2) under the identity ordering = {val!r}"
    )


def _check_copula_uniformity(rng) -> CheckResult:
    # imported here: scipy.stats takes about 0.5 s to import, which every
    # CLI command would pay for this one check
    from scipy import stats

    # one KS test per coordinate, 2 + 5 in all; Sidak's per-test bound holds
    # the chance that any of them fails on a uniform copula to 1e-3
    bound = 1.0 - (1.0 - 1e-3) ** (1.0 / 7)
    worst_p = 1.0
    for n in (2, 5):
        u = _sample_dirichlet_copula_batch(50_000, n, rng)
        for coord in range(n):
            worst_p = min(worst_p, stats.kstest(u[:, coord], "uniform").pvalue)
    return CheckResult(
        "copula-uniformity",
        bool(worst_p > bound),
        f"min KS p-value {worst_p:.3e} of 7, bound {bound:.3e}",
    )


def _check_sampler_marginals(rng, draws=20_000, cells=((3, 3), (5, 5))) -> CheckResult:
    # the occupancy of each draw, the mean over its samples, uses every sample
    # and has a valid standard error although the samples of a draw are coupled
    worst = 0.0
    for c, n in cells:
        p = rng.dirichlet(np.full(c, 5.0))
        for draw in (_inverse_cdf_categories_batch, _gumbel_categories_batch):
            cats = draw(draws, n, p, rng)
            occupancy = (cats[:, :, None] == np.arange(c)).mean(axis=1)
            se = np.maximum(occupancy.std(axis=0, ddof=1) / np.sqrt(draws), 1e-12)
            worst = max(worst, float(np.max(np.abs(occupancy.mean(axis=0) - p) / se)))
    return CheckResult(
        "sampler-marginals", worst <= 4.0, f"max marginal deviation {worst:.2f} SE"
    )


def _check_sampler_pair_laws(rng) -> CheckResult:
    # each path's exact pair law against the pair frequencies of its draws,
    # all ordered sample pairs pooled; pairs of one draw are correlated, so
    # the standard error comes from the spread over draws
    worst = 0.0
    draws = 20_000
    paths = ((_inverse_cdf_categories_batch, bivariate_pmf_averaged),
             (_gumbel_categories_batch, gumbel_pair_pmf))
    for c, n in ((3, 3), (4, 5)):
        p = rng.dirichlet(np.full(c, 5.0))
        for draw, pair_law in paths:
            cats = draw(draws, n, p, rng)
            joint = _empirical_joint_batch(np.eye(c)[cats].sum(axis=1), n)
            se = np.maximum(joint.std(axis=0) / np.sqrt(draws), 1.0 / draws)
            worst = max(worst, float(np.max(np.abs(joint.mean(axis=0) - pair_law(p, n)) / se)))
    return CheckResult(
        "sampler-pair-laws", worst <= 4.0, f"max pair-law deviation {worst:.2f} SE"
    )


def _check_estimator_unbiasedness_mc(rng, trials=20_000) -> CheckResult:
    # Both carms paths use exact pair laws, so both are exactly unbiased
    # (up to quadrature error on the Gumbel path) and get many trials.  Rare
    # clipping keeps the band a test of the ratios alone.
    f = TabulatedObjective(np.array([0.5, -1.0, 2.0]))
    worst = 0.0
    clipped = 0.0
    cases = (
        ("carms-i", np.array([[0.5, 0.3, 0.2]]), 5),
        ("carms-g", np.array([[0.35, 0.33, 0.32]]), 10),
    )
    for method, p, n in cases:
        grad = exact_gradient(f, np.log(p))
        est = make_gradient_estimator(method, p, n, f, clip=10.0)
        moments = mc_estimator_moments(est, trials, rng)
        worst = max(worst, float(np.max(np.abs(moments.mean - grad) / moments.stderr)))
        clipped = max(clipped, moments.clip_fraction)
    return CheckResult(
        "estimator-unbiasedness-mc",
        worst <= 4.0 and clipped < 0.01,
        f"max mean deviation {worst:.2f} SE, max clip fraction {clipped:.2e}",
    )


_FAST_CHECKS = (
    _check_loorf_matrix_equivalence,
    _check_carms_pair_identity,
    _check_pmf_validity,
    _check_unbiasedness_enumeration,
    _check_antithetic_variance_dominance,
    _check_impossible_pair,
)

_FULL_EXTRA_CHECKS = (
    _check_copula_uniformity,
    _check_sampler_marginals,
    _check_estimator_unbiasedness_mc,
    _check_sampler_pair_laws,
    _check_unbiasedness_enumeration_wide,
)


def run_selfcheck(level: str = "fast", seed: int = 0) -> list[CheckResult]:
    """Run the named check suite; 'full' includes the statistical checks."""
    if level not in ("fast", "full"):
        raise ValueError(f"level must be 'fast' or 'full', got {level!r}")
    checks = _FAST_CHECKS + (_FULL_EXTRA_CHECKS if level == "full" else ())
    results = []
    for index, check in enumerate(checks):
        rng = np.random.default_rng(np.random.SeedSequence([int(seed), index]))
        results.append(check(rng))
    return results
