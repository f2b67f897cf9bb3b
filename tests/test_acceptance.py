"""Acceptance gates.

Each test emits exactly one line

    ACCEPTANCE <n>: PASS|FAIL <measurements>

and then asserts its gate, so the suite both documents the measured numbers
and fails loudly when a gate does not hold.  The lines are echoed in the
terminal summary (see conftest.py) because capture would otherwise swallow
the passing ones.  Tolerances and runtime budgets are part of the gates.

Gate 10 probes the statistical accuracy of the Gumbel-path estimator over
many trials.  Its ratios come from the exact Gumbel-path pair law (a 2-D
quadrature), so over 10^5 trials the measured mean must stay within the
4-standard-error band; the printed line carries the measured deviation and
clipping frequency.  See the README for the pair law.
"""

import subprocess
import sys
import time

import numpy as np

from carms.estimators import carms, loorf, two_sample_loorf
from carms.experiments import (
    CorrelationConfig,
    ToyConfig,
    make_gradient_estimator,
    run_correlation,
    run_toy,
    toy_objective,
)
from carms.oracle import (
    TabulatedObjective,
    all_orderings,
    bivariate_pmf_matrix,
    bivariate_pmf_one_ordering,
    carms_pair_sum,
    exact_carms_expectation,
    exact_gradient,
    make_ordering,
    mc_estimator_moments,
    softmax,
)
from carms.sampling import (
    _gumbel_categories_batch,
    _inverse_cdf_categories_batch,
    bivariate_pmf_averaged,
    onehot,
)

SEED = 20260817

# three-category worked antithetic coupling for p = (0.6, 0.3, 0.1): the
# published table with its duplicate-pair cell (3, 3) corrected from 0.01 to
# 0.00 so the mass and marginals are consistent
WORKED_P = np.array([0.6, 0.3, 0.1])
WORKED_ANTITHETIC_PMF = np.array(
    [
        [0.30, 0.24, 0.06],
        [0.24, 0.02, 0.04],
        [0.06, 0.04, 0.00],
    ]
)

MARGINAL_TEST_P = {
    2: np.array([0.3, 0.7]),
    3: np.array([0.2, 0.3, 0.5]),
    5: np.array([0.1, 0.15, 0.2, 0.25, 0.3]),
}


# collected by conftest.pytest_terminal_summary for the end-of-run echo
ACCEPTANCE_LINES: list = []


def _line(n: int, ok: bool, detail: str):
    text = f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} {detail}"
    ACCEPTANCE_LINES.append(text)
    print(text, file=sys.__stdout__, flush=True)


def _random_onehot_batch(rng, n, c):
    cats = rng.integers(0, c, size=n)
    return onehot(cats, c), rng.normal(size=n)


def test_criterion_01_unbiasedness_by_enumeration():
    start = time.perf_counter()
    rng = np.random.default_rng(np.random.SeedSequence([SEED, 1]))
    worst = 0.0
    for _ in range(100):
        c = int(rng.integers(2, 6))
        d = int(rng.integers(1, 3))
        n = int(rng.choice([2, 3, 5]))
        phi = rng.normal(size=(d, c))
        f = TabulatedObjective(rng.normal(size=(c,) * d))
        p = softmax(phi)
        pmf = np.stack([bivariate_pmf_averaged(p[k], n) for k in range(d)])
        moments = exact_carms_expectation(f, phi, pmf)
        worst = max(worst, float(np.max(np.abs(moments.mean - exact_gradient(f, phi)))))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed < 120.0
    _line(1, ok, f"100 instances, max coordinate gap {worst:.3e}, {elapsed:.1f}s")
    assert ok


def test_criterion_02_matrix_pair_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(np.random.SeedSequence([SEED, 2]))
    worst_pair = 0.0
    worst_loorf = 0.0
    for _ in range(1000):
        n, c = int(rng.integers(2, 8)), int(rng.integers(2, 6))
        z, f = _random_onehot_batch(rng, n, c)
        p = rng.dirichlet(np.ones(c))
        r = np.exp(rng.normal(size=(c, c)))
        r = 0.5 * (r + r.T)
        ref = carms_pair_sum(f, z, r)
        scale = max(1.0, float(np.max(np.abs(ref))))
        worst_pair = max(worst_pair, float(np.max(np.abs(carms(f, z, r, p) - ref))) / scale)
        gap = np.max(np.abs(carms(f, z, np.ones((c, c)), p) - loorf(f, z, p)))
        worst_loorf = max(worst_loorf, float(gap))
    elapsed = time.perf_counter() - start
    ok = worst_pair <= 1e-12 and worst_loorf <= 1e-13 and elapsed < 30.0
    _line(
        2,
        ok,
        f"1000 instances, pair-sum gap {worst_pair:.3e} rel, "
        f"unit-ratio loorf gap {worst_loorf:.3e}, {elapsed:.1f}s",
    )
    assert ok


def test_criterion_03_pair_decomposition_of_loorf():
    rng = np.random.default_rng(np.random.SeedSequence([SEED, 3]))
    worst = 0.0
    for _ in range(1000):
        n, c = int(rng.integers(2, 8)), int(rng.integers(2, 6))
        z, f = _random_onehot_batch(rng, n, c)
        p = rng.dirichlet(np.ones(c))
        pair_mean = np.zeros(c)
        for a in range(n):
            for b in range(n):
                if a != b:
                    pair_mean += two_sample_loorf(f[a], f[b], z[a], z[b])
        pair_mean /= n * (n - 1)
        worst = max(worst, float(np.max(np.abs(loorf(f, z, p) - pair_mean))))
    ok = worst <= 1e-12
    _line(3, ok, f"1000 instances, max gap {worst:.3e}")
    assert ok


def test_criterion_04_worked_example_dominance():
    phi = np.log(WORKED_P)[None]
    f = TabulatedObjective([1.0, 2.0, 4.0])
    grad = exact_gradient(f, phi)
    anti = exact_carms_expectation(f, phi, WORKED_ANTITHETIC_PMF)
    ind = exact_carms_expectation(f, phi, np.outer(WORKED_P, WORKED_P))
    mean_gap = max(
        float(np.max(np.abs(anti.mean - grad))), float(np.max(np.abs(ind.mean - grad)))
    )
    dominated = bool(np.all(anti.variance <= ind.variance + 1e-12))
    strict = bool(np.any(anti.variance < ind.variance - 1e-12))
    ok = mean_gap <= 1e-10 and dominated and strict
    _line(
        4,
        ok,
        f"mean gap {mean_gap:.3e}, variance dominated={dominated}, strict={strict}",
    )
    assert ok


def test_criterion_05_pmf_validity_and_anchored_positivity():
    rng = np.random.default_rng(np.random.SeedSequence([SEED, 5]))
    worst_mass = 0.0
    worst_row = 0.0
    min_entry = np.inf
    min_anchored = np.inf
    for _ in range(200):
        c = int(rng.integers(2, 7))
        n = int(rng.integers(2, 11))
        p = rng.dirichlet(np.ones(c))
        m = bivariate_pmf_averaged(p, n)
        min_entry = min(min_entry, float(m.min()))
        worst_mass = max(worst_mass, abs(float(m.sum()) - 1.0))
        worst_row = max(worst_row, float(np.max(np.abs(m.sum(axis=1) - p))))
        for i in range(c):
            for j in range(c):
                if i != j:
                    val = bivariate_pmf_one_ordering(p, make_ordering(i, j, c), i, j, n)
                    min_anchored = min(min_anchored, float(val))
    ok = (
        min_entry >= 0.0
        and worst_mass <= 1e-10
        and worst_row <= 1e-10
        and min_anchored > 0.0
    )
    _line(
        5,
        ok,
        f"200 vectors, min entry {min_entry:.3e}, mass gap {worst_mass:.3e}, "
        f"row gap {worst_row:.3e}, min anchored pair {min_anchored:.3e}",
    )
    assert ok


def test_criterion_06_sampler_fidelity(pinned_ordering):
    draws = 100_000
    worst_marginal = 0.0
    worst_pair = 0.0
    zero_cells_clean = True
    for c, p in MARGINAL_TEST_P.items():
        for n in (2, 3, 5):
            for path in ("inverse-cdf", "gumbel"):
                rng = np.random.default_rng(
                    np.random.SeedSequence([SEED, 6, c, n, path == "gumbel"])
                )
                if path == "inverse-cdf":
                    cats = _inverse_cdf_categories_batch(draws, n, p, rng)
                else:
                    cats = _gumbel_categories_batch(draws, n, p, rng)
                # per-draw occupancy has a valid standard error even though
                # the samples inside a draw are coupled
                occupancy = (cats[:, :, None] == np.arange(c)).mean(axis=1)
                mean = occupancy.mean(axis=0)
                se = occupancy.std(axis=0, ddof=1) / np.sqrt(draws)
                dev = np.max(np.abs(mean - p) / np.maximum(se, 1e-12))
                worst_marginal = max(worst_marginal, float(dev))
            # pair law of the first two samples under one fixed ordering
            rng = np.random.default_rng(np.random.SeedSequence([SEED, 6, c, n, 7]))
            o = make_ordering(0, c - 1, c)
            cats = _inverse_cdf_categories_batch(draws, n, p, pinned_ordering(rng, o))
            emp = np.zeros((c, c))
            np.add.at(emp, (cats[:, 0], cats[:, 1]), 1.0)
            emp /= draws
            analytic = bivariate_pmf_matrix(p, o, n)
            live = analytic > 0.0
            zero_cells_clean &= bool(np.all(emp[~live] == 0.0))
            se = np.sqrt(analytic[live] * (1 - analytic[live]) / draws)
            dev = np.max(np.abs(emp[live] - analytic[live]) / se)
            worst_pair = max(worst_pair, float(dev))
    ok = worst_marginal <= 4.0 and worst_pair <= 4.0 and zero_cells_clean
    _line(
        6,
        ok,
        f"10^5 draws per cell: worst marginal dev {worst_marginal:.2f} SE, "
        f"worst pair dev {worst_pair:.2f} SE, impossible cells empty={zero_cells_clean}",
    )
    assert ok


def test_criterion_07_zero_pair_reproduction():
    p = [0.1, 0.2, 0.7]
    val = bivariate_pmf_one_ordering(p, make_ordering(0, 2, 3), 0, 1, 2)
    identity_perm = bool(
        np.array_equal(make_ordering(0, 2, 3).perm, np.arange(3))
    )
    ok = val == 0.0 and identity_perm
    _line(7, ok, f"identity-ordering P(cat 0, cat 1) = {val!r}")
    assert ok


def test_criterion_08_toy_benchmark_ordering():
    start = time.perf_counter()
    config = ToyConfig(
        methods=("carms-i", "loorf"),
        alphas=(1.0, 1000.0),
        categories=3,
        dims=3,
        samples=3,
        trials=100,
        inner=2000,
        seed=SEED,
    )
    cells = {}
    for rec in run_toy(config):
        cells.setdefault((rec["alpha"], rec["trial"]), {})[rec["method"]] = rec[
            "var_sum"
        ]
    wins = {1.0: 0, 1000.0: 0}
    for (alpha, _), methods in cells.items():
        if methods["carms-i"] < methods["loorf"]:
            wins[alpha] += 1
    elapsed = time.perf_counter() - start
    ok = wins[1000.0] >= 90 and elapsed < 300.0
    _line(
        8,
        ok,
        f"carms-i beats loorf {wins[1000.0]}/100 at alpha=1000 "
        f"({wins[1.0]}/100 at alpha=1, not gated), {elapsed:.1f}s",
    )
    assert ok


def test_criterion_09_negative_diagonal_correlation():
    # N = 3 joint samples: the two-sample mirror coupling makes the C = 3
    # uniform diagonal correlation exactly zero (the middle cell maps to
    # itself under u' = 1 - u), so the anticorrelation claim needs N >= 3.
    # The analytic diagonal is asserted alongside the 10^3-draw estimate so
    # the gate carries the structural claim, not a seed.
    worst_emp = -np.inf
    worst_true = -np.inf
    for c in (3, 4):
        p = np.full(c, 1.0 / c)
        m = bivariate_pmf_averaged(p, 3)
        true_diag = (np.diag(m) - p * p) / (p * (1 - p))
        worst_true = max(worst_true, float(np.max(true_diag)))
        rec = run_correlation(
            CorrelationConfig(
                method="inverse-cdf", categories=c, samples=3, draws=1000, seed=SEED
            )
        )
        worst_emp = max(worst_emp, float(np.max(np.diag(rec["corr"]))))
    ok = worst_emp < 0.0 and worst_true < 0.0
    _line(
        9,
        ok,
        f"N=3, C in {{3, 4}}: max analytic diagonal {worst_true:.3f}, "
        f"max measured over 10^3 draws {worst_emp:.3f}",
    )
    assert ok


def test_criterion_10_gumbel_statistical_unbiasedness():
    # near-uniform three categories, ten samples: clipping is rare, so the
    # 4-SE band tests the exact pair-law ratios alone; a ratio taken from a
    # wrong pair law would push the mean outside the band over 10^5 trials
    p = np.array([0.35, 0.33, 0.32])
    f = toy_objective(3, 1)
    grad = exact_gradient(f, np.log(p)[None])
    est = make_gradient_estimator("carms-g", p[None], 10, f, clip=10.0)
    moments = mc_estimator_moments(
        est, 100_000, np.random.default_rng(np.random.SeedSequence([SEED, 10]))
    )
    dev = float(np.max(np.abs(moments.mean - grad) / moments.stderr))
    clip_ok = moments.clip_fraction < 0.01
    ok = dev <= 4.0 and clip_ok
    _line(
        10,
        ok,
        f"mean deviation {dev:.2f} SE over 10^5 trials, "
        f"clip fraction {moments.clip_fraction:.2e} (gate: <=4 SE, clips <1%)",
    )
    assert ok


def test_criterion_11_cli_byte_determinism(tmp_path):
    toy_args = [
        "toy", "--method", "carms-i,carms-g", "--categories", "3", "--dims",
        "2", "--samples", "3", "--alpha", "1.0,100.0", "--trials", "2",
        "--inner", "128", "--seed", str(SEED), "--out-path",
    ]
    corr_args = [
        "correlation", "--method", "gumbel", "--categories", "4", "--trials",
        "2000", "--seed", str(SEED), "--output", "jsonl", "--out-path",
    ]
    identical = True
    for args, name in ((toy_args, "toy"), (corr_args, "corr")):
        out = []
        for tag in ("a", "b"):
            path = tmp_path / f"{name}-{tag}"
            proc = subprocess.run(
                [sys.executable, "-m", "carms", *args, str(path)],
                capture_output=True,
                timeout=300,
            )
            assert proc.returncode == 0, proc.stderr
            out.append(path.read_bytes())
        assert len(out[0]) > 0
        identical &= out[0] == out[1]
    _line(11, identical, "toy csv and correlation jsonl reruns byte-identical")
    assert identical
