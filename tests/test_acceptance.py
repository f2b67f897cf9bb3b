"""Acceptance gates.

Each test emits exactly one line

    ACCEPTANCE <n>: PASS|FAIL <measurements>

and then asserts its gate, so the suite both documents the measured numbers
and fails loudly when a gate does not hold.  The lines are echoed in the
terminal summary (see conftest.py) because capture would otherwise swallow
the passing ones.  Tolerances and runtime budgets are part of the gates.

Gates 1, 2, 4, 5, 6 (its marginal half), 7 and 10 run the checks of
`carms selfcheck` (carms.selfcheck) at their own sizes and seeds, with the
checks' bounds, so each claim is checked by one function.  A gate's line
carries the check's detail and whatever the gate measures beyond it.

Gate 10 probes the statistical accuracy of both carms estimators over many
trials.  Their ratios come from exact pair laws (a 2-D quadrature on the
Gumbel path), so over 10^5 trials the measured mean must stay within the
4-standard-error band; the printed line carries the measured deviation and
clipping frequency.  See the README for the pair laws.
"""

import itertools
import subprocess
import sys
import time

import numpy as np

from carms.estimators import loorf
from carms.experiments import CorrelationConfig, ToyConfig, run_correlation, run_toy
from carms.oracle import bivariate_pmf_matrix, bivariate_pmf_one_ordering, make_ordering
from carms.sampling import _inverse_cdf_categories_batch, bivariate_pmf_averaged, onehot
from carms.selfcheck import (
    _check_antithetic_variance_dominance,
    _check_carms_pair_identity,
    _check_estimator_unbiasedness_mc,
    _check_impossible_pair,
    _check_loorf_matrix_equivalence,
    _check_pmf_validity,
    _check_sampler_marginals,
    _check_unbiasedness_enumeration,
    _random_law,
)

SEED = 20260817

PAIR_TEST_P = {
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


def _rng(gate: int):
    return np.random.default_rng(np.random.SeedSequence([SEED, gate]))


def test_criterion_01_unbiasedness_by_enumeration():
    start = time.perf_counter()
    result = _check_unbiasedness_enumeration(_rng(1), cases=100, max_c=5)
    elapsed = time.perf_counter() - start
    ok = result.passed and elapsed < 120.0
    _line(1, ok, f"100 instances, {result.detail}, {elapsed:.1f}s")
    assert ok


def test_criterion_02_matrix_pair_equivalence():
    start = time.perf_counter()
    rng = _rng(2)
    pair_sum = _check_carms_pair_identity(rng, cases=1000)
    unit_ratio = _check_loorf_matrix_equivalence(rng, cases=1000)
    elapsed = time.perf_counter() - start
    ok = pair_sum.passed and unit_ratio.passed and elapsed < 30.0
    _line(
        2,
        ok,
        f"1000 instances each, pair sum: {pair_sum.detail}, "
        f"unit-ratio and matrix-form loorf: {unit_ratio.detail}, {elapsed:.1f}s",
    )
    assert ok


def test_criterion_03_pair_decomposition_of_loorf():
    rng = _rng(3)
    worst = 0.0
    for _ in range(1000):
        n, c = int(rng.integers(2, 8)), int(rng.integers(2, 6))
        z = onehot(rng.integers(0, c, size=n), c)
        f = rng.normal(size=n)
        p = rng.dirichlet(np.ones(c))
        pair_mean = np.zeros(c)
        for a in range(n):
            for b in range(n):
                if a != b:
                    pair_mean += 0.5 * (f[a] - f[b]) * (z[a] - z[b])
        pair_mean /= n * (n - 1)
        worst = max(worst, float(np.max(np.abs(loorf(f, z, p) - pair_mean))))
    ok = worst <= 1e-12
    _line(3, ok, f"1000 instances, max gap {worst:.3e}")
    assert ok


def test_criterion_04_worked_example_dominance():
    result = _check_antithetic_variance_dominance(None)
    _line(4, result.passed, f"worked p = (0.6, 0.3, 0.1): {result.detail}")
    assert result.passed


def test_criterion_05_pmf_validity_and_anchored_positivity():
    result = _check_pmf_validity(_rng(5), cases=200)
    # the check's 200 vectors again, for what it does not print: the smallest
    # entry, and the mass each anchored ordering puts on its own pair
    rng = _rng(5)
    min_entry = np.inf
    min_anchored = np.inf
    for _ in range(200):
        p, n = _random_law(rng)
        min_entry = min(min_entry, float(bivariate_pmf_averaged(p, n).min()))
        for i, j in itertools.permutations(range(p.size), 2):
            val = bivariate_pmf_one_ordering(p, make_ordering(i, j, p.size), i, j, n)
            min_anchored = min(min_anchored, float(val))
    ok = result.passed and min_entry >= 0.0 and min_anchored > 0.0
    _line(
        5,
        ok,
        f"200 vectors, min entry {min_entry:.3e}, {result.detail}, "
        f"min anchored pair {min_anchored:.3e}",
    )
    assert ok


def test_criterion_06_sampler_fidelity(pinned_ordering):
    draws = 100_000
    cells = [(c, n) for c in PAIR_TEST_P for n in (2, 3, 5)]
    marginals = _check_sampler_marginals(_rng(6), draws=draws, cells=cells)
    worst_pair = 0.0
    zero_cells_clean = True
    for c, n in cells:
        # pair law of the first two samples under one fixed ordering
        p = PAIR_TEST_P[c]
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
    ok = marginals.passed and worst_pair <= 4.0 and zero_cells_clean
    _line(
        6,
        ok,
        f"10^5 draws per cell, both paths: {marginals.detail}, "
        f"worst pinned-ordering pair dev {worst_pair:.2f} SE, "
        f"impossible cells empty={zero_cells_clean}",
    )
    assert ok


def test_criterion_07_zero_pair_reproduction():
    result = _check_impossible_pair(None)
    identity_perm = bool(np.array_equal(make_ordering(0, 2, 3).perm, np.arange(3)))
    ok = result.passed and identity_perm
    _line(7, ok, f"{result.detail}, identity perm={identity_perm}")
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
    # the check holds clipping below 1 %, so the 4-SE band tests the exact
    # pair-law ratios alone; a ratio taken from a wrong pair law would push
    # the mean outside the band over 10^5 trials
    result = _check_estimator_unbiasedness_mc(_rng(10), trials=100_000)
    _line(
        10,
        result.passed,
        f"carms-i and carms-g, 10^5 trials each: {result.detail} (gate: <=4 SE, clips <1%)",
    )
    assert result.passed


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
