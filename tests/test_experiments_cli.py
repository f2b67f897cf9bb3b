"""Tests for the experiment drivers and the command-line interface.

CLI behavior is pinned hard: column order, float formatting, schema-valid
JSON lines, byte-identical reruns, and the exit-code contract.
"""

import csv
import dataclasses
import errno
import hashlib
import importlib.util
import io
import json
import os
import re
import subprocess
import sys
import time
import tracemalloc
from importlib import resources
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from carms import cli, experiments, sampling, selfcheck
from carms.cli import _config, _csv_cell, _emit, _json_value, build_parser, main
from carms.estimators import carms, loorf
from carms.experiments import (
    CORRELATION_METHODS,
    TOY_CHUNK,
    TOY_METHODS,
    CorrelationConfig,
    ToyConfig,
    _analytic_ratio_matrix,
    _carms_estimates,
    _empirical_joint_batch,
    _iid_categories,
    _indicator_correlation,
    make_gradient_estimator,
    run_correlation,
    run_toy,
    toy_objective,
)
from carms.oracle import (
    TabulatedObjective,
    bivariate_pmf_matrix,
    carms_pair_sum,
    exact_gradient,
    make_ordering,
    mc_estimator_moments,
)
from carms.sampling import (
    GUMBEL_BLOCK,
    _categorize_batch,
    _gumbel_offdiag_law,
    _inverse_cdf_categories_batch,
    _inverse_cdf_offdiag_law,
    as_probs,
    bivariate_pmf_averaged,
    gumbel_pair_pmf,
    sample_antithetic_gumbel,
    sample_antithetic_inverse_cdf,
)


def _load_schema(name):
    with resources.files("carms.schemas").joinpath(name).open() as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# toy objective and estimator factory


def test_toy_objective_frozen_values():
    f = toy_objective(3, 2)
    vals = f.values_at(np.array([[1, 0], [0, 0], [2, 2]]))
    # (1+1)*1 + (0+1)*2, then the corners
    assert vals.dtype == float and np.array_equal(vals, [4.0, 3.0, 9.0])
    assert (f.n_categories, f.dims) == (3, 2)


def test_toy_objective_matches_its_table():
    for c, d in ((2, 1), (3, 2), (4, 3)):
        table = TabulatedObjective.from_function(
            lambda a: float(((np.asarray(a) + 1) * np.arange(1, d + 1)).sum()), c, d
        )
        grids = np.stack(np.meshgrid(*[np.arange(c)] * d, indexing="ij"), axis=-1)
        assert np.array_equal(toy_objective(c, d).values_at(grids), table.table)


def test_make_gradient_estimator_validation():
    f = toy_objective(3, 1)
    p = np.full((1, 3), 1 / 3)
    with pytest.raises(ValueError):
        make_gradient_estimator("bogus", p, 4, f)
    # named first: at N = 1 a bogus method once read as a pair-based
    # estimator short of samples
    with pytest.raises(ValueError, match="unknown method 'bogus'"):
        make_gradient_estimator("bogus", p, 1, f)
    with pytest.raises(ValueError, match="unknown sampling path 'bogus'"):
        experiments._path("bogus")
    with pytest.raises(ValueError):
        make_gradient_estimator("loorf", p, 1, f)
    with pytest.raises(ValueError):
        make_gradient_estimator("loorf", np.full((2, 3), 1 / 3), 4, f)


def test_estimator_factory_unbiased_methods_hit_the_gradient():
    p = np.array([[0.5, 0.3, 0.2]])
    f = toy_objective(3, 1)
    grad = exact_gradient(f, np.log(p))
    for method in ("carms-i", "carms-g", "loorf", "reinforce"):
        est = make_gradient_estimator(method, p, 4, f)
        moments = mc_estimator_moments(est, 4000, np.random.default_rng(0))
        dev = np.abs(moments.mean - grad) / np.maximum(moments.stderr, 1e-12)
        assert np.max(dev) <= 4.0, method


def test_estimator_factory_output_contract():
    p = np.array([[0.4, 0.6], [0.2, 0.8]])
    f = toy_objective(2, 2)
    for method in ("carms-i", "carms-g", "loorf", "reinforce"):
        est = make_gradient_estimator(method, p, 3, f)
        g, flags = est(np.random.default_rng(1), 7)
        assert g.shape == (7, 2, 2)
        assert np.all(np.isfinite(g))
        if flags is not None:
            assert flags.shape == (7,) and flags.dtype == bool


def test_estimator_factory_paper_configuration_is_unbiased():
    # the paper's toy setting, C = D = 10 and N = 4, against the closed-form
    # gradient of f(z) = sum_d w_d v_{z_d}: w_d p_dc (v_c - sum_k p_dk v_k)
    # with w_d = d + 1 and v_c = c + 1
    c = d = 10
    p = np.random.default_rng(np.random.SeedSequence([10, 10, 4])).dirichlet(
        np.ones(c), size=d
    )
    w = np.arange(1.0, d + 1.0)[:, None]
    v = np.arange(1.0, c + 1.0)
    grad = w * p * (v - p @ v[:, None])
    f = toy_objective(c, d)
    for method in ("carms-i", "carms-g"):
        start = time.perf_counter()
        est = make_gradient_estimator(method, p, 4, f)
        moments = mc_estimator_moments(est, 20_000, np.random.default_rng(12))
        elapsed = time.perf_counter() - start
        dev = np.abs(moments.mean - grad) / np.maximum(moments.stderr, 1e-12)
        assert np.max(dev) <= 4.0, (method, float(np.max(dev)))
        assert moments.clip_fraction == 0.0, method
        assert elapsed < 30.0, (method, elapsed)


def test_estimator_factory_inactive_dimension_is_zero_in_expectation():
    # f reads only dimension 0, so dimension 1 rows average to zero
    c = 3
    p = np.array([[0.5, 0.3, 0.2], [0.2, 0.3, 0.5]])
    f = TabulatedObjective(np.repeat(np.array([0.5, -1.0, 2.0])[:, None], c, axis=1))
    for method in ("carms-i", "carms-g", "loorf"):
        est = make_gradient_estimator(method, p, 4, f)
        moments = mc_estimator_moments(est, 4000, np.random.default_rng(11))
        assert np.max(np.abs(moments.mean[1]) / moments.stderr[1]) <= 4.0, method


def test_carms_core_matches_the_pair_sum_oracle():
    # the scatter-added batch core (which estimators.carms runs at k = 1)
    # against the explicit pair sum draw by draw, with categories absent from
    # most draws and one that never occurs
    rng = np.random.default_rng(30)
    for n in (2, 3, 5):
        p = np.array([0.3, 0.0, 0.05, 0.25, 0.15, 0.25])
        ratios, _ = _analytic_ratio_matrix(p, bivariate_pmf_averaged(p, n), 10.0)
        cats = _inverse_cdf_categories_batch(200, n, p, rng)
        f = rng.normal(size=(200, n)) * 5.0
        g = _carms_estimates(f, cats, ratios, p)
        ref = [carms_pair_sum(f[i], np.eye(p.size)[cats[i]], ratios) for i in range(200)]
        assert np.max(np.abs(g - np.array(ref))) <= 1e-12, n


def _carms_broadcast(f, cats, ratios, p):
    # the (k, N, N) broadcast form that the column-wise core replaced, its sums
    # over samples taken left to right (cumsum) as the core takes them
    k, n = cats.shape
    rsel = ratios[cats[:, :, None], cats[:, None, :]]
    w = np.cumsum(rsel * (f[:, :, None] - f[:, None, :]), axis=-1)[..., -1] / (n * (n - 1))
    flat = (np.arange(k)[:, None] * p.size + cats).ravel()
    g = np.bincount(flat, weights=w.ravel(), minlength=k * p.size).reshape(k, p.size)
    g -= np.cumsum(w, axis=1)[:, -1:] * p
    return g


def test_carms_core_is_bit_identical_to_the_broadcast_form():
    # sample counts on both sides of the eight terms from which numpy would
    # sum pairwise, one draw alone summed as in the batch, and categories
    # drawn more than once, whose pairs read the ratios' zero diagonal
    rng = np.random.default_rng(31)
    p = np.array([0.3, 0.05, 0.25, 0.15, 0.25])
    for n in (2, 3, 4, 8, 10):
        ratios, _ = _analytic_ratio_matrix(p, _inverse_cdf_offdiag_law(p, n), 10.0)
        assert np.all(np.diag(ratios) == 0.0)
        cats = rng.choice([0, 2, 3, 4], size=(3000, n))
        cats[::3, -1] = 1
        f = rng.normal(size=(3000, n)) * 5.0
        g = _carms_estimates(f, cats, ratios, p)
        assert np.array_equal(g, _carms_broadcast(f, cats, ratios, p)), n
        assert np.array_equal(_carms_estimates(f[:1], cats[:1], ratios, p), g[:1]), n
        assert g.flags.c_contiguous


def test_score_estimators_match_their_single_draw_forms():
    # loorf and reinforce from the factory against estimators.loorf and
    # f/N (z - p), on the categories the factory draws from the same stream
    p = np.array([[0.5, 0.0, 0.3, 0.2], [0.1, 0.2, 0.3, 0.4]])
    objective = toy_objective(4, 2)
    k = 100
    for n in (2, 3, 5):
        for method in ("loorf", "reinforce"):
            g, _ = make_gradient_estimator(method, p, n, objective)(
                np.random.default_rng(n), k
            )
            rng = np.random.default_rng(n)
            cats = np.stack([_iid_categories(k, n, row, rng) for row in p], axis=-1)
            f = objective.values_at(cats)
            for i in range(k):
                for d in range(2):
                    z = np.eye(4)[cats[i, :, d]]
                    if method == "loorf":
                        ref = loorf(f[i], z, p[d])
                    else:
                        ref = f[i] @ (z - p[d]) / n
                    assert np.max(np.abs(g[i, d] - ref)) <= 1e-12, (n, method)


@pytest.mark.parametrize("dims", [1, 2])
def test_carms_i_single_draw_is_the_batched_estimate_at_one_draw(dims):
    # one draw of the factory against sample_antithetic_inverse_cdf plus
    # estimators.carms in each dimension, on the same stream, bit for bit:
    # a category drawn twice adds an exact 0 on both paths.  At D = 2 two
    # samples in one category of a dimension carry different f
    objective = toy_objective(5, dims)
    repeated = 0
    for seed in range(40):
        n = 3 + seed % 3
        p = np.random.default_rng([41, seed]).dirichlet(np.ones(5), size=dims)
        g, _ = make_gradient_estimator("carms-i", p, n, objective)(
            np.random.default_rng(seed), 1
        )
        rng = np.random.default_rng(seed)
        draws = [sample_antithetic_inverse_cdf(n, row, rng) for row in p]
        cats = np.stack([z.argmax(axis=1) for z, _ in draws], axis=-1)
        f = objective.values_at(cats)
        for d, (z, r) in enumerate(draws):
            repeated += z.sum(axis=0).max() > 1
            assert np.array_equal(g[0, d], carms(f, z, r, p[d])), (seed, d)
    assert repeated >= 20


def test_clip_flags_match_the_one_hot_formula():
    # a 1e-3 category and a ceiling of 1 make clipping engage on some draws;
    # the flags count pairs of distinct categories only, from the full law
    p = np.array([[0.001, 0.3, 0.299, 0.4], [0.25, 0.25, 0.25, 0.25]])
    objective = toy_objective(4, 2)
    n, k = 3, 2000
    _, flags = make_gradient_estimator("carms-i", p, n, objective, clip=1.0)(
        np.random.default_rng(31), k
    )
    rng = np.random.default_rng(31)
    cats = np.stack([_inverse_cdf_categories_batch(k, n, row, rng) for row in p], axis=-1)
    ref = np.zeros(k, dtype=bool)
    for d, row in enumerate(p):
        law = bivariate_pmf_averaged(row, n)
        exceed = (np.outer(row, row) / law > 1.0) & ~np.eye(4, dtype=bool)
        present = np.eye(4)[cats[:, :, d]].sum(axis=1) > 0
        ref |= np.einsum("ij,ki,kj->k", exceed, present, present) > 0
    assert 0 < ref.sum() < k
    assert np.array_equal(flags, ref)


def test_empirical_joint_batch_frozen_binary_example():
    joint = _empirical_joint_batch(np.array([[1.0, 1.0]]), 2)
    assert np.array_equal(joint, [[[0.0, 0.5], [0.5, 0.0]]])


def test_empirical_joint_batch_properties_every_draw():
    rng = np.random.default_rng(13)
    for _ in range(50):
        c = int(rng.integers(2, 6))
        n = int(rng.integers(2, 9))
        counts = np.eye(c)[rng.integers(0, c, size=(4, n))].sum(axis=1)
        joint = _empirical_joint_batch(counts, n)
        assert np.all(joint >= 0.0)
        assert np.max(np.abs(joint.sum(axis=(1, 2)) - 1.0)) <= 1e-12
        assert np.array_equal(joint, joint.transpose(0, 2, 1))


@pytest.mark.parametrize("clip", [0.0, -1.0, float("nan")])
def test_bad_clip_is_rejected_on_both_carms_paths(clip, monkeypatch):
    # a ceiling at or below 0 would zero or sign-flip every ratio; the
    # factory and both single draws reject it before they build any pair
    # law, and the factory rejects it for the methods that read no ratio too
    def no_build(*args, **kwargs):
        raise AssertionError("a pair law was built before the clip check")

    for module in (experiments, sampling):
        monkeypatch.setattr(module, "_inverse_cdf_offdiag_law", no_build)
        monkeypatch.setattr(module, "_gumbel_offdiag_law", no_build)
    p = np.array([[0.5, 0.3, 0.2]])
    for method in TOY_METHODS:
        with pytest.raises(ValueError, match="clip"):
            make_gradient_estimator(method, p, 3, toy_objective(3, 1), clip=clip)
    for sample in (sample_antithetic_inverse_cdf, sample_antithetic_gumbel):
        with pytest.raises(ValueError, match="clip"):
            sample(3, p[0], np.random.default_rng(0), clip=clip)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_carms_paths_build_off_diagonal_laws_only(n, monkeypatch):
    # each off-diagonal builder is its full law off the diagonal, bit for
    # bit, a zero-probability category included; the estimators then run
    # without building a diagonal
    p = np.array([0.4, 0.0, 0.25, 0.2, 0.15])
    off = ~np.eye(5, dtype=bool)
    for law, full in ((_inverse_cdf_offdiag_law(p, n), bivariate_pmf_averaged(p, n)),
                      (_gumbel_offdiag_law(p, n), gumbel_pair_pmf(p, n))):
        assert np.array_equal(law[off], full[off]) and np.all(np.diag(law) == 0.0)

    def no_build(*args, **kwargs):
        raise AssertionError("a law with its diagonal was built")

    monkeypatch.setattr(sampling, "_gumbel_pair_pmf", no_build)
    monkeypatch.setattr(sampling, "bivariate_pmf_averaged", no_build)
    rng = np.random.default_rng(n)
    for method in ("carms-i", "carms-g"):
        make_gradient_estimator(method, p[None], n, toy_objective(5, 1))(rng, 50)
    for sample in (sample_antithetic_inverse_cdf, sample_antithetic_gumbel):
        for _ in range(10):
            sample(n, p, rng)


def _digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(b"None" if a is None else np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:16]


# sha256 (first 16 hex digits) of the estimates and clip flags of one estimator
# call, keyed (method, C, N, clip, stack), 200 draws (seed 100 C + N), as drawn
# when each driver spelled out its own sampling path (the "dirichlet" stacks)
# and when each dimension's pair law was built on its own (the others).  The
# stacks (_pinned_stack) are D = 3 rows of p ~ Dirichlet(1/2) (seed C); D = 6
# such rows ("dirichlet-d6"); and D = 4 such rows with an exact-zero category
# in row 1 and the least one set to 1e-12 in row 2 ("zero-tiny").  Case ids
# name the stack.
PINNED_ESTIMATES = {
    ("carms-i", 3, 2, 10.0, "dirichlet"): "6a684a6e55ff34aa",
    ("carms-i", 3, 2, 0.5, "dirichlet"): "087d8cf0785b1cc1",
    ("carms-i", 3, 4, 10.0, "dirichlet"): "cb9a189116a3fef5",
    ("carms-i", 3, 4, 0.5, "dirichlet"): "8b9360f4a4b4675f",
    ("carms-i", 8, 2, 10.0, "dirichlet"): "9b9944f44653f15e",
    ("carms-i", 8, 2, 0.5, "dirichlet"): "094c14e1f25bdf0d",
    ("carms-i", 8, 4, 10.0, "dirichlet"): "0e3e83e8db146baa",
    ("carms-i", 8, 4, 0.5, "dirichlet"): "2c455a7745867600",
    ("carms-g", 3, 2, 10.0, "dirichlet"): "53457405535f9880",
    ("carms-g", 3, 2, 0.5, "dirichlet"): "40ffc9ecb7d5cc78",
    ("carms-g", 3, 4, 10.0, "dirichlet"): "6ea72756ed895899",
    ("carms-g", 3, 4, 0.5, "dirichlet"): "944c00d8405e663b",
    ("carms-g", 8, 2, 10.0, "dirichlet"): "a80d00619a1e8b36",
    ("carms-g", 8, 2, 0.5, "dirichlet"): "a4d23e194bada72e",
    ("carms-g", 8, 4, 10.0, "dirichlet"): "b51b056e1b89ce22",
    ("carms-g", 8, 4, 0.5, "dirichlet"): "2a120fff520b5578",
    ("loorf", 3, 2, 10.0, "dirichlet"): "9ff057cb471f1bf4",
    ("loorf", 3, 4, 10.0, "dirichlet"): "01dd87b313f6d9f3",
    ("loorf", 8, 2, 10.0, "dirichlet"): "c18d966146503759",
    ("loorf", 8, 4, 10.0, "dirichlet"): "0664a0a4b5c49ae2",
    ("reinforce", 3, 2, 10.0, "dirichlet"): "225feaa7cf743011",
    ("reinforce", 3, 4, 10.0, "dirichlet"): "9596b0ff0b7a0572",
    ("reinforce", 8, 2, 10.0, "dirichlet"): "6621bb54a44165f2",
    ("reinforce", 8, 4, 10.0, "dirichlet"): "fd9647bdb17aa7dc",
    ("carms-i", 10, 2, 10.0, "dirichlet-d6"): "817677600ced0710",
    ("carms-i", 10, 3, 10.0, "dirichlet-d6"): "b66773d904bde6c1",
    ("carms-i", 10, 10, 10.0, "dirichlet-d6"): "fb9b7c07b3bee400",
    ("carms-g", 10, 2, 10.0, "dirichlet-d6"): "39ce6cd14fc1e135",
    ("carms-g", 10, 3, 10.0, "dirichlet-d6"): "3c1029f0876ca06c",
    ("carms-g", 10, 10, 10.0, "dirichlet-d6"): "7afb8ca8c881f909",
    ("carms-i", 6, 2, 10.0, "zero-tiny"): "7e93aa40242f57c8",
    ("carms-i", 6, 3, 10.0, "zero-tiny"): "4d28ba54b7d6a64e",
    ("carms-i", 6, 4, 10.0, "zero-tiny"): "37ff054b392024ec",
    ("carms-g", 6, 2, 10.0, "zero-tiny"): "f8ee6148b7774de2",
    ("carms-g", 6, 3, 10.0, "zero-tiny"): "33e35c57b2f87c84",
    ("carms-g", 6, 4, 10.0, "zero-tiny"): "e52f7f5b84d45c13",
}


def _pinned_stack(stack, c):
    dims = {"dirichlet": 3, "dirichlet-d6": 6, "zero-tiny": 4}[stack]
    p = np.random.default_rng(c).dirichlet(np.full(c, 0.5), size=dims)
    if stack == "zero-tiny":
        p[1, 2] = 0.0
        p[1] /= p[1].sum()
        tiny = p[2].argmin()
        p[2, p[2].argmax()] += p[2, tiny] - 1e-12
        p[2, tiny] = 1e-12
    return p


@pytest.mark.parametrize("method, c, n, clip, stack", sorted(PINNED_ESTIMATES), ids=[
    f"{method}-{stack}-{c}-{n}-{clip}" for method, c, n, clip, stack in sorted(PINNED_ESTIMATES)
])
def test_estimates_and_flags_are_pinned(method, c, n, clip, stack):
    p = _pinned_stack(stack, c)
    estimate = make_gradient_estimator(method, p, n, toy_objective(c, len(p)), clip=clip)
    g, flags = estimate(np.random.default_rng(100 * c + n), 200)
    assert _digest(g, flags) == PINNED_ESTIMATES[method, c, n, clip, stack]


# the same for the correlation matrix at C = 5, N = 3, 2000 draws, seed 4
PINNED_CORRELATIONS = {
    "inverse-cdf": "8c3074f2885494d2",
    "gumbel": "2e078d0d27222224",
    "independent": "6b253b78f1440164",
}


@pytest.mark.parametrize("method", sorted(PINNED_CORRELATIONS), ids="{}-dirichlet".format)
def test_correlations_are_pinned(method):
    rec = run_correlation(CorrelationConfig(method, 5, 3, 2000, 4))
    assert _digest(rec["corr"]) == PINNED_CORRELATIONS[method]


def test_every_path_is_reached_through_the_current_module_binding(monkeypatch):
    # the benchmark's tracer rebinds these names in each module that holds
    # them; each toy method, correlation method and single draw must reach
    # its own path's draw and law there, and nothing else
    calls = []

    def record(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls.append(f"{module.__name__.split('.')[-1]}.{name}")
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    names = ("_inverse_cdf_categories_batch", "_gumbel_categories_batch",
             "_inverse_cdf_offdiag_law", "_gumbel_offdiag_law")
    for module in (experiments, sampling):
        for name in names:
            record(module, name)
    record(experiments, "_iid_categories")

    def reached(run):
        calls.clear()
        run()
        return calls.copy()

    p, rng = np.array([[0.5, 0.3, 0.2], [0.2, 0.2, 0.6]]), np.random.default_rng(5)
    draw, law = "experiments._{}_categories_batch", "experiments._{}_offdiag_law"
    toy = {"carms-i": "inverse_cdf", "carms-g": "gumbel"}
    for method in TOY_METHODS:
        path = toy.get(method)
        calls.clear()
        estimate = make_gradient_estimator(method, p, 3, toy_objective(3, 2))
        assert calls == ([law.format(path)] if path else []), method  # one for the stack
        drawn = draw.format(path) if path else "experiments._iid_categories"
        assert reached(lambda: estimate(rng, 10)) == [drawn] * 2, method
    expected = {"inverse-cdf": draw.format("inverse_cdf"), "gumbel": draw.format("gumbel"),
                "independent": "experiments._iid_categories"}
    for method in CORRELATION_METHODS:
        config = CorrelationConfig(method, draws=100)
        assert reached(lambda: run_correlation(config)) == [expected[method]], method
    for sample, path in ((sample_antithetic_inverse_cdf, "inverse_cdf"),
                         (sample_antithetic_gumbel, "gumbel")):
        assert reached(lambda: sample(3, p[0], rng)) == [
            f"sampling._{path}_categories_batch", f"sampling._{path}_offdiag_law"
        ]


# ---------------------------------------------------------------------------
# run_toy


def _tiny_toy_config(**overrides):
    base = dict(
        methods=("carms-i", "loorf"),
        alphas=(1.0, 10.0),
        categories=3,
        dims=2,
        samples=3,
        trials=2,
        inner=64,
        seed=7,
    )
    base.update(overrides)
    return ToyConfig(**base)


def test_run_toy_record_grid_and_paired_probs():
    records = list(run_toy(_tiny_toy_config()))
    assert len(records) == 2 * 2 * 2  # alphas x trials x methods
    by_cell = {}
    for rec in records:
        key = (rec["alpha"], rec["trial"])
        by_cell.setdefault(key, []).append(rec)
    for cell in by_cell.values():
        assert len(cell) == 2
        # every method sees the identical probability draw
        assert np.array_equal(cell[0]["probs"], cell[1]["probs"])
        assert {r["method"] for r in cell} == {"carms-i", "loorf"}


def test_run_toy_variance_bookkeeping():
    for rec in run_toy(_tiny_toy_config(alphas=(1.0,), trials=1)):
        assert rec["var"].shape == (2, 3)
        assert rec["var_sum"] == pytest.approx(float(rec["var"].sum()), rel=1e-15)
        assert rec["log_var_sum"] == pytest.approx(np.log(rec["var_sum"]), rel=1e-12)
        assert rec["log_var_mean"] == pytest.approx(
            np.log(rec["var_sum"] / rec["var"].size), rel=1e-12
        )
        assert 0.0 <= rec["clip_fraction"] <= 1.0


def test_run_toy_deterministic():
    a = list(run_toy(_tiny_toy_config()))
    b = list(run_toy(_tiny_toy_config()))
    for ra, rb in zip(a, b):
        assert np.array_equal(ra["probs"], rb["probs"])
        assert np.array_equal(ra["var"], rb["var"])
        assert ra["var_sum"] == rb["var_sum"]


def _toy_draws(config, a_idx, trial, method, sizes):
    """The estimates run_toy draws for one record, chunk by chunk, and their flags."""
    probs_rng = np.random.default_rng(np.random.SeedSequence([config.seed, a_idx, trial, 0]))
    p = probs_rng.dirichlet(np.full(config.categories, config.alphas[a_idx]), size=config.dims)
    estimate = make_gradient_estimator(method, p, config.samples,
                                       toy_objective(config.categories, config.dims),
                                       clip=config.clip)
    rng = np.random.default_rng(np.random.SeedSequence([config.seed, a_idx, trial, 1]))
    chunks = [estimate(rng, k) for k in sizes]
    flags = [f if f is not None else np.zeros(len(g), dtype=bool) for g, f in chunks]
    return np.concatenate([g for g, _ in chunks]), np.concatenate(flags)


def test_run_toy_one_chunk_is_numpys_variance_bit_for_bit():
    # every run with --inner up to TOY_CHUNK keeps the bytes of one draw of
    # all its estimates; the ceiling of 0.5 clips some carms-i draws
    config = _tiny_toy_config(methods=("carms-i", "loorf"), alphas=(0.3,), trials=1,
                              inner=TOY_CHUNK, clip=0.5)
    clipped = {}
    for rec in run_toy(config):
        g, flags = _toy_draws(config, 0, 0, rec["method"], [TOY_CHUNK])
        assert np.array_equal(rec["var"], g.var(axis=0, ddof=1)), rec["method"]
        assert rec["clip_fraction"] == float(np.mean(flags))
        clipped[rec["method"]] = rec["clip_fraction"]
    assert 0.0 < clipped["carms-i"] < 1.0 and clipped["loorf"] == 0.0


def test_run_toy_merges_its_chunks_into_the_variance_of_all_draws(monkeypatch):
    # chunks of 37 draws from one stream: 37, 37 and 26 for 100 draws
    monkeypatch.setattr(experiments, "TOY_CHUNK", 37)
    config = _tiny_toy_config(alphas=(0.3,), trials=1, inner=100, clip=0.5)
    for rec in run_toy(config):
        g, flags = _toy_draws(config, 0, 0, rec["method"], [37, 37, 26])
        np.testing.assert_allclose(rec["var"], g.var(axis=0, ddof=1), rtol=1e-12, atol=0)
        assert rec["clip_fraction"] == np.count_nonzero(flags) / 100


def test_run_toy_memory_is_flat_in_the_inner_draws():
    # the peak reads the same on either side of the chunk size: 2.94 and 3.43
    # MB here, where one draw of every estimate read 2.94 and 11.1 MB
    def peak(inner):
        config = _tiny_toy_config(alphas=(1.0,), trials=1, inner=inner)
        tracemalloc.start()
        try:
            list(run_toy(config))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    one, four = peak(TOY_CHUNK), peak(4 * TOY_CHUNK)
    assert four < 1.3 * one, (one, four)


def test_toy_config_validation():
    with pytest.raises(ValueError):
        _tiny_toy_config(methods=("nope",))
    for alpha in (0.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="alphas must be positive and finite"):
            _tiny_toy_config(alphas=(1.0, alpha))
    with pytest.raises(ValueError, match="alphas times categories"):
        _tiny_toy_config(alphas=(np.finfo(float).max / 2,))
    with pytest.raises(ValueError):
        _tiny_toy_config(samples=1)
    with pytest.raises(ValueError):
        _tiny_toy_config(inner=1)
    with pytest.raises(ValueError):
        _tiny_toy_config(seed=-1)
    # checked with the rest: run_toy once yielded the loorf records before
    # carms-i raised
    for clip in (0.0, -1.0, np.nan):
        with pytest.raises(ValueError, match="clip"):
            _tiny_toy_config(clip=clip)


# ---------------------------------------------------------------------------
# run_correlation


def test_correlation_binary_antithetic_is_perfectly_negative():
    rec = run_correlation(
        CorrelationConfig(method="inverse-cdf", categories=2, draws=1000, seed=0)
    )
    corr = rec["corr"]
    assert corr.shape == (2, 2)
    assert np.all(np.diag(corr) <= -0.999)
    assert np.all(corr[~np.eye(2, dtype=bool)] >= 0.999)


def test_correlation_independent_near_zero():
    rec = run_correlation(
        CorrelationConfig(method="independent", categories=3, draws=4000, seed=1)
    )
    assert np.max(np.abs(rec["corr"])) <= 0.1


def test_correlation_inverse_cdf_diagonal_negative():
    # C = 4 pairs have diagonal correlation -1/3; at C = 3 a pair's diagonal
    # correlation is exactly zero (mirror artifact), so three samples are
    # needed before every diagonal goes negative
    rec = run_correlation(
        CorrelationConfig(method="inverse-cdf", categories=4, draws=10_000, seed=2)
    )
    assert np.all(np.diag(rec["corr"]) < -0.25)
    rec = run_correlation(
        CorrelationConfig(
            method="inverse-cdf", categories=3, samples=3, draws=10_000, seed=2
        )
    )
    assert np.all(np.diag(rec["corr"]) < 0.0)


def test_correlation_memory_grows_with_the_samples_only_by_the_exponentials():
    # a record reads two samples, so only the inverse-CDF draw's exponentials
    # grow with N: 8 bytes per draw and extra sample.  The Gumbel path's blocks
    # and the independent path's blocks of GUMBEL_BLOCK uniforms hold a fixed
    # count, so neither grows; the independent k spans several blocks at both N.
    # Forming all N samples grew the peak by 192, 57 and 256 bytes per draw,
    # and the one-shot (k, N) uniforms by 8 bytes per draw and extra sample
    cases = (("inverse-cdf", 20_000, 8), ("gumbel", 20_000, 0),
             ("independent", 2 * GUMBEL_BLOCK, 0))
    for method, k, per_sample in cases:
        peaks = []
        for n in (2, 10):
            config = CorrelationConfig(method, 5, n, k, 1)
            run_correlation(config)
            tracemalloc.start()
            try:
                run_correlation(config)
                peaks.append(tracemalloc.get_traced_memory()[1] / k)
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] <= per_sample * (10 - 2) + 1.0, (method, peaks)


def test_independent_draw_takes_its_uniforms_in_blocks():
    # GUMBEL_BLOCK uniforms a block, over three full blocks and a partial one:
    # the categories are the one-shot draw's at every keep, and the generator
    # ends where the one-shot draw leaves it
    p = np.array([0.2, 0.0, 0.35, 0.05, 0.4])
    for n in (2, 3, 4, 10):
        k = 3 * (GUMBEL_BLOCK // n) + 7
        for keep in range(1, n + 1):
            ref_rng, rng = np.random.default_rng(k), np.random.default_rng(k)
            ref = _categorize_batch(ref_rng.random((k, n))[:, :keep], p.cumsum())
            cats = _iid_categories(k, n, p, rng, keep=keep)
            assert cats.shape == (k, keep) and np.array_equal(cats, ref), (n, keep)
            assert np.array_equal(rng.random(4), ref_rng.random(4)), (n, keep)


def test_correlation_config_validation():
    with pytest.raises(ValueError):
        CorrelationConfig(method="nope")
    with pytest.raises(ValueError):
        CorrelationConfig(draws=10)
    with pytest.raises(ValueError):
        CorrelationConfig(samples=1)


def test_indicator_correlation_constant_column_is_nan():
    # category 2 never occurs, so its indicators are constant
    a = np.tile([0, 1], 25)
    corr = _indicator_correlation(a, a, 3)
    assert np.all(np.isnan(corr[2])) and np.all(np.isnan(corr[:, 2]))
    assert np.array_equal(corr[:2, :2], [[1.0, -1.0], [-1.0, 1.0]])


def test_indicator_correlation_matches_corrcoef_of_one_hot_indicators():
    rng = np.random.default_rng(32)
    for c, k in ((3, 100), (5, 400), (12, 300)):
        a = rng.integers(0, c - 1, size=k)  # the last category stays absent
        b = rng.integers(0, c, size=k)
        corr = _indicator_correlation(a, b, c)
        eye = np.eye(c)
        with np.errstate(divide="ignore", invalid="ignore"):
            full = np.corrcoef(eye[a].T, eye[b].T)[:c, c:]
        assert np.array_equal(np.isnan(corr), np.isnan(full))
        assert np.nanmax(np.abs(corr - full)) <= 1e-12


def _indicator_correlation_by_formula(a, b, c):
    # the whole-array formula, with its (C, C) temporaries
    k = a.size
    joint = np.bincount(a * c + b, minlength=c * c).reshape(c, c)
    na, nb = np.bincount(a, minlength=c), np.bincount(b, minlength=c)
    denom = np.sqrt(np.outer(na * (k - na), (nb * (k - nb)).astype(float)))
    with np.errstate(divide="ignore", invalid="ignore"):
        corr = np.where(denom > 0.0, (k * joint - np.outer(na, nb)) / denom, np.nan)
    return np.clip(corr, -1.0, 1.0)


def test_indicator_correlation_is_the_formula_bit_for_bit_in_two_arrays():
    rng = np.random.default_rng(33)
    for c, k in ((2, 100), (3, 100), (7, 150), (30, 1000), (400, 100)):
        a = rng.integers(0, c - 1, size=k)  # the last category stays absent
        b = rng.integers(0, c, size=k)
        b[: k // 2] = a[: k // 2]  # correlated, perfectly so at C = 2 or 3 now and then
        for x, y in ((a, b), (a, a), (np.zeros_like(a), b)):
            got, ref = _indicator_correlation(x, y, c), _indicator_correlation_by_formula(x, y, c)
            nan = np.isnan(ref)  # 0 / 0 now, whose sign bit np.nan lacks; both print as nan
            assert np.array_equal(np.isnan(got), nan) and nan.any(), (c, k)
            assert np.array_equal(got[~nan].view(np.int64), ref[~nan].view(np.int64)), (c, k)
    # the numerator and the denominator are the only (C, C) arrays: the
    # formula peaked at 4.1 of them
    c = 1000
    a, b = rng.integers(0, c, size=100), rng.integers(0, c, size=100)
    tracemalloc.start()
    try:
        _indicator_correlation(a, b, c)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.2 * c * c * 8, peak / (c * c * 8)


def _json_value_by_entry(value):
    # every array entry through the scalar rule
    if isinstance(value, np.ndarray):
        value = value.tolist()
    if isinstance(value, list):
        return [_json_value_by_entry(v) for v in value]
    if isinstance(value, float):
        return value if np.isfinite(value) else None
    return value


def test_json_value_writes_the_bytes_of_the_entry_by_entry_rule():
    rng = np.random.default_rng(34)
    special = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 1.7976931348623157e308])
    for shape in ((0,), (1,), (7,), (5, 6), (3, 4, 2)):
        finite = rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, size=shape)
        finite.flat[:2] = -0.0
        for value in (finite, np.where(rng.random(shape) < 0.3, rng.choice(special, shape), finite),
                      rng.integers(-5, 5, size=shape), rng.random(shape) < 0.5):
            got = json.dumps(_json_value(value), allow_nan=False)
            assert got == json.dumps(_json_value_by_entry(value), allow_nan=False)


def _emit_by_cell(handle, output, records):
    # one string per cell: the whole-matrix rule the row-at-a-time writer keeps
    if output == "csv":
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(list(records[0]))
        for rec in records:
            writer.writerow([_csv_cell(v) for v in rec.values()])
    else:
        for rec in records:
            handle.write(json.dumps({k: _json_value(v) for k, v in rec.items()}, allow_nan=False))
            handle.write("\n")


def test_emit_writes_the_bytes_of_one_string_per_cell():
    rng = np.random.default_rng(36)
    special = np.array([np.nan, np.inf, -np.inf, -0.0, 5e-324])
    texts = ["plain", "a,b", 'say "x"', "two\nlines", "cr\rhere", "", " lead"]
    records = []
    for i in range(2 * len(texts)):
        matrix = rng.standard_normal((3, 4))
        matrix.flat[i % 12] = special[i % 5]
        records.append({
            "text": texts[i % len(texts)], "n": i, "f": float(special[i % 5]), "none": None,
            "matrix": matrix, "row": rng.standard_normal(5), "scalar": np.array(2.5),
            "cube": rng.standard_normal((2, 2, 3)), "empty": np.zeros((0, 3)),
            "hollow": np.zeros((2, 0)), "ints": np.arange(6).reshape(2, 3), "flag": i % 2 == 0,
        })
    cases = [records, [{"only": ""}, {"only": "a"}], [{"only": np.zeros((0, 2))}],
             [{"only": np.ones((2, 2))}]]
    for output in ("csv", "jsonl"):
        for recs in cases:
            got, ref = io.StringIO(), io.StringIO()
            _emit(got, output, recs)
            _emit_by_cell(ref, output, recs)
            assert got.getvalue() == ref.getvalue(), (output, recs[0].keys())


def test_emit_writes_a_matrix_a_row_at_a_time():
    # peak bytes per matrix column, past the writer's fixed cost (the csv
    # writer's own 128 KiB buffer), the same at both sizes: 93 and 108 in
    # CSV, 134 and 137 in JSON; one string per cell took 12-28 KB
    class Sink:
        def write(self, text):
            pass

    def peak(output, c):
        rec = {"method": "gumbel", "categories": c,
               "corr": np.random.default_rng(c).uniform(-1.0, 1.0, (c, c))}
        tracemalloc.start()
        try:
            _emit(Sink(), output, [rec])
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    for output in ("csv", "jsonl"):
        fixed = peak(output, 1)
        per_column = [(peak(output, c) - fixed) / c for c in (100, 200)]
        assert per_column[1] < 1.25 * per_column[0] and max(per_column) < 1024, per_column


# ---------------------------------------------------------------------------
# CLI (in-process)

TOY_HEADER = [
    "method", "categories", "dims", "samples", "alpha", "trials",
    "trial", "inner", "seed", "clip", "probs", "var",
    "var_sum", "log_var_sum", "log_var_mean", "clip_fraction",
]

TOY_ARGS = [
    "toy", "--method", "carms-i,loorf", "--categories", "3", "--dims", "2",
    "--samples", "3", "--alpha", "1.0", "--trials", "2", "--inner", "64",
    "--seed", "7",
]


def test_cli_toy_csv_contract(tmp_path, capsys):
    out = tmp_path / "toy.csv"
    assert main(TOY_ARGS + ["--out-path", str(out)]) == 0
    assert "toy:" in capsys.readouterr().err  # timing goes to stderr
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == TOY_HEADER
    assert len(rows) == 1 + 2 * 2
    by_col = dict(zip(TOY_HEADER, rows[1]))
    assert by_col["method"] in ("carms-i", "loorf")
    assert by_col["categories"] == "3"
    # probs round-trip through %.17g bit-exactly
    probs = np.array([float(v) for v in by_col["probs"].split(";")]).reshape(2, 3)
    records = list(run_toy(_tiny_toy_config(alphas=(1.0,))))
    assert np.array_equal(probs, records[0]["probs"])


def test_main_builds_its_parser_once(tmp_path, monkeypatch):
    # later calls reuse the first call's parser, and a flag given to one call
    # leaves no default changed for the next
    built = []

    def counted():
        built.append(build_parser())
        return built[-1]

    monkeypatch.setattr(cli, "build_parser", counted)
    cli._parser.cache_clear()
    outs = [tmp_path / f"{idx}.csv" for idx in range(3)]
    try:
        assert main(["correlation", "--out-path", str(outs[0])]) == 0
        assert main(["correlation", "--categories", "4", "--samples", "3", "--seed", "5",
                     "--method", "gumbel", "--out-path", str(outs[1])]) == 0
        assert main(["correlation", "--out-path", str(outs[2])]) == 0
    finally:
        cli._parser.cache_clear()
    assert len(built) == 1
    assert outs[0].read_bytes() == outs[2].read_bytes() != outs[1].read_bytes()


def test_cli_toy_jsonl_validates_against_schema(tmp_path):
    out = tmp_path / "toy.jsonl"
    assert main(TOY_ARGS + ["--output", "jsonl", "--out-path", str(out)]) == 0
    schema = _load_schema("toy.schema.json")
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 4
    for line in lines:
        jsonschema.validate(json.loads(line), schema)


def test_cli_toy_runs_the_paper_configuration_by_default(tmp_path):
    # no size flags: C = D = 10, N = 4, every method and the four alphas
    out = tmp_path / "toy.jsonl"
    args = ["toy", "--trials", "1", "--inner", "200", "--output", "jsonl"]
    assert main(args + ["--out-path", str(out)]) == 0
    schema = _load_schema("toy.schema.json")
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 4 * 4  # methods x alphas
    for line in lines:
        obj = json.loads(line)
        jsonschema.validate(obj, schema)
        assert (obj["categories"], obj["dims"], obj["samples"]) == (10, 10, 4)


def test_cli_correlation_csv_and_jsonl(tmp_path):
    args = ["correlation", "--categories", "2", "--trials", "500", "--seed", "1"]
    out_csv = tmp_path / "corr.csv"
    out_jsonl = tmp_path / "corr.jsonl"
    assert main(args + ["--out-path", str(out_csv)]) == 0
    assert main(args + ["--output", "jsonl", "--out-path", str(out_jsonl)]) == 0
    with open(out_csv, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["method", "categories", "samples", "draws", "seed", "corr"]
    assert len(rows) == 2
    schema = _load_schema("correlation.schema.json")
    jsonschema.validate(json.loads(out_jsonl.read_text()), schema)


def test_cli_selfcheck_exit_zero_and_schema(tmp_path, capsys):
    out = tmp_path / "check.jsonl"
    code = main(["selfcheck", "--output", "jsonl", "--out-path", str(out)])
    assert code == 0
    assert "selfcheck[fast]" in capsys.readouterr().err
    schema = _load_schema("selfcheck.schema.json")
    for line in out.read_text().strip().split("\n"):
        obj = json.loads(line)
        jsonschema.validate(obj, schema)
        assert obj["passed"] is True


def test_cli_selfcheck_full_level_writes_jsonl(tmp_path):
    # every check's passed field is a JSON boolean, the statistical ones too
    out = tmp_path / "full.jsonl"
    assert main(["selfcheck", "--level", "full", "--output", "jsonl", "--out-path", str(out)]) == 0
    schema = _load_schema("selfcheck.schema.json")
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 11
    for line in lines:
        jsonschema.validate(json.loads(line), schema)


# the rows of `carms selfcheck --seed 0`; the fast level writes the first six
# of the full level's eleven
PINNED_SELFCHECK_ROWS = (
    'loorf-matrix-equivalence,pass,max absolute gap 2.220e-16',
    'carms-pair-identity,pass,max relative gap 1.945e-16',
    'pmf-validity,pass,"mass gap 8.882e-16, row gap 1.665e-16, off-diagonals positive: True"',
    'unbiasedness-enumeration,pass,max coordinate gap 1.665e-16',
    'antithetic-variance-dominance,pass,"mean gap 1.110e-16, dominated=True, strict=True"',
    'impossible-pair,pass,"P(1, 2) under the identity ordering = 0.0"',
    'copula-uniformity,pass,"min KS p-value 1.457e-02 of 7, bound 1.429e-04"',
    'sampler-marginals,pass,max marginal deviation 2.57 SE',
    'estimator-unbiasedness-mc,pass,"max mean deviation 0.70 SE, max clip fraction 0.00e+00"',
    'sampler-pair-laws,pass,max pair-law deviation 2.24 SE',
    'unbiasedness-enumeration-wide,pass,max coordinate gap 2.220e-16',
)


@pytest.mark.parametrize("level, rows", [("fast", 6), ("full", 11)])
def test_selfcheck_output_is_pinned(level, rows, tmp_path):
    out = tmp_path / "check.csv"
    assert main(["selfcheck", "--level", level, "--seed", "0", "--out-path", str(out)]) == 0
    expected = ["check,status,detail", *PINNED_SELFCHECK_ROWS[:rows]]
    assert out.read_bytes() == "".join(row + "\n" for row in expected).encode()


def _single_ordering_law(p, n):
    return bivariate_pmf_matrix(p, make_ordering(0, 1, len(p)), n)


def _first_coordinate_bent(sample):
    def bent(*args):
        u = sample(*args)
        u[:, 0] **= 1.1
        return u

    return bent


# each check, a name it reads through carms.selfcheck, and a broken stand-in
# made from what that name holds
BROKEN_KERNELS = [
    ("loorf_matrix_equivalence", "carms", lambda carms: lambda *a: 1.01 * carms(*a)),
    ("carms_pair_identity", "carms", lambda carms: lambda *a: 1.01 * carms(*a)),
    ("pmf_validity", "bivariate_pmf_averaged", lambda _: _single_ordering_law),
    ("unbiasedness_enumeration", "bivariate_pmf_averaged", lambda _: _single_ordering_law),
    ("antithetic_variance_dominance", "WORKED_ANTITHETIC_PMF",
     lambda _: np.outer(selfcheck.WORKED_P, selfcheck.WORKED_P)),
    ("impossible_pair", "make_ordering", lambda make: lambda i, j, c: make(0, 1, c)),
    ("copula_uniformity", "_sample_dirichlet_copula_batch", _first_coordinate_bent),
    ("sampler_marginals", "_inverse_cdf_categories_batch",
     lambda draw: lambda k, n, p, rng: draw(k, n, p[::-1], rng)),
    ("sampler_pair_laws", "bivariate_pmf_averaged", lambda _: _single_ordering_law),
    ("estimator_unbiasedness_mc", "make_gradient_estimator",
     lambda make: lambda method, p, *a, **kw: make(method, p[:, ::-1], *a, **kw)),
]


@pytest.mark.parametrize("check, name, broken", BROKEN_KERNELS,
                         ids=[row[0] for row in BROKEN_KERNELS])
def test_each_check_fails_on_a_broken_kernel(check, name, broken, monkeypatch):
    # the acceptance gates rest on these checks, so each must be able to fail
    monkeypatch.setattr(selfcheck, name, broken(getattr(selfcheck, name)))
    result = getattr(selfcheck, f"_check_{check}")(np.random.default_rng(0))
    assert result.passed is False, result.detail


@pytest.mark.parametrize("seed", [54, 105, 116, 137, 200, 202, 232])
def test_copula_uniformity_passes_where_an_uncorrected_bound_failed(seed):
    # the smallest of the check's 7 KS p-values fell below 0.01 at these
    # seeds; the bound now holds the family-wise false-alarm rate
    checks = selfcheck._FAST_CHECKS + selfcheck._FULL_EXTRA_CHECKS
    index = checks.index(selfcheck._check_copula_uniformity)
    rng = np.random.default_rng(np.random.SeedSequence([seed, index]))
    assert selfcheck._check_copula_uniformity(rng).passed


def test_selfcheck_full_level_all_pass():
    from carms.selfcheck import run_selfcheck

    results = run_selfcheck(level="full", seed=0)
    assert len(results) > 6  # full adds the statistical checks
    failed = [r.name for r in results if not r.passed]
    assert failed == [], failed


def test_cli_stdout_dash(capsys):
    assert main(["selfcheck"]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("check,status,detail")


@pytest.mark.parametrize(
    "argv, summary",
    [
        (TOY_ARGS, r"toy: 4 records"),
        (["correlation", "--categories", "2", "--trials", "200"], r"correlation: 1 record"),
        (["selfcheck"], r"selfcheck\[fast\]: 6/6 passed"),
    ],
    ids=["toy", "correlation", "selfcheck"],
)
def test_cli_prints_one_summary_line_per_command(argv, summary, tmp_path, capsys):
    assert main(argv + ["--out-path", str(tmp_path / "out")]) == 0
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and re.fullmatch(summary + r" in \d+\.\d\ds", lines[0]), lines


def test_cli_failed_check_exits_one_and_bad_value_two(monkeypatch, capsys):
    from carms import selfcheck

    def failing(rng):
        return selfcheck.CheckResult("always-fails", False, "by construction")

    monkeypatch.setattr(selfcheck, "_FAST_CHECKS", (failing,) + selfcheck._FAST_CHECKS[1:])
    assert main(["selfcheck"]) == 1
    captured = capsys.readouterr()
    assert "always-fails,fail,by construction" in captured.out
    assert re.fullmatch(r"selfcheck\[fast\]: 5/6 passed in \d+\.\d\ds\n", captured.err)
    assert main(["toy", "--categories", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: need C >= 2 categories and D >= 1 dimensions\n"


def test_cli_usage_errors_exit_two(capsys):
    # config-level validation is caught and mapped to exit code 2
    assert main(["toy", "--method", "bogus", "--inner", "16"]) == 2
    assert "error:" in capsys.readouterr().err
    # argparse-level failures raise SystemExit(2)
    with pytest.raises(SystemExit) as exc:
        main(["toy", "--clip", "-3"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit):
        main(["nonsense"])
    # one copula: there is no family to choose
    with pytest.raises(SystemExit) as exc:
        main(["toy", "--copula", "gaussian"])
    assert exc.value.code == 2
    capsys.readouterr()


@pytest.mark.parametrize("message", [
    "Unable to allocate 74.5 GiB for an array with shape (100000, 100000) and data type int64",
    "",
])
def test_cli_out_of_memory_exits_two_with_one_line(message, monkeypatch, capsys):
    def too_large(*args):
        raise MemoryError(message)

    monkeypatch.setattr(experiments, "_indicator_correlation", too_large)
    assert main(["correlation", "--categories", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: out of memory: {message}\n".replace(": \n", "\n")


@pytest.mark.parametrize("where, code", [("missing/x.csv", errno.ENOENT), ("", errno.EISDIR)],
                         ids=["missing-directory", "directory"])
def test_cli_unwritable_out_path_exits_two_with_one_line(where, code, tmp_path, capsys):
    # a path that cannot be written is a usage error, not a traceback and not
    # a failed selfcheck
    path = tmp_path / where
    assert main(["correlation", "--trials", "100", "--out-path", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: cannot write {path}: {os.strerror(code)}\n"


def test_cli_unwritable_out_path_is_reported_before_the_run(tmp_path, monkeypatch, capsys):
    # the output is opened once the config is built, so the toy run, about 8 s
    # at its defaults, never starts
    def no_run(config):
        raise AssertionError("run_toy was called")

    monkeypatch.setattr(cli, "run_toy", no_run)
    path = tmp_path / "missing" / "x.csv"
    assert main(["toy", "--out-path", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: cannot write {path}: {os.strerror(errno.ENOENT)}\n"


@pytest.mark.parametrize("argv", [
    ["toy", "--alpha", "nan"],
    ["correlation", "--trials", "10"],
    ["selfcheck", "--seed", "-1"],
], ids=["toy", "correlation", "selfcheck"])
def test_cli_bad_flag_value_creates_no_output(argv, tmp_path, capsys):
    # a bad value is reported before the output is opened
    path = tmp_path / "out.csv"
    assert main(argv + ["--out-path", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not path.exists()


def test_cli_nonfinite_clip_exits_two(capsys):
    # nan passes a "<= 0" test, so it must be rejected, not run to nan output
    with pytest.raises(SystemExit) as exc:
        main(["toy", "--clip", "nan", "--inner", "16"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert [line for line in err.splitlines() if "error:" in line] == [
        "carms toy: error: argument --clip: clip must be positive or 'none'"
    ]


@pytest.mark.parametrize("alpha", ["nan", "inf"])
def test_cli_nonfinite_alpha_exits_two(alpha, capsys):
    # rejected with the config's own message before any probability is drawn
    assert main(["toy", "--alpha", f"1,{alpha}", "--inner", "16"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: alphas must be positive and finite\n"


def test_cli_probability_sum_error_prints_a_plain_float():
    with pytest.raises(ValueError, match=r"^probabilities must sum to 1, got 1\.1$"):
        as_probs(np.array([0.5, 0.6]))


@pytest.mark.parametrize("alpha, categories", [("1e308", "10"), ("1e307", "30")])
def test_cli_alpha_that_overflows_the_dirichlet_draw_exits_two(alpha, categories, capsys):
    # alpha * C past the largest float would draw all-zero probabilities
    argv = ["toy", "--alpha", alpha, "--categories", categories, "--dims", "1", "--inner", "16"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: alphas times categories must stay below the largest float\n"


def test_cli_nonfinite_log_variance_serializes(tmp_path):
    # constant objective can produce zero variance -> log is -inf -> null in
    # jsonl, "-inf" text in csv; both must stay loadable
    out = tmp_path / "toy.jsonl"
    args = [
        "toy", "--method", "reinforce", "--categories", "2", "--dims", "1",
        "--samples", "2", "--alpha", "1000000", "--trials", "1", "--inner",
        "8", "--seed", "0", "--output", "jsonl", "--out-path", str(out),
    ]
    assert main(args) == 0
    obj = json.loads(out.read_text())
    jsonschema.validate(obj, _load_schema("toy.schema.json"))


def test_cli_defaults_are_the_config_defaults():
    parser = build_parser()
    assert _config(ToyConfig, parser.parse_args(["toy"])) == ToyConfig()
    assert _config(CorrelationConfig, parser.parse_args(["correlation"])) == CorrelationConfig()


# every flag of a subcommand, a value of it that no default holds, and the
# one config field it sets (None: no field)
FLAG_FIELDS = {
    "toy": {
        "--method": ("loorf", "methods"), "--alpha": ("2,3", "alphas"),
        "--categories": ("3", "categories"), "--dims": ("2", "dims"),
        "--samples": ("3", "samples"), "--trials": ("2", "trials"),
        "--inner": ("50", "inner"), "--seed": ("5", "seed"), "--clip": ("none", "clip"),
    },
    "correlation": {
        "--method": ("gumbel", "method"), "--categories": ("4", "categories"),
        "--samples": ("3", "samples"), "--trials": ("200", "draws"), "--seed": ("5", "seed"),
    },
}
OTHER_FLAGS = {"--output": ("jsonl", None), "--out-path": ("x.csv", None)}


@pytest.mark.parametrize(
    "command, cls", [("toy", ToyConfig), ("correlation", CorrelationConfig)]
)
def test_each_config_field_is_set_by_exactly_one_flag(command, cls):
    parser = build_parser()
    sub = parser._subparsers._group_actions[0].choices[command]
    flags = {opt for action in sub._actions for opt in action.option_strings} - {"-h", "--help"}
    table = {**FLAG_FIELDS[command], **OTHER_FLAGS}
    assert flags == set(table)
    fields = [field.name for field in dataclasses.fields(cls)]
    # every field has one flag of its own
    assert sorted(f for _, f in FLAG_FIELDS[command].values()) == sorted(fields)
    default = cls()
    for flag, (value, field) in table.items():
        config = _config(cls, parser.parse_args([command, flag, value]))
        changed = [f for f in fields if getattr(config, f) != getattr(default, f)]
        assert changed == ([field] if field else []), flag


# ---------------------------------------------------------------------------
# CLI (subprocess: the installed entry point and byte determinism)


def _run_module(args):
    return subprocess.run(
        [sys.executable, "-m", "carms", *args],
        capture_output=True,
        text=True,
        timeout=300,
    )


def test_module_entry_point_runs():
    proc = _run_module(["selfcheck"])
    assert proc.returncode == 0
    assert proc.stdout.startswith("check,status,detail")
    assert "selfcheck[fast]" in proc.stderr


def test_module_subnormal_probability_warns_nothing():
    # alpha = 0.001 draws probabilities far below the smallest normal float;
    # the Gumbel diagonal must not turn their overflowing ratios into nan
    args = ["toy", "--alpha", "0.001", "--categories", "30", "--dims", "2",
            "--trials", "2", "--inner", "100", "--method", "carms-g"]
    proc = subprocess.run([sys.executable, "-W", "error", "-m", "carms", *args],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert "Warning" not in proc.stderr


def test_module_reruns_are_byte_identical(tmp_path):
    args = [
        "toy", "--method", "carms-i,carms-g", "--categories", "3", "--dims",
        "1", "--samples", "3", "--alpha", "1.0,10.0", "--trials", "2",
        "--inner", "64", "--seed", "11", "--output", "csv", "--out-path",
    ]
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    assert _run_module(args + [str(out_a)]).returncode == 0
    assert _run_module(args + [str(out_b)]).returncode == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    assert out_a.stat().st_size > 0


# scipy takes most of a cold import; only the full selfcheck's KS tests use it
FRESH_IMPORT_RUN = """
import json, sys
from carms.cli import main
out = sys.argv[1]
seen = ["scipy" in sys.modules]
small = ["--categories", "3", "--out-path", out]
codes = [main(["toy", "--method", "all", "--dims", "1", "--trials", "1", "--inner", "16",
               *small])]
codes += [main(["correlation", "--method", method, "--trials", "200", *small])
          for method in ("inverse-cdf", "gumbel", "independent")]
seen.append("scipy" in sys.modules)
codes.append(main(["selfcheck", "--level", "full", "--out-path", out]))
seen.append("scipy" in sys.modules)
print(json.dumps({"seen": seen, "codes": codes}))
"""


def test_only_the_full_selfcheck_imports_scipy(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c", FRESH_IMPORT_RUN, str(tmp_path / "out.csv")],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    # import carms.cli, every toy method and every correlation method leave
    # scipy out; the full selfcheck loads it
    assert result == {"seen": [False, False, True], "codes": [0] * 5}


# the selfcheck and the oracles it judges by load on its first run only
FRESH_SELFCHECK_RUN = """
import json, sys
from carms.cli import main
out = sys.argv[1]
lazy = ("carms.selfcheck", "carms.oracle")
seen = [[name in sys.modules for name in lazy]]
small = ["--categories", "3", "--out-path", out]
codes = [main(["toy", "--dims", "1", "--trials", "1", "--inner", "16", *small]),
         main(["correlation", "--trials", "200", *small])]
seen.append([name in sys.modules for name in lazy])
codes.append(main(["selfcheck", "--out-path", out]))
seen.append([name in sys.modules for name in lazy])
print(json.dumps({"seen": seen, "codes": codes}))
"""


def test_only_the_selfcheck_imports_the_selfcheck_and_the_oracles(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c", FRESH_SELFCHECK_RUN, str(tmp_path / "out.csv")],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result == {"seen": [[False, False], [False, False], [True, True]],
                      "codes": [0, 0, 0]}


# the Gaussian copula, reached through sample_copula_batch only, loads
# scipy.special on its first draw; the Dirichlet draws and pair laws never do
FRESH_GAUSSIAN_RUN = """
import json, sys
import numpy as np
from carms.copula import GAUSSIAN, sample_copula_batch
from carms.sampling import gumbel_pair_pmf, sample_antithetic_gumbel
p, rng = np.array([0.5, 0.3, 0.2]), np.random.default_rng(0)
seen = ["scipy" in sys.modules]
sample_antithetic_gumbel(3, p, rng)
gumbel_pair_pmf(p, 3)
seen.append("scipy" in sys.modules)
sample_copula_batch(GAUSSIAN, 5, 3, rng)
seen.append("scipy.special" in sys.modules)
print(json.dumps(seen))
"""


def test_scipy_is_imported_on_first_gaussian_use_only():
    proc = subprocess.run(
        [sys.executable, "-c", FRESH_GAUSSIAN_RUN],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [False, False, True]


# ---------------------------------------------------------------------------
# scripts and the benchmark's traced names

REPO = Path(__file__).resolve().parents[1]


def _load_by_path(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_toy_sweep_script_writes_the_cli_toy_csv(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    sweep = _load_by_path("run_toy_sweep", REPO / "scripts" / "run_toy_sweep.py")
    size = ["--categories", "3", "--dims", "2", "--trials", "1", "--inner", "50"]
    sweep.main(size + ["--out", "sweep.csv"])
    assert main(["toy", *size, "--out-path", "toy.csv"]) == 0
    sweep_lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert sweep_lines[0] == (tmp_path / "toy.csv").read_text().splitlines()[0]
    assert sweep_lines[0] == ",".join(TOY_HEADER)
    assert len(sweep_lines) == 1 + 4 * 4  # methods x alphas, one trial


def test_correlation_grid_script_matches_the_cli_cell(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    grid = _load_by_path("run_correlation_grid", REPO / "scripts" / "run_correlation_grid.py")
    size = ["--categories", "3", "--samples", "2"]
    grid.main(size + ["--draws", "200", "--out", "grid.csv"])
    argv = ["correlation", "--method", "gumbel", *size, "--trials", "200"]
    assert main(argv + ["--out-path", "cli.csv"]) == 0
    with open(tmp_path / "grid.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    with open(tmp_path / "cli.csv", newline="") as fh:
        (cli_row,) = csv.DictReader(fh)
    assert len(rows) == 3
    (cell,) = [r for r in rows if r["method"] == "gumbel"]
    assert cell["corr"] == cli_row["corr"]


def test_layer_benchmark_script_runs_its_in_process_stages(monkeypatch):
    # bench_layers.py calls the Gumbel kernels by their private signatures;
    # its whole run takes about 20 s, so only its in-process stages run here
    # loading the script changes neither the import path nor the environment
    path, environ = list(sys.path), dict(os.environ)
    bench = _load_by_path("bench_layers", REPO / "scripts" / "bench_layers.py")
    assert sys.path == path and dict(os.environ) == environ
    monkeypatch.setattr(bench, "CALLS", 4)
    sizes = {str(c) for c in bench.SIZES}
    record = bench.layers(64, 1)
    timings = [*record["us_per_draw_dim"].values(), *record["pair_law_ms_per_build"].values()]
    assert set(record["pair_law_ms_per_build"]) == {
        "inverse_cdf", "gumbel", "inverse_cdf_offdiag", "gumbel_offdiag"}
    calls = bench.single_draw(1)
    assert calls["calls"] == 4 and "sample_antithetic_gumbel_fresh_p" in calls["us_per_call"]
    for by_size in timings + list(calls["us_per_call"].values()):
        assert set(by_size) == sizes and all(v > 0.0 for v in by_size.values())
    # the public-API stages: estimator builds per (C, D) stack, toy cells per workload
    api = bench.api(1)["api_ms_per_call"]
    stacks = {f"C={c},D={d}" for c, d in bench.STACKS}
    assert api.keys() == {"make_gradient_estimator_carms-i", "make_gradient_estimator_carms-g",
                          "run_toy_cell"}
    assert set(api["run_toy_cell"]) == {"toy_setups", "toy_draws"}
    for stage, by_size in api.items():
        assert set(by_size) == (set(bench.TOY_CELLS) if stage == "run_toy_cell" else stacks)
        assert all(v > 0.0 for v in by_size.values())
    # the paired mode against this same tree, loaded under another name and
    # dropped again from sys.modules
    modules = set(sys.modules)
    paired = bench.paired_layers(str(REPO / "src"), 64, 2)["paired"]
    assert set(sys.modules) == modules
    expected = {**{key: {stage: sizes for stage in record[key]}
                   for key in ("us_per_draw_dim", "pair_law_ms_per_build")},
                "api_ms_per_call": {stage: set(by_size) for stage, by_size in api.items()}}
    for key, stages in expected.items():
        assert {stage: set(by_size) for stage, by_size in paired[key].items()} == stages
        for by_size in paired[key].values():
            for cell in by_size.values():
                assert cell["this"] > 0.0 and cell["other"] > 0.0
                assert cell["ratio_median"] > 0.0 and 0.0 <= cell["this_faster_share"] <= 1.0


def test_benchmark_tracer_finds_every_traced_name():
    # the benchmark rebinds carms functions by name; a rename would leave
    # its span empty without failing the run
    spans = _load_by_path("perfbench_spans", REPO / "perfbench" / "spans.py")
    tracer = spans.Tracer()
    try:
        tracer.install()
        assert tracer.missing == []
    finally:
        tracer.uninstall()
