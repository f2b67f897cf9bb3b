"""Experiment drivers: a linear toy benchmark and pair-correlation scans.

The toy problem draws per-dimension category probabilities from a Dirichlet
prior, fixes the linear objective f(z) = sum_d d * c_d (both indices
1-based), and measures each estimator's per-coordinate gradient variance over
an inner Monte Carlo loop.  Trials are paired: every method at a given
(alpha, trial) sees the same probability draw and the same estimator seed.

Correlation scans report the C x C matrix corr(z_i, z'_j) between indicator
coordinates of the first two samples of a joint draw, which is the quickest
way to see how strongly a sampling path anticorrelates its samples.

A sampling path (inverse-CDF, Gumbel-max or independent) is named in one
place, _path, which both drivers call; the toy methods map onto the paths,
and LOORF and REINFORCE are score estimators on the independent one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.random import SeedSequence, default_rng

from .estimators import _carms_estimates, _score_sums
from .sampling import (
    GUMBEL_BLOCK,
    _analytic_ratio_matrix,
    _categorize_batch,
    _check_clip,
    _clip_flags,
    _gumbel_categories_batch,
    _gumbel_offdiag_law,
    _inverse_cdf_categories_batch,
    _inverse_cdf_offdiag_law,
    _prob_rows,
)

TOY_METHODS = ("carms-i", "carms-g", "loorf", "reinforce")
CORRELATION_METHODS = ("inverse-cdf", "gumbel", "independent")
_TOY_PATHS = dict(zip(TOY_METHODS, ("inverse-cdf", "gumbel", "independent", "independent")))


@dataclass(frozen=True)
class LinearToyObjective:
    """f(z) = sum_d d * c_d with 1-based dimension and category indices.

    Evaluated in closed form, so it costs nothing to build at any (C, D);
    it offers the dims, n_categories and values_at that the estimators and
    the enumeration oracles read from a TabulatedObjective.
    """

    n_categories: int
    dims: int

    def values_at(self, assignments) -> np.ndarray:
        """Values at an (..., D) integer array of assignments."""
        cats = np.asarray(assignments, dtype=np.int64)
        # integer column sums, exact in any order
        total = cats[..., 0] + 1
        for d in range(1, self.dims):
            total += (cats[..., d] + 1) * (d + 1)
        return total.astype(float)


def toy_objective(n_categories: int, dims: int) -> LinearToyObjective:
    """The toy benchmark's linear objective over C categories and D dimensions."""
    return LinearToyObjective(int(n_categories), int(dims))


def _iid_categories(k: int, n: int, p: np.ndarray, rng: np.random.Generator,
                    keep=None) -> np.ndarray:
    """k draws of n independent categories, GUMBEL_BLOCK uniforms a block; the
    generator fills arrays in order, so the blocks take one (k, n) draw's stream."""
    right = p.cumsum()
    step = max(1, GUMBEL_BLOCK // n)
    if k <= step:  # one block, as drawn: a copy into out raised toy-draws' peak RSS 0.4 MB
        return _categorize_batch(rng.random((k, n))[:, :keep], right)
    out = np.empty((k, n if keep is None else keep), dtype=np.intp)
    for start in range(0, k, step):
        u = rng.random((min(step, k - start), n))[:, :keep]
        out[start : start + step] = _categorize_batch(u, right)
    return out


def _path(name: str):
    """A sampling path's draw(k, n, p, rng, keep=None) -> (k, n) categories
    and its off-diagonal pair law(p, n), None for independent samples.  A
    draw given keep returns the leading keep samples, (k, keep): it still
    takes every uniform of the whole draw from rng, so the stream and the
    kept samples are bit for bit those of the whole draw.

    The functions are this module's bindings when called, so a rebinding of
    them (as a tracer makes) is the one every driver reaches.
    """
    if name == "inverse-cdf":
        return _inverse_cdf_categories_batch, _inverse_cdf_offdiag_law
    if name == "gumbel":
        return _gumbel_categories_batch, _gumbel_offdiag_law
    if name == "independent":
        return _iid_categories, None
    raise ValueError(f"unknown sampling path {name!r}; expected one of {CORRELATION_METHODS}")


def _empirical_joint_batch(counts: np.ndarray, n_samples: int) -> np.ndarray:
    """All-pairs joint PMF per draw from category counts (k, C).

    The share of the N (N - 1) ordered sample pairs of each draw that land
    in (i, j).  The samples of one draw are exchangeable, so its mean over
    draws estimates the pair law; no estimator takes ratios from it.
    """
    joint = np.einsum("ki,kj->kij", counts, counts)
    idx = np.arange(counts.shape[1])
    joint[:, idx, idx] -= counts
    return joint / (n_samples * (n_samples - 1))


def make_gradient_estimator(
    method: str,
    p,
    n_samples: int,
    objective,
    *,
    clip: float | None = 10.0,
):
    """Build fn(rng, k) -> (estimates (k, D, C), clipped flags (k,) or None).

    The returned callable vectorizes k independent runs of the chosen
    estimator on the joint objective (anything with dims, n_categories and
    values_at over (..., D) assignments), for Monte Carlo moment studies.
    """
    if method not in TOY_METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {TOY_METHODS}")
    p = _prob_rows(np.atleast_2d(p))
    dims, c = p.shape
    if objective.dims != dims or objective.n_categories != c:
        raise ValueError("objective and probabilities disagree on (D, C)")
    n = int(n_samples)
    if n < 2 and method != "reinforce":
        raise ValueError("pair-based estimators need N >= 2")
    if n < 1:
        raise ValueError("need at least one sample")
    _check_clip(clip)
    draw, law = _path(_TOY_PATHS[method])
    # exact ratios of all D dimensions from one law build; the independent path needs none
    fixed = None if law is None else _analytic_ratio_matrix(p, law(p, n), clip)

    def estimate(rng, k):
        cats = np.stack([draw(k, n, row, rng) for row in p], axis=-1)
        f = objective.values_at(cats)
        g = np.empty((k, dims, c))
        if fixed is None:  # leave-one-out or plain score weights
            w = (f - f.mean(axis=1, keepdims=True)) / (n - 1) if method == "loorf" else f / n
            for d in range(dims):
                g[:, d] = _score_sums(w, cats[:, :, d], p[d])
            return g, None
        flags = np.zeros(k, dtype=bool)
        for d, (ratios, exceed) in enumerate(zip(*fixed)):
            g[:, d] = _carms_estimates(f, cats[:, :, d], ratios, p[d])
            if exceed.any():
                flags |= _clip_flags(exceed, cats[:, :, d])
        return g, flags

    return estimate


@dataclass(frozen=True)
class ToyConfig:
    """Sweep configuration for the linear toy benchmark."""

    methods: tuple = TOY_METHODS
    alphas: tuple = (1.0, 10.0, 100.0, 1000.0)
    categories: int = 10
    dims: int = 10
    samples: int = 4
    trials: int = 10
    inner: int = 10_000
    seed: int = 0
    clip: float | None = 10.0

    def __post_init__(self):
        if not self.methods or any(m not in TOY_METHODS for m in self.methods):
            raise ValueError(f"methods must be drawn from {TOY_METHODS}")
        if not self.alphas or any(not 0.0 < a < np.inf for a in self.alphas):  # a nan fails too
            raise ValueError("alphas must be positive and finite")
        if self.categories < 2 or self.dims < 1:
            raise ValueError("need C >= 2 categories and D >= 1 dimensions")
        if any(float(a) * self.categories >= np.finfo(float).max for a in self.alphas):
            # the Dirichlet draw of p would overflow to all-zero probabilities
            raise ValueError("alphas times categories must stay below the largest float")
        if self.samples < 2:
            raise ValueError("pair-based methods need N >= 2 samples")
        if self.trials < 1 or self.inner < 2:
            raise ValueError("need trials >= 1 and inner >= 2")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        _check_clip(self.clip)


# draws per chunk of a toy record: --inner's default, so no run up to it changes
TOY_CHUNK = 10_000


def run_toy(config: ToyConfig):
    """Yield one record per (alpha, trial, method), deterministically ordered.

    The probability draw at (alpha, trial) is shared by every method, and all
    methods reseed their estimator stream identically, so cross-method
    comparisons at a fixed trial are paired.
    """
    objective = toy_objective(config.categories, config.dims)
    for a_idx, alpha in enumerate(config.alphas):
        for trial in range(config.trials):
            probs_rng = default_rng(SeedSequence([config.seed, a_idx, trial, 0]))
            p = probs_rng.dirichlet(
                np.full(config.categories, float(alpha)), size=config.dims
            )
            for method in config.methods:
                estimate = make_gradient_estimator(
                    method, p, config.samples, objective, clip=config.clip
                )
                est_rng = default_rng(SeedSequence([config.seed, a_idx, trial, 1]))
                # Chan et al.'s exact merge of two-pass chunk moments (one chunk is
                # g.var(ddof=1)); g keeps its pages for the next draw to reuse
                mean, m2, clipped = 0.0, 0.0, 0
                for done in range(0, config.inner, TOY_CHUNK):
                    k = min(TOY_CHUNK, config.inner - done)
                    g, flags = estimate(est_rng, k)
                    chunk_mean = g.mean(axis=0)
                    delta = chunk_mean - mean
                    m2 = m2 + ((g - chunk_mean) ** 2).sum(axis=0)
                    m2 += delta**2 * (done * k / (done + k))
                    mean = mean + delta * (k / (done + k))
                    clipped += 0 if flags is None else int(np.count_nonzero(flags))
                var = m2 / (config.inner - 1)
                var_sum = float(var.sum())
                with np.errstate(divide="ignore"):
                    log_var_sum = float(np.log(var_sum))
                    log_var_mean = float(np.log(var_sum / var.size))
                yield {
                    "method": method,
                    "categories": config.categories,
                    "dims": config.dims,
                    "samples": config.samples,
                    "alpha": float(alpha),
                    "trials": config.trials,
                    "trial": trial,
                    "inner": config.inner,
                    "seed": config.seed,
                    "clip": config.clip,
                    "probs": p,
                    "var": var,
                    "var_sum": var_sum,
                    "log_var_sum": log_var_sum,
                    "log_var_mean": log_var_mean,
                    "clip_fraction": clipped / config.inner,
                }


@dataclass(frozen=True)
class CorrelationConfig:
    """Configuration for one pair-correlation scan at uniform probabilities."""

    method: str = "inverse-cdf"
    categories: int = 3
    samples: int = 2
    draws: int = 1000
    seed: int = 0

    def __post_init__(self):
        if self.method not in CORRELATION_METHODS:
            raise ValueError(f"method must be one of {CORRELATION_METHODS}")
        if self.categories < 2:
            raise ValueError("need C >= 2 categories")
        if self.samples < 2:
            raise ValueError("a pair needs N >= 2 samples")
        if self.draws < 100:
            raise ValueError("need at least 100 draws for a usable correlation")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")


def _indicator_correlation(a: np.ndarray, b: np.ndarray, c: int) -> np.ndarray:
    """corr(1{a = i}, 1{b = j}) over draws from their counts; nan where constant.
    The numerator and the denominator are the only (C, C) arrays made."""
    k = a.size
    corr = np.bincount(a * c + b, minlength=c * c).reshape(c, c)
    na, nb = np.bincount(a, minlength=c), np.bincount(b, minlength=c)
    corr *= k
    corr -= np.outer(na, nb)
    denom = np.outer(na * (k - na), (nb * (k - nb)).astype(float))
    np.sqrt(denom, out=denom)
    # a constant indicator has a numerator and a denominator of 0: 0 / 0 = nan
    with np.errstate(invalid="ignore"):
        corr = np.divide(corr, denom, out=denom)
    # rounding can push a perfect (anti)correlation an ulp past +-1
    return np.clip(corr, -1.0, 1.0, out=corr)


def run_correlation(config: CorrelationConfig) -> dict:
    """Correlation matrix of the first two samples' indicators at uniform p;
    the draw forms those two samples only."""
    c = config.categories
    p = np.full(c, 1.0 / c)
    rng = default_rng(SeedSequence([config.seed]))
    cats = _path(config.method)[0](config.draws, config.samples, p, rng, keep=2)
    corr = _indicator_correlation(cats[:, 0], cats[:, 1], c)
    return {
        "method": config.method,
        "categories": c,
        "samples": config.samples,
        "draws": config.draws,
        "seed": config.seed,
        "corr": corr,
    }
