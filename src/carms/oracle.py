"""Brute-force ground truth for small categorical problems.

Everything here enumerates: the exact gradient comes from summing the score
identity over every assignment, and the exact estimator moments come from
summing over every ordered pair of assignments weighted by the pair PMF.
These are the references the sampled estimators are tested against, so they
deliberately share no code with the estimator implementations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

ENUMERATION_LIMIT = 10**6


class InconsistentDistributionError(ValueError):
    """A pair PMF's marginals disagree with the distribution they claim."""


def softmax(phi: np.ndarray) -> np.ndarray:
    """Row-wise stable softmax."""
    phi = np.asarray(phi, dtype=float)
    shifted = phi - phi.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


@dataclass(frozen=True)
class TabulatedObjective:
    """A function of D categorical arguments stored as a complete (C,)*D table."""

    table: np.ndarray

    def __post_init__(self):
        table = np.asarray(self.table, dtype=float)
        if table.ndim < 1:
            raise ValueError("the table needs at least one categorical argument")
        c = table.shape[0]
        if c < 2 or table.shape != (c,) * table.ndim:
            raise ValueError("the table must be (C,)*D with C >= 2")
        if not np.all(np.isfinite(table)):
            raise ValueError("the table must be finite everywhere")
        object.__setattr__(self, "table", table)

    @property
    def dims(self) -> int:
        return self.table.ndim

    @property
    def n_categories(self) -> int:
        return self.table.shape[0]

    def value(self, assignment) -> float:
        return float(self.table[tuple(np.asarray(assignment, dtype=np.int64))])

    def values_at(self, assignments: np.ndarray) -> np.ndarray:
        """Vectorized lookup for an (..., D) integer array of assignments."""
        idx = np.asarray(assignments, dtype=np.int64)
        return self.table[tuple(np.moveaxis(idx, -1, 0))]

    @classmethod
    def from_function(cls, fn, n_categories: int, dims: int) -> "TabulatedObjective":
        assignments = _assignments(n_categories, dims)
        table = np.array([fn(a) for a in assignments]).reshape((n_categories,) * dims)
        return cls(table)


def _as_phi(phi) -> np.ndarray:
    arr = np.atleast_2d(np.asarray(phi, dtype=float))
    if arr.ndim != 2 or not np.all(np.isfinite(arr)):
        raise ValueError("logits must be a finite (D, C) array")
    return arr


def _check_objective(f: TabulatedObjective, phi: np.ndarray):
    d, c = phi.shape
    if f.dims != d or f.n_categories != c:
        raise ValueError("objective table and logits disagree on (D, C)")
    if c**d > ENUMERATION_LIMIT:
        raise ValueError(
            f"enumeration over C^D = {c}^{d} assignments exceeds {ENUMERATION_LIMIT}"
        )


def _assignments(c: int, d: int) -> np.ndarray:
    grids = np.meshgrid(*[np.arange(c)] * d, indexing="ij")
    return np.stack(grids, axis=-1).reshape(-1, d)


def expected_value(f: TabulatedObjective, phi) -> float:
    """E[f(Z)] under independent Z_d ~ Cat(softmax(phi_d)), by enumeration."""
    phi = _as_phi(phi)
    _check_objective(f, phi)
    p = softmax(phi)
    a = _assignments(f.n_categories, f.dims)
    weights = np.prod(p[np.arange(f.dims)[None, :], a], axis=1)
    return float(weights @ f.values_at(a))


def exact_gradient(f: TabulatedObjective, phi) -> np.ndarray:
    """d E[f] / d phi via the enumerated score identity; returns (D, C).

    For each dimension, E[f(Z) (z_d - p_d)] summed over all assignments, which
    is the softmax-Jacobian gradient written without differentiating anything.
    """
    phi = _as_phi(phi)
    _check_objective(f, phi)
    d, c = phi.shape
    p = softmax(phi)
    a = _assignments(c, d)
    weights = np.prod(p[np.arange(d)[None, :], a], axis=1)
    wf = weights * f.values_at(a)
    grad = np.empty((d, c))
    for dim in range(d):
        per_cat = np.bincount(a[:, dim], weights=wf, minlength=c)
        grad[dim] = per_cat - p[dim] * wf.sum()
    return grad


def finite_difference_gradient(f: TabulatedObjective, phi, step: float = 1e-5) -> np.ndarray:
    """Central differences of the enumerated E[f]; the slow cross-check."""
    phi = _as_phi(phi)
    _check_objective(f, phi)
    grad = np.empty_like(phi)
    for dim in range(phi.shape[0]):
        for cat in range(phi.shape[1]):
            hi = phi.copy()
            lo = phi.copy()
            hi[dim, cat] += step
            lo[dim, cat] -= step
            grad[dim, cat] = (expected_value(f, hi) - expected_value(f, lo)) / (2 * step)
    return grad


@dataclass(frozen=True)
class ExactMoments:
    """Exact per-coordinate mean and variance of a pair estimator, (D, C) each."""

    mean: np.ndarray
    variance: np.ndarray


def _as_pmf_stack(pmf, d: int, c: int) -> np.ndarray:
    arr = np.asarray(pmf, dtype=float)
    if arr.ndim == 2:
        arr = arr[None, :, :]
    if arr.shape != (d, c, c):
        raise ValueError("need one C x C pair PMF per dimension")
    if np.any(arr < 0.0) or not np.all(np.isfinite(arr)):
        raise ValueError("pair PMF entries must be finite and nonnegative")
    return arr


def exact_carms_expectation(
    f: TabulatedObjective, phi, pmf, *, chunk_size: int = 200_000
) -> ExactMoments:
    """Exact mean and per-coordinate variance of the debiased pair estimator.

    Enumerates every ordered pair of joint assignments (a, b), weighting by
    prod_d pmf_d[a_d, b_d], and evaluates
        (1/2) (f(a) - f(b)) (e_{a_d} - e_{b_d}) p_{d,a_d} p_{d,b_d} / pmf_d[a_d, b_d]
    per dimension.  Pairs of zero probability never occur and are skipped.
    """
    phi = _as_phi(phi)
    _check_objective(f, phi)
    d, c = phi.shape
    if c ** (2 * d) > ENUMERATION_LIMIT:
        raise ValueError(
            f"pair enumeration over C^2D = {c}^{2 * d} exceeds {ENUMERATION_LIMIT}"
        )
    p = softmax(phi)
    pmf = _as_pmf_stack(pmf, d, c)
    marginal_gap = np.abs(pmf.sum(axis=2) - p).max()
    if marginal_gap > 1e-8:
        raise InconsistentDistributionError(
            f"pair PMF row sums disagree with softmax(phi) marginals by {marginal_gap:.3g}"
        )

    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = p[:, :, None] * p[:, None, :] / pmf
    a = _assignments(c, d)
    values = f.values_at(a)
    k = a.shape[0]

    mean = np.zeros((d, c))
    second = np.zeros((d, c))
    for start in range(0, k * k, chunk_size):
        flat = np.arange(start, min(start + chunk_size, k * k))
        ia, ib = flat // k, flat % k
        weights = np.prod(pmf[np.arange(d)[None, :], a[ia], a[ib]], axis=1)
        live = weights > 0.0
        if not np.any(live):
            continue
        ia, ib, weights = ia[live], ib[live], weights[live]
        df = values[ia] - values[ib]
        for dim in range(d):
            cat_a, cat_b = a[ia, dim], a[ib, dim]
            coef = 0.5 * df * ratios[dim, cat_a, cat_b]
            wc = weights * coef
            wc2 = weights * coef * coef
            mean[dim] += np.bincount(cat_a, weights=wc, minlength=c)
            mean[dim] -= np.bincount(cat_b, weights=wc, minlength=c)
            # (e_i - e_j)_c^2 is 1 at c = i and c = j when i != j, else 0.
            same = cat_a == cat_b
            second[dim] += np.bincount(cat_a, weights=np.where(same, 0.0, wc2), minlength=c)
            second[dim] += np.bincount(cat_b, weights=np.where(same, 0.0, wc2), minlength=c)
    return ExactMoments(mean, np.maximum(second - mean**2, 0.0))


@dataclass(frozen=True)
class McMoments:
    """Monte Carlo estimate of an estimator's mean, variance, and their scale."""

    mean: np.ndarray
    variance: np.ndarray
    stderr: np.ndarray
    trials: int
    clip_fraction: float


def mc_estimator_moments(
    estimate_fn,
    trials: int,
    rng: np.random.Generator,
    *,
    chunk_size: int = 20_000,
) -> McMoments:
    """Sample an estimator `trials` times and report per-coordinate moments.

    estimate_fn(rng, k) must return (estimates with leading axis k, clipped
    flags of shape (k,) or None).  Chunks take numpy's two-pass variance and
    merge exactly, so one chunk gives est.var(axis=0, ddof=1) bit for bit.
    stderr is the standard error of the mean; at least 10^3 trials are
    recommended for the normal bands to be usable.
    """
    if trials < 2:
        raise ValueError("need at least two trials to estimate a variance")
    mean = m2 = 0.0
    n_clipped = 0
    done = 0
    while done < trials:
        k = min(chunk_size, trials - done)
        est, clipped = estimate_fn(rng, k)
        est = np.asarray(est, dtype=float)
        if est.shape[0] != k:
            raise ValueError("estimate_fn returned the wrong number of estimates")
        # Chan et al.'s merge, which takes the first chunk (done = 0) as it is
        chunk_mean = est.mean(axis=0)
        delta = chunk_mean - mean
        m2 = m2 + ((est - chunk_mean) ** 2).sum(axis=0) + delta**2 * (done * k / (done + k))
        mean = mean + delta * (k / (done + k))
        if clipped is not None:
            n_clipped += int(np.count_nonzero(clipped))
        done += k
    variance = m2 / (trials - 1)
    stderr = np.sqrt(variance / trials)
    return McMoments(mean, variance, stderr, trials, n_clipped / trials)
