"""Ground truth for small categorical problems; it imports nothing from carms.

The exact gradient and estimator moments enumerate every assignment or
ordered pair of assignments.  The inverse-CDF path's single-ordering pair
laws (with their anchored orderings, cell edges and copula CDF), loorf in
matrix form and carms as a pair sum are written out again here, so that a
defect in the kernels they judge cannot cancel against them.  arms, which
carms is at C = 2, and the copula pair correlation it reads live only here.
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


def _as_samples(f, z) -> tuple[np.ndarray, np.ndarray]:
    """Finite values (N,) and one-hot rows (N, C) of N >= 2 samples."""
    f = np.asarray(f, dtype=float)
    z = np.asarray(z, dtype=float)
    onehot = z.ndim == 2 and np.all((z == 0.0) | (z == 1.0)) and np.all(z.sum(axis=1) == 1.0)
    if f.ndim != 1 or f.size < 2 or not np.all(np.isfinite(f)) or not onehot or len(z) != f.size:
        raise ValueError("need N >= 2 finite function values and N one-hot sample rows")
    return f, z


def _as_probs(p, c: int) -> np.ndarray:
    p = np.asarray(p, dtype=float)
    if p.shape != (c,) or not np.all(np.isfinite(p) & (p >= 0.0)) or abs(p.sum() - 1.0) > 1e-12:
        raise ValueError(f"need a probability vector over {c} categories")
    return p


def loorf_matrix_form(f, z, p) -> np.ndarray:
    """(1/N) f^T [I - (1/(N-1)) (1 - I)] (Z - 1 p^T); equals loorf algebraically."""
    f, z = _as_samples(f, z)
    p = _as_probs(p, z.shape[1])
    n = f.size
    m = np.eye(n) - (np.ones((n, n)) - np.eye(n)) / (n - 1)
    return f @ m @ (z - p) / n


def carms_pair_sum(f, z, ratios) -> np.ndarray:
    """(1/(N(N-1))) sum over ordered sample pairs (a, b) of the paper's pair
    term (1/2) (f_a - f_b) (z_a - z_b) r[c_a, c_b]; a pair in one category adds
    0 and reads no ratio.  The slow reference for the batched carms."""
    f, z = _as_samples(f, z)
    n, c = z.shape
    r = np.asarray(getattr(ratios, "ratios", ratios), dtype=float)  # a RatioMatrix too
    if r.shape != (c, c):
        raise ValueError("ratio matrix does not match the category count")
    cats = z.argmax(axis=1)
    total = np.zeros(c)
    for a in range(n):
        for b in np.flatnonzero(cats != cats[a]):
            total += 0.5 * (f[a] - f[b]) * (z[a] - z[b]) * r[cats[a], cats[b]]
    return total / (n * (n - 1))


def arms_binary(f, b, p, rho) -> np.ndarray:
    """arms, leave-one-out over D antithetic Bernoulli coordinates: the gradient
    g_d = (1/(N-1)) sum_n (f_n - fbar) (b_nd - p_d) / (1 - rho_d) in the Bernoulli
    logits.  carms at C = 2 is this on the category-0 indicators."""
    f = np.asarray(f, dtype=float)
    b = np.asarray(b, dtype=float)
    if f.ndim != 1 or f.size < 2 or not np.all(np.isfinite(f)):
        raise ValueError("arms needs N >= 2 finite function values")
    if b.ndim != 2 or b.shape[0] != f.size or not np.all((b == 0.0) | (b == 1.0)):
        raise ValueError("b must be an N x D matrix of 0s and 1s")
    p = np.atleast_1d(np.asarray(p, dtype=float))
    rho = np.broadcast_to(np.asarray(rho, dtype=float), p.shape)
    if p.shape != (b.shape[1],):
        raise ValueError("need one success probability per coordinate")
    if not np.all((p > 0.0) & (p < 1.0)):  # a nan fails this too
        raise ValueError("success probabilities must lie strictly inside (0, 1)")
    if not np.all(np.isfinite(rho) & (rho < 1.0)):
        raise ValueError("antithetic correction requires a finite rho < 1")
    return (f - f.mean()) @ (b - p) / (1.0 - rho) / (f.size - 1)


class Ordering:
    """A category-to-position permutation anchored at a pair (i, j): perm[k] is
    the position of category k, with i at position 0 and j at the last one,
    which maximally separates their cells for an antithetic copula draw."""

    def __init__(self, perm, anchor: tuple[int, int]):
        self.perm = np.asarray(perm, dtype=np.int64)
        self.anchor = tuple(map(int, anchor))
        self.n_categories = self.perm.size
        self.inverse = np.argsort(self.perm)
        c = self.n_categories
        i, j = self.anchor
        if c < 2 or not np.array_equal(np.sort(self.perm), np.arange(c)):
            raise ValueError("perm must be a permutation of 0..C-1 with C >= 2")
        if self.perm[i] != 0 or self.perm[j] != c - 1:  # so i != j, as C >= 2
            raise ValueError("anchor must map to the first and last positions")

    def permuted(self, p) -> np.ndarray:
        """Probabilities rearranged into position order (inverse[position] = category)."""
        return np.asarray(p, dtype=float)[self.inverse]


def make_ordering(i: int, j: int, n_categories: int) -> Ordering:
    """Rotate category i to position 0, then j and the category left last trade places."""
    c = int(n_categories)
    if not (0 <= i < c and 0 <= j < c):
        raise ValueError("anchor categories out of range")
    perm = (np.arange(c) - i) % c
    last = (i - 1) % c
    perm[[j, last]] = perm[[last, j]]
    return Ordering(perm, (i, j))  # which rejects i == j: the swap moves i from 0


def all_orderings(n_categories: int) -> list[Ordering]:
    """The C(C-1)/2 anchored orderings, one per category pair i < j, in number order."""
    c = int(n_categories)
    return [make_ordering(i, j, c) for i in range(c) for j in range(i + 1, c)]


def _copula_cdf(x, y, n: int) -> np.ndarray:
    """C(x, y) = x + y - 1 + max(0, (1-x)^(1/(N-1)) + (1-y)^(1/(N-1)) - 1)^(N-1) for
    two coordinates of one Dirichlet-copula draw, clamped to the Frechet envelope;
    max(x + y - 1, 0) at N = 2, and C(x, 1) = x and C(1, y) = y exactly."""
    cdf = lower = np.maximum(x + y - 1.0, 0.0)
    if n > 2:
        t = np.maximum((1.0 - x) ** (1.0 / (n - 1)) + (1.0 - y) ** (1.0 / (n - 1)) - 1.0, 0.0)
        cdf = np.clip(x + y - 1.0 + t ** (n - 1), lower, np.minimum(x, y))
    return np.where(y >= 1.0, x, np.where(x >= 1.0, y, cdf))


def bernoulli_pair_correlation(p, n: int):
    """Correlation of (1{u_i < p}, 1{u_j < p}) for two coordinates of one
    Dirichlet-copula draw of n, (C(p, p) - p^2) / (p (1 - p)): the antithetic
    strength a two-category split at threshold p sees.  At n = 2 it is
    -min(p, 1-p) / max(p, 1-p), e.g. exactly -1 at p = 1/2."""
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool) or n < 2:
        raise ValueError(f"need an integer sample count n >= 2, got {n!r}")
    p = np.asarray(p, dtype=float)
    if not np.all((p > 0.0) & (p < 1.0)):  # a nan fails this too
        raise ValueError("the threshold must lie strictly inside (0, 1)")
    out = (_copula_cdf(p, p, n) - p * p) / (p * (1.0 - p))
    return float(out) if p.ndim == 0 else out


def bivariate_pmf_matrix(p, ordering: Ordering, n: int) -> np.ndarray:
    """P(z = i, z' = j) of two samples of one inverse-CDF draw under an ordering,
    (C, C): inclusion-exclusion of the copula CDF over cell pairs, floored at 0.
    The cells lie in position order; the cumsum may pass 1, so edges cap at 1."""
    right = np.minimum(np.cumsum(_as_probs(p, ordering.n_categories)[ordering.inverse]), 1.0)
    right[-1] = 1.0
    left = np.concatenate(([0.0], right[:-1]))
    a = left[ordering.perm, None]  # by category
    b = right[ordering.perm, None]
    mass = (_copula_cdf(b, b.T, n) - _copula_cdf(b, a.T, n)
            - _copula_cdf(a, b.T, n) + _copula_cdf(a, a.T, n))
    return np.maximum(mass, 0.0)


def bivariate_pmf_one_ordering(p, ordering: Ordering, i: int, j: int, n: int) -> float:
    """P(z = i, z' = j) under an ordering, one entry at a time: the copula CDF's
    inclusion-exclusion over the cells at positions perm[i] and perm[j] of the
    position-order cumsum, floored at 0; the scalar reference for the matrix."""
    c = ordering.n_categories
    if not (0 <= i < c and 0 <= j < c):
        raise ValueError("categories out of range")
    edges = np.minimum(np.cumsum([0.0, *ordering.permuted(_as_probs(p, c))]), 1.0)
    edges[-1] = 1.0
    x = edges[ordering.perm[i] : ordering.perm[i] + 2]  # the cell's left and right edges
    y = edges[ordering.perm[j] : ordering.perm[j] + 2]
    mass = (_copula_cdf(x[1], y[1], n) - _copula_cdf(x[1], y[0], n)
            - _copula_cdf(x[0], y[1], n) + _copula_cdf(x[0], y[0], n))
    return max(float(mass), 0.0)
