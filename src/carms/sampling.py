"""Antithetic categorical sampling through a copula, plus the pair PMFs.

Inverse-CDF path: the unit interval is cut into cells of widths p, the
category order is shuffled by a uniformly drawn anchored ordering, and each
coordinate of one copula draw is pushed through the shared inverse CDF.  The
analytic probability that two coordinates land in cells i and j follows from
the copula's bivariate CDF by inclusion-exclusion over the cell rectangle,
averaged over all C (C - 1) / 2 anchored orderings, which is exact because
the sampler draws its ordering uniformly from all of them.

Gumbel-max path: each category owns an independent copula draw across the N
samples, the uniforms become Gumbels, and each sample takes the argmax of
Gumbel + log p.  Its pair law is a 2-D integral over the levels s and t at
which the two samples are won,

    P(i, j) = ∬ ∂1C(F_i(s), F_i(t)) f_i(s) · ∂1C(F_j(t), F_j(s)) f_j(t)
                · ∏_{k≠i,j} C(F_k(s), F_k(t)) ds dt,

with F_k the Gumbel CDF shifted by log p_k, f_k its density and C the
copula's bivariate CDF.  The diagonal follows from the row sums, except
under the Dirichlet copula at N >= 3, where it is integrated over the
copula's density on its own.  The law is evaluated by Gauss-Legendre
quadrature; the batched path builds it once per (p, N, copula).

Both samplers return the one-hot sample matrix and the importance ratios
p_i p_j / P(i, j) at the off-diagonal pairs the draw realizes.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .copula import (
    DIRICHLET,
    CopulaKind,
    _dirichlet_cdf,
    _pair_cdf,
    _pair_cdfs,
    _sample_dirichlet_copula_batch,
    _validate_n,
    dirichlet_bivariate_cdf,
    sample_copula_batch,
)


def as_probs(p) -> np.ndarray:
    """Validate and return a probability vector over at least two categories."""
    arr = np.asarray(p, dtype=float)
    if arr.ndim != 1 or arr.size < 2:
        raise ValueError("need a 1-D probability vector with at least two categories")
    if not np.all(np.isfinite(arr)) or np.any(arr < 0.0):
        raise ValueError("probabilities must be finite and nonnegative")
    if abs(arr.sum() - 1.0) > 1e-12:
        raise ValueError(f"probabilities must sum to 1, got {arr.sum()!r}")
    return arr


def onehot(categories, n_categories: int) -> np.ndarray:
    """Map integer categories (any shape) to one-hot float rows."""
    cats = np.asarray(categories)
    if np.any((cats < 0) | (cats >= n_categories)):
        raise ValueError("category index out of range")
    return np.eye(n_categories)[cats]


def _cell_edges(q: np.ndarray):
    """Left and right edges of consecutive cells of widths q along the last axis.

    cumsum may overshoot 1.0 by an ulp; edges must stay inside [0, 1] for
    the copula CDF, and the last edge is 1.0 by convention.
    """
    right = np.minimum(np.cumsum(q, axis=-1), 1.0)
    right[..., -1] = 1.0
    left = np.concatenate([np.zeros_like(right[..., :1]), right[..., :-1]], axis=-1)
    return left, right


def _categorize_batch(u: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Cell index of each u under the half-open convention.

    right holds the right cell edges along its last axis, either one set for
    all of u or one set per row of u (shape u.shape[:-1] + (C,)).  Counting
    the edges at or below u is searchsorted(side="right"): a u exactly on an
    edge goes to the upper cell, and the last cell absorbs u at (or within
    roundoff above) the final edge.
    """
    below = (u[..., None] >= right[..., None, :]).sum(axis=-1)
    return np.minimum(below, right.shape[-1] - 1)


@dataclass(frozen=True)
class Ordering:
    """A category-to-position permutation anchored at a pair (i, j).

    perm[k] is the position of category k; the anchor's first member sits at
    position 0 and its second at the last position, which maximally separates
    the two cells for an antithetic copula draw.
    """

    perm: np.ndarray
    anchor: tuple[int, int]

    def __post_init__(self):
        perm = np.asarray(self.perm, dtype=np.int64)
        c = perm.size
        if c < 2 or not np.array_equal(np.sort(perm), np.arange(c)):
            raise ValueError("perm must be a permutation of 0..C-1 with C >= 2")
        i, j = self.anchor
        if i == j:
            raise ValueError("anchor categories must be distinct")
        if perm[i] != 0 or perm[j] != c - 1:
            raise ValueError("anchor must map to the first and last positions")
        object.__setattr__(self, "perm", perm)
        object.__setattr__(self, "anchor", (int(i), int(j)))

    @property
    def n_categories(self) -> int:
        return self.perm.size

    @property
    def inverse(self) -> np.ndarray:
        """inverse[position] = category."""
        inv = np.empty_like(self.perm)
        inv[self.perm] = np.arange(self.perm.size)
        return inv

    def permuted(self, p: np.ndarray) -> np.ndarray:
        """Probabilities rearranged into position order."""
        q = np.empty_like(np.asarray(p, dtype=float))
        q[self.perm] = p
        return q


def make_ordering(i: int, j: int, n_categories: int) -> Ordering:
    """Rotate category i to the front, then swap j into the last position."""
    c = int(n_categories)
    if c < 2:
        raise ValueError("need at least two categories")
    if not (0 <= i < c and 0 <= j < c):
        raise ValueError("anchor categories out of range")
    if i == j:
        raise ValueError("anchor categories must be distinct")
    pos = (np.arange(c) - i) % c
    last_cat = (i - 1) % c
    pj = pos[j]
    pos[j] = c - 1
    pos[last_cat] = pj
    return Ordering(pos, (i, j))


def all_orderings(n_categories: int) -> list[Ordering]:
    """The C(C-1)/2 anchored orderings, one per unordered category pair."""
    return [
        make_ordering(i, j, n_categories)
        for i in range(n_categories)
        for j in range(i + 1, n_categories)
    ]


def _rectangle_mass(left_a, right_a, left_b, right_b, n: int):
    """P(u in [left_a, right_a), u' in [left_b, right_b)), clamped at 0.

    Inclusion-exclusion of the Dirichlet copula CDF over the cell rectangle
    for two coordinates of one draw; the edges broadcast against each other.
    """
    return np.maximum(
        dirichlet_bivariate_cdf(right_a, right_b, n)
        - dirichlet_bivariate_cdf(right_a, left_b, n)
        - dirichlet_bivariate_cdf(left_a, right_b, n)
        + dirichlet_bivariate_cdf(left_a, left_b, n),
        0.0,
    )


@functools.lru_cache(maxsize=64)
def _ordering_table(n_categories: int):
    """(perm, inverse) of every anchored ordering, each (M, C) and read-only."""
    orderings = all_orderings(n_categories)
    perm = np.stack([o.perm for o in orderings])
    inverse = np.stack([o.inverse for o in orderings])
    perm.setflags(write=False)
    inverse.setflags(write=False)
    return perm, inverse


def _category_edges(p: np.ndarray, perm: np.ndarray, inverse: np.ndarray):
    """Left and right cell edges of each category under each ordering, (B, C).

    Row m lays the cells out in the position order of the ordering with
    position map perm[m] and reads the edges back by category.
    """
    left, right = _cell_edges(p[inverse])
    return np.take_along_axis(left, perm, axis=1), np.take_along_axis(right, perm, axis=1)


def bivariate_pmf_one_ordering(p, ordering: Ordering, i: int, j: int, n: int) -> float:
    """P(z = i, z' = j) for two coordinates of one copula draw under an ordering.

    Inclusion-exclusion of the copula CDF over the rectangle
    cell(i) x cell(j) in permuted position space, one pair at a time: the
    scalar reference for the broadcast builds below.
    """
    p = as_probs(p)
    if ordering.n_categories != p.size:
        raise ValueError("ordering and probability vector disagree on C")
    if not (0 <= i < p.size and 0 <= j < p.size):
        raise ValueError("category index out of range")
    left, right = _cell_edges(ordering.permuted(p))
    ip, jp = ordering.perm[i], ordering.perm[j]
    return float(_rectangle_mass(left[ip], right[ip], left[jp], right[jp], n))


def bivariate_pmf_matrix(p, ordering: Ordering, n: int) -> np.ndarray:
    """Full C x C pair PMF under one fixed ordering."""
    p = as_probs(p)
    if ordering.n_categories != p.size:
        raise ValueError("ordering and probability vector disagree on C")
    left, right = _category_edges(p, ordering.perm[None], ordering.inverse[None])
    return _rectangle_mass(left.T, right.T, left, right, n)


def _mean_over_orderings(p: np.ndarray, mass_of, width: int) -> np.ndarray:
    """Mean over all anchored orderings of mass_of(left, right).

    left and right are the (B, C) category edges under a block of B
    orderings, and mass_of returns a fresh (B, ...) array of width entries
    per ordering.  Blocks hold about 8192 / width orderings, so temporaries
    stay near 64 KiB at any C, as in _gumbel_pair_offdiag; the full law
    (width C^2) is a single block for every C <= 11.  Adding the running
    total into each block's first row keeps the orderings summed one after
    another, exactly as a single sum over all of them would be, so the
    result does not depend on the block size.
    """
    perm, inverse = _ordering_table(p.size)
    step = max(1, 8192 // max(width, 1))
    total = 0.0
    for lo in range(0, perm.shape[0], step):
        rows = slice(lo, lo + step)
        mass = mass_of(*_category_edges(p, perm[rows], inverse[rows]))
        mass[0] += total
        total = mass.sum(axis=0)
    return total / perm.shape[0]


def bivariate_pmf_averaged(p, n: int) -> np.ndarray:
    """The inverse-CDF pair law: the single-ordering PMFs averaged over all
    C (C - 1) / 2 anchored orderings, built a block of orderings at a time."""
    p = as_probs(p)
    return _mean_over_orderings(
        p,
        lambda left, right: _rectangle_mass(
            left[:, :, None], right[:, :, None], left[:, None, :], right[:, None, :], n
        ),
        p.size**2,
    )


def bivariate_pmf_entries(p, n: int, pairs) -> np.ndarray:
    """bivariate_pmf_averaged at the given (i, j) pairs only, shape (K,)."""
    p = as_probs(p)
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    if np.any((pairs < 0) | (pairs >= p.size)):
        raise ValueError("category index out of range")

    def mass_of(left, right):
        # np.take keeps the (B, K) edges C-ordered (left[:, i] would be
        # F-ordered), so the orderings are summed in the same order as in the
        # full build and the entries match bivariate_pmf_averaged bit for bit
        a, b = (np.take(edge, pairs, axis=1) for edge in (left, right))
        return _rectangle_mass(a[:, :, 0], b[:, :, 0], a[:, :, 1], b[:, :, 1], n)

    return _mean_over_orderings(p, mass_of, len(pairs))


@dataclass(frozen=True)
class RatioMatrix:
    """Importance ratios p_i p_j / P(i, j) for sample pairs.

    clip is the ceiling applied to every computed entry (None disables it);
    clipped records whether a ratio at a pair actually present in the sample
    exceeded the ceiling, i.e. whether clipping changed the estimate.
    Entries the estimator never reads, the diagonal and unrealized pairs, hold placeholders.
    """

    ratios: np.ndarray
    clip: float | None
    clipped: bool

    def __post_init__(self):
        ratios = np.asarray(self.ratios, dtype=float)
        if ratios.ndim != 2 or ratios.shape[0] != ratios.shape[1]:
            raise ValueError("ratios must be a square matrix")
        if not np.all(np.isfinite(ratios)):
            raise ValueError("ratios must be finite")
        if np.any(ratios < 0.0):
            raise ValueError("ratios must be nonnegative")
        # the ceiling binds computed entries only; placeholders at pairs the
        # estimator never reads may sit above it, so no entry-wise check here
        if self.clip is not None and not self.clip > 0.0:
            raise ValueError("clip ceiling must be positive")
        object.__setattr__(self, "ratios", ratios)


def _check_clip(clip) -> None:
    if clip is not None and not clip > 0.0:  # a nan ceiling fails this too
        raise ValueError(f"clip ceiling must be positive or None, got {clip!r}")


def _analytic_ratio_matrix(p: np.ndarray, pbar: np.ndarray, clip: float | None):
    """Fixed importance ratios p_i p_j / P(i, j) from an exact pair law P.

    Returns (ratios, exceed) where exceed marks off-diagonal pairs whose raw
    ratio tops the clip ceiling, i.e. where clipping engages when realized.
    Zero-probability pairs can never be realized and get the inert 1.
    """
    pouter = np.outer(p, p)
    live = pbar > 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        raw = np.where(live, pouter / pbar, 1.0)
    if clip is None:
        return raw, np.zeros_like(live)
    exceed = live & ~np.eye(p.size, dtype=bool) & (raw > clip)
    return np.where(live, np.minimum(raw, clip), 1.0), exceed


def _clip_flags(exceed: np.ndarray, cats: np.ndarray) -> np.ndarray:
    """Whether any sample pair of each draw (cats (..., N)) sits where exceed is set.

    exceed is off-diagonal, so only pairs of distinct samples count.
    """
    return exceed[cats[..., :, None], cats[..., None, :]].any(axis=(-2, -1))


def _realized_ratios(p: np.ndarray, law: np.ndarray, clip) -> RatioMatrix:
    """The batched ratios of _analytic_ratio_matrix, for the pairs one draw realizes.

    law holds the pair law at the draw's realized off-diagonal pairs, each a
    pair of samples, so `clipped` is whether any of their ratios tops the
    ceiling.  Elsewhere, the diagonal too (two samples in one category add
    (f - f')(z - z') = 0), law is 0, no ratio is read, and the entry holds
    the clip ceiling (an absent pair is infinitely surprising) or the inert 1.
    """
    ratios, exceed = _analytic_ratio_matrix(p, law, clip)
    if clip is not None:
        ratios[law == 0.0] = clip
    return RatioMatrix(ratios, clip, bool(exceed.any()))


def _inverse_cdf_categories_batch(
    k: int, n_samples: int, p: np.ndarray, rng: np.random.Generator, ordering=None
) -> np.ndarray:
    """k joint draws of N categories each, shape (k, N).

    ordering=None redraws a uniform anchored ordering per joint draw, which
    is what makes the averaged PMF the exact pair law; a fixed ordering is
    for inspecting the single-ordering law.
    """
    if ordering is None:
        _, inverse = _ordering_table(p.size)
        idx = rng.integers(0, inverse.shape[0], size=k)
    else:
        inverse = ordering.inverse[None]
        idx = np.zeros(k, dtype=np.int64)
    u = _sample_dirichlet_copula_batch(k, n_samples, rng)
    cum = np.cumsum(p[inverse], axis=1)[idx]
    return inverse[idx[:, None], _categorize_batch(u, cum)]


def sample_antithetic_inverse_cdf(
    n_samples: int,
    p,
    rng: np.random.Generator,
    *,
    clip: float | None = 10.0,
):
    """Draw N antithetically coupled categorical samples via the inverse CDF.

    Returns the one-hot sample matrix Z (N x C) and the RatioMatrix holding
    p_i p_j / P(i, j) at off-diagonal pairs realized in Z, with P the pair law
    averaged over all anchored orderings (bivariate_pmf_averaged), clipped
    at `clip`; other entries hold the placeholder of _realized_ratios.  The
    copula is the Dirichlet one, the only family with that closed form.
    """
    _check_clip(clip)
    p = as_probs(p)
    n_samples = _validate_n(n_samples)
    cats = _inverse_cdf_categories_batch(1, n_samples, p, rng)[0]
    present = np.unique(cats)
    i, j = present[np.array(np.triu_indices(present.size, 1))]
    law = np.zeros((p.size, p.size))
    law[i, j] = law[j, i] = bivariate_pmf_entries(p, n_samples, np.stack([i, j], axis=1))
    return onehot(cats, p.size), _realized_ratios(p, law, clip)


# copula uniforms (draws x categories x samples) per block of the Gumbel draw;
# the generator fills arrays in order, so the blocks use the stream as one draw
GUMBEL_BLOCK = 65536


def _gumbel_categories_batch(
    k: int, n_samples: int, p: np.ndarray, rng: np.random.Generator, copula: CopulaKind
) -> np.ndarray:
    """k joint Gumbel-max draws of N categories each, shape (k, N)."""
    c = p.size
    with np.errstate(divide="ignore"):
        shift = np.log(p)[:, None]
    out = np.empty((k, n_samples), dtype=np.intp)
    step = max(1, GUMBEL_BLOCK // (c * n_samples))
    for start in range(0, k, step):
        u = sample_copula_batch(copula, min(step, k - start) * c, n_samples, rng)
        scores = shift - np.log(-np.log(u.reshape(-1, c, n_samples)))
        # np.argmax takes the first maximum, i.e. ties break to the lowest index.
        out[start : start + step] = np.argmax(scores, axis=1)
    return out


# Gauss-Legendre nodes per axis of the Gumbel-path pair-law quadrature
GUMBEL_NODES = 64


@functools.lru_cache(maxsize=8)
def _unit_nodes(nodes: int):
    """Quadrature nodes x, 1 - x and weights on (0, 1).

    Gauss-Legendre nodes y pass through x = y^3 (10 - 15 y + 6 y^2), whose
    derivative 30 y^2 (1 - y)^2 flattens the fractional powers that the
    Gumbel tails leave at both ends; 1 - x is the same map at 1 - y, so it
    keeps full precision near x = 1.
    """
    y, w = np.polynomial.legendre.leggauss(nodes)
    y, w = 0.5 * (y + 1.0), 0.5 * w

    def smooth(v):
        return v**3 * (10.0 - 15.0 * v + 6.0 * v * v)

    return smooth(y), smooth(1.0 - y), w * 30.0 * (y * (1.0 - y)) ** 2


def _gumbel_pair_offdiag(q, n, copula: CopulaKind, nodes: int, rows) -> np.ndarray:
    """Off-diagonal pair law of the Gumbel path for positive q, among the categories rows.

    A level s enters through x = 1 - exp(-e^{-s}) in (0, 1), where
    F_k(s) = exp(-q_k e^{-s}) = (1 - x)^{q_k} and f_k(s) ds = q_k (1 - x)^{q_k - 1} dx.
    With a[k, s, t] = ∂1C(F_k(s), F_k(t)) f_k(s) ds (sample 1 won by k at s,
    sample 2 below t in k) and H[k] = C(F_k(s), F_k(t)), the pair (i, j) is
    summed over the grid as (a_i / H_i) · (a_j^T / H_j) · ∏_k H_k, which is
    one matrix product for all pairs.  Where H_k underflows to 0 the grid
    point carries no mass, so its a_k / H_k is set to 0.  The mass takes every
    H_k; a_k / H_k is formed for the rows only.
    """
    _, xc, w = _unit_nodes(nodes)
    u = np.power(xc, q[:, None])
    dens = q[rows, None] * u[rows] / xc * w
    ratio = np.zeros((rows.size, nodes, nodes))
    mass = np.ones((nodes, nodes))
    # a few categories at a time: temporaries under 64 KiB are recycled by
    # the allocator instead of being mapped afresh, about 1.5x faster
    step = max(1, 8192 // (nodes * nodes))
    for lo in range(0, rows.size, step):
        block = slice(lo, lo + step)
        ub = u[rows[block]]
        joint, cond = _pair_cdfs(copula, n, ub[:, :, None], ub[:, None, :])
        np.divide(cond * dens[block, :, None], joint, out=ratio[block], where=joint > 0.0)
        mass *= joint.prod(axis=0)
    others = np.delete(u, rows, axis=0)
    for lo in range(0, others.shape[0], step):
        ub = others[lo : lo + step]
        mass *= _pair_cdf(copula, n, ub[:, :, None], ub[:, None, :]).prod(axis=0)
    left = (ratio * mass).reshape(rows.size, -1)
    right = ratio.transpose(0, 2, 1).reshape(rows.size, -1)
    return left @ right.T


def _gumbel_pair_offdiag_antithetic(q, nodes: int) -> np.ndarray:
    """Off-diagonal pair law when the two samples are exact mirrors u' = 1 - u.

    In race form sample 1 goes to the least E_k / q_k with E_k = -log u_k
    ~ Exp(1), and sample 2 to the least E'_k / q_k with E'_k = -log(1 - u_k).
    Sample 1 won by i at time T and sample 2 by j at time S leave every
    category k a window of probability m_k = e^{-q_k T} + e^{-q_k S} - 1,
    which is open only for S < -log(1 - e^{-q_k T}) / q_k.  That bound is
    tightest at the largest q_k, so S runs over (0, B(T)) for that q_k, and

        P(i, j) = ∫ q_i e^{-q_i T} ∫_0^B(T) q_j e^{-q_j S} ∏_{k≠i,j} m_k dS dT.

    The copula CDF max(u + v - 1, 0) vanishes outside that window, so the
    product over k ≠ i, j comes from prefix and suffix products, not from
    dividing the full product by m_i m_j.
    """
    x, xc, w = _unit_nodes(nodes)
    t = -np.where(x < 0.5, np.log1p(-x), np.log(xc))
    q_max = q.max()
    bound = -np.log(-np.expm1(-q_max * t)) / q_max
    s = bound[:, None] * x[None, :]
    qk = q[:, None, None]
    window = np.maximum(np.exp(-qk * s) + np.expm1(-qk * t[:, None]), 0.0)
    first = q[:, None] * np.exp(-q[:, None] * t) * w / xc
    second = qk * np.exp(-qk * s) * (bound[:, None] * w[None, :])
    ones = np.ones((1,) + s.shape)
    before = np.cumprod(np.concatenate([ones, window[:-1]]), axis=0)
    after = np.cumprod(np.concatenate([ones, window[:0:-1]]), axis=0)[::-1]
    out = np.zeros((q.size, q.size))
    for i in range(q.size - 1):
        # ∏_{k≠i,j} m_k for every j > i: before i, between i and j, after j
        between = np.cumprod(np.concatenate([ones, window[i + 1 : -1]]), axis=0)
        rest = before[i] * between * after[i + 1 :]
        out[i, i + 1 :] = np.einsum("g,jgh->j", first[i], second[i + 1 :] * rest)
        out[i + 1 :, i] = np.einsum("jg,jgh->j", first[i + 1 :], second[i] * rest)
    return out


def _gumbel_pair_diag_dirichlet(q, n, nodes: int) -> np.ndarray:
    """P(i, i) of the Gumbel-path pair law under the Dirichlet copula, n >= 3.

    At every level F_k = F_i^{r_k} with r_k = q_k / q_i, so both samples go
    to i with probability E[prod_{k != i} C(U^{r_k}, V^{r_k})] over the
    copula pair (U, V) of category i.  That pair is U = 1 - A^m, V = 1 - B^m
    (m = n - 1) with (1 - A, 1 - B) two coordinates of a flat Dirichlet on n
    parts: density m (m - 1) (a + b - 1)^(m - 2) on a + b > 1.  The integrand
    is symmetric, so only a < b is integrated, on b = (1 + y) / 2,
    a = (1 - y) / 2 + y v, which puts the edge a + b = 1 of the support on a
    grid line and leaves the weight m (m - 1) y^(n - 2) v^(n - 3) dy dv.
    Differencing the row sums instead would carry the whole row's absolute
    quadrature error, which at n = 3 (a kink in dC/dp) swamps small P(i, i).
    """
    y, yc, wy = _unit_nodes(nodes // 2)
    v, vc, wv = _unit_nodes(nodes // 4)
    m = n - 1
    # log U and log V, with 1 - a and 1 - b formed without cancellation
    log_u = np.log(-np.expm1(m * np.log1p(-(0.5 * yc[:, None] + y[:, None] * vc[None, :]))))
    log_v = np.log(-np.expm1(m * np.log1p(-0.5 * yc)))[:, None]
    weight = m * (m - 1) * (y ** (n - 2) * wy)[:, None] * (v ** (n - 3) * wv)[None, :]
    c = q.size
    # a ratio past the largest float is an infinite power: U^r is 0 below U = 1
    with np.errstate(over="ignore"):
        r = np.minimum(q[None, :] / q[:, None], np.finfo(float).max)
    r = r[~np.eye(c, dtype=bool)].reshape(c, c - 1, 1, 1)
    out = np.empty(c)
    # a few categories at a time, as in _gumbel_pair_offdiag
    step = max(1, 8192 // (max(c - 1, 1) * weight.size))
    for lo in range(0, c, step):
        block = r[lo : lo + step]
        with np.errstate(over="ignore", under="ignore"):
            joint = _dirichlet_cdf(np.exp(block * log_u), np.exp(block * log_v), n)
        out[lo : lo + step] = (joint.prod(axis=1) * weight).sum(axis=(1, 2))
    return out


def _gumbel_offdiag_law(p, n, copula: CopulaKind, nodes: int, cats=None) -> np.ndarray:
    """The symmetrized off-diagonal Gumbel law among the categories cats
    (default: every live one), (C, C) and 0 elsewhere."""
    live = np.flatnonzero(p > 0.0)
    cats = live if cats is None else cats
    rows = np.searchsorted(live, cats)
    if n == 2 and (copula.family == "dirichlet" or copula.resolve_rho(2) == -1.0):
        off = _gumbel_pair_offdiag_antithetic(p[live], nodes)[np.ix_(rows, rows)]
    else:
        off = _gumbel_pair_offdiag(p[live], n, copula, nodes, rows)
    off = 0.5 * (off + off.T)
    np.fill_diagonal(off, 0.0)
    law = np.zeros((p.size, p.size))
    law[np.ix_(cats, cats)] = off
    return law


def _gumbel_pair_pmf(p, n, copula: CopulaKind, nodes: int) -> np.ndarray:
    pmf, live = _gumbel_offdiag_law(p, n, copula, nodes), np.flatnonzero(p > 0.0)
    if copula.family == "dirichlet" and n > 2:
        diag = _gumbel_pair_diag_dirichlet(p[live], n, nodes)
    else:
        # the Gaussian kernels are smooth, so the row sums are accurate to
        # about 1e-13 (and N = 2 leaves all but the likeliest category at 0)
        diag = np.maximum(p[live] - pmf[np.ix_(live, live)].sum(axis=1), 0.0)
    pmf[live, live] = diag
    return pmf


def gumbel_pair_pmf(p, n_samples: int, copula: CopulaKind = DIRICHLET) -> np.ndarray:
    """P(z = i, z' = j) for two samples of one Gumbel-max draw, shape (C, C).

    The exact pair law of the Gumbel path (see the module docstring), by
    Gauss-Legendre quadrature with GUMBEL_NODES points per axis; N = 2 at
    full antithetic strength (the Dirichlet copula, or the Gaussian at
    rho = -1) has mirror samples and a quadrature of its own.  Zero-probability
    categories get zero rows.  Each call builds a fresh array.
    """
    return _gumbel_pair_pmf(as_probs(p), _validate_n(n_samples), copula, GUMBEL_NODES)


def sample_antithetic_gumbel(
    n_samples: int,
    p,
    rng: np.random.Generator,
    *,
    copula: CopulaKind = DIRICHLET,
    clip: float | None = 10.0,
):
    """Draw N antithetically coupled categorical samples via Gumbel-max.

    Each category's Gumbel column comes from its own copula draw across the N
    samples (Dirichlet or Gaussian).  The importance ratios p_i p_j / P(i, j)
    come from the exact pair law of gumbel_pair_pmf, clipped at `clip`, built
    at the off-diagonal pairs the draw realizes only; other entries hold
    the placeholder of _realized_ratios.
    """
    _check_clip(clip)
    p = as_probs(p)
    n_samples = _validate_n(n_samples)
    cats = _gumbel_categories_batch(1, n_samples, p, rng, copula)[0]
    law = _gumbel_offdiag_law(p, n_samples, copula, GUMBEL_NODES, np.unique(cats))
    return onehot(cats, p.size), _realized_ratios(p, law, clip)
