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
Gumbel + log p, in race form: the largest log(u) / p, i.e. the least
exponential time -log(u) / p.  Its pair law is a 2-D integral over the
levels s and t at which the two samples are won,

    P(i, j) = ∬ ∂1C(F_i(s), F_i(t)) f_i(s) · ∂1C(F_j(t), F_j(s)) f_j(t)
                · ∏_{k≠i,j} C(F_k(s), F_k(t)) ds dt,

with F_k the Gumbel CDF shifted by log p_k, f_k its density and C the
copula's bivariate CDF.  The diagonal P(i, i) is what the row's
off-diagonal mass leaves of p_i, so every row sums to p.  The law is
evaluated by Gauss-Legendre quadrature.

Both samplers are one body, _sample_antithetic, given their path's batched
draw at k = 1 and its off-diagonal law builder, which the batched estimator
calls once on its (D, C) stack, each row bit for bit its own law.  They
return the one-hot sample matrix and the importance ratios p_i p_j / P(i, j)
at the off-diagonal pairs the draw realizes, 0 elsewhere.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from .copula import (
    _dirichlet_cdf,
    _dirichlet_cdf_exact_edges,
    _dirichlet_conditional,
    _dirichlet_slope,
    _sample_dirichlet_copula_batch,
    _validate_n,
)


def as_probs(p) -> np.ndarray:
    """Validate and return a probability vector over at least two categories."""
    arr = np.asarray(p, dtype=float)
    if arr.ndim != 1 or arr.size < 2:
        raise ValueError("need a 1-D probability vector with at least two categories")
    if not np.isfinite(arr).all() or (arr < 0.0).any():
        raise ValueError("probabilities must be finite and nonnegative")
    if abs(arr.sum() - 1.0) > 1e-12:
        raise ValueError(f"probabilities must sum to 1, got {float(arr.sum())!r}")
    return arr


def _prob_rows(p) -> np.ndarray:
    """as_probs for a (D, C) stack of probability vectors, every row at once."""
    arr = np.asarray(p, dtype=float)
    if arr.ndim != 2 or arr.shape[1] < 2:
        raise ValueError("need a 1-D probability vector with at least two categories")
    if not np.isfinite(arr).all() or (arr < 0.0).any():
        raise ValueError("probabilities must be finite and nonnegative")
    off = abs(arr.sum(axis=1) - 1.0) > 1e-12
    if off.any():
        raise ValueError(f"probabilities must sum to 1, got {float(arr[off][0].sum())!r}")
    return arr


def _as_indices(categories, n_categories: int) -> np.ndarray:
    """Validate and return integer category indices (any shape) in [0, C)."""
    cats = np.asarray(categories)
    if cats.dtype.kind not in "iu" or ((cats < 0) | (cats >= n_categories)).any():
        raise ValueError(f"category indices must be integers in [0, {n_categories})")
    return cats


def onehot(categories, n_categories: int) -> np.ndarray:
    """Map integer categories (any shape) to one-hot float rows."""
    return np.eye(n_categories)[_as_indices(categories, n_categories)]


def _cell_edges(q: np.ndarray):
    """Left and right edges of consecutive cells of widths q along the last axis.

    cumsum may overshoot 1.0 by an ulp; edges must stay inside [0, 1] for
    the copula CDF, and the last edge is 1.0 by convention.
    """
    edges = np.zeros(q.shape[:-1] + (q.shape[-1] + 1,))
    np.minimum(q.cumsum(axis=-1), 1.0, out=edges[..., 1:])
    edges[..., -1] = 1.0
    return edges[..., :-1], edges[..., 1:]


def _categorize_batch(u: np.ndarray, right: np.ndarray, rows=None) -> np.ndarray:
    """Cell index of each u under the half-open convention.

    right holds nondecreasing right cell edges along its last axis: one set
    for all of u, one per row of u (shape u.shape[:-1] + (C,)), or one per
    row of a table whose row rows[m] u's row m takes.  Counting the edges at
    or below u, one edge (gathered at rows: O(k) memory) against whole
    columns of u at a time, is searchsorted(side="right"): a u on an edge
    goes to the upper cell.  The last edge is not counted, so the last cell
    absorbs u at (or within roundoff above) it.
    """
    columns = np.ascontiguousarray(u.T)
    below = np.zeros(columns.shape, dtype=np.intp)
    for edge in right.T[:-1]:
        below += columns >= (edge if rows is None else edge.take(rows))
    return np.ascontiguousarray(below.T)


def _anchored_inverse(a: np.ndarray, b: np.ndarray, c: int) -> np.ndarray:
    """The category at each position of the orderings anchored at (a[m], b[m]), (B, C).

    Rotate category a to the front, then swap b into the last position: the
    category that the rotation left there takes b's place.
    """
    cyclic = np.arange(2 * c - 1) % c
    # row a of the cyclic shifts of 0..C-1, read from a strided (C, C) view
    inverse = np.ndarray((c, c), cyclic.dtype, cyclic, strides=2 * cyclic.strides)[a]
    inverse[np.arange(a.size), (b - a) % c] = inverse[:, -1]  # b's position after the rotation
    inverse[:, -1] = b
    return inverse


def _ordering_anchors(numbers: np.ndarray, c: int):
    """Anchors (a, b), a < b, of the orderings numbered in lexicographic order
    of their anchors, from (0, 1) to (C - 2, C - 1)."""
    ends = np.arange(c - 1, 0, -1).cumsum()  # ends[k]: the orderings with a <= k
    a = ends.searchsorted(numbers, side="right")
    return a, numbers - ends[a] + c


def _rectangle_mass(a, b, n: int):
    """P(u in [a[0], a[1]), u' in [b[0], b[1])), clamped at 0, for the
    (left, right) edges a and b of two cells stacked on a first axis.

    Inclusion-exclusion of the Dirichlet copula CDF, exact at edges of 0
    and 1, over the cell rectangle for two coordinates of one draw, its four
    corners stacked into one CDF call; the edges broadcast against each
    other and, in [0, 1], need no checks.
    """
    t = None
    if n > 2:  # each edge's (1 - x)^(1/(n-1)) once, read at its two corners
        ra, rb = (np.power(1.0 - x, 1.0 / (n - 1)) for x in (a, b))
        t = np.maximum(ra[[1, 1, 0, 0]] + rb[[1, 0, 1, 0]] - 1.0, 0.0)
    cdf = _dirichlet_cdf_exact_edges(a[[1, 1, 0, 0]], b[[1, 0, 1, 0]], n, t)
    return np.maximum(cdf[0] - cdf[1] - cdf[2] + cdf[3], 0.0)


def _blocks(total: int, width: int) -> list[slice]:
    """Slices that cover range(total) in order, about 8192 / width items each.

    With width floats per item, a block's temporaries stay near 64 KiB.
    They come from glibc's heap, which gives free top past 128 KiB back to
    the system until a large mapping is freed: a call whose temporaries
    reach further faults them in again each time.  The loops over these
    blocks give the same result at any size.
    """
    step = max(1, 8192 // max(width, 1))
    return [slice(lo, lo + step) for lo in range(0, total, step)]


@functools.lru_cache(maxsize=8)
def _ordering_inverse(c: int, lo: int, hi: int) -> np.ndarray:
    """_anchored_inverse of the orderings numbered lo..hi - 1, cached read-only."""
    inverse = _anchored_inverse(*_ordering_anchors(np.arange(lo, hi), c), c)
    inverse.flags.writeable = False
    return inverse


def _ordering_mean_mass(p: np.ndarray, n: int, first, second) -> np.ndarray:
    """Mean over all anchored orderings of the rectangle mass of the cells
    first[k] x second[k], for (K,) indices b C + i into p.ravel(), p (C,) or (B, C).

    The orderings come from their anchors, about 8192 / (B C) a block, and
    take their masses in runs of about 2048 / K (four stacked corners each).
    A run's first row takes the running total and cumsum adds down the rows,
    so the orderings are summed strictly one after another: an entry depends
    neither on the block sizes nor on the other entries (or rows) asked for.
    """
    c = p.shape[-1]
    orderings = c * (c - 1) // 2
    total = 0.0
    for block in _blocks(orderings, p.size):
        inverse = _ordering_inverse(c, *block.indices(orderings)[:2])
        # row b's cells in the order inverse[m], edges kept by category from (m B + b) C
        by_category = np.empty((2, inverse.size * (p.size // c)))
        start = np.arange(0, by_category.shape[1], c).reshape(-1, p.size // c).T
        flat = inverse + start.reshape(p.shape[:-1] + (-1, 1))
        for edge, by_position in zip(by_category, _cell_edges(p.take(inverse, axis=-1))):
            edge[flat] = by_position
        edges = by_category.reshape(2, inverse.shape[0], p.size)
        for run in _blocks(inverse.shape[0], 4 * first.size):
            a, b = (edges[:, run].take(idx, axis=2) for idx in (first, second))
            mass = _rectangle_mass(a, b, n)
            mass[0] += total
            total = mass.cumsum(axis=0, out=mass)[-1]
    return total / orderings


def bivariate_pmf_averaged(p, n: int) -> np.ndarray:
    """The inverse-CDF pair law: the single-ordering PMFs averaged over all
    C (C - 1) / 2 anchored orderings, built a block of orderings at a time.
    The law is symmetric, so its upper triangle is built and mirrored."""
    p = as_probs(p)
    cats = np.arange(p.size)
    i, j = np.nonzero(cats[:, None] <= cats)  # np.triu_indices, at a fraction of its cost
    law = np.empty((p.size, p.size))
    law[i, j] = law[j, i] = _ordering_mean_mass(p, n, i, j)
    return law


def bivariate_pmf_entries(p, n: int, pairs) -> np.ndarray:
    """bivariate_pmf_averaged at the given (i, j) pairs only, shape (K,)."""
    p = as_probs(p)
    pairs = np.sort(_as_indices(pairs, p.size).reshape(-1, 2), axis=1)
    return _ordering_mean_mass(p, n, pairs[:, 0], pairs[:, 1])


def _inverse_cdf_offdiag_law(p, n, cats=None) -> np.ndarray:
    """The off-diagonal inverse-CDF law (bivariate_pmf_entries) among the
    drawn categories cats (default: every live one), (C, C) and 0 elsewhere,
    or each row's of a stack p (B, C), (B, C, C), in one pass over the
    orderings.  Its callers have validated p, so it is not checked again."""
    c = p.shape[-1]
    # the live categories as indices b C + i into p.ravel(), paired within a row
    live = np.flatnonzero(p > 0.0 if cats is None else np.bincount(cats))
    i, j = live[np.array(np.nonzero((live[:, None] < live) & (live[:, None] // c == live // c)))]
    law = np.zeros(p.shape + (c,))
    by_row = law.reshape(-1, c)  # law[b, i] at row b C + i
    if i.size:  # else no off-diagonal pair to build
        by_row[i, j % c] = by_row[j, i % c] = _ordering_mean_mass(p, n, i, j)
    return law


@dataclass(frozen=True)
class RatioMatrix:
    """Importance ratios p_i p_j / P(i, j) for sample pairs.

    Ratios are clipped at clip (None disables the ceiling) and 0 where no
    estimate reads them: on the diagonal and at pairs whose law is 0 or was
    not built.  clipped records whether a ratio at a pair actually present in
    the sample exceeded the ceiling, i.e. whether clipping changed the estimate.
    """

    ratios: np.ndarray
    clip: float | None
    clipped: bool

    def __post_init__(self):
        ratios = np.asarray(self.ratios, dtype=float)
        if ratios.ndim != 2 or ratios.shape[0] != ratios.shape[1]:
            raise ValueError("ratios must be a square matrix")
        if not np.isfinite(ratios).all():
            raise ValueError("ratios must be finite")
        if (ratios < 0.0).any():
            raise ValueError("ratios must be nonnegative")
        if self.clip is not None and not self.clip > 0.0:
            raise ValueError("clip ceiling must be positive")
        object.__setattr__(self, "ratios", ratios)


def _check_clip(clip) -> None:
    if clip is not None and not clip > 0.0:  # a nan ceiling fails this too
        raise ValueError(f"clip ceiling must be positive or None, got {clip!r}")


def _analytic_ratio_matrix(p: np.ndarray, pbar: np.ndarray, clip: float | None):
    """Ratios p_i p_j / P(i, j) of an exact pair law P (C, C) or stack (B, C, C): (ratios, exceed).

    ratios holds the ratio, clipped at clip, where P is positive off the
    diagonal, and 0 elsewhere: two samples in one category add
    (f - f')(z - z') = 0 and a pair of law 0 is never realized, so no
    estimate reads those.  exceed marks where clipping engages when realized.
    """
    live = pbar > 0.0
    live.reshape(-1, live.shape[-1] ** 2)[:, :: live.shape[-1] + 1] = False  # each diagonal
    ratios = np.zeros(live.shape)
    np.divide(p[..., :, None] * p[..., None, :], pbar, out=ratios, where=live)
    if clip is None:
        return ratios, np.zeros_like(live)
    exceed = ratios > clip
    return np.minimum(ratios, clip, out=ratios), exceed


def _clip_flags(exceed: np.ndarray, cats: np.ndarray) -> np.ndarray:
    """Whether any sample pair of each draw (cats (..., N)) sits where exceed is set.

    exceed is off-diagonal, so only pairs of distinct samples count.
    """
    return exceed[cats[..., :, None], cats[..., None, :]].any(axis=(-2, -1))


def _realized_ratios(p: np.ndarray, law: np.ndarray, clip) -> RatioMatrix:
    """The ratios of _analytic_ratio_matrix from the off-diagonal law at the
    pairs one draw realizes, each a pair of samples, so `clipped` is whether
    any of their ratios tops the ceiling."""
    ratios, exceed = _analytic_ratio_matrix(p, law, clip)
    return RatioMatrix(ratios, clip, bool(exceed.any()))


def _inverse_cdf_categories_batch(
    k: int, n_samples: int, p: np.ndarray, rng: np.random.Generator, keep=None
) -> np.ndarray:
    """k joint draws of N categories each, shape (k, N): each takes a uniform
    anchored ordering by its number (see _ordering_anchors), so the averaged PMF is
    its exact pair law, then one copula draw.  The min(k, M) rows of edges come
    from the anchors, one per draw while k < M and else one per ordering.
    keep (default N) returns the leading keep samples only, (k, keep), from
    the same stream and bit for bit the whole draw's."""
    orderings = p.size * (p.size - 1) // 2
    numbers = rng.integers(0, orderings, size=k)
    built, rows = (numbers, None) if k < orderings else (np.arange(orderings), numbers)
    inverse = _anchored_inverse(*_ordering_anchors(built, p.size), p.size)
    u = _sample_dirichlet_copula_batch(k, n_samples, rng, keep=keep)
    idx = np.arange(k) if rows is None else rows
    return inverse[idx[:, None], _categorize_batch(u, p[inverse].cumsum(axis=1), rows)]


def _sample_antithetic(draw, offdiag_law, n_samples, p, rng, clip):
    """One joint draw on a sampling path: its one-hot sample matrix and the
    RatioMatrix from draw(1, N, p, rng)'s categories and the off-diagonal law
    offdiag_law(p, N, cats=...) built among them."""
    _check_clip(clip)
    p = as_probs(p)
    n_samples = _validate_n(n_samples)
    cats = draw(1, n_samples, p, rng)[0]
    law = offdiag_law(p, n_samples, cats=cats)
    return onehot(cats, p.size), _realized_ratios(p, law, clip)


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
    at `clip`, and 0 elsewhere.  The copula is the Dirichlet one, the only
    family with that closed form.
    """
    return _sample_antithetic(
        _inverse_cdf_categories_batch, _inverse_cdf_offdiag_law, n_samples, p, rng, clip
    )


# copula uniforms (draws x categories x samples) per block of the Gumbel draw;
# the generator fills arrays in order, so the blocks use the stream as one
# draw.  A call refills one block's exponentials and columns (1 MiB) in place.
GUMBEL_BLOCK = 65536


def _gumbel_categories_batch(
    k: int, n_samples: int, p: np.ndarray, rng: np.random.Generator, keep=None
) -> np.ndarray:
    """k joint Gumbel-max draws of N categories each, shape (k, N); keep
    (default N) returns the leading keep samples only, (k, keep), from the
    same stream and bit for bit the whole draw's."""
    c = p.size
    keep = n_samples if keep is None else keep
    out = np.empty((k, keep), dtype=np.intp)
    step = max(1, GUMBEL_BLOCK // (c * n_samples))
    work = np.empty((2, min(step, k) * c * n_samples))
    for start in range(0, k, step):
        u = _sample_dirichlet_copula_batch(
            min(step, k - start) * c, n_samples, rng, work, keep=keep)
        # race form of the argmax of log p - log(-log u): the largest
        # log(u) / p, in place, laid out (keep, draws, C) so that the argmax runs
        # over contiguous categories; p = 0 and a subnormal p give -inf
        scores = np.ascontiguousarray(u.T).reshape(keep, -1, c)
        np.log(scores, out=scores)
        with np.errstate(divide="ignore", over="ignore"):
            np.divide(scores, p, out=scores)
        # np.argmax takes the first maximum, i.e. ties break to the lowest index.
        out[start : start + step] = np.argmax(scores, axis=2).T
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
    y, w = leggauss(nodes)
    y, w = 0.5 * (y + 1.0), 0.5 * w

    def smooth(v):
        return v**3 * (10.0 - 15.0 * v + 6.0 * v * v)

    return smooth(y), smooth(1.0 - y), w * 30.0 * (y * (1.0 - y)) ** 2


def _gumbel_pair_offdiag(q, n, nodes: int, rows, sizes) -> list:
    """Off-diagonal Gumbel pair laws of a group of rows q (G, L), each its positive
    entries then zeros: one (R_g, R_g) law among rows[:R_g] per row, R_g = sizes[g].

    A level s enters through x = 1 - exp(-e^{-s}) in (0, 1), where
    F_k(s) = exp(-q_k e^{-s}) = (1 - x)^{q_k} and f_k(s) ds = q_k (1 - x)^{q_k - 1} dx.
    With a[k, s, t] = ∂1C(F_k(s), F_k(t)) f_k(s) ds (sample 1 won by k at s,
    sample 2 below t in k) and H[k] = C(F_k(s), F_k(t)), the pair (i, j) is
    summed over the grid as (a_i / H_i) · (a_j^T / H_j) · ∏_k H_k, which is
    one matrix product for all pairs.  Where H_k underflows to 0 the grid
    point carries no mass at (s, t) nor, H_k being symmetric, at (t, s), so
    a_k / H_k is taken over 1 there.

    a_k / H_k is formed for the rows only, in one allocation that also takes
    its transpose and, until then, each block's t.  The blocks are pairs of
    rows, then pairs of the others, across the group, so ∏_k H_k keeps each
    row's pairwise rounding of 64 KiB blocks at GUMBEL_NODES; a padding zero
    has H = 1 and a = 0, and each row's product is taken at its own size.
    """
    _, xc, w = _unit_nodes(nodes)
    group, q = len(q), q.T.ravel()  # row g's category k at k G + g
    others = np.flatnonzero(np.bincount(rows, minlength=q.size // group) == 0)
    if group > 1:
        rows, others = ((k[:, None] * group + np.arange(group)).ravel() for k in (rows, others))
    u = np.power(xc, q[:, None])
    root = np.power(1.0 - u, 1.0 / (n - 1))
    slope, dens = _dirichlet_slope(u[rows], n), q[rows, None] * u[rows] / xc * w
    # room for at least 16 rows (1 MiB at 64 nodes), touched in the rows' part
    # only: freed, it lifts glibc's trim threshold above the working set
    # whatever the rows, so later calls reuse the heap top unfaulted
    ratio, right = np.empty((2, max(rows.size, 16), nodes, nodes))[:, : rows.size]
    pair_h, pair_tmp = np.empty((2 * group, nodes, nodes)), np.empty((2 * group, nodes, nodes))
    mass = np.ones((group, nodes, nodes))
    for cats in (rows, others):
        for lo in range(0, cats.size, 2 * group):
            block = slice(lo, lo + 2 * group)
            rb, ub = root[cats[block], :, None], u[cats[block], :, None]
            h, tmp = pair_h[: ub.shape[0]], pair_tmp[: ub.shape[0]]
            t = right[block] if cats is rows else right[: ub.shape[0]]  # two rows or more
            np.add(rb, rb.swapaxes(1, 2), out=t)  # t as copula._dirichlet_t forms it
            t -= 1.0
            np.maximum(t, 0.0, out=t)
            _dirichlet_cdf(ub, ub.swapaxes(1, 2), n, t, h, tmp)
            if cats is rows:
                cond = _dirichlet_conditional(t, slope[block, :, None], n, ratio[block], tmp)
                cond *= dens[block, :, None]
                np.equal(h, 0.0, out=tmp)
                np.divide(cond, np.add(h, tmp, out=tmp), out=cond)
            mass *= np.multiply.reduce(h.reshape(-1, group, nodes, nodes), axis=0, out=tmp[:group])
    right[...] = ratio.transpose(0, 2, 1)
    by_row = ratio.reshape(-1, group, nodes, nodes)  # a view, multiplied in place
    by_row *= mass
    return [ratio[g::group][:r].reshape(r, -1) @ right[g::group][:r].reshape(r, -1).T
            for g, r in enumerate(sizes)]


def _gumbel_pair_offdiag_antithetic(q, nodes: int, rows) -> np.ndarray:
    """Off-diagonal pair law when the two samples are exact mirrors u' = 1 - u,
    among the categories rows (ascending).

    In race form sample 1 goes to the least E_k / q_k with E_k = -log u_k
    ~ Exp(1), and sample 2 to the least E'_k / q_k with E'_k = -log(1 - u_k).
    Sample 1 won by i at time T and sample 2 by j at time S leave every
    category k a window of probability m_k = e^{-q_k T} + e^{-q_k S} - 1,
    which is open only for S < -log(1 - e^{-q_k T}) / q_k.  That bound is
    tightest at the largest q_k, so S runs over (0, B(T)) for that q_k, and

        P(i, j) = ∫ q_i e^{-q_i T} ∫_0^B(T) q_j e^{-q_j S} ∏_{k≠i,j} m_k dS dT.

    The copula CDF max(u + v - 1, 0) vanishes outside that window, so the
    product over k ≠ i, j comes from prefix and suffix products, not from
    dividing the full product by m_i m_j.  The windows are formed one at a
    time and only the products that the R rows read are kept, so a pair costs
    O(C G^2) on G nodes per axis, in O(R G^2) memory for all of them.
    """
    x, xc, w = _unit_nodes(nodes)
    t = -np.where(x < 0.5, np.log1p(-x), np.log(xc))
    q_max = q.max()
    bound = -np.log(-np.expm1(-q_max * t)) / q_max
    s = bound[:, None] * x[None, :]

    def window(k):
        return np.maximum(np.exp(-q[k] * s) + np.expm1(-q[k] * t)[:, None], 0.0)

    qr = q[rows, None, None]
    first = q[rows, None] * np.exp(-q[rows, None] * t) * w / xc
    second = qr * np.exp(-qr * s) * (bound[:, None] * w[None, :])
    before, between, after = np.empty((3, rows.size, nodes, nodes))
    product, top = np.ones((nodes, nodes)), q.size - 1
    for b in range(rows.size - 1, 0, -1):
        for k in range(top, rows[b], -1):
            product *= window(k)
        after[b], top = product, rows[b]
    out = np.zeros((rows.size, rows.size))
    product[...], b = 1.0, 0
    for k in range(rows[-1] + 1):
        row = k == rows[b]
        if row:  # ∏_{k≠i,j} m_k for the rows i below the row j = k
            rest = before[:b] * between[:b] * after[b]
            out[:b, b] = np.einsum("ag,agh->a", first[:b], second[b] * rest)
            out[b, :b] = np.einsum("g,agh->a", first[b], second[:b] * rest)
            before[b], between[b], b = product, 1.0, b + 1
        if k < rows[-1]:
            m_k = window(k)
            product *= m_k
            between[: b - row] *= m_k  # not into the row begun at k
    return out


def _gumbel_offdiag_law(p, n, nodes=GUMBEL_NODES, cats=None) -> np.ndarray:
    """The symmetrized off-diagonal Gumbel law among the drawn categories
    cats (default: every live one), (C, C) and 0 elsewhere, or each row's of
    a stack p (B, C), (B, C, C), max(1, 16 // C) rows to a quadrature (the 16
    rows _gumbel_pair_offdiag holds room for); N = 2's mirror runs per row."""
    q = p.reshape(-1, p.shape[-1])
    law = np.zeros(q.shape + q.shape[-1:])
    group = 1 if n == 2 else max(1, 16 // q.shape[1])
    for lo in range(0, len(q), group):
        live = [np.flatnonzero(row) for row in q[lo : lo + group]]  # p >= 0
        # np.bincount, not np.unique, which imports numpy.ma
        built = live if cats is None else [np.flatnonzero(np.bincount(cats))]
        sizes = list(map(len, built))
        if max(sizes) < 2:  # no off-diagonal pair to build
            continue
        packed = np.zeros((len(live), max(map(len, live))))
        for row, cat in enumerate(live):
            packed[row, : cat.size] = q[lo + row, cat]
        rows = np.arange(packed.shape[1]) if cats is None else np.searchsorted(live[0], built[0])
        offs = ([_gumbel_pair_offdiag_antithetic(packed[0], nodes, rows)] if n == 2
                else _gumbel_pair_offdiag(packed, n, nodes, rows, sizes))
        for out, cat, off in zip(law[lo : lo + group], built, offs):
            if cat.size > 1:
                off = 0.5 * (off + off.T)
                np.fill_diagonal(off, 0.0)
                out[cat[:, None], cat] = off
    return law.reshape(p.shape + p.shape[-1:])


def _gumbel_pair_pmf(p, n, nodes: int) -> np.ndarray:
    """The off-diagonal Gumbel law plus the diagonal its rows leave of p."""
    pmf, live = _gumbel_offdiag_law(p, n, nodes), np.flatnonzero(p > 0.0)
    pmf[live, live] = np.maximum(p[live] - pmf[np.ix_(live, live)].sum(axis=1), 0.0)
    return pmf


def gumbel_pair_pmf(p, n_samples: int) -> np.ndarray:
    """P(z = i, z' = j) for two samples of one Gumbel-max draw, shape (C, C).

    The exact pair law of the Gumbel path (see the module docstring), by
    Gauss-Legendre quadrature with GUMBEL_NODES points per axis; N = 2 has
    mirror samples and a quadrature of its own.  P(i, i) is p_i less the
    off-diagonal row sum, floored at 0, so the rows sum to p (no estimator
    reads the diagonal).  Zero-probability categories get zero rows.  Each
    call builds a fresh array.
    """
    return _gumbel_pair_pmf(as_probs(p), _validate_n(n_samples), GUMBEL_NODES)


def sample_antithetic_gumbel(
    n_samples: int,
    p,
    rng: np.random.Generator,
    *,
    clip: float | None = 10.0,
):
    """Draw N antithetically coupled categorical samples via Gumbel-max.

    Each category's Gumbel column comes from its own copula draw across the N
    samples.  The importance ratios p_i p_j / P(i, j) come from the exact pair
    law of gumbel_pair_pmf, clipped at `clip`, built at the off-diagonal pairs
    the draw realizes only, and are 0 elsewhere.
    """
    return _sample_antithetic(
        _gumbel_categories_batch, _gumbel_offdiag_law, n_samples, p, rng, clip
    )
