"""Copulas with strongly negative pairwise dependence.

Both families produce an exchangeable vector of n uniform marginals whose
coordinates are pushed apart as hard as the joint law allows.

The Dirichlet copula rescales a flat Dirichlet vector coordinatewise,

    u_i = 1 - (1 - d_i)^(n-1),        d ~ Dir(1_n),

which makes each u_i exactly uniform on (0, 1).  A batch of draws is formed
in place as C-ordered (n, k) columns, one per coordinate, so a caller that
reads whole columns copies nothing; the (n-1)-th power is taken by repeated
multiplication (_int_power), as in the CDF kernels.  The bivariate CDF has the
closed form

    C(p, q) = p + q - 1 + max(0, (1-p)^(1/(n-1)) + (1-q)^(1/(n-1)) - 1)^(n-1),

obtained by inclusion-exclusion from the pair survival function of the flat
Dirichlet (see the derivation recorded in the copula test suite).  At n = 2
the expression collapses to max(p + q - 1, 0), the lower Frechet-Hoeffding
bound, i.e. the exact antithetic pair (u, 1 - u).

Differentiating in p gives the conditional CDF P(u_j < q | u_i = p),

    dC/dp (p, q) = 1 - max(0, (1-p)^(1/(n-1)) + (1-q)^(1/(n-1)) - 1)^(n-2)
                       * (1-p)^(1/(n-1) - 1),

which at n = 2 is the step 1{p + q > 1}.  The pair-law kernels call both on
arrays they check themselves; dirichlet_bivariate_cdf is C's checked form.

The Gaussian copula maps a normal vector at the most negative feasible
equicorrelation, -1/(n-1), through the standard normal CDF.  No command or
estimator draws from it: it never gave a lower gradient variance than the
Dirichlet one on the Gumbel path (BENCH_21.json).  Only
sample_copula_batch(GAUSSIAN, ...) reaches it, and no pair law exists for it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Copula outputs are clamped into [CLAMP_EPS, 1 - CLAMP_EPS] so downstream
# log/log-log transforms never see an exact endpoint.
CLAMP_EPS = 1e-12


def _validate_n(n) -> int:
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool):
        raise ValueError(f"sample count must be an integer, got {n!r}")
    if n < 2:
        raise ValueError(f"copulas need n >= 2 coordinates, got n={n}")
    return int(n)


@dataclass(frozen=True)
class CopulaKind:
    """Which copula family to draw from, each at its strongest negative
    dependence: the Gaussian at the equicorrelation -1/(n-1)."""

    family: str

    def __post_init__(self):
        if self.family not in ("dirichlet", "gaussian"):
            raise ValueError(f"unknown copula family {self.family!r}")


DIRICHLET = CopulaKind("dirichlet")
GAUSSIAN = CopulaKind("gaussian")


def _sum_in_order(terms):
    """terms[0] + terms[1] + ... added left to right, a whole term at a time.

    numpy's own sum adds a contiguous run pairwise from eight terms on, so a
    draw's sum would depend on how many draws share the call.  Adding 0.0
    first clears a -0.0, as numpy's starting 0 does.
    """
    total = terms[0] + 0.0
    for term in terms[1:]:
        total += term
    return total


def _sample_dirichlet_copula_batch(
    k: int, n: int, rng: np.random.Generator, work=None, keep=None
) -> np.ndarray:
    """k independent Dirichlet-copula draws, shape (k, n), as the transpose of
    (n, k) columns formed in work[1]; work[0] takes the exponentials, then the
    power's squares (work: two arrays of at least k n floats, fresh by default).

    keep (default n) forms the leading keep coordinates only, shape (k, keep):
    every exponential is still drawn and summed, so the generator's stream and
    the kept coordinates are bit for bit those of the whole draw.
    """
    n = _validate_n(n)
    keep = n if keep is None else keep
    e, u = (np.empty(k * n), np.empty(k * keep)) if work is None else work
    e = rng.standard_exponential(out=e[: k * n].reshape(k, n))
    u = u[: k * keep].reshape(keep, k)
    # u = 1 - (1 - e / sum(e))^(n - 1), each draw's sum left to right
    np.divide(e.T[:keep], _sum_in_order(e.T), out=u)
    np.subtract(1.0, u, out=u)
    _int_power(u, n - 1, out=u, scratch=e.reshape(n, k)[:keep])
    np.subtract(1.0, u, out=u)
    return np.clip(u, CLAMP_EPS, 1.0 - CLAMP_EPS, out=u).T


def _sample_gaussian_copula_batch(k: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """k Gaussian-copula draws at the equicorrelation rho = -1/(n-1), shape (k, n).

    An equicorrelated normal vector with unit variances is a centered part
    scaled by sqrt(1 - rho) plus a mean part scaled by sqrt(1 + (n-1) rho).
    At rho = -1/(n-1) the mean part vanishes, so the draw is the centered
    normal scaled by sqrt(1 + 1/(n-1)), and its normal scores sum to 0.
    """
    from scipy.special import ndtr
    n = _validate_n(n)
    w = rng.standard_normal((k, n))
    x = np.sqrt(1.0 + 1.0 / (n - 1)) * (w - w.mean(axis=1, keepdims=True))
    return np.clip(ndtr(x), CLAMP_EPS, 1.0 - CLAMP_EPS)


def sample_copula_batch(
    kind: CopulaKind, k: int, n: int, rng: np.random.Generator, work=None
) -> np.ndarray:
    """k independent draws of n uniforms from the copula kind, shape (k, n);
    the Dirichlet draw fills work (see _sample_dirichlet_copula_batch)."""
    if kind.family == "dirichlet":
        return _sample_dirichlet_copula_batch(k, n, rng, work)
    return _sample_gaussian_copula_batch(k, n, rng)


def dirichlet_bivariate_cdf(p, q, n: int):
    """P(u_i < p, u_j < q) for any two coordinates of the Dirichlet copula.

    Accepts scalars or broadcastable arrays for p and q.  The result is
    clamped into the Frechet-Hoeffding envelope [max(p+q-1, 0), min(p, q)]
    to keep the analytic identities exact at the boundaries; at n = 2 the
    lower envelope is the value.
    """
    n = _validate_n(n)
    p_arr = np.asarray(p, dtype=float)
    q_arr = np.asarray(q, dtype=float)
    if np.any(~np.isfinite(p_arr)) or np.any(~np.isfinite(q_arr)):
        raise ValueError("CDF arguments must be finite")
    if np.any((p_arr < 0.0) | (p_arr > 1.0)) or np.any((q_arr < 0.0) | (q_arr > 1.0)):
        raise ValueError("CDF arguments must lie in [0, 1]")
    out = _dirichlet_cdf_exact_edges(np.atleast_1d(p_arr), q_arr, n)
    return out.item() if p_arr.ndim == 0 and q_arr.ndim == 0 else out


def _int_power(x, k: int, out=None, scratch=None):
    """x ** k for an integer k >= 1: the squares x^(2^j) at the set bits of k
    multiplied in from the lowest, into out (x itself, or None for a fresh
    array) with the squares in scratch (fresh by default), bit for bit the
    same either way.  np.power's general path, taken for any exponent but 2,
    is several times slower, more so at x = 0, which the clamped t hits often.
    """
    while not k & 1:  # the lowest factor, x^(2^j)
        x = out = np.multiply(x, x, out=out)
        k >>= 1
    square = x
    while k := k >> 1:
        square = np.multiply(square, square, out=scratch if square is x else square)
        if k & 1:
            x = out = np.multiply(x, square, out=out)
    return x if x is out else x.copy()


def _dirichlet_t(p_arr, q_arr, n):
    """max(0, (1-p)^(1/(n-1)) + (1-q)^(1/(n-1)) - 1), shared by the CDF and dC/dp."""
    inv = 1.0 / (n - 1)
    t = np.power(1.0 - p_arr, inv) + np.power(1.0 - q_arr, inv)
    t -= 1.0
    return np.maximum(t, 0.0, out=t)


def _dirichlet_cdf(p_arr, q_arr, n, t=None, out=None, scratch=None):
    """C(p, q) on [0, 1] from t (_dirichlet_t's, formed if not given), into
    out with the squares and p + q - 1 in scratch (fresh by default)."""
    if n == 2:
        excess = np.add(p_arr, q_arr, out=out)
        excess -= 1.0
        return np.maximum(excess, 0.0, out=excess)
    raw = _int_power(_dirichlet_t(p_arr, q_arr, n) if t is None else t, n - 1, out, scratch)
    excess = np.add(p_arr, q_arr, out=scratch)
    excess -= 1.0
    raw += excess
    # fl(t^(n-1) + excess) >= excess: the floor max(excess, 0) is one at 0
    np.maximum(raw, 0.0, out=raw)
    np.minimum(raw, p_arr, out=raw)
    return np.minimum(raw, q_arr, out=raw)


def _dirichlet_cdf_exact_edges(p_arr, q_arr, n, t=None):
    """_dirichlet_cdf on [0, 1], exact at 0 (its clamp) and at 1: C(p, 1) = p
    and C(1, q) = q are set, as p + 1 - 1 need not round to p."""
    out = np.where(q_arr >= 1.0, p_arr, _dirichlet_cdf(p_arr, q_arr, n, t))
    return np.where(p_arr >= 1.0, q_arr, out)


def _dirichlet_slope(p_arr, n):
    """(1 - p)^(1/(n-1) - 1), the factor of dC/dp set by p alone; 0 at p = 1,
    where t = 0 and the tail vanishes."""
    with np.errstate(divide="ignore"):
        return np.where(p_arr < 1.0, np.power(1.0 - p_arr, 1.0 / (n - 1) - 1.0), 0.0)


def _dirichlet_conditional(t, slope, n, out=None, scratch=None):
    """dC/dp = 1 - t^(n-2) slope for n > 2, into out with the squares in
    scratch (fresh by default); 1 less a product >= 0 needs no ceiling."""
    tail = t if n == 3 else _int_power(t, n - 2, out=out, scratch=scratch)
    tail = np.multiply(tail, slope, out=out)
    np.subtract(1.0, tail, out=tail)
    return np.maximum(tail, 0.0, out=tail)
