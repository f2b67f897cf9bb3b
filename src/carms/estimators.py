"""Score-function gradient estimators on one-hot categorical samples.

Both estimators take probabilities (not logits) and return the gradient with
respect to the softmax logits phi, using d p_i / d phi_c = p_i (1{i=c} - p_c).

loorf   (1/(N-1)) sum_n (f_n - fbar) (z_n - p), by the batched score sum
        _score_sums at k = 1
carms   (1/N) f^T (D - O) (Z - 1 p^T), the all-pairs average of the debiased
        pair term (1/2) (f - f') (z - z') z^T R z', by the batched core
        _carms_estimates at k = 1

Their reductions, carms to arms at C = 2 and to loorf at unit ratios, are
judged against the references in carms.oracle.
"""

from __future__ import annotations

import numpy as np

from .copula import _sum_in_order
from .sampling import RatioMatrix, _blocks, as_probs


def _as_draw(f, z, p, name: str):
    """One draw's checked (f, categories, p) from values f (N,), one-hot rows
    z (N, C) and probabilities p (C,); f and the categories come back (1, N)."""
    f = np.asarray(f, dtype=float)
    if f.ndim != 1 or not np.isfinite(f).all():
        raise ValueError("function values must be a finite 1-D vector")
    if f.size < 2:
        raise ValueError(f"{name} needs N >= 2 samples")
    z = np.asarray(z, dtype=float)
    if z.ndim != 2:
        raise ValueError("samples must form an N x C matrix")
    # each row sums to 1 and the rows hold one nonzero each: a one-hot row
    if np.count_nonzero(z) != len(z) or not (z.sum(axis=1) == 1.0).all():
        raise ValueError("sample rows must be one-hot")
    if z.shape[0] != f.size:
        raise ValueError("sample count does not match function values")
    p = as_probs(p)
    if z.shape[1] != p.size:
        raise ValueError("sample width does not match the category count")
    return f[None], np.argmax(z, axis=1)[None], p


def _ratio_array(ratios) -> np.ndarray:
    if isinstance(ratios, RatioMatrix):
        return ratios.ratios
    return np.asarray(ratios, dtype=float)


def _score_sums(w: np.ndarray, cats: np.ndarray, p_row: np.ndarray) -> np.ndarray:
    """sum_n w_n (onehot(c_n) - p) per draw, (k, C), scattered from w, cats (k, N)."""
    k, c = cats.shape[0], p_row.size
    flat = (np.arange(k)[:, None] * c + cats).ravel()
    g = np.bincount(flat, weights=w.ravel(), minlength=k * c).reshape(k, c)
    g -= _sum_in_order(w.T)[:, None] * p_row
    return g


def _carms_estimates(
    f: np.ndarray, cats: np.ndarray, ratios: np.ndarray, p_row: np.ndarray
) -> np.ndarray:
    """Matrix-form carms for a batch of draws in one dimension.

    f and cats have shape (k, N), ratios (C, C) with a zero diagonal; returns
    (k, C).  Sample m's score weighs sum_m' r(c_m, c_m') (f_m - f_m') /
    (N (N - 1)).  The (m, m') terms are laid out (N, N, draws), so every pass
    runs along the draws, a block of draws at a time.
    """
    k, n = cats.shape
    ct, ft = np.ascontiguousarray(cats.T), np.ascontiguousarray(f.T)
    flat = ratios.ravel()
    w = np.empty((n, k))
    for block in _blocks(k, n * n):
        cb, fb = ct[:, block], ft[:, block]
        terms = flat.take(cb[:, None] * ratios.shape[0] + cb[None, :])
        terms *= fb[:, None] - fb[None, :]
        w[:, block] = _sum_in_order(terms.swapaxes(0, 1))
    w /= n * (n - 1)
    return _score_sums(w.T, cats, p_row)


def loorf(f, z, p) -> np.ndarray:
    """Leave-one-out score estimator over N independent-or-coupled samples:
    _score_sums at k = 1 with the weights (f_n - fbar) / (N - 1)."""
    f, cats, p = _as_draw(f, z, p, "loorf")
    w = (f - f.mean(axis=1, keepdims=True)) / (f.size - 1)
    return _score_sums(w, cats, p)[0]


def carms(f, z, ratios, p) -> np.ndarray:
    """carms over N coupled samples: _carms_estimates at k = 1.

    O = (1/(N-1)) (1 - I) o (Z R Z^T), D = diag(O 1), and the estimate is
    (1/N) f^T (D - O) (Z - 1 p^T), which the core sums sample by sample.
    A pair in one category adds an exact 0, whatever R's diagonal holds.
    """
    f, cats, p = _as_draw(f, z, p, "carms")
    r = np.array(_ratio_array(ratios), dtype=float)
    if r.shape != (p.size, p.size):
        raise ValueError("ratio matrix does not match the category count")
    np.fill_diagonal(r, 0.0)
    # index rather than multiply out Z R Z^T: entries at categories absent
    # from the batch must stay unread (0 * inf would leak a nan)
    if not np.isfinite(r[cats.T, cats]).all():
        raise ValueError("nonfinite importance ratio at a realized sample pair")
    return _carms_estimates(f, cats, r, p)[0]
