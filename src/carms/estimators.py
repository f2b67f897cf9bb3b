"""Score-function gradient estimators on one-hot categorical samples.

Both estimators take probabilities (not logits) and return the gradient with
respect to the softmax logits phi, using d p_i / d phi_c = p_i (1{i=c} - p_c).

loorf   (1/(N-1)) sum_n (f_n - fbar) (z_n - p)
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


def _as_values(f) -> np.ndarray:
    arr = np.asarray(f, dtype=float)
    if arr.ndim != 1 or not np.isfinite(arr).all():
        raise ValueError("function values must be a finite 1-D vector")
    return arr


def _as_onehot_matrix(z, n_rows=None) -> np.ndarray:
    arr = np.asarray(z, dtype=float)
    if arr.ndim != 2:
        raise ValueError("samples must form an N x C matrix")
    if not ((arr == 0.0) | (arr == 1.0)).all() or not (arr.sum(axis=1) == 1.0).all():
        raise ValueError("sample rows must be one-hot")
    if n_rows is not None and arr.shape[0] != n_rows:
        raise ValueError("sample count does not match function values")
    return arr


def _ratio_array(ratios) -> np.ndarray:
    if isinstance(ratios, RatioMatrix):
        return ratios.ratios
    return np.asarray(ratios, dtype=float)


def loorf(f, z, p) -> np.ndarray:
    """Leave-one-out score estimator over N independent-or-coupled samples."""
    f = _as_values(f)
    z = _as_onehot_matrix(z, f.size)
    p = as_probs(p)
    n = f.size
    if n < 2:
        raise ValueError("loorf needs N >= 2 samples")
    centered = f - f.mean()
    return centered @ (z - p) / (n - 1)


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


def carms(f, z, ratios, p) -> np.ndarray:
    """carms over N coupled samples: _carms_estimates at k = 1.

    O = (1/(N-1)) (1 - I) o (Z R Z^T), D = diag(O 1), and the estimate is
    (1/N) f^T (D - O) (Z - 1 p^T), which the core sums sample by sample.
    A pair in one category adds an exact 0, whatever R's diagonal holds.
    """
    f = _as_values(f)
    z = _as_onehot_matrix(z, f.size)
    p = as_probs(p)
    r = np.array(_ratio_array(ratios), dtype=float)
    n = f.size
    if n < 2:
        raise ValueError("carms needs N >= 2 samples")
    if r.shape != (p.size, p.size) or z.shape[1] != p.size:
        raise ValueError("ratio matrix or sample width does not match the category count")
    np.fill_diagonal(r, 0.0)
    # index rather than multiply out Z R Z^T: entries at categories absent
    # from the batch must stay unread (0 * inf would leak a nan)
    cats = np.argmax(z, axis=1)
    if not np.isfinite(r[cats[:, None], cats]).all():
        raise ValueError("nonfinite importance ratio at a realized sample pair")
    return _carms_estimates(f[None], cats[None], r, p)[0]
