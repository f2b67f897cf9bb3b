"""Score-function gradient estimators on one-hot categorical samples.

All estimators take probabilities (not logits) and return the gradient with
respect to the softmax logits phi, using d p_i / d phi_c = p_i (1{i=c} - p_c).

loorf          (1/(N-1)) sum_n (f_n - fbar) (z_n - p)
carts          (1/2) (f - f') (z - z') * (z^T R z'), one debiased pair
carms          (1/N) f^T (D - O) (Z - 1 p^T), the all-pairs average of carts,
               by the batched core _carms_estimates at k = 1
arms_binary    coordinatewise leave-one-out with antithetic correction 1/(1 - rho)
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


def _as_onehot_row(z) -> np.ndarray:
    arr = np.asarray(z, dtype=float)
    if arr.ndim != 1 or not ((arr == 0.0) | (arr == 1.0)).all() or arr.sum() != 1.0:
        raise ValueError("sample must be a one-hot vector")
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


def two_sample_loorf(f_z: float, f_zp: float, z, zp) -> np.ndarray:
    """N = 2 leave-one-out: (1/2) (f(z) - f(z')) (z - z'). The baseline cancels p."""
    return 0.5 * (float(f_z) - float(f_zp)) * (_as_onehot_row(z) - _as_onehot_row(zp))


def carts(f_z: float, f_zp: float, z, zp, ratios) -> np.ndarray:
    """One antithetic pair debiased by its importance ratio z^T R z'; a pair
    in one category adds (f - f')(z - z') = 0 and reads no ratio."""
    z = _as_onehot_row(z)
    zp = _as_onehot_row(zp)
    r = _ratio_array(ratios)
    if r.shape != (z.size, z.size) or zp.size != z.size:
        raise ValueError("ratio matrix or sample width does not match the category count")
    i, j = z.argmax(), zp.argmax()
    if i == j:
        return np.zeros(z.size)
    return two_sample_loorf(f_z, f_zp, z, zp) * float(r[i, j])


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
    """All-pairs average of carts over N coupled samples: _carms_estimates at k = 1.

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


def arms_binary(f, b, p, rho) -> np.ndarray:
    """Leave-one-out estimator for D antithetic Bernoulli coordinates.

    g_d = (1/(N-1)) sum_n (f_n - fbar) (b_nd - p_d) / (1 - rho_d), the
    gradient with respect to the Bernoulli logits.
    """
    f = _as_values(f)
    b = np.asarray(b, dtype=float)
    if b.ndim != 2 or b.shape[0] != f.size:
        raise ValueError("b must be an N x D binary matrix")
    if not ((b == 0.0) | (b == 1.0)).all():
        raise ValueError("b entries must be 0 or 1")
    p = np.atleast_1d(np.asarray(p, dtype=float))
    rho = np.broadcast_to(np.asarray(rho, dtype=float), p.shape).astype(float)
    if p.shape != (b.shape[1],):
        raise ValueError("need one success probability per coordinate")
    if not ((p > 0.0) & (p < 1.0)).all():  # a nan fails this too
        raise ValueError("success probabilities must lie strictly inside (0, 1)")
    if not (np.isfinite(rho) & (rho < 1.0)).all():
        raise ValueError("antithetic correction requires a finite rho < 1")
    n = f.size
    if n < 2:
        raise ValueError("arms needs N >= 2 samples")
    centered = f - f.mean()
    return (centered @ (b - p)) / (1.0 - rho) / (n - 1)


def reinforce_single(f_z: float, z, p) -> np.ndarray:
    """Single-sample score estimator f(z) (z - p); unbiased but high variance."""
    return float(f_z) * (_as_onehot_row(z) - as_probs(p))
