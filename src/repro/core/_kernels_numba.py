"""Numba-compiled hot-path kernels (the optional ``repro[fast]`` extra).

Importing this module requires numba; :mod:`repro.core.backend` guards
the import and silently falls back to the numpy backend when it is
missing, so nothing else may import this module directly.

The compiled kernels parallelise over the *query* axis (each query's
reduction over the kernel centres is sequential), so results are
deterministic across thread counts.  They accumulate per query with a
plain left-to-right sum rather than numpy's pairwise summation, which is
why the backend contract only promises 1e-9 *relative* agreement with
the numpy backend -- except :func:`eh_compress`, which emits the exact
IEEE operation sequence of ``EHVarianceSketch._compress`` (numba does
not contract FMAs or reassociate without ``fastmath``) and is therefore
bit-identical.

Kernels without a compiled specialisation (anything other than the
Epanechnikov and Gaussian kernels) delegate to the numpy backend.
"""

from __future__ import annotations

import math

import numpy as np
from numba import njit, prange

from repro.core import _kernels_numpy as _np_impl
from repro.core.kernels import Kernel

__all__ = ["range_batch", "range_batch_stacked", "pdf_batch", "cdf_diff_rows",
           "eh_compress"]

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT_TWO_PI = 1.0 / math.sqrt(2.0 * math.pi)


@njit(inline="always")
def _epan_cdf(z: float) -> float:
    if z < -1.0:
        z = -1.0
    elif z > 1.0:
        z = 1.0
    return 0.25 * (2.0 + 3.0 * z - z * z * z)


@njit(inline="always")
def _gauss_cdf(z: float) -> float:
    return 0.5 * math.erfc(-z * _INV_SQRT2)


@njit(cache=True, parallel=True)
def _range_epan(lows, highs, centers, inv_bw, out):  # pragma: no cover - compiled
    m = lows.shape[0]
    n, d = centers.shape
    for i in prange(m):
        acc = 0.0
        for j in range(n):
            p = 1.0
            for k in range(d):
                z_hi = (highs[i, k] - centers[j, k]) * inv_bw[k]
                z_lo = (lows[i, k] - centers[j, k]) * inv_bw[k]
                p *= _epan_cdf(z_hi) - _epan_cdf(z_lo)
            acc += p
        out[i] = acc / n


@njit(cache=True, parallel=True)
def _range_gauss(lows, highs, centers, inv_bw, out):  # pragma: no cover - compiled
    m = lows.shape[0]
    n, d = centers.shape
    for i in prange(m):
        acc = 0.0
        for j in range(n):
            p = 1.0
            for k in range(d):
                z_hi = (highs[i, k] - centers[j, k]) * inv_bw[k]
                z_lo = (lows[i, k] - centers[j, k]) * inv_bw[k]
                p *= _gauss_cdf(z_hi) - _gauss_cdf(z_lo)
            acc += p
        out[i] = acc / n


@njit(cache=True, parallel=True)
def _pdf_epan(queries, centers, inv_bw, norm, out):  # pragma: no cover - compiled
    m = queries.shape[0]
    n, d = centers.shape
    for i in prange(m):
        acc = 0.0
        for j in range(n):
            p = 1.0
            for k in range(d):
                u = (queries[i, k] - centers[j, k]) * inv_bw[k]
                if u < -1.0 or u > 1.0:
                    p = 0.0
                    break
                p *= 0.75 * (1.0 - u * u)
            acc += p
        out[i] = acc * norm


@njit(cache=True, parallel=True)
def _pdf_gauss(queries, centers, inv_bw, norm, out):  # pragma: no cover - compiled
    m = queries.shape[0]
    n, d = centers.shape
    for i in prange(m):
        acc = 0.0
        for j in range(n):
            s = 0.0
            for k in range(d):
                u = (queries[i, k] - centers[j, k]) * inv_bw[k]
                s += u * u
            acc += math.exp(-0.5 * s) * _INV_SQRT_TWO_PI ** d
        out[i] = acc * norm


def range_batch(kernel: Kernel, lows: np.ndarray, highs: np.ndarray,
                centers: np.ndarray, inv_bw: np.ndarray,
                out: np.ndarray, block_cells: int) -> None:
    """Compiled Eq. 5 range probabilities; see the numpy backend for the contract."""
    if lows.shape[0] == 0:
        return
    name = getattr(kernel, "name", "")
    if name == "epanechnikov":
        _range_epan(lows, highs, centers, inv_bw, out)
    elif name == "gaussian":
        _range_gauss(lows, highs, centers, inv_bw, out)
    else:
        _np_impl.range_batch(kernel, lows, highs, centers, inv_bw, out,
                             block_cells)


def range_batch_stacked(kernel: Kernel, lows: np.ndarray, highs: np.ndarray,
                        centers: np.ndarray, inv_bw: np.ndarray,
                        out: np.ndarray, block_cells: int) -> None:
    """Many models' range probabilities: :func:`range_batch` per model,
    so each model's rows equal its own single-model call exactly."""
    # One compiled call per model, not a per-element walk.
    for s in range(lows.shape[0]):  # repro-lint: disable=RL008
        range_batch(kernel, lows[s], highs[s], centers[s], inv_bw[s],
                    out[s], block_cells)


def pdf_batch(kernel: Kernel, queries: np.ndarray, centers: np.ndarray,
              inv_bw: np.ndarray, norm: float, out: np.ndarray,
              block_cells: int) -> None:
    """Compiled Eq. 1 density; see the numpy backend for the contract."""
    if queries.shape[0] == 0:
        return
    name = getattr(kernel, "name", "")
    if name == "epanechnikov":
        _pdf_epan(queries, centers, inv_bw, norm, out)
    elif name == "gaussian":
        _pdf_gauss(queries, centers, inv_bw, norm, out)
    else:
        _np_impl.pdf_batch(kernel, queries, centers, inv_bw, norm, out,
                           block_cells)


def cdf_diff_rows(kernel: Kernel, edges: np.ndarray, centers: np.ndarray,
                  bandwidth: float) -> np.ndarray:
    """Per-centre CDF mass between edges.

    The grid paths are O(n * cells) on small grids and never profile-hot,
    so this delegates to the fused numpy implementation (which is also
    what keeps the result bit-identical across backends).
    """
    return _np_impl.cdf_diff_rows(kernel, edges, centers, bandwidth)


@njit(cache=True)
def _eh_compress(newest_ts, counts, means, m2s,
                 max_count, budget,
                 out_ts, out_counts, out_means, out_m2s):  # pragma: no cover - compiled
    # Literal transcription of EHVarianceSketch._compress: same two
    # passes, same expression trees, operating on parallel arrays.
    n = counts.shape[0]
    suffix_m2 = np.empty(n)
    s_count = counts[n - 1]
    s_mean = means[n - 1]
    s_m2 = m2s[n - 1]
    suffix_m2[n - 1] = s_m2
    for i in range(n - 2, -1, -1):
        c = counts[i]
        total = c + s_count
        delta = s_mean - means[i]
        s_m2 = m2s[i] + s_m2 + delta * delta * (c * s_count / total)
        s_mean = means[i] + delta * (s_count / total)
        s_count = total
        suffix_m2[i] = s_m2
    w = 0
    c_ts = newest_ts[0]
    c_count = counts[0]
    c_mean = means[0]
    c_m2 = m2s[0]
    head = 0
    for i in range(1, n):
        b_count = counts[i]
        total = c_count + b_count
        delta = means[i] - c_mean
        cand_m2 = c_m2 + m2s[i] + delta * delta * (c_count * b_count / total)
        if total <= max_count and cand_m2 <= budget * suffix_m2[head]:
            c_mean += delta * (b_count / total)
            c_m2 = cand_m2
            c_count = total
            c_ts = newest_ts[i]
        else:
            out_ts[w] = c_ts
            out_counts[w] = c_count
            out_means[w] = c_mean
            out_m2s[w] = c_m2
            w += 1
            c_ts = newest_ts[i]
            c_count = b_count
            c_mean = means[i]
            c_m2 = m2s[i]
            head = i
    out_ts[w] = c_ts
    out_counts[w] = c_count
    out_means[w] = c_mean
    out_m2s[w] = c_m2
    return w + 1


def eh_compress(newest_ts: np.ndarray, counts: np.ndarray, means: np.ndarray,
                m2s: np.ndarray, max_count: float, budget: float,
                ) -> "tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]":
    """Compiled EH bucket merge pass; arrays in (oldest first), arrays out.

    Bucket counts arrive as float64 (exact for any realistic window
    population) so the merge arithmetic matches the Python ints-into-
    float division bit for bit.
    """
    n = counts.shape[0]
    out_ts = np.empty(n, dtype=np.int64)
    out_counts = np.empty(n)
    out_means = np.empty(n)
    out_m2s = np.empty(n)
    w = _eh_compress(newest_ts, counts, means, m2s, float(max_count),
                     float(budget), out_ts, out_counts, out_means, out_m2s)
    return out_ts[:w], out_counts[:w], out_means[:w], out_m2s[:w]
