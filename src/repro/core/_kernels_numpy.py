"""Fused, cache-blocked numpy kernels for the Eq. 4-6 hot paths.

This module is the one compute path behind the estimator
(:mod:`repro.core.estimator`) and the cross-stream engine.  Each function
evaluates the exact expression the estimator historically inlined, but
blocked over the *query* axis so a block's scratch arrays (at most
:data:`BLOCK_CELLS` cells each) stay resident in cache, and with every
elementwise step running in place instead of allocating a fresh
temporary.

Bit-identity contract
---------------------
Every function here reproduces the historical estimator expressions bit
for bit.  That holds because the rewrites only use transformations that
are exact under IEEE-754 round-to-nearest:

* blocking over the query axis (rows are reduced independently, so the
  per-row pairwise summation of ``mean``/``sum`` is unchanged -- blocking
  over the *centres* axis would change it and is never done);
* in-place ``out=`` variants of the same ufunc calls;
* commuting the operands of a single multiplication or addition
  (``z * 3.0`` for ``3.0 * z``);
* ``np.maximum(t, 0.0)`` for the Epanechnikov profile's ``np.where``
  mask (values outside the support are negative, and the boundary value
  is ``+0.0`` either way);
* sweeping the dimensions of a multi-dimensional query as 2-d slabs
  with a running product (numpy's multiply reduction over a short last
  axis is sequential left to right, so the accumulator reproduces
  ``prod(axis=2)`` exactly);
* ``np.add.reduce`` followed by ``np.true_divide`` by the row length
  for ``np.mean``, which is how ``mean`` computes.

Divisions are preserved as divisions and reciprocal-multiplications as
reciprocal-multiplications, per call site: the two differ in the last
ulp.  The equivalence suite in ``tests/core/test_backend_equivalence.py``
asserts ``np.array_equal`` against frozen copies of the pre-fusion
implementations.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import ndtr

from repro.core.kernels import Kernel

__all__ = ["BLOCK_CELLS", "range_batch", "range_batch_stacked", "pdf_batch",
           "cdf_diff_rows"]

#: Cells per fused evaluation block: 262 144 float64 cells are 2 MB of
#: scratch, sized so a block's working set streams through L2.
BLOCK_CELLS = 262_144

_SQRT_TWO_PI = math.sqrt(2.0 * math.pi)


def _cdf_inplace(kernel: Kernel, name: str, z: np.ndarray,
                 scratch: np.ndarray) -> None:
    """``z <- kernel.cdf(z)`` without allocating (named kernels)."""
    if name == "epanechnikov":
        # 0.25 * (2 + 3c - c^3) with c = clip(z, -1, 1), as in
        # EpanechnikovKernel.cdf.
        np.clip(z, -1.0, 1.0, out=z)
        np.multiply(z, z, out=scratch)
        np.multiply(scratch, z, out=scratch)
        np.multiply(z, 3.0, out=z)
        np.add(z, 2.0, out=z)
        np.subtract(z, scratch, out=z)
        np.multiply(z, 0.25, out=z)
    elif name == "gaussian":
        ndtr(z, out=z)
    else:
        z[...] = kernel.cdf(z)


def _profile_inplace(kernel: Kernel, name: str, u: np.ndarray,
                     scratch: np.ndarray) -> np.ndarray:
    """``kernel.profile(u)`` evaluated into ``scratch``."""
    if name == "epanechnikov":
        # max(0.75 * (1 - u^2), 0): outside the support the parabola is
        # negative, so the clamp equals the where() mask bit for bit.
        np.multiply(u, u, out=scratch)
        np.subtract(1.0, scratch, out=scratch)
        np.multiply(scratch, 0.75, out=scratch)
        np.maximum(scratch, 0.0, out=scratch)
    elif name == "gaussian":
        np.multiply(u, -0.5, out=scratch)
        np.multiply(scratch, u, out=scratch)
        np.exp(scratch, out=scratch)
        np.divide(scratch, _SQRT_TWO_PI, out=scratch)
    else:
        scratch[...] = kernel.profile(u)
    return scratch


def range_batch(kernel: Kernel, lows: np.ndarray, highs: np.ndarray,
                centers: np.ndarray, inv_bw: np.ndarray,
                out: np.ndarray, block_cells: int) -> None:
    """Eq. 5 range probabilities for ``m`` query boxes into ``out``.

    ``out[i] = mean_j prod_k (cdf(z_hi[i,j,k]) - cdf(z_lo[i,j,k]))`` with
    ``z = (bound - centre) * inv_bw``.  Unclipped and unsanitised -- the
    estimator applies both.  A one-model :func:`range_batch_stacked`.
    """
    range_batch_stacked(kernel, lows[None], highs[None], centers[None],
                        inv_bw[None], out[None], block_cells)


def range_batch_stacked(kernel: Kernel, lows: np.ndarray, highs: np.ndarray,
                        centers: np.ndarray, inv_bw: np.ndarray,
                        out: np.ndarray, block_cells: int) -> None:
    """Eq. 5 range probabilities of ``S`` models at once into ``out``.

    Model ``s`` has centres ``centers[s]`` (all models hold ``n``) and
    inverse bandwidths ``inv_bw[s]``; its ``m`` query boxes are
    ``lows[s]``/``highs[s]`` and land in ``out[s]``.  The operations are
    the historical single-model expression's with a leading model axis,
    and each (model, query) row is reduced on its own, so every row
    equals a one-model call bit for bit.  Blocks hold at most
    ``block_cells`` cells per scratch array: whole models while they
    fit, queries within one model otherwise.
    """
    n_models, m, d = lows.shape
    if n_models == 0 or m == 0:
        return
    n = centers.shape[1]
    name = getattr(kernel, "name", "")
    qb = max(1, min(m, block_cells // max(1, n)))
    sb = max(1, min(n_models, block_cells // max(1, qb * n)))
    z_hi = np.empty((sb, qb, n))
    z_lo = np.empty((sb, qb, n))
    buf = np.empty((sb, qb, n))
    # d > 1: sweep the dimensions one slab at a time instead of
    # materialising a trailing d axis -- every op stays contiguous, and
    # the running product accumulates dimensions left to right exactly
    # like ``prod(axis=-1)`` over the historical array.
    acc = np.empty((sb, qb, n)) if d > 1 else z_hi
    for s0 in range(0, n_models, sb):
        s1 = min(s0 + sb, n_models)
        for q0 in range(0, m, qb):
            q1 = min(q0 + qb, m)
            zh, zl, t, p = z_hi, z_lo, buf, acc
            if s1 - s0 < sb or q1 - q0 < qb:
                # A ragged last block: contiguous views of its size.
                shape = (s1 - s0, q1 - q0, n)
                size = shape[0] * shape[1] * n
                zh, zl, t, p = (a.reshape(-1)[:size].reshape(shape)
                                for a in (z_hi, z_lo, buf, acc))
            for j in range(d):
                c = centers[s0:s1, None, :, j]
                scale = inv_bw[s0:s1, j, None, None]
                np.subtract(highs[s0:s1, q0:q1, j, None], c, out=zh)
                np.multiply(zh, scale, out=zh)
                np.subtract(lows[s0:s1, q0:q1, j, None], c, out=zl)
                np.multiply(zl, scale, out=zl)
                _cdf_inplace(kernel, name, zh, t)
                _cdf_inplace(kernel, name, zl, t)
                np.subtract(zh, zl, out=zh)
                if d == 1:
                    pass            # p is zh
                elif j == 0:
                    p[...] = zh
                else:
                    np.multiply(p, zh, out=p)
            # np.mean's own two steps, without its Python-level wrapper.
            rows = out[s0:s1, q0:q1]
            np.add.reduce(p, axis=2, out=rows)
            np.true_divide(rows, n, out=rows)


def pdf_batch(kernel: Kernel, queries: np.ndarray, centers: np.ndarray,
              inv_bw: np.ndarray, norm: float, out: np.ndarray,
              block_cells: int) -> None:
    """Eq. 1 density at ``m`` query points into ``out``.

    ``out[i] = norm * sum_j prod_k profile((q[i,k] - c[j,k]) * inv_bw[k])``.
    """
    m = queries.shape[0]
    if m == 0:
        return
    n, d = centers.shape
    name = getattr(kernel, "name", "")
    if d == 1:
        q, c = queries[:, 0], centers[:, 0]
        scale = inv_bw[0]
        qb = max(1, min(m, block_cells // max(1, n)))
        u2 = np.empty((qb, n))
        buf = np.empty((qb, n))
        for s in range(0, m, qb):
            e = min(s + qb, m)
            k = e - s
            u, t = u2[:k], buf[:k]
            np.subtract(q[s:e, None], c[None, :], out=u)
            np.multiply(u, scale, out=u)
            t = _profile_inplace(kernel, name, u, t)
            np.sum(t, axis=1, out=out[s:e])
    else:
        # Same per-dimension slab sweep as range_batch: left-to-right
        # accumulation matches ``prod(axis=2)`` bit for bit.
        qb = max(1, min(m, block_cells // max(1, n)))
        u2 = np.empty((qb, n))
        buf = np.empty((qb, n))
        acc = np.empty((qb, n))
        for s in range(0, m, qb):
            e = min(s + qb, m)
            k = e - s
            u, t, p = u2[:k], buf[:k], acc[:k]
            for j in range(d):
                c = centers[:, j]
                np.subtract(queries[s:e, j, None], c[None, :], out=u)
                np.multiply(u, inv_bw[j], out=u)
                t = _profile_inplace(kernel, name, u, buf[:k])
                if j == 0:
                    p[...] = t
                else:
                    np.multiply(p, t, out=p)
            np.sum(p, axis=1, out=out[s:e])
    np.multiply(out, norm, out=out)


def cdf_diff_rows(kernel: Kernel, edges: np.ndarray, centers: np.ndarray,
                  bandwidth: float) -> np.ndarray:
    """Per-centre CDF mass between consecutive edges, shape ``(n, k)``.

    Matches ``np.diff(kernel.cdf((edges[None, :] - centers[:, None])
    / bandwidth), axis=1)`` -- note the division by the bandwidth, which
    this call site has always used (it is not a reciprocal multiply).
    """
    z = np.subtract(edges[None, :], centers[:, None])
    np.divide(z, bandwidth, out=z)
    _cdf_inplace(kernel, getattr(kernel, "name", ""), z, np.empty_like(z))
    return np.diff(z, axis=1)
