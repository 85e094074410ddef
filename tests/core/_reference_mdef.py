"""Frozen scalar Equation 9.

A copy of ``repro.core.mdef.mdef_statistic`` from when it applied
Equation 9 to one point with scalar arithmetic.  It is deliberately
**not** kept in sync with the library: it is the reference that
``test_mdef.py`` holds the array Equation 9 (``mdef_statistics``)
bit-identical to, field for field.
"""

from __future__ import annotations

import numpy as np

from repro.core.mdef import MDEFDecision

#: The library's evidence floor and Poisson floor, frozen with the copy.
_EVIDENCE_FLOOR = 1e-9
_POISSON_FLOOR = 2.0


def reference_mdef_statistic(neighbor_count: float, cell_counts: np.ndarray,
                             k_sigma: float, *, min_mdef: float = 0.0,
                             estimation_variance_per_unit: float = 0.0,
                             ) -> MDEFDecision:
    """Equation 9 for one point, as the scalar implementation had it."""
    counts = np.asarray(cell_counts, dtype=float)
    if counts.size == 0:
        raise ValueError("cell_counts must be non-empty")
    counts = np.clip(counts, 0.0, None)
    total = float(counts.sum())
    if total <= _EVIDENCE_FLOOR:
        return MDEFDecision(False, 0.0, 0.0, float(neighbor_count), 0.0, 0.0)
    cell_mean = float(np.sum(counts * counts) / total)
    cell_var = float(np.sum(counts * (counts - cell_mean) ** 2) / total)
    if estimation_variance_per_unit > 0.0:
        cell_var = max(0.0, cell_var - estimation_variance_per_unit * cell_mean)
        floor = _POISSON_FLOOR * np.sqrt(max(cell_mean, 1.0))
        cell_std = float(max(np.sqrt(cell_var), floor))
    else:
        cell_std = float(np.sqrt(max(cell_var, 0.0)))
    mdef = 1.0 - float(neighbor_count) / cell_mean
    sigma_mdef = cell_std / cell_mean
    is_outlier = mdef > k_sigma * sigma_mdef and mdef > min_mdef
    return MDEFDecision(is_outlier, mdef, sigma_mdef,
                        float(neighbor_count), cell_mean, cell_std)
