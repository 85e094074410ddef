"""Direct checks of the paper's theorems.

* Theorem 2's pruned path is covered in ``test_eq5_paths.py`` (exact
  equality with the dense kernel) and timed in ``benchmarks``.
* Theorem 3 -- a parent's distance-based outliers (over the union of its
  children's windows, same (D, r)) are a subset of the union of the
  children's outliers -- is checked here on exact detectors, including
  as a hypothesis property.
* Theorem 1/4 resource bounds are asserted in ``test_variance.py`` and
  the memory benchmark.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.baselines import brute_force_distance_outliers
from repro.core.mdef import MDEFSpec
from repro.core.baselines import brute_force_mdef_outliers
from repro.core.outliers import DistanceOutlierSpec


def outlier_values(values: np.ndarray, spec: DistanceOutlierSpec) -> set:
    mask = brute_force_distance_outliers(values, spec)
    return {tuple(np.round(row, 12)) for row in np.atleast_2d(
        values.reshape(len(mask), -1))[mask]}


class TestTheorem3:
    SPEC = DistanceOutlierSpec(radius=0.02, count_threshold=6)

    def test_union_outliers_subset_of_children(self, rng):
        children = [np.concatenate([rng.normal(m, 0.03, 400),
                                    rng.uniform(0.7, 1.0, 3)])
                    for m in (0.3, 0.4, 0.45)]
        union = np.concatenate(children)
        union_outliers = outlier_values(union, self.SPEC)
        child_outliers = set().union(
            *(outlier_values(child, self.SPEC) for child in children))
        assert union_outliers <= child_outliers

    def test_value_can_stop_being_outlier_at_parent(self, rng):
        """The converse does not hold: a value rare in one child's window
        can be common in the union."""
        a = np.concatenate([rng.normal(0.3, 0.01, 300), [0.6]])
        b = rng.normal(0.6, 0.01, 300)
        spec = DistanceOutlierSpec(radius=0.02, count_threshold=5)
        assert (0.6,) in outlier_values(a, spec)
        assert (0.6,) not in outlier_values(np.concatenate([a, b]), spec)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.lists(st.floats(min_value=0, max_value=1),
                             min_size=1, max_size=40),
                    min_size=2, max_size=4),
           st.floats(min_value=0.01, max_value=0.3),
           st.integers(min_value=1, max_value=10))
    def test_theorem3_property(self, children_raw, radius, threshold):
        spec = DistanceOutlierSpec(radius=radius, count_threshold=threshold)
        children = [np.array(child) for child in children_raw]
        union = np.concatenate(children)
        union_outliers = outlier_values(union, spec)
        child_outliers = set().union(
            *(outlier_values(child, spec) for child in children))
        assert union_outliers <= child_outliers


class TestMDEFNonDecomposability:
    """Section 8's justification for MGDD: Theorem 3 fails for MDEF."""

    def test_parent_mdef_outlier_need_not_be_child_outlier(self, rng):
        spec = MDEFSpec(sampling_radius=0.08, counting_radius=0.01,
                        min_mdef=0.5)
        # Child A: only the sparse gap region -- locally uniform, so its
        # points are unremarkable within A alone.
        child_a = rng.uniform(0.44, 0.48, 60)
        # Child B: a dense plateau next to the gap.
        child_b = rng.uniform(0.30, 0.42, 4_000)
        union = np.concatenate([child_a, child_b])

        outliers_a = brute_force_mdef_outliers(child_a, spec)
        outliers_union = brute_force_mdef_outliers(union, spec)
        gap_in_union = outliers_union[:60]
        # In the union, A's values sit in a void beside B's plateau...
        assert gap_in_union.mean() > 0.5
        # ...while within A alone almost none of them were outliers.
        assert outliers_a.mean() < 0.1
