"""A non-finite reading is refused whole: no node state changes.

Every scalar and batched ingest of the Section 5 stores -- the chain
sample, the variance sketch, the per-node state that owns both and the
single-stream detector built on it -- validates the whole value or
block before touching anything, so a refused call leaves the snapshot
bytes exactly as they were.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro._exceptions import ParameterError
from repro.core.outliers import DistanceOutlierSpec
from repro.detectors._state import StreamModelState
from repro.detectors.single import OnlineOutlierDetector
from repro.engine.snapshot import encode_snapshot
from repro.streams.sampling import ChainSample
from repro.streams.variance import MultiDimVarianceSketch


def _poisoned_point(n_dims: int, poison: float) -> np.ndarray:
    point = np.full(n_dims, 0.5)
    point[-1] = poison
    return point


def _poisoned_block(n_dims: int, poison: float) -> np.ndarray:
    block = np.random.default_rng(4).uniform(size=(5, n_dims))
    block[3, -1] = poison
    return block


def _stores(n_dims: int) -> "dict[str, object]":
    data = np.random.default_rng(2).uniform(size=(10, n_dims))
    sketch = MultiDimVarianceSketch(8, n_dims)
    sample = ChainSample(8, 4, n_dims, rng=np.random.default_rng(3))
    state = StreamModelState(8, 4, n_dims, rng=np.random.default_rng(3))
    # Warm, with a model check every 2 readings: the poisoned block's
    # row 3 lies past the block's first model check.
    detector = OnlineOutlierDetector(
        8, 4, DistanceOutlierSpec(radius=0.1, count_threshold=2),
        n_dims=n_dims, model_refresh=2, rng=np.random.default_rng(3))
    for row in data:
        sketch.insert(row)
        sample.offer(row)
        state.observe(row)
        detector.process(row)
    return {"sketch": sketch, "sample": sample, "state": state,
            "detector": detector}


_SCALAR = {"sketch": "insert", "sample": "offer", "state": "observe",
           "detector": "process"}
_BATCHED = {"sketch": "insert_many", "sample": "offer_many",
            "detector": "process_many"}


@pytest.mark.parametrize("n_dims", [1, 2])
@pytest.mark.parametrize("poison", [np.nan, np.inf, -np.inf])
class TestNonFiniteRefusedWhole:
    @pytest.mark.parametrize("store", sorted(_SCALAR))
    def test_scalar_ingest(self, store, poison, n_dims):
        target = _stores(n_dims)[store]
        before = encode_snapshot(target)
        with pytest.raises(ParameterError, match="finite"):
            getattr(target, _SCALAR[store])(_poisoned_point(n_dims, poison))
        assert encode_snapshot(target) == before

    @pytest.mark.parametrize("store", sorted(_BATCHED))
    def test_batched_ingest(self, store, poison, n_dims):
        target = _stores(n_dims)[store]
        before = encode_snapshot(target)
        with pytest.raises(ParameterError, match="finite"):
            getattr(target, _BATCHED[store])(_poisoned_block(n_dims, poison))
        assert encode_snapshot(target) == before


def test_refused_value_leaves_later_ingest_unchanged():
    """After a refusal, the stores continue exactly like ones that never
    saw the bad value."""
    refused, control = _stores(2), _stores(2)
    with pytest.raises(ParameterError):
        refused["state"].observe(_poisoned_point(2, np.nan))
    block = np.random.default_rng(6).uniform(size=(20, 2))
    assert [refused["state"].observe(row) for row in block] == \
        [control["state"].observe(row) for row in block]
    assert encode_snapshot(refused["state"]) == \
        encode_snapshot(control["state"])
