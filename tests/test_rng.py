"""Child-generator derivation (``repro._rng.spawn_rngs``)."""

from __future__ import annotations

import numpy as np

from repro._rng import rng_from_state, rng_state, spawn_rngs


def test_spawn_leaves_the_parent_untouched():
    parent, twin = np.random.default_rng(3), np.random.default_rng(3)
    children = spawn_rngs(parent, 3)
    np.testing.assert_array_equal(parent.random(8), twin.random(8))
    draws = [child.random(4).tolist() for child in children]
    assert len({tuple(d) for d in draws}) == 3


def test_restored_generator_seeds_children_from_its_draws():
    """A restored generator cannot spawn: each child is seeded from one
    ``integers(2**63)`` draw, the same as the scalar idiom."""
    restored = rng_from_state(rng_state(np.random.default_rng(4)))
    replay = rng_from_state(rng_state(np.random.default_rng(4)))
    (child,) = spawn_rngs(restored, 1)
    expected = np.random.default_rng(int(replay.integers(2**63)))
    np.testing.assert_array_equal(child.random(8), expected.random(8))
    np.testing.assert_array_equal(restored.random(8), replay.random(8))
