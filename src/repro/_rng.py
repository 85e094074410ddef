"""Deterministic randomness defaults (lint rule RL001).

Every stochastic component in this package accepts an injected
``numpy.random.Generator``.  Historically, omitting it fell back to an
*unseeded* ``np.random.default_rng()``, which made default-configured
runs irreproducible -- at odds with the bit-exact replay guarantees the
batched ingestion paths (PR 1) and the tier-1 tests rely on.

This module holds the one sanctioned fallback: a process-global
:class:`numpy.random.SeedSequence` with a fixed root seed hands out
child streams on demand.  Unseeded constructions are therefore

* **deterministic** -- the same program replays bit for bit, and
* **independent** -- successive fallback streams are distinct
  SeedSequence children, so two default-constructed samplers never
  share a bitstream.

``repro-lint`` (RL001) rejects ``np.random.default_rng()`` everywhere
except this module; call :func:`resolve_rng` instead.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "DEFAULT_ROOT_SEED",
    "fresh_rng",
    "reseed_default_streams",
    "resolve_rng",
    "rng_from_state",
    "rng_state",
    "spawn_rngs",
]

#: Root seed of the process-global fallback stream family (the paper's
#: publication date, 2006-09-12 -- any fixed constant would do).
DEFAULT_ROOT_SEED = 20060912

_root_sequence = np.random.SeedSequence(DEFAULT_ROOT_SEED)


def fresh_rng() -> np.random.Generator:
    """A new deterministic generator, independent of all previous ones.

    Each call spawns the next child of the module's root
    :class:`~numpy.random.SeedSequence`: within one process, the ``k``-th
    call always yields the same stream, and no two calls share one.
    """
    return np.random.default_rng(_root_sequence.spawn(1)[0])


def resolve_rng(rng: "np.random.Generator | None",
                seed: "int | None" = None) -> np.random.Generator:
    """Return ``rng`` when given, else a deterministic fallback generator.

    ``seed`` (when not ``None`` and ``rng`` is omitted) selects an
    explicit stream instead of the process-global fallback family.
    """
    if rng is not None:
        return rng
    if seed is not None:
        return np.random.default_rng(seed)
    return fresh_rng()


def spawn_rngs(rng: np.random.Generator,
               n: int) -> "list[np.random.Generator]":
    """``n`` child generators of ``rng``, independent of it and each other.

    Spawning derives them from the SeedSequence without advancing
    ``rng``.  Generators that cannot spawn (numpy < 1.25, and
    :func:`rng_from_state` rebuilds) seed each child from one draw.
    """
    try:
        return list(rng.spawn(n))
    except (AttributeError, TypeError):
        return [np.random.default_rng(int(seed))
                for seed in rng.integers(0, 2**63, size=n)]


def rng_state(rng: np.random.Generator) -> "dict[str, object]":
    """Portable snapshot of a generator's exact bitstream position.

    The returned dict is the bit generator's own ``state`` mapping (which
    names the bit-generator class under the ``"bit_generator"`` key), so a
    :func:`rng_from_state` round trip yields a generator whose future
    draws are bit-identical to the original's.  numpy returns a fresh
    dict on every access, so the snapshot does not alias live state.

    The ``SeedSequence`` is not part of that state: a restored generator
    replays draws exactly but cannot spawn (see :func:`spawn_rngs`).
    """
    return dict(rng.bit_generator.state)


class _Unseeded(np.random.bit_generator.ISeedSequence):
    """Seed source for a bit generator whose state is set right after.

    Seeding from a real ``SeedSequence`` (OS entropy, then hashing)
    costs most of a restore; this one hands out zeros.
    """

    def generate_state(self, n_words: int,
                       dtype: "type" = np.uint32) -> np.ndarray:
        return np.zeros(n_words, dtype=dtype)


_UNSEEDED = _Unseeded()


def rng_from_state(state: "dict[str, object]") -> np.random.Generator:
    """Rebuild a generator from a :func:`rng_state` snapshot."""
    bit_generator = getattr(np.random, str(state["bit_generator"]))(
        _UNSEEDED)
    bit_generator.state = dict(state)
    return np.random.Generator(bit_generator)


def reseed_default_streams(root_seed: int = DEFAULT_ROOT_SEED) -> None:
    """Reset the fallback family (test isolation / explicit re-randomising).

    After this call the next :func:`fresh_rng` yields the first child of
    a fresh root sequence seeded with ``root_seed``.
    """
    global _root_sequence
    _root_sequence = np.random.SeedSequence(root_seed)
