"""Deterministic random-number management for simulations.

Every randomized component of the library (generators, algorithms, the
guessing-game oracle) takes a seed or an explicit ``random.Random``.  This
module provides :func:`make_rng` and :func:`spawn_rngs` so that a single
experiment seed deterministically derives independent per-node / per-phase
streams — re-running an experiment with the same seed reproduces every
decision bit-for-bit.

The numpy sampling mode
-----------------------
Replicated (multi-seed) runs use a second RNG family: per-replication
``numpy.random.Generator`` streams created by :func:`make_numpy_rng` /
:func:`replication_rngs` from :func:`derive_seed` labels.  Replication ``r``
of a run seeded ``s`` always draws from the generator seeded
``derive_seed(s, "rep", r)`` — that label scheme is the parity contract
between the vectorized :class:`~repro.simulation.batch_engine.BatchEngine`
and sequential numpy-mode :class:`~repro.simulation.fast_engine.FastEngine`
runs.  Under the numpy mode an engine draws **one uniform vector per round**
(one float per node, gated-out nodes discard theirs) and maps each float to
a neighbour slot with :func:`uniform_slot_offsets`; both engines share that
helper, so a batched column and its sequential twin consume identical
streams and make identical choices bit for bit.

Replaying a ``random.Random`` in numpy
--------------------------------------
Graph builders draw one value per edge (latencies) or per node pair
(Erdős–Rényi coins) from a classic ``random.Random``.  :class:`MersenneReplay`
loads that rng's Mersenne Twister state into numpy's ``MT19937`` and draws
the same 32-bit words in blocks, decoding them exactly as CPython's
``random()`` and ``randrange()`` do; it then writes the advanced state back.
A vectorized build therefore yields the values the scalar calls would have,
in the same order, and leaves the rng where they would have left it.
"""

from __future__ import annotations

import random
from collections.abc import Hashable, Iterable
from typing import Any

try:  # numpy is a hard dependency of the package, but degrade loudly.
    import numpy as _np
except ImportError:  # pragma: no cover - numpy ships with the library
    _np = None

__all__ = [
    "make_rng",
    "spawn_rngs",
    "derive_seed",
    "make_numpy_rng",
    "replication_seed",
    "replication_rngs",
    "is_numpy_generator",
    "uniform_slot_offsets",
    "MersenneReplay",
    "REPLAY_BLOCK",
]

_MIX_CONSTANT = 0x9E3779B97F4A7C15  # golden-ratio constant for seed mixing


def derive_seed(base_seed: int, *components: Hashable) -> int:
    """Derive a new seed from a base seed and a sequence of hashable labels.

    The derivation is deterministic across runs and Python processes for the
    common label types used here (ints, strings, tuples of those): strings
    are folded by character code rather than Python's randomized ``hash``.
    """
    state = (base_seed * _MIX_CONSTANT) & 0xFFFFFFFFFFFFFFFF
    for component in components:
        if isinstance(component, str):
            folded = 0
            for char in component:
                folded = (folded * 131 + ord(char)) & 0xFFFFFFFFFFFFFFFF
        elif isinstance(component, int):
            folded = component & 0xFFFFFFFFFFFFFFFF
        elif isinstance(component, tuple):
            folded = derive_seed(0, *component)
        else:
            folded = derive_seed(0, repr(component))
        state ^= (folded + _MIX_CONSTANT + (state << 6) + (state >> 2)) & 0xFFFFFFFFFFFFFFFF
        state &= 0xFFFFFFFFFFFFFFFF
    return state


def make_rng(seed: int, *components: Hashable) -> random.Random:
    """Return a :class:`random.Random` seeded from ``seed`` and optional labels."""
    return random.Random(derive_seed(seed, *components) if components else seed)


def spawn_rngs(seed: int, labels: Iterable[Hashable]) -> dict[Hashable, random.Random]:
    """Return one independent RNG per label, all derived from ``seed``."""
    return {label: make_rng(seed, label) for label in labels}


# ----------------------------------------------------------------------
# The numpy sampling mode (replicated runs)
# ----------------------------------------------------------------------
def _require_numpy() -> Any:
    """Return the numpy module or raise a clear error if it is missing."""
    if _np is None:  # pragma: no cover - numpy ships with the library
        raise RuntimeError(
            "the numpy sampling mode (batched replications, numpy-mode FastEngine "
            "runs) requires numpy, which is not installed"
        )
    return _np


def make_numpy_rng(seed: int, *components: Hashable) -> Any:
    """Return a ``numpy.random.Generator`` seeded from ``seed`` and labels.

    Uses numpy's default bit generator (PCG64) seeded with
    :func:`derive_seed`, so numpy streams follow the same label-derivation
    discipline as the ``random.Random`` family.
    """
    np = _require_numpy()
    return np.random.default_rng(derive_seed(seed, *components) if components else seed)


def replication_seed(seed: int, rep: int) -> int:
    """The derived seed of replication ``rep``: ``derive_seed(seed, "rep", rep)``.

    This label scheme is load-bearing: a batched run's column ``r`` and the
    sequential numpy-mode run of replication ``r`` both seed their neighbour
    draws from exactly this value, which is what makes them bit-identical.
    """
    return derive_seed(seed, "rep", rep)


def replication_rngs(seed: int, reps: int) -> list:
    """One independent numpy Generator per replication, in replication order."""
    np = _require_numpy()
    if reps < 1:
        raise ValueError(f"reps must be >= 1, got {reps}")
    return [np.random.default_rng(replication_seed(seed, rep)) for rep in range(reps)]


def is_numpy_generator(rng: Any) -> bool:
    """Whether ``rng`` is a numpy Generator (selects the numpy sampling mode)."""
    return _np is not None and isinstance(rng, _np.random.Generator)


def degrees_array(indptr: Any) -> Any:
    """Per-node degrees (``int64`` array) from a CSR ``indptr`` sequence."""
    np = _require_numpy()
    return np.diff(np.asarray(indptr, dtype=np.int64))


def uniform_slot_offsets(u: Any, degrees: Any) -> Any:
    """Map uniform [0, 1) draws to neighbour-slot offsets, ``floor(u * degree)``.

    ``u`` and ``degrees`` broadcast, so the same expression serves the
    sequential path (``u`` of shape ``(n,)``) and the batched path (``u`` of
    shape ``(n, reps)`` against ``degrees[:, None]``) — elementwise float64
    multiplication is shape-independent, which is what keeps the two paths
    bit-identical.  Offsets are clamped to ``degree - 1`` to guard the
    (rounding-only) edge where ``u * degree`` lands exactly on ``degree``;
    zero-degree positions yield a negative sentinel and must be masked out
    by the caller before indexing.
    """
    np = _require_numpy()
    offsets = (u * degrees).astype(np.int64)
    return np.minimum(offsets, degrees - 1)


# ----------------------------------------------------------------------
# Replaying a random.Random stream in numpy
# ----------------------------------------------------------------------
#: Values per numpy draw when replaying a ``random.Random``: bounds the
#: transient word arrays whatever the size of the build.
REPLAY_BLOCK = 1 << 16


class MersenneReplay:
    """Draw a ``random.Random``'s own MT19937 words in numpy, then hand them back.

    CPython's ``random.Random`` and numpy's ``MT19937`` are the same
    generator with the same state layout (624 key words plus a position),
    so after loading ``rng.getstate()`` into the bit generator its
    ``random_raw`` returns exactly the words ``rng`` would consume next.
    :meth:`random` and :meth:`randrange` decode those words as the scalar
    methods do, value for value; :meth:`close` (or leaving a ``with``
    block) writes the advanced state back into ``rng``, which then
    continues as if it had made every call itself.

    Only an exact ``random.Random`` is accepted: a subclass may override
    ``random`` or ``getrandbits``, and then its scalar draws need not come
    from this stream.
    """

    def __init__(self, rng: random.Random) -> None:
        if type(rng) is not random.Random:
            raise TypeError(f"only an exact random.Random can be replayed, not {type(rng).__name__}")
        np = _require_numpy()
        self._rng = rng
        self._version, internal, self._gauss_next = rng.getstate()
        self._bitgen = np.random.MT19937()
        self._bitgen.state = {
            "bit_generator": "MT19937",
            "state": {"key": np.array(internal[:-1], dtype=np.uint32), "pos": internal[-1]},
        }

    def __enter__(self) -> "MersenneReplay":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def close(self) -> None:
        """Write the advanced Mersenne Twister state back into the rng."""
        state = self._bitgen.state["state"]
        internal = tuple(state["key"].tolist()) + (int(state["pos"]),)
        self._rng.setstate((self._version, internal, self._gauss_next))

    def random(self, count: int) -> Any:
        """``count`` float64 values, equal to ``count`` calls of ``rng.random()``.

        CPython builds each float from two words as
        ``((a >> 5) * 2**26 + (b >> 6)) * 2**-53``, which is exact in float64.
        """
        np = _require_numpy()
        out = np.empty(count, dtype=np.float64)
        for start in range(0, count, REPLAY_BLOCK):
            stop = min(count, start + REPLAY_BLOCK)
            words = self._bitgen.random_raw(2 * (stop - start))
            mantissa = words[0::2] >> 5
            mantissa <<= 26
            mantissa |= words[1::2] >> 6
            np.multiply(mantissa, 2.0**-53, out=out[start:stop])
        return out

    def randrange(self, width: int, count: int) -> Any:
        """``count`` int64 values, equal to ``count`` calls of ``rng.randrange(width)``.

        CPython's ``_randbelow`` takes the top ``width.bit_length()`` bits
        of one word per try and rejects values ``>= width``; one word per
        try holds for ``width < 2**32``.  Each block draws no more words
        than values are still missing, so no word past the last accepted
        one is consumed.
        """
        if not 1 <= width < 2**32:
            raise ValueError(f"randrange replay needs 1 <= width < 2**32, got {width}")
        np = _require_numpy()
        shift = 32 - width.bit_length()
        out = np.empty(count, dtype=np.int64)
        filled = 0
        while filled < count:
            words = self._bitgen.random_raw(min(REPLAY_BLOCK, count - filled))
            words >>= shift
            accepted = words[words < width]
            out[filled : filled + accepted.size] = accepted
            filled += accepted.size
        return out
