"""Named, counter-based random substreams.

Every consumer of randomness asks for a stream by (run seed, scope path), e.g.
``substream(seed, "vehicle", 7)``.  Streams are mutually independent Philox
streams, so adding or removing one consumer never perturbs the draws seen by
another.  This is what makes per-vehicle behaviour stable when a scenario is
extended.
"""

from __future__ import annotations

import hashlib
from functools import cache

import numpy as np


def stream_key(seed: int, *scope: object) -> bytes:
    """Stable 128-bit key material for a (seed, scope) pair."""
    label = "/".join(str(part) for part in scope)
    material = f"{int(seed)}|{label}".encode()
    return hashlib.sha256(material).digest()[:16]


def substream(seed: int, *scope: object) -> np.random.Generator:
    """Derive an independent generator from the run seed and a scope path.

    The stream is a Philox generator keyed by the first 128 bits of the
    SHA-256 of ``"seed|scope"`` (:func:`stream_key`), counter 0; no seed
    sequence is drawn.  The same (seed, scope) always yields an identical
    stream, on any platform, regardless of how many other streams exist or in
    which order they were created.
    """
    key = np.frombuffer(stream_key(seed, *scope), dtype="<u8")
    return np.random.Generator(np.random.Philox(_key_type()(key)))


def _keyed(words: bytes):
    """Rebuild a pickled stream key from its 16 bytes."""
    return _key_type()(np.frombuffer(words, dtype="<u8"))


@cache
def _key_type() -> type:
    """The seed sequence a stream's key reaches Philox through.

    ``np.random.Philox(key=...)`` first builds a ``SeedSequence`` from OS
    entropy and then ignores it; given an instance of this class, Philox asks
    it for its two 64-bit key words and builds nothing else.  Any other
    request raises, so a NumPy that seeds Philox differently fails instead of
    deriving another stream; NumPy's own ``spawn`` refuses it, as it cannot
    spawn.  It pickles as its key words, so a stream's generator still crosses
    processes.  The class is made on the first stream, because its base loads
    ``numpy.random``, which importing vehsim does not on NumPy >= 2 (NumPy
    1.x loads it with numpy itself).
    """
    from numpy.random.bit_generator import ISeedSequence

    class Key(ISeedSequence):
        __slots__ = ("words",)

        def __init__(self, words: np.ndarray) -> None:
            self.words = words

        def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
            if n_words != 2 or dtype != np.uint64:
                raise TypeError(f"a Philox key is two uint64 words, not {n_words} of {dtype!r}")
            return self.words

        def __reduce__(self):
            return _keyed, (self.words.tobytes(),)

    return Key
