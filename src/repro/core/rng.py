"""Counter-based (stateless) RNG for the randomized paging tier.

The paper's randomized marking pager needs one uniform bounded draw per
eviction.  A carried-state :class:`numpy.random.Generator` would make
replay code carry generator state across chunk boundaries, so that a
streamed replay draws the same numbers as a materialized one.

:class:`CounterRNG` has no such state.  Every draw is a pure function of
four integer coordinates::

    (root_seed, stream_id, request_index, draw_counter)

mapped onto NumPy's counter-based Philox4x64-10 bit generator: the 128-bit
Philox key is derived from ``(root_seed, stream_id)`` (splitmix64 mixing)
and the 256-bit Philox counter block encodes ``(draw_counter,
request_index)``, so the draw equals what a fresh
``Generator(Philox(counter=..., key=...)).integers(n)`` returns.  Replaying
any coordinate replays the draw; changing any coordinate gives an
independent stream.  Chunk size cannot matter because there is no carried
generator state at all.

:meth:`CounterRNG.integers` drives NumPy's own C Philox implementation by
resetting the bit generator's state to the draw coordinates before each
draw.  For a bound ``1 <= n < 2**32`` it then reads one raw 64-bit Philox
word and applies Lemire's bounded reduction
(https://arxiv.org/abs/1805.10941) in Python, exactly as NumPy's
``Generator.integers`` does for such bounds: the low 32 bits first, the high
32 bits on a rejection.  Two rejections in a row (probability below
``n / 2**32`` each) and every other bound fall back to
``Generator.integers`` at the same coordinates, so every draw equals NumPy's
answer.  Every randomized algorithm draws from one (see
:attr:`repro.core.base.OnlineBMatchingAlgorithm.counter_rng`).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

__all__ = ["CounterRNG", "derive_key"]

_MASK64 = (1 << 64) - 1
_MASK32 = (1 << 32) - 1


# --------------------------------------------------------------------------- #
# Key derivation (plain Python ints; construction-time only)
# --------------------------------------------------------------------------- #
def _splitmix64(x: int) -> int:
    """One splitmix64 finalisation step (full-avalanche 64-bit mixing)."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def derive_key(root_seed: int, stream_id: int = 0) -> Tuple[int, int]:
    """The 128-bit Philox key of stream ``stream_id`` under ``root_seed``.

    Splitmix64 mixing of both coordinates: any change to either produces an
    unrelated key, and the map is a pure function, so the same coordinates
    always address the same stream.
    """
    h = _splitmix64(root_seed & _MASK64)
    h = _splitmix64(h ^ _splitmix64(stream_id & _MASK64))
    k0 = _splitmix64(h)
    k1 = _splitmix64(k0 ^ h)
    return k0, k1


def _combine_streams(parent: int, child: int) -> int:
    """Derived stream id of child ``child`` under stream ``parent``.

    Hash-chained so nested ``stream()`` calls (algorithm -> per-node pager)
    stay collision-free without any registry of allocated ids.
    """
    return _splitmix64((parent & _MASK64) ^ _splitmix64((child & _MASK64) ^ 0xA5A5A5A5A5A5A5A5))


# --------------------------------------------------------------------------- #
# CounterRNG: the NumPy-Philox-backed draw path
# --------------------------------------------------------------------------- #
class CounterRNG:
    """Stateless bounded-draw source addressed by integer coordinates.

    Parameters
    ----------
    root_seed:
        The experiment-level seed.  ``None`` draws fresh entropy
        (irreproducible; allowed for parity with ``default_rng(None)`` but
        discouraged).
    stream_id:
        Which independent stream under ``root_seed`` this instance
        addresses.  Use :meth:`stream` to derive child streams (e.g. one
        per rack) without any coordination.

    Unlike a :class:`numpy.random.Generator`, instances carry **no draw
    state**: :meth:`integers` is a pure function of ``(root_seed,
    stream_id, index, counter)``, so any replay — request-by-request,
    batched, or streamed at an arbitrary chunk size — that presents the
    same coordinates reproduces the same draw, with nothing to fork, save,
    or restore at chunk boundaries.
    """

    __slots__ = ("root_seed", "stream_id", "key", "_bitgen", "_gen", "_state")

    def __init__(self, root_seed: Optional[int] = None, stream_id: int = 0):
        if root_seed is None:
            root_seed = int(np.random.SeedSequence().entropy) & _MASK64
        self.root_seed = int(root_seed)
        self.stream_id = int(stream_id)
        self.key = derive_key(self.root_seed, self.stream_id)
        key_arr = np.array(self.key, dtype=np.uint64)
        self._bitgen = np.random.Philox(key=key_arr)
        self._gen = np.random.Generator(self._bitgen)
        # Pre-built state template: only the two coordinate words change
        # per draw.  buffer_pos=4 / has_uint32=0 mark both buffers empty,
        # so every draw regenerates from the coordinates alone.
        self._state = {
            "bit_generator": "Philox",
            "state": {"counter": [0, 0, 0, 0], "key": [self.key[0], self.key[1]]},
            "buffer": np.zeros(4, dtype=np.uint64),
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }

    def integers(self, n: int, index: int, counter: int = 0) -> int:
        """Uniform draw in ``[0, n)`` at coordinates ``(index, counter)``.

        ``index`` is the caller's draw-sequence position (for the pagers:
        the number of eviction draws made so far, which every replay order
        reproduces identically); ``counter`` distinguishes multiple draws
        at the same index.

        The result always equals ``Generator.integers(n)`` at the same
        Philox state.  For a Python ``int`` bound ``1 <= n < 2**32`` it is
        computed here from one raw Philox word with NumPy's 32-bit Lemire
        reduction: the low half first, then the high half if the low half
        is rejected.  If both are rejected, and for any other bound (numpy
        integers, bools, ``n >= 2**32``, ``n <= 0``), the state is reset
        and ``Generator.integers`` draws (or raises).
        """
        state = self._state
        ctr = state["state"]["counter"]
        ctr[1] = counter & _MASK64
        ctr[2] = index & _MASK64
        bitgen = self._bitgen
        bitgen.state = state
        if type(n) is int and 0 < n <= _MASK32:
            word = bitgen.random_raw()
            # Lemire: m = x * n is accepted unless its low 32 bits fall
            # below 2**32 mod n; checking against n first skips the modulo.
            m = (word & _MASK32) * n
            leftover = m & _MASK32
            if leftover >= n or leftover >= (_MASK32 + 1) % n:
                return m >> 32
            m = (word >> 32) * n
            leftover = m & _MASK32
            if leftover >= n or leftover >= (_MASK32 + 1) % n:
                return m >> 32
            bitgen.state = state
        return int(self._gen.integers(n))

    def stream(self, stream_id: int) -> "CounterRNG":
        """An independent child stream (pure function of the coordinates)."""
        return CounterRNG(
            self.root_seed, _combine_streams(self.stream_id, int(stream_id))
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<CounterRNG root_seed={self.root_seed} stream_id={self.stream_id:#x}>"
        )


def resolve_rng_mode(mode: Optional[str] = None) -> str:
    """Always ``"counter"``: the only way randomized algorithms draw.

    Kept only because the end-to-end benchmark (``perfbench/run.py``)
    records it in its environment block; nothing in the library calls it.
    """
    return "counter"
