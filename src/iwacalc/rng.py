"""The one seeded random generator used anywhere in the package.

PCG-XSH-RR with 64-bit state and 32-bit output (O'Neill's pcg32): the state
advances by a fixed 64-bit LCG and the output is an xorshift-high followed
by a data-dependent rotate.  The algorithm is pinned here, in full, so that
reports are byte-for-byte reproducible on any platform; nothing in the
package touches `random` or numpy's generators.

Streams: each task draws from its own stream id (the task's position in the
config), so adding or filtering tasks never perturbs another task's draws.

`below_many` draws a whole block of `below` calls at once: k steps of the
LCG are one affine map of the state, so the states of up to `_JUMP` words
are one numpy product and sum in int64, and the output function runs on
all of them together.
"""

from __future__ import annotations

import functools

import numpy as np

MASK64 = (1 << 64) - 1
_MULT = 6364136223846793005


class Pcg32:
    def __init__(self, seed: int, stream: int = 0):
        self._inc = (((stream & MASK64) << 1) | 1) & MASK64
        self._state = 0
        self._step()
        self._state = (self._state + (seed & MASK64)) & MASK64
        self._step()

    def _step(self) -> None:
        self._state = (self._state * _MULT + self._inc) & MASK64

    def u32(self) -> int:
        s = self._state
        self._step()
        return _output(s)

    def u64(self) -> int:
        return (self.u32() << 32) | self.u32()

    def below(self, n: int) -> int:
        """Uniform integer in [0, n) without modulo bias."""
        if n <= 0:
            raise ValueError("below() needs n >= 1")
        if n == 1:
            return 0
        if n <= 1 << 32:
            threshold = (1 << 32) % n
            while True:
                r = self.u32()
                if r >= threshold:
                    return r % n
        if n > 1 << 63:
            raise ValueError("range too large")
        threshold = (1 << 64) % n
        while True:
            r = self.u64()
            if r >= threshold:
                return r % n

    def below_many(self, bounds) -> np.ndarray:
        """The values of successive `below(n)` calls, n running over the
        list of ints `bounds`, as an int64 array, leaving the generator where
        those calls leave it; a bound outside [1, 2^63] raises before
        anything is drawn.  Each round draws the words of the next calls as
        if none were rejected; from the first rejected call on, whose word
        is then spent, the next round draws again.  The arithmetic is int64,
        which wraps as uint64 does; a block with a bound past 2^32, whose
        draws take two words each, is drawn call by call."""
        if bounds and (min(bounds) <= 0 or max(bounds) > 1 << 63):
            raise ValueError("below() needs n >= 1" if min(bounds) <= 0
                             else "range too large")
        if bounds and max(bounds) > 1 << 32:
            return np.array([self.below(n) for n in bounds], dtype=np.int64)
        n = np.array(bounds, dtype=np.int64)
        # one word per call, none for n = 1
        width = (n > 1).astype(np.int64)
        threshold = (1 << 32) % n
        out = np.zeros(n.size, dtype=np.int64)
        i = 0
        while i < n.size:
            w = width[i:i + _JUMP]
            start = np.cumsum(w) - w
            # the states k = 0.._JUMP steps on: s -> a^k s + inc (1 + ... + a^(k-1))
            powers, sums = _jumps()
            states = _signed(self._state) * powers + _signed(self._inc) * sums
            r = _output(states)[start]
            bad = np.flatnonzero((r < threshold[i:i + w.size]) & (w > 0))
            j = int(bad[0]) if bad.size else w.size
            out[i:i + j] = r[:j] % n[i:i + j]
            self._state = int(states[start[j] + 1 if bad.size else start[-1] + w[-1]]) & MASK64
            i += j
        return out


_JUMP = 1024  # words that `below_many` draws in one round


def _signed(x: int) -> int:
    """A residue mod 2^64 as the int64 with the same bits."""
    return x - (1 << 64) if x >> 63 else x


@functools.cache
def _jumps() -> tuple[np.ndarray, np.ndarray]:
    """a^k and 1 + a + ... + a^(k-1) mod 2^64, as int64, for k = 0.._JUMP,
    built on first use rather than at import."""
    powers = np.full(_JUMP + 1, _MULT, dtype=np.int64)
    powers[0] = 1
    powers = np.cumprod(powers)
    sums = np.zeros(_JUMP + 1, dtype=np.int64)
    sums[1:] = np.cumsum(powers[:-1])
    return powers, sums


def _output(s):
    """The 32-bit output of a state, an int in [0, 2^64) or an int64 array
    with its bits: the xorshift-high, then the data-dependent rotate.  The
    masks make the right shifts of negative int64 values logical."""
    logical = (s >> 18) & ((1 << 46) - 1)  # s >> 18 on the unsigned bits
    xorshifted = ((logical ^ s) >> 27) & 0xFFFFFFFF
    rot = (s >> 59) & 31
    return ((xorshifted >> rot) | (xorshifted << (32 - rot) & 0xFFFFFFFF)) & 0xFFFFFFFF
