"""The one seeded random generator used anywhere in the package.

PCG-XSH-RR with 64-bit state and 32-bit output (O'Neill's pcg32): the state
advances by a fixed 64-bit LCG and the output is an xorshift-high followed
by a data-dependent rotate.  The algorithm is pinned here, in full, so that
reports are byte-for-byte reproducible on any platform; nothing in the
package touches `random` or numpy's generators.

Streams: each task draws from its own stream id (the task's position in the
config), so adding or filtering tasks never perturbs another task's draws.
"""

from __future__ import annotations

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
        xorshifted = (((s >> 18) ^ s) >> 27) & 0xFFFFFFFF
        rot = s >> 59
        return ((xorshifted >> rot) | (xorshifted << (32 - rot) & 0xFFFFFFFF)) & 0xFFFFFFFF

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
