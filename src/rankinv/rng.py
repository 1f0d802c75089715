"""Deterministic, platform-independent randomness (SHA-256 in counter mode).

Every stochastic quantity in this package (random vectors, random field
elements, random automorphism triples, ...) is drawn from a DetRNG so that a
(seed, tag) pair fully determines the result on every platform and Python
version.  Independent purposes use independent tags via spawn().
"""

from __future__ import annotations

import hashlib


class DetRNG:
    """Byte/integer stream derived from SHA-256(seed || tag || block counter)."""

    def __init__(self, seed: int, tag: str = ""):
        if seed < 0:
            raise ValueError("seed must be a non-negative integer")
        self._seed = seed
        self._tag = tag
        self._prefix = str(seed).encode("ascii") + b"|" + tag.encode("utf-8") + b"|"
        self._counter = 0
        self._buf = b""
        self._pos = 0

    @property
    def seed(self) -> int:
        return self._seed

    @property
    def tag(self) -> str:
        return self._tag

    def spawn(self, child_tag: str) -> "DetRNG":
        """Independent stream for a sub-purpose; extends the tag path."""
        tag = f"{self._tag}/{child_tag}" if self._tag else child_tag
        return DetRNG(self._seed, tag)

    def _refill(self) -> None:
        block = str(self._counter).encode("ascii")
        self._buf = hashlib.sha256(self._prefix + block).digest()
        self._counter += 1
        self._pos = 0

    def bytes(self, n: int) -> bytes:
        out = bytearray()
        while len(out) < n:
            if self._pos >= len(self._buf):
                self._refill()
            take = min(n - len(out), len(self._buf) - self._pos)
            out += self._buf[self._pos : self._pos + take]
            self._pos += take
        return bytes(out)

    def randbits(self, k: int) -> int:
        if k <= 0:
            return 0
        nbytes = (k + 7) // 8
        v = int.from_bytes(self.bytes(nbytes), "little")
        return v >> (nbytes * 8 - k)

    def randbelow(self, bound: int) -> int:
        """Uniform integer in [0, bound) via rejection sampling."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        if bound == 1:
            return 0
        k = (bound - 1).bit_length()
        while True:
            v = self.randbits(k)
            if v < bound:
                return v

    def choice(self, seq):
        if not seq:
            raise ValueError("cannot choose from an empty sequence")
        return seq[self.randbelow(len(seq))]

    def sample_distinct(self, count: int, bound: int) -> list[int]:
        """count distinct integers from [0, bound), in draw order."""
        if count > bound:
            raise ValueError("cannot draw more distinct values than the range holds")
        seen: set[int] = set()
        out: list[int] = []
        while len(out) < count:
            v = self.randbelow(bound)
            if v not in seen:
                seen.add(v)
                out.append(v)
        return out
