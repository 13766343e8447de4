"""Stable seed derivation for deterministic, worker-count-independent runs.

Python's builtin hash() is salted per process, so per-record seeds are
derived with blake2b over length-prefixed parts. The same (base seed,
workbook, sheet, ordinal) tuple yields the same rng stream on any machine
and under any degree of parallelism.

`derive_seed` is the definition. A generator that seeds every record under
the same leading parts, (seed, "repair") say, takes `seed_prefix` of them
once: it hashes the prefix once and copies that blake2b state per record,
which gives `derive_seed`'s value at about half its cost.
"""

from __future__ import annotations

import hashlib
import random
from typing import Callable, Iterable, Union

Part = Union[int, str, bytes]


def _encode_other(part: Part) -> bytes:
    """Bytes of a part that is not an exact str or int: bytes as given, the
    decimal str() of an int subclass (so `True` encodes as `True`), UTF-8
    for a str subclass."""
    if isinstance(part, bytes):
        return part
    if isinstance(part, int):
        return str(part).encode("ascii")
    return part.encode("utf-8")


def _absorb(h: "hashlib._Hash", parts: Iterable[Part]) -> None:
    """Hash each part as its byte length (4 bytes, little-endian) and its
    bytes: UTF-8 for str, the decimal str() for int, bytes as given."""
    for part in parts:
        kind = type(part)  # exact str and int first: nearly every part is one
        if kind is str:
            data = part.encode("utf-8")  # type: ignore[union-attr]
        elif kind is int:
            data = str(part).encode("ascii")
        else:
            data = _encode_other(part)
        h.update(len(data).to_bytes(4, "little"))
        h.update(data)


def derive_seed(*parts: Part) -> int:
    """Mix parts into a 63-bit seed, stable across processes and platforms.

    Each part is hashed as its byte length (4 bytes, little-endian) and its
    bytes: UTF-8 for str, the decimal str() for int, bytes as given.
    """
    h = hashlib.blake2b(digest_size=8)
    _absorb(h, parts)
    return int.from_bytes(h.digest(), "little") >> 1


def seed_prefix(*prefix: Part) -> Callable[..., int]:
    """`derive_seed` with its leading parts fixed:
    `seed_prefix(*prefix)(*rest) == derive_seed(*prefix, *rest)`. The prefix
    is hashed once, here; each call copies that state and hashes `rest`."""
    state = hashlib.blake2b(digest_size=8)
    _absorb(state, prefix)

    def derive(*rest: Part) -> int:
        h = state.copy()
        _absorb(h, rest)
        return int.from_bytes(h.digest(), "little") >> 1

    return derive


def derive_rng(*parts: Part) -> random.Random:
    return random.Random(derive_seed(*parts))
