"""Stable seed derivation and the one per-record map of the generators.

Python's builtin hash() is salted per process, so per-record seeds are
derived with blake2b over length-prefixed parts. The same (base seed,
workbook, sheet, ordinal) tuple yields the same rng stream on any machine
and under any degree of parallelism.

`seed_prefix` is the definition: it hashes leading parts once and copies
that blake2b state per call, and it is cached, so a generator that seeds
every record under the same leading parts, (seed, "repair") say, hashes
them once per process. `derive_seed(*parts)` is `seed_prefix()(*parts)`.

`map_records` is how every generator walks its input (`curation.ingest`,
`objectives.generate_pretrain` and both fine-tune generators in
`evaluation`): it calls a per-record function on each item and its
ordinal, in input order, serially or over a process pool, yields what it
returns and counts each skip by its reason. Since a record's output
depends only on the record and its ordinal, the output is the same for
any number of workers.
"""

from __future__ import annotations

import contextlib
import hashlib
import random
from collections import Counter
from functools import lru_cache
from itertools import count, repeat
from typing import Callable, Iterable, Iterator, Optional, Union

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
    """Mix parts into a 63-bit seed, stable across processes and platforms:
    `seed_prefix()(*parts)`."""
    return seed_prefix()(*parts)


@lru_cache(maxsize=16, typed=True)
def seed_prefix(*prefix: Part) -> Callable[..., int]:
    """`derive_seed` with its leading parts fixed:
    `seed_prefix(*prefix)(*rest) == derive_seed(*prefix, *rest)`.

    Each part is hashed as its byte length (4 bytes, little-endian) and its
    bytes: UTF-8 for str, the decimal str() for int, bytes as given. The
    prefix is hashed once per process, here (calls are cached by value and
    type); each call of the result copies that state and hashes `rest`."""
    state = hashlib.blake2b(digest_size=8)
    _absorb(state, prefix)

    def derive(*rest: Part) -> int:
        h = state.copy()
        _absorb(h, rest)
        return int.from_bytes(h.digest(), "little") >> 1

    return derive


def derive_rng(*parts: Part) -> random.Random:
    return random.Random(derive_seed(*parts))


def map_records(task: Callable[[int, object], object], items: Iterable,
                skips: Optional[Counter[str]] = None, workers: int = 1) -> Iterator:
    """`task(ordinal, item)` for each item, in input order. A str result names
    why the item was skipped and counts as skips[reason]; any other result
    is yielded. workers > 1 spreads the items over a process pool, so `task`
    must pickle (a module-level function, or a `functools.partial` of one);
    same output."""
    skips = Counter() if skips is None else skips
    if workers > 1:
        from multiprocessing import Pool  # only a pool run pays for the import
    with (Pool(workers) if workers > 1 else contextlib.nullcontext()) as pool:
        results = (pool.imap(_run, zip(repeat(task), count(), items), chunksize=256) if pool
                   else map(task, count(), items))
        for result in results:
            if isinstance(result, str):
                skips[result] += 1
            else:
                yield result


def _run(job: tuple) -> object:
    """task(ordinal, item) on one (task, ordinal, item) tuple, as imap passes it."""
    task, ordinal, item = job
    return task(ordinal, item)
