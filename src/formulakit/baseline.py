"""Non-neural reference candidate providers.

These exist so the evaluation harness runs end to end with reproducible,
non-zero scores; they are not an attempt to approximate a trained model's
accuracy. Repair retrieves the nearest corpus formulas by token edit
similarity: each query is scored exactly against every indexed formula in
one pass of the packed bit-parallel kernel (`similarity.PackedCorpus`), and
only the entries at or above the k-th best well-formed score are sorted.
Completion ranks corpus formulas by frequency under a case-insensitive
prefix match, backing off to sketch-prefix matching. Both matches are
range lookups: the formulas sorted by (lowered text, text) and the sorted
sketch keys are searched with `bisect`, and the matching run is read
forward until the first entry that does not extend the prefix, so a query
touches only its matches, never the whole index.
"""

from __future__ import annotations

import heapq
import json
from bisect import bisect_left
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

from .curation import dedup_key
from .jsonl import write_json_atomic
from .lexer import check, lex
from .similarity import (PackedCorpus, formula_token_ids, formula_token_ids_frozen,
                         similarities_to_many)


# Derived by SketchIndex._derive_query_views on first use.
_QUERY_VIEWS = ("_well_formed", "_token_ids", "_intern", "_packed",
                "_lowered", "_by_lowered", "_sketch_keys")


@dataclass
class SketchIndex:
    # sketch -> [(formula, frequency)] sorted by frequency desc, then text
    entries: dict[str, list[tuple[str, int]]]
    total_formulas: int
    _formulas: list[str] = field(init=False, repr=False)
    _frequency: dict[str, int] = field(init=False, repr=False)
    # The query views, not dataclass fields: _well_formed (positions in
    # _formulas), _token_ids, _intern, _packed (the PackedCorpus of
    # _token_ids), _by_lowered (_formulas sorted by (lowered text, text)),
    # _lowered (their lowered texts, in that order) and _sketch_keys (the
    # keys of entries, sorted). Building and saving an index never reads
    # them.

    def __post_init__(self) -> None:
        self._frequency = {}
        for bucket in self.entries.values():
            for formula, freq in bucket:
                self._frequency[formula] = freq
        self._formulas = sorted(self._frequency)

    def __getattr__(self, name: str):
        if name in _QUERY_VIEWS:
            self._derive_query_views()
            return self.__dict__[name]
        raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")

    def _derive_query_views(self) -> None:
        """Lex each formula once for its well-formedness and token ids,
        then pack the ids for the kernel; sort the completion views."""
        well_formed, token_ids, intern = [], [], {}
        for i, formula in enumerate(self._formulas):
            tokens = lex(formula)
            if not check(formula, tokens=tokens):
                well_formed.append(i)
            token_ids.append(formula_token_ids(formula, intern, tokens))
        self._well_formed, self._token_ids, self._intern = well_formed, token_ids, intern
        self._packed = PackedCorpus(token_ids)
        by_lowered = sorted((f.lower(), f) for f in self._formulas)
        self._lowered = [lowered for lowered, _ in by_lowered]
        self._by_lowered = [f for _, f in by_lowered]
        self._sketch_keys = sorted(self.entries)

    def to_json(self) -> dict:
        return {
            "total_formulas": self.total_formulas,
            "sketches": {s: [[f, c] for f, c in bucket]
                         for s, bucket in sorted(self.entries.items())},
        }

    def save(self, path: str | Path) -> None:
        write_json_atomic(path, self.to_json())

    @classmethod
    def load(cls, path: str | Path) -> "SketchIndex":
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
        entries = {s: [(f, int(c)) for f, c in bucket]
                   for s, bucket in obj["sketches"].items()}
        index = cls(entries=entries, total_formulas=int(obj["total_formulas"]))
        index._derive_query_views()  # a loaded index is for querying
        return index


def build_index(corpus: Iterable[str]) -> SketchIndex:
    """Count formulas per sketch; deterministic for a fixed corpus."""
    counts: dict[str, dict[str, int]] = {}
    total = 0
    for formula in corpus:
        total += 1
        bucket = counts.setdefault(dedup_key(formula), {})
        bucket[formula] = bucket.get(formula, 0) + 1
    entries = {
        s: sorted(bucket.items(), key=lambda item: (-item[1], item[0]))
        for s, bucket in counts.items()
    }
    return SketchIndex(entries=entries, total_formulas=total)


def repair_candidates(index: SketchIndex, buggy: str, k: int) -> list[str]:
    """The k well-formed corpus formulas most token-edit-similar to `buggy`,
    ties broken by frequency then text."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if not index._formulas:
        return []
    query_ids = formula_token_ids_frozen(buggy, index._intern)
    sims = similarities_to_many(query_ids, index._packed)
    formulas, frequency, ranked = index._formulas, index._frequency, index._well_formed
    if len(ranked) > k:
        # Only entries at or above the k-th best similarity can rank.
        values = sims if len(ranked) == len(sims) else [sims[i] for i in ranked]
        kth = heapq.nlargest(k, values)[-1]
        ranked = [i for i, sim in zip(ranked, values) if sim >= kth]
    # The key is unique (the text is), so these are the full sort's first k.
    ranked = sorted(ranked, key=lambda i: (-sims[i], -frequency[formulas[i]], formulas[i]))
    return [formulas[i] for i in ranked[:k]]


def completion_candidates(index: SketchIndex, prefix: str, k: int) -> list[str]:
    """Corpus formulas extending the prefix, most frequent first.

    Prefix matching is case-insensitive (the tokenizer lowercases, so
    prefixes arrive lowercased). When nothing matches textually, falls back
    to formulas whose dedup key (the sketch of the normalized formula, which
    the index is keyed by) extends the prefix's key.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    first, end = _prefix_run(index._lowered, prefix.lower())
    matches = index._by_lowered[first:end]
    if not matches:
        key_needle = dedup_key(prefix)
        if key_needle:
            keys = index._sketch_keys
            first, end = _prefix_run(keys, key_needle)
            matches = [f for key in keys[first:end] for f, _ in index.entries[key]]
    matches.sort(key=lambda f: (-index._frequency[f], f))
    return matches[:k]


def _prefix_run(keys: list[str], prefix: str) -> tuple[int, int]:
    """The slice of the sorted `keys` that start with `prefix`. They form
    one run, beginning where `prefix` would be inserted: a key extending
    it sorts at or after it, and a later key that does not extend it is
    greater than every key that does."""
    first = end = bisect_left(keys, prefix)
    while end < len(keys) and keys[end].startswith(prefix):
        end += 1
    return first, end
