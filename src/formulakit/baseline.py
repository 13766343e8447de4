"""Non-neural reference candidate providers.

These exist so the evaluation harness runs end to end with reproducible,
non-zero scores; they are not an attempt to approximate a trained model's
accuracy. Repair retrieves the nearest corpus formulas by token edit
similarity (exact full scan at desk scale); completion ranks corpus
formulas by frequency under a case-insensitive prefix match, backing off
to sketch-prefix matching.
"""

from __future__ import annotations

import heapq
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

from .curation import dedup_key
from .jsonl import write_json_atomic
from .lexer import check, lex
from .similarity import formula_token_ids, formula_token_ids_frozen, similarities_to_many


@dataclass
class SketchIndex:
    # sketch -> [(formula, frequency)] sorted by frequency desc, then text
    entries: dict[str, list[tuple[str, int]]]
    total_formulas: int
    _formulas: list[str] = field(init=False, repr=False)
    _lowered: list[str] = field(init=False, repr=False)  # _formulas, lowercased
    _frequency: dict[str, int] = field(init=False, repr=False)
    _well_formed: list[int] = field(init=False, repr=False)  # positions in _formulas
    _token_ids: list[tuple[int, ...]] = field(init=False, repr=False)
    _intern: dict[str, int] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._frequency = {}
        for bucket in self.entries.values():
            for formula, freq in bucket:
                self._frequency[formula] = freq
        self._formulas = sorted(self._frequency)
        self._lowered = [f.lower() for f in self._formulas]
        self._well_formed = []
        self._intern = {}
        self._token_ids = []
        for i, formula in enumerate(self._formulas):
            tokens = lex(formula)
            if not check(formula, tokens=tokens):
                self._well_formed.append(i)
            self._token_ids.append(formula_token_ids(formula, self._intern, tokens))

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
        return cls(entries=entries, total_formulas=int(obj["total_formulas"]))


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
    sims = similarities_to_many(query_ids, index._token_ids)
    formulas, frequency = index._formulas, index._frequency
    # The key is unique (the text is), so the k smallest are the first k of
    # a full sort.
    ranked = heapq.nsmallest(
        k, index._well_formed,
        key=lambda i: (-sims[i], -frequency[formulas[i]], formulas[i]),
    )
    return [formulas[i] for i in ranked]


def completion_candidates(index: SketchIndex, prefix: str, k: int) -> list[str]:
    """Corpus formulas extending the prefix, most frequent first.

    Prefix matching is case-insensitive (the tokenizer lowercases, so
    prefixes arrive lowercased). When nothing matches textually, falls back
    to formulas whose dedup key (the sketch of the normalized formula, which
    the index is keyed by) extends the prefix's key.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    needle = prefix.lower()
    matches = [f for f, lowered in zip(index._formulas, index._lowered)
               if lowered.startswith(needle)]
    if not matches:
        key_needle = dedup_key(prefix)
        if key_needle:
            matches = [f for key, bucket in index.entries.items()
                       if key.startswith(key_needle) for f, _ in bucket]
    matches.sort(key=lambda f: (-index._frequency[f], f))
    return matches[:k]
