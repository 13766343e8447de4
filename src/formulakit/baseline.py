"""Non-neural reference candidate providers.

These exist so the evaluation harness runs end to end with reproducible,
non-zero scores; they are not an attempt to approximate a trained model's
accuracy. An index is its sketch buckets and the formula frequencies; each
query kind reads one view of it, derived on first use (`load` derives
both, so a loaded index pays for them before its first query). Repair
retrieves the nearest corpus formulas by token edit similarity: only the
well-formed formulas are packed, since an ill-formed one never ranks, and
each query is scored exactly against all of them in one pass of the packed
bit-parallel kernel (`similarity.PackedCorpus`). They are packed in
repair's tie-break order, by frequency and then text, so the kernel's lane
sums give exactly the first k by score, ties in that order, with no float
per formula and no sort. Completion ranks corpus formulas by frequency
under a case-insensitive prefix match, backing off to sketch-prefix
matching. Both matches are range lookups: the lowered formulas and the
sorted sketch keys are searched with `bisect`, for the run's start and
then for its end among the keys cut to the prefix's length. Beside each
sorted list lies each formula's rank, its position in (-frequency, text)
order, so a query takes the k smallest ranks of its run with
`heapq.nsmallest`, with no sort key per match, and never lexes an indexed
formula.
"""

from __future__ import annotations

import json
from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from heapq import nsmallest
from typing import Iterable

from .curation import dedup_key
from .jsonl import PathLike, loads, read_text
from .lexer import check, lex
from .similarity import (PackedCorpus, formula_token_ids, formula_token_ids_frozen,
                         similarities_to_many)


@dataclass
class SketchIndex:
    # sketch -> [(formula, frequency)] sorted by frequency desc, then text
    entries: dict[str, list[tuple[str, int]]]
    total_formulas: int

    def __post_init__(self) -> None:
        self._frequency = {formula: freq for bucket in self.entries.values()
                           for formula, freq in bucket}

    @cached_property
    def _ranked(self) -> list[str]:
        """The formulas in the order both query kinds rank them: by
        (-frequency, text)."""
        frequency = self._frequency
        return sorted(frequency, key=lambda f: (-frequency[f], f))

    @cached_property
    def _repair_view(self) -> tuple[list[str], dict[str, int], PackedCorpus]:
        """The well-formed formulas in repair's tie-break order, by
        (-frequency, text), the intern table of their tokens and the
        PackedCorpus of their token ids; each formula is lexed once."""
        formulas, token_ids, intern = [], [], {}
        for formula in self._ranked:
            tokens = lex(formula)
            if not check(formula, tokens=tokens):
                formulas.append(formula)
                token_ids.append(formula_token_ids(formula, intern, tokens))
        return formulas, intern, PackedCorpus(token_ids)

    @cached_property
    def _completion_view(self) -> tuple[list[str], list[int], list[str], list[int],
                                        list[int], list[str]]:
        """Each formula's rank is its position in `_ranked`. The view is:
        every formula lowered, sorted, and the rank at each place of that
        list; the sorted keys of `entries`, where key i's formulas have the
        ranks key_ranks[key_starts[i]:key_starts[i + 1]], and key_ranks; and
        `_ranked`, to turn ranks back into formulas."""
        ranked = self._ranked
        rank = {formula: r for r, formula in enumerate(ranked)}
        folded = [formula.lower() for formula in ranked]
        # A stable sort: formulas equal once lowered stay in rank order.
        lowered_ranks = sorted(range(len(ranked)), key=folded.__getitem__)
        keys = sorted(self.entries)
        key_ranks, key_starts = [], [0]
        for key in keys:
            key_ranks.extend(rank[formula] for formula, _ in self.entries[key])
            key_starts.append(len(key_ranks))
        return ([folded[r] for r in lowered_ranks], lowered_ranks, keys, key_starts,
                key_ranks, ranked)

    def to_json(self) -> dict:
        return {
            "total_formulas": self.total_formulas,
            "sketches": {s: [[f, c] for f, c in bucket]
                         for s, bucket in sorted(self.entries.items())},
        }

    @classmethod
    def load(cls, path: PathLike) -> "SketchIndex":
        obj = loads(read_text(path, "index"))
        entries = {s: [(f, _count(c, 1)) for f, c in bucket]
                   for s, bucket in obj["sketches"].items()}
        index = cls(entries=entries, total_formulas=_count(obj["total_formulas"], 0))
        # The repair ranking breaks ties by these counts: as build_index
        # writes them, each formula is listed once and the total is their sum.
        if len(index._frequency) != sum(map(len, entries.values())):
            raise ValueError("a formula is listed more than once")
        counted = sum(index._frequency.values())
        if index.total_formulas != counted:
            raise ValueError(f"total_formulas {index.total_formulas} is not the sum of the "
                             f"counts, {counted}")
        # A loaded index is for querying: derive both views now.
        index._repair_view
        index._completion_view
        return index


def _count(value: object, least: int) -> int:
    """`value`, which must be a JSON integer (not a bool) of at least
    `least`."""
    if type(value) is not int or value < least:
        raise ValueError(f"count {json.dumps(value)} is not an integer of at least {least}")
    return value


def build_index(corpus: Iterable[str]) -> SketchIndex:
    """Count formulas per sketch; deterministic for a fixed corpus. The
    texts are counted first, so each distinct text is keyed once."""
    frequency = Counter(corpus)
    counts: dict[str, dict[str, int]] = {}
    for formula, freq in frequency.items():
        counts.setdefault(dedup_key(formula), {})[formula] = freq
    entries = {
        s: sorted(bucket.items(), key=lambda item: (-item[1], item[0]))
        for s, bucket in counts.items()
    }
    return SketchIndex(entries=entries, total_formulas=frequency.total())


def repair_candidates(index: SketchIndex, buggy: str, k: int) -> list[str]:
    """The k well-formed corpus formulas most token-edit-similar to `buggy`,
    ties broken by frequency then text."""
    if k < 1:
        raise ValueError("k must be >= 1")
    formulas, intern, packed = index._repair_view
    sims = similarities_to_many(formula_token_ids_frozen(buggy, intern), packed, k)
    return [formulas[i] for i in sims]


def completion_candidates(index: SketchIndex, prefix: str, k: int) -> list[str]:
    """Corpus formulas extending the prefix, most frequent first.

    Prefix matching is case-insensitive (the tokenizer lowercases, so
    prefixes arrive lowercased). When nothing matches textually, falls back
    to formulas whose dedup key (the sketch of the normalized formula, which
    the index is keyed by) extends the prefix's key.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    lowered, lowered_ranks, keys, key_starts, key_ranks, ranked = index._completion_view
    first, end = _prefix_run(lowered, prefix.lower())
    ranks = lowered_ranks[first:end]
    if not ranks:
        key_needle = dedup_key(prefix)
        if key_needle:
            first, end = _prefix_run(keys, key_needle)
            ranks = key_ranks[key_starts[first]:key_starts[end]]
    return [ranked[r] for r in nsmallest(k, ranks)]


def _prefix_run(keys: list[str], prefix: str) -> tuple[int, int]:
    """The slice of the sorted `keys` that start with `prefix`. They form
    one run, beginning where `prefix` would be inserted and ending where
    it would be inserted after its equals among the keys cut to its
    length, which cutting leaves sorted."""
    first = bisect_left(keys, prefix)
    size = len(prefix)
    return first, bisect_right(keys, prefix, first, key=lambda key: key[:size])
