"""Corpus ingestion and sketch-based deduplication.

Two dedup scopes: per-workbook (keeps one instance of each sketch within
every workbook, preserving naturally occurring cross-workbook repetition)
and global (one instance per sketch corpus-wide). `dedup` serves both in
one streaming, first-wins pass: it keys each record, reusing the key of a
recently keyed text, yields a record when its key is new in the chosen
scope, and counts the corpus stats for both scopes on the way, so the
output is a stable subsequence of the input and no record list is kept.
Memory is O(distinct keys per workbook), plus at most `_KEYED_TEXTS` texts
and their keys. `dedup_key` lexes a formula once unless it holds
whitespace, whose removal can merge tokens.
`ingest` decodes each line with `jsonl.loads` and skips the lines that are
not usable records (any line `loads` rejects among them); it walks the
lines with `seeds.map_records`, which counts them in a skips Counter. A
`FormulaRecord` is a `NamedTuple`: immutable, equal and hashed by value,
and cheap to build and to pickle.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Iterator, NamedTuple, Optional, Union

from .jsonl import loads
from .lexer import TokenKind, lex, normalize, sketch_tokens
from .seeds import map_records

DEDUP_MODES = ("per-workbook", "global")
# How many texts' keys one `dedup` call keeps, dropping the least recently
# used: a bound on memory where texts rarely repeat.
_KEYED_TEXTS = 4096


class FormulaRecord(NamedTuple):
    workbook_id: str
    sheet_id: str
    formula: str
    cell: Optional[str] = None

    def to_json(self) -> dict:
        row = {"workbook_id": self.workbook_id, "sheet_id": self.sheet_id,
               "formula": self.formula}
        if self.cell is not None:
            row["cell"] = self.cell
        return row


def dedup_key(formula: str) -> str:
    """`sketch(normalize(formula))`, the sketch of the comparison form:
    Excel is case-insensitive, so names are upper-cased and whitespace is
    dropped before sketching.

    A formula with no whitespace token is lexed once: upper-casing keeps
    every token's extent and kind, so its normalized text lexes to its own
    tokens, upper-cased. Dropping whitespace can join the neighbours of a
    whitespace token into one token (`"a" "b"`, `Sheet1 !A1`, `A 1`), so a
    formula that has one has its normalized text lexed again.
    """
    tokens = lex(formula)
    whitespace = TokenKind.WHITESPACE
    if any(tok.kind is whitespace for tok in tokens):
        return sketch_tokens(lex(normalize(formula, tokens)))
    return sketch_tokens(tokens, upper=True)


def parse_record(obj: object) -> Optional[FormulaRecord]:
    """Validate one parsed JSONL object; None when it is not a usable record."""
    if not isinstance(obj, dict):
        return None
    workbook_id = obj.get("workbook_id")
    sheet_id = obj.get("sheet_id")
    formula = obj.get("formula")
    cell = obj.get("cell")
    if not isinstance(workbook_id, str) or not workbook_id:
        return None
    if not isinstance(sheet_id, str) or not sheet_id:
        return None
    if not isinstance(formula, str) or not formula:
        return None
    if cell is not None and not isinstance(cell, str):
        return None
    return FormulaRecord(workbook_id, sheet_id, formula, cell)


def _record_of(ordinal: int, line: str) -> Union[FormulaRecord, str]:
    """ingest's work on one line: its record, or "malformed"."""
    stripped = line.strip()
    try:
        record = parse_record(loads(stripped)) if stripped else None
    except json.JSONDecodeError:
        record = None
    return "malformed" if record is None else record


def ingest(lines: Iterable[str], skips: Optional[Counter[str]] = None) -> Iterator[FormulaRecord]:
    """Parse JSONL lines into records; a line that is not a usable record is
    skipped and counted as skips["malformed"]."""
    yield from map_records(_record_of, lines, skips)


@dataclass
class CorpusStats:
    """Counts filled in by `dedup`; `retained_global` is also the number of
    distinct sketches in the corpus."""
    total_formulas: int = 0
    retained_per_workbook: int = 0
    retained_global: int = 0
    per_workbook_counts: dict[str, int] = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "total_formulas": self.total_formulas,
            "unique_sketches_global": self.retained_global,
            "retained_per_workbook": self.retained_per_workbook,
            "retained_global": self.retained_global,
            "per_workbook_counts": dict(sorted(self.per_workbook_counts.items())),
        }


def dedup(records: Iterable[FormulaRecord], mode: str = "per-workbook",
          stats: Optional[CorpusStats] = None) -> Iterator[FormulaRecord]:
    """First record of each distinct sketch in `mode`'s scope, in order.

    Counts each record into `stats` (when given) for both scopes, so one
    pass yields the retained records and the corpus stats. `dedup_key` is a
    function of the text alone, so a memo local to the call keeps the keys
    of the `_KEYED_TEXTS` most recently keyed texts: a text repeated within
    or across workbooks is keyed once while it stays among them, and a call
    with no more distinct texts than that keys each of them once. A mode
    outside DEDUP_MODES raises ValueError on the first pull.
    """
    if mode not in DEDUP_MODES:
        raise ValueError(f"unknown dedup mode {mode!r}; expected one of {DEDUP_MODES}")
    per_workbook = mode == "per-workbook"
    if stats is None:
        stats = CorpusStats()
    counts = stats.per_workbook_counts
    seen: set[str] = set()
    seen_in_workbook: dict[str, set[str]] = {}
    key_of = lru_cache(maxsize=_KEYED_TEXTS)(dedup_key)
    for record in records:
        key = key_of(record.formula)
        workbook = record.workbook_id
        stats.total_formulas += 1
        counts[workbook] = counts.get(workbook, 0) + 1
        wb_keys = seen_in_workbook.setdefault(workbook, set())
        if key in wb_keys:
            continue  # a repeat within its workbook is a repeat corpus-wide too
        wb_keys.add(key)
        stats.retained_per_workbook += 1
        new_globally = key not in seen
        if new_globally:
            seen.add(key)
            stats.retained_global += 1
        if per_workbook or new_globally:
            yield record


def stats(records: Iterable[FormulaRecord]) -> CorpusStats:
    """Corpus statistics for both dedup scopes, in one pass."""
    result = CorpusStats()
    for _ in dedup(records, stats=result):
        pass
    return result
