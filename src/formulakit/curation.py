"""Corpus ingestion and sketch-based deduplication.

Two dedup scopes: per-workbook (keeps one instance of each sketch within
every workbook, preserving naturally occurring cross-workbook repetition)
and global (one instance per sketch corpus-wide). `dedup` serves both in
one streaming, first-wins pass: it keys each record once, yields it when it
is new in the chosen scope, and counts the corpus stats for both scopes on
the way, so the output is a stable subsequence of the input and no record
list is kept. Memory is O(distinct keys per workbook). `ingest` skips the
lines that are not usable records and counts them in a skips Counter.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional

from .jsonl import has_utf8
from .lexer import normalize, sketch

DEDUP_MODES = ("per-workbook", "global")


@dataclass(frozen=True)
class FormulaRecord:
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
    """Sketch of the normalized formula; Excel is case-insensitive, so the
    comparison form is upper-cased and whitespace-free before sketching."""
    return sketch(normalize(formula))


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
    if not has_utf8(workbook_id + sheet_id + formula + (cell or "")):
        return None  # it could neither seed the record's rng nor be written out
    return FormulaRecord(workbook_id, sheet_id, formula, cell)


def ingest(lines: Iterable[str], skips: Optional[Counter[str]] = None) -> Iterator[FormulaRecord]:
    """Parse JSONL lines into records; a line that is not a usable record is
    skipped and counted as skips["malformed"]."""
    skips = Counter() if skips is None else skips
    for line in lines:
        stripped = line.strip()
        try:
            record = parse_record(json.loads(stripped)) if stripped else None
        except json.JSONDecodeError:
            record = None
        if record is None:
            skips["malformed"] += 1
            continue
        yield record


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

    Keys each record once and counts it into `stats` (when given) for both
    scopes, so one pass yields the retained records and the corpus stats.
    A mode outside DEDUP_MODES raises ValueError on the first pull.
    """
    if mode not in DEDUP_MODES:
        raise ValueError(f"unknown dedup mode {mode!r}; expected one of {DEDUP_MODES}")
    per_workbook = mode == "per-workbook"
    if stats is None:
        stats = CorpusStats()
    counts = stats.per_workbook_counts
    seen: set[str] = set()
    seen_in_workbook: dict[str, set[str]] = {}
    for record in records:
        key = dedup_key(record.formula)
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
