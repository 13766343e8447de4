"""Corpus ingestion and sketch-based deduplication.

Two dedup scopes: per-workbook (keeps one instance of each sketch within
every workbook, preserving naturally occurring cross-workbook repetition)
and global (one instance per sketch corpus-wide). Both are first-wins and
streaming: the output is always a stable subsequence of the input.
"""

from __future__ import annotations

import json
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


@dataclass
class IngestReport:
    total_lines: int = 0
    records: int = 0
    skipped: int = 0
    examples: list[str] = field(default_factory=list)

    def note_skip(self, line: str) -> None:
        self.skipped += 1
        if len(self.examples) < 5:
            self.examples.append(line[:200])


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


def ingest(lines: Iterable[str], report: Optional[IngestReport] = None) -> Iterator[FormulaRecord]:
    """Parse JSONL lines into records, skipping (and counting) bad lines."""
    if report is None:
        report = IngestReport()
    for line in lines:
        report.total_lines += 1
        stripped = line.strip()
        if not stripped:
            report.note_skip(line)
            continue
        try:
            obj = json.loads(stripped)
        except json.JSONDecodeError:
            report.note_skip(line)
            continue
        record = parse_record(obj)
        if record is None:
            report.note_skip(line)
            continue
        report.records += 1
        yield record


def _keyed(records: Iterable[FormulaRecord],
           keys: Optional[Iterable[str]]) -> Iterator[tuple[FormulaRecord, str]]:
    """Pair each record with its dedup key, computed unless given in order."""
    if keys is None:
        return ((record, dedup_key(record.formula)) for record in records)
    return zip(records, keys, strict=True)


def dedup_per_workbook(records: Iterable[FormulaRecord],
                       keys: Optional[Iterable[str]] = None) -> Iterator[FormulaRecord]:
    """First record of each distinct sketch within each workbook, in order.

    Memory is O(distinct sketches); duplicates of a sketch in different
    workbooks all survive. `keys`, when given, are the records' dedup keys
    in the same order, so a caller that also needs stats computes them once.
    """
    seen: dict[str, set[str]] = {}
    for record, key in _keyed(records, keys):
        wb_keys = seen.setdefault(record.workbook_id, set())
        if key in wb_keys:
            continue
        wb_keys.add(key)
        yield record


def dedup_global(records: Iterable[FormulaRecord],
                 keys: Optional[Iterable[str]] = None) -> Iterator[FormulaRecord]:
    """First record of each distinct sketch across the whole corpus; `keys`
    as for dedup_per_workbook."""
    seen: set[str] = set()
    for record, key in _keyed(records, keys):
        if key in seen:
            continue
        seen.add(key)
        yield record


@dataclass
class CorpusStats:
    total_formulas: int
    unique_sketches_global: int
    retained_per_workbook: int
    retained_global: int
    per_workbook_counts: dict[str, int]

    def to_json(self) -> dict:
        return {
            "total_formulas": self.total_formulas,
            "unique_sketches_global": self.unique_sketches_global,
            "retained_per_workbook": self.retained_per_workbook,
            "retained_global": self.retained_global,
            "per_workbook_counts": dict(sorted(self.per_workbook_counts.items())),
        }


def stats(records: Iterable[FormulaRecord],
          keys: Optional[Iterable[str]] = None) -> CorpusStats:
    """Single-pass corpus statistics; retained_global == unique sketches.
    `keys` as for dedup_per_workbook."""
    total = 0
    global_keys: set[str] = set()
    per_wb_keys: dict[str, set[str]] = {}
    per_wb_counts: dict[str, int] = {}
    retained_per_wb = 0
    for record, key in _keyed(records, keys):
        total += 1
        per_wb_counts[record.workbook_id] = per_wb_counts.get(record.workbook_id, 0) + 1
        global_keys.add(key)
        wb_keys = per_wb_keys.setdefault(record.workbook_id, set())
        if key not in wb_keys:
            wb_keys.add(key)
            retained_per_wb += 1
    return CorpusStats(
        total_formulas=total,
        unique_sketches_global=len(global_keys),
        retained_per_workbook=retained_per_wb,
        retained_global=len(global_keys),
        per_workbook_counts=per_wb_counts,
    )
