"""Grammar-directed random formula generator.

Produces well-formed formulas (balanced parens, terminated strings, catalog
arities respected, no dangling operators) for fuzzing the lexer round-trip,
building synthetic corpora, and driving the harness without real workbook
data. Deterministic for a given rng.
"""

from __future__ import annotations

import random
from typing import Optional

from .curation import FormulaRecord

# (name, min, max, range_friendly) drawn from the bundled catalog; a small
# hand-picked subset keeps generated formulas realistic.
_FUNCTIONS = [
    ("SUM", 1, 4, True),
    ("SUMIF", 2, 3, True),
    ("AVERAGE", 1, 3, True),
    ("COUNT", 1, 3, True),
    ("MIN", 1, 3, True),
    ("MAX", 1, 3, True),
    ("IF", 2, 3, False),
    ("IFERROR", 2, 2, False),
    ("ISERROR", 1, 1, False),
    ("VLOOKUP", 3, 4, True),
    ("INDEX", 2, 3, True),
    ("MATCH", 2, 3, True),
    ("AND", 1, 3, False),
    ("OR", 1, 3, False),
    ("NOT", 1, 1, False),
    ("ROUND", 2, 2, False),
    ("ABS", 1, 1, False),
    ("LEN", 1, 1, False),
    ("LEFT", 1, 2, False),
    ("RIGHT", 1, 2, False),
    ("CONCATENATE", 1, 3, False),
    ("TODAY", 0, 0, False),
    ("NOW", 0, 0, False),
    ("EDATE", 2, 2, False),
    ("EOMONTH", 2, 2, False),
    ("TRIM", 1, 1, False),
    ("UPPER", 1, 1, False),
    ("LOWER", 1, 1, False),
]

_BINARY_OPS = ["+", "-", "*", "/", "^", "&", "<", ">", "<=", ">=", "<>", "="]
_WORDS = ["total", "rate", "flag", "Not available", "yes", "no", "n/a", "x",
          "Result", "sum of items", "OK", "overdue"]
_SHEETS = ["Data", "Summary", "Sheet1", "My Sheet", "Q1 Report", "Inputs"]
# Defined names are chosen so none can be mistaken for fused cell references.
_NAMES = ["tax_rate", "Total", "basis", "limit_x", "FX.rate"]
_SHEETS_PER_WORKBOOK = 3


def random_cell(rng: random.Random) -> str:
    col = "".join(rng.choice("ABCDEFGH") for _ in range(rng.choice((1, 1, 1, 2))))
    row = rng.randrange(1, 500)
    dollar_col = "$" if rng.random() < 0.15 else ""
    dollar_row = "$" if rng.random() < 0.15 else ""
    return f"{dollar_col}{col}{dollar_row}{row}"


def random_range(rng: random.Random) -> str:
    return f"{random_cell(rng)}:{random_cell(rng)}"


def random_sheet_ref(rng: random.Random) -> str:
    name = rng.choice(_SHEETS)
    ref = random_range(rng) if rng.random() < 0.5 else random_cell(rng)
    if " " in name or rng.random() < 0.3:
        return f"'{name}'!{ref}"
    return f"{name}!{ref}"


def random_number(rng: random.Random) -> str:
    if rng.random() < 0.3:
        return f"{rng.randrange(0, 100)}.{rng.randrange(0, 100)}"
    return str(rng.randrange(0, 1000))


def random_string_literal(rng: random.Random) -> str:
    return '"' + rng.choice(_WORDS) + '"'


def _term(rng: random.Random, depth: int) -> str:
    roll = rng.random()
    if depth <= 0:
        if roll < 0.45:
            return random_cell(rng)
        if roll < 0.7:
            return random_number(rng)
        if roll < 0.85:
            return random_string_literal(rng)
        return rng.choice(_NAMES)
    if roll < 0.30:
        return random_cell(rng)
    if roll < 0.45:
        return random_number(rng)
    if roll < 0.55:
        return random_string_literal(rng)
    if roll < 0.62:
        return random_sheet_ref(rng)
    if roll < 0.68:
        return "(" + _expr(rng, depth - 1) + ")"
    if roll < 0.74:
        return "-" + _term(rng, 0)
    return _call(rng, depth - 1)


def _call(rng: random.Random, depth: int) -> str:
    name, lo, hi, range_friendly = rng.choice(_FUNCTIONS)
    argc = rng.randint(lo, hi)
    args = []
    for _ in range(argc):
        if range_friendly and rng.random() < 0.5:
            args.append(random_sheet_ref(rng) if rng.random() < 0.15 else random_range(rng))
        else:
            args.append(_expr(rng, depth))
    sep = ", " if rng.random() < 0.4 else ","
    return f"{name}({sep.join(args)})"


def _expr(rng: random.Random, depth: int) -> str:
    parts = [_term(rng, depth)]
    for _ in range(rng.choice((0, 0, 0, 1, 1, 2))):
        op = rng.choice(_BINARY_OPS)
        pad = " " if rng.random() < 0.15 else ""
        parts.append(f"{pad}{op}{pad}{_term(rng, max(depth - 1, 0))}")
    return "".join(parts)


def random_formula(rng: random.Random, max_depth: int = 3) -> str:
    """One well-formed formula with a leading `=`."""
    return "=" + _expr(rng, rng.randint(1, max_depth))


def synth_corpus(n: int, seed: int) -> list[str]:
    rng = random.Random(seed)
    return [random_formula(rng) for _ in range(n)]


def synth_records(n: int, seed: int, workbooks: Optional[int] = None) -> list[FormulaRecord]:
    """A corpus with workbook/sheet provenance for dedup and objective runs."""
    rng = random.Random(seed)
    if workbooks is None:
        workbooks = max(1, n // 20)
    records = []
    for i in range(n):
        wb = rng.randrange(workbooks)
        sheet = rng.randrange(_SHEETS_PER_WORKBOOK)
        records.append(FormulaRecord(
            workbook_id=f"wb{wb:04d}",
            sheet_id=f"s{sheet}",
            formula=random_formula(rng),
            cell=f"{rng.choice('ABCDE')}{rng.randrange(1, 200)}",
        ))
    return records
