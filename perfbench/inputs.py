"""Seeded input generators for the pipeline benchmark.

Every input family is generated here, from `random.Random(seed)` alone, so
that a change to the package under test (including its own synthetic data
generator) can never change what a workload feeds it. Each family is a
plain list of JSON-serialisable values; `digest` fingerprints it.

Families:
  typical_records      short, everyday formulas with workbook provenance and
                       duplicates both within and across workbooks
  identifier_formulas  long defined names, multi-word sheet names and strings
                       built from a shared word stock, so BPE keeps merging
  envelope_records     formulas at Excel's limits: 8,192 characters, 64
                       nesting levels, 255-argument calls
  distinct_formulas    a deduplicated corpus for the repair index
  repair_queries       corrupted corpus formulas paired with their truth
  completion_queries   lower-cased proper prefixes paired with their formula
"""

from __future__ import annotations

import hashlib
import json
import random

# (name, min_args, max_args, takes_ranges); arities match Excel's.
FUNCTIONS = [
    ("SUM", 1, 4, True), ("SUMIF", 2, 3, True), ("AVERAGE", 1, 3, True),
    ("COUNT", 1, 3, True), ("COUNTIF", 2, 2, True), ("MIN", 1, 3, True),
    ("MAX", 1, 3, True), ("SUMPRODUCT", 1, 2, True), ("VLOOKUP", 3, 4, True),
    ("INDEX", 2, 3, True), ("MATCH", 2, 3, True), ("IF", 2, 3, False),
    ("IFERROR", 2, 2, False), ("AND", 1, 3, False), ("OR", 1, 3, False),
    ("NOT", 1, 1, False), ("ROUND", 2, 2, False), ("ABS", 1, 1, False),
    ("LEN", 1, 1, False), ("LEFT", 1, 2, False), ("MID", 3, 3, False),
    ("TEXT", 2, 2, False), ("DATE", 3, 3, False), ("YEAR", 1, 1, False),
    ("TODAY", 0, 0, False), ("EDATE", 2, 2, False), ("TRIM", 1, 1, False),
    ("UPPER", 1, 1, False), ("VALUE", 1, 1, False), ("CONCATENATE", 1, 3, False),
]
BINARY_OPS = ["+", "-", "*", "/", "&", "<", ">", "<=", ">=", "<>", "="]
SHEETS = ["Data", "Inputs", "Summary", "Sheet2", "Q1 Report", "Rates"]
STRINGS = ["yes", "no", "n/a", "OK", "Total", "overdue", "Not available"]
NAMES = ["tax_rate", "basis", "fx_rate", "limit_hi", "discount"]

# Word stock for the identifier-rich family; names and sheet titles are
# compounds of these, so sub-words repeat across many distinct identifiers.
WORDS = [
    "revenue", "forecast", "adjusted", "quarterly", "annual", "summary",
    "operating", "expense", "margin", "gross", "net", "income", "budget",
    "variance", "actual", "projected", "headcount", "payroll", "benefits",
    "capital", "depreciation", "amortization", "inventory", "receivable",
    "payable", "customer", "supplier", "region", "northern", "southern",
    "eastern", "western", "product", "category", "segment", "pricing",
    "discount", "currency", "exchange", "conversion", "threshold",
    "allocation", "overhead", "marketing", "research", "development",
    "shipping", "logistics", "warehouse", "contract", "renewal",
    "subscription", "retention", "churn", "pipeline", "opportunity",
]

TYPICAL_CHARS = 80
MAX_CHARS = 8192
MAX_DEPTH = 64
MAX_ARGS = 255


def digest(values) -> str:
    """sha256 over the canonical JSON of an input family."""
    blob = json.dumps(values, sort_keys=True, ensure_ascii=False, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


# --- the formula grammar ----------------------------------------------------


def cell(rng: random.Random) -> str:
    col = rng.choice("ABCDEFGHJK") + (rng.choice("ABCDE") if rng.random() < 0.1 else "")
    dollar = "$" if rng.random() < 0.15 else ""
    return f"{dollar}{col}{dollar}{rng.randrange(1, 400)}"


def cell_range(rng: random.Random) -> str:
    return f"{cell(rng)}:{cell(rng)}"


def sheet_ref(rng: random.Random, sheets=SHEETS) -> str:
    name = rng.choice(sheets)
    ref = cell_range(rng) if rng.random() < 0.5 else cell(rng)
    return f"'{name}'!{ref}" if " " in name else f"{name}!{ref}"


def number(rng: random.Random) -> str:
    if rng.random() < 0.3:
        return f"{rng.randrange(100)}.{rng.randrange(1, 100)}"
    return str(rng.randrange(1000))


def leaf(rng: random.Random) -> str:
    roll = rng.random()
    if roll < 0.5:
        return cell(rng)
    if roll < 0.75:
        return number(rng)
    if roll < 0.9:
        return '"' + rng.choice(STRINGS) + '"'
    return rng.choice(NAMES)


def call(rng: random.Random, depth: int) -> str:
    name, lo, hi, ranges = rng.choice(FUNCTIONS)
    args = []
    for _ in range(rng.randint(lo, hi)):
        if ranges and rng.random() < 0.5:
            args.append(sheet_ref(rng) if rng.random() < 0.2 else cell_range(rng))
        else:
            args.append(expr(rng, depth))
    sep = ", " if rng.random() < 0.3 else ","
    return f"{name}({sep.join(args)})"


def term(rng: random.Random, depth: int) -> str:
    if depth <= 0 or rng.random() < 0.4:
        return leaf(rng)
    return call(rng, depth - 1)


def expr(rng: random.Random, depth: int) -> str:
    out = term(rng, depth)
    for _ in range(rng.choice((0, 0, 0, 1, 1, 2))):
        out += rng.choice(BINARY_OPS) + term(rng, depth - 1)
    return out


def formula(rng: random.Random) -> str:
    """A typical formula: at most TYPICAL_CHARS characters (about the 95th
    percentile of the grammar), so that a few long draws do not make one
    seed's corpus much more work than another's."""
    while True:
        text = "=" + expr(rng, rng.randint(1, 2))
        if len(text) <= TYPICAL_CHARS:
            return text


def shift_refs(rng: random.Random, text: str) -> str:
    """Same structure, different row numbers: a sketch duplicate."""
    out, i = [], 0
    while i < len(text):
        ch = text[i]
        if ch.isdigit() and i > 0 and text[i - 1].isalpha() and text[i - 1].isupper():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            out.append(str(rng.randrange(1, 400)))
            i = j
        else:
            out.append(ch)
            i += 1
    return "".join(out)


# --- families -----------------------------------------------------------------


def typical_records(seed: int, n: int) -> list[dict]:
    """Records over n // 25 workbooks. About half repeat a formula from a
    shared pool (cross-workbook duplicates), a fifth repeat one already in
    the same workbook or shift its cell rows (within-workbook duplicates)."""
    rng = random.Random(seed)
    pool = [formula(rng) for _ in range(max(1, n // 3))]
    workbooks = max(2, n // 25)
    seen: dict[int, list[str]] = {}
    records = []
    for i in range(n):
        wb = rng.randrange(workbooks)
        own = seen.setdefault(wb, [])
        roll = rng.random()
        if roll < 0.2 and own:
            text = rng.choice(own)
            if rng.random() < 0.5:
                text = shift_refs(rng, text)
        elif roll < 0.7:
            text = rng.choice(pool)
        else:
            text = formula(rng)
        own.append(text)
        records.append({"workbook_id": f"wb{wb:04d}", "sheet_id": f"s{rng.randrange(3)}",
                        "cell": f"{rng.choice('ABCDEF')}{rng.randrange(1, 300)}",
                        "formula": text})
    return records


def _identifier(rng: random.Random) -> str:
    words = rng.sample(WORDS, rng.randint(2, 4))
    if rng.random() < 0.5:
        return "_".join(words)
    return "".join(w.capitalize() for w in words)


def identifier_formulas(seed: int, n: int) -> list[str]:
    """Formulas dominated by compound defined names, multi-word quoted
    sheet names and multi-word strings."""
    rng = random.Random(seed)
    names = [_identifier(rng) for _ in range(max(8, n))]
    sheets = [" ".join(w.capitalize() for w in rng.sample(WORDS, rng.randint(2, 3)))
              for _ in range(max(4, n // 4))]
    out = []
    for _ in range(n):
        parts = []
        for _ in range(rng.randint(2, 4)):
            roll = rng.random()
            if roll < 0.45:
                parts.append(rng.choice(names))
            elif roll < 0.7:
                parts.append(f"SUMIF({sheet_ref(rng, sheets)},"
                             f"\"{' '.join(rng.sample(WORDS, 2))}\",{rng.choice(names)})")
            elif roll < 0.85:
                parts.append(f"VLOOKUP({rng.choice(names)},{sheet_ref(rng, sheets)},"
                             f"{rng.randint(2, 6)},0)")
            else:
                parts.append(f"ROUND({rng.choice(names)}*{number(rng)},2)")
        out.append("=" + rng.choice(("+", "-", "*")).join(parts))
    return out


# The envelope shapes fix their structure and draw only their operands, so
# every seed's formulas are the same amount of work.


def _deep(rng: random.Random) -> str:
    """64 nested calls with short side arguments."""
    inner = cell(rng)
    for level in range(MAX_DEPTH):
        kind = level % 4
        if kind == 0:
            inner = f"IF({cell(rng)}>{number(rng)},{inner},{number(rng)})"
        elif kind == 1:
            inner = f"SUM({inner},{cell_range(rng)})"
        elif kind == 2:
            inner = f"ROUND({inner},2)"
        else:
            inner = f"IFERROR({inner},0)"
    return "=" + inner


def _wide(rng: random.Random) -> str:
    """One call with 255 arguments, some of them small calls themselves."""
    args = []
    for i in range(MAX_ARGS):
        if i % 7 == 6:
            args.append(f"MAX({cell(rng)},{number(rng)})")
        elif i % 3 == 2:
            args.append(cell_range(rng))
        else:
            args.append(cell(rng))
    return "=SUM(" + ",".join(args) + ")"


def _deep_and_long(rng: random.Random) -> str:
    """64 nested SUM calls, each carrying enough side arguments to bring the
    formula close to 8,192 characters."""
    budget = MAX_CHARS - 1 - MAX_DEPTH * len("SUM(,)")
    per_level = max(1, budget // MAX_DEPTH // 10)
    inner = cell(rng)
    for _ in range(MAX_DEPTH):
        side = ",".join(cell_range(rng) for _ in range(per_level))
        candidate = f"SUM({side},{inner})"
        if len(candidate) + 1 > MAX_CHARS:
            candidate = f"SUM({inner})"
        inner = candidate
    return "=" + inner


def _long_concat(rng: random.Random) -> str:
    """A flat concatenation of strings and cells up to 8,192 characters."""
    parts = ["=" + cell(rng)]
    size = len(parts[0])
    while True:
        piece = "&" + ('"' + rng.choice(STRINGS) + '"' if len(parts) % 2 else cell(rng))
        if size + len(piece) > MAX_CHARS:
            break
        parts.append(piece)
        size += len(piece)
    return "".join(parts)


ENVELOPE_SHAPES = (_deep, _wide, _deep_and_long, _long_concat)


def envelope_records(seed: int, n: int) -> list[dict]:
    """n records cycling through the four limit shapes and a repeat of the
    record before last (same workbook, so dedup drops it); every seed has
    the same mix."""
    rng = random.Random(seed)
    cycle = len(ENVELOPE_SHAPES) + 1
    records: list[dict] = []
    for i in range(n):
        if i % cycle == cycle - 1:
            text = records[i - 2]["formula"]
        else:
            text = ENVELOPE_SHAPES[i % cycle](rng)
        records.append({"workbook_id": f"wb{i // 8:04d}", "sheet_id": "s0",
                        "cell": f"A{i + 1}", "formula": text})
    return records


def distinct_formulas(seed: int, n: int) -> list[str]:
    """n distinct formulas in generation order."""
    rng = random.Random(seed)
    seen: set[str] = set()
    out = []
    while len(out) < n:
        text = formula(rng)
        if text not in seen:
            seen.add(text)
            out.append(text)
    return out


def _corrupt(rng: random.Random, text: str) -> str:
    """One user-style slip: a dropped paren, comma or quote, a stray or
    doubled operator, or a semicolon for a range colon."""
    edits = []
    for i, ch in enumerate(text):
        if ch == ")":
            edits.append(("drop", i))
        elif ch == ",":
            edits.append(("drop", i))
        elif ch == ":":
            edits.append((";", i))
        elif ch == '"':
            edits.append(("drop", i))
    edits.append(("append", len(text)))
    op, i = rng.choice(edits)
    if op == "drop":
        return text[:i] + text[i + 1:]
    if op == ";":
        return text[:i] + ";" + text[i + 1:]
    return text + rng.choice("+-*/&")


def repair_queries(seed: int, corpus: list[str], n: int) -> list[dict]:
    rng = random.Random(seed)
    out = []
    for i in range(n):
        truth = rng.choice(corpus)
        out.append({"source_id": f"repair-{i}", "buggy": _corrupt(rng, truth),
                    "ground_truth": truth})
    return out


def completion_queries(seed: int, corpus: list[str], n: int) -> list[dict]:
    """Prefixes cut just after a `(`, `,` or operator between 30% and 80%
    of the formula, lower-cased like decoded tokenizer output."""
    rng = random.Random(seed)
    out = []
    while len(out) < n:
        text = rng.choice(corpus)
        cuts = [i + 1 for i, ch in enumerate(text)
                if ch in "(,+-*/&" and 0.3 * len(text) <= i + 1 <= 0.8 * len(text)]
        if not cuts:
            continue
        cut = rng.choice(cuts)
        out.append({"source_id": f"complete-{len(out)}", "formula": text,
                    "prefix": text[:cut].lower(), "prefix_fraction": round(cut / len(text), 4)})
    return out
