#!/usr/bin/env python3
"""Benchmark the lexer and its derived views in formulakit.

Times `lex`, `check`, `normalize`, `sketch`, `curation.dedup_key` and
`noise.applicable_operators` per formula on two input sets from the pipeline benchmark's generators
(perfbench/inputs.py, imported read-only):
  typical    short formulas, as in the `corpus` workload
  envelope   formulas at Excel's limits (8,192 characters, 64 nesting
             levels, 255 arguments), as in the `envelope` workload
A `findall` row before them times the lexer's master pattern alone over
each set, so that a change to the pattern shows apart from building the
tokens.

Five more rows time a stage over the whole set, per formula: `dedup`
(per-workbook, over the set's records with their exact repeats, which it
keys once per distinct text), `dedup_no_repeats` (the same over the
first record of each distinct text, where keying once saves nothing),
`gen_repair_finetune` (seed 0, over the set's formulas, each lexed and
bracket-matched once), `ingest` (the set's JSONL lines to records) and
`emit` (`write_jsonl_atomic` of the records' `to_json` rows into a temp
file).

Each time is the best of REPEAT passes over the whole set (timing.best_of,
the timer every script here shares). `lex` keeps a memo of token kinds,
emptied before each figure: one untimed pass fills it before the timed
ones, except in the `lex_cold` row, which empties it, untimed, before
every pass and so shows what a first pass over the set costs.
Before timing, the script exits 1 if the joined token texts of any input
differ from the input, or if `check` flags any envelope input, all of
which are well-formed.

Usage: python benchmarks/bench_lexer.py [--typical 2000] [--envelope 40]
       [--seed 0]
"""

import argparse
import sys
import tempfile
from collections import deque
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "perfbench")]

from inputs import envelope_records, typical_records  # noqa: E402
from timing import best_of  # noqa: E402

from formulakit.curation import FormulaRecord, dedup, dedup_key, ingest  # noqa: E402
from formulakit.evaluation import gen_repair_finetune  # noqa: E402
from formulakit.jsonl import dumps, write_jsonl_atomic  # noqa: E402
from formulakit.lexer import _KINDS, _MASTER, check, lex, normalize, sketch  # noqa: E402
from formulakit.noise import applicable_operators  # noqa: E402

REPEAT = 5
VIEWS = (("findall", _MASTER.findall, False), ("lex", lex, False), ("lex_cold", lex, True),
         ("check", check, False), ("normalize", normalize, False), ("sketch", sketch, False),
         ("dedup_key", dedup_key, False), ("applicable_operators", applicable_operators, False))


def stages(out_dir):
    """(row, stage, what it runs on: the set's records, the first record of
    each distinct text, or the records' JSONL lines); `emit` writes into
    out_dir."""
    emitted = Path(out_dir) / "emit.jsonl"
    return (("dedup", lambda records: list(dedup(records)), "records"),
            ("dedup_no_repeats", lambda records: list(dedup(records)), "distinct"),
            ("gen_repair_finetune",
             lambda records: list(gen_repair_finetune((r.formula for r in records), 0)),
             "records"),
            ("ingest", lambda lines: list(ingest(lines)), "lines"),
            ("emit", lambda records: write_jsonl_atomic(emitted, (r.to_json() for r in records)),
             "records"))


def first_of_each_text(records):
    """The first record of each distinct formula text, in order."""
    first = {}
    for record in records:
        first.setdefault(record.formula, record)
    return list(first.values())


def problems(name, formulas, well_formed):
    """Inputs that the lexer does not reproduce or, when `well_formed`,
    that check flags."""
    out = []
    for i, formula in enumerate(formulas):
        if "".join(tok.text for tok in lex(formula)) != formula:
            out.append(f"{name}[{i}]: joined token texts differ from the input")
        elif well_formed:
            diags = check(formula)
            if diags:
                out.append(f"{name}[{i}]: check flags a well-formed input: {diags[0]}")
    return out


def per_formula_us(fn, formulas, cold=False):
    return per_set_us(lambda: deque(map(fn, formulas), maxlen=0), len(formulas), cold)


def per_set_us(run, n, cold=False):
    """Best microseconds per item of REPEAT runs, on a kind memo that an
    untimed run fills or, when `cold`, that is empty at every run."""
    _KINDS.clear()
    if cold:
        seconds, _ = best_of(lambda _: run(), REPEAT, setup=_KINDS.clear)
    else:
        run()
        seconds, _ = best_of(run, REPEAT)
    return seconds / n * 1e6


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--typical", type=int, default=2_000)
    parser.add_argument("--envelope", type=int, default=40)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    records = {"typical": typical_records(args.seed, args.typical),
               "envelope": envelope_records(args.seed, args.envelope)}
    records = {name: [FormulaRecord(r["workbook_id"], r["sheet_id"], r["formula"], r.get("cell"))
                      for r in rows] for name, rows in records.items()}
    sets = [(name, [r.formula for r in records[name]], name == "envelope") for name in records]
    found = [p for name, formulas, well_formed in sets
             for p in problems(name, formulas, well_formed)]
    if found:
        for line in found[:10]:
            print(line, file=sys.stderr)
        return 1

    header = "".join(f"{f'{name} ({len(fs)}, {sum(map(len, fs)) // len(fs)} ch)':>26}"
                     for name, fs, _ in sets)
    print(f"best of {REPEAT} passes, microseconds per formula; "
          f"every input round-trips, no envelope input flagged")
    print(f"{'view':<22}{header}")
    for view, fn, cold in VIEWS:
        cells = "".join(f"{per_formula_us(fn, formulas, cold):>26.1f}"
                        for _, formulas, _ in sets)
        print(f"{view:<22}{cells}")
    inputs = {"records": records,
              "distinct": {name: first_of_each_text(rows) for name, rows in records.items()},
              "lines": {name: [dumps(r.to_json()) + "\n" for r in rows]
                        for name, rows in records.items()}}
    with tempfile.TemporaryDirectory() as out_dir:
        for stage, run, kind in stages(out_dir):
            cells = "".join(
                f"{per_set_us(lambda: run(inputs[kind][name]), len(inputs[kind][name])):>26.1f}"
                for name, _, _ in sets)
            print(f"{stage:<22}{cells}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
