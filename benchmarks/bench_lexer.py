#!/usr/bin/env python3
"""Benchmark the lexer and its derived views in formulakit.

Times `lex`, `check`, `normalize`, `sketch`, `curation.dedup_key` and
`noise.applicable_operators` per formula on two input sets from the pipeline benchmark's generators
(perfbench/inputs.py, imported read-only):
  typical    short formulas, as in the `corpus` workload
  envelope   formulas at Excel's limits (8,192 characters, 64 nesting
             levels, 255 arguments), as in the `envelope` workload

Each time is the median of REPEAT passes over the whole set. Before timing,
the script exits 1 if the joined token texts of any input differ from the
input, or if `check` flags any envelope input, all of which are well-formed.

Usage: python benchmarks/bench_lexer.py [--typical 2000] [--envelope 40]
       [--seed 0]
"""

import argparse
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from inputs import envelope_records, typical_records  # noqa: E402

from formulakit.curation import dedup_key  # noqa: E402
from formulakit.lexer import check, lex, normalize, sketch  # noqa: E402
from formulakit.noise import applicable_operators  # noqa: E402

REPEAT = 5
VIEWS = (("lex", lex), ("check", check), ("normalize", normalize),
         ("sketch", sketch), ("dedup_key", dedup_key),
         ("applicable_operators", applicable_operators))


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


def per_formula_us(fn, formulas):
    times = []
    for _ in range(REPEAT):
        start = time.perf_counter()
        for formula in formulas:
            fn(formula)
        times.append(time.perf_counter() - start)
    return statistics.median(times) / len(formulas) * 1e6


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--typical", type=int, default=2_000)
    parser.add_argument("--envelope", type=int, default=40)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    sets = [
        ("typical", [r["formula"] for r in typical_records(args.seed, args.typical)], False),
        ("envelope", [r["formula"] for r in envelope_records(args.seed, args.envelope)], True),
    ]
    found = [p for name, formulas, well_formed in sets
             for p in problems(name, formulas, well_formed)]
    if found:
        for line in found[:10]:
            print(line, file=sys.stderr)
        return 1

    header = "".join(f"{f'{name} ({len(fs)}, {sum(map(len, fs)) // len(fs)} ch)':>26}"
                     for name, fs, _ in sets)
    print(f"median of {REPEAT} passes, microseconds per formula; "
          f"every input round-trips, no envelope input flagged")
    print(f"{'view':<22}{header}")
    for view, fn in VIEWS:
        cells = "".join(f"{per_formula_us(fn, formulas):>26.1f}" for _, formulas, _ in sets)
        print(f"{view:<22}{cells}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
