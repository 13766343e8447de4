#!/usr/bin/env python3
"""Benchmark formulakit's CLI start-up cost per command, in process.

Times `cli.main` for every command (and every `baseline` subcommand) on a
one-formula input, with its output written to a file under a temporary
directory, and beside it `cli.build_parser` for that command alone, as
`main` builds it. The last column is the parser's share of the call. A
last row times the full parser, every command's subparser, which `main`
builds only for top-level help, --version and an unknown command.

Each time is the best of --repeat calls (timing.best_of). Before timing,
the script exits 1 if any command's call exits non-zero, or if a command
of `cli.COMMANDS` or `cli.BASELINE_COMMANDS` has no row here.

Usage: python benchmarks/bench_cli.py [--repeat 50] [--formula "=SUM(A1:A10)"]
"""

import argparse
import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

from formulakit import cli
from timing import best_of


def argvs(work: Path, formula: str) -> dict[str, list[str]]:
    """Each row's argv over the input files under `work`, which
    `write_inputs` writes."""
    def path(name):
        return str(work / name)

    out = path("out")
    return {
        "lex": ["lex", formula, "-o", out],
        "sketch": ["sketch", formula, "-o", out],
        "check": ["check", formula, "-o", out],
        "dedup": ["dedup", "--input", path("corpus.jsonl"), "-o", out],
        "stats": ["stats", "--input", path("corpus.jsonl"), "-o", out],
        "train-tokenizer": ["train-tokenizer", "--input", path("formulas.txt"),
                            "--budget", "300", "-o", out],
        "tokenize": ["tokenize", formula, "--model", path("tokenizer.json"), "-o", out],
        "gen-pretrain": ["gen-pretrain", "--input", path("corpus.jsonl"), "--seed", "7",
                         "-o", out],
        "gen-finetune-repair": ["gen-finetune-repair", "--input", path("formulas.txt"),
                                "--seed", "7", "-o", out],
        "gen-finetune-complete": ["gen-finetune-complete", "--input", path("formulas.txt"),
                                  "--model", path("tokenizer.json"), "--seed", "7",
                                  "-o", out],
        "eval-repair": ["eval-repair", "--benchmark", path("repair.jsonl"),
                        "--predictions", path("predictions.jsonl"), "-o", out],
        "eval-complete": ["eval-complete", "--benchmark", path("complete.jsonl"),
                          "--predictions", path("predictions.jsonl"), "-o", out],
        "eval-retrieval": ["eval-retrieval", "--pairs", path("pairs.jsonl"),
                           "--embeddings", path("embeddings.jsonl"), "-o", out],
        "baseline build": ["baseline", "build", "--input", path("formulas.txt"), "-o", out],
        "baseline repair": ["baseline", "repair", "--index", path("index.json"),
                            "--buggy", formula[:-1], "-o", out],
        "baseline complete": ["baseline", "complete", "--index", path("index.json"),
                              "--prefix", formula[:3], "-o", out],
        "synth": ["synth", "--count", "1", "-o", out],
    }


def write_inputs(work: Path, formula: str) -> None:
    """The one-formula files the rows read, and the model and index that
    the CLI builds from them."""
    def rows(name, items):
        (work / name).write_text("".join(json.dumps(r) + "\n" for r in items), "utf-8")

    (work / "formulas.txt").write_text(formula + "\n", "utf-8")
    rows("corpus.jsonl", [{"workbook_id": "wb", "sheet_id": "s", "formula": formula}])
    rows("repair.jsonl", [{"buggy": formula[:-1], "ground_truth": formula,
                           "source_id": "r0"}])
    rows("complete.jsonl", [{"formula": formula, "prefix": formula[:3], "source_id": "r0"}])
    rows("predictions.jsonl", [{"source_id": "r0", "candidates": [formula]}])
    rows("pairs.jsonl", [{"formula_a": formula, "formula_b": "=A1", "target_similarity": 1.0},
                         {"formula_a": formula, "formula_b": "=B9",
                          "target_similarity": 0.0}])
    rows("embeddings.jsonl", [{"formula": formula, "vector": [1.0, 0.0]},
                              {"formula": "=A1", "vector": [0.9, 0.1]},
                              {"formula": "=B9", "vector": [0.0, 1.0]}])
    for argv in (["train-tokenizer", "--input", str(work / "formulas.txt"), "--budget", "300",
                  "-o", str(work / "tokenizer.json")],
                 ["baseline", "build", "--input", str(work / "formulas.txt"),
                  "-o", str(work / "index.json")]):
        if quiet_main(argv) != 0:
            raise SystemExit(f"could not build the inputs: {' '.join(argv)}")


def quiet_main(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--repeat", type=int, default=50)
    parser.add_argument("--formula", default="=SUM(A1:A10)")
    args = parser.parse_args()

    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        write_inputs(work, args.formula)
        rows = argvs(work, args.formula)
        commands = {*cli.COMMANDS, *(f"baseline {name}" for name in cli.BASELINE_COMMANDS)}
        missing = sorted(commands - {"baseline"} - set(rows))
        failed = [row for row, argv in rows.items() if quiet_main(argv) != 0]
        if missing or failed:
            print(f"no row for: {missing}; exited non-zero: {failed}", file=sys.stderr)
            return 1

        print(f"best of {args.repeat} calls, milliseconds; formula {args.formula!r}")
        print(f"{'command':<24}{'main':>10}{'parser':>10}{'share':>8}")
        for row, argv in rows.items():
            command = argv[0]
            call = best_of(lambda: quiet_main(argv), args.repeat)[0] * 1e3
            build = best_of(lambda: cli.build_parser(command), args.repeat)[0] * 1e3
            print(f"{row:<24}{call:>10.3f}{build:>10.3f}{build / call:>8.1%}")
        full = best_of(cli.build_parser, args.repeat)[0] * 1e3
        print(f"{'(full parser)':<24}{'':>10}{full:>10.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
