"""Command-line entry point for the formula-data pipeline.

Subcommands cover the full path: lex/sketch/check single formulas or files,
dedup a corpus (per-workbook or global), train and apply the tokenizer,
generate pre-training and fine-tuning datasets, evaluate predictions, and
run the non-neural baseline. All randomness flows from --seed; artifacts
are written atomically and get a sibling .manifest.json with config and
content hashes so any two runs can be compared. Each generator counts the
inputs it skips in one Counter keyed by reason and reports it on stderr.

Exit codes: 0 success, 1 usage/config error, 2 data error (with file/line),
3 internal error.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from dataclasses import asdict, dataclass
from typing import Callable, Iterable, Iterator, Optional, Sequence

from . import baseline as baseline_mod
from . import curation, evaluation, objectives, synth
from .catalog import CatalogError, FunctionCatalog, default_catalog
from .jsonl import (DataError, dumps, has_utf8, read_jsonl, read_lines,
                    write_json_atomic, write_jsonl_atomic, write_manifest)
from .lexer import check, lex, sketch
from .seeds import derive_rng
from .similarity import KERNEL_BACKEND
from .tokenizer import (DEFAULT_VOCAB_BUDGET, BudgetTooSmall, TokenizerModel,
                        decode, encode, pretokenize, train_bpe)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_INTERNAL = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage by default; the pipeline reserves 2 for
    # data errors, so route usage problems through exit code 1.
    def error(self, message):
        raise UsageError(message)


def _int_at_least(minimum: int) -> Callable[[str], int]:
    """argparse type: an integer >= minimum; anything else is a usage error."""
    def parse(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
        return value
    parse.__name__ = "int"  # argparse reports a ValueError as "invalid int value"
    return parse


def _fraction(text: str) -> float:
    """argparse type: a float strictly between 0 and 1."""
    value = float(text)
    if not 0 < value < 1:
        raise argparse.ArgumentTypeError(f"must be in (0, 1), got {value}")
    return value


_fraction.__name__ = "float"


@dataclass
class PipelineConfig:
    seed: int = 0
    tokenizer_budget: int = DEFAULT_VOCAB_BUDGET
    objectives: objectives.ObjectiveConfig = None  # type: ignore[assignment]

    def __post_init__(self):
        if self.objectives is None:
            self.objectives = objectives.ObjectiveConfig(seed=self.seed)

    def validate(self) -> None:
        if self.tokenizer_budget < 1:
            raise UsageError(f"config field tokenizer_budget: must be >= 1, "
                             f"got {self.tokenizer_budget}")
        try:
            self.objectives.validate()
        except ValueError as exc:
            raise UsageError(f"config field objectives: {exc}") from None


def _config_int(obj: dict, name: str, default: int) -> int:
    value = obj.get(name, default)
    try:
        return int(value)
    except (TypeError, ValueError, OverflowError):
        raise UsageError(f"config field {name}: must be an integer, got {value!r}") from None


def load_config(path: Optional[str], seed_flag: Optional[int]) -> PipelineConfig:
    """Config file first, then flags override (precedence: flags > file > defaults)."""
    obj = {}
    if path:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                obj = json.load(fh)
        except OSError as exc:
            raise DataError(f"cannot read config: {exc}", path)
        except UnicodeDecodeError as exc:
            raise DataError(f"config is not UTF-8 text ({exc.reason})", path)
        except json.JSONDecodeError as exc:
            raise DataError(f"config is not valid JSON ({exc.msg})", path, exc.lineno)
        if not isinstance(obj, dict):
            raise UsageError(f"config file {path} must hold a JSON object")
    seed = seed_flag if seed_flag is not None else _config_int(obj, "seed", 0)
    try:
        obj_cfg = objectives.ObjectiveConfig.from_json(
            {**obj.get("objectives", {}), "seed": seed})
    except (ValueError, TypeError) as exc:
        raise UsageError(f"config field objectives: {exc}") from None
    config = PipelineConfig(
        seed=seed,
        tokenizer_budget=_config_int(obj, "tokenizer_budget", DEFAULT_VOCAB_BUDGET),
        objectives=obj_cfg,
    )
    config.validate()
    return config


def _iter_formula_lines(path: str) -> Iterator[str]:
    """Formulas from a file: JSONL records (uses .formula) or plain lines.
    A JSON object with no string `.formula`, or one with no UTF-8 form (a
    lone surrogate escape), is a DataError."""
    for lineno, line in enumerate(read_lines(path), start=1):
        line = line.rstrip("\n")
        if not line.strip():
            continue
        if line.lstrip().startswith("{"):
            try:
                obj = json.loads(line)
            except json.JSONDecodeError:
                yield line
                continue
            formula = obj.get("formula")
            if not isinstance(formula, str):
                raise DataError("JSON object row needs a string `formula`", path, lineno)
            if not has_utf8(formula):
                raise DataError("formula with no UTF-8 form (a lone surrogate escape)",
                                path, lineno)
            yield formula
            continue
        yield line


def _input_formulas(args) -> list[str]:
    if getattr(args, "formula", None):
        return [args.formula]
    if getattr(args, "input", None):
        return list(_iter_formula_lines(args.input))
    raise UsageError("provide a FORMULA argument or --input FILE")


def _load_catalog(args) -> FunctionCatalog:
    if not getattr(args, "catalog", None):
        return default_catalog()
    try:
        return FunctionCatalog.from_lines(read_lines(args.catalog), source=args.catalog)
    except CatalogError as exc:
        raise DataError(str(exc)) from None  # the message starts `<path>:<line>:`


def _read_records(path: str, skips: Optional[Counter[str]] = None
                  ) -> Iterator[curation.FormulaRecord]:
    """Records from a JSONL corpus; malformed lines are skipped and counted
    as skips["malformed"]."""
    skips = Counter() if skips is None else skips
    yield from curation.ingest(read_lines(path), skips)
    if skips["malformed"]:
        print(f"note: skipped {skips['malformed']} malformed line(s) in {path}",
              file=sys.stderr)


def _emit(rows: Iterable[dict], output: Optional[str], *, subcommand: str,
          config: dict, inputs: Sequence[str] = ()) -> int:
    """Write rows to stdout or atomically to a file (+ manifest)."""
    if output is None:
        count = 0
        for row in rows:
            print(dumps(row))
            count += 1
        return count
    count = write_jsonl_atomic(output, rows)
    write_manifest(output, subcommand, config, inputs=[p for p in inputs if p])
    return count


# --- subcommand implementations -------------------------------------------


def cmd_lex(args) -> int:
    catalog = _load_catalog(args)
    rows = ({"formula": f,
             "tokens": [{"kind": t.kind.value, "text": t.text,
                         "start": t.start, "end": t.end} for t in lex(f, catalog)]}
            for f in _input_formulas(args))
    _emit(rows, args.output, subcommand="lex", config={"catalog": args.catalog},
          inputs=[args.input])
    return EXIT_OK


def cmd_sketch(args) -> int:
    rows = ({"formula": f, "sketch": sketch(f)} for f in _input_formulas(args))
    _emit(rows, args.output, subcommand="sketch", config={}, inputs=[args.input])
    return EXIT_OK


def cmd_check(args) -> int:
    catalog = _load_catalog(args)
    rows = ({"formula": f,
             "diagnostics": [{"code": d.code.value, "start": d.start,
                              "end": d.end, "message": d.message}
                             for d in check(f, catalog)]}
            for f in _input_formulas(args))
    _emit(rows, args.output, subcommand="check", config={"catalog": args.catalog},
          inputs=[args.input])
    return EXIT_OK


def cmd_dedup(args) -> int:
    stats = curation.CorpusStats()
    retained = curation.dedup(_read_records(args.input), args.mode, stats)
    count = _emit((r.to_json() for r in retained), args.output,
                  subcommand="dedup", config={"mode": args.mode, "input": args.input},
                  inputs=[args.input])
    report = {"mode": args.mode, "retained": count, **stats.to_json()}
    if args.output:
        write_json_atomic(args.output + ".stats.json", report)
    else:
        print(dumps(report), file=sys.stderr)
    return EXIT_OK


def cmd_stats(args) -> int:
    stats = curation.stats(_read_records(args.input))
    if args.output:
        write_json_atomic(args.output, stats.to_json())
        write_manifest(args.output, "stats", {"input": args.input}, inputs=[args.input])
    else:
        print(json.dumps(stats.to_json(), ensure_ascii=False, indent=2))
    return EXIT_OK


def cmd_train_tokenizer(args) -> int:
    config = load_config(args.config, args.seed)
    budget = args.budget if args.budget is not None else config.tokenizer_budget
    catalog = _load_catalog(args)
    try:
        model = train_bpe(_iter_formula_lines(args.input), budget, catalog)
    except BudgetTooSmall as exc:
        raise UsageError(str(exc)) from None
    model.save(args.output)
    write_manifest(args.output, "train-tokenizer",
                   {"budget": budget, "catalog": args.catalog}, inputs=[args.input])
    print(f"trained tokenizer: |vocab|={len(model.vocab)} merges={len(model.merges)} "
          f"-> {args.output}", file=sys.stderr)
    return EXIT_OK


def _load_artifact(load: Callable[[str], object], path: str, what: str):
    """load(path); a missing or malformed artifact is a DataError naming it."""
    try:
        return load(path)
    except OSError as exc:
        raise DataError(f"cannot read {what}: {exc}", path)
    except (KeyError, ValueError, TypeError, AttributeError) as exc:
        raise DataError(f"malformed {what} ({exc})", path)


def cmd_tokenize(args) -> int:
    model = _load_artifact(TokenizerModel.load, args.model, "tokenizer model")
    catalog = _load_catalog(args)

    def rows():
        for f in _input_formulas(args):
            if args.pretokenize_only:
                yield {"formula": f,
                       "pretokens": [[p.text, p.atomic] for p in pretokenize(f, catalog)]}
            else:
                ids = encode(model, f, catalog)
                yield {"formula": f, "ids": ids,
                       "pieces": [model.vocab[i] for i in ids],
                       "decoded": decode(model, ids)}

    _emit(rows(), args.output, subcommand="tokenize",
          config={"model": args.model}, inputs=[args.input])
    return EXIT_OK


def cmd_gen_pretrain(args) -> int:
    config = load_config(args.config, args.seed)
    skips: Counter[str] = Counter()
    examples = objectives.generate_pretrain(_read_records(args.input, skips),
                                            config.objectives, skips, args.workers)
    count = _emit((ex.to_json() for ex in examples), args.output, subcommand="gen-pretrain",
                  config={"seed": config.seed, "objectives": asdict(config.objectives),
                          "workers_independent": True},
                  inputs=[args.input])
    # Every line read is an example or a skip: emitted + skipped == lines read.
    print(f"generated {count} pretrain examples ({skips.total()} skipped: "
          f"{skips['malformed']} malformed, {skips['no objective']} fit no objective)",
          file=sys.stderr)
    return EXIT_OK


def cmd_gen_finetune_repair(args) -> int:
    config = load_config(args.config, args.seed)
    skips: Counter[str] = Counter()
    tasks = list(evaluation.gen_repair_finetune(_iter_formula_lines(args.input),
                                                config.seed, skips))
    reserved: list[evaluation.RepairTask] = []
    if args.reserve:
        tasks, reserved = evaluation.reserve_split(tasks, min(args.reserve, len(tasks)),
                                                   config.seed)
    _emit((t.to_json() for t in tasks), args.output, subcommand="gen-finetune-repair",
          config={"seed": config.seed, "reserve": args.reserve}, inputs=[args.input])
    if args.reserve_output:
        write_jsonl_atomic(args.reserve_output, (t.to_json() for t in reserved))
    print(f"repair tasks: {len(tasks)} fine-tune, {len(reserved)} reserved "
          f"({skips['malformed']} malformed inputs skipped, "
          f"{skips['unchanged']} unchanged corruptions discarded)",
          file=sys.stderr)
    return EXIT_OK


def cmd_gen_finetune_complete(args) -> int:
    config = load_config(args.config, args.seed)
    model = _load_artifact(TokenizerModel.load, args.model, "tokenizer model")
    fractions = tuple(args.fractions) if args.fractions else (0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8)
    skips: Counter[str] = Counter()

    def rows():
        for ordinal, formula in enumerate(_iter_formula_lines(args.input)):
            fraction = derive_rng(config.seed, "complete", ordinal).choice(fractions)
            try:
                task = evaluation.make_completion_prefix(
                    formula, fraction, model, source_id=f"complete-{ordinal}")
            except ValueError:  # the fractions are checked at parse time
                skips["under 2 tokens"] += 1
                continue
            yield task.to_json()

    count = _emit(rows(), args.output, subcommand="gen-finetune-complete",
                  config={"seed": config.seed, "fractions": list(fractions),
                          "model": args.model},
                  inputs=[args.input])
    print(f"completion tasks: {count} ({skips['under 2 tokens']} skipped: "
          f"under 2 tokens)", file=sys.stderr)
    return EXIT_OK


def _load_rows(path: str, what: str, build: Callable[[dict, int], object]) -> list:
    """One build(row, line_number) per row of a strict JSONL file. A row that
    is not an object, or lacks a field `build` requires or holds it with the
    wrong type, is a DataError that says `what` a row needs."""
    rows = []
    for lineno, obj in read_jsonl(path):
        if isinstance(obj, dict):
            try:
                rows.append(build(obj, lineno))
                continue
            except (KeyError, TypeError, ValueError):
                pass
        raise DataError(what, path, lineno)
    return rows


def _field(obj: dict, key: str, kind: type = str):
    """obj[key], which must be a `kind`; raises KeyError or TypeError."""
    value = obj[key]
    if not isinstance(value, kind):
        raise TypeError(key)
    return value


def _repair_task(obj: dict, lineno: int) -> evaluation.RepairTask:
    return evaluation.RepairTask(
        buggy=_field(obj, "buggy"), ground_truth=_field(obj, "ground_truth"),
        source_id=str(obj.get("source_id", f"task-{lineno}")))


def _completion_task(obj: dict, lineno: int) -> evaluation.CompletionTask:
    return evaluation.CompletionTask(
        formula=_field(obj, "formula"), prefix_fraction=float(obj.get("prefix_fraction", 0)),
        prefix=_field(obj, "prefix"), source_id=str(obj.get("source_id", f"task-{lineno}")))


# Per task: what a benchmark row must hold, and how it becomes a task.
_BENCHMARKS = {
    "repair": ("repair task needs string `buggy` and `ground_truth`", _repair_task),
    "complete": ("completion task needs string `formula` and `prefix`", _completion_task),
}


def cmd_eval(args) -> int:
    """eval-repair and eval-complete: score replayed predictions."""
    subcommand = args.command
    tasks = _load_rows(args.benchmark, *_BENCHMARKS[subcommand.removeprefix("eval-")])
    predictions = dict(_load_rows(
        args.predictions, "prediction rows need string `source_id` and list `candidates`",
        lambda obj, _: (_field(obj, "source_id"),
                        [str(c) for c in _field(obj, "candidates", list)])))
    ks = sorted(set(args.k or (1, 5)))
    payload = evaluation.evaluate(tasks, evaluation.replay_provider(predictions),
                                  metrics=args.metrics, ks=ks).to_json()
    if args.output:
        write_json_atomic(args.output, payload)
        write_manifest(args.output, subcommand, {"k": ks, "metrics": args.metrics},
                       inputs=[args.benchmark, args.predictions])
    else:
        print(json.dumps(payload, ensure_ascii=False, indent=2))
    for row in payload["results"]:
        print(f"{subcommand} {row['metric']}@{row['k']}: {row['value']:.4f}",
              file=sys.stderr)
    return EXIT_OK


def cmd_eval_retrieval(args) -> int:
    pairs = _load_rows(
        args.pairs, "retrieval pair needs string formula_a/formula_b and target_similarity",
        lambda obj, _: evaluation.RetrievalPair(
            formula_a=_field(obj, "formula_a"), formula_b=_field(obj, "formula_b"),
            target_similarity=float(obj["target_similarity"])))
    embeddings = dict(_load_rows(
        args.embeddings, "embedding rows need string `formula` and list `vector`",
        lambda obj, _: (_field(obj, "formula"),
                        [float(x) for x in _field(obj, "vector", list)])))
    try:
        r = evaluation.retrieval_eval(pairs, embeddings)
    except ValueError as exc:
        raise DataError(str(exc), args.pairs)
    payload = {"pearson_r": r, "num_pairs": len(pairs)}
    if args.output:
        write_json_atomic(args.output, payload)
        write_manifest(args.output, "eval-retrieval", {},
                       inputs=[args.pairs, args.embeddings])
    else:
        print(json.dumps(payload, indent=2))
    print(f"eval-retrieval pearson_r: {r:.6f}", file=sys.stderr)
    return EXIT_OK


def cmd_baseline(args) -> int:
    if args.baseline_cmd == "build":
        index = baseline_mod.build_index(_iter_formula_lines(args.input))
        index.save(args.output)
        write_manifest(args.output, "baseline-build", {}, inputs=[args.input])
        print(f"indexed {index.total_formulas} formulas "
              f"({len(index.entries)} sketches) -> {args.output}", file=sys.stderr)
        return EXIT_OK

    index = _load_artifact(baseline_mod.SketchIndex.load, args.index, "index")
    repair = args.baseline_cmd == "repair"
    query = args.buggy if repair else args.prefix
    if query is not None:
        items = [("query-0", query)]
    else:
        tasks = _load_rows(args.benchmark, *_BENCHMARKS[args.baseline_cmd])
        items = [(t.source_id, t.buggy if repair else t.prefix) for t in tasks]
    rank = baseline_mod.repair_candidates if repair else baseline_mod.completion_candidates
    rows = ({"source_id": sid, "candidates": rank(index, q, args.k)} for sid, q in items)
    _emit(rows, args.output, subcommand=f"baseline-{args.baseline_cmd}",
          config={"k": args.k, "index": args.index}, inputs=[args.benchmark])
    return EXIT_OK


def cmd_synth(args) -> int:
    records = synth.synth_records(args.count, args.seed if args.seed is not None else 0)
    _emit((r.to_json() for r in records), args.output, subcommand="synth",
          config={"count": args.count, "seed": args.seed})
    return EXIT_OK


# --- parser wiring ----------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="formulakit",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--version", action="version",
                        version=f"formulakit 0.1.0 (similarity kernel: {KERNEL_BACKEND})")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_text, epilog=None):
        p = sub.add_parser(name, help=help_text, epilog=epilog,
                           formatter_class=argparse.RawDescriptionHelpFormatter)
        p.set_defaults(fn=fn)
        return p

    def io_args(p, formula_arg=True):
        if formula_arg:
            p.add_argument("formula", nargs="?", help="one formula given inline")
        p.add_argument("--input", help="file of formulas: JSONL records or plain lines")
        p.add_argument("--output", "-o", help="output path (default: stdout)")

    p = add("lex", cmd_lex, "tokenize formulas into lexer tokens",
            epilog='output: {"formula": "=SUM(A1)", "tokens": [{"kind": "Operator", '
                   '"text": "=", "start": 0, "end": 1}, ...]}')
    io_args(p)
    p.add_argument("--catalog", help="function catalog CSV (name,min,max per line)")

    p = add("sketch", cmd_sketch, "replace constants/refs with their token type",
            epilog='output: {"formula": "=SUM(A1:A10)", "sketch": "=SUM(cell:cell)"}')
    io_args(p)

    p = add("check", cmd_check, "report well-formedness diagnostics",
            epilog='output: {"formula": "=A1+)", "diagnostics": [{"code": '
                   '"UnbalancedParens", "start": 4, "end": 5, "message": "..."}]}')
    io_args(p)
    p.add_argument("--catalog")

    p = add("dedup", cmd_dedup, "sketch-deduplicate a corpus",
            epilog='input/output: JSONL {"workbook_id": "wb1", "sheet_id": "s1", '
                   '"cell": "A1", "formula": "=SUM(A1:A10)"}')
    p.add_argument("--input", required=True)
    p.add_argument("--output", "-o")
    p.add_argument("--mode", choices=list(curation.DEDUP_MODES), default="per-workbook")

    p = add("stats", cmd_stats, "corpus statistics (sketch counts per scope)",
            epilog='output: {"total_formulas": n, "unique_sketches_global": n, ...}')
    p.add_argument("--input", required=True)
    p.add_argument("--output", "-o")

    p = add("train-tokenizer", cmd_train_tokenizer, "learn a BPE tokenizer",
            epilog='model file: {"vocab": [...], "merges": [["a","b"], ...], '
                   '"specials": {...}, "budget": 16000}')
    p.add_argument("--input", required=True)
    p.add_argument("--budget", type=int, default=None,
                   help=f"vocabulary budget (default {DEFAULT_VOCAB_BUDGET})")
    p.add_argument("--catalog")
    p.add_argument("--output", "-o", required=True)
    p.add_argument("--config")
    p.add_argument("--seed", type=int, default=None)

    p = add("tokenize", cmd_tokenize, "encode formulas with a trained model",
            epilog='output: {"formula": "=A1", "ids": [5, 9, 7], "pieces": '
                   '["=", "a", "1"], "decoded": "=a1"}')
    io_args(p)
    p.add_argument("--model", required=True)
    p.add_argument("--catalog")
    p.add_argument("--pretokenize-only", action="store_true",
                   help="emit pretokens instead of ids")

    p = add("gen-pretrain", cmd_gen_pretrain, "generate pre-training examples",
            epilog='output: {"input": "=SUM(<mask>)", "target": "=SUM(A1:A10)", '
                   '"objective": "laMSP", "detail": "...", "record_seed": 123}')
    p.add_argument("--input", required=True, help="JSONL corpus of formula records")
    p.add_argument("--output", "-o")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--config", help="JSON pipeline config; flags override")
    p.add_argument("--workers", type=_int_at_least(1), default=1,
                   help="worker processes; output is identical for any count")

    p = add("gen-finetune-repair", cmd_gen_finetune_repair,
            "corrupt well-formed formulas into repair pairs",
            epilog='output: {"buggy": "=SUM(A1:A10", "ground_truth": "=SUM(A1:A10)", '
                   '"source_id": "repair-0"}')
    p.add_argument("--input", required=True)
    p.add_argument("--output", "-o")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--config")
    p.add_argument("--reserve", type=_int_at_least(0), default=0,
                   help="hold out this many tasks as a benchmark split")
    p.add_argument("--reserve-output", help="where to write the reserved split")

    p = add("gen-finetune-complete", cmd_gen_finetune_complete,
            "cut token-boundary prefixes for completion",
            epilog='output: {"formula": "=B2<=EDATE(TODAY(),-33)", "prefix_fraction": '
                   '0.5, "prefix": "=b2<=edate(", "source_id": "complete-0"}')
    p.add_argument("--input", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--output", "-o")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--config")
    p.add_argument("--fractions", type=_fraction, nargs="+",
                   help="prefix fractions to sample from (default 0.2..0.8)")

    p = add("eval-repair", cmd_eval, "score repair predictions",
            epilog='benchmark: {"buggy": ..., "ground_truth": ..., "source_id": ...}\n'
                   'predictions: {"source_id": ..., "candidates": ["=...", ...]} '
                   'ranked best-first')
    p.add_argument("--benchmark", required=True)
    p.add_argument("--predictions", required=True)
    p.add_argument("-k", type=_int_at_least(1), action="append")
    p.add_argument("--metrics", nargs="+", default=["exact_match"],
                   choices=sorted(evaluation.METRICS))
    p.add_argument("--output", "-o")

    p = add("eval-complete", cmd_eval, "score completion predictions",
            epilog='benchmark: {"formula": ..., "prefix": ..., "source_id": ...}\n'
                   'predictions: {"source_id": ..., "candidates": [...]}')
    p.add_argument("--benchmark", required=True)
    p.add_argument("--predictions", required=True)
    p.add_argument("-k", type=_int_at_least(1), action="append")
    p.add_argument("--metrics", nargs="+", default=["exact_match", "sketch_match"],
                   choices=sorted(evaluation.METRICS))
    p.add_argument("--output", "-o")

    p = add("eval-retrieval", cmd_eval_retrieval,
            "correlate embedding cosine with token edit similarity",
            epilog='pairs: {"formula_a": ..., "formula_b": ..., "target_similarity": 0.8}\n'
                   'embeddings: {"formula": ..., "vector": [0.1, 0.2, ...]}')
    p.add_argument("--pairs", required=True)
    p.add_argument("--embeddings", required=True)
    p.add_argument("--output", "-o")

    p = add("baseline", cmd_baseline, "non-neural reference providers")
    bsub = p.add_subparsers(dest="baseline_cmd", required=True)
    b = bsub.add_parser(
        "build", help="build a sketch index from a corpus",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog='index file: {"total_formulas": 3, "sketches": '
               '{"=SUM(cell:cell)": [["=SUM(A1:A2)", 2]]}}')
    b.set_defaults(fn=cmd_baseline)
    b.add_argument("--input", required=True)
    b.add_argument("--output", "-o", required=True)
    b = bsub.add_parser(
        "repair", help="nearest-formula repair candidates",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog='output: {"source_id": "repair-0", "candidates": '
               '["=SUM(A1:A10)", ...]} ranked best-first')
    b.set_defaults(fn=cmd_baseline)
    b.add_argument("--index", required=True)
    query = b.add_mutually_exclusive_group(required=True)
    query.add_argument("--benchmark")
    query.add_argument("--buggy", help="single buggy formula instead of a benchmark")
    b.add_argument("-k", type=_int_at_least(1), default=5)
    b.add_argument("--output", "-o")
    b = bsub.add_parser(
        "complete", help="frequency-ranked completion candidates",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog='output: {"source_id": "complete-0", "candidates": '
               '["=B2<=EDATE(TODAY(),-33)", ...]}')
    b.set_defaults(fn=cmd_baseline)
    b.add_argument("--index", required=True)
    query = b.add_mutually_exclusive_group(required=True)
    query.add_argument("--benchmark")
    query.add_argument("--prefix", help="single prefix instead of a benchmark")
    b.add_argument("-k", type=_int_at_least(1), default=5)
    b.add_argument("--output", "-o")

    p = add("synth", cmd_synth, "generate a synthetic formula corpus",
            epilog="well-formed random formulas with workbook/sheet provenance")
    p.add_argument("--count", type=_int_at_least(0), default=1000)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--output", "-o")

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except BrokenPipeError:
        return EXIT_OK
    except Exception as exc:  # noqa: BLE001
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
