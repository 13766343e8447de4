"""Command-line entry point for the formula-data pipeline.

Subcommands cover the full path: lex/sketch/check single formulas or files,
dedup a corpus (per-workbook or global), train and apply the tokenizer,
generate pre-training and fine-tuning datasets, evaluate predictions, and
run the non-neural baseline. All randomness flows from --seed; artifacts
are written atomically and get a sibling .manifest.json with config and
content hashes so any two runs can be compared.

Exit codes: 0 success, 1 usage/config error, 2 data error (with file/line),
3 internal error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, dataclass
from multiprocessing import Pool
from typing import Iterable, Iterator, Optional, Sequence

from . import baseline as baseline_mod
from . import curation, evaluation, objectives, synth
from .catalog import CatalogError, FunctionCatalog, default_catalog
from .jsonl import (DataError, dumps, read_jsonl, write_json_atomic,
                    write_jsonl_atomic, write_manifest)
from .lexer import check, lex, sketch
from .seeds import derive_seed
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


def load_config(path: Optional[str], seed_flag: Optional[int]) -> PipelineConfig:
    """Config file first, then flags override (precedence: flags > file > defaults)."""
    obj = {}
    if path:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                obj = json.load(fh)
        except OSError as exc:
            raise DataError(f"cannot read config: {exc}", path)
        except json.JSONDecodeError as exc:
            raise DataError(f"config is not valid JSON ({exc.msg})", path, exc.lineno)
        if not isinstance(obj, dict):
            raise UsageError(f"config file {path} must hold a JSON object")
    seed = seed_flag if seed_flag is not None else int(obj.get("seed", 0))
    try:
        obj_cfg = objectives.ObjectiveConfig.from_json(
            {**obj.get("objectives", {}), "seed": seed})
    except (ValueError, TypeError) as exc:
        raise UsageError(f"config field objectives: {exc}") from None
    config = PipelineConfig(
        seed=seed,
        tokenizer_budget=int(obj.get("tokenizer_budget", DEFAULT_VOCAB_BUDGET)),
        objectives=obj_cfg,
    )
    config.validate()
    return config


def _iter_formula_lines(path: str) -> Iterator[str]:
    """Formulas from a file: JSONL records (uses .formula) or plain lines."""
    try:
        fh = open(path, "r", encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot read input: {exc}", path)
    with fh:
        for line in fh:
            line = line.rstrip("\n")
            if not line.strip():
                continue
            if line.lstrip().startswith("{"):
                try:
                    obj = json.loads(line)
                except json.JSONDecodeError:
                    yield line
                    continue
                if isinstance(obj, dict) and isinstance(obj.get("formula"), str):
                    yield obj["formula"]
                    continue
            yield line


def _input_formulas(args) -> list[str]:
    if getattr(args, "formula", None):
        return [args.formula]
    if getattr(args, "input", None):
        return list(_iter_formula_lines(args.input))
    raise UsageError("provide a FORMULA argument or --input FILE")


def _load_catalog(args) -> FunctionCatalog:
    if getattr(args, "catalog", None):
        try:
            return FunctionCatalog.from_file(args.catalog)
        except OSError as exc:
            raise DataError(f"cannot read catalog: {exc}", args.catalog)
        except CatalogError as exc:
            raise DataError(str(exc), args.catalog)
    return default_catalog()


def _read_records(path: str) -> Iterator[curation.FormulaRecord]:
    report = curation.IngestReport()
    try:
        fh = open(path, "r", encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot read input: {exc}", path)
    with fh:
        yield from curation.ingest(fh, report)
    if report.skipped:
        print(f"note: skipped {report.skipped} malformed line(s) in {path}",
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
          inputs=[args.input] if args.input else [])
    return EXIT_OK


def cmd_sketch(args) -> int:
    rows = ({"formula": f, "sketch": sketch(f)} for f in _input_formulas(args))
    _emit(rows, args.output, subcommand="sketch", config={},
          inputs=[args.input] if args.input else [])
    return EXIT_OK


def cmd_check(args) -> int:
    catalog = _load_catalog(args)
    issues_seen = 0
    rows = []
    for f in _input_formulas(args):
        diags = check(f, catalog)
        issues_seen += bool(diags)
        rows.append({"formula": f,
                     "diagnostics": [{"code": d.code.value, "start": d.start,
                                      "end": d.end, "message": d.message}
                                     for d in diags]})
    _emit(rows, args.output, subcommand="check", config={"catalog": args.catalog},
          inputs=[args.input] if args.input else [])
    return EXIT_OK


def cmd_dedup(args) -> int:
    records = list(_read_records(args.input))
    keys = [curation.dedup_key(r.formula) for r in records]
    dedup = (curation.dedup_per_workbook if args.mode == "per-workbook"
             else curation.dedup_global)
    retained = list(dedup(records, keys))
    stats = curation.stats(records, keys)
    count = _emit((r.to_json() for r in retained), args.output,
                  subcommand="dedup", config={"mode": args.mode, "input": args.input},
                  inputs=[args.input])
    stats_path = args.stats_output or (args.output + ".stats.json" if args.output else None)
    report = {"mode": args.mode, "retained": count, **stats.to_json()}
    if stats_path:
        write_json_atomic(stats_path, report)
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


def _load_model(path: str) -> TokenizerModel:
    try:
        return TokenizerModel.load(path)
    except OSError as exc:
        raise DataError(f"cannot read tokenizer model: {exc}", path)
    except (KeyError, ValueError, TypeError) as exc:
        raise DataError(f"malformed tokenizer model ({exc})", path)


def cmd_tokenize(args) -> int:
    model = _load_model(args.model)
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
          config={"model": args.model}, inputs=[args.input] if args.input else [])
    return EXIT_OK


def _pretrain_worker(task):
    ordinal, record_json, config = task
    record = curation.parse_record(record_json)
    example = objectives.example_for_record(record, ordinal, config)
    return None if example is None else example.to_json()


def cmd_gen_pretrain(args) -> int:
    config = load_config(args.config, args.seed)
    records = [r.to_json() for r in _read_records(args.input)]
    tasks = [(i, rec, config.objectives) for i, rec in enumerate(records)]
    skipped = 0

    def results() -> Iterator[dict]:
        nonlocal skipped
        if args.workers > 1:
            with Pool(args.workers) as pool:
                for row in pool.imap(_pretrain_worker, tasks, chunksize=256):
                    if row is None:
                        skipped += 1
                    else:
                        yield row
        else:
            for task in tasks:
                row = _pretrain_worker(task)
                if row is None:
                    skipped += 1
                else:
                    yield row

    count = _emit(results(), args.output, subcommand="gen-pretrain",
                  config={"seed": config.seed, "objectives": asdict(config.objectives),
                          "workers_independent": True},
                  inputs=[args.input])
    print(f"generated {count} pretrain examples ({skipped} skipped)", file=sys.stderr)
    return EXIT_OK


def cmd_gen_finetune_repair(args) -> int:
    config = load_config(args.config, args.seed)
    formulas = list(_iter_formula_lines(args.input))
    report = evaluation.RepairSynthesisReport()
    tasks = list(evaluation.gen_repair_finetune(formulas, config.seed, report))
    reserved: list[evaluation.RepairTask] = []
    if args.reserve:
        tasks, reserved = evaluation.reserve_split(tasks, min(args.reserve, len(tasks)),
                                                   config.seed)
    _emit((t.to_json() for t in tasks), args.output, subcommand="gen-finetune-repair",
          config={"seed": config.seed, "reserve": args.reserve}, inputs=[args.input])
    if args.reserve_output:
        write_jsonl_atomic(args.reserve_output, (t.to_json() for t in reserved))
    print(f"repair tasks: {len(tasks)} fine-tune, {len(reserved)} reserved "
          f"({report.skipped_malformed} malformed inputs skipped, "
          f"{report.discarded_unchanged} unchanged corruptions discarded)",
          file=sys.stderr)
    return EXIT_OK


def cmd_gen_finetune_complete(args) -> int:
    config = load_config(args.config, args.seed)
    model = _load_model(args.model)
    fractions = tuple(args.fractions) if args.fractions else (0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8)

    def rows():
        import random as _random
        for ordinal, formula in enumerate(_iter_formula_lines(args.input)):
            rng = _random.Random(derive_seed(config.seed, "complete", ordinal))
            fraction = rng.choice(fractions)
            try:
                task = evaluation.make_completion_prefix(
                    formula, fraction, model, source_id=f"complete-{ordinal}")
            except ValueError:
                continue
            yield task.to_json()

    _emit(rows(), args.output, subcommand="gen-finetune-complete",
          config={"seed": config.seed, "fractions": list(fractions),
                  "model": args.model},
          inputs=[args.input])
    return EXIT_OK


def _load_repair_benchmark(path: str) -> list[evaluation.RepairTask]:
    tasks = []
    for lineno, obj in read_jsonl(path):
        try:
            tasks.append(evaluation.RepairTask(
                buggy=obj["buggy"], ground_truth=obj["ground_truth"],
                source_id=str(obj.get("source_id", f"task-{lineno}"))))
        except (KeyError, TypeError):
            raise DataError("repair task needs `buggy` and `ground_truth`", path, lineno)
    return tasks


def _load_completion_benchmark(path: str) -> list[evaluation.CompletionTask]:
    tasks = []
    for lineno, obj in read_jsonl(path):
        try:
            tasks.append(evaluation.CompletionTask(
                formula=obj["formula"], prefix_fraction=float(obj.get("prefix_fraction", 0)),
                prefix=obj["prefix"], source_id=str(obj.get("source_id", f"task-{lineno}"))))
        except (KeyError, TypeError, ValueError):
            raise DataError("completion task needs `formula` and `prefix`", path, lineno)
    return tasks


def _load_predictions(path: str) -> dict[str, list[str]]:
    preds: dict[str, list[str]] = {}
    for lineno, obj in read_jsonl(path):
        sid = obj.get("source_id")
        cands = obj.get("candidates")
        if not isinstance(sid, str) or not isinstance(cands, list):
            raise DataError("prediction rows need `source_id` and `candidates`",
                            path, lineno)
        preds[sid] = [str(c) for c in cands]
    return preds


def _write_report(report: evaluation.EvalReport, args, subcommand: str,
                  inputs: Sequence[str]) -> None:
    payload = report.to_json()
    if args.output:
        write_json_atomic(args.output, payload)
        write_manifest(args.output, subcommand,
                       {"k": args.k, "metrics": getattr(args, "metrics", None)},
                       inputs=inputs)
    else:
        print(json.dumps(payload, ensure_ascii=False, indent=2))
    for row in payload["results"]:
        print(f"{subcommand} {row['metric']}@{row['k']}: {row['value']:.4f}",
              file=sys.stderr)


def cmd_eval_repair(args) -> int:
    tasks = _load_repair_benchmark(args.benchmark)
    provider = evaluation.replay_provider(_load_predictions(args.predictions))
    report = evaluation.evaluate(tasks, provider, metrics=args.metrics, ks=args.k)
    _write_report(report, args, "eval-repair", [args.benchmark, args.predictions])
    return EXIT_OK


def cmd_eval_complete(args) -> int:
    tasks = _load_completion_benchmark(args.benchmark)
    provider = evaluation.replay_provider(_load_predictions(args.predictions))
    report = evaluation.evaluate(tasks, provider, metrics=args.metrics, ks=args.k)
    _write_report(report, args, "eval-complete", [args.benchmark, args.predictions])
    return EXIT_OK


def cmd_eval_retrieval(args) -> int:
    pairs = []
    for lineno, obj in read_jsonl(args.pairs):
        try:
            pairs.append(evaluation.RetrievalPair(
                formula_a=obj["formula_a"], formula_b=obj["formula_b"],
                target_similarity=float(obj["target_similarity"])))
        except (KeyError, TypeError, ValueError):
            raise DataError("retrieval pair needs formula_a/formula_b/target_similarity",
                            args.pairs, lineno)
    embeddings: dict[str, list[float]] = {}
    for lineno, obj in read_jsonl(args.embeddings):
        try:
            embeddings[obj["formula"]] = [float(x) for x in obj["vector"]]
        except (KeyError, TypeError, ValueError):
            raise DataError("embedding rows need `formula` and `vector`",
                            args.embeddings, lineno)
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


def _load_index(path: str) -> baseline_mod.SketchIndex:
    try:
        return baseline_mod.SketchIndex.load(path)
    except OSError as exc:
        raise DataError(f"cannot read index: {exc}", path)
    except (KeyError, ValueError, TypeError, AttributeError) as exc:
        raise DataError(f"malformed index ({exc})", path)


def cmd_baseline(args) -> int:
    if args.baseline_cmd == "build":
        index = baseline_mod.build_index(_iter_formula_lines(args.input))
        index.save(args.output)
        write_manifest(args.output, "baseline-build", {}, inputs=[args.input])
        print(f"indexed {index.total_formulas} formulas "
              f"({len(index.entries)} sketches) -> {args.output}", file=sys.stderr)
        return EXIT_OK

    index = _load_index(args.index)
    if args.baseline_cmd == "repair":
        if args.buggy is not None:
            items: Iterable[tuple[str, str]] = [("query-0", args.buggy)]
        else:
            items = [(t.source_id, t.buggy) for t in _load_repair_benchmark(args.benchmark)]
        rows = ({"source_id": sid,
                 "candidates": baseline_mod.repair_candidates(index, buggy, args.k)}
                for sid, buggy in items)
        _emit(rows, args.output, subcommand="baseline-repair",
              config={"k": args.k, "index": args.index},
              inputs=[p for p in (args.benchmark,) if p])
        return EXIT_OK

    if args.prefix is not None:
        items = [("query-0", args.prefix)]
    else:
        items = [(t.source_id, t.prefix) for t in _load_completion_benchmark(args.benchmark)]
    rows = ({"source_id": sid,
             "candidates": baseline_mod.completion_candidates(index, prefix, args.k)}
            for sid, prefix in items)
    _emit(rows, args.output, subcommand="baseline-complete",
          config={"k": args.k, "index": args.index},
          inputs=[p for p in (args.benchmark,) if p])
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
    p.add_argument("--stats-output", help="where to write the corpus stats JSON")

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
    p.add_argument("--workers", type=int, default=1,
                   help="worker processes; output is identical for any count")

    p = add("gen-finetune-repair", cmd_gen_finetune_repair,
            "corrupt well-formed formulas into repair pairs",
            epilog='output: {"buggy": "=SUM(A1:A10", "ground_truth": "=SUM(A1:A10)", '
                   '"source_id": "repair-0"}')
    p.add_argument("--input", required=True)
    p.add_argument("--output", "-o")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--config")
    p.add_argument("--reserve", type=int, default=0,
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
    p.add_argument("--fractions", type=float, nargs="+",
                   help="prefix fractions to sample from (default 0.2..0.8)")

    p = add("eval-repair", cmd_eval_repair, "score repair predictions",
            epilog='benchmark: {"buggy": ..., "ground_truth": ..., "source_id": ...}\n'
                   'predictions: {"source_id": ..., "candidates": ["=...", ...]} '
                   'ranked best-first')
    p.add_argument("--benchmark", required=True)
    p.add_argument("--predictions", required=True)
    p.add_argument("-k", type=int, action="append", default=None)
    p.add_argument("--metrics", nargs="+", default=["exact_match"],
                   choices=sorted(evaluation.METRICS))
    p.add_argument("--output", "-o")

    p = add("eval-complete", cmd_eval_complete, "score completion predictions",
            epilog='benchmark: {"formula": ..., "prefix": ..., "source_id": ...}\n'
                   'predictions: {"source_id": ..., "candidates": [...]}')
    p.add_argument("--benchmark", required=True)
    p.add_argument("--predictions", required=True)
    p.add_argument("-k", type=int, action="append", default=None)
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
    b.add_argument("--benchmark")
    b.add_argument("--buggy", help="single buggy formula instead of a benchmark")
    b.add_argument("-k", type=int, default=5)
    b.add_argument("--output", "-o")
    b = bsub.add_parser(
        "complete", help="frequency-ranked completion candidates",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog='output: {"source_id": "complete-0", "candidates": '
               '["=B2<=EDATE(TODAY(),-33)", ...]}')
    b.set_defaults(fn=cmd_baseline)
    b.add_argument("--index", required=True)
    b.add_argument("--benchmark")
    b.add_argument("--prefix", help="single prefix instead of a benchmark")
    b.add_argument("-k", type=int, default=5)
    b.add_argument("--output", "-o")

    p = add("synth", cmd_synth, "generate a synthetic formula corpus",
            epilog="well-formed random formulas with workbook/sheet provenance")
    p.add_argument("--count", type=int, default=1000)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--output", "-o")

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        k = getattr(args, "k", None)
        if isinstance(k, list):
            args.k = sorted(set(k))
        elif k is None and hasattr(args, "k") and args.command.startswith("eval"):
            args.k = [1, 5]
        if isinstance(getattr(args, "k", None), list) and any(x < 1 for x in args.k):
            raise UsageError("-k values must be >= 1")
        elif isinstance(getattr(args, "k", None), int) and args.k < 1:
            raise UsageError("-k must be >= 1")
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
