"""Command-line entry point for the formula-data pipeline.

Subcommands cover the full path: lex/sketch/check single formulas or files,
dedup a corpus (per-workbook or global), train and apply the tokenizer,
generate pre-training and fine-tuning datasets, evaluate predictions, and
run the non-neural baseline. All randomness flows from --seed. Each command
writes its output through one path: to stdout, or atomically to -o/--output
with a sibling .manifest.json, so any two runs can be compared. The
manifest holds the content hash of that file and of every input file flag
given (INPUT_FLAGS), the only place an input's path appears; its config
holds the inline values given (FORMULA, --buggy, --prefix) and
--pretokenize-only by value, beside the command's other settings. Flags
set every scalar; --config is gen-pretrain's objective table alone, and
its manifest records the objective settings in force, seed included.
Each generator counts the inputs it skips in one Counter keyed by reason
and reports it on stderr. Each command is one row of COMMANDS, and `main`
builds only the subparser of the command it runs; top-level help,
--version and an unknown command get every subparser.

Every input file is opened, and every JSON text judged, by `jsonl`, so
any command meets a malformed input alike. No input row format is defined
here (see `evaluation.ROW_FORMATS`, `jsonl.read_formulas`). Exit codes: 0
success, 1 usage/config error, 2 data error (with file/line), 3 internal error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import Counter
from dataclasses import asdict
from typing import Callable, Iterable, Iterator, Optional, Sequence

from . import __version__
from . import baseline as baseline_mod
from . import curation, evaluation, objectives, synth
from .catalog import CatalogError, FunctionCatalog, default_catalog
from .jsonl import (MANIFEST_SUFFIX, DataError, dumps, has_utf8, loads, read_formulas, read_lines,
                    read_rows, read_text, write_json_atomic, write_jsonl_atomic, write_manifest)
from .lexer import check, lex, sketch
from .similarity import KERNEL_BACKEND
from .tokenizer import (DEFAULT_VOCAB_BUDGET, BudgetTooSmall, TokenizerModel,
                        decode, encode, pretokenize, train_bpe)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_INTERNAL = 3

# The flags that name input files: a manifest hashes each one given, in this order.
INPUT_FLAGS = ("input", "benchmark", "predictions", "pairs", "embeddings", "model", "index",
               "catalog")
# The inline values and switches a manifest's config records, each when not None.
INLINE_FLAGS = ("formula", "buggy", "prefix", "pretokenize_only")
# What dedup writes beside OUTPUT, as every command writes its manifest there.
STATS_SUFFIX = ".stats.json"


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


def load_config(path: Optional[str], seed: int) -> objectives.ObjectiveConfig:
    """gen-pretrain's objective table: a JSON object of the ObjectiveConfig
    fields but `seed`, which --seed sets; the defaults without a file.

    An unknown key or a bad value is a UsageError that names the field.
    """
    obj = {}
    if path:
        try:
            obj = loads(read_text(path, "config"))
        except json.JSONDecodeError as exc:
            raise DataError(f"config is not valid JSON ({exc.msg})", path, exc.lineno)
        if not isinstance(obj, dict):
            raise UsageError(f"config file {path} must hold a JSON object")
    if "seed" in obj:
        raise UsageError("config field seed: not a config field; --seed seeds the objectives")
    try:
        return objectives.ObjectiveConfig.from_json({**obj, "seed": seed})
    except ValueError as exc:
        raise UsageError(f"config field {exc}") from None


def _input_formulas(args) -> list[str]:
    if getattr(args, "formula", None):
        return [args.formula]
    if getattr(args, "input", None):
        return list(read_formulas(args.input))
    raise UsageError("provide a FORMULA argument or --input FILE")


def _load_catalog(args) -> FunctionCatalog:
    if not args.catalog:
        return default_catalog()
    return FunctionCatalog.from_lines(read_lines(args.catalog), source=args.catalog)


def _read_records(path: str, skips: Optional[Counter[str]] = None
                  ) -> Iterator[curation.FormulaRecord]:
    """Records from a JSONL corpus; malformed lines are skipped and counted
    as skips["malformed"]."""
    skips = Counter() if skips is None else skips
    yield from curation.ingest(read_lines(path), skips)
    if skips["malformed"]:
        print(f"note: skipped {skips['malformed']} malformed line(s) in {path}",
              file=sys.stderr)


def _emit(args, payload: dict | Iterable[dict], config: dict) -> int:
    """Write a command's output: a dict as one JSON document, anything else
    as JSONL rows. With --output it goes atomically to that file, with a
    manifest beside it of `config` and the INLINE_FLAGS given, and of the
    hash of every INPUT_FLAGS file given; without, to stdout. Returns the
    number of rows, 1 for a document."""
    output = args.output
    if isinstance(payload, dict):
        count = 1
        if output is None:
            print(json.dumps(payload, ensure_ascii=False, indent=2))
        else:
            write_json_atomic(output, payload)
    elif output is None:
        count = 0
        for row in payload:
            print(dumps(row))
            count += 1
    else:
        count = write_jsonl_atomic(output, payload)
    if output is not None:
        subcommand = (f"baseline-{args.baseline_cmd}" if args.command == "baseline"
                      else args.command)
        given = vars(args)
        config = {**config, **{f: given[f] for f in INLINE_FLAGS if given.get(f) is not None}}
        write_manifest(output, subcommand, config,
                       inputs=[given[f] for f in INPUT_FLAGS if given.get(f)])
    return count


# --- subcommand implementations -------------------------------------------


def cmd_lex(args) -> None:
    catalog = _load_catalog(args)
    rows = ({"formula": f,
             "tokens": [{"kind": t.kind.value, "text": t.text,
                         "start": t.start, "end": t.end} for t in lex(f, catalog)]}
            for f in _input_formulas(args))
    _emit(args, rows, {})


def cmd_sketch(args) -> None:
    rows = ({"formula": f, "sketch": sketch(f)} for f in _input_formulas(args))
    _emit(args, rows, {})


def cmd_check(args) -> None:
    catalog = _load_catalog(args)
    rows = ({"formula": f,
             "diagnostics": [{"code": d.code.value, "start": d.start,
                              "end": d.end, "message": d.message}
                             for d in check(f, catalog)]}
            for f in _input_formulas(args))
    _emit(args, rows, {})


def cmd_dedup(args) -> None:
    stats = curation.CorpusStats()
    retained = curation.dedup(_read_records(args.input), args.mode, stats)
    count = _emit(args, (r.to_json() for r in retained), {"mode": args.mode})
    report = {"mode": args.mode, "retained": count, **stats.to_json()}
    if args.output:
        write_json_atomic(args.output + STATS_SUFFIX, report)
    else:
        print(dumps(report), file=sys.stderr)


def cmd_stats(args) -> None:
    stats = curation.stats(_read_records(args.input))
    _emit(args, stats.to_json(), {})


def cmd_train_tokenizer(args) -> None:
    catalog = _load_catalog(args)
    model = train_bpe(read_formulas(args.input), args.budget, catalog)
    _emit(args, model.to_json(), {"budget": args.budget})
    print(f"trained tokenizer: |vocab|={len(model.vocab)} merges={len(model.merges)} "
          f"-> {args.output}", file=sys.stderr)


def _load_artifact(load: Callable[[str], object], path: str, what: str):
    """load(path); a missing or malformed artifact is a DataError naming it."""
    try:
        return load(path)
    except (KeyError, ValueError, TypeError, AttributeError) as exc:
        raise DataError(f"malformed {what} ({exc})", path)


def cmd_tokenize(args) -> None:
    formulas = _input_formulas(args)
    model = _load_artifact(TokenizerModel.load, args.model, "tokenizer model")

    def rows():
        for f in formulas:
            if args.pretokenize_only:
                yield {"formula": f,
                       "pretokens": [[p.text, p.atomic] for p in pretokenize(f, model.catalog)]}
            else:
                ids = encode(model, f)
                yield {"formula": f, "ids": ids,
                       "pieces": [model.vocab[i] for i in ids],
                       "decoded": decode(model, ids)}

    _emit(args, rows(), {})


def cmd_gen_pretrain(args) -> None:
    config = load_config(args.config, args.seed)
    skips: Counter[str] = Counter()
    examples = objectives.generate_pretrain(_read_records(args.input, skips),
                                            config, skips, args.workers)
    count = _emit(args, (ex.to_json() for ex in examples), asdict(config))
    # Every line read is an example or a skip: emitted + skipped == lines read.
    print(f"generated {count} pretrain examples ({skips.total()} skipped: "
          f"{skips['malformed']} malformed, {skips['no objective']} fit no objective)",
          file=sys.stderr)


def cmd_gen_finetune_repair(args) -> None:
    # Reserved tasks need a file to go to, and that file needs tasks.
    if bool(args.reserve) != bool(args.reserve_output):
        raise UsageError("--reserve N (N >= 1) and --reserve-output FILE go together")
    skips: Counter[str] = Counter()
    tasks = list(evaluation.gen_repair_finetune(read_formulas(args.input), args.seed, skips))
    reserved: list[evaluation.RepairTask] = []
    if args.reserve:
        tasks, reserved = evaluation.reserve_split(tasks, min(args.reserve, len(tasks)),
                                                   args.seed)
    _emit(args, (t.to_json() for t in tasks), {"seed": args.seed, "reserve": args.reserve})
    if args.reserve_output:
        write_jsonl_atomic(args.reserve_output, (t.to_json() for t in reserved))
    print(f"repair tasks: {len(tasks)} fine-tune, {len(reserved)} reserved "
          f"({skips['malformed']} malformed inputs skipped, "
          f"{skips['unchanged']} unchanged corruptions discarded)", file=sys.stderr)


def cmd_gen_finetune_complete(args) -> None:
    model = _load_artifact(TokenizerModel.load, args.model, "tokenizer model")
    fractions = tuple(args.fractions or evaluation.COMPLETION_FRACTIONS)
    skips: Counter[str] = Counter()
    tasks = evaluation.gen_completion_finetune(read_formulas(args.input), model, args.seed,
                                               fractions, skips)
    count = _emit(args, (t.to_json() for t in tasks),
                  {"seed": args.seed, "fractions": list(fractions)})
    print(f"completion tasks: {count} ({skips['under 2 tokens']} skipped: "
          f"under 2 tokens)", file=sys.stderr)


def cmd_eval(args) -> None:
    """eval-repair and eval-complete: score replayed predictions."""
    subcommand = args.command
    tasks = read_rows(args.benchmark, *evaluation.ROW_FORMATS[subcommand.removeprefix("eval-")])
    predictions = dict(read_rows(args.predictions, *evaluation.ROW_FORMATS["predictions"]))
    ks = sorted(set(args.k or (1, 5)))
    payload = evaluation.evaluate(tasks, evaluation.replay_provider(predictions),
                                  metrics=args.metrics, ks=ks).to_json()
    _emit(args, payload, {"k": ks, "metrics": args.metrics})
    for row in payload["results"]:
        print(f"{subcommand} {row['metric']}@{row['k']}: {row['value']:.4f}",
              file=sys.stderr)


def cmd_eval_retrieval(args) -> None:
    pairs = read_rows(args.pairs, *evaluation.ROW_FORMATS["pairs"])
    embeddings = dict(read_rows(args.embeddings, *evaluation.ROW_FORMATS["embeddings"]))
    try:
        r = evaluation.retrieval_eval(pairs, embeddings)
    except ValueError as exc:
        raise DataError(str(exc), args.pairs)
    _emit(args, {"pearson_r": r, "num_pairs": len(pairs)}, {})
    print(f"eval-retrieval pearson_r: {r:.6f}", file=sys.stderr)


def cmd_baseline(args) -> None:
    if args.baseline_cmd == "build":
        index = baseline_mod.build_index(read_formulas(args.input))
        _emit(args, index.to_json(), {})
        print(f"indexed {index.total_formulas} formulas "
              f"({len(index.entries)} sketches) -> {args.output}", file=sys.stderr)
        return

    index = _load_artifact(baseline_mod.SketchIndex.load, args.index, "index")
    repair = args.baseline_cmd == "repair"
    query = args.buggy if repair else args.prefix
    if query is not None:
        items = [("query-0", query)]
    else:
        tasks = read_rows(args.benchmark, *evaluation.ROW_FORMATS[args.baseline_cmd])
        items = [(t.source_id, t.buggy if repair else t.prefix) for t in tasks]
    rank = baseline_mod.repair_candidates if repair else baseline_mod.completion_candidates
    rows = ({"source_id": sid, "candidates": rank(index, q, args.k)} for sid, q in items)
    _emit(args, rows, {"k": args.k})


def cmd_synth(args) -> None:
    records = synth.synth_records(args.count, args.seed)
    _emit(args, (r.to_json() for r in records), {"count": args.count, "seed": args.seed})


# --- parser wiring ----------------------------------------------------------


def _io_args(p):
    source = p.add_mutually_exclusive_group()
    source.add_argument("formula", nargs="?", help="one formula given inline")
    source.add_argument("--input", help="file of formulas: JSONL records or plain lines")
    p.add_argument("--output", "-o", help="output path (default: stdout)")


def _lex_args(p):
    _io_args(p)
    p.add_argument("--catalog", help="function catalog CSV (name,min,max per line)")


def _stats_args(p):
    p.add_argument("--input", required=True)
    p.add_argument("--output", "-o")


def _dedup_args(p):
    _stats_args(p)
    p.add_argument("--mode", choices=list(curation.DEDUP_MODES), default="per-workbook")


def _train_tokenizer_args(p):
    p.add_argument("--input", required=True)
    p.add_argument("--budget", type=int, default=DEFAULT_VOCAB_BUDGET,
                   help=f"vocabulary budget (default {DEFAULT_VOCAB_BUDGET})")
    p.add_argument("--catalog")
    p.add_argument("--output", "-o", required=True)


def _tokenize_args(p):
    _io_args(p)
    p.add_argument("--model", required=True)
    p.add_argument("--pretokenize-only", action="store_true", default=None,
                   help="emit pretokens instead of ids")


def _gen_pretrain_args(p):
    p.add_argument("--input", required=True, help="JSONL corpus of formula records")
    p.add_argument("--output", "-o")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--config", help="JSON object of objective settings: weights, "
                   "tm_fractions, lamsp_rates, lamsp_mean_spans, rn_rate")
    p.add_argument("--workers", type=_int_at_least(1), default=1,
                   help="worker processes; output is identical for any count")


def _gen_finetune_repair_args(p):
    p.add_argument("--input", required=True)
    p.add_argument("--output", "-o")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--reserve", type=_int_at_least(0), default=0,
                   help="hold out this many tasks as a benchmark split")
    p.add_argument("--reserve-output", help="where to write the reserved split")


def _gen_finetune_complete_args(p):
    p.add_argument("--input", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--output", "-o")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--fractions", type=_fraction, nargs="+",
                   help="prefix fractions to sample from (default 0.2..0.8)")


def _eval_args(metrics: list[str]) -> Callable[[argparse.ArgumentParser], None]:
    """eval-repair and eval-complete differ only in their default metrics."""
    def add(p):
        p.add_argument("--benchmark", required=True)
        p.add_argument("--predictions", required=True)
        p.add_argument("-k", type=_int_at_least(1), action="append")
        p.add_argument("--metrics", nargs="+", default=metrics,
                       choices=sorted(evaluation.METRICS))
        p.add_argument("--output", "-o")
    return add


def _eval_retrieval_args(p):
    p.add_argument("--pairs", required=True)
    p.add_argument("--embeddings", required=True)
    p.add_argument("--output", "-o")


def _baseline_args(p):
    _add_commands(p.add_subparsers(dest="baseline_cmd", required=True), BASELINE_COMMANDS)


def _baseline_build_args(p):
    p.add_argument("--input", required=True)
    p.add_argument("--output", "-o", required=True)


def _baseline_query_args(single: str, single_help: str
                         ) -> Callable[[argparse.ArgumentParser], None]:
    """baseline repair and baseline complete differ only in their
    single-query flag."""
    def add(p):
        p.add_argument("--index", required=True)
        query = p.add_mutually_exclusive_group(required=True)
        query.add_argument("--benchmark")
        query.add_argument(single, help=single_help)
        p.add_argument("-k", type=_int_at_least(1), default=5)
        p.add_argument("--output", "-o")
    return add


def _synth_args(p):
    p.add_argument("--count", type=_int_at_least(0), default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", "-o")


# Every command, in the order top-level help lists them: its name -> (its
# handler, help, epilog, and the function that adds its arguments).
COMMANDS: dict[str, tuple] = {
    "lex": (
        cmd_lex, "tokenize formulas into lexer tokens",
        'output: {"formula": "=SUM(A1)", "tokens": [{"kind": "Operator", '
        '"text": "=", "start": 0, "end": 1}, ...]}', _lex_args),
    "sketch": (
        cmd_sketch, "replace constants/refs with their token type",
        'output: {"formula": "=SUM(A1:A10)", "sketch": "=SUM(cell:cell)"}', _io_args),
    "check": (
        cmd_check, "report well-formedness diagnostics",
        'output: {"formula": "=A1+)", "diagnostics": [{"code": '
        '"UnbalancedParens", "start": 4, "end": 5, "message": "..."}]}', _lex_args),
    "dedup": (
        cmd_dedup, "sketch-deduplicate a corpus",
        'input/output: JSONL {"workbook_id": "wb1", "sheet_id": "s1", '
        '"cell": "A1", "formula": "=SUM(A1:A10)"}', _dedup_args),
    "stats": (
        cmd_stats, "corpus statistics (sketch counts per scope)",
        'output: {"total_formulas": n, "unique_sketches_global": n, ...}', _stats_args),
    "train-tokenizer": (
        cmd_train_tokenizer, "learn a BPE tokenizer",
        'model file: {"vocab": [...], "merges": [["a","b"], ...], '
        '"specials": {...}, "budget": 16000}\n'
        'The specials are fixed by the model format (<mask>, <pad>, <unk>, and\n'
        '␣ for a space); a model file with other specials, or with a merge\n'
        'whose product is missing from vocab, is a data error. A --catalog other\n'
        'than the default is kept in the model as "catalog": ["name,min,max", ...]\n'
        'and used by tokenize and gen-finetune-complete.', _train_tokenizer_args),
    "tokenize": (
        cmd_tokenize, "encode formulas with a trained model",
        'output: {"formula": "=A1", "ids": [5, 9, 7], "pieces": '
        '["=", "a", "1"], "decoded": "=a1"}', _tokenize_args),
    "gen-pretrain": (
        cmd_gen_pretrain, "generate pre-training examples",
        'output: {"input": "=SUM(<mask>)", "target": "=SUM(A1:A10)", '
        '"objective": "laMSP", "detail": "...", "record_seed": 123}', _gen_pretrain_args),
    "gen-finetune-repair": (
        cmd_gen_finetune_repair, "corrupt well-formed formulas into repair pairs",
        'output: {"buggy": "=SUM(A1:A10", "ground_truth": "=SUM(A1:A10)", '
        '"source_id": "repair-0"}', _gen_finetune_repair_args),
    "gen-finetune-complete": (
        cmd_gen_finetune_complete, "cut token-boundary prefixes for completion",
        'output: {"formula": "=B2<=EDATE(TODAY(),-33)", "prefix_fraction": '
        '0.5, "prefix": "=b2<=edate(", "source_id": "complete-0"}',
        _gen_finetune_complete_args),
    "eval-repair": (
        cmd_eval, "score repair predictions",
        'benchmark: {"buggy": ..., "ground_truth": ..., "source_id": ...}\n'
        'predictions: {"source_id": ..., "candidates": ["=...", ...]} ranked best-first',
        _eval_args(["exact_match"])),
    "eval-complete": (
        cmd_eval, "score completion predictions",
        'benchmark: {"formula": ..., "prefix": ..., "source_id": ...}\n'
        'predictions: {"source_id": ..., "candidates": [...]}',
        _eval_args(["exact_match", "sketch_match"])),
    "eval-retrieval": (
        cmd_eval_retrieval, "correlate embedding cosine with token edit similarity",
        'pairs: {"formula_a": ..., "formula_b": ..., "target_similarity": 0.8}\n'
        'embeddings: {"formula": ..., "vector": [0.1, 0.2, ...]}', _eval_retrieval_args),
    "baseline": (cmd_baseline, "non-neural reference providers", None, _baseline_args),
    "synth": (
        cmd_synth, "generate a synthetic formula corpus",
        "well-formed random formulas with workbook/sheet provenance", _synth_args),
}

BASELINE_COMMANDS: dict[str, tuple] = {  # rows as in COMMANDS
    "build": (
        cmd_baseline, "build a sketch index from a corpus",
        'index file: {"total_formulas": 3, "sketches": '
        '{"=SUM(cell:cell)": [["=SUM(A1:A2)", 2]]}}', _baseline_build_args),
    "repair": (
        cmd_baseline, "nearest-formula repair candidates",
        'output: {"source_id": "repair-0", "candidates": ["=SUM(A1:A10)", ...]} '
        'ranked best-first',
        _baseline_query_args("--buggy", "single buggy formula instead of a benchmark")),
    "complete": (
        cmd_baseline, "frequency-ranked completion candidates",
        'output: {"source_id": "complete-0", "candidates": '
        '["=B2<=EDATE(TODAY(),-33)", ...]}',
        _baseline_query_args("--prefix", "single prefix instead of a benchmark")),
}


def _add_commands(sub: argparse._SubParsersAction, table: dict[str, tuple]) -> None:
    for name, (fn, help_text, epilog, arguments) in table.items():
        p = sub.add_parser(name, help=help_text, epilog=epilog,
                           formatter_class=argparse.RawDescriptionHelpFormatter)
        p.set_defaults(fn=fn)
        arguments(p)


def build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """The CLI's parser, with every command's subparser, or with `command`
    (a key of COMMANDS) only that one's, which parses that command's argv
    and prints its help exactly as the full parser does."""
    parser = _Parser(
        prog="formulakit",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--version", action="version",
                        version=f"formulakit {__version__} (similarity kernel: {KERNEL_BACKEND})")
    _add_commands(parser.add_subparsers(dest="command", required=True),
                  COMMANDS if command is None else {command: COMMANDS[command]})
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # A command word first needs only its own subparser. Anything else (no
    # words, an option such as -h or --version, an unknown word) gets the
    # full parser, whose help, version line and errors name every command.
    parser = build_parser(argv[0] if argv and argv[0] in COMMANDS else None)
    try:
        args = parser.parse_args(argv)
        # Manifests hold paths and inline values, and outputs formulas, as UTF-8
        # text: the first string argument with no UTF-8 form is refused.
        for dest, value in vars(args).items():
            if isinstance(value, str) and not has_utf8(value):
                raise UsageError(f"{dest.upper()} is not UTF-8 text")
        # No file a command writes (OUTPUT, the side files beside it,
        # RESERVE_OUTPUT) may resolve to a given input file, to --config or to
        # another file it writes.
        given, seen = vars(args), {}
        output = given.get("output")
        files = [(dest.upper(), given[dest], False) for dest in (*INPUT_FLAGS, "config")
                 if given.get(dest)]
        if output:
            sides = [MANIFEST_SUFFIX] + ([STATS_SUFFIX] if args.command == "dedup" else [])
            files += [("OUTPUT", output, True)] + [(f"OUTPUT{side}", output + side, True)
                                                   for side in sides]
        if given.get("reserve_output"):
            files.append(("RESERVE_OUTPUT", given["reserve_output"], True))
        for name, path, written in files:
            first = seen.setdefault(os.path.realpath(path), name)
            if written and first != name:
                raise UsageError(f"{name} and {first} name the same file")
        args.fn(args)
        return EXIT_OK
    except (UsageError, BudgetTooSmall) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DataError, CatalogError) as exc:  # a CatalogError starts `<path>:<line>:`
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except BrokenPipeError:
        return EXIT_OK
    except Exception as exc:  # noqa: BLE001
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
