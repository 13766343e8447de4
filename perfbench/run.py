#!/usr/bin/env python3
"""Pipeline benchmark for formulakit.

Usage (from the repository root):

    python3 perfbench/run.py --workload corpus --seed 0 --seconds 10 --trace 0

Workloads (see perfbench/workloads.py): corpus, tokenizer, repair-search,
envelope. Inputs come from perfbench/inputs.py and depend on --seed only.

With --trace 0 the run sets up several times (median setup_s), then repeats
the workload's timed iteration for --seconds (median items_per_s), and
prints the end-to-end metrics. With --trace 1 it runs the same untraced loop,
then one more iteration with every traced function wrapped, and prints the
per-layer metrics and trace_overhead (traced items/s over untraced items/s).

setup_s and items_per_s are scaled to a reference machine speed by
workloads.SpeedProbe, which times a fixed loop on a timer signal while the
steps run; on a shared machine whose speed swings this cancels most of the
swing. The unscaled figures are printed alongside. trace_overhead compares
scaled rates; in the traced iteration the probe's own time (about 1.5%)
falls inside whichever span is open.

Every iteration's outputs are checked; for seed 0 their digests must also
equal perfbench/reference.json, which holds the `inputs` and `artifacts` of a
seed-0 stamp (and repair-search's exact-match scores). Regenerate it from
such a run only when a change to the outputs is intended.

Output: human-readable lines with every figure, its unit and sample count;
then a `stamp` line (kernel backend, Python, nproc, seed, input and
artifact digests) that perfbench/compare.py reads; last the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import inputs
import workloads
from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE_SEED = 0
MIN_ITERATIONS = 3

TRACE_TARGETS = [
    "lexer.lex", "lexer.check", "lexer.sketch", "lexer.normalize",
    "curation.dedup_key", "curation.ingest",
    "tokenizer.train_bpe", "tokenizer.pretokenize", "tokenizer.encode",
    "objectives.example_for_record",
    "noise.applicable_operators", "noise.apply_noise_operator",
    "evaluation.gen_repair_finetune", "evaluation.make_completion_prefix",
    "evaluation.build_retrieval_pairs", "evaluation.evaluate",
    "similarity.token_edit_similarity", "similarity.formula_token_ids",
    "similarity.formula_token_ids_frozen", "similarity.similarities_to_many",
    "baseline.build_index", "baseline.SketchIndex.load",
    "baseline.repair_candidates", "baseline.completion_candidates",
    "jsonl.write_jsonl_atomic", "jsonl.write_json_atomic", "jsonl.write_manifest",
    "jsonl.read_jsonl",
]

STAGES = ["dedup", "train-tokenizer", "gen-pretrain", "gen-finetune-repair",
          "gen-finetune-complete", "tokenize", "check", "baseline-build",
          "eval-repair", "eval-complete"]

END_TO_END_UNITS = {"setup_s": "s", "items_per_s": "1/s", "peak_rss_mb": "MB"}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric, in BENCHMARK.json order, with its unit."""
    units = {
        "lexer.lex.calls": "count", "lexer.lex.self_s": "s",
        "lexer.lex.calls_per_item": "count", "lexer.check.calls": "count",
        "lexer.check.self_s": "s", "lexer.sketch.self_s": "s",
        "lexer.normalize.self_s": "s",
        "curation.dedup_key.calls": "count", "curation.dedup_key.calls_per_item": "count",
        "curation.dedup_key.s": "s", "curation.ingest.s": "s",
        "tokenizer.train_bpe.s": "s", "tokenizer.merges": "count",
        "tokenizer.train_bpe.s_per_merge": "s", "tokenizer.pretokenize.self_s": "s",
        "tokenizer.encode.calls": "count", "tokenizer.encode.self_s": "s",
        "objectives.example_for_record.calls": "count",
        "objectives.example_for_record.s": "s",
    }
    units.update({f"objectives.mix.{name}": "count"
                  for name in ("laMSP", "TM", "UN", "RN", "ID")})
    units.update({
        "noise.applicable_operators.calls": "count",
        "noise.applicable_operators.self_s": "s",
        "noise.apply_noise_operator.calls": "count",
        "noise.apply_noise_operator.self_s": "s",
        "evaluation.gen_repair_finetune.s": "s", "evaluation.repair.useful_ratio": "ratio",
        "evaluation.make_completion_prefix.s": "s",
        "evaluation.build_retrieval_pairs.s": "s", "evaluation.retrieval.pairs": "count",
        "evaluation.evaluate.s": "s",
        "similarity.token_edit_similarity.calls": "count",
        "similarity.token_edit_similarity.s": "s",
        "similarity.formula_token_ids.calls": "count",
        "similarity.similarities_to_many.calls": "count",
        "similarity.similarities_to_many.s": "s", "similarity.scored_per_query": "count",
        "baseline.build_index.s": "s", "baseline.SketchIndex.load.s": "s",
        "baseline.repair_candidates.self_s": "s", "baseline.completion_candidates.s": "s",
        "jsonl.write_jsonl_atomic.s": "s", "jsonl.write_jsonl_atomic.self_s": "s",
        "jsonl.write_manifest.s": "s",
        "jsonl.read_jsonl.s": "s", "jsonl.bytes_written": "bytes",
    })
    units.update({f"stage.{name}.s": "s" for name in STAGES})
    units.update({
        "cli.gen_pretrain.child_cpu_s": "s",
        "serve.repair_p50_ms": "ms", "serve.repair_tail_ms": "ms",
        "serve.complete_p50_ms": "ms", "serve.complete_tail_ms": "ms",
        "eval.exact_match_at_1": "ratio", "eval.exact_match_at_5": "ratio",
        "trace_overhead": "ratio",
    })
    return units


def layer_metrics(stats: dict, before: dict, during: dict, ctx, workload, items: int,
                  figures: dict, overhead: float) -> dict[str, float]:
    """Per-layer metrics from the traced phase. Per-item counts come from
    the traced iteration alone (`before` and `during` bracket it), leaving
    out the set-up and scoring a workload re-runs under the tracer."""
    def stat(target: str, key: str) -> float:
        return stats[target][key]

    def per_item(target: str) -> float:
        return (during[target]["calls"] - before[target]["calls"]) / items

    merges = getattr(workload, "merges", 0)
    scorer = stats["similarity.similarities_to_many"]
    values = {
        "lexer.lex.calls": stat("lexer.lex", "calls"),
        "lexer.lex.self_s": stat("lexer.lex", "self_s"),
        "lexer.lex.calls_per_item": per_item("lexer.lex"),
        "lexer.check.calls": stat("lexer.check", "calls"),
        "lexer.check.self_s": stat("lexer.check", "self_s"),
        "lexer.sketch.self_s": stat("lexer.sketch", "self_s"),
        "lexer.normalize.self_s": stat("lexer.normalize", "self_s"),
        "curation.dedup_key.calls": stat("curation.dedup_key", "calls"),
        "curation.dedup_key.calls_per_item": per_item("curation.dedup_key"),
        "curation.dedup_key.s": stat("curation.dedup_key", "s"),
        "curation.ingest.s": stat("curation.ingest", "s"),
        "tokenizer.train_bpe.s": stat("tokenizer.train_bpe", "s"),
        "tokenizer.merges": merges,
        "tokenizer.train_bpe.s_per_merge":
            stat("tokenizer.train_bpe", "s") / merges if merges else 0.0,
        "tokenizer.pretokenize.self_s": stat("tokenizer.pretokenize", "self_s"),
        "tokenizer.encode.calls": stat("tokenizer.encode", "calls"),
        "tokenizer.encode.self_s": stat("tokenizer.encode", "self_s"),
        "objectives.example_for_record.calls": stat("objectives.example_for_record", "calls"),
        "objectives.example_for_record.s": stat("objectives.example_for_record", "s"),
    }
    mix = getattr(workload, "mix", {})
    for name in ("laMSP", "TM", "UN", "RN", "ID"):
        values[f"objectives.mix.{name}"] = mix.get(name, 0)
    values.update({
        "noise.applicable_operators.calls": stat("noise.applicable_operators", "calls"),
        "noise.applicable_operators.self_s": stat("noise.applicable_operators", "self_s"),
        "noise.apply_noise_operator.calls": stat("noise.apply_noise_operator", "calls"),
        "noise.apply_noise_operator.self_s": stat("noise.apply_noise_operator", "self_s"),
        "evaluation.gen_repair_finetune.s": stat("evaluation.gen_repair_finetune", "s"),
        "evaluation.repair.useful_ratio": repair_useful_ratio(ctx),
        "evaluation.make_completion_prefix.s": stat("evaluation.make_completion_prefix", "s"),
        "evaluation.build_retrieval_pairs.s": stat("evaluation.build_retrieval_pairs", "s"),
        "evaluation.retrieval.pairs": len(getattr(workload, "retrieval", [])),
        "evaluation.evaluate.s": stat("evaluation.evaluate", "s"),
        "similarity.token_edit_similarity.calls":
            stat("similarity.token_edit_similarity", "calls"),
        "similarity.token_edit_similarity.s": stat("similarity.token_edit_similarity", "s"),
        "similarity.formula_token_ids.calls": stat("similarity.formula_token_ids", "calls"),
        "similarity.similarities_to_many.calls": scorer["calls"],
        "similarity.similarities_to_many.s": scorer["s"],
        "similarity.scored_per_query":
            scorer["amount"] / scorer["calls"] if scorer["calls"] else 0.0,
        "baseline.build_index.s": stat("baseline.build_index", "s"),
        "baseline.SketchIndex.load.s": stat("baseline.SketchIndex.load", "s"),
        "baseline.repair_candidates.self_s": stat("baseline.repair_candidates", "self_s"),
        "baseline.completion_candidates.s": stat("baseline.completion_candidates", "s"),
        "jsonl.write_jsonl_atomic.s": stat("jsonl.write_jsonl_atomic", "s"),
        "jsonl.write_jsonl_atomic.self_s": stat("jsonl.write_jsonl_atomic", "self_s"),
        "jsonl.write_manifest.s": stat("jsonl.write_manifest", "s"),
        "jsonl.read_jsonl.s": stat("jsonl.read_jsonl", "s"),
        "jsonl.bytes_written": stat("jsonl.write_jsonl_atomic", "amount")
        + stat("jsonl.write_json_atomic", "amount"),
    })
    for name in STAGES:
        values[f"stage.{name}.s"] = ctx.stage_s.get(name, 0.0)
    values.update({
        "cli.gen_pretrain.child_cpu_s": ctx.child_cpu_s,
        "serve.repair_p50_ms": figures.get("repair_p50_ms", 0.0),
        "serve.repair_tail_ms": figures.get("repair_tail_ms", 0.0),
        "serve.complete_p50_ms": figures.get("complete_p50_ms", 0.0),
        "serve.complete_tail_ms": figures.get("complete_tail_ms", 0.0),
        "eval.exact_match_at_1": figures.get("repair_exact_match_at_1", 0.0),
        "eval.exact_match_at_5": figures.get("repair_exact_match_at_5", 0.0),
        "trace_overhead": overhead,
    })
    return values


def repair_useful_ratio(ctx) -> float:
    """Repair tasks emitted over well-formed inputs, from the stage report
    "repair tasks: A fine-tune, B reserved (C malformed inputs skipped, D
    unchanged corruptions discarded)"."""
    text = ctx.stage_stderr.get("gen-finetune-repair")
    if not text:
        return 0.0
    words = text.split("repair tasks:", 1)[1].replace("(", " ").split()
    emitted = int(words[0]) + int(words[2])
    discarded = int(words[8])
    return emitted / (emitted + discarded) if emitted + discarded else 0.0


def peak_rss_mb() -> float:
    """The larger of this process's and its children's peak RSS."""
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_package() -> None:
    """Put the checkout's src/ first on sys.path and prove the package
    imports from there, not from anywhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import formulakit
    if Path(formulakit.__file__).resolve().parent.parent != src.resolve():
        raise ImportError(f"formulakit imported from {formulakit.__file__}, not {src}")


def run(args) -> dict:
    workload = workloads.WORKLOADS[args.workload]()
    data = workload.inputs(args.seed)
    input_digests = {family: inputs.digest(values) for family, values in sorted(data.items())}
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as tmp:
        ctx = workloads.Context(Path(tmp))
        workload.prepare(ctx, data)
        with workloads.SpeedProbe() as ctx.probe:
            probe = ctx.probe
            setups = [probe.time(lambda: workloads.set_up(workload, ctx))[:2]
                      for _ in range(workload.setup_reps)]
            rates, first, items = [], None, 0
            deadline = perf_counter() + args.seconds
            while perf_counter() < deadline or len(rates) < MIN_ITERATIONS:
                scaled, took, items = probe.time(lambda: workload.iteration(ctx))
                rates.append((items / scaled, items / took))
                digests = verify(ctx, workload, full=first is None)
                if first is None:
                    first = digests
                else:
                    ctx.outcome.check(digests == first, "artifacts changed between iterations")
        figures, final_digests = workload.finish(ctx)
        artifacts = {**first, **final_digests}
        check_reference(ctx, args, input_digests, artifacts, figures)
        summary = {
            "setup_s": statistics.median(scaled for scaled, _ in setups),
            "items_per_s": statistics.median(scaled for scaled, _ in rates),
            "unscaled_setup_s": statistics.median(took for _, took in setups),
            "unscaled_items_per_s": statistics.median(took for _, took in rates),
            "items_per_iteration": items,
        }

        layers = None
        if args.trace:
            ctx.stage_s.clear()
            ctx.child_cpu_s = 0.0
            tracer = Tracer(TRACE_TARGETS, amounts={
                "similarity.similarities_to_many": lambda a, r: len(a[1]),
                "jsonl.write_jsonl_atomic": lambda a, r: os.path.getsize(a[0]),
                "jsonl.write_json_atomic": lambda a, r: os.path.getsize(a[0]),
            })
            tracer.install()
            try:
                with workloads.SpeedProbe() as ctx.probe:
                    workload.begin_traced(ctx)
                    before = tracer.stats()
                    scaled, _, items = ctx.probe.time(lambda: workload.iteration(ctx))
                    during = tracer.stats()
                workload.end_traced(ctx)
            finally:
                tracer.uninstall()
            traced = {**verify(ctx, workload, full=True), **workload.traced_digests(ctx)}
            ctx.outcome.check(all(artifacts.get(k) == v for k, v in traced.items()),
                              "tracing changed an artifact")
            base = summary["items_per_s"] if workload.repeats_work else rates[0][0]
            layers = layer_metrics(tracer.stats(), before, during, ctx, workload, items,
                                   figures, items / scaled / base)

    outcome = ctx.outcome
    summary["peak_rss_mb"] = peak_rss_mb()
    report(args, workload, summary, figures, rates, setups, outcome)
    stamp = {
        "workload": args.workload, "seed": args.seed,
        "kernel_backend": sys.modules["formulakit.similarity"].KERNEL_BACKEND,
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "seconds": args.seconds, "trace": args.trace,
        "inputs": input_digests, "artifacts": artifacts,
    }
    print("stamp " + json.dumps(stamp, sort_keys=True))
    if layers is None:
        metrics = {name: {"value": summary[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
    else:
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit in per_layer_units().items()}
    return {"correct": outcome.failed == 0, "attempted": outcome.attempted,
            "failed": outcome.failed, "metrics": metrics}


def verify(ctx, workload, full: bool) -> dict[str, str]:
    """workload.verify, counting an unreadable artifact as a failed check."""
    try:
        return workload.verify(ctx, full)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        ctx.outcome.check(False, f"verify: {type(exc).__name__}: {exc}")
        return {}


def check_reference(ctx, args, input_digests: dict, artifacts: dict, figures: dict) -> None:
    """For the reference seed, inputs, artifacts and scores must equal the
    recorded ones: a speed-up counts only if the outputs stay identical."""
    if args.seed != REFERENCE_SEED:
        return
    reference = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
    want = reference[args.workload]
    ctx.outcome.check(input_digests == want["inputs"], "inputs differ from the reference")
    for name, digest in want["artifacts"].items():
        ctx.outcome.check(artifacts.get(name) == digest,
                          f"{name} differs from the reference")
    for name, value in want.get("scores", {}).items():
        ctx.outcome.check(figures.get(name) == value,
                          f"{name} {figures.get(name)} differs from the reference {value}")


def report(args, workload, summary, figures, rates, setups, outcome) -> None:
    """Human-readable lines: every metric with its unit and sample count."""
    print(f"workload {args.workload} seed {args.seed}: {workload.__doc__.split(chr(10))[0]}")
    print(f"setup_s {summary['setup_s']:.6f} s (median of {len(setups)}; "
          f"unscaled {summary['unscaled_setup_s']:.6f} s)")
    print(f"items_per_s {summary['items_per_s']:.4f} 1/s (median of {len(rates)} "
          f"iterations of {summary['items_per_iteration']} items; "
          f"unscaled {summary['unscaled_items_per_s']:.4f} 1/s)")
    print(f"peak_rss_mb {summary['peak_rss_mb']:.1f} MB")
    print(f"failed_ratio {outcome.failed / max(1, outcome.attempted):.6f} "
          f"({outcome.failed} of {outcome.attempted} operations)")
    for kind in ("repair", "complete"):
        if f"{kind}_p50_ms" in figures:
            n = figures[f"{kind}_samples"]
            print(f"{kind}_p50_ms {figures[f'{kind}_p50_ms']:.3f} ms (n={n})")
            print(f"{kind}_tail_ms {figures[f'{kind}_tail_ms']:.3f} ms "
                  f"(p{figures[f'{kind}_tail_percentile']:.0f}, n={n})")
    for k in (1, 5):
        for kind in ("repair", "complete"):
            name = f"{kind}_exact_match_at_{k}"
            if name in figures:
                label = "exact_match_at" if kind == "repair" else "complete_exact_match_at"
                print(f"{label}_{k} {figures[name]:.4f} ratio")
    for note in outcome.notes:
        print(f"FAILED: {note}")


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        import_package()
    except ImportError as exc:
        print(f"perfbench: cannot import formulakit from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 2
    result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
