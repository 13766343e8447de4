import argparse
import json
import hashlib
import os
import stat
import sys
from dataclasses import fields
from pathlib import Path

import pytest
import test_cli_golden as golden

from formulakit import __version__, cli
from formulakit.catalog import FunctionCatalog, default_catalog
from formulakit.cli import (BASELINE_COMMANDS, COMMANDS, UsageError, build_parser,
                            load_config, main)
from formulakit.curation import CorpusStats
from formulakit import jsonl
from formulakit.jsonl import dumps, write_jsonl_atomic
from formulakit.lexer import check
from formulakit.objectives import ObjectiveConfig
from formulakit.similarity import KERNEL_BACKEND
from formulakit.synth import synth_corpus, synth_records


REPO = Path(__file__).resolve().parent.parent
# JSON nested far past Python's recursion limit, which `json.loads` meets
# with RecursionError: every reader must treat it as invalid JSON.
NESTED = "[" * 100_000 + "]" * 100_000
# An integer past Python's 4,300-digit limit, which `json.loads` meets with
# ValueError: every reader must treat it as invalid JSON too.
HUGE_INT = "1" * 5000


def read_jsonl_file(path):
    return [json.loads(line) for line in Path(path).read_text("utf-8").splitlines()]


def sha(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


@pytest.fixture()
def corpus_file(tmp_path):
    path = tmp_path / "corpus.jsonl"
    write_jsonl_atomic(path, (r.to_json() for r in synth_records(120, seed=100)))
    return str(path)


@pytest.fixture()
def formulas_file(tmp_path):
    path = tmp_path / "formulas.txt"
    path.write_text("\n".join(synth_corpus(80, seed=101)) + "\n", encoding="utf-8")
    return str(path)


class TestBasicCommands:
    def test_lex_single_formula(self, capsys):
        assert main(["lex", "=SUM(A1)"]) == 0
        row = json.loads(capsys.readouterr().out)
        assert [t["kind"] for t in row["tokens"]] == \
            ["Operator", "FuncName", "Punct", "CellRef", "Punct"]

    def test_sketch(self, capsys):
        assert main(["sketch", "=SUM(A1:A10)"]) == 0
        assert json.loads(capsys.readouterr().out)["sketch"] == "=SUM(cell:cell)"

    def test_check_reports_diagnostics(self, capsys):
        assert main(["check", "=SUM(A1"]) == 0
        row = json.loads(capsys.readouterr().out)
        assert row["diagnostics"][0]["code"] == "UnbalancedParens"

    @pytest.mark.parametrize("catalog, ill_formed", [
        (None, "=SUM(A1"),
        (["sum,1,2"], "=SUM(A1,A2,A3)"),  # ill-formed under this catalog alone
    ])
    def test_check_checks_a_repeated_well_formed_text_once(self, tmp_path, capsys, monkeypatch,
                                                           catalog, ill_formed):
        # [A, B, A, C, C, A] with C ill-formed: A and B are checked once and
        # C each time, 4 calls, and every row is the one check gives alone.
        a, b, c = "=SUM(A1:A3)", "=A1+1", ill_formed
        formulas = [a, b, a, c, c, a]
        path = tmp_path / "formulas.txt"
        path.write_text("\n".join(formulas) + "\n", encoding="utf-8")
        argv = ["check", "--input", str(path)]
        rules = default_catalog()
        if catalog is not None:
            (tmp_path / "catalog.csv").write_text("\n".join(catalog) + "\n", encoding="utf-8")
            argv += ["--catalog", str(tmp_path / "catalog.csv")]
            rules = FunctionCatalog.from_lines(catalog)
        calls = []

        def counted(formula, *rest, **kwargs):
            calls.append(formula)
            return check(formula, *rest, **kwargs)

        monkeypatch.setattr(cli, "check", counted)
        capsys.readouterr()
        assert main(argv) == 0
        rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert calls == [a, b, c, c]
        assert rows == [{"formula": f,
                         "diagnostics": [{"code": d.code.value, "start": d.start,
                                          "end": d.end, "message": d.message}
                                         for d in check(f, rules)]} for f in formulas]
        assert [bool(row["diagnostics"]) for row in rows] == [False] * 3 + [True] * 2 + [False]

    def test_synth_outputs_records(self, capsys):
        assert main(["synth", "--count", "5", "--seed", "1"]) == 0
        rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert len(rows) == 5
        assert all("workbook_id" in r and "formula" in r for r in rows)

    def test_missing_input_is_usage_error(self, capsys):
        assert main(["lex"]) == 1

    def test_unknown_flag_is_usage_error(self):
        assert main(["sketch", "--bogus"]) == 1

    def test_missing_file_is_data_error(self):
        assert main(["stats", "--input", "/nonexistent/corpus.jsonl"]) == 2


class TestDedupCli:
    def test_mode_ordering(self, tmp_path, corpus_file):
        per_wb = tmp_path / "per.jsonl"
        glob = tmp_path / "glob.jsonl"
        assert main(["dedup", "--input", corpus_file, "--mode", "per-workbook",
                     "--output", str(per_wb)]) == 0
        assert main(["dedup", "--input", corpus_file, "--mode", "global",
                     "--output", str(glob)]) == 0
        n_input = len(read_jsonl_file(corpus_file))
        n_per = len(read_jsonl_file(per_wb))
        n_glob = len(read_jsonl_file(glob))
        assert n_glob <= n_per <= n_input
        stats = json.loads((tmp_path / "per.jsonl.stats.json").read_text("utf-8"))
        assert stats["retained"] == n_per

    def test_stats_file_agrees_with_stats_command(self, tmp_path, corpus_file):
        assert main(["stats", "--input", corpus_file, "-o", str(tmp_path / "stats.json")]) == 0
        expected = json.loads((tmp_path / "stats.json").read_text("utf-8"))
        assert {f.name for f in fields(CorpusStats)} <= set(expected)
        for mode in ("per-workbook", "global"):
            out = tmp_path / f"{mode}.jsonl"
            assert main(["dedup", "--input", corpus_file, "--mode", mode, "-o", str(out)]) == 0
            report = json.loads((tmp_path / f"{mode}.jsonl.stats.json").read_text("utf-8"))
            assert {key: report[key] for key in expected} == expected, mode

    def test_invalid_mode_usage_error(self, corpus_file):
        assert main(["dedup", "--input", corpus_file, "--mode", "sometimes"]) == 1

    def test_manifest_written(self, tmp_path, corpus_file):
        out = tmp_path / "out.jsonl"
        main(["dedup", "--input", corpus_file, "--output", str(out)])
        manifest = json.loads((tmp_path / "out.jsonl.manifest.json").read_text("utf-8"))
        assert manifest["inputs"][corpus_file] == sha(corpus_file)
        assert manifest["artifacts"][str(out)] == sha(out)
        assert manifest["subcommand"] == "dedup"

    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
    def test_outputs_honour_the_umask(self, tmp_path, corpus_file, umask, mode):
        out = tmp_path / "out.jsonl"
        before = os.umask(umask)
        try:
            assert main(["dedup", "--input", corpus_file, "-o", str(out)]) == 0
        finally:
            os.umask(before)
        for path in (out, tmp_path / "out.jsonl.manifest.json",
                     tmp_path / "out.jsonl.stats.json"):
            assert stat.S_IMODE(path.stat().st_mode) == mode, path


class TestTokenizerCli:
    def test_train_and_tokenize(self, tmp_path, formulas_file, capsys):
        model_path = tmp_path / "model.json"
        assert main(["train-tokenizer", "--input", formulas_file,
                     "--budget", "300", "--output", str(model_path)]) == 0
        assert model_path.exists()
        assert main(["tokenize", "=SUM(A1)", "--model", str(model_path)]) == 0
        row = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert row["decoded"] == "=sum(a1)"
        assert len(row["ids"]) == len(row["pieces"])

    def test_budget_too_small_is_usage_error(self, formulas_file, tmp_path):
        assert main(["train-tokenizer", "--input", formulas_file,
                     "--budget", "5", "--output", str(tmp_path / "m.json")]) == 1

    def test_a_catalog_trained_model_encodes_under_its_catalog(self, tmp_path, formulas_file):
        catalog = tmp_path / "my.csv"
        catalog.write_text("\n".join(default_catalog().lines() + ["myfunc,1,2"]) + "\n",
                           encoding="utf-8")
        corpus = tmp_path / "corpus.txt"
        corpus.write_text(Path(formulas_file).read_text("utf-8") + "=MYFUNC(A1)\n",
                          encoding="utf-8")
        task = tmp_path / "task.txt"
        task.write_text("=MYFUNC(A1)\n", encoding="utf-8")
        model, tokens, completions = (tmp_path / name for name in
                                      ("model.json", "tokens.jsonl", "complete.jsonl"))
        assert main(["train-tokenizer", "--input", str(corpus), "--budget", "300",
                     "--catalog", str(catalog), "-o", str(model)]) == 0
        assert "myfunc,1,2" in json.loads(model.read_text("utf-8"))["catalog"]
        # neither command is told the catalog: the model file carries it
        assert main(["tokenize", "=MYFUNC(A1)", "--model", str(model), "-o", str(tokens)]) == 0
        row = read_jsonl_file(tokens)[0]
        assert row["pieces"] == ["=", "myfunc", "(", "a", "1", ")"]
        assert main(["gen-finetune-complete", "--input", str(task), "--model", str(model),
                     "--fractions", "0.5", "-o", str(completions)]) == 0
        assert read_jsonl_file(completions)[0]["prefix"] == "=myfunc("
        assert main(["tokenize", "=MYFUNC(A1)", "--model", str(model), "--pretokenize-only",
                     "-o", str(tokens)]) == 0
        assert read_jsonl_file(tokens)[0]["pretokens"][1] == ["myfunc", True]

    def test_training_deterministic_bytes(self, tmp_path, formulas_file):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        main(["train-tokenizer", "--input", formulas_file, "--budget", "256",
              "--output", str(a)])
        main(["train-tokenizer", "--input", formulas_file, "--budget", "256",
              "--output", str(b)])
        assert sha(a) == sha(b)


# A config file's text -> the JSON error it reports.
MALFORMED_CONFIGS = {
    "invalid-json": ('{"seed": 1', "Expecting ',' delimiter"),
    "nested-past-the-recursion-limit": ('{"seed": ' + NESTED + "}", "nesting too deep"),
    "integer-past-the-digit-limit": ('{"seed": ' + HUGE_INT + "}",
                                     f"integer longer than {sys.get_int_max_str_digits()} digits"),
}


class TestGenPretrainCli:
    def test_seeded_runs_identical(self, tmp_path, corpus_file):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        assert main(["gen-pretrain", "--input", corpus_file, "--seed", "7",
                     "--output", str(a)]) == 0
        assert main(["gen-pretrain", "--input", corpus_file, "--seed", "7",
                     "--output", str(b)]) == 0
        assert sha(a) == sha(b)

    def test_different_seed_differs(self, tmp_path, corpus_file):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        main(["gen-pretrain", "--input", corpus_file, "--seed", "7", "--output", str(a)])
        main(["gen-pretrain", "--input", corpus_file, "--seed", "8", "--output", str(b)])
        assert sha(a) != sha(b)

    def test_workers_do_not_change_output(self, tmp_path, corpus_file):
        a, b = tmp_path / "w1.jsonl", tmp_path / "w4.jsonl"
        main(["gen-pretrain", "--input", corpus_file, "--seed", "3",
              "--workers", "1", "--output", str(a)])
        main(["gen-pretrain", "--input", corpus_file, "--seed", "3",
              "--workers", "4", "--output", str(b)])
        assert sha(a) == sha(b)

    def test_output_schema(self, tmp_path, corpus_file):
        out = tmp_path / "out.jsonl"
        main(["gen-pretrain", "--input", corpus_file, "--seed", "1",
              "--output", str(out)])
        rows = read_jsonl_file(out)
        assert rows
        for row in rows:
            assert set(row) == {"input", "target", "objective", "detail", "record_seed"}
            assert row["objective"] in {"TM", "laMSP", "RN", "UN", "ID"}

    def test_flat_objective_file_changes_the_output(self, tmp_path, corpus_file):
        # The file's fields sit at top level; --seed still seeds the draws.
        config = tmp_path / "config.json"
        weights = {"laMSP": 0.0, "TM": 1.0, "UN": 0.0, "RN": 0.0, "ID": 0.0}
        config.write_text(json.dumps({"weights": weights, "tm_fractions": [0.5]}),
                          encoding="utf-8")
        a, b, c = (tmp_path / n for n in ("a.jsonl", "b.jsonl", "c.jsonl"))
        for argv, out in (([], a), (["--config", str(config)], b),
                          (["--config", str(config), "--seed", "2"], c)):
            assert main(["gen-pretrain", "--input", corpus_file, *argv, "-o", str(out)]) == 0
        assert sha(b) != sha(a)
        assert {row["objective"] for row in read_jsonl_file(b)} == {"TM"}
        assert sha(c) != sha(b)
        config_b = manifest_of(b)["config"]
        assert config_b["seed"] == 0 and config_b["weights"] == weights
        assert config_b["tm_fractions"] == [0.5]
        assert manifest_of(c)["config"] == {**config_b, "seed": 2}

    @pytest.mark.parametrize("command", ["train-tokenizer", "gen-finetune-repair",
                                         "gen-finetune-complete"])
    def test_only_gen_pretrain_takes_config(self, tmp_path, corpus_file, capsys, command):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"rn_rate": 0.2}), encoding="utf-8")
        argv = {"train-tokenizer": ["-o", str(tmp_path / "m.json")],
                "gen-finetune-complete": ["--model", str(tmp_path / "m.json")]}.get(command, [])
        capsys.readouterr()
        assert main([command, "--input", corpus_file, *argv, "--config", str(config)]) == 1
        assert capsys.readouterr().err == (
            f"usage error: unrecognized arguments: --config {config}\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "corpus.jsonl"]

    def test_invalid_config_field_message(self, tmp_path, corpus_file, capsys):
        nan_weights = {"laMSP": float("nan"), "TM": 0.5, "UN": 0.5, "RN": 0.0, "ID": 0.0}
        # a config file -> how its message goes on after "config field "
        cases = [({"rn_rate": 3.0}, "rn_rate: must be in (0, 1)"),
                 ({"lamsp_rates": {"hi": 0.3}}, "lamsp_rates: must have exactly"),
                 ({"lamsp_mean_spans": {"long": 3}}, "lamsp_mean_spans: must have"),
                 ({"tm_fractions": []}, "tm_fractions: must not be empty"),
                 ({"weights": nan_weights}, "weights: must be finite"),
                 ({"weights": [1.0]}, "weights: must be an object of names to numbers, "
                                      "got list"),
                 ({"lamsp_mean_spans": {"long": 1e400, "short": 2}},
                  "lamsp_mean_spans.long: must be an integer, got inf"),
                 ({"lamsp_mean_spans": {"long": 2.9, "short": 2}},
                  "lamsp_mean_spans.long: must be an integer, got 2.9"),
                 ({"weight": {"ID": 1.0}}, "weight: not a field"),
                 # no `objectives` wrapper: the fields sit at top level
                 ({"objectives": {"rn_rate": 0.2}}, "objectives: not a field")]
        for obj, expected in cases:
            config = tmp_path / "config.json"
            config.write_text(json.dumps(obj), encoding="utf-8")
            assert main(["gen-pretrain", "--input", corpus_file,
                         "--config", str(config)]) == 1, obj
            err = capsys.readouterr().err
            assert err.startswith("usage error: config field " + expected), err
        config.write_text("[1.0]", encoding="utf-8")
        assert main(["gen-pretrain", "--input", corpus_file, "--config", str(config)]) == 1
        assert capsys.readouterr().err == (
            f"usage error: config file {config} must hold a JSON object\n")

    @pytest.mark.parametrize("field", ["seed", "tokenizer_budget"])
    def test_non_integer_config_field_is_config_error(self, tmp_path, corpus_file,
                                                      capsys, field):
        # Neither is a config field at all: --seed and --budget set them.
        config = tmp_path / "config.json"
        config.write_text(json.dumps({field: "x"}), encoding="utf-8")
        assert main(["gen-pretrain", "--input", corpus_file, "--config", str(config),
                     "-o", str(tmp_path / "out.jsonl")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"usage error: config field {field}: "), err
        assert ("--seed" in err) == (field == "seed"), err
        assert not (tmp_path / "out.jsonl").exists()

    def test_non_utf8_config_is_data_error(self, tmp_path, corpus_file, capsys):
        config = tmp_path / "config.json"
        config.write_bytes(b'{"seed": "\xff"}')
        assert main(["gen-pretrain", "--input", corpus_file, "--config", str(config)]) == 2
        assert capsys.readouterr().err.startswith(f"data error: {config}: ")

    @pytest.mark.parametrize("case", sorted(MALFORMED_CONFIGS))
    def test_malformed_config_is_data_error(self, tmp_path, corpus_file, capsys, case):
        text, message = MALFORMED_CONFIGS[case]
        config = tmp_path / "config.json"
        config.write_text(text, encoding="utf-8")
        assert main(["gen-pretrain", "--input", corpus_file, "--config", str(config)]) == 2
        assert capsys.readouterr().err == (
            f"data error: {config}:1: config is not valid JSON ({message})\n")

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_skipped_count_covers_every_line_without_an_example(self, tmp_path, capsys,
                                                                  workers):
        # Three lines: one example, one malformed line, and one record (`=`,
        # too short for tail masking) that the only weighted objective declines.
        row = {"workbook_id": "wb", "sheet_id": "s", "formula": "=SUM(A1:A2)"}
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text(f"{dumps(row)}\n{{not json\n{dumps({**row, 'formula': '='})}\n",
                          encoding="utf-8")
        config = tmp_path / "config.json"
        weights = {"laMSP": 0.0, "TM": 1.0, "UN": 0.0, "RN": 0.0, "ID": 0.0}
        config.write_text(json.dumps({"weights": weights}), encoding="utf-8")
        out = tmp_path / "out.jsonl"
        assert main(["gen-pretrain", "--input", str(corpus), "--config", str(config),
                     "--workers", workers, "-o", str(out)]) == 0
        assert len(read_jsonl_file(out)) == 1
        assert ("generated 1 pretrain examples (2 skipped: 1 malformed, "
                "1 fit no objective)") in capsys.readouterr().err

    def test_unknown_config_keys_rejected(self, tmp_path):
        # dedup mode and completion fractions are flags, not config fields
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"rn_rate": 0.2, "dedup_mode": "bogus"}),
                          encoding="utf-8")
        with pytest.raises(UsageError, match="^config field dedup_mode: not a field"):
            load_config(str(config), 3)
        config.write_text(json.dumps({"rn_rate": 0.2}), encoding="utf-8")
        assert load_config(str(config), 3) == ObjectiveConfig(seed=3, rn_rate=0.2)
        assert load_config(None, 3) == ObjectiveConfig(seed=3)


class TestFinetuneAndEvalCli:
    def test_repair_pipeline_end_to_end(self, tmp_path, formulas_file, capsys):
        bench = tmp_path / "bench.jsonl"
        rest = tmp_path / "train.jsonl"
        assert main(["gen-finetune-repair", "--input", formulas_file, "--seed", "1",
                     "--reserve", "10", "--reserve-output", str(bench),
                     "--output", str(rest)]) == 0
        bench_rows = read_jsonl_file(bench)
        assert len(bench_rows) == 10
        train_ids = {r["source_id"] for r in read_jsonl_file(rest)}
        assert train_ids.isdisjoint({r["source_id"] for r in bench_rows})

        index_path = tmp_path / "index.json"
        assert main(["baseline", "build", "--input", formulas_file,
                     "--output", str(index_path)]) == 0
        preds = tmp_path / "preds.jsonl"
        assert main(["baseline", "repair", "--index", str(index_path),
                     "--benchmark", str(bench), "-k", "5",
                     "--output", str(preds)]) == 0
        report_path = tmp_path / "report.json"
        assert main(["eval-repair", "--benchmark", str(bench),
                     "--predictions", str(preds), "-k", "1", "-k", "5",
                     "--output", str(report_path)]) == 0
        report = json.loads(report_path.read_text("utf-8"))
        values = {(r["metric"], r["k"]): r["value"] for r in report["results"]}
        assert values[("exact_match", 5)] >= values[("exact_match", 1)]

    def test_completion_pipeline(self, tmp_path, formulas_file, capsys):
        model_path = tmp_path / "model.json"
        main(["train-tokenizer", "--input", formulas_file, "--budget", "300",
              "--output", str(model_path)])
        bench = tmp_path / "complete.jsonl"
        assert main(["gen-finetune-complete", "--input", formulas_file,
                     "--model", str(model_path), "--seed", "2",
                     "--fractions", "0.5", "0.75", "0.9",
                     "--output", str(bench)]) == 0
        rows = read_jsonl_file(bench)
        assert rows
        assert all(r["formula"].lower().startswith(r["prefix"]) for r in rows)
        assert f"completion tasks: {len(rows)} (" in capsys.readouterr().err

        index_path = tmp_path / "index.json"
        main(["baseline", "build", "--input", formulas_file, "--output", str(index_path)])
        preds = tmp_path / "preds.jsonl"
        assert main(["baseline", "complete", "--index", str(index_path),
                     "--benchmark", str(bench), "-k", "5",
                     "--output", str(preds)]) == 0
        report_path = tmp_path / "report.json"
        assert main(["eval-complete", "--benchmark", str(bench),
                     "--predictions", str(preds), "-k", "1", "-k", "5",
                     "--output", str(report_path)]) == 0
        report = json.loads(report_path.read_text("utf-8"))
        values = {(r["metric"], r["k"]): r["value"] for r in report["results"]}
        # every prefix comes from a corpus formula, so the textual-prefix
        # provider must recover a decent share of them
        assert values[("exact_match", 5)] > 0.3
        assert values[("sketch_match", 5)] >= values[("exact_match", 5)]

    def test_completion_skips_formulas_under_two_tokens(self, tmp_path, capsys):
        formulas = tmp_path / "formulas.txt"
        formulas.write_text("=SUM(A1:A2)\n=\n", encoding="utf-8")
        model = tmp_path / "model.json"
        assert main(["train-tokenizer", "--input", str(formulas), "--budget", "300",
                     "-o", str(model)]) == 0
        out = tmp_path / "complete.jsonl"
        capsys.readouterr()
        assert main(["gen-finetune-complete", "--input", str(formulas),
                     "--model", str(model), "-o", str(out)]) == 0
        assert [r["source_id"] for r in read_jsonl_file(out)] == ["complete-0"]
        assert "completion tasks: 1 (1 skipped: under 2 tokens)" in capsys.readouterr().err

    def test_eval_retrieval_cli(self, tmp_path):
        pairs = tmp_path / "pairs.jsonl"
        embeddings = tmp_path / "emb.jsonl"
        write_jsonl_atomic(pairs, [
            {"formula_a": "=A1", "formula_b": "=A2", "target_similarity": 1.0},
            {"formula_a": "=A1", "formula_b": "=B9+C2", "target_similarity": 0.0},
            {"formula_a": "=A2", "formula_b": "=B9+C2", "target_similarity": 0.2},
        ])
        write_jsonl_atomic(embeddings, [
            {"formula": "=A1", "vector": [1.0, 0.0]},
            {"formula": "=A2", "vector": [0.9, 0.1]},
            {"formula": "=B9+C2", "vector": [0.0, 1.0]},
        ])
        out = tmp_path / "r.json"
        assert main(["eval-retrieval", "--pairs", str(pairs),
                     "--embeddings", str(embeddings), "--output", str(out)]) == 0
        result = json.loads(out.read_text("utf-8"))
        assert 0.5 < result["pearson_r"] <= 1.0

    def test_bad_benchmark_is_data_error(self, tmp_path):
        bench = tmp_path / "bench.jsonl"
        bench.write_text('{"nope": 1}\n', encoding="utf-8")
        preds = tmp_path / "preds.jsonl"
        preds.write_text("", encoding="utf-8")
        assert main(["eval-repair", "--benchmark", str(bench),
                     "--predictions", str(preds)]) == 2

    def test_bad_predictions_json_is_data_error(self, tmp_path, formulas_file):
        bench = tmp_path / "bench.jsonl"
        main(["gen-finetune-repair", "--input", formulas_file, "--seed", "1",
              "--output", str(bench)])
        preds = tmp_path / "preds.jsonl"
        preds.write_text("{broken\n", encoding="utf-8")
        assert main(["eval-repair", "--benchmark", str(bench),
                     "--predictions", str(preds)]) == 2


class TestBaselineSingleQueries:
    def test_single_buggy_and_prefix(self, tmp_path, capsys):
        corpus = tmp_path / "c.txt"
        corpus.write_text("=SUM(A1:A10)\n=TODAY()\n", encoding="utf-8")
        index_path = tmp_path / "index.json"
        main(["baseline", "build", "--input", str(corpus), "--output", str(index_path)])
        capsys.readouterr()
        assert main(["baseline", "repair", "--index", str(index_path),
                     "--buggy", "=SUM(A1:A10", "-k", "1"]) == 0
        row = json.loads(capsys.readouterr().out)
        assert row["candidates"] == ["=SUM(A1:A10)"]
        assert main(["baseline", "complete", "--index", str(index_path),
                     "--prefix", "=TOD", "-k", "1"]) == 0
        row = json.loads(capsys.readouterr().out)
        assert row["candidates"] == ["=TODAY()"]

    def test_predictions_manifest_hashes_the_index(self, tmp_path):
        bench = tmp_path / "bench.jsonl"
        write_jsonl_atomic(bench, [{"buggy": "=SUM(A1:A10", "ground_truth": "=SUM(A1:A10)",
                                    "source_id": "r0"}])
        corpus, index = tmp_path / "c.txt", tmp_path / "index.json"
        inputs = []
        for formulas in ("=SUM(A1:A10)\n", "=SUM(A1:A10)\n=MAX(B1:B2)\n"):
            corpus.write_text(formulas, encoding="utf-8")
            assert main(["baseline", "build", "--input", str(corpus), "-o", str(index)]) == 0
            assert main(["baseline", "repair", "--index", str(index), "--benchmark", str(bench),
                         "-o", str(tmp_path / "preds.jsonl")]) == 0
            manifest = json.loads((tmp_path / "preds.jsonl.manifest.json").read_text("utf-8"))
            assert manifest["inputs"] == {str(bench): sha(bench), str(index): sha(index)}
            inputs.append(manifest["inputs"])
        assert inputs[0] != inputs[1]

    def test_manifest_hashes_the_catalog(self, tmp_path):
        catalog = tmp_path / "functions.csv"
        catalog.write_text("SUM,1,*\n", encoding="utf-8")
        out = tmp_path / "lex.jsonl"
        assert main(["lex", "=SUM(A1)", "--catalog", str(catalog), "-o", str(out)]) == 0
        manifest = json.loads((tmp_path / "lex.jsonl.manifest.json").read_text("utf-8"))
        assert manifest["inputs"] == {str(catalog): sha(catalog)}


def manifest_of(output):
    return json.loads(Path(f"{output}.manifest.json").read_text("utf-8"))


# Run in a child interpreter, in its working directory, with the tests
# directory as its argument: every golden command in order, then one JSON
# object of each one's exit code and stream digests.
GOLDEN_CHILD = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
from formulakit.cli import main
from formulakit.jsonl import write_jsonl_atomic
from test_cli_golden import COMMANDS, EMBEDDINGS, PAIRS, digest
write_jsonl_atomic("pairs.jsonl", PAIRS)
write_jsonl_atomic("embeddings.jsonl", EMBEDDINGS)
runs = {}
for name, argv in COMMANDS.items():
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    runs[name] = [code, digest(out.getvalue().encode("utf-8")),
                  digest(err.getvalue().encode("utf-8"))]
print(json.dumps({"optimize": sys.flags.optimize, "runs": runs}))
"""


def test_golden_commands_write_the_pinned_bytes_under_python_O(tmp_path, run_python):
    # -O strips assert statements: no check the commands make may rest on one.
    proc = run_python("-O", "-c", GOLDEN_CHILD, str(REPO / "tests"), cwd=tmp_path, timeout=300)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["optimize"] == 1
    assert report["runs"] == {name: [0, *golden.STREAMS[name]] for name in golden.COMMANDS}
    assert {p.name: golden.digest(p.read_bytes())
            for p in sorted(tmp_path.iterdir())} == golden.FILES


class TestManifestContents:
    def test_each_manifest_lists_exactly_the_files_its_command_read(
            self, tmp_path, monkeypatch, capsys):
        # every golden command, in order, with the paths it opens recorded
        monkeypatch.chdir(tmp_path)
        write_jsonl_atomic("pairs.jsonl", golden.PAIRS)
        write_jsonl_atomic("embeddings.jsonl", golden.EMBEDDINGS)
        opened = []
        open_text = jsonl._open_text

        def recording(path, what):
            if what != "config":  # --config is recorded by the values it set
                opened.append(str(path))
            return open_text(path, what)

        monkeypatch.setattr(jsonl, "_open_text", recording)
        checked = []
        for name, argv in golden.COMMANDS.items():
            opened.clear()
            assert main(argv) == 0, name
            if "-o" in argv:
                inputs = manifest_of(argv[argv.index("-o") + 1])["inputs"]
                assert sorted(inputs) == sorted(set(opened)), name
                checked.append(name)
        capsys.readouterr()
        assert len(checked) == 19

    def test_two_inline_formulas_give_two_configs(self, tmp_path):
        out = tmp_path / "lex.jsonl"
        configs = []
        for formula in ("=A1", "=B2"):
            assert main(["lex", formula, "-o", str(out)]) == 0
            configs.append(manifest_of(out)["config"])
        assert configs == [{"formula": "=A1"}, {"formula": "=B2"}]

    def test_pretokenize_only_is_recorded(self, tmp_path, formulas_file):
        model, out = tmp_path / "model.json", tmp_path / "tokens.jsonl"
        assert main(["train-tokenizer", "--input", formulas_file, "--budget", "300",
                     "-o", str(model)]) == 0
        configs = []
        for extra in ([], ["--pretokenize-only"]):
            assert main(["tokenize", "--input", formulas_file, "--model", str(model),
                         "-o", str(out), *extra]) == 0
            configs.append(manifest_of(out)["config"])
        assert configs == [{}, {"pretokenize_only": True}]

    def test_single_queries_are_recorded(self, tmp_path):
        corpus, index, out = tmp_path / "c.txt", tmp_path / "index.json", tmp_path / "p.jsonl"
        corpus.write_text("=SUM(A1:A10)\n", encoding="utf-8")
        assert main(["baseline", "build", "--input", str(corpus), "-o", str(index)]) == 0
        for command, flag in (("repair", "--buggy"), ("complete", "--prefix")):
            assert main(["baseline", command, "--index", str(index), flag, "=SUM(",
                         "-o", str(out)]) == 0
            assert manifest_of(out)["config"] == {"k": 5, flag.lstrip("-"): "=SUM("}

    def test_empty_single_queries_are_recorded(self, tmp_path):
        # An empty query is a query: the manifest records it by value.
        corpus, index, out = tmp_path / "c.txt", tmp_path / "index.json", tmp_path / "p.jsonl"
        corpus.write_text("=SUM(A1:A10)\n", encoding="utf-8")
        assert main(["baseline", "build", "--input", str(corpus), "-o", str(index)]) == 0
        for command, flag in (("repair", "--buggy"), ("complete", "--prefix")):
            assert main(["baseline", command, "--index", str(index), flag, "",
                         "-o", str(out)]) == 0
            assert manifest_of(out)["config"] == {"k": 5, flag.lstrip("-"): ""}

    @pytest.mark.parametrize("command", ["lex", "sketch", "check", "tokenize"])
    def test_an_empty_inline_formula_is_a_formula(self, tmp_path, capsys, formulas_file,
                                                  command):
        # "" given inline is one formula: one row, recorded in the manifest.
        extra = []
        if command == "tokenize":
            model = tmp_path / "model.json"
            assert main(["train-tokenizer", "--input", formulas_file, "--budget", "300",
                         "-o", str(model)]) == 0
            extra = ["--model", str(model)]
        capsys.readouterr()
        assert main([command, "", *extra]) == 0
        rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert [row["formula"] for row in rows] == [""]
        out = tmp_path / "out.jsonl"
        assert main([command, "", *extra, "-o", str(out)]) == 0
        assert [row["formula"] for row in read_jsonl_file(out)] == [""]
        assert manifest_of(out)["config"] == {"formula": ""}
        # A FORMULA, even an empty one, and --input together stay a usage error.
        assert main([command, "", *extra, "--input", formulas_file]) == 1


class TestOutputCollisions:
    """A file a command writes (the output, its manifest, dedup's stats, the
    reserve output) that resolves to an input file, to --config or to another
    file it writes is refused before anything is read or written."""

    @pytest.fixture()
    def files(self, tmp_path, corpus_file):
        config = tmp_path / "config.json"
        config.write_text('{"rn_rate": 0.2}', encoding="utf-8")
        return {"corpus": corpus_file, "config": str(config)}

    def _refused(self, argv, untouched, capsys, message):
        before = {path: Path(path).read_bytes() for path in untouched}
        listing = sorted(Path(untouched[0]).parent.iterdir())
        capsys.readouterr()
        assert main(argv) == 1
        assert capsys.readouterr().err == f"usage error: {message}\n"
        assert {path: Path(path).read_bytes() for path in untouched} == before
        assert sorted(Path(untouched[0]).parent.iterdir()) == listing

    def test_dedup_output_naming_its_input(self, files, capsys):
        corpus = files["corpus"]
        self._refused(["dedup", "--input", corpus, "-o", corpus], [corpus], capsys,
                      "OUTPUT and INPUT name the same file")

    def test_output_naming_an_input_by_another_path(self, files, capsys, tmp_path):
        corpus = files["corpus"]
        (tmp_path / "sub").mkdir()
        link = tmp_path / "link.jsonl"
        link.symlink_to(corpus)
        for output in (str(tmp_path / "sub" / ".." / "corpus.jsonl"), str(link)):
            self._refused(["gen-pretrain", "--input", corpus, "-o", output], [corpus],
                          capsys, "OUTPUT and INPUT name the same file")

    def test_output_naming_the_config(self, files, capsys):
        corpus, config = files["corpus"], files["config"]
        self._refused(["gen-pretrain", "--input", corpus, "--config", config, "-o", config],
                      [corpus, config], capsys, "OUTPUT and CONFIG name the same file")

    def test_reserve_output_naming_the_output(self, files, capsys, tmp_path):
        corpus, out = files["corpus"], str(tmp_path / "x.jsonl")
        self._refused(["gen-finetune-repair", "--input", corpus, "--reserve", "5",
                       "--reserve-output", out, "-o", out], [corpus], capsys,
                      "RESERVE_OUTPUT and OUTPUT name the same file")
        assert not Path(out).exists()

    def test_reserve_output_naming_the_input(self, files, capsys, tmp_path):
        corpus = files["corpus"]
        self._refused(["gen-finetune-repair", "--input", corpus, "--reserve", "5",
                       "--reserve-output", corpus, "-o", str(tmp_path / "r.jsonl")],
                      [corpus], capsys, "RESERVE_OUTPUT and INPUT name the same file")

    def test_output_naming_a_strict_input(self, tmp_path, capsys):
        bench, preds = tmp_path / "bench.jsonl", tmp_path / "preds.jsonl"
        write_jsonl_atomic(bench, [{"buggy": "=A1+", "ground_truth": "=A1", "source_id": "r"}])
        write_jsonl_atomic(preds, [{"source_id": "r", "candidates": ["=A1"]}])
        self._refused(["eval-repair", "--benchmark", str(bench), "--predictions", str(preds),
                       "-o", str(preds)], [str(bench), str(preds)], capsys,
                      "OUTPUT and PREDICTIONS name the same file")

    def _renamed(self, corpus, name):
        path = Path(corpus).with_name(name)
        path.write_bytes(Path(corpus).read_bytes())
        return str(path)

    def test_dedup_input_naming_its_stats(self, files, capsys, tmp_path):
        corpus = self._renamed(files["corpus"], "c.jsonl.stats.json")
        self._refused(["dedup", "--input", corpus, "-o", str(tmp_path / "c.jsonl")], [corpus],
                      capsys, "OUTPUT.stats.json and INPUT name the same file")

    def test_input_naming_the_manifest(self, files, capsys, tmp_path):
        corpus = self._renamed(files["corpus"], "c2.jsonl.manifest.json")
        for command in ("gen-finetune-repair", "dedup"):
            self._refused([command, "--input", corpus, "-o", str(tmp_path / "c2.jsonl")],
                          [corpus], capsys, "OUTPUT.manifest.json and INPUT name the same file")

    def test_config_naming_the_manifest(self, files, capsys, tmp_path):
        corpus, config = files["corpus"], self._renamed(files["config"], "g.jsonl.manifest.json")
        self._refused(["gen-pretrain", "--input", corpus, "--config", config,
                       "-o", str(tmp_path / "g.jsonl")], [corpus, config], capsys,
                      "OUTPUT.manifest.json and CONFIG name the same file")

    def test_reserve_output_naming_a_side_file(self, files, capsys, tmp_path):
        corpus, out = files["corpus"], str(tmp_path / "x.jsonl")
        self._refused(["gen-finetune-repair", "--input", corpus, "--reserve", "5",
                       "--reserve-output", f"{out}.manifest.json", "-o", out], [corpus], capsys,
                      "RESERVE_OUTPUT and OUTPUT.manifest.json name the same file")

    def test_stats_name_is_free_beside_other_commands(self, files, tmp_path):
        # only dedup writes <output>.stats.json
        corpus = self._renamed(files["corpus"], "p.jsonl.stats.json")
        before = Path(corpus).read_bytes()
        assert main(["gen-pretrain", "--input", corpus, "-o", str(tmp_path / "p.jsonl")]) == 0
        assert Path(corpus).read_bytes() == before

    def test_an_output_beside_its_input_runs(self, files, tmp_path):
        corpus, out = files["corpus"], tmp_path / "dedup.jsonl"
        assert main(["dedup", "--input", corpus, "-o", str(out)]) == 0
        assert out.exists() and Path(f"{out}.manifest.json").exists()


MALFORMED_INDEXES = {
    "invalid-json": "{broken",
    "not-an-object": "[1, 2]",
    "missing-sketches": '{"total_formulas": 1}',
    "missing-total": '{"sketches": {}}',
    "bad-total": '{"sketches": {}, "total_formulas": "many"}',
    "sketches-not-an-object": '{"sketches": [], "total_formulas": 1}',
    "bucket-not-a-list": '{"sketches": {"=SUM(cell)": 5}, "total_formulas": 1}',
    "entry-too-short": '{"sketches": {"=SUM(cell)": [["=SUM(A1)"]]}, "total_formulas": 1}',
    "bad-count": '{"sketches": {"=SUM(cell)": [["=SUM(A1)", "x"]]}, "total_formulas": 1}',
    "formula-not-a-string": '{"sketches": {"=SUM(cell)": [[7, 1]]}, "total_formulas": 1}',
    "count-a-bool": '{"sketches": {"=SUM(cell)": [["=SUM(A1)", true]]}, "total_formulas": 1}',
    "count-a-float": '{"sketches": {"=SUM(cell)": [["=SUM(A1)", 1.0]]}, "total_formulas": 1}',
    "count-a-string": '{"sketches": {"=SUM(cell)": [["=SUM(A1)", "1"]]}, "total_formulas": 1}',
    "count-zero": '{"sketches": {"=SUM(cell)": [["=SUM(A1)", 0]]}, "total_formulas": 0}',
    "total-not-the-sum": '{"sketches": {"=SUM(cell)": [["=SUM(A1)", 2]]}, "total_formulas": 3}',
    "formula-listed-twice": '{"sketches": {"=SUM(cell)": [["=SUM(A1)", 1]], '
                            '"=MAX(cell)": [["=SUM(A1)", 1]]}, "total_formulas": 2}',
    "nested-past-the-recursion-limit": NESTED,
    "integer-past-the-digit-limit": '{"sketches": {}, "total_formulas": ' + HUGE_INT + "}",
}


# A trained model's JSON -> a malformed edit of it.
MALFORMED_MODELS = {
    "specials-without-unknown": lambda m: {
        **m, "specials": {k: v for k, v in m["specials"].items() if k != "unknown"}},
    "specials-a-list": lambda m: {**m, "specials": [["unknown", m["specials"]["unknown"]]]},
    "unknown-not-in-vocab": lambda m: {**m, "vocab": [t for t in m["vocab"] if t != "<unk>"]},
    "space-marker-changed": lambda m: {**m, "specials": {**m["specials"], "space_marker": "~"}},
    "mask-token-changed": lambda m: {**m, "specials": {**m["specials"], "mask_token": "<pad>"}},
    "merges-not-pairs": lambda m: {**m, "merges": [[1, 2]] + m["merges"]},
    "merge-holds-null": lambda m: {**m, "merges": [[None, "a"]]},
    "merge-product-missing": lambda m: {
        **m, "vocab": [t for t in m["vocab"] if t != "".join(m["merges"][0])]},
    "budget-negative": lambda m: {**m, "budget": -5},
    "vocab-holds-a-non-string": lambda m: {
        **m, "vocab": [None if tok == "<unk>" else tok for tok in m["vocab"]]},
    "vocab-a-string": lambda m: {**m, "vocab": "".join(m["vocab"])},
    "unknown-top-level-key": lambda m: {**m, "vocab_size": len(m["vocab"])},
    "vocab-piece-repeated": lambda m: {**m, "vocab": m["vocab"] + [m["vocab"][-1]],
                                       "budget": len(m["vocab"]) + 1},
    # the catalog, which to_json writes only for a catalog other than the
    # default, as its sorted `name,min,max` lines
    "catalog-not-a-list": lambda m: {**m, "catalog": "myfunc,1,2"},
    "catalog-row-not-a-string": lambda m: {**m, "catalog": ["myfunc,1,2", ["zeta", 0, 0]]},
    "catalog-bad-arity": lambda m: {**m, "catalog": ["myfunc,2,1"]},
    "catalog-comment-line": lambda m: {**m, "catalog": ["# mine", "myfunc,1,2"]},
    "catalog-name-repeated": lambda m: {**m, "catalog": ["myfunc,1,2", "myfunc,1,2"]},
    "catalog-unsorted": lambda m: {**m, "catalog": ["zeta,0,0", "myfunc,1,2"]},
    "catalog-is-the-default": lambda m: {**m, "catalog": default_catalog().lines()},
    # the whole file, in place of the model's JSON
    "nested-past-the-recursion-limit": lambda m: NESTED,
    "integer-past-the-digit-limit": lambda m: '{"budget": ' + HUGE_INT + "}",
}


class TestBaselineIndexErrors:
    @staticmethod
    def run_both(index_path, capsys):
        for argv in (["baseline", "repair", "--index", index_path, "--buggy", "=SUM(A1"],
                     ["baseline", "complete", "--index", index_path, "--prefix", "=SU"]):
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"data error: {index_path}: "), err

    def test_missing_index_file(self, tmp_path, capsys):
        self.run_both(str(tmp_path / "absent.json"), capsys)

    @pytest.mark.parametrize("case", sorted(MALFORMED_INDEXES))
    def test_malformed_index(self, tmp_path, capsys, case):
        path = tmp_path / "index.json"
        path.write_text(MALFORMED_INDEXES[case], encoding="utf-8")
        self.run_both(str(path), capsys)

    def test_malformed_tokenizer_model_message(self, tmp_path, capsys):
        model = tmp_path / "tok.json"
        model.write_text("{}", encoding="utf-8")
        assert main(["tokenize", "=SUM(A1)", "--model", str(model)]) == 2
        assert capsys.readouterr().err.startswith(
            f"data error: {model}: malformed tokenizer model")

    @pytest.mark.parametrize("case", sorted(MALFORMED_MODELS))
    def test_malformed_tokenizer_model(self, tmp_path, capsys, formulas_file, case):
        trained = tmp_path / "tok.json"
        assert main(["train-tokenizer", "--input", formulas_file, "--budget", "300",
                     "-o", str(trained)]) == 0
        malformed = MALFORMED_MODELS[case](json.loads(trained.read_text("utf-8")))
        model = tmp_path / "bad.json"
        model.write_text(malformed if isinstance(malformed, str) else json.dumps(malformed),
                         encoding="utf-8")
        for argv in (["tokenize", "=SUM(A1)", "--model", str(model)],
                     ["gen-finetune-complete", "--input", formulas_file, "--model", str(model)]):
            capsys.readouterr()
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"data error: {model}: malformed tokenizer model"), (argv, err)


INPUT_ROWS = {
    "corpus": [{"workbook_id": "wb", "sheet_id": "s", "formula": "=SUM(A1:A2)"}],
    "repair": [{"buggy": "=SUM(A1", "ground_truth": "=SUM(A1)", "source_id": "r0"}],
    "complete": [{"formula": "=SUM(A1)", "prefix": "=SUM(", "source_id": "c0"}],
    "predictions": [{"source_id": "r0", "candidates": ["=SUM(A1)"]}],
    "pairs": [{"formula_a": "=A1", "formula_b": "=A2", "target_similarity": 1.0},
              {"formula_a": "=A1", "formula_b": "=B9", "target_similarity": 0.0}],
    "embeddings": [{"formula": f, "vector": v} for f, v in
                   (("=A1", [1.0, 0.0]), ("=A2", [0.9, 0.1]), ("=B9", [0.0, 1.0]))],
}

# reader -> (argv with {file} for the input under test, the well-formed rows
# it normally holds, and for strict JSONL readers the required string field
# that a bad value replaces; None for readers that skip or pass through rows)
INPUT_READERS = {
    "lex --input": (["lex", "--input", "{file}"], "corpus", None),
    "dedup --input": (["dedup", "--input", "{file}"], "corpus", None),
    "stats --input": (["stats", "--input", "{file}"], "corpus", None),
    "gen-pretrain --input": (["gen-pretrain", "--input", "{file}", "--workers", "2"],
                             "corpus", None),
    "train-tokenizer --input": (["train-tokenizer", "--input", "{file}", "--budget", "300",
                                 "-o", "{tmp}/tok.json"], "corpus", None),
    "baseline build --input": (["baseline", "build", "--input", "{file}",
                                "-o", "{tmp}/built.json"], "corpus", None),
    "eval-repair --benchmark": (["eval-repair", "--benchmark", "{file}",
                                 "--predictions", "{tmp}/predictions.jsonl"],
                                "repair", "ground_truth"),
    "eval-complete --benchmark": (["eval-complete", "--benchmark", "{file}",
                                   "--predictions", "{tmp}/predictions.jsonl"],
                                  "complete", "formula"),
    "baseline repair --benchmark": (["baseline", "repair", "--index", "{tmp}/index.json",
                                     "--benchmark", "{file}"], "repair", "buggy"),
    "baseline complete --benchmark": (["baseline", "complete", "--index", "{tmp}/index.json",
                                       "--benchmark", "{file}"], "complete", "prefix"),
    "eval-repair --predictions": (["eval-repair", "--benchmark", "{tmp}/repair.jsonl",
                                   "--predictions", "{file}"], "predictions", "source_id"),
    "eval-retrieval --pairs": (["eval-retrieval", "--pairs", "{file}",
                                "--embeddings", "{tmp}/embeddings.jsonl"], "pairs", "formula_a"),
    "eval-retrieval --embeddings": (["eval-retrieval", "--pairs", "{tmp}/pairs.jsonl",
                                     "--embeddings", "{file}"], "embeddings", "formula"),
}

# Readers that take JSONL records or plain lines, one formula each.
FORMULA_LINE_READERS = {"lex --input", "train-tokenizer --input", "baseline build --input"}
# Corpus readers, which skip a row that does not parse and count it.
ROW_SKIPPING_READERS = {"dedup --input", "stats --input", "gen-pretrain --input"}

# Every reader meets a missing file, non-UTF-8 bytes, and a second row that
# `jsonl.loads` rejects: one nested past the recursion limit, one holding an
# integer past the digit limit, and one holding a lone surrogate escape in
# a field the reader does not use. Strict readers also meet a row that is
# not an object, a required field that is not a string, and one that holds
# a lone surrogate escape; formula-line readers meet an object row with no
# `formula` and a truncated one that does not parse. Every reader meets a
# file that starts with a UTF-8 BOM, which none may skip as a malformed row.
SECOND_ROW_FAULTS = ("nested-row", "huge-int", "unused-field-surrogate")
INPUT_CASES = [(reader, fault) for reader, (_, _, field) in sorted(INPUT_READERS.items())
               for fault in ("missing-file", "not-utf8") + SECOND_ROW_FAULTS
               + (("non-object-row", "non-string-field", "lone-surrogate") if field else ())
               + (("object-without-formula", "truncated-object")
                  if reader in FORMULA_LINE_READERS else ())
               + ("bom",)]


# command -> (argv with {out} for the output under test, and where that
# output points: an existing directory, or a path under a regular file).
OUTPUT_CASES = {
    "dedup -o": (["dedup", "--input", "{tmp}/corpus.jsonl", "-o", "{out}"], "directory"),
    "check -o": (["check", "--input", "{tmp}/corpus.jsonl", "-o", "{out}"], "under-file"),
    "gen-finetune-repair --reserve-output": (
        ["gen-finetune-repair", "--input", "{tmp}/corpus.jsonl", "-o", "{tmp}/train.jsonl",
         "--reserve", "1", "--reserve-output", "{out}"], "directory"),
    "train-tokenizer -o": (["train-tokenizer", "--input", "{tmp}/corpus.jsonl",
                            "--budget", "300", "-o", "{out}"], "directory"),
}


class TestInputErrors:
    @pytest.fixture()
    def inputs(self, tmp_path):
        for name, rows in INPUT_ROWS.items():
            write_jsonl_atomic(tmp_path / f"{name}.jsonl", rows)
        assert main(["baseline", "build", "--input", str(tmp_path / "corpus.jsonl"),
                     "-o", str(tmp_path / "index.json")]) == 0
        return tmp_path

    @pytest.mark.parametrize("reader, fault", INPUT_CASES)
    def test_bad_input_is_data_error(self, inputs, capsys, reader, fault):
        argv, rows, field = INPUT_READERS[reader]
        path = inputs / "input-under-test.jsonl"
        if fault == "not-utf8":
            path.write_bytes(dumps(INPUT_ROWS[rows][0]).encode("utf-8") + b"\n\xff\xfe\n")
        elif fault == "non-object-row":
            path.write_text("[1, 2]\n", encoding="utf-8")
        elif fault == "non-string-field":
            write_jsonl_atomic(path, [{**INPUT_ROWS[rows][0], field: 7}])
        elif fault == "lone-surrogate":
            path.write_text(json.dumps({**INPUT_ROWS[rows][0], field: "=A1\ud800"}) + "\n",
                            encoding="utf-8")
        elif fault == "object-without-formula":
            row = INPUT_ROWS[rows][0]
            write_jsonl_atomic(path, [row, {k: v for k, v in row.items() if k != "formula"}])
        elif fault == "truncated-object":
            path.write_text(dumps(INPUT_ROWS[rows][0]) + '\n{"formula": "=SUM(A1:A2)"\n',
                            encoding="utf-8")
        elif fault == "bom":
            path.write_text("\ufeff" + dumps(INPUT_ROWS[rows][0]) + "\n", encoding="utf-8")
        elif fault in SECOND_ROW_FAULTS:
            row = INPUT_ROWS[rows][0]
            second = {"nested-row": '{"formula": ' + NESTED + "}",
                      "huge-int": '{"formula": ' + HUGE_INT + "}",
                      "unused-field-surrogate": json.dumps({**row, "note": "\ud800"})}[fault]
            path.write_text(dumps(row) + "\n" + second + "\n", encoding="utf-8")
        capsys.readouterr()
        code = main([a.format(file=path, tmp=inputs) for a in argv])
        err = capsys.readouterr().err
        if fault in SECOND_ROW_FAULTS and reader in ROW_SKIPPING_READERS:
            assert code == 0, err
            assert f"note: skipped 1 malformed line(s) in {path}\n" in err, err
            return
        assert code == 2, err
        assert err.startswith(f"data error: {path}"), err
        if fault in ("object-without-formula", "truncated-object") + SECOND_ROW_FAULTS:
            assert err.startswith(f"data error: {path}:2: "), err
        if fault == "bom":
            assert err == (f"data error: {path}:1: starts with a UTF-8 BOM; "
                           "save the file as UTF-8 without one\n"), err

    @pytest.mark.parametrize("command", sorted(OUTPUT_CASES))
    def test_unwritable_output_is_data_error(self, inputs, capsys, command):
        argv, where = OUTPUT_CASES[command]
        if where == "directory":
            out = inputs / "out-dir"
            out.mkdir()
        else:
            (inputs / "plain-file").write_text("", encoding="utf-8")
            out = inputs / "plain-file" / "x.jsonl"
        before = sorted(p.name for p in inputs.iterdir())
        capsys.readouterr()
        assert main([a.format(out=out, tmp=inputs) for a in argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {out}: cannot write output: "), err
        assert not list(inputs.glob("*.tmp"))  # the temp file is removed
        if where == "directory":
            assert not list(out.iterdir())
        # A side output fails after the main one is written; nothing else is left.
        after = set(p.name for p in inputs.iterdir()) - set(before)
        assert after <= {"train.jsonl", "train.jsonl.manifest.json"}, after

    def test_lone_surrogate_formula(self, tmp_path, capsys):
        # "\ud800" in JSON decodes to a string with no UTF-8 form.
        good = dumps(INPUT_ROWS["corpus"][0])
        path = tmp_path / "corpus.jsonl"
        path.write_text(good + "\n" + good.replace("A2", "\\ud800") + "\n", encoding="utf-8")
        out = tmp_path / "dedup.jsonl"
        assert main(["dedup", "--input", str(path), "-o", str(out)]) == 0
        assert read_jsonl_file(out) == INPUT_ROWS["corpus"]
        assert "skipped 1 malformed line" in capsys.readouterr().err
        assert main(["check", "--input", str(path)]) == 2
        assert capsys.readouterr().err.startswith(f"data error: {path}:2: ")

    @pytest.mark.parametrize("argv, what", [
        (["tokenize", "=A1", "--model", "{file}"], "tokenizer model"),
        (["baseline", "repair", "--index", "{file}", "--buggy", "=A1"], "index"),
        (["gen-pretrain", "--input", "{tmp}/corpus.jsonl", "--config", "{file}"], "config"),
    ])
    def test_non_utf8_document_says_so(self, inputs, capsys, argv, what):
        path = inputs / "document.json"
        path.write_bytes(b'{"a": "\xff"}')
        capsys.readouterr()
        assert main([a.format(file=path, tmp=inputs) for a in argv]) == 2
        assert capsys.readouterr().err == (
            f"data error: {path}: {what} is not UTF-8 text (invalid start byte)\n")

    def test_non_utf8_catalog_is_data_error(self, tmp_path, capsys):
        catalog = tmp_path / "functions.csv"
        catalog.write_bytes(b"SUM,1,*\n\xff,0,0\n")
        assert main(["lex", "=SUM(A1)", "--catalog", str(catalog)]) == 2
        assert capsys.readouterr().err.startswith(f"data error: {catalog}: ")

    def test_bad_catalog_line_names_file_and_line_once(self, tmp_path, capsys):
        catalog = tmp_path / "bad.csv"
        catalog.write_text("SUM,1\n", encoding="utf-8")
        assert main(["lex", "=A1", "--catalog", str(catalog)]) == 2
        assert capsys.readouterr().err == \
            f"data error: {catalog}:1: expected `name,min,max`, got 'SUM,1'\n"

    @pytest.mark.parametrize("argv", [
        ["lex", "=SUM(A1,A2,A3)"],
        ["check", "=SUM(A1,A2,A3)"],
        ["train-tokenizer", "--input", "{tmp}/corpus.jsonl", "--budget", "300",
         "-o", "{tmp}/tok.json"],
    ])
    def test_catalog_that_starts_with_a_bom_is_data_error(self, inputs, capsys, argv):
        catalog = inputs / "bom.csv"
        catalog.write_text("\ufeffsum,1,2\n", encoding="utf-8")
        argv = [a.format(tmp=inputs) for a in argv] + ["--catalog", str(catalog)]
        capsys.readouterr()
        assert main(argv) == 2
        assert capsys.readouterr().err == (f"data error: {catalog}:1: starts with a UTF-8 "
                                           "BOM; save the file as UTF-8 without one\n")
        assert not (inputs / "tok.json").exists()
        # Without the BOM the first line names SUM, which takes 1..2 arguments.
        catalog.write_text("sum,1,2\n", encoding="utf-8")
        assert main(argv) == 0
        assert ("BadArity" in capsys.readouterr().out) == (argv[0] == "check")

    @pytest.mark.parametrize("argv", [
        ["eval-repair", "--benchmark", "b.jsonl", "--predictions", "p.jsonl", "-k", "0"],
        ["baseline", "repair", "--index", "i.json", "--buggy", "=A1", "-k", "-1"],
        ["gen-finetune-repair", "--input", "f.txt", "--reserve", "-3"],
        ["gen-finetune-repair", "--input", "f.txt", "--reserve", "10"],
        ["gen-finetune-repair", "--input", "f.txt", "--reserve-output", "r.jsonl"],
        ["gen-pretrain", "--input", "c.jsonl", "--workers", "0"],
        ["gen-pretrain", "--input", "c.jsonl", "--workers", "-4"],
        ["synth", "--count", "-3"],
        ["gen-finetune-complete", "--input", "f.txt", "--model", "m.json",
         "--fractions", "1.5", "0"],
        ["gen-finetune-complete", "--input", "f.txt", "--model", "m.json",
         "--fractions", "0.5", "1"],
        ["baseline", "repair", "--index", "i.json"],  # neither --benchmark nor --buggy
        # a FORMULA word that is not UTF-8, as Python decodes `=A1\xff` from argv
        ["lex", "=A1\udcff"],
        ["sketch", "=A1\udcff"],
        ["check", "=A1\udcff"],
        ["tokenize", "=A1\udcff", "--model", "m.json"],
        # the model decides the catalog
        ["tokenize", "=A1", "--model", "m.json", "--catalog", "functions.csv"],
        # a path that is not UTF-8, as Python decodes `\xff.jsonl` from argv:
        # a manifest could not record it
        ["synth", "--count", "2", "-o", "\udcff.jsonl"],
        ["dedup", "--input", "\udcfe.jsonl", "-o", "out.jsonl"],
        ["lex", "--input", "\udcfe.jsonl"],
        ["train-tokenizer", "--input", "c.jsonl", "--catalog", "\udcff.csv", "-o", "m.json"],
        ["gen-pretrain", "--input", "c.jsonl", "--config", "\udcff.json", "-o", "out.jsonl"],
        ["gen-finetune-complete", "--input", "c.jsonl", "--model", "\udcff.json"],
        ["gen-finetune-repair", "--input", "c.jsonl", "--reserve", "1",
         "--reserve-output", "\udcff.jsonl", "-o", "train.jsonl"],
        ["baseline", "repair", "--index", "\udcff.json", "--buggy", "=A1"],
        ["eval-repair", "--benchmark", "\udcff.jsonl", "--predictions", "p.jsonl"],
        ["eval-complete", "--benchmark", "b.jsonl", "--predictions", "\udcff.jsonl"],
        ["eval-retrieval", "--pairs", "\udcff.jsonl", "--embeddings", "e.jsonl"],
        ["eval-retrieval", "--pairs", "p.jsonl", "--embeddings", "\udcff.jsonl"],
        # single queries, which a manifest records, that are not UTF-8
        ["baseline", "repair", "--index", "i.json", "--buggy", "=A1\udcff"],
        ["baseline", "complete", "--index", "i.json", "--prefix", "=A1\udcff"],
        # an inline FORMULA and --input exclude each other: the file would go
        # unread but into the manifest
        ["lex", "=A1", "--input", "c.jsonl", "-o", "out.jsonl"],
        ["tokenize", "--input", "c.jsonl", "=A1", "--model", "m.json"],
    ])
    def test_bad_flags_are_usage_errors(self, argv, capsys, tmp_path, monkeypatch):
        # every --input exists and is well-formed, so that nothing but the
        # flags can stop the command, and nothing may be written
        monkeypatch.chdir(tmp_path)
        inputs = {argv[i + 1] for i, flag in enumerate(argv) if flag == "--input"}
        for name in inputs:
            write_jsonl_atomic(name, INPUT_ROWS["corpus"])
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith("usage error: ")
        assert set(os.listdir(tmp_path)) == inputs

    def test_eval_k_default_sorted_and_deduplicated(self, inputs):
        ks = {}
        for extra in ([], ["-k", "5", "-k", "1", "-k", "5"]):
            out = inputs / "report.json"
            assert main(["eval-repair", "--benchmark", str(inputs / "repair.jsonl"),
                         "--predictions", str(inputs / "predictions.jsonl"),
                         "-o", str(out), *extra]) == 0
            manifest = json.loads((inputs / "report.json.manifest.json").read_text("utf-8"))
            ks[len(extra)] = manifest["config"]["k"]
        assert ks == {0: [1, 5], 6: [1, 5]}

    def test_non_string_candidate_is_data_error(self, inputs, capsys):
        path = inputs / "input-under-test.jsonl"
        write_jsonl_atomic(path, [INPUT_ROWS["predictions"][0],
                                  {"source_id": "r1", "candidates": ["=A1", 1]}])
        assert main(["eval-repair", "--benchmark", str(inputs / "repair.jsonl"),
                     "--predictions", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {path}:2: "), err
        assert "candidates" in err

    # Each probe replaces fields of the second row of the pairs or the
    # embeddings file. It must exit 2 naming that file and line, and the
    # field. A vector whose squares overflow would give a cosine of NaN.
    @pytest.mark.parametrize("under_test, patch", [
        ("pairs", {"target_similarity": float("nan")}),
        ("pairs", {"target_similarity": float("inf")}),
        ("pairs", {"target_similarity": "0.5"}),
        ("pairs", {"target_similarity": True}),
        ("pairs", {"target_similarity": 10**400}),
        ("embeddings", {"vector": [float("nan"), 0.1]}),
        ("embeddings", {"vector": [float("-inf"), 0.1]}),
        ("embeddings", {"vector": [True, 2]}),
        ("embeddings", {"vector": ["0.9", 0.1]}),
        ("embeddings", {"vector": [1e308, 1e308]}),
    ])
    def test_bad_retrieval_value_is_data_error(self, inputs, capsys, under_test, patch):
        rows = [dict(row) for row in INPUT_ROWS[under_test]]
        rows[1].update(patch)
        path = inputs / f"{under_test}.jsonl"
        write_jsonl_atomic(path, rows)
        out = inputs / "retrieval.json"
        capsys.readouterr()
        assert main(["eval-retrieval", "--pairs", str(inputs / "pairs.jsonl"),
                     "--embeddings", str(inputs / "embeddings.jsonl"), "-o", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {path}:2: "), err
        assert next(iter(patch)) in err, err
        assert not out.exists()

    # Each probe writes a second row, source_id "x1" unless the patch sets
    # it, into the benchmark or the predictions file of a command that reads
    # tasks (eval-repair, eval-complete, and baseline repair and complete
    # with --benchmark). It must exit 2 naming that file and line, and the
    # field; a repeated source_id names the first row's line too.
    @pytest.mark.parametrize("command, under_test, patch", [
        ("eval-complete", "complete", {"prefix_fraction": "0.5"}),
        ("eval-complete", "complete", {"prefix_fraction": True}),
        ("eval-complete", "complete", {"prefix_fraction": float("nan")}),
        ("eval-repair", "repair", {"source_id": "r0"}),
        ("eval-complete", "complete", {"source_id": "c0"}),
        ("eval-repair", "predictions", {"source_id": "r0"}),
        ("eval-complete", "predictions", {"source_id": "r0"}),
        ("baseline-repair", "repair", {"source_id": "r0"}),
        ("baseline-complete", "complete", {"source_id": "c0"}),
    ])
    def test_bad_eval_row_is_data_error(self, inputs, capsys, command, under_test, patch):
        task = command.rsplit("-", 1)[1]
        if command.startswith("eval-"):
            argv = [command, "--benchmark", str(inputs / f"{task}.jsonl"), "--predictions",
                    str(inputs / "predictions.jsonl"), "-o", str(inputs / "report.json")]
        else:
            argv = ["baseline", task, "--index", str(inputs / "index.json"), "--benchmark",
                    str(inputs / f"{task}.jsonl"), "-o", str(inputs / "candidates.jsonl")]
        assert main(argv) == 0  # the well-formed files score
        path = inputs / f"{under_test}.jsonl"
        first = INPUT_ROWS[under_test][0]
        write_jsonl_atomic(path, [first, {**first, "source_id": "x1", **patch}])
        capsys.readouterr()
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {path}:2: "), err
        assert next(iter(patch)) in err, err
        if "source_id" in patch:
            assert "line 1" in err, err


def subparsers(parser):
    """name -> subparser, for the parser's one subcommand action."""
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


def run_main(argv):
    """main(argv)'s exit code; argparse's own exits (-h, --version) raise
    SystemExit through main."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


class TestParserPerCommand:
    """main builds only the subparser of the command it runs."""

    @pytest.fixture()
    def added(self, monkeypatch):
        """Every (subcommand action's dest, name) that add_parser is called with."""
        added = []
        add_parser = argparse._SubParsersAction.add_parser

        def spy(action, name, **kwargs):
            added.append((action.dest, name))
            return add_parser(action, name, **kwargs)

        monkeypatch.setattr(argparse._SubParsersAction, "add_parser", spy)
        return added

    def test_each_subparser_alone_formats_the_full_parsers_help(self):
        full = subparsers(build_parser())
        assert list(full) == list(COMMANDS)
        for name in COMMANDS:
            alone = subparsers(build_parser(name))
            assert list(alone) == [name]
            assert alone[name].format_help() == full[name].format_help(), name
        full_baseline = subparsers(full["baseline"])
        alone_baseline = subparsers(subparsers(build_parser("baseline"))["baseline"])
        assert list(alone_baseline) == list(full_baseline) == list(BASELINE_COMMANDS)
        for name in BASELINE_COMMANDS:
            assert alone_baseline[name].format_help() == full_baseline[name].format_help(), name

    def test_a_command_builds_one_top_level_subparser(self, added, capsys, monkeypatch):
        assert main(["sketch", "=A1"]) == 0
        assert added == [("command", "sketch")]
        added.clear()
        assert main(["baseline", "complete", "--index", "absent.json", "--prefix", "="]) == 2
        assert added == [("command", "baseline")] + [
            ("baseline_cmd", name) for name in BASELINE_COMMANDS]
        added.clear()
        monkeypatch.setattr(sys, "argv", ["formulakit", "lex", "=A1"])
        assert main() == 0  # the words come from sys.argv
        assert added == [("command", "lex")]

    @pytest.mark.parametrize("argv", [[], ["--version"], ["nope"], ["-h"], ["--bogus", "lex"]])
    def test_no_command_word_builds_every_subparser(self, added, capsys, argv):
        code = run_main(argv)
        out, err = capsys.readouterr()
        assert [name for dest, name in added if dest == "command"] == list(COMMANDS)
        if argv in ([], ["nope"], ["--bogus", "lex"]):
            with pytest.raises(UsageError) as caught:
                build_parser().parse_args(argv)
            assert (code, out, err) == (1, "", f"usage error: {caught.value}\n")
        if argv == []:
            assert err == "usage error: the following arguments are required: command\n"
        elif argv == ["nope"]:
            assert err.startswith("usage error: argument command: invalid choice: 'nope'")
            assert all(name in err for name in COMMANDS), err
        elif argv == ["--version"]:
            assert (code, out, err) == (
                0, f"formulakit {__version__} (similarity kernel: {KERNEL_BACKEND})\n", "")
        elif argv == ["-h"]:
            assert code == 0 and err == "" and out == build_parser().format_help()
            assert all(name in out for name in COMMANDS)


def test_cli_benchmark_script_runs(run_python):
    proc = run_python(str(REPO / "benchmarks" / "bench_cli.py"), "--repeat", "2")
    assert proc.returncode == 0, proc.stderr
    rows = [line[:24].strip() for line in proc.stdout.splitlines()[2:]]
    commands = list(COMMANDS)
    at = commands.index("baseline")
    assert rows == commands[:at] + [f"baseline {name}" for name in BASELINE_COMMANDS] + \
        commands[at + 1:] + ["(full parser)"], proc.stdout
