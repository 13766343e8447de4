import json
import hashlib
from dataclasses import fields
from pathlib import Path

import pytest

from formulakit.cli import load_config, main
from formulakit.curation import CorpusStats
from formulakit.jsonl import dumps, write_jsonl_atomic
from formulakit.synth import synth_corpus, synth_records


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

    def test_training_deterministic_bytes(self, tmp_path, formulas_file):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        main(["train-tokenizer", "--input", formulas_file, "--budget", "256",
              "--output", str(a)])
        main(["train-tokenizer", "--input", formulas_file, "--budget", "256",
              "--output", str(b)])
        assert sha(a) == sha(b)


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

    def test_config_file_with_flag_override(self, tmp_path, corpus_file):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"seed": 1}), encoding="utf-8")
        a, b, c = (tmp_path / n for n in ("a.jsonl", "b.jsonl", "c.jsonl"))
        main(["gen-pretrain", "--input", corpus_file, "--config", str(config),
              "--output", str(a)])
        main(["gen-pretrain", "--input", corpus_file, "--seed", "1", "--output", str(b)])
        main(["gen-pretrain", "--input", corpus_file, "--config", str(config),
              "--seed", "2", "--output", str(c)])
        assert sha(a) == sha(b)   # file seed used
        assert sha(c) != sha(a)   # flag overrides file

    def test_invalid_config_field_message(self, tmp_path, corpus_file, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"objectives": {"rn_rate": 3.0}}), encoding="utf-8")
        assert main(["gen-pretrain", "--input", corpus_file,
                     "--config", str(config)]) == 1
        assert "rn_rate" in capsys.readouterr().err

    @pytest.mark.parametrize("field", ["seed", "tokenizer_budget"])
    def test_non_integer_config_field_is_config_error(self, tmp_path, corpus_file,
                                                      capsys, field):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({field: "x"}), encoding="utf-8")
        assert main(["train-tokenizer", "--input", corpus_file, "--config", str(config),
                     "-o", str(tmp_path / "tok.json")]) == 1
        assert capsys.readouterr().err.startswith(f"usage error: config field {field}: ")

    def test_non_utf8_config_is_data_error(self, tmp_path, corpus_file, capsys):
        config = tmp_path / "config.json"
        config.write_bytes(b'{"seed": "\xff"}')
        assert main(["gen-pretrain", "--input", corpus_file, "--config", str(config)]) == 2
        assert capsys.readouterr().err.startswith(f"data error: {config}: ")

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
        config.write_text(json.dumps({"objectives": {"weights": weights}}), encoding="utf-8")
        out = tmp_path / "out.jsonl"
        assert main(["gen-pretrain", "--input", str(corpus), "--config", str(config),
                     "--workers", workers, "-o", str(out)]) == 0
        assert len(read_jsonl_file(out)) == 1
        assert ("generated 1 pretrain examples (2 skipped: 1 malformed, "
                "1 fit no objective)") in capsys.readouterr().err

    def test_unknown_config_keys_ignored(self, tmp_path):
        # dedup mode and completion fractions are flags, not config fields
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"seed": 3, "dedup_mode": "bogus",
                                      "completion_fractions": [5]}), encoding="utf-8")
        assert load_config(str(config), None).seed == 3


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

# Every reader meets a missing file and non-UTF-8 bytes; strict readers also
# meet a row that is not an object, a required field that is not a string,
# and one that holds a lone surrogate escape; formula-line readers meet an
# object row with no `formula`.
INPUT_CASES = [(reader, fault) for reader, (_, _, field) in sorted(INPUT_READERS.items())
               for fault in ("missing-file", "not-utf8")
               + (("non-object-row", "non-string-field", "lone-surrogate") if field else ())
               + (("object-without-formula",) if reader in FORMULA_LINE_READERS else ())]


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
        capsys.readouterr()
        assert main([a.format(file=path, tmp=inputs) for a in argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {path}"), err
        if fault == "object-without-formula":
            assert err.startswith(f"data error: {path}:2: "), err

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
        ["eval-repair", "--benchmark", "b.jsonl", "--predictions", "p.jsonl", "-k", "0"],
        ["baseline", "repair", "--index", "i.json", "--buggy", "=A1", "-k", "-1"],
        ["gen-finetune-repair", "--input", "f.txt", "--reserve", "-3"],
        ["gen-pretrain", "--input", "c.jsonl", "--workers", "0"],
        ["gen-pretrain", "--input", "c.jsonl", "--workers", "-4"],
        ["synth", "--count", "-3"],
        ["gen-finetune-complete", "--input", "f.txt", "--model", "m.json",
         "--fractions", "1.5", "0"],
        ["gen-finetune-complete", "--input", "f.txt", "--model", "m.json",
         "--fractions", "0.5", "1"],
        ["baseline", "repair", "--index", "i.json"],  # neither --benchmark nor --buggy
    ])
    def test_bad_flags_are_usage_errors(self, argv, capsys):
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith("usage error: ")

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
