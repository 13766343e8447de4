"""Tests for the benchmark itself.

Run from the repository root: python3 -m pytest perfbench -q

The workloads are shrunk through their size constants so a traced run takes
a second or two; the code paths are the ones the full-size runs take.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

run.import_package()

SEED = 7  # not the reference seed, whose digests assume full-size inputs


@pytest.fixture
def small(monkeypatch):
    for name, value in {"RECORDS": 120, "RESERVE": 10, "RETRIEVAL_SAMPLE": 8}.items():
        monkeypatch.setattr(workloads.Corpus, name, value)
    monkeypatch.setattr(workloads.Tokenizer, "FORMULAS", 60)
    monkeypatch.setattr(workloads.Tokenizer, "BUDGET", 200)
    monkeypatch.setattr(workloads.Envelope, "RECORDS", 5)
    monkeypatch.setattr(workloads.Envelope, "RESERVE", 1)
    for name, value in {"INDEX": 150, "QUERIES": 12, "BATCH": 2, "EVAL": 6,
                        "REFERENCE": 2, "setup_reps": 1}.items():
        monkeypatch.setattr(workloads.RepairSearch, name, value)
    monkeypatch.setattr(workloads.Workload, "setup_reps", 1)


def bench(workload: str, trace: int, capsys, seed: int = SEED) -> dict:
    args = argparse.Namespace(workload=workload, seed=seed, seconds=0.0, trace=trace)
    result = run.run(args)
    capsys.readouterr()
    return result


def counts(result: dict) -> dict:
    return {name: m["value"] for name, m in result["metrics"].items()
            if m["unit"] == "count"}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_input_digest_depends_on_seed_only(name):
    workload = workloads.WORKLOADS[name]()

    def digests(seed):
        return {k: inputs.digest(v) for k, v in workload.inputs(seed).items()}

    assert digests(1) == digests(1)
    assert digests(1) != digests(2)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_counts_repeat_exactly(name, small, capsys):
    first, second = bench(name, 1, capsys), bench(name, 1, capsys)
    assert first["correct"] and second["correct"]
    assert counts(first) == counts(second)
    assert set(first["metrics"]) == set(run.per_layer_units())


def test_traced_counts_reconcile_with_outputs(small, capsys):
    result = bench("repair-search", 1, capsys)
    metrics = {k: m["value"] for k, m in result["metrics"].items()}
    assert metrics["similarity.scored_per_query"] == workloads.RepairSearch.INDEX
    assert metrics["similarity.similarities_to_many.calls"] == workloads.RepairSearch.BATCH

    result = bench("corpus", 1, capsys)
    metrics = {k: m["value"] for k, m in result["metrics"].items()}
    mix = sum(metrics[f"objectives.mix.{n}"] for n in workloads.OBJECTIVES)
    assert mix == metrics["objectives.example_for_record.calls"] > 0
    assert metrics["curation.dedup_key.calls_per_item"] > 0


def test_corrupted_artifact_counts_as_failed(small, capsys, monkeypatch):
    iteration = workloads.Corpus.iteration

    def corrupting(self, ctx):
        items = iteration(self, ctx)
        path = Path(ctx.path("pretrain.jsonl"))
        rows = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
        rows[0]["target"] += "+1"
        path.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
        return items

    monkeypatch.setattr(workloads.Corpus, "iteration", corrupting)
    result = bench("corpus", 0, capsys)
    assert not result["correct"]
    assert result["failed"] >= 1
    assert result["attempted"] > result["failed"]


def test_reference_seed_requires_reference_digests(small, capsys):
    # Shrunk inputs cannot match the digests recorded for full-size ones.
    result = bench("envelope", 0, capsys, seed=run.REFERENCE_SEED)
    assert not result["correct"]


def test_end_to_end_result_has_the_contract_shape(small, capsys):
    result = bench("tokenizer", 0, capsys)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == set(run.END_TO_END_UNITS)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_benchmark_json_matches_the_code():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()


def test_percentile_tail_leaves_ten_samples_beyond():
    assert workloads.percentile_tail([float(i) for i in range(1, 101)]) == (90.0, 90.0)
    assert workloads.percentile_tail([float(i) for i in range(1, 12)]) == (9.0, 1.0)
    assert workloads.percentile_tail([3.0, 1.0, 2.0]) == (50.0, 2.0)


def _stamp(**overrides) -> dict:
    stamp = {"workload": "corpus", "trace": 0, "kernel_backend": "python",
             "inputs": {"records": "abc"}}
    stamp.update(overrides)
    return stamp


def test_compare_refuses_different_backend_or_inputs(tmp_path):
    assert compare.mismatches(_stamp(), _stamp()) == []
    assert compare.mismatches(_stamp(), _stamp(kernel_backend="c"))
    assert compare.mismatches(_stamp(), _stamp(inputs={"records": "abd"}))

    result = {"correct": True, "attempted": 1, "failed": 0,
              "metrics": {"items_per_s": {"value": 1.0, "unit": "1/s"}}}
    paths = []
    for i, stamp in enumerate((_stamp(), _stamp(kernel_backend="c"))):
        path = tmp_path / f"run{i}.txt"
        path.write_text(f"stamp {json.dumps(stamp)}\n{json.dumps(result)}\n", encoding="utf-8")
        paths.append(str(path))
    assert compare.main([paths[0], paths[0]]) == 0
    assert compare.main(paths) == 2
