"""A seeded mutation sweep over the artifacts a small pipeline writes.

Each artifact is mutated a fixed number of times: truncated, one byte
flipped, one value swapped for one of another type, for a 5,000-digit
integer or for a lone `\\ud800` escape. A command that reads the mutated
file must exit 0 (it reads or skips the damage) or 2 with a message that
starts `data error: <file>`, never 3. A config is the one input whose bad
field values are usage errors by contract, so it may also exit 1 with a
message about the config.
"""

import json
import random

import pytest

from formulakit.catalog import default_catalog
from formulakit.cli import main
from formulakit.jsonl import write_jsonl_atomic
from formulakit.synth import synth_records

MUTATIONS_PER_ARTIFACT = 25
KINDS = ("truncate", "flip-byte", "swap-type", "huge-int", "lone-surrogate")
HUGE = "__huge__"  # stands for a 5,000-digit integer, which json.dumps cannot write
SWAPS = (None, True, -3, 1.5, "x", [], {}, [1, "a"], {"k": None}, HUGE, "\ud800")

# artifact -> (its file name, whether it is JSONL, and the argv that reads
# it, with {mut} for the mutated copy and {d} for the pipeline directory)
ARTIFACTS = {
    "tokenizer": ("tokenizer.json", False,
                  ["tokenize", "=SUM(A1:B2)+Sheet1!C3", "--model", "{mut}"]),
    # a model trained with --catalog, whose file lists that catalog
    "tokenizer with a catalog": ("tokenizer-catalog.json", False,
                                 ["tokenize", "=MYFUNC(A1)+SUM(A1:B2)", "--model", "{mut}"]),
    "index": ("index.json", False,
              ["baseline", "repair", "--index", "{mut}", "--buggy", "=SUM(A1:A3"]),
    "config": ("config.json", False,
               ["gen-pretrain", "--input", "{d}/dedup.jsonl", "--config", "{mut}",
                "-o", "{d}/out.jsonl"]),
    "repair-benchmark": ("bench.jsonl", True,
                         ["eval-repair", "--benchmark", "{mut}",
                          "--predictions", "{d}/preds.jsonl", "-o", "{d}/out.json"]),
    "predictions": ("preds.jsonl", True,
                    ["eval-repair", "--benchmark", "{d}/bench.jsonl",
                     "--predictions", "{mut}", "-o", "{d}/out.json"]),
    # a formula-line reader, which rejects a bad row, and a corpus reader,
    # which skips it
    "dedup-corpus via gen-finetune-repair": (
        "dedup.jsonl", True,
        ["gen-finetune-repair", "--input", "{mut}", "--seed", "5", "-o", "{d}/out.jsonl"]),
    "dedup-corpus via dedup": ("dedup.jsonl", True,
                               ["dedup", "--input", "{mut}", "-o", "{d}/out.jsonl"]),
}


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    d = tmp_path_factory.mktemp("pipeline")
    write_jsonl_atomic(d / "corpus.jsonl", (r.to_json() for r in synth_records(60, seed=8)))
    # gen-pretrain's objective table, every field given
    (d / "config.json").write_text(json.dumps({
        "weights": {"laMSP": 0.5, "TM": 0.2, "UN": 0.2, "RN": 0.05, "ID": 0.05},
        "tm_fractions": [0.3, 0.5], "lamsp_rates": {"high": 0.35, "low": 0.15},
        "lamsp_mean_spans": {"long": 6, "short": 2}, "rn_rate": 0.1}, indent=2),
        encoding="utf-8")
    # the default catalog and one more function: the model lists ~140 lines
    (d / "catalog.csv").write_text("\n".join(default_catalog().lines() + ["myfunc,1,2"]),
                                   encoding="utf-8")
    for argv in (["dedup", "--input", "{d}/corpus.jsonl", "-o", "{d}/dedup.jsonl"],
                 ["train-tokenizer", "--input", "{d}/dedup.jsonl", "--budget", "300",
                  "-o", "{d}/tokenizer.json"],
                 ["train-tokenizer", "--input", "{d}/dedup.jsonl", "--budget", "300",
                  "--catalog", "{d}/catalog.csv", "-o", "{d}/tokenizer-catalog.json"],
                 ["baseline", "build", "--input", "{d}/dedup.jsonl", "-o", "{d}/index.json"],
                 ["gen-finetune-repair", "--input", "{d}/dedup.jsonl", "--seed", "4",
                  "--reserve", "8", "--reserve-output", "{d}/bench.jsonl",
                  "-o", "{d}/train.jsonl"],
                 ["baseline", "repair", "--index", "{d}/index.json",
                  "--benchmark", "{d}/bench.jsonl", "-o", "{d}/preds.jsonl"]):
        assert main([a.format(d=d) for a in argv]) == 0, argv
    return d


def paths(value, at=()):
    """Every place in a JSON value, as a tuple of keys and indices."""
    yield at
    if isinstance(value, dict):
        for key, child in value.items():
            yield from paths(child, at + (key,))
    elif isinstance(value, list):
        for i, child in enumerate(value):
            yield from paths(child, at + (i,))


def replaced(value, at, new):
    if not at:
        return new
    value[at[0]] = replaced(value[at[0]], at[1:], new)
    return value


def swap(rng, text, new):
    """text's JSON with one place, chosen by rng, holding `new`."""
    value = json.loads(text)
    at = rng.choice(list(paths(value)))
    out = json.dumps(replaced(value, at, new))
    return out.replace(json.dumps(HUGE), "1" * 5000)


def mutate(rng, data: bytes, kind: str, jsonl: bool) -> bytes:
    if kind == "truncate":
        return data[:rng.randrange(len(data))]
    if kind == "flip-byte":
        i = rng.randrange(len(data))
        return data[:i] + bytes([data[i] ^ (1 << rng.randrange(8))]) + data[i + 1:]
    new = {"swap-type": None, "huge-int": HUGE, "lone-surrogate": "\ud800"}[kind]
    if kind == "swap-type":
        new = rng.choice([v for v in SWAPS if v not in (HUGE, "\ud800")])
    text = data.decode("utf-8")
    if not jsonl:
        return swap(rng, text, new).encode("utf-8")
    lines = text.splitlines()
    i = rng.randrange(len(lines))
    lines[i] = swap(rng, lines[i], new)
    return ("\n".join(lines) + "\n").encode("utf-8")


@pytest.mark.parametrize("artifact", sorted(ARTIFACTS))
def test_every_mutation_exits_0_or_2(pipeline, capsys, artifact):
    name, jsonl, argv = ARTIFACTS[artifact]
    data = (pipeline / name).read_bytes()
    mut = pipeline / f"mutated-{name}"
    rng = random.Random(sorted(ARTIFACTS).index(artifact))
    # The unmutated file must be read cleanly, or every mutation could pass
    # by failing as the original does.
    mut.write_bytes(data)
    capsys.readouterr()
    assert main([a.format(mut=mut, d=pipeline) for a in argv]) == 0, capsys.readouterr().err
    wrong = []
    for n in range(MUTATIONS_PER_ARTIFACT):
        kind = KINDS[n % len(KINDS)]
        mut.write_bytes(mutate(rng, data, kind, jsonl))
        capsys.readouterr()
        code = main([a.format(mut=mut, d=pipeline) for a in argv])
        err = capsys.readouterr().err
        allowed = code == 0 or (code == 2 and err.startswith(f"data error: {mut}")) or (
            artifact == "config" and code == 1 and err.startswith("usage error: config"))
        if not allowed:
            wrong.append((n, kind, code, err[:200]))
    assert wrong == []
