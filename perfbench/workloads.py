"""The four benchmark workloads and the checks on their outputs.

Each workload drives the package the way a user does: CLI stages through
`formulakit.cli.main`, in process, plus the public library calls that have
no CLI stage (`build_retrieval_pairs`, `repair_candidates`,
`completion_candidates`). A workload has

  inputs(seed)        its input families, from perfbench.inputs
  prepare(ctx, data)  writes them into the work directory (not timed)
  build(ctx)          what must happen after import and before the first
                      item; `set_up` runs both, timed as setup_s
  iteration(ctx)      one timed unit of work; returns the items it completed
  verify(ctx, full)   checks the outputs of the last iteration; returns
                      {artifact: sha256} so iterations can be compared
  finish(ctx)         work after the timed loop; returns (figures, digests)

A traced run adds one iteration between begin_traced and end_traced, whose
extra artifacts traced_digests returns.

Every failed check, non-zero CLI exit or exception is counted through
`Outcome`, which feeds the result's `failed` field.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import re
import resource
import signal
import statistics
import sys
from pathlib import Path
from time import perf_counter, thread_time

import inputs

PACKAGE = "formulakit"
OBJECTIVES = ("laMSP", "TM", "UN", "RN", "ID")
# The stages' own --seed (objective draws, noise operators, reserve split)
# stays fixed, as in the README pipeline; only the inputs follow the
# workload seed, so one seed's draws cannot make its run more work.
STAGE_SEED = 7


class Outcome:
    """Attempted and failed operations, with the first few failure notes."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def check(self, ok: bool, note: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 20:
                self.notes.append(note)


class Context:
    def __init__(self, work: Path) -> None:
        self.work = work
        self.outcome = Outcome()
        self.stage_s: dict[str, float] = {}
        self.stage_stderr: dict[str, str] = {}
        self.child_cpu_s = 0.0
        self.fk = None
        self.cli = None
        self.probe: "SpeedProbe | None" = None

    def path(self, name: str) -> str:
        return str(self.work / name)

    def probe_s(self) -> float:
        """Seconds the speed probe has taken from this run so far."""
        return self.probe.handler_s if self.probe else 0.0

    def stage(self, name: str, argv: list[str]) -> str:
        """Run one CLI stage in process; returns its stderr."""
        err = io.StringIO()
        before = _children_cpu()
        start = perf_counter()
        try:
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                code = self.cli.main(argv)
        except Exception as exc:  # noqa: BLE001 - counted as a failed stage
            code = f"{type(exc).__name__}: {exc}"
        self.stage_s[name] = self.stage_s.get(name, 0.0) + perf_counter() - start
        if name == "gen-pretrain":
            self.child_cpu_s += _children_cpu() - before
        text = err.getvalue()
        self.stage_stderr[name] = text
        self.outcome.check(code == 0, f"{name} exited {code}: {text.strip()[-300:]}")
        return text

    def call(self, note: str, fn, *args):
        """Run one library call, counting an exception as a failure."""
        try:
            result = fn(*args)
        except Exception as exc:  # noqa: BLE001 - counted as a failed operation
            self.outcome.check(False, f"{note}: {type(exc).__name__}: {exc}")
            return None
        self.outcome.check(True, note)
        return result


def _children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def fresh_import(ctx: Context) -> None:
    """Import the package from scratch and load the default catalog."""
    for name in [n for n in sys.modules if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    ctx.fk = importlib.import_module(PACKAGE)
    ctx.cli = importlib.import_module(PACKAGE + ".cli")
    ctx.fk.default_catalog()


def set_up(workload, ctx: Context) -> None:
    """Everything from a fresh import to being ready for the first item."""
    fresh_import(ctx)
    workload.build(ctx)


def sha256_file(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def read_rows(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def write_rows(path: str, rows) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row, ensure_ascii=False) + "\n")


# On a shared machine the same code runs up to half again slower whenever a
# neighbour is busy, switching within a fraction of a second. While a run
# times its steps, SIGALRM fires every PROBE_INTERVAL_S and the handler
# times probe_loop, so the samples share the regimes the work went through.
# A step's time, less the handler's, is divided by the mean sample over
# PROBE_REFERENCE_S: figures are those of a machine on which the loop takes
# PROBE_REFERENCE_S. The loop runs no package code, so a change to the
# package cannot move it.
PROBE_INTERVAL_S = 0.02
PROBE_REFERENCE_S = 0.0005
PROBE_TEXT = '=SUMIF(Data!A1:A10,"Not available",B1:B10)+IF(C3>4,"x",D5)'
PROBE_PATTERN = re.compile(r'''(?P<string>"[^"]*")|(?P<cell>\$?[A-Z]{1,3}\$?\d+)
    |(?P<name>[A-Za-z_][A-Za-z0-9_.]*)|(?P<punct>[(),:!])|(?P<op>[=<>+\-*/^&])
    |(?P<number>\d+)''', re.VERBOSE)


def probe_loop() -> int:
    """A fixed mix of the package's two kinds of hot loop, written afresh:
    regex tokenising (lexer-like) and an edit-distance table (kernel-like).
    Either alone tracks some workloads' slowdowns worse than the mix."""
    tokens = 0
    text, n = PROBE_TEXT, len(PROBE_TEXT)
    for _ in range(8):
        pos = 0
        while pos < n:
            m = PROBE_PATTERN.match(text, pos)
            if m is None:
                pos += 1
                continue
            tokens += len(m.group())
            pos = m.end()
    a, b = list(range(12)), list(range(3, 15))
    for _ in range(12):
        prev = list(range(len(b) + 1))
        for x in a:
            cur = [prev[0] + 1]
            for j, y in enumerate(b):
                cur.append(min(prev[j] + (x != y), prev[j + 1] + 1, cur[j] + 1))
            prev = cur
        tokens += prev[-1]
    return tokens


class SpeedProbe:
    """Samples the machine's speed while steps run; see the comment above."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.handler_s = 0.0

    def _sample(self, signum=None, frame=None) -> None:
        # The loop's CPU time tracks the machine's speed but, unlike its
        # wall time, not the wait for a core while gen-pretrain's workers
        # hold both; the handler's wall time is what the steps lose to it.
        start, cpu_start = perf_counter(), thread_time()
        probe_loop()
        self.samples.append(thread_time() - cpu_start)
        self.handler_s += perf_counter() - start

    def __enter__(self) -> "SpeedProbe":
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def time(self, fn) -> tuple[float, float, object]:
        """(scaled seconds, seconds, result) of fn(), both times excluding
        the probe's own."""
        self.samples = self.samples[-1:]
        probe_before = self.handler_s
        start = perf_counter()
        result = fn()
        took = perf_counter() - start - (self.handler_s - probe_before)
        slowdown = statistics.mean(self.samples) / PROBE_REFERENCE_S
        return took / slowdown, took, result


def percentile_tail(samples: list[float]) -> tuple[float, float]:
    """(p, value): the highest whole percentile with at least ten samples
    beyond it, by nearest rank. With fewer than 11 samples, the median."""
    ordered = sorted(samples)
    n = len(ordered)
    if n < 11:
        return 50.0, statistics.median(ordered)
    p = int(100 * (n - 10) / n)
    rank = max(1, -(-p * n // 100))  # ceil(p * n / 100)
    return float(p), ordered[rank - 1]


# --- shared checks -----------------------------------------------------------


def check_repair_pairs(ctx: Context, rows: list[dict], corpus: list[str], note: str) -> None:
    """Each pair differs from its truth after normalize, and its truth is the
    corpus formula its source_id names."""
    normalize = ctx.fk.normalize
    bad_diff = sum(normalize(r["buggy"]) == normalize(r["ground_truth"]) for r in rows)
    ctx.outcome.check(bad_diff == 0, f"{note}: {bad_diff} pairs equal to their truth")
    bad_src = sum(corpus[int(r["source_id"].split("-")[1])] != r["ground_truth"] for r in rows)
    ctx.outcome.check(bad_src == 0, f"{note}: {bad_src} pairs whose truth is not their source")


def check_dedup(ctx: Context, n_input: int, per_workbook: str, global_: str = None) -> None:
    kept_pw = len(read_rows(per_workbook))
    stats = json.loads(Path(per_workbook + ".stats.json").read_text(encoding="utf-8"))
    ctx.outcome.check(stats["retained"] == kept_pw == stats["retained_per_workbook"],
                      f"dedup stats {stats['retained']} disagree with {kept_pw} rows")
    ctx.outcome.check(kept_pw <= n_input, f"dedup kept {kept_pw} of {n_input}")
    if global_ is not None:
        kept_g = len(read_rows(global_))
        ctx.outcome.check(kept_g <= kept_pw <= n_input,
                          f"retained global {kept_g} > per-workbook {kept_pw} or input {n_input}")


def _count_pretrain_stderr(text: str) -> tuple[int, int]:
    # "generated N pretrain examples (S skipped)"
    words = text.split("generated ", 1)[1].split()
    return int(words[0]), int(words[3].lstrip("("))


# --- workloads ------------------------------------------------------------------


class Workload:
    setup_reps = 30
    # Every iteration does the same work. When false, the traced iteration
    # replays the first one and trace_overhead is taken against that.
    repeats_work = True

    def build(self, ctx: Context) -> None:
        pass

    def finish(self, ctx: Context) -> tuple[dict, dict]:
        return {}, {}

    def begin_traced(self, ctx: Context) -> None:
        pass

    def end_traced(self, ctx: Context) -> None:
        pass

    def traced_digests(self, ctx: Context) -> dict[str, str]:
        return {}


class Corpus(Workload):
    """Typical short formulas through dedup (both scopes), train-tokenizer at
    desk budget, gen-pretrain with two workers, both fine-tune generators
    and retrieval pairs on a sample."""

    name = "corpus"
    RECORDS = 2000
    BUDGET = 2048
    RESERVE = 100
    RETRIEVAL_SAMPLE = 50

    def inputs(self, seed: int) -> dict:
        return {"records": inputs.typical_records(seed, self.RECORDS)}

    def prepare(self, ctx: Context, data: dict) -> None:
        write_rows(ctx.path("corpus.jsonl"), data["records"])
        self.n_input = len(data["records"])

    def iteration(self, ctx: Context) -> int:
        seed = str(STAGE_SEED)
        corpus, dedup = ctx.path("corpus.jsonl"), ctx.path("dedup.jsonl")
        ctx.stage("dedup", ["dedup", "--input", corpus, "--mode", "per-workbook", "-o", dedup])
        ctx.stage("dedup", ["dedup", "--input", corpus, "--mode", "global",
                            "-o", ctx.path("dedup-global.jsonl")])
        ctx.stage("train-tokenizer", ["train-tokenizer", "--input", dedup, "--budget",
                                      str(self.BUDGET), "-o", ctx.path("tokenizer.json")])
        ctx.stage("gen-pretrain", ["gen-pretrain", "--input", dedup, "--seed", seed,
                                   "--workers", "2", "-o", ctx.path("pretrain.jsonl")])
        ctx.stage("gen-finetune-repair", [
            "gen-finetune-repair", "--input", dedup, "--seed", seed,
            "--reserve", str(self.RESERVE), "--reserve-output", ctx.path("repair-bench.jsonl"),
            "-o", ctx.path("repair-train.jsonl")])
        ctx.stage("gen-finetune-complete", [
            "gen-finetune-complete", "--input", dedup, "--model", ctx.path("tokenizer.json"),
            "--seed", seed, "-o", ctx.path("complete-train.jsonl")])
        sample = [r["formula"] for r in read_rows(dedup)[:self.RETRIEVAL_SAMPLE]]
        pairs = ctx.call("build_retrieval_pairs", ctx.fk.build_retrieval_pairs, sample, STAGE_SEED)
        self.retrieval = [] if pairs is None else [p.to_json() for p in pairs]
        return self.n_input

    def verify(self, ctx: Context, full: bool) -> dict[str, str]:
        names = ["dedup.jsonl", "dedup.jsonl.stats.json", "dedup-global.jsonl",
                 "tokenizer.json", "pretrain.jsonl", "repair-train.jsonl",
                 "repair-bench.jsonl", "complete-train.jsonl"]
        digests = {n: sha256_file(ctx.path(n)) for n in names}
        digests["retrieval-pairs"] = inputs.digest(self.retrieval)
        if not full:
            return digests
        out = ctx.outcome
        check_dedup(ctx, self.n_input, ctx.path("dedup.jsonl"), ctx.path("dedup-global.jsonl"))
        formulas = [r["formula"] for r in read_rows(ctx.path("dedup.jsonl"))]

        rows = read_rows(ctx.path("pretrain.jsonl"))
        emitted, skipped = _count_pretrain_stderr(ctx.stage_stderr["gen-pretrain"])
        mix = {name: sum(r["objective"] == name for r in rows) for name in OBJECTIVES}
        out.check(sum(mix.values()) == len(rows) == emitted,
                  f"objectives.mix sums to {sum(mix.values())}, rows {len(rows)}, "
                  f"reported {emitted}")
        out.check(emitted + skipped == len(formulas),
                  f"pretrain {emitted} + {skipped} skipped != {len(formulas)} inputs")
        sources = iter(formulas)
        out.check(all(any(r["target"] == f for f in sources) for r in rows),
                  "a pretrain target is not its source formula")
        self.mix = mix

        train = read_rows(ctx.path("repair-train.jsonl"))
        bench = read_rows(ctx.path("repair-bench.jsonl"))
        out.check(len(bench) == self.RESERVE, f"reserved {len(bench)} of {self.RESERVE}")
        check_repair_pairs(ctx, train + bench, formulas, "gen-finetune-repair")

        complete = read_rows(ctx.path("complete-train.jsonl"))
        bad = sum(formulas[int(r["source_id"].split("-")[1])] != r["formula"]
                  or not 0 < len(r["prefix"]) for r in complete)
        out.check(bad == 0 and bool(complete), f"{bad} completion rows not cut from their source")

        model = json.loads(Path(ctx.path("tokenizer.json")).read_text(encoding="utf-8"))
        out.check(0 < len(model["merges"]) and len(model["vocab"]) <= self.BUDGET,
                  f"tokenizer: {len(model['merges'])} merges, {len(model['vocab'])} vocab")
        self.merges = len(model["merges"])

        want = self.RETRIEVAL_SAMPLE * (self.RETRIEVAL_SAMPLE - 1) // 2
        out.check(len(self.retrieval) == want
                  and all(0.0 <= p["target_similarity"] <= 1.0 for p in self.retrieval),
                  f"retrieval pairs: {len(self.retrieval)}, expected {want} in [0, 1]")
        return digests


class Tokenizer(Workload):
    """Identifier-rich formulas through train-tokenizer at a budget that
    forces hundreds of merges, then encode (and decode) of the corpus."""

    name = "tokenizer"
    FORMULAS = 800
    BUDGET = 600

    def inputs(self, seed: int) -> dict:
        return {"formulas": inputs.identifier_formulas(seed, self.FORMULAS)}

    def prepare(self, ctx: Context, data: dict) -> None:
        self.formulas = data["formulas"]
        write_rows(ctx.path("formulas.jsonl"), ({"formula": f} for f in self.formulas))

    def iteration(self, ctx: Context) -> int:
        source = ctx.path("formulas.jsonl")
        ctx.stage("train-tokenizer", ["train-tokenizer", "--input", source, "--budget",
                                      str(self.BUDGET), "-o", ctx.path("tokenizer.json")])
        ctx.stage("tokenize", ["tokenize", "--input", source, "--model",
                               ctx.path("tokenizer.json"), "-o", ctx.path("encoded.jsonl")])
        return len(self.formulas)

    def verify(self, ctx: Context, full: bool) -> dict[str, str]:
        digests = {n: sha256_file(ctx.path(n)) for n in ("tokenizer.json", "encoded.jsonl")}
        if not full:
            return digests
        model = json.loads(Path(ctx.path("tokenizer.json")).read_text(encoding="utf-8"))
        self.merges = len(model["merges"])
        ctx.outcome.check(len(model["vocab"]) == self.BUDGET,
                          f"vocab {len(model['vocab'])} did not reach the budget {self.BUDGET}")
        rows = read_rows(ctx.path("encoded.jsonl"))
        bad = sum(r["formula"] != f or r["decoded"] != f.lower()
                  for r, f in zip(rows, self.formulas))
        ctx.outcome.check(len(rows) == len(self.formulas) and bad == 0,
                          f"encode: {len(rows)} rows, {bad} do not decode to their formula")
        return digests


class Envelope(Workload):
    """Formulas at Excel's limits through check, dedup and
    gen-finetune-repair."""

    name = "envelope"
    RECORDS = 5
    RESERVE = 2

    def inputs(self, seed: int) -> dict:
        return {"records": inputs.envelope_records(seed, self.RECORDS)}

    def prepare(self, ctx: Context, data: dict) -> None:
        self.records = data["records"]
        write_rows(ctx.path("envelope.jsonl"), self.records)

    def iteration(self, ctx: Context) -> int:
        source, dedup = ctx.path("envelope.jsonl"), ctx.path("dedup.jsonl")
        ctx.stage("check", ["check", "--input", source, "-o", ctx.path("check.jsonl")])
        ctx.stage("dedup", ["dedup", "--input", source, "--mode", "per-workbook", "-o", dedup])
        ctx.stage("gen-finetune-repair", [
            "gen-finetune-repair", "--input", dedup, "--seed", str(STAGE_SEED),
            "--reserve", str(self.RESERVE), "--reserve-output", ctx.path("repair-bench.jsonl"),
            "-o", ctx.path("repair-train.jsonl")])
        return len(self.records)

    def verify(self, ctx: Context, full: bool) -> dict[str, str]:
        names = ["check.jsonl", "dedup.jsonl", "dedup.jsonl.stats.json",
                 "repair-train.jsonl", "repair-bench.jsonl"]
        digests = {n: sha256_file(ctx.path(n)) for n in names}
        if not full:
            return digests
        checked = read_rows(ctx.path("check.jsonl"))
        flagged = sum(bool(r["diagnostics"]) for r in checked)
        ctx.outcome.check(len(checked) == len(self.records) and flagged == 0,
                          f"check: {len(checked)} rows, {flagged} well-formed inputs flagged")
        check_dedup(ctx, len(self.records), ctx.path("dedup.jsonl"))
        formulas = [r["formula"] for r in read_rows(ctx.path("dedup.jsonl"))]
        pairs = (read_rows(ctx.path("repair-train.jsonl"))
                 + read_rows(ctx.path("repair-bench.jsonl")))
        ctx.outcome.check(bool(pairs), "gen-finetune-repair emitted nothing")
        check_repair_pairs(ctx, pairs, formulas, "gen-finetune-repair")
        return digests


class RepairSearch(Workload):
    """baseline build and index load as set-up, then one closed-loop client
    alternating repair (k=5) and completion queries, each sent after the
    previous one returns; eval-repair and eval-complete run last."""

    name = "repair-search"
    INDEX = 3000
    QUERIES = 400
    BATCH = 25  # repair + completion queries per timed iteration, each
    EVAL = 100  # queries of each kind scored by eval-*
    REFERENCE = 3  # repair queries re-ranked by the brute-force reference
    K = 5
    setup_reps = 5
    repeats_work = False

    def inputs(self, seed: int) -> dict:
        corpus = inputs.distinct_formulas(seed, self.INDEX)
        return {"corpus": corpus,
                "repair": inputs.repair_queries(seed + 1, corpus, self.QUERIES),
                "complete": inputs.completion_queries(seed + 2, corpus, self.QUERIES)}

    def prepare(self, ctx: Context, data: dict) -> None:
        self.data = data
        write_rows(ctx.path("corpus.jsonl"), ({"formula": f} for f in data["corpus"]))
        self.next_query = 0
        self.candidates: dict[tuple[str, int], list[str]] = {}
        self.latency_ms: dict[str, list[float]] = {"repair": [], "complete": []}

    def build(self, ctx: Context) -> None:
        ctx.stage("baseline-build", ["baseline", "build", "--input", ctx.path("corpus.jsonl"),
                                     "-o", ctx.path("index.json")])
        self.index = ctx.call("SketchIndex.load", ctx.fk.SketchIndex.load, ctx.path("index.json"))

    def _query(self, ctx: Context, kind: str, i: int) -> None:
        q = self.data[kind][i]
        if kind == "repair":
            fn, arg = ctx.fk.repair_candidates, q["buggy"]
        else:
            fn, arg = ctx.fk.completion_candidates, q["prefix"]
        probe_before, start = ctx.probe_s(), perf_counter()
        result = ctx.call(kind, fn, self.index, arg, self.K)
        took = perf_counter() - start - (ctx.probe_s() - probe_before)
        self.latency_ms[kind].append(took * 1000)
        result = result or []
        ctx.outcome.check(len(result) <= self.K, f"{kind} {i}: {len(result)} candidates > k")
        previous = self.candidates.setdefault((kind, i), result)
        ctx.outcome.check(previous == result, f"{kind} {i}: candidates changed between runs")

    def iteration(self, ctx: Context) -> int:
        for _ in range(self.BATCH):
            i = self.next_query % self.QUERIES
            self.next_query += 1
            self._query(ctx, "repair", i)
            self._query(ctx, "complete", i)
        return 2 * self.BATCH

    def verify(self, ctx: Context, full: bool) -> dict[str, str]:
        return {"index.json": sha256_file(ctx.path("index.json"))}

    def begin_traced(self, ctx: Context) -> None:
        """Trace the index write and load too, then replay the first batch."""
        self.build(ctx)
        self.next_query = 0

    def end_traced(self, ctx: Context) -> None:
        self.scored = self.score(ctx)

    def traced_digests(self, ctx: Context) -> dict[str, str]:
        return self.scored[1]

    def score(self, ctx: Context) -> tuple[dict, dict]:
        """eval-repair and eval-complete over the first EVAL queries of each
        kind; returns (exact-match scores, report digests)."""
        scores, digests = {}, {}
        for kind in ("repair", "complete"):
            queries = self.data[kind][:self.EVAL]
            for i in range(len(queries)):
                if (kind, i) not in self.candidates:
                    self._query(ctx, kind, i)
            bench, preds = ctx.path(f"{kind}-bench.jsonl"), ctx.path(f"{kind}-preds.jsonl")
            report = ctx.path(f"{kind}-report.json")
            write_rows(bench, queries)
            write_rows(preds, ({"source_id": q["source_id"],
                                "candidates": self.candidates[(kind, i)]}
                               for i, q in enumerate(queries)))
            ctx.stage(f"eval-{kind}", [f"eval-{kind}", "--benchmark", bench, "--predictions",
                                       preds, "-k", "1", "-k", "5", "-o", report])
            digests[f"{kind}-preds.jsonl"] = sha256_file(preds)
            digests[f"{kind}-report.json"] = sha256_file(report)
            for row in json.loads(Path(report).read_text(encoding="utf-8"))["results"]:
                if row["metric"] == "exact_match":
                    scores[f"{kind}_exact_match_at_{row['k']}"] = row["value"]
        return scores, digests

    def finish(self, ctx: Context) -> tuple[dict, dict]:
        """Scores, latency figures, and a brute-force re-ranking of the first
        REFERENCE repair queries."""
        scores, digests = self.score(ctx)
        index_json = json.loads(Path(ctx.path("index.json")).read_text(encoding="utf-8"))
        queries = [q["buggy"] for q in self.data["repair"][:self.REFERENCE]]
        for i, want in enumerate(reference_repair(ctx.fk, index_json, queries, self.K)):
            ctx.outcome.check(self.candidates[("repair", i)] == want,
                              f"repair {i}: candidates differ from the brute-force reference")
        for kind in ("repair", "complete"):
            samples = self.latency_ms[kind]
            tail_p, tail = percentile_tail(samples)
            scores[f"{kind}_p50_ms"] = statistics.median(samples)
            scores[f"{kind}_tail_ms"] = tail
            scores[f"{kind}_tail_percentile"] = tail_p
            scores[f"{kind}_samples"] = len(samples)
        return scores, digests


def _levenshtein(a: tuple, b: tuple) -> int:
    prev = list(range(len(b) + 1))
    for i, x in enumerate(a, 1):
        cur = [i]
        for j, y in enumerate(b, 1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (x != y)))
        prev = cur
    return prev[-1]


def reference_repair(fk, index_json: dict, queries: list[str], k: int) -> list[list[str]]:
    """Top-k well-formed index formulas by token edit similarity to each
    query, ties by frequency then text: a full scan with a plain DP,
    independent of the package's kernel and ranking code."""
    def tokens(text: str) -> tuple:
        return tuple(t.text for t in fk.lex(text) if t.kind is not fk.TokenKind.WHITESPACE)

    corpus = [(tokens(f), c, f) for bucket in index_json["sketches"].values()
              for f, c in bucket if not fk.check(f)]
    out = []
    for query in map(tokens, queries):
        ranked = []
        for seq, freq, formula in corpus:
            denom = max(len(query), len(seq))
            sim = 1.0 if denom == 0 else 1.0 - _levenshtein(query, seq) / denom
            ranked.append((-sim, -freq, formula))
        ranked.sort()
        out.append([formula for _, _, formula in ranked[:k]])
    return out


WORKLOADS = {w.name: w for w in (Corpus, Tokenizer, RepairSearch, Envelope)}
