"""Benchmark tasks, metrics, and fine-tuning dataset synthesis.

Covers the three downstream tasks: last-mile repair (exact match at k over
normalized formulas), completion (exact and sketch match over prefixes cut
at tokenizer-token boundaries), and similar-formula retrieval (Pearson
correlation between embedding cosine similarity and token edit similarity).
The retrieval targets score each drawn pair on its own, masking and
interning only the formulas that occur in a pair.
Candidate providers are plain callables, so a replayed prediction file, the
non-neural baseline, or any model wrapper evaluate identically. Both
fine-tune generators run a per-formula function through `seeds.map_records`,
which numbers the formulas and counts the skips by reason, and seed formula
i from (seed, "repair", i) or (seed, "complete", i), the prefix hashed once
per process (`seeds.seed_prefix`). Repair synthesis lexes each source
formula once, and a corruption only when its `lexer.fold` matches the
source's, the one case where normalization can undo it. `RepairTask`,
`CompletionTask` and `RetrievalPair` are `NamedTuple`s: immutable, equal
and hashed by value.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass, field
from functools import partial
from itertools import chain
from operator import attrgetter, itemgetter
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Optional, Sequence, Union

from .curation import dedup_key
from .lexer import TokenKind, check, fold, lex, normalize
from .noise import SiteIndex
from .objectives import typed, user_noise
from .seeds import derive_rng, map_records, seed_prefix
from .similarity import formula_token_ids, similarity_ids
from .tokenizer import TokenizerModel, decode, encode

COMPLETION_FRACTIONS = (0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8)  # gen_completion_finetune's default


class RepairTask(NamedTuple):
    buggy: str
    ground_truth: str
    source_id: str

    def to_json(self) -> dict:
        return {"buggy": self.buggy, "ground_truth": self.ground_truth,
                "source_id": self.source_id}


class CompletionTask(NamedTuple):
    formula: str
    prefix_fraction: float
    prefix: str
    source_id: str = ""

    def to_json(self) -> dict:
        return {"formula": self.formula, "prefix_fraction": self.prefix_fraction,
                "prefix": self.prefix, "source_id": self.source_id}


class RetrievalPair(NamedTuple):
    formula_a: str
    formula_b: str
    target_similarity: float

    def to_json(self) -> dict:
        return {"formula_a": self.formula_a, "formula_b": self.formula_b,
                "target_similarity": self.target_similarity}


def _field(obj: dict, key: str, kind: type = str):
    """obj[key], which must be a `kind`; raises KeyError or TypeError."""
    value = obj[key]
    if not isinstance(value, kind):
        raise TypeError(key)
    return value


def _finite(key: str, value: object) -> float:
    """value, a finite JSON number and not a bool, as a float; raises ValueError."""
    number = typed(key, value, float)
    if not math.isfinite(number):
        raise ValueError(f"{key}: must be finite, got {value!r}")
    return number


def _repair_task(obj: dict, lineno: int) -> RepairTask:
    return RepairTask(buggy=_field(obj, "buggy"), ground_truth=_field(obj, "ground_truth"),
                      source_id=str(obj.get("source_id", f"task-{lineno}")))


def _completion_task(obj: dict, lineno: int) -> CompletionTask:
    return CompletionTask(
        _field(obj, "formula"), _finite("prefix_fraction", obj.get("prefix_fraction", 0)),
        _field(obj, "prefix"), str(obj.get("source_id", f"task-{lineno}")))


def _prediction(obj: dict, lineno: int) -> tuple[str, list[str]]:
    candidates = _field(obj, "candidates", list)
    if not all(isinstance(c, str) for c in candidates):
        raise TypeError("candidates")
    return _field(obj, "source_id"), candidates


def _retrieval_pair(obj: dict, lineno: int) -> RetrievalPair:
    return RetrievalPair(formula_a=_field(obj, "formula_a"), formula_b=_field(obj, "formula_b"),
                         target_similarity=_finite("target_similarity", obj["target_similarity"]))


def _embedding(obj: dict, lineno: int) -> tuple[str, list[float]]:
    """(formula, vector), finite numbers whose squares' sum is finite, so no cosine is NaN."""
    vector = [_finite("vector", x) for x in _field(obj, "vector", list)]
    _finite("vector", sum(x * x for x in vector))
    return _field(obj, "formula"), vector


# Per strict JSONL input, the arguments of `jsonl.read_rows` after the path:
# what a row must hold, the builder of a row from (object, line number), and
# the source id no two rows may share (None for rows that have none).
ROW_FORMATS: dict[str, tuple] = {
    "repair": ("repair task needs string `buggy` and `ground_truth`", _repair_task,
               attrgetter("source_id")),
    "complete": ("completion task needs string `formula` and `prefix`, and a finite "
                 "number `prefix_fraction` if any", _completion_task, attrgetter("source_id")),
    "predictions": ("prediction rows need string `source_id` and string list `candidates`",
                    _prediction, itemgetter(0)),
    "pairs": ("retrieval pair needs string formula_a/formula_b and finite target_similarity",
              _retrieval_pair, None),
    "embeddings": ("embedding rows need string `formula` and a finite list `vector`",
                   _embedding, None),
}


# Each metric's comparison key: a candidate matches when its key equals the
# truth's. `dedup_key` is the sketch of the normalized form, so constants and
# references compare by token type only.
METRICS: dict[str, Callable[[str], str]] = {
    "exact_match": normalize,
    "sketch_match": dedup_key,
}


def _match_rank(candidates: Sequence[str], ground_truth: str, key: Callable[[str], str],
                depth: int) -> int:
    """0-based rank of the first of the top `depth` candidates whose key
    equals the truth's, or `depth` when none does; a hit at k is a rank
    below k. Keys the truth once, and only when there is a candidate, and
    stops keying candidates at the first match."""
    top = candidates[:depth]
    if top:
        truth = key(ground_truth)
        for rank, candidate in enumerate(top):
            if key(candidate) == truth:
                return rank
    return depth


def make_completion_prefix(formula: str, fraction: float, model: TokenizerModel,
                           source_id: str = "") -> CompletionTask:
    """Cut a prefix at round(fraction * n_tokens) tokenizer tokens.

    Round-half-up, clamped to [1, n-1] so the prefix is always proper. The
    prefix is the decoded (lowercased) text of those tokens, so it never
    splits a tokenizer token.
    """
    if not 0 < fraction < 1:
        raise ValueError(f"fraction must be in (0, 1), got {fraction}")
    ids = encode(model, formula)
    n = len(ids)
    if n < 2:
        raise ValueError(f"formula encodes to {n} token(s); need at least 2")
    take = int(math.floor(fraction * n + 0.5))
    take = max(1, min(take, n - 1))
    prefix = decode(model, ids[:take])
    return CompletionTask(formula=formula, prefix_fraction=fraction,
                          prefix=prefix, source_id=source_id)


def mask_constants(formula: str) -> str:
    """Replace numbers and string literals with type placeholders.

    Cell references are kept, unlike sketching; whitespace is untouched.
    """
    number, string_lit = TokenKind.NUMBER, TokenKind.STRING_LIT
    parts = []
    append = parts.append
    for tok in lex(formula):
        kind = tok.kind
        if kind is number:
            append("number")
        elif kind is string_lit:
            append("string")
        else:
            append(tok.text)
    return "".join(parts)


def _repair_for(seed: int, ordinal: int, formula: str) -> Union[RepairTask, str]:
    """gen_repair_finetune's work on formula `ordinal`: its task, or why it
    has none."""
    tokens = lex(formula)
    index = SiteIndex(tokens)
    if check(formula, tokens=tokens, brackets=index.brackets()):
        return "malformed"
    rng = random.Random(seed_prefix(seed, "repair")(ordinal))
    example = user_noise(formula, rng, index)
    if fold(example.input) == fold(formula) \
            and normalize(example.input) == normalize(formula, tokens=tokens):
        return "unchanged"
    return RepairTask(buggy=example.input, ground_truth=formula, source_id=f"repair-{ordinal}")


def gen_repair_finetune(formulas: Iterable[str], seed: int,
                        skips: Optional[Counter[str]] = None) -> Iterator[RepairTask]:
    """Corrupt well-formed formulas with user-inspired noise into repair pairs.

    Inputs that fail the well-formedness check are skipped (skips["malformed"]);
    corruptions that survive normalization unchanged (e.g. an extra space the
    comparison form strips again) are discarded (skips["unchanged"]).
    Deterministic under the seed. Each source formula is lexed once and its
    brackets matched once: one `noise.SiteIndex` serves `check` and
    `user_noise`. The index scans the tokens for noise sites when it is
    made, before `check`, so a source skipped as malformed pays that one
    scan too. A corruption is lexed only when its `fold` equals the
    source's, since formulas with different folds have different normalized
    forms.
    """
    yield from map_records(partial(_repair_for, seed), formulas, skips)


def _completion_for(model: TokenizerModel, seed: int, fractions: Sequence[float],
                    ordinal: int, formula: str) -> Union[CompletionTask, str]:
    """gen_completion_finetune's work on formula `ordinal`: its task, or why
    it has none."""
    fraction = random.Random(seed_prefix(seed, "complete")(ordinal)).choice(fractions)
    try:
        return make_completion_prefix(formula, fraction, model, source_id=f"complete-{ordinal}")
    except ValueError:  # the fractions are checked in gen_completion_finetune
        return "under 2 tokens"


def gen_completion_finetune(formulas: Iterable[str], model: TokenizerModel, seed: int,
                            fractions: Sequence[float] = COMPLETION_FRACTIONS,
                            skips: Optional[Counter[str]] = None) -> Iterator[CompletionTask]:
    """Cut each formula at a fraction drawn under (seed, "complete", ordinal)
    into a completion task. A formula of under 2 tokens is skipped and counted
    (skips["under 2 tokens"]); no fraction, or one outside (0, 1), is a ValueError."""
    if not fractions or not all(0 < fraction < 1 for fraction in fractions):
        raise ValueError(f"fractions must be in (0, 1), at least one, got {list(fractions)}")
    yield from map_records(partial(_completion_for, model, seed, fractions), formulas, skips)


def reserve_split(items: Sequence, n: int, seed: int) -> tuple[list, list]:
    """Deterministically set aside n items; returns (rest, reserved)."""
    if n < 0 or n > len(items):
        raise ValueError(f"cannot reserve {n} of {len(items)} items")
    rng = derive_rng(seed, "reserve-split")
    reserved_idx = set(rng.sample(range(len(items)), n))
    rest = [x for i, x in enumerate(items) if i not in reserved_idx]
    reserved = [x for i, x in enumerate(items) if i in reserved_idx]
    return rest, reserved


def _unrank_pair(rank: int, n: int) -> tuple[int, int]:
    """The pair (i, j), i < j < n, at `rank` in the order of i, then j."""
    back = n * (n - 1) // 2 - 1 - rank  # its rank counted from the last pair
    row = (1 + math.isqrt(1 + 8 * back)) // 2  # the pairs in its row, n - 1 - i
    return n - 1 - row, n - 1 - (back - row * (row - 1) // 2)


def build_retrieval_pairs(formulas: Sequence[str], seed: int,
                          max_pairs: Optional[int] = None) -> list[RetrievalPair]:
    """Constant-masked formula pairs labeled with token edit similarity.

    All unordered pairs when max_pairs is None, otherwise a seeded sample,
    drawn as ranks in the all-pairs order so that only the sampled pairs are
    built. Only the formulas in a drawn pair are masked and interned, each
    once, and each pair is scored on its own with similarity_ids, which
    gives the same values as token_edit_similarity on the masked texts.
    """
    n = len(formulas)
    total = n * (n - 1) // 2
    if max_pairs is not None and max_pairs < total:
        rng = derive_rng(seed, "retrieval-pairs")
        all_pairs = [_unrank_pair(rank, n) for rank in rng.sample(range(total), max_pairs)]
    else:
        all_pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    drawn = dict.fromkeys(chain.from_iterable(all_pairs))  # each formula once
    masked = {i: mask_constants(formulas[i]) for i in drawn}
    intern: dict[str, int] = {}
    ids = {i: formula_token_ids(text, intern) for i, text in masked.items()}
    return [RetrievalPair(masked[i], masked[j], similarity_ids(ids[i], ids[j]))
            for i, j in all_pairs]


def cosine_similarity(a: Sequence[float], b: Sequence[float]) -> float:
    if len(a) != len(b):
        raise ValueError(f"embedding dimensions differ: {len(a)} vs {len(b)}")
    dot = sum(x * y for x, y in zip(a, b))
    norm_a = math.sqrt(sum(x * x for x in a))
    norm_b = math.sqrt(sum(y * y for y in b))
    if norm_a == 0.0 or norm_b == 0.0:
        raise ValueError("cannot take cosine similarity with a zero vector")
    cosine = dot / (norm_a * norm_b)
    if not math.isfinite(cosine):
        raise ValueError("cosine similarity is not finite (the vectors overflow a float)")
    return cosine


def pearson(xs: Sequence[float], ys: Sequence[float]) -> float:
    if len(xs) != len(ys) or len(xs) < 2:
        raise ValueError("Pearson correlation needs at least 2 paired values")
    mean_x = sum(xs) / len(xs)
    mean_y = sum(ys) / len(ys)
    dx = [x - mean_x for x in xs]
    dy = [y - mean_y for y in ys]
    var_x = sum(d * d for d in dx)
    var_y = sum(d * d for d in dy)
    if var_x == 0.0 or var_y == 0.0:
        raise ValueError("Pearson correlation undefined for a zero-variance axis")
    r = sum(a * b for a, b in zip(dx, dy)) / math.sqrt(var_x * var_y)
    if not math.isfinite(r):
        raise ValueError("Pearson correlation is not finite (the values overflow a float)")
    return r


def retrieval_eval(pairs: Sequence[RetrievalPair],
                   embeddings: Mapping[str, Sequence[float]]) -> float:
    """Pearson r between embedding cosine similarity and the target token
    edit similarity across pairs."""
    if len(pairs) < 2:
        raise ValueError("retrieval evaluation needs at least 2 pairs")
    cosines = []
    targets = []
    for pair in pairs:
        for formula in (pair.formula_a, pair.formula_b):
            if formula not in embeddings:
                raise ValueError(f"no embedding for formula {formula!r}")
        cosines.append(cosine_similarity(embeddings[pair.formula_a],
                                         embeddings[pair.formula_b]))
        targets.append(pair.target_similarity)
    return pearson(cosines, targets)


@dataclass
class EvalReport:
    num_tasks: int
    values: dict[tuple[str, int], float]
    per_task: list[dict] = field(default_factory=list)
    provider_failures: int = 0

    def value(self, metric: str, k: int) -> float:
        return self.values[(metric, k)]

    def to_json(self) -> dict:
        return {
            "num_tasks": self.num_tasks,
            "provider_failures": self.provider_failures,
            "results": [{"metric": m, "k": k, "value": v}
                        for (m, k), v in sorted(self.values.items())],
            "per_task": self.per_task,
        }


def evaluate(tasks: Sequence, candidate_provider: Callable[[object], Sequence[str]],
             metrics: Sequence[str] = ("exact_match",),
             ks: Sequence[int] = (1, 5)) -> EvalReport:
    """Run every task through the provider and average each metric at each k.

    The ground truth is RepairTask.ground_truth or CompletionTask.formula.
    A provider exception counts as a miss for that task, not a crash. Each
    metric keys the truth once per task and the top max(ks) candidates up
    to the first match. A metric named twice is scored once, in the order
    first named.
    """
    metrics = list(dict.fromkeys(metrics))
    for m in metrics:
        if m not in METRICS:
            raise ValueError(f"unknown metric {m!r}; choose from {sorted(METRICS)}")
    if any(k < 1 for k in ks):
        raise ValueError("k must be >= 1")
    depth = max(ks, default=0)
    hits: dict[tuple[str, int], int] = {(m, k): 0 for m in metrics for k in ks}
    per_task: list[dict] = []
    failures = 0
    for task in tasks:
        truth = task.ground_truth if isinstance(task, RepairTask) else task.formula
        row: dict = {"source_id": getattr(task, "source_id", "")}
        try:
            candidates = list(candidate_provider(task))
        except Exception as exc:  # provider bugs score as misses
            candidates = []
            failures += 1
            row["error"] = str(exc)
        for m in metrics:
            rank = _match_rank(candidates, truth, METRICS[m], depth)
            for k in ks:
                hit = rank < k
                row[f"{m}@{k}"] = hit
                if hit:
                    hits[(m, k)] += 1
        per_task.append(row)
    n = len(tasks)
    values = {key: (count / n if n else 0.0) for key, count in hits.items()}
    return EvalReport(num_tasks=n, values=values, per_task=per_task,
                      provider_failures=failures)


def replay_provider(predictions: Mapping[str, Sequence[str]]) -> Callable:
    """Provider that replays ranked candidates from a predictions mapping."""
    def provider(task) -> Sequence[str]:
        return predictions.get(getattr(task, "source_id", ""), [])
    return provider
