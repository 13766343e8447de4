"""Benchmark tasks, metrics, and fine-tuning dataset synthesis.

Covers the three downstream tasks: last-mile repair (exact match at k over
normalized formulas), completion (exact and sketch match over prefixes cut
at tokenizer-token boundaries), and similar-formula retrieval (Pearson
correlation between embedding cosine similarity and token edit similarity).
Candidate providers are plain callables, so a replayed prediction file, the
non-neural baseline, or any model wrapper evaluate identically.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence

from .curation import dedup_key
from .lexer import TokenKind, check, lex, normalize
from .objectives import user_noise
from .seeds import derive_rng
from .similarity import formula_token_ids, similarities_to_many
from .tokenizer import TokenizerModel, decode, encode


@dataclass(frozen=True)
class RepairTask:
    buggy: str
    ground_truth: str
    source_id: str

    def to_json(self) -> dict:
        return {"buggy": self.buggy, "ground_truth": self.ground_truth,
                "source_id": self.source_id}


@dataclass(frozen=True)
class CompletionTask:
    formula: str
    prefix_fraction: float
    prefix: str
    source_id: str = ""

    def to_json(self) -> dict:
        return {"formula": self.formula, "prefix_fraction": self.prefix_fraction,
                "prefix": self.prefix, "source_id": self.source_id}


@dataclass(frozen=True)
class RetrievalPair:
    formula_a: str
    formula_b: str
    target_similarity: float

    def to_json(self) -> dict:
        return {"formula_a": self.formula_a, "formula_b": self.formula_b,
                "target_similarity": self.target_similarity}


def exact_match_at_k(candidates: Sequence[str], ground_truth: str, k: int) -> bool:
    """True when a top-k candidate equals the truth after normalization."""
    if k < 1:
        raise ValueError("k must be >= 1")
    truth = normalize(ground_truth)
    return any(normalize(c) == truth for c in candidates[:k])


def sketch_match_at_k(candidates: Sequence[str], ground_truth: str, k: int) -> bool:
    """True when a top-k candidate has the truth's dedup key: the sketch of
    its normalized form, so constants and references compare by token type
    only."""
    if k < 1:
        raise ValueError("k must be >= 1")
    truth = dedup_key(ground_truth)
    return any(dedup_key(c) == truth for c in candidates[:k])


METRICS: dict[str, Callable[[Sequence[str], str, int], bool]] = {
    "exact_match": exact_match_at_k,
    "sketch_match": sketch_match_at_k,
}


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


def gen_repair_finetune(formulas: Iterable[str], seed: int,
                        skips: Optional[Counter[str]] = None) -> Iterator[RepairTask]:
    """Corrupt well-formed formulas with user-inspired noise into repair pairs.

    Inputs that fail the well-formedness check are skipped (skips["malformed"]);
    corruptions that survive normalization unchanged (e.g. an extra space the
    comparison form strips again) are discarded (skips["unchanged"]).
    Deterministic under the seed. Each source formula is lexed once, and each
    corruption once.
    """
    skips = Counter() if skips is None else skips
    for ordinal, formula in enumerate(formulas):
        tokens = lex(formula)
        if check(formula, tokens=tokens):
            skips["malformed"] += 1
            continue
        rng = derive_rng(seed, "repair", ordinal)
        example = user_noise(formula, rng, tokens=tokens)
        if normalize(example.input) == normalize(formula, tokens=tokens):
            skips["unchanged"] += 1
            continue
        yield RepairTask(buggy=example.input, ground_truth=formula,
                         source_id=f"repair-{ordinal}")


def reserve_split(items: Sequence, n: int, seed: int) -> tuple[list, list]:
    """Deterministically set aside n items; returns (rest, reserved)."""
    if n < 0 or n > len(items):
        raise ValueError(f"cannot reserve {n} of {len(items)} items")
    rng = derive_rng(seed, "reserve-split")
    reserved_idx = set(rng.sample(range(len(items)), n))
    rest = [x for i, x in enumerate(items) if i not in reserved_idx]
    reserved = [x for i, x in enumerate(items) if i in reserved_idx]
    return rest, reserved


def build_retrieval_pairs(formulas: Sequence[str], seed: int,
                          max_pairs: Optional[int] = None) -> list[RetrievalPair]:
    """Constant-masked formula pairs labeled with token edit similarity.

    All unordered pairs when max_pairs is None, otherwise a seeded sample.
    Each formula is masked and interned once; every pair sharing a first
    formula is scored in one similarities_to_many call, which gives the
    same values as token_edit_similarity on the masked texts.
    """
    masked = [mask_constants(f) for f in formulas]
    intern: dict[str, int] = {}
    ids = [formula_token_ids(m, intern) for m in masked]
    all_pairs = [(i, j) for i in range(len(masked)) for j in range(i + 1, len(masked))]
    if max_pairs is not None and max_pairs < len(all_pairs):
        rng = derive_rng(seed, "retrieval-pairs")
        all_pairs = rng.sample(all_pairs, max_pairs)
    partners: dict[int, list[int]] = {}
    for i, j in all_pairs:
        partners.setdefault(i, []).append(j)
    scores: dict[tuple[int, int], float] = {}
    for i, js in partners.items():
        for j, score in zip(js, similarities_to_many(ids[i], [ids[j] for j in js])):
            scores[i, j] = score
    return [RetrievalPair(masked[i], masked[j], scores[i, j]) for i, j in all_pairs]


def cosine_similarity(a: Sequence[float], b: Sequence[float]) -> float:
    if len(a) != len(b):
        raise ValueError(f"embedding dimensions differ: {len(a)} vs {len(b)}")
    dot = sum(x * y for x, y in zip(a, b))
    norm_a = math.sqrt(sum(x * x for x in a))
    norm_b = math.sqrt(sum(y * y for y in b))
    if norm_a == 0.0 or norm_b == 0.0:
        raise ValueError("cannot take cosine similarity with a zero vector")
    return dot / (norm_a * norm_b)


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
    return sum(a * b for a, b in zip(dx, dy)) / math.sqrt(var_x * var_y)


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
    A provider exception counts as a miss for that task, not a crash.
    """
    for m in metrics:
        if m not in METRICS:
            raise ValueError(f"unknown metric {m!r}; choose from {sorted(METRICS)}")
    hits: dict[tuple[str, int], int] = {(m, k): 0 for m in metrics for k in ks}
    per_task: list[dict] = []
    failures = 0
    for task in tasks:
        truth = task.ground_truth if isinstance(task, RepairTask) else task.formula
        source_id = getattr(task, "source_id", "")
        row: dict = {"source_id": source_id}
        try:
            candidates = list(candidate_provider(task))
        except Exception as exc:  # provider bugs score as misses
            candidates = []
            failures += 1
            row["error"] = str(exc)
        for m in metrics:
            fn = METRICS[m]
            for k in ks:
                hit = bool(candidates) and fn(candidates, truth, k)
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
