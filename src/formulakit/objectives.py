"""Pre-training example generators and the weighted objective sampler.

Four denoising objectives plus an identity pass-through:

  TM     tail masking, character level: predict the trailing 30-70%
  laMSP  masked span prediction that never splits a lexer token
  RN     random insert/delete/update of 10% of lexer tokens
  UN     one of the 17 user-inspired noise operators
  ID     sequence left intact

Every example targets the complete original formula. Generation is a pure
function of (record, ordinal, config): per-record seeds are derived with a
stable hash, so output is byte-identical no matter how many workers run.
Each process hashes a config seed's prefix once (`seeds.seed_prefix`) and
accumulates the objective weights once per set of objectives still in the
draw; `rng.choices` takes those cumulative weights and draws as it would
from the weights. A `PretrainExample` is a `NamedTuple`, cheap to build and
to pickle across the pool.
`generate_pretrain` is the one pretrain loop, serial or over a process pool,
and counts the records no objective fits in a skips Counter.
"""

from __future__ import annotations

import contextlib
import math
import random
import string
from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import accumulate, count, repeat
from typing import Callable, Iterable, Iterator, NamedTuple, Optional

from . import noise
from .curation import FormulaRecord
from .lexer import lex
from .seeds import seed_prefix
from .tokenizer import MASK_TOKEN as MASK

OBJECTIVE_ORDER = ("laMSP", "TM", "UN", "RN", "ID")

DEFAULT_WEIGHTS = {"laMSP": 0.50, "TM": 0.20, "UN": 0.20, "RN": 0.05, "ID": 0.05}
DEFAULT_TM_FRACTIONS = (0.30, 0.40, 0.50, 0.60, 0.70)
DEFAULT_LAMSP_RATES = {"high": 0.35, "low": 0.15}
DEFAULT_LAMSP_MEAN_SPANS = {"long": 6, "short": 2}
DEFAULT_RN_RATE = 0.10

# Insert/update pool for random noise: the stray-operator inventory plus
# the comma, digits, and single letters.
RN_POOL = tuple(noise.RANDOM_OPERATORS) + (",",) + tuple(string.digits) + tuple(string.ascii_lowercase)


class PreconditionFailed(ValueError):
    """The formula cannot support this objective (too short, no tokens)."""


class PretrainExample(NamedTuple):
    input: str
    target: str
    objective: str
    detail: str
    record_seed: int

    def to_json(self) -> dict:
        return {"input": self.input, "target": self.target,
                "objective": self.objective, "detail": self.detail,
                "record_seed": self.record_seed}


@dataclass(frozen=True)
class ObjectiveConfig:
    seed: int = 0
    weights: dict[str, float] = field(default_factory=lambda: dict(DEFAULT_WEIGHTS))
    tm_fractions: tuple[float, ...] = DEFAULT_TM_FRACTIONS
    lamsp_rates: dict[str, float] = field(default_factory=lambda: dict(DEFAULT_LAMSP_RATES))
    lamsp_mean_spans: dict[str, int] = field(default_factory=lambda: dict(DEFAULT_LAMSP_MEAN_SPANS))
    rn_rate: float = DEFAULT_RN_RATE

    def validate(self) -> None:
        if set(self.weights) != set(OBJECTIVE_ORDER):
            raise ValueError(f"weights: must cover exactly {OBJECTIVE_ORDER}, "
                             f"got {sorted(self.weights)}")
        if not all(math.isfinite(w) for w in self.weights.values()):
            raise ValueError(f"weights: must be finite, got {self.weights}")
        total = sum(self.weights.values())
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"weights: must sum to 1.0, got {total}")
        if any(w < 0 for w in self.weights.values()):
            raise ValueError("weights: must be non-negative")
        for name, table, default in (("lamsp_rates", self.lamsp_rates, DEFAULT_LAMSP_RATES),
                                     ("lamsp_mean_spans", self.lamsp_mean_spans,
                                      DEFAULT_LAMSP_MEAN_SPANS)):
            if set(table) != set(default):
                raise ValueError(f"{name}: must have exactly the keys {sorted(default)}, "
                                 f"got {sorted(table)}")
        if not self.tm_fractions:
            raise ValueError("tm_fractions: must not be empty")
        for name, rate in (("rn_rate", self.rn_rate), *(("lamsp_rates." + k, v)
                                                        for k, v in self.lamsp_rates.items())):
            if not 0 < rate < 1:
                raise ValueError(f"{name}: must be in (0, 1), got {rate}")
        for frac in self.tm_fractions:
            if not 0 < frac < 1:
                raise ValueError(f"tm_fractions: entries must be in (0, 1), got {frac}")
        for key, span in self.lamsp_mean_spans.items():
            if span < 1:
                raise ValueError(f"lamsp_mean_spans.{key}: must be >= 1, got {span}")

    def lamsp_combos(self) -> list[tuple[float, int]]:
        """The four rate x mean-span combinations, in a fixed draw order."""
        return [(self.lamsp_rates[r], self.lamsp_mean_spans[s])
                for r in ("high", "low") for s in ("long", "short")]

    @classmethod
    def from_json(cls, obj: dict) -> "ObjectiveConfig":
        """The config an object of these fields describes. Every ValueError
        it raises, for an unknown key, a value of the wrong type or one that
        `validate` refuses, starts with the field's name."""
        kwargs: dict = {}
        for name, value in obj.items():
            kind = int if name in ("seed", "lamsp_mean_spans") else float
            if name in ("seed", "rn_rate"):
                kwargs[name] = typed(name, value, kind)
            elif name == "tm_fractions":
                if not isinstance(value, list):
                    raise ValueError(f"{name}: must be a list of numbers, "
                                     f"got {type(value).__name__}")
                kwargs[name] = tuple(typed(f"{name}[{i}]", x, kind) for i, x in enumerate(value))
            elif name in ("weights", "lamsp_rates", "lamsp_mean_spans"):
                if not isinstance(value, dict):
                    raise ValueError(f"{name}: must be an object of names to numbers, "
                                     f"got {type(value).__name__}")
                kwargs[name] = {key: typed(f"{name}.{key}", v, kind) for key, v in value.items()}
            else:
                raise ValueError(f"{name}: not a field of the objectives config")
        config = cls(**kwargs)
        config.validate()
        return config


def typed(name: str, value: object, kind: type) -> float:
    """A JSON integer (kind int) or any JSON number as a float (kind float).
    Anything else, 2.9 for an integer or a true, is a ValueError naming the field."""
    if type(value) is kind or kind is float and type(value) is int:
        with contextlib.suppress(OverflowError):  # an integer past float's range
            return kind(value)
    raise ValueError(f"{name}: must be {'an integer' if kind is int else 'a number'}, "
                     f"got {value!r}")


def tail_mask(formula: str, rng: random.Random,
              fractions: tuple[float, ...] = DEFAULT_TM_FRACTIONS) -> PretrainExample:
    """Keep a character prefix, mask the tail, predict the whole formula."""
    if len(formula) < 2:
        raise PreconditionFailed("tail masking needs at least 2 characters")
    fraction = rng.choice(fractions)
    keep = math.ceil((1.0 - fraction) * len(formula))
    return PretrainExample(
        input=formula[:keep] + MASK,
        target=formula,
        objective="TM",
        detail=f"fraction={fraction}",
        record_seed=0,
    )


def select_mask_runs(n_tokens: int, rate: float, mean_span: int,
                     rng: random.Random) -> list[tuple[int, int]]:
    """Choose non-adjacent token-index runs covering ~rate of the tokens.

    The masked count is rate * n stochastically rounded, so its expectation
    is exact for every formula length (a fixed round-up floor would inflate
    the realized rate on short formulas). The count splits into
    ~(masked / mean_span) spans placed into distinct gaps of the unmasked
    sequence; a short sequence can therefore draw zero masked tokens.
    """
    if n_tokens < 1:
        raise PreconditionFailed("span masking needs at least 1 token")
    exact = rate * n_tokens
    num_masked = int(math.floor(exact))
    remainder = exact - num_masked
    if remainder > 0 and rng.random() < remainder:
        num_masked += 1
    num_masked = min(num_masked, n_tokens)
    if num_masked == 0:
        return []
    gaps = n_tokens - num_masked + 1  # slots between/around unmasked tokens
    num_spans = int(math.floor(num_masked / mean_span + 0.5))
    num_spans = max(1, min(num_spans, num_masked, gaps))

    cuts = sorted(rng.sample(range(1, num_masked), num_spans - 1)) if num_spans > 1 else []
    bounds = [0, *cuts, num_masked]
    lengths = [bounds[i + 1] - bounds[i] for i in range(num_spans)]

    slots = sorted(rng.sample(range(gaps), num_spans))
    runs: list[tuple[int, int]] = []
    consumed = 0
    for slot, length in zip(slots, lengths):
        start = slot + consumed
        runs.append((start, start + length))
        consumed += length
    return runs


def la_msp(formula: str, rate: float, mean_span: int,
           rng: random.Random) -> PretrainExample:
    """Span masking aligned to lexer token boundaries.

    Each maximal masked run becomes a single mask token; no lexer token is
    ever split. The decoder target is the complete original formula.
    """
    tokens = lex(formula)
    if not tokens:
        raise PreconditionFailed("span masking needs a lexable, non-empty formula")
    runs = select_mask_runs(len(tokens), rate, mean_span, rng)
    parts: list[str] = []
    pos = 0
    for start, end in runs:
        parts.extend(t.text for t in tokens[pos:start])
        parts.append(MASK)
        pos = end
    parts.extend(t.text for t in tokens[pos:])
    masked = sum(end - start for start, end in runs)
    return PretrainExample(
        input="".join(parts),
        target=formula,
        objective="laMSP",
        detail=f"rate={rate},mean_span={mean_span},masked={masked},tokens={len(tokens)}",
        record_seed=0,
    )


def random_noise(formula: str, rng: random.Random,
                 rate: float = DEFAULT_RN_RATE) -> PretrainExample:
    """Insert/delete/update ceil(rate * token_count) lexer tokens."""
    tokens = lex(formula)
    if not tokens:
        raise PreconditionFailed("random noise needs a lexable, non-empty formula")
    events = math.ceil(rate * len(tokens))
    texts = [t.text for t in tokens]
    for _ in range(events):
        action = rng.choice(("insert", "delete", "update"))
        if action == "delete" and not texts:
            action = "insert"
        if action == "insert":
            pos = rng.randrange(len(texts) + 1)
            texts.insert(pos, rng.choice(RN_POOL))
        elif action == "delete":
            del texts[rng.randrange(len(texts))]
        else:
            pos = rng.randrange(len(texts))
            choices = [p for p in RN_POOL if p != texts[pos]]
            texts[pos] = rng.choice(choices)
    return PretrainExample(
        input="".join(texts),
        target=formula,
        objective="RN",
        detail=f"events={events}",
        record_seed=0,
    )


def user_noise(formula: str, rng: random.Random,
               index: Optional[noise.SiteIndex] = None) -> PretrainExample:
    """Corrupt with one uniformly chosen applicable noise operator.

    `index`, when given, must be `noise.SiteIndex(lex(formula))`, which
    carries the tokens; a caller that has matched its brackets (for `check`)
    passes that match on with it. The formula is lexed at most once either
    way, and one index serves both the applicability test and the drawn
    operator.
    """
    if index is None:
        index = noise.SiteIndex(lex(formula))
    ops = noise.applicable_operators(formula, index=index)
    op_id = rng.choice(ops)  # never empty: operators 14-17 apply to every formula
    corrupted = noise.apply_noise_operator(formula, op_id, rng, index=index)
    return PretrainExample(
        input=corrupted,
        target=formula,
        objective="UN",
        detail=f"op={op_id}:{noise.OPERATORS[op_id].name}",
        record_seed=0,
    )


@lru_cache(maxsize=8, typed=True)
def _record_seeds(seed: int) -> Callable[..., int]:
    """`derive_seed(seed, ...)`, with `seed` hashed once per process."""
    return seed_prefix(seed)


@lru_cache(maxsize=64)
def _objective_draw(weights: tuple[tuple[str, float], ...]
                    ) -> tuple[tuple[str, ...], tuple[float, ...]]:
    """The objectives of positive weight among the (name, weight) items, in
    OBJECTIVE_ORDER, and their cumulative weights. A zero-weight objective
    is never drawn, and rng.choices rejects all-zero weights."""
    positive = {name: w for name, w in weights if w > 0}
    labels = tuple(name for name in OBJECTIVE_ORDER if name in positive)
    return labels, tuple(accumulate(positive[name] for name in labels))


def example_for_record(record: FormulaRecord, ordinal: int,
                       config: ObjectiveConfig) -> Optional[PretrainExample]:
    """One example for one record; None when every objective's precondition
    fails. Pure in (record, ordinal, config), hence worker-count independent."""
    record_seed = _record_seeds(config.seed)(record.workbook_id, record.sheet_id, ordinal)
    rng = random.Random(record_seed)
    weights = tuple(config.weights.items())
    while True:
        labels, cum_weights = _objective_draw(weights)
        if not labels:
            return None
        objective = rng.choices(labels, cum_weights=cum_weights, k=1)[0]
        try:
            if objective == "laMSP":
                rate, mean_span = rng.choice(config.lamsp_combos())
                example = la_msp(record.formula, rate, mean_span, rng)
            elif objective == "TM":
                example = tail_mask(record.formula, rng, config.tm_fractions)
            elif objective == "UN":
                example = user_noise(record.formula, rng)
            elif objective == "RN":
                example = random_noise(record.formula, rng, config.rn_rate)
            else:
                example = PretrainExample(record.formula, record.formula, "ID", "", 0)
        except PreconditionFailed:
            weights = tuple(item for item in weights if item[0] != objective)
            continue
        return PretrainExample(example.input, example.target, example.objective,
                               example.detail, record_seed)


def _example_for_task(task: tuple) -> Optional[PretrainExample]:
    """example_for_record on one (record, ordinal, config) tuple, as imap passes it."""
    return example_for_record(*task)


def generate_pretrain(records: Iterable[FormulaRecord], config: ObjectiveConfig,
                      skips: Optional[Counter[str]] = None, workers: int = 1
                      ) -> Iterator[PretrainExample]:
    """Stream one example per record, in input order, with weighted objective
    sampling; a record no objective fits counts as skips["no objective"].
    workers > 1 spreads the records over a process pool; same output."""
    config.validate()
    skips = Counter() if skips is None else skips
    tasks = zip(records, count(), repeat(config))
    if workers > 1:
        from multiprocessing import Pool  # only a pool run pays for the import
    with (Pool(workers) if workers > 1 else contextlib.nullcontext()) as pool:
        examples = (pool.imap(_example_for_task, tasks, chunksize=256) if pool
                    else map(_example_for_task, tasks))
        for example in examples:
            if example is None:
                skips["no objective"] += 1
            else:
                yield example
