"""Formula-aware pre-tokenization and BPE with a hard vocabulary budget.

Pre-tokenization lowercases everything and splits punctuation, whitespace
(one visible marker per space), built-in function names, and digits into
atomic units that BPE may never merge into or through. BPE then runs only
over the residual letter runs: string contents, identifiers, sheet names,
column letters. This is what keeps pathologies like a fused `sum(` token
out of the vocabulary by construction.

The trainer counts adjacent pairs once, then keeps the counts current as it
merges, with the bookkeeping of the reference `learn_bpe` (Sennrich et al.
2016, arXiv:1508.07909): pair -> count, and pair -> the distinct words that
hold it. A round rewrites only the words that hold the chosen pair, and the
next pair comes off a lazily invalidated heap, so a round costs the words it
touches rather than the whole corpus. The merge rule is unchanged: the most
frequent pair, ties by the merged string, then by the pair; the brute-force
recount in the tests is the oracle for it.

`encode` memoises each letter run's ids on the model, since identifiers and
sheet names repeat across a corpus far more than they vary.
"""

from __future__ import annotations

import heapq
import json
import re
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path
from typing import Iterable, NamedTuple, Optional, Sequence

from .catalog import FunctionCatalog, default_catalog
from .jsonl import write_json_atomic
from .lexer import TokenKind, lex

SPACE_MARKER = "␣"  # open box, the visible stand-in for one space
MASK_TOKEN = "<mask>"
PAD_TOKEN = "<pad>"
UNK_TOKEN = "<unk>"

DEFAULT_VOCAB_BUDGET = 16_000


class BudgetTooSmall(ValueError):
    pass


class PreToken(NamedTuple):
    text: str
    atomic: bool


def _explode(text: str, catalog: FunctionCatalog, out: list[PreToken]) -> None:
    """Split lowercased residual text into atomic chars and letter runs."""
    new, pre = tuple.__new__, PreToken
    append = out.append
    run_start = -1  # index where the current letter run began, if any
    for i, ch in enumerate(text):
        if ch.isalpha() or ch == "_":
            if run_start < 0:
                run_start = i
            continue
        if run_start >= 0:
            word = text[run_start:i]
            append(new(pre, (word, word in catalog)))
            run_start = -1
        append(new(pre, (SPACE_MARKER if ch.isspace() else ch, True)))
    if run_start >= 0:
        word = text[run_start:]
        append(new(pre, (word, word in catalog)))


def pretokenize(formula: str, catalog: Optional[FunctionCatalog] = None) -> list[PreToken]:
    """Lowercased pretokens; atomic ones are off-limits to BPE merges.

    Built-in function names stay whole; digits, punctuation, operators and
    whitespace markers are single atomic units; letter runs are the only
    non-atomic (mergeable) segments.
    """
    if catalog is None:
        catalog = default_catalog()
    new, pre = tuple.__new__, PreToken
    whitespace, func_name, operator = TokenKind.WHITESPACE, TokenKind.FUNC_NAME, TokenKind.OPERATOR
    punct, error = TokenKind.PUNCT, TokenKind.ERROR
    space = new(pre, (SPACE_MARKER, True))
    out: list[PreToken] = []
    append = out.append
    for tok in lex(formula, catalog):
        kind, text = tok.kind, tok.text.lower()
        if kind is whitespace:
            out.extend([space] * len(text))
        elif kind is func_name or kind is operator:
            append(new(pre, (text, True)))
        elif kind is punct or kind is error:
            out.extend([new(pre, (ch, True)) for ch in text])
        else:
            # Number, CellRef, StringLit, Identifier, SheetName: split by
            # character class so digits/punctuation inside stay atomic.
            _explode(text, catalog, out)
    return out


@dataclass
class TokenizerModel:
    vocab: list[str]
    merges: list[tuple[str, str]]
    specials: dict[str, str]
    budget: int
    _token_to_id: dict[str, int] = field(repr=False, default_factory=dict)
    _merge_rank: dict[tuple[str, str], int] = field(repr=False, default_factory=dict)
    # letter run -> its ids, filled by encode; not part of the model's value
    _segment_ids: dict[str, list[int]] = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._token_to_id = {tok: i for i, tok in enumerate(self.vocab)}
        self._merge_rank = {pair: i for i, pair in enumerate(self.merges)}

    @property
    def unk_id(self) -> int:
        return self._token_to_id[self.specials["unknown"]]

    @property
    def mask_id(self) -> int:
        return self._token_to_id[self.specials["mask_token"]]

    def id_of(self, token: str) -> Optional[int]:
        return self._token_to_id.get(token)

    def to_json(self) -> dict:
        return {
            "vocab": list(self.vocab),
            "merges": [list(pair) for pair in self.merges],
            "specials": {
                "mask_token": self.specials["mask_token"],
                "pad": self.specials["pad"],
                "unknown": self.specials["unknown"],
                "space_marker": self.specials["space_marker"],
            },
            "budget": self.budget,
        }

    def save(self, path: str | Path) -> None:
        write_json_atomic(path, self.to_json())

    @classmethod
    def from_json(cls, obj: dict) -> "TokenizerModel":
        return cls(
            vocab=list(obj["vocab"]),
            merges=[(left, right) for left, right in obj["merges"]],
            specials=dict(obj["specials"]),
            budget=int(obj["budget"]),
        )

    @classmethod
    def load(cls, path: str | Path) -> "TokenizerModel":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json(json.load(fh))


def _default_specials() -> dict[str, str]:
    return {"mask_token": MASK_TOKEN, "pad": PAD_TOKEN, "unknown": UNK_TOKEN,
            "space_marker": SPACE_MARKER}


def _merge_word(word: Sequence[str], left: str, right: str) -> list[str]:
    """One greedy left-to-right application of a single merge."""
    out: list[str] = []
    i = 0
    n = len(word)
    merged = left + right
    while i < n:
        if i + 1 < n and word[i] == left and word[i + 1] == right:
            out.append(merged)
            i += 2
        else:
            out.append(word[i])
            i += 1
    return out


def train_bpe(
    corpus: Iterable[str],
    budget: int = DEFAULT_VOCAB_BUDGET,
    catalog: Optional[FunctionCatalog] = None,
) -> TokenizerModel:
    """Learn a merge table over the corpus's residual segments.

    Repeatedly merges the most frequent adjacent pair inside non-atomic
    segments until the vocabulary reaches the budget or no pair occurs
    twice. Ties break by the lexicographic order of the merged string, then
    of the pair, so a fixed corpus yields a bit-identical model.
    """
    if catalog is None:
        catalog = default_catalog()
    specials = _default_specials()

    atomic_inventory: set[str] = {SPACE_MARKER}
    word_freq: dict[str, int] = {}
    for formula in corpus:
        for pre in pretokenize(formula, catalog):
            if pre.atomic:
                atomic_inventory.add(pre.text)
            else:
                word_freq[pre.text] = word_freq.get(pre.text, 0) + 1

    alphabet = {ch for word in word_freq for ch in word}
    base = sorted(atomic_inventory | alphabet)
    num_special_rows = 3  # pad, unknown, mask; the space marker lives in base
    floor = num_special_rows + len(base)
    if budget < floor:
        raise BudgetTooSmall(
            f"vocab budget {budget} is below the minimum floor {floor} "
            f"(= {num_special_rows} specials + {len(base)} atomic/alphabet entries "
            f"observed in the corpus)")

    vocab: list[str] = [specials["pad"], specials["unknown"], specials["mask_token"]]
    vocab.extend(base)
    in_vocab = set(vocab)
    merges: list[tuple[str, str]] = []

    # Distinct words, their frequencies, and the two maps kept current as
    # words are rewritten. `where` may hold stale indices: a word that lost
    # a pair keeps its index there until the pair's count reaches 0.
    words: list[list[str]] = [list(word) for word in word_freq]
    freqs: list[int] = list(word_freq.values())
    counts: dict[tuple[str, str], int] = {}
    where: dict[tuple[str, str], set[int]] = {}
    for index, word in enumerate(words):
        for pair in zip(word, word[1:]):
            counts[pair] = counts.get(pair, 0) + freqs[index]
            where.setdefault(pair, set()).add(index)

    # Every live pair has an entry whose count is at least its current one;
    # an entry whose count is stale is refreshed when it reaches the top.
    heap = [(-count, pair[0] + pair[1], pair) for pair, count in counts.items()]
    heapq.heapify(heap)

    while len(vocab) < budget:
        while heap:
            neg_count, merged, best = heap[0]
            count = counts.get(best, 0)
            if count == -neg_count:
                break
            if count:
                heapq.heapreplace(heap, (-count, merged, best))
            else:
                heapq.heappop(heap)
        if not heap or count < 2:
            break
        merges.append(best)
        if merged not in in_vocab:
            vocab.append(merged)
            in_vocab.add(merged)

        left, right = best
        gained: set[tuple[str, str]] = set()
        for index in where.pop(best):
            word = words[index]
            new_word = _merge_word(word, left, right)
            if len(new_word) == len(word):
                continue  # stale index: the word no longer holds the pair
            freq = freqs[index]
            for pair in zip(word, word[1:]):
                remaining = counts[pair] - freq
                if remaining:
                    counts[pair] = remaining
                else:
                    del counts[pair]
                    where.pop(pair, None)
            for pair in zip(new_word, new_word[1:]):
                counts[pair] = counts.get(pair, 0) + freq
                where.setdefault(pair, set()).add(index)
                if merged in pair:
                    gained.add(pair)
            words[index] = new_word
        # Only pairs holding the merged token can have gained count.
        for pair in gained:
            if pair in counts:
                heapq.heappush(heap, (-counts[pair], pair[0] + pair[1], pair))

    return TokenizerModel(vocab=vocab, merges=merges, specials=specials, budget=budget)


def _bpe_apply(chars: Sequence[str], rank: dict[tuple[str, str], int]) -> list[str]:
    """Apply learned merges in rank order to one segment."""
    word = list(chars)
    while len(word) >= 2:
        best_rank: Optional[int] = None
        best_pair: Optional[tuple[str, str]] = None
        for pair in zip(word, word[1:]):
            r = rank.get(pair)
            if r is not None and (best_rank is None or r < best_rank):
                best_rank = r
                best_pair = pair
        if best_pair is None:
            break
        word = _merge_word(word, best_pair[0], best_pair[1])
    return word


@lru_cache(maxsize=8)
def _special_pattern(markers: frozenset[str]) -> re.Pattern[str]:
    """One alternation of the markers, longest first, so the longest wins."""
    return re.compile("|".join(re.escape(m) for m in sorted(markers, key=len, reverse=True)))


def _split_on_specials(text: str, specials: Iterable[str]) -> list[tuple[str, bool]]:
    """Chunk text around special-token literals like <mask>."""
    markers = frozenset(s for s in specials if s)
    if not markers:
        return [(text, False)] if text else []
    chunks: list[tuple[str, bool]] = []
    plain_start = 0
    for hit in _special_pattern(markers).finditer(text):
        if plain_start < hit.start():
            chunks.append((text[plain_start:hit.start()], False))
        chunks.append((hit.group(), True))
        plain_start = hit.end()
    if plain_start < len(text):
        chunks.append((text[plain_start:], False))
    return chunks


def encode(
    model: TokenizerModel,
    formula: str,
    catalog: Optional[FunctionCatalog] = None,
) -> list[int]:
    """Token ids for a formula; out-of-vocabulary pieces map to <unk>.

    Occurrences of the special-token literals (e.g. a <mask> inserted by an
    objective generator) map to their special ids instead of being shredded
    into characters.
    """
    if catalog is None:
        catalog = default_catalog()
    unk = model.unk_id
    memo = model._segment_ids
    ids: list[int] = []
    special_literals = (model.specials["mask_token"], model.specials["pad"],
                        model.specials["unknown"])
    for chunk, is_special in _split_on_specials(formula, special_literals):
        if is_special:
            ids.append(model.id_of(chunk))  # type: ignore[arg-type]
            continue
        for pre in pretokenize(chunk, catalog):
            if pre.atomic:
                tok_id = model.id_of(pre.text)
                ids.append(tok_id if tok_id is not None else unk)
            else:
                seg_ids = memo.get(pre.text)
                if seg_ids is None:
                    pieces = _bpe_apply(pre.text, model._merge_rank)
                    seg_ids = memo[pre.text] = [
                        unk if tok_id is None else tok_id for tok_id in map(model.id_of, pieces)]
                ids.extend(seg_ids)
    return ids


def decode(model: TokenizerModel, ids: Sequence[int]) -> str:
    """Token ids back to text; space markers render as single spaces.

    Lossy where encoding was: case is gone and every whitespace character
    came back as a plain space. Raises ValueError on an out-of-range id,
    naming the offending position.
    """
    marker = model.specials["space_marker"]
    size = len(model.vocab)
    parts: list[str] = []
    for pos, token_id in enumerate(ids):
        if not isinstance(token_id, int) or token_id < 0 or token_id >= size:
            raise ValueError(f"token id {token_id!r} out of range [0, {size}) at position {pos}")
        text = model.vocab[token_id]
        parts.append(" " if text == marker else text)
    return "".join(parts)
