"""Formula-aware pre-tokenization and BPE with a hard vocabulary budget.

Pre-tokenization lowercases everything and splits punctuation, whitespace
(one visible marker per space), built-in function names, and digits into
atomic units that BPE may never merge into or through. BPE then runs only
over the residual letter runs: string contents, identifiers, sheet names,
column letters. This is what keeps pathologies like a fused `sum(` token
out of the vocabulary by construction. One rule (`_atomic_units`) decides
how a lexer token pre-tokenizes: function names and operators are one
atomic unit, punctuation and error characters one per character,
whitespace one marker per character; every other token is residual and
split into atomic characters and letter runs.

The trainer counts adjacent pairs once, then keeps the counts current as it
merges, with the bookkeeping of the reference `learn_bpe` (Sennrich et al.
2016, arXiv:1508.07909): pair -> count, and pair -> the distinct words that
hold it. A round visits only the words that hold the chosen pair, and in
each only the merge sites, found greedily from the left by `list.index`:
(prev, left) and (right, next) go out, (prev, merged) and (merged, next)
come in, and two adjacent sites share one neighbour pair, (right, left)
out and (merged, merged) in. The round's net changes are applied once at
its end; a pair whose count reaches 0 is dropped. The next pair comes off
a lazily invalidated heap of the pairs counted at least twice: only pairs
that hold the merged token gain count, so a pair counted once goes on in
the round it reaches 2. A round's Python work follows its merge sites,
not the corpus or the lengths of its words. The merge rule is unchanged: the
most frequent pair, ties by the merged string, then by the pair; the
brute-force recount in the tests is the oracle for it.

Training and encoding pay for a residual token once per distinct text, not
once per occurrence, as `learn_bpe` counts each distinct word once and
weights it by its frequency. The trainer counts the residual texts,
explodes each distinct one once and weights its letter runs by the text's
count; a run first occurs inside the first occurrence of the first text
that holds it, so the words keep their occurrence order and the merges and
vocab are those of a per-occurrence count.

`encode` applies the merges to a letter run in rank order: the lowest-
ranked pair present, all of its occurrences greedily from the left, then
the next. One heap of (rank, position) over the run, kept as a linked list
of positions, does this in one pass, so a run costs its merges rather than
a rescan per merge; the rescan in the tests is the oracle for it. The pairs
a rank's merges make, read at each merge site's two neighbours, go on the
heap once that rank's last entry is popped, so no other rank cuts in. `encode`
maps atomic tokens straight to their ids and memoises on the model the ids
of each residual token's text and of each letter run, since identifiers,
strings and sheet names repeat across a corpus far more than they vary.
Both go in one memo, which grows with the distinct texts a model encodes:
a letter run encodes exactly as the residual token of the same text, and a
catalog name is atomic, so it never enters the memo as a run. A model
encodes under the catalog it was trained with, listed in its file unless
default.

The special tokens are fixed by the model format, not set per model: `<pad>`,
`<unk>` and `<mask>` head every vocab and `␣` stands for a space. A model
file whose `specials` differ is malformed, a ValueError (CLI exit 2).
"""

from __future__ import annotations

import heapq
import json
import re
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple, Optional, Sequence

from .catalog import FunctionCatalog, default_catalog
from .jsonl import PathLike, loads, read_text
from .lexer import TokenKind, lex

SPACE_MARKER = "␣"  # open box, the visible stand-in for one space
MASK_TOKEN = "<mask>"
PAD_TOKEN = "<pad>"
UNK_TOKEN = "<unk>"
# Every model file's "specials", and the only one that from_json accepts.
_SPECIALS = {"mask_token": MASK_TOKEN, "pad": PAD_TOKEN, "unknown": UNK_TOKEN,
             "space_marker": SPACE_MARKER}
# The literals encode maps to their ids. None needs escaping, and the one group
# makes split put each at an odd index.
_SPECIAL_LITERALS = re.compile(f"({MASK_TOKEN}|{PAD_TOKEN}|{UNK_TOKEN})")

DEFAULT_VOCAB_BUDGET = 16_000


class BudgetTooSmall(ValueError):
    pass


_WHITESPACE, _FUNC_NAME, _OPERATOR = TokenKind.WHITESPACE, TokenKind.FUNC_NAME, TokenKind.OPERATOR
_PUNCT, _ERROR = TokenKind.PUNCT, TokenKind.ERROR


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


def _atomic_units(kind: TokenKind, text: str) -> Optional[list[str]]:
    """The lowercased atomic pretokens of one lexer token, or None for a
    residual token (Number, CellRef, StringLit, Identifier, SheetName),
    which `_explode` splits. The one token-class rule of pretokenize,
    train_bpe and encode."""
    if kind is _WHITESPACE:
        return [SPACE_MARKER] * len(text)
    if kind is _FUNC_NAME or kind is _OPERATOR:
        return [text.lower()]
    if kind is _PUNCT or kind is _ERROR:
        return list(text.lower())
    return None


def pretokenize(formula: str, catalog: Optional[FunctionCatalog] = None) -> list[PreToken]:
    """Lowercased pretokens; atomic ones are off-limits to BPE merges.

    Built-in function names stay whole; digits, punctuation, operators and
    whitespace markers are single atomic units; letter runs are the only
    non-atomic (mergeable) segments.
    """
    if catalog is None:
        catalog = default_catalog()
    new, pre = tuple.__new__, PreToken
    out: list[PreToken] = []
    append = out.append
    for kind, text, _, _ in lex(formula, catalog):
        units = _atomic_units(kind, text)
        if units is None:
            _explode(text.lower(), catalog, out)
        else:
            for unit in units:
                append(new(pre, (unit, True)))
    return out


@dataclass
class TokenizerModel:
    vocab: list[str]
    merges: list[tuple[str, str]]
    budget: int
    catalog: FunctionCatalog = field(default_factory=default_catalog, repr=False)
    # Derived from vocab and merges, then encode's memo of the ids of each
    # residual token text and letter run; none is part of the value.
    _token_to_id: dict[str, int] = field(init=False, repr=False, compare=False)
    _merge_rank: dict[tuple[str, str], int] = field(init=False, repr=False, compare=False)
    _ids: dict[str, list[int]] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._token_to_id = {tok: i for i, tok in enumerate(self.vocab)}
        self._merge_rank = {pair: i for i, pair in enumerate(self.merges)}
        self._ids = {}

    @property
    def unk_id(self) -> int:
        return self._token_to_id[UNK_TOKEN]

    def id_of(self, token: str) -> Optional[int]:
        return self._token_to_id.get(token)

    def to_json(self) -> dict:
        obj = {
            "vocab": list(self.vocab),
            "merges": [list(pair) for pair in self.merges],
            "specials": dict(_SPECIALS),
            "budget": self.budget,
        }
        if self.catalog != default_catalog():
            obj["catalog"] = self.catalog.lines()
        return obj

    @classmethod
    def from_json(cls, obj: dict) -> "TokenizerModel":
        """The model `to_json` wrote; raises ValueError for a key `to_json`
        does not write, a vocab that is not a list of distinct strings,
        merges that are not pairs of strings, a budget that is not an integer
        at least the vocab's size, specials other than the format's, a
        special that encode emits missing from vocab, a merge whose product
        is missing from vocab, and a catalog that `to_json` would not write."""
        vocab, merges, budget = obj["vocab"], obj["merges"], obj["budget"]
        unknown = sorted(set(obj) - {"vocab", "merges", "specials", "budget", "catalog"})
        if unknown:
            raise ValueError(f"unknown key {unknown[0]!r}; the keys are budget, catalog, "
                             "merges, specials, vocab")
        if not isinstance(vocab, list) or not all(isinstance(tok, str) for tok in vocab):
            raise ValueError("vocab must be a list of strings")
        if not isinstance(merges, list) or not all(
                isinstance(pair, list) and len(pair) == 2
                and isinstance(pair[0], str) and isinstance(pair[1], str) for pair in merges):
            raise ValueError("merges must be a list of pairs of strings")
        if type(budget) is not int or budget < len(vocab):
            raise ValueError(f"budget must be an integer >= the vocab size {len(vocab)}, "
                             f"got {budget!r}")
        if obj["specials"] != _SPECIALS:
            raise ValueError(f"specials must be {json.dumps(_SPECIALS, ensure_ascii=False)}, "
                             "which the model format fixes")
        catalog = default_catalog()
        if "catalog" in obj:
            lines = obj["catalog"]
            if not isinstance(lines, list) or not all(isinstance(line, str) for line in lines):
                raise ValueError("catalog must be a list of strings")
            catalog = FunctionCatalog.from_lines(lines, source="catalog")
            if catalog.lines() != lines or catalog == default_catalog():
                raise ValueError("catalog must list a catalog other than the default, one "
                                 "`name,min,max` line per function, sorted by name")
        model = cls(vocab=list(vocab), merges=[(left, right) for left, right in merges],
                    budget=budget, catalog=catalog)
        if len(model._token_to_id) != len(vocab):
            # A repeated piece maps to its last id; name its first place.
            repeated = next(tok for i, tok in enumerate(vocab) if model._token_to_id[tok] != i)
            raise ValueError(f"vocab piece {repeated!r} is listed more than once")
        for token in (MASK_TOKEN, PAD_TOKEN, UNK_TOKEN):
            if model.id_of(token) is None:
                raise ValueError(f"special {token!r} is not in vocab")
        for rank, (left, right) in enumerate(model.merges):
            if model.id_of(left + right) is None:
                raise ValueError(f"merge {rank} {[left, right]!r} makes {left + right!r}, "
                                 "which is not in vocab")
        return model

    @classmethod
    def load(cls, path: PathLike) -> "TokenizerModel":
        return cls.from_json(loads(read_text(path, "tokenizer model")))


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

    # Each distinct residual text is exploded once, its letter runs weighted
    # by its count; word_freq keeps the occurrence order (module docstring).
    atomic_inventory: set[str] = {SPACE_MARKER}
    token_count: dict[str, int] = {}
    for formula in corpus:
        for kind, text, _, _ in lex(formula, catalog):
            units = _atomic_units(kind, text)
            if units is None:
                token_count[text] = token_count.get(text, 0) + 1
            else:
                atomic_inventory.update(units)
    word_freq: dict[str, int] = {}
    pres: list[PreToken] = []
    for text, count in token_count.items():
        pres.clear()
        _explode(text.lower(), catalog, pres)
        for word, atomic in pres:
            if atomic:
                atomic_inventory.add(word)
            else:
                word_freq[word] = word_freq.get(word, 0) + count

    alphabet = {ch for word in word_freq for ch in word}
    base = sorted(atomic_inventory | alphabet)
    num_special_rows = 3  # pad, unknown, mask; the space marker lives in base
    floor = num_special_rows + len(base)
    if budget < floor:
        raise BudgetTooSmall(
            f"vocab budget {budget} is below the minimum floor {floor} "
            f"(= {num_special_rows} specials + {len(base)} atomic/alphabet entries "
            f"observed in the corpus)")

    vocab: list[str] = [PAD_TOKEN, UNK_TOKEN, MASK_TOKEN]
    vocab.extend(base)
    in_vocab = set(vocab)
    merges: list[tuple[str, str]] = []

    # Distinct words, their frequencies, and the two maps kept current as
    # words are rewritten. `where` may hold stale indices: a word that lost
    # a pair keeps its index there until the pair's count reaches 0.
    words: list[list[str]] = [list(word) for word in word_freq]
    freqs: list[int] = list(word_freq.values())
    counts: dict[tuple[str, str], int] = {}
    where: defaultdict[tuple[str, str], set[int]] = defaultdict(set)
    for index, word in enumerate(words):
        for pair in zip(word, word[1:]):
            counts[pair] = counts.get(pair, 0) + freqs[index]
            where[pair].add(index)

    # Every pair counted at least twice has an entry whose count is at least
    # its current one; an entry whose count is stale is refreshed, or dropped
    # below 2, when it reaches the top. A pair goes on again on reaching 2.
    heap = [(-count, pair[0] + pair[1], pair) for pair, count in counts.items() if count > 1]
    heapq.heapify(heap)

    while len(vocab) < budget:
        while heap:
            neg_count, merged, best = heap[0]
            count = counts.get(best, 0)
            if count == -neg_count:
                break
            if count > 1:
                heapq.heapreplace(heap, (-count, merged, best))
            else:
                heapq.heappop(heap)
        if not heap:
            break  # no pair is counted twice
        merges.append(best)
        if merged not in in_vocab:
            vocab.append(merged)
            in_vocab.add(merged)

        left, right = best
        same = int(left == right)  # a site then uses up two occurrences of left
        delta: dict[tuple[str, str], int] = {}  # net changes, applied once the round ends
        for index in where.pop(best):
            word = words[index]
            last = len(word) - 1
            sites: list[int] = []  # greedy left-to-right merge sites
            i, unseen = -1, word.count(left)
            while unseen > 0:
                i = word.index(left, i + 1)
                unseen -= 1
                if i < last and word[i + 1] == right:
                    sites.append(i)
                    i += 1
                    unseen -= same
            if not sites:
                continue  # stale index: the word no longer holds the pair
            freq = freqs[index]
            delta[best] = delta.get(best, 0) - freq * len(sites)
            # Neighbours are found by position: the text of a neighbour cannot
            # tell a token this round made from an older one that reads the
            # same. Two adjacent sites share one neighbour pair, (right, left)
            # out and (merged, merged) in.
            after_prev = -1  # index just past the previous site
            for k, site in enumerate(sites):
                if site:
                    prev = word[site - 1]
                    old_pair = (prev, left)
                    new_pair = (merged, merged) if site == after_prev else (prev, merged)
                    delta[old_pair] = delta.get(old_pair, 0) - freq
                    delta[new_pair] = delta.get(new_pair, 0) + freq
                    where[new_pair].add(index)
                after_prev = site + 2
                if after_prev <= last and (k + 1 == len(sites) or sites[k + 1] != after_prev):
                    nxt = word[after_prev]
                    old_pair, new_pair = (right, nxt), (merged, nxt)
                    delta[old_pair] = delta.get(old_pair, 0) - freq
                    delta[new_pair] = delta.get(new_pair, 0) + freq
                    where[new_pair].add(index)
            for site in reversed(sites):
                word[site:site + 2] = (merged,)
        # Only pairs that hold the merged token gain count; one that reaches
        # 2 goes on the heap.
        for pair, change in delta.items():
            count = counts[pair] = counts.get(pair, 0) + change
            if not count:
                del counts[pair]
                where.pop(pair, None)
            elif change > 0 and count > 1:
                heapq.heappush(heap, (-count, pair[0] + pair[1], pair))

    return TokenizerModel(vocab=vocab, merges=merges, budget=budget, catalog=catalog)


def _bpe_apply(chars: Sequence[str], model: TokenizerModel) -> list[str]:
    """Apply the learned merges to one segment, lowest rank first.

    Each step takes the lowest-ranked pair present and merges all of its
    occurrences greedily from the left. A heap of (rank, position) holds
    every adjacent pair with a rank, the segment is a linked list of
    positions, and one step pops every entry of its rank, left to right,
    before it pushes the pairs those merges made.
    """
    rank, merges = model._merge_rank, model.merges
    tokens: list[Optional[str]] = [*chars, None]  # None ends the run; tokens[-1] reads it too
    end = len(tokens) - 1
    heap = [(r, i) for i, r in enumerate(map(rank.get, zip(tokens, tokens[1:])))
            if r is not None]
    heapq.heapify(heap)
    after = list(range(1, end + 1))  # next live position; `end` past the last
    before = list(range(-1, end))  # previous live position; -1 before the first
    pop, push = heapq.heappop, heapq.heappush
    while heap:
        r = heap[0][0]
        left, right = merges[r]
        merged = left + right
        sites: list[int] = []  # in increasing position
        while heap and heap[0][0] == r:
            i = pop(heap)[1]
            j = after[i]
            # absorbed positions hold None, so a stale entry fails here
            if tokens[i] != left or tokens[j] != right:
                continue
            tokens[i], tokens[j] = merged, None
            before[after[j]] = i
            after[i] = after[j]
            sites.append(i)
        previous = -1
        for i in sites:
            h = before[i]
            if h != previous:  # -1 has no pair; the previous site pushed this one
                r = rank.get((tokens[h], merged))  # type: ignore[arg-type]
                if r is not None:
                    push(heap, (r, h))
            r = rank.get((merged, tokens[after[i]]))  # type: ignore[arg-type]
            if r is not None:
                push(heap, (r, i))
            previous = i
    return [token for token in tokens if token is not None]


def _split_on_specials(text: str) -> list[tuple[str, bool]]:
    """Chunk text around the <mask>, <pad> and <unk> literals."""
    return [(chunk, i % 2 == 1) for i, chunk in enumerate(_SPECIAL_LITERALS.split(text)) if chunk]


def _residual_ids(model: TokenizerModel, text: str) -> list[int]:
    """The ids of one residual token's text: its atomic characters and
    catalog names from the id table, its letter runs by the heap pass,
    memoised per run on the model."""
    unk, id_of, memo = model.unk_id, model.id_of, model._ids
    pres: list[PreToken] = []
    _explode(text.lower(), model.catalog, pres)
    ids: list[int] = []
    for word, atomic in pres:
        if atomic:
            tok_id = id_of(word)
            ids.append(unk if tok_id is None else tok_id)
            continue
        seg_ids = memo.get(word)
        if seg_ids is None:
            seg_ids = memo[word] = [unk if tok_id is None else tok_id
                                    for tok_id in map(id_of, _bpe_apply(word, model))]
        ids.extend(seg_ids)
    return ids


def encode(model: TokenizerModel, formula: str) -> list[int]:
    """Token ids for a formula under the model's catalog; out-of-vocabulary
    pieces map to <unk>.

    Atomic lexer tokens map straight to their ids. A residual token's ids
    are worked out the first time the model meets its text and memoised on
    the model, since identifiers, strings and sheet names repeat across a
    corpus far more than they vary. Occurrences of the special-token
    literals (e.g. a <mask> inserted by an objective generator) map to
    their special ids instead of being shredded into characters.
    """
    catalog, unk, id_of = model.catalog, model.unk_id, model._token_to_id.get
    memo = model._ids
    ids: list[int] = []
    append, extend = ids.append, ids.extend
    for chunk, is_special in _split_on_specials(formula):
        if is_special:
            append(id_of(chunk))  # type: ignore[arg-type]
            continue
        for kind, text, _, _ in lex(chunk, catalog):
            units = _atomic_units(kind, text)
            if units is None:
                tok_ids = memo.get(text)
                if tok_ids is None:
                    tok_ids = memo[text] = _residual_ids(model, text)
                extend(tok_ids)
            else:
                for unit in units:
                    tok_id = id_of(unit)
                    append(unk if tok_id is None else tok_id)
    return ids


def decode(model: TokenizerModel, ids: Sequence[int]) -> str:
    """Token ids back to text; space markers render as single spaces.

    Lossy where encoding was: case is gone and every whitespace character
    came back as a plain space. Raises ValueError on an out-of-range id,
    naming the offending position.
    """
    size = len(model.vocab)
    parts: list[str] = []
    for pos, token_id in enumerate(ids):
        if not isinstance(token_id, int) or token_id < 0 or token_id >= size:
            raise ValueError(f"token id {token_id!r} out of range [0, {size}) at position {pos}")
        text = model.vocab[token_id]
        parts.append(" " if text == SPACE_MARKER else text)
    return "".join(parts)
