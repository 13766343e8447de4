"""Token-level edit similarity: one pure-Python Levenshtein kernel.

Formulas are compared as sequences of non-whitespace lexer tokens, interned
to integer ids. The kernel is the bit-parallel Levenshtein algorithm of
Myers (1999, "A fast bit-vector algorithm for approximate string matching
based on dynamic programming", JACM 46(3)) in Hyyrö's (2001) formulation
for the distance between two whole sequences: the query's column of the
dynamic programme is held as two bit vectors of vertical +1/-1 deltas, and
each token of the other sequence advances the whole column in a constant
number of integer operations. Python ints are unbounded, so a query of any
length is exact; distances are integers and match the textbook recurrence.

`similarities_to_many` builds the query's match masks once and scores it
against a corpus; it is the hot path of the repair baseline's full scan and
of the retrieval targets. `levenshtein_ids` is the same loop for one pair.
The package has no compiled extension; KERNEL_BACKEND names the kernel for
`formulakit --version` and benchmark results.
"""

from __future__ import annotations

from typing import Optional, Sequence

from . import lexer

KERNEL_BACKEND = "python"


def _match_masks(query: Sequence[int]) -> dict[int, int]:
    """Token id -> bitmask with bit i set where query[i] is that id."""
    masks: dict[int, int] = {}
    for i, tok_id in enumerate(query):
        masks[tok_id] = masks.get(tok_id, 0) | (1 << i)
    return masks


def _distance(masks: dict[int, int], m: int, seq: Sequence[int]) -> int:
    """Edit distance from the length-m query whose match masks are `masks`
    to `seq`.

    vp/vn hold the +1/-1 vertical deltas of the current DP column (bit i is
    row i + 1), and d is its last cell. Per token: d0 marks the diagonal
    zero deltas, hp/hn the horizontal +1/-1 deltas; the last row's
    horizontal delta updates d, and shifting hp/hn in by one row (with a +1
    at row 0, since the first row of the programme is 0, 1, 2, ...) gives
    the next column. Only bits below m are read: carries and shifts move
    upwards, so vp is masked to m bits to keep the ints small.
    """
    if m == 0:
        return len(seq)
    full = (1 << m) - 1
    last = 1 << (m - 1)
    get = masks.get
    vp, vn, d = full, 0, m
    for tok_id in seq:
        eq = get(tok_id, 0)
        d0 = (((eq & vp) + vp) ^ vp) | eq | vn
        hp = vn | ~(d0 | vp)
        hn = d0 & vp
        if hp & last:
            d += 1
        elif hn & last:
            d -= 1
        hp = (hp << 1) | 1
        vp = ((hn << 1) | ~(d0 | hp)) & full
        vn = hp & d0
    return d


def levenshtein_ids(a: Sequence[int], b: Sequence[int]) -> int:
    """Edit distance between two sequences of integer token ids."""
    return _distance(_match_masks(a), len(a), b)


def similarities_to_many(query: Sequence[int], corpus: Sequence[Sequence[int]]) -> list[float]:
    """1 - normalized edit distance from one query to each corpus sequence.

    Two empty sequences count as identical (similarity 1.0).
    """
    lq = len(query)
    masks = _match_masks(query)
    out = []
    for seq in corpus:
        denom = max(lq, len(seq))
        if denom == 0:
            out.append(1.0)
        else:
            out.append(1.0 - _distance(masks, lq, seq) / denom)
    return out


def formula_token_ids(formula: str, intern: dict[str, int],
                      tokens: Optional[list[lexer.Token]] = None) -> tuple[int, ...]:
    """Non-whitespace lexer token texts interned to ids via a shared dict.

    `tokens`, when given, must be `lex(formula)`.
    """
    if tokens is None:
        tokens = lexer.lex(formula)
    whitespace = lexer.TokenKind.WHITESPACE
    get = intern.get
    ids = []
    for tok in tokens:
        if tok.kind is whitespace:
            continue
        text = tok.text
        tok_id = get(text)
        if tok_id is None:
            tok_id = intern[text] = len(intern)
        ids.append(tok_id)
    return tuple(ids)


def formula_token_ids_frozen(formula: str, intern: dict[str, int]) -> tuple[int, ...]:
    """Like formula_token_ids but read-only: unseen texts get overlay ids
    past the shared table instead of mutating it (keeps queries pure)."""
    return formula_token_ids(formula, dict(intern))


def token_edit_similarity(a: str, b: str) -> float:
    """Levenshtein similarity over non-whitespace lexer tokens, in [0, 1].

    1 - distance / max(len_a, len_b); two empty token sequences give 1.0.
    Symmetric, and 1.0 exactly when the token sequences are equal.
    """
    intern: dict[str, int] = {}
    ids_a = formula_token_ids(a, intern)
    ids_b = formula_token_ids(b, intern)
    denom = max(len(ids_a), len(ids_b))
    if denom == 0:
        return 1.0
    return 1.0 - levenshtein_ids(ids_a, ids_b) / denom

