"""Token-level edit similarity: one pure-Python Levenshtein kernel.

Formulas are compared as sequences of non-whitespace lexer tokens, interned
to integer ids. `levenshtein_ids` is the two-row dynamic programme over
those ids; `similarities_to_many` scores one query against a corpus and is
the hot path of the repair baseline's full scan and of the retrieval
targets. The package has no compiled extension; KERNEL_BACKEND names the
kernel for `formulakit --version` and benchmark results.
"""

from __future__ import annotations

from typing import Sequence

from . import lexer

KERNEL_BACKEND = "python"


def levenshtein_ids(a: Sequence[int], b: Sequence[int]) -> int:
    """Edit distance between two sequences of integer token ids."""
    la, lb = len(a), len(b)
    if la == 0:
        return lb
    if lb == 0:
        return la
    prev = list(range(lb + 1))
    for i in range(la):
        ai = a[i]
        cur = [i + 1] + [0] * lb
        for j in range(lb):
            sub = prev[j] + (0 if ai == b[j] else 1)
            dele = prev[j + 1] + 1
            ins = cur[j] + 1
            best = sub if sub < dele else dele
            if ins < best:
                best = ins
            cur[j + 1] = best
        prev = cur
    return prev[lb]


def similarities_to_many(query: Sequence[int], corpus: Sequence[Sequence[int]]) -> list[float]:
    """1 - normalized edit distance from one query to each corpus sequence.

    Two empty sequences count as identical (similarity 1.0).
    """
    lq = len(query)
    out = []
    for seq in corpus:
        denom = max(lq, len(seq))
        if denom == 0:
            out.append(1.0)
        else:
            out.append(1.0 - levenshtein_ids(query, seq) / denom)
    return out


def formula_token_ids(formula: str, intern: dict[str, int]) -> tuple[int, ...]:
    """Non-whitespace lexer token texts interned to ids via a shared dict."""
    ids = []
    for tok in lexer.lex(formula):
        if tok.kind is lexer.TokenKind.WHITESPACE:
            continue
        tok_id = intern.get(tok.text)
        if tok_id is None:
            tok_id = len(intern)
            intern[tok.text] = tok_id
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

