"""The 17 user-inspired noise operators.

Each operator mirrors a mistake real spreadsheet users make: breaking
ranges, wrong function arity, mangled quoting, stray operators, and so on.
Operators declare an applicability predicate over the token list; applying
an applicable operator always changes the formula text and is a pure
function of (formula, rng state).
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from typing import Callable, Optional

from .catalog import FunctionCatalog, default_catalog
from .lexer import Token, TokenKind, call_arguments, lex


class NotApplicable(Exception):
    """The operator's applicability predicate is false for this formula."""


# Inserted by AddRandomOperator / AddOperatorAtEnd and reused as part of the
# random-noise pool.
RANDOM_OPERATORS = ["+", "-", "*", "/", "^", "&", "<", ">", "=", ".", ")", "#"]

# "Unreliable tokens": the delimiters users most often drop or double up.
DELIMITERS = [",", "(", ")", ":", "!", '"', "'"]

_CELL_PARTS = re.compile(r"^(\$?[A-Za-z]{1,3})(\$?\d+)$")
_RELATIONAL_TWO_CHAR = ("<=", ">=", "<>")
_COMPARISON_OPS = frozenset({"<", ">", "<=", ">=", "<>", "="})


# The predicates below run for every operator on every formula. Each reads
# a token's text before its kind, or binds the kind to a local first: a
# TokenKind.X lookup costs more than the rest of the per-token test.


def _solid_indices(tokens: list[Token]) -> list[int]:
    whitespace = TokenKind.WHITESPACE
    return [i for i, t in enumerate(tokens) if t.kind is not whitespace]


def _range_colons(tokens: list[Token]) -> list[int]:
    """Indices of `:` tokens that sit between two cell references."""
    solid = _solid_indices(tokens)
    out = []
    for pos, i in enumerate(solid):
        tok = tokens[i]
        if tok.text == ":" and tok.kind is TokenKind.PUNCT:
            if 0 < pos < len(solid) - 1:
                prev_tok = tokens[solid[pos - 1]]
                next_tok = tokens[solid[pos + 1]]
                if prev_tok.kind is TokenKind.CELL_REF and next_tok.kind is TokenKind.CELL_REF:
                    out.append(i)
    return out


def _splice(tokens: list[Token], replacements: dict[int, str]) -> str:
    """Rebuild the formula with token texts swapped (empty string deletes)."""
    return "".join(replacements.get(i, tok.text) for i, tok in enumerate(tokens))


def _arg_text(tokens: list[Token], arg: tuple[int, int]) -> str:
    return "".join(tokens[x].text for x in range(*arg))


def _wrong_range(formula: str, tokens: list[Token], rng: random.Random) -> str:
    idx = rng.choice(_range_colons(tokens))
    action = rng.choice([";", ",", " ", '"', None])  # None deletes the colon
    return _splice(tokens, {idx: action if action is not None else ""})


def _malformed_range(formula: str, tokens: list[Token], rng: random.Random) -> str:
    colons = _range_colons(tokens)
    idx = rng.choice(colons)
    solid = _solid_indices(tokens)
    pos = solid.index(idx)
    left, right = solid[pos - 1], solid[pos + 1]
    # Elements: col1, row1, col2, row2; drop one of the four.
    element = rng.randrange(4)
    target = left if element < 2 else right
    m = _CELL_PARTS.match(tokens[target].text)
    col, row = m.group(1), m.group(2)
    new_text = row if element % 2 == 0 else col
    return _splice(tokens, {target: new_text})


def _space_before_paren_candidates(tokens):
    func_name = TokenKind.FUNC_NAME
    return [i for i, t in enumerate(tokens) if t.kind is func_name]


def _space_before_paren(formula: str, tokens: list[Token], rng: random.Random) -> str:
    idx = rng.choice(_space_before_paren_candidates(tokens))
    return _splice(tokens, {idx: tokens[idx].text + " "})


def _fixed_arity_calls(tokens: list[Token], catalog: FunctionCatalog):
    """Calls eligible for the arity corruption, with the action per call."""
    out = []
    for func_idx, args in call_arguments(tokens).items():
        limits = catalog.get(tokens[func_idx].text)
        if limits is None:
            continue
        lo, hi = limits
        if hi is None:
            continue  # only fixed-arity functions
        actions = []
        if len(args) == lo and len(args) >= 1:
            actions.append("delete")
        if len(args) == hi and len(args) >= 1:
            actions.append("append")
        if actions:
            out.append((func_idx, args, actions))
    return out


def _change_arity(formula: str, tokens: list[Token], rng: random.Random,
                  catalog: FunctionCatalog) -> str:
    func_idx, args, actions = rng.choice(_fixed_arity_calls(tokens, catalog))
    action = rng.choice(actions)
    arg_pos = rng.randrange(len(args))
    if action == "delete":
        start, end = args[arg_pos]
        drop = set(range(start, end))
        if arg_pos > 0:
            drop.add(args[arg_pos - 1][1])  # the comma before this argument
        elif len(args) > 1:
            drop.add(end)  # first argument: the comma after it
        return _splice(tokens, {i: "" for i in drop})
    # Append a copy of an existing argument, keeping its spacing, so
    # `IF(A2>10, True, False)` becomes `IF(A2>10, True, False, False)`.
    close_idx = args[-1][1]  # index of the call's closing paren
    copied = "," + _arg_text(tokens, args[arg_pos])
    return _splice(tokens, {close_idx: copied + ")"})


def _arg_typer(tokens: list[Token]) -> Callable[[tuple[int, int]], str]:
    """Classifier of argument ranges: a comparison anywhere inside, else the
    kind of a lone token, `call` when it starts with a FuncName, or `expr`.

    One O(n) pass builds prefix counts, so each argument costs O(1) however
    deeply its own calls nest.
    """
    whitespace, operator = TokenKind.WHITESPACE, TokenKind.OPERATOR
    n = len(tokens)
    solid = [0] * (n + 1)  # non-whitespace tokens in tokens[:i]
    comparisons = [0] * (n + 1)  # comparison operators in tokens[:i]
    for i, t in enumerate(tokens):
        solid[i + 1] = solid[i] + (t.kind is not whitespace)
        comparisons[i + 1] = comparisons[i] + (
            t.text in _COMPARISON_OPS and t.kind is operator)
    first_solid = list(range(n + 1))  # first non-whitespace index >= i
    for i in range(n - 1, -1, -1):
        if tokens[i].kind is whitespace:
            first_solid[i] = first_solid[i + 1]

    def arg_type(arg: tuple[int, int]) -> str:
        start, end = arg
        if comparisons[end] > comparisons[start]:
            return "comparison"
        count = solid[end] - solid[start]
        if count == 1:
            return tokens[first_solid[start]].kind.value
        if count and tokens[first_solid[start]].kind is TokenKind.FUNC_NAME:
            return "call"
        return "expr"

    return arg_type


def _swappable_calls(tokens: list[Token]):
    """Calls with arguments of at least two types, with those types."""
    calls = [(func_idx, args) for func_idx, args in call_arguments(tokens).items()
             if len(args) >= 2]
    if not calls:
        return []
    arg_type = _arg_typer(tokens)
    out = []
    for func_idx, args in calls:
        types = [arg_type(a) for a in args]
        if len(set(types)) > 1:
            out.append((func_idx, args, types))
    return out


def _swap_arguments(formula: str, tokens: list[Token], rng: random.Random) -> str:
    _, args, types = rng.choice(_swappable_calls(tokens))
    pairs = [(i, j) for i in range(len(args)) for j in range(i + 1, len(args))
             if types[i] != types[j]]
    i, j = rng.choice(pairs)

    def rebuilt(arg: tuple[int, int], content: str) -> str:
        raw = _arg_text(tokens, arg)
        lead = raw[:len(raw) - len(raw.lstrip())]
        trail = raw[len(raw.rstrip()):]
        return lead + content + trail

    text_i = _arg_text(tokens, args[i]).strip()
    text_j = _arg_text(tokens, args[j]).strip()
    repl: dict[int, str] = {}
    for start, end in (args[i], args[j]):
        for x in range(start, end):
            repl[x] = ""
    repl[args[i][0]] = rebuilt(args[i], text_j)
    repl[args[j][0]] = rebuilt(args[j], text_i)
    return _splice(tokens, repl)


def _relational_ops(tokens: list[Token]) -> list[int]:
    return [i for i, t in enumerate(tokens)
            if t.text in _RELATIONAL_TWO_CHAR and t.kind is TokenKind.OPERATOR]


def _space_in_relational(formula: str, tokens: list[Token], rng: random.Random) -> str:
    idx = rng.choice(_relational_ops(tokens))
    text = tokens[idx].text
    return _splice(tokens, {idx: text[0] + " " + text[1]})


def _swap_relational(formula: str, tokens: list[Token], rng: random.Random) -> str:
    idx = rng.choice(_relational_ops(tokens))
    text = tokens[idx].text
    return _splice(tokens, {idx: text[1] + text[0]})


def _inequalities(tokens: list[Token]) -> list[int]:
    return [i for i, t in enumerate(tokens)
            if t.text == "<>" and t.kind is TokenKind.OPERATOR]


def _inequality_noise(formula: str, tokens: list[Token], rng: random.Random) -> str:
    idx = rng.choice(_inequalities(tokens))
    return _splice(tokens, {idx: rng.choice(["!=", "=!"])})


def _equalities(tokens: list[Token]) -> list[int]:
    return [i for i, t in enumerate(tokens)
            if t.text == "=" and t.kind is TokenKind.OPERATOR]


def _invalid_equality(formula: str, tokens: list[Token], rng: random.Random) -> str:
    idx = rng.choice(_equalities(tokens))
    return _splice(tokens, {idx: rng.choice(["==", "==="])})


def _quoted_sheets(tokens: list[Token]) -> list[int]:
    return [i for i, t in enumerate(tokens)
            if t.text[:1] == "'" and t.kind is TokenKind.SHEET_NAME
            and len(t.text) >= 2 and t.text.endswith("'")]


def _malformed_sheet_name(formula: str, tokens: list[Token], rng: random.Random) -> str:
    idx = rng.choice(_quoted_sheets(tokens))
    inner = tokens[idx].text[1:-1]
    if rng.random() < 0.5:
        return _splice(tokens, {idx: inner})
    return _splice(tokens, {idx: '"' + inner + '"'})


def _sheet_bangs(tokens: list[Token]) -> list[int]:
    return [i for i, t in enumerate(tokens)
            if t.text == "!" and t.kind is TokenKind.PUNCT
            and i > 0 and tokens[i - 1].kind is TokenKind.SHEET_NAME]


def _remove_exclamation(formula: str, tokens: list[Token], rng: random.Random) -> str:
    idx = rng.choice(_sheet_bangs(tokens))
    return _splice(tokens, {idx: ""})


def _closed_strings(tokens: list[Token]) -> list[int]:
    return [i for i, t in enumerate(tokens)
            if t.text[:1] == '"' and t.kind is TokenKind.STRING_LIT
            and len(t.text) >= 2 and t.text.endswith('"')]


def _malformed_string(formula: str, tokens: list[Token], rng: random.Random) -> str:
    idx = rng.choice(_closed_strings(tokens))
    inner = tokens[idx].text[1:-1]
    if rng.random() < 0.5:
        return _splice(tokens, {idx: inner})
    return _splice(tokens, {idx: "'" + inner + "'"})


def _closing_parens(tokens: list[Token]) -> list[int]:
    return [i for i, t in enumerate(tokens) if t.text == ")" and t.kind is TokenKind.PUNCT]


def _comma_paren_noise(formula: str, tokens: list[Token], rng: random.Random) -> str:
    idx = rng.choice(_closing_parens(tokens))
    if rng.random() < 0.5:
        return _splice(tokens, {idx: ",)"})
    return _splice(tokens, {idx: ","})


def _add_random_operator(formula: str, tokens: list[Token], rng: random.Random) -> str:
    pos = rng.randrange(len(formula) + 1)
    op = rng.choice(RANDOM_OPERATORS)
    return formula[:pos] + op + formula[pos:]


def _add_operator_at_end(formula: str, tokens: list[Token], rng: random.Random) -> str:
    return formula + rng.choice(RANDOM_OPERATORS)


def _add_parentheses(formula: str, tokens: list[Token], rng: random.Random) -> str:
    i = rng.randrange(len(formula) + 1)
    opened = formula[:i] + "(" + formula[i:]
    j = rng.randrange(len(opened) + 1)
    return opened[:j] + ")" + opened[j:]


def _delimiter_positions(formula: str) -> list[int]:
    return [i for i, ch in enumerate(formula) if ch in DELIMITERS]


def _corrupt_delimiters(formula: str, tokens: list[Token], rng: random.Random) -> str:
    positions = _delimiter_positions(formula)
    actions = ["add"] + (["delete", "replace"] if positions else [])
    action = rng.choice(actions)
    if action == "add":
        pos = rng.randrange(len(formula) + 1)
        return formula[:pos] + rng.choice(DELIMITERS) + formula[pos:]
    pos = rng.choice(positions)
    if action == "delete":
        return formula[:pos] + formula[pos + 1:]
    current = formula[pos]
    other = rng.choice([d for d in DELIMITERS if d != current])
    return formula[:pos] + other + formula[pos + 1:]


def _always(tokens: list[Token]) -> bool:
    return True


@dataclass(frozen=True)
class NoiseOperator:
    op_id: int
    name: str
    applicable: Callable[[list[Token]], bool]


def _mk(op_id, name, candidate_fn=None):
    if candidate_fn is None:
        return NoiseOperator(op_id, name, _always)
    return NoiseOperator(op_id, name, lambda toks: bool(candidate_fn(toks)))


OPERATORS: dict[int, NoiseOperator] = {
    1: _mk(1, "wrong_range", _range_colons),
    2: _mk(2, "malformed_range", _range_colons),
    3: _mk(3, "space_before_call_paren", _space_before_paren_candidates),
    4: _mk(4, "change_arity"),
    5: _mk(5, "swap_arguments", _swappable_calls),
    6: _mk(6, "space_in_relational_op", _relational_ops),
    7: _mk(7, "swap_relational_op", _relational_ops),
    8: _mk(8, "inequality_noise", _inequalities),
    9: _mk(9, "invalid_equality", _equalities),
    10: _mk(10, "malformed_sheet_name", _quoted_sheets),
    11: _mk(11, "remove_exclamation", _sheet_bangs),
    12: _mk(12, "malformed_string", _closed_strings),
    13: _mk(13, "comma_paren_noise", _closing_parens),
    14: _mk(14, "add_random_operator"),
    15: _mk(15, "add_operator_at_end"),
    16: _mk(16, "add_parentheses"),
    17: _mk(17, "corrupt_unreliable_tokens"),
}

_APPLY: dict[int, Callable] = {
    1: _wrong_range,
    2: _malformed_range,
    3: _space_before_paren,
    5: _swap_arguments,
    6: _space_in_relational,
    7: _swap_relational,
    8: _inequality_noise,
    9: _invalid_equality,
    10: _malformed_sheet_name,
    11: _remove_exclamation,
    12: _malformed_string,
    13: _comma_paren_noise,
    14: _add_random_operator,
    15: _add_operator_at_end,
    16: _add_parentheses,
    17: _corrupt_delimiters,
}


def is_applicable(formula: str, op_id: int,
                  catalog: Optional[FunctionCatalog] = None,
                  tokens: Optional[list[Token]] = None) -> bool:
    if catalog is None:
        catalog = default_catalog()
    if tokens is None:
        tokens = lex(formula, catalog)
    if op_id == 4:
        return bool(_fixed_arity_calls(tokens, catalog))
    return OPERATORS[op_id].applicable(tokens)


def applicable_operators(formula: str,
                         catalog: Optional[FunctionCatalog] = None,
                         tokens: Optional[list[Token]] = None) -> list[int]:
    if catalog is None:
        catalog = default_catalog()
    if tokens is None:
        tokens = lex(formula, catalog)
    return [op_id for op_id in sorted(OPERATORS)
            if is_applicable(formula, op_id, catalog, tokens)]


def apply_noise_operator(formula: str, op_id: int, rng: random.Random,
                         catalog: Optional[FunctionCatalog] = None,
                         tokens: Optional[list[Token]] = None) -> str:
    """Corrupt the formula with one operator; raises NotApplicable otherwise.

    `tokens`, when given, must be `lex(formula, catalog)`.
    """
    if op_id not in OPERATORS:
        raise ValueError(f"unknown noise operator id {op_id}")
    if catalog is None:
        catalog = default_catalog()
    if tokens is None:
        tokens = lex(formula, catalog)
    if not is_applicable(formula, op_id, catalog, tokens):
        raise NotApplicable(f"operator {op_id} ({OPERATORS[op_id].name}) "
                            f"does not apply to {formula!r}")
    if op_id == 4:
        result = _change_arity(formula, tokens, rng, catalog)
    else:
        result = _APPLY[op_id](formula, tokens, rng)
    if result == formula:
        raise RuntimeError(f"operator {op_id} ({OPERATORS[op_id].name}) "
                           f"left {formula!r} unchanged")
    return result
