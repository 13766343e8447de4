"""The 17 user-inspired noise operators.

Each operator mirrors a mistake real spreadsheet users make: breaking
ranges, wrong function arity, mangled quoting, stray operators, and so on.

`OPERATORS` is the one table of them. Each entry pairs a site finder,
`sites(index)`, which iterates in order over where the operator can act in
a formula's `SiteIndex` and yields nothing exactly when it does not apply,
with a rewrite, `rewrite(formula, tokens, sites, rng)`, which corrupts one
of those sites and never searches again. Making a `SiteIndex` scans the
tokens once for the sites of every token-level operator, and operators
1-3 and 6-13 read their list as a field of it (`attrgetter`). Only the
bracket match waits: the arity and swap operators walk the calls of one
`match_brackets` pass, run when one of them first asks, and a formula with
no FuncName token has no call, so it skips that pass. Operators 14-17 act
anywhere in the text, so their one site is the whole formula.
`applicable_operators` and `apply_noise_operator` are lookups in that
table. Applicability reads only an operator's first site: the arity and
swap finders are generators, so deciding that they apply stops at the
first eligible call. The drawn operator lists its sites in full, once, in
`apply_noise_operator`; the last two take a caller's index, so that
listing reuses the token scan and the bracket match already made. Applying
an applicable operator always changes the formula text and is a pure
function of (formula, rng state).
"""

from __future__ import annotations

import random
import re
from collections import Counter
from dataclasses import dataclass
from operator import attrgetter
from typing import Callable, Iterable, Iterator, Optional

from .catalog import default_catalog
from .lexer import Brackets, Token, TokenKind, lex, match_brackets, quote_closed


class NotApplicable(Exception):
    """The operator finds no site in this formula."""


# Inserted by AddRandomOperator / AddOperatorAtEnd and reused as part of the
# random-noise pool.
RANDOM_OPERATORS = ["+", "-", "*", "/", "^", "&", "<", ">", "=", ".", ")", "#"]

# "Unreliable tokens": the delimiters users most often drop or double up.
DELIMITERS = [",", "(", ")", ":", "!", '"', "'"]

_CELL_PARTS = re.compile(r"^(\$?[A-Za-z]{1,3})(\$?\d+)$")
_RELATIONAL_TWO_CHAR = ("<=", ">=", "<>")
_COMPARISON_OPS = frozenset({"<", ">", "<=", ">=", "<>", "="})


# Read once at import: a TokenKind.X lookup goes through the enum metaclass,
# and seven of them per call would cost a short formula about a third of
# its scan.
_SCAN_KINDS = (TokenKind.WHITESPACE, TokenKind.PUNCT, TokenKind.OPERATOR, TokenKind.CELL_REF,
               TokenKind.FUNC_NAME, TokenKind.STRING_LIT, TokenKind.SHEET_NAME)


def _scan(tokens: list[Token]) -> tuple[list, ...]:
    """Every token site in one pass, as the nine lists of `SiteIndex` in its
    field order: a `:` counts between two cell references (whitespace
    aside), a `!` only right after a sheet name, and a string or quoted
    sheet name only when its closing quote is there."""
    whitespace, punct, operator, cell_ref, func_name, string_lit, sheet_name = _SCAN_KINDS
    sites = ([], [], [], [], [], [], [], [], [])
    colons, funcs, relational, inequalities, equalities, sheets, bangs, strings, closes = sites
    # The last non-whitespace token and its kind, and the last `:` seen
    # after a cell reference, with that reference: a cell reference whose
    # previous non-whitespace token is that `:` completes a range colon.
    # Carrying them costs less than looking around every `:`.
    solid, solid_kind = -1, None
    colon, left = -2, -1
    i = -1
    for tok in tokens:
        i += 1
        kind = tok.kind
        if kind is cell_ref:
            if solid == colon:
                colons.append((colon, left, i))
        elif kind is punct:
            text = tok.text
            if text == ")":
                closes.append(i)
            elif text == ":":
                if solid_kind is cell_ref:
                    colon, left = i, solid
            elif text == "!":
                if solid == i - 1 and solid_kind is sheet_name:
                    bangs.append(i)
        elif kind is whitespace:
            continue
        elif kind is operator:
            text = tok.text
            if text == "=":
                equalities.append(i)
            elif text in _RELATIONAL_TWO_CHAR:
                relational.append(i)
                if text == "<>":
                    inequalities.append(i)
        elif kind is func_name:
            funcs.append(i)
        elif kind is string_lit:
            if quote_closed(tok.text):
                strings.append(i)
        elif kind is sheet_name:
            text = tok.text
            if text[0] == "'" and quote_closed(text):
                sheets.append(i)
        solid, solid_kind = i, kind
    return sites


class SiteIndex:
    """The sites of one formula, for every operator: `tokens` must be
    `lex(formula)`, as the operators use the bundled catalog. Making the
    index runs one `_scan` of the tokens, which fills the nine lists of
    token sites below, each in token order. Only `brackets()`, the tokens'
    `match_brackets`, waits until the arity or swap operator first asks for
    it, and is kept; `calls()` reads it only when the formula has a
    FuncName token. The scan is paid even where no list is read: by a
    source that repair synthesis then rejects as malformed, and by
    `apply_noise_operator` given no index for operators 14-17."""

    __slots__ = ("tokens", "range_colons", "func_names", "relational_ops", "inequalities",
                 "equalities", "quoted_sheets", "sheet_bangs", "closed_strings",
                 "closing_parens", "_brackets")

    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        (self.range_colons,  # (`:`, left ref, right ref)
         self.func_names,
         self.relational_ops,  # `<=`, `>=`, `<>`
         self.inequalities,  # `<>`
         self.equalities,  # `=`
         self.quoted_sheets,  # closed quoted sheet names
         self.sheet_bangs,  # `!` directly after a sheet name
         self.closed_strings,
         self.closing_parens) = _scan(tokens)
        self._brackets: Optional[Brackets] = None

    def brackets(self) -> Brackets:
        if self._brackets is None:
            self._brackets = match_brackets(self.tokens)
        return self._brackets

    def calls(self) -> dict[int, list[tuple[int, int]]]:
        """`brackets().calls`: every call is keyed by a FuncName token, so a
        formula with none has no call and is not matched for it."""
        if not self.func_names:
            return {}
        return self.brackets().calls


def _splice(tokens: list[Token], replacements: dict[int, str]) -> str:
    """Rebuild the formula with token texts swapped (empty string deletes)."""
    texts = [tok.text for tok in tokens]
    for i, text in replacements.items():
        texts[i] = text
    return "".join(texts)


def _arg_text(tokens: list[Token], arg: tuple[int, int]) -> str:
    return "".join(tokens[x].text for x in range(*arg))


def _wrong_range(formula: str, tokens: list[Token], sites: list, rng: random.Random) -> str:
    idx, _, _ = rng.choice(sites)
    action = rng.choice([";", ",", " ", '"', None])  # None deletes the colon
    return _splice(tokens, {idx: action if action is not None else ""})


def _malformed_range(formula: str, tokens: list[Token], sites: list, rng: random.Random) -> str:
    _, left, right = rng.choice(sites)
    # Elements: col1, row1, col2, row2; drop one of the four.
    element = rng.randrange(4)
    target = left if element < 2 else right
    m = _CELL_PARTS.match(tokens[target].text)
    col, row = m.group(1), m.group(2)
    new_text = row if element % 2 == 0 else col
    return _splice(tokens, {target: new_text})


def _space_before_paren(formula: str, tokens: list[Token], sites: list,
                        rng: random.Random) -> str:
    idx = rng.choice(sites)
    return _splice(tokens, {idx: tokens[idx].text + " "})


def _fixed_arity_calls(index: SiteIndex) -> Iterator[tuple]:
    """Calls eligible for the arity corruption, with the action per call, in
    token order."""
    tokens, catalog = index.tokens, default_catalog()
    for func_idx, args in index.calls().items():
        lo, hi = catalog.get(tokens[func_idx].text)
        if hi is None:
            continue  # only fixed-arity functions
        actions = []
        if len(args) == lo and len(args) >= 1:
            actions.append("delete")
        if len(args) == hi and len(args) >= 1:
            actions.append("append")
        if actions:
            yield func_idx, args, actions


def _change_arity(formula: str, tokens: list[Token], sites: list, rng: random.Random) -> str:
    _, args, actions = rng.choice(sites)
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

    Prefix counts of the non-whitespace tokens and of the comparisons are
    extended only as far as the largest argument end asked so far, so the
    first call's arguments cost only their tokens, every argument costs
    O(1) however deeply its own calls nest, and a full listing is one O(n)
    pass. The lexer's whitespace token is maximal, so an argument's first
    non-whitespace token is at its start or just after it.
    """
    whitespace, operator, func_name = TokenKind.WHITESPACE, TokenKind.OPERATOR, TokenKind.FUNC_NAME
    solid = [0]  # non-whitespace tokens in tokens[:i]
    comparisons = [0]  # comparison operators in tokens[:i]

    def arg_type(arg: tuple[int, int]) -> str:
        start, end = arg
        if end >= len(solid):
            count, compared = solid[-1], comparisons[-1]
            for t in tokens[len(solid) - 1:end]:
                kind = t.kind
                count += kind is not whitespace
                compared += kind is operator and t.text in _COMPARISON_OPS
                solid.append(count)
                comparisons.append(compared)
        if comparisons[end] > comparisons[start]:
            return "comparison"
        count = solid[end] - solid[start]
        if not count:
            return "expr"
        first = tokens[start] if tokens[start].kind is not whitespace else tokens[start + 1]
        if count == 1:
            return first.kind.value
        return "call" if first.kind is func_name else "expr"

    return arg_type


def _swappable_calls(index: SiteIndex) -> Iterator[tuple]:
    """Calls with arguments of at least two types, with those types, in
    token order. The typer is built at the first call of two arguments."""
    arg_type = None
    for func_idx, args in index.calls().items():
        if len(args) < 2:
            continue
        if arg_type is None:
            arg_type = _arg_typer(index.tokens)
        types = [arg_type(a) for a in args]
        if len(set(types)) > 1:
            yield func_idx, args, types


def _differing_pair(types: list[str], rank: int) -> tuple[int, int]:
    """The pair (i, j), i < j, of different types at `rank` in the order of
    i, then j. Row i holds the later positions of another type, so the walk
    skips whole rows and costs O(len(types))."""
    later = Counter(types)  # the types at positions after i
    for i, kind in enumerate(types):
        later[kind] -= 1
        row = len(types) - 1 - i - later[kind]
        if rank < row:
            break
        rank -= row
    for j in range(i + 1, len(types)):
        if types[j] != kind:
            if not rank:
                return i, j
            rank -= 1
    raise ValueError("rank past the last pair of different types")


def _swap_arguments(formula: str, tokens: list[Token], sites: list, rng: random.Random) -> str:
    _, args, types = rng.choice(sites)
    # A uniform draw over the pairs of different types, by rank: rng.choice
    # on a range of their count draws as it would on their list, without
    # building the O(len(args)**2) list.
    n = len(args)
    count = n * (n - 1) // 2 - sum(c * (c - 1) // 2 for c in Counter(types).values())
    i, j = _differing_pair(types, rng.choice(range(count)))

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


def _space_in_relational(formula: str, tokens: list[Token], sites: list,
                         rng: random.Random) -> str:
    idx = rng.choice(sites)
    text = tokens[idx].text
    return _splice(tokens, {idx: text[0] + " " + text[1]})


def _swap_relational(formula: str, tokens: list[Token], sites: list, rng: random.Random) -> str:
    idx = rng.choice(sites)
    text = tokens[idx].text
    return _splice(tokens, {idx: text[1] + text[0]})


def _inequality_noise(formula: str, tokens: list[Token], sites: list, rng: random.Random) -> str:
    return _splice(tokens, {rng.choice(sites): rng.choice(["!=", "=!"])})


def _invalid_equality(formula: str, tokens: list[Token], sites: list, rng: random.Random) -> str:
    return _splice(tokens, {rng.choice(sites): rng.choice(["==", "==="])})


def _malformed_sheet_name(formula: str, tokens: list[Token], sites: list,
                          rng: random.Random) -> str:
    idx = rng.choice(sites)
    inner = tokens[idx].text[1:-1]
    if rng.random() < 0.5:
        return _splice(tokens, {idx: inner})
    return _splice(tokens, {idx: '"' + inner + '"'})


def _remove_exclamation(formula: str, tokens: list[Token], sites: list,
                        rng: random.Random) -> str:
    return _splice(tokens, {rng.choice(sites): ""})


def _malformed_string(formula: str, tokens: list[Token], sites: list, rng: random.Random) -> str:
    idx = rng.choice(sites)
    inner = tokens[idx].text[1:-1]
    if rng.random() < 0.5:
        return _splice(tokens, {idx: inner})
    return _splice(tokens, {idx: "'" + inner + "'"})


def _comma_paren_noise(formula: str, tokens: list[Token], sites: list, rng: random.Random) -> str:
    idx = rng.choice(sites)
    if rng.random() < 0.5:
        return _splice(tokens, {idx: ",)"})
    return _splice(tokens, {idx: ","})


def _whole_formula(index: SiteIndex) -> list[None]:
    """The one site of an operator that acts anywhere in the text."""
    return [None]


def _add_random_operator(formula: str, tokens: list[Token], sites: list,
                         rng: random.Random) -> str:
    pos = rng.randrange(len(formula) + 1)
    op = rng.choice(RANDOM_OPERATORS)
    return formula[:pos] + op + formula[pos:]


def _add_operator_at_end(formula: str, tokens: list[Token], sites: list,
                         rng: random.Random) -> str:
    return formula + rng.choice(RANDOM_OPERATORS)


def _add_parentheses(formula: str, tokens: list[Token], sites: list, rng: random.Random) -> str:
    i = rng.randrange(len(formula) + 1)
    opened = formula[:i] + "(" + formula[i:]
    j = rng.randrange(len(opened) + 1)
    return opened[:j] + ")" + opened[j:]


def _corrupt_delimiters(formula: str, tokens: list[Token], sites: list,
                        rng: random.Random) -> str:
    # Delimiters are found in the text, not the tokens: a `,` or `"` inside a
    # string literal is as easy to drop as a structural one.
    positions = [i for i, ch in enumerate(formula) if ch in DELIMITERS]
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


@dataclass(frozen=True)
class NoiseOperator:
    """`sites(index)` iterates in order over where the operator can act in a
    formula's `SiteIndex` and yields nothing when it does not apply;
    `rewrite(formula, tokens, sites, rng)` corrupts one of those sites,
    given as a list."""

    # Left unevaluated (annotations are strings here): typing caches every
    # `Callable[...]` it builds, which would keep each re-imported copy of
    # the lexer alive.
    op_id: int
    name: str
    sites: Callable[[SiteIndex], Iterable]
    rewrite: Callable[[str, list[Token], list, random.Random], str]


OPERATORS: dict[int, NoiseOperator] = {op.op_id: op for op in [
    NoiseOperator(1, "wrong_range", attrgetter("range_colons"), _wrong_range),
    NoiseOperator(2, "malformed_range", attrgetter("range_colons"), _malformed_range),
    NoiseOperator(3, "space_before_call_paren", attrgetter("func_names"), _space_before_paren),
    NoiseOperator(4, "change_arity", _fixed_arity_calls, _change_arity),
    NoiseOperator(5, "swap_arguments", _swappable_calls, _swap_arguments),
    NoiseOperator(6, "space_in_relational_op", attrgetter("relational_ops"), _space_in_relational),
    NoiseOperator(7, "swap_relational_op", attrgetter("relational_ops"), _swap_relational),
    NoiseOperator(8, "inequality_noise", attrgetter("inequalities"), _inequality_noise),
    NoiseOperator(9, "invalid_equality", attrgetter("equalities"), _invalid_equality),
    NoiseOperator(10, "malformed_sheet_name", attrgetter("quoted_sheets"), _malformed_sheet_name),
    NoiseOperator(11, "remove_exclamation", attrgetter("sheet_bangs"), _remove_exclamation),
    NoiseOperator(12, "malformed_string", attrgetter("closed_strings"), _malformed_string),
    NoiseOperator(13, "comma_paren_noise", attrgetter("closing_parens"), _comma_paren_noise),
    NoiseOperator(14, "add_random_operator", _whole_formula, _add_random_operator),
    NoiseOperator(15, "add_operator_at_end", _whole_formula, _add_operator_at_end),
    NoiseOperator(16, "add_parentheses", _whole_formula, _add_parentheses),
    NoiseOperator(17, "corrupt_unreliable_tokens", _whole_formula, _corrupt_delimiters),
]}


_NO_SITE = object()


def applicable_operators(formula: str, index: Optional[SiteIndex] = None) -> list[int]:
    """Ids of the operators that find a site in the formula, ascending.

    `index`, when given, must be `SiteIndex(lex(formula))`.
    One index serves every operator: one token scan and at most one
    `match_brackets`, none when the formula has no FuncName token. Each
    operator is asked for its first site only.
    """
    if index is None:
        index = SiteIndex(lex(formula))
    return [op_id for op_id, op in OPERATORS.items()
            if next(iter(op.sites(index)), _NO_SITE) is not _NO_SITE]


def apply_noise_operator(formula: str, op_id: int, rng: random.Random,
                         index: Optional[SiteIndex] = None) -> str:
    """Corrupt the formula with one operator; raises NotApplicable otherwise.

    `index`, when given, must be `SiteIndex(lex(formula))`.
    The operator lists its sites in full here, once. Passing the index that
    `applicable_operators` read reuses its token scan and bracket match;
    without one, a new index scans the tokens again, whichever the operator,
    14-17 included.
    """
    op = OPERATORS.get(op_id)
    if op is None:
        raise ValueError(f"unknown noise operator id {op_id}")
    if index is None:
        index = SiteIndex(lex(formula))
    sites = list(op.sites(index))
    if not sites:
        raise NotApplicable(f"operator {op_id} ({op.name}) does not apply to {formula!r}")
    result = op.rewrite(formula, index.tokens, sites, rng)
    if result == formula:
        raise RuntimeError(f"operator {op_id} ({op.name}) left {formula!r} unchanged")
    return result
