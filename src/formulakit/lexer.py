"""Excel-formula lexer plus the derived views: sketch, normalize, check.

The lexer is total: every input produces a token list whose concatenated
texts reproduce the input byte-for-byte. Characters that fit no rule become
single-character Error tokens instead of aborting, so corpus ingestion never
trips over one bad formula. Spans are byte offsets into the UTF-8 encoding
of the source; a lone surrogate, which has no UTF-8 form, counts as the
three bytes the `surrogatepass` handler gives it.

A `Token` is a `NamedTuple` of (kind, text, start, end): immutable, equal
and hashed by value, and a tuple underneath, so `lex` builds each one with
a single `tuple.__new__` call, where a frozen dataclass's `__init__` sets
every field through `object.__setattr__` at several times the cost.
The views read token fields by name: CPython 3.11 unpacks and indexes only
exact tuples on its fast path, so a subclass's field access is the cheaper
form there. Each view reads the `TokenKind` members it tests into locals
once per call, because a `TokenKind.X` lookup goes through the enum
metaclass and a set or dict probe keyed on a member calls the Python-level
`Enum.__hash__`; kinds are tested by identity or with tuples of locals,
whose `in` compares by identity first.

`match_brackets` is the one paren and comma matcher: its single stack pass
gives `check` its bracket and arity diagnostics and the arity and swap
noise operators their call arguments.

Out of scope: array formulas, structured references, R1C1 notation, lambda,
formula evaluation, locale-specific separators.
"""

from __future__ import annotations

import re
import string
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple, Optional

from .catalog import FunctionCatalog, default_catalog


class TokenKind(Enum):
    CELL_REF = "CellRef"
    NUMBER = "Number"
    STRING_LIT = "StringLit"
    FUNC_NAME = "FuncName"
    IDENTIFIER = "Identifier"
    SHEET_NAME = "SheetName"
    PUNCT = "Punct"
    OPERATOR = "Operator"
    WHITESPACE = "Whitespace"
    ERROR = "Error"


class Token(NamedTuple):
    kind: TokenKind
    text: str
    start: int  # byte offset, inclusive
    end: int  # byte offset, exclusive

    @property
    def span(self) -> tuple[int, int]:
        return (self.start, self.end)


class DiagnosticCode(Enum):
    UNBALANCED_PARENS = "UnbalancedParens"
    BAD_ARITY = "BadArity"
    UNTERMINATED_STRING = "UnterminatedString"
    INVALID_OPERATOR_SEQUENCE = "InvalidOperatorSequence"
    LEX_ERROR = "LexError"


@dataclass(frozen=True)
class Diagnostic:
    code: DiagnosticCode
    start: int
    end: int
    message: str


# One master pattern, alternatives ordered so the longest sensible match wins.
# CELLREF carries a lookahead so `A1B2` falls through to NAME, and NUMBER is
# tried before CELLREF so `1E5` reads as a number, not a cell reference.
# ERROR takes any single character no other rule matches, so the matches
# tile the whole input. The groups capture nothing: `findall` then returns
# the token texts without building a match object per token, which costs
# more than the matching itself, and `lex` recovers each kind from the
# text's first character (_FIRST_CHAR_KIND).
_MASTER = re.compile(
    r"""
    [ \t\r\n]+                                   # WS
  | "(?:[^"]|"")*"                               # STRING
  | '(?:[^']|'')*'                               # SHEETQ
  | \d+(?:\.\d+)?(?:[eE][+-]?\d+)?|\.\d+          # NUMBER
  | \$?[A-Za-z]{1,3}\$?\d+(?![A-Za-z0-9_.])       # CELLREF
  | [A-Za-z_][A-Za-z0-9_.]*                      # NAME
  | <=|>=|<>                                     # OP2
  | [=<>+\-*/^&%]                                # OP1
  | [(),:!{}]                                    # PUNCT
  | "(?:[^"]|"")*\Z                              # BADSTRING, unterminated
  | '(?:[^']|'')*\Z                              # BADSHEET, unterminated
  | .                                            # ERROR
    """,
    re.VERBOSE | re.DOTALL,
)

# The kind of a token by its first character, for the characters that start
# only one kind. A letter starts a CELLREF or a NAME: the text is a CELLREF
# exactly when it has a reference's shape (_CELL_SHAPE), since NAME only
# matches where CELLREF's lookahead failed and so always runs past such a
# prefix. `$` and `.` start a CELLREF and a NUMBER, or stand alone as
# ERROR; any other character starts a NUMBER (a Unicode digit, which `\d`
# matches) or is a one-character ERROR. Unterminated strings and sheet
# names keep the string and sheet kinds; check() reports them.
_FIRST_CHAR_KIND = {ch: kind for chars, kind in (
    (" \t\r\n", TokenKind.WHITESPACE), ('"', TokenKind.STRING_LIT), ("'", TokenKind.SHEET_NAME),
    ("0123456789", TokenKind.NUMBER), (string.ascii_letters + "_", TokenKind.IDENTIFIER),
    ("=<>+-*/^&%", TokenKind.OPERATOR), ("(),:!{}", TokenKind.PUNCT),
) for ch in chars}

_CELL_SHAPE = re.compile(r"[A-Za-z]{1,3}\$?\d+")


def _rare_kind(text: str) -> TokenKind:
    """Kind of a token whose first character is not in _FIRST_CHAR_KIND."""
    if len(text) == 1 and not text.isdecimal():
        return TokenKind.ERROR
    return TokenKind.CELL_REF if text[0] == "$" else TokenKind.NUMBER


# Operators that cannot act as a prefix (unary) operator. `+`/`-` can, and
# `%` is postfix, so only these make an operator pair ill-formed.
_BINARY_ONLY_OPS = frozenset({"*", "/", "^", "&", "<", ">", "=", "<=", ">=", "<>"})

# An identifier that reads as two cell references fused together, e.g. the
# `A1A10` left behind by a deleted range colon.
_GLUED_REFS = re.compile(r"^\$?[A-Za-z]{1,3}\$?\d+\$?[A-Za-z]{1,3}\$?\d+$")


def lex(formula: str, catalog: Optional[FunctionCatalog] = None) -> list[Token]:
    """Split a formula into tokens. Total: never raises on malformed input.

    A leading `=` lexes as Operator. Unknown characters become 1-char Error
    tokens. FuncName is assigned to identifiers, and to ref-shaped names
    such as `LOG10`, that appear in the catalog and are followed (ignoring
    whitespace) by `(`; a name directly before `!` is a SheetName instead.
    """
    if catalog is None:
        catalog = default_catalog()
    texts = _MASTER.findall(formula)

    # One pass right to left, so the next token and the next non-whitespace
    # token are at hand for the contextual kinds; byte offsets count down
    # from the end of the input.
    new, token = tuple.__new__, Token
    first_char_kind, cell_shape = _FIRST_CHAR_KIND.get, _CELL_SHAPE.fullmatch
    identifier, cell_ref = TokenKind.IDENTIFIER, TokenKind.CELL_REF
    whitespace, sheet_name, func_name = (TokenKind.WHITESPACE, TokenKind.SHEET_NAME,
                                         TokenKind.FUNC_NAME)
    ascii_only = formula.isascii()
    end = len(formula) if ascii_only else len(formula.encode("utf-8", "surrogatepass"))
    tokens: list[Token] = [None] * len(texts)  # type: ignore[list-item]
    next_text: Optional[str] = None
    next_solid: Optional[str] = None
    for i in range(len(texts) - 1, -1, -1):
        text = texts[i]
        kind = first_char_kind(text[0])
        if kind is None:
            kind = _rare_kind(text)
        elif kind is identifier and text[-1].isdecimal() and cell_shape(text):
            kind = cell_ref
        if kind is identifier or kind is cell_ref:
            if next_text == "!":
                kind = sheet_name
            elif next_solid == "(" and text.lower() in catalog:
                kind = func_name
        start = end - (len(text) if ascii_only
                       else len(text.encode("utf-8", "surrogatepass")))
        tokens[i] = new(token, (kind, text, start, end))
        end = start
        next_text = text
        if kind is not whitespace:
            next_solid = text
    return tokens


def sketch(formula: str) -> str:
    """Structural fingerprint: constants and cell refs by token type.

    Numbers map to `number`, string literals to `string`, cell references
    to `cell`; whitespace is dropped; everything else stays verbatim.
    Sheet-qualified refs keep their sheet tokens and sketch only the ref.
    """
    return sketch_tokens(lex(formula))


def sketch_tokens(tokens: list[Token], upper: bool = False) -> str:
    """`sketch` of a lexed formula. With `upper`, the texts `normalize`
    upper-cases (function, identifier and sheet names) are upper-cased too,
    so the sketch of a formula with no whitespace token equals the sketch
    of its normalized text."""
    whitespace, number, string_lit, cell_ref = (TokenKind.WHITESPACE, TokenKind.NUMBER,
                                                TokenKind.STRING_LIT, TokenKind.CELL_REF)
    uppercased = (TokenKind.FUNC_NAME, TokenKind.IDENTIFIER, TokenKind.SHEET_NAME) if upper else ()
    parts = []
    append = parts.append
    for tok in tokens:
        kind = tok.kind
        if kind is whitespace:
            continue
        if kind is number:
            append("number")
        elif kind is string_lit:
            append("string")
        elif kind is cell_ref:
            append("cell")
        elif kind in uppercased:
            append(tok.text.upper())
        else:
            append(tok.text)
    return "".join(parts)


def normalize(formula: str, tokens: Optional[list[Token]] = None) -> str:
    """Comparison form: whitespace removed, refs and identifiers upper-cased.

    String literal contents are left untouched. Idempotent. `tokens`, when
    given, must be `lex(formula)`; it saves lexing the formula again.
    """
    if tokens is None:
        tokens = lex(formula)
    whitespace = TokenKind.WHITESPACE
    uppercased = (TokenKind.CELL_REF, TokenKind.FUNC_NAME, TokenKind.IDENTIFIER,
                  TokenKind.SHEET_NAME)
    parts = []
    append = parts.append
    for tok in tokens:
        kind = tok.kind
        if kind is whitespace:
            continue
        append(tok.text.upper() if kind in uppercased else tok.text)
    return "".join(parts)


_DROP_WHITESPACE = str.maketrans("", "", " \t\r\n")


def fold(text: str) -> str:
    """`text` with the lexer's whitespace characters removed, upper-cased.

    fold(normalize(x)) == fold(x) for every x: normalize only drops
    whitespace tokens and upper-cases token texts, and `str.upper` maps
    each code point on its own, is idempotent and never yields whitespace.
    So two formulas whose folds differ have different normalized forms,
    which a caller can tell without lexing either of them.
    """
    return text.translate(_DROP_WHITESPACE).upper()


def check(formula: str, catalog: Optional[FunctionCatalog] = None,
          tokens: Optional[list[Token]] = None,
          brackets: Optional[Brackets] = None) -> list[Diagnostic]:
    """Lightweight well-formedness scan; empty list means no issue found.

    Reports unbalanced parentheses, unterminated strings, arity violations
    for catalog functions, ill-formed operator adjacency, and leftover lex
    errors, ordered by span start. Not a full parser: a clean result is a
    necessary, not sufficient, validity condition. `tokens`, when given,
    must be `lex(formula, catalog)`, and `brackets`, when given, must be
    `match_brackets` of those tokens (a repair synthesiser that matched them
    for the noise operators passes its pass here). One `match_brackets`
    pass gives the bracket and arity diagnostics, and one walk over the
    non-whitespace tokens the rest. Linear in the token count.
    """
    if catalog is None:
        catalog = default_catalog()
    if tokens is None:
        tokens = lex(formula, catalog)
    whitespace, punct, operator = TokenKind.WHITESPACE, TokenKind.PUNCT, TokenKind.OPERATOR
    string_lit, sheet_name, error = TokenKind.STRING_LIT, TokenKind.SHEET_NAME, TokenKind.ERROR
    cell_ref, identifier = TokenKind.CELL_REF, TokenKind.IDENTIFIER
    # Two operands with nothing between them means a dropped operator or
    # range colon. FuncName is excluded: a space between a function name
    # and `(` is tolerated, and SheetName is handled by the `!` rule.
    operands = (cell_ref, TokenKind.NUMBER, string_lit, identifier)
    operands_or_sheet = operands + (sheet_name,)
    unbalanced, unterminated = DiagnosticCode.UNBALANCED_PARENS, DiagnosticCode.UNTERMINATED_STRING
    bad_sequence = DiagnosticCode.INVALID_OPERATOR_SEQUENCE
    diags: list[Diagnostic] = []
    append = diags.append

    if brackets is None:
        brackets = match_brackets(tokens)
    for k in brackets.stray:
        tok = tokens[k]
        if tok.text == ")":
            append(Diagnostic(unbalanced, tok.start, tok.end,
                              "closing parenthesis with no matching opener"))
        else:
            append(Diagnostic(bad_sequence, tok.start, tok.end,
                              "argument separator outside any function call"))
    for k in brackets.unclosed:
        tok = tokens[k]
        append(Diagnostic(unbalanced, tok.start, tok.end, "unclosed parenthesis"))
    # Arity of each call (`lex` takes every FuncName from the catalog); an unclosed call has none.
    for idx, args in brackets.calls.items():
        tok = tokens[idx]
        argc = len(args)
        lo, hi = catalog.get(tok.text)
        if argc < lo or (hi is not None and argc > hi):
            bound = "unbounded" if hi is None else str(hi)
            append(Diagnostic(
                DiagnosticCode.BAD_ARITY, tok.start, tok.end,
                f"{tok.text.upper()} takes {lo}..{bound} arguments, got {argc}"))

    # The other rules read each non-whitespace token beside its successor
    # (None after the last). The second operator of a pair must be able to
    # act as a prefix operator; `%` is postfix, so it never invalidates a
    # pair. `:` is only the range operator between two cell refs here
    # (row/column ranges like `1:1` or `A:A` are outside the modeled grammar).
    solid = [t for t in tokens if t.kind is not whitespace]
    before = None  # the kind of the previous non-whitespace token
    for tok, nxt in zip(solid, solid[1:] + [None]):
        kind, text = tok.kind, tok.text
        if kind is operator and text != "%":
            if nxt is None:
                append(Diagnostic(bad_sequence, tok.start, tok.end,
                                  f"formula ends with operator {text!r}"))
            elif nxt.kind is operator:
                if nxt.text in _BINARY_ONLY_OPS:
                    append(Diagnostic(bad_sequence, tok.start, nxt.end,
                                      f"operator {text!r} directly followed by {nxt.text!r}"))
            elif nxt.kind is punct and nxt.text in "),":
                append(Diagnostic(bad_sequence, tok.start, nxt.end,
                                  f"operator {text!r} has no right operand"))
        elif kind is punct:
            if text == ",":
                # A comma flush against `)` has a missing operand (`SUM(A1,)`).
                if nxt is not None and nxt.text == ")" and nxt.kind is punct:
                    append(Diagnostic(bad_sequence, tok.start, nxt.end,
                                      "argument separator directly before closing parenthesis"))
            elif text == ":":
                if not (before is cell_ref and nxt is not None and nxt.kind is cell_ref):
                    append(Diagnostic(bad_sequence, tok.start, tok.end,
                                      "range colon not between two cell references"))
        elif kind in operands:
            if nxt is not None and nxt.kind in operands_or_sheet:
                append(Diagnostic(bad_sequence, tok.start, nxt.end,
                                  "operands with no operator between them"))
            if kind is string_lit:
                if not quote_closed(text):
                    append(Diagnostic(unterminated, tok.start, tok.end,
                                      "string literal is not terminated"))
            elif kind is identifier and _GLUED_REFS.match(text):
                append(Diagnostic(bad_sequence, tok.start, tok.end,
                                  "two cell references fused together"))
        elif kind is sheet_name:
            if text.startswith("'"):
                if not quote_closed(text):
                    append(Diagnostic(unterminated, tok.start, tok.end,
                                      "quoted sheet name is not terminated"))
                if nxt is None or nxt.text != "!":
                    append(Diagnostic(bad_sequence, tok.start, tok.end,
                                      "quoted sheet name not followed by '!'"))
        elif kind is error:
            append(Diagnostic(DiagnosticCode.LEX_ERROR, tok.start, tok.end,
                              f"unrecognized character {text!r}"))
        before = kind

    diags.sort(key=lambda d: (d.start, d.end, d.code.value))
    return diags


def quote_closed(text: str) -> bool:
    """True if a StringLit or quoted SheetName token's text has its closing
    quote. `lex` tries the closed STRING and SHEETQ alternatives before the
    unterminated ones, so an unterminated token never ends in its opening
    quote."""
    return len(text) >= 2 and text[-1] == text[0]


class Brackets(NamedTuple):
    """The `match_brackets` of a token list, by token index."""
    calls: dict[int, list[tuple[int, int]]]  # FuncName -> argument ranges
    stray: list[int]  # `)` and `,` outside every paren
    unclosed: list[int]  # `(` never closed


def match_brackets(tokens: list[Token]) -> Brackets:
    """Parens and argument commas of a token list, in one stack pass.

    `calls` maps the index of each FuncName token whose next non-whitespace
    token is `(`, and whose `(` finds its matching `)`, to the token-index
    ranges [a, b) of the call's top-level arguments, whitespace included.
    `F()` and `F( )` map to []; `F(,)` has two empty arguments. A call whose
    paren never closes is absent; its `(` is in `unclosed`. A `)` or `,`
    outside every paren is in `stray`. Keys and lists come in token order.
    Linear in len(tokens), however deep the nesting.
    """
    whitespace, punct, func_name = TokenKind.WHITESPACE, TokenKind.PUNCT, TokenKind.FUNC_NAME
    calls: dict[int, list[tuple[int, int]]] = {}
    stray: list[int] = []
    # One frame per open paren: [its index, FuncName index or -1, arg start, ranges].
    stack: list[list] = []
    func_idx = -1  # the FuncName just before the current token, if any
    for k, tok in enumerate(tokens):
        kind = tok.kind
        if kind is whitespace:
            continue
        if kind is punct:
            text = tok.text
            if text == "(":
                args: list[tuple[int, int]] = []
                stack.append([k, func_idx, k + 1, args])
                if func_idx >= 0:
                    calls[func_idx] = args
            elif text in ")," and not stack:
                stray.append(k)
            elif text == ",":
                frame = stack[-1]
                frame[3].append((frame[2], k))
                frame[2] = k + 1
            elif text == ")":
                _, _, arg_start, args = stack.pop()
                if k > arg_start or args:
                    args.append((arg_start, k))
                if len(args) == 1 and all(
                        tokens[x].kind is whitespace for x in range(arg_start, k)):
                    args.clear()  # the parens hold only whitespace
        func_idx = k if kind is func_name else -1
    for _, owner, _, _ in stack:
        calls.pop(owner, None)  # never closed
    return Brackets(calls, stray, [frame[0] for frame in stack])
