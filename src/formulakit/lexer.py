"""Excel-formula lexer plus the derived views: sketch, normalize, check.

The lexer is total: every input produces a token list whose concatenated
texts reproduce the input byte-for-byte. Characters that fit no rule become
single-character Error tokens instead of aborting, so corpus ingestion never
trips over one bad formula. Spans are byte offsets into the UTF-8 encoding
of the source; a lone surrogate, which has no UTF-8 form, counts as the
three bytes the `surrogatepass` handler gives it.

Out of scope: array formulas, structured references, R1C1 notation, lambda,
formula evaluation, locale-specific separators.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from typing import Optional

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


@dataclass(frozen=True)
class Token:
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
# tile the whole input.
_MASTER = re.compile(
    r"""
    (?P<WS>[ \t\r\n]+)
  | (?P<STRING>"(?:[^"]|"")*")
  | (?P<SHEETQ>'(?:[^']|'')*')
  | (?P<NUMBER>\d+(?:\.\d+)?(?:[eE][+-]?\d+)?|\.\d+)
  | (?P<CELLREF>\$?[A-Za-z]{1,3}\$?\d+(?![A-Za-z0-9_.]))
  | (?P<NAME>[A-Za-z_][A-Za-z0-9_.]*)
  | (?P<OP2><=|>=|<>)
  | (?P<OP1>[=<>+\-*/^&%])
  | (?P<PUNCT>[(),:!{}])
  | (?P<BADSTRING>"(?:[^"]|"")*\Z)
  | (?P<BADSHEET>'(?:[^']|'')*\Z)
  | (?P<ERROR>.)
    """,
    re.VERBOSE | re.DOTALL,
)

_GROUP_KIND = {
    "WS": TokenKind.WHITESPACE,
    "STRING": TokenKind.STRING_LIT,
    "SHEETQ": TokenKind.SHEET_NAME,
    "NUMBER": TokenKind.NUMBER,
    "CELLREF": TokenKind.CELL_REF,
    "NAME": TokenKind.IDENTIFIER,
    "OP2": TokenKind.OPERATOR,
    "OP1": TokenKind.OPERATOR,
    "PUNCT": TokenKind.PUNCT,
    "BADSTRING": TokenKind.STRING_LIT,  # unterminated; check() reports it
    "BADSHEET": TokenKind.SHEET_NAME,
    "ERROR": TokenKind.ERROR,
}

# Operators that cannot act as a prefix (unary) operator. `+`/`-` can, and
# `%` is postfix, so only these make an operator pair ill-formed.
_BINARY_ONLY_OPS = frozenset({"*", "/", "^", "&", "<", ">", "=", "<=", ">=", "<>"})

# Two operands with nothing between them means a dropped operator or range
# colon. FuncName is excluded: a space between a function name and `(` is
# tolerated, and SheetName is handled by the `!` rule.
_OPERAND_KINDS = frozenset({
    TokenKind.CELL_REF, TokenKind.NUMBER, TokenKind.STRING_LIT, TokenKind.IDENTIFIER,
})

# An identifier that reads as two cell references fused together, e.g. the
# `A1A10` left behind by a deleted range colon.
_GLUED_REFS = re.compile(r"^\$?[A-Za-z]{1,3}\$?\d+\$?[A-Za-z]{1,3}\$?\d+$")


def lex(formula: str, catalog: Optional[FunctionCatalog] = None) -> list[Token]:
    """Split a formula into tokens. Total: never raises on malformed input.

    A leading `=` lexes as Operator. Unknown characters become 1-char Error
    tokens. FuncName is assigned to identifiers that appear in the catalog
    and are followed (ignoring whitespace) by `(`.
    """
    if catalog is None:
        catalog = default_catalog()
    raw = [(_GROUP_KIND[m.lastgroup], m.group())  # type: ignore[index]
           for m in _MASTER.finditer(formula)]

    # Contextual classification of identifier-like tokens, right to left so
    # the next token and the next non-whitespace token are at hand; byte
    # offsets count down from the end of the input. Enum members are read
    # into locals once, because each TokenKind.X lookup goes through the
    # enum metaclass and costs more than the rest of a token's test.
    identifier, cell_ref = TokenKind.IDENTIFIER, TokenKind.CELL_REF
    whitespace, sheet_name, func_name = (TokenKind.WHITESPACE, TokenKind.SHEET_NAME,
                                         TokenKind.FUNC_NAME)
    ascii_only = formula.isascii()
    end = len(formula) if ascii_only else len(formula.encode("utf-8", "surrogatepass"))
    tokens: list[Token] = [None] * len(raw)  # type: ignore[list-item]
    next_text: Optional[str] = None
    next_solid: Optional[str] = None
    for i in range(len(raw) - 1, -1, -1):
        kind, text = raw[i]
        if kind is identifier:
            if next_text == "!":
                kind = sheet_name
            elif next_solid == "(" and text.lower() in catalog:
                kind = func_name
        elif kind is cell_ref and next_text == "!":
            # A ref-shaped name directly before `!` is a sheet reference.
            kind = sheet_name
        start = end - (len(text) if ascii_only
                       else len(text.encode("utf-8", "surrogatepass")))
        tokens[i] = Token(kind, text, start, end)
        end = start
        next_text = text
        if kind is not whitespace:
            next_solid = text
    return tokens


_SKETCH_PLACEHOLDER = {
    TokenKind.NUMBER: "number",
    TokenKind.STRING_LIT: "string",
    TokenKind.CELL_REF: "cell",
}


def sketch(formula: str) -> str:
    """Structural fingerprint: constants and cell refs by token type.

    Numbers map to `number`, string literals to `string`, cell references
    to `cell`; whitespace is dropped; everything else stays verbatim.
    Sheet-qualified refs keep their sheet tokens and sketch only the ref.
    """
    parts = []
    for tok in lex(formula):
        if tok.kind is TokenKind.WHITESPACE:
            continue
        parts.append(_SKETCH_PLACEHOLDER.get(tok.kind, tok.text))
    return "".join(parts)


_UPPERCASED_KINDS = frozenset({
    TokenKind.CELL_REF,
    TokenKind.FUNC_NAME,
    TokenKind.IDENTIFIER,
    TokenKind.SHEET_NAME,
})


def normalize(formula: str, tokens: Optional[list[Token]] = None) -> str:
    """Comparison form: whitespace removed, refs and identifiers upper-cased.

    String literal contents are left untouched. Idempotent. `tokens`, when
    given, must be `lex(formula)`; it saves lexing the formula again.
    """
    if tokens is None:
        tokens = lex(formula)
    parts = []
    for tok in tokens:
        if tok.kind is TokenKind.WHITESPACE:
            continue
        if tok.kind in _UPPERCASED_KINDS:
            parts.append(tok.text.upper())
        else:
            parts.append(tok.text)
    return "".join(parts)


def check(formula: str, catalog: Optional[FunctionCatalog] = None,
          tokens: Optional[list[Token]] = None) -> list[Diagnostic]:
    """Lightweight well-formedness scan; empty list means no issue found.

    Reports unbalanced parentheses, unterminated strings, arity violations
    for catalog functions, ill-formed operator adjacency, and leftover lex
    errors, ordered by span start. Not a full parser: a clean result is a
    necessary, not sufficient, validity condition. `tokens`, when given,
    must be `lex(formula, catalog)`. Linear in the token count.
    """
    if catalog is None:
        catalog = default_catalog()
    if tokens is None:
        tokens = lex(formula, catalog)
    diags: list[Diagnostic] = []

    solid = [t for t in tokens if t.kind is not TokenKind.WHITESPACE]

    # Parens.
    depth = 0
    open_stack: list[Token] = []
    for tok in solid:
        if tok.kind is TokenKind.PUNCT and tok.text == "(":
            open_stack.append(tok)
            depth += 1
        elif tok.kind is TokenKind.PUNCT and tok.text == ")":
            if depth == 0:
                diags.append(Diagnostic(
                    DiagnosticCode.UNBALANCED_PARENS, tok.start, tok.end,
                    "closing parenthesis with no matching opener"))
            else:
                depth -= 1
                open_stack.pop()
    for tok in open_stack:
        diags.append(Diagnostic(
            DiagnosticCode.UNBALANCED_PARENS, tok.start, tok.end,
            "unclosed parenthesis"))

    # Strings and sheet quotes that never close.
    for tok in tokens:
        if tok.kind is TokenKind.STRING_LIT and not _closed(tok.text, '"'):
            diags.append(Diagnostic(
                DiagnosticCode.UNTERMINATED_STRING, tok.start, tok.end,
                "string literal is not terminated"))
        elif tok.kind is TokenKind.SHEET_NAME and tok.text.startswith("'") and not _closed(tok.text, "'"):
            diags.append(Diagnostic(
                DiagnosticCode.UNTERMINATED_STRING, tok.start, tok.end,
                "quoted sheet name is not terminated"))

    # Arity of known functions; calls whose parens never close are absent
    # from call_arguments and were reported above.
    for idx, args in call_arguments(tokens).items():
        tok = tokens[idx]
        limits = catalog.get(tok.text)
        if limits is None:
            continue
        argc = len(args)
        lo, hi = limits
        if argc < lo or (hi is not None and argc > hi):
            bound = "unbounded" if hi is None else str(hi)
            diags.append(Diagnostic(
                DiagnosticCode.BAD_ARITY, tok.start, tok.end,
                f"{tok.text.upper()} takes {lo}..{bound} arguments, got {argc}"))

    # Operator adjacency. The second operator of a pair must be able to act
    # as a prefix operator; `%` is postfix so it never invalidates a pair.
    for a, b in zip(solid, solid[1:]):
        if a.kind is TokenKind.OPERATOR and b.kind is TokenKind.OPERATOR:
            if b.text in _BINARY_ONLY_OPS and a.text != "%":
                diags.append(Diagnostic(
                    DiagnosticCode.INVALID_OPERATOR_SEQUENCE, a.start, b.end,
                    f"operator {a.text!r} directly followed by {b.text!r}"))
        elif a.kind is TokenKind.OPERATOR and a.text != "%" \
                and b.kind is TokenKind.PUNCT and b.text in "),":
            diags.append(Diagnostic(
                DiagnosticCode.INVALID_OPERATOR_SEQUENCE, a.start, b.end,
                f"operator {a.text!r} has no right operand"))
        elif a.kind in _OPERAND_KINDS and (b.kind in _OPERAND_KINDS
                                           or b.kind is TokenKind.SHEET_NAME):
            diags.append(Diagnostic(
                DiagnosticCode.INVALID_OPERATOR_SEQUENCE, a.start, b.end,
                "operands with no operator between them"))
        # A comma flush against `)` has a missing operand (e.g. `SUM(A1,)`).
        if a.kind is TokenKind.PUNCT and a.text == "," and b.kind is TokenKind.PUNCT and b.text == ")":
            diags.append(Diagnostic(
                DiagnosticCode.INVALID_OPERATOR_SEQUENCE, a.start, b.end,
                "argument separator directly before closing parenthesis"))

    if solid:
        last = solid[-1]
        if last.kind is TokenKind.OPERATOR and last.text != "%":
            diags.append(Diagnostic(
                DiagnosticCode.INVALID_OPERATOR_SEQUENCE, last.start, last.end,
                f"formula ends with operator {last.text!r}"))

    # Range shape: `:` is only the range operator between two cell refs here
    # (row/column ranges like `1:1` or `A:A` are outside the modeled grammar).
    depth = 0
    for pos, tok in enumerate(solid):
        if tok.kind is TokenKind.PUNCT:
            if tok.text == "(":
                depth += 1
            elif tok.text == ")":
                depth = max(0, depth - 1)
            elif tok.text == ",":
                if depth == 0:
                    diags.append(Diagnostic(
                        DiagnosticCode.INVALID_OPERATOR_SEQUENCE, tok.start, tok.end,
                        "argument separator outside any function call"))
            elif tok.text == ":":
                prev_ok = pos > 0 and solid[pos - 1].kind is TokenKind.CELL_REF
                next_ok = pos + 1 < len(solid) and solid[pos + 1].kind is TokenKind.CELL_REF
                if not (prev_ok and next_ok):
                    diags.append(Diagnostic(
                        DiagnosticCode.INVALID_OPERATOR_SEQUENCE, tok.start, tok.end,
                        "range colon not between two cell references"))
        elif tok.kind is TokenKind.IDENTIFIER and _GLUED_REFS.match(tok.text):
            diags.append(Diagnostic(
                DiagnosticCode.INVALID_OPERATOR_SEQUENCE, tok.start, tok.end,
                "two cell references fused together"))
        elif tok.kind is TokenKind.SHEET_NAME and tok.text.startswith("'"):
            nxt = solid[pos + 1] if pos + 1 < len(solid) else None
            if nxt is None or nxt.text != "!":
                diags.append(Diagnostic(
                    DiagnosticCode.INVALID_OPERATOR_SEQUENCE, tok.start, tok.end,
                    "quoted sheet name not followed by '!'"))

    for tok in tokens:
        if tok.kind is TokenKind.ERROR:
            diags.append(Diagnostic(
                DiagnosticCode.LEX_ERROR, tok.start, tok.end,
                f"unrecognized character {tok.text!r}"))

    diags.sort(key=lambda d: (d.start, d.end, d.code.value))
    return diags


def _closed(text: str, quote: str) -> bool:
    """True if a quote-delimited token text has a proper closing quote."""
    if len(text) < 2 or not text.startswith(quote):
        return False
    i = 1
    while i < len(text):
        if text[i] == quote:
            if i + 1 < len(text) and text[i + 1] == quote:
                i += 2  # doubled quote = escaped
                continue
            return i == len(text) - 1
        i += 1
    return False


def call_arguments(tokens: list[Token]) -> dict[int, list[tuple[int, int]]]:
    """Top-level argument ranges of every closed call, in one stack pass.

    Maps the index of each FuncName token whose next non-whitespace token is
    `(`, and whose `(` finds its matching `)`, to the token-index ranges
    [a, b) of the call's top-level arguments, whitespace included. `F()` and
    `F( )` map to []; `F(,)` has two empty arguments. A call whose paren
    never closes is absent, and a stray `)` closes nothing. Keys come in
    token order. Linear in len(tokens), however deep the nesting.
    """
    whitespace, punct, func_name = TokenKind.WHITESPACE, TokenKind.PUNCT, TokenKind.FUNC_NAME
    calls: dict[int, list[tuple[int, int]]] = {}
    # One frame per open paren: [FuncName index or -1, argument start, ranges].
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
                stack.append([func_idx, k + 1, args])
                if func_idx >= 0:
                    calls[func_idx] = args
            elif text == "," and stack:
                frame = stack[-1]
                frame[2].append((frame[1], k))
                frame[1] = k + 1
            elif text == ")" and stack:
                owner, arg_start, args = stack.pop()
                if k > arg_start or args:
                    args.append((arg_start, k))
                if len(args) == 1 and all(
                        tokens[x].kind is whitespace for x in range(arg_start, k)):
                    args.clear()  # the parens hold only whitespace
        func_idx = k if kind is func_name else -1
    for owner, _, _ in stack:
        calls.pop(owner, None)  # never closed
    return calls
