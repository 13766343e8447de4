import random
import re
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from formulakit import lexer, noise
from formulakit.catalog import CatalogError, FunctionCatalog, default_catalog
from formulakit.lexer import (Diagnostic, DiagnosticCode, Token, TokenKind, call_arguments,
                              check, lex, normalize, sketch)
from formulakit.noise import applicable_operators
from formulakit.synth import (random_cell, random_formula, random_number, random_range,
                              random_string_literal, synth_corpus)


def kinds(formula):
    return [t.kind for t in lex(formula)]


def texts(formula):
    return [t.text for t in lex(formula)]


K = TokenKind


class TestLex:
    def test_sumif_full_example(self):
        toks = lex('=SUMIF(B1:B5, "Not available", A1:A5)')
        expected = [
            (K.OPERATOR, "="), (K.FUNC_NAME, "SUMIF"), (K.PUNCT, "("),
            (K.CELL_REF, "B1"), (K.PUNCT, ":"), (K.CELL_REF, "B5"),
            (K.PUNCT, ","), (K.WHITESPACE, " "), (K.STRING_LIT, '"Not available"'),
            (K.PUNCT, ","), (K.WHITESPACE, " "), (K.CELL_REF, "A1"),
            (K.PUNCT, ":"), (K.CELL_REF, "A5"), (K.PUNCT, ")"),
        ]
        assert [(t.kind, t.text) for t in toks] == expected

    def test_empty_input(self):
        assert lex("") == []

    def test_edate_comparison_kinds(self):
        toks = lex("=B2<=EDATE(TODAY(),-33)")
        assert [(t.kind, t.text) for t in toks] == [
            (K.OPERATOR, "="), (K.CELL_REF, "B2"), (K.OPERATOR, "<="),
            (K.FUNC_NAME, "EDATE"), (K.PUNCT, "("), (K.FUNC_NAME, "TODAY"),
            (K.PUNCT, "("), (K.PUNCT, ")"), (K.PUNCT, ","), (K.OPERATOR, "-"),
            (K.NUMBER, "33"), (K.PUNCT, ")"),
        ]
        assert "".join(t.text for t in toks) == "=B2<=EDATE(TODAY(),-33)"

    def test_dollar_refs(self):
        assert kinds("=$A$1+$AY$132") == [K.OPERATOR, K.CELL_REF, K.OPERATOR, K.CELL_REF]

    def test_funcname_needs_catalog_and_paren(self):
        # catalog name without a following paren stays an identifier
        assert kinds("=SUM") == [K.OPERATOR, K.IDENTIFIER]
        # unknown name followed by a paren stays an identifier too
        assert kinds("=FOO(A1)") == [K.OPERATOR, K.IDENTIFIER, K.PUNCT, K.CELL_REF, K.PUNCT]
        # whitespace between name and paren is ignored for classification
        assert kinds("=SUM (A1)")[1] is K.FUNC_NAME

    def test_sheet_names(self):
        assert kinds("'Sheet 1'!A10") == [K.SHEET_NAME, K.PUNCT, K.CELL_REF]
        assert kinds("Data!A1") == [K.SHEET_NAME, K.PUNCT, K.CELL_REF]

    def test_identifier_swallows_ref_prefix(self):
        assert kinds("A1B2") == [K.IDENTIFIER]
        assert kinds("Sheet1") == [K.IDENTIFIER]

    def test_number_wins_over_ref_shape(self):
        assert kinds("1E5") == [K.NUMBER]
        assert kinds("=E5") == [K.OPERATOR, K.CELL_REF]

    def test_unknown_chars_become_single_error_tokens(self):
        toks = lex("=A1@#?")
        assert [t.kind for t in toks[-3:]] == [K.ERROR] * 3
        assert "".join(t.text for t in toks) == "=A1@#?"

    def test_unterminated_string_round_trips(self):
        toks = lex('=IF(A1,"unclosed')
        assert toks[-1].kind is K.STRING_LIT
        assert "".join(t.text for t in toks) == '=IF(A1,"unclosed'

    def test_escaped_quotes_stay_one_token(self):
        toks = lex('="ab""cd"')
        assert [t.text for t in toks] == ["=", '"ab""cd"']

    def test_spans_are_contiguous_byte_offsets(self):
        formula = '=IF(Ä1,"añ b",2)'  # non-ascii exercises byte spans
        toks = lex(formula)
        pos = 0
        for t in toks:
            assert t.start == pos
            assert t.end - t.start == len(t.text.encode("utf-8"))
            assert t.text != ""
            pos = t.end
        assert pos == len(formula.encode("utf-8"))

    def test_lone_surrogate_is_one_error_token(self):
        # A JSON "\ud800" escape decodes to a lone surrogate; it has no
        # UTF-8 form, and its span is the three surrogatepass bytes.
        assert lex("\ud800") == [Token(K.ERROR, "\ud800", 0, 3)]
        toks = lex("=A1&\ud800b")
        assert [(t.text, t.start, t.end) for t in toks[-2:]] == [("\ud800", 4, 7), ("b", 7, 8)]

    def test_purity(self):
        f = "=SUM(A1:A10)+'My Sheet'!B2"
        assert lex(f) == lex(f)

    @given(st.text(max_size=60))
    @settings(max_examples=300, deadline=None)
    def test_round_trip_any_text(self, s):
        assert "".join(t.text for t in lex(s)) == s

    def test_round_trip_grammar_corpus(self):
        rng = random.Random(42)
        for _ in range(300):
            f = random_formula(rng)
            assert "".join(t.text for t in lex(f)) == f


# The three-pass lexer that the single-pass lex replaced, with its own
# pattern (no catch-all Error alternative), kept as the reference.
_REF_MASTER = re.compile(
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
    """,
    re.VERBOSE,
)
_REF_GROUP_KIND = {
    "WS": K.WHITESPACE, "STRING": K.STRING_LIT, "SHEETQ": K.SHEET_NAME, "NUMBER": K.NUMBER,
    "CELLREF": K.CELL_REF, "NAME": K.IDENTIFIER, "OP2": K.OPERATOR, "OP1": K.OPERATOR,
    "PUNCT": K.PUNCT, "BADSTRING": K.STRING_LIT, "BADSHEET": K.SHEET_NAME,
}


def _ref_lex(formula, catalog=None):
    if catalog is None:
        catalog = default_catalog()
    raw = []
    pos = 0
    while pos < len(formula):
        m = _REF_MASTER.match(formula, pos)
        if m is None:
            raw.append((K.ERROR, formula[pos]))
            pos += 1
            continue
        raw.append((_REF_GROUP_KIND[m.lastgroup], m.group()))
        pos = m.end()
    count = len(raw)
    next_solid = [None] * count
    following = None
    for i in range(count - 1, -1, -1):
        next_solid[i] = following
        if raw[i][0] is not K.WHITESPACE:
            following = raw[i][1]
    tokens = []
    byte_pos = 0
    for i, (kind, text) in enumerate(raw):
        if kind is K.IDENTIFIER:
            if i + 1 < count and raw[i + 1][1] == "!":
                kind = K.SHEET_NAME
            elif next_solid[i] == "(" and text.lower() in catalog:
                kind = K.FUNC_NAME
        elif kind is K.CELL_REF and i + 1 < count and raw[i + 1][1] == "!":
            kind = K.SHEET_NAME
        end = byte_pos + len(text.encode("utf-8", "surrogatepass"))
        tokens.append(Token(kind, text, byte_pos, end))
        byte_pos = end
    return tokens


class TestLexReference:
    @given(st.text(alphabet=st.sampled_from(list('AZaz019$:!,()"\' \t\n=<>+-*/^&%._#;@Äé€'))
                   | st.characters(), max_size=40))
    @settings(max_examples=300, deadline=None)
    @example("\ud800")
    def test_matches_reference_on_any_text(self, s):
        assert lex(s) == _ref_lex(s)

    def test_matches_reference_on_corpus(self):
        custom = FunctionCatalog.from_lines(["MYFN,1,1", "A,0,*"])
        # Whitespace before `!` or `(` separates the two lookahead rules.
        edge = ["=Data !A1", "=A1 !B2", "=A1!B2", "=sum (A1)", "=SUM\n(A1) ", "=SUM!A1",
                "='S' !A1", "=myfn (1)", "=Ä1+\"é\"&A1", "'open", '"open']
        for formula in edge + synth_corpus(1000, seed=15):
            assert lex(formula) == _ref_lex(formula)
            assert lex(formula, custom) == _ref_lex(formula, custom)


class TestSketch:
    def test_sum_range_sketch(self):
        assert sketch("=SUM(A1:A10)") == "=SUM(cell:cell)"

    def test_no_constants(self):
        assert sketch("=TODAY()") == "=TODAY()"

    def test_mixed_constants(self):
        assert sketch('=IF(A1>10,"yes",2)') == "=IF(cell>number,string,number)"

    def test_whitespace_dropped(self):
        assert sketch("=SUM( A1 )") == sketch("=SUM(A1)")

    def test_sheet_prefix_retained(self):
        assert sketch("'Sheet 1'!A10") == "'Sheet 1'!cell"

    def test_invariant_under_literal_replacement(self):
        base = '=IF(A1>10,"yes",2)'
        for variant in ['=IF(B7>99,"no",5)', '=IF($C$2>0,"maybe",123.5)']:
            assert sketch(variant) == sketch(base)


class TestNormalize:
    def test_spaces_and_case(self):
        assert normalize("=sum( a1 : a10 )") == "=SUM(A1:A10)"

    def test_already_normalized(self):
        assert normalize("=SUM(A1:A10)") == "=SUM(A1:A10)"

    def test_string_contents_untouched(self):
        assert normalize('=IF(A1=1,"Yes x",0)') == '=IF(A1=1,"Yes x",0)'

    def test_idempotent(self):
        rng = random.Random(7)
        for _ in range(200):
            f = random_formula(rng)
            once = normalize(f)
            assert normalize(once) == once

    def test_token_count_preserved_modulo_whitespace(self):
        rng = random.Random(8)
        for _ in range(200):
            f = random_formula(rng)
            solid = [t for t in lex(f) if t.kind is not K.WHITESPACE]
            assert len(lex(normalize(f))) == len(solid)


class TestCheck:
    def test_iserror_wrong_arity_flagged(self):
        diags = check('=IF(ISERROR(G6*1.2,""))')
        arity = [d for d in diags if d.code is DiagnosticCode.BAD_ARITY]
        assert arity, diags
        # the ISERROR call specifically is flagged
        f = '=IF(ISERROR(G6*1.2,""))'
        span_texts = {f.encode()[d.start:d.end].decode() for d in arity}
        assert "ISERROR" in span_texts

    def test_well_formed_is_clean(self):
        assert check("=SUM(A1:A10)") == []
        assert check('=SUMIF(B1:B5, "Not available", A1:A5)') == []
        assert check("=VLOOKUP(P6,'Other'!$A$3:$C$6,3,FALSE)") == []

    def test_unbalanced_close(self):
        codes = {d.code for d in check("=A1+)")}
        assert DiagnosticCode.UNBALANCED_PARENS in codes \
            or DiagnosticCode.INVALID_OPERATOR_SEQUENCE in codes

    def test_unbalanced_open(self):
        assert DiagnosticCode.UNBALANCED_PARENS in {d.code for d in check("=SUM(A1")}

    def test_unterminated_string(self):
        assert DiagnosticCode.UNTERMINATED_STRING in {d.code for d in check('=IF(A1,"x')}

    def test_operator_pairs(self):
        assert check("=A1+*B1")
        assert check("=A1=<B1")  # swapped relational
        # unary contexts stay clean
        assert check("=-A1") == []
        assert check("=A1*-3") == []
        assert check("=A1%*2") == []

    def test_trailing_operator(self):
        assert check("=A1+")
        assert check("=A1%") == []

    def test_comma_before_paren(self):
        assert check("=SUM(A1,)")

    def test_top_level_comma(self):
        assert check("=A1,A10")

    def test_malformed_range_shapes(self):
        for bad in ("=SUM(1:A10)", "=SUM(A:A10)", "=SUM(A1:10)", "=SUM(A1:A)"):
            assert check(bad), bad

    def test_glued_refs(self):
        assert check("=SUM(A1A10)")

    def test_missing_operator_between_operands(self):
        assert check("=SUM(A1 A10)")
        assert check('=IF(A1,Not available,1)')

    def test_quoted_sheet_without_bang(self):
        assert check("='Sheet 1'A10")

    def test_arity_unbounded_max(self):
        assert check("=SUM(A1,A2,A3,A4,A5,A6)") == []

    def test_arity_zero(self):
        assert check("=TODAY()") == []
        assert check("=TODAY(1)")

    def test_diagnostics_ordered_by_span(self):
        diags = check('=SUM(A1A10) + TODAY(1)')
        starts = [d.start for d in diags]
        assert starts == sorted(starts)

    def test_error_chars_reported(self):
        assert DiagnosticCode.LEX_ERROR in {d.code for d in check("=A1#")}

    def test_fuzzed_valid_formulas_are_clean(self):
        rng = random.Random(123)
        for _ in range(300):
            f = random_formula(rng)
            assert check(f) == [], f


class TestFunctionCatalog:
    def test_default_contains_spec_functions(self):
        cat = default_catalog()
        for name in ("SUM", "SUMIF", "IF", "ISERROR", "VLOOKUP", "EDATE",
                     "TODAY", "INDEX", "MATCH", "AND", "NA"):
            assert name in cat
        assert cat.get("IF") == (2, 3)
        assert cat.get("ISERROR") == (1, 1)
        assert cat.get("SUM") == (1, None)

    def test_case_insensitive_lookup(self):
        cat = default_catalog()
        assert "sum" in cat and "Sum" in cat
        assert cat.get("sum") == cat.get("SUM") == (1, None)

    def test_from_file(self, tmp_path):
        path = tmp_path / "funcs.csv"
        path.write_text("# comment\nFOO,1,3\nBAR,0,*\n", encoding="utf-8")
        cat = FunctionCatalog.from_file(path)
        assert cat.get("foo") == (1, 3)
        assert cat.get("bar") == (0, None)
        assert len(cat) == 2

    @pytest.mark.parametrize("line", ["FOO,x,3", "FOO,3", "FOO,2,1", ",1,2"])
    def test_malformed_lines_raise(self, line):
        with pytest.raises(CatalogError):
            FunctionCatalog.from_lines([line])

    def test_custom_catalog_changes_lexing(self):
        cat = FunctionCatalog.from_lines(["MYFN,1,1"])
        assert [t.kind for t in lex("=MYFN(A1)", cat)][1] is K.FUNC_NAME
        assert [t.kind for t in lex("=SUM(A1)", cat)][1] is K.IDENTIFIER

    def test_diagnostic_dataclass(self):
        d = Diagnostic(DiagnosticCode.LEX_ERROR, 0, 1, "msg")
        assert d.code.value == "LexError"


# --- call matcher oracle ---------------------------------------------------
#
# The two per-call rescanning matchers that call_arguments replaced, kept
# verbatim as the reference: _ref_count_args counted arguments for check(),
# _ref_calls gave the noise operators their argument ranges, and
# _ref_arg_type classified an argument by walking all of its tokens.


def _ref_count_args(solid, func_idx):
    i = func_idx + 1
    if i >= len(solid) or solid[i].text != "(":
        return None
    depth = 1
    commas = 0
    saw_content = False
    i += 1
    while i < len(solid):
        t = solid[i]
        if t.kind is TokenKind.PUNCT and t.text == "(":
            depth += 1
            saw_content = True
        elif t.kind is TokenKind.PUNCT and t.text == ")":
            depth -= 1
            if depth == 0:
                if commas == 0 and not saw_content:
                    return 0
                return commas + 1
        elif t.kind is TokenKind.PUNCT and t.text == "," and depth == 1:
            commas += 1
        else:
            saw_content = True
        i += 1
    return None


def _ref_calls(tokens):
    out = []
    for i, tok in enumerate(tokens):
        if tok.kind is not TokenKind.FUNC_NAME:
            continue
        j = i + 1
        while j < len(tokens) and tokens[j].kind is TokenKind.WHITESPACE:
            j += 1
        if j >= len(tokens) or tokens[j].text != "(":
            continue
        depth = 1
        arg_start = j + 1
        args = []
        k = j + 1
        closed = False
        while k < len(tokens):
            t = tokens[k]
            if t.kind is TokenKind.PUNCT and t.text == "(":
                depth += 1
            elif t.kind is TokenKind.PUNCT and t.text == ")":
                depth -= 1
                if depth == 0:
                    if k > arg_start or args:
                        args.append((arg_start, k))
                    closed = True
                    break
            elif t.kind is TokenKind.PUNCT and t.text == "," and depth == 1:
                args.append((arg_start, k))
                arg_start = k + 1
            k += 1
        if closed:
            if len(args) == 1 and all(
                    tokens[x].kind is TokenKind.WHITESPACE for x in range(*args[0])):
                args = []
            out.append((i, args))
    return out


def _ref_arg_type(tokens, arg):
    solid = [tokens[x] for x in range(*arg) if tokens[x].kind is not TokenKind.WHITESPACE]
    if any(t.kind is TokenKind.OPERATOR and t.text in ("<", ">", "<=", ">=", "<>", "=")
           for t in solid):
        return "comparison"
    if len(solid) == 1:
        return solid[0].kind.value
    if solid and solid[0].kind is TokenKind.FUNC_NAME:
        return "call"
    return "expr"


def _assert_matches_reference(formula):
    tokens = lex(formula)
    calls = call_arguments(tokens)
    assert list(calls.items()) == _ref_calls(tokens), formula
    solid_idx = [i for i, t in enumerate(tokens) if t.kind is not TokenKind.WHITESPACE]
    solid = [tokens[i] for i in solid_idx]
    for pos, i in enumerate(solid_idx):
        if tokens[i].kind is TokenKind.FUNC_NAME:
            argc = len(calls[i]) if i in calls else None
            assert argc == _ref_count_args(solid, pos), (formula, tokens[i])
    arg_type = noise._arg_typer(tokens)
    for args in calls.values():
        for arg in args:
            assert arg_type(arg) == _ref_arg_type(tokens, arg), (formula, arg)


def _corruptions(formula, rng, n):
    """n single-character `(`, `)`, `,` or space insertions, deletions and
    replacements; many leave the parens unbalanced."""
    out = []
    for _ in range(n):
        pos = rng.randrange(len(formula) + 1)
        ch = rng.choice("(), ")
        action = rng.choice(("insert", "delete", "replace"))
        if action == "insert" or pos == len(formula):
            out.append(formula[:pos] + ch + formula[pos:])
        elif action == "delete":
            out.append(formula[:pos] + formula[pos + 1:])
        else:
            out.append(formula[:pos] + ch + formula[pos + 1:])
    return out


def _envelope_formulas(rng):
    """Formulas at Excel's limits: 64 nested levels, 255 arguments, and
    8,192 characters of nested calls with side arguments."""
    deep = random_cell(rng)
    for level in range(64):
        deep = (f"IF({random_cell(rng)}>{random_number(rng)}, {deep}, {random_number(rng)})"
                if level % 3 == 0 else
                f"ROUND({deep},2)" if level % 3 == 1 else f"SUM({deep},{random_range(rng)})")
    wide = "SUM(" + ",".join(
        random_formula(rng, 2)[1:] if i % 5 == 4 else random_range(rng) if i % 2 else
        random_string_literal(rng) for i in range(255)) + ")"
    long = random_cell(rng)
    for _ in range(64):
        sides = [random_formula(rng, 1)[1:]]
        while len(", ".join(sides)) < 100:
            sides.append(random_formula(rng, 1)[1:])
        long = f"SUM({', '.join(sides)}, {long})"
    return ["=" + deep, "=" + wide, "=" + long]


class TestCallMatcher:
    def test_agrees_with_reference_on_synth_corpus(self):
        for formula in synth_corpus(1500, seed=11):
            _assert_matches_reference(formula)

    def test_agrees_with_reference_on_corruptions(self):
        rng = random.Random(12)
        for formula in synth_corpus(400, seed=13):
            for corrupted in _corruptions(formula, rng, 5):
                _assert_matches_reference(corrupted)

    def test_agrees_with_reference_on_envelope_formulas(self):
        rng = random.Random(14)
        for _ in range(2):
            for formula in _envelope_formulas(rng):
                _assert_matches_reference(formula)
                for corrupted in _corruptions(formula, rng, 3):
                    _assert_matches_reference(corrupted)

    def test_edge_cases(self):
        cases = ["=SUM()", "=SUM( )", "=SUM(,)", "=SUM(A1,)", "=SUM (A1, B1)",
                 "=SUM(A1", "=SUM(A1))", ")=SUM(A1)", "=SUM((A1),(B1,C1))",
                 "=IF(A1,SUM(B1", "=TODAY(),A1", "=SUM(A1)+(", ""]
        for formula in cases:
            _assert_matches_reference(formula)
        assert call_arguments(lex("=SUM( )")) == {1: []}
        assert call_arguments(lex("=SUM(A1")) == {}
        assert call_arguments(lex("=IF(A1,SUM(B1)")) == {5: [(7, 8)]}

    def test_nesting_2000_deep_is_linear_and_matches_reference(self, monkeypatch):
        formula = "=" + "SUM(" * 2000 + "1" + ")" * 2000
        start = time.perf_counter()
        diags = check(formula)
        check_s = time.perf_counter() - start
        start = time.perf_counter()
        ops = applicable_operators(formula)
        ops_s = time.perf_counter() - start
        assert check_s < 1.0 and ops_s < 1.0, (check_s, ops_s)

        # The reference rescans every call, O(depth * n): seconds at this depth.
        reference = dict(_ref_calls(lex(formula)))
        monkeypatch.setattr(lexer, "call_arguments", lambda tokens: reference)
        monkeypatch.setattr(noise, "call_arguments", lambda tokens: reference)
        assert check(formula) == diags == []
        assert applicable_operators(formula) == ops
