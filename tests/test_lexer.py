import importlib.util
import pickle
import random
import re
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from formulakit import lexer, noise
from formulakit.catalog import CatalogError, FunctionCatalog, default_catalog
from formulakit.curation import dedup_key
from formulakit.evaluation import mask_constants
from formulakit.lexer import (Brackets, Diagnostic, DiagnosticCode, Token, TokenKind, check,
                              fold, lex, match_brackets, normalize, sketch, sketch_tokens)
from formulakit.noise import applicable_operators
from formulakit.similarity import formula_token_ids
from formulakit.synth import (random_cell, random_formula, random_number, random_range,
                              random_string_literal, synth_corpus)
from formulakit.tokenizer import PreToken, pretokenize


REPO = Path(__file__).resolve().parent.parent


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

    def test_ref_shaped_catalog_name_before_paren_is_a_function(self):
        # `log10` has a cell reference's shape; before `(` it is the
        # function, bare it stays a reference, and before `!` a sheet.
        assert kinds("=LOG10(A1)+log10") == [K.OPERATOR, K.FUNC_NAME, K.PUNCT, K.CELL_REF,
                                             K.PUNCT, K.OPERATOR, K.CELL_REF]
        assert kinds("=LOG10 (A1)")[1] is K.FUNC_NAME
        assert kinds("=LOG10!A1(1)")[1] is K.SHEET_NAME
        assert kinds("=A1(B1)")[1] is K.CELL_REF
        assert [(p.text, p.atomic) for p in pretokenize("=LOG10(A1)+log10")][-3:] == [
            ("log", True), ("1", True), ("0", True)]
        assert PreToken("log10", True) in pretokenize("=LOG10(A1)")

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
        if kind is K.IDENTIFIER or kind is K.CELL_REF:
            if i + 1 < count and raw[i + 1][1] == "!":
                kind = K.SHEET_NAME
            elif next_solid[i] == "(" and text.lower() in catalog:
                kind = K.FUNC_NAME
        end = byte_pos + len(text.encode("utf-8", "surrogatepass"))
        tokens.append(Token(kind, text, byte_pos, end))
        byte_pos = end
    return tokens


_CUSTOM_CATALOG = FunctionCatalog.from_lines(["MYFN,1,1", "A,0,*"])
# Whitespace before `!` or `(`, and a formula that starts with one, probe the two
# contextual rules.
_LEX_EDGE_CASES = ["=Data !A1", "=A1 !B2", "=A1!B2", "=sum (A1)", "=SUM\n(A1) ", "=SUM!A1",
                   "='S' !A1", "=myfn (1)", "=Ä1+\"é\"&A1", "'open", '"open', "=A(1)+a (2)",
                   "=(A1)", "!A1", "(1)", "=LOG10(1)+LOG10!A1+log10 (2)"]


def _memo_cases():
    """Edge cases, synthetic formulas and envelope formulas, for the memo checks."""
    rng = random.Random(16)
    return _LEX_EDGE_CASES + synth_corpus(300, seed=17) + _envelope_formulas(rng)


class TestLexReference:
    @given(st.text(alphabet=st.sampled_from(list('AZaz019$:!,()"\' \t\n=<>+-*/^&%._#;@Äé€'))
                   | st.characters(), max_size=40))
    @settings(max_examples=300, deadline=None)
    @example("\ud800")
    def test_matches_reference_on_any_text(self, s):
        assert lex(s) == _ref_lex(s)

    def test_matches_reference_on_corpus(self):
        for formula in _LEX_EDGE_CASES + synth_corpus(1000, seed=15):
            assert lex(formula) == _ref_lex(formula)
            assert lex(formula, _CUSTOM_CATALOG) == _ref_lex(formula, _CUSTOM_CATALOG)

    def test_matches_reference_on_envelope_formulas(self):
        rng = random.Random(18)
        for _ in range(2):
            for formula in _envelope_formulas(rng):
                assert lex(formula) == _ref_lex(formula)
                assert lex(formula, _CUSTOM_CATALOG) == _ref_lex(formula, _CUSTOM_CATALOG)

    def test_cold_then_warm_memo(self, monkeypatch):
        for formula in _memo_cases():
            monkeypatch.setattr(lexer, "_KINDS", lexer._KindMemo())
            assert lex(formula) == _ref_lex(formula), formula  # cold: each text a miss
            assert lex(formula) == _ref_lex(formula), formula  # warm: what it kept hits

    def test_custom_catalog_then_default(self, monkeypatch):
        # The memo holds no kind that depends on the catalog, so a formula
        # lexed under one catalog lexes the same as ever under the other.
        for formula in _memo_cases():
            monkeypatch.setattr(lexer, "_KINDS", lexer._KindMemo())
            assert lex(formula, _CUSTOM_CATALOG) == _ref_lex(formula, _CUSTOM_CATALOG), formula
            assert lex(formula) == _ref_lex(formula), formula
            assert lex(formula, _CUSTOM_CATALOG) == _ref_lex(formula, _CUSTOM_CATALOG), formula

    def test_memo_stays_within_its_bounds(self, monkeypatch):
        memo = lexer._KindMemo()
        monkeypatch.setattr(lexer, "_KINDS", memo)
        long_string = '"' + "x" * 7_990 + '{:08d}"'
        texts = [long_string.format(i) if i % 50 == 0 else
                 f"name_{i:05d}".ljust(100, "x") if i % 50 == 1 else
                 f"{i}.5" if i % 2 else f"N{i}" for i in range(20_000)]
        assert len(set(texts)) == 20_000
        assert {len(t) for t in texts[:2]} == {8_000, 100}
        for text in texts:
            formula = "=SUM(" + text + ")+Data!" + text
            assert lex(formula) == _ref_lex(formula)
        assert len(memo) == lexer.MEMO_ENTRIES  # full, and stopped there
        assert max(map(len, memo)) <= lexer.MEMO_TEXT_CHARS
        assert K.FUNC_NAME not in memo.values()
        assert all(text.startswith("'") for text, kind in memo.items() if kind is K.SHEET_NAME)


    def test_matches_reference_on_first_character_edge_cases(self):
        # lex takes a token's kind from its first character; these are the
        # texts where that alone does not decide it.
        cases = ["=ABCD1+Sheet12*tax2020", "=ABC1+ABC1x+AB1.5+A1_", "=$A1+$A$1+A$1+$+$$A1",
                 "=$A!B2+A$1!C3", "=.5+.+5.+1.E3+1e+", "=\u0663+A\u0663+\u0663\u0664.5",
                 "=\u00b2+A\u00b2+\uff11", "=_x1+_+a_1(2)", "=A1A2+AB12CD3", "=\u00c41+\u00e9",
                 "= \t\r\n\x0b\xa0\u2003+1", "=''+\"\"+'a''b'!A1+\"x"]
        for formula in cases:
            assert lex(formula) == _ref_lex(formula), formula


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


class TestFold:
    """fold(normalize(x)) == fold(x), so formulas whose folds differ have
    different normalized forms; repair synthesis relies on it."""

    def test_upper_is_idempotent_and_never_makes_whitespace_or_a_quote(self):
        # Over every code point, surrogates included. A quote would also end
        # a quoted sheet name early, which dedup_key relies on not happening.
        for cp in range(0x110000):
            ch = chr(cp)
            up = ch.upper()
            assert up.upper() == up, hex(cp)
            if ch in " \t\r\n'":
                assert up == ch, hex(cp)
            else:
                assert not any(c in up for c in " \t\r\n'"), hex(cp)

    @given(st.text(alphabet=st.sampled_from(list('AZaz019$:!,()"\' \t\r\n=<>._ßéŉﬀ'))
                   | st.characters(), max_size=40))
    @settings(max_examples=500, deadline=None)
    @example("\ud800 'ß'!a1")
    def test_fold_of_normalized_is_fold(self, s):
        assert fold(normalize(s)) == fold(s)

    def test_examples(self):
        assert fold("=sum( a1 :\tA10 )\r\n") == "=SUM(A1:A10)"
        assert fold('="a b"') == '="AB"'  # inside strings too, unlike normalize
        assert fold("=A1\xa0") == "=A1\xa0"  # only the lexer's whitespace goes


class TestSketchTokens:
    def test_equals_sketch(self):
        for formula in synth_corpus(300, seed=16) + ["", " ", "='a b'!c1 + x"]:
            assert sketch_tokens(lex(formula)) == sketch(formula)

    def test_upper_equals_sketch_of_normalized_without_whitespace(self):
        for formula in synth_corpus(300, seed=17) + ["=sum(a1)+data!b2+'q'!c1+foo.bar"]:
            tokens = [t for t in lex(formula) if t.kind is not K.WHITESPACE]
            formula = "".join(t.text for t in tokens)
            assert sketch_tokens(lex(formula), upper=True) == sketch(normalize(formula))


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

    def test_arity_of_ref_shaped_function(self):
        diags = check("=LOG10(A1,B1,C1)")
        assert [(d.code, d.start, d.end, d.message) for d in diags] == [
            (DiagnosticCode.BAD_ARITY, 1, 6, "LOG10 takes 1..1 arguments, got 3")]
        assert check("=LOG10(A1)") == []

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

    @pytest.mark.parametrize("line", ["FOO,x,3", "FOO,3", "FOO,2,1", ",1,2"])
    def test_malformed_lines_raise(self, line):
        with pytest.raises(CatalogError):
            FunctionCatalog.from_lines([line])

    def test_custom_catalog_changes_lexing(self):
        cat = FunctionCatalog.from_lines(["MYFN,1,1"])
        assert [t.kind for t in lex("=MYFN(A1)", cat)][1] is K.FUNC_NAME
        assert [t.kind for t in lex("=SUM(A1)", cat)][1] is K.IDENTIFIER

    # `check`'s arity pass and the noise arity operator look up each call's
    # FuncName in the catalog its tokens were lexed with, with no branch for
    # a name that is missing: `lex` must give FuncName only to catalog names.
    CUSTOM = FunctionCatalog.from_lines(["MYFN,1,1", "LOG10,1,2", "Ä1,0,3"])

    @staticmethod
    def _assert_func_names_in_catalog(formula, catalog):
        tokens = lex(formula, catalog)
        for tok in tokens:
            if tok.kind is K.FUNC_NAME:
                assert tok.text in catalog and catalog.get(tok.text) is not None, formula
        check(formula, catalog, tokens=tokens)

    def test_func_names_are_catalog_names_on_synthetic_and_envelope_formulas(self):
        rng = random.Random(17)
        formulas = synth_corpus(400, seed=18) + [
            f for _ in range(2) for f in _envelope_formulas(rng)]
        formulas += [f.replace("SUM(", "MyFn(").replace("IF(", "log10 (") for f in formulas]
        for catalog in (default_catalog(), self.CUSTOM):
            for formula in formulas:
                self._assert_func_names_in_catalog(formula, catalog)
        for formula in formulas:
            applicable_operators(formula)  # the arity operator's sites, bundled catalog

    @given(st.text(alphabet=st.sampled_from(list("=MYFNLOGSUMIFÄäİ10()!, A'"))
                   | st.characters(), max_size=40))
    @settings(max_examples=300, deadline=None)
    @example("=myfn(A1)+Ä1(1)+log10 (2)+SUM(3)")
    def test_func_names_are_catalog_names_on_any_text(self, s):
        for catalog in (default_catalog(), self.CUSTOM):
            self._assert_func_names_in_catalog(s, catalog)

    def test_diagnostic_dataclass(self):
        d = Diagnostic(DiagnosticCode.LEX_ERROR, 0, 1, "msg")
        assert d.code.value == "LexError"


# --- call matcher oracle ---------------------------------------------------
#
# The two per-call rescanning matchers that match_brackets replaced, kept
# verbatim as the reference: _ref_count_args counted arguments for check(),
# _ref_calls gave the noise operators their argument ranges, and
# _ref_arg_type classified an argument by walking all of its tokens.
# _ref_unmatched counts paren depth for the stray and unclosed tokens.


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


def _ref_unmatched(tokens):
    """(stray, unclosed): a `)` or `,` is stray when every `(` before it is
    already closed; a `(` is unclosed when no later `)` brings the depth
    counted from it back to zero."""
    parens = [(i, t.text) for i, t in enumerate(tokens)
              if t.kind is TokenKind.PUNCT and t.text in ("(", ")", ",")]
    stray = []
    depth = 0
    for i, text in parens:
        if text == "(":
            depth += 1
        elif depth == 0:
            stray.append(i)
        elif text == ")":
            depth -= 1
    unclosed = []
    for pos, (i, text) in enumerate(parens):
        if text != "(":
            continue
        depth = 0
        for _, later in parens[pos:]:
            depth += (later == "(") - (later == ")")
            if depth == 0:
                break
        else:
            unclosed.append(i)
    return stray, unclosed


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
    brackets = match_brackets(tokens)
    calls = brackets.calls
    assert list(calls.items()) == _ref_calls(tokens), formula
    assert (brackets.stray, brackets.unclosed) == _ref_unmatched(tokens), formula
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


def _corruptions(formula, rng, n, chars="(), "):
    """n single-character insertions, deletions and replacements drawn from
    `chars` (by default `(`, `)`, `,` and space); many leave the parens
    unbalanced."""
    out = []
    for _ in range(n):
        pos = rng.randrange(len(formula) + 1)
        ch = rng.choice(chars)
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


def _token_reads(formula, passes=(check, applicable_operators)):
    """The results of `passes` on formula, and the tokens they read from
    `lex`'s output: each one iterated over or indexed (a slice reads its
    length), counted through wrappers, not timed."""
    reads = Counter()

    class Tokens(list):
        def __iter__(self):
            for tok in super().__iter__():
                reads["tokens"] += 1
                yield tok

        def __getitem__(self, key):
            item = super().__getitem__(key)
            reads["tokens"] += len(item) if isinstance(key, slice) else 1
            return item

    with pytest.MonkeyPatch.context() as patch:
        for module in (lexer, noise):
            patch.setattr(module, "lex", lambda *args, lex=module.lex: Tokens(lex(*args)))
        result = tuple(run(formula) for run in passes)
    return result, reads["tokens"]


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
        assert match_brackets(lex("=SUM( )")) == ({1: []}, [], [])
        assert match_brackets(lex("=SUM(A1")) == ({}, [], [2])
        assert match_brackets(lex("=IF(A1,SUM(B1)")) == ({5: [(7, 8)]}, [], [2])
        assert match_brackets(lex("),=(A1),)")) == ({}, [0, 1, 6, 7], [])

    def test_nesting_2000_deep_is_linear_and_matches_reference(self, monkeypatch):
        # Twice the depth must not read three times the tokens.
        formula = "=" + "SUM(" * 2000 + "1" + ")" * 2000
        _, reads_n = _token_reads("=" + "SUM(" * 1000 + "1" + ")" * 1000)
        (diags, ops), reads_2n = _token_reads(formula)
        assert 0 < reads_n and reads_2n < 3 * reads_n, (reads_n, reads_2n)

        # The reference rescans every call, O(depth * n): seconds at this depth.
        tokens = lex(formula)
        reference = Brackets(dict(_ref_calls(tokens)), *_ref_unmatched(tokens))
        monkeypatch.setattr(lexer, "match_brackets", lambda tokens: reference)
        monkeypatch.setattr(noise, "match_brackets", lambda tokens: reference)
        assert check(formula) == diags == []
        assert applicable_operators(formula) == ops


class TestLexScaling:
    """`lex` and `check` on a formula of 80,000 characters do under three
    times the work they do on its first 40,000: counted, not timed."""

    @staticmethod
    def _formula(chars):
        """Random formulas, sheet references and calls among them, joined by
        `+` up to `chars` characters; seeded, so a shorter one is a prefix
        of a longer one."""
        rng = random.Random(19)
        formula = "="
        while len(formula) < chars:
            formula += random_formula(rng, 2)[1:] + "+"
        return formula[:-1]

    @staticmethod
    def _lex_work(formula):
        """Kind-memo misses on a cold memo, and the text positions the
        contextual pass's `index` calls scan to reach each `!` and `(`."""
        work = Counter()

        class Texts(list):
            def index(self, value, start=0):
                found = super().index(value, start)
                work["scanned"] += found - start + 1
                return found

        class Master:
            def findall(self, text, master=lexer._MASTER):
                return Texts(master.findall(text))

        def counted_missing(memo, text, missing=lexer._KindMemo.__missing__):
            work["misses"] += 1
            return missing(memo, text)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(lexer, "_KINDS", lexer._KindMemo())
            patch.setattr(lexer, "_MASTER", Master())
            patch.setattr(lexer._KindMemo, "__missing__", counted_missing)
            tokens = lex(formula)
        assert tokens == _ref_lex(formula)
        return work

    def test_twice_the_characters_under_three_times_the_work(self):
        n, twice = self._formula(40_000), self._formula(80_000)
        assert twice.startswith(n)
        lex_n, lex_2n = self._lex_work(n), self._lex_work(twice)
        (diags_n,), reads_n = _token_reads(n, (check,))
        (diags_2n,), reads_2n = _token_reads(twice, (check,))
        assert diags_n == _ref_check(n) and diags_2n == _ref_check(twice)
        for key in ("misses", "scanned"):
            assert 0 < lex_n[key] and lex_2n[key] < 3 * lex_n[key], (key, lex_n, lex_2n)
        assert 0 < reads_n and reads_2n < 3 * reads_n, (reads_n, reads_2n)


# --- view oracles ----------------------------------------------------------
#
# The token views as they stood before Token became a NamedTuple and the
# views stopped hashing TokenKind members, kept verbatim (bar the names) as
# the reference: each tests `tok.kind` against TokenKind.X or an enum-keyed
# table for every token.

_REF_SKETCH_PLACEHOLDER = {
    TokenKind.NUMBER: "number",
    TokenKind.STRING_LIT: "string",
    TokenKind.CELL_REF: "cell",
}


def _ref_sketch(formula):
    parts = []
    for tok in lex(formula):
        if tok.kind is TokenKind.WHITESPACE:
            continue
        parts.append(_REF_SKETCH_PLACEHOLDER.get(tok.kind, tok.text))
    return "".join(parts)


_REF_UPPERCASED_KINDS = frozenset({
    TokenKind.CELL_REF,
    TokenKind.FUNC_NAME,
    TokenKind.IDENTIFIER,
    TokenKind.SHEET_NAME,
})


def _ref_normalize(formula, tokens=None):
    if tokens is None:
        tokens = lex(formula)
    parts = []
    for tok in tokens:
        if tok.kind is TokenKind.WHITESPACE:
            continue
        if tok.kind in _REF_UPPERCASED_KINDS:
            parts.append(tok.text.upper())
        else:
            parts.append(tok.text)
    return "".join(parts)


def _ref_dedup_key(formula):
    return _ref_sketch(_ref_normalize(formula))


_REF_BINARY_ONLY_OPS = frozenset({"*", "/", "^", "&", "<", ">", "=", "<=", ">=", "<>"})
_REF_OPERAND_KINDS = frozenset({
    TokenKind.CELL_REF, TokenKind.NUMBER, TokenKind.STRING_LIT, TokenKind.IDENTIFIER,
})
_REF_GLUED_REFS = re.compile(r"^\$?[A-Za-z]{1,3}\$?\d+\$?[A-Za-z]{1,3}\$?\d+$")


def _ref_closed(text, quote):
    if len(text) < 2 or not text.startswith(quote):
        return False
    i = 1
    while i < len(text):
        if text[i] == quote:
            if i + 1 < len(text) and text[i + 1] == quote:
                i += 2
                continue
            return i == len(text) - 1
        i += 1
    return False


def _ref_check(formula, catalog=None, tokens=None):
    if catalog is None:
        catalog = default_catalog()
    if tokens is None:
        tokens = lex(formula, catalog)
    diags = []

    solid = [t for t in tokens if t.kind is not TokenKind.WHITESPACE]

    depth = 0
    open_stack = []
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

    for tok in tokens:
        if tok.kind is TokenKind.STRING_LIT and not _ref_closed(tok.text, '"'):
            diags.append(Diagnostic(
                DiagnosticCode.UNTERMINATED_STRING, tok.start, tok.end,
                "string literal is not terminated"))
        elif tok.kind is TokenKind.SHEET_NAME and tok.text.startswith("'") \
                and not _ref_closed(tok.text, "'"):
            diags.append(Diagnostic(
                DiagnosticCode.UNTERMINATED_STRING, tok.start, tok.end,
                "quoted sheet name is not terminated"))

    for idx, args in _ref_calls(tokens):
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

    for a, b in zip(solid, solid[1:]):
        if a.kind is TokenKind.OPERATOR and b.kind is TokenKind.OPERATOR:
            if b.text in _REF_BINARY_ONLY_OPS and a.text != "%":
                diags.append(Diagnostic(
                    DiagnosticCode.INVALID_OPERATOR_SEQUENCE, a.start, b.end,
                    f"operator {a.text!r} directly followed by {b.text!r}"))
        elif a.kind is TokenKind.OPERATOR and a.text != "%" \
                and b.kind is TokenKind.PUNCT and b.text in "),":
            diags.append(Diagnostic(
                DiagnosticCode.INVALID_OPERATOR_SEQUENCE, a.start, b.end,
                f"operator {a.text!r} has no right operand"))
        elif a.kind in _REF_OPERAND_KINDS and (b.kind in _REF_OPERAND_KINDS
                                               or b.kind is TokenKind.SHEET_NAME):
            diags.append(Diagnostic(
                DiagnosticCode.INVALID_OPERATOR_SEQUENCE, a.start, b.end,
                "operands with no operator between them"))
        if a.kind is TokenKind.PUNCT and a.text == "," and b.kind is TokenKind.PUNCT \
                and b.text == ")":
            diags.append(Diagnostic(
                DiagnosticCode.INVALID_OPERATOR_SEQUENCE, a.start, b.end,
                "argument separator directly before closing parenthesis"))

    if solid:
        last = solid[-1]
        if last.kind is TokenKind.OPERATOR and last.text != "%":
            diags.append(Diagnostic(
                DiagnosticCode.INVALID_OPERATOR_SEQUENCE, last.start, last.end,
                f"formula ends with operator {last.text!r}"))

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
        elif tok.kind is TokenKind.IDENTIFIER and _REF_GLUED_REFS.match(tok.text):
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


def _ref_mask_constants(formula):
    parts = []
    for tok in lex(formula):
        if tok.kind is TokenKind.NUMBER:
            parts.append("number")
        elif tok.kind is TokenKind.STRING_LIT:
            parts.append("string")
        else:
            parts.append(tok.text)
    return "".join(parts)


def _ref_formula_token_ids(formula, intern, tokens=None):
    if tokens is None:
        tokens = lex(formula)
    ids = []
    for tok in tokens:
        if tok.kind is TokenKind.WHITESPACE:
            continue
        tok_id = intern.get(tok.text)
        if tok_id is None:
            tok_id = len(intern)
            intern[tok.text] = tok_id
        ids.append(tok_id)
    return tuple(ids)


_VIEW_CATALOG = FunctionCatalog.from_lines(["MYFN,1,1", "SUM,2,2", "A,0,*"])


def _assert_views_match_reference(formula):
    assert sketch(formula) == _ref_sketch(formula), formula
    assert normalize(formula) == _ref_normalize(formula), formula
    tokens = lex(formula)
    assert normalize(formula, tokens) == _ref_normalize(formula, tokens), formula
    assert dedup_key(formula) == _ref_dedup_key(formula), formula
    assert check(formula) == _ref_check(formula), formula
    assert check(formula, _VIEW_CATALOG) == _ref_check(formula, _VIEW_CATALOG), formula
    assert check(formula, tokens=tokens) == _ref_check(formula, tokens=tokens), formula
    assert mask_constants(formula) == _ref_mask_constants(formula), formula
    intern, ref_intern = {"=": 0, "A1": 1}, {"=": 0, "A1": 1}
    assert formula_token_ids(formula, intern) == _ref_formula_token_ids(formula, ref_intern)
    assert formula_token_ids(formula, intern, tokens) == _ref_formula_token_ids(
        formula, ref_intern, tokens)
    assert intern == ref_intern, formula


class TestViewsReference:
    @given(st.text(alphabet=st.sampled_from(list('AZaz019$:!,()"\' \t\n=<>+-*/^&%._#;@Äé€'))
                   | st.characters(), max_size=60))
    @settings(max_examples=300, deadline=None)
    @example("\ud800")
    @example("")
    def test_match_reference_on_any_text(self, s):
        _assert_views_match_reference(s)

    def test_match_reference_on_synth_corpus(self):
        for formula in synth_corpus(1500, seed=21):
            _assert_views_match_reference(formula)

    def test_match_reference_on_corruptions(self):
        rng = random.Random(22)
        for formula in synth_corpus(400, seed=23):
            for corrupted in _corruptions(formula, rng, 5, chars="(),\"' "):
                _assert_views_match_reference(corrupted)

    def test_match_reference_on_envelope_formulas(self):
        rng = random.Random(24)
        for _ in range(2):
            for formula in _envelope_formulas(rng):
                _assert_views_match_reference(formula)
                for corrupted in _corruptions(formula, rng, 3, chars="(),\"' "):
                    _assert_views_match_reference(corrupted)

    def test_match_reference_on_quote_heavy_strings(self):
        # Doubled quotes, bare quotes and sheet bangs in every order: the
        # inputs where a closing quote, an escaped one and an unterminated
        # tail are easiest to confuse.
        pieces = ['"', "'", '""', "''", "a", "B", "1", "!", "(", ")"]
        rng = random.Random(25)
        for _ in range(3000):
            formula = "=" + "".join(rng.choice(pieces) for _ in range(rng.randrange(12)))
            _assert_views_match_reference(formula)
            tokens = lex(formula)
            sites = noise.SiteIndex(tokens)
            assert noise.OPERATORS[12].sites(sites) == [
                i for i, t in enumerate(tokens)
                if t.kind is K.STRING_LIT and _ref_closed(t.text, '"')], formula
            assert noise.OPERATORS[10].sites(sites) == [
                i for i, t in enumerate(tokens)
                if t.kind is K.SHEET_NAME and _ref_closed(t.text, "'")], formula

    def test_match_reference_on_edge_cases(self):
        cases = ["=Data !A1", "=A1 !B2", "='S' !A1", "='S'A1", "'open", '"open',
                 '="a""', "=A1+*B1", "=A1%", "=A1%*2", "=A1+)", "=SUM(A1,)", "=A1,A10",
                 "=SUM(1:A10)", "=SUM(A1A10)", "=SUM(A1 A10)", "=A1 Data!B2", "=-A1",
                 "=sum( a1 : a10 )", "=myfn(1,2)", "=TODAY(1)", "=A1#", "=\ud800",
                 '=IF(A1>10,"yes",2)+\'My Sheet\'!b2*1.5E3', ":", ",", "(", ")"]
        for formula in cases:
            _assert_views_match_reference(formula)


class TestTokenContract:
    def test_fields_and_order(self):
        assert Token._fields == ("kind", "text", "start", "end")
        tok = Token(K.CELL_REF, "A1", 1, 3)
        assert (tok.kind, tok.text, tok.start, tok.end) == (K.CELL_REF, "A1", 1, 3)
        assert tok.span == (1, 3)

    def test_immutable(self):
        tok = Token(K.NUMBER, "1", 0, 1)
        for field in Token._fields:
            with pytest.raises(AttributeError):
                setattr(tok, field, None)
        with pytest.raises(AttributeError):
            tok.other = 1

    def test_equal_and_hashed_by_value(self):
        a, b = Token(K.NUMBER, "12", 0, 2), Token(K.NUMBER, "12", 0, 2)
        assert a == b and hash(a) == hash(b)
        assert len({a, b}) == 1
        assert a != Token(K.NUMBER, "12", 1, 3)
        assert a != Token(K.CELL_REF, "12", 0, 2)

    def test_lex_returns_tokens(self):
        toks = lex("=SUM(A1, 'S'!B2)")
        assert toks and all(type(t) is Token for t in toks)
        assert toks[1] == Token(K.FUNC_NAME, "SUM", 1, 4)

    def test_pickle_round_trip(self):
        toks = lex('=IF(Ä1,"añ b",2)')
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            back = pickle.loads(pickle.dumps(toks, protocol))
            assert back == toks
            assert all(type(t) is Token for t in back)
            assert [t.kind for t in back] == [t.kind for t in toks]


def test_lexer_benchmark_script_runs(run_python):
    proc = run_python(str(REPO / "benchmarks" / "bench_lexer.py"),
                      "--typical", "50", "--envelope", "5")
    assert proc.returncode == 0, proc.stderr
    assert "every input round-trips, no envelope input flagged" in proc.stdout
    assert [line.split()[0] for line in proc.stdout.splitlines()[2:]] == [
        "findall", "lex", "lex_cold", "check", "normalize", "sketch", "dedup_key",
        "applicable_operators", "dedup", "dedup_no_repeats", "gen_repair_finetune", "ingest",
        "emit"]


def test_lexer_benchmark_script_rejects_flagged_inputs(monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))  # the script prepends perfbench/
    spec = importlib.util.spec_from_file_location("bench_lexer",
                                                  REPO / "benchmarks" / "bench_lexer.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    assert bench.problems("envelope", ["=SUM(A1)", "=SUM(A1"], well_formed=True) == [
        "envelope[1]: check flags a well-formed input: " + str(check("=SUM(A1")[0])]
    assert bench.problems("typical", ["=SUM(A1"], well_formed=False) == []
