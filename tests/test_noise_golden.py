"""Golden suite for the 17 noise operators.

Every golden below was checked by hand against the operator's intended
user-mistake: wrong/malformed ranges, call-site spacing, arity changes,
argument swaps, relational-operator damage, quoting damage, comma/paren
noise, stray operators, and delimiter corruption. Two goldens (op 4 and
op 10) are the worked examples reproduced verbatim.
"""

import dataclasses
import random
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_lexer import _corruptions, _envelope_formulas

from formulakit import noise, objectives
from formulakit.catalog import default_catalog
from formulakit.lexer import TokenKind, check, lex, match_brackets, quote_closed
from formulakit.noise import (OPERATORS, NotApplicable, SiteIndex, applicable_operators,
                              apply_noise_operator)
from formulakit.objectives import user_noise
from formulakit.synth import synth_corpus

# op_id -> [(formula, seed, expected)]
GOLDENS = {
    1: [  # range colon replaced by one of {; , space "} or deleted
        ("=SUM(A1:A10)", 0, '=SUM(A1"A10)'),
        ("=SUM(A1:A10)", 1, "=SUM(A1A10)"),
        ("=AVERAGE(B2:B9)+MAX(C1:C4)", 2, "=AVERAGE(B2;B9)+MAX(C1:C4)"),
        ('=SUMIF(B1:B5,"x",A1:A5)', 1, '=SUMIF(B1B5,"x",A1:A5)'),
    ],
    2: [  # one of col1/row1/col2/row2 deleted
        ("=SUM(A1:A10)", 0, "=SUM(A1:A)"),
        ("=SUM(A1:A10)", 1, "=SUM(1:A10)"),
        ("=SUM(A1:A10)", 3, "=SUM(A:A10)"),
        ("=COUNT($B$2:$B$99)", 0, "=COUNT($B$2:$B)"),
    ],
    3: [  # space between function name and its opening paren
        ("=SUM(A1:A10)", 0, "=SUM (A1:A10)"),
        ("=IF(A1>2,MAX(B1:B2),0)", 0, "=IF(A1>2,MAX (B1:B2),0)"),
        ("=TODAY()", 0, "=TODAY ()"),
    ],
    4: [  # arity broken: delete at min, copy-append at max
        ("IF(A2>10, True, False)", 5, "IF(A2>10, True, False, False)"),  # worked example
        ("=ISERROR(G6*1.2)", 1, "=ISERROR()"),
        ("=ISERROR(G6*1.2)", 0, "=ISERROR(G6*1.2,G6*1.2)"),
        ("=VLOOKUP(P6,A1:C9,3)", 1, "=VLOOKUP(P6,3)"),
    ],
    5: [  # arguments of different types swapped
        ("IF(A1>10, 1, 2)", 1, "IF(1, A1>10, 2)"),  # worked example shape
        ('=IF(ISERROR(B2),"err",B2)', 0, '=IF(B2,"err",ISERROR(B2))'),
        ("=ROUND(A1*B1,2)", 0, "=ROUND(2,A1*B1)"),
    ],
    6: [  # space inside a two-character relational operator
        ("=B2<=EDATE(TODAY(),-33)", 0, "=B2< =EDATE(TODAY(),-33)"),
        ("=IF(A1>=10,1,0)", 0, "=IF(A1> =10,1,0)"),
        ("=A1<>B1", 0, "=A1< >B1"),
    ],
    7: [  # relational operator characters swapped
        ("=B2<=EDATE(TODAY(),-33)", 0, "=B2=<EDATE(TODAY(),-33)"),
        ("=IF(A1>=10,1,0)", 0, "=IF(A1=>10,1,0)"),
        ('=A1<>"x"', 0, '=A1><"x"'),
    ],
    8: [  # <> replaced by != or =!
        ("=A1<>B1", 0, "=A1=!B1"),
        ("=A1<>B1", 1, "=A1!=B1"),
        ('=IF(A1<>"",1,0)', 1, '=IF(A1!="",1,0)'),
    ],
    9: [  # = replaced by == or ===
        ("=A1=B1", 0, "=A1===B1"),
        ('=IF(A1=1,"y","n")', 1, '==IF(A1=1,"y","n")'),
        ("=SUM(A1:A2)=10", 0, "=SUM(A1:A2)===10"),
    ],
    10: [  # sheet quotes deleted or doubled
        ("'Sheet 1'!A10", 0, '"Sheet 1"!A10'),  # worked example, verbatim
        ("'Sheet 1'!A10", 2, "Sheet 1!A10"),
        ("='My Sheet'!B2+1", 0, '="My Sheet"!B2+1'),
        ("=SUM('Q1 Report'!A1:A9)", 2, "=SUM(Q1 Report!A1:A9)"),
    ],
    11: [  # sheet-reference exclamation mark deleted
        ("='Sheet 1'!A10", 0, "='Sheet 1'A10"),
        ("=Data!B2*2", 0, "=DataB2*2"),
        ("=SUM(Summary!A1:A9)", 0, "=SUM(SummaryA1:A9)"),
    ],
    12: [  # string quotes deleted or replaced with single quotes
        ('=IF(A1,"x",1)', 0, "=IF(A1,'x',1)"),
        ('=IF(A1,"x",1)', 2, "=IF(A1,x,1)"),
        ('=SUMIF(B1:B5,"Not available",A1:A5)', 2, "=SUMIF(B1:B5,Not available,A1:A5)"),
    ],
    13: [  # comma inserted before `)`, or comma replaces `)`
        ("=SUM(A1:A10)", 2, "=SUM(A1:A10,)"),
        ("=SUM(A1:A10)", 0, "=SUM(A1:A10,"),
        ("=IF(A1>1,MAX(B1:B3),0)", 2, "=IF(A1>1,MAX(B1:B3,),0)"),
    ],
    14: [  # one operator from the pool at a random position
        ("=A1", 0, "=A1<"),
        ("=A1", 2, "-=A1"),
        ("=SUM(A1:A10)", 0, "=SUM(A<1:A10)"),
    ],
    15: [  # one operator from the pool at the end
        ("=A1", 1, "=A1*"),
        ("=SUM(A1:A10)", 2, "=SUM(A1:A10)+"),
        ("=B2<=EDATE(TODAY(),-33)", 0, "=B2<=EDATE(TODAY(),-33)<"),
    ],
    16: [  # `(` and `)` inserted at random places
        ("=A1", 0, "=A1)("),
        ("=A1", 1, "=(A1)"),
        ("=SUM(A1:A10)", 1, "=S(UM(A1:)A10)"),
    ],
    17: [  # delimiters added, deleted, or replaced
        ("=A1", 0, "=A1,"),
        ("=SUM(A1:A10)", 0, "=SUM(A1A10)"),
        ("=SUM(A1:A10)", 1, "=SUM(A1:A'10)"),
    ],
}

FIXTURE_FORMULAS = {
    1: "=SUM(A1:A10)", 2: "=SUM(A1:A10)", 3: "=TODAY()",
    4: "=EDATE(TODAY(),-33)", 5: "IF(A1>10, 1, 2)",
    6: "=A1<=B1", 7: "=A1>=B1", 8: "=A1<>B1", 9: "=A1=B1",
    10: "='My Sheet'!B2", 11: "=Data!B2", 12: '=IF(A1,"x",1)',
    13: "=SUM(A1)", 14: "=A1", 15: "=A1", 16: "=A1", 17: "=A1",
}


def test_golden_counts():
    assert set(GOLDENS) == set(range(1, 18))
    assert all(len(cases) >= 3 for cases in GOLDENS.values())
    assert sum(len(c) for c in GOLDENS.values()) >= 51


@pytest.mark.parametrize("op_id", sorted(GOLDENS))
def test_goldens(op_id):
    for formula, seed, expected in GOLDENS[op_id]:
        out = apply_noise_operator(formula, op_id, random.Random(seed))
        assert out == expected, (op_id, formula, seed, out)


def test_verbatim_worked_examples():
    out = apply_noise_operator("IF(A2>10, True, False)", 4, random.Random(5))
    assert out == "IF(A2>10, True, False, False)"
    out = apply_noise_operator("'Sheet 1'!A10", 10, random.Random(0))
    assert out == '"Sheet 1"!A10'


@pytest.mark.parametrize("op_id", sorted(OPERATORS))
def test_applicable_output_always_differs(op_id):
    formula = FIXTURE_FORMULAS[op_id]
    for seed in range(40):
        out = apply_noise_operator(formula, op_id, random.Random(seed))
        assert out != formula


@pytest.mark.parametrize("op_id,formula", [
    (1, "=A1+B1"),          # no range colon
    (2, "=TODAY()"),        # no range
    (3, "=A1+B1"),          # no function call
    (4, "=SUM(A1,A2)"),     # unbounded max, not fixed arity
    (4, "=FOO(A1)"),        # unknown function
    (5, "=IF(A1,B1,C1)"),   # all argument types identical
    (6, "=A1=B1"),          # no two-char relational op
    (8, '=COUNTIF(A1:A5,"<>"&B1)'),  # <> only inside a string
    (9, "A1+B1"),           # no equals sign at all
    (10, "=Data!A1"),       # sheet not quoted
    (11, "=A1+B1"),         # no sheet reference
    (12, "=A1+1"),          # no string literal
    (13, "=A1+1"),          # no closing paren
])
def test_not_applicable(op_id, formula):
    assert op_id not in applicable_operators(formula)
    with pytest.raises(NotApplicable):
        apply_noise_operator(formula, op_id, random.Random(0))


def test_applicability_enumeration_bare_ref():
    # only the always-applicable operators plus invalid-equality fit `=A1`
    assert applicable_operators("=A1") == [9, 14, 15, 16, 17]


def test_unknown_operator_id():
    with pytest.raises(ValueError):
        apply_noise_operator("=A1", 18, random.Random(0))


def test_unchanged_output_raises(monkeypatch):
    # A real check, not an assert, so it also holds under `python -O`.
    monkeypatch.setitem(noise.OPERATORS, 15, dataclasses.replace(
        OPERATORS[15], rewrite=lambda formula, tokens, sites, rng: formula))
    with pytest.raises(RuntimeError, match="unchanged"):
        apply_noise_operator("=A1", 15, random.Random(0))


def test_table_entry_agrees_with_applicable_operators():
    # Each operator's own table entry decides applicability: there is no
    # per-operator branch that could make the two disagree (operator 4's
    # entry once claimed `=1` while the applicability lookup said no).
    catalog = default_catalog()
    formulas = (synth_corpus(300, seed=52) + list(FIXTURE_FORMULAS.values())
                + [f for cases in GOLDENS.values() for f, _, _ in cases]
                + TestSyntaxBreaking.FIXTURES + ["=1", ""])
    for formula in formulas:
        tokens = lex(formula, catalog)
        listed = [op_id for op_id, op in OPERATORS.items()
                  if list(op.sites(SiteIndex(tokens)))]
        assert applicable_operators(formula) == listed, formula


@pytest.mark.parametrize("op_id", [1, 4, 14])
def test_edited_table_entry_reaches_every_lookup(monkeypatch, op_id):
    # The table is read when asked, so an entry whose finder yields nothing
    # turns the operator off in all three lookups alike.
    formula = "=ROUND(SUM(A1:A3),B1)"
    assert op_id in applicable_operators(formula)
    monkeypatch.setitem(noise.OPERATORS, op_id, dataclasses.replace(
        OPERATORS[op_id], sites=lambda index: []))
    assert op_id not in applicable_operators(formula)
    with pytest.raises(NotApplicable):
        apply_noise_operator(formula, op_id, random.Random(0))


def test_pre_lexed_tokens_give_the_same_output():
    # One SiteIndex shared by applicable_operators and every application
    # gives what a fresh lex and index per call gives.
    catalog = default_catalog()
    for formula in synth_corpus(40, seed=51) + _envelope_formulas(random.Random(52))[:5]:
        index = SiteIndex(lex(formula, catalog))
        ops = applicable_operators(formula, index=index)
        assert ops == applicable_operators(formula)
        for op_id in ops:
            assert apply_noise_operator(formula, op_id, random.Random(3), index=index) \
                == apply_noise_operator(formula, op_id, random.Random(3))


class TestSyntaxBreaking:
    """check() must flag the syntax-breaking classes.

    Ops 2, 9, 13 always produce ill-formed output. Ops 1 and 12 each have
    one wrong-but-well-formed escape (comma-for-colon inside a call; quote
    deletion leaving a single valid operand), which is asserted precisely.
    Op 16 must be flagged whenever its insertion is unbalanced.
    """

    FIXTURES = [
        "=SUM(A1:A10)", '=SUMIF(B1:B5,"Not available",A1:A5)',
        "=IF(A1=1,MAX(B1:B3),0)", "=A1:A10+COUNT($B$2:$B$99)",
        '=IF(A1,"x",1)', '="a"&"b c"',
    ]

    def _runs(self, op_id, n=60):
        for formula in self.FIXTURES:
            if op_id not in applicable_operators(formula):
                continue
            for seed in range(n):
                yield formula, apply_noise_operator(formula, op_id, random.Random(seed))

    @pytest.mark.parametrize("op_id", [2, 9, 13])
    def test_always_flagged(self, op_id):
        for formula, out in self._runs(op_id):
            assert check(out), (op_id, formula, out)

    def test_wrong_range_flag_or_comma_escape(self):
        for formula, out in self._runs(1):
            if check(out):
                continue
            # the only unflagged escape: a comma-for-colon swap inside a
            # call, which is well-formed Excel (a two-argument union)
            assert out.count(",") == formula.count(",") + 1
            assert out.replace(",", ":", 1) != out
            assert sorted(out.replace(",", "", 1)) == sorted(formula.replace(":", "", 1))

    def test_malformed_string_flag_or_bare_operand_escape(self):
        for formula, out in self._runs(12):
            if check(out):
                continue
            # the only unflagged escape: deleted quotes around content that
            # still lexes as one well-formed operand
            assert '"' not in out or out.count('"') == formula.count('"') - 2

    def test_add_parentheses_flagged_when_unbalanced(self):
        for formula, out in self._runs(16):
            # structural parens only: an insertion landing inside a string
            # literal is not a paren at all
            depth = 0
            balanced = True
            for tok in lex(out):
                if tok.kind.value == "Punct" and tok.text == "(":
                    depth += 1
                elif tok.kind.value == "Punct" and tok.text == ")":
                    depth -= 1
                    if depth < 0:
                        balanced = False
            balanced = balanced and depth == 0
            if not balanced:
                assert check(out), (formula, out)


def test_corpus_wide_determinism():
    for formula in synth_corpus(30, seed=50):
        ops = applicable_operators(formula)
        assert ops == applicable_operators(formula)
        for op_id in ops:
            a = apply_noise_operator(formula, op_id, random.Random(99))
            b = apply_noise_operator(formula, op_id, random.Random(99))
            assert a == b


def _ref_range_colons(tokens):
    """The two-pass range-colon finder that the single-pass one replaced,
    kept verbatim (bar the name) as the reference."""
    whitespace, cell_ref = TokenKind.WHITESPACE, TokenKind.CELL_REF
    solid = [i for i, t in enumerate(tokens) if t.kind is not whitespace]
    out = []
    for pos in range(1, len(solid) - 1):
        i = solid[pos]
        tok = tokens[i]
        if tok.text == ":" and tok.kind is TokenKind.PUNCT:
            left, right = solid[pos - 1], solid[pos + 1]
            if tokens[left].kind is cell_ref and tokens[right].kind is cell_ref:
                out.append((i, left, right))
    return out


def test_range_colons_match_reference():
    rng = random.Random(41)
    cases = ["=SUM(A1 : A10)", "=A1 :B2", ": A1", "=A1:", "=A1 : ", "=A1: :B2",
             "=SUM(A1:A10, B1 : B2)", "=A1::B2", ":", "", "=\tA1\n:\nB2\t"]
    formulas = cases + synth_corpus(800, seed=42)
    formulas += [c for f in synth_corpus(300, seed=43) for c in _corruptions(f, rng, 4, ": ")]
    formulas += _envelope_formulas(rng)
    for formula in formulas:
        tokens = lex(formula)
        assert OPERATORS[1].sites(SiteIndex(tokens)) == _ref_range_colons(tokens), \
            formula


# The per-operator site finders that one SiteIndex pass replaced, kept as
# they were (bar the names) as the reference: each rescans every token.

def _ref_func_names(tokens, catalog):
    return [i for i, t in enumerate(tokens) if t.kind is TokenKind.FUNC_NAME]


def _ref_fixed_arity_calls(tokens, catalog):
    out = []
    for func_idx, args in match_brackets(tokens).calls.items():
        limits = catalog.get(tokens[func_idx].text)
        if limits is None:
            continue
        lo, hi = limits
        if hi is None:
            continue
        actions = []
        if len(args) == lo and len(args) >= 1:
            actions.append("delete")
        if len(args) == hi and len(args) >= 1:
            actions.append("append")
        if actions:
            out.append((func_idx, args, actions))
    return out


def _ref_swappable_calls(tokens, catalog):
    calls = [(func_idx, args) for func_idx, args in match_brackets(tokens).calls.items()
             if len(args) >= 2]
    if not calls:
        return []
    arg_type = noise._arg_typer(tokens)
    out = []
    for func_idx, args in calls:
        types = [arg_type(a) for a in args]
        if len(set(types)) > 1:
            out.append((func_idx, args, types))
    return out


def _ref_relational_ops(tokens, catalog):
    return [i for i, t in enumerate(tokens)
            if t.text in ("<=", ">=", "<>") and t.kind is TokenKind.OPERATOR]


def _ref_inequalities(tokens, catalog):
    return [i for i, t in enumerate(tokens) if t.text == "<>" and t.kind is TokenKind.OPERATOR]


def _ref_equalities(tokens, catalog):
    return [i for i, t in enumerate(tokens) if t.text == "=" and t.kind is TokenKind.OPERATOR]


def _ref_quoted_sheets(tokens, catalog):
    return [i for i, t in enumerate(tokens)
            if t.kind is TokenKind.SHEET_NAME and t.text[:1] == "'" and quote_closed(t.text)]


def _ref_sheet_bangs(tokens, catalog):
    return [i for i, t in enumerate(tokens)
            if t.text == "!" and t.kind is TokenKind.PUNCT
            and i > 0 and tokens[i - 1].kind is TokenKind.SHEET_NAME]


def _ref_closed_strings(tokens, catalog):
    return [i for i, t in enumerate(tokens)
            if t.kind is TokenKind.STRING_LIT and quote_closed(t.text)]


def _ref_closing_parens(tokens, catalog):
    return [i for i, t in enumerate(tokens) if t.text == ")" and t.kind is TokenKind.PUNCT]


REF_SITES = {
    1: lambda tokens, catalog: _ref_range_colons(tokens),
    2: lambda tokens, catalog: _ref_range_colons(tokens),
    3: _ref_func_names, 4: _ref_fixed_arity_calls, 5: _ref_swappable_calls,
    6: _ref_relational_ops, 7: _ref_relational_ops, 8: _ref_inequalities,
    9: _ref_equalities, 10: _ref_quoted_sheets, 11: _ref_sheet_bangs,
    12: _ref_closed_strings, 13: _ref_closing_parens,
    **{op_id: lambda tokens, catalog: [None] for op_id in (14, 15, 16, 17)},
}


def _site_test_formulas():
    rng = random.Random(61)
    formulas = (synth_corpus(600, seed=62) + list(FIXTURE_FORMULAS.values())
                + [f for cases in GOLDENS.values() for f, _, _ in cases]
                + TestSyntaxBreaking.FIXTURES + _envelope_formulas(rng)
                + ["", "=", "=1", "'S'!A1", "'S' !A1", "Data!A1", "A1!B2", "'open", '"open',
                   "=A1 : B2", "=A1::B2", ": A1", "=A1<>B1<=C1>=D1", "=A1< >B1", "=SUM (A1)",
                   '="a""b"&\'it\'\'s\'!A1', "=TODAY(1)", "=SUM(A1,)", "=\ud800<>1"])
    pieces = ['"', "'", '""', "''", "a", "B1", "1", "!", "(", ")", ":", "=", "<>", "<",
              ">", " ", ",", "SUM(", "IF("]
    formulas += ["=" + "".join(rng.choice(pieces) for _ in range(rng.randrange(14)))
                 for _ in range(2000)]
    formulas += [c for f in synth_corpus(200, seed=63)
                 for c in _corruptions(f, rng, 3, "():!=<>'\" ")]
    return formulas


def test_site_index_matches_per_operator_finders():
    catalog = default_catalog()
    for formula in _site_test_formulas():
        tokens = lex(formula, catalog)
        index = SiteIndex(tokens)
        for op_id, op in OPERATORS.items():
            assert list(op.sites(index)) == REF_SITES[op_id](tokens, catalog), (op_id, formula)
            # A fresh index per operator, as apply_noise_operator builds
            # one when it is given none.
            assert list(op.sites(SiteIndex(tokens))) == REF_SITES[op_id](tokens, catalog)


def test_applicable_operators_runs_call_arguments_at_most_once(monkeypatch):
    runs = []

    def counted(tokens):
        runs.append(1)
        return match_brackets(tokens)

    monkeypatch.setattr(noise, "match_brackets", counted)
    catalog = default_catalog()
    formulas = synth_corpus(200, seed=64) + _envelope_formulas(random.Random(65))
    with_calls = 0
    for formula in formulas:
        has_func = any(tok.kind is TokenKind.FUNC_NAME for tok in lex(formula, catalog))
        with_calls += has_func
        runs.clear()
        ops = applicable_operators(formula)
        # Operators 4 and 5 share one pass; every call is keyed by a
        # FuncName token, so a formula with none is not matched at all.
        assert len(runs) == has_func, formula
        for op_id in ops:
            runs.clear()
            apply_noise_operator(formula, op_id, random.Random(0))
            # Only the call-based operators ask for the call pass.
            assert len(runs) == (op_id in (4, 5)), (op_id, formula)
    assert 0 < with_calls < len(formulas)  # both cases are exercised


def test_user_noise_scans_each_formula_once(monkeypatch):
    scans = []
    scan = noise._scan

    def counted(tokens):
        scans.append(1)
        return scan(tokens)

    monkeypatch.setattr(noise, "_scan", counted)
    rng = random.Random(66)
    for formula in synth_corpus(200, seed=67) + _envelope_formulas(random.Random(68))[:5]:
        scans.clear()
        user_noise(formula, rng)
        # applicable_operators scans; the drawn operator reuses its sites.
        assert len(scans) == 1, formula


def _applicable_by_full_listing(formula, catalog):
    """The definition `applicable_operators` keeps: the operators whose site
    finder lists at least one site, every finder listed in full."""
    index = SiteIndex(lex(formula, catalog))
    return [op_id for op_id, op in OPERATORS.items() if list(op.sites(index))]


def test_applicable_operators_equals_the_full_listing():
    catalog = default_catalog()
    formulas = _site_test_formulas() + ["=A1+B1", '="x"&A1', "=1<>2", "=(A1)", "=B1:B9"]
    without_calls = 0
    for formula in formulas:
        tokens = lex(formula, catalog)
        without_calls += not any(tok.kind is TokenKind.FUNC_NAME for tok in tokens)
        want = _applicable_by_full_listing(formula, catalog)
        assert applicable_operators(formula) == want, formula
        assert applicable_operators(formula, index=SiteIndex(tokens)) == want, formula
    assert without_calls > 100


_FORMULA_PIECES = ['"', "'", '"s"', "'S'!", "A1", "B2:C3", "1", "!", "(", ")", ":", ",",
                   "=", "<>", "<=", "<", " ", "+", "SUM(", "IF(", "LOG10(", "DATE(", "TODAY(",
                   "ROUND(", "x"]


@given(st.lists(st.sampled_from(_FORMULA_PIECES), max_size=24))
@settings(max_examples=400, deadline=None)
@example(["A1", "+", "B2:C3"])  # no FuncName token
@example(["IF(", "A1", "<>", "1", ",", '"s"', ",", "2", ")"])
@example(["DATE(", "1", ",", "2", ",", "3", ")"])
def test_applicable_operators_equals_the_full_listing_on_any_pieces(pieces):
    formula = "=" + "".join(pieces)
    assert applicable_operators(formula) == _applicable_by_full_listing(
        formula, default_catalog()), formula


@given(st.lists(st.sampled_from("abc"), max_size=30), st.integers(0, 2**32))
@settings(max_examples=300, deadline=None)
def test_swap_draws_the_pair_the_listed_pairs_give(types, seed):
    # `_swap_arguments` draws by rank with rng.choice(range(count)); it must
    # pick, and consume the rng, as rng.choice over the listed pairs did.
    pairs = [(i, j) for i in range(len(types)) for j in range(i + 1, len(types))
             if types[i] != types[j]]
    assert [noise._differing_pair(types, rank) for rank in range(len(pairs))] == pairs
    if pairs:
        listed, ranked = random.Random(seed), random.Random(seed)
        assert noise._differing_pair(types, ranked.choice(range(len(pairs)))) \
            == listed.choice(pairs)
        assert ranked.random() == listed.random()


class TestBoundedCost:
    """user_noise at twice the size must not do three times the work: the
    tokens each pass receives are counted through wrappers, not timed, so
    load cannot fail it. The same operators apply at both sizes, so the
    seeds draw the same operators, the swap among them."""

    SEEDS = range(6)
    # Each pass, and the tokens (or argument types) one call of it receives.
    PASSES = {
        (objectives, "lex"): lambda args, tokens: len(tokens),
        (noise, "_scan"): lambda args, _: len(args[0]),
        (noise, "match_brackets"): lambda args, _: len(args[0]),
        (noise, "_differing_pair"): lambda args, _: len(args[0]),
        (noise, "_splice"): lambda args, _: len(args[0]),
    }

    def work(self, formula):
        counts = Counter()

        def counting(name, function, size):
            def counted(*args):
                result = function(*args)
                counts[name] += size(args, result)
                return result
            return counted

        class Tokens(list):
            # `_arg_typer` extends its prefix counts over one slice of the
            # tokens per extension; its other reads are single tokens.
            def __getitem__(self, key):
                item = super().__getitem__(key)
                if isinstance(key, slice):
                    counts["_arg_typer"] += len(item)
                return item

        arg_typer = noise._arg_typer
        with pytest.MonkeyPatch.context() as patch:
            for (module, name), size in self.PASSES.items():
                patch.setattr(module, name, counting(name, getattr(module, name), size))
            patch.setattr(noise, "_arg_typer", lambda tokens: arg_typer(Tokens(tokens)))
            drawn = [user_noise(formula, random.Random(seed)).detail for seed in self.SEEDS]
        return drawn, counts

    def assert_linear(self, make, n):
        drawn_n, work_n = self.work(make(n))
        drawn_2n, work_2n = self.work(make(2 * n))
        assert drawn_n == drawn_2n
        assert "op=5:swap_arguments" in drawn_n
        passes = {name for _, name in self.PASSES} | {"_arg_typer"}
        assert set(work_n) == set(work_2n) == passes  # the wrappers saw every pass
        assert all(work_2n[name] < 3 * work_n[name] for name in passes), (work_n, work_2n)

    def test_a_call_of_ten_thousand_arguments(self):
        # A variadic call whose arguments are of four types.
        self.assert_linear(lambda n: "=CHOOSE(" + ",".join(
            ("A1", '"s"', "2", "B1:B2<>C1")[i % 4] for i in range(n)) + ")", 5_000)

    def test_nesting_two_thousand_deep(self):
        self.assert_linear(lambda n: "=" + "IF(A1>0," * n + "B1" + ',"x")' * n, 1_000)
