import heapq
import importlib.util
import json
import pickle
import random
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_lexer import _corruptions, _envelope_formulas

from formulakit import tokenizer as tokenizer_module
from formulakit.catalog import FunctionCatalog, default_catalog
from formulakit.jsonl import write_json_atomic
from formulakit.lexer import TokenKind, lex
from formulakit.synth import synth_corpus
from formulakit.tokenizer import (MASK_TOKEN, PAD_TOKEN, SPACE_MARKER, UNK_TOKEN,
                                  BudgetTooSmall, PreToken, TokenizerModel, _bpe_apply,
                                  _split_on_specials, decode, encode, pretokenize, train_bpe)

REPO = Path(__file__).resolve().parent.parent


def _load_bench_inputs():
    """The benchmark's input generators (perfbench/inputs.py), read-only."""
    spec = importlib.util.spec_from_file_location("bench_inputs", REPO / "perfbench" / "inputs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


identifier_formulas = _load_bench_inputs().identifier_formulas

SUMIF_EXAMPLE = '=SUMIF(B1:B5, "Not available", A1:A5)'
SUMIF_PRETOKENS = ["=", "sumif", "(", "b", "1", ":", "b", "5", ",", SPACE_MARKER,
                   '"', "not", SPACE_MARKER, "available", '"', ",", SPACE_MARKER,
                   "a", "1", ":", "a", "5", ")"]


def oracle_merges(formulas, budget, catalog=None):
    """Brute-force BPE trainer over occurrence-level segment lists.

    Independent of the production trainer: no frequency grouping, plain
    dict counting, explicit greedy left-to-right merge application.
    """
    catalog = catalog or default_catalog()
    atomics = {SPACE_MARKER}
    segments = []
    for f in formulas:
        for p in pretokenize(f, catalog):
            if p.atomic:
                atomics.add(p.text)
            else:
                segments.append(list(p.text))
    alphabet = {c for seg in segments for c in seg}
    vocab = set(atomics) | alphabet
    vocab_size = 3 + len(vocab)  # pad/unk/mask
    merges = []
    while vocab_size < budget:
        counts = {}
        for seg in segments:
            for i in range(len(seg) - 1):
                pair = (seg[i], seg[i + 1])
                counts[pair] = counts.get(pair, 0) + 1
        if not counts or max(counts.values()) < 2:
            break
        best_count = max(counts.values())
        best = min((p for p, c in counts.items() if c == best_count),
                   key=lambda p: (p[0] + p[1], p))
        merges.append(best)
        merged = best[0] + best[1]
        new_segments = []
        for seg in segments:
            out, i = [], 0
            while i < len(seg):
                if i + 1 < len(seg) and seg[i] == best[0] and seg[i + 1] == best[1]:
                    out.append(merged)
                    i += 2
                else:
                    out.append(seg[i])
                    i += 1
            new_segments.append(out)
        segments = new_segments
        if merged not in vocab:
            vocab.add(merged)
            vocab_size += 1
    return merges


class TestPretokenize:
    def test_sumif_full_example(self):
        assert [p.text for p in pretokenize(SUMIF_EXAMPLE)] == SUMIF_PRETOKENS

    def test_case_collapses(self):
        assert pretokenize("=SUM(C3)") == pretokenize("=sum(c3)")

    def test_simple_ref(self):
        assert [p.text for p in pretokenize("=A1")] == ["=", "a", "1"]

    def test_atomicity_classes(self):
        catalog = default_catalog()
        for p in pretokenize(SUMIF_EXAMPLE + " + tax_rate*2.5", catalog):
            if p.atomic:
                assert (len(p.text) == 1 and not p.text.isalpha()) \
                    or p.text == SPACE_MARKER \
                    or p.text in catalog \
                    or not p.text.isalnum(), p
            else:
                assert not any(ch.isdigit() or ch.isspace() for ch in p.text), p
                assert all(ch.isalpha() or ch == "_" for ch in p.text), p

    def test_function_names_atomic_even_as_segments(self):
        # `sum` inside a sheet name run is not the builtin; whole-run match is
        pre = {p.text: p.atomic for p in pretokenize("=summary!A1")}
        assert pre["summary"] is False
        pre = {p.text: p.atomic for p in pretokenize("=SUM(A1)")}
        assert pre["sum"] is True

    def test_multichar_operator_is_one_pretoken(self):
        assert [p.text for p in pretokenize("=A1<=B2")] == ["=", "a", "1", "<=", "b", "2"]

    def test_whitespace_one_marker_per_char(self):
        texts = [p.text for p in pretokenize("=1   +2")]
        assert texts == ["=", "1", SPACE_MARKER, SPACE_MARKER, SPACE_MARKER, "+", "2"]


# pretokenize as it stood before PreToken became a NamedTuple and the loop
# stopped looking up TokenKind members per token, kept verbatim (bar the
# names) as the reference.
def _ref_explode(text, catalog, out):
    run = []

    def flush():
        if run:
            word = "".join(run)
            out.append(PreToken(word, word in catalog))
            run.clear()

    for ch in text:
        if ch.isalpha() or ch == "_":
            run.append(ch)
        else:
            flush()
            if ch.isspace():
                out.append(PreToken(SPACE_MARKER, True))
            else:
                out.append(PreToken(ch, True))
    flush()


def _ref_pretokenize(formula, catalog=None):
    if catalog is None:
        catalog = default_catalog()
    out = []
    for tok in lex(formula, catalog):
        text = tok.text.lower()
        if tok.kind is TokenKind.WHITESPACE:
            out.extend(PreToken(SPACE_MARKER, True) for _ in text)
        elif tok.kind is TokenKind.FUNC_NAME:
            out.append(PreToken(text, True))
        elif tok.kind is TokenKind.OPERATOR:
            out.append(PreToken(text, True))
        elif tok.kind in (TokenKind.PUNCT, TokenKind.ERROR):
            out.extend(PreToken(ch, True) for ch in text)
        else:
            _ref_explode(text, catalog, out)
    return out


_PRE_CATALOG = FunctionCatalog.from_lines(["MYFN,1,1", "total,0,*", "A,0,*"])


def _assert_pretokenize_matches_reference(formula):
    for catalog in (None, _PRE_CATALOG):
        got = pretokenize(formula, catalog)
        assert got == _ref_pretokenize(formula, catalog), formula
        assert all(type(p) is PreToken and type(p.atomic) is bool for p in got), formula


class TestPretokenizeReference:
    @given(st.text(alphabet=st.sampled_from(
        list('AZaz019$:!,()"\' \t\n=<>+-*/^&%._#;@Äé€İß²')) | st.characters(), max_size=60))
    @settings(max_examples=300, deadline=None)
    @example("\ud800")
    @example("")
    def test_matches_reference_on_any_text(self, s):
        _assert_pretokenize_matches_reference(s)

    def test_matches_reference_on_synth_and_identifier_corpora(self):
        for formula in synth_corpus(1000, seed=31):
            _assert_pretokenize_matches_reference(formula)
        for formula in ["='Q1 Report'!A1&\"Not  available\"", "=tax_rate*Total_2(A1)",
                        "=myfn (1)+MyFn\t(2)", "=\"İstanbul ß\"", "=A1 \r\n+ 2"]:
            _assert_pretokenize_matches_reference(formula)

    def test_matches_reference_on_corruptions(self):
        rng = random.Random(32)
        for formula in synth_corpus(300, seed=33):
            for corrupted in _corruptions(formula, rng, 5, chars="(),\"' "):
                _assert_pretokenize_matches_reference(corrupted)

    def test_matches_reference_on_envelope_formulas(self):
        rng = random.Random(34)
        for formula in _envelope_formulas(rng):
            _assert_pretokenize_matches_reference(formula)
            for corrupted in _corruptions(formula, rng, 3, chars="(),\"' "):
                _assert_pretokenize_matches_reference(corrupted)


class TestPreTokenContract:
    def test_fields_and_values(self):
        assert PreToken._fields == ("text", "atomic")
        pre = PreToken("sum", True)
        assert (pre.text, pre.atomic) == ("sum", True)

    def test_immutable(self):
        pre = PreToken("a", False)
        for field in PreToken._fields:
            with pytest.raises(AttributeError):
                setattr(pre, field, None)
        with pytest.raises(AttributeError):
            pre.other = 1

    def test_equal_and_hashed_by_value(self):
        a, b = PreToken("tax", False), PreToken("tax", False)
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
        assert a != PreToken("tax", True)

    def test_pickle_round_trip(self):
        pres = pretokenize(SUMIF_EXAMPLE)
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            back = pickle.loads(pickle.dumps(pres, protocol))
            assert back == pres and all(type(p) is PreToken for p in back)


class TestTrainBpe:
    def test_aaab_merge_order(self):
        model = train_bpe(['="aaab"'] * 100, budget=64)
        assert model.merges[0] == ("a", "a")
        # tie between (aa,a)=100 and (a,b)=100 resolves to "aaa" < "ab"
        assert model.merges[1] == ("aa", "a")

    def test_no_function_paren_fusion(self):
        corpus = synth_corpus(300, seed=21)
        model = train_bpe(corpus, budget=600)
        names = default_catalog().names()
        for tok in model.vocab:
            for name in names:
                assert tok != name + "(", tok

    def test_empty_corpus_minimal_model(self):
        model = train_bpe([], budget=4)
        assert model.merges == oracle_merges([], 4) == []
        assert set(model.vocab) == {PAD_TOKEN, UNK_TOKEN, MASK_TOKEN, SPACE_MARKER}

    def test_budget_floor_error(self):
        with pytest.raises(BudgetTooSmall, match="minimum floor"):
            train_bpe(['="aaab"'], budget=5)

    def test_budget_respected_exactly(self):
        corpus = synth_corpus(200, seed=4)
        saturated = train_bpe(corpus, budget=4096)  # merges run out first
        budget = len(saturated.vocab) - 30
        model = train_bpe(corpus, budget=budget)
        # enough repeating pairs at this scale to exhaust the budget exactly
        assert len(model.vocab) == budget
        assert model.merges == saturated.merges[:len(model.merges)]

    def test_oracle_equivalence_micro_corpora(self):
        corpora = [
            ['="aaab"'] * 100,
            synth_corpus(30, seed=1),
            synth_corpus(50, seed=2),
            ['=IF(ISERROR(G6*1.2),"")', "=B2<=EDATE(TODAY(),-33)"] * 10,
            ["='My Sheet'!A1&\"total total\"", "=tax_rate*basis"] * 5,
        ]
        for corpus in corpora:
            model = train_bpe(corpus, budget=200)
            assert model.merges == oracle_merges(corpus, 200)

    def test_oracle_repeated_letter_runs(self):
        # overlapping pairs: merging (a, a) must not count a run's pairs twice
        corpus = ['="aaaaaaa"'] * 3 + ['="aaaa"'] * 2 + ['="baaab"', '="aaa"']
        model = train_bpe(corpus, budget=400)
        assert model.merges == oracle_merges(corpus, 400)
        assert model.merges[:2] == [("a", "a"), ("aa", "aa")]

    def test_oracle_one_string_two_routes(self):
        # "abc" is reachable as (a, bc) and as (ab, c), and "sum" is built
        # from letters although the built-in name is already in the vocab.
        # A string is only ever built by one merge: each occurrence is
        # segmented as the string alone would be, which after its first
        # merge is the single token.
        corpus = ['="abc"', '="xabc"', '="abcy"', '="ab"', '="bc"', '="bcz"',
                  '="summary"', '="sumo"', "=SUM(A1)"] * 2
        model = train_bpe(corpus, budget=400)
        assert model.merges == oracle_merges(corpus, 400)
        built = [left + right for left, right in model.merges]
        assert "abc" in built and "sum" in built
        assert len(set(built)) == len(built)
        assert len(set(model.vocab)) == len(model.vocab)

    def test_oracle_many_tied_counts(self):
        letters = "bcdfgh"
        corpus = [f'="{x}{y}"' for x in letters for y in letters] * 2
        corpus += [f'="{x}{y}{x}"' for x in letters for y in "aeiou"] * 3
        for budget in (60, 400):
            assert train_bpe(corpus, budget=budget).merges == oracle_merges(corpus, budget)

    def test_oracle_stop_on_count_below_two(self):
        corpus = ['="abcd"', '="abce"', '="xyz"', '="qrst"'] * 2 + ['="mnop"']
        saturated = train_bpe(corpus, budget=4096)
        size = len(saturated.vocab)
        assert size < 4096  # the count rule stopped it
        for budget in (size - 1, size, size + 1):
            model = train_bpe(corpus, budget=budget)
            assert model.merges == oracle_merges(corpus, budget)
        # at exactly its final size both stops fire; one past, only the count
        assert train_bpe(corpus, budget=size).merges == saturated.merges
        assert train_bpe(corpus, budget=size + 1).merges == saturated.merges

    @pytest.mark.parametrize("budget", [256, 2048])
    def test_oracle_synth_samples(self, budget):
        for seed in range(20):
            corpus = synth_corpus(120, seed=seed)
            assert train_bpe(corpus, budget=budget).merges == oracle_merges(corpus, budget), seed

    @given(st.lists(st.text(alphabet="abc", min_size=1, max_size=8), min_size=1, max_size=12),
           st.sampled_from([12, 20, 60]))
    @settings(max_examples=300, deadline=None)
    @example(["aaaa"] * 3 + ["aaa"], 20)  # adjacent sites of (a, a)
    @example(["abab", "ab", "ba"], 20)  # adjacent sites sharing (b, a)
    @example(["abca", "cab", "bcab"], 60)  # sites at either end of a word
    @example(["aab", "aab", "ab"], 12)  # (a, a) falls to 0 in the round of (a, b)
    def test_oracle_short_runs(self, runs, budget):
        # the cases site-local updates can get wrong: adjacent sites,
        # sites at either end of a word, counts that fall to 0 mid-round
        corpus = [f'="{run}"' for run in runs]
        assert train_bpe(corpus, budget=budget).merges == oracle_merges(corpus, budget)

    @given(st.lists(st.text(alphabet="ab", min_size=1, max_size=10), min_size=1, max_size=10),
           st.sampled_from([8, 12, 40]))
    @settings(max_examples=300, deadline=None)
    @example(["aabb", "aabb"], 40)  # (a, a), then (b, b), takes a word's last two letters
    @example(["baaa", "baaa"], 40)  # a site at the second a leaves the last one
    @example(["aaaa", "aaaa", "aa"], 40)  # the second site takes the last two
    @example(["aabb", "baaa", "aaaa"], 40)
    @example(["abc", "xabc", "xab", "bc"], 40)  # (ab, c) reaches 2 from two words
    def test_oracle_two_letter_runs(self, runs, budget):
        # a site is sought by `list.index` no more often than its word holds
        # left, and uses up two occurrences when left == right
        corpus = [f'="{run}"' for run in runs]
        assert train_bpe(corpus, budget=budget).merges == oracle_merges(corpus, budget)

    def test_pairs_counted_once_stay_off_the_heap(self, monkeypatch):
        entries = []  # every entry the trainer puts on its heap

        class RecordingHeapq:
            heappop = staticmethod(heapq.heappop)

            @staticmethod
            def heapify(heap):
                entries.extend(heap)
                heapq.heapify(heap)

            @staticmethod
            def heappush(heap, entry):
                entries.append(entry)
                heapq.heappush(heap, entry)

            @staticmethod
            def heapreplace(heap, entry):
                entries.append(entry)
                return heapq.heapreplace(heap, entry)

        monkeypatch.setattr(tokenizer_module, "heapq", RecordingHeapq)
        # "abc" is reachable as (ab, c) and as (a, bc). (a, b) goes first, so
        # (ab, c) reaches 2 from two words that each hold it once, (b, c)
        # falls from 3 to 1, and (x, abc) is only ever counted once.
        corpus = [f'="{run}"' for run in ("abc", "xabc", "xab", "bc")]
        model = train_bpe(corpus, budget=40)
        assert model.merges == oracle_merges(corpus, 40) == [("a", "b"), ("ab", "c")]
        assert all(-count >= 2 for count, _, _ in entries)
        pushed = {pair for _, _, pair in entries}
        assert ("ab", "c") in pushed and ("b", "c") in pushed
        assert ("x", "abc") not in pushed and ("x", "a") in pushed

    def test_deterministic_model_bytes(self, tmp_path):
        corpus = synth_corpus(80, seed=6)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        write_json_atomic(a, train_bpe(corpus, budget=256).to_json())
        write_json_atomic(b, train_bpe(list(corpus), budget=256).to_json())
        assert a.read_bytes() == b.read_bytes()

    def test_atomic_inventory_covered_by_vocab(self):
        corpus = synth_corpus(120, seed=14)
        model = train_bpe(corpus, budget=512)
        vocab = set(model.vocab)
        for f in corpus:
            for p in pretokenize(f):
                if p.atomic:
                    assert p.text in vocab, p

    def test_merge_outputs_stay_inside_segments(self):
        model = train_bpe(synth_corpus(200, seed=13), budget=512)
        for left, right in model.merges:
            merged = left + right
            assert not any(ch.isdigit() or ch.isspace() for ch in merged), merged
            assert SPACE_MARKER not in merged
            assert all(ch.isalpha() or ch == "_" for ch in merged), merged


@pytest.fixture(scope="module")
def model():
    return train_bpe(synth_corpus(300, seed=31), budget=512)


class TestEncodeDecode:
    def test_zero_merges_passthrough(self):
        model = train_bpe(["=A1"], budget=16)
        assert model.merges == []
        ids = encode(model, "=A1")
        assert [model.vocab[i] for i in ids] == ["=", "a", "1"]

    def test_aaab_encoding_uses_merges(self):
        model = train_bpe(['="aaab"'] * 100, budget=64)
        ids = encode(model, '="aaab"')
        assert [model.vocab[i] for i in ids] == ["=", '"', "aaab", '"']

    def test_decode_round_trip_lowercases(self, model):
        assert decode(model, encode(model, "=SUM(A1)")) == "=sum(a1)"
        assert decode(model, encode(model, "=sum(a1:a10)")) == "=sum(a1:a10)"

    def test_encode_decode_fixed_point(self, model):
        rng = random.Random(17)
        for f in synth_corpus(50, seed=18):
            text = decode(model, encode(model, f))
            assert decode(model, encode(model, text)) == text

    def test_case_insensitive_encoding(self, model):
        rng = random.Random(19)
        for f in synth_corpus(50, seed=20):
            assert encode(model, f) == encode(model, f.upper())

    def test_out_of_range_id(self, model):
        with pytest.raises(ValueError, match="position 0"):
            decode(model, [len(model.vocab)])
        with pytest.raises(ValueError, match="position 2"):
            decode(model, [0, 1, -1])

    def test_unknown_chars_map_to_unk(self, model):
        ids = encode(model, "=Ω1")
        assert model.unk_id in ids

    def test_mask_literal_maps_to_special_id(self, model):
        ids = encode(model, "=SUM(<mask>)")
        assert model.id_of(MASK_TOKEN) in ids
        assert decode(model, ids) == "=sum(<mask>)"

    def test_whitespace_collapses_to_single_spaces(self, model):
        assert decode(model, encode(model, "=1,\t2")) == "=1, 2"


def oracle_bpe_apply(chars, rank):
    """The rank-order rule by rescanning: find the lowest-ranked pair
    present, merge all of its occurrences greedily from the left, repeat."""
    word = list(chars)
    while len(word) >= 2:
        ranked = [(rank[pair], pair) for pair in zip(word, word[1:]) if pair in rank]
        if not ranked:
            break
        (left, right) = min(ranked)[1]
        out, i = [], 0
        while i < len(word):
            if i + 1 < len(word) and word[i] == left and word[i + 1] == right:
                out.append(left + right)
                i += 2
            else:
                out.append(word[i])
                i += 1
        word = out
    return word


def _hand_model(merges):
    vocab = [PAD_TOKEN, UNK_TOKEN, MASK_TOKEN, SPACE_MARKER, "a", "b", "c", "d"]
    for left, right in merges:
        if left + right not in vocab:
            vocab.append(left + right)
    return TokenizerModel(vocab=vocab, merges=list(merges), budget=len(vocab))


# "abc" has two routes, (a, bc) and (ab, c), and runs of "a" overlap.
TWO_ROUTE_MODEL = _hand_model([("b", "c"), ("a", "bc"), ("abc", "d"), ("a", "b"),
                               ("ab", "c"), ("a", "a"), ("aa", "a")])
# A merge can make a pair that outranks it: all of one rank's merges come
# before any pair they make.
LOW_RANK_MODEL = _hand_model([("ab", "a"), ("a", "b"), ("cab", "d"), ("c", "ab")])
ABC_MODEL = train_bpe([f'="{w}"' for w in ("aaaa", "abab", "abcabc", "cab", "aaab", "bcbc",
                                           "dada", "abcd", "ddd")] * 2, budget=40)


def _letter_runs(formulas):
    return sorted({p.text for f in formulas for p in pretokenize(f) if not p.atomic})


class TestEncodeOracle:
    @given(st.text(alphabet="abcd", max_size=16))
    @settings(max_examples=500, deadline=None)
    @example("aaaa")
    @example("abab")
    @example("aaaaa")
    @example("abcd")
    @example("abcabcd")
    def test_matches_rescan_on_small_alphabet(self, run):
        for model in (TWO_ROUTE_MODEL, LOW_RANK_MODEL, ABC_MODEL):
            assert _bpe_apply(run, model) == oracle_bpe_apply(run, model._merge_rank), run

    def test_two_route_model(self):
        # (b, c) outranks (a, b), so "abc" comes by (a, bc), never (ab, c)
        assert _bpe_apply("abc", TWO_ROUTE_MODEL) == ["abc"]
        assert _bpe_apply("abcd", TWO_ROUTE_MODEL) == ["abcd"]
        assert _bpe_apply("abd", TWO_ROUTE_MODEL) == ["ab", "d"]
        # (a, a) greedily from the left, then (aa, a)
        assert _bpe_apply("aaaaa", TWO_ROUTE_MODEL) == ["aa", "aaa"]
        assert _bpe_apply("aaaa", TWO_ROUTE_MODEL) == ["aa", "aa"]

    def test_later_rank_may_make_earlier_pair(self):
        model = _hand_model([("ab", "c"), ("a", "b")])
        assert _bpe_apply("abc", model) == oracle_bpe_apply("abc", model._merge_rank) == ["abc"]
        # both (a, b) merge before the (ab, a) the first one makes is seen
        assert _bpe_apply("abab", LOW_RANK_MODEL) == ["ab", "ab"]
        assert _bpe_apply("aba", LOW_RANK_MODEL) == ["aba"]

    def test_a_rank_pushes_its_pairs_after_its_last_pop(self):
        # (b, c) makes [a, bc, a, bc] and (a, bc) then makes two "abc". The
        # first of those makes (abc, a), which outranks (a, bc): pushed before
        # the second (a, bc) is popped, it would cut in and give ["abca", "bc"].
        model = _hand_model([("b", "c"), ("a", "b"), ("ab", "c"), ("abc", "a"), ("a", "bc")])
        assert _bpe_apply("abcabc", model) == oracle_bpe_apply("abcabc", model._merge_rank)
        assert _bpe_apply("abcabc", model) == ["abc", "abc"]

    @pytest.mark.parametrize("name", ["synth", "identifier"])
    def test_matches_rescan_on_corpus_runs(self, name):
        if name == "synth":
            corpora = [synth_corpus(300, seed=seed) for seed in (31, 32)]
        else:
            corpora = [identifier_formulas(seed, 800) for seed in (0, 1)]
        model = train_bpe(corpora[0], budget=600)
        for corpus in corpora:
            for run in _letter_runs(corpus):
                assert _bpe_apply(run, model) == oracle_bpe_apply(run, model._merge_rank), run
        fresh = TokenizerModel.from_json(model.to_json())
        unk = fresh.unk_id
        for formula in corpora[1][:100]:
            expected = []
            for pre in pretokenize(formula):
                pieces = [pre.text] if pre.atomic else oracle_bpe_apply(pre.text,
                                                                        fresh._merge_rank)
                expected.extend(unk if fresh.id_of(p) is None else fresh.id_of(p)
                                for p in pieces)
            assert encode(fresh, formula) == expected, formula


# Fifteen merges over a, b, c and d, some of whose products merge again.
SCALING_MODEL = _hand_model([("a", "b"), ("c", "d"), ("a", "a"), ("b", "c"), ("d", "a"),
                             ("ab", "cd"), ("aa", "b"), ("cd", "a"), ("b", "b"), ("c", "c"),
                             ("d", "d"), ("ab", "ab"), ("bc", "d"), ("a", "c"), ("da", "b")])


class TestEncodeScaling:
    """The heap pass over a letter run twice as long does under three times
    the heap operations: counted, not timed, so load cannot fail it."""

    def heap_operations(self, run):
        counts = Counter()

        def counting(name):
            operation = getattr(heapq, name)

            def counted(*args):
                counts[name] += 1
                return operation(*args)
            return counted

        with pytest.MonkeyPatch.context() as patch:
            for name in ("heappop", "heappush"):
                patch.setattr(heapq, name, counting(name))
            pieces = _bpe_apply(run, SCALING_MODEL)
        assert "".join(pieces) == run
        return counts.total()

    def test_twice_the_letters_under_three_times_the_work(self):
        rng = random.Random(0)
        letters = "".join(rng.choice("abcd") for _ in range(8_000))
        n, twice = self.heap_operations(letters[:4_000]), self.heap_operations(letters)
        assert n > 0  # the counting wrappers saw the pass
        assert twice < 3 * n, (n, twice)


def scan_split_on_specials(text, specials):
    """The per-character marker scan that the compiled alternation replaced."""
    markers = sorted({s for s in specials if s}, key=len, reverse=True)
    chunks = []
    i = plain_start = 0
    while i < len(text):
        hit = next((m for m in markers if text.startswith(m, i)), None)
        if hit is None:
            i += 1
            continue
        if plain_start < i:
            chunks.append((text[plain_start:i], False))
        chunks.append((hit, True))
        i += len(hit)
        plain_start = i
    if plain_start < len(text):
        chunks.append((text[plain_start:], False))
    return chunks


class TestEncodeMemo:
    def test_repeat_and_reloaded_model_agree(self, model):
        corpus = synth_corpus(60, seed=41) + ["=Sheet_Total*<mask>", "=Ω+tax_rate"]
        first = [encode(model, f) for f in corpus]
        assert [encode(model, f) for f in corpus] == first
        fresh = TokenizerModel.from_json(model.to_json())
        assert [encode(fresh, f) for f in corpus] == first

    def test_memo_is_not_part_of_the_model(self, model):
        fresh = TokenizerModel.from_json(model.to_json())
        encode(model, "=revenue_total+SUM(A1)")
        assert model._ids["revenue_total"]
        assert model == TokenizerModel.from_json(model.to_json()) == fresh
        assert model.to_json() == fresh.to_json()
        assert "_ids=" not in repr(model)

    def test_texts_and_runs_share_one_memo(self, model):
        # "total" is a residual token text in some formulas and a letter run
        # of a longer text in others; whichever fills its memo entry first,
        # each formula encodes as on a model that has encoded nothing.
        corpus = ["=total", "=Total_2", "='total'!A1", '="a total"', "=x1total+total"]
        alone = [encode(TokenizerModel.from_json(model.to_json()), f) for f in corpus]
        for order in (corpus, corpus[::-1]):
            fresh = TokenizerModel.from_json(model.to_json())
            assert {f: encode(fresh, f) for f in order} == dict(zip(corpus, alone))

    @pytest.mark.parametrize("text", [
        "<mask><pad>", "<<mask>>", "<mas", "<mask>=A1", "=A1<unk>", "", "<pad>",
        "=IF(<mask><<pad>>, <unk", "<mask<mask>>", "=A1<>B1<mask>",
    ])
    def test_split_matches_character_scan(self, text):
        specials = (MASK_TOKEN, PAD_TOKEN, UNK_TOKEN)
        assert _split_on_specials(text) == scan_split_on_specials(text, specials)


def oracle_encode(model, formula):
    """encode as a loop over pretokens: split on the special literals,
    pretokenize each chunk under the model's catalog, split each letter run
    by the heap pass."""
    unk = model.unk_id
    ids = []
    for chunk, is_special in _split_on_specials(formula):
        if is_special:
            ids.append(model.id_of(chunk))
            continue
        for pre in pretokenize(chunk, model.catalog):
            pieces = [pre.text] if pre.atomic else _bpe_apply(pre.text, model)
            ids.extend(unk if model.id_of(p) is None else model.id_of(p) for p in pieces)
    return ids


# Inputs where a token's class or its lowercased length is easy to get wrong.
TRICKY_FORMULAS = [
    '=A1&"<mask>"', '="a<mask>b"&<mask>&"x"', "=<mask>+SUM(<mask>)", '=IF(A1,"x<pad>y",<unk>)',
    "=SUM(\tA1 ,  B2\t\t)", "=  revenue   +\ttax_rate", '=" two  spaces\t"',
    '="café "&Éclair', '=İstanbul+"İİ"&İ', "=naïve_total", "=A1?B2", "=#REF!+1", "=A1 € B1",
    "=SUM(SUM)", "=sum(sum_total, Sum)", "=LOG10(A1)+log10", "=ATAN2(A1,B1)+atan2",
    "='Log Sheet'!A1*'Sum Sheet'!B$2",
]

TOKEN_MEMO_MODEL = train_bpe(synth_corpus(300, seed=31) + TRICKY_FORMULAS * 3, budget=600)

CATALOG_WITHOUT_SUM = FunctionCatalog({name: default_catalog().get(name)
                                       for name in default_catalog().names() if name != "sum"})


class TestTokenMemo:
    @pytest.mark.parametrize("name", ["synth", "identifier", "tricky"])
    def test_matches_pretokenize_oracle(self, name):
        if name == "synth":
            formulas = synth_corpus(300, seed=31) + synth_corpus(300, seed=32)
        elif name == "identifier":
            formulas = identifier_formulas(0, 800) + identifier_formulas(1, 800)
        else:
            formulas = TRICKY_FORMULAS
        fresh = TokenizerModel.from_json(TOKEN_MEMO_MODEL.to_json())
        expected = [oracle_encode(fresh, f) for f in formulas]
        assert [encode(fresh, f) for f in formulas] == expected  # memo filling
        assert [encode(fresh, f) for f in formulas] == expected  # memo warm
        assert [encode(TOKEN_MEMO_MODEL, f) for f in formulas] == expected

    def test_catalogs_keep_their_own_entries(self):
        formulas = ["=SUM(A1:A3)", "=SUM(SUM)", '="sum"&Sum', "=sum_total+SUM(B1)"]
        pieces = []
        for catalog in (default_catalog(), CATALOG_WITHOUT_SUM):
            model = train_bpe(["=SUM(A1)"] + ['="sun mug"'] * 3, budget=64, catalog=catalog)
            assert model.catalog == catalog
            # letters never merge to `sum` here, so it reads as letters
            # unless the catalog makes it one atomic token
            assert "sum" not in {left + right for left, right in model.merges}
            got = [encode(model, f) for f in formulas]
            assert got == [oracle_encode(model, f) for f in formulas], catalog
            loaded = TokenizerModel.from_json(model.to_json())
            assert loaded == model and [encode(loaded, f) for f in formulas] == got
            pieces.append([[model.vocab[i] for i in ids] for ids in got])
        # `sum` is one atomic token under the default catalog and letters
        # under the other
        for default, without in zip(pieces[0][1:3], pieces[1][1:3]):
            assert "sum" in default and "sum" not in without

    def test_train_matches_oracle_under_custom_catalog(self):
        catalog = FunctionCatalog.from_lines(["total,1,1", "log10,1,1", "if,1,3", "rate,0,0"])
        mixed = ["=TOTAL(A1)+total_rate", '="total of rate"&\'Rate Sheet\'!B2',
                 "=LOG10(rate)*log10", "=IF(x, 1.5e3, #N/A)", "=  SUM( A1 , \ttax )",
                 "=É+İ?total", '="rate  rates ratio"&Rate'] * 3
        corpora = [mixed, mixed + synth_corpus(120, seed=7), identifier_formulas(2, 200) + mixed]
        for corpus in corpora:
            for budget in (200, 400):
                model = train_bpe(corpus, budget, catalog)
                merges = oracle_merges(corpus, budget, catalog)
                assert model.merges == merges
                assert model.vocab == oracle_vocab(corpus, merges, catalog)
                assert model.catalog == catalog
                # the catalog matters here
                default = train_bpe(corpus, budget)
                assert (model.vocab, model.merges) != (default.vocab, default.merges)


def oracle_vocab(formulas, merges, catalog=None):
    """The vocab train_bpe builds: the specials, the sorted atomic pretokens
    and letters, then each merge's product the first time it is made."""
    pres = [p for f in formulas for p in pretokenize(f, catalog)]
    base = {SPACE_MARKER} | {p.text for p in pres if p.atomic}
    base |= {ch for p in pres if not p.atomic for ch in p.text}
    vocab = [PAD_TOKEN, UNK_TOKEN, MASK_TOKEN] + sorted(base)
    for left, right in merges:
        if left + right not in vocab:
            vocab.append(left + right)
    return vocab


class TestModelFile:
    def test_save_load_round_trip(self, tmp_path):
        model = train_bpe(synth_corpus(60, seed=40), budget=256)
        path = tmp_path / "model.json"
        write_json_atomic(path, model.to_json())
        loaded = TokenizerModel.load(path)
        assert loaded.vocab == model.vocab
        assert loaded.merges == model.merges
        assert loaded.budget == model.budget
        assert loaded == model
        f = "=SUM(A1:A10)"
        assert encode(loaded, f) == encode(model, f)

    def test_stable_schema(self, tmp_path):
        model = train_bpe(["=A1"], budget=16)
        path = tmp_path / "m.json"
        write_json_atomic(path, model.to_json())
        obj = json.loads(path.read_text("utf-8"))
        assert list(obj) == ["vocab", "merges", "specials", "budget"]
        assert list(obj["specials"]) == ["mask_token", "pad", "unknown", "space_marker"]
        assert obj["specials"] == {"mask_token": "<mask>", "pad": "<pad>", "unknown": "<unk>",
                                   "space_marker": "␣"}

    def test_a_catalog_other_than_the_default_is_kept(self):
        model = train_bpe(["=MYFN(total)+A(1)"], budget=40, catalog=_PRE_CATALOG)
        obj = model.to_json()
        assert list(obj) == ["vocab", "merges", "specials", "budget", "catalog"]
        assert obj["catalog"] == ["a,0,*", "myfn,1,1", "total,0,*"]
        loaded = TokenizerModel.from_json(json.loads(json.dumps(obj)))
        assert loaded == model and loaded.catalog == _PRE_CATALOG
        assert loaded != TokenizerModel(model.vocab, model.merges, model.budget)
        # the default catalog, given explicitly, is still left out
        explicit = train_bpe(["=SUM(A1)"], budget=40, catalog=FunctionCatalog.from_lines(
            default_catalog().lines()))
        assert "catalog" not in explicit.to_json()


def test_bpe_benchmark_script_runs(run_python):
    proc = run_python(str(REPO / "benchmarks" / "bench_bpe.py"),
                      "--formulas", "30", "--budget", "90")
    assert proc.returncode == 0, proc.stderr
    assert "identical to the from-scratch trainer" in proc.stdout
    assert "ids identical to the pretokenize loop" in proc.stdout
