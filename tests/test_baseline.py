import json
import random
import re
from collections import Counter

import pytest
from test_curation import envelope_records, lex_work

from formulakit import baseline
from formulakit.baseline import (SketchIndex, build_index, completion_candidates,
                                 repair_candidates)
from formulakit.cli import main
from formulakit.curation import dedup_key
from formulakit.jsonl import write_json_atomic
from formulakit.lexer import check, normalize, sketch
from formulakit.similarity import (formula_token_ids, formula_token_ids_frozen,
                                   similarities_to_many, token_edit_similarity)
from formulakit.synth import synth_corpus


class TestBuildIndex:
    def test_sketch_frequency_counting(self):
        index = build_index(["=SUM(A1:A2)", "=SUM(B1:B9)", "=TODAY()"])
        bucket = dict(index.entries[dedup_key("=SUM(A1:A2)")])
        assert sum(bucket.values()) == 2
        assert index.total_formulas == 3

    def test_empty_corpus(self):
        index = build_index([])
        assert index.entries == {}
        assert repair_candidates(index, "=A1", 5) == []

    def test_duplicate_formulas_accumulate(self):
        index = build_index(["=A1"] * 4 + ["=B1"])
        bucket = index.entries[dedup_key("=A1")]
        assert ("=A1", 4) in bucket
        assert index.total_formulas == 5

    def test_buckets_sorted_by_frequency_then_text(self):
        index = build_index(["=SUM(A1:A2)"] * 3 + ["=SUM(B1:B2)"] * 3 + ["=SUM(C1:C2)"] * 5)
        bucket = index.entries[dedup_key("=SUM(A1:A2)")]
        assert bucket[0] == ("=SUM(C1:C2)", 5)
        assert bucket[1] == ("=SUM(A1:A2)", 3)  # tie broken by text

    def test_counts_match_brute_force(self):
        corpus = synth_corpus(150, seed=90) * 2
        index = build_index(corpus)
        brute = {}
        for f in corpus:
            brute[dedup_key(f)] = brute.get(dedup_key(f), 0) + 1
        assert {s: sum(c for _, c in b) for s, b in index.entries.items()} == brute


    def test_keys_each_distinct_text_once(self, monkeypatch, tmp_path):
        # The per-formula keyed index, the reference: dedup_key on every
        # occurrence, counts accumulated per (sketch, text).
        corpus = synth_corpus(300, seed=92) * 3 + [f.lower() for f in synth_corpus(60, seed=92)]
        random.Random(93).shuffle(corpus)
        counts = {}
        for f in corpus:
            bucket = counts.setdefault(dedup_key(f), {})
            bucket[f] = bucket.get(f, 0) + 1
        reference = SketchIndex(
            entries={s: sorted(b.items(), key=lambda item: (-item[1], item[0]))
                     for s, b in counts.items()},
            total_formulas=len(corpus))
        write_json_atomic(tmp_path / "reference.json", reference.to_json())

        keyed = []

        def counted(formula):
            keyed.append(formula)
            return dedup_key(formula)

        monkeypatch.setattr(baseline, "dedup_key", counted)
        index = build_index(iter(corpus))
        assert sorted(keyed) == sorted(set(corpus)) and len(keyed) < len(corpus)
        write_json_atomic(tmp_path / "index.json", index.to_json())
        assert (tmp_path / "index.json").read_bytes() == (tmp_path / "reference.json").read_bytes()

    def test_one_lex_gives_the_derived_views(self):
        corpus = synth_corpus(200, seed=91) + ["=SUM(A1", "=IF(A1,,)", "=  max( B2 )"]
        index = build_index(corpus)
        formulas, intern, packed = index._repair_view
        # In repair's tie-break order: by frequency, then text.
        frequency = Counter(corpus)
        assert max(frequency.values()) > 1
        assert formulas == [f for f in sorted(frequency, key=lambda f: (-frequency[f], f))
                            if not check(f)]
        assert len(formulas) == len(packed) < len(set(corpus))
        reference_intern = {}
        for f in formulas:
            formula_token_ids(f, reference_intern)
        assert intern == reference_intern
        query = "=SUM(A1:B2)+max(B2)"
        sims = similarities_to_many(formula_token_ids_frozen(query, intern), packed, len(packed))
        assert sims == {i: token_edit_similarity(query, f) for i, f in enumerate(formulas)}
        lowered, lowered_ranks, keys, key_starts, key_ranks, ranked = index._completion_view
        # Ranks are positions in (-frequency, text) order, the same as
        # repair's, and the lowered formulas sort with their ranks.
        assert ranked == sorted(frequency, key=lambda f: (-frequency[f], f))
        rank = {f: r for r, f in enumerate(ranked)}
        assert list(zip(lowered, lowered_ranks)) == sorted((f.lower(), rank[f]) for f in frequency)
        assert keys == sorted(index.entries)
        assert key_starts[-1] == len(key_ranks) == len(frequency)
        for i, key in enumerate(keys):
            assert key_ranks[key_starts[i]:key_starts[i + 1]] == \
                [rank[f] for f, _ in index.entries[key]]

    def test_query_views_derived_on_first_use(self, lex_calls):
        corpus = synth_corpus(50, seed=97)
        index = build_index(corpus)
        built = len(lex_calls)
        index.to_json()
        assert len(lex_calls) == built
        assert "_repair_view" not in vars(index) and "_completion_view" not in vars(index)
        # A completion query derives its own view only, and lexes no
        # indexed formula.
        assert completion_candidates(index, corpus[0][:4], 5)
        assert len(lex_calls) == built
        assert "_completion_view" in vars(index) and "_repair_view" not in vars(index)
        repair_candidates(index, corpus[0], 5)
        assert "_repair_view" in vars(index)
        assert len(lex_calls) == built + len(set(corpus)) + 1  # and the query


class TestEnvelopeScaling:
    """build_index on twice the envelope formulas makes under three times the
    `lex` calls, which return under three times the tokens: counted, not
    timed."""

    def test_twice_the_formulas_under_three_times_the_work(self, lex_calls):
        formulas = [r.formula for r in envelope_records(24)]
        (index_n, n), (index_2n, twice) = (lex_work(lex_calls, lambda: build_index(some))
                                           for some in (formulas[:12], formulas))
        assert (index_n.total_formulas, index_2n.total_formulas) == (12, 24)
        for key in ("calls", "tokens"):
            assert 0 < n[key] and twice[key] < 3 * n[key], (key, n, twice)


class TestRepairCandidates:
    def test_exact_formula_ranks_first(self):
        corpus = synth_corpus(60, seed=91)
        index = build_index(corpus)
        assert repair_candidates(index, corpus[7], 1) == [corpus[7]]

    def test_truncated_formula_recovers_original(self):
        corpus = synth_corpus(40, seed=92) + ["=SUM(A1:A10)"]
        index = build_index(corpus)
        assert "=SUM(A1:A10)" in repair_candidates(index, "=SUM(A1:A10", 5)

    def test_k_larger_than_corpus_returns_everything(self):
        corpus = ["=A1", "=B1", "=SUM(C1:C2)"]
        index = build_index(corpus)
        out = repair_candidates(index, "=A1", 50)
        assert sorted(out) == sorted(set(corpus))

    def test_never_emits_malformed_formula(self):
        corpus = synth_corpus(30, seed=93) + ["=SUM(A1", "=A1+)"]
        index = build_index(corpus)
        out = repair_candidates(index, "=SUM(A1", 100)
        assert "=SUM(A1" not in out
        assert all(check(f) == [] for f in out)

    def test_deterministic(self):
        corpus = synth_corpus(60, seed=94)
        index = build_index(corpus)
        assert repair_candidates(index, "=SUM(A1:A3", 10) == \
            repair_candidates(index, "=SUM(A1:A3", 10)

    def test_top_k_equals_full_sort(self):
        # Ill-formed entries, tied similarities (=A1 vs =B1/=C1/=D1) and tied
        # frequencies (=C1 and =D1 twice each) against a full sort; then an
        # index of ill-formed formulas only, which ranks nothing.
        mixed = (["=A1"] * 3 + ["=B1"] + ["=C1", "=D1"] * 2 + ["=SUM(A1", "=A1+"]
                 + ["=SUM(A1:A3)", "=SUM(A1:B3)"] * 2 + ["=MAX(A1,B1)", "=A1+B1"]
                 + synth_corpus(40, seed=91))
        straddled = 0
        for corpus in (mixed, ["=SUM(A1", "=A1+", "=)"] * 2):
            index = build_index(corpus)
            frequency = {f: corpus.count(f) for f in set(corpus)}
            well_formed = [f for f in frequency if not check(f)]
            assert len(well_formed) < len(frequency)
            intern = index._repair_view[1]
            unseen = "QQ9 ZZZ QQ9"  # no well-formed formula holds any of its tokens
            assert set(formula_token_ids_frozen(unseen, intern)) == {len(intern)}
            for buggy in ("=A1", "=E1", "=SUM(A1:A3", "=MAX(A1,,B1)", "", corpus[-1], unseen):
                sims = dict(zip(well_formed, (token_edit_similarity(buggy, f)
                                              for f in well_formed)))
                reference = sorted(well_formed, key=lambda f: (-sims[f], -frequency[f], f))
                for k in range(1, len(well_formed) + 2):
                    assert repair_candidates(index, buggy, k) == reference[:k], (buggy, k)
                    # A tie group of mixed frequencies that the k-th entry cuts.
                    if k < len(reference):
                        tied = {frequency[f] for f in reference
                                if sims[f] == sims[reference[k - 1]]}
                        straddled += (sims[reference[k]] == sims[reference[k - 1]]
                                      and len(tied) > 1)
        assert straddled > 0

    def test_k_validation(self):
        with pytest.raises(ValueError):
            repair_candidates(build_index(["=A1"]), "=A1", 0)


class TestCompletionCandidates:
    def test_edate_prefix_completion(self):
        corpus = ["=B2<=EDATE(TODAY(),-33)", "=A1", "=SUM(B1:B2)"]
        index = build_index(corpus)
        assert completion_candidates(index, "=B2<=EDATE(", 5) == \
            ["=B2<=EDATE(TODAY(),-33)"]

    def test_case_insensitive_prefix(self):
        index = build_index(["=SUM(A1:A10)"])
        assert completion_candidates(index, "=sum(a1", 5) == ["=SUM(A1:A10)"]

    def test_no_hits_anywhere_returns_empty(self):
        index = build_index(["=A1", "=B1"])
        assert completion_candidates(index, '=VLOOKUP("zz', 5) == []

    def test_frequency_ranking(self):
        corpus = ["=SUM(A1:A2)"] * 5 + ["=SUM(A9:B9)"] * 2
        index = build_index(corpus)
        out = completion_candidates(index, "=SUM(A", 5)
        assert out == ["=SUM(A1:A2)", "=SUM(A9:B9)"]

    def test_sketch_prefix_backoff(self):
        # no textual hit for `=SUM(Z9` but the sketch =SUM(cell matches
        index = build_index(["=SUM(A1:A10)"])
        assert completion_candidates(index, "=SUM(Z9", 5) == ["=SUM(A1:A10)"]
        # synth prefixes with no textual hit, against the back-off re-derived
        # from every indexed formula's sketch
        corpus = synth_corpus(400, seed=96)
        corpus += corpus[:100]  # repeats give frequencies above 1
        index = build_index(corpus)
        prefixes = ["= " + re.sub(r"\d", "7", f[1:len(f) * 2 // 3]) for f in corpus[:150]]
        hits = 0
        for prefix in prefixes:
            assert not any(f.lower().startswith(prefix.lower()) for f in index._frequency)
            needle = sketch(normalize(prefix))
            expected = sorted((f for f in index._frequency
                               if needle and sketch(normalize(f)).startswith(needle)),
                              key=lambda f: (-index._frequency[f], f))[:5]
            assert completion_candidates(index, prefix, 5) == expected
            hits += bool(expected)
        assert hits >= 100

    def test_k_cap(self):
        corpus = [f"=SUM(A{i}:B{i})" for i in range(1, 30)]
        index = build_index(corpus)
        assert len(completion_candidates(index, "=SUM(", 7)) == 7


def linear_completion(corpus, prefix, k):
    """Completion by a scan of every formula and then every dedup key, the
    reference for the range lookups."""
    frequency = Counter(corpus)
    matches = [f for f in frequency if f.lower().startswith(prefix.lower())]
    if not matches:
        needle = dedup_key(prefix)
        if needle:
            matches = [f for f in frequency if dedup_key(f).startswith(needle)]
    return sorted(matches, key=lambda f: (-frequency[f], f))[:k]


class TestRangeLookupCompletion:
    """completion_candidates against a linear scan of the same corpus."""

    def check(self, corpus, prefixes, ks=(1, 5)):
        index = build_index(corpus)
        for prefix in prefixes:
            for k in ks:
                assert completion_candidates(index, prefix, k) == \
                    linear_completion(corpus, prefix, k), (prefix, k)

    def test_synth_prefixes(self):
        rng = random.Random(40)
        for seed in (41, 42):
            corpus = synth_corpus(300, seed=seed)
            corpus += [rng.choice(corpus) for _ in range(200)]
            prefixes = []
            for f in rng.sample(corpus, 60):
                cut = f[:rng.randrange(len(f) + 1)]
                prefixes += [cut, cut.lower(), cut.upper(), cut.swapcase()]
            self.check(corpus, prefixes, ks=(1, 3, 5, 50))

    def test_empty_prefix_and_whole_formulas(self):
        corpus = synth_corpus(120, seed=43) + ["=A1", "=A1", "=A1+B1", "=a1"]
        self.check(corpus, [""], ks=(1, 5, 200))
        # A whole formula matches itself and whatever extends it.
        self.check(corpus, sorted(set(corpus)))
        index = build_index(["=A1", "=A1", "=A1+B1", "=a1"])
        assert completion_candidates(index, "=a1", 5) == ["=A1", "=A1+B1", "=a1"]

    def test_prefixes_at_and_past_the_ends_of_the_sorted_formulas(self):
        corpus = synth_corpus(150, seed=44) + ["=ZZ9", "=zz9+1"]
        index = build_index(corpus)
        lowered = index._completion_view[0]
        first, last = lowered[0], lowered[-1]
        prefixes = [first, last, last + "x", "~", "\U0010ffff", " ", "!", "=zz9+"]
        self.check(corpus, prefixes)
        assert completion_candidates(index, last + "x", 5) == \
            linear_completion(corpus, last + "x", 5)

    def test_formulas_differing_only_in_case(self):
        corpus = (["=SUM(A1:A2)"] * 2 + ["=sum(a1:a2)"] * 3 + ["=Sum(A1:A2)"]
                  + ["=SUM(A1:A2)+1", "=sum(A1:a2)*2", "=SUMIF(A1:A2,1)"])
        self.check(corpus, ["=sum(a1:a2)", "=SUM(", "=sum(a1:a2)+", "=sUm(A1", "=sumi"],
                   ks=(1, 2, 3, 10))
        index = build_index(corpus)
        assert completion_candidates(index, "=SUM(A1:A2)", 10) == \
            ["=sum(a1:a2)", "=SUM(A1:A2)", "=SUM(A1:A2)+1", "=Sum(A1:A2)", "=sum(A1:a2)*2"]

    def test_text_whose_lowering_changes_length(self):
        # "İ".lower() is "i" followed by a combining dot: two characters.
        assert len("İ".lower()) == 2
        corpus = ['="İstanbul"&A1', '="istanbul"&A1', '="İSTANBUL"', '="ıstanbul"',
                  '="İ"', '="i"', "=A1&\"İ\"", '="İİ"&B2'] * 2 + ['="İstanbul"&A1']
        prefixes = ['="i', '="İ', '="i\u0307', '="İs', '="i\u0307s', '="ı', '="İİ', '="İ"',
                    "=a1&\"i\u0307", '="I']
        self.check(corpus, prefixes, ks=(1, 2, 10))
        index = build_index(corpus)
        assert completion_candidates(index, '="i\u0307s', 10) == \
            ['="İstanbul"&A1', '="İSTANBUL"']

    def test_sketch_backoff_over_sorted_keys(self):
        corpus = synth_corpus(300, seed=45)
        corpus += corpus[:80]
        rng = random.Random(45)
        # Prefixes that match no formula's text but whose keys extend into
        # the sketch keys, plus keys past the last and before the first.
        prefixes = ["= " + re.sub(r"\d", "7", f[1:rng.randrange(2, len(f) + 1)])
                    for f in corpus[:120]]
        prefixes += ["=SUM(Z9", "=ZZZZ(", "=  IF(Q7", "=\"zzz", "=A7+Q7*"]
        index = build_index(corpus)
        assert sum(not any(f.lower().startswith(p.lower()) for f in corpus)
                   for p in prefixes) >= 100
        assert index._completion_view[2] == sorted(index.entries)
        self.check(corpus, prefixes, ks=(1, 5, 40))

    def test_first_k_equal_the_full_sorts_first_k(self):
        # Prefixes matching no formula, one, many and all of them, and ones
        # that only the sketch back-off matches: the ranks' k smallest give
        # the full (-frequency, text) sort's first k.
        corpus = synth_corpus(300, seed=46)
        corpus += corpus[:90] + corpus[:30]
        index = build_index(corpus)
        distinct = set(corpus)
        unique = next(f for f in sorted(distinct)
                      if sum(g.lower().startswith(f.lower()) for g in distinct) == 1)
        cases = {"none": ["~", "=ZZZZ("], "one": [unique], "many": ["=s", "=a", "=I"],
                 "all": ["", "="], "back-off": ["=SUM(Z9", "=  IF(Q7", '=VLOOKUP("zzz']}
        for case, prefixes in cases.items():
            for prefix in prefixes:
                textual = sum(f.lower().startswith(prefix.lower()) for f in distinct)
                assert {"none": textual == 0 and not linear_completion(corpus, prefix, 1),
                        "one": textual == 1, "many": 1 < textual < len(distinct),
                        "all": textual == len(distinct),
                        "back-off": textual == 0 and linear_completion(corpus, prefix, 1),
                        }[case], (case, prefix)
                for k in (1, 2, 5, 40, len(distinct), len(distinct) + 1):
                    assert completion_candidates(index, prefix, k) == \
                        linear_completion(corpus, prefix, k), (case, prefix, k)

    def test_k_cap(self):
        corpus = [f"=SUM(A{i}:B{i})" for i in range(1, 30)] + ["=SUM(A3:B3)"] * 4
        index = build_index(corpus)
        for k in range(1, 32):
            out = completion_candidates(index, "=sum(", k)
            assert out == linear_completion(corpus, "=sum(", k)
            assert len(out) == min(k, 29)
            backed_off = completion_candidates(index, "=SUM(Q9", k)
            assert backed_off == linear_completion(corpus, "=SUM(Q9", k)
            assert len(backed_off) == min(k, 29)
        assert completion_candidates(index, "=sum(", 3)[0] == "=SUM(A3:B3)"


class TestPersistence:
    def test_cli_build_writes_a_fresh_to_json(self, tmp_path):
        corpus = synth_corpus(120, seed=98) + ["=SUM(A1", "=A1"] * 3
        source = tmp_path / "formulas.txt"
        source.write_text("\n".join(corpus) + "\n", encoding="utf-8")
        built = tmp_path / "index.json"
        assert main(["baseline", "build", "--input", str(source), "-o", str(built)]) == 0
        fresh = build_index(corpus)
        assert json.loads(built.read_text(encoding="utf-8")) == fresh.to_json()
        write_json_atomic(tmp_path / "fresh.json", fresh.to_json())
        assert built.read_bytes() == (tmp_path / "fresh.json").read_bytes()

    def test_load_derives_the_query_views(self, tmp_path, lex_calls):
        corpus = synth_corpus(60, seed=99) + ["=SUM(A1"]
        write_json_atomic(tmp_path / "index.json", build_index(corpus).to_json())
        del lex_calls[:]
        loaded = SketchIndex.load(tmp_path / "index.json")
        assert "_repair_view" in vars(loaded) and "_completion_view" in vars(loaded)
        assert len(lex_calls) == len(set(corpus))
        fresh = build_index(corpus)
        formulas, intern, packed = loaded._repair_view
        fresh_formulas, fresh_intern, fresh_packed = fresh._repair_view
        assert (formulas, intern) == (fresh_formulas, fresh_intern)
        query = formula_token_ids_frozen("=SUM(A1:A9)", intern)
        assert similarities_to_many(query, packed, len(packed)) == \
            similarities_to_many(query, fresh_packed, len(fresh_packed))
        assert loaded._completion_view == fresh._completion_view

    def test_save_load_round_trip(self, tmp_path):
        corpus = synth_corpus(80, seed=95)
        index = build_index(corpus)
        path = tmp_path / "index.json"
        write_json_atomic(path, index.to_json())
        loaded = SketchIndex.load(path)
        assert loaded.entries == index.entries
        assert loaded.total_formulas == index.total_formulas
        buggy = corpus[3][:-1]
        assert repair_candidates(loaded, buggy, 5) == repair_candidates(index, buggy, 5)
        assert completion_candidates(loaded, "=SUM(", 5) == \
            completion_candidates(index, "=SUM(", 5)
