import json
import random
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_lexer import _corruptions, _envelope_formulas

from formulakit import curation
from formulakit.curation import (CorpusStats, FormulaRecord, dedup, dedup_key,
                                 ingest, stats)
from formulakit.lexer import TokenKind, lex, normalize, sketch
from formulakit.synth import synth_corpus, synth_records


def rec(wb, formula, sheet="s1"):
    return FormulaRecord(workbook_id=wb, sheet_id=sheet, formula=formula)


def oracle_stats(records):
    """Brute-force sketch-set counting, independent of the streaming code."""
    global_keys = set()
    per_wb = {}
    for r in records:
        key = dedup_key(r.formula)
        global_keys.add(key)
        per_wb.setdefault(r.workbook_id, set()).add(key)
    return len(global_keys), sum(len(v) for v in per_wb.values())


class TestIngest:
    def test_single_record(self):
        line = '{"workbook_id":"wb1","sheet_id":"s1","formula":"=SUM(A1:A10)"}'
        records = list(ingest([line]))
        assert records == [rec("wb1", "=SUM(A1:A10)")]

    def test_not_json_skipped(self):
        skips = Counter()
        assert list(ingest(["not json"], skips)) == []
        assert skips == {"malformed": 1}

    def test_three_valid_one_invalid(self):
        lines = [
            '{"workbook_id":"wb1","sheet_id":"s1","formula":"=A1"}',
            '{"workbook_id":"wb1","sheet_id":"s1","formula":"=A2"}',
            "not json",
            '{"workbook_id":"wb2","sheet_id":"s1","formula":"=A3"}',
        ]
        skips = Counter()
        records = list(ingest(lines, skips))
        assert len(records) == 3
        assert skips == {"malformed": 1}

    def test_missing_or_empty_fields_skipped(self):
        lines = [
            '{"workbook_id":"","sheet_id":"s1","formula":"=A1"}',
            '{"workbook_id":"wb1","formula":"=A1"}',
            '{"workbook_id":"wb1","sheet_id":"s1","formula":""}',
            '["not","an","object"]',
        ]
        skips = Counter()
        assert list(ingest(lines, skips)) == []
        assert skips == {"malformed": 4}

    def test_cell_field_optional(self):
        line = '{"workbook_id":"w","sheet_id":"s","cell":"B2","formula":"=A1"}'
        (record,) = ingest([line])
        assert record.cell == "B2"
        assert record.to_json()["cell"] == "B2"

    def test_order_preserved(self):
        lines = [json.dumps({"workbook_id": "w", "sheet_id": "s", "formula": f"=A{i}"})
                 for i in range(20)]
        records = list(ingest(lines))
        assert [r.formula for r in records] == [f"=A{i}" for i in range(20)]


class TestDedupPerWorkbook:
    def test_spec_example_first_wins_within_workbook(self):
        records = [
            rec("wb1", "=SUM(A1:A10)"),
            rec("wb1", "=SUM(B2:B20)"),  # same sketch as above
            rec("wb2", "=SUM(C1:C9)"),
        ]
        kept = list(dedup(iter(records), "per-workbook"))
        assert kept == [records[0], records[2]]

    def test_single_record(self):
        records = [rec("wb1", "=A1")]
        assert list(dedup(iter(records), "per-workbook")) == records

    def test_cross_workbook_repetition_survives(self):
        records = [rec("wb1", "=TODAY()"), rec("wb2", "=TODAY()")]
        assert list(dedup(iter(records), "per-workbook")) == records

    def test_case_insensitive_key(self):
        records = [rec("wb1", "=SUM(A1)"), rec("wb1", "=sum(a1)")]
        assert list(dedup(iter(records), "per-workbook")) == [records[0]]


class TestDedupGlobal:
    def test_cross_workbook_collapse(self):
        records = [rec("wb1", "=TODAY()"), rec("wb2", "=TODAY()")]
        assert list(dedup(iter(records), "global")) == [records[0]]

    def test_all_unique_passthrough(self):
        records = [rec("wb1", "=A1"), rec("wb1", '=IF(A1,"x",2)'), rec("wb2", "=TODAY()")]
        assert list(dedup(iter(records), "global")) == records

    def test_seven_sketches_in_hundred_records(self):
        templates = [
            "=SUM({r})", "=SUM({r}:{r2})", "=IF({r}>1,2,3)", "=TODAY()",
            '=IF({r},"x",1)', "=MAX({r}:{r2})+1", "='My Sheet'!{r}",
        ]
        rng = random.Random(5)
        records = []
        for i in range(100):
            t = templates[i % 7]
            f = t.format(r=f"A{rng.randrange(1, 99)}", r2=f"B{rng.randrange(1, 99)}")
            records.append(rec(f"wb{i % 10}", f))
        distinct = {dedup_key(r.formula) for r in records}
        assert len(distinct) == 7  # template set is the oracle
        assert len(list(dedup(iter(records), "global"))) == 7


class TestStats:
    def test_empty(self):
        s = stats(iter([]))
        assert s == CorpusStats()
        assert s.to_json() == {"total_formulas": 0, "unique_sketches_global": 0,
                               "retained_per_workbook": 0, "retained_global": 0,
                               "per_workbook_counts": {}}

    def test_matches_brute_force_oracle(self):
        records = synth_records(400, seed=3, workbooks=12)
        s = stats(iter(records))
        glob, per_wb = oracle_stats(records)
        assert s.total_formulas == 400
        assert s.retained_global == glob == s.to_json()["unique_sketches_global"]
        assert s.retained_per_workbook == per_wb
        assert sum(s.per_workbook_counts.values()) == 400

    def test_single_workbook_scopes_agree(self):
        records = [rec("wb1", f) for f in ("=A1", "=B2", "=A1+1", "=B9")]
        s = stats(iter(records))
        assert s.retained_global == s.retained_per_workbook


class TestProperties:
    def corpora(self):
        for seed in range(8):
            yield synth_records(150, seed=seed, workbooks=seed + 2)

    def test_ordering_global_le_per_workbook_le_total(self):
        for records in self.corpora():
            per_wb = list(dedup(iter(records), "per-workbook"))
            glob = list(dedup(iter(records), "global"))
            assert len(glob) <= len(per_wb) <= len(records)

    def test_idempotent(self):
        for records in self.corpora():
            per_wb = list(dedup(iter(records), "per-workbook"))
            assert list(dedup(iter(per_wb), "per-workbook")) == per_wb
            glob = list(dedup(iter(records), "global"))
            assert list(dedup(iter(glob), "global")) == glob

    def test_stable_subsequence(self):
        for records in self.corpora():
            kept = list(dedup(iter(records), "per-workbook"))
            it = iter(records)
            assert all(any(r is k for r in it) for k in kept)  # order-preserving

    def test_single_workbook_equals_global(self):
        records = [rec("only", f"=SUM(A{i}:B{i})" if i % 3 else "=TODAY()")
                   for i in range(1, 60)]
        assert list(dedup(iter(records), "per-workbook")) == list(dedup(iter(records), "global"))

    def test_streaming_batches_equivalent(self):
        records = synth_records(200, seed=9, workbooks=6)
        whole = list(dedup(iter(records), "global"))
        # identical results when fed through one generator in chunks
        gen = dedup(iter(records), "global")
        chunked = []
        while True:
            batch = [x for _, x in zip(range(17), gen)]
            if not batch:
                break
            chunked.extend(batch)
        assert chunked == whole


class TestOnePass:
    def test_filled_stats_match_oracle_in_both_modes(self):
        for seed in range(20):
            records = synth_records(200, seed=seed, workbooks=1 + seed % 10)
            glob, per_wb = oracle_stats(records)
            counts = {}
            for r in records:
                counts[r.workbook_id] = counts.get(r.workbook_id, 0) + 1
            for mode, expected_kept in (("per-workbook", per_wb), ("global", glob)):
                s = CorpusStats()
                kept = list(dedup(iter(records), mode, s))
                assert len(kept) == expected_kept, (seed, mode)
                assert s == CorpusStats(total_formulas=len(records),
                                        retained_per_workbook=per_wb,
                                        retained_global=glob,
                                        per_workbook_counts=counts), (seed, mode)
                assert s == stats(iter(records))

    def test_yields_first_record_before_pulling_the_second(self):
        records = [rec("wb1", "=A1"), rec("wb1", "=TODAY()")]

        def one_then_fail():
            yield records[0]
            raise AssertionError("dedup pulled a second record before yielding the first")

        for mode in ("per-workbook", "global"):
            assert next(dedup(one_then_fail(), mode)) is records[0]

    def test_default_mode_is_per_workbook(self):
        records = [rec("wb1", "=TODAY()"), rec("wb2", "=TODAY()"), rec("wb2", "=NOW()")]
        assert list(dedup(iter(records))) == list(dedup(iter(records), "per-workbook"))

    def test_unknown_mode_raises(self):
        with pytest.raises(ValueError, match="sometimes"):
            list(dedup(iter([rec("wb1", "=A1")]), "sometimes"))


# Formulas where dropping whitespace joins tokens or changes a kind: two
# strings into one, a name into a sheet name, a name and a number into a
# cell reference or a longer name, a number and a name into a number.
WHITESPACE_MERGES = ['="a" "b"', "=Sheet1 !A1", "=A 1", "=SUM (A1)", "=1 E5", "='x' !A1",
                     "=a 1e5", "=sum (a1) + data !b2", "=A1 :B2", "=1 .5", '=\'s\'\t"t"',
                     "=IF(a1 <> 2, \"x y\", 'Q r'!c3)", "= A\n1", " ", "=x 'y'!A1"]


class TestDedupKey:
    """dedup_key against its definition, sketch(normalize(f))."""

    def test_equals_sketch_of_normalized_on_synth(self):
        rng = random.Random(91)
        formulas = synth_corpus(1500, seed=92) + _envelope_formulas(rng)
        formulas += [c for f in synth_corpus(300, seed=93)
                     for c in _corruptions(f, rng, 3, "() ,'\"!:")]
        for formula in formulas:
            assert dedup_key(formula) == sketch(normalize(formula)), formula

    @pytest.mark.parametrize("formula", WHITESPACE_MERGES)
    def test_equals_sketch_of_normalized_across_whitespace(self, formula):
        assert dedup_key(formula) == sketch(normalize(formula))

    @given(st.text(alphabet=st.sampled_from(list('AZaz019eE$:!,()"\' \t\n=<>+-*/^&%._#;@Äéß€'))
                   | st.characters(), max_size=40))
    @settings(max_examples=500, deadline=None)
    @example("\ud800 x")
    @example("'ß'!a1")
    def test_equals_sketch_of_normalized_on_any_text(self, formula):
        assert dedup_key(formula) == sketch(normalize(formula))

    def test_lexes_a_whitespace_free_formula_once(self, lex_calls):
        for formula in synth_corpus(200, seed=94) + ["=SUM(A1:A10)", "'Q r'!a1", '="a b"']:
            if any(t.kind is TokenKind.WHITESPACE for t in lex(formula)):
                continue
            lex_calls.clear()
            dedup_key(formula)
            assert lex_calls == [formula]

    def test_lexes_a_formula_with_whitespace_twice(self, lex_calls):
        for formula in WHITESPACE_MERGES:
            expected = [formula, normalize(formula)]
            lex_calls.clear()
            dedup_key(formula)
            assert lex_calls == expected


def _dedup_keying_every_record(records, mode):
    """dedup's records and stats with `dedup_key` run on every record, as a
    set-based reference: a record is kept when its key is new in its
    workbook and, for the global scope, new in the corpus."""
    kept, stats_ = [], CorpusStats()
    seen, seen_in_workbook = set(), {}
    for r in records:
        key = dedup_key(r.formula)
        stats_.total_formulas += 1
        stats_.per_workbook_counts[r.workbook_id] = \
            stats_.per_workbook_counts.get(r.workbook_id, 0) + 1
        in_workbook = seen_in_workbook.setdefault(r.workbook_id, set())
        new_in_workbook, new_globally = key not in in_workbook, key not in seen
        in_workbook.add(key)
        seen.add(key)
        stats_.retained_per_workbook += new_in_workbook
        stats_.retained_global += new_globally
        if new_globally or (mode == "per-workbook" and new_in_workbook):
            kept.append(r)
    return kept, stats_


class TestKeysEachTextOnce:
    @staticmethod
    def repeating_records(seed):
        """Synth records, then the same texts again in shuffled workbooks,
        and texts that differ but share a key (case and spacing)."""
        rng = random.Random(seed)
        records = synth_records(300, seed=seed, workbooks=6)
        again = [rec(rng.choice(["wb0", "wb1", "wb-new"]), r.formula) for r in records]
        rng.shuffle(again)
        variants = [rec("wb1", r.formula.lower()) for r in records[:40]]
        variants += [rec("wb2", r.formula.replace(",", ", ")) for r in records[:40]]
        variants += [rec("wb2", f) for f in WHITESPACE_MERGES]
        return records + again + variants

    @pytest.mark.parametrize("mode", ["per-workbook", "global"])
    def test_one_key_per_distinct_text_per_call(self, monkeypatch, mode):
        keyed = []

        def counted(formula):
            keyed.append(formula)
            return dedup_key(formula)

        monkeypatch.setattr(curation, "dedup_key", counted)
        for seed in range(4):
            records = self.repeating_records(seed)
            keyed.clear()
            want_kept, want_stats = _dedup_keying_every_record(records, mode)
            assert keyed == []  # the reference keys through the unpatched name
            for _ in range(2):  # the memo lives in one call: each call keys again
                keyed.clear()
                got_stats = CorpusStats()
                got_kept = list(dedup(iter(records), mode, got_stats))
                assert sorted(keyed) == sorted({r.formula for r in records}), (seed, mode)
                assert len(keyed) < len(records)
                assert got_kept == want_kept, (seed, mode)
                assert got_stats == want_stats, (seed, mode)

    @pytest.mark.parametrize("mode", ["per-workbook", "global"])
    def test_bounded_memo_keys_again_and_matches(self, monkeypatch, mode):
        """Past `_KEYED_TEXTS` texts the least recently keyed are keyed
        again, so memory stays bounded and the output does not change."""
        keyed = []

        def counted(formula):
            keyed.append(formula)
            return dedup_key(formula)

        monkeypatch.setattr(curation, "_KEYED_TEXTS", 8)
        monkeypatch.setattr(curation, "dedup_key", counted)
        for seed in range(4):
            records = self.repeating_records(seed)
            want_kept, want_stats = _dedup_keying_every_record(records, mode)
            keyed.clear()
            got_stats = CorpusStats()
            got_kept = list(dedup(iter(records), mode, got_stats))
            assert len(keyed) > len({r.formula for r in records}), (seed, mode)
            assert got_kept == want_kept, (seed, mode)
            assert got_stats == want_stats, (seed, mode)
