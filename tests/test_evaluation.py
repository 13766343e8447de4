import math
import random
import statistics
import tracemalloc
from collections import Counter
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from formulakit import evaluation, lexer, noise
from formulakit.cli import main
from formulakit.curation import dedup_key
from formulakit.jsonl import dumps, write_json_atomic
from formulakit.evaluation import (COMPLETION_FRACTIONS, CompletionTask, RepairTask,
                                   RetrievalPair, build_retrieval_pairs, cosine_similarity,
                                   evaluate, gen_completion_finetune, gen_repair_finetune,
                                   make_completion_prefix, mask_constants, reserve_split,
                                   retrieval_eval)
from formulakit.lexer import check, fold, normalize
from formulakit.noise import apply_noise_operator
from formulakit.objectives import PretrainExample, user_noise
from formulakit.seeds import derive_rng, map_records
from formulakit.similarity import (PackedCorpus, formula_token_ids, similarities_to_many,
                                   token_edit_similarity)
from formulakit.synth import synth_corpus
from formulakit.tokenizer import encode, train_bpe


def hit(metric, candidates, truth, k):
    """Whether `evaluate` scores the ranked candidates a hit at k under the
    metric, for one repair task whose ground truth is `truth`."""
    report = evaluate([RepairTask("", truth, "task-0")], lambda task: candidates,
                      metrics=[metric], ks=[k])
    return report.value(metric, k) == 1.0


class TestExactMatch:
    def test_repair_match_ignores_whitespace(self):
        candidates = ['=IF(ISERROR(G6*1.2),"")']
        truth = '=IF(ISERROR(G6 *1.2), "")'
        assert hit("exact_match", candidates, truth, 1)

    def test_empty_candidates(self):
        assert not hit("exact_match", [], "=A1", 1)

    def test_rank_cutoff(self):
        candidates = ["=B1", "=B2", "=B3", "=B4", "=A1"]
        assert not hit("exact_match", candidates, "=A1", 1)
        assert hit("exact_match", candidates, "=A1", 5)

    def test_case_insensitive_refs(self):
        assert hit("exact_match", ["=sum(a1)"], "=SUM(A1)", 1)

    def test_string_case_sensitive(self):
        assert not hit("exact_match", ['=IF(A1,"X",1)'], '=IF(A1,"x",1)', 1)

    def test_k_validation(self):
        with pytest.raises(ValueError):
            hit("exact_match", ["=A1"], "=A1", 0)


class TestSketchMatch:
    def test_contextual_number_matches_by_type(self):
        candidate = "=B2<=EDATE(TODAY(),-5)"
        truth = "=B2<=EDATE(TODAY(),-33)"
        assert hit("sketch_match", [candidate], truth, 1)
        assert not hit("exact_match", [candidate], truth, 1)

    def test_exact_implies_sketch(self):
        corpus = synth_corpus(100, seed=80)
        for truth in corpus:
            candidates = [truth]
            if hit("exact_match", candidates, truth, 1):
                assert hit("sketch_match", candidates, truth, 1)

    def test_arity_difference_breaks_sketch(self):
        candidate = "=B2<=EDATE(TODAY())"
        truth = "=B2<=EDATE(TODAY(),-33)"
        assert not hit("sketch_match", [candidate], truth, 1)


@pytest.fixture(scope="module")
def model():
    return train_bpe(synth_corpus(200, seed=81), budget=512)


class TestCompletionPrefix:
    def test_half_of_ten_tokens(self, model):
        formula = "=A1+B2*C3-D4"  # digits/letters explode into single pieces
        n = len(encode(model, formula))
        task = make_completion_prefix(formula, 0.5, model)
        assert len(encode(model, task.prefix)) == round(0.5 * n)

    def test_099_clamps_below_n(self, model):
        formula = "=A1+B2"
        n = len(encode(model, formula))
        task = make_completion_prefix(formula, 0.99, model)
        assert len(encode(model, task.prefix)) == n - 1

    def test_prefix_is_proper_lowercased_prefix(self, model):
        formula = "=B2<=EDATE(TODAY(),-33)"
        task = make_completion_prefix(formula, 0.9, model)
        assert formula.lower().startswith(task.prefix)
        assert 0 < len(task.prefix) < len(formula)

    def test_fraction_validation(self, model):
        with pytest.raises(ValueError):
            make_completion_prefix("=A1+B1", 1.0, model)

    def test_short_formula_rejected(self, model):
        with pytest.raises(ValueError, match="at least 2"):
            make_completion_prefix("a", 0.5, model)


class TestCompletionSynthesis:
    def test_rows_equal_the_cli_output(self, model, tmp_path):
        formulas = synth_corpus(150, seed=82)
        model_path, corpus, out = (tmp_path / "model.json", tmp_path / "corpus.txt",
                                   tmp_path / "complete.jsonl")
        write_json_atomic(model_path, model.to_json())
        corpus.write_text("\n".join(formulas) + "\n", encoding="utf-8")
        assert main(["gen-finetune-complete", "--input", str(corpus), "--model",
                     str(model_path), "--seed", "9", "-o", str(out)]) == 0
        rows = [t.to_json() for t in gen_completion_finetune(formulas, model, 9)]
        assert rows and out.read_text("utf-8") == "".join(dumps(r) + "\n" for r in rows)

    def test_formula_under_two_tokens_counts_one_skip(self, model):
        skips = Counter()
        tasks = list(gen_completion_finetune(["=SUM(A1:A2)", "="], model, 0, skips=skips))
        assert [t.source_id for t in tasks] == ["complete-0"]
        assert skips == {"under 2 tokens": 1}

    def test_no_fraction_or_one_outside_the_unit_interval_raises_and_counts_no_skip(self, model):
        skips = Counter()
        for fractions in ((0.5, 1.5), ()):
            with pytest.raises(ValueError, match="fractions must be in"):
                list(gen_completion_finetune(["=SUM(A1:A2)", "="], model, 0, fractions, skips))
        assert skips == Counter()


class TestOneMap:
    """The fine-tune generators' per-formula functions run through
    `seeds.map_records` give the same rows and skips at two workers as at
    one, which also shows that they pickle for the pool."""

    CORPUS = synth_corpus(400, seed=86) + ["=SUM (A1:A3)", "=SUM(A1", "=A1+", "=", "a"]

    @pytest.mark.parametrize("kind", ["repair", "complete"])
    def test_two_workers_give_the_rows_and_skips_of_one(self, model, kind):
        if kind == "repair":
            task = partial(evaluation._repair_for, 6)
            generated = gen_repair_finetune(self.CORPUS, 6)
            reasons = {"malformed", "unchanged"}
        else:
            task = partial(evaluation._completion_for, model, 6, COMPLETION_FRACTIONS)
            generated = gen_completion_finetune(self.CORPUS, model, 6)
            reasons = {"under 2 tokens"}
        runs = []
        for workers in (1, 2):
            skips = Counter()
            runs.append((list(map_records(task, self.CORPUS, skips, workers)), skips))
        (rows, skips), (pooled_rows, pooled_skips) = runs
        assert rows == list(generated) and pooled_rows == rows
        assert set(skips) == reasons and all(skips.values())
        assert pooled_skips == skips
        assert len(rows) + skips.total() == len(self.CORPUS)


class TestMaskConstants:
    def test_number_masked_refs_kept(self):
        assert mask_constants("=SUM(A1:A10)*2") == "=SUM(A1:A10)*number"

    def test_no_constants_unchanged(self):
        assert mask_constants("=SUM(A1:A10)") == "=SUM(A1:A10)"

    def test_string_and_number(self):
        assert mask_constants('=IF(A1,"x",1)') == "=IF(A1,string,number)"

    def test_whitespace_kept(self):
        assert mask_constants("=A1 + 2") == "=A1 + number"


class TestRepairSynthesis:
    def test_buggy_differs_after_normalization(self):
        corpus = synth_corpus(150, seed=82)
        for task in gen_repair_finetune(corpus, seed=1):
            assert normalize(task.buggy) != normalize(task.ground_truth)
            assert task.ground_truth in corpus

    def test_malformed_inputs_skipped(self):
        skips = Counter()
        tasks = list(gen_repair_finetune(["=SUM(A1", "=A1+B1"], seed=2, skips=skips))
        assert skips["malformed"] == 1
        assert len(tasks) + skips.total() == 2
        assert all(t.ground_truth == "=A1+B1" for t in tasks)

    def test_deterministic(self):
        corpus = synth_corpus(60, seed=83)
        a = [t.buggy for t in gen_repair_finetune(corpus, seed=3)]
        b = [t.buggy for t in gen_repair_finetune(corpus, seed=3)]
        assert a == b

    def test_ground_truth_passes_check(self):
        for task in gen_repair_finetune(synth_corpus(60, seed=84), seed=4):
            assert check(task.ground_truth) == []

    def test_arity_corruption_produces_repairable_pair(self):
        # corrupting a good formula's ISERROR arity yields a buggy/repaired
        # pair the checker can tell apart
        truth = '=IF(ISERROR(G6*1.2),"")'
        buggy = apply_noise_operator(truth, 4, random.Random(0))
        task = RepairTask(buggy=buggy, ground_truth=truth, source_id="ex1")
        assert normalize(task.buggy) != normalize(task.ground_truth)
        diags = check(task.buggy)
        assert any(d.code.value == "BadArity" for d in diags)
        assert check(task.ground_truth) == []

    def test_reserved_split_disjoint(self):
        corpus = synth_corpus(600, seed=85)
        tasks = list(gen_repair_finetune(corpus, seed=5))
        rest, reserved = reserve_split(tasks, 100, seed=5)
        assert len(reserved) == 100
        assert len(rest) + len(reserved) == len(tasks)
        reserved_ids = {t.source_id for t in reserved}
        assert reserved_ids.isdisjoint({t.source_id for t in rest})
        # same seed -> same split
        rest2, reserved2 = reserve_split(tasks, 100, seed=5)
        assert reserved2 == reserved


def _ref_gen_repair_finetune(formulas, seed):
    """Repair synthesis as it was before the fold test: every corruption is
    normalized and compared in full."""
    tasks, skips = [], Counter()
    for ordinal, formula in enumerate(formulas):
        if check(formula):
            skips["malformed"] += 1
            continue
        example = user_noise(formula, derive_rng(seed, "repair", ordinal))
        if normalize(example.input) == normalize(formula):
            skips["unchanged"] += 1
            continue
        tasks.append(RepairTask(example.input, formula, f"repair-{ordinal}"))
    return tasks, skips


# Spaces, tabs, newlines and case flips: enough that normalize often maps
# the pair to one form, as a space-only corruption does.
_PAIR_TEXT = st.text(alphabet=st.sampled_from(list('Aa1:!,()"\' \t\r\n=<>._ßé')), max_size=16)


class TestUnchangedDecision:
    """gen_repair_finetune calls a corruption unchanged only when its fold
    equals the source's and then the normalized forms compare equal; that
    must be the full normalize comparison's answer."""

    def test_matches_full_comparison_on_synthesis(self):
        corpus = synth_corpus(400, seed=86) + ["=SUM (A1:A3)", "=IF(A1 <= 2,1,0)",
                                                "=A1<>B1", "=MAX( B1 , B2 )", "=SUM(A1"]
        for seed in (6, 7):
            skips = Counter()
            tasks = list(gen_repair_finetune(corpus, seed=seed, skips=skips))
            ref_tasks, ref_skips = _ref_gen_repair_finetune(corpus, seed)
            assert tasks == ref_tasks
            assert skips == ref_skips
            assert skips["unchanged"] > 0  # the fold-equal branch is exercised

    def test_matches_brackets_once_per_source_formula(self, monkeypatch):
        # One SiteIndex serves check and user_noise: its bracket match is
        # the only one, for a malformed source, a source with no call and a
        # corrupted one alike.
        runs = []
        real = lexer.match_brackets

        def counted(tokens):
            runs.append(1)
            return real(tokens)

        monkeypatch.setattr(lexer, "match_brackets", counted)
        monkeypatch.setattr(noise, "match_brackets", counted)
        corpus = synth_corpus(300, seed=89) + ["=SUM(A1", "=A1+B1", "=SUM (A1:A3)", "=A1<>B1"]
        skips = Counter()
        tasks = list(gen_repair_finetune(corpus, seed=3, skips=skips))
        assert len(runs) == len(corpus)
        assert skips["malformed"] > 0 and tasks
        monkeypatch.undo()
        assert (tasks, skips) == _ref_gen_repair_finetune(corpus, 3)

    def test_matches_full_comparison_on_seeded_corruptions(self):
        for ordinal, formula in enumerate(synth_corpus(300, seed=87)):
            for seed in range(4):
                corrupted = user_noise(formula, derive_rng(seed, "repair", ordinal)).input
                full = normalize(corrupted) == normalize(formula)
                assert (fold(corrupted) == fold(formula) and full) == full, (formula, corrupted)

    @given(_PAIR_TEXT, st.data())
    @settings(max_examples=400, deadline=None)
    def test_matches_full_comparison_on_text_pairs(self, a, data):
        # b is a respaced, case-flipped copy of a, or independent text.
        edits = data.draw(st.lists(st.sampled_from(["keep", "flip", "space", "drop"]),
                                   min_size=len(a), max_size=len(a)))
        respaced = "".join({"keep": ch, "flip": ch.swapcase(), "space": ch + " ",
                            "drop": "" if ch in " \t\r\n" else ch}[e]
                           for ch, e in zip(a, edits))
        for b in (respaced, data.draw(_PAIR_TEXT)):
            full = normalize(a) == normalize(b)
            assert (fold(a) == fold(b) and full) == full, (a, b)

    def test_folds_match_but_normal_forms_differ(self, monkeypatch):
        # The noise operators never make such a corruption, so one is put in
        # user_noise's place: a space dropped inside a string, a string's
        # case changed, and (unchanged) a re-spaced, lower-cased call.
        corruptions = {'="a b"&A1': '="ab"&A1', '=A1&"x"': '=a1&"X"', "=SUM(A1)": "=sum( a1 )"}
        monkeypatch.setattr(evaluation, "user_noise", lambda formula, rng, index: (
            PretrainExample(corruptions[formula], formula, "UN", "", 0)))
        skips = Counter()
        tasks = list(gen_repair_finetune(list(corruptions), seed=0, skips=skips))
        assert [t.buggy for t in tasks] == ['="ab"&A1', '=a1&"X"']
        assert skips == Counter(unchanged=1)

    def test_lexes_a_corruption_only_when_the_folds_match(self, lex_calls):
        corpus = [f for f in synth_corpus(300, seed=88) if not check(f)]
        fold_matches = sum(
            fold(user_noise(f, derive_rng(9, "repair", i)).input) == fold(f)
            for i, f in enumerate(corpus))
        lex_calls.clear()
        tasks = list(gen_repair_finetune(corpus, seed=9))
        assert tasks
        assert len(lex_calls) <= len(corpus) + fold_matches


class TestRetrievalEval:
    def _pairs(self):
        sims = [0.1, 0.35, 0.5, 0.75, 0.9]
        return [RetrievalPair(f"=A{i}", f"=B{i}", s) for i, s in enumerate(sims)]

    def test_perfect_correlation(self):
        pairs = self._pairs()
        # one-dimensional positive embeddings make cosine constant, so build
        # 2-d vectors whose cosine equals the target exactly
        embeddings = {}
        for pair in pairs:
            angle = math.acos(pair.target_similarity)
            embeddings[pair.formula_a] = [1.0, 0.0]
            embeddings[pair.formula_b] = [math.cos(angle), math.sin(angle)]
        assert retrieval_eval(pairs, embeddings) == pytest.approx(1.0)

    def test_anti_correlation(self):
        pairs = self._pairs()
        embeddings = {}
        for pair in pairs:
            angle = math.acos(1.0 - pair.target_similarity)
            embeddings[pair.formula_a] = [1.0, 0.0]
            embeddings[pair.formula_b] = [math.cos(angle), math.sin(angle)]
        assert retrieval_eval(pairs, embeddings) == pytest.approx(-1.0)

    def test_five_pair_closed_form(self):
        pairs = self._pairs()
        rng = random.Random(6)
        embeddings = {}
        for pair in pairs:
            embeddings.setdefault(pair.formula_a, [rng.uniform(-1, 1) for _ in range(4)])
            embeddings.setdefault(pair.formula_b, [rng.uniform(-1, 1) for _ in range(4)])
        cosines = [cosine_similarity(embeddings[p.formula_a], embeddings[p.formula_b])
                   for p in pairs]
        targets = [p.target_similarity for p in pairs]
        expected = statistics.correlation(cosines, targets)  # stdlib oracle
        assert retrieval_eval(pairs, embeddings) == pytest.approx(expected, abs=1e-12)

    def test_missing_embedding_names_formula(self):
        pairs = self._pairs()
        with pytest.raises(ValueError, match="=A0"):
            retrieval_eval(pairs, {})

    def test_zero_variance_is_error_not_nan(self):
        pairs = [RetrievalPair("=A1", "=B1", 0.5), RetrievalPair("=A2", "=B2", 0.5)]
        embeddings = {"=A1": [1.0, 0.0], "=B1": [0.0, 1.0],
                      "=A2": [1.0, 0.0], "=B2": [1.0, 1.0]}
        with pytest.raises(ValueError, match="variance"):
            retrieval_eval(pairs, embeddings)

    def test_non_finite_cosine_and_correlation_are_errors_not_nan(self):
        pairs = [RetrievalPair("=A1", "=B1", 0.5), RetrievalPair("=A2", "=B2", 0.7)]
        embeddings = {"=A1": [1.0, 0.0], "=B1": [0.0, 1.0],
                      "=A2": [1e308, 1e308], "=B2": [1.0, 1.0]}
        with pytest.raises(ValueError, match="cosine similarity is not finite"):
            retrieval_eval(pairs, embeddings)
        embeddings["=A2"] = [1.0, 1.0]
        huge = [RetrievalPair("=A1", "=B1", 1e308), RetrievalPair("=A2", "=B2", 1e308),
                RetrievalPair("=A1", "=B2", 0.0)]
        with pytest.raises(ValueError, match="Pearson correlation is not finite"):
            retrieval_eval(huge, embeddings)

    def test_dimension_mismatch(self):
        pairs = [RetrievalPair("=A1", "=B1", 0.5), RetrievalPair("=A1", "=B1", 0.7)]
        with pytest.raises(ValueError, match="dimensions"):
            retrieval_eval(pairs, {"=A1": [1.0], "=B1": [1.0, 2.0]})

    def test_invariant_to_positive_rescaling_and_affine_targets(self):
        pairs = self._pairs()
        rng = random.Random(7)
        embeddings = {}
        for pair in pairs:
            embeddings.setdefault(pair.formula_a, [rng.uniform(-1, 1) for _ in range(3)])
            embeddings.setdefault(pair.formula_b, [rng.uniform(-1, 1) for _ in range(3)])
        base = retrieval_eval(pairs, embeddings)
        scaled = {k: [4.5 * x for x in v] for k, v in embeddings.items()}
        assert retrieval_eval(pairs, scaled) == pytest.approx(base)
        shifted = [RetrievalPair(p.formula_a, p.formula_b, 0.3 + 2.0 * p.target_similarity)
                   for p in pairs]
        assert retrieval_eval(shifted, embeddings) == pytest.approx(base)

    def test_build_retrieval_pairs(self):
        formulas = synth_corpus(12, seed=86)
        pairs = build_retrieval_pairs(formulas, seed=1)
        assert len(pairs) == 12 * 11 // 2
        for p in pairs:
            assert p.formula_a == mask_constants(p.formula_a)  # already masked
            assert 0.0 <= p.target_similarity <= 1.0
        capped = build_retrieval_pairs(formulas, seed=1, max_pairs=10)
        assert len(capped) == 10
        assert capped == build_retrieval_pairs(formulas, seed=1, max_pairs=10)

    def test_build_retrieval_pairs_matches_reference(self):
        corpus = synth_corpus(120, seed=88)
        for n in (0, 1, 2, 40, 120):
            for seed in (0, 1, 2):
                for max_pairs in (None, 1, 100, 5000, 10**9):
                    assert build_retrieval_pairs(corpus[:n], seed, max_pairs) == \
                        _ref_build_retrieval_pairs(corpus[:n], seed, max_pairs), (n, max_pairs)

    def test_sampling_builds_only_the_sampled_pairs(self):
        # All 499,500 pairs of 1,000 formulas take tens of MB as tuples.
        formulas = synth_corpus(1000, seed=89)
        tracemalloc.start()
        try:
            pairs = build_retrieval_pairs(formulas, seed=0, max_pairs=20)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(pairs) == 20
        assert peak < 5_000_000, peak

    def test_cost_at_a_fixed_sample_does_not_grow_with_the_corpus(self):
        # Only the formulas of the drawn pairs are masked and scored, so at
        # a fixed max_pairs the calls of each pass, counted through wrappers
        # (not timed), stay within the sample at n and 2n formulas, and twice
        # the formulas must not take three times the memory.
        formulas = synth_corpus(4000, seed=90)
        half = formulas[:2000]
        per_pair, per_formula = ("_unrank_pair", "similarity_ids"), ("mask_constants",
                                                                     "formula_token_ids")

        def cost(corpus):
            calls = Counter()

            def counting(name):
                function = getattr(evaluation, name)

                def counted(*args):
                    calls[name] += 1
                    return function(*args)
                return counted

            with pytest.MonkeyPatch.context() as patch:
                for name in per_pair + per_formula:
                    patch.setattr(evaluation, name, counting(name))
                build_retrieval_pairs(corpus, seed=0, max_pairs=200)
            tracemalloc.start()
            try:
                build_retrieval_pairs(corpus, seed=0, max_pairs=200)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            return calls, peak

        (calls_n, peak_n), (calls_2n, peak_2n) = cost(half), cost(formulas)
        for calls in (calls_n, calls_2n):
            assert all(calls[name] == 200 for name in per_pair), calls
            assert all(0 < calls[name] <= 2 * 200 for name in per_formula), calls
        assert peak_2n < 3 * peak_n, (peak_n, peak_2n)

    def test_retrieval_targets_equal_pairwise_token_edit_similarity(self):
        formulas = synth_corpus(25, seed=87) + ['=SUM(1,"a")', '=SUM(2,"b")', ""]
        for max_pairs in (None, 40):
            for p in build_retrieval_pairs(formulas, seed=2, max_pairs=max_pairs):
                assert p.target_similarity == token_edit_similarity(p.formula_a, p.formula_b)


def _ref_build_retrieval_pairs(formulas, seed, max_pairs=None):
    """build_retrieval_pairs as it stood when it built every pair before
    sampling them."""
    masked = [mask_constants(f) for f in formulas]
    intern = {}
    ids = [formula_token_ids(m, intern) for m in masked]
    all_pairs = [(i, j) for i in range(len(masked)) for j in range(i + 1, len(masked))]
    if max_pairs is not None and max_pairs < len(all_pairs):
        rng = derive_rng(seed, "retrieval-pairs")
        all_pairs = rng.sample(all_pairs, max_pairs)
    partners = {}
    for i, j in all_pairs:
        partners.setdefault(i, []).append(j)
    packed = PackedCorpus(ids)
    scores = {}
    for i, js in partners.items():
        sims = similarities_to_many(ids[i], packed, len(packed))  # every position
        for j in js:
            scores[i, j] = sims[j]
    return [RetrievalPair(masked[i], masked[j], scores[i, j]) for i, j in all_pairs]


class TestEvaluateHarness:
    def _tasks(self):
        return [RepairTask(buggy=f"=SUM(A{i}", ground_truth=f"=SUM(A{i})",
                           source_id=f"t{i}") for i in range(4)]

    def test_echo_provider_scores_one(self):
        report = evaluate(self._tasks(), lambda t: [t.ground_truth],
                          metrics=("exact_match", "sketch_match"), ks=(1, 5))
        assert all(v == 1.0 for v in report.values.values())

    def test_empty_provider_scores_zero(self):
        report = evaluate(self._tasks(), lambda t: [],
                          metrics=("exact_match",), ks=(1, 5))
        assert all(v == 0.0 for v in report.values.values())

    def test_three_of_four_at_k5(self):
        tasks = self._tasks()

        def provider(task):
            if task.source_id == "t0":
                return ["=WRONG()"]
            return ["=X1", "=X2", task.ground_truth]

        report = evaluate(tasks, provider, metrics=("exact_match",), ks=(1, 5))
        assert report.value("exact_match", 5) == pytest.approx(0.75)
        assert report.value("exact_match", 1) == pytest.approx(0.0)

    def test_metrics_monotone_in_k(self):
        tasks = self._tasks()
        rng = random.Random(8)

        def provider(task):
            cands = ["=Y1", "=Y2", "=Y3", task.ground_truth]
            rng.shuffle(cands)
            return cands

        report = evaluate(tasks, provider, metrics=("exact_match",), ks=(1, 2, 3, 4))
        values = [report.value("exact_match", k) for k in (1, 2, 3, 4)]
        assert values == sorted(values)

    def test_provider_failure_is_miss_not_crash(self):
        def provider(task):
            raise RuntimeError("model fell over")

        report = evaluate(self._tasks(), provider, metrics=("exact_match",), ks=(1,))
        assert report.value("exact_match", 1) == 0.0
        assert report.provider_failures == 4
        assert any("error" in row for row in report.per_task)

    def test_completion_tasks_use_formula_as_truth(self):
        tasks = [CompletionTask(formula="=SUM(A1)", prefix_fraction=0.5,
                                prefix="=sum(", source_id="c0")]
        report = evaluate(tasks, lambda t: ["=SUM(A1)"],
                          metrics=("exact_match", "sketch_match"), ks=(1,))
        assert report.value("exact_match", 1) == 1.0

    def test_matches_per_k_comparison(self):
        # Each row as the metrics read before they shared one keying per
        # task: the truth and the top k candidates keyed again for every k.
        keys = {"exact_match": normalize, "sketch_match": dedup_key}
        corpus = synth_corpus(60, seed=9)
        tasks = list(gen_repair_finetune(corpus, seed=3))
        rng = random.Random(10)
        ranked = {}
        for task in tasks:
            cands = rng.sample(corpus, 4) + [task.buggy, task.ground_truth.lower()]
            rng.shuffle(cands)
            ranked[task.source_id] = cands[:rng.randrange(7)]
        ks = (1, 2, 5)
        report = evaluate(tasks, lambda t: ranked[t.source_id], metrics=tuple(keys), ks=ks)
        for task, row in zip(tasks, report.per_task):
            cands = ranked[task.source_id]
            for m, key in keys.items():
                truth = key(task.ground_truth)
                for k in ks:
                    assert row[f"{m}@{k}"] == any(key(c) == truth for c in cands[:k])
        assert 0 < report.value("exact_match", 5) < report.value("sketch_match", 5) < 1

    def test_keys_the_truth_once_and_candidates_up_to_the_first_match(self, lex_calls):
        task = RepairTask(buggy="=SUM(A1", ground_truth="=SUM(A1)", source_id="t0")
        candidates = ["=X1", "=SUM( a1 )", "=Y1", "=Z1"]
        lex_calls.clear()
        report = evaluate([task], lambda t: candidates, metrics=("exact_match",), ks=(1, 2, 5))
        assert lex_calls == ["=SUM(A1)", "=X1", "=SUM( a1 )"]
        assert report.per_task[0] == {"source_id": "t0", "exact_match@1": False,
                                      "exact_match@2": True, "exact_match@5": True}
        lex_calls.clear()
        evaluate([task], lambda t: candidates, metrics=("sketch_match",), ks=(1,))
        assert lex_calls == ["=SUM(A1)", "=X1"]
        lex_calls.clear()
        evaluate([task], lambda t: [], metrics=("exact_match", "sketch_match"), ks=(1, 5))
        assert lex_calls == []

    def test_k_below_one_rejected_up_front(self):
        with pytest.raises(ValueError, match="k must be >= 1"):
            evaluate(self._tasks(), lambda t: [], metrics=("exact_match",), ks=(1, 0))

    def test_repeated_metric_reports_as_named_once(self):
        def provider(task):
            return ["=WRONG()"] if task.source_id == "t0" else [task.ground_truth]

        once = evaluate(self._tasks(), provider, metrics=("sketch_match", "exact_match"),
                        ks=(1, 5))
        twice = evaluate(self._tasks(), provider, ks=(1, 5),
                         metrics=("sketch_match", "exact_match", "sketch_match", "exact_match"))
        assert twice.to_json() == once.to_json()
        assert twice.value("exact_match", 1) == 0.75
        assert list(twice.per_task[0]) == list(once.per_task[0]) == [
            "source_id", "sketch_match@1", "sketch_match@5", "exact_match@1", "exact_match@5"]

    def test_unknown_metric_rejected(self):
        with pytest.raises(ValueError, match="unknown metric"):
            evaluate(self._tasks(), lambda t: [], metrics=("bleu",), ks=(1,))

    def test_report_json_shape(self):
        report = evaluate(self._tasks(), lambda t: [t.ground_truth],
                          metrics=("exact_match",), ks=(1,))
        payload = report.to_json()
        assert payload["num_tasks"] == 4
        assert payload["results"] == [{"metric": "exact_match", "k": 1, "value": 1.0}]
        assert len(payload["per_task"]) == 4
