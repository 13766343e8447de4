import math
import random
import statistics
from collections import Counter

import pytest

from formulakit.evaluation import (CompletionTask, RepairTask, RetrievalPair,
                                   build_retrieval_pairs, cosine_similarity,
                                   evaluate, exact_match_at_k,
                                   gen_repair_finetune, make_completion_prefix,
                                   mask_constants, reserve_split,
                                   retrieval_eval, sketch_match_at_k)
from formulakit.lexer import check, normalize
from formulakit.noise import apply_noise_operator
from formulakit.similarity import token_edit_similarity
from formulakit.synth import synth_corpus
from formulakit.tokenizer import encode, train_bpe


class TestExactMatch:
    def test_repair_match_ignores_whitespace(self):
        candidates = ['=IF(ISERROR(G6*1.2),"")']
        truth = '=IF(ISERROR(G6 *1.2), "")'
        assert exact_match_at_k(candidates, truth, 1)

    def test_empty_candidates(self):
        assert not exact_match_at_k([], "=A1", 1)

    def test_rank_cutoff(self):
        candidates = ["=B1", "=B2", "=B3", "=B4", "=A1"]
        assert not exact_match_at_k(candidates, "=A1", 1)
        assert exact_match_at_k(candidates, "=A1", 5)

    def test_case_insensitive_refs(self):
        assert exact_match_at_k(["=sum(a1)"], "=SUM(A1)", 1)

    def test_string_case_sensitive(self):
        assert not exact_match_at_k(['=IF(A1,"X",1)'], '=IF(A1,"x",1)', 1)

    def test_k_validation(self):
        with pytest.raises(ValueError):
            exact_match_at_k(["=A1"], "=A1", 0)


class TestSketchMatch:
    def test_contextual_number_matches_by_type(self):
        candidate = "=B2<=EDATE(TODAY(),-5)"
        truth = "=B2<=EDATE(TODAY(),-33)"
        assert sketch_match_at_k([candidate], truth, 1)
        assert not exact_match_at_k([candidate], truth, 1)

    def test_exact_implies_sketch(self):
        corpus = synth_corpus(100, seed=80)
        for truth in corpus:
            candidates = [truth]
            if exact_match_at_k(candidates, truth, 1):
                assert sketch_match_at_k(candidates, truth, 1)

    def test_arity_difference_breaks_sketch(self):
        candidate = "=B2<=EDATE(TODAY())"
        truth = "=B2<=EDATE(TODAY(),-33)"
        assert not sketch_match_at_k([candidate], truth, 1)


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

    def test_retrieval_targets_equal_pairwise_token_edit_similarity(self):
        formulas = synth_corpus(25, seed=87) + ['=SUM(1,"a")', '=SUM(2,"b")', ""]
        for max_pairs in (None, 40):
            for p in build_retrieval_pairs(formulas, seed=2, max_pairs=max_pairs):
                assert p.target_similarity == token_edit_similarity(p.formula_a, p.formula_b)


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
