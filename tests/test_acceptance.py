"""Acceptance suite: one test per criterion, each timed against its budget,
or counting its work where a time would follow the machine's load.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS line per
criterion with its elapsed time.
"""

import hashlib
import itertools
import random
import sys
import time
from collections import Counter
from contextlib import contextmanager
from typing import Optional

import pytest

from formulakit import noise, objectives
from formulakit.baseline import build_index, repair_candidates
from formulakit.cli import main
from formulakit.curation import FormulaRecord, dedup, dedup_key
from formulakit.evaluation import (RetrievalPair, cosine_similarity, evaluate,
                                   gen_repair_finetune, retrieval_eval)
from formulakit.jsonl import write_jsonl_atomic
from formulakit.lexer import check, lex, sketch
from formulakit.noise import applicable_operators, apply_noise_operator
from formulakit.objectives import (MASK, ObjectiveConfig, generate_pretrain, la_msp,
                                   select_mask_runs)
from formulakit.similarity import levenshtein_ids, token_edit_similarity
from formulakit.synth import random_formula, synth_records
from formulakit.tokenizer import SPACE_MARKER, pretokenize, train_bpe

from test_noise_golden import GOLDENS
from test_similarity import oracle_levenshtein
from test_tokenizer import oracle_merges


@contextmanager
def criterion(num: int, budget_s: Optional[float], description: str):
    """Time a criterion against its budget; with no budget, the criterion
    counts its work instead and the time is only printed."""
    start = time.perf_counter()
    yield
    elapsed = time.perf_counter() - start
    budget = "counted" if budget_s is None else f"budget {budget_s:g}s"
    print(f"ACCEPTANCE C{num:02d} PASS ({elapsed:6.2f}s / {budget}): {description}",
          file=sys.stderr)
    if budget_s is not None:
        assert elapsed < budget_s, (
            f"criterion {num} exceeded its {budget_s}s budget: {elapsed:.2f}s")


def test_c01_sumif_pretokenization_exact():
    with criterion(1, 1.0, "pretokenization of the worked SUMIF example, bit-exact"):
        got = [p.text for p in pretokenize('=SUMIF(B1:B5, "Not available", A1:A5)')]
        assert got == ["=", "sumif", "(", "b", "1", ":", "b", "5", ",", SPACE_MARKER,
                       '"', "not", SPACE_MARKER, "available", '"', ",", SPACE_MARKER,
                       "a", "1", ":", "a", "5", ")"]


def test_c02_sum_range_sketch():
    with criterion(2, 1.0, "sketch of =SUM(A1:A10)"):
        assert sketch("=SUM(A1:A10)") == "=SUM(cell:cell)"


def test_c03_lexer_round_trip_fuzz():
    with criterion(3, 30.0, "lexer round-trip over 100k grammar-fuzzed formulas"):
        rng = random.Random(0xF0F0)
        violations = 0
        for _ in range(100_000):
            formula = random_formula(rng)
            if "".join(t.text for t in lex(formula)) != formula:
                violations += 1
        assert violations == 0


def test_c04_lamsp_boundary_and_rates():
    with criterion(4, 60.0, "laMSP: 10k examples, whole-token masks, rates within 3pp"):
        rng = random.Random(4)
        formulas = [random_formula(rng) for _ in range(2500)]
        combos = [(0.35, 6), (0.35, 2), (0.15, 6), (0.15, 2)]
        masked_by_rate = Counter()
        total_by_rate = Counter()
        examples = 0
        for rate, mean_span in combos:
            for i, formula in enumerate(formulas):
                seed = i * 7919 + int(rate * 100) * 13 + mean_span
                tokens = lex(formula)
                runs = select_mask_runs(len(tokens), rate, mean_span, random.Random(seed))
                ex = la_msp(formula, rate, mean_span, random.Random(seed))
                examples += 1
                # masked runs align with whole lexer tokens: replacing each
                # mask with the original token run restores the formula
                pieces = ex.input.split(MASK)
                assert len(pieces) == len(runs) + 1
                rebuilt = []
                for piece, (start, end) in zip(pieces, runs):
                    rebuilt.append(piece)
                    rebuilt.append("".join(t.text for t in tokens[start:end]))
                rebuilt.append(pieces[-1])
                assert "".join(rebuilt) == formula, "partially masked token"
                masked_by_rate[rate] += sum(b - a for a, b in runs)
                total_by_rate[rate] += len(tokens)
        assert examples == 10_000
        for rate in (0.35, 0.15):
            empirical = masked_by_rate[rate] / total_by_rate[rate]
            assert abs(empirical - rate) < 0.03, (rate, empirical)


def test_c05_objective_sampler_weights():
    pool = [
        "=SUM(A1:A10)", '=IF(A1>10,"yes",2)', "=B2<=EDATE(TODAY(),-33)",
        "=VLOOKUP(P6,A1:C9,3)", "='My Sheet'!B2+1", "=MAX(C1:C4)*2",
        '=IF(ISERROR(G6*1.2),"")', "=COUNT($B$2:$B$99)", '=A1&" total"',
        "=ROUND(A1*B1,2)",
    ]
    records = [FormulaRecord(f"wb{i % 997}", f"s{i % 5}", pool[i % len(pool)])
               for i in range(100_000)]
    # Count the work, not the seconds: one example per record, and each
    # record lexed at most once (laMSP, UN and RN lex; TM and ID do not).
    calls = Counter()

    def counted(name, fn):
        def call(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return call

    with criterion(5, None, "objective mix over 100k draws within 1pp of 50/20/20/5/5"), \
            pytest.MonkeyPatch.context() as patch:
        patch.setattr(objectives, "example_for_record",
                      counted("example_for_record", objectives.example_for_record))
        for module in (objectives, noise):
            patch.setattr(module, "lex", counted("lex", module.lex))
        counts = Counter(ex.objective for ex in
                         generate_pretrain(iter(records), ObjectiveConfig(seed=5)))
        n = sum(counts.values())
        assert n == 100_000
        for name, weight in (("laMSP", 0.50), ("TM", 0.20), ("UN", 0.20),
                             ("RN", 0.05), ("ID", 0.05)):
            assert abs(counts[name] / n - weight) < 0.01, (name, counts[name] / n)
        assert calls["example_for_record"] == 100_000, calls
        assert 0 < calls["lex"] <= 100_000, calls


def test_c06_noise_operator_goldens():
    with criterion(6, 10.0, "17-operator golden suite incl. verbatim worked examples"):
        assert sum(len(cases) for cases in GOLDENS.values()) >= 51
        assert all(len(GOLDENS[op]) >= 3 for op in range(1, 18))
        for op_id, cases in GOLDENS.items():
            for formula, seed, expected in cases:
                assert apply_noise_operator(formula, op_id, random.Random(seed)) == expected

        # the two worked examples, verbatim
        assert apply_noise_operator("IF(A2>10, True, False)", 4,
                                    random.Random(5)) == "IF(A2>10, True, False, False)"
        assert apply_noise_operator("'Sheet 1'!A10", 10,
                                    random.Random(0)) == '"Sheet 1"!A10'

        # syntax-breaking classes are flagged by check(); ops 1 and 12 each
        # have one wrong-but-well-formed escape form, asserted exactly
        fixtures = ["=SUM(A1:A10)", '=SUMIF(B1:B5,"Not available",A1:A5)',
                    "=IF(A1=1,MAX(B1:B3),0)", '=IF(A1,"x",1)']
        for op_id in (1, 2, 9, 12, 13):
            for formula in fixtures:
                if op_id not in applicable_operators(formula):
                    continue
                for seed in range(40):
                    out = apply_noise_operator(formula, op_id, random.Random(seed))
                    if check(out):
                        continue
                    if op_id == 1:  # comma-for-colon inside a call parses fine
                        assert out.count(",") == formula.count(",") + 1
                    elif op_id == 12:  # dropped quotes around one clean operand
                        assert out.count('"') == formula.count('"') - 2
                    else:
                        raise AssertionError((op_id, formula, out))


def test_c07_bpe_oracle_equivalence():
    with criterion(7, 30.0, "BPE merge sequence equals brute-force oracle on 5 corpora"):
        corpora = [
            ['="aaab"'] * 100,
            [random_formula(random.Random(s)) for s in range(40)],
            [random_formula(random.Random(1000 + s)) for s in range(50)],
            ['=IF(ISERROR(G6*1.2),"")', "=B2<=EDATE(TODAY(),-33)"] * 10,
            ["='My Sheet'!A1&\"total total\"", "=tax_rate*basis", "=summary!B2"] * 6,
        ]
        catalog_names = None
        for corpus in corpora:
            model = train_bpe(corpus, budget=240)
            assert model.merges == oracle_merges(corpus, 240)
            if catalog_names is None:
                from formulakit.catalog import default_catalog
                catalog_names = default_catalog().names()
            for tok in model.vocab:
                for name in catalog_names:
                    assert tok != name + "(", tok
        # the aaab corpus also pins the first merges
        model = train_bpe(['="aaab"'] * 100, budget=240)
        assert model.merges[:2] == [("a", "a"), ("aa", "a")]


def test_c08_dedup_ordering_and_oracle():
    with criterion(8, 10.0, "dedup counts vs brute-force oracle on 20 corpora"):
        for seed in range(20):
            records = synth_records(300, seed=seed, workbooks=2 + seed % 9)
            per_wb = list(dedup(iter(records), "per-workbook"))
            glob = list(dedup(iter(records), "global"))
            assert len(glob) <= len(per_wb) <= len(records)
            # oracle: set-based counting
            global_keys = {dedup_key(r.formula) for r in records}
            wb_keys = {}
            for r in records:
                wb_keys.setdefault(r.workbook_id, set()).add(dedup_key(r.formula))
            assert len(glob) == len(global_keys)
            assert len(per_wb) == sum(len(v) for v in wb_keys.values())


def test_c09_token_edit_similarity_exhaustive():
    with criterion(9, 60.0, "edit distance vs DP oracle, all pairs totaling <= 8 tokens"):
        seqs_by_len = [list(itertools.product(range(4), repeat=n)) for n in range(9)]
        checked = 0
        for len_a in range(9):
            for len_b in range(9 - len_a):
                for a in seqs_by_len[len_a]:
                    for b in seqs_by_len[len_b]:
                        assert levenshtein_ids(a, b) == oracle_levenshtein(a, b)
                        checked += 1
        assert checked == 757_305

        # the same property through the string front-end, on lexer tokens
        symbols = ["(", ")", "+", ":"]
        small = []
        for n in range(4):
            small.extend(itertools.product(symbols, repeat=n))
        for a in small:
            for b in small:
                sim = token_edit_similarity("".join(a), "".join(b))
                denom = max(len(a), len(b))
                expected = 1.0 if denom == 0 else 1.0 - oracle_levenshtein(a, b) / denom
                assert sim == pytest.approx(expected)

        # worked retrieval example: first two more similar than first-third
        first = "VLOOKUP($A1, $A$1:$AY$132, 42, FALSE)"
        second = "VLOOKUP(P6, 'Other'!$A$3:$C$6, 3, FALSE)"
        third = "C1-VLOOKUP(A1, 'F'!$A$3:$D$16, 4, FALSE)"
        assert token_edit_similarity(first, second) > token_edit_similarity(first, third)


def test_c10_harness_end_to_end():
    with criterion(10, 60.0, "baseline/echo providers over a 1000-formula corpus"):
        rng = random.Random(10)
        corpus = sorted({random_formula(rng) for _ in range(1100)})[:1000]
        assert len(corpus) == 1000
        index = build_index(corpus)
        tasks = list(gen_repair_finetune(corpus[:40], seed=10))
        assert tasks

        def baseline_provider(task):
            return repair_candidates(index, task.buggy, len(corpus))

        report = evaluate(tasks, baseline_provider, metrics=("exact_match",),
                          ks=(1, 5, len(corpus)))
        assert report.value("exact_match", len(corpus)) == 1.0
        values = [report.value("exact_match", k) for k in (1, 5, len(corpus))]
        assert values == sorted(values)  # monotone in k

        echo = evaluate(tasks, lambda t: [t.ground_truth],
                        metrics=("exact_match", "sketch_match"), ks=(1, 5))
        assert all(v == 1.0 for v in echo.values.values())


def test_c11_gen_pretrain_worker_determinism(tmp_path):
    corpus_path = tmp_path / "corpus.jsonl"
    write_jsonl_atomic(corpus_path, (r.to_json() for r in synth_records(10_000, seed=11)))
    with criterion(11, 120.0, "gen-pretrain byte-identical at 1 and 8 workers (10k corpus)"):
        out1 = tmp_path / "w1.jsonl"
        out8 = tmp_path / "w8.jsonl"
        assert main(["gen-pretrain", "--input", str(corpus_path), "--seed", "11",
                     "--workers", "1", "--output", str(out1)]) == 0
        assert main(["gen-pretrain", "--input", str(corpus_path), "--seed", "11",
                     "--workers", "8", "--output", str(out8)]) == 0
        hash1 = hashlib.sha256(out1.read_bytes()).hexdigest()
        hash8 = hashlib.sha256(out8.read_bytes()).hexdigest()
        assert hash1 == hash8
        assert len(out1.read_bytes()) > 0


def test_c12_pearson_cosine_plumbing():
    with criterion(12, 1.0, "retrieval_eval on perfect/anti/5-pair fixtures"):
        import math
        sims = [0.1, 0.35, 0.5, 0.75, 0.9]
        pairs = [RetrievalPair(f"=A{i}", f"=B{i}", s) for i, s in enumerate(sims)]
        perfect = {}
        anti = {}
        for pair in pairs:
            perfect[pair.formula_a] = [1.0, 0.0]
            angle = math.acos(pair.target_similarity)
            perfect[pair.formula_b] = [math.cos(angle), math.sin(angle)]
            anti[pair.formula_a] = [1.0, 0.0]
            angle = math.acos(1.0 - pair.target_similarity)
            anti[pair.formula_b] = [math.cos(angle), math.sin(angle)]
        assert retrieval_eval(pairs, perfect) == pytest.approx(1.0, abs=1e-12)
        assert retrieval_eval(pairs, anti) == pytest.approx(-1.0, abs=1e-12)

        # closed-form check on an arbitrary 5-pair fixture
        rng = random.Random(12)
        embeddings = {}
        for pair in pairs:
            embeddings.setdefault(pair.formula_a, [rng.uniform(-1, 1) for _ in range(4)])
            embeddings.setdefault(pair.formula_b, [rng.uniform(-1, 1) for _ in range(4)])
        xs = [cosine_similarity(embeddings[p.formula_a], embeddings[p.formula_b])
              for p in pairs]
        ys = sims
        mean_x = sum(xs) / 5
        mean_y = sum(ys) / 5
        num = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
        den = math.sqrt(sum((x - mean_x) ** 2 for x in xs)
                        * sum((y - mean_y) ** 2 for y in ys))
        assert abs(retrieval_eval(pairs, embeddings) - num / den) < 1e-12
