import random
from collections import Counter

import pytest

from formulakit.curation import FormulaRecord
from formulakit.lexer import lex
from formulakit.objectives import (DEFAULT_TM_FRACTIONS, MASK, ObjectiveConfig,
                                   PreconditionFailed, example_for_record,
                                   generate_pretrain, la_msp, random_noise,
                                   select_mask_runs, tail_mask, user_noise)
from formulakit.synth import synth_records


class TestTailMask:
    def test_half_of_twelve_chars(self):
        rng = random.Random(0)
        # pin the fraction choice to 0.5 by passing a single-element set
        ex = tail_mask("=SUM(A1:A10)", rng, fractions=(0.5,))
        assert ex.input == "=SUM(A" + MASK
        assert ex.target == "=SUM(A1:A10)"
        assert ex.objective == "TM"
        assert "0.5" in ex.detail

    def test_fraction_always_from_configured_set(self):
        rng = random.Random(1)
        seen = set()
        for _ in range(10_000):
            ex = tail_mask("=SUM(A1:A10)+B2", rng)
            fraction = float(ex.detail.split("=")[1])
            seen.add(fraction)
        assert seen == set(DEFAULT_TM_FRACTIONS)

    def test_two_char_boundary(self):
        ex = tail_mask("=A", random.Random(0), fractions=(0.5,))
        assert ex.input == "=" + MASK

    def test_too_short_rejected(self):
        with pytest.raises(PreconditionFailed):
            tail_mask("=", random.Random(0))

    def test_prefix_length_is_ceil(self):
        # 10 chars at fraction 0.30 keeps ceil(7.0) = 7
        ex = tail_mask("0123456789", random.Random(0), fractions=(0.3,))
        assert ex.input == "0123456" + MASK


class TestSelectMaskRuns:
    def test_full_mask_single_run(self):
        runs = select_mask_runs(5, 1.0, 6, random.Random(0))
        assert runs == [(0, 5)]

    def test_runs_disjoint_ordered_nonadjacent(self):
        for seed in range(200):
            rng = random.Random(seed)
            n = rng.randrange(1, 40)
            runs = select_mask_runs(n, 0.35, 2, rng)
            for (a1, b1), (a2, b2) in zip(runs, runs[1:]):
                assert b1 < a2  # gap of at least one unmasked token
            assert all(0 <= a < b <= n for a, b in runs)

    def test_masked_count_tracks_rate(self):
        total = masked = 0
        for seed in range(2000):
            rng = random.Random(seed)
            n = 5 + seed % 30
            runs = select_mask_runs(n, 0.35, 6, rng)
            total += n
            masked += sum(b - a for a, b in runs)
        assert abs(masked / total - 0.35) < 0.03


class TestLaMsp:
    def test_degenerate_full_mask(self):
        ex = la_msp("=A1", 1.0, 6, random.Random(0))
        assert ex.input == MASK
        assert ex.target == "=A1"

    def test_seeded_span_covers_whole_range(self):
        # 13 tokens; rate 3/13 with mean span 6 gives one 3-token span, and
        # seed 3 lands it exactly on `B1 : B5`
        ex = la_msp('=SUMIF(B1:B5,"x",A1:A5)', 3 / 13, 6, random.Random(3))
        assert ex.input == "=SUMIF(" + MASK + ',"x",A1:A5)'
        assert ex.target == '=SUMIF(B1:B5,"x",A1:A5)'

    def test_empty_formula_rejected(self):
        with pytest.raises(PreconditionFailed):
            la_msp("", 0.35, 6, random.Random(0))

    def test_boundary_invariant_reconstruction(self):
        records = synth_records(500, seed=60)
        for i, record in enumerate(records):
            formula = record.formula
            tokens = lex(formula)
            rng = random.Random(i)
            runs = select_mask_runs(len(tokens), 0.35, 2, random.Random(i))
            ex = la_msp(formula, 0.35, 2, rng)
            # replacing each mask with the original token run restores the
            # formula exactly; masked runs align with whole lexer tokens
            rebuilt = []
            pos = 0
            pieces = ex.input.split(MASK)
            assert len(pieces) == len(runs) + 1
            for piece, (start, end) in zip(pieces, runs):
                rebuilt.append(piece)
                rebuilt.append("".join(t.text for t in tokens[start:end]))
                pos = end
            rebuilt.append(pieces[-1])
            assert "".join(rebuilt) == formula

    def test_single_mask_token_per_run(self):
        for i in range(100):
            ex = la_msp("=IF(A1>10,SUM(B1:B9),MAX(C1:C4))", 0.35, 6, random.Random(i))
            assert MASK + MASK not in ex.input

    def test_empirical_rate_low_50k(self):
        records = synth_records(10_000, seed=61)
        total = masked = 0
        for i in range(50_000):
            record = records[i % len(records)]
            ex = la_msp(record.formula, 0.15, 2, random.Random(i))
            detail = dict(kv.split("=") for kv in ex.detail.split(","))
            total += int(detail["tokens"])
            masked += int(detail["masked"])
        assert 0.12 <= masked / total <= 0.18


class TestRandomNoise:
    def test_event_count_is_ceil_of_tenth(self):
        # 10 lexer tokens -> exactly 1 corruption event
        formula = "=A1+B2*C3-D4+E5"
        assert len(lex(formula)) == 10
        ex = random_noise(formula, random.Random(0))
        assert ex.detail == "events=1"

    def test_single_token_still_one_event(self):
        ex = random_noise("7", random.Random(0))
        assert ex.detail == "events=1"
        assert ex.target == "7"

    def test_seeded_delete_of_plus(self):
        # seed found by search: the single event deletes the `+` token
        ex = random_noise("=A1+B1", random.Random(9))
        assert ex.input == "=A1B1"
        assert ex.target == "=A1+B1"

    def test_target_is_original(self):
        for i in range(50):
            ex = random_noise("=IF(A1>10,2,3)", random.Random(i))
            assert ex.target == "=IF(A1>10,2,3)"

    def test_rejects_empty(self):
        with pytest.raises(PreconditionFailed):
            random_noise("", random.Random(0))


class TestUserNoise:
    def test_input_always_differs(self):
        for i, record in enumerate(synth_records(200, seed=62)):
            ex = user_noise(record.formula, random.Random(i))
            assert ex.input != ex.target == record.formula
            assert ex.objective == "UN"
            assert ex.detail.startswith("op=")

    def test_operator_pool_for_bare_ref(self):
        seen = set()
        for i in range(300):
            ex = user_noise("=A1", random.Random(i))
            seen.add(int(ex.detail.split("=")[1].split(":")[0]))
        assert seen == {9, 14, 15, 16, 17}


class TestObjectiveConfig:
    def test_default_valid(self):
        ObjectiveConfig().validate()

    def test_weights_must_sum_to_one(self):
        cfg = ObjectiveConfig(weights={"laMSP": 0.5, "TM": 0.2, "UN": 0.2,
                                       "RN": 0.05, "ID": 0.2})
        with pytest.raises(ValueError, match="sum to 1"):
            cfg.validate()

    def test_weights_must_cover_all_objectives(self):
        with pytest.raises(ValueError, match="cover exactly"):
            ObjectiveConfig(weights={"laMSP": 1.0}).validate()

    def test_rates_in_open_interval(self):
        with pytest.raises(ValueError, match="rn_rate"):
            ObjectiveConfig(rn_rate=0.0).validate()

    def test_span_floor(self):
        cfg = ObjectiveConfig(lamsp_mean_spans={"long": 0, "short": 2})
        with pytest.raises(ValueError, match="lamsp_mean_spans"):
            cfg.validate()

    def test_from_json_round_trip(self):
        cfg = ObjectiveConfig.from_json({"seed": 7, "rn_rate": 0.2,
                                         "tm_fractions": [0.4, 0.6]})
        assert cfg.seed == 7
        assert cfg.rn_rate == 0.2
        assert cfg.tm_fractions == (0.4, 0.6)

    def test_lamsp_combos_fixed_order(self):
        assert ObjectiveConfig().lamsp_combos() == [(0.35, 6), (0.35, 2),
                                                    (0.15, 6), (0.15, 2)]


class TestGeneratePretrain:
    def test_target_always_original(self):
        records = synth_records(300, seed=63)
        for record, ex in zip(records, generate_pretrain(iter(records),
                                                         ObjectiveConfig(seed=1))):
            assert ex.target == record.formula

    def test_identity_examples_equal(self):
        records = synth_records(2000, seed=64)
        for ex in generate_pretrain(iter(records), ObjectiveConfig(seed=2)):
            if ex.objective == "ID":
                assert ex.input == ex.target

    def test_deterministic_across_runs(self):
        records = synth_records(200, seed=65)
        cfg = ObjectiveConfig(seed=3)
        a = [ex.to_json() for ex in generate_pretrain(iter(records), cfg)]
        b = [ex.to_json() for ex in generate_pretrain(iter(records), cfg)]
        assert a == b

    def test_seed_changes_output(self):
        records = synth_records(50, seed=66)
        a = [ex.input for ex in generate_pretrain(iter(records), ObjectiveConfig(seed=1))]
        b = [ex.input for ex in generate_pretrain(iter(records), ObjectiveConfig(seed=2))]
        assert a != b

    def test_precondition_retry_falls_through(self):
        # one character: TM is impossible, another objective must be drawn
        record = FormulaRecord("wb", "s", "7")
        for ordinal in range(50):
            ex = example_for_record(record, ordinal, ObjectiveConfig(seed=4))
            assert ex is not None
            assert ex.objective != "TM"
            assert ex.target == "7"

    def test_ordinal_changes_seed(self):
        record = FormulaRecord("wb", "s", "=SUM(A1:A10)")
        cfg = ObjectiveConfig(seed=5)
        seeds = {example_for_record(record, i, cfg).record_seed for i in range(30)}
        assert len(seeds) == 30

    def test_objective_mix_rough(self):
        records = synth_records(20_000, seed=67)
        counts = Counter(ex.objective for ex in
                         generate_pretrain(iter(records), ObjectiveConfig(seed=6)))
        n = sum(counts.values())
        for name, weight in (("laMSP", 0.5), ("TM", 0.2), ("UN", 0.2),
                             ("RN", 0.05), ("ID", 0.05)):
            assert abs(counts[name] / n - weight) < 0.02, counts

    def test_report_counts(self):
        records = synth_records(40, seed=68)
        skips = Counter()
        out = list(generate_pretrain(iter(records), ObjectiveConfig(seed=7), skips))
        assert len(out) == 40
        assert skips == {}

    def test_workers_give_the_same_examples_and_skips(self):
        # `=` is too short for tail masking, the only weighted objective.
        records = synth_records(600, seed=70)
        records.insert(300, FormulaRecord("wb", "s", "="))
        weights = {"laMSP": 0.0, "TM": 1.0, "UN": 0.0, "RN": 0.0, "ID": 0.0}
        cfg = ObjectiveConfig(seed=9, weights=weights)
        runs = []
        for workers in (1, 2):
            skips = Counter()
            examples = [ex.to_json() for ex in
                        generate_pretrain(iter(records), cfg, skips, workers=workers)]
            runs.append((examples, skips))
        assert runs[0] == runs[1]
        assert len(runs[0][0]) == 600
        assert runs[0][1] == {"no objective": 1}

    def test_un_examples_round_trip_to_repair_shape(self):
        # every UN example's corrupted input differs from the target
        records = synth_records(2000, seed=69)
        for ex in generate_pretrain(iter(records), ObjectiveConfig(seed=8)):
            if ex.objective == "UN":
                assert ex.input != ex.target
