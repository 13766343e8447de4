import itertools
import random
import timeit
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from formulakit import similarity
from formulakit.lexer import lex
from formulakit.similarity import (_TABLES, DENSE_MAX, DENSE_MIN, KERNEL_BACKEND,
                                   PackedCorpus, _advance, _fractions, _mask_from_positions,
                                   _table, formula_token_ids, formula_token_ids_frozen,
                                   levenshtein_ids, similarities_to_many, token_edit_similarity)
from formulakit.synth import synth_corpus
from test_lexer import _envelope_formulas

REPO = Path(__file__).resolve().parent.parent


def oracle_levenshtein(a, b):
    """Full-matrix DP, the textbook recurrence. Kept deliberately naive."""
    m, n = len(a), len(b)
    dist = [[0] * (n + 1) for _ in range(m + 1)]
    for i in range(m + 1):
        dist[i][0] = i
    for j in range(n + 1):
        dist[0][j] = j
    for i in range(1, m + 1):
        for j in range(1, n + 1):
            dist[i][j] = min(
                dist[i - 1][j] + 1,
                dist[i][j - 1] + 1,
                dist[i - 1][j - 1] + (a[i - 1] != b[j - 1]),
            )
    return dist[m][n]


def reference_advance(eqs, vp, vn, starts, full):
    """The kernel's loop in two's complement, with `~`: the oracle that
    `_advance`, which complements with a width mask, must equal bit for
    bit."""
    for eq in eqs:
        d0 = (((eq & vp) + vp) ^ vp) | eq | vn
        hp = vn | ~(d0 | vp)
        hn = d0 & vp
        hp = (hp << 1) | starts
        vp = ((hn << 1) | ~(d0 | hp)) & full
        vn = hp & d0
    return vp, vn


def edited(rng, seq, edits, alphabet):
    """`seq` after `edits` random insertions, deletions and substitutions."""
    seq = list(seq)
    for _ in range(edits):
        pos = rng.randrange(len(seq) + 1)
        edit = rng.randrange(3)
        if edit == 0:
            seq.insert(pos, rng.randrange(alphabet))
        elif pos < len(seq):
            if edit == 1:
                del seq[pos]
            else:
                seq[pos] = rng.randrange(alphabet)
    return seq


class TestLevenshteinKernel:
    def test_known_values(self):
        assert levenshtein_ids([], []) == 0
        assert levenshtein_ids([1, 2, 3], []) == 3
        assert levenshtein_ids([1, 2, 3], [1, 2, 3]) == 0
        assert levenshtein_ids([1, 2, 3], [1, 9, 3]) == 1
        assert levenshtein_ids([1, 2], [2, 1]) == 2

    def test_random_against_oracle(self):
        rng = random.Random(0)
        for _ in range(500):
            a = [rng.randrange(6) for _ in range(rng.randrange(12))]
            b = [rng.randrange(6) for _ in range(rng.randrange(12))]
            assert levenshtein_ids(a, b) == oracle_levenshtein(a, b)

    @pytest.mark.parametrize("alphabet", [2, 50])
    def test_word_boundaries_against_oracle(self, alphabet):
        # Lengths 0-200 cross the 30-bit digits of CPython ints and 64-bit
        # words; a 2-id alphabet gives long runs of matches.
        rng = random.Random(alphabet)
        for _ in range(60):
            a = [rng.randrange(alphabet) for _ in range(rng.randrange(201))]
            b = [rng.randrange(alphabet) for _ in range(rng.randrange(201))]
            assert levenshtein_ids(a, b) == oracle_levenshtein(a, b)
        for m in (29, 30, 31, 32, 63, 64, 65, 128):
            a = [rng.randrange(alphabet) for _ in range(m)]
            for n in (0, 1, m - 1, m, m + 1):
                b = [rng.randrange(alphabet) for _ in range(n)]
                assert levenshtein_ids(a, b) == oracle_levenshtein(a, b)

    def test_long_pair_against_oracle(self):
        rng = random.Random(600)
        a = [rng.randrange(20) for _ in range(600)]
        b = edited(rng, a, 150, 20)
        assert levenshtein_ids(a, b) == oracle_levenshtein(a, b)

    def test_empty_query(self):
        corpus = [(), (1,), (1, 2, 3), tuple(range(70))]
        assert [levenshtein_ids([], seq) for seq in corpus] == [0, 1, 3, 70]
        assert all_similarities([], PackedCorpus(corpus)) == [1.0, 0.0, 0.0, 0.0]

    def test_unseen_and_repeated_query_ids(self):
        intern = {}
        corpus = [formula_token_ids(f, intern) for f in synth_corpus(40, seed=71)]
        queries = [formula_token_ids_frozen(q, intern) for q in
                   ("=FOO(Z9,Z9)+BAR(Q1)", "=A1+A1+A1+A1", "=SUM(A1:A10)+SUM(A1:A10)",
                    "=" + "+".join(["Z99"] * 40))]
        assert any(tok_id >= len(intern) for tok_id in queries[0])
        packed = PackedCorpus(corpus)
        for q in queries:
            sims = all_similarities(q, packed)
            for seq, sim in zip(corpus, sims):
                d = oracle_levenshtein(q, seq)
                assert levenshtein_ids(q, seq) == d
                assert sim == 1.0 - d / max(len(q), len(seq))

    def test_symmetric(self):
        rng = random.Random(5)
        for _ in range(300):
            alphabet = rng.choice([2, 5, 50])
            a = [rng.randrange(alphabet) for _ in range(rng.randrange(90))]
            b = [rng.randrange(alphabet) for _ in range(rng.randrange(90))]
            assert levenshtein_ids(a, b) == levenshtein_ids(b, a)

    def test_kernel_backend_reported(self):
        assert KERNEL_BACKEND == "python"

    def test_batch_matches_singles(self):
        rng = random.Random(2)
        corpus = [[rng.randrange(4) for _ in range(rng.randrange(8))] for _ in range(30)]
        q = [rng.randrange(4) for _ in range(5)]
        sims = all_similarities(q, PackedCorpus(corpus))
        expected = [1.0 - levenshtein_ids(q, c) / max(len(q), len(c)) for c in corpus]
        assert sims == expected


def oracle_similarities(query, corpus):
    out = []
    for seq in corpus:
        denom = max(len(query), len(seq))
        out.append(1.0 if denom == 0 else 1.0 - oracle_levenshtein(query, seq) / denom)
    return out


def all_similarities(query, packed):
    """Every similarity, in corpus order: similarities_to_many with
    k = len(packed) returns every position."""
    sims = similarities_to_many(query, packed, len(packed))
    assert sorted(sims) == list(range(len(packed)))
    return [sims[i] for i in range(len(packed))]


def oracle_ranked(query, corpus, k):
    """[(position, similarity)]: the first k of a full sort of the DP
    oracle's similarities under (-similarity, position), in that order."""
    sims = oracle_similarities(query, corpus)
    first = sorted(range(len(sims)), key=lambda i: (-sims[i], i))[:max(k, 0)]
    return [(i, sims[i]) for i in first]


def ranked(query, packed, k):
    """similarities_to_many's entries, [(position, similarity)], in its
    order."""
    return list(similarities_to_many(query, packed, k).items())


def lane(length, seed):
    """`length` ids drawn from 0-5, the only ids a lane holds."""
    rng = random.Random(seed)
    return [rng.randrange(6) for _ in range(length)]


# Lane lengths: short; multiples of 8, whose guard bit opens a new byte (0
# among them, the empty lane); and 120 or more, over 15 bytes.
LANES = st.builds(lane, st.one_of(st.integers(0, 20), st.integers(0, 25).map(lambda n: 8 * n),
                                  st.integers(120, 200)), st.integers(0, 2**16))


class TestWidthMaskKernel:
    """_advance complements with `ones ^ x`, never `~x`; its final columns
    equal the two's-complement loop's bit for bit."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(LANES, max_size=12), st.lists(st.integers(0, 9), max_size=60))
    @example([[], [1] * 8, [2] * 120], [])  # the empty query
    @example([[], [1] * 8, [2] * 120], [6, 7, 8, 9, 6])  # unseen ids only
    @example([[]], [1, 2])  # one empty lane
    def test_packed_columns_equal_the_complement_loop(self, corpus, query):
        packed = PackedCorpus(corpus)
        eqs = [packed._mask(t) for t in query]
        args = (eqs, packed._full, 0, packed._starts, packed._full)
        assert packed._ones == (1 << 8 * packed._nbytes) - 1
        assert _advance(*args, packed._ones) == reference_advance(*args)

    @settings(max_examples=200, deadline=None)
    @given(LANES, st.lists(st.integers(0, 9), max_size=60))
    @example([], [1, 2])
    @example([1] * 16, [])
    @example([2] * 128, [7, 8, 9])
    def test_one_lane_columns_equal_the_complement_loop(self, b, a):
        # levenshtein_ids's lane: b at bit 0, its guard bit at len(b), and
        # a width of len(b) + 1 bits.
        calls = []

        def spy(eqs, vp, vn, starts, full, ones):
            columns = _advance(eqs, vp, vn, starts, full, ones)
            calls.append((ones, columns, reference_advance(eqs, vp, vn, starts, full)))
            return columns

        with mock.patch.object(similarity, "_advance", spy):
            assert levenshtein_ids(a, b) == oracle_levenshtein(a, b)
        [(ones, columns, expected)] = calls
        assert ones == (1 << len(b) + 1) - 1
        assert columns == expected

    @pytest.mark.parametrize("m", [0, 8, 16, 64, 120, 128])
    def test_lanes_of_whole_bytes_against_the_dp(self, m):
        rng = random.Random(m)
        b = [rng.randrange(4) for _ in range(m)]
        for a in ([], [9, 9], b, b[:m // 2], edited(rng, b, 5, 4), [1] * (m + 3)):
            assert levenshtein_ids(a, b) == oracle_levenshtein(a, b), (a, b)


class TestPackedScan:
    """One query against many lanes of one int, against the DP oracle."""

    def check(self, query, corpus):
        packed = PackedCorpus(corpus)
        assert len(packed) == len(corpus)
        assert all_similarities(query, packed) == oracle_similarities(query, corpus)

    def test_lanes_straddle_digit_boundaries(self):
        # A lane of 31 or more rows must cross a multiple of 30, where one
        # 30-bit CPython digit ends and the next begins. The corpus is
        # shuffled, so its order differs from the lane order (by length).
        rng = random.Random(30)
        for alphabet in (2, 6, 40):
            corpus = [[rng.randrange(alphabet) for _ in range(m)] for m in range(20, 71)]
            rng.shuffle(corpus)
            for _ in range(4):
                base = rng.choice(corpus)
                self.check(edited(rng, base, rng.randrange(6), alphabet), corpus)

    def test_lane_lengths_zero_one_and_long(self):
        rng = random.Random(600)
        long_lane = [rng.randrange(20) for _ in range(600)]
        corpus = [[], [3], long_lane, [], [7], edited(rng, long_lane, 150, 20),
                  [rng.randrange(20) for _ in range(119)],
                  [rng.randrange(20) for _ in range(120)], [3, 7]]
        for query in ([], [3], [7, 3], long_lane[:200], edited(rng, long_lane, 40, 20)):
            self.check(query, corpus)

    def test_lane_equal_to_the_query_carries_into_its_guard(self):
        # A query equal to a lane of all-matching rows makes (eq & vp) + vp
        # carry through the whole lane into the guard bit; the lanes after
        # it must not see that carry.
        for m in (1, 7, 8, 9, 16, 31, 64, 130):
            query = [1] * m
            corpus = [[1] * m, [1] * (m + 1), [2] * m, [1] * max(m - 1, 0), [1, 2] * m]
            self.check(query, corpus)
            assert all_similarities(query, PackedCorpus(corpus))[0] == 1.0

    def test_ids_around_the_dense_threshold(self):
        rng = random.Random(16)
        counts = {100: DENSE_MIN - 1, 101: DENSE_MIN, 102: DENSE_MIN + 1}
        places = [tok for tok, n in counts.items() for _ in range(n)]
        corpus = [[rng.randrange(5) for _ in range(rng.randrange(12))] for _ in range(30)]
        for tok in places:
            seq = rng.choice(corpus)
            seq.insert(rng.randrange(len(seq) + 1), tok)
        packed = PackedCorpus(corpus)
        assert sorted(t for t in packed._dense if t >= 100) == [101, 102]
        for _ in range(20):
            query = [rng.choice([0, 1, 100, 101, 102]) for _ in range(rng.randrange(1, 15))]
            self.check(query, corpus)

    def test_overlay_ids_absent_from_the_index(self):
        intern = {}
        corpus = [formula_token_ids(f, intern) for f in synth_corpus(60, seed=73)]
        packed = PackedCorpus(corpus)
        for text in ("=ZZZ(QQ1,QQ1)+ZZZ(QQ2)", "=NOPE()", "=A1+" + "+".join(["W7"] * 20)):
            query = formula_token_ids_frozen(text, intern)
            assert any(tok_id >= len(intern) for tok_id in query)
            assert all_similarities(query, packed) == oracle_similarities(query, corpus)

    def test_empty_corpus_and_empty_query(self):
        for k in (0, 1, 5):
            assert similarities_to_many([1, 2, 3], PackedCorpus([]), k) == {}
            assert similarities_to_many([], PackedCorpus([]), k) == {}
        self.check([], [[], [1], [1, 2], [5] * 40])

    def test_packed_once_scores_many_queries(self):
        rng = random.Random(8)
        corpus = [[rng.randrange(9) for _ in range(rng.randrange(40))] for _ in range(80)]
        packed = PackedCorpus(corpus)
        for _ in range(25):
            query = [rng.randrange(11) for _ in range(rng.randrange(30))]
            assert all_similarities(query, packed) == oracle_similarities(query, corpus)

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.lists(st.integers(0, 5), max_size=40), max_size=25),
           st.lists(st.integers(0, 7), max_size=40))
    def test_random_corpora_against_oracle(self, corpus, query):
        self.check(query, corpus)
        # The lane sums count vn unmasked: it must never reach a guard bit.
        packed = PackedCorpus(corpus)
        vp, vn = _advance([packed._mask(t) for t in query], packed._full, 0,
                          packed._starts, packed._full, packed._ones)
        assert vp & ~packed._full == 0 and vn & ~packed._full == 0

    def test_long_query_at_twice_the_corpus_costs_under_three_times(self):
        # A query of 2,000 tokens (past Excel's 8,192-character formulas)
        # against twice the packed formulas must not cost three times as
        # much. Best of several runs, as a ratio: no wall-clock budget.
        intern = {}
        corpus = [formula_token_ids(f, intern) for f in synth_corpus(4000, seed=91)]
        long_formula = _envelope_formulas(random.Random(2000))[2]
        query = formula_token_ids_frozen(long_formula, intern)[:2000]
        assert len(query) == 2000

        def seconds(packed):
            return min(timeit.repeat(lambda: similarities_to_many(query, packed, 5),
                                     number=1, repeat=5))

        time_n = seconds(PackedCorpus(corpus[:2000]))
        time_2n = seconds(PackedCorpus(corpus))
        assert time_2n < 3 * time_n, (time_n, time_2n)

    def test_dense_masks_capped_by_place_count_then_id(self):
        # More than DENSE_MAX ids reach DENSE_MIN places; place counts
        # 16-20 tie across many ids, so the cap cuts through a tie.
        rng = random.Random(128)
        ids = DENSE_MAX + 20
        counts = {tok: DENSE_MIN + tok % 5 for tok in range(ids)}
        places = [tok for tok, n in counts.items() for _ in range(n)]
        places += [rng.randrange(ids, ids + 40) for _ in range(200)]  # rare ids
        rng.shuffle(places)
        corpus = []
        while places:
            cut = rng.randrange(1, 21)
            corpus.append(places[:cut])
            del places[:cut]
        packed = PackedCorpus(corpus)
        assert len(packed._dense) == DENSE_MAX
        assert set(packed._dense) == set(
            sorted(range(ids), key=lambda tok: (-counts[tok], tok))[:DENSE_MAX])
        past_cap = sorted(set(range(ids)) - set(packed._dense))
        assert past_cap and all(counts[tok] >= DENSE_MIN for tok in past_cap)
        for _ in range(12):
            pool = rng.choice([past_cap, list(packed._dense), range(ids + 45)])
            query = [rng.choice(pool) for _ in range(rng.randrange(25))]
            assert all_similarities(query, packed) == oracle_similarities(query, corpus)

    def test_sparse_masks_equal_the_positions_mask(self):
        # DENSE_MAX + 3 ids at DENSE_MIN places each: the cap (ties by id)
        # leaves the last three sparse. With them, ids at one place and at
        # DENSE_MIN - 1 places. Only the ids past the cap build their mask
        # from a bytearray; the others OR their few bits.
        rng = random.Random(15)
        counts = {tok: DENSE_MIN for tok in range(DENSE_MAX + 3)}
        counts.update({500: 1, 501: DENSE_MIN - 1})
        places = [tok for tok, n in counts.items() for _ in range(n)]
        rng.shuffle(places)
        corpus = []
        while places:
            cut = rng.randrange(1, 30)
            corpus.append(places[:cut])
            del places[:cut]
        packed = PackedCorpus(corpus)
        past_cap = [DENSE_MAX, DENSE_MAX + 1, DENSE_MAX + 2]
        assert set(packed._dense) == set(range(DENSE_MAX))
        # Each id's bit positions, laid out as PackedCorpus lays out lanes.
        positions, byte = {}, 0
        for seq in sorted(corpus, key=len):
            for row, tok in enumerate(seq):
                positions.setdefault(tok, []).append(8 * byte + row)
            byte += len(seq) // 8 + 1
        built = []

        def from_positions(places, nbytes):
            built.append(len(places))
            return _mask_from_positions(places, nbytes)

        for tok in [500, 501] + past_cap:
            assert len(positions[tok]) == counts[tok]
            with mock.patch.object(similarity, "_mask_from_positions", from_positions):
                mask = packed._mask(tok)
            assert mask == _mask_from_positions(positions[tok], packed._nbytes), tok
        assert built == [DENSE_MIN] * len(past_cap)


class TestReadOut:
    """The ranking reads similarities from tables it reuses across queries
    and maps lanes back to corpus order through one lane-order array."""

    def test_many_query_lengths_against_oracle(self):
        _table.cache_clear()
        rng = random.Random(21)
        corpus = [[rng.randrange(6) for _ in range(rng.randrange(31))] for _ in range(30)]
        corpus += [[], [2], [5] * 30]
        packed = PackedCorpus(corpus)
        longest = max(map(len, corpus))
        # Lengths repeat, out of order, so later queries reuse the tables of
        # earlier ones; 31-45 tokens are longer than any lane.
        lengths = [0, 1, 3, 8, 9, 17, 30, 31, 45] * 4 + [rng.randrange(46) for _ in range(14)]
        rng.shuffle(lengths)
        assert max(lengths) > longest and 0 in lengths
        for lq in lengths:
            query = [rng.randrange(8) for _ in range(lq)]
            assert all_similarities(query, packed) == oracle_similarities(query, corpus)
        assert _table.cache_info().hits > 0

    @pytest.mark.parametrize("corpus", [[], [[]], [[4]], [[1, 2] * 20], [[1, 2, 3], [3]],
                                        [[3], [1, 2, 3]], [[], [7, 7]], [[1, 2], [2, 1]]])
    def test_corpora_of_zero_one_and_two_sequences(self, corpus):
        packed = PackedCorpus(corpus)
        assert len(packed) == len(corpus)
        for query in ([], [1], [3, 1], [7, 7, 7], [1, 2] * 25):
            assert all_similarities(query, packed) == oracle_similarities(query, corpus)

    def test_memo_stays_bounded_under_envelope_queries(self):
        # Queries of up to ~2,000 tokens against lanes of 0-130 tokens ask
        # for more (query length, lane length) tables than the memo keeps.
        # levenshtein_ids (checked against the oracle above, up to 600
        # tokens) gives the expected scores: the oracle is too slow here.
        _table.cache_clear()
        rng = random.Random(2048)
        intern = {}
        envelope = [formula_token_ids(f, intern) for f in _envelope_formulas(rng)]
        corpus = [list(rng.choice(envelope)[:m]) for m in range(131)]
        rng.shuffle(corpus)
        packed = PackedCorpus(corpus)
        queries = envelope + [envelope[2][:n] for n in (1500, 900, 250, 131, 119, 64, 9, 1, 0)]
        assert max(map(len, queries)) > 2000
        first = []
        for query in queries:
            sims = all_similarities(query, packed)
            assert sims == [1.0 - levenshtein_ids(seq, query) / max(len(query), len(seq), 1)
                            for seq in corpus]
            first.append(sims)
            assert _table.cache_info().currsize <= _TABLES
        assert _table.cache_info().misses > _TABLES
        for query, sims in zip(reversed(queries), reversed(first)):
            assert all_similarities(query, packed) == sims
        assert _table.cache_info().currsize <= _TABLES
        assert _fractions.cache_info().currsize <= _TABLES
        # A table's size follows the lane, not the query.
        assert len(_table(2500, 8)) == len(_table(8, 8)) == 9

    def test_tables_of_one_denominator_share_their_floats(self):
        # query length 9 against lanes of 3, 5 and 9 tokens: denominator 9
        tables = [_table(9, m) for m in (3, 5, 9)]
        for d in range(6, 10):
            # a table starts at the least distance, |9 - m|
            floats = [table[d - abs(9 - m)] for table, m in zip(tables, (3, 5, 9))]
            assert floats[0] == 1.0 - d / 9
            assert floats[0] is floats[1] is floats[2]
        assert [len(table) for table in tables] == [4, 6, 10]
        assert _table(3, 9)[0] is tables[0][0]

    def test_region_sums_are_the_lane_byte_sums(self):
        # Regions of 1-, 2-, 15-, 16- and 19-byte lanes: up to 15 bytes a
        # region is summed by one multiplication (by 1 for 1-byte lanes),
        # past that by `sum`. Each region gives one character per lane, the
        # sum of that lane's delta bytes, for real columns and for every
        # byte at its most, 16.
        corpus = [lane(m, m) for m in (0, 3, 7, 7, 8, 15, 112, 119, 120, 127, 150)]
        packed = PackedCorpus(corpus)
        assert [region[0] for region in packed._regions] == [1, 2, 15, 16, 19]
        queries = ([], lane(5, 1), corpus[5], corpus[7], corpus[-1])
        all_deltas = [packed._deltas(*packed._columns(query)) for query in queries]
        all_deltas.append(int.from_bytes(bytes([16]) * packed._nbytes, "little"))
        for deltas in all_deltas:
            delta_bytes = deltas.to_bytes(packed._nbytes, "little")
            for r, (size, first, end, _, _) in enumerate(packed._regions):
                want = "".join(chr(sum(delta_bytes[b:b + size]))
                               for b in range(first, end, size))
                assert packed._region_sums(deltas, r) == want, (size, deltas)


class TestRanking:
    """similarities_to_many(query, corpus, k) against a full sort of the DP
    oracle: its first k positions under (-similarity, position), in that
    order, with their similarities."""

    def check(self, query, corpus, ks=(1, 2, 3, 5)):
        packed = PackedCorpus(corpus)
        for k in (*ks, len(corpus), len(corpus) + 7):
            assert ranked(query, packed, k) == oracle_ranked(query, corpus, k)

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.lists(st.integers(0, 4), max_size=20), max_size=30),
           st.lists(st.integers(0, 6), max_size=20), st.integers(1, 35))
    def test_random_corpora_against_the_full_sort(self, corpus, query, k):
        assert ranked(query, PackedCorpus(corpus), k) == oracle_ranked(query, corpus, k)

    def test_ties_straddle_the_kth_entry(self):
        # Against [1, 2, 3, 4] the lanes of 2, 4 and 8 tokens at distances
        # 2, 2 and 4 all score 0.5 from three different runs; so do the
        # three lanes one substitution from [1, 2].
        corpus = [[1, 2, 3, 4], [1, 2, 9, 9], [1, 2], [3, 4], [9, 2],
                  [1, 2, 3, 4, 9, 9, 9, 9], [1, 2, 3, 9], [7, 7, 7], [1, 2, 4, 3]]
        query = [1, 2, 3, 4]
        # The 4th and 5th entries tie at 0.5 with three more: the lanes come
        # by position across the runs, not run by run.
        sims = oracle_similarities(query, corpus)
        assert sims.count(0.5) == 5
        packed = PackedCorpus(corpus)
        for k in range(1, len(corpus) + 1):
            assert ranked(query, packed, k) == oracle_ranked(query, corpus, k)
        assert ranked(query, packed, 4) == [(0, 1.0), (6, 0.75), (1, 0.5), (2, 0.5)]
        assert ranked(query, packed, 5) == [(0, 1.0), (6, 0.75), (1, 0.5), (2, 0.5), (3, 0.5)]
        self.check([1, 2], [[1, 9], [9, 2], [1, 2, 9], [9, 1, 2], [2, 1], [1], [2]])

    def test_lanes_longer_than_fifteen_bytes(self):
        rng = random.Random(120)
        long_lane = [rng.randrange(8) for _ in range(200)]
        corpus = [long_lane, edited(rng, long_lane, 30, 8), long_lane[:120], long_lane[:127],
                  long_lane[:128], [rng.randrange(8) for _ in range(300)], long_lane[:40],
                  long_lane[:7], [], [rng.randrange(8) for _ in range(119)], long_lane[:120]]
        for query in (long_lane, long_lane[:121], edited(rng, long_lane[:150], 20, 8),
                      long_lane[:10], [], [3]):
            self.check(query, corpus)

    def test_empty_query_and_unseen_tokens_only(self):
        corpus = [[], [1], [1, 2], [], [2, 2, 2], [1, 2, 3, 4]]
        self.check([], corpus)
        # The two empty lanes tie at 1.0: the first position ranks.
        assert similarities_to_many([], PackedCorpus(corpus), 1) == {0: 1.0}
        # No token matches, so every similarity is 0.0, the empty lanes'
        # too (distance 3 of 3): every lane ties, and the first ranks.
        self.check([99, 99, 98], corpus)
        assert similarities_to_many([99, 99, 98], PackedCorpus(corpus), 1) == {0: 0.0}

    def test_k_of_one_and_past_the_corpus(self):
        rng = random.Random(11)
        corpus = [[rng.randrange(5) for _ in range(rng.randrange(25))] for _ in range(40)]
        packed = PackedCorpus(corpus)
        for _ in range(10):
            query = [rng.randrange(6) for _ in range(rng.randrange(25))]
            assert ranked(query, packed, 1) == oracle_ranked(query, corpus, 1)
            assert similarities_to_many(query, packed, 100) == \
                dict(enumerate(oracle_similarities(query, corpus)))
            assert ranked(query, packed, 100) == oracle_ranked(query, corpus, 100)

    def test_dense_and_sparse_runs(self):
        # 300 lanes of 4 tokens step up one sum at a time (far more lanes
        # than possible sums); the lone lanes of other lengths skip to
        # their least sum. Queries near and far from every lane.
        rng = random.Random(4)
        corpus = [[rng.randrange(3) for _ in range(4)] for _ in range(300)]
        corpus += [[rng.randrange(3) for _ in range(m)] for m in (1, 2, 6, 9, 17, 30)]
        rng.shuffle(corpus)
        packed = PackedCorpus(corpus)
        assert max(end - begin for *_, begin, end in packed._runs) == 300
        for query in ([0, 1, 2, 0], [2] * 9, [5, 5, 5], [0, 1] * 12, [1]):
            for k in (1, 5, 40, 299, 306):
                assert ranked(query, packed, k) == oracle_ranked(query, corpus, k)

    @staticmethod
    def spy(monkeypatch):
        """The (query length, lane length) tables the ranking looks up and
        the lane size of each region it sums, as it runs."""
        seen = {"tables": [], "regions": []}
        table, region_sums = similarity._table, PackedCorpus._region_sums

        def counted_table(lq, m):
            seen["tables"].append((lq, m))
            return table(lq, m)

        def counted_region_sums(self, deltas, region):
            seen["regions"].append(self._regions[region][0])
            return region_sums(self, deltas, region)

        monkeypatch.setattr(similarity, "_table", counted_table)
        monkeypatch.setattr(PackedCorpus, "_region_sums", counted_region_sums)
        return seen

    def test_tie_at_the_kth_best_in_a_run_never_admitted(self):
        # Against 6 tokens, lanes of 4 and 9 tokens at distances 2 and 3
        # both score 1 - 1/3. On a tie the walk admits the longer run, finds
        # k = 1 there and stops: the 4-token run joins only as a tie group,
        # and its lane ranks when its position is the smaller. In the second
        # corpus a 5-token lane at distance 2 ranks first, and the 9-token
        # run ties it unadmitted.
        query = [1, 2, 3, 4, 5, 6]
        assert 1.0 - 2 / 6 == 1.0 - 3 / 9
        longer = query + [7, 8, 9]
        assert similarities_to_many(query, PackedCorpus([query[:4], longer]), 1) == \
            {0: 1.0 - 2 / 6}
        assert similarities_to_many(query, PackedCorpus([longer, query[:4]]), 1) == \
            {0: 1.0 - 3 / 9}
        far = [[7] * 20, [8]]
        self.check(query, [query[:4], longer] + far)
        self.check(query, [[1, 2, 3, 4, 9], longer] + far)
        self.check(query, [longer, [9, 2, 3, 4, 5, 6, 7, 8, 9], query[:4], [1, 2, 3, 9]] + far)

    def test_query_shorter_or_longer_than_every_lane(self):
        # The walk starts at one end of the runs, and only one frontier is left.
        corpus = [lane(m, seed) for seed, m in enumerate([5, 5, 6, 8, 9, 9, 12, 17, 17])]
        for query in ([], [1], lane(4, 40), corpus[0][:3], corpus[7] + [2, 2, 2],
                      lane(30, 41), corpus[6] * 3):
            self.check(query, corpus)

    def test_long_lane_region_summed_only_when_reached(self, monkeypatch):
        # Lanes of 130 and 150 tokens (17 and 19 bytes) make two regions of
        # their own. A query near a short lane never reaches them; a query
        # near the 130-token lane sums its region.
        rng = random.Random(130)
        corpus = [lane(m, m) for m in (3, 4, 5, 5, 6, 7, 9)] + [lane(130, 1), lane(150, 2)]
        packed = PackedCorpus(corpus)
        seen = self.spy(monkeypatch)
        for query, reached in ((corpus[2], False), (edited(rng, corpus[4], 1, 6), False),
                               (edited(rng, corpus[7], 6, 6), True)):
            seen["regions"].clear()
            for k in (1, 2):
                assert ranked(query, packed, k) == oracle_ranked(query, corpus, k)
            if reached:
                assert 17 in seen["regions"]
            else:
                assert not {17, 19} & set(seen["regions"])
            self.check(query, corpus)

    def test_exact_match_reads_few_tables_and_one_region(self, monkeypatch):
        # 40 lengths of 3 lanes each, in 6 regions. An exact match with
        # k = 1 is found in its own run: its table and its two neighbours'
        # are read, and its region is the only one summed.
        corpus = [lane(m, 100 * m + j) for m in range(1, 41) for j in range(3)]
        packed = PackedCorpus(corpus)
        assert len(packed._runs) == 40 and len(packed._regions) == 6
        seen = self.spy(monkeypatch)
        query = corpus[60]  # 21 tokens, in the region of 3-byte lanes
        assert ranked(query, packed, 1) == oracle_ranked(query, corpus, 1)
        assert len(seen["tables"]) <= 3
        assert seen["regions"] == [3]

    def test_tie_groups_search_only_the_lanes_needed(self, monkeypatch):
        # 30 lanes of each of 7 lengths. The empty query ties the 30 empty
        # lanes at 1.0; a query of unseen tokens only ties all 210 lanes at
        # 0.0 (the empty lanes at distance 3 of 3). With k = 1 each tie
        # group, one run's lanes at one sum, is searched at most once.
        finds = []

        class CountedSums(str):
            def find(self, *args):
                finds.append(args)
                return super().find(*args)

        region_sums = PackedCorpus._region_sums
        monkeypatch.setattr(PackedCorpus, "_region_sums", lambda self, deltas, region:
                            CountedSums(region_sums(self, deltas, region)))
        lengths = (0, 1, 2, 3, 5, 8, 13)
        corpus = [lane(m, 100 * m + j) for j in range(30) for m in lengths]
        packed = PackedCorpus(corpus)
        for query, groups in (([], 1), ([99, 99, 98], len(lengths))):
            finds.clear()
            assert ranked(query, packed, 1) == oracle_ranked(query, corpus, 1)
            assert 1 <= len(finds) <= groups

    def test_empty_corpus(self):
        for query in ([], [1], [1, 2, 3]):
            for k in (0, 1, 5):
                assert similarities_to_many(query, PackedCorpus([]), k) == {}


class TestTokenEditSimilarity:
    def test_identical(self):
        assert token_edit_similarity("=SUM(A1:A10)", "=SUM(A1:A10)") == 1.0

    def test_both_empty(self):
        assert token_edit_similarity("", "") == 1.0
        assert token_edit_similarity("", "  ") == 1.0  # whitespace-only

    def test_vlookup_triple_ordering(self):
        first = "VLOOKUP($A1, $A$1:$AY$132, 42, FALSE)"
        second = "VLOOKUP(P6, 'Other'!$A$3:$C$6, 3, FALSE)"
        third = "C1-VLOOKUP(A1, 'F'!$A$3:$D$16, 4, FALSE)"
        assert token_edit_similarity(first, second) > token_edit_similarity(first, third)

    def test_simple_pair_vs_oracle(self):
        # tokens: [=, A1] vs [=, B1] -> distance 1, max length 2
        assert token_edit_similarity("=A1", "=B1") == pytest.approx(0.5)
        assert oracle_levenshtein(["=", "A1"], ["=", "B1"]) == 1

    def test_symmetric(self):
        corpus = synth_corpus(30, seed=70)
        for a, b in zip(corpus, corpus[1:]):
            assert token_edit_similarity(a, b) == pytest.approx(
                token_edit_similarity(b, a))

    def test_one_iff_equal_token_sequences(self):
        assert token_edit_similarity("=SUM( A1 )", "=SUM(A1)") == 1.0  # ws ignored
        assert token_edit_similarity("=A1", "=A2") < 1.0

    def test_whitespace_excluded(self):
        assert token_edit_similarity("=A1 + B1", "=A1+B1") == 1.0

    def test_exhaustive_small_alphabet(self):
        # every sequence pair with total length <= 6 over 4 symbols
        symbols = range(4)
        seqs = []
        for length in range(4):
            seqs.extend(itertools.product(symbols, repeat=length))
        for a in seqs:
            for b in seqs:
                assert levenshtein_ids(a, b) == oracle_levenshtein(a, b)

    def test_interning(self):
        intern = {}
        ids_a = formula_token_ids("=SUM(A1)", intern)
        ids_b = formula_token_ids("=SUM(B1)", intern)
        assert ids_a[:3] == ids_b[:3]  # =, SUM, ( shared
        assert ids_a[3] != ids_b[3]

    def test_given_tokens_match_a_fresh_lex(self):
        for f in synth_corpus(40, seed=72) + ["=SUM( A1 ,B2)", "=A1 +", ""]:
            a, b = {}, {}
            assert formula_token_ids(f, a, lex(f)) == formula_token_ids(f, b) and a == b

    def test_frozen_interning_does_not_mutate(self):
        intern = {}
        formula_token_ids("=SUM(A1)", intern)
        before = dict(intern)
        ids = formula_token_ids_frozen("=MAX(Z9)+A1", intern)
        assert intern == before
        # every unknown token gets the one id len(intern)
        ids2 = formula_token_ids_frozen("=MAX(Z9)+MAX(Z9)", intern)
        assert ids2[1] == ids2[3] == ids2[6] == ids2[8] == len(intern)

    def test_frozen_ids_equal_interning_into_a_copy(self):
        # Unseen texts share one id, so the ids differ from interning into a
        # copy, but the similarities to the interned sequences do not.
        intern = {}
        corpus = [formula_token_ids(f, intern) for f in synth_corpus(50, seed=74)]
        packed = PackedCorpus(corpus)
        for f in synth_corpus(30, seed=75) + ["=NEW(X1,X1)+NEWER(X2)", "", "=A1 +  A1"]:
            copy = dict(intern)
            interned = formula_token_ids(f, copy)
            frozen = formula_token_ids_frozen(f, intern)
            assert all_similarities(frozen, packed) == all_similarities(interned, packed)
            assert [levenshtein_ids(frozen, seq) for seq in corpus] == \
                [levenshtein_ids(interned, seq) for seq in corpus]


def test_kernel_benchmark_script_runs(run_python):
    proc = run_python(str(REPO / "benchmarks" / "bench_kernels.py"),
                      "--pairs", "50", "--corpus", "20")
    assert proc.returncode == 0, proc.stderr
    assert "packed scan (20 queries x 20 corpus)" in proc.stdout
    assert "synth scan (20 queries x " in proc.stdout
