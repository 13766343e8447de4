"""Token-level edit similarity: one pure-Python Levenshtein kernel.

Formulas are compared as sequences of non-whitespace lexer tokens, interned
to integer ids. The kernel is the bit-parallel Levenshtein algorithm of
Myers (1999, "A fast bit-vector algorithm for approximate string matching
based on dynamic programming", JACM 46(3)) in Hyyrö's (2001) formulation
for the distance between two whole sequences, run on many sequences at once
as in Hyyrö, Fredriksson & Navarro (2005, "Increased bit-parallelism for
approximate and multiple string matching", JEA 10).

Lanes. `PackedCorpus` lays its sequences out as lanes of one Python int.
Lanes are ordered by length (stably) and each starts on a byte boundary:
row i of lane j sits at bit start_j + i, and at least one zero guard bit
follows each lane, up to the next byte. The DP column of every lane is held
in two ints of vertical +1/-1 deltas, vp and vn. The query is the text:
each query token advances every lane's column with a fixed count of big-int
operations (`_advance`). The guard bits keep lanes apart. A carry of
(eq & vp) + vp out of a lane's top row ends in its guard bit, because vp is
zero there. The hp/hn shifts move a lane's top row into its guard bit, and
the next lane's row 0 takes the +1 of the first DP row (D[0][j] = j) from
the `starts` mask, whatever the shift brought in. vp is masked to the lanes
(`full`) after every step; vn = hp & d0 needs no mask, because a carry
reaches a guard bit only when the lane's top row has vp set, and then hp is
clear there.

Width mask. The recurrence complements twice per token. `~x` on a Python
int is the negative int -(x + 1), and each `|` with a negative operand
converts it to two's complement and back, a full-width pass and an
allocation each. So `_advance` complements as `ones ^ x`, where
ones = 2**W - 1 and W bits hold every lane and its guard bits: W is
8 * nbytes for a packed corpus, len(b) + 1 for `levenshtein_ids`'s one
lane. Every value stays non-negative, and the final (vp, vn) are exactly
those of the `~` loop:
- On bits below W, `ones ^ x` equals `~x`.
- Nothing in the loop moves a bit downward: shifts go left and carries go
  up. So bits at or above W never reach bits below W.
- vp is masked to `full`, and d0 < 2**W: vp lies within `full`, and a
  carry stops in a guard bit inside the last byte. So vn = hp & d0 < 2**W
  too, and nothing at or above W survives a step.

Lane sums. After the last query token, the last cell of lane j is
D[m_j][lq] = lq + popcount(vp_j) - popcount(vn_j). Per byte,
8 + popcount(vp) - popcount(vn) is popcount(vp) + popcount(ones ^ vn), and
three SWAR popcount steps on the packed ints give it for every byte at
once (`_deltas`): the 2-bit and nibble counts of vp and ones ^ vn, then
their sum's byte counts, 0..16, so nothing carries. A lane of L bytes sums
its deltas to 8 * L + d - lq for distance d. Lanes of one size form a
region of contiguous bytes, and a region is summed the first time the
ranking reads one of its lanes (`_region_sums`), from its bytes sliced out
of the delta int: lanes of L <= 15 bytes are summed by one multiplication
with 1 + 256 + ... + 256**(L-1), which is 1 for 1-byte lanes (the lane's
sum lands in its top byte, at most 16 * L <= 240, so nothing carries);
longer lanes by `sum`. A region's sums are one str, a character per lane,
so that `str.count` and `str.find` search a run of lanes for one sum
whatever the lanes' size.

Ranking. No float is built per lane. Lanes are ordered by length, so the
lanes of one length m form a run, and within a run the similarity
1.0 - d / max(lq, m) falls as the sum rises. A run's best similarity,
1 - |lq - m| / max(lq, m), rises with m up to lq and falls after it, in
floating point too (correct rounding is monotone). So the runs are
admitted outward from the query length, starting from `bisect_left` on
the run lengths: the better of the two frontier runs joins while its best
beats the best left on a heap over the admitted runs. The heap walks each
admitted run's sums upward from its lowest possible sum (distance
|lq - m|), the best similarity first, and counts the lanes at each sum
until k are found; that sum's similarity is the k-th best. A sparse run
(at most _SPARSE_RUN lanes per possible sum) starts at its least sum, one
pass over its lanes, which keeps queries far from every lane from stepping
through many empty sums. Only admitted runs sum their region and step the
heap, so a query pays for the runs and regions the walk reaches. A run of
lanes up to 15 bytes reads its similarities from a table of
1.0 - d / max(lq, m) from d = |lq - m| up, which holds min(lq, m) + 1
similarities; the last _TABLES tables (by (lq, m)) are kept across
queries, and tables of one denominator slice one shared tuple of its
floats. A run of longer lanes computes the same float expression inline
(`_Inline`), and only for the entries the walk reads. Either way it is the
expression of scoring one pair, so every similarity is bit-identical to it.

The result is exactly the first k lanes under (-similarity, corpus
position). Lanes are sorted stably by length, so a run's lanes are in
corpus order, and a caller that wants another tie-break packs its
sequences in that order (the repair baseline packs by frequency, then
text). Every lane above the k-th best ranks, and there are fewer than k of
them. The rest come from the tie groups at the k-th best, each one run's
lanes at one sum: the walk's hits at it, the heap's other entries at it,
and the frontier runs whose best equals it, which the walk never admitted.
Each group yields, by `str.find` in lane order, at most the lanes still
needed, and the groups are merged by position, so a query never pays for
every tied lane. Lanes map to corpus positions through one lane-order
array.

Match masks. The mask of a token id has the bits of every lane row holding
that id. The DENSE_MAX ids found at the most places (ties by id), of those
found at DENSE_MIN or more, keep a dense int; every other id's bit
positions sit in one flat array ordered by id and make a mask when a query
uses the id. An id at fewer than DENSE_MIN places ORs its bits into an int
one by one, a shift per place; an id past the cap has DENSE_MIN places or
more and fills a zeroed bytearray, which costs the corpus width once. The
split is measured (random places, 2-vCPU Xeon, Python 3.11): at 16 places
the bits cost 4.3 against 6.1 us on 4,483 bytes of lanes and 19 against
28 us on 28,860, and the two meet between 16 and 24 places at both widths.
Dense masks for every id would cost one int the size of the corpus per
distinct id (15 MB at 3,000 formulas), and the cap keeps their total at
DENSE_MAX corpus-sized ints however many ids pass DENSE_MIN.

`similarities_to_many` ranks a packed corpus against one query; it is the
hot path of the repair baseline's scan. `levenshtein_ids` runs the same
kernel on one lane, and `similarity_ids` scores one pair with it (the
retrieval targets). The package has no compiled extension; KERNEL_BACKEND
names the kernel for `formulakit --version` and benchmark results.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from collections import Counter
from functools import lru_cache
from heapq import heappop, heappush, heapreplace
from itertools import chain
from typing import Optional, Sequence

from . import lexer

KERNEL_BACKEND = "python"

# Of the ids found at DENSE_MIN places or more, the DENSE_MAX found at the
# most places (ties by id) keep a dense mask.
DENSE_MIN = 16
DENSE_MAX = 128
_TABLES = 1024  # (query length, lane length) similarity tables kept for reuse
_SUMMED_BY_PRODUCT = 15  # longest lane, in bytes, summed by one multiplication
# A run of equal lengths that holds at most _SPARSE_RUN lanes per possible sum
# starts its walk at its least sum, one pass over its lanes; a denser run
# steps up one sum at a time from its lowest possible sum.
_SPARSE_RUN = 4
_NO_RUN = (-1.0,)  # the best similarity past either end of the runs: below every other


def _advance(eqs: Sequence[int], vp: int, vn: int, starts: int, full: int,
             ones: int) -> tuple[int, int]:
    """Advance every lane's DP column by the query tokens whose match masks
    are `eqs`; returns the final (vp, vn). `ones` is 2**W - 1 for a width W
    that holds every lane and its guard bits: complementing as `ones ^ x`
    keeps every value a non-negative int of about W bits, and the result is
    exact (see the module docstring).

    Per token: d0 marks the diagonal zero deltas, hp/hn the horizontal
    +1/-1 deltas; shifting hp/hn in by one row (with a +1 at each lane's
    row 0) gives the next column's vertical deltas.
    """
    for eq in eqs:
        d0 = (((eq & vp) + vp) ^ vp) | eq | vn
        hp = vn | (ones ^ (d0 | vp))
        hn = d0 & vp
        hp = (hp << 1) | starts
        vp = ((hn << 1) | (ones ^ (d0 | hp))) & full
        vn = hp & d0
    return vp, vn


def _mask_from_positions(positions: Sequence[int], nbytes: int) -> int:
    buf = bytearray(nbytes)
    for pos in positions:
        buf[pos >> 3] |= 1 << (pos & 7)
    return int.from_bytes(buf, "little")


class PackedCorpus:
    """Token-id sequences packed as byte-aligned lanes of one int, with
    their match masks; `similarities_to_many` ranks them against a query.
    `len` is the number of sequences. Ids must fit in a signed 64-bit int
    (interned ids count up from 0)."""

    def __init__(self, seqs: Sequence[Sequence[int]]) -> None:
        order = sorted(range(len(seqs)), key=lambda i: len(seqs[i]))
        self._len = len(seqs)
        full, starts = bytearray(), bytearray()
        runs: list[list[int]] = []  # [length, lanes] per run of equal lengths
        for i in order:
            m = len(seqs[i])
            whole, rest = divmod(m, 8)  # the lane's last byte has its guard bit
            full += b"\xff" * whole
            full.append((1 << rest) - 1)
            starts.append(m > 0)
            starts += bytes(whole)
            if runs and runs[-1][0] == m:
                runs[-1][1] += 1
            else:
                runs.append([m, 1])
        self._nbytes = nbytes = len(full)
        self._full = int.from_bytes(full, "little")
        self._starts = int.from_bytes(starts, "little")
        self._ones = (1 << 8 * nbytes) - 1
        # The SWAR popcount steps' masks, bytes of 0x55, 0x33 and 0x0f.
        self._fives, self._threes, self._fifteens = (
            int.from_bytes(bytes([byte]) * nbytes, "little") for byte in (0x55, 0x33, 0x0F))
        self._order = order  # lane -> corpus position
        # Regions, runs of equal lane size: [lane size, first byte, end byte,
        # first lane, mask]. Runs of equal length: (length, lane size, region,
        # first lane, end lane), lanes counted from the region's first.
        self._regions: list[list[int]] = []
        self._runs: list[tuple[int, int, int, int, int]] = []
        lane = 0
        for m, lanes in runs:
            size = m // 8 + 1
            if not self._regions or self._regions[-1][0] != size:
                end = self._regions[-1][2] if self._regions else 0
                self._regions.append([size, end, end, lane])
            region = self._regions[-1]
            region[2] += size * lanes
            begin = lane - region[3]
            self._runs.append((m, size, len(self._regions) - 1, begin, begin + lanes))
            lane += lanes
        for region in self._regions:  # and the mask of its bytes
            region.append((1 << 8 * (region[2] - region[1])) - 1)
        self._lengths = [m for m, *_ in self._runs]
        # Every row's bit position, grouped by id: a counting sort in which
        # slot[id] runs from the id's first place to one past its last.
        slot = Counter(chain.from_iterable(seqs))
        ids = sorted(slot)
        dense = set(sorted((tok_id for tok_id in ids if slot[tok_id] >= DENSE_MIN),
                           key=lambda tok_id: -slot[tok_id])[:DENSE_MAX])
        total = 0
        for tok_id in ids:
            slot[tok_id], total = total, total + slot[tok_id]
        places = array("q", bytes(8 * total))
        byte = 0
        for i in order:
            for row, tok_id in enumerate(seqs[i], byte * 8):
                places[slot[tok_id]] = row
                slot[tok_id] += 1
            byte += len(seqs[i]) // 8 + 1
        self._dense: dict[int, int] = {}
        self._sparse_ids = array("q")  # ascending; id k's positions are
        self._sparse_ends = array("q")  # _sparse[_sparse_ends[k - 1]:_sparse_ends[k]]
        self._sparse = array("q")
        end = 0
        for tok_id in ids:
            begin, end = end, slot[tok_id]
            if tok_id in dense:
                self._dense[tok_id] = _mask_from_positions(places[begin:end], nbytes)
            else:
                self._sparse_ids.append(tok_id)
                self._sparse.extend(places[begin:end])
                self._sparse_ends.append(len(self._sparse))

    def __len__(self) -> int:
        return self._len

    def _mask(self, tok_id: int) -> int:
        mask = self._dense.get(tok_id)
        if mask is not None:
            return mask
        k = bisect_left(self._sparse_ids, tok_id)
        if k == len(self._sparse_ids) or self._sparse_ids[k] != tok_id:
            return 0
        begin = self._sparse_ends[k - 1] if k else 0
        positions = self._sparse[begin:self._sparse_ends[k]]
        if len(positions) >= DENSE_MIN:  # an id past the DENSE_MAX cap
            return _mask_from_positions(positions, self._nbytes)
        mask = 0
        for pos in positions:
            mask |= 1 << pos
        return mask

    def _columns(self, query: Sequence[int]) -> tuple[int, int]:
        """Every lane's last DP column after `query`, as (vp, vn)."""
        masks = {tok_id: self._mask(tok_id) for tok_id in set(query)}
        return _advance([masks[t] for t in query], self._full, 0, self._starts, self._full,
                        self._ones)

    def _deltas(self, vp: int, vn: int) -> int:
        """Per byte, 8 + popcount(vp) - popcount(vn), for the last columns
        vp and vn: that is popcount(vp) + popcount(ones ^ vn), by three SWAR
        popcount steps on the two, the last on their sum."""
        fives, threes, fifteens = self._fives, self._threes, self._fifteens
        vn ^= self._ones
        vp -= (vp >> 1) & fives  # 2-bit fields, 0..2
        vn -= (vn >> 1) & fives
        both = ((vp & threes) + ((vp >> 2) & threes)  # nibbles, 0..8
                + (vn & threes) + ((vn >> 2) & threes))
        return (both & fifteens) + ((both >> 4) & fifteens)

    def _region_sums(self, deltas: int, region: int) -> str:
        """The sum of the `deltas` bytes over each lane of one region, as
        one character per lane in lane order."""
        size, first, end, _, mask = self._regions[region]
        part = (deltas >> 8 * first) & mask
        if size <= _SUMMED_BY_PRODUCT:
            product = part * _byte_ones(size)
            return product.to_bytes(end - first + size, "little")[
                size - 1:end - first:size].decode("latin-1")
        # few lanes, each costing its size anyway
        part_bytes = part.to_bytes(end - first, "little")
        return "".join([chr(sum(part_bytes[b:b + size])) for b in range(0, end - first, size)])

    def _rank(self, lq: int, vp: int, vn: int, k: int) -> dict[int, float]:
        """{corpus position: similarity} of the first min(k, len(self))
        lanes under (-similarity, corpus position), in that order, for a
        query of lq tokens whose last columns are vp and vn."""
        top = need = min(k, self._len)
        if need < 1:
            return {}
        deltas = self._deltas(vp, vn)
        runs, regions = self._runs, self._regions
        sums: list[Optional[str]] = [None] * len(regions)  # per region, on first use

        def similarities(r: int) -> Sequence[float]:
            """Run r's similarities from the lowest sum a lane of its length
            m can have (distance |lq - m|) upward; _NO_RUN past either end."""
            if not 0 <= r < len(runs):
                return _NO_RUN
            m, size = runs[r][:2]
            if size <= _SUMMED_BY_PRODUCT:
                return _table(lq, m)
            return _Inline(abs(lq - m), max(lq, m))  # few lanes, and long tables

        def admit(side: int) -> int:
            """Admit the frontier run on `side` (0 left, 1 right), summing
            its region if unread, and move that frontier outward; the run's
            index among the admitted runs."""
            r, sims = edge[side], edge_sims[side]
            m, size, region, begin, end = runs[r]
            if sums[region] is None:
                sums[region] = self._region_sums(deltas, region)
            admitted.append((sims, 8 * size - lq + abs(lq - m), sums[region], begin, end,
                             regions[region][3]))
            edge[side] = r + (1 if side else -1)
            edge_sims[side] = similarities(edge[side])
            return len(admitted) - 1

        # A run's best similarity rises with its length up to lq and falls
        # after it, so runs are admitted outward from lq: the better of the
        # two frontier runs, while its best beats the heap's best. The heap
        # walks the admitted runs' sums upward, the best similarity first,
        # counting lanes until k are found: that similarity is the k-th best.
        right = bisect_left(self._lengths, lq)
        edge = [right - 1, right]  # the frontier runs, left and right
        edge_sims = [similarities(r) for r in edge]
        bar = -max(edge_sims[0][0], edge_sims[1][0])  # negated, as in the heap
        admitted: list[tuple] = []
        heap: list[tuple[float, int, int]] = []
        hits = []  # (similarity, admitted run, table entry, lanes) counted by the walk
        while True:
            if not heap or bar < heap[0][0]:
                a = admit(0 if edge_sims[0][0] > edge_sims[1][0] else 1)
                bar = -max(edge_sims[0][0], edge_sims[1][0])
                sims, low, lane_sums, begin, end, _ = admitted[a]
                i = 0
                if end - begin <= _SPARSE_RUN * len(sims):
                    i = ord(min(lane_sums[begin:end])) - low
                heappush(heap, (-sims[i], a, i))
                continue
            negated, a, i = heap[0]
            sims, low, lane_sums, begin, end, _ = admitted[a]
            count = lane_sums.count(chr(low + i), begin, end)
            if count:
                hits.append((-negated, a, i, count))
                need -= count
                if need <= 0:
                    break
            if i + 1 < len(sims):
                heapreplace(heap, (-sims[i + 1], a, i + 1))
            else:
                heappop(heap)
        order = self._order

        def positions(a: int, i: int, most: int) -> list[int]:
            """The corpus positions of the first `most` lanes at entry i of
            admitted run a; a run's lanes are in corpus order."""
            sims, low, lane_sums, begin, end, base = admitted[a]
            lane_sum, lane, found = chr(low + i), begin - 1, []
            for _ in range(most):
                lane = lane_sums.find(lane_sum, lane + 1, end)
                if lane < 0:
                    break
                found.append(order[base + lane])
            return found

        # Every lane above the k-th best ranks, fewer than k of them. The
        # rest come from the tie groups at the k-th best, each one run's
        # lanes at one sum: the walk's hits at it, the heap's other entries
        # at it, and the frontier runs whose best equals it, never admitted
        # (their tables fall, so only their first entry can tie). Each group
        # yields at most the lanes still needed, and the groups are merged
        # by position.
        kth = -negated
        ranked = sorted((-sim, position) for sim, a, i, count in hits if sim > kth
                        for position in positions(a, i, count))
        ties = [(a, i) for sim, a, i, _ in hits if sim == kth]
        ties += [(a, i) for neg, a, i in heap[1:] if neg == negated]
        for side in (0, 1):
            while edge_sims[side][0] >= kth:
                ties.append((admit(side), 0))
        still = top - len(ranked)
        found = {position: -neg for neg, position in ranked}
        for position in sorted(chain.from_iterable(
                positions(a, i, still) for a, i in ties))[:still]:
            found[position] = kth
        return found


class _Inline:
    """1.0 - d / denom for each distance d from `least` to denom, computed
    when read: the similarities of a run of lanes over _SUMMED_BY_PRODUCT
    bytes, which keeps no table. The ranking reads only the entries near
    the top of a run, so a run that cannot rank builds one float."""

    __slots__ = ("_least", "_denom")

    def __init__(self, least: int, denom: int) -> None:
        self._least, self._denom = least, denom

    def __len__(self) -> int:
        return self._denom - self._least + 1

    def __getitem__(self, i: int) -> float:
        return 1.0 - (self._least + i) / self._denom


def _byte_ones(size: int) -> int:
    """1 + 256 + ... + 256**(size - 1): multiplying by it sums each byte
    with the size - 1 bytes below it."""
    return int.from_bytes(b"\x01" * size, "little")


@lru_cache(maxsize=_TABLES)
def _table(lq: int, m: int) -> tuple[float, ...]:
    """Similarity by lane sum for a query of lq tokens against a length-m
    lane of m // 8 + 1 bytes, from the lowest sum the lane can have: the
    sum is 8 * (m // 8 + 1) + d - lq for distance d, and only
    |lq - m| <= d <= max(lq, m) can occur, so entry i is the similarity of
    distance |lq - m| + i, and the table holds min(lq, m) + 1 similarities
    whatever lq is. They are a slice of the denominator's `_fractions`, so
    tables of one denominator share their floats."""
    denom = max(lq, m)
    if denom == 0:
        return (1.0,)
    return _fractions(denom)[abs(lq - m):]


@lru_cache(maxsize=_TABLES)
def _fractions(denom: int) -> tuple[float, ...]:
    """1.0 - d / denom for every distance d from 0 to denom."""
    return tuple(1.0 - d / denom for d in range(denom + 1))


def levenshtein_ids(a: Sequence[int], b: Sequence[int]) -> int:
    """Edit distance between two sequences of integer token ids: `b` is one
    lane at bit 0, `a` the text."""
    masks: dict[int, int] = {}
    for row, tok_id in enumerate(b):
        masks[tok_id] = masks.get(tok_id, 0) | (1 << row)
    full = (1 << len(b)) - 1
    vp, vn = _advance([masks.get(t, 0) for t in a], full, 0, 1 if b else 0, full,
                      (1 << len(b) + 1) - 1)
    return len(a) + vp.bit_count() - vn.bit_count()


def similarity_ids(a: Sequence[int], b: Sequence[int]) -> float:
    """1 - levenshtein_ids(a, b) / max(len(a), len(b)); two empty sequences
    count as identical (1.0)."""
    denom = max(len(a), len(b))
    if denom == 0:
        return 1.0
    return 1.0 - levenshtein_ids(a, b) / denom


def similarities_to_many(query: Sequence[int], corpus: PackedCorpus,
                         k: int) -> dict[int, float]:
    """{corpus position: similarity} of the first min(k, len(corpus))
    corpus sequences by similarity to `query` (1 - normalized edit
    distance; two empty sequences count as identical, 1.0), ties by
    position, in that order; with k >= len(corpus) it holds every
    position."""
    return corpus._rank(len(query), *corpus._columns(query), k)


def formula_token_ids(formula: str, intern: dict[str, int],
                      tokens: Optional[list[lexer.Token]] = None) -> tuple[int, ...]:
    """Non-whitespace lexer token texts interned to ids via a shared dict.

    `tokens`, when given, must be `lex(formula)`.
    """
    if tokens is None:
        tokens = lexer.lex(formula)
    whitespace = lexer.TokenKind.WHITESPACE
    get = intern.get
    ids = []
    for tok in tokens:
        if tok.kind is whitespace:
            continue
        text = tok.text
        tok_id = get(text)
        if tok_id is None:
            tok_id = intern[text] = len(intern)
        ids.append(tok_id)
    return tuple(ids)


def formula_token_ids_frozen(formula: str, intern: dict[str, int]) -> tuple[int, ...]:
    """Like formula_token_ids but read-only: every text missing from
    `intern` gets the one id len(intern), and `intern` is left as it was
    (keeps queries pure). Against sequences interned through `intern` the
    edit distance is the same as with distinct ids for the unseen texts: no
    sequence holds len(intern), so those tokens match nothing either way,
    and a query token is never compared with another query token."""
    whitespace = lexer.TokenKind.WHITESPACE
    get, unseen = intern.get, len(intern)
    return tuple(get(tok.text, unseen) for tok in lexer.lex(formula)
                 if tok.kind is not whitespace)


def token_edit_similarity(a: str, b: str) -> float:
    """Levenshtein similarity over non-whitespace lexer tokens, in [0, 1].

    1 - distance / max(len_a, len_b); two empty token sequences give 1.0.
    Symmetric, and 1.0 exactly when the token sequences are equal.
    """
    intern: dict[str, int] = {}
    return similarity_ids(formula_token_ids(a, intern), formula_token_ids(b, intern))
