#!/usr/bin/env python3
"""Benchmark the token-Levenshtein kernel in formulakit.similarity.

Four workloads:
  pairs        random id sequences, one levenshtein_ids call per pair (how
               build_retrieval_pairs scores the retrieval targets)
  pack         packing the scan corpus into one PackedCorpus
  packed scan  queries against that packed corpus, one similarities_to_many
               call each with k = K (the baseline repair scan), then the
               same scan in its two parts: _advance (the match masks and
               every lane's last DP column) and the ranking (lane sums to
               the first k corpus positions under (-similarity, position))
  synth scan   the same scan and split over the token ids of --corpus
               synthetic formulas, queried with corrupted ones (one noise
               operator each, as the repair benchmarks are made)

The packed scan's sequences are random, mostly 5-39 tokens, with one in
LONG_EVERY of 64-159 tokens, so lanes and queries of 64 tokens or more are
timed and checked too. No query is near any lane there, and the k-th best
similarity is low: the ranking's hard case. The synth scan is the typical
case, in which each query has a near neighbour.

Each time is the best of REPEAT runs (timing.best_of). Before timing, a
sample of the pairs and of both scans (for the packed scan, queries of
both kinds against corpus sequences of both kinds) is checked against a
textbook dynamic programme: each scan query on every similarity, and on
its first K positions, which must be the DP's full sort under
(-similarity, position) cut at K. The script exits 1 on any disagreement, or if the
sample holds no sequence of LONG_MIN tokens.

Usage: python benchmarks/bench_kernels.py [--pairs 20000] [--corpus 2000]
"""

import argparse
import random
import sys

from formulakit.noise import applicable_operators, apply_noise_operator
from formulakit.similarity import (PackedCorpus, formula_token_ids, formula_token_ids_frozen,
                                   levenshtein_ids, similarities_to_many)
from formulakit.synth import synth_corpus
from timing import best_of

REPEAT = 5
SAMPLE = 200  # pairs, and corpus sequences per checked scan query
QUERIES = 20
K = 5  # similarities ranked per scan query, as the baseline repair's -k 5
LONG_EVERY = 10
LONG_MIN = 64


def dp_levenshtein(a, b):
    """The two-row dynamic programme, the reference for the kernel."""
    prev = list(range(len(b) + 1))
    for i, x in enumerate(a, 1):
        cur = [i]
        for j, y in enumerate(b, 1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (x != y)))
        prev = cur
    return prev[-1]


def sequence(rng, i):
    """Random ids; every LONG_EVERY-th sequence is LONG_MIN tokens or more."""
    length = rng.randrange(LONG_MIN, 160) if i % LONG_EVERY == 0 else rng.randrange(5, 40)
    return [rng.randrange(40) for _ in range(length)]


def synth_index(n, rng):
    """Token ids of the distinct formulas among n synthetic ones, and
    QUERIES of them corrupted by one applicable noise operator each,
    interned read-only as the baseline repair does."""
    formulas = sorted(set(synth_corpus(n, seed=1)))
    intern = {}
    seqs = [formula_token_ids(f, intern) for f in formulas]
    queries = []
    for _ in range(QUERIES):
        formula = rng.choice(formulas)
        buggy = apply_noise_operator(formula, rng.choice(applicable_operators(formula)), rng)
        queries.append(formula_token_ids_frozen(buggy, intern))
    return seqs, queries


def disagreements(pairs, scans):
    """Sampled pairs, scan scores and scan rankings on which the kernel and
    the DP differ; `scans` holds (queries, corpus) per scan."""
    bad = [(a, b) for a, b in pairs[:SAMPLE] if levenshtein_ids(a, b) != dp_levenshtein(a, b)]
    for queries, corpus in scans:
        sample = corpus[:SAMPLE]
        packed = PackedCorpus(sample)
        for q in queries[:2]:  # for the packed scan, one long query and one short
            dp = [1.0 - dp_levenshtein(q, seq) / max(len(q), len(seq)) for seq in sample]
            sims = similarities_to_many(q, packed, len(sample))  # every position
            bad += [(q, seq) for i, seq in enumerate(sample) if sims[i] != dp[i]]
            first = sorted(range(len(sample)), key=lambda i: (-dp[i], i))[:K]
            if list(similarities_to_many(q, packed, K).items()) != [(i, dp[i]) for i in first]:
                bad.append((q, f"the DP's first {K}"))
    return bad


def workload_pairs(pairs):
    for a, b in pairs:
        levenshtein_ids(a, b)


def workload_scan(queries, packed):
    for q in queries:
        similarities_to_many(q, packed, K)


def workload_advance(queries, packed):
    """The first part of the scan; returns its columns for the ranking."""
    return [(len(q), *packed._columns(q)) for q in queries]


def workload_rank(columns, packed):
    for lq, vp, vn in columns:
        packed._rank(lq, vp, vn, K)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--pairs", type=int, default=20_000)
    parser.add_argument("--corpus", type=int, default=2_000)
    args = parser.parse_args()

    rng = random.Random(0)
    pairs = [(sequence(rng, i), sequence(rng, i + 1)) for i in range(args.pairs)]
    corpus = [sequence(rng, i) for i in range(args.corpus)]
    queries = [sequence(rng, i) for i in range(QUERIES)]
    synth_seqs, synth_queries = synth_index(args.corpus, rng)

    checked = [[seq for pair in pairs[:SAMPLE] for seq in pair], queries[:2], corpus[:SAMPLE]]
    if any(max(map(len, seqs), default=0) < LONG_MIN for seqs in checked):
        print(f"the checked sample holds no sequence of {LONG_MIN} tokens", file=sys.stderr)
        return 1
    bad = disagreements(pairs, [(queries, corpus), (synth_queries, synth_seqs)])
    if bad:
        a, b = bad[0]
        print(f"kernel disagrees with the DP on {len(bad)} sampled pair(s), "
              f"first: {a} vs {b}", file=sys.stderr)
        return 1

    packed, synth_packed = PackedCorpus(corpus), PackedCorpus(synth_seqs)
    workloads = [
        (f"pairs ({args.pairs} random pairs)", workload_pairs, (pairs,)),
        (f"pack ({args.corpus} corpus)", PackedCorpus, (corpus,)),
        (f"packed scan ({QUERIES} queries x {args.corpus} corpus)",
         workload_scan, (queries, packed)),
        ("  _advance", workload_advance, (queries, packed)),
        (f"  rank (k={K})", workload_rank, (workload_advance(queries, packed), packed)),
        (f"synth scan ({QUERIES} queries x {len(synth_seqs)} synth)",
         workload_scan, (synth_queries, synth_packed)),
        ("  _advance", workload_advance, (synth_queries, synth_packed)),
        (f"  rank (k={K})", workload_rank,
         (workload_advance(synth_queries, synth_packed), synth_packed)),
    ]
    print(f"best of {REPEAT} runs per workload")
    print(f"{'workload':<44} {'time':>12}")
    for label, fn, data in workloads:
        seconds, _ = best_of(lambda: fn(*data), REPEAT)
        print(f"{label:<44} {seconds * 1000:>10.1f}ms")
    return 0


if __name__ == "__main__":
    sys.exit(main())
