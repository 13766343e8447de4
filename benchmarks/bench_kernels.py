#!/usr/bin/env python3
"""Benchmark the token-Levenshtein kernel in formulakit.similarity.

Three workloads:
  pairs      random id sequences, one kernel call per pair
  scan       one query against a corpus (the baseline repair full scan)
  pairwise   all-pairs similarity over constant-masked formulas, interned
             once, one similarities_to_many call per formula against the
             formulas after it: the kernel part of build_retrieval_pairs
             (the retrieval fine-tuning targets, the quadratic step)

Each time is the median of REPEAT runs. Before timing, a sample of the
pairs and of the scan is checked against a textbook dynamic programme; the
script exits 1 on any disagreement.

Usage: python benchmarks/bench_kernels.py [--pairs 20000] [--corpus 2000]
       [--formulas 400]
"""

import argparse
import random
import statistics
import sys
import time

from formulakit.evaluation import mask_constants
from formulakit.similarity import (formula_token_ids, levenshtein_ids,
                                   similarities_to_many)
from formulakit.synth import synth_corpus

REPEAT = 5
SAMPLE = 200  # pairs, and corpus sequences per scan query, checked


def dp_levenshtein(a, b):
    """The two-row dynamic programme, the reference for the kernel."""
    prev = list(range(len(b) + 1))
    for i, x in enumerate(a, 1):
        cur = [i]
        for j, y in enumerate(b, 1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (x != y)))
        prev = cur
    return prev[-1]


def disagreements(pairs, queries, corpus):
    """Sampled pairs and scan scores on which the kernel and the DP differ."""
    bad = [(a, b) for a, b in pairs[:SAMPLE] if levenshtein_ids(a, b) != dp_levenshtein(a, b)]
    for q in queries[:2]:
        sample = corpus[:SAMPLE]
        for seq, sim in zip(sample, similarities_to_many(q, sample)):
            if sim != 1.0 - dp_levenshtein(q, seq) / max(len(q), len(seq)):
                bad.append((q, seq))
    return bad


def bench(fn, *args):
    """Median wall time of REPEAT runs of fn(*args)."""
    times = []
    for _ in range(REPEAT):
        start = time.perf_counter()
        fn(*args)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def workload_pairs(pairs):
    for a, b in pairs:
        levenshtein_ids(a, b)


def workload_scan(queries, corpus):
    for q in queries:
        similarities_to_many(q, corpus)


def workload_pairwise(seqs):
    for i, q in enumerate(seqs):
        similarities_to_many(q, seqs[i + 1:])


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--pairs", type=int, default=20_000)
    parser.add_argument("--corpus", type=int, default=2_000)
    parser.add_argument("--formulas", type=int, default=400)
    args = parser.parse_args()

    rng = random.Random(0)
    pairs = [([rng.randrange(40) for _ in range(rng.randrange(5, 40))],
              [rng.randrange(40) for _ in range(rng.randrange(5, 40))])
             for _ in range(args.pairs)]
    corpus = [[rng.randrange(40) for _ in range(rng.randrange(5, 30))]
              for _ in range(args.corpus)]
    queries = [[rng.randrange(40) for _ in range(15)] for _ in range(20)]
    intern = {}
    formula_ids = [formula_token_ids(mask_constants(f), intern)
                   for f in synth_corpus(args.formulas, seed=1)]

    workloads = [
        (f"pairs ({args.pairs} random pairs)", workload_pairs, (pairs,)),
        (f"scan (20 queries x {args.corpus} corpus)", workload_scan, (queries, corpus)),
        (f"pairwise ({args.formulas} formulas, "
         f"{args.formulas * (args.formulas - 1) // 2} pairs)",
         workload_pairwise, (formula_ids,)),
    ]

    bad = disagreements(pairs, queries, corpus)
    if bad:
        a, b = bad[0]
        print(f"kernel disagrees with the DP on {len(bad)} sampled pair(s), "
              f"first: {a} vs {b}", file=sys.stderr)
        return 1

    print(f"median of {REPEAT} runs per workload")
    print(f"{'workload':<44} {'time':>12}")
    for label, fn, data in workloads:
        print(f"{label:<44} {bench(fn, *data) * 1000:>10.1f}ms")
    return 0


if __name__ == "__main__":
    sys.exit(main())
