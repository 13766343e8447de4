#!/usr/bin/env python3
"""Benchmark the token-Levenshtein kernel in formulakit.similarity.

Three workloads:
  pairs      random id sequences, one kernel call per pair
  scan       one query against a corpus (the baseline repair full scan)
  pairwise   all-pairs similarity over constant-masked formulas, interned
             once, one similarities_to_many call per formula against the
             formulas after it: the kernel part of build_retrieval_pairs
             (the retrieval fine-tuning targets, the quadratic step)

Each time is the median of REPEAT runs.

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

    print(f"median of {REPEAT} runs per workload")
    print(f"{'workload':<44} {'time':>12}")
    for label, fn, data in workloads:
        print(f"{label:<44} {bench(fn, *data) * 1000:>10.1f}ms")
    return 0


if __name__ == "__main__":
    sys.exit(main())
