#!/usr/bin/env python3
"""Benchmark the compiled token-Levenshtein kernel against the pure-Python twin.

Three workloads:
  pairs      random id sequences, one kernel call per pair
  scan       one query against a corpus (the baseline repair full scan)
  pairwise   all-pairs similarity over constant-masked formulas, interned
             once, one similarities_to_many call per formula against the
             formulas after it: the kernel part of build_retrieval_pairs
             (the retrieval fine-tuning targets, the quadratic step)

Each time is the median of REPEAT runs. When the compiled kernel is
built, the two backends must agree on a 200-pair sample; otherwise the
script exits 1.

Usage: python benchmarks/bench_kernels.py [--pairs 20000] [--corpus 2000]
       [--formulas 400]
"""

import argparse
import random
import statistics
import sys
import time

from formulakit import _speedups_fallback
from formulakit.evaluation import mask_constants
from formulakit.similarity import formula_token_ids
from formulakit.synth import synth_corpus

try:
    from formulakit import _speedups
except ImportError:
    _speedups = None

REPEAT = 5


def bench(fn, *args):
    """Median wall time of REPEAT runs of fn(*args)."""
    times = []
    for _ in range(REPEAT):
        start = time.perf_counter()
        fn(*args)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def workload_pairs(impl, pairs):
    lev = impl.levenshtein_ids
    for a, b in pairs:
        lev(a, b)


def workload_scan(impl, queries, corpus):
    sims = impl.similarities_to_many
    for q in queries:
        sims(q, corpus)


def workload_pairwise(impl, seqs):
    sims = impl.similarities_to_many
    for i, q in enumerate(seqs):
        sims(q, seqs[i + 1:])


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

    backends = [("python", _speedups_fallback)]
    if _speedups is not None:
        backends.insert(0, ("c", _speedups))
    else:
        print("compiled kernel not built; benchmarking the fallback only\n")

    print(f"median of {REPEAT} runs per cell")
    print(f"{'workload':<44} " + "".join(f"{name:>12} " for name, _ in backends)
          + ("speedup" if _speedups else ""))
    for label, fn, data in workloads:
        times = [bench(fn, impl, *data) for _, impl in backends]
        row = f"{label:<44} " + "".join(f"{t * 1000:>10.1f}ms " for t in times)
        if len(times) == 2:
            row += f"{times[1] / times[0]:>6.1f}x"
        print(row)

    if _speedups is not None:
        # both backends must agree exactly
        sample = pairs[:200]
        disagree = sum(_speedups.levenshtein_ids(a, b) != _speedups_fallback.levenshtein_ids(a, b)
                       for a, b in sample)
        if disagree:
            print(f"\nbackends disagree on {disagree} of {len(sample)} pairs", file=sys.stderr)
            return 1
        print(f"\nbackends agree on a {len(sample)}-pair sample")
    return 0


if __name__ == "__main__":
    sys.exit(main())
