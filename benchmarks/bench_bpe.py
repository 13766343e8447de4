#!/usr/bin/env python3
"""Benchmark BPE training and encoding in formulakit.tokenizer.

Trains on the benchmark's identifier-rich formulas (perfbench/inputs.py,
imported read-only) at a budget that forces about 2,000 merges, with the
incremental trainer and with a from-scratch trainer kept in this script,
which recounts every pair in every round. It then encodes every distinct
letter run of the formulas with the learned merges, once with the
tokenizer's heap pass (the step `encode` runs per run it has not seen)
and once with a rescan kept in this script, which looks for the
lowest-ranked pair again after every merge. Last it encodes every formula
with a freshly loaded model, once with `encode` and once with a loop kept
in this script that pretokenizes each formula and splits each letter run,
memoised per run. The script exits 1 unless both trainers learn the same
merges, both run encoders give the same pieces and both formula encoders
give the same ids, then prints seconds per merge, microseconds per run and
microseconds per formula. The tokenizer's times are the best of REPEAT
runs (timing.best_of); the reference times are their one checking run.

Usage: python benchmarks/bench_bpe.py [--formulas 2000] [--budget 2057]
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from inputs import identifier_formulas  # noqa: E402
from timing import best_of  # noqa: E402

from formulakit.tokenizer import (SPACE_MARKER, TokenizerModel, _bpe_apply,  # noqa: E402
                                  _split_on_specials, encode, pretokenize, train_bpe)

REPEAT = 5


def scratch_merges(formulas, budget):
    """The merge rule by brute force: recount every pair each round."""
    atomics = {SPACE_MARKER}
    words = {}
    for formula in formulas:
        for pre in pretokenize(formula):
            if pre.atomic:
                atomics.add(pre.text)
            else:
                words[tuple(pre.text)] = words.get(tuple(pre.text), 0) + 1
    vocab = atomics | {ch for word in words for ch in word}
    size = 3 + len(vocab)  # pad, unknown, mask
    merges = []
    while size < budget:
        counts = {}
        for word, freq in words.items():
            for pair in zip(word, word[1:]):
                counts[pair] = counts.get(pair, 0) + freq
        if not counts or max(counts.values()) < 2:
            break
        top = max(counts.values())
        best = min((p for p, c in counts.items() if c == top), key=lambda p: (p[0] + p[1], p))
        merges.append(best)
        merged = best[0] + best[1]
        if merged not in vocab:
            vocab.add(merged)
            size += 1
        new_words = {}
        for word, freq in words.items():
            out, i = [], 0
            while i < len(word):
                if word[i:i + 2] == best:
                    out.append(merged)
                    i += 2
                else:
                    out.append(word[i])
                    i += 1
            new_words[tuple(out)] = new_words.get(tuple(out), 0) + freq
        words = new_words
    return merges


def rescan_apply(run, rank):
    """The rank-order rule by rescanning: after every merge, look for the
    lowest-ranked pair again and merge all its occurrences from the left."""
    word = list(run)
    while len(word) >= 2:
        ranked = [(rank[pair], pair) for pair in zip(word, word[1:]) if pair in rank]
        if not ranked:
            break
        left, right = min(ranked)[1]
        merged = left + right
        out, i, n = [], 0, len(word)
        while i < n:
            if i + 1 < n and word[i] == left and word[i + 1] == right:
                out.append(merged)
                i += 2
            else:
                out.append(word[i])
                i += 1
        word = out
    return word


def pretokenize_encode(model, formulas):
    """Each formula's ids by a loop over its pretokens under the model's
    catalog: atomic ones from the id table, letter runs by the heap pass,
    memoised per run."""
    unk, id_of = model.unk_id, model.id_of
    runs = {}
    out = []
    for formula in formulas:
        ids = []
        for chunk, is_special in _split_on_specials(formula):
            if is_special:
                ids.append(id_of(chunk))
                continue
            for pre in pretokenize(chunk, model.catalog):
                if pre.atomic:
                    ids.append(unk if id_of(pre.text) is None else id_of(pre.text))
                    continue
                if pre.text not in runs:
                    runs[pre.text] = [unk if id_of(p) is None else id_of(p)
                                      for p in _bpe_apply(pre.text, model)]
                ids.extend(runs[pre.text])
        out.append(ids)
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--formulas", type=int, default=2_000)
    parser.add_argument("--budget", type=int, default=2_057)
    args = parser.parse_args()

    formulas = identifier_formulas(0, args.formulas)
    train_s, model = best_of(lambda: train_bpe(formulas, args.budget), REPEAT)
    start = time.perf_counter()
    reference = scratch_merges(formulas, args.budget)
    scratch_s = time.perf_counter() - start

    if model.merges != reference:
        first = next((i for i, (a, b) in enumerate(zip(model.merges, reference)) if a != b),
                     min(len(model.merges), len(reference)))
        print(f"merges differ from the from-scratch trainer at merge {first} "
              f"({len(model.merges)} vs {len(reference)} merges)", file=sys.stderr)
        return 1

    runs = sorted({pre.text for formula in formulas for pre in pretokenize(formula)
                   if not pre.atomic})
    apply_s, pieces = best_of(lambda: [_bpe_apply(run, model) for run in runs], REPEAT)
    start = time.perf_counter()
    reference_pieces = [rescan_apply(run, model._merge_rank) for run in runs]
    rescan_s = time.perf_counter() - start

    if pieces != reference_pieces:
        first = next(i for i, (a, b) in enumerate(zip(pieces, reference_pieces)) if a != b)
        print(f"pieces differ from the rescan on {runs[first]!r}: "
              f"{pieces[first]} vs {reference_pieces[first]}", file=sys.stderr)
        return 1

    saved = model.to_json()
    encode_s, ids = best_of(lambda fresh: [encode(fresh, formula) for formula in formulas],
                            REPEAT, setup=lambda: TokenizerModel.from_json(saved))
    fresh = TokenizerModel.from_json(saved)
    start = time.perf_counter()
    reference_ids = pretokenize_encode(fresh, formulas)
    loop_s = time.perf_counter() - start

    if ids != reference_ids:
        first = next(i for i, (a, b) in enumerate(zip(ids, reference_ids)) if a != b)
        print(f"ids differ from the pretokenize loop on {formulas[first]!r}: "
              f"{ids[first]} vs {reference_ids[first]}", file=sys.stderr)
        return 1

    merges = max(len(reference), 1)
    per_run = 1e6 / max(len(runs), 1)
    per_formula = 1e6 / max(len(formulas), 1)
    print(f"{args.formulas} formulas, budget {args.budget}: {len(reference)} merges, "
          f"identical to the from-scratch trainer")
    print(f"{len(runs)} distinct letter runs: pieces identical to the rescan")
    print(f"{len(formulas)} formulas: ids identical to the pretokenize loop")
    print(f"{'trainer':<36} {'s/merge':>12}")
    print(f"{f'incremental (best of {REPEAT})':<36} {train_s / merges:>12.6f}")
    print(f"{'from scratch (one run)':<36} {scratch_s / merges:>12.6f}")
    print(f"{'encoder':<36} {'us/run':>12}")
    print(f"{f'heap pass (best of {REPEAT})':<36} {apply_s * per_run:>12.2f}")
    print(f"{'rescan (one run)':<36} {rescan_s * per_run:>12.2f}")
    print(f"{'formula encoder, fresh model':<36} {'us/formula':>12}")
    print(f"{f'encode (best of {REPEAT})':<36} {encode_s * per_formula:>12.2f}")
    print(f"{'pretokenize loop (one run)':<36} {loop_s * per_formula:>12.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
