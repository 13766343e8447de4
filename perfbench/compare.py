#!/usr/bin/env python3
"""Compare two saved outputs of perfbench/run.py, metric by metric.

Usage: python3 perfbench/compare.py BEFORE.txt AFTER.txt

Each file is the standard output of one run. The comparison is refused,
with exit code 2, when the runs differ in workload, trace mode, kernel
backend or input digests: the pure-Python and compiled kernels differ by
more than an order of magnitude, and different inputs are different work.
"""

from __future__ import annotations

import json
import sys


def load(path: str) -> tuple[dict, dict]:
    """(stamp, result) from one run's standard output."""
    with open(path, encoding="utf-8") as fh:
        lines = [line.rstrip("\n") for line in fh if line.strip()]
    stamps = [line for line in lines if line.startswith("stamp ")]
    if not stamps or not lines[-1].startswith("{"):
        raise ValueError(f"{path}: not the output of perfbench/run.py")
    return json.loads(stamps[-1][len("stamp "):]), json.loads(lines[-1])


def mismatches(a: dict, b: dict) -> list[str]:
    """Reasons the two stamped runs are not comparable; empty when they are."""
    return [f"{key} differs: {a.get(key)!r} vs {b.get(key)!r}"
            for key in ("workload", "trace", "kernel_backend", "inputs")
            if a.get(key) != b.get(key)]


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 1
    try:
        (stamp_a, result_a), (stamp_b, result_b) = load(argv[0]), load(argv[1])
    except (OSError, ValueError) as exc:
        print(f"compare: {exc}", file=sys.stderr)
        return 2
    reasons = mismatches(stamp_a, stamp_b)
    if reasons:
        print("compare: refusing to compare these runs:", file=sys.stderr)
        for reason in reasons:
            print(f"  {reason}", file=sys.stderr)
        return 2
    print(f"{'metric':40} {'before':>14} {'after':>14} {'after/before':>13}")
    for name, before in result_a["metrics"].items():
        after = result_b["metrics"].get(name)
        if after is None:
            continue
        ratio = after["value"] / before["value"] if before["value"] else float("nan")
        print(f"{name:40} {before['value']:>14.6g} {after['value']:>14.6g} {ratio:>13.4f}"
              f"  {before['unit']}")
    for label, result in (("before", result_a), ("after", result_b)):
        print(f"{label}: correct={result['correct']} failed {result['failed']} "
              f"of {result['attempted']}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
