"""The one timer of the scripts under benchmarks/.

Each script reports the best of N timed calls, and prints N in its
header. On a shared machine load only ever adds time, so the fastest call
follows the code, where a median of a few calls follows the load.
"""

import time


def best_of(run, repeat, setup=None):
    """(seconds, result): the fastest of `repeat` timed calls of `run`, and
    the last call's result. Without `setup` each call is `run()`; with it,
    `setup()` runs untimed before each call and its value is `run`'s one
    argument."""
    best, result = float("inf"), None
    for _ in range(repeat):
        args = () if setup is None else (setup(),)
        start = time.perf_counter()
        result = run(*args)
        best = min(best, time.perf_counter() - start)
    return best, result
