"""Span tracer that wraps the package's public functions from outside.

The package imports functions by name (`from .lexer import lex` in several
modules), so patching `formulakit.lexer.lex` alone would miss most calls.
`Tracer.install` replaces every binding of each target object in every
loaded `formulakit` module, and on classes for class methods, and
`uninstall` puts the originals back.

Per target it records calls, inclusive seconds (outermost activation only,
so recursion is not double counted) and self seconds: the span's duration
minus the time covered by spans of other targets nested inside it.
Generator functions are timed per resumption, so a lazily consumed stage
is charged for its own work and not for its consumer's.

Worker processes forked while the tracer is installed (`gen-pretrain
--workers N`) inherit the wrapped functions; their spans are added to
shared memory under a lock, so the parent sees them after the pool ends.
Processes started with `spawn` re-import the package and are not traced.
"""

from __future__ import annotations

import functools
import inspect
import multiprocessing
import os
import sys
from time import perf_counter
from typing import Callable, Optional

PACKAGE = "formulakit"

# Per-target columns in the stat arrays.
CALLS, TOTAL_S, SELF_S, AMOUNT = range(4)
COLUMNS = 4


class Tracer:
    def __init__(self, targets: list[str],
                 amounts: Optional[dict[str, Callable]] = None) -> None:
        """targets: names like "lexer.lex" or "baseline.SketchIndex.load",
        relative to the package. amounts: target -> fn(args, result) giving a
        quantity to sum per call (items scored, bytes written)."""
        self.targets = list(targets)
        self.amounts = dict(amounts or {})
        self._index = {name: i for i, name in enumerate(self.targets)}
        self._local = [0.0] * (COLUMNS * len(self.targets))
        self._shared = multiprocessing.RawArray("d", COLUMNS * len(self.targets))
        self._lock = multiprocessing.Lock()
        self._stack: list[float] = []  # child time accumulated per open span
        self._active = [0] * len(self.targets)
        self._in_child = False
        self._patches: list[tuple[object, str, object]] = []
        os.register_at_fork(after_in_child=self._after_fork)

    def _after_fork(self) -> None:
        self._in_child = True
        self._stack = []
        self._active = [0] * len(self.targets)

    # --- recording ----------------------------------------------------------

    def _add(self, idx: int, calls: float = 0.0, total: float = 0.0,
             self_s: float = 0.0, amount: float = 0.0) -> None:
        base = idx * COLUMNS
        row = (calls, total, self_s, amount)
        if self._in_child:
            with self._lock:
                for col, value in enumerate(row):
                    self._shared[base + col] += value
        else:
            for col, value in enumerate(row):
                self._local[base + col] += value

    def _span(self, idx: int, step: Callable, calls: int):
        """Run step() as one span of target idx; returns its result."""
        stack = self._stack
        self._active[idx] += 1
        stack.append(0.0)
        start = perf_counter()
        try:
            return step()
        finally:
            duration = perf_counter() - start
            children = stack.pop()
            if stack:
                stack[-1] += duration
            self._active[idx] -= 1
            outermost = self._active[idx] == 0
            self._add(idx, calls=calls, total=duration if outermost else 0.0,
                      self_s=duration - children)

    def _wrap(self, name: str, fn: Callable) -> Callable:
        idx = self._index[name]
        amount_fn = self.amounts.get(name)
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                done = object()

                def resume():
                    return next(it, done)

                calls = 1  # the first resumption counts as the call
                while True:
                    value = self._span(idx, resume, calls)
                    calls = 0
                    if value is done:
                        return
                    yield value
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = self._span(idx, lambda: fn(*args, **kwargs), 1)
            if amount_fn is not None:
                self._add(idx, amount=amount_fn(args, result))
            return result
        return wrapper

    # --- patching -----------------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        for name in self.targets:
            module_name, _, attr_path = name.partition(".")
            owner = sys.modules[f"{PACKAGE}.{module_name}"]
            *classes, attr = attr_path.split(".")
            for cls_name in classes:
                owner = getattr(owner, cls_name)
            if classes:
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(name, raw.__func__))
                else:
                    wrapped = self._wrap(name, raw)
                self._patch(owner, attr, wrapped)
                continue
            original = getattr(owner, attr)
            wrapped = self._wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapped)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # --- results --------------------------------------------------------------

    def stats(self) -> dict[str, dict[str, float]]:
        """target -> {calls, s, self_s, amount}, parent and workers summed."""
        out = {}
        for name, idx in self._index.items():
            base = idx * COLUMNS
            row = [self._local[base + c] + self._shared[base + c] for c in range(COLUMNS)]
            out[name] = {"calls": row[CALLS], "s": row[TOTAL_S],
                         "self_s": row[SELF_S], "amount": row[AMOUNT]}
        return out
