"""Span tracer for the benchmark's traced runs.

A ``Tracer`` replaces module-level names through which one qbm layer calls
the next (for example ``qbm.fpe.solve_banded``, which ``qbm.fpe`` looks up
at call time) by timing wrappers, and puts the original objects back when
the ``with`` block ends, also on error.  Nothing in qbm changes on disk.

Each wrapper records, per (scope, span name): total time, self time (total
minus the time covered by child spans), calls, and the number of array
elements passed in.  The workload sets ``scope`` to tell apart spans of the
same name in different parts of one pass (the two FPE schemes).
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Target:
    """One module attribute to wrap, and the span name it records under."""

    module: object
    attr: str
    span: str
    count_elements: bool = False
    keep_results: bool = False


class Tracer:
    def __init__(self, targets):
        self._targets = list(targets)
        self._saved = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self.scope = ""
        self.stats = defaultdict(lambda: {"total": 0.0, "self": 0.0, "calls": 0, "elements": 0})
        self.results = defaultdict(list)

    def __enter__(self) -> "Tracer":
        try:
            for tg in self._targets:
                original = getattr(tg.module, tg.attr)
                self._saved.append((tg.module, tg.attr, original))
                setattr(tg.module, tg.attr, self._wrap(original, tg))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, tg: Target):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            child = [0.0]
            stack.append(child)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dur
                with tracer._lock:
                    s = tracer.stats[(tracer.scope, tg.span)]
                    s["total"] += dur
                    s["self"] += dur - child[0]
                    s["calls"] += 1
                    if tg.count_elements:
                        s["elements"] += max((int(np.size(a)) for a in args), default=0)
            if tg.keep_results:
                with tracer._lock:
                    tracer.results[(tracer.scope, tg.span)].append(out)
            return out

        return wrapper

    def total(self, span: str, scope=None, field: str = "total"):
        """Sum of one field over the spans of that name (in one scope, if given)."""
        return sum(
            s[field]
            for (sc, name), s in self.stats.items()
            if name == span and (scope is None or sc == scope)
        )

    def self_time(self) -> float:
        """Self time of every span recorded; equals the traced wall time when
        the outermost spans enclose all of it."""
        return sum(s["self"] for s in self.stats.values())
