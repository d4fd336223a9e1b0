"""In-process span tracer for the traced benchmark run.

``Tracer.patch_function`` and ``Tracer.patch_method`` replace coopevo
functions and methods with timing wrappers; a function is replaced in every
module that bound its name (the optimizers import ``mutate_crossover`` and
friends by name, so patching ``coopevo.shade`` alone would miss their
calls). ``Tracer.restore`` puts every original back and verifies it.

Each span records its call count, total time and self time, where self
time is the span minus the time covered by wrapped calls made inside it.
So the objective calls inside ``two_step_select`` count toward
``benchmarks.evaluate``, not toward selection.
"""

from __future__ import annotations

import functools
import sys
import time

import numpy as np


class SpanStat:
    __slots__ = ("calls", "total", "self_time", "durations")

    def __init__(self, keep_durations: bool):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.durations = [] if keep_durations else None


class Tracer:
    def __init__(self):
        self.stats: dict[str, SpanStat] = {}
        self.counts: dict[str, int] = {}
        self._stack = [0.0]          # per open span: time covered by child spans
        self._patches: list[tuple[object, str, object]] = []

    def count(self, key: str, n: int = 1):
        self.counts[key] = self.counts.get(key, 0) + n

    def wrap(self, name, fn, keep_durations=False, on_enter=None, on_return=None,
             on_error=None):
        stat = self.stats.setdefault(name, SpanStat(keep_durations))
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if on_enter is not None:
                on_enter(args)
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(exc)
                raise
            finally:
                dur = clock() - t0
                inner = stack.pop()
                stack[-1] += dur
                stat.calls += 1
                stat.total += dur
                stat.self_time += dur - inner
                if stat.durations is not None:
                    stat.durations.append(dur)
            if on_return is not None:
                on_return(result, args)
            return result

        return wrapper

    def patch_function(self, func, name, **hooks):
        """Wrap a module-level function in every coopevo module bound to it."""
        wrapper = self.wrap(name, func, **hooks)
        owners = [
            mod for key, mod in list(sys.modules.items())
            if (key == "coopevo" or key.startswith("coopevo.")) and mod is not None
        ]
        found = False
        for mod in owners:
            for attr, value in list(vars(mod).items()):
                if value is func:
                    self._set(mod, attr, func, wrapper)
                    found = True
        if not found:
            raise LookupError(f"{name}: function not bound in any coopevo module")

    def patch_method(self, cls, attr, name, **hooks):
        original = vars(cls)[attr]
        self._set(cls, attr, original, self.wrap(name, original, **hooks))

    def _set(self, owner, attr, original, wrapper):
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def restore(self):
        """Put every original back, newest patch first, and verify."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
            if vars(owner)[attr] is not original:
                raise RuntimeError(f"could not restore {owner!r}.{attr}")

    # -- derived numbers ---------------------------------------------------

    def self_s(self, *names: str) -> float:
        return sum(self.stats[n].self_time for n in names if n in self.stats)

    def total_s(self, *names: str) -> float:
        return sum(self.stats[n].total for n in names if n in self.stats)

    def calls(self, *names: str) -> int:
        return sum(self.stats[n].calls for n in names if n in self.stats)

    def percentile(self, name: str, q: float, scale: float) -> float:
        """``q``-th percentile of one span's call durations times ``scale``;
        0 when the span never ran."""
        stat = self.stats.get(name)
        if stat is None or not stat.durations:
            return 0.0
        return float(np.percentile(stat.durations, q)) * scale
