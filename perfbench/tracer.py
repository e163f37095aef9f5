"""Span recording around cdsplit's public functions, from outside the package.

``Tracer`` replaces each listed function by a timing wrapper, in the module
that defines it and in every ``cdsplit`` module that imported the same
object, and puts the originals back on exit.  Spans are folded into
per-name totals when they end (calls, inclusive seconds, self seconds,
work units), so memory stays flat on runs with millions of calls.  Self time
is a span's duration minus the durations of the traced spans it directly
contains.  A call made while the same function is already open on the
thread (recursion) is folded into the open span and not counted again.
"""

from __future__ import annotations

import functools
import sys
import threading
import time


class SpanPoint:
    """One traced function: ``module`` and dotted ``attr`` locate it.

    Its span is named ``<module leaf>.<function>``.  ``group`` accumulates
    the inclusive time of the outermost span of a set of functions; ``units`` maps (args, kwargs, result) to a work count;
    ``returns`` names the span recorded around the callable the function
    returns (for closure factories).
    """

    def __init__(self, module, attr, group=None, units=None, returns=None):
        self.module = module
        self.attr = attr
        self.name = f"{module.rsplit('.', 1)[-1]}.{attr.rsplit('.', 1)[-1]}"
        self.group = group
        self.units = units
        self.returns = returns


class _ThreadState(threading.local):
    def __init__(self, registry, lock):
        self.stack = []
        self.active = set()
        self.stats = {}
        with lock:
            registry.append(self.stats)


class Tracer:
    """Context manager that installs the wrappers for ``points``."""

    def __init__(self, points):
        self.points = points
        self._registry = []
        self._state = _ThreadState(self._registry, threading.Lock())
        self._restore = []

    def wrap(self, fn, name, group=None, units=None):
        state = self._state
        perf = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            st = state
            active = st.active
            if name in active:
                return fn(*args, **kwargs)
            active.add(name)
            outermost = group is not None and group not in active
            if outermost:
                active.add(group)
            stack = st.stack
            frame = [0.0]
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf() - t0
                stack.pop()
                active.discard(name)
                if stack:
                    stack[-1][0] += dur
                rec = st.stats.get(name)
                if rec is None:
                    rec = st.stats[name] = [0, 0.0, 0.0, 0]
                rec[0] += 1
                rec[1] += dur
                rec[2] += dur - frame[0]
                if outermost:
                    active.discard(group)
                    grec = st.stats.setdefault(group, [0, 0.0, 0.0, 0])
                    grec[0] += 1
                    grec[1] += dur
            if units is not None:
                rec[3] += units(args, kwargs, result)
            return result

        return traced

    def _wrapper_for(self, point, original):
        if point.returns is None:
            return self.wrap(original, point.name, point.group, point.units)
        wrap, inner = self.wrap, point.returns

        @functools.wraps(original)
        def factory(*args, **kwargs):
            return wrap(original(*args, **kwargs), inner)

        return factory

    def __enter__(self):
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == "cdsplit" or k.startswith("cdsplit."))]
        try:
            for point in self.points:
                owner = sys.modules[point.module]
                *path, leaf = point.attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, leaf)
                wrapper = self._wrapper_for(point, original)
                self._patch(owner, leaf, wrapper)
                if not path:
                    for mod in modules:
                        if mod is not owner and vars(mod).get(leaf) is original:
                            self._patch(mod, leaf, wrapper)
        except BaseException:
            self.__exit__(None, None, None)
            raise
        return self

    def _patch(self, owner, attr, value):
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def __exit__(self, *exc):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)
        return False

    def totals(self) -> dict:
        """Per-name [calls, inclusive_s, self_s, units], merged over threads."""
        out = {}
        for stats in list(self._registry):
            for name, rec in stats.items():
                acc = out.setdefault(name, [0, 0.0, 0.0, 0])
                for i in range(4):
                    acc[i] += rec[i]
        return out
