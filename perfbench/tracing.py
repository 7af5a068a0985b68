"""Spans around calls into nlscrit's public functions, recorded from outside
the program.

`Tracer.install` replaces every attribute of every loaded ``nlscrit``
module that is bound to a traced function.  A caller that imported the name
(``from .grid import rescale`` in mountainpass, minimize and dynamics)
therefore resolves the wrapper, as does a caller that goes through the
module (``gridmod.make_grid``) or a global lookup inside the defining
module (``thresholds`` calling ``gn_constant``).

Each span is ``[name, start, end, parent, facts]``: ``parent`` is the index
of the enclosing span or -1, and ``facts`` holds counts read from the
returned report (``SolveReport``, ``LevelEstimate``, ``TrajectorySummary``).
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# (module, function) pairs whose calls are recorded.  The span name
# "<module>.<function>" is the prefix of the per-layer metric names.
TRACED = (
    ("cli", "main"),
    ("constants", "gn_constant"),
    ("constants", "sobolev_constant"),
    ("constants", "thresholds"),
    ("profiles", "weinstein_ground_state"),
    ("grid", "make_grid"),
    ("grid", "rescale"),
    ("functionals", "fiber_critical_points"),
    ("minimize", "minimize_local"),
    ("minimize", "subadditivity_check"),
    ("mountainpass", "estimate_mp_level"),
    ("mountainpass", "project_to_pohozaev_minus"),
    ("mountainpass", "cpo_sequence_case1"),
    ("mountainpass", "cpo_sequence_case2"),
    ("dynamics", "evolve"),
    ("dynamics", "blowup_probe"),
)


def _arg(args, kwargs, pos, name):
    if name in kwargs:
        return kwargs[name]
    return args[pos] if len(args) > pos else None


def _facts(name, args, kwargs, result):
    if name == "minimize.minimize_local":
        return {"iterations": int(result.iterations),
                "converged": bool(result.converged)}
    if name == "mountainpass.estimate_mp_level":
        family = _arg(args, kwargs, 2, "family")
        if family is None:
            family = sys.modules["nlscrit.mountainpass"].MPFamilySpec()
        size = len(family.bubble_widths) * len(family.amplitudes)
        return {"admissible": len(result.family_trace), "family": size}
    if name == "dynamics.evolve":
        grid = _arg(args, kwargs, 1, "grid")
        return {"steps": int(result.steps), "dt_final": float(result.dt_final),
                "n": int(grid.n)}
    return None


def _nlscrit_modules():
    return [m for key, m in list(sys.modules.items())
            if m is not None and (key == "nlscrit" or key.startswith("nlscrit."))]


def clear_caches() -> None:
    """Empty every ``functools.lru_cache`` in the loaded nlscrit modules
    (looking through trace wrappers), so the next call computes cold."""
    for module in _nlscrit_modules():
        for value in list(vars(module).values()):
            while value is not None:
                clear = getattr(value, "cache_clear", None)
                if callable(clear):
                    clear()
                value = getattr(value, "__wrapped__", None)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self._patched: list = []

    def install(self) -> None:
        for mod, fn in TRACED:
            module = importlib.import_module(f"nlscrit.{mod}")
            original = getattr(module, fn)
            wrapper = self._wrap(f"{mod}.{fn}", original)
            for target in _nlscrit_modules():
                for attr, value in list(vars(target).items()):
                    if value is original:
                        setattr(target, attr, wrapper)
                        self._patched.append((target, attr, original))

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._patched):
            setattr(target, attr, original)
        self._patched.clear()

    def take(self) -> list:
        """Return the spans recorded so far and start a new list."""
        spans, self.spans = self.spans, []
        return spans

    def _wrap(self, name, fn):
        tracer, stack = self, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span = [name, time.perf_counter(), None, parent, None]
            stack.append(len(tracer.spans))
            tracer.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            span[4] = _facts(name, args, kwargs, result)
            return result

        return wrapper


def summarize(spans: list) -> dict:
    """Per span name: calls, busy seconds (sum of durations), self seconds
    (duration minus the time covered by child spans), and the facts of each
    call with its duration.  Calls run in one thread, so child spans never overlap and their
    covered time is the sum of their durations.  ``gn_miss`` counts the
    ``gn_constant`` calls that computed a ground state below them, i.e.
    missed the constant cache."""
    child_time = [0.0] * len(spans)
    missed = set()
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
        if name == "profiles.weinstein_ground_state":
            while parent >= 0:
                if spans[parent][0] == "constants.gn_constant":
                    missed.add(parent)
                parent = spans[parent][3]
    out: dict = {}
    for i, (name, start, end, _, facts) in enumerate(spans):
        s = out.setdefault(name, {"calls": 0, "busy": 0.0, "self": 0.0,
                                  "facts": [], "gn_miss": 0})
        s["calls"] += 1
        s["busy"] += end - start
        s["self"] += end - start - child_time[i]
        if facts is not None:
            s["facts"].append(dict(facts, seconds=end - start))
        if i in missed:
            s["gn_miss"] += 1
    return out
