"""Span tracing of promata's public functions, installed from outside.

The tracer replaces each public function of the traced modules with a
wrapper that records one span per call: name, start, end, parent span and
job id. Modules bind names at import (``from .machines import
promise_check``), so the wrapper is installed in every promata module whose
namespace holds the function, and ``PromiseProblem.enumerate_instances`` is
wrapped on its class. Spans stay in memory, in flat arrays, until the run
ends; self times and per-layer figures are computed from them afterwards.
"""

from __future__ import annotations

import bisect
import functools
import os
import sys
import time
import types
from array import array
from dataclasses import dataclass, field

# The layers, in the order the per-layer report lists them.
LAYERS = (
    "machines",
    "constructions",
    "conversions",
    "probabilistic",
    "exactmath",
    "boundslab",
    "serialize",
    "acceptance",
    "cli",
)

# Simulators whose input words are recorded for the prefix-sharing figure.
SIMULATORS = frozenset(
    {
        "machines.dfa_run",
        "machines.nfa_accepts",
        "machines.afa_accepts",
        "machines.twoway_accepts",
        "probabilistic.outcome_dist",
        "probabilistic.monte_carlo",
    }
)


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _symbols(args, kwargs, result):
    return {"symbols": len(_arg(args, kwargs, 1, "word"))}


def _instances(args, kwargs, result):
    return {"instances": result.measured["instances"]}


def _candidates(args, kwargs, result):
    return {"candidates": result.candidates_checked}


# Work counted at a layer boundary, from a call's arguments and result.
WORK = {
    "machines.dfa_run": _symbols,
    "machines.nfa_accepts": _symbols,
    "machines.afa_accepts": _symbols,
    "machines.twoway_accepts": _symbols,
    "machines.promise_check": _instances,
    "probabilistic.outcome_dist": _symbols,
    "probabilistic.lasvegas_success": _instances,
    "probabilistic.monte_carlo": lambda a, k, r: {"trials": _arg(a, k, 2, "trials")},
    "conversions.nfa_to_dfa": lambda a, k, r: {"states": r.state_count},
    "conversions.dfa_minimize": lambda a, k, r: {"input_states": a[0].state_count},
    "boundslab.min_dfa_size": _candidates,
    "boundslab.min_unary_nfa_size": _candidates,
    "boundslab.disjointness_check": lambda a, k, r: {"words": r.measured["words"]},
    "serialize.dumps": lambda a, k, r: {"bytes": len(r)},
}


def public_functions(modules):
    """{function: "layer.name"} for every public function the layers define."""
    found = {}
    for layer in LAYERS:
        module = getattr(modules, layer)
        for attr, value in vars(module).items():
            if (
                isinstance(value, types.FunctionType)
                and not attr.startswith("_")
                and value.__module__ == module.__name__
            ):
                found[value] = f"{layer}.{attr}"
    return found


class Tracer:
    """Records spans of wrapped calls while ``active`` is set."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.layer_of: list[str] = []
        self.span_name = array("i")
        self.span_job = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack: list[int] = []
        self.job = -1
        self.active = False
        self.record_words = False
        self.words: list[tuple[int, str]] = []
        self.work: dict[tuple[str, str], int] = {}
        self.errors: dict[str, int] = {}
        self._restore: list[tuple[object, str, object]] = []
        self._wrappers: dict | None = None
        self._method: tuple | None = None

    def name_id(self, name: str) -> int:
        self.names.append(name)
        self.layer_of.append(name.split(".", 1)[0])
        return len(self.names) - 1

    def wrap(self, fn, name: str):
        ident = self.name_id(name)
        layer = self.layer_of[ident]
        work = WORK.get(name)
        words = name in SIMULATORS
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer.stack
            index = len(tracer.span_start)
            tracer.span_name.append(ident)
            tracer.span_job.append(tracer.job)
            tracer.span_parent.append(stack[-1] if stack else -1)
            tracer.span_end.append(0.0)
            stack.append(index)
            tracer.span_start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.span_end[index] = clock()
                stack.pop()
                parent = tracer.span_parent[index]
                if parent < 0 or tracer.layer_of[tracer.span_name[parent]] != layer:
                    tracer.errors[layer] = tracer.errors.get(layer, 0) + 1
                raise
            tracer.span_end[index] = clock()
            stack.pop()
            if work is not None:
                for key, amount in work(args, kwargs, result).items():
                    slot = (name, key)
                    tracer.work[slot] = tracer.work.get(slot, 0) + amount
            if words and tracer.record_words:
                tracer.words.append((tracer.job, _arg(args, kwargs, 1, "word")))
            return result

        return traced

    def install(self, modules) -> None:
        """Wrap every public function of the layers wherever promata binds it.

        The wrappers are built on the first call, so every later install must
        pass the same imported modules.
        """
        if self._wrappers is None:
            originals = public_functions(modules)
            self._wrappers = {fn: self.wrap(fn, name) for fn, name in originals.items()}
            problem = modules.machines.PromiseProblem
            original = problem.enumerate_instances
            self._method = (problem, original, self.wrap(original, "machines.enumerate_instances"))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "promata" and not mod_name.startswith("promata."):
                continue
            for attr, value in list(vars(module).items()):
                if isinstance(value, types.FunctionType) and value in self._wrappers:
                    setattr(module, attr, self._wrappers[value])
                    self._restore.append((module, attr, value))
        cls, original, wrapper = self._method
        cls.enumerate_instances = wrapper
        self._restore.append((cls, "enumerate_instances", original))

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._restore):
            setattr(target, attr, original)
        self._restore.clear()

    def mark(self) -> int:
        """Index of the next span, for slicing the spans of one pass."""
        return len(self.span_start)


@dataclass
class PassSummary:
    """Per-name totals over the spans of one traced pass."""

    self_s: dict[str, float] = field(default_factory=dict)
    incl_s: dict[str, float] = field(default_factory=dict)
    calls: dict[str, int] = field(default_factory=dict)
    job_self_s: dict[int, float] = field(default_factory=dict)


def self_times(start, end, parent, lo: int, hi: int) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Spans lo..hi-1 must be closed, and every parent index is either -1 or
    inside the same range.
    """
    own = [end[i] - start[i] for i in range(lo, hi)]
    for i in range(lo, hi):
        p = parent[i]
        if p >= 0:
            own[p - lo] -= end[i] - start[i]
    return own


def summarize(tracer: Tracer, lo: int, hi: int) -> PassSummary:
    own = self_times(tracer.span_start, tracer.span_end, tracer.span_parent, lo, hi)
    summary = PassSummary()
    for i in range(lo, hi):
        name = tracer.names[tracer.span_name[i]]
        s = own[i - lo]
        summary.self_s[name] = summary.self_s.get(name, 0.0) + s
        summary.incl_s[name] = (
            summary.incl_s.get(name, 0.0) + tracer.span_end[i] - tracer.span_start[i]
        )
        summary.calls[name] = summary.calls.get(name, 0) + 1
        job = tracer.span_job[i]
        summary.job_self_s[job] = summary.job_self_s.get(job, 0.0) + s
    return summary


def prefix_shared_frac(words: list[tuple[int, str]]) -> float:
    """Share of symbols lying on a prefix shared with an earlier word.

    Words are grouped by job, since only one job's machine could reuse a
    prefix. Within a job, a word's shared part is its longest common prefix
    with any earlier word, found among its neighbours in sorted order.
    """
    seen: dict[int, list[str]] = {}
    shared = 0
    total = 0
    for job, word in words:
        earlier = seen.setdefault(job, [])
        at = bisect.bisect_left(earlier, word)
        best = 0
        for neighbour in earlier[max(at - 1, 0) : at + 1]:
            best = max(best, len(os.path.commonprefix((neighbour, word))))
        shared += best
        total += len(word)
        earlier.insert(at, word)
    return shared / total if total else 0.0
