"""Timing wrappers around the public functions of every wignerlab module.

The wrappers live in the benchmark only; the program is not changed.  A
module that binds a function by ``from ... import`` (the CLI binds most
of the library that way, and keeps its subcommand handlers in a dict)
holds its own reference, so installing replaces every binding of each
wrapped function in every loaded wignerlab module, dict values included.

Each call is a span.  A span's self time is its duration minus the time
covered by the spans it caused, so a module's self time is the time its
public functions spent in their own code and in private helpers.
"""

from __future__ import annotations

import functools
import os
import sys
import time
import types
from collections import defaultdict

# Layers are the modules of the package; ``errors`` has no work of its own.
LAYERS = ("qcore", "stabilizer", "scenario", "paradox", "contexts",
          "spacetime", "decoherence", "cli")

# Methods wrapped besides module-level functions, with their span names.
_METHODS = (
    ("qcore", "DensityMatrix", "__init__", "qcore.density"),
    ("scenario", "ScenarioModel", "lifted_x_observable", "scenario.lifted_x_observable"),
    ("scenario", "ScenarioModel", "record_observable", "scenario.record_observable"),
)

# Spans that must record calls on every workload: each workload runs all
# five subcommands.  Most are reached through a binding the CLI imported.
EXPECTED = (
    "qcore.commutes", "qcore.embed", "qcore.born_table", "qcore.density",
    "stabilizer.joint_eigenstate",
    "scenario.run_friend_stage", "scenario.lifted_x_observable",
    "scenario.record_observable", "scenario.context_born_table",
    "scenario.sample_outcomes", "scenario.erasure_check",
    "spacetime.frame_for_events",
    "paradox.enumerate_satisfying", "paradox.gf2_consistency",
    "paradox.global_section_exists", "paradox.constraints_from_born",
    "contexts.maximal_contexts", "contexts.incompatibility_graph",
    "contexts.common_extension",
    "decoherence.dephase", "decoherence.pointer_diagonality",
    "decoherence.expectation_trajectory", "decoherence.correlation_decay",
    "decoherence.diagonality_trajectory",
    "cli.main", "cli.build_config", "cli.write_report",
    "cli.cmd_ghz_check", "cli.cmd_frames", "cli.cmd_paradox",
    "cli.cmd_contexts", "cli.cmd_decohere",
)


class Tracer:
    """Span and counter recorder for one pass; ``take`` returns and resets."""

    def __init__(self) -> None:
        self._stack: list[float] = []
        self._patches: list[tuple[object, object, object]] = []
        self._label = ""
        self._seen_tables: set = set()
        self._seen_observables: set = set()
        self._reset()

    def _reset(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.by_label: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self.counters: dict[str, int] = defaultdict(int)

    # -- invocation boundaries -------------------------------------------

    def begin(self, label: str, steps: int) -> None:
        """Start one CLI invocation; distinct-object sets are per invocation."""
        self._label = label
        self._seen_tables = set()
        self._seen_observables = set()
        self.counters["decohere_steps"] += steps

    def end(self) -> None:
        for name, seen in (("distinct_tables", self._seen_tables),
                           ("distinct_observables", self._seen_observables)):
            self.counters[name] += len(seen)
            self.by_label[self._label][name] += len(seen)

    def take(self) -> dict:
        snap = {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "by_label": {k: dict(v) for k, v in self.by_label.items()},
            "counters": dict(self.counters),
        }
        self._reset()
        return snap

    # -- spans -----------------------------------------------------------

    def _wrap(self, name: str, fn):
        hook = _HOOKS.get(name)
        stack = self._stack

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                children = stack.pop()
                if stack:
                    stack[-1] += duration
                self.calls[name] += 1
                self.self_s[name] += duration - children
                self.by_label[self._label][name] += 1
            if hook is not None:
                hook(self, args, result)
            return result

        return span

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items()
                   if n.startswith("wignerlab.") and m is not None]
        wrappers = {}
        for module in modules:
            short = module.__name__.rpartition(".")[2]
            for name, obj in vars(module).items():
                if (isinstance(obj, types.FunctionType) and not name.startswith("_")
                        and obj.__module__ == module.__name__):
                    wrappers[obj] = self._wrap(f"{short}.{name}", obj)
        for module in modules:
            for name, obj in list(vars(module).items()):
                if isinstance(obj, types.FunctionType) and obj in wrappers:
                    self._patch(module, name, wrappers[obj])
                elif isinstance(obj, dict):
                    for key, value in list(obj.items()):
                        if isinstance(value, types.FunctionType) and value in wrappers:
                            self._patch(obj, key, wrappers[value])
        for mod_name, cls_name, attr, span_name in _METHODS:
            cls = getattr(sys.modules[f"wignerlab.{mod_name}"], cls_name)
            self._patch(cls, attr, self._wrap(span_name, vars(cls)[attr]))

    def _patch(self, target, key, value) -> None:
        if isinstance(target, dict):
            self._patches.append((target, key, target[key]))
            target[key] = value
        else:
            self._patches.append((target, key, getattr(target, key)))
            setattr(target, key, value)

    def uninstall(self) -> None:
        while self._patches:
            target, key, original = self._patches.pop()
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)


# -- per-span counters, recorded after the span closes ---------------------

def _commutes(tracer: Tracer, args, result) -> None:
    a, b = args[0].layout, args[1].layout
    dims = dict(a.sites)
    dims.update(b.sites)
    union = 1
    for d in dims.values():
        union *= d
    tracer.counters["commutes_max_dim"] = max(tracer.counters["commutes_max_dim"], union)
    if not set(a.labels) & set(b.labels):
        tracer.counters["commutes_disjoint"] += 1


def _observable_key(op) -> tuple:
    return (op.layout.sites, op.matrix.tobytes())


def _born_table(tracer: Tracer, args, result) -> None:
    tracer._seen_tables.add(tuple(_observable_key(o) for o in args[0]))


def _density(tracer: Tracer, args, result) -> None:
    d = args[1].total_dim
    tracer.counters["density_max_bytes"] = max(tracer.counters["density_max_bytes"],
                                               16 * d * d)


def _observable(kind: str):
    def hook(tracer: Tracer, args, result) -> None:
        tracer._seen_observables.add((kind, args[0].lab_width, args[1]))
    return hook


def _write_report(tracer: Tracer, args, result) -> None:
    tracer.counters["report_bytes"] += sum(os.path.getsize(p) for p in result)


_HOOKS = {
    "qcore.commutes": _commutes,
    "qcore.born_table": _born_table,
    "qcore.density": _density,
    "scenario.lifted_x_observable": _observable("lifted_x"),
    "scenario.record_observable": _observable("record"),
    "cli.write_report": _write_report,
}
