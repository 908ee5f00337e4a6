"""Spans and counters around calls into the gbrw layers, installed from outside.

The tracer replaces public names of the package with timing wrappers while
a traced pass runs and puts the originals back afterwards, so untraced
passes run the unmodified program.  A name is replaced everywhere it is
looked up: ``gbrw.cli.condition_B_partial`` as well as
``gbrw.moments.condition_B_partial``.

Each task gets one root span; every span records its id, its parent's id
and the task's id.  A span's self time is its duration minus the durations
of its direct children.  Work done by a generator argument inside a wrapped
call (for example the rows of ``BetaArray.cells()`` consumed by
``write_csv``) counts in that call's self time.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import defaultdict

#: Module-level functions wrapped per layer.  The cli command handlers
#: (``cmd_*``) are added by prefix.
FUNCTIONS = {
    "simulate": ("mc_covariation", "arcsine_test"),
    "rulespec": ("load_rule",),
    "algebra": ("truth_to_beta", "beta_to_truth"),
    "moments": ("condition_A_partial", "condition_B_partial",
                "expected_zeta_pair", "expected_product"),
    "ergodic": ("criterion_product", "rule_permutation", "orbit_decompose",
                "sgn_beta_array", "ergodic_repair"),
    "reports": ("write_csv", "write_beta_pixmap"),
}

#: Methods wrapped on every class that defines them, with their span names.
RULE_METHODS = {"apply": "rules.apply", "step_table": "rules.step_table",
                "step_family": "rules.step_family"}


class Tracer:
    """Records spans of one task at a time and folds them into totals."""

    def __init__(self, capacity_error: type):
        self.capacity_error = capacity_error
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counters: dict[str, int] = defaultdict(int)
        self.dyadic_objects = [0]
        self._records: list[tuple] = []
        self._stack: list[tuple[int, str]] = []
        self._next_id = 1
        self._task_id = 0

    # -- spans ---------------------------------------------------------------

    def _open(self, name: str) -> tuple[int, float]:
        sid = self._next_id
        self._next_id += 1
        if not self._stack:
            self._task_id = sid
        self._stack.append((sid, name))
        return sid, time.perf_counter()

    def _close(self, sid: int, start: float, name: str) -> None:
        end = time.perf_counter()
        self._stack.pop()
        parent = self._stack[-1][0] if self._stack else 0
        self._records.append((sid, parent, self._task_id, name, start, end))
        if not self._stack:
            self._fold()

    def _fold(self) -> None:
        child_time: dict[int, float] = defaultdict(float)
        for sid, parent, _task, _name, start, end in self._records:
            child_time[parent] += end - start
        for sid, _parent, _task, name, start, end in self._records:
            self.calls[name] += 1
            self.self_s[name] += (end - start) - child_time[sid]
        self._records.clear()

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span; the root span of a task is opened this way."""
        sid, start = self._open(name)
        try:
            return fn(*args, **kwargs)
        except self.capacity_error:
            self._count_capacity_error(name)
            raise
        finally:
            self._close(sid, start, name)

    def _count_capacity_error(self, name: str) -> None:
        # count once per escape from the moments layer, not at every frame
        parent = self._stack[-2][1] if len(self._stack) > 1 else ""
        if name.startswith("moments.") and not parent.startswith("moments."):
            self.counters["moments.capacity_errors"] += 1

    def wrap(self, name: str, fn, before=None, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                args = before(tracer, args)
            result = tracer.span(name, fn, *args, **kwargs)
            if after is not None:
                after(tracer, args, result)
            return result

        return wrapper

    # -- totals --------------------------------------------------------------

    def snapshot(self) -> dict[str, float]:
        """Totals since the last snapshot, keyed by metric name; then reset."""
        out: dict[str, float] = {}
        for name, calls in self.calls.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = self.self_s[name]
        out.update(self.counters)
        out["dyadic.objects"] = self.dyadic_objects[0]
        pairs = self.counters.get("moments.pairs", 0)
        expanded = self.calls.get("moments.expected_zeta_pair", 0)
        out["moments.pair_expand_ratio"] = expanded / pairs if pairs else 0.0
        self.calls.clear()
        self.self_s.clear()
        self.counters.clear()
        self.dyadic_objects[0] = 0
        return out


# ---------------------------------------------------------------------------
# Counters taken at wrapped boundaries


def _count_rows(tracer, args):
    path, header, rows = args[:3]

    def counted():
        for row in rows:
            tracer.counters["reports.write_csv.rows"] += 1
            yield row

    return (path, header, counted()) + tuple(args[3:])


def _file_bytes(metric):
    def after(tracer, args, _result):
        tracer.counters[metric] += os.path.getsize(args[0])
    return after


def _apply_steps(tracer, args, _result):
    tracer.counters["rules.apply.steps"] += len(args[1])


def _table_entries(tracer, _args, result):
    tracer.counters["rules.step_table.entries"] += int(result.signs.size)


def _pairs(tracer, _args, result):
    h = result.horizon
    tracer.counters["moments.pairs"] += h * (h - 1) // 2


BEFORE = {"reports.write_csv": _count_rows}
AFTER = {
    "reports.write_csv": _file_bytes("reports.write_csv.bytes"),
    "reports.write_beta_pixmap": _file_bytes("reports.write_beta_pixmap.bytes"),
    "rules.apply": _apply_steps,
    "rules.step_table": _table_entries,
    "moments.condition_B_partial": _pairs,
}


# ---------------------------------------------------------------------------
# Installing and removing the wrappers


def _gbrw_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "gbrw" or name.startswith("gbrw."))]


def install(tracer: Tracer):
    """Wrap the traced names in every gbrw module; returns an undo list."""
    modules = _gbrw_modules()
    cli = sys.modules["gbrw.cli"]
    targets = [(f"gbrw.{layer}", fn, f"{layer}.{fn}")
               for layer, names in FUNCTIONS.items() for fn in names]
    targets += [("gbrw.cli", attr, "cli." + attr[len("cmd_"):])
                for attr in vars(cli) if attr.startswith("cmd_")]
    undo = []
    for module_name, attr, span_name in targets:
        original = getattr(sys.modules[module_name], attr)
        wrapper = tracer.wrap(span_name, original,
                              BEFORE.get(span_name), AFTER.get(span_name))
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    undo.append((module, key, original))
                    setattr(module, key, wrapper)

    rule_base = sys.modules["gbrw.rules"].RecyclingRule
    methods = []
    for module in modules:
        for value in vars(module).values():
            if isinstance(value, type) and issubclass(value, rule_base):
                methods += [(value, meth, span) for meth, span in RULE_METHODS.items()]
    methods.append((sys.modules["gbrw.simulate"].SeedSpec, "increments",
                    "simulate.increments"))
    methods.append((sys.modules["gbrw.setseq"].SetSequence, "at", "setseq.at"))
    for cls, meth, span_name in set(methods):
        original = cls.__dict__.get(meth)
        if original is None:
            continue
        undo.append((cls, meth, original))
        setattr(cls, meth, tracer.wrap(span_name, original,
                                       BEFORE.get(span_name), AFTER.get(span_name)))

    dyadic = sys.modules["gbrw.dyadic"].Dyadic
    init = dyadic.__init__
    cell = tracer.dyadic_objects

    def counted_init(self, numerator, exponent=0):
        cell[0] += 1
        init(self, numerator, exponent)

    undo.append((dyadic, "__init__", init))
    dyadic.__init__ = counted_init
    return undo


def uninstall(undo) -> None:
    for owner, key, original in reversed(undo):
        setattr(owner, key, original)
