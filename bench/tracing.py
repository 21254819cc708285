"""Spans around eqlx's layers, recorded from outside the package.

The recorder replaces functions at the module bindings their callers look
up (``eqlx.solver.reduct_program``, ``eqlx.equivalence.value5``, ...), so
eqlx itself is unchanged.  Each call becomes a span: name, start, end, the
span that was open when it started, the task id, and the exception type if
it raised.  Generators are timed per ``next``.  Spans stay in memory until
:meth:`Recorder.write`.  A span's self time is its duration minus the
durations of its child spans (one thread, so children never overlap).
"""

from __future__ import annotations

import functools
import importlib
from collections import Counter
from time import perf_counter

# (module, attribute, span name, kind).  The span name's prefix is the layer.
WRAPS = (
    ("eqlx.cli", "main", "cli.main", "call"),
    ("eqlx.cli", "_tokenize", "parser.tokenize", "call"),
    ("eqlx.cli", "parse_formula", "parser.parse_formula", "call"),
    ("eqlx.cli", "parse_theory", "parser.parse_theory", "call"),
    ("eqlx.cli", "parse_interpretation", "parser.parse_interpretation", "call"),
    ("eqlx.cli", "canonical_print", "core.canonical_print", "call"),
    ("eqlx.cli", "value5", "semantics.value5", "call"),
    ("eqlx.equivalence", "value5", "semantics.value5", "call"),
    ("eqlx.transform", "value5", "semantics.value5", "call"),
    ("eqlx.cli", "x5_sat", "semantics.x5_sat", "call"),
    ("eqlx.equivalence", "x5_sat", "semantics.x5_sat", "call"),
    ("eqlx.solver", "enumerate_interpretations", "solver.enumerate_interpretations", "gen"),
    ("eqlx.equivalence", "enumerate_x5", "solver.enumerate_x5@equivalence", "gen"),
    ("eqlx.transform", "enumerate_x5", "solver.enumerate_x5@transform", "gen"),
    ("eqlx.cli", "answer_sets", "solver.answer_sets", "engine"),
    ("eqlx.cli", "equilibrium_models", "solver.equilibrium_models@cli", "engine"),
    ("eqlx.cli", "equilibrium_models_ferraris", "solver.equilibrium_models_ferraris", "engine"),
    ("eqlx.equivalence", "equilibrium_models", "solver.equilibrium_models@equivalence", "engine"),
    ("eqlx.solver", "reduct_program", "reduct.reduct_program", "call"),
    ("eqlx.solver", "ferraris_theory", "reduct.ferraris_theory", "call"),
    ("eqlx.cli", "is_valid", "equivalence.is_valid", "call"),
    ("eqlx.cli", "weak_equiv", "equivalence.weak_equiv", "call"),
    ("eqlx.cli", "subst_equiv", "equivalence.subst_equiv", "call"),
    ("eqlx.cli", "discriminating_context", "equivalence.discriminating_context", "call"),
    ("eqlx.cli", "to_nnf", "transform.to_nnf", "call"),
    ("eqlx.cli", "to_nnf_program", "transform.to_nnf_program", "call"),
    ("eqlx.cli", "to_regular", "transform.to_regular", "regular"),
    ("eqlx.cli", "export_asp", "transform.export_asp", "call"),
)

NAME, START, END, PARENT, TASK, ERROR = range(6)


class Recorder:
    """Installs the wrappers, records spans and counts, and removes them again."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.task = -1
        self.counts = Counter()
        self._saved = []

    # -- recording -----------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self.stack[-1] if self.stack else -1,
                           self.task, None])
        self.stack.append(idx)
        self.spans[idx][START] = perf_counter()
        return idx

    def _close(self, idx: int, exc: BaseException = None) -> None:
        end = perf_counter()
        self.stack.pop()
        span = self.spans[idx]
        span[END] = end
        if exc is not None:
            span[ERROR] = type(exc).__name__
            if type(exc).__name__ == "SignatureTooLarge" and not getattr(exc, "_traced", False):
                exc._traced = True
                if span[NAME].startswith("solver."):
                    self.counts["guard_trips"] += 1

    def _call(self, name, fn, kind):
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = rec._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                rec._close(idx, exc)
                raise
            rec._close(idx)
            if kind == "engine":
                rec.counts["models"] += len(result)
            elif kind == "regular":
                rec.counts["regular_in"] += len(args[0])
                rec.counts["regular_out"] += len(result)
            return result
        return wrapper

    def _gen(self, name, fn):
        rec = self

        @functools.wraps(fn)
        def wrapper(signature, *args, **kwargs):
            signature = list(signature)
            return rec._iterate(name, fn(signature, *args, **kwargs), len(set(signature)))
        return wrapper

    def _iterate(self, name, gen, n_atoms):
        pulled = 0
        while True:
            idx = self._open(name)
            try:
                item = next(gen)
            except StopIteration:
                self._close(idx)
                break
            except BaseException as exc:
                self._close(idx, exc)
                raise
            self._close(idx)
            if pulled == 0:  # the scan got past the guard: 5^n points are on offer
                self.counts["available:" + name] += 5 ** n_atoms
            pulled += 1
            self.counts["pulled:" + name] += 1
            yield item

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        for module_name, attr, name, kind in WRAPS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            wrapped = self._gen(name, fn) if kind == "gen" else self._call(name, fn, kind)
            setattr(module, attr, wrapped)

    def uninstall(self) -> None:
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("id\tname\tstart\tend\tparent\ttask\terror\n")
            for i, s in enumerate(self.spans):
                handle.write(f"{i}\t{s[NAME]}\t{s[START]:.9f}\t{s[END]:.9f}\t"
                             f"{s[PARENT]}\t{s[TASK]}\t{s[ERROR] or ''}\n")

    # -- analysis ----------------------------------------------------------------

    def self_times(self) -> list:
        spans = self.spans
        own = [s[END] - s[START] for s in spans]
        for s in spans:
            if s[PARENT] >= 0:
                own[s[PARENT]] -= s[END] - s[START]
        return own

    def layer_metrics(self, task_commands, verify_s: float, overhead_share: float) -> dict:
        """Every per-layer metric, from the spans and counts of one traced pass.

        ``task_commands`` maps a task id to its subcommand.
        """
        own = self.self_times()
        calls, self_s, errors = Counter(), Counter(), Counter()
        resolve_calls = 0
        for i, s in enumerate(self.spans):
            name = s[NAME]
            group = _group(name)
            calls[group] += 1
            self_s[group] += own[i]
            if s[ERROR]:
                errors[group] += 1
            if name == "solver.equilibrium_models@cli" and task_commands.get(s[TASK]) == "context":
                resolve_calls += 1
        c = self.counts
        candidates = (c["pulled:solver.enumerate_interpretations"]
                      + c["pulled:solver.enumerate_x5@equivalence"]
                      + c["pulled:solver.enumerate_x5@transform"])
        scanned = c["pulled:solver.enumerate_x5@equivalence"]
        available = c["available:solver.enumerate_x5@equivalence"]
        interp = c["pulled:solver.enumerate_interpretations"]
        return {
            "parser.calls": (calls["parser"], "count"),
            "parser.self_s": (self_s["parser"], "s"),
            "parser.errors": (errors["parser"], "count"),
            "core.print_calls": (calls["core"], "count"),
            "core.print_self_s": (self_s["core"], "s"),
            "semantics.value5_calls": (calls["value5"], "count"),
            "semantics.value5_self_s": (self_s["value5"], "s"),
            "semantics.x5_sat_calls": (calls["x5_sat"], "count"),
            "semantics.x5_sat_self_s": (self_s["x5_sat"], "s"),
            "solver.candidates": (candidates, "count"),
            "solver.enumerate_self_s": (self_s["enumerate"], "s"),
            "solver.engine_calls": (calls["engine"], "count"),
            "solver.check_self_s": (self_s["engine"], "s"),
            "solver.model_yield": (c["models"] / interp if interp else 0.0, "ratio"),
            "solver.guard_trips": (c["guard_trips"], "count"),
            "reduct.calls": (calls["reduct"], "count"),
            "reduct.self_s": (self_s["reduct"], "s"),
            "equivalence.calls": (calls["equivalence"], "count"),
            "equivalence.self_s": (self_s["equivalence"], "s"),
            "equivalence.scanned_share": (scanned / available if available else 0.0, "ratio"),
            "transform.verify_s": (verify_s, "s"),
            "transform.calls": (calls["transform"], "count"),
            "transform.self_s": (self_s["transform"], "s"),
            "transform.rules_out_per_in": (
                c["regular_out"] / c["regular_in"] if c["regular_in"] else 0.0, "ratio"),
            "cli.self_s": (self_s["cli"], "s"),
            "cli.resolve_calls": (resolve_calls, "count"),
            "trace.overhead_share": (overhead_share, "ratio"),
        }


def _group(name: str) -> str:
    """Metric group of a span name: its layer, split finer for semantics and solver."""
    layer, _, fn = name.partition(".")
    if layer == "semantics":
        return fn
    if layer == "solver":
        return "enumerate" if fn.startswith("enumerate") else "engine"
    return layer
