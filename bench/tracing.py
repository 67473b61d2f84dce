"""Spans and counters at irlab's module boundaries, for the traced run only.

``Tracer.install`` replaces each public function listed in ``BOUNDARIES``
with a timing wrapper, in every ``irlab`` module that binds it (modules import
each other's functions by name), and ``uninstall`` puts the originals back.
A span is ``(name, start_ns, end_ns, parent, op)``; spans stay in memory
until ``write_spans``.  Self time is a span's duration minus its children's.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter, defaultdict
from time import perf_counter_ns

import click

from irlab.search import BudgetExceededError


def _count_f_vector(counts, result, exc):
    counts["cohesion.f_vector.calls"] += 1
    if isinstance(exc, BudgetExceededError):
        counts["cohesion.f_vector.capped"] += 1


def _count_solver(counts, result, exc):
    if result is not None:
        counts["solver.nodes"] += result.nodes
        counts["solver.undecided"] += result.status == "undecided"


def _count_axioms(counts, result, exc):
    if result is not None:
        counts["axioms.nodes"] += result.cost
        counts["axioms.undecided"] += result.status == "undecided"


def _count_rules(counts, result, exc):
    if result is not None:
        counts["rules.committees"] += len(result.committees)


def _count_recognize(counts, result, exc):
    counts["domains.recognize.attempts"] += 1
    counts["domains.recognize.hits"] += exc is None and result is not None


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


# (module, function, span name from the call's arguments, counter update)
BOUNDARIES = (
    ("irlab.gen", "generate", lambda a, kw: "gen.generate", None),
    ("irlab.cohesion", "f_vector", lambda a, kw: "cohesion.f_vector", _count_f_vector),
    (
        "irlab.solver",
        "find_committee",
        lambda a, kw: f"solver.find_committee.{_arg(a, kw, 0, 'request').objective}",
        _count_solver,
    ),
    (
        "irlab.axioms",
        "check",
        lambda a, kw: f"axioms.check.{_arg(a, kw, 2, 'axiom').kind}",
        _count_axioms,
    ),
    (
        "irlab.rules",
        "run_rule",
        lambda a, kw: f"rules.run_rule.{_arg(a, kw, 1, 'rule').kind}",
        _count_rules,
    ),
    ("irlab.domains", "recognize", lambda a, kw: "domains.recognize", _count_recognize),
    ("irlab.domains", "construct", lambda a, kw: "domains.construct", None),
    ("irlab.c1p", "consecutive_ones_order", lambda a, kw: "c1p.consecutive_ones_order", None),
    ("irlab.model", "parse_profile", lambda a, kw: "model.parse_profile", None),
    ("irlab.model", "serialize_profile", lambda a, kw: "model.serialize_profile", None),
    ("irlab.experiment", "run_experiment", lambda a, kw: "experiment.run_experiment", None),
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent, op]
        self.stack: list[int] = []
        self.op = -1
        self.counts: Counter = Counter()
        self._restore: list[tuple[object, str, object]] = []

    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, perf_counter_ns(), 0, parent, self.op])
        self.stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = perf_counter_ns()
        self.stack.pop()

    def _wrap(self, fn, span_name, count):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.begin(span_name(args, kwargs))
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as err:
                exc = err
                raise
            finally:
                self.end(index)
                if count is not None:
                    count(self.counts, result, exc)

        return traced

    def install(self, cli_group: click.Group) -> None:
        for module_name, attr, span_name, count in BOUNDARIES:
            original = getattr(sys.modules[module_name], attr)
            wrapper = self._wrap(original, span_name, count)
            for name, module in list(sys.modules.items()):
                if (name == "irlab" or name.startswith("irlab.")) and getattr(
                    module, attr, None
                ) is original:
                    self._restore.append((module, attr, original))
                    setattr(module, attr, wrapper)
        for name, command in cli_group.commands.items():
            self._restore.append((command, "callback", command.callback))
            command.callback = self._wrap(command.callback, lambda a, kw, n=name: f"cli.{n}", None)

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._restore):
            setattr(target, attr, original)
        self._restore.clear()

    def self_times(self, first: int = 0) -> dict[str, float]:
        """Seconds of self time per span name, over spans[first:]."""
        child_ns = defaultdict(int)
        for name, start, end, parent, op in self.spans[first:]:
            if parent >= 0:
                child_ns[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for index in range(first, len(self.spans)):
            name, start, end, parent, op = self.spans[index]
            totals[name] += (end - start - child_ns[index]) / 1e9
        return dict(totals)

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name,start_ns,end_ns,parent,op\n")
            for name, start, end, parent, op in self.spans:
                fh.write(f"{name},{start},{end},{parent},{op}\n")
