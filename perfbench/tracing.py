"""Spans around the library's public functions, recorded from outside.

`patch` replaces each traced function with a wrapper in every
`curvedet` module that holds it, so aliases bound by `from ... import`
(`series.contains_subscheme`, `witness.contains_subscheme`, the package
re-exports) are traced too, and puts the originals back on exit.  The
source is never edited.

A span is (name, start, end, parent, op): times from
`time.perf_counter_ns`, `parent` the index of the enclosing span or -1,
`op` the index of the operation it belongs to.  Spans are kept in
compact arrays and written out when the run ends.  A generator is
traced one span per resumption, so the consumer's work between items is
not charged to it.
"""

from __future__ import annotations

import contextlib
import inspect
import json
import sys
from array import array
from collections import defaultdict
from functools import wraps
from math import comb
from time import perf_counter_ns

from curvedet.resolution import plane_dim

# Public functions traced, by layer.  Each name is `<module>.<function>`.
TRACED = (
    "cli.run",
    "degree_matrix.canonicalize",
    "decide.contains_subscheme",
    "decide.corollary_case",
    "decide.scan",
    "decide.stable_threshold",
    "decide.census",
    "decide.iter_dhb_matrices",
    "decide.representable",
    "resolution.hilbert_function",
    "resolution.betti_of_matrix",
    "resolution.generic_betti",
    "series.analyze",
    "series.enumerate_hvectors",
    "witness.sample_matrix",
    "witness.restrict_det_to_line",
    "witness.verify_representable",
    "witness.maximal_minors",
    "witness.det_form",
    "witness.ideal_dim",
    "witness.verify_subscheme",
)


def _restrict_evals(a, result) -> int:
    """Form evaluations of one restriction: (max_degree + 1) * n^2."""
    return (a["max_degree"] + 1) * a["N"].rows ** 2


def _rank_cells(a, result) -> int:
    """rows x cols of the rank problem `ideal_dim(gens, t)` solves."""
    t = a["t"]
    rows = sum(plane_dim(t - g.degree) for g in a["gens"] if not g.is_zero and g.degree <= t)
    return rows * plane_dim(t)


def _potential_pairs(a, result) -> int:
    """(row, column) potential pairs `iter_dhb_matrices(n, bound)` examines:
    non-increasing row tuples in [-bound, bound] with a non-negative head,
    times non-decreasing column tuples in [0, bound]."""
    k, bound = a["n"] - 1, a["bound"]
    return (comb(2 * bound + k, k) - comb(bound + k - 1, k)) * comb(bound + k, k)


# Work counts the benchmark computes from each call's arguments or result.
COUNTS = {
    "witness.restrict_det_to_line": {"evals": _restrict_evals},
    "witness.ideal_dim": {"cells": _rank_cells},
    "series.enumerate_hvectors": {"rows": lambda a, result: len(result)},
    "decide.iter_dhb_matrices": {"pairs": _potential_pairs},
}


class Tracer:
    """Spans and work counts of one traced pass, kept in memory."""

    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.op = array("i")
        self.stack = [-1]
        self.current_op = -1
        self.counts: dict[str, int] = defaultdict(int)
        self.generators: set[int] = set()

    def _open(self, name_id: int) -> int:
        index = len(self.start)
        self.name.append(name_id)
        self.parent.append(self.stack[-1])
        self.op.append(self.current_op)
        self.end.append(0)
        self.stack.append(index)
        self.start.append(perf_counter_ns())
        return index

    def _close(self, index: int):
        self.end[index] = perf_counter_ns()
        self.stack.pop()

    def _name_id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    @contextlib.contextmanager
    def operation(self, op_index: int, label: str):
        """The root span of one operation."""
        self.current_op = op_index
        index = self._open(self._name_id(label))
        try:
            yield
        finally:
            self._close(index)
            self.current_op = -1

    def wrap(self, name: str, fn):
        name_id = self._name_id(name)
        counters = COUNTS.get(name, {})
        signature = inspect.signature(fn)

        def count(args, kwargs, result):
            if counters:
                bound = signature.bind(*args, **kwargs).arguments
                for key, counter in counters.items():
                    self.counts[f"{name}.{key}"] += counter(bound, result)

        if inspect.isgeneratorfunction(fn):
            self.generators.add(name_id)

            @wraps(fn)
            def traced_generator(*args, **kwargs):
                self.counts[f"{name}.calls"] += 1
                count(args, kwargs, None)
                iterator = fn(*args, **kwargs)
                while True:
                    index = self._open(name_id)
                    try:
                        item = next(iterator)
                    except StopIteration:
                        return
                    finally:
                        self._close(index)
                    self.counts[f"{name}.yielded"] += 1
                    yield item

            return traced_generator

        @wraps(fn)
        def traced(*args, **kwargs):
            index = self._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            count(args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def patch(self, names=TRACED):
        """Trace `names` in every loaded curvedet module for the duration."""
        modules = [m for key, m in list(sys.modules.items()) if key == "curvedet" or key.startswith("curvedet.")]
        undo = []
        try:
            for name in names:
                module_name, func_name = name.split(".")
                original = getattr(sys.modules[f"curvedet.{module_name}"], func_name)
                wrapper = self.wrap(name, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            undo.append((module, attr, original))
            yield
        finally:
            for module, attr, original in reversed(undo):
                setattr(module, attr, original)

    def layer_metrics(self) -> dict[str, float]:
        """calls, self seconds and work counts per traced function.

        Self time is a span's duration minus the durations of its direct
        children; spans nest strictly, so the children never overlap.
        """
        n = len(self.start)
        child = [0] * n
        parent, start, end = self.parent, self.start, self.end
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        calls = defaultdict(int)
        self_ns = defaultdict(int)
        threshold_decisions = 0
        contains = self.name_ids.get("decide.contains_subscheme")
        threshold = self.name_ids.get("decide.stable_threshold")
        for i in range(n):
            name = self.name[i]
            calls[name] += 1
            self_ns[name] += end[i] - start[i] - child[i]
            if name == contains and parent[i] >= 0 and self.name[parent[i]] == threshold:
                threshold_decisions += 1
        out: dict[str, float] = {}
        for name in TRACED:
            name_id = self.name_ids.get(name)
            # a generator has one span per resumption; its calls are counted apart
            generator = name_id in self.generators
            out[f"{name}.calls"] = self.counts[f"{name}.calls"] if generator else calls[name_id]
            out[f"{name}.self_s"] = self_ns[name_id] / 1e9
        yielded = self.counts["decide.iter_dhb_matrices.yielded"]
        pairs = self.counts["decide.iter_dhb_matrices.pairs"]
        out["decide.iter_dhb_matrices.yielded"] = yielded
        out["decide.iter_dhb_matrices.yield_ratio"] = yielded / pairs if pairs else 0.0
        st_calls = out["decide.stable_threshold.calls"]
        out["decide.stable_threshold.decisions_per_call"] = threshold_decisions / st_calls if st_calls else 0.0
        out["witness.restrict_det_to_line.evals"] = self.counts["witness.restrict_det_to_line.evals"]
        out["witness.ideal_dim.cells"] = self.counts["witness.ideal_dim.cells"]
        out["series.enumerate_hvectors.rows"] = self.counts["series.enumerate_hvectors.rows"]
        out["trace.spans"] = n
        return out

    def dump(self, path: str):
        """Write every span as one JSON line."""
        names = self.names
        with open(path, "w") as fh:
            for i in range(len(self.start)):
                fh.write(json.dumps({
                    "name": names[self.name[i]],
                    "start_ns": self.start[i],
                    "end_ns": self.end[i],
                    "parent": self.parent[i],
                    "op": self.op[i],
                }, separators=(",", ":")) + "\n")
