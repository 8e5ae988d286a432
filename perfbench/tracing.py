"""Span recording for the traced benchmark run.

``Tracer.install`` replaces public functions of the package with recording
wrappers, in every ``dissoc`` module that holds a binding of them: the
modules import each other's functions by name, so rebinding only the
defining module would miss most calls. Each span is a list
``[name, start, end, parent, busy, value]`` kept in memory until the run
ends. ``busy`` equals ``end - start`` except for generators, whose span
covers only the time spent inside ``next()``, not the consumer's work
between items. Self time is ``busy`` minus the ``busy`` of the children.
"""

from __future__ import annotations

import inspect
import sys
from time import perf_counter

# (module, attribute, span name, value recorded on the span). Generator
# spans record the number of items yielded; run_suite spans are named
# after the suite.
FUNCTIONS = [
    ("dissoc.mds", "phi", "mds.phi", int),
    ("dissoc.mds", "phi_refined", "mds.phi_refined", int),
    ("dissoc.mds", "mds_profile", "mds.mds_profile", lambda p: p.total),
    ("dissoc.mds", "enumerate_mds", "mds.enumerate_mds", None),
    ("dissoc.canon", "generate_trees", "canon.generate_trees", None),
    ("dissoc.canon", "generate_caterpillars", "canon.generate_caterpillars", None),
    ("dissoc.canon", "generate_unicyclic", "canon.generate_unicyclic", None),
    ("dissoc.canon", "tree_code", "canon.tree_code", None),
    ("dissoc.canon", "unicyclic_code", "canon.unicyclic_code", None),
    ("dissoc.graphs", "graph6_encode", "graphs.graph6_encode", None),
    ("dissoc.graphs", "graph6_decode", "graphs.graph6_decode", None),
    ("dissoc.graphs", "from_edges", "graphs.from_edges", None),
    ("dissoc.graphs", "delete_vertices", "graphs.delete_vertices", None),
    ("dissoc.families", "parse_family", "families.parse_family", None),
    ("dissoc.families", "spider_T", "families.spider_T", None),
    ("dissoc.families", "U_pq", "families.U_pq", None),
    ("dissoc.families", "U_rt", "families.U_rt", None),
    ("dissoc.families", "enumerate_U_rt_class", "families.enumerate_U_rt_class", None),
    ("dissoc.families", "extremal_trees", "families.extremal_trees", None),
    ("dissoc.families", "extremal_unicyclic", "families.extremal_unicyclic", None),
    ("dissoc.families", "extremal_caterpillars", "families.extremal_caterpillars", None),
    ("dissoc.suites", "run_suite", "suites.", len),
    ("dissoc.cli", "cmd_verify", "cli.cmd_verify", None),
    ("dissoc.cli", "format_corpus", "cli.format_corpus", None),
]
METHODS = [
    ("dissoc.cli", "CorpusCache", "store", "cli.CorpusCache.store"),
    ("dissoc.cli", "CorpusCache", "load", "cli.CorpusCache.load"),
]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []

    def install(self) -> None:
        """Rebind every listed function in every loaded ``dissoc`` module."""
        modules = [m for name, m in sys.modules.items() if name == "dissoc" or name.startswith("dissoc.")]
        for module_name, attr, name, value in FUNCTIONS:
            original = getattr(sys.modules[module_name], attr)
            if inspect.isgeneratorfunction(original):
                wrapper = self._generator(name, original)
            else:
                wrapper = self._function(name, original, value, suffix_from_arg=name == "suites.")
            for module in modules:
                namespace = vars(module)
                for key, bound in list(namespace.items()):
                    if bound is original:
                        setattr(module, key, wrapper)
                    elif isinstance(bound, dict):
                        for k, v in list(bound.items()):
                            if v is original:
                                bound[k] = wrapper
        for module_name, cls_name, attr, name in METHODS:
            cls = getattr(sys.modules[module_name], cls_name)
            setattr(cls, attr, self._function(name, getattr(cls, attr), None))

    def _function(self, name, fn, value, suffix_from_arg=False):
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            index = len(spans)
            span = [name + args[0] if suffix_from_arg else name, 0.0, 0.0, stack[-1] if stack else -1, 0.0, None]
            spans.append(span)
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                span[1], span[2], span[4] = start, end, end - start
            if value is not None:
                span[5] = value(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _generator(self, name, fn):
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, None, 0.0, stack[-1] if stack else -1, 0.0, 0]
            spans.append(span)
            inner = fn(*args, **kwargs)
            try:
                while True:
                    stack.append(index)
                    start = perf_counter()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        end = perf_counter()
                        stack.pop()
                        if span[1] is None:
                            span[1] = start
                        span[2] = end
                        span[4] += end - start
                    span[5] += 1
                    yield item
            finally:
                inner.close()

        traced.__wrapped__ = fn
        return traced

    def summary(self) -> dict:
        """Per span name: calls, busy and self seconds and summed values;
        calls made by the workload itself (no traced parent); the same for
        "outer" spans, whose parent is not in the same layer; and the number
        of calls made under each suite."""
        spans = self.spans
        child_busy = [0.0] * len(spans)
        for span in spans:
            if span[3] >= 0:
                child_busy[span[3]] += span[4]
        out: dict[str, dict] = {}
        for i, (name, _, _, parent, busy, value) in enumerate(spans):
            row = out.setdefault(name, dict.fromkeys(
                ["calls", "busy_s", "self_s", "value", "top_calls", "outer_busy_s", "outer_value"], 0))
            row.setdefault("by_suite", {})
            value = value or 0
            row["calls"] += 1
            row["busy_s"] += busy
            row["self_s"] += busy - child_busy[i]
            row["value"] += value
            row["top_calls"] += parent < 0
            if parent < 0 or spans[parent][0].split(".", 1)[0] != name.split(".", 1)[0]:
                row["outer_busy_s"] += busy
                row["outer_value"] += value
            suite = self._suite_of(i)
            if suite is not None:
                row["by_suite"][suite] = row["by_suite"].get(suite, 0) + 1
        return {"names": out, "spans": len(spans)}

    def _suite_of(self, index: int) -> str | None:
        parent = self.spans[index][3]
        while parent >= 0:
            name = self.spans[parent][0]
            if name.startswith("suites."):
                return name[len("suites."):]
            parent = self.spans[parent][3]
        return None
