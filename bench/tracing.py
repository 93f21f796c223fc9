"""In-memory span tracing of nomassoc's module functions, from outside ``src/``.

:class:`Tracer` rebinds selected library functions to timing wrappers in
every ``nomassoc`` namespace that holds them (a name imported with
``from .dataset import _joint_codes`` is a separate binding, so each one is
replaced), records one span per call while tracing is active, and restores
the originals on :meth:`Tracer.uninstall`.  A span is ``(name, start, end,
parent)``; self time is a span's duration minus the time its direct
children cover.  Calls are single-threaded (the benchmark unsets
``NOMASSOC_THREADS``), so child spans never overlap.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

#: span name -> (module, attribute path) of the function it wraps.
SPANS = {
    "cli.dispatch": ("cli", "dispatch"),
    "dataset.load_delimited": ("dataset", "load_delimited"),
    "dataset.joint_codes": ("dataset", "_joint_codes"),
    "dataset.compose": ("dataset", "compose"),
    "dataset.contingency": ("dataset", "contingency"),
    "dataset.take": ("dataset", "CategoricalDataset.take"),
    "association.association_vector": ("association", "association_vector"),
    "association.association_matrix": ("association", "association_matrix"),
    "association.goodman_kruskal_tau": ("association", "goodman_kruskal_tau"),
    "association.weighted_tau": ("association", "weighted_tau"),
    "selection.select_supervised": ("selection", "select_supervised"),
    "selection.select_structural": ("selection", "select_structural"),
    "selection.verify_basis": ("selection", "verify_basis"),
    "equivalence.check": ("equivalence", "check"),
    "equivalence.hierarchy_scan": ("equivalence", "hierarchy_scan"),
    "prediction.fit": ("prediction", "fit"),
    "prediction.predict_and_score": ("prediction", "predict_and_score"),
    "resampling.bootstrap": ("resampling", "bootstrap"),
    "resampling.reduction_statistic": ("resampling", "reduction_statistic"),
    "scenarios.generate_flu": ("scenarios", "generate_flu"),
}


def _count_joint_codes(counts, args, result):
    dataset, indices = args[0], args[1]
    counts["dataset.joint_codes.row_members"] += dataset.n_rows * len(indices)


def _count_rows(counts, args, result):
    counts["dataset.load_delimited.rows"] += result.n_rows


def _count_skipped(counts, args, result):
    counts["selection.skipped"] += sum(len(step.skipped) for step in result.trace)


def _count_failures(counts, args, result):
    counts["resampling.failures"] += result.failures


def _count_evaluations(counts, args, result):
    counts["selection.evaluations"] += len(args[0])


#: span name -> counter hook run on each traced call's arguments and result.
HOOKS = {
    "dataset.joint_codes": _count_joint_codes,
    "dataset.load_delimited": _count_rows,
    "selection.select_supervised": _count_skipped,
    "selection.select_structural": _count_skipped,
    "resampling.bootstrap": _count_failures,
}

#: Functions that are counted but get no span of their own.
COUNTERS = {("selection", "_evaluate_all"): _count_evaluations}


class Tracer:
    """Span recorder for one benchmark process; see the module docstring."""

    def __init__(self):
        self.active = False
        self.spans: list = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        import nomassoc

        namespaces = [nomassoc] + [
            mod for name, mod in sys.modules.items()
            if name.startswith("nomassoc.")
        ]
        for name, (module, attr) in SPANS.items():
            self._patch(namespaces, module, attr, self._span(name, HOOKS.get(name)))
        for (module, attr), hook in COUNTERS.items():
            self._patch(namespaces, module, attr, self._counter(hook))

    def _patch(self, namespaces, module, attr, make_wrapper) -> None:
        owner = sys.modules[f"nomassoc.{module}"]
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        original = getattr(owner, leaf)
        wrapper = make_wrapper(original)
        targets = [owner] if path else namespaces
        for ns in targets:
            for key, value in list(vars(ns).items()):
                if value is original:
                    self._patched.append((ns, key, original))
                    setattr(ns, key, wrapper)

    def uninstall(self) -> None:
        for ns, key, original in reversed(self._patched):
            setattr(ns, key, original)
        self._patched.clear()

    def _span(self, name, hook):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        def make(fn):
            def wrapper(*args, **kwargs):
                if not self.active:
                    return fn(*args, **kwargs)
                index = len(spans)
                spans.append(None)
                parent = stack[-1] if stack else -1
                stack.append(index)
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = clock()
                    stack.pop()
                    spans[index] = (name, start, end, parent)
                if hook is not None:
                    hook(counts, args, result)
                return result

            wrapper.__wrapped__ = fn
            return wrapper

        return make

    def _counter(self, hook):
        def make(fn):
            def wrapper(*args, **kwargs):
                result = fn(*args, **kwargs)
                if self.active:
                    hook(self.counts, args, result)
                return result

            wrapper.__wrapped__ = fn
            return wrapper

        return make

    # -- benchmark-side spans ---------------------------------------------

    def root(self, name: str, fn):
        """Run ``fn`` under a top-level span (a benchmark task)."""
        return self._span(name, None)(fn)()

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()

    # -- aggregation -----------------------------------------------------

    def aggregate(self) -> dict[str, dict[str, float]]:
        """Per span name: busy time ``s``, ``calls`` and ``self_s``, plus the
        busy time of every library span under each root (task) span."""
        child_time = [0.0] * len(self.spans)
        root_of = [0] * len(self.spans)
        stats: dict[str, dict[str, float]] = defaultdict(
            lambda: {"s": 0.0, "calls": 0, "self_s": 0.0}
        )
        for i, (name, start, end, parent) in enumerate(self.spans):
            if parent >= 0:
                child_time[parent] += end - start
                root_of[i] = root_of[parent]
            else:
                root_of[i] = i
        by_root: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for i, (name, start, end, parent) in enumerate(self.spans):
            entry = stats[name]
            entry["s"] += end - start
            entry["calls"] += 1
            entry["self_s"] += end - start - child_time[i]
            if parent >= 0:
                by_root[self.spans[root_of[i]][0]][name] += end - start
        return {"spans": dict(stats), "by_root": {k: dict(v) for k, v in by_root.items()}}

    def dump(self, path) -> None:
        """Write the recorded spans as JSON: a name table and
        ``[name_index, start, end, parent]`` rows."""
        names: dict[str, int] = {}
        rows = [
            [names.setdefault(name, len(names)), start, end, parent]
            for name, start, end, parent in self.spans
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": list(names), "spans": rows}, fh)
