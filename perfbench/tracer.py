"""Traced run: spans around the calls into each module's public functions.

Each function is rebound under every name it is looked up by at call time
(a caller that did ``from .core import with_pair`` holds its own binding,
so patching the defining module alone would miss it).  Spans live in
memory as ``[name, start, end, parent, op]`` and are written out once at
the end.  A span's self time is its duration minus its children's.

Only the worker of a traced run imports this module.
"""

from __future__ import annotations

import gzip
import json
import time
from collections import Counter
from pathlib import Path

LAYERS = ("cli", "serialize", "core", "linalg", "methods", "axioms", "macrovertex")

# (span name, [(module, attribute), ...]) -- every binding a caller uses.
SPANS = [
    ("serialize.parse", [("pairrank.cli", "parse_problem_json"), ("pairrank.cli", "ingest_matches")]),
    ("core.validate", [("pairrank.core", "problem_from_results_matches"),
                       ("pairrank.serialize", "problem_from_results_matches")]),
    ("core.with_pair", [("pairrank.axioms", "with_pair"), ("pairrank.macrovertex", "with_pair")]),
    ("core.graph", [("pairrank.methods", "multigraph"), ("pairrank.methods", "laplacian"),
                    ("pairrank.axioms", "multigraph")]),
    ("linalg.solve", [("pairrank.methods", "solve_linear_system")]),
    ("methods.score", [("pairrank.methods", "row_sum"), ("pairrank.methods", "least_squares"),
                       ("pairrank.methods", "generalized_row_sum")]),
    ("methods.rank", [("pairrank.axioms", "induce_ranking"), ("pairrank.cli", "induce_ranking")]),
    ("axioms.iim", [("pairrank.cli", "search_iim_violation")]),
    ("axioms.sc", [("pairrank.cli", "check_sc"), ("pairrank.cli", "check_wsc")]),
    ("axioms.enumerate", [("pairrank.cli", "enumerate_sc_rankings"),
                          ("pairrank.axioms", "enumerate_sc_rankings")]),
    ("axioms.trace", [("pairrank.cli", "impossibility_trace")]),
    ("macrovertex.sweep", [("pairrank.cli", "search_mv_violation")]),
    ("macrovertex.find", [("pairrank.macrovertex", "find_macrovertices"),
                          ("pairrank.cli", "find_macrovertices")]),
]
# Generators: one span per item produced, so the time spent producing shows.
GENERATORS = [("methods.weak_orders", [("pairrank.axioms", "iter_weak_orders")])]
# Called too often for a span each; counted only (their time stays with the caller).
COUNTED = [
    ("axioms.pair_variants", [("pairrank.axioms", "pair_variants"), ("pairrank.macrovertex", "pair_variants")]),
    ("macrovertex.is_macrovertex", [("pairrank.macrovertex", "is_macrovertex")]),
]
ROOT = "cli.main"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = -1
        self.ops: list[str] = []
        self.counts: Counter = Counter()
        self.scored: set[tuple[int, str, str]] = set()  # distinct (op, method, problem)

    # -- recording -------------------------------------------------------
    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self.stack[-1] if self.stack else -1, self.op])
        self.stack.append(idx)
        self.spans[idx][1] = time.perf_counter()
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    def begin_op(self, label: str) -> None:
        self.op = len(self.ops)
        self.ops.append(label)
        self._open(ROOT)

    def end_op(self) -> None:
        while self.stack:  # an op that raised may leave inner spans open
            self._close(self.stack[-1])

    def _wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            self._count(name, args, result)
            return result

        return traced

    def _wrap_generator(self, name: str, fn):
        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                idx = self._open(name)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self._close(idx)
                self.counts[name] += 1
                yield item

        return traced

    def _wrap_counter(self, name: str, fn):
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            self._count(name, args, result)
            return result

        return counted

    def _count(self, name: str, args, result) -> None:
        counts = self.counts
        if name == "serialize.parse":
            source = args[0]
            counts["serialize.bytes"] += len(source if isinstance(source, str) else source.getvalue())
        elif name == "linalg.solve":
            n = len(args[0])
            counts["linalg.rows"] += n
            counts["linalg.work_n3"] += n**3
            counts["linalg.max_n"] = max(counts["linalg.max_n"], n)
        elif name == "methods.score":
            parent = self.spans[self.stack[-1]][0] if self.stack else ""
            if parent != "methods.score":  # least squares and grs call row_sum inside
                counts["methods.score_calls"] += 1
                self.scored.add((self.op, result.method, result.fingerprint))
        elif name in ("axioms.iim", "axioms.sc", "macrovertex.sweep"):
            counts["axioms.instances"] += result.instances_checked
        elif name == "macrovertex.find":
            counts["macrovertex.found"] += len(result)
        elif name == "axioms.pair_variants":
            counts["axioms.perturbations"] += len(result)
        elif name == "macrovertex.is_macrovertex":
            counts["macrovertex.subsets_tested"] += 1

    def install(self) -> None:
        import importlib

        import pairrank.cli  # noqa: F401  -- every module is loaded before rebinding

        for groups, wrap in ((SPANS, self._wrap), (GENERATORS, self._wrap_generator), (COUNTED, self._wrap_counter)):
            for name, targets in groups:
                wrapped = {}
                for module_name, attr in targets:
                    module = importlib.import_module(module_name)
                    original = getattr(module, attr)
                    if original not in wrapped:
                        wrapped[original] = wrap(name, original)
                    setattr(module, attr, wrapped[original])

    # -- reporting -------------------------------------------------------
    def self_times(self) -> list[float]:
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def summary(self, passes: int, factors: list[float]) -> dict[str, float]:
        """Per-layer metrics, averaged per pass; each op's times are scaled by
        its calibration factor, as the end-to-end times are."""
        total: Counter = Counter()
        own: Counter = Counter()
        calls: Counter = Counter()
        for span, self_s in zip(self.spans, self.self_times()):
            if span[4] < 0:  # outside any timed op (the warm-up call)
                continue
            name, scale = span[0], factors[span[4]]
            total[name] += (span[2] - span[1]) * scale
            own[name] += self_s * scale
            calls[name] += 1
        c = self.counts
        score_calls = c["methods.score_calls"]
        metrics = {
            "cli.calls": calls[ROOT],
            "cli.self_s": own[ROOT],
            "serialize.parse_calls": calls["serialize.parse"],
            "serialize.parse_s": total["serialize.parse"],
            "serialize.bytes_parsed": c["serialize.bytes"],
            "core.validate_calls": calls["core.validate"],
            "core.validate_s": total["core.validate"],
            "core.with_pair_calls": calls["core.with_pair"],
            "core.with_pair_self_s": own["core.with_pair"],
            "core.graph_s": total["core.graph"],
            "linalg.solve_calls": calls["linalg.solve"],
            "linalg.solve_s": total["linalg.solve"],
            "linalg.solve_rows": c["linalg.rows"],
            "linalg.solve_work_n3": c["linalg.work_n3"],
            "methods.score_calls": score_calls,
            "methods.score_self_s": own["methods.score"],
            "methods.rank_calls": calls["methods.rank"],
            "methods.rank_s": total["methods.rank"],
            "methods.weak_orders": c["methods.weak_orders"],
            "axioms.perturbations": c["axioms.perturbations"],
            "axioms.instances": c["axioms.instances"],
            "axioms.iim_self_s": own["axioms.iim"],
            "axioms.sc_self_s": own["axioms.sc"],
            "axioms.enumerate_self_s": own["axioms.enumerate"],
            "axioms.trace_s": total["axioms.trace"],
            "macrovertex.find_s": total["macrovertex.find"],
            "macrovertex.subsets_tested": c["macrovertex.subsets_tested"],
            "macrovertex.sweep_self_s": own["macrovertex.sweep"],
        }
        metrics = {k: v / passes for k, v in metrics.items()}
        # Not averaged: a maximum and two ratios.
        metrics["linalg.solve_max_n"] = c["linalg.max_n"]
        metrics["methods.score_unique_ratio"] = len(self.scored) / score_calls if score_calls else 0.0
        tested = c["macrovertex.subsets_tested"]
        metrics["macrovertex.found_ratio"] = c["macrovertex.found"] / tested if tested else 0.0
        return metrics

    def dump(self, path: Path) -> None:
        with gzip.open(path, "wt") as out:
            json.dump({"ops": self.ops, "fields": ["name", "start", "end", "parent", "op"],
                       "spans": self.spans}, out)
