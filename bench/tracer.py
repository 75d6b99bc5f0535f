"""Outside-in tracer: wraps package functions at their module attributes.

Nothing under `src/` knows about it. Each wrapped function records a span
(name, start, end, parent) in memory, or, for the hottest lookups, only a
call count; hooks turn arguments and results into exact work counts. A
function is wrapped where its caller looks it up, so `learner.find_witness`
catches the learner's witness searches but not the engine's own recursion.
A function that no longer exists is recorded as absent instead of failing,
because later changes are expected to delete some of them.
"""

from __future__ import annotations

import inspect
import statistics
import time
from collections import defaultdict
from typing import Callable


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counts: dict[str, float] = defaultdict(float)
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- wrapping -------------------------------------------------------------

    def wrap(
        self,
        owner: object,
        attr: str,
        name: str,
        span: bool = True,
        on_result: Callable | None = None,
        on_args: Callable | None = None,
    ) -> None:
        """Replace `owner.attr` with a recording wrapper named `name`."""
        try:
            raw = inspect.getattr_static(owner, attr)
        except AttributeError:
            self.absent.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        static = isinstance(raw, staticmethod)
        fn = raw.__func__ if static else raw
        wrapper = self._make(fn, name, span, on_result, on_args)
        self._restore.append((owner, attr, raw))
        setattr(owner, attr, staticmethod(wrapper) if static else wrapper)

    def _make(self, fn, name, span, on_result, on_args):
        spans, stack, counts = self.spans, self._stack, self.counts
        calls = f"{name}.calls"
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if on_args is not None:
                args, kwargs = on_args(self, args, kwargs)
            if span:
                record = [name, clock(), 0.0, stack[-1] if stack else -1]
                stack.append(len(spans))
                spans.append(record)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    record[2] = clock()
                    stack.pop()
            else:
                result = fn(*args, **kwargs)
            counts[calls] += 1
            if on_result is not None:
                on_result(counts, args, result)
            return result

        return wrapper

    def span_wrapper(self, fn: Callable, name: str) -> Callable:
        """A recording wrapper for a function passed as an argument."""
        return self._make(fn, name, True, None, None)

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._restore):
            setattr(owner, attr, raw)
        self._restore.clear()

    # -- summaries -------------------------------------------------------------

    def summary(self) -> dict[str, dict]:
        """Per span name: total and self seconds, and every duration."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict] = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            entry = out.setdefault(name, {"total": 0.0, "self": 0.0, "durations": []})
            entry["total"] += end - start
            entry["self"] += end - start - child_time[i]
            entry["durations"].append(end - start)
        return out


def install(tracer: Tracer, m) -> None:
    """Wrap every layer boundary the benchmark reports on; `m` holds the
    package modules as attributes."""

    def add(*pairs):
        def hook(counts, args, result):
            for key, value in pairs:
                counts[key] += value(args, result)

        return hook

    def wrap_learn_one(prefix):
        def hook(tr, args, kwargs):
            if "learn_one" in kwargs:
                kwargs = {**kwargs, "learn_one": tr.span_wrapper(kwargs["learn_one"], prefix)}
            else:
                args = args[:3] + (tr.span_wrapper(args[3], prefix),) + args[4:]
            return args, kwargs

        return hook

    accepted = add(("learner.clauses_accepted", lambda a, r: len(r.clauses)))
    w = tracer.wrap
    w(m.relstore, "load_database", "relstore.load",
      on_result=add(("relstore.tuples", lambda a, r: r.total_tuples())))
    w(m.relstore.DatabaseInstance, "build", "relstore.build")
    w(m.relstore.DatabaseInstance, "matching_rows", "relstore.matching_rows", span=False,
      on_result=add(("relstore.rows_examined", lambda a, r: len(r))))
    # induce_bias looks discover_inds up in biasgen, not in profiler
    w(m.biasgen, "discover_inds", "profiler.discover_inds",
      on_result=add(("profiler.inds", lambda a, r: len(r.inds))))
    w(m.biasgen, "induce_bias", "biasgen.induce_bias", on_result=add(
        ("biasgen.predicates", lambda a, r: len(r.predicates)),
        ("biasgen.modes", lambda a, r: len(r.modes)),
    ))
    w(m.learner, "learn_definition", "learner.learn_definition")
    w(m.learner, "_cover_set", "learner.cover_set", on_result=accepted,
      on_args=wrap_learn_one("learner.learn_one"))
    w(m.lgg, "_cover_set", "lgg.cover_set", on_result=accepted,
      on_args=wrap_learn_one("lgg.learn_one"))
    w(m.learner, "_saturate", "learner.saturate",
      on_result=add(("learner.bottom_literals", lambda a, r: len(r))))
    w(m.learner, "armg", "learner.armg", on_result=add(
        ("learner.armg_in", lambda a, r: len(a[0].body)),
        ("learner.armg_kept", lambda a, r: len(r.body)),
    ))
    w(m.learner, "generalize_clause", "learner.generalize_clause")
    w(m.learner, "find_witness", "clauses.find_witness",
      on_result=add(("clauses.find_witness_refuted", lambda a, r: r is None)))
    w(m.learner, "covered_examples", "clauses.covered_examples",
      on_result=add(("clauses.covered_examples_overflows", lambda a, r: r is None)))
    w(m.learner, "covers", "clauses.covers", span=False)
    w(m.learner.CoverageCache, "covers", "learner.coverage_test", span=False)
    w(m.learner, "fold_singleton_literals", "clauses.fold")
    w(m.learner, "minimize", "clauses.minimize")
    w(m.lgg, "minimize", "clauses.minimize")
    w(m.evaluation, "generate_negatives", "evaluation.generate_negatives",
      on_result=add(("evaluation.negatives", lambda a, r: len(r))))
    w(m.evaluation, "cross_validate", "evaluation.cross_validate")
    w(m.evaluation, "learn_definition", "evaluation.fold_learn")
    w(m.evaluation, "lgg_learn", "evaluation.fold_learn")
    w(m.evaluation, "precision_recall", "evaluation.precision_recall")
    w(m.lgg, "lgg_clauses", "lgg.lgg_clauses")
    w(m.lgg, "ground_bottom_clause", "lgg.ground_bottom_clause")
    w(m.clauses, "subsumes", "clauses.subsumes")


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer metrics, 0 for a layer the workload never entered."""
    spans = tracer.summary()
    c = tracer.counts

    def total(name):
        return spans.get(name, {}).get("total", 0.0)

    def self_time(*names):
        return sum(spans.get(n, {}).get("self", 0.0) for n in names)

    def calls(name):
        return int(c.get(f"{name}.calls", 0))

    def ratio(num, den):
        return num / den if den else 0.0

    folds = spans.get("evaluation.fold_learn", {}).get("durations", [])
    return {
        "relstore.load_s": total("relstore.load"),
        "relstore.build_s": total("relstore.build"),
        "relstore.build_calls": calls("relstore.build"),
        "relstore.tuples": int(c["relstore.tuples"]),
        "relstore.matching_rows_calls": calls("relstore.matching_rows"),
        "relstore.rows_examined": int(c["relstore.rows_examined"]),
        "profiler.discover_inds_s": total("profiler.discover_inds"),
        "profiler.inds": int(c["profiler.inds"]),
        "biasgen.self_s": self_time("biasgen.induce_bias"),
        "biasgen.predicates": int(c["biasgen.predicates"]),
        "biasgen.modes": int(c["biasgen.modes"]),
        "learner.learn_definition_s": total("learner.learn_definition"),
        "learner.saturate_s": total("learner.saturate"),
        "learner.seeds": calls("learner.learn_one") + calls("lgg.learn_one"),
        "learner.bottom_literals": int(c["learner.bottom_literals"]),
        "learner.armg_self_s": self_time("learner.armg"),
        "learner.armg_calls": calls("learner.armg"),
        "learner.armg_kept_ratio": ratio(c["learner.armg_kept"], c["learner.armg_in"]),
        "clauses.find_witness_s": total("clauses.find_witness"),
        "clauses.find_witness_calls": calls("clauses.find_witness"),
        "clauses.find_witness_refuted_ratio": ratio(
            c["clauses.find_witness_refuted"], calls("clauses.find_witness")
        ),
        "learner.coverage_tests": calls("learner.coverage_test"),
        "learner.coverage_eval_ratio": ratio(
            calls("clauses.covered_examples"), calls("learner.coverage_test")
        ),
        "clauses.covered_examples_s": total("clauses.covered_examples"),
        "clauses.covered_examples_calls": calls("clauses.covered_examples"),
        "clauses.covered_examples_overflows": int(c["clauses.covered_examples_overflows"]),
        "clauses.covers_calls": calls("clauses.covers"),
        "learner.generalize_self_s": self_time("learner.generalize_clause"),
        "clauses.fold_s": total("clauses.fold"),
        "clauses.minimize_s": total("clauses.minimize"),
        "learner.clauses_accepted": int(c["learner.clauses_accepted"]),
        "learner.seed_accept_ratio": ratio(
            c["learner.clauses_accepted"],
            calls("learner.learn_one") + calls("lgg.learn_one"),
        ),
        "evaluation.cross_validate_s": total("evaluation.cross_validate"),
        "evaluation.negatives": int(c["evaluation.negatives"]),
        "evaluation.fold_learn_s_median": statistics.median(folds) if folds else 0.0,
        "evaluation.fold_learn_s_max": max(folds, default=0.0),
        "evaluation.precision_recall_s": total("evaluation.precision_recall"),
        "lgg.self_s": self_time("lgg.learn_one", "lgg.lgg_clauses"),
        "lgg.lgg_clauses_s": total("lgg.lgg_clauses"),
        "lgg.ground_bottom_s": total("lgg.ground_bottom_clause"),
        "clauses.subsumes_calls": calls("clauses.subsumes"),
        "clauses.subsumes_s": total("clauses.subsumes"),
    }
