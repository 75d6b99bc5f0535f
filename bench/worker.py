"""One benchmark process: runs a workload's pipeline on generated instances.

Started by run.py as `python3 bench/worker.py <job.json>`; never generates
inputs itself. Modes:

- `timed`: after one warm-up pipeline, rounds over every instance,
  tracing off, as many as the workload's nominal round length fits in
  `seconds` (at least one); the first round also gathers the inputs of
  the output checks;
- `trace`: each of the first `trace_instances` instances untraced, then
  again under the tracer;
- `replay`: the first instance only, to compare learned definitions
  across hash seeds.

Writes one JSON object to the job's `out` path.
"""

from __future__ import annotations

import dataclasses
import gc
import json
import random
import resource
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

import tracer as tracing
from workloads import FOLDS, NEG_RATIO, Workload

SAMPLE = 15  # positives and negatives per definition for check (a)
CHECKED_INSTANCES = 2  # instances per pass whose definitions check (a) re-scores
IND_ALPHA = 0.5  # induce_bias's default


def peak_rss_mb() -> float:
    """This process's peak resident set. Linux's ru_maxrss keeps the
    parent's resident set from before exec, so VmHWM is read first."""
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def import_package(src: str) -> SimpleNamespace:
    sys.path.insert(0, src)
    from automode import biasgen, clauses, evaluation, learner, lgg, profiler, relstore

    return SimpleNamespace(
        biasgen=biasgen, clauses=clauses, evaluation=evaluation, learner=learner,
        lgg=lgg, profiler=profiler, relstore=relstore,
    )


class FoldCapture:
    """Records each definition cross_validate learns, with its training set."""

    def __init__(self, m: SimpleNamespace) -> None:
        self.folds: list[tuple] = []
        for attr in ("learn_definition", "lgg_learn"):
            self._wrap(m.evaluation, attr)

    def _wrap(self, module, attr):
        fn = getattr(module, attr)

        def capture(db, examples, *args, **kwargs):
            definition = fn(db, examples, *args, **kwargs)
            self.folds.append((examples, definition))
            return definition

        setattr(module, attr, capture)


REF_ROWS = [(f"a{i % 97}", f"b{i % 89}", i) for i in range(2000)]
REF_S = 0.0025  # seconds `reference` takes on the sizing machine when it runs fast


def reference() -> float:
    """Seconds a fixed pure-Python routine takes. It does the package's
    kind of work (grouping rows in a dict, scanning the groups, hashing
    tuples) but shares no code with it, so no change to the package moves
    it: it gauges how fast the shared host runs at this moment."""
    start = time.perf_counter()
    index: dict = {}
    for row in REF_ROWS:
        index.setdefault(row[0], []).append(row)
    hits, seen = 0, set()
    for a, b, i in REF_ROWS:
        for other in index[a]:
            hits += other[1] == b
        seen.add((b, i % 13))
    return time.perf_counter() - start


def run_instance(m, spec, inst, capture: FoldCapture) -> tuple[dict, object, list]:
    """The timed pipeline on one instance, with `reference` timed before
    and after each stage and each cheap stage (set-up, bias, negatives)
    run `spec.repeats` times; returns its record (times, quality, inputs for
    the untimed checks), the registered database and the (training
    examples, definition) pairs."""
    d, target = Path(inst["dir"]), inst["target"]
    capture.folds.clear()
    refs = [reference()]

    def timed(fn, *args, repeats=1):
        """The last result of `repeats` back-to-back calls, and the
        fastest call's seconds."""
        seconds = []
        for _ in range(repeats):
            start = time.perf_counter()
            result = fn(*args)
            seconds.append(time.perf_counter() - start)
        refs.append(reference())
        return result, min(seconds)

    def setup():
        db = m.relstore.load_database(d / "schema.txt", d / "facts", examples_backed=(target,))
        examples = m.relstore.load_examples(d / "examples.txt", db.schema(target))
        return m.relstore.register_target(db, examples), examples

    (db, examples), setup_s = timed(setup, repeats=spec.repeats)
    bias, bias_s = timed(m.biasgen.induce_bias, db, target, repeats=spec.repeats)
    negatives, negatives_s = timed(
        m.evaluation.generate_negatives,
        db, examples.positives, examples.target, NEG_RATIO, inst["seed"],
        repeats=spec.repeats,
    )
    examples = m.relstore.ExampleSet(examples.target, examples.positives, negatives)
    cfg = m.learner.LearnConfig(iterations=spec.iterations)
    definitions, quality = [], {}
    if spec.stage == "learn":
        definition, stage_s = timed(m.learner.learn_definition, db, examples, bias, cfg)
        definitions = [(examples, definition)]
    elif spec.stage == "cv":
        report, stage_s = timed(
            lambda: m.evaluation.cross_validate(
                db, examples, bias, cfg, FOLDS, inst["seed"], generalizer=spec.generalizer
            )
        )
        definitions = list(capture.folds)
        quality = {
            "holdout_precision": report.mean_precision,
            "holdout_recall": report.mean_recall,
        }
    else:
        stage_s = 0.0
        refs.append(refs[-1])
    if definitions:
        quality["body_literals"] = sum(
            len(c.body) for _, d_ in definitions for c in d_.clauses
        ) / len(definitions)
    record = {
        "times": {
            "setup_s": [setup_s],
            "bias_s": [bias_s],
            "negatives_s": [negatives_s],
            "stage_s": [stage_s],
            # before and after each of the four stages, in their order
            "reference_s": [refs],
        },
        "quality": quality,
        "definitions": [str(d_) for _, d_ in definitions],
        "negatives": [list(n) for n in negatives],
        "bias_roundtrip": m.biasgen.read_bias(m.biasgen.write_bias(bias)) == bias,
    }
    return record, db, definitions


def coverage_samples(m, db, definitions, seed: int) -> list[dict]:
    """Check (a) inputs: the package's precision/recall of each definition
    on a seeded sample of its own training examples."""
    rng = random.Random(seed)
    out = []
    for examples, definition in definitions:
        pos = rng.sample(examples.positives, min(SAMPLE, len(examples.positives)))
        neg = rng.sample(examples.negatives, min(SAMPLE, len(examples.negatives)))
        p, r = m.evaluation.precision_recall(definition, tuple(pos), tuple(neg), db)
        out.append({
            "definition": str(definition),
            "positives": pos,
            "negatives": neg,
            "precision": p,
            "recall": r,
        })
    return out


def run_pass(m, spec, instances, capture, count, checks=True, start=0) -> list[dict]:
    """`count` instances in order (cycling) from index `start`.

    With `checks`, the untimed extras follow each instance: training
    precision/recall and the inputs of checks (a) and (b)."""
    results = []
    for k in range(start, start + count):
        inst = instances[k % len(instances)]
        gc.collect()  # no instance pays for the garbage of the one before
        try:
            res, db, definitions = run_instance(m, spec, inst, capture)
            if checks and spec.stage == "learn":
                examples, definition = definitions[0]
                p, r = m.evaluation.precision_recall(
                    definition, examples.positives, examples.negatives, db
                )
                res["quality"].update(train_precision=p, train_recall=r)
            if checks and k < CHECKED_INSTANCES:
                res["samples"] = coverage_samples(m, db, definitions, inst["seed"])
            if checks and k == 0:
                res["inds"] = [
                    [i.lhs.relation, i.lhs.position, i.rhs.relation, i.rhs.position, i.error]
                    for i in m.profiler.discover_inds(db, IND_ALPHA).inds
                ]
            del db, definitions
        except Exception:  # a failing operation is counted, not fatal
            res = {"error": traceback.format_exc()}
        res["instance"] = k % len(instances)
        results.append(res)
    return results


def run_rounds(m, spec, instances, capture, seconds) -> tuple[list[dict], int]:
    """One untimed warm-up pipeline, then `spec.rounds(seconds)` rounds
    over every instance; returns one record per instance, holding the
    first round's check inputs and every round's timings, and the round
    count. The round count depends on `seconds` only, not on the machine's
    speed, so every run does the same work."""
    run_pass(m, spec, instances, capture, 1, checks=False)
    n = len(instances)
    results = run_pass(m, spec, instances, capture, n)
    rounds = spec.rounds(seconds)
    for _ in range(rounds - 1):
        later = run_pass(m, spec, instances, capture, n, checks=False)
        for res, more in zip(results, later):
            if "error" in more:
                res["error"] = more["error"]
            elif "error" not in res:
                for key, values in more["times"].items():
                    res["times"][key] += values
    return results, rounds


def main(job_path: str) -> None:
    job = json.loads(Path(job_path).read_text(encoding="utf-8"))
    m = import_package(job["src"])
    spec = Workload(**job["spec"])
    capture = FoldCapture(m)
    instances = job["instances"]
    out: dict = {}
    if job["mode"] == "timed":
        out["results"], out["rounds"] = run_rounds(m, spec, instances, capture, job["seconds"])
    elif job["mode"] == "replay":
        out["results"] = run_pass(m, spec, instances[:1], capture, 1, checks=False)
    else:
        # each instance untraced, then traced, so both see the same machine;
        # every stage runs once, so the trace covers exactly one pipeline
        # per instance
        once = dataclasses.replace(spec, repeats=1)
        tr = tracing.Tracer()
        out["results"], out["traced"] = [], []
        for k in range(min(spec.trace_instances, len(instances))):
            out["results"] += run_pass(m, once, instances, capture, 1, start=k)
            tracing.install(tr, m)
            out["traced"] += run_pass(m, once, instances, capture, 1, checks=False, start=k)
            tr.uninstall()
        out["layers"] = tracing.layer_metrics(tr)
        out["absent"] = sorted(set(tr.absent))
    out["peak_rss_mb"] = peak_rss_mb()
    Path(job["out"]).write_text(json.dumps(out), encoding="utf-8")


if __name__ == "__main__":
    main(sys.argv[1])
