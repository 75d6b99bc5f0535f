"""The benchmark's workloads and metric catalogue, shared by every bench file.

Each run of a workload processes a batch of freshly generated instances,
one after another, because a learner's cost swings by tens of percent from
one random database to the next; the per-run figure averages over the
batch. Instance k of a run with seed s is generated from seed
`s * 1000 + k`, so both commits see the same files.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import gen

NEG_RATIO = 2  # closed-world negatives per positive, as `evaluate` defaults
FOLDS = 5


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    generator: str  # "planted" or "wide"
    params: dict = field(default_factory=dict)
    stage: str = "learn"  # "learn": one learn_definition; "cv": cross_validate; "profile": none
    iterations: int = 2
    generalizer: str = "armg"
    instances: int = 60  # generated per run; every round runs each of them once
    round_s: float = 15.0  # nominal length of one round on the sizing machine
    trace_instances: int = 6  # fixed instance count of a traced run
    # back-to-back calls of each cheap stage per pipeline, the fastest kept:
    # one call of a stage that takes microseconds is mostly cache misses
    repeats: int = 5

    def rounds(self, seconds: float) -> int:
        """Rounds of a timed run: as many as fit in `seconds` at the nominal
        round length, at least one, so the work done never depends on the
        machine's speed."""
        return max(1, int(seconds / self.round_s))

    def generate(self, out: Path, seed: int) -> str:
        """Write instance files under `out`; returns the target relation."""
        if self.generator == "planted":
            return gen.planted(out, seed, **self.params)
        return gen.wide(out, seed, **self.params)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "learn-deep",
            "armg's witness search is the largest self time: one learn_definition "
            "at iterations=2 on small planted advisor databases",
            "planted",
            {"profs": 2, "students_per_prof": 10, "papers_per_pair": 1},
            stage="learn",
            iterations=2,
            instances=100,
            trace_instances=20,
        ),
        Workload(
            "cv-shallow",
            "the evaluate protocol at iterations=1: 5-fold cross_validate, where "
            "coverage scoring dominates and armg is negligible",
            "planted",
            {"profs": 10},
            stage="cv",
            iterations=1,
            instances=80,
            trace_instances=10,
        ),
        Workload(
            "profile-wide",
            "no learning: load, index, profile and bias a wide 30-relation database, "
            "then draw closed-world negatives for a ternary target",
            "wide",
            {"relations": 30, "rows": 1000},
            stage="profile",
            instances=20,
            repeats=1,
            trace_instances=1,
        ),
        Workload(
            "lgg-shallow",
            "5-fold cross_validate with the lgg generalizer at iterations=1: the only "
            "workload that runs lgg and clause-to-clause subsumption",
            "planted",
            {"profs": 4, "students_per_prof": 2, "papers_per_pair": 1},
            stage="cv",
            iterations=1,
            generalizer="lgg",
        ),
    )
}

# name -> (unit, better); emitted on every workload with --trace 0
END_TO_END = {
    "setup_s": ("s", "lower"),
    "bias_s": ("s", "lower"),
    "negatives_s": ("s", "lower"),
    "total_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

_S, _N, _R = "s", "count", "ratio"
# name -> (unit, better); emitted on every workload with --trace 1, 0 where
# the workload never enters the layer
PER_LAYER = {
    "relstore.load_s": (_S, "lower"),
    "relstore.build_s": (_S, "lower"),
    "relstore.build_calls": (_N, "lower"),
    "relstore.tuples": (_N, "lower"),
    "relstore.matching_rows_calls": (_N, "lower"),
    "relstore.rows_examined": (_N, "lower"),
    "profiler.discover_inds_s": (_S, "lower"),
    "profiler.inds": (_N, "lower"),
    "biasgen.self_s": (_S, "lower"),
    "biasgen.predicates": (_N, "lower"),
    "biasgen.modes": (_N, "lower"),
    "learner.learn_definition_s": (_S, "lower"),
    "learner.saturate_s": (_S, "lower"),
    "learner.seeds": (_N, "lower"),
    "learner.bottom_literals": (_N, "lower"),
    "learner.armg_self_s": (_S, "lower"),
    "learner.armg_calls": (_N, "lower"),
    "learner.armg_kept_ratio": (_R, "lower"),
    "clauses.find_witness_s": (_S, "lower"),
    "clauses.find_witness_calls": (_N, "lower"),
    "clauses.find_witness_refuted_ratio": (_R, "lower"),
    "learner.coverage_tests": (_N, "lower"),
    "learner.coverage_eval_ratio": (_R, "lower"),
    "clauses.covered_examples_s": (_S, "lower"),
    "clauses.covered_examples_calls": (_N, "lower"),
    "clauses.covered_examples_overflows": (_N, "lower"),
    "clauses.covers_calls": (_N, "lower"),
    "learner.generalize_self_s": (_S, "lower"),
    "clauses.fold_s": (_S, "lower"),
    "clauses.minimize_s": (_S, "lower"),
    "learner.clauses_accepted": (_N, "lower"),
    "learner.seed_accept_ratio": (_R, "higher"),
    "evaluation.cross_validate_s": (_S, "lower"),
    "evaluation.negatives": (_N, "lower"),
    "evaluation.fold_learn_s_median": (_S, "lower"),
    "evaluation.fold_learn_s_max": (_S, "lower"),
    "evaluation.precision_recall_s": (_S, "lower"),
    "lgg.self_s": (_S, "lower"),
    "lgg.lgg_clauses_s": (_S, "lower"),
    "lgg.ground_bottom_s": (_S, "lower"),
    "clauses.subsumes_calls": (_N, "lower"),
    "clauses.subsumes_s": (_S, "lower"),
    "trace.overhead_ratio": (_R, "lower"),
    "quality.train_precision": (_R, "higher"),
    "quality.train_recall": (_R, "higher"),
    "quality.holdout_precision": (_R, "higher"),
    "quality.holdout_recall": (_R, "higher"),
    "quality.body_literals": (_N, "lower"),
}
