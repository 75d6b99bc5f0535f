"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. The UW-CSE reproduction (criterion 5) is conditional on a local
copy of the public dataset; when absent it is skipped and, per the stated
fallback, replaced by criterion 4 plus the property suites in this module.
"""

from __future__ import annotations

import json
import os
import random
import time
from pathlib import Path

import pytest

from automode import fixtures
from automode.biasgen import conforms, induce_bias
from automode.clauses import (
    Clause,
    Term,
    parse_clause,
    subsumes,
)
from automode.coverage import covered_examples
from automode.cli import dispatch
from automode.evaluation import cross_validate, generate_negatives, precision_recall
from automode.learner import (
    LearnConfig,
    armg,
    build_bottom_clause,
    learn_definition,
)
from automode.lgg import lgg_clauses
from automode.profiler import discover_inds
from automode.relstore import (
    ExampleSet,
    load_database,
    load_examples,
    register_target,
)

from conftest import WORKED_C1_TEXT, WORKED_C2_TEXT
from oracles import (
    covers_oracle,
    inds_oracle,
    isomorphic,
    random_clause,
    random_db,
    random_example,
)


def _report(criterion: str, message: str) -> None:
    print(f"\nACCEPTANCE {criterion}: PASS - {message}")


def test_criterion_1_bottom_clause_worked_example(manual_bias, worked_clause):
    db = fixtures.small_database_registered()
    assert sum(len(r) for n, r in db.rows.items() if n != "advisedBy") == 12
    started = time.perf_counter()
    bottom = build_bottom_clause(
        ("alice", "bob"), db, manual_bias, LearnConfig(iterations=1)
    )
    elapsed = time.perf_counter() - started
    assert len(bottom.clause.body) == 6
    assert isomorphic(bottom.clause, worked_clause)
    assert set(bottom.witness.values()) == {
        "alice", "bob", "p1", "post_quals", "assistant_prof"
    }
    assert len(bottom.witness) == 5
    assert elapsed < 1.0
    _report("1", f"bottom clause matches the worked example ({elapsed * 1000:.0f} ms)")


def test_criterion_2_lgg_worked_example():
    c1 = parse_clause(WORKED_C1_TEXT)
    c2 = parse_clause(WORKED_C2_TEXT)
    started = time.perf_counter()
    out = lgg_clauses(c1, c2)
    elapsed = time.perf_counter() - started
    expected = parse_clause(
        'advisedBy(a,b) :- student(a), inPhase(a,"post_quals"), professor(b), '
        "hasPosition(b,c), publication(d,a), publication(d,b)."
    )
    assert isomorphic(out, expected)
    in_phase = [l for l in out.body if l.relation == "inPhase"]
    assert in_phase and type(in_phase[0].args[1]) is not Term
    assert in_phase[0].args[1] == "post_quals"
    has_position = [l for l in out.body if l.relation == "hasPosition"]
    assert has_position and type(has_position[0].args[1]) is Term
    assert elapsed < 1.0
    _report("2", f"lgg reproduces the printed 6-literal clause ({elapsed * 1000:.0f} ms)")


def test_criterion_3_bias_fidelity():
    db = fixtures.typed_database_registered()
    started = time.perf_counter()
    bias = induce_bias(db, "advisedBy", alpha=0.5, constant_threshold=5)
    elapsed = time.perf_counter() - started

    student_types = {d.types[0] for d in bias.declarations_for("student")}
    professor_types = {d.types[0] for d in bias.declarations_for("professor")}
    assert len(student_types) == 1 and len(professor_types) == 1

    publication = bias.declarations_for("publication")
    assert len(publication) == 2
    author_types = {d.types[1] for d in publication}
    assert author_types == student_types | professor_types
    assert len({d.types[0] for d in publication}) == 1

    in_phase_modes = {m.symbols for m in bias.modes_for("inPhase")}
    assert in_phase_modes == {("+", "-"), ("-", "+"), ("+", "#")}
    assert elapsed < 1.0
    _report(
        "3",
        "author column carries exactly the student and professor types; "
        f"inPhase modes as stated ({elapsed * 1000:.0f} ms)",
    )


def test_criterion_4_end_to_end_desk_scale():
    db = fixtures.small_database_registered()
    examples = fixtures.small_examples()
    started = time.perf_counter()
    bias = induce_bias(db, "advisedBy")
    definition = learn_definition(db, examples, bias, LearnConfig())
    elapsed = time.perf_counter() - started

    assert definition.clauses, "no clause learned"
    co_pub = parse_clause("advisedBy(x,y) :- publication(z,x), publication(z,y).")

    def has_co_publication_join(clause: Clause) -> bool:
        # the clause must embed publication(z,x), publication(z,y) with z
        # shared and x, y the head variables
        return subsumes(co_pub, clause)

    winner = None
    for clause in definition.clauses:
        tp = len(covered_examples(clause, examples.positives, db))
        fp = len(covered_examples(clause, examples.negatives, db))
        if tp == 2 and fp == 0 and has_co_publication_join(clause):
            winner = clause
            break
    assert winner is not None, "no clause with the co-publication join"
    precision, recall = precision_recall(
        definition, examples.positives, examples.negatives, db
    )
    assert precision == 1.0 and recall == 1.0
    assert elapsed < 5.0
    _report(
        "4",
        "learned definition joins both advisee and advisor through a shared "
        f"publication; training precision=1.0 recall=1.0 ({elapsed * 1000:.0f} ms)",
    )


def _uwcse_dir() -> Path | None:
    env = os.environ.get("AUTOMODE_UWCSE_DIR")
    candidates = [Path(env)] if env else []
    candidates.append(Path(__file__).parent / "data" / "uwcse")
    for candidate in candidates:
        if candidate and (candidate / "schema.txt").is_file():
            return candidate
    return None


def test_criterion_5_uwcse_reproduction():
    dataset = _uwcse_dir()
    if dataset is None:
        message = (
            "UW-CSE dataset not available (no network access in this environment); "
            "per the stated fallback this criterion is replaced by criterion 4 "
            "plus the property suites (criteria 7a-7f), all of which run below"
        )
        print(f"\nACCEPTANCE 5: SKIPPED - {message}")
        pytest.skip(message)
    db = load_database(dataset / "schema.txt", dataset / "facts", ("advisedBy",))
    examples = load_examples(dataset / "examples.txt", db.schema("advisedBy"))
    db = register_target(db, examples)
    if not examples.negatives:
        negatives = generate_negatives(
            db, examples.positives, examples.target, 2, seed=1
        )
        examples = ExampleSet(examples.target, examples.positives, negatives)
    bias = induce_bias(db, "advisedBy", alpha=0.5, constant_threshold=5)
    report = cross_validate(db, examples, bias, LearnConfig(), folds=5, seed=1)
    assert report.mean_precision >= 0.83, report
    assert report.mean_recall >= 0.44, report
    assert report.mean_wall_ms <= 108_000, report
    lgg_report = cross_validate(
        db, examples, bias, LearnConfig(), folds=5, seed=1, generalizer="lgg"
    )
    assert lgg_report.mean_precision >= 0.86, lgg_report
    assert lgg_report.mean_recall >= 0.42, lgg_report
    _report(
        "5",
        f"UW-CSE 5-fold: P={report.mean_precision:.2f} R={report.mean_recall:.2f}; "
        f"lgg P={lgg_report.mean_precision:.2f} R={lgg_report.mean_recall:.2f}",
    )


def test_criterion_6_large_datasets_out_of_scope():
    # the multi-million-tuple benchmark datasets are documented as not
    # reproducible at desk scale; nothing here depends on them
    _report("6", "no acceptance depends on the large benchmark datasets")


def test_criterion_7a_covers_matches_oracle():
    rng = random.Random(101)
    agreements = 0
    for _ in range(200):
        db = random_db(rng)
        clause = random_clause(rng, db)
        example = random_example(rng, len(clause.head.args))
        covered = example in covered_examples(clause, [example], db)
        assert covered == covers_oracle(clause, example, db)
        agreements += 1
    _report(
        "7a", f"covered_examples agreed with the substitution oracle on {agreements} cases"
    )


def test_criterion_7b_ind_discovery_matches_oracle():
    rng = random.Random(103)
    for _ in range(200):
        db = random_db(rng)
        alpha = rng.choice([0.0, 0.3, 0.5, 1.0])
        got = {
            (i.lhs.relation, i.lhs.position, i.rhs.relation, i.rhs.position, i.error)
            for i in discover_inds(db, alpha).inds
        }
        assert got == inds_oracle(db, alpha)
        low = set(discover_inds(db, 0.2).inds)
        high = set(discover_inds(db, 0.7).inds)
        assert low <= high
    _report("7b", "IND discovery agreed with the containment oracle on 200 databases")


def test_criterion_7c_armg_properties():
    rng = random.Random(107)
    checked = 0
    while checked < 200:
        db = random_db(rng)
        clause = random_clause(rng, db, max_body=5, max_free_vars=3)
        example = random_example(rng, len(clause.head.args))
        head_only = Clause(clause.head, ())
        if not covered_examples(head_only, [example], db):
            continue  # e.g. repeated head variable with unequal values
        out = armg(clause, example, db)
        assert covered_examples(out, [example], db)
        assert set(out.body) <= set(clause.body)
        probes = [random_example(rng, len(clause.head.args)) for _ in range(8)]
        assert covered_examples(clause, probes, db) <= covered_examples(out, probes, db)
        checked += 1
    _report("7c", f"armg soundness held on {checked} random cases")


def test_criterion_7d_lgg_properties():
    rng = random.Random(109)
    checked = 0
    while checked < 100:
        db = random_db(rng, max_relations=2, max_arity=2)
        c1 = random_clause(rng, db, max_body=3, max_free_vars=2)
        c2 = random_clause(rng, db, max_body=3, max_free_vars=2)
        if (c1.head.relation, len(c1.head.args)) != (c2.head.relation, len(c2.head.args)):
            continue
        raw = lgg_clauses(c1, c2, reduce=False)
        assert len(raw.body) <= max(1, len(c1.body)) * max(1, len(c2.body))
        out = lgg_clauses(c1, c2)
        assert subsumes(out, c1)
        assert subsumes(out, c2)
        checked += 1
    _report("7d", f"lgg subsumed both inputs on {checked} random pairs")


def test_criterion_7e_conformance_of_bottom_and_learned_clauses():
    rng = random.Random(113)
    bottoms = learned = 0
    for _ in range(30):
        db = random_db(rng, max_relations=3, max_arity=2, max_tuples=20, pool=6)
        target = db.schemas[0]
        domain = sorted({v for rows in db.rows.values() for row in rows for v in row})
        if len(domain) < 2:
            continue
        pool = sorted(
            {
                tuple(rng.choice(domain) for _ in range(target.arity))
                for _ in range(6)
            }
        )
        if len(pool) < 2:
            continue
        positives, negatives = tuple(pool[::2]), tuple(pool[1::2])
        examples = ExampleSet(target, positives, negatives)
        db = db.with_relation(target, positives)
        bias = induce_bias(db, target.name)
        cfg = LearnConfig(iterations=rng.choice([1, 2]))
        for seed_example in positives:
            bottom = build_bottom_clause(seed_example, db, bias, cfg)
            assert covered_examples(bottom.clause, [seed_example], db)
            assert conforms(bottom.clause, bias)
            bottoms += 1
        definition = learn_definition(db, examples, bias, cfg)
        for clause in definition.clauses:
            assert conforms(clause, bias)
            learned += 1
    assert bottoms >= 30
    _report(
        "7e",
        f"{bottoms} bottom clauses and {learned} learned clauses conform to "
        "their generating bias",
    )


def test_criterion_7f_evaluate_determinism(tmp_path):
    paths = fixtures.materialize_small(tmp_path / "data")
    reports = []
    for name in ("first.json", "second.json"):
        out = tmp_path / name
        rc = dispatch(
            [
                "evaluate",
                "--schema",
                str(paths["schema"]),
                "--facts",
                str(paths["facts"]),
                "--examples",
                str(paths["examples"]),
                "--target",
                "advisedBy",
                "--folds",
                "2",
                "--seed",
                "1",
                "--neg-ratio",
                "2",
                "--report",
                str(out),
            ]
        )
        assert rc == 0
        reports.append(json.loads(out.read_text()))

    def strip_wall(report: dict) -> dict:
        trimmed = {k: v for k, v in report.items() if k != "mean_wall_ms"}
        trimmed["per_fold"] = [
            {k: v for k, v in fold.items() if k != "wall_ms"}
            for fold in report["per_fold"]
        ]
        return trimmed

    assert strip_wall(reports[0]) == strip_wall(reports[1])
    _report("7f", "repeated evaluate runs agree on every non-timing report field")
