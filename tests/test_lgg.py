"""Least-general generalization and the lgg learner."""

from __future__ import annotations

import random
from dataclasses import replace

import pytest

from automode import fixtures
from automode.biasgen import induce_bias
from automode.clauses import (
    Clause,
    Literal,
    const,
    covers,
    covers_definition,
    minimize,
    parse_clause,
    subsumes,
    var,
)
from automode.errors import ConfigError, ValidationError
from automode.learner import CoverageCache, LearnConfig, _implicit_bias, ground_bottom_clause
from automode.lgg import VarPairTable, lgg_clauses, lgg_learn, lgg_terms
from automode.relstore import DatabaseInstance, ExampleSet, RelationSchema
from automode.biasgen import BiasSpec, ModeDecl, PredicateDecl

from conftest import WORKED_C1_TEXT, WORKED_C2_TEXT
from oracles import (
    ground_bottom_oracle,
    ground_cases,
    ground_clause_pairs,
    implicit_bias_oracle,
    isomorphic,
    lgg_product_oracle,
)


class TestLggTerms:
    def test_identical_constants_retained(self):
        table = VarPairTable()
        assert lgg_terms(const("post_quals"), const("post_quals"), table) == const(
            "post_quals"
        )

    def test_distinct_constants_get_stable_variable(self):
        table = VarPairTable()
        first = lgg_terms(const("alice"), const("john"), table)
        again = lgg_terms(const("alice"), const("john"), table)
        assert first.is_var and first == again
        other = lgg_terms(const("john"), const("alice"), table)
        assert other != first  # ordered pairs are distinct

    def test_identical_variable_passes_through(self):
        table = VarPairTable()
        assert lgg_terms(var("x"), var("x"), table) == var("x")


class TestLggClauses:
    def test_worked_example(self):
        c1 = parse_clause(WORKED_C1_TEXT)
        c2 = parse_clause(WORKED_C2_TEXT)
        out = lgg_clauses(c1, c2)
        expected = parse_clause(
            'advisedBy(a,b) :- student(a), inPhase(a,"post_quals"), professor(b), '
            "hasPosition(b,c), publication(d,a), publication(d,b)."
        )
        assert isomorphic(out, expected)
        # the shared-pair table aligns the head with the student literal
        assert out.head.args[0] in out.body[0].args

    def test_worked_example_raw_size(self):
        c1 = parse_clause(WORKED_C1_TEXT)
        c2 = parse_clause(WORKED_C2_TEXT)
        raw = lgg_clauses(c1, c2, reduce=False)
        assert len(raw.body) == 8
        assert len(raw.body) <= len(c1.body) * len(c2.body)

    def test_self_lgg_is_identity_up_to_renaming(self, worked_clause):
        assert isomorphic(lgg_clauses(worked_clause, worked_clause), worked_clause)

    def test_single_atom_bodies(self):
        c1 = parse_clause('t("a") :- r("a").')
        c2 = parse_clause('t("b") :- r("b").')
        out = lgg_clauses(c1, c2)
        assert isomorphic(out, parse_clause("t(v) :- r(v)."))

    def test_product_matches_all_pairs_oracle(self):
        # the unreduced product exactly, body order and variable names
        # included: the ground clauses of a fold's first step, then a
        # reduced result against each of them, as the fold's later steps
        checked = 0
        for iterations in (1, 2):
            cfg = LearnConfig(iterations=iterations, per_relation_cap=3)
            for c1, c2 in ground_clause_pairs(cfg):
                pairs = [(c1, c2)]
                if c1.body and c2.body:
                    learned = lgg_clauses(c1, c2)
                    pairs += [(learned, c1), (c2, learned)]
                for a, b in pairs:
                    raw = lgg_clauses(a, b, reduce=False)
                    assert raw == lgg_product_oracle(a, b)
                    checked += len(raw.body) > 1
        assert checked >= 300
        # random clauses: one relation name at two arities, and variables
        # and constants named like the fresh variables
        rng = random.Random(73)
        shapes = [("p", 1), ("p", 2), ("q", 2), ("r", 3)]
        terms = [var("x"), var("y"), var("v0"), var("v4"), const("a"), const("b"), const("v2")]

        def clause() -> Clause:
            body = []
            for _ in range(rng.randint(0, 8)):
                relation, arity = rng.choice(shapes)
                body.append(Literal(relation, tuple(rng.choice(terms) for _ in range(arity))))
            return Clause(Literal("t", (rng.choice(terms), rng.choice(terms))), tuple(body))

        for _ in range(300):
            c1, c2 = clause(), clause()
            assert lgg_clauses(c1, c2, reduce=False) == lgg_product_oracle(c1, c2)

    def test_incompatible_heads_rejected(self):
        with pytest.raises(ValidationError):
            lgg_clauses(parse_clause("t(x)."), parse_clause("s(x)."))

    def test_result_subsumes_both_inputs(self):
        c1 = parse_clause(WORKED_C1_TEXT)
        c2 = parse_clause(WORKED_C2_TEXT)
        out = lgg_clauses(c1, c2)
        assert subsumes(out, c1)
        assert subsumes(out, c2)

    def test_coverage_superset_of_both_inputs(self):
        db = fixtures.small_database_registered()
        c1 = parse_clause(WORKED_C1_TEXT)
        c2 = parse_clause(WORKED_C2_TEXT)
        out = lgg_clauses(c1, c2)
        for example in (("alice", "bob"), ("john", "mary"), ("alice", "mary")):
            either = covers(c1, example, db) or covers(c2, example, db)
            assert (not either) or covers(out, example, db)
        assert covers(out, ("alice", "bob"), db) and covers(out, ("john", "mary"), db)


class TestGroundBottom:
    def test_ground_bottom_matches_worked_clause(self):
        db = fixtures.small_database_registered()
        bias = induce_bias(db, "advisedBy")
        clause = ground_bottom_clause(
            ("alice", "bob"), db, "advisedBy", bias.predicates, LearnConfig(iterations=1)
        )
        assert isomorphic(clause, parse_clause(WORKED_C1_TEXT))
        assert covers(clause, ("alice", "bob"), db)

    def test_matches_ground_saturation_oracle(self):
        nonempty = capped = 0
        for db, example, target, predicates in ground_cases():
            for cfg in _GROUND_CONFIGS:
                clause = ground_bottom_clause(example, db, target, predicates, cfg)
                assert clause == ground_bottom_oracle(example, db, target, predicates, cfg)
                nonempty += bool(clause.body)
                if cfg.per_relation_cap < 100:
                    uncapped = replace(cfg, per_relation_cap=10**6)
                    capped += clause != ground_bottom_clause(
                        example, db, target, predicates, uncapped
                    )
        assert nonempty >= 50 and capped >= 20

    def test_implicit_bias_matches_its_own_loop_oracle(self):
        # with every relation declared, biasgen's modes under a constant
        # threshold of 1 are the ones the lgg learner used to build itself
        for db, _, target, predicates in ground_cases():
            want = implicit_bias_oracle(db, target, predicates)
            assert _implicit_bias(db, target, predicates) == want

    def test_is_its_own_deep_reduction(self):
        # the licence for starting each lgg fold from the seed's clause as it is
        for db, example, target, predicates in ground_cases():
            for cfg in _GROUND_CONFIGS:
                clause = ground_bottom_clause(example, db, target, predicates, cfg)
                assert minimize(clause, deep=True) == clause


_GROUND_CONFIGS = [
    LearnConfig(iterations=i, per_relation_cap=cap) for i in (1, 2, 3) for cap in (1, 3, 100)
]


class TestLggLearn:
    def test_fixture_reaches_perfect_training_metrics(self):
        db = fixtures.small_database_registered()
        ex = fixtures.small_examples()
        bias = induce_bias(db, "advisedBy")
        definition = lgg_learn(db, ex, bias, LearnConfig())
        assert all(covers_definition(definition, p, db) for p in ex.positives)
        assert not any(covers_definition(definition, n, db) for n in ex.negatives)

    def test_single_positive_returns_its_reduced_bottom(self):
        db = fixtures.small_database_registered()
        bias = induce_bias(db, "advisedBy")
        ex = ExampleSet(db.schema("advisedBy"), (("alice", "bob"),), ())
        definition = lgg_learn(db, ex, bias, LearnConfig(iterations=1))
        assert len(definition.clauses) == 1
        assert isomorphic(definition.clauses[0], parse_clause(WORKED_C1_TEXT))

    def test_disjoint_neighborhoods_generalize_to_head_variables(self):
        schemas = (
            RelationSchema("p", ("a",)),
            RelationSchema("q", ("a",)),
            RelationSchema("t", ("a",)),
        )
        db = DatabaseInstance.build(
            schemas, {"p": [("alice",)], "q": [("bob",)], "t": [("alice",), ("bob",)]}
        )
        predicates = (
            PredicateDecl("p", ("T1",)),
            PredicateDecl("q", ("T1",)),
            PredicateDecl("t", ("T1",)),
        )
        bias = BiasSpec(predicates, (), ModeDecl("t", ("+",)))
        ex = ExampleSet(schemas[2], (("alice",), ("bob",)), ())
        definition = lgg_learn(db, ex, bias, LearnConfig())
        assert len(definition.clauses) == 1
        assert definition.clauses[0].body == ()

    def test_shared_cache_learns_what_fresh_caches_learn(self):
        # ground bottom clauses are memoized per target, predicates,
        # iterations and cap; a cap of 1 changes the learned clause here
        db = fixtures.small_database_registered()
        ex = fixtures.small_examples()
        bias = induce_bias(db, "advisedBy")
        shared = CoverageCache(db, ex.positives + ex.negatives)
        fresh = {}
        for cap in (1, 100):
            cfg = LearnConfig(per_relation_cap=cap)
            fresh[cap] = lgg_learn(db, ex, bias, cfg)
            assert lgg_learn(db, ex, bias, cfg, cache=shared) == fresh[cap]
        assert fresh[1] != fresh[100]

    def test_guard_refuses_large_databases(self):
        # one tuple above the fixed guard of 10,000
        schemas = (RelationSchema("r", ("a",)), RelationSchema("t", ("a",)))
        db = DatabaseInstance.build(
            schemas, {"r": [(f"c{i}",) for i in range(10_000)], "t": [("c0",)]}
        )
        assert db.total_tuples() == 10_001
        ex = ExampleSet(schemas[1], (("c0",),), ())
        bias = BiasSpec(
            (PredicateDecl("r", ("T1",)), PredicateDecl("t", ("T1",))),
            (),
            ModeDecl("t", ("+",)),
        )
        with pytest.raises(ConfigError, match="above the lgg guard of 10000"):
            lgg_learn(db, ex, bias, LearnConfig())

    def test_missing_target_declaration_rejected(self):
        db = fixtures.small_database_registered()
        ex = fixtures.small_examples()
        bias = BiasSpec((PredicateDecl("student", ("T1",)),), (), ModeDecl("student", ("+",)))
        with pytest.raises(ValidationError, match="no predicate declaration"):
            lgg_learn(db, ex, bias, LearnConfig())
