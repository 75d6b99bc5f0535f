"""Clause representation, coverage, conformance, and reduction."""

from __future__ import annotations

import random

import pytest

from automode import clauses, fixtures, learner
from automode.clauses import (
    Clause,
    Literal,
    Term,
    canonical_text,
    conforms,
    const,
    covers,
    minimize,
    parse_clause,
    render_clause,
    subsumes,
    subsumption_witness,
    var,
)
from automode.errors import ValidationError
from automode.lgg import lgg_clauses

from oracles import (
    covers_oracle,
    ground_clause_pairs,
    random_clause,
    random_clause_over,
    random_db,
    random_example,
    random_generalization,
    random_value,
    reduction_oracle,
    subsumes_oracle,
)


class TestValueSemantics:
    """Terms, literals and clauses are plain tuples of their fields."""

    def test_no_state_beyond_the_fields(self, worked_clause):
        for value in (var("x"), worked_clause.head, worked_clause):
            with pytest.raises(TypeError):
                vars(value)

    def test_hash_is_the_tuple_hash(self):
        assert hash(var("x")) == hash(("x", True))
        lit = Literal("r", (var("x"), const("a")))
        assert hash(lit) == hash(("r", (("x", True), ("a", False))))

    def test_terms_sort_by_symbol_then_kind(self):
        terms = [var("b"), const("b"), var("a"), const("c"), const("a")]
        assert sorted(terms) == [
            const("a"), var("a"), const("b"), var("b"), const("c")
        ]

    def test_equal_clause_built_apart_reuses_cached_coverage(self, monkeypatch):
        joined = []
        evaluate = learner.covered_examples

        def recording(clause, examples, db):
            joined.append(clause)
            return evaluate(clause, examples, db)

        monkeypatch.setattr(learner, "covered_examples", recording)
        text = "advisedBy(x,y) :- publication(z,x), publication(z,y)."
        cache = learner.CoverageCache(fixtures.small_database(), [("alice", "bob")])
        first, second = parse_clause(text), parse_clause(text)
        assert first == second and first is not second
        assert first.body[0] is not second.body[0]
        assert cache.covers(first, ("alice", "bob"))
        assert cache.covers(second, ("alice", "bob"))
        assert joined == [first]


class TestTextFormat:
    def test_render_constants_quoted(self):
        clause = Clause(
            Literal("inPhase", (var("x"), const("post_quals"))),
            (Literal("student", (var("x"),)),),
        )
        assert render_clause(clause) == 'inPhase(x,"post_quals") :- student(x).'

    def test_round_trip(self, worked_clause):
        assert parse_clause(render_clause(worked_clause)) == worked_clause

    def test_round_trip_with_escapes(self):
        clause = Clause(Literal("r", (const('a"b\\c'),)), ())
        assert parse_clause(render_clause(clause)) == clause
        # constants with quotes, backslashes, separators and line breaks,
        # some holding ':-' or '.', in the head as well as in the body
        rng = random.Random(131)

        def term() -> Term:
            if rng.random() < 0.3:
                return var(f"v{rng.randrange(4)}")
            value = random_value(rng, hazard_rate=0.3)
            if rng.random() < 0.3:
                k = rng.randint(0, len(value))
                value = value[:k] + rng.choice((":-", ".")) + value[k:]
            return const(value)

        def literal(relation: str) -> Literal:
            return Literal(relation, tuple(term() for _ in range(rng.randint(1, 3))))

        for _ in range(1000):
            body = tuple(literal(rng.choice("pq")) for _ in range(rng.randint(0, 3)))
            clause = Clause(literal("t"), body)
            assert parse_clause(render_clause(clause)) == clause

    def test_head_only_clause(self):
        clause = parse_clause("t(x,y).")
        assert clause.body == ()

    def test_canonical_text_invariant_under_renaming(self, worked_clause):
        renamed = parse_clause(
            "advisedBy(q,w) :- student(q), inPhase(q,e), professor(w), "
            "hasPosition(w,r), publication(z9,q), publication(z9,w)."
        )
        assert canonical_text(renamed) == canonical_text(worked_clause)

    @pytest.mark.parametrize(
        "text",
        ["not a clause", "t(x) :- .", "t(x) :- , ."],
        ids=["garbage", "empty-body", "separators-only"],
    )
    def test_parse_rejects_garbage(self, text):
        # a body lost after ':-' must not read back as a fact covering everything
        with pytest.raises(ValidationError):
            parse_clause(text)


class TestCovers:
    def test_worked_clause_covers_its_seed(self, worked_clause):
        db = fixtures.small_database()
        assert covers(worked_clause, ("alice", "bob"), db)

    def test_worked_clause_covers_second_positive(self, worked_clause):
        db = fixtures.small_database()
        assert covers(worked_clause, ("john", "mary"), db)

    def test_worked_clause_rejects_cross_pairs(self, worked_clause):
        db = fixtures.small_database()
        assert not covers(worked_clause, ("alice", "mary"), db)
        assert not covers(worked_clause, ("john", "bob"), db)

    def test_missing_relation_is_an_error(self, worked_clause):
        db = fixtures.small_database()
        clause = Clause(worked_clause.head, (Literal("ghost", (var("x"),)),))
        with pytest.raises(ValidationError):
            covers(clause, ("alice", "bob"), db)

    def test_arity_mismatch_is_an_error(self, worked_clause):
        db = fixtures.small_database()
        with pytest.raises(ValidationError):
            covers(worked_clause, ("alice",), db)

    def test_repeated_head_variable_binds_consistently(self):
        db = fixtures.small_database()
        clause = parse_clause("t(x,x) :- student(x).")
        assert covers(clause, ("alice", "alice"), db)
        assert not covers(clause, ("alice", "john"), db)

    def test_matches_oracle_spot_checks(self, worked_clause):
        db = fixtures.small_database()
        for example in (("alice", "bob"), ("john", "mary"), ("alice", "mary")):
            assert covers(worked_clause, example, db) == covers_oracle(
                worked_clause, example, db
            )

    def test_invariant_under_body_reordering_and_renaming(self):
        rng = random.Random(41)
        for _ in range(40):
            db = random_db(rng)
            clause = random_clause(rng, db)
            example = random_example(rng, len(clause.head.args))
            base = covers(clause, example, db)
            shuffled = list(clause.body)
            rng.shuffle(shuffled)
            assert covers(Clause(clause.head, tuple(shuffled)), example, db) == base
            renaming = {v: var(f"z{i}") for i, v in enumerate(clause.variables())}
            renamed = Clause(
                Literal(
                    clause.head.relation,
                    tuple(renaming.get(a, a) for a in clause.head.args),
                ),
                tuple(
                    Literal(l.relation, tuple(renaming.get(a, a) for a in l.args))
                    for l in clause.body
                ),
            )
            assert covers(renamed, example, db) == base

    def test_removing_a_literal_never_shrinks_coverage(self):
        rng = random.Random(43)
        for _ in range(40):
            db = random_db(rng)
            clause = random_clause(rng, db)
            if not clause.body:
                continue
            example = random_example(rng, len(clause.head.args))
            if covers(clause, example, db):
                drop = rng.randrange(len(clause.body))
                weaker = Clause(
                    clause.head, clause.body[:drop] + clause.body[drop + 1 :]
                )
                assert covers(weaker, example, db)


class TestConforms:
    def test_worked_clause_conforms(self, worked_clause, manual_bias):
        assert conforms(worked_clause, manual_bias)

    def test_cartesian_atom_rejected(self, manual_bias):
        clause = parse_clause("advisedBy(x,y) :- student(w).")
        assert not conforms(clause, manual_bias)

    def test_type_clash_rejected(self, manual_bias):
        # x would have to be both a student (T1) and a title (T5)
        clause = parse_clause("advisedBy(x,y) :- student(x), publication(x,w).")
        assert not conforms(clause, manual_bias)

    def test_constant_requires_hash_mode(self, manual_bias):
        ok = parse_clause('advisedBy(x,y) :- student(x), inPhase(x,"post_quals").')
        assert conforms(ok, manual_bias)
        bad = parse_clause('advisedBy(x,y) :- student(x), hasPosition(y,"assistant_prof").')
        # hasPosition has no '#' mode in the manual bias
        assert not conforms(bad, manual_bias)

    def test_unknown_relation_rejected(self, manual_bias):
        clause = parse_clause("advisedBy(x,y) :- ghost(x).")
        assert not conforms(clause, manual_bias)


class TestMinimize:
    def test_removes_exact_duplicates(self):
        clause = parse_clause("t(x) :- student(x), student(x).")
        assert minimize(clause) == parse_clause("t(x) :- student(x).")

    def test_no_duplicates_unchanged(self, worked_clause):
        assert minimize(worked_clause) == worked_clause

    def test_order_insensitive_collapse(self):
        rng = random.Random(47)
        clause = parse_clause(
            "t(x) :- student(x), inPhase(x,u), student(x), inPhase(x,u)."
        )
        expected = minimize(clause)
        for _ in range(10):
            body = list(clause.body)
            rng.shuffle(body)
            collapsed = minimize(Clause(clause.head, tuple(body)))
            assert sorted(str(l) for l in collapsed.body) == sorted(
                str(l) for l in expected.body
            )

    def test_deep_reduce_removes_singleton_variants(self):
        clause = parse_clause(
            "t(x,y) :- publication(p,x), publication(p,y), publication(p,w)."
        )
        reduced = minimize(clause, deep=True)
        assert len(reduced.body) == 2
        assert subsumes(reduced, clause) and subsumes(clause, reduced)

    def test_deep_reduce_keeps_head_variables(self):
        clause = parse_clause("t(x,y) :- publication(p,x), publication(p,y).")
        assert minimize(clause, deep=True) == clause

    def test_deep_reduce_matches_restart_oracle(self, monkeypatch):
        searched = _record_searches(monkeypatch)
        rng = random.Random(59)
        pool = [var(f"y{i}") for i in range(3)] + [const("a"), const("b")]
        shrunk = 0
        for _ in range(200):
            head_vars = [var(f"x{i}") for i in range(rng.randint(1, 2))]
            clause = random_clause_over(rng, head_vars, pool, 8)
            searched.clear()
            reduced = minimize(clause, deep=True)
            # one forward pass: no literal is searched twice
            assert len(searched) == len(set(searched)) <= len(set(clause.body))
            assert reduced == reduction_oracle(clause)
            shrunk += len(reduced.body) < len(set(clause.body))
            for i in range(len(reduced.body)):
                shorter = Clause(reduced.head, reduced.body[:i] + reduced.body[i + 1 :])
                assert not subsumes_oracle(reduced, shorter)
        assert shrunk >= 50
        # wider bodies, too costly for the oracle: still no literal is
        # searched twice
        pool = [var(f"y{i}") for i in range(5)] + [const("a"), const("b")]
        pairs = []
        for _ in range(400):
            head_vars = [var(f"x{i}") for i in range(rng.randint(1, 2))]
            clause = random_clause_over(rng, head_vars, pool, 16)
            searched.clear()
            pairs.append((clause, minimize(clause, deep=True)))
            assert len(searched) == len(set(searched))
        monkeypatch.undo()
        for clause, reduced in pairs:
            assert set(reduced.body) <= set(clause.body)
            assert subsumes(reduced, clause) and subsumes(clause, reduced)

    def test_deep_reduce_of_lgg_products(self, monkeypatch):
        # what the lgg learner reduces: unreduced lggs of ground bottom
        # clauses, with repeated relations and shared constants
        searched = _record_searches(monkeypatch)
        pairs = []
        for iterations in (1, 2):
            cfg = learner.LearnConfig(iterations=iterations, per_relation_cap=3)
            for c1, c2 in ground_clause_pairs(cfg):
                raw = lgg_clauses(c1, c2, reduce=False)
                searched.clear()
                pairs.append((raw, minimize(raw, deep=True)))
                # one forward pass: no literal is searched twice
                assert len(searched) == len(set(searched))
        monkeypatch.undo()
        shrunk = 0
        for raw, reduced in pairs:
            assert set(reduced.body) <= set(raw.body)
            assert subsumes(reduced, raw) and subsumes(raw, reduced)
            # the oracle enumerates every assignment of the free variables
            free = set(raw.variables()) - set(raw.head.variables())
            if len(raw.body) <= 12 and len(free) <= 4:
                assert reduced == reduction_oracle(raw)
                shrunk += len(reduced.body) < len(raw.body)
        assert shrunk >= 60


def _record_searches(monkeypatch) -> list[Literal]:
    """Record the literal each deep-reduction search tests: the one its
    `clauses._embed` call does not offer as its own target."""
    searched: list[Literal] = []
    embed = clauses._embed

    def recording(literals, candidates, theta):
        (tested,) = [l for l, c in zip(literals, candidates) if l not in c]
        searched.append(tested)
        return embed(literals, candidates, theta)

    monkeypatch.setattr(clauses, "_embed", recording)
    return searched


class TestSubsumes:
    def test_more_general_subsumes(self, worked_clause):
        general = parse_clause("advisedBy(x,y) :- publication(z,x), publication(z,y).")
        assert subsumes(general, worked_clause)
        assert not subsumes(worked_clause, general)

    def test_matches_oracle_on_random_pairs(self):
        rng = random.Random(53)
        checked = 0
        for _ in range(120):
            db = random_db(rng, max_relations=2, max_arity=2)
            c1 = random_clause(rng, db, max_body=3, max_free_vars=2)
            c2 = random_clause(rng, db, max_body=3, max_free_vars=2)
            if len(c1.head.args) != len(c2.head.args):
                continue
            assert subsumes(c1, c2) == subsumes_oracle(c1, c2)
            checked += 1
        assert checked >= 40
        # wide bodies: up to 10 literals, repeated relations and constants,
        # so forward checking prunes and backtracks
        answers = {True: 0, False: 0}
        pool = [var(f"z{i}") for i in range(3)]
        constants = [const("a"), const("b")]
        for _ in range(300):
            head_vars = [var(f"x{i}") for i in range(rng.randint(1, 2))]
            specific = random_clause_over(
                rng, head_vars, [var(f"y{i}") for i in range(3)] + constants, 10
            )
            if rng.random() < 0.7:
                general = random_generalization(rng, specific, pool)
                if rng.random() < 0.5:
                    # one changed argument usually breaks the embedding
                    body = list(general.body)
                    k = rng.randrange(len(body))
                    args = list(body[k].args)
                    args[rng.randrange(len(args))] = rng.choice(head_vars + pool + constants)
                    body[k] = Literal(body[k].relation, tuple(args))
                    general = Clause(general.head, tuple(body))
            else:
                general = random_clause_over(rng, head_vars, pool + constants, 10)
            expected = subsumes_oracle(general, specific)
            theta = subsumption_witness(general, specific)
            assert (theta is not None) == expected
            assert subsumes(general, specific) == expected
            answers[expected] += 1
            if theta is None:
                continue

            def image(lit):
                return Literal(lit.relation, tuple(theta.get(a, a) for a in lit.args))

            assert image(general.head) == specific.head
            assert all(image(lit) in specific.body for lit in general.body)
        assert answers[True] >= 50 and answers[False] >= 50

    def test_consistent_targets_match_pairwise_unification(self):
        # the key lookup against filtering by unification, under the fixed
        # head of deep reduction and under a head unification's θ, as in
        # subsumption_witness
        rng = random.Random(61)
        head_vars = [var("x0"), var("x1")]
        pool = [var("y0"), var("y1"), const("a"), const("b")]
        seen = {"repeated": 0, "repeated found": 0, "bound": 0, "found": 0, "refused": 0}
        for _ in range(300):
            literals = random_clause_over(rng, head_vars, pool, 8).body
            # half of the literals also appear renamed among the targets, so
            # a repeated unbound variable often finds its target
            renaming = {v: rng.choice(head_vars + pool) for v in pool if v.is_var}
            targets = list(random_clause_over(rng, head_vars, pool, 8).body) + [
                Literal(lit.relation, tuple(renaming.get(a, a) for a in lit.args))
                for lit in literals
                if rng.random() < 0.5
            ]
            rng.shuffle(targets)
            general = Literal("t", tuple(rng.choice(head_vars) for _ in head_vars))
            specific = Literal("t", tuple(rng.choice(head_vars + pool) for _ in head_vars))
            for theta in (
                clauses._unify_literal(general, general, {}),
                clauses._unify_literal(general, specific, {}),
            ):
                if theta is None:
                    continue
                expected = [
                    [t for t in targets if clauses._unify_literal(lit, t, theta) is not None]
                    for lit in literals
                ]
                assert clauses._consistent_targets(literals, targets, theta) == expected
                for lit, found in zip(literals, expected):
                    free = [a for a in lit.args if a.is_var and a not in theta]
                    seen["repeated"] += len(set(free)) < len(free)
                    seen["repeated found"] += len(set(free)) < len(free) and bool(found)
                    seen["bound"] += any(a in theta for a in lit.args)
                    seen["found"] += bool(found)
                    seen["refused"] += len(found) < sum(
                        t.relation == lit.relation for t in targets
                    )
        assert min(seen.values()) >= 100, seen
