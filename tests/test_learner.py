"""Bottom-clause construction, armg, beam search, and the cover-set loop."""

from __future__ import annotations

import importlib.util
import random
from pathlib import Path

import pytest

from automode import clauses, fixtures, learner
from automode.evaluation import generate_negatives
from automode.biasgen import ModeDecl, PredicateDecl, BiasSpec, induce_bias, read_bias
from automode.clauses import (
    Clause,
    Literal,
    apply_renaming,
    conforms,
    const,
    covered_examples,
    covers,
    fold_singleton_literals,
    minimize,
    parse_clause,
    var,
)
from automode.clauses import _head_binding
from automode.errors import ConfigError, ValidationError
from automode.learner import (
    _connected_order,
    _scoring_equivalent,
    CoverageCache,
    LearnConfig,
    armg,
    build_bottom_clause,
    generalize_clause,
    ground_bottom_clause,
    implicit_bias,
    learn_definition,
    score,
)
from automode.relstore import (
    DatabaseInstance,
    ExampleSet,
    RelationSchema,
    load_database,
    load_examples,
    register_target,
)

from conftest import MANUAL_BIAS_TEXT
from oracles import (
    armg_oracle,
    blocking_drop_oracle,
    connected_order_oracle,
    head_fit_oracle,
    isomorphic,
    random_clause,
    random_clause_over,
    random_db,
    random_example,
    random_task,
    subsumes_oracle,
)


@pytest.fixture
def small_db():
    return fixtures.small_database_registered()


@pytest.fixture
def auto_bias(small_db):
    return induce_bias(small_db, "advisedBy")


class TestBottomClause:
    def test_worked_example_one_iteration(self, small_db, manual_bias, worked_clause):
        cfg = LearnConfig(iterations=1)
        bottom = build_bottom_clause(("alice", "bob"), small_db, manual_bias, cfg)
        assert len(bottom.clause.body) == 6
        assert isomorphic(bottom.clause, worked_clause)
        assert set(bottom.witness.values()) == {
            "alice",
            "bob",
            "p1",
            "post_quals",
            "assistant_prof",
        }
        assert len(bottom.witness) == 5  # injective
        assert [bottom.witness[v] for v in bottom.clause.head.args] == ["alice", "bob"]

    def test_empty_database_gives_head_only(self, manual_bias):
        schemas = fixtures.small_database().schemas
        empty = DatabaseInstance.build(schemas, {})
        bottom = build_bottom_clause(("alice", "bob"), empty, manual_bias, LearnConfig())
        assert bottom.clause.body == ()

    def test_second_iteration_only_adds(self, small_db, manual_bias, auto_bias):
        # the fixture's titles fall under the default constant threshold, so
        # only a bias without '#' modes lets round one's values seed round two
        no_constants = induce_bias(small_db, "advisedBy", constant_threshold=1)
        for bias, strict in (
            (manual_bias, False),
            (auto_bias, False),
            (no_constants, True),
        ):
            one = build_bottom_clause(
                ("alice", "bob"), small_db, bias, LearnConfig(iterations=1)
            )
            two = build_bottom_clause(
                ("alice", "bob"), small_db, bias, LearnConfig(iterations=2)
            )
            assert set(one.clause.body) <= set(two.clause.body)
            if strict:
                # reachable through the constants minted in round one
                assert len(two.clause.body) > len(one.clause.body)

    def test_shared_constant_value_does_not_extend_the_frontier(self):
        # ten students share one phase: the induced bias marks the phase
        # '#', so round two must not walk from it to the other students
        schemas = (
            RelationSchema("student", ("stud",)),
            RelationSchema("professor", ("prof",)),
            RelationSchema("inPhase", ("stud", "phase")),
            RelationSchema("advisedBy", ("stud", "prof")),
        )
        students = [f"s{i}" for i in range(10)]
        professors = [f"p{i}" for i in range(10)]
        db = DatabaseInstance.build(
            schemas,
            {
                "student": [(s,) for s in students],
                "professor": [(p,) for p in professors],
                "inPhase": [(s, "pre_quals") for s in students],
                "advisedBy": [],
            },
        )
        ex = ExampleSet(schemas[-1], tuple(zip(students, professors)), ())
        db = register_target(db, ex)
        bias = induce_bias(db, "advisedBy")
        assert any("#" in m.symbols for m in bias.modes_for("inPhase"))
        bottom = build_bottom_clause(("s0", "p0"), db, bias, LearnConfig(iterations=2))
        grounded = {
            (lit.relation, tuple(bottom.witness[a] for a in lit.args))
            for lit in bottom.clause.body
        }
        assert grounded == {
            ("student", ("s0",)),
            ("professor", ("p0",)),
            ("inPhase", ("s0", "pre_quals")),
        }

    def test_value_also_at_an_open_position_extends_the_frontier(self):
        # r's third position is '#' in one of its modes: "k" also sits at
        # the open second position of its row and seeds round two, "j"
        # sits only at the '#' position and does not; "m" sits at no '#'
        schemas = (
            RelationSchema("r", ("a", "b", "c")),
            RelationSchema("s", ("a",)),
            RelationSchema("t", ("a",)),
        )
        db = DatabaseInstance.build(
            schemas,
            {
                "r": [("a", "k", "k"), ("a", "m", "j")],
                "s": [("k",), ("j",), ("m",)],
                "t": [("a",)],
            },
        )
        bias = BiasSpec(
            (
                PredicateDecl("t", ("T1",)),
                PredicateDecl("r", ("T1",) * 3),
                PredicateDecl("s", ("T1",)),
            ),
            (
                ModeDecl("r", ("+", "-", "-")),
                ModeDecl("r", ("+", "-", "#")),
                ModeDecl("s", ("+",)),
            ),
            ModeDecl("t", ("+",)),
        )
        bottom = build_bottom_clause(("a",), db, bias, LearnConfig(iterations=2))
        reached = {
            bottom.witness[lit.args[0]] for lit in bottom.clause.body if lit.relation == "s"
        }
        assert reached == {"k", "m"}

    def test_ground_bottom_clause_is_unchanged(self, small_db, auto_bias):
        # lgg saturates under implicit modes with no '#', so the shared
        # phase still reaches john's inPhase tuple
        bias = implicit_bias(small_db, "advisedBy", auto_bias.predicates)
        clause = ground_bottom_clause(("alice", "bob"), small_db, bias, LearnConfig())
        assert str(clause) == (
            'advisedBy("alice","bob") :- student("alice"), professor("bob"), '
            'inPhase("alice","post_quals"), hasPosition("bob","assistant_prof"), '
            'publication("p1","alice"), publication("p1","bob"), '
            'inPhase("john","post_quals").'
        )

    def test_seed_tuple_never_justifies_itself(self, small_db, manual_bias):
        # no bias can expose the target as a body relation, so a stored
        # target tuple, the seed included, never enters a bottom clause
        with pytest.raises(ValidationError, match="target relation"):
            read_bias(MANUAL_BIAS_TEXT + "advisedBy(+,-)\n")
        db = small_db.with_relation(
            small_db.schema("advisedBy"), [("alice", "bob"), ("alice", "mary")]
        )
        auto_bias = induce_bias(db, "advisedBy")
        cfg = LearnConfig(iterations=2)
        bodies = [
            build_bottom_clause(("alice", "bob"), db, bias, cfg).clause.body
            for bias in (manual_bias, auto_bias)
        ]
        bodies.append(
            ground_bottom_clause(
                ("alice", "bob"), db, implicit_bias(db, "advisedBy", auto_bias.predicates), cfg
            ).body
        )
        for body in bodies:
            assert body and all(l.relation != "advisedBy" for l in body)

    def test_relation_without_modes_contributes_nothing(self, small_db):
        bias = read_bias(
            "PREDICATES:\nadvisedBy(T1,T1)\nstudent(T1)\nprofessor(T1)\n"
            "inPhase(T1,T2)\nhasPosition(T1,T2)\npublication(T2,T1)\n"
            "MODES:\nadvisedBy(+,+)\nstudent(+)\n"
        )
        bottom = build_bottom_clause(("alice", "bob"), small_db, bias, LearnConfig())
        assert {l.relation for l in bottom.clause.body} == {"student"}

    def test_per_relation_cap_bounds_each_round(self, small_db, auto_bias):
        capped = build_bottom_clause(
            ("alice", "bob"), small_db, auto_bias, LearnConfig(iterations=1, per_relation_cap=1)
        )
        by_relation: dict[str, int] = {}
        for lit in capped.clause.body:
            by_relation[lit.relation] = by_relation.get(lit.relation, 0) + 1
        assert max(by_relation.values()) == 1

    def test_bottom_covers_seed_and_conforms(self, small_db, manual_bias, auto_bias):
        for bias in (manual_bias, auto_bias):
            for seed in (("alice", "bob"), ("john", "mary")):
                bottom = build_bottom_clause(seed, small_db, bias, LearnConfig())
                assert covers(bottom.clause, seed, small_db)
                assert conforms(bottom.clause, bias)


class TestArmg:
    def test_identity_when_already_covered(self, small_db, worked_clause):
        assert armg(worked_clause, ("john", "mary"), small_db) == worked_clause

    def test_drops_blocking_constant_literal(self, small_db, worked_clause):
        pinned = parse_clause(
            'advisedBy(x,y) :- student(x), inPhase(x,u), professor(y), '
            'hasPosition(y,"assistant_prof"), publication(z,x), publication(z,y).'
        )
        generalized = armg(pinned, ("john", "mary"), small_db)
        assert covers(generalized, ("john", "mary"), small_db)
        assert [l.relation for l in generalized.body] == [
            "student",
            "inPhase",
            "professor",
            "publication",
            "publication",
        ]

    def test_body_only_shrinks(self, small_db, worked_clause):
        out = armg(worked_clause, ("alice", "mary"), small_db)
        assert set(out.body) <= set(worked_clause.body)
        assert covers(out, ("alice", "mary"), small_db)

    @pytest.mark.parametrize(
        "text, kept",
        [
            # inPhase(w,u) shares no variable with the head: once the blocking
            # hasPosition literal goes, it must be pruned as disconnected
            (
                "advisedBy(x,y) :- publication(z,x), publication(z,y), inPhase(w,u), "
                'hasPosition(y,"assistant_prof").',
                ["publication(z,x)", "publication(z,y)"],
            ),
            # hasPosition(w,p) reaches the head only through the kept
            # publication literals, and stays; the student/inPhase group
            # touches no head variable, and goes
            (
                "advisedBy(x,y) :- hasPosition(w,p), publication(z,w), "
                "publication(z,x), student(s), inPhase(s,u), "
                'hasPosition(y,"assistant_prof").',
                ["publication(z,x)", "publication(z,w)", "hasPosition(w,p)"],
            ),
        ],
        ids=["isolated", "chain"],
    )
    def test_disconnected_literals_pruned(self, small_db, text, kept):
        out = armg(parse_clause(text), ("john", "mary"), small_db)
        assert covers(out, ("john", "mary"), small_db)
        assert [str(l) for l in out.body] == kept

    def test_connected_order_matches_two_pass_oracle(self):
        rng = random.Random(331)
        head_vars = [var("x0"), var("x1")]
        free = [var(f"y{i}") for i in range(6)]
        reordered = dropped = 0
        for _ in range(400):
            head = Literal("t", tuple(head_vars[: rng.randint(1, 2)]))

            def term():
                roll = rng.random()
                if roll < 0.15:
                    return rng.choice(head.args)
                return rng.choice(free) if roll < 0.85 else const(f"c{rng.randrange(3)}")

            body = [
                Literal(rng.choice("pqr"), tuple(term() for _ in range(rng.randint(1, 3))))
                for _ in range(rng.randint(0, 8))
            ]
            # a chain from the head through fresh variables, at random positions
            chain = [head.args[0], *(var(f"z{i}") for i in range(rng.randint(0, 3)))]
            for a, b in reversed(list(zip(chain, chain[1:]))):
                body.insert(rng.randint(0, len(body)), Literal("s", (a, b)))
            if rng.random() < 0.3:  # an all-constant literal
                body.insert(rng.randint(0, len(body)), Literal("q", (const("c0"),)))
            if body and rng.random() < 0.3:  # a duplicate literal
                body.insert(rng.randint(0, len(body)), rng.choice(body))
            out = _connected_order(head, body)
            assert out == connected_order_oracle(head, body)
            kept = set(out)
            reordered += out != [lit for lit in body if lit in kept]
            dropped += len(out) < len(body)
        assert reordered >= 50 and dropped >= 50

    def test_shared_memo_gives_the_fresh_cache_clauses(self):
        # one database, its indexes built by earlier calls, serves every
        # armg call of a learning run; that must never change a clause
        rng = random.Random(239)
        for _ in range(120):
            shared = random_db(rng, max_tuples=60, pool=4, max_arity=3)
            for _ in range(3):
                clause = random_clause(
                    rng, shared, max_body=12, max_free_vars=4, allow_constants=False
                )
                for _ in range(4):
                    example = random_example(rng, len(clause.head.args), pool=4)
                    if not covers(Clause(clause.head, ()), example, shared):
                        continue  # repeated head variable with unequal values
                    fresh = DatabaseInstance.build(shared.schemas, shared.rows)
                    assert armg(clause, example, shared) == armg(clause, example, fresh)


class TestArmgMatchesItsDefinition:
    """armg against `armg_oracle`: the blocking-atom drop by one coverage
    pass per prefix, then the head-connected order."""

    def test_random_clauses_with_constants(self):
        rng = random.Random(211)
        checked = dropped = 0
        while checked < 300:
            db = random_db(rng)
            clause = random_clause(rng, db, max_body=8, max_free_vars=3)
            example = random_example(rng, len(clause.head.args))
            if _head_binding(clause.head, example) is None:
                continue  # repeated head variable with unequal values
            out = armg(clause, example, db)
            assert out == armg_oracle(clause, example, db), (clause, example)
            checked += 1
            dropped += 0 < len(out.body) < len(set(clause.body))
        assert dropped >= 100, dropped

    @pytest.mark.parametrize("threshold", [5, 1])
    def test_bottom_clauses(self, threshold):
        tasks = [
            (fixtures.small_database_registered(), fixtures.small_examples()),
            (fixtures.typed_database_registered(), fixtures.typed_examples()),
        ]
        tasks += [random_task(random.Random(seed)) for seed in range(20)]
        checked = dropped = 0
        for db, ex in tasks:
            bias = induce_bias(db, ex.target.name, constant_threshold=threshold)
            for seed in ex.positives:
                bottom = build_bottom_clause(seed, db, bias, LearnConfig()).clause
                for e in ex.positives + ex.negatives:
                    if _head_binding(bottom.head, e) is None:
                        continue  # head shape cannot fit e
                    out = armg(bottom, e, db)
                    assert out == armg_oracle(bottom, e, db), (bottom, e)
                    checked += 1
                    dropped += len(out.body) < len(bottom.body)
        assert checked >= 1000 and dropped >= 500, (checked, dropped)


class TestScore:
    def test_synthetic_set_values(self, small_db, worked_clause):
        ex = fixtures.small_examples()
        co_pub = parse_clause("advisedBy(x,y) :- publication(z,x), publication(z,y).")
        assert score(co_pub, ex.positives, ex.negatives, small_db) == 2
        head_only = parse_clause("advisedBy(x,y).")
        assert score(head_only, ex.positives, ex.negatives, small_db) == 0
        nothing = parse_clause("advisedBy(x,y) :- student(y).")
        assert score(nothing, ex.positives, ex.negatives, small_db) == 0


class TestGeneralizeClause:
    def test_head_fit_matches_head_only_coverage_oracle(self):
        # generalize_clause skips an example the head cannot bind to; it
        # used to ask the joined coverage pass of the head-only clause
        rng = random.Random(251)
        db = random_db(rng)
        terms = [var("x"), var("y"), var("z"), const("c0")]
        rejected = {"arity": 0, "repeated variable": 0, "constant": 0}
        for _ in range(1000):
            head = Literal("t", tuple(rng.choice(terms) for _ in range(rng.randint(1, 3))))
            arity = len(head.args) if rng.random() < 0.7 else rng.randint(1, 3)
            example = random_example(rng, arity, pool=3)
            fits = _head_binding(head, example) is not None
            assert fits == head_fit_oracle(head, example), (head, example)
            if len(example) != len(head.args):
                # coverage refuses an example of another arity outright
                with pytest.raises(ValidationError, match="arity"):
                    CoverageCache(db, [example]).covers(Clause(head, ()), example)
                rejected["arity"] += 1
                continue
            assert fits == CoverageCache(db, [example]).covers(Clause(head, ()), example)
            if fits:
                continue
            if all(t.is_var for t in head.args):
                rejected["repeated variable"] += 1
            else:
                rejected["constant"] += 1
        assert min(rejected.values()) >= 50, rejected

    def test_returns_bottom_when_it_already_generalizes(self, small_db, auto_bias):
        ex = fixtures.small_examples()
        bottom = build_bottom_clause(
            ("alice", "bob"), small_db, auto_bias, LearnConfig()
        ).clause
        out = generalize_clause(
            bottom, ex.positives, ex.negatives, small_db, LearnConfig()
        )
        assert score(out, ex.positives, ex.negatives, small_db) == 2

    def test_armg_repairs_overly_specific_bottom(self, small_db):
        ex = fixtures.small_examples()
        pinned = parse_clause(
            'advisedBy(x,y) :- student(x), inPhase(x,u), professor(y), '
            'hasPosition(y,"assistant_prof"), publication(z,x), publication(z,y).'
        )
        out = generalize_clause(
            pinned, ex.positives, ex.negatives, small_db, LearnConfig()
        )
        assert score(out, ex.positives, ex.negatives, small_db) == 2
        assert all(l.relation != "hasPosition" for l in out.body)

    def test_shared_cache_generalizes_toward_each_example(self, small_db):
        # armg drops inPhase for alice and both constant literals for john:
        # the memo must tell the two examples apart
        ex = fixtures.small_examples()
        pinned = parse_clause(
            'advisedBy(x,y) :- student(x), inPhase(x,"pre_quals"), professor(y), '
            'hasPosition(y,"assistant_prof"), publication(z,x), publication(z,y).'
        )
        shared = CoverageCache(small_db, ex.positives + ex.negatives)
        fresh = []
        for positive in ex.positives:
            args = (pinned, (positive,), ex.negatives, small_db, LearnConfig())
            fresh.append(generalize_clause(*args))
            assert generalize_clause(*args, cache=shared) == fresh[-1]
        assert fresh[0] != fresh[1]

    def test_single_positive_keeps_bottom_score(self, small_db, auto_bias):
        bottom = build_bottom_clause(
            ("alice", "bob"), small_db, auto_bias, LearnConfig()
        ).clause
        out = generalize_clause(bottom, (("alice", "bob"),), (), small_db, LearnConfig())
        assert score(out, (("alice", "bob"),), (), small_db) == 1

    def test_greedy_configuration_terminates(self, small_db, auto_bias):
        ex = fixtures.small_examples()
        bottom = build_bottom_clause(
            ("alice", "bob"), small_db, auto_bias, LearnConfig()
        ).clause
        cfg = LearnConfig(beam_width=1, sample_size=1)
        out = generalize_clause(bottom, ex.positives, ex.negatives, small_db, cfg)
        assert covers(out, ("alice", "bob"), small_db)


class TestScoringEquivalent:
    def test_covers_what_its_clause_covers(self):
        # random clauses, half of them merged with a copy whose non-head
        # variables are renamed apart, against random databases over four
        # values
        rng = random.Random(409)
        head_vars = [var("x0"), var("x1")]
        schemas = (
            RelationSchema("p", ("a0", "a1")),
            RelationSchema("q", ("a0",)),
            RelationSchema("r", ("a0", "a1", "a2")),
        )
        values = [f"c{i}" for i in range(4)]
        examples = [(a, b) for a in values for b in values]
        twins = 0
        for _ in range(300):
            db = DatabaseInstance.build(schemas, {
                s.name: [
                    tuple(rng.choice(values) for _ in range(s.arity))
                    for _ in range(rng.randint(0, 12))
                ]
                for s in schemas
            })
            pool = [var(f"y{i}") for i in range(rng.randint(1, 2))] + [const("c0")]
            clause = random_clause_over(rng, head_vars, pool, 5, rng.choice(("pppqr", "ppqq", "pq")))
            if rng.random() < 0.5:
                renamed = {v: var(f"z{v.symbol}") for v in pool if v.is_var}
                body, copy = list(clause.body), list(apply_renaming(clause, renamed).body)
                merged = []
                while body or copy:
                    source = body if body and (not copy or rng.random() < 0.5) else copy
                    merged.append(source.pop(0))
                clause = Clause(clause.head, tuple(merged))
            equivalent = _scoring_equivalent(clause)
            assert set(equivalent.body) <= set(clause.body)
            assert covered_examples(equivalent, examples, db) == covered_examples(
                clause, examples, db
            )
            assert subsumes_oracle(clause, equivalent) and subsumes_oracle(equivalent, clause)
            twins += len(equivalent.body) < len(minimize(fold_singleton_literals(clause)).body)
        assert twins >= 30, twins

    def test_learning_scores_reduced_clauses_without_a_search(self, monkeypatch):
        # every joined pass of a learning run evaluates a clause that neither
        # the fold nor the twin-group drop shrinks, and no subsumption search
        # runs to find it
        evaluate, reduce = learner.covered_examples, learner._scoring_equivalent
        evaluated, shrunk = [], []

        def recording(clause, examples, db):
            evaluated.append(clause)
            return evaluate(clause, examples, db)

        def reducing(clause):
            equivalent = reduce(clause)
            shrunk.append(len(equivalent.body) < len(clause.body))
            return equivalent

        def no_search(*args):
            raise AssertionError("a subsumption search ran during learning")

        monkeypatch.setattr(learner, "covered_examples", recording)
        monkeypatch.setattr(clauses, "covered_examples", recording)
        monkeypatch.setattr(learner, "_scoring_equivalent", reducing)
        monkeypatch.setattr(clauses, "_embed", no_search)
        tasks = [
            (fixtures.small_database_registered(), fixtures.small_examples()),
            (fixtures.typed_database_registered(), fixtures.typed_examples()),
        ]
        tasks += [random_task(random.Random(seed)) for seed in range(50, 65)]
        for db, ex in tasks:
            for iterations in (1, 2):
                cfg = LearnConfig(iterations=iterations)
                learn_definition(db, ex, induce_bias(db, ex.target.name), cfg)
        assert all(reduce(c) == c for c in evaluated)
        assert len(evaluated) >= 50 and sum(shrunk) >= 20, (len(evaluated), sum(shrunk))


def _planted_task(out: Path, seed: int, **params):
    """A database from the bench's `planted` generator, registered, with
    closed-world negatives at the bench's ratio of two per positive."""
    spec = importlib.util.spec_from_file_location(
        "bench_gen", Path(__file__).resolve().parents[1] / "bench" / "gen.py"
    )
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    target = gen.planted(out, seed, **params)
    db = load_database(out / "schema.txt", out / "facts", examples_backed=(target,))
    ex = load_examples(out / "examples.txt", db.schema(target))
    db = register_target(db, ex)
    negatives = generate_negatives(db, ex.positives, ex.target, 2, seed)
    return db, ExampleSet(ex.target, ex.positives, negatives)


class TestArmgReuse:
    def test_reuse_is_accepted_exactly_when_armg_keeps_its_literals(
        self, monkeypatch, tmp_path
    ):
        # generalize_clause reuses an earlier armg result for a new example
        # exactly when armg's pass there keeps the same literals, and then
        # the reuse is armg's own result, folded; both ways of rejecting
        # one occur
        holds, reuses, drops = learner._holds_for, [], {}
        rejected = {"not covered": 0, "a left-out literal is satisfiable": 0}

        def recording(clause, result, folded, example, cache):
            accepted = holds(clause, result, folded, example, cache)
            key = (clause, example, id(cache.db))
            if key not in drops:
                drops[key] = set(blocking_drop_oracle(clause, example, cache.db))
            assert accepted == (drops[key] == set(result.body)), (clause, result, example)
            if accepted:
                reuses.append((clause, folded, example, cache.db))
            elif not covers(result, example, cache.db):
                rejected["not covered"] += 1
            else:
                rejected["a left-out literal is satisfiable"] += 1
            return accepted

        monkeypatch.setattr(learner, "_holds_for", recording)
        tasks = [
            (fixtures.small_database_registered(), fixtures.small_examples()),
            (fixtures.typed_database_registered(), fixtures.typed_examples()),
        ]
        tasks += [random_task(random.Random(seed)) for seed in range(20)]
        # the oracle's passes over the larger bottom clauses of the bench's
        # databases without '#' modes (threshold 1) take seconds
        planted = [
            _planted_task(tmp_path / f"p{seed}", seed, profs=2, students_per_prof=10,
                          papers_per_pair=1)
            for seed in (1, 2)
        ]
        runs = [(*task, (5, 1)) for task in tasks] + [(*task, (5,)) for task in planted]
        for db, ex, thresholds in runs:
            for threshold in thresholds:
                bias = induce_bias(db, ex.target.name, constant_threshold=threshold)
                for iterations in (1, 2):
                    learn_definition(db, ex, bias, LearnConfig(iterations=iterations))
        for clause, folded, example, db in reuses:
            assert folded == fold_singleton_literals(armg(clause, example, db))
        assert len(reuses) >= 50 and min(rejected.values()) >= 10, (len(reuses), rejected)

    def test_cache_without_the_examples_reuses_nothing(self, monkeypatch, small_db):
        # outside the universe a coverage test is a pass of its own: no
        # reuse is tried there, and the clause learned is the same
        ex = fixtures.small_examples()
        pinned = parse_clause(
            'advisedBy(x,y) :- student(x), inPhase(x,"pre_quals"), professor(y), '
            'hasPosition(y,"assistant_prof"), publication(z,x), publication(z,y).'
        )
        holds, single, verified, tried = learner._holds_for, learner.covers, [], []

        def verifying(*args):
            verified.append(args)
            return holds(*args)

        def counting(*args):
            tried.append(args)
            return single(*args)

        monkeypatch.setattr(learner, "_holds_for", verifying)
        monkeypatch.setattr(learner, "covers", counting)
        args = (pinned, ex.positives, ex.negatives, small_db, LearnConfig())
        full = generalize_clause(*args)
        assert verified and not tried  # inside the universe a reuse is tried
        verified.clear()
        outside = generalize_clause(*args, cache=CoverageCache(small_db))
        calls = len(tried)
        assert outside == full and not verified
        # the same run with reuse turned off makes the same single-example tests
        monkeypatch.setattr(learner, "_holds_for", lambda *a: False)
        tried.clear()
        assert generalize_clause(*args, cache=CoverageCache(small_db)) == outside
        assert len(tried) == calls > 0


class TestLearnDefinition:
    def test_fixture_learns_perfect_definition(self, small_db, auto_bias):
        ex = fixtures.small_examples()
        definition = learn_definition(small_db, ex, auto_bias, LearnConfig())
        assert len(definition.clauses) == 1
        clause = definition.clauses[0]
        assert all(covers(clause, p, small_db) for p in ex.positives)
        assert not any(covers(clause, n, small_db) for n in ex.negatives)

    def test_fixture_learns_the_worked_clause(self, small_db, auto_bias, worked_clause):
        # the bottom clause wins here, and its inPhase variant sharing only
        # the phase is folded away
        ex = fixtures.small_examples()
        definition = learn_definition(small_db, ex, auto_bias, LearnConfig())
        assert len(definition.clauses) == 1
        assert isomorphic(definition.clauses[0], worked_clause)

    def test_leaves_only_its_indexes_on_the_database(self, small_db, auto_bias):
        # what a run memoizes lives in its CoverageCache, not on the database;
        # both indexes are built first, whichever of them learning reads
        small_db.fact_set("student")
        small_db.matching_rows("student", {0: "alice"})
        learn_definition(small_db, fixtures.small_examples(), auto_bias, LearnConfig())
        assert set(vars(small_db)) == {"schemas", "rows", "_fact_sets", "_pos_index"}

    def test_empty_positives_give_empty_definition(self, small_db, auto_bias):
        ex = ExampleSet(small_db.schema("advisedBy"), (), ())
        assert learn_definition(small_db, ex, auto_bias, LearnConfig()).clauses == ()

    def test_indistinguishable_data_yields_empty_definition(self):
        schemas = (RelationSchema("r", ("a",)), RelationSchema("t", ("a",)))
        db = DatabaseInstance.build(schemas, {"r": [], "t": [("alice",), ("bob",)]})
        ex = ExampleSet(schemas[1], (("alice",),), (("bob",),))
        bias = BiasSpec(
            (PredicateDecl("t", ("T1",)), PredicateDecl("r", ("T1",))),
            (ModeDecl("r", ("+",)),),
            ModeDecl("t", ("+",)),
        )
        cfg = LearnConfig(min_precision=0.6)
        definition = learn_definition(db, ex, bias, cfg)
        assert definition.clauses == ()

    def test_deterministic_output(self, small_db, auto_bias):
        ex = fixtures.small_examples()
        first = learn_definition(small_db, ex, auto_bias, LearnConfig(rng_seed=9))
        second = learn_definition(small_db, ex, auto_bias, LearnConfig(rng_seed=9))
        assert str(first) == str(second)

    def test_accepted_clauses_conform(self, small_db, auto_bias):
        ex = fixtures.small_examples()
        definition = learn_definition(small_db, ex, auto_bias, LearnConfig())
        assert all(conforms(c, auto_bias) for c in definition.clauses)

    def test_deep_reduction_shrinks_without_changing_coverage(self, small_db, auto_bias):
        # `learn --deep-reduce` replaces each learned clause by its core
        cases = [(small_db, fixtures.small_examples(), auto_bias)]
        for seed in range(50, 65):
            db, ex = random_task(random.Random(seed))
            cases.append((db, ex, induce_bias(db, "t")))
        shrunk = 0
        for db, ex, bias in cases:
            for fat in learn_definition(db, ex, bias, LearnConfig()).clauses:
                lean = minimize(fat, deep=True)
                assert len(lean.body) <= len(fat.body)
                shrunk += len(lean.body) < len(fat.body)
                for example in ex.positives + ex.negatives:
                    assert covers(lean, example, db) == covers(fat, example, db)
        assert shrunk >= 2, shrunk

    def test_shared_cache_learns_what_fresh_caches_learn(self, small_db, manual_bias):
        # bottom clauses are memoized per bias, iterations and cap
        ex = fixtures.small_examples()
        shared = CoverageCache(small_db, ex.positives + ex.negatives)
        runs = [
            (bias, LearnConfig(iterations=iterations, per_relation_cap=cap))
            for bias in (manual_bias, induce_bias(small_db, "advisedBy"))
            for iterations in (1, 2)
            for cap in (1, 100)
        ]
        for bias, cfg in runs:
            fresh = learn_definition(small_db, ex, bias, cfg)
            assert learn_definition(small_db, ex, bias, cfg, cache=shared) == fresh


class TestRandomTask:
    def test_every_seed_builds_a_task(self):
        # a draw without a tuple has no values to pair: it is drawn again
        for seed in range(200):
            db, ex = random_task(random.Random(seed))
            assert ex.positives and set(db.relation_rows("t")) == set(ex.positives)
            assert db.total_tuples() > len(ex.positives)


class TestLearnConfig:
    def test_rejects_nonpositive_fields(self):
        with pytest.raises(ConfigError):
            LearnConfig(iterations=0)
        with pytest.raises(ConfigError):
            LearnConfig(beam_width=0)
        with pytest.raises(ConfigError):
            LearnConfig(min_precision=0.0)
        with pytest.raises(ConfigError):
            LearnConfig(min_positives=0)

    def test_min_positive_resolution(self):
        cfg = LearnConfig()
        assert cfg.resolved_min_positives(2) == 1
        assert cfg.resolved_min_positives(4) == 2
        assert LearnConfig(min_positives=3).resolved_min_positives(100) == 3
