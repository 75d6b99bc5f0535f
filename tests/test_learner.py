"""Bottom-clause construction, armg, beam search, and the cover-set loop."""

from __future__ import annotations

import importlib.util
import random
import re
from pathlib import Path

import pytest

from automode import clauses, coverage, fixtures, learner, witness
from automode.evaluation import cross_validate, generate_negatives
from automode.biasgen import ModeDecl, PredicateDecl, BiasSpec, conforms, induce_bias, read_bias
from automode.clauses import (
    Clause,
    Literal,
    Term,
    apply_renaming,
    canonical_text,
    fold_singleton_literals,
    minimize,
    parse_clause,
    var,
)
from automode.clauses import _head_binding
from automode.coverage import covered_examples
from automode.errors import ConfigError, ValidationError
from automode.learner import (
    _connected_order,
    _top_ranked,
    CoverageCache,
    LearnConfig,
    armg,
    build_bottom_clause,
    generalize_clause,
    learn_definition,
    score,
)
from automode.lgg import ground_bottom_clause, implicit_bias
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
    covers_oracle,
    head_fit_oracle,
    isomorphic,
    random_clause,
    random_clause_over,
    random_db,
    random_example,
    random_task,
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

    def test_example_of_the_wrong_arity_rejected(self, small_db, manual_bias):
        with pytest.raises(
            ValidationError, match="^example arity 1 does not match target advisedBy$"
        ):
            build_bottom_clause(("john",), small_db, manual_bias, LearnConfig())

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
                assert covered_examples(bottom.clause, [seed], small_db)
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
        assert covered_examples(generalized, [("john", "mary")], small_db)
        assert [l.relation for l in generalized.body] == [
            "student",
            "inPhase",
            "professor",
            "publication",
            "publication",
        ]

    def test_head_that_cannot_cover_the_example_rejected(self, small_db):
        clause = parse_clause("advisedBy(x,x) :- student(x).")
        with pytest.raises(
            ValidationError,
            match=re.escape("head advisedBy(x,x) cannot cover ('john', 'mary') at all"),
        ):
            armg(clause, ("john", "mary"), small_db)

    @pytest.mark.parametrize(
        "text, message",
        [
            (
                'advisedBy(x,y) :- publication(z), inPhase(x,"post_quals",y).',
                "literal publication(z) does not match arity 2 of publication",
            ),
            (
                "advisedBy(x,y) :- publication(z,x), missing(z,y).",
                "clause relation missing from database: missing",
            ),
        ],
        ids=["arity", "relation"],
    )
    def test_body_literal_the_database_cannot_hold_rejected(self, small_db, text, message):
        # the witness search pairs a literal's arguments with rows of any
        # width: armg checks the clause before it searches
        with pytest.raises(ValidationError, match=re.escape(message)):
            armg(parse_clause(text), ("alice", "bob"), small_db)

    def test_body_only_shrinks(self, small_db, worked_clause):
        out = armg(worked_clause, ("alice", "mary"), small_db)
        assert set(out.body) <= set(worked_clause.body)
        assert covered_examples(out, [("alice", "mary")], small_db)

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
        assert covered_examples(out, [("john", "mary")], small_db)
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
                return rng.choice(free) if roll < 0.85 else f"c{rng.randrange(3)}"

            body = [
                Literal(rng.choice("pqr"), tuple(term() for _ in range(rng.randint(1, 3))))
                for _ in range(rng.randint(0, 8))
            ]
            # a chain from the head through fresh variables, at random positions
            chain = [head.args[0], *(var(f"z{i}") for i in range(rng.randint(0, 3)))]
            for a, b in reversed(list(zip(chain, chain[1:]))):
                body.insert(rng.randint(0, len(body)), Literal("s", (a, b)))
            if rng.random() < 0.3:  # an all-constant literal
                body.insert(rng.randint(0, len(body)), Literal("q", ("c0",)))
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
                    if not covered_examples(Clause(clause.head, ()), [example], shared):
                        continue  # repeated head variable with unequal values
                    fresh = DatabaseInstance.build(shared.schemas, shared.rows)
                    assert armg(clause, example, shared) == armg(clause, example, fresh)

    def test_a_chain_extends_without_a_search(self, monkeypatch):
        # each literal of the chain extends the assignment by its one row,
        # a one-literal search: armg keeps them all and never re-solves
        search = learner.find_witness
        extensions = 0

        def no_search(literals, binding, db):
            nonlocal extensions
            if len(literals) > 1:
                raise AssertionError("armg searched")
            extensions += 1
            return search(literals, binding, db)

        monkeypatch.setattr(learner, "find_witness", no_search)
        db = DatabaseInstance.build(
            (RelationSchema("e", ("a", "b")),),
            {"e": [(f"c{i}", f"c{i + 1}") for i in range(200)]},
        )
        chain = tuple(Literal("e", (var(f"x{i}"), var(f"x{i + 1}"))) for i in range(200))
        clause = Clause(Literal("t", (var("x0"),)), chain)
        assert armg(clause, ("c0",), db) == clause
        assert extensions == 200

    def test_one_pending_literal_is_searched_without_a_split(self, monkeypatch):
        # armg's one-row extensions and the search's leaves: with no literal
        # left to bind, the search returns the binding itself; with one, the
        # extension by the first row in `matching_rows` order that fits, or
        # None; neither splits the literals into groups
        split = witness._components

        def splitting(literals, binding):
            assert len(literals) >= 2, literals
            return split(literals, binding)

        def first_fit(lit, binding, db):
            fixed = {
                pos: binding.get(a, a)
                for pos, a in enumerate(lit.args)
                if type(a) is not Term or a in binding
            }
            for row in db.matching_rows(lit.relation, fixed):
                extended = dict(binding)
                if all(extended.setdefault(a, v) == v for a, v in zip(lit.args, row)
                       if type(a) is Term):
                    return extended
            return None

        monkeypatch.setattr(witness, "_components", splitting)
        rng = random.Random(263)
        seen = {"binding": 0, "extended": 0, "refuted": 0}
        for _ in range(600):
            db = random_db(rng, max_arity=3, max_tuples=40, pool=4)
            clause = random_clause(rng, db, max_body=5, max_free_vars=2)
            binding = _head_binding(clause.head, random_example(rng, len(clause.head.args), 4))
            if binding is None:
                continue  # repeated head variable with unequal values
            bound = [
                lit for lit in clause.body
                if all(type(a) is not Term or a in binding for a in lit.args)
            ]
            pending = [lit for lit in clause.body if lit not in bound][:1]
            literals = rng.sample(bound + pending, len(bound + pending))
            found = witness.find_witness(literals, binding, db)
            if not all(
                tuple(binding.get(a, a) for a in lit.args) in db.fact_set(lit.relation)
                for lit in bound
            ):
                assert found is None
            elif not pending:
                assert found is binding
                seen["binding"] += 1
            else:
                assert found == first_fit(pending[0], binding, db), (literals, binding)
                seen["extended" if found is not None else "refuted"] += 1
        assert min(seen.values()) >= 50, seen


class TestArmgMatchesItsDefinition:
    """armg against `armg_oracle`: the blocking-atom drop by one coverage
    pass per prefix, then the head-connected order."""

    def test_random_clauses_with_constants(self, monkeypatch):
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

        # wide bodies over four values: the one-row extension often fails,
        # so armg re-solves the literal's group, and a satisfiable re-solve
        # must carry its values into the assignment that later literals extend;
        # only a search over two or more literals is surely a re-solve, since
        # the one-row extension is a one-literal search too
        search = learner.find_witness
        solved = refuted = 0

        def recording(literals, binding, db):
            nonlocal solved, refuted
            found = search(literals, binding, db)
            if len(literals) >= 2:
                solved += found is not None
                refuted += found is None
            return found

        monkeypatch.setattr(learner, "find_witness", recording)
        rng = random.Random(223)
        for _ in range(400):
            db = random_db(rng, max_relations=3, max_arity=3, max_tuples=100, pool=4)
            clause = random_clause(
                rng, db, max_body=14, max_free_vars=6, allow_constants=False
            )
            example = random_example(rng, len(clause.head.args), pool=4)
            if _head_binding(clause.head, example) is None:
                continue  # repeated head variable with unequal values
            out = armg(clause, example, db)
            assert out == armg_oracle(clause, example, db), (clause, example)
        assert solved >= 50 and refuted >= 50, (solved, refuted)

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
        terms = [var("x"), var("y"), var("z"), "c0"]
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
            if all(type(t) is Term for t in head.args):
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

    def test_wrong_arity_bottom_rejected_before_any_coverage_pass(self, small_db, monkeypatch):
        def no_pass(*args):
            raise AssertionError("a coverage pass ran")

        monkeypatch.setattr(learner, "covered_examples", no_pass)
        ex = fixtures.small_examples()
        bottom = parse_clause('advisedBy(x,y) :- publication(z), inPhase(x,"post_quals",y).')
        message = "literal publication(z) does not match arity 2 of publication"
        for positives, negatives in ((ex.positives, ex.negatives), ((), ())):
            with pytest.raises(ValidationError, match=re.escape(message)):
                generalize_clause(bottom, positives, negatives, small_db, LearnConfig())

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
        # the cache's armg store must tell the two examples apart
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
        assert covered_examples(out, [("alice", "bob")], small_db)


class TestRanking:
    def test_canonical_text_breaks_only_the_ties_that_reach_the_beam(self, monkeypatch):
        a, b, c, d, e, f = (
            parse_clause(text)
            for text in (
                "t(x) :- q(x).",
                "t(x) :- s(x).",
                "t(x) :- r(x).",
                "t(x) :- q(x), r(x).",
                "t(x) :- s(x,x).",
                "t(x) :- r(x,x).",
            )
        )
        scores = {a: 3, b: 2, c: 2, d: 2, e: 1, f: 1}
        rendered = []

        def recording(clause):
            rendered.append(clause)
            return canonical_text(clause)

        monkeypatch.setattr(learner, "canonical_text", recording)
        # b and c tie on score and body length, and c's text sorts first
        assert _top_ranked([b, d, a, f, c, e], scores.__getitem__, 3) == [a, c, b]
        assert sorted(rendered, key=str) == sorted([b, c], key=str)
        rendered.clear()
        assert _top_ranked([b, d, a, f, c, e], scores.__getitem__, 1) == [a]
        assert rendered == []

    def test_matches_a_full_sort_by_score_length_and_text(self):
        rng = random.Random(263)
        head = [var("x0"), var("x1")]
        pool = [var("y0"), var("y1"), var("y2"), "c0"]
        for _ in range(300):
            candidates = list(dict.fromkeys(
                random_clause_over(rng, head, pool, max_body=3)
                for _ in range(rng.randint(1, 12))
            ))
            scores = {c: rng.randint(0, 2) for c in candidates}
            width = rng.randint(1, 4)
            expected = sorted(
                candidates, key=lambda c: (-scores[c], len(c.body), canonical_text(c))
            )[:width]
            assert _top_ranked(candidates, scores.__getitem__, width) == expected


class TestScoringThroughFolds:
    def test_a_twin_copy_adds_no_store_entry(self):
        # random clauses, merged with a copy whose non-head variables are
        # renamed apart, against random databases over four values: the
        # copy's components have its clause's shapes, so a store that
        # holds the clause's components evaluates none of the copy's
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
            pool = [var(f"y{i}") for i in range(rng.randint(1, 2))] + ["c0"]
            clause = random_clause_over(rng, head_vars, pool, 5, rng.choice(("pppqr", "ppqq", "pq")))
            renamed = {v: var(f"z{v.symbol}") for v in pool if type(v) is Term}
            body, copy = list(clause.body), list(apply_renaming(clause, renamed).body)
            merged = []
            while body or copy:
                source = body if body and (not copy or rng.random() < 0.5) else copy
                merged.append(source.pop(0))
            merged = Clause(clause.head, tuple(merged))
            store: dict = {}
            want = frozenset(e for e in examples if covers_oracle(merged, e, db))
            assert covered_examples(clause, examples, db, components=store) == want
            size = len(store)
            assert covered_examples(merged, examples, db, components=store) == want
            if want:
                # the clause's pass stopped at no empty component: every
                # shape of the merged clause is already stored
                assert len(store) == size, (str(clause), str(merged))
                twins += size > 0
        assert twins >= 100, twins

    def test_learning_scores_folded_clauses_without_a_search(self, monkeypatch):
        # every clause a learning run evaluates is its own singleton fold,
        # and no subsumption search runs to find it
        evaluate, fold = learner.covered_examples, learner.fold_singleton_literals
        evaluated, shrunk = [], []

        def recording(clause, examples, db, **store):
            evaluated.append(clause)
            return evaluate(clause, examples, db, **store)

        def folding(clause):
            folded = fold(clause)
            shrunk.append(len(folded.body) < len(clause.body))
            return folded

        def no_search(*args):
            raise AssertionError("a subsumption search ran during learning")

        monkeypatch.setattr(learner, "covered_examples", recording)
        monkeypatch.setattr(coverage, "covered_examples", recording)
        monkeypatch.setattr(learner, "fold_singleton_literals", folding)
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
        assert all(fold(c) == c for c in evaluated)
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


class TestAlphabeticVariants:
    def test_cross_validation_joins_each_variant_once(self, monkeypatch, tmp_path):
        # the bench's cv-shallow shape, on seeds whose folds learn clauses
        # that differ only in their variable names: those clauses share
        # their components' passes, so each component is evaluated once
        # per run, and some clause reads only stored components
        evaluate_clause, evaluate = learner.covered_examples, coverage._covered_keys
        clause_calls, evaluated = [], []

        def recording_clause(clause, examples, db, **store):
            clause_calls.append(canonical_text(clause))
            return evaluate_clause(clause, examples, db, **store)

        def recording(literals, head_vars, keys, db):
            head = Literal("advisedBy", head_vars)
            evaluated.append(canonical_text(Clause(head, tuple(literals))))
            return evaluate(literals, head_vars, keys, db)

        monkeypatch.setattr(learner, "covered_examples", recording_clause)
        monkeypatch.setattr(coverage, "_covered_keys", recording)
        for seed in (1, 3, 7):
            clause_calls.clear()
            evaluated.clear()
            db, ex = _planted_task(tmp_path / str(seed), seed, profs=10)
            bias = induce_bias(db, ex.target.name)
            cross_validate(db, ex, bias, LearnConfig(iterations=1), 5, seed)
            assert evaluated and len(set(evaluated)) == len(evaluated), evaluated
            assert len(set(clause_calls)) < len(clause_calls), clause_calls


def _reuse_runs(tmp_path: Path):
    """`TestArmgReuse`'s learning runs: the fixtures and 20 random tasks at
    constant thresholds 5 and 1, and two small planted databases at 5, each
    at iterations 1 and 2."""
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
            elif not covered_examples(result, [example], cache.db):
                rejected["not covered"] += 1
            else:
                rejected["a left-out literal is satisfiable"] += 1
            return accepted

        monkeypatch.setattr(learner, "_holds_for", recording)
        _reuse_runs(tmp_path)
        for clause, folded, example, db in reuses:
            assert folded == fold_singleton_literals(armg(clause, example, db))
        assert len(reuses) >= 50 and min(rejected.values()) >= 10, (len(reuses), rejected)

    def test_the_check_runs_no_witness_search(self, monkeypatch, tmp_path):
        # each left-out literal's group is a clause whose component passes
        # the cache keeps: find_witness serves armg alone
        holds, search = learner._holds_for, learner.find_witness
        checks = searches = 0
        inside = False

        def checking(*args):
            nonlocal checks, inside
            checks += 1
            inside = True
            try:
                return holds(*args)
            finally:
                inside = False

        def recording(literals, binding, db):
            nonlocal searches
            assert not inside, "the reuse check ran a witness search"
            searches += 1
            return search(literals, binding, db)

        monkeypatch.setattr(learner, "_holds_for", checking)
        monkeypatch.setattr(learner, "find_witness", recording)
        _reuse_runs(tmp_path)
        assert checks >= 100 and searches >= 100, (checks, searches)

    def test_the_check_folds_no_prefix_after_one_that_covers(self, monkeypatch):
        # the result leaves out three literals, and the blocked prefix of
        # the first, student(x) then publication(z,x), covers the example:
        # the check fails there and folds none of the later prefixes
        fold = learner.fold_singleton_literals
        inputs: list[Clause] = []

        def recording(clause):
            inputs.append(clause)
            return fold(clause)

        cache = CoverageCache(fixtures.small_database_registered(), [("alice", "bob")])
        clause = parse_clause(
            "advisedBy(x,y) :- student(x), publication(z,x), professor(y), publication(w,y)."
        )
        result = parse_clause("advisedBy(x,y) :- student(x).")
        monkeypatch.setattr(learner, "fold_singleton_literals", recording)
        assert not learner._holds_for(clause, result, result, ("alice", "bob"), cache)
        assert inputs == [parse_clause("advisedBy(x,y) :- student(x), publication(z,x).")]


class TestFoldOnce:
    def test_cross_validation_folds_each_clause_once(self, monkeypatch, tmp_path):
        # the beam's armg results, the clauses scored through their folds,
        # the blocked prefixes of the reuse check and the winner's final fold
        # share one fold per distinct clause in the run's cache
        fold = learner.fold_singleton_literals
        inputs: list[Clause] = []

        def recording(clause):
            inputs.append(clause)
            return fold(clause)

        monkeypatch.setattr(learner, "fold_singleton_literals", recording)
        # the bench's cv-shallow shape
        folded = 0
        for seed in range(1, 11):
            db, ex = _planted_task(tmp_path / str(seed), seed, profs=10)
            for iterations in (1, 2):
                inputs.clear()
                bias = induce_bias(db, ex.target.name)
                cross_validate(db, ex, bias, LearnConfig(iterations=iterations), 5, 1)
                assert len(set(inputs)) == len(inputs), len(inputs) - len(set(inputs))
                folded += len(inputs)
        assert folded >= 50, folded


class TestLearnDefinition:
    def test_fixture_learns_perfect_definition(self, small_db, auto_bias):
        ex = fixtures.small_examples()
        definition = learn_definition(small_db, ex, auto_bias, LearnConfig())
        assert len(definition.clauses) == 1
        clause = definition.clauses[0]
        assert covered_examples(clause, ex.positives, small_db) == set(ex.positives)
        assert not covered_examples(clause, ex.negatives, small_db)

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
                examples = ex.positives + ex.negatives
                assert covered_examples(lean, examples, db) == covered_examples(fat, examples, db)
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
