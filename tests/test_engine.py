"""The clause-evaluation engine: witness search and joined evaluation.

These are the load-bearing fast paths behind coverage, armg and scoring, so
each is checked against an independent route on random inputs.
"""

from __future__ import annotations

import random
from math import prod

import pytest

from automode import clauses, coverage, fixtures, learner, witness
from automode.clauses import parse_clause
from automode.clauses import Clause, HornDefinition, Literal, Term, fold_singleton_literals, var
from automode.clauses import _head_binding, canonical_text
from automode.coverage import covered_examples
from automode.learner import (
    CoverageCache,
    LearnConfig,
    build_bottom_clause,
    generalize_clause,
    learn_definition,
    score,
)
from automode.lgg import ground_bottom_clause, implicit_bias, lgg_clauses, lgg_learn
from automode.biasgen import induce_bias
from automode.evaluation import generate_negatives, precision_recall
from automode.errors import ValidationError
from automode.relstore import DatabaseInstance, ExampleSet, RelationSchema, register_target
from automode.witness import _components, find_witness

from oracles import (
    cheapest_variable_oracle,
    covers_oracle,
    fold_oracle,
    ground_cases,
    ground_clause_pairs,
    linked_oracle,
    pairwise_semijoin_oracle,
    random_clause,
    random_clause_over,
    random_db,
    random_example,
    random_task,
    semijoin_fixpoint_oracle,
)


def head_binding(clause, example):
    """The binding that maps the clause head onto `example`, or None."""
    binding = {}
    for term, value in zip(clause.head.args, example):
        if type(term) is Term:
            if binding.setdefault(term, value) != value:
                return None
        elif term != value:
            return None
    return binding


def witness_covers(clause, example, db) -> bool:
    binding = head_binding(clause, example)
    if binding is None:
        return False
    # looked up on the module, so a wrapper there sees the top-level call
    return witness.find_witness(list(clause.body), binding, db) is not None


def wide_body_cases():
    # wide bodies with constants and head variables repeated inside
    # literals, over dense relations of arity up to 3, so the semi-join
    # reduction and variable elimination both have real work to do
    rng = random.Random(239)
    for _ in range(450):
        db = random_db(rng, max_relations=3, max_arity=3, max_tuples=60, pool=5)
        clause = random_clause(rng, db, max_body=12)
        universe = list(
            {random_example(rng, len(clause.head.args), pool=5) for _ in range(6)}
        )
        yield db, clause, universe


def shaped_head_cases():
    # heads random_clause never draws: ternary, holding a constant, repeating
    # a variable; bodies with several factors over the same head variables,
    # both as literals and as what variable elimination leaves; examples
    # given as lists, some of them twice
    rng = random.Random(251)
    pool = [f"c{i}" for i in range(4)]
    schemas = tuple(
        RelationSchema(f"{name}{arity}", tuple(f"a{j}" for j in range(arity)))
        for name in "pq"
        for arity in (1, 2, 3)
    )
    for _ in range(300):
        db = DatabaseInstance.build(
            schemas,
            {
                s.name: [
                    tuple(rng.choice(pool) for _ in range(s.arity))
                    for _ in range(rng.randint(1, 4 ** s.arity))
                ]
                for s in schemas
            },
        )
        head_args = [
            var(f"x{rng.randrange(3)}") if rng.random() < 0.8 else rng.choice(pool)
            for _ in range(rng.randint(1, 3))
        ]
        head_vars = list(dict.fromkeys(a for a in head_args if type(a) is Term))
        body = []
        free = iter(var(f"y{i}") for i in range(99))

        def some_head_vars():
            # an order-preserving pick: factors over it merge with each other
            k = rng.randint(1, len(head_vars))
            return sorted(rng.sample(head_vars, k), key=head_vars.index)

        for _ in range(rng.randint(1, 3) if head_vars else 0):
            picked = some_head_vars()
            if rng.random() < 0.5:
                # twin literals over exactly these variables
                body.append(Literal(f"p{len(picked)}", tuple(picked)))
                body.append(Literal(f"q{len(picked)}", tuple(picked)))
            elif len(picked) < 3:
                # a literal over them and a free variable, which elimination
                # projects away: its leftover factor is over these variables
                y = next(free)
                body.append(Literal(f"{rng.choice('pq')}{len(picked) + 1}", (*picked, y)))
                body.append(Literal(f"{rng.choice('pq')}1", (y,)))
            if rng.random() < 0.5:
                # a constant beside one head variable, or a repeated variable
                v = rng.choice(head_vars)
                second = rng.choice(pool) if rng.random() < 0.5 else v
                body.append(Literal(f"{rng.choice('pq')}2", (v, second)))
        rng.shuffle(body)
        clause = Clause(Literal("t", tuple(head_args)), tuple(body))
        drawn = []
        for _ in range(rng.randint(1, 12)):
            # most examples fit the head, so the body decides them
            value = {v: rng.choice(pool) for v in head_vars}
            if rng.random() < 0.7:
                drawn.append(tuple(value[a] if type(a) is Term else a for a in head_args))
            else:
                drawn.append(tuple(rng.choice(pool) for _ in head_args))
        universe = [list(e) for e in drawn + drawn[: rng.randint(0, 3)]]
        yield db, clause, universe


class TestFindWitness:
    def test_witness_actually_satisfies(self):
        rng = random.Random(211)
        found = 0
        for _ in range(150):
            db = random_db(rng)
            clause = random_clause(rng, db, max_body=5)
            example = random_example(rng, len(clause.head.args))
            binding = head_binding(clause, example)
            if binding is None:
                continue
            witness = find_witness(list(clause.body), binding, db)
            assert (witness is not None) == bool(covered_examples(clause, [example], db))
            if witness is None:
                continue
            found += 1
            for lit in clause.body:
                image = tuple(
                    witness[a] if type(a) is Term else a for a in lit.args
                )
                assert image in db.fact_set(lit.relation)
        assert found >= 30

    def test_agrees_with_substitution_oracle(self, monkeypatch):
        rng = random.Random(223)
        refuted = 0
        for _ in range(150):
            db = random_db(rng)
            clause = random_clause(rng, db, max_body=5)
            example = random_example(rng, len(clause.head.args))
            want = covers_oracle(clause, example, db)
            assert witness_covers(clause, example, db) == want
            refuted += not want
        assert refuted >= 50  # the generator produces plenty of failures
        # wide bodies over a dense database, so searches over 8 or more
        # literals run (a small pool keeps the oracle cheap); the search
        # recurses through the module attribute, so the wrapper records the
        # literal count of the top-level call and of every recursive one
        widths: list[int] = []
        search = witness.find_witness

        def recording(literals, binding, db):
            widths.append(len(literals))
            return search(literals, binding, db)

        monkeypatch.setattr(witness, "find_witness", recording)
        wide = wide_covered = 0
        for _ in range(400):
            db = random_db(rng, max_relations=3, max_arity=3, max_tuples=100, pool=4)
            clause = random_clause(
                rng, db, max_body=14, max_free_vars=6, allow_constants=False
            )
            example = random_example(rng, len(clause.head.args), pool=4)
            want = covers_oracle(clause, example, db)
            widths.clear()
            assert witness_covers(clause, example, db) == want
            if max(widths, default=0) >= 8:
                wide += 1
                wide_covered += want
        assert wide >= 25
        assert wide_covered >= 10 and wide - wide_covered >= 10

    def test_a_long_chain_stays_within_the_recursion_limit(self):
        # one stack frame per branching literal: the 800-literal chain
        # e(x0,x1), ..., e(x799,x800) over the rows e(c_i,c_{i+1})
        n = 800
        db = DatabaseInstance.build(
            (RelationSchema("e", ("a", "b")),),
            {"e": [(f"c{i}", f"c{i + 1}") for i in range(n)]},
        )
        chain = [Literal("e", (var(f"x{i}"), var(f"x{i + 1}"))) for i in range(n)]
        witness = find_witness(chain, {var("x0"): "c0"}, db)
        assert witness is not None
        facts = db.fact_set("e")
        for lit in chain:
            assert tuple(witness[a] for a in lit.args) in facts


class TestComponents:
    def test_groups_match_a_connectivity_oracle(self):
        # armg takes `_components([lit, *kept], binding)[0]` as lit's
        # group: the first group must hold the first literal
        rng = random.Random(241)
        names = [var(f"v{i}") for i in range(8)]
        split = joined = 0
        for _ in range(300):
            literals = list(dict.fromkeys(
                Literal(rng.choice("pqr"), tuple(
                    rng.choice(names) if rng.random() < 0.8 else rng.choice("ab")
                    for _ in range(rng.randint(1, 3))
                ))
                for _ in range(rng.randint(1, 10))
            ))
            binding = {v: "a" for v in names if rng.random() < 0.3}
            groups = _components(literals, binding)
            position = {lit: i for i, lit in enumerate(literals)}
            # a partition of the input, each group in input order
            members = [position[lit] for group in groups for lit in group]
            assert sorted(members) == list(range(len(literals)))
            home = {}
            for k, group in enumerate(groups):
                indices = [position[lit] for lit in group]
                assert indices == sorted(indices)
                home.update(dict.fromkeys(indices, k))
            linked = linked_oracle(literals, binding)
            for i in range(len(literals)):
                for j in range(len(literals)):
                    assert (home[i] == home[j]) == linked[i][j], (literals, binding)
            assert groups[0][0] == literals[0]
            split += len(groups) >= 2
            joined += any(len(group) >= 3 for group in groups)
        assert split >= 100 and joined >= 100, (split, joined)


class TestCoveredExamples:
    def test_matches_per_example_coverage(self):
        rng = random.Random(227)
        for _ in range(150):
            db = random_db(rng)
            clause = random_clause(rng, db)
            universe = list({random_example(rng, len(clause.head.args)) for _ in range(10)})
            joined = covered_examples(clause, universe, db)
            assert joined == frozenset(e for e in universe if covers_oracle(clause, e, db))

    def test_wide_bodies_match_substitution_oracle(self):
        nonempty = 0
        for db, clause, universe in wide_body_cases():
            joined = covered_examples(clause, universe, db)
            want = frozenset(e for e in universe if covers_oracle(clause, e, db))
            assert joined == want, str(clause)
            nonempty += bool(joined)
        assert nonempty >= 100

    def test_every_join_shares_a_variable(self, monkeypatch):
        # variable elimination joins only factors holding the eliminated
        # variable; what is left over the head variables is a filter
        join = coverage._join_factors
        shared: list[bool] = []

        def recording(f1, f2):
            shared.append(not set(f1[0]).isdisjoint(f2[0]))
            return join(f1, f2)

        monkeypatch.setattr(coverage, "_join_factors", recording)
        for db, clause, universe in wide_body_cases():
            covered_examples(clause, universe, db)
        assert len(shared) >= 100
        assert all(shared), f"{shared.count(False)} of {len(shared)} joins share no variable"

    def test_missing_relation_is_an_error_even_after_an_empty_literal(self):
        schemas = (RelationSchema("p", ("a",)), RelationSchema("q", ("a",)))
        db = DatabaseInstance.build(schemas, {"p": [], "q": [("c1",)]})
        clause = parse_clause("t(x) :- p(x), missing(x).")
        with pytest.raises(ValidationError, match="missing"):
            covered_examples(clause, [("c1",)], db)
        # so does a head that cannot bind the example
        with pytest.raises(ValidationError, match="missing"):
            covered_examples(parse_clause('t("c2") :- p(x), missing(x).'), [("c1",)], db)

    def test_single_example_matches_substitution_oracle(self):
        # heads with a repeated variable or a constant may not bind at all
        rng = random.Random(233)
        seen = {"covered": 0, "not covered": 0, "head does not bind": 0}
        for _ in range(300):
            db = random_db(rng, pool=4)
            clause = random_clause(rng, db)
            if rng.random() < 0.3:
                args = list(clause.head.args)
                args[rng.randrange(len(args))] = f"c{rng.randrange(4)}"
                clause = Clause(Literal("t", tuple(args)), clause.body)
            example = random_example(rng, len(clause.head.args), pool=4)
            want = covers_oracle(clause, example, db)
            assert want == (example in covered_examples(clause, [example], db)), (
                str(clause),
                example,
            )
            if _head_binding(clause.head, example) is None:
                seen["head does not bind"] += 1
            else:
                seen["covered" if want else "not covered"] += 1
        assert min(seen.values()) >= 30, seen

    def test_head_only_clause_covers_unifiable_examples(self):
        db = random_db(random.Random(229))
        from automode.clauses import Clause, Literal, var

        clause = Clause(Literal("t", (var("x"), var("x"))), ())
        universe = [("c1", "c1"), ("c1", "c2")]
        assert covered_examples(clause, universe, db) == frozenset({("c1", "c1")})

    def test_reduction_reaches_the_semi_join_fixpoint(self, monkeypatch):
        rng = random.Random(241)
        reduce = coverage._reduce_domains
        narrowed = 0

        def checked(factors):
            nonlocal narrowed
            want = semijoin_fixpoint_oracle(factors)
            sizes = [len(rows) for _, rows in factors]
            reduce(factors)
            assert [(v, set(rows)) for v, rows in factors] == want
            narrowed += any(len(rows) < n for (_, rows), n in zip(factors, sizes))

        monkeypatch.setattr(coverage, "_reduce_domains", checked)
        for _ in range(500):
            db = random_db(rng, max_relations=3, max_arity=3, max_tuples=40, pool=5)
            clause = random_clause(rng, db, max_body=8)
            universe = {random_example(rng, len(clause.head.args), pool=5) for _ in range(6)}
            covered_examples(clause, list(universe), db)
        assert narrowed >= 75

    def test_shaped_heads_and_merged_factors_match_substitution_oracle(self):
        seen = {"ternary": 0, "constant": 0, "repeated": 0, "covered": 0, "not": 0}
        for db, clause, universe in shaped_head_cases():
            joined = covered_examples(clause, universe, db)
            want = {tuple(e) for e in universe if covers_oracle(clause, tuple(e), db)}
            assert joined == want, (str(clause), universe)
            head = clause.head.args
            seen["ternary"] += len(head) == 3
            seen["constant"] += not all(type(a) is Term for a in head)
            seen["repeated"] += len(set(head)) < len(head)
            seen["covered"] += len(want)
            seen["not"] += len({tuple(e) for e in universe} - want)
        assert min(seen.values()) >= 50, seen

    def test_ground_clauses_match_substitution_oracle(self):
        # ground bottom clauses, whose every body literal is one membership
        # test, on the database they were saturated from and with one of
        # their body facts deleted from it
        rng = random.Random(251)
        seen = {"covered": 0, "not covered": 0, "fact deleted": 0}
        for db, example, target, predicates in ground_cases():
            bias = implicit_bias(db, target, predicates)
            clause = ground_bottom_clause(example, db, bias, LearnConfig(iterations=1))
            arity = len(example)
            universe = sorted(
                {example, *db.relation_rows(target)}
                | {random_example(rng, arity, pool=6) for _ in range(3)}
            )
            cases = [(db, False)]
            if clause.body:
                lit = rng.choice(clause.body)
                fact = lit.args
                rows = [row for row in db.relation_rows(lit.relation) if row != fact]
                cases.append((db.with_relation(db.schema(lit.relation), rows), True))
            for base, deleted in cases:
                joined = covered_examples(clause, universe, base)
                want = frozenset(e for e in universe if covers_oracle(clause, e, base))
                assert joined == want, (str(clause), deleted)
                seen["covered"] += len(want)
                seen["not covered"] += len(universe) - len(want)
                seen["fact deleted"] += deleted
            with pytest.raises(ValidationError, match="arity"):
                covered_examples(clause, [example + ("c0",)], db)
        assert min(seen.values()) >= 100, seen


class TestReduceDomains:
    def test_matches_the_pairwise_semi_join_oracle(self):
        # random factor lists, each factor over distinct variables, as
        # covered_examples builds them; some share one stored row set under
        # two variable tuples, as publication(v9,v1), publication(v9,v0) do
        rng = random.Random(263)
        variables = [var(f"v{i}") for i in range(5)]
        values = [f"c{i}" for i in range(4)]

        def rows(arity):
            return frozenset(
                tuple(rng.choice(values) for _ in range(arity))
                for _ in range(rng.randint(0, 10))
            )

        seen = {"empty": 0, "stored set shared": 0, "lone variable": 0,
                "three holders": 0, "narrowed": 0, "nonempty fixpoint": 0}
        for _ in range(600):
            factors = []
            for _ in range(rng.randint(1, 6)):
                factor_vars = tuple(rng.sample(variables, rng.randint(1, 3)))
                factors.append((factor_vars, rows(len(factor_vars))))
            stored = None
            if rng.random() < 0.3:
                # a mutable set: the reduction must replace it, not shrink it
                stored = set(rows(2))
                a, b, c = rng.sample(variables, 3)
                factors += [((a, b), stored), ((a, c), stored)]
                rng.shuffle(factors)
            kept_stored = set(stored or ())
            holders = [v for factor_vars, _ in factors for v in factor_vars]
            want = pairwise_semijoin_oracle(factors)
            sizes = [len(r) for _, r in factors]
            reduced = list(factors)
            coverage._reduce_domains(reduced)
            assert [v for v, _ in reduced] == [v for v, _ in factors]
            assert [set(r) for _, r in reduced] == want
            assert stored is None or stored == kept_stored
            seen["empty"] += 0 in sizes
            seen["stored set shared"] += stored is not None
            seen["lone variable"] += 1 in map(holders.count, holders)
            seen["three holders"] += max(map(holders.count, holders)) >= 3
            seen["narrowed"] += any(map(len, want)) and want != [set(r) for _, r in factors]
            seen["nonempty fixpoint"] += all(want)
        assert min(seen.values()) >= 100, seen


class TestComponentCoverage:
    """`covered_examples` with a component store, as `CoverageCache` runs
    it: one covered key set per head-linked component, intersected."""

    def test_a_shared_store_matches_the_substitution_oracle(self):
        # many clauses over one store, database and example set: heads with
        # constants and repeated variables that cannot bind some examples,
        # ground literals in and out of their relation, empty bodies, and
        # alphabetic variants and merged bodies that reuse stored components
        rng = random.Random(271)
        seen = {"covered": 0, "not covered": 0, "head does not bind": 0,
                "head constant": 0, "repeated head variable": 0, "ground literal": 0,
                "empty body": 0, "only stored components": 0, "components": 0}
        for _ in range(150):
            db = random_db(rng, max_relations=3, max_arity=3, max_tuples=30, pool=4)
            arity = rng.randint(1, 3)
            universe = list({random_example(rng, arity, pool=4) for _ in range(6)})
            store: dict = {}
            done: list[tuple[Clause, frozenset]] = []
            for _ in range(6):
                if done and rng.random() < 0.3:
                    # an alphabetic variant of an earlier clause, all of its
                    # variables renamed
                    clause, want = rng.choice(done)
                    renamed = {v: var(f"w{v.symbol}") for v in clause.variables()}
                    clause = clauses.apply_renaming(clause, renamed)
                else:
                    body = list(random_clause(rng, db, max_body=4, max_free_vars=3).body)
                    if done and rng.random() < 0.4:
                        body += rng.choice(done)[0].body  # its components, maybe joined
                    if rng.random() < 0.15:
                        body = []
                    if rng.random() < 0.3:
                        schema = rng.choice(db.schemas)
                        stored = db.relation_rows(schema.name)
                        if stored and rng.random() < 0.6:
                            row = rng.choice(stored)
                        else:
                            row = random_example(rng, schema.arity, pool=4)
                        body.insert(rng.randint(0, len(body)), Literal(schema.name, row))
                        seen["ground literal"] += 1
                    args = [var(f"x{rng.randrange(2)}") for _ in range(arity)]
                    if rng.random() < 0.25:
                        args[rng.randrange(arity)] = f"c{rng.randrange(4)}"
                    clause = Clause(Literal("t", tuple(args)), tuple(body))
                    want = frozenset(e for e in universe if covers_oracle(clause, e, db))
                size = len(store)
                joined = covered_examples(clause, universe, db, components=store)
                assert joined == want, (str(clause), universe)
                assert covered_examples(clause, universe, db) == want
                done.append((clause, want))
                free = [lit for lit in clause.body if any(type(a) is Term for a in lit.args)]
                seen["components"] += len(store) - size
                seen["only stored components"] += bool(free) and len(store) == size
                seen["empty body"] += not clause.body
                head = clause.head.args
                seen["head constant"] += not all(type(a) is Term for a in head)
                seen["repeated head variable"] += len(set(head)) < len(head)
                seen["covered"] += len(want)
                seen["not covered"] += len(universe) - len(want)
                seen["head does not bind"] += sum(
                    _head_binding(clause.head, e) is None for e in universe
                )
        assert min(seen.values()) >= 100, seen

    def test_a_cache_evaluates_a_component_once(self, monkeypatch):
        # the co-author component occurs in all three clauses, under other
        # variable names in two; armg's reuse check reads the components
        # of the clause it checks
        evaluate = coverage._covered_keys
        evaluated = []

        def recording(literals, head_vars, keys, db):
            head = Literal("advisedBy", head_vars)
            evaluated.append(canonical_text(Clause(head, tuple(literals))))
            return evaluate(literals, head_vars, keys, db)

        monkeypatch.setattr(coverage, "_covered_keys", recording)
        db = fixtures.small_database()
        universe = [(s, p) for s in ("alice", "john") for p in ("bob", "mary")]
        cache = CoverageCache(db, universe)
        texts = (
            "advisedBy(x,y) :- publication(z,x), publication(z,y), student(x).",
            "advisedBy(x,y) :- professor(y), publication(w,x), publication(w,y).",
            "advisedBy(a,b) :- publication(c,a), publication(c,b).",
        )
        for text in texts:
            clause = parse_clause(text)
            for example in universe:
                assert cache.covers(clause, example) == covers_oracle(clause, example, db)
        coauthors = "advisedBy(V0,V1) :- publication(V2,V0), publication(V2,V1)."
        assert evaluated.count(coauthors) == 1
        assert len(set(evaluated)) == len(evaluated) == 3, evaluated
        # armg's result for `clause` leaves publication(z,x) out: its
        # blocked prefix, the result's literals before it and then it, is
        # `clause` in its own order, whose components a cache that covered
        # `clause` already holds; that prefix covers the example, so the
        # result is not armg's there
        cache = CoverageCache(db, universe)
        clause = parse_clause(
            "advisedBy(x,y) :- publication(z,y), student(x), publication(z,x)."
        )
        result = parse_clause("advisedBy(x,y) :- publication(z,y), student(x).")
        for c in (clause, result):
            for example in universe:
                assert cache.covers(c, example) == covers_oracle(c, example, db)
        before = len(evaluated)
        assert not learner._holds_for(clause, result, result, ("alice", "bob"), cache)
        assert len(evaluated) == before, evaluated[before:]

    def test_a_call_without_a_store_evaluates_twin_components_once(self, monkeypatch):
        # the two co-author components differ only in their non-head
        # variable: one shape, so one evaluation, with no store passed in
        evaluate = coverage._covered_keys
        evaluated = []

        def recording(literals, head_vars, keys, db):
            evaluated.append(literals)
            return evaluate(literals, head_vars, keys, db)

        monkeypatch.setattr(coverage, "_covered_keys", recording)
        db = fixtures.small_database()
        universe = [(s, p) for s in ("alice", "john") for p in ("bob", "mary")]
        clause = parse_clause(
            "advisedBy(x,y) :- publication(z,x), publication(w,x), "
            "publication(z,y), publication(w,y)."
        )
        want = frozenset(e for e in universe if covers_oracle(clause, e, db))
        assert want and covered_examples(clause, universe, db) == want
        assert list(map(len, evaluated)) == [2], evaluated
        # a second call starts from a fresh store of its own
        assert covered_examples(clause, universe, db) == want
        assert list(map(len, evaluated)) == [2, 2], evaluated

    @pytest.mark.parametrize("store", [False, True])
    def test_wrong_arity_example_is_rejected(self, store):
        # with a store or without one, before any component is evaluated
        db = fixtures.small_database()
        clause = parse_clause(
            'advisedBy(x,y) :- publication(z,x), publication(z,y), inPhase("alice","post_quals").'
        )
        components = {} if store else None
        examples = [("alice", "bob"), ("john", "mary")]
        assert covered_examples(clause, examples, db, components=components) == set(examples)
        with pytest.raises(ValidationError, match="example arity 1 does not match"):
            covered_examples(clause, examples + [("alice",)], db, components=components)


_CACHE_CALLS = ["score", "generalize_clause", "learn_definition", "lgg_learn", "precision_recall"]


def _cache_call(call):
    """The fixture's database and examples, and a function that runs `call`
    on them with the given `CoverageCache`."""
    db = fixtures.small_database_registered()
    ex = fixtures.small_examples()
    bias = induce_bias(db, "advisedBy")
    cfg = LearnConfig()
    clause = parse_clause("advisedBy(x,y) :- publication(z,x), publication(z,y).")
    run = {
        "score": lambda cache: score(clause, ex.positives, ex.negatives, db, cache),
        "generalize_clause": lambda cache: generalize_clause(
            build_bottom_clause(ex.positives[0], db, bias, cfg).clause,
            ex.positives, ex.negatives, db, cfg, cache=cache,
        ),
        "learn_definition": lambda cache: learn_definition(db, ex, bias, cfg, cache=cache),
        "lgg_learn": lambda cache: lgg_learn(db, ex, bias, cfg, cache=cache),
        "precision_recall": lambda cache: precision_recall(
            HornDefinition((clause,)), ex.positives, ex.negatives, db, cache
        ),
    }[call]
    return db, ex, run


class TestCoverageCache:
    def test_agrees_with_oracle_inside_and_refuses_outside_the_universe(self, monkeypatch):
        db = fixtures.small_database()
        joined = []
        evaluate = learner.covered_examples

        def recording_joined(clause, examples, db, **store):
            joined.append(clause)
            return evaluate(clause, examples, db, **store)

        monkeypatch.setattr(learner, "covered_examples", recording_joined)
        universe = [(s, p) for s in ("alice", "john") for p in ("bob", "mary")]
        outside = [("alice", "alice"), ("bob", "mary"), ("john", "p2")]
        cache = learner.CoverageCache(db, universe)
        texts = (
            "advisedBy(x,y) :- publication(z,x), publication(z,y).",
            'advisedBy(x,y) :- inPhase(x,"post_quals"), hasPosition(y,v).',
            "advisedBy(x,y) :- publication(z,x), publication(z,w).",
            "advisedBy(x,x) :- student(x).",
        )
        covered = 0
        for _ in range(2):
            for text in texts:
                clause = parse_clause(text)
                for example in universe:
                    want = covers_oracle(clause, example, db)
                    assert cache.covers(clause, example) == want, (text, example)
                    covered += want
                for example in outside:
                    with pytest.raises(ValidationError, match="outside the cache's universe"):
                        cache.covers(clause, example)
        assert covered >= 10
        # one coverage pass per clause
        assert joined == [parse_clause(t) for t in texts]

    @pytest.mark.parametrize("in_universe", [True, False])
    def test_wrong_arity_example_is_rejected(self, in_universe):
        # the coverage pass over the universe refuses the example's arity,
        # and a cache without it refuses to test it at all
        db = fixtures.small_database()
        clause = parse_clause("advisedBy(x,y) :- publication(z,x), publication(z,y).")
        example = ("alice",)
        cache = learner.CoverageCache(db, [example] if in_universe else [])
        with pytest.raises(ValidationError, match="arity" if in_universe else "outside"):
            cache.covers(clause, example)

    def test_uncovered_keeps_order_and_duplicates_in_one_pass_per_clause(self, monkeypatch):
        db = fixtures.small_database()
        joined = []
        evaluate = learner.covered_examples

        def recording(clause, examples, db, **store):
            joined.append(clause)
            return evaluate(clause, examples, db, **store)

        monkeypatch.setattr(learner, "covered_examples", recording)
        rng = random.Random(269)
        universe = [(s, p) for s in ("alice", "john") for p in ("bob", "mary")]
        cache = CoverageCache(db, universe)
        texts = (
            "advisedBy(x,y) :- publication(z,x), publication(z,y).",
            'advisedBy(x,y) :- inPhase(x,"post_quals"), hasPosition(y,v).',
            "advisedBy(x,x) :- student(x).",
        )
        duplicates = 0
        for text in texts:
            clause = parse_clause(text)
            for _ in range(30):
                asked = [rng.choice(universe) for _ in range(rng.randint(0, 8))]
                want = [e for e in asked if not covers_oracle(clause, e, db)]
                assert cache.uncovered(clause, asked) == want, (text, asked)
                assert cache.count(clause, asked) == len(asked) - len(want)
                duplicates += len(set(want)) < len(want)
        assert duplicates >= 10
        assert joined == [parse_clause(t) for t in texts]

    def test_uncovered_refuses_an_example_outside_the_universe(self):
        db = fixtures.small_database()
        universe = [("alice", "bob"), ("john", "mary")]
        cache = CoverageCache(db, universe)
        clause = parse_clause("advisedBy(x,y) :- publication(z,x), publication(z,y).")
        outside = ("alice", "mary")
        with pytest.raises(ValidationError) as by_covers:
            cache.covers(clause, outside)
        with pytest.raises(ValidationError) as by_uncovered:
            cache.uncovered(clause, [universe[0], outside, universe[1]])
        assert str(by_uncovered.value) == str(by_covers.value)
        assert "outside the cache's universe" in str(by_covers.value)

    @pytest.mark.parametrize("call", _CACHE_CALLS)
    def test_cache_over_another_database_is_rejected(self, call):
        db, ex, run = _cache_call(call)
        universe = ex.positives + ex.negatives
        other = CoverageCache(fixtures.typed_database_registered(), universe)
        with pytest.raises(ValidationError, match="another database"):
            run(other)
        assert run(CoverageCache(db, universe)) == run(None)

    @pytest.mark.parametrize("call", _CACHE_CALLS)
    def test_cache_without_the_examples_is_rejected(self, call):
        # no coverage test falls back to a pass of its own: a cache whose
        # universe lacks the examples asked about refuses the run
        db, ex, run = _cache_call(call)
        for universe in ((), ex.positives):
            with pytest.raises(ValidationError, match="outside the cache's universe"):
                run(CoverageCache(db, universe))
        assert run(CoverageCache(db, ex.positives + ex.negatives)) == run(None)

    def test_default_universe_takes_lists_and_tuples(self):
        # lgg scores against its list of uncovered positives
        db = fixtures.small_database_registered()
        ex = fixtures.small_examples()
        clause = parse_clause("advisedBy(x,y) :- publication(z,x), publication(z,y).")
        assert score(clause, list(ex.positives), ex.negatives, db) == 2


class TestCoverageCounts:
    TEXTS = (
        "advisedBy(x,y) :- publication(z,x), publication(z,y).",
        'advisedBy(x,y) :- inPhase(x,"post_quals"), hasPosition(y,v).',
        "advisedBy(x,x) :- student(x).",
        'advisedBy(x,"mary") :- student(x).',
    )

    def test_counts_match_the_oracle_and_refuse_examples_outside(self):
        db = fixtures.small_database()
        universe = [(s, p) for s in ("alice", "john") for p in ("bob", "mary", "alice")]
        outside = [("bob", "mary"), ("john", "p2")]
        cache = CoverageCache(db, universe)
        groups = {
            "inside": (universe[:4], universe[4:]),
            "duplicated": (universe + universe[:3], universe[3:] * 2),
        }
        covered = 0
        for text in self.TEXTS:
            clause = parse_clause(text)
            for positives, negatives in groups.values():
                want = tuple(
                    sum(covers_oracle(clause, e, db) for e in group)
                    for group in (positives, negatives)
                )
                counts = cache.count(clause, positives), cache.count(clause, negatives)
                assert counts == want
                assert score(clause, positives, negatives, db, cache) == want[0] - want[1]
                covered += sum(want)
            for partly_outside in (universe[:3] + outside, outside[:1] + universe[3:]):
                with pytest.raises(ValidationError, match="outside the cache's universe"):
                    cache.count(clause, partly_outside)
        assert covered >= 20

    def test_random_tasks_count_like_the_oracle(self):
        rng = random.Random(257)
        for _ in range(60):
            db, ex = random_task(rng)
            clause = random_clause(rng, db)
            clause = Clause(Literal("t", (var("x0"), var("x1"))), clause.body)
            examples = ex.positives + ex.negatives
            cache = CoverageCache(db, examples)
            positives, negatives = ex.positives * 2, ex.negatives
            want = tuple(
                sum(covers_oracle(clause, e, db) for e in group)
                for group in (positives, negatives)
            )
            assert (cache.count(clause, positives), cache.count(clause, negatives)) == want
            half = CoverageCache(db, examples[: len(examples) // 2])
            with pytest.raises(ValidationError, match="outside the cache's universe"):
                half.count(clause, examples)

    @pytest.mark.parametrize("in_universe", [True, False])
    def test_wrong_arity_example_is_rejected(self, in_universe):
        db = fixtures.small_database()
        clause = parse_clause(self.TEXTS[0])
        example = ("alice",)
        valid = [("alice", "bob")]
        cache = CoverageCache(db, valid + [example] if in_universe else valid)
        with pytest.raises(ValidationError, match="arity" if in_universe else "outside"):
            cache.count(clause, [example])


class TestCheapestVariable:
    def test_matches_sorted_scan_oracle(self):
        # the least (cost, variable) is the variable the former scan of all
        # variables in sorted order picked, ties included
        rng = random.Random(257)
        pool = [var(f"y{i}") for i in range(6)] + [var(f"x{i}") for i in range(2)]
        ties = 0
        for _ in range(500):
            factors = []
            for _ in range(rng.randint(1, 5)):
                factor_vars = tuple(rng.sample(pool, rng.randint(1, 3)))
                rows = {
                    tuple(f"c{rng.randrange(3)}" for _ in factor_vars)
                    for _ in range(rng.randint(0, 4))
                }
                factors.append((factor_vars, rows))
            keep = set(rng.sample(pool, rng.randint(0, 3)))
            picked = coverage._cheapest_variable(factors, keep)
            assert picked == cheapest_variable_oracle(factors, keep)
            sizes: dict = {}
            for factor_vars, rows in factors:
                for v in factor_vars:
                    if v not in keep:
                        sizes.setdefault(v, []).append(len(rows))
            cost = {
                v: 0 if len(n) == 1 else prod(max(k, 1) for k in n) for v, n in sizes.items()
            }
            cheapest = [v for v in sizes if cost[v] == min(cost.values())]
            # a tie the first variable seen would decide otherwise
            ties += bool(cheapest) and cheapest[0] != picked
        assert ties >= 50


class TestSingletonFold:
    def test_fold_preserves_coverage(self):
        rng = random.Random(233)
        for _ in range(120):
            db = random_db(rng)
            clause = random_clause(rng, db)
            folded = fold_singleton_literals(clause)
            assert set(folded.body) <= set(clause.body)
            examples = [random_example(rng, len(clause.head.args)) for _ in range(6)]
            assert covered_examples(clause, examples, db) == covered_examples(folded, examples, db)


    def test_matches_restart_oracle(self):
        rng = random.Random(239)
        head_vars = [var("x0"), var("x1")]
        shrunk = 0
        for _ in range(600):
            pool = [var(f"y{i}") for i in range(rng.randint(1, 10))]
            pool += ["c0", "c1"]
            relations = rng.choice(("pppqr", "ppppp", "pprrq", "rrrp"))
            clause = random_clause_over(rng, head_vars, pool, 14, relations)
            folded = fold_singleton_literals(clause)
            assert folded == fold_oracle(clause)
            shrunk += len(folded.body) < len(clause.body)
        assert shrunk >= 100, shrunk
        # what learning folds: bottom clauses and armg's results, which hold
        # chains of twins such as publication(v4,v1), publication(v4,v22)
        tasks = [
            (fixtures.small_database_registered(), fixtures.small_examples()),
            (fixtures.typed_database_registered(), fixtures.typed_examples()),
        ]
        tasks += [random_task(random.Random(seed)) for seed in range(50, 84)]
        checked = shrunk = 0
        for db, ex in tasks:
            bias = induce_bias(db, ex.target.name)
            for iterations in (1, 2):
                for seed in ex.positives:
                    bottom = build_bottom_clause(seed, db, bias, LearnConfig(iterations=iterations))
                    shapes = [bottom.clause]
                    for e in ex.positives + ex.negatives:
                        if _head_binding(bottom.clause.head, e) is not None:
                            shapes.append(learner.armg(bottom.clause, e, db))
                    for clause in shapes:
                        folded = fold_singleton_literals(clause)
                        assert folded == fold_oracle(clause)
                        checked += 1
                        shrunk += len(folded.body) < len(clause.body)
        assert checked >= 2000 and shrunk >= 500, (checked, shrunk)

    def test_matches_restart_oracle_on_lgg_products(self):
        # what deep reduction folds in the lgg learner: the raw pairwise
        # products of a fold's first step, and of a reduced result against
        # each of the ground clauses it generalizes
        checked = shrunk = 0
        for iterations in (1, 2):
            cfg = LearnConfig(iterations=iterations, per_relation_cap=3)
            for c1, c2 in ground_clause_pairs(cfg):
                pairs = [(c1, c2)]
                if c1.body and c2.body:
                    learned = lgg_clauses(c1, c2)
                    pairs += [(learned, c1), (learned, c2)]
                for a, b in pairs:
                    raw = lgg_clauses(a, b, reduce=False)
                    folded = fold_singleton_literals(raw)
                    assert folded == fold_oracle(raw)
                    checked += 1
                    shrunk += len(folded.body) < len(raw.body)
        assert checked >= 1500 and shrunk >= 800, (checked, shrunk)


class TestPlantedRule:
    def test_recovers_shared_publication_rule_at_scale(self):
        rng = random.Random(63)
        students = [f"s{i}" for i in range(30)]
        profs = [f"p{i}" for i in range(10)]
        schemas = (
            RelationSchema("student", ("stud",)),
            RelationSchema("professor", ("prof",)),
            RelationSchema("inPhase", ("stud", "phase")),
            RelationSchema("publication", ("title", "author")),
            RelationSchema("advisedBy", ("stud", "prof")),
        )
        advising: dict[str, set[str]] = {}
        pubs = []
        for k in range(40):
            title = f"t{k}"
            prof = rng.choice(profs)
            stud = rng.choice(students)
            pubs.append((title, prof))
            pubs.append((title, stud))
            advising.setdefault(stud, set()).add(prof)
        facts = {
            "student": [(s,) for s in students],
            "professor": [(p,) for p in profs],
            "inPhase": [(s, rng.choice(["pre", "post"])) for s in students[:20]],
            "publication": pubs,
            "advisedBy": [],
        }
        db = DatabaseInstance.build(schemas, facts)
        positives = tuple(sorted((s, p) for s, ps in advising.items() for p in ps))
        db = register_target(db, ExampleSet(schemas[-1], positives, ()))
        negatives = generate_negatives(db, positives, schemas[-1], 2, seed=3)
        examples = ExampleSet(schemas[-1], positives, negatives)
        bias = induce_bias(db, "advisedBy")
        definition = learn_definition(db, examples, bias, LearnConfig())
        precision, recall = precision_recall(
            definition, examples.positives, examples.negatives, db
        )
        assert recall == 1.0
        assert precision >= 0.9
