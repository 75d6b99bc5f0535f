"""The clause-evaluation engine: witness search and joined evaluation.

These are the load-bearing fast paths behind covers/armg/scoring, so each
is checked against an independent route on random inputs.
"""

from __future__ import annotations

import random
from math import prod

import pytest

from automode import clauses, fixtures, learner
from automode.clauses import covered_examples, covers, find_witness, parse_clause
from automode.clauses import Clause, HornDefinition, Literal, const, fold_singleton_literals, var
from automode.clauses import _head_binding
from automode.learner import (
    CoverageCache,
    LearnConfig,
    build_bottom_clause,
    generalize_clause,
    learn_definition,
    score,
)
from automode.lgg import lgg_learn
from automode.biasgen import induce_bias
from automode.evaluation import generate_negatives, precision_recall
from automode.errors import ValidationError
from automode.relstore import DatabaseInstance, ExampleSet, RelationSchema, register_target

from oracles import (
    cheapest_variable_oracle,
    covers_oracle,
    fold_oracle,
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
        if term.is_var:
            if binding.setdefault(term, value) != value:
                return None
        elif term.symbol != value:
            return None
    return binding


def witness_covers(clause, example, db) -> bool:
    binding = head_binding(clause, example)
    if binding is None:
        return False
    return find_witness(list(clause.body), binding, db) is not None


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
            var(f"x{rng.randrange(3)}") if rng.random() < 0.8 else const(rng.choice(pool))
            for _ in range(rng.randint(1, 3))
        ]
        head_vars = list(dict.fromkeys(a for a in head_args if a.is_var))
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
                second = const(rng.choice(pool)) if rng.random() < 0.5 else v
                body.append(Literal(f"{rng.choice('pq')}2", (v, second)))
        rng.shuffle(body)
        clause = Clause(Literal("t", tuple(head_args)), tuple(body))
        drawn = []
        for _ in range(rng.randint(1, 12)):
            # most examples fit the head, so the body decides them
            value = {v: rng.choice(pool) for v in head_vars}
            if rng.random() < 0.7:
                drawn.append(tuple(value[a] if a.is_var else a.symbol for a in head_args))
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
            assert (witness is not None) == covers(clause, example, db)
            if witness is None:
                continue
            found += 1
            for lit in clause.body:
                image = tuple(
                    witness[a] if a.is_var else a.symbol for a in lit.args
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
        # wide bodies over a dense database, so components of 8 or more
        # literals reach the search (a small pool keeps the oracle cheap)
        widths: list[int] = []
        solve = clauses._solve_component

        def recording(body, binding, db):
            widths.append(len(body))
            return solve(body, binding, db)

        monkeypatch.setattr(clauses, "_solve_component", recording)
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
        join = clauses._join_factors
        shared: list[bool] = []

        def recording(f1, f2):
            shared.append(not set(f1[0]).isdisjoint(f2[0]))
            return join(f1, f2)

        monkeypatch.setattr(clauses, "_join_factors", recording)
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
        with pytest.raises(ValidationError, match="missing"):
            covers(clause, ("c1",), db)
        # so does a head that cannot bind the example
        with pytest.raises(ValidationError, match="missing"):
            covers(parse_clause('t("c2") :- p(x), missing(x).'), ("c1",), db)

    def test_single_example_covers_matches_the_joined_pass(self):
        # covers binds the example into the clause before its pass; heads
        # with a repeated variable or a constant may not bind at all
        rng = random.Random(233)
        seen = {"covered": 0, "not covered": 0, "head does not bind": 0}
        for _ in range(300):
            db = random_db(rng, pool=4)
            clause = random_clause(rng, db)
            if rng.random() < 0.3:
                args = list(clause.head.args)
                args[rng.randrange(len(args))] = const(f"c{rng.randrange(4)}")
                clause = Clause(Literal("t", tuple(args)), clause.body)
            example = random_example(rng, len(clause.head.args), pool=4)
            want = covers_oracle(clause, example, db)
            assert covers(clause, example, db) == want, (str(clause), example)
            assert want == (example in covered_examples(clause, [example], db))
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
        reduce = clauses._reduce_domains
        narrowed = 0

        def checked(factors):
            nonlocal narrowed
            want = semijoin_fixpoint_oracle(factors)
            sizes = [len(rows) for _, rows in factors]
            reduce(factors)
            assert [(v, set(rows)) for v, rows in factors] == want
            narrowed += any(len(rows) < n for (_, rows), n in zip(factors, sizes))

        monkeypatch.setattr(clauses, "_reduce_domains", checked)
        for _ in range(300):
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
            seen["constant"] += not all(a.is_var for a in head)
            seen["repeated"] += len(set(head)) < len(head)
            seen["covered"] += len(want)
            seen["not"] += len({tuple(e) for e in universe} - want)
        assert min(seen.values()) >= 50, seen


class TestCoverageCache:
    def test_agrees_with_oracle_inside_and_outside_the_universe(self, monkeypatch):
        db = fixtures.small_database()
        joined, single = [], []
        evaluate, test_one = learner.covered_examples, learner.covers

        def recording_joined(clause, examples, db):
            joined.append(clause)
            return evaluate(clause, examples, db)

        def recording_single(clause, example, db):
            single.append(example)
            return test_one(clause, example, db)

        monkeypatch.setattr(learner, "covered_examples", recording_joined)
        monkeypatch.setattr(learner, "covers", recording_single)
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
                for example in universe + outside:
                    want = covers_oracle(clause, example, db)
                    assert cache.covers(clause, example) == want, (text, example)
                    covered += want
        assert covered >= 10
        # one joined pass per clause; every outside test runs on its own
        assert joined == [parse_clause(t) for t in texts]
        assert single == outside * len(texts) * 2

    @pytest.mark.parametrize("in_universe", [True, False])
    def test_wrong_arity_example_is_rejected(self, in_universe):
        # the joined pass over the universe and the test outside it agree
        db = fixtures.small_database()
        clause = parse_clause("advisedBy(x,y) :- publication(z,x), publication(z,y).")
        example = ("alice",)
        cache = learner.CoverageCache(db, [example] if in_universe else [])
        with pytest.raises(ValidationError, match="arity"):
            cache.covers(clause, example)

    def test_equivalent_clause_reuses_joined_coverage(self, monkeypatch):
        db = fixtures.small_database()
        joined = []
        evaluate = learner.covered_examples

        def recording(clause, examples, db):
            joined.append(clause)
            return evaluate(clause, examples, db)

        monkeypatch.setattr(learner, "covered_examples", recording)
        universe = [(s, p) for s in ("alice", "john") for p in ("bob", "mary")]
        cache = learner.CoverageCache(db, universe)
        clause = parse_clause(
            "advisedBy(x,y) :- publication(z,x), publication(z,y), publication(z,w)."
        )
        folded = fold_singleton_literals(clause)
        assert folded != clause
        cache.share_coverage(clause, folded)  # nothing cached yet: no-op
        assert [cache.covers(clause, e) for e in universe] == [
            covers(clause, e, db) for e in universe
        ]
        cache.share_coverage(clause, folded)
        assert [cache.covers(folded, e) for e in universe] == [
            covers(folded, e, db) for e in universe
        ]
        assert joined == [clause]

    @pytest.mark.parametrize(
        "call",
        ["score", "generalize_clause", "learn_definition", "lgg_learn", "precision_recall"],
    )
    def test_cache_over_another_database_is_rejected(self, call):
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
        universe = ex.positives + ex.negatives
        other = CoverageCache(fixtures.typed_database_registered(), universe)
        with pytest.raises(ValidationError, match="another database"):
            run(other)
        assert run(CoverageCache(db, universe)) == run(None)

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

    def test_counts_match_the_oracle_inside_outside_and_duplicated(self):
        db = fixtures.small_database()
        universe = [(s, p) for s in ("alice", "john") for p in ("bob", "mary", "alice")]
        outside = [("alice", "alice"), ("bob", "mary"), ("john", "p2")]
        cache = CoverageCache(db, universe)
        groups = {
            "inside": (universe[:4], universe[4:]),
            "partly outside": (universe[:3] + outside, outside[:1] + universe[3:]),
            "duplicated": (universe + universe[:3], outside * 2 + universe[3:] * 2),
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
        assert covered >= 20

    def test_random_tasks_count_like_the_oracle(self):
        rng = random.Random(257)
        for _ in range(60):
            db, ex = random_task(rng)
            clause = random_clause(rng, db)
            clause = Clause(Literal("t", (var("x0"), var("x1"))), clause.body)
            examples = ex.positives + ex.negatives
            cache = CoverageCache(db, examples[: len(examples) // 2])
            positives, negatives = ex.positives * 2, ex.negatives
            want = tuple(
                sum(covers_oracle(clause, e, db) for e in group)
                for group in (positives, negatives)
            )
            assert (cache.count(clause, positives), cache.count(clause, negatives)) == want

    @pytest.mark.parametrize("in_universe", [True, False])
    def test_wrong_arity_example_is_rejected(self, in_universe):
        db = fixtures.small_database()
        clause = parse_clause(self.TEXTS[0])
        example = ("alice",)
        valid = [("alice", "bob")]
        cache = CoverageCache(db, valid + [example] if in_universe else valid)
        with pytest.raises(ValidationError, match="arity"):
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
            picked = clauses._cheapest_variable(factors, keep)
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
            for _ in range(6):
                example = random_example(rng, len(clause.head.args))
                assert covers(clause, example, db) == covers(folded, example, db)


    def test_matches_restart_oracle(self):
        rng = random.Random(239)
        head_vars = [var("x0"), var("x1")]
        shrunk = 0
        for _ in range(600):
            pool = [var(f"y{i}") for i in range(rng.randint(1, 10))]
            pool += [const("c0"), const("c1")]
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
