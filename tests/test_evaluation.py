"""Closed-world negatives, precision/recall, and cross validation."""

from __future__ import annotations

import math
import random
import tracemalloc
from itertools import product

import pytest

from automode import evaluation, fixtures, learner, lgg
from automode.biasgen import induce_bias, read_bias
from automode.clauses import HornDefinition, parse_clause
from automode.coverage import covered_examples
from automode.errors import ConfigError, ValidationError
from automode.evaluation import (
    _BUILT_POOL_FACTOR,
    _split,
    cross_validate,
    generate_negatives,
    learner_for,
    precision_recall,
)
from automode.learner import LearnConfig
from automode.relstore import (
    DatabaseInstance,
    ExampleSet,
    RelationSchema,
    register_target,
)

from oracles import negatives_oracle


def _sample_branch(n: int, k: int) -> str:
    """The branch CPython's `random.Random.sample` takes to draw k of n:
    "list" shuffles a copy of the population, "set" redraws taken indices."""
    setsize = 21
    if k > 5:
        setsize += 4 ** math.ceil(math.log(k * 3, 4))
    return "list" if n <= setsize else "set"


def _random_negatives_case(rng: random.Random):
    """A target of arity 1-4, positives with repeats, and the target
    unregistered, or registered with some positives among its rows, with
    or without rows that add values; one case in ten fills the whole
    product with positives."""
    arity = rng.randint(1, 4)
    width = (40, 12, 6, 4)[arity - 1]
    values = [
        rng.sample([f"v{i}" for i in range(3 * width)], rng.randint(1, width))
        for _ in range(arity)
    ]
    if rng.random() < 0.1:
        positives = [tuple(t) for t in product(*values)]
    else:
        positives = [
            tuple(rng.choice(v) for v in values) for _ in range(rng.randint(1, 14))
        ]
    positives += rng.choices(positives, k=rng.randint(0, 3))
    rng.shuffle(positives)
    target = RelationSchema("t", tuple(f"a{i}" for i in range(arity)))
    other = RelationSchema("r", ("a",))
    registered = rng.random()
    if registered < 0.3:
        db = DatabaseInstance.build((other,), {"r": []})
    else:
        rows = rng.sample(positives, rng.randint(0, len(positives)))
        rows += [
            tuple(f"w{rng.randrange(3 * width)}" for _ in range(arity))
            for _ in range(rng.randint(1, 2 * width) if registered < 0.8 else 0)
        ]
        db = DatabaseInstance.build((target, other), {"t": rows, "r": []})
    return db, tuple(positives), target, rng.randint(1, 3), rng.randrange(10**6)


class TestGenerateNegatives:
    def test_small_pool_returned_whole(self):
        db = fixtures.small_database_registered()
        positives = (("alice", "bob"), ("john", "mary"))
        out = generate_negatives(db, positives, db.schema("advisedBy"), 2, seed=1)
        assert set(out) == {("alice", "mary"), ("john", "bob")}

    def test_ratio_one_returns_exactly_len_positives(self):
        schemas = (RelationSchema("t", ("a", "b")),)
        db = DatabaseInstance.build(schemas, {"t": []})
        positives = tuple((f"x{i}", f"y{i}") for i in range(4))
        out = generate_negatives(db, positives, schemas[0], 1, seed=3)
        assert len(out) == 4
        assert not set(out) & set(positives)
        assert len(set(out)) == len(out)

    def test_exhausted_pool_is_an_error(self):
        schemas = (RelationSchema("t", ("a",)),)
        db = DatabaseInstance.build(schemas, {"t": []})
        with pytest.raises(ValidationError):
            generate_negatives(db, (("only",),), schemas[0], 2, seed=1)

    def test_no_positives_is_an_error(self):
        schemas = (RelationSchema("t", ("a",)),)
        db = DatabaseInstance.build(schemas, {"t": [("x",)]})
        with pytest.raises(
            ValidationError, match="^cannot generate negatives without positives$"
        ):
            generate_negatives(db, (), schemas[0], 2, seed=1)

    def test_deterministic_given_seed(self):
        schemas = (RelationSchema("t", ("a", "b")),)
        db = DatabaseInstance.build(schemas, {"t": []})
        positives = tuple((f"x{i}", f"y{i}") for i in range(5))
        first = generate_negatives(db, positives, schemas[0], 2, seed=11)
        second = generate_negatives(db, positives, schemas[0], 2, seed=11)
        assert first == second

    def test_matches_materialized_pool_oracle(self):
        rng = random.Random(5)
        seen = {"empty": 0, "whole": 0, "built": 0, "list": 0, "set": 0}
        for _ in range(2400):
            case = _random_negatives_case(rng)
            db, positives, target, ratio, _ = case
            rows = db.relation_rows("t") if db.has_relation("t") else ()
            domains = [
                {t[i] for t in positives + rows} for i in range(target.arity)
            ]
            size = math.prod(map(len, domains)) - len(set(positives))
            wanted = ratio * len(positives)
            if not size:
                seen["empty"] += 1
                for draw in (negatives_oracle, generate_negatives):
                    with pytest.raises(ValidationError):
                        draw(*case)
                continue
            assert generate_negatives(*case) == negatives_oracle(*case)
            if size <= wanted:
                seen["whole"] += 1
            elif size <= _BUILT_POOL_FACTOR * wanted:
                seen["built"] += 1
            else:  # drawn by pool position, never built
                seen[_sample_branch(size, wanted)] += 1
        assert seen["list"] >= 100 and seen["set"] >= 100, seen
        assert min(seen["empty"], seen["whole"], seen["built"]) >= 50, seen

    def test_wide_target_never_builds_the_product(self):
        # 300 values at each of four positions: 8.1e9 tuples in the product
        target = RelationSchema("t", ("a", "b", "c", "d"))
        db = DatabaseInstance.build((RelationSchema("r", ("a",)),), {"r": []})
        positives = tuple(tuple(f"{c}{i}" for c in "abcd") for i in range(300))
        tracemalloc.start()
        try:
            out = generate_negatives(db, positives, target, 2, seed=9)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * 2**20
        assert len(out) == len(set(out)) == 2 * len(positives)
        assert not set(out) & set(positives)
        domains = [{p[i] for p in positives} for i in range(4)]
        assert all(v in d for t in out for v, d in zip(t, domains))

    def test_pool_beyond_sample_range_is_an_error(self):
        # 7,000^5 tuples outnumber the indices random.sample can draw
        target = RelationSchema("t", tuple("abcde"))
        db = DatabaseInstance.build((RelationSchema("r", ("a",)),), {"r": []})
        positives = tuple((f"v{i}",) * 5 for i in range(7000))
        with pytest.raises(ValidationError, match="too large"):
            generate_negatives(db, positives, target, 1, seed=1)

    def test_ratio_validated(self):
        db = fixtures.small_database_registered()
        with pytest.raises(ConfigError):
            generate_negatives(db, (("a", "b"),), db.schema("advisedBy"), 0, seed=1)


class TestPrecisionRecall:
    def _unary_db(self, covered: list[str]):
        schemas = (RelationSchema("p", ("a",)), RelationSchema("t", ("a",)))
        return DatabaseInstance.build(
            schemas, {"p": [(c,) for c in covered], "t": []}
        )

    def test_ideal_definition(self):
        db = fixtures.small_database_registered()
        definition = HornDefinition(
            (parse_clause("advisedBy(x,y) :- publication(z,x), publication(z,y)."),)
        )
        ex = fixtures.small_examples()
        assert precision_recall(definition, ex.positives, ex.negatives, db) == (1.0, 1.0)

    def test_empty_definition_is_vacuously_precise(self):
        db = fixtures.small_database_registered()
        ex = fixtures.small_examples()
        assert precision_recall(HornDefinition(()), ex.positives, ex.negatives, db) == (
            1.0,
            0.0,
        )

    def test_three_quarters(self):
        db = self._unary_db(["c1", "c2", "c3", "d1"])
        definition = HornDefinition((parse_clause("t(x) :- p(x)."),))
        test_pos = tuple((f"c{i}",) for i in range(1, 5))
        test_neg = tuple((f"d{i}",) for i in range(1, 5))
        assert precision_recall(definition, test_pos, test_neg, db) == (0.75, 0.75)

    def test_overlapping_test_sets_rejected(self):
        db = self._unary_db([])
        with pytest.raises(ValidationError):
            precision_recall(HornDefinition(()), (("a",),), (("a",),), db)


class TestDefinitionCoverage:
    """A definition covers an example when one of its clauses does; read
    through `precision_recall` on a single positive, whose recall is 1.0
    exactly when the definition covers it."""

    @staticmethod
    def _covers(definition, example, db):
        return precision_recall(definition, (example,), (), db)[1] == 1.0

    def test_empty_definition_covers_nothing(self):
        db = fixtures.small_database()
        assert not self._covers(HornDefinition(()), ("alice", "bob"), db)

    def test_single_clause_definition(self, worked_clause):
        db = fixtures.small_database()
        definition = HornDefinition((worked_clause,))
        covered = [
            e
            for e in (("alice", "bob"), ("alice", "mary"), ("john", "bob"), ("john", "mary"))
            if self._covers(definition, e, db)
        ]
        assert covered == [("alice", "bob"), ("john", "mary")]

    def test_union_semantics(self, worked_clause):
        db = fixtures.small_database()
        only_students = parse_clause("advisedBy(x,y) :- student(x), professor(y).")
        union = HornDefinition((worked_clause, only_students))
        pairs = [(s, p) for s in ("alice", "john") for p in ("bob", "mary")]
        either = covered_examples(worked_clause, pairs, db) | covered_examples(
            only_students, pairs, db
        )
        for example in pairs:
            assert self._covers(union, example, db) == (example in either)


class TestSplit:
    def test_near_equal_partition(self):
        for n in (5, 7, 10, 11):
            for k in (2, 3, 5):
                parts = _split(list(range(n)), k)
                assert len(parts) == k
                sizes = [len(p) for p in parts]
                assert max(sizes) - min(sizes) <= 1
                assert sorted(x for p in parts for x in p) == list(range(n))


class TestCrossValidate:
    def _task(self):
        db = fixtures.small_database_registered()
        ex = fixtures.small_examples()
        bias = induce_bias(db, "advisedBy")
        return db, ex, bias

    def _planted_task(self):
        """Students advised by a professor they publish with, and
        closed-world negatives: several positives per fold. The bias keeps
        phases and positions as constants, which armg must drop."""
        rng = random.Random(5)
        students = [f"s{i}" for i in range(12)]
        profs = [f"p{i}" for i in range(4)]
        schemas = (
            RelationSchema("student", ("stud",)),
            RelationSchema("professor", ("prof",)),
            RelationSchema("inPhase", ("stud", "phase")),
            RelationSchema("hasPosition", ("prof", "position")),
            RelationSchema("publication", ("title", "author")),
            RelationSchema("advisedBy", ("stud", "prof")),
        )
        pubs, positives = [], set()
        for k, stud in enumerate(students):
            prof = rng.choice(profs)
            pubs += [(f"t{k}", stud), (f"t{k}", prof)]
            positives.add((stud, prof))
        facts = {
            "student": [(s,) for s in students],
            "professor": [(p,) for p in profs],
            "inPhase": [(s, rng.choice(["pre", "post"])) for s in students],
            "hasPosition": [(p, rng.choice(["assistant", "full"])) for p in profs],
            "publication": pubs,
            "advisedBy": [],
        }
        positives = tuple(sorted(positives))
        db = register_target(
            DatabaseInstance.build(schemas, facts), ExampleSet(schemas[-1], positives, ())
        )
        negatives = generate_negatives(db, positives, schemas[-1], 2, seed=5)
        bias = read_bias(
            "PREDICATES:\nadvisedBy(S,P)\nstudent(S)\nprofessor(P)\ninPhase(S,F)\n"
            "hasPosition(P,R)\npublication(T,S)\npublication(T,P)\n"
            "MODES:\nadvisedBy(+,+)\nstudent(+)\nprofessor(+)\ninPhase(+,#)\n"
            "hasPosition(+,#)\npublication(+,-)\npublication(-,+)\n"
        )
        return db, ExampleSet(schemas[-1], positives, negatives), bias

    def test_leave_one_out_runs(self):
        db, ex, bias = self._task()
        report = cross_validate(db, ex, bias, LearnConfig(), folds=2, seed=1)
        assert report.folds == 2 and len(report.per_fold) == 2
        assert 0.0 <= report.mean_precision <= 1.0
        assert 0.0 <= report.mean_recall <= 1.0

    def test_same_seed_same_metrics(self):
        db, ex, bias = self._task()
        first = cross_validate(db, ex, bias, LearnConfig(), folds=2, seed=7)
        second = cross_validate(db, ex, bias, LearnConfig(), folds=2, seed=7)
        assert [
            (m.precision, m.recall) for m in first.per_fold
        ] == [(m.precision, m.recall) for m in second.per_fold]
        assert first.mean_precision == second.mean_precision
        assert first.mean_recall == second.mean_recall

    @pytest.mark.parametrize("task, folds", [("_task", 2), ("_planted_task", 3)])
    @pytest.mark.parametrize(
        "generalizer, learner", [("armg", "learn_definition"), ("lgg", "lgg_learn")]
    )
    def test_folds_do_not_influence_each_other(
        self, monkeypatch, task, folds, generalizer, learner
    ):
        """One cache serves every fold, yet each fold learns what it would
        alone with a fresh cache and scores what a cache-less scoring gives."""
        db, ex, bias = getattr(self, task)()
        learn = getattr(evaluation, learner)
        score = evaluation.precision_recall
        learned, scored, caches = [], [], []

        def learn_fold(db_, train, *args, cache, **kwargs):
            caches.append(cache)
            definition = learn(db_, train, *args, cache=cache, **kwargs)
            learned.append((train, args, kwargs, definition))
            return definition

        def score_fold(definition, test_pos, test_neg, db_, cache):
            caches.append(cache)
            result = score(definition, test_pos, test_neg, db_, cache)
            scored.append((definition, test_pos, test_neg, result))
            return result

        monkeypatch.setattr(evaluation, learner, learn_fold)
        monkeypatch.setattr(evaluation, "precision_recall", score_fold)
        report = cross_validate(
            db, ex, bias, LearnConfig(), folds=folds, seed=3, generalizer=generalizer
        )
        assert len(learned) == len(scored) == folds
        assert all(cache is caches[0] for cache in caches)
        for train, args, kwargs, definition in learned:
            assert learn(db, train, *args, **kwargs) == definition
        for fold, (definition, test_pos, test_neg, result) in zip(
            report.per_fold, scored
        ):
            assert score(definition, test_pos, test_neg, db) == result
            assert (fold.precision, fold.recall) == result

    @pytest.mark.parametrize(
        "generalizer, name, counted",
        [
            (
                "armg",
                "learn_definition",
                [
                    (learner, "build_bottom_clause", 1),
                    (learner, "armg", 2),
                    (learner, "fold_singleton_literals", 1),
                ],
            ),
            (
                "lgg",
                "lgg_learn",
                [
                    (lgg, "ground_bottom_clause", 1),
                    (lgg, "lgg_clauses", 2),
                    (lgg, "generate_modes", 0),
                ],
            ),
        ],
        ids=["armg", "lgg"],
    )
    def test_shared_cache_computes_each_input_once(
        self, monkeypatch, generalizer, name, counted
    ):
        """Across the folds of one run, each cached step computes each of
        its inputs (the first `n` arguments; the rest are fixed within a
        run) once, and repeating a fold's learning on the run's cache
        computes nothing."""
        db, ex, bias = self._planted_task()
        inputs = {}
        for module, step, n in counted:
            seen = inputs[step] = []

            def counting(*args, compute=getattr(module, step), n=n, seen=seen):
                seen.append(args[:n])
                return compute(*args)

            monkeypatch.setattr(module, step, counting)
        learn = getattr(evaluation, name)
        runs = []

        def recording(*args, cache):
            runs.append((args, cache))
            return learn(*args, cache=cache)

        monkeypatch.setattr(evaluation, name, recording)
        cross_validate(db, ex, bias, LearnConfig(), folds=5, seed=3, generalizer=generalizer)
        counts = {step: len(seen) for step, seen in inputs.items()}
        for step, seen in inputs.items():
            assert seen and len(set(seen)) == len(seen), step
        args, cache = runs[-1]
        learn(*args, cache=cache)
        assert {step: len(seen) for step, seen in inputs.items()} == counts

    def test_lgg_generalizer_path(self):
        db, ex, bias = self._task()
        report = cross_validate(
            db, ex, bias, LearnConfig(), folds=2, seed=1, generalizer="lgg"
        )
        assert len(report.per_fold) == 2

    def test_unknown_generalizer_rejected_before_any_fold_learns(self, monkeypatch):
        with pytest.raises(ConfigError, match="unknown generalizer: bogus"):
            learner_for("bogus")
        db, ex, bias = self._task()
        learned = []
        for name in ("learn_definition", "lgg_learn"):
            monkeypatch.setattr(evaluation, name, lambda *a, **k: learned.append(a))
        with pytest.raises(ConfigError, match="unknown generalizer: bogus"):
            cross_validate(db, ex, bias, LearnConfig(), folds=2, seed=1, generalizer="bogus")
        assert learned == []

    def test_too_many_folds_rejected(self):
        db, ex, bias = self._task()
        with pytest.raises(ValidationError):
            cross_validate(db, ex, bias, LearnConfig(), folds=3, seed=1)
        with pytest.raises(ConfigError):
            cross_validate(db, ex, bias, LearnConfig(), folds=1, seed=1)

    def test_report_serialization_shape(self):
        db, ex, bias = self._task()
        report = cross_validate(db, ex, bias, LearnConfig(), folds=2, seed=1)
        data = report.to_dict()
        assert set(data) == {
            "folds",
            "seed",
            "per_fold",
            "mean_precision",
            "mean_recall",
            "mean_wall_ms",
        }
        assert all(set(f) == {"precision", "recall", "wall_ms"} for f in data["per_fold"])
