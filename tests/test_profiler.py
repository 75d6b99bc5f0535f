"""IND discovery against the brute-force containment oracle."""

from __future__ import annotations

import random
import re
import sys
import tracemalloc

import pytest

from automode import fixtures
from automode.errors import ValidationError
from automode.profiler import (
    IndSet,
    UnaryInd,
    dedupe_bidirectional,
    discover_inds,
    format_ind_set,
)
from automode.relstore import AttributeRef, DatabaseInstance, RelationSchema

from oracles import (
    dedupe_bidirectional_oracle,
    inds_oracle,
    random_db,
    random_ind_set,
    random_wide_db,
)


def _ind(ind_set: IndSet, lhs: tuple[str, int], rhs: tuple[str, int]) -> UnaryInd | None:
    for ind in ind_set.inds:
        if (ind.lhs.relation, ind.lhs.position) == lhs and (
            ind.rhs.relation,
            ind.rhs.position,
        ) == rhs:
            return ind
    return None


class TestDiscovery:
    def test_exact_containment_on_fixture(self):
        db = fixtures.small_database()
        found = discover_inds(db, 0.0)
        ind = _ind(found, ("inPhase", 0), ("student", 0))
        assert ind is not None and ind.error == 0.0

    def test_half_error_on_fixture(self):
        db = fixtures.small_database()
        found = discover_inds(db, 0.5)
        ind = _ind(found, ("publication", 1), ("student", 0))
        assert ind is not None and ind.error == pytest.approx(0.5)

    def test_disjoint_columns_excluded(self):
        db = fixtures.small_database()
        found = discover_inds(db, 0.5)
        assert _ind(found, ("student", 0), ("inPhase", 1)) is None

    def test_alpha_bounds_validated(self):
        db = fixtures.small_database()
        with pytest.raises(ValidationError):
            discover_inds(db, 1.5)

    def test_matches_oracle_on_random_databases(self):
        rng = random.Random(23)
        for _ in range(200):
            db = random_db(rng)
            alpha = rng.choice([0.0, 0.25, 0.5, 1.0])
            got = {
                (i.lhs.relation, i.lhs.position, i.rhs.relation, i.rhs.position, i.error)
                for i in discover_inds(db, alpha).inds
            }
            assert got == inds_oracle(db, alpha)

    def test_matches_oracle_on_wide_databases(self):
        # columns of different pools share no value: at alpha 1.0 every such
        # pair is reported with error 1.0, as is every pair whose right
        # column is empty
        rng = random.Random(37)
        disjoint = exact = approximate = empty_right = 0
        for _ in range(120):
            db = random_wide_db(rng)
            empty = {s.name for s in db.schemas if not db.rows[s.name]}
            for alpha in (0.0, 0.25, 0.5, 1.0):
                got = {
                    (i.lhs.relation, i.lhs.position, i.rhs.relation, i.rhs.position, i.error)
                    for i in discover_inds(db, alpha).inds
                }
                assert got == inds_oracle(db, alpha)
                if alpha == 1.0:
                    errors = [error for *_, error in got]
                    disjoint += errors.count(1.0)
                    exact += errors.count(0.0)
                    approximate += sum(0.0 < error < 1.0 for error in errors)
                    empty_right += sum(rhs in empty for _, _, rhs, _, _ in got)
        assert disjoint >= 50 and exact >= 50 and approximate >= 50
        assert empty_right >= 50

    def test_monotone_in_alpha(self):
        rng = random.Random(29)
        for _ in range(60):
            db = random_db(rng)
            small = set(discover_inds(db, 0.2).inds)
            large = set(discover_inds(db, 0.6).inds)
            assert small <= large

    def test_error_is_scale_free(self):
        rng = random.Random(31)
        for _ in range(40):
            db = random_db(rng)
            doubled = DatabaseInstance.build(
                db.schemas, {name: rows + rows for name, rows in db.rows.items()}
            )
            assert discover_inds(db, 0.5) == discover_inds(doubled, 0.5)

    def test_emitted_in_canonical_order(self):
        # the oracle tests compare sets: this pins the lhs-major order the
        # docstring promises
        checked = 0
        for make, seed in ((random_db, 41), (random_wide_db, 43)):
            rng = random.Random(seed)
            for _ in range(40):
                db = make(rng)
                for alpha in (0.0, 0.25, 0.5, 1.0):
                    inds = discover_inds(db, alpha).inds
                    assert inds == tuple(sorted(inds, key=lambda i: (i.lhs, i.rhs)))
                    checked += len(inds) > 1
        assert checked >= 100

    def test_one_count_serves_both_directions(self):
        # e sorts first and has no rows: its columns are right-hand sides
        # only, sharing nothing; r -> s reads the overlap counted for s
        # against the earlier r, and s -> r reads that same count
        db = DatabaseInstance.build(
            (
                RelationSchema("r", ("a",)),
                RelationSchema("s", ("b",)),
                RelationSchema("e", ("c", "d")),
            ),
            {"r": [("x",), ("y",)], "s": [("x",), ("y",), ("z",), ("w",)], "e": []},
        )
        r, s = _attr("r", 0, "a"), _attr("s", 0, "b")
        e0, e1 = _attr("e", 0, "c"), _attr("e", 1, "d")
        assert discover_inds(db, 1.0).inds == (
            UnaryInd(r, e0, 1.0),
            UnaryInd(r, e1, 1.0),
            UnaryInd(r, s, 0.0),
            UnaryInd(s, e0, 1.0),
            UnaryInd(s, e1, 1.0),
            UnaryInd(s, r, 0.5),
        )
        assert discover_inds(db, 0.4).inds == (UnaryInd(r, s, 0.0),)

    def test_holds_one_column_set_at_a_time(self):
        # 80 columns over one pool of 300 values: building every column's
        # value set before counting peaks at about 1.5x their summed size,
        # building each only while it is counted at about half of it
        rng = random.Random(53)
        pool = [f"v{k}" for k in range(300)]
        schemas = tuple(RelationSchema(f"r{n}", ("a", "b")) for n in range(40))
        db = DatabaseInstance.build(
            schemas,
            {s.name: [(rng.choice(pool), rng.choice(pool)) for _ in range(400)] for s in schemas},
        )
        columns = sum(
            sys.getsizeof(frozenset(row[p] for row in rows))
            for rows in db.rows.values()
            for p in (0, 1)
        )
        tracemalloc.start()
        try:
            discover_inds(db, 0.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < columns

    def test_deterministic_order(self):
        db = fixtures.typed_database_registered()
        assert discover_inds(db, 0.5) == discover_inds(db, 0.5)
        text = format_ind_set(discover_inds(db, 0.5))
        assert text.splitlines() == sorted(text.splitlines())


def _attr(rel: str, pos: int = 0, name: str = "a") -> AttributeRef:
    return AttributeRef(rel, pos, name)


class TestDedupe:
    def test_lower_error_wins(self):
        a, b = _attr("r1"), _attr("r2")
        ind_set = IndSet(
            tuple(sorted([UnaryInd(a, b, 0.25), UnaryInd(b, a, 0.4)])), 0.5
        )
        kept = dedupe_bidirectional(ind_set).inds
        assert kept == (UnaryInd(a, b, 0.25),)

    def test_mutual_exact_both_kept(self):
        a, b = _attr("r1"), _attr("r2")
        ind_set = IndSet(tuple(sorted([UnaryInd(a, b, 0.0), UnaryInd(b, a, 0.0)])), 0.5)
        assert len(dedupe_bidirectional(ind_set).inds) == 2

    def test_singleton_untouched(self):
        a, b = _attr("r1"), _attr("r2")
        ind_set = IndSet((UnaryInd(a, b, 0.3),), 0.5)
        assert dedupe_bidirectional(ind_set) == ind_set

    def test_tie_breaks_on_lhs(self):
        a, b = _attr("r1"), _attr("r2")
        ind_set = IndSet(tuple(sorted([UnaryInd(a, b, 0.4), UnaryInd(b, a, 0.4)])), 0.5)
        kept = dedupe_bidirectional(ind_set).inds
        assert kept == (UnaryInd(a, b, 0.4),)

    def test_mixed_exact_and_approximate_both_survive(self):
        # the mutual rule applies to approximate pairs only; an exact IND and
        # its approximate reverse jointly describe a genuine near-cycle
        a, b = _attr("r1"), _attr("r2")
        ind_set = IndSet(tuple(sorted([UnaryInd(a, b, 0.0), UnaryInd(b, a, 0.4)])), 0.5)
        assert len(dedupe_bidirectional(ind_set).inds) == 2

    def test_matches_the_three_branch_rule(self):
        rng = random.Random(101)
        ties = 0
        for _ in range(300):
            _, ind_set = random_ind_set(rng)
            assert dedupe_bidirectional(ind_set) == dedupe_bidirectional_oracle(ind_set)
            by_key = {(i.lhs, i.rhs): i.error for i in ind_set.inds}
            ties += any(0 < i.error == by_key.get((i.rhs, i.lhs)) for i in ind_set.inds)
        assert ties >= 30


class TestIndErrors:
    def test_ind_error_none_for_empty_column(self):
        db = DatabaseInstance.build(
            (RelationSchema("r1", ("a",)), RelationSchema("r2", ("a",))),
            {"r1": [], "r2": [("x",)]},
        )
        assert not discover_inds(db, 1.0).inds or all(
            i.lhs.relation != "r1" for i in discover_inds(db, 1.0).inds
        )

    def test_self_pair_rejected(self):
        with pytest.raises(ValidationError):
            UnaryInd(_attr("r1"), _attr("r1"), 0.0)

    @pytest.mark.parametrize(
        "make, message",
        [
            (lambda a, b: UnaryInd(a, b, 1.5), "IND error out of range: 1.5"),
            (lambda a, b: UnaryInd(a, b, -0.5), "IND error out of range: -0.5"),
            (lambda a, b: IndSet((UnaryInd(a, b, 0.0), UnaryInd(a, b, 0.5)), 1.0),
             "duplicate (lhs, rhs) pair in IndSet"),
            (lambda a, b: IndSet((UnaryInd(a, b, 0.5),), 0.25),
             "r1[a] <= r2[a] err=0.500000 exceeds alpha=0.25"),
        ],
    )
    def test_invalid_ind_or_set_rejected(self, make, message):
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            make(_attr("r1"), _attr("r2"))

    def test_line_format(self):
        ind = UnaryInd(
            AttributeRef("publication", 1, "author"),
            AttributeRef("student", 0, "stud"),
            0.5,
        )
        assert str(ind) == "publication[author] <= student[stud] err=0.500000"
