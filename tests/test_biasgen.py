"""Type-graph construction, predicate/mode generation, and the bias format."""

from __future__ import annotations

import random

import pytest

from automode import fixtures
from automode.biasgen import (
    BiasSpec,
    ModeDecl,
    PredicateDecl,
    build_type_graph,
    generate_modes,
    generate_predicates,
    induce_bias,
    read_bias,
    write_bias,
    _few_distinct,
)
from automode.errors import ConfigError, LoadError, ValidationError
from automode.profiler import dedupe_bidirectional, discover_inds
from automode.relstore import DatabaseInstance, RelationSchema

from conftest import MANUAL_BIAS_TEXT
from oracles import dedupe_modes_oracle, random_db, random_wide_db, type_reachability_oracle


def _single_column_db(columns: dict[str, list[str]]) -> DatabaseInstance:
    schemas = tuple(RelationSchema(name, ("a",)) for name in columns)
    return DatabaseInstance.build(
        schemas, {name: [(v,) for v in values] for name, values in columns.items()}
    )


def _types(graph, relation: str, position: int = 0):
    for node in graph.nodes:
        if node.relation == relation and node.position == position:
            return graph.types(node)
    raise AssertionError(f"no node for {relation}[{position}]")


class TestTypeGraph:
    def test_no_edges_gives_fresh_type_per_attribute(self):
        db = _single_column_db({"r1": ["x1"], "r2": ["y1"], "r3": ["z1"]})
        graph = build_type_graph(db.schemas, discover_inds(db, 0.0))
        tokens = [_types(graph, r) for r in ("r1", "r2", "r3")]
        assert all(len(t) == 1 for t in tokens)
        assert len(set().union(*tokens)) == 3

    def test_exact_ind_shares_type_downstream(self):
        db = _single_column_db({"sub": ["x1"], "sup": ["x1", "x2", "x3"]})
        graph = build_type_graph(
            db.schemas, dedupe_bidirectional(discover_inds(db, 0.5))
        )
        assert _types(graph, "sup") <= _types(graph, "sub")

    def test_mutual_exact_columns_share_one_type(self):
        db = _single_column_db({"r1": ["x1", "x2"], "r2": ["x1", "x2"]})
        graph = build_type_graph(
            db.schemas, dedupe_bidirectional(discover_inds(db, 0.5))
        )
        assert _types(graph, "r1") == _types(graph, "r2")
        assert len(_types(graph, "r1")) == 1

    def test_approximate_types_cross_one_edge_only(self):
        # chain: ra approx-contained in rb, rb approx-contained in rc
        db = _single_column_db(
            {
                "ra": ["a1", "a2"],
                "rb": ["a1", "b1", "b2"],
                "rc": ["b1", "b2", "c1", "c2", "c3"],
            }
        )
        inds = dedupe_bidirectional(discover_inds(db, 0.5))
        assert {(i.lhs.relation, i.rhs.relation) for i in inds.inds} == {
            ("ra", "rb"),
            ("rb", "rc"),
        }
        graph = build_type_graph(db.schemas, inds)
        assert _types(graph, "rb") == _types(graph, "rc")
        # rc's type is flagged at rb and must not reach ra; ra gets its own
        assert not _types(graph, "ra") & _types(graph, "rc")
        assert len(_types(graph, "ra")) == 1

    def test_typed_fixture_reproduces_expected_assignments(self):
        db = fixtures.typed_database_registered()
        graph = build_type_graph(
            db.schemas, dedupe_bidirectional(discover_inds(db, 0.5))
        )
        t_stud = _types(graph, "student")
        t_prof = _types(graph, "professor")
        assert len(t_stud) == 1 and len(t_prof) == 1 and t_stud != t_prof
        assert _types(graph, "inPhase", 0) == t_stud
        assert _types(graph, "ta", 1) == t_stud
        assert _types(graph, "hasPosition", 0) == t_prof
        assert _types(graph, "publication", 1) == t_stud | t_prof
        assert len(_types(graph, "publication", 0)) == 1

    def test_every_node_gets_a_type(self):
        rng = random.Random(61)
        for _ in range(60):
            db = random_db(rng)
            graph = build_type_graph(
                db.schemas, dedupe_bidirectional(discover_inds(db, rng.choice([0.0, 0.5])))
            )
            assert all(graph.types(n) for n in graph.nodes)

    def test_assignment_matches_budgeted_reachability_oracle(self):
        rng = random.Random(67)
        for _ in range(60):
            db = random_db(rng, max_relations=4)
            graph = build_type_graph(
                db.schemas, dedupe_bidirectional(discover_inds(db, 0.5))
            )
            expected = type_reachability_oracle(graph)
            assert {n: graph.types(n) for n in graph.nodes} == {
                n: frozenset(v) for n, v in expected.items()
            }

    def test_join_soundness_for_exact_inds(self):
        rng = random.Random(71)
        for _ in range(40):
            db = random_db(rng)
            inds = dedupe_bidirectional(discover_inds(db, 0.5))
            graph = build_type_graph(db.schemas, inds)
            for ind in inds.inds:
                if ind.error == 0.0:
                    assert graph.types(ind.lhs) & graph.types(ind.rhs)


class TestGeneratePredicates:
    def test_fixture_publication_declarations(self):
        db = fixtures.typed_database_registered()
        bias = induce_bias(db, "advisedBy")
        decls = bias.declarations_for("publication")
        assert len(decls) == 2
        titles = {d.types[0] for d in decls}
        authors = {d.types[1] for d in decls}
        assert len(titles) == 1 and len(authors) == 2

    def test_unary_relation_single_declaration(self):
        db = fixtures.typed_database_registered()
        bias = induce_bias(db, "advisedBy")
        assert len(bias.declarations_for("student")) == 1

    def test_cartesian_product_size(self):
        db = _single_column_db({"r1": ["x1"]})
        graph = build_type_graph(db.schemas, discover_inds(db, 0.0))
        # fake a relation carrying two types on each of two attributes
        two = RelationSchema("two", ("a", "b"))
        node_a, node_b = two.attribute_refs()
        graph.assignments[node_a] = {"T8": False, "T9": False}
        graph.assignments[node_b] = {"T8": False, "T9": False}
        decls = generate_predicates(
            type(graph)(
                graph.nodes + (node_a, node_b),
                graph.edges,
                graph.assignments,
                graph.origins,
            )
        )
        assert len([d for d in decls if d.relation == "two"]) == 4


class TestFewDistinct:
    """`_few_distinct` is the distinct-value count behind constant
    eligibility: a column qualifies when it holds at least one and fewer
    than `threshold` distinct values."""

    def test_fixture_columns(self):
        db = fixtures.small_database()
        phases = db.relation_rows("inPhase")
        assert {row[1] for row in phases} == {"post_quals"}
        assert _few_distinct(phases, 1, 2)
        assert not _few_distinct(phases, 1, 1)
        authors = db.relation_rows("publication")
        assert {row[1] for row in authors} == {"alice", "bob", "john", "mary"}
        assert _few_distinct(authors, 1, 5)
        assert not _few_distinct(authors, 1, 4)

    def test_matches_distinct_count(self):
        rng = random.Random(7)
        for _ in range(25):
            db = random_db(rng)
            for schema in db.schemas:
                rows = db.relation_rows(schema.name)
                for ref in schema.attribute_refs():
                    distinct = len({row[ref.position] for row in rows})
                    assert distinct <= len(rows)
                    for threshold in (1, 2, 3, 5):
                        assert _few_distinct(rows, ref.position, threshold) == (
                            0 < distinct < threshold
                        )

    def test_stops_at_threshold_th_value(self):
        def rows():
            yield ("a",)
            yield ("a",)
            yield ("b",)
            raise AssertionError("read past the threshold-th distinct value")

        assert not _few_distinct(rows(), 0, 2)


class TestGenerateModes:
    def test_no_eligible_attributes_gives_base_pair(self):
        db = fixtures.typed_database_registered()
        _, modes = generate_modes(db, 3, "advisedBy")
        pub = [m for m in modes if m.relation == "publication"]
        assert [m.symbols for m in pub] == [("+", "-"), ("-", "+")]

    def test_single_eligible_attribute_adds_hash_mode(self):
        db = fixtures.typed_database_registered()
        _, modes = generate_modes(db, 5, "advisedBy")
        in_phase = {m.symbols for m in modes if m.relation == "inPhase"}
        assert in_phase == {("+", "-"), ("-", "+"), ("+", "#")}

    def test_both_eligible_binary_relation_gives_four_modes(self):
        db = fixtures.small_database_registered()
        _, modes = generate_modes(db, 5, "advisedBy")
        pub = {m.symbols for m in modes if m.relation == "publication"}
        assert pub == {("+", "-"), ("-", "+"), ("#", "+"), ("+", "#")}

    def test_head_mode_all_plus(self):
        db = fixtures.typed_database_registered()
        head, _ = generate_modes(db, 5, "advisedBy")
        assert head == ModeDecl("advisedBy", ("+", "+"))

    def test_base_modes_precede_constant_modes(self):
        db = fixtures.small_database_registered()
        _, modes = generate_modes(db, 5, "advisedBy")
        for relation in {m.relation for m in modes}:
            rel_modes = [m for m in modes if m.relation == relation]
            hashes = ["#" in m.symbols for m in rel_modes]
            assert hashes == sorted(hashes)

    def test_empty_column_not_constant_eligible(self):
        db = _single_column_db({"full": ["x1"], "empty": []})
        _, modes = generate_modes(db, 5, "full")
        assert {m.symbols for m in modes if m.relation == "empty"} == {("+",)}

    def test_mode_count_formula(self):
        rng = random.Random(73)
        for _ in range(40):
            db = random_db(rng, max_arity=3)
            threshold = rng.choice([1, 2, 5])
            target = db.schemas[0].name
            _, modes = generate_modes(db, threshold, target)
            for schema in db.schemas[1:]:
                n = schema.arity
                eligible = sum(
                    1
                    for ref in schema.attribute_refs()
                    if 0 < len({row[ref.position] for row in db.rows[schema.name]}) < threshold
                )
                from math import comb

                expected = n + sum(
                    comb(eligible, size) * (n - size)
                    for size in range(1, eligible + 1)
                )
                assert len([m for m in modes if m.relation == schema.name]) == expected

    def test_no_mode_repeats(self):
        # each (relation, '#' subset, '+' position) yields a distinct mode,
        # so the deduplication generate_modes once ended with is a no-op
        rng = random.Random(83)
        for _ in range(40):
            db = random_db(rng, max_arity=3) if rng.random() < 0.5 else random_wide_db(rng)
            target = rng.choice(db.schemas).name
            for threshold in range(1, 7):
                _, modes = generate_modes(db, threshold, target)
                assert modes == dedupe_modes_oracle(modes)

    def test_every_body_mode_has_a_plus(self):
        rng = random.Random(79)
        for _ in range(30):
            db = random_db(rng, max_arity=3)
            _, modes = generate_modes(db, 2, db.schemas[0].name)
            assert all("+" in m.symbols for m in modes)

    def test_threshold_validated(self):
        db = fixtures.small_database_registered()
        with pytest.raises(ConfigError):
            generate_modes(db, 0, "advisedBy")


class TestBiasSpec:
    @pytest.mark.parametrize("threshold", [1, 2, 5, 50])
    def test_round_trip(self, threshold):
        db = fixtures.typed_database_registered()
        bias = induce_bias(db, "advisedBy", constant_threshold=threshold)
        assert read_bias(write_bias(bias)) == bias

    def test_induction_is_deterministic(self):
        first = write_bias(induce_bias(fixtures.typed_database_registered(), "advisedBy"))
        second = write_bias(induce_bias(fixtures.typed_database_registered(), "advisedBy"))
        assert first == second

    def test_mode_without_declaration_rejected(self):
        with pytest.raises(ValidationError):
            BiasSpec(
                (PredicateDecl("student", ("T1",)),),
                (ModeDecl("ghost", ("+",)),),
                ModeDecl("student", ("+",)),
            )

    def test_body_mode_requires_plus(self):
        with pytest.raises(ValidationError):
            BiasSpec(
                (PredicateDecl("student", ("T1",)),),
                (ModeDecl("student", ("-",)),),
                ModeDecl("student", ("+",)),
            )

    def test_whitespace_around_an_item_is_stripped(self, manual_bias):
        text = MANUAL_BIAS_TEXT.replace("inPhase(T1,T2)", "inPhase(T1,\tT2)")
        text = text.replace("publication(-,+)", "publication ( - ,\t+ )")
        assert read_bias(text) == manual_bias

    @pytest.mark.parametrize(
        "line",
        [
            "inPhase(T1,T 2)",
            "inPhase(+,\t-\t#)",
            "inPhase(+,)",
            "PREDICATES:\nr(T1,,T2)",
            "PREDICATES:\nr()",
        ],
    )
    def test_whitespace_inside_an_item_rejected(self, line):
        with pytest.raises(LoadError, match="cannot parse"):
            read_bias(MANUAL_BIAS_TEXT + line + "\n")

    def test_body_mode_on_target_rejected(self):
        with pytest.raises(ValidationError, match="target relation"):
            read_bias(MANUAL_BIAS_TEXT + "advisedBy(+,-)\n")

    def test_unregistered_target_rejected(self):
        db = fixtures.small_database()  # advisedBy present but empty is fine
        with pytest.raises(ValidationError):
            induce_bias(db, "ghost")

    def test_manual_bias_parses(self, manual_bias):
        assert manual_bias.head_mode == ModeDecl("advisedBy", ("+", "+"))
        assert manual_bias.modes_for("inPhase") == (
            ModeDecl("inPhase", ("+", "-")),
            ModeDecl("inPhase", ("+", "#")),
        )
