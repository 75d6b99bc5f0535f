"""Loading, validation and indexing."""

from __future__ import annotations

import random
import re
import sys
import threading
import time
from dataclasses import dataclass

import pytest

from automode import fixtures, relstore
from automode.errors import LoadError, ValidationError
from automode.relstore import (
    AttributeRef,
    DatabaseInstance,
    ExampleSet,
    RelationSchema,
    dump_database,
    dump_examples,
    load_database,
    load_examples,
    load_schema,
    register_target,
)

from oracles import (
    examples_oracle,
    facts_csv_oracle,
    random_db,
    random_examples_text,
    random_facts_csv,
    random_string_db,
    random_string_examples,
)


@pytest.fixture
def workspace(tmp_path):
    schema = tmp_path / "schema.txt"
    facts = tmp_path / "facts"
    facts.mkdir()
    return tmp_path, schema, facts


def _write(path, text):
    path.write_text(text, encoding="utf-8")


class TestSchemaFile:
    def test_parses_declarations_and_comments(self, workspace):
        _, schema, _ = workspace
        _write(schema, "# dept\nstudent(stud)\npublication(title,author)\n")
        schemas = load_schema(schema)
        assert [s.name for s in schemas] == ["student", "publication"]
        assert schemas[1].attributes == ("title", "author")

    def test_rejects_malformed_line(self, workspace):
        _, schema, _ = workspace
        _write(schema, "student stud\n")
        with pytest.raises(LoadError):
            load_schema(schema)

    def test_rejects_duplicate_attribute(self, workspace):
        _, schema, _ = workspace
        _write(schema, "r(a,a)\n")
        with pytest.raises(LoadError):
            load_schema(schema)

    def test_whitespace_around_a_name_is_stripped(self, workspace):
        # a tab is whitespace like a space, as in a facts header
        _, schema, _ = workspace
        _write(schema, "r(a,\tb)\ns ( c ,\u00a0d\t)\n")
        assert [s.attributes for s in load_schema(schema)] == [("a", "b"), ("c", "d")]

    @pytest.mark.parametrize("line", ["r(a b,c)", "r(a,b\tc)"])
    def test_whitespace_inside_a_name_rejected(self, workspace, line):
        _, schema, _ = workspace
        _write(schema, line + "\n")
        with pytest.raises(LoadError, match="cannot parse schema line"):
            load_schema(schema)


class TestLoadDatabase:
    def test_loads_and_counts(self, workspace):
        _, schema, facts = workspace
        _write(schema, "student(stud)\n")
        _write(facts / "student.csv", "stud\nalice\njohn\n")
        db = load_database(schema, facts)
        assert db.relation_rows("student") == (("alice",), ("john",))

    def test_empty_facts_file_is_fine(self, workspace):
        _, schema, facts = workspace
        _write(schema, "student(stud)\n")
        _write(facts / "student.csv", "")
        db = load_database(schema, facts)
        assert db.relation_rows("student") == ()

    def test_duplicate_rows_collapse(self, workspace):
        _, schema, facts = workspace
        _write(schema, "student(stud)\n")
        _write(facts / "student.csv", "stud\nalice\nalice\n")
        db = load_database(schema, facts)
        assert db.relation_rows("student") == (("alice",),)

    def test_arity_mismatch_names_relation_and_line(self, workspace):
        _, schema, facts = workspace
        _write(schema, "inPhase(stud,phase)\n")
        _write(facts / "inPhase.csv", "stud,phase\nalice\n")
        with pytest.raises(LoadError, match=r"inPhase.csv:2.*inPhase"):
            load_database(schema, facts)

    def test_unknown_facts_file_rejected(self, workspace):
        _, schema, facts = workspace
        _write(schema, "student(stud)\n")
        _write(facts / "student.csv", "stud\nalice\n")
        _write(facts / "ghost.csv", "x\n1\n")
        with pytest.raises(LoadError, match="ghost"):
            load_database(schema, facts)

    def test_missing_facts_file_rejected_unless_examples_backed(self, workspace):
        _, schema, facts = workspace
        _write(schema, "student(stud)\nadvisedBy(stud,prof)\n")
        _write(facts / "student.csv", "stud\nalice\n")
        with pytest.raises(LoadError, match="advisedBy"):
            load_database(schema, facts)
        db = load_database(schema, facts, examples_backed=("advisedBy",))
        assert db.relation_rows("advisedBy") == ()

    def test_header_must_match_schema(self, workspace):
        _, schema, facts = workspace
        _write(schema, "student(stud)\n")
        _write(facts / "student.csv", "name\nalice\n")
        with pytest.raises(LoadError, match="header"):
            load_database(schema, facts)

    def test_empty_values_rejected(self, workspace):
        _, schema, facts = workspace
        _write(schema, "inPhase(stud,phase)\n")
        _write(facts / "inPhase.csv", "stud,phase\nalice,\n")
        with pytest.raises(LoadError):
            load_database(schema, facts)

    def test_reader_agrees_with_oracle_on_random_files(self, tmp_path):
        rng = random.Random(53)
        outcomes = {"loaded": 0, "header": 0, "arity": 0, "empty": 0}
        for i in range(400):
            schema = RelationSchema("r", tuple(f"a{j}" for j in range(rng.randint(1, 3))))
            path = tmp_path / f"r{i}.csv"
            path.write_bytes(random_facts_csv(rng, schema).encode("utf-8"))
            try:
                expected = facts_csv_oracle(path, schema)
            except LoadError as exc:
                with pytest.raises(LoadError) as got:
                    relstore._read_facts_csv(path, schema)
                message = str(exc)
                assert str(got.value) == message
                kind = (
                    "header" if "header" in message
                    else "arity" if "expects" in message
                    else "empty"
                )
                outcomes[kind] += 1
                continue
            assert relstore._read_facts_csv(path, schema) == expected
            outcomes["loaded"] += 1
        assert all(count >= 30 for count in outcomes.values()), outcomes

    def test_loader_stores_what_build_stores_on_random_files(self, tmp_path):
        # the loader skips `build`'s checks on the reader's rows, so a file
        # that loads must store exactly what `build` stores from those rows,
        # and a file the reader rejects must fail with the reader's message
        rng = random.Random(59)
        outcomes = {"loaded": 0, "rejected": 0}
        for i in range(300):
            schema = RelationSchema("r", tuple(f"a{j}" for j in range(rng.randint(1, 3))))
            facts = tmp_path / f"db{i}" / "facts"
            facts.mkdir(parents=True)
            schema_file = tmp_path / f"db{i}" / "schema.txt"
            _write(schema_file, f"r({','.join(schema.attributes)})\n")
            path = facts / "r.csv"
            path.write_bytes(random_facts_csv(rng, schema).encode("utf-8"))
            try:
                expected = facts_csv_oracle(path, schema)
            except LoadError as exc:
                with pytest.raises(LoadError, match=re.escape(str(exc))):
                    load_database(schema_file, facts)
                outcomes["rejected"] += 1
                continue
            db = load_database(schema_file, facts)
            assert db == DatabaseInstance.build((schema,), {"r": expected})
            outcomes["loaded"] += 1
        assert all(count >= 30 for count in outcomes.values()), outcomes


class TestExamples:
    TARGET = RelationSchema("advisedBy", ("stud", "prof"))

    def test_parses_labels(self, tmp_path):
        f = tmp_path / "ex.txt"
        _write(f, "+ advisedBy(alice,bob)\n+ advisedBy(john,mary)\n- advisedBy(john,bob)\n")
        ex = load_examples(f, self.TARGET)
        assert len(ex.positives) == 2
        assert ex.negatives == (("john", "bob"),)

    def test_empty_file_gives_empty_set(self, tmp_path):
        f = tmp_path / "ex.txt"
        _write(f, "\n")
        ex = load_examples(f, self.TARGET)
        assert ex.positives == () and ex.negatives == ()

    def test_contradictory_label_rejected(self, tmp_path):
        f = tmp_path / "ex.txt"
        _write(f, "+ advisedBy(a,b)\n- advisedBy(a,b)\n")
        with pytest.raises(ValidationError):
            load_examples(f, self.TARGET)

    def test_arity_mismatch_rejected(self, tmp_path):
        f = tmp_path / "ex.txt"
        _write(f, "+ advisedBy(a)\n")
        with pytest.raises(LoadError):
            load_examples(f, self.TARGET)

    def test_wrong_relation_rejected(self, tmp_path):
        f = tmp_path / "ex.txt"
        _write(f, "+ other(a,b)\n")
        with pytest.raises(LoadError):
            load_examples(f, self.TARGET)

    def test_reader_agrees_with_oracle_on_random_files(self, tmp_path):
        rng = random.Random(59)
        outcomes = {"loaded": 0, "collapsed": 0, "conflict": 0}
        for i in range(300):
            target = RelationSchema("t", tuple(f"a{j}" for j in range(rng.randint(1, 2))))
            path = tmp_path / f"ex{i}.txt"
            _write(path, random_examples_text(rng, target))
            try:
                expected = examples_oracle(path, target)
            except ValidationError as exc:
                with pytest.raises(ValidationError) as got:
                    load_examples(path, target)
                assert str(got.value) == str(exc)
                outcomes["conflict"] += 1
                continue
            assert load_examples(path, target) == expected
            outcomes["loaded"] += 1
            lines = path.read_text(encoding="utf-8").count("(")
            outcomes["collapsed"] += len(expected.positives + expected.negatives) < lines
        assert all(count >= 30 for count in outcomes.values()), outcomes

    def test_large_file_loads_in_linear_time(self, tmp_path):
        # 40,000 distinct lines; a per-line scan of the examples kept so
        # far made this take about 20 s
        f = tmp_path / "ex.txt"
        _write(
            f,
            "".join(
                f"{'+' if i % 4 else '-'} advisedBy(s{i},p{i % 97})\n"
                for i in range(40_000)
            ),
        )
        start = time.perf_counter()
        ex = load_examples(f, self.TARGET)
        assert time.perf_counter() - start < 5.0
        assert len(ex.positives) == 30_000 and len(ex.negatives) == 10_000
        assert ex.negatives[:2] == (("s0", "p0"), ("s4", "p4"))


@dataclass(frozen=True, order=True)
class _DataclassAttributeRef:
    """The frozen dataclass AttributeRef was before it became a named tuple."""

    relation: str
    position: int
    name: str

    def __str__(self) -> str:
        return f"{self.relation}[{self.name}]"


class TestAttributeRefContract:
    # AttributeRef is a named tuple so that hashing, equality and ordering
    # run in C. IND sets, type graphs and biases are built from sets, dicts
    # and sorts keyed by it, so their output bytes stay those of the frozen
    # dataclass only while its hash, order, str and repr stay the same.

    @staticmethod
    def _pairs(seed: int):
        rng = random.Random(seed)
        for _ in range(200):
            fields = (
                rng.choice(["r", "s", "advisedBy", "r10", "r2"]),
                rng.randrange(4),
                rng.choice(["a", "b", "stud", "a0"]),
            )
            yield AttributeRef(*fields), _DataclassAttributeRef(*fields), fields

    def test_hash_is_the_field_tuples(self):
        for ref, old, fields in self._pairs(1):
            assert hash(ref) == hash(fields) == hash(old)

    def test_sorting_follows_relation_position_name(self):
        pairs = list(self._pairs(2))
        refs = sorted(ref for ref, _, _ in pairs)
        assert refs == sorted(refs, key=lambda a: (a.relation, a.position, a.name))
        olds = sorted(old for _, old, _ in pairs)
        assert [(r.relation, r.position, r.name) for r in refs] == [
            (o.relation, o.position, o.name) for o in olds
        ]

    def test_str_and_repr_match_the_dataclass(self):
        for ref, old, _ in self._pairs(3):
            assert str(ref) == str(old)
            assert repr(ref) == repr(old).replace("_DataclassAttributeRef", "AttributeRef")


class TestIndexAndRoundTrip:
    def test_dump_then_load_is_identity(self, tmp_path):
        rng = random.Random(13)
        for i in range(10):
            db = random_db(rng)
            out = tmp_path / f"round{i}"
            dump_database(db, out)
            again = load_database(out / "schema.txt", out / "facts")
            assert again == db

    def test_writers_emit_only_what_the_readers_return_unchanged(
        self, tmp_path, monkeypatch
    ):
        def round_trip(value, dump, load, path) -> bool:
            try:
                dump(value, path)
            except ValidationError:
                # written unchecked, the readers refuse it or change it
                with monkeypatch.context() as m:
                    m.setattr(relstore, "_check_dumpable", lambda *args: None)
                    dump(value, path)
                try:
                    assert load(path) != value
                except (LoadError, ValidationError):
                    pass
                return False
            assert load(path) == value
            return True

        rng = random.Random(71)
        kept = {"database": 0, "examples": 0}
        for i in range(200):
            db = random_string_db(rng)
            kept["database"] += round_trip(
                db,
                dump_database,
                lambda out: load_database(out / "schema.txt", out / "facts"),
                tmp_path / f"db{i}",
            )
            ex = random_string_examples(rng)
            kept["examples"] += round_trip(
                ex,
                dump_examples,
                lambda f: load_examples(f, ex.target),
                tmp_path / f"ex{i}.txt",
            )
        # both outcomes occur often for both writers
        assert all(40 <= count <= 160 for count in kept.values())

    def test_writers_reject_values_named_in_the_format(self, tmp_path):
        schema = RelationSchema("r", ("a", "b"))
        for bad in ("x,y", " p", "p ", "p\nq", "p\r", ""):
            db = DatabaseInstance((schema,), {"r": (("ok", bad),)})
            with pytest.raises(ValidationError):
                dump_database(db, tmp_path / "db")
        target = RelationSchema("t", ("a",))
        for bad in ("f(x)", "(", "x)", "x,y", " p", "p\n"):
            with pytest.raises(ValidationError):
                dump_examples(ExampleSet(target, ((bad,),), ()), tmp_path / "ex.txt")
        # parentheses and inner blanks are fine in facts
        db = DatabaseInstance((schema,), {"r": (("f(x)", "a b"),)})
        dump_database(db, tmp_path / "db")
        assert load_database(tmp_path / "db" / "schema.txt", tmp_path / "db" / "facts") == db

    def test_register_target_backs_relation_with_positives(self):
        db = fixtures.small_database()
        ex = fixtures.small_examples()
        registered = register_target(db, ex)
        assert set(registered.relation_rows("advisedBy")) == set(ex.positives)

    def test_with_relation_equals_a_rebuild(self):
        rng = random.Random(43)
        for _ in range(200):
            db = random_db(rng, max_relations=4)
            replaced = rng.choice(db.schemas + (RelationSchema("new", ("a", "b")),))
            tuples = [
                tuple(rng.choice("xyz") for _ in range(replaced.arity))
                for _ in range(rng.randint(0, 6))
            ]
            got = db.with_relation(replaced, tuples)
            schemas = tuple(s for s in db.schemas if s != replaced) + (replaced,)
            rows = {s.name: db.rows[s.name] for s in schemas[:-1]}
            assert got == DatabaseInstance.build(schemas, {**rows, replaced.name: tuples})
            assert list(got.rows) == [s.name for s in schemas]
            assert all(got.rows[name] is kept for name, kept in rows.items())
        schema = fixtures.small_database().schemas[0]
        for bad in ([("x",) * (schema.arity + 1)], [("",) * schema.arity]):
            with pytest.raises(ValidationError):
                fixtures.small_database().with_relation(schema, bad)

    def test_matching_rows_filters_relation_rows(self):
        rng = random.Random(47)
        for _ in range(200):
            db = random_db(rng, max_arity=3)
            schema = rng.choice(db.schemas)
            positions = rng.sample(range(schema.arity), rng.randint(0, schema.arity))
            bound = {p: f"c{rng.randrange(8)}" for p in positions}
            expected = tuple(
                row
                for row in db.relation_rows(schema.name)
                if all(row[p] == v for p, v in bound.items())
            )
            assert db.matching_rows(schema.name, bound) == expected

    def test_indexes_agree_under_concurrent_first_reads(self):
        # the indexes are built on first use, with no lock from Python 3.12
        # on: threads that race to build them must all read the stored rows
        rng = random.Random(53)
        errors: list[AssertionError] = []

        def read(db):
            try:
                for schema in db.schemas:
                    rows = db.relation_rows(schema.name)
                    assert db.fact_set(schema.name) == frozenset(rows)
                    for row in rows:
                        assert row in db.matching_rows(schema.name, {0: row[0]})
            except AssertionError as exc:
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                db = random_db(rng, max_arity=3, max_tuples=200)
                threads = [threading.Thread(target=read, args=(db,)) for _ in range(8)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=10)
                assert not any(t.is_alive() for t in threads)
        finally:
            sys.setswitchinterval(interval)
        assert errors == []

    def test_examples_round_trip(self, tmp_path):
        ex = fixtures.small_examples()
        f = tmp_path / "ex.txt"
        dump_examples(ex, f)
        again = load_examples(f, ex.target)
        assert again == ex

    def test_build_rejects_mismatched_tuple(self):
        with pytest.raises(ValidationError, match="arity"):
            DatabaseInstance.build(
                (RelationSchema("r", ("a", "b")),), {"r": [("x",)]}
            )

    def test_build_rejects_empty_value(self):
        with pytest.raises(ValidationError, match="empty value"):
            DatabaseInstance.build(
                (RelationSchema("r", ("a", "b")),), {"r": [("x", "y"), ("x", "")]}
            )


class TestRowOrder:
    """Rows come out deduplicated and sorted whatever order they go in."""

    @staticmethod
    def _inputs(rng, arity):
        rows = sorted(
            {tuple(f"c{rng.randrange(12)}" for _ in range(arity)) for _ in range(40)}
        )
        shuffled = rows[:]
        rng.shuffle(shuffled)
        duplicated = rows + rng.sample(rows, len(rows) // 2) + rows[:3]
        rng.shuffle(duplicated)
        return {
            "sorted": rows,
            "reverse-sorted": rows[::-1],
            "shuffled": shuffled,
            "duplicated": duplicated,
            "sorted-with-repeats": sorted(duplicated),
        }

    def test_validated_rows_and_build_equal_sorted_set(self):
        rng = random.Random(59)
        for arity in (1, 2, 3):
            schema = RelationSchema("r", tuple(f"a{j}" for j in range(arity)))
            for kind, rows in self._inputs(rng, arity).items():
                expected = tuple(sorted(set(map(tuple, rows))))
                for given in (
                    lambda: [list(row) for row in rows],
                    lambda: (list(row) for row in rows),
                ):
                    assert relstore._validated_rows(schema, given()) == expected, kind
                    db = DatabaseInstance.build((schema,), {"r": given()})
                    assert db.rows["r"] == expected, kind

    def test_load_of_a_scrambled_file_equals_the_load_of_its_dump(self, tmp_path):
        rng = random.Random(61)
        for i in range(20):
            drawn = random_db(rng, max_relations=4, max_arity=3, max_tuples=60)
            # declared out of name order, so relation order is checked too
            schemas = drawn.schemas[::-1]
            db = DatabaseInstance.build(schemas, drawn.rows)
            canonical = tmp_path / f"canonical{i}"
            dump_database(db, canonical)
            scrambled = tmp_path / f"scrambled{i}"
            (scrambled / "facts").mkdir(parents=True)
            (scrambled / "schema.txt").write_text(
                (canonical / "schema.txt").read_text(encoding="utf-8"), encoding="utf-8"
            )
            for schema in schemas:
                rows = list(db.rows[schema.name])
                lines = [",".join(row) for row in rows + rng.sample(rows, len(rows) // 2)]
                lines += ["", "   "]
                rng.shuffle(lines)
                lines = [
                    " , ".join(line.split(",")) + "\t" if rng.random() < 0.3 else line
                    for line in lines
                ]
                text = ",".join(schema.attributes) + "\n" + "\n".join(lines) + "\n"
                _write(scrambled / "facts" / f"{schema.name}.csv", text)
            want = load_database(canonical / "schema.txt", canonical / "facts")
            got = load_database(scrambled / "schema.txt", scrambled / "facts")
            assert want == db
            assert got.schemas == want.schemas
            assert list(got.rows) == list(want.rows) == [s.name for s in schemas]
            assert got.rows == want.rows
