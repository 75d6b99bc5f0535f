"""Loading, validation and indexing."""

from __future__ import annotations

import os
import random
import re
import subprocess
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

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
    facts_dir_oracle,
    random_db,
    random_examples_text,
    random_facts_csv,
    random_string_db,
    random_string_examples,
    whitespace_free,
)


@pytest.fixture
def workspace(tmp_path):
    schema = tmp_path / "schema.txt"
    facts = tmp_path / "facts"
    facts.mkdir()
    return tmp_path, schema, facts


def _write(path, text):
    path.write_text(text, encoding="utf-8")


def _facts_layout(rng, root, drawn):
    """A schema of one to three relations under `root`, some of them
    examples-backed, and `root/facts`: missing, a regular file, or a
    directory where each relation's `<name>.csv` is a file, a link to one,
    absent, a directory, a dangling or a looping link, beside undeclared
    entries drawn at random. `drawn` counts what was made."""
    root.mkdir()
    schemas = [
        RelationSchema(f"r{j}", tuple(f"a{k}" for k in range(rng.randint(1, 2))))
        for j in range(rng.randint(1, 3))
    ]
    schema_file = root / "schema.txt"
    _write(schema_file, "".join(f"{s.name}({','.join(s.attributes)})\n" for s in schemas))
    backed = tuple(s.name for s in schemas if rng.random() < 0.5)
    facts = root / "facts"
    shape = rng.random()
    if shape < 0.18:
        if shape < 0.09:
            _write(facts, "a regular file\n")
        drawn["facts a file" if shape < 0.09 else "facts missing"] += 1
        return schema_file, facts, backed
    facts.mkdir()
    for s in schemas:
        entry = facts / f"{s.name}.csv"
        text = ",".join(s.attributes) + "\n" + "".join(
            ",".join(rng.choice("xyz") for _ in s.attributes) + "\n"
            for _ in range(rng.randint(0, 3))
        )
        kind = rng.choices(
            ("file", "link", "absent", "directory", "dangling link", "looping link"),
            weights=(8, 2, 3, 3, 1, 1),
        )[0]
        if kind in ("absent", "directory"):
            kind = f"{'backed' if s.name in backed else 'unbacked'} {kind}"
        drawn[kind] += 1
        if kind == "file":
            _write(entry, text)
        elif kind == "link":
            _write(root / f"{s.name}.data", text)
            entry.symlink_to(root / f"{s.name}.data")
        elif kind.endswith("directory"):
            entry.mkdir()
        elif kind == "dangling link":
            entry.symlink_to(root / "nowhere")
        elif kind == "looping link":
            entry.symlink_to(entry.name)
    extras = {
        "undeclared file": lambda: _write(facts / "u.csv", "a\nx\n"),
        "undeclared directory": lambda: (facts / "v.csv").mkdir(),
        "undeclared dangling link": lambda: (facts / "gone.csv").symlink_to(root / "nowhere"),
        "hidden file": lambda: _write(facts / ".hidden.csv", "a\nx\n"),
        "other case": lambda: _write(facts / "X.CSV", "a\nx\n"),
        "other suffix": lambda: _write(facts / "notes.txt", "notes\n"),
    }
    for kind, make in extras.items():
        if rng.random() < 0.12:
            make()
            drawn[kind] += 1
    return schema_file, facts, backed


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

    def test_duplicate_relation_names_its_second_line(self, workspace):
        _, schema, _ = workspace
        _write(schema, "r(a)\n# s\ns(b)\nr(c,d)\n")
        with pytest.raises(LoadError) as got:
            load_schema(schema)
        assert str(got.value) == f"{schema}:4: relation r is declared twice"

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


class TestReadInput:
    # bytes decoded once must give text mode's lines and its decode errors
    @pytest.mark.parametrize(
        "data",
        [
            b"a\r\nb\rc\n\r\n\nd",
            "\u00e9\r\u2028x\x1c".encode(),
            b"ok\n\xff\n",
            b"abc\xe2\x82",
            b"\xc3(",
        ],
    )
    def test_lines_and_errors_match_text_mode(self, tmp_path, data):
        path = tmp_path / "in.txt"
        path.write_bytes(data)
        try:
            expected = path.read_text(encoding="utf-8").splitlines()
        except UnicodeDecodeError as exc:
            with pytest.raises(LoadError) as got:
                relstore.read_input(path, "facts file")
            assert str(got.value) == f"cannot read facts file {path}: {exc}"
            return
        assert relstore.read_input(path, "facts file").splitlines() == expected

    def test_library_loads_import_no_hashlib(self, tmp_path):
        # only the CLI asks for digests: importing hashlib maps OpenSSL,
        # about 4 MB of resident memory in every process that loads data
        paths = fixtures.materialize_small(tmp_path / "data")
        code = (
            "import sys\n"
            "from automode import relstore\n"
            f"db = relstore.load_database({str(paths['schema'])!r}, {str(paths['facts'])!r},"
            " examples_backed=('advisedBy',))\n"
            f"relstore.load_examples({str(paths['examples'])!r}, db.schema('advisedBy'))\n"
            "assert relstore._digests.get() is None\n"
            "assert 'hashlib' not in sys.modules, 'hashlib imported'\n"
        )
        # the package these tests import, not an installed copy
        env = {**os.environ, "PYTHONPATH": str(Path(relstore.__file__).parents[1])}
        subprocess.run([sys.executable, "-c", code], check=True, env=env)


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

    def test_listing_agrees_with_path_tests_on_random_layouts(self, tmp_path):
        # the directory is listed once; every outcome must be the one the
        # is_dir / glob / is_file rules give, message for message, and the
        # facts files a manifest hashes must be the glob's regular files
        rng = random.Random(61)
        outcomes = {"loaded": 0, "not found": 0, "undeclared": 0, "missing": 0}
        drawn = Counter()
        for i in range(300):
            schema_file, facts, backed = _facts_layout(rng, tmp_path / f"db{i}", drawn)
            try:
                expected = facts_dir_oracle(schema_file, facts, backed)
            except LoadError as exc:
                with pytest.raises(LoadError) as got:
                    load_database(schema_file, facts, backed)
                message = str(exc)
                assert str(got.value) == message
                outcomes[
                    "not found" if "directory not found" in message
                    else "undeclared" if "no declared relation" in message
                    else "missing"
                ] += 1
                continue
            assert load_database(schema_file, facts, backed) == expected
            hashed = [p for p in relstore.facts_files(facts).values() if p]
            assert hashed == [p for p in sorted(facts.glob("*.csv")) if p.is_file()]
            outcomes["loaded"] += 1
        assert min(outcomes.values()) >= 20, outcomes
        assert len(drawn) == 16 and min(drawn.values()) >= 20, drawn

    def test_unlistable_facts_directory_is_load_error(self, workspace, monkeypatch):
        _, schema, facts = workspace
        _write(schema, "student(stud)\n")
        _write(facts / "student.csv", "stud\nalice\n")

        def refuse(path):
            raise PermissionError(13, "Permission denied", str(path))

        monkeypatch.setattr(relstore.os, "scandir", refuse)
        with pytest.raises(LoadError, match=f"cannot read facts directory {re.escape(str(facts))}"):
            load_database(schema, facts)

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
        # counted over all draws and over the whitespace-free ones alone,
        # which the reader may split and check in bulk
        rng = random.Random(53)
        kinds = ("loaded", "header", "arity", "empty")
        outcomes = {"all": dict.fromkeys(kinds, 0), "whitespace-free": dict.fromkeys(kinds, 0)}
        for i in range(800):
            schema = RelationSchema("r", tuple(f"a{j}" for j in range(rng.randint(1, 3))))
            path = tmp_path / f"r{i}.csv"
            text = random_facts_csv(rng, schema)
            path.write_bytes(text.encode("utf-8"))
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
            else:
                assert relstore._read_facts_csv(path, schema) == expected
                kind = "loaded"
            outcomes["all"][kind] += 1
            if whitespace_free(text):
                outcomes["whitespace-free"][kind] += 1
        assert all(
            count >= 30 for counts in outcomes.values() for count in counts.values()
        ), outcomes

    def test_only_files_that_may_need_stripping_take_the_line_loop(
        self, tmp_path, monkeypatch
    ):
        # the per-line loop is the reader's one `splitlines` call
        calls = []

        class Recording(str):
            def splitlines(self, *args, **kwargs):
                calls.append(True)
                return super().splitlines(*args, **kwargs)

        original = relstore.read_input
        monkeypatch.setattr(relstore, "read_input", lambda p, what: Recording(original(p, what)))

        def read(text, schema):
            """The oracle's rows or message for `text`, which the reader
            must match, and whether the reader took the per-line loop."""
            path = tmp_path / "r.csv"
            path.write_bytes(text.encode("utf-8"))
            try:
                expected = facts_csv_oracle(path, schema)
            except LoadError as exc:
                expected = str(exc)
            calls.clear()
            try:
                got = relstore._read_facts_csv(path, schema)
            except LoadError as exc:
                got = str(exc)
            assert got == expected, text
            return expected, bool(calls)

        rng = random.Random(67)
        bulk = 0
        for _ in range(300):
            schema = RelationSchema("r", tuple(f"a{j}" for j in range(rng.randint(1, 3))))
            text = random_facts_csv(rng, schema)
            if whitespace_free(text):
                expected, line_loop = read(text, schema)
                if isinstance(expected, list):
                    assert not line_loop, text
                    bulk += 1
        assert bulk >= 30
        schema = RelationSchema("r", ("a0", "a1"))
        base = "a0,a1\nx,y1\nz,x\n"
        # every ASCII character but "\n" that str.strip removes or
        # str.splitlines breaks at, and some non-ASCII ones
        for c in " \t\r\x0b\x0c\x1c\x1d\x1e\x1f\x85\u2028\u3000\u00e9":
            if len(f"a{c}a".splitlines()) > 1:
                clean = [base.replace("\n", c, 1), base[:-1] + c]
            elif c.isspace():
                clean = [base.replace("x", f"{c}x", 1), base.replace("y1", f"y1{c}")]
            else:
                clean = [base.replace("z", f"z{c}")]
            for text in clean:
                expected, line_loop = read(text, schema)
                assert isinstance(expected, list) and len(expected) == 2, text
                assert line_loop, text
            # and at a random place in a random file, where it may also
            # split a line or a cell
            for _ in range(20):
                text = random_facts_csv(rng, schema)
                at = rng.randint(0, len(text))
                assert read(text[:at] + c + text[at:], schema)[1], (c, text)

    @pytest.fixture
    def line_loop_calls(self, monkeypatch):
        """A list that gains an entry each time the reader takes its
        per-line loop, the reader's one `splitlines` call."""
        calls = []

        class Recording(str):
            def splitlines(self, *args, **kwargs):
                calls.append(True)
                return super().splitlines(*args, **kwargs)

        original = relstore.read_input
        monkeypatch.setattr(relstore, "read_input", lambda p, what: Recording(original(p, what)))
        return calls

    @pytest.mark.parametrize(
        "attributes, text",
        [
            # a row with an extra cell and a later row one short
            (("a0", "a1"), "a0,a1\nx,y\nx,y,z\nw\nu,v\n"),
            (("a0", "a1"), "a0,a1\nx,y,z\nu,v\nw"),
            (("a0", "a1", "a2"), "a0,a1,a2\nx,y,z,w\nu,v\n"),
            # the header's first cells match, its extra one shifts the rest
            (("a0", "a1"), "a0,a1,x\ny\n"),
            # a row of two rows' cells and one more: every line end falls
            # where a row's would, but the lines hold more cells than rows
            (("a0",), "a0\nx,y,z\n"),
            (("a0", "a1"), "a0,a1\nx,y\nx,y,z,w,v\n"),
        ],
    )
    def test_cells_shifted_between_rows_name_the_first_bad_line(
        self, tmp_path, line_loop_calls, attributes, text
    ):
        # the lines together hold a whole number of rows' cells, so a
        # count of cells alone would pass each of these files
        schema = RelationSchema("r", attributes)
        path = tmp_path / "r.csv"
        path.write_bytes(text.encode("utf-8"))
        with pytest.raises(LoadError) as expected:
            facts_csv_oracle(path, schema)
        with pytest.raises(LoadError) as got:
            relstore._read_facts_csv(path, schema)
        assert str(got.value) == str(expected.value)
        assert line_loop_calls

    @pytest.mark.parametrize(
        "attributes, text",
        [
            (("a0", "a1"), "a0,a1\nx,y\nz,x"),
            (("a0", "a1"), "\na0,a1\nx,y\nz,x\n"),
            (("a0", "a1"), "a0,a1\n\nx,y\n\n\nz,x\n\n"),
            (("a0", "a1"), "\n\na0,a1\n\n"),
            (("a0", "a1"), "a0,a1"),
            (("a0", "a1"), "\n\n"),
            (("a0",), "\na0\nx\n\ny"),
            (("a0", "a1", "a2"), "a0,a1,a2\n\nx,y,z\n\nz,y,x"),
        ],
    )
    def test_blank_lines_and_no_last_newline_stay_in_bulk(
        self, tmp_path, line_loop_calls, attributes, text
    ):
        schema = RelationSchema("r", attributes)
        path = tmp_path / "r.csv"
        path.write_bytes(text.encode("utf-8"))
        assert relstore._read_facts_csv(path, schema) == facts_csv_oracle(path, schema)
        assert not line_loop_calls

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
        # the target's attributes are those an undeclared target gets, so
        # the bare name must load what the schema loads, unless the file
        # holds no example
        rng = random.Random(59)
        outcomes = {"loaded": 0, "collapsed": 0, "conflict": 0}
        empty = 0
        for i in range(300):
            target = RelationSchema("t", tuple(f"a{j}" for j in range(rng.randint(1, 2))))
            path = tmp_path / f"ex{i}.txt"
            _write(path, random_examples_text(rng, target))
            try:
                expected = examples_oracle(path, target)
            except ValidationError as exc:
                for given in (target, "t"):
                    with pytest.raises(ValidationError) as got:
                        load_examples(path, given)
                    assert str(got.value) == str(exc)
                outcomes["conflict"] += 1
                continue
            assert load_examples(path, target) == expected
            if expected.positives or expected.negatives:
                assert load_examples(path, "t") == expected
            else:
                with pytest.raises(LoadError, match=f"^{re.escape(str(path))}: no examples of target t$"):
                    load_examples(path, "t")
                empty += 1
            outcomes["loaded"] += 1
            lines = path.read_text(encoding="utf-8").count("(")
            outcomes["collapsed"] += len(expected.positives + expected.negatives) < lines
        assert all(count >= 30 for count in outcomes.values()) and empty >= 10, (outcomes, empty)

    def test_undeclared_target_takes_the_first_examples_arity(self, tmp_path):
        f = tmp_path / "ex.txt"
        _write(f, "# c\n\n- advisedBy(a, b,c)\n+ advisedBy(d,e,f)\n")
        ex = load_examples(f, "advisedBy")
        assert ex.target == RelationSchema("advisedBy", ("a0", "a1", "a2"))
        assert ex.positives == (("d", "e", "f"),)
        assert ex.negatives == (("a", "b", "c"),)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("", "{f}: no examples of target advisedBy"),
            ("# none\n\n", "{f}: no examples of target advisedBy"),
            # a line of another relation fails on its line, as it does for
            # a declared target, before or after the first example
            ("+ other(a,b)\n", "{f}:1: example relation other is not the target advisedBy"),
            ("+ advisedBy(a,b)\n- other(a,b)\n",
             "{f}:2: example relation other is not the target advisedBy"),
            ("+ advisedBy(a,b)\n+ advisedBy(c)\n", "{f}:2: expected 2 values, got 'c'"),
            ("+ advisedBy(a,)\n", "{f}:1: expected 2 values, got 'a,'"),
            ("bogus\n+ advisedBy(a,b)\n", "{f}:1: cannot parse example line 'bogus'"),
        ],
    )
    def test_undeclared_target_errors(self, tmp_path, text, message):
        f = tmp_path / "ex.txt"
        _write(f, text)
        with pytest.raises(LoadError) as got:
            load_examples(f, "advisedBy")
        assert str(got.value) == message.format(f=f)

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

    def test_a_lookup_indexes_only_the_columns_it_reads(self):
        rng = random.Random(59)
        pairs = 0
        for _ in range(200):
            db = random_db(rng, max_arity=3)
            schema = rng.choice(db.schemas)
            rows = db.relation_rows(schema.name)
            p = rng.randrange(schema.arity)
            db.matching_rows(schema.name, {})
            assert db._pos_index == {}
            db.matching_rows(schema.name, {p: f"c{rng.randrange(8)}"})
            assert set(db._pos_index) == {(schema.name, p)}
            # each value's rows, in stored order
            assert db._pos_index[(schema.name, p)] == {
                v: tuple(row for row in rows if row[p] == v) for v in {row[p] for row in rows}
            }
            if schema.arity < 2:
                continue
            p, q = rng.sample(range(schema.arity), 2)
            fresh = DatabaseInstance(db.schemas, db.rows)
            fresh.matching_rows(schema.name, {p: "c0", q: "c1"})
            assert set(fresh._pos_index) == {(schema.name, p), (schema.name, q)}
            pairs += 1
        assert pairs >= 50
        db = fixtures.small_database()
        for outside in (-1, 1):  # student has arity 1: no value there
            assert db.matching_rows("student", {outside: "alice"}) == ()

    def test_a_fact_set_read_builds_only_its_relation(self):
        db = fixtures.small_database()
        assert db.fact_set("student") == frozenset(db.relation_rows("student"))
        assert set(db._fact_sets) == {"student"}
        assert db._pos_index == {}
        for read in (lambda: db.fact_set("nope"), lambda: db.matching_rows("nope", {0: "x"})):
            with pytest.raises(ValidationError, match="^unknown relation: nope$"):
                read()
        assert set(db._fact_sets) == {"student"}
        assert db._pos_index == {}

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

    def test_zero_arity_schema_rejected(self):
        with pytest.raises(ValidationError, match="^relation r: arity must be >= 1$"):
            RelationSchema("r", ())

    def test_build_rejects_duplicate_and_undeclared_relations(self):
        r = RelationSchema("r", ("a",))
        with pytest.raises(ValidationError, match="^duplicate relation name in schema$"):
            DatabaseInstance.build((r, RelationSchema("r", ("b",))), {})
        with pytest.raises(
            ValidationError, match=re.escape("tuples for undeclared relations: ['s']")
        ):
            DatabaseInstance.build((r,), {"r": [("x",)], "s": [("y",)]})

    def test_build_rejects_empty_value(self):
        with pytest.raises(ValidationError, match="empty value"):
            DatabaseInstance.build(
                (RelationSchema("r", ("a", "b")),), {"r": [("x", "y"), ("x", "")]}
            )

    @pytest.mark.parametrize("lookup", ["schema", "relation_rows", "fact_set"])
    def test_lookup_of_an_unknown_relation_rejected(self, lookup):
        db = fixtures.small_database()
        with pytest.raises(ValidationError, match="^unknown relation: ghost$"):
            getattr(db, lookup)("ghost")

    def test_example_set_rejects_an_example_of_another_arity(self):
        target = RelationSchema("t", ("a", "b"))
        with pytest.raises(
            ValidationError, match=re.escape("example ('x',) does not match arity of t")
        ):
            ExampleSet(target, (("x", "y"),), (("x",),))


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
