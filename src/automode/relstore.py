"""Loading, validation, and indexing of relational data and training examples.

Databases are plain files: a schema listing (`name(attr1,attr2,...)`, one per
line) plus a facts directory whose `*.csv` entries each name a declared
relation. All values are opaque, case-sensitive strings; there are no NULLs
and duplicate rows collapse to one.

Each row is checked once for its arity and for empty values: the facts
reader checks the rows of a file and names the line of a bad one, and
`DatabaseInstance.build` and `with_relation` check the rows their callers
hand them. The facts reader takes one of two paths per file. A file that
is ASCII with no whitespace and no line boundary but "\\n", as
`dump_database` and the bench's generator write it, needs no cell
stripped: its text is split into cells once, checked by counts and
slices of that one list, and its rows are zipped from column slices, so
no Python code runs per line. Every other file, and a file that fails a
bulk check, is read line by line, stripping each cell; either path
returns the same rows, and only the line loop raises.
"""

from __future__ import annotations

import os
import re
from contextvars import ContextVar
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

from .errors import LoadError, ValidationError

_IDENT = r"[A-Za-z_][A-Za-z0-9_]*"
# whitespace may surround each attribute name, but not split one
_ATTR = rf"\s*{_IDENT}\s*"
_SCHEMA_LINE = re.compile(rf"^({_IDENT})\s*\(({_ATTR}(?:,{_ATTR})*)\)$")
_EXAMPLE_LINE = re.compile(rf"^([+-])\s+({_IDENT})\(([^()]*)\)$")


class AttributeRef(NamedTuple):
    """One column of one relation, identified by (relation, position).

    A named tuple, so hashing, equality and ordering run in C. Its hash is
    that of the tuple (relation, position, name) and it sorts by those
    fields in that order; every set, dict and sort of IND discovery and
    bias induction is keyed by it, so their output depends on both."""

    relation: str
    position: int
    name: str

    def __str__(self) -> str:
        return f"{self.relation}[{self.name}]"


@dataclass(frozen=True)
class RelationSchema:
    name: str
    attributes: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.attributes) < 1:
            raise ValidationError(f"relation {self.name}: arity must be >= 1")
        if len(set(self.attributes)) != len(self.attributes):
            raise ValidationError(
                f"relation {self.name}: attribute names must be unique"
            )

    @property
    def arity(self) -> int:
        return len(self.attributes)

    def attribute_refs(self) -> tuple[AttributeRef, ...]:
        return tuple(
            AttributeRef(self.name, i, a) for i, a in enumerate(self.attributes)
        )


@dataclass(frozen=True)
class DatabaseInstance:
    """An immutable set of relations.

    `rows` maps each relation name to its deduplicated tuples in sorted
    order, one entry per schema. Its only other state is two lookups over
    `rows`, each filled one piece at a time as reads reach it:
    `_fact_sets` holds a relation's row set from its first `fact_set`
    read, and `_pos_index` holds, from the first `matching_rows` read of
    a column, that column's map from each value to its rows in stored
    order, keyed by (relation, position). A run builds only the pieces it
    reads. Instances are safe for concurrent reads: readers that race to
    build a piece store equal values.
    """

    schemas: tuple[RelationSchema, ...]
    rows: dict[str, tuple[tuple[str, ...], ...]]

    @staticmethod
    def build(
        schemas: tuple[RelationSchema, ...],
        tuples_by_relation: dict[str, object],
    ) -> "DatabaseInstance":
        names = [s.name for s in schemas]
        if len(set(names)) != len(names):
            raise ValidationError("duplicate relation name in schema")
        rows = {
            schema.name: _validated_rows(schema, tuples_by_relation.get(schema.name, ()))
            for schema in schemas
        }
        unknown = set(tuples_by_relation) - set(names)
        if unknown:
            raise ValidationError(f"tuples for undeclared relations: {sorted(unknown)}")
        return DatabaseInstance(tuple(schemas), rows)

    # -- lookups --------------------------------------------------------

    def schema(self, relation: str) -> RelationSchema:
        for schema in self.schemas:
            if schema.name == relation:
                return schema
        raise ValidationError(f"unknown relation: {relation}")

    def has_relation(self, relation: str) -> bool:
        return relation in self.rows

    def relation_rows(self, relation: str) -> tuple[tuple[str, ...], ...]:
        if relation not in self.rows:
            raise ValidationError(f"unknown relation: {relation}")
        return self.rows[relation]

    def total_tuples(self) -> int:
        return sum(len(r) for r in self.rows.values())

    def __post_init__(self) -> None:
        # lookups, not state: no field, so equality and repr ignore them
        object.__setattr__(self, "_fact_sets", {})
        object.__setattr__(self, "_pos_index", {})

    def fact_set(self, relation: str) -> frozenset[tuple[str, ...]]:
        """Rows of `relation` as a set, for O(1) membership tests."""
        facts = self._fact_sets.get(relation)
        if facts is None:
            facts = self._fact_sets[relation] = frozenset(self.relation_rows(relation))
        return facts

    def matching_rows(
        self, relation: str, bound: dict[int, str]
    ) -> tuple[tuple[str, ...], ...]:
        """Rows of `relation` agreeing with fixed values at `bound` positions."""
        rows = self.relation_rows(relation)
        if not bound:
            return rows
        if len(bound) == 1:
            ((pos, val),) = bound.items()
            return self._column(relation, pos).get(val, ())
        # narrowest indexed set first, then filter the rest
        best = None
        for p, v in bound.items():
            cand = self._column(relation, p).get(v, ())
            if best is None or len(cand) < len(best):
                best, pos = cand, p
        return tuple(
            row
            for row in (best or ())
            if all(row[p] == v for p, v in bound.items() if p != pos)
        )

    def _column(self, relation: str, position: int) -> dict[str, tuple[tuple[str, ...], ...]]:
        """The map from each value at `position` of `relation` to the rows
        holding it, in stored order, built and stored on its first read; a
        position outside the relation's arity holds no value."""
        column = self._pos_index.get((relation, position))
        if column is None:
            rows = self.rows[relation]
            groups: dict[str, list[tuple[str, ...]]] = {}
            if rows and 0 <= position < len(rows[0]):
                for row in rows:
                    groups.setdefault(row[position], []).append(row)
            column = self._pos_index[(relation, position)] = {
                value: tuple(held) for value, held in groups.items()
            }
        return column

    def with_relation(
        self, schema: RelationSchema, tuples: object
    ) -> "DatabaseInstance":
        """Return a new instance with `schema` added or its rows replaced.

        `schema` moves to the end of the schema order. Only its rows are
        deduplicated, sorted and validated; the other relations share this
        instance's rows."""
        schemas = tuple(s for s in self.schemas if s.name != schema.name)
        rows = {s.name: self.rows[s.name] for s in schemas}
        rows[schema.name] = _validated_rows(schema, tuples)
        return DatabaseInstance(schemas + (schema,), rows)


def _sorted_rows(raw: object) -> tuple[tuple[str, ...], ...]:
    """The row tuples of `raw` deduplicated and sorted, unchecked.

    The dedupe keeps input order, so a file already written sorted (as
    `dump_database` writes it) reaches the sort as one ascending run, which
    Timsort merges in a single linear pass; a set would hand it the rows in
    hash order."""
    return tuple(sorted(dict.fromkeys(raw)))


def _validated_rows(
    schema: RelationSchema, raw: object
) -> tuple[tuple[str, ...], ...]:
    """`raw`'s rows as tuples, deduplicated and sorted; raises on a wrong
    arity or an empty value."""
    rows = _sorted_rows(map(tuple, raw))
    arity = schema.arity
    for row in rows:
        if len(row) != arity:
            raise ValidationError(
                f"relation {schema.name}: row {row!r} does not match "
                f"arity {arity}"
            )
        if "" in row:
            raise ValidationError(
                f"relation {schema.name}: empty value in row {row!r}"
            )
    return rows


@dataclass(frozen=True)
class ExampleSet:
    target: RelationSchema
    positives: tuple[tuple[str, ...], ...]
    negatives: tuple[tuple[str, ...], ...]

    def __post_init__(self) -> None:
        overlap = set(self.positives) & set(self.negatives)
        if overlap:
            raise ValidationError(
                f"examples labeled both + and -: {sorted(overlap)}"
            )
        arity = self.target.arity
        examples = self.positives + self.negatives
        if not all(map(arity.__eq__, map(len, examples))):
            ex = next(ex for ex in examples if len(ex) != arity)
            raise ValidationError(
                f"example {ex!r} does not match arity of {self.target.name}"
            )


# -- loading ------------------------------------------------------------


# where the CLI collects, for a command's manifest, the sha256 of each
# input's bytes by path; library reads hash nothing, as importing hashlib
# maps OpenSSL, about 4 MB of resident memory
_digests: ContextVar[dict[Path, str] | None] = ContextVar("_digests", default=None)


def read_input(path: Path, what: str) -> str:
    """The text of the UTF-8 input file `path`, read as bytes and decoded
    once (the readers' `str.splitlines` breaks at `\\r\\n`, `\\r` and
    `\\n` alike), its digest kept in the dict `_digests` holds, if any;
    `what` names the file in the `LoadError` raised when it is missing, a
    directory or unreadable."""
    try:
        data = path.read_bytes()
        text = data.decode("utf-8")
    except (FileNotFoundError, IsADirectoryError):
        raise LoadError(f"{what} not found: {path}") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise LoadError(f"cannot read {what} {path}: {exc}") from exc
    digests = _digests.get()
    if digests is not None:
        from hashlib import sha256
        digests[path] = sha256(data).hexdigest()
    return text


def load_schema(schema_file: Path | str) -> tuple[RelationSchema, ...]:
    """Parse a schema file: one `name(a,b,...)` per line, `#` comments."""
    path = Path(schema_file)
    schemas: dict[str, RelationSchema] = {}
    for lineno, raw in enumerate(read_input(path, "schema file").splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        m = _SCHEMA_LINE.match(line)
        if not m:
            raise LoadError(f"{path}:{lineno}: cannot parse schema line {raw!r}")
        name, attrs = m.group(1), tuple(map(str.strip, m.group(2).split(",")))
        if name in schemas:
            raise LoadError(f"{path}:{lineno}: relation {name} is declared twice")
        try:
            schemas[name] = RelationSchema(name, attrs)
        except ValidationError as exc:
            raise LoadError(f"{path}:{lineno}: {exc}") from exc
    return tuple(schemas.values())


def load_database(
    schema_file: Path | str,
    facts_dir: Path | str,
    examples_backed: tuple[str, ...] = (),
) -> DatabaseInstance:
    """Load `<facts_dir>/<relation>.csv` for every declared relation.

    Every `*.csv` entry of `facts_dir` must name a declared relation, and a
    relation's file counts only if it is a regular file or a link to one.
    Relations named in `examples_backed` may have no facts file; they load
    empty and are expected to receive their rows from training examples.
    The reader has checked every row it returns, and the schema file
    declares each relation once, so the instance is built from them
    without `DatabaseInstance.build`'s checks.
    """
    schemas = load_schema(schema_file)
    facts = Path(facts_dir)
    files = facts_files(facts)
    declared = {s.name for s in schemas}
    for name in files:
        if name.removesuffix(".csv") not in declared:
            raise LoadError(f"facts file {name} has no declared relation")
    rows: dict[str, tuple[tuple[str, ...], ...]] = {}
    for schema in schemas:
        name = f"{schema.name}.csv"
        if files.get(name) is None:
            if schema.name in examples_backed:
                rows[schema.name] = ()
                continue
            raise LoadError(f"missing facts file for relation {schema.name}: {facts / name}")
        rows[schema.name] = _sorted_rows(_read_facts_csv(files[name], schema))
    return DatabaseInstance(schemas, rows)


def facts_files(facts: Path) -> dict[str, Path | None]:
    """Each `*.csv` entry of the directory `facts`, by name in sorted order
    and from one listing: its path if it is a regular file or a link to
    one, else None (a directory, or a link that leads to no file)."""
    try:
        with os.scandir(facts) as listing:
            entries = sorted((e.name, e) for e in listing if e.name.endswith(".csv"))
    except (FileNotFoundError, NotADirectoryError):
        raise LoadError(f"facts directory not found: {facts}") from None
    except OSError as exc:
        raise LoadError(f"cannot read facts directory {facts}: {exc}") from exc
    # the listing knows a regular file; a link or another kind costs one
    # stat, and one that cannot be followed is no file
    return {
        name: facts / name if e.is_file(follow_symlinks=False) or os.path.isfile(e) else None
        for name, e in entries
    }


# every ASCII character but "\n" that str.strip treats as whitespace or
# str.splitlines as a line boundary
_ASCII_BLANKS = " \t\r\x0b\x0c\x1c\x1d\x1e\x1f"


def _read_facts_csv(path: Path, schema: RelationSchema) -> list[tuple[str, ...]]:
    """The rows of the facts file `path`, each of `schema`'s arity with no
    empty value; a `LoadError` names the line of the first that is not.

    A file whose text is ASCII and holds no character of `_ASCII_BLANKS`
    has no line boundary but "\\n" and no cell that `str.strip` changes, so
    its non-empty lines split on "," are the rows the per-line loop would
    keep. `text.split()` gives those lines, and one split on "," of them
    joined gives one list in which each line's cells are followed by one
    "\\n" cell, a value no cell of the file can hold. Every line holds
    exactly `arity` cells if the list holds `arity + 1` cells per line and
    every `(arity + 1)`-th cell is a "\\n"; column k of the rows is then
    the slice from the k-th cell of the second line in steps of
    `arity + 1`. Any other file, and one that fails a check, goes through
    the per-line loop over the original text, which strips each cell and
    names the first bad line."""
    arity = schema.arity
    text = read_input(path, "facts file")
    if text.isascii() and not any(c in text for c in _ASCII_BLANKS):
        lines = text.split()
        if not lines:
            return []
        width = arity + 1
        cells = ",\n,".join(lines).split(",")
        cells.append("\n")
        if (
            len(cells) == len(lines) * width
            and cells[arity::width].count("\n") == len(lines)
            and "" not in cells
            and tuple(cells[:arity]) == schema.attributes
        ):
            return list(zip(*[cells[k + width::width] for k in range(arity)]))
    header_seen = False
    out: list[tuple[str, ...]] = []
    for lineno, line in enumerate(text.splitlines(), 1):
        cells = tuple(map(str.strip, line.split(",")))
        if cells == ("",):
            # a blank or whitespace-only line, skipped anywhere
            continue
        if not header_seen:
            if cells != schema.attributes:
                raise LoadError(
                    f"{path}:{lineno}: header does not match attributes "
                    f"{','.join(schema.attributes)}"
                )
            header_seen = True
            continue
        if len(cells) != arity:
            raise LoadError(
                f"{path}:{lineno}: relation {schema.name} expects "
                f"{arity} values, got {len(cells)}"
            )
        if "" in cells:
            raise LoadError(f"{path}:{lineno}: empty value is not allowed")
        out.append(cells)
    return out


def load_examples(examples_file: Path | str, target: RelationSchema | str) -> ExampleSet:
    """Parse `+ rel(a,b)` / `- rel(a,b)` lines into an ExampleSet.

    `target` is the target's schema, or the bare name of a target the
    database schema does not declare: its first example then fixes its
    arity, its attributes are named `a0, a1, ...`, and a file with no
    example of it is a `LoadError`. Every other line must be blank, a `#`
    comment or an example of the target of that arity."""
    path = Path(examples_file)
    name = target if isinstance(target, str) else target.name
    arity = None if isinstance(target, str) else target.arity
    positives: dict[tuple[str, ...], None] = {}
    negatives: dict[tuple[str, ...], None] = {}
    for lineno, raw in enumerate(read_input(path, "examples file").splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        m = _EXAMPLE_LINE.match(line)
        if not m:
            raise LoadError(f"{path}:{lineno}: cannot parse example line {raw!r}")
        label, rel, args = m.groups()
        if rel != name:
            raise LoadError(
                f"{path}:{lineno}: example relation {rel} is not the target "
                f"{name}"
            )
        values = tuple(map(str.strip, args.split(",")))
        if arity is None:
            arity = len(values)
        if len(values) != arity or "" in values:
            raise LoadError(
                f"{path}:{lineno}: expected {arity} values, got {args!r}"
            )
        # a dict keeps each example once, at its first occurrence
        (positives if label == "+" else negatives)[values] = None
    if arity is None:
        raise LoadError(f"{path}: no examples of target {name}")
    if isinstance(target, str):
        target = RelationSchema(name, tuple(f"a{i}" for i in range(arity)))
    try:
        return ExampleSet(target, tuple(positives), tuple(negatives))
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from exc


def register_target(db: DatabaseInstance, examples: ExampleSet) -> DatabaseInstance:
    """Back the target relation with the positive examples as its rows."""
    return db.with_relation(examples.target, examples.positives)


def all_attributes(db: DatabaseInstance) -> tuple[AttributeRef, ...]:
    return tuple(a for s in db.schemas for a in s.attribute_refs())


# -- dumping (canonical round-trip format) -------------------------------


def dump_database(db: DatabaseInstance, out_dir: Path | str) -> None:
    """Write schema.txt plus facts/<relation>.csv in canonical sorted order.

    Raises ValidationError, before writing anything, on a value that
    `load_database` would reject or read back changed."""
    for schema in db.schemas:
        for row in db.rows[schema.name]:
            _check_dumpable(row, ",", f"relation {schema.name}")
    out = Path(out_dir)
    (out / "facts").mkdir(parents=True, exist_ok=True)
    schema_lines = [f"{s.name}({','.join(s.attributes)})" for s in db.schemas]
    (out / "schema.txt").write_text("\n".join(schema_lines) + "\n", encoding="utf-8")
    for schema in db.schemas:
        lines = [",".join(schema.attributes)]
        lines += [",".join(row) for row in db.rows[schema.name]]
        (out / "facts" / f"{schema.name}.csv").write_text(
            "\n".join(lines) + "\n", encoding="utf-8"
        )


def dump_examples(examples: ExampleSet, out_file: Path | str) -> None:
    """Write `+ rel(a,b)` / `- rel(a,b)` lines.

    Raises ValidationError, before writing anything, on a value that
    `load_examples` would reject or read back changed."""
    name = examples.target.name
    for example in examples.positives + examples.negatives:
        _check_dumpable(example, ",()", f"example {name}")
    lines = [f"+ {name}({','.join(e)})" for e in examples.positives]
    lines += [f"- {name}({','.join(e)})" for e in examples.negatives]
    Path(out_file).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _check_dumpable(values: tuple[str, ...], separators: str, where: str) -> None:
    # the readers split lines (on every str.splitlines boundary), split
    # cells on the separators, strip whitespace and reject empty cells
    for value in values:
        if (
            not value
            or value != value.strip()
            or any(c in value for c in separators)
            or len(value.splitlines()) > 1
        ):
            raise ValidationError(
                f"{where}: value {value!r} cannot be written and read back"
            )
