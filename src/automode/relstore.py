"""Loading, validation, and indexing of relational data and training examples.

Databases are plain files: a schema listing (`name(attr1,attr2,...)`, one per
line) plus one CSV per relation. All values are opaque, case-sensitive
strings; there are no NULLs and duplicate rows collapse to one.

Each row is checked once for its arity and for empty values: the facts
reader checks the rows of a file and names the line of a bad one, and
`DatabaseInstance.build` and `with_relation` check the rows their callers
hand them.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
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
    `rows`, built on first use: `_fact_sets` behind `fact_set` and
    `_pos_index` behind `matching_rows`. Instances are safe for concurrent
    reads.
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

    @cached_property
    def _fact_sets(self) -> dict[str, frozenset[tuple[str, ...]]]:
        return {name: frozenset(rows) for name, rows in self.rows.items()}

    @cached_property
    def _pos_index(self) -> dict[tuple[str, int, str], tuple[tuple[str, ...], ...]]:
        index: dict[tuple[str, int, str], list[tuple[str, ...]]] = {}
        for name, rows in self.rows.items():
            for row in rows:
                for pos, value in enumerate(row):
                    index.setdefault((name, pos, value), []).append(row)
        return {k: tuple(v) for k, v in index.items()}

    def fact_set(self, relation: str) -> frozenset[tuple[str, ...]]:
        """Rows of `relation` as a set, for O(1) membership tests."""
        if relation not in self.rows:
            raise ValidationError(f"unknown relation: {relation}")
        return self._fact_sets[relation]

    def matching_rows(
        self, relation: str, bound: dict[int, str]
    ) -> tuple[tuple[str, ...], ...]:
        """Rows of `relation` agreeing with fixed values at `bound` positions."""
        rows = self.relation_rows(relation)
        if not bound:
            return rows
        index = self._pos_index
        if len(bound) == 1:
            ((pos, val),) = bound.items()
            return index.get((relation, pos, val), ())
        # narrowest indexed set first, then filter the rest
        best = None
        for p, v in bound.items():
            cand = index.get((relation, p, v), ())
            if best is None or len(cand) < len(best):
                best, pos = cand, p
        return tuple(
            row
            for row in (best or ())
            if all(row[p] == v for p, v in bound.items() if p != pos)
        )

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
    """`raw` deduplicated and sorted, unchecked.

    The dedupe keeps input order, so a file already written sorted (as
    `dump_database` writes it) reaches the sort as one ascending run, which
    Timsort merges in a single linear pass; a set would hand it the rows in
    hash order."""
    return tuple(sorted(dict.fromkeys(map(tuple, raw))))


def _validated_rows(
    schema: RelationSchema, raw: object
) -> tuple[tuple[str, ...], ...]:
    """`raw` deduplicated and sorted; raises on a wrong arity or an empty value."""
    rows = _sorted_rows(raw)
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
        for ex in self.positives + self.negatives:
            if len(ex) != self.target.arity:
                raise ValidationError(
                    f"example {ex!r} does not match arity of {self.target.name}"
                )


# -- loading ------------------------------------------------------------


def read_input(path: Path, what: str) -> str:
    """The text of the UTF-8 input file `path`; `what` names the file in
    the `LoadError` raised when it is missing, a directory or unreadable."""
    try:
        return path.read_text(encoding="utf-8")
    except (FileNotFoundError, IsADirectoryError):
        raise LoadError(f"{what} not found: {path}") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise LoadError(f"cannot read {what} {path}: {exc}") from exc


def load_schema(schema_file: Path | str) -> tuple[RelationSchema, ...]:
    """Parse a schema file: one `name(a,b,...)` per line, `#` comments."""
    path = Path(schema_file)
    schemas: list[RelationSchema] = []
    for lineno, raw in enumerate(read_input(path, "schema file").splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        m = _SCHEMA_LINE.match(line)
        if not m:
            raise LoadError(f"{path}:{lineno}: cannot parse schema line {raw!r}")
        name, attrs = m.group(1), tuple(map(str.strip, m.group(2).split(",")))
        try:
            schemas.append(RelationSchema(name, attrs))
        except ValidationError as exc:
            raise LoadError(f"{path}:{lineno}: {exc}") from exc
    if len({s.name for s in schemas}) != len(schemas):
        raise LoadError(f"{path}: duplicate relation declaration")
    return tuple(schemas)


def load_database(
    schema_file: Path | str,
    facts_dir: Path | str,
    examples_backed: tuple[str, ...] = (),
) -> DatabaseInstance:
    """Load `<facts_dir>/<relation>.csv` for every declared relation.

    Relations named in `examples_backed` may have no facts file; they load
    empty and are expected to receive their rows from training examples.
    The reader has checked every row it returns, and the schema file
    declares each relation once, so the instance is built from them
    without `DatabaseInstance.build`'s checks.
    """
    schemas = load_schema(schema_file)
    facts = Path(facts_dir)
    if not facts.is_dir():
        raise LoadError(f"facts directory not found: {facts}")
    declared = {s.name for s in schemas}
    for p in sorted(facts.glob("*.csv")):
        if p.stem not in declared:
            raise LoadError(f"facts file {p.name} has no declared relation")
    rows: dict[str, tuple[tuple[str, ...], ...]] = {}
    for schema in schemas:
        path = facts / f"{schema.name}.csv"
        if not path.is_file():
            if schema.name in examples_backed:
                rows[schema.name] = ()
                continue
            raise LoadError(f"missing facts file for relation {schema.name}: {path}")
        rows[schema.name] = _sorted_rows(_read_facts_csv(path, schema))
    return DatabaseInstance(schemas, rows)


def _read_facts_csv(path: Path, schema: RelationSchema) -> list[tuple[str, ...]]:
    """The rows of the facts file `path`, each of `schema`'s arity with no
    empty value; a `LoadError` names the line of the first that is not."""
    arity = schema.arity
    header_seen = False
    out: list[tuple[str, ...]] = []
    for lineno, line in enumerate(read_input(path, "facts file").splitlines(), 1):
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


def load_examples(examples_file: Path | str, target: RelationSchema) -> ExampleSet:
    """Parse `+ rel(a,b)` / `- rel(a,b)` lines into an ExampleSet."""
    path = Path(examples_file)
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
        if rel != target.name:
            raise LoadError(
                f"{path}:{lineno}: example relation {rel} is not the target "
                f"{target.name}"
            )
        values = tuple(v.strip() for v in args.split(","))
        if len(values) != target.arity or any(v == "" for v in values):
            raise LoadError(
                f"{path}:{lineno}: expected {target.arity} values, got {args!r}"
            )
        # a dict keeps each example once, at its first occurrence
        (positives if label == "+" else negatives)[values] = None
    try:
        return ExampleSet(target, tuple(positives), tuple(negatives))
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from exc


def example_arity(examples_file: Path, target: str) -> int:
    """The number of values in the first example of `target` in the file."""
    for raw in read_input(examples_file, "examples file").splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        m = _EXAMPLE_LINE.match(line)
        if m and m.group(2) == target:
            return len(m.group(3).split(","))
    raise LoadError(f"{examples_file}: no examples of target {target}")


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
