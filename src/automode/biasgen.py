"""Automatic language-bias induction from discovered inclusion dependencies.

Types are assigned on a directed graph whose nodes are the schema's
attributes and whose edges are the surviving unary INDs (contained column
-> containing column), in two plain passes. First, Kosaraju's algorithm
labels the strongly connected components, each named by its least
attribute. A fresh type is minted at every sink component (no edge leaves
it) and then at every other component of more than one attribute, each
group in order of least attribute. Second, each type walks back against
the edges from the attributes it was minted at. It may cross at most one
approximate edge on the way: containment errors compound, so a type that
arrived over an approximate edge is never carried over another one. An
attribute that no type reaches under that rule gets a fresh type of its
own, in schema order, which walks back the same way.

Mode definitions let any attribute be a variable but force one argument of
every body atom to be an already-bound variable, and allow constants only
on low-cardinality columns. `conforms` checks a clause against a bias:
each body literal against some mode, read left to right, and its types by
the embedding search of subsumption, `clauses._embed`, which maps each
literal onto one of its relation's predicate declarations.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import combinations, product
from typing import NamedTuple

from .clauses import Clause, Literal, Term, _embed
from .errors import ConfigError, LoadError, ValidationError
from .profiler import IndSet, dedupe_bidirectional, discover_inds
from .relstore import AttributeRef, DatabaseInstance, RelationSchema

# whitespace may surround each item, but not split one; no item is empty
_ITEM = r"\s*[^\s(),]+\s*"
_DECL_RE = re.compile(rf"^([A-Za-z_][A-Za-z0-9_]*)\s*\(({_ITEM}(?:,{_ITEM})*)\)$")


class PredicateDecl(NamedTuple):
    relation: str
    types: tuple[str, ...]

    def __str__(self) -> str:
        return f"{self.relation}({','.join(self.types)})"


class _ModeFields(NamedTuple):
    relation: str
    symbols: tuple[str, ...]


class ModeDecl(_ModeFields):
    """A mode: one symbol per argument, '+' an input variable, '-' an
    output variable, '#' a constant.

    A named tuple, like `PredicateDecl`, so hashing, equality and ordering
    run in C; a `BiasSpec` is hashed in every cache key that holds it. A
    named tuple equals any tuple of the same fields, so no set or dict
    holds modes beside predicate declarations. The validating `__new__`
    sits on this subclass, as `NamedTuple` refuses one of its own."""

    __slots__ = ()

    def __new__(cls, relation: str, symbols: tuple[str, ...]) -> "ModeDecl":
        bad = set(symbols) - {"+", "-", "#"}
        if bad:
            raise ValidationError(f"invalid mode symbols {sorted(bad)}")
        return super().__new__(cls, relation, symbols)

    def __str__(self) -> str:
        return f"{self.relation}({','.join(self.symbols)})"


@dataclass(frozen=True)
class BiasSpec:
    """Predicate and mode definitions driving clause construction.

    Body modes keep their declared order: during bottom-clause construction
    the first mode a tuple satisfies is the one applied.
    """

    predicates: tuple[PredicateDecl, ...]
    modes: tuple[ModeDecl, ...]
    head_mode: ModeDecl

    def __post_init__(self) -> None:
        if set(self.head_mode.symbols) != {"+"}:
            raise ValidationError("the head mode must be all '+'")
        declared = {d.relation for d in self.predicates}
        for mode in (self.head_mode, *self.modes):
            if mode.relation not in declared:
                raise ValidationError(
                    f"mode {mode} has no predicate declaration"
                )
        for mode in self.modes:
            if "+" not in mode.symbols:
                raise ValidationError(f"body mode {mode} needs at least one '+'")
            # definitions are non-recursive: a body literal on the target
            # would read the positives registered as its facts
            if mode.relation == self.head_mode.relation:
                raise ValidationError(
                    f"body mode {mode} is on the target relation"
                )
        if len(set(self.predicates)) != len(self.predicates):
            raise ValidationError("duplicate predicate declaration")
        if len(set(self.modes)) != len(self.modes):
            raise ValidationError("duplicate mode declaration")

    def modes_for(self, relation: str) -> tuple[ModeDecl, ...]:
        return tuple(m for m in self.modes if m.relation == relation)

    def declarations_for(self, relation: str) -> tuple[PredicateDecl, ...]:
        return tuple(d for d in self.predicates if d.relation == relation)


@dataclass(frozen=True)
class TypeGraph:
    """The attributes, the surviving INDs between them, and the types
    placed on each attribute.

    `assignments[node][token]` is True when the token reached the node
    only across an approximate edge, and False when it was minted there or
    reached it over exact edges alone. `origins[token]` holds the nodes the
    token was minted at; the test oracles re-derive placement from it."""

    nodes: tuple[AttributeRef, ...]
    edges: tuple[tuple[AttributeRef, AttributeRef, float], ...]
    assignments: dict[AttributeRef, dict[str, bool]]  # token -> crossed an approx edge
    origins: dict[str, tuple[AttributeRef, ...]]  # token -> nodes it was minted at

    def types(self, node: AttributeRef) -> frozenset[str]:
        return frozenset(self.assignments[node])


def build_type_graph(
    schemas: tuple[RelationSchema, ...], ind_set: IndSet
) -> TypeGraph:
    nodes = tuple(a for s in schemas for a in s.attribute_refs())
    edges = tuple(
        sorted((i.lhs, i.rhs, i.error) for i in ind_set.inds)
    )
    succ: dict[AttributeRef, list[AttributeRef]] = {n: [] for n in nodes}
    into: dict[AttributeRef, list[tuple[AttributeRef, bool]]] = {n: [] for n in nodes}
    for src, dst, error in edges:
        if src not in succ or dst not in succ:
            raise ValidationError(f"IND attribute missing from schema: {src} or {dst}")
        succ[src].append(dst)
        into[dst].append((src, error > 0))

    components = _components(nodes, succ, into)
    least = {n: c[0] for c in components for n in c}
    leaving = {least[src] for src, dst, _ in edges if least[src] != least[dst]}
    # sorted tuples compare by their distinct least nodes first
    minted = sorted(c for c in components if c[0] not in leaving)
    minted += sorted(c for c in components if c[0] in leaving and len(c) > 1)

    assignments: dict[AttributeRef, dict[str, bool]] = {n: {} for n in nodes}
    origins: dict[str, tuple[AttributeRef, ...]] = {}
    for members in minted:
        _place(members, into, assignments, origins)
    for n in [n for n in nodes if not assignments[n]]:
        _place((n,), into, assignments, origins)
    return TypeGraph(nodes, edges, assignments, origins)


def _components(
    nodes: tuple[AttributeRef, ...],
    succ: dict[AttributeRef, list[AttributeRef]],
    into: dict[AttributeRef, list[tuple[AttributeRef, bool]]],
) -> list[tuple[AttributeRef, ...]]:
    """Kosaraju's strongly connected components, each sorted. Both passes
    keep explicit stacks, so no graph is too deep for them."""
    finished: list[AttributeRef] = []  # post-order of a DFS along the edges
    seen: set[AttributeRef] = set()
    for root in nodes:
        if root in seen:
            continue
        seen.add(root)
        path = [(root, iter(succ[root]))]
        while path:
            node, pending = path[-1]
            for nxt in pending:
                if nxt not in seen:
                    seen.add(nxt)
                    path.append((nxt, iter(succ[nxt])))
                    break
            else:
                path.pop()
                finished.append(node)
    # flooding against the edges, latest-finished first, stays inside one
    # component: every component it could enter was flooded before. The
    # DFS left every node in `seen`; a flood takes out each node it reaches
    components: list[tuple[AttributeRef, ...]] = []
    for root in reversed(finished):
        if root not in seen:
            continue
        seen.discard(root)
        members = [root]
        for node in members:
            for src, _ in into[node]:
                if src in seen:
                    seen.discard(src)
                    members.append(src)
        components.append(tuple(sorted(members)))
    return components


def _place(
    members: tuple[AttributeRef, ...],
    into: dict[AttributeRef, list[tuple[AttributeRef, bool]]],
    assignments: dict[AttributeRef, dict[str, bool]],
    origins: dict[str, tuple[AttributeRef, ...]],
) -> None:
    """Mint the next token at `members` and walk it back against the edges.

    A token is flagged once it crosses an approximate edge and is never
    carried over a second one; an unflagged arrival replaces a flagged one
    and walks on, so each node is expanded at most twice."""
    token = f"T{len(origins) + 1}"
    origins[token] = members
    stack = [(n, False) for n in members]
    while stack:
        node, crossed = stack.pop()
        held = assignments[node].get(token)
        if held is False or (held and crossed):
            continue
        assignments[node][token] = crossed
        for src, approx in into[node]:
            if not (crossed and approx):
                stack.append((src, crossed or approx))


def generate_predicates(graph: TypeGraph) -> tuple[PredicateDecl, ...]:
    """One declaration per element of the per-relation Cartesian product of
    attribute type sets."""
    by_relation: dict[str, list[frozenset[str]]] = {}
    for node in graph.nodes:
        by_relation.setdefault(node.relation, []).append(graph.types(node))
    decls: list[PredicateDecl] = []
    for relation, type_sets in by_relation.items():
        for combo in product(*(sorted(s) for s in type_sets)):
            decls.append(PredicateDecl(relation, tuple(combo)))
    return tuple(sorted(decls))


def generate_modes(
    db: DatabaseInstance, threshold: int, target: str
) -> tuple[ModeDecl, tuple[ModeDecl, ...]]:
    """Head mode (all '+') plus body modes for every non-target relation.

    Base modes place one '+' per position; constant-eligible attributes
    (fewer than `threshold` distinct values, and nonempty) additionally
    yield one mode per nonempty eligible subset and '+' position outside
    it. Base modes come first so constants are only used where no
    variable-only mode applies.
    """
    if threshold < 1:
        raise ConfigError("constant threshold must be >= 1")
    target_schema = db.schema(target)
    head = ModeDecl(target, ("+",) * target_schema.arity)
    body: list[ModeDecl] = []
    for schema in db.schemas:
        if schema.name == target:
            continue
        n = schema.arity
        for plus in range(n):
            symbols = tuple("+" if i == plus else "-" for i in range(n))
            body.append(ModeDecl(schema.name, symbols))
        rows = db.relation_rows(schema.name)
        eligible = [i for i in range(n) if _few_distinct(rows, i, threshold)]
        for size in range(1, len(eligible) + 1):
            for subset in combinations(eligible, size):
                for plus in range(n):
                    if plus in subset:
                        continue
                    symbols = tuple(
                        "#" if i in subset else ("+" if i == plus else "-")
                        for i in range(n)
                    )
                    body.append(ModeDecl(schema.name, symbols))
    return head, tuple(body)


def _few_distinct(rows, position: int, threshold: int) -> bool:
    """True iff the column holds at least one and fewer than `threshold`
    distinct values; reading stops at the `threshold`-th distinct value."""
    seen: set[str] = set()
    for row in rows:
        seen.add(row[position])
        if len(seen) >= threshold:
            return False
    return bool(seen)


def induce_bias(
    db: DatabaseInstance,
    target: str,
    alpha: float = 0.5,
    constant_threshold: int = 5,
) -> BiasSpec:
    """Profile the database and emit the full language bias for `target`.

    The target relation must already be registered (its rows are the
    positive examples) so its attributes take part in type discovery.
    """
    if not db.has_relation(target):
        raise ValidationError(f"target relation not registered: {target}")
    # first: it rejects a bad threshold before the costlier profiling
    head, body = generate_modes(db, constant_threshold, target)
    inds = dedupe_bidirectional(discover_inds(db, alpha))
    graph = build_type_graph(db.schemas, inds)
    predicates = generate_predicates(graph)
    return BiasSpec(predicates, body, head)


def check_bias_fits(bias: BiasSpec, db: DatabaseInstance) -> None:
    """Raise ValidationError on a predicate or mode declaration whose
    relation the database lacks or whose arity differs from the relation's.

    A hand-written bias is read without the database; a declaration that
    fits no relation would otherwise match no fact and go unused."""
    declared = [(d, d.types) for d in bias.predicates]
    declared += [(m, m.symbols) for m in (bias.head_mode, *bias.modes)]
    for decl, items in declared:
        if not db.has_relation(decl.relation):
            raise ValidationError(
                f"bias declaration {decl}: relation {decl.relation} "
                "is not in the database"
            )
        arity = db.schema(decl.relation).arity
        if len(items) != arity:
            raise ValidationError(
                f"bias declaration {decl}: relation {decl.relation} "
                f"has arity {arity}"
            )


# -- bias file format --------------------------------------------------------
#
#   PREDICATES:
#   student(T1)
#   ...
#   MODES:
#   advisedBy(+,+)      <- head mode, always first
#   student(+)
#   ...


def write_bias(bias: BiasSpec) -> str:
    lines = ["PREDICATES:"]
    lines += [str(d) for d in bias.predicates]
    lines.append("MODES:")
    lines.append(str(bias.head_mode))
    lines += [str(m) for m in bias.modes]
    return "\n".join(lines) + "\n"


def read_bias(text: str) -> BiasSpec:
    section = None
    predicates: list[PredicateDecl] = []
    modes: list[ModeDecl] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line == "PREDICATES:":
            section = "predicates"
            continue
        if line == "MODES:":
            section = "modes"
            continue
        m = _DECL_RE.match(line)
        if not m or section is None:
            raise LoadError(f"bias line {lineno}: cannot parse {raw!r}")
        relation, items = m.group(1), tuple(map(str.strip, m.group(2).split(",")))
        if section == "predicates":
            predicates.append(PredicateDecl(relation, items))
        else:
            modes.append(ModeDecl(relation, items))
    if not modes:
        raise LoadError("bias file declares no modes")
    head, body = modes[0], tuple(modes[1:])
    return BiasSpec(tuple(predicates), body, head)


# -- bias conformance --------------------------------------------------------


def conforms(clause: Clause, bias: "BiasSpec") -> bool:
    """True iff every body literal satisfies some mode (reading left to
    right) and all variable occurrences admit one consistent type under some
    choice of predicate declaration per literal."""
    seen_vars = set(clause.head.variables())
    for lit in clause.body:
        modes = bias.modes_for(lit.relation)
        if not modes:
            return False
        if not any(_mode_matches(lit, m.symbols, seen_vars) for m in modes):
            return False
        seen_vars.update(lit.variables())
    return _type_licensed(clause, bias)


def _mode_matches(lit: Literal, symbols: tuple[str, ...], seen: set[Term]) -> bool:
    if len(symbols) != len(lit.args):
        return False
    for arg, sym in zip(lit.args, symbols):
        if sym == "+":
            if arg not in seen:
                return False
        elif sym == "-":
            if type(arg) is not Term:
                return False
        else:  # '#'
            if type(arg) is Term:
                return False
    return True


def _type_licensed(clause: Clause, bias: "BiasSpec") -> bool:
    """True when one declaration of its arity per literal types each
    variable once: `_embed` maps the head and body onto declarations read
    as literals over type tokens. Constants take no type; `_embed` reads a
    literal's repeated variable once, so no candidate types it twice."""
    literals = [clause.head, *clause.body]
    candidates = []
    for lit in literals:
        typed = []
        for decl in bias.declarations_for(lit.relation):
            types: dict[Term, str] = {}
            if len(decl.types) == len(lit.args) and all(
                types.setdefault(a, token) == token
                for a, token in zip(lit.args, decl.types)
                if type(a) is Term
            ):
                typed.append(Literal(decl.relation, decl.types))
        candidates.append(typed)
    return _embed(literals, candidates, {}) is not None
