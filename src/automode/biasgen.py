"""Automatic language-bias induction from discovered inclusion dependencies.

Types are assigned on a directed graph whose nodes are the schema's
attributes and whose edges are the surviving unary INDs (contained column
-> containing column). Every sink component of the condensation gets a
fresh type, every remaining nontrivial strongly connected component gets a
fresh shared type, and types then flow against edge direction to a
fixpoint. A type may cross at most one approximate edge on its way to a
node: containment errors compound, so a token that arrived over an
approximate edge is never forwarded over another one. Nodes that stay
empty because every incoming path is blocked by that rule receive their
own fresh type, and propagation resumes until all nodes are typed.

Mode definitions let any attribute be a variable but force one argument of
every body atom to be an already-bound variable, and allow constants only
on low-cardinality columns.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import combinations, product
from typing import NamedTuple

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


@dataclass(frozen=True, order=True)
class ModeDecl:
    relation: str
    symbols: tuple[str, ...]

    def __post_init__(self) -> None:
        bad = set(self.symbols) - {"+", "-", "#"}
        if bad:
            raise ValidationError(f"invalid mode symbols {sorted(bad)}")

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
    node_set = set(nodes)
    edges = tuple(
        sorted((i.lhs, i.rhs, i.error) for i in ind_set.inds)
    )
    for src, dst, _ in edges:
        if src not in node_set or dst not in node_set:
            raise ValidationError(f"IND attribute missing from schema: {src} or {dst}")

    succ: dict[AttributeRef, list[AttributeRef]] = {n: [] for n in nodes}
    for src, dst, _ in edges:
        succ[src].append(dst)
    components = _strongly_connected(nodes, succ)
    comp_of = {n: i for i, comp in enumerate(components) for n in comp}
    out_degree = [0] * len(components)
    for src, dst, _ in edges:
        if comp_of[src] != comp_of[dst]:
            out_degree[comp_of[src]] += 1

    def comp_key(i: int) -> tuple[str, int]:
        first = min((n.relation, n.position) for n in components[i])
        return first

    assignments: dict[AttributeRef, dict[str, bool]] = {n: {} for n in nodes}
    origins: dict[str, tuple[AttributeRef, ...]] = {}
    counter = 0

    def mint(members: tuple[AttributeRef, ...]) -> None:
        nonlocal counter
        counter += 1
        token = f"T{counter}"
        origins[token] = tuple(sorted(members))
        for n in members:
            assignments[n][token] = False

    sinks = sorted((i for i in range(len(components)) if out_degree[i] == 0), key=comp_key)
    for i in sinks:
        mint(components[i])
    cycles = sorted(
        (i for i in range(len(components)) if out_degree[i] > 0 and len(components[i]) > 1),
        key=comp_key,
    )
    for i in cycles:
        mint(components[i])

    while True:
        _propagate(edges, assignments)
        starved = [n for n in nodes if not assignments[n]]
        if not starved:
            break
        for n in starved:
            mint((n,))
    return TypeGraph(nodes, edges, assignments, origins)


def _propagate(
    edges: tuple[tuple[AttributeRef, AttributeRef, float], ...],
    assignments: dict[AttributeRef, dict[str, bool]],
) -> None:
    # Least fixpoint over (token present, fewest approx crossings); an
    # unflagged copy of a token dominates a flagged one. Tokens flow from
    # an edge's dst to its src, so a worklist of nodes whose tokens changed
    # revisits only the edges into them; the transfer over each edge is
    # monotone, so the fixpoint does not depend on the order of visits.
    into: dict[AttributeRef, list[tuple[AttributeRef, float]]] = {}
    for src, dst, error in edges:
        into.setdefault(dst, []).append((src, error))
    pending = [n for n in into if assignments[n]]
    queued = set(pending)
    while pending:
        dst = pending.pop()
        queued.discard(dst)
        tokens = assignments[dst]
        for src, error in into[dst]:
            held = assignments[src]
            changed = False
            for token, crossed in tokens.items():
                if error > 0:
                    if crossed:
                        continue
                    incoming = True
                else:
                    incoming = crossed
                current = held.get(token)
                if current is None or (current and not incoming):
                    held[token] = incoming
                    changed = True
            if changed and src in into and src not in queued:
                queued.add(src)
                pending.append(src)


def _strongly_connected(
    nodes: tuple[AttributeRef, ...],
    succ: dict[AttributeRef, list[AttributeRef]],
) -> list[tuple[AttributeRef, ...]]:
    """Tarjan's algorithm, iterative to stay independent of recursion depth."""
    index: dict[AttributeRef, int] = {}
    low: dict[AttributeRef, int] = {}
    on_stack: set[AttributeRef] = set()
    stack: list[AttributeRef] = []
    components: list[tuple[AttributeRef, ...]] = []
    counter = 0

    for root in nodes:
        if root in index:
            continue
        work: list[tuple[AttributeRef, int]] = [(root, 0)]
        while work:
            node, child = work[-1]
            if child == 0:
                index[node] = low[node] = counter
                counter += 1
                stack.append(node)
                on_stack.add(node)
            advanced = False
            for k in range(child, len(succ[node])):
                nxt = succ[node][k]
                if nxt not in index:
                    work[-1] = (node, k + 1)
                    work.append((nxt, 0))
                    advanced = True
                    break
                if nxt in on_stack:
                    low[node] = min(low[node], index[nxt])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                comp: list[AttributeRef] = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    comp.append(member)
                    if member == node:
                        break
                components.append(tuple(comp))
    return components


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
    inds = dedupe_bidirectional(discover_inds(db, alpha))
    graph = build_type_graph(db.schemas, inds)
    predicates = generate_predicates(graph)
    head, body = generate_modes(db, constant_threshold, target)
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
