"""Clause representation and evaluation.

A clause is one head literal plus an ordered body of literals. A term is
a variable (a `Term`) or a constant, which is its value, a plain string:
a ground literal's `args` is a row, and `_extend` matches a literal's
arguments against a stored row or another literal's alike. Coverage has
one evaluator, `covered_examples`, which tests a clause against a set of
examples in two parts. Once per clause it binds the head variables to
each example's key and tests each ground literal's row; then it tests
the rest of the body against every key at once, one head-linked
component at a time, intersecting what the components cover. In each
component's pass each body literal becomes a factor read from the
database's stored row sets and position index (never by scanning a
relation), a worklist semi-join reduction shrinks the factors smallest
first, variable elimination joins away the non-head variables, and the
keys are filtered by what is left. A store keyed by component shape
shares those passes between clauses: learning reads coverage through
`learner.CoverageCache`, which keeps one result per clause over every
example it will be asked about and one per component shape, so twin
components and alphabetic variants are each evaluated once.
`find_witness` serves armg alone, its prefix decisions and its one-row
extensions (armg's reuse check reads cached component passes): one
existential substitution search that splits its literals by shared
unbound variables and solves each group by fail-first backtracking over
indexed candidate rows, recursing once per branching literal.
Clause-to-clause subsumption backs the deep reduction used to keep
generalized clauses small, which tries a local substitution of each
literal's own arguments before it searches for an embedding. The same
embedding search, `_embed`, checks the types of bias conformance: it maps
each literal onto one of its relation's predicate declarations.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from heapq import heappop, heappush
from math import prod
from itertools import compress, starmap
from operator import eq, itemgetter
from typing import AbstractSet, Iterable, NamedTuple, Sequence, TYPE_CHECKING

from .errors import ValidationError

if TYPE_CHECKING:  # pragma: no cover
    from .biasgen import BiasSpec
    from .relstore import DatabaseInstance


class Term(NamedTuple):
    """A variable; a constant argument is its value, a plain `str`."""

    symbol: str


def var(name: str) -> Term:
    return Term(name)


class Literal(NamedTuple):
    relation: str
    args: tuple[Term | str, ...]

    def variables(self) -> tuple[Term, ...]:
        return tuple(a for a in self.args if type(a) is Term)

    def __str__(self) -> str:
        return f"{self.relation}({','.join(_render_term(a) for a in self.args)})"


class Clause(NamedTuple):
    head: Literal
    body: tuple[Literal, ...]

    def variables(self) -> tuple[Term, ...]:
        seen: dict[Term, None] = {}
        for lit in (self.head, *self.body):
            for t in lit.variables():
                seen.setdefault(t)
        return tuple(seen)

    def __str__(self) -> str:
        return render_clause(self)


@dataclass(frozen=True)
class HornDefinition:
    clauses: tuple[Clause, ...]

    def __post_init__(self) -> None:
        heads = {(c.head.relation, len(c.head.args)) for c in self.clauses}
        if len(heads) > 1:
            raise ValidationError(f"clauses disagree on the head relation: {heads}")

    def __str__(self) -> str:
        return "\n".join(render_clause(c) for c in self.clauses)


# -- text format ----------------------------------------------------------
#
#   advisedBy(v0,v1) :- student(v0), inPhase(v0,"post_quals").
#
# Variables are bare identifiers, constants are double-quoted.

_TERM_RE = re.compile(r'\s*(?:"((?:[^"\\]|\\.)*)"|([A-Za-z_][A-Za-z0-9_]*))\s*')
_LIT_RE = re.compile(r"\s*([A-Za-z_][A-Za-z0-9_]*)\(")


def _render_term(t: Term | str) -> str:
    if type(t) is Term:
        return t.symbol
    escaped = t.replace("\\", "\\\\").replace('"', '\\"')
    return f'"{escaped}"'


def render_clause(clause: Clause) -> str:
    head = str(clause.head)
    if not clause.body:
        return f"{head}."
    return f"{head} :- {', '.join(str(l) for l in clause.body)}."


def canonical_text(clause: Clause) -> str:
    """Render `canonical_variant(clause)`."""
    return render_clause(canonical_variant(clause))


def canonical_variant(clause: Clause) -> Clause:
    """The clause with its variables renamed V0,V1,... in first-occurrence
    order, head first: alphabetic variants map to one clause."""
    mapping: dict[Term, Term] = {}
    for lit in (clause.head, *clause.body):
        for t in lit.args:
            if type(t) is Term and t not in mapping:
                mapping[t] = var(f"V{len(mapping)}")
    return apply_renaming(clause, mapping)


def apply_renaming(clause: Clause, mapping: dict[Term, Term | str]) -> Clause:
    def sub(lit: Literal) -> Literal:
        return Literal(lit.relation, tuple(mapping.get(a, a) for a in lit.args))

    return Clause(sub(clause.head), tuple(sub(l) for l in clause.body))


def parse_clause(text: str) -> Clause:
    text = text.strip()
    if not text.endswith("."):
        raise ValidationError(f"clause must end with '.': {text!r}")
    text = text[:-1]
    # the head first: a quoted head constant may itself contain ':-'
    head, pos = _parse_literal(text, 0)
    rest = text[pos:].strip()
    if not rest:
        return Clause(head, ())
    if not rest.startswith(":-"):
        raise ValidationError(f"expected ':-' after the head literal: {text!r}")
    body = _parse_literal_list(rest[2:])
    if not body:
        raise ValidationError(f"expected a body literal after ':-': {text!r}")
    return Clause(head, tuple(body))


def _parse_literal_list(text: str) -> list[Literal]:
    out: list[Literal] = []
    pos = 0
    while pos < len(text):
        if not _LIT_RE.match(text, pos):
            if text[pos:].strip(", "):
                raise ValidationError(f"cannot parse literals at {text[pos:]!r}")
            break
        lit, pos = _parse_literal(text, pos)
        out.append(lit)
        while pos < len(text) and text[pos] in ", ":
            pos += 1
    return out


def _parse_literal(text: str, pos: int) -> tuple[Literal, int]:
    """The literal that starts at `pos`, and the position after its ')'."""
    m = _LIT_RE.match(text, pos)
    if not m:
        raise ValidationError(f"cannot parse literal at {text[pos:]!r}")
    pos = m.end()
    args: list[Term | str] = []
    while True:
        t = _TERM_RE.match(text, pos)
        if not t:
            raise ValidationError(f"cannot parse term at {text[pos:]!r}")
        if t.group(1) is not None:
            args.append(t.group(1).replace('\\"', '"').replace("\\\\", "\\"))
        else:
            args.append(var(t.group(2)))
        pos = t.end()
        if pos < len(text) and text[pos] == ",":
            pos += 1
            continue
        if pos < len(text) and text[pos] == ")":
            return Literal(m.group(1), tuple(args)), pos + 1
        raise ValidationError(f"expected ',' or ')' at {text[pos:]!r}")


# -- coverage against a database ------------------------------------------


def find_witness(
    literals, binding: dict[Term, str], db: "DatabaseInstance"
) -> dict[Term, str] | None:
    """A satisfying assignment for the conjunction under `binding`, or None;
    `binding` itself when nothing new is bound.

    armg decides each kept prefix with it and extends its assignment by
    one row of a literal with a one-literal call; coverage of examples
    goes through `covered_examples`. Fully bound literals are membership
    tests. The rest split into groups that share no unbound variable,
    solved smallest first, each under the bindings of those before it,
    which it never reads. A group branches fail first on its literal with
    the fewest matching rows, ties going to the earliest, and solves the
    rest of the group by one recursive call per row: one stack frame per
    branching literal.
    """
    pending: list[Literal] = []
    for lit in literals:
        if any(type(a) is Term and a not in binding for a in lit.args):
            pending.append(lit)
        elif tuple(map(binding.get, lit.args, lit.args)) not in db.fact_set(lit.relation):
            return None
    groups = [pending] * len(pending)  # none or one pending literal: no split
    if len(pending) > 1:
        groups = sorted(_components(pending, binding), key=len)
    for group in groups:
        candidates = []
        for lit in group:
            bound = {
                pos: binding.get(a, a)
                for pos, a in enumerate(lit.args)
                if type(a) is not Term or a in binding
            }
            rows = db.matching_rows(lit.relation, bound)
            if not rows:
                return None
            candidates.append(rows)
        sizes = list(map(len, candidates))
        best = sizes.index(min(sizes))
        lit = group[best]
        rest = group[:best] + group[best + 1 :]
        for row in candidates[best]:
            extended = _extend(lit, row, binding)
            if extended is not None:
                extended = find_witness(rest, extended, db)
                if extended is not None:
                    break
        else:
            return None
        binding = extended
    return binding


def _components(
    literals: list[Literal], binding: dict[Term, str]
) -> list[list[Literal]]:
    """The literals grouped by the variables outside `binding` they share,
    groups ordered by their first literal, each in input order."""
    parent = list(range(len(literals)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    home: dict[Term, int] = {}
    for i, lit in enumerate(literals):
        for a in lit.args:
            if type(a) is Term and a not in binding:
                j = home.setdefault(a, i)
                if j != i:  # a variable's first literal joins nothing yet
                    ri, rj = find(i), find(j)
                    if ri != rj:
                        parent[ri] = rj
    groups: dict[int, list[Literal]] = {}
    for i, lit in enumerate(literals):
        groups.setdefault(find(i), []).append(lit)
    return list(groups.values())


def _head_binding(head: Literal, example: tuple[str, ...]) -> dict[Term, str] | None:
    """The binding that maps `head` onto `example`, or None when none does."""
    if len(example) != len(head.args):
        return None
    return _extend(head, example, {})


def _extend(lit: Literal, row: tuple, binding: dict[Term, object]) -> dict | None:
    """`binding` extended to map `lit`'s arguments onto `row`, or None.

    `row` is a tuple of values: a stored row, or another literal's `args`,
    whose variables then count as values too."""
    out = binding
    copied = False
    for term, value in zip(lit.args, row):
        if type(term) is not Term:
            if term != value:
                return None
            continue
        known = out.get(term)
        if known is None:
            if not copied:
                out = dict(out)
                copied = True
            out[term] = value
        elif known != value:
            return None
    return out


def check_body(clause: Clause, db: "DatabaseInstance") -> None:
    """Raise `ValidationError` unless each body literal names a relation of
    `db` with its arity: the searches pair arguments with rows of any width."""
    arities = {schema.name: schema.arity for schema in db.schemas}
    for lit in clause.body:
        arity = arities.get(lit.relation)
        if arity is None:
            raise ValidationError(f"clause relation missing from database: {lit.relation}")
        if arity != len(lit.args):
            raise ValidationError(f"literal {lit} does not match arity {arity} of {lit.relation}")


# -- whole-clause evaluation --------------------------------------------------


def covered_examples(
    clause: Clause, examples, db: "DatabaseInstance", *, components: dict | None = None
) -> frozenset[tuple[str, ...]]:
    """The subset of `examples` the clause covers.

    This is the package's only coverage evaluator, in two parts. Once per
    clause: `check_body`, each example's key, its values for the head
    variables (under a head of distinct variables each example is its own
    key; only a head with a constant or a repeated variable binds each
    example first), and one membership test in its stored row set for each
    ground body literal, whose `args` is a row. Then `_covered_keys` tests
    the non-ground literals against the whole key set once per head-linked
    component, the literals that non-head variables join
    (`_components(body, head)`), and the covered key sets are intersected
    smallest first: components share only head variables, which each
    example binds, so the clause covers an example exactly when every
    component covers its key. An empty body covers what the head binds.

    The `components` store maps the head pattern (relation, constants and
    repeated head variables) and a component's shape (head variables by
    key position, other variables numbered by first occurrence, constants
    as values) to its covered keys. Components of one shape are one query
    up to the names of their variables, so clauses that share one,
    alphabetic variants included, evaluate it once, and so do twin
    components of one clause. A store holds keys of one example set over
    one database, as `learner.CoverageCache` keeps it; without one, the
    call fills a fresh store of its own. An example whose arity is not the
    head's, or a clause `check_body` refuses, raises `ValidationError`.
    """
    check_body(clause, db)
    head = clause.head
    head_vars = tuple(dict.fromkeys(head.variables()))
    examples = list(map(tuple, examples))
    arity = len(head.args)
    if not all(map(arity.__eq__, map(len, examples))):
        wrong = next(n for n in map(len, examples) if n != arity)
        raise ValidationError(f"example arity {wrong} does not match head {head}")
    # binds each example's key over head_vars to the example; None when
    # the head is distinct variables and every example is its own key
    example_rows: dict[tuple[str, ...], tuple[str, ...]] | None = None
    if len(head_vars) == arity:
        keys = set(examples)
    else:
        example_rows = {}
        for example in examples:
            assignment = _head_binding(head, example)
            if assignment is not None:
                example_rows[tuple(assignment[v] for v in head_vars)] = example
        keys = set(example_rows)
    pending: list[Literal] = []
    for lit in clause.body:
        if any(type(a) is Term for a in lit.args):
            pending.append(lit)
        elif lit.args not in db.fact_set(lit.relation):
            return frozenset()  # a ground literal's args is a row: one membership test
    if pending:
        components = {} if components is None else components
        position = {v: i for i, v in enumerate(head_vars)}
        pattern = (head.relation, tuple(position.get(a, a) for a in head.args))
        covered_sets = []
        for group in _components(pending, position) if len(pending) > 1 else [pending]:
            names = dict(position)
            shape = tuple(
                (lit.relation, tuple(
                    names.setdefault(a, len(names)) if type(a) is Term else a
                    for a in lit.args
                ))
                for lit in group
            )
            covered = components.get((pattern, shape))
            if covered is None:
                covered = components[pattern, shape] = _covered_keys(group, head_vars, keys, db)
            if not covered:
                return frozenset()
            covered_sets.append(covered)
        covered_sets.sort(key=len)
        keys = covered_sets[0].intersection(*covered_sets[1:])
    if example_rows is None:
        return frozenset(keys)
    return frozenset(map(example_rows.__getitem__, keys))


def _covered_keys(
    literals: list[Literal],
    head_vars: tuple[Term, ...],
    keys: AbstractSet[tuple[str, ...]],
    db: "DatabaseInstance",
) -> frozenset[tuple[str, ...]]:
    """The `keys`, value tuples over `head_vars`, under which `literals`,
    a head-linked component, are satisfiable.

    Each literal is a factor over its distinct variables, read without a
    relation scan: a literal of distinct variables shares the stored row
    set (`db.fact_set`), one with constants starts from the position index
    (`db.matching_rows`), and only a repeated variable needs a row filter.
    A lone literal is its rows projected onto its head variables. Several
    are joined with the keys, one more factor, so the semi-join reduction
    anchors every intermediate to keys actually asked about:
    `_reduce_domains` shrinks the factors to their semi-join fixpoint,
    reading a stored relation's columns only from the rows that survive
    the domains of the smaller factors; non-head variables are then
    eliminated cheapest-first, each by joining the factors that hold it.
    Every factor left is over head variables only: those over the same
    variables are intersected, and the keys are then filtered by each
    merged factor in turn, so no join runs without a shared variable. Rows
    are projected, filtered and collected by `itemgetter`, `compress` and
    `map` rather than per-row Python code.
    """
    factors: list[tuple[tuple[Term, ...], AbstractSet[tuple[str, ...]]]] = [
        (head_vars, keys)
    ]
    for lit in literals:
        factor_vars = tuple(dict.fromkeys(lit.variables()))
        if len(factor_vars) == len(lit.args):
            # distinct variables only: the stored row set is the factor
            rows = db.fact_set(lit.relation)
        else:
            bound = {pos: a for pos, a in enumerate(lit.args) if type(a) is not Term}
            rows = _literal_rows(lit, factor_vars, db.matching_rows(lit.relation, bound))
        if not rows:
            return frozenset()  # no stored tuple matches: covers nothing
        factors.append((factor_vars, rows))
    keep = set(head_vars)
    if len(literals) == 1:
        # nothing to join: no reduction, no elimination
        factor_vars, rows = factors[1]
        linked = tuple(i for i, v in enumerate(factor_vars) if v in keep)
        if len(linked) < len(factor_vars):
            factors[1] = tuple(factor_vars[i] for i in linked), set(_project(rows, linked))
    else:
        _reduce_domains(factors)
    while (v := _cheapest_variable(factors, keep)) is not None:
        touching = sorted(
            (f for f in factors if v in f[0]), key=lambda f: len(f[1])
        )
        # the key factor holds no eliminated variable: it stays first
        rest = [f for f in factors if v not in f[0]]
        joined = touching[0]
        for factor in touching[1:]:
            joined = _join_factors(joined, factor)
        factors = rest + [_project_out(joined, v)]
        if not factors[-1][1]:
            return frozenset()  # the component is unsatisfiable
    keys = factors[0][1]
    merged: dict[tuple[Term, ...], AbstractSet[tuple[str, ...]]] = {}
    for factor_vars, rows in factors[1:]:
        if factor_vars:  # a factor over no variable is {()}: no constraint
            known = merged.get(factor_vars)
            merged[factor_vars] = rows if known is None else known & rows
    for factor_vars, rows in merged.items():
        if factor_vars == head_vars:
            keys = rows.intersection(keys)
        else:
            index = tuple(map(head_vars.index, factor_vars))
            keys = list(compress(keys, map(rows.__contains__, _project(keys, index))))
    return frozenset(keys)


_NO_POSITION = itemgetter(slice(0, 0))  # any row's empty projection, ()


def _project(rows: Iterable[tuple[str, ...]], positions: tuple[int, ...]):
    """Each row's values at `positions`, always as a tuple: a one-position
    projection is a 1-tuple and a projection onto no position is ()."""
    if len(positions) == 1:
        return zip(map(itemgetter(positions[0]), rows))
    return map(itemgetter(*positions) if positions else _NO_POSITION, rows)


def _literal_rows(
    lit: Literal, factor_vars: tuple[Term, ...], rows: Sequence[tuple[str, ...]]
) -> frozenset[tuple[str, ...]]:
    # `rows` already agree with the literal's constants; keep those that
    # bind each repeated variable consistently, projected onto factor_vars
    first = {v: lit.args.index(v) for v in factor_vars}
    for pos, a in enumerate(lit.args):
        if type(a) is Term and first[a] != pos:
            rows = list(compress(rows, starmap(eq, map(itemgetter(pos, first[a]), rows))))
    return frozenset(_project(rows, tuple(first.values())))


def _reduce_domains(factors) -> None:
    """Semi-join reduction in place, to its unique fixpoint: every factor
    keeps only rows whose value for each variable appears in every other
    factor holding that variable.

    A variable held by several factors gets a domain: the values that
    every holder visited so far has in its column. A worklist (AC-3) visits
    the factors smallest first. Each is filtered by the domains already
    known, and only its surviving rows are read for its column values,
    which set or narrow its variables' domains; a narrowed domain requeues
    the variable's visited holders. Right after a visit, a factor's values
    at each shared variable are that variable's domain, so a requeued
    factor always loses a row: no visit is wasted. The fixpoint is unique
    (Bernstein & Chiu, JACM 1981), so the order changes the cost, not the
    result.
    Stored row sets are replaced, never mutated, so factors may share them
    with the database.
    """
    holders: dict[Term, list[int]] = {}
    for k, (factor_vars, _) in enumerate(factors):
        for v in factor_vars:
            holders.setdefault(v, []).append(k)
    shared = [
        [(itemgetter(i), v) for i, v in enumerate(factor_vars) if len(holders[v]) > 1]
        for factor_vars, _ in factors
    ]
    domains: dict[Term, set[str]] = {}
    # popped from the end: the smallest factor first
    pending = sorted(
        (k for k, positions in enumerate(shared) if positions),
        key=lambda k: len(factors[k][1]),
        reverse=True,
    )
    queued = set(pending)
    while pending:
        k = pending.pop()
        queued.discard(k)
        factor_vars, rows = factors[k]
        kept = rows
        for column, v in shared[k]:
            if v in domains:
                kept = list(compress(kept, map(domains[v].__contains__, map(column, kept))))
        if len(kept) < len(rows):
            factors[k] = (factor_vars, frozenset(kept))
        for column, v in shared[k]:
            values = set(map(column, kept))
            if v not in domains or len(values) < len(domains[v]):
                domains[v] = values
                # an unvisited holder is still queued
                for j in holders[v]:
                    if j != k and j not in queued:
                        queued.add(j)
                        pending.append(j)


def _cheapest_variable(factors, keep: set[Term]) -> Term | None:
    # variables in a single factor project away for free; otherwise prefer
    # the variable whose touching factors bound the join most tightly; ties
    # go to the least variable
    sizes: dict[Term, list[int]] = {}
    for factor_vars, rows in factors:
        for v in factor_vars:
            if v not in keep:
                sizes.setdefault(v, []).append(len(rows) or 1)

    def cost(v: Term) -> tuple[int, Term]:
        return (prod(sizes[v]) if len(sizes[v]) > 1 else 0, v)

    return min(sizes, key=cost, default=None)


def _join_factors(f1, f2):
    vars1, rows1 = f1
    vars2, rows2 = f2
    shared = [v for v in vars2 if v in vars1]
    carry = tuple(i for i, v in enumerate(vars2) if v not in vars1)
    out_vars = vars1 + tuple(vars2[i] for i in carry)
    # the join keys may be scalars: both sides project the same way
    key1 = itemgetter(*map(vars1.index, shared))
    key2 = itemgetter(*map(vars2.index, shared))
    # rows2 are distinct, so each shared key lists distinct carried values
    table: dict[object, list[tuple[str, ...]]] = {}
    for key, carried in zip(map(key2, rows2), _project(rows2, carry)):
        table.setdefault(key, []).append(carried)
    out: set[tuple[str, ...]] = set()
    for row, matches in zip(rows1, map(table.get, map(key1, rows1))):
        if matches:
            out.update(map(row.__add__, matches))
    return out_vars, out


def _project_out(factor, v: Term):
    factor_vars, rows = factor
    keep = tuple(i for i, u in enumerate(factor_vars) if u != v)
    return tuple(factor_vars[i] for i in keep), set(_project(rows, keep))


# -- clause-to-clause subsumption ------------------------------------------


def subsumes(general: Clause, specific: Clause) -> bool:
    """True iff some substitution maps `general`'s head onto `specific`'s
    head and every body literal of `general` into `specific`'s body."""
    return subsumption_witness(general, specific) is not None


def subsumption_witness(
    general: Clause, specific: Clause
) -> dict[Term, Term | str] | None:
    """A substitution of `general`'s variables that maps its head onto
    `specific`'s head and every body literal into `specific`'s body, or
    None when there is none."""
    head, target = general.head, specific.head
    if head.relation != target.relation or len(head.args) != len(target.args):
        return None
    theta = _extend(head, target.args, {})
    if theta is None:
        return None
    found = _consistent_targets(general.body, specific.body, theta)
    return _embed(general.body, [[specific.body[j] for j in c] for c in found], theta)


def _consistent_targets(
    literals: Iterable[Literal], targets: Sequence[Literal], theta: dict[Term, Term | str]
) -> list[list[int]]:
    """For each literal, the numbers of the targets it unifies with under
    `theta`, in their order.

    A literal's constants and θ-bound variables fix the values at their
    positions, a key looked up in the targets of its shape indexed by those
    positions; when an unbound variable repeats, a target found there
    unifies if `_extend` maps the literal onto it.
    """
    by_shape: dict[tuple[str, int], list[int]] = {}
    for j, t in enumerate(targets):
        by_shape.setdefault((t.relation, len(t.args)), []).append(j)
    indexes: dict[tuple, dict[tuple, list[int]]] = {}
    out = []
    for lit in literals:
        fixed: list[int] = []
        key: list[Term | str] = []
        first: dict[Term, int] = {}
        repeated = False
        for pos, a in enumerate(lit.args):
            if type(a) is not Term or a in theta:
                fixed.append(pos)
                key.append(theta.get(a, a))
            elif first.setdefault(a, pos) != pos:
                repeated = True
        shape = (lit.relation, len(lit.args), tuple(fixed))
        index = indexes.get(shape)
        if index is None:
            index = indexes[shape] = {}
            for j in by_shape.get(shape[:2], ()):
                index.setdefault(tuple([targets[j].args[p] for p in fixed]), []).append(j)
        found = index.get(tuple(key), [])
        if repeated:
            found = [j for j in found if _extend(lit, targets[j].args, theta) is not None]
        out.append(found)
    return out


def _embed(
    literals: list[Literal],
    candidates: list[list[Literal]],
    theta: dict[Term, Term | str],
) -> dict[Term, Term | str] | None:
    """An extension of `theta` mapping each literal onto one of its
    candidates, all of them consistent with `theta`, or None.

    Forward checking (Maloberti & Sebag's θ-subsumption as a CSP): binding
    a literal re-filters only the pending literals that share one of its
    newly bound variables, and the search branches on the literal with the
    fewest candidates left. It runs depth first over an explicit stack of
    open branch points, so no recursion limit bounds the body's length.
    The type check of `conforms` runs on it too (`_type_licensed`).
    """
    if not all(candidates):
        return None
    occurs: dict[Term, list[int]] = {}
    for k, lit in enumerate(literals):
        for a in lit.args:
            if type(a) is Term and a not in theta:
                occurs.setdefault(a, []).append(k)
    pending = list(range(len(literals)))
    stack = []
    while True:
        # fail first: the fewest candidates, ties to the earliest pending
        # literal; one that binds nothing leaves the same subproblem under
        # every target, so the search passes over it
        while pending:
            sizes = list(map(len, map(candidates.__getitem__, pending)))
            i = sizes.index(min(sizes))
            best = pending[i]
            rest = pending[:i] + pending[i + 1 :]
            # the first position of each variable the branch binds
            free: dict[Term, int] = {}
            for pos, a in enumerate(literals[best].args):
                if type(a) is Term and a not in theta:
                    free.setdefault(a, pos)
            if free:
                break
            pending = rest
        else:
            return theta
        # each pending literal sharing one of them keeps the candidates whose
        # arguments there equal the target's at the branch literal's positions
        affected = {k for a in free for k in occurs[a]}
        checks = []
        for k in rest:
            if k in affected:
                pairs = [(pos, free[a]) for pos, a in enumerate(literals[k].args) if a in free]
                checks.append(
                    (k, itemgetter(*(p for p, _ in pairs)), itemgetter(*(q for _, q in pairs)))
                )
        # one target, or targets no pending literal tells apart: none to retry
        closes = not checks or len(candidates[best]) == 1
        stack.append((iter(candidates[best]), rest, candidates, checks, free, theta, closes))
        # the deepest open branch point's next target that leaves every
        # pending literal a candidate; an exhausted branch point is closed
        while stack:
            targets, rest, candidates, checks, free, theta, closes = stack[-1]
            for target in targets:
                narrowed = candidates
                for k, theirs, ours in checks:
                    want = ours(target.args)
                    kept = [t for t in narrowed[k] if theirs(t.args) == want]
                    if not kept:
                        break
                    if len(kept) == len(narrowed[k]):
                        continue
                    if narrowed is candidates:
                        narrowed = list(candidates)
                    narrowed[k] = kept
                else:
                    break
            else:
                stack.pop()
                continue
            if closes:
                stack.pop()
            theta = dict(theta)
            theta.update((a, target.args[pos]) for a, pos in free.items())
            pending, candidates = rest, narrowed
            break
        else:
            return None


# -- minimization -----------------------------------------------------------


def minimize(clause: Clause, deep: bool = False) -> Clause:
    """Remove duplicate body literals; with `deep`, also remove literals
    whose deletion leaves a subsumption-equivalent clause."""
    seen: dict[Literal, None] = {}
    for lit in clause.body:
        seen.setdefault(lit)
    reduced = Clause(clause.head, tuple(seen))
    return _deep_reduce(reduced) if deep else reduced


def fold_singleton_literals(clause: Clause) -> Clause:
    """Drop literals that differ from another literal of the same relation
    only at positions holding variables used nowhere else.

    Mapping those variables onto the other literal's arguments embeds the
    clause into itself without the dropped literal, so the result is
    subsumption-equivalent; pairwise generalization and saturation both
    produce whole families of such literals.
    """
    body = clause.body
    holders: dict[Term, list[int]] = {}
    groups: dict[tuple[str, int], list[int]] = {}
    for i, lit in enumerate(body):
        groups.setdefault((lit.relation, len(lit.args)), []).append(i)
        for arg in lit.args:
            if type(arg) is Term:
                holders.setdefault(arg, []).append(i)
    # occurrences, not literals: a variable twice in one literal is no
    # singleton, and its holders list that literal twice
    counts = {arg: len(held) for arg, held in holders.items()}
    for arg in clause.head.variables():
        counts[arg] = counts.get(arg, 0) + 1
    # drop the lowest literal with a partner, as restarting from the first
    # literal after each removal would: only a literal holding a singleton
    # can have one, and a literal gains a singleton only when one of its
    # variables' counts falls to one
    pending = [i for i, lit in enumerate(body) if 1 in map(counts.get, lit.args)]
    live = set(range(len(body)))
    while pending:
        i = heappop(pending)
        if i not in live:
            continue
        args = body[i].args
        fixed = [pos for pos, arg in enumerate(args) if counts.get(arg) != 1]
        key = itemgetter(*fixed) if fixed else _NO_POSITION
        want = key(args)
        for j in groups[body[i].relation, len(args)]:
            if j != i and j in live and key(body[j].args) == want:
                break
        else:
            continue
        live.remove(i)
        for arg in args:
            if type(arg) is Term:
                counts[arg] -= 1
                if counts[arg] == 1:
                    for j in holders[arg]:
                        if j in live:
                            heappush(pending, j)
    return Clause(clause.head, tuple(body[i] for i in sorted(live)))


def _deep_reduce(clause: Clause) -> Clause:
    """The clause's core in one forward pass (Gottlob & Fermüller, 1993).

    Literal i goes when a substitution θ fixing the head maps the whole
    body into the body without it. A literal that stays cannot go later
    either: the body only shrinks to equivalent subsets, and one of those
    losing the literal would map the current body onto a subset without it
    too. So the pass never revisits a literal, and it keeps and drops
    exactly what restarting from the first literal after each removal
    would, whichever θ it finds. It tries a local θ first: for each live
    target t of i, σ maps i's arguments onto t's and fixes every other
    variable, so σ is a θ when it maps each live literal holding one of
    i's non-head variables onto a live literal. Only when no σ is does a
    search look for θ over i's group, the live literals that non-head
    variables join to i, in body order, which breaks its ties; it finds a
    θ or proves there is none, so the pass stays exact. θ is reused: it
    maps every later body into its image, so each later literal of its
    group (the literals σ may move, or the searched ones; θ fixes every
    other literal) outside the group's image goes without a test while
    the image stays in the body.
    """
    # the singleton fold performs a cheap subset of the same removals;
    # reduction is confluent, so pre-folding changes nothing but speed
    clause = fold_singleton_literals(clause)
    head_theta = {v: v for v in clause.head.variables()}
    body = clause.body
    number = {lit: i for i, lit in enumerate(body)}

    def moved_to(k: int, theta: dict) -> int | None:
        """The number of literal k's image under `theta`, if in the body."""
        args = body[k].args
        return number.get((body[k].relation, tuple(map(theta.get, args, args))))

    holders: dict[Term, list[int]] = {}
    for i, lit in enumerate(body):
        for a in lit.args:
            if type(a) is Term and a not in head_theta:
                holders.setdefault(a, []).append(i)
    # consistency under the fixed head never changes: compute it once
    found = _consistent_targets(body, body, head_theta)
    alive = [True] * len(body)
    # the group of the last dropped literal, and θ's image of it
    group: set[int] = set()
    image: set[int] = set()
    for i, lit in enumerate(body):
        alive[i] = False
        if i in group and i not in image:
            continue
        live = [t for t in found[i] if alive[t]]
        # without another target for the literal itself, no θ exists
        if not live:
            alive[i] = True
            continue
        touched = {k for a in lit.args for k in holders.get(a, ()) if alive[k]}
        for t in live:
            # the head's variables and the constants map onto themselves
            sigma = dict(zip(lit.args, body[t].args))
            moved = set()
            for k in touched:
                j = moved_to(k, sigma)
                if j is None or not alive[j]:
                    break
                moved.add(j)
            else:
                group, image = touched, moved
                break
        else:
            linked = {i}
            stack = [i]
            while stack:
                for a in body[stack.pop()].args:
                    for k in holders.get(a, ()):
                        if alive[k] and k not in linked:
                            linked.add(k)
                            stack.append(k)
            ordered = sorted(linked)
            candidates = [[body[t] for t in found[k] if alive[t]] for k in ordered]
            theta = _embed([body[k] for k in ordered], candidates, head_theta)
            if theta is None:
                alive[i] = True
                continue
            linked.discard(i)
            group = linked
            image = {moved_to(k, theta) for k in linked}
    return Clause(clause.head, tuple(compress(body, alive)))


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
