"""Coverage of examples by a clause, evaluated against a database.

One evaluator, `covered_examples`, tests a clause against a set of
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
"""

from __future__ import annotations

from itertools import compress, starmap
from math import prod
from operator import eq, itemgetter
from typing import AbstractSet, Iterable, Sequence

from .clauses import _NO_POSITION, Clause, Literal, Term, _head_binding
from .errors import ValidationError
from .relstore import DatabaseInstance
from .witness import _components


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
