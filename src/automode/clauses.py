"""Clause representation and evaluation.

A clause is one head literal plus an ordered body of literals over
variables and string constants. Coverage has one evaluator,
`covered_examples`, which tests a whole clause against a set of examples in
one joined pass: each body literal becomes a factor read from the
database's stored row sets and position index (never by scanning a
relation), a worklist semi-join reduction shrinks the factors, variable
elimination joins away the non-head variables, and each example is
checked against what is left. `covers` is that pass over one example;
batches of tests should share passes through `learner.CoverageCache`.
`find_witness` serves armg's prefix decisions: an existential
substitution search whose subgoals, split by shared unbound variables, are
solved by fail-first backtracking over indexed candidate rows.
Clause-to-clause subsumption backs the deep reduction used to keep
generalized clauses small.
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
    symbol: str
    is_var: bool


def var(name: str) -> Term:
    return Term(name, True)


def const(value: str) -> Term:
    return Term(value, False)


class Literal(NamedTuple):
    relation: str
    args: tuple[Term, ...]

    def variables(self) -> tuple[Term, ...]:
        return tuple(a for a in self.args if a.is_var)

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


def _render_term(t: Term) -> str:
    if t.is_var:
        return t.symbol
    escaped = t.symbol.replace("\\", "\\\\").replace('"', '\\"')
    return f'"{escaped}"'


def render_clause(clause: Clause) -> str:
    head = str(clause.head)
    if not clause.body:
        return f"{head}."
    return f"{head} :- {', '.join(str(l) for l in clause.body)}."


def canonical_text(clause: Clause) -> str:
    """Render with variables renamed V0,V1,... in first-occurrence order."""
    mapping: dict[Term, Term] = {}
    for lit in (clause.head, *clause.body):
        for t in lit.args:
            if t.is_var and t not in mapping:
                mapping[t] = var(f"V{len(mapping)}")
    return render_clause(apply_renaming(clause, mapping))


def apply_renaming(clause: Clause, mapping: dict[Term, Term]) -> Clause:
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
    args: list[Term] = []
    while True:
        t = _TERM_RE.match(text, pos)
        if not t:
            raise ValidationError(f"cannot parse term at {text[pos:]!r}")
        if t.group(1) is not None:
            args.append(const(t.group(1).replace('\\"', '"').replace("\\\\", "\\")))
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


def covers(clause: Clause, example: tuple[str, ...], db: "DatabaseInstance") -> bool:
    """True iff some substitution maps the head onto `example` and every
    body literal onto a stored tuple.

    The example is bound into the clause first: each head variable becomes
    its value, so a literal on a head variable starts from the position
    index instead of its relation's whole row set, and `covered_examples`
    runs over the one nullary example of the bound clause. Each call is a
    joined pass of its own; tests of many examples should share one pass
    through `learner.CoverageCache`.
    """
    example = tuple(example)
    if len(example) != len(clause.head.args):
        raise ValidationError(
            f"example arity {len(example)} does not match head {clause.head}"
        )
    binding = _head_binding(clause.head, example)
    values = {v: const(value) for v, value in (binding or {}).items()}
    bound = Clause(
        Literal(clause.head.relation, ()), apply_renaming(clause, values).body
    )
    # a head that cannot bind covers nothing, but a missing relation is
    # still an error
    return bool(covered_examples(bound, [()] if binding is not None else [], db))


def find_witness(
    literals, binding: dict[Term, str], db: "DatabaseInstance"
) -> dict[Term, str] | None:
    """A satisfying assignment for the conjunction under `binding`, or None.

    armg decides each kept prefix with it; coverage of examples goes
    through `covered_examples` instead. Fully bound literals are membership
    tests; the rest split into subproblems that share no unbound variable
    and are solved independently.
    """
    pending: list[Literal] = []
    for lit in literals:
        if any(a.is_var and a not in binding for a in lit.args):
            pending.append(lit)
        elif _image(lit, binding) not in db.fact_set(lit.relation):
            return None
    if not pending:
        return dict(binding)
    components = _components(pending, binding)
    components.sort(key=len)
    out = dict(binding)
    for component in components:
        found = _solve_component(component, binding, db)
        if found is None:
            return None
        out.update(found)
    return out


def _solve_component(
    body: list[Literal], binding: dict[Term, str], db: "DatabaseInstance"
) -> dict[Term, str] | None:
    # fail first: branch on the literal with the fewest matching rows, then
    # solve what remains under each row's extension of the binding
    candidates = []
    for lit in body:
        bound = {
            pos: (binding[a] if a.is_var else a.symbol)
            for pos, a in enumerate(lit.args)
            if not a.is_var or a in binding
        }
        rows = db.matching_rows(lit.relation, bound)
        if not rows:
            return None
        candidates.append(rows)
    best_index = min(range(len(body)), key=lambda i: len(candidates[i]))
    lit = body[best_index]
    rest = body[:best_index] + body[best_index + 1 :]
    for row in candidates[best_index]:
        extended = _extend(lit, row, binding)
        if extended is None:
            continue
        if not rest:
            return extended
        solved = find_witness(rest, extended, db)
        if solved is not None:
            return solved
    return None


def _image(lit: Literal, binding: dict[Term, str]) -> tuple[str, ...]:
    return tuple(binding[a] if a.is_var else a.symbol for a in lit.args)


def _components(
    literals: list[Literal], binding: dict[Term, str]
) -> list[list[Literal]]:
    parent = list(range(len(literals)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    home: dict[Term, int] = {}
    for i, lit in enumerate(literals):
        for a in lit.args:
            if a.is_var and a not in binding:
                j = home.setdefault(a, i)
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


def _extend(
    lit: Literal, row: tuple[str, ...], binding: dict[Term, str]
) -> dict[Term, str] | None:
    out = binding
    copied = False
    for term, value in zip(lit.args, row):
        if not term.is_var:
            if term.symbol != value:
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


# -- whole-clause evaluation --------------------------------------------------


def covered_examples(
    clause: Clause, examples, db: "DatabaseInstance"
) -> frozenset[tuple[str, ...]]:
    """The subset of `examples` the clause covers, computed in one pass.

    This is the package's only coverage evaluator. The examples are one
    more factor over the head variables, so the semi-join reduction anchors
    every intermediate to examples actually asked about; under a head of
    distinct variables each example is its own row there, and only a head
    with a constant or a repeated variable binds each example first. Each
    body literal is a factor over its distinct variables, read without a
    relation scan: a literal of distinct variables shares the stored row
    set (`db.fact_set`), one with constants starts from the position index
    (`db.matching_rows`), and only a repeated variable needs a row filter.
    `_reduce_domains` shrinks the factors to their semi-join fixpoint;
    non-head variables are then eliminated cheapest-first, each by joining
    the factors that hold it. Every factor left afterwards is over head
    variables only: those over the same variables are intersected, and the
    example rows are then filtered by each merged factor in turn, so no
    join runs without a shared variable. Rows are projected, filtered and
    collected by `itemgetter`, `compress` and `map` rather than per-row
    Python code. An example whose arity is not the head's raises
    `ValidationError`.
    """
    for lit in clause.body:
        if not db.has_relation(lit.relation):
            raise ValidationError(f"clause relation missing from database: {lit.relation}")
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
    factors: list[tuple[tuple[Term, ...], AbstractSet[tuple[str, ...]]]] = [
        (head_vars, keys)
    ]
    for lit in clause.body:
        factor_vars = tuple(dict.fromkeys(lit.variables()))
        if len(factor_vars) == len(lit.args):
            # distinct variables only: the stored row set is the factor
            rows = db.fact_set(lit.relation)
        else:
            bound = {pos: a.symbol for pos, a in enumerate(lit.args) if not a.is_var}
            rows = _literal_rows(lit, factor_vars, db.matching_rows(lit.relation, bound))
        if not rows:
            return frozenset()  # no stored tuple matches: covers nothing
        if factor_vars:
            factors.append((factor_vars, rows))
    _reduce_domains(factors)
    keep = set(head_vars)
    while (v := _cheapest_variable(factors, keep)) is not None:
        touching = sorted(
            (f for f in factors if v in f[0]), key=lambda f: len(f[1])
        )
        # the example factor holds no eliminated variable: it stays first
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
    if example_rows is None:
        return frozenset(keys)
    return frozenset(map(example_rows.__getitem__, keys))


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
        if a.is_var and first[a] != pos:
            rows = list(compress(rows, starmap(eq, map(itemgetter(pos, first[a]), rows))))
    return frozenset(_project(rows, tuple(first.values())))


def _reduce_domains(factors) -> None:
    """Semi-join reduction in place, to its unique fixpoint: every factor
    keeps only rows whose value for each variable appears in every other
    factor holding that variable.

    A variable held by several factors gets a domain, the intersection of
    their column values. A worklist (AC-3) refilters a factor only after one
    of its variables' domains narrowed, and a factor that loses rows narrows
    the domains of its variables in turn. Stored row sets are replaced, never
    mutated, so factors may share them with the database.
    """
    holders: dict[Term, list[int]] = {}
    for k, (factor_vars, _) in enumerate(factors):
        for v in factor_vars:
            holders.setdefault(v, []).append(k)
    shared = [
        [(itemgetter(i), v) for i, v in enumerate(factor_vars) if len(holders[v]) > 1]
        for factor_vars, _ in factors
    ]
    columns = [
        {v: set(map(column, rows)) for column, v in positions}
        for positions, (_, rows) in zip(shared, factors)
    ]
    domains: dict[Term, set[str]] = {
        v: set.intersection(*(columns[k][v] for k in ks))
        for v, ks in holders.items()
        if len(ks) > 1
    }
    pending = [
        k
        for k, values_by_var in enumerate(columns)
        if any(len(values) > len(domains[v]) for v, values in values_by_var.items())
    ]
    queued = set(pending)
    while pending:
        k = pending.pop()
        queued.discard(k)
        factor_vars, rows = factors[k]
        kept = rows
        for column, v in shared[k]:
            kept = list(compress(kept, map(domains[v].__contains__, map(column, kept))))
        kept = frozenset(kept)
        if len(kept) == len(rows):
            continue
        factors[k] = (factor_vars, kept)
        for column, v in shared[k]:
            values = set(map(column, kept))
            if len(values) < len(domains[v]):
                domains[v] = values
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
) -> dict[Term, Term] | None:
    """A substitution of `general`'s variables that maps its head onto
    `specific`'s head and every body literal into `specific`'s body, or
    None when there is none."""
    theta = _unify_literal(general.head, specific.head, {})
    if theta is None:
        return None
    candidates = _consistent_targets(general.body, specific.body, theta)
    return _embed(general.body, candidates, theta)


def _consistent_targets(
    literals: Iterable[Literal], targets: Iterable[Literal], theta: dict[Term, Term]
) -> list[list[Literal]]:
    """For each literal, the targets it unifies with under `theta`, in
    their order.

    A literal's constants and θ-bound variables fix the values at their
    positions, a key looked up in the targets of its shape indexed by those
    positions; a target found there unifies when it also repeats each
    repeated unbound variable's value.
    """
    by_shape: dict[tuple[str, int], list[Literal]] = {}
    for t in targets:
        by_shape.setdefault((t.relation, len(t.args)), []).append(t)
    indexes: dict[tuple, dict[tuple[Term, ...], list[Literal]]] = {}
    out = []
    for lit in literals:
        fixed: list[int] = []
        key: list[Term] = []
        first: dict[Term, int] = {}
        repeats: list[tuple[int, int]] = []
        for pos, a in enumerate(lit.args):
            if not a.is_var or a in theta:
                fixed.append(pos)
                key.append(theta[a] if a.is_var else a)
            elif first.setdefault(a, pos) != pos:
                repeats.append((pos, first[a]))
        shape = (lit.relation, len(lit.args), tuple(fixed))
        index = indexes.get(shape)
        if index is None:
            index = indexes[shape] = {}
            for t in by_shape.get(shape[:2], ()):
                index.setdefault(tuple(t.args[p] for p in fixed), []).append(t)
        found = index.get(tuple(key), [])
        if repeats:
            found = [t for t in found if all(t.args[p] == t.args[q] for p, q in repeats)]
        out.append(found)
    return out


def _unify_literal(
    src: Literal, dst: Literal, theta: dict[Term, Term]
) -> dict[Term, Term] | None:
    if src.relation != dst.relation or len(src.args) != len(dst.args):
        return None
    out = theta
    copied = False
    for a, b in zip(src.args, dst.args):
        if not a.is_var:
            if a != b:
                return None
            continue
        known = out.get(a)
        if known is None:
            if not copied:
                out = dict(out)
                copied = True
            out[a] = b
        elif known != b:
            return None
    return out


def _embed(
    literals: list[Literal],
    candidates: list[list[Literal]],
    theta: dict[Term, Term],
) -> dict[Term, Term] | None:
    """An extension of `theta` mapping each literal onto one of its
    candidates, all of them consistent with `theta`, or None.

    Forward checking (Maloberti & Sebag's θ-subsumption as a CSP): binding
    a literal re-filters only the pending literals that share one of its
    newly bound variables, and the search branches on the literal with the
    fewest candidates left.
    """
    if not all(candidates):
        return None
    occurs: dict[Term, list[int]] = {}
    for k, lit in enumerate(literals):
        for a in lit.args:
            if a.is_var and a not in theta:
                occurs.setdefault(a, []).append(k)
    return _forward_check(literals, list(range(len(literals))), candidates, occurs, theta)


def _forward_check(
    literals: list[Literal],
    pending: list[int],
    candidates: list[list[Literal]],
    occurs: dict[Term, list[int]],
    theta: dict[Term, Term],
) -> dict[Term, Term] | None:
    if not pending:
        return theta
    # fail first: the fewest candidates, ties to the earliest pending literal
    sizes = list(map(len, map(candidates.__getitem__, pending)))
    i = sizes.index(min(sizes))
    best = pending[i]
    rest = pending[:i] + pending[i + 1 :]
    lit = literals[best]
    # the first position of each variable the branch binds
    free: dict[Term, int] = {}
    for pos, a in enumerate(lit.args):
        if a.is_var and a not in theta:
            free.setdefault(a, pos)
    if not free:
        # every target leaves the same subproblem: try it once
        return _forward_check(literals, rest, candidates, occurs, theta)
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
    for target in candidates[best]:
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
            extended = dict(theta)
            extended.update((a, target.args[pos]) for a, pos in free.items())
            solved = _forward_check(literals, rest, narrowed, occurs, extended)
            if solved is not None:
                return solved
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
    counts: dict[Term, int] = {}
    for arg in clause.head.variables():
        counts[arg] = counts.get(arg, 0) + 1
    holders: dict[Term, list[int]] = {}
    groups: dict[tuple[str, int], list[int]] = {}
    for i, lit in enumerate(body):
        groups.setdefault((lit.relation, len(lit.args)), []).append(i)
        for arg in lit.variables():
            counts[arg] = counts.get(arg, 0) + 1
            holders.setdefault(arg, []).append(i)
    # drop the lowest literal with a partner, as restarting from the first
    # literal after each removal would: a literal gains a partner only when
    # one of its variables becomes a singleton
    pending = list(range(len(body)))
    live = set(pending)
    while pending:
        i = heappop(pending)
        if i not in live:
            continue
        lit = body[i]
        fixed = [
            (pos, arg)
            for pos, arg in enumerate(lit.args)
            if not (arg.is_var and counts[arg] == 1)
        ]
        if len(fixed) == len(lit.args) or not any(
            j != i and j in live and all(body[j].args[pos] == arg for pos, arg in fixed)
            for j in groups[lit.relation, len(lit.args)]
        ):
            continue
        live.remove(i)
        for arg in lit.variables():
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
    would. θ is reused: it maps every later body into its image θ(body),
    so each later literal outside the image goes without a search while
    the image stays inside the body. θ binds only the variables of the
    searched group, so every other literal is its own image: only a
    literal of that group can lie outside the image, which is built over
    the group alone.
    """
    # the singleton fold performs a cheap subset of the same removals;
    # reduction is confluent, so pre-folding changes nothing but speed
    clause = fold_singleton_literals(clause)
    head_theta = _unify_literal(clause.head, clause.head, {})
    assert head_theta is not None
    body = list(clause.body)
    # consistency under the fixed head never changes: compute it once
    consistent = dict(zip(body, _consistent_targets(body, body, head_theta)))
    rank = {lit: i for i, lit in enumerate(body)}
    holders: dict[Term, list[Literal]] = {}
    for lit in body:
        for a in lit.args:
            if a.is_var and a not in head_theta:
                holders.setdefault(a, []).append(lit)
    alive = set(body)
    # the group of the last dropped literal, and θ's image of its survivors
    group: set[Literal] = set()
    image: set[Literal] = set()
    i = 0
    while i < len(body):
        lit = body[i]
        alive.discard(lit)
        if lit in group and lit not in image:
            del body[i]
            continue
        theta = None
        # without another target for the literal itself, no search can succeed
        if any(t in alive for t in consistent[lit]):
            # θ can map every literal outside lit's group, joined to it
            # through variables outside the head, onto itself; the group goes
            # in body order, which breaks the search's ties and so picks θ
            linked = {lit}
            stack = [lit]
            while stack:
                for a in stack.pop().args:
                    for k in holders.get(a, ()):
                        if k not in linked and k in alive:
                            linked.add(k)
                            stack.append(k)
            ordered = sorted(linked, key=rank.__getitem__)
            candidates = [[t for t in consistent[k] if t in alive] for k in ordered]
            theta = _embed(ordered, candidates, head_theta)
        if theta is None:
            alive.add(lit)
            i += 1
            continue
        del body[i]
        group = linked
        group.discard(lit)
        image = {
            Literal(k.relation, tuple(theta.get(a, a) for a in k.args)) for k in group
        }
    return Clause(clause.head, tuple(body))


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
            if not (arg.is_var and arg in seen):
                return False
        elif sym == "-":
            if not arg.is_var:
                return False
        else:  # '#'
            if arg.is_var:
                return False
    return True


def _type_licensed(clause: Clause, bias: "BiasSpec") -> bool:
    literals = (clause.head, *clause.body)
    options = []
    for lit in literals:
        decls = bias.declarations_for(lit.relation)
        decls = [d for d in decls if len(d.types) == len(lit.args)]
        if not decls:
            return False
        options.append(decls)
    assignment: dict[Term, str] = {}

    def assign(i: int) -> bool:
        if i == len(literals):
            return True
        lit = literals[i]
        for decl in options[i]:
            placed: list[Term] = []
            ok = True
            for arg, token in zip(lit.args, decl.types):
                if not arg.is_var:
                    continue
                current = assignment.get(arg)
                if current is None:
                    assignment[arg] = token
                    placed.append(arg)
                elif current != token:
                    ok = False
                    break
            if ok and assign(i + 1):
                return True
            for term in placed:
                del assignment[term]
        return False

    return assign(0)
