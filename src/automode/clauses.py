"""Clauses: terms, literals, their text format, and subsumption.

A clause is one head literal plus an ordered body of literals. A term is
a variable (a `Term`) or a constant, which is its value, a plain string:
a ground literal's `args` is a row, and `_extend` matches a literal's
arguments against a stored row or another literal's alike.
Clause-to-clause subsumption backs the deep reduction used to keep
generalized clauses small, which tries a local substitution of each
literal's own arguments before it searches for an embedding, `_embed`.
A clause is checked against a database by `witness` and `coverage`, and
against a bias by `biasgen.conforms`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from heapq import heappop, heappush
from itertools import compress
from operator import itemgetter
from typing import Iterable, NamedTuple, Sequence

from .errors import ValidationError


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


# -- bindings ---------------------------------------------------------------


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


_NO_POSITION = itemgetter(slice(0, 0))  # any row's empty projection, ()


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
