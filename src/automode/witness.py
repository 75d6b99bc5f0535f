"""The witness search behind armg's blocking-atom drop.

`find_witness` serves armg alone, its prefix decisions and its one-row
extensions (armg's reuse check reads cached component passes): one
existential substitution search that splits its literals by shared
unbound variables and solves each group by fail-first backtracking over
indexed candidate rows, recursing once per branching literal.
"""

from __future__ import annotations

from .clauses import Literal, Term, _extend
from .relstore import DatabaseInstance


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
