"""Unary inclusion-dependency discovery over database content.

An IND `R[A] <= S[B]` holds exactly when every distinct value of column
R[A] also appears in S[B]; the error of an approximate IND is the fraction
of distinct R[A] values that would have to be removed for it to hold.

Discovery reads an inverted index of values (De Marchi, Lopes & Petit,
JIIS 2009): each distinct value maps to the columns that hold it, so the
overlap of a left column with every other column is one count over the
holder lists of its values, which reach only the columns sharing a value
with it. error = (|left| - overlap) / |left| is the same fraction of the
same integers as a set difference, so errors are exact.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import chain

from .errors import ValidationError
from .relstore import AttributeRef, DatabaseInstance, all_attributes


@dataclass(frozen=True, order=True)
class UnaryInd:
    lhs: AttributeRef
    rhs: AttributeRef
    error: float

    def __post_init__(self) -> None:
        if self.lhs == self.rhs:
            raise ValidationError("an IND cannot relate an attribute to itself")
        if not 0.0 <= self.error <= 1.0:
            raise ValidationError(f"IND error out of range: {self.error}")

    @property
    def exact(self) -> bool:
        return self.error == 0.0

    def __str__(self) -> str:
        return f"{self.lhs} <= {self.rhs} err={self.error:.6f}"


@dataclass(frozen=True)
class IndSet:
    inds: tuple[UnaryInd, ...]
    alpha: float

    def __post_init__(self) -> None:
        keys = [(i.lhs, i.rhs) for i in self.inds]
        if len(set(keys)) != len(keys):
            raise ValidationError("duplicate (lhs, rhs) pair in IndSet")
        for ind in self.inds:
            if ind.error > self.alpha:
                raise ValidationError(f"{ind} exceeds alpha={self.alpha}")


def discover_inds(db: DatabaseInstance, alpha: float) -> IndSet:
    """All ordered attribute pairs whose containment error is within alpha.

    Pairs with an empty left column are excluded; output order is canonical
    regardless of evaluation order.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValidationError(f"alpha must be in [0,1], got {alpha}")
    # one transposition per relation gives each column's distinct values;
    # a relation with no rows has `arity` empty columns
    by_relation = {
        s.name: list(map(frozenset, zip(*db.rows[s.name]))) or [frozenset()] * s.arity
        for s in db.schemas
    }
    # sorted, so pairs are generated in the IndSet's canonical order
    attrs = sorted(all_attributes(db))
    columns = [by_relation[a.relation][a.position] for a in attrs]
    holders: dict[str, list[int]] = {}
    for i, column in enumerate(columns):
        for value in column:
            holders.setdefault(value, []).append(i)
    found: list[UnaryInd] = []
    for i, (lhs, left) in enumerate(zip(attrs, columns)):
        if not left:
            continue
        # a list: most pairs share no value, and a Counter would answer
        # each of them through a Python-level __missing__ call
        overlap = [0] * len(attrs)
        for j, shared in Counter(
            chain.from_iterable(map(holders.__getitem__, left))
        ).items():
            overlap[j] = shared
        size = len(left)
        for j, rhs in enumerate(attrs):
            if j != i:
                error = (size - overlap[j]) / size
                if error <= alpha:
                    found.append(UnaryInd(lhs, rhs, error))
    return IndSet(tuple(found), alpha)


def dedupe_bidirectional(ind_set: IndSet) -> IndSet:
    """Resolve mutual approximate INDs, keeping the lower-error direction.

    Mutual exact INDs are both kept (they define cycles that later share a
    type). Equal nonzero errors keep the IND whose lhs sorts first by
    (relation, position).
    """
    by_key = {(i.lhs, i.rhs): i for i in ind_set.inds}
    kept: list[UnaryInd] = []
    for ind in ind_set.inds:
        reverse = by_key.get((ind.rhs, ind.lhs))
        if reverse is None or ind.error == 0.0 or reverse.error == 0.0:
            kept.append(ind)
            continue
        if ind.error < reverse.error:
            kept.append(ind)
        elif ind.error == reverse.error:
            if (ind.lhs.relation, ind.lhs.position) < (
                reverse.lhs.relation,
                reverse.lhs.position,
            ):
                kept.append(ind)
        # else: the reverse survives on its own iteration
    return IndSet(tuple(sorted(kept)), ind_set.alpha)


def format_ind_set(ind_set: IndSet) -> str:
    """One IND per line, lexicographically sorted."""
    lines = sorted(str(i) for i in ind_set.inds)
    return "\n".join(lines) + ("\n" if lines else "")
