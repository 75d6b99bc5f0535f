"""Unary inclusion-dependency discovery over database content.

An IND `R[A] <= S[B]` holds exactly when every distinct value of column
R[A] also appears in S[B]; the error of an approximate IND is the fraction
of distinct R[A] values that would have to be removed for it to hold.

Discovery reads an inverted index of values (De Marchi, Lopes & Petit,
JIIS 2009): each distinct value maps to the columns that hold it. The
index grows one column at a time: a column's value set is built, one count
over its values' holder lists gives its overlap with every earlier column,
the column joins those lists, and only its size is kept. So one value set
is alive at a time, each is counted while still warm in the cache, and each
unordered pair is counted once. Both directions read that one integer:
error = (|left| - overlap) / |left| is the same fraction of the same
integers as a set difference, so errors are exact.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from itertools import chain, repeat
from operator import itemgetter
from typing import NamedTuple

from .errors import ValidationError
from .relstore import AttributeRef, DatabaseInstance, all_attributes


class _IndFields(NamedTuple):
    lhs: AttributeRef
    rhs: AttributeRef
    error: float


class UnaryInd(_IndFields):
    """The IND `lhs <= rhs` with its containment error.

    A named tuple, like `AttributeRef`, so hashing, equality and ordering
    run in C, by (lhs, rhs, error). The validating `__new__` sits on this
    subclass, as `NamedTuple` refuses one of its own."""

    __slots__ = ()

    def __new__(cls, lhs: AttributeRef, rhs: AttributeRef, error: float) -> "UnaryInd":
        if lhs == rhs:
            raise ValidationError("an IND cannot relate an attribute to itself")
        if not 0.0 <= error <= 1.0:
            raise ValidationError(f"IND error out of range: {error}")
        return super().__new__(cls, lhs, rhs, error)

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
    # sorted, so pairs are generated in the IndSet's canonical order
    attrs = sorted(all_attributes(db))
    # one column's value set at a time, built just before it is counted and
    # indexed, then dropped: sizes[i] = |V(i)| for the value set V(i) of
    # attrs[i], and earlier[i][j] = |V(i) & V(j)| for j < i, where nonzero
    holders: defaultdict[str, list[int]] = defaultdict(list)
    earlier: list[Counter[int]] = []
    sizes: list[int] = []
    for i, a in enumerate(attrs):
        column = set(map(itemgetter(a.position), db.rows[a.relation]))
        sizes.append(len(column))
        lists = list(map(holders.__getitem__, column))
        earlier.append(Counter(chain.from_iterable(lists)))
        any(map(list.append, lists, repeat(i)))  # append returns None: drains the map
    found: list[UnaryInd] = []
    for i, (lhs, size) in enumerate(zip(attrs, sizes)):
        if not size:
            continue
        row = earlier[i]
        for j, rhs in enumerate(attrs):
            if j != i:
                # dict.get: a missing Counter key would go through a
                # Python-level __missing__ call, and most pairs share no value
                shared = row.get(j, 0) if j < i else earlier[j].get(i, 0)
                error = (size - shared) / size
                if error <= alpha:
                    found.append(UnaryInd(lhs, rhs, error))
    return IndSet(tuple(found), alpha)


def dedupe_bidirectional(ind_set: IndSet) -> IndSet:
    """Resolve mutual approximate INDs, keeping the lower-error direction.

    Mutual exact INDs are both kept (they define cycles that later share a
    type). Equal nonzero errors keep the IND whose lhs sorts first.
    """
    by_key = {(i.lhs, i.rhs): i for i in ind_set.inds}
    kept: list[UnaryInd] = []
    for ind in ind_set.inds:
        reverse = by_key.get((ind.rhs, ind.lhs))
        if (
            reverse is None
            or ind.error == 0.0
            or reverse.error == 0.0
            or (ind.error, ind.lhs) < (reverse.error, reverse.lhs)
        ):
            kept.append(ind)
    return IndSet(tuple(sorted(kept)), ind_set.alpha)


def format_ind_set(ind_set: IndSet) -> str:
    """One IND per line, lexicographically sorted."""
    lines = sorted(str(i) for i in ind_set.inds)
    return "\n".join(lines) + ("\n" if lines else "")
