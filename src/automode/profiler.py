"""Unary inclusion-dependency discovery over database content.

An IND `R[A] <= S[B]` holds exactly when every distinct value of column
R[A] also appears in S[B]; the error of an approximate IND is the fraction
of distinct R[A] values that would have to be removed for it to hold.

Discovery reads an inverted index of values (De Marchi, Lopes & Petit,
JIIS 2009): each distinct value maps to the columns that hold it. The
index grows one column at a time, and before a column joins the holder
lists of its values, one count over those lists gives its overlap with
every earlier column, so each unordered pair is counted once. Both
directions read that one integer: error = (|left| - overlap) / |left| is
the same fraction of the same integers as a set difference, so errors are
exact.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from itertools import chain, repeat
from operator import itemgetter

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
    columns = [frozenset(map(itemgetter(a.position), db.rows[a.relation])) for a in attrs]
    # earlier[i][j] = |columns[i] & columns[j]| for j < i, where nonzero
    holders: defaultdict[str, list[int]] = defaultdict(list)
    earlier: list[Counter[int]] = []
    for i, column in enumerate(columns):
        lists = list(map(holders.__getitem__, column))
        earlier.append(Counter(chain.from_iterable(lists)))
        any(map(list.append, lists, repeat(i)))  # append returns None: drains the map
    found: list[UnaryInd] = []
    for i, (lhs, left) in enumerate(zip(attrs, columns)):
        if not left:
            continue
        size = len(left)
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
