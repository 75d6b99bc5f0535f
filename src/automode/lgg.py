"""Least-general generalization and the learner variant built on it.

Generalizing two clauses pairs up same-relation literals and replaces each
disagreeing term pair with one variable per distinct pair, so the body can
grow multiplicatively; every generalization step therefore deep-reduces
the result. This learner needs predicate declarations to restrict joins
but no mode definitions: constants survive exactly where both clauses
agree.

The learner's fold stops, without building the step's lgg, at an example
whose ground bottom clause its clause already subsumes. That is exact: when
`c` subsumes `d`, `lgg(c, d)` is equivalent to `c` (Plotkin, 1970), so it
covers the same examples, scores the same, and the fold would have stopped
there after building, reducing and scoring it.
"""

from __future__ import annotations

import random
import re
from typing import Iterable

from . import clauses
from .biasgen import BiasSpec
from .clauses import Clause, HornDefinition, Literal, Term, minimize, var
from .errors import ConfigError, ValidationError
from .learner import (
    CoverageCache,
    LearnConfig,
    _cover_set,
    ground_bottom_clause,
    implicit_bias,
    score,
)
from .relstore import DatabaseInstance, ExampleSet

_VAR_SUFFIX = re.compile(r"^v(\d+)$")
# the most tuples `lgg_learn` accepts, well above what it can finish on
_GUARD = 10_000


class VarPairTable:
    """One stable fresh variable per ordered pair of distinct terms."""

    def __init__(self, reserved: Iterable[Term] = ()):
        self._pairs: dict[tuple[Term, Term], Term] = {}
        self._next = 0
        for term in reserved:
            m = _VAR_SUFFIX.match(term.symbol)
            if term.is_var and m:
                self._next = max(self._next, int(m.group(1)) + 1)

    def variable_for(self, a: Term, b: Term) -> Term:
        key = (a, b)
        if key not in self._pairs:
            self._pairs[key] = var(f"v{self._next}")
            self._next += 1
        return self._pairs[key]


def lgg_terms(a: Term, b: Term, table: VarPairTable) -> Term:
    """Identical terms stay; distinct pairs map to their shared variable."""
    if a == b:
        return a
    return table.variable_for(a, b)


def lgg_literals(a: Literal, b: Literal, table: VarPairTable) -> Literal:
    """The generalization of two literals of one relation and arity."""
    return Literal(a.relation, tuple(lgg_terms(x, y, table) for x, y in zip(a.args, b.args)))


def lgg_clauses(c1: Clause, c2: Clause, reduce: bool = True) -> Clause:
    """Pairwise generalization of compatible literals under one shared table.

    Each literal of `c1` meets only `c2`'s literals of its relation and
    arity, in `c2`'s order: the pairs that generalize, met in the order of
    the all-pairs loop, so the body and its variable names are that loop's.
    The result subsumes both inputs; with `reduce` (the default) it is also
    deep-reduced, which collapses the pairwise product back to its
    non-redundant core.
    """
    if c1.head.relation != c2.head.relation or len(c1.head.args) != len(c2.head.args):
        raise ValidationError(
            f"incompatible heads: {c1.head} vs {c2.head}"
        )
    table = VarPairTable(c1.variables() + c2.variables())
    head = lgg_literals(c1.head, c2.head, table)
    partners: dict[tuple[str, int], list[Literal]] = {}
    for l2 in c2.body:
        partners.setdefault((l2.relation, len(l2.args)), []).append(l2)
    body: list[Literal] = []
    seen: set[Literal] = set()
    for l1 in c1.body:
        for l2 in partners.get((l1.relation, len(l1.args)), ()):
            lit = lgg_literals(l1, l2, table)
            if lit not in seen:
                seen.add(lit)
                body.append(lit)
    clause = Clause(head, tuple(body))
    return minimize(clause, deep=True) if reduce else clause


def lgg_learn(
    db: DatabaseInstance,
    examples: ExampleSet,
    bias: BiasSpec,
    cfg: LearnConfig,
    cache: CoverageCache | None = None,
) -> HornDefinition:
    """Cover-set learning where each clause is a fold of lgg over the
    ground bottom clauses of sampled positives.

    Takes the arguments of `learner.learn_definition` but reads only
    `bias.predicates`: the mode definitions and the head mode are ignored.
    The fold starts from the seed's ground bottom clause itself, which is
    its own core: its body holds no duplicate, and a ground literal maps
    only onto itself. It keeps a step's lgg while it scores higher than the
    clause so far, and stops at the first that does not, or, before
    building the step, at an example whose ground bottom clause the clause
    subsumes. That stop is exact: if θ maps the clause into the bottom
    clause, X ↦ var(X, Xθ) maps it into their lgg, and projecting each
    variable pair onto its first term maps the lgg back, so the two are
    equivalent and score the same. Refuses databases above `_GUARD`
    tuples: repeated generalization grows clauses multiplicatively and
    evaluation cost becomes prohibitive well before memory does. A shared
    `cache`, whose universe should hold every training example, also keeps
    the saturation bias, each ground bottom clause and each step's lgg, or
    `None` for a stop, for the later runs that share it.
    """
    total = db.total_tuples()
    if total > _GUARD:
        raise ConfigError(
            f"database has {total} tuples, above the lgg guard of {_GUARD}; "
            "this generalizer is only tractable on small databases - use the "
            "default generalizer"
        )
    predicates = bias.predicates
    target = examples.target.name
    if not db.has_relation(target):
        raise ValidationError(f"target relation not registered: {target}")
    if not any(d.relation == target for d in predicates):
        raise ValidationError(f"no predicate declaration for target {target}")
    cache = CoverageCache.of(db, cache, examples.positives, examples.negatives)
    saturation = cache.memo(
        ("implicit bias", target, predicates),
        lambda: implicit_bias(db, target, predicates),
    )
    # one token per distinct saturation input, so the per-example keys
    # below hash the predicate declarations once per call, not per lookup
    inputs = cache.memo(
        ("ground inputs", target, predicates, cfg.iterations, cfg.per_relation_cap),
        object,
    )

    def ground(example: tuple[str, ...]) -> Clause:
        return cache.memo(
            ("ground", inputs, example),
            lambda: ground_bottom_clause(example, db, saturation, cfg),
        )

    def step(clause: Clause, example: tuple[str, ...], bottom: Clause) -> Clause | None:
        # None when `clause` subsumes `bottom`. The subsumption implies that
        # `clause` covers `example`, a set lookup into the pass that scored
        # `clause`, so an uncovered example needs no search. `subsumes` is
        # looked up on its module, where the bench's tracer counts it.
        if cache.covers(clause, example) and clauses.subsumes(clause, bottom):
            return None
        return lgg_clauses(clause, bottom)

    def learn_one(uncovered: list[tuple[str, ...]], rng: random.Random) -> Clause:
        seed = uncovered[0]
        sampled = set(rng.sample(uncovered, min(cfg.sample_size, len(uncovered))))
        sampled.add(seed)
        fold = [seed] + [e for e in uncovered[1:] if e in sampled]
        clause = ground(seed)
        best = score(clause, uncovered, examples.negatives, db, cache)
        for example in fold[1:]:
            bottom = ground(example)
            candidate = cache.memo(
                ("lgg", clause, bottom), lambda: step(clause, example, bottom)
            )
            if candidate is None:
                break
            cand_score = score(candidate, uncovered, examples.negatives, db, cache)
            if cand_score > best:
                clause, best = candidate, cand_score
            else:
                break
        return clause

    return _cover_set(db, examples, cfg, learn_one, cache)
