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
from collections import defaultdict
from itertools import count

from . import clauses
from .biasgen import BiasSpec, generate_modes
from .clauses import Clause, HornDefinition, Literal, Term, apply_renaming, minimize, var
from .errors import ConfigError, ValidationError
from .learner import CoverageCache, LearnConfig, _cover_set, build_bottom_clause, score
from .relstore import DatabaseInstance, ExampleSet

_VAR_SUFFIX = re.compile(r"^v(\d+)$")
# the most tuples `lgg_learn` accepts, well above what it can finish on
_GUARD = 10_000


def lgg_clauses(c1: Clause, c2: Clause, reduce: bool = True) -> Clause:
    """Pairwise generalization of compatible literals, built in one pass.

    One dict maps each ordered pair of terms to its generalization: an
    identical pair to the term itself, seeded up front, and each distinct
    pair, on its first lookup, to a fresh variable numbered after the
    highest `v<N>` variable of either clause. Each literal of `c1` meets
    only `c2`'s literals of its relation and arity, in `c2`'s order: the
    pairs that generalize, met in the order of the all-pairs loop, so the
    body and its variable names are that loop's. Each generalized literal
    maps the dict over its argument pairs, and a dict keeps the first of
    equal ones. The result subsumes both inputs; with `reduce` (the
    default) it is also deep-reduced, which collapses the pairwise product
    back to its non-redundant core.
    """
    if c1.head.relation != c2.head.relation or len(c1.head.args) != len(c2.head.args):
        raise ValidationError(
            f"incompatible heads: {c1.head} vs {c2.head}"
        )
    terms = {t for lit in (c1.head, c2.head, *c1.body, *c2.body) for t in lit.args}
    taken = [int(m[1]) for t in terms if type(t) is Term and (m := _VAR_SUFFIX.match(t.symbol))]
    numbers = count(max(taken, default=-1) + 1)
    names = defaultdict(lambda: var(f"v{next(numbers)}"), {(t, t): t for t in terms})
    pair = names.__getitem__
    head = Literal(c1.head.relation, tuple(map(pair, zip(c1.head.args, c2.head.args))))
    partners: dict[tuple[str, int], list[tuple[Term | str, ...]]] = {}
    for l2 in c2.body:
        partners.setdefault((l2.relation, len(l2.args)), []).append(l2.args)
    body = dict.fromkeys(
        Literal(l1.relation, tuple(map(pair, zip(l1.args, args2))))
        for l1 in c1.body
        for args2 in partners.get((l1.relation, len(l1.args)), ())
    )
    clause = Clause(head, tuple(body))
    return minimize(clause, deep=True) if reduce else clause


def ground_bottom_clause(
    example: tuple[str, ...],
    db: DatabaseInstance,
    bias: BiasSpec,
    cfg: LearnConfig,
) -> Clause:
    """Ground variant used by the lgg learner: the bottom clause under
    `bias`, built by `implicit_bias`, each variable put back to the
    constant it stands for."""
    bottom = build_bottom_clause(example, db, bias, cfg)
    return apply_renaming(bottom.clause, bottom.witness)


def implicit_bias(db: DatabaseInstance, target: str, predicates: tuple) -> BiasSpec:
    """The lgg learner's saturation bias: the `predicates` as given, and
    implicit one-'+' modes for every declared relation. It scans every
    column of `db`, so a run builds it once for all its examples."""
    # a constant threshold of 1 admits no constant: one '+' per mode
    head, modes = generate_modes(db, 1, target)
    declared = {d.relation for d in predicates}
    kept = tuple(m for m in modes if m.relation in declared)
    return BiasSpec(tuple(predicates), kept, head)


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
    `cache`, whose universe must hold every training example, also keeps
    the saturation bias and each ground bottom clause (`cache.grounds`),
    and each step's lgg, or `None` for a stop (`cache.lgg_steps`), for the
    later runs that share it.
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
    if (target, predicates) not in cache.grounds:
        cache.grounds[target, predicates] = (implicit_bias(db, target, predicates), {})
    saturation, by_config = cache.grounds[target, predicates]
    grounds = by_config.setdefault((cfg.iterations, cfg.per_relation_cap), {})

    def ground(example: tuple[str, ...]) -> Clause:
        bottom = grounds.get(example)
        if bottom is None:
            bottom = grounds[example] = ground_bottom_clause(example, db, saturation, cfg)
        return bottom

    def learn_one(uncovered: list[tuple[str, ...]], rng: random.Random) -> Clause:
        seed = uncovered[0]
        sampled = set(rng.sample(uncovered, min(cfg.sample_size, len(uncovered))))
        sampled.add(seed)
        fold = [seed] + [e for e in uncovered[1:] if e in sampled]
        clause = ground(seed)
        best = score(clause, uncovered, examples.negatives, db, cache)
        for example in fold[1:]:
            bottom = ground(example)
            try:
                candidate = cache.lgg_steps[clause, bottom]
            except KeyError:
                # None when `clause` subsumes `bottom`. The subsumption
                # implies that `clause` covers `example`, a set lookup into
                # the pass that scored `clause`, so an uncovered example
                # needs no search. `subsumes` is looked up on its module,
                # where the bench's tracer counts it.
                stop = cache.covers(clause, example) and clauses.subsumes(clause, bottom)
                candidate = None if stop else lgg_clauses(clause, bottom)
                cache.lgg_steps[clause, bottom] = candidate
            if candidate is None:
                break
            cand_score = score(candidate, uncovered, examples.negatives, db, cache)
            if cand_score > best:
                clause, best = candidate, cand_score
            else:
                break
        return clause

    return _cover_set(examples, cfg, learn_one=learn_one, cache=cache)
