"""Bottom-up learning of Horn definitions.

One clause at a time: saturate a seed example into its bottom clause (the
most specific clause covering it, built by walking tuples that share
constants with the clause so far), then generalize by dropping blocking
atoms until sampled positives are covered, keeping the best-scoring
clauses in a beam. Accepted clauses remove the positives they cover;
rejected seeds are discarded so the outer loop always terminates.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass
from itertools import chain, filterfalse, groupby
from typing import Callable, Sequence

from .biasgen import BiasSpec
from .clauses import (
    Clause,
    HornDefinition,
    Literal,
    Term,
    _head_binding,
    canonical_text,
    fold_singleton_literals,
    minimize,
    var,
)
from .coverage import check_body, covered_examples
from .errors import ConfigError, ValidationError
from .relstore import DatabaseInstance, ExampleSet
from .witness import _components, find_witness


@dataclass(frozen=True)
class LearnConfig:
    iterations: int = 2
    beam_width: int = 3
    sample_size: int = 20
    min_precision: float = 0.5
    min_positives: int | None = None  # None: 2, or 1 for tiny example sets
    per_relation_cap: int = 100
    rng_seed: int = 1

    def __post_init__(self) -> None:
        for name in ("iterations", "beam_width", "sample_size", "per_relation_cap"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        if not 0.0 < self.min_precision <= 1.0:
            raise ConfigError("min_precision must be in (0,1]")
        if self.min_positives is not None and self.min_positives < 1:
            raise ConfigError("min_positives must be >= 1")

    def resolved_min_positives(self, positive_count: int) -> int:
        if self.min_positives is not None:
            return self.min_positives
        return 2 if positive_count >= 4 else 1


@dataclass(frozen=True)
class BottomClause:
    """A bottom clause and its seed's witness: the value of each variable."""

    clause: Clause
    witness: dict[Term, str]


class CoverageCache:
    """Coverage tests, and other pure steps, against one immutable database.

    The examples to be queried are known up front (the universe): a clause
    is evaluated against all of them once, kept per clause, and each test
    is then a set lookup; `uncovered` and `count` answer a whole list with
    one lookup of the clause. A test of an example outside the universe
    raises `ValidationError`. The cache hands `covered_examples` one store
    of covered key sets per head-linked component, so a component is
    evaluated once whichever clauses hold it: armg's results and their
    folds, `_holds_for`'s blocked prefixes and the lgg candidates share one
    entry per component shape, and so do alphabetic variants and twin
    components within one clause.

    Each other step the cache keeps has a named store, keyed by every
    input of the step but this database (`db`), so runs over different
    example sets against the same database (the folds of `cross_validate`)
    can share one cache: `bottoms` keeps `learn_definition`'s bottom
    clauses, `folds` the singleton folds, `armg` each beam clause's armg
    steps and distinct results, `grounds` `lgg_learn`'s saturation bias
    and ground bottom clauses, and `lgg_steps` its pairwise lggs. A
    universe larger than the training set leaks nothing: `_cover_set`,
    `generalize_clause` and `score` only ask about training examples, and
    a clause's coverage of one example does not depend on which other
    examples were evaluated with it. Functions that take a cache get it
    through `of`, which refuses a cache over another database; a cache
    whose universe lacks an example they ask about refuses that test.
    """

    def __init__(self, db: DatabaseInstance, universe):
        self.db = db
        self._universe = frozenset(universe)
        self._covered: dict[Clause, frozenset[tuple[str, ...]]] = {}
        self._components: dict = {}
        # (bias, iterations, per_relation_cap) -> {seed: bottom clause}: a
        # run hashes its saturation input once, and a bottom clause stays
        # one object across runs, as does every clause armg derives from it
        self.bottoms: dict[tuple, dict[tuple[str, ...], Clause]] = {}
        # clause -> its singleton fold; a fresh fold is also its own
        self.folds: dict[Clause, Clause] = {}
        # beam clause -> ({example: folded armg result}, {distinct raw armg
        # result: its fold}), the second for `_holds_for` to reuse
        self.armg: dict[Clause, tuple[dict, dict[Clause, Clause]]] = {}
        # (target, predicates) -> (implicit bias, {(iterations,
        # per_relation_cap): {example: ground bottom clause}})
        self.grounds: dict[tuple, tuple[BiasSpec, dict]] = {}
        # (clause, ground bottom clause) -> their lgg, or None for a stop
        self.lgg_steps: dict[tuple[Clause, Clause], Clause | None] = {}

    @classmethod
    def of(cls, db: DatabaseInstance, cache: CoverageCache | None, *example_groups):
        """`cache`, which must be over `db`; without one, a new cache whose
        universe is every example of `example_groups`."""
        if cache is None:
            return cls(db, chain(*example_groups))
        if cache.db is not db:
            raise ValidationError("the coverage cache is over another database")
        return cache

    def covers(self, clause: Clause, example: tuple[str, ...]) -> bool:
        if example not in self._universe:
            raise ValidationError(f"example {example!r} is outside the cache's universe")
        return example in self._covered_set(clause)

    def count(self, clause: Clause, examples: Sequence[tuple[str, ...]]) -> int:
        """How many of `examples` the clause covers, a duplicate counted
        each time it occurs."""
        return len(examples) - len(self.uncovered(clause, examples))

    def uncovered(self, clause: Clause, examples: Sequence[tuple[str, ...]]) -> list:
        """The examples the clause does not cover, in order, duplicates
        kept: one universe check and one lookup of the clause's covered
        set, filtered in one C-level pass."""
        if not examples:
            return []  # nothing asked: no coverage pass
        if not self._universe.issuperset(examples):
            outside = next(e for e in examples if e not in self._universe)
            raise ValidationError(f"example {outside!r} is outside the cache's universe")
        return list(filterfalse(self._covered_set(clause).__contains__, examples))

    def _covered_set(self, clause: Clause) -> frozenset[tuple[str, ...]]:
        covered = self._covered.get(clause)
        if covered is None:
            covered = covered_examples(
                clause, self._universe, self.db, components=self._components
            )
            self._covered[clause] = covered
        return covered


# -- bottom-clause construction ----------------------------------------------


def build_bottom_clause(
    example: tuple[str, ...],
    db: DatabaseInstance,
    bias: BiasSpec,
    cfg: LearnConfig,
) -> BottomClause:
    """Most specific clause covering `example`, relative to the database.

    Constants are replaced by variables through an injective map. Each
    round scans tuples sharing a constant with the previous round's
    additions; a tuple contributes one literal, shaped by the first mode it
    satisfies. A '+' position only accepts a constant that is already
    mapped and whose accumulated types intersect the position's declared
    types, which keeps every emitted join licensed by the bias. A value
    first seen at a position that some mode of its relation marks '#'
    becomes a variable but does not seed the next round, unless the same
    tuple also holds it at a position no mode marks '#': the bias treats
    such values as constants, and walking through one would reach every
    tuple that shares it.
    """
    target = bias.head_mode.relation
    if len(example) != len(bias.head_mode.symbols):
        raise ValidationError(
            f"example arity {len(example)} does not match target {target}"
        )
    state = _SaturationState(bias)
    head_args = []
    for pos, value in enumerate(example):
        head_args.append(state.bind(value, target, pos))
    head = Literal(target, tuple(head_args))
    body = _saturate(example, db, cfg, state)
    return BottomClause(Clause(head, body), {t: v for v, t in state.var_map.items()})


_NO_TYPES: frozenset[str] = frozenset()


class _SaturationState:
    """Constant-to-variable map plus accumulated type evidence.

    `prov[c]` narrows as `c` recurs: a constant participates in a join only
    while some single type is consistent with all of its occurrences.
    """

    def __init__(self, bias: BiasSpec):
        self.bias = bias
        self.var_map: dict[str, Term] = {}
        self.prov: dict[str, frozenset[str]] = {}
        # the union of the types any declaration allows at each argument
        # slot, built once: saturation asks per tuple value
        slots: dict[tuple[str, int], set[str]] = {}
        for d in bias.predicates:
            for pos, t in enumerate(d.types):
                slots.setdefault((d.relation, pos), set()).add(t)
        self.slot_types = {k: frozenset(v) for k, v in slots.items()}

    def bind(self, value: str, relation: str, position: int) -> Term:
        types = self.slot_types.get((relation, position), _NO_TYPES)
        if value in self.var_map:
            self.prov[value] = self.prov[value] & types
            return self.var_map[value]
        fresh = var(f"v{len(self.var_map)}")
        self.var_map[value] = fresh
        self.prov[value] = types
        return fresh

    def try_mode(
        self, relation: str, row: tuple[str, ...], symbols: tuple[str, ...]
    ) -> tuple[Literal, list[str]] | None:
        """Literal for `row` under one mode, or None if the mode fails.

        Also returns the constants first seen here. State commits only on
        success, so a failed mode leaves no trace.
        """
        pending: dict[str, frozenset[str]] = {}
        minted: list[str] = []
        slot_types = self.slot_types
        for pos, (value, sym) in enumerate(zip(row, symbols)):
            if sym == "#":
                continue
            types_here = slot_types.get((relation, pos), _NO_TYPES)
            previous = pending.get(value, self.prov.get(value))
            if previous is None:
                if sym == "+":
                    return None
                pending[value] = types_here
                minted.append(value)
            else:
                joined = previous & types_here
                if not joined:
                    return None
                pending[value] = joined
        self.prov.update(pending)
        for value in minted:
            self.var_map[value] = var(f"v{len(self.var_map)}")
        args = tuple(
            value if sym == "#" else self.var_map[value] for value, sym in zip(row, symbols)
        )
        return Literal(relation, args), minted


def _saturate(
    example: tuple[str, ...],
    db: DatabaseInstance,
    cfg: LearnConfig,
    state: _SaturationState,
) -> tuple[Literal, ...]:
    body: list[Literal] = []
    emitted: set[Literal] = set()
    # each relation's modes, and the positions where a value minted only
    # there does not seed the next round, read once for every round
    plans = []
    for schema in db.schemas:
        modes = state.bias.modes_for(schema.name)
        if modes:
            constant = {i for m in modes for i, sym in enumerate(m.symbols) if sym == "#"}
            plans.append((schema.name, modes, constant))
    frontier = list(dict.fromkeys(example))
    for _ in range(cfg.iterations):
        if not frontier:
            break
        frontier_set = set(frontier)
        added: list[str] = []
        for relation, modes, constant in plans:
            produced = 0
            for row in db.relation_rows(relation):
                if produced >= cfg.per_relation_cap:
                    break
                if frontier_set.isdisjoint(row):
                    continue
                for mode in modes:
                    result = state.try_mode(relation, row, mode.symbols)
                    if result is None:
                        continue
                    literal, minted = result
                    if literal not in emitted:
                        emitted.add(literal)
                        body.append(literal)
                        produced += 1
                        if constant and minted:
                            open_values = {
                                v for i, v in enumerate(row) if i not in constant
                            }
                            minted = [v for v in minted if v in open_values]
                        added.extend(minted)
                    break  # first satisfied mode wins
        frontier = list(dict.fromkeys(added))
    return tuple(body)


# -- generalization ------------------------------------------------------------


def armg(clause: Clause, example: tuple[str, ...], db: DatabaseInstance) -> Clause:
    """Drop blocking atoms until `example` is covered.

    A blocking atom is the earliest body literal whose prefix fails to
    cover the example; dropping them one at a time is equivalent to a single
    left-to-right pass that keeps each literal exactly when it is jointly
    satisfiable with the literals kept so far. armg holds one satisfying
    assignment of the kept prefix, starting from the head binding, and
    first extends it by one row of the new literal, a one-literal
    `find_witness` call. Only when no row fits does it search the
    literal's group under the head binding (the literals that
    non-head variables join to it), and the group's solution replaces
    the assignment's values for its variables.
    The assignment only seeds later extensions: the kept literals do not
    depend on it. `_connected_order` then drops the kept literals that no
    chain of shared variables joins to the head and orders the rest. A
    clause `check_body` refuses raises `ValidationError`.
    """
    check_body(clause, db)
    binding = _head_binding(clause.head, example)
    if binding is None:
        raise ValidationError(f"head {clause.head} cannot cover {example} at all")

    kept: list[Literal] = []
    assignment = binding  # satisfies every kept literal
    for lit in clause.body:
        extended = find_witness([lit], assignment, db)
        if extended is None:
            # the first group holds `lit`: the rest of the prefix cannot block it
            group = _components([lit, *kept], binding)[0]
            solved = find_witness(group, binding, db)
            if solved is None:
                continue  # lit is the blocking atom of the kept prefix: drop it
            extended = {**assignment, **solved}
        kept.append(lit)
        assignment = extended
    return Clause(clause.head, tuple(_connected_order(clause.head, kept)))


def _connected_order(head: Literal, body: list[Literal]) -> list[Literal]:
    """The literals of `body` that a chain of shared variables joins to the
    head, each placed at the earliest body position that shares a variable
    with the head or with a literal already placed."""
    holders: dict[Term, list[int]] = {}
    for i, lit in enumerate(body):
        for v in lit.variables():
            holders.setdefault(v, []).append(i)
    reached: list[int] = []  # a heap of the positions joined to what is placed
    pushed: set[int] = set()
    ordered: list[Literal] = []
    lit = head
    while True:
        for v in lit.variables():
            for i in holders.pop(v, ()):
                if i not in pushed:
                    pushed.add(i)
                    heapq.heappush(reached, i)
        if not reached:
            return ordered
        lit = body[heapq.heappop(reached)]
        ordered.append(lit)


def score(
    clause: Clause,
    positives: tuple[tuple[str, ...], ...],
    negatives: tuple[tuple[str, ...], ...],
    db: DatabaseInstance,
    cache: CoverageCache | None = None,
) -> int:
    """Covered positives minus covered negatives."""
    cache = CoverageCache.of(db, cache, positives, negatives)
    return cache.count(clause, positives) - cache.count(clause, negatives)


def generalize_clause(
    bottom: Clause,
    positives: tuple[tuple[str, ...], ...],
    negatives: tuple[tuple[str, ...], ...],
    db: DatabaseInstance,
    cfg: LearnConfig,
    rng: random.Random | None = None,
    cache: CoverageCache | None = None,
) -> Clause:
    """Beam search over repeated blocking-atom drops.

    Each round samples positives, generalizes every beam clause toward the
    sampled examples it misses, and keeps the top clauses by score (ties:
    shorter body, then clause text, rendered only for the ties that reach
    into the beam: `_top_ranked`). Search stops when no candidate beats
    the best score seen so far. A sampled example the head cannot bind to
    (`clauses._head_binding`) is skipped: no body could cover it. Every
    coverage read goes through the clause's fold
    (`fold_singleton_literals`, kept in `cache.folds` by `_folded`), which
    covers what the clause covers with fewer components to evaluate; the
    ranking reads the clause itself. The winner is returned folded even
    when it is the bottom clause itself.

    Every coverage test is a lookup in `cache`, whose universe must hold
    `positives` and `negatives`. `cache.armg` keeps, per beam clause, the
    folded result of each armg step by example and each distinct raw
    result with its fold, whichever example produced it.

    Before armg runs on a beam clause `b` and a sampled example `e`, each
    distinct earlier result `c = armg(b, e')` is tried (`_holds_for`): `c`
    must cover `e`, and each literal of `b` that `c` leaves out, placed
    after the literals of `c` before it in `b`, must not cover `e` under
    `b`'s head. Those clauses depend on `b` and `c` alone, so each test is
    a lookup in cached component passes. Then armg's greedy pass over `b`
    for `e` keeps exactly `c`'s literals, by induction over `b`: a literal
    of `c` is kept, as it and the kept prefix are a subset of `c`, which
    covers `e`; and a left-out literal fails armg's own test, which the
    lookup read. So the reuse returns what armg would, and any other case,
    a kept literal that `_connected_order` dropped included, falls through
    to armg; the clauses are the same whichever runs shared the cache. A
    bottom clause `check_body` refuses raises `ValidationError`.
    """
    check_body(bottom, db)
    rng = rng if rng is not None else random.Random(cfg.rng_seed)
    cache = CoverageCache.of(db, cache, positives, negatives)

    def clause_score(c: Clause) -> int:
        return score(_folded(c, cache), positives, negatives, db, cache)

    best = bottom
    best_score = clause_score(best)
    beam = [best]
    pool = list(positives)
    while True:
        sample = rng.sample(pool, min(cfg.sample_size, len(pool)))
        candidates: list[Clause] = []
        seen: set[Clause] = set()
        for b in beam:
            # armg keeps exactly the literals jointly satisfiable with the
            # kept prefix: b and e are its whole input
            steps, results = cache.armg.setdefault(b, ({}, {}))
            for e in cache.uncovered(_folded(b, cache), sample):
                if _head_binding(b.head, e) is None:
                    continue  # head shape (e.g. repeated variable) cannot fit e
                c = steps.get(e)
                if c is None:
                    for raw, c in results.items():
                        if _holds_for(b, raw, c, e, cache):
                            break
                    else:
                        raw = armg(b, e, db)
                        c = results[raw] = _folded(raw, cache)
                    steps[e] = c
                if c not in seen:
                    seen.add(c)
                    candidates.append(c)
        if not candidates:
            break
        ranked = _top_ranked(candidates, clause_score, cfg.beam_width)
        top_score = clause_score(ranked[0])
        if top_score <= best_score:
            break
        best, best_score = ranked[0], top_score
        beam = ranked
    return minimize(_folded(best, cache))


def _top_ranked(
    candidates: list[Clause], clause_score: Callable[[Clause], int], width: int
) -> list[Clause]:
    """The first `width` of `candidates` ordered by (-score, body length,
    `canonical_text`), the order of `candidates` breaking what is left.

    Candidates are sorted by score and length alone; canonical text, the
    costliest key, is rendered only for runs of equal score and length
    that start within the first `width` places, the only ties that decide
    which clauses are returned."""
    keys = [(-clause_score(c), len(c.body)) for c in candidates]
    order = sorted(range(len(candidates)), key=keys.__getitem__)
    top: list[Clause] = []
    for _, run in groupby(order, keys.__getitem__):
        tied = [candidates[i] for i in run]
        if len(tied) > 1:
            tied.sort(key=canonical_text)
        top += tied
        if len(top) >= width:
            break
    return top[:width]


def _folded(clause: Clause, cache: CoverageCache) -> Clause:
    """`fold_singleton_literals(clause)`, kept in `cache.folds`."""
    folded = cache.folds.get(clause)
    if folded is None:
        folded = cache.folds[clause] = fold_singleton_literals(clause)
        cache.folds.setdefault(folded, folded)  # the fold is idempotent
    return folded


def _holds_for(
    clause: Clause,
    result: Clause,
    folded: Clause,
    example: tuple[str, ...],
    cache: CoverageCache,
) -> bool:
    """True when `result`, armg's result for `clause` and another example,
    is also `armg(clause, example)`, shown without armg's pass.

    `result` must cover `example`: its coverage is read through its fold
    `folded`, which scoring computes anyway. And each body literal of
    `clause` that `result` leaves out must fail armg's own test: the
    literals of `result` before it in `clause`, then the literal, under
    the head of `clause`, must not cover `example`. One walk over
    `clause`'s body builds and folds (`_folded`) each such blocked prefix
    only when it reaches it, and stops at the first that covers `example`:
    no witness search runs, and as the prefixes follow `clause`'s order,
    many of their components are those of its other subsequences, already
    in the store. `generalize_clause` states why that is exact.
    """
    if not cache.covers(folded, example):
        return False
    kept = set(result.body)
    prefix: list[Literal] = []
    for lit in clause.body:
        if lit in kept:
            prefix.append(lit)
        elif cache.covers(_folded(Clause(clause.head, (*prefix, lit)), cache), example):
            return False
    return True


# -- cover-set loop --------------------------------------------------------------


def learn_definition(
    db: DatabaseInstance,
    examples: ExampleSet,
    bias: BiasSpec,
    cfg: LearnConfig,
    cache: CoverageCache | None = None,
) -> HornDefinition:
    """Cover-set learning: seed, saturate, generalize, gate, repeat.

    A clause enters the definition only if its training precision reaches
    `min_precision` and it covers at least the resolved minimum of
    positives; otherwise the seed is discarded as uncoverable, which bounds
    the loop by the number of positives. A shared `cache`, whose universe
    must hold every training example, also keeps each bottom clause
    (`cache.bottoms`), singleton fold (`cache.folds`) and armg step
    (`cache.armg`) for the later runs that share it.
    """
    cache = CoverageCache.of(db, cache, examples.positives, examples.negatives)
    bottoms = cache.bottoms.setdefault((bias, cfg.iterations, cfg.per_relation_cap), {})

    def learn_one(uncovered: list[tuple[str, ...]], rng: random.Random) -> Clause:
        seed = uncovered[0]
        bottom = bottoms.get(seed)
        if bottom is None:
            bottom = bottoms[seed] = build_bottom_clause(seed, db, bias, cfg).clause
        return generalize_clause(
            bottom,
            tuple(uncovered),
            examples.negatives,
            db,
            cfg,
            rng=rng,
            cache=cache,
        )

    return _cover_set(examples, cfg, learn_one=learn_one, cache=cache)


def _cover_set(
    examples: ExampleSet,
    cfg: LearnConfig,
    learn_one: Callable[[list, random.Random], Clause],
    cache: CoverageCache,
) -> HornDefinition:
    positives = list(examples.positives)
    if not positives:
        return HornDefinition(())
    min_positives = cfg.resolved_min_positives(len(positives))
    rng = random.Random(cfg.rng_seed)
    learned: list[Clause] = []
    uncovered = list(positives)
    while uncovered:
        seed = uncovered[0]
        clause = learn_one(uncovered, rng)
        tp = cache.count(clause, examples.positives)
        fp = cache.count(clause, examples.negatives)
        precision = tp / (tp + fp) if tp + fp else 0.0
        if precision >= cfg.min_precision and tp >= min_positives:
            learned.append(clause)
            uncovered = cache.uncovered(clause, uncovered)
            # armg and lgg generalize only clauses covering the seed; removing
            # it anyway keeps the loop finite for a learn_one that does not
            if seed in uncovered:
                uncovered.remove(seed)
        else:
            uncovered.remove(seed)
    return HornDefinition(tuple(learned))
