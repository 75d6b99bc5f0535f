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
from functools import partial
from itertools import chain
from typing import Callable, Sequence

from .biasgen import BiasSpec, generate_modes
from .clauses import (
    Clause,
    HornDefinition,
    Literal,
    Term,
    _components,
    _head_binding,
    _image,
    _solve_component,
    apply_renaming,
    canonical_text,
    covered_examples,
    find_witness,
    fold_singleton_literals,
    covers,
    minimize,
    var,
)
from .errors import ConfigError, ValidationError
from .relstore import DatabaseInstance, ExampleSet


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


_MISSING = object()


class CoverageCache:
    """Coverage tests, and other pure steps, against one immutable database.

    The examples to be queried are known up front (the universe): a clause
    is evaluated against all of them in one joined pass, kept per clause,
    and each test is then a set lookup. An example outside the universe is
    tested on its own by `covers`, without a memo.

    `memo` stores the result of any other step that reads nothing but this
    database (`db`) and its key: bottom clauses, armg steps, scoring
    equivalents, ground bottom clauses and pairwise lggs. So runs over
    different example sets against the same database (the folds of
    `cross_validate`) can share one cache. One key per armg input clause
    `b` also gathers the distinct results armg has returned for `b`, each
    with its fold, whichever example produced it: `generalize_clause`
    reuses one for a new example once `_holds_for` shows that armg would
    return it there too. Satisfiability is closed under subsets and armg
    decides each variable-connected group on its own, so that reuse is
    exact, and it gives the same clauses whichever runs shared the cache.
    A universe larger than the training set leaks nothing: `_cover_set`,
    `generalize_clause` and `score` only ask about training examples, and
    a clause's coverage of one example does not depend on which other
    examples were evaluated with it. Functions that take a cache get it
    through `of`, which refuses a cache over another database.
    """

    def __init__(self, db: DatabaseInstance, universe=()):
        self.db = db
        self._universe = frozenset(universe)
        self._covered: dict[Clause, frozenset[tuple[str, ...]]] = {}
        self._memo: dict = {}

    @classmethod
    def of(cls, db: DatabaseInstance, cache: CoverageCache | None, *example_groups):
        """`cache`, which must be over `db`; without one, a new cache whose
        universe is every example of `example_groups`."""
        if cache is None:
            return cls(db, chain(*example_groups))
        if cache.db is not db:
            raise ValidationError("the coverage cache is over another database")
        return cache

    def memo(self, key, compute: Callable[[], object]):
        """The value stored under `key`, or `compute()` stored there first.

        The key must hold every input of `compute` except the database."""
        value = self._memo.get(key, _MISSING)
        if value is _MISSING:
            value = self._memo[key] = compute()
        return value

    def covers(self, clause: Clause, example: tuple[str, ...]) -> bool:
        if example not in self._universe:
            return covers(clause, example, self.db)
        return example in self._covered_set(clause)

    def count(self, clause: Clause, examples: Sequence[tuple[str, ...]]) -> int:
        """How many of `examples` the clause covers, a duplicate counted
        each time it occurs. Examples inside the universe are looked up in
        the clause's joined coverage in one C-level pass; when some lie
        outside it, each example is tested through `covers`."""
        if not examples:
            return 0  # nothing asked: no joined pass
        if self._universe.issuperset(examples):
            return sum(map(self._covered_set(clause).__contains__, examples))
        return sum(map(partial(self.covers, clause), examples))

    def _covered_set(self, clause: Clause) -> frozenset[tuple[str, ...]]:
        covered = self._covered.get(clause)
        if covered is None:
            covered = covered_examples(clause, self._universe, self.db)
            self._covered[clause] = covered
        return covered

    def share_coverage(self, clause: Clause, equivalent: Clause) -> None:
        """Let `equivalent`, a clause subsumption-equivalent to `clause`,
        reuse the joined coverage already computed for `clause`."""
        covered = self._covered.get(clause)
        if covered is not None:
            self._covered.setdefault(equivalent, covered)


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
    constants = {term: Term(value, False) for term, value in bottom.witness.items()}
    return apply_renaming(bottom.clause, constants)


def implicit_bias(db: DatabaseInstance, target: str, predicates: tuple) -> BiasSpec:
    """The lgg learner's saturation bias: the `predicates` as given, and
    implicit one-'+' modes for every declared relation. It scans every
    column of `db`, so a run builds it once for all its examples."""
    # a constant threshold of 1 admits no constant: one '+' per mode
    head, modes = generate_modes(db, 1, target)
    declared = {d.relation for d in predicates}
    kept = tuple(m for m in modes if m.relation in declared)
    return BiasSpec(tuple(predicates), kept, head)


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
            Term(value, False) if sym == "#" else self.var_map[value]
            for value, sym in zip(row, symbols)
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
    frontier = list(dict.fromkeys(example))
    for _ in range(cfg.iterations):
        if not frontier:
            break
        frontier_set = set(frontier)
        added: list[str] = []
        for schema in db.schemas:
            modes = state.bias.modes_for(schema.name)
            if not modes:
                continue
            # a value minted only at these positions does not seed the next round
            constant = {i for m in modes for i, sym in enumerate(m.symbols) if sym == "#"}
            produced = 0
            for row in db.relation_rows(schema.name):
                if produced >= cfg.per_relation_cap:
                    break
                if not frontier_set.intersection(row):
                    continue
                for mode in modes:
                    result = state.try_mode(schema.name, row, mode.symbols)
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
    satisfiable with the literals kept so far. Joint satisfiability only
    changes within the variable-connected component the new literal touches,
    so each decision is a local witness search. `_connected_order` then
    drops the kept literals that no chain of shared variables joins to the
    head and orders the rest.
    """
    binding = _head_binding(clause.head, example)
    if binding is None:
        raise ValidationError(f"head {clause.head} cannot cover {example} at all")

    kept: list[Literal] = []
    # per component: its variables, literals, and one satisfying assignment
    components: list[tuple[set[Term], list[Literal], dict[Term, str]]] = []
    for lit in clause.body:
        unbound = {a for a in lit.args if a.is_var and a not in binding}
        if not unbound:
            if _image(lit, binding) in db.fact_set(lit.relation):
                kept.append(lit)
            continue
        merged_vars = set(unbound)
        merged_lits = [lit]
        combined = dict(binding)
        untouched: list[tuple[set[Term], list[Literal], dict[Term, str]]] = []
        for comp_vars, comp_lits, comp_witness in components:
            if comp_vars & unbound:
                merged_vars |= comp_vars
                merged_lits.extend(comp_lits)
                combined.update(comp_witness)
            else:
                untouched.append((comp_vars, comp_lits, comp_witness))
        # cheapest first: extend the merged witness by a row of `lit`, a
        # component of its own under `combined`; only a conflict forces
        # re-solving the merged component
        witness = _solve_component([lit], combined, db)
        if witness is None:
            witness = find_witness(merged_lits, binding, db)
        if witness is not None:
            kept.append(lit)
            untouched.append((merged_vars, merged_lits, witness))
            components = untouched
        # otherwise lit is the blocking atom of the kept prefix: drop it
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
    shorter body, then clause text). Search stops when no candidate beats
    the best score seen so far. A sampled example the head cannot bind to
    (`clauses._head_binding`) is skipped: no body could cover it. Each
    clause is scored through its `_scoring_equivalent`, and shares that
    clause's coverage; the ranking reads the clause itself. The winner is
    returned folded (`fold_singleton_literals`) even when it is the bottom
    clause itself; the folded clause reuses the winner's cached coverage.

    Before armg runs on a beam clause `b` and an example `e` of the cache's
    universe, each distinct earlier result `c = armg(b, e')` is tried
    (`_holds_for`): `c` must cover `e`, and each literal of `b` that `c`
    leaves out must stay unsatisfiable under `e` together with the
    literals of `c` before it that non-head variables join to it. Then
    armg's greedy pass over `b` for `e` keeps exactly `c`'s literals, by
    induction over `b`: satisfiability is closed under subsets, so a
    literal of `c` is kept, as it and the kept prefix are a subset of `c`,
    which covers `e`; and armg decides each variable-connected group on
    its own, so the rest of that prefix, satisfiable too, cannot unblock a
    left-out literal that its group blocks. So the reuse returns what armg
    would, and any other case, a kept literal that `_connected_order`
    dropped included, falls through to armg.
    """
    rng = rng if rng is not None else random.Random(cfg.rng_seed)
    cache = CoverageCache.of(db, cache, positives, negatives)

    def clause_score(c: Clause) -> int:
        equivalent = _equivalent(c, cache)
        value = score(equivalent, positives, negatives, db, cache)
        cache.share_coverage(equivalent, c)
        return value

    def generalized(b: Clause, e: tuple[str, ...]) -> Clause:
        # armg's results for b, raw and folded; outside the universe a
        # coverage test would be a joined pass of its own, so none is tried
        results = cache.memo(("armg results", b), dict)
        if e in cache._universe:
            for c, folded in results.items():
                if _holds_for(b, c, folded, e, cache):
                    return folded
        c = armg(b, e, db)
        folded = results.get(c)
        if folded is None:
            folded = results[c] = fold_singleton_literals(c)
        return folded

    best = bottom
    best_score = clause_score(best)
    beam = [best]
    pool = list(positives)
    while True:
        sample = rng.sample(pool, min(cfg.sample_size, len(pool)))
        candidates: list[Clause] = []
        seen: set[Clause] = set()
        for b in beam:
            for e in sample:
                if cache.covers(b, e):
                    continue
                if _head_binding(b.head, e) is None:
                    continue  # head shape (e.g. repeated variable) cannot fit e
                # armg keeps exactly the literals jointly satisfiable with
                # the kept prefix: b and e are its whole input
                c = cache.memo(("armg", b, e), lambda: generalized(b, e))
                if c not in seen:
                    seen.add(c)
                    candidates.append(c)
        if not candidates:
            break
        ranked = sorted(
            candidates,
            key=lambda c: (-clause_score(c), len(c.body), canonical_text(c)),
        )
        top_score = clause_score(ranked[0])
        if top_score <= best_score:
            break
        best, best_score = ranked[0], top_score
        beam = ranked[: cfg.beam_width]
    folded = minimize(fold_singleton_literals(best))
    cache.share_coverage(best, folded)
    return folded


def _equivalent(clause: Clause, cache: CoverageCache) -> Clause:
    """The clause's `_scoring_equivalent`, memoized in `cache`."""
    return cache.memo(("equivalent", clause), lambda: _scoring_equivalent(clause))


def _holds_for(
    clause: Clause,
    result: Clause,
    folded: Clause,
    example: tuple[str, ...],
    cache: CoverageCache,
) -> bool:
    """True when `result`, armg's result for `clause` and another example,
    is also `armg(clause, example)`, shown without armg's pass.

    `result` must cover `example`: its coverage is read through the scoring
    equivalent of its fold `folded`, which scoring computes anyway. And
    each body literal of `clause` that `result` leaves out must be
    unsatisfiable under `example` together with the literals of `result`
    before it in `clause` that non-head variables join to it: one witness
    search per left-out literal. `generalize_clause` states why that is
    exact.
    """
    if not cache.covers(_equivalent(folded, cache), example):
        return False
    binding = _head_binding(clause.head, example)
    kept = set(result.body)
    prefix: list[Literal] = []
    for lit in clause.body:
        if lit in kept:
            prefix.append(lit)
            continue
        # the first group holds `lit`: the rest of the prefix cannot block it
        group = _components([lit, *prefix], binding)[0]
        if find_witness(group, binding, cache.db) is not None:
            return False
    return True


def _scoring_equivalent(clause: Clause) -> Clause:
    """A subsumption-equivalent clause found without a search: the
    singleton fold, then one copy of each twin group.

    A group is a set of body literals that non-head variables join; two
    groups are twins when renaming their non-head variables in
    first-occurrence order gives the same literals. That renaming maps a
    later twin onto the first and leaves every other term alone, so the
    clause maps into itself without the later twin and covers exactly what
    it covers.
    """
    folded = fold_singleton_literals(clause)
    head = dict.fromkeys(folded.head.variables())
    shapes = set()
    kept: list[Literal] = []
    for group in _components(list(folded.body), head):
        names: dict[Term, int] = {}
        shape = tuple(
            (lit.relation, tuple(
                a if a in head or not a.is_var else names.setdefault(a, len(names))
                for a in lit.args
            ))
            for lit in group
        )
        if shape not in shapes:
            shapes.add(shape)
            kept.extend(group)
    return Clause(folded.head, tuple(kept))


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
    should hold every training example, also keeps each bottom clause and
    armg step for the later runs that share it.
    """
    cache = CoverageCache.of(db, cache, examples.positives, examples.negatives)
    # one token per distinct saturation input, as in `lgg.lgg_learn`; a
    # bottom clause shared across runs also makes every clause armg derives
    # from it the same object, so later lookups compare by identity
    inputs = cache.memo(
        ("bottom inputs", bias, cfg.iterations, cfg.per_relation_cap), object
    )

    def learn_one(uncovered: list[tuple[str, ...]], rng: random.Random) -> Clause:
        seed = uncovered[0]
        bottom = cache.memo(
            ("bottom", inputs, seed),
            lambda: build_bottom_clause(seed, db, bias, cfg).clause,
        )
        return generalize_clause(
            bottom,
            tuple(uncovered),
            examples.negatives,
            db,
            cfg,
            rng=rng,
            cache=cache,
        )

    return _cover_set(db, examples, cfg, learn_one, cache)


def _cover_set(
    db: DatabaseInstance,
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
            uncovered = [e for e in uncovered if not cache.covers(clause, e)]
            if seed in uncovered:
                uncovered.remove(seed)  # progress even if coverage went stale
        else:
            uncovered.remove(seed)
    return HornDefinition(tuple(learned))
