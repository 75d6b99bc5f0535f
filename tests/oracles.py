"""Independent brute-force oracles and random generators for the tests.

These deliberately re-derive results from definitions (exhaustive
substitution enumeration, double-loop set containment) so the production
implementations are checked against something that shares none of their
code paths.
"""

from __future__ import annotations

import random
import re
from itertools import product
from pathlib import Path
from typing import Iterator

from automode import fixtures
from automode.biasgen import BiasSpec, ModeDecl, PredicateDecl, induce_bias
from automode.clauses import Clause, HornDefinition, Literal, Term, const, covers, var
from automode.errors import LoadError, ValidationError
from automode.learner import (
    CoverageCache,
    _cover_set,
    ground_bottom_clause,
    implicit_bias,
    score,
)
from automode.lgg import lgg_clauses
from automode.relstore import DatabaseInstance, ExampleSet, RelationSchema


def active_domain(db: DatabaseInstance, extra=()) -> list[str]:
    values = set(extra)
    for rows in db.rows.values():
        for row in rows:
            values.update(row)
    return sorted(values)


def covers_oracle(clause: Clause, example: tuple[str, ...], db: DatabaseInstance) -> bool:
    """Enumerate every substitution of the clause's variables over the
    active domain and test the body against the stored tuples."""
    binding: dict[Term, str] = {}
    for term, value in zip(clause.head.args, example):
        if term.is_var:
            if binding.setdefault(term, value) != value:
                return False
        elif term.symbol != value:
            return False
    free = [v for v in clause.variables() if v not in binding]
    domain = active_domain(db, example)
    facts = {name: set(rows) for name, rows in db.rows.items()}
    for combo in product(domain, repeat=len(free)):
        theta = dict(binding)
        theta.update(zip(free, combo))
        if all(
            tuple(theta[a] if a.is_var else a.symbol for a in lit.args)
            in facts[lit.relation]
            for lit in clause.body
        ):
            return True
    return False


def semijoin_fixpoint_oracle(factors) -> list:
    """Repeat full passes until nothing changes: drop every row holding a
    value for some variable that another factor with that variable lacks."""
    out = [(vars_, set(rows)) for vars_, rows in factors]
    changed = True
    while changed:
        changed = False
        for k, (vars_, rows) in enumerate(out):
            kept = {
                row
                for row in rows
                if all(
                    any(other[vars2.index(v)] == row[i] for other in rows2)
                    for i, v in enumerate(vars_)
                    for vars2, rows2 in out
                    if v in vars2
                )
            }
            if kept != rows:
                out[k] = (vars_, kept)
                changed = True
    return out


def inds_oracle(db: DatabaseInstance, alpha: float) -> set[tuple]:
    """Double loop over all attribute pairs, literally from the definition."""
    attrs = [
        (s.name, pos, s.attributes[pos])
        for s in db.schemas
        for pos in range(s.arity)
    ]
    columns = {
        (rel, pos): {row[pos] for row in db.rows[rel]} for rel, pos, _ in attrs
    }
    out = set()
    for rel1, pos1, _ in attrs:
        for rel2, pos2, _ in attrs:
            if (rel1, pos1) == (rel2, pos2):
                continue
            left = columns[(rel1, pos1)]
            if not left:
                continue
            error = len(left - columns[(rel2, pos2)]) / len(left)
            if error <= alpha:
                out.add((rel1, pos1, rel2, pos2, error))
    return out


def subsumes_oracle(general: Clause, specific: Clause) -> bool:
    """Try every assignment of the general clause's variables to terms of
    the specific clause. The head must map onto the head, which fixes the
    head variables; only the others are enumerated."""
    if general.head.relation != specific.head.relation or len(
        general.head.args
    ) != len(specific.head.args):
        return False
    fixed: dict[Term, Term] = {}
    for a, b in zip(general.head.args, specific.head.args):
        if a.is_var:
            if fixed.setdefault(a, b) != b:
                return False
        elif a != b:
            return False
    gvars = [v for v in general.variables() if v not in fixed]
    terms: list[Term] = []
    for lit in (specific.head, *specific.body):
        for t in lit.args:
            if t not in terms:
                terms.append(t)
    targets = {(lit.relation, lit.args) for lit in specific.body}
    for combo in product(terms, repeat=len(gvars)):
        theta = dict(fixed)
        theta.update(zip(gvars, combo))
        if all(
            (lit.relation, tuple(theta.get(a, a) for a in lit.args)) in targets
            for lit in general.body
        ):
            return True
    return False


def reduction_oracle(clause: Clause) -> Clause:
    """Deep reduction as first written: drop duplicate literals, then
    remove the first literal whose deletion leaves a clause the current one
    subsumes, and start again from the first literal, until none goes."""
    body = list(dict.fromkeys(clause.body))
    changed = True
    while changed:
        changed = False
        for i in range(len(body)):
            shorter = body[:i] + body[i + 1 :]
            if subsumes_oracle(
                Clause(clause.head, tuple(body)), Clause(clause.head, tuple(shorter))
            ):
                body = shorter
                changed = True
                break
    return Clause(clause.head, tuple(body))


def lgg_product_oracle(c1: Clause, c2: Clause) -> Clause:
    """The unreduced lgg as first written: generalize every literal of `c1`
    against every literal of `c2`, keeping each literal of the same
    relation and arity that is new. Each distinct ordered pair of terms
    becomes one variable, numbered after the highest `v<N>` variable of
    either clause."""
    numbers = [
        int(t.symbol[1:])
        for t in c1.variables() + c2.variables()
        if re.fullmatch(r"v\d+", t.symbol)
    ]
    names: dict[tuple[Term, Term], Term] = {}

    def generalize(l1: Literal, l2: Literal) -> Literal:
        args = []
        for a, b in zip(l1.args, l2.args):
            if a != b and (a, b) not in names:
                names[a, b] = var(f"v{max(numbers, default=-1) + 1 + len(names)}")
            args.append(a if a == b else names[a, b])
        return Literal(l1.relation, tuple(args))

    head = generalize(c1.head, c2.head)
    body: list[Literal] = []
    for l1 in c1.body:
        for l2 in c2.body:
            if l1.relation == l2.relation and len(l1.args) == len(l2.args):
                lit = generalize(l1, l2)
                if lit not in body:
                    body.append(lit)
    return Clause(head, tuple(body))


def lgg_learn_oracle(
    db: DatabaseInstance,
    examples: ExampleSet,
    bias: BiasSpec,
    cfg,
    cache: CoverageCache | None = None,
) -> HornDefinition:
    """`lgg.lgg_learn` with a fold that never stops early: every step's
    lgg is built, deep-reduced and scored, and the fold stops at the first
    that does not score higher than the clause so far. Nothing but coverage
    is memoized, in `cache`."""
    cache = CoverageCache.of(db, cache, examples.positives, examples.negatives)
    saturation = implicit_bias(db, examples.target.name, bias.predicates)

    def learn_one(uncovered: list, rng: random.Random) -> Clause:
        seed = uncovered[0]
        sampled = set(rng.sample(uncovered, min(cfg.sample_size, len(uncovered))))
        sampled.add(seed)
        fold = [e for e in uncovered[1:] if e in sampled]
        clause = ground_bottom_clause(seed, db, saturation, cfg)
        best = score(clause, uncovered, examples.negatives, db, cache)
        for example in fold:
            candidate = lgg_clauses(clause, ground_bottom_clause(example, db, saturation, cfg))
            cand_score = score(candidate, uncovered, examples.negatives, db, cache)
            if cand_score <= best:
                break
            clause, best = candidate, cand_score
        return clause

    return _cover_set(db, examples, cfg, learn_one, cache)


def fold_oracle(clause: Clause) -> Clause:
    """The singleton fold as first written: recount every variable, then
    drop the first literal that another literal of its relation matches at
    every position not holding a variable used nowhere else, and start
    again from the first literal, until none goes."""
    body = list(clause.body)
    changed = True
    while changed:
        changed = False
        counts: dict[Term, int] = {}
        for lit in (clause.head, *body):
            for arg in lit.args:
                if arg.is_var:
                    counts[arg] = counts.get(arg, 0) + 1
        for i, lit in enumerate(body):
            fixed = [
                (pos, arg)
                for pos, arg in enumerate(lit.args)
                if not (arg.is_var and counts[arg] == 1)
            ]
            if len(fixed) == len(lit.args):
                continue
            for j, other in enumerate(body):
                if (
                    j == i
                    or other.relation != lit.relation
                    or len(other.args) != len(lit.args)
                ):
                    continue
                if all(other.args[pos] == arg for pos, arg in fixed):
                    del body[i]
                    changed = True
                    break
            if changed:
                break
    return Clause(clause.head, tuple(body))


def ground_bottom_oracle(
    example: tuple[str, ...],
    db: DatabaseInstance,
    target: str,
    predicates: tuple,
    cfg,
) -> Clause:
    """The ground bottom clause as first written: a saturation mode of its
    own that never names a variable. Every relation but the target gets
    one mode per position, '+' there and '-' elsewhere; a row joins through
    its first mode whose '+' values are known and whose values' accumulated
    types still meet the position's, and its literal keeps its constants."""
    schema = db.schema(target)
    if len(example) != schema.arity:
        raise ValidationError(
            f"example arity {len(example)} does not match target {target}"
        )
    modes = []
    for s in db.schemas:
        if s.name == target:
            continue
        for plus in range(s.arity):
            symbols = tuple("+" if i == plus else "-" for i in range(s.arity))
            modes.append(ModeDecl(s.name, symbols))
    bias = BiasSpec(tuple(predicates), tuple(modes), ModeDecl(target, ("+",) * schema.arity))

    def slot_types(relation, pos):
        # the union of the types any declaration allows at the slot
        return frozenset(
            d.types[pos] for d in predicates if d.relation == relation and pos < len(d.types)
        )

    prov: dict[str, frozenset[str]] = {}
    for pos, value in enumerate(example):
        types = slot_types(target, pos)
        prov[value] = prov[value] & types if value in prov else types

    def try_mode(relation, row, symbols):
        pending: dict[str, frozenset[str]] = {}
        minted: list[str] = []
        for pos, (value, sym) in enumerate(zip(row, symbols)):
            types_here = slot_types(relation, pos)
            previous = pending.get(value, prov.get(value))
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
        prov.update(pending)
        return Literal(relation, tuple(Term(value, False) for value in row)), minted

    body: list[Literal] = []
    emitted: set[Literal] = set()
    frontier = list(dict.fromkeys(example))
    for _ in range(cfg.iterations):
        if not frontier:
            break
        frontier_set = set(frontier)
        added: list[str] = []
        for s in db.schemas:
            relation_modes = bias.modes_for(s.name)
            if not relation_modes:
                continue
            produced = 0
            for row in db.relation_rows(s.name):
                if produced >= cfg.per_relation_cap:
                    break
                if not frontier_set.intersection(row):
                    continue
                for mode in relation_modes:
                    result = try_mode(s.name, row, mode.symbols)
                    if result is None:
                        continue
                    literal, minted = result
                    if literal not in emitted:
                        emitted.add(literal)
                        body.append(literal)
                        produced += 1
                        added.extend(minted)
                    break  # first satisfied mode wins
        frontier = list(dict.fromkeys(added))
    head = Literal(target, tuple(Term(v, False) for v in example))
    return Clause(head, tuple(body))


def connected_order_oracle(head: Literal, body: list[Literal]) -> list[Literal]:
    """armg's tail as first written, in two passes. First keep, in body
    order, the literals whose variables reach a head variable through a
    chain of literals sharing variables (grown to a fixpoint); then
    repeatedly move the first remaining literal sharing a variable with the
    head or the literals moved so far to the end of the output."""
    reach = set(head.variables())
    changed = True
    while changed:
        changed = False
        for lit in body:
            lit_vars = set(lit.variables())
            if lit_vars & reach and not lit_vars <= reach:
                reach |= lit_vars
                changed = True
    remaining = [lit for lit in body if set(lit.variables()) & reach]
    seen = set(head.variables())
    ordered: list[Literal] = []
    while remaining:
        pick = next(
            (i for i, lit in enumerate(remaining) if set(lit.variables()) & seen),
            None,
        )
        if pick is None:
            ordered.extend(remaining)
            break
        lit = remaining.pop(pick)
        ordered.append(lit)
        seen |= set(lit.variables())
    return ordered


def blocking_drop_oracle(
    clause: Clause, example: tuple[str, ...], db: DatabaseInstance
) -> tuple[Literal, ...]:
    """armg's kept literals by its definition, before the literals that no
    chain of shared variables joins to the head are pruned: drop the
    earliest body literal whose prefix does not cover `example`, one
    coverage pass per prefix, and repeat until the whole body covers it."""
    body, i = list(clause.body), 0
    while i < len(body):
        if covers(Clause(clause.head, tuple(body[: i + 1])), example, db):
            i += 1
        else:
            del body[i]  # every shorter prefix covers: the earliest blocking literal
    return tuple(body)


def armg_oracle(clause: Clause, example: tuple[str, ...], db: DatabaseInstance) -> Clause:
    """armg by its definition: the blocking-atom drop, then
    `connected_order_oracle`'s pruning and order."""
    kept = list(blocking_drop_oracle(clause, example, db))
    return Clause(clause.head, tuple(connected_order_oracle(clause.head, kept)))


def head_fit_oracle(head: Literal, example: tuple[str, ...]) -> bool:
    """`generalize_clause`'s head-fit test as first written,
    `cache.covers(Clause(head, ()), example)`: the joined coverage pass of
    the head-only clause. With no body, that pass keeps an example exactly
    when its example filter and `clauses._extend`, copied here as written,
    bind the head to it."""
    if len(example) != len(head.args):
        return False
    out: dict[Term, str] = {}
    for term, value in zip(head.args, example):
        if not term.is_var:
            if term.symbol != value:
                return False
            continue
        known = out.get(term)
        if known is None:
            out[term] = value
        elif known != value:
            return False
    return True


def cheapest_variable_oracle(factors, keep: set[Term]) -> Term | None:
    """`clauses._cheapest_variable` as first written: a scan of every
    variable in sorted order that keeps the first of least cost."""
    sizes: dict[Term, list[int]] = {}
    for factor_vars, rows in factors:
        for v in factor_vars:
            if v not in keep:
                sizes.setdefault(v, []).append(len(rows))
    best: Term | None = None
    best_cost: tuple | None = None
    for v, touched in sorted(sizes.items()):
        if len(touched) == 1:
            cost: tuple = (0, 0)
        else:
            product = 1
            for size in touched:
                product *= max(size, 1)
            cost = (1, product)
        if best_cost is None or cost < best_cost:
            best, best_cost = v, cost
    return best


def implicit_bias_oracle(db: DatabaseInstance, target: str, predicates: tuple) -> BiasSpec:
    """The lgg learner's bias as first written: its own loop of one mode
    per position of every relation but the target, '+' there and '-'
    elsewhere, whether the predicates declare the relation or not."""
    modes = []
    for schema in db.schemas:
        if schema.name == target:
            continue
        for plus in range(schema.arity):
            symbols = tuple("+" if i == plus else "-" for i in range(schema.arity))
            modes.append(ModeDecl(schema.name, symbols))
    head = ModeDecl(target, ("+",) * db.schema(target).arity)
    return BiasSpec(tuple(predicates), tuple(modes), head)


def dedupe_modes_oracle(body) -> tuple:
    """The deduplication that ended `biasgen.generate_modes` as first
    written: each mode once, in order of first appearance."""
    deduped: dict[ModeDecl, None] = {}
    for m in body:
        deduped.setdefault(m)
    return tuple(deduped)


def negatives_oracle(
    db: DatabaseInstance,
    positives: tuple[tuple[str, ...], ...],
    target: RelationSchema,
    ratio: int,
    seed: int,
) -> tuple[tuple[str, ...], ...]:
    """Closed-world negatives as first written: build and sort the whole
    product of the per-position domains without the positives, return it
    when it holds at most ratio * |positives| tuples, else sample that many
    from it."""
    domains: list[set[str]] = []
    for pos in range(target.arity):
        domain = {p[pos] for p in positives}
        if db.has_relation(target.name):
            domain |= {row[pos] for row in db.relation_rows(target.name)}
        domains.append(domain)
    positive_set = set(positives)
    pool = sorted(t for t in product(*domains) if t not in positive_set)
    if not pool:
        raise ValidationError("closed-world pool is empty")
    wanted = ratio * len(positives)
    if len(pool) <= wanted:
        return tuple(pool)
    return tuple(random.Random(seed).sample(pool, wanted))


def isomorphic(c1: Clause, c2: Clause) -> bool:
    """Equality up to a variable bijection and body reordering."""
    if c1.head.relation != c2.head.relation or len(c1.body) != len(c2.body):
        return False
    vars1, vars2 = set(c1.variables()), set(c2.variables())
    if len(vars1) != len(vars2):
        return False

    def match(lits1, remaining, mapping):
        if not lits1:
            return True
        lit = lits1[0]
        for i, cand in enumerate(remaining):
            if cand.relation != lit.relation or len(cand.args) != len(lit.args):
                continue
            new_map = dict(mapping)
            ok = True
            for a, b in zip(lit.args, cand.args):
                if a.is_var != b.is_var:
                    ok = False
                    break
                if not a.is_var:
                    if a != b:
                        ok = False
                        break
                    continue
                bound = new_map.get(a)
                if bound is None:
                    if b in new_map.values():
                        ok = False
                        break
                    new_map[a] = b
                elif bound != b:
                    ok = False
                    break
            if ok and match(lits1[1:], remaining[:i] + remaining[i + 1 :], new_map):
                return True
        return False

    return match([c1.head, *c1.body], [c2.head, *c2.body], {})


def type_reachability_oracle(graph) -> dict:
    """Recompute token placement as budgeted reachability: a token minted at
    node o lands on node v iff some directed path v -> ... -> o crosses at
    most one approximate edge."""
    succ: dict = {}
    for src, dst, error in graph.edges:
        succ.setdefault(src, []).append((dst, error > 0))
    expected: dict = {node: set() for node in graph.nodes}
    for token, origins in graph.origins.items():
        # BFS over (node, approx-crossings-used) states, walking backward
        frontier = [(node, 0) for node in origins]
        seen = set(frontier)
        while frontier:
            node, used = frontier.pop()
            expected[node].add(token)
            for prev, approx in _incoming(graph.edges, node):
                cost = used + (1 if approx else 0)
                if cost <= 1 and (prev, cost) not in seen:
                    seen.add((prev, cost))
                    frontier.append((prev, cost))
    return expected


def _incoming(edges, node):
    for src, dst, error in edges:
        if dst == node:
            yield src, error > 0

def facts_csv_oracle(path: Path, schema: RelationSchema) -> list[tuple[str, ...]]:
    """The facts reader as first written: keep the numbered non-blank
    lines, take the first as the header, then check each later line's
    arity and cells through per-cell generators."""
    lines = path.read_text(encoding="utf-8").splitlines()
    body = [(n, ln) for n, ln in enumerate(lines, 1) if ln.strip()]
    if not body:
        return []
    header_no, header = body[0]
    if tuple(c.strip() for c in header.split(",")) != schema.attributes:
        raise LoadError(
            f"{path}:{header_no}: header does not match attributes "
            f"{','.join(schema.attributes)}"
        )
    out: list[tuple[str, ...]] = []
    for lineno, line in body[1:]:
        cells = tuple(c.strip() for c in line.split(","))
        if len(cells) != schema.arity:
            raise LoadError(
                f"{path}:{lineno}: relation {schema.name} expects "
                f"{schema.arity} values, got {len(cells)}"
            )
        if any(c == "" for c in cells):
            raise LoadError(f"{path}:{lineno}: empty value is not allowed")
        out.append(cells)
    return out


_ORACLE_IDENT = r"[A-Za-z_][A-Za-z0-9_]*"
_ORACLE_EXAMPLE_LINE = re.compile(rf"^([+-])\s+({_ORACLE_IDENT})\(([^()]*)\)$")


def examples_oracle(examples_file: Path, target: RelationSchema) -> ExampleSet:
    """The examples reader as first written: each label's examples are a
    list, and a line is kept when a scan of that list does not find it."""
    path = Path(examples_file)
    if not path.is_file():
        raise LoadError(f"examples file not found: {path}")
    positives: list[tuple[str, ...]] = []
    negatives: list[tuple[str, ...]] = []
    for lineno, raw in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        m = _ORACLE_EXAMPLE_LINE.match(line)
        if not m:
            raise LoadError(f"{path}:{lineno}: cannot parse example line {raw!r}")
        label, rel, args = m.groups()
        if rel != target.name:
            raise LoadError(
                f"{path}:{lineno}: example relation {rel} is not the target "
                f"{target.name}"
            )
        values = tuple(v.strip() for v in args.split(","))
        if len(values) != target.arity or any(v == "" for v in values):
            raise LoadError(
                f"{path}:{lineno}: expected {target.arity} values, got {args!r}"
            )
        bucket = positives if label == "+" else negatives
        if values not in bucket:
            bucket.append(values)
    try:
        return ExampleSet(target, tuple(positives), tuple(negatives))
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from exc



# -- random generators --------------------------------------------------------


def random_db(
    rng: random.Random,
    max_relations: int = 3,
    max_arity: int = 2,
    max_tuples: int = 30,
    pool: int = 8,
) -> DatabaseInstance:
    constants = [f"c{i}" for i in range(pool)]
    schemas = tuple(
        RelationSchema(
            f"r{i}", tuple(f"a{j}" for j in range(rng.randint(1, max_arity)))
        )
        for i in range(rng.randint(1, max_relations))
    )
    tuples: dict[str, list] = {s.name: [] for s in schemas}
    for _ in range(rng.randint(0, max_tuples)):
        schema = rng.choice(schemas)
        tuples[schema.name].append(
            tuple(rng.choice(constants) for _ in range(schema.arity))
        )
    return DatabaseInstance.build(schemas, tuples)


def random_task(rng: random.Random) -> tuple[DatabaseInstance, ExampleSet]:
    """A `random_db` with a binary target `t` registered: up to 14 distinct
    pairs of its values, alternately positive and negative in sorted order.
    A database without a tuple has no values to pair, so it is drawn again
    from the same `rng`."""
    db = random_db(rng, max_relations=3, max_arity=2, max_tuples=30, pool=6)
    while not db.total_tuples():
        db = random_db(rng, max_relations=3, max_arity=2, max_tuples=30, pool=6)
    domain = sorted({v for rows in db.rows.values() for row in rows for v in row})
    pool = sorted({tuple(rng.choice(domain) for _ in range(2)) for _ in range(14)})
    target = RelationSchema("t", ("a0", "a1"))
    examples = ExampleSet(target, tuple(pool[::2]), tuple(pool[1::2]))
    return db.with_relation(target, examples.positives), examples


def random_wide_db(rng: random.Random) -> DatabaseInstance:
    """6-12 relations of arity 1-4 whose columns draw from disjoint value
    pools. Each column takes a random prefix of its pool, so the columns of
    one pool nest, mostly contain each other or overlap in part, and columns
    of different pools share no value; about one relation in six is empty."""
    pools = [f"p{i}_" for i in range(rng.randint(3, 5))]
    schemas = tuple(
        RelationSchema(f"r{i}", tuple(f"a{j}" for j in range(rng.randint(1, 4))))
        for i in range(rng.randint(6, 12))
    )
    tuples: dict[str, list] = {}
    for schema in schemas:
        columns = [
            (rng.choice(pools), rng.randint(1, 12)) for _ in range(schema.arity)
        ]
        count = 0 if rng.random() < 1 / 6 else rng.randint(1, 15)
        tuples[schema.name] = [
            tuple(f"{pool}{rng.randrange(width)}" for pool, width in columns)
            for _ in range(count)
        ]
    return DatabaseInstance.build(schemas, tuples)


def random_clause(
    rng: random.Random,
    db: DatabaseInstance,
    max_body: int = 6,
    max_free_vars: int = 4,
    allow_constants: bool = True,
) -> Clause:
    head_arity = rng.randint(1, 2)
    head_vars = [var(f"x{i}") for i in range(head_arity)]
    free_pool = [var(f"y{i}") for i in range(max_free_vars)]
    constants = [f"c{i}" for i in range(8)]
    body = []
    for _ in range(rng.randint(0, max_body)):
        schema = rng.choice(db.schemas)
        args = []
        for _ in range(schema.arity):
            kind = rng.random()
            if kind < 0.45:
                args.append(rng.choice(head_vars))
            elif kind < 0.85 or not allow_constants:
                args.append(rng.choice(free_pool))
            else:
                args.append(const(rng.choice(constants)))
        body.append(Literal(schema.name, tuple(args)))
    head = Literal("t", tuple(rng.choice(head_vars) for _ in range(head_arity)))
    return Clause(head, tuple(body))


def random_example(rng: random.Random, arity: int, pool: int = 8) -> tuple[str, ...]:
    return tuple(f"c{rng.randint(0, pool - 1)}" for _ in range(arity))


def ground_cases():
    """Examples to saturate, with their database, target and predicate
    declarations: every example of both fixtures, and one example on each
    of 200 random databases typed at random."""
    for name in ("small", "typed"):
        db = getattr(fixtures, f"{name}_database_registered")()
        ex = getattr(fixtures, f"{name}_examples")()
        predicates = induce_bias(db, "advisedBy").predicates
        for example in ex.positives + ex.negatives:
            yield db, example, "advisedBy", predicates
    rng = random.Random(467)
    for _ in range(200):
        db = random_db(rng, max_relations=4, max_arity=3, max_tuples=40, pool=6)
        target = rng.choice(db.schemas)
        predicates = tuple(
            dict.fromkeys(
                PredicateDecl(s.name, tuple(rng.choice(("T0", "T1")) for _ in range(s.arity)))
                for s in db.schemas
                for _ in range(rng.randint(1, 2))
            )
        )
        rows = sorted(db.relation_rows(target.name))
        if rows and rng.random() < 0.5:
            example = rng.choice(rows)
        else:
            example = random_example(rng, target.arity, pool=6)
        yield db, example, target.name, predicates


def ground_clause_pairs(cfg) -> Iterator[tuple[Clause, Clause]]:
    """Pairs of ground bottom clauses under `cfg` over one database and
    target, as an lgg fold's first step meets them: on each fixture, each
    example's clause after the previous example's; on each random database
    of `ground_cases`, the clauses of the target's first two stored tuples,
    each before its example's clause."""
    previous = None
    for db, example, target, predicates in ground_cases():
        bias = implicit_bias(db, target, predicates)
        clause = ground_bottom_clause(example, db, bias, cfg)
        if previous is not None and previous[0] is db:
            yield previous[1], clause
        else:
            for row in sorted(db.relation_rows(target))[:2]:
                yield ground_bottom_clause(row, db, bias, cfg), clause
        previous = db, clause


_CLAUSE_RELATIONS = {"p": 2, "q": 1, "r": 3}


def random_clause_over(
    rng: random.Random,
    head_vars: list[Term],
    pool: list[Term],
    max_body: int,
    relations: str = "pppqr",
) -> Clause:
    """A database-free clause whose arguments are head variables (30%) or
    terms of `pool`; listing a relation several times in `relations`
    repeats it in the body."""
    body = []
    for _ in range(rng.randint(1, max_body)):
        relation = rng.choice(relations)
        args = tuple(
            rng.choice(head_vars) if rng.random() < 0.3 else rng.choice(pool)
            for _ in range(_CLAUSE_RELATIONS[relation])
        )
        body.append(Literal(relation, args))
    return Clause(Literal("t", tuple(head_vars)), tuple(body))


def random_generalization(rng: random.Random, specific: Clause, pool: list[Term]) -> Clause:
    """A clause that subsumes `specific`: up to 10 of its body literals,
    drawn with repeats, each non-head term replaced by a variable of `pool`
    that one fixed map sends to that term. A term stays as it is when the
    pool runs out, and a constant stays half the time."""
    head_vars = set(specific.head.args)
    theta: dict[Term, Term] = {}
    body = []
    for _ in range(rng.randint(1, 10)):
        lit = rng.choice(specific.body)
        args = []
        for a in lit.args:
            if a in head_vars or (not a.is_var and rng.random() < 0.5):
                args.append(a)
                continue
            choices = [v for v, t in theta.items() if t == a]
            free = [v for v in pool if v not in theta]
            if free and (not choices or rng.random() < 0.3):
                theta[free[0]] = a
                choices = [free[0]]
            args.append(rng.choice(choices) if choices else a)
        body.append(Literal(lit.relation, tuple(args)))
    return Clause(specific.head, tuple(body))


_VALUE_CHARS = 'ab1é#"\\'
_VALUE_HAZARDS = (",", "(", ")", "\n", "\r", " ", " ", "\t")


def random_value(rng: random.Random, hazard_rate: float = 0.1) -> str:
    """A short string, inner blanks allowed; at `hazard_rate` one separator,
    line break or blank lands at a random position, ends included."""
    inner = "".join(rng.choice(_VALUE_CHARS + " \t") for _ in range(rng.randint(0, 3)))
    value = rng.choice(_VALUE_CHARS) + inner + rng.choice(_VALUE_CHARS)
    if rng.random() < hazard_rate:
        k = rng.randint(0, len(value))
        value = value[:k] + rng.choice(_VALUE_HAZARDS) + value[k:]
    return value


def random_string_db(rng: random.Random) -> DatabaseInstance:
    schemas = tuple(
        RelationSchema(f"r{i}", tuple(f"a{j}" for j in range(rng.randint(1, 2))))
        for i in range(rng.randint(1, 3))
    )
    return DatabaseInstance.build(
        schemas,
        {
            s.name: [
                tuple(random_value(rng) for _ in range(s.arity))
                for _ in range(rng.randint(0, 4))
            ]
            for s in schemas
        },
    )


def random_string_examples(rng: random.Random) -> ExampleSet:
    target = RelationSchema("t", tuple(f"a{j}" for j in range(rng.randint(1, 2))))
    drawn = list(
        dict.fromkeys(
            tuple(random_value(rng) for _ in range(target.arity))
            for _ in range(rng.randint(1, 8))
        )
    )
    split = rng.randint(0, len(drawn))
    return ExampleSet(target, tuple(drawn[:split]), tuple(drawn[split:]))


_BLANKS = ("", " ", "\t", " \t  ", "\u3000")
# str.splitlines boundaries; reading in text mode turns "\r\n" and "\r"
# into "\n" before the split
_LINE_ENDS = ("\n", "\n", "\r\n", "\r", "\x1c", "\u2028")


def _padded(rng: random.Random, cell: str) -> str:
    return rng.choice(_BLANKS) + cell + rng.choice(_BLANKS)


def random_facts_csv(rng: random.Random, schema: RelationSchema) -> str:
    """CSV text for `schema` with blank and whitespace-only lines anywhere,
    mixed line boundaries and padded cells; at random the header does not
    match, and one row has a wrong arity or an empty cell."""
    lines = [rng.choice(_BLANKS) for _ in range(rng.randint(0, 2))]
    if rng.random() < 0.1:
        return rng.choice(_LINE_ENDS).join(lines)
    header = list(schema.attributes)
    if rng.random() < 0.15:
        if rng.random() < 0.5:
            header[rng.randrange(len(header))] = "other"
        else:
            header.append("extra")
    lines.append(",".join(_padded(rng, a) for a in header))
    rows = [
        [rng.choice(("x", "y1", "a b", "z")) for _ in range(schema.arity)]
        for _ in range(rng.randint(0, 6))
    ]
    fault = rng.random()
    if rows and fault < 0.3:
        row = rng.choice(rows)
        if rng.random() < 0.5 or len(row) == 1:
            row.append("w")
        else:
            row.pop()
    elif rows and fault < 0.6:
        rng.choice(rows)[rng.randrange(schema.arity)] = ""
    for row in rows:
        if rng.random() < 0.3:
            lines.append(rng.choice(_BLANKS))
        lines.append(",".join(_padded(rng, cell) for cell in row))
    lines += [rng.choice(_BLANKS) for _ in range(rng.randint(0, 2))]
    return "".join(line + rng.choice(_LINE_ENDS) for line in lines)


def random_examples_text(rng: random.Random, target: RelationSchema) -> str:
    """Example lines over a small value pool, so duplicates are common and
    now and then one example carries both labels; blanks, comments and
    padding in between."""
    lines = []
    for _ in range(rng.randint(0, 30)):
        kind = rng.random()
        if kind < 0.1:
            lines.append(rng.choice(_BLANKS + ("# note",)))
            continue
        values = ",".join(
            _padded(rng, rng.choice("abcd")) for _ in range(target.arity)
        )
        label = rng.choice("+-") if kind < 0.2 else "+"
        lines.append(f"{rng.choice(_BLANKS)}{label} {target.name}({values})")
    return "\n".join(lines) + "\n"
