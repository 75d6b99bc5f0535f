"""Closed-world negatives, precision/recall, and k-fold cross validation."""

from __future__ import annotations

import random
import sys
import time
from bisect import bisect_right
from dataclasses import asdict, dataclass, replace
from itertools import product
from math import prod

from .biasgen import BiasSpec
from .clauses import HornDefinition
from .errors import ConfigError, ValidationError
from .learner import CoverageCache, LearnConfig, learn_definition
from .lgg import lgg_learn
from .relstore import DatabaseInstance, ExampleSet, RelationSchema


@dataclass(frozen=True)
class FoldMetrics:
    precision: float
    recall: float
    wall_ms: float


@dataclass(frozen=True)
class EvalReport:
    folds: int
    seed: int
    per_fold: tuple[FoldMetrics, ...]
    mean_precision: float
    mean_recall: float
    mean_wall_ms: float

    def to_dict(self) -> dict:
        return {**asdict(self), "per_fold": list(map(asdict, self.per_fold))}


# a closed-world pool of at most this many times the draw is built and
# sampled; decoding each drawn position costs more below it
_BUILT_POOL_FACTOR = 4


def generate_negatives(
    db: DatabaseInstance,
    positives: tuple[tuple[str, ...], ...],
    target: RelationSchema,
    ratio: int,
    seed: int,
) -> tuple[tuple[str, ...], ...]:
    """Closed-world negatives: sample from the per-position active domains.

    Position i draws from the values the positives place there, plus the
    target column's stored values when `db` declares the relation. The
    pool is every tuple of the domains' product that is not a positive, in
    sorted order; all of it is returned when it holds at most
    wanted = ratio * |positives| tuples, else `wanted` are sampled without
    replacement.

    A pool larger than `_BUILT_POOL_FACTOR` * wanted is never built.
    `random.Random.sample` reads a population only through its length and
    integer indices, so sampling pool positions from a range picks the same
    tuples. A position becomes a rank in the product by skipping the
    positives' ranks below it, and the rank is decoded digit by digit over
    the sorted domains. Either way the cost is
    O((|positives| + wanted) * (arity + log |positives|)).
    """
    if not positives:
        raise ValidationError("cannot generate negatives without positives")
    if ratio < 1:
        raise ConfigError("negative ratio must be >= 1")
    rows = db.relation_rows(target.name) if db.has_relation(target.name) else ()
    positive_set = set(positives)
    domains = [sorted(set(column)) for column in zip(*positive_set.union(rows))]
    size = prod(map(len, domains)) - len(positive_set)
    if not size:
        raise ValidationError(
            "closed-world pool is empty; provide explicit negative examples"
        )
    wanted = ratio * len(positives)
    if size <= _BUILT_POOL_FACTOR * wanted:
        # the product of sorted domains comes out sorted
        pool = [t for t in product(*domains) if t not in positive_set]
        if size <= wanted:
            return tuple(pool)
        return tuple(random.Random(seed).sample(pool, wanted))
    if size > sys.maxsize:
        raise ValidationError(
            f"closed-world pool of {size} tuples is too large to sample; "
            "provide explicit negative examples"
        )
    digit_of = [{value: i for i, value in enumerate(d)} for d in domains]
    ranks = []
    for p in positive_set:
        rank = 0
        for value, digits, domain in zip(p, digit_of, domains):
            rank = rank * len(domain) + digits[value]
        ranks.append(rank)
    # pool position k holds rank k + (number of positive ranks r_j with
    # r_j - j <= k), where r_0 < r_1 < ... and r_j - j never decreases
    skips = [rank - j for j, rank in enumerate(sorted(ranks))]

    def tuple_at(k: int) -> tuple[str, ...]:
        rank = k + bisect_right(skips, k)
        values = []
        for domain in reversed(domains):
            rank, digit = divmod(rank, len(domain))
            values.append(domain[digit])
        return tuple(reversed(values))

    return tuple(map(tuple_at, random.Random(seed).sample(range(size), wanted)))


def precision_recall(
    definition: HornDefinition,
    test_pos: tuple[tuple[str, ...], ...],
    test_neg: tuple[tuple[str, ...], ...],
    db: DatabaseInstance,
    cache: CoverageCache | None = None,
) -> tuple[float, float]:
    """Precision over covered examples and recall over positives.

    A definition covering nothing is vacuously precise (1.0, 0.0 recall):
    the all-rejecting case divides zero true positives by zero covered.
    A `cache` whose universe holds the test examples turns every test into
    a lookup of coverage it may already know.
    """
    if set(test_pos) & set(test_neg):
        raise ValidationError("test sets overlap")
    cache = CoverageCache.of(db, cache, test_pos, test_neg)
    missed_pos, missed_neg = test_pos, test_neg
    for clause in definition.clauses:
        missed_pos = cache.uncovered(clause, missed_pos)
        missed_neg = cache.uncovered(clause, missed_neg)
    tp = len(test_pos) - len(missed_pos)
    fp = len(test_neg) - len(missed_neg)
    precision = tp / (tp + fp) if tp + fp else 1.0
    recall = tp / len(test_pos) if test_pos else 0.0
    return precision, recall


def learner_for(generalizer: str):
    """The learner of the generalizer named `generalizer`: `learn_definition`
    for "armg", `lgg_learn` for "lgg". Both take (db, examples, bias, cfg,
    cache=None). Each call reads this module's attributes, so a learner
    replaced on the module is the one returned."""
    if generalizer == "armg":
        return learn_definition
    if generalizer == "lgg":
        return lgg_learn
    raise ConfigError(f"unknown generalizer: {generalizer}")


def cross_validate(
    db: DatabaseInstance,
    examples: ExampleSet,
    bias: BiasSpec,
    cfg: LearnConfig,
    folds: int,
    seed: int,
    generalizer: str = "armg",
) -> EvalReport:
    """Stratified k-fold evaluation with per-fold learner seeds.

    Positives and negatives are shuffled and split independently so every
    fold keeps the global class ratio; fold k trains with rng seed
    `seed + k` and is scored on its held-out slice.

    Every fold learns against the same database, so one `CoverageCache`
    over all the examples serves the whole run: a clause's coverage, a
    bottom clause (`bottoms`), a singleton fold (`folds`), an armg step
    (`armg`), a ground bottom clause (`grounds`) or a pairwise lgg
    (`lgg_steps`) that one fold computed is a lookup in every later fold
    and in held-out scoring. Each fold learns and scores exactly what it
    would with a cache of its own.
    A fold's `wall_ms` includes the shared work it computes first.
    """
    if folds < 2:
        raise ConfigError("folds must be >= 2")
    if len(examples.positives) < folds:
        raise ValidationError(
            f"{len(examples.positives)} positives cannot fill {folds} folds"
        )
    learn = learner_for(generalizer)
    rng = random.Random(seed)
    pos = list(examples.positives)
    neg = list(examples.negatives)
    rng.shuffle(pos)
    rng.shuffle(neg)
    pos_folds = _split(pos, folds)
    neg_folds = _split(neg, folds)
    cache = CoverageCache(db, examples.positives + examples.negatives)
    metrics: list[FoldMetrics] = []
    for k in range(folds):
        train = ExampleSet(
            examples.target,
            tuple(e for i in range(folds) if i != k for e in pos_folds[i]),
            tuple(e for i in range(folds) if i != k for e in neg_folds[i]),
        )
        fold_cfg = replace(cfg, rng_seed=seed + k)
        started = time.perf_counter()
        definition = learn(db, train, bias, fold_cfg, cache=cache)
        wall_ms = (time.perf_counter() - started) * 1000.0
        precision, recall = precision_recall(
            definition, tuple(pos_folds[k]), tuple(neg_folds[k]), db, cache
        )
        metrics.append(FoldMetrics(precision, recall, wall_ms))
    return EvalReport(
        folds=folds,
        seed=seed,
        per_fold=tuple(metrics),
        mean_precision=sum(m.precision for m in metrics) / folds,
        mean_recall=sum(m.recall for m in metrics) / folds,
        mean_wall_ms=sum(m.wall_ms for m in metrics) / folds,
    )


def _split(items: list, parts: int) -> list[list]:
    size, extra = divmod(len(items), parts)
    out: list[list] = []
    start = 0
    for i in range(parts):
        end = start + size + (1 if i < extra else 0)
        out.append(items[start:end])
        start = end
    return out
