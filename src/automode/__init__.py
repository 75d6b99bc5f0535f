"""Relational rule learning with automatically induced language bias."""

__version__ = "0.1.0"

from .biasgen import BiasSpec, ModeDecl, PredicateDecl, induce_bias, read_bias, write_bias
from .clauses import (
    Clause,
    HornDefinition,
    Literal,
    Term,
    conforms,
    covered_examples,
    minimize,
    parse_clause,
    render_clause,
    subsumes,
    var,
)
from .errors import AutomodeError, ConfigError, LoadError, ValidationError
from .evaluation import EvalReport, cross_validate, generate_negatives, precision_recall
from .learner import (
    BottomClause,
    LearnConfig,
    armg,
    build_bottom_clause,
    generalize_clause,
    learn_definition,
    score,
)
from .lgg import lgg_clauses, lgg_learn
from .profiler import IndSet, UnaryInd, dedupe_bidirectional, discover_inds
from .relstore import (
    AttributeRef,
    DatabaseInstance,
    ExampleSet,
    RelationSchema,
    load_database,
    load_examples,
    load_schema,
    register_target,
)

__all__ = [name for name in dir() if not name.startswith("_")]
