"""Relational rule learning with automatically induced language bias."""

__version__ = "0.1.0"

from types import ModuleType as _ModuleType

from .biasgen import (
    BiasSpec,
    ModeDecl,
    PredicateDecl,
    conforms,
    induce_bias,
    read_bias,
    write_bias,
)
from .clauses import (
    Clause,
    HornDefinition,
    Literal,
    Term,
    minimize,
    parse_clause,
    render_clause,
    subsumes,
    var,
)
from .coverage import covered_examples
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

# importing a submodule binds its name here too: export the API, not those
__all__ = [n for n in dir() if not n.startswith("_") and not isinstance(globals()[n], _ModuleType)]
