"""The package's surface: what `automode` exports, and that each module
imports on its own."""

from __future__ import annotations

import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import automode

_SRC = str(Path(automode.__file__).resolve().parents[1])


def test_all_lists_the_api_and_no_submodule():
    assert automode.__all__ == [
        "AttributeRef", "AutomodeError", "BiasSpec", "BottomClause", "Clause",
        "ConfigError", "DatabaseInstance", "EvalReport", "ExampleSet",
        "HornDefinition", "IndSet", "LearnConfig", "Literal", "LoadError",
        "ModeDecl", "PredicateDecl", "RelationSchema", "Term", "UnaryInd",
        "ValidationError", "armg", "build_bottom_clause", "conforms",
        "covered_examples", "cross_validate", "dedupe_bidirectional",
        "discover_inds", "generalize_clause", "generate_negatives",
        "induce_bias", "learn_definition", "lgg_clauses", "lgg_learn",
        "load_database", "load_examples", "load_schema", "minimize",
        "parse_clause", "precision_recall", "read_bias", "register_target",
        "render_clause", "score", "subsumes", "var", "write_bias",
    ]


@pytest.mark.parametrize(
    "module",
    ["automode"] + sorted(f"automode.{m.name}" for m in pkgutil.iter_modules(automode.__path__)),
)
def test_module_imports_in_a_fresh_interpreter(module):
    # a fresh interpreter imports the module first, so an import cycle
    # fails here whichever order the rest of the suite imports modules in
    done = subprocess.run(
        [sys.executable, "-c", f"import {module}"],
        env={**os.environ, "PYTHONPATH": _SRC}, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
