"""Learned output pinned as text.

Each run below learns on a packaged fixture or on one seeded random
database, and its text must equal the pin verbatim. IND sets and biases of
a few seeded wide databases are pinned by the sha256 of their text. A
change that alters learned output on purpose regenerates the pins with
`PYTHONPATH=src python tests/test_golden.py` and says why.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from pprint import pformat

import pytest

from automode import fixtures
from automode.biasgen import induce_bias, write_bias
from automode.clauses import HornDefinition, minimize
from automode.evaluation import cross_validate
from automode.learner import LearnConfig, learn_definition
from automode.lgg import lgg_learn
from automode.profiler import discover_inds, format_ind_set

from oracles import random_task, random_wide_db

# random_db seed whose definitions have two clauses at every run below, and
# whose deep-reduced clauses differ from the plain ones
_SEEDED_DB = 57


def _seeded():
    return random_task(random.Random(_SEEDED_DB))


_CASES = {
    "small": lambda: (fixtures.small_database_registered(), fixtures.small_examples()),
    "typed": lambda: (fixtures.typed_database_registered(), fixtures.typed_examples()),
    "seeded": _seeded,
}

_RUNS = {
    "bias": lambda db, ex, bias: write_bias(bias),
    "armg iterations=1": lambda db, ex, bias: str(
        learn_definition(db, ex, bias, LearnConfig(iterations=1))
    ),
    "armg iterations=2": lambda db, ex, bias: str(
        learn_definition(db, ex, bias, LearnConfig(iterations=2))
    ),
    # what `learn --deep-reduce` writes: each learned clause's core
    "armg deep_reduce_clauses": lambda db, ex, bias: str(
        HornDefinition(
            tuple(
                minimize(c, deep=True)
                for c in learn_definition(db, ex, bias, LearnConfig()).clauses
            )
        )
    ),
    "lgg iterations=1": lambda db, ex, bias: str(
        lgg_learn(db, ex, bias, LearnConfig(iterations=1))
    ),
    # no '#' modes: armg's witness searches are at their heaviest
    "armg threshold=1": lambda db, ex, bias: str(
        learn_definition(
            db, ex, induce_bias(db, ex.target.name, constant_threshold=1), LearnConfig()
        )
    ),
}


def _learned(case: str, run: str) -> str:
    db, examples = _CASES[case]()
    bias = induce_bias(db, examples.target.name)
    return _RUNS[run](db, examples, bias)


# random_wide_db seeds: 6-12 relations each, some of them empty, whose
# columns nest, overlap in part or share nothing
_WIDE_SEEDS = range(12)

_WIDE_RUNS = {
    "inds alpha=0.0": lambda db: format_ind_set(discover_inds(db, 0.0)),
    "inds alpha=0.5": lambda db: format_ind_set(discover_inds(db, 0.5)),
    "inds alpha=1.0": lambda db: format_ind_set(discover_inds(db, 1.0)),
    "bias constant_threshold=1": lambda db: write_bias(
        induce_bias(db, db.schemas[0].name, constant_threshold=1)
    ),
    "bias constant_threshold=5": lambda db: write_bias(
        induce_bias(db, db.schemas[0].name, constant_threshold=5)
    ),
}


def _wide_digest(run: str) -> str:
    digest = hashlib.sha256()
    for seed in _WIDE_SEEDS:
        digest.update(_WIDE_RUNS[run](random_wide_db(random.Random(seed))).encode())
    return digest.hexdigest()


def _cross_validate_report() -> str:
    db, examples = _seeded()
    bias = induce_bias(db, examples.target.name)
    report = cross_validate(db, examples, bias, LearnConfig(), folds=3, seed=1).to_dict()
    del report["mean_wall_ms"]
    for fold in report["per_fold"]:
        del fold["wall_ms"]
    return json.dumps(report, sort_keys=True)


@pytest.mark.parametrize("case,run", [(c, r) for c in _CASES for r in _RUNS])
def test_learned_text_is_pinned(case, run):
    assert _learned(case, run) == LEARNED[(case, run)]


def test_cross_validate_report_is_pinned():
    assert _cross_validate_report() == CROSS_VALIDATE_REPORT


@pytest.mark.parametrize("run", list(_WIDE_RUNS))
def test_wide_profile_and_bias_are_pinned(run):
    assert _wide_digest(run) == WIDE_DIGESTS[run]


# -- pins -------------------------------------------------------------------

LEARNED = {('seeded', 'armg deep_reduce_clauses'): 't(v0,v1) :- r0(v0,v2), r0(v1,v3), r0(v2,v1), '
                                         'r0(v2,v2).\n'
                                         't(v0,v1) :- r0(v1,v2), r0(v0,v2), r0(v4,v1), '
                                         'r0(v2,v0), r0(v4,v4), r0(v4,v2), r0(v2,v4), '
                                         'r0(v2,v2).',
 ('seeded', 'armg iterations=1'): 't(v0,v1) :- r0(v0,v2), r0(v1,v2), r0(v4,v1).\n'
                                  't(v0,v1) :- r0(v1,v3), r0(v3,v1), r0(v0,v1), '
                                  'r0(v0,v0).',
 ('seeded', 'armg iterations=2'): 't(v0,v1) :- r0(v0,v2), r0(v1,v3), r0(v2,v1), '
                                  'r0(v4,v1), r0(v5,v3), r0(v2,v5), r0(v2,v2), '
                                  'r0(v4,v5), r0(v4,v4).\n'
                                  't(v0,v1) :- r0(v1,v2), r0(v0,v3), r0(v0,v2), '
                                  'r0(v4,v1), r0(v2,v0), r0(v5,v0), r0(v4,v3), '
                                  'r0(v4,v4), r0(v4,v2), r0(v2,v3), r0(v2,v4), '
                                  'r0(v2,v2), r0(v5,v4), r0(v5,v5).',
 ('seeded', 'armg threshold=1'): 't(v0,v1) :- r0(v0,v2), r0(v1,v3), r0(v2,v1), '
                                 'r0(v4,v1), r0(v5,v3), r0(v2,v5), r0(v2,v2), '
                                 'r0(v4,v5), r0(v4,v4).\n'
                                 't(v0,v1) :- r0(v1,v2), r0(v0,v3), r0(v0,v2), '
                                 'r0(v4,v1), r0(v2,v0), r0(v5,v0), r0(v4,v3), '
                                 'r0(v4,v4), r0(v4,v2), r0(v2,v3), r0(v2,v4), '
                                 'r0(v2,v2), r0(v5,v4), r0(v5,v5).',
 ('seeded', 'bias'): 'PREDICATES:\n'
                     'r0(T1,T1)\n'
                     't(T1,T1)\n'
                     'MODES:\n'
                     't(+,+)\n'
                     'r0(+,-)\n'
                     'r0(-,+)\n',
 ('seeded', 'lgg iterations=1'): 't(v0,v1) :- r0("c0","c4"), r0(v0,"c4"), '
                                 'r0("c3","c0"), r0(v10,v0), r0(v8,"c2"), r0(v1,v10), '
                                 'r0(v8,v10), r0("c3",v1), r0(v10,v8), r0(v1,"c4"), '
                                 'r0(v8,"c4"), r0("c4",v8), r0("c5",v8).\n'
                                 't("c5",v0) :- r0(v0,"c2"), r0("c1","c4"), '
                                 'r0(v0,"c4"), r0("c4","c1"), r0("c4",v0), r0(v16,v0), '
                                 'r0(v17,"c1"), r0(v17,v0), r0("c5","c1"), '
                                 'r0(v17,"c3"), r0("c5","c3"), r0(v16,v17), '
                                 'r0(v17,v16), r0(v17,v17), r0("c5",v16), '
                                 'r0("c5","c5").',
 ('small', 'armg deep_reduce_clauses'): 'advisedBy(v0,v1) :- student(v0), '
                                        'professor(v1), inPhase(v0,v2), '
                                        'hasPosition(v1,v3), publication(v4,v0), '
                                        'publication(v4,v1).',
 ('small', 'armg iterations=1'): 'advisedBy(v0,v1) :- student(v0), professor(v1), '
                                 'inPhase(v0,v2), hasPosition(v1,v3), '
                                 'publication(v4,v0), publication(v4,v1).',
 ('small', 'armg iterations=2'): 'advisedBy(v0,v1) :- student(v0), professor(v1), '
                                 'inPhase(v0,v2), hasPosition(v1,v3), '
                                 'publication(v4,v0), publication(v4,v1).',
 ('small', 'armg threshold=1'): 'advisedBy(v0,v1) :- student(v0), professor(v1), '
                                'inPhase(v0,v2), hasPosition(v1,v3), '
                                'publication(v4,v0), publication(v4,v1).',
 ('small', 'bias'): 'PREDICATES:\n'
                    'advisedBy(T1,T1)\n'
                    'hasPosition(T1,T2)\n'
                    'inPhase(T1,T3)\n'
                    'professor(T1)\n'
                    'publication(T4,T1)\n'
                    'student(T1)\n'
                    'MODES:\n'
                    'advisedBy(+,+)\n'
                    'student(+)\n'
                    'professor(+)\n'
                    'inPhase(+,-)\n'
                    'inPhase(-,+)\n'
                    'inPhase(#,+)\n'
                    'inPhase(+,#)\n'
                    'hasPosition(+,-)\n'
                    'hasPosition(-,+)\n'
                    'hasPosition(#,+)\n'
                    'hasPosition(+,#)\n'
                    'publication(+,-)\n'
                    'publication(-,+)\n'
                    'publication(#,+)\n'
                    'publication(+,#)\n',
 ('small', 'lgg iterations=1'): 'advisedBy(v0,v1) :- student(v0), professor(v1), '
                                'inPhase(v0,"post_quals"), hasPosition(v1,v2), '
                                'publication(v3,v0), publication(v3,v1).',
 ('typed', 'armg deep_reduce_clauses'): 'advisedBy(v0,v1) :- student(v0), '
                                        'professor(v1), inPhase(v0,v2), '
                                        'hasPosition(v1,v3), publication(v4,v0), '
                                        'publication(v4,v1).',
 ('typed', 'armg iterations=1'): 'advisedBy(v0,v1) :- student(v0), professor(v1), '
                                 'inPhase(v0,v2), hasPosition(v1,v3), '
                                 'publication(v4,v0), publication(v4,v1).',
 ('typed', 'armg iterations=2'): 'advisedBy(v0,v1) :- student(v0), professor(v1), '
                                 'inPhase(v0,v2), hasPosition(v1,v3), '
                                 'publication(v4,v0), publication(v4,v1).',
 ('typed', 'armg threshold=1'): 'advisedBy(v0,v1) :- student(v0), professor(v1), '
                                'inPhase(v0,v2), hasPosition(v1,v3), '
                                'publication(v4,v0), publication(v4,v1).',
 ('typed', 'bias'): 'PREDICATES:\n'
                    'advisedBy(T3,T3)\n'
                    'advisedBy(T3,T5)\n'
                    'advisedBy(T5,T3)\n'
                    'advisedBy(T5,T5)\n'
                    'hasPosition(T3,T1)\n'
                    'inPhase(T5,T2)\n'
                    'professor(T3)\n'
                    'publication(T4,T3)\n'
                    'publication(T4,T5)\n'
                    'student(T5)\n'
                    'ta(T6,T5,T7)\n'
                    'MODES:\n'
                    'advisedBy(+,+)\n'
                    'student(+)\n'
                    'professor(+)\n'
                    'inPhase(+,-)\n'
                    'inPhase(-,+)\n'
                    'inPhase(+,#)\n'
                    'hasPosition(+,-)\n'
                    'hasPosition(-,+)\n'
                    'hasPosition(+,#)\n'
                    'publication(+,-)\n'
                    'publication(-,+)\n'
                    'publication(#,+)\n'
                    'ta(+,-,-)\n'
                    'ta(-,+,-)\n'
                    'ta(-,-,+)\n'
                    'ta(#,+,-)\n'
                    'ta(#,-,+)\n'
                    'ta(+,#,-)\n'
                    'ta(-,#,+)\n'
                    'ta(+,-,#)\n'
                    'ta(-,+,#)\n'
                    'ta(#,#,+)\n'
                    'ta(#,+,#)\n'
                    'ta(+,#,#)\n',
 ('typed', 'lgg iterations=1'): 'advisedBy(v0,v1) :- student(v0), professor(v1), '
                                'inPhase(v0,"post_quals"), hasPosition(v1,v2), '
                                'publication(v3,v0), publication(v3,v1).'}

CROSS_VALIDATE_REPORT = '{"folds": 3, "mean_precision": 0.4444444444444444, "mean_recall": 0.16666666666666666, "per_fold": [{"precision": 0.3333333333333333, "recall": 0.5}, {"precision": 1.0, "recall": 0.0}, {"precision": 0.0, "recall": 0.0}], "seed": 1}'

WIDE_DIGESTS = {'bias constant_threshold=1': 'ed861ea6946683a5b79f47f7dd47ebfc7d534c0a3b26d98560bbcd1d75624a3b',
 'bias constant_threshold=5': '1331354bf19347fd5a0878c4412baea9ad039e1938a8923c9f09c1878677f7d4',
 'inds alpha=0.0': 'e3e3d98409b2b80682594554ad1b3e4bdcb758a7a9941207e9f02ba6bf10d7b4',
 'inds alpha=0.5': '55b14def98c9c8b38ad80e66fb771521c74a3fc3c3daf08a849499bb2475998e',
 'inds alpha=1.0': '9caaeed2a68b250f7518c1117c4b3655332a01a07d340898edb2b5292054586c'}


if __name__ == "__main__":
    learned = {(case, run): _learned(case, run) for case in _CASES for run in _RUNS}
    sys.stdout.write(f"LEARNED = {pformat(learned, width=88)}\n\n")
    sys.stdout.write(f"CROSS_VALIDATE_REPORT = {_cross_validate_report()!r}\n\n")
    digests = {run: _wide_digest(run) for run in _WIDE_RUNS}
    sys.stdout.write(f"WIDE_DIGESTS = {pformat(digests, width=88)}\n")
