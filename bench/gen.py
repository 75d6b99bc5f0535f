"""Seeded input generators for the benchmark workloads.

Both generators write the package's input formats (`schema.txt`,
`facts/<relation>.csv`, `examples.txt` holding positives only) and are
deterministic for a given seed. They import nothing from the package, so
the same files come out on every commit.

- `planted`: a departmental advisor domain whose only separating rule is
  `advisedBy(s,p) :- publication(t,s), publication(t,p)`, plus distractor
  relations, sized by its number of professors.
- `wide`: a random schema of many relations of arity 2-4 over shared
  entity pools, with nested value ranges so that many columns contain
  each other (lots of inclusion dependencies), and a ternary target.
"""

from __future__ import annotations

import random
from pathlib import Path

PHASES = ("pre_quals", "post_quals", "post_generals")
POSITIONS = ("assistant_prof", "associate_prof", "full_prof", "adjunct_prof")
TERMS = ("autumn", "winter", "spring", "summer")


def write_inputs(
    out: Path,
    schemas: dict[str, tuple[str, ...]],
    facts: dict[str, list[tuple[str, ...]]],
    target: str,
    positives: list[tuple[str, ...]],
) -> None:
    """Write schema.txt, one CSV per non-target relation, and examples.txt."""
    (out / "facts").mkdir(parents=True, exist_ok=True)
    (out / "schema.txt").write_text(
        "".join(f"{name}({','.join(attrs)})\n" for name, attrs in schemas.items()),
        encoding="utf-8",
    )
    for name, attrs in schemas.items():
        if name == target:
            continue  # examples-backed: rows come from the positives
        lines = [",".join(attrs)] + [",".join(row) for row in sorted(set(facts[name]))]
        (out / "facts" / f"{name}.csv").write_text(
            "\n".join(lines) + "\n", encoding="utf-8"
        )
    (out / "examples.txt").write_text(
        "".join(f"+ {target}({','.join(p)})\n" for p in positives), encoding="utf-8"
    )


def planted(
    out: Path, seed: int, profs: int, students_per_prof: int = 3, papers_per_pair: int = 2
) -> str:
    """Advisor domain; returns the target relation name.

    Every population is balanced, so the seed only decides the wiring:
    each professor advises exactly `students_per_prof` students and
    co-authors `papers_per_pair` titles with each of them, each student
    also co-authors one title with a random student, phases, positions and
    terms are dealt round-robin, each professor teaches two courses, and
    every course has two TAs. Bottom clauses therefore have about the same
    size on every seed.
    """
    rng = random.Random(seed)
    n_stud = profs * students_per_prof
    students = [f"s{i}" for i in range(n_stud)]
    professors = [f"p{i}" for i in range(profs)]
    schemas = {
        "student": ("stud",),
        "professor": ("prof",),
        "inPhase": ("stud", "phase"),
        "hasPosition": ("prof", "position"),
        "publication": ("title", "author"),
        "taughtBy": ("course", "prof", "term"),
        "ta": ("course", "stud", "term"),
        "advisedBy": ("stud", "prof"),
    }
    shuffled = rng.sample(students, n_stud)
    advising = [
        (stud, professors[i // students_per_prof]) for i, stud in enumerate(shuffled)
    ]
    pubs: list[tuple[str, ...]] = []
    titles = 0
    for stud, prof in advising:
        for _ in range(papers_per_pair):
            pubs += [(f"t{titles}", prof), (f"t{titles}", stud)]
            titles += 1
    peers = rng.sample(students, n_stud)
    for stud, peer in zip(students, peers[1:] + peers[:1]):
        pubs += [(f"t{titles}", stud), (f"t{titles}", peer)]
        titles += 1
    taught = [
        (f"c{2 * p + k}", prof, TERMS[(p + k) % len(TERMS)])
        for p, prof in enumerate(rng.sample(professors, profs))
        for k in range(2)
    ]
    tas = rng.sample(students, n_stud) * 2
    facts = {
        "student": [(s,) for s in students],
        "professor": [(p,) for p in professors],
        "inPhase": [
            (s, PHASES[i % len(PHASES)]) for i, s in enumerate(rng.sample(students, n_stud))
        ],
        "hasPosition": [
            (p, POSITIONS[i % len(POSITIONS)])
            for i, p in enumerate(rng.sample(professors, profs))
        ],
        "publication": pubs,
        "taughtBy": taught,
        "ta": [
            (c, tas[(2 * i + j) % len(tas)], t)
            for i, (c, _, t) in enumerate(taught)
            for j in range(2)
        ],
    }
    write_inputs(out, schemas, facts, "advisedBy", sorted(advising))
    return "advisedBy"


def wide(
    out: Path,
    seed: int,
    relations: int = 60,
    rows: int = 1750,
    target_domain: int = 64,
) -> str:
    """Random wide schema; returns the target relation name.

    Arities cycle through 2, 3, 4 and every relation holds `rows` rows, so
    the tuple and value counts are the same on every seed. Entity pools
    have sizes from 60 to 6000, and each column draws from a random prefix
    of its pool (pools are dealt round-robin), so prefixes nest and columns
    of one pool mostly contain each other. Every fifth relation takes one
    column from a tiny pool, which gives low-cardinality columns (constants
    in the bias). Each target position takes each of its first
    `target_domain` pool values exactly twice, so the closed-world pool
    always holds `target_domain`**3 minus the positives.
    """
    rng = random.Random(seed)
    pools = [60, 150, 400, 1000, 2500, 6000, 3, 4]
    schemas: dict[str, tuple[str, ...]] = {}
    facts: dict[str, list[tuple[str, ...]]] = {}
    for r in range(relations):
        columns = []
        for c in range(2 + r % 3):
            pool = 6 + r % 2 if r % 5 == 4 and c == 1 else (r + c) % 6
            columns.append((pool, max(1, round(pools[pool] * rng.uniform(0.3, 1.0)))))
        name = f"r{r}"
        schemas[name] = tuple(f"a{i}" for i in range(len(columns)))
        facts[name] = [
            tuple(f"e{pool}_{rng.randrange(width)}" for pool, width in columns)
            for _ in range(rows)
        ]
    target_pools = [rng.randrange(6) for _ in range(3)]
    while True:
        columns = []
        for pool in target_pools:
            values = [f"e{pool}_{v}" for v in range(target_domain)] * 2
            rng.shuffle(values)
            columns.append(values)
        positives = list(zip(*columns))
        if len(set(positives)) == len(positives):
            break
    schemas["target"] = ("x", "y", "z")
    write_inputs(out, schemas, facts, "target", sorted(positives))
    return "target"
