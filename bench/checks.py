"""Output checks that share no code with the package.

The bench reads the generated files itself, parses learned clauses from
their text format, and re-derives every checked answer by definition:
coverage by backtracking over plain row lists, inclusion dependencies by a
double loop over columns, and negatives from the positives' domains. Each
check returns a list of mismatch messages; an empty list means it passed.
Generated values hold only letters, digits and `_`, so clause text splits
on commas.
"""

from __future__ import annotations

import math
import re
from pathlib import Path

_LITERAL = re.compile(r"([A-Za-z_][A-Za-z0-9_]*)\(([^()]*)\)")
_EXAMPLE = re.compile(r"^\+\s+[A-Za-z_][A-Za-z0-9_]*\(([^()]*)\)$")


class Instance:
    """One generated input directory as plain Python data."""

    def __init__(self, directory: Path, target: str) -> None:
        self.target = target
        self.columns: dict[str, tuple[str, ...]] = {}
        for line in (directory / "schema.txt").read_text(encoding="utf-8").splitlines():
            m = _LITERAL.fullmatch(line.strip())
            if m:
                self.columns[m.group(1)] = tuple(m.group(2).split(","))
        self.positives = [
            tuple(m.group(1).split(","))
            for line in (directory / "examples.txt").read_text(encoding="utf-8").splitlines()
            if (m := _EXAMPLE.match(line.strip()))
        ]
        self.rows: dict[str, list[tuple[str, ...]]] = {}
        for name in self.columns:
            if name == target:
                continue
            lines = (directory / "facts" / f"{name}.csv").read_text(encoding="utf-8").split()
            self.rows[name] = sorted({tuple(line.split(",")) for line in lines[1:]})
        self.rows[target] = sorted(set(self.positives))  # the registered target


# -- check (a): coverage of learned definitions --------------------------------


def parse_definition(text: str) -> list[tuple[tuple, list[tuple]]]:
    """Clauses as (head, body) with literals (relation, args) and args
    ("v", name) for variables or ("c", value) for quoted constants."""
    clauses = []
    for line in text.splitlines():
        literals = [
            (rel, tuple(
                ("c", a[1:-1]) if a.startswith('"') else ("v", a)
                for a in (x.strip() for x in args.split(","))
            ))
            for rel, args in _LITERAL.findall(line)
        ]
        if literals:
            clauses.append((literals[0], literals[1:]))
    return clauses


def _match(literal, row, binding):
    out = binding
    for (kind, sym), value in zip(literal[1], row):
        if kind == "c":
            if sym != value:
                return None
        elif sym in out:
            if out[sym] != value:
                return None
        else:
            if out is binding:
                out = dict(binding)
            out[sym] = value
    return out


def _satisfiable(body, binding, rows) -> bool:
    """Some extension of `binding` maps every literal onto a row: split into
    variable-disjoint groups, then branch on the literal with fewest rows."""
    if not body:
        return True
    groups: list[list] = []
    for lit in body:
        free = {s for k, s in lit[1] if k == "v" and s not in binding}
        joined = [g for g in groups if g[0] & free]
        merged = [free, [lit]]
        for g in joined:
            merged[0] |= g[0]
            merged[1] += g[1]
            groups.remove(g)
        groups.append(merged)
    for _, group in groups:
        options = []
        for lit in group:
            matches = [b for row in rows[lit[0]] if (b := _match(lit, row, binding)) is not None]
            if not matches:
                return False
            options.append((len(matches), lit, matches))
        _, chosen, matches = min(options, key=lambda o: o[0])
        rest = [lit for lit in group if lit is not chosen]
        if not any(_satisfiable(rest, b, rows) for b in matches):
            return False
    return True


def covers(clause, example, rows) -> bool:
    head, body = clause
    binding = _match(head, example, {})
    return binding is not None and _satisfiable(body, binding, rows)


def check_coverage(sample: dict, instance: Instance) -> list[str]:
    """Re-score one definition on its sample; compare with the package."""
    clauses = parse_definition(sample["definition"])

    def covered(example):
        return any(covers(c, tuple(example), instance.rows) for c in clauses)

    tp = sum(1 for e in sample["positives"] if covered(e))
    fp = sum(1 for e in sample["negatives"] if covered(e))
    precision = tp / (tp + fp) if tp + fp else 1.0
    recall = tp / len(sample["positives"]) if sample["positives"] else 0.0
    if abs(precision - sample["precision"]) > 1e-9 or abs(recall - sample["recall"]) > 1e-9:
        return [
            f"coverage: package precision/recall {sample['precision']}/{sample['recall']}, "
            f"nested-loop evaluator {precision}/{recall} (tp={tp}, fp={fp})"
        ]
    return []


# -- check (b): inclusion dependencies -----------------------------------------


def check_inds(reported: list, instance: Instance, alpha: float) -> list[str]:
    columns = {
        (rel, pos): {row[pos] for row in instance.rows[rel]}
        for rel, attrs in instance.columns.items()
        for pos in range(len(attrs))
    }
    expected = set()
    for left_key, left in columns.items():
        if not left:
            continue
        for right_key, right in columns.items():
            if left_key == right_key:
                continue
            error = len(left - right) / len(left)
            if error <= alpha:
                expected.add((*left_key, *right_key, error))
    got = {tuple(i) for i in reported}
    if got != expected:
        return [
            f"inds: {len(got - expected)} reported but not contained, "
            f"{len(expected - got)} contained but not reported"
        ]
    return []


# -- check (d): closed-world negatives -------------------------------------------


def check_negatives(negatives: list, instance: Instance, ratio: int) -> list[str]:
    positives = set(instance.positives)
    arity = len(instance.columns[instance.target])
    domains = [{p[i] for p in positives} for i in range(arity)]
    pool = math.prod(len(d) for d in domains) - len(positives)
    drawn = [tuple(n) for n in negatives]
    errors = []
    if len(drawn) != min(ratio * len(positives), pool):
        errors.append(f"negatives: {len(drawn)} drawn, expected {min(ratio * len(positives), pool)}")
    if len(set(drawn)) != len(drawn):
        errors.append("negatives: duplicates")
    if any(n in positives for n in drawn):
        errors.append("negatives: a positive was drawn")
    if any(len(n) != arity or any(v not in d for v, d in zip(n, domains)) for n in drawn):
        errors.append("negatives: a value outside its position's domain")
    return errors
