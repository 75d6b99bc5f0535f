"""Command-line entry point wiring the full pipeline.

Commands: discover-inds, induce-bias, learn, evaluate, and demo (an
end-to-end run over the packaged fixture). Every file-producing run also
writes `<out>.manifest.json` recording the resolved configuration and
input digests. Exit codes: 0 success, 1 validation error, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import asdict
from pathlib import Path

from . import __version__
from .biasgen import BiasSpec, check_bias_fits, induce_bias, read_bias, write_bias
from .errors import AutomodeError, ConfigError, LoadError, ValidationError
from .clauses import HornDefinition, minimize
from .evaluation import cross_validate, generate_negatives, learner_for, precision_recall
from .learner import CoverageCache, LearnConfig
from .fixtures import materialize_small
from .profiler import discover_inds, format_ind_set
from . import relstore
from .relstore import (
    DatabaseInstance,
    ExampleSet,
    load_database,
    load_examples,
    read_input,
    register_target,
)


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


def dispatch(argv: list[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "discover-inds" and args.examples is not None and not args.target:
            # the examples are read as the target relation's rows
            parser.error("discover-inds: --examples requires --target")
    except SystemExit as exc:
        return int(exc.code or 0)
    # each input's digest is taken as it is read, for the manifest
    recording = relstore._digests.set({})
    try:
        return args.handler(args)
    except (AutomodeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        relstore._digests.reset(recording)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="automode",
        description="Learn Datalog definitions with automatically induced language bias.",
    )
    parser.add_argument("--version", action="version", version=f"automode {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    alpha = argparse.ArgumentParser(add_help=False)
    alpha.add_argument(
        "--alpha",
        "--approx-ind-threshold",
        dest="alpha",
        type=float,
        default=0.5,
        help="error tolerance for approximate INDs (default 0.5)",
    )
    constants = argparse.ArgumentParser(add_help=False)
    constants.add_argument(
        "--constant-threshold",
        type=int,
        default=5,
        help="attributes with fewer distinct values may appear as constants (default 5)",
    )

    p = sub.add_parser("discover-inds", parents=[alpha], help="profile the database for unary INDs")
    _data_flags(p, examples_required=False)
    p.add_argument("--out", type=Path, default=None, help="output file (default stdout)")
    p.set_defaults(handler=_cmd_discover_inds)

    p = sub.add_parser(
        "induce-bias", parents=[alpha, constants], help="generate predicate and mode definitions"
    )
    _data_flags(p, examples_required=True)
    p.add_argument("--out", type=Path, required=True)
    p.set_defaults(handler=_cmd_induce_bias)

    p = sub.add_parser("learn", help="learn a Horn definition of the target")
    _data_flags(p, examples_required=True, target_required=False)
    p.add_argument("--bias", type=Path, required=True, help="bias file (generated or hand-written)")
    p.add_argument("--out", type=Path, required=True, help="model output file")
    _learn_flags(p)
    p.add_argument("--deep-reduce", action="store_true", help="deep-reduce clauses after learning")
    p.set_defaults(handler=_cmd_learn)

    # --alpha and --constant-threshold apply only when no --bias is given
    p = sub.add_parser("evaluate", parents=[alpha, constants], help="k-fold cross validation")
    _data_flags(p, examples_required=True)
    p.add_argument("--bias", type=Path, default=None, help="bias file; induced when omitted")
    p.add_argument("--folds", type=int, default=5)
    p.add_argument("--neg-ratio", type=int, default=2, help="negatives per positive when generating")
    p.add_argument("--report", type=Path, required=True, help="JSON report output")
    _learn_flags(p)
    p.set_defaults(handler=_cmd_evaluate)

    p = sub.add_parser("demo", help="run the packaged fixture end to end")
    p.add_argument("--out-dir", type=Path, default=Path("automode-demo"))
    p.set_defaults(handler=_cmd_demo)
    return parser


def _data_flags(p: argparse.ArgumentParser, examples_required: bool, target_required: bool = True) -> None:
    p.add_argument("--schema", type=Path, required=True, help="schema file")
    p.add_argument("--facts", type=Path, required=True, help="directory of per-relation CSVs")
    p.add_argument("--examples", type=Path, required=examples_required)
    p.add_argument("--target", required=examples_required and target_required)


def _learn_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--iterations", type=int, default=2)
    p.add_argument("--beam-width", type=int, default=3)
    p.add_argument("--sample-size", type=int, default=20)
    p.add_argument("--min-precision", type=float, default=0.5)
    p.add_argument("--min-positives", type=int, default=None)
    p.add_argument("--per-relation-cap", type=int, default=100)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--generalizer", choices=("armg", "lgg"), default="armg")


# -- command implementations -------------------------------------------------


def _cmd_discover_inds(args: argparse.Namespace) -> int:
    _check_bias_flags(args.alpha)
    db = _load(args)
    started = time.perf_counter()
    inds = discover_inds(db, args.alpha)
    _note(f"discovered {len(inds.inds)} INDs in {_ms(started)} ms")
    text = format_ind_set(inds)
    if args.out is None:
        sys.stdout.write(text)
        return 0
    args.out.write_text(text, encoding="utf-8")
    _write_manifest(args, args.out, {"alpha": args.alpha})
    return 0


def _cmd_induce_bias(args: argparse.Namespace) -> int:
    _check_bias_flags(args.alpha, args.constant_threshold)
    db = _load(args)
    started = time.perf_counter()
    bias = induce_bias(db, args.target, args.alpha, args.constant_threshold)
    _note(f"bias induction took {_ms(started)} ms")
    args.out.write_text(write_bias(bias), encoding="utf-8")
    _write_manifest(
        args,
        args.out,
        {"alpha": args.alpha, "constant_threshold": args.constant_threshold},
    )
    return 0


def _cmd_learn(args: argparse.Namespace) -> int:
    cfg = _config(args)
    bias = _read_bias(args.bias, args.target)
    db, examples = _load_inputs(args, bias.head_mode.relation)
    db = register_target(db, examples)
    check_bias_fits(bias, db)
    if args.generalizer == "lgg" and bias.modes:
        _note("mode definitions in the bias file are ignored by the lgg generalizer")
    # the training scores below read the coverage learning computed
    cache = CoverageCache(db, examples.positives + examples.negatives)
    started = time.perf_counter()
    definition = learner_for(args.generalizer)(db, examples, bias, cfg, cache=cache)
    if args.deep_reduce:
        definition = HornDefinition(tuple(minimize(c, deep=True) for c in definition.clauses))
    wall = _ms(started)
    _note(f"learning took {wall} ms; {len(definition.clauses)} clause(s)")
    precision, recall = precision_recall(
        definition, examples.positives, examples.negatives, db, cache
    )
    lines = [str(c) for c in definition.clauses]
    lines.append(f"# train_precision={precision:.6f}")
    lines.append(f"# train_recall={recall:.6f}")
    lines.append(f"# wall_ms={wall}")
    args.out.write_text("\n".join(lines) + "\n", encoding="utf-8")
    _write_manifest(
        args,
        args.out,
        {**_config_dict(args), "deep_reduce": args.deep_reduce},
    )
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    cfg = _config(args)
    _check_bias_flags(args.alpha, args.constant_threshold)
    bias = _read_bias(args.bias, args.target) if args.bias is not None else None
    db, examples = _load_inputs(args, args.target)
    if not examples.negatives:
        # drawn before registering, which would replace the stored target
        # rows with the positives: stored members stay in the domains
        negatives = generate_negatives(
            db, examples.positives, examples.target, args.neg_ratio, args.seed
        )
        examples = ExampleSet(examples.target, examples.positives, negatives)
        _note(f"generated {len(negatives)} closed-world negatives")
    db = register_target(db, examples)
    if bias is None:
        started = time.perf_counter()
        bias = induce_bias(db, args.target, args.alpha, args.constant_threshold)
        _note(f"bias induction took {_ms(started)} ms")
    else:
        check_bias_fits(bias, db)
    report = cross_validate(
        db,
        examples,
        bias,
        cfg,
        folds=args.folds,
        seed=args.seed,
        generalizer=args.generalizer,
    )
    args.report.write_text(
        json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    _write_manifest(
        args,
        args.report,
        {**_config_dict(args), "folds": args.folds, "neg_ratio": args.neg_ratio},
    )
    print(
        f"mean_precision={report.mean_precision:.6f} "
        f"mean_recall={report.mean_recall:.6f} "
        f"mean_wall_ms={report.mean_wall_ms:.1f}"
    )
    _note("note: a definition covering nothing counts as precision 1.0 (vacuous)")
    return 0


def _cmd_demo(args: argparse.Namespace) -> int:
    paths = materialize_small(args.out_dir)
    _note(f"fixture written to {args.out_dir}")
    data = [
        "--schema", str(paths["schema"]),
        "--facts", str(paths["facts"]),
        "--examples", str(paths["examples"]),
        "--target", "advisedBy",
    ]
    bias = str(args.out_dir / "bias.txt")
    model = args.out_dir / "model.dl"
    rc = dispatch(["induce-bias", *data, "--out", bias])
    if rc != 0:
        return rc
    rc = dispatch(["learn", *data, "--bias", bias, "--out", str(model)])
    if rc != 0:
        return rc
    print("learned definition:")
    for line in model.read_text(encoding="utf-8").splitlines():
        print(f"  {line}")
    return 0


# -- shared helpers -----------------------------------------------------------


def _check_bias_flags(alpha: float, threshold: int | None = None) -> None:
    """Reject an out-of-range --alpha or --constant-threshold before any
    input is read, with the message discover_inds or generate_modes would
    raise after loading. A threshold of None is not checked."""
    if not 0.0 <= alpha <= 1.0:
        raise ValidationError(f"alpha must be in [0,1], got {alpha}")
    if threshold is not None and threshold < 1:
        raise ConfigError("constant threshold must be >= 1")


def _load(args: argparse.Namespace) -> DatabaseInstance:
    """The database, with the examples, when given, registered as the rows
    of the target."""
    if args.examples is None:
        backed = (args.target,) if args.target else ()
        return load_database(args.schema, args.facts, examples_backed=backed)
    return register_target(*_load_inputs(args, args.target))


def _load_inputs(args: argparse.Namespace, target: str) -> tuple[DatabaseInstance, ExampleSet]:
    """The database, whose `target` may have no facts file, and the examples
    of `target`, which the caller registers. The examples file must hold an
    example of `target`; the first gives an undeclared target's arity."""
    db = load_database(args.schema, args.facts, examples_backed=(target,))
    examples = load_examples(
        args.examples, db.schema(target) if db.has_relation(target) else target
    )
    if not (examples.positives or examples.negatives):
        raise LoadError(f"{args.examples}: no examples of target {target}")
    return db, examples


def _read_bias(path: Path, target: str | None) -> BiasSpec:
    """The bias file at `path`, whose head must be `target` when one is given."""
    text = read_input(path, "bias file")
    try:
        bias = read_bias(text)
    except (LoadError, ValidationError) as exc:
        raise type(exc)(f"{path}: {exc}") from exc
    head = bias.head_mode.relation
    if target and target != head:
        raise LoadError(f"--target {target} does not match the bias head {head}")
    return bias


def _config(args: argparse.Namespace) -> LearnConfig:
    return LearnConfig(
        iterations=args.iterations,
        beam_width=args.beam_width,
        sample_size=args.sample_size,
        min_precision=args.min_precision,
        min_positives=args.min_positives,
        per_relation_cap=args.per_relation_cap,
        rng_seed=args.seed,
    )


def _config_dict(args: argparse.Namespace) -> dict:
    config = asdict(_config(args))
    config["seed"] = config.pop("rng_seed")
    return {**config, "generalizer": args.generalizer}


def _write_manifest(args: argparse.Namespace, out_path: Path, config: dict) -> None:
    # every input the command read, with the digest of the bytes it parsed
    manifest = {
        "command": args.command,
        "config": config,
        "inputs": {str(p): digest for p, digest in relstore._digests.get().items()},
        "tool_version": __version__,
    }
    Path(str(out_path) + ".manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def _ms(started: float) -> int:
    return int(round((time.perf_counter() - started) * 1000))


def _note(message: str) -> None:
    print(message, file=sys.stderr)


if __name__ == "__main__":
    main()
