"""CLI dispatch, exit codes, output files, and manifests."""

from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path

import pytest

from automode import cli, fixtures, relstore
from automode.biasgen import generate_modes
from automode.cli import dispatch
from automode.clauses import minimize, parse_clause
from automode.errors import AutomodeError
from automode.fixtures import materialize_small
from automode.profiler import discover_inds

from conftest import MANUAL_BIAS_TEXT


@pytest.fixture
def fixture_dir(tmp_path):
    paths = materialize_small(tmp_path / "data")
    return paths


def _data_args(paths, with_examples=True):
    args = ["--schema", str(paths["schema"]), "--facts", str(paths["facts"])]
    if with_examples:
        args += ["--examples", str(paths["examples"]), "--target", "advisedBy"]
    return args


class TestExitCodes:
    def test_missing_required_flag_is_usage_error(self, fixture_dir, tmp_path):
        rc = dispatch(["learn", "--schema", str(fixture_dir["schema"])])
        assert rc == 2

    def test_unknown_flag_is_usage_error(self, fixture_dir):
        rc = dispatch(["discover-inds", *_data_args(fixture_dir, False), "--bogus"])
        assert rc == 2

    def test_deep_reduce_is_a_learn_flag(self, fixture_dir, tmp_path):
        report = tmp_path / "r.json"
        rc = dispatch(
            ["evaluate", *_data_args(fixture_dir), "--report", str(report), "--deep-reduce"]
        )
        assert rc == 2
        assert not report.exists()

    def test_threshold_zero_is_validation_error(self, fixture_dir, tmp_path, capsys):
        rc = dispatch(
            [
                "induce-bias",
                *_data_args(fixture_dir),
                "--constant-threshold",
                "0",
                "--out",
                str(tmp_path / "bias.txt"),
            ]
        )
        assert rc == 1
        assert "threshold must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("with_bias", [False, True])
    def test_evaluate_threshold_zero_is_validation_error(
        self, fixture_dir, tmp_path, capsys, with_bias
    ):
        # the threshold only reaches bias induction, but is checked either way
        bias = tmp_path / "b.txt"
        bias.write_text(MANUAL_BIAS_TEXT, encoding="utf-8")
        rc = dispatch(
            [
                "evaluate",
                *_data_args(fixture_dir),
                "--constant-threshold",
                "0",
                "--report",
                str(tmp_path / "r.json"),
                *(["--bias", str(bias)] if with_bias else []),
            ]
        )
        assert rc == 1
        assert "threshold must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["learn", "evaluate"])
    def test_bias_head_other_than_target_is_validation_error(
        self, fixture_dir, tmp_path, capsys, command
    ):
        bias = tmp_path / "b.txt"
        text = MANUAL_BIAS_TEXT.replace("hasPosition(+,-)\n", "")
        bias.write_text(text.replace("advisedBy(+,+)", "hasPosition(+,+)"), encoding="utf-8")
        out = tmp_path / "out"
        out_flag = "--out" if command == "learn" else "--report"
        rc = dispatch(
            [command, *_data_args(fixture_dir), "--bias", str(bias), out_flag, str(out)]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert "does not match the bias head hasPosition" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["learn", "evaluate"])
    @pytest.mark.parametrize(
        "head,predicate,mode,message",
        [
            # a mode whose arity is wrong for its relation
            ("advisedBy(+,+)", "publication(T4,T1)", "publication(+)",
             "publication(+): relation publication has arity 2"),
            # a misspelled relation, in both sections
            ("advisedBy(+,+)", "publcation(T4,T1)", "publcation(-,+)",
             "publcation(T4,T1): relation publcation is not in the database"),
            # a predicate declaration whose arity is wrong
            ("advisedBy(+,+)", "publication(T4)", "publication(-,+)",
             "publication(T4): relation publication has arity 2"),
            # a head mode whose arity is wrong for the target
            ("advisedBy(+)", "publication(T4,T1)", "publication(-,+)",
             "advisedBy(+): relation advisedBy has arity 2"),
        ],
    )
    def test_bias_that_does_not_fit_the_database_is_validation_error(
        self, fixture_dir, tmp_path, capsys, command, head, predicate, mode, message
    ):
        # each of these once learned the empty-body advisedBy(v0,v1). at
        # precision 0.5 and exited 0
        bias = tmp_path / "b.txt"
        bias.write_text(
            "PREDICATES:\nadvisedBy(T1,T1)\nstudent(T1)\nprofessor(T1)\n"
            f"{predicate}\nMODES:\n{head}\n{mode}\n",
            encoding="utf-8",
        )
        out = tmp_path / "out"
        out_flag = "--out" if command == "learn" else "--report"
        rc = dispatch(
            [command, *_data_args(fixture_dir), "--bias", str(bias), out_flag, str(out)]
        )
        err = capsys.readouterr().err
        assert rc == 1
        assert f"bias declaration {message}" in err and "Traceback" not in err
        assert not out.exists()

    def test_missing_input_file_is_validation_error(self, tmp_path):
        rc = dispatch(
            [
                "discover-inds",
                "--schema",
                str(tmp_path / "nope.txt"),
                "--facts",
                str(tmp_path),
            ]
        )
        assert rc == 1

    @pytest.mark.parametrize(
        "command, flag, value, given_bias",
        [
            ("discover-inds", "--alpha", "1.5", False),
            ("discover-inds", "--alpha", "-0.25", False),
            ("induce-bias", "--alpha", "2", False),
            ("induce-bias", "--constant-threshold", "0", False),
            ("evaluate", "--alpha", "1.5", False),
            ("evaluate", "--constant-threshold", "-1", False),
            # evaluate ignores both flags with --bias, but checks both
            ("evaluate", "--alpha", "7", True),
            ("evaluate", "--constant-threshold", "0", True),
        ],
    )
    def test_bad_bias_flag_fails_before_any_input_is_read(
        self, fixture_dir, tmp_path, monkeypatch, capsys, command, flag, value, given_bias
    ):
        def unread(*args, **kwargs):
            raise AssertionError("an input was read")

        for loader in ("load_database", "load_examples", "read_input"):
            monkeypatch.setattr(cli, loader, unread)
        db = fixtures.small_database_registered()
        # the message the library raises for the same value after loading
        with pytest.raises(AutomodeError) as library:
            if flag == "--alpha":
                discover_inds(db, float(value))
            else:
                generate_modes(db, int(value), "advisedBy")
        out = {
            "discover-inds": ["--out", str(tmp_path / "inds.txt")],
            "induce-bias": ["--out", str(tmp_path / "bias.txt")],
            "evaluate": ["--report", str(tmp_path / "r.json")],
        }[command]
        if given_bias:
            bias = tmp_path / "data" / "bias.txt"
            bias.write_text(MANUAL_BIAS_TEXT, encoding="utf-8")
            out += ["--bias", str(bias)]
        rc = dispatch([command, *_data_args(fixture_dir), flag, value, *out])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {library.value}\n"
        # nothing beside the fixture's inputs was written
        assert list(tmp_path.iterdir()) == [tmp_path / "data"]

    @pytest.mark.parametrize("command", ["learn", "evaluate"])
    def test_bad_learner_flag_fails_before_any_input_is_read(
        self, fixture_dir, tmp_path, capsys, command
    ):
        bias = tmp_path / "b.txt"
        bias.write_text(MANUAL_BIAS_TEXT, encoding="utf-8")
        if command == "learn":
            tail = ["--bias", str(bias), "--out", str(tmp_path / "m.dl")]
        else:
            tail = ["--report", str(tmp_path / "r.json")]
        rc = dispatch(
            [
                command,
                "--schema",
                str(fixture_dir["schema"]),
                "--facts",
                str(tmp_path / "no-such-dir"),
                "--examples",
                str(fixture_dir["examples"]),
                "--target",
                "advisedBy",
                "--beam-width",
                "0",
                *tail,
            ]
        )
        assert rc == 1
        assert capsys.readouterr().err == "error: beam_width must be >= 1\n"

    @pytest.mark.parametrize(
        "command, name, problem",
        [
            ("learn", "bias", "missing"),
            ("learn", "bias", "a directory"),
            ("learn", "bias", "not UTF-8"),
            ("learn", "facts", "not UTF-8"),
            ("learn", "schema", "not UTF-8"),
            ("learn", "examples", "not UTF-8"),
            ("learn", "out", "in a missing directory"),
            ("evaluate", "examples", "missing"),
            ("evaluate", "examples", "a directory"),
            ("induce-bias", "examples", "missing"),
            ("discover-inds", "examples", "missing"),
        ],
    )
    def test_unreadable_input_or_unwritable_output_exits_1(
        self, fixture_dir, tmp_path, capsys, command, name, problem
    ):
        files = {**fixture_dir, "bias": tmp_path / "bias.txt", "out": tmp_path / "out"}
        files["bias"].write_text(MANUAL_BIAS_TEXT, encoding="utf-8")
        if problem == "not UTF-8":
            path = files[name] / "student.csv" if name == "facts" else files[name]
            path.write_bytes(b"\xff" + path.read_bytes())
        else:
            files[name] = {
                "missing": tmp_path / "missing.txt",
                "a directory": tmp_path,
                "in a missing directory": tmp_path / "nodir" / "m.dl",
            }[problem]
        args = [
            command,
            "--schema", str(files["schema"]),
            "--facts", str(files["facts"]),
            "--examples", str(files["examples"]),
            "--target", "advisedBy",
            "--report" if command == "evaluate" else "--out", str(files["out"]),
        ]
        if command == "learn":
            args += ["--bias", str(files["bias"])]
        assert dispatch(args) == 1
        err = capsys.readouterr().err
        assert "error:" in err and "Traceback" not in err
        assert not files["out"].exists()


def _undeclare(paths):
    """Drop the target's declaration from the fixture's schema file."""
    lines = paths["schema"].read_text(encoding="utf-8").splitlines()
    kept = [line for line in lines if not line.startswith("advisedBy(")]
    paths["schema"].write_text("\n".join(kept) + "\n", encoding="utf-8")


def _command_args(command, paths, tmp_path):
    """`command` on the fixture's inputs, with its output under `tmp_path`
    and, for `learn`, the hand-written bias."""
    if command == "learn":
        bias = tmp_path / "manual.txt"
        bias.write_text(MANUAL_BIAS_TEXT, encoding="utf-8")
        extra = ["--bias", str(bias), "--out", str(tmp_path / "out")]
    elif command == "evaluate":
        extra = ["--folds", "2", "--report", str(tmp_path / "out")]
    else:
        extra = ["--out", str(tmp_path / "out")]
    return [command, *_data_args(paths), *extra]


COMMANDS = ["discover-inds", "induce-bias", "learn", "evaluate"]


class TestUndeclaredTarget:
    """A target the schema does not declare takes its arity from the first
    example of it."""

    def test_arity_from_the_first_target_example(self, fixture_dir, tmp_path):
        text = "# comment\n\n" + fixture_dir["examples"].read_text(encoding="utf-8")
        _undeclare(fixture_dir)
        fixture_dir["examples"].write_text(text, encoding="utf-8")
        out = tmp_path / "bias.txt"
        rc = dispatch(["induce-bias", *_data_args(fixture_dir), "--out", str(out)])
        assert rc == 0
        assert "advisedBy(+,+)" in out.read_text(encoding="utf-8")

    @pytest.mark.parametrize("declared", [True, False])
    def test_line_of_another_relation_fails_on_its_line(
        self, fixture_dir, tmp_path, capsys, declared
    ):
        if not declared:
            _undeclare(fixture_dir)
        fixture_dir["examples"].write_text(
            "# none\n+ advisedByX(a,b)\n- other(a,b)\n", encoding="utf-8"
        )
        out = tmp_path / "bias.txt"
        rc = dispatch(["induce-bias", *_data_args(fixture_dir), "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 1
        assert (
            f"{fixture_dir['examples']}:2: example relation advisedByX is not "
            "the target advisedBy"
        ) in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_learn_checks_the_examples_arity_against_the_bias_head(
        self, fixture_dir, tmp_path, capsys
    ):
        # the examples give an undeclared target its arity, and the bias
        # is checked against it
        _undeclare(fixture_dir)
        bias = tmp_path / "bias.txt"
        bias.write_text(
            "PREDICATES:\nadvisedBy(T1,T1,T1)\npublication(T4,T1)\n"
            "MODES:\nadvisedBy(+,+,+)\npublication(-,+)\n",
            encoding="utf-8",
        )
        out = tmp_path / "model.dl"
        rc = dispatch(
            ["learn", *_data_args(fixture_dir), "--bias", str(bias), "--out", str(out)]
        )
        err = capsys.readouterr().err
        assert rc == 1
        assert (
            "bias declaration advisedBy(T1,T1,T1): relation advisedBy has arity 2"
        ) in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_outputs_equal_the_declared_runs(self, fixture_dir, tmp_path):
        # the induced bias and the learned clauses do not depend on whether
        # the schema declares the target
        outputs = []
        for name in ("declared", "undeclared"):
            if name == "undeclared":
                _undeclare(fixture_dir)
            bias, model = tmp_path / f"{name}.txt", tmp_path / f"{name}.dl"
            data = _data_args(fixture_dir)
            assert dispatch(["induce-bias", *data, "--out", str(bias)]) == 0
            assert dispatch(["learn", *data, "--bias", str(bias), "--out", str(model)]) == 0
            clauses = [
                l for l in model.read_text().splitlines() if not l.startswith("# wall_ms")
            ]
            outputs.append((bias.read_text(), clauses))
        assert outputs[0] == outputs[1]


class TestExamplesFile:
    @pytest.mark.parametrize("declared", [True, False])
    @pytest.mark.parametrize("command", COMMANDS)
    def test_reads_the_examples_file_once(
        self, fixture_dir, tmp_path, monkeypatch, command, declared
    ):
        if not declared:
            _undeclare(fixture_dir)
        reads = []
        original = relstore.read_input

        def counting(path, what):
            reads.append(path)
            return original(path, what)

        monkeypatch.setattr(relstore, "read_input", counting)
        assert dispatch(_command_args(command, fixture_dir, tmp_path)) == 0
        assert reads.count(fixture_dir["examples"]) == 1

    @pytest.mark.parametrize("declared", [True, False])
    @pytest.mark.parametrize("command", COMMANDS)
    def test_no_target_example_is_load_error(
        self, fixture_dir, tmp_path, capsys, command, declared
    ):
        if not declared:
            _undeclare(fixture_dir)
        fixture_dir["examples"].write_text("# none\n", encoding="utf-8")
        rc = dispatch(_command_args(command, fixture_dir, tmp_path))
        err = capsys.readouterr().err
        assert rc == 1
        assert f"{fixture_dir['examples']}: no examples of target advisedBy" in err
        assert not (tmp_path / "out").exists()


class TestManifest:
    @pytest.mark.parametrize("command", COMMANDS)
    def test_each_input_is_read_once(self, fixture_dir, tmp_path, monkeypatch, command):
        # the manifest records the digests of the bytes the loaders parsed
        reads = []
        original = Path.read_bytes

        def counting(path):
            reads.append(path)
            return original(path)

        monkeypatch.setattr(Path, "read_bytes", counting)
        assert dispatch(_command_args(command, fixture_dir, tmp_path)) == 0
        monkeypatch.undo()
        inputs = [fixture_dir["schema"], fixture_dir["examples"]]
        inputs += sorted(fixture_dir["facts"].glob("*.csv"))
        if command == "learn":
            inputs.append(tmp_path / "manual.txt")
        assert sorted(map(str, reads)) == sorted(map(str, inputs))
        manifest = json.loads((tmp_path / "out.manifest.json").read_text(encoding="utf-8"))
        assert manifest["inputs"] == {
            str(p): hashlib.sha256(p.read_bytes()).hexdigest() for p in inputs
        }


class TestDiscoverInds:
    def test_writes_sorted_lines_and_manifest(self, fixture_dir, tmp_path):
        out = tmp_path / "inds.txt"
        rc = dispatch(
            [
                "discover-inds",
                *_data_args(fixture_dir),
                "--alpha",
                "0.5",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines == sorted(lines)
        assert all(
            re.match(r"^\w+\[\w+\] <= \w+\[\w+\] err=\d\.\d{6}$", l) for l in lines
        )
        manifest = json.loads((tmp_path / "inds.txt.manifest.json").read_text())
        assert manifest["command"] == "discover-inds"
        assert manifest["config"]["alpha"] == 0.5
        assert manifest["inputs"]

    def test_examples_without_target_is_usage_error(self, fixture_dir, capsys):
        # examples are registered as the target's rows, so without --target
        # they could only be dropped in silence
        rc = dispatch(
            [
                "discover-inds",
                *_data_args(fixture_dir, False),
                "--examples",
                str(fixture_dir["examples"]),
            ]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert "--target" in err
        assert "Traceback" not in err

    def test_stdout_when_no_out(self, fixture_dir, capsys):
        # --target alone marks the relation as examples-backed
        rc = dispatch(
            ["discover-inds", *_data_args(fixture_dir, False), "--target", "advisedBy"]
        )
        assert rc == 0
        assert "<=" in capsys.readouterr().out


class TestInduceBias:
    def test_bias_file_round_trips_through_learn(self, fixture_dir, tmp_path):
        bias_file = tmp_path / "bias.txt"
        rc = dispatch(
            ["induce-bias", *_data_args(fixture_dir), "--out", str(bias_file)]
        )
        assert rc == 0
        text = bias_file.read_text()
        assert text.startswith("PREDICATES:")
        assert "MODES:\nadvisedBy(+,+)" in text

    def test_byte_identical_reruns(self, fixture_dir, tmp_path):
        outs = []
        for name in ("a.txt", "b.txt"):
            out = tmp_path / name
            assert dispatch(
                ["induce-bias", *_data_args(fixture_dir), "--out", str(out)]
            ) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


class TestLearn:
    def test_learn_with_induced_bias(self, fixture_dir, tmp_path):
        bias_file = tmp_path / "bias.txt"
        assert dispatch(
            ["induce-bias", *_data_args(fixture_dir), "--out", str(bias_file)]
        ) == 0
        model = tmp_path / "model.dl"
        rc = dispatch(
            [
                "learn",
                *_data_args(fixture_dir),
                "--bias",
                str(bias_file),
                "--out",
                str(model),
            ]
        )
        assert rc == 0
        text = model.read_text()
        assert "advisedBy(" in text
        assert "# train_precision=1.000000" in text
        assert "# train_recall=1.000000" in text
        assert re.search(r"# wall_ms=\d+", text)

    def test_learn_accepts_hand_written_bias(self, fixture_dir, tmp_path):
        bias_file = tmp_path / "manual.txt"
        bias_file.write_text(MANUAL_BIAS_TEXT)
        model = tmp_path / "model.dl"
        rc = dispatch(
            [
                "learn",
                *_data_args(fixture_dir),
                "--bias",
                str(bias_file),
                "--out",
                str(model),
            ]
        )
        assert rc == 0
        assert "# train_precision=1.000000" in model.read_text()

    def test_learn_target_defaults_from_bias(self, fixture_dir, tmp_path):
        bias_file = tmp_path / "manual.txt"
        bias_file.write_text(MANUAL_BIAS_TEXT)
        model = tmp_path / "model.dl"
        rc = dispatch(
            [
                "learn",
                "--schema",
                str(fixture_dir["schema"]),
                "--facts",
                str(fixture_dir["facts"]),
                "--examples",
                str(fixture_dir["examples"]),
                "--bias",
                str(bias_file),
                "--out",
                str(model),
            ]
        )
        assert rc == 0

    def test_body_mode_on_target_is_validation_error(self, fixture_dir, tmp_path, capsys):
        bias_file = tmp_path / "leaky.txt"
        bias_file.write_text(MANUAL_BIAS_TEXT + "advisedBy(+,-)\n")
        rc = dispatch(
            [
                "learn",
                *_data_args(fixture_dir),
                "--bias",
                str(bias_file),
                "--out",
                str(tmp_path / "model.dl"),
            ]
        )
        err = capsys.readouterr().err
        assert rc == 1
        assert "target relation" in err and "Traceback" not in err
        assert not (tmp_path / "model.dl").exists()

    def test_lgg_generalizer_warns_about_modes(self, fixture_dir, tmp_path, capsys):
        bias_file = tmp_path / "bias.txt"
        assert dispatch(
            ["induce-bias", *_data_args(fixture_dir), "--out", str(bias_file)]
        ) == 0
        model = tmp_path / "model.dl"
        rc = dispatch(
            [
                "learn",
                *_data_args(fixture_dir),
                "--bias",
                str(bias_file),
                "--generalizer",
                "lgg",
                "--out",
                str(model),
            ]
        )
        assert rc == 0
        assert "ignored" in capsys.readouterr().err

    @pytest.mark.parametrize("generalizer", ["armg", "lgg"])
    def test_partial_predicates_section(self, fixture_dir, tmp_path, capsys, generalizer):
        # a hand-written bias may leave relations undeclared; lgg then walks
        # only the declared ones, as armg does through the modes
        bias_file = tmp_path / "bias.txt"
        bias_file.write_text(
            "PREDICATES:\nadvisedBy(T1,T1)\nstudent(T1)\nprofessor(T1)\n"
            "publication(T4,T1)\nMODES:\nadvisedBy(+,+)\npublication(-,+)\n",
            encoding="utf-8",
        )
        model = tmp_path / "model.dl"
        rc = dispatch(
            [
                "learn",
                *_data_args(fixture_dir),
                "--bias",
                str(bias_file),
                "--generalizer",
                generalizer,
                "--iterations",
                "1",
                "--out",
                str(model),
            ]
        )
        assert rc == 0, capsys.readouterr().err
        text = model.read_text(encoding="utf-8")
        assert "publication(" in text
        assert "inPhase" not in text and "hasPosition" not in text

    def test_deep_reduce_replaces_each_clause_by_its_core(
        self, fixture_dir, tmp_path, monkeypatch
    ):
        # the fixture's clause is its own core, so the reduced calls are
        # recorded to show the branch ran on the learned clauses
        bias_file = tmp_path / "bias.txt"
        assert dispatch(
            ["induce-bias", *_data_args(fixture_dir), "--out", str(bias_file)]
        ) == 0
        reduced = []

        def recording(clause, deep=False):
            reduced.append((clause, deep))
            return minimize(clause, deep=deep)

        monkeypatch.setattr(cli, "minimize", recording)
        runs = []
        for flags in ((), ("--deep-reduce",)):
            model = tmp_path / f"model{len(flags)}.dl"
            args = [*_data_args(fixture_dir), "--bias", str(bias_file), "--out", str(model)]
            assert dispatch(["learn", *args, *flags]) == 0
            lines = model.read_text(encoding="utf-8").splitlines()
            runs.append(
                (
                    [parse_clause(l) for l in lines if not l.startswith("#")],
                    [l for l in lines if l.startswith("# train_")],
                )
            )
        (plain, plain_scores), (deep, deep_scores) = runs
        assert plain and reduced == [(c, True) for c in plain]
        assert deep == [minimize(c, deep=True) for c in plain]
        assert deep_scores == plain_scores

    @pytest.mark.parametrize(
        "text, message",
        [
            ("PREDICATES:\nadvisedBy(T1,T1)\nbogus line\n",
             "bias line 3: cannot parse 'bogus line'"),
            ("PREDICATES:\nadvisedBy(T1,T1)\nMODES:\nadvisedBy(+,-)\n",
             "the head mode must be all '+'"),
        ],
        ids=["unparsable-line", "head-mode"],
    )
    def test_bias_file_errors_name_the_file(
        self, fixture_dir, tmp_path, capsys, text, message
    ):
        bias_file = tmp_path / "bad.txt"
        bias_file.write_text(text, encoding="utf-8")
        out = tmp_path / "model.dl"
        rc = dispatch(
            ["learn", *_data_args(fixture_dir), "--bias", str(bias_file), "--out", str(out)]
        )
        assert rc == 1
        assert capsys.readouterr().err == f"error: {bias_file}: {message}\n"
        assert not out.exists()

    def test_models_identical_modulo_wall_time(self, fixture_dir, tmp_path):
        bias_file = tmp_path / "bias.txt"
        assert dispatch(
            ["induce-bias", *_data_args(fixture_dir), "--out", str(bias_file)]
        ) == 0
        texts = []
        for name in ("m1.dl", "m2.dl"):
            out = tmp_path / name
            assert dispatch(
                [
                    "learn",
                    *_data_args(fixture_dir),
                    "--bias",
                    str(bias_file),
                    "--out",
                    str(out),
                ]
            ) == 0
            texts.append(
                [l for l in out.read_text().splitlines() if not l.startswith("# wall_ms")]
            )
        assert texts[0] == texts[1]


class TestEvaluate:
    def test_report_shape_and_determinism(self, fixture_dir, tmp_path):
        reports = []
        for name in ("r1.json", "r2.json"):
            out = tmp_path / name
            rc = dispatch(
                [
                    "evaluate",
                    *_data_args(fixture_dir),
                    "--folds",
                    "2",
                    "--seed",
                    "1",
                    "--neg-ratio",
                    "2",
                    "--report",
                    str(out),
                ]
            )
            assert rc == 0
            reports.append(json.loads(out.read_text()))
        for report in reports:
            assert report["folds"] == 2
            assert len(report["per_fold"]) == 2
        assert _strip_wall(reports[0]) == _strip_wall(reports[1])

    def test_induces_bias_when_not_given(self, fixture_dir, tmp_path, capsys):
        out = tmp_path / "r.json"
        rc = dispatch(
            ["evaluate", *_data_args(fixture_dir), "--folds", "2", "--report", str(out)]
        )
        assert rc == 0
        assert "bias induction" in capsys.readouterr().err

    def test_unary_target_draws_negatives_from_stored_members(
        self, tmp_path, monkeypatch
    ):
        # registering the target replaces student.csv with the positives;
        # the closed-world pool must still hold the stored member carol
        facts = tmp_path / "facts"
        facts.mkdir()
        (tmp_path / "schema.txt").write_text(
            "student(name)\ninPhase(name,phase)\n", encoding="utf-8"
        )
        (facts / "student.csv").write_text("name\nalice\nbob\ncarol\n", encoding="utf-8")
        (facts / "inPhase.csv").write_text(
            "name,phase\nalice,pre_quals\nbob,post_quals\ncarol,post_quals\n",
            encoding="utf-8",
        )
        examples = tmp_path / "examples.txt"
        examples.write_text("+ student(alice)\n+ student(bob)\n", encoding="utf-8")
        drawn = []
        original = cli.generate_negatives

        def recording(*args):
            drawn.append(original(*args))
            return drawn[-1]

        monkeypatch.setattr(cli, "generate_negatives", recording)
        report = tmp_path / "r.json"
        rc = dispatch(
            [
                "evaluate",
                "--schema",
                str(tmp_path / "schema.txt"),
                "--facts",
                str(facts),
                "--examples",
                str(examples),
                "--target",
                "student",
                "--folds",
                "2",
                "--report",
                str(report),
            ]
        )
        assert rc == 0
        assert drawn == [(("carol",),)]
        assert json.loads(report.read_text())["folds"] == 2


class TestDemo:
    def test_demo_prints_model_and_writes_artifacts(self, tmp_path, capsys):
        out_dir = tmp_path / "demo"
        rc = dispatch(["demo", "--out-dir", str(out_dir)])
        assert rc == 0
        output = capsys.readouterr().out
        assert "learned definition:" in output
        assert "publication(" in output
        for artifact in ("schema.txt", "examples.txt", "bias.txt", "model.dl"):
            assert (out_dir / artifact).exists()
        assert (out_dir / "model.dl.manifest.json").exists()

    def test_demo_runs_the_commands_with_their_defaults(self, tmp_path):
        demo = tmp_path / "demo"
        assert dispatch(["demo", "--out-dir", str(demo)]) == 0
        data = _data_args(
            {
                "schema": demo / "schema.txt",
                "facts": demo / "facts",
                "examples": demo / "examples.txt",
            }
        )
        bias, model = tmp_path / "bias.txt", tmp_path / "model.dl"
        assert dispatch(["induce-bias", *data, "--out", str(bias)]) == 0
        assert dispatch(["learn", *data, "--bias", str(bias), "--out", str(model)]) == 0
        assert (demo / "bias.txt").read_text() == bias.read_text()

        def without_wall(path):
            return [l for l in path.read_text().splitlines() if not l.startswith("# wall_ms")]

        assert without_wall(demo / "model.dl") == without_wall(model)
        for name in ("bias.txt", "model.dl"):
            configs = [
                json.loads((d / f"{name}.manifest.json").read_text())["config"]
                for d in (demo, tmp_path)
            ]
            assert configs[0] == configs[1]


def _strip_wall(report: dict) -> dict:
    out = dict(report)
    out.pop("mean_wall_ms")
    out["per_fold"] = [
        {k: v for k, v in fold.items() if k != "wall_ms"} for fold in report["per_fold"]
    ]
    return out
