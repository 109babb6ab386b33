import contextlib
import importlib
import io
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import leavitt
from leavitt import (
    ConstructionError,
    DegreeMapError,
    Element,
    ElementSyntaxError,
    FrobeniusBuildError,
    GraphError,
    GroupError,
    HomogeneityError,
    RingError,
    cli,
    parse_element,
    parse_graph,
)
from leavitt.cli import main

from .util import GRAPH_B, GRAPH_C, GRAPH_CHAIN

CORPUS = Path(__file__).parent / "cli_corpus"

# argparse's own text: help, usage and parse errors, recorded with COLUMNS=80
# under the Python version named in the file. Rewrite it after a deliberate
# change of that text with
#
#     PYTHONPATH=src python -m tests.test_cli
#
# and review the diff of help.json.
PARSER_GOLDENS = CORPUS / "help.json"
PARSER_CASES = {
    "help": ["--help"],
    **{f"{name}-help": [name, "--help"] for name in cli._COMMANDS},
    "h-before-a-command": ["-h", "nf"],
    "no-arguments": [],
    "unknown-command": ["nope", "--graph", "x"],
    "unrecognized-argument": ["nf", "--graph", "g.lpa", "extra"],
}


@pytest.fixture()
def graph_file(tmp_path):
    p = tmp_path / "chain.lpa"
    p.write_text(GRAPH_CHAIN)
    return str(p)


@pytest.fixture()
def graph_c_file(tmp_path):
    p = tmp_path / "c.lpa"
    p.write_text(GRAPH_C)
    return str(p)


@pytest.fixture()
def graph_b_file(tmp_path):
    p = tmp_path / "b.lpa"
    p.write_text(GRAPH_B)
    return str(p)


@pytest.fixture()
def z2_degrees_file(tmp_path):
    p = tmp_path / "z2.deg"
    p.write_text("group Z/2\ndeg e = 1\ndeg f = 1\n")
    return str(p)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_parser_case(argv):
    """Exit code, stdout and stderr of main(argv); argparse exits on help."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


class TestParser:
    """The parser holds one subparser when argv names a command and all nine
    otherwise; either way its text is the parser's with all nine."""

    @pytest.mark.parametrize("name", PARSER_CASES)
    def test_text_is_that_of_the_full_parser(self, monkeypatch, name):
        monkeypatch.setenv("COLUMNS", "80")
        got = run_parser_case(PARSER_CASES[name])
        build = cli._build_parser
        monkeypatch.setattr(cli, "_build_parser", lambda argv: build(()))
        assert got == run_parser_case(PARSER_CASES[name])
        # argparse's wording and layout vary between Python versions
        recorded = json.loads(PARSER_GOLDENS.read_text(encoding="utf-8"))
        if recorded["python"] == "%d.%d" % sys.version_info[:2]:
            assert got == recorded["cases"][name]

    def test_every_case_has_a_golden(self):
        recorded = json.loads(PARSER_GOLDENS.read_text(encoding="utf-8"))
        assert sorted(recorded["cases"]) == sorted(PARSER_CASES)

    def test_top_level_help_names_every_command(self, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        result = run_parser_case(["--help"])
        assert result["code"] == 0 and result["stderr"] == ""
        assert all(f"    {name} " in result["stdout"] for name in cli._COMMANDS)

    def test_no_command_is_a_usage_error(self):
        result = run_parser_case([])
        assert result == {
            "code": 64,
            "stdout": "",
            "stderr": "usage error: the following arguments are required: command\n",
        }

    def test_an_unknown_command_lists_all_nine(self):
        result = run_parser_case(["nope", "--graph", "x"])
        assert result["code"] == 64 and result["stdout"] == ""
        assert result["stderr"].startswith("usage error: argument command: invalid choice: 'nope'")
        assert all(name in result["stderr"] for name in cli._COMMANDS)

    def test_a_tuple_argv(self, capsys):
        assert main(("nf", "--graph", str(CORPUS / "r3.lpa"), "--expr", "x.y")) == 0
        assert capsys.readouterr().out == "x.y\n"

    def test_no_argv_reads_sys_argv(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["leavitt", "nf", "--graph", str(CORPUS / "r3.lpa"), "--expr", "x.y"])
        assert main() == 0
        assert capsys.readouterr().out == "x.y\n"

    def test_a_command_builds_only_its_own_parser(self, capsys, monkeypatch):
        built = []
        init = cli._ArgumentParser.__init__

        def counting(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(cli._ArgumentParser, "__init__", counting)
        assert main(["nf", "--graph", str(CORPUS / "r3.lpa"), "--expr", "x.y"]) == 0
        assert capsys.readouterr().out == "x.y\n"
        assert len(built) <= 2, built


class TestElementCommands:
    def test_nf_expr(self, capsys, graph_file):
        code, out, _ = run(capsys, "nf", "--graph", graph_file, "--expr", "f2*.f2")
        assert code == 0
        assert out.strip() == "v3"

    def test_nf_stdin(self, capsys, graph_file, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("f1.(f1)* + f2.(f2)*\n"))
        code, out, _ = run(capsys, "nf", "--graph", graph_file)
        assert code == 0
        assert out.strip() == "v2"

    def test_nf_joins_stdin_lines_into_one_expression(self, capsys, graph_file, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("f1.(f1)*\n+ f2.(f2)*\n"))
        code, out, _ = run(capsys, "nf", "--graph", graph_file)
        assert code == 0
        assert out == "v2\n"

    def test_mul_needs_two_expressions(self, capsys, graph_file):
        code, out, err = run(capsys, "mul", "--graph", graph_file, "--expr", "f1")
        assert code == 64 and out == ""
        assert err == "usage error: expected 2 element expression(s), got 1\n"

    def test_mul(self, capsys, graph_file):
        code, out, _ = run(
            capsys, "mul", "--graph", graph_file,
            "--expr", "f2.(f4.f3)*", "--expr", "f4.f3.(f2)*",
        )
        assert code == 0
        assert out.strip() == "f2.(f2)*"

    def test_involve(self, capsys, graph_file):
        code, out, _ = run(capsys, "involve", "--graph", graph_file, "--expr", "f4.f3")
        assert code == 0
        assert out.strip() == "(f4.f3)*"

    def test_decompose(self, capsys, graph_file):
        code, out, _ = run(
            capsys, "decompose", "--graph", graph_file, "--expr", "v1 + f1"
        )
        assert code == 0
        assert out.splitlines() == ["0: v1", "1: f1"]

    def test_roundtrip_of_printed_elements(self, capsys, graph_file):
        graph = parse_graph(GRAPH_CHAIN)
        from leavitt import INTEGERS

        for expr in ("f2.(f4.f3)* - 3*v1", "f1.(f1)*", "2*f4.f3 + (f2)*"):
            code, out, _ = run(capsys, "nf", "--graph", graph_file, "--expr", expr)
            assert code == 0
            reparsed = parse_element(out.splitlines()[0], graph, INTEGERS)
            assert reparsed == parse_element(expr, graph, INTEGERS)


class TestEpsilonCommands:
    def test_epsilon_text(self, capsys, graph_file):
        code, out, _ = run(
            capsys, "epsilon", "--graph", graph_file, "-g", "1", "--bound", "4"
        )
        assert code == 0
        assert out.splitlines()[0] == "v2 + v4 + v5"

    def test_epsilon_past_the_longest_path_answers_as_at_its_length(self, capsys, graph_file):
        # no chain path has more than 2 edges, so bound 20,000 holds the
        # paths of bound 3 and must cost no more than they do
        answers = []
        for bound in ("3", "20000"):
            code, out, _ = run(
                capsys, "epsilon", "--graph", graph_file, "-g", "1", "--bound", bound,
                "--output", "structured",
            )
            assert code == 0
            answers.append(json.loads(out))
        short, long = answers
        assert long.pop("bound") == 20000 and short.pop("bound") == 3
        assert long == short
        assert long["epsilon"] == "v2 + v4 + v5" and long["identity-checked-on"] == 10

    def test_epsilon_absent_infinite(self, capsys, graph_c_file):
        code, out, _ = run(
            capsys, "epsilon", "--graph", graph_c_file, "-g", "1", "--bound", "3"
        )
        assert code == 1
        assert "ABSENT" in out and "witness" in out

    def test_xg(self, capsys, graph_file):
        code, out, _ = run(
            capsys, "xg", "--graph", graph_file, "-g", "1", "--bound", "4"
        )
        assert code == 0
        assert out.splitlines() == ["f1", "f2", "f3", "f4", "f4.f3.(f2)*"]

    def test_localunits(self, capsys, graph_file):
        code, out, _ = run(
            capsys, "localunits", "--graph", graph_file,
            "--expr", "f2 + f4.f3.(f2)*",
        )
        assert code == 0
        assert "left: v5 + f2.(f2)*" in out


class TestCheckCommands:
    def test_epsilon_strong_fail_graph_c(self, capsys, graph_c_file):
        code, out, _ = run(
            capsys, "check", "--graph", graph_c_file,
            "--property", "epsilon-strong", "--window", "-1..1", "--bound", "3",
        )
        assert code == 1
        assert "NOT_EPSILON_STRONG" in out
        assert "f1" in out and "f2" in out

    def test_strongly_graded_agreement(self, capsys, graph_b_file):
        code, out, _ = run(
            capsys, "check", "--graph", graph_b_file,
            "--property", "strongly-graded", "--window", "-2..2", "--bound", "4",
        )
        assert code == 1
        assert "NOT_STRONG" in out
        assert "agreement: True" in out

    def test_symmetric_pass(self, capsys, graph_file):
        code, out, _ = run(
            capsys, "check", "--graph", graph_file,
            "--property", "symmetric", "--bound", "4",
        )
        assert code == 0
        assert "PASS" in out

    def test_nearly_epsilon_sampled(self, capsys, graph_c_file):
        code, out, _ = run(
            capsys, "check", "--graph", graph_c_file,
            "--property", "nearly-epsilon", "--bound", "3",
            "--samples", "10", "--seed", "4",
        )
        assert code == 0
        assert "samples-verified: 10" in out

    def test_sampling_defaults(self, capsys, graph_file, graph_b_file, z2_degrees_file):
        check = ["check", "--graph", graph_file, "--property", "nondegenerate", "--bound", "2"]
        frob = ["frobenius", "--graph", graph_b_file, "--degrees", z2_degrees_file, "--bound", "3"]
        for command, sample_count in ((check, lambda doc: len(doc["witnesses"])),
                                      (frob, lambda doc: doc["samples-verified"])):
            code, out, _ = run(capsys, *command, "--output", "structured")
            doc = json.loads(out)
            assert code == 0 and doc["seed"] == 0 and sample_count(doc) == 50
            explicit = run(capsys, *command, "--output", "structured", "--samples", "50", "--seed", "0")
            assert explicit[:2] == (code, out)

    def test_nondegenerate_expr(self, capsys, graph_file):
        code, out, _ = run(
            capsys, "check", "--graph", graph_file,
            "--property", "nondegenerate", "--bound", "3", "--expr", "f1",
        )
        assert code == 0
        assert "right-witness: v1" in out

    def test_expr_check_needs_no_bound(self, capsys):
        golden = json.loads((CORPUS / "goldens.json").read_text(encoding="utf-8"))["check-nondegenerate-expr"]
        code, out, err = run(
            capsys, "check", "--graph", str(CORPUS / "chain.lpa"), "--property", "nondegenerate", "--expr", "f1",
        )
        assert (code, out, err) == (0, golden["stdout"], "")

    @pytest.mark.parametrize(
        "options", [["--property", "grading"], ["--property", "nondegenerate", "--samples", "3"],
                    ["--property", "nearly-epsilon"], ["--property", "epsilon-strong", "--window", "-1..1"]],
    )
    def test_a_check_that_reads_the_bound_needs_it(self, capsys, graph_file, options):
        code, out, err = run(capsys, "check", "--graph", graph_file, *options)
        assert (code, out) == (64, "")
        assert err == "usage error: the following arguments are required: --bound\n"

    @pytest.mark.parametrize("prop", ["nearly-epsilon", "nondegenerate"])
    def test_seed_recorded_only_when_sampling(self, capsys, graph_file, prop):
        command = ["check", "--graph", graph_file, "--property", prop, "--bound", "3",
                   "--output", "structured"]
        code, out, _ = run(capsys, *command, "--expr", "f1")
        assert code == 0 and "seed" not in json.loads(out)
        code, out, _ = run(capsys, *command, "--samples", "3")
        assert code == 0 and json.loads(out)["seed"] == 0

    def test_grading_axiom(self, capsys, graph_file):
        code, out, _ = run(
            capsys, "check", "--graph", graph_file,
            "--property", "grading", "--bound", "2",
        )
        assert code == 0


class TestRangedWindows:
    def check_window(self, capsys, tmp_path, degrees, window):
        graph = tmp_path / "b.lpa"
        graph.write_text(GRAPH_B)
        deg = tmp_path / "b.deg"
        deg.write_text(degrees)
        return run(
            capsys, "check", "--graph", str(graph), "--degrees", str(deg),
            "--property", "epsilon-strong", "--window", window, "--bound", "2",
            "--output", "structured",
        )

    def test_z2_window_is_the_square_in_lexicographic_order(self, capsys, tmp_path):
        code, out, _ = self.check_window(
            capsys, tmp_path, "group Z^2\ndeg e = 1,0\ndeg f = 0,1\n", "-1..1"
        )
        assert code != 64
        assert json.loads(out)["window"] == [
            f"{x},{y}" for x in (-1, 0, 1) for y in (-1, 0, 1)
        ]

    def test_cyclic_window_is_the_sorted_residues(self, capsys, tmp_path):
        code, out, _ = self.check_window(
            capsys, tmp_path, "group Z/3\ndeg e = 1\ndeg f = 2\n", "-1..4"
        )
        assert code == 0
        assert json.loads(out)["window"] == ["0", "1", "2"]

    def test_cyclic_window_reads_at_most_modulus_integers(self, capsys, tmp_path):
        # listing all 10^11 integers of the window would not finish
        degrees = "group Z/2\ndeg e = 1\ndeg f = 1\n"
        wide = self.check_window(capsys, tmp_path, degrees, "0..100000000000")
        assert wide == self.check_window(capsys, tmp_path, degrees, "all")
        assert wide[0] == 0 and json.loads(wide[1])["window"] == ["0", "1"]

    def test_cayley_table_window_needs_all(self, capsys, tmp_path):
        (tmp_path / "z2.table").write_text("p q\np q\nq p\n")
        code, out, err = self.check_window(
            capsys, tmp_path, "group table z2.table\ndeg e = q\ndeg f = q\n", "0..1"
        )
        assert code == 64
        assert out == ""
        assert err == "usage error: ranged windows are not defined for table:z2.table; use 'all'\n"


class TestFrobeniusCommand:
    def test_pass(self, capsys, graph_b_file, z2_degrees_file):
        code, out, _ = run(
            capsys, "frobenius", "--graph", graph_b_file,
            "--degrees", z2_degrees_file, "--bound", "4",
            "--samples", "20", "--triples", "10", "--seed", "7",
        )
        assert code == 0
        assert "PASS" in out

    def test_needs_finite_group(self, capsys, graph_b_file):
        code, _, err = run(
            capsys, "frobenius", "--graph", graph_b_file, "--bound", "4",
        )
        assert code == 65
        assert "not finite" in err


class TestStructuredOutput:
    def test_json_and_determinism(self, capsys, graph_file):
        args = (
            "check", "--graph", graph_file, "--property", "epsilon-strong",
            "--window", "-2..2", "--bound", "4", "--output", "structured",
        )
        code1, out1, _ = run(capsys, *args)
        code2, out2, _ = run(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2
        doc = json.loads(out1)
        assert doc["verdict"] == "EPSILON_STRONG"
        assert doc["kind"] == "epsilon-strong-check"

    def test_seeded_determinism(self, capsys, graph_c_file):
        args = (
            "check", "--graph", graph_c_file, "--property", "nearly-epsilon",
            "--bound", "3", "--samples", "8", "--seed", "21",
            "--output", "structured",
        )
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2

    def test_epsilon_structured(self, capsys, graph_file):
        code, out, _ = run(
            capsys, "epsilon", "--graph", graph_file, "-g", "-1", "--bound", "4",
            "--output", "structured",
        )
        doc = json.loads(out)
        assert doc["epsilon"] == "v1 + v3 + v4 + f2.(f2)*"
        assert doc["bound"] == 4

    def test_epsilon_structured_golden_document(self, capsys, graph_file):
        code, out, _ = run(
            capsys, "epsilon", "--graph", graph_file, "-g", "2", "--bound", "4",
            "--output", "structured",
        )
        assert code == 0
        assert json.loads(out) == {
            "kind": "epsilon-report",
            "verdict": "PRESENT",
            "degree": "2",
            "bound": 4,
            "minimal-verdict": "complete",
            "minimal-classes": ["f4.f3"],
            "epsilon": "v5",
            "certificate": [["f4.f3", "(f4.f3)*"]],
            "identity-checked-on": 2,
        }


class TestErrors:
    def test_usage_error(self, capsys, graph_file):
        code, _, err = run(capsys, "check", "--graph", graph_file, "--bound", "3")
        assert code == 64

    def test_bad_bound(self, capsys, graph_file):
        code, _, err = run(
            capsys, "xg", "--graph", graph_file, "-g", "1", "--bound", "0"
        )
        assert code == 64

    @pytest.mark.parametrize("prop", ["nearly-epsilon", "nondegenerate"])
    def test_negative_samples(self, capsys, graph_file, prop):
        code, out, err = run(
            capsys, "check", "--graph", graph_file,
            "--property", prop, "--bound", "2", "--samples", "-1",
        )
        assert code == 64
        assert out == ""
        assert err == "usage error: --samples must be >= 0\n"

    @pytest.mark.parametrize("flag", ["--samples", "--triples"])
    def test_negative_frobenius_counts(self, capsys, graph_b_file, z2_degrees_file, flag):
        code, out, err = run(
            capsys, "frobenius", "--graph", graph_b_file,
            "--degrees", z2_degrees_file, "--bound", "4", flag, "-1",
        )
        assert code == 64
        assert out == ""
        assert err == f"usage error: {flag} must be >= 0\n"

    @pytest.mark.parametrize("flag,value", [("--expr", "v1"), ("--samples", "5"), ("--seed", "3")])
    @pytest.mark.parametrize("prop", ["grading", "symmetric", "epsilon-strong", "strongly-graded"])
    def test_sampling_options_of_an_unsampled_check(self, capsys, graph_file, prop, flag, value):
        window = ["--window", "-1..1"] if prop in ("epsilon-strong", "strongly-graded") else []
        code, out, err = run(
            capsys, "check", "--graph", graph_file,
            "--property", prop, "--bound", "2", *window, flag, value,
        )
        assert code == 64
        assert out == ""
        assert err == f"usage error: {flag} does not apply to --property {prop}\n"

    @pytest.mark.parametrize("prop", ["grading", "symmetric", "nearly-epsilon", "nondegenerate"])
    def test_window_of_a_windowless_check(self, capsys, graph_file, prop):
        code, out, err = run(
            capsys, "check", "--graph", graph_file,
            "--property", prop, "--bound", "2", "--window", "-1..1",
        )
        assert code == 64
        assert out == ""
        assert err == f"usage error: --window does not apply to --property {prop}\n"

    @pytest.mark.parametrize("flag", ["--samples", "--seed"])
    @pytest.mark.parametrize("prop", ["nearly-epsilon", "nondegenerate"])
    def test_sampling_options_with_expr(self, capsys, graph_file, prop, flag):
        code, out, err = run(
            capsys, "check", "--graph", graph_file,
            "--property", prop, "--bound", "2", "--expr", "f1", flag, "5",
        )
        assert code == 64
        assert out == ""
        assert err == f"usage error: {flag} does not apply with --expr\n"

    def test_unread_check_option_is_reported_before_a_missing_file(self, capsys, tmp_path):
        code, out, err = run(
            capsys, "check", "--graph", str(tmp_path / "missing.lpa"),
            "--property", "grading", "--window", "0..1", "--bound", "1",
        )
        assert (code, out) == (64, "")
        assert err == "usage error: --window does not apply to --property grading\n"

    def test_missing_file_is_reported_before_a_bad_bound(self, capsys, tmp_path):
        code, out, _ = run(capsys, "xg", "--graph", str(tmp_path / "missing.lpa"), "-g", "1", "--bound", "0")
        assert (code, out) == (65, "")

    def test_missing_degree_file_is_reported_before_bad_triples(self, capsys, tmp_path, graph_b_file):
        code, out, _ = run(
            capsys, "frobenius", "--graph", graph_b_file, "--degrees", str(tmp_path / "missing.deg"),
            "--bound", "4", "--triples", "-1",
        )
        assert (code, out) == (65, "")

    @pytest.mark.parametrize("prop", ["nearly-epsilon", "nondegenerate"])
    def test_sampling_a_graph_without_vertices(self, capsys, tmp_path, prop):
        graph = tmp_path / "empty.lpa"
        graph.write_text("vertices ; edges ;")
        code, out, err = run(
            capsys, "check", "--graph", str(graph),
            "--property", prop, "--bound", "2", "--samples", "1",
        )
        assert code == 65
        assert out == ""
        assert err == "error: no monomials within bound 2\n"

    def test_frobenius_on_a_graph_without_vertices(self, capsys, tmp_path):
        graph = tmp_path / "empty.lpa"
        graph.write_text("vertices ; edges ;")
        degrees = tmp_path / "z2.deg"
        degrees.write_text("group Z/2\n")
        code, out, err = run(
            capsys, "frobenius", "--graph", str(graph), "--degrees", str(degrees),
            "--bound", "2", "--samples", "1", "--triples", "1",
        )
        assert code == 65
        assert out == ""
        assert err == "error: no monomials of degree 0 within bound 2\n"

    def test_window_not_inverse_closed(self, capsys, graph_file):
        code, _, err = run(
            capsys, "check", "--graph", graph_file,
            "--property", "epsilon-strong", "--window", "0..2", "--bound", "3",
        )
        assert code == 64
        assert "inverse" in err

    @pytest.mark.parametrize(
        "window,message",
        [
            ("all", "--window all needs a finite group, not Z"),
            ("3", "window must look like A..B or 'all'"),
            ("a..b", "bad window bounds in 'a..b'"),
            ("2..1", "window lower bound exceeds upper bound"),
        ],
        ids=["all-of-Z", "no-range", "not-integers", "reversed"],
    )
    def test_malformed_window(self, capsys, graph_file, window, message):
        code, out, err = run(
            capsys, "check", "--graph", graph_file,
            "--property", "epsilon-strong", "--window", window, "--bound", "2",
        )
        assert code == 64 and out == ""
        assert err == f"usage error: {message}\n"

    def test_window_too_large_to_list_is_a_usage_error(self, capsys, graph_file):
        # past sys.maxsize a range has no length; windows that do fit are
        # listed in full, so only this size is tested
        window = "0..10000000000000000000000"
        code, out, err = run(
            capsys, "check", "--graph", graph_file,
            "--property", "epsilon-strong", "--window", window, "--bound", "2",
        )
        assert code == 64 and out == ""
        assert err == f"usage error: window '{window}' has too many degrees to list\n"

    def test_window_past_the_memory_limit_is_a_usage_error(self):
        # a range of 10^10 has a length, but its list does not fit under a
        # 1 GB address-space limit, which the child sets on itself first
        window = "0..10000000000"
        code = (
            "import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (10 ** 9, 10 ** 9)); "
            "from leavitt.cli import main; sys.exit(main(['check', '--graph', 'tests/cli_corpus/r3.lpa', "
            f"'--property', 'epsilon-strong', '--window={window}', '--bound', '2']))"
        )
        src = str(Path(leavitt.__file__).resolve().parents[1])
        done = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            cwd=Path(__file__).resolve().parents[1],
            env={**os.environ, "PYTHONPATH": src},
            timeout=60,
        )
        assert (done.returncode, done.stdout) == (64, b"")
        assert done.stderr.decode() == f"usage error: window '{window}' has too many degrees to list\n"

    def test_parse_error_names_token(self, capsys, graph_file):
        code, _, err = run(capsys, "nf", "--graph", graph_file, "--expr", "f9")
        assert code == 65
        assert "f9" in err

    def test_the_module_runs_as_the_readme_documents(self):
        src = str(Path(leavitt.__file__).resolve().parents[1])
        done = subprocess.run(
            [sys.executable, "-m", "leavitt", "nf", "--graph", "tests/cli_corpus/chain.lpa", "--expr", "f2*.f2"],
            capture_output=True,
            cwd=Path(__file__).resolve().parents[1],
            env={**os.environ, "PYTHONPATH": src},
            timeout=60,
        )
        assert (done.returncode, done.stdout, done.stderr) == (0, b"v3\n", b"")

    def test_non_decimal_digit_is_a_parse_error_not_a_traceback(self):
        src = str(Path(leavitt.__file__).resolve().parents[1])
        done = subprocess.run(
            [sys.executable, "-m", "leavitt", "nf", "--graph", "tests/cli_corpus/r3.lpa", "--expr", "²*a"],
            capture_output=True,
            cwd=Path(__file__).resolve().parents[1],
            env={**os.environ, "PYTHONPATH": src, "PYTHONIOENCODING": "utf-8"},
            timeout=60,
        )
        assert (done.returncode, done.stdout) == (65, b"")
        err = done.stderr.decode("utf-8")
        assert "Traceback" not in err
        assert err == "error: column 1: unexpected character '²'\n"

    def test_modulus_past_the_int_digit_limit_is_a_ring_error_not_a_traceback(self):
        src = str(Path(leavitt.__file__).resolve().parents[1])
        ring = "z/" + "1" * 5000
        done = subprocess.run(
            [sys.executable, "-m", "leavitt", "nf", "--graph", "tests/cli_corpus/r3.lpa", "--ring", ring, "--expr", "a"],
            capture_output=True,
            cwd=Path(__file__).resolve().parents[1],
            env={**os.environ, "PYTHONPATH": src},
            timeout=60,
        )
        assert (done.returncode, done.stdout) == (65, b"")
        err = done.stderr.decode("utf-8")
        assert "Traceback" not in err
        assert err.startswith("error: bad ring modulus: ") and err.count("\n") == 1

    def test_bad_degree_file(self, capsys, graph_b_file, tmp_path):
        degrees = tmp_path / "bad.deg"
        degrees.write_text("group Z/2\ngroup Z/2\n")
        code, out, err = run(capsys, "frobenius", "--graph", graph_b_file, "--degrees", str(degrees), "--bound", "2")
        assert (code, out) == (65, "")
        assert err == "error: line 2: duplicate group header\n"

    def test_missing_graph_file(self, capsys):
        code, _, err = run(capsys, "nf", "--graph", "/nonexistent.lpa", "--expr", "0")
        assert code == 65

    def test_bad_graph_text(self, capsys, tmp_path):
        p = tmp_path / "bad.lpa"
        p.write_text("vertices a a;")
        code, _, err = run(capsys, "nf", "--graph", str(p), "--expr", "0")
        assert code == 65
        assert "duplicate" in err

    @pytest.mark.parametrize("undecodable", ["g.lpa", "b.deg", "z2.table"])
    def test_undecodable_input_file(self, capsys, tmp_path, undecodable):
        files = {
            "g.lpa": GRAPH_B.encode(),
            "b.deg": b"group table z2.table\ndeg e = q\ndeg f = q\n",
            "z2.table": b"p q\nq p\n",
        }
        files[undecodable] = b"\xff\xfe vertices v;"
        for name, data in files.items():
            (tmp_path / name).write_bytes(data)
        code, out, err = run(
            capsys, "nf", "--graph", str(tmp_path / "g.lpa"),
            "--degrees", str(tmp_path / "b.deg"), "--expr", "e",
        )
        assert code == 65
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "lines,message",
        [
            (["deg x = 1", "deg x = 5"], "line 3: duplicate degree for edge 'x'"),
            (["deg q = 1", "deg x = 1"], "line 2: unknown edge 'q'"),
        ],
        ids=["duplicate", "unknown"],
    )
    def test_degree_file_assigns_each_known_edge_once(self, capsys, tmp_path, lines, message):
        degrees = tmp_path / "r3.deg"
        degrees.write_text("\n".join(["group Z", *lines, "deg y = 1", "deg z = 1", "deg w = 1", "deg t = 1"]))
        code, out, err = run(
            capsys, "decompose", "--graph", str(CORPUS / "r3.lpa"),
            "--degrees", str(degrees), "--expr", "x",
        )
        assert code == 65
        assert out == ""
        assert err == f"error: {message}\n"

    def test_nonhomogeneous_localunits(self, capsys, graph_file):
        code, _, err = run(
            capsys, "localunits", "--graph", graph_file, "--expr", "v1 + f1"
        )
        assert code == 65

    def test_engine_defect_is_an_internal_error(self, capsys, graph_file, monkeypatch):
        def failing_local_units(s, degree_map):
            raise ConstructionError(f"left unit failed on {s}")

        monkeypatch.setattr("leavitt.cli.local_units", failing_local_units)
        code, out, err = run(capsys, "localunits", "--graph", graph_file, "--expr", "f1")
        assert code == 70
        assert out == ""
        assert err == "internal error: left unit failed on f1\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["check", "--property", "nearly-epsilon", "--expr", "x"],
            ["check", "--property", "nondegenerate", "--expr", "x"],
            ["epsilon", "-g", "1"],
            ["check", "--property", "epsilon-strong", "--window", "-1..1"],
            ["check", "--property", "strongly-graded", "--window", "-1..1"],
            ["frobenius", "--degrees", str(CORPUS / "r3_z3.deg")],
        ],
        ids=["nearly-epsilon", "nondegenerate", "epsilon", "epsilon-strong", "strongly-graded", "frobenius"],
    )
    def test_engine_defect_in_a_sampled_check(self, capsys, monkeypatch, argv):
        # the package's `epsilon` attribute is the function, so go by module name
        module = sys.modules["leavitt.epsilon"]
        monkeypatch.setattr(module, "_local_unit", lambda graph, ring, reps: Element.zero(graph, ring))
        code, out, err = run(capsys, *argv, "--graph", str(CORPUS / "r3.lpa"), "--bound", "2")
        assert code == 70
        assert out == ""
        assert err.startswith("internal error: ") and err.count("\n") == 1

    def test_closed_stdout_is_not_an_error(self, graph_file):
        read_end, write_end = os.pipe()
        os.close(read_end)  # the reader is gone before the command writes
        src = str(Path(leavitt.__file__).resolve().parents[1])
        try:
            done = subprocess.run(
                [sys.executable, "-m", "leavitt.cli", "nf", "--graph", graph_file, "--expr", "v1"],
                stdout=write_end,
                stderr=subprocess.PIPE,
                env={**os.environ, "PYTHONPATH": src},
                timeout=60,
            )
        finally:
            os.close(write_end)
        assert done.returncode == 0
        assert done.stderr == b""

    def test_output_into_a_pipe_closed_after_one_line_is_not_an_error(self):
        # the 446 KB listing fills the pipe, so a write fails once the reader
        # has closed it; PYTHONUNBUFFERED would make stdout a raw file whose
        # short write is dropped with no error, so the child runs without it
        env = {name: value for name, value in os.environ.items() if name != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = str(Path(leavitt.__file__).resolve().parents[1])
        argv = ["xg", "--graph", "tests/cli_corpus/r3.lpa", "-g", "0", "--bound", "7"]
        with subprocess.Popen(
            [sys.executable, "-m", "leavitt", *argv],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            cwd=Path(__file__).resolve().parents[1],
            env=env,
        ) as child:
            assert child.stdout.readline() == b"a\n"
            child.stdout.close()
            assert child.wait(timeout=60) == 0
            assert child.stderr.read() == b""

    def test_a_zero_denominator_is_a_data_error(self, capsys):
        code, out, err = run(capsys, "nf", "--graph", str(CORPUS / "r3.lpa"), "--expr", "3/0*x")
        assert (code, out, err) == (65, "", "error: column 1: zero denominator\n")

    def test_every_input_error_of_the_package_is_a_value_error(self):
        # main exits 65 on any ValueError or OSError, after the usage clause
        # has taken UsageError and WindowError (64) and before the
        # ConstructionError clause (70)
        named = (
            GraphError, ElementSyntaxError, RingError, GroupError, DegreeMapError,
            HomogeneityError, FrobeniusBuildError, UnicodeDecodeError,
        )
        assert all(issubclass(cls, ValueError) for cls in named)
        assert not issubclass(ConstructionError, (ValueError, OSError))
        modules = [
            importlib.import_module(f"leavitt.{m.name}")
            for m in pkgutil.iter_modules(leavitt.__path__)
            if not m.name.startswith("_")
        ]
        defined = {
            obj
            for module in modules
            for obj in vars(module).values()
            if isinstance(obj, type) and issubclass(obj, Exception) and obj.__module__ == module.__name__
        }
        assert {cls for cls in defined if not issubclass(cls, ValueError)} == {ConstructionError, cli.UsageError}

    def test_an_unexpected_value_error_is_a_data_error_not_a_traceback(self, capsys, graph_file, monkeypatch):
        def failing_decompose(value, dmap):
            raise ValueError("no parts")

        monkeypatch.setattr("leavitt.cli.decompose", failing_decompose)
        code, out, err = run(capsys, "decompose", "--graph", graph_file, "--expr", "f1")
        assert (code, out, err) == (65, "", "error: no parts\n")

    def test_package_runs_as_a_module(self):
        src = str(Path(leavitt.__file__).resolve().parents[1])
        done = subprocess.run(
            [sys.executable, "-m", "leavitt", "nf", "--graph", "tests/cli_corpus/r3.lpa", "--expr", "x.y"],
            capture_output=True,
            cwd=Path(__file__).resolve().parents[1],
            env={**os.environ, "PYTHONPATH": src},
            timeout=60,
        )
        assert done.returncode == 0
        assert done.stdout == b"x.y\n"


if __name__ == "__main__":
    os.environ["COLUMNS"] = "80"
    cases = {name: run_parser_case(argv) for name, argv in PARSER_CASES.items()}
    record = {"python": "%d.%d" % sys.version_info[:2], "cases": cases}
    PARSER_GOLDENS.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(cases)} parser goldens to {PARSER_GOLDENS}")
