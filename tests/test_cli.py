import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import leavitt
from leavitt import ConstructionError, Element, parse_element, parse_graph
from leavitt.cli import main

from .util import GRAPH_B, GRAPH_C, GRAPH_CHAIN

CORPUS = Path(__file__).parent / "cli_corpus"


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

    def test_parse_error_names_token(self, capsys, graph_file):
        code, _, err = run(capsys, "nf", "--graph", graph_file, "--expr", "f9")
        assert code == 65
        assert "f9" in err

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
        monkeypatch.setattr(module, "_local_unit", lambda graph, ring, reps: (Element.zero(graph, ring), ()))
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
