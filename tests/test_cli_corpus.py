"""Byte-for-byte goldens of the command line on a fixed corpus of commands.

Each case runs ``leavitt.cli.main`` in process, from ``tests/cli_corpus``
so that input files are named relative to it, and compares the exit code and
stdout with ``tests/cli_corpus/goldens.json``. The corpus covers all nine
subcommands in text and structured output, seeded sampling runs, and degree
files over Z, Z^2, Z/n and the Cayley tables of Z/2 and of S3.

After a deliberate change of output, rewrite the goldens with

    PYTHONPATH=src python -m tests.test_cli_corpus

and review the diff of goldens.json.

A case with a ``known_wrong`` reason records a verdict that is wrong today:
the minimal-class search declares ``complete`` while a shorter class of the
degree exists beyond the bound. Making that certificate sound must change
exactly these goldens; the reason is copied into each one.
"""

import contextlib
import io
import json
import os
import shlex
import sys
from pathlib import Path

import pytest

from leavitt.cli import main

CORPUS = Path(__file__).resolve().parent / "cli_corpus"
GOLDENS = CORPUS / "goldens.json"

BEYOND_BOUND = "complete at this bound, but a shorter class of this degree exists beyond it"

# (name, command line, stdin or None, known_wrong reason or None)
CASES = [
    ("nf-text", "nf --graph chain.lpa --expr f2*.f2", None, None),
    ("nf-structured", "nf --graph chain.lpa --expr 'f2.(f4.f3)* - 3*v1' --output structured", None, None),
    ("nf-stdin", "nf --graph chain.lpa", "f1.(f1)* + f2.(f2)*\n", None),
    ("nf-zero", "nf --graph chain.lpa --expr 0", None, None),
    ("nf-r3-rational", "nf --graph r3.lpa --ring q --expr '3/2*w.w.(w)* + x.(x)*'", None, None),
    ("nf-r3-power", "nf --graph r3.lpa --expr w.w.w.w.w.w.w.w*.w*.w*.w*.w*.w*.w*", None, None),
    ("nf-r3-zero-mid-word", "nf --graph r3.lpa --expr 'a.w.x.(x.y)*.y.b.t + w.(w)*'", None, None),
    ("nf-r3-scaled-z3", "nf --graph r3.lpa --ring z/3 --expr '2*w.w.(w)*.w.x - 4*a.x.(x)*.x.y.(y)* + 5*t.w.(w)*'", None, None),
    ("mul-text", "mul --graph chain.lpa --expr f2.(f4.f3)* --expr f4.f3.(f2)*", None, None),
    ("mul-structured-z3", "mul --graph r3.lpa --ring z/3 --expr '2*x.y' --expr '2*(x.y)*' --output structured", None, None),
    ("involve-text", "involve --graph chain.lpa --expr f4.f3", None, None),
    ("involve-structured", "involve --graph r3.lpa --ring q --expr '3/2*w.(x)* - t' --output structured", None, None),
    ("decompose-text", "decompose --graph chain.lpa --expr 'v1 + f1 + (f2)*'", None, None),
    ("decompose-z2-structured", "decompose --graph r3.lpa --degrees r3_z2.deg --expr 'x + y + w.(x)* + a' --output structured", None, None),
    ("decompose-zero", "decompose --graph chain.lpa --expr 0", None, None),
    ("decompose-zero-structured", "decompose --graph chain.lpa --expr 0 --output structured", None, None),
    ("decompose-z3", "decompose --graph r3.lpa --degrees r3_z3.deg --expr 'x + t + w + x.y.z'", None, None),
    ("xg-text", "xg --graph chain.lpa -g 1 --bound 4", None, None),
    ("xg-empty", "xg --graph chain.lpa -g 7 --bound 2", None, None),
    ("xg-empty-structured", "xg --graph chain.lpa -g 7 --bound 2 --output structured", None, None),
    ("xg-r3-structured", "xg --graph r3.lpa -g 0 --bound 2 --output structured", None, None),
    ("xg-r3-z2", "xg --graph r3.lpa --degrees r3_z2.deg -g 1,0 --bound 3", None, None),
    ("xg-b-z2", "xg --graph b.lpa --degrees b_z2.deg -g 1 --bound 3", None, None),
    ("xg-loop-exit", "xg --graph loop_exit.lpa --degrees loop_exit.deg -g 2 --bound 2", None, None),
    ("epsilon-text", "epsilon --graph chain.lpa -g 1 --bound 4", None, None),
    ("epsilon-structured", "epsilon --graph chain.lpa -g -1 --bound 4 --output structured", None, None),
    ("epsilon-infinite", "epsilon --graph c.lpa -g 1 --bound 3", None, None),
    ("epsilon-infinite-structured", "epsilon --graph c.lpa -g 1 --bound 3 --output structured", None, None),
    ("epsilon-r3-structured", "epsilon --graph r3.lpa -g -2 --bound 4 --output structured", None, None),
    ("epsilon-r3-z2", "epsilon --graph r3.lpa --degrees r3_z2.deg -g 0,1 --bound 3", None, None),
    ("epsilon-r3-z2-structured", "epsilon --graph r3.lpa --degrees r3_z2.deg -g 0,1 --bound 3 --output structured", None, None),
    ("epsilon-loop-exit-b1", "epsilon --graph loop_exit.lpa --degrees loop_exit.deg -g 2 --bound 1", None, BEYOND_BOUND),
    ("epsilon-loop-exit-b2", "epsilon --graph loop_exit.lpa --degrees loop_exit.deg -g 2 --bound 2 --output structured", None, None),
    ("epsilon-two-tails", "epsilon --graph two_tails.lpa -g -2 --bound 2", None, BEYOND_BOUND),
    ("epsilon-z4-loop", "epsilon --graph z4_loop.lpa --degrees z4_loop.deg -g 1 --bound 1", None, BEYOND_BOUND),
    ("localunits-text", "localunits --graph chain.lpa --expr 'f2 + f4.f3.(f2)*'", None, None),
    ("localunits-structured", "localunits --graph r3.lpa --expr 'x.y + w.x.(z)*' --output structured", None, None),
    ("localunits-z3", "localunits --graph r3.lpa --degrees r3_z3.deg --ring z/3 --expr 'x + 2*w.x'", None, None),
    ("check-grading", "check --graph chain.lpa --property grading --bound 2", None, None),
    ("check-grading-z2-structured", "check --graph b.lpa --degrees b_z2.deg --property grading --bound 2 --output structured", None, None),
    ("check-symmetric", "check --graph chain.lpa --property symmetric --bound 3", None, None),
    ("check-epsilon-strong-structured", "check --graph chain.lpa --property epsilon-strong --window -2..2 --bound 4 --output structured", None, None),
    ("check-epsilon-strong-flagged", "check --graph c.lpa --property epsilon-strong --window -1..1 --bound 3", None, None),
    ("check-epsilon-strong-z2-window", "check --graph r3.lpa --degrees r3_z2.deg --property epsilon-strong --window -1..1 --bound 2 --output structured", None, None),
    ("check-epsilon-strong-z3-window", "check --graph r3.lpa --degrees r3_z3.deg --property epsilon-strong --window 0..4 --bound 3", None, None),
    ("check-epsilon-strong-all", "check --graph b.lpa --degrees b_z2.deg --property epsilon-strong --window all --bound 3", None, None),
    ("check-epsilon-strong-table-all", "check --graph b.lpa --degrees b_table.deg --property epsilon-strong --window all --bound 3 --output structured", None, None),
    ("check-epsilon-strong-table-range", "check --graph b.lpa --degrees b_table.deg --property epsilon-strong --window 0..1 --bound 3", None, None),
    ("check-epsilon-strong-loop-exit", "check --graph loop_exit.lpa --degrees loop_exit.deg --property epsilon-strong --window -2..2 --bound 2", None, None),
    ("check-strongly-graded", "check --graph b.lpa --property strongly-graded --window -2..2 --bound 4", None, None),
    ("check-strongly-graded-structured", "check --graph chain.lpa --property strongly-graded --window -1..1 --bound 3 --output structured", None, None),
    ("check-missing-window", "check --graph chain.lpa --property epsilon-strong --bound 3", None, None),
    ("check-nearly-epsilon-flagged", "check --graph c.lpa --property nearly-epsilon --bound 3 --samples 8 --seed 21 --output structured", None, None),
    ("check-nearly-epsilon-r3", "check --graph r3.lpa --property nearly-epsilon --bound 3 --samples 6 --seed 3", None, None),
    ("check-nearly-epsilon-loop-exit", "check --graph loop_exit.lpa --degrees loop_exit.deg --property nearly-epsilon --bound 3 --samples 6 --seed 5 --output structured", None, None),
    ("check-nondegenerate-z3", "check --graph r3.lpa --degrees r3_z3.deg --property nondegenerate --bound 3 --samples 6 --seed 5 --output structured", None, None),
    ("check-nondegenerate-z2", "check --graph r3.lpa --degrees r3_z2.deg --property nondegenerate --bound 3 --samples 6 --seed 8", None, None),
    ("check-nondegenerate-table", "check --graph b.lpa --degrees b_table.deg --property nondegenerate --bound 3 --samples 4 --seed 2", None, None),
    ("check-nondegenerate-r3-repeat", "check --graph r3.lpa --property nondegenerate --bound 4 --samples 40 --seed 11", None, None),
    ("check-nondegenerate-expr", "check --graph chain.lpa --property nondegenerate --bound 3 --expr f1", None, None),
    ("check-nondegenerate-zero", "check --graph chain.lpa --property nondegenerate --bound 3 --expr 0", None, None),
    ("frobenius-structured", "frobenius --graph b.lpa --degrees b_z2.deg --bound 4 --samples 20 --triples 10 --seed 7 --output structured", None, None),
    ("frobenius-z3", "frobenius --graph r3.lpa --degrees r3_z3.deg --ring z/3 --bound 3 --samples 10 --triples 5 --seed 2", None, None),
    ("frobenius-z3-repeat", "frobenius --graph r3.lpa --degrees r3_z3.deg --ring z/3 --bound 4 --samples 30 --triples 10 --seed 12", None, None),
    ("frobenius-q", "frobenius --graph b.lpa --degrees b_z2.deg --ring q --bound 4 --samples 12 --triples 6 --seed 3", None, None),
    ("frobenius-table", "frobenius --graph b.lpa --degrees b_table.deg --bound 4 --samples 12 --triples 6 --seed 4 --output structured", None, None),
    ("frobenius-s3", "frobenius --graph r3.lpa --degrees r3_s3.deg --bound 4 --samples 12 --triples 6 --seed 5", None, None),
    ("frobenius-chain-z5", "frobenius --graph chain.lpa --degrees chain_z5.deg --bound 4 --samples 12 --triples 6 --seed 6", None, None),
    ("frobenius-infinite-group", "frobenius --graph b.lpa --bound 4", None, None),
    ("frobenius-undetermined", "frobenius --graph l.lpa --degrees l_z2.deg --bound 2", None, None),
    ("frobenius-undetermined-structured", "frobenius --graph l.lpa --degrees l_z2.deg --bound 2 --output structured", None, None),
]


def run_case(command, stdin):
    """Exit code and stdout of one command, run in the current directory."""
    out = io.StringIO()
    saved_stdin = sys.stdin
    sys.stdin = io.StringIO(stdin or "")
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(shlex.split(command))
    finally:
        sys.stdin = saved_stdin
    return code, out.getvalue()


def _golden(name, command, stdin, known_wrong):
    code, stdout = run_case(command, stdin)
    entry = {"command": command, "code": code, "stdout": stdout}
    if known_wrong:
        entry["known-wrong"] = known_wrong
    return entry


def test_case_names_are_unique():
    assert len({name for name, *_ in CASES}) == len(CASES)


def test_every_case_has_a_golden():
    assert sorted(json.loads(GOLDENS.read_text(encoding="utf-8"))) == sorted(name for name, *_ in CASES)


@pytest.mark.parametrize("name, command, stdin, known_wrong", CASES, ids=[c[0] for c in CASES])
def test_cli_output_matches_golden(monkeypatch, name, command, stdin, known_wrong):
    golden = json.loads(GOLDENS.read_text(encoding="utf-8"))[name]
    monkeypatch.chdir(CORPUS)
    assert _golden(name, command, stdin, known_wrong) == golden


if __name__ == "__main__":
    os.chdir(CORPUS)
    goldens = {name: _golden(name, *rest) for name, *rest in CASES}
    GOLDENS.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(goldens)} goldens to {GOLDENS}")
