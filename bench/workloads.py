"""The benchmark's four workloads.

Each workload turns a seed into one round of operations ("ops"). An op is
one verdict or one CLI result, and it carries a check against an answer the
benchmark derives without the library: closed forms, counts made from R3's
edge list below, and the sample counts the op asked for.

All four workloads use the graph R3 from ``data/r3.lpa``:

    x: a -> b, y: b -> c, z: c -> a, w: a -> a, t: b -> a

The designated (lexicographically smallest) edge out of a is w, out of b is
t and out of c is z.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, NamedTuple

import leavitt
from leavitt import cli

DATA = Path(__file__).resolve().parent / "data"
GRAPH_FILE = DATA / "r3.lpa"
Z3_DEGREES_FILE = DATA / "r3_z3.deg"

R3_VERTICES = ("a", "b", "c")
R3_EDGES = {"t": ("b", "a"), "w": ("a", "a"), "x": ("a", "b"), "y": ("b", "c"), "z": ("c", "a")}
R3_SPECIAL = {v: min(e for e, (s, _) in R3_EDGES.items() if s == v) for v in R3_VERTICES}

# Input sizes. FULL is what the benchmark measures; SMOKE keeps every op and
# check but shrinks the bounds so the benchmark's own tests run in seconds.
FULL = {
    "window": 3,
    "epsilon_bound": 8,
    "grading_bound": 3,
    "samples": 200,
    "sample_bound": 4,
    "frobenius_bound": 5,
    "frobenius_samples": 100,
    "frobenius_triples": 25,
    "nf_k": 200,
    "nf_word": 3000,
}
SMOKE = {
    "window": 1,
    "epsilon_bound": 3,
    "grading_bound": 1,
    "samples": 5,
    "sample_bound": 2,
    "frobenius_bound": 2,
    "frobenius_samples": 5,
    "frobenius_triples": 2,
    "nf_k": 5,
    "nf_word": 30,
}


class CliResult(NamedTuple):
    code: int
    stdout: str


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], bool]


@dataclass
class Prepared:
    """A workload ready for its first op: inputs parsed, round builder set."""

    ops_for_round: Callable[[int], list]
    sizes: dict = field(default_factory=dict)


# --------------------------------------------------------------------------
# The benchmark's own counts on R3, independent of the library.


def paths_by_length(bound):
    """paths[v][n]: the number of paths of length n ending at vertex v."""
    paths = {v: [1] for v in R3_VERTICES}
    for n in range(bound):
        for v in R3_VERTICES:
            paths[v].append(sum(paths[s][n] for s, t in R3_EDGES.values() if t == v))
    return paths


def path_count(bound):
    return sum(map(sum, paths_by_length(bound).values()))


def monomials_by_degree(bound):
    """Normal monomials a b* with both lengths <= bound, by canonical degree
    |a| - |b|: pairs with a common range, minus the pairs that both end in
    the designated edge e of a vertex u (counted as paths ending at u)."""
    paths = paths_by_length(bound)
    counts = {}
    for la in range(bound + 1):
        for lb in range(bound + 1):
            n = sum(paths[v][la] * paths[v][lb] for v in R3_VERTICES)
            if la and lb:
                n -= sum(paths[u][la - 1] * paths[u][lb - 1] for u in R3_SPECIAL)
            counts[la - lb] = counts.get(la - lb, 0) + n
    return counts


def normal_monomial_count(bound):
    return sum(monomials_by_degree(bound).values())


def nf_closed_form(k):
    """w^k.(w^k)* = a - sum_{i<k} w^i.x.(w^i.x)*, in the library's term order
    (by total length)."""
    terms = ["w." * i + "x" for i in range(k)]
    return "a" + "".join(f" - {p}.({p})*" for p in terms)


def random_walk(rng, length):
    """A real path of the given length in R3, as edge ids."""
    vertex = rng.choice(R3_VERTICES)
    word = []
    for _ in range(length):
        edge = rng.choice(sorted(e for e, (s, _) in R3_EDGES.items() if s == vertex))
        word.append(edge)
        vertex = R3_EDGES[edge][1]
    return word


# --------------------------------------------------------------------------
# Running the CLI in process.


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return CliResult(code, out.getvalue())


def _cli_doc(result):
    """The structured report of a CLI op that exited 0, else None."""
    if result.code != 0:
        return None
    doc = json.loads(result.stdout)
    return doc if doc.get("verdict", "PASS") == "PASS" else None


def _load_inputs(z3=False):
    graph = leavitt.parse_graph(GRAPH_FILE.read_text(encoding="utf-8"))
    if z3:
        return graph, leavitt.parse_degree_map(Z3_DEGREES_FILE.read_text(encoding="utf-8"), graph)
    return graph, leavitt.DegreeMap.canonical(graph)


# --------------------------------------------------------------------------
# Workloads. Each prepare(seed, size, expect) returns a Prepared; `expect`
# overrides an expected answer, which is how the self-test feeds a wrong one.


def prepare_epsilon_window(seed, size, expect=None):
    _, dm = _load_inputs()
    window = list(range(-size["window"], size["window"] + 1))
    bound = size["epsilon_bound"]
    want_epsilon = (expect or {}).get("epsilon", "a + b + c")
    want = {str(g): want_epsilon for g in window}

    def run():
        return leavitt.check_epsilon_strong(dm, window, bound, leavitt.INTEGERS)

    def check(report):
        return report.verdict == "EPSILON_STRONG" and report.fields["epsilons"] == want

    op = Op("check_epsilon_strong", run, check)
    return Prepared(
        lambda i: [op],
        {
            "window": f"{window[0]}..{window[-1]}",
            "bound": bound,
            "paths_within_bound": path_count(bound),
            "monomials_within_bound": normal_monomial_count(bound),
            # each degree g is checked on X_g and X_-g
            "identity_checks": sum(2 * monomials_by_degree(bound).get(g, 0) for g in window),
        },
    )


def prepare_grading_sweep(seed, size, expect=None):
    _, dm = _load_inputs()
    bound = size["grading_bound"]
    monomials = normal_monomial_count(bound)
    want = (expect or {}).get("monomials", monomials)

    def run():
        return leavitt.check_grading_axiom(dm, bound, leavitt.INTEGERS)

    def check(report):
        return (
            report.verdict == "PASS"
            and report.fields["monomials"] == want
            and report.fields["pairs-checked"] == want * want
        )

    op = Op("check_grading_axiom", run, check)
    return Prepared(
        lambda i: [op],
        {
            "bound": bound,
            "paths_within_bound": path_count(bound),
            "monomials": monomials,
            "product_pairs": monomials * monomials,
        },
    )


def prepare_sampled_verify(seed, size, expect=None):
    _load_inputs(z3=True)  # set-up covers parsing, as elsewhere; each CLI op parses again
    graph = str(GRAPH_FILE)
    samples = (expect or {}).get("samples", size["samples"])
    frob_samples, triples = size["frobenius_samples"], size["frobenius_triples"]

    def ops(i):
        cli_seed = seed * 1000 + i
        common = ["--graph", graph, "--seed", str(cli_seed), "--output", "structured"]
        check_args = ["check", *common, "--bound", str(size["sample_bound"]), "--samples", str(size["samples"])]
        frobenius_args = [
            "frobenius", *common, "--degrees", str(Z3_DEGREES_FILE), "--ring", "z/3",
            "--bound", str(size["frobenius_bound"]),
            "--samples", str(frob_samples), "--triples", str(triples),
        ]

        def check_nearly(result):
            doc = _cli_doc(result)
            return doc is not None and doc["samples-verified"] + doc["skipped-zero"] == samples

        def check_nondegenerate(result):
            # random_homogeneous never returns zero, so nothing is skipped
            doc = _cli_doc(result)
            return doc is not None and len(doc["witnesses"]) == samples

        def check_frobenius(result):
            doc = _cli_doc(result)
            return (
                doc is not None
                and doc["samples-verified"] == frob_samples
                and doc["bimodule-triples-verified"] == triples
            )

        return [
            Op("check nearly-epsilon", lambda: run_cli([*check_args, "--property", "nearly-epsilon"]), check_nearly),
            Op("check nondegenerate", lambda: run_cli([*check_args, "--property", "nondegenerate"]), check_nondegenerate),
            Op("frobenius", lambda: run_cli(frobenius_args), check_frobenius),
        ]

    return Prepared(
        ops,
        {
            "check_bound": size["sample_bound"],
            "check_samples": size["samples"],
            "frobenius_bound": size["frobenius_bound"],
            "frobenius_samples": frob_samples,
            "frobenius_triples": triples,
            "paths_within_check_bound": path_count(size["sample_bound"]),
            "monomials_within_check_bound": normal_monomial_count(size["sample_bound"]),
        },
    )


def prepare_normal_form(seed, size, expect=None):
    _load_inputs()  # set-up covers parsing, as elsewhere; each CLI op parses again
    graph = str(GRAPH_FILE)
    k = size["nf_k"]
    power = ".".join(["w"] * k + ["w*"] * k)
    want_power = (expect or {}).get("power", nf_closed_form(k))

    def ops(i):
        word = ".".join(random_walk(random.Random(seed * 1_000_003 + i), size["nf_word"]))
        return [
            Op("nf w^k.(w*)^k", lambda: run_cli(["nf", "--graph", graph, "--expr", power]),
               lambda r: r.code == 0 and r.stdout.strip() == want_power),
            # a real path is already a normal monomial: nf prints it back
            Op("nf real word", lambda: run_cli(["nf", "--graph", graph, "--expr", word]),
               lambda r: r.code == 0 and r.stdout.strip() == word),
        ]

    return Prepared(ops, {"k": k, "power_letters": 2 * k, "word_letters": size["nf_word"]})


@dataclass
class Workload:
    name: str
    seed_drives: str
    prepare: Callable


FIXED = "nothing: fixed inputs, to match the recorded baselines"
WORKLOADS = {
    w.name: w
    for w in (
        Workload("epsilon-window", FIXED, prepare_epsilon_window),
        Workload("grading-sweep", FIXED, prepare_grading_sweep),
        Workload("sampled-verify", "the CLI --seed of each round (seed * 1000 + round)", prepare_sampled_verify),
        Workload("normal-form", "the random real word of each round", prepare_normal_form),
    )
}
