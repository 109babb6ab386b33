"""Command-line front end.

Each subcommand is declared once in `_COMMANDS` (help, option groups,
answer) and each check property once in `_PROPERTIES` (options read, answer).
`main` runs every command the same way: parse, reject unread check options,
load the graph, degree map (default: the canonical Z-grading) and ring, check
the bounds, answer with one Report and print it as text or structured JSON.
Expressions come from --expr or stdin; all values are exact.

Exit codes: 0 success or PASS, 1 property failure with witness,
2 undetermined at the given bound, 64 usage errors, 65 parse or data errors
(every input error of the package is a ValueError; unreadable files raise
OSError), 70 internal error (a construction that failed its own verification).
"""

from __future__ import annotations

import argparse
import json
import os
import random
import re
import sys

from .algebra import parse_element
from .epsilon import (
    ConstructionError,
    WindowError,
    check_epsilon_strong,
    check_nearly_epsilon,
    check_nondegenerate,
    check_strongly_graded,
    check_symmetric,
    epsilon,
    local_units,
)
from .frobenius import EpsilonUnavailableError, build_frobenius_system, verify_frobenius
from .grading import (
    DegreeMap,
    GroupError,
    check_grading_axiom,
    decompose,
    enumerate_Xg,
    parse_degree_map,
)
from .graph import parse_graph
from .reports import Report
from .rings import parse_ring
from .sampling import random_element, random_homogeneous

EXIT_USAGE = 64
EXIT_DATA = 65
EXIT_SOFTWARE = 70

DEFAULT_SAMPLES = 50
DEFAULT_SEED = 0


class UsageError(Exception):
    pass


class _ArgumentParser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # lets window specs like "-1..1" and degrees like "-2,0" pass as values
        self._negative_number_matcher = re.compile(r"^-\d")

    def error(self, message):
        raise UsageError(message)


def _build_parser(argv):
    """The parser for argv. When argv starts with a command name it holds
    that command's subparser alone, the only one parsing argv can reach;
    otherwise (help, no command, an unknown one) it holds all nine, so the
    help, usage and error text is the same either way."""
    parser = _ArgumentParser(prog="leavitt", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    names = argv[:1] if argv and argv[0] in _COMMANDS else _COMMANDS
    for name in names:
        help_text, groups, _ = _COMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--graph", required=True, help="graph description file")
        p.add_argument("--degrees", default="canonical", help="degree-map file or 'canonical'")
        p.add_argument("--ring", default="z", help="coefficient ring: z, q, or z/N")
        p.add_argument("--output", choices=("text", "structured"), default="text")
        if "bound" in groups:
            p.add_argument("--bound", type=int, required="property" not in groups, help="path length bound (>= 1)")
        if "expr" in groups:
            p.add_argument("--expr", action="append", default=None, help="element expression (repeatable); stdin otherwise")
        if "degree" in groups:
            p.add_argument("-g", "--degree", required=True, help="group element")
        if "samples" in groups:
            p.add_argument("--samples", type=int, default=None, help=f"number of random samples (default {DEFAULT_SAMPLES})")
            p.add_argument("--seed", type=int, default=None, help=f"random seed, recorded in reports (default {DEFAULT_SEED})")
        if "property" in groups:
            p.add_argument("--property", required=True, choices=tuple(_PROPERTIES))
            p.add_argument("--window", default=None, help="degree window A..B (epsilon-strong, strongly-graded)")
        if "triples" in groups:
            p.add_argument("--triples", type=int, default=25, help="bimodule-law triples to sample")
    return parser


def _load_context(args):
    with open(args.graph, "r", encoding="utf-8") as fh:
        graph = parse_graph(fh.read())
    ring = parse_ring(args.ring)
    if args.degrees == "canonical":
        dmap = DegreeMap.canonical(graph)
    else:
        base = os.path.dirname(os.path.abspath(args.degrees))

        def loader(name):
            with open(os.path.join(base, name), "r", encoding="utf-8") as fh:
                return fh.read()

        with open(args.degrees, "r", encoding="utf-8") as fh:
            dmap = parse_degree_map(fh.read(), graph, table_loader=loader)
    return graph, ring, dmap


def _expressions(args, graph, ring, count):
    texts = args.expr
    if texts is None:
        data = sys.stdin.read()
        texts = [line.strip() for line in data.splitlines() if line.strip()]
        if count == 1 and len(texts) > 1:
            texts = [" ".join(texts)]
    if len(texts) != count:
        raise UsageError(f"expected {count} element expression(s), got {len(texts)}")
    return [parse_element(t, graph, ring) for t in texts]


def _parse_window(text, group):
    if text is None:
        raise UsageError("this check needs --window")
    spec = text.strip()
    if spec.lower() == "all":
        if not group.is_finite:
            raise UsageError(f"--window all needs a finite group, not {group.name}")
        return list(group.elements())
    if ".." not in spec:
        raise UsageError("window must look like A..B or 'all'")
    lo_text, hi_text = spec.split("..", 1)
    try:
        lo, hi = int(lo_text), int(hi_text)
    except ValueError:
        raise UsageError(f"bad window bounds in {spec!r}") from None
    if lo > hi:
        raise UsageError("window lower bound exceeds upper bound")
    try:
        return group.window(lo, hi)
    except GroupError as exc:
        raise UsageError(str(exc)) from None
    except (OverflowError, MemoryError):
        raise UsageError(f"window {spec!r} has too many degrees to list") from None


def _check_bound(args):
    if args.bound is not None and args.bound < 1:
        raise UsageError("--bound must be >= 1")
    for name in ("samples", "triples"):
        value = getattr(args, name, None)
        if value is not None and value < 0:
            raise UsageError(f"--{name} must be >= 0")


def _sampling(args):
    """--samples and --seed, each defaulted when not given, and the one rng
    that the seed starts."""
    samples = DEFAULT_SAMPLES if args.samples is None else args.samples
    seed = DEFAULT_SEED if args.seed is None else args.seed
    return samples, seed, random.Random(seed)


def _check_options(args):
    """Reject the check options that the chosen property does not read, and
    require --bound where it reads the bound: always, or when it samples."""
    reads, _ = _PROPERTIES[args.property]
    reads_bound = "bound" in reads or ("samples" in reads and args.expr is None)
    if reads_bound and args.bound is None:
        raise UsageError("the following arguments are required: --bound")
    for name in ("expr", "samples", "seed", "window"):
        if name not in reads and getattr(args, name) is not None:
            raise UsageError(f"--{name} does not apply to --property {args.property}")
    if args.expr is not None:
        for name in ("samples", "seed"):
            if getattr(args, name) is not None:
                raise UsageError(f"--{name} does not apply with --expr")


def _emit(args, report):
    """Print a report and return its exit code; the only writer of stdout."""
    if args.output == "structured":
        out = json.dumps(report.structured(), indent=2) + "\n"
    else:
        text = report.text()
        out = text + "\n" if text else ""
    try:
        sys.stdout.write(out)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader is gone; devnull takes the flush at interpreter exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return report.exit_code()


# Answers map (args, graph, ring, dmap) to a Report and look library functions
# up at call time, so a test or tracer that rebinds one on this module sees it.


def _plain(kind, count, fn):
    """The answer of a command whose value is fn of `count` element expressions."""

    def answer(args, graph, ring, dmap):
        text = str(fn(*_expressions(args, graph, ring, count=count)))
        return Report(kind, fields={"element": text}, lines=[text])

    return answer


def _decompose(args, graph, ring, dmap):
    (value,) = _expressions(args, graph, ring, count=1)
    parts = {dmap.group.render(g): str(part) for g, part in decompose(value, dmap).items()}
    lines = [f"{g}: {part}" for g, part in parts.items()]
    return Report("decomposition", fields={"parts": parts}, lines=lines)


def _xg(args, graph, ring, dmap):
    g = dmap.group.parse(args.degree)
    monos = [m.render() for m in enumerate_Xg(g, dmap, args.bound)]
    fields = {"degree": dmap.group.render(g), "bound": args.bound, "monomials": monos}
    return Report("xg", fields=fields, lines=monos)


def _epsilon(args, graph, ring, dmap):
    g = dmap.group.parse(args.degree)
    return epsilon(g, dmap, args.bound, ring).to_report()


def _localunits(args, graph, ring, dmap):
    (value,) = _expressions(args, graph, ring, count=1)
    lu = local_units(value, dmap)
    fields = {
        "element": str(value),
        "degree": dmap.group.render(lu.degree),
        "left": str(lu.left),
        "right": str(lu.right),
        "left-certificate": [[str(x), str(y)] for x, y in lu.left_certificate],
        "right-certificate": [[str(x), str(y)] for x, y in lu.right_certificate],
    }
    return Report(kind="local-units", verdict="PASS", fields=fields)


def _sampled(check, args, graph, ring, dmap):
    """A sampled check on the --expr elements, or on seeded random samples."""
    if args.expr:
        return check(dmap, [parse_element(t, graph, ring) for t in args.expr])
    count, seed, rng = _sampling(args)
    report = check(dmap, [random_homogeneous(dmap, ring, rng, len_bound=args.bound) for _ in range(count)])
    report.fields["seed"] = seed
    return report


# property -> (the check options it reads, its answer); a property that reads
# samples reads the bound whenever it samples, that is without --expr
_PROPERTIES = {
    "grading": (("bound",), lambda args, graph, ring, dmap: check_grading_axiom(dmap, args.bound, ring)),
    "symmetric": (("bound",), lambda args, graph, ring, dmap: check_symmetric(dmap, args.bound, ring)),
    "epsilon-strong": (("bound", "window"), lambda args, graph, ring, dmap: check_epsilon_strong(
        dmap, _parse_window(args.window, dmap.group), args.bound, ring)),
    "strongly-graded": (("bound", "window"), lambda args, graph, ring, dmap: check_strongly_graded(
        dmap, _parse_window(args.window, dmap.group), args.bound, ring)),
    "nearly-epsilon": (("expr", "samples", "seed"), lambda *ctx: _sampled(check_nearly_epsilon, *ctx)),
    "nondegenerate": (("expr", "samples", "seed"), lambda *ctx: _sampled(check_nondegenerate, *ctx)),
}


def _check(args, graph, ring, dmap):
    return _PROPERTIES[args.property][1](args, graph, ring, dmap)


def _frobenius(args, graph, ring, dmap):
    try:
        system = build_frobenius_system(dmap, args.bound, ring)
    except EpsilonUnavailableError as exc:
        return Report(kind="frobenius-verification", verdict="UNDETERMINED", fields={"reason": str(exc)})
    count, seed, rng = _sampling(args)
    bound = min(args.bound, 3)
    samples = [random_element(graph, ring, rng, len_bound=bound) for _ in range(count)]
    e = dmap.group.identity
    triples = []
    for _ in range(args.triples):
        t = random_homogeneous(dmap, ring, rng, degree=e, len_bound=bound)
        a = random_element(graph, ring, rng, len_bound=bound)
        t2 = random_homogeneous(dmap, ring, rng, degree=e, len_bound=bound)
        triples.append((t, a, t2))
    return verify_frobenius(system, samples, triples, seed=seed)


# subcommand -> (help text, the option groups it reads, its answer); the
# groups are bound, expr, degree, samples (with --seed), property (with
# --window; its property decides whether --bound is required) and triples,
# added to the parser in that order.
_COMMANDS = {
    "nf": ("normal form of an element expression", ("expr",), _plain("normal-form", 1, lambda v: v)),
    "mul": ("product of two element expressions", ("expr",), _plain("product", 2, lambda a, b: a * b)),
    "involve": ("involution of an element expression", ("expr",), _plain("involution", 1, lambda v: v.involution())),
    "decompose": ("homogeneous decomposition", ("expr",), _decompose),
    "xg": ("monomials of one degree up to a bound", ("bound", "degree"), _xg),
    "epsilon": ("the degree-g local identity", ("bound", "degree"), _epsilon),
    "localunits": ("element-specific local units", ("expr",), _localunits),
    "check": ("run a grading property checker", ("bound", "expr", "samples", "property"), _check),
    "frobenius": ("build and verify a Frobenius system", ("bound", "samples", "triples"), _frobenius),
}


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser(argv)
    try:
        args = parser.parse_args(argv)
        _, groups, answer = _COMMANDS[args.command]
        if "property" in groups:
            _check_options(args)
        graph, ring, dmap = _load_context(args)
        if "bound" in groups:
            _check_bound(args)
        return _emit(args, answer(args, graph, ring, dmap))
    except (UsageError, WindowError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ConstructionError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_SOFTWARE


if __name__ == "__main__":
    sys.exit(main())
