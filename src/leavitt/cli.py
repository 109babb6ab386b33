"""Command-line front end.

Subcommands: nf, mul, involve, decompose, xg, epsilon, localunits, check,
frobenius. Every command loads a graph file, an optional degree-map file
(default: the canonical Z-grading) and a coefficient ring; element
expressions come from --expr or stdin. Output is text or a structured JSON
document; all values are exact.

Exit codes: 0 success or PASS, 1 property failure with witness,
2 undetermined at the given bound, 64 usage errors, 65 parse or data errors,
70 internal error (a construction that failed its own verification).
"""

from __future__ import annotations

import argparse
import json
import os
import random
import re
import sys

from .algebra import ElementSyntaxError, parse_element
from .epsilon import (
    ConstructionError,
    HomogeneityError,
    WindowError,
    check_epsilon_strong,
    check_nearly_epsilon,
    check_nondegenerate,
    check_strongly_graded,
    check_symmetric,
    epsilon,
    local_units,
)
from .frobenius import (
    EpsilonUnavailableError,
    FrobeniusBuildError,
    build_frobenius_system,
    verify_frobenius,
)
from .grading import (
    DegreeMap,
    DegreeMapError,
    GroupError,
    check_grading_axiom,
    decompose,
    enumerate_Xg,
    parse_degree_map,
)
from .graph import GraphError, parse_graph
from .reports import Report
from .rings import RingError, parse_ring
from .sampling import random_element, random_homogeneous

EXIT_USAGE = 64
EXIT_DATA = 65
EXIT_SOFTWARE = 70

DEFAULT_SAMPLES = 50
DEFAULT_SEED = 0

_DATA_ERRORS = (
    GraphError,
    ElementSyntaxError,
    RingError,
    GroupError,
    DegreeMapError,
    HomogeneityError,
    FrobeniusBuildError,
    OSError,
    UnicodeDecodeError,
)


class UsageError(Exception):
    pass


class _ArgumentParser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # lets window specs like "-1..1" and degrees like "-2,0" pass as values
        self._negative_number_matcher = re.compile(r"^-\d")

    def error(self, message):
        raise UsageError(message)


def _build_parser():
    parser = _ArgumentParser(prog="leavitt", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, bound=False, exprs=False, degree=False, samples=False):
        p.add_argument("--graph", required=True, help="graph description file")
        p.add_argument("--degrees", default="canonical", help="degree-map file or 'canonical'")
        p.add_argument("--ring", default="z", help="coefficient ring: z, q, or z/N")
        p.add_argument("--output", choices=("text", "structured"), default="text")
        if bound:
            p.add_argument("--bound", type=int, required=True, help="path length bound (>= 1)")
        if exprs:
            p.add_argument("--expr", action="append", default=None, help="element expression (repeatable); stdin otherwise")
        if degree:
            p.add_argument("-g", "--degree", required=True, help="group element")
        if samples:
            p.add_argument("--samples", type=int, default=None, help=f"number of random samples (default {DEFAULT_SAMPLES})")
            p.add_argument("--seed", type=int, default=None, help=f"random seed, recorded in reports (default {DEFAULT_SEED})")

    common(sub.add_parser("nf", help="normal form of an element expression"), exprs=True)
    common(sub.add_parser("mul", help="product of two element expressions"), exprs=True)
    common(sub.add_parser("involve", help="involution of an element expression"), exprs=True)
    common(sub.add_parser("decompose", help="homogeneous decomposition"), exprs=True)
    common(sub.add_parser("xg", help="monomials of one degree up to a bound"), bound=True, degree=True)
    common(sub.add_parser("epsilon", help="the degree-g local identity"), bound=True, degree=True)
    common(sub.add_parser("localunits", help="element-specific local units"), exprs=True)
    check = sub.add_parser("check", help="run a grading property checker")
    common(check, bound=True, exprs=True, samples=True)
    check.add_argument(
        "--property",
        required=True,
        choices=("grading", "symmetric", "epsilon-strong", "strongly-graded", "nearly-epsilon", "nondegenerate"),
    )
    check.add_argument("--window", default=None, help="degree window A..B (epsilon-strong, strongly-graded)")
    frob = sub.add_parser("frobenius", help="build and verify a Frobenius system")
    common(frob, bound=True, samples=True)
    frob.add_argument("--triples", type=int, default=25, help="bimodule-law triples to sample")
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


def _expressions(args, graph, ring, count=None):
    texts = args.expr
    if texts is None:
        data = sys.stdin.read()
        texts = [line.strip() for line in data.splitlines() if line.strip()]
        if count == 1 and len(texts) > 1:
            texts = [" ".join(texts)]
    if count is not None and len(texts) != count:
        raise UsageError(f"expected {count} element expression(s), got {len(texts)}")
    if not texts:
        raise UsageError("no element expressions given")
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


def _check_bound(args):
    if args.bound < 1:
        raise UsageError("--bound must be >= 1")
    for name in ("samples", "triples"):
        value = getattr(args, name, None)
        if value is not None and value < 0:
            raise UsageError(f"--{name} must be >= 0")


def _sampling(args):
    """--samples and --seed, each defaulted when not given."""
    samples = DEFAULT_SAMPLES if args.samples is None else args.samples
    seed = DEFAULT_SEED if args.seed is None else args.seed
    return samples, seed


def _check_options(args):
    """Reject the check options that the chosen property does not read."""
    prop = args.property
    if prop in ("nearly-epsilon", "nondegenerate"):
        unread = ("window",)
    elif prop in ("epsilon-strong", "strongly-graded"):
        unread = ("expr", "samples", "seed")
    else:
        unread = ("expr", "samples", "seed", "window")
    for name in unread:
        if getattr(args, name) is not None:
            raise UsageError(f"--{name} does not apply to --property {prop}")
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


def _value(kind, element):
    text = str(element)
    return Report(kind, fields={"element": text}, lines=[text])


def _cmd_nf(args):
    graph, ring, _ = _load_context(args)
    (value,) = _expressions(args, graph, ring, count=1)
    return _emit(args, _value("normal-form", value))


def _cmd_mul(args):
    graph, ring, _ = _load_context(args)
    a, b = _expressions(args, graph, ring, count=2)
    return _emit(args, _value("product", a * b))


def _cmd_involve(args):
    graph, ring, _ = _load_context(args)
    (value,) = _expressions(args, graph, ring, count=1)
    return _emit(args, _value("involution", value.involution()))


def _cmd_decompose(args):
    graph, ring, dmap = _load_context(args)
    (value,) = _expressions(args, graph, ring, count=1)
    parts = {dmap.group.render(g): str(part) for g, part in decompose(value, dmap).items()}
    lines = [f"{g}: {part}" for g, part in parts.items()]
    return _emit(args, Report("decomposition", fields={"parts": parts}, lines=lines))


def _cmd_xg(args):
    graph, ring, dmap = _load_context(args)
    _check_bound(args)
    g = dmap.group.parse(args.degree)
    monos = [m.render() for m in enumerate_Xg(g, dmap, args.bound)]
    fields = {"degree": dmap.group.render(g), "bound": args.bound, "monomials": monos}
    return _emit(args, Report("xg", fields=fields, lines=monos))


def _cmd_epsilon(args):
    graph, ring, dmap = _load_context(args)
    _check_bound(args)
    g = dmap.group.parse(args.degree)
    return _emit(args, epsilon(g, dmap, args.bound, ring).to_report())


def _cmd_localunits(args):
    graph, ring, dmap = _load_context(args)
    (value,) = _expressions(args, graph, ring, count=1)
    lu = local_units(value, dmap)
    report = Report(
        kind="local-units",
        verdict="PASS",
        fields={
            "element": str(value),
            "degree": dmap.group.render(lu.degree),
            "left": str(lu.left),
            "right": str(lu.right),
            "left-certificate": [[str(x), str(y)] for x, y in lu.left_certificate],
            "right-certificate": [[str(x), str(y)] for x, y in lu.right_certificate],
        },
    )
    return _emit(args, report)


def _cmd_check(args):
    _check_options(args)
    graph, ring, dmap = _load_context(args)
    _check_bound(args)
    prop = args.property
    if prop == "grading":
        report = check_grading_axiom(dmap, args.bound, ring)
    elif prop == "symmetric":
        report = check_symmetric(dmap, args.bound, ring)
    elif prop == "epsilon-strong":
        report = check_epsilon_strong(dmap, _parse_window(args.window, dmap.group), args.bound, ring)
    elif prop == "strongly-graded":
        report = check_strongly_graded(dmap, _parse_window(args.window, dmap.group), args.bound, ring)
    else:
        sampled_check = check_nearly_epsilon if prop == "nearly-epsilon" else check_nondegenerate
        if args.expr:
            report = sampled_check(dmap, [parse_element(t, graph, ring) for t in args.expr])
        else:
            count, seed = _sampling(args)
            rng = random.Random(seed)
            samples = [random_homogeneous(dmap, ring, rng, len_bound=args.bound) for _ in range(count)]
            report = sampled_check(dmap, samples)
            report.fields["seed"] = seed
    return _emit(args, report)


def _cmd_frobenius(args):
    graph, ring, dmap = _load_context(args)
    _check_bound(args)
    try:
        system = build_frobenius_system(dmap, args.bound, ring)
    except EpsilonUnavailableError as exc:
        report = Report(
            kind="frobenius-verification",
            verdict="UNDETERMINED",
            fields={"reason": str(exc)},
        )
        return _emit(args, report)
    count, seed = _sampling(args)
    rng = random.Random(seed)
    samples = [
        random_element(graph, ring, rng, len_bound=min(args.bound, 3))
        for _ in range(count)
    ]
    e = dmap.group.identity
    triples = []
    for _ in range(args.triples):
        t = random_homogeneous(dmap, ring, rng, degree=e, len_bound=min(args.bound, 3))
        a = random_element(graph, ring, rng, len_bound=min(args.bound, 3))
        t2 = random_homogeneous(dmap, ring, rng, degree=e, len_bound=min(args.bound, 3))
        triples.append((t, a, t2))
    report = verify_frobenius(system, samples, triples, seed=seed)
    return _emit(args, report)


_HANDLERS = {
    "nf": _cmd_nf,
    "mul": _cmd_mul,
    "involve": _cmd_involve,
    "decompose": _cmd_decompose,
    "xg": _cmd_xg,
    "epsilon": _cmd_epsilon,
    "localunits": _cmd_localunits,
    "check": _cmd_check,
    "frobenius": _cmd_frobenius,
}


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _HANDLERS[args.command](args)
    except (UsageError, WindowError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except _DATA_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ConstructionError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_SOFTWARE


if __name__ == "__main__":
    sys.exit(main())
