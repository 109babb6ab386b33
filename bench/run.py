#!/usr/bin/env python3
"""Run one workload of the leavitt benchmark and print its metrics.

    python3 bench/run.py --workload epsilon-window --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25 --trace 1
    python3 bench/run.py --workload grading-sweep --seed 1 --seconds 1 --smoke

Run it from the root of a checkout: it imports ``leavitt`` from ``src/``.
Each workload is a closed loop in this one process and thread: one op after
another until --seconds have passed (and at least MIN_ROUNDS rounds ran).
Every op's output is checked against a known answer.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics. With --trace 0 the metrics are the end-to-end ones; with
--trace 1 they are the per-layer ones from tracer.py. The line before it is
a JSON object recording the seed, the input sizes, the Python version,
nproc, the raw seconds per op and the failed share. See README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
WORKLOAD_NAMES = ("epsilon-window", "grading-sweep", "sampled-verify", "normal-form")
MIN_ROUNDS = 3
SETUP_PROBES = 10  # half before the closed loop, half after it
REFERENCE_SIZE = 2_000
REFERENCE_INTERVAL = 0.2  # seconds between reference samples during ops


class _Slot:
    __slots__ = ("key", "value")

    def __init__(self, key, value):
        self.key = key
        self.value = value


def reference_loop():
    """Fixed interpreter work that shares no code with the library, in the
    library's style: tuple keys in a dict larger than the processor's
    first-level caches, read back in scattered order, and a sorted level of
    growing tuples, as in path enumeration. About 3 ms here."""
    names = ("a", "b", "c", "t", "w", "x", "y", "z")
    table = {}
    for i in range(REFERENCE_SIZE):
        key = (names[i % 8], i, names[i * 7 % 8])
        table[key] = _Slot(key, i)
    total = 0
    for j in range(REFERENCE_SIZE):
        i = j * 7919 % REFERENCE_SIZE
        total += table[(names[i % 8], i, names[i * 7 % 8])].value
    level = [(n,) for n in names]
    for _ in range(4):
        level = sorted(p + (n,) for p in level for n in names[:3])[:600]
        for p in level:
            table[p] = _Slot(p, total)
    return len(table)


class Reference:
    """Timings of the reference loop, taken between ops and, when an
    interval is given, from a SIGALRM handler every `interval` seconds during
    ops. The handler's time is kept in `spent_wall`/`spent_cpu` so that it
    can be taken out of the op it interrupted."""

    def __init__(self, interval=None):
        self.interval = interval
        self.wall, self.cpu = [], []
        self.spent_wall = self.spent_cpu = 0.0
        self._sampling = False

    def sample(self, *_signal_args):
        if self._sampling:  # the timer fired during a sample taken between ops
            return
        self._sampling = True
        # the loop frees all it allocates; with the collector off, a full
        # collection of the library's objects never lands inside a sample
        collecting = gc.isenabled()
        gc.disable()
        wall, cpu = time.perf_counter(), time.process_time()
        reference_loop()
        wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
        if collecting:
            gc.enable()
        self._sampling = False
        self.wall.append(wall)
        self.cpu.append(cpu)
        self.spent_wall += wall
        self.spent_cpu += cpu

    def __enter__(self):
        if self.interval:
            self._previous = signal.signal(signal.SIGALRM, self.sample)
            signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        if self.interval:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)


class Loop:
    """Closed-loop results: one entry per round, each an average per op."""

    def __init__(self):
        self.wall, self.cpu, self.wall_ref, self.cpu_ref, self.reference = [], [], [], [], []
        self.attempted = self.failed = self.stdout_bytes = 0
        self.op_wall_total = 0.0


def run_loop(prepared, seconds, min_rounds=MIN_ROUNDS, sample_interval=None):
    """Run rounds of ops until `seconds` pass. The reference loop runs before
    a round, after every op and, with `sample_interval`, periodically during
    ops; each round's time per op is also reported as a multiple of the
    median reference time sampled during the round."""
    loop = Loop()
    start = time.perf_counter()
    index = 0
    with Reference(sample_interval) as ref:
        while index < min_rounds or time.perf_counter() - start < seconds:
            ops = prepared.ops_for_round(index)
            first = len(ref.wall)
            ref.sample()
            wall = cpu = 0.0
            for op in ops:
                loop.attempted += 1
                spent_wall, spent_cpu = ref.spent_wall, ref.spent_cpu
                op_wall, op_cpu = time.perf_counter(), time.process_time()
                try:
                    result = op.run()
                    op_wall = time.perf_counter() - op_wall - (ref.spent_wall - spent_wall)
                    op_cpu = time.process_time() - op_cpu - (ref.spent_cpu - spent_cpu)
                    ok = op.check(result)
                except Exception as exc:  # a failed op is counted, not fatal
                    print(f"op {op.label!r} raised {type(exc).__name__}: {exc}", file=sys.stderr)
                    ok, op_wall, op_cpu, result = False, 0.0, 0.0, None
                if not ok:
                    loop.failed += 1
                loop.stdout_bytes += len(getattr(result, "stdout", "").encode())
                wall += op_wall
                cpu += op_cpu
                ref.sample()
            loop.op_wall_total += wall
            loop.wall.append(wall / len(ops))
            loop.cpu.append(cpu / len(ops))
            loop.reference.append(statistics.median(ref.wall[first:]))
            loop.wall_ref.append(loop.wall[-1] / loop.reference[-1])
            loop.cpu_ref.append(loop.cpu[-1] / statistics.median(ref.cpu[first:]))
            index += 1
    return loop


def setup_probe(name, seed, smoke):
    """Seconds one fresh interpreter takes from importing leavitt to being
    ready for the workload's first op."""
    argv = [sys.executable, str(BENCH / "setup_probe.py"), name, str(seed)]
    if smoke:
        argv.append("--smoke")
    done = subprocess.run(argv, capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def quartiles(values):
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def run_workload(name, args):
    import workloads  # needs src/ on sys.path, which main() checks and sets

    workload = workloads.WORKLOADS[name]
    size = workloads.SMOKE if args.smoke else workloads.FULL
    prepared = workload.prepare(args.seed, size)
    min_rounds = 1 if args.smoke else MIN_ROUNDS
    info = {
        "workload": name,
        "seed": args.seed,
        "seed_drives": workload.seed_drives,
        "inputs": prepared.sizes,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "smoke": args.smoke,
    }
    if args.trace:
        import tracer

        half = args.seconds / 2
        plain = run_loop(prepared, half, min_rounds=1)
        tr = tracer.Tracer().install()
        try:
            traced = run_loop(prepared, half, min_rounds=1)
        finally:
            tr.uninstall()
        metrics = {
            key: {"value": value, "unit": _layer_unit(key)}
            for key, value in tr.metrics(traced.attempted, traced.op_wall_total).items()
        }
        metrics["cli.stdout_bytes"] = {"value": traced.stdout_bytes / traced.attempted, "unit": "bytes/op"}
        overhead = statistics.median(traced.wall_ref) / statistics.median(plain.wall_ref)
        metrics["trace.overhead_ratio"] = {"value": overhead, "unit": "ratio"}
        info["absent"] = tr.absent
        info["rounds"] = {"untraced": len(plain.wall), "traced": len(traced.wall)}
        attempted, failed = plain.attempted + traced.attempted, plain.failed + traced.failed
    else:
        setup_probe(name, args.seed, args.smoke)  # warm-up: compiles the bytecode caches
        setups = [setup_probe(name, args.seed, args.smoke) for _ in range(SETUP_PROBES // 2)]
        loop = run_loop(prepared, args.seconds, min_rounds, REFERENCE_INTERVAL)
        setups += [setup_probe(name, args.seed, args.smoke) for _ in range(SETUP_PROBES // 2)]
        peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = {
            "verdict_ref": {"value": statistics.median(loop.wall_ref), "unit": "ref"},
            "cpu_ref": {"value": statistics.median(loop.cpu_ref), "unit": "ref"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mib": {"value": peak_mib, "unit": "MiB"},
        }
        info["rounds"] = len(loop.wall)
        info["verdict_s_quartiles"] = quartiles(loop.wall)
        info["verdict_s"] = statistics.median(loop.wall)
        info["cpu_s"] = statistics.median(loop.cpu)
        info["reference_s"] = statistics.median(loop.reference)
        attempted, failed = loop.attempted, loop.failed
    info["attempted"] = attempted
    info["failed_share"] = failed / attempted
    print(json.dumps(info))
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def _layer_unit(key):
    if key.endswith("_s"):
        return "s/op"
    if key.endswith(("_ratio", "share")):
        return "ratio"
    return "count/op"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="how long one run measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny bounds, for the benchmark's own tests")
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "leavitt" / "__init__.py").is_file():
        print(f"error: no leavitt package under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import leavitt

    if not Path(leavitt.__file__).resolve().is_relative_to(SRC):
        print(f"error: leavitt was imported from {leavitt.__file__}, not {SRC}", file=sys.stderr)
        return 2
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    for name in names:
        print(json.dumps(run_workload(name, args)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
