#!/usr/bin/env python3
"""signalwall benchmark: seeded CLI workloads, checked outputs, traced layers.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload sweep_edge --seed 3 --seconds 15 --trace 0

One process, one client, closed loop: the workload's cycle of CLI calls
runs in-process through ``signalwall.cli.main`` until ``--seconds`` would
be exceeded by another cycle (always at least one cycle).  Each call's
output is checked.  The last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics (``cycle_s``, ``setup_s``,
``peak_rss_mb``).  ``setup_s`` is what every CLI call pays before it works:
the median over fresh interpreters of importing the package, numpy and scipy
included, and loading the scenario and material database.  ``--trace 1`` first runs an untraced pass, then the same
cycles again with every package function wrapped (see ``tracing.py``), and
reports the per-layer metrics, per-command timings of the untraced pass and
the tracing overhead.  Spans and a detailed result are written under
``.perfbench_out/`` in the checkout.

The program is imported from ``src/`` of the checkout; without it the
benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import hashlib
import importlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
# fresh-interpreter set-ups timed before and after the workload's cycles; the
# host's speed drifts over tens of seconds, so the samples span the whole run
SETUP_REPS = (3, 2)
COMMAND_KINDS = ("sweep", "uvalue", "transmission", "fit", "fdtd_validate")
END_TO_END = {"cycle_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def per_layer_units() -> dict[str, str]:
    """Every metric a traced run reports, with its unit."""
    units = dict(tracing.UNITS)
    units.update({f"{kind}_s": "s" for kind in COMMAND_KINDS})
    units.update({"trace.overhead_share": "ratio", "failed_share": "ratio"})
    return units


def summarize(samples: list[float]) -> dict:
    """Median plus the highest percentile with at least ten samples above it."""
    ordered = sorted(samples)
    out = {"n": len(ordered), "median": statistics.median(ordered) if ordered else 0.0}
    if len(ordered) >= 20:
        q = math.floor(100 * (len(ordered) - 10) / len(ordered))
        out[f"p{q}"] = ordered[math.ceil(q / 100 * len(ordered)) - 1]
    elif ordered:
        out["max"] = ordered[-1]
    return out


# timed in a fresh interpreter: argv[1] is the source directory, argv[2] the scenario or ""
SETUP_PROGRAM = """
import sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import signalwall.cli
from signalwall.scenario import load_scenario, material_database
load_scenario(sys.argv[2] or None)
material_database()
print(time.perf_counter() - start)
"""


def measure_setup(scenario_path: str | None, reps: int) -> list[float]:
    """Seconds for a cold import plus scenario and material load, once per fresh interpreter.

    Interpreter start-up itself is not counted.
    """
    times = []
    for _ in range(reps):
        proc = subprocess.run([sys.executable, "-c", SETUP_PROGRAM, str(SRC), scenario_path or ""],
                              cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


def program_modules() -> dict:
    return {name: mod for name, mod in sys.modules.items() if name == "signalwall" or name.startswith("signalwall.")}


def blas_threads() -> int | None:
    import numpy

    pattern = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in glob.glob(pattern):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                return int(getattr(lib, symbol)())
    return None


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        ref_file = ROOT / ".git" / ref[5:]
        return ref_file.read_text().strip() if ref_file.is_file() else ref
    return ref


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "signalwall").rglob("*")):
        if path.suffix in (".py", ".json") and "__pycache__" not in path.parts:
            digest.update(path.relative_to(SRC).as_posix().encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def environment() -> dict:
    import numpy
    import scipy

    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": blas_threads(),
        "cores": cores,
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "git_commit": git_commit(),
        "source_digest": source_digest(),
        "load_processes": 1,  # set-up timing alone uses fresh interpreters
    }


def run_op(cli, op):
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(list(op.argv))
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # an escaped exception is a failed operation
        rc = -1
        err.write(f"{type(exc).__name__}: {exc}")
    return workloads.OpResult(op.argv, rc, out.getvalue(), err.getvalue(), time.perf_counter() - start)


class Pass:
    """Cycles of one workload, with per-call timings and failures."""

    def __init__(self):
        self.cycles: list[float] = []
        self.calls: dict[str, list[float]] = {}
        self.per_cycle: dict[str, list[float]] = {}
        self.commands: dict[str, int] = {}
        self.attempted = 0
        self.failures: list[str] = []

    def run(self, workload, cli, seconds: float, cycles: int | None = None, tracer=None):
        start = time.perf_counter()
        while True:
            in_cycle: dict[str, list[float]] = {}
            for index, op in enumerate(workload.ops):
                if tracer is not None:
                    tracer.run_id = f"cycle{len(self.cycles)}.call{index}"
                res = run_op(cli, op)
                self.attempted += 1
                self.commands[op.command] = self.commands.get(op.command, 0) + 1
                try:
                    op.check(res)
                except Exception as exc:  # malformed output fails its check too
                    detail = str(exc) if isinstance(exc, workloads.CheckFailed) else f"{type(exc).__name__}: {exc}"
                    self.failures.append(f"{op.kind}: {detail}")
                self.calls.setdefault(op.kind, []).append(res.seconds)
                in_cycle.setdefault(op.kind, []).append(res.seconds)
            # time spent in the program; the output checks are not counted
            self.cycles.append(sum(sum(v) for v in in_cycle.values()))
            # per command kind: mean per call within the cycle
            for kind, values in in_cycle.items():
                self.per_cycle.setdefault(kind, []).append(sum(values) / len(values))
            if cycles is not None:
                if len(self.cycles) >= cycles:
                    return
            elif time.perf_counter() - start + self.cycles[-1] > seconds:
                return

    def command_seconds(self) -> dict[str, float]:
        """Median over cycles of the mean time per call, by command kind."""
        return {kind: statistics.median(v) for kind, v in self.per_cycle.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smallest inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)

    if not (SRC / "signalwall" / "__init__.py").is_file():
        print(f"error: program source not found under {SRC}", file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))

    run_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    work = run_dir / "work"
    work.mkdir(parents=True)

    workload = workloads.WORKLOADS[args.workload](args.seed, work, SRC, tiny=args.tiny)
    setup_times = measure_setup(workload.scenario_path, SETUP_REPS[0])
    importlib.import_module("signalwall.cli")
    modules = program_modules()
    cli = modules["signalwall.cli"]
    if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: imported {cli.__file__}, not the checkout's source", file=sys.stderr)
        return 2

    untraced = Pass()
    result: dict = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "environment": environment(),
                    "inputs": workload.inputs}
    if args.trace == 0:
        untraced.run(workload, cli, args.seconds)
        passes = [untraced]
        setup_times += measure_setup(workload.scenario_path, SETUP_REPS[1])
        values = {
            "cycle_s": statistics.median(untraced.cycles),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    else:
        untraced.run(workload, cli, args.seconds / 2.0)
        traced = Pass()
        with tracing.Tracer() as tracer:
            result["wrapped_functions"] = tracer.install(modules.values())
            traced.run(workload, cli, args.seconds, cycles=len(untraced.cycles), tracer=tracer)
        tracer.write(run_dir / "spans.jsonl")
        passes = [untraced, traced]
        per_layer = tracing.layer_metrics(tracer.spans, len(traced.cycles), traced.commands)
        overhead = sum(traced.cycles) / sum(untraced.cycles) - 1.0
        commands = untraced.command_seconds()
        values = {**per_layer, **{f"{kind}_s": commands.get(kind, 0.0) for kind in COMMAND_KINDS}}
        values["trace.overhead_share"] = overhead
        result["spans"] = len(tracer.spans)

    result["setup"] = summarize(setup_times)
    attempted = sum(p.attempted for p in passes)
    failures = [f for p in passes for f in p.failures]
    if args.trace == 1:
        values["failed_share"] = len(failures) / attempted
    units = END_TO_END if args.trace == 0 else per_layer_units()
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    result["sizes"] = dict(workload.observed)
    if args.trace == 1:
        result["sizes"].update(tracing.work_sizes(tracer.spans))
    result["timings"] = {"cycle": summarize(untraced.cycles), **{k: summarize(v) for k, v in untraced.calls.items()}}
    # share of the untraced program time each command kind takes
    result["cycle_share"] = {k: sum(v) / sum(untraced.cycles) for k, v in untraced.calls.items()}
    result["failures"] = failures
    result["metrics"] = metrics
    (run_dir / "result.json").write_text(json.dumps(result, indent=2, default=str) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for key in ("environment", "inputs", "sizes", "cycle_share"):
        print(f"{key} " + json.dumps(result[key], default=str))
    for kind, summary in result["timings"].items():
        print(f"timing {kind} (s): " + "  ".join(f"{k}={v:.6g}" for k, v in summary.items()))
    print(f"failed {len(failures)} of {attempted} calls")
    for failure in failures:
        print(f"FAILED {failure}")
    for name, m in metrics.items():
        print(f"metric {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": len(failures), "metrics": metrics}))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
