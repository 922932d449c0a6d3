#!/usr/bin/env python3
"""End-to-end benchmark of the anglelab CLI, with an optional traced pass.

    python3 benchmarks/run.py --workload avoid --seed 1 --seconds 35 --trace 0

Run from anywhere inside a source checkout; the package is imported from
`src/` next to this directory.  One process, one client, a closed loop:
each `anglelab.cli.main(argv)` call starts after the previous one returned.
`ANGLELAB_THREADS=1` is set before `anglelab` is imported.

A pass is one run through the workload's call list.  With `--trace 0` the
run repeats passes until the next one would overrun `--seconds` (at least
two) and prints the end-to-end metrics.  The host's speed drifts, at
times by a factor of two within a run, so every call is followed by the
reference loop of `reference.py`, and each call's time is calibrated by the
loops right before and after it.  `wall_s` is the sum over the calls of
each call's median calibrated time over the run's passes.  With
`--trace 1` it makes one untraced pass and one traced pass and prints the
per-layer metrics.  Every output of every pass is checked, outside the
timed region, and must be byte-identical across the passes of a run.  The last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}.

`--workload all` runs each workload in a fresh child process and prints
every metric of every workload by name with its unit.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

import tracing
from reference import calibrated, reference_seconds

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOAD_NAMES = ("avoid", "measure", "highdim")
SETUP_REPEATS = 9
MIN_PASSES = 2
THREAD_VARS = ("ANGLELAB_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")
# subcommands reported with their own time in the traced run
TIMED_COMMANDS = ("gasket", "spectrum", "rectangle", "minkdim", "triangle", "content")
END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
SETUP_REFERENCES = 3
# one reference loop after each call, and one more per this much call time
REFERENCE_EVERY_S = 0.5
# times the import, then the reference loop in the same fresh interpreter
_IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import anglelab.cli; t = time.perf_counter() - t\n"
    "import sys; sys.path.insert(0, sys.argv[1]); from reference import reference_seconds\n"
    f"print(t, *(reference_seconds() for _ in range({SETUP_REFERENCES})))"
)


def prepare_import() -> None:
    """Pin the thread count and put this checkout's `src/` first on the path."""
    if not (SRC / "anglelab" / "__init__.py").is_file():
        raise SystemExit(f"run.py: no anglelab sources under {SRC}")
    os.environ["ANGLELAB_THREADS"] = "1"
    sys.path.insert(0, str(SRC))


def _import_seconds() -> tuple[float, list[float]]:
    """Import time of `anglelab.cli` in a fresh interpreter, as a CLI user pays
    it, and the reference-loop times of that interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC), ANGLELAB_THREADS="1")
    done = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, str(HERE)], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120, check=True)
    imported, *references = map(float, done.stdout.split())
    return imported, references


def machine_record(args) -> dict:
    import numpy as np

    try:
        l3 = os.sysconf(194)  # _SC_LEVEL3_CACHE_SIZE in glibc
    except (ValueError, OSError):
        l3 = None
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "l3_bytes": l3,
        "threads": {var: os.environ[var] for var in THREAD_VARS if var in os.environ},
        "gc_enabled": gc.isenabled(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


class Runner:
    """Runs passes of one workload in a work directory and checks their outputs."""

    def __init__(self, cli, calls, inputs: dict, work: Path) -> None:
        self.cli = cli
        self.calls = calls
        self.inputs = inputs
        self.work = work
        self.digests: list[bytes] | None = None
        self.references: list[float] = []
        # each call's calibrated time in each pass so far
        self.calibrated: dict[str, list[float]] = defaultdict(list)
        self.attempted = 0
        self.failures: list[str] = []

    def run_pass(self) -> tuple[float, dict[str, float]]:
        """Time one pass; returns its wall time (the sum of its call times,
        without the reference loops in between) and the time per subcommand."""
        codes, per_command = [], defaultdict(float)
        before = [reference_seconds()]
        for call in self.calls:
            t0 = time.perf_counter()
            # looked up per call, so a traced run reaches the wrapper
            codes.append(self.cli.main([*call.argv, "--out", str(self.work / f"{call.name}.json")]))
            elapsed = time.perf_counter() - t0
            per_command[call.command] += elapsed
            # reference loops right after the call, in proportion to its
            # time; with those right before it they give the host's speed
            # while it ran
            after = [reference_seconds() for _ in range(max(1, round(elapsed / REFERENCE_EVERY_S)))]
            self.calibrated[call.name].append(calibrated(elapsed, before + after))
            self.references.extend(after)
            before = after
        self._check(codes)
        return sum(per_command.values()), per_command

    def _check(self, codes: list[int]) -> None:
        from checks import CheckFailed

        prior = dict(self.inputs)
        digests = []
        for call, code in zip(self.calls, codes):
            self.attempted += 1
            path = self.work / f"{call.name}.json"
            try:
                data = path.read_bytes()
            except FileNotFoundError:
                data = b""
            digests.append(hashlib.sha256(data).digest())
            problem = None
            if code not in call.expect:
                problem = f"exit {code}, expected {sorted(call.expect)}"
            else:
                try:
                    out = json.loads(data)
                    prior[call.name] = out
                    if call.check is not None:
                        call.check(code, out, prior)
                except (CheckFailed, ValueError, KeyError, TypeError, IndexError) as exc:
                    problem = f"{type(exc).__name__}: {exc}"
            if problem is None and self.digests is not None and digests[-1] != self.digests[len(digests) - 1]:
                problem = "output differs from the first pass"
            if problem is not None:
                self.failures.append(f"{call.name} ({' '.join(call.argv[:1])}): {problem}")
        if self.digests is None:
            self.digests = digests


def _setup(make_inputs, work: Path, seed: int) -> float:
    """Median import time plus median input generation time, over repeats.

    Each import is calibrated by the reference loops of its own fresh
    interpreter, the input generation by loops run between its repeats."""
    imports, measured = [], []
    for _ in range(SETUP_REPEATS):
        imported, references = _import_seconds()
        measured.append(imported)
        imports.append(calibrated(imported, references))
    generated, references = [], []
    for _ in range(SETUP_REPEATS):
        references.append(reference_seconds())
        t0 = time.perf_counter()
        make_inputs(work, seed)
        generated.append(time.perf_counter() - t0)
    print(f"setup: import {statistics.median(measured):.4f} s and inputs {statistics.median(generated):.4f} s "
          f"measured, reference loop {statistics.median(references) * 1e3:.2f} ms", file=sys.stderr)
    return statistics.median(imports) + calibrated(statistics.median(generated), references)


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_workload(args) -> dict:
    prepare_import()
    import anglelab
    import anglelab.cli as cli

    if Path(anglelab.__file__).resolve().parent != SRC / "anglelab":
        raise SystemExit(f"run.py: imported anglelab from {anglelab.__file__}, not from {SRC}")

    import workloads

    record = machine_record(args)
    print(json.dumps({"machine": record}, sort_keys=True), flush=True)
    make_inputs, make_calls, input_names = workloads.WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        setup_s = _setup(make_inputs, work, args.seed)
        inputs = {name: json.loads((work / f"{name}.json").read_text()) for name in input_names}
        runner = Runner(cli, make_calls(work, args.seed), inputs, work)
        if args.trace:
            metrics = _traced_run(runner, record, args)
        else:
            metrics = _timed_run(runner, args.seconds, setup_s)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for failure in runner.failures[:20]:
        print(f"check failed: {failure}", file=sys.stderr)
    return {
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": metrics,
    }


def _timed_run(runner: Runner, seconds: float, setup_s: float) -> dict:
    walls, spent = [], []  # pass times, and pass times with checks and reference loops
    while len(walls) < MIN_PASSES or sum(spent) + statistics.median(spent) <= seconds:
        t0 = time.perf_counter()
        wall, _ = runner.run_pass()
        walls.append(wall)
        spent.append(time.perf_counter() - t0)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(f"passes {len(walls)}: " + " ".join(f"{w:.3f}" for w in walls) + " s measured, reference loop "
          f"{statistics.median(runner.references) * 1e3:.2f} ms", file=sys.stderr)
    wall_s = sum(statistics.median(times) for times in runner.calibrated.values())
    values = {"setup_s": setup_s, "wall_s": wall_s, "peak_rss_mb": peak_kib / 1024.0}
    return {name: _metric(values[name], unit) for name, unit in END_TO_END.items()}


def _traced_run(runner: Runner, record: dict, args) -> dict:
    untraced, per_command = runner.run_pass()
    with tracing.Tracer() as tracer:
        traced, _ = runner.run_pass()
    tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.jsonl", {"machine": record})
    layers = tracing.summarize(tracer.spans, tracer.missing_hooks)
    metrics = {name: _metric(layers[name], unit) for name, unit in tracing.LAYER_METRICS.items()}
    for command in TIMED_COMMANDS:
        metrics[f"cmd.{command}_s"] = _metric(per_command.get(command, 0.0), "s")
    metrics["cmd.pass_s"] = _metric(untraced, "s")
    metrics["cmd.reference_s"] = _metric(statistics.median(runner.references), "s")
    metrics["trace.wall_s"] = _metric(traced, "s")
    metrics["trace.overhead_frac"] = _metric(traced / untraced - 1.0, "fraction")
    metrics["trace.accounted_frac"] = _metric(tracing.root_time(tracer.spans) / traced, "fraction")
    return metrics


def _print_metrics(prefix: str, result: dict) -> None:
    for name, metric in result["metrics"].items():
        print(f"{prefix}{name:28s} {metric['value']:>16.6g} {metric['unit']}")
    print(f"{prefix}{'failed_frac':28s} {result['failed'] / result['attempted']:>16.6g} "
          f"fraction ({result['failed']}/{result['attempted']} calls)")


def run_all(args) -> dict:
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(argv, capture_output=True, text=True, timeout=600)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            raise SystemExit(f"run.py: workload {name} exited with {done.returncode}")
        result = json.loads(done.stdout.strip().splitlines()[-1])
        _print_metrics(f"{name:8s} ", result)
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    return combined


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        result = run_all(args)
    else:
        result = run_workload(args)
        _print_metrics("", result)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
