"""Benchmark of the ``modspec`` CLI on seeded workloads.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload analyze --seed 0 --seconds 32 --trace 0

Load model: one process, one caller, closed loop.  A worker process imports
``modspec.cli`` from ``src/``, runs one untimed warm-up iteration, then calls
``modspec.cli.main(argv)`` in-process back to back for ``--seconds`` (at
least three iterations), with stdout captured in memory.  Inputs are
generated from ``--seed`` before any timing and written as TSV into a
scratch directory under ``.perfbench_work/``; the seed is also the CLI's
``--seed``.  Interpreter start plus ``import modspec.cli`` is measured apart,
in fresh interpreters, as ``setup_s``.

With ``--trace 0`` the end-to-end metrics of ``BENCHMARK.json`` are
reported; with ``--trace 1`` the worker alternates untraced and traced
iterations and the per-layer metrics are reported, including the tracing
overhead (traced minus untraced mean iteration time).

The benchmark never sets a BLAS or OpenMP thread variable; it records the
OpenBLAS thread count it observed.  The last line of stdout is the result
JSON: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from workloads import WORKLOADS, check_outputs, commands_for, generate_inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
WORKER = HERE / "worker.py"

SETUP_REPEATS = 5
MIN_ITERATIONS = 3
RUN_LIMIT_S = 150.0  # leaves room for set-up and checks: a whole run must end within 180 s
QUALITY_UNITS = {"label_agreement": "ratio", "alpha_sum": "1"}


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, same code path; for testing the harness")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def measure_setup(repeats: int) -> list[float]:
    """Wall seconds of a fresh interpreter that imports ``modspec.cli``, once per repeat."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import modspec.cli"
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, timeout=60)
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise BenchError(f"import modspec.cli failed: {proc.stderr.decode()[-500:]}")
    return times


def run_worker(workdir: Path, commands, seconds: float, trace: bool) -> dict:
    spec = {
        "src": str(SRC),
        "commands": [{"argv": list(c.argv), "output": c.output} for c in commands],
        "seconds": seconds,
        "min_iterations": MIN_ITERATIONS * (2 if trace else 1),
        "trace": trace,
        "result": str(workdir / "result.json"),
    }
    spec_path = workdir / "spec.json"
    spec_path.write_text(json.dumps(spec))
    try:
        proc = subprocess.run([sys.executable, str(WORKER), str(spec_path)], cwd=workdir,
                              capture_output=True, text=True, timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker did not finish within {RUN_LIMIT_S} s") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(Path(spec["result"]).read_text())
    if Path(result["modspec_file"]).resolve().parent != (SRC / "modspec").resolve():
        raise BenchError(f"worker imported modspec from {result['modspec_file']}, not {SRC}")
    if result["tracer_imported"] and not trace:
        raise BenchError("the untraced worker imported the tracer")
    return result


def count_failures(result: dict, checks_ok: bool) -> int:
    """Timed iterations that exited nonzero, raised, or printed other bytes than the warm-up."""
    ref = result["warmup"]["digest"]
    return sum(1 for it in result["iterations"]
               if not checks_ok or it["error"] or any(it["codes"]) or it["digest"] != ref)


def environment(load_at_start) -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "loadavg_at_start": list(load_at_start),
        "platform": platform.platform(),
    }


def load_metric_specs() -> tuple[list[dict], list[dict]]:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return bench["end_to_end"], bench["per_layer"]


def select(specs: list[dict], figures: dict) -> dict:
    missing = [s["name"] for s in specs if s["name"] not in figures]
    if missing:
        raise BenchError(f"no figure for metrics {missing}")
    return {s["name"]: {"value": figures[s["name"]], "unit": s["unit"]} for s in specs}


def bench(args) -> tuple[dict, dict]:
    scale = "smoke" if args.smoke else "full"
    end_to_end, per_layer = load_metric_specs()
    load_at_start = os.getloadavg()
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=WORK))
    try:
        inputs = generate_inputs(args.workload, args.seed, scale, workdir)
        commands = commands_for(args.workload, args.seed, scale)
        setup = [] if args.trace else measure_setup(SETUP_REPEATS)
        run = run_worker(workdir, commands, args.seconds, bool(args.trace))
        outputs = [(workdir / f"reference{i}.out").read_bytes() for i in range(len(commands))]
        checked = check_outputs(args.workload, scale, inputs, commands, outputs)
        if args.trace:
            trace_file = WORK / f"trace-{args.workload}-{args.seed}.json"
            shutil.move(workdir / "spans.json", trace_file)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failures = list(checked["failures"])
    if run["warmup"]["error"] or any(run["warmup"]["codes"]):
        failures.append(f"warm-up failed: codes {run['warmup']['codes']} "
                        f"{run['warmup']['error']}")
    checks_ok = not failures
    attempted = len(run["iterations"])
    failed = count_failures(run, checks_ok)

    walls = [it["wall_s"] for it in run["iterations"] if not it["traced"]]
    q1, median, q3 = statistics.quantiles(walls, n=4)
    figures = {
        "wall_s": median,
        "peak_rss_mb": run["peak_rss_mb"],
        "env.blas_threads": run["blas_threads_after"],
        "cli.output_bytes": float(sum(len(out) for out in outputs)),
    }
    if setup:
        figures["setup_s"] = statistics.median(setup)
    figures.update(checked["figures"])
    if args.trace:
        figures.update(run["layers"])
        figures["trace.wall_s"] = statistics.fmean(
            it["wall_s"] for it in run["iterations"] if it["traced"])
        figures["trace.untraced_wall_s"] = statistics.fmean(walls)
        figures["trace.overhead_s"] = figures["trace.wall_s"] - figures["trace.untraced_wall_s"]
        figures["trace.unaccounted_s"] = figures["trace.wall_s"] - figures["trace.self_total_s"]

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "scale": scale,
        "trace": args.trace,
        "iterations": len(walls),
        "wall_s": {"median": median, "q1": q1, "q3": q3, "min": min(walls), "max": max(walls)},
        "setup_s": sorted(setup),
        "error_rate": failed / attempted,
        "failures": failures,
        "quality": {k: v for k, v in checked["figures"].items() if k in QUALITY_UNITS},
        "inputs": {name: {"n": inp["n"], "edges": inp["edges"], "bytes": inp["bytes"]}
                   for name, inp in inputs.items()},
        "output_sha256": run["warmup"]["digest"],
        "blas_threads": {"before": run["blas_threads_before"],
                         "after": run["blas_threads_after"]},
        "env": environment(load_at_start),
    }
    if args.trace:
        report["trace_file"] = str(trace_file.relative_to(ROOT))
    metrics = select(per_layer if args.trace else end_to_end, figures)
    result = {"correct": checks_ok and failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    return report, result


def summary_lines(report: dict, result: dict) -> list[str]:
    lines = [f"workload {report['workload']}  seed {report['seed']}  "
             f"iterations {report['iterations']}  blas_threads {report['blas_threads']}"]
    if not report["trace"]:
        wall = report["wall_s"]
        lines.append(f"wall_s = {wall['median']:.4f} s  (median of {report['iterations']}; "
                     f"q1 {wall['q1']:.4f}, q3 {wall['q3']:.4f})")
        for name, metric in result["metrics"].items():
            if name != "wall_s":
                lines.append(f"{name} = {metric['value']:.4f} {metric['unit']}")
    lines.append(f"error_rate = {report['error_rate']:.4f} ratio  "
                 f"({result['failed']} of {result['attempted']} iterations failed)")
    for name, value in report["quality"].items():
        lines.append(f"{name} = {value:.6f} {QUALITY_UNITS[name]}")
    for failure in report["failures"]:
        lines.append(f"check failed: {failure}")
    return lines


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "modspec" / "__init__.py").is_file():
        print(f"error: no modspec sources under {SRC}", file=sys.stderr)
        return 2
    if not (ROOT / "BENCHMARK.json").is_file():
        print(f"error: no BENCHMARK.json in {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        report, result = bench(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for line in summary_lines(report, result):
        print(line)
    print("report " + json.dumps(report, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
