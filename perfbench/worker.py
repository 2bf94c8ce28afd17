"""Run one workload's iterations in a fresh process and write what happened.

Usage: ``python3 worker.py SPEC_JSON`` with the working directory holding the
inputs.  The spec names the source tree, the commands of one iteration, the
seconds to measure, the minimum iteration count and whether to trace.  The
result JSON (path given in the spec) holds per-iteration wall times, exit
codes and output digests, the peak RSS of this process, the BLAS thread
count before and after the loop, and, when traced, the per-layer figures
(the raw spans go to ``spans.json``).

The tracer module is imported only when the spec asks for tracing.  A traced
run alternates untraced and traced iterations, installing the tracer for the
odd ones, so both see the same machine state and their difference is the
tracing overhead.
"""
from __future__ import annotations

import contextlib
import ctypes
import hashlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path


def blas_threads() -> int | None:
    """Thread count of numpy's bundled OpenBLAS, read without changing it."""
    from numpy._core import _multiarray_umath

    try:
        lib = ctypes.CDLL(_multiarray_umath.__file__)
        query = lib.scipy_openblas_get_num_threads64_
    except (OSError, AttributeError):
        return None
    query.argtypes = []
    query.restype = ctypes.c_int
    return int(query())


def run_iteration(main, commands: list[dict]) -> tuple[float, list[bytes], list[int], str]:
    """Call ``main`` once per command; return wall seconds, outputs, exit codes, error."""
    codes: list[int] = []
    buffers = []
    error = ""
    start = time.perf_counter()
    try:
        for cmd in commands:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
                codes.append(main(list(cmd["argv"])))
            buffers.append(buf)
    except Exception:  # an exception is a failed iteration, not a crashed benchmark
        error = traceback.format_exc(limit=3)
    wall = time.perf_counter() - start
    outputs = []
    for cmd, buf in zip(commands, buffers):
        if cmd["output"]:
            try:
                outputs.append(Path(cmd["output"]).read_bytes())
            except OSError as exc:
                error = error or f"missing output {cmd['output']}: {exc}"
                outputs.append(b"")
        else:
            outputs.append(buf.getvalue().encode("utf-8"))
    return wall, outputs, codes, error


def digest(outputs: list[bytes]) -> str:
    h = hashlib.sha256()
    for out in outputs:
        h.update(len(out).to_bytes(8, "little"))
        h.update(out)
    return h.hexdigest()


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    sys.path.insert(0, spec["src"])
    import modspec.cli

    tracer = None
    if spec["trace"]:
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        import spans

        tracer = spans.Tracer()
    threads_before = blas_threads()
    commands = spec["commands"]

    # untimed warm-up: its outputs are the reference every timed iteration must match
    _, ref_outputs, ref_codes, ref_error = run_iteration(modspec.cli.main, commands)
    for i, out in enumerate(ref_outputs):
        Path(f"reference{i}.out").write_bytes(out)
    ref_digest = digest(ref_outputs)

    iterations = []
    traced_count = 0
    begin = time.perf_counter()
    while (len(iterations) < spec["min_iterations"]
           or time.perf_counter() - begin < spec["seconds"]):
        traced = tracer is not None and len(iterations) % 2 == 1
        if traced:
            tracer.iteration = traced_count
            tracer.install()
        try:
            wall, outputs, codes, error = run_iteration(modspec.cli.main, commands)
        finally:
            if traced:
                tracer.uninstall()
        traced_count += traced
        iterations.append({"wall_s": wall, "codes": codes, "error": error,
                           "digest": digest(outputs), "traced": traced})

    result = {
        "modspec_file": modspec.__file__,
        "warmup": {"codes": ref_codes, "error": ref_error, "digest": ref_digest},
        "iterations": iterations,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "blas_threads_before": threads_before,
        "blas_threads_after": blas_threads(),
        "tracer_imported": "spans" in sys.modules,
    }
    if tracer:
        result["layers"] = spans.layer_metrics(tracer.spans, traced_count, tracer.names)
        Path("spans.json").write_text(json.dumps(spans.as_records(tracer.spans)))
    Path(spec["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
