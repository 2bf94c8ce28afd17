"""Self-tests of the benchmark harness.

Run from the repository root with ``python3 -m pytest perfbench``.  The span
arithmetic is checked on hand-built spans; the smoke tests run every workload
at tiny size through the same code path as a measured run.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_self_time_nested():
    # a[0,10] > b[2,5] > c[3,4]
    assert spans.self_times([0, 2, 3], [10, 5, 4], [-1, 0, 1]) == [7, 2, 1]


def test_self_time_siblings():
    # a[0,10] with children b[1,3] and c[4,8]
    assert spans.self_times([0, 1, 4], [10, 3, 8], [-1, 0, 0]) == [4, 2, 4]


def test_self_time_overlapping_and_clipped_children():
    # children from two threads overlap on [3,5]; d sticks out of its parent
    got = spans.self_times([0, 1, 3, 9], [10, 5, 8, 12], [-1, 0, 0, 0])
    assert got == [2, 4, 5, 3]


def test_layer_metrics_sum_to_root_and_skip_warmup():
    def span(name, start, end, parent, iteration):
        return [name, start, end, parent, iteration]

    warm = span("cli.main", -5.0, -1.0, None, -1)
    roots = []
    for it, base in enumerate((0.0, 20.0)):
        root = span("cli.main", base, base + 10, None, it)
        load = span("graph.load_edge_list", base + 1, base + 4, root, it)
        ctor = span("graph.WeightedGraph", base + 2, base + 3, load, it)
        eig = span("spectral.eigendecompose", base + 5, base + 9, root, it)
        roots += [root, load, ctor, eig]
    names = {"cli.main", "graph.load_edge_list", "graph.WeightedGraph",
             "spectral.eigendecompose", "sampling.sample_subgraph"}
    out = spans.layer_metrics([warm] + roots, 2, names)
    assert out["cli.self_s"] == 3
    assert out["graph.self_s"] == 3
    assert out["graph.load_edge_list.self_s"] == 2
    assert out["spectral.eigendecompose.calls"] == 1
    assert out["spectral.eigendecompose.max_s"] == 4
    assert out["sampling.sample_subgraph.calls"] == 0
    assert out["trace.self_total_s"] == 10
    assert sum(out[f"{layer}.self_s"] for layer in spans.LAYERS) == 10


def test_tracer_rebinds_every_import_and_restores():
    sys.path.insert(0, str(ROOT / "src"))
    import modspec.cli
    import modspec.graph
    import modspec.sampling
    import modspec.spectral

    originals = (modspec.cli.load_edge_list, modspec.sampling.spectral_decomposition,
                 modspec.spectral.eigendecompose, modspec.graph.WeightedGraph.__init__)
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert modspec.cli.load_edge_list is modspec.graph.load_edge_list
        assert modspec.cli.load_edge_list is not originals[0]
        assert modspec.sampling.spectral_decomposition is modspec.spectral.spectral_decomposition
        tracer.iteration = 0
        modspec.graph.WeightedGraph([[0.0, 1.0], [1.0, 0.0]]).is_connected()
    finally:
        tracer.uninstall()
    assert (modspec.cli.load_edge_list, modspec.sampling.spectral_decomposition,
            modspec.spectral.eigendecompose, modspec.graph.WeightedGraph.__init__) == originals
    assert [s[0] for s in tracer.spans] == [
        "graph.WeightedGraph", "graph.default_vertex_ids", "graph.is_connected"]
    assert {"regularity.alpha_exact", "regularity.alpha_sampled", "cli.main"} <= tracer.names


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_smoke_run_reports_every_metric(workload, trace):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "0.5",
                "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = BENCHMARK["per_layer"] if trace == "1" else BENCHMARK["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in expected]
    for spec in expected:
        assert result["metrics"][spec["name"]]["unit"] == spec["unit"]


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "analyze", "--seed", "0", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
