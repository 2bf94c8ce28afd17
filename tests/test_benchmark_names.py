"""The benchmark's per-function figures name functions that the tracer wraps.

``BENCHMARK.json`` reports ``<layer>.<function>.{calls,self_s,p50_s,max_s}``
for traced functions.  The tracer wraps the public functions of each
``modspec.<layer>`` module and the public methods and constructor of
``WeightedGraph`` (reported as ``graph.WeightedGraph``), and it splits
``volume_regularity_alpha`` into two synthetic names by branch.  A figure
whose function was deleted or renamed would read zero forever, so this test
fails instead.
"""
import importlib
import inspect
import json
from pathlib import Path

from modspec.graph import WeightedGraph

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"
SUFFIXES = ("calls", "self_s", "p50_s", "max_s")
SYNTHETIC = {"regularity.alpha_exact", "regularity.alpha_sampled"}


def traced_names():
    """The ``<layer>.<function>`` part of every per-function benchmark figure."""
    names = set()
    for entry in json.loads(BENCHMARK.read_text())["per_layer"]:
        parts = entry["name"].split(".")
        if len(parts) == 3 and parts[2] in SUFFIXES:
            names.add(f"{parts[0]}.{parts[1]}")
    return names


def resolves(name):
    layer, function = name.split(".")
    if function.startswith("_"):
        return False
    if layer == "graph" and (function == "WeightedGraph"
                             or inspect.isfunction(vars(WeightedGraph).get(function))):
        return True
    module = importlib.import_module(f"modspec.{layer}")
    fn = vars(module).get(function)
    return inspect.isfunction(fn) and fn.__module__ == module.__name__


def test_benchmark_figures_name_traced_functions():
    names = traced_names() - SYNTHETIC
    assert "graph.load_edge_list" in names
    unresolved = sorted(name for name in names if not resolves(name))
    assert not unresolved, f"benchmark figures name functions the tracer cannot wrap: {unresolved}"
