"""Outside-in tracing of ``modspec``: wrap public functions, record spans, sum self times.

The tracer wraps every public function of the ``modspec`` modules (a superset
of ``modspec.__all__``), the public methods and constructor of
``WeightedGraph``, and ``modspec.cli.main``; the CLI's rendering helpers stay
unwrapped, so their time is ``cli.main``'s self time.
A wrapper is rebound wherever the original is reachable as a module
attribute, on the defining module and on every ``modspec`` module that
imported the name, so calls through either binding are recorded.

Each span holds its name, start, end, parent span and iteration id, and stays
in memory until the run ends.  A span's self time is its duration minus the
part of it that its child spans cover.  Only the benchmark imports this
module, and only in a traced run.
"""
from __future__ import annotations

import functools
import inspect
import statistics
import sys
import threading
import time
from collections import defaultdict

LAYERS = ("cli", "graph", "spectral", "clustering", "quality", "regularity",
          "sampling", "generators")


class Tracer:
    """Holds the spans of one traced process and the bindings it replaced."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent span or None, iteration]
        self.iteration = -1
        self._local = threading.local()
        self._replaced: list[tuple[object, str, object]] = []
        self.names: set[str] = set()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn, name):
        """Return ``fn`` recording a span per call; ``name`` may be a callable of the arguments."""
        naming = name if callable(name) else None
        if naming is None:
            self.names.add(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            span = [naming(args, kwargs) if naming else name, 0.0, 0.0,
                    stack[-1] if stack else None, self.iteration]
            self.spans.append(span)
            stack.append(span)
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()

        return traced

    def _rebind(self, owner, attr, wrapper):
        self._replaced.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        import modspec
        import modspec.cli
        from modspec.graph import WeightedGraph

        modules = [mod for key, mod in sys.modules.items()
                   if key == "modspec" or key.startswith("modspec.")]
        wrappers = {modspec.cli.main: self.wrap(modspec.cli.main, "cli.main")}
        for mod in modules:
            layer = mod.__name__.rsplit(".", 1)[-1]
            if layer in ("modspec", "cli", "errors"):
                continue
            for attr, fn in list(vars(mod).items()):
                if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    if attr == "volume_regularity_alpha":
                        wrappers[fn] = self.wrap(fn, _alpha_branch)
                        self.names.update(ALPHA_NAMES)
                    else:
                        wrappers[fn] = self.wrap(fn, f"{layer}.{attr}")
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._rebind(mod, attr, wrappers[value])
        for attr, value in list(vars(WeightedGraph).items()):
            if attr == "__init__":
                self._rebind(WeightedGraph, attr, self.wrap(value, "graph.WeightedGraph"))
            elif inspect.isfunction(value) and not attr.startswith("_"):
                self._rebind(WeightedGraph, attr, self.wrap(value, f"graph.{attr}"))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._replaced):
            setattr(owner, attr, original)
        self._replaced.clear()


ALPHA_NAMES = ("regularity.alpha_exact", "regularity.alpha_sampled",
               "regularity.volume_regularity_alpha")


def _alpha_branch(args, kwargs) -> str:
    # volume_regularity_alpha enumerates when no sample count is given
    branch = "exact" if kwargs.get("samples") is None else "sampled"
    return f"regularity.alpha_{branch}"


def self_times(starts, ends, parents) -> list[float]:
    """Duration of each span minus the union of its children's intervals.

    ``parents[i]`` is the index of span i's parent, or -1.  Children are
    clipped to their parent's interval; overlapping children (spans from
    worker threads) are counted once.
    """
    children = defaultdict(list)
    for i, p in enumerate(parents):
        if p >= 0:
            children[p].append(i)
    out = []
    for i, (start, end) in enumerate(zip(starts, ends)):
        covered = 0.0
        run_start = run_end = None
        pieces = sorted((max(starts[c], start), min(ends[c], end)) for c in children[i])
        for s, e in pieces:
            if e <= s:
                continue
            if run_end is None or s > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = s, e
            else:
                run_end = max(run_end, e)
        if run_end is not None:
            covered += run_end - run_start
        out.append(end - start - covered)
    return out


def as_records(spans: list[list]) -> list[dict]:
    """Spans as JSON-ready records, parents given by index."""
    index = {id(s): i for i, s in enumerate(spans)}
    return [{"name": s[0], "start": s[1], "end": s[2], "iteration": s[4],
             "parent": index[id(s[3])] if s[3] is not None else -1} for s in spans]


def layer_metrics(spans: list[list], iterations: int, names) -> dict:
    """Per-iteration calls and self seconds by function and by layer, from timed spans.

    Function figures are ``<layer>.<function>.calls`` / ``.self_s`` (per
    iteration) and ``.p50_s`` / ``.max_s`` (per call, inclusive duration).
    Layer figures are ``<layer>.self_s``; ``cli.self_s`` is ``cli.main``
    minus everything it called.  ``trace.self_total_s`` is the sum over all
    spans, which equals the time spent inside ``cli.main``.  Every name in
    ``names`` is reported, with zeros when it was never called.
    """
    timed = [s for s in spans if s[4] >= 0]
    index = {id(s): i for i, s in enumerate(timed)}
    parents = [index.get(id(s[3]), -1) if s[3] is not None else -1 for s in timed]
    selfs = self_times([s[1] for s in timed], [s[2] for s in timed], parents)
    per = max(iterations, 1)
    calls: dict[str, int] = defaultdict(int)
    self_sum: dict[str, float] = defaultdict(float)
    durations: dict[str, list[float]] = defaultdict(list)
    for span, own in zip(timed, selfs):
        keys = [span[0]]
        if span[0].startswith("regularity.alpha_"):
            keys.append("regularity.volume_regularity_alpha")
        for name in keys:
            calls[name] += 1
            self_sum[name] += own
            durations[name].append(span[2] - span[1])
    out: dict[str, float] = {}
    for name in set(names) | set(calls):
        out[f"{name}.calls"] = calls[name] / per
        out[f"{name}.self_s"] = self_sum[name] / per
        out[f"{name}.p50_s"] = statistics.median(durations[name]) if durations[name] else 0.0
        out[f"{name}.max_s"] = max(durations[name], default=0.0)
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(
            own for span, own in zip(timed, selfs) if span[0].split(".", 1)[0] == layer) / per
    out["trace.self_total_s"] = sum(selfs) / per
    return out
