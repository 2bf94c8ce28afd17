"""Workload definitions: seeded inputs, CLI command lines and output checks.

Every workload is a list of ``modspec`` command lines that make up one
iteration.  Inputs are planted three-block graphs built with
``modspec.generators`` and written with ``dump_edge_list``; the program only
ever sees those files and the flags below.  The checks recompute what they
verify with plain numpy from the generated weight matrices and never call
the code under measurement.

Why each workload exists:

* ``analyze`` -- one large graph (n = 2100) through ``cluster``: dominated by
  a single dense eigensolve and by the edge-list parse.
* ``certify`` -- the only workload that runs ``regularity``, on both of its
  branches: four 180-vertex graphs whose pairs take the sampled branch
  (local search) and one 36-vertex graph whose pairs take the exact branch.
  Four sampled graphs instead of one larger one average out how much local
  search a seed happens to trigger.  Spectral and clustering work is small
  here, so a spectral change should not move it.
* ``sweep`` -- convergence sweeps: many small eigensolves, k-means restarts,
  vertex sampling and blow-ups, the opposite use of the spectral layer to
  ``analyze``.
"""
from __future__ import annotations

import csv
import io
import itertools
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

EIG_TOL = 1e-8
DUALITY_TOL = 1e-10
ALPHA_RTOL = 1e-9
BOUND_SLACK = 1e-9
BLOWUP_TOL = 1e-8


@dataclass(frozen=True)
class Graph:
    """One planted graph: its file name, block size, probabilities and role."""

    name: str
    block: int
    p_in: float
    p_out: float
    role: str


@dataclass(frozen=True)
class Command:
    """One CLI call; ``output`` names the file it writes with ``-o``, if any."""

    argv: tuple[str, ...]
    output: str | None = None


# Sizes per scale.  "full" is what the benchmark measures; "smoke" runs the
# same code path on tiny inputs so the harness can test itself in seconds.
SIZES = {
    "full": {
        "analyze": {"big": (700, 0.3, 0.05)},
        "certify": {"sampled": (60, 0.3, 0.05), "copies": 4, "exact": (12, 0.9, 0.1)},
        "sweep": {"base": (150, 0.3, 0.05), "blowup": (50, 0.3, 0.05),
                  "schedule": (50, 100, 200, 400), "spectrum_trials": 25,
                  "kvariance_trials": 10, "factors": (1, 2, 4, 8)},
    },
    "smoke": {
        "analyze": {"big": (40, 0.9, 0.05)},
        "certify": {"sampled": (15, 0.8, 0.1), "copies": 2, "exact": (6, 0.9, 0.2)},
        "sweep": {"base": (40, 0.6, 0.05), "blowup": (12, 0.8, 0.1),
                  "schedule": (20, 120), "spectrum_trials": 5,
                  "kvariance_trials": 2, "factors": (1, 2)},
    },
}

WORKLOADS = ("analyze", "certify", "sweep")
K = 3


def graph_seed(seed: int, index: int) -> int:
    """Generator seed of the index-th input of a workload seed."""
    return int(np.random.SeedSequence([int(seed), int(index)]).generate_state(1)[0])


def _model(block: int, p_in: float, p_out: float):
    from modspec.generators import BlockModel

    probs = np.full((K, K), p_out)
    np.fill_diagonal(probs, p_in)
    return BlockModel((block,) * K, probs)


def graphs_for(workload: str, scale: str) -> list[Graph]:
    size = SIZES[scale][workload]
    if workload == "analyze":
        return [Graph("analyze.tsv", *size["big"], role="cluster")]
    if workload == "certify":
        sampled = [Graph(f"sampled{i}.tsv", *size["sampled"], role="sampled")
                   for i in range(size["copies"])]
        return sampled + [Graph("exact.tsv", *size["exact"], role="exact")]
    return [Graph("base.tsv", *size["base"], role="base"),
            Graph("blowup.tsv", *size["blowup"], role="blowup")]


def generate_inputs(workload: str, seed: int, scale: str, directory: Path) -> dict:
    """Write every input graph as TSV; return the weights, planted blocks and sizes."""
    from modspec.generators import generalized_random_graph
    from modspec.graph import dump_edge_list

    inputs = {}
    for index, spec in enumerate(graphs_for(workload, scale)):
        g, blocks = generalized_random_graph(
            _model(spec.block, spec.p_in, spec.p_out), graph_seed(seed, index))
        text = dump_edge_list(g).encode("utf-8")
        (directory / spec.name).write_bytes(text)
        inputs[spec.name] = {
            "spec": spec,
            "weights": np.array(g.weights),
            "blocks": np.asarray(blocks),
            "n": g.n,
            "edges": int(np.count_nonzero(np.triu(g.weights, k=1))),
            "bytes": len(text),
        }
    return inputs


def commands_for(workload: str, seed: int, scale: str) -> list[Command]:
    s = str(seed)
    if workload == "analyze":
        return [Command(("cluster", "analyze.tsv", "--k", str(K), "--seed", s,
                         "--eps", "0.5", "--top", "8"))]
    if workload == "certify":
        return [Command(("regularity", g.name, "--k", str(K), "--seed", s))
                for g in graphs_for(workload, scale)]
    size = SIZES[scale]["sweep"]
    schedule = ",".join(str(m) for m in size["schedule"])
    factors = ",".join(str(t) for t in size["factors"])
    return [
        Command(("converge", "base.tsv", "--mode", "spectrum", "--schedule", schedule,
                 "--trials", str(size["spectrum_trials"]), "--j", "2", "--seed", s,
                 "-o", "spectrum.csv"), "spectrum.csv"),
        Command(("converge", "base.tsv", "--mode", "kvariance", "--schedule", schedule,
                 "--trials", str(size["kvariance_trials"]), "--k", str(K), "--seed", s,
                 "-o", "kvariance.csv"), "kvariance.csv"),
        Command(("converge", "blowup.tsv", "--mode", "blowup", "--schedule", factors,
                 "--k", str(K), "-o", "blowup.csv"), "blowup.csv"),
    ]


# ---------------------------------------------------------------- checks


def _vertex_index(n: int) -> dict[str, int]:
    """Index of each generated vertex label (``v0``.. zero-padded to a common width)."""
    width = max(1, len(str(max(n - 1, 0))))
    return {f"v{i:0{width}d}": i for i in range(n)}


def _label_agreement(labels_by_id: dict, blocks: np.ndarray) -> tuple[int, int]:
    """Vertices in their planted block under the best label permutation, and n."""
    n = blocks.size
    found = np.empty(n, dtype=np.intp)
    for label, i in _vertex_index(n).items():
        found[i] = labels_by_id[label]
    best = max(int(np.sum(np.asarray(perm)[found] == blocks))
               for perm in itertools.permutations(range(K)))
    return best, n


def _modularity_eigenvalues(w: np.ndarray) -> np.ndarray:
    """Descending eigenvalues of D^{-1/2} W D^{-1/2} - sqrt(d) sqrt(d)^T, d = deg / vol."""
    vol = w.sum()
    d = w.sum(axis=1) / vol
    inv = 1.0 / np.sqrt(d)
    m = inv[:, None] * (w / vol) * inv[None, :] - np.outer(np.sqrt(d), np.sqrt(d))
    return np.linalg.eigvalsh((m + m.T) / 2.0)[::-1]


def _check_cluster(report: dict, inp: dict, failures: list) -> None:
    spectrum = report["spectrum"]
    ref = _modularity_eigenvalues(inp["weights"])
    top = len(spectrum["lambdas"])
    ref_mus = ref[np.argsort(-np.abs(ref), kind="stable")]
    if np.abs(np.array(spectrum["lambdas"]) - ref[:top]).max() > EIG_TOL:
        failures.append("lambdas differ from the reference eigensolve")
    if np.abs(np.abs(spectrum["mus"]) - np.abs(ref_mus[:top])).max() > EIG_TOL:
        failures.append("mus differ from the reference eigensolve")
    if spectrum["structural_counts"].get("0.5") != K - 1:
        failures.append(f"structural count at eps 0.5 is "
                        f"{spectrum['structural_counts'].get('0.5')}, not {K - 1}")
    residual = report["clustering"]["duality_residual"]
    if not residual <= DUALITY_TOL:
        failures.append(f"duality residual {residual} above {DUALITY_TOL}")


def _check_regularity(report: dict, inp: dict, failures: list) -> tuple[float, dict]:
    """Verify every pair's alpha from its witness and the spectral upper bound."""
    w = inp["weights"] / inp["weights"].sum()
    deg = w.sum(axis=1)
    index = _vertex_index(inp["n"])
    labels = report["clustering"]["labels"]
    members = {a: np.array(sorted(index[v] for v, lab in labels.items() if lab == a))
               for a in range(K)}
    alpha_sum = 0.0
    methods = {"exact": 0, "sampled": 0, "skipped": 0}
    expected = inp["spec"].role
    for pair in report["regularity"]["pairs"]:
        methods[pair["method"]] += 1
        if pair["method"] != expected:
            failures.append(f"{inp['spec'].name} pair ({pair['a']},{pair['b']}) took "
                            f"the {pair['method']} branch, expected {expected}")
            continue
        a_idx, b_idx = members[pair["a"]], members[pair["b"]]
        vol_a, vol_b = deg[a_idx].sum(), deg[b_idx].sum()
        rho = w[np.ix_(a_idx, b_idx)].sum() / (vol_a * vol_b)
        x = np.array([index[v] for v in pair["witness_x"]], dtype=np.intp)
        y = np.array([index[v] for v in pair["witness_y"]], dtype=np.intp)
        disc = abs(w[np.ix_(x, y)].sum() - rho * deg[x].sum() * deg[y].sum())
        denom = vol_a if pair["a"] == pair["b"] else np.sqrt(vol_a * vol_b)
        alpha = pair["alpha"]
        if abs(disc / denom - alpha) > ALPHA_RTOL * max(abs(alpha), 1e-300):
            failures.append(f"{inp['spec'].name} pair ({pair['a']},{pair['b']}): witness "
                            f"gives {disc / denom!r}, report says {alpha!r}")
        block = (w[np.ix_(a_idx, b_idx)] - rho * np.outer(deg[a_idx], deg[b_idx]))
        scaled = block / np.sqrt(deg[a_idx])[:, None] / np.sqrt(deg[b_idx])[None, :]
        sigma = float(np.linalg.svd(scaled, compute_uv=False)[0])
        if alpha > sigma + BOUND_SLACK:
            failures.append(f"{inp['spec'].name} pair ({pair['a']},{pair['b']}): alpha "
                            f"{alpha!r} above the spectral bound {sigma!r}")
        alpha_sum += alpha
    return alpha_sum, methods


def _read_csv(data: bytes) -> list[dict]:
    return list(csv.DictReader(io.StringIO(data.decode("utf-8"))))


def _check_sweep(outputs: list[bytes], scale: str, failures: list) -> dict:
    size = SIZES[scale]["sweep"]
    spectrum, kvar, blow = (_read_csv(out) for out in outputs)
    m_count = len(size["schedule"])
    expected = (m_count * (size["spectrum_trials"] + 1),
                m_count * (size["kvariance_trials"] + 1), len(size["factors"]))
    got = (len(spectrum), len(kvar), len(blow))
    if got != expected:
        failures.append(f"CSV row counts {got}, expected {expected}")
    medians = {int(r["m"]): float(r["err_1"]) for r in spectrum if r["trial"] == "median"}
    lo, hi = min(size["schedule"]), max(size["schedule"])
    if not medians.get(hi, np.inf) < medians.get(lo, -np.inf):
        failures.append(f"median err_1 at m={hi} ({medians.get(hi)}) not below "
                        f"m={lo} ({medians.get(lo)})")
    worst = max((float(r["distance"]) for r in blow), default=np.inf)
    if not worst <= BLOWUP_TOL:
        failures.append(f"blow-up distance {worst} above {BLOWUP_TOL}")
    trials = [r for r in spectrum + kvar if r["trial"] != "median"]
    unflagged = sum(1 for r in trials if r["flagged"] == "0")
    return {"sampling.trials": len(trials),
            "sampling.coverage_ok_ratio": unflagged / len(trials) if trials else 0.0}


def check_outputs(workload: str, scale: str, inputs: dict, commands: list[Command],
                  outputs: list[bytes]) -> dict:
    """Check the outputs of one iteration; return failures and output-derived figures.

    ``outputs`` holds, per command, the bytes it wrote (stdout, or its ``-o``
    file).  The figures are result quality (``label_agreement``,
    ``alpha_sum``) and counts read from the reports (``regularity.pairs_*``,
    ``sampling.trials``, ``sampling.coverage_ok_ratio``).
    """
    failures: list[str] = []
    # every count exists on every workload; it is 0 where the workload has nothing to count
    figures: dict = {"regularity.pairs_exact": 0, "regularity.pairs_sampled": 0,
                     "regularity.pairs_skipped": 0, "sampling.trials": 0,
                     "sampling.coverage_ok_ratio": 0.0}
    agree = total = 0
    alpha_sum = 0.0
    pairs = {"exact": 0, "sampled": 0, "skipped": 0}
    try:
        if workload == "sweep":
            figures.update(_check_sweep(outputs, scale, failures))
        else:
            for cmd, out in zip(commands, outputs):
                inp = inputs[cmd.argv[1]]
                report = json.loads(out)
                if workload == "analyze":
                    _check_cluster(report, inp, failures)
                else:
                    graph_sum, methods = _check_regularity(report, inp, failures)
                    alpha_sum += graph_sum
                    for key, count in methods.items():
                        pairs[key] += count
                got, n = _label_agreement(report["clustering"]["labels"], inp["blocks"])
                agree += got
                total += n
    except (KeyError, ValueError, TypeError, IndexError) as exc:
        failures.append(f"malformed output: {type(exc).__name__}: {exc}")
    if total:
        figures["label_agreement"] = agree / total
    if sum(pairs.values()):
        figures["alpha_sum"] = alpha_sum
        figures.update({f"regularity.pairs_{key}": count for key, count in pairs.items()})
    return {"failures": failures, "figures": figures}
