"""Command line front end: analysis commands, generators, experiment drivers.

The analyses spectrum, cluster and regularity run one pipeline and emit
JSON; each report is the previous command's report plus one block, with keys
in the order input, spectrum, clustering, regularity.  Sweep experiments emit
CSV.  All numbers are printed with 17 significant digits so reports parse
back to the exact float values and reruns with identical flags are
byte-identical.  A command runs numpy's OpenBLAS pool on one thread and
restores the caller's count when it returns.  Exit codes: 0 success,
2 usage or input error, 3 internal numerical failure.
"""
from __future__ import annotations

import argparse
import csv
import json
import sys

import numpy as np

from .errors import (
    EigenFailure,
    InternalNumericalError,
    ModspecError,
    Unsolved,
)
from .graph import WeightedGraph, dump_edge_list, load_edge_list
from .openblas import one_thread
from .spectral import _check_eps, spectral_decomposition, spectral_gap, structural_count
from .clustering import representatives, weighted_kmeans
from .quality import quality_report
from .regularity import regularity_certificate
from .generators import _CLASSICAL, BlockModel, _size_names, classical, generalized_random_graph
from .sampling import (
    dominant_vertex_ratio,
    k_variance_convergence,
    spectral_convergence,
    subspace_convergence,
)

DUALITY_TOL = 1e-10


def _fmt_number(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    xf = float(x)
    if not np.isfinite(xf):
        raise InternalNumericalError("non-finite value in JSON report")
    return format(xf, ".17g")


def render_json(value, indent: int = 0) -> str:
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(value, dict):
        if not value:
            return "{}"
        parts = [f'{inner}{json.dumps(str(k))}: {render_json(v, indent + 1)}'
                 for k, v in value.items()]
        return "{\n" + ",\n".join(parts) + "\n" + pad + "}"
    if isinstance(value, (list, tuple)):
        items = list(value)
        if not items:
            return "[]"
        if all(not isinstance(v, (dict, list, tuple)) for v in items):
            return "[" + ", ".join(_render_scalar(v) for v in items) + "]"
        parts = [f"{inner}{render_json(v, indent + 1)}" for v in items]
        return "[\n" + ",\n".join(parts) + "\n" + pad + "]"
    return _render_scalar(value)


def _render_scalar(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, str):
        return json.dumps(value)
    return _fmt_number(value)


def _load_graph(path: str, use_largest: bool):
    with open(path, "r", encoding="utf-8") as fh:
        raw = load_edge_list(fh.read())
    return raw, raw.largest_component() if use_largest else raw


def _input_block(path: str, raw: WeightedGraph, analyzed: WeightedGraph,
                 use_largest: bool) -> dict:
    return {
        "path": path,
        "n": raw.n,
        "total_volume": float(raw.total_volume),
        "connected": raw.is_connected(),
        "largest_component_used": use_largest,
        "analyzed_n": analyzed.n,
        "dominant_vertex_ratio": dominant_vertex_ratio(analyzed),
    }


def _spectrum_block(dec, eps_list, top) -> dict:
    counts = {}
    for eps in eps_list or []:
        counts[repr(float(eps))] = structural_count(dec, float(eps))
    return {
        "lambdas": [float(v) for v in dec.top_lambdas(top)],
        "mus": [float(v) for v in dec.top_mus(top)],
        "spectral_gap": spectral_gap(dec),
        "structural_counts": counts,
    }


def _decompose(g: WeightedGraph, args, k: int):
    """The decomposition a report with k clusters reads: k - 1 vectors and,
    with --top, only the first max(top, k) values of each order (and the
    counts at every --eps), so a large graph may be solved sparsely; without
    --top, every value."""
    values = None if args.top is None else max(args.top, k)
    eps = min(args.eps) if args.eps else None
    return spectral_decomposition(g, leading=max(k - 1, 0), values=values, eps=eps)


def _cluster_blocks(g: WeightedGraph, dec, k: int, seed: int, restarts: int):
    # a bad --restarts is reported before a k outside [1, n], which
    # representatives raises before weighted_kmeans checks restarts
    if restarts < 1:
        raise ValueError(f"restarts={restarts} must be >= 1")
    part, value = weighted_kmeans(representatives(dec, g, k), k, restarts=restarts, seed=seed)
    report = quality_report(g, dec, part)
    if report.duality_residual > DUALITY_TOL:
        raise InternalNumericalError(
            f"duality residual {report.duality_residual:.3e} exceeds {DUALITY_TOL}")
    labels = {g.vertex_ids[i]: int(part.labels[i]) for i in range(g.n)}
    # the quality report's fields in declaration order; its k keeps the first slot
    block = {"k": k, "seed": seed, "restarts": restarts, "labels": labels,
             "k_variance": float(value), **vars(report),
             "duality_residual": report.duality_residual}
    return part, block


def _regularity_block(g: WeightedGraph, report) -> dict:
    """Every field of the report and of its pairs, in declaration order, with
    the witness index arrays given as vertex labels."""
    def labels(witness):
        return None if witness is None else [g.vertex_ids[i] for i in witness]

    pairs = [{**vars(pair), "witness_x": labels(pair.witness_x),
              "witness_y": labels(pair.witness_y)} for pair in report.pairs]
    return {**vars(report), "pairs": pairs}


def cmd_analyze(args) -> int:
    """spectrum, cluster or regularity: load, decompose, then the blocks."""
    raw, g = _load_graph(args.file, args.largest_component)
    if args.command == "regularity":
        g = g.normalize_volume()
    dec = _decompose(g, args, args.k)
    report = {
        "input": _input_block(args.file, raw, g, args.largest_component),
        "spectrum": _spectrum_block(dec, args.eps, args.top),
    }
    if args.command != "spectrum":
        part, report["clustering"] = _cluster_blocks(g, dec, args.k, args.seed, args.restarts)
    if args.command == "regularity":
        cert = regularity_certificate(g, dec, part, exact_limit=args.exact_max,
                                      samples=args.samples, seed=args.seed)
        report["regularity"] = _regularity_block(g, cert)
    print(render_json(report))
    return 0


def _parse_sizes(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"bad sizes {text!r}") from None


def _parse_probs(text: str) -> np.ndarray:
    try:
        rows = [[float(x) for x in row.split(",")] for row in text.split(";")]
    except ValueError:
        raise ValueError(f"bad probability matrix {text!r}") from None
    lengths = {len(r) for r in rows}
    if len(lengths) != 1:
        raise ValueError("probability matrix rows differ in length")
    return np.array(rows)


def cmd_generate(args) -> int:
    if args.kind == "block":
        if args.sizes is None or args.p is None or args.seed is None:
            raise ValueError("block generation needs --sizes, --p, and --seed")
        model = BlockModel(_parse_sizes(args.sizes), _parse_probs(args.p))
        g, _ = generalized_random_graph(model, args.seed)
    else:
        if args.name is None:
            raise ValueError("classical generation needs --name")
        values = []
        for attr in _size_names(args.name):
            val = getattr(args, attr)
            if val is None:
                raise ValueError(f"classical {args.name} needs --{attr}")
            values.append(val)
        g = classical(args.name, *values)
    text = dump_edge_list(g)
    with open(args.output, "w", encoding="utf-8") as fh:
        fh.write(text)
    print(f"n={g.n} edges={g.csr.nnz // 2} -> {args.output}", file=sys.stderr)
    return 0


def _csv_cell(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, bool) or isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


def cmd_converge(args) -> int:
    _, g = _load_graph(args.file, False)
    schedule = _parse_sizes(args.schedule)
    if args.mode != "blowup" and args.seed is None:
        raise ValueError(f"{args.mode} mode needs --seed")
    if args.mode == "spectrum":
        table = spectral_convergence(g, schedule, args.trials, args.j, args.seed)
    elif args.mode == "kvariance":
        table = k_variance_convergence(g, schedule, args.trials, args.k, args.seed,
                                       restarts=args.restarts)
    else:
        table = subspace_convergence(g, schedule, args.k)
    with open(args.output, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(table.columns)
        for row in list(table.rows) + list(table.medians):
            writer.writerow([_csv_cell(row[c]) for c in table.columns])
    total = len(table.rows) + len(table.medians)
    print(f"mode={table.mode} rows={total} -> {args.output}", file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="modspec",
        description="Spectral clustering, regularity certificates, and sampling experiments "
                    "for edge-weighted graphs.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_analysis_flags(p):
        p.add_argument("file", help="TSV edge list")
        p.add_argument("--eps", action="append", type=float, default=[],
                       help="report the count of eigenvalues above this magnitude (repeatable)")
        p.add_argument("--top", type=int, default=None,
                       help="emit only the first N eigenvalues per ordering")
        p.add_argument("--largest-component", action="store_true",
                       help="restrict analysis to the largest connected component")

    p_spec = sub.add_parser("spectrum", help="eigenvalues of the normalized modularity matrix")
    add_analysis_flags(p_spec)
    p_spec.set_defaults(func=cmd_analyze, k=1)

    p_clu = sub.add_parser("cluster", help="spectral clustering with quality functionals")
    add_analysis_flags(p_clu)
    p_clu.add_argument("--k", type=int, required=True, help="cluster count")
    p_clu.add_argument("--seed", type=int, required=True, help="k-means seed")
    p_clu.add_argument("--restarts", type=int, default=20)
    p_clu.set_defaults(func=cmd_analyze)

    p_reg = sub.add_parser("regularity", help="volume-regularity certificate per cluster pair")
    add_analysis_flags(p_reg)
    p_reg.add_argument("--k", type=int, required=True)
    p_reg.add_argument("--seed", type=int, required=True)
    p_reg.add_argument("--restarts", type=int, default=20)
    p_reg.add_argument("--exact-max", type=int, default=24,
                       help="enumerate a pair exactly when |A|+|B| is at most this")
    p_reg.add_argument("--samples", type=int, default=2000,
                       help="sampled subset pairs per large pair; 0 skips them")
    p_reg.set_defaults(func=cmd_analyze)

    p_gen = sub.add_parser("generate", help="write generated graphs as TSV files")
    p_gen.add_argument("kind", choices=["block", "classical"])
    p_gen.add_argument("--sizes", help="comma-separated block sizes")
    p_gen.add_argument("--p", help="block probability matrix, rows semicolon-separated")
    p_gen.add_argument("--seed", type=int, default=None)
    p_gen.add_argument("--name", choices=list(_CLASSICAL))
    p_gen.add_argument("--n", type=int, default=None)
    p_gen.add_argument("--a", type=int, default=None)
    p_gen.add_argument("--b", type=int, default=None)
    p_gen.add_argument("--m", type=int, default=None)
    p_gen.add_argument("-o", "--output", required=True)
    p_gen.set_defaults(func=cmd_generate)

    p_con = sub.add_parser("converge", help="sampling and blow-up convergence sweeps")
    p_con.add_argument("file")
    p_con.add_argument("--mode", choices=["spectrum", "kvariance", "blowup"], required=True)
    p_con.add_argument("--schedule", required=True,
                       help="comma-separated sample sizes (or blow-up factors)")
    p_con.add_argument("--trials", type=int, default=50)
    p_con.add_argument("--j", type=int, default=1, help="eigenvalues tracked (spectrum mode)")
    p_con.add_argument("--k", type=int, default=2, help="cluster count (kvariance, blowup)")
    p_con.add_argument("--seed", type=int, default=None)
    p_con.add_argument("--restarts", type=int, default=20)
    p_con.add_argument("-o", "--output", required=True)
    p_con.set_defaults(func=cmd_converge)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # before any file is read or any graph solved
        for flag in ("top", "seed"):
            value = getattr(args, flag, None)
            if value is not None and value < 0:
                raise ValueError(f"{flag}={value} must be >= 0")
        for eps in getattr(args, "eps", []):
            _check_eps(eps)
        # every numpy product of a command is small, and a second thread
        # left spinning after one slows the Python code that follows
        with one_thread("numpy"):
            return args.func(args)
    except (EigenFailure, InternalNumericalError, Unsolved) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except (ModspecError, ValueError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
