"""Small real graphs that networkx ships: karate club, Les Miserables,
Florentine families and Davis southern women.

Each graph is fixed, so none can be chosen to fit a result.  Karate and Les
Miserables carry integer weights above 1; the other two are 0/1 graphs.
Karate's labels are short numbers, so its dump is a plain edge list; the
others have labels longer than 8 bytes or holding spaces, so their dumps go
to the line parser.
"""
import json
from pathlib import Path

import numpy as np
import pytest

from modspec import graph
from modspec.cli import main
from modspec.graph import WeightedGraph, dump_edge_list, load_edge_list
from modspec.regularity import ENUM_LIMIT
from modspec.spectral import spectral_decomposition
from oracles import cut_norm_exact_bilinear

nx = pytest.importorskip("networkx")

# name: (networkx graph, whether its dump is a plain edge list, whether its
# weights are probabilities)
GRAPHS = {
    "karate": (nx.karate_club_graph(), True, False),
    "les_miserables": (nx.les_miserables_graph(), False, False),
    "florentine": (nx.florentine_families_graph(), False, True),
    "davis": (nx.davis_southern_women_graph(), False, True),
}


def weighted(nxg):
    """The graph with its own labels, in the sorted order a parse gives."""
    nodes = sorted(nxg, key=str)
    return WeightedGraph(nx.to_scipy_sparse_array(nxg, nodelist=nodes, weight="weight"),
                         tuple(map(str, nodes))), nodes


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture(params=list(GRAPHS))
def real(request, tmp_path):
    nxg, plain, probabilities = GRAPHS[request.param]
    g, nodes = weighted(nxg)
    path = tmp_path / f"{request.param}.tsv"
    path.write_text(dump_edge_list(g), encoding="utf-8")
    return nxg, nodes, g, str(path), plain, probabilities


def test_dump_parses_back_on_the_expected_path(real):
    _, _, g, path, plain, _ = real
    text = Path(path).read_text(encoding="utf-8")
    assert (graph._load_plain(text) is not None) == plain
    back = load_edge_list(text)
    assert back.vertex_ids == g.vertex_ids
    for got, want in zip((back.csr.data, back.csr.indices, back.csr.indptr),
                         (g.csr.data, g.csr.indices, g.csr.indptr)):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_spectrum_is_one_minus_the_normalized_laplacian_spectrum(real):
    nxg, nodes, g, _, _, _ = real
    lap = nx.normalized_laplacian_matrix(nxg, nodelist=nodes, weight="weight").toarray()
    # ascending, so q's eigenvalue 1 of N comes first; it is 0 in M
    oracle = 1.0 - np.linalg.eigvalsh(lap)
    oracle[0] = 0.0
    lambdas = spectral_decomposition(g).top_lambdas()
    assert np.abs(lambdas - np.sort(oracle)[::-1]).max() <= 1e-10


def test_cluster_and_regularity_reports(real, capsys):
    _, _, _, path, _, _ = real
    code, out, _ = run(capsys, "cluster", path, "--k", "3", "--seed", "1")
    assert code == 0
    assert json.loads(out)["clustering"]["duality_residual"] <= 1e-10
    code, out, _ = run(capsys, "regularity", path, "--k", "3", "--seed", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["clustering"]["duality_residual"] <= 1e-10
    reg = doc["regularity"]
    for pair in reg["pairs"]:
        assert pair["alpha"] <= reg["bound"], (pair["a"], pair["b"])
    # every pair that fits the enumeration is exact, and its alpha is the
    # bilinear enumeration's over the centered block of the normalized graph
    g = load_edge_list(Path(path).read_text(encoding="utf-8")).normalize_volume()
    labels = np.array([doc["clustering"]["labels"][v] for v in g.vertex_ids])
    w, d = g.weights, g.degrees
    for pair in reg["pairs"]:
        ia, ib = np.flatnonzero(labels == pair["a"]), np.flatnonzero(labels == pair["b"])
        assert (pair["method"] == "exact") == (ia.size + ib.size <= ENUM_LIMIT)
        if pair["method"] != "exact":
            continue
        vol_a, vol_b = d[ia].sum(), d[ib].sum()
        rho = w[np.ix_(ia, ib)].sum() / (vol_a * vol_b)
        block = w[np.ix_(ia, ib)] - rho * np.outer(d[ia], d[ib])
        denom = vol_a if pair["a"] == pair["b"] else np.sqrt(vol_a * vol_b)
        assert abs(pair["alpha"] - cut_norm_exact_bilinear(block) / denom) <= 1e-12


def test_sampling_needs_probabilities(real, tmp_path, capsys):
    _, _, _, path, _, probabilities = real
    code, out, err = run(capsys, "converge", path, "--mode", "spectrum", "--schedule", "4,8",
                         "--trials", "3", "--j", "1", "--seed", "1",
                         "-o", str(tmp_path / "conv.csv"))
    if probabilities:
        assert code == 0
    else:
        assert (code, out) == (2, "")
        assert "WeightsNotProbabilities" in err
