import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from modspec import (
    BadK,
    BadSize,
    BlockModel,
    Disconnected,
    NoGap,
    WeightedGraph,
    WeightsNotProbabilities,
    derive_trial_seed,
    dominant_vertex_ratio,
    expected_block_graph,
    generalized_random_graph,
    k_variance_convergence,
    sample_subgraph,
    spectral_convergence,
    subspace_convergence,
)
from modspec import sampling, spectral
from modspec.generators import complete_graph, path_graph, two_cliques_bridge


def planted_two_block(n_half=30, seed=0):
    model = BlockModel((n_half, n_half), np.array([[0.5, 0.05], [0.05, 0.5]]))
    g, _ = generalized_random_graph(model, seed)
    return g


def test_dominant_vertex_ratio():
    assert dominant_vertex_ratio(complete_graph(5)) == pytest.approx(1.0)
    # path end vertices have half the interior degree
    assert dominant_vertex_ratio(path_graph(4)) == pytest.approx(2.0 * 4 / 6.0)


def test_derive_trial_seed_distinct_and_stable():
    s1 = derive_trial_seed(7, 50, 0)
    assert s1 == derive_trial_seed(7, 50, 0)
    assert s1 != derive_trial_seed(7, 50, 1)
    assert s1 != derive_trial_seed(7, 100, 0)
    assert s1 != derive_trial_seed(8, 50, 0)


def test_sample_subgraph_shape_and_determinism():
    g = planted_two_block()
    g1, slots1 = sample_subgraph(g, 20, 3)
    g2, slots2 = sample_subgraph(g, 20, 3)
    _, slots3 = sample_subgraph(g, 20, 4)
    assert slots1.shape == (20,)
    assert g1.n == 20
    assert np.array_equal(slots1, slots2)
    assert np.array_equal(g1.weights, g2.weights)
    assert not np.array_equal(slots1, slots3)
    assert set(np.unique(g1.weights)) <= {0.0, 1.0}
    # repeated slots of one vertex never link to themselves
    vals, counts = np.unique(slots1, return_counts=True)
    for v in vals[counts > 1]:
        pos = np.flatnonzero(slots1 == v)
        assert g1.weights[np.ix_(pos, pos)].sum() == 0.0


def test_sample_subgraph_slot_distribution():
    # slot frequencies track degree proportions
    g = two_cliques_bridge(4)
    _, slots = sample_subgraph(g, 4000, 11)
    freq = np.bincount(slots, minlength=g.n) / 4000.0
    expect = g.degrees / g.total_volume
    assert np.abs(freq - expect).max() < 0.03


def test_sample_subgraph_validation():
    g = planted_two_block()
    with pytest.raises(ValueError):
        sample_subgraph(g, -1, 0)
    heavy = WeightedGraph(np.array([[0.0, 2.0], [2.0, 0.0]]))
    with pytest.raises(WeightsNotProbabilities):
        sample_subgraph(heavy, 2, 0)
    assert sample_subgraph(g, 0, 0)[0].n == 0


def test_spectral_convergence_table_shape():
    g = planted_two_block()
    tab = spectral_convergence(g, (10, 20), 4, 2, seed=5)
    assert tab.mode == "spectrum"
    assert tab.columns == ("m", "trial", "mu_1", "mu_2", "err_1", "err_2",
                           "coverage", "flagged")
    assert len(tab.rows) == 8
    assert len(tab.medians) == 2
    assert tab.medians[0]["trial"] == "median"
    assert tab.reference["n"] == 60
    assert len(tab.reference["mus"]) == 2
    for row in tab.rows:
        assert 0.0 <= row["coverage"] <= 1.0
        assert row["flagged"] in (0, 1)
        if not math.isnan(row["err_1"]):
            assert row["err_1"] >= 0.0


@pytest.mark.parametrize("sweep", [
    lambda g, schedule: spectral_convergence(g, schedule, 3, 1, seed=2),
    lambda g, schedule: k_variance_convergence(g, schedule, 3, 2, seed=2, restarts=5),
], ids=["spectrum", "kvariance"])
def test_spectral_convergence_deterministic_and_order_free(sweep):
    g = planted_two_block()
    t1 = sweep(g, (10, 15))
    t2 = sweep(g, (10, 15))
    assert t1.rows == t2.rows
    # a trial's row depends only on (seed, m, trial), not on the schedule
    t3 = sweep(g, (15,))
    assert [r for r in t1.rows if r["m"] == 15] == list(t3.rows)


def test_sweeps_check_the_graph_once_and_draw_what_sample_subgraph_draws(monkeypatch):
    g = planted_two_block()
    calls = []
    bound = WeightedGraph.__dict__["_max_weight"]
    computed = bound.func

    def counting(graph):
        calls.append(graph)
        return computed(graph)

    monkeypatch.setattr(bound, "func", counting)
    tab = spectral_convergence(g, (10, 20), 3, 1, seed=4)
    k_variance_convergence(g, (10, 20), 3, 2, seed=4, restarts=2)
    # one scan of W per graph, across both sweeps, and none of the draws
    assert calls == [g]
    for row in tab.rows:
        draw, _ = sample_subgraph(g, row["m"], derive_trial_seed(4, row["m"], row["trial"]))
        assert row["coverage"] == draw.largest_component().n / row["m"]
    heavy = WeightedGraph(np.array([[0.0, 2.0, 2.0], [2.0, 0.0, 2.0], [2.0, 2.0, 0.0]]))
    with pytest.raises(WeightsNotProbabilities):
        spectral_convergence(heavy, (2, 3), 1, 1, seed=0)
    with pytest.raises(WeightsNotProbabilities):
        k_variance_convergence(heavy, (2, 3), 1, 2, seed=0, restarts=1)


@pytest.mark.parametrize("mode", ["spectrum", "kvariance"])
def test_both_sweeps_draw_each_row_through_sample_subgraph(monkeypatch, mode):
    g = planted_two_block()
    draws = []
    draw = sampling.sample_subgraph

    def recording(graph, m, seed):
        draws.append((graph, m, seed))
        return draw(graph, m, seed)

    monkeypatch.setattr(sampling, "sample_subgraph", recording)
    if mode == "spectrum":
        tab = spectral_convergence(g, (10, 20), 3, 1, seed=4)
    else:
        tab = k_variance_convergence(g, (10, 20), 3, 2, seed=4, restarts=2)
    assert draws == [(g, row["m"], derive_trial_seed(4, row["m"], row["trial"]))
                     for row in tab.rows]


def test_spectral_convergence_validation():
    g = planted_two_block()
    with pytest.raises(BadSize):
        spectral_convergence(g, (), 3, 1, seed=0)
    with pytest.raises(BadSize):
        spectral_convergence(g, (1, 5), 3, 1, seed=0)
    with pytest.raises(BadSize):
        spectral_convergence(g, (10, 10), 3, 1, seed=0)
    with pytest.raises(BadSize):
        spectral_convergence(g, (10, 100), 3, 1, seed=0)
    with pytest.raises(BadSize):
        spectral_convergence(g, (10,), 0, 1, seed=0)
    with pytest.raises(BadSize):
        spectral_convergence(g, (10,), 3, 10, seed=0)
    w = np.zeros((4, 4))
    w[0, 1] = w[1, 0] = 1.0
    w[2, 3] = w[3, 2] = 1.0
    with pytest.raises(Disconnected):
        spectral_convergence(WeightedGraph(w), (2,), 1, 1, seed=0)


def test_subspace_convergence_first_distance_zero():
    model = BlockModel((4, 4, 4), np.array([[0.6, 0.1, 0.1],
                                            [0.1, 0.6, 0.1],
                                            [0.1, 0.1, 0.6]]))
    g = expected_block_graph(model)
    tab = subspace_convergence(g, (1, 2, 4), 3)
    assert tab.mode == "blowup"
    assert [r["t"] for r in tab.rows] == [1, 2, 4]
    assert tab.rows[0]["distance"] == 0.0
    # the blow-up construction reproduces the base subspace exactly
    assert all(r["distance"] <= 1e-10 for r in tab.rows)
    assert tab.medians == ()
    assert tab.reference["gap"] > 0


def test_subspace_convergence_distance_is_the_sine_of_the_tilt(monkeypatch):
    # tilting the first blown-up eigenvector by theta toward the next one
    # leaves principal angles (theta, 0) to the base subspace, so the
    # projector distance is sin(theta) at every factor above 1
    model = BlockModel((4, 4, 4), np.array([[0.6, 0.1, 0.1],
                                            [0.1, 0.6, 0.1],
                                            [0.1, 0.1, 0.6]]))
    g = expected_block_graph(model)
    theta = 0.5
    real = sampling.spectral_decomposition

    def tilted(gt, leading=None, values=None):
        if gt.n == g.n:
            return real(gt, leading=leading, values=values)
        v = real(gt, leading=leading + 1, values=values).vectors
        vecs = v[:, :leading].copy()
        vecs[:, 0] = np.cos(theta) * v[:, 0] + np.sin(theta) * v[:, leading]
        return SimpleNamespace(n=gt.n, vectors=vecs)

    monkeypatch.setattr(sampling, "spectral_decomposition", tilted)
    tab = subspace_convergence(g, (1, 2, 4), 3)
    assert tab.rows[0]["distance"] == 0.0
    for row in tab.rows[1:]:
        assert row["distance"] == pytest.approx(np.sin(theta), abs=1e-12)


def test_subspace_convergence_validation():
    g = two_cliques_bridge(4)
    with pytest.raises(BadSize):
        subspace_convergence(g, (2, 4), 2)
    with pytest.raises(BadSize):
        subspace_convergence(g, (1, 3, 2), 2)
    with pytest.raises(BadK):
        subspace_convergence(g, (1, 2), 1)
    # complete graphs have a flat nonzero spectrum: no usable gap at k=2
    with pytest.raises(NoGap):
        subspace_convergence(complete_graph(6), (1, 2), 2)


def test_k_variance_convergence_table():
    g = planted_two_block()
    tab = k_variance_convergence(g, (12, 24), 3, 2, seed=6, restarts=5)
    assert tab.mode == "kvariance"
    assert tab.columns == ("m", "trial", "k_variance", "error", "coverage", "flagged")
    assert len(tab.rows) == 6
    assert len(tab.medians) == 2
    assert tab.reference["k_variance"] >= 0.0
    t2 = k_variance_convergence(g, (12, 24), 3, 2, seed=6, restarts=5)
    assert tab.rows == t2.rows
    with pytest.raises(BadK):
        k_variance_convergence(g, (12, 24), 3, 13, seed=6)
    with pytest.raises(BadK):
        k_variance_convergence(g, (12, 24), 3, 1, seed=6)


def test_k_variance_convergence_records_unmeasurable_draws_as_nan():
    # a path's sampled components often hold fewer than k vertices: those
    # draws record NaN, and the median skips them
    tab = k_variance_convergence(path_graph(12), (3, 6), 4, 3, seed=1)
    cols = ("k_variance", "error")
    small = [r for r in tab.rows if r["m"] == 3]
    assert len(small) == 4 and all(math.isnan(r[c]) for r in small for c in cols)
    med3, med6 = tab.medians
    assert all(math.isnan(med3[c]) for c in cols) and med3["flagged"] == 4
    measured = [r for r in tab.rows if r["m"] == 6 and not math.isnan(r["k_variance"])]
    assert len(measured) == 2
    for c in cols:
        assert med6[c] == float(np.median([r[c] for r in measured]))


@pytest.mark.parametrize("mode", ["spectrum", "kvariance"])
def test_converge_references_are_bounded_requests(monkeypatch, mode):
    # with every graph large enough for eigsh, the full graph's reference
    # and every sample sparse enough for it are served by it, as each reads
    # only j values or k - 1 vectors
    model = BlockModel((40, 40, 40), np.full((3, 3), 0.03) + np.diag([0.27] * 3))
    g, _ = generalized_random_graph(model, 1)
    if mode == "spectrum":
        def run():
            return spectral_convergence(g, (30, 60), 2, 2, seed=1)
    else:
        def run():
            return k_variance_convergence(g, (30, 60), 2, 3, seed=1, restarts=5)
    dense = run()
    sizes = []
    real = spectral.eigsh

    def recording(op, **kwargs):
        sizes.append(op.shape[0])
        return real(op, **kwargs)

    monkeypatch.setattr(spectral, "SPARSE_MIN_N", 0)
    monkeypatch.setattr(spectral, "eigsh", recording)
    bounded = run()
    draws = [sample_subgraph(g, m, derive_trial_seed(1, m, trial))[0].largest_component()
             for m in (30, 60) for trial in range(2)]
    sparse = {sub.n - 1 for sub in draws if sub.csr.nnz <= spectral.SPARSE_MAX_FILL * sub.n ** 2}
    assert len(sparse) >= 2 and set(sizes) == {g.n - 1} | sparse
    assert bounded.reference.keys() == dense.reference.keys()
    for key, value in dense.reference.items():
        assert np.allclose(bounded.reference[key], value, rtol=0.0, atol=1e-12)
    for got, want in zip(bounded.rows + bounded.medians, dense.rows + dense.medians,
                         strict=True):
        assert got.keys() == want.keys()
        for key, value in want.items():
            if key != "trial":
                assert got[key] == pytest.approx(value, rel=0.0, abs=1e-12, nan_ok=True)


def test_blow_up_rows_are_bounded_requests(monkeypatch):
    # with every graph large enough for eigsh, each blown-up graph is served
    # by it, as its row reads only k - 1 vectors, and never densely
    model = BlockModel((40, 40, 40), np.full((3, 3), 0.03) + np.diag([0.27] * 3))
    g, _ = generalized_random_graph(model, 1)
    factors = (1, 2, 4, 8)
    dense = subspace_convergence(g, factors, 3)
    sizes, blocks = [], []
    real_eigsh, real_block = spectral.eigsh, spectral._block

    def recording_eigsh(op, **kwargs):
        sizes.append(op.shape[0])
        return real_eigsh(op, **kwargs)

    def recording_block(graph, size):
        blocks.append(graph.n)
        return real_block(graph, size)

    monkeypatch.setattr(spectral, "SPARSE_MIN_N", 0)
    monkeypatch.setattr(spectral, "eigsh", recording_eigsh)
    monkeypatch.setattr(spectral, "_block", recording_block)
    bounded = subspace_convergence(g, factors, 3)
    assert {g.n * t - 1 for t in factors[1:]} <= set(sizes)
    assert not set(blocks) & {g.n * t for t in factors[1:]}
    assert bounded.reference["gap"] == pytest.approx(dense.reference["gap"], rel=0.0,
                                                     abs=1e-12)
    for got, want in zip(bounded.rows, dense.rows, strict=True):
        assert got["t"] == want["t"]
        assert got["distance"] == pytest.approx(want["distance"], rel=0.0, abs=1e-12)
        assert got["distance"] <= 1e-10


def test_blow_up_sweep_peaks_below_one_dense_block():
    # the benchmark's blow-up: a planted 50x3 base up to t = 8, n = 1200,
    # where a dense solve of the blow-up allocates a 1199^2 block of doubles
    model = BlockModel((50, 50, 50), np.full((3, 3), 0.05) + np.diag([0.25] * 3))
    g, _ = generalized_random_graph(model, 2)
    tracemalloc.start()
    try:
        tab = subspace_convergence(g, (1, 2, 4, 8), 3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert all(r["distance"] <= 1e-10 for r in tab.rows)
    block = 8 * (8 * g.n - 1) ** 2
    assert peak < block, f"peak {peak / 1e6:.1f} MB against a {block / 1e6:.1f} MB block"


def test_coverage_flagging_on_sparse_graph():
    # a long path sampled briefly fragments badly, so rows get flagged
    g = path_graph(60)
    tab = spectral_convergence(g, (6,), 10, 1, seed=0)
    flags = [r["flagged"] for r in tab.rows]
    assert any(flags)
    assert tab.medians[0]["flagged"] == sum(flags)
