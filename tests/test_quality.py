import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modspec import (
    BadK,
    Partition,
    WeightedGraph,
    ZeroVolume,
    modularity,
    normalized_cut_value,
    normalized_partition_vectors,
    quality_report,
    relaxation_bounds,
    representatives,
    spectral_decomposition,
)
from modspec.generators import complete_graph, two_cliques_bridge
from oracles import _label_arrays, exhaustive_min_k_variance


def random_connected(rng, n):
    w = rng.random((n, n))
    w = np.triu(w, k=1)
    return WeightedGraph(w + w.T)


def random_full_partition(rng, n, k):
    while True:
        labels = rng.integers(0, k, size=n)
        if np.unique(labels).size == k:
            return labels


def test_modularity_two_cliques():
    g = two_cliques_bridge(5)
    p = Partition([0] * 5 + [1] * 5, 2)
    # each clique contributes 20/21 internal weight ratio
    assert modularity(g, p) == pytest.approx(40.0 / 21.0 - 1.0)
    with pytest.raises(ZeroVolume):
        modularity(g, Partition([0] * 10, 2))


def test_modularity_trivial_partition_is_zero():
    rng = np.random.default_rng(20)
    g = random_connected(rng, 6)
    p = Partition(np.zeros(6, dtype=int), 1)
    assert modularity(g, p) == pytest.approx(0.0, abs=1e-12)
    assert normalized_cut_value(g, p) == pytest.approx(0.0, abs=1e-12)


def test_singleton_partition_extremes():
    g = complete_graph(4)
    p = Partition(np.arange(4), 4)
    # no internal weight at all
    assert modularity(g, p) == pytest.approx(-1.0)
    assert normalized_cut_value(g, p) == pytest.approx(4.0)


def test_duality_identity_random():
    rng = np.random.default_rng(21)
    for _ in range(30):
        n = int(rng.integers(4, 12))
        g = random_connected(rng, n)
        k = int(rng.integers(2, 5))
        labels = random_full_partition(rng, n, min(k, n))
        p = Partition(labels, min(k, n))
        mv = modularity(g, p)
        qv = normalized_cut_value(g, p)
        assert abs(mv + qv - (p.k - 1)) <= 1e-10


def dense_normalized_cut(g, p):
    """The trace form over the dense matrix D^{-1/2} W D^{-1/2}, as an oracle."""
    y = np.sqrt(g.degrees)[:, None] * normalized_partition_vectors(g, p)
    inv = 1.0 / np.sqrt(g.degrees)
    nmat = inv[:, None] * g.weights * inv[None, :]
    return float(np.trace(y.T @ y) - np.trace(y.T @ nmat @ y))


@st.composite
def labeled_connected_graphs(draw):
    """A connected weighted graph (random weights on a path backbone) and a
    labeling into k clusters, every one of them nonempty."""
    n = draw(st.integers(2, 14))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    density = draw(st.sampled_from([0.0, 0.3, 1.0]))
    w = rng.random((n, n)) * (rng.random((n, n)) < density)
    w[np.arange(n - 1), np.arange(1, n)] = rng.random(n - 1) + 0.1
    w = np.triu(w, k=1) * draw(st.sampled_from([1e-3, 1.0, 1e3]))
    g = WeightedGraph(w + w.T)
    k = draw(st.integers(1, n))
    labels = rng.permutation(np.concatenate([np.arange(k), rng.integers(0, k, n - k)]))
    return g, Partition(labels, k)


@settings(max_examples=200)
@given(labeled_connected_graphs())
def test_duality_identity_property(case):
    g, p = case
    cut = normalized_cut_value(g, p)
    assert abs(modularity(g, p) + cut - (p.k - 1)) <= 1e-10
    assert abs(cut - dense_normalized_cut(g, p)) <= 1e-12


def test_functionals_scale_invariant():
    rng = np.random.default_rng(22)
    g = random_connected(rng, 7)
    h = WeightedGraph(g.weights * 11.0)
    labels = random_full_partition(rng, 7, 3)
    p = Partition(labels, 3)
    assert modularity(g, p) == pytest.approx(modularity(h, p), abs=1e-12)
    assert normalized_cut_value(g, p) == pytest.approx(normalized_cut_value(h, p), abs=1e-10)


def test_relaxation_bounds_ordering():
    g = two_cliques_bridge(4)
    dec = spectral_decomposition(g)
    upper, lower = relaxation_bounds(dec, 2)
    assert upper == pytest.approx(float(dec.lambdas[0]))
    assert lower == pytest.approx(1.0 - upper)
    u1, l1 = relaxation_bounds(dec, 1)
    assert u1 == 0.0 and l1 == 0.0
    with pytest.raises(BadK):
        relaxation_bounds(dec, 0)
    with pytest.raises(BadK):
        relaxation_bounds(dec, dec.n + 1)


def test_modularity_never_beats_relaxation():
    # exhaustive over all partitions with exactly k nonempty clusters
    rng = np.random.default_rng(23)
    for _ in range(5):
        g = random_connected(rng, 7)
        dec = spectral_decomposition(g)
        for k in (2, 3):
            upper, _ = relaxation_bounds(dec, k)
            worst = -np.inf
            for labels in _label_arrays(7, k):
                if np.unique(labels).size != k:
                    continue
                p = Partition(labels, k)
                worst = max(worst, modularity(g, p))
            assert worst <= upper + 1e-10


def test_quality_report_residual():
    rng = np.random.default_rng(24)
    g = random_connected(rng, 8)
    dec = spectral_decomposition(g)
    reps = representatives(dec, g, 3)
    part, _ = exhaustive_min_k_variance(reps.points, reps.weights, 3)
    rep = quality_report(g, dec, part)
    assert rep.k == 3
    assert rep.duality_residual <= 1e-10
    assert rep.modularity <= rep.relaxation_upper + 1e-10
    assert rep.normalized_cut >= rep.relaxation_lower_cut - 1e-10
