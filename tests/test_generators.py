import numpy as np
import pytest

import modspec.generators
from modspec import (
    BadSize,
    BlockModel,
    blow_up,
    classical,
    complete_bipartite,
    complete_graph,
    expected_block_graph,
    generalized_random_graph,
    path_graph,
    spectral_decomposition,
    structural_count,
    two_cliques_bridge,
)
from modspec.graph import default_vertex_ids
from modspec.sampling import sample_subgraph


def test_block_model_validation():
    with pytest.raises(BadSize):
        BlockModel((), np.zeros((0, 0)))
    with pytest.raises(BadSize):
        BlockModel((3, 0), np.full((2, 2), 0.5))
    with pytest.raises(BadSize):
        BlockModel((3, 3), np.full((3, 3), 0.5))
    with pytest.raises(BadSize):
        BlockModel((2, 2), np.array([[0.5, 0.1], [0.2, 0.5]]))
    with pytest.raises(BadSize):
        BlockModel((2, 2), np.array([[0.5, 1.1], [1.1, 0.5]]))
    m = BlockModel((2, 3), np.array([[0.5, 0.2], [0.2, 0.4]]))
    assert m.n == 5 and m.k == 2
    assert m.block_of_vertex().tolist() == [0, 0, 1, 1, 1]


def test_block_model_reports_nan_as_out_of_range():
    # NaN != NaN, so a symmetry check run first would call it asymmetric
    with pytest.raises(BadSize, match=r"\[0, 1\]"):
        BlockModel((2,), [[np.nan]])
    with pytest.raises(BadSize, match=r"\[0, 1\]"):
        BlockModel((1, 1), [[0.5, np.nan], [np.nan, 0.5]])


def test_classical_wrong_size_count_names_the_sizes():
    for args in ((3, 4), ()):
        with pytest.raises(BadSize, match=r"'complete' takes sizes \(n\), got"):
            classical("complete", *args)
    with pytest.raises(BadSize, match=r"\(a, b\)"):
        classical("complete_bipartite", 2)


def test_random_graph_determinism_and_range():
    model = BlockModel((10, 10), np.array([[0.6, 0.1], [0.1, 0.6]]))
    g1, b1 = generalized_random_graph(model, 42)
    g2, _ = generalized_random_graph(model, 42)
    g3, _ = generalized_random_graph(model, 43)
    assert np.array_equal(g1.weights, g2.weights)
    assert not np.array_equal(g1.weights, g3.weights)
    assert set(np.unique(g1.weights)) <= {0.0, 1.0}
    assert b1.tolist() == [0] * 10 + [1] * 10


def test_random_graph_edge_count_near_expectation():
    sizes = (50, 50, 50)
    p_in, p_out = 0.3, 0.05
    probs = np.full((3, 3), p_out)
    np.fill_diagonal(probs, p_in)
    model = BlockModel(sizes, probs)
    n_in_pairs = 3 * (50 * 49 // 2)
    n_out_pairs = 3 * 50 * 50
    mean = n_in_pairs * p_in + n_out_pairs * p_out
    var = n_in_pairs * p_in * (1 - p_in) + n_out_pairs * p_out * (1 - p_out)
    for seed in range(5):
        g, _ = generalized_random_graph(model, seed)
        edges = g.weights.sum() / 2.0
        assert abs(edges - mean) < 4.0 * np.sqrt(var)


def test_extreme_probabilities():
    model = BlockModel((4,), np.array([[1.0]]))
    g, _ = generalized_random_graph(model, 0)
    assert np.array_equal(g.weights, complete_graph(4).weights)
    model0 = BlockModel((4,), np.array([[0.0]]))
    g0, _ = generalized_random_graph(model0, 0)
    assert not g0.weights.any()


def test_expected_block_graph_small_spectrum():
    # two blocks of 3 at 0.5 inside / 0.2 across: eigenvalues are
    # {0.25, 0, -0.3125 x4} after normalization
    model = BlockModel((3, 3), np.array([[0.5, 0.2], [0.2, 0.5]]))
    g = expected_block_graph(model)
    assert np.allclose(np.diagonal(g.weights), 0.0)
    assert g.weights[0, 1] == 0.5 and g.weights[0, 3] == 0.2
    dec = spectral_decomposition(g)
    expect = np.array([0.25, 0.0, -0.3125, -0.3125, -0.3125, -0.3125])
    assert np.allclose(np.sort(dec.lambdas), np.sort(expect), atol=1e-10)
    assert structural_count(dec, 0.05) == 5
    assert structural_count(dec, 0.3) == 4
    assert structural_count(dec, 0.32) == 0


def test_expected_block_graph_large_has_one_structural_value():
    model = BlockModel((50, 50), np.array([[0.5, 0.2], [0.2, 0.5]]))
    dec = spectral_decomposition(expected_block_graph(model))
    assert structural_count(dec, 0.05) == 1


def test_expected_block_graph_flat_probs_matches_complete_graph():
    # equal probabilities collapse to a scaled complete graph, so the
    # nonzero eigenvalues are all -1/(n-1)
    flat8 = BlockModel((4, 4), np.full((2, 2), 0.3))
    dec8 = spectral_decomposition(expected_block_graph(flat8))
    assert structural_count(dec8, 0.1) == 7
    flat12 = BlockModel((6, 6), np.full((2, 2), 0.3))
    dec12 = spectral_decomposition(expected_block_graph(flat12))
    assert structural_count(dec12, 0.1) == 0


def test_classical_families():
    k4 = complete_graph(4)
    assert k4.total_volume == pytest.approx(12.0)
    b = complete_bipartite(2, 3)
    assert b.weights[:2, :2].sum() == 0.0
    assert b.weights[2:, 2:].sum() == 0.0
    assert b.weights[:2, 2:].sum() == pytest.approx(6.0)
    p = path_graph(4)
    assert p.degrees.tolist() == [1.0, 2.0, 2.0, 1.0]
    t = two_cliques_bridge(3)
    assert t.n == 6
    assert t.weights[2, 3] == 1.0
    assert t.weights[0, 3] == 0.0
    assert t.degrees.tolist() == [2.0, 2.0, 3.0, 3.0, 2.0, 2.0]
    assert np.array_equal(classical("complete", 4).weights, k4.weights)
    assert np.array_equal(classical("two_cliques_bridge", 3).weights, t.weights)
    with pytest.raises(BadSize):
        classical("mystery", 3)
    with pytest.raises(BadSize):
        complete_graph(0)
    with pytest.raises(BadSize):
        complete_bipartite(0, 3)
    with pytest.raises(BadSize):
        path_graph(0)
    with pytest.raises(BadSize):
        two_cliques_bridge(0)


def test_blow_up_structure():
    g = path_graph(3)
    h = blow_up(g, 2)
    assert h.n == 6
    assert h.vertex_ids[:2] == ("v0#000", "v0#001")
    # same-vertex copies stay non-adjacent, cross-vertex copies inherit weight
    assert h.weights[0, 1] == 0.0
    assert h.weights[0, 2] == 1.0 and h.weights[0, 3] == 1.0
    assert h.weights[0, 4] == 0.0
    assert blow_up(g, 1).weights.tolist() == g.weights.tolist()
    with pytest.raises(BadSize):
        blow_up(g, 0)


def test_blow_up_preserves_spectrum_exactly():
    # the normalized modularity spectrum of a blow-up equals the original's
    # nonzero spectrum plus extra zeros
    for base in (two_cliques_bridge(3), complete_graph(4)):
        dec0 = spectral_decomposition(base)
        nonzero0 = np.sort(dec0.lambdas[np.abs(dec0.lambdas) > 1e-10])
        for t in (2, 3):
            dec = spectral_decomposition(blow_up(base, t))
            nonzero = np.sort(dec.lambdas[np.abs(dec.lambdas) > 1e-10])
            assert nonzero.size == nonzero0.size
            assert np.allclose(nonzero, nonzero0, atol=1e-10)


# Reference recipes: each builder's own construction before the builders
# shared one slot gather and one Bernoulli linker.

def _recipe_random_graph(model, seed):
    n = model.n
    blocks = model.block_of_vertex()
    rng = np.random.Generator(np.random.PCG64(seed))
    uniforms = rng.random((n, n))
    pairp = model.probs[np.ix_(blocks, blocks)]
    hit = uniforms < pairp
    upper = np.triu(hit, k=1)
    return (upper | upper.T).astype(float), blocks


def _recipe_sample(g, m, seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    probs = g.degrees / g.total_volume
    slots = rng.choice(g.n, size=m, replace=True, p=probs).astype(np.intp)
    uniforms = rng.random((m, m))
    pair_probs = g.weights[np.ix_(slots, slots)]
    upper = np.triu(uniforms < pair_probs, k=1)
    return slots, (upper | upper.T).astype(float)


def _recipe_expected(model):
    blocks = model.block_of_vertex()
    w = model.probs[np.ix_(blocks, blocks)].copy()
    np.fill_diagonal(w, 0.0)
    return w


def _recipe_classical(name, *args):
    if name == "complete":
        (n,) = args
        return np.ones((n, n)) - np.eye(n)
    if name == "complete_bipartite":
        a, b = args
        w = np.zeros((a + b, a + b))
        w[:a, a:] = 1.0
        w[a:, :a] = 1.0
        return w
    if name == "path":
        (n,) = args
        w = np.zeros((n, n))
        for i in range(n - 1):
            w[i, i + 1] = w[i + 1, i] = 1.0
        return w
    (m,) = args
    w = np.zeros((2 * m, 2 * m))
    block = np.ones((m, m)) - np.eye(m)
    w[:m, :m] = block
    w[m:, m:] = block
    w[m - 1, m] = w[m, m - 1] = 1.0
    return w


def _same_bytes(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


def test_builders_match_their_reference_recipes():
    for seed in (0, 1, 7, 42, 2023):
        rng = np.random.default_rng(seed)
        k = 3
        probs = np.round(rng.random((k, k)), 2)
        probs = np.triu(probs) + np.triu(probs, 1).T
        probs[0, 1] = probs[1, 0] = 1.0
        probs[2, 2] = 0.0
        for sizes in ((1,), (1, 2, 1), (5, 3, 4)):
            model = BlockModel(sizes, probs[:len(sizes), :len(sizes)])
            ids = default_vertex_ids(model.n)
            g, blocks = generalized_random_graph(model, seed)
            w, ref_blocks = _recipe_random_graph(model, seed)
            _same_bytes(g.weights, w)
            _same_bytes(blocks, ref_blocks)
            assert g.vertex_ids == ids
            e = expected_block_graph(model)
            _same_bytes(e.weights, _recipe_expected(model))
            assert e.vertex_ids == ids
        base = expected_block_graph(model)
        for m in (1, 2, 40):
            drawn, drawn_slots = sample_subgraph(base, m, seed)
            slots, adj = _recipe_sample(base, m, seed)
            _same_bytes(drawn_slots, slots)
            _same_bytes(drawn.weights, adj)
            assert drawn.vertex_ids == default_vertex_ids(m)
        # 40 slots over 12 vertices repeat; two copies of a vertex stay unlinked
        same = drawn_slots[:, None] == drawn_slots[None, :]
        assert np.count_nonzero(same) > drawn_slots.size
        assert not drawn.weights[same].any()
        for src in (base, g, complete_graph(1)):
            for t in (1, 2, 3):
                h = blow_up(src, t)
                _same_bytes(h.weights, np.kron(src.weights, np.ones((t, t))))
                assert h.vertex_ids == tuple(
                    f"{v}#{c:03d}" for v in src.vertex_ids for c in range(t))
        for idx in ([], [4], sorted(rng.choice(base.n, size=5, replace=False))):
            sub = base.induced_subgraph(idx)
            _same_bytes(sub.weights, base.weights[np.ix_(idx, idx)].astype(float))
            assert sub.vertex_ids == tuple(base.vertex_ids[i] for i in idx)
    for name, args in (("complete", (1,)), ("complete", (4,)),
                       ("complete_bipartite", (1, 1)), ("complete_bipartite", (2, 3)),
                       ("path", (1,)), ("path", (2,)), ("path", (5,)),
                       ("two_cliques_bridge", (1,)), ("two_cliques_bridge", (3,))):
        c = classical(name, *args)
        _same_bytes(c.weights, _recipe_classical(name, *args))
        assert c.vertex_ids == default_vertex_ids(c.n)


def test_row_blocks_do_not_change_the_bytes(monkeypatch):
    # one row per block; then blocks of 5 model rows (12 = 5 + 5 + 2); then
    # blocks of 7 sample rows (40 = 5 * 7 + 5): each block's triangle starts
    # right of its own diagonal
    model = BlockModel((5, 3, 4), np.array([[0.6, 0.2, 0.1],
                                            [0.2, 0.5, 0.3],
                                            [0.1, 0.3, 0.7]]))

    def builds():
        base = expected_block_graph(model)
        return (generalized_random_graph(model, 11)[0], base,
                sample_subgraph(base, 40, 11)[0])

    default = builds()
    for cells in (1, 5 * model.n, 7 * 40):
        monkeypatch.setattr(modspec.generators, "_BLOCK_CELLS", cells)
        for g, ref in zip(builds(), default):
            _same_bytes(g.weights, ref.weights)
