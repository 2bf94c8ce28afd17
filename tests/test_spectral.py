import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg import LinAlgError, lapack
from scipy.sparse.linalg import ArpackNoConvergence

from modspec import (
    BlockModel,
    Disconnected,
    EigenFailure,
    Partition,
    Unsolved,
    WeightedGraph,
    ZeroDegree,
    blow_up,
    dump_edge_list,
    eigendecompose,
    expected_block_graph,
    generalized_random_graph,
    normalized_modularity,
    order_by_abs,
    relaxation_bounds,
    representatives,
    spectral_decomposition,
    spectral_gap,
    structural_count,
    weighted_kmeans,
)
from modspec import spectral
from modspec.cli import main
from modspec.generators import complete_bipartite, complete_graph, two_cliques_bridge
from modspec.spectral import ZERO_TOL
from oracles import subspace_distance_sq


def random_connected(rng, n):
    w = rng.random((n, n))
    w = np.triu(w, k=1)
    return WeightedGraph(w + w.T)


def test_matrix_shape_and_symmetry():
    g = complete_graph(4)
    m = normalized_modularity(g)
    assert m.shape == (4, 4)
    assert np.array_equal(m, m.T)


def test_matrix_requires_positive_degrees_and_connectivity():
    with pytest.raises(ZeroDegree):
        normalized_modularity(WeightedGraph(np.zeros((0, 0))))
    w = np.zeros((3, 3))
    w[0, 1] = w[1, 0] = 1.0
    with pytest.raises(ZeroDegree):
        normalized_modularity(WeightedGraph(w))
    w = np.zeros((4, 4))
    w[0, 1] = w[1, 0] = 1.0
    w[2, 3] = w[3, 2] = 1.0
    with pytest.raises(Disconnected):
        normalized_modularity(WeightedGraph(w))


def test_scale_invariance():
    rng = np.random.default_rng(0)
    g = random_connected(rng, 6)
    scaled = WeightedGraph(g.weights * 37.5)
    assert np.allclose(normalized_modularity(g), normalized_modularity(scaled), atol=1e-12)


def test_subnormal_degrees_solve_like_unit_weights():
    # every degree is subnormal, the volume (about 3.5e-308) is a normal float
    cycle = np.roll(np.eye(200), 1, axis=1)
    cycle += cycle.T
    unit = spectral_decomposition(WeightedGraph(cycle), leading=3)
    tiny = spectral_decomposition(WeightedGraph(cycle * 2.0**-1030), leading=3)
    assert np.array_equal(tiny.lambdas, unit.lambdas)
    assert np.array_equal(tiny.mus, unit.mus)
    assert np.array_equal(tiny.vectors, unit.vectors)


def test_sqrt_degree_kernel_vector():
    rng = np.random.default_rng(1)
    for _ in range(10):
        g = random_connected(rng, 7)
        m = normalized_modularity(g)
        sq = np.sqrt(g.degrees / g.total_volume)
        assert np.linalg.norm(m @ sq) < 1e-12
        vals = np.linalg.eigvalsh(m)
        assert vals.min() > -1.0 - 1e-10
        assert vals.max() < 1.0 + 1e-10


def test_complete_graph_spectrum():
    for n in range(3, 8):
        dec = spectral_decomposition(complete_graph(n))
        assert abs(dec.lambdas[0]) < 1e-10
        assert np.allclose(dec.lambdas[1:], -1.0 / (n - 1), atol=1e-10)
        # zero goes last in the magnitude ordering
        assert abs(dec.mus[-1]) < 1e-10


def test_k33_decomposition_values():
    dec = spectral_decomposition(complete_bipartite(3, 3))
    assert np.allclose(dec.mus[0], -1.0, atol=1e-10)
    assert np.max(np.abs(dec.mus[1:])) < 1e-10
    assert dec.spectral_norm == pytest.approx(1.0, abs=1e-10)
    assert spectral_gap(dec) == pytest.approx(0.0, abs=1e-10)


def test_k3_orderings_and_map():
    dec = spectral_decomposition(complete_graph(3))
    assert np.allclose(dec.lambdas, [0.0, -0.5, -0.5], atol=1e-12)
    assert np.allclose(dec.mus, [-0.5, -0.5, 0.0], atol=1e-12)
    assert dec.mu_to_lambda.tolist() == [1, 2, 0]
    assert np.allclose(dec.lambdas[dec.mu_to_lambda], dec.mus)


def test_order_by_abs_rules():
    vals, idx = order_by_abs(np.array([0.5, 0.2, 0.0, -0.5, -0.8]))
    assert vals.tolist() == [-0.8, 0.5, -0.5, 0.2, 0.0]
    assert idx.tolist() == [4, 0, 3, 1, 2]
    # magnitudes inside the zero tolerance count as zero
    vals, _ = order_by_abs(np.array([5e-11, -0.3]))
    assert vals.tolist() == [-0.3, 5e-11]
    # exact magnitude ties and values snapped to zero keep input order among
    # themselves, after the positive member of each tie
    vals, idx = order_by_abs(np.array([0.25, 0.25, 1e-11, 0.0, -1e-11, -0.25, -0.25]))
    assert idx.tolist() == [0, 1, 5, 6, 2, 3, 4]
    assert vals.tolist() == [0.25, 0.25, -0.25, -0.25, 1e-11, 0.0, -1e-11]


def test_vector_sign_convention():
    rng = np.random.default_rng(2)
    for _ in range(10):
        g = random_connected(rng, 6)
        dec = spectral_decomposition(g)
        for col in dec.vectors.T:
            lead = np.argmax(np.abs(col))
            assert col[lead] > 0


def test_vectors_orthonormal_and_satisfy_eigen_equation():
    rng = np.random.default_rng(3)
    g = random_connected(rng, 9)
    dec = spectral_decomposition(g)
    m = normalized_modularity(g)
    assert np.allclose(dec.vectors.T @ dec.vectors, np.eye(9), atol=1e-8)
    for mu, col in zip(dec.mus, dec.vectors.T):
        assert np.linalg.norm(m @ col - mu * col) < 1e-8


def test_sqrt_degrees_column_is_last_zero():
    rng = np.random.default_rng(4)
    g = random_connected(rng, 8)
    dec = spectral_decomposition(g)
    sq = np.sqrt(g.degrees / g.total_volume)
    # generic graphs have a one-dimensional kernel: its vector is sqrt(d)
    zero_positions = np.flatnonzero(np.abs(dec.mus) <= ZERO_TOL)
    assert zero_positions.size == 1
    col = dec.vectors[:, zero_positions[-1]]
    assert np.allclose(col, sq, atol=1e-10)


def test_degenerate_kernel_still_ends_with_sqrt_degrees():
    # complete graph blown up in spirit: many zero eigenvalues come from
    # K_{3,3}'s flat spectrum; sqrt(d) must still sit in the last zero slot
    dec = spectral_decomposition(complete_bipartite(3, 3))
    g = complete_bipartite(3, 3)
    sq = np.sqrt(g.degrees / g.total_volume)
    zero_positions = np.flatnonzero(np.abs(dec.mus) <= ZERO_TOL)
    assert zero_positions.size == 5
    assert np.allclose(dec.vectors[:, zero_positions[-1]], sq, atol=1e-10)
    # the rotated kernel basis still diagonalizes: every column is an eigenvector
    m = normalized_modularity(g)
    for mu, col in zip(dec.mus, dec.vectors.T):
        assert np.linalg.norm(m @ col - mu * col) < 1e-8
    assert np.allclose(dec.vectors.T @ dec.vectors, np.eye(6), atol=1e-8)


def test_deflated_solve_computes_only_the_requested_columns(monkeypatch):
    requested, solves = [], []
    real, real_eigh = spectral._tridiagonal_vectors, spectral.eigh_tridiagonal

    def recording(d, e, top, bottom):
        requested.append((top, bottom))
        return real(d, e, top, bottom)

    def recording_eigh(d, e, **kwargs):
        solves.append((d.size, kwargs["select"], kwargs["lapack_driver"]))
        return real_eigh(d, e, **kwargs)

    monkeypatch.setattr(spectral, "_tridiagonal_vectors", recording)
    monkeypatch.setattr(spectral, "eigh_tridiagonal", recording_eigh)
    # K_{3,4} has eigenvalue -1 once and 0 six times: the second column lies
    # in the zero block, and the deflated block serves it without the rest.
    # Both ends of the value order are asked for, the top one inside the
    # tied zeros, and inverse iteration serves each without MRRR
    g = complete_bipartite(3, 4)
    dec = spectral_decomposition(g, leading=2)
    assert requested == [(1, 1)] and solves == [(6, "i", "stebz")] * 2
    v = dec.vectors
    assert v.shape == (7, 2) and dec.mus[0] == pytest.approx(-1.0)
    assert np.abs(v.T @ v - np.eye(2)).max() <= 1e-12
    m = normalized_modularity(g)
    assert np.linalg.norm(m @ v - v * dec.mus[:2], axis=0).max() <= 1e-12
    assert np.abs(v.T @ dec.sqrt_degrees).max() <= 1e-12
    # all n - 1 columns of the block are a full request, which MRRR serves
    spectral_decomposition(g)
    assert solves[2:] == [(6, "a", "stemr")]


def test_eigendecompose_validation():
    with pytest.raises(ValueError):
        eigendecompose(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        eigendecompose(np.array([[0.0, 1.0], [0.0, 0.0]]))
    nan_mat = np.full((3, 3), np.nan)
    with pytest.raises((EigenFailure, ValueError)):
        eigendecompose(nan_mat)


def test_structural_count_and_gap():
    dec = spectral_decomposition(two_cliques_bridge(5))
    assert structural_count(dec, 0.3) == 2
    assert structural_count(dec, 0.5) == 1
    assert structural_count(dec, 0.0) == 9
    assert spectral_gap(dec) == pytest.approx(1.0 - 0.9273994175349938, abs=1e-9)
    with pytest.raises(ValueError):
        structural_count(dec, 1.0)
    with pytest.raises(ValueError):
        structural_count(dec, -0.1)


def test_empty_matrix_decomposition():
    dec = eigendecompose(np.empty((0, 0)))
    assert dec.n == 0
    assert dec.spectral_norm == 0.0


def test_eigendecompose_leaves_its_argument_alone():
    rng = np.random.default_rng(5)
    g = random_connected(rng, 9)
    m = normalized_modularity(g)
    before = m.tobytes()
    dec = eigendecompose(m)
    assert m.tobytes() == before
    assert not np.shares_memory(dec.vectors, m)
    # only nearly symmetric: symmetrized for the solver, argument untouched
    near = m.copy()
    near[0, 1] += 1e-14
    near_before = near.tobytes()
    dec_near = eigendecompose(near)
    assert near.tobytes() == near_before
    assert not np.shares_memory(dec_near.vectors, near)
    assert np.allclose(dec_near.lambdas, dec.lambdas, atol=1e-12)
    # a second call on the same input gives the same bytes
    again = eigendecompose(m)
    assert again.vectors.tobytes() == dec.vectors.tobytes()
    assert again.lambdas.tobytes() == dec.lambdas.tobytes()


def test_sign_fix_does_not_alias_caller_data():
    g = complete_bipartite(3, 3)
    dec = spectral_decomposition(g)
    for other in (g.weights, g.degrees, dec.lambdas, dec.mus, dec.sqrt_degrees):
        assert not np.shares_memory(dec.vectors, other)
    kept = dec.sqrt_degrees.copy()
    dec.vectors[:] = 0.0
    assert np.array_equal(dec.sqrt_degrees, kept)
    # every column's largest-magnitude coordinate (first on ties) is positive
    fresh = spectral_decomposition(g).vectors
    lead = np.argmax(np.abs(fresh), axis=0)
    assert (fresh[lead, np.arange(fresh.shape[1])] > 0).all()


@st.composite
def connected_graphs(draw):
    """Connected weighted graphs: dense random, sparse with a path backbone,
    near-multipartite (heavy weights across parts, light ones inside, so the
    structural mu are negative), complete graphs and K_{a,b}."""
    kind = draw(st.sampled_from(["dense", "sparse", "multipartite", "complete", "bipartite"]))
    if kind == "complete":
        return complete_graph(draw(st.integers(2, 9)))
    if kind == "bipartite":
        return complete_bipartite(draw(st.integers(1, 5)), draw(st.integers(1, 5)))
    n = draw(st.integers(3, 16))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "dense":
        w = rng.random((n, n))
    elif kind == "sparse":
        w = rng.random((n, n)) * (rng.random((n, n)) < 0.3)
        w[np.arange(n - 1), np.arange(1, n)] = rng.random(n - 1) + 0.1
    else:
        parts = rng.integers(0, draw(st.integers(2, 4)), size=n)
        parts[:2] = (0, 1)
        cross = parts[:, None] != parts[None, :]
        w = np.where(cross, 0.5 + 0.5 * rng.random((n, n)), 0.05 * rng.random((n, n)))
    w = np.triu(w, k=1)
    return WeightedGraph(w + w.T)


def plain_normalized_modularity(w):
    """D^{-1/2} W D^{-1/2} - q q^T with q = sqrt(d / Vol), in plain numpy."""
    d = w.sum(axis=1)
    q = np.sqrt(d / d.sum())
    return w / np.sqrt(np.outer(d, d)) - np.outer(q, q)


def test_normalized_modularity_matches_a_plain_numpy_oracle():
    rng = np.random.default_rng(42)
    graphs = [random_connected(rng, n) for n in (2, 3, 7, 16, 40)]
    model = BlockModel((3, 5, 8), np.array([[0.9, 0.2, 0.05],
                                            [0.2, 0.7, 0.3],
                                            [0.05, 0.3, 0.6]]))
    graphs.append(expected_block_graph(model))
    for g in graphs:
        oracle = plain_normalized_modularity(g.weights)
        assert np.abs(normalized_modularity(g) - oracle).max() <= 1e-15


@settings(max_examples=300)
@given(st.data())
def test_normalized_modularity_is_exactly_symmetric_and_scale_free(data):
    g = data.draw(connected_graphs())
    m = normalized_modularity(g)
    assert np.array_equal(m, m.T)
    scale = data.draw(st.sampled_from([1e-200, 1e-3, 0.37, 37.5, 1e6, 2.0**40 + 1, 1e200]))
    scaled = normalized_modularity(WeightedGraph(g.weights * scale))
    assert np.array_equal(scaled, scaled.T)
    assert np.abs(scaled - m).max() <= 1e-12


@settings(max_examples=150)
@given(connected_graphs())
def test_leading_columns_match_the_full_decomposition(g):
    n = g.n
    m = normalized_modularity(g)
    sq = np.sqrt(g.degrees / g.total_volume)
    full = spectral_decomposition(g)
    # q's exact 0 is the last |mu|, after any roundoff snapped to zero
    assert full.mus[-1] == 0.0
    assert full.lambdas[full.mu_to_lambda[-1]] == 0.0
    for r in range(n + 1):
        dec = spectral_decomposition(g, leading=r)
        assert dec.lambdas.tobytes() == full.lambdas.tobytes()
        assert dec.mus.tobytes() == full.mus.tobytes()
        assert dec.mu_to_lambda.tobytes() == full.mu_to_lambda.tobytes()
        v = dec.vectors
        assert v.shape == (n, r)
        assert np.abs(v.T @ v - np.eye(r)).max(initial=0.0) <= 1e-8
        assert np.linalg.norm(m @ v - v * dec.mus[:r], axis=0).max(initial=0.0) <= 1e-8
        # sqrt(d) is the last column of the mu order; every earlier one is
        # orthogonal to it, zero-eigenvalue columns included
        assert np.abs(v[:, : min(r, n - 1)].T @ sq).max(initial=0.0) <= 1e-8
        if r == n:
            assert np.allclose(v[:, -1], sq, atol=1e-10)
        # where a clear magnitude gap follows position r the subspace is
        # well defined (below a gap of about 1e-6 roundoff alone moves the
        # projector by more than 1e-8)
        if 0 < r < n and abs(full.mus[r - 1]) - abs(full.mus[r]) > 1e-6:
            ref = full.vectors[:, :r]
            assert np.abs(v @ v.T - ref @ ref.T).max() <= 1e-8


@st.composite
def planted_graphs(draw):
    """Connected random block graphs with p_in >= 0.8 and p_out <= 0.05,
    returned with their block count."""
    sizes = draw(st.lists(st.integers(20, 40), min_size=2, max_size=4))
    k = len(sizes)
    probs = np.full((k, k), draw(st.floats(0.02, 0.05)))
    np.fill_diagonal(probs, draw(st.floats(0.8, 1.0)))
    g, _ = generalized_random_graph(BlockModel(tuple(sizes), probs),
                                    draw(st.integers(0, 2**32 - 1)))
    assume(g.is_connected())
    return g, k


@settings(max_examples=150, deadline=None)
@given(st.one_of(connected_graphs().map(lambda g: (g, None)), planted_graphs()),
       st.integers(0, 2**32 - 1))
def test_relabeling_vertices_permutes_the_results(graph_and_k, seed):
    g, k = graph_and_k
    n = g.n
    perm = np.random.default_rng(seed).permutation(n)
    moved = WeightedGraph(g.weights[np.ix_(perm, perm)])
    dec, pdec = spectral_decomposition(g), spectral_decomposition(moved)
    assert np.abs(pdec.lambdas - dec.lambdas).max() <= 1e-12
    # a column is defined up to sign where its |mu| has a gap on both sides
    mags = np.abs(dec.mus)
    gaps = -np.diff(mags)
    for i in range(n):
        if (i > 0 and gaps[i - 1] <= 1e-6) or (i < n - 1 and gaps[i] <= 1e-6):
            continue
        u, v = dec.vectors[perm, i], pdec.vectors[:, i]
        assert min(np.abs(u - v).max(), np.abs(u + v).max()) <= 1e-8
    if k is not None:
        part, _ = weighted_kmeans(representatives(dec, g, k), k, seed=seed)
        ppart, _ = weighted_kmeans(representatives(pdec, moved, k), k, seed=seed)
        # the same partition up to relabeling: the label pairs form a bijection
        pairs = {(int(a), int(b)) for a, b in zip(part.labels[perm], ppart.labels)}
        assert len(pairs) == len({a for a, _ in pairs}) == len({b for _, b in pairs})


def test_leading_columns_on_tiny_matrices():
    for mat in (np.empty((0, 0)), np.array([[0.25]]), np.array([[-3.0]])):
        n = mat.shape[0]
        full = eigendecompose(mat)
        for r in range(n + 1):
            dec = eigendecompose(mat, leading=r)
            assert dec.lambdas.tobytes() == full.lambdas.tobytes()
            assert dec.vectors.shape == (n, r)
            assert np.array_equal(dec.vectors, full.vectors[:, :r])
    # without sqrt_degrees a request may stop inside a zero block; values
    # within ZERO_TOL of zero, of either sign, are part of that block
    q, _ = np.linalg.qr(np.random.default_rng(7).standard_normal((6, 6)))
    near_zero = q @ np.diag([0.5, 3e-11, 0.0, 0.0, -4e-11, -0.75]) @ q.T
    # exact ties at both ends: +1 and -1 three times each, so r = 2 stops
    # inside the tied top and r = 4, 5 add part of the tied bottom
    pairs = np.kron(np.eye(3), [[0.0, 1.0], [1.0, 0.0]])
    for mat in ((near_zero + near_zero.T) / 2.0, pairs):
        full = eigendecompose(mat)
        for r in range(7):
            dec = eigendecompose(mat, leading=r)
            assert dec.mu_to_lambda.tobytes() == full.mu_to_lambda.tobytes()
            v = dec.vectors
            assert np.abs(v.T @ v - np.eye(r)).max(initial=0.0) <= 1e-8
            assert np.linalg.norm(mat @ v - v * dec.mus[:r], axis=0).max(initial=0.0) <= 1e-8
    assert eigendecompose(pairs, leading=5).mus[:5].tolist() == [1.0] * 3 + [-1.0] * 2
    # more columns than exist gives all of them; fewer than none is an error
    assert eigendecompose(np.eye(2), leading=5).vectors.shape == (2, 2)
    with pytest.raises(ValueError):
        eigendecompose(np.eye(2), leading=-1)


def test_two_ended_selection_on_a_near_bipartite_graph():
    # two communities, each a near-complete bipartite graph: two mu near -1
    # and one near +1 lead, so the request takes both ends of the value order
    rng = np.random.default_rng(8)
    n = 12
    group = np.arange(n) // 3
    community, side = group // 2, group % 2
    heavy = (community[:, None] == community[None, :]) & (side[:, None] != side[None, :])
    w = np.where(heavy, 1.0, 0.05) * (0.5 + rng.random((n, n)))
    w = np.triu(w, k=1)
    g = WeightedGraph(w + w.T)
    full = spectral_decomposition(g)
    assert full.mus[0] < -0.8 and full.mus[1] > 0.8 and full.mus[2] < -0.8
    dec = spectral_decomposition(g, leading=3)
    assert sorted(dec.mu_to_lambda[:3]) == [0, n - 2, n - 1]
    for i in range(3):
        assert np.allclose(dec.vectors[:, i], full.vectors[:, i], atol=1e-10)


def test_fewer_columns_than_k_minus_one_are_rejected():
    g = two_cliques_bridge(4)
    part = Partition.from_labels(np.repeat([0, 1, 2], [3, 3, 2]), 3, g.degrees)
    short = spectral_decomposition(g, leading=1)
    with pytest.raises(ValueError):
        representatives(short, g, 3)
    with pytest.raises(ValueError):
        subspace_distance_sq(short, g, part, 3)
    enough = spectral_decomposition(g, leading=2)
    assert representatives(enough, g, 3).points.shape == (8, 2)
    assert subspace_distance_sq(enough, g, part, 3) >= 0.0


def test_null_vector_residual_is_enforced():
    rng = np.random.default_rng(6)
    g = random_connected(rng, 9)
    # degrees 1e-6 off the weights' row sums: q is almost the null vector
    # by angle, but N q - q is about 1e-6, above the residual tolerance
    off = g.degrees * (1.0 + 1e-6 * rng.standard_normal(9))
    object.__setattr__(g, "degrees", off)
    with pytest.raises(EigenFailure, match="null-vector"):
        spectral_decomposition(g)
    with pytest.raises(EigenFailure, match="null-vector"):
        spectral_decomposition(g, leading=0)
    # a symmetric matrix with an infinite entry is rejected
    with pytest.raises(ValueError):
        eigendecompose(np.array([[np.inf, 0.0], [0.0, 1.0]]))


def _skew_first_column(monkeypatch):
    real = spectral._tridiagonal_vectors

    def skewed(d, e, top, bottom):
        z = np.array(real(d, e, top, bottom))
        if z.shape[1]:
            z[:, 0] = np.roll(z[:, 0], 1)
        return z

    monkeypatch.setattr(spectral, "_tridiagonal_vectors", skewed)


def test_eigen_equation_residual_is_enforced(monkeypatch, tmp_path, capsys):
    g = two_cliques_bridge(5)
    path = tmp_path / "bridge.tsv"
    path.write_text(dump_edge_list(g))
    _skew_first_column(monkeypatch)
    with pytest.raises(EigenFailure):
        spectral_decomposition(g, leading=2)
    with pytest.raises(EigenFailure):
        spectral_decomposition(g)
    assert main(["cluster", str(path), "--k", "2", "--seed", "0"]) == 3
    assert "EigenFailure" in capsys.readouterr().err
    # a request for no vectors computes none, so nothing can be skewed
    assert spectral_decomposition(g, leading=0).vectors.shape == (10, 0)


def test_partial_solver_failures_are_eigen_failures(monkeypatch, tmp_path, capsys):
    g = two_cliques_bridge(5)
    path = tmp_path / "bridge.tsv"
    path.write_text(dump_edge_list(g))
    real = spectral.eigh_tridiagonal

    def short(driver):
        def fake(d, e, **kwargs):
            w, z = real(d, e, **kwargs)
            return (w[:-1], z[:, :-1]) if kwargs["lapack_driver"] == driver else (w, z)
        return fake, "returned"

    def failing(driver):
        def fake(d, e, **kwargs):
            if kwargs["lapack_driver"] == driver:
                raise LinAlgError(f"{driver} did not converge")
            return real(d, e, **kwargs)
        return fake, "did not converge"

    # a partial request is served by stebz alone, a full one by stemr alone;
    # k = 10 asks for all 9 columns of the deflated block
    for driver, failed, served, k in (("stebz", 2, None, "3"), ("stemr", None, 2, "10")):
        for make in (short, failing):
            fake, message = make(driver)
            with monkeypatch.context() as patch:
                patch.setattr(spectral, "eigh_tridiagonal", fake)
                with pytest.raises(EigenFailure, match=message):
                    spectral_decomposition(g, leading=failed)
                assert spectral_decomposition(g, leading=served).vectors.shape[0] == 10
                assert main(["cluster", str(path), "--k", k, "--seed", "0"]) == 3
                assert "EigenFailure" in capsys.readouterr().err


# The dense path's eigenvectors before scipy's eigh_tridiagonal served them,
# kept as written: LAPACK's dstebz, dstein and dstemr called by hand, with
# both index ranges in one dstein call.
def _recipe_tridiagonal_vectors(d, e, top, bottom):
    n = d.size
    if top + bottom == n:
        # dstemr overwrites its off-diagonal, which has length n (the last
        # entry is workspace); the wrapper's default workspace sizes are the
        # ones LAPACK asks for.  RANGE 0 is 'A'.
        count, _, z, info = lapack.dstemr(d, np.append(e, 0.0), 0, 0.0, 1.0, 1, n)
        spectral._lapack_info(info, "dstemr")
        if count != n:
            raise EigenFailure(f"dstemr returned {count} of {n} eigenvectors")
        return z[:, ::-1]
    values, blocks = [], []
    # 1-based ascending index ranges; RANGE 2 is 'I', order 'B' groups the
    # values by split-off block, as dstein needs them
    for il, iu in ((1, bottom), (n - top + 1, n)):
        if iu < il:
            continue
        count, w, iblock, isplit, info = lapack.dstebz(d, e, 2, 0.0, 0.0, il, iu, 0.0, "B")
        spectral._lapack_info(info, "dstebz")
        if count != iu - il + 1:
            raise EigenFailure(f"dstebz returned {count} of {iu - il + 1} eigenvalues")
        values.append(w[:count])
        blocks.append(iblock[:count])
    if not values:
        return np.empty((n, 0))
    w, iblock = np.concatenate(values), np.concatenate(blocks)
    # both ranges in one call: by block, ascending within each block
    grouped = np.lexsort((w, iblock))
    w = w[grouped]
    # the wrapper wants iblock at its full length n
    iblock = np.pad(iblock[grouped], (0, n - w.size))
    z, info = lapack.dstein(d, e, w, iblock, isplit)
    spectral._lapack_info(info, "dstein")
    return z[:, np.argsort(w, kind="stable")[::-1]]


@st.composite
def tridiagonal_requests(draw):
    n = draw(st.integers(2, 24))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kind = draw(st.sampled_from(["float", "integer", "split"]))
    if kind == "integer":
        # few distinct entries: exact ties, within a block and across blocks
        d = rng.integers(-2, 3, n).astype(float)
        e = rng.integers(-1, 2, n - 1).astype(float)
    else:
        d, e = rng.standard_normal(n), rng.standard_normal(n - 1)
        if kind == "split":
            e[rng.random(n - 1) < 0.3] = 0.0
            d[rng.random(n) < 0.3] = 0.5
    top = draw(st.integers(0, n))
    bottom = draw(st.integers(0, n - top))
    return d, e, top, bottom


@settings(max_examples=400)
@given(tridiagonal_requests())
def test_tridiagonal_vectors_match_their_reference_recipe(case):
    d, e, top, bottom = case
    n = d.size
    got = spectral._tridiagonal_vectors(d, e, top, bottom)
    want = _recipe_tridiagonal_vectors(d, e, top, bottom)
    assert got.shape == want.shape == (n, top + bottom)
    if top == 0 or bottom == 0 or top + bottom == n:
        # one range, or all n by MRRR: the same LAPACK calls, the same bytes
        assert got.tobytes() == want.tobytes()
        return
    # the two ranges share no value, as in _solve
    w = np.sort(lapack.dsterf(d, e)[0])
    assume(w[n - top] > w[bottom - 1])
    assert np.abs(got.T @ got - np.eye(top + bottom)).max() <= 1e-12
    # two inverse-iteration calls instead of one: each column whose value
    # is apart from every other eigenvalue is the same vector up to sign
    values = np.r_[w[n - top:][::-1], w[:bottom][::-1]]
    gaps = np.sort(np.abs(values[:, None] - w[None, :]), axis=1)[:, 1]
    apart = gaps >= 1e-3 * max(1.0, np.abs(w).max())
    signs = np.sign(np.sum(got * want, axis=0))
    assert np.abs(got - want * signs)[:, apart].max(initial=0.0) <= 1e-12


def test_two_ranges_meeting_across_the_zero_cut_stay_orthonormal():
    # six leading positions: the top range ends at 3e-11 and the bottom one
    # starts at -1.05e-10, just beyond -ZERO_TOL.  Inverse iteration
    # reorthogonalizes close values only within one call, so the top columns
    # are projected off the bottom ones
    values = np.array([0.5, 0.4, 3e-11, 1e-11, -2e-11, -1.05e-10, -0.6, -0.75])
    rng = np.random.default_rng(23)
    for _ in range(40):
        q, _ = np.linalg.qr(rng.standard_normal((8, 8)))
        mat = q @ np.diag(values) @ q.T
        dec = eigendecompose((mat + mat.T) / 2.0, leading=6)
        v = dec.vectors
        assert sorted(dec.mu_to_lambda[:6]) == [0, 1, 2, 5, 6, 7]
        assert np.abs(v.T @ v - np.eye(6)).max() <= 1e-12


def test_graph_path_never_forms_the_modularity_matrix(monkeypatch, tmp_path):
    g = two_cliques_bridge(5)
    path = tmp_path / "bridge.tsv"
    path.write_text(dump_edge_list(g))
    expected = spectral_decomposition(g)

    def refuse(_):
        raise AssertionError("normalized_modularity called")

    monkeypatch.setattr(spectral, "normalized_modularity", refuse)
    dec = spectral_decomposition(g)
    assert dec.lambdas.tobytes() == expected.lambdas.tobytes()
    assert dec.vectors.tobytes() == expected.vectors.tobytes()
    assert main(["cluster", str(path), "--k", "2", "--seed", "0"]) == 0


def test_partial_solve_allocates_no_second_square_array():
    # a partial request holds the deflated block and n x r columns; the
    # bounds leave room for one (n - 1) x (n - 1) block and small vectors
    # but not for another n x n array beside it
    n = 900
    g = random_connected(np.random.default_rng(11), n)
    m = normalized_modularity(g)
    square = n * n * 8
    # spectral_decomposition never forms M: it holds only the block too
    for call, bound in ((lambda: eigendecompose(m, leading=2), 1.3 * square),
                        (lambda: spectral_decomposition(g, leading=2), 1.3 * square)):
        tracemalloc.start()
        try:
            dec = call()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert dec.vectors.shape == (n, 2)
        assert peak <= bound, f"peak {peak / square:.2f} n^2 doubles"


# bounded requests on the sparse path: eigsh on the deflated operator


def sparse_solve(g, leading, values, eps=None):
    """spectral_decomposition with the sparse path open to every graph."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(spectral, "SPARSE_MIN_N", 0)
        patch.setattr(spectral, "SPARSE_MAX_FILL", 1.0)
        return spectral_decomposition(g, leading=leading, values=values, eps=eps)


def assert_matches_dense(g, leading, values, eps_list=(0.5,)):
    n = g.n
    dense = spectral_decomposition(g, leading=leading)
    dec = sparse_solve(g, leading, values, min(eps_list, default=None))
    t = max(values, leading, 1)
    assert dec.n == n
    assert np.abs(dec.top_lambdas(t) - dense.lambdas[:t]).max() <= 1e-12
    assert np.abs(dec.top_mus(t) - dense.mus[:t]).max() <= 1e-12
    # every rank the partial names holds its value, and the bound covers
    # every magnitude it does not hold
    assert np.abs(dense.lambdas[dec.mu_to_lambda] - dec.mus).max() <= 1e-12
    assert np.abs(dense.mus[dec.mus.size:]).max(initial=0.0) <= dec.unsolved + 1e-12
    for eps in eps_list:
        assert structural_count(dec, eps) == structural_count(dense, eps)
    v = dec.vectors
    assert v.shape == (n, leading)
    assert np.abs(v[:, :n - 1].T @ dense.sqrt_degrees).max(initial=0.0) <= 1e-8
    if 0 < leading < n and abs(dense.mus[leading - 1]) - abs(dense.mus[leading]) > 1e-6:
        ref = dense.vectors
        assert np.abs(v @ v.T - ref @ ref.T).max() <= 1e-8
    return dec


@settings(max_examples=80, deadline=None)
@given(st.one_of(connected_graphs(), planted_graphs().map(lambda gk: gk[0])),
       st.integers(1, 8), st.integers(0, 3),
       st.lists(st.sampled_from([0.0, 0.05, 0.3, 0.5, 0.9]), max_size=2))
def test_sparse_path_matches_the_dense_solve(g, values, leading, eps_list):
    assume(leading <= g.n)
    dec = assert_matches_dense(g, leading, values, eps_list)
    t = max(values, leading, 1)
    # partial exactly when eigsh ran: 2t < n - 1, doubled while eps was low
    if 2 * t >= g.n - 1:
        assert dec.lambdas.size == g.n


def _cycle(n):
    w = np.zeros((n, n))
    i = np.arange(n)
    w[i, (i + 1) % n] = w[(i + 1) % n, i] = 1.0
    return WeightedGraph(w)


@pytest.mark.parametrize("family, held", [("complete", 8), ("expected-blocks", 8),
                                          ("cycle", 128), ("blow-up", 8)])
def test_sparse_path_on_exact_multiplicities(family, held):
    planted = BlockModel((100, 100, 100), np.array([[0.3, 0.05, 0.05],
                                                    [0.05, 0.3, 0.05],
                                                    [0.05, 0.05, 0.3]]))
    if family == "complete":
        g = complete_graph(300)
    elif family == "expected-blocks":
        g = expected_block_graph(planted)
    elif family == "cycle":
        g = _cycle(301)
    else:
        small = BlockModel((20, 20, 20), planted.probs)
        g = blow_up(generalized_random_graph(small, 3)[0], 5)
    # the cycle has about 200 magnitudes above 0.5: t doubles from 8 to 128
    dec = assert_matches_dense(g, 2, 8, (0.5,))
    assert dec.lambdas.size == held


def test_low_eps_doubles_the_request_until_the_count_is_exact(monkeypatch):
    # five planted blocks: four structural values near 0.7, the bulk below 0.3
    probs = np.full((5, 5), 0.02)
    np.fill_diagonal(probs, 0.9)
    g, _ = generalized_random_graph(BlockModel((40,) * 5, probs), 12)
    ks = []
    real = spectral.eigsh

    def spy(*args, **kwargs):
        # the solves, not the searches for missed copies (which keep no vectors)
        if kwargs["return_eigenvectors"]:
            ks.append(kwargs["k"])
        return real(*args, **kwargs)

    monkeypatch.setattr(spectral, "eigsh", spy)
    dec = assert_matches_dense(g, 2, 2, (0.3,))
    assert ks == [4, 8, 16]
    assert dec.lambdas.size == 8 and structural_count(dec, 0.3) == 4
    # below the bulk no bound ever covers eps, so the request ends dense
    ks.clear()
    dec = assert_matches_dense(g, 2, 2, (0.01,))
    assert ks == [4, 8, 16, 32, 64, 128] and dec.lambdas.size == g.n


def test_a_copy_eigsh_did_not_return_sends_the_request_to_the_dense_path(monkeypatch):
    # three twin pairs (adjacent, with the same four neighbours) add the
    # eigenvalue -12/16 = -0.75 three times below the bulk of a planted graph
    probs = np.full((3, 3), 0.05)
    np.fill_diagonal(probs, 0.3)
    base, _ = generalized_random_graph(BlockModel((40, 40, 40), probs), 6)
    n = base.n + 6
    w = np.zeros((n, n))
    w[:base.n, :base.n] = base.weights
    for pair, links in enumerate(np.random.default_rng(6).choice(base.n, (3, 4), replace=False)):
        i, j = base.n + 2 * pair, base.n + 2 * pair + 1
        w[i, j] = w[j, i] = 12.0
        w[i, links] = w[links, i] = w[j, links] = w[links, j] = 1.0
    g = WeightedGraph(w)
    dense = spectral_decomposition(g)
    assert np.sort(dense.lambdas)[:4] == pytest.approx([-0.75] * 3 + [-0.5], abs=0.2)
    assert np.sort(dense.lambdas)[:3] == pytest.approx([-0.75] * 3, abs=1e-14)
    real = spectral._extremes

    def one_copy_short(apply, m, t):
        # what Lanczos returns when its start vector leaves one copy out:
        # the t + 1 smallest values minus one copy of -0.75
        vals, vecs = real(apply, m, t + 1)
        keep = np.r_[0:t, t + 1:2 * t + 1]
        return vals[keep], vecs[:, keep]

    monkeypatch.setattr(spectral, "_extremes", one_copy_short)
    dec = sparse_solve(g, 2, 6)
    assert dec.lambdas.size == n
    assert dec.mus.tobytes() == dense.mus.tobytes()
    # without the search for hidden copies the partial would be wrong
    monkeypatch.setattr(spectral, "_hides_a_copy", lambda *args: False)
    wrong = sparse_solve(g, 2, 6)
    assert wrong.lambdas.size == 6
    assert np.abs(wrong.top_mus(6) - dense.mus[:6]).max() > 1e-3


def test_a_partial_decomposition_refuses_reads_past_what_it_solved():
    g, _ = generalized_random_graph(BlockModel((40, 40, 40), np.array(
        [[0.6, 0.05, 0.05], [0.05, 0.6, 0.05], [0.05, 0.05, 0.6]])), 4)
    dec = sparse_solve(g, 2, 3)
    assert dec.n == g.n == representatives(dec, g, 3).points.shape[0]
    assert dec.lambdas.size == 3 and dec.unsolved > 0.0
    assert dec.top_lambdas(3).size == 3 and dec.top_mus(3).size == 3
    assert relaxation_bounds(dec, 4)[0] == pytest.approx(dec.lambdas[:3].sum())
    for read in (lambda: dec.top_lambdas(4), lambda: dec.top_lambdas(None),
                 lambda: dec.top_mus(None), lambda: relaxation_bounds(dec, 5),
                 lambda: structural_count(dec, dec.unsolved / 2)):
        with pytest.raises(Unsolved):
            read()
    for read in (lambda: spectral_decomposition(g, values=-1),
                 lambda: dec.top_mus(-1), lambda: dec.top_lambdas(-1)):
        with pytest.raises(ValueError):
            read()
    assert structural_count(dec, dec.unsolved) == structural_count(
        spectral_decomposition(g), dec.unsolved)


def _planted_file(tmp_path, block, seed):
    probs = np.full((3, 3), 0.05)
    np.fill_diagonal(probs, 0.3)
    g, _ = generalized_random_graph(BlockModel((block,) * 3, probs), seed)
    path = tmp_path / "planted.tsv"
    path.write_text(dump_edge_list(g))
    return g, str(path)


def test_sparse_solver_failures_exit_3(monkeypatch, tmp_path, capsys):
    g, path = _planted_file(tmp_path, 40, 2)
    monkeypatch.setattr(spectral, "SPARSE_MIN_N", 0)
    real = spectral.eigsh

    def no_convergence(*args, **kwargs):
        raise ArpackNoConvergence("No convergence (37 iterations, 5/16 eigenvectors converged)",
                                  np.zeros(0), np.zeros((g.n - 1, 0)))

    def skewed(*args, **kwargs):
        if not kwargs["return_eigenvectors"]:
            return real(*args, **kwargs)
        vals, vecs = real(*args, **kwargs)
        return vals, np.roll(vecs, 1, axis=0)

    argv = ["cluster", path, "--k", "3", "--seed", "0", "--top", "8"]
    for fake, message in ((no_convergence, "37 iterations"), (skewed, "eigen-equation residual")):
        with monkeypatch.context() as patch:
            patch.setattr(spectral, "eigsh", fake)
            with pytest.raises(EigenFailure, match=message):
                spectral_decomposition(g, leading=2, values=8)
            assert main(argv) == 3
            err = capsys.readouterr().err
            assert "EigenFailure" in err and message in err
            # without --top every value is read, and the dense path never calls eigsh
            assert main(argv[:-2]) == 0
            capsys.readouterr()


def test_sparse_cluster_reports_are_deterministic_and_match_dense(monkeypatch, tmp_path, capsys):
    g, path = _planted_file(tmp_path, 400, 9)
    assert g.n >= spectral.SPARSE_MIN_N
    calls = []
    real = spectral.eigsh

    def spy(*args, **kwargs):
        calls.append((kwargs["k"], kwargs["return_eigenvectors"]))
        return real(*args, **kwargs)

    monkeypatch.setattr(spectral, "eigsh", spy)
    argv = ["cluster", path, "--k", "3", "--seed", "5", "--eps", "0.5", "--top", "8"]
    outs = []
    for _ in range(2):
        assert main(argv) == 0
        outs.append(capsys.readouterr().out)
    # per run: the solve, then the search for a copy it did not return
    assert calls == [(16, True), (1, False)] * 2
    assert outs[0] == outs[1]
    monkeypatch.setattr(spectral, "SPARSE_MIN_N", g.n + 1)
    assert main(argv) == 0
    dense = capsys.readouterr().out
    assert len(calls) == 4
    a, b = json.loads(outs[0]), json.loads(dense)
    assert a["clustering"].pop("labels") == b["clustering"].pop("labels")
    assert a["input"] == b["input"]
    assert a["spectrum"].pop("structural_counts") == b["spectrum"].pop("structural_counts")
    for part in ("spectrum", "clustering"):
        for key, value in a[part].items():
            assert np.abs(np.subtract(value, b[part][key])).max() <= 1e-12, key
