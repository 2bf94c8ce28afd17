import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from modspec import clustering
from modspec import (
    BadK,
    Partition,
    Representatives,
    TooLarge,
    WeightedGraph,
    ZeroVolume,
    k_variance,
    normalized_partition_vectors,
    representatives,
    spectral_decomposition,
    weighted_kmeans,
)
from oracles import _label_arrays, exhaustive_min_k_variance, subspace_distance_sq


def random_connected(rng, n):
    w = rng.random((n, n))
    w = np.triu(w, k=1)
    return WeightedGraph(w + w.T)


def random_partition(rng, n, k):
    while True:
        labels = rng.integers(0, k, size=n)
        if np.unique(labels).size == k:
            return labels


def test_partition_validation_and_accessors():
    p = Partition([0, 1, 1, 0], 2)
    assert p.n == 4 and p.k == 2
    assert p.members(1).tolist() == [1, 2]
    assert p.sizes().tolist() == [2, 2]
    assert Partition([], 1).n == 0
    with pytest.raises(BadK):
        Partition([0], 0)
    # k is an integer: a float is refused, numpy integers pass as ints
    for bad in (2.0, 1.5, "2", None):
        with pytest.raises(BadK, match="integer k"):
            Partition(np.array([0, 1]), bad)
    q = Partition(np.array([0, 1]), np.int64(2))
    assert type(q.k) is int and q.sizes().tolist() == [1, 1]
    with pytest.raises(ValueError):
        Partition([0, 2], 2)
    # labels are a 1-d integer array: floats are not truncated, strings not
    # parsed, and a 2-d array or booleans are refused
    for bad in ([0.9, 1.7], np.array([0.5, 1.5]), ["1", "0"], [[0, 1], [1, 0]],
                [True, False]):
        with pytest.raises(ValueError, match="1-d integer array"):
            Partition(bad, 2)


def test_representatives_moment_identities():
    rng = np.random.default_rng(5)
    for _ in range(5):
        g = random_connected(rng, 8)
        dec = spectral_decomposition(g)
        reps = representatives(dec, g, 4)
        assert reps.points.shape == (8, 3)
        d = reps.weights
        # degree-weighted mean is the origin, degree-weighted scatter is I
        assert np.linalg.norm(d @ reps.points) < 1e-10
        scatter = (reps.points * d[:, None]).T @ reps.points
        assert np.allclose(scatter, np.eye(3), atol=1e-10)


def test_representatives_bounds():
    rng = np.random.default_rng(6)
    g = random_connected(rng, 5)
    dec = spectral_decomposition(g)
    # k = 1 embeds every vertex as a point without coordinates
    reps = representatives(dec, g, 1)
    assert reps.points.shape == (5, 0)
    assert np.array_equal(reps.weights, g.degrees)
    with pytest.raises(BadK):
        representatives(dec, g, 0)
    with pytest.raises(BadK):
        representatives(dec, g, 6)
    with pytest.raises(ValueError):
        Representatives(np.zeros((3, 2)), np.zeros(4))
    # non-finite points and negative or non-finite weights; zero weights pass
    for pts, w in (([[0.0], [np.nan], [1.0], [2.0]], np.ones(4)),
                   ([[0.0], [np.inf], [1.0], [2.0]], np.ones(4)),
                   ([[0.0], [1.0], [2.0]], [1.0, -0.5, 1.0]),
                   ([[0.0], [1.0], [2.0]], [1.0, np.nan, 1.0])):
        with pytest.raises(ValueError):
            Representatives(pts, w)
    assert Representatives([[0.0], [1.0]], [0.0, 1.0]).weights.tolist() == [0.0, 1.0]


def test_k_variance_hand_example():
    pts = np.array([[0.0], [1.0], [10.0], [12.0]])
    w = np.array([1.0, 1.0, 1.0, 3.0])
    p = Partition([0, 0, 1, 1], 2)
    # cluster 0: center 0.5, cost 0.25+0.25; cluster 1: center 11.5, cost 2.25+0.75
    assert k_variance(pts, w, p) == pytest.approx(3.5)
    # an empty cluster adds nothing
    p3 = Partition([0, 0, 2, 2], 3)
    assert k_variance(pts, w, p3) == pytest.approx(3.5)


def test_k_variance_zero_weight_cluster():
    pts = np.array([[0.0], [4.0], [9.0]])
    w = np.array([1.0, 0.0, 0.0])
    p = Partition([0, 1, 1], 2)
    assert k_variance(pts, w, p) == 0.0


def test_label_arrays_enumeration_counts():
    # partitions of 4 points into <= 2 blocks: S(4,1) + S(4,2) = 8
    assert sum(1 for _ in _label_arrays(4, 2)) == 8
    # all partitions of 4 points: Bell(4) = 15
    assert sum(1 for _ in _label_arrays(4, 4)) == 15
    seen = [lab.copy().tolist() for lab in _label_arrays(3, 3)]
    assert seen == [[0, 0, 0], [0, 0, 1], [0, 1, 0], [0, 1, 1], [0, 1, 2]]


def test_exhaustive_matches_brute_force_value():
    rng = np.random.default_rng(7)
    pts = rng.random((6, 2))
    w = rng.random(6) + 0.1
    part, val = exhaustive_min_k_variance(pts, w, 2)
    assert val == pytest.approx(k_variance(pts, w, part), abs=1e-12)
    # check optimality against direct evaluation of every labeling
    best = np.inf
    for bits in range(2 ** 6):
        labels = [(bits >> i) & 1 for i in range(6)]
        p = Partition(labels, 2)
        best = min(best, k_variance(pts, w, p))
    assert val == pytest.approx(best, abs=1e-12)
    with pytest.raises(TooLarge):
        exhaustive_min_k_variance(np.zeros((13, 1)), np.ones(13), 2)


def test_kmeans_matches_exhaustive_on_small_instances():
    rng = np.random.default_rng(8)
    for trial in range(8):
        g = random_connected(rng, 7)
        dec = spectral_decomposition(g)
        for k in (2, 3):
            reps = representatives(dec, g, k)
            part, val = weighted_kmeans(reps, k, seed=trial)
            _, opt = exhaustive_min_k_variance(reps.points, reps.weights, k)
            assert val >= opt - 1e-12
            assert val == pytest.approx(opt, abs=1e-8)


def test_kmeans_recovers_separated_blobs():
    rng = np.random.default_rng(9)
    pts = np.vstack([rng.normal(0.0, 0.05, (10, 2)),
                     rng.normal(5.0, 0.05, (10, 2))])
    reps = Representatives(pts, np.ones(20))
    part, val = weighted_kmeans(reps, 2, seed=0)
    assert part.labels[:10].tolist() == [0] * 10
    assert part.labels[10:].tolist() == [1] * 10
    assert val < 0.2


def test_kmeans_determinism_and_canonical_labels():
    rng = np.random.default_rng(10)
    pts = rng.random((12, 2))
    reps = Representatives(pts, np.ones(12))
    p1, v1 = weighted_kmeans(reps, 3, seed=5)
    p2, v2 = weighted_kmeans(reps, 3, seed=5)
    assert np.array_equal(p1.labels, p2.labels) and v1 == v2
    # the winning restart's score is the reported k-variance, bit for bit
    assert v1 == k_variance(pts, np.ones(12), p1)
    # labels appear in first-use order
    first_seen = []
    for lab in p1.labels:
        if lab not in first_seen:
            first_seen.append(lab)
    assert first_seen == sorted(first_seen)
    # from 8 coordinates numpy's own sums take another order; the restarts
    # are still scored by the k_variance kernel
    pts9 = rng.random((40, 9))
    w9 = 0.5 + rng.random(40)
    p9, v9 = weighted_kmeans(Representatives(pts9, w9), 10, seed=5)
    assert v9 == k_variance(pts9, w9, p9)


def test_kmeans_translation_invariant():
    # shifting every point moves no center relative to the points, so the
    # partition and its cost stay put; an expanded sum-of-squares identity
    # loses both to cancellation at a shift of 1e6
    for seed in range(40):
        rng = np.random.default_rng(seed)
        pts = rng.random((200, 2))
        w = 0.5 + rng.random(200)
        part, val = weighted_kmeans(Representatives(pts, w), 3, seed=seed)
        shifted, sval = weighted_kmeans(Representatives(pts + 1e6, w), 3, seed=seed)
        assert np.array_equal(shifted.labels, part.labels)
        assert sval == pytest.approx(val, rel=1e-6)
        assert sval == k_variance(pts + 1e6, w, shifted)


def test_kmeans_edge_cases():
    reps = Representatives(np.zeros((4, 1)), np.ones(4))
    part, val = weighted_kmeans(reps, 1, seed=0)
    assert part.k == 1 and val == 0.0
    with pytest.raises(BadK):
        weighted_kmeans(reps, 5, seed=0)
    with pytest.raises(ZeroVolume):
        weighted_kmeans(Representatives(np.zeros((3, 1)), np.zeros(3)), 2, seed=0)
    with pytest.raises(ValueError, match="restarts=0 must be >= 1"):
        weighted_kmeans(reps, 2, restarts=0, seed=0)
    # k == n puts every point alone regardless of geometry
    rng = np.random.default_rng(11)
    pts = rng.random((5, 2))
    reps5 = Representatives(pts, np.ones(5))
    _, v5 = weighted_kmeans(reps5, 5, seed=0)
    assert v5 == pytest.approx(0.0, abs=1e-12)
    # points without coordinates, as representatives gives for k = 1
    part0, v0 = weighted_kmeans(Representatives(np.zeros((4, 0)), np.ones(4)), 2, seed=0)
    assert v0 == 0.0
    assert part0.sizes().tolist() == [1, 3]


# The k-means recipe that ran each restart on its own, kept as written (with
# MAX_ITER read from the module, so a test can lower the cap): the batched
# restarts must give the same labels and values, byte for byte.
def _recipe_centers(pts, w, labels, k):
    wa = np.bincount(labels, weights=w, minlength=k)
    live = wa > 0
    centers = np.zeros((k, pts.shape[1]))
    for c in range(pts.shape[1]):
        centers[live, c] = np.bincount(labels, weights=w * pts[:, c], minlength=k)[live] / wa[live]
    return centers, wa


def _recipe_cost(pts, w, labels, k):
    centers, _ = _recipe_centers(pts, w, labels, k)
    diff = pts - centers[labels]
    return float(w @ (diff * diff).sum(axis=1))


def _recipe_seed_centers(pts, w, k, rng):
    n = pts.shape[0]
    probs = w / w.sum()
    chosen = [int(rng.choice(n, p=probs))]
    for _ in range(1, k):
        centers = pts[chosen]
        d2 = ((pts[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2).min(axis=1)
        weight = w * d2
        s = weight.sum()
        if s > 0:
            nxt = int(rng.choice(n, p=weight / s))
        else:
            taken = set(chosen)
            nxt = next(i for i in range(n) if i not in taken)
        chosen.append(nxt)
    return pts[chosen].copy()


def _recipe_lloyd(pts, w, centers):
    n, k = pts.shape[0], centers.shape[0]
    labels = np.full(n, -1, dtype=np.intp)
    for _ in range(clustering.MAX_ITER):
        d2 = ((pts[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        new_labels = d2.argmin(axis=1).astype(np.intp)
        counts = np.bincount(new_labels, minlength=k)
        for a in np.flatnonzero(counts == 0):
            # move the point costing the most, taken from a cluster that keeps >= 1
            contrib = w * d2[np.arange(n), new_labels]
            eligible = counts[new_labels] > 1
            contrib = np.where(eligible, contrib, -1.0)
            j = int(contrib.argmax())
            counts[new_labels[j]] -= 1
            new_labels[j] = a
            counts[a] = 1
        moved = not np.array_equal(new_labels, labels)
        labels = new_labels
        # the stealing above leaves every cluster nonempty, so only a cluster
        # of zero weight needs a fallback: the plain mean of its members
        new_centers, wa = _recipe_centers(pts, w, labels, k)
        for a in np.flatnonzero(wa <= 0):
            new_centers[a] = pts[labels == a].mean(axis=0)
        shift = np.abs(new_centers - centers).max(initial=0.0)
        centers = new_centers
        if not moved or shift < 1e-10:
            break
    return labels


def _recipe_kmeans(pts, w, k, restarts, seed):
    best_labels, best_val = None, np.inf
    for r in range(restarts):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, r])))
        centers = _recipe_seed_centers(pts, w, k, rng)
        labels = _recipe_lloyd(pts, w, centers)
        val = _recipe_cost(pts, w, labels, k)
        if val < best_val - 1e-15:
            best_val, best_labels = val, labels
    return clustering._canonical_relabel(best_labels, k), best_val


@st.composite
def kmeans_inputs(draw):
    shape = draw(st.sampled_from(["spread", "tiny", "grid", "zero_weight_cluster"]))
    # at the tiny scales the centers of some restarts move less than 1e-10
    # while their labels would still change: those restarts stop early and
    # the others of their batch iterate on
    tiny = shape == "tiny"
    dim = draw(st.integers(1 if tiny else 0, 7))
    n = draw(st.integers(20 if tiny else 2, 30))
    k = draw(st.integers(2, 8) if tiny else st.one_of(st.just(n), st.integers(2, min(n, 8))))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if shape in ("spread", "tiny"):
        scales = [1e-10, 3e-10] if tiny else [1e-3, 1.0, 1e3]
        pts = rng.normal(size=(n, dim)) * draw(st.sampled_from(scales))
        w = rng.random(n) + 0.01
    else:
        # few distinct points, so clusters empty out and points are stolen
        pts = rng.integers(0, 3, size=(n, dim)).astype(float)
        w = rng.integers(0, 3, size=n).astype(float)
    if shape == "zero_weight_cluster":
        # the weighted points coincide, so seeding falls back to index
        # order and can start a cluster holding only zero-weight points
        pts[w > 0] = pts[0]
        w[:n // 2] = 0.0
    if w.sum() <= 0:
        w[-1] = 1.0
    restarts = draw(st.integers(2 if tiny else 1, 25))
    max_iter = draw(st.sampled_from([1, 2, clustering.MAX_ITER]))
    return pts, w, k, restarts, draw(st.integers(0, 1000)), max_iter


def _tiny_case(seed):
    # 30 points at scale 1e-10 in 4 clusters: some of the 20 restarts stop
    # on the center shift while the others iterate on
    rng = np.random.default_rng(seed)
    return rng.normal(size=(30, 2)) * 1e-10, rng.random(30) + 0.01, 4, 20, seed, clustering.MAX_ITER


@settings(max_examples=300)
@given(kmeans_inputs())
@example(_tiny_case(2))
@example(_tiny_case(3))
def test_kmeans_matches_its_reference_recipe(case):
    pts, w, k, restarts, seed, max_iter = case
    with mock.patch.object(clustering, "MAX_ITER", max_iter):
        part, val = weighted_kmeans(Representatives(pts, w), k, restarts=restarts, seed=seed)
        labels, ref = _recipe_kmeans(pts, w, k, restarts, seed)
    assert part.labels.tobytes() == labels.tobytes()
    assert val.hex() == ref.hex()


def test_kmeans_batches_do_not_change_the_bytes(monkeypatch):
    rng = np.random.default_rng(15)
    pts = rng.random((40, 2))
    w = 0.5 + rng.random(40)
    reps = Representatives(pts, w)
    default, dval = weighted_kmeans(reps, 3, restarts=20, seed=3)
    # the exhaustive search scores its 365 partitions of 7 points in batches
    # too; one by one, the recipe's scores pick the same optimum
    best_labels, best_val = None, np.inf
    for labels in _label_arrays(7, 3):
        val = _recipe_cost(pts[:7], w[:7], labels, 3)
        if val < best_val - 1e-15:
            best_val, best_labels = val, labels.copy()
    # one restart or partition per batch; then batches of 3 restarts
    # (20 = 6 * 3 + 2) and of 17 partitions (365 = 21 * 17 + 8)
    for cells in (None, 1, 3 * 40 * 3):
        if cells is not None:
            monkeypatch.setattr(clustering, "_BATCH_CELLS", cells)
        part, val = weighted_kmeans(reps, 3, restarts=20, seed=3)
        assert part.labels.tobytes() == default.labels.tobytes()
        assert val.hex() == dval.hex()
        epart, evalue = exhaustive_min_k_variance(pts[:7], w[:7], 3)
        assert epart.labels.tobytes() == best_labels.tobytes()
        assert evalue.hex() == best_val.hex()


def test_kmeans_batches_bound_memory(monkeypatch):
    # 200 restarts at once would hold 200 x 30000 x 3 distances (144 MB) in
    # one temporary; the batches keep the peak far below that.  Two Lloyd
    # iterations suffice to run every batch.
    monkeypatch.setattr(clustering, "MAX_ITER", 2)
    rng = np.random.default_rng(16)
    reps = Representatives(rng.random((30000, 2)), np.ones(30000))
    tracemalloc.start()
    try:
        weighted_kmeans(reps, 3, restarts=200, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24e6


def test_normalized_partition_vectors_orthonormal():
    rng = np.random.default_rng(12)
    g = random_connected(rng, 9)
    labels = random_partition(rng, 9, 3)
    p = Partition(labels, 3)
    z = normalized_partition_vectors(g, p)
    b = np.sqrt(g.degrees)[:, None] * z
    assert np.allclose(b.T @ b, np.eye(3), atol=1e-12)
    with pytest.raises(ZeroVolume):
        normalized_partition_vectors(g, Partition(np.zeros(9, dtype=int), 2))


def test_subspace_distance_equals_k_variance():
    # the clustering cost of any partition equals the summed squared distances
    # of the leading eigenvectors from the partition-indicator subspace
    rng = np.random.default_rng(13)
    for _ in range(6):
        g = random_connected(rng, 8)
        dec = spectral_decomposition(g)
        for k in (2, 3, 4):
            reps = representatives(dec, g, k)
            labels = random_partition(rng, 8, k)
            p = Partition(labels, k)
            s2 = k_variance(reps.points, reps.weights, p)
            dist = subspace_distance_sq(dec, g, p, k)
            assert dist == pytest.approx(s2, abs=1e-8)


def test_subspace_distance_k1_is_zero():
    rng = np.random.default_rng(14)
    g = random_connected(rng, 6)
    dec = spectral_decomposition(g)
    p = Partition(np.zeros(6, dtype=int), 1)
    assert subspace_distance_sq(dec, g, p, 1) == pytest.approx(0.0, abs=1e-12)
