import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modspec import (
    BlockModel,
    Partition,
    TooLarge,
    WeightedGraph,
    ZeroVolume,
    cut_norm_exact,
    expected_block_graph,
    generalized_random_graph,
    regularity_certificate,
    spectral_decomposition,
    volume_regularity_alpha,
)
from modspec import regularity
from modspec.generators import two_cliques_bridge
from oracles import NoSeparation, cut_norm_bound, cut_norm_exact_bilinear, sin_theta_check


def random_connected(rng, n):
    w = rng.random((n, n))
    w = np.triu(w, k=1)
    return WeightedGraph(w + w.T)


def centered_block(g, a, b):
    """W_AB - rho d_A d_B^T, whose cut norm over the normalizer is alpha."""
    d = g.degrees
    return g.weights[np.ix_(a, b)] - g.relative_density(a, b) * np.outer(d[a], d[b])


def alpha_normalizer(g, a, b):
    return g.volume(a) if list(a) == list(b) else np.sqrt(g.volume(a) * g.volume(b))


def test_cut_norm_exact_matches_the_bilinear_enumeration():
    rng = np.random.default_rng(32)
    for _ in range(12):
        mat = rng.normal(size=(4, 4))
        val, rsel, csel = cut_norm_exact(mat)
        assert val == pytest.approx(cut_norm_exact_bilinear(mat), abs=1e-12)
        assert abs(mat[np.ix_(rsel, csel)].sum()) == pytest.approx(val, abs=1e-12)
    with pytest.raises(TooLarge):
        cut_norm_exact(np.zeros((13, 12)))
    with pytest.raises(ValueError):
        cut_norm_exact(np.zeros(4))


def test_cut_norm_zero_matrix_witness_is_empty():
    for shape in ((3, 3), (4, 2), (2, 4)):
        val, rsel, csel = cut_norm_exact(np.zeros(shape))
        assert val == 0.0
        assert rsel.size == 0 and csel.size == 0


@pytest.mark.parametrize("routine", [cut_norm_exact, cut_norm_exact_bilinear, cut_norm_bound],
                         ids=["exact", "bilinear", "bound"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_cut_norm_routines_reject_non_finite_matrices(routine, bad):
    # a matrix with NaN or inf has no cut norm, and the closed form of the
    # exact routine would skip a NaN entry without a word
    with pytest.raises(ValueError, match="finite"):
        routine(np.array([[bad, 1.0], [2.0, 3.0]]))


ENUM_LIMIT_SHAPES = [(12, 12), (16, 8), (8, 16), (1, 23), (23, 1)]


@pytest.mark.parametrize("shape", ENUM_LIMIT_SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
def test_cut_norm_exact_at_the_enumeration_limit(shape):
    rng = np.random.default_rng(sum(shape) * 100 + shape[0])
    mat = rng.integers(-256, 257, size=shape) / 256.0
    val, rsel, csel = cut_norm_exact(mat)
    if max(shape) <= 16:
        # the oracle's bit table for 23 columns alone would take 1.5 GB
        assert val == cut_norm_exact_bilinear(mat)
    else:
        # with one row or column the best pair takes the positive or the
        # negative entries
        assert val == max(mat[mat > 0].sum(), -mat[mat < 0].sum())
    # on the 1/256 grid every subset sum is exact, so the witness gives the
    # value to the last bit
    assert abs(mat[np.ix_(rsel, csel)].sum()) == val


def test_cut_norm_exact_tie_rule():
    # first maximizing mask of the shorter side, then {r > 0} unless {r < 0}
    # scores more or scores the same with a smaller mask
    cases = [
        ([[1.0, -1.0]], [0], [0]),
        ([[-1.0, 1.0]], [0], [0]),
        ([[1.0, -2.0]], [0], [1]),
        ([[1.0, -1.0], [-1.0, 1.0]], [0], [0]),
        ([[-1.0], [1.0]], [0], [0]),
        ([[0.0, 0.0], [1.0, -1.0], [0.0, 0.0]], [1], [0]),
        # m > n enumerates the columns: column mask 1 already scores 2
        ([[-1.0, -1.0], [-1.0, 1.0], [0.0, 1.0]], [0, 1], [0]),
    ]
    for mat, rows, cols in cases:
        val, rsel, csel = cut_norm_exact(mat)
        assert (rsel.tolist(), csel.tolist()) == (rows, cols), mat
        assert abs(np.asarray(mat)[np.ix_(rsel, csel)].sum()) == val


def test_exact_branch_allocates_no_table_of_pairs():
    # the enumeration holds 2^min(m, n) subset sums of the shorter side; a
    # table over both sides at m + n = 24 would take 2^24 cells (128 MiB)
    rng = np.random.default_rng(41)
    bound = 4 * 2**20
    calls = [lambda mat=rng.normal(size=shape): cut_norm_exact(mat)
             for shape in ENUM_LIMIT_SHAPES]
    g = random_connected(rng, 24).normalize_volume()
    calls.append(lambda: volume_regularity_alpha(g, range(12), range(12, 24)))
    for call in calls:
        tracemalloc.start()
        try:
            call()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= bound, f"peak {peak / 2**20:.2f} MiB"


def test_cut_norm_strategies_agree():
    rng = np.random.default_rng(33)
    for _ in range(15):
        mat = rng.normal(size=(5, 4))
        v1, _, _ = cut_norm_exact(mat)
        v2 = cut_norm_exact_bilinear(mat)
        assert v1 == pytest.approx(v2, abs=1e-12)
    # matrices on a power-of-two grid make every subset sum exact, so the
    # two strategies must agree to the last bit
    for _ in range(15):
        mat = rng.integers(-256, 257, size=(5, 5)) / 256.0
        v1, _, _ = cut_norm_exact(mat)
        v2 = cut_norm_exact_bilinear(mat)
        assert v1 == v2


def test_cut_norm_bound_holds():
    rng = np.random.default_rng(34)
    for _ in range(25):
        mat = rng.normal(size=(5, 5))
        val, _, _ = cut_norm_exact(mat)
        assert val <= cut_norm_bound(mat) + 1e-10
    assert cut_norm_bound(np.zeros((3, 4))) == 0.0
    assert cut_norm_bound(np.zeros((0, 4))) == 0.0


def test_cut_norm_nonnegative_rank_one():
    rng = np.random.default_rng(35)
    for _ in range(10):
        u = rng.random(4) + 0.05
        v = rng.random(5) + 0.05
        mat = np.outer(u, v)
        val, rsel, csel = cut_norm_exact(mat)
        # everything-in is optimal for a non-negative matrix
        assert val == pytest.approx(u.sum() * v.sum(), abs=1e-10)
        assert rsel.size == 4 and csel.size == 5
    # constant matrices make the spectral bound tight
    const = np.full((4, 6), 0.7)
    val, _, _ = cut_norm_exact(const)
    assert val == pytest.approx(cut_norm_bound(const), abs=1e-10)


def test_alpha_exact_on_two_cliques():
    g = two_cliques_bridge(4).normalize_volume()
    a = list(range(4))
    b = list(range(4, 8))
    alpha, (wx, wy) = volume_regularity_alpha(g, a, b)
    # witness reproduces the value
    rho = g.relative_density(a, b)
    denom = np.sqrt(g.volume(a) * g.volume(b))
    disc = abs(g.weighted_cut(wx, wy) - rho * g.volume(wx) * g.volume(wy))
    assert disc / denom == pytest.approx(alpha, abs=1e-12)
    alpha_in, _ = volume_regularity_alpha(g, a, a)
    assert alpha_in >= 0.0
    # exact alpha is the cut norm of the centered block, checked against the
    # independent bilinear enumeration, for cross and within-cluster pairs
    rng = np.random.default_rng(40)
    h = random_connected(rng, 11).normalize_volume()
    odd, even = [1, 3, 5, 7, 9], [0, 2, 4, 6, 8, 10]
    for graph, x, y in ((g, a, b), (g, a, a), (h, even, odd), (h, odd, odd)):
        val, _ = volume_regularity_alpha(graph, x, y)
        oracle = cut_norm_exact_bilinear(centered_block(graph, x, y))
        assert val == pytest.approx(oracle / alpha_normalizer(graph, x, y),
                                    rel=1e-12, abs=1e-15)


def test_alpha_validation():
    g = two_cliques_bridge(4).normalize_volume()
    with pytest.raises(ValueError):
        volume_regularity_alpha(g, [0, 1], [1, 2])
    with pytest.raises(ZeroVolume):
        volume_regularity_alpha(g, [], [0, 1])
    with pytest.raises(TooLarge):
        volume_regularity_alpha(blow_up_big(), list(range(13)), list(range(13, 26)))
    with pytest.raises(ValueError):
        volume_regularity_alpha(g, [0, 1], [2, 3], samples=10)


def blow_up_big():
    from modspec import blow_up
    return blow_up(two_cliques_bridge(2), 7).normalize_volume()


def test_alpha_sampled_bounded_by_exact_and_monotone():
    rng = np.random.default_rng(36)
    g = random_connected(rng, 10).normalize_volume()
    a = list(range(5))
    b = list(range(5, 10))
    exact, _ = volume_regularity_alpha(g, a, b)
    prev = -1.0
    for samples in (10, 50, 200):
        val, (wx, wy) = volume_regularity_alpha(g, a, b, samples=samples, seed=9)
        assert val <= exact + 1e-12
        # for one seed, more samples can only raise the refined best
        assert val >= prev - 1e-15
        prev = val
    assert prev > 0.0
    # the same on 30+30 planted pairs, too large for the exact branch
    model = BlockModel((30, 30), np.array([[0.3, 0.05], [0.05, 0.3]]))
    pa, pb = list(range(30)), list(range(30, 60))
    for seed in range(30):
        planted = generalized_random_graph(model, seed)[0].normalize_volume()
        for x, y in ((pa, pb), (pa, pa)):
            prev = -1.0
            for samples in (5, 20, 80, 320):
                val, _ = volume_regularity_alpha(planted, x, y, samples=samples, seed=seed)
                assert val >= prev - 1e-15
                prev = val
    # the sampled witness reproduces alpha and no single-element flip of it
    # raises the discrepancy: it is a 1-flip local optimum
    for x, y in ((a, b), (a, a)):
        c = centered_block(g, x, y)
        denom = alpha_normalizer(g, x, y)
        val, (wx, wy) = volume_regularity_alpha(g, x, y, samples=40, seed=3)
        xv = np.isin(x, wx).astype(float)
        yv = np.isin(y, wy).astype(float)
        assert abs(xv @ c @ yv) / denom == pytest.approx(val, rel=1e-12)
        for vec in (xv, yv):
            for i in range(vec.size):
                vec[i] = 1.0 - vec[i]
                assert abs(xv @ c @ yv) / denom <= val + 1e-12
                vec[i] = 1.0 - vec[i]


# The local search that rebuilt both sign vectors and all flip scores on
# every flip, kept as written (with FLIP_CAP read from the module, so a test
# can lower the cap): the in-place scores must give the same value and
# witness, byte for byte.
def _recipe_local_search(c, xbits, ybits):
    x = xbits.astype(float)
    y = ybits.astype(float)
    cy = c @ y
    xc = x @ c
    value = float(x @ cy)
    for _ in range(regularity.FLIP_CAP):
        sx = 1.0 - 2.0 * x
        sy = 1.0 - 2.0 * y
        cand = np.abs(value + np.concatenate((sx * cy, sy * xc)))
        pos = int(np.argmax(cand))
        if cand[pos] - abs(value) <= 1e-15:
            break
        if pos < x.size:
            value += sx[pos] * cy[pos]
            x[pos] = 1.0 - x[pos]
            xc += sx[pos] * c[pos]
        else:
            pos -= x.size
            value += sy[pos] * xc[pos]
            y[pos] = 1.0 - y[pos]
            cy += sy[pos] * c[:, pos]
    return float(abs(value)), x > 0.5, y > 0.5


@st.composite
def local_search_inputs(draw):
    shape = draw(st.sampled_from(["general", "row", "column"]))
    m = 1 if shape == "row" else draw(st.integers(1, 30))
    n = 1 if shape == "column" else draw(st.integers(1, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kind = draw(st.sampled_from(["float", "integer", "zero"]))
    if kind == "float":
        c = rng.normal(size=(m, n)) * draw(st.sampled_from([1e-6, 1.0, 1e6]))
    elif kind == "integer":
        # few distinct values, so many flips tie for the best score
        c = rng.integers(-2, 3, size=(m, n)).astype(float)
    else:
        c = np.zeros((m, n))
    xbits = rng.random(m) < 0.5
    ybits = rng.random(n) < 0.5
    cap = draw(st.sampled_from([1, 2, regularity.FLIP_CAP]))
    return c, xbits, ybits, cap


@settings(max_examples=400)
@given(local_search_inputs())
def test_local_search_matches_its_reference_recipe(case):
    c, xbits, ybits, cap = case
    with mock.patch.object(regularity, "FLIP_CAP", cap):
        value, x, y = regularity._local_search(c, xbits, ybits)
        ref, rx, ry = _recipe_local_search(c, xbits, ybits)
    assert value.hex() == ref.hex()
    assert x.dtype == rx.dtype and x.tobytes() == rx.tobytes()
    assert y.dtype == ry.dtype and y.tobytes() == ry.tobytes()


def test_alpha_sampled_at_a_flip_cap_of_one(monkeypatch):
    model = BlockModel((30, 30), np.array([[0.3, 0.05], [0.05, 0.3]]))
    g = generalized_random_graph(model, 4)[0].normalize_volume()
    a, b = list(range(30)), list(range(30, 60))
    kw = dict(samples=40, seed=5)
    search = regularity._local_search
    searches = []

    def recorded(c, xbits, ybits):
        out = search(c, xbits, ybits)
        searches.append((xbits.copy(), ybits.copy(), out))
        return out

    monkeypatch.setattr(regularity, "_local_search", recorded)
    full, _ = volume_regularity_alpha(g, a, b, **kw)
    first = searches[0][2][0]
    searches.clear()
    monkeypatch.setattr(regularity, "FLIP_CAP", 1)
    alpha, (wx, wy) = volume_regularity_alpha(g, a, b, **kw)
    # the first search needs more than one flip, so one flip stops it short
    assert searches[0][2][0] < first
    assert alpha < full
    # the recipe at the same cap gives the same alpha and witness
    monkeypatch.setattr(regularity, "_local_search", _recipe_local_search)
    ref, (rx, ry) = volume_regularity_alpha(g, a, b, **kw)
    assert alpha.hex() == ref.hex()
    assert wx.tobytes() == rx.tobytes() and wy.tobytes() == ry.tobytes()
    # the witness is the first best search's result, one flip from its start
    values = [out[0] for _, _, out in searches]
    xs, ys, (_, bx, by) = searches[values.index(max(values))]
    assert np.array_equal(np.flatnonzero(bx), wx)
    assert np.array_equal(np.flatnonzero(by) + 30, wy)
    assert (bx != xs).sum() + (by != ys).sum() == 1


def test_regularity_certificate_noiseless_blocks():
    model = BlockModel((5, 5), np.array([[0.6, 0.1], [0.1, 0.6]]))
    g = expected_block_graph(model).normalize_volume()
    dec = spectral_decomposition(g)
    labels = np.array([0] * 5 + [1] * 5)
    p = Partition.from_labels(labels, 2, g.degrees)
    rep = regularity_certificate(g, dec, p, 2)
    assert rep.k == 2
    assert len(rep.pairs) == 3
    assert rep.bound == pytest.approx(np.sqrt(4.0) * rep.s + rep.eps, abs=1e-12)
    assert rep.min_size_ratio == pytest.approx(0.5)
    inter = [q for q in rep.pairs if q.a != q.b]
    assert len(inter) == 1
    # a planted two-block weight matrix is perfectly regular across blocks
    assert inter[0].method == "exact"
    assert inter[0].alpha <= 1e-10


def test_regularity_certificate_method_selection():
    rng = np.random.default_rng(37)
    g = random_connected(rng, 30).normalize_volume()
    dec = spectral_decomposition(g)
    labels = np.array([0] * 15 + [1] * 15)
    p = Partition.from_labels(labels, 2, g.degrees)
    rep = regularity_certificate(g, dec, p, 2, samples=200, seed=1)
    assert all(q.method == "sampled" for q in rep.pairs)
    skip = regularity_certificate(g, dec, p, 2, samples=0)
    assert all(q.method == "skipped" for q in skip.pairs)
    assert all(q.alpha is None and q.witness_x is None for q in skip.pairs)
    # seeded reruns agree exactly
    rep2 = regularity_certificate(g, dec, p, 2, samples=200, seed=1)
    assert [q.alpha for q in rep.pairs] == [q.alpha for q in rep2.pairs]
    with pytest.raises(ValueError):
        regularity_certificate(g, dec, p, 3)
    empty = Partition.from_labels(np.zeros(30, dtype=int), 2, g.degrees)
    with pytest.raises(ZeroVolume):
        regularity_certificate(g, dec, empty, 2)


def test_regularity_intra_pair_budget_uses_doubled_size():
    # 13 vertices per cluster: inter pair fits exactly (26 > 24 fails, so use
    # sizes where inter fits but intra does not: |A|=|B|=12 gives inter 24,
    # intra 24; |A|=13 makes intra 26 > 24 while inter with |B|=11 is 24)
    rng = np.random.default_rng(38)
    g = random_connected(rng, 24).normalize_volume()
    labels = np.array([0] * 13 + [1] * 11)
    p = Partition.from_labels(labels, 2, g.degrees)
    dec = spectral_decomposition(g)
    rep = regularity_certificate(g, dec, p, 2, samples=50, seed=0)
    methods = {(q.a, q.b): q.method for q in rep.pairs}
    assert methods[(0, 0)] == "sampled"
    assert methods[(0, 1)] == "exact"
    assert methods[(1, 1)] == "exact"


def test_sin_theta_inequality():
    rng = np.random.default_rng(39)
    for _ in range(20):
        q, _ = np.linalg.qr(rng.normal(size=(6, 6)))
        a = q @ np.diag([5.0, 4.7, 1.2, 0.8, -0.5, -1.0]) @ q.T
        a = (a + a.T) / 2.0
        e = rng.normal(size=(6, 6)) * 0.05
        b = a + (e + e.T) / 2.0
        lhs, rhs = sin_theta_check(a, b, (4.0, 6.0), (-2.0, 2.0))
        assert lhs <= rhs + 1e-8


def test_sin_theta_errors():
    a = np.diag([3.0, 1.0])
    with pytest.raises(NoSeparation):
        sin_theta_check(a, a, (10.0, 11.0), (0.0, 4.0))
    with pytest.raises(NoSeparation):
        sin_theta_check(a, a, (0.5, 3.5), (0.5, 3.5))
    with pytest.raises(ValueError):
        sin_theta_check(np.zeros((2, 3)), np.zeros((2, 3)), (0, 1), (0, 1))
    with pytest.raises(ValueError):
        sin_theta_check(np.zeros((2, 2)), np.zeros((3, 3)), (0, 1), (0, 1))
    with pytest.raises(ValueError):
        sin_theta_check(np.array([[0.0, 1.0], [0.0, 0.0]]), np.zeros((2, 2)), (0, 1), (0, 1))
