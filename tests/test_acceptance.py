"""End-to-end acceptance checks, one numbered criterion per test.

Each test prints a single pass/fail line (visible under ``pytest -s``) before
asserting, so a full run yields a 13-line scoreboard.  Criterion 9 pins the
eigenvalue-count threshold at 0.1.  On the planted three-block model
(p_in 0.3, p_out 0.05) the non-structural bulk of |mu| scales like about
4.8/sqrt(n): near 0.39 at block size 50, where counting above 0.1 gives
about 103, and near 0.088 at block size 1000, where 0.1 lies inside the gap
below the two structural values near 0.63.  Criterion 9 therefore runs at
block size 1000.  A networkx oracle confirms the spectrum and the count at
block size 50, and the supplementary test at the end checks recovery there
with the threshold 0.5 placed inside that smaller graph's gap.
"""
import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from modspec import (
    BlockModel,
    Partition,
    WeightedGraph,
    cut_norm_exact,
    expected_block_graph,
    generalized_random_graph,
    modularity,
    normalized_cut_value,
    normalized_partition_vectors,
    relaxation_bounds,
    representatives,
    spectral_convergence,
    spectral_decomposition,
    structural_count,
    subspace_convergence,
    volume_regularity_alpha,
    weighted_kmeans,
)
from modspec.generators import (
    complete_bipartite,
    complete_graph,
    path_graph,
    two_cliques_bridge,
)
from oracles import (
    _label_arrays,
    cut_norm_bound,
    cut_norm_exact_bilinear,
    exhaustive_min_k_variance,
    sin_theta_check,
)


def check(num, ok, detail):
    print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def random_connected(rng, n):
    w = rng.random((n, n))
    w = np.triu(w, k=1)
    return WeightedGraph(w + w.T)


def corpus():
    graphs = []
    for n in range(3, 13):
        graphs.append((f"complete_{n}", complete_graph(n)))
    for a, b in ((2, 3), (3, 3), (4, 2)):
        graphs.append((f"bipartite_{a}_{b}", complete_bipartite(a, b)))
    for n in (2, 5, 9):
        graphs.append((f"path_{n}", path_graph(n)))
    for m in (2, 3, 4, 5):
        graphs.append((f"bridge_{m}", two_cliques_bridge(m)))
    graphs.append(("blocks_2x3", expected_block_graph(
        BlockModel((3, 3), np.array([[0.5, 0.2], [0.2, 0.5]])))))
    graphs.append(("blocks_3x4", expected_block_graph(
        BlockModel((4, 4, 4), np.array([[0.6, 0.1, 0.1],
                                        [0.1, 0.6, 0.1],
                                        [0.1, 0.1, 0.6]])))))
    graphs.append(("blocks_flat", expected_block_graph(
        BlockModel((4, 4), np.full((2, 2), 0.3)))))
    model = BlockModel((8, 8), np.array([[0.7, 0.2], [0.2, 0.7]]))
    for seed in (0, 1, 2):
        g, _ = generalized_random_graph(model, seed)
        assert g.is_connected()
        graphs.append((f"random_{seed}", g))
    return graphs


def test_criterion_01_closed_form_spectra():
    worst = 0.0
    for n in range(3, 13):
        dec = spectral_decomposition(complete_graph(n))
        expect = np.concatenate([[0.0], np.full(n - 1, -1.0 / (n - 1))])
        worst = max(worst, float(np.abs(np.sort(dec.lambdas) - np.sort(expect)).max()))
    for a, b in ((2, 3), (3, 3), (4, 2)):
        dec = spectral_decomposition(complete_bipartite(a, b))
        worst = max(worst, abs(float(dec.mus[0]) + 1.0))
        if dec.n > 1:
            worst = max(worst, float(np.abs(dec.mus[1:]).max()))
    check(1, worst <= 1e-10,
          f"13 closed-form spectra match, worst deviation {worst:.2e} (tol 1e-10)")


def test_criterion_02_duality_identity():
    rng = np.random.default_rng(101)
    worst = 0.0
    cases = 0
    while cases < 200:
        n = int(rng.integers(4, 31))
        k = int(rng.integers(2, 5))
        if k > n:
            continue
        g = random_connected(rng, n)
        labels = rng.integers(0, k, size=n)
        if np.unique(labels).size != k:
            continue
        p = Partition(labels, k)
        resid = abs(modularity(g, p) + normalized_cut_value(g, p) - (k - 1))
        worst = max(worst, resid)
        cases += 1
    check(2, worst <= 1e-10,
          f"200 modularity/cut pairs sum to k-1, worst residual {worst:.2e} (tol 1e-10)")


def test_criterion_03_relaxation_bound():
    rng = np.random.default_rng(102)
    violations = 0
    worst_margin = -np.inf
    for trial in range(20):
        n = int(rng.integers(5, 11))
        g = random_connected(rng, n)
        dec = spectral_decomposition(g)
        for k in (2, 3):
            upper, _ = relaxation_bounds(dec, k)
            for labels in _label_arrays(n, k):
                if np.unique(labels).size != k:
                    continue
                p = Partition(labels, k)
                margin = modularity(g, p) - upper
                worst_margin = max(worst_margin, margin)
                if margin > 1e-10:
                    violations += 1
    check(3, violations == 0,
          f"exhaustive partitions of 20 graphs, {violations} violations, "
          f"max value-minus-bound {worst_margin:.2e} (tol 1e-10)")


def _mixing_table_oracle(g):
    # every nonempty subset pair scored in one table, first maximum in mask
    # order
    n = g.n
    bits = ((np.arange(1, 1 << n)[:, None] >> np.arange(n)) & 1).astype(float)
    vols = bits @ g.degrees
    prod = np.outer(vols, vols)
    with np.errstate(invalid="ignore", divide="ignore"):
        ratio = np.abs((bits @ g.weights) @ bits.T - prod) / np.sqrt(prod)
    ratio[prod <= 0] = 0.0
    x, y = np.unravel_index(int(np.argmax(ratio)), ratio.shape)
    return float(ratio[x, y]), np.flatnonzero(bits[x]), np.flatnonzero(bits[y])


def test_criterion_04_expander_mixing():
    rng = np.random.default_rng(103)
    violations = 0
    worst = -np.inf
    sizes = [6 + (t % 5) for t in range(18)] + [11, 12]
    for t, n in enumerate(sizes):
        g = random_connected(rng, n).normalize_volume()
        dec = spectral_decomposition(g)
        best, _, _ = _mixing_table_oracle(g)
        margin = best - dec.spectral_norm
        worst = max(worst, margin)
        if margin > 1e-10:
            violations += 1
    check(4, violations == 0,
          f"all subset pairs on 20 graphs stay within the spectral norm, "
          f"{violations} violations, max ratio-minus-norm {worst:.2e} (tol 1e-10)")


def test_criterion_05_cut_norm():
    rng = np.random.default_rng(104)
    bound_violations = 0
    mismatches = 0
    for _ in range(1000):
        m = int(rng.integers(1, 11))
        n = int(rng.integers(1, 11))
        # entries on the 1/256 grid keep every subset sum exactly
        # representable, so the two enumerations must agree bit for bit
        mat = rng.integers(-256, 257, size=(m, n)) / 256.0
        val, _, _ = cut_norm_exact(mat)
        if val > cut_norm_bound(mat) + 1e-10:
            bound_violations += 1
        if val != cut_norm_exact_bilinear(mat):
            mismatches += 1
    rank1_worst = 0.0
    for _ in range(100):
        u = rng.integers(0, 257, size=int(rng.integers(1, 11))) / 256.0
        v = rng.integers(0, 257, size=int(rng.integers(1, 11))) / 256.0
        mat = np.outer(u, v)
        val, _, _ = cut_norm_exact(mat)
        rank1_worst = max(rank1_worst, abs(val - u.sum() * v.sum()))
    tight_worst = 0.0
    for _ in range(50):
        c = float(rng.integers(1, 257)) / 256.0
        mat = np.full((int(rng.integers(1, 11)), int(rng.integers(1, 11))), c)
        val, _, _ = cut_norm_exact(mat)
        tight_worst = max(tight_worst, abs(val - cut_norm_bound(mat)))
    ok = (bound_violations == 0 and mismatches == 0
          and rank1_worst <= 1e-10 and tight_worst <= 1e-10)
    check(5, ok,
          f"1000 matrices: {bound_violations} bound violations, {mismatches} strategy "
          f"mismatches; rank-1 value error {rank1_worst:.2e}, constant-matrix bound "
          f"gap {tight_worst:.2e} (tol 1e-10)")


def test_criterion_06_eigen_equation():
    # transformed vectors obey (1/d_i) sum_j w_ij psi_j = mu psi_i; the
    # degree direction itself satisfies the same relation with value 1
    # because the centering term it was projected against reappears
    worst = 0.0
    pairs = 0
    for name, g in corpus():
        h = g.normalize_volume()
        dec = spectral_decomposition(h)
        inv_sqrt_d = 1.0 / np.sqrt(h.degrees)
        sd_col = dec.vectors[:, -1] if dec.n else None
        for mu, u in zip(dec.mus, dec.vectors.T):
            psi = inv_sqrt_d * u
            lhs = (h.weights @ psi) / h.degrees
            is_degree_dir = abs(float(u @ dec.sqrt_degrees)) > 0.5
            target = 1.0 if is_degree_dir else float(mu)
            resid = float(np.abs(lhs - target * psi).max())
            worst = max(worst, resid)
            pairs += 1
    check(6, worst <= 1e-8,
          f"{pairs} eigenpairs over the corpus, worst residual {worst:.2e} (tol 1e-8)")


def test_criterion_07_k_variance_identity():
    rng = np.random.default_rng(105)
    worst = 0.0
    worst_trivial = 0.0
    for trial in range(20):
        n = int(rng.integers(5, 11))
        g = random_connected(rng, n)
        dec = spectral_decomposition(g)
        for k in (2, 3):
            reps = representatives(dec, g, k)
            part, val = exhaustive_min_k_variance(reps.points, reps.weights, k)
            assert np.unique(part.labels).size == k
            z = normalized_partition_vectors(g, part)
            basis = np.sqrt(g.degrees)[:, None] * z
            total = 0.0
            cols = [dec.sqrt_degrees] + [dec.vectors[:, i] for i in range(k - 1)]
            for pos, u in enumerate(cols):
                proj = basis.T @ u
                term = max(1.0 - float(proj @ proj), 0.0)
                if pos == 0:
                    worst_trivial = max(worst_trivial, term)
                total += term
            worst = max(worst, abs(total - val))
    ok = worst <= 1e-8 and worst_trivial <= 1e-12
    check(7, ok,
          f"40 minimizers match the subspace-distance sum, worst gap {worst:.2e} "
          f"(tol 1e-8); degree-direction term at most {worst_trivial:.2e} (tol 1e-12)")


def test_criterion_08_noiseless_regularity():
    instances = [
        BlockModel((4, 4), np.array([[0.6, 0.1], [0.1, 0.6]])),
        BlockModel((8, 8), np.array([[0.5, 0.05], [0.05, 0.5]])),
        BlockModel((5, 8), np.array([[0.7, 0.2], [0.2, 0.4]])),
        BlockModel((4, 5, 6), np.array([[0.6, 0.1, 0.2],
                                        [0.1, 0.5, 0.15],
                                        [0.2, 0.15, 0.7]])),
        BlockModel((8, 7, 6), np.array([[0.8, 0.1, 0.1],
                                        [0.1, 0.6, 0.1],
                                        [0.1, 0.1, 0.4]])),
    ]
    worst = 0.0
    pairs = 0
    for model in instances:
        g = expected_block_graph(model).normalize_volume()
        blocks = model.block_of_vertex()
        for a, b in itertools.combinations(range(model.k), 2):
            alpha, _ = volume_regularity_alpha(
                g, np.flatnonzero(blocks == a), np.flatnonzero(blocks == b))
            worst = max(worst, alpha)
            pairs += 1
    check(8, worst <= 1e-10,
          f"{pairs} inter-block pairs on 5 planted weight matrices, "
          f"max alpha {worst:.2e} (tol 1e-10)")


PLANTED_PROBS = ((0.3, 0.05, 0.05),
                 (0.05, 0.3, 0.05),
                 (0.05, 0.05, 0.3))


def _planted_run(model, seed, eps):
    g, blocks = generalized_random_graph(model, seed)
    # the path `cluster` takes: every eigenvalue, the k-1 = 2 leading vectors
    dec = spectral_decomposition(g, leading=2)
    part, _ = weighted_kmeans(representatives(dec, g, 3), 3, seed=seed)
    best = 0.0
    for perm in itertools.permutations(range(3)):
        mapped = np.array([perm[c] for c in part.labels])
        best = max(best, float(np.mean(mapped == blocks)))
    return structural_count(dec, eps), np.abs(dec.mus[:3]), best


def planted_three_block_runs(size, eps):
    """Seeds 0..19 of the planted three-block model with blocks of ``size``.

    Each run keeps only the structural count at ``eps``, the top three |mu|
    and the best label agreement over block relabellings, so one
    decomposition at a time is held in memory.
    """
    model = BlockModel((size, size, size), PLANTED_PROBS)
    return [_planted_run(model, seed, eps) for seed in range(20)]


def test_criterion_09_planted_recovery():
    # the non-structural bulk of |mu| scales like 4.8/sqrt(n) on this model,
    # so at n = 3000 it ends near 0.088, below the literal 0.1, while the two
    # structural eigenvalues stay near 0.63
    runs = planted_three_block_runs(1000, 0.1)
    counts = [c for c, _, _ in runs]
    count_hits = sum(1 for c in counts if c == 2)
    recov_hits = sum(1 for _, _, agr in runs if agr >= 0.95)
    bulk_edge = max(float(top[2]) for _, top, _ in runs)
    signal_edge = min(float(top[1]) for _, top, _ in runs)
    ok = count_hits >= 18 and recov_hits >= 18
    check(9, ok,
          f"count(eps=0.1)==2 in {count_hits}/20 (measured counts "
          f"{min(counts)}..{max(counts)}; gap between third |mu| <= {bulk_edge:.4f} "
          f"and second |mu| >= {signal_edge:.4f}); recovery>=95% in "
          f"{recov_hits}/20 (need both >=18)")


def test_planted_spectrum_matches_networkx_oracle():
    # the nonzero modularity eigenvalues are 1 - lambda_L over the normalized
    # Laplacian spectrum with its trivial zero dropped; sqrt(d) adds one 0
    nx = pytest.importorskip("networkx")
    model = BlockModel((50, 50, 50), PLANTED_PROBS)
    worst = 0.0
    for seed in range(20):
        g, _ = generalized_random_graph(model, seed)
        dec = spectral_decomposition(g)
        lap = np.sort(nx.normalized_laplacian_spectrum(nx.from_numpy_array(g.weights)))
        oracle = np.sort(np.append(np.abs(1.0 - lap[1:]), 0.0))[::-1]
        mags = np.sort(np.abs(dec.mus))[::-1]
        worst = max(worst, float(np.abs(mags - oracle).max()))
        count = structural_count(dec, 0.1)
        assert count == int(np.sum(oracle > 0.1)), f"seed {seed}: count {count}"
    assert worst <= 1e-10, f"worst |mu| deviation from networkx {worst:.2e}"


def test_criterion_10_sin_theta_bound():
    rng = np.random.default_rng(106)
    violations = 0
    worst = -np.inf
    for _ in range(1000):
        n = 6
        q, _ = np.linalg.qr(rng.normal(size=(n, n)))
        high = rng.uniform(4.0, 6.0, size=2)
        low = rng.uniform(-2.0, 2.0, size=n - 2)
        a = q @ np.diag(np.concatenate([high, low])) @ q.T
        a = (a + a.T) / 2.0
        e = rng.normal(size=(n, n)) * rng.uniform(0.01, 0.15)
        b = a + (e + e.T) / 2.0
        lhs, rhs = sin_theta_check(a, b, (3.5, 7.0), (-2.6, 2.6))
        margin = lhs - rhs
        worst = max(worst, margin)
        if margin > 1e-8:
            violations += 1
    check(10, violations == 0,
          f"1000 separated matrix pairs, {violations} violations, "
          f"max lhs-minus-rhs {worst:.2e} (tol 1e-8)")


def test_criterion_11_testability_trend():
    model = BlockModel((200, 200), ((0.3, 0.05), (0.05, 0.3)))
    g, _ = generalized_random_graph(model, 0)
    table = spectral_convergence(g, (50, 100, 200), 50, 1, 0)
    meds = [m["err_1"] for m in table.medians]
    decreasing = all(meds[i] > meds[i + 1] for i in range(len(meds) - 1))
    ok = decreasing and meds[-1] < 0.05
    check(11, ok,
          f"median top-eigenvalue errors {[round(m, 5) for m in meds]} over "
          f"m=(50,100,200), strictly decreasing={decreasing}, final<0.05={meds[-1] < 0.05}")


def test_criterion_12_subspace_trend():
    model = BlockModel((4, 4, 4), np.array([[0.6, 0.1, 0.1],
                                            [0.1, 0.6, 0.1],
                                            [0.1, 0.1, 0.6]]))
    g = expected_block_graph(model)
    table = subspace_convergence(g, (1, 2, 4, 8), 3)
    dists = [r["distance"] for r in table.rows]
    exact = all(d <= 1e-10 for d in dists)
    non_increasing = all(dists[i] >= dists[i + 1] for i in range(len(dists) - 1))
    positives = [d for d in dists if d > 0]
    halved = (not positives) or dists[-1] <= positives[0] / 2.0
    ok = exact or (non_increasing and halved)
    check(12, ok,
          f"projection distances {['%.2e' % d for d in dists]} for t=(1,2,4,8); "
          f"all within 1e-10 of zero={exact}")


def test_criterion_13_determinism(tmp_path):
    graph_path = tmp_path / "g.tsv"
    # the child runs in tmp_path, so a relative PYTHONPATH entry would not
    # resolve there; put the absolute source directory first
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))

    def cli(*args):
        proc = subprocess.run([sys.executable, "-m", "modspec.cli", *args],
                              capture_output=True, cwd=str(tmp_path), env=env)
        assert proc.returncode == 0, proc.stderr.decode()
        return proc.stdout

    cli("generate", "block", "--sizes", "12,12", "--p", "0.6,0.1;0.1,0.6",
        "--seed", "2", "-o", str(graph_path))
    first_graph = graph_path.read_bytes()
    cli("generate", "block", "--sizes", "12,12", "--p", "0.6,0.1;0.1,0.6",
        "--seed", "2", "-o", str(graph_path))
    same = [first_graph == graph_path.read_bytes()]

    for args in (
        ("spectrum", str(graph_path), "--eps", "0.2"),
        ("cluster", str(graph_path), "--k", "2", "--seed", "9"),
        ("regularity", str(graph_path), "--k", "2", "--seed", "9",
         "--exact-max", "10", "--samples", "64"),
    ):
        same.append(cli(*args) == cli(*args))

    for mode, extra in (("spectrum", ("--j", "1")), ("kvariance", ("--k", "2"))):
        out1 = tmp_path / f"{mode}_1.csv"
        out2 = tmp_path / f"{mode}_2.csv"
        base = ("converge", str(graph_path), "--mode", mode, "--schedule", "6,12",
                "--trials", "3", "--seed", "4", *extra)
        cli(*base, "-o", str(out1))
        cli(*base, "-o", str(out2))
        same.append(out1.read_bytes() == out2.read_bytes())

    check(13, all(same),
          f"{sum(same)}/{len(same)} seeded commands byte-identical across reruns")


def test_supplementary_recovery_with_calibrated_threshold():
    # the (50, 50, 50) instances have their spectral gap between roughly 0.41
    # (bulk edge) and 0.62 (signal), so 0.5 separates exactly two values
    runs = planted_three_block_runs(50, 0.5)
    count_hits = sum(1 for c, _, _ in runs if c == 2)
    recov_hits = sum(1 for _, _, agr in runs if agr >= 0.95)
    ok = count_hits >= 18 and recov_hits >= 18
    print(f"supplementary: {'PASS' if ok else 'FAIL'} - count(eps=0.5)==2 in "
          f"{count_hits}/20; recovery>=95% in {recov_hits}/20")
    assert ok
