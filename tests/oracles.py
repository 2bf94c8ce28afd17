"""Reference computations that the tests compare the engine against.

No command runs these.  Each is a deliberate independent oracle: the
bilinear cut-norm enumeration and the singular-value bound check
``regularity.cut_norm_exact``, the exhaustive k-variance minimum checks
weighted k-means, the subspace distance checks the k-variance identity, and
the sin-theta check gives both sides of the projection perturbation bound.
The exhaustive search reads k-means' batch size and cost kernel through the
``clustering`` module, so a test that patches the batch size reaches it too.
"""
from __future__ import annotations

import itertools

import numpy as np

from modspec import clustering
from modspec.clustering import Partition, normalized_partition_vectors
from modspec.errors import BadK, ModspecError, TooLarge
from modspec.graph import WeightedGraph
from modspec.regularity import ENUM_LIMIT, _finite_matrix
from modspec.spectral import SpectralDecomposition, eigendecompose

EXHAUSTIVE_LIMIT = 12
_CHUNK = 1 << 22  # max float64 cells materialized at once by enumerations


class NoSeparation(ModspecError):
    """Selected eigenvalue groups are not separated, or a selection is empty."""


def _bit_table(n: int) -> np.ndarray:
    """All 2^n inclusion vectors as a (2^n, n) float array, mask order."""
    masks = np.arange(1 << n, dtype=np.uint32)
    return ((masks[:, None] >> np.arange(n)[None, :]) & 1).astype(float)


def cut_norm_exact_bilinear(a) -> float:
    """Cut norm by maximizing |x^T A y| over 0/1 vectors; value only.

    Independent of :func:`cut_norm_exact`: builds the inclusion-vector tables
    and goes through two matrix products instead of subset-sum doubling.
    """
    mat = _finite_matrix(a)
    m, n = mat.shape
    if m + n > ENUM_LIMIT:
        raise TooLarge(f"m+n={m + n} exceeds enumeration limit {ENUM_LIMIT}")
    bx = _bit_table(m)
    by = _bit_table(n)
    left = bx @ mat
    best = 0.0
    rows_per = max(1, _CHUNK >> n)
    for start in range(0, 1 << m, rows_per):
        stop = min(start + rows_per, 1 << m)
        vals = np.abs(left[start:stop] @ by.T)
        best = max(best, float(vals.max()))
    return best


def cut_norm_bound(a) -> float:
    """sqrt(m n) times the largest singular value, an upper cut-norm bound."""
    mat = _finite_matrix(a)
    m, n = mat.shape
    if m == 0 or n == 0 or not mat.any():
        return 0.0
    gram = mat.T @ mat
    top = float(np.linalg.eigvalsh((gram + gram.T) / 2.0)[-1])
    return float(np.sqrt(m * n) * np.sqrt(max(top, 0.0)))


def sin_theta_check(a_mat, b_mat, a_interval, b_interval) -> tuple[float, float]:
    """Both sides of the projection perturbation bound for two symmetric matrices.

    Eigenvalues of the first matrix inside ``a_interval`` and of the second
    inside ``b_interval`` (closed intervals) designate the two spectral
    projections; the separation is the smallest distance between the selected
    eigenvalue sets.  Returns (left side, right side); the left side never
    exceeds the right beyond roundoff.
    """
    a = np.asarray(a_mat, dtype=float)
    b = np.asarray(b_mat, dtype=float)
    if a.shape != b.shape:
        raise ValueError("matrices must share a shape")
    dec_a, dec_b = eigendecompose(a), eigendecompose(b)
    va, vb = dec_a.mus, dec_b.mus
    lo_a, hi_a = float(a_interval[0]), float(a_interval[1])
    lo_b, hi_b = float(b_interval[0]), float(b_interval[1])
    sel_a = (va >= lo_a) & (va <= hi_a)
    sel_b = (vb >= lo_b) & (vb <= hi_b)
    if not sel_a.any() or not sel_b.any():
        raise NoSeparation("an eigenvalue selection is empty")
    delta = float(np.abs(va[sel_a][:, None] - vb[sel_b][None, :]).min())
    if delta <= 0.0:
        raise NoSeparation("selected eigenvalue sets are not separated")
    # |P_a X P_b|_F = |U_a^T X U_b|_F for orthonormal bases U: no projector
    ua, ub = dec_a.vectors[:, sel_a], dec_b.vectors[:, sel_b]
    lhs = float(np.linalg.norm(ua.T @ ub, "fro"))
    rhs = float(np.linalg.norm(ua.T @ (a - b) @ ub, "fro") / delta)
    return lhs, rhs


def _label_arrays(n: int, kmax: int):
    # restricted growth strings with at most kmax blocks, canonical block order
    labels = np.zeros(n, dtype=np.intp)
    maxes = np.zeros(n, dtype=np.intp)  # maxes[i] = max(labels[:i+1])
    while True:
        yield labels
        i = n - 1
        while i > 0:
            cap = min(maxes[i - 1] + 1, kmax - 1)
            if labels[i] < cap:
                break
            i -= 1
        if i == 0:
            return
        labels[i] += 1
        maxes[i] = max(maxes[i - 1], labels[i])
        for j in range(i + 1, n):
            labels[j] = 0
            maxes[j] = maxes[i]


def exhaustive_min_k_variance(points, weights, k: int) -> tuple[Partition, float]:
    """Global minimum of the weighted objective over all partitions into at
    most k blocks, by direct enumeration; the first optimum found wins ties.
    Partitions are scored in batches by the kernel that scores k-means."""
    pts = np.asarray(points, dtype=float)
    w = np.asarray(weights, dtype=float)
    n = pts.shape[0]
    if n > EXHAUSTIVE_LIMIT:
        raise TooLarge(f"n={n} exceeds enumeration limit {EXHAUSTIVE_LIMIT}")
    if not 1 <= k <= n:
        raise BadK(f"k={k} outside [1, {n}]")
    best_labels, best_val = None, np.inf
    labelings = _label_arrays(n, k)
    per_batch = max(1, clustering._BATCH_CELLS // (n * max(k, pts.shape[1])))
    while batch := [labels.copy() for labels in itertools.islice(labelings, per_batch)]:
        for labels, val in zip(batch, clustering._cost(pts, w, np.array(batch), k)):
            if val < best_val - 1e-15:
                best_val, best_labels = val, labels
    part = Partition(best_labels, k)
    return part, best_val


def subspace_distance_sq(dec: SpectralDecomposition, g: WeightedGraph,
                         p: Partition, k: int) -> float:
    """Sum of squared distances of the square-root degree vector and the top
    k-1 eigenvectors from the span of the degree-scaled partition vectors."""
    if p.k != k:
        raise BadK("partition cluster count must equal k")
    if not 1 <= k <= g.n:
        raise BadK(f"k={k} outside [1, {g.n}]")
    z = normalized_partition_vectors(g, p)
    basis = np.sqrt(g.degrees)[:, None] * z
    if dec.sqrt_degrees is None:
        raise ValueError("decomposition lacks the degree vector")
    if dec.vectors.shape[1] < k - 1:
        raise ValueError(f"decomposition holds fewer than k-1={k - 1} eigenvectors")
    total = 0.0
    cols = [dec.sqrt_degrees] + [dec.vectors[:, i] for i in range(k - 1)]
    for u in cols:
        proj = basis.T @ u
        total += max(1.0 - float(proj @ proj), 0.0)
    return total
