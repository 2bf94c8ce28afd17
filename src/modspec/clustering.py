"""Vertex representatives, weighted k-means, and subspace distances.

Representative points are rows of the eigenvector matrix scaled by inverse
square-root degrees.  All objectives weight point j by its degree d_j, and
cluster centers are degree-weighted means, so the clustering objective equals
the degree-weighted within-cluster sum of squares.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BadK, TooLarge, ZeroDegree, ZeroVolume
from .graph import WeightedGraph
from .spectral import SpectralDecomposition

EXHAUSTIVE_LIMIT = 12
MAX_ITER = 300  # Lloyd iterations per k-means restart


@dataclass(frozen=True)
class Partition:
    """Cluster labels in {0..k-1} plus per-cluster weight volumes."""

    labels: np.ndarray
    k: int
    cluster_volumes: np.ndarray

    def __post_init__(self):
        labels = np.asarray(self.labels, dtype=np.intp).copy()
        if self.k < 1:
            raise BadK("partition needs k >= 1")
        if labels.size and (labels.min() < 0 or labels.max() >= self.k):
            raise ValueError("labels out of range")
        vols = np.asarray(self.cluster_volumes, dtype=float).copy()
        if vols.shape != (self.k,):
            raise ValueError("cluster_volumes must have length k")
        labels.setflags(write=False)
        vols.setflags(write=False)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "cluster_volumes", vols)

    @classmethod
    def from_labels(cls, labels, k: int, weights) -> "Partition":
        lab = np.asarray(labels, dtype=np.intp)
        w = np.asarray(weights, dtype=float)
        if w.shape != lab.shape:
            raise ValueError("weights must align with labels")
        vols = np.bincount(lab, weights=w, minlength=k) if lab.size else np.zeros(k)
        return cls(lab, k, vols)

    @property
    def n(self) -> int:
        return self.labels.size

    def members(self, a: int) -> np.ndarray:
        return np.flatnonzero(self.labels == a)

    def sizes(self) -> np.ndarray:
        return np.bincount(self.labels, minlength=self.k)


@dataclass(frozen=True)
class Representatives:
    """Embedded vertex points with their degree weights."""

    points: np.ndarray
    weights: np.ndarray
    k: int

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float).copy()
        w = np.asarray(self.weights, dtype=float).copy()
        if pts.ndim != 2 or w.ndim != 1 or pts.shape[0] != w.size:
            raise ValueError("points must be (n, dim) with matching weights")
        pts.setflags(write=False)
        w.setflags(write=False)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", w)

    @property
    def n(self) -> int:
        return self.points.shape[0]


def representatives(dec: SpectralDecomposition, g: WeightedGraph, k: int) -> Representatives:
    """Rows of the inverse-sqrt-degree-scaled top k-1 eigenvectors.

    The points r_i satisfy sum_i d_i r_i = 0 and sum_i d_i r_i r_i^T = I at
    any consistent weight scale, because the eigenvectors are orthonormal and
    orthogonal to the square-root degree vector.  For k = 1 the points have
    no coordinates, and every partition's clustering objective is 0.
    """
    if not 1 <= k <= g.n:
        raise BadK(f"k={k} outside [1, {g.n}]")
    if dec.n != g.n:
        raise ValueError("decomposition does not match the graph")
    if dec.vectors.shape[1] < k - 1:
        raise ValueError(f"decomposition holds fewer than k-1={k - 1} eigenvectors")
    if (g.degrees <= 0).any():
        raise ZeroDegree("representatives need positive degrees")
    pts = dec.vectors[:, : k - 1] / np.sqrt(g.degrees)[:, None]
    return Representatives(pts, g.degrees, k)


def _centers(pts, w, labels, k) -> tuple[np.ndarray, np.ndarray]:
    """Weighted cluster means and cluster weights; a zero-weight cluster gets
    the origin."""
    wa = np.bincount(labels, weights=w, minlength=k)
    live = wa > 0
    centers = np.zeros((k, pts.shape[1]))
    for c in range(pts.shape[1]):
        centers[live, c] = np.bincount(labels, weights=w * pts[:, c], minlength=k)[live] / wa[live]
    return centers, wa


def _cost(pts, w, labels, k) -> float:
    """sum_j w_j |p_j - c_{l_j}|^2 with c the weighted cluster means."""
    centers, _ = _centers(pts, w, labels, k)
    diff = pts - centers[labels]
    return float(w @ (diff * diff).sum(axis=1))


def k_variance(points, weights, partition: Partition) -> float:
    """Weighted within-cluster sum of squared distances to weighted centers.

    Empty clusters contribute 0, and so does a cluster whose total weight is 0.
    """
    pts = np.asarray(points, dtype=float)
    w = np.asarray(weights, dtype=float)
    return _cost(pts, w, partition.labels, partition.k)


def _canonical_relabel(labels: np.ndarray, k: int) -> np.ndarray:
    # number the clusters in order of first appearance
    used, first = np.unique(labels, return_index=True)
    mapping = np.full(k, -1, dtype=np.intp)
    mapping[used[np.argsort(first)]] = np.arange(used.size)
    return mapping[labels]


def _seed_centers(pts, w, k, rng):
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


def _lloyd(pts, w, centers):
    n, k = pts.shape[0], centers.shape[0]
    labels = np.full(n, -1, dtype=np.intp)
    for _ in range(MAX_ITER):
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
        new_centers, wa = _centers(pts, w, labels, k)
        for a in np.flatnonzero(wa <= 0):
            new_centers[a] = pts[labels == a].mean(axis=0)
        shift = np.abs(new_centers - centers).max(initial=0.0)
        centers = new_centers
        if not moved or shift < 1e-10:
            break
    return labels


def weighted_kmeans(reps: Representatives, k: int, *, restarts: int = 20,
                    seed: int = 0) -> tuple[Partition, float]:
    """Best local minimum of the weighted clustering objective over restarts.

    Seeding picks centers with probability proportional to weight times
    squared distance to the nearest chosen center; empty clusters during
    iteration steal the point with the largest weighted cost, and each
    restart stops after at most MAX_ITER Lloyd iterations.  Ties between
    restarts keep the earlier restart, so the result is seed-deterministic.
    """
    if restarts < 1:
        raise ValueError(f"restarts={restarts} must be >= 1")
    pts, w = reps.points, reps.weights
    n = pts.shape[0]
    if not 1 <= k <= n:
        raise BadK(f"k={k} outside [1, {n}]")
    if w.sum() <= 0:
        raise ZeroVolume("point weights must have positive total")
    if k == 1:
        labels = np.zeros(n, dtype=np.intp)
        part = Partition.from_labels(labels, 1, w)
        return part, k_variance(pts, w, part)
    best_labels, best_val = None, np.inf
    for r in range(restarts):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, r])))
        centers = _seed_centers(pts, w, k, rng)
        labels = _lloyd(pts, w, centers)
        val = _cost(pts, w, labels, k)
        if val < best_val - 1e-15:
            best_val, best_labels = val, labels
    # relabeling moves no point to another center, so best_val is the
    # k-variance of the returned partition
    part = Partition.from_labels(_canonical_relabel(best_labels, k), k, w)
    return part, best_val


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
    most k blocks, by direct enumeration; the first optimum found wins ties."""
    pts = np.asarray(points, dtype=float)
    w = np.asarray(weights, dtype=float)
    n = pts.shape[0]
    if n > EXHAUSTIVE_LIMIT:
        raise TooLarge(f"n={n} exceeds enumeration limit {EXHAUSTIVE_LIMIT}")
    if not 1 <= k <= n:
        raise BadK(f"k={k} outside [1, {n}]")
    best_labels, best_val = None, np.inf
    for labels in _label_arrays(n, k):
        val = _cost(pts, w, labels, k)
        if val < best_val - 1e-15:
            best_val = val
            best_labels = labels.copy()
    part = Partition.from_labels(best_labels, k, w)
    return part, best_val


def normalized_partition_vectors(g: WeightedGraph, p: Partition) -> np.ndarray:
    """Indicator columns scaled to 1/sqrt(cluster volume); degree-scaled
    versions of these columns are orthonormal."""
    if p.n != g.n:
        raise ValueError("partition does not match the graph")
    vols = np.bincount(p.labels, weights=g.degrees, minlength=p.k)
    if (vols <= 0).any():
        raise ZeroVolume("every cluster needs positive volume")
    z = np.zeros((g.n, p.k))
    z[np.arange(g.n), p.labels] = 1.0 / np.sqrt(vols[p.labels])
    return z


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
