"""Vertex representatives and weighted k-means.

Representative points are rows of the eigenvector matrix scaled by inverse
square-root degrees.  All objectives weight point j by its degree d_j, and
cluster centers are degree-weighted means, so the clustering objective equals
the degree-weighted within-cluster sum of squares.  k-means runs its restarts
as batches on (restarts, n, k) arrays; each restart keeps its own seed
stream, stopping rule and MAX_ITER cap, so the result equals running the
restarts one by one.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BadK, ZeroDegree, ZeroVolume
from .graph import WeightedGraph
from .spectral import SpectralDecomposition

MAX_ITER = 300  # Lloyd iterations per k-means restart
# labelings x points x max(clusters, coordinates) held in one batch of k-means
# restarts
_BATCH_CELLS = 1 << 18


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
        if not np.isfinite(pts).all():
            raise ValueError("points must be finite")
        if not (np.isfinite(w).all() and (w >= 0).all()):
            raise ValueError("weights must be finite and nonnegative")
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


def _sq_dist(a, b) -> np.ndarray:
    """Squared distances between broadcastable arrays of points, whose last
    axis holds the coordinates.  Coordinates are added left to right, which
    below 8 of them is the order of numpy's own last-axis sum."""
    d2 = np.zeros(np.broadcast_shapes(a.shape, b.shape)[:-1])
    for c in range(a.shape[-1]):
        diff = a[..., c] - b[..., c]
        diff *= diff
        d2 += diff
    return d2


def _centers(pts, w, labels, k) -> tuple[np.ndarray, np.ndarray]:
    """Weighted cluster means (m, k, dim) and cluster weights (m, k) of m
    labelings (m, n); a zero-weight cluster gets the origin."""
    m = labels.shape[0]
    # offset each row's labels so one bincount sums every row, point by point
    # in input order, as a bincount of that row alone would
    idx = (labels + k * np.arange(m)[:, None]).ravel()

    def sums(weights):
        return np.bincount(idx, weights=np.tile(weights, m), minlength=m * k).reshape(m, k)

    wa = sums(w)
    live = wa > 0
    centers = np.zeros((m, k, pts.shape[1]))
    for c in range(pts.shape[1]):
        np.divide(sums(w * pts[:, c]), wa, out=centers[:, :, c], where=live)
    return centers, wa


def _cost(pts, w, labels, k) -> list[float]:
    """sum_j w_j |p_j - c_{l_j}|^2, with c the weighted cluster means, for
    each of m labelings (m, n)."""
    centers, _ = _centers(pts, w, labels, k)
    own = _sq_dist(pts, centers[np.arange(labels.shape[0])[:, None], labels])
    return [float(w @ row) for row in own]


def k_variance(points, weights, partition: Partition) -> float:
    """Weighted within-cluster sum of squared distances to weighted centers.

    Empty clusters contribute 0, and so does a cluster whose total weight is 0.
    """
    pts = np.asarray(points, dtype=float)
    w = np.asarray(weights, dtype=float)
    return _cost(pts, w, partition.labels[None, :], partition.k)[0]


def _canonical_relabel(labels: np.ndarray, k: int) -> np.ndarray:
    # number the clusters in order of first appearance
    used, first = np.unique(labels, return_index=True)
    mapping = np.full(k, -1, dtype=np.intp)
    mapping[used[np.argsort(first)]] = np.arange(used.size)
    return mapping[labels]


def _seed_centers(pts, w, k, rngs) -> np.ndarray:
    """Initial centers (m, k, dim), one row per generator: each row draws its
    first center by weight and the next ones by weight times squared
    distance to the nearest center it has chosen."""
    n = pts.shape[0]
    probs = w / w.sum()
    chosen = np.empty((len(rngs), k), dtype=np.intp)
    chosen[:, 0] = [rng.choice(n, p=probs) for rng in rngs]
    for i in range(1, k):
        near = _sq_dist(pts, pts[chosen[:, i - 1], None, :])
        d2 = near if i == 1 else np.minimum(d2, near)
        weight = w * d2
        for r, rng in enumerate(rngs):
            s = weight[r].sum()
            if s > 0:
                chosen[r, i] = rng.choice(n, p=weight[r] / s)
            else:
                taken = set(chosen[r, :i].tolist())
                chosen[r, i] = next(j for j in range(n) if j not in taken)
    return pts[chosen]


def _steal(w, d2, labels, counts) -> None:
    # give each empty cluster the point costing the most, taken from a
    # cluster that keeps >= 1; labels and counts are updated in place
    n = labels.size
    for a in np.flatnonzero(counts == 0):
        contrib = w * d2[np.arange(n), labels]
        eligible = counts[labels] > 1
        contrib = np.where(eligible, contrib, -1.0)
        j = int(contrib.argmax())
        counts[labels[j]] -= 1
        labels[j] = a
        counts[a] = 1


def _lloyd(pts, w, centers) -> np.ndarray:
    """Final labels (m, n) of Lloyd iterations from m rows of initial
    centers.  A row leaves the batch once its labels stop changing or its
    centers move less than 1e-10, or after MAX_ITER iterations."""
    m, k = centers.shape[:2]
    out = np.empty((m, pts.shape[0]), dtype=np.intp)
    rows = np.arange(m)  # rows of out still iterating
    labels = np.full(out.shape, -1, dtype=np.intp)
    for _ in range(MAX_ITER):
        d2 = _sq_dist(pts[:, None, :], centers[:, None, :, :])
        new_labels = d2.argmin(axis=2)
        offsets = k * np.arange(rows.size)[:, None]
        counts = np.bincount((new_labels + offsets).ravel(),
                             minlength=rows.size * k).reshape(-1, k)
        for i in np.flatnonzero((counts == 0).any(axis=1)):
            _steal(w, d2[i], new_labels[i], counts[i])
        moved = (new_labels != labels).any(axis=1)
        labels = new_labels
        # the stealing above leaves every cluster nonempty, so only a cluster
        # of zero weight needs a fallback: the plain mean of its members
        new_centers, wa = _centers(pts, w, labels, k)
        for i, a in zip(*np.nonzero(wa <= 0)):
            new_centers[i, a] = pts[labels[i] == a].mean(axis=0)
        shift = np.abs(new_centers - centers).max(axis=(1, 2), initial=0.0)
        centers = new_centers
        done = ~moved | (shift < 1e-10)
        out[rows[done]] = labels[done]
        rows, labels, centers = rows[~done], labels[~done], centers[~done]
        if not rows.size:
            break
    out[rows] = labels
    return out


def weighted_kmeans(reps: Representatives, k: int, *, restarts: int = 20,
                    seed: int = 0) -> tuple[Partition, float]:
    """Best local minimum of the weighted clustering objective over restarts.

    Restart r draws from its own generator, seeded with (seed, r).  Seeding
    picks centers with probability proportional to weight times squared
    distance to the nearest chosen center; empty clusters during iteration
    steal the point with the largest weighted cost, and each restart stops
    on its own rule, after at most MAX_ITER Lloyd iterations.  Restarts run
    together in batches of at most _BATCH_CELLS distances, with the same
    result as running them one by one.  Ties between restarts keep the
    earlier restart, so the result is seed-deterministic.
    """
    if restarts < 1:
        raise ValueError(f"restarts={restarts} must be >= 1")
    pts, w = reps.points, reps.weights
    n = pts.shape[0]
    if not 1 <= k <= n:
        raise BadK(f"k={k} outside [1, {n}]")
    if w.sum() <= 0:
        raise ZeroVolume("point weights must have positive total")
    best_labels, best_val = None, np.inf
    per_batch = max(1, _BATCH_CELLS // (n * max(k, pts.shape[1])))
    for first in range(0, restarts, per_batch):
        rngs = [np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, r])))
                for r in range(first, min(first + per_batch, restarts))]
        labels = _lloyd(pts, w, _seed_centers(pts, w, k, rngs))
        for lab, val in zip(labels, _cost(pts, w, labels, k)):
            if val < best_val - 1e-15:
                best_val, best_labels = val, lab
    # relabeling moves no point to another center, so best_val is the
    # k-variance of the returned partition
    part = Partition.from_labels(_canonical_relabel(best_labels, k), k, w)
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
