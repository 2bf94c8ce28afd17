"""Discrepancy machinery: cut norms and volume-regularity alpha.

Volume-regularity alpha of a cluster pair (A, B) is the cut norm of the
centered block C = W_AB - rho d_A d_B^T divided by the pair's normalizer,
since |w(X, Y) - rho vol X vol Y| = |x^T C y| for inclusion vectors x, y.
Small pairs get that cut norm exactly from :func:`cut_norm_exact`, which
enumerates one side only: the other side's optimum is the positive or the
negative part of the sums.  Larger pairs score seeded random subset pairs on
the same block and refine them by greedy single-element flips.  Enumerations
are hard capped and break ties deterministically, so reruns agree bit for bit.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import TooLarge, ZeroVolume
from .graph import WeightedGraph, vertex_subset
from .clustering import Partition, k_variance, representatives
from .spectral import SpectralDecomposition
from .sampling import derive_trial_seed

ENUM_LIMIT = 24
FLIP_CAP = 1000


def _row_subset_sums(a: np.ndarray) -> np.ndarray:
    """(2^m, n) array whose row for mask R holds the column sums over R."""
    m, n = a.shape
    out = np.zeros((1 << m, n))
    for r in range(m):
        block = 1 << r
        out[block:2 * block] = out[:block] + a[r]
    return out


def _finite_matrix(a) -> np.ndarray:
    mat = np.asarray(a, dtype=float)
    if mat.ndim != 2 or not np.isfinite(mat).all():
        raise ValueError("need a 2-d matrix of finite entries")
    return mat


def cut_norm_exact(a) -> tuple[float, np.ndarray, np.ndarray]:
    """Exact cut norm with a maximizing row/column subset pair.

    Enumerates the subsets of the shorter side (the rows unless m > n) by
    subset-sum doubling.  A subset whose sums over the other side are r
    scores max(sum r+, sum r-) with partner {r > 0} or {r < 0} (Alon & Naor
    2006).  Ties go to the first maximizing mask, then to {r > 0} unless
    {r < 0} scores more or ties with a smaller mask; the zero matrix gives
    two empty witnesses.
    """
    mat = _finite_matrix(a)
    m, n = mat.shape
    if m + n > ENUM_LIMIT:
        raise TooLarge(f"m+n={m + n} exceeds enumeration limit {ENUM_LIMIT}")
    sums = _row_subset_sums(mat.T if m > n else mat)
    pos = np.maximum(sums, 0.0).sum(axis=1)
    neg = -np.minimum(sums, 0.0).sum(axis=1)
    mask = int(np.argmax(np.maximum(pos, neg)))
    r = sums[mask]
    # the sets are disjoint: the smaller mask lacks the last nonzero sum
    last = r[np.flatnonzero(r)[-1:]]
    use_neg = neg[mask] > pos[mask] or (neg[mask] == pos[mask] and (last > 0).any())
    other = np.flatnonzero(r < 0 if use_neg else r > 0)
    side = np.flatnonzero((mask >> np.arange(min(m, n))) & 1)
    value = float(max(pos[mask], neg[mask]))
    return (value, other, side) if m > n else (value, side, other)


def _local_search(c, xbits, ybits) -> tuple[float, np.ndarray, np.ndarray]:
    """Greedy single-element flips on |x^T C y|, best improvement first.

    With signs sx = 1 - 2x and sy = 1 - 2y, flipping row i adds sx_i (C y)_i
    to x^T C y and flipping column j adds sy_j (x^T C)_j.  These |A| + |B|
    gains live in one score vector g = [sx * C y, sy * x^T C], allocated once
    and updated in place: a row flip adds its row of C to x^T C, negates its
    own sign and score, and recomputes the column half; a column flip does
    the mirror image.  The signs are +-1, so every score equals its
    recomputation bit for bit.  Stops when no flip gains more than 1e-15 or
    after FLIP_CAP flips.
    """
    m = c.shape[0]
    x = xbits.astype(float)
    y = ybits.astype(float)
    cy = c @ y
    xc = x @ c
    value = float(x @ cy)
    sx = 1.0 - 2.0 * x
    sy = 1.0 - 2.0 * y
    g = np.concatenate((sx * cy, sy * xc))
    gx, gy = g[:m], g[m:]
    cand = np.empty_like(g)
    for _ in range(FLIP_CAP):
        np.add(g, value, out=cand)
        np.abs(cand, out=cand)
        pos = int(cand.argmax())
        if cand[pos] - abs(value) <= 1e-15:
            break
        value += g[pos]
        if pos < m:
            xc += sx[pos] * c[pos]
            sx[pos] = -sx[pos]
            gx[pos] = -gx[pos]
            np.multiply(sy, xc, out=gy)
        else:
            pos -= m
            cy += sy[pos] * c[:, pos]
            sy[pos] = -sy[pos]
            gy[pos] = -gy[pos]
            np.multiply(sx, cy, out=gx)
    return float(abs(value)), sx < 0, sy < 0


def volume_regularity_alpha(g: WeightedGraph, cluster_a, cluster_b, *,
                            samples: int | None = None, seed: int | None = None,
                            ) -> tuple[float, tuple[np.ndarray, np.ndarray]]:
    """Largest normalized discrepancy over subset pairs of two clusters.

    The two clusters must be disjoint, or identical for the within-cluster
    variant; the normalizer is sqrt of the volume product between clusters
    and the single cluster volume within one.  Both modes maximize |x^T C y|
    over the centered block C = W_AB - rho d_A d_B^T.  Exact mode takes its
    cut norm with :func:`cut_norm_exact` (|A| + |B| <= 24); sampled mode
    scans seeded random pairs and greedily refines each new running best.
    Start t is row t of one seeded draw over A and B together, so for a
    fixed seed more samples only append starts and never lower the result.
    """
    ai = vertex_subset(cluster_a, g.n)
    bi = vertex_subset(cluster_b, g.n)
    if ai.size == 0 or bi.size == 0:
        raise ZeroVolume("clusters must be nonempty")
    same = ai.size == bi.size and np.array_equal(ai, bi)
    if not same and np.intersect1d(ai, bi).size:
        raise ValueError("clusters must be disjoint or identical")
    vol_a = g.volume(ai)
    vol_b = g.volume(bi)
    if vol_a <= 0 or vol_b <= 0:
        raise ZeroVolume("clusters must have positive volume")
    rho = g.weighted_cut(ai, bi) / (vol_a * vol_b)
    denom = vol_a if same else float(np.sqrt(vol_a * vol_b))
    c = g._gather(ai, bi).toarray() - rho * np.outer(g.degrees[ai], g.degrees[bi])
    if samples is None:
        best, rsel, csel = cut_norm_exact(c)
        return best / denom, (ai[rsel], bi[csel])
    if samples < 1 or seed is None:
        raise ValueError("sampled mode needs samples >= 1 and a seed")
    rng = np.random.Generator(np.random.PCG64(seed))
    bits = rng.random((samples, ai.size + bi.size)) < 0.5
    bx, by = bits[:, :ai.size], bits[:, ai.size:]
    discs = np.abs(((bx @ c) * by).sum(axis=1))
    best = 0.0
    best_x = np.zeros(ai.size, dtype=bool)
    best_y = np.zeros(bi.size, dtype=bool)
    # the starts that score above every earlier start
    for t in np.flatnonzero(discs > np.maximum.accumulate(np.r_[-1.0, discs[:-1]])):
        refined, rx, ry = _local_search(c, bx[t], by[t])
        if refined > best:
            best = refined
            best_x, best_y = rx, ry
    return best / denom, (ai[np.flatnonzero(best_x)], bi[np.flatnonzero(best_y)])


@dataclass(frozen=True)
class PairRegularity:
    """Discrepancy summary for one ordered cluster pair (a <= b)."""

    a: int
    b: int
    rho: float
    alpha: float | None
    method: str
    vol_a: float
    vol_b: float
    ratio_to_bound: float | None
    witness_x: np.ndarray | None
    witness_y: np.ndarray | None


@dataclass(frozen=True)
class RegularityReport:
    """Per-pair alphas plus the spectral bound ingredients for one partition."""

    k: int
    s: float
    eps: float
    bound: float
    min_size_ratio: float
    pairs: tuple[PairRegularity, ...]


def regularity_certificate(g: WeightedGraph, dec: SpectralDecomposition,
                           p: Partition, k: int, *, exact_limit: int = ENUM_LIMIT,
                           samples: int = 2000, seed: int = 0) -> RegularityReport:
    """Measure alpha for every cluster pair and report the bound's ingredients.

    The bound sqrt(2 k) * s + eps uses s from the clustering objective of the
    supplied partition on the eigenvector embedding and eps equal to the k-th
    largest eigenvalue magnitude.  Constants from the underlying theory are
    reported as measured ratios, never asserted.  Pairs with |A| + |B| at
    most ``exact_limit`` (0 to 24) are enumerated exactly; the others get
    ``samples`` sampled starts, or are skipped when ``samples`` is 0.
    """
    if not 0 <= exact_limit <= ENUM_LIMIT:
        raise ValueError(f"exact_limit={exact_limit} outside [0, {ENUM_LIMIT}]")
    if samples < 0:
        raise ValueError(f"samples={samples} must be >= 0")
    if p.k != k:
        raise ValueError("partition cluster count must equal k")
    if p.n != g.n:
        raise ValueError("partition does not match the graph")
    sizes = p.sizes()
    if (sizes == 0).any():
        raise ZeroVolume("every cluster must be nonempty")
    reps = representatives(dec, g, k)
    s = float(np.sqrt(max(k_variance(reps.points, reps.weights, p), 0.0)))
    eps = float(abs(dec.top_mus(k)[k - 1]))
    bound = float(np.sqrt(2 * k) * s + eps)
    min_size_ratio = float(sizes.min() / g.n)
    members = [p.members(a) for a in range(k)]
    pairs = []
    for a in range(k):
        for b in range(a, k):
            ia, ib = members[a], members[b]
            if ia.size + ib.size <= exact_limit:
                alpha, (wx, wy) = volume_regularity_alpha(g, ia, ib)
                method = "exact"
            elif samples > 0:
                child = derive_trial_seed(seed, a, b)
                alpha, (wx, wy) = volume_regularity_alpha(
                    g, ia, ib, samples=samples, seed=child)
                method = "sampled"
            else:
                alpha, wx, wy, method = None, None, None, "skipped"
            pairs.append(PairRegularity(
                a=a, b=b,
                rho=g.relative_density(ia, ib),
                alpha=alpha,
                method=method,
                vol_a=g.volume(ia),
                vol_b=g.volume(ib),
                ratio_to_bound=(alpha / bound) if alpha is not None and bound > 0 else None,
                witness_x=wx,
                witness_y=wy,
            ))
    return RegularityReport(k=k, s=s, eps=eps, bound=bound,
                            min_size_ratio=min_size_ratio, pairs=tuple(pairs))
