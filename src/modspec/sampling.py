"""Degree-proportional vertex sampling and convergence experiments.

A sample keeps m slots drawn i.i.d. with probabilities d_i / Vol; repeated
vertices stay distinct slots.  The generators' row-block linker links its
slot pairs: each block of slot rows gathers its weights from the graph's CSR
array, rows then columns (zero for copies of one vertex, as the diagonal is
empty), so no m x m array is made and a sample is a W-random graph of the
weighted graph.
:func:`sample_subgraph` is the only draw and returns ``(graph, slots)``; its
check that W holds probabilities reads the graph's cached largest weight.
Experiments measure each draw's ``largest_component()`` for every (m, trial)
and flag rows whose coverage (its vertex count over m) is below 0.9 instead
of dropping them.  Per-trial seeds derive from (seed, m, trial) through
numpy's SeedSequence, so a row does not depend on the rest of the schedule.
Every decomposition, of the full graph, of a sample or of a blow-up, asks
only for the eigenvalues and vectors it reads (j values, or k - 1 vectors),
so past ``spectral.SPARSE_MIN_N`` vertices it is served by ``eigsh``; below
that the dense path solves every eigenvalue, whatever was asked.
"""
from __future__ import annotations

from dataclasses import dataclass

import math

import numpy as np

from .errors import BadK, BadSize, Disconnected, NoGap, WeightsNotProbabilities, ZeroVolume
from .graph import WeightedGraph
from .clustering import representatives, weighted_kmeans
from .generators import _link, blow_up
from .spectral import spectral_decomposition

COVERAGE_FLAG = 0.9
DOMINANT_FLAG = 10.0


@dataclass(frozen=True)
class ConvergenceTable:
    """Rows of one experiment plus per-m medians and reference values."""

    mode: str
    columns: tuple[str, ...]
    rows: tuple[dict, ...]
    medians: tuple[dict, ...]
    reference: dict


def dominant_vertex_ratio(g: WeightedGraph) -> float:
    """max_i d_i / Vol times n; near 1 when no vertex dominates the volume."""
    if g.total_volume <= 0:
        raise ZeroVolume("diagnostic needs positive volume")
    return float(g.degrees.max() / g.total_volume * g.n)


def derive_trial_seed(seed: int, m: int, trial: int) -> int:
    """Deterministic per-trial child seed from (seed, m, trial)."""
    ss = np.random.SeedSequence([int(seed), int(m), int(trial)])
    return int(ss.generate_state(1, np.uint64)[0])


def sample_subgraph(g: WeightedGraph, m: int, seed: int) -> tuple[WeightedGraph, np.ndarray]:
    """Draw m vertex slots with degree-proportional probabilities and link
    slot pairs by Bernoulli trials with the original edge weights.

    Returns the 0/1 slot graph and the original vertex of each slot.
    """
    if m < 0:
        raise ValueError("m must be >= 0")
    if g._max_weight > 1.0:
        raise WeightsNotProbabilities("edge weights above 1 cannot be edge probabilities")
    if g.total_volume <= 0:
        raise ZeroVolume("cannot sample from a zero-volume graph")
    rng = np.random.Generator(np.random.PCG64(seed))
    slots = rng.choice(g.n, size=m, replace=True, p=g.degrees / g.total_volume).astype(np.intp)
    linked = _link(m, lambda lo, hi: g._gather(slots[lo:hi], slots).toarray(), rng)
    return WeightedGraph(linked), slots


def _check_schedule(g: WeightedGraph, schedule, trials: int) -> list[int]:
    sched = [int(m) for m in schedule]
    if not sched:
        raise BadSize("schedule must be nonempty")
    if any(m < 2 for m in sched):
        raise BadSize("schedule values must be >= 2")
    if any(m > g.n for m in sched):
        raise BadSize("schedule values cannot exceed the vertex count")
    if any(b <= a for a, b in zip(sched, sched[1:])):
        raise BadSize("schedule must be strictly increasing")
    if trials < 1:
        raise BadSize("trials must be >= 1")
    return sched


def _medians(rows, sched, values) -> tuple[dict, ...]:
    """Per-m median row: NaN-skipping medians of ``values``, coverage, flag count."""
    medians = []
    for m in sched:
        group = [r for r in rows if r["m"] == m]
        med = {"m": m, "trial": "median"}
        for col in values:
            vals = [r[col] for r in group if not math.isnan(r[col])]
            med[col] = float(np.median(vals)) if vals else math.nan
        med["coverage"] = float(np.median([r["coverage"] for r in group]))
        med["flagged"] = int(sum(r["flagged"] for r in group))
        medians.append(med)
    return tuple(medians)


def _reference(g: WeightedGraph, **values) -> dict:
    """Reference values of the full graph plus its dominant-vertex diagnostic."""
    ratio = dominant_vertex_ratio(g)
    return {"n": g.n, **values, "dominant_vertex_ratio": ratio,
            "dominant_flagged": int(ratio > DOMINANT_FLAG)}


def _sampled_sweep(g: WeightedGraph, sched, trials: int, seed: int, mode: str,
                   values: tuple[str, ...], measure, reference: dict) -> ConvergenceTable:
    """Measure the largest component of every (m, trial) draw, in that order.

    ``measure(sub, child_seed)`` returns one number per name in ``values``, or
    None when the draw is too small to measure, which records NaN.
    """
    rows = []
    for m in sched:
        for trial in range(trials):
            child = derive_trial_seed(seed, m, trial)
            sub = sample_subgraph(g, m, child)[0].largest_component()
            coverage = sub.n / m
            measured = measure(sub, child)
            if measured is None:
                measured = [math.nan] * len(values)
            rows.append({"m": m, "trial": trial,
                         **{col: float(v) for col, v in zip(values, measured)},
                         "coverage": coverage, "flagged": int(coverage < COVERAGE_FLAG)})
    columns = ("m", "trial", *values, "coverage", "flagged")
    return ConvergenceTable(mode, columns, tuple(rows), _medians(rows, sched, values), reference)


def spectral_convergence(g: WeightedGraph, schedule, trials: int, j: int,
                         seed: int) -> ConvergenceTable:
    """Top-j eigenvalue magnitudes of sampled subgraphs against the full graph."""
    if not g.is_connected():
        raise Disconnected("convergence experiments need a connected graph")
    sched = _check_schedule(g, schedule, trials)
    if j < 1 or j > min(sched) - 1:
        raise BadSize(f"j={j} outside [1, min(schedule)-1]")
    ref_mus = spectral_decomposition(g, leading=0, values=j).top_mus(j)

    def measure(sub, child):
        if sub.n <= j or sub.total_volume <= 0:
            return None
        mus = spectral_decomposition(sub, leading=0, values=j).top_mus(j)
        return (*mus, *np.abs(mus - ref_mus))

    values = (*[f"mu_{i + 1}" for i in range(j)], *[f"err_{i + 1}" for i in range(j)])
    reference = _reference(g, mus=[float(v) for v in ref_mus])
    return _sampled_sweep(g, sched, trials, seed, "spectrum", values, measure, reference)


def subspace_convergence(g: WeightedGraph, factors, k: int) -> ConvergenceTable:
    """Distance of blown-up eigenvector subspaces from the base subspace.

    For each factor t the top k-1 eigenvectors of the blown-up graph are
    scaled by inverse square-root degrees, averaged over the t copies of each
    original vertex, orthonormalized in the degree-weighted inner product of
    the base graph, and compared with the base subspace in the spectral norm
    of the projector difference.  For orthonormal bases of equal rank that
    norm is |B_t - B_1 (B_1^T B_t)|_2, so no n-by-n projector is formed; the
    t = 1 row compares the base with itself and is 0.

    Each decomposition is bounded to what is read: k values of the base
    graph (the gap check reads its k-th magnitude) and k - 1 of each
    blown-up one, so past ``spectral.SPARSE_MIN_N`` vertices a blow-up is
    served by ``eigsh`` and no dense block of it is formed.
    """
    if not g.is_connected():
        raise Disconnected("convergence experiments need a connected graph")
    if not 2 <= k <= g.n:
        raise BadK(f"k={k} outside [2, {g.n}]")
    fac = [int(t) for t in factors]
    if not fac or fac[0] != 1:
        raise BadSize("factors must start at 1")
    if any(b <= a for a, b in zip(fac, fac[1:])):
        raise BadSize("factors must be strictly increasing")
    dec = spectral_decomposition(g, leading=k - 1, values=k)
    mags = np.abs(dec.top_mus(k))
    gap = float(mags[k - 2] - mags[k - 1])
    if gap < 1e-8:
        raise NoGap("no eigenvalue-magnitude gap between positions k-1 and k")
    sqrt_d = np.sqrt(g.degrees)
    rows = []
    for t in fac:
        gt = g if t == 1 else blow_up(g, t)
        dec_t = dec if t == 1 else spectral_decomposition(gt, leading=k - 1, values=k - 1)
        points = representatives(dec_t, gt, k).points
        averaged = points.reshape(g.n, t, k - 1).mean(axis=1)
        basis, _ = np.linalg.qr(sqrt_d[:, None] * averaged)
        if t == 1:
            base, dist = basis, 0.0
        else:
            dist = float(np.linalg.norm(basis - base @ (base.T @ basis), 2))
        rows.append({"t": t, "distance": dist})
    reference = _reference(g, k=k, gap=gap)
    return ConvergenceTable("blowup", ("t", "distance"), tuple(rows), (), reference)


def k_variance_convergence(g: WeightedGraph, schedule, trials: int, k: int, seed: int,
                           *, restarts: int = 20) -> ConvergenceTable:
    """Clustering objective of sampled subgraphs against the full-graph value."""
    if not g.is_connected():
        raise Disconnected("convergence experiments need a connected graph")
    sched = _check_schedule(g, schedule, trials)
    if not 2 <= k <= min(sched):
        raise BadK(f"k={k} outside [2, min(schedule)]")
    dec = spectral_decomposition(g, leading=k - 1, values=k - 1)
    reps = representatives(dec, g, k)
    _, ref_value = weighted_kmeans(reps, k, restarts=restarts, seed=seed)

    def measure(sub, child):
        if sub.n < k or sub.total_volume <= 0:
            return None
        sreps = representatives(spectral_decomposition(sub, leading=k - 1, values=k - 1),
                                sub, k)
        _, value = weighted_kmeans(sreps, k, restarts=restarts, seed=child)
        return value, abs(value - ref_value)

    reference = _reference(g, k=k, k_variance=float(ref_value))
    return _sampled_sweep(g, sched, trials, seed, "kvariance", ("k_variance", "error"),
                          measure, reference)
