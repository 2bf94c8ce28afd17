"""Partition quality functionals: modularity, normalized cut, spectral bounds.

The modularity value is computed from cluster cut/volume ratios and the
normalized cut value independently from a trace form; both are invariant
under rescaling all weights, and their sum is k-1 up to roundoff.  Keeping
the two code paths separate is deliberate: the identity is a test target,
not an assumption.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BadK, ZeroDegree, ZeroVolume
from .graph import WeightedGraph
from .clustering import Partition, normalized_partition_vectors
from .spectral import SpectralDecomposition


def modularity(g: WeightedGraph, p: Partition) -> float:
    """Sum over clusters of internal cut weight over cluster volume, minus 1."""
    if p.n != g.n:
        raise ValueError("partition does not match the graph")
    total = 0.0
    for a in range(p.k):
        idx = p.members(a)
        vol = g.volume(idx)
        if vol <= 0:
            raise ZeroVolume(f"cluster {a} has zero volume")
        total += g.weighted_cut(idx, idx) / vol
    return total - 1.0


def normalized_cut_value(g: WeightedGraph, p: Partition) -> float:
    """Trace form of the normalized cut objective over the partition vectors."""
    if (g.degrees <= 0).any():
        raise ZeroDegree("normalized cut needs positive degrees")
    z = normalized_partition_vectors(g, p)
    y = np.sqrt(g.degrees)[:, None] * z
    inv = 1.0 / np.sqrt(g.degrees)
    ny = inv[:, None] * (g.csr @ (inv[:, None] * y))
    return float(np.trace(y.T @ y) - np.trace(y.T @ ny))


def relaxation_bounds(dec: SpectralDecomposition, k: int) -> tuple[float, float]:
    """Sum of the top k-1 descending eigenvalues, and its cut-side counterpart.

    Uses the descending-value ordering, not the absolute-value ordering: the
    modularity of any partition into k nonempty clusters is at most the first
    component, and the normalized cut value at least the second.
    """
    if not 1 <= k <= dec.n:
        raise BadK(f"k={k} outside [1, {dec.n}]")
    upper = float(dec.top_lambdas(k - 1).sum())
    return upper, (k - 1) - upper


@dataclass(frozen=True)
class QualityReport:
    """Both functionals plus the spectral bounds for one partition."""

    k: int
    cut_value: float
    modularity_value: float
    relaxation_upper: float
    relaxation_lower_cut: float

    @property
    def duality_residual(self) -> float:
        return abs(self.modularity_value + self.cut_value - (self.k - 1))


def quality_report(g: WeightedGraph, dec: SpectralDecomposition, p: Partition) -> QualityReport:
    upper, lower = relaxation_bounds(dec, p.k)
    return QualityReport(
        k=p.k,
        cut_value=normalized_cut_value(g, p),
        modularity_value=modularity(g, p),
        relaxation_upper=upper,
        relaxation_lower_cut=lower,
    )
