"""Normalized modularity matrix and its symmetric eigendecomposition.

The matrix for a connected graph with positive degrees is

    M = D^{-1/2} W D^{-1/2} - sqrt(d) sqrt(d)^T

computed on the volume-normalized graph, so its spectrum lies in [-1, 1],
0 is always an eigenvalue with eigenvector sqrt(d), and the whole spectrum
is invariant under rescaling all weights by a positive constant.

Two orderings of the spectrum are kept side by side: by descending value
(``lambdas``) and by descending absolute value (``mus``), linked by an index
map.  Magnitudes at or below ZERO_TOL are treated as exact zeros when
ordering and counting.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import Disconnected, EigenFailure, ZeroDegree
from .graph import WeightedGraph

# treat |eigenvalue| at or below this as zero for ordering and counting
ZERO_TOL = 1e-10


def normalized_modularity(g: WeightedGraph) -> np.ndarray:
    """Normalized modularity matrix of a connected graph with positive degrees.

    The graph is volume-normalized internally, so callers may pass weights at
    any scale.  The result is symmetrized to guard against roundoff.
    """
    if g.n == 0:
        raise ZeroDegree("empty graph has no modularity matrix")
    if (g.degrees <= 0).any():
        raise ZeroDegree("every vertex needs positive degree")
    if not g.is_connected():
        raise Disconnected("normalized modularity needs a connected graph")
    w = g.weights / g.total_volume
    d = g.degrees / g.total_volume
    inv_sqrt = 1.0 / np.sqrt(d)
    m = inv_sqrt[:, None] * w * inv_sqrt[None, :]
    sq = np.sqrt(d)
    m -= np.outer(sq, sq)
    return (m + m.T) / 2.0


def _fix_signs(vectors: np.ndarray) -> None:
    """Scale each column in place so its largest-magnitude coordinate is positive.

    Ties on the magnitude go to the earliest coordinate.
    """
    if vectors.size == 0:
        return
    lead = np.argmax(np.abs(vectors), axis=0)
    signs = np.sign(vectors[lead, np.arange(vectors.shape[1])])
    signs[signs == 0] = 1.0
    vectors *= signs[None, :]


def order_by_abs(lambdas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Reorder a descending eigenvalue list by descending absolute value.

    Magnitudes within ZERO_TOL of zero compare as zero.  Exact magnitude ties
    put the positive eigenvalue first, then follow the descending-value rank.
    Returns the reordered values and the index map into the input order.
    """
    lam = np.asarray(lambdas, dtype=float)
    snapped = np.where(np.abs(lam) <= ZERO_TOL, 0.0, lam)
    idx = np.lexsort((np.arange(lam.size), snapped <= 0, -np.abs(snapped)))
    return lam[idx], idx


@dataclass(frozen=True)
class SpectralDecomposition:
    """Full symmetric eigendecomposition in both orderings.

    ``lambdas`` is sorted by descending value.  ``mus`` is the same multiset
    sorted by descending absolute value, with ``mu_to_lambda`` mapping each
    position to its rank in ``lambdas``; ``vectors`` columns follow the
    ``mus`` order.  When the decomposition came from a graph,
    ``sqrt_degrees`` holds the unit vector of square-root degrees and the
    zero eigenspace basis is rotated so that vector appears as the last
    zero-eigenvalue column.
    """

    lambdas: np.ndarray
    mus: np.ndarray
    mu_to_lambda: np.ndarray
    vectors: np.ndarray
    sqrt_degrees: np.ndarray | None = None

    @property
    def n(self) -> int:
        return self.lambdas.size

    @property
    def spectral_norm(self) -> float:
        return float(np.abs(self.mus[0])) if self.n else 0.0


def eigendecompose(matrix: np.ndarray, sqrt_degrees: np.ndarray | None = None) -> SpectralDecomposition:
    """Eigendecompose a symmetric matrix into the two-ordering form.

    When ``sqrt_degrees`` is supplied it must lie in the numerical null space
    of the matrix; the zero eigenspace is then re-based so that one basis
    vector equals it exactly, placed last among the zero eigenvalues in the
    absolute-value ordering.  Residuals of rotated columns stay within the
    null-space magnitude, far below the 1e-8 documented tolerance.
    """
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("matrix must be square")
    if not np.array_equal(m, m.T):
        if not np.allclose(m, m.T, atol=1e-12, rtol=0.0):
            raise ValueError("matrix must be symmetric")
        m = (m + m.T) / 2.0
    n = m.shape[0]
    if n == 0:
        empty = np.empty(0)
        return SpectralDecomposition(empty, empty.copy(), np.empty(0, dtype=np.intp),
                                     np.empty((0, 0)), None)
    try:
        vals, vecs = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:
        raise EigenFailure(f"symmetric eigensolver failed: {exc}") from exc
    lambdas = vals[::-1].copy()
    # a reversed view of eigh's fresh output: edited in place, then gathered
    # once into the mu order at the end
    lvecs = vecs[:, ::-1]

    q_unit = None
    if sqrt_degrees is not None:
        q = np.asarray(sqrt_degrees, dtype=float).ravel()
        if q.size != n:
            raise ValueError("sqrt_degrees length must match matrix size")
        norm = np.linalg.norm(q)
        if norm <= 0:
            raise ValueError("sqrt_degrees must be nonzero")
        q_unit = q / norm

    zero_mask = np.abs(lambdas) <= ZERO_TOL
    if q_unit is not None:
        if not zero_mask.any():
            raise ValueError("matrix has no numerical zero eigenvalue to align with sqrt_degrees")
        zcols = np.flatnonzero(zero_mask)
        zbasis = lvecs[:, zcols]
        inside = np.linalg.norm(zbasis.T @ q_unit)
        if inside < 0.99:
            raise ValueError("sqrt_degrees is not in the numerical null space")
        if zcols.size == 1:
            lvecs[:, zcols[0]] = q_unit
        else:
            # rotate inside the eigenspace: express q in kernel coordinates,
            # then any square orthonormal frame whose first column follows
            # those coordinates has the rest spanning the complement of q
            coords = zbasis.T @ q_unit
            frame, _ = np.linalg.qr(
                np.column_stack([coords, np.eye(zcols.size)]))
            if frame[:, 0] @ coords < 0:
                frame = -frame
            lvecs[:, zcols[:-1]] = zbasis @ frame[:, 1:]
            lvecs[:, zcols[-1]] = q_unit

    mus, idx = order_by_abs(lambdas)
    if q_unit is not None:
        # force the column now holding sqrt(d) (last zero lambda slot) to the
        # final position among the zero entries of the mu ordering
        zcols = np.flatnonzero(zero_mask)
        sd_slot = zcols[-1]
        pos = np.flatnonzero(idx == sd_slot)[0]
        zero_positions = np.flatnonzero(np.abs(mus) <= ZERO_TOL)
        last_zero = zero_positions[-1]
        if pos != last_zero:
            new_order = np.delete(idx, pos)
            new_order = np.insert(new_order, last_zero, sd_slot)
            idx = new_order
            mus = lambdas[idx]
    vectors = lvecs[:, idx]
    _fix_signs(vectors)
    return SpectralDecomposition(lambdas, mus, idx, vectors, q_unit)


def spectral_decomposition(g: WeightedGraph) -> SpectralDecomposition:
    """Eigendecompose the normalized modularity matrix of a graph."""
    m = normalized_modularity(g)
    sq = np.sqrt(g.degrees / g.total_volume)
    return eigendecompose(m, sqrt_degrees=sq)


def structural_count(dec: SpectralDecomposition, eps: float) -> int:
    """Number of eigenvalues with |value| above eps, zeros snapped first."""
    if not 0.0 <= eps < 1.0:
        raise ValueError("eps must lie in [0, 1)")
    mags = np.abs(dec.mus)
    mags = np.where(mags <= ZERO_TOL, 0.0, mags)
    return int(np.sum(mags > eps))


def spectral_gap(dec: SpectralDecomposition) -> float:
    """Distance from the spectral norm to 1."""
    return 1.0 - dec.spectral_norm
