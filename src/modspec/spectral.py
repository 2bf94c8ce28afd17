"""Normalized modularity matrix and its symmetric eigendecomposition.

The matrix for a connected graph with positive degrees is

    M = D^{-1/2} W D^{-1/2} - sqrt(d) sqrt(d)^T

with the degrees d of the volume-normalized graph, so its spectrum lies in
[-1, 1], 0 is always an eigenvalue with eigenvector sqrt(d), and the whole
spectrum is invariant under rescaling all weights by a positive constant.

Every eigenvalue is always computed; eigenvectors only for as many leading
positions of the absolute-value order as the caller asks for.

Two orderings of the spectrum are kept side by side: by descending value
(``lambdas``) and by descending absolute value (``mus``), linked by an index
map.  Magnitudes at or below ZERO_TOL are treated as exact zeros when
ordering and counting.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import blas, lapack

from .errors import Disconnected, EigenFailure, ZeroDegree
from .graph import WeightedGraph

# treat |eigenvalue| at or below this as zero for ordering and counting
ZERO_TOL = 1e-10
# largest accepted eigen-equation and null-vector residual, relative to
# max(1, spectral norm)
RESIDUAL_TOL = 1e-8


def normalized_modularity(g: WeightedGraph) -> np.ndarray:
    """Normalized modularity matrix of a connected graph with positive degrees.

    Entry (i, j) is ``w_ij / sqrt(d_i d_j) - sqrt(d_i d_j) / Vol`` for the
    raw degrees d, so callers may pass weights at any scale.  Weights and
    degrees are first scaled by one power of two, which is exact and keeps
    the degree products finite.  Both terms are symmetric products, so the
    result is exactly symmetric.
    """
    if g.n == 0:
        raise ZeroDegree("empty graph has no modularity matrix")
    if (g.degrees <= 0).any():
        raise ZeroDegree("every vertex needs positive degree")
    if not g.is_connected():
        raise Disconnected("normalized modularity needs a connected graph")
    scale = 2.0 ** -int(np.frexp(g.degrees.max())[1])
    deg = g.degrees * scale
    # the one n x n temporary: sqrt(d_i d_j), later divided by the volume
    root = np.outer(deg, deg)
    np.sqrt(root, out=root)
    m = g.weights * scale
    m /= root
    root /= g.total_volume * scale
    m -= root
    return m


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
    """All eigenvalues in two orderings, plus the leading eigenvectors.

    ``lambdas`` is sorted by descending value.  ``mus`` is the same multiset
    sorted by descending absolute value, with ``mu_to_lambda`` mapping each
    position to its rank in ``lambdas``.  ``vectors`` holds orthonormal
    eigenvectors for the first ``vectors.shape[1]`` positions of the ``mus``
    order (all n unless fewer were asked for).  When the decomposition came
    from a graph, ``sqrt_degrees`` holds the unit vector of square-root
    degrees, which was deflated before the solve: it is the last column of
    the ``mus`` order, every other column is orthogonal to it, and
    ``lambdas`` holds an exact 0.0 for it.
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


def _lapack_info(info: int, routine: str) -> None:
    if info != 0:
        raise EigenFailure(f"LAPACK {routine} failed with info={info}")


def _tridiagonal_vectors(d: np.ndarray, e: np.ndarray, top: int, bottom: int) -> np.ndarray:
    """Eigenvectors of the tridiagonal matrix for the ``top`` largest and the
    ``bottom`` smallest eigenvalues, as columns in descending-value order.

    A partial request is served by bisection (``dstebz``, RANGE='I') for the
    values of each index range and one inverse-iteration call (``dstein``)
    for both ranges, so only the n x (top + bottom) requested columns are
    ever allocated; ``dstein`` reorthogonalizes the columns of close values.
    A request for all n eigenvectors uses MRRR (``dstemr``, RANGE='A'),
    which is much faster there.
    """
    n = d.size
    if top + bottom == n:
        # dstemr overwrites its off-diagonal, which has length n (the last
        # entry is workspace); the wrapper's default workspace sizes are the
        # ones LAPACK asks for.  RANGE 0 is 'A'.
        count, _, z, info = lapack.dstemr(d, np.append(e, 0.0), 0, 0.0, 1.0, 1, n)
        _lapack_info(info, "dstemr")
        if count != n:
            raise EigenFailure(f"dstemr returned {count} of {n} eigenvectors")
        return z[:, ::-1]
    values, blocks = [], []
    # 1-based ascending index ranges; RANGE 2 is 'I', order 'B' groups the
    # values by split-off block, as dstein needs them
    for il, iu in ((1, bottom), (n - top + 1, n)):
        if iu < il:
            continue
        count, w, iblock, isplit, info = lapack.dstebz(d, e, 2, 0.0, 0.0, il, iu, 0.0, "B")
        _lapack_info(info, "dstebz")
        if count != iu - il + 1:
            raise EigenFailure(f"dstebz returned {count} of {iu - il + 1} eigenvalues")
        values.append(w[:count])
        blocks.append(iblock[:count])
    if not values:
        return np.empty((n, 0))
    w, iblock = np.concatenate(values), np.concatenate(blocks)
    # both ranges in one call: by block, ascending within each block
    grouped = np.lexsort((w, iblock))
    w = w[grouped]
    # the wrapper wants iblock at its full length n
    iblock = np.pad(iblock[grouped], (0, n - w.size))
    z, info = lapack.dstein(d, e, w, iblock, isplit)
    _lapack_info(info, "dstein")
    return z[:, np.argsort(w, kind="stable")[::-1]]


def _solve(a: np.ndarray, r: int) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecompose the symmetric C-ordered array ``a``, overwriting it.

    Returns every eigenvalue in descending order and eigenvectors for the
    first ``r`` positions of their :func:`order_by_abs` order.  ``a`` is
    reduced to tridiagonal form once (``dsytrd``), its eigenvalues come from
    ``dsterf``, and the requested eigenvectors from
    :func:`_tridiagonal_vectors`, mapped back by the reflectors that
    ``dsytrd`` left in ``a``'s own buffer (``dormqr``).  The largest
    magnitudes are the top of the value order plus its bottom, so at most
    two index ranges are solved.  Besides ``a``, only n x r arrays are
    allocated when r < n.
    """
    n = a.shape[0]
    if n <= 1:
        # the f2py wrappers reject an empty matrix and an empty off-diagonal
        return a.diagonal().copy(), np.eye(n)[:, :r]
    # a.T is the Fortran-ordered view of the symmetric a
    lwork, info = lapack.dsytrd_lwork(n, lower=1)
    _lapack_info(info, "dsytrd_lwork")
    c, d, e, tau, info = lapack.dsytrd(a.T, lower=1, lwork=int(lwork), overwrite_a=1)
    _lapack_info(info, "dsytrd")
    vals, info = lapack.dsterf(d, e)
    _lapack_info(info, "dsterf")
    lambdas = vals[::-1].copy()
    _, idx = order_by_abs(lambdas)
    # the first r mu positions hold the values of a prefix plus a suffix of
    # the lambda order: the nonnegative ones are a prefix, the negative ones
    # the most negative values.  Within an exact tie the mu order may name
    # other ranks of the same value; the computed columns serve them.
    ranks = np.sort(idx[:r])
    top = int(np.count_nonzero(lambdas[ranks] >= -ZERO_TOL))
    z = _tridiagonal_vectors(d, e, top, r - top)
    if r:
        # Q = diag(1, Q') with Q' the product of the reflectors stored in
        # c[1:, :n - 1].  That slice is not contiguous and f2py would copy
        # it; the Fortran-ordered (n, n - 1) view of c's buffer from its
        # second element holds it with leading dimension n instead (its
        # last row, which dormqr never reads, is c[0, 1:])
        reflectors = c.ravel(order="F")[1:1 + n * (n - 1)].reshape((n, n - 1), order="F")
        z[1:], _, info = lapack.dormqr("L", "N", reflectors, tau, z[1:], 64 * r)
        _lapack_info(info, "dormqr")
    # z holds the columns of `ranks` in order
    return lambdas, z[:, np.searchsorted(ranks, idx[:r])]


def eigendecompose(matrix: np.ndarray, sqrt_degrees: np.ndarray | None = None,
                   leading: int | None = None) -> SpectralDecomposition:
    """Eigendecompose a symmetric matrix into the two-ordering form.

    All eigenvalues are computed; eigenvectors only for the first
    ``leading`` positions of the absolute-value order (all n when None, at
    most n), by one LAPACK tridiagonal reduction (see ``_solve``).

    When ``sqrt_degrees`` is supplied, its unit vector q is taken as an
    eigenvector of eigenvalue exactly 0: one Householder reflector P maps q
    to the last coordinate, the leading (n-1) x (n-1) block of P M P (M on
    the complement of q) is solved, and 0 joins its eigenvalues.  q is the
    last column of the absolute-value order; every other column is
    orthogonal to it.  ``M q`` must vanish (residual at most RESIDUAL_TOL,
    scaled by the spectral norm when that exceeds 1), else ValueError.
    Every returned column must satisfy the eigen-equation within the same
    tolerance, else EigenFailure.
    """
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("matrix must be square")
    if not np.array_equal(m, m.T):
        if not np.allclose(m, m.T, atol=1e-12, rtol=0.0):
            raise ValueError("matrix must be symmetric")
        m = (m + m.T) / 2.0
    if not np.isfinite(m).all():
        raise ValueError("matrix must be finite")
    n = m.shape[0]
    if leading is not None and leading < 0:
        raise ValueError("leading must be >= 0")
    r = n if leading is None else min(int(leading), n)
    q = None
    if sqrt_degrees is None:
        lambdas, vectors = _solve(m.copy(), r)
    else:
        q = np.asarray(sqrt_degrees, dtype=float).ravel()
        if q.size != n:
            raise ValueError("sqrt_degrees length must match matrix size")
        norm = np.linalg.norm(q)
        if norm <= 0:
            raise ValueError("sqrt_degrees must be nonzero")
        q = q / norm
        # P = I - beta v v^T maps q to the last axis; P M P = M - v z^T - z v^T.
        # einsum rather than numpy's BLAS: its threads keep spinning and
        # slow the dsytrd that follows, which runs in scipy's BLAS pool
        v = q.copy()
        v[-1] += np.copysign(1.0, q[-1])
        beta = 1.0 / (1.0 + abs(q[-1]))
        w = beta * np.einsum("ij,j->i", m, v)
        z = w - (0.5 * beta * np.einsum("i,i", v, w)) * v
        block = m[:-1, :-1].copy()
        if n > 1:  # the f2py wrapper rejects empty vectors
            blas.dsyr2(-1.0, v[:-1], z[:-1], lower=1, a=block.T, overwrite_a=1)
        vals, y = _solve(block, min(r, n - 1))
        lambdas = np.insert(vals, np.searchsorted(-vals, 0.0), 0.0)
        # P [y; 0] for the block's columns, then q in the last mu position
        y = np.vstack([y, np.zeros(y.shape[1])])
        vectors = np.column_stack([y - np.outer(beta * v, v @ y), q])[:, :r]
    mus, idx = order_by_abs(lambdas)
    tol = RESIDUAL_TOL * np.abs(mus).max(initial=1.0)
    if q is not None and np.linalg.norm(m @ q) > tol:
        raise ValueError("sqrt_degrees is not in the numerical null space")
    _fix_signs(vectors)
    if r:
        resid = np.linalg.norm(m @ vectors - vectors * mus[:r], axis=0).max()
        if not resid <= tol:
            raise EigenFailure(f"eigen-equation residual {resid:.3e} exceeds {tol:.1e}")
    return SpectralDecomposition(lambdas, mus, idx, vectors, q)


def spectral_decomposition(g: WeightedGraph, leading: int | None = None) -> SpectralDecomposition:
    """Eigendecompose the normalized modularity matrix of a graph.

    ``leading`` limits the eigenvectors to the first positions of the
    absolute-value order, as in :func:`eigendecompose`; all eigenvalues are
    always returned.
    """
    m = normalized_modularity(g)
    sq = np.sqrt(g.degrees / g.total_volume)
    return eigendecompose(m, sqrt_degrees=sq, leading=leading)


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
