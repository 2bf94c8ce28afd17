"""Normalized modularity matrix and its symmetric eigendecomposition.

For a connected graph with positive degrees d the matrix is

    M = N - q q^T,   N = D^{-1/2} W D^{-1/2},   q = sqrt(d) / |sqrt(d)|,

so its spectrum lies in [-1, 1], 0 is always an eigenvalue with eigenvector
q, and the whole spectrum is invariant under rescaling all weights by a
positive constant.  The graph path deflates q and never forms M.

Every eigenvalue is always computed; eigenvectors only for as many leading
positions of the absolute-value order as the caller asks for.  Two orderings
are kept side by side: by descending value (``lambdas``) and by descending
absolute value (``mus``), linked by an index map.  Magnitudes at or below
ZERO_TOL are treated as exact zeros when ordering and counting.
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


def _normalized(g: WeightedGraph, size: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Check that g is connected with positive degrees; return the leading
    ``size`` x ``size`` block of N, q and 1/sqrt(d).

    Block entries are w_ij / sqrt(d_i d_j), with d scaled by one power of
    two, which is exact and keeps the products finite; it is exactly symmetric.
    """
    if g.n == 0:
        raise ZeroDegree("empty graph has no modularity matrix")
    if (g.degrees <= 0).any():
        raise ZeroDegree("every vertex needs positive degree")
    if not g.is_connected():
        raise Disconnected("normalized modularity needs a connected graph")
    scale = 2.0 ** -int(np.frexp(g.degrees.max())[1])
    deg = g.degrees * scale
    block = np.outer(deg[:size], deg[:size])
    np.sqrt(block, out=block)
    np.divide(g.weights[:size, :size], block, out=block)
    block *= scale
    q = np.sqrt(g.degrees / g.total_volume)
    q /= np.linalg.norm(q)
    return block, q, 1.0 / np.sqrt(g.degrees)


def normalized_modularity(g: WeightedGraph) -> np.ndarray:
    """M = N - q q^T of a connected graph with positive degrees, exactly
    symmetric; :func:`spectral_decomposition` never forms it."""
    m, q, _ = _normalized(g, g.n)
    m -= np.outer(q, q)
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
    from a graph, ``sqrt_degrees`` holds the unit vector q of square-root
    degrees, which was deflated before the solve: its exact 0.0 is the last
    position of the ``mus`` order, after every value snapped to zero, so q
    is the last column and every other column is orthogonal to it.
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


def _solve(a: np.ndarray, r: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Eigendecompose the symmetric C-ordered array ``a``, overwriting it.

    Returns every eigenvalue in descending order, their :func:`order_by_abs`
    index, and eigenvectors for its first ``r`` positions.  ``a`` is
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
        return a.diagonal().copy(), np.arange(n), np.eye(n)[:, :r]
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
    return lambdas, idx, z[:, np.searchsorted(ranks, idx[:r])]


def _column_count(leading: int | None, n: int) -> int:
    if leading is not None and leading < 0:
        raise ValueError("leading must be >= 0")
    return n if leading is None else min(int(leading), n)


def _checked(lambdas, idx, vectors, q, apply) -> SpectralDecomposition:
    """Fix the column signs and enforce, through ``apply`` (x -> A x), that
    A q (if q is given) and every column's eigen-equation residual are at
    most RESIDUAL_TOL times max(1, spectral norm), else EigenFailure."""
    mus = lambdas[idx]
    tol = RESIDUAL_TOL * np.abs(mus).max(initial=1.0)
    _fix_signs(vectors)
    checks = [] if q is None else [("null-vector", q[:, None], 0.0)]
    for name, x, mu in checks + [("eigen-equation", vectors, mus[:vectors.shape[1]])]:
        resid = np.linalg.norm(apply(x) - x * mu, axis=0).max(initial=0.0)
        if not resid <= tol:
            raise EigenFailure(f"{name} residual {resid:.3e} exceeds {tol:.1e}")
    return SpectralDecomposition(lambdas, mus, idx, vectors, q)


def eigendecompose(matrix: np.ndarray, leading: int | None = None) -> SpectralDecomposition:
    """Eigendecompose a symmetric matrix into the two-ordering form.

    All eigenvalues are computed; eigenvectors only for the first
    ``leading`` positions of the absolute-value order (all n when None, at
    most n), by one LAPACK tridiagonal reduction (see ``_solve``), with
    their eigen-equation residuals enforced (see ``_checked``).
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
    lambdas, idx, vectors = _solve(m.copy(), _column_count(leading, m.shape[0]))
    return _checked(lambdas, idx, vectors, None, m.__matmul__)


def spectral_decomposition(g: WeightedGraph, leading: int | None = None) -> SpectralDecomposition:
    """Eigendecompose M = N - q q^T of a graph without forming it.

    ``leading`` limits the eigenvectors to the first positions of the
    absolute-value order, as in :func:`eigendecompose`; all eigenvalues are
    always returned.  q > 0 and N q = q, so the reflector P = I - beta v v^T
    with v = q + e_n maps q to -e_n and P M P = diag(B, 0), B the leading
    (n-1) x (n-1) block of P N P.  B is solved by ``_solve`` and 0 joins its
    eigenvalues as the last position of the absolute-value order.  Both
    residuals are checked through x -> N x - q (q^T x) from the weights.
    """
    n = g.n
    r = _column_count(leading, n)
    block, q, inv_root = _normalized(g, n - 1)
    v = np.append(q[:-1], q[-1] + 1.0)
    beta = 1.0 / v[-1]
    # w = beta N v = beta (q + N e_n) from W's last column; then
    # P N P = N - v z^T - z v^T
    w = beta * (q + g.weights[:, -1] * inv_root * inv_root[-1])
    z = w - (0.5 * beta * (v @ w)) * v
    blas.dsyr2(-1.0, v[:-1], z[:-1], lower=1, a=block.T, overwrite_a=1)
    rb = min(r, n - 1)
    vals, idx, y = _solve(block, rb)
    # q's 0 sits before the block's values <= 0 and after every other value
    # in the magnitude order
    rank = int(np.searchsorted(-vals, 0.0))
    lambdas = np.insert(vals, rank, 0.0)
    idx = np.append(idx + (idx >= rank), rank)
    # P [y; 0] for the block's columns, then q
    vectors = np.empty((n, r))
    np.outer(-beta * v, q[:-1] @ y, out=vectors[:, :rb])
    vectors[:-1, :rb] += y
    vectors[:, rb:] = q[:, None]
    s = inv_root[:, None]
    return _checked(lambdas, idx, vectors, q,
                    lambda x: s * (g.weights @ (s * x)) - np.outer(q, q @ x))


def structural_count(dec: SpectralDecomposition, eps: float) -> int:
    """Number of eigenvalues with |value| above eps, zeros snapped first."""
    if not 0.0 <= eps < 1.0:
        raise ValueError("eps must lie in [0, 1)")
    return int(np.sum(np.abs(dec.mus) > max(eps, ZERO_TOL)))


def spectral_gap(dec: SpectralDecomposition) -> float:
    """Distance from the spectral norm to 1."""
    return 1.0 - dec.spectral_norm
