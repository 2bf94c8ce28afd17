"""Normalized modularity matrix and its symmetric eigendecomposition.

For a connected graph with positive degrees d the matrix is

    M = N - q q^T,   N = D^{-1/2} W D^{-1/2},   q = sqrt(d) / |sqrt(d)|,

so its spectrum lies in [-1, 1], 0 is always an eigenvalue with eigenvector
q, and the whole spectrum is invariant under rescaling all weights by a
positive constant.  The graph path deflates q, never forms M, and reads W
only from the graph's CSR array: the sparse path multiplies by it, the
dense path scales its nonzero weights into the one block it solves.

Eigenvectors are computed only for as many leading positions of the
absolute-value order as the caller asks for.  Eigenvalues are all computed
unless the caller bounds how many it reads: on a large sparse enough graph
such a request is served by ARPACK (``eigsh``) on the deflated operator, and
the result is a partial decomposition that holds the largest values, the
largest magnitudes and a bound on every magnitude it does not hold.  Two
orderings are kept side by side: by descending value (``lambdas``) and by
descending absolute value (``mus``), linked by an index map.  Magnitudes at
or below ZERO_TOL are treated as exact zeros when ordering and counting.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgError, blas, eigh_tridiagonal, lapack
from scipy.sparse.linalg import ArpackError, LinearOperator, eigsh

from .errors import Disconnected, EigenFailure, Unsolved, ZeroDegree
from .graph import WeightedGraph
from .openblas import one_thread

# treat |eigenvalue| at or below this as zero for ordering and counting
ZERO_TOL = 1e-10
# largest accepted eigen-equation and null-vector residual, relative to
# max(1, spectral norm)
RESIDUAL_TOL = 1e-8
# a bounded request is solved by eigsh on graphs with at least SPARSE_MIN_N
# vertices and at most SPARSE_MAX_FILL n^2 nonzero weights, densely otherwise:
# for 8 values of each order on 2 vCPUs the two paths broke even at n = 1200
# on planted graphs of fill 0.13, and at fill 0.2-0.3 for n = 1500 and 2100
# (the table is in CHANGES.md)
SPARSE_MIN_N = 1200
SPARSE_MAX_FILL = 0.2
# seed of eigsh's start vector and of the vectors it restarts from
ARPACK_SEED = 0
# nonzero weights scaled at once into the dense block: the temporaries stay
# a small fraction of the block
_BLOCK_WEIGHTS = 1 << 15


def _root_degrees(g: WeightedGraph) -> tuple[np.ndarray, np.ndarray]:
    """Check that g is connected with positive degrees; return q and 1/sqrt(d)."""
    if g.n == 0:
        raise ZeroDegree("empty graph has no modularity matrix")
    if (g.degrees <= 0).any():
        raise ZeroDegree("every vertex needs positive degree")
    if not g.is_connected():
        raise Disconnected("normalized modularity needs a connected graph")
    q = np.sqrt(g.degrees / g.total_volume)
    q /= np.linalg.norm(q)
    return q, 1.0 / np.sqrt(g.degrees)


def _block(g: WeightedGraph, size: int) -> np.ndarray:
    """The leading ``size`` x ``size`` block of N, exactly symmetric.

    Entries are w_ij / sqrt(d_i d_j), with w and d scaled by one power of
    two (exact, so the block is invariant under such a scale of W).  With
    d = m 2^(2y), m in [0.5, 2), the root is sqrt(m_i m_j) 2^(y_i + y_j):
    d_i d_j, which underflows when the degrees span more than the float
    range, is never formed.  Only the nonzero weights are scaled, at most
    _BLOCK_WEIGHTS at a time, into a zeroed block.
    """
    # ldexp, not a multiplication by 2.0 ** -e: for subnormal degrees that
    # power is out of the float range
    e = -int(np.frexp(g.degrees.max())[1])
    m, x = np.frexp(np.ldexp(g.degrees[:size], e))
    m, y = np.ldexp(m, x & 1), x >> 1
    indptr, indices, data = g.csr.indptr, g.csr.indices, g.csr.data
    block = np.zeros((size, size))
    lo = 0
    while lo < size:
        hi = int(np.searchsorted(indptr, int(indptr[lo]) + _BLOCK_WEIGHTS, side="right")) - 1
        hi = min(max(hi, lo + 1), size)
        i = np.repeat(np.arange(lo, hi), np.diff(indptr[lo:hi + 1]))
        j = indices[indptr[lo]:indptr[hi]]
        keep = j < size
        i, j = i[keep], j[keep]
        # i is intp, so the flat index i * size + j stays 64-bit past n^2 =
        # 2^31 even though the graph's indices j are 32-bit
        w = np.ldexp(data[indptr[lo]:indptr[hi]][keep], e - y[i] - y[j])
        block.ravel()[i * size + j] = w / np.sqrt(m[i] * m[j])
        lo = hi
    return block


def normalized_modularity(g: WeightedGraph) -> np.ndarray:
    """M = N - q q^T of a connected graph with positive degrees, exactly
    symmetric; :func:`spectral_decomposition` never forms it."""
    q, _ = _root_degrees(g)
    m = _block(g, g.n)
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


def _prefix(values: np.ndarray, n: int, count: int | None) -> np.ndarray:
    if count is not None and count < 0:
        raise ValueError("count must be >= 0")
    want = n if count is None else min(count, n)
    if want > values.size:
        raise Unsolved(f"{want} eigenvalues read, but only {values.size} of {n} were solved")
    return values[:want]


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues in two orderings, plus the leading eigenvectors.

    ``lambdas`` is sorted by descending value.  ``mus`` is sorted by
    descending absolute value, with ``mu_to_lambda`` mapping each position
    to its rank among all ``n`` values by value.  A full decomposition holds
    all ``n`` values in both; a partial one (a bounded request, see
    :func:`spectral_decomposition`) holds only prefixes of both orders and
    ``unsolved``, an upper bound on the magnitude of every eigenvalue its
    ``mus`` do not hold (0.0 when all are held).  Read the prefixes with
    :meth:`top_lambdas` and :meth:`top_mus`, which raise Unsolved instead of
    reading past them.  ``vectors`` holds orthonormal eigenvectors for the
    first ``vectors.shape[1]`` positions of the ``mus`` order (all n unless
    fewer were asked for).  When the decomposition came from a graph,
    ``sqrt_degrees`` holds the unit vector q of square-root degrees, which
    was deflated before the solve: its exact 0.0 is the last position of
    the ``mus`` order, after every value snapped to zero, so q is the last
    column of a full set and every other column is orthogonal to it.
    """

    lambdas: np.ndarray
    mus: np.ndarray
    mu_to_lambda: np.ndarray
    vectors: np.ndarray
    n: int
    sqrt_degrees: np.ndarray | None = None
    unsolved: float = 0.0

    @property
    def spectral_norm(self) -> float:
        return float(np.abs(self.mus[0])) if self.n else 0.0

    def top_lambdas(self, count: int | None = None) -> np.ndarray:
        """The ``count`` largest eigenvalues, descending (all n when None)."""
        return _prefix(self.lambdas, self.n, count)

    def top_mus(self, count: int | None = None) -> np.ndarray:
        """The ``count`` largest-magnitude eigenvalues in the ``mus`` order
        (all n when None)."""
        return _prefix(self.mus, self.n, count)


def _lapack_info(info: int, routine: str) -> None:
    if info != 0:
        raise EigenFailure(f"LAPACK {routine} failed with info={info}")


def _tridiagonal_vectors(d: np.ndarray, e: np.ndarray, top: int, bottom: int) -> np.ndarray:
    """Eigenvectors of the tridiagonal matrix for the ``top`` largest and the
    ``bottom`` smallest eigenvalues, as columns in descending-value order.

    scipy's ``eigh_tridiagonal`` serves each index range of a partial request
    by bisection and inverse iteration (``stebz``), so only the
    n x (top + bottom) requested columns are ever allocated, and a request
    for all n eigenvectors by MRRR (``stemr``), which is much faster there.
    Inverse iteration reorthogonalizes the columns of close values within
    one range only; where the two ranges meet, the top columns are projected
    off the bottom ones once and renormalized.  The two ranges must share no
    eigenvalue, as in ``_solve``, which splits them at -ZERO_TOL.
    """
    n = d.size
    if top + bottom == n:
        requests = [("a", None, "stemr", n)]
    else:
        requests = [("i", (lo, hi), "stebz", hi - lo + 1)
                    for lo, hi in ((n - top, n - 1), (0, bottom - 1)) if lo <= hi]
    blocks = []
    for select, bounds, driver, want in requests:
        try:
            w, z = eigh_tridiagonal(d, e, select=select, select_range=bounds,
                                    lapack_driver=driver)
        except LinAlgError as exc:
            raise EigenFailure(str(exc)) from None
        if z.shape[1] != want:
            raise EigenFailure(f"{driver} returned {z.shape[1]} of {want} eigenvectors")
        if driver == "stebz":
            # scipy orders stein's columns by numpy's unstable default sort:
            # keep exact ties in block order, as a column is zero outside
            # its split-off block
            z = z[:, np.lexsort((np.argmax(z != 0, axis=0), w))]
        blocks.append(z[:, ::-1])
    if len(blocks) < 2:
        return blocks[0] if blocks else np.empty((n, 0))
    upper, lower = blocks
    upper -= lower @ (lower.T @ upper)
    upper /= np.linalg.norm(upper, axis=0)
    return np.hstack(blocks)


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


def _enforce_residual(name: str, apply, x: np.ndarray, mu, tol: float) -> None:
    """Raise EigenFailure unless every column of A x - x mu has norm <= tol."""
    resid = np.linalg.norm(apply(x) - x * mu, axis=0).max(initial=0.0)
    if not resid <= tol:
        raise EigenFailure(f"{name} residual {resid:.3e} exceeds {tol:.1e}")


def _checked(lambdas, mus, idx, vectors, q, apply, n, unsolved=0.0) -> SpectralDecomposition:
    """Fix the column signs and enforce, through ``apply`` (x -> A x), that
    A q (if q is given) and every column's eigen-equation residual are at
    most RESIDUAL_TOL times max(1, spectral norm), else EigenFailure."""
    tol = RESIDUAL_TOL * np.abs(mus).max(initial=1.0)
    _fix_signs(vectors)
    if q is not None:
        _enforce_residual("null-vector", apply, q[:, None], 0.0, tol)
    _enforce_residual("eigen-equation", apply, vectors, mus[:vectors.shape[1]], tol)
    return SpectralDecomposition(lambdas, mus, idx, vectors, n, q, unsolved)


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
    return _checked(lambdas, lambdas[idx], idx, vectors, None, m.__matmul__, m.shape[0])


def _check_eps(eps: float) -> None:
    if not 0.0 <= eps < 1.0:
        raise ValueError("eps must lie in [0, 1)")


def _eigsh(apply, m: int, k: int, which: str, tol: float, stream: int,
           vectors: bool = True):
    """``eigsh`` on the symmetric m x m operator ``apply``.

    Start and restart vectors come from a generator seeded with ARPACK_SEED
    and ``stream``, so equal inputs give equal bytes.  A failed or
    unconverged run raises EigenFailure.
    """
    rng = np.random.default_rng([ARPACK_SEED, stream])
    try:
        # ARPACK's calls work on m x ncv panels, too small to split: with
        # scipy's 2-thread default, eigsh for 16 values at n = 2100 took
        # 0.43 s instead of 0.27 s, most of it in the Ritz vector extraction
        # (dseupd)
        with one_thread("scipy"):
            return eigsh(LinearOperator((m, m), matvec=apply, dtype=float), k=k, which=which,
                         v0=rng.uniform(-1.0, 1.0, m), ncv=min(m, max(3 * k, 40)), tol=tol,
                         rng=rng, return_eigenvectors=vectors)
    except ArpackError as exc:
        raise EigenFailure(f"eigsh for {k} of {m} eigenvalues: {exc}") from None


def _extremes(apply, m: int, t: int) -> tuple[np.ndarray, np.ndarray]:
    """The t largest and the t smallest eigenpairs of the symmetric m x m
    operator ``apply``, values descending, by one ``eigsh(which='BE')``.

    Its residual tolerance, 1e-10 relative, puts the values within about
    1e-20 / gap of the exact ones, as Ritz values converge quadratically.
    """
    vals, vecs = _eigsh(apply, m, 2 * t, "BE", 1e-10, 0)
    order = np.argsort(-vals, kind="stable")
    vals, vecs = vals[order], vecs[:, order]
    # every returned pair, not only the columns the caller keeps: the search
    # for hidden copies projects them all out
    _enforce_residual("eigsh eigen-equation", apply, vecs, vals,
                      RESIDUAL_TOL * np.abs(vals).max(initial=1.0))
    return vals, vecs


def _hides_a_copy(apply, y: np.ndarray, bound: float) -> bool:
    """Whether the operator has an eigenvalue of magnitude above ``bound``
    orthogonal to the columns of ``y``.

    Lanczos sees one direction of each eigenspace, so eigsh can return a
    repeated eigenvalue fewer times than it occurs; roundoff usually brings
    the other copies in, but not for a value near the bulk.  Such a copy is
    an eigenvalue of the operator projected off y, and a second eigsh, from
    a start vector of its own, looks for the one largest magnitude of that
    projection, the only value read: a Ritz value beyond the bound proves a
    missed copy.  On the 2100-vertex benchmark graph with three twin pairs
    adding a triple eigenvalue at the bulk edge, it found a copy dropped
    from the first run down to 1.2e-4 beyond the bound.
    """
    def projected(x):
        x = np.ravel(x)
        x = x - y @ (y.T @ x)
        u = apply(x)
        return u - y @ (y.T @ u)

    theta = _eigsh(projected, y.shape[0], 1, "LM", 1e-4, 1, vectors=False)
    # Ritz values lie inside the spectrum; 1e-12 covers the roundoff of the
    # projection
    return np.abs(theta).max() > bound + 1e-12


def spectral_decomposition(g: WeightedGraph, leading: int | None = None,
                           values: int | None = None,
                           eps: float | None = None) -> SpectralDecomposition:
    """Eigendecompose M = N - q q^T of a graph without forming it.

    ``leading`` limits the eigenvectors to the first positions of the
    absolute-value order, as in :func:`eigendecompose`.  q > 0 and N q = q,
    so the reflector P = I - beta v v^T with v = q + e_n maps q to -e_n and
    P M P = diag(B, 0), B the leading (n-1) x (n-1) block of P N P; 0 joins
    B's eigenvalues as the last position of the absolute-value order.  Both
    residuals are checked through x -> N x - q (q^T x) on the CSR array of W.

    ``values`` (None: all n) bounds the eigenvalues the caller reads: the
    first max(values, leading, 1) = t positions of each order and, when
    ``eps`` is given, the count of magnitudes above eps.  On a graph with at
    least SPARSE_MIN_N vertices and at most SPARSE_MAX_FILL n^2 nonzero
    weights, such a request is served by ``eigsh`` on the operator
    y -> B y, which holds no matrix; it returns B's t largest and t smallest
    values, so every magnitude it misses is at most ``unsolved`` =
    max(lambda_t, -lambda_{n-t}, 0) of B.  While that bound exceeds eps, t
    doubles; once 2t >= n - 1 the request is solved densely.  A second
    ``eigsh`` then looks for a copy of a repeated eigenvalue that the first
    left out (see ``_hides_a_copy``) and sends the request to the dense path
    if it finds one.  Otherwise the result is a partial decomposition.  On
    the dense path B is formed and solved by ``_solve``, and every
    eigenvalue is returned.
    """
    n = g.n
    r = _column_count(leading, n)
    if values is not None and values < 0:
        raise ValueError("values must be >= 0")
    if eps is not None:
        _check_eps(eps)
    q, inv_root = _root_degrees(g)
    v = np.append(q[:-1], q[-1] + 1.0)
    beta = 1.0 / v[-1]
    csr = g.csr

    def apply_n(x):
        # N x for a vector or a block of columns
        s = inv_root if x.ndim == 1 else inv_root[:, None]
        return s * (csr @ (s * x))

    def apply_b(y):
        # B y = first n - 1 rows of P N P [y; 0], for a vector or columns
        x = np.zeros((n,) + y.shape[1:])
        x[:-1] = y
        x -= np.multiply.outer(v, beta * (v @ x))
        u = apply_n(x)
        u -= np.multiply.outer(v, beta * (v @ u))
        return u[:-1]

    def map_back(y, out):
        # P [y; 0] for the columns of y, written to out
        np.outer(-beta * v, q[:-1] @ y, out=out)
        out[:-1] += y
        return out

    def apply(x):
        return apply_n(x) - np.outer(q, q @ x)

    t = None if values is None else max(values, r, 1)
    sparse = (t is not None and n >= SPARSE_MIN_N
              and csr.nnz <= SPARSE_MAX_FILL * n * n)
    while sparse and 2 * t < n - 1:
        vals, y = _extremes(apply_b, n - 1, t)
        unsolved = max(vals[t - 1], -vals[t], 0.0)
        if eps is not None and max(eps, ZERO_TOL) < unsolved:
            t *= 2
            continue
        if _hides_a_copy(apply_b, y, unsolved):
            # the returned values are not the extremes: solve densely
            break
        # q's 0 sits before B's values <= 0 (and so shifts their ranks by
        # one) and after every other value; B's values are its ranks 0..t-1
        # and n-1-t..n-2
        lambdas = np.insert(vals[:t], np.count_nonzero(vals[:t] > 0), 0.0)[:t]
        ranks = np.r_[0:t, n - 1 - t:n - 1] + (vals <= 0)
        _, order = order_by_abs(vals)
        # every magnitude above the bound was solved, and so were the top t
        held = max(t, int(np.count_nonzero(np.abs(vals) > unsolved)))
        order = order[:held]
        vectors = map_back(y[:, order[:r]], np.empty((n, r)))
        return _checked(lambdas, vals[order], ranks[order], vectors, q, apply, n, unsolved)
    block = _block(g, n - 1)
    # w = beta N v = beta (q + N e_n) from W e_n, W's last column; then
    # P N P = N - v z^T - z v^T
    w = beta * (q + (csr @ np.eye(1, n, n - 1)[0]) * inv_root * inv_root[-1])
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
    map_back(y, vectors[:, :rb])
    vectors[:, rb:] = q[:, None]
    return _checked(lambdas, lambdas[idx], idx, vectors, q, apply, n)


def structural_count(dec: SpectralDecomposition, eps: float) -> int:
    """Number of eigenvalues with |value| above eps, zeros snapped first.

    Raises Unsolved when a partial decomposition cannot tell: eps lies
    below the bound on the magnitudes it did not solve.
    """
    _check_eps(eps)
    cut = max(eps, ZERO_TOL)
    if cut < dec.unsolved:
        raise Unsolved(f"eps={eps!r} lies below {dec.unsolved:.3e}, the bound on "
                       "the eigenvalue magnitudes that were not solved")
    return int(np.sum(np.abs(dec.mus) > cut))


def spectral_gap(dec: SpectralDecomposition) -> float:
    """Distance from the spectral norm to 1."""
    return 1.0 - dec.spectral_norm
