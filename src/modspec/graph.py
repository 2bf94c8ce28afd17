"""Edge-weighted graph model: degrees, volumes, cuts, densities, connectivity.

Vertices are integer indices 0..n-1 with optional external string labels.
Vertex subsets are passed around as validated integer index arrays; use
:func:`vertex_subset` to canonicalize caller-supplied collections.  A graph
stores its weights once, as a read-only CSR array of the nonzero entries, so
it costs O(n + nnz) memory and every reader in the package works on that
array; ``weights`` hands out a dense copy for small graphs only.  The parser
and the generators hand the constructor their edges through
:func:`_symmetric`, mirror images first.  The parser reads a plain edge
list (ASCII, only tabs and newlines between the fields, labels of at most 8
bytes) over its bytes with numpy and leaves the weight checks to the
constructor; any other text is read in one pass that checks each line as
it reads it.  Both give the same graph or the same error.  Every graph
stores 32-bit ``indices`` and ``indptr`` unless n or the number of stored
weights needs 64 bits (:func:`_index_dtype`), however its array was made.
The largest weight and the connected components are cached on first use.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.sparse import coo_array, csr_array, triu
from scipy.sparse.csgraph import connected_components

from .errors import (
    DuplicateEdge,
    NegativeWeight,
    ParseError,
    SelfLoop,
    ZeroVolume,
)


# weight bytes cast to float at once by the plain parser: the byte table and
# its mask stay small next to the text
_BLOCK_BYTES = 1 << 18


def default_vertex_ids(n: int) -> tuple[str, ...]:
    """Generated labels v000..; zero padded so lexicographic order matches index order."""
    width = max(1, len(str(max(n - 1, 0))))
    return tuple(map(("v%0" + str(width) + "d").__mod__, range(n)))


def _index_dtype(largest: int) -> type:
    """Integer type of CSR index arrays whose entries reach ``largest``:
    int32 when it fits, as scipy chooses for a new array, else int64."""
    return np.int32 if largest <= np.iinfo(np.int32).max else np.int64


def vertex_subset(indices, n: int) -> np.ndarray:
    """Validate a vertex subset and return it as a sorted integer array.

    Accepts any iterable of integers.  Rejects entries of any other dtype
    (floats are never truncated), out-of-range entries and duplicates; an
    empty subset is fine.
    """
    idx = np.asarray(indices if isinstance(indices, np.ndarray) else list(indices)).ravel()
    if idx.size == 0:
        return idx.astype(np.intp)
    if not np.issubdtype(idx.dtype, np.integer):
        raise ValueError(f"vertex indices must be integers, got dtype {idx.dtype}")
    idx = idx.astype(np.intp, copy=False)
    if idx.min() < 0 or idx.max() >= n:
        raise ValueError(f"vertex index out of range for n={n}")
    idx = np.sort(idx)
    if np.any(idx[1:] == idx[:-1]):
        raise ValueError("duplicate vertex index in subset")
    return idx


@dataclass(frozen=True, init=False)
class WeightedGraph:
    """Symmetric non-negative weights with an empty diagonal, stored as CSR.

    The constructor takes a dense array-like or a scipy sparse array and
    copies its nonzero entries (zeros of either sign are dropped) into a CSR
    array with sorted indices of the narrowest type that holds n and the
    entry count, which it checks in O(nnz) and freezes; degree sums are
    cached.  Only labels the caller passes are checked.  All methods
    treat the graph as undirected.
    """

    csr: csr_array
    vertex_ids: tuple[str, ...]
    degrees: np.ndarray = field(repr=False)
    total_volume: float = field(repr=False)

    def __init__(self, weights, vertex_ids=()):
        w = csr_array(weights, dtype=float, copy=True)
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise ValueError("weight matrix must be square")
        n = w.shape[0]
        w.sum_duplicates()
        w.eliminate_zeros()
        # scipy keeps the index type of its input: narrow 64-bit indices
        itype = _index_dtype(max(n, w.nnz))
        w.indices = w.indices.astype(itype, copy=False)
        w.indptr = w.indptr.astype(itype, copy=False)
        if not np.isfinite(w.data).all():
            raise ValueError("weights must be finite")
        if (w.data < 0).any():
            raise NegativeWeight("negative edge weight in weight matrix")
        # both arrays are canonical, so W = W^T exactly when their parts agree
        wt = w.T.tocsr()
        if not all(map(np.array_equal, (w.indptr, w.indices, w.data),
                       (wt.indptr, wt.indices, wt.data))):
            raise ValueError("weight matrix must be symmetric")
        if w.diagonal().any():
            raise SelfLoop("nonzero diagonal entry in weight matrix")
        ids = tuple(map(str, vertex_ids))
        if ids:
            if len(ids) != n:
                raise ValueError("vertex_ids length must match matrix size")
            if len(set(ids)) != n:
                raise ValueError("vertex_ids must be distinct")
        else:
            ids = default_vertex_ids(n)
        for part in (w.data, w.indices, w.indptr):
            part.setflags(write=False)
        with np.errstate(over="ignore"):
            # an overflow to inf is reported just below
            deg = w.sum(axis=1)
            volume = float(deg.sum())
        deg.setflags(write=False)
        # d_i / Vol and the degree products of the spectral path need a
        # finite volume that is zero or a normal float
        if not (volume == 0.0 or np.finfo(float).tiny <= volume < np.inf):
            raise ValueError(f"total volume {volume!r} is outside the normal float range")
        object.__setattr__(self, "csr", w)
        object.__setattr__(self, "vertex_ids", ids)
        object.__setattr__(self, "degrees", deg)
        object.__setattr__(self, "total_volume", volume)

    @property
    def weights(self) -> np.ndarray:
        """Read-only dense copy of W, made on each read (n^2 doubles)."""
        w = self.csr.toarray()
        w.setflags(write=False)
        return w

    @property
    def n(self) -> int:
        return self.csr.shape[0]

    def normalize_volume(self) -> "WeightedGraph":
        """Scale all weights so the total volume (sum of degrees) equals 1."""
        if self.total_volume <= 0.0:
            raise ZeroVolume("cannot normalize a graph with zero total volume")
        # per-entry division: scipy's csr / scalar multiplies by the reciprocal
        w = self.csr
        return WeightedGraph(csr_array((w.data / self.total_volume, w.indices, w.indptr),
                                       shape=w.shape), self.vertex_ids)

    def volume(self, indices) -> float:
        idx = vertex_subset(indices, self.n)
        return float(self.degrees[idx].sum())

    def weighted_cut(self, left, right) -> float:
        """Total weight between two vertex subsets; overlap pairs count once per ordered pair.

        For left == right this is twice the internal edge weight, matching the
        double sum over ordered pairs.
        """
        li = vertex_subset(left, self.n)
        y = np.zeros(self.n)
        y[vertex_subset(right, self.n)] = 1.0
        # one product with the indicator of ``right``: a CSR slice costs more
        return float((self.csr @ y)[li].sum())

    def relative_density(self, left, right) -> float:
        """Cut weight divided by the product of the two subset volumes."""
        vl, vr = self.volume(left), self.volume(right)
        if vl <= 0.0 or vr <= 0.0:
            raise ZeroVolume("relative density needs both subsets to have positive volume")
        return self.weighted_cut(left, right) / (vl * vr)

    @cached_property
    def _max_weight(self) -> float:
        """Largest weight (0.0 when there is none), found on first use."""
        return float(self.csr.data.max(initial=0.0))

    @cached_property
    def _components(self) -> tuple[int, np.ndarray]:
        """Component count and per-vertex labels, computed on first use.

        W is symmetric, so its strong components are the connected ones;
        unlike the undirected search, this one needs no transposed copy.
        """
        count, labels = connected_components(self.csr, directed=True, connection="strong")
        labels.setflags(write=False)
        return count, labels

    def is_connected(self) -> bool:
        return self._components[0] <= 1

    def largest_component(self) -> "WeightedGraph":
        """Subgraph induced by the largest connected component, ties going to
        the component that holds the smallest vertex; the graph itself when
        it is connected (which includes n <= 1)."""
        count, labels = self._components
        if count <= 1:
            return self
        sizes = np.bincount(labels)
        chosen = labels[np.argmax(sizes[labels] == sizes.max())]
        return self.induced_subgraph(np.flatnonzero(labels == chosen))

    def induced_subgraph(self, indices) -> "WeightedGraph":
        idx = vertex_subset(indices, self.n)
        ids = tuple(self.vertex_ids[i] for i in idx)
        return WeightedGraph(self._gather(idx), ids)

    def _gather(self, rows: np.ndarray, cols: np.ndarray | None = None) -> csr_array:
        """CSR array of ``W[r_i, c_j]``, rows gathered first; cols default to rows."""
        return self.csr[rows][:, rows if cols is None else cols]


def _symmetric(rows: np.ndarray, cols: np.ndarray, vals: np.ndarray, n: int) -> coo_array:
    """n x n COO array of the entries (rows[i], cols[i]) after their mirror
    images, so row-sorted pairs i < j give sorted rows and need no sort."""
    coords = (np.concatenate([cols, rows]), np.concatenate([rows, cols]))
    return coo_array((np.concatenate([vals, vals]), coords), shape=(n, n))


def _load_lines(text: str) -> WeightedGraph:
    """Parse any edge list as :func:`load_edge_list` describes.

    One pass checks each line as it reads it, so the first bad line raises.
    Labels get integer ids in first-seen order and each edge is kept under
    its ordered id pair; the ids are renumbered in sorted label order at the
    end.
    """
    index: dict[str, int] = {}
    edges: dict[tuple[int, int], float] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise ParseError(f"line {lineno}: expected 3 tab-separated fields, got {len(parts)}")
        u, v, wtext = map(str.strip, parts)
        if not u or not v:
            raise ParseError(f"line {lineno}: empty vertex label")
        try:
            w = float(wtext)
        except ValueError:
            raise ParseError(f"line {lineno}: bad weight {wtext!r}") from None
        if not math.isfinite(w):
            raise ParseError(f"line {lineno}: weight must be finite")
        if w < 0:
            raise NegativeWeight(f"line {lineno}: negative weight {w}")
        if u == v:
            raise SelfLoop(f"line {lineno}: self loop at {u!r}")
        a, b = index.setdefault(u, len(index)), index.setdefault(v, len(index))
        key = (a, b) if a < b else (b, a)
        if key in edges:
            raise DuplicateEdge(f"line {lineno}: duplicate edge {u!r} -- {v!r}")
        edges[key] = w
    ids = tuple(sorted(index))
    rank = np.empty(len(ids), _index_dtype(len(ids)))
    rank[[index[label] for label in ids]] = np.arange(len(ids))
    del index
    pairs = rank[np.fromiter(chain.from_iterable(edges), dtype=np.intp, count=2 * len(edges))]
    w = np.fromiter(edges.values(), dtype=float, count=len(edges))
    del edges
    return WeightedGraph(_symmetric(pairs[0::2], pairs[1::2], w, len(ids)), ids)


def _load_plain(text: str) -> WeightedGraph | None:
    """Parse a plain edge list over its bytes; None for any other text.

    A text is plain when it is nonempty ASCII, every line (the last may
    lack its newline) is ``u<TAB>v<TAB>w`` with nonempty fields, the tabs
    and newlines are its only bytes below 33 (so it holds no space, no
    carriage return and nothing else that ``strip`` or ``splitlines`` acts
    on), no line starts with ``#`` and no label is longer than 8 bytes.
    Each label is then its bytes, zero padded, read as one big-endian
    64-bit key, whose order is the strings' order, and the weights are
    numpy's casts of their bytes, which equal ``float``'s.  A plain text
    with a bad line also gives None, so :func:`_load_lines` reports it.
    Only the bad lines the constructor cannot see are looked for here: a
    self loop (one of weight 0 is dropped before its diagonal test) and a
    repeated vertex pair (which it sums).  A non-finite or negative weight,
    or a volume outside the float range, makes the constructor raise.
    """
    if not text or not text.isascii():
        return None
    body = np.frombuffer(text.encode() + (b"" if text.endswith("\n") else b"\n"), np.uint8)
    sep = np.flatnonzero(body < 33)
    m = sep.size // 3
    if sep.size % 3 or not (body[sep].reshape(m, 3) == (9, 9, 10)).all():
        return None
    start = np.concatenate(([0], sep[:-1] + 1)).reshape(m, 3)
    length = sep.reshape(m, 3) - start
    if not length.all() or length[:, :2].max() > 8 or (body[start[:, 0]] == 35).any():
        return None
    width = int(length[:, 2].max())
    # zero padding lets a window of either width start at every field
    b = np.concatenate((body, np.zeros(max(8, width), np.uint8)))
    del body, sep
    # the u label of every line, then the v label of every line: the 8
    # bytes from its start, with those past its end shifted out
    keys = sliding_window_view(b, 8)[start[:, :2].T.ravel()].view(">u8").astype(np.uint64)
    cut = (8 * (8 - length[:, :2].T.reshape(-1, 1))).astype(np.uint64)
    keys >>= cut
    keys <<= cut
    ids, inverse = np.unique(keys.ravel(), return_inverse=True)
    del keys, cut
    n = ids.size
    ids = tuple(ids.astype(">u8").view("S8").astype(str).tolist())
    inverse = inverse.astype(_index_dtype(n))
    windows = sliding_window_view(b, width)
    w = np.empty(m)
    step = max(1, _BLOCK_BYTES // width)
    for lo in range(0, m, step):
        cells = windows[start[lo:lo + step, 2]]
        cells *= np.arange(width) < length[lo:lo + step, 2:]
        try:
            w[lo:lo + step] = cells.view(f"S{width}").ravel().astype(float)
        except ValueError:
            return None
    iu, iv = inverse[:m], inverse[m:]
    # 64-bit: the key reaches n^2, past int32 from n = 46,341
    key = np.minimum(iu, iv).astype(np.int64) * n + np.maximum(iu, iv)
    key.sort()
    if (iu == iv).any() or (key[1:] == key[:-1]).any():
        return None
    del key
    try:
        return WeightedGraph(_symmetric(iu, iv, w, n), ids)
    except (NegativeWeight, ValueError):
        return None


def load_edge_list(text: str) -> WeightedGraph:
    """Parse tab-separated ``u<TAB>v<TAB>w`` lines into a graph.

    Blank lines and lines starting with ``#`` are skipped.  Vertices are
    indexed in sorted label order.  Raises ParseError, SelfLoop,
    NegativeWeight, or DuplicateEdge with the offending line number.

    A plain text (:func:`_load_plain`: ASCII, no whitespace but the tabs and
    newlines, no comment or blank line, labels of at most 8 bytes), such as
    every text :func:`dump_edge_list` writes for a block-model or classical
    graph of up to 10^7 vertices, is parsed over its bytes with numpy.  Any
    other text, and a plain one with a bad line, is read line by line
    (:func:`_load_lines`), which gives the same graph or reports the
    earliest bad line.
    """
    g = _load_plain(text)
    return _load_lines(text) if g is None else g


def _check_dump_label(label: str) -> None:
    """Reject a label that :func:`load_edge_list` would not read back unchanged."""
    if not label:
        problem = "is empty"
    elif "\t" in label:
        problem = "contains a tab"
    elif label.splitlines() != [label]:
        problem = "contains a line break"
    elif label != label.strip():
        problem = "has leading or trailing whitespace"
    elif label.startswith("#"):
        problem = "starts with '#'"
    else:
        return
    raise ValueError(f"vertex label {label!r} {problem}, so an edge list cannot hold it")


def dump_edge_list(g: WeightedGraph) -> str:
    """Serialize positive-weight edges as ``u<TAB>v<TAB>w`` lines, i < j order.

    Weights use repr, so loading the output gives back every edge weight
    exactly.  Vertices without edges are not written, and the loaded graph
    orders its vertices by sorted label.  Raises ValueError for a label
    that would not load back unchanged: empty, holding a tab or line break,
    with leading or trailing whitespace, or starting with ``#``.
    """
    lines = []
    # row-major, as the CSR array's indices are sorted
    upper = triu(g.csr, k=1, format="coo")
    rows, cols = upper.coords
    for i in np.unique(np.concatenate([rows, cols])):
        _check_dump_label(g.vertex_ids[i])
    for i, j, w in zip(rows, cols, upper.data):
        lines.append(f"{g.vertex_ids[i]}\t{g.vertex_ids[j]}\t{float(w)!r}")
    return "\n".join(lines) + ("\n" if lines else "")
