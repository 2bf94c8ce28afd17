"""Graph generators: block models, deterministic families, vertex blow-ups.

Block models (the complete, bipartite and two-clique families included) and
samples are made by one linker, :func:`_link`: a block of rows at a time, it
keeps the pairs i < j of those rows and hands them, in row order, to the
parser's edge assembly ``graph._symmetric``, so no n x n array is made.  A
random pair links when its uniform, the next from one seeded PCG64
``random((n, n))`` stream, falls below its weight, so a (model, seed) pair
yields the same graph on every platform and for any block size.  A blow-up gathers the graph's CSR array
over repeated vertices.  Every graph is made by the one ``WeightedGraph``
constructor.
"""
from __future__ import annotations

import inspect
import operator
from dataclasses import dataclass

import numpy as np
from scipy.sparse import coo_array, diags_array

from .errors import BadSize
from .graph import WeightedGraph, _index_dtype, _symmetric


def _sizes(values) -> tuple[int, ...]:
    """Sizes as ints; a float or any other non-integer is refused, never truncated."""
    values = tuple(values)
    try:
        return tuple(operator.index(v) for v in values)
    except TypeError:
        raise BadSize(f"sizes must be integers, got {values!r}") from None


@dataclass(frozen=True)
class BlockModel:
    """Vertex-block sizes plus a symmetric block probability matrix."""

    sizes: tuple[int, ...]
    probs: np.ndarray

    def __post_init__(self):
        sizes = _sizes(self.sizes)
        if not sizes or any(s <= 0 for s in sizes):
            raise BadSize("block sizes must be positive")
        p = np.array(self.probs, dtype=float)
        k = len(sizes)
        if p.shape != (k, k):
            raise BadSize(f"probability matrix must be {k}x{k}")
        # a comparison with NaN is False, so NaN fails here and not as asymmetric
        if not ((p >= 0) & (p <= 1)).all():
            raise BadSize("probabilities must lie in [0, 1]")
        if not np.array_equal(p, p.T):
            raise BadSize("probability matrix must be symmetric")
        p.setflags(write=False)
        object.__setattr__(self, "sizes", sizes)
        object.__setattr__(self, "probs", p)

    @property
    def n(self) -> int:
        return sum(self.sizes)

    @property
    def k(self) -> int:
        return len(self.sizes)

    def block_of_vertex(self) -> np.ndarray:
        return np.repeat(np.arange(self.k), self.sizes)


# pairs per row block of the linker, so its temporaries stay small next to
# the n^2 pairs
_BLOCK_CELLS = 1 << 18


def _link(n: int, pair_weights, rng: np.random.Generator | None = None) -> coo_array:
    """Symmetric n x n COO array of the pairs i < j, a block of rows at a time.

    ``pair_weights(lo, hi)`` gives the dense weights of rows lo..hi-1 against
    all n columns.  With ``rng`` a pair gets weight 1 when its uniform falls
    below its weight, else it keeps the weight.  The pairs come in row
    order, so the columns of each row are sorted.
    """
    step = max(1, _BLOCK_CELLS // max(n, 1))
    itype = _index_dtype(n)
    rows, cols, vals = [np.empty(0, itype)], [np.empty(0, itype)], [np.empty(0)]
    for lo in range(0, n, step):
        w = pair_weights(lo, min(lo + step, n))
        if rng is not None:
            w = rng.random(w.shape) < w
        i, j = np.nonzero(np.triu(w, k=lo + 1))
        rows.append((i + lo).astype(itype))
        cols.append(j.astype(itype))
        vals.append(w[i, j])
    return _symmetric(np.concatenate(rows), np.concatenate(cols), np.concatenate(vals), n)


def _block_weights(model: BlockModel):
    """Pair weights of a block model's rows lo..hi-1, for :func:`_link`."""
    blocks = model.block_of_vertex()
    return lambda lo, hi: model.probs.take(blocks[lo:hi], axis=0).take(blocks, axis=1)


def generalized_random_graph(model: BlockModel, seed: int) -> tuple[WeightedGraph, np.ndarray]:
    """Sample a 0/1 graph where pair (i, j) links with its block probability.

    Returns the graph and the planted block label of each vertex; the pairs
    are linked by :func:`_link` on a fresh PCG64 stream.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    return WeightedGraph(_link(model.n, _block_weights(model), rng)), model.block_of_vertex()


def expected_block_graph(model: BlockModel) -> WeightedGraph:
    """Deterministic weighted graph whose pair weights equal the block probabilities.

    The diagonal is zero, so within-block weights follow the complete-graph
    pattern rather than adding self loops.
    """
    return WeightedGraph(_link(model.n, _block_weights(model)))


def complete_graph(n: int) -> WeightedGraph:
    if n < 1:
        raise BadSize("complete graph needs n >= 1")
    return expected_block_graph(BlockModel((n,), np.ones((1, 1))))


def complete_bipartite(a: int, b: int) -> WeightedGraph:
    if a < 1 or b < 1:
        raise BadSize("complete bipartite graph needs both sides nonempty")
    return expected_block_graph(BlockModel((a, b), 1.0 - np.eye(2)))


def path_graph(n: int) -> WeightedGraph:
    if n < 1:
        raise BadSize("path graph needs n >= 1")
    ones = np.ones(n - 1)
    return WeightedGraph(diags_array([ones, ones], offsets=[1, -1], shape=(n, n)))


def two_cliques_bridge(m: int) -> WeightedGraph:
    """Two complete graphs on m vertices joined by a single unit edge."""
    if m < 1:
        raise BadSize("cliques need m >= 1")
    cliques = BlockModel((m, m), np.eye(2))
    bridge = coo_array((np.ones(2), ([m - 1, m], [m, m - 1])), shape=(2 * m, 2 * m))
    return WeightedGraph(_link(2 * m, _block_weights(cliques)) + bridge)


_CLASSICAL = {
    "complete": complete_graph,
    "complete_bipartite": complete_bipartite,
    "path": path_graph,
    "two_cliques_bridge": two_cliques_bridge,
}


def _size_names(name: str) -> tuple[str, ...]:
    """Names of the sizes a classical family takes, in positional order."""
    try:
        return tuple(inspect.signature(_CLASSICAL[name]).parameters)
    except KeyError:
        raise BadSize(f"unknown classical family {name!r}") from None


def classical(name: str, *args: int) -> WeightedGraph:
    """Dispatch to a named deterministic family; sizes are positional."""
    names = _size_names(name)
    if len(args) != len(names):
        raise BadSize(f"classical {name!r} takes sizes ({', '.join(names)}), "
                      f"got {len(args)}")
    return _CLASSICAL[name](*_sizes(args))


def blow_up(g: WeightedGraph, t: int) -> WeightedGraph:
    """Replace each vertex by t copies; copies of distinct vertices keep the
    original pair weight and copies of the same vertex stay non-adjacent.

    Copy c of original vertex i sits at index i * t + c and is labelled
    ``<original>#<c>``.
    """
    if t < 1:
        raise BadSize("blow-up factor must be >= 1")
    ids = tuple(f"{v}#{c:03d}" for v in g.vertex_ids for c in range(t))
    return WeightedGraph(g._gather(np.repeat(np.arange(g.n), t)), ids)
