"""Graph generators: block models, deterministic families, vertex blow-ups.

Randomness comes from numpy's PCG64 generator seeded explicitly.  For the
random block model a single n-by-n uniform array is drawn row by row and the
upper triangle compared against the block probabilities, so a (model, seed)
pair always yields the same graph regardless of platform.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BadSize
from .graph import WeightedGraph, default_vertex_ids


@dataclass(frozen=True)
class BlockModel:
    """Vertex-block sizes plus a symmetric block probability matrix."""

    sizes: tuple[int, ...]
    probs: np.ndarray

    def __post_init__(self):
        sizes = tuple(int(s) for s in self.sizes)
        if not sizes or any(s <= 0 for s in sizes):
            raise BadSize("block sizes must be positive")
        p = np.array(self.probs, dtype=float)
        k = len(sizes)
        if p.shape != (k, k):
            raise BadSize(f"probability matrix must be {k}x{k}")
        if not np.array_equal(p, p.T):
            raise BadSize("probability matrix must be symmetric")
        if (p < 0).any() or (p > 1).any():
            raise BadSize("probabilities must lie in [0, 1]")
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


def generalized_random_graph(model: BlockModel, seed: int) -> tuple[WeightedGraph, np.ndarray]:
    """Sample a 0/1 graph where pair (i, j) links with its block probability.

    Returns the graph and the planted block label of each vertex.  Edges are
    decided by comparing one uniform per ordered pair (i < j, row-major) from
    a fresh PCG64 stream against the pair's block probability.
    """
    n = model.n
    blocks = model.block_of_vertex()
    rng = np.random.Generator(np.random.PCG64(seed))
    uniforms = rng.random((n, n))
    pairp = model.probs[np.ix_(blocks, blocks)]
    hit = uniforms < pairp
    upper = np.triu(hit, k=1)
    w = (upper | upper.T).astype(float)
    return WeightedGraph(w, default_vertex_ids(n)), blocks


def expected_block_graph(model: BlockModel) -> WeightedGraph:
    """Deterministic weighted graph whose pair weights equal the block probabilities.

    The diagonal is zero, so within-block weights follow the complete-graph
    pattern rather than adding self loops.
    """
    blocks = model.block_of_vertex()
    w = model.probs[np.ix_(blocks, blocks)].copy()
    np.fill_diagonal(w, 0.0)
    return WeightedGraph(w, default_vertex_ids(model.n))


def complete_graph(n: int) -> WeightedGraph:
    if n < 1:
        raise BadSize("complete graph needs n >= 1")
    w = np.ones((n, n)) - np.eye(n)
    return WeightedGraph(w, default_vertex_ids(n))


def complete_bipartite(a: int, b: int) -> WeightedGraph:
    if a < 1 or b < 1:
        raise BadSize("complete bipartite graph needs both sides nonempty")
    n = a + b
    w = np.zeros((n, n))
    w[:a, a:] = 1.0
    w[a:, :a] = 1.0
    return WeightedGraph(w, default_vertex_ids(n))


def path_graph(n: int) -> WeightedGraph:
    if n < 1:
        raise BadSize("path graph needs n >= 1")
    w = np.zeros((n, n))
    for i in range(n - 1):
        w[i, i + 1] = w[i + 1, i] = 1.0
    return WeightedGraph(w, default_vertex_ids(n))


def two_cliques_bridge(m: int) -> WeightedGraph:
    """Two complete graphs on m vertices joined by a single unit edge."""
    if m < 1:
        raise BadSize("cliques need m >= 1")
    n = 2 * m
    w = np.zeros((n, n))
    block = np.ones((m, m)) - np.eye(m)
    w[:m, :m] = block
    w[m:, m:] = block
    w[m - 1, m] = w[m, m - 1] = 1.0
    return WeightedGraph(w, default_vertex_ids(n))


_CLASSICAL = {
    "complete": complete_graph,
    "complete_bipartite": complete_bipartite,
    "path": path_graph,
    "two_cliques_bridge": two_cliques_bridge,
}


def classical(name: str, *args: int) -> WeightedGraph:
    """Dispatch to a named deterministic family; sizes are positional."""
    try:
        builder = _CLASSICAL[name]
    except KeyError:
        raise BadSize(f"unknown classical family {name!r}") from None
    return builder(*(int(a) for a in args))


def blow_up(g: WeightedGraph, t: int) -> WeightedGraph:
    """Replace each vertex by t copies; copies of distinct vertices keep the
    original pair weight and copies of the same vertex stay non-adjacent.

    Copy c of original vertex i sits at index i * t + c and is labelled
    ``<original>#<c>``.
    """
    if t < 1:
        raise BadSize("blow-up factor must be >= 1")
    w = np.kron(g.weights, np.ones((t, t)))
    ids = tuple(f"{v}#{c:03d}" for v in g.vertex_ids for c in range(t))
    return WeightedGraph._adopt(w, ids)
