"""Graph generators: block models, deterministic families, vertex blow-ups.

Block models (the complete, bipartite and two-clique families included)
gather their block probabilities over the vertices into a dense array with
:func:`_slot_weights`; random graphs link it with :func:`_link`, one seeded
PCG64 uniform per pair, so a (model, seed) pair yields the same graph on
every platform.  A blow-up gathers the graph's CSR array over repeated
vertices.  Every graph is made by the one ``WeightedGraph`` constructor.
"""
from __future__ import annotations

import inspect
from dataclasses import dataclass

import numpy as np

from .errors import BadSize
from .graph import WeightedGraph


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


def _slot_weights(probs: np.ndarray, slots: np.ndarray) -> np.ndarray:
    """Dense ``probs[s_i, s_j]`` over the slots with a zero diagonal."""
    w = probs.take(slots, axis=0).take(slots, axis=1)
    np.fill_diagonal(w, 0.0)
    return w


def _link(pair_probs: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Symmetric 0/1 float matrix linking each pair i < j whose uniform from
    one ``rng.random(shape)`` draw falls below the pair's probability."""
    upper = np.triu(rng.random(pair_probs.shape) < pair_probs, k=1)
    return (upper | upper.T).astype(float)


def generalized_random_graph(model: BlockModel, seed: int) -> tuple[WeightedGraph, np.ndarray]:
    """Sample a 0/1 graph where pair (i, j) links with its block probability.

    Returns the graph and the planted block label of each vertex; the pairs
    are linked by :func:`_link` on a fresh PCG64 stream.
    """
    blocks = model.block_of_vertex()
    rng = np.random.Generator(np.random.PCG64(seed))
    w = _link(_slot_weights(model.probs, blocks), rng)
    return WeightedGraph(w), blocks


def expected_block_graph(model: BlockModel) -> WeightedGraph:
    """Deterministic weighted graph whose pair weights equal the block probabilities.

    The diagonal is zero, so within-block weights follow the complete-graph
    pattern rather than adding self loops.
    """
    w = _slot_weights(model.probs, model.block_of_vertex())
    return WeightedGraph(w)


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
    return WeightedGraph(np.eye(n, k=1) + np.eye(n, k=-1))


def two_cliques_bridge(m: int) -> WeightedGraph:
    """Two complete graphs on m vertices joined by a single unit edge."""
    if m < 1:
        raise BadSize("cliques need m >= 1")
    cliques = BlockModel((m, m), np.eye(2))
    w = _slot_weights(cliques.probs, cliques.block_of_vertex())
    w[m - 1, m] = w[m, m - 1] = 1.0
    return WeightedGraph(w)


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
    return _CLASSICAL[name](*(int(a) for a in args))


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
