import re
import tracemalloc
from dataclasses import FrozenInstanceError
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_array

from modspec import (
    BlockModel,
    DuplicateEdge,
    NegativeWeight,
    ParseError,
    SelfLoop,
    WeightedGraph,
    ZeroVolume,
    dump_edge_list,
    expected_block_graph,
    generalized_random_graph,
    load_edge_list,
    vertex_subset,
)
from modspec import graph
from modspec.generators import (blow_up, classical, complete_graph, path_graph,
                               two_cliques_bridge)
from modspec.graph import _index_dtype, default_vertex_ids
from modspec.sampling import sample_subgraph
from modspec.spectral import spectral_decomposition


def triangle():
    w = np.array([[0.0, 1.0, 2.0],
                  [1.0, 0.0, 0.5],
                  [2.0, 0.5, 0.0]])
    return WeightedGraph(w)


def random_graph(rng, n, density=0.5):
    w = rng.random((n, n)) * (rng.random((n, n)) < density)
    w = np.triu(w, k=1)
    return WeightedGraph(w + w.T)


def test_default_ids_zero_padded():
    assert default_vertex_ids(3) == ("v0", "v1", "v2")
    ids = default_vertex_ids(12)
    assert ids[0] == "v00" and ids[11] == "v11"
    assert list(ids) == sorted(ids)


def test_vertex_subset_sorts_and_validates():
    assert vertex_subset([3, 1, 2], 5).tolist() == [1, 2, 3]
    assert vertex_subset([], 5).size == 0
    with pytest.raises(ValueError):
        vertex_subset([0, 5], 5)
    with pytest.raises(ValueError):
        vertex_subset([-1], 5)
    with pytest.raises(ValueError):
        vertex_subset([1, 1], 5)


def test_vertex_subset_rejects_non_integer_indices():
    g = triangle()
    for bad in ([0.7], [0, 1.0], np.array([1.0]), [True], ["0"]):
        with pytest.raises(ValueError, match="integers"):
            vertex_subset(bad, 3)
    with pytest.raises(ValueError, match="integers"):
        g.volume([0.7])
    assert vertex_subset(np.array([2, 0], dtype=np.uint8), 3).tolist() == [0, 2]
    assert vertex_subset(np.array([], dtype=float), 3).dtype == np.intp
    assert g.volume([]) == 0.0


def test_constructor_validation():
    with pytest.raises(ValueError):
        WeightedGraph(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        WeightedGraph(np.array([[0.0, 1.0], [2.0, 0.0]]))
    with pytest.raises(NegativeWeight):
        WeightedGraph(np.array([[0.0, -1.0], [-1.0, 0.0]]))
    with pytest.raises(SelfLoop):
        WeightedGraph(np.array([[1.0, 0.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        WeightedGraph(np.array([[0.0, np.inf], [np.inf, 0.0]]))
    with pytest.raises(ValueError):
        WeightedGraph(np.array([[0.0, np.nan], [np.nan, 0.0]]))
    with pytest.raises(ValueError):
        WeightedGraph(np.zeros((2, 2)), ("a",))
    with pytest.raises(ValueError):
        WeightedGraph(np.zeros((2, 2)), ("a", "a"))
    # labels in an array: no truth test of the array, and "" is a label
    assert WeightedGraph(np.zeros((2, 2)), np.array(["a", "b"])).vertex_ids == ("a", "b")
    assert WeightedGraph(np.zeros((1, 1)), np.array([""])).vertex_ids == ("",)
    with pytest.raises(ValueError, match="length must match"):
        WeightedGraph(np.zeros((2, 2)), np.array(["a", "b", "c"]))


def test_total_volume_must_be_zero_or_a_normal_float():
    for weight, volume in ((1e308, "inf"), (1e-310, "6e-310")):
        w = np.zeros((4, 4))
        for i in range(3):
            w[i, i + 1] = w[i + 1, i] = weight
        with pytest.raises(ValueError, match=f"total volume {volume} "):
            WeightedGraph(w)
        with pytest.raises(ValueError, match=f"total volume {volume} "):
            load_edge_list("".join(f"{i}\t{i + 1}\t{weight!r}\n" for i in range(3)))
    assert WeightedGraph(np.zeros((3, 3))).total_volume == 0.0


def test_weights_are_frozen():
    g = triangle()
    with pytest.raises(ValueError):
        g.weights[0, 1] = 9.0
    with pytest.raises(ValueError):
        g.degrees[0] = 9.0


def test_degrees_and_volume():
    g = triangle()
    assert np.allclose(g.degrees, [3.0, 1.5, 2.5])
    assert g.total_volume == pytest.approx(7.0)
    assert g.volume([0, 2]) == pytest.approx(5.5)
    assert g.volume([]) == 0.0


def test_normalize_volume():
    g = triangle().normalize_volume()
    assert g.total_volume == pytest.approx(1.0, abs=1e-15)
    assert g.vertex_ids == ("v0", "v1", "v2")
    empty = WeightedGraph(np.zeros((3, 3)))
    with pytest.raises(ZeroVolume):
        empty.normalize_volume()


def test_weighted_cut_counts_ordered_pairs():
    g = triangle()
    assert g.weighted_cut([0], [1, 2]) == pytest.approx(3.0)
    assert g.weighted_cut([0, 1, 2], [0, 1, 2]) == pytest.approx(7.0)
    # same-set cut doubles each internal edge
    assert g.weighted_cut([0, 1], [0, 1]) == pytest.approx(2.0)
    assert g.weighted_cut([], [0]) == 0.0


def test_cut_symmetry_random():
    rng = np.random.default_rng(7)
    for _ in range(20):
        g = random_graph(rng, 8)
        x = np.flatnonzero(rng.random(8) < 0.5)
        y = np.flatnonzero(rng.random(8) < 0.5)
        assert g.weighted_cut(x, y) == pytest.approx(g.weighted_cut(y, x), abs=1e-12)


def test_relative_density():
    g = triangle()
    rho = g.relative_density([0], [1])
    assert rho == pytest.approx(1.0 / (3.0 * 1.5))
    with pytest.raises(ZeroVolume):
        g.relative_density([], [1])
    iso = WeightedGraph(np.array([[0.0, 1.0, 0.0],
                                  [1.0, 0.0, 0.0],
                                  [0.0, 0.0, 0.0]]))
    with pytest.raises(ZeroVolume):
        iso.relative_density([0], [2])


def test_connectivity_and_largest_component():
    g = triangle()
    assert g.is_connected()
    w = np.zeros((5, 5))
    w[0, 1] = w[1, 0] = 1.0
    w[2, 3] = w[3, 2] = 1.0
    w[3, 4] = w[4, 3] = 1.0
    h = WeightedGraph(w)
    assert not h.is_connected()
    assert h.largest_component().vertex_ids == ("v2", "v3", "v4")
    # tie in size resolved toward the component seen first
    w2 = np.zeros((4, 4))
    w2[0, 1] = w2[1, 0] = 1.0
    w2[2, 3] = w2[3, 2] = 1.0
    assert WeightedGraph(w2).largest_component().vertex_ids == ("v0", "v1")
    assert WeightedGraph(np.zeros((0, 0))).largest_component().n == 0


def test_largest_component_tie_among_many_equal_components():
    # vertex 0 is isolated and the rest pair up at random: 500 components tie
    rng = np.random.default_rng(4)
    n = 1001
    pairs = rng.permutation(np.arange(1, n)).reshape(-1, 2)
    w = np.zeros((n, n))
    w[pairs[:, 0], pairs[:, 1]] = w[pairs[:, 1], pairs[:, 0]] = 1.0
    g = WeightedGraph(w)
    _, labels = g._components
    # oracle: each tied candidate's first vertex, found by one scan per candidate
    sizes = np.bincount(labels)
    candidates = np.flatnonzero(sizes == sizes.max())
    first_seen = [int(np.argmax(labels == c)) for c in candidates]
    oracle = np.flatnonzero(labels == candidates[int(np.argmin(first_seen))])
    index = {v: i for i, v in enumerate(g.vertex_ids)}
    chosen = [index[v] for v in g.largest_component().vertex_ids]
    assert chosen == oracle.tolist()
    # the tied pair holding the smallest vertex wins
    assert chosen == sorted(pairs[(pairs == 1).any(axis=1)][0].tolist())
    assert labels[chosen[0]] != labels[0]


def test_largest_component_is_the_graph_or_a_connected_labelled_subgraph():
    for g in (triangle(), WeightedGraph(np.zeros((1, 1))), WeightedGraph(np.zeros((0, 0)))):
        assert g.largest_component() is g
    w = np.zeros((6, 6))
    w[0, 5] = w[5, 0] = 1.0
    w[1, 2] = w[2, 1] = 0.5
    w[2, 4] = w[4, 2] = 2.0
    g = WeightedGraph(w, ("f", "e", "d", "c", "b", "a"))
    big = g.largest_component()
    assert big.is_connected()
    assert big.vertex_ids == ("e", "d", "b")
    assert np.array_equal(big.weights, w[np.ix_([1, 2, 4], [1, 2, 4])])


def test_induced_subgraph_keeps_labels():
    g = triangle()
    sub = g.induced_subgraph([0, 2])
    assert sub.vertex_ids == ("v0", "v2")
    assert sub.weights[0, 1] == pytest.approx(2.0)


def test_load_edge_list_basic():
    text = "# comment\n\nb\ta\t1.5\nc\tb\t2.0\n"
    g = load_edge_list(text)
    assert g.vertex_ids == ("a", "b", "c")
    assert g.weights[0, 1] == pytest.approx(1.5)
    assert g.weights[1, 2] == pytest.approx(2.0)
    assert g.weights[0, 2] == 0.0


def test_load_edge_list_errors_carry_line_numbers():
    with pytest.raises(ParseError, match="line 2"):
        load_edge_list("a\tb\t1\nbroken line\n")
    with pytest.raises(ParseError, match="bad weight"):
        load_edge_list("a\tb\tnope\n")
    with pytest.raises(ParseError, match="finite"):
        load_edge_list("a\tb\tinf\n")
    with pytest.raises(ParseError, match="empty vertex"):
        load_edge_list("a\t\t1\n")
    with pytest.raises(SelfLoop, match="line 1"):
        load_edge_list("a\ta\t1\n")
    with pytest.raises(NegativeWeight, match="line 1"):
        load_edge_list("a\tb\t-2\n")
    with pytest.raises(DuplicateEdge, match="line 3"):
        load_edge_list("a\tb\t1\nc\td\t1\nb\ta\t2\n")


def test_zero_weight_edge_kept_as_non_edge():
    g = load_edge_list("a\tb\t0\na\tc\t1\n")
    assert g.n == 3
    assert g.weights[0, 1] == 0.0


def test_dump_round_trips_exactly():
    rng = np.random.default_rng(3)
    for _ in range(10):
        g = random_graph(rng, 7)
        back = load_edge_list(dump_edge_list(g))
        keep = np.flatnonzero(g.degrees > 0)
        expect = g.weights[np.ix_(keep, keep)]
        assert back.n == keep.size
        assert np.array_equal(back.weights, expect)
    assert dump_edge_list(WeightedGraph(np.zeros((2, 2)))) == ""


# ------------------------------------------------------------ reader oracle


def reference_load_edge_list(text):
    """Line-by-line edge-list reader kept as an independent oracle for load_edge_list."""
    edges = {}
    labels = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise ParseError(f"line {lineno}: expected 3 tab-separated fields, got {len(parts)}")
        u, v, wtext = (p.strip() for p in parts)
        if not u or not v:
            raise ParseError(f"line {lineno}: empty vertex label")
        try:
            w = float(wtext)
        except ValueError:
            raise ParseError(f"line {lineno}: bad weight {wtext!r}") from None
        if not np.isfinite(w):
            raise ParseError(f"line {lineno}: weight must be finite")
        if w < 0:
            raise NegativeWeight(f"line {lineno}: negative weight {w}")
        if u == v:
            raise SelfLoop(f"line {lineno}: self loop at {u!r}")
        key = (u, v) if u < v else (v, u)
        if key in edges:
            raise DuplicateEdge(f"line {lineno}: duplicate edge {u!r} -- {v!r}")
        edges[key] = w
        labels.add(u)
        labels.add(v)
    ids = tuple(sorted(labels))
    index = {lab: i for i, lab in enumerate(ids)}
    weights = np.zeros((len(ids), len(ids)))
    for (u, v), w in edges.items():
        weights[index[u], index[v]] = w
        weights[index[v], index[u]] = w
    return WeightedGraph(weights, ids)


def outcome(reader, text):
    """The graph a reader returns (labels, weight bytes) or the error it raises."""
    try:
        g = reader(text)
    except Exception as exc:  # the class and message are what is compared
        return ("error", type(exc), str(exc))
    return ("graph", g.vertex_ids, g.weights.tobytes())


def assert_same_as_reference(text):
    assert outcome(load_edge_list, text) == outcome(reference_load_edge_list, text), repr(text)


LABELS = ("a", "b", "c", "d", "ab", " a", "b ", "", " ", "#c", "a b", "é")
WEIGHTS = ("1", "0.5", "2.0", "0", "-0.0", "1e-3", " 3", "nan", "inf", "-inf",
           "-1", "1_0", "x", "", "0x1", "١")
ENDINGS = ("\n", "\r\n", "\r", "\t\n", " \n", "\x0b", " ")


@st.composite
def edge_list_texts(draw):
    lines = []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(("edge", "edge", "edge", "blank", "comment", "fields")))
        if kind == "blank":
            line = draw(st.sampled_from(("", " ", "\t")))
        elif kind == "comment":
            line = draw(st.sampled_from(("# note", "  #\tx\ty\t1", "#")))
        elif kind == "fields":
            parts = draw(st.lists(st.sampled_from(LABELS + WEIGHTS), max_size=5))
            line = "\t".join(parts)
        else:
            u, v = draw(st.sampled_from(LABELS)), draw(st.sampled_from(LABELS))
            line = f"{u}\t{v}\t{draw(st.sampled_from(WEIGHTS))}"
        lines.append(line + draw(st.sampled_from(ENDINGS)))
    return "".join(lines)


@given(edge_list_texts())
@settings(max_examples=400)
def test_reader_matches_reference_on_generated_lists(text):
    assert_same_as_reference(text)


def mutate(rng, text):
    """Apply a few random edits of the kinds that break edge lists."""
    alphabet = ["\t", "\n", "\r", " ", "#", "-", "x", "n", "a", "_", "0", ".", "e"]
    lines = text.splitlines(keepends=True)
    for _ in range(rng.integers(1, 4)):
        op = rng.integers(0, 6)
        if not lines:
            lines = ["a\tb\t1\n"]
        i = int(rng.integers(0, len(lines)))
        line = lines[i]
        if op == 0:  # insert a character
            pos = int(rng.integers(0, len(line) + 1))
            lines[i] = line[:pos] + alphabet[rng.integers(0, len(alphabet))] + line[pos:]
        elif op == 1 and line:  # delete a character
            pos = int(rng.integers(0, len(line)))
            lines[i] = line[:pos] + line[pos + 1:]
        elif op == 2:  # repeat a line later, possibly reversed
            parts = line.rstrip("\n").split("\t")
            if len(parts) == 3 and rng.random() < 0.5:
                parts[0], parts[1] = parts[1], parts[0]
            lines.insert(int(rng.integers(i, len(lines) + 1)), "\t".join(parts) + "\n")
        elif op == 3:  # replace the weight
            parts = line.rstrip("\n").split("\t")
            parts[-1] = WEIGHTS[rng.integers(0, len(WEIGHTS))]
            lines[i] = "\t".join(parts) + "\n"
        elif op == 4:  # turn the line into a self loop
            parts = line.rstrip("\n").split("\t")
            if len(parts) == 3:
                parts[1] = parts[0]
                lines[i] = "\t".join(parts) + "\n"
        else:  # blank or comment line
            lines.insert(i, ["\n", "# c\n", "  \r\n"][rng.integers(0, 3)])
    return "".join(lines)


def test_reader_matches_reference_on_fuzzed_lists():
    rng = np.random.default_rng(2024)
    for _ in range(2000):
        n = int(rng.integers(2, 8))
        g = random_graph(rng, n, density=0.6)
        text = dump_edge_list(g)
        assert_same_as_reference(text)
        assert_same_as_reference(mutate(rng, text))


@pytest.mark.parametrize("text, error, message", [
    # bad weight first, then a bad field count: the weight wins
    ("a\tb\t1\nc\td\tx\ne\tf\n", ParseError, "line 2: bad weight 'x'"),
    # bad field count first, then a bad weight
    ("a\tb\n\nc\td\tx\n", ParseError, "line 1: expected 3 tab-separated fields, got 2"),
    # duplicate before a bad field count
    ("a\tb\t1\nb\ta\t2\nc\td\t1\t\tq\n", DuplicateEdge, "line 2: duplicate edge 'b' -- 'a'"),
    # negative weight before a duplicate of an earlier line
    ("a\tb\t1\nc\td\t-1\na\tb\t1\n", NegativeWeight, "line 2: negative weight -1.0"),
    # self loop after a comment and before an empty label
    ("# x\nc\tc\t1\nd\t \t1\n", SelfLoop, "line 2: self loop at 'c'"),
    # empty label before a non-finite weight
    ("a\t\t1\r\nb\tc\tnan\r\n", ParseError, "line 1: empty vertex label"),
    # the duplicate of a bad line is not reported; the bad line is
    ("a\tb\tinf\na\tb\t1\n", ParseError, "line 1: weight must be finite"),
])
def test_reader_reports_earliest_error(text, error, message):
    with pytest.raises(error) as info:
        load_edge_list(text)
    assert str(info.value) == message
    assert_same_as_reference(text)


def test_reader_edge_cases_match_reference():
    for text in ["", "\n\n", "# only\n", "a\tb\t1", "a\tb\t1\t\n", "a\tb\t-0.0\n",
                 "a\tb\t1_0\n", " a \t b \t 2 \n", "a\tb\t0\nb\tc\t0\n", "b\ta\t1\na\tc\t1\n",
                 "a\tb\t1\x1cc\td\t2\n", "a\tb\t1\x85a\tb\t2\n"]:
        assert_same_as_reference(text)


# ------------------------------------------------------------ plain path

# labels of 1-9 bytes, prefixes of each other and digit strings whose text
# order is not their number order (a 9-byte label keeps a text off the
# plain path); then labels that keep a text off it or break its line
EDGE_LABELS = ("a", "b", "ab", "a!", "~", "9", "10", "v0", "v09", "abcdefgh", "abcdefg",
          "abcdefgi", "abcdefghi", "x#1", "\x7f")
OTHER_LABELS = ("é", "a b", " a", "b ", "", "#c")
# weight tokens that float() and numpy's cast of their bytes both read
# alike, then tokens that both reject or that keep a line from being read
GOOD_WEIGHTS = ("1", "0.5", "0", "-0.0", "1_0", "1e-400", "4.9e-324", "2.4703282292062327e-324",
                ".5", "1.", "0001", "9007199254740993", "0.30000000000000004")
BAD_WEIGHTS = ("1__0", "inf", "INF", "infinity", "+nan", "-1", "1e400", "0x10", "1d5", "1,5",
               "1.5e", "nan(123)", "x", "_1", "", " 1", "1 ", "١")


def parsed(reader, text):
    """Labels and CSR bytes and dtypes of the graph a reader returns, or the
    class and message of the error it raises."""
    try:
        g = reader(text)
    except Exception as exc:  # the class and message are what is compared
        return ("error", type(exc), str(exc))
    return ("graph", g.vertex_ids,
            *((a.dtype, a.tobytes()) for a in (g.csr.data, g.csr.indices, g.csr.indptr)))


@st.composite
def nearly_plain_texts(draw):
    lines = []
    for _ in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(("edge",) * 30 + ("repeat", "other", "comment", "blank",
                                                      "fields", "tabs", "loop")))
        edges = [line for line in lines if line.count("\t") == 2]
        if kind == "repeat" and edges:
            u, v, w = draw(st.sampled_from(edges)).split("\t")
            line = "\t".join((v, u, w) if draw(st.booleans()) else (u, v, w))
        elif kind == "other":
            u, v = (draw(st.sampled_from(EDGE_LABELS + OTHER_LABELS)) for _ in range(2))
            line = f"{u}\t{v}\t{draw(st.sampled_from(GOOD_WEIGHTS + BAD_WEIGHTS))}"
        elif kind == "comment":
            line = draw(st.sampled_from(("# note", "#a\tb\t1", "#")))
        elif kind == "blank":
            line = draw(st.sampled_from(("", " ", "\t")))
        elif kind == "fields":
            line = "\t".join(draw(st.lists(st.sampled_from(EDGE_LABELS), max_size=4)))
        elif kind == "tabs":
            u, v = draw(st.sampled_from(EDGE_LABELS)), draw(st.sampled_from(EDGE_LABELS))
            line = draw(st.sampled_from(("\t{}\t{}\t1", "{}\t{}\t1\t", "{}\t\t{}\t1"))).format(u, v)
        elif kind == "loop":
            u = draw(st.sampled_from(EDGE_LABELS))
            line = f"{u}\t{u}\t1.0"
        else:
            u = draw(st.sampled_from(EDGE_LABELS))
            v = draw(st.sampled_from([x for x in EDGE_LABELS if x != u]))
            w = draw(st.sampled_from(("1.0",) * 8 + GOOD_WEIGHTS))
            line = f"{u}\t{v}\t{w}"
        lines.append(line)
    ends = draw(st.lists(st.sampled_from(("\n",) * 30 + ("\r\n", "\r", "\x0c")),
                         min_size=len(lines), max_size=len(lines)))
    text = "".join(map(str.__add__, lines, ends))
    return text[:-1] if draw(st.booleans()) else text


@given(nearly_plain_texts())
@settings(max_examples=600)
def test_plain_path_agrees_with_the_line_parser(text):
    # the same graph, bytes and dtypes included, or the same error class,
    # message and line number
    assert parsed(load_edge_list, text) == parsed(graph._load_lines, text), repr(text)


@pytest.mark.parametrize("text", [
    "a\tb\t1\n", "a\tb\t1", "abcdefgh\tb\t1\n", "10\t9\t2\n9\tab\t0.5\n", "x#1\ta\t1\n",
    "a\tb\t4.9e-324\nb\tc\t2.4703282292062327e-324\nc\td\t1\n",
    *(f"a\tb\t{w}\n" for w in ("1_0", "1e-300", ".5", "1.", "0001", "9007199254740993")),
    # a line of weight 0 is no bad line
    "a\tb\t0\nb\tc\t1\n",
])
def test_plain_texts_take_the_plain_path(text):
    plain = graph._load_plain(text)
    assert plain is not None
    assert parsed(lambda _: plain, text) == parsed(graph._load_lines, text)


@pytest.mark.parametrize("text", [
    "", "\n", "abcdefghi\tb\t1\n", "é\tb\t1\n", "a b\tc\t1\n", "a\tb\t1\r\n", "a\tb\t1\n\n",
    "# c\na\tb\t1\n", "a\tb\t 1\n", "\ta\tb\t1\n", "a\t\tb\n", "a\tb\n", "a\tb\t1\tc\n",
    "a\tb\t1\x0cc\td\t1\n", "a\tb\t1\x1cc\td\t1\n", "a\tb\t1\x00\n",
    # plain, with a bad line
    "a\tb\tx\n", "a\tb\t1__0\n", "a\tb\tinf\n", "a\tb\t-1\n", "a\ta\t1\n", "a\tb\t1\nb\ta\t2\n",
    # loops and repeated pairs that the constructor would not see, then
    # weights and a volume that it rejects
    "a\ta\t0\n", "a\tb\t0\na\tb\t1\n", "a\tb\t1\nb\ta\t-1\n", "a\tb\tnan\n",
    "a\tb\t1e308\nb\tc\t1e308\n",
])
def test_other_texts_go_to_the_line_parser(text):
    assert graph._load_plain(text) is None


def test_symmetric_gives_row_sorted_pairs_sorted_rows(monkeypatch):
    def unsorted(self):
        raise AssertionError("the CSR conversion sorted a row")

    monkeypatch.setattr(csr_array, "sort_indices", unsorted)
    rng = np.random.default_rng(6)
    iu, iv = np.nonzero(np.triu(rng.random((30, 30)) < 0.3, k=1))
    w = rng.random(iu.size)
    csr = graph._symmetric(iu, iv, w, 30).tocsr()
    assert csr.has_sorted_indices
    assert np.array_equal(csr.toarray(), csr.toarray().T)
    # the mirror images last, the rows would need a sort
    with pytest.raises(AssertionError, match="sorted a row"):
        graph._symmetric(iv, iu, w, 30).tocsr()


def test_only_the_graph_module_indexes_the_csr_array():
    # a block of W is gathered by WeightedGraph._gather, in one place
    for path in Path(graph.__file__).parent.glob("*.py"):
        if path.name != "graph.py":
            assert ".csr[" not in path.read_text(encoding="utf-8"), path.name


def test_dumps_of_generated_graphs_take_the_plain_path(monkeypatch):
    probs = np.full((3, 3), 0.1)
    np.fill_diagonal(probs, 0.6)
    planted, _ = generalized_random_graph(BlockModel((20, 20, 20), probs), 3)
    graphs = (planted, complete_graph(5), path_graph(12), two_cliques_bridge(4),
              classical("complete_bipartite", 3, 4), blow_up(planted, 3),
              planted.normalize_volume(), expected_block_graph(BlockModel((4, 5), probs[:2, :2])))

    def unused(text):
        raise AssertionError("the line parser served a dump of a generated graph")

    monkeypatch.setattr(graph, "_load_lines", unused)
    for g in graphs:
        back = load_edge_list(dump_edge_list(g))
        assert back.vertex_ids == g.vertex_ids
        for got, want in zip((back.csr.data, back.csr.indices, back.csr.indptr),
                             (g.csr.data, g.csr.indices, g.csr.indptr)):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_plain_path_peaks_below_the_line_parser():
    # the plain path's arrays take less memory than the line parser's
    # strings, also for the long repr weights of a normalized graph
    probs = np.full((3, 3), 0.05)
    np.fill_diagonal(probs, 0.3)
    g, _ = generalized_random_graph(BlockModel((200, 200, 200), probs), 4)
    for text in (dump_edge_list(g), dump_edge_list(g.normalize_volume())):
        # hundreds of labels, first seen out of sorted order: the line
        # parser's renumbering gives the plain path's graph
        assert parsed(graph._load_lines, text) == parsed(load_edge_list, text)
        peaks = []
        for reader in (load_edge_list, graph._load_lines):
            tracemalloc.start()
            try:
                reader(text)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] < peaks[1]


def test_dump_rejects_labels_that_cannot_load_back():
    w = np.array([[0.0, 1.0], [1.0, 0.0]])
    for bad in ["", "a\tb", "a\nb", "a\rb", "a\x85b", "a\u2028b", " y", "y ", "#x"]:
        with pytest.raises(ValueError, match=re.escape(repr(bad))):
            dump_edge_list(WeightedGraph(w, ("ok", bad)))
    # an isolated vertex is not written, so its label is never checked
    iso = np.zeros((3, 3))
    iso[0, 1] = iso[1, 0] = 1.0
    assert dump_edge_list(WeightedGraph(iso, ("a", "b", "#x"))) == "a\tb\t1.0\n"


def test_dump_drops_isolated_vertices_and_sorts_labels():
    w = np.zeros((4, 4))
    w[0, 2] = w[2, 0] = 2.5
    w[0, 3] = w[3, 0] = 1.0
    g = WeightedGraph(w, ("z", "lonely", "m", "a b"))
    back = load_edge_list(dump_edge_list(g))
    assert back.vertex_ids == ("a b", "m", "z")
    assert back.weights[2, 1] == 2.5 and back.weights[2, 0] == 1.0


safe_labels = st.text(st.characters(codec="utf-8", exclude_characters="\t"),
                      min_size=1, max_size=6).filter(
    lambda s: s.splitlines() == [s] and s == s.strip() and not s.startswith("#"))


@given(st.data())
@settings(max_examples=100)
def test_dump_load_round_trip_property(data):
    n = data.draw(st.integers(2, 6))
    labels = data.draw(st.lists(safe_labels, min_size=n, max_size=n, unique=True))
    upper = data.draw(st.lists(st.sampled_from([0.0, 0.0, 1.0, 0.1, 1e-300, 7.25, 1e300]),
                               min_size=n * n, max_size=n * n))
    w = np.triu(np.array(upper).reshape(n, n), k=1)
    g = WeightedGraph(w + w.T, tuple(labels))
    back = load_edge_list(dump_edge_list(g))
    keep = [i for i in np.argsort(np.array(labels, dtype=object)) if g.degrees[i] > 0]
    assert back.vertex_ids == tuple(labels[i] for i in keep)
    assert np.array_equal(back.weights, g.weights[np.ix_(keep, keep)])


def test_components_are_computed_per_graph():
    path = np.zeros((4, 4))
    for i in range(3):
        path[i, i + 1] = path[i + 1, i] = 1.0
    g = WeightedGraph(path)
    assert g.is_connected() and g.is_connected()
    assert g.largest_component().vertex_ids == ("v0", "v1", "v2", "v3")
    # derived graphs answer for themselves, not from the parent's cached answer
    split = g.induced_subgraph([0, 1, 3])
    assert not split.is_connected()
    assert split.largest_component().vertex_ids == ("v0", "v1")
    assert g.induced_subgraph([1, 2]).is_connected()
    normalized = split.normalize_volume()
    assert not normalized.is_connected()
    assert normalized.largest_component().vertex_ids == ("v0", "v1")
    assert g.normalize_volume().is_connected()
    assert g.is_connected()


def test_csr_view_holds_exactly_the_nonzero_weights():
    rng = np.random.default_rng(21)
    for n, density in ((0, 0.5), (1, 0.5), (7, 0.0), (40, 0.3), (300, 0.05)):
        g = random_graph(rng, n, density)
        view = g.csr
        assert view.shape == (n, n) and view.has_sorted_indices
        assert view.nnz == np.count_nonzero(g.weights)
        assert np.array_equal(view.toarray(), g.weights)
        assert not view.data.flags.writeable
        assert g.csr is view


def test_graph_memory_is_linear_in_the_edges():
    # a ring plus 4n random pairs, and a sparse 3-block model of mean degree
    # about 20: n = 5000, where one dense n x n array would take 200 MB
    n = 5000
    rng = np.random.default_rng(23)
    ring = np.arange(n)
    u = np.concatenate([ring, rng.integers(0, n, 4 * n)])
    v = np.concatenate([(ring + 1) % n, rng.integers(0, n, 4 * n)])
    keys = np.unique(np.minimum(u, v) * n + np.maximum(u, v))
    keys = keys[keys // n != keys % n]
    text = "".join(f"{a}\t{b}\t1\n" for a, b in zip(keys // n, keys % n))
    probs = np.full((3, 3), 0.001)
    np.fill_diagonal(probs, 0.01)
    model = BlockModel((1667, 1667, 1666), probs)
    for build in (lambda: load_edge_list(text),
                  lambda: generalized_random_graph(model, 23)[0]):
        tracemalloc.start()
        try:
            g = build()
            assert g.is_connected()
            dec = spectral_decomposition(g, leading=2, values=3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert g.n == n and dec.unsolved > 0
        assert peak < 0.1 * 8 * n * n, f"peak {peak / (8 * n * n):.3f} n^2 doubles"


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_every_construction_gives_the_same_graph(data):
    n = data.draw(st.integers(2, 8))
    upper = data.draw(st.lists(st.sampled_from([0.0, 0.0, -0.0, 1.0, 0.1, 0.7, 1e-300]),
                               min_size=n * n, max_size=n * n))
    w = np.triu(np.array(upper).reshape(n, n), k=1)
    w = w + w.T
    assume((w > 0).any(axis=1).all())
    dense = WeightedGraph(w)
    graphs = (WeightedGraph(csr_array(w)), load_edge_list(dump_edge_list(dense)))
    ref = w.sum(axis=1)
    assert np.all(np.abs(dense.degrees - ref) <= n * np.finfo(float).eps * ref)
    connected = dense.is_connected()
    for g in graphs:
        assert g.vertex_ids == dense.vertex_ids
        assert g.weights.tobytes() == dense.weights.tobytes()
        assert g.degrees.tobytes() == dense.degrees.tobytes()
        assert g.total_volume == dense.total_volume
        assert g._components[0] == dense._components[0]
        assert np.array_equal(g._components[1], dense._components[1])
        for seed in (0, 1):
            sub, slots = sample_subgraph(g, 2 * n, seed)
            ref_sub, ref_slots = sample_subgraph(dense, 2 * n, seed)
            assert np.array_equal(slots, ref_slots)
            assert sub.weights.tobytes() == ref_sub.weights.tobytes()
        if connected:
            assert (spectral_decomposition(g).lambdas.tobytes()
                    == spectral_decomposition(dense).lambdas.tobytes())


def test_first_connectivity_check_peaks_below_two_squares():
    # complete random weights: the CSR view itself holds 1.5 n^2 doubles
    # (values plus 32-bit indices); the old csr_matrix(weights > 0) build
    # peaked at 3.25 and csr_matrix(weights) at 4.0
    n = 900
    w = np.triu(np.random.default_rng(22).random((n, n)) + 0.1, k=1)
    g = WeightedGraph(w + w.T)
    del w
    tracemalloc.start()
    try:
        assert g.is_connected()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2.0 * n * n * 8, f"peak {peak / (n * n * 8):.2f} n^2 doubles"


def test_constructor_copies_a_caller_array():
    w = np.array([[0.0, 1.0, 2.0],
                  [1.0, 0.0, 0.5],
                  [2.0, 0.5, 0.0]])
    g = WeightedGraph(w)
    assert not np.shares_memory(g.weights, w)
    assert w.flags.writeable
    w[0, 1] = w[1, 0] = 9.0
    assert g.weights[0, 1] == 1.0
    assert g.degrees.tolist() == [3.0, 1.5, 2.5]
    assert np.array_equal(g.weights, triangle().weights)


def test_derived_graphs_are_frozen():
    from modspec.generators import blow_up

    g = load_edge_list("a\tb\t0.5\nb\tc\t0.25\na\tc\t1.0\n")
    derived = [g, g.induced_subgraph([0, 2]), g.normalize_volume(), blow_up(g, 2),
               sample_subgraph(g, 5, seed=1)[0]]
    for h in derived:
        assert not h.weights.flags.writeable
        for part in (h.csr.data, h.csr.indices, h.csr.indptr, h.degrees):
            assert not part.flags.writeable
        assert not np.shares_memory(h.csr.data, g.csr.data) or h is g
        with pytest.raises(FrozenInstanceError):
            h.csr = g.csr
    assert derived[1].weights.tolist() == [[0.0, 1.0], [1.0, 0.0]]
    assert derived[2].total_volume == pytest.approx(1.0)


def test_every_graph_stores_32_bit_indices():
    # parsed graphs store the generators' width, and graphs derived from a
    # parsed one keep it; a caller's 64-bit array is narrowed
    model = BlockModel((20, 20, 20), np.full((3, 3), 0.05) + np.diag([0.25] * 3))
    made, _ = generalized_random_graph(model, 3)
    text = dump_edge_list(made)
    parsed = load_edge_list(text)
    split = load_edge_list(text + "x0\tx1\t0.5\n")
    assert not split.is_connected()
    wide = csr_array(made.csr)
    wide.indices, wide.indptr = wide.indices.astype(np.int64), wide.indptr.astype(np.int64)
    graphs = {
        "parsed": parsed, "generated": made, "expected": expected_block_graph(model),
        "complete": complete_graph(5), "path": path_graph(5),
        "two_cliques": two_cliques_bridge(4), "blow_up": blow_up(parsed, 3),
        "induced": parsed.induced_subgraph(range(0, 60, 2)),
        "largest_component": split.largest_component(),
        "normalized": parsed.normalize_volume(),
        "sample": sample_subgraph(parsed, 40, 1)[0], "caller_int64": WeightedGraph(wide),
        "empty": load_edge_list(""),
    }
    assert graphs["largest_component"].n == parsed.n
    for name, g in graphs.items():
        assert g.csr.indices.dtype == np.int32, name
        assert g.csr.indptr.dtype == np.int32, name
    assert np.array_equal(graphs["caller_int64"].csr.indices, made.csr.indices)


def test_index_dtype_widens_past_int32():
    assert _index_dtype(0) is np.int32
    assert _index_dtype(2**31 - 1) is np.int32
    assert _index_dtype(2**31) is np.int64


def test_parser_duplicate_key_does_not_wrap_at_32_bits():
    # n = 70,000: the keys of (v00000, v15000) and (v61356, v62296) differ by
    # exactly 2^32, so a key formed from the 32-bit indices reports a false
    # duplicate
    n = 70_000
    path = "".join(f"v{i:05d}\tv{i + 1:05d}\t1\n" for i in range(n - 1))
    g = load_edge_list(path + "v00000\tv15000\t1\nv61356\tv62296\t1\n")
    assert g.n == n and g.csr.nnz == 2 * (n + 1)
    assert g.csr.indices.dtype == np.int32
    assert g.csr[[0], [15000]][0] == 1.0 and g.csr[[61356], [62296]][0] == 1.0


@given(st.data())
@settings(max_examples=100)
def test_parsed_graph_has_the_generated_csr_arrays(data):
    k = data.draw(st.integers(1, 3))
    sizes = tuple(data.draw(st.lists(st.integers(1, 6), min_size=k, max_size=k)))
    upper = np.triu(np.array(data.draw(st.lists(
        st.sampled_from([0.0, 0.1, 0.3, 0.7, 1.0]), min_size=k * k, max_size=k * k)))
        .reshape(k, k))
    model = BlockModel(sizes, np.maximum(upper, upper.T))
    if data.draw(st.booleans()):
        g, _ = generalized_random_graph(model, data.draw(st.integers(0, 2**32 - 1)))
    else:
        g = expected_block_graph(model)
    # a vertex without edges is not written
    assume(g.degrees.all())
    back = load_edge_list(dump_edge_list(g))
    assert back.vertex_ids == g.vertex_ids
    assert back.csr.shape == g.csr.shape
    for got, want in zip((back.csr.data, back.csr.indices, back.csr.indptr),
                         (g.csr.data, g.csr.indices, g.csr.indptr)):
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()
