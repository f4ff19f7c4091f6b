"""The graph builder against the two-pass builder, the list-based
builder and the first CSR build it replaced, the block-drawing generators
against the scalar ones they replaced, and the constructor check, and the
list check it replaced, against a plain statement of what they accept."""

import io
from itertools import chain
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_graphs as old
import reference_two_pass_graphs as ref
from rqsim import graphs
from rqsim.errors import GenerationFailureError, InvalidInputError
from rqsim.graphs import Graph, load_edge_list, make_erdos_renyi


def adjacency(g) -> list[list[int]]:
    return [g.neighbors(v) for v in range(g.n)]


def edge_list_text(pairs: list[tuple[int, int]]) -> str:
    return "# drawn edge list\n" + "".join(f"{u} {v}\n" for u, v in pairs)


def assert_same_load(pairs: list[tuple[int, int]]):
    text = edge_list_text(pairs)
    g = load_edge_list(io.StringIO(text))
    expected = ref.load_edge_list(io.StringIO(text))
    assert adjacency(g) == adjacency(expected)
    return g


@st.composite
def messy_edge_lists(draw) -> list[tuple[int, int]]:
    """Sparse ids with self-loops, repeated and reversed pairs, and ids
    named only by a self-loop (isolated nodes)."""
    ids = draw(st.lists(st.integers(0, 10**6), min_size=1, max_size=20, unique=True))
    node = st.sampled_from(ids)
    pairs = draw(st.lists(st.tuples(node, node), min_size=1, max_size=40))
    again = draw(st.lists(st.tuples(st.sampled_from(pairs), st.booleans()), max_size=10))
    pairs += [(v, u) if flip else (u, v) for (u, v), flip in again]
    pairs += [(x, x) for x in draw(st.lists(node, max_size=3))]
    return draw(st.permutations(pairs))


@st.composite
def tied_edge_lists(draw) -> tuple[int, list[tuple[int, int]]]:
    """Several components of one size (each its own random tree plus chords,
    on interleaved ids) and smaller ones; returns (tied size, pairs)."""
    size = draw(st.integers(1, 6))
    sizes = [size] * draw(st.integers(2, 4)) + draw(st.lists(st.integers(1, size), max_size=3))
    ids = draw(st.permutations(range(sum(sizes))))
    pairs: list[tuple[int, int]] = []
    start = 0
    for m in sizes:
        nodes = ids[start:start + m]
        start += m
        if m == 1:
            pairs.append((nodes[0], nodes[0]))  # a node named only by its self-loop
        for i in range(1, m):
            pairs.append((nodes[draw(st.integers(0, i - 1))], nodes[i]))
        if m > 2:
            chord = st.sampled_from(nodes)
            pairs += draw(st.lists(st.tuples(chord, chord), max_size=3))
    return size, draw(st.permutations(pairs))


@settings(max_examples=200, deadline=None)
@given(pairs=messy_edge_lists())
def test_load_edge_list_matches_two_pass_builder(pairs):
    assert_same_load(pairs)


@settings(max_examples=200, deadline=None)
@given(drawn=tied_edge_lists())
def test_tied_largest_components_match_two_pass_builder(drawn):
    size, pairs = drawn
    g = assert_same_load(pairs)
    assert g.n == size


def test_tie_goes_to_the_component_with_the_lowest_id():
    # Components {2, 5, 9} (a path) and {0, 7, 8} (a star at 8): the second holds id 0.
    g = assert_same_load([(2, 5), (5, 9), (8, 0), (8, 7)])
    assert adjacency(g) == [[2], [2], [0, 1]]


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=60),
    avg=st.floats(min_value=0.1, max_value=5.0),
    complete=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_erdos_renyi_matches_two_pass_builder(n, avg, complete, seed):
    avg = n - 1 if complete else min(avg, n - 1)
    try:
        expected = ref.make_erdos_renyi(n, avg, np.random.default_rng(seed))
    except GenerationFailureError:
        with pytest.raises(GenerationFailureError):
            make_erdos_renyi(n, avg, np.random.default_rng(seed))
        return
    assert adjacency(make_erdos_renyi(n, avg, np.random.default_rng(seed))) == adjacency(expected)


def assert_same_draw(name: str, *args, seed: int) -> None:
    """``graphs.<name>`` and its scalar version give ``==`` adjacency (or
    the same failure) and leave ``==`` generator states."""
    outcomes = []
    for module in (graphs, old):
        rng = np.random.default_rng(seed)
        try:
            g = getattr(module, name)(*args, rng)
            outcome = (adjacency(g), g.acyclic)
        except GenerationFailureError:
            outcome = "GenerationFailureError"
        outcomes.append((outcome, rng.bit_generator.state))
    assert outcomes[0] == outcomes[1]


seeds = st.integers(min_value=0, max_value=2**32 - 1)


@settings(max_examples=150, deadline=None)
@given(n=st.integers(3, 300), ratio=st.floats(0.05, 12.0), seed=seeds)
@example(n=300, ratio=8.0, seed=7)  # dense: about 90 nodes repeat a pick
@example(n=3, ratio=0.2, seed=0)
def test_scale_free_matches_scalar_draws(n, ratio, seed):
    assert_same_draw("make_scale_free", n, ratio, seed=seed)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(3, 400), ratio=st.floats(12.0, 40.0), seed=seeds)
@example(n=4039, ratio=22.0, seed=0)  # the Facebook-density stand-in: ~1100 nodes repeat a pick
@example(n=400, ratio=40.0, seed=1)  # most nodes repeat a pick
def test_dense_scale_free_matches_scalar_draws(n, ratio, seed):
    assert_same_draw("make_scale_free", n, ratio, seed=seed)


class ZeroWordTape(graphs.IntegerTape):
    """A tape on which every word that is 0 mod 4 reads 0, and which counts
    the words taken.  A zero word is redrawn at every bound that is not a
    power of two.  Each word is made from the generator's word alone, so
    the words read the same at any block size."""

    __slots__ = ("taken",)

    def __init__(self, rng: np.random.Generator, block: int):
        super().__init__(rng, block)
        self.taken = 0

    def _put_back(self) -> None:
        self.taken += self._at  # the block's used words
        super()._put_back()

    def _refill(self, k: int) -> None:
        super()._refill(k)
        self._words = [0 if word % 4 == 0 else word for word in self._words]


@pytest.mark.parametrize("n,ratio", [(300, 8.0), (600, 20.0), (2000, 1.5)])
@pytest.mark.parametrize("seed", [0, 1])
def test_inline_picks_redraw_as_below_does(monkeypatch, n, ratio, seed):
    """``_attachment_pool``'s inline decoding against one
    ``IntegerTape.below`` call per pick, on words of which about one in
    four must be redrawn."""
    rng = np.random.default_rng(seed)
    pool, picks = [0, 1], 0
    with ZeroWordTape(rng, 37) as tape:
        for i, m in enumerate(graphs._edge_counts(n, ratio).tolist(), start=2):
            chosen: set[int] = set()
            while len(chosen) < m:
                chosen.add(pool[tape.below(len(pool))])
                picks += 1
            for u in chosen:
                pool += (u, i)
    assert tape.taken > picks  # words were redrawn
    monkeypatch.setattr(graphs, "IntegerTape", ZeroWordTape)
    inline_rng = np.random.default_rng(seed)
    assert graphs._attachment_pool(n, ratio, inline_rng).tolist() == pool
    assert inline_rng.bit_generator.state == rng.bit_generator.state


@settings(max_examples=150, deadline=None)
@given(n=st.integers(2, 80), avg=st.floats(0.01, 8.0), complete=st.booleans(), seed=seeds)
@example(n=2, avg=0.5, seed=2, complete=False)  # the one pair kept
@example(n=40, avg=39.0, seed=0, complete=False)  # complete, no draws
def test_erdos_renyi_matches_scalar_draws(n, avg, complete, seed):
    assert_same_draw("make_erdos_renyi", n, n - 1 if complete else min(avg, n - 1), seed=seed)


def test_erdos_renyi_fails_alike_without_an_edge():
    with pytest.raises(GenerationFailureError):
        make_erdos_renyi(2, 0.5, np.random.default_rng(0))
    assert_same_draw("make_erdos_renyi", 2, 0.5, seed=0)


@settings(max_examples=100, deadline=None)
@given(d_max=st.integers(2, 8), min_nodes=st.integers(1, 400), seed=seeds)
def test_galton_watson_matches_scalar_draws(d_max, min_nodes, seed):
    assert_same_draw("make_galton_watson", d_max, min_nodes, seed=seed)


build_finite = graphs._build_finite  # kept before any test patches it


def csr(indptr: np.ndarray, indices: np.ndarray, acyclic: bool) -> tuple:
    return indptr.dtype, indptr.tolist(), indices.dtype, indices.tolist(), acyclic


def assert_same_csr_build(n: int, edges: np.ndarray, *args, **flags) -> Graph:
    """``graphs._build_finite`` gives the arrays and flag of the CSR build
    as first written, and leaves ``edges`` as it found them."""
    before = edges.copy()
    g = build_finite(n, edges, *args, **flags)
    assert np.array_equal(edges, before)
    assert csr(g.indptr, g.indices, g.acyclic) == csr(*old._build_finite_csr(n, before, *args, **flags))
    return g


def assert_builders_agree(build, seed: int = 0) -> None:
    """``build(rng)`` gives the same neighbour lists, sizes and ``acyclic``
    flag (or the same failure) and leaves ``==`` generator states, whether
    ``rqsim.graphs`` builds its graphs from CSR arrays or from the lists it
    built before; each CSR build it makes is also the first CSR build's."""
    outcomes = []
    for module, build_graph in ((graphs, assert_same_csr_build), (old, old._build_finite)):
        rng = np.random.default_rng(seed)
        with mock.patch.object(graphs, "_build_finite", build_graph):
            try:
                g = build(rng)
                assert type(g) is module.Graph
                outcome = (adjacency(g), g.n, g.num_edges, g.max_degree(), g.acyclic)
            except GenerationFailureError:
                outcome = "GenerationFailureError"
        outcomes.append((outcome, rng.bit_generator.state))
    assert outcomes[0] == outcomes[1]


@settings(max_examples=100, deadline=None)
@given(n=st.integers(2, 80), avg=st.floats(0.01, 8.0), complete=st.booleans(), seed=seeds)
@example(n=60, avg=0.9, complete=False, seed=22)  # two largest components of 7
@example(n=20, avg=1.2, complete=False, seed=2)  # two largest components of 8
def test_erdos_renyi_builds_as_from_lists(n, avg, complete, seed):
    avg = n - 1 if complete else min(avg, n - 1)
    assert_builders_agree(lambda rng: make_erdos_renyi(n, avg, rng), seed)


@settings(max_examples=100, deadline=None)
@given(n=st.integers(3, 300), ratio=st.floats(0.05, 12.0), seed=seeds)
def test_scale_free_builds_as_from_lists(n, ratio, seed):
    assert_builders_agree(lambda rng: graphs.make_scale_free(n, ratio, rng), seed)


@settings(max_examples=100, deadline=None)
@given(d_max=st.integers(2, 8), min_nodes=st.integers(1, 400), seed=seeds)
def test_galton_watson_builds_as_from_lists(d_max, min_nodes, seed):
    assert_builders_agree(lambda rng: graphs.make_galton_watson(d_max, min_nodes, rng), seed)


@settings(max_examples=150, deadline=None)
@given(pairs=st.one_of(messy_edge_lists(), tied_edge_lists().map(lambda drawn: drawn[1])))
def test_edge_lists_build_as_from_lists(pairs):
    assert_builders_agree(lambda rng: load_edge_list(io.StringIO(edge_list_text(pairs))))


def test_skip_blocks_span_several_draws(monkeypatch):
    # Blocks of 8 uniforms: a draw of about 600 skips refills many times.
    monkeypatch.setattr(graphs, "_SKIP_BLOCK", 8)
    for seed in range(5):
        assert_same_draw("make_erdos_renyi", 300, 4.0, seed=seed)


def is_sorted_simple_symmetric(adj: list[list[int]]) -> bool:
    n = len(adj)
    return all(
        nbrs == sorted(set(nbrs)) and all(0 <= v < n and v != u and u in adj[v] for v in nbrs)
        for u, nbrs in enumerate(adj)
    )


@st.composite
def nearly_valid_adjacency(draw) -> list[list[int]]:
    """A valid adjacency, then maybe one entry added, dropped, repeated or moved."""
    n = draw(st.integers(0, 7))
    adj = [[] for _ in range(n)]
    if n > 1:
        for u, v in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)))):
            if u != v and v not in adj[u]:
                adj[u].append(v)
                adj[v].append(u)
    adj = [sorted(nbrs) for nbrs in adj]
    rows = [u for u in range(n) if adj[u]]
    fault = draw(st.sampled_from(["none", "add", "drop", "repeat", "swap"]))
    if fault == "add" and n:
        row = adj[draw(st.integers(0, n - 1))]
        row.insert(draw(st.integers(0, len(row))), draw(st.integers(-1, n)))
    elif rows and fault != "none":
        row = adj[draw(st.sampled_from(rows))]
        i = draw(st.integers(0, len(row) - 1))
        if fault == "drop":
            del row[i]
        elif fault == "repeat":
            row.insert(draw(st.integers(0, len(row))), row[i])
        else:
            row.insert(draw(st.integers(0, len(row) - 1)), row.pop(i))
    return adj


@settings(max_examples=400, deadline=None)
@given(adj=nearly_valid_adjacency())
def test_constructor_accepts_exactly_sorted_simple_symmetric_lists(adj):
    # So does the list check that the numpy check replaced.
    if is_sorted_simple_symmetric(adj):
        assert Graph(adj).n == old.Graph(adj).n == len(adj)
    else:
        for make in (Graph, old.Graph):
            with pytest.raises(InvalidInputError):
                make(adj)


@st.composite
def edge_arrays(draw) -> tuple[int, np.ndarray]:
    """(n, an (m, 2) int64 array of ids in 0..n-1) with self-loops, repeated
    and reversed pairs, and often several components; m may be 0."""
    n = draw(st.integers(1, 30))
    node = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(node, node), max_size=60))
    again = draw(st.lists(st.tuples(st.sampled_from(pairs), st.booleans()), max_size=10)) if pairs else []
    pairs += [(v, u) if flip else (u, v) for (u, v), flip in again]
    return n, np.array(draw(st.permutations(pairs)), dtype=np.int64).reshape(-1, 2)


@settings(max_examples=300, deadline=None)
@given(drawn=edge_arrays(), acyclic=st.booleans(), largest_component=st.booleans())
@example(drawn=(1, np.zeros((0, 2), dtype=np.int64)), acyclic=False, largest_component=True)
@example(drawn=(3, np.array([[0, 0], [1, 1]])), acyclic=False, largest_component=True)
@example(drawn=(4, np.array([[2, 3], [0, 1], [1, 0]])), acyclic=True, largest_component=True)
def test_csr_build_matches_first_csr_build(drawn, acyclic, largest_component):
    n, edges = drawn
    assert_same_csr_build(n, edges, acyclic=acyclic, largest_component=largest_component)


@settings(max_examples=400, deadline=None)
@given(adj=nearly_valid_adjacency())
def test_csr_check_matches_first_csr_check(adj):
    """``graphs._csr`` returns the first ``_csr``'s arrays, or raises its
    error, on the codes of drawn adjacency lists, valid or not."""
    n = len(adj)
    if any(not 0 <= v < n for v in chain.from_iterable(adj)):
        return  # out-of-range ids never reach _csr: Graph refuses them first
    codes = np.array([u * n + v for u, nbrs in enumerate(adj) for v in nbrs], dtype=np.int64)
    outcomes = []
    for check in (graphs._csr, old._csr):
        before = codes.copy()
        try:
            outcomes.append(csr(*check(n, before), False))
        except InvalidInputError as exc:
            outcomes.append(str(exc))
        assert np.array_equal(before, codes)
    assert outcomes[0] == outcomes[1]
