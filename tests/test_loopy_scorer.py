"""Differential tests: the block loopy scorer against its five predecessors.

``reference_scorer.block_general_graph_scores`` is the block scorer as
first written: it ranks each BFS level's new nodes, finds parents by
search and counts earlier neighbours level by level.
``reference_scorer.stamp_general_graph_scores`` is its successor: it
orders by discovery stamps, may find a level bottom-up (the scorer's BFS
is top-down only) and counts earlier neighbours once per block.  The
scorer's block finder descends from it; its scores and key order are equal
(``==``) to both oracles'.  ``reference_scorer.all_roots_general_graph_scores``
is the block scorer's loop before leaves were scored from their
neighbour's BFS row: it gives every requested root a BFS row of its own,
over the same block BFS.  ``reference_scorer.leaf_block_general_graph_scores``
is the block path as it was before it shared the dense path's leaf
folding and sums, with BFS rows only for the requested roots and the
neighbours of the requested leaves.

``reference_scorer.per_root_general_graph_scores`` is the scorer that the
block scorers replaced: one sequential BFS and one ``math.fsum`` per root.
The block scorer sums the same logarithms exactly and rounds once, as
``math.fsum`` does, so its scores are equal (``==``) to that oracle's,
however the roots fall into blocks.

``reference_scorer.general_graph_scores`` is the older dict-based scorer.
It adds the logarithms one at a time in another order, so scores agree
with it to rounding, well inside ``TOLERANCE``.
"""

import itertools
import math
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager, nullcontext
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import reference_scorer
from conftest import graph_from_edges, snapshot_of, star_graph
from reference_scorer import all_roots_general_graph_scores as all_roots_scores
from reference_scorer import big_int_rounded
from reference_scorer import block_general_graph_scores as block_scores
from reference_scorer import general_graph_scores as reference_scores
from reference_scorer import leaf_block_general_graph_scores as leaf_block_scores
from reference_scorer import per_root_general_graph_scores as per_root_scores
from reference_scorer import stamp_general_graph_scores as stamp_scores
from rqsim import centrality
from rqsim.centrality import _ROW_LIMIT, _log_table, _rounded, _wrapped_sums, general_graph_scores
from rqsim.diffusion import Snapshot, breadth_first, simulate_si
from rqsim.errors import GenerationFailureError, InvalidInputError
from rqsim.graphs import make_erdos_renyi, make_regular_tree, make_scale_free

TOLERANCE = 1e-9


def assert_matches_reference(snap: Snapshot) -> None:
    want = reference_scores(snap)
    got = general_graph_scores(snap)
    assert list(got) == list(want)
    for v, s in want.items():
        assert abs(got[v] - s) <= TOLERANCE, (v, got[v], s)
    ranked = sorted(want.values(), reverse=True)
    if len(ranked) == 1 or ranked[0] - ranked[1] > TOLERANCE:
        assert max(got, key=got.get) == max(want, key=want.get)

    subset = sorted(snap.infected)[::3]
    assert general_graph_scores(snap, nodes=subset) == {v: got[v] for v in subset}


def _snapshot(family: str, size: int, density: float, n_infected: int, seed: int) -> Snapshot:
    rng = np.random.default_rng(seed)
    if family == "er":
        try:
            graph = make_erdos_renyi(size, min(density, size - 1), rng)
        except GenerationFailureError:
            assume(False)
    elif family == "sf":
        graph = make_scale_free(size, density, rng)
    else:
        graph = make_regular_tree(3 + int(density))
    if graph.is_finite:
        n_infected = min(n_infected, graph.n)
        source = int(rng.integers(graph.n))
    else:
        source = 0
    return simulate_si(graph, source, n_infected, rng)


@settings(max_examples=120, deadline=None)
@given(
    family=st.sampled_from(["er", "sf", "regular"]),
    size=st.integers(min_value=3, max_value=60),
    density=st.floats(min_value=1.0, max_value=6.0),
    n_infected=st.integers(min_value=1, max_value=40),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@example(family="er", size=10, density=3.0, n_infected=1, seed=0)
@example(family="sf", size=10, density=2.0, n_infected=2, seed=0)
@example(family="regular", size=3, density=0.0, n_infected=1, seed=0)
@example(family="regular", size=3, density=1.0, n_infected=2, seed=0)
def test_small_snapshots_match_reference(family, size, density, n_infected, seed):
    assert_matches_reference(_snapshot(family, size, density, n_infected, seed))


@pytest.mark.parametrize(
    "family,size,density",
    [("er", 2000, 4.0), ("sf", 2000, 1.5)],
    ids=["er:2000:4", "sf:2000:1.5"],
)
def test_n400_snapshot_matches_reference(family, size, density):
    snap = _snapshot(family, size, density, 400, seed=20240817)
    assert snap.n == 400 and not snap.is_tree
    assert_matches_reference(snap)


def test_single_node_scores_zero():
    snap = _snapshot("er", 50, 3.0, 1, seed=3)
    assert general_graph_scores(snap) == {snap.source: 0.0}


def on_path(dense: bool):
    """Make the scorer take the dense finder (``True``) or the block
    finder (``False``) on every snapshot."""
    return mock.patch.object(centrality, "_is_dense", lambda n, leaves, entries: dense)


def leaves_of(snap: Snapshot) -> list[int]:
    """The leaves of ``snap``'s infected subgraph (one infected neighbour)
    when N > 2, by ascending id."""
    width = np.diff(snap.local_csr[0])
    return sorted(v for v, w in zip(snap.infected, width.tolist()) if w == 1) if snap.n > 2 else []


def takes_dense_path(snap: Snapshot) -> bool:
    """Whether the scorer's own rule sends ``snap`` to the dense path."""
    return centrality._is_dense(snap.n, len(leaves_of(snap)), 2 * snap.induced_edge_count)


@contextmanager
def block_rows(snap: Snapshot, rows: int):
    """Make the scorer take the block path with ``rows`` roots per block on ``snap``."""
    with on_path(dense=False), mock.patch.object(centrality, "BLOCK_ENTRIES", rows * 2 * snap.induced_edge_count):
        yield


#: ``centrality.BLOCK_ENTRIES`` values that the scorer used before its
#: default.
EARLIER_WIDTHS = pytest.mark.parametrize("block_entries", [1 << 15, 1 << 16], ids=["2^15", "2^16"])


#: ``reference_scorer._BOTTOM_UP`` values that make every BFS level of the
#: stamp oracle bottom-up, mix the directions as it does by default, or
#: keep every level top-down.  The scorer's BFS is top-down only, so these
#: check its orders against a bottom-up BFS's as well.
ORACLE_DIRECTIONS = pytest.mark.parametrize("bottom_up", [0, reference_scorer._BOTTOM_UP, 1 << 40],
                                            ids=["bottom-up", "default", "top-down"])


def assert_equals_per_root(snap: Snapshot, nodes=None) -> None:
    want = per_root_scores(snap, nodes)
    got = general_graph_scores(snap, nodes)
    assert list(got) == list(want)
    assert got == want


@settings(max_examples=80, deadline=None)
@given(
    family=st.sampled_from(["er", "sf", "regular"]),
    size=st.integers(min_value=4, max_value=150),
    density=st.floats(min_value=1.0, max_value=6.0),
    n_infected=st.integers(min_value=3, max_value=90),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    data=st.data(),
)
def test_blocks_equal_per_root_scorer(family, size, density, n_infected, seed, data):
    """Several blocks, the last one short, give the per-root scores bit for
    bit, for every root and for a subset of roots."""
    snap = _snapshot(family, size, density, n_infected, seed)
    assume(snap.n >= 3)
    rows = data.draw(st.integers(min_value=1, max_value=snap.n - 1).filter(lambda r: snap.n % r), label="rows")
    subset = data.draw(st.sets(st.sampled_from(snap.infected), min_size=1), label="subset")
    with block_rows(snap, rows):
        assert_equals_per_root(snap)
        assert_equals_per_root(snap, subset)


@pytest.mark.parametrize("family,size,density", [("er", 2000, 4.0), ("sf", 4039, 22.0)],
                         ids=["er:2000:4", "sf:4039:22"])
def test_n400_snapshot_equals_per_root_scorer(family, size, density):
    """The benchmark's graphs at the default settings, all roots and every
    seventh one, on both paths: both snapshots take the dense path, and on
    the forced block path er:2000:4's subset crosses block boundaries."""
    snap = _snapshot(family, size, density, 400, seed=20240817)
    assert snap.n == 400 and not snap.is_tree
    assert takes_dense_path(snap)
    rows = centrality.BLOCK_ENTRIES // (2 * snap.induced_edge_count)
    assert family == "sf" or 1 < rows < snap.n
    assert_paths_agree(snap)
    assert_paths_agree(snap, sorted(snap.infected)[::7])


@pytest.mark.parametrize("n_infected", [1, 2])
@pytest.mark.parametrize("rows", [1, 2])
def test_tiny_snapshots_equal_per_root_scorer(n_infected, rows):
    snap = _snapshot("er", 50, 3.0, n_infected, seed=5)
    assert snap.n == n_infected
    with block_rows(snap, rows):
        assert_equals_per_root(snap)


class TestExactLogSums:
    """The fixed-point sum behind each score is exact and rounded once."""

    SIZE = 2 * 10**5

    @pytest.fixture(scope="class")
    def table(self):
        return _log_table(self.SIZE)

    def test_log_entries_are_multiples_of_two_to_the_minus_53(self, table):
        assert all((math.log(k) * 2.0**53).is_integer() for k in range(2, self.SIZE))
        assert table[0] == table[1] == 0
        assert table[2:].tolist() == [int(math.log(k) * 2.0**53) for k in range(2, self.SIZE)]

    @settings(max_examples=60, deadline=None)
    @given(
        size=st.integers(min_value=1, max_value=SIZE),
        count=st.integers(min_value=1, max_value=10**4),
        rows=st.integers(min_value=1, max_value=3),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @example(size=SIZE, count=10**4, rows=1, seed=0)
    def test_equals_fsum(self, table, size, count, rows, seed):
        rng = np.random.default_rng(seed)
        # Mix a uniform draw with heavy repeats of a few values.
        picks = np.where(rng.random((rows, count)) < 0.5, rng.integers(0, size, (rows, count)),
                         rng.integers(0, size, (rows, 1)))
        split = int(rng.integers(0, count + 1))
        want = [math.fsum(math.log(k) if k else 0.0 for k in row) for row in picks.tolist()]
        assert log_sums(table, picks) == want
        assert log_sums(table, picks[:, :split], picks[:, split:]) == want

    def test_table_kept_per_process_and_grown_by_doubling(self, monkeypatch):
        # A fresh table, put back afterwards, so no other test's calls count.
        monkeypatch.setattr(centrality, "_LOG_TABLE", np.zeros(1, np.int64))
        assert _log_table(10).size == 10
        kept = centrality._LOG_TABLE
        small = _log_table(5)
        assert centrality._LOG_TABLE is kept  # served from the kept table
        assert np.shares_memory(small, kept)
        assert _log_table(15).size == 15
        assert centrality._LOG_TABLE.size == 20  # doubled, not grown to 15
        fixed = _log_table(50)  # past double: grown to what is asked
        assert centrality._LOG_TABLE.size == fixed.size == 50
        assert fixed.tolist() == [0] + [int(math.log(k) * 2.0**53) for k in range(1, 50)]

    def test_largest_entries_at_the_largest_count(self, table):
        """10**4 copies of the table's largest entry sum to past 2**69
        units, so the int64 sum wraps many times over."""
        picks = np.full((1, 10**4), self.SIZE - 1)
        assert int(table[-1]) * 10**4 > 2**69
        want = [math.fsum([math.log(self.SIZE - 1)] * 10**4)]
        assert log_sums(table, picks) == want == big_int_rounded(*_wrapped_sums(table, picks))
        # The same sum across two parts, and with entries 0 and 1 (zeros) mixed in.
        assert log_sums(table, picks[:, :1], picks[:, 1:]) == want
        mixed = np.concatenate((picks, [[0, 1] * 10]), axis=1)
        assert log_sums(table, mixed) == want
        assert log_sums(table, np.array([[0] * 50, [1] * 50])) == [0.0, 0.0]  # rows of zeros


def log_sums(table: np.ndarray, *parts: np.ndarray) -> list[float]:
    """The scorer's exact sums of the table entries ``parts`` index, per row."""
    return _rounded(*_wrapped_sums(table, *parts)).tolist()


#: The largest sum of a row that ``_ROW_LIMIT`` admits: one entry short
#: of the limit, each just below 2**59.
LARGEST_SUM = (_ROW_LIMIT - 1) * (2**59 - 1)


def _fsum_of(total: int) -> float:
    """``total / 2**53`` rounded once, by ``math.fsum`` of three exact
    parts cut at other places than the scorer's split."""
    parts = (total >> 52 << 52, (total >> 26 & (1 << 26) - 1) << 26, total & (1 << 26) - 1)
    return math.fsum(p / 2**53 for p in parts)


@st.composite
def exact_sums(draw) -> int:
    """A sum up to ``LARGEST_SUM``: often halfway between two doubles at the
    last bit (every bit below the rounding bit clear), or that plus or
    minus one power of two, which a dropped bit of the split would miss."""
    if draw(st.booleans()):
        return draw(st.integers(min_value=0, max_value=LARGEST_SUM))
    ulp = draw(st.integers(min_value=1, max_value=29))  # 2**ulp: the spacing of doubles there
    mantissa = draw(st.integers(min_value=2**52, max_value=2**53 - 1))
    halfway = (mantissa << ulp) + (1 << ulp - 1)
    step = draw(st.sampled_from([0, 1, -1])) << draw(st.integers(min_value=0, max_value=ulp - 1))
    total = halfway + step
    assume(0 <= total <= LARGEST_SUM)
    return total


class TestRounding:
    """The scorer's array rounding equals Python's big-integer division and
    ``math.fsum`` on every sum a row below ``_ROW_LIMIT`` entries can have."""

    @staticmethod
    def assert_rounds(totals: list[int], errors: list[int]) -> None:
        wrapped = np.array([(t + 2**63) % 2**64 - 2**63 for t in totals], dtype=np.int64)
        approx = np.array([float(t + e) for t, e in zip(totals, errors)])
        got = _rounded(wrapped, approx).tolist()
        assert got == big_int_rounded(wrapped, approx)
        assert got == [_fsum_of(t) for t in totals]

    # The float sum is off by less than m**2 * 2**6 <= 2**52 on a row of
    # m < 2**23 entries; the errors drawn here go far past that.
    @settings(max_examples=300, deadline=None)
    @given(pairs=st.lists(st.tuples(exact_sums(), st.integers(min_value=-2**61, max_value=2**61)),
                          min_size=1, max_size=20))
    @example(pairs=[(0, 0), (LARGEST_SUM, 0), (LARGEST_SUM, 2**61), ((2**53 - 1 << 29) + (1 << 28), 0),
                    ((2**53 - 2 << 29) + (1 << 28), -2**61)])
    def test_equals_big_integers_and_fsum(self, pairs):
        self.assert_rounds(*map(list, zip(*pairs)))

    def test_halfway_sums_at_every_bit(self):
        # Halfway between two doubles, and that plus or minus each lower
        # bit: one sum per (rounding bit, step), with both parities.
        totals = []
        for ulp in range(1, 30):
            for mantissa in (2**52, 2**52 + 1, 2**53 - 2, 2**53 - 1):
                halfway = (mantissa << ulp) + (1 << ulp - 1)
                totals += [halfway] + [halfway + s * (1 << j) for j in range(ulp - 1) for s in (1, -1)]
        totals = [t for t in totals if t <= LARGEST_SUM]
        self.assert_rounds(totals, [0] * len(totals))

    def test_largest_row(self):
        """A row of ``_ROW_LIMIT - 1`` copies of the largest entry a log
        table can hold, (2**53 - 1) * 2**6 (a float times 2**53, below
        2**59), summed by ``_wrapped_sums`` and rounded."""
        entry, count = (2**53 - 1) << 6, _ROW_LIMIT - 1
        table = np.array([0, entry], dtype=np.int64)
        wrapped, approx = _wrapped_sums(table, np.broadcast_to(np.int64(1), (1, count)))
        assert int(wrapped[0]) == (entry * count + 2**63) % 2**64 - 2**63
        got = _rounded(wrapped, approx).tolist()
        assert got == big_int_rounded(wrapped, approx) == [_fsum_of(entry * count)]
        assert got == [math.fsum(itertools.repeat(entry / 2**53, count))]

    def test_scorer_refuses_rows_past_the_limit(self, monkeypatch):
        snap = _snapshot("er", 200, 4.0, 30, seed=11)
        monkeypatch.setattr(centrality, "_ROW_LIMIT", 2 * snap.n - 1)
        with pytest.raises(InvalidInputError):
            general_graph_scores(snap)
        monkeypatch.setattr(centrality, "_ROW_LIMIT", 2 * snap.n)
        assert general_graph_scores(snap) == per_root_scores(snap)


class TestInvalidInputs:
    """All three scorers reject the same inputs with InvalidInputError."""

    @pytest.mark.parametrize("scorer", [general_graph_scores, per_root_scores, reference_scores])
    def test_no_graph(self, scorer):
        snap = snapshot_of(None, 0, [0, 1], {1: 0})
        with pytest.raises(InvalidInputError):
            scorer(snap)

    @pytest.mark.parametrize("scorer", [general_graph_scores, per_root_scores, reference_scores])
    def test_uninfected_node(self, scorer):
        snap = _snapshot("er", 200, 4.0, 30, seed=11)
        outside = next(v for v in range(snap.graph.n) if v not in snap.index)
        with pytest.raises(InvalidInputError):
            scorer(snap, nodes=[snap.source, outside])

    @pytest.mark.parametrize("scorer", [general_graph_scores, block_scores, per_root_scores, reference_scores,
                                        stamp_scores])
    def test_disconnected_infected_set(self, scorer):
        path = graph_from_edges(4, [(0, 1), (1, 2), (2, 3)])
        snap = snapshot_of(path, 0, [0, 1, 3], {1: 0, 3: 1})
        with pytest.raises(InvalidInputError):
            scorer(snap)

    @pytest.mark.parametrize("rows", [1, 2])
    def test_disconnected_with_small_blocks(self, rows):
        path = graph_from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        snap = snapshot_of(path, 0, [0, 1, 3, 4], {1: 0, 3: 1, 4: 3})
        with block_rows(snap, rows), pytest.raises(InvalidInputError):
            general_graph_scores(snap)

    @pytest.mark.parametrize("scorer", [general_graph_scores, block_scores, per_root_scores, stamp_scores])
    def test_no_induced_edges_between_two_nodes(self, scorer):
        # Two infected nodes and no infected edge: E_induced = 0, disconnected.
        path = graph_from_edges(3, [(0, 1), (1, 2)])
        snap = snapshot_of(path, 0, [0, 2], {2: 0})  # a parent edge the graph lacks
        assert snap.induced_edge_count == 0
        with pytest.raises(InvalidInputError):
            scorer(snap)

    @ORACLE_DIRECTIONS
    def test_disconnected_in_both_directions(self, bottom_up, monkeypatch):
        # Two components with edges: 0-1-2 and 4-5, on a path graph.
        path = graph_from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)])
        snap = snapshot_of(path, 0, [0, 1, 2, 4, 5], {1: 0, 2: 1, 4: 2, 5: 4})
        monkeypatch.setattr(reference_scorer, "_BOTTOM_UP", bottom_up)
        for scorer in (general_graph_scores, stamp_scores):
            with pytest.raises(InvalidInputError):
                scorer(snap)


def assert_equals_block_oracle(snap: Snapshot, nodes=None) -> None:
    """The scorer's table equals the four block oracles', in values and key order."""
    got = general_graph_scores(snap, nodes)
    for oracle in (block_scores, stamp_scores, all_roots_scores, leaf_block_scores):
        want = oracle(snap, nodes)
        assert list(got) == list(want)
        assert got == want


class TestAgainstFirstBlockScorer:
    """Blocks give the scores of the first block scorer, of the
    stamp-ordered one (in either BFS direction) and of the all-roots one
    bit for bit, in the same key order.  Every snapshot here takes the
    block path."""

    @pytest.fixture(autouse=True)
    def block_path(self):
        with on_path(dense=False):
            yield

    @ORACLE_DIRECTIONS
    @settings(max_examples=60, deadline=None)
    @given(
        family=st.sampled_from(["sf", "er"]),
        size=st.integers(min_value=30, max_value=300),
        density=st.floats(min_value=1.0, max_value=22.0),
        n_infected=st.integers(min_value=3, max_value=150),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        rows=st.integers(min_value=1, max_value=5),
        step=st.integers(min_value=1, max_value=6),
    )
    @example(family="sf", size=300, density=22.0, n_infected=150, seed=1, rows=5, step=2)
    def test_dense_draws(self, bottom_up, family, size, density, n_infected, seed, rows, step):
        """Dense scale-free draws (ratios up to 22: few BFS levels, so
        bottom-up levels in the stamp oracle at its default) with 1 to 5
        roots per block, for every root and for every ``step``-th one."""
        snap = _snapshot(family, size, density, n_infected, seed)
        assume(snap.n >= 3 and not snap.is_tree)
        with mock.patch.object(reference_scorer, "_BOTTOM_UP", bottom_up), block_rows(snap, rows):
            assert_equals_block_oracle(snap)
            assert_equals_block_oracle(snap, sorted(snap.infected)[seed % step::step])

    @ORACLE_DIRECTIONS
    @pytest.mark.parametrize("family,size,density", [("er", 2000, 4.0), ("sf", 4039, 22.0)],
                             ids=["er:2000:4", "sf:4039:22"])
    def test_benchmark_graphs_at_n400(self, bottom_up, family, size, density, monkeypatch):
        snap = _snapshot(family, size, density, 400, seed=20240817)
        monkeypatch.setattr(reference_scorer, "_BOTTOM_UP", bottom_up)
        assert_equals_block_oracle(snap)
        assert_equals_block_oracle(snap, sorted(snap.infected)[::7])

    @ORACLE_DIRECTIONS
    @EARLIER_WIDTHS
    @pytest.mark.parametrize("family,size,density", [("er", 2000, 4.0), ("sf", 4039, 22.0)],
                             ids=["er:2000:4", "sf:4039:22"])
    def test_benchmark_graphs_at_earlier_widths(self, bottom_up, block_entries, family, size, density,
                                                monkeypatch):
        """The test above at the block widths the scorer used before."""
        monkeypatch.setattr(centrality, "BLOCK_ENTRIES", block_entries)
        self.test_benchmark_graphs_at_n400(bottom_up, family, size, density, monkeypatch)

    @ORACLE_DIRECTIONS
    @pytest.mark.parametrize("rows", ["1", "2", "n-1"])
    def test_rows_per_block(self, bottom_up, rows, monkeypatch):
        snap = _snapshot("sf", 600, 8.0, 60, seed=7)
        assert not snap.is_tree
        monkeypatch.setattr(reference_scorer, "_BOTTOM_UP", bottom_up)
        with block_rows(snap, snap.n - 1 if rows == "n-1" else int(rows)):
            assert_equals_block_oracle(snap)

    @ORACLE_DIRECTIONS
    @pytest.mark.parametrize("n_infected", [1, 2])
    def test_one_and_two_nodes(self, bottom_up, n_infected, monkeypatch):
        # One node has E_induced = 0: no entries at all.
        snap = _snapshot("er", 50, 3.0, n_infected, seed=5)
        assert snap.n == n_infected
        monkeypatch.setattr(reference_scorer, "_BOTTOM_UP", bottom_up)
        assert_equals_block_oracle(snap)


@pytest.fixture(scope="module")
def n400():
    """The N = 400 snapshots of the benchmark graphs used above, by family."""
    return {"sf": _snapshot("sf", 4039, 22.0, 400, seed=20240817),
            "er": _snapshot("er", 2000, 4.0, 400, seed=20240817)}


class TestBlockFinder:
    """The block finder's arrays are its own for each block, so a score
    keeps none of them: tables do not depend on the scores before them,
    threads may score at once, and a score leaves no memory behind."""

    @pytest.fixture
    def block_path(self):
        """Every snapshot takes the block finder."""
        with on_path(dense=False):
            yield

    @pytest.mark.parametrize("block_entries", [1 << 15, 1 << 16, centrality.BLOCK_ENTRIES],
                             ids=["2^15", "2^16", "default"])
    def test_reused_across_snapshots(self, n400, block_path, block_entries, monkeypatch):
        """Dense, then sparse, then tiny snapshots, a disconnected set that
        fails mid-BFS, then the sparse one again: each table, full and for a
        subset, equals the per-root scorer's."""
        monkeypatch.setattr(centrality, "BLOCK_ENTRIES", block_entries)
        path = graph_from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)])
        split = snapshot_of(path, 0, [0, 1, 2, 4, 5], {1: 0, 2: 1, 4: 2, 5: 4})
        tiny = [_snapshot("er", 50, 3.0, n_infected, seed=5) for n_infected in (1, 2)]
        for snap in (n400["sf"], n400["er"], *tiny, split, n400["er"]):
            if snap is split:
                with pytest.raises(InvalidInputError):
                    general_graph_scores(snap)
                continue
            assert_equals_per_root(snap)
            assert_equals_per_root(snap, sorted(snap.infected)[1::7] or snap.infected)

    def test_leaves_nothing_behind(self, n400, block_path):
        """A block-finder score leaves traced memory within a few KB of
        where it found it.  A first score fills the snapshot's caches, the
        log table and numpy's own; the measured score runs in a thread of
        its own, so that nothing earlier scores kept for this thread can
        hide what it keeps (block arrays kept for reuse by each thread
        would leave about 1.4-1.6 MB here)."""
        snap = n400["er"]
        general_graph_scores(snap)
        left = []

        def score():
            before = tracemalloc.get_traced_memory()[0]
            general_graph_scores(snap)
            left.append(tracemalloc.get_traced_memory()[0] - before)

        tracemalloc.start()
        try:
            thread = threading.Thread(target=score)
            thread.start()
            thread.join(timeout=60)
        finally:
            tracemalloc.stop()
        assert not thread.is_alive()
        assert left and left[0] <= 8 * 2**10

    def test_threads_score_at_once(self, n400, monkeypatch):
        """Four threads, two per snapshot, score at the same time from an
        empty log table that they all grow; each table equals the per-root
        scorer's."""
        monkeypatch.setattr(centrality, "_LOG_TABLE", np.zeros(1, np.int64))
        names = ["sf", "er", "sf", "er"]
        want = {name: per_root_scores(n400[name]) for name in n400}
        start = threading.Barrier(len(names))

        def score(name):
            start.wait(timeout=60)
            return [general_graph_scores(n400[name]) for _ in range(3)]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=len(names)) as pool:
                futures = [pool.submit(score, name) for name in names]
                tables = [future.result(timeout=120) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        for name, got in zip(names, tables):
            for table in got:
                assert list(table) == list(want[name])
                assert table == want[name]

    def test_threads_score_at_once_on_the_block_finder(self, n400, block_path, monkeypatch):
        """The test above with every snapshot on the block finder, whose
        arrays each thread allocates for itself."""
        self.test_threads_score_at_once(n400, monkeypatch)


def warm_score_peak(snap: Snapshot) -> int:
    """The tracemalloc peak of one full table on ``snap``, after a first
    score has filled the snapshot's caches and the log table."""
    general_graph_scores(snap)
    tracemalloc.start()
    try:
        general_graph_scores(snap)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("family,size,density", [("er", 2000, 4.0), ("sf", 4039, 22.0), ("sf", 2000, 1.5)],
                         ids=["er:2000:4", "sf:4039:22", "sf:2000:1.5"])
def test_n400_score_peak_memory(family, size, density):
    """The Python-heap peak of one full table on the N = 400 snapshots of
    ``test_n400_snapshot_equals_per_root_scorer``, and on the leafy
    sf:2000:1.5 one, stays under 2 MB, which keeps the per-process RSS of
    a loopy sweep close to where it was.  tracemalloc peaks measured on
    these snapshots: er:2000:4 0.70 MB with the first block scorer, 1.40
    MB at 3 * 2**15 entries per block; sf:4039:22 0.86 and 0.93 MB, and
    1.56 MB on the dense path before leaves were folded.  All three take
    the dense path now."""
    snap = _snapshot(family, size, density, 400, seed=20240817)
    assert takes_dense_path(snap)
    assert warm_score_peak(snap) <= 2 * 2**20


def test_densest_snapshot_score_peak_memory():
    """The same bound on er:300:250 at N = 250 (2E/n about 208), where a
    block holds one root: the dense path gathers the bitset frontier of
    its 52k induced entries a chunk at a time (1.06 MB peak measured, 1.31
    MB before leaves were folded, and 0.85 MB on the block path)."""
    snap = _snapshot("er", 300, 250.0, 250, seed=20240817)
    assert snap.n == 250 and takes_dense_path(snap)
    assert warm_score_peak(snap) <= 2 * 2**20


def bfs_snapshot(graph, source: int, members) -> Snapshot:
    """``members`` infected in BFS order from ``source`` over the subgraph
    they induce in ``graph``."""
    members = set(members)
    order, parent = [source], {}
    for u in order:
        for w in graph.neighbors(u):
            if w in members and w != source and w not in parent:
                parent[w] = u
                order.append(w)
    return snapshot_of(graph, source, order, parent)


class TestLeavesFromTheirNeighbour:
    """On the block finder, a leaf of the infected subgraph (one infected
    neighbour, N > 2) is scored from its neighbour's BFS row:
    ``_bfs_block`` runs once from every other root, whichever roots are
    asked for, and the scores equal the per-root scorer's and two block
    oracles' bit for bit, in the same key order.  Every snapshot here
    takes the block finder."""

    @pytest.fixture
    def score(self, monkeypatch):
        """``score(snap, nodes)``: the block finder's table, checked against
        three oracles, and the induced degree of each root that its
        ``_bfs_block`` calls got, one list per call, recorded by a counting
        wrapper.  The roots are columns of the relabelled neighbour table,
        whose non-leaves come first, so the fixture also checks that the
        calls' roots are 0 to n_r - 1, each once: every non-leaf gets one
        BFS row and no leaf gets one."""
        monkeypatch.setattr(centrality, "_is_dense", lambda n, leaves, entries: False)
        calls = []

        def counting(roots, start, width, *args):
            calls.append((roots.tolist(), width[roots].tolist()))
            return bfs_block(roots, start, width, *args)

        def score(snap: Snapshot, nodes=None):
            calls.clear()
            got = general_graph_scores(snap, nodes)
            bfs_calls = list(calls)
            for oracle in (per_root_scores, all_roots_scores, leaf_block_scores):
                want = oracle(snap, nodes)
                assert list(got) == list(want)
                assert got == want
            roots = sorted(root for call, _ in bfs_calls for root in call)
            assert roots == list(range(snap.n - len(leaves_of(snap))))
            return got, [degrees for _, degrees in bfs_calls]

        bfs_block = centrality._bfs_block
        monkeypatch.setattr(centrality, "_bfs_block", counting)
        return score

    def test_star_takes_one_bfs(self, score):
        # The last leaf, 6, sits at its centre's last BFS place (p = n - 1).
        snap = bfs_snapshot(star_graph(6), 0, range(7))
        _, bfs_rows = score(snap)
        assert bfs_rows == [[6]]

    def test_three_node_path(self, score):
        snap = bfs_snapshot(graph_from_edges(3, [(0, 1), (1, 2)]), 2, range(3))
        got, bfs_rows = score(snap)
        assert got[0] == got[2]
        assert bfs_rows == [[2]]

    @pytest.mark.parametrize("n_infected", [1, 2])
    def test_one_and_two_nodes_take_a_bfs_each(self, score, n_infected):
        snap = _snapshot("er", 50, 3.0, n_infected, seed=5)
        assert snap.n == n_infected
        assert score(snap)[1] == [[n_infected - 1] * n_infected]

    @pytest.mark.parametrize("rows", [1, 2, 3])
    def test_leaf_at_its_neighbours_last_place(self, score, rows):
        """A wheel (hub 0, rim 1..5 in a cycle) with leaf 6 on the hub: 6 is
        the hub's last BFS place, p = n - 1.  Leaf 6 also has uninfected
        neighbours 7 and 8, so its degree is not 1.  The six non-leaves
        (the hub of induced degree 6, the rim nodes of 3) get a row each,
        also when only the leaf is asked for."""
        edges = [(0, i) for i in range(1, 7)] + [(i, i % 5 + 1) for i in range(1, 6)] + [(6, 7), (6, 8)]
        snap = bfs_snapshot(graph_from_edges(9, edges), 3, range(7))
        assert not snap.is_tree and leaves_of(snap) == [6]
        with block_rows(snap, rows):
            for nodes in (None, [6]):
                got, bfs_rows = score(snap, nodes)
                assert sorted(itertools.chain(*bfs_rows)) == [3, 3, 3, 3, 3, 6]
                assert max(map(len, bfs_rows)) == rows
            assert list(got) == [6]

    @pytest.mark.parametrize("rows", [1, 2, 3])
    def test_several_leaves_on_one_neighbour(self, score, rows):
        """Leaves 2, 5, 9 and 10 on node 4 and leaf 7 on node 1 of a ring
        with a chord (0-1-3-4-6-8-0, chord 1-6); 11 and 12 are uninfected
        neighbours of leaves 9 and 7.  Small blocks put the two neighbours'
        rows in different blocks.  The non-leaves 0, 1, 3, 4, 6 and 8, of
        induced degrees 2, 4, 2, 6, 3 and 2, get a row each."""
        ring = [(0, 1), (1, 3), (3, 4), (4, 6), (6, 8), (8, 0), (1, 6)]
        edges = ring + [(4, 2), (4, 5), (4, 9), (4, 10), (1, 7), (9, 11), (7, 12)]
        snap = bfs_snapshot(graph_from_edges(13, edges), 0, range(11))
        assert not snap.is_tree and leaves_of(snap) == [2, 5, 7, 9, 10]
        with block_rows(snap, rows):
            _, bfs_rows = score(snap)
            assert sorted(itertools.chain(*bfs_rows)) == [2, 2, 2, 3, 4, 6]
            assert max(map(len, bfs_rows)) == rows
            got, subset_rows = score(snap, [2, 7, 8, 10])
            assert list(got) == [2, 7, 8, 10] and subset_rows == bfs_rows

    @pytest.mark.parametrize("family,size,density", [("er", 2000, 4.0), ("sf", 2000, 1.5)],
                             ids=["er:2000:4", "sf:2000:1.5"])
    def test_n400_bfs_only_from_non_leaves(self, score, family, size, density):
        snap = _snapshot(family, size, density, 400, seed=20240817)
        leaves = leaves_of(snap)
        assert 0.2 * snap.n < len(leaves) < 0.5 * snap.n
        _, bfs_rows = score(snap)
        assert min(itertools.chain(*bfs_rows)) >= 2

    @EARLIER_WIDTHS
    @pytest.mark.parametrize("family,size,density", [("er", 2000, 4.0), ("sf", 2000, 1.5)],
                             ids=["er:2000:4", "sf:2000:1.5"])
    def test_n400_at_earlier_widths(self, score, block_entries, family, size, density, monkeypatch):
        """The test above at the block widths the scorer used before."""
        monkeypatch.setattr(centrality, "BLOCK_ENTRIES", block_entries)
        self.test_n400_bfs_only_from_non_leaves(score, family, size, density)

    @pytest.mark.parametrize("rows", [1, 4, None])
    def test_leaves_without_their_neighbours(self, score, rows):
        """Every leaf of an N = 400 snapshot and none of their neighbours:
        the table holds the leaves alone, and every non-leaf, the leaves'
        neighbours among them, gets its one BFS row as for a full table."""
        snap = _snapshot("er", 2000, 4.0, 400, seed=20240817)
        leaves = leaves_of(snap)
        ptr, nbr = snap.local_csr
        hubs = {snap.infected[nbr[ptr[snap.position_of(v)]]] for v in leaves}
        assert not hubs & set(leaves)
        with block_rows(snap, rows) if rows else nullcontext():
            got, bfs_rows = score(snap, leaves)
            assert bfs_rows == score(snap)[1]
        assert list(got) == leaves


def path_scores(snap: Snapshot, nodes=None, *, dense: bool) -> dict[int, float]:
    """The scorer's table with the dense path or the block path forced."""
    with on_path(dense):
        return general_graph_scores(snap, nodes)


def assert_paths_agree(snap: Snapshot, nodes=None) -> None:
    """The dense path, the block path and the per-root scorer give equal
    tables, in values and key order."""
    want = per_root_scores(snap, nodes)
    for dense in (True, False):
        got = path_scores(snap, nodes, dense=dense)
        assert list(got) == list(want)
        assert got == want


def circulant(n: int, steps, drop=(), add=()) -> Snapshot:
    """Every node of the circulant graph C_n(steps), less the edges
    ``drop`` and plus the edges ``add``, infected in BFS order from 0."""
    edges = {(i, (i + s) % n) for i in range(n) for s in steps} - set(drop) | set(add)
    return bfs_snapshot(graph_from_edges(n, sorted(edges)), 0, range(n))


class TestDensePath:
    """The dense path finds every root's BFS order at once from all-pairs
    distances and first hops; its tables equal the block path's and the
    per-root scorer's bit for bit, in the same key order."""

    @pytest.fixture
    def ran(self, monkeypatch):
        """The finders that each score took, by name, in order."""
        names = []
        for name in ("_dense_orders", "_block_orders"):
            def spy(*args, _name=name, _path=getattr(centrality, name)):
                names.append(_name)
                return _path(*args)
            monkeypatch.setattr(centrality, name, spy)
        return names

    @pytest.mark.parametrize("drop,add,dense", [([(0, 1)], [], False), ([], [], True), ([], [(0, 6)], True)],
                             ids=["below", "at", "above"])
    def test_mean_degree_threshold(self, ran, drop, add, dense):
        """The threshold is on the leafless subgraph's entries 2E, not on
        its mean degree: C_128(1, 2), of mean degree 4, has 2E = 512 =
        ``_DENSE_ENTRIES`` exactly; one edge less puts it below and one
        chord more above."""
        snap = circulant(128, (1, 2), drop, add)
        assert centrality._DENSE_ENTRIES == 512 and not leaves_of(snap)
        assert 2 * snap.induced_edge_count == 4 * 128 + 2 * len(add) - 2 * len(drop)
        got = general_graph_scores(snap)
        assert ran == ["_dense_orders" if dense else "_block_orders"]
        assert list(got) == list(per_root_scores(snap)) and got == per_root_scores(snap)
        assert_paths_agree(snap)

    @pytest.mark.parametrize("drop,dense", [([], True), ([(5, 6)], False)], ids=["at", "below"])
    def test_leaves_do_not_count_towards_the_threshold(self, ran, drop, dense):
        """C_128(1, 2) with a leaf hung on node 0: the leaf's two entries
        do not count, so the snapshot takes the dense path only while its
        leafless subgraph keeps 2E = 512; with one ring edge less, 2E is
        512 only with the leaf's entries."""
        edges = {(i, (i + s) % 128) for i in range(128) for s in (1, 2)} - set(drop) | {(0, 128)}
        snap = bfs_snapshot(graph_from_edges(129, sorted(edges)), 0, range(129))
        assert leaves_of(snap) == [128]
        assert 2 * snap.induced_edge_count == 514 - 2 * len(drop)
        assert general_graph_scores(snap) == per_root_scores(snap)
        assert ran == ["_dense_orders" if dense else "_block_orders"]

    @pytest.mark.parametrize("block_entries,dense", [(8192, True), (8191, False)], ids=["fits", "too-large"])
    def test_memory_bound(self, ran, block_entries, dense, monkeypatch):
        """A snapshot of n = 128 above the threshold (C_128(1, 2, 3), 2E =
        768) takes the dense path only while its n_r * n = 16384 cells are
        at most 2 * BLOCK_ENTRIES."""
        snap = circulant(128, (1, 2, 3))
        monkeypatch.setattr(centrality, "BLOCK_ENTRIES", block_entries)
        assert general_graph_scores(snap) == per_root_scores(snap)
        assert ran == ["_dense_orders" if dense else "_block_orders"]

    @settings(max_examples=40, deadline=None)
    @given(
        family=st.sampled_from(["sf", "er"]),
        size=st.integers(min_value=20, max_value=300),
        density=st.floats(min_value=3.0, max_value=22.0),
        n_infected=st.integers(min_value=3, max_value=120),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        data=st.data(),
    )
    def test_draws_with_subsets(self, family, size, density, n_infected, seed, data):
        """Draws on both sides of the threshold, every root and a subset:
        the dense path scores every root and returns the asked ones."""
        snap = _snapshot(family, size, density, n_infected, seed)
        assume(snap.n >= 3 and not snap.is_tree)
        subset = data.draw(st.sets(st.sampled_from(snap.infected), min_size=1), label="subset")
        assert_paths_agree(snap)
        assert_paths_agree(snap, subset)

    @pytest.mark.parametrize("family,size,density,n_infected", [("sf", 4039, 22.0, 400), ("er", 300, 250.0, 250)],
                             ids=["sf:4039:22", "er:300:250"])
    def test_dense_benchmark_snapshots(self, family, size, density, n_infected):
        snap = _snapshot(family, size, density, n_infected, seed=20240817)
        assert takes_dense_path(snap)
        assert_paths_agree(snap)
        assert_paths_agree(snap, sorted(snap.infected)[::7])

    @pytest.mark.parametrize("n_infected", [1, 2])
    def test_one_and_two_nodes(self, n_infected):
        snap = _snapshot("er", 50, 3.0, n_infected, seed=5)
        assert snap.n == n_infected
        assert_paths_agree(snap)

    def test_distances_past_255(self):
        """A clique of 26 with a path of 260 nodes hanging off it: its
        leafless subgraph is above the threshold and the farthest pair is
        261 hops apart, past the uint8 distances the dense path starts
        with."""
        clique = [(u, v) for u in range(26) for v in range(u + 1, 26)]
        tail = [(u, u + 1) for u in range(25, 285)]
        snap = bfs_snapshot(graph_from_edges(286, clique + tail), 0, range(286))
        assert takes_dense_path(snap) and leaves_of(snap) == [285]
        assert_paths_agree(snap)
        assert_paths_agree(snap, [0, 100, 285])

    @pytest.mark.parametrize("leaves", [0, 3])
    def test_roots_fill_their_bits(self, ran, leaves):
        """C_256(1, 2, 3), bare or with leaves 256, 257 and 258 hung on
        nodes 0, 100 and 200: its n_r = 256 = 2**8 roots fill the root bits
        of the dense finder's cell keys, so where each (level, kind) group
        of cells ends is the next group's first key, a leaf group's
        included."""
        edges = {(i, (i + s) % 256) for i in range(256) for s in (1, 2, 3)}
        edges |= {(100 * i, 256 + i) for i in range(leaves)}
        snap = bfs_snapshot(graph_from_edges(256 + leaves, sorted(edges)), 0, range(256 + leaves))
        assert leaves_of(snap) == list(range(256, 256 + leaves))
        got = general_graph_scores(snap)
        assert ran == ["_dense_orders"]
        assert list(got) == list(per_root_scores(snap)) and got == per_root_scores(snap)
        assert_paths_agree(snap, [0, 128, 255 + leaves])

    @pytest.mark.parametrize("dense", [True, False], ids=["dense", "block"])
    def test_dense_disconnected_set(self, dense):
        """Two infected K5s joined only through an uninfected node: no
        infected node is isolated, 2E/n = 4, and both paths raise."""
        k5 = [(u, v) for u in range(5) for v in range(u + 1, 5)]
        edges = k5 + [(u + 6, v + 6) for u, v in k5] + [(4, 5), (5, 6)]
        order = [0, 1, 2, 3, 4, 6, 7, 8, 9, 10]
        snap = snapshot_of(graph_from_edges(11, edges), 0, order, {v: 0 if v < 6 else 4 for v in order[1:]})
        assert 2 * snap.induced_edge_count == 4 * snap.n
        with pytest.raises(InvalidInputError):
            general_graph_scores(snap)
        with pytest.raises(InvalidInputError):
            path_scores(snap, dense=dense)
        with pytest.raises(InvalidInputError):
            per_root_scores(snap)


@pytest.mark.parametrize("family,size,density,n_infected",
                         [("er", 2000, 4.0, 400), ("sf", 4039, 22.0, 400), ("er", 300, 250.0, 250)],
                         ids=["er:2000:4", "sf:4039:22", "er:300:250"])
def test_dense_finder_in_small_ranges(family, size, density, n_infected, monkeypatch):
    """``_DENSE_CELLS`` patched to 1, 64 and 2**10: the dense finder takes
    levels in ranges of one root or a few, gathers bitset frontiers a few
    nodes at a time (one at 1), and the tail scores leaves one or a few at
    a time.  Each table equals the unpatched one and the leaf block
    oracle's, for every root and for a subset, key order included.  No
    production input reaches such ranges: the dense finder needs 512
    leafless entries or more, so n_r >= 24 non-leaves, and n_r * n <=
    2 * BLOCK_ENTRIES, so n <= 8192 < 2**14."""
    snap = _snapshot(family, size, density, n_infected, seed=20240817)
    assert takes_dense_path(snap)
    subset = sorted(snap.infected)[::7]
    want = {nodes: general_graph_scores(snap, nodes) for nodes in (None, tuple(subset))}
    for nodes, table in want.items():
        oracle = leaf_block_scores(snap, nodes)
        assert list(table) == list(oracle) and table == oracle
    for cells in (1, 64, 1 << 10):
        monkeypatch.setattr(centrality, "_DENSE_CELLS", cells)
        for nodes, table in want.items():
            got = general_graph_scores(snap, nodes)
            assert list(got) == list(table) and got == table


@settings(max_examples=200, deadline=None)
@given(items=st.lists(st.integers(min_value=0, max_value=50), min_size=1, max_size=40),
       offset=st.integers(min_value=0, max_value=1000), most=st.integers(min_value=0, max_value=120))
@example(items=[7], offset=0, most=3)
@example(items=[0], offset=0, most=0)
def test_cuts(items, offset, most):
    """The range cutter that both of the dense finder's cuts use, on the
    running total of ``items`` (from any offset): its ranges tile the
    items, each holds at most ``most`` or one item, and the next item
    would overflow it."""
    total = offset + np.cumsum([0] + items)
    cuts = centrality._cuts(total, most)
    assert cuts[0] == 0 and cuts[-1] == len(items)
    for a, b in zip(cuts, cuts[1:]):
        assert a < b
        assert sum(items[a:b]) <= most or b == a + 1
        assert b == len(items) or sum(items[a:b + 1]) > most


@st.composite
def connected_graphs(draw) -> dict[int, list[int]]:
    """A connected graph of 2 to 12 nodes, each node's neighbours by
    ascending id: a random tree plus random extra edges."""
    n = draw(st.integers(min_value=2, max_value=12))
    edges = {(draw(st.integers(min_value=0, max_value=v - 1)), v) for v in range(1, n)}
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges |= set(draw(st.lists(st.sampled_from(pairs), max_size=3 * n)))
    return {u: sorted({v for e in edges if u in e for v in e} - {u}) for u in range(n)}


@settings(max_examples=200, deadline=None)
@given(adj=connected_graphs())
def test_first_hop_lemma(adj):
    """The fact the dense path rests on, checked on sequential BFS runs
    (neighbour ties by ascending id): for d(v, u) >= 2 the BFS parent of u
    from v is its parent from a = NH[v, u], the lowest-id neighbour of v
    one step nearer to u.  The same runs show that level d of v's order
    lists its nodes by (a, place of u in a's order)."""
    place, parent, dist = {}, {}, {}
    for v in adj:
        order, parent_place = breadth_first(adj, v)
        place[v] = {u: i for i, u in enumerate(order)}
        parent[v] = {u: order[p] for u, p in zip(order[1:], parent_place[1:])}
        dist[v] = {v: 0}
        for u in order[1:]:
            dist[v][u] = dist[v][parent[v][u]] + 1
    for v in adj:
        hop = {u: min(a for a in adj[v] if dist[a][u] == dist[v][u] - 1) for u in adj if u != v}
        for u in adj:
            if dist[v][u] >= 2:
                assert parent[v][u] == parent[hop[u]][u]
        for d in range(1, max(dist[v].values()) + 1):
            level = sorted((u for u in adj if dist[v][u] == d), key=place[v].get)
            assert level == sorted(level, key=lambda u: (hop[u], place[hop[u]][u]))


@settings(max_examples=200, deadline=None)
@given(adj=connected_graphs())
def test_no_leaf_is_a_first_hop(adj):
    """Why the dense path may fold leaves into their hubs: when n > 2, a
    leaf (one neighbour) is NH[v, u], v's first hop towards u, for no u
    but itself, as a shortest path that enters a leaf cannot leave it."""
    assume(len(adj) > 2)
    dist = {}
    for v in adj:
        order, parent_place = breadth_first(adj, v)
        dist[v] = {v: 0}
        for u, p in zip(order[1:], parent_place[1:]):
            dist[v][u] = dist[v][order[p]] + 1
    for v in adj:
        for u in adj:
            if u != v:
                hop = min(a for a in adj[v] if dist[a][u] == dist[v][u] - 1)
                assert len(adj[hop]) > 1 or hop == u


class TestFoldedLeaves:
    """Both finders work on the leaves (one infected neighbour, N > 2)
    folded into their hubs: their tables equal each other's and the
    per-root scorer's bit for bit, in the same key order, on snapshots
    built so that the folding's corner cases occur, and on sparse draws."""

    def test_star(self):
        """One non-leaf node: the dynamic program has one root and no
        level, and its leaves are placed by id; 6 is at the centre's last
        place."""
        snap = bfs_snapshot(star_graph(6), 0, range(7))
        assert leaves_of(snap) == list(range(1, 7))
        assert_paths_agree(snap)
        assert_paths_agree(snap, [3, 6])

    def test_three_node_path(self):
        snap = bfs_snapshot(graph_from_edges(3, [(0, 1), (1, 2)]), 2, range(3))
        assert leaves_of(snap) == [0, 2]
        assert_paths_agree(snap)
        assert_paths_agree(snap, [0])

    def test_leaf_at_its_hubs_last_place(self):
        """A wheel (hub 0, rim 1..5 in a cycle) with leaf 6 on the hub, the
        last of the hub's children; 6 has uninfected neighbours 7 and 8,
        so its degree is 3."""
        edges = [(0, i) for i in range(1, 7)] + [(i, i % 5 + 1) for i in range(1, 6)] + [(6, 7), (6, 8)]
        snap = bfs_snapshot(graph_from_edges(9, edges), 3, range(7))
        assert leaves_of(snap) == [6]
        assert_paths_agree(snap)
        assert_paths_agree(snap, [6])

    def test_leaves_interleaved_with_their_hubs_children(self):
        """Leaves 2, 5, 9 and 10 on node 4, whose non-leaf neighbours are 3
        and 6, so by id its children from most roots are leaf 2, 3, leaf
        5, 6 (or the one of them that is its parent), then leaves 9 and
        10; leaf 7 on node 1; a ring with a chord, 0-1-3-4-6-8-0 and 1-6,
        so that leaves hang at several levels."""
        ring = [(0, 1), (1, 3), (3, 4), (4, 6), (6, 8), (8, 0), (1, 6)]
        edges = ring + [(4, 2), (4, 5), (4, 9), (4, 10), (1, 7), (9, 11), (7, 12)]
        snap = bfs_snapshot(graph_from_edges(13, edges), 0, range(11))
        assert leaves_of(snap) == [2, 5, 7, 9, 10]
        assert_paths_agree(snap)
        assert_paths_agree(snap, [2, 3, 8])

    @pytest.mark.parametrize("dense", [True, False], ids=["dense", "block"])
    def test_two_joined_leaves_are_disconnected(self, dense):
        """A triangle and an infected edge, joined only through an
        uninfected node: each end of the edge is a leaf whose one neighbour
        is a leaf, which no connected set of more than two nodes has, and
        both paths refuse the set."""
        edges = [(0, 1), (1, 2), (0, 2), (2, 5), (5, 3), (3, 4)]
        snap = snapshot_of(graph_from_edges(6, edges), 0, [0, 1, 2, 3, 4], {1: 0, 2: 0, 3: 2, 4: 3})
        assert leaves_of(snap) == [3, 4]
        with pytest.raises(InvalidInputError):
            path_scores(snap, dense=dense)

    @pytest.mark.parametrize("family,size,density", [("er", 2000, 4.0), ("sf", 2000, 1.5)],
                             ids=["er:2000:4", "sf:2000:1.5"])
    def test_subsets_of_leaves_only(self, family, size, density):
        """Only leaves asked for: their hubs' rows are scored and not
        returned.  Every leaf of an N = 100 snapshot, and every third."""
        snap = _snapshot(family, size, density, 100, seed=20240817)
        leaves = leaves_of(snap)
        assert leaves and not snap.is_tree
        assert_paths_agree(snap, leaves)
        assert_paths_agree(snap, leaves[::3])

    @settings(max_examples=60, deadline=None)
    @given(
        family=st.sampled_from(["er", "sf"]),
        size=st.integers(min_value=4, max_value=400),
        density=st.floats(min_value=1.5, max_value=4.0),
        n_infected=st.integers(min_value=3, max_value=150),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        data=st.data(),
    )
    def test_sparse_draws_with_subsets(self, family, size, density, n_infected, seed, data):
        """Sparse draws, graph mean degree 1.5 to 4 (an sf ratio of half
        that), where leaves are common: every root and a subset."""
        snap = _snapshot(family, size, density if family == "er" else density / 2, n_infected, seed)
        assume(snap.n >= 3)
        subset = data.draw(st.sets(st.sampled_from(snap.infected), min_size=1), label="subset")
        assert_paths_agree(snap)
        assert_paths_agree(snap, subset)


@st.composite
def finder_draws(draw) -> Snapshot:
    """A snapshot of a kind that both finders score: a leafy sf:2000:1.5
    one (about 45% leaves), an er one, a dense sf one, one of one or two
    nodes, or a star tree (one non-leaf node), which the scorer is then
    called on directly rather than through ``likelihood_table``."""
    kind = draw(st.sampled_from(["leafy_sf", "er", "dense_sf", "tiny", "star"]))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    if kind == "star":
        leaves = draw(st.integers(min_value=2, max_value=12))
        return bfs_snapshot(star_graph(leaves), 0, range(leaves + 1))
    if kind == "tiny":
        return _snapshot("er", 50, 3.0, draw(st.integers(min_value=1, max_value=2)), seed)
    family, size, density = {"leafy_sf": ("sf", 2000, 1.5), "er": ("er", 300, 4.0), "dense_sf": ("sf", 600, 20.0)}[kind]
    return _snapshot(family, size, density, draw(st.integers(min_value=3, max_value=150)), seed)


@settings(max_examples=80, deadline=None)
@given(snap=finder_draws(), data=st.data())
def test_both_finders_equal_the_leaf_block_oracle(snap, data):
    """Each finder, forced by patching ``_is_dense`` on the same draw, gives
    the table of the block path as it was before the finders shared one
    preparation and one tail, ``==`` with key order, for every root and
    for a subset."""
    subset = sorted(data.draw(st.sets(st.sampled_from(snap.infected), min_size=1), label="subset"))
    for nodes in (None, subset):
        want = leaf_block_scores(snap, nodes)
        for dense in (True, False):
            got = path_scores(snap, nodes, dense=dense)
            assert list(got) == list(want)
            assert got == want
