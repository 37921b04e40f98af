"""Kernel correctness against networkx / reference implementations."""

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import DGAP, DGAPConfig
from repro.algorithms import bfs, betweenness_centrality, connected_components, pagerank
from repro.algorithms.common import gather_edges
from repro.analysis.view import CSR_PM_GEOMETRY, CSRArraysView, StorageGeometry
from repro.baselines import SYSTEMS
from repro.baselines.dgap_system import DGAPSystem
from repro.core.batch import EdgeBatch
from repro.datasets import rmat_edges
from repro.obs import Tracer, tracing
from repro.pmem.stats import PMemStats
from repro.sharding import ShardedDGAP


def make_view(edges, nv):
    edges = np.asarray(edges)
    order = np.argsort(edges[:, 0], kind="stable")
    e = edges[order]
    indptr = np.zeros(nv + 1, dtype=np.int64)
    np.cumsum(np.bincount(e[:, 0], minlength=nv), out=indptr[1:])
    return CSRArraysView(indptr, e[:, 1].astype(np.int32))


@pytest.fixture(params=[0, 1, 2])
def random_graph(request):
    nv = 120
    edges = rmat_edges(nv, 700, seed=request.param)
    # dedupe for clean networkx comparison
    edges = np.unique(edges, axis=0)
    G = nx.DiGraph()
    G.add_nodes_from(range(nv))
    G.add_edges_from(map(tuple, edges))
    return make_view(edges, nv), G, nv


class TestPageRank:
    def test_matches_reference(self, random_graph):
        view, G, nv = random_graph
        got = pagerank(view, iterations=50)
        # reference: same GAPBS variant computed naively
        deg = view.out_degrees().astype(float)
        score = np.full(nv, 1 / nv)
        for _ in range(50):
            new = np.full(nv, 0.15 / nv)
            for u, v in G.edges:
                new[v] += 0.85 * score[u] / deg[u]
            score = new
        np.testing.assert_allclose(got, score, rtol=1e-8)

    def test_ranks_correlate_with_networkx(self, random_graph):
        view, G, nv = random_graph
        got = pagerank(view, iterations=40)
        ref = nx.pagerank(G, alpha=0.85, max_iter=200)
        refv = np.array([ref[i] for i in range(nv)])
        # different dangling-mass handling => compare orderings
        top_got = set(np.argsort(got)[-10:].tolist())
        top_ref = set(np.argsort(refv)[-10:].tolist())
        assert len(top_got & top_ref) >= 7

    def test_sums_below_one(self, random_graph):
        view, _, _ = random_graph
        s = pagerank(view).sum()
        assert 0 < s <= 1.0 + 1e-9

    def test_accounts_time_per_iteration(self, random_graph):
        view, _, _ = random_graph
        pagerank(view, iterations=1)
        t1 = view.seconds()
        view.reset_clock()
        pagerank(view, iterations=10)
        assert view.seconds() == pytest.approx(10 * t1, rel=0.01)


class TestBFS:
    def test_parents_valid(self, random_graph):
        view, G, nv = random_graph
        parent = bfs(view, source=0)
        reachable = {0} | set(nx.descendants(G, 0))
        for v in range(nv):
            if v in reachable:
                assert parent[v] >= 0, v
                if v != 0:
                    assert G.has_edge(int(parent[v]), v)
            else:
                assert parent[v] == -1, v

    def test_depths_match_networkx(self, random_graph):
        view, G, nv = random_graph
        parent = bfs(view, source=0)
        ref = nx.single_source_shortest_path_length(G, 0)
        # walk parent pointers to compute our depth
        for v, d in ref.items():
            hops, u = 0, v
            while u != 0:
                u = int(parent[u])
                hops += 1
                assert hops <= nv
            assert hops == d, v

    def test_source_is_own_parent(self, random_graph):
        view, _, _ = random_graph
        assert bfs(view, source=5)[5] == 5

    def test_isolated_source(self):
        view = make_view(np.array([[1, 2]]), 4)
        parent = bfs(view, source=3)
        assert parent[3] == 3 and parent[1] == -1

    @staticmethod
    def assert_alpha_beta_equivalent(view, source):
        """alpha/beta's depths, never more modeled time; returns both times."""
        ref_view, got_view = view.clone(), view.clone()
        ref, _ = alpha_beta_bfs(ref_view, source)
        got = bfs(got_view, source)
        np.testing.assert_array_equal(bfs_depths(got), bfs_depths(ref))
        assert got_view.seconds(1) <= ref_view.seconds(1), source
        return got_view.seconds(1), ref_view.seconds(1)

    def test_matches_alpha_beta_under_every_geometry(self, random_graph, framework_geometries):
        view, _, nv = random_graph
        for geometry in framework_geometries:
            for source in (0, int(np.argmax(view.out_degrees())), nv // 2):
                self.assert_alpha_beta_equivalent(under(view, geometry), source)

    def test_sparse_graph_pushes_where_alpha_beta_pulls(self):
        view = sparse_graph()
        _, ab_pulled = alpha_beta_bfs(view.clone(), 0)
        _, pulled = levels_pulled(bfs, view.clone(), 0)
        assert ab_pulled >= 1 and pulled == 0
        got_s, ref_s = self.assert_alpha_beta_equivalent(view, 0)
        assert got_s < ref_s

    def test_bottom_up_takes_the_first_frontier_in_neighbour(self):
        """GAPBS's bottom-up step ``break``s at the first in-neighbour in
        the frontier — the early exit its charge assumes."""
        view = hub_graph()
        levels, pulled = levels_pulled(bfs, view.clone(), 0)
        assert levels == 4 and pulled >= 1
        parent = bfs(view, 0)
        depth = bfs_depths(parent)
        in_indptr, in_srcs = view.in_csr()
        assert (depth == 3).sum() > 10
        for v in np.flatnonzero(depth == 3):
            srcs = in_srcs[in_indptr[v] : in_indptr[v + 1]]
            assert parent[v] == srcs[depth[srcs] == 2][0]


class TestCC:
    def test_matches_networkx(self, random_graph):
        view, G, nv = random_graph
        comp = connected_components(view)
        for ref_comp in nx.connected_components(G.to_undirected()):
            labels = {int(comp[v]) for v in ref_comp}
            assert len(labels) == 1
            assert labels.pop() == min(ref_comp)

    def test_label_count(self, random_graph):
        view, G, nv = random_graph
        comp = connected_components(view)
        assert len(set(comp.tolist())) == nx.number_connected_components(G.to_undirected())

    def test_no_edges(self):
        view = make_view(np.empty((0, 2), dtype=np.int64), 5)
        np.testing.assert_array_equal(connected_components(view), np.arange(5))


def cc_path(view):
    """``(labels, incremental, appended_edges)`` of one traced CC run."""
    tracer = Tracer(PMemStats())
    with tracing(tracer):
        labels = connected_components(view)
    span = tracer.find("cc")[0].attrs
    return labels, span["incremental"], span["appended_edges"]


#: one step of a CC-carry history (see TestCCCarry)
CARRY_STEP = st.one_of(
    # an insert batch; ids past the first 12 grow the vertex array
    st.tuples(st.just("insert"), st.lists(st.tuples(st.integers(0, 15), st.integers(0, 15)),
                                          min_size=1, max_size=6)),
    # a matched tombstone of the i-th live edge, in one batch with
    # appends to its own row
    st.tuples(st.just("delete"), st.integers(0, 200), st.lists(st.integers(0, 11), max_size=3)),
    # a tombstone of an edge no row holds (the known defect, DESIGN.md §9)
    st.tuples(st.just("unmatched"), st.integers(0, 11)),
    st.tuples(st.just("compact")),
    # acquire a view and hold it; later run CC on a held (older) view
    st.tuples(st.just("hold")),
    st.tuples(st.just("held"), st.integers(0, 10)),
)


class TestCCCarry:
    """CC on a ``DGAPSystem``'s views carries its labels from one view to
    the next (DESIGN.md §9): after every step of a random history the
    labels are byte-equal to Shiloach–Vishkin from scratch on a carry-less
    view of the same arrays, and the path taken is the incremental one
    exactly when no tombstone and no compaction came between the carried
    labels and the view, and the view is not older than them.

    With the tombstone count taken out of the view's mark (only
    ``history_epoch`` left), the derandomized search finds two failures,
    each a tombstone that shares a batch with an append to its own row —
    the row keeps its length, so nothing else shows it lost an edge::

        history=[('delete', 0, [0])]
        # row 0 was [1] and is now [0]: scratch SV splits 0 from 1, the
        # carried labels keep them merged
        history=[('delete', 0, [1])]
        # row 0 was [1] and is [1] again: the labels agree, but the run
        # took the incremental path past a tombstone
    """

    NV = 12
    PRELOAD = [(0, 1), (1, 2), (3, 4), (5, 6), (6, 5), (8, 9)]

    @staticmethod
    def live_edges(view):
        indptr, dsts = view.out_csr()
        return np.repeat(np.arange(view.num_vertices), np.diff(indptr)), dsts

    def check(self, view, state, carried):
        labels, incremental, appended = cc_path(view)
        scratch = connected_components(CSRArraysView(*view.out_csr()))
        assert labels.tobytes() == scratch.tobytes()
        dirt, appends = state
        assert incremental == (carried is not None and carried[0] == dirt and carried[1] <= appends)
        assert incremental or appended == 0
        return state

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(history=st.lists(CARRY_STEP, max_size=10))
    def test_labels_match_scratch_and_path_follows_the_mark(self, history):
        system = DGAPSystem(self.NV, 256, config=DGAPConfig(
            init_vertices=self.NV, init_edges=256, segment_slots=64))
        system.insert_edges(self.PRELOAD)
        dirt = appends = 0  # tombstone/compaction events, append batches
        held = []
        carried = self.check(system.analysis_view(), (dirt, appends), None)
        for step in history:
            kind, *args = step
            if kind == "insert":
                system.insert_edges(args[0])
                appends += 1
            elif kind == "delete":
                srcs, dsts = self.live_edges(system.analysis_view())
                if srcs.size:
                    i = args[0] % srcs.size
                    d = [int(dsts[i])] + args[1]
                    tomb = [True] + [False] * len(args[1])
                    system.insert_edges(EdgeBatch(np.full(len(d), srcs[i]), np.array(d), np.array(tomb)))
                    dirt += 1
                    appends += bool(args[1])
            elif kind == "unmatched":
                v = args[0]
                view = system.analysis_view()
                srcs, dsts = self.live_edges(view)
                absent = sorted(set(range(view.num_vertices)) - set(dsts[srcs == v].tolist()))
                system.graph.delete_edge(v, absent[0])
                dirt += 1
            elif kind == "compact":
                system.graph.compact()
                dirt += 1
            elif kind == "hold":
                held.append((system.analysis_view(), (dirt, appends)))
            elif held:
                view, state = held[args[0] % len(held)]
                carried = self.check(view, state, carried)
            carried = self.check(system.analysis_view(), (dirt, appends), carried)

    def test_an_incremental_run_is_priced_by_what_it_reads(self):
        system = DGAPSystem(self.NV, 256)
        system.insert_edges(self.PRELOAD)
        connected_components(system.analysis_view())
        system.insert_edges([(2, 3), (2, 7), (9, 10), (11, 11)])
        view = system.analysis_view()
        labels, incremental, appended = cc_path(view)
        assert incremental and appended == 4
        price = CSRArraysView(*view.out_csr(), view.geometry)
        price.account_frontier(3, 4, serial_fraction=0.12)
        price.account_compute(view.num_vertices * 16, serial_fraction=0.12)
        assert view.seconds(1) == price.seconds(1) and view.seconds(16) == price.seconds(16)
        assert labels.tolist() == [0, 0, 0, 0, 0, 5, 5, 0, 8, 8, 8, 11]


def out_side(n_out, m_out, n_in, m_in):
    """GAPBS's backward pass: every level re-reads the out-rows of depth d."""
    return False


def frozen_bc(view, source, pulls, reads_in=out_side):
    """Frozen Brandes forward/backward pass whose forward levels pull when
    ``pulls(n_frontier, m_frontier, n_unvisited, m_unvisited)`` says so,
    and whose backward level d is charged for the in-rows of depth d+1
    when ``reads_in(|L_d|, out-edges of L_d, |L_d+1|, in-edges of L_d+1)``
    says so: the scores the kernel must reproduce byte for byte, and a
    modeled time it must never exceed.  Returns the scores and the number
    of backward levels charged to the in-side; each of those levels
    checks that the in-rows of depth d+1 filtered to depth d hold the
    very edges the backward step computes from."""
    nv = view.num_vertices
    out_indptr, out_dsts = view.out_csr()
    out_dsts = out_dsts.astype(np.intp)
    in_indptr, in_srcs = view.in_csr()
    in_srcs = in_srcs.astype(np.intp)
    out_deg = view.out_degrees()
    in_deg = np.bincount(out_dsts, minlength=nv)
    depth = np.full(nv, -1, dtype=np.int64)
    sigma = np.zeros(nv, dtype=np.float64)
    depth[source] = 0
    sigma[source] = 1.0
    levels = [np.array([source], dtype=np.int64)]
    level_edges = []
    d = 0
    frontier = levels[0]
    while frontier.size:
        m_frontier = int(out_deg[frontier].sum())
        cand = np.flatnonzero(depth < 0)
        m_unvisited = int(in_deg[cand].sum())
        pull = pulls(frontier.size, m_frontier, cand.size, m_unvisited)
        if pull:
            w, u = gather_edges(in_indptr, in_srcs, cand)
            view.account_frontier(cand.size, m_unvisited, serial_fraction=0.02)
            hit = depth[u] == d
        else:
            u, w = gather_edges(out_indptr, out_dsts, frontier)
            view.account_frontier(frontier.size, m_frontier, serial_fraction=0.02)
            hit = depth[w] < 0
        u, w = u[hit], w[hit]
        discovered = np.zeros(nv, dtype=bool)
        discovered[w] = True
        nxt = np.flatnonzero(discovered)
        depth[nxt] = d + 1
        np.add.at(sigma, w, sigma[u])
        view.account_compute(nxt.size * 16, serial_fraction=0.02)
        if nxt.size == 0:
            break
        level_edges.append((None if pull else (u, w), m_frontier))
        levels.append(nxt)
        frontier = nxt
        d += 1
    delta = np.zeros(nv, dtype=np.float64)
    backward_in = 0
    for d in range(len(levels) - 2, -1, -1):
        verts, nxt = levels[d], levels[d + 1]
        edges, gathered = level_edges[d]
        if edges is None:
            owners, nbrs = gather_edges(out_indptr, out_dsts, verts)
            keep = depth[nbrs] == d + 1
            edges = owners[keep], nbrs[keep]
        u, w = edges
        m_in = int(in_deg[nxt].sum())
        if reads_in(verts.size, gathered, nxt.size, m_in):
            backward_in += 1
            # sufficiency: the in-side holds the same (u, w) multiset
            in_w, in_u = gather_edges(in_indptr, in_srcs, nxt)
            parents = depth[in_u] == d
            assert in_w.size == m_in
            assert sorted(zip(in_u[parents].tolist(), in_w[parents].tolist())) == sorted(
                zip(u.tolist(), w.tolist())), d
            view.account_partial_scan(nxt.size, m_in, serial_fraction=0.02)
        else:
            view.account_partial_scan(verts.size, gathered, serial_fraction=0.02)
        contrib = sigma[u] / sigma[w] * (1.0 + delta[w])
        np.add.at(delta, u, contrib)
        view.account_compute(verts.size * 24, serial_fraction=0.02)
    delta[source] = 0.0
    return delta, backward_in


def push_only_bc(view, source):
    """GAPBS ``bc.cc``: every forward level pushes."""
    return frozen_bc(view, source, lambda n_f, m_f, n_u, m_u: False)[0]


def two_count_bc(view, source):
    """A level pulls when the unvisited side is smaller on both counts,
    vertices and edges (the rule before levels were priced by their view)."""
    return frozen_bc(view, source, lambda n_f, m_f, n_u, m_u: n_u < n_f and m_u < m_f)[0]


def cheaper(price):
    """The per-level rule priced by the view: take the second side when
    ``price`` says it is strictly cheaper."""
    return lambda n_a, m_a, n_b, m_b: price(n_b, m_b) < price(n_a, m_a)


def out_side_bc(view, source):
    """Forward levels priced as the kernel prices them; every backward
    level charged for the out-rows (the rule before backward levels were
    priced)."""
    return frozen_bc(view, source, cheaper(view.frontier_ns))[0]


def priced_bc(view, source):
    """Both passes priced as the kernel prices them, every in-side level
    checked for sufficiency: ``(scores, backward levels on the in-side)``."""
    return frozen_bc(view, source, cheaper(view.frontier_ns), cheaper(view.partial_scan_ns))


def alpha_beta_bfs(view, source):
    """Frozen GAPBS alpha/beta BFS (``bfs.cc``'s DRAM-tuned switch, any
    bottom-up hit as the parent): the depths the kernel must reproduce,
    and a modeled time it must never exceed.  Returns the parent array
    and the number of levels that pulled."""
    nv = view.num_vertices
    out_indptr, out_dsts = view.out_csr()
    in_indptr, in_srcs = view.in_csr()
    out_deg = view.out_degrees()
    out_dsts = out_dsts.astype(np.intp)
    in_srcs = in_srcs.astype(np.intp)
    parent = np.full(nv, -1, dtype=np.int64)
    parent[source] = source
    frontier = np.array([source], dtype=np.int64)
    edges_to_check = int(out_deg.sum())
    pulled = 0
    while frontier.size:
        scout = int(out_deg[frontier].sum())
        if scout > edges_to_check // 15 and frontier.size > nv // (18 * 4):
            pulled += 1
            in_frontier = np.zeros(nv, dtype=bool)
            in_frontier[frontier] = True
            cand = np.flatnonzero(parent < 0)
            owners, nbrs = gather_edges(in_indptr, in_srcs, cand)
            hits = in_frontier[nbrs]
            found = np.full(nv, -1, dtype=np.int64)
            found[owners[hits]] = nbrs[hits]
            next_frontier = np.flatnonzero(found >= 0)
            parent[next_frontier] = found[next_frontier]
            view.account_frontier(cand.size, int(owners.size * 0.4), serial_fraction=0.03)
        else:
            owners, nbrs = gather_edges(out_indptr, out_dsts, frontier)
            fresh = parent[nbrs] < 0
            parent[nbrs[fresh]] = owners[fresh]
            discovered = np.zeros(nv, dtype=bool)
            discovered[nbrs[fresh]] = True
            next_frontier = np.flatnonzero(discovered)
            view.account_frontier(frontier.size, int(owners.size), serial_fraction=0.03)
        edges_to_check -= scout
        view.account_compute(next_frontier.size * 8, serial_fraction=0.03)
        frontier = next_frontier
    return parent, pulled


def bfs_depths(parent):
    """Hops from the root of every vertex in a BFS parent array (−1: unreached)."""
    depth = np.where(parent == np.arange(parent.size), 0, -1)
    while True:
        ready = (depth < 0) & (parent >= 0)
        ready[ready] = depth[parent[ready]] >= 0
        if not ready.any():
            return depth
        depth[ready] = depth[parent[ready]] + 1


def span_attrs(kernel, view, source):
    """The attributes the kernel's span annotates."""
    tracer = Tracer()
    with tracing(tracer):
        kernel(view, source)
    span = {bfs: "bfs", betweenness_centrality: "bc"}[kernel]
    return tracer.find(span)[0].attrs


def levels_pulled(kernel, view, source):
    """The kernel span's level annotation: ``(levels, levels_pulled)``."""
    attrs = span_attrs(kernel, view, source)
    return attrs["levels"], attrs["levels_pulled"]


@pytest.fixture(scope="module")
def framework_geometries():
    """Every compared framework's analysis geometry, as its view prices
    a graph it ingested, plus immutable CSR on PM."""
    nv = 120
    edges = np.unique(rmat_edges(nv, 700, seed=0), axis=0)
    geoms = [CSR_PM_GEOMETRY]
    for make in SYSTEMS.values():
        system = make(nv, edges.shape[0])
        system.insert_edges(map(tuple, edges))
        system.finalize()
        geoms.append(system.analysis_view().geometry)
    return geoms


def under(view, geometry):
    return CSRArraysView(*view.out_csr(), geometry)


def hub_graph():
    """0 -> hub 1 -> 148 rows whose out-edges land mostly on rows already
    seen: after the hub level the 50 unvisited rows are priced well
    below the 148-row frontier, so the third level pulls."""
    rng = np.random.default_rng(3)
    nv = 200
    edges = [(0, 1)] + [(1, v) for v in range(2, 150)]
    edges += [(v, int(t)) for v in range(2, 150) for t in rng.choice(np.arange(2, nv), 6, replace=False)]
    return make_view(np.array(edges), nv)


def wide_narrow_graph():
    """0 -> 100 rows of 8 out-edges each, nearly all back into that wide
    level; only rows 1-3 reach row 101, and 101 reaches 102.  The backward
    level over the wide level re-reads ~800 out-edges of 100 rows on the
    out-side, and the 3 in-edges of row 101 on the in-side."""
    rng = np.random.default_rng(11)
    nv = 103
    edges = [(0, v) for v in range(1, 101)]
    edges += [(v, int(t)) for v in range(1, 101) for t in rng.choice(np.arange(1, 101), 8, replace=False)]
    edges += [(1, 101), (2, 101), (3, 101), (101, 102)]
    return make_view(np.array(edges), nv)


def sparse_graph():
    """0 -> 20 rows of 3 out-edges each, in a 1 000-vertex graph of 480
    edges: at the second level alpha/beta pulls (60 edges to scout, over
    1/15 of the 460 left; 20 rows, over nv/72) and probes ~980 unvisited
    rows, where the push reads 20."""
    rng = np.random.default_rng(5)
    nv = 1000
    edges = [(0, v) for v in range(1, 21)]
    edges += [(v, int(t)) for v in range(1, 21) for t in rng.choice(np.arange(21, nv), 3, replace=False)]
    edges += [(int(s), int(t)) for s, t in rng.integers(21, nv, size=(400, 2))]
    return make_view(np.array(edges), nv)


class TestBC:
    @staticmethod
    def reference_dependency(G, s, nv):
        """Textbook Brandes single-source dependencies."""
        import collections

        sigma = collections.defaultdict(float)
        dist = {}
        preds = collections.defaultdict(list)
        sigma[s] = 1.0
        dist[s] = 0
        q = [s]
        order = []
        while q:
            nq = []
            for u in q:
                order.append(u)
            for u in q:
                for v in G.successors(u):
                    if v not in dist:
                        dist[v] = dist[u] + 1
                        nq.append(v)
            q = sorted(set(nq), key=lambda x: x)
        # recompute sigma/preds by BFS order
        order = sorted(dist, key=lambda v: dist[v])
        sigma = collections.defaultdict(float)
        sigma[s] = 1.0
        for v in order:
            for w in G.successors(v):
                if dist.get(w) == dist[v] + 1:
                    sigma[w] += sigma[v]
                    preds[w].append(v)
        delta = collections.defaultdict(float)
        for w in reversed(order):
            for v in preds[w]:
                delta[v] += sigma[v] / sigma[w] * (1 + delta[w])
        out = np.zeros(nv)
        for v, d in delta.items():
            out[v] = d
        out[s] = 0.0
        return out

    def test_matches_reference(self, random_graph):
        view, G, nv = random_graph
        got = betweenness_centrality(view, source=0)
        ref = self.reference_dependency(G, 0, nv)
        np.testing.assert_allclose(got, ref, rtol=1e-9, atol=1e-12)

    def test_source_zeroed(self, random_graph):
        view, _, _ = random_graph
        assert betweenness_centrality(view, source=0)[0] == 0.0

    @staticmethod
    def assert_push_equivalent(view, source):
        """Scores byte-equal to push-only Brandes; never more modeled time
        than push-only, the two-count rule or the kernel's own forward
        rule with every backward level on the out-side; exactly the time
        of the frozen copy that prices both passes (whose in-side levels
        are checked for sufficiency), with as many levels on the in-side
        as the kernel's span reports.  Returns the kernel's, push-only's
        and the out-side copy's times."""
        ref_view, two_view, out_view, priced_view, got_view = (view.clone() for _ in range(5))
        ref = push_only_bc(ref_view, source)
        two = two_count_bc(two_view, source)
        out = out_side_bc(out_view, source)
        priced, backward_in = priced_bc(priced_view, source)
        tracer = Tracer()
        with tracing(tracer):
            got = betweenness_centrality(got_view, source)
        assert got.tobytes() == ref.tobytes() == two.tobytes() == out.tobytes() == priced.tobytes(), source
        got_s = got_view.seconds(1)
        assert got_s <= min(ref_view.seconds(1), two_view.seconds(1), out_view.seconds(1)), source
        assert got_s == priced_view.seconds(1), source
        assert tracer.find("bc")[0].attrs["backward_in"] == backward_in, source
        return got_s, ref_view.seconds(1), out_view.seconds(1)

    def test_matches_push_only_on_random_graphs(self, random_graph, framework_geometries):
        view, _, nv = random_graph
        for geometry in framework_geometries:
            for source in (0, int(np.argmax(view.out_degrees())), nv // 2):
                self.assert_push_equivalent(under(view, geometry), source)

    def test_hub_graph_pulls_and_costs_less(self):
        view = hub_graph()
        levels, pulled = levels_pulled(betweenness_centrality, view.clone(), 0)
        assert levels >= 3 and pulled >= 1
        got_s, ref_s, _ = self.assert_push_equivalent(view, 0)
        assert got_s < ref_s

    def test_narrow_level_reads_its_in_rows_and_costs_less(self):
        view = wide_narrow_graph()
        assert span_attrs(betweenness_centrality, view.clone(), 0)["backward_in"] >= 1
        got_s, _, out_s = self.assert_push_equivalent(view, 0)
        assert got_s < out_s

    def test_matches_push_only_on_store_views(self):
        """The analysis views of DGAP and 1- and 3-shard stores fed one
        stream: scores byte-equal to push-only Brandes on each."""
        nv = 256
        edges = rmat_edges(nv, 3000, seed=7)
        pulled = 0
        for store in (DGAP(DGAPConfig(init_vertices=nv, init_edges=4096)),
                      *(ShardedDGAP(n, DGAPConfig(init_vertices=nv, init_edges=4096)) for n in (1, 3))):
            store.insert_edges(edges)
            (indptr, dsts), inn = store.view_cache.materialize()
            view = CSRArraysView(indptr, dsts, derived={"in": inn})
            for source in np.argsort(-view.out_degrees(), kind="stable")[:4].tolist():
                self.assert_push_equivalent(view, source)
                pulled += levels_pulled(betweenness_centrality, view.clone(), source)[1]
        assert pulled > 0


class TestViewAccounting:
    def test_in_degrees_are_cached_and_shared(self, random_graph):
        view, G, nv = random_graph
        want = [G.in_degree(v) for v in range(nv)]
        counted = CSRArraysView(*view.out_csr())
        assert counted.in_degrees().tolist() == want
        assert counted.clone().in_degrees() is counted.in_degrees()
        read_off = CSRArraysView(*view.out_csr())
        read_off.in_csr()
        assert read_off.in_degrees().tolist() == want

    def test_frontier_charge_is_its_price(self, random_graph):
        view, _, _ = random_graph
        view.account_frontier(7, 90, serial_fraction=0.0)
        assert view.clock.par_ns == view.frontier_ns(7, 90) > view.geometry.frontier_ns(7, 90)

    def test_partial_scan_charge_is_its_price(self, random_graph):
        view, _, _ = random_graph
        view.account_partial_scan(7, 90, serial_fraction=0.0)
        assert view.clock.par_ns == view.partial_scan_ns(7, 90) > view.geometry.scan_ns(7, 90)

    def test_gap_overhead_slows_scans(self, random_graph):
        view, _, nv = random_graph
        indptr, dsts = view.out_csr()
        plain = CSRArraysView(indptr, dsts)
        gappy = CSRArraysView(indptr, dsts, StorageGeometry(name="gappy", scan_overhead=0.4))
        pagerank(plain, 5)
        pagerank(gappy, 5)
        assert gappy.seconds() > plain.seconds()

    def test_blocked_layout_slower_for_scans(self, random_graph):
        view, _, _ = random_graph
        indptr, dsts = view.out_csr()
        csr = CSRArraysView(indptr, dsts)
        bal = CSRArraysView(
            indptr, dsts,
            StorageGeometry(name="bal", edge_bytes=4.3, scan_rnd_per_vertex=1.0, frontier_rnd_per_vertex=2.0),
        )
        pagerank(csr, 5)
        pagerank(bal, 5)
        assert bal.seconds() > csr.seconds()

    def test_amdahl_scaling(self, random_graph):
        view, _, _ = random_graph
        pagerank(view, 10)
        t1, t16 = view.seconds(1), view.seconds(16)
        assert 8 < t1 / t16 <= 16

    def test_cc_scales_worse_than_pr(self, random_graph):
        view, _, _ = random_graph
        pagerank(view, 10)
        pr_speedup = view.seconds(1) / view.seconds(16)
        view.reset_clock()
        connected_components(view)
        cc_speedup = view.seconds(1) / view.seconds(16)
        assert cc_speedup < pr_speedup
