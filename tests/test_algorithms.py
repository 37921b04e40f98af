"""Kernel correctness against networkx / reference implementations."""

import networkx as nx
import numpy as np
import pytest

from repro import DGAP, DGAPConfig
from repro.algorithms import bfs, betweenness_centrality, connected_components, pagerank
from repro.algorithms.common import gather_edges
from repro.analysis.view import CSRArraysView, StorageGeometry
from repro.datasets import rmat_edges
from repro.obs import Tracer, tracing
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


def push_only_bc(view, source):
    """Frozen push-only Brandes forward/backward pass: the scores the
    direction-optimizing kernel must reproduce byte for byte, and the
    modeled time it must never exceed."""
    nv = view.num_vertices
    out_indptr, out_dsts = view.out_csr()
    out_dsts = out_dsts.astype(np.intp)
    depth = np.full(nv, -1, dtype=np.int64)
    sigma = np.zeros(nv, dtype=np.float64)
    depth[source] = 0
    sigma[source] = 1.0
    levels = [np.array([source], dtype=np.int64)]
    level_edges = []
    d = 0
    frontier = levels[0]
    while frontier.size:
        owners, nbrs = gather_edges(out_indptr, out_dsts, frontier)
        view.account_frontier(frontier.size, int(owners.size), serial_fraction=0.02)
        fresh = depth[nbrs] < 0
        discovered = np.zeros(nv, dtype=bool)
        discovered[nbrs[fresh]] = True
        nxt = np.flatnonzero(discovered)
        depth[nxt] = d + 1
        u, w = owners[fresh], nbrs[fresh]
        np.add.at(sigma, w, sigma[u])
        view.account_compute(nxt.size * 16, serial_fraction=0.02)
        if nxt.size == 0:
            break
        level_edges.append((u, w, int(owners.size)))
        levels.append(nxt)
        frontier = nxt
        d += 1
    delta = np.zeros(nv, dtype=np.float64)
    for d in range(len(levels) - 2, -1, -1):
        verts = levels[d]
        u, w, gathered = level_edges[d]
        view.account_partial_scan(verts.size, gathered, serial_fraction=0.02)
        contrib = sigma[u] / sigma[w] * (1.0 + delta[w])
        np.add.at(delta, u, contrib)
        view.account_compute(verts.size * 24, serial_fraction=0.02)
    delta[source] = 0.0
    return delta


def hub_graph():
    """0 -> hub 1 -> 148 rows whose out-edges land mostly on rows already
    seen: after the hub level the unvisited side is smaller on both
    counts, so the forward pass pulls."""
    rng = np.random.default_rng(3)
    nv = 200
    edges = [(0, 1)] + [(1, v) for v in range(2, 150)]
    edges += [(v, int(t)) for v in range(2, 150) for t in rng.choice(np.arange(2, nv), 6, replace=False)]
    return make_view(np.array(edges), nv)


def bc_levels_pulled(view, source):
    """The ``bc`` span's level annotation: ``(levels, levels_pulled)``."""
    tracer = Tracer()
    with tracing(tracer):
        betweenness_centrality(view, source)
    attrs = tracer.find("bc")[0].attrs
    return attrs["levels"], attrs["levels_pulled"]


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
        """Byte-equal scores, never more modeled time; returns both times."""
        ref_view, got_view = view.clone(), view.clone()
        ref = push_only_bc(ref_view, source)
        got = betweenness_centrality(got_view, source)
        assert got.tobytes() == ref.tobytes(), source
        assert got_view.seconds(1) <= ref_view.seconds(1), source
        return got_view.seconds(1), ref_view.seconds(1)

    def test_matches_push_only_on_random_graphs(self, random_graph):
        view, _, nv = random_graph
        for source in (0, int(np.argmax(view.out_degrees())), nv // 2):
            self.assert_push_equivalent(view, source)

    def test_hub_graph_pulls_and_costs_less(self):
        view = hub_graph()
        levels, pulled = bc_levels_pulled(view.clone(), 0)
        assert levels >= 3 and pulled >= 1
        got_s, ref_s = self.assert_push_equivalent(view, 0)
        assert got_s < ref_s

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
                pulled += bc_levels_pulled(view.clone(), source)[1]
        assert pulled > 0


class TestViewAccounting:
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
