"""The store-surface state machine (DESIGN.md §6, §14).

One Hypothesis ``RuleBasedStateMachine`` drives ``make_store``'s three
stores — ``DGAP``, ``ShardedDGAP(1)``, ``ShardedDGAP(3)`` — in lockstep
through a random history and judges all of them against one
:class:`~.harness.model.Model`.  Every mutation rule may power-fail
*inside* the op, at an event :func:`aim` draws by protocol phase; the
reopened store's fresh merged view must read its own rows, the store is
held to the model's in-flight rule, then the client retries what did
not land — per row, tombstones included, for a batch.  Besides inserts,
growth and scalar deletes the mutations are the tombstone batches a
sliding window sends (``expire_batch``) and compaction.  The fault
policy, the geometry and whether every op runs traced (then attributed
exactly) are drawn once per history — a device's policy is fixed when
it is built.
After every step: every store's out- and in-CSR, from a fresh
``ShardedViewCache`` and from one patched after every step, byte-equal
to the model's (and so to each other); device counters of ``DGAP`` equal
``ShardedDGAP(1)``'s; ``check_invariants()``; every held view still
reads its epoch's bytes, answers ``top_k_degree`` from its own frozen
lists and stays unwriteable.  A lossy repair loses what each store's
layout put under the damaged line, so that rule checks the served top-k
against a fresh snapshot of the damaged store, then re-sends the lost
rows to restore the lockstep.  The store's own cache is driven only by
the readers' rules — served acquires patch its rows, ``analyze``
merges — so an analysis view finds its in-CSR as many patches behind as
the served reads left it, and its merge deferred.

The settings are the machine's own in every profile — derandomized, 25
examples of 30 steps — so tier-1 is reproducible.

Defects it fails on, each a one-line plant under ``src/`` (reverted),
with the rule whose step fails and the tests it replaced:

* (a) ``Rebalancer.recover_ulog`` finishes an ACTIVE undo log without
  ``restore_if_valid()``: ``expire_batch`` (power-failed inside; the
  model's in-flight rule).  With (g): replaced ``test_sweep[rebalance-sampled]``.
* (b) ``recovery._replay_logs`` judges validity on fields 0 and 1 only:
  ``insert_batch`` (power-failed inside; the in-flight rule).  The
  exhaustive ``batched-torn|-adversarial`` and ``rebalance-torn`` rows
  catch it too, each at a few points.
* (c) a ``_batch_round`` whose entries are all tombstones stamps no row:
  ``every_store_reads_the_model`` after ``expire_batch`` (the cache
  patched every step).
* (d) ``_scan_edge_array``'s torn-run cut disabled: ``expire_batch``
  (power-failed inside; the reopen's ``check_invariants``).
* (e) ``Region.write_batch`` drops its commit-group fence:
  ``every_store_reads_the_model`` after ``power_failure_and_reopen``.
  With (d) and (f): replaced
  ``test_sweep[batched-sharded3-torn|-reorder|-adversarial]``.
* (f) ``ShardedDGAP.open`` reverses its shards: ``every_store_reads_the_model``
  after ``power_failure_and_reopen`` (sharded3).  Replaced
  ``test_sweep[scalar-sharded{2,3}-default|-torn]``,
  ``[batched-sharded3-mid-dispatch|-default]``, ``[windowed-sharded{2,3}]``
  and ``test_sharding.py``'s power failure inside vertex growth.
* (g) log replay skips the degree fold: ``power_failure_and_reopen`` (the
  reopen's ``check_invariants``).  Replaced ``test_sweep[random-900|hot-900]``.

Historical defects it re-found on their parent commits:

* ``3e98356``: a caller's ``neighbors(v).sort()`` rewrote a pinned
  epoch (``hold_a_serve_view``); a negative ``k`` was answered with a
  negative latency, not ``GraphError`` (``illegal_call``).
* ``91dd575``: a power failure inside a growth resize left ``edges.g1``
  registered, wedging every later resize (``insert_batch``; the retry
  raised ``PoolLayoutError``).
* ``cb1ca8e`` (PR 27 fixed it), with the rules newer APIs need left
  out: a power failure inside ``insert_vertex`` left the shards' vertex
  counts uneven, and the merged view raised ``GraphError`` —
  ``grow_ids(crash=(0, 74), more=2)`` on the roomy geometry, default
  policy.
"""

import copy
from contextlib import nullcontext

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, precondition, rule

from repro.algorithms import pagerank
from repro.analysis.view import CSRArraysView
from repro.analysis.viewcache import TOP_ROWS
from repro.core.batch import EdgeBatch
from repro.errors import SimulatedCrash
from repro.obs import Tracer, check_attribution, tracing
from repro.pmem.crash import CrashInjector
from repro.pmem.faults import ADVERSARIAL, DEFAULT_POLICY, PERSIST_REORDER, TORN_STORES
from repro.serve import QueryServer, top_k_ns
from repro.serve.driver import SnapshotReader, _bytes_equal, _run_query
from repro.sharding import ShardedViewCache
from .harness import model
from .harness.crashsweep import events
from .harness.model import Model

from . import test_store_surface as surface
from .stores import STORES, counters, csr_bytes, make_store, model_csrs, rows_bytes, served_csr
from .test_view_cache import lossy_repair

#: (config, ids drawn): the surface suite's roomy store, and one tight
#: enough that 30 steps merge logs, rebalance and grow the array
GEOMETRIES = [
    (dict(init_vertices=64, init_edges=1024), 96),
    (dict(init_vertices=8, init_edges=256, segment_slots=64, elog_size=96), 24),
]
#: drawn once per history; the two that tear stores are listed twice: a torn
#: commit group or log append is what recovery's cuts exist for
POLICIES = [DEFAULT_POLICY, PERSIST_REORDER, TORN_STORES, ADVERSARIAL, TORN_STORES, ADVERSARIAL]

ids = st.integers(0, 95)
#: None, or (phase, event): where in the op the power fails (:func:`aim`)
crashes = st.none() | st.tuples(st.integers(0, 7), st.integers(0, 10**6))
illegal_calls = st.sampled_from(
    [(surface.refuse_write, *row) for row in surface.ILLEGAL_WRITES]
    + [(surface.refuse_read, *row) for row in surface.ILLEGAL_READS]
    + [(surface.refuse_k, *row) for row in surface.ILLEGAL_K]
)


def aim(g, op, phase, event):
    """The persistence event of ``op`` on ``g`` a crash draw lands on, or
    None if the op makes none.  The op is dry-run on a twin — the store's
    pool deep-copied and reopened (a store object itself does not copy:
    its arrays are views of the device image) — whose events are labelled
    by their innermost span (``batch_round``, ``insert_edge``, ``merge``,
    ``write_window``, ``resize``, ``compact_sweep``, ...); the draw picks
    one phase uniformly among those the op reached, then one event
    uniformly within it.  A protocol window a few events wide is as
    likely a target as the hundreds of stores around it."""
    twin = type(g).open(copy.deepcopy(g.pool), g.config)
    labels = events(twin, lambda s: model.apply(s, op))
    phases = sorted(set(labels), key=labels.index)
    if not phases:
        return None
    at = [k for k, name in enumerate(labels, 1) if name == phases[phase % len(phases)]]
    return at[event % len(at)]


def top_k_price(view, k):
    """The listed price — ``n`` shards' first ``k`` entries merged — or,
    for a ``k`` beyond the shortest list, the sweep of every row."""
    k, n = min(k, view.num_vertices), len(view.tops)
    if k <= min(ids.size for ids, _ in view.tops):
        return top_k_ns(n * k, k)
    return top_k_ns(view.num_vertices, k)


class StoreMachine(RuleBasedStateMachine):
    @initialize(geometry=st.sampled_from(GEOMETRIES), policy=st.sampled_from(POLICIES),
                seed=st.integers(0, 3), traced=st.booleans())
    def build(self, geometry, policy, seed, traced):
        cfg, self.ids = geometry
        self.traced = traced
        self.injectors = {kind: CrashInjector() for kind in STORES}
        self.stores = {
            kind: make_store(kind, injector=self.injectors[kind], faults=policy.with_seed(seed), **cfg)
            for kind in STORES
        }
        self.model = Model()
        self.held = []  # (ServeView, its out-CSR bytes when acquired)
        self.servers = {}  # per store, its long-lived QueryServer
        self.caches = {}  # per store, (the store, the invariant's own cache)

    def reopen(self, kind):
        """Reopen a store and check its invariants.  Not ``stores.reopen``:
        its edge-log rebuild reads the device, and the machine compares
        device counters across stores."""
        g = self.stores[kind]
        g = self.stores[kind] = type(g).open(g.pool, g.config)
        g.check_invariants()
        return g

    # -- mutations, each optionally power-failed inside -------------------
    def mutate(self, op, crash):
        """Apply ``op`` to every store — traced, if the history drew it, and
        then exactly attributed; with ``crash``, arm each injector at the
        event :func:`aim` draws first, and where the power failed reopen,
        hold the store to the model's in-flight rule and retry what did
        not land."""
        for kind, g in self.stores.items():
            inj, tracer = self.injectors[kind], Tracer(g.pool.stats)
            at = crash and aim(g, op, *crash)
            if at:
                inj.arm(at)
            try:
                with tracing(tracer) if self.traced else nullcontext():
                    model.apply(g, op)
            except SimulatedCrash:
                inj.disarm()
                g = self.reopen(kind)
                got = model.of(g)
                # a fresh merged view reads those rows, before a retry
                # evens out the shards of a growth the failure cut short
                want = csr_bytes(model_csrs(Model(rows=got), g.num_vertices))
                assert csr_bytes(ShardedViewCache(g).materialize()) == want, kind
                landed = self.model.admits(got, op)
                if op[0] == "batch":
                    self.resend(g, got, op[1])
                elif not landed:
                    model.apply(g, op)
            inj.disarm()
            if self.traced:
                assert check_attribution(tracer) == [], kind
        self.model.apply(op)

    def resend(self, g, got, batch):
        """Each row kept a cut of its steps, tombstones included: send
        every row the rest of its own."""
        rest = []
        steps = list(zip(batch.src.tolist(), batch.dst.tolist(), batch.tombstone.tolist()))
        for v in sorted(set(batch.src.tolist())):
            row = [step for step in steps if step[0] == v]
            cut = Model(rows={v: self.model.row(v)})
            while cut.row(v) != got.get(v, []):
                s, d, tomb = row.pop(0)
                (cut.delete if tomb else cut.insert)(s, d)
            rest += row
        if rest:
            src, dst, tomb = map(np.array, zip(*rest))
            model.apply(g, ("batch", EdgeBatch(src, dst, tomb)))

    @rule(edges=st.lists(st.tuples(ids, ids), min_size=2, max_size=12),
          burst=st.integers(0, 300), crash=crashes)
    def insert_batch(self, edges, burst, crash):
        """A few drawn edges (they shrink well), then a seeded burst of
        ``burst`` more, half of them off the first edge's source: enough,
        on the tight geometry, to overflow that row's gap into a long
        log chain, fill logs, force rebalances and grow the array within
        one history."""
        rng = np.random.default_rng(burst)
        more = rng.integers(0, 96, (burst, 2))
        more[rng.random(burst) < 0.5, 0] = edges[0][0]
        edges = np.array(edges + more.tolist())
        self.mutate(("batch", EdgeBatch.coerce(edges % self.ids)), crash)

    @rule(s=ids, d=ids, crash=crashes)
    def insert_edge(self, s, d, crash):
        self.mutate(("insert", s % self.ids, d % self.ids), crash)

    def live(self):
        """Every live copy, ``(src, dst)`` in row order."""
        return [(s, d) for s, row in sorted(self.model.rows.items()) for d in row]

    @precondition(lambda self: self.model.num_edges)
    @rule(pick=st.integers(0, 10**6), crash=crashes)
    def delete_a_live_edge(self, pick, crash):
        live = self.live()
        self.mutate(("delete", *live[pick % len(live)]), crash)

    @precondition(lambda self: self.model.num_edges)
    @rule(pick=st.integers(0, 10**6), crash=crashes)
    def expire_batch(self, pick, crash):
        """A tombstone batch of up to 12 live copies: the op a sliding
        window's churn and expiry send (``TemporalWindowGraph._tombstone``).
        The wrapper itself is not driven — its FIFO assumes it is the
        store's only writer."""
        live = self.live()
        idx = np.random.default_rng(pick).choice(len(live), min(len(live), 1 + pick % 12), replace=False)
        src, dst = np.array([live[i] for i in idx]).T
        self.mutate(("batch", EdgeBatch(src, dst, np.ones(src.size, dtype=bool))), crash)

    @precondition(lambda self: self.model.num_edges)
    @rule(rows=st.integers(1, 8), crash=crashes)
    def tombstone_the_top_rows(self, rows, crash):
        """One live edge off each of the ``rows`` highest-degree rows:
        listed rows fall through their lists' floors."""
        for v in self.model_top_k(rows)[0].tolist():
            if self.model.row(v):
                self.mutate(("delete", v, self.model.row(v)[-1]), crash)

    @rule(crash=crashes)
    def compact(self, crash):
        self.mutate(("compact",), crash)
        assert all(g.tombstone_density() == 0 for g in self.stores.values())

    @precondition(lambda self: self.nv < 128)
    @rule(more=st.integers(1, 64), crash=crashes)
    def grow_ids(self, more, crash):
        """Ids past the array's room: pivots fill the gaps, then a growth
        resize, with the power failure drawn inside either."""
        self.mutate(("grow", self.nv + more - 1), crash)

    # -- lifecycle ---------------------------------------------------------
    @rule()
    def power_failure_and_reopen(self):
        for kind, g in self.stores.items():
            g.pool.crash()
            self.reopen(kind)

    @rule()
    def shutdown_and_reopen(self):
        for kind, g in self.stores.items():
            g.shutdown()
            self.reopen(kind)

    @rule(line=st.integers(0, 10**6))
    def lossy_repair_then_resend(self, line):
        """A media error in one XPLine of a compacted edge array, closed
        by the scrubber's lossy repair: the served top list, patched
        through the rows the repair shrank, answers as a fresh snapshot
        does at every ``k``; then each store's client re-sends what its
        layout lost — every row short of the model emptied and rewritten —
        so the lockstep resumes.  Compacted first: a repair that loses a
        live edge and keeps its tombstone strands an unmatched tombstone,
        the known defect of DESIGN.md §9, pinned by
        ``test_a_repair_strands_a_tombstone``."""
        for kind, g in self.stores.items():
            g.compact()
            lossy_repair(g, line)
            view, direct = QueryServer(g).acquire(), SnapshotReader(g)
            for k in self.top_ks:
                assert _bytes_equal(view.top_k_degree(k), direct.top_k_degree(k)), (kind, k)
            for v, row in sorted(model.of(g).items()):
                if row != self.model.row(v):
                    for d in row:
                        g.delete_edge(v, d)
                    for d in self.model.row(v):
                        g.insert_edge(v, d)

    # -- readers -----------------------------------------------------------
    @property
    def top_ks(self):
        """One row, a whole list, one past it, every row."""
        return (1, TOP_ROWS, TOP_ROWS + 1, self.nv)

    def model_top_k(self, k):
        """The model's top-k ``(ids, degrees)`` by ``(-degree, id)``."""
        order = sorted(range(self.nv), key=lambda v: (-len(self.model.row(v)), v))[:k]
        return np.array(order, dtype=np.int32), np.array([len(self.model.row(v)) for v in order], dtype=np.int64)

    def server(self, kind):
        """The store's one server: a view it handed out outlives its refreshes."""
        g = self.stores[kind]
        if kind not in self.servers or self.servers[kind].graph is not g:
            self.servers[kind] = QueryServer(g)
        return self.servers[kind]

    @rule(v=ids, w=ids, k=st.integers(0, 3))
    def hold_a_serve_view(self, v, w, k):
        """Served reads equal a fresh snapshot's — and the model's top-k at
        every listed and unlisted ``k`` — at the same modeled cost on every
        store (a top-k read at its closed form); every served row is the
        model's; the view is then held across later writes and its
        server's later refreshes, and a caller sorting a row it was handed
        must not reach the epoch."""
        v, w = v % self.nv, w % self.nv
        ns = {}  # per store: the acquire, then (served, snapshot) per query
        tops = [("top_k_degree", k) for k in (k, *self.top_ks)]
        want = [a.tobytes() for a in self.model.csr(self.nv)]
        for kind, g in self.stores.items():
            server, direct = self.server(kind), SnapshotReader(g)
            view = server.acquire()
            assert server.acquire() is view  # same epoch: reused, not rebuilt
            assert [a.tobytes() for a in served_csr(view)] == want, kind
            ns[kind] = [server.last_acquire_ns]
            for op in (("degree", v), ("neighbors", v), ("edge_exists", v, w), ("k_hop", v, k), *tops):
                assert _bytes_equal(_run_query(view, op), _run_query(direct, op)), (kind, op)
                ns[kind] += [view.last_query_ns, direct.last_query_ns]
            answers = []
            for op in tops:
                answers.append(view.top_k_degree(op[1]))
                assert view.last_query_ns == top_k_price(view, op[1]), (kind, op)
                assert _bytes_equal(answers[-1], self.model_top_k(op[1])), (kind, op)
            with pytest.raises(ValueError, match="read-only"):
                view.neighbors(v).sort()
            self.held.append((view, rows_bytes(view), tops, answers))
        assert ns["sharded1"] == ns["dgap"]
        # point queries run on the shards' DRAM rows: same bytes, same modeled cost
        assert ns["sharded3"][1:9:2] == ns["dgap"][1:9:2]
        del self.held[:-6]

    @rule()
    def analyze(self):
        """A kernel over each store's analysis view: one answer, off the
        out-CSR the readers' patches left and the in-CSR the store's cache
        catches up now, both equal to the model's."""
        want = model_csrs(self.model, self.nv)
        rank = pagerank(CSRArraysView(*want[0]), 3)
        for kind, g in self.stores.items():
            out, inn = csrs = g.view_cache.materialize()
            assert csr_bytes(csrs) == csr_bytes(want), kind
            got = pagerank(CSRArraysView(*out, derived={"in": inn}), 3)
            assert got.tobytes() == rank.tobytes(), kind

    @rule(call=illegal_calls)
    def illegal_call(self, call):
        """Refused as the surface suite's tables say, at no device event."""
        check, *row = call
        for kind, g in self.stores.items():
            before = self.injectors[kind].total_events, counters(g)
            check(g, *row)
            assert (self.injectors[kind].total_events, counters(g)) == before

    # -- invariants --------------------------------------------------------
    @property
    def nv(self):
        return self.stores["dgap"].num_vertices

    @invariant()
    def every_store_reads_the_model(self):
        """A fresh cache's build, and a cache of the invariant's own,
        patched after every step since its store was opened — the
        store's own is the readers' to drive, as many patches behind as
        they left it."""
        want = csr_bytes(model_csrs(self.model, self.nv))
        for kind, g in self.stores.items():
            if self.caches.get(kind, (None,))[0] is not g:
                self.caches[kind] = (g, ShardedViewCache(g))
            for cache in (ShardedViewCache(g), self.caches[kind][1]):
                assert csr_bytes(cache.materialize()) == want, kind
            assert g.num_edges == self.model.num_edges
            g.check_invariants()
        assert counters(self.stores["dgap"]) == counters(self.stores["sharded1"])

    @invariant()
    def held_views_keep_their_epoch(self):
        """Each held view reads its epoch's rows and answers top-k from its
        own frozen lists, whatever the stores' caches patched since."""
        for view, held, tops, answers in self.held:
            assert rows_bytes(view) == held
            assert not any(a.flags.writeable for pair in (*view.rows, *view.tops) for a in pair)
            for op, want in zip(tops, answers):
                assert _bytes_equal(view.top_k_degree(op[1]), want)


TestStoreMachine = StoreMachine.TestCase
TestStoreMachine.settings = settings(
    derandomize=True, max_examples=25, stateful_step_count=30, deadline=None
)


@pytest.mark.xfail(strict=True, reason="known defect, DESIGN.md §9: a tombstone that "
                   "matches no live edge still decrements live_degree")
def test_a_repair_strands_a_tombstone():
    """The machine's shrunk history, its repair on an uncompacted store:
    the damaged line held vertex 16's live edge and not its tombstone, so
    the row keeps a tombstone that matches nothing and reads at degree -1.
    The batch is the uniform burst ``insert_batch(burst=42, edges=[(0, 0),
    (0, 0)])`` sent when the history was shrunk."""
    state = StoreMachine()
    state.build(geometry=GEOMETRIES[1], policy=DEFAULT_POLICY, seed=0, traced=False)
    state.insert_edge(crash=None, d=0, s=0)
    burst = [(0, 0), (0, 0)] + np.random.default_rng(42).integers(0, 96, (42, 2)).tolist()
    state.mutate(("batch", EdgeBatch.coerce(np.array(burst) % state.ids)), None)
    state.insert_edge(crash=None, d=0, s=0)
    state.delete_a_live_edge(crash=None, pick=353)
    g = state.stores["dgap"]
    lossy_repair(g, 7)
    assert SnapshotReader(g).top_k_degree(g.num_vertices)[1].min() >= 0
