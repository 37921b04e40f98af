"""One workload run: cycles of set-up → ingest → (analyze → serve) → crash → reopen.

The library is driven only through public calls, closed loop, one
client.  Every public call is timed from outside (wall
``perf_counter_ns`` beside the device's modeled clock); layers are
attributed by reading public counters around the calls.  In a traced
run the same calls also record benchmark-side spans, and a
``repro.obs.Tracer`` is installed per phase to harvest the spans the
library already emits.

A *long* cycle runs every phase; a *short* cycle stops after the ingest
phase and crashes straight after the last acknowledged batch.  Short
cycles repeat identical work, so their modeled numbers must agree
exactly and each piece of their wall time has several observations.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from time import perf_counter_ns
from typing import Dict, List, Optional

import numpy as np

from repro import DGAP, DGAPConfig
from repro.algorithms import KERNELS
from repro.analysis import CSRArraysView, build_in_csr
from repro.baselines.dgap_system import DGAPSystem
from repro.core.batch import EdgeBatch
from repro.obs import Tracer
from repro.pmem.stats import PMemStats
from repro.serve import QueryServer
from repro.sharding import ShardedDGAP
from repro.sharding.merge import ShardedViewCache
from repro.temporal import TemporalWindowGraph

from oracle import Shadow, WindowShadow, csr_keys, reference_in_csr
from workloads import Inputs, Spec, make_inputs

N_SHARDS = 4
READ_CHECKS = 1500  # serve reads verified against the shadow per long cycle (seeded sample)
_COUNTERS = tuple(k for k in PMemStats().__dict__ if k != "buckets")


class Ledger:
    """Operations attempted / failed, with the first few reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.notes: List[str] = []

    def fail(self, why: str) -> None:
        self.failed += 1
        if len(self.notes) < 20:
            self.notes.append(why)

    def check(self, ok: bool, why: str) -> None:
        if not ok:
            self.fail(why)


class SummedStats:
    """``PMemStats`` view over several pools (counters and modeled ns summed).

    Lets one ``repro.obs.Tracer`` attribute a sharded graph's phases; for
    a single pool it is that pool's own stats block.
    """

    def __init__(self, pools) -> None:
        self.pools = pools

    def snapshot(self) -> PMemStats:
        total = PMemStats()
        for k in _COUNTERS:
            setattr(total, k, sum(getattr(p.stats, k) for p in self.pools))
        return total

    def delta_since(self, before: PMemStats) -> PMemStats:
        return self.snapshot().delta_since(before)

    @property
    def modeled_ns(self) -> float:
        return sum(p.stats.modeled_ns for p in self.pools)


class Store:
    """The graph under test plus the handles the phases need."""

    def __init__(self, spec: Spec, inputs: Inputs) -> None:
        self.spec = spec
        nv, ne = spec.nv, spec.expected_edges()
        self.system = self.view_cache = self.window = None
        if spec.store == "sharded":
            self.graph = ShardedDGAP(N_SHARDS, DGAPConfig(init_vertices=nv, init_edges=ne))
            self.view_cache = ShardedViewCache(self.graph)
        else:
            self.system = DGAPSystem(nv, ne)
            self.graph = self.system.graph
            if spec.store == "temporal":
                self.window = TemporalWindowGraph(self.graph, spec.window)
        if inputs.preload.shape[0]:
            self.graph.insert_edges(inputs.preload)

    @property
    def pools(self) -> list:
        return self.graph.pool.pools if self.spec.store == "sharded" else [self.graph.pool]

    @property
    def shards(self) -> list:
        return self.graph.shards if self.spec.store == "sharded" else [self.graph]

    def stats(self):
        pools = self.pools
        return pools[0].stats if len(pools) == 1 else SummedStats(pools)

    def view(self):
        if self.system is not None:
            return self.system.analysis_view()
        (ip, ds), inn = self.view_cache.materialize()
        return CSRArraysView(ip, ds, derived={"in": inn})

    def view_counters(self) -> Dict[str, int]:
        if self.system is not None:
            return self.system.view_counters()
        out: Dict[str, int] = {"whole_view_hits": 0}
        for st in self.view_cache.stats:
            for k, v in st.as_dict().items():
                out[k] = out.get(k, 0) + v
        out["sections_total"] = sum(int(sh.ea.n_sections) for sh in self.graph.shards)
        return out

    def allocated_bytes(self) -> int:
        return sum(int(p.allocator.cursor) for p in self.pools)

    def crash(self) -> None:
        self.graph.pool.crash()

    def reopen(self):
        cls = ShardedDGAP if self.spec.store == "sharded" else DGAP
        return cls.open(self.graph.pool, self.graph.config)

    def adopt(self, graph) -> None:
        """Carry on with a reopened graph.  The analysis system and view cache
        stay bound to the old object, so only short cycles adopt."""
        self.graph = graph
        self.system = self.view_cache = None
        if self.window is not None:
            self.window.graph = graph


def set_up(spec: Spec, seed: int):
    """Input generation + store construction + preload: (inputs, store, seconds)."""
    t0 = perf_counter_ns()
    inputs = make_inputs(spec, seed)
    store = Store(spec, inputs)
    return inputs, store, (perf_counter_ns() - t0) / 1e9


def graph_csr(graph):
    """Out-CSR of a DGAP or ShardedDGAP through its public read path."""
    if hasattr(graph, "global_csr"):
        return graph.global_csr()[0]
    with graph.consistent_view() as snap:
        return snap.to_csr()


class Cycle:
    """Runs one cycle and collects raw samples; ``spans`` is None when untraced."""

    def __init__(self, spec: Spec, seed: int, ledger: Ledger, traced: bool = False) -> None:
        self.spec, self.seed, self.ledger = spec, seed, ledger
        self.spans: Optional[list] = [] if traced else None
        self.tracers: Dict[str, Tracer] = {}
        self._parent = -1
        self.out: dict = {}

    # -- timing ----------------------------------------------------------
    def _modeled(self) -> list:
        return [p.stats.modeled_ns for p in self.store.pools]

    def call(self, name: str, layer: str, fn, *args):
        """Time one public call: (result, wall ns, modeled ns).  An exception
        is a failed operation, not a crash of the benchmark."""
        self.ledger.attempted += 1
        m0 = self._modeled()
        out = None
        t0 = perf_counter_ns()
        try:
            out = fn(*args)
        except Exception as exc:  # noqa: BLE001 — the op failed; the run goes on
            self.ledger.fail(f"{name} raised {type(exc).__name__}: {exc}")
        t1 = perf_counter_ns()
        # shard devices tick concurrently: elapsed modeled time is the max
        modeled = max(b - a for a, b in zip(m0, self._modeled()))
        self.span(name, layer, t0, t1)
        return out, t1 - t0, modeled

    def span(self, name: str, layer: str, t0: int, t1: int) -> None:
        if self.spans is not None:
            self.spans.append((name, layer, t0, t1, self._parent))

    @contextmanager
    def phase(self, name: str):
        """Benchmark-side parent span; in a traced run also a harvesting ``Tracer``."""
        if self.spans is None:
            yield
            return
        t0 = perf_counter_ns()
        index = len(self.spans)
        self.spans.append(None)  # placeholder, closed below
        saved, self._parent = self._parent, index
        tracer = Tracer(self.store.stats())
        tracer.install()
        try:
            yield
        finally:
            tracer.uninstall()
            self.tracers[name] = tracer
            self._parent = saved
            self.spans[index] = (f"phase:{name}", "bench", t0, perf_counter_ns(), saved)

    # -- the cycle -------------------------------------------------------
    def run(self, long: bool) -> dict:
        spec, out = self.spec, self.out
        gc.collect()
        gc.disable()
        try:
            t0 = perf_counter_ns()
            inputs, self.store, out["setup_s"] = set_up(spec, self.seed)
            self.span("setup", "bench", t0, perf_counter_ns())
            out["digest"] = inputs.digest()
            self.shadow = Shadow(spec.nv)
            self.shadow.insert(inputs.preload)
            out["recover"] = {"wall_ns": [], "modeled_ns": []}
            self._recover_stats = dict.fromkeys(_COUNTERS, 0)

            # a long cycle keeps its analysis system, so it crashes once, at the end
            # and a short cycle several times: recovery cost saw-tooths with the
            # volume of pending edge-log entries, so one crash point is one draw
            crash_points = 0 if long else spec.crash_points
            with self.phase("ingest"):
                if spec.store == "temporal":
                    self._ingest_steps(inputs, crash_points, analyze=long)
                else:
                    self._ingest_batches(inputs, crash_points)
            if long:
                with self.phase("analyze"):
                    self._analyze(inputs)
                with self.phase("serve"):
                    self._serve(inputs)
                self._layer_state()
                with self.phase("recover"):
                    self._crash_reopen()
                if self.spans is not None:
                    with self.phase("restart"):
                        self._normal_restart()
        finally:
            gc.enable()
        return out

    # -- ingest ----------------------------------------------------------
    def _ingest_stats(self, before: PMemStats) -> Dict[str, float]:
        """Device counters since ``before``, less what the crashes and reopens in between cost."""
        d = self.store.stats().delta_since(before)
        return {k: getattr(d, k) - self._recover_stats[k] for k in _COUNTERS}

    @staticmethod
    def _crash_marks(n: int, points: int) -> set:
        """Indices after which power fails: ``points`` of them, evenly spread, the last one last."""
        return {n * (k + 1) // points - 1 for k in range(points)} if points else set()

    def _ingest_batches(self, inputs: Inputs, crash_points: int) -> None:
        store = self.store
        marks = self._crash_marks(len(inputs.batches), crash_points)
        wall, modeled = [], []
        before = store.stats().snapshot()
        for i, batch in enumerate(inputs.batches):
            _, w, m = self.call("insert_edges", "core", store.graph.insert_edges, batch)
            wall.append(w)
            modeled.append(m)
            self.shadow.insert(batch)
            if i in marks:
                self._crash_reopen()
        self.out["ingest"] = {
            "wall_ns": wall, "modeled_ns": modeled,
            "mutations": int(sum(b.shape[0] for b in inputs.batches)), "stats": self._ingest_stats(before),
            "pool_bytes": store.allocated_bytes(), "live_edges": int(store.graph.num_edges),
        }
        if self.spec.store == "sharded":
            self._global_csr_check()

    def _global_csr_check(self) -> None:
        graph = self.store.graph
        merged, cold, _ = self.call("global_csr", "sharding", graph.global_csr)
        _, warm, _ = self.call("global_csr", "sharding", graph.global_csr)
        self.out["global_csr"] = {"cold_ns": cold, "warm_ns": warm}
        ok = merged is not None and np.array_equal(csr_keys(*merged[0]), self.shadow.keys())
        self.ledger.check(ok, "merged global CSR differs from the acknowledged edges")

    def _ingest_steps(self, inputs: Inputs, crash_points: int, analyze: bool) -> None:
        store, spec = self.store, self.spec
        wshadow = WindowShadow(self.shadow, spec.window)
        marks = self._crash_marks(len(inputs.steps), crash_points)
        wall, modeled, density, compacted, mutations = [], [], [], 0, 0
        rounds, live = [], []
        pool0 = store.allocated_bytes()
        before = store.stats().snapshot()
        for i, st in enumerate(inputs.steps):
            got, w, m = self.call("advance", "temporal", store.window.advance, st)
            wall.append(w)
            modeled.append(m)
            want = wshadow.advance(st.adds, st.deletes)
            if got is not None:
                mutations += got["added"] + got["churn_deleted"] + got["expired"]
                density.append(got["tombstone_density"])
                compacted += bool(got["compacted"])
                self.ledger.check(
                    all(got[k] == want[k] for k in want),
                    f"step {got['step']}: advance counts {got} differ from the shadow {want}",
                )
            if i >= spec.window:  # steady state: the window has filled
                live.append(int(store.graph.num_edges))
            if analyze:
                rounds.append(self._round("step", None))
            if i in marks:
                self._crash_reopen()
        self.out["ingest"] = {
            "wall_ns": wall, "modeled_ns": modeled, "mutations": mutations, "stats": self._ingest_stats(before),
            # a churning window's last step is one draw; its steady-state mean is the live set
            "pool_bytes": store.allocated_bytes(), "live_edges": sum(live) / max(1, len(live)),
        }
        self.out["temporal"] = {
            "density": density, "compactions": compacted,
            "expired": store.window.counters()["expired"], "steps": len(inputs.steps),
            "pool_growth": store.allocated_bytes() - pool0,
            "live_edges": store.window.live_edges(),
        }
        if analyze:
            self.out["rounds"] = rounds

    # -- analysis --------------------------------------------------------
    def _analyze(self, inputs: Inputs) -> None:
        if self.spec.store == "temporal":
            return  # analysed once per step, inside the ingest phase
        graph, rounds = self.store.graph, []
        for kind, inc in inputs.increments:
            self.call("insert_edges", "core", graph.insert_edges, inc)
            self.shadow.insert(inc)
            rounds.append(self._round(kind, inputs))
        self.out["rounds"] = rounds

    def _round(self, kind: str, inputs: Optional[Inputs]) -> dict:
        """Fresh view + kernels; then, outside the timers, the CSR oracle."""
        store, spec = self.store, self.spec
        per_trial_view = store.system is not None  # whole-view reuse exists there
        c0 = store.view_counters()
        view, view_wall, _ = self.call("analysis_view", "analysis", store.view)
        rec = {"kind": kind, "view_wall_ns": view_wall, "kernels": {}, "hit_wall_ns": [],
               "wall_ns": view_wall, "modeled_ns": 0.0, "counters": {}, "sections_total": c0["sections_total"]}
        if view is None:
            return rec
        sources = inputs.sources if inputs is not None else ()
        first = True
        for kernel in spec.kernels:
            fn = KERNELS[kernel]
            trials = [()]
            if kernel == "bfs":
                trials = [(int(sources[0]),)]
            elif kernel == "bc":
                trials = [(int(s),) for s in sources[: spec.bc_sources]]
            for args in trials:
                v = view
                if per_trial_view and not first:
                    v, w, _ = self.call("analysis_view", "analysis", store.view)
                    rec["hit_wall_ns"].append(w)
                    rec["wall_ns"] += w
                    if v is None:
                        continue
                first = False
                v.reset_clock()
                _, w, _ = self.call(kernel, "algorithms", fn, v, *args)
                k = rec["kernels"].setdefault(kernel, {"wall_ns": 0, "modeled_ns": 0.0})
                k["wall_ns"] += w
                k["modeled_ns"] += v.seconds(1) * 1e9
                rec["wall_ns"] += w
                rec["modeled_ns"] += v.seconds(1) * 1e9
        # only the first acquisition of a round can build; the later ones are whole-view hits
        c1 = store.view_counters()
        rec["counters"] = {k: c1[k] - c0[k] for k in c1 if k != "sections_total"}
        if self.spans is not None:
            self._layer_probes(rec, view)
        self._check_view(view, exact=spec.store != "temporal")
        return rec

    def _check_view(self, view, exact: bool) -> None:
        ip, ds = view.out_csr()
        in_ip, in_srcs = view.in_csr()
        want_ip, want_ds = self.shadow.csr()
        if exact:
            ok = np.array_equal(ip, want_ip) and np.array_equal(ds, want_ds)
        else:  # the temporal contract is the live multiset
            ok = np.array_equal(csr_keys(ip, ds), csr_keys(want_ip, want_ds))
        self.ledger.check(ok, "view out-CSR differs from the shadow adjacency")
        ref_ip, ref_srcs = reference_in_csr(np.asarray(ip), np.asarray(ds), view.num_vertices)
        self.ledger.check(
            np.array_equal(in_ip, ref_ip) and np.array_equal(in_srcs, ref_srcs),
            "view in-CSR differs from the NumPy reference",
        )

    def _layer_probes(self, rec: dict, view) -> None:
        """Traced run only: from-scratch costs the view cache avoids."""
        ip, ds = view.out_csr()
        _, rec["in_csr_wall_ns"], _ = self.call("build_in_csr", "analysis", build_in_csr, ip, ds, view.num_vertices)
        snap_wall = csr_wall = 0
        for sh in self.store.shards:
            snap, w, _ = self.call("consistent_view", "core", sh.consistent_view)
            snap_wall += w
            if snap is not None:
                _, w, _ = self.call("to_csr", "core", snap.to_csr)
                csr_wall += w
                snap.release()
        rec["consistent_view_wall_ns"] = snap_wall
        rec["to_csr_wall_ns"] = csr_wall

    # -- serve -----------------------------------------------------------
    def _serve(self, inputs: Inputs) -> None:
        graph, shadow, ledger = self.store.graph, self.shadow, self.ledger
        if self.store.window is not None:
            # Serve the window compacted: otherwise read cost is 3x apart depending
            # on whether the stream's last sweep happened to fall on its last step.
            self.call("compact", "core", graph.compact)
        server = QueryServer(graph)
        ops = inputs.ops
        n_reads = sum(1 for op in ops if op[0] != "write")
        rng = np.random.default_rng(self.seed + 41)
        checked = (rng.random(len(ops)) < min(1.0, READ_CHECKS / max(1, n_reads))).tolist()
        reads = {"lap": [], "cls": [], "wall_ns": [], "acquire_ns": [], "modeled_ns": [],
                 "query_modeled_ns": [], "refreshed": []}
        writes = {"lap": [], "wall_ns": [], "modeled_ns": []}
        n_checked = 0
        lap_ops = self.spec.lap_ops
        for i, op in enumerate(ops):
            kind = op[0]
            if kind == "write":
                batch = EdgeBatch(op[1], op[2], op[3])
                _, w, m = self.call("insert_edges", "core", graph.insert_edges, batch)
                writes["lap"].append(i // lap_ops)
                writes["wall_ns"].append(w)
                writes["modeled_ns"].append(m)
                ledger.check(shadow.apply(op[1], op[2], op[3]) == 0, "tombstone of an edge the shadow does not hold")
                continue
            ledger.attempted += 1
            refreshes = server.refreshes
            t0 = perf_counter_ns()
            try:
                view = server.acquire()
                t1 = perf_counter_ns()
                got = getattr(view, kind)(*op[1:])
                t2 = perf_counter_ns()
            except Exception as exc:  # noqa: BLE001 — a failed read, counted
                ledger.fail(f"serve {kind} raised {type(exc).__name__}: {exc}")
                continue
            reads["lap"].append(i // lap_ops)
            reads["cls"].append(kind)
            reads["wall_ns"].append(t2 - t0)
            reads["acquire_ns"].append(t1 - t0)
            reads["modeled_ns"].append(server.last_acquire_ns + view.last_query_ns)
            reads["query_modeled_ns"].append(view.last_query_ns)
            reads["refreshed"].append(server.refreshes != refreshes)
            self.span("acquire", "serve", t0, t1)
            self.span(kind, "serve", t1, t2)
            if checked[i]:
                n_checked += 1
                ledger.check(shadow.check_read(op, got), f"serve {kind}{op[1:]} differs from the shadow")
        self.out["reads"] = reads
        self.out["writes"] = writes
        self.out["reads_checked"] = n_checked
        self.out["serve_counters"] = {"refreshes": server.refreshes, "reuses": server.reuses}

    # -- end state, crash, reopen ----------------------------------------
    def _layer_state(self) -> None:
        shards = self.store.shards
        self.out["state"] = {
            "rebalances": sum(sh.n_rebalances for sh in shards),
            "resizes": sum(sh.n_resizes for sh in shards),
            "pma_fill": sum(int(sh.ea.seg_occ.sum()) for sh in shards) / sum(int(sh.ea.capacity) for sh in shards),
            "tombstone_density": self.store.graph.tombstone_density(),
            "shard_edges": [int(sh.num_edges) for sh in shards],
        }

    def _crash_reopen(self) -> None:
        """Power fails straight after the last acknowledged write; reopen; nothing may be missing."""
        store = self.store
        want = self.shadow.keys()
        before = store.stats().snapshot()
        store.crash()
        graph, wall, modeled = self.call("open", "core", store.reopen)
        spent = store.stats().delta_since(before)
        for k in _COUNTERS:
            self._recover_stats[k] += getattr(spent, k)
        self.out["recover"]["wall_ns"].append(wall)
        self.out["recover"]["modeled_ns"].append(modeled)
        if graph is None:
            return
        got = csr_keys(*graph_csr(graph))
        self.ledger.check(
            np.array_equal(got, want),
            f"recovered CSR differs from the acknowledged edges ({got.size} recovered, {want.size} acknowledged)",
        )
        store.adopt(graph)

    def _normal_restart(self) -> None:
        graph = self.store.graph
        _, shut, _ = self.call("shutdown", "core", graph.shutdown)
        again, wall, modeled = self.call("open", "core", self.store.reopen)
        self.out["restart"] = {"shutdown_wall_ns": shut, "wall_ns": wall, "modeled_ns": modeled}
        ok = again is not None and np.array_equal(csr_keys(*graph_csr(again)), self.shadow.keys())
        self.ledger.check(ok, "graph after shutdown + open differs from the acknowledged edges")
