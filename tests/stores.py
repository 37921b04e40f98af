"""One store factory for the suite (DESIGN.md §6, §14).

``make_store(kind, ...)`` builds any of the three stores the suite runs
— ``DGAP`` and ``ShardedDGAP(N)`` as ``"dgap"`` / ``"sharded<N>"`` — on
fresh pools, with a config that overrides the roomy default; ``factory``
is the same builder in the ``(injector, faults)`` shape
:func:`~.harness.crashsweep.crash_sweep` calls.  Beside them, the byte helpers
every differential compares through: a served view's rows, a CSR pair's
bytes, and the shadow model's CSR pair as the view stack lays it out.
"""

import dataclasses

from repro import DGAP, DGAPConfig
from repro.analysis.view import build_in_csr
from repro.serve import QueryServer
from repro.sharding import ShardedDGAP, merge_out_csr

from .harness import model

NV = 64
CFG = dict(init_vertices=NV, init_edges=1024)
STORES = ("dgap", "sharded1", "sharded3")


def make_store(kind: str = "dgap", injector=None, faults=None, **overrides):
    """A fresh store of ``kind`` ("dgap" or "sharded<N>") on fresh pools."""
    cfg = DGAPConfig(**{**CFG, **overrides})
    if kind == "dgap":
        return DGAP(cfg, injector=injector, faults=faults)
    return ShardedDGAP(int(kind[len("sharded"):]), cfg, injector=injector, faults=faults)


def factory(kind: str = "dgap", **overrides):
    """``make_store`` as a sweep's ``make_graph(injector, faults)``."""
    return lambda injector, faults: make_store(kind, injector, faults, **overrides)


def reopen(g, crash=False):
    """Reopen a store from its pool(s) — power-failed first with ``crash``
    — and hold it to the model's structural oracle."""
    if crash:
        g.pool.crash()
    g2 = type(g).open(g.pool, g.config)
    model.assert_structure(g2)
    return g2


def counters(g):
    return [dataclasses.asdict(p.stats) for p in g.pool.pools]


def served_csr(view):
    """The global out-CSR a served view's per-shard rows scatter to."""
    return merge_out_csr(list(view.rows), view.num_vertices, len(view.rows))


def rows_bytes(view):
    """A served view's bytes: every shard's out-CSR as it was wrapped."""
    return [arr.tobytes() for pair in view.rows for arr in pair]


def out_csr(g):
    indptr, dsts = served_csr(QueryServer(g).acquire())
    return indptr.tobytes(), dsts.tobytes()


def csr_bytes(csrs):
    """``((out_indptr, out_dsts), (in_indptr, in_srcs))`` as dtype and
    bytes per array: equal means byte-identical, dtypes included."""
    return [(a.dtype.str, a.tobytes()) for pair in csrs for a in pair]


def model_csrs(m, nv):
    """The shadow model's out- and in-CSR over ``0..nv-1`` (the in-CSR by
    the pinned ``build_in_csr``)."""
    out = m.csr(nv)
    return out, build_in_csr(*out, nv)
