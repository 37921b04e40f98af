"""Hierarchical spans with counter-snapshot attribution.

Design contract (see DESIGN.md §11):

* **Zero overhead when off.** ``trace(name)`` is the only call sites pay
  for; with no tracer installed it returns one shared no-op context
  manager (``_NOOP``) and allocates nothing.
* **Observationally free when on.** A span records
  ``PMemStats.snapshot()`` at entry and ``delta_since`` at exit, plus
  ``time.perf_counter_ns``.  Snapshots are pure reads — the tracer never
  issues a store/flush/fence and never charges modeled time, so the PM
  event stream and every counter (including float ``modeled_ns``) are
  *exactly* equal with tracing on or off.
* **Exact attribution.** Because counters are monotone within a run and
  deltas are taken at span boundaries, a child span's delta is a subset
  of its parent's: for every integer counter,
  ``sum(child.delta) <= parent.delta`` and
  ``parent self = parent.delta - sum(child.delta)`` with no
  double-counting.  Root-span deltas partition the traced interval, so
  per-phase *self* values sum exactly to ``Tracer.total_delta()``
  (the property tests in ``tests/test_trace_properties.py`` pin this).

Spans nest via a per-tracer stack; the structure is purely dynamic
(whatever ``with trace(...)`` blocks actually execute), so a span opened
inside ``insert_edges`` by the rebalancer becomes a child of the insert
span — exactly the attribution the paper's phase-breakdown figures need.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from ..pmem import device as _device_mod
from ..pmem.stats import PMemStats


class _NoopSpan:
    """Shared do-nothing context manager returned when tracing is off."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False


_NOOP = _NoopSpan()

#: the installed tracer, or None (module-level so ``trace`` is one load +
#: one None check on the hot path).
_ACTIVE: Optional["Tracer"] = None

#: cap on the device events one tracer records (``device_ops=True``).
MAX_DEVICE_EVENTS = 200_000


class Span:
    """One timed, counter-attributed region; also its own context manager."""

    __slots__ = (
        "tracer",
        "name",
        "attrs",
        "index",
        "children",
        "t0_wall",
        "wall_ns",
        "t0_modeled",
        "delta",
        "_snap0",
    )

    def __init__(self, tracer: "Tracer", name: str, attrs: Dict[str, Any]):
        self.tracer = tracer
        self.name = name
        self.attrs = attrs
        self.index = -1
        self.children: List[Span] = []
        self.t0_wall = 0
        self.wall_ns = 0
        self.t0_modeled = 0.0
        self.delta: Optional[PMemStats] = None
        self._snap0: Optional[PMemStats] = None

    # -- lifecycle ---------------------------------------------------------
    def __enter__(self) -> "Span":
        t = self.tracer
        self.index = t._next_index()
        t._stack.append(self)
        st = t.stats
        if st is not None:
            self._snap0 = st.snapshot()
            self.t0_modeled = self._snap0.modeled_ns
        self.t0_wall = time.perf_counter_ns()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.wall_ns = time.perf_counter_ns() - self.t0_wall
        t = self.tracer
        st = t.stats
        if st is not None and self._snap0 is not None:
            self.delta = st.delta_since(self._snap0)
            self._snap0 = None
        if exc_type is not None:
            self.attrs.setdefault("error", exc_type.__name__)
        stack = t._stack
        # Under an exception (e.g. a SimulatedCrash unwinding several
        # nested spans) each ``with`` exits in order, so the top of the
        # stack is always ``self``; the guard keeps a mispaired manual
        # __exit__ from corrupting the tree.
        if stack and stack[-1] is self:
            stack.pop()
        parent = stack[-1] if stack else None
        if parent is not None:
            parent.children.append(self)
        else:
            t.roots.append(self)
        return False

    # -- helpers -----------------------------------------------------------
    @property
    def modeled_ns(self) -> float:
        return self.delta.modeled_ns if self.delta is not None else 0.0

    def self_delta(self) -> Optional[PMemStats]:
        """This span's counters minus everything attributed to children."""
        if self.delta is None:
            return None
        acc = self.delta.snapshot()
        for child in self.children:
            if child.delta is None:
                continue
            for k, v in child.delta.__dict__.items():
                setattr(acc, k, getattr(acc, k) - v)
        return acc

    def self_wall_ns(self) -> int:
        return self.wall_ns - sum(c.wall_ns for c in self.children)

    def walk(self, depth: int = 0) -> Iterator[Tuple[int, "Span"]]:
        """Pre-order (depth, span) traversal of this subtree."""
        yield depth, self
        for child in self.children:
            yield from child.walk(depth + 1)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        ns = f"{self.delta.modeled_ns:.0f}ns" if self.delta is not None else "open"
        return f"Span({self.name!r}, {ns}, children={len(self.children)})"


class Tracer:
    """Collects a forest of :class:`Span` trees plus optional device events.

    Parameters
    ----------
    stats:
        The :class:`PMemStats` block to snapshot at span boundaries —
        ``graph.pool.stats`` of any store (a sharded store's is the
        summed view over its pools).  ``None`` traces wall time and
        structure only.
    device_ops:
        When true, install a hook in :mod:`repro.pmem.device` that
        records every primitive (store/flush/fence/ntstore) as a flat
        event — useful for fine-grained traces, but large; off by
        default.
    At most ``MAX_DEVICE_EVENTS`` device events are recorded; beyond
    the cap they are counted in ``dropped_device_events`` instead.
    """

    def __init__(
        self,
        stats: Optional[PMemStats] = None,
        *,
        device_ops: bool = False,
    ):
        self.stats = stats
        self.device_ops = device_ops
        self.roots: List[Span] = []
        self.device_events: List[Tuple[str, float, int, int]] = []
        self.dropped_device_events = 0
        self._stack: List[Span] = []
        self._counter = 0
        self._install_snap: Optional[PMemStats] = None
        self._installed = False

    # -- span creation -----------------------------------------------------
    def span(self, name: str, **attrs: Any) -> Span:
        return Span(self, name, attrs)

    def _next_index(self) -> int:
        i = self._counter
        self._counter = i + 1
        return i

    @property
    def current(self) -> Optional[Span]:
        return self._stack[-1] if self._stack else None

    # -- device events -----------------------------------------------------
    def _device_event(self, kind: str, count: int, nbytes: int) -> None:
        if len(self.device_events) >= MAX_DEVICE_EVENTS:
            self.dropped_device_events += 1
            return
        at = self.stats.modeled_ns if self.stats is not None else 0.0
        self.device_events.append((kind, at, count, nbytes))

    # -- install / uninstall ----------------------------------------------
    def install(self) -> None:
        global _ACTIVE
        if _ACTIVE is not None:
            raise RuntimeError("a tracer is already installed")
        if self._installed:
            raise RuntimeError("a Tracer cannot be re-installed; create a new one")
        self._installed = True
        if self.stats is not None:
            self._install_snap = self.stats.snapshot()
        _ACTIVE = self
        if self.device_ops:
            _device_mod.TRACE_HOOK = self._device_event

    def uninstall(self) -> None:
        global _ACTIVE
        if _ACTIVE is not self:
            raise RuntimeError("this tracer is not installed")
        _ACTIVE = None
        _device_mod.TRACE_HOOK = None
        # Close any spans left open by a non-local exit so the forest is
        # well-formed for exporters.
        while self._stack:
            self._stack[-1].__exit__(None, None, None)

    def total_delta(self) -> Optional[PMemStats]:
        """Everything the device did between install and now (or uninstall)."""
        if self.stats is None or self._install_snap is None:
            return None
        return self.stats.delta_since(self._install_snap)

    # -- inspection --------------------------------------------------------
    def walk(self) -> Iterator[Tuple[int, Span]]:
        for root in self.roots:
            yield from root.walk()

    def span_count(self) -> int:
        return sum(1 for _ in self.walk())

    def find(self, name: str) -> List[Span]:
        return [s for _, s in self.walk() if s.name == name]


# -- module-level API (the only thing instrumented code touches) -----------

def active_tracer() -> Optional[Tracer]:
    return _ACTIVE


def trace(name: str, **attrs: Any):
    """Open a span under the installed tracer, or a no-op when off.

    The off path is one global load and a ``None`` check — no
    allocation, no branching on configuration objects.
    """
    t = _ACTIVE
    if t is None:
        return _NOOP
    return Span(t, name, attrs)


def traced(name: str, **attr_fns: Callable[..., Any]):
    """Decorator form of :func:`trace`: the whole call is one ``name`` span.

    Each ``attr_fns`` value is called with the decorated function's own
    arguments to compute one span attribute — only while a tracer is
    installed.  The off path is the same global load and ``None`` check
    as :func:`trace`, then the plain call.
    """

    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t = _ACTIVE
            if t is None:
                return fn(*args, **kwargs)
            attrs = {k: f(*args, **kwargs) for k, f in attr_fns.items()}
            with Span(t, name, attrs):
                return fn(*args, **kwargs)

        return wrapper

    return decorate


def annotate(**attrs: Any) -> None:
    """Attach attributes to the innermost open span (no-op when off)."""
    t = _ACTIVE
    if t is None:
        return
    cur = t.current
    if cur is not None:
        cur.attrs.update(attrs)


@contextmanager
def tracing(tracer: Tracer):
    """Install ``tracer`` for the duration of the block."""
    tracer.install()
    try:
        yield tracer
    finally:
        tracer.uninstall()


@contextmanager
def kernel_span(name: str, view):
    """Span around an analysis kernel, annotated with the view clock.

    Kernels charge the :class:`~repro.analysis.view.AnalysisClock` on
    their view rather than device stats, so the span additionally
    records the parallel/serial analysis nanoseconds accumulated while
    it was open.
    """
    t = _ACTIVE
    if t is None:
        yield
        return
    clock = getattr(view, "clock", None)
    par0 = clock.par_ns if clock is not None else 0.0
    ser0 = clock.ser_ns if clock is not None else 0.0
    with Span(t, name, {}) as sp:
        try:
            yield sp
        finally:
            if clock is not None:
                sp.attrs["analysis_par_ns"] = clock.par_ns - par0
                sp.attrs["analysis_ser_ns"] = clock.ser_ns - ser0


__all__ = [
    "Span",
    "Tracer",
    "active_tracer",
    "annotate",
    "kernel_span",
    "trace",
    "traced",
    "tracing",
]
