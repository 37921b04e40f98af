"""Simulated persistent-memory substrate.

Everything the DGAP paper relies on from Optane DCPMM, reproduced as a
testable simulator: byte-addressable device with ADR/eADR cache-line
semantics, ``clwb``/``sfence`` primitives, XPLine write combining, a
calibrated latency cost model, crash injection, PMDK-style pools and
undo-log transactions.
"""

from .alloc import BumpAllocator, Region
from .constants import ATOMIC_WRITE, CACHE_LINE, CHUNKS_PER_LINE, GIB, KIB, MIB, XPLINE
from .crash import CrashInjector, CrashPlan
from .device import PMemDevice
from .faults import (
    ADVERSARIAL,
    DEFAULT_POLICY,
    PERSIST_REORDER,
    TORN_STORES,
    FaultPolicy,
)
from .latency import DRAM, OPTANE_ADR, OPTANE_EADR, LatencyModel
from .pool import PMemPool
from .stats import PMemStats
from .tx import Transaction, TransactionManager

__all__ = [
    "ATOMIC_WRITE",
    "CACHE_LINE",
    "CHUNKS_PER_LINE",
    "XPLINE",
    "KIB",
    "MIB",
    "GIB",
    "BumpAllocator",
    "Region",
    "CrashInjector",
    "CrashPlan",
    "FaultPolicy",
    "DEFAULT_POLICY",
    "TORN_STORES",
    "PERSIST_REORDER",
    "ADVERSARIAL",
    "PMemDevice",
    "PMemPool",
    "PMemStats",
    "LatencyModel",
    "DRAM",
    "OPTANE_ADR",
    "OPTANE_EADR",
    "Transaction",
    "TransactionManager",
]
