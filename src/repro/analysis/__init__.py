"""Analysis framework: graph views with storage-aware cost accounting."""

from .view import (
    CSR_PM_GEOMETRY,
    ID_DTYPE,
    INDPTR_DTYPE,
    AnalysisClock,
    CSRArraysView,
    StorageGeometry,
    build_in_csr,
)
from .viewcache import FULL_REBUILD_STALE_FRACTION, ViewCacheStats

__all__ = [
    "AnalysisClock",
    "CSRArraysView",
    "StorageGeometry",
    "CSR_PM_GEOMETRY",
    "ID_DTYPE",
    "INDPTR_DTYPE",
    "build_in_csr",
    "ViewCacheStats",
    "FULL_REBUILD_STALE_FRACTION",
]
