"""Synthetic dataset proxies for the paper's SNAP evaluation graphs."""

from .registry import DATASETS, PAPER_DATASETS, SMALL_DATASETS, DatasetSpec, env_scale, get_dataset
from .rmat import rmat_edges, shuffle_edges, uniform_edges
from .temporal import TEMPORAL_DATASETS, TemporalSpec, TemporalStep

__all__ = [
    "DATASETS",
    "PAPER_DATASETS",
    "SMALL_DATASETS",
    "TEMPORAL_DATASETS",
    "DatasetSpec",
    "TemporalSpec",
    "TemporalStep",
    "get_dataset",
    "env_scale",
    "rmat_edges",
    "uniform_edges",
    "shuffle_edges",
]
