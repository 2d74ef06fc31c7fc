"""Core contribution of the paper: the compact interval tree index.

Modules
-------
``intervals``
    :class:`IntervalSet` — the (vmin, vmax) intervals of the metacells,
    with brute-force stabbing queries used as the correctness oracle.
``span_space``
    Span-space statistics and the recursive square partition of Figure 1.
``compact_tree``
    :class:`CompactIntervalTree` — the O(n log n) index of Section 4 with
    the Case 1 / Case 2 query planner of Section 5.
``builder``
    The preprocessing pipeline: volume -> metacells -> culling -> tree ->
    on-disk brick layout (single node or striped across p nodes).
``query``
    Execution of query plans against block devices, with honest
    block-granular incremental brick reads.
``striping``
    Round-robin striping of brick records across p disks (Section 5.1)
    and its provable balance bound.
``timevarying``
    Per-time-step indexing of time-varying data (Section 5.2).
"""

from repro.core.intervals import IntervalSet
from repro.core.compact_tree import CompactIntervalTree, QueryPlan
from repro.core.builder import (
    FunctionSlabSource,
    IndexedDataset,
    build_indexed_dataset,
    build_striped_datasets,
)
from repro.core.external_tree import ExternalCompactIndex
from repro.core.persistence import build_persistent_dataset, build_persistent_striped, load_dataset
from repro.core.query import QueryOptions, QueryResult, execute_plan, execute_query
from repro.core.striping import stripe_brick_records, striping_balance_bound
from repro.core.timevarying import TimeVaryingIndex
from repro.core.analysis import (
    QueryCostEstimate,
    active_count_profile,
    estimate_query_cost,
    suggest_isovalues,
)
from repro.core.multi_query import (
    execute_multi_query,
    extract_region_of_interest,
)
from repro.core.span_space import SpanSpaceStats
from repro.core.unstructured_builder import (
    UnstructuredDataset,
    build_striped_unstructured,
    build_unstructured_dataset,
    extract_unstructured,
)

__all__ = [
    "IntervalSet",
    "CompactIntervalTree",
    "QueryPlan",
    "IndexedDataset",
    "build_indexed_dataset",
    "build_striped_datasets",
    "ExternalCompactIndex",
    "build_persistent_dataset",
    "build_persistent_striped",
    "load_dataset",
    "QueryOptions",
    "QueryResult",
    "execute_query",
    "execute_plan",
    "stripe_brick_records",
    "striping_balance_bound",
    "TimeVaryingIndex",
    "SpanSpaceStats",
    "QueryCostEstimate",
    "estimate_query_cost",
    "active_count_profile",
    "suggest_isovalues",
    "execute_multi_query",
    "extract_region_of_interest",
    "FunctionSlabSource",
    "UnstructuredDataset",
    "build_unstructured_dataset",
    "build_striped_unstructured",
    "extract_unstructured",
]
