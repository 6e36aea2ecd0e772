"""Traffic replay over a sharded store: fanout and latency per query.

Reproduces the paper's realistic experiment (Fig. 4b): shard a friendship
graph's records over servers with some partitioner, replay a sampled
traffic pattern of multi-get queries, and record each query's fanout and
latency.  Aggregations by fanout produce the percentile-vs-fanout curves;
summary statistics give the random-vs-SHP sharding comparison ("2x lower
average latency", §4.2.1).

The replay is one vectorized pass: gather every sampled query's neighbor
list into one flat (query, server) array, group it with a single sort +
segmented reduction (:meth:`ShardedKVStore.plan_multiget_batch`), and draw
all per-request latencies in one lognormal pass
(:meth:`LatencyModel.multiget_batch`).  Its fanout / request / record
counters are pinned bitwise, and its mean latency to 5%, by goldens
recorded from the per-query reference replay it replaced
(``tests/golden/serving_replay.json``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..hypergraph.bipartite import BipartiteGraph
from .latency import LatencyModel
from .store import ShardedKVStore

__all__ = ["QuerySample", "ReplayResult", "replay_traffic", "latency_by_fanout"]


@dataclass(frozen=True)
class QuerySample:
    """One multi-get observation (row view into a :class:`ReplayResult`)."""

    fanout: int
    latency_ms: float
    num_records: int


class ReplayResult:
    """All samples from one traffic replay plus store-side load counters.

    Struct-of-arrays: ``fanouts`` / ``latencies`` / ``records`` are parallel
    arrays with one entry per replayed (non-empty) query, in trace order.
    The ``samples`` property materializes the legacy row-oriented view.
    """

    def __init__(
        self,
        fanouts: np.ndarray | None = None,
        latencies: np.ndarray | None = None,
        records: np.ndarray | None = None,
        requests_total: int = 0,
        records_total: int = 0,
    ):
        self.fanouts = (
            np.asarray(fanouts, dtype=np.int64)
            if fanouts is not None
            else np.empty(0, dtype=np.int64)
        )
        self.latencies = (
            np.asarray(latencies, dtype=np.float64)
            if latencies is not None
            else np.empty(0, dtype=np.float64)
        )
        self.records = (
            np.asarray(records, dtype=np.int64)
            if records is not None
            else np.empty(0, dtype=np.int64)
        )
        self.requests_total = requests_total
        self.records_total = records_total

    @property
    def num_samples(self) -> int:
        return int(self.fanouts.size)

    @property
    def samples(self) -> tuple[QuerySample, ...]:
        # A tuple, not a list: the arrays are the source of truth, so
        # mutating this materialized view (e.g. .append) must fail loudly.
        return tuple(
            QuerySample(fanout=int(f), latency_ms=float(lat), num_records=int(r))
            for f, lat, r in zip(self.fanouts, self.latencies, self.records)
        )

    @samples.setter
    def samples(self, values: list[QuerySample]) -> None:
        self.fanouts = np.array([s.fanout for s in values], dtype=np.int64)
        self.latencies = np.array([s.latency_ms for s in values], dtype=np.float64)
        self.records = np.array([s.num_records for s in values], dtype=np.int64)

    def mean_fanout(self) -> float:
        return float(self.fanouts.mean()) if self.fanouts.size else 0.0

    def mean_latency(self) -> float:
        return float(self.latencies.mean()) if self.latencies.size else 0.0

    def latency_percentile(self, p: float) -> float:
        return float(np.percentile(self.latencies, p)) if self.latencies.size else 0.0

    def cpu_proxy(self, ms_per_request: float = 0.05, ms_per_record: float = 0.002) -> float:
        """Storage-tier CPU model: fixed cost per request + per record.

        Lower fanout means fewer requests for the same records, which is
        the mechanism behind the paper's observed CPU reduction.
        """
        return ms_per_request * self.requests_total + ms_per_record * self.records_total

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ReplayResult(n={self.num_samples}, requests={self.requests_total}, "
            f"records={self.records_total})"
        )


def replay_traffic(
    graph: BipartiteGraph,
    assignment: np.ndarray,
    num_servers: int,
    query_ids: np.ndarray,
    latency_model: LatencyModel | None = None,
    seed: int = 0,
) -> ReplayResult:
    """Replay ``query_ids`` as multi-gets against the sharded store.

    One flat gather + one sort + one lognormal pass for the whole trace;
    queries with no neighbors produce no request and no sample.
    """
    model = latency_model or LatencyModel()
    rng = np.random.default_rng(seed)
    store = ShardedKVStore(num_servers=num_servers, assignment=assignment)
    query_ids = np.asarray(query_ids, dtype=np.int64)
    degrees = graph.q_indptr[query_ids + 1] - graph.q_indptr[query_ids]
    keep = degrees > 0
    queries = query_ids[keep]
    degrees = degrees[keep].astype(np.int64)
    num_queries = int(queries.size)
    if num_queries == 0:
        return ReplayResult()
    # Flat gather: entry t of the batch is neighbor (t - offsets[slot]) of
    # its query slot, located at q_indptr[query] + that local index.
    offsets = np.concatenate(([0], np.cumsum(degrees)))
    flat = (
        np.arange(offsets[-1], dtype=np.int64)
        - np.repeat(offsets[:-1], degrees)
        + np.repeat(graph.q_indptr[queries], degrees)
    )
    keys = graph.q_indices[flat]
    slot_of_key = np.repeat(np.arange(num_queries, dtype=np.int64), degrees)
    req_query, _, req_records = store.plan_multiget_batch(keys, slot_of_key)
    # Requests arrive grouped by slot; segment boundaries give per-query fanout.
    first = np.ones(req_query.size, dtype=bool)
    first[1:] = req_query[1:] != req_query[:-1]
    request_starts = np.flatnonzero(first)
    fanouts = np.diff(np.concatenate((request_starts, [req_query.size])))
    latencies = model.multiget_batch(rng, req_records, request_starts)
    return ReplayResult(
        fanouts=fanouts,
        latencies=latencies,
        records=degrees,
        requests_total=int(store.requests_per_server.sum()),
        records_total=int(store.records_per_server.sum()),
    )


def latency_by_fanout(
    result: ReplayResult,
    percentiles: tuple[float, ...] = (50.0, 90.0, 95.0, 99.0),
    max_fanout: int | None = None,
    min_samples: int = 20,
) -> dict[int, dict[float, float]]:
    """Percentile latency per observed fanout value (the Fig. 4b curves).

    Fanouts with fewer than ``min_samples`` observations are dropped, as
    the paper drops fanout > 35 ("there are very few such queries").
    """
    fanouts = result.fanouts
    latencies = result.latencies
    out: dict[int, dict[float, float]] = {}
    for fanout in np.unique(fanouts).tolist():
        if max_fanout is not None and fanout > max_fanout:
            continue
        mask = fanouts == fanout
        if int(mask.sum()) < min_samples:
            continue
        out[int(fanout)] = {
            p: float(np.percentile(latencies[mask], p)) for p in percentiles
        }
    return out
