"""Zero-copy mmap views over ``.rgs`` graph stores.

:class:`GraphStore` opens one store file, validates its header against the
v1 schema, and exposes each section as a read-only :class:`numpy.memmap`.
``store.view()`` wraps those maps in a :class:`StoreBackedGraph` — a
:class:`~repro.hypergraph.bipartite.BipartiteGraph` subclass, so every
partitioner, objective, and engine consumes it unchanged — without copying
a byte: the OS pages CSR data in on demand and shares the pages across
every process that maps the same file.

That sharing is the distributed win.  A ``StoreBackedGraph`` pickles as
its *path* (plus the tiny weight columns' presence flags), so the mp
backend's spawn pickle and the RPC init handshake ship bytes, not arrays;
each worker re-maps the file locally and :meth:`GraphStore.data_range` /
:meth:`GraphStore.data_slice` let it touch only its own vertex range.
"""

from __future__ import annotations

import logging
from pathlib import Path

import numpy as np

from ..hypergraph.bipartite import BipartiteGraph
from .format import (
    SectionInfo,
    StoreFormatError,
    StoreHeader,
    StoreWriter,
    read_header,
)

__all__ = [
    "GraphStore",
    "StoreBackedGraph",
    "open_store_view",
    "write_store",
]

logger = logging.getLogger("repro")


class StoreBackedGraph(BipartiteGraph):
    """A :class:`BipartiteGraph` whose arrays are mmap views into a store.

    Behaviorally identical to an in-memory graph (the arrays are read-only
    memmaps, honoring the immutable-by-convention contract), with one
    extra property: pickling ships the store *path*, and unpickling
    re-opens the store on the receiving side.  Master-to-worker graph
    transfer therefore costs a few hundred bytes regardless of graph
    size, and co-located workers share page-cache pages instead of
    holding private copies.
    """

    def __init__(self, store: "GraphStore", **kwargs: object):
        super().__init__(**kwargs)  # type: ignore[arg-type]
        self.store = store

    @property
    def store_path(self) -> Path:
        return self.store.path

    def __reduce__(self):
        return (open_store_view, (str(self.store.path),))

    def remove_small_queries(self, min_degree: int = 2) -> BipartiteGraph:
        """:meth:`BipartiteGraph.remove_small_queries`, loudly.

        Dropping a query rebuilds the CSR in memory, so the result is a
        plain :class:`BipartiteGraph` that pickles its arrays instead of the
        store path; that fallback logs one WARNING on the ``repro`` logger.
        """
        pruned = super().remove_small_queries(min_degree)
        if pruned is not self:
            logger.warning(
                "remove_small_queries dropped %d queries of degree < %d from "
                "store %s; the pruned graph is an in-memory copy and pickles "
                "its arrays, not the store path",
                self.num_queries - pruned.num_queries, min_degree, self.store_path,
            )
        return pruned


def open_store_view(path: str | Path) -> StoreBackedGraph:
    """Open ``path`` and return its graph view (the unpickle constructor)."""
    return GraphStore.open(path).view()


class GraphStore:
    """One open ``.rgs`` file: validated header + per-section memmaps."""

    def __init__(self, path: Path, header: StoreHeader):
        self.path = path
        self.header = header
        self._maps: dict[str, np.ndarray] = {}

    @classmethod
    def open(cls, path: str | Path) -> "GraphStore":
        """Open and validate a store.

        Raises :class:`~repro.storage.format.StoreFormatError` for files
        that are not RGS (bad magic), newer-versioned, or internally
        inconsistent, and :class:`~repro.storage.format.TruncatedStoreError`
        when the file ends before a catalogued section does.
        """
        path = Path(path)
        header = read_header(path)
        store = cls(path, header)
        for required in ("q_indptr", "q_indices", "d_indptr", "d_indices"):
            if header.section(required) is None:
                raise StoreFormatError(
                    f"{path}: store is missing required section {required!r}"
                )
        return store

    # ------------------------------------------------------------------
    def _map(self, info: SectionInfo) -> np.ndarray:
        """Memory-map one section (cached; read-only)."""
        if info.name not in self._maps:
            if info.nbytes == 0:
                self._maps[info.name] = np.empty(info.shape, dtype=np.dtype(info.dtype))
                return self._maps[info.name]
            self._maps[info.name] = np.memmap(
                self.path,
                dtype=np.dtype(info.dtype),
                mode="r",
                offset=info.offset,
                shape=info.shape,
            )
        return self._maps[info.name]

    def section(self, name: str) -> np.ndarray | None:
        """The named section as a read-only array, or ``None`` if absent."""
        info = self.header.section(name)
        return self._map(info) if info is not None else None

    def view(self) -> StoreBackedGraph:
        """The whole graph as a zero-copy :class:`StoreBackedGraph`."""
        return StoreBackedGraph(
            self,
            num_queries=self.header.num_queries,
            num_data=self.header.num_data,
            q_indptr=self.section("q_indptr"),
            q_indices=self.section("q_indices"),
            d_indptr=self.section("d_indptr"),
            d_indices=self.section("d_indices"),
            data_weights=self.section("data_weights"),
            query_weights=self.section("query_weights"),
            name=self.header.name,
        )

    # ------------------------------------------------------------------
    # Partition-slice readers
    # ------------------------------------------------------------------
    def data_range(self, worker: int, num_workers: int) -> tuple[int, int]:
        """The contiguous data-vertex range ``[lo, hi)`` owned by ``worker``.

        Edge-balanced, not vertex-balanced: boundaries are placed so each
        worker's share of d-side CSR slots is as even as contiguity
        allows (``searchsorted`` on ``d_indptr``), matching how the
        engines cost supersteps by adjacency touched rather than by
        vertex count.  Deterministic: every caller computes the same
        boundaries from the same store.
        """
        if not 0 <= worker < num_workers:
            raise ValueError(f"worker {worker} out of range for {num_workers} workers")
        d_indptr = self.section("d_indptr")
        total = int(d_indptr[-1])
        lo_target = total * worker // num_workers
        hi_target = total * (worker + 1) // num_workers
        lo = int(np.searchsorted(d_indptr, lo_target, side="left"))
        hi = int(np.searchsorted(d_indptr, hi_target, side="left"))
        return min(lo, self.header.num_data), min(hi, self.header.num_data)

    def data_slice(self, lo: int, hi: int) -> dict[str, np.ndarray]:
        """Zero-copy d-side CSR rows ``[lo, hi)`` — a worker's shard.

        Returns ``indptr`` rebased to the slice (``indptr[0] == 0``),
        ``indices`` (the adjacent query ids), and the slice's
        ``data_weights`` rows when the store has them.  Only the pages
        backing these rows are faulted in; the rest of the file is never
        touched.
        """
        if not 0 <= lo <= hi <= self.header.num_data:
            raise ValueError(
                f"data slice [{lo}, {hi}) out of range for "
                f"{self.header.num_data} data vertices"
            )
        d_indptr = self.section("d_indptr")
        start, stop = int(d_indptr[lo]), int(d_indptr[hi])
        out = {
            "indptr": np.asarray(d_indptr[lo : hi + 1]) - start,
            "indices": self.section("d_indices")[start:stop],
        }
        weights = self.section("data_weights")
        if weights is not None:
            out["data_weights"] = weights[lo:hi]
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        h = self.header
        return (
            f"GraphStore({str(self.path)!r}, |Q|={h.num_queries}, "
            f"|D|={h.num_data}, |E|={h.num_edges})"
        )


def write_store(graph: BipartiteGraph, path: str | Path, name: str | None = None) -> None:
    """Write an in-memory graph as one ``.rgs`` store (the direct path).

    The chunked converters in :mod:`repro.storage.convert` are the
    bounded-RSS route for graphs that do not fit in memory; this helper
    covers the already-loaded case (``save_graph`` dispatch, tests).
    """
    with StoreWriter(
        path,
        num_queries=graph.num_queries,
        num_data=graph.num_data,
        name=graph.name if name is None else name,
    ) as writer:
        writer.write_section("q_indptr", graph.q_indptr)
        writer.write_section("q_indices", graph.q_indices)
        writer.write_section("d_indptr", graph.d_indptr)
        writer.write_section("d_indices", graph.d_indices)
        if graph.data_weights is not None:
            writer.write_section("data_weights", np.asarray(graph.data_weights))
        if graph.query_weights is not None:
            writer.write_section("query_weights", np.asarray(graph.query_weights))
        writer.finalize(num_edges=graph.num_edges)
