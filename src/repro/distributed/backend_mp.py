"""Shared-nothing multiprocess backend: one OS process per cluster worker.

Layout (mirrors a small Giraph deployment on a single machine):

* The **master** (calling process) runs the master program, reduces
  aggregators, routes message batches between workers and assembles the
  per-superstep metrics — exactly the responsibilities Giraph gives its
  master/coordinator.
* Each **worker process** owns its vertex partition (built once at startup
  from its slice of the initial columns and never shared), executes
  :func:`repro.distributed.backend.execute_worker_superstep_batch` every
  superstep, and reports outbound batches + aggregates at the barrier.
* The immutable graph (bipartite CSR arrays) and the vertex-placement table
  are published once through the shared-memory pool
  (:mod:`repro.distributed.shared_pool`) — workers attach zero-copy,
  read-only views instead of receiving pickled copies.
* Message batches are pickled **once per hop** in the sending worker and
  routed by the master as opaque byte blobs, so the master never
  re-serializes traffic it merely forwards.

Determinism: placement comes from the engine seed and ``ctx.random()`` is
counter-based (see :mod:`repro.distributed.engine`), so a job produces
bit-identical vertex columns on this backend and on the simulator.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import pickle
import time
import traceback

import numpy as np

from .backend import Backend, execute_worker_superstep_batch
from .shared_pool import SharedArrayPack, SharedArrayPool

__all__ = ["MultiprocessBackend", "SharedArrayPack", "share_graph", "attach_graph"]

_PICKLE_PROTO = pickle.HIGHEST_PROTOCOL


def _default_context() -> str:
    override = os.environ.get("REPRO_MP_CONTEXT")
    if override:
        return override
    return "fork" if "fork" in mp.get_all_start_methods() else "spawn"


def share_graph(graph) -> tuple[SharedArrayPack, dict]:
    """Publish a :class:`BipartiteGraph`'s arrays; returns (pack, meta)."""
    arrays = {
        "q_indptr": graph.q_indptr,
        "q_indices": graph.q_indices,
        "d_indptr": graph.d_indptr,
        "d_indices": graph.d_indices,
    }
    meta = {
        "num_queries": graph.num_queries,
        "num_data": graph.num_data,
        "name": graph.name,
        "has_data_weights": graph.data_weights is not None,
        "has_query_weights": graph.query_weights is not None,
    }
    if graph.data_weights is not None:
        arrays["data_weights"] = np.asarray(graph.data_weights)
    if graph.query_weights is not None:
        arrays["query_weights"] = np.asarray(graph.query_weights)
    return SharedArrayPack.create(arrays), meta


def attach_graph(handle: tuple, meta: dict):
    """Rebuild a read-only :class:`BipartiteGraph` over shared arrays."""
    from ..hypergraph.bipartite import BipartiteGraph

    pack = SharedArrayPack.attach(handle)
    arrays = pack.arrays()
    graph = BipartiteGraph(
        num_queries=meta["num_queries"],
        num_data=meta["num_data"],
        q_indptr=arrays["q_indptr"],
        q_indices=arrays["q_indices"],
        d_indptr=arrays["d_indptr"],
        d_indices=arrays["d_indices"],
        data_weights=arrays.get("data_weights"),
        query_weights=arrays.get("query_weights"),
        name=meta["name"],
    )
    return graph, pack


# ----------------------------------------------------------------------
# Worker process
# ----------------------------------------------------------------------
def _worker_main(worker_id: int, conn, init: dict) -> None:
    """Entry point of one worker process: superstep loop over its partition."""
    graph_pack = None
    place_pack = None
    try:
        program = init["program"]
        vids = init["vids"]
        seed = init["seed"]
        num_workers = init["num_workers"]
        combiner = init["combiner"]

        place_pack = SharedArrayPack.attach(init["placement_handle"])
        worker_of = place_pack.arrays()["placement"]

        graph = None
        if init.get("graph_store") is not None:
            # Store-backed graph: map the file directly instead of a
            # shared-memory copy — co-located workers share page-cache
            # pages, and the init message carried only the path.
            from ..storage import open_store_view

            graph = open_store_view(init["graph_store"])
        elif init["graph_handle"] is not None:
            graph, graph_pack = attach_graph(init["graph_handle"], init["graph_meta"])

        # Struct-of-arrays partition built locally from the worker's column
        # slice + the shared (zero-copy) graph arrays.
        partition = program.create_partition(worker_id, vids, init["columns"], graph)

        while True:
            msg = conn.recv()
            kind = msg[0]
            if kind == "step":
                _, superstep, broadcasts, inbox_blobs = msg
                inbox: list = []
                for blob in inbox_blobs:
                    inbox.extend(pickle.loads(blob))
                result = execute_worker_superstep_batch(
                    worker_id,
                    vids,
                    partition,
                    program,
                    superstep,
                    broadcasts,
                    inbox,
                    seed,
                    worker_of,
                    num_workers,
                    combiner,
                )
                # Compact each outbound batch to the entry rows its
                # messages reference, then pickle once per hop — columns
                # travel as a few large buffers, never as per-message
                # tuples; the master routes the blobs without looking inside.
                blobs = {
                    dw: pickle.dumps(
                        [b.compact() for b in batches], protocol=_PICKLE_PROTO
                    )
                    for dw, batches in result.batches.items()
                }
                result.batches = {}
                conn.send(("ok", result, blobs))
            elif kind == "collect":
                conn.send(("states", program.collect_states(partition)))
            elif kind == "exit":
                break
    except EOFError:  # master went away; nothing to report to
        pass
    except BaseException as exc:  # ship the failure to the master
        tb = traceback.format_exc()
        try:
            conn.send(("error", exc, tb))
        except Exception:
            # The original exception does not survive pickling (custom
            # __init__ signature, unpicklable attributes, ...): fall back to
            # a summary that always does, so the master still sees the cause.
            try:
                conn.send(
                    ("error", RuntimeError(f"{type(exc).__name__}: {exc}"), tb)
                )
            except Exception:
                pass
    finally:
        if graph_pack is not None:
            graph_pack.close()
        if place_pack is not None:
            # Lookup views into the segment may still be referenced here;
            # close() tolerates that (BufferError) — the handle goes away
            # with the process either way, this keeps cleanup symmetric.
            place_pack.close()
        conn.close()


# ----------------------------------------------------------------------
# Backend
# ----------------------------------------------------------------------
class MultiprocessBackend(Backend):
    """One OS process per worker; shared-memory graph; barriered supersteps.

    Parameters
    ----------
    mp_context:
        ``"fork"`` (default where available — instant startup) or
        ``"spawn"`` (portable, true cold-start workers).  Overridable via
        the ``REPRO_MP_CONTEXT`` environment variable.
    step_timeout:
        Seconds to wait for a worker at each barrier before declaring the
        run dead (guards CI against hung workers).
    """

    name = "mp"

    def __init__(self, mp_context: str | None = None, step_timeout: float = 600.0):
        self.mp_context = mp_context or _default_context()
        self.step_timeout = step_timeout
        # Per-run state (managed by the _open/_finish/_close hooks; defaults
        # let _close run safely even when _open failed partway).
        self._engine = None
        self._num_workers = 0
        self._workers: list = []
        self._conns: list = []
        self._inboxes: list[list] = []
        # All shared segments (placement table, graph CSR) live in one
        # pool so teardown is a single idempotent close().
        self._pool = SharedArrayPool()

    # ------------------------------------------------------------------
    # Backend hooks (the shared superstep driver lives in Backend.run)
    # ------------------------------------------------------------------
    def _open(self, engine, program, combiner) -> None:
        num_workers = engine.cluster.num_workers
        ctx = mp.get_context(self.mp_context)
        self._engine = engine
        self._num_workers = num_workers
        placement_handle = self._pool.publish(
            "placement", {"placement": engine._worker_of}
        )

        graph_handle = None
        graph_meta = None
        graph_store = None
        if engine._graph is not None:
            store_path = getattr(engine._graph, "store_path", None)
            if store_path is not None:
                # Store-backed graph: workers mmap the file themselves; no
                # shared-memory copy, the init message ships only the path.
                graph_store = str(store_path)
            else:
                graph_pack, graph_meta = share_graph(engine._graph)
                self._pool.adopt("graph", graph_pack)
                graph_handle = graph_pack.handle

        self._workers = []
        self._conns = []
        self._inboxes: list[list] = [[] for _ in range(num_workers)]
        for worker_id in range(num_workers):
            parent_conn, child_conn = ctx.Pipe(duplex=True)
            init = {
                "program": program,
                "vids": engine._worker_vertices[worker_id],
                "columns": engine.worker_columns(worker_id),
                "seed": engine.seed,
                "num_workers": num_workers,
                "combiner": combiner,
                "placement_handle": placement_handle,
                "graph_handle": graph_handle,
                "graph_meta": graph_meta,
                "graph_store": graph_store,
            }
            proc = ctx.Process(
                target=_worker_main,
                args=(worker_id, child_conn, init),
                name=f"repro-worker-{worker_id}",
                daemon=True,
            )
            proc.start()
            child_conn.close()
            self._workers.append(proc)
            self._conns.append(parent_conn)

    def _execute_superstep(self, superstep: int, broadcasts: dict):
        for worker_id, conn in enumerate(self._conns):
            conn.send(("step", superstep, broadcasts, self._inboxes[worker_id]))
        replies = [
            self._recv(self._conns[w], self._workers[w], w)
            for w in range(self._num_workers)
        ]
        self._inboxes = [[] for _ in range(self._num_workers)]
        results = []
        for _, result, blobs in replies:
            results.append(result)
            for dst_worker, blob in blobs.items():
                self._inboxes[dst_worker].append(blob)
        return results

    def _finish(self) -> dict[str, np.ndarray]:
        for conn in self._conns:
            conn.send(("collect",))
        parts = []
        for worker_id, conn in enumerate(self._conns):
            _, collected = self._recv(conn, self._workers[worker_id], worker_id)
            parts.append(collected)
        for conn in self._conns:
            conn.send(("exit",))
        for proc in self._workers:
            proc.join(timeout=30)
        return self._engine.gather_columns(parts)

    def _close(self) -> None:
        for proc in self._workers:
            if proc.is_alive():  # pragma: no cover - error-path cleanup
                proc.terminate()
                proc.join(timeout=5)
        for conn in self._conns:
            conn.close()
        self._workers = []
        self._conns = []
        self._pool.close()
        self._engine = None

    # ------------------------------------------------------------------
    def _recv(self, conn, proc, worker_id: int):
        """Receive one barrier message, surfacing worker death or errors."""
        deadline = time.monotonic() + self.step_timeout
        while not conn.poll(0.05):
            if not proc.is_alive():
                raise RuntimeError(
                    f"worker {worker_id} exited unexpectedly "
                    f"(exitcode {proc.exitcode})"
                )
            if time.monotonic() > deadline:  # pragma: no cover - hang guard
                raise TimeoutError(
                    f"worker {worker_id} missed the superstep barrier "
                    f"({self.step_timeout:.0f}s)"
                )
        try:
            msg = conn.recv()
        except (EOFError, ConnectionResetError) as exc:
            raise RuntimeError(
                f"worker {worker_id} died at the superstep barrier "
                f"(exitcode {proc.exitcode}); if the start method is 'spawn', "
                "the driving script must be importable (run under "
                "`if __name__ == '__main__':` guards)"
            ) from exc
        except Exception as exc:  # payload did not survive unpickling
            raise RuntimeError(
                f"worker {worker_id} sent an undecodable message: {exc!r}"
            ) from exc
        if msg[0] == "error":
            _, exc, tb = msg
            raise exc from RuntimeError(f"worker {worker_id} failed:\n{tb}")
        return msg
