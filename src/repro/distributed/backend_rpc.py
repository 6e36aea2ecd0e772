"""TCP/RPC backend: master-coordinated supersteps over framed sockets.

The layout follows the paper's actual deployment shape — one master
coordinating dumb workers over the network — and mirrors the multiprocess
backend's split of responsibilities:

* The **master** (calling process) runs the master program, routes message
  blobs between workers, reduces aggregators, assembles metrics, and now
  also owns *fault handling*: per-worker state checkpoints, worker-death
  detection, and superstep retry against the surviving worker set.
* Each **worker peer** is a process reachable over TCP — auto-spawned on
  localhost (tests/CI, ``hosts=None``) or started externally with
  ``repro rpc-worker`` on real machines (``hosts=["host:port", ...]``).
  A peer serves one or more *logical workers*: logical worker ``w`` of a
  ``num_workers``-cluster lives on peer ``w % len(peers)``.
* Transport is the framed-pickle protocol of
  :mod:`repro.distributed.wire`: length-prefixed frames carrying pickled
  column batches, with per-superstep accounting of real bytes-on-wire and
  barrier round-trip time (``SuperstepMetrics.wire_bytes`` /
  ``round_trip_seconds``).

Workers execute the very same :func:`~repro.distributed.backend.
execute_worker_superstep_batch` function as every other backend, keyed by
*logical* worker id — so for a given seed the
assignments and all logical meters are bitwise-identical to ``sim``/``mp``
regardless of how logical workers map onto peers, before or after a
failover.

Fault tolerance
---------------
Every step reply carries a pickled checkpoint of each logical worker's
post-superstep state (vids, program instance, columnar partition).
The master retains the latest committed checkpoint per logical worker plus
the current superstep's inbound blobs; when a peer dies mid-superstep
(connection failure or barrier timeout) its logical workers are *adopted*
by surviving peers — checkpoint restored, the same superstep re-dispatched
with the retained inboxes — and the run continues with identical results.
The run fails only when every peer is gone.  See
``docs/running-distributed.md`` for the operational walk-through.
"""

from __future__ import annotations

import multiprocessing as mp
import pickle
import socket
import time
import traceback

import numpy as np

from .backend import Backend, execute_worker_superstep_batch
from .backend_mp import _default_context
from .wire import WireError, recv_obj, send_obj

__all__ = ["RpcBackend", "serve_worker"]

_PICKLE_PROTO = pickle.HIGHEST_PROTOCOL


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
class _LogicalWorker:
    """One logical worker's state living inside a peer process."""

    __slots__ = ("vids", "program", "partition")

    def __init__(self, vids, program, partition):
        self.vids = vids
        self.program = program
        self.partition = partition

    def checkpoint(self) -> bytes:
        """Post-superstep snapshot the master can re-home onto any peer."""
        return _checkpoint(self.vids, self.program, self.partition, None)


def _checkpoint(vids, program, partition, columns) -> bytes:
    """Pickle a logical worker: its built ``partition`` or, before the
    first barrier, the initial ``columns`` to build it from."""
    return pickle.dumps((vids, program, partition, columns), protocol=_PICKLE_PROTO)


class _WorkerHost:
    """Per-connection worker runtime: owns the peer's logical workers."""

    def __init__(self):
        self.seed = 0
        self.num_workers = 0
        self.combiner = None
        self.graph = None
        self.worker_of = None
        self.workers: dict[int, _LogicalWorker] = {}

    # ------------------------------------------------------------------
    def init(self, init: dict) -> None:
        self.seed = init["seed"]
        self.num_workers = init["num_workers"]
        self.combiner = init["combiner"]
        self.graph = init["graph"]
        self.worker_of = init["placement"]
        self.workers = {}
        for wid, (vids, columns) in init["workers"].items():
            # One program instance per *logical* worker (not per peer): any
            # worker-local program state stays keyed to the logical worker,
            # exactly as under the one-process-per-worker mp backend.
            program = pickle.loads(init["program_bytes"])
            self.workers[wid] = self._build(wid, vids, program, None, columns)

    def _build(self, wid, vids, program, partition, columns) -> _LogicalWorker:
        if partition is None:
            partition = program.create_partition(wid, vids, columns, self.graph)
        return _LogicalWorker(vids, program, partition)

    def adopt(self, wid: int, checkpoint: bytes) -> None:
        """Restore an orphaned logical worker from a master checkpoint."""
        self.workers[wid] = self._build(wid, *pickle.loads(checkpoint))

    # ------------------------------------------------------------------
    def step(self, superstep: int, broadcasts: dict, inboxes: dict) -> dict:
        """Run one superstep for the requested logical workers."""
        out = {}
        for wid in sorted(inboxes):
            worker = self.workers[wid]
            inbox: list = []
            for blob in inboxes[wid]:
                inbox.extend(pickle.loads(blob))
            result = execute_worker_superstep_batch(
                wid,
                worker.vids,
                worker.partition,
                worker.program,
                superstep,
                broadcasts,
                inbox,
                self.seed,
                self.worker_of,
                self.num_workers,
                self.combiner,
            )
            blobs_out = {
                dw: pickle.dumps(
                    [b.compact() for b in batches], protocol=_PICKLE_PROTO
                )
                for dw, batches in result.batches.items()
            }
            result.batches = {}
            out[wid] = (result, blobs_out, worker.checkpoint())
        return out


def _serve_connection(sock: socket.socket) -> None:
    """Serve one master connection until it sends ``exit`` or hangs up."""
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    host = _WorkerHost()
    while True:
        try:
            msg, _ = recv_obj(sock)  # reprolint: disable=REP009 -- worker side: the master meters each request when it sends it
        except WireError:
            return  # master went away; nothing to report to
        kind = msg[0]
        try:
            if kind == "init":
                host.init(msg[1])
                send_obj(sock, ("ready",))  # reprolint: disable=REP009 -- worker side: the master meters this reply on receipt
            elif kind == "adopt":
                host.adopt(msg[1], msg[2])
                send_obj(sock, ("adopted", msg[1]))  # reprolint: disable=REP009 -- worker side: the master meters this reply on receipt
            elif kind == "step":
                _, superstep, broadcasts, inboxes = msg
                send_obj(sock, ("ok", host.step(superstep, broadcasts, inboxes)))  # reprolint: disable=REP009 -- worker side: the master meters this reply on receipt
            elif kind == "exit":
                return
            else:
                send_obj(sock, ("error", f"unknown message kind {kind!r}", ""))  # reprolint: disable=REP009 -- worker side: the master meters this reply on receipt
        except WireError:
            return
        except BaseException as exc:  # ship the failure to the master
            tb = traceback.format_exc()
            try:
                send_obj(sock, ("error", f"{type(exc).__name__}: {exc}", tb))  # reprolint: disable=REP009 -- worker side: the master meters this reply on receipt
            except Exception:
                return


def serve_worker(
    host: str = "127.0.0.1",
    port: int = 0,
    *,
    serve_forever: bool = False,
    ready=None,
) -> None:
    """Run an RPC worker server (the ``repro rpc-worker`` entry point).

    Binds ``host:port`` (``port=0`` picks a free port), then accepts master
    connections and serves each until the master's ``exit``.
    ``serve_forever=True`` keeps accepting after a master disconnects, so
    one long-lived worker process can serve many sequential jobs; the
    default serves exactly one connection (what the auto-spawned localhost
    workers use).  ``ready(actual_port)`` is called once listening — the
    hook the backend uses to learn auto-assigned ports.
    """
    srv = socket.create_server((host, port))
    try:
        if ready is not None:
            ready(srv.getsockname()[1])
        while True:
            sock, _ = srv.accept()
            try:
                _serve_connection(sock)
            finally:
                try:
                    sock.close()
                except OSError:  # pragma: no cover - teardown race
                    pass
            if not serve_forever:
                return
    finally:
        srv.close()


def _spawned_worker_main(conn) -> None:
    """Entry point of an auto-spawned localhost worker process."""

    def ready(port: int) -> None:
        conn.send(port)
        conn.close()

    serve_worker("127.0.0.1", 0, ready=ready)


# ----------------------------------------------------------------------
# Master side
# ----------------------------------------------------------------------
class _Peer:
    """One TCP connection to a worker process (possibly auto-spawned)."""

    __slots__ = ("sock", "proc", "alive", "label")

    def __init__(self, sock, proc, label):
        self.sock = sock
        self.proc = proc
        self.alive = True
        self.label = label


class RpcBackend(Backend):
    """Superstep execution on worker processes reachable over TCP.

    Parameters
    ----------
    hosts:
        ``["host:port", ...]`` of externally launched ``repro rpc-worker``
        processes.  ``None`` (default) auto-spawns one localhost worker
        process per cluster worker — zero-configuration for tests and CI.
    connect_timeout:
        Seconds allowed for each TCP connect (and spawned-worker startup).
    step_timeout:
        Seconds to wait for a peer at each superstep barrier before
        declaring it dead and retrying its logical workers elsewhere.
    mp_context:
        Multiprocessing start method for auto-spawned workers (default:
        ``fork`` where available, overridable via ``REPRO_MP_CONTEXT``).
    chaos_kill:
        Optional ``(superstep, peer_index)`` fault-injection hook: right
        before dispatching that superstep the backend kills that peer,
        exercising the adopt-and-retry path deterministically (used by the
        failover tests; harmless in production).
    """

    name = "rpc"

    def __init__(
        self,
        hosts: list[str] | None = None,
        connect_timeout: float = 10.0,
        step_timeout: float = 600.0,
        mp_context: str | None = None,
        chaos_kill: tuple[int, int] | None = None,
    ):
        self.hosts = list(hosts) if hosts else None
        self.connect_timeout = float(connect_timeout)
        self.step_timeout = float(step_timeout)
        self.mp_context = mp_context or _default_context()
        self.chaos_kill = chaos_kill
        # Per-run state (reset by _open/_close).
        self._engine = None
        self._num_workers = 0
        self._peers: list[_Peer] = []
        self._wid_peer: list[int] = []
        self._inboxes: list[list[bytes]] = []
        self._checkpoints: list[bytes] = []
        self._last_wire_bytes = 0
        self._last_rtt = 0.0
        #: bytes moved during the init handshake (graph + program shipping);
        #: not part of any superstep's meter but still real traffic.
        self._setup_wire_bytes = 0

    # ------------------------------------------------------------------
    # Backend hooks
    # ------------------------------------------------------------------
    def _open(self, engine, program, combiner) -> None:
        num_workers = engine.cluster.num_workers
        self._engine = engine
        self._num_workers = num_workers

        self._connect_peers(num_workers)
        num_peers = len(self._peers)
        self._wid_peer = [wid % num_peers for wid in range(num_workers)]
        self._inboxes = [[] for _ in range(num_workers)]

        program_bytes = pickle.dumps(program, protocol=_PICKLE_PROTO)
        partitions = {
            wid: (engine._worker_vertices[wid], engine.worker_columns(wid))
            for wid in range(num_workers)
        }
        # The initial checkpoints let any peer adopt a logical worker that
        # dies before its first barrier: initial columns, fresh program,
        # partition built by the adopter.
        self._checkpoints = [
            _checkpoint(vids, program, None, columns)
            for vids, columns in partitions.values()
        ]

        for peer_idx, peer in enumerate(self._peers):
            init = {
                "program_bytes": program_bytes,
                "seed": engine.seed,
                "num_workers": num_workers,
                "combiner": combiner,
                "graph": engine._graph,
                "placement": engine._worker_of,
                "workers": {
                    wid: partitions[wid]
                    for wid in range(num_workers)
                    if self._wid_peer[wid] == peer_idx
                },
            }
            self._setup_wire_bytes += send_obj(peer.sock, ("init", init))
        for peer in self._peers:
            reply, nbytes = recv_obj(peer.sock)
            self._setup_wire_bytes += nbytes
            if reply[0] != "ready":
                raise RuntimeError(f"worker {peer.label} failed to init: {reply!r}")

    def _connect_peers(self, num_workers: int) -> None:
        self._peers = []
        if self.hosts is not None:
            for spec in self.hosts:
                host, _, port = spec.rpartition(":")
                if not host:
                    raise ValueError(
                        f"execution host {spec!r} is not of the form 'host:port'"
                    )
                self._peers.append(
                    _Peer(self._connect(host, int(port)), None, spec)
                )
            return
        # Auto-spawn one localhost worker process per cluster worker.
        ctx = mp.get_context(self.mp_context)
        pending = []
        for i in range(num_workers):
            parent_conn, child_conn = ctx.Pipe(duplex=False)
            proc = ctx.Process(
                target=_spawned_worker_main,
                args=(child_conn,),
                name=f"repro-rpc-worker-{i}",
                daemon=True,
            )
            proc.start()
            child_conn.close()
            pending.append((proc, parent_conn))
        for i, (proc, parent_conn) in enumerate(pending):
            if not parent_conn.poll(self.connect_timeout):
                raise TimeoutError(f"spawned rpc worker {i} never reported its port")
            port = parent_conn.recv()
            parent_conn.close()
            self._peers.append(
                _Peer(self._connect("127.0.0.1", port), proc, f"localhost:{port}")
            )

    def _connect(self, host: str, port: int) -> socket.socket:
        try:
            sock = socket.create_connection((host, port), timeout=self.connect_timeout)
        except OSError as exc:
            raise ConnectionError(
                f"cannot reach rpc worker at {host}:{port} "
                f"(is `repro rpc-worker` running there?): {exc}"
            ) from exc
        sock.settimeout(self.step_timeout)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return sock

    # ------------------------------------------------------------------
    def _execute_superstep(self, superstep: int, broadcasts: dict):
        if self.chaos_kill is not None and self.chaos_kill[0] == superstep:
            self._kill_peer(self.chaos_kill[1])
            self.chaos_kill = None
        start = time.perf_counter()
        wire = 0
        pending = set(range(self._num_workers))
        results: dict[int, object] = {}
        new_checkpoints = list(self._checkpoints)
        new_inboxes: list[list[bytes]] = [[] for _ in range(self._num_workers)]

        while pending:
            by_peer: dict[int, list[int]] = {}
            for wid in sorted(pending):
                by_peer.setdefault(self._wid_peer[wid], []).append(wid)
            dispatched = []
            for peer_idx, wids in by_peer.items():
                peer = self._peers[peer_idx]
                payload = (
                    "step",
                    superstep,
                    broadcasts,
                    {wid: self._inboxes[wid] for wid in wids},
                )
                try:
                    wire += send_obj(peer.sock, payload)  # reprolint: disable=REP002 -- integer wire-byte meter: int sums are order-exact
                except (WireError, OSError):
                    self._mark_dead(peer_idx)
                    continue
                dispatched.append(peer_idx)
            for peer_idx in dispatched:
                peer = self._peers[peer_idx]
                try:
                    reply, nbytes = recv_obj(peer.sock)
                except (WireError, OSError):
                    self._mark_dead(peer_idx)
                    continue
                wire += nbytes
                if reply[0] == "error":
                    raise RuntimeError(
                        f"rpc worker {peer.label} failed in superstep "
                        f"{superstep}: {reply[1]}\n{reply[2]}"
                    )
                for wid, (result, blobs, ckpt) in reply[1].items():
                    results[wid] = (result, blobs)
                    new_checkpoints[wid] = ckpt
                    pending.discard(wid)
            if pending:
                wire += self._reassign(sorted(pending))
        # Commit: route outbound blobs in ascending logical-worker order
        # (the delivery order every backend uses) and replace checkpoints
        # only now that the whole barrier completed.
        ordered = []
        for wid in range(self._num_workers):
            result, blobs = results[wid]
            ordered.append(result)
            for dst_wid, blob in blobs.items():
                new_inboxes[dst_wid].append(blob)
        self._inboxes = new_inboxes
        self._checkpoints = new_checkpoints
        self._last_wire_bytes = wire
        self._last_rtt = time.perf_counter() - start
        return ordered

    def _reassign(self, orphans: list[int]) -> int:
        """Adopt orphaned logical workers onto surviving peers."""
        wire = 0
        survivors = [i for i, peer in enumerate(self._peers) if peer.alive]
        if not survivors:
            raise RuntimeError(
                "all rpc workers are gone; cannot retry the superstep"
            )
        for j, wid in enumerate(orphans):
            peer_idx = survivors[j % len(survivors)]
            peer = self._peers[peer_idx]
            try:
                wire += send_obj(
                    peer.sock, ("adopt", wid, self._checkpoints[wid])
                )
                reply, nbytes = recv_obj(peer.sock)
                wire += nbytes
            except (WireError, OSError):
                self._mark_dead(peer_idx)
                # The orphan stays pending; the outer loop reassigns it.
                continue
            if reply[0] == "error":
                raise RuntimeError(
                    f"rpc worker {peer.label} failed to adopt logical "
                    f"worker {wid}: {reply[1]}\n{reply[2]}"
                )
            self._wid_peer[wid] = peer_idx
        return wire

    def _mark_dead(self, peer_idx: int) -> None:
        peer = self._peers[peer_idx]
        if not peer.alive:
            return
        peer.alive = False
        try:
            peer.sock.close()
        except OSError:  # pragma: no cover - teardown race
            pass

    def _kill_peer(self, peer_idx: int) -> None:
        """Chaos hook: hard-kill one peer (process if spawned, else socket)."""
        peer = self._peers[peer_idx]
        if peer.proc is not None and peer.proc.is_alive():
            peer.proc.terminate()
            peer.proc.join(timeout=10)
        else:  # external worker: sever the connection instead
            self._mark_dead(peer_idx)

    # ------------------------------------------------------------------
    def _finish(self) -> dict[str, np.ndarray]:
        # Final columns come from the committed checkpoints: the master
        # already holds every logical worker's post-superstep snapshot, so
        # collection needs no further round-trips and survives any peer
        # dying after its last barrier.
        parts = []
        for wid in range(self._num_workers):
            vids, program, partition, columns = pickle.loads(self._checkpoints[wid])
            if partition is None:  # no superstep ran
                partition = program.create_partition(
                    wid, vids, columns, self._engine._graph
                )
            parts.append(program.collect_states(partition))
        return self._engine.gather_columns(parts)

    def _annotate_step(self, step) -> None:
        step.wire_bytes = self._last_wire_bytes
        step.round_trip_seconds = self._last_rtt

    def _close(self) -> None:
        for peer in self._peers:
            if peer.alive:
                try:
                    send_obj(peer.sock, ("exit",))  # reprolint: disable=REP009 -- fire-and-forget teardown; the run's meters are already finalized
                except (WireError, OSError):  # pragma: no cover - racing death
                    pass
                try:
                    peer.sock.close()
                except OSError:  # pragma: no cover - teardown race
                    pass
        for peer in self._peers:
            if peer.proc is not None:
                peer.proc.join(timeout=10)
                if peer.proc.is_alive():  # pragma: no cover - hung worker
                    peer.proc.terminate()
                    peer.proc.join(timeout=5)
        self._peers = []
        self._wid_peer = []
        self._inboxes = []
        self._checkpoints = []
        self._engine = None
        self._last_wire_bytes = 0
        self._last_rtt = 0.0
