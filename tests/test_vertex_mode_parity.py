"""Distributed SHP parity against golden oracles, on every backend.

``tests/golden/distributed_shp.json`` holds one cell per (graph, config,
mode, workers, combiner) of the parity grids, recorded from the per-vertex
dict vertex program before it was retired: assignment SHA-256, superstep
and cycle counts, moved history and every logical meter per superstep.
The columnar engine must reproduce each cell bitwise on sim, mp and rpc —
including after an rpc peer is killed mid-run and its logical workers are
adopted from checkpoints.

The grids:

* {mode "2", mode "k"} × {unweighted, query-weighted} at 3 workers;
* combiner {off, on} on the unweighted graph — assignments equal either
  way (combining is semantically transparent), combined remote traffic
  strictly smaller;
* the sparse-S3 cells (``2``/8 and ``k``/16) of
  ``tests/test_parallel_refine.py``.
"""

from __future__ import annotations

import pytest

from golden.record_goldens import assert_dshp_cell, load_goldens, run_dshp
from repro.distributed import RpcBackend

GOLDENS = load_goldens("distributed_shp.json")


def assert_matches_golden(name: str, backend: str, **rpc_kwargs) -> None:
    """Run golden cell ``name`` on ``backend`` and compare every field."""
    if backend == "rpc":
        backend = RpcBackend(step_timeout=60.0, **rpc_kwargs)
    assert_dshp_cell(GOLDENS[name], backend, label=name)


#: Backends every cell runs on.  The ids keep naming the vertex layout the
#: cell runs on, as when dict and columnar were two axes of the grid.
BACKENDS = [pytest.param(b, id=f"columnar-{b}") for b in ("sim", "mp", "rpc")]


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("mode", ["2", "k"])
@pytest.mark.parametrize("weighting", ["unweighted", "query-weighted"])
class TestVertexModeParity:
    def test_cell_matches_reference(self, backend, mode, weighting):
        assert_matches_golden(f"grid-{mode}-{weighting}", backend)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("combiner", [False, True])
class TestCombinerBackendParity:
    def test_cell_matches_reference(self, backend, combiner):
        assert_matches_golden(f"combiner-{'on' if combiner else 'off'}", backend)


@pytest.mark.parametrize("backend", ["sim", "mp", "rpc"])
@pytest.mark.parametrize("cell", ["sparse-s3-2-8", "sparse-s3-k-16"])
def test_cell_matches_golden(cell, backend):
    assert_matches_golden(cell, backend)


@pytest.mark.parametrize("cell", ["grid-2-unweighted", "grid-k-query-weighted"])
def test_rpc_adopt_after_chaos_kill_matches_golden(cell):
    """Kill peer 1 right before superstep 6: its logical workers are
    re-homed from checkpoints and the superstep retried — same cell."""
    assert_matches_golden(cell, "rpc", chaos_kill=(6, 1))


def test_combiner_is_transparent_and_saves_bytes():
    """Same assignment with and without combining, strictly fewer bytes."""
    off = GOLDENS["combiner-off"]
    on = GOLDENS["combiner-on"]
    assert on["assignment_sha256"] == off["assignment_sha256"]
    assert on["supersteps"] == off["supersteps"]

    def total(cell, key):
        return sum(step[key] for step in cell["steps"])

    messages = {
        name: total(cell, "messages_local") + total(cell, "messages_remote")
        for name, cell in (("on", on), ("off", off))
    }
    assert messages["on"] < messages["off"]
    assert total(on, "bytes_remote") < total(off, "bytes_remote")
    # The live engine agrees with the recorded totals.
    run = run_dshp(on)
    assert run.metrics.total_messages == messages["on"]
    assert sum(s.bytes_remote for s in run.metrics.supersteps) == total(on, "bytes_remote")
