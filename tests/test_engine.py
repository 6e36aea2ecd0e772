"""Tests for the Giraph-like vertex-centric engine."""

from __future__ import annotations

import numpy as np
import pytest

from engine_programs import ColumnProgram, EchoProgram, FanInProgram, ring
from repro.distributed import (
    ClusterSpec,
    Combiner,
    CostModel,
    GiraphEngine,
    MessageBatch,
    MessageSchema,
    SumCombiner,
    counter_random,
    counter_random_array,
)


class CountingMaster:
    def __init__(self, stop_at):
        self.stop_at = stop_at
        self.calls = 0

    def compute(self, superstep, aggregates):
        self.calls += 1
        if superstep >= self.stop_at:
            return None
        return {"superstep": superstep}


def _echo(n, succ, workers, seed, supersteps, **kwargs):
    engine = GiraphEngine(ClusterSpec(num_workers=workers), seed=seed, **kwargs)
    engine.load(n)
    return engine.run(EchoProgram(succ), max_supersteps=supersteps)


class TestMessaging:
    def test_messages_delivered_next_superstep(self):
        result = _echo(3, [1, 2, 0], workers=2, seed=1, supersteps=2)
        # Each vertex heard exactly once, from its ring predecessor.
        assert result.states["count"].tolist() == [1, 1, 1]
        assert result.states["received"].tolist() == [2, 0, 1]
        # Nothing arrives within the superstep that sent it.
        first = _echo(3, [1, 2, 0], workers=2, seed=1, supersteps=1)
        assert first.states["count"].tolist() == [0, 0, 0]

    def test_local_vs_remote_metering(self):
        result = _echo(8, ring(8), workers=4, seed=3, supersteps=1)
        step = result.metrics.supersteps[0]
        assert step.messages_local + step.messages_remote == 8
        assert step.messages_remote > 0  # 4 workers: some edges cross

    def test_single_worker_all_local(self):
        result = _echo(5, ring(5), workers=1, seed=3, supersteps=1)
        step = result.metrics.supersteps[0]
        assert step.messages_remote == 0
        assert step.messages_local == 5

    def test_deterministic_given_seed(self):
        succ = (np.arange(10) * 3 + 1) % 10

        def run_once():
            result = _echo(10, succ, workers=3, seed=5, supersteps=2)
            return result.states["received"].tolist(), result.states["count"].tolist()

        assert run_once() == run_once()


class AggProgram(ColumnProgram):
    phase = "agg"

    def compute_partition(self, ctx, part, inbox):
        ctx.aggregate_items("total", {"sum": float(part["vids"].sum())})


class BroadcastReader(ColumnProgram):
    """Records the ``value`` broadcast of every superstep in ``seen``."""

    phase = "read"

    def create_partition(self, worker_id, vids, columns, graph):
        part = super().create_partition(worker_id, vids, columns, graph)
        part["seen"] = np.zeros((len(vids), 0), dtype=np.int64)
        return part

    def compute_partition(self, ctx, part, inbox):
        value = np.full((part["vids"].size, 1), ctx.broadcasts.get("value"))
        part["seen"] = np.hstack((part["seen"], value))


class TestMaster:
    def test_master_halts_engine(self):
        engine = GiraphEngine(ClusterSpec(num_workers=1), seed=0)
        engine.load(1)
        master = CountingMaster(stop_at=3)
        result = engine.run(EchoProgram([-1]), master=master, max_supersteps=100)
        assert result.halted_by_master
        assert result.supersteps_run == 3

    def test_aggregates_reach_master(self):
        class Recorder:
            def __init__(self):
                self.seen = []

            def compute(self, superstep, aggregates):
                self.seen.append(dict(aggregates.get("total", {})))
                if superstep >= 2:
                    return None
                return {}

        engine = GiraphEngine(ClusterSpec(num_workers=2), seed=0)
        engine.load(4)
        recorder = Recorder()
        engine.run(AggProgram(), master=recorder, max_supersteps=10)
        # Aggregates from superstep 0 are visible at superstep 1's master call.
        assert recorder.seen[1] == {"sum": 6.0}

    def test_broadcasts_reach_vertices(self):
        class Broadcaster:
            def compute(self, superstep, aggregates):
                if superstep >= 2:
                    return None
                return {"value": superstep * 10}

        engine = GiraphEngine(ClusterSpec(num_workers=1), seed=0)
        engine.load(1)
        result = engine.run(BroadcastReader(), master=Broadcaster(), max_supersteps=10)
        assert result.states["seen"][0].tolist() == [0, 10]


class TestCombiner:
    def test_sum_combiner_reduces_messages(self):
        def run(combiner):
            engine = GiraphEngine(ClusterSpec(num_workers=2), seed=1)
            engine.load(9)
            return engine.run(FanInProgram(), max_supersteps=2, combiner=combiner)

        plain = run(None)
        combined = run(SumCombiner())
        assert plain.states["total"][0] == combined.states["total"][0] == 8.0
        assert (
            combined.metrics.supersteps[0].total_messages
            < plain.metrics.supersteps[0].total_messages
        )


class TestAccounting:
    def test_memory_tracked(self):
        engine = GiraphEngine(ClusterSpec(num_workers=2), seed=1)
        engine.load(4, {"blob": np.zeros((4, 100))})
        result = engine.run(EchoProgram([-1] * 4), max_supersteps=1)
        assert result.metrics.peak_worker_memory() >= 800  # at least one blob

    def test_modeled_time_positive(self):
        result = _echo(6, ring(6), workers=2, seed=1, supersteps=2)
        assert result.metrics.modeled_seconds(CostModel()) > 0
        assert result.metrics.modeled_total_machine_seconds(CostModel()) == (
            pytest.approx(2 * result.metrics.modeled_seconds(CostModel()))
        )

    def test_phase_grouping(self):
        result = _echo(1, [-1], workers=1, seed=1, supersteps=3)
        assert set(result.metrics.by_phase()) == {"step0", "step1", "step2"}


class TestActiveVertices:
    """active_vertices sums what every worker's kernel reports active —
    at superstep 0 every sender, later every receiver."""

    def test_superstep0_senders_are_active(self):
        result = _echo(6, ring(6), workers=2, seed=1, supersteps=2)
        assert result.metrics.supersteps[0].active_vertices == 6
        assert result.metrics.supersteps[1].active_vertices == 6  # receivers

    def test_aggregating_without_messages_is_active(self):
        class AggOnly(ColumnProgram):
            phase = "agg"

            def compute_partition(self, ctx, part, inbox):
                ctx.aggregate_items("seen", {"count": float(part["vids"].size)})
                ctx.add_active(part["vids"].size)

        engine = GiraphEngine(ClusterSpec(num_workers=2), seed=0)
        engine.load(5)
        result = engine.run(AggOnly(), max_supersteps=1)
        assert result.metrics.supersteps[0].active_vertices == 5

    def test_idle_vertices_are_inactive(self):
        engine = GiraphEngine(ClusterSpec(num_workers=2), seed=0)
        engine.load(5)
        result = engine.run(ColumnProgram(), max_supersteps=1)
        assert result.metrics.supersteps[0].active_vertices == 0


class TestCounterRandomArray:
    def test_matches_scalar_bitwise(self):
        vids = np.array([0, 1, 7, 123456, 2**31, 999_999_999])
        for superstep in (0, 3, 17):
            for draw in (0, 1, 5):
                vector = counter_random_array(42, superstep, vids, draw)
                scalar = [counter_random(42, superstep, int(v), draw) for v in vids]
                assert vector.tolist() == scalar

    def test_uniform_range(self):
        draws = counter_random_array(7, 2, np.arange(1000))
        assert draws.min() >= 0.0 and draws.max() < 1.0
        assert 0.4 < draws.mean() < 0.6


PAIR_SCHEMA = MessageSchema("pair", (("a", "<i4"), ("b", "<f8")))
RAGGED_SCHEMA = MessageSchema(
    "ragged", (("id", "<i8"),), entry_fields=(("val", "<i4"),)
)


class TestMessageBatch:
    def test_fixed_schema_sizes(self):
        batch = MessageBatch(
            PAIR_SCHEMA,
            np.array([3, 5, 5]),
            {"a": np.array([1, 2, 3], dtype=np.int32), "b": np.zeros(3)},
        )
        assert len(batch) == 3
        assert batch.per_message_nbytes().tolist() == [12.0, 12.0, 12.0]
        assert batch.nbytes == 36

    def test_variable_entries_meter_by_dtype(self):
        batch = MessageBatch(
            RAGGED_SCHEMA,
            np.array([0, 1]),
            {"id": np.array([10, 11])},
            entry_start=np.array([0, 2]),
            entry_len=np.array([2, 3]),
            entries={"val": np.arange(5, dtype=np.int32)},
        )
        # 8-byte header + 4 bytes per entry.
        assert batch.per_message_nbytes().tolist() == [16.0, 20.0]
        positions, lengths = batch.entry_positions(np.array([1, 0]))
        assert positions.tolist() == [2, 3, 4, 0, 1]
        assert lengths.tolist() == [3, 2]

    def test_schema_measure_matches_batch(self):
        from repro.distributed_shp import NDATA_SCHEMA

        batch = MessageBatch(
            NDATA_SCHEMA,
            np.array([0]),
            {"query": np.array([4]), "weight": np.array([1.0])},
            entry_start=np.array([0]),
            entry_len=np.array([2]),
            entries={
                "bucket": np.array([0, 2], dtype=np.int32),
                "count": np.array([1, 3], dtype=np.int32),
            },
        )
        schema_bytes = NDATA_SCHEMA.fixed_nbytes + 2 * NDATA_SCHEMA.entry_nbytes
        assert schema_bytes == batch.nbytes == 16 + 2 * 8

    def test_split_routes_rows_and_shares_pool(self):
        batch = MessageBatch(
            RAGGED_SCHEMA,
            np.array([0, 1, 2, 3]),
            {"id": np.arange(4)},
            entry_start=np.array([0, 0, 2, 2]),
            entry_len=np.array([2, 2, 1, 1]),
            entries={"val": np.arange(3, dtype=np.int32)},
        )
        groups = np.array([1, 0, 1, 0])
        parts = batch.split(groups, 2)
        assert sorted(parts) == [0, 1]
        assert parts[0].dst.tolist() == [1, 3]
        assert parts[1].dst.tolist() == [0, 2]
        assert parts[0].entries["val"] is batch.entries["val"]  # shared pool

    def test_misaligned_entry_arrays_rejected(self):
        with pytest.raises(ValueError, match="entry_len"):
            MessageBatch(
                RAGGED_SCHEMA,
                np.array([0, 1]),
                {"id": np.array([1, 2])},
                entry_start=np.array([0, 1]),
                entry_len=np.array([1]),
                entries={"val": np.arange(2, dtype=np.int32)},
            )

    def test_combiner_resolution_one_code_path(self):
        """resolve_combiner accepts None or a Combiner; a Combiner must
        implement combine_batch; anything else is a TypeError."""
        from repro.distributed.backend import resolve_combiner
        from repro.distributed_shp import ShpDeltaCombiner

        for ok in (SumCombiner(), ShpDeltaCombiner()):
            assert resolve_combiner(ok) is ok
        assert resolve_combiner(None) is None

        class NoBatch(Combiner):
            pass

        with pytest.raises(TypeError, match="combine_batch"):
            NoBatch()
        with pytest.raises(TypeError, match="Combiner"):
            resolve_combiner(object())

    def test_compact_deduplicates_shared_rows(self):
        pool = np.arange(10, dtype=np.int32)
        batch = MessageBatch(
            RAGGED_SCHEMA,
            np.array([0, 1, 2]),
            {"id": np.arange(3)},
            entry_start=np.array([4, 4, 8]),
            entry_len=np.array([3, 3, 2]),
            entries={"val": pool},
        )
        compacted = batch.compact()
        assert compacted.entries["val"].tolist() == [4, 5, 6, 8, 9]
        # Logical content identical message by message.
        for i in range(3):
            pos_a, _ = batch.entry_positions(np.array([i]))
            pos_b, _ = compacted.entry_positions(np.array([i]))
            assert batch.entries["val"][pos_a].tolist() == (
                compacted.entries["val"][pos_b].tolist()
            )
        assert np.array_equal(
            batch.per_message_nbytes(), compacted.per_message_nbytes()
        )
