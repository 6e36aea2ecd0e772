"""Contract tests for the vertex-centric engine's lesser-used paths."""

from __future__ import annotations

import numpy as np
import pytest

from engine_programs import SendTo, StepCounter
from repro.distributed import ClusterSpec, GiraphEngine, UnknownVertexError


class TestEngineContracts:
    def test_runs_with_no_master_until_budget(self):
        engine = GiraphEngine(ClusterSpec(num_workers=2), seed=0)
        engine.load(2)
        result = engine.run(StepCounter(), max_supersteps=5)
        assert result.supersteps_run == 5
        assert not result.halted_by_master
        assert result.states["steps"][0] == 5

    def test_reload_resets_state(self):
        engine = GiraphEngine(ClusterSpec(num_workers=2), seed=0)
        engine.load(1)
        engine.run(StepCounter(), max_supersteps=2)
        engine.load(2)
        result = engine.run(StepCounter(), max_supersteps=1)
        assert result.states["steps"].tolist() == [1, 1]

    def test_message_to_unknown_vertex_fails_loudly(self):
        # Both ends on both backends: a negative id must not wrap to the
        # last vertices, and the error must cross the worker pipe intact.
        for backend in ("sim", "mp"):
            for dst in (-1, 2):
                engine = GiraphEngine(ClusterSpec(num_workers=2), seed=0, backend=backend)
                engine.load(2)
                with pytest.raises(UnknownVertexError, match=f"vertex {dst},"):
                    engine.run(SendTo(dst), max_supersteps=1)

    def test_placement_covers_all_workers_eventually(self):
        engine = GiraphEngine(ClusterSpec(num_workers=4), seed=3)
        engine.load(200)
        assert set(engine._worker_of.tolist()) == {0, 1, 2, 3}

    def test_placement_deterministic_per_seed(self):
        def placement(seed):
            engine = GiraphEngine(ClusterSpec(num_workers=4), seed=seed)
            engine.load(50)
            return engine._worker_of.tolist()

        assert placement(7) == placement(7)
        assert placement(7) != placement(8)
        # The placement draw is one integers() call over ids 0..n-1.
        expected = np.random.default_rng(7).integers(0, 4, size=50)
        assert placement(7) == expected.tolist()

    def test_zero_max_supersteps(self):
        engine = GiraphEngine(ClusterSpec(num_workers=1), seed=0)
        engine.load(1)
        result = engine.run(StepCounter(), max_supersteps=0)
        assert result.supersteps_run == 0
        assert result.metrics.num_supersteps == 0
        assert result.states["steps"].tolist() == [0]

    def test_columns_must_cover_every_vertex(self):
        engine = GiraphEngine(ClusterSpec(num_workers=1), seed=0)
        with pytest.raises(ValueError, match="one per vertex"):
            engine.load(3, {"bucket": np.zeros(2)})
