"""Golden parity and unit tests for the level-fused SHP-2 engine.

The fused engine must be *semantically* the same algorithm as the per-group
reference path it replaced (one ``induced_subgraph`` copy and one
refinement loop per group): identical initial states per seed, identical
capacity and convergence rules, identical gain values (up to float
association).  ``tests/golden/shp2_levels.json`` holds what that reference
path computed.  The matcher RNG stream is per-level instead of per-group,
so assignments reproduce the golden SHA-256 bitwise whenever a level has at
most one refinable group (k ≤ 3) and its fanout statistically otherwise —
which is what the parity grid pins.
"""

from __future__ import annotations

import numpy as np
import pytest

from golden.record_goldens import (
    PARITY_KS,
    PARITY_SEEDS,
    load_goldens,
    random_bipartite,
    run_shp2,
    sha256,
)
from repro import SHPConfig, shp_2
from repro.api import AlgorithmSpec, SpecError
from repro.core import LevelGroup, refine_level_fused, sibling_move_gains
from repro.core.gains import move_gains_dense
from repro.hypergraph import BipartiteGraph
from repro.objectives import (
    PFanoutObjective,
    ScaledPFanout,
    average_fanout,
    grouped_bucket_counts,
    update_bucket_counts,
)

GOLDENS = load_goldens("shp2_levels.json")


def random_labels(rng: np.random.Generator, num_data: int, num_labels: int) -> np.ndarray:
    return rng.integers(0, num_labels, num_data).astype(np.int64)


def assert_matches_loop_sha(section: str, name: str) -> None:
    """The fused run of golden cell ``name`` reproduces its loop SHA-256."""
    cell = GOLDENS[section][name]
    _, fused = run_shp2(cell)
    assert sha256(fused.assignment, "<i4") == cell["assignment_sha256"], name


class TestFusedLoopParity:
    """Property grid over k ∈ {2, 3, 8, 17, 64}, weighted and unweighted,
    against the loop path's golden records."""

    EPSILON = 0.05

    @pytest.mark.parametrize("weighted", [False, True])
    def test_parity_grid(self, weighted):
        weighting = "weighted" if weighted else "unweighted"
        deltas = []
        for k in PARITY_KS:
            for seed in PARITY_SEEDS:
                golden = GOLDENS["parity-grid"][f"{weighting}-k{k}-seed{seed}"]
                graph, fused = run_shp2(golden)
                assert fused.assignment.shape == (graph.num_data,)
                assert fused.assignment.min() >= 0
                assert fused.assignment.max() < k
                if not weighted:
                    # The ε-capacity bound, measured against the global
                    # per-leaf target (+1 for the deficit relax).
                    bound = max(
                        int(np.floor((1 + self.EPSILON) * graph.num_data / k)),
                        int(np.ceil(graph.num_data / k)),
                    ) + 1
                    sizes = np.bincount(fused.assignment, minlength=k)
                    assert sizes.max() <= bound
                f_loop = golden["average_fanout"]
                f_fused = average_fanout(graph, fused.assignment, k)
                if k <= 3:
                    # At most one refinable group per level: the matcher
                    # consumes the very same RNG stream, so the runs must
                    # agree bitwise, not just statistically.
                    assert sha256(fused.assignment, "<i4") == golden["assignment_sha256"]
                else:
                    deltas.append((f_fused - f_loop) / f_loop)
        deltas = np.asarray(deltas)
        # Per-case: the two RNG streams wander a little on 600-vertex graphs.
        assert np.abs(deltas).max() <= 0.10
        # Aggregate: fused is not systematically worse than the reference
        # (the tight 1%-at-scale bound is pinned by bench_shp2_levels, where
        # concentration makes it meaningful).
        assert deltas.mean() <= 0.02

    @pytest.mark.parametrize("seed", [0, 1, 4])
    def test_parity_with_fully_pruned_trailing_vertex(self, seed):
        """Regression: a last vertex appearing only in single-pin queries is
        fully pruned for the level (empty trailing CSR row); the truncated
        segment sums this used to cause broke the exact k=2 parity."""
        assert_matches_loop_sha("pruned-trailing", f"seed{seed}")

    def test_fused_deterministic(self):
        graph = random_bipartite(7)
        a = shp_2(graph, 17, seed=3)
        b = shp_2(graph, 17, seed=3)
        assert np.array_equal(a.assignment, b.assignment)

    def test_identical_initial_states(self):
        """Fused must consume the loop path's RNG draws for initialization:
        with zero refinement iterations the assignments coincide bitwise."""
        assert_matches_loop_sha("initial-states", "k16-seed5")

    def test_default_level_mode_is_fused(self):
        """Job files may still name the one level mode."""
        assert AlgorithmSpec().level_mode == "fused"
        assert AlgorithmSpec(level_mode="fused").level_mode == "fused"

    def test_invalid_level_mode_rejected(self):
        for mode in ("loop", "turbo"):
            with pytest.raises(SpecError, match=r"algorithm\.level_mode"):
                AlgorithmSpec(level_mode=mode)

    @pytest.mark.parametrize("matcher", ["histogram", "uniform"])
    def test_both_matchers_supported(self, matcher):
        graph = random_bipartite(17)
        result = shp_2(graph, 8, seed=2, matcher=matcher)
        rng = np.random.default_rng(0)
        random_assign = rng.integers(0, 8, graph.num_data).astype(np.int32)
        assert average_fanout(graph, result.assignment, 8) < average_fanout(
            graph, random_assign, 8
        )

    def test_warm_start_fused(self):
        graph = random_bipartite(19)
        first = shp_2(graph, 8, seed=3)
        cfg = SHPConfig(k=8, seed=4, iterations_per_bisection=3)
        from repro import SHP2Partitioner

        warm = SHP2Partitioner(cfg).partition(graph, initial=first.assignment)
        f_first = average_fanout(graph, first.assignment, 8)
        f_warm = average_fanout(graph, warm.assignment, 8)
        assert f_warm <= f_first + 0.05


class TestSiblingGains:
    """The fused gain kernel against the dense reference kernel."""

    @pytest.mark.parametrize("weighted", [False, True])
    def test_matches_dense_gains_pfanout(self, weighted):
        graph = random_bipartite(23, num_queries=60, num_data=80, num_edges=400,
                                 weighted=weighted)
        rng = np.random.default_rng(5)
        num_labels = 6
        labels = random_labels(rng, graph.num_data, num_labels)
        counts = grouped_bucket_counts(graph, labels, num_labels)
        objective = PFanoutObjective(0.5)
        dense = move_gains_dense(graph, labels.astype(np.int32), counts, objective)
        vertex_ids = np.arange(graph.num_data, dtype=np.int64)
        gains = sibling_move_gains(graph, labels, counts, objective, vertex_ids)
        expected = dense[vertex_ids, labels ^ 1]
        np.testing.assert_allclose(gains, expected, atol=1e-9)

    def test_matches_dense_gains_scaled_pfanout(self):
        """Per-column splits_ahead: the gathered evaluation must index t."""
        graph = random_bipartite(29, num_queries=60, num_data=80, num_edges=400)
        rng = np.random.default_rng(6)
        num_labels = 6
        labels = random_labels(rng, graph.num_data, num_labels)
        counts = grouped_bucket_counts(graph, labels, num_labels)
        splits = np.array([4.0, 3.0, 2.0, 1.0, 5.0, 2.0])
        objective = ScaledPFanout(p=0.5, splits_ahead=splits)
        dense = move_gains_dense(graph, labels.astype(np.int32), counts, objective)
        vertex_ids = np.arange(graph.num_data, dtype=np.int64)
        gains = sibling_move_gains(graph, labels, counts, objective, vertex_ids)
        expected = dense[vertex_ids, labels ^ 1]
        np.testing.assert_allclose(gains, expected, atol=1e-9)

    def test_subset_of_vertices(self):
        graph = random_bipartite(31, num_queries=60, num_data=80, num_edges=400)
        rng = np.random.default_rng(7)
        labels = random_labels(rng, graph.num_data, 4)
        counts = grouped_bucket_counts(graph, labels, 4)
        objective = PFanoutObjective(0.5)
        subset = np.array([3, 17, 42, 79], dtype=np.int64)
        gains = sibling_move_gains(graph, labels, counts, objective, subset)
        all_gains = sibling_move_gains(
            graph, labels, counts, objective,
            np.arange(graph.num_data, dtype=np.int64),
        )
        np.testing.assert_allclose(gains, all_gains[subset])

    def test_trailing_edgeless_vertex_keeps_last_contribution(self):
        """Regression: segment-summing with a clipped reduceat dropped the
        final edge of the last non-empty vertex whenever trailing CSR rows
        were empty (e.g. vertices fully pruned by the single-pin drop)."""
        graph = BipartiteGraph.from_edges(
            np.array([0, 1, 0, 1]), np.array([0, 0, 1, 1]),
            num_queries=2, num_data=3,
        )
        assert graph.d_indptr.tolist() == [0, 2, 4, 4]
        labels = np.array([0, 1, 0], dtype=np.int64)
        counts = grouped_bucket_counts(graph, labels, 2)
        objective = PFanoutObjective(0.5)
        dense = move_gains_dense(graph, labels.astype(np.int32), counts, objective)
        gains = sibling_move_gains(
            graph, labels, counts, objective,
            np.arange(graph.num_data, dtype=np.int64),
        )
        np.testing.assert_allclose(gains, dense[np.arange(3), labels ^ 1], atol=1e-12)

    def test_empty_subset(self):
        graph = random_bipartite(37, num_queries=20, num_data=30, num_edges=100)
        labels = np.zeros(graph.num_data, dtype=np.int64)
        counts = grouped_bucket_counts(graph, labels, 2)
        gains = sibling_move_gains(
            graph, labels, counts, PFanoutObjective(0.5),
            np.empty(0, dtype=np.int64),
        )
        assert gains.size == 0


class TestGroupedCounts:
    def test_grouped_matches_plain_bucket_counts(self):
        graph = random_bipartite(41, num_queries=50, num_data=70, num_edges=300)
        rng = np.random.default_rng(8)
        labels = random_labels(rng, graph.num_data, 5)
        from repro.objectives import bucket_counts

        np.testing.assert_array_equal(
            grouped_bucket_counts(graph, labels, 5),
            bucket_counts(graph, labels.astype(np.int32), 5),
        )

    def test_incremental_update_matches_rebuild(self):
        graph = random_bipartite(43, num_queries=50, num_data=70, num_edges=300)
        rng = np.random.default_rng(9)
        num_labels = 6
        labels = random_labels(rng, graph.num_data, num_labels)
        counts = grouped_bucket_counts(graph, labels, num_labels)
        moved = rng.choice(graph.num_data, size=25, replace=False).astype(np.int64)
        old = labels[moved].copy()
        new = (old + 1 + rng.integers(0, num_labels - 1, moved.size)) % num_labels
        labels[moved] = new
        update_bucket_counts(counts, graph, moved, old, new)
        np.testing.assert_array_equal(
            counts, grouped_bucket_counts(graph, labels, num_labels)
        )

    def test_incremental_update_no_moves(self):
        graph = random_bipartite(47, num_queries=20, num_data=30, num_edges=100)
        labels = np.zeros(graph.num_data, dtype=np.int64)
        counts = grouped_bucket_counts(graph, labels, 2)
        before = counts.copy()
        update_bucket_counts(
            counts, graph, np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64),
        )
        np.testing.assert_array_equal(counts, before)


class TestCsrRowPositions:
    def test_positions_match_indptr_ranges(self):
        from repro.hypergraph.bipartite import csr_row_positions

        graph = random_bipartite(53, num_queries=40, num_data=50, num_edges=250)
        ids = np.array([0, 7, 7, 21, 49], dtype=np.int64)
        positions, lengths = csr_row_positions(graph.d_indptr, ids)
        expected = np.concatenate([
            np.arange(graph.d_indptr[v], graph.d_indptr[v + 1]) for v in ids
        ])
        np.testing.assert_array_equal(positions, expected)
        np.testing.assert_array_equal(
            lengths, graph.d_indptr[ids + 1] - graph.d_indptr[ids]
        )

    def test_empty(self, tiny_graph):
        from repro.hypergraph.bipartite import csr_row_positions

        positions, lengths = csr_row_positions(
            tiny_graph.d_indptr, np.empty(0, dtype=np.int64)
        )
        assert positions.size == 0 and lengths.size == 0


class TestRefineLevelFused:
    def test_small_groups_keep_initial_sides(self):
        graph = random_bipartite(59, num_queries=30, num_data=40, num_edges=150)
        side = np.array([0, 1], dtype=np.int32)
        group = LevelGroup(np.array([3, 4], dtype=np.int64), side, 1, 1)
        stats, converged = refine_level_fused(
            graph, SHPConfig(k=2), [group], 0.05, np.random.default_rng(0)
        )
        assert converged
        assert stats == []
        np.testing.assert_array_equal(group.final_side, side)

    def test_empty_level(self):
        graph = random_bipartite(61, num_queries=10, num_data=20, num_edges=50)
        stats, converged = refine_level_fused(
            graph, SHPConfig(k=2), [], 0.05, np.random.default_rng(0)
        )
        assert converged and stats == []

    def test_history_tracks_level_metrics(self):
        graph = random_bipartite(67)
        result = shp_2(graph, 8, seed=1, track_metrics="full")
        assert result.extra["num_levels"] == 3
        assert len(result.levels) == 3
        for level in result.levels:
            assert level, "every level must record at least one iteration"
            for stats in level:
                assert stats.objective_value is not None
                assert stats.fanout is not None
