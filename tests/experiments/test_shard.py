"""Cross-topology tests for the deterministic sweep shard partitioner.

The fleet dispatch mode only works if (a) the partition itself is a real
partition — disjoint slices whose union is the full grid, stable across
hosts, re-runs and grid orderings — and (b) every execution topology
(serial, process pool, N shards merged through a shared store, interrupted and
resumed shards) publishes bit-identical attacked scores and temporal
records.  Both halves are pinned here: the partition properties with
hypothesis over random grids, the topology invariance end to end on a
small spec.  The progress the shards report is the store's own: a point
is done exactly when its ``.npz`` exists.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.events import EventSpec, TimelineSpec
from repro.experiments import sweep as sweep_module
from repro.experiments.config import SimulationConfig
from repro.experiments.scenario import ScenarioSpec
from repro.experiments.store import ArtifactStore
from repro.experiments.sweep import (
    SweepRunner,
    shard_of_point,
    shard_points,
)

_SETTINGS = settings(max_examples=60, deadline=None)

# Random grids: small axes of distinct values so the cartesian product
# stays manageable while exercising float formatting in stream names.
_metric_names = st.lists(
    st.sampled_from(["diff", "add_all", "probability"]),
    min_size=1,
    max_size=3,
    unique=True,
)
_attack_names = st.lists(
    st.sampled_from(["dec_bounded", "dec_only", "rssi_amp"]),
    min_size=1,
    max_size=2,
    unique=True,
)
_degrees = st.lists(
    st.floats(min_value=1.0, max_value=500.0, allow_nan=False),
    min_size=1,
    max_size=4,
    unique=True,
)
_fractions = st.lists(
    st.floats(min_value=0.01, max_value=1.0, allow_nan=False),
    min_size=1,
    max_size=3,
    unique=True,
)
_grids = st.builds(SweepRunner.grid, _metric_names, _attack_names, _degrees, _fractions)
_counts = st.integers(min_value=1, max_value=7)


class TestPartitionProperties:
    @_SETTINGS
    @given(grid=_grids, count=_counts)
    def test_disjoint_and_union_is_full_grid(self, grid, count):
        slices = [shard_points(grid, i, count) for i in range(count)]
        combined = [point for piece in slices for point in piece]
        # Pairwise disjoint and the union is exactly the grid: the
        # concatenation has no duplicates and equals the grid as a set.
        assert len(combined) == len(set(combined)) == len(set(grid))
        assert set(combined) == set(grid)

    @_SETTINGS
    @given(grid=_grids, count=_counts, seed=st.integers(0, 2**32 - 1))
    def test_assignment_is_stable_under_reordering(self, grid, count, seed):
        shuffled = list(grid)
        np.random.default_rng(seed).shuffle(shuffled)
        for i in range(count):
            # Same members regardless of grid order; within one ordering
            # the slice preserves that ordering.
            assert set(shard_points(grid, i, count)) == set(
                shard_points(shuffled, i, count)
            )

    @_SETTINGS
    @given(grid=_grids, count=_counts)
    def test_assignment_depends_only_on_the_point(self, grid, count):
        # Re-runs and sub-grids agree: a point's shard never changes when
        # other points appear or disappear around it.
        full = {p: shard_of_point(p, count) for p in grid}
        subset = grid[:: max(1, len(grid) // 2)]
        for point in subset:
            assert shard_of_point(point, count) == full[point]
        assert {p: shard_of_point(p, count) for p in grid} == full

    def test_single_shard_is_identity(self):
        grid = SweepRunner.grid(
            ["diff", "probability"], ["dec_bounded"], [80.0, 160.0], [0.1]
        )
        assert shard_points(grid, 0, 1) == grid

    def test_invalid_selectors_are_rejected(self):
        grid = SweepRunner.grid(["diff"], ["dec_bounded"], [80.0], [0.1])
        with pytest.raises(ValueError, match="shard count"):
            shard_points(grid, 0, 0)
        with pytest.raises(ValueError, match="shard index"):
            shard_points(grid, 2, 2)
        with pytest.raises(ValueError, match="shard index"):
            shard_points(grid, -1, 2)


@pytest.fixture()
def tiny_spec():
    return ScenarioSpec(
        name="shard",
        metrics=("diff", "add_all"),
        attacks=("dec_bounded",),
        degrees=(80.0, 160.0),
        fractions=(0.1,),
        false_positive_rate=0.05,
        config=SimulationConfig(
            group_size=40,
            num_training_samples=30,
            training_samples_per_network=15,
            num_victims=30,
            victims_per_network=15,
            gz_omega=300,
            seed=2424,
        ),
    )


#: A small timeline for the temporal runner: jitter, then a mid-run attack.
_TIMELINE = TimelineSpec(
    epochs=3,
    events=(
        EventSpec(
            kind="mobility",
            action="jitter",
            period=1.0,
            start=1.0,
            fraction=0.25,
            amplitude=5.0,
        ),
        EventSpec(kind="attack", action="on", at=(1.0,)),
    ),
)


def _runner(session, category):
    """The runner of *session* that writes the store category *category*."""
    if category == "attacked_scores":
        return session.sweep()
    return session.temporal(_TIMELINE)


def _stream(session, category, points, **kwargs):
    """The streaming results of the runner writing *category*."""
    runner = _runner(session, category)
    if category == "attacked_scores":
        return runner.iter_attacked_scores(points, **kwargs)
    return runner.iter_outcomes(points, **kwargs)


def _assert_same(merged, serial):
    """Scores compare bit for bit; outcomes through ``TemporalOutcome.__eq__``."""
    if isinstance(serial, np.ndarray):
        np.testing.assert_array_equal(merged, serial)
    else:
        assert merged == serial


class TestTopologyInvariance:
    """serial == shm pool == N-shard merge, bit for bit."""

    @pytest.mark.parametrize(
        "count, category",
        [(count, "attacked_scores") for count in (1, 2, 3)]
        + [(count, "temporal") for count in (1, 2, 3)],
        ids=["1", "2", "3", "temporal-1", "temporal-2", "temporal-3"],
    )
    def test_shard_union_equals_serial_run(self, tiny_spec, tmp_path, count, category):
        points = tiny_spec.points()
        serial = dict(_stream(tiny_spec.session(), category, points))

        cache = tmp_path / f"shards-{count}"
        for index in range(count):
            shard_session = tiny_spec.session(store=ArtifactStore(cache))
            produced = dict(
                _stream(shard_session, category, points, shard=(index, count))
            )
            assert list(produced) == shard_points(points, index, count)

        # A follow-up full run over the shared cache must be fully warm and
        # bit-identical to the serial reference.
        warm = tiny_spec.session(store=ArtifactStore(cache))
        merged = dict(_stream(warm, category, points))
        assert warm.store.miss_counts[category] == 0
        assert warm.store.hit_counts[category] == len(points)
        assert list(merged) == points
        for point in points:
            _assert_same(merged[point], serial[point])

    def test_pool_matches_serial_and_sharded(self, tiny_spec, tmp_path):
        points = tiny_spec.points()
        serial = dict(tiny_spec.session().sweep().iter_attacked_scores(points))
        pooled = tiny_spec.session().sweep(workers=2).attacked_scores(points)

        cache = tmp_path / "cache"
        for index in range(2):
            session = tiny_spec.session(store=ArtifactStore(cache))
            dict(
                session.sweep(workers=2).iter_attacked_scores(
                    points, shard=(index, 2)
                )
            )
        merged = dict(
            tiny_spec.session(store=ArtifactStore(cache))
            .sweep()
            .iter_attacked_scores(points)
        )
        for point in points:
            np.testing.assert_array_equal(pooled[point], serial[point])
            np.testing.assert_array_equal(merged[point], serial[point])

    def test_interrupted_shard_resumes_without_recomputing(
        self, tiny_spec, tmp_path, monkeypatch
    ):
        """A shard that crashes mid-slice resumes recomputing only its
        missing points; the merged grid still equals the serial run."""
        points = tiny_spec.points()
        serial = dict(tiny_spec.session().sweep().iter_attacked_scores(points))

        # Pick the shard with the bigger slice so the crash interrupts it.
        sizes = [len(shard_points(points, i, 2)) for i in range(2)]
        index = int(np.argmax(sizes))
        slice_size = sizes[index]
        assert slice_size >= 2, "seed must give the crashing shard >= 2 points"

        cache = tmp_path / "cache"
        completed = 1
        calls = {"n": 0}
        real = sweep_module.attacked_scores_from_observations

        def flaky(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] > completed:
                raise RuntimeError("simulated mid-shard crash")
            return real(*args, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(
                sweep_module, "attacked_scores_from_observations", flaky
            )
            crashing = tiny_spec.session(store=ArtifactStore(cache))
            with pytest.raises(RuntimeError, match="simulated mid-shard crash"):
                list(
                    crashing.sweep().iter_attacked_scores(
                        points, shard=(index, 2)
                    )
                )

        # Resume the same shard: the completed point is served from disk.
        resumed = tiny_spec.session(store=ArtifactStore(cache))
        dict(resumed.sweep().iter_attacked_scores(points, shard=(index, 2)))
        assert resumed.store.hit_counts["attacked_scores"] == completed
        assert (
            resumed.store.miss_counts["attacked_scores"]
            == slice_size - completed
        )

        # Run the other shard, then merge: fully warm, bit-identical.
        other = tiny_spec.session(store=ArtifactStore(cache))
        dict(other.sweep().iter_attacked_scores(points, shard=(1 - index, 2)))
        warm = tiny_spec.session(store=ArtifactStore(cache))
        merged = dict(warm.sweep().iter_attacked_scores(points))
        assert warm.store.miss_counts["attacked_scores"] == 0
        for point in points:
            np.testing.assert_array_equal(merged[point], serial[point])


@pytest.mark.parametrize("category", ["attacked_scores", "temporal"])
class TestStoreProgress:
    """A point is done exactly when its ``.npz`` is in the store."""

    def test_progress_without_store_is_rejected(self, tiny_spec, category):
        runner = _runner(tiny_spec.session(), category)
        with pytest.raises(ValueError, match="artifact store"):
            runner.progress(tiny_spec.points())

    def test_progress_counts_artifacts_without_touching_counters(
        self, tiny_spec, tmp_path, category
    ):
        points = tiny_spec.points()
        writer = tiny_spec.session(store=ArtifactStore(tmp_path))
        dict(_stream(writer, category, points))

        fresh = tiny_spec.session(store=ArtifactStore(tmp_path))
        progress = _runner(fresh, category).progress(points)
        assert (progress.total, progress.done) == (len(points), len(points))
        assert progress.remaining == 0
        assert fresh.store.stats() == {"hits": 0, "misses": 0}
        assert not (tmp_path / "manifest").exists()

    def test_deleted_artifact_reads_pending_and_resume_recomputes_it(
        self, tiny_spec, tmp_path, category
    ):
        points = tiny_spec.points()
        session = tiny_spec.session(store=ArtifactStore(tmp_path))
        original = dict(_stream(session, category, points))
        lost = _runner(session, category).keys(points)[1]
        session.store.path_for(category, lost).unlink()

        status = tiny_spec.session(store=ArtifactStore(tmp_path))
        progress = _runner(status, category).progress(points)
        assert (progress.done, progress.remaining) == (len(points) - 1, 1)

        resumed = tiny_spec.session(store=ArtifactStore(tmp_path))
        results = dict(_stream(resumed, category, points))
        assert resumed.store.hit_counts[category] == len(points) - 1
        assert resumed.store.miss_counts[category] == 1
        for point in points:
            _assert_same(results[point], original[point])
        assert _runner(resumed, category).progress(points).remaining == 0
