"""Resumable-sweep integration tests (the per-point attacked-score cache).

An interrupted ``lad-repro sweep`` re-run with the same ``--cache-dir``
must recompute exactly the points that never finished and still reproduce
an uninterrupted cold run bit for bit.  The tests simulate the crash by
making the scorer raise after N points, then assert the resume behaviour
through the store's per-category hit/miss counters.
"""

import numpy as np
import pytest

from repro.experiments import sweep as sweep_module
from repro.experiments.config import SimulationConfig
from repro.experiments.scenario import ScenarioSpec
from repro.experiments.store import ArtifactStore


@pytest.fixture()
def tiny_spec():
    return ScenarioSpec(
        name="resume",
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
            seed=4711,
        ),
    )


class TestCrashResume:
    COMPLETED = 2  # points that finish before the simulated crash

    def _run_interrupted(self, spec, store_root, monkeypatch):
        """Run the sweep until the scorer dies after ``COMPLETED`` points."""
        calls = {"n": 0}
        real = sweep_module.attacked_scores_from_observations

        def flaky(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] > self.COMPLETED:
                raise RuntimeError("simulated mid-sweep crash")
            return real(*args, **kwargs)

        partial = []
        with monkeypatch.context() as patch:
            patch.setattr(
                sweep_module, "attacked_scores_from_observations", flaky
            )
            crashing = spec.session(store=ArtifactStore(store_root))
            with pytest.raises(RuntimeError, match="simulated mid-sweep crash"):
                for pair in crashing.sweep().iter_attacked_scores(spec.points()):
                    partial.append(pair)
        assert len(partial) == self.COMPLETED
        return partial

    def test_resume_recomputes_only_missing_points(
        self, tiny_spec, tmp_path, monkeypatch
    ):
        points = tiny_spec.points()
        assert len(points) == 4

        # Reference: one uninterrupted cold run without any store.
        cold = dict(
            tiny_spec.session().sweep().iter_attacked_scores(points)
        )

        partial = self._run_interrupted(tiny_spec, tmp_path / "cache", monkeypatch)

        # Resume with the same cache directory: exactly the completed
        # points are served from disk, the rest are recomputed.
        warm = tiny_spec.session(store=ArtifactStore(tmp_path / "cache"))
        resumed = dict(warm.sweep().iter_attacked_scores(points))
        assert warm.store.hit_counts["attacked_scores"] == self.COMPLETED
        assert (
            warm.store.miss_counts["attacked_scores"]
            == len(points) - self.COMPLETED
        )
        # The victims' honest observations also came from the store.
        assert warm.store.hit_counts["victims"] == 1

        # Bit-identical to the uninterrupted cold run, in grid order.
        assert list(resumed) == points
        for point in points:
            np.testing.assert_array_equal(resumed[point], cold[point])
        for point, scores in partial:
            np.testing.assert_array_equal(resumed[point], scores)

    def test_third_run_is_fully_warm(self, tiny_spec, tmp_path, monkeypatch):
        self._run_interrupted(tiny_spec, tmp_path / "cache", monkeypatch)
        resumed = tiny_spec.session(store=ArtifactStore(tmp_path / "cache"))
        dict(resumed.sweep().iter_attacked_scores(tiny_spec.points()))

        warm = tiny_spec.session(store=ArtifactStore(tmp_path / "cache"))
        rates = warm.sweep().detection_rates(
            tiny_spec.points(), false_positive_rate=0.05
        )
        assert len(rates) == len(tiny_spec.points())
        assert warm.store.miss_counts["attacked_scores"] == 0
        assert warm.store.hit_counts["attacked_scores"] == len(
            tiny_spec.points()
        )


def _read_point(session, method, point):
    """One per-point session read (``attacked_scores``/``roc``/``outcome``)."""
    return getattr(session, method)(
        point.metric,
        point.attack,
        degree_of_damage=point.degree_of_damage,
        compromised_fraction=point.compromised_fraction,
    )


_POINT_READS = ["attacked_scores", "roc", "outcome"]


class TestPerPointCache:
    @pytest.mark.parametrize("method", _POINT_READS)
    def test_point_reads_hit_a_sweep_filled_store(self, tiny_spec, tmp_path, method):
        points = tiny_spec.points()
        filler = tiny_spec.session(store=ArtifactStore(tmp_path))
        filler.sweep().detection_rates(points)
        warm = tiny_spec.session(store=ArtifactStore(tmp_path))
        for point in points:
            _read_point(warm, method, point)
        assert warm.store.misses == 0
        assert warm.store.hit_counts["attacked_scores"] == len(points)

    @pytest.mark.parametrize("method", _POINT_READS)
    def test_point_reads_fill_the_store_a_sweep_reads(
        self, tiny_spec, tmp_path, method
    ):
        points = tiny_spec.points()
        cold = tiny_spec.session(store=ArtifactStore(tmp_path))
        for done, point in enumerate(points, start=1):
            _read_point(cold, method, point)
            assert cold.store.miss_counts["attacked_scores"] == done
            assert cold.sweep().progress(points).done == done
        assert cold.store.hit_counts["attacked_scores"] == 0

        warm = tiny_spec.session(store=ArtifactStore(tmp_path))
        warm.sweep().attacked_scores(points)
        assert warm.store.misses == 0
        assert warm.store.hit_counts["attacked_scores"] == len(points)

    def test_single_point_entry_shares_the_sweep_cache(
        self, tiny_spec, tmp_path
    ):
        """``LadSession.attacked_scores`` publishes under the same key the
        sweep path reads, so the two entry points warm each other."""
        cold = tiny_spec.session(store=ArtifactStore(tmp_path))
        direct = cold.attacked_scores(
            "diff", "dec_bounded", degree_of_damage=80.0,
            compromised_fraction=0.1,
        )
        assert cold.store.miss_counts["attacked_scores"] == 1

        warm = tiny_spec.session(store=ArtifactStore(tmp_path))
        swept = dict(warm.sweep().iter_attacked_scores(tiny_spec.points()))
        assert warm.store.hit_counts["attacked_scores"] == 1
        point = tiny_spec.points()[0]
        assert (point.metric, point.attack) == ("diff", "dec_bounded")
        np.testing.assert_array_equal(swept[point], direct)

    def test_parallel_sweep_publishes_points(self, tiny_spec, tmp_path):
        """Cold points scored via the worker pool are persisted by the
        parent exactly like serial ones."""
        cold = tiny_spec.session(store=ArtifactStore(tmp_path))
        parallel = cold.sweep(workers=2).attacked_scores(tiny_spec.points())
        assert cold.store.miss_counts["attacked_scores"] == len(
            tiny_spec.points()
        )

        warm = tiny_spec.session(store=ArtifactStore(tmp_path))
        serial = warm.sweep().attacked_scores(tiny_spec.points())
        assert warm.store.miss_counts["attacked_scores"] == 0
        for point in tiny_spec.points():
            np.testing.assert_array_equal(serial[point], parallel[point])

    def test_cache_key_insensitive_to_other_grid_points(
        self, tiny_spec, tmp_path
    ):
        """A point's artifact is keyed by the point alone: sweeping a
        different grid that shares the point still hits."""
        first = tiny_spec.session(store=ArtifactStore(tmp_path))
        dict(first.sweep().iter_attacked_scores(tiny_spec.points()))

        import dataclasses

        narrowed = dataclasses.replace(
            tiny_spec, metrics=("diff",), degrees=(160.0,)
        )
        second = narrowed.session(store=ArtifactStore(tmp_path))
        dict(second.sweep().iter_attacked_scores(narrowed.points()))
        assert second.store.miss_counts["attacked_scores"] == 0
        assert second.store.hit_counts["attacked_scores"] == 1
