"""Tests for :mod:`repro.experiments.sweep`."""

import numpy as np
import pytest

from repro.experiments.config import SimulationConfig
from repro.experiments.session import LadSession
from repro.experiments.sweep import (
    SweepPoint,
    SweepRunner,
    attack_stream_name,
    fan_out,
)


@pytest.fixture(scope="module")
def tiny_simulation():
    return LadSession(
        SimulationConfig(
            group_size=40,
            num_training_samples=30,
            training_samples_per_network=15,
            num_victims=30,
            victims_per_network=15,
            gz_omega=300,
            seed=777,
        )
    )


class TestGrid:
    def test_cartesian_product_and_normalisation(self):
        points = SweepRunner.grid(
            ["diff", "add_all"], ["dec_bounded"], [80, 160], [0.1]
        )
        assert len(points) == 4
        assert points[0] == SweepPoint("diff", "dec_bounded", 80.0, 0.1)
        metrics = {p.metric for p in points}
        assert "diff" in metrics and len(metrics) == 2

    def test_stream_name_matches_harness_convention(self):
        point = SweepPoint("diff", "dec_only", 120.0, 0.25)
        assert point.stream_name() == attack_stream_name(
            "diff", "dec_only", 120.0, 0.25
        )
        assert point.stream_name() == "attack/diff/dec_only/120/0.25"


def _square(task):
    return task * task


class TestFanOut:
    """The one process fan-out helper and its serial fallback."""

    def test_pool_results_come_back_in_task_order(self):
        assert list(fan_out(_square, range(6), 2)) == [0, 1, 4, 9, 16, 25]

    def test_single_worker_never_starts_a_pool(self, monkeypatch, recwarn):
        from repro.experiments import sweep as sweep_module

        monkeypatch.setattr(sweep_module, "ProcessPoolExecutor", None)
        assert list(fan_out(_square, range(3), 1)) == [0, 1, 4]
        assert not recwarn.list

    @pytest.mark.parametrize("fails_after", [0, 2])
    def test_broken_pool_continues_serially_from_the_first_missing_task(
        self, monkeypatch, fails_after
    ):
        """A pool dying before its first result, or after k of them, hands
        the rest to the serial path: one warning, task order, serial values."""
        from concurrent.futures.process import BrokenProcessPool

        from repro.experiments import sweep as sweep_module

        class DyingPool:
            def __init__(self, **kwargs):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                return False

            def map(self, fn, tasks):
                for task in tasks[:fails_after]:
                    yield fn(task)
                raise BrokenProcessPool("a worker died")

        serial_tasks = []

        def serial(task):
            serial_tasks.append(task)
            return _square(task)

        monkeypatch.setattr(sweep_module, "ProcessPoolExecutor", DyingPool)
        with pytest.warns(RuntimeWarning) as record:
            results = list(fan_out(_square, range(5), 2, serial=serial))
        assert [w.category for w in record] == [RuntimeWarning]
        assert results == list(fan_out(_square, range(5), 0))
        assert serial_tasks == list(range(fails_after, 5))


class TestSerialSweep:
    def test_matches_simulation_entry_points(self, tiny_simulation):
        runner = tiny_simulation.sweep()
        points = SweepRunner.grid(["diff"], ["dec_bounded"], [80.0, 160.0], [0.1])
        scores = runner.attacked_scores(points)
        for point in points:
            expected = tiny_simulation.attacked_scores(
                point.metric,
                point.attack,
                degree_of_damage=point.degree_of_damage,
                compromised_fraction=point.compromised_fraction,
            )
            np.testing.assert_array_equal(scores[point], expected)

    def test_detection_rates_match_simulation(self, tiny_simulation):
        runner = tiny_simulation.sweep()
        points = SweepRunner.grid(["diff"], ["dec_bounded"], [160.0], [0.1, 0.3])
        rates = runner.detection_rates(points, false_positive_rate=0.05)
        for point in points:
            expected = tiny_simulation.outcome(
                point.metric,
                point.attack,
                degree_of_damage=point.degree_of_damage,
                compromised_fraction=point.compromised_fraction,
                false_positive_rate=0.05,
            )
            assert rates[point] == expected

    def test_rocs_match_simulation(self, tiny_simulation):
        runner = tiny_simulation.sweep()
        (point,) = SweepRunner.grid(["diff"], ["dec_only"], [120.0], [0.2])
        roc = runner.rocs([point])[point]
        expected = tiny_simulation.roc(
            "diff",
            "dec_only",
            degree_of_damage=120.0,
            compromised_fraction=0.2,
        )
        np.testing.assert_array_equal(
            roc.false_positive_rates,
            expected.false_positive_rates,
        )
        np.testing.assert_array_equal(roc.detection_rates, expected.detection_rates)


class TestParallelSweep:
    def test_workers_reproduce_serial_results(self, tiny_simulation):
        points = SweepRunner.grid(
            ["diff"], ["dec_bounded", "dec_only"], [80.0, 160.0], [0.1]
        )
        serial = tiny_simulation.sweep().attacked_scores(points)
        parallel = tiny_simulation.sweep(workers=2).attacked_scores(points)
        assert set(serial) == set(parallel)
        for point in points:
            np.testing.assert_array_equal(serial[point], parallel[point])

    def test_falls_back_to_serial_without_shared_memory(
        self, tiny_simulation, monkeypatch
    ):
        """Platforms without fork/shared-memory support degrade to the
        serial path with a warning instead of crashing mid-sweep."""
        from repro.experiments import sweep as sweep_module

        def broken_share(array):
            raise OSError("shared memory unavailable on this platform")

        monkeypatch.setattr(sweep_module, "_share_array", broken_share)
        points = SweepRunner.grid(["diff"], ["dec_bounded"], [80.0], [0.1, 0.3])
        serial = tiny_simulation.sweep().attacked_scores(points)
        with pytest.warns(RuntimeWarning, match="falling back to the serial path"):
            fallback = tiny_simulation.sweep(workers=2).attacked_scores(points)
        for point in points:
            np.testing.assert_array_equal(fallback[point], serial[point])

    def test_shared_segments_are_released(self, tiny_simulation, monkeypatch):
        """The parent unlinks every shared-memory segment it created, even
        when a worker blows up mid-sweep."""
        from repro.experiments import sweep as sweep_module

        created = []
        original = sweep_module._share_array

        def tracking_share(array):
            segment, meta = original(array)
            created.append(segment)
            return segment, meta

        monkeypatch.setattr(sweep_module, "_share_array", tracking_share)
        points = SweepRunner.grid(["diff"], ["dec_bounded"], [80.0], [0.1])
        tiny_simulation.sweep(workers=2).attacked_scores(points)
        # observations + locations + knowledge (lattice, g(z) knots, values)
        assert len(created) == 5
        for segment in created:
            with pytest.raises(FileNotFoundError):
                type(segment)(name=segment.name)


class TestSharedKnowledge:
    """The metadata-only pool payload and its worker-side rehydration."""

    def test_share_parts_round_trip_is_bit_identical(self, tiny_simulation):
        from repro.deployment.knowledge import DeploymentKnowledge

        knowledge = tiny_simulation.knowledge
        arrays, skeleton = knowledge.share_parts()
        rebuilt = DeploymentKnowledge.from_share_parts(skeleton, arrays)
        assert rebuilt.n_groups == knowledge.n_groups
        assert rebuilt.group_size == knowledge.group_size
        assert rebuilt.radio_range == knowledge.radio_range
        assert rebuilt.support_radius == knowledge.support_radius
        assert rebuilt.gz_table.omega == knowledge.gz_table.omega
        assert rebuilt.gz_table.z_max == knowledge.gz_table.z_max
        sample = tiny_simulation.victims()
        locations = sample.actual_locations[:8]
        np.testing.assert_array_equal(
            rebuilt.expected_observation(locations),
            knowledge.expected_observation(locations),
        )
        np.testing.assert_array_equal(
            rebuilt.log_likelihood_batch(
                locations, sample.observations[:8], prune=True
            ),
            knowledge.log_likelihood_batch(
                locations, sample.observations[:8], prune=True
            ),
        )

    def test_pool_payload_is_metadata_only(self, tiny_simulation):
        """The pickled initializer payload must not carry the knowledge
        arrays — they travel through shared memory."""
        import pickle

        runner = tiny_simulation.sweep(workers=2)
        segments, payload = runner._pool_payload()
        try:
            assert "knowledge" not in payload
            assert set(payload["shared_arrays"]) == {
                "observations",
                "locations",
                "knowledge_points",
                "knowledge_gz_knots",
                "knowledge_gz_values",
            }
            payload_bytes = len(pickle.dumps(payload))
            knowledge_bytes = len(pickle.dumps(tiny_simulation.knowledge))
            assert payload_bytes < knowledge_bytes / 2
        finally:
            for segment in segments:
                segment.close()
                segment.unlink()

    def test_worker_initializer_rebuilds_bit_identical_state(
        self, tiny_simulation
    ):
        """Running the real initializer + scorer in-process (attach, rebuild
        knowledge from the shared arrays, score) reproduces the session's
        own attacked scores bit for bit."""
        import contextlib
        import pickle

        from repro.experiments import sweep as sweep_module

        runner = tiny_simulation.sweep(workers=2)
        segments, payload = runner._pool_payload()
        saved_state = dict(sweep_module._WORKER_STATE)
        worker_segments = []
        try:
            sweep_module._WORKER_STATE.clear()
            # Round-trip through pickle exactly as the pool initargs would.
            sweep_module._init_worker(pickle.loads(pickle.dumps(payload)))
            worker_segments = sweep_module._WORKER_STATE.get(
                "_shared_segments", []
            )
            point = SweepPoint("diff", "dec_bounded", 80.0, 0.1)
            scores = sweep_module._score_point(point)
            expected = tiny_simulation.attacked_scores(
                point.metric,
                point.attack,
                degree_of_damage=point.degree_of_damage,
                compromised_fraction=point.compromised_fraction,
            )
            np.testing.assert_array_equal(scores, expected)
        finally:
            sweep_module._WORKER_STATE.clear()
            sweep_module._WORKER_STATE.update(saved_state)
            for segment in worker_segments:
                # The attached views were dropped with the state dict; a
                # lingering export would raise BufferError, which only
                # means the GC has not collected them yet.
                with contextlib.suppress(BufferError):
                    segment.close()
            for segment in segments:
                segment.close()
                segment.unlink()


class TestFigureIntegration:
    def test_fig7_accepts_workers(self, tiny_simulation):
        from repro.experiments.figures import fig7, run_figure_spec

        spec = fig7.spec(degrees=(160.0,), fractions=(0.1,))
        serial = run_figure_spec(spec, session=tiny_simulation)
        parallel = run_figure_spec(spec, session=tiny_simulation, workers=2)
        assert serial.get_panel("DR-D-x").get_series("x=10%").y == (
            parallel.get_panel("DR-D-x").get_series("x=10%").y
        )
