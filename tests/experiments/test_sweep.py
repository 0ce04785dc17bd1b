"""Tests for :mod:`repro.experiments.sweep`."""

import warnings

import numpy as np
import pytest

from repro.experiments.config import SimulationConfig
from repro.experiments.session import LadSession
from repro.experiments.sweep import (
    SweepPoint,
    SweepRunner,
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
        assert point.stream_name() == "attack/diff/dec_only/120/0.25"


def _square(_state, task):
    return task * task


def _offset(state, task):
    return state["offset"] + task


class TestFanOut:
    """The one fan-out contract: ``fn(state, task)`` serially or pooled."""

    def test_pool_results_come_back_in_task_order(self):
        assert list(fan_out(_square, range(6), 2)) == [0, 1, 4, 9, 16, 25]

    def test_pooled_workers_receive_the_state(self):
        """Every pooled task reads the state its worker received once, as
        the serial run does in-process."""
        state = {"offset": 100}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pooled = list(fan_out(_offset, range(5), 2, state=state))
        assert pooled == list(fan_out(_offset, range(5), 0, state=state))
        assert pooled == [100, 101, 102, 103, 104]

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
        the rest to the in-process path: one warning, task order, and
        in-process calls only for the tasks the pool never returned."""
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
                    yield task * task
                raise BrokenProcessPool("a worker died")

        in_process = []

        def square(state, task):
            in_process.append(task)
            return _square(state, task)

        monkeypatch.setattr(sweep_module, "ProcessPoolExecutor", DyingPool)
        with pytest.warns(RuntimeWarning) as record:
            results = list(fan_out(square, range(5), 2))
        assert [w.category for w in record] == [RuntimeWarning]
        assert results == list(fan_out(_square, range(5), 0))
        assert in_process == list(range(fails_after, 5))


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

    def test_falls_back_to_serial_when_the_pool_fails_to_start(
        self, tiny_simulation, monkeypatch
    ):
        """Platforms without process pools degrade to the serial path with
        a warning instead of crashing mid-sweep."""
        from repro.experiments import sweep as sweep_module

        def broken_pool(*args, **kwargs):
            raise OSError("process pools unavailable on this platform")

        monkeypatch.setattr(sweep_module, "ProcessPoolExecutor", broken_pool)
        points = SweepRunner.grid(["diff"], ["dec_bounded"], [80.0], [0.1, 0.3])
        serial = tiny_simulation.sweep().attacked_scores(points)
        with pytest.warns(RuntimeWarning, match="falling back to the serial path"):
            fallback = tiny_simulation.sweep(workers=2).attacked_scores(points)
        for point in points:
            np.testing.assert_array_equal(fallback[point], serial[point])

    def test_spawned_workers_reproduce_serial_results(
        self, tiny_simulation, spawn_pool
    ):
        """Under ``spawn`` each worker unpickles the sweep's state; the
        scores still equal the serial run's bit for bit."""
        points = SweepRunner.grid(["diff"], ["dec_bounded"], [80.0, 160.0], [0.1])
        serial = tiny_simulation.sweep().attacked_scores(points)
        with warnings.catch_warnings():
            # a fan-out fallback would hide a broken pickled transport
            warnings.simplefilter("error")
            spawned = tiny_simulation.sweep(workers=2).attacked_scores(points)
        for point in points:
            np.testing.assert_array_equal(spawned[point], serial[point])


class TestWorkerState:
    """The state a pool worker installs, exercised in-process."""

    def test_installed_state_reproduces_session_scores(self, tiny_simulation):
        """Installing the sweep's state as a pool initializer does (after
        the pickle round trip of a spawned worker) and calling the
        per-point function through the worker entry reproduces
        :meth:`LadSession.attacked_scores` bit for bit."""
        import pickle

        from repro.experiments import sweep as sweep_module

        runner = tiny_simulation.sweep(workers=2)
        state = pickle.loads(pickle.dumps(runner._build_state()))
        point = SweepPoint("diff", "dec_bounded", 80.0, 0.1)
        saved = sweep_module._pool_state
        try:
            sweep_module._install_state(state)
            arrays = sweep_module._call_with_state(runner.compute, point)
        finally:
            sweep_module._install_state(saved)
        expected = tiny_simulation.attacked_scores(
            point.metric,
            point.attack,
            degree_of_damage=point.degree_of_damage,
            compromised_fraction=point.compromised_fraction,
        )
        np.testing.assert_array_equal(arrays["scores"], expected)

    def test_warm_grid_builds_no_state(self, tmp_path):
        """A fully warm grid computes nothing: it builds no state and so
        loads no victims artifact."""
        from repro.experiments.store import ArtifactStore

        config = SimulationConfig(
            group_size=40,
            num_training_samples=30,
            training_samples_per_network=15,
            num_victims=30,
            victims_per_network=15,
            gz_omega=300,
            seed=777,
        )
        points = SweepRunner.grid(["diff"], ["dec_bounded"], [80.0], [0.1, 0.3])
        LadSession(config, store=tmp_path).sweep().attacked_scores(points)
        store = ArtifactStore(tmp_path)
        runner = LadSession(config, store=store).sweep(workers=2)
        runner.attacked_scores(points)
        assert runner._state is None
        assert store.hit_counts == {"attacked_scores": len(points)}
        assert not store.miss_counts


class TestFigureIntegration:
    def test_fig7_accepts_workers(self, tiny_simulation):
        from repro.experiments.figures import fig7, run_figure_spec

        spec = fig7.spec(degrees=(160.0,), fractions=(0.1,))
        serial = run_figure_spec(spec, session=tiny_simulation)
        parallel = run_figure_spec(spec, session=tiny_simulation, workers=2)
        assert serial.get_panel("DR-D-x").get_series("x=10%").y == (
            parallel.get_panel("DR-D-x").get_series("x=10%").y
        )
