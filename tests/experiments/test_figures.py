"""Tests for the per-figure experiment definitions.

Each figure is run at a very small Monte-Carlo scale on a sparse network so
the suite stays fast; the tests check structure (panels/series/labels match
the paper's figure layout) plus the coarse qualitative trends that survive
small sample sizes.
"""

import numpy as np
import pytest

from repro.experiments.config import SimulationConfig
from repro.experiments.figures import FIGURES, get_figure, run_figure
from repro.experiments.figures import fig4, fig5, fig6, fig7, fig8, fig9
from repro.experiments.session import LadSession


@pytest.fixture(scope="module")
def tiny_config():
    return SimulationConfig(
        group_size=60,
        num_training_samples=50,
        training_samples_per_network=25,
        num_victims=50,
        victims_per_network=25,
        gz_omega=300,
        seed=4242,
    )


@pytest.fixture(scope="module")
def tiny_simulation(tiny_config):
    return LadSession(tiny_config)


class TestRegistry:
    def test_all_figures_registered(self):
        assert set(FIGURES) == {
            "fig4",
            "fig5",
            "fig6",
            "fig7",
            "fig8",
            "fig9",
            "figl",
            "figm",
            "figt",
        }

    def test_get_figure_lookup(self):
        assert get_figure("FIG7") is fig7.run
        with pytest.raises(KeyError):
            get_figure("fig99")

    def test_renderers_cover_every_figure(self):
        from repro.experiments.figures import FIGURE_RENDERERS, FIGURE_SPECS

        assert set(FIGURE_RENDERERS) == set(FIGURES) == set(FIGURE_SPECS)


class TestSpecRendering:
    """``run_figure_spec`` / ``ScenarioSpec.figure`` reproduce the drivers."""

    @pytest.mark.parametrize("figure_id", ["fig4", "fig5", "fig7", "fig8"])
    def test_run_figure_spec_matches_run_driver(
        self, figure_id, tiny_config, tiny_simulation
    ):
        from repro.experiments.figures import FIGURE_SPECS, run_figure_spec

        spec = FIGURE_SPECS[figure_id](tiny_config)
        via_spec = run_figure_spec(spec, session=tiny_simulation)
        via_run = run_figure(figure_id, simulation=tiny_simulation)
        assert via_spec.as_dict() == via_run.as_dict()

    def test_scenario_spec_figure_method(self, tiny_config, tiny_simulation):
        from repro.experiments.figures import fig7 as fig7_module

        spec = fig7_module.spec(tiny_config, degrees=(160.0,), fractions=(0.1,))
        result = spec.figure(session=tiny_simulation)
        assert result.figure_id == "fig7"
        assert result.get_panel("DR-D-x").get_series("x=10%")

    def test_unregistered_spec_name_raises(self, tiny_config):
        from repro.experiments.scenario import ScenarioSpec

        spec = ScenarioSpec(name="not_a_figure", config=tiny_config)
        with pytest.raises(KeyError, match="no figure renderer"):
            spec.figure()


class TestFig4(object):
    def test_structure_and_trends(self, tiny_simulation):
        result = fig4.run(simulation=tiny_simulation, degrees=(80.0, 160.0))
        assert result.figure_id == "fig4"
        assert [p.title for p in result.panels] == ["D=80", "D=160"]
        for panel in result.panels:
            labels = [s.label for s in panel.series]
            assert labels == ["Diff Metric", "Add All Metric", "Probability Metric"]
            for series in panel.series:
                # ROC curves: detection rate non-decreasing in FP, ending at 1.
                assert series.y[-1] == pytest.approx(1.0)
                assert all(b >= a - 1e-9 for a, b in zip(series.y, series.y[1:]))
        # Larger D should not hurt the Diff metric's detection at 5% FP.
        d80 = result.get_panel("D=80").get_series("Diff Metric").y_at(0.05)
        d160 = result.get_panel("D=160").get_series("Diff Metric").y_at(0.05)
        assert d160 >= d80 - 0.1


class TestFig5AndFig6:
    def test_fig5_structure(self, tiny_simulation):
        result = fig5.run(simulation=tiny_simulation, degrees=(40.0,))
        assert result.figure_id == "fig5"
        panel = result.get_panel("D=40")
        labels = [s.label for s in panel.series]
        assert labels == ["Dec-Bounded Attacks", "Dec-Only Attacks"]
        # Dec-Only is easier to detect (or equal) at every sampled FP.
        bounded = panel.get_series("Dec-Bounded Attacks")
        only = panel.get_series("Dec-Only Attacks")
        assert np.mean(np.array(only.y) - np.array(bounded.y)) >= -0.05

    def test_fig6_reuses_fig5_with_large_degrees(self, tiny_simulation):
        result = fig6.run(simulation=tiny_simulation, degrees=(160.0,))
        assert result.figure_id == "fig6"
        assert [p.title for p in result.panels] == ["D=160"]


class TestFig7:
    def test_structure_and_trend(self, tiny_simulation):
        result = fig7.run(
            simulation=tiny_simulation, degrees=(40.0, 160.0), fractions=(0.1,)
        )
        panel = result.get_panel("DR-D-x")
        series = panel.get_series("x=10%")
        assert series.x == [40.0, 160.0]
        assert series.y[1] >= series.y[0]
        assert all(0.0 <= y <= 1.0 for y in series.y)


class TestFig8:
    def test_structure_and_trend(self, tiny_simulation):
        result = fig8.run(
            simulation=tiny_simulation, fractions=(0.0, 0.5), degrees=(160.0,)
        )
        panel = result.get_panel("DR-x-D")
        series = panel.get_series("D=160")
        assert series.x == [0.0, 50.0]
        # More compromise cannot make detection easier.
        assert series.y[1] <= series.y[0] + 0.1


class TestFig9:
    def test_structure(self, tiny_config):
        result = fig9.run(
            config=tiny_config,
            group_sizes=(40, 80),
            degrees=(160.0,),
            fractions=(0.1,),
        )
        assert result.figure_id == "fig9"
        panel = result.get_panel("D=160")
        series = panel.get_series("x=10")
        assert series.x == [40.0, 80.0]
        assert all(0.0 <= y <= 1.0 for y in series.y)

    def test_density_fan_out_matches_serial(self, tiny_config):
        """Each density trains its own thresholds, so fig9 fans out across
        densities; the name-derived streams make the result identical."""
        kwargs = dict(
            config=tiny_config,
            group_sizes=(40, 80),
            degrees=(160.0,),
            fractions=(0.1, 0.3),
        )
        serial = fig9.run(**kwargs)
        parallel = fig9.run(**kwargs, density_workers=2)
        for panel_serial, panel_parallel in zip(serial.panels, parallel.panels):
            for a, b in zip(panel_serial.series, panel_parallel.series):
                assert a.label == b.label
                assert a.y == b.y

    def test_density_fan_out_falls_back_serially(self, tiny_config, monkeypatch):
        from repro.experiments import sweep as sweep_module

        def broken_pool(*args, **kwargs):
            raise OSError("no process support")

        monkeypatch.setattr(sweep_module, "ProcessPoolExecutor", broken_pool)
        with pytest.warns(RuntimeWarning, match="falling back to the serial path"):
            result = fig9.run(
                config=tiny_config,
                group_sizes=(40,),
                degrees=(160.0,),
                fractions=(0.1,),
                density_workers=2,
            )
        assert result.figure_id == "fig9"

    def test_warm_render_hits_the_callers_store(self, tiny_config, tmp_path):
        """Both renders count into the store object the caller passed: the
        cold one publishes every artifact, the warm one only hits."""
        from repro.experiments.store import ArtifactStore

        store = ArtifactStore(tmp_path)
        kwargs = dict(
            config=tiny_config,
            group_sizes=(40, 80),
            degrees=(160.0,),
            fractions=(0.1, 0.3),
            store=store,
        )
        cold = fig9.run(**kwargs)
        assert store.miss_counts["attacked_scores"] == 4
        store.hits = store.misses = 0
        store.hit_counts.clear()
        store.miss_counts.clear()
        warm = fig9.run(**kwargs)
        assert warm.as_dict() == cold.as_dict()
        assert store.misses == 0
        assert store.hit_counts["attacked_scores"] == 4
        assert store.hit_counts["benign_scores"] == 2


class TestFigL:
    def test_structure_and_localizer_series(self, tiny_config):
        from repro.experiments.figures import figl

        result = figl.run(
            config=tiny_config,
            localizers=("beaconless", "centroid"),
            degrees=(80.0, 160.0),
            fractions=(0.1,),
        )
        assert result.figure_id == "figl"
        panel = result.get_panel("x=10%")
        assert [s.label for s in panel.series] == ["beaconless", "centroid"]
        for series in panel.series:
            assert series.x == [80.0, 160.0]
            assert all(0.0 <= y <= 1.0 for y in series.y)
        # The effective beacon infrastructure is recorded for the reader.
        assert result.parameters["beacons"] is not None

    def test_localizer_fan_out_matches_serial(self, tiny_config):
        from repro.experiments.figures import figl

        kwargs = dict(
            config=tiny_config,
            localizers=("beaconless", "centroid"),
            degrees=(160.0,),
            fractions=(0.1,),
        )
        serial = figl.run(**kwargs)
        parallel = figl.run(**kwargs, density_workers=2)
        for panel_serial, panel_parallel in zip(serial.panels, parallel.panels):
            for a, b in zip(panel_serial.series, panel_parallel.series):
                assert a.label == b.label
                assert a.y == b.y


class TestFigM:
    def test_structure_is_the_attack_by_localizer_matrix(self, tiny_config):
        from repro.experiments.figures import figm

        result = figm.run(
            config=tiny_config,
            localizers=("dvhop", "rssi"),
            attacks=("dec_bounded", "rssi_amp"),
            degrees=(120.0,),
            fractions=(0.1,),
        )
        assert result.figure_id == "figm"
        assert [panel.title for panel in result.panels] == [
            "attack=dec_bounded",
            "attack=rssi_amp",
        ]
        for panel in result.panels:
            assert [s.label for s in panel.series] == ["dvhop", "rssi"]
            for series in panel.series:
                assert series.x == [120.0]
                assert all(0.0 <= y <= 1.0 for y in series.y)
        assert result.parameters["attacks"] == ["dec_bounded", "rssi_amp"]
        assert result.parameters["beacons"] is not None

    def test_modality_gating_shows_in_the_matrix(self, tiny_config):
        """The rssi_amp column is zero for every non-RSSI scheme.

        A modality attack against a scheme that never reads the attacked
        channel displaces nothing, so the claim distribution matches the
        benign one and the detection rate sits at (or below) the
        false-positive budget.
        """
        from repro.experiments.figures import figm

        result = figm.run(
            config=tiny_config,
            localizers=("dvhop", "rssi"),
            attacks=("rssi_amp",),
            degrees=(120.0,),
            fractions=(0.1,),
        )
        panel = result.get_panel("attack=rssi_amp")
        dvhop_rate = panel.get_series("dvhop").y[0]
        rssi_rate = panel.get_series("rssi").y[0]
        assert dvhop_rate <= 0.2  # futile attack: benign-level flagging
        assert rssi_rate > dvhop_rate  # the attacked modality is detectable

    def test_localizer_fan_out_matches_serial(self, tiny_config):
        from repro.experiments.figures import figm

        kwargs = dict(
            config=tiny_config,
            localizers=("dvhop", "rssi"),
            attacks=("dec_bounded", "rssi_amp"),
            degrees=(120.0,),
            fractions=(0.1,),
        )
        serial = figm.run(**kwargs)
        parallel = figm.run(**kwargs, density_workers=2)
        for panel_serial, panel_parallel in zip(serial.panels, parallel.panels):
            for a, b in zip(panel_serial.series, panel_parallel.series):
                assert a.label == b.label
                assert a.y == b.y

    def test_spec_render_matches_run_driver(self, tiny_config):
        from repro.experiments.figures import figm, run_figure_spec

        kwargs = dict(
            localizers=("dvhop", "rssi"),
            attacks=("dec_bounded", "rssi_amp"),
            degrees=(120.0,),
            fractions=(0.1,),
        )
        spec = figm.spec(tiny_config, **kwargs)
        via_spec = run_figure_spec(spec)
        via_run = figm.run(config=tiny_config, **kwargs)
        assert via_spec.as_dict() == via_run.as_dict()


class TestFigT:
    def test_structure_and_online_metrics(self, tiny_config):
        from repro.events import EventSpec, TimelineSpec
        from repro.experiments.figures import figt

        timeline = TimelineSpec(
            epochs=4,
            events=(EventSpec(kind="attack", action="on", at=(2.0,)),),
        )
        result = figt.run(
            config=tiny_config,
            timeline=timeline,
            degrees=(160.0,),
            fractions=(0.1,),
            false_positive_rate=0.05,
        )
        assert result.figure_id == "figt"
        assert len(result.panels) == 1
        panel = result.panels[0]
        assert [s.label for s in panel.series] == [
            "detection rate",
            "delivery rate",
            "false positives",
        ]
        for series in panel.series:
            assert series.x == [0.0, 1.0, 2.0, 3.0]
            assert all(0.0 <= y <= 1.0 for y in series.y)
        # Nothing is attacked before epoch 2, so nothing can be detected;
        # once the attack switches on the latency must record epoch 2.
        detection = panel.series[0]
        assert detection.y[0] == 0.0 and detection.y[1] == 0.0
        (point,) = result.parameters["points"]
        assert point["detection_latency"] == 2
        assert result.parameters["epochs"] == 4


class TestRunFigureDispatch:
    def test_run_figure_with_scale(self, tiny_config):
        result = run_figure(
            "fig7",
            config=tiny_config,
            scale=1.0,
            degrees=(160.0,),
            fractions=(0.1,),
        )
        assert result.figure_id == "fig7"
