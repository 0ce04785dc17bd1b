"""Tests for the per-figure experiment definitions.

Each figure is rendered through ``run_figure_spec`` at a very small
Monte-Carlo scale on a sparse network so the suite stays fast; the tests
check structure (panels/series/labels match the paper's figure layout)
plus the coarse qualitative trends that survive small sample sizes.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.experiments.config import SimulationConfig
from repro.experiments.figures import (
    FIGURE_RENDERERS,
    FIGURE_SPECS,
    fig4,
    fig5,
    fig6,
    fig7,
    fig8,
    fig9,
    figl,
    figm,
    figt,
    run_figure_spec,
)
from repro.experiments.scenario import ScenarioSpec
from repro.experiments.session import LadSession


#: The paper's (metrics, attacks, degrees, fractions) of Figures 4–8.
PAPER_AXES = {
    "fig4": (
        ("diff", "add_all", "probability"),
        ("dec_bounded",),
        (80.0, 120.0, 160.0),
        (0.1,),
    ),
    "fig5": (("diff",), ("dec_bounded", "dec_only"), (40.0, 80.0), (0.1,)),
    "fig6": (("diff",), ("dec_bounded", "dec_only"), (120.0, 160.0), (0.1,)),
    "fig7": (
        ("diff",),
        ("dec_bounded",),
        (40.0, 60.0, 80.0, 100.0, 120.0, 140.0, 160.0),
        (0.1, 0.2, 0.3),
    ),
    "fig8": (
        ("diff",),
        ("dec_bounded",),
        (80.0, 120.0, 160.0),
        (0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6),
    ),
}


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
        assert set(FIGURE_SPECS) == {
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

    def test_renderers_cover_every_figure(self):
        assert set(FIGURE_RENDERERS) == set(FIGURE_SPECS)

    @pytest.mark.parametrize("figure_id", sorted(PAPER_AXES))
    def test_presets_keep_the_paper_axes(self, figure_id):
        spec = FIGURE_SPECS[figure_id]()
        assert spec.name == figure_id
        axes = (spec.metrics, spec.attacks, spec.degrees, spec.fractions)
        assert axes == PAPER_AXES[figure_id]
        assert spec.false_positive_rate == 0.01
        assert spec.config == SimulationConfig()


class TestSpecRendering:
    """``run_figure_spec`` renders a spec through the renderer of its name."""

    def test_spec_renders_by_its_name(self, tiny_config, tiny_simulation):
        spec = fig7.spec(tiny_config, degrees=(160.0,), fractions=(0.1,))
        result = run_figure_spec(spec, session=tiny_simulation)
        assert result.figure_id == "fig7"
        assert result.get_panel("DR-D-x").get_series("x=10%")

    def test_figure_id_lookup(self, tiny_config, tiny_simulation):
        """An explicit id overrides the spec's name, case-insensitively."""
        spec = replace(
            fig7.spec(tiny_config, degrees=(160.0,), fractions=(0.1,)), name="mine"
        )
        result = run_figure_spec(spec, figure_id="FIG7", session=tiny_simulation)
        assert result.figure_id == "fig7"
        with pytest.raises(KeyError, match="no figure renderer"):
            run_figure_spec(spec, figure_id="fig99")

    def test_unregistered_spec_name_raises(self, tiny_config):
        spec = ScenarioSpec(name="not_a_figure", config=tiny_config)
        with pytest.raises(KeyError, match="no figure renderer"):
            run_figure_spec(spec)


class TestRemovedEntryPoints:
    """``run_figure_spec`` is the only way to render a figure."""

    @pytest.mark.parametrize("name", ["FIGURES", "get_figure", "run_figure"])
    def test_figure_registry_functions_removed(self, name):
        import repro
        import repro.experiments.figures as figures

        assert not hasattr(figures, name)
        with pytest.raises(AttributeError, match=name):
            getattr(repro, name)

    def test_run_drivers_removed(self):
        for figure in (fig4, fig5, fig6, fig7, fig8, fig9, figl, figm, figt):
            assert not hasattr(figure, "run"), figure
        assert not hasattr(ScenarioSpec, "figure")

    def test_roc_and_rate_helpers_removed(self):
        from repro.experiments.figures import common

        for name in (
            "resolve_session",
            "resolve_simulation",
            "roc_series",
            "run_roc_figure",
            "run_rate_figure",
            "_axis_point",
        ):
            assert not hasattr(common, name), name
        with pytest.raises(ModuleNotFoundError):
            import repro.experiments.figures.fig4  # noqa: F401


class TestFig4(object):
    def test_structure_and_trends(self, tiny_simulation):
        result = run_figure_spec(
            fig4.spec(degrees=(80.0, 160.0)), session=tiny_simulation
        )
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
        result = run_figure_spec(fig5.spec(degrees=(40.0,)), session=tiny_simulation)
        assert result.figure_id == "fig5"
        panel = result.get_panel("D=40")
        labels = [s.label for s in panel.series]
        assert labels == ["Dec-Bounded Attacks", "Dec-Only Attacks"]
        # Dec-Only is easier to detect (or equal) at every sampled FP.
        bounded = panel.get_series("Dec-Bounded Attacks")
        only = panel.get_series("Dec-Only Attacks")
        assert np.mean(np.array(only.y) - np.array(bounded.y)) >= -0.05

    def test_fig6_reuses_fig5_with_large_degrees(self, tiny_simulation):
        result = run_figure_spec(fig6.spec(degrees=(160.0,)), session=tiny_simulation)
        assert result.figure_id == "fig6"
        assert [p.title for p in result.panels] == ["D=160"]


class TestFig7:
    def test_structure_and_trend(self, tiny_simulation):
        result = run_figure_spec(
            fig7.spec(degrees=(40.0, 160.0), fractions=(0.1,)),
            session=tiny_simulation,
        )
        panel = result.get_panel("DR-D-x")
        series = panel.get_series("x=10%")
        assert series.x == [40.0, 160.0]
        assert series.y[1] >= series.y[0]
        assert all(0.0 <= y <= 1.0 for y in series.y)


class TestFig8:
    def test_structure_and_trend(self, tiny_simulation):
        result = run_figure_spec(
            fig8.spec(fractions=(0.0, 0.5), degrees=(160.0,)),
            session=tiny_simulation,
        )
        panel = result.get_panel("DR-x-D")
        series = panel.get_series("D=160")
        assert series.x == [0.0, 50.0]
        # More compromise cannot make detection easier.
        assert series.y[1] <= series.y[0] + 0.1


class TestFig9:
    def test_structure(self, tiny_config):
        result = run_figure_spec(
            fig9.spec(
                tiny_config, group_sizes=(40, 80), degrees=(160.0,), fractions=(0.1,)
            )
        )
        assert result.figure_id == "fig9"
        panel = result.get_panel("D=160")
        series = panel.get_series("x=10")
        assert series.x == [40.0, 80.0]
        assert all(0.0 <= y <= 1.0 for y in series.y)

    def test_density_fan_out_matches_serial(self, tiny_config):
        """Each density trains its own thresholds, so fig9 fans out across
        densities; the name-derived streams make the result identical."""
        spec = fig9.spec(
            tiny_config, group_sizes=(40, 80), degrees=(160.0,), fractions=(0.1, 0.3)
        )
        serial = run_figure_spec(spec)
        parallel = run_figure_spec(spec, density_workers=2)
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
            result = run_figure_spec(
                fig9.spec(
                    tiny_config, group_sizes=(40,), degrees=(160.0,), fractions=(0.1,)
                ),
                density_workers=2,
            )
        assert result.figure_id == "fig9"

    def test_warm_render_hits_the_callers_store(self, tiny_config, tmp_path):
        """Both renders count into the store object the caller passed: the
        cold one publishes every artifact, the warm one only hits."""
        from repro.experiments.store import ArtifactStore

        store = ArtifactStore(tmp_path)
        spec = fig9.spec(
            tiny_config, group_sizes=(40, 80), degrees=(160.0,), fractions=(0.1, 0.3)
        )
        cold = run_figure_spec(spec, store=store)
        assert store.miss_counts["attacked_scores"] == 4
        store.hits = store.misses = 0
        store.hit_counts.clear()
        store.miss_counts.clear()
        warm = run_figure_spec(spec, store=store)
        assert warm.as_dict() == cold.as_dict()
        assert store.misses == 0
        assert store.hit_counts["attacked_scores"] == 4
        assert store.hit_counts["benign_scores"] == 2


class TestFigL:
    def test_structure_and_localizer_series(self, tiny_config):
        spec = figl.spec(
            tiny_config,
            localizers=("beaconless", "centroid"),
            degrees=(80.0, 160.0),
            fractions=(0.1,),
        )
        result = run_figure_spec(spec)
        assert result.figure_id == "figl"
        panel = result.get_panel("x=10%")
        assert [s.label for s in panel.series] == ["beaconless", "centroid"]
        for series in panel.series:
            assert series.x == [80.0, 160.0]
            assert all(0.0 <= y <= 1.0 for y in series.y)
        # The effective beacon infrastructure is recorded for the reader.
        assert result.parameters["beacons"] is not None

    def test_localizer_fan_out_matches_serial(self, tiny_config):
        spec = figl.spec(
            tiny_config,
            localizers=("beaconless", "centroid"),
            degrees=(160.0,),
            fractions=(0.1,),
        )
        serial = run_figure_spec(spec)
        parallel = run_figure_spec(spec, density_workers=2)
        for panel_serial, panel_parallel in zip(serial.panels, parallel.panels):
            for a, b in zip(panel_serial.series, panel_parallel.series):
                assert a.label == b.label
                assert a.y == b.y


class TestFigM:
    def test_structure_is_the_attack_by_localizer_matrix(self, tiny_config):
        spec = figm.spec(
            tiny_config,
            localizers=("dvhop", "rssi"),
            attacks=("dec_bounded", "rssi_amp"),
            degrees=(120.0,),
            fractions=(0.1,),
        )
        result = run_figure_spec(spec)
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
        spec = figm.spec(
            tiny_config,
            localizers=("dvhop", "rssi"),
            attacks=("rssi_amp",),
            degrees=(120.0,),
            fractions=(0.1,),
        )
        result = run_figure_spec(spec)
        panel = result.get_panel("attack=rssi_amp")
        dvhop_rate = panel.get_series("dvhop").y[0]
        rssi_rate = panel.get_series("rssi").y[0]
        assert dvhop_rate <= 0.2  # futile attack: benign-level flagging
        assert rssi_rate > dvhop_rate  # the attacked modality is detectable

    def test_localizer_fan_out_matches_serial(self, tiny_config):
        spec = figm.spec(
            tiny_config,
            localizers=("dvhop", "rssi"),
            attacks=("dec_bounded", "rssi_amp"),
            degrees=(120.0,),
            fractions=(0.1,),
        )
        serial = run_figure_spec(spec)
        parallel = run_figure_spec(spec, density_workers=2)
        for panel_serial, panel_parallel in zip(serial.panels, parallel.panels):
            for a, b in zip(panel_serial.series, panel_parallel.series):
                assert a.label == b.label
                assert a.y == b.y


class TestFigT:
    def test_structure_and_online_metrics(self, tiny_config):
        from repro.events import EventSpec, TimelineSpec

        timeline = TimelineSpec(
            epochs=4,
            events=(EventSpec(kind="attack", action="on", at=(2.0,)),),
        )
        spec = figt.spec(
            tiny_config,
            timeline=timeline,
            degrees=(160.0,),
            fractions=(0.1,),
            false_positive_rate=0.05,
        )
        result = run_figure_spec(spec)
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
