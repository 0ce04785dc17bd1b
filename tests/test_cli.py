"""Tests for :mod:`repro.cli`."""

import json

import pytest

from repro.cli import build_parser, main
from repro.experiments.figures import FIGURE_SPECS

TINY_SPEC = """\
name = "cli_tiny"
metrics = ["diff"]
attacks = ["dec_bounded"]
degrees = [80.0, 160.0]
fractions = [0.1]
false_positive_rate = 0.05

[config]
group_size = 40
num_training_samples = 30
training_samples_per_network = 15
num_victims = 30
victims_per_network = 15
gz_omega = 300
seed = 777
"""


class TestParser:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["--version"])
        assert exc.value.code == 0

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_figure_arguments(self):
        args = build_parser().parse_args(
            ["figure", "fig7", "--scale", "0.1", "--group-size", "50"]
        )
        assert args.figure_id == "fig7"
        assert args.scale == 0.1
        assert args.group_size == 50

    def test_unknown_figure_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure", "fig99"])

    def test_config_flags_default_to_the_spec(self):
        """Omitted ``--group-size``/``--radio-range``/``--seed`` parse as
        ``None``: the spec's own ``[config]`` value stands."""
        for argv in (["figure", "fig7"], ["sweep", "spec.toml"]):
            args = build_parser().parse_args(argv)
            assert (args.group_size, args.radio_range, args.seed) == (None,) * 3

    def test_every_subcommand_binds_a_handler(self):
        """Dispatch runs through the handler table: each sub-parser sets
        ``func``, so ``main`` never falls through to a dead branch."""
        parser = build_parser()
        for argv in (
            ["figure", "fig4"],
            ["sweep", "spec.toml"],
            ["serve", "spec.toml"],
            ["loadgen", "spec.toml"],
            ["demo"],
            ["gz-table"],
        ):
            args = parser.parse_args(argv)
            assert callable(args.func), argv


class TestCommands:
    def test_gz_table_command(self, capsys):
        code = main(
            ["gz-table", "--radio-range", "80", "--sigma", "40", "--omega", "200"],
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "g(z) table" in out
        assert "max abs table error" in out

    def test_demo_command_small(self, capsys):
        code = main(
            [
                "demo",
                "--group-size",
                "40",
                "--victims",
                "30",
                "--degree",
                "160",
                "--seed",
                "3",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "detection rate @ 1% FP" in out

    def test_figure_command_writes_outputs(self, capsys, tmp_path):
        json_path = tmp_path / "fig7.json"
        csv_path = tmp_path / "fig7.csv"
        code = main(
            [
                "--verbose",
                "figure",
                "fig7",
                "--scale",
                "0.05",
                "--group-size",
                "40",
                "--seed",
                "11",
                "--json",
                str(json_path),
                "--csv",
                str(csv_path),
            ]
        )
        assert code == 0
        assert json_path.exists() and csv_path.exists()
        data = json.loads(json_path.read_text())
        assert data["figure_id"] == "fig7"
        out = capsys.readouterr().out
        assert "Detection rate vs degree of damage" in out


class TestSweepCommand:
    def test_sweep_streams_results_and_writes_outputs(self, capsys, tmp_path):
        spec_path = tmp_path / "tiny.toml"
        spec_path.write_text(TINY_SPEC)
        json_path = tmp_path / "out.json"
        csv_path = tmp_path / "out.csv"
        code = main(
            [
                "sweep",
                str(spec_path),
                "--json",
                str(json_path),
                "--csv",
                str(csv_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "scenario 'cli_tiny': 2 point(s)" in out
        assert "[2/2]" in out
        payload = json.loads(json_path.read_text())
        assert payload["spec"]["name"] == "cli_tiny"
        assert len(payload["results"]) == 2
        assert {row["degree_of_damage"] for row in payload["results"]} == {
            80.0,
            160.0,
        }
        assert csv_path.read_text().startswith("group_size,")

    def test_sweep_cache_dir_warm_run_hits(self, capsys, tmp_path):
        spec_path = tmp_path / "tiny.toml"
        spec_path.write_text(TINY_SPEC)
        cache = tmp_path / "cache"
        assert main(["sweep", str(spec_path), "--cache-dir", str(cache)]) == 0
        cold = capsys.readouterr().out
        assert "cache: 0 hit(s)" in cold
        assert main(["sweep", str(spec_path), "--cache-dir", str(cache)]) == 0
        warm = capsys.readouterr().out
        assert ", 0 miss(es)" in warm

        def rows(text):
            return [
                line for line in text.splitlines() if line.strip().startswith("40 ")
            ]

        assert rows(cold) == rows(warm)

    def test_seed_flag_reseeds_the_spec(self, capsys, tmp_path):
        """``sweep SPEC --seed 5`` equals the spec with ``seed = 5`` in its
        ``[config]``, and differs from the spec's own seed."""
        spec_path = tmp_path / "tiny.toml"
        spec_path.write_text(TINY_SPEC)
        edited_path = tmp_path / "tiny_seed5.toml"
        edited_path.write_text(TINY_SPEC.replace("seed = 777", "seed = 5"))
        csvs = {name: tmp_path / f"{name}.csv" for name in ("own", "flag", "edited")}
        assert main(["sweep", str(spec_path), "--csv", str(csvs["own"])]) == 0
        flag_argv = ["sweep", str(spec_path), "--seed", "5", "--csv", str(csvs["flag"])]
        assert main(flag_argv) == 0
        assert main(["sweep", str(edited_path), "--csv", str(csvs["edited"])]) == 0
        capsys.readouterr()
        assert csvs["flag"].read_bytes() == csvs["edited"].read_bytes()
        assert csvs["flag"].read_bytes() != csvs["own"].read_bytes()

    def test_group_size_and_radio_range_flags_reach_the_config(self, capsys, tmp_path):
        spec_path = tmp_path / "tiny.toml"
        spec_path.write_text(TINY_SPEC)
        json_path = tmp_path / "out.json"
        argv = ["sweep", str(spec_path), "--group-size", "30", "--radio-range", "60"]
        assert main([*argv, "--json", str(json_path)]) == 0
        out = capsys.readouterr().out
        config = json.loads(json_path.read_text())["spec"]["config"]
        assert (config["group_size"], config["radio_range"]) == (30, 60.0)
        assert config["seed"] == 777
        assert "    30 " in out

    def test_group_size_rejected_on_a_density_axis(self, tmp_path):
        """A ``group_sizes`` axis overrides ``config.group_size`` in every
        session, so ``--group-size`` would be silently dropped: it raises."""
        spec_path = tmp_path / "density.toml"
        spec_path.write_text(
            TINY_SPEC.replace(
                "fractions = [0.1]", "fractions = [0.1]\ngroup_sizes = [40]"
            )
        )
        with pytest.raises(ValueError, match="group_sizes"):
            main(["sweep", str(spec_path), "--group-size", "60"])
        with pytest.raises(ValueError, match="group_sizes"):
            main(["figure", "fig9", "--scale", "0.05", "--group-size", "40"])

    def test_sweep_rejects_bad_spec(self, tmp_path):
        bad = tmp_path / "bad.toml"
        bad.write_text('metrics = ["entropy"]\n')
        with pytest.raises(ValueError, match="unknown metric"):
            main(["sweep", str(bad)])

    def test_sweep_localizer_override_and_beacon_flags(self, capsys, tmp_path):
        spec_path = tmp_path / "tiny.toml"
        spec_path.write_text(TINY_SPEC)
        code = main(
            [
                "sweep",
                str(spec_path),
                "--localizer",
                "centroid",
                "--beacon-count",
                "9",
                "--beacon-layout",
                "grid",
                "--beacon-range",
                "450",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "1 localizer(s) [centroid]" in out
        assert " centroid " in out

    def test_sweep_localizer_axis_spec(self, capsys, tmp_path):
        spec_path = tmp_path / "multi.toml"
        spec_path.write_text(
            TINY_SPEC.replace(
                'false_positive_rate = 0.05',
                'localizers = ["beaconless", "mmse"]\n'
                'false_positive_rate = 0.05',
            )
        )
        json_path = tmp_path / "out.json"
        assert main(["sweep", str(spec_path), "--json", str(json_path)]) == 0
        out = capsys.readouterr().out
        assert "2 localizer(s) [beaconless, mmse]" in out
        assert "[4/4]" in out
        payload = json.loads(json_path.read_text())
        assert {row["localizer"] for row in payload["results"]} == {
            "beaconless",
            "mmse",
        }


TEMPORAL_SPEC = (
    TINY_SPEC.replace('name = "cli_tiny"', 'name = "cli_temporal"').replace(
        "degrees = [80.0, 160.0]", "degrees = [120.0]"
    )
    + """
[timeline]
epochs = 6

[[timeline.events]]
kind = "attack"
action = "on"
at = [3.0]
"""
)


class TestTemporalCli:
    def test_figt_is_a_registered_figure_choice(self):
        args = build_parser().parse_args(["figure", "figt"])
        assert args.figure_id == "figt"

    def test_timeline_flags_parse_on_figure_and_sweep(self):
        for command in (["figure", "figt"], ["sweep", "spec.toml"]):
            args = build_parser().parse_args(
                [
                    *command,
                    "--epochs",
                    "6",
                    "--epoch-duration",
                    "0.5",
                    "--attack-epoch",
                    "2",
                ]
            )
            assert args.epochs == 6
            assert args.epoch_duration == 0.5
            assert args.attack_epoch == 2.0

    def test_sweep_with_timeline_reports_online_metrics(self, capsys, tmp_path):
        spec_path = tmp_path / "temporal.toml"
        spec_path.write_text(TEMPORAL_SPEC)
        json_path = tmp_path / "out.json"
        assert main(["sweep", str(spec_path), "--json", str(json_path)]) == 0
        out = capsys.readouterr().out
        assert "timeline: 6 epoch(s)" in out
        assert "latency=3" in out
        payload = json.loads(json_path.read_text())
        row = payload["temporal"][0]
        assert row["detection_latency"] == 3
        assert len(row["detection_rates"]) == 6
        assert payload["spec"]["timeline"]["epochs"] == 6

    def test_sweep_temporal_cache_cold_then_warm_identical(self, capsys, tmp_path):
        spec_path = tmp_path / "temporal.toml"
        spec_path.write_text(TEMPORAL_SPEC)
        cache = tmp_path / "cache"
        assert main(["sweep", str(spec_path), "--cache-dir", str(cache)]) == 0
        cold = capsys.readouterr().out
        assert "temporal outcomes for 0/1 point(s) served from cache" in cold
        assert main(["sweep", str(spec_path), "--cache-dir", str(cache)]) == 0
        warm = capsys.readouterr().out
        assert ", 0 miss(es)" in warm
        assert "temporal outcomes for 1/1 point(s) served from cache" in warm

        def rows(text):
            return [
                line
                for line in text.splitlines()
                if not line.startswith(("cache:", "scenario", "timeline"))
            ]

        assert rows(cold) == rows(warm)

    def test_attack_epoch_flag_builds_a_timeline(self, capsys, tmp_path):
        """--attack-epoch turns a static spec temporal (enough epochs to
        observe the latency, attack events replaced by one switch-on)."""
        spec_path = tmp_path / "tiny.toml"
        spec_path.write_text(TINY_SPEC)
        json_path = tmp_path / "out.json"
        code = main(
            [
                "sweep",
                str(spec_path),
                "--attack-epoch",
                "2",
                "--json",
                str(json_path),
            ]
        )
        assert code == 0
        payload = json.loads(json_path.read_text())
        timeline = payload["spec"]["timeline"]
        assert timeline["epochs"] == 6  # ceil(2/1) + 4
        assert timeline["events"][0]["at"] == [2.0]
        assert all(row["detection_latency"] == 2 for row in payload["temporal"])


#: TEMPORAL_SPEC over four degrees of damage.  A point's shard hashes its
#: stream name, and under ``--shard i/2`` each shard owns two of these.
TEMPORAL_FLEET_SPEC = TEMPORAL_SPEC.replace(
    "degrees = [120.0]", "degrees = [80.0, 100.0, 120.0, 160.0]"
)


class TestTemporalFleet:
    """``--status`` and ``--shard`` count the temporal records a spec writes.

    Both tests replay a shard killed between its static and temporal
    passes: shard 0/2 runs, then its ``temporal/*.npz`` records vanish.
    """

    @pytest.fixture()
    def half_fleet(self, capsys, tmp_path):
        spec_path = tmp_path / "fleet.toml"
        spec_path.write_text(TEMPORAL_FLEET_SPEC)
        cache = tmp_path / "cache"
        args = ["sweep", str(spec_path), "--cache-dir", str(cache)]
        assert main([*args, "--shard", "0/2"]) == 0
        assert "[2/2]" in capsys.readouterr().out
        records = sorted((cache / "temporal").glob("*.npz"))
        assert len(records) == 2
        for record in records:
            record.unlink()
        return args

    def test_status_counts_missing_temporal_records(self, capsys, half_fleet):
        assert main([*half_fleet, "--status"]) == 0
        out = capsys.readouterr().out
        assert "status: 2/8 point(s) done\n" in out
        assert "attacked_scores: 2/4 point(s) done\n" in out
        assert "temporal: 0/4 point(s) done\n" in out

    @pytest.mark.parametrize("state", ["cold", "half"])
    def test_status_writes_nothing(self, capsys, tmp_path, request, state):
        """``--status`` only reads the store: a cache dir that does not
        exist stays absent, and a half-filled one keeps every file's size
        and mtime."""
        cache = tmp_path / "cache"
        if state == "half":
            args = request.getfixturevalue("half_fleet")
        else:
            spec_path = tmp_path / "fleet.toml"
            spec_path.write_text(TEMPORAL_FLEET_SPEC)
            args = ["sweep", str(spec_path), "--cache-dir", str(cache)]

        def snapshot():
            return {
                path: (path.stat().st_size, path.stat().st_mtime_ns)
                for path in cache.rglob("*")
            }

        before = snapshot()
        assert main([*args, "--status"]) == 0
        if state == "cold":
            assert not cache.exists()
        assert snapshot() == before
        done = {"cold": 0, "half": 2}[state]
        assert f"status: {done}/8 point(s) done\n" in capsys.readouterr().out

    def test_finishing_shard_waits_for_missing_temporal_records(
        self, capsys, tmp_path, half_fleet
    ):
        assert main([*half_fleet, "--shard", "1/2"]) == 0
        out = capsys.readouterr().out
        assert "[2/2]" in out
        assert "shard 1/2: slice done; 6/8 grid point(s) in cache — waiting" in out
        assert "rendering merged results" not in out

        # Shard 0 reruns and finds the grid complete.  Its merge pass serves
        # every temporal record from cache, so its temporal misses are its
        # own two points, and its merged JSON equals a serial run's.
        merged = tmp_path / "merged.json"
        assert main([*half_fleet, "--shard", "0/2", "--json", str(merged)]) == 0
        out = capsys.readouterr().out
        assert "shard 0/2: all 8 grid point(s) in cache" in out
        assert "temporal outcomes for 4/6 point(s) served from cache" in out
        serial = tmp_path / "serial.json"
        assert main([*half_fleet[:2], "--json", str(serial)]) == 0
        assert merged.read_text() == serial.read_text()


class TestBackendsCommand:
    def test_backends_lists_and_probes(self, capsys):
        assert main(["backends"]) == 0
        out = capsys.readouterr().out
        assert "numpy" in out
        assert "torch" in out
        assert "aliases: np" in out
        # The numpy reference is always available; torch's probe must
        # report *something* rather than crash when it is absent.
        assert "bit-exact reference" in out

    def test_backend_flags_parse(self):
        args = build_parser().parse_args(
            ["sweep", "spec.toml", "--backend", "numpy", "--backend-device", "cpu"]
        )
        assert args.backend == "numpy"
        assert args.backend_device == "cpu"
        args = build_parser().parse_args(["figure", "fig7", "--backend", "np"])
        assert args.backend == "np"

    def test_sweep_backend_numpy_aliases_backendless_cache(
        self, capsys, tmp_path
    ):
        """`--backend numpy` must fully reuse a cache written without any
        backend selection (the numpy-exact aliasing contract, CLI level)."""
        spec_path = tmp_path / "tiny.toml"
        spec_path.write_text(TINY_SPEC)
        cache = tmp_path / "cache"
        assert main(["sweep", str(spec_path), "--cache-dir", str(cache)]) == 0
        cold = capsys.readouterr().out
        assert main(
            [
                "sweep",
                str(spec_path),
                "--cache-dir",
                str(cache),
                "--backend",
                "numpy",
            ]
        ) == 0
        warm = capsys.readouterr().out
        assert ", 0 miss(es)" in warm

        def rows(text):
            return [
                line for line in text.splitlines() if line.strip().startswith("40 ")
            ]

        assert rows(cold) == rows(warm)

    def test_unknown_backend_rejected(self, tmp_path):
        spec_path = tmp_path / "tiny.toml"
        spec_path.write_text(TINY_SPEC)
        with pytest.raises(ValueError, match="unknown backend"):
            main(["sweep", str(spec_path), "--backend", "fortran"])


class TestServingCli:
    def test_serve_and_loadgen_share_parent_flags(self):
        """The service-source and micro-batching flag groups come from
        shared parent parsers, so both subcommands accept them all."""
        parser = build_parser()
        shared = [
            "spec.toml",
            "--metric",
            "diff",
            "--metric",
            "add_all",
            "--fp-rate",
            "0.02",
            "--group-size",
            "50",
            "--max-batch-size",
            "16",
            "--max-wait-ms",
            "1.5",
            "--queue-size",
            "64",
            "--overflow",
            "block",
            "--retry-after-ms",
            "33",
            "--warm",
        ]
        for command in ("serve", "loadgen"):
            args = parser.parse_args([command, *shared])
            assert args.metric == ["diff", "add_all"]
            assert args.fp_rate == 0.02
            assert args.group_size == 50
            assert args.max_batch_size == 16
            assert args.max_wait_ms == 1.5
            assert args.queue_size == 64
            assert args.overflow == "block"
            assert args.retry_after_ms == 33.0
            assert args.warm

    def test_serve_specific_flags(self):
        args = build_parser().parse_args(
            ["serve", "spec.toml", "--port", "0", "--host", "0.0.0.0"]
        )
        assert args.port == 0
        assert args.host == "0.0.0.0"
        # Default transport is stdin (no port).
        assert build_parser().parse_args(["serve", "spec.toml"]).port is None

    def test_loadgen_in_process_smoke(self, capsys, tmp_path):
        """`loadgen` against an in-process runtime reports latency
        percentiles, throughput, and runtime batching stats."""
        spec_path = tmp_path / "tiny.toml"
        spec_path.write_text(TINY_SPEC)
        json_path = tmp_path / "load.json"
        code = main(
            [
                "loadgen",
                str(spec_path),
                "--claims",
                "60",
                "--max-wait-ms",
                "1",
                "--json",
                str(json_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "60/60 verdicts" in out
        assert "p50" in out and "p99" in out
        payload = json.loads(json_path.read_text())
        assert payload["report"]["completed"] == 60
        assert payload["report"]["p99_ms"] >= payload["report"]["p50_ms"]
        assert payload["runtime"]["completed"] == 60

    def test_serve_stdio_round_trip(self, capsys, tmp_path, monkeypatch):
        """`serve` without --port answers JSONL claims from stdin."""
        import io

        spec_path = tmp_path / "tiny.toml"
        spec_path.write_text(TINY_SPEC)
        requests = "\n".join(
            [
                json.dumps({"id": "good", "observation": [0.0] * 100}),
                json.dumps({"id": "short", "observation": [1.0]}),
            ]
        )
        monkeypatch.setattr("sys.stdin", io.StringIO(requests + "\n"))
        code = main(["serve", str(spec_path), "--group-size", "40"])
        assert code == 0
        responses = [
            json.loads(line)
            for line in capsys.readouterr().out.strip().splitlines()
        ]
        by_id = {response["id"]: response for response in responses}
        assert by_id["good"]["decision"] in ("accept", "flag")
        assert "group" in by_id["short"]["error"]

    def test_loadgen_rejects_bad_connect_address(self, tmp_path):
        spec_path = tmp_path / "tiny.toml"
        spec_path.write_text(TINY_SPEC)
        with pytest.raises(ValueError, match="HOST:PORT"):
            main(["loadgen", str(spec_path), "--connect", "nocolon"])


class TestSweepFiguresMode:
    ARGS = ["--scale", "0.05", "--group-size", "40", "--seed", "11"]

    def test_figures_mode_matches_figure_driver(self, capsys, tmp_path):
        """`sweep --figures fig7 --json` must emit exactly the series the
        `figure fig7` driver emits (same config, same seed)."""
        fig_json = tmp_path / "figure.json"
        sweep_json = tmp_path / "sweep.json"
        sweep_csv = tmp_path / "sweep.csv"
        assert main(["figure", "fig7", *self.ARGS, "--json", str(fig_json)]) == 0
        assert (
            main(
                [
                    "sweep",
                    "--figures",
                    "fig7",
                    *self.ARGS,
                    "--json",
                    str(sweep_json),
                    "--csv",
                    str(sweep_csv),
                ]
            )
            == 0
        )
        assert json.loads(fig_json.read_text()) == json.loads(
            sweep_json.read_text()
        )
        assert sweep_csv.read_text().startswith("figure,panel,series,")
        out = capsys.readouterr().out
        assert "Detection rate vs degree of damage" in out

    def test_figures_mode_accepts_figure_shaped_spec_file(
        self, capsys, tmp_path
    ):
        """A spec file whose name matches a registered figure renders
        through the same per-figure presentation."""
        from repro.experiments.config import SimulationConfig
        from repro.experiments.figures import fig7

        spec = fig7.spec(
            SimulationConfig(group_size=40, seed=11), scale=0.05, degrees=(160.0,)
        )
        spec_path = tmp_path / "custom_fig7.toml"
        spec.to_file(spec_path)
        assert main(["sweep", "--figures", str(spec_path)]) == 0
        out = capsys.readouterr().out
        assert "fig7" in out and "DR-D-x" in out

    @pytest.mark.parametrize("figure_id", sorted(FIGURE_SPECS))
    def test_every_figure_renders_from_its_spec_file(self, figure_id, capsys, tmp_path):
        """Each registered spec round-trips through a TOML file, and
        ``sweep --figures FILE`` renders it exactly as ``figure ID`` does."""
        from repro.experiments.config import SimulationConfig
        from repro.experiments.scenario import ScenarioSpec

        config = SimulationConfig(group_size=40, seed=11)
        spec = FIGURE_SPECS[figure_id](config=config, scale=0.05)
        spec_path = tmp_path / f"{figure_id}.toml"
        spec.to_file(spec_path)
        assert ScenarioSpec.from_file(spec_path) == spec
        file_json = tmp_path / "file.json"
        file_argv = ["sweep", "--figures", str(spec_path), "--json", str(file_json)]
        assert main(file_argv) == 0
        args = ["--scale", "0.05", "--seed", "11"]
        if figure_id != "fig9":  # fig9's group_sizes axis sets every density
            args += ["--group-size", "40"]
        figure_json = tmp_path / "figure.json"
        assert main(["figure", figure_id, *args, "--json", str(figure_json)]) == 0
        capsys.readouterr()
        assert json.loads(file_json.read_text()) == json.loads(figure_json.read_text())

    def test_spec_file_route_applies_config_flags(self, capsys, tmp_path):
        """``--seed`` reaches the ``[config]`` of a figure spec file too."""
        from repro.experiments.config import SimulationConfig
        from repro.experiments.figures import fig7

        spec = fig7.spec(SimulationConfig(group_size=40, seed=11), scale=0.05)
        spec_path = tmp_path / "fig7.toml"
        spec.to_file(spec_path)
        file_json = tmp_path / "file.json"
        figure_json = tmp_path / "figure.json"
        file_argv = ["sweep", "--figures", str(spec_path), "--seed", "5"]
        assert main([*file_argv, "--json", str(file_json)]) == 0
        reseeded = ["--scale", "0.05", "--group-size", "40", "--seed", "5"]
        assert main(["figure", "fig7", *reseeded, "--json", str(figure_json)]) == 0
        seed11_json = tmp_path / "seed11.json"
        assert main(["figure", "fig7", *self.ARGS, "--json", str(seed11_json)]) == 0
        capsys.readouterr()
        assert json.loads(file_json.read_text()) == json.loads(figure_json.read_text())
        assert file_json.read_text() != seed11_json.read_text()

    def test_figure_reports_cache_counts(self, capsys, tmp_path):
        """``figure`` runs the ``sweep --figures`` body, cache lines included."""
        args = ["figure", "fig7", *self.ARGS, "--cache-dir", str(tmp_path)]
        assert main(args) == 0
        assert "cache: 0 hit(s)" in capsys.readouterr().out
        assert main(args) == 0
        assert ", 0 miss(es)" in capsys.readouterr().out

    def test_figures_mode_rejects_unknown_id(self):
        with pytest.raises(ValueError, match="neither a spec file"):
            main(["sweep", "--figures", "fig99"])

    def test_figure_localizer_override_matches_sweep_figures(
        self, capsys, tmp_path
    ):
        """`figure fig7 --localizer centroid` equals the sweep --figures
        route with the same override (both paths fold the flags in)."""
        flags = [*self.ARGS, "--localizer", "centroid", "--beacon-count", "9"]
        fig_json = tmp_path / "figure.json"
        sweep_json = tmp_path / "sweep.json"
        assert main(["figure", "fig7", *flags, "--json", str(fig_json)]) == 0
        assert (
            main(
                ["sweep", "--figures", "fig7", *flags, "--json", str(sweep_json)]
            )
            == 0
        )
        capsys.readouterr()
        assert json.loads(fig_json.read_text()) == json.loads(
            sweep_json.read_text()
        )

    def test_figl_figure_runs_from_cli(self, capsys, tmp_path):
        json_path = tmp_path / "figl.json"
        code = main(
            [
                "figure",
                "figl",
                "--scale",
                "0.05",
                "--group-size",
                "40",
                "--seed",
                "11",
                "--json",
                str(json_path),
            ]
        )
        assert code == 0
        data = json.loads(json_path.read_text())
        assert data["figure_id"] == "figl"
        labels = [s["label"] for s in data["panels"][0]["series"]]
        assert labels == ["beaconless", "centroid", "mmse", "dvhop", "apit"]
        out = capsys.readouterr().out
        assert "per localization scheme" in out

    def test_figm_figure_runs_from_cli(self, capsys, tmp_path):
        json_path = tmp_path / "figm.json"
        code = main(
            [
                "figure",
                "figm",
                "--scale",
                "0.05",
                "--group-size",
                "40",
                "--seed",
                "11",
                "--json",
                str(json_path),
            ]
        )
        assert code == 0
        data = json.loads(json_path.read_text())
        assert data["figure_id"] == "figm"
        assert [p["title"] for p in data["panels"]] == [
            "attack=dec_bounded",
            "attack=rssi_amp",
            "attack=tdoa_skew",
        ]
        labels = [s["label"] for s in data["panels"][0]["series"]]
        assert labels == [
            "beaconless",
            "centroid",
            "mmse",
            "dvhop",
            "apit",
            "rssi",
            "tdoa",
        ]
        out = capsys.readouterr().out
        assert "robustness matrix" in out

    def test_figures_mode_cache_dir_round_trip(self, capsys, tmp_path):
        cache = tmp_path / "cache"
        args = ["sweep", "--figures", "fig7", *self.ARGS]
        assert main([*args, "--cache-dir", str(cache)]) == 0
        cold = capsys.readouterr().out
        assert main([*args, "--cache-dir", str(cache)]) == 0
        warm = capsys.readouterr().out
        assert ", 0 miss(es)" in warm
        assert "served from cache" in warm

        def series(text):
            return [
                line
                for line in text.splitlines()
                if not line.startswith(("cache:", "[written]"))
            ]

        assert series(cold) == series(warm)
