"""Command-line interface.

``lad-repro`` (or ``python -m repro.cli``) exposes the figure-reproduction
harness, declarative scenario sweeps and a small end-to-end demo from the
command line::

    lad-repro figure fig7 --scale 0.25 --json results/fig7.json
    lad-repro figure figl --scale 0.1 --beacon-count 25   # per-localizer DR
    lad-repro sweep scenario.toml --workers 4 --cache-dir ~/.cache/lad
    lad-repro sweep scenario.toml --localizer centroid --beacon-layout grid
    lad-repro sweep --figures fig4 --json results/fig4.json
    lad-repro sweep scenario.toml --backend torch --backend-device cuda
    lad-repro sweep scenario.toml --shard 0/4 --cache-dir /shared/lad
    lad-repro sweep scenario.toml --status --cache-dir /shared/lad
    lad-repro backends
    lad-repro serve scenario.toml --port 0 --cache-dir ~/.cache/lad --warm
    lad-repro loadgen scenario.toml --claims 500 --rate 2000
    lad-repro demo --degree 120 --metric diff
    lad-repro gz-table --radio-range 100 --sigma 50

Subcommands dispatch through a handler table (each sub-parser binds its
handler via ``set_defaults(func=...)``), so adding a command is one parser
block plus one function.  ``sweep`` runs any
:class:`~repro.experiments.scenario.ScenarioSpec` file (TOML or JSON) and
streams per-point results as they complete; ``sweep --figures`` renders a
registered figure spec (or a figure-shaped spec file) into the same
FigureResult series as ``lad-repro figure``.  With ``--cache-dir`` the
trained thresholds, victim samples and per-point attacked scores persist
across runs, so a re-run skips the training pass entirely and an
interrupted sweep resumes by recomputing only the missing points.

``serve`` turns a trained scenario into a streaming verification service
(JSONL over stdin or TCP) with micro-batching and bounded-queue
backpressure; ``loadgen`` drives one — in-process or over TCP — and
reports sustained claims/sec plus p50/p99 latency.  Flag groups shared by
several subcommands (``--workers``, ``--cache-dir``, the localizer /
beacon and backend overrides, the micro-batching knobs) are defined once
as argparse *parent parsers*, so every subcommand that composes a parent
gets the exact same flags and help text.

No plotting dependency is required: figures are printed as aligned text
tables (the same series the paper plots).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path
from typing import Optional, Sequence

from repro._version import __version__
from repro.utils.logging import configure_logging

__all__ = ["main", "build_parser"]


def _workers_parent() -> argparse.ArgumentParser:
    """Parent parser: the ``--workers`` flag of the sweep-running commands."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--workers",
        type=int,
        default=0,
        help="worker processes for the per-point scoring (0 = serial)",
    )
    return parent


def _cache_parent() -> argparse.ArgumentParser:
    """Parent parser: the ``--cache-dir`` artifact-store flag."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--cache-dir",
        type=Path,
        default=None,
        help=(
            "artifact store directory: trained thresholds, victim samples "
            "and per-point attacked scores persist here, so repeated runs "
            "(and warm service starts) skip the training pass"
        ),
    )
    return parent


def _output_parent() -> argparse.ArgumentParser:
    """Parent parser: the ``--json`` / ``--csv`` result-file flags."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--json", type=Path, default=None, help="write the results as JSON"
    )
    parent.add_argument(
        "--csv", type=Path, default=None, help="write the results as CSV"
    )
    return parent


def _figure_config_parent() -> argparse.ArgumentParser:
    """Parent parser: config knobs shared by ``figure`` and ``sweep``.

    Each given flag replaces that field of the spec's ``[config]``; an
    omitted one keeps the spec's value (for a figure id, the paper's).
    """
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="Monte-Carlo sample-size scale factor (use <1 for quick runs)",
    )
    parent.add_argument(
        "--group-size",
        type=int,
        default=None,
        help=(
            "sensors per group m (not for specs with a group_sizes "
            "density axis)"
        ),
    )
    parent.add_argument(
        "--radio-range", type=float, default=None, help="radio range R (m)"
    )
    parent.add_argument("--seed", type=int, default=None, help="master random seed")
    return parent


def _localizer_parent() -> argparse.ArgumentParser:
    """Parent parser: the ``--localizer`` / ``--beacon-*`` override group."""
    parent = argparse.ArgumentParser(add_help=False)
    _add_localizer_arguments(parent)
    return parent


def _timeline_parent() -> argparse.ArgumentParser:
    """Parent parser: the ``--epochs`` / ``--attack-epoch`` timeline group."""
    parent = argparse.ArgumentParser(add_help=False)
    group = parent.add_argument_group(
        "timeline",
        "override the spec's [timeline] table (temporal scenarios: "
        "mobility, churn, mid-run attacks with detection latency)",
    )
    group.add_argument(
        "--epochs",
        type=int,
        default=None,
        help="number of scoring epochs of the timeline",
    )
    group.add_argument(
        "--epoch-duration",
        type=float,
        default=None,
        help="time units between consecutive epochs",
    )
    group.add_argument(
        "--attack-epoch",
        type=float,
        default=None,
        help=(
            "replace the timeline's attack events with a single full "
            "attack switching on at this time (creates a timeline when "
            "the spec has none)"
        ),
    )
    return parent


def _backend_parent() -> argparse.ArgumentParser:
    """Parent parser: the ``--backend*`` override group."""
    parent = argparse.ArgumentParser(add_help=False)
    _add_backend_arguments(parent)
    return parent


def _service_source_parent() -> argparse.ArgumentParser:
    """Parent parser: how ``serve`` / ``loadgen`` build their service."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "spec",
        type=Path,
        help="ScenarioSpec file (.toml or .json) the service is trained from",
    )
    group = parent.add_argument_group(
        "service construction",
        "which trained state the detection service loads",
    )
    group.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="Monte-Carlo sample-size scale factor for the training pass",
    )
    group.add_argument(
        "--group-size",
        type=int,
        default=None,
        help="override the spec's sensors per group m",
    )
    group.add_argument(
        "--metric",
        action="append",
        default=None,
        help=(
            "metric to train and serve a threshold for (repeatable; "
            "default: the spec's metrics)"
        ),
    )
    group.add_argument(
        "--fp-rate",
        type=float,
        default=None,
        help="false-positive budget of the thresholds (default: the spec's)",
    )
    group.add_argument(
        "--warm",
        action="store_true",
        help=(
            "require a warm --cache-dir: startup loads every trained "
            "artifact from the store and never trains (missing artifacts "
            "are an error, not a silent cold start)"
        ),
    )
    return parent


def _serving_parent() -> argparse.ArgumentParser:
    """Parent parser: micro-batching / backpressure knobs of the runtime."""
    parent = argparse.ArgumentParser(add_help=False)
    group = parent.add_argument_group(
        "micro-batching",
        "how the service batches queued claims and sheds overload",
    )
    group.add_argument(
        "--max-batch-size",
        type=int,
        default=32,
        help="flush a micro-batch at this many claims",
    )
    group.add_argument(
        "--max-wait-ms",
        type=float,
        default=2.0,
        help="flush an incomplete batch this long after its first claim",
    )
    group.add_argument(
        "--queue-size",
        type=int,
        default=1024,
        help="bound of the admission queue (the backpressure trigger)",
    )
    group.add_argument(
        "--overflow",
        choices=["reject", "block"],
        default="reject",
        help=(
            "full-queue policy: reject fails fast with a retry-after hint, "
            "block parks the submitter"
        ),
    )
    group.add_argument(
        "--retry-after-ms",
        type=float,
        default=20.0,
        help="back-off hint attached to rejected claims",
    )
    return parent


def _add_localizer_arguments(parser: argparse.ArgumentParser) -> None:
    """Localizer / beacon-infrastructure overrides shared by figure+sweep."""
    group = parser.add_argument_group(
        "localizer / beacons",
        "override the spec's localization scheme and beacon infrastructure "
        "(beacon-based schemes deploy default beacons when none are given)",
    )
    group.add_argument(
        "--localizer",
        default=None,
        help=(
            "localization scheme used for threshold training "
            "(e.g. beaconless, centroid, mmse, dvhop, apit, rssi, tdoa); "
            "replaces any localizer axis in the spec"
        ),
    )
    group.add_argument(
        "--beacon-count", type=int, default=None, help="number of beacon nodes"
    )
    group.add_argument(
        "--beacon-layout",
        choices=["grid", "random", "perimeter"],
        default=None,
        help="beacon placement layout",
    )
    group.add_argument(
        "--beacon-range",
        type=float,
        default=None,
        help="beacon transmit range (m)",
    )
    group.add_argument(
        "--beacon-noise",
        type=float,
        default=None,
        help="distance-measurement noise std (m) for range-based schemes",
    )
    group.add_argument(
        "--beacon-seed", type=int, default=None, help="beacon placement seed"
    )
    group.add_argument(
        "--beacon-tx-power",
        type=float,
        default=None,
        help="beacon transmit power at 1 m (dBm) for the RSSI scheme",
    )
    group.add_argument(
        "--beacon-path-loss",
        type=float,
        default=None,
        help="path-loss exponent eta of the RSSI log-distance model",
    )
    group.add_argument(
        "--beacon-compromised",
        type=float,
        default=None,
        help="fraction of beacons declaring a false position",
    )
    group.add_argument(
        "--beacon-compromise-displacement",
        type=float,
        default=None,
        help="how far (m) each compromised beacon's declared position lies",
    )


def _apply_overrides(spec, args):
    """Fold every override flag of ``figure`` / ``sweep`` into a spec.

    ``--group-size`` / ``--radio-range`` / ``--seed`` replace fields of the
    spec's ``[config]``, then the localizer, backend and timeline groups
    apply.  A spec with a ``group_sizes`` axis ignores ``config.group_size``,
    so ``--group-size`` on it raises instead of being silently dropped.
    """
    config = {
        field: value
        for field, value in (
            ("group_size", args.group_size),
            ("radio_range", args.radio_range),
            ("seed", args.seed),
        )
        if value is not None
    }
    if "group_size" in config and spec.group_sizes:
        raise ValueError(
            f"--group-size does not apply to {spec.name!r}: its group_sizes "
            f"axis {list(spec.group_sizes)} sets the density of every session"
        )
    if config:
        spec = spec.with_config(replace(spec.config, **config))
    spec = _apply_localizer_overrides(spec, args)
    spec = _apply_backend_overrides(spec, args)
    return _apply_timeline_overrides(spec, args)


def _apply_localizer_overrides(spec, args):
    """Fold the ``--localizer`` / ``--beacon-*`` flags into a spec."""
    from repro.localization.beacons import BeaconSpec

    if args.localizer is not None:
        spec = replace(spec, localizer=args.localizer, localizers=())
    overrides = {
        field: value
        for field, value in (
            ("count", args.beacon_count),
            ("layout", args.beacon_layout),
            ("transmit_range", args.beacon_range),
            ("noise_std", args.beacon_noise),
            ("seed", args.beacon_seed),
            ("tx_power_dbm", args.beacon_tx_power),
            ("path_loss_exponent", args.beacon_path_loss),
            ("compromised", args.beacon_compromised),
            ("compromise_displacement", args.beacon_compromise_displacement),
        )
        if value is not None
    }
    if overrides:
        base = spec.config.beacons or BeaconSpec()
        spec = spec.with_config(
            spec.config.with_beacons(replace(base, **overrides))
        )
    return spec


def _add_backend_arguments(parser: argparse.ArgumentParser) -> None:
    """Array-backend overrides shared by figure+sweep."""
    group = parser.add_argument_group(
        "compute backend",
        "override the spec's array backend running the likelihood kernels "
        "(see `lad-repro backends` for what this build can run)",
    )
    group.add_argument(
        "--backend",
        default=None,
        help="array backend (e.g. numpy, torch); numpy is the bit-exact default",
    )
    group.add_argument(
        "--backend-device",
        default=None,
        help="backend device (auto, cpu, cuda); auto picks CUDA when present",
    )
    group.add_argument(
        "--backend-dtype",
        choices=["float64", "float32"],
        default=None,
        help="backend compute dtype (numpy supports float64 only)",
    )


def _apply_backend_overrides(spec, args):
    """Fold the ``--backend*`` flags into a spec's ``[backend]`` table."""
    overrides = {
        field: value
        for field, value in (
            ("name", args.backend),
            ("device", args.backend_device),
            ("dtype", args.backend_dtype),
        )
        if value is not None
    }
    if not overrides:
        return spec
    from repro.backend import BackendSpec

    base = spec.config.backend or BackendSpec()
    return spec.with_config(
        spec.config.with_backend(replace(base, **overrides))
    )


def _apply_timeline_overrides(spec, args):
    """Fold the ``--epochs`` / ``--attack-epoch`` flags into a spec."""
    if (
        args.epochs is None
        and args.epoch_duration is None
        and args.attack_epoch is None
    ):
        return spec
    import math

    from repro.events.timeline import EventSpec, TimelineSpec

    timeline = spec.timeline if spec.timeline is not None else TimelineSpec()
    if args.epoch_duration is not None:
        timeline = replace(timeline, epoch_duration=args.epoch_duration)
    if args.attack_epoch is not None:
        # Replace any attack events with a single full switch-on, and keep
        # enough epochs after it to observe the detection latency.
        events = tuple(
            event for event in timeline.events if event.kind != "attack"
        ) + (EventSpec(kind="attack", action="on", at=(args.attack_epoch,)),)
        epochs = max(
            timeline.epochs,
            math.ceil(args.attack_epoch / timeline.epoch_duration) + 4,
        )
        timeline = replace(timeline, events=events, epochs=epochs)
    if args.epochs is not None:
        timeline = replace(timeline, epochs=args.epochs)
    return replace(spec, timeline=timeline)


def build_parser() -> argparse.ArgumentParser:
    """Create the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="lad-repro",
        description=(
            "Reproduction of 'LAD: Localization Anomaly Detection for "
            "Wireless Sensor Networks' (Du, Fang, Ning, 2005)."
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    parser.add_argument(
        "--verbose", action="store_true", help="enable progress logging to stderr"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # Flag groups shared by several subcommands are built once as parent
    # parsers, so the flags (and their help text) can never drift apart.
    workers_parent = _workers_parent()
    cache_parent = _cache_parent()
    output_parent = _output_parent()
    figure_config_parent = _figure_config_parent()
    localizer_parent = _localizer_parent()
    backend_parent = _backend_parent()
    timeline_parent = _timeline_parent()

    fig = sub.add_parser(
        "figure",
        help="reproduce one of the paper's figures",
        parents=[
            figure_config_parent,
            workers_parent,
            cache_parent,
            output_parent,
            localizer_parent,
            backend_parent,
            timeline_parent,
        ],
    )
    fig.set_defaults(func=_cmd_figure)
    fig.add_argument(
        "figure_id",
        choices=[
            "fig4",
            "fig5",
            "fig6",
            "fig7",
            "fig8",
            "fig9",
            "figl",
            "figm",
            "figt",
        ],
    )

    sweep = sub.add_parser(
        "sweep",
        help="run a declarative scenario sweep from a spec file (TOML/JSON)",
        parents=[
            figure_config_parent,
            workers_parent,
            cache_parent,
            output_parent,
            localizer_parent,
            backend_parent,
            timeline_parent,
        ],
    )
    sweep.set_defaults(func=_cmd_sweep)
    sweep.add_argument(
        "spec",
        type=Path,
        help=(
            "ScenarioSpec file (.toml or .json); with --figures, a "
            "registered figure id (fig4..fig9) is accepted too"
        ),
    )
    sweep.add_argument(
        "--figures",
        action="store_true",
        help=(
            "render the result as the paper figure named by SPEC (a figure "
            "id or a spec file whose name matches one), emitting the same "
            "FigureResult series as `lad-repro figure`"
        ),
    )
    sweep.add_argument(
        "--shard",
        default=None,
        metavar="I/N",
        help=(
            "compute only slice I of an N-way deterministic partition of "
            "the point grid (requires --cache-dir; several hosts pointed "
            "at one shared cache dir cover the grid together, and the "
            "shard that completes it renders the aggregate outputs)"
        ),
    )
    sweep.add_argument(
        "--status",
        action="store_true",
        help=(
            "report manifest-backed sweep progress (k/n points done, "
            "requires --cache-dir) and exit without computing anything"
        ),
    )

    service_source_parent = _service_source_parent()
    serving_parent = _serving_parent()

    serve = sub.add_parser(
        "serve",
        help="serve streaming location-claim verification (JSONL stdin/TCP)",
        parents=[
            service_source_parent,
            serving_parent,
            cache_parent,
            localizer_parent,
            backend_parent,
        ],
    )
    serve.set_defaults(func=_cmd_serve)
    serve.add_argument(
        "--port",
        type=int,
        default=None,
        help=(
            "listen for JSONL claims on this TCP port (0 = ephemeral; "
            "prints 'listening on HOST:PORT'); default: serve stdin"
        ),
    )
    serve.add_argument(
        "--host", default="127.0.0.1", help="TCP listen address"
    )

    loadgen = sub.add_parser(
        "loadgen",
        help="drive a detection service with claims; report p50/p99 latency",
        parents=[
            service_source_parent,
            serving_parent,
            cache_parent,
            localizer_parent,
            backend_parent,
        ],
    )
    loadgen.set_defaults(func=_cmd_loadgen)
    loadgen.add_argument(
        "--claims",
        type=int,
        default=200,
        help="number of claims to generate (victims are cycled)",
    )
    loadgen.add_argument(
        "--rate",
        type=float,
        default=None,
        help=(
            "open-loop release rate in claims/sec "
            "(default: release everything at once — saturation mode)"
        ),
    )
    loadgen.add_argument(
        "--connect",
        default=None,
        metavar="HOST:PORT",
        help=(
            "drive a running `lad-repro serve --port` instance over TCP "
            "instead of an in-process runtime"
        ),
    )
    loadgen.add_argument(
        "--connections",
        type=int,
        default=1,
        help="TCP connections sharing the claim stream (--connect only)",
    )
    loadgen.add_argument(
        "--localize",
        action="store_true",
        help=(
            "omit claimed locations so the service localizes each "
            "observation first (beaconless scheme only)"
        ),
    )
    loadgen.add_argument(
        "--json",
        type=Path,
        default=None,
        help="write the load report as JSON",
    )

    backends = sub.add_parser(
        "backends",
        help="list the registered array backends and probe their availability",
    )
    backends.set_defaults(func=_cmd_backends)

    demo = sub.add_parser("demo", help="run a small end-to-end detection demo")
    demo.set_defaults(func=_cmd_demo)
    demo.add_argument(
        "--degree",
        type=float,
        default=120.0,
        help="degree of damage D (m)",
    )
    demo.add_argument("--metric", default="diff", help="detection metric")
    demo.add_argument("--attack", default="dec_bounded", help="attack class")
    demo.add_argument(
        "--fraction",
        type=float,
        default=0.10,
        help="compromised fraction x",
    )
    demo.add_argument("--group-size", type=int, default=300, help="sensors per group m")
    demo.add_argument(
        "--victims",
        type=int,
        default=200,
        help="number of attacked victims",
    )
    demo.add_argument("--seed", type=int, default=7, help="random seed")

    gz = sub.add_parser("gz-table", help="print the g(z) lookup table accuracy")
    gz.set_defaults(func=_cmd_gz_table)
    gz.add_argument("--radio-range", type=float, default=100.0)
    gz.add_argument("--sigma", type=float, default=50.0)
    gz.add_argument("--omega", type=int, default=1000)

    return parser


def _print_cache_stats(store) -> None:
    """One-line cache summary (plus the per-point sweep cache when used)."""
    if store is None:
        return
    print(
        f"cache: {store.hits} hit(s), {store.misses} miss(es) "
        f"under {store.root}"
    )
    point_hits = store.hit_counts["attacked_scores"]
    scored = point_hits + store.miss_counts["attacked_scores"]
    if scored:
        print(
            f"cache: attacked scores for {point_hits}/{scored} point(s) "
            "served from cache"
        )
    temporal_hits = store.hit_counts["temporal"]
    temporal_total = temporal_hits + store.miss_counts["temporal"]
    if temporal_total:
        print(
            f"cache: temporal outcomes for {temporal_hits}/{temporal_total} "
            "point(s) served from cache"
        )


def _parse_shard(text: Optional[str]):
    """Parse a ``--shard I/N`` selector into ``(index, count)``."""
    if text is None:
        return None
    index_text, sep, count_text = text.partition("/")
    try:
        if not sep:
            raise ValueError(text)
        index, count = int(index_text), int(count_text)
    except ValueError:
        raise ValueError(
            f"--shard expects I/N (e.g. 0/4), got {text!r}"
        ) from None
    if count < 1 or not 0 <= index < count:
        raise ValueError(
            f"--shard index must satisfy 0 <= I < N, got {text!r}"
        )
    return index, count


def _sweep_status(spec, store, points) -> int:
    """The ``sweep --status`` mode: manifest-backed progress, no compute.

    One manifest read per (density, localizer) session — no ``.npz`` is
    opened and the cache counters stay untouched.  Stale manifests are
    reconciled against the store (and republished healed) as a side
    effect, so a deleted artifact shows up as pending immediately.
    """
    total_done = total_points = total_healed = 0
    for localizer, group_size, session in spec.sessions(store=store):
        progress = session.sweep().progress(points)
        healed = f", {progress.healed} healed" if progress.healed else ""
        print(
            f"status m={group_size} localizer={localizer}: "
            f"{progress.done}/{progress.total} point(s) done{healed}"
        )
        total_done += progress.done
        total_points += progress.total
        total_healed += progress.healed
    suffix = (
        f" ({total_healed} stale manifest entr"
        f"{'y' if total_healed == 1 else 'ies'} healed)"
        if total_healed
        else ""
    )
    print(f"status: {total_done}/{total_points} point(s) done{suffix}")
    return 0


def _cmd_figure(args: argparse.Namespace) -> int:
    """``figure ID`` and ``sweep --figures SPEC``: render one figure spec.

    The spec is a registered figure id's preset or, for ``sweep``, a spec
    file whose name is a figure id; either way every override flag folds
    in before :func:`run_figure_spec` renders it.
    """
    from repro.experiments.figures import FIGURE_SPECS, run_figure_spec
    from repro.experiments.reporting import format_figure
    from repro.experiments.scenario import ScenarioSpec
    from repro.experiments.store import ArtifactStore

    source = Path(args.figure_id if args.command == "figure" else args.spec)
    # Same id normalisation as run_figure_spec, so the CLI accepts
    # exactly the ids the library does.
    figure_id = str(source).strip().lower()
    if source.is_file():
        spec = ScenarioSpec.from_file(source).scaled(args.scale)
    elif figure_id in FIGURE_SPECS:
        spec = FIGURE_SPECS[figure_id](scale=args.scale)
    else:
        raise ValueError(
            f"{figure_id!r} is neither a spec file nor a registered figure "
            f"id; available figures: {sorted(FIGURE_SPECS)}"
        )
    spec = _apply_overrides(spec, args)
    store = ArtifactStore(args.cache_dir) if args.cache_dir is not None else None
    result = run_figure_spec(spec, workers=args.workers, store=store)
    print(format_figure(result))
    _print_cache_stats(store)
    if args.json is not None:
        result.to_json(args.json)
        print(f"\n[written] {args.json}")
    if args.csv is not None:
        result.to_csv(args.csv)
        print(f"[written] {args.csv}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    import csv
    import json

    from repro.experiments.scenario import ScenarioSpec
    from repro.experiments.store import ArtifactStore

    if args.figures:
        if args.shard is not None or args.status:
            raise ValueError(
                "--shard/--status apply to scenario sweeps, not --figures"
            )
        return _cmd_figure(args)

    spec = _apply_overrides(ScenarioSpec.from_file(args.spec).scaled(args.scale), args)
    store = ArtifactStore(args.cache_dir) if args.cache_dir is not None else None
    shard = _parse_shard(args.shard)
    if (shard is not None or args.status) and store is None:
        raise ValueError(
            "--shard and --status require --cache-dir (shards and progress "
            "reports meet in one shared artifact store)"
        )
    points = spec.points()
    densities = spec.density_values()
    localizers = spec.localizer_values()
    print(
        f"scenario {spec.name!r}: {len(points)} point(s) x "
        f"{len(densities)} density value(s) x "
        f"{len(localizers)} localizer(s) [{', '.join(localizers)}], "
        f"FP budget {spec.false_positive_rate:.2%}"
    )
    if spec.timeline is not None:
        print(
            f"timeline: {spec.timeline.epochs} epoch(s) x "
            f"{spec.timeline.epoch_duration:g} time unit(s), "
            f"{len(spec.timeline.events)} event source(s)"
        )
    if args.status:
        return _sweep_status(spec, store, points)
    header = (
        f"{'m':>6} {'localizer':>10} {'metric':>12} {'attack':>12} "
        f"{'D':>8} {'x':>6} {'DR':>8} {'threshold':>10}"
    )

    def run_pass(shard_arg):
        """One full (or one-shard) sweep pass; returns (rows, temporal rows)."""
        slice_points = (
            points if shard_arg is None else spec.points(shard=shard_arg)
        )
        total = len(slice_points) * len(densities) * len(localizers)
        print(header)
        rows = []
        temporal_rows = []
        done = 0
        for localizer, group_size, session in spec.sessions(store=store):
            runner = session.sweep(workers=args.workers)
            for point, outcome in runner.iter_detection_rates(
                points,
                false_positive_rate=spec.false_positive_rate,
                shard=shard_arg,
            ):
                done += 1
                print(
                    f"{group_size:>6} {localizer:>10} "
                    f"{point.metric:>12} {point.attack:>12} "
                    f"{point.degree_of_damage:>8g} "
                    f"{point.compromised_fraction:>6g} "
                    f"{outcome.detection_rate:>8.3f} "
                    f"{outcome.threshold:>10.2f}"
                    f"    [{done}/{total}]",
                    flush=True,
                )
                rows.append(
                    {
                        "group_size": int(group_size),
                        "localizer": localizer,
                        "metric": point.metric,
                        "attack": point.attack,
                        "degree_of_damage": point.degree_of_damage,
                        "compromised_fraction": point.compromised_fraction,
                        "detection_rate": outcome.detection_rate,
                        "threshold": outcome.threshold,
                    }
                )
            if spec.timeline is None:
                continue
            # The spec carries a [timeline]: re-run every point through
            # the discrete-event engine and report the online metric
            # family.
            temporal = session.temporal(spec.timeline, workers=args.workers)
            for point, outcome in temporal.iter_outcomes(
                slice_points, false_positive_rate=spec.false_positive_rate
            ):
                latency = outcome.detection_latency
                first_fp = outcome.first_false_positive
                print(
                    f"{group_size:>6} {localizer:>10} "
                    f"{point.metric:>12} {point.attack:>12} "
                    f"{point.degree_of_damage:>8g} "
                    f"{point.compromised_fraction:>6g} "
                    f"latency={'-' if latency is None else latency} "
                    f"first_fp={'-' if first_fp is None else first_fp} "
                    f"drift={outcome.detection_drift:+.3f}",
                    flush=True,
                )
                temporal_rows.append(
                    {
                        "group_size": int(group_size),
                        "localizer": localizer,
                        "metric": point.metric,
                        "attack": point.attack,
                        "degree_of_damage": point.degree_of_damage,
                        "compromised_fraction": point.compromised_fraction,
                        "detection_latency": latency,
                        "detection_time": outcome.detection_time,
                        "first_false_positive": first_fp,
                        "detection_drift": outcome.detection_drift,
                        "threshold": outcome.threshold,
                        "detection_rates": [
                            float(rate) for rate in outcome.detection_rates()
                        ],
                        "delivery_rates": [
                            float(rate) for rate in outcome.delivery_rates()
                        ],
                    }
                )
        return rows, temporal_rows

    rows, temporal_rows = run_pass(shard)
    if shard is not None:
        # The finishing shard renders the aggregate outputs: if every grid
        # point of every session is now in the shared store, re-run the
        # full grid warm (all cache hits, byte-identical to a single serial
        # run); otherwise report this slice and leave aggregation to
        # whichever shard completes the grid.
        index, count = shard
        grid_keys = [
            key
            for _, _, session in spec.sessions(store=store)
            for key in session.attacked_scores_keys(points)
        ]
        present = sum(
            1 for key in grid_keys if store.contains("attacked_scores", key)
        )
        if present < len(grid_keys):
            print(
                f"shard {index}/{count}: slice done; {present}/"
                f"{len(grid_keys)} grid point(s) in cache — waiting on "
                "other shard(s) for aggregate outputs"
            )
            _print_cache_stats(store)
            return 0
        print(
            f"shard {index}/{count}: all {len(grid_keys)} grid point(s) "
            "in cache — rendering merged results"
        )
        rows, temporal_rows = run_pass(None)
    _print_cache_stats(store)
    if args.json is not None:
        payload = {"spec": spec.as_dict(), "results": rows}
        if temporal_rows:
            payload["temporal"] = temporal_rows
        Path(args.json).write_text(
            json.dumps(payload, indent=2) + "\n", encoding="utf-8"
        )
        print(f"[written] {args.json}")
    if args.csv is not None:
        with Path(args.csv).open("w", newline="", encoding="utf-8") as handle:
            fieldnames = list(rows[0]) if rows else [
                "group_size",
                "localizer",
                "metric",
                "attack",
                "degree_of_damage",
                "compromised_fraction",
                "detection_rate",
                "threshold",
            ]
            writer = csv.DictWriter(handle, fieldnames=fieldnames)
            writer.writeheader()
            writer.writerows(rows)
        print(f"[written] {args.csv}")
    return 0


def _build_service_session(args: argparse.Namespace):
    """Shared ``serve`` / ``loadgen`` setup: spec file -> (spec, session).

    Applies the localizer/beacon and backend override parents, attaches
    the artifact store when ``--cache-dir`` is given, and pins the
    density override.
    """
    from repro.experiments.scenario import ScenarioSpec
    from repro.experiments.store import ArtifactStore

    spec = ScenarioSpec.from_file(args.spec).scaled(args.scale)
    spec = _apply_localizer_overrides(spec, args)
    spec = _apply_backend_overrides(spec, args)
    store = ArtifactStore(args.cache_dir) if args.cache_dir is not None else None
    session = spec.session(group_size=args.group_size, store=store)
    return spec, session, store


def _build_service(args: argparse.Namespace, spec, session):
    """The :class:`DetectionService` a serve/loadgen invocation asked for."""
    from repro.serving import DetectionService

    return DetectionService.from_session(
        session,
        metrics=tuple(args.metric) if args.metric else spec.metrics,
        false_positive_rate=(
            spec.false_positive_rate if args.fp_rate is None else args.fp_rate
        ),
        require_warm=args.warm,
    )


def _serving_config(args: argparse.Namespace):
    """The :class:`ServingConfig` from the micro-batching parent's flags."""
    from repro.serving import ServingConfig

    return ServingConfig(
        max_batch_size=args.max_batch_size,
        max_wait_ms=args.max_wait_ms,
        queue_size=args.queue_size,
        overflow=args.overflow,
        retry_after_ms=args.retry_after_ms,
    )


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    import contextlib
    import signal

    from repro.serving import ServiceRuntime, serve_stdio, serve_tcp

    spec, session, _ = _build_service_session(args)
    service = _build_service(args, spec, session)
    config = _serving_config(args)

    async def run_tcp(runtime: "ServiceRuntime") -> None:
        """Serve TCP until SIGINT/SIGTERM, then drain gracefully.

        On a signal the listening sockets close *first* (no new claims are
        admitted), then the caller's ``runtime.close()`` drains everything
        already sitting in the admission queue before the process exits 0.
        """
        loop = asyncio.get_running_loop()
        stop = asyncio.Event()
        installed = []
        # Handlers go in *before* the socket is announced, so a signal
        # arriving the instant a client can connect is already graceful.
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, stop.set)
            except (NotImplementedError, RuntimeError, ValueError):
                continue  # platforms / loops without signal-handler support
            installed.append(signum)
        try:
            server = await serve_tcp(
                runtime,
                host=args.host,
                port=args.port,
                announce=lambda host, port: print(
                    f"listening on {host}:{port}", flush=True
                ),
            )
            async with server:
                serving = asyncio.ensure_future(server.serve_forever())
                stopping = asyncio.ensure_future(stop.wait())
                await asyncio.wait(
                    {serving, stopping}, return_when=asyncio.FIRST_COMPLETED
                )
                # Stop accepting connections before the drain, so nothing
                # admitted after the signal slips past the shutdown.
                server.close()
                await server.wait_closed()
                for task in (serving, stopping):
                    task.cancel()
                    with contextlib.suppress(asyncio.CancelledError):
                        await task
            if stop.is_set():
                print(
                    "signal received: draining admitted claims",
                    file=sys.stderr,
                    flush=True,
                )
        finally:
            for signum in installed:
                loop.remove_signal_handler(signum)

    async def run() -> None:
        runtime = ServiceRuntime(service, config)
        await runtime.start()
        try:
            if args.port is not None:
                await run_tcp(runtime)
            else:
                served = await serve_stdio(runtime)
                print(
                    f"served {served} request line(s); "
                    f"runtime: {runtime.stats.as_dict()}",
                    file=sys.stderr,
                )
        finally:
            await runtime.close()
        if args.port is not None:
            print(
                f"drained; runtime: {runtime.stats.as_dict()}",
                file=sys.stderr,
                flush=True,
            )

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130
    return 0


def _cmd_loadgen(args: argparse.Namespace) -> int:
    import asyncio
    import json

    from repro.serving import (
        ServiceRuntime,
        claims_from_session,
        run_load,
        run_tcp_load,
    )

    spec, session, _ = _build_service_session(args)
    claims = claims_from_session(
        session,
        count=args.claims,
        localize=args.localize,
        metric=args.metric[0] if args.metric else None,
    )
    if args.connect is not None:
        host, _, port = args.connect.rpartition(":")
        if not host or not port.isdigit():
            raise ValueError(
                f"--connect expects HOST:PORT, got {args.connect!r}"
            )
        report = asyncio.run(
            run_tcp_load(
                host,
                int(port),
                claims,
                rate=args.rate,
                connections=args.connections,
            )
        )
        runtime_stats = None
    else:
        service = _build_service(args, spec, session)
        config = _serving_config(args)

        async def run():
            async with ServiceRuntime(service, config) as runtime:
                report = await run_load(runtime, claims, rate=args.rate)
            return report, runtime.stats.as_dict()

        report, runtime_stats = asyncio.run(run())
    print(report.summary())
    if runtime_stats is not None:
        print(f"runtime: {runtime_stats}")
    if args.json is not None:
        payload = {"report": report.as_dict(), "runtime": runtime_stats}
        Path(args.json).write_text(
            json.dumps(payload, indent=2) + "\n", encoding="utf-8"
        )
        print(f"[written] {args.json}")
    return 0


def _cmd_backends(args: argparse.Namespace) -> int:
    """List registered array backends with an availability probe each."""
    from repro.backend import BACKENDS

    alias_map: dict = {}
    for alias, canonical in BACKENDS.aliases().items():
        alias_map.setdefault(canonical, []).append(alias)
    print(f"{'backend':<10} {'exact':>6}  availability")
    for name in BACKENDS.available():
        cls = BACKENDS.get(name)
        exact = "yes" if cls.numpy_exact else "no"
        print(f"{name:<10} {exact:>6}  {cls.availability()}")
        aliases = sorted(alias_map.get(name, []))
        if aliases:
            print(f"{'':<10} {'':>6}  aliases: {', '.join(aliases)}")
    print(
        "\nexact = bit-identical to the numpy reference (shares its "
        "artifact-cache keys)"
    )
    return 0


def _cmd_demo(args: argparse.Namespace) -> int:
    """End-to-end demo through the streaming service's batch-of-one path.

    Trains a small session, builds its :class:`DetectionService`, then
    verifies every evaluation victim twice — once with its honest claim,
    once with its attacked claim — exactly as an online claimant would be
    verified, one claim at a time.
    """
    import numpy as np

    from repro.experiments.config import SimulationConfig
    from repro.experiments.session import LadSession
    from repro.serving.claims import LocationClaim

    config = SimulationConfig(
        group_size=args.group_size,
        num_training_samples=max(100, args.victims),
        num_victims=args.victims,
        seed=args.seed,
    )
    session = LadSession(config)
    service = session.service(metrics=(args.metric,))
    victims = session.victims()
    honest = [
        service.verify(
            LocationClaim(
                observation=victims.observations[i],
                claimed_location=victims.actual_locations[i],
                claim_id=f"honest-{i}",
            )
        )
        for i in range(victims.observations.shape[0])
    ]
    attacked = [
        service.verify(claim)
        for claim in session.attacked_claims(
            args.metric,
            args.attack,
            degree_of_damage=args.degree,
            compromised_fraction=args.fraction,
        )
    ]
    flagged_honest = sum(1 for verdict in honest if verdict.anomalous)
    flagged_attacked = sum(1 for verdict in attacked if verdict.anomalous)
    latencies = np.asarray(
        [verdict.latency_ms for verdict in honest + attacked]
    )
    print(
        f"metric={args.metric}  attack={args.attack}  "
        f"D={args.degree:g}  x={args.fraction:.0%}"
    )
    print(
        f"benign localization error (mean): "
        f"{session.benign_localization_error():.2f} m"
    )
    print(
        f"trained threshold: {service.threshold(args.metric):.2f} "
        f"(FP budget {service.false_positive_rate:.0%})"
    )
    print(
        f"honest claims flagged:   {flagged_honest}/{len(honest)} "
        f"({flagged_honest / len(honest):.1%} observed FP)"
    )
    print(
        f"detection rate @ 1% FP: "
        f"{flagged_attacked / len(attacked):.3f} "
        f"({flagged_attacked}/{len(attacked)} attacked claims flagged)"
    )
    print(
        f"service latency p50/p99 (batch of one): "
        f"{np.percentile(latencies, 50):.2f} / "
        f"{np.percentile(latencies, 99):.2f} ms"
    )
    return 0


def _cmd_gz_table(args: argparse.Namespace) -> int:
    import numpy as np

    from repro.deployment.gz import GzTable, gz_exact

    table = GzTable(args.radio_range, args.sigma, omega=args.omega)
    zs = np.linspace(0.0, args.radio_range + 4 * args.sigma, 9)
    print(
        f"g(z) table: R={args.radio_range:g}, sigma={args.sigma:g}, omega={args.omega}",
    )
    print(f"{'z':>10} {'g(z) exact':>12} {'g(z) table':>12}")
    for z in zs:
        print(
            f"{z:10.1f} {gz_exact(z, args.radio_range, args.sigma):12.6f} "
            f"{float(table(z)):12.6f}"
        )
    print(f"max abs table error (sampled): {table.max_abs_error(400):.2e}")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code.

    Every sub-parser binds its handler through ``set_defaults(func=...)``,
    so dispatch is a single call — no per-command ``if`` chain and no
    unreachable fallthrough.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.verbose:
        configure_logging()
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
