"""Declarative scenario specifications for the LAD evaluation.

A :class:`ScenarioSpec` is the *data* form of an evaluation: one
:class:`~repro.experiments.config.SimulationConfig` plus the parameter
grid (metrics × attack classes × degrees of damage × compromise
fractions, optionally × network densities) and the localizer choice.  It
is serialisable to TOML and JSON, validates every component name against
the registries at construction time, and compiles to
:class:`~repro.experiments.sweep.SweepPoint` grids for the existing
:class:`~repro.experiments.sweep.SweepRunner`:

    >>> spec = ScenarioSpec(name="demo", metrics=("diff", "add_all"),
    ...                     degrees=(80.0, 160.0))
    >>> session = spec.session()
    >>> rates = session.sweep(workers=4).detection_rates(spec.points())

Every figure of :mod:`repro.experiments.figures` is a ``ScenarioSpec``
preset over this same engine, rendered by
:func:`~repro.experiments.figures.common.run_figure_spec`, and the CLI
runs arbitrary spec files via ``lad-repro sweep scenario.toml``.  New
scenarios — different attack mixes, other metrics, denser grids,
alternative localizers — are therefore spec files, not code.
"""

from __future__ import annotations

import json
import tomllib
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple, Union

from repro.attacks.constraints import ATTACKS
from repro.backend import BackendSpec
from repro.core.metrics import METRICS
from repro.events.timeline import TimelineSpec
from repro.experiments.config import SimulationConfig
from repro.experiments.session import LadSession
from repro.experiments.store import ArtifactStore
from repro.experiments.sweep import SweepPoint, SweepRunner, shard_points
from repro.localization.base import LOCALIZERS
from repro.localization.beacons import BeaconSpec
from repro.utils.validation import check_fraction

__all__ = ["ScenarioSpec"]

#: ScenarioSpec fields holding grid axes (ordered as in the sweep grid).
_AXIS_FIELDS = ("metrics", "attacks", "degrees", "fractions")


def _toml_value(value: Any) -> str:
    """Render one scalar/array value as TOML.

    Only the types a :class:`ScenarioSpec` contains are supported
    (strings, booleans, numbers, flat arrays); JSON string escaping is
    valid TOML basic-string escaping.
    """
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, float)):
        return json.dumps(value)
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_toml_value(item) for item in value) + "]"
    raise TypeError(f"cannot render {type(value).__name__} as TOML")


@dataclass(frozen=True)
class ScenarioSpec:
    """A declarative, serialisable LAD evaluation scenario.

    Attributes
    ----------
    name:
        Scenario identifier (used in reports and artifact paths).
    description:
        Free-form description for humans.
    metrics, attacks:
        Component names; resolved against :data:`repro.core.metrics.METRICS`
        and :data:`repro.attacks.constraints.ATTACKS` at construction time
        and stored in canonical form.
    degrees:
        Degrees of damage ``D`` (metres).
    fractions:
        Compromised-neighbour fractions ``x``.
    group_sizes:
        Optional network-density axis (sensors per group ``m``).  When
        non-empty the scenario spans one full training + sweep pass per
        density (the Figure 9 shape); when empty the config's own
        ``group_size`` is used.
    localizer:
        Registered localization-scheme name used for threshold training.
    localizers:
        Optional localization-scheme axis.  When non-empty the scenario
        spans one full training + sweep pass per scheme (the figure-L
        shape: every registered localizer is a first-class scenario axis);
        when empty the single ``localizer`` is used.
    false_positive_rate:
        The false-positive budget detection rates are read at.
    timeline:
        Optional :class:`~repro.events.timeline.TimelineSpec` — the
        ``[timeline]`` table of spec files.  When present the scenario is
        *temporal*: every sweep point is additionally run through the
        epoch-stepped engine (mobility, churn, mid-run attacks) and
        reports the online metric family (detection latency, time to
        first false positive, detection-rate drift).
    config:
        The underlying :class:`SimulationConfig` (its optional ``beacons``
        and ``backend`` specs serialise as the ``[beacons]`` and
        ``[backend]`` tables of the spec file).
    """

    name: str = "scenario"
    description: str = ""
    metrics: Tuple[str, ...] = ("diff",)
    attacks: Tuple[str, ...] = ("dec_bounded",)
    degrees: Tuple[float, ...] = (120.0,)
    fractions: Tuple[float, ...] = (0.10,)
    group_sizes: Tuple[int, ...] = ()
    localizer: str = "beaconless"
    localizers: Tuple[str, ...] = ()
    false_positive_rate: float = 0.01
    timeline: Optional[TimelineSpec] = None
    config: SimulationConfig = field(default_factory=SimulationConfig)

    def __post_init__(self) -> None:
        set_ = object.__setattr__
        set_(self, "name", str(self.name))
        set_(self, "description", str(self.description))
        set_(
            self,
            "metrics",
            tuple(METRICS.canonical(metric) for metric in self.metrics),
        )
        set_(
            self,
            "attacks",
            tuple(ATTACKS.canonical(attack) for attack in self.attacks),
        )
        set_(self, "degrees", tuple(float(degree) for degree in self.degrees))
        set_(
            self, "fractions", tuple(float(fraction) for fraction in self.fractions)
        )
        set_(self, "group_sizes", tuple(int(m) for m in self.group_sizes))
        set_(self, "localizer", LOCALIZERS.canonical(self.localizer))
        set_(
            self,
            "localizers",
            tuple(LOCALIZERS.canonical(scheme) for scheme in self.localizers),
        )
        set_(self, "false_positive_rate", float(self.false_positive_rate))
        check_fraction("false_positive_rate", self.false_positive_rate)
        if self.timeline is not None and not isinstance(self.timeline, TimelineSpec):
            set_(self, "timeline", TimelineSpec.from_dict(dict(self.timeline)))
        if not (self.metrics and self.attacks and self.degrees and self.fractions):
            raise ValueError("every scenario axis needs at least one value")
        for fraction in self.fractions:
            check_fraction("compromised fraction", fraction)
        for degree in self.degrees:
            if degree < 0:
                raise ValueError("degrees of damage must be >= 0")

    # -- grid compilation --------------------------------------------------

    def points(
        self, shard: Optional[Tuple[int, int]] = None
    ) -> List[SweepPoint]:
        """The spec's grid, compiled for :class:`SweepRunner`.

        *shard* — an ``(index, count)`` pair — restricts the grid to one
        deterministic slice (see
        :func:`~repro.experiments.sweep.shard_points`); the slices of a
        fleet are disjoint and union to the full grid.
        """
        points = SweepRunner.grid(
            self.metrics, self.attacks, self.degrees, self.fractions
        )
        if shard is not None:
            points = shard_points(points, *shard)
        return points

    @property
    def grid_size(self) -> int:
        """Number of sweep points (per density value)."""
        size = 1
        for axis in _AXIS_FIELDS:
            size *= len(getattr(self, axis))
        return size

    def density_values(self) -> Tuple[int, ...]:
        """The density axis (the config's own ``m`` when none is given)."""
        return self.group_sizes or (self.config.group_size,)

    def localizer_values(self) -> Tuple[str, ...]:
        """The localizer axis (the single ``localizer`` when none is given)."""
        return self.localizers or (self.localizer,)

    @property
    def beacons(self) -> Optional[BeaconSpec]:
        """The beacon spec carried by the config (``None`` = no beacons)."""
        return self.config.beacons

    @property
    def backend_spec(self) -> Optional[BackendSpec]:
        """The backend spec carried by the config (``None`` = numpy)."""
        return self.config.backend

    # -- session construction ----------------------------------------------

    def session(
        self,
        *,
        group_size: Optional[int] = None,
        localizer: Optional[str] = None,
        store: Union[ArtifactStore, str, None] = None,
    ) -> LadSession:
        """A :class:`LadSession` for this spec.

        *group_size* / *localizer* pin one value of the density and
        localizer axes (defaults: the config's density, the spec's single
        ``localizer``).
        """
        config = self.config
        if group_size is not None:
            config = config.with_group_size(int(group_size))
        return LadSession(
            config, localizer=localizer or self.localizer, store=store
        )

    def sessions(
        self, *, store: Union[ArtifactStore, str, None] = None
    ) -> Iterator[Tuple[str, int, LadSession]]:
        """Every ``(localizer, group_size, session)`` of the spec.

        The localizer axis is the outer loop, the density axis the inner
        one.  Each session trains its own thresholds; sessions are built
        lazily and construction itself computes nothing.
        """
        for localizer in self.localizer_values():
            for group_size in self.density_values():
                session = self.session(
                    group_size=group_size, localizer=localizer, store=store
                )
                yield localizer, group_size, session

    # -- derivation --------------------------------------------------------

    def scaled(self, scale: float) -> "ScenarioSpec":
        """The spec with its Monte-Carlo sample sizes scaled (quick runs)."""
        if scale == 1.0:
            return self
        return replace(self, config=self.config.scaled(scale))

    def with_config(self, config: SimulationConfig) -> "ScenarioSpec":
        """The spec over a different simulation configuration."""
        return replace(self, config=config)

    # -- serialisation -----------------------------------------------------

    def as_dict(self) -> Dict[str, Any]:
        """Plain-dict view (JSON/TOML-ready; lossless round trip).

        The config's :class:`BeaconSpec` and :class:`BackendSpec` are
        lifted out of the ``config`` table into top-level ``beacons`` and
        ``backend`` entries (the ``[beacons]``/``[backend]`` tables of
        spec files); each is omitted entirely when not configured.
        """
        data: Dict[str, Any] = {
            "name": self.name,
            "description": self.description,
            "metrics": list(self.metrics),
            "attacks": list(self.attacks),
            "degrees": list(self.degrees),
            "fractions": list(self.fractions),
            "group_sizes": list(self.group_sizes),
            "localizer": self.localizer,
            "localizers": list(self.localizers),
            "false_positive_rate": self.false_positive_rate,
            "config": {
                f.name: getattr(self.config, f.name)
                for f in fields(SimulationConfig)
                if f.name not in ("beacons", "backend")
            },
        }
        if self.timeline is not None:
            data["timeline"] = self.timeline.as_dict()
        if self.config.beacons is not None:
            data["beacons"] = self.config.beacons.as_dict()
        if self.config.backend is not None:
            data["backend"] = self.config.backend.as_dict()
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ScenarioSpec":
        """Rebuild a spec from its :meth:`as_dict` form.

        Unknown keys raise (catching typos in hand-written spec files);
        the ``config`` and ``beacons`` tables may be partial — omitted
        fields keep their defaults.
        """
        data = dict(data)
        config_data = dict(data.pop("config", {}))
        beacon_data = data.pop("beacons", None)
        config_beacons = config_data.pop("beacons", None)
        if beacon_data is not None and config_beacons is not None:
            raise ValueError(
                "beacons given both top-level and inside [config]; "
                "keep a single [beacons] table"
            )
        if beacon_data is None:
            beacon_data = config_beacons
        backend_data = data.pop("backend", None)
        config_backend = config_data.pop("backend", None)
        if backend_data is not None and config_backend is not None:
            raise ValueError(
                "backend given both top-level and inside [config]; "
                "keep a single [backend] table"
            )
        if backend_data is None:
            backend_data = config_backend
        known = {f.name for f in fields(cls) if f.name != "config"}
        unknown = set(data) - known
        if unknown:
            raise ValueError(
                f"unknown scenario field(s) {sorted(unknown)}; "
                "expected a subset of "
                f"{sorted(known | {'backend', 'beacons', 'config'})}"
            )
        unknown_config = set(config_data) - {
            f.name for f in fields(SimulationConfig)
        }
        if unknown_config:
            raise ValueError(
                f"unknown config field(s) {sorted(unknown_config)}"
            )
        if beacon_data is not None and not isinstance(beacon_data, BeaconSpec):
            beacon_data = BeaconSpec.from_dict(dict(beacon_data))
        if backend_data is not None and not isinstance(backend_data, BackendSpec):
            if isinstance(backend_data, str):
                backend_data = BackendSpec(name=backend_data)
            else:
                backend_data = BackendSpec.from_dict(dict(backend_data))
        return cls(
            config=SimulationConfig(
                beacons=beacon_data, backend=backend_data, **config_data
            ),
            **data,
        )

    def to_json(self, path: Optional[Path] = None, *, indent: int = 2) -> str:
        """Serialise to JSON, optionally writing to *path*."""
        text = json.dumps(self.as_dict(), indent=indent)
        if path is not None:
            Path(path).write_text(text + "\n", encoding="utf-8")
        return text

    def to_toml(self, path: Optional[Path] = None) -> str:
        """Serialise to TOML, optionally writing to *path*."""
        data = self.as_dict()
        config_data = data.pop("config")
        beacon_data = data.pop("beacons", None)
        backend_data = data.pop("backend", None)
        timeline_data = data.pop("timeline", None)
        lines = [f"{key} = {_toml_value(value)}" for key, value in data.items()]
        if beacon_data is not None:
            lines += ["", "[beacons]"]
            lines += [
                f"{key} = {_toml_value(value)}"
                for key, value in beacon_data.items()
            ]
        if backend_data is not None:
            lines += ["", "[backend]"]
            lines += [
                f"{key} = {_toml_value(value)}"
                for key, value in backend_data.items()
            ]
        if timeline_data is not None:
            event_tables = timeline_data.pop("events", [])
            lines += ["", "[timeline]"]
            lines += [
                f"{key} = {_toml_value(value)}"
                for key, value in timeline_data.items()
            ]
            for event in event_tables:
                lines += ["", "[[timeline.events]]"]
                lines += [
                    f"{key} = {_toml_value(value)}"
                    for key, value in event.items()
                ]
        lines += ["", "[config]"]
        lines += [
            f"{key} = {_toml_value(value)}" for key, value in config_data.items()
        ]
        text = "\n".join(lines) + "\n"
        if path is not None:
            Path(path).write_text(text, encoding="utf-8")
        return text

    @classmethod
    def from_json(cls, text: str) -> "ScenarioSpec":
        """Parse a spec from a JSON document."""
        return cls.from_dict(json.loads(text))

    @classmethod
    def from_toml(cls, text: str) -> "ScenarioSpec":
        """Parse a spec from a TOML document."""
        return cls.from_dict(tomllib.loads(text))

    @classmethod
    def from_file(cls, path) -> "ScenarioSpec":
        """Load a spec from a ``.toml`` or ``.json`` file."""
        path = Path(path)
        text = path.read_text(encoding="utf-8")
        suffix = path.suffix.lower()
        if suffix == ".toml":
            return cls.from_toml(text)
        if suffix == ".json":
            return cls.from_json(text)
        raise ValueError(
            f"unsupported spec format {path.suffix!r} (use .toml or .json)"
        )

    def to_file(self, path) -> None:
        """Write the spec to a ``.toml`` or ``.json`` file (by suffix)."""
        path = Path(path)
        suffix = path.suffix.lower()
        if suffix == ".toml":
            self.to_toml(path)
        elif suffix == ".json":
            self.to_json(path)
        else:
            raise ValueError(
                f"unsupported spec format {path.suffix!r} (use .toml or .json)"
            )

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        axes = " x ".join(
            f"{len(getattr(self, axis))} {axis}" for axis in _AXIS_FIELDS
        )
        densities = (
            f" x {len(self.group_sizes)} densities" if self.group_sizes else ""
        )
        return f"ScenarioSpec({self.name!r}: {axes}{densities})"
