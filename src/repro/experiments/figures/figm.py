"""Figure M — The localizer × attack robustness matrix, and its Figure L preset.

Every scheme on the ``localizers`` axis is trained independently and then
evaluated against every attack class on the ``attacks`` axis — the
paper's observation-tainting adversaries *and* the modality-targeted
physical-layer attacks of :mod:`repro.attacks.modality`.  One panel per
attack class, one curve per scheme, detection rate over the degree of
damage.

The matrix makes the modality gating visible: an RSSI amplifier read
against DV-Hop produces a flat zero-displacement row (nothing to
detect — the attack is futile against that scheme), while the same
attack against the RSSI path-loss scheme displaces up to its physical
cap and is caught essentially immediately because the victim's
observation stays honest.

**Figure L** is the matrix's Dec-Bounded column over the five classic
schemes (:data:`FIGL`).  It is not in the paper but directly supports its
Section 7.2 discussion: LAD is agnostic to the localization scheme, and
the trained thresholds absorb each scheme's own benign error — the
coarser a scheme's benign localization error, the looser its thresholds
and the lower its detection rate at small D.  It keeps its own id, title,
parameters and one panel per compromise fraction.

Cost scales as ``len(localizers)`` training passes (each sweeping the
full ``attacks × degrees × fractions`` grid); ``density_workers`` fans
the localizer axis over worker processes
(:func:`~repro.experiments.figures.common.session_rates`), and an
attached artifact store keeps every scheme's trained state under its
own modality-aware beacon fingerprint — cross-scheme artifacts are
never shared.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from repro.experiments.config import SimulationConfig
from repro.experiments.figures.common import session_rates
from repro.experiments.results import FigureResult, PanelResult, SeriesResult
from repro.experiments.scenario import ScenarioSpec
from repro.experiments.session import LadSession
from repro.experiments.sweep import SweepPoint
from repro.localization.base import LOCALIZERS
from repro.localization.beacons import BeaconSpec

__all__ = [
    "run",
    "render",
    "spec",
    "MatrixFigure",
    "FIGL",
    "FIGM",
    "LOCALIZERS_COMPARED",
    "ATTACKS_COMPARED",
    "DEGREES_OF_DAMAGE",
    "COMPROMISED_FRACTIONS",
    "FALSE_POSITIVE_RATE",
    "METRIC",
]

#: Localization schemes down the matrix (one curve each).
LOCALIZERS_COMPARED: tuple[str, ...] = (
    "beaconless",
    "centroid",
    "mmse",
    "dvhop",
    "apit",
    "rssi",
    "tdoa",
)

#: Attack classes across the matrix (one panel each): the paper's
#: strongest observation-tainting adversary plus both modality attacks.
ATTACKS_COMPARED: tuple[str, ...] = ("dec_bounded", "rssi_amp", "tdoa_skew")

#: Degrees of damage along the x axis.
DEGREES_OF_DAMAGE: tuple[float, ...] = (80.0, 160.0)

#: Compromise fractions (the detection-side ``x``; modality attacks
#: ignore it — they never touch the observation).
COMPROMISED_FRACTIONS: tuple[float, ...] = (0.10,)

#: False-positive budget at which the detection rate is read.
FALSE_POSITIVE_RATE: float = 0.01

#: Detection metric of the matrix.
METRIC: str = "diff"


def _effective_beacons(scenario: ScenarioSpec) -> Optional[dict]:
    """The beacon spec the sessions will actually deploy (for reporting).

    Sessions running a beacon-based scheme fall back to the
    :class:`BeaconSpec` defaults when the scenario carries none, so the
    figure parameters record that effective spec instead of ``None``.
    """
    if scenario.beacons is not None:
        return scenario.beacons.as_dict()
    needs_beacons = any(
        LOCALIZERS.get(name).requires_beacons for name in scenario.localizer_values()
    )
    return BeaconSpec().as_dict() if needs_beacons else None


@dataclass(frozen=True)
class MatrixFigure:
    """One preset of the matrix: its identity and default axes.

    ``spec``, ``render`` and ``run`` have the interface of a figure
    module.  A *single_attack* preset (Figure L) plots the first attack
    only, titles its panels by compromise fraction and names that attack
    in its parameters.
    """

    figure_id: str
    title: str
    localizers: Tuple[str, ...]
    attacks: Tuple[str, ...]
    degrees: Tuple[float, ...]
    single_attack: bool = False

    def spec(
        self,
        config: Optional[SimulationConfig] = None,
        scale: float = 1.0,
        *,
        localizers: Optional[Sequence[str]] = None,
        attacks: Optional[Sequence[str]] = None,
        degrees: Optional[Sequence[float]] = None,
        fractions: Sequence[float] = COMPROMISED_FRACTIONS,
        false_positive_rate: float = FALSE_POSITIVE_RATE,
    ) -> ScenarioSpec:
        """The figure's evaluation as a declarative scenario."""
        return ScenarioSpec(
            name=self.figure_id,
            description=self.title,
            metrics=(METRIC,),
            attacks=tuple(self.attacks if attacks is None else attacks),
            degrees=tuple(self.degrees if degrees is None else degrees),
            fractions=tuple(fractions),
            localizers=tuple(self.localizers if localizers is None else localizers),
            false_positive_rate=false_positive_rate,
            config=config or SimulationConfig(),
        ).scaled(scale)

    def render(
        self,
        scenario: ScenarioSpec,
        *,
        session: Optional[LadSession] = None,
        workers: int = 0,
        density_workers: int = 0,
        store=None,
    ) -> FigureResult:
        """Render the figure from an already-built scenario spec.

        The *session* argument is ignored (each localizer needs its own
        threshold training); it is accepted for interface uniformity with
        the other figure renderers.

        Parameters
        ----------
        workers:
            Worker processes for the per-scheme attack-grid sweep (only
            used when ``density_workers`` is off).
        density_workers:
            When ``> 1``, fan the *localizer axis* over this many worker
            processes instead — every scheme's training pass is
            independent, which is the axis worth parallelising here.
            Results are identical to the serial run; platforms without
            process support fall back to the serial path with a warning.
        """
        del session
        parameters = {
            "false_positive_rate": scenario.false_positive_rate,
            "metric": scenario.metrics[0],
        }
        attacks = scenario.attacks
        if self.single_attack:
            attacks = attacks[:1]
            parameters["attack"] = attacks[0]
        else:
            parameters["attacks"] = list(attacks)
            parameters["localizers"] = list(scenario.localizer_values())
        parameters["beacons"] = _effective_beacons(scenario)
        figure = FigureResult(
            figure_id=self.figure_id, title=self.title, parameters=parameters
        )
        rates_at = session_rates(
            scenario, workers=workers, density_workers=density_workers, store=store
        )
        group_size = scenario.density_values()[0]

        for attack in attacks:
            for fraction in scenario.fractions:
                percent = f"x={int(round(fraction * 100))}%"
                if self.single_attack:
                    title = percent
                elif len(scenario.fractions) > 1:
                    title = f"attack={attack}, {percent}"
                else:
                    title = f"attack={attack}"
                panel = PanelResult(
                    title=title,
                    x_label="D-Degree of Damage (m)",
                    y_label="DR-Detection Rate",
                )
                for localizer in scenario.localizer_values():
                    rates = [
                        rates_at[localizer, group_size][
                            SweepPoint(
                                scenario.metrics[0],
                                attack,
                                float(degree),
                                float(fraction),
                            )
                        ].detection_rate
                        for degree in scenario.degrees
                    ]
                    panel.add_series(
                        SeriesResult(
                            label=localizer,
                            x=[float(degree) for degree in scenario.degrees],
                            y=rates,
                        )
                    )
                figure.add_panel(panel)
        return figure

    def run(
        self,
        simulation: Optional[LadSession] = None,
        config: Optional[SimulationConfig] = None,
        scale: float = 1.0,
        *,
        workers: int = 0,
        density_workers: int = 0,
        store=None,
        **axes,
    ) -> FigureResult:
        """Reproduce the figure and return its series.

        *axes* are the keyword axes of :meth:`spec`; the rest is as in
        :meth:`render`.
        """
        return self.render(
            self.spec(config, scale, **axes),
            session=simulation,
            workers=workers,
            density_workers=density_workers,
            store=store,
        )


#: Figure M: every scheme against every attack.
FIGM = MatrixFigure(
    figure_id="figm",
    title="Localizer x attack robustness matrix",
    localizers=LOCALIZERS_COMPARED,
    attacks=ATTACKS_COMPARED,
    degrees=DEGREES_OF_DAMAGE,
)

#: Figure L: the Dec-Bounded column over the five classic schemes.
FIGL = MatrixFigure(
    figure_id="figl",
    title="Detection rate vs degree of damage per localization scheme",
    localizers=LOCALIZERS_COMPARED[:5],
    attacks=("dec_bounded",),
    degrees=(40.0, 80.0, 120.0, 160.0),
    single_attack=True,
)

spec = FIGM.spec
render = FIGM.render
run = FIGM.run
