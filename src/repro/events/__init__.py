"""Discrete-event temporal evaluation (mobility, churn, mid-run attacks).

The package has three layers:

* :mod:`repro.events.timeline` — the declarative :class:`TimelineSpec` /
  :class:`EventSpec` pair (the ``[timeline]`` table of a scenario TOML)
  and its deterministic compilation into :class:`Firing` records;
* :mod:`repro.events.engine` — the tiny heap-based :class:`EventEngine`
  with tie-stable (push-order) ordering;
* :mod:`repro.events.temporal` — the epoch stepper: a mutable
  :class:`TemporalWorld` replayed from the session's victim stream, the
  shared :func:`~repro.events.temporal._simulate_point` computation, and
  the :class:`TemporalRunner` producing :class:`TemporalOutcome` records
  (detection latency, time to first false positive, detection-rate
  drift).  The runner sits on the sweep's store loop
  (:class:`~repro.experiments.sweep.CachedGrid`), so temporal grids cache,
  fan out, shard and report progress like static ones.

Entry point: :meth:`LadSession.temporal
<repro.experiments.session.LadSession.temporal>` or a scenario spec with
a ``[timeline]`` table.
"""

from repro.events.engine import EventEngine
from repro.events.timeline import EventSpec, Firing, TimelineSpec
from repro.events.temporal import TemporalOutcome, TemporalRunner, TemporalWorld

__all__ = [
    "EventEngine",
    "EventSpec",
    "Firing",
    "TemporalOutcome",
    "TemporalRunner",
    "TemporalWorld",
    "TimelineSpec",
]
