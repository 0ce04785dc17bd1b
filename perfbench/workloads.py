"""The benchmark's three workloads: two offline figure renders, one serve mix.

Each workload has three steps:

* ``prepare`` — untimed inputs (for the serve workloads: a filled artifact
  store and the claim pool, all derived from the seed);
* ``setup`` — what a user pays before the first operation; run in fresh
  processes to time ``setup_s``;
* ``measure`` — the timed operations plus their output checks.
"""

from __future__ import annotations

import asyncio
import contextlib
import functools
import hashlib
import json
import shutil
import statistics
import tempfile
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

import repro.experiments.session as session_module
from repro.experiments.config import SimulationConfig
from repro.experiments.figures import FIGURE_SPECS, run_figure_spec
from repro.experiments.session import LadSession
from repro.experiments.store import ArtifactStore
from repro.serving import DetectionService, LocationClaim, ServiceRuntime, ServingConfig

from loadgen import drive
from spans import Tracer


@dataclass
class Outcome:
    """What one measured run produced (before it becomes the JSON line)."""

    attempted: int = 0
    failed: int = 0
    messages: List[str] = field(default_factory=list)
    metrics: Dict[str, float] = field(default_factory=dict)
    digests: Dict[str, str] = field(default_factory=dict)

    def fail(self, message: str, count: int = 1) -> None:
        self.failed += count
        self.messages.append(message)


def _digest(payload: bytes) -> str:
    return hashlib.sha256(payload).hexdigest()[:16]


def _figure_digest(result) -> str:
    return _digest(json.dumps(result.as_dict(), sort_keys=True).encode("utf-8"))


#: Independent inputs (simulation seeds) of one offline run.  A run's
#: figure time averages over them, so no single deployment's cost sets it.
INPUTS = 4


class Offline:
    """Cold renders of one figure over :data:`INPUTS` inputs, serially.

    The inputs are the figure at *scale* for simulation seeds
    ``seed * INPUTS + k``; a run renders them in turn until its budget is
    spent.  With *store*, every cold render writes into a fresh
    :class:`ArtifactStore`, and the run ends with one warm re-render of
    each input from its last store, which must equal the cold result, hit
    the store on every load and train nothing.
    """

    def __init__(self, figure_id: str, *, scale: float, store: bool):
        self.figure_id = figure_id
        self.scale = scale
        self.store = store

    def prepare(self, seed: int, workdir: str) -> Optional[str]:
        return None

    def setup(self, seed: int, arg: Optional[str]):
        specs = [
            FIGURE_SPECS[self.figure_id](
                config=SimulationConfig(seed=seed * INPUTS + k), scale=self.scale
            )
            for k in range(INPUTS)
        ]
        return specs, []

    def ready(self, specs, announce: Callable[[], None]) -> None:
        announce()

    def _render(self, spec, store_dir: Optional[str]):
        return run_figure_spec(
            spec,
            figure_id=self.figure_id,
            workers=0,
            density_workers=0,
            store=store_dir,
        )

    def measure(
        self, specs, seconds: float, workdir: str, tracer: Optional[Tracer]
    ) -> Outcome:
        out = Outcome()
        times: List[List[float]] = [[] for _ in specs]
        digests: List[List[str]] = [[] for _ in specs]
        stores: List[Optional[str]] = [None] * len(specs)
        rendered = 0
        began = time.perf_counter()
        # Untraced: cycles through the inputs until the budget is spent
        # (at least two renders of each).  Traced: three cycles, the middle
        # one traced; the other two are the baseline of the overhead.
        while True:
            k = rendered % len(specs)
            if self.store:
                if stores[k] is not None:
                    shutil.rmtree(stores[k])
                stores[k] = tempfile.mkdtemp(dir=workdir)
            traced = tracer is not None and rendered // len(specs) == 1
            start = time.perf_counter()
            with _traced(tracer if traced else None, "op.cold_render"):
                result = self._render(specs[k], stores[k])
            times[k].append(time.perf_counter() - start)
            digests[k].append(_figure_digest(result))
            rendered += 1
            if tracer is not None:
                if rendered == 3 * len(specs):
                    break
            elif rendered >= 2 * len(specs) and time.perf_counter() - began >= seconds:
                break
        out.attempted = rendered
        for k, runs in enumerate(digests):
            for index, digest in enumerate(runs[1:], start=1):
                if digest != runs[0]:
                    out.fail(f"input {k} render {index} digest {digest} != {runs[0]}")
        out.digests["figure"] = _digest("".join(runs[0] for runs in digests).encode())
        if self.store:
            for spec, store_dir, runs in zip(specs, stores, digests):
                self._check_warm(spec, store_dir, runs[0], out, tracer)
                shutil.rmtree(store_dir)

        # Each input's fastest render: other tenants of the host only ever
        # slow a render down, for spells of up to a minute, so the fastest
        # of an input's repeats is the one they disturbed least.
        best = [min(runs) for runs in times]
        points = len(specs[0].points()) * len(specs[0].density_values())
        out.metrics.update(
            latency_ms=statistics.fmean(best) * 1000.0,
            tail_ms=max(best) * 1000.0,
            throughput_per_s=points / statistics.fmean(best),
        )
        if tracer is not None:
            cycles = [sum(runs[c] for runs in times) for c in range(3)]
            baseline = (cycles[0] + cycles[2]) / 2.0
            out.metrics["trace.overhead_frac"] = cycles[1] / baseline - 1.0
        return out

    def _check_warm(self, spec, store_dir, cold_digest, out, tracer) -> None:
        """Re-render from the warm store: equal result, all hits, no training."""
        out.attempted += 1
        counter = tracer or Tracer()
        first = len(counter.spans)
        with _traced(counter, "op.warm_render"):
            result = self._render(spec, store_dir)
        spans = counter.spans[first:]
        loads = [span for span in spans if span.name == "store.load"]
        trained = [span for span in spans if span.name == "training.collect"]
        if _figure_digest(result) != cold_digest:
            out.fail("warm render differs from the cold render")
        elif not loads or not all(span.extra for span in loads):
            out.fail(f"warm render missed the store ({len(loads)} loads)")
        elif trained:
            out.fail("warm render ran a training pass")


#: Submission pool size: distinct claim objects, so no object is in flight
#: twice and queue waits can be keyed by object identity.
POOL = 2048
#: Fixed open-loop rate, claims per second.
RATE = 2000.0
#: Expected saturation throughput, claims per second; only sizes the
#: burst count.
SATURATION_RATE = 17500.0
#: Share of ``--seconds`` spent in the fixed-rate and saturation phases.
FIXED_SHARE = 0.7
SATURATION_SHARE = 0.2
#: Claims per window of the fixed-rate tail latency, and its percentile:
#: ten claims of each window lie beyond it.
TAIL_WINDOW = 500
TAIL_PERCENTILE = 98.0
#: Claims released at once by one saturation burst (fits the admission
#: queue, so none is rejected).
BURST = 256
#: Percentile over bursts of the saturation throughput: other tenants of
#: the host slow whole rounds of bursts by up to ~45 %, so the rate the
#: least disturbed twentieth of the bursts reach is what the service
#: sustains.
BURST_PERCENTILE = 95.0
#: Alternations of fixed-rate load and saturation bursts per run.
ROUNDS = 7
METRICS = ("diff", "probability")


class Serve:
    """An in-process ``ServiceRuntime`` warm-started from a filled store.

    The claim pool holds each victim twice: honest, and tainted by the
    Dec-Bounded Diff adversary (D = 120 m, x = 10 %).  Claims alternate
    between the Diff and Probability metrics.  Every claim carries its
    claimed location, so none is localized.
    """

    def prepare(self, seed: int, workdir: str) -> str:
        store_dir = tempfile.mkdtemp(dir=workdir)
        session = LadSession(SimulationConfig(seed=seed), store=store_dir)
        for metric in METRICS:
            session.benign_scores(metric)
        victims = session.victims()
        attacked = session.attacked_claims(
            "diff",
            "dec_bounded",
            degree_of_damage=120.0,
            compromised_fraction=0.10,
        )
        self.base_observations = np.vstack(
            [victims.observations, np.stack([c.observation for c in attacked])]
        )
        self.base_locations = np.vstack(
            [victims.actual_locations, np.stack([c.claimed_location for c in attacked])]
        )
        return store_dir

    def setup(self, seed: int, store_dir: str):
        """Warm start: session over the filled store and service."""
        checks: List[str] = []
        guard = Tracer()
        guard.count(session_module, "collect_training_data", "training")
        try:
            store = ArtifactStore(store_dir)
            session = LadSession(SimulationConfig(seed=seed), store=store)
            service = DetectionService.from_session(
                session, metrics=METRICS, require_warm=True
            )
        finally:
            guard.remove()
        if store.misses or store.hits != len(METRICS):
            checks.append(
                f"warm start: {store.hits} hit(s), {store.misses} miss(es)"
            )
        if guard.counters["training"]:
            checks.append("warm start ran a training pass")
        return service, checks

    def ready(self, service, announce: Callable[[], None]) -> None:
        """Start a runtime over *service*, announce, and stop it again."""

        async def start():
            runtime = ServiceRuntime(service, ServingConfig())
            await runtime.start()
            announce()
            await runtime.close()

        asyncio.run(start())

    def _claims(self, count: int) -> List[LocationClaim]:
        base = self.base_observations.shape[0]
        return [
            LocationClaim(
                observation=self.base_observations[k % base],
                claimed_location=self.base_locations[k % base],
                claim_id=f"claim-{k}",
                metric=METRICS[(k % base) % len(METRICS)],
            )
            for k in range(count)
        ]

    def measure(
        self, service, seconds: float, workdir: str, tracer: Optional[Tracer]
    ) -> Outcome:
        out = Outcome()
        pool = self._claims(POOL)
        # The fixed-rate phase and the saturation bursts alternate in
        # ROUNDS rounds, so both sample the whole run: a slow spell of the
        # host then moves a few samples of each, not all of one.
        fixed = np.array_split(
            np.arange(int(RATE * FIXED_SHARE * seconds)), ROUNDS
        )
        bursts = max(
            1, round(SATURATION_SHARE * seconds * SATURATION_RATE / BURST / ROUNDS)
        )
        submit_times = tracer.submit_times if tracer is not None else None

        async def phases():
            runtime = ServiceRuntime(service, ServingConfig())
            await runtime.start()
            fixed_parts, saturation = [], []
            try:
                for indices in fixed:
                    with _traced(tracer, "phase.fixed_rate"):
                        fixed_parts.append(
                            await drive(
                                runtime,
                                [pool[i % POOL] for i in indices],
                                rate=RATE,
                                submit_times=submit_times,
                            )
                        )
                    if submit_times is not None:
                        # Queue waits are taken from the fixed-rate load only.
                        submit_times.clear()
                    for _ in range(bursts):
                        # Traced runs trace every other burst; the untraced
                        # ones are the baseline of the tracing overhead.
                        traced = tracer is not None and len(saturation) % 2 == 1
                        with _traced(tracer if traced else None, "phase.saturation"):
                            saturation.append(
                                await drive(runtime, pool[:BURST], rate=None)
                            )
            finally:
                await runtime.close()
            return fixed_parts, saturation

        fixed_parts, saturation = asyncio.run(phases())

        # Every served score must equal verify_batch on the same claim.
        base = self.base_observations.shape[0]
        reference = np.array(
            [verdict.score for verdict in service.verify_batch(pool[:base])]
        )
        out.digests["scores"] = _digest(reference.tobytes())
        for name, phase, indices in [
            ("fixed-rate", part, indices) for part, indices in zip(fixed_parts, fixed)
        ] + [("saturation", part, np.arange(BURST)) for part in saturation]:
            out.attempted += len(indices)
            if phase.rejected or phase.errored:
                out.fail(
                    f"{name}: {phase.rejected} rejected, {phase.errored} errored",
                    phase.rejected + phase.errored,
                )
            served = ~np.isnan(phase.scores)
            expected = reference[(indices % POOL) % base]
            wrong = int(np.count_nonzero(phase.scores[served] != expected[served]))
            if wrong:
                out.fail(f"{name}: {wrong} score(s) differ from verify_batch", wrong)

        # Statistics over windows and bursts, so that a stall of a second
        # or two (other tenants on the host) moves one sample, not the result.
        latency = np.concatenate([part.latency_ms for part in fixed_parts])
        windows = np.array_split(latency, max(1, latency.size // TAIL_WINDOW))
        rates = [part.completed / part.duration_s for part in saturation]
        untraced = rates[0::2] if tracer is not None else rates
        out.metrics.update(
            latency_ms=float(np.nanpercentile(latency, 50)),
            tail_ms=float(
                np.median([np.nanpercentile(w, TAIL_PERCENTILE) for w in windows])
            ),
            throughput_per_s=float(np.percentile(untraced, BURST_PERCENTILE)),
        )
        if tracer is not None:
            late = np.concatenate([part.late_ms for part in fixed_parts])
            traced = float(np.percentile(rates[1::2], BURST_PERCENTILE))
            out.metrics["trace.overhead_frac"] = (
                out.metrics["throughput_per_s"] / traced - 1.0
            )
            out.metrics["loadgen.late_p99_ms"] = float(np.percentile(late, 99))
        return out


@contextlib.contextmanager
def _traced(tracer: Optional[Tracer], phase: str):
    """Install *tracer* (when given) for one phase, under a span of its own."""
    if tracer is None:
        yield
        return
    tracer.install()
    try:
        with tracer.span(phase):
            yield
    finally:
        tracer.remove()


#: Workload name -> factory of a fresh workload object (one per run).
WORKLOADS = {
    "fig4_roc": functools.partial(Offline, "fig4", scale=0.25, store=False),
    "fig9_density": functools.partial(Offline, "fig9", scale=0.5, store=True),
    "serve_verify": Serve,
}
