"""Load generator + latency reporting for the detection service.

``lad-repro loadgen`` (and the serving benchmark suite) drive a
:class:`~repro.serving.runtime.ServiceRuntime` — in-process or over TCP —
with realistic claim streams and report what operators actually tune for:
sustained claims/sec and the p50/p99 end-to-end latency a claimant sees.

Claim material comes from the scenario itself
(:func:`claims_from_session`): the session's evaluation victims provide
honest ``(observation, actual location)`` pairs, so the generated load
exercises the same score distribution as the offline evaluation — no
synthetic observations that the ``g(z)`` table has never seen.

The generator is **open-loop**: claim *i* is due at ``start + i / rate``
regardless of how fast earlier claims completed, so queueing delay shows
up in the latency percentiles instead of being hidden by a closed feedback
loop (the standard way load generators accidentally flatter p99).
``rate=None`` makes every claim due at ``start`` — the saturation mode the
throughput benchmark uses.  A claim's latency runs from its due time, not
from the moment it was actually submitted, so a stall of the generator or
of the event loop is charged to every claim it delays (no coordinated
omission); how late each claim was submitted is reported separately.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass
from typing import Awaitable, Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.core.verdict import Verdict
from repro.serving.claims import LocationClaim
from repro.serving.runtime import ServiceOverloaded, ServiceRuntime
from repro.serving.transport import ClaimClient, RemoteClaimError

__all__ = [
    "LoadReport",
    "claims_from_session",
    "run_load",
    "run_tcp_load",
]

#: ``submit(index, claim)``: *index* is the claim's position in the stream.
_Submit = Callable[[int, LocationClaim], Awaitable[Verdict]]


@dataclass(frozen=True)
class LoadReport:
    """What one load-generation run measured.

    Latencies are measured client-side (from each claim's due time to its
    verdict, in milliseconds), so they include queueing, any stall of the
    generator and — over TCP — the wire.
    """

    total: int
    completed: int
    rejected: int
    errors: int
    flagged: int
    duration_s: float
    #: Latency of every completed claim, in submission order.
    latencies_ms: np.ndarray
    #: Verdict score per claim in submission order (NaN where the claim was
    #: rejected or errored) — lets callers compare runs bit-for-bit.
    scores: np.ndarray
    #: How late each claim was submitted after its due time, milliseconds.
    late_ms: np.ndarray

    @property
    def claims_per_sec(self) -> float:
        """Completed verdicts per second of wall-clock."""
        return self.completed / self.duration_s if self.duration_s > 0 else 0.0

    def percentile(self, q: float) -> float:
        """Latency percentile *q* (in [0, 100]) in milliseconds."""
        if self.latencies_ms.size == 0:
            return float("nan")
        return float(np.percentile(self.latencies_ms, q))

    @property
    def p50_ms(self) -> float:
        """Median end-to-end latency."""
        return self.percentile(50.0)

    @property
    def p99_ms(self) -> float:
        """99th-percentile end-to-end latency."""
        return self.percentile(99.0)

    @property
    def late_p99_ms(self) -> float:
        """99th percentile of how late claims were submitted."""
        if self.late_ms.size == 0:
            return float("nan")
        return float(np.percentile(self.late_ms, 99.0))

    def as_dict(self) -> Dict[str, float]:
        """JSON-friendly summary (used by the CLI and the benchmark)."""
        return {
            "total": self.total,
            "completed": self.completed,
            "rejected": self.rejected,
            "errors": self.errors,
            "flagged": self.flagged,
            "duration_s": round(self.duration_s, 6),
            "claims_per_sec": round(self.claims_per_sec, 3),
            "p50_ms": round(self.p50_ms, 4),
            "p99_ms": round(self.p99_ms, 4),
            "late_p99_ms": round(self.late_p99_ms, 4),
        }

    def summary(self) -> str:
        """One human line: throughput + tail latency."""
        return (
            f"{self.completed}/{self.total} verdicts in {self.duration_s:.3f}s "
            f"({self.claims_per_sec:.1f} claims/s), "
            f"p50 {self.p50_ms:.2f} ms, p99 {self.p99_ms:.2f} ms, "
            f"{self.flagged} flagged, {self.rejected} rejected"
        )


def claims_from_session(
    session,
    *,
    count: int,
    localize: bool = False,
    metric: Optional[str] = None,
) -> List[LocationClaim]:
    """Honest claims drawn from a session's evaluation victims.

    Victims are cycled when *count* exceeds the sample.  With
    ``localize=True`` the claimed locations are omitted, turning every
    claim into a localize-then-verify request (beaconless sessions only).
    """
    victims = session.victims()
    observations = np.asarray(victims.observations)
    locations = np.asarray(victims.actual_locations)
    claims = []
    for i in range(count):
        j = i % observations.shape[0]
        claims.append(
            LocationClaim(
                observation=observations[j],
                claimed_location=None if localize else locations[j],
                claim_id=f"load-{i}",
                metric=metric,
            )
        )
    return claims


async def _drive(
    submit: _Submit,
    claims: Sequence[LocationClaim],
    *,
    rate: Optional[float] = None,
) -> LoadReport:
    """Submit claims open-loop at *rate*/sec (or all at once) and collect.

    Claim *i* is due at ``start + i / rate`` (``start`` when *rate* is
    ``None``); its latency is timed from that due time.
    """
    loop = asyncio.get_running_loop()
    n = len(claims)
    outcomes: List[Optional[Verdict]] = [None] * n
    latency = np.full(n, np.nan)
    late = np.zeros(n)
    rejected = 0
    errors = 0

    async def one(index: int, claim: LocationClaim, due: float) -> None:
        nonlocal rejected, errors
        late[index] = (time.perf_counter() - due) * 1000.0
        try:
            verdict = await submit(index, claim)
        except (ServiceOverloaded, RemoteClaimError) as error:
            overloaded = getattr(error, "overloaded", True)
            if isinstance(error, ServiceOverloaded) or overloaded:
                rejected += 1
            else:
                errors += 1
            return
        except Exception:
            errors += 1
            return
        outcomes[index] = verdict
        latency[index] = (time.perf_counter() - due) * 1000.0

    start = time.perf_counter()
    tasks = []
    for index, claim in enumerate(claims):
        due = start if rate is None else start + index / rate
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        tasks.append(loop.create_task(one(index, claim, due)))
    if tasks:
        await asyncio.gather(*tasks)
    duration = time.perf_counter() - start

    verdicts = [verdict for verdict in outcomes if verdict is not None]
    return LoadReport(
        total=len(claims),
        completed=len(verdicts),
        rejected=rejected,
        errors=errors,
        flagged=sum(1 for verdict in verdicts if verdict.anomalous),
        duration_s=duration,
        latencies_ms=latency[~np.isnan(latency)],
        scores=np.array(
            [
                np.nan if verdict is None else verdict.score
                for verdict in outcomes
            ],
            dtype=np.float64,
        ),
        late_ms=late,
    )


async def run_load(
    runtime: ServiceRuntime,
    claims: Sequence[LocationClaim],
    *,
    rate: Optional[float] = None,
) -> LoadReport:
    """Drive an in-process runtime with *claims* and measure the outcome."""
    return await _drive(lambda _, claim: runtime.submit(claim), claims, rate=rate)


async def run_tcp_load(
    host: str,
    port: int,
    claims: Sequence[LocationClaim],
    *,
    rate: Optional[float] = None,
    connections: int = 1,
) -> LoadReport:
    """Drive a remote ``lad-repro serve`` instance over TCP.

    *connections* clients share the claim stream round-robin by stream
    position (claim *i* goes to connection ``i % connections``), so the
    generator itself does not serialise on one socket when probing a
    server's saturation throughput.
    """
    if connections < 1:
        raise ValueError(f"connections must be >= 1, got {connections}")
    clients = [ClaimClient(host, port) for _ in range(connections)]
    for client in clients:
        await client.__aenter__()
    try:

        async def submit(index: int, claim: LocationClaim) -> Verdict:
            return await clients[index % connections].submit(claim)

        return await _drive(submit, claims, rate=rate)
    finally:
        for client in clients:
            await client.__aexit__(None, None, None)
