"""Open-loop claim driver over ``ServiceRuntime.submit``.

Claim *i* of a phase is due at ``start + i / rate`` (or at ``start`` for a
burst, ``rate=None``).  Its latency runs from that due time to the moment
its verdict reaches the caller, so a stall of the generator or of the
event loop is charged to every claim it delays.  How late each claim was
actually submitted is reported separately.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass
from typing import Dict, Optional, Sequence

import numpy as np

from repro.serving.runtime import ServiceOverloaded


@dataclass
class Phase:
    """What one driven phase measured, per submitted claim."""

    latency_ms: np.ndarray  # NaN where the claim failed
    late_ms: np.ndarray
    scores: np.ndarray  # NaN where the claim failed
    rejected: int
    errored: int
    duration_s: float

    @property
    def completed(self) -> int:
        return int(np.count_nonzero(~np.isnan(self.latency_ms)))


async def drive(
    runtime,
    claims: Sequence,
    *,
    rate: Optional[float],
    submit_times: Optional[Dict[int, float]] = None,
) -> Phase:
    """Submit *claims* open-loop at *rate* per second (all at once if ``None``).

    *submit_times*, when given, receives ``id(claim) -> submit time`` for
    the tracer's queue-wait spans.
    """
    loop = asyncio.get_running_loop()
    n = len(claims)
    latency = np.full(n, np.nan)
    late = np.zeros(n)
    scores = np.full(n, np.nan)
    failures = {"rejected": 0, "errored": 0}

    async def one(index: int, claim, due: float) -> None:
        now = time.perf_counter()
        late[index] = (now - due) * 1000.0
        if submit_times is not None:
            submit_times[id(claim)] = now
        try:
            verdict = await runtime.submit(claim)
        except ServiceOverloaded:
            failures["rejected"] += 1
            return
        except Exception:  # any other failure is counted, not raised
            failures["errored"] += 1
            return
        latency[index] = (time.perf_counter() - due) * 1000.0
        scores[index] = verdict.score

    start = time.perf_counter()
    tasks = []
    for index, claim in enumerate(claims):
        due = start if rate is None else start + index / rate
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        tasks.append(loop.create_task(one(index, claim, due)))
    await asyncio.gather(*tasks)
    return Phase(
        latency_ms=latency,
        late_ms=late,
        scores=scores,
        rejected=failures["rejected"],
        errored=failures["errored"],
        duration_s=time.perf_counter() - start,
    )
