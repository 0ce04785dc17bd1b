"""Asyncio front of the detection service — micro-batching + backpressure.

:class:`ServiceRuntime` wraps a :class:`~repro.serving.service.DetectionService`
in the shape an online verifier actually needs:

* **admission** — ``await runtime.submit(claim)`` validates the claim,
  enqueues it, and resolves to its :class:`~repro.core.verdict.Verdict`;
* **micro-batching** — a single consumer task collects queued claims into
  batches, flushing when ``max_batch_size`` claims are waiting *or*
  ``max_wait_ms`` has passed since the batch opened, whichever comes
  first.  Each flush is ONE vectorised
  :meth:`DetectionService.verify_batch` call;
* **backpressure** — the admission queue is bounded.  When it is full,
  ``overflow="reject"`` fails fast with :class:`ServiceOverloaded`
  (carrying a ``retry_after_ms`` hint for the transport to relay), while
  ``overflow="block"`` parks the submitter until space frees up;
* **graceful shutdown** — ``await runtime.close()`` stops admission
  (:class:`ServiceClosed`), then drains: every claim accepted before the
  close is still verified and its future resolved.  Nothing is dropped.

Batches run in a single-thread executor so the event loop keeps admitting
(and rejecting) claims while numpy crunches the current batch — admission
latency stays flat under load instead of tracking batch compute time.

The micro-batcher uses a *persistent pending getter*: the one outstanding
``queue.get()`` future survives a flush timeout into the next batch
instead of being cancelled, so a claim can never be popped by a getter
that is abandoned before delivering it.
"""

from __future__ import annotations

import asyncio
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.verdict import Verdict
from repro.serving.claims import LocationClaim
from repro.serving.service import DetectionService
from repro.utils.logging import get_logger
from repro.utils.validation import check_positive

__all__ = [
    "ServiceClosed",
    "ServiceOverloaded",
    "ServiceRuntime",
    "ServiceStats",
    "ServingConfig",
]

_LOGGER = get_logger("serving.runtime")

#: Queue marker that tells the batch loop to flush and exit.
_SENTINEL = object()


class ServiceOverloaded(RuntimeError):
    """The admission queue is full and the overflow policy is ``reject``.

    Attributes
    ----------
    retry_after_ms:
        How long the submitter should back off before retrying.
    """

    def __init__(self, retry_after_ms: float):
        super().__init__(
            f"detection service overloaded; retry in {retry_after_ms:g} ms"
        )
        self.retry_after_ms = float(retry_after_ms)


class ServiceClosed(RuntimeError):
    """The runtime is shutting down and no longer admits claims."""


@dataclass(frozen=True)
class ServingConfig:
    """Tuning knobs of the asyncio serving front.

    Attributes
    ----------
    max_batch_size:
        Flush a micro-batch as soon as this many claims are collected.
    max_wait_ms:
        Flush an incomplete batch this long after its first claim arrived
        (the latency price a claim may pay for batching).
    queue_size:
        Bound of the admission queue; the backpressure trigger.
    overflow:
        ``"reject"`` fails a submit into a full queue with
        :class:`ServiceOverloaded`; ``"block"`` parks the submitter.
    retry_after_ms:
        Back-off hint carried by :class:`ServiceOverloaded` (and relayed
        by transports in error responses).
    """

    max_batch_size: int = 32
    max_wait_ms: float = 2.0
    queue_size: int = 1024
    overflow: str = "reject"
    retry_after_ms: float = 20.0

    def __post_init__(self) -> None:
        check_positive("max_batch_size", self.max_batch_size)
        check_positive("queue_size", self.queue_size)
        if self.max_wait_ms < 0:
            raise ValueError(f"max_wait_ms must be >= 0, got {self.max_wait_ms}")
        if self.overflow not in ("reject", "block"):
            raise ValueError(
                f"overflow must be 'reject' or 'block', got {self.overflow!r}"
            )
        if self.retry_after_ms < 0:
            raise ValueError(
                f"retry_after_ms must be >= 0, got {self.retry_after_ms}"
            )


@dataclass
class ServiceStats:
    """Running counters of one :class:`ServiceRuntime`."""

    submitted: int = 0
    completed: int = 0
    rejected: int = 0
    failed: int = 0
    batches: int = 0
    largest_batch: int = 0
    batched_claims: int = 0

    @property
    def mean_batch_size(self) -> float:
        """Average claims per flushed micro-batch."""
        return self.batched_claims / self.batches if self.batches else 0.0

    def as_dict(self) -> Dict[str, float]:
        """Counter snapshot."""
        return {
            "submitted": self.submitted,
            "completed": self.completed,
            "rejected": self.rejected,
            "failed": self.failed,
            "batches": self.batches,
            "largest_batch": self.largest_batch,
            "mean_batch_size": round(self.mean_batch_size, 3),
        }


class ServiceRuntime:
    """Bounded-queue micro-batching front of a :class:`DetectionService`.

    Use as an async context manager::

        async with ServiceRuntime(service, config) as runtime:
            verdict = await runtime.submit(claim)

    or call :meth:`start` / :meth:`close` explicitly.
    """

    def __init__(
        self,
        service: DetectionService,
        config: Optional[ServingConfig] = None,
    ):
        self._service = service
        self._config = config or ServingConfig()
        self._queue: Optional[asyncio.Queue] = None
        self._worker: Optional[asyncio.Task] = None
        self._executor: Optional[ThreadPoolExecutor] = None
        self._closed = False
        self.stats = ServiceStats()

    @property
    def service(self) -> DetectionService:
        """The wrapped detection service."""
        return self._service

    @property
    def config(self) -> ServingConfig:
        """The serving configuration."""
        return self._config

    @property
    def started(self) -> bool:
        """Whether the batch loop is running."""
        return self._worker is not None and not self._worker.done()

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> "ServiceRuntime":
        """Start the micro-batching consumer task."""
        if self._worker is not None:
            raise RuntimeError("ServiceRuntime is already started")
        self._queue = asyncio.Queue(maxsize=self._config.queue_size)
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="lad-serve"
        )
        self._worker = asyncio.get_running_loop().create_task(self._run())
        return self

    async def close(self) -> None:
        """Stop admission, drain every accepted claim, stop the loop.

        Safe to call more than once.  Claims whose :meth:`submit` already
        succeeded (or is blocked inside an accepted ``put``) are verified
        before the batch loop exits — the sentinel enters the queue behind
        them, so the loop cannot see it first.
        """
        if self._closed:
            if self._worker is not None:
                await asyncio.shield(self._worker)
            return
        self._closed = True
        if self._worker is None:
            return
        await self._queue.put(_SENTINEL)
        await self._worker
        if self._executor is not None:
            self._executor.shutdown(wait=True)

    async def __aenter__(self) -> "ServiceRuntime":
        return await self.start()

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    # -- admission ---------------------------------------------------------

    async def submit(self, claim: LocationClaim) -> Verdict:
        """Admit one claim and await its verdict.

        Raises
        ------
        ServiceClosed
            The runtime is (or starts) shutting down.
        ServiceOverloaded
            The queue is full under the ``reject`` overflow policy.
        ClaimError
            The claim cannot be served (checked before it takes a slot).
        """
        if self._worker is None:
            raise RuntimeError("ServiceRuntime is not started")
        if self._closed:
            raise ServiceClosed("detection service is shutting down")
        self._service.validate(claim)
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        entry = (claim, future, time.perf_counter())
        if self._config.overflow == "reject":
            try:
                self._queue.put_nowait(entry)
            except asyncio.QueueFull:
                self.stats.rejected += 1
                raise ServiceOverloaded(self._config.retry_after_ms) from None
        else:
            await self._queue.put(entry)
        self.stats.submitted += 1
        return await future

    # -- the micro-batcher -------------------------------------------------

    async def _run(self) -> None:
        loop = asyncio.get_running_loop()
        max_wait_s = self._config.max_wait_ms / 1000.0
        getter: Optional[asyncio.Future] = None
        running = True
        while running:
            # Wait (without deadline) for the claim that opens a batch.
            if getter is None:
                getter = asyncio.ensure_future(self._queue.get())
            await asyncio.wait({getter})
            first = getter.result()
            getter = None
            if first is _SENTINEL:
                break
            batch = [first]
            deadline = loop.time() + max_wait_s
            # Top up until the batch is full or the batch timer fires.  A
            # timed-out getter is NOT cancelled — it stays pending and
            # opens (or joins) the next batch, so no claim is ever lost.
            while len(batch) < self._config.max_batch_size:
                if getter is None:
                    # Fast path: drain claims that are already queued
                    # without paying an event-loop round-trip per claim —
                    # this is where a saturated queue spends its time.
                    try:
                        entry = self._queue.get_nowait()
                    except asyncio.QueueEmpty:
                        pass
                    else:
                        if entry is _SENTINEL:
                            running = False
                            break
                        batch.append(entry)
                        continue
                    getter = asyncio.ensure_future(self._queue.get())
                timeout = deadline - loop.time()
                if timeout <= 0:
                    break
                done, _ = await asyncio.wait({getter}, timeout=timeout)
                if not done:
                    break
                entry = getter.result()
                getter = None
                if entry is _SENTINEL:
                    running = False
                    break
                batch.append(entry)
            await self._flush(batch)
        # Defensive drain: with FIFO admission the sentinel is always the
        # last entry, so this should find nothing — but if it ever does,
        # verifying is strictly better than dropping.
        leftovers = []
        while True:
            try:
                entry = self._queue.get_nowait()
            except asyncio.QueueEmpty:
                break
            if entry is not _SENTINEL:
                leftovers.append(entry)
        if leftovers:  # pragma: no cover - unreachable by construction
            await self._flush(leftovers)

    async def _flush(
        self, batch: List[Tuple[LocationClaim, asyncio.Future, float]]
    ) -> None:
        """Verify one micro-batch off-loop and resolve its futures."""
        claims = [claim for claim, _, _ in batch]
        try:
            verdicts = await asyncio.get_running_loop().run_in_executor(
                self._executor, self._service.verify_batch, claims
            )
        except Exception as error:  # claim validation happens at admission,
            # so this is a genuine backend failure: fail the whole batch.
            _LOGGER.exception("micro-batch of %d claims failed", len(claims))
            for _, future, _ in batch:
                if not future.done():
                    future.set_exception(error)
                    self.stats.failed += 1
            return
        finish = time.perf_counter()
        self.stats.batches += 1
        self.stats.batched_claims += len(batch)
        self.stats.largest_batch = max(self.stats.largest_batch, len(batch))
        for verdict, (_, future, enqueued) in zip(verdicts, batch):
            if not future.done():
                future.set_result(verdict.with_latency((finish - enqueued) * 1000.0))
                self.stats.completed += 1
