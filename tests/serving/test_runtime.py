"""Tests for :class:`repro.serving.ServiceRuntime`.

Covers the tentpole's behavioural guarantees: micro-batching flushes on
size *and* timer, verdicts through the async path are bit-identical to
direct scoring, a full queue rejects (or blocks) according to the
overflow policy, and shutdown drains every accepted claim.

Most tests drive a lightweight fake service for deterministic control of
batch timing; the integration tests at the bottom use the real trained
service.
"""

import asyncio
import dataclasses
import time

import numpy as np
import pytest

from repro.core.verdict import Verdict
from repro.serving import (
    LocationClaim,
    ServiceClosed,
    ServiceOverloaded,
    ServiceRuntime,
    ServingConfig,
)


class FakeService:
    """Deterministic stand-in for DetectionService.

    Scores every claim with its first observation entry and records the
    batch sizes the runtime produced; an optional delay simulates slow
    vectorised scoring (runs in the runtime's executor thread, so it must
    block, not await).
    """

    def __init__(self, delay_s: float = 0.0):
        self.batches = []
        self.delay_s = delay_s

    def validate(self, claim):
        pass

    def verify_batch(self, claims):
        if self.delay_s:
            time.sleep(self.delay_s)
        self.batches.append(len(claims))
        return [
            Verdict(
                score=float(claim.observation[0]),
                threshold=10.0,
                anomalous=float(claim.observation[0]) > 10.0,
                metric="diff",
                false_positive_rate=0.01,
                claim_id=claim.claim_id,
            )
            for claim in claims
        ]


def _claim(value: float, claim_id=None) -> LocationClaim:
    return LocationClaim(
        observation=[value], claimed_location=[0.0, 0.0], claim_id=claim_id
    )


class TestMicroBatching:
    def test_batches_bounded_by_max_batch_size(self):
        service = FakeService(delay_s=0.01)

        async def run():
            config = ServingConfig(max_batch_size=4, max_wait_ms=50.0)
            async with ServiceRuntime(service, config) as runtime:
                verdicts = await asyncio.gather(
                    *[runtime.submit(_claim(float(i))) for i in range(12)]
                )
            return verdicts

        verdicts = asyncio.run(run())
        assert len(verdicts) == 12
        assert max(service.batches) <= 4
        # The delay keeps the queue occupied, so batching actually happens.
        assert any(size > 1 for size in service.batches)

    def test_timer_flushes_partial_batch(self):
        service = FakeService()

        async def run():
            config = ServingConfig(max_batch_size=64, max_wait_ms=5.0)
            async with ServiceRuntime(service, config) as runtime:
                return await asyncio.wait_for(
                    runtime.submit(_claim(3.0)), timeout=5.0
                )

        verdict = asyncio.run(run())
        # A single claim can never fill max_batch_size=64; only the batch
        # timer can have flushed it.
        assert verdict.score == 3.0
        assert service.batches == [1]

    def test_scores_bit_identical_through_async_path(self, tiny_service):
        """The async front returns exactly verify_batch's verdicts."""
        observations = np.eye(tiny_service.n_groups)[:8] * 7.0
        claims = [
            LocationClaim(
                observation=observations[i],
                claimed_location=[250.0, 250.0],
                claim_id=f"a-{i}",
            )
            for i in range(8)
        ]
        direct = tiny_service.verify_batch(claims)

        async def run():
            config = ServingConfig(max_batch_size=3, max_wait_ms=1.0)
            async with ServiceRuntime(tiny_service, config) as runtime:
                return await asyncio.gather(
                    *[runtime.submit(claim) for claim in claims]
                )

        served = asyncio.run(run())
        for online, offline in zip(served, direct):
            assert online.score == offline.score
            assert online.anomalous == offline.anomalous
            assert online.latency_ms is not None

    def test_stats_count_batches(self):
        service = FakeService(delay_s=0.005)

        async def run():
            config = ServingConfig(max_batch_size=8, max_wait_ms=20.0)
            async with ServiceRuntime(service, config) as runtime:
                await asyncio.gather(
                    *[runtime.submit(_claim(1.0)) for _ in range(20)]
                )
                return runtime.stats

        stats = asyncio.run(run())
        assert stats.submitted == 20
        assert stats.completed == 20
        assert stats.batches == len(service.batches)
        assert stats.largest_batch == max(service.batches)
        assert stats.mean_batch_size == pytest.approx(
            20 / len(service.batches)
        )

    def test_stats_stay_scalar_over_many_claims(self):
        """A long-lived runtime keeps no per-claim state: after 10^4
        claims its stats still hold only the scalar counters."""
        service = FakeService()
        num_claims = 10_000

        async def run():
            config = ServingConfig(max_batch_size=256, overflow="block")
            async with ServiceRuntime(service, config) as runtime:
                await asyncio.gather(
                    *[runtime.submit(_claim(1.0)) for _ in range(num_claims)]
                )
                return runtime.stats

        stats = asyncio.run(run())
        assert stats.completed == num_claims
        assert sum(service.batches) == num_claims
        assert {type(value) for value in vars(stats).values()} == {int}


class TestVerdictCopy:
    def test_with_latency_copies_every_other_field(self):
        verdict = Verdict(
            score=1.5,
            threshold=2.0,
            anomalous=False,
            metric="diff",
            false_positive_rate=0.05,
            claim_id="c-1",
            latency_ms=0.5,
            error="boom",
        )
        copy = verdict.with_latency(3)
        assert copy == dataclasses.replace(verdict, latency_ms=3.0)
        assert type(copy.latency_ms) is float
        assert verdict.latency_ms == 0.5


class TestBackpressure:
    def test_reject_when_queue_full(self):
        service = FakeService(delay_s=0.05)

        async def run():
            config = ServingConfig(
                max_batch_size=1,
                max_wait_ms=0.0,
                queue_size=2,
                overflow="reject",
                retry_after_ms=123.0,
            )
            async with ServiceRuntime(service, config) as runtime:
                results = await asyncio.gather(
                    *[runtime.submit(_claim(1.0)) for _ in range(20)],
                    return_exceptions=True,
                )
                return results, runtime.stats

        results, stats = asyncio.run(run())
        rejected = [r for r in results if isinstance(r, ServiceOverloaded)]
        completed = [r for r in results if isinstance(r, Verdict)]
        assert rejected, "a 2-slot queue must shed a 20-claim burst"
        assert completed, "accepted claims must still complete"
        assert all(r.retry_after_ms == 123.0 for r in rejected)
        assert stats.rejected == len(rejected)
        assert stats.completed == len(completed)

    def test_block_mode_completes_everything(self):
        service = FakeService(delay_s=0.01)

        async def run():
            config = ServingConfig(
                max_batch_size=2,
                max_wait_ms=0.0,
                queue_size=2,
                overflow="block",
            )
            async with ServiceRuntime(service, config) as runtime:
                results = await asyncio.gather(
                    *[runtime.submit(_claim(float(i))) for i in range(15)]
                )
                return results, runtime.stats

        results, stats = asyncio.run(run())
        assert len(results) == 15
        assert stats.rejected == 0
        assert stats.completed == 15


class TestShutdown:
    def test_close_drains_accepted_claims(self):
        """Every claim accepted before close() still gets its verdict."""
        service = FakeService(delay_s=0.02)

        async def run():
            config = ServingConfig(max_batch_size=4, max_wait_ms=1.0)
            runtime = ServiceRuntime(service, config)
            await runtime.start()
            pending = [
                asyncio.ensure_future(runtime.submit(_claim(float(i))))
                for i in range(10)
            ]
            await asyncio.sleep(0)  # let the submissions enqueue
            await runtime.close()
            verdicts = await asyncio.gather(*pending)
            return verdicts, runtime.stats

        verdicts, stats = asyncio.run(run())
        assert len(verdicts) == 10
        assert all(isinstance(verdict, Verdict) for verdict in verdicts)
        assert stats.completed == 10

    def test_submit_after_close_raises(self):
        service = FakeService()

        async def run():
            runtime = ServiceRuntime(service, ServingConfig())
            await runtime.start()
            await runtime.close()
            with pytest.raises(ServiceClosed):
                await runtime.submit(_claim(1.0))

        asyncio.run(run())

    def test_close_is_idempotent(self):
        service = FakeService()

        async def run():
            runtime = ServiceRuntime(service, ServingConfig())
            await runtime.start()
            await runtime.close()
            await runtime.close()

        asyncio.run(run())

    def test_submit_before_start_raises(self):
        runtime = ServiceRuntime(FakeService())

        async def run():
            with pytest.raises(RuntimeError, match="not started"):
                await runtime.submit(_claim(1.0))

        asyncio.run(run())

    def test_invalid_claim_rejected_at_admission(self, tiny_service):
        """Validation happens before a claim can occupy queue space."""
        from repro.serving.claims import ClaimError

        async def run():
            async with ServiceRuntime(tiny_service) as runtime:
                with pytest.raises(ClaimError):
                    await runtime.submit(
                        LocationClaim(
                            observation=[1.0], claimed_location=[0.0, 0.0]
                        )
                    )
                return runtime.stats

        stats = asyncio.run(run())
        assert stats.submitted == 0


class TestServingConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_batch_size": 0},
            {"queue_size": 0},
            {"max_wait_ms": -1.0},
            {"overflow": "drop"},
            {"retry_after_ms": -5.0},
        ],
    )
    def test_invalid_config_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ServingConfig(**kwargs)
