"""Tests for the load generator's timing and connection routing."""

import asyncio
import time

import numpy as np

import repro.serving.loadgen as loadgen
from repro.core.verdict import Verdict
from repro.serving import LocationClaim, run_load, run_tcp_load


def _claims(count, *, with_ids=True):
    return [
        LocationClaim(
            observation=np.zeros(4),
            claimed_location=[0.0, 0.0],
            claim_id=f"load-{i}" if with_ids else None,
        )
        for i in range(count)
    ]


def _verdict(claim):
    return Verdict(
        score=0.0,
        threshold=1.0,
        anomalous=False,
        metric="diff",
        false_positive_rate=0.01,
        claim_id=claim.claim_id,
    )


class StallingRuntime:
    """Answers every claim at once, but the first submit blocks the loop."""

    def __init__(self, stall_s):
        self.stall_s = stall_s
        self.calls = 0

    async def submit(self, claim):
        self.calls += 1
        if self.calls == 1:
            time.sleep(self.stall_s)
        return _verdict(claim)


class TestDueTimeLatency:
    def test_loop_stall_is_charged_to_the_claims_it_delays(self):
        """Claims due during a 50 ms stall wait for it, and their latency
        must show it: each is timed from its due time, not from the moment
        the stalled loop got round to submitting it."""
        stall_ms, rate, count = 50.0, 1000.0, 20
        report = asyncio.run(
            run_load(StallingRuntime(stall_ms / 1000.0), _claims(count), rate=rate)
        )
        assert report.completed == count
        # Claim i is due i ms after the start and cannot be answered before
        # the stall ends, 50 ms after the start.
        floor = stall_ms - np.arange(count) * 1000.0 / rate
        assert np.all(report.latencies_ms >= floor - 1e-6)
        # The same delay is reported as submission lateness.
        assert np.all(report.late_ms[1:] >= floor[1:] - 1e-6)
        assert report.late_p99_ms >= stall_ms - 20.0
        assert report.as_dict()["late_p99_ms"] == round(report.late_p99_ms, 4)

    def test_burst_claims_are_due_at_the_start(self):
        report = asyncio.run(run_load(StallingRuntime(0.05), _claims(8), rate=None))
        assert report.completed == 8
        assert np.all(report.latencies_ms >= 50.0 - 1e-6)


class StubClient:
    """Records which connection each claim was sent on."""

    opened = []

    def __init__(self, host, port):
        self.index = len(StubClient.opened)
        self.sent = []
        StubClient.opened.append(self)

    async def __aenter__(self):
        return self

    async def __aexit__(self, *exc_info):
        return None

    async def submit(self, claim):
        self.sent.append(claim)
        return _verdict(claim)


class TestTcpRouting:
    def _route(self, monkeypatch, claims, connections):
        StubClient.opened = []
        monkeypatch.setattr(loadgen, "ClaimClient", StubClient)
        report = asyncio.run(
            run_tcp_load("127.0.0.1", 1, claims, connections=connections)
        )
        assert report.completed == len(claims)
        route = {}
        for client in StubClient.opened:
            for claim in client.sent:
                route[id(claim)] = client.index
        return [route[id(claim)] for claim in claims]

    def test_round_robin_by_stream_index(self, monkeypatch):
        route = self._route(monkeypatch, _claims(9), connections=3)
        assert route == [0, 1, 2, 0, 1, 2, 0, 1, 2]

    def test_claims_without_ids_are_spread_too(self, monkeypatch):
        route = self._route(monkeypatch, _claims(9, with_ids=False), connections=3)
        assert route == [0, 1, 2, 0, 1, 2, 0, 1, 2]
