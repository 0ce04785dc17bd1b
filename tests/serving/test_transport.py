"""Tests for the JSONL transports (TCP + stdio) and :class:`ClaimClient`."""

import asyncio
import io
import json
import string

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.serving import (
    ClaimClient,
    LocationClaim,
    RemoteClaimError,
    ServiceRuntime,
    ServingConfig,
    claim_to_dict,
    run_tcp_load,
    serve_stdio,
    serve_tcp,
)


def _claims(service, count):
    """Simple valid claims for the tiny service's deployment."""
    observations = np.eye(service.n_groups)[:count] * 5.0
    return [
        LocationClaim(
            observation=observations[i],
            claimed_location=[250.0, 250.0],
            claim_id=f"tcp-{i}",
        )
        for i in range(count)
    ]


def _good_lines(service, count):
    """JSONL requests of valid claims with ids ``good-0 … good-<count-1>``."""
    return [
        json.dumps({**claim_to_dict(claim), "id": f"good-{i}"})
        for i, claim in enumerate(_claims(service, count))
    ]


_LOCATION = [250.0, 250.0]

#: Values that are not a numeric vector: text, ragged nesting, objects and
#: integers too large for a float.
_NOT_NUMERIC = st.one_of(
    st.text(max_size=8),
    st.lists(
        st.lists(st.integers(0, 5), min_size=1, max_size=4), min_size=2, max_size=4
    ).filter(lambda rows: len({len(row) for row in rows}) > 1),
    st.dictionaries(st.text(max_size=3), st.integers(), min_size=1, max_size=3),
    st.integers(309, 4000).map(lambda digits: [10**digits]),
)


def _malformed_lines(n_groups):
    """Request lines that must each be answered with exactly one error."""
    observation = [1.0] * n_groups
    claim = {"observation": observation, "claimed_location": _LOCATION}
    return st.one_of(
        # An unknown metric name.
        st.text(string.ascii_letters, min_size=1, max_size=8).map(
            lambda name: json.dumps({**claim, "metric": f"bogus_{name}"})
        ),
        # A non-numeric observation or location.
        _NOT_NUMERIC.map(
            lambda value: json.dumps({**claim, "observation": value})
        ),
        _NOT_NUMERIC.map(
            lambda value: json.dumps({**claim, "claimed_location": value})
        ),
        # An integer literal past Python's 4,300-digit conversion limit.
        st.integers(4301, 8000).map(
            lambda digits: '{"observation": [' + "9" * digits + "]}"
        ),
        # Nesting past the recursion limit, bare or as a metric name.
        st.integers(1000, 20000).map(lambda depth: "[" * depth),
        st.integers(900, 1100).map(
            lambda depth: json.dumps({**claim, "metric": None}).replace(
                "null", "[" * depth + "]" * depth
            )
        ),
        # Plain garbage.
        st.text(string.ascii_letters + string.punctuation + " ").map(
            lambda text: "#" + text
        ),
    )


class TestTcp:
    def test_round_trip_matches_direct_scoring(self, tiny_service):
        claims = _claims(tiny_service, 6)
        direct = tiny_service.verify_batch(claims)

        async def run():
            async with ServiceRuntime(
                tiny_service, ServingConfig(max_batch_size=4, max_wait_ms=1.0)
            ) as runtime:
                server = await serve_tcp(runtime, port=0)
                port = server.sockets[0].getsockname()[1]
                async with server:
                    async with ClaimClient("127.0.0.1", port) as client:
                        return await asyncio.gather(
                            *[client.submit(claim) for claim in claims]
                        )

        verdicts = asyncio.run(run())
        for online, offline in zip(verdicts, direct):
            assert online.score == offline.score
            assert online.anomalous == offline.anomalous
            assert online.claim_id == offline.claim_id

    def test_announce_reports_bound_address(self, tiny_service):
        seen = {}

        async def run():
            async with ServiceRuntime(tiny_service) as runtime:
                server = await serve_tcp(
                    runtime,
                    port=0,
                    announce=lambda host, port: seen.update(
                        host=host, port=port
                    ),
                )
                server.close()
                await server.wait_closed()

        asyncio.run(run())
        assert seen["host"] == "127.0.0.1"
        assert seen["port"] > 0

    def test_bad_requests_get_error_lines_not_disconnects(self, tiny_service):
        """One malformed line answers with an error; the stream survives."""

        async def run():
            async with ServiceRuntime(tiny_service) as runtime:
                server = await serve_tcp(runtime, port=0)
                port = server.sockets[0].getsockname()[1]
                async with server:
                    reader, writer = await asyncio.open_connection(
                        "127.0.0.1", port
                    )
                    lines = [
                        b"this is not json\n",
                        json.dumps(
                            {"id": "short", "observation": [1.0]}
                        ).encode()
                        + b"\n",
                        json.dumps(
                            {
                                **claim_to_dict(_claims(tiny_service, 1)[0]),
                                "id": "ok",
                            }
                        ).encode()
                        + b"\n",
                    ]
                    writer.write(b"".join(lines))
                    await writer.drain()
                    responses = [
                        json.loads(await reader.readline()) for _ in range(3)
                    ]
                    writer.close()
                    await writer.wait_closed()
                    return responses

        responses = asyncio.run(run())
        by_id = {response.get("id"): response for response in responses}
        assert "invalid JSON" in by_id[None]["error"]
        assert "group" in by_id["short"]["error"]
        assert by_id["ok"]["decision"] in ("accept", "flag")

    def test_oversized_line_answered_and_skipped(self, tiny_service):
        """A line past the stream limit gets one error naming the limit;
        the rest of it is discarded and the connection keeps serving."""
        first, last = (line.encode() + b"\n" for line in _good_lines(tiny_service, 2))
        oversized = b'{"observation": [' + b"1, " * 70_000 + b"1]}\n"
        assert len(oversized) > 200_000

        async def run():
            async with ServiceRuntime(tiny_service) as runtime:
                server = await serve_tcp(runtime, port=0)
                port = server.sockets[0].getsockname()[1]
                async with server:
                    reader, writer = await asyncio.open_connection(
                        "127.0.0.1", port
                    )
                    writer.write(first + oversized + last)
                    await writer.drain()
                    responses = [
                        json.loads(
                            await asyncio.wait_for(reader.readline(), timeout=30)
                        )
                        for _ in range(3)
                    ]
                    writer.close()
                    await writer.wait_closed()
                    return responses

        responses = asyncio.run(run())
        errors = [response for response in responses if "error" in response]
        verdicts = {r["id"]: r for r in responses if "decision" in r}
        assert len(errors) == 1
        assert "65536-byte limit" in errors[0]["error"]
        assert set(verdicts) == {"good-0", "good-1"}
        assert all(v["decision"] in ("accept", "flag") for v in verdicts.values())

    def test_remote_error_raised_by_client(self, tiny_service):
        async def run():
            async with ServiceRuntime(tiny_service) as runtime:
                server = await serve_tcp(runtime, port=0)
                port = server.sockets[0].getsockname()[1]
                async with server:
                    async with ClaimClient("127.0.0.1", port) as client:
                        with pytest.raises(RemoteClaimError):
                            await client.submit(
                                LocationClaim(
                                    observation=[1.0],
                                    claimed_location=[0.0, 0.0],
                                )
                            )

        asyncio.run(run())

    def test_backpressure_relayed_with_retry_hint(self, tiny_service):
        """Rejected claims surface as retry-able remote errors."""

        async def run():
            config = ServingConfig(
                max_batch_size=1,
                max_wait_ms=0.0,
                queue_size=1,
                overflow="reject",
                retry_after_ms=55.0,
            )
            async with ServiceRuntime(tiny_service, config) as runtime:
                server = await serve_tcp(runtime, port=0)
                port = server.sockets[0].getsockname()[1]
                async with server:
                    async with ClaimClient("127.0.0.1", port) as client:
                        results = await asyncio.gather(
                            *[
                                client.submit(claim)
                                for claim in _claims(tiny_service, 40)
                            ],
                            return_exceptions=True,
                        )
                        return results

        results = asyncio.run(run())
        overloaded = [
            r
            for r in results
            if isinstance(r, RemoteClaimError) and r.overloaded
        ]
        completed = [r for r in results if not isinstance(r, Exception)]
        assert completed, "some claims must be served"
        if overloaded:  # shedding depends on timing; the hint must relay
            assert all(r.retry_after_ms == 55.0 for r in overloaded)


class TestTcpLoad:
    def test_run_tcp_load_over_multiple_connections(self, tiny_service):
        claims = _claims(tiny_service, 20)
        offline = [verdict.score for verdict in tiny_service.verify_batch(claims)]

        async def run():
            async with ServiceRuntime(tiny_service) as runtime:
                server = await serve_tcp(runtime, port=0)
                port = server.sockets[0].getsockname()[1]
                async with server:
                    return await run_tcp_load(
                        "127.0.0.1", port, claims, connections=2
                    )

        report = asyncio.run(run())
        assert report.completed == 20
        assert report.rejected == 0 and report.errors == 0
        assert list(report.scores) == offline
        assert report.p99_ms >= report.p50_ms
        assert "p99" in report.summary()

    def test_rejects_zero_connections(self, tiny_service):
        async def run():
            await run_tcp_load("127.0.0.1", 1, [], connections=0)

        with pytest.raises(ValueError, match="connections"):
            asyncio.run(run())


class TestStdio:
    def test_serves_jsonl_until_eof(self, tiny_service):
        claims = _claims(tiny_service, 4)
        request_lines = [json.dumps(claim_to_dict(claim)) for claim in claims]
        request_lines.insert(1, "garbage")
        in_stream = io.StringIO("\n".join(request_lines) + "\n")
        out_stream = io.StringIO()

        async def run():
            async with ServiceRuntime(tiny_service) as runtime:
                return await serve_stdio(
                    runtime, in_stream=in_stream, out_stream=out_stream
                )

        served = asyncio.run(run())
        assert served == 5
        responses = [
            json.loads(line)
            for line in out_stream.getvalue().strip().splitlines()
        ]
        assert len(responses) == 5
        errors = [r for r in responses if "error" in r]
        verdicts = {r["id"]: r for r in responses if "decision" in r}
        assert len(errors) == 1
        direct = tiny_service.verify_batch(claims)
        for offline in direct:
            assert verdicts[offline.claim_id]["score"] == offline.score

    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(data=st.data())
    def test_malformed_lines_each_get_one_error(self, tiny_service, data):
        """Malformed lines among good ones: one response per line, an error
        for each bad one, a verdict for each good one, and a normal return."""
        bad = data.draw(
            st.lists(_malformed_lines(tiny_service.n_groups), min_size=1, max_size=5)
        )
        lines = _good_lines(tiny_service, 4)
        for line in bad:
            lines.insert(data.draw(st.integers(0, len(lines))), line)
        in_stream = io.StringIO("\n".join(lines) + "\n")
        out_stream = io.StringIO()

        async def run():
            async with ServiceRuntime(tiny_service) as runtime:
                return await serve_stdio(
                    runtime, in_stream=in_stream, out_stream=out_stream
                )

        assert asyncio.run(run()) == len(lines)
        responses = [json.loads(line) for line in out_stream.getvalue().splitlines()]
        assert len(responses) == len(lines)
        errors = [response for response in responses if "error" in response]
        verdicts = [response["id"] for response in responses if "decision" in response]
        assert len(errors) == len(bad)
        assert sorted(verdicts) == [f"good-{i}" for i in range(4)]

    def test_blank_lines_skipped(self, tiny_service):
        in_stream = io.StringIO("\n\n\n")
        out_stream = io.StringIO()

        async def run():
            async with ServiceRuntime(tiny_service) as runtime:
                return await serve_stdio(
                    runtime, in_stream=in_stream, out_stream=out_stream
                )

        assert asyncio.run(run()) == 0
        assert out_stream.getvalue() == ""
