"""JSONL transports of ``lad-repro serve`` — TCP and stdio.

The wire protocol is newline-delimited JSON in both directions.  Requests
are claim objects (see :func:`repro.serving.claims.claim_from_dict`)::

    {"id": "c-17", "observation": [4, 0, 2, ...], "claimed_location": [120.0, 85.5]}

Responses are either verdicts::

    {"id": "c-17", "decision": "accept", "score": 41.25, "threshold": 57.0, ...}

or per-line errors (the connection stays open — one bad request never
tears down a stream of good ones)::

    {"id": "c-17", "error": "claim observation has 9 ...", "retry_after_ms": 20.0}

``retry_after_ms`` is present exactly when the failure is backpressure
(:class:`~repro.serving.runtime.ServiceOverloaded`) and tells a
well-behaved client how long to back off.

Responses may arrive out of request order (claims from one connection land
in different micro-batches), which is why requests carry caller-chosen
``id``\\ s: :class:`ClaimClient` — the client used by the load generator —
matches responses back to submitters by id.
"""

from __future__ import annotations

import asyncio
import contextlib
import itertools
import json
import sys
from typing import Awaitable, Callable, Dict, Optional, TextIO

from repro.core.verdict import Verdict
from repro.serving.claims import (
    ClaimError,
    LocationClaim,
    claim_from_dict,
    claim_to_dict,
)
from repro.serving.runtime import ServiceClosed, ServiceOverloaded, ServiceRuntime
from repro.utils.logging import get_logger

__all__ = [
    "ClaimClient",
    "RemoteClaimError",
    "serve_stdio",
    "serve_tcp",
]

_LOGGER = get_logger("serving.transport")

_WriteLine = Callable[[str], Awaitable[None]]

#: Longest TCP request line, newline included: asyncio's default stream
#: limit (a 1,024-group claim is under 10 KB).
_LINE_LIMIT = 2**16


def _encode_error(
    claim_id: Optional[str],
    message: str,
    *,
    retry_after_ms: Optional[float] = None,
) -> str:
    payload: Dict[str, object] = {"error": message}
    if claim_id is not None:
        payload["id"] = claim_id
    if retry_after_ms is not None:
        payload["retry_after_ms"] = retry_after_ms
    return json.dumps(payload)


async def _handle_line(
    runtime: ServiceRuntime, line: str, write: _WriteLine
) -> None:
    """Decode one request line, submit it, write exactly one response."""
    try:
        payload = json.loads(line)
    except (ValueError, RecursionError) as error:
        # Besides syntax errors: integer literals past Python's digit
        # limit (ValueError) and nesting past the recursion limit.
        await write(_encode_error(None, f"invalid JSON: {error}"))
        return
    claim_id: Optional[str] = None
    try:
        if isinstance(payload, dict):
            raw_id = payload.get("id")
            claim_id = None if raw_id is None else str(raw_id)
        claim = claim_from_dict(payload)
    except ClaimError as error:
        await write(_encode_error(claim_id, str(error)))
        return
    try:
        verdict = await runtime.submit(claim)
    except ServiceOverloaded as error:
        await write(
            _encode_error(
                claim.claim_id,
                str(error),
                retry_after_ms=error.retry_after_ms,
            )
        )
    except (ServiceClosed, ClaimError) as error:
        await write(_encode_error(claim.claim_id, str(error)))
    else:
        await write(json.dumps(verdict.as_dict()))


async def _discard_line(reader: asyncio.StreamReader) -> None:
    """Drop the rest of an overlong line, through its newline (or EOF)."""
    while True:
        try:
            await reader.readuntil(b"\n")
            return
        except asyncio.LimitOverrunError as error:
            await reader.readexactly(error.consumed)
        except asyncio.IncompleteReadError:
            return


async def serve_stdio(
    runtime: ServiceRuntime,
    *,
    in_stream: Optional[TextIO] = None,
    out_stream: Optional[TextIO] = None,
) -> int:
    """Serve JSONL claims from *in_stream* until EOF; returns lines served.

    The batch-processing default of ``lad-repro serve``: pipe a claim file
    in, collect one response line per request on stdout.  Requests are
    submitted concurrently (so micro-batching still happens); all in-flight
    claims are awaited before returning.
    """
    in_stream = sys.stdin if in_stream is None else in_stream
    out_stream = sys.stdout if out_stream is None else out_stream
    loop = asyncio.get_running_loop()
    lock = asyncio.Lock()

    async def write(line: str) -> None:
        async with lock:
            out_stream.write(line + "\n")
            out_stream.flush()

    served = 0
    tasks = []
    while True:
        line = await loop.run_in_executor(None, in_stream.readline)
        if not line:
            break
        line = line.strip()
        if not line:
            continue
        served += 1
        tasks.append(loop.create_task(_handle_line(runtime, line, write)))
    if tasks:
        await asyncio.gather(*tasks)
    return served


async def serve_tcp(
    runtime: ServiceRuntime,
    *,
    host: str = "127.0.0.1",
    port: int = 0,
    announce: Optional[Callable[[str, int], None]] = None,
) -> asyncio.AbstractServer:
    """Start the TCP JSONL server and return it (caller serves forever).

    ``port=0`` binds an ephemeral port; *announce* is called with the
    actual ``(host, port)`` once listening — the CLI prints
    ``listening on HOST:PORT`` from it so scripted clients (and the CI
    smoke test) can parse the bound address.
    """

    async def handle(
        reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        peer = writer.get_extra_info("peername")
        lock = asyncio.Lock()

        async def write(line: str) -> None:
            async with lock:
                writer.write(line.encode("utf-8") + b"\n")
                await writer.drain()

        tasks = set()
        try:
            while True:
                try:
                    raw = await reader.readuntil(b"\n")
                except asyncio.IncompleteReadError as error:
                    raw = error.partial  # the last line, unterminated
                except asyncio.LimitOverrunError:
                    await write(
                        _encode_error(
                            None,
                            f"request line exceeds the {_LINE_LIMIT}-byte limit",
                        )
                    )
                    await _discard_line(reader)
                    continue
                if not raw:
                    break
                line = raw.decode("utf-8", errors="replace").strip()
                if not line:
                    continue
                task = asyncio.get_running_loop().create_task(
                    _handle_line(runtime, line, write)
                )
                tasks.add(task)
                task.add_done_callback(tasks.discard)
            if tasks:
                await asyncio.gather(*tasks)
        except (ConnectionResetError, BrokenPipeError):
            _LOGGER.info("connection from %s reset", peer)
        finally:
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()

    server = await asyncio.start_server(
        handle, host=host, port=port, limit=_LINE_LIMIT
    )
    bound_host, bound_port = server.sockets[0].getsockname()[:2]
    if announce is not None:
        announce(bound_host, bound_port)
    _LOGGER.info("serving claims on %s:%d", bound_host, bound_port)
    return server


class RemoteClaimError(RuntimeError):
    """An error response from a remote detection service.

    Attributes
    ----------
    retry_after_ms:
        Back-off hint when the failure was backpressure, else ``None``.
    """

    def __init__(self, message: str, retry_after_ms: Optional[float] = None):
        super().__init__(message)
        self.retry_after_ms = retry_after_ms

    @property
    def overloaded(self) -> bool:
        """Whether the remote rejected the claim due to backpressure."""
        return self.retry_after_ms is not None


class ClaimClient:
    """Async JSONL client matching out-of-order responses by claim id.

    Used by the load generator's ``--connect`` mode::

        async with ClaimClient(host, port) as client:
            verdict = await client.submit(claim)
    """

    def __init__(self, host: str, port: int):
        self._host = host
        self._port = int(port)
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None
        self._pending: Dict[str, asyncio.Future] = {}
        self._reader_task: Optional[asyncio.Task] = None
        self._ids = itertools.count()
        self._send_lock = asyncio.Lock()

    async def __aenter__(self) -> "ClaimClient":
        self._reader, self._writer = await asyncio.open_connection(
            self._host, self._port
        )
        self._reader_task = asyncio.get_running_loop().create_task(
            self._read_responses()
        )
        return self

    async def __aexit__(self, *exc_info) -> None:
        if self._writer is not None:
            self._writer.close()
            with contextlib.suppress(Exception):
                await self._writer.wait_closed()
        if self._reader_task is not None:
            await asyncio.wait({self._reader_task})
        for future in self._pending.values():
            if not future.done():
                future.set_exception(
                    RemoteClaimError("connection closed before response")
                )
        self._pending.clear()

    async def _read_responses(self) -> None:
        try:
            while True:
                raw = await self._reader.readline()
                if not raw:
                    break
                payload = json.loads(raw.decode("utf-8"))
                future = self._pending.pop(str(payload.get("id")), None)
                if future is None or future.done():
                    continue
                if "error" in payload:
                    future.set_exception(
                        RemoteClaimError(
                            payload["error"], payload.get("retry_after_ms")
                        )
                    )
                else:
                    future.set_result(
                        Verdict(
                            score=float(payload["score"]),
                            threshold=float(payload["threshold"]),
                            anomalous=payload["decision"] == "flag",
                            metric=payload["metric"],
                            false_positive_rate=float(
                                payload["false_positive_rate"]
                            ),
                            claim_id=payload.get("id"),
                            latency_ms=payload.get("latency_ms"),
                        )
                    )
        except (ConnectionResetError, asyncio.IncompleteReadError):
            pass
        finally:
            for future in self._pending.values():
                if not future.done():
                    future.set_exception(
                        RemoteClaimError("connection closed before response")
                    )
            self._pending.clear()

    async def submit(self, claim: LocationClaim) -> Verdict:
        """Send one claim and await its verdict (or raise the remote error)."""
        if self._writer is None:
            raise RuntimeError("ClaimClient is not connected")
        claim_id = claim.claim_id
        if claim_id is None:
            claim_id = f"c{next(self._ids)}"
        payload = claim_to_dict(claim)
        payload["id"] = claim_id
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._pending[claim_id] = future
        line = json.dumps(payload).encode("utf-8") + b"\n"
        async with self._send_lock:
            self._writer.write(line)
            await self._writer.drain()
        return await future
