"""The live-mode wire protocol.

Every connection to ``scrubd`` — agent data channels, agent control
channels, and query control clients — speaks the same framing:

    u32  frame length (message type byte + payload)
    u8   message type
    ...  payload

Payloads reuse the compact binary value encoding of
``repro.core.events.encoding`` (control messages are a single encoded
map), and ``BATCH`` frames carry the lossless full-batch codec of
``repro.core.agent.transport`` — so wire accounting in live mode is the
same arithmetic as everywhere else in the reproduction.

Three channel roles, distinguished by the first frame a peer sends:

* **data** (``DATA_HELLO`` first): one-way agent → central batch stream,
  plus an optional ``PING``/``PONG`` drain barrier — the ``PONG`` is
  sent only after every previously received batch has been ingested.
* **agent control** (``AGENT_HELLO`` first): registers the host (name,
  services, datacenter, event schemas) and then receives ``INSTALL`` /
  ``UNINSTALL`` pushes for the query objects the central server places
  on it.
* **query control** (any request frame first): ``SUBMIT`` / ``POLL`` /
  ``FINISH`` / ``STATS`` / ``SHUTDOWN`` request-response pairs.
"""

from __future__ import annotations

import asyncio
import socket
import struct
from typing import Any, Optional

from ..core.agent.transport import EventBatch, encode_full_batch_into
from ..core.approx.sampling_theory import ApproxEstimate
from ..core.central.results import ResultRow, ResultSet, WindowCoverage, WindowResult
from ..core.control.effects import MsgType
from ..core.events.encoding import decode_value, encode_value
from ..core.events.schema import schema_from_payload, schema_to_payload

__all__ = [
    "MAX_FRAME_BYTES",
    "MsgType",
    "ProtocolError",
    "decode_message",
    "encode_batch_frame",
    "encode_batch_frame_into",
    "encode_frame",
    "encode_message_frame",
    "read_frame",
    "recv_frame",
    "resultset_from_payload",
    "resultset_to_payload",
    "schema_from_payload",
    "schema_to_payload",
]

#: Upper bound on a single frame; a peer announcing more is corrupt or
#: hostile and the connection is torn down rather than buffered.
MAX_FRAME_BYTES = 64 * 1024 * 1024

_LEN = struct.Struct("<I")


class ProtocolError(Exception):
    """A malformed or out-of-protocol frame."""


# -- framing -------------------------------------------------------------------


def encode_frame(msg_type: MsgType, payload: bytes = b"") -> bytes:
    """One full frame: length prefix, type byte, payload."""
    if 1 + len(payload) > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame too large: {len(payload)} bytes")
    return _LEN.pack(1 + len(payload)) + bytes([msg_type]) + payload


def encode_message_frame(msg_type: MsgType, message: dict[str, Any]) -> bytes:
    """A control frame whose payload is one encoded map."""
    return encode_frame(msg_type, encode_value(message))


def encode_batch_frame_into(out: bytearray, batch: EventBatch) -> None:
    """Append a complete ``BATCH`` frame to *out* without intermediate
    copies: the length prefix is written as a placeholder and patched
    once the payload size is known, so the batch encodes straight into
    the transport's reusable wire buffer."""
    start = len(out)
    out += _LEN.pack(0)  # placeholder, patched below
    out.append(MsgType.BATCH)
    encode_full_batch_into(out, batch)
    length = len(out) - start - _LEN.size
    if length > MAX_FRAME_BYTES:
        del out[start:]
        raise ProtocolError(f"frame too large: {length - 1} bytes")
    _LEN.pack_into(out, start, length)


def encode_batch_frame(batch: EventBatch) -> bytes:
    out = bytearray()
    encode_batch_frame_into(out, batch)
    return bytes(out)


def decode_message(payload: bytes | memoryview) -> dict[str, Any]:
    try:
        message = decode_value(payload)
    except ValueError as exc:
        raise ProtocolError(f"corrupt control payload: {exc}") from None
    if not isinstance(message, dict):
        raise ProtocolError(f"control payload is not a map: {type(message).__name__}")
    return message


def _parse_type(raw: int) -> MsgType:
    try:
        return MsgType(raw)
    except ValueError:
        raise ProtocolError(f"unknown message type 0x{raw:02x}") from None


async def read_frame(
    reader: asyncio.StreamReader,
) -> Optional[tuple[MsgType, bytes]]:
    """Read one frame from an asyncio stream; ``None`` on clean EOF."""
    try:
        header = await reader.readexactly(_LEN.size)
    except (asyncio.IncompleteReadError, ConnectionError):
        return None
    (length,) = _LEN.unpack(header)
    if not 1 <= length <= MAX_FRAME_BYTES:
        raise ProtocolError(f"bad frame length {length}")
    try:
        body = await reader.readexactly(length)
    except (asyncio.IncompleteReadError, ConnectionError):
        return None
    return _parse_type(body[0]), body[1:]


def recv_frame(sock: socket.socket) -> Optional[tuple[MsgType, bytes]]:
    """Read one frame from a blocking socket; ``None`` on clean EOF."""
    header = _recv_exactly(sock, _LEN.size)
    if header is None:
        return None
    (length,) = _LEN.unpack(header)
    if not 1 <= length <= MAX_FRAME_BYTES:
        raise ProtocolError(f"bad frame length {length}")
    body = _recv_exactly(sock, length)
    if body is None:
        return None
    return _parse_type(body[0]), body[1:]


def _recv_exactly(sock: socket.socket, count: int) -> Optional[bytes]:
    chunks = bytearray()
    while len(chunks) < count:
        chunk = sock.recv(count - len(chunks))
        if not chunk:
            return None
        chunks += chunk
    return bytes(chunks)


# -- result payloads (schema payloads live in repro.core.events.schema) ---------


def resultset_to_payload(results: ResultSet) -> dict[str, Any]:
    """A lossless, codec-friendly form of a ResultSet (tuples → lists)."""
    return {
        "query_id": results.query_id,
        "columns": list(results.columns),
        "rollout": results.rollout,
        "sampling": results.sampling,
        "windows": [
            {
                "start": w.window_start,
                "end": w.window_end,
                "rows": [_encodable(row.values) for row in w.rows],
                "estimates": {
                    name: {
                        "estimate": est.estimate,
                        "error_bound": est.error_bound,
                        "confidence": est.confidence,
                        "variance": est.variance,
                        "sampled_machines": est.sampled_machines,
                        "total_machines": est.total_machines,
                        "machine_dispersion": est.machine_dispersion,
                        "value_dispersion": est.value_dispersion,
                        "sample_events": est.sample_events,
                    }
                    for name, est in w.estimates.items()
                },
                "host_dropped": w.host_dropped,
                "host_shed": w.host_shed,
                "late_events": w.late_events,
                "contributing_hosts": w.contributing_hosts,
                "coverage": None if w.coverage is None else w.coverage.as_dict(),
            }
            for w in results.windows
        ],
    }


def resultset_from_payload(payload: dict[str, Any]) -> ResultSet:
    columns = tuple(payload["columns"])
    results = ResultSet(payload["query_id"], columns)
    # .get(): tolerate peers from before rollout/sampling metadata existed.
    results.rollout = payload.get("rollout")
    results.sampling = payload.get("sampling")
    for w in payload["windows"]:
        results.add(
            WindowResult(
                query_id=payload["query_id"],
                window_start=w["start"],
                window_end=w["end"],
                columns=columns,
                rows=[ResultRow(_decodable(values)) for values in w["rows"]],
                estimates={
                    name: ApproxEstimate(
                        estimate=est["estimate"],
                        error_bound=est["error_bound"],
                        confidence=est["confidence"],
                        variance=est["variance"],
                        sampled_machines=est["sampled_machines"],
                        total_machines=est["total_machines"],
                        machine_dispersion=est.get("machine_dispersion", 0.0),
                        value_dispersion=est.get("value_dispersion", 0.0),
                        sample_events=est.get("sample_events", 0),
                    )
                    for name, est in w["estimates"].items()
                },
                host_dropped=w["host_dropped"],
                host_shed=w.get("host_shed", 0),
                late_events=w["late_events"],
                contributing_hosts=w["contributing_hosts"],
                coverage=_coverage_from_payload(w.get("coverage")),
            )
        )
    return results


def _coverage_from_payload(payload: Optional[dict[str, Any]]) -> Optional[WindowCoverage]:
    if payload is None:
        return None
    return WindowCoverage(
        expected=tuple(payload["expected"]),
        reporting=tuple(payload["reporting"]),
        missing=dict(payload["missing"]),
        # .get(): tolerate payloads journaled before these fields existed.
        shard_gaps=dict(payload.get("shard_gaps", {})),
        shed={host: int(n) for host, n in payload.get("shed", {}).items()},
        quarantined=dict(payload.get("quarantined", {})),
    )


def _encodable(values: tuple) -> list:
    """Row values for the wire: tuples become tagged lists so TOP-K pair
    lists and genuine list fields survive the round trip distinctly."""
    return [_enc_value(v) for v in values]


def _enc_value(value: Any) -> Any:
    if isinstance(value, tuple):
        return {"@t": [_enc_value(v) for v in value]}
    if isinstance(value, list):
        return [_enc_value(v) for v in value]
    return value


def _decodable(values: list) -> tuple:
    return tuple(_dec_value(v) for v in values)


def _dec_value(value: Any) -> Any:
    if isinstance(value, dict) and set(value) == {"@t"}:
        return tuple(_dec_value(v) for v in value["@t"])
    if isinstance(value, list):
        return [_dec_value(v) for v in value]
    return value
