"""Wire protocol of the violation-serving server.

One frame is an 8-byte big-endian payload length followed by a UTF-8 JSON
object — JSON, never pickle: the serving port faces clients that are not
this library.

Requests carry ``{"id": <int>, "op": <str>, ...op fields}``; responses echo
the id with either ``{"id": n, "ok": true, ...result fields}`` or
``{"id": n, "ok": false, "error": {"code": <str>, "message": <str>}}``.
Ids are per-connection and chosen by the client; the server answers every
request exactly once, in arrival order, so a pipelining client can match
responses positionally or by id.

A request may additionally carry ``"trace"`` — a trace-id string (or
``true`` for a server-generated id).  The server then times the request
across layers and attaches ``{"trace": {"trace_id", "op", "seconds",
"segments": {...}}}`` to the ok response, where the disjoint segment
seconds (e.g. ``queue``/``fold``/``journal_fsync``/``commit``/``ack`` for
an append) sum to the request's server-side wall latency.  The ``metrics``
op dumps the process metrics registry (JSON snapshot or Prometheus text).

:data:`OPS` declares every op once — its fields with their parsers, and
how the server runs it.  The server's dispatcher, the client's retry
policy and the README protocol table all read it.

The module is transport-agnostic on purpose: :func:`encode_frame` /
:func:`decode_payload` do the byte work, and the tiny sync reader
(:func:`read_frame`) serves the blocking client while the asyncio server
reads frames with ``StreamReader.readexactly`` directly.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from typing import Callable, Mapping, Protocol

import numpy as np

#: Frame header: big-endian unsigned payload length.
HEADER = struct.Struct(">Q")

#: Protocol revision, echoed by ``ping`` so clients can detect skew.
PROTOCOL_VERSION = 1

#: Default refusal bound for a single frame (requests and responses); a
#: 64 MiB JSON document is far past any legitimate batch or report.
MAX_FRAME_BYTES = 64 * 1024 * 1024


class ProtocolError(ValueError):
    """A malformed or oversized frame (the connection is unusable)."""


# ----------------------------------------------------------------------
# Error codes (the ``error.code`` field of a failure response)
# ----------------------------------------------------------------------
BAD_REQUEST = "bad_request"          #: missing/invalid fields, bad values
UNKNOWN_OP = "unknown_op"            #: op name the server does not speak
UNKNOWN_STORE = "unknown_store"      #: store name not registered
STORE_EXISTS = "store_exists"        #: create_store of an existing name
NO_CONSTRAINTS = "no_constraints"    #: violation query before remine/declare
SHUTTING_DOWN = "shutting_down"      #: request arrived during graceful drain
QUOTA_EXCEEDED = "quota_exceeded"    #: per-tenant store/row quota would be crossed
INTERNAL = "internal"                #: unexpected server-side failure


class ServeError(RuntimeError):
    """A server-reported request failure, as raised by the client."""

    def __init__(self, code: str, message: str) -> None:
        super().__init__(f"[{code}] {message}")
        self.code = code
        self.message = message


class ServeTimeout(ConnectionError):
    """The server did not answer (or accept a connection) within the
    client's timeout.

    A ``ConnectionError`` subclass on purpose: after a read timeout the
    connection is unusable (a late response would desynchronize request
    ids), so callers that already handle dead links handle timeouts too.
    """


class QuotaExceeded(RuntimeError):
    """Server-side: a per-tenant quota would be crossed.

    Raised by the append scheduler / store registry and mapped to a
    :data:`QUOTA_EXCEEDED` error frame by the dispatcher.
    """


class RequestError(Exception):
    """Server-side: a request refused with a protocol error code."""

    def __init__(self, code: str, message: str) -> None:
        super().__init__(message)
        self.code = code


# ----------------------------------------------------------------------
# The op table: every op, its fields, and how the server runs it
# ----------------------------------------------------------------------
def _bad(message: str) -> RequestError:
    return RequestError(BAD_REQUEST, message)


def _is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def parse_store_name(value: object) -> str:
    if not isinstance(value, str) or not value:
        raise _bad("missing 'store' field")
    return value


def parse_rows(value: object) -> list:
    if not isinstance(value, list) or not all(isinstance(r, dict) for r in value):
        raise _bad("'rows' must be a list of {column: value} objects")
    return value


def parse_dc(value: object) -> int:
    if not _is_int(value):
        raise _bad("'dc' must be an integer index")
    return value


def parse_epsilon(value: object) -> float:
    """A finite non-bool number in ``[0, 1]`` (NaN fails the comparison)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not (
        0.0 <= value <= 1.0
    ):
        raise _bad(f"'epsilon' must be a number in [0, 1], got {value!r}")
    return float(value)


def _positive(name: str) -> Callable[[object], int]:
    def parse(value: object) -> int:
        if not _is_int(value) or value < 1:
            raise _bad(f"'{name}' must be a positive integer, got {value!r}")
        return value
    return parse


parse_limit = _positive("limit")
parse_max_dc_size = _positive("max_dc_size")


def parse_request_key(value: object) -> str:
    if not isinstance(value, str):
        raise _bad("'request_key' must be a string")
    return value


def parse_types(value: object) -> dict:
    """``{column: type name}`` into ``{column: ColumnType}``."""
    from repro.data.types import ColumnType  # server side only

    if not isinstance(value, dict):
        raise _bad("'types' must be an object")
    try:
        return {column: ColumnType(str(name)) for column, name in value.items()}
    except ValueError as error:
        raise _bad(str(error)) from error


def parse_constraints(value: object) -> list:
    """Non-empty list of non-empty predicate-spec lists (shape only)."""
    if not isinstance(value, list) or not value:
        raise _bad("'constraints' must be a non-empty list of predicate-spec lists")
    if not all(isinstance(spec, list) and spec for spec in value):
        raise _bad("each constraint must be a non-empty list of predicate specs")
    return value


def _choice(name: str, *choices: str) -> Callable[[object], str]:
    def parse(value: object) -> str:
        if value not in choices:
            raise _bad(f"unknown {name} {value!r} ({'|'.join(choices)})")
        return value
    return parse


@dataclass(frozen=True)
class Field:
    """One request field: its parser, and its default when absent or null.

    ``parse=None`` marks a field the dispatcher itself consumes (the store
    of a store-bound op, ``trace``) rather than handing to the op.
    """

    name: str
    parse: Callable[[object], object] | None = None
    required: bool = False
    default: object = None

    def read(self, message: Mapping[str, object]) -> object:
        value = message.get(self.name)
        if value is None:
            if self.required:
                raise _bad(f"missing {self.name!r} field")
            return self.default
        return self.parse(value)


@dataclass(frozen=True)
class Op:
    """How the server runs one op.

    ``constraints``: refuse with ``no_constraints`` until installed.
    ``locked``: run on the executor under the store lock.
    ``drain_safe``: still answered during a graceful drain.
    ``idempotent``: the client may resend it after a dropped connection
    (an ``append`` carrying a ``request_key`` is resent too).
    A :data:`STORE` field names a live tenant the op runs against; a
    :data:`DC` field is range-checked against its installed constraints.
    """

    name: str
    fields: tuple[Field, ...] = ()
    constraints: bool = False
    locked: bool = False
    drain_safe: bool = False
    idempotent: bool = False

    @property
    def store(self) -> bool:
        """Whether the op runs against an existing tenant store."""
        return STORE in self.fields


STORE = Field("store", required=True)
TRACE = Field("trace")
ROWS = Field("rows", parse_rows, required=True)
DC = Field("dc", parse_dc, required=True)

#: Every op the server speaks, in the README protocol table's order.
OPS: dict[str, Op] = {op.name: op for op in (
    Op("ping", drain_safe=True, idempotent=True),
    Op("create_store", (Field("store", parse_store_name, required=True), ROWS,
                        Field("types", parse_types, default={}))),
    Op("drop_store", (STORE,)),
    Op("append", (STORE, ROWS, Field("request_key", parse_request_key), TRACE)),
    Op("remine", (STORE, Field("epsilon", parse_epsilon, default=0.01),
                  Field("function", str, default="f1"),
                  Field("max_dc_size", parse_max_dc_size),
                  Field("limit", parse_limit), TRACE), locked=True),
    Op("declare", (STORE, Field("constraints", parse_constraints, required=True),
                   Field("epsilon", parse_epsilon, default=0.01)), locked=True),
    Op("violations", (STORE, DC, Field(
        "mode", _choice("mode", "counters", "finalize"), default="counters")),
       constraints=True, idempotent=True),
    Op("report", (STORE,), constraints=True, idempotent=True),
    Op("check_batch", (STORE, ROWS), constraints=True, locked=True, idempotent=True),
    Op("violating_pairs", (STORE, DC, Field("limit", parse_limit, default=10_000)),
       constraints=True, locked=True, idempotent=True),
    Op("tuple_scores", (STORE, DC, Field("ranking", bool, default=False)),
       constraints=True, locked=True, idempotent=True),
    Op("stats", drain_safe=True, idempotent=True),
    Op("set_epsilon", (STORE, Field("epsilon", parse_epsilon, required=True)),
       constraints=True, locked=True, idempotent=True),
    Op("metrics", (Field("format", _choice("format", "json", "text"),
                         default="json"),),
       drain_safe=True, idempotent=True),
)}


#: Values ``json`` encodes as they are; most leaves of a payload are one.
_PLAIN_TYPES = frozenset({str, int, float, bool, type(None)})


def jsonable(value: object) -> object:
    """Recursively convert a response value into plain JSON types.

    Results are computed with numpy (``int64`` counts, ``float64`` rates,
    arrays of scores); ``json`` refuses all of them, so every payload runs
    through this before encoding.  A batch of rows is thousands of plain
    leaves and dicts, so those are tested first: leaves by exact type, and
    ``dict`` ahead of the slower ``Mapping`` check.
    """
    if type(value) in _PLAIN_TYPES:
        return value
    if isinstance(value, (dict, Mapping)):
        return {str(key): jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(item) for item in value]
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, (np.bool_,)):
        return bool(value)
    if isinstance(value, np.ndarray):
        return [jsonable(item) for item in value.tolist()]
    return value


def encode_frame(message: Mapping[str, object]) -> bytes:
    """One wire frame: length header + UTF-8 JSON payload."""
    payload = json.dumps(jsonable(message), separators=(",", ":")).encode("utf-8")
    return HEADER.pack(len(payload)) + payload


def decode_payload(payload: bytes) -> dict[str, object]:
    """Parse one frame payload; the top level must be a JSON object."""
    try:
        message = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise ProtocolError(f"undecodable frame: {error}") from error
    if not isinstance(message, dict):
        raise ProtocolError(
            f"frame payload must be a JSON object, got {type(message).__name__}"
        )
    return message


def frame_length(header: bytes, max_frame_bytes: int = MAX_FRAME_BYTES) -> int:
    """Payload length announced by a header, bounds-checked."""
    (length,) = HEADER.unpack(header)
    if length > max_frame_bytes:
        raise ProtocolError(
            f"frame of {length} bytes exceeds the {max_frame_bytes}-byte bound"
        )
    return length


class _SupportsRecv(Protocol):  # pragma: no cover - typing aid
    def recv(self, n: int, /) -> bytes: ...


def read_exact(sock: "_SupportsRecv", n: int) -> bytes:
    """Read exactly ``n`` bytes from a blocking socket (EOF raises)."""
    chunks: list[bytes] = []
    remaining = n
    while remaining:
        chunk = sock.recv(min(remaining, 65536))
        if not chunk:
            raise ConnectionError("peer closed the connection mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def read_frame(
    sock: "_SupportsRecv", max_frame_bytes: int = MAX_FRAME_BYTES
) -> dict[str, object]:
    """Read one complete frame from a blocking socket (the sync client)."""
    header = read_exact(sock, HEADER.size)
    return decode_payload(read_exact(sock, frame_length(header, max_frame_bytes)))


# ----------------------------------------------------------------------
# Response construction (server side)
# ----------------------------------------------------------------------
def ok_response(request_id: object, **fields: object) -> dict[str, object]:
    """A success frame echoing the request id."""
    return {"id": request_id, "ok": True, **fields}


def error_response(request_id: object, code: str, message: str) -> dict[str, object]:
    """A failure frame echoing the request id."""
    return {"id": request_id, "ok": False, "error": {"code": code, "message": message}}
