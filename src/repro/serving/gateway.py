"""Network-facing HTTP gateway over the in-process serving stack.

Everything below :class:`~repro.serving.ImputationService` is an in-process
API; this module is the wire protocol in front of it — the front door the
"millions of users" north star is measured through.  It is deliberately
minimal-dependency: the server is a hand-rolled HTTP/1.1 layer over
``asyncio`` streams (stdlib only), and the protocol logic is a pure
``request -> response`` function (:meth:`Gateway.handle`) that never touches
a socket, so the tier-1 protocol tests drive it in-process and the socket
layer is a thin framing shell around it.

Endpoints
---------
``POST /v1/impute``
    Submit one imputation request.  Returns ``202`` with a ticket id (and a
    ``Location`` header for the result endpoint); with ``?sync=1`` the call
    blocks until the response is served and returns it directly (``200``).
``GET /v1/result/<ticket>``
    Fetch a submitted request's result: ``200`` with the encoded response
    once served (the ticket is consumed), ``202`` while pending, ``404`` for
    unknown/already-fetched tickets.  ``?timeout=<seconds>`` blocks until the
    result is ready instead of polling.
``POST /v1/stream``
    Open a streaming session over a published model; returns the session id.
    Opening reads the model's node count and window length from its
    published manifest and loads no model.
``POST /v1/stream/<session>/tick``
    Push one ``(node,)`` observation vector into the session.  Returns the
    emitted :class:`~repro.serving.StreamingUpdate` (``"emitted": true``)
    or ``{"emitted": false}`` between emissions.  An emission is one
    ordinary :class:`~repro.serving.ImputationRequest`, seeded from the
    session's stream and submitted to the service: ticks are micro-batched
    (two sessions' ticks share one flush), admitted, retried and pooled like
    every other request, and admission errors map through the same table.
``DELETE /v1/stream/<session>``
    Close a streaming session.
``GET /v1/healthz`` / ``GET /v1/stats``
    Liveness (includes the draining flag) and the serving counters:
    ``{"metrics": <flat dotted-name snapshot>, "circuits": <per-model
    circuit state>}``.  The snapshot covers every layer (``gateway.*``,
    ``service.*``, ``registry.*``, ``compiled.*``, ``pool.*``,
    ``transport.*``) with one key set whatever the executor mode.

Payload codecs
--------------
Two codecs are negotiated per request (``Content-Type``) and per response
(``Accept``):

``application/json``
    Arrays as nested lists with an explicit ``dtype`` tag; ``NaN`` readings
    travel as ``null`` (the streaming "missing" convention), so payloads are
    standard JSON.  Floats round-trip exactly — ``json`` emits the shortest
    repr that parses back to the same double, and float32 values survive the
    float64 detour bit-exactly — so a JSON-fetched response is byte-identical
    to the in-process arrays after decoding.
``application/x-npz``
    A numpy ``.npz`` archive (no pickling).  Encoding is deterministic — zip
    entries are written in sorted order with a pinned timestamp — so golden
    byte fixtures are stable, and arrays carry their dtype natively.

Error mapping
-------------
Every error is a structured JSON body ``{"error": <code>, "message": ...}``:
boundary validation fails with ``400`` before anything is submitted, every
typed serving failure maps through the table in
:mod:`repro.serving.errors` (:data:`~repro.serving.errors.GATEWAY_STATUS`
— overloaded/deadline-exceeded to ``429``, circuit-open/pool-stopped to
``503``, crashed workers to ``500``), unknown tickets/sessions/routes to
``404``, submits during drain to ``503``, and anything unexpected to
``500`` carrying the exception type.  Every ``429``/``503`` carries a
load-aware ``Retry-After`` derived from the current queue depth and flush
interval (an open circuit's own reset estimate wins).

Resilience
----------
An ``X-Deadline-Ms`` request header becomes a
:class:`~repro.serving.resilience.Deadline` on the submitted request —
unmeetable deadlines are rejected up front with ``429`` (or served by the
service's degraded fallback, tagged ``"degraded": true`` in the response
metadata).  ``GET /v1/healthz`` is pure *liveness* (200 while the process
can answer, even mid-drain); ``GET /v1/healthz/ready`` is *readiness* —
``503`` with the blocking reasons while draining, while the pool has dead
unrespawned workers, or while any model's circuit is open.  Wire-level
fault injection (:mod:`repro.serving.faults`) can drop connections or
truncate response bodies for chaos testing.

Graceful drain
--------------
``SIGTERM`` (or :meth:`GatewayServer.shutdown`) triggers
:meth:`Gateway.drain`: new submits are refused with ``503`` while in-flight
work keeps going, the service is stopped — which flushes every queued
micro-batch and waits for dispatched ones — so **every issued ticket is
resolved before the sockets close**, and already-resolved results stay
fetchable until the server exits.
"""

from __future__ import annotations

import asyncio
import functools
import io
import itertools
import json
import signal
import zipfile
from dataclasses import dataclass, field

import numpy as np

from . import faults
from .errors import ServiceOverloaded, ServingError, classify
from .resilience import Deadline
from .service import ImputationRequest, ImputationService
from .streaming import StreamingImputer

__all__ = [
    "GATEWAY_METRIC_SCHEMA",
    "Gateway",
    "GatewayServer",
    "GatewayError",
    "HTTPRequest",
    "HTTPResponse",
    "InProcessClient",
    "GatewayClient",
    "JSON_CONTENT_TYPE",
    "NPZ_CONTENT_TYPE",
    "encode_impute_request",
    "decode_response_body",
    "encode_array_payload",
    "decode_array_payload",
]

JSON_CONTENT_TYPE = "application/json"
NPZ_CONTENT_TYPE = "application/x-npz"

#: Protocol-level metrics the gateway registers into its service's registry,
#: declared up front so the snapshot schema never depends on traffic.
GATEWAY_METRIC_SCHEMA = {
    "gateway.requests": "counter",
    "gateway.tickets.issued": "counter",
    "gateway.tickets.fetched": "counter",
    "gateway.tickets.unfetched": "gauge",
    "gateway.streams.open": "gauge",
    "gateway.rejections.overload": "counter",
    "gateway.rejections.drain": "counter",
    "gateway.draining": "gauge",
}

#: Hard framing limits of the wire layer (fail fast, not open-endedly).
MAX_REQUEST_LINE_BYTES = 8 * 1024
MAX_HEADER_BYTES = 64 * 1024
MAX_BODY_BYTES = 64 * 1024 * 1024

_REASONS = {
    200: "OK", 201: "Created", 202: "Accepted", 204: "No Content",
    400: "Bad Request", 404: "Not Found", 405: "Method Not Allowed",
    408: "Request Timeout", 413: "Payload Too Large",
    415: "Unsupported Media Type", 429: "Too Many Requests",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error", 501: "Not Implemented",
    503: "Service Unavailable",
}


class GatewayError(Exception):
    """A protocol-level failure that maps to one structured HTTP response."""

    def __init__(self, status, code, message, *, headers=None):
        super().__init__(message)
        self.status = int(status)
        self.code = str(code)
        self.headers = dict(headers or {})


@dataclass
class HTTPRequest:
    """One parsed HTTP request (the gateway's socket-free input)."""

    method: str
    path: str                       # path only, no query string
    query: dict = field(default_factory=dict)
    headers: dict = field(default_factory=dict)   # lower-cased keys
    body: bytes = b""

    @property
    def content_type(self):
        return self.headers.get("content-type", JSON_CONTENT_TYPE).split(";")[0].strip()

    @property
    def accept(self):
        accept = self.headers.get("accept", "")
        return NPZ_CONTENT_TYPE if NPZ_CONTENT_TYPE in accept else JSON_CONTENT_TYPE


@dataclass
class HTTPResponse:
    """One response (the gateway's socket-free output)."""

    status: int
    headers: dict
    body: bytes

    @property
    def content_type(self):
        return self.headers.get("Content-Type", "").split(";")[0].strip()

    def json(self):
        """Decode the body as JSON (test/client convenience)."""
        return json.loads(self.body.decode("utf-8"))


# ---------------------------------------------------------------------------
# Array payload codecs (shared by requests, responses and both transports)
# ---------------------------------------------------------------------------
def _floats_to_json(array):
    """Nested lists with ``NaN -> null`` so the payload is standard JSON."""
    def convert(value):
        if isinstance(value, list):
            return [convert(item) for item in value]
        return None if value != value else value        # NaN is not equal to itself
    return convert(np.asarray(array, dtype=np.float64).tolist())


def _json_to_floats(value, *, what="array"):
    """Inverse of :func:`_floats_to_json` (``null -> NaN``)."""
    def convert(item):
        if isinstance(item, list):
            return [convert(entry) for entry in item]
        if item is None:
            return np.nan
        if isinstance(item, bool) or not isinstance(item, (int, float)):
            raise GatewayError(400, "bad_request", f"{what} must contain numbers or null")
        return float(item)
    if not isinstance(value, list):
        raise GatewayError(400, "bad_request", f"{what} must be a JSON array")
    try:
        return np.asarray(convert(value), dtype=np.float64)
    except ValueError:
        raise GatewayError(400, "bad_request", f"{what} must be a rectangular array")


def _dtype_tag(tag, what):
    """The numeric dtype a JSON ``<name>_dtype`` tag names."""
    try:
        dtype = np.dtype(tag)
    except (TypeError, ValueError):
        dtype = None
    if dtype is None or dtype.kind not in "biuf":
        raise GatewayError(400, "bad_request",
                           f"'{what}_dtype' must name a numeric dtype, got {tag!r}")
    return dtype


def encode_array_payload(arrays, meta, codec):
    """Encode named arrays plus scalar metadata into one body.

    ``arrays`` maps name -> ndarray (encoded dtype-exactly), ``meta`` maps
    name -> JSON-scalar.  The JSON form is canonical (sorted keys, no
    whitespace); the NPZ form is byte-deterministic (sorted entries, pinned
    zip timestamps), so both codecs support golden byte fixtures.
    """
    if codec == NPZ_CONTENT_TYPE:
        payload = dict(arrays)
        for key, value in meta.items():
            if value is not None:
                payload[key] = np.asarray(value)
        return _write_npz(payload)
    document = {key: value for key, value in meta.items() if value is not None}
    for name, array in arrays.items():
        array = np.asarray(array)
        if array.dtype == np.bool_:
            document[name] = array.tolist()
        else:
            document[name] = _floats_to_json(array)
            document[f"{name}_dtype"] = str(array.dtype)
    return json.dumps(document, sort_keys=True, separators=(",", ":"),
                      allow_nan=False).encode("utf-8")


def decode_array_payload(content_type, body):
    """Decode a request/response body into ``{name: array-or-scalar}``.

    NPZ bodies decode to the archive's arrays; JSON bodies decode to the
    parsed document with ``<name>_dtype`` tags applied (so a float32 array
    comes back as float32, bit-exactly).
    """
    if content_type == NPZ_CONTENT_TYPE:
        try:
            with np.load(io.BytesIO(body), allow_pickle=False) as archive:
                return {name: archive[name] for name in archive.files}
        except (OSError, ValueError, zipfile.BadZipFile) as error:
            raise GatewayError(400, "bad_request", f"malformed NPZ body: {error}")
    if content_type != JSON_CONTENT_TYPE:
        raise GatewayError(415, "unsupported_media_type",
                           f"unsupported content type '{content_type}'")
    try:
        document = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise GatewayError(400, "bad_request", f"malformed JSON body: {error}")
    if not isinstance(document, dict):
        raise GatewayError(400, "bad_request", "JSON body must be an object")
    decoded = {}
    for key, value in document.items():
        if key.endswith("_dtype"):
            continue
        dtype = document.get(f"{key}_dtype")
        if dtype is not None:
            decoded[key] = _json_to_floats(value, what=key).astype(
                _dtype_tag(dtype, key))
        else:
            decoded[key] = value
    return decoded


def _write_npz(arrays):
    """Byte-deterministic ``.npz``: sorted entries, pinned zip timestamp."""
    buffer = io.BytesIO()
    with zipfile.ZipFile(buffer, "w", zipfile.ZIP_STORED) as archive:
        for name in sorted(arrays):
            entry = zipfile.ZipInfo(f"{name}.npy", date_time=(1980, 1, 1, 0, 0, 0))
            with archive.open(entry, "w") as member:
                np.lib.format.write_array(member, np.asarray(arrays[name]),
                                          allow_pickle=False)
    return buffer.getvalue()


def _meta_scalar(value, *, what, kind=int, required=False, default=None):
    """Validate one scalar field decoded from either codec."""
    if value is None:
        if required:
            raise GatewayError(400, "bad_request", f"missing required field '{what}'")
        return default
    if isinstance(value, np.ndarray):
        if value.ndim != 0:
            raise GatewayError(400, "bad_request", f"'{what}' must be a scalar")
        value = value.item()
    if kind is int:
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise GatewayError(400, "bad_request", f"'{what}' must be an integer")
        return int(value)
    if kind is str:
        if not isinstance(value, str):
            raise GatewayError(400, "bad_request", f"'{what}' must be a string")
        return value
    raise AssertionError(f"unknown scalar kind {kind!r}")


def _request_arrays(decoded, mask_field="observed_mask"):
    """Extract and validate ``values`` and its mask from a payload (the
    ``/v1/impute`` body, or a stream tick whose mask field is ``mask``)."""
    values = decoded.get("values")
    if values is None:
        raise GatewayError(400, "bad_request", "missing required field 'values'")
    if not isinstance(values, np.ndarray):
        values = _json_to_floats(values, what="'values'")     # untagged JSON
    elif values.dtype.kind not in "biuf":
        raise GatewayError(400, "bad_request", "'values' must be numeric")
    values = values.astype(np.float64, copy=False)
    mask = decoded.get(mask_field)
    if mask is not None:
        try:
            mask = np.asarray(mask)
        except ValueError:
            raise GatewayError(400, "bad_request",
                               f"'{mask_field}' must be a rectangular array")
        if mask.dtype.kind not in "biuf":
            raise GatewayError(400, "bad_request",
                               f"'{mask_field}' must hold booleans or numbers")
        mask = mask.astype(bool, copy=False)
        if mask.shape != values.shape:
            raise GatewayError(400, "bad_request",
                               f"'{mask_field}' must have the same shape as 'values'")
    return values, mask


def decode_impute_request(content_type, body):
    """Decode + validate one ``POST /v1/impute`` body at the boundary."""
    decoded = decode_array_payload(content_type, body)
    values, mask = _request_arrays(decoded)
    if values.ndim != 2 or values.shape[0] < 1 or values.shape[1] < 1:
        raise GatewayError(400, "bad_request",
                           "'values' must be a non-empty (time, node) array")
    model = _meta_scalar(decoded.get("model"), what="model", kind=str, required=True)
    num_samples = _meta_scalar(decoded.get("num_samples"), what="num_samples",
                               default=1)
    if num_samples < 1:
        raise GatewayError(400, "bad_request", "'num_samples' must be >= 1")
    seed = _meta_scalar(decoded.get("seed"), what="seed")
    stride = _meta_scalar(decoded.get("stride"), what="stride")
    if stride is not None and stride < 1:
        raise GatewayError(400, "bad_request", "'stride' must be >= 1")
    return ImputationRequest(model=model, values=values, observed_mask=mask,
                             num_samples=num_samples, seed=seed, stride=stride)


def encode_impute_request(request, codec=JSON_CONTENT_TYPE):
    """Encode an :class:`ImputationRequest` for the wire (client side)."""
    arrays = {"values": np.asarray(request.values, dtype=np.float64)}
    if request.observed_mask is not None:
        arrays["observed_mask"] = np.asarray(request.observed_mask, dtype=bool)
    meta = {"model": request.model, "num_samples": request.num_samples,
            "seed": request.seed, "stride": request.stride}
    return encode_array_payload(arrays, meta, codec)


def encode_response_body(response, codec):
    """Encode an :class:`~repro.serving.ImputationResponse` for the wire."""
    arrays = {
        "median": response.median,
        "samples": response.samples,
        "values": response.values,
        "observed_mask": response.observed_mask,
    }
    meta = {
        "model": response.model,
        "batch_requests": response.batch_requests,
        "queued_seconds": float(response.queued_seconds),
        "batch_seconds": float(response.batch_seconds),
        # Omitted (None) on the primary path so legacy payload bytes — and
        # the golden fixtures pinning them — are unchanged.
        "degraded": True if getattr(response, "degraded", False) else None,
    }
    return encode_array_payload(arrays, meta, codec)


def decode_response_body(content_type, body):
    """Decode a served response body back into arrays + metadata.

    The arrays come back bit-identical to the server-side response in both
    codecs (the end-to-end identity the protocol tests pin).
    """
    decoded = decode_array_payload(content_type, body)
    decoded["observed_mask"] = np.asarray(decoded["observed_mask"]).astype(bool)
    return decoded


def encode_streaming_update(update, codec):
    """Encode a :class:`~repro.serving.StreamingUpdate` (or a no-op tick)."""
    if update is None:
        return encode_array_payload({}, {"emitted": False}, codec)
    arrays = {
        "median": update.median,
        "samples": update.samples,
        "new_median": update.new_median,
        "observed_mask": update.observed_mask,
    }
    meta = {
        "emitted": True,
        "tick": update.tick,
        "start": update.start,
        "condition_cached": bool(update.condition_cached),
    }
    return encode_array_payload(arrays, meta, codec)


def _error_body(status, code, message):
    return json.dumps({"error": code, "message": message, "status": status},
                      sort_keys=True, separators=(",", ":")).encode("utf-8")


# ---------------------------------------------------------------------------
# The gateway (socket-free protocol core)
# ---------------------------------------------------------------------------
@dataclass
class _Ticket:
    """One submitted request's server-side record."""

    pending: object                 # PendingImputation
    reported: bool = False          # its failure reached a caller


@dataclass
class _StreamSession:
    """One live streaming session and its per-session execution lock."""

    imputer: StreamingImputer
    lock: object                    # asyncio.Lock — ticks are ordered


class _ServiceBackend:
    """The backend a gateway stream session sees: the service itself.

    ``impute_arrays`` submits one seeded request for the pinned model spec
    and blocks on its ticket, so the gateway never holds or runs a model.
    """

    def __init__(self, service, resolved):
        self.service = service
        self.spec = resolved.spec
        self.window_length = service.registry.window_length(resolved)

    def impute_arrays(self, values, observed_mask=None, *, num_samples=1,
                      rng=None):
        return self.service.submit(ImputationRequest(
            model=self.spec, values=values, observed_mask=observed_mask,
            num_samples=num_samples, seed=rng)).result()


class Gateway:
    """Protocol front end over one :class:`~repro.serving.ImputationService`.

    The class is socket-free: :meth:`handle` maps an :class:`HTTPRequest` to
    an :class:`HTTPResponse`, and the asyncio server (or the in-process test
    client) is a framing shell around it.  Blocking service calls (waiting on
    a ticket, a stream tick waiting on its emission, stopping the service)
    run in the default thread-pool executor so the event loop never stalls on
    model inference.  The gateway itself never holds or runs a model: every
    inference, stream ticks included, is an
    :class:`~repro.serving.ImputationRequest` through the service.

    Parameters
    ----------
    service:
        The micro-batching service to front.  The gateway starts the
        service's background flush worker (submits must never execute
        inference inline on the event loop) and owns its drain.
    max_tickets:
        Bound on unfetched tickets; submits past it are shed with ``429``.
        A ticket whose failure has been fetched once still answers retries,
        but gives its place up to a new submit when the store is full.
    """

    def __init__(self, service, *, max_tickets=4096):
        if not isinstance(service, ImputationService):
            raise TypeError("gateway requires an ImputationService")
        if max_tickets < 1:
            raise ValueError("max_tickets must be a positive integer")
        self.service = service
        self.max_tickets = int(max_tickets)
        self.draining = False
        self._tickets = {}          # ticket id -> _Ticket
        self._streams = {}          # session id -> _StreamSession
        self._connections = set()   # live wire-layer writers (see serve_connection)
        self._ticket_ids = itertools.count(1)
        self._stream_ids = itertools.count(1)
        # Protocol counters (see /v1/stats) live in the service's metrics
        # registry under gateway.* — one snapshot covers gateway + service +
        # executor.
        self.metrics = service.metrics
        self.metrics.declare(GATEWAY_METRIC_SCHEMA)
        self.metrics.gauge("gateway.tickets.unfetched", fn=lambda: sum(
            not ticket.reported for ticket in self._tickets.values()))
        self.metrics.gauge("gateway.streams.open", fn=lambda: len(self._streams))
        self.metrics.gauge("gateway.draining", fn=lambda: int(self.draining))
        service.start()

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    async def handle(self, request):
        """Map one :class:`HTTPRequest` to an :class:`HTTPResponse`."""
        self.metrics.counter("gateway.requests").inc()
        try:
            response = await self._route(request)
        except GatewayError as error:
            response = self._respond(error.status, _error_body(
                error.status, error.code, str(error)), extra=error.headers)
        except ServingError as error:
            # Table-driven: the exception type alone decides status + code
            # (see errors.GATEWAY_STATUS); every 429/503 carries Retry-After.
            status, code = classify(error)
            if isinstance(error, ServiceOverloaded):
                self.metrics.counter("gateway.rejections.overload").inc()
            extra = {}
            if status in (429, 503):
                extra["Retry-After"] = self._retry_after(
                    getattr(error, "retry_after", None))
            response = self._respond(status,
                                     _error_body(status, code, str(error)),
                                     extra=extra)
        except Exception as error:                       # noqa: BLE001 - wire boundary
            response = self._respond(500, _error_body(
                500, "internal", f"{type(error).__name__}: {error}"))
        return response

    async def _route(self, request):
        segments = [segment for segment in request.path.split("/") if segment]
        if len(segments) >= 1 and segments[0] == "v1":
            route = segments[1:]
            if route == ["healthz"]:
                return self._require(request, "GET") or self._handle_healthz()
            if route == ["healthz", "live"]:
                return self._require(request, "GET") or self._handle_live()
            if route == ["healthz", "ready"]:
                return self._require(request, "GET") or self._handle_ready()
            if route == ["stats"]:
                return self._require(request, "GET") or self._handle_stats()
            if route == ["impute"]:
                return self._require(request, "POST") or await self._handle_impute(request)
            if len(route) == 2 and route[0] == "result":
                return (self._require(request, "GET")
                        or await self._handle_result(request, route[1]))
            if route == ["stream"]:
                return (self._require(request, "POST")
                        or await self._handle_stream_open(request))
            if len(route) == 3 and route[0] == "stream" and route[2] == "tick":
                return (self._require(request, "POST")
                        or await self._handle_stream_tick(request, route[1]))
            if len(route) == 2 and route[0] == "stream":
                return (self._require(request, "DELETE")
                        or self._handle_stream_close(route[1]))
        raise GatewayError(404, "not_found", f"no route for {request.path}")

    @staticmethod
    def _require(request, method):
        if request.method != method:
            raise GatewayError(405, "method_not_allowed",
                               f"{request.path} supports {method} only",
                               headers={"Allow": method})
        return None

    # ------------------------------------------------------------------
    # Handlers
    # ------------------------------------------------------------------
    def _handle_healthz(self):
        """Liveness (always 200 while the process answers) plus a readiness
        summary; ``/v1/healthz/ready`` is the gating variant that goes 503."""
        reasons = self._not_ready_reasons()
        body = {"status": "draining" if self.draining else "ok",
                "draining": self.draining,
                "live": True,
                "ready": not reasons,
                "pending_tickets": sum(
                    1 for ticket in self._tickets.values()
                    if not ticket.pending.done),
                "open_streams": len(self._streams)}
        return self._json_response(200, body)

    def _handle_live(self):
        """Pure liveness: 200 whenever the event loop can answer at all
        (a draining gateway is still alive — don't restart it)."""
        return self._json_response(200, {"live": True})

    def _not_ready_reasons(self):
        """Why this gateway should NOT receive new traffic (empty = ready)."""
        reasons = []
        if self.draining:
            reasons.append("draining")
        executor = self.service.executor
        if executor is not None and any(getattr(executor, "dead_workers", ())):
            reasons.append("dead_workers")
        if self.service.any_circuit_open():
            reasons.append("circuit_open")
        return reasons

    def _handle_ready(self):
        """Readiness: 503 (take it out of rotation) while draining, while
        the pool has dead unrespawned workers, or while any circuit is
        open; the body names the reasons."""
        reasons = self._not_ready_reasons()
        body = {"ready": not reasons, "reasons": reasons}
        if reasons:
            return self._json_response(503, body,
                                       extra={"Retry-After": self._retry_after()})
        return self._json_response(200, body)

    def _handle_stats(self):
        """The flat metrics snapshot plus per-model circuit state."""
        return self._json_response(200, {
            "metrics": self.service.metrics_snapshot(),
            "circuits": self.service.circuits(),
        })

    async def _handle_impute(self, request):
        self._refuse_if_draining()
        imputation = decode_impute_request(request.content_type, request.body)
        imputation.deadline = self._deadline_of(request)
        if len(self._tickets) >= self.max_tickets:
            # Reported failures stay fetchable only while the store has
            # room: drop them (oldest first) before refusing the submit.
            reported = [key for key, ticket in self._tickets.items()
                        if ticket.reported]
            for key in reported[:len(self._tickets) - self.max_tickets + 1]:
                del self._tickets[key]
        if len(self._tickets) >= self.max_tickets:
            self.metrics.counter("gateway.rejections.overload").inc()
            return self._respond(429, _error_body(
                429, "overloaded",
                f"{len(self._tickets)} unfetched tickets (max_tickets="
                f"{self.max_tickets}); fetch results or retry later"),
                extra={"Retry-After": self._retry_after()})
        try:
            pending = self.service.submit(imputation)   # ServiceOverloaded -> 429
        except ValueError as error:
            # Refused at admission (a node count the model was not trained on).
            raise GatewayError(400, "bad_request", str(error))
        if request.query.get("sync"):
            response = await self._await_pending(pending,
                                                 self._timeout_of(request, 60.0))
            return self._respond(200, encode_response_body(response, request.accept),
                                 content_type=request.accept)
        ticket_id = f"t{next(self._ticket_ids):08d}"
        self._tickets[ticket_id] = _Ticket(pending=pending)
        self.metrics.counter("gateway.tickets.issued").inc()
        return self._json_response(
            202, {"ticket": ticket_id, "status": "queued"},
            extra={"Location": f"/v1/result/{ticket_id}"})

    async def _handle_result(self, request, ticket_id):
        ticket = self._tickets.get(ticket_id)
        if ticket is None:
            raise GatewayError(404, "not_found",
                               f"unknown (or already fetched) ticket '{ticket_id}'")
        timeout = self._timeout_of(request, None)
        if not ticket.pending.done and timeout is None:
            return self._json_response(202, {"ticket": ticket_id, "status": "pending"})
        try:
            response = await self._await_pending(ticket.pending, timeout or 60.0)
        except Exception:
            # An errored ticket keeps reporting its failure to retries, but
            # no longer holds a place in the store (see _handle_impute).
            ticket.reported = ticket.pending.failed
            raise
        # One-shot fetch: the record is dropped on success.
        del self._tickets[ticket_id]
        self.metrics.counter("gateway.tickets.fetched").inc()
        return self._respond(200, encode_response_body(response, request.accept),
                             content_type=request.accept)

    async def _handle_stream_open(self, request):
        self._refuse_if_draining()
        decoded = decode_array_payload(request.content_type, request.body)
        model = _meta_scalar(decoded.get("model"), what="model", kind=str,
                             required=True)
        num_nodes = _meta_scalar(decoded.get("num_nodes"), what="num_nodes",
                                 required=True)
        if num_nodes < 1:
            raise GatewayError(400, "bad_request", "'num_nodes' must be >= 1")
        num_samples = _meta_scalar(decoded.get("num_samples"), what="num_samples",
                                   default=1)
        emit_stride = _meta_scalar(decoded.get("emit_stride"), what="emit_stride",
                                   default=1)
        min_history = _meta_scalar(decoded.get("min_history"), what="min_history",
                                   default=1)
        seed = _meta_scalar(decoded.get("seed"), what="seed", default=0)
        resolved = self.service.registry.resolve(model)
        expected = self.service.registry.num_nodes(resolved)
        if num_nodes != expected:
            raise GatewayError(400, "bad_request",
                               f"'num_nodes' is {num_nodes}, but {resolved.spec} "
                               f"was trained on {expected} nodes")
        try:
            imputer = StreamingImputer(_ServiceBackend(self.service, resolved),
                                       num_nodes,
                                       num_samples=num_samples,
                                       emit_stride=emit_stride,
                                       min_history=min_history, seed=seed)
        except ValueError as error:
            raise GatewayError(400, "bad_request", str(error))
        session_id = f"s{next(self._stream_ids):08d}"
        self._streams[session_id] = _StreamSession(imputer=imputer,
                                                   lock=asyncio.Lock())
        return self._json_response(
            201, {"session": session_id, "model": resolved.spec,
                  "window_length": imputer.buffer.capacity})

    async def _handle_stream_tick(self, request, session_id):
        self._refuse_if_draining()
        session = self._streams.get(session_id)
        if session is None:
            raise GatewayError(404, "not_found",
                               f"unknown streaming session '{session_id}'")
        decoded = decode_array_payload(request.content_type, request.body)
        values, mask = _request_arrays(decoded, mask_field="mask")
        if values.ndim != 1:
            raise GatewayError(400, "bad_request",
                               "'values' must be a (node,) vector per tick")
        loop = asyncio.get_running_loop()
        async with session.lock:                        # ticks are ordered
            # push blocks on the emission's ticket off-loop; the service's
            # flush thread (or a pool worker) runs the model.
            try:
                update = await loop.run_in_executor(
                    None, functools.partial(session.imputer.push, values, mask))
            except ValueError as error:
                raise GatewayError(400, "bad_request", str(error))
        return self._respond(200, encode_streaming_update(update, request.accept),
                             content_type=request.accept)

    def _handle_stream_close(self, session_id):
        if self._streams.pop(session_id, None) is None:
            raise GatewayError(404, "not_found",
                               f"unknown streaming session '{session_id}'")
        return self._json_response(200, {"session": session_id, "closed": True})

    # ------------------------------------------------------------------
    # Drain
    # ------------------------------------------------------------------
    async def drain(self):
        """Refuse new work, then resolve every in-flight ticket.

        Idempotent.  ``service.stop()`` (run off-loop) flushes every queued
        micro-batch and blocks until all dispatched requests resolved, so
        when this returns **every ticket ever issued is done** — results stay
        fetchable until the server closes, honouring the SIGTERM contract:
        stop accepting, flush in-flight, then close.
        """
        if self.draining:
            return
        self.draining = True
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(None, self.service.stop)
        self._streams.clear()

    def _refuse_if_draining(self):
        if self.draining:
            self.metrics.counter("gateway.rejections.drain").inc()
            raise GatewayError(503, "draining",
                               "gateway is draining; no new work accepted",
                               headers={"Connection": "close"})

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _retry_after(self, seconds=None):
        """Load-aware ``Retry-After``: the time for the work already waiting
        (service queues + executor backlog) to clear, assuming full batches
        every ``max_delay_seconds`` — deeper queues push the hint out
        instead of hammering a backed-up gateway with retries.
        ``max_delay_seconds`` is the longest a queue waits before it is
        flushed (a queue whose cohort has arrived flushes sooner), so the
        hint is an upper bound.  ``seconds``, an error's own estimate (an
        open circuit knows when its next probe admits), replaces the load
        estimate.  Clamped to [1, 60] whole seconds."""
        if seconds is None:
            batches_ahead = int(np.ceil(
                (self.service.waiting() + 1) / self.service.max_batch_requests))
            seconds = batches_ahead * max(self.service.max_delay_seconds, 1e-3)
        return str(int(min(60.0, max(1.0, np.ceil(float(seconds))))))

    def _deadline_of(self, request):
        """Parse ``X-Deadline-Ms`` into a :class:`Deadline` on the service's
        clock (admission comparisons must share a time base)."""
        raw = request.headers.get("x-deadline-ms")
        if raw is None:
            return None
        try:
            milliseconds = float(raw)
        except ValueError:
            raise GatewayError(400, "bad_request",
                               f"invalid X-Deadline-Ms '{raw}' "
                               "(milliseconds expected)")
        if not 0 < milliseconds <= 600_000:
            raise GatewayError(400, "bad_request",
                               "X-Deadline-Ms must be in (0, 600000]")
        return Deadline.after(milliseconds / 1000.0, clock=self.service.clock)

    @staticmethod
    def _timeout_of(request, default):
        raw = request.query.get("timeout")
        if raw is None:
            return default
        try:
            timeout = float(raw)
        except ValueError:
            raise GatewayError(400, "bad_request",
                               f"invalid timeout '{raw}' (seconds expected)")
        if not 0 < timeout <= 600:
            raise GatewayError(400, "bad_request", "timeout must be in (0, 600]")
        return timeout

    async def _await_pending(self, pending, timeout):
        """Resolve a ticket off-loop; map its failure to the wire contract."""
        loop = asyncio.get_running_loop()
        try:
            return await loop.run_in_executor(
                None, functools.partial(pending.result, timeout))
        except TimeoutError:
            raise GatewayError(408, "timeout",
                               "request not served within the wait timeout")
        except ServingError:
            raise                       # classified by handle()'s status table
        except ValueError as error:
            # The request cleared boundary validation but the model rejected
            # it (wrong node count for the trained network, ...).
            raise GatewayError(400, "bad_request", str(error))

    def _json_response(self, status, document, extra=None):
        body = json.dumps(document, sort_keys=True,
                          separators=(",", ":")).encode("utf-8")
        return self._respond(status, body, extra=extra)

    @staticmethod
    def _respond(status, body, *, content_type=JSON_CONTENT_TYPE, extra=None):
        headers = {"Content-Type": content_type,
                   "Content-Length": str(len(body))}
        if extra:
            headers.update(extra)
        return HTTPResponse(status=status, headers=headers, body=body)

    # ------------------------------------------------------------------
    # Wire layer (asyncio streams; also drivable with in-memory streams)
    # ------------------------------------------------------------------
    async def serve_connection(self, reader, writer):
        """Serve one HTTP/1.1 connection (keep-alive) until EOF or error."""
        self._connections.add(writer)
        try:
            while True:
                try:
                    request = await _read_http_request(reader)
                except _FramingError as error:
                    await _write_http_response(writer, self._respond(
                        error.status, _error_body(error.status, error.code,
                                                  str(error))),
                        keep_alive=False)
                    break
                if request is None:                     # clean EOF between requests
                    break
                response = await self.handle(request)
                keep_alive = (request.headers.get("connection", "keep-alive")
                              != "close"
                              and response.headers.get("Connection") != "close")
                await _write_http_response(writer, response, keep_alive=keep_alive)
                if not keep_alive:
                    break
        except (ConnectionError, asyncio.IncompleteReadError):
            pass                                        # client went away mid-frame
        finally:
            self._connections.discard(writer)
            try:
                # No await here: every response was drain()-ed already, and an
                # await point in the teardown path would turn task cancellation
                # at server shutdown into spurious event-loop error logs.
                writer.close()
            except (ConnectionError, OSError):
                pass


class _FramingError(Exception):
    """Malformed HTTP framing (maps to one error response, then close)."""

    def __init__(self, status, code, message):
        super().__init__(message)
        self.status = status
        self.code = code


async def _read_http_request(reader):
    """Parse one request off an asyncio stream; ``None`` on clean EOF."""
    try:
        line = await reader.readuntil(b"\r\n")
    except asyncio.IncompleteReadError as error:
        if not error.partial:
            return None
        raise _FramingError(400, "bad_request", "truncated request line")
    except asyncio.LimitOverrunError:
        raise _FramingError(400, "bad_request", "request line too long")
    if len(line) > MAX_REQUEST_LINE_BYTES:
        raise _FramingError(400, "bad_request", "request line too long")
    parts = line.decode("latin-1").rstrip("\r\n").split(" ")
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise _FramingError(400, "bad_request", f"malformed request line {parts!r}")
    method, target, _version = parts
    path, _, query_string = target.partition("?")
    query = {}
    if query_string:
        for pair in query_string.split("&"):
            key, _, value = pair.partition("=")
            if key:
                query[key] = value
    headers = {}
    header_bytes = 0
    while True:
        try:
            line = await reader.readuntil(b"\r\n")
        except asyncio.LimitOverrunError:
            # One header line longer than the stream's buffer limit.
            raise _FramingError(431, "bad_request", "header line too long")
        header_bytes += len(line)
        if header_bytes > MAX_HEADER_BYTES:
            raise _FramingError(431, "bad_request", "headers too large")
        if line == b"\r\n":
            break
        name, separator, value = line.decode("latin-1").rstrip("\r\n").partition(":")
        if not separator:
            raise _FramingError(400, "bad_request", f"malformed header {line!r}")
        headers[name.strip().lower()] = value.strip()
    if "chunked" in headers.get("transfer-encoding", ""):
        raise _FramingError(501, "not_implemented",
                            "chunked request bodies are not supported")
    length = headers.get("content-length", "0")
    if not (length.isascii() and length.isdigit()):
        raise _FramingError(400, "bad_request", f"bad Content-Length '{length}'")
    length = int(length)
    if length > MAX_BODY_BYTES:
        raise _FramingError(413, "payload_too_large",
                            f"body of {length} bytes exceeds {MAX_BODY_BYTES}")
    body = await reader.readexactly(length) if length else b""
    return HTTPRequest(method=method.upper(), path=path, query=query,
                       headers=headers, body=body)


async def _write_http_response(writer, response, *, keep_alive):
    # Wire-layer injection points (no-ops unless a fault plan is installed):
    # a "connection_drop" fires before any byte is written — the client sees
    # a reset with no response; a "truncated_body" writes the full head (with
    # the promised Content-Length) but cuts the body short and closes.  Both
    # raise ConnectionResetError, which serve_connection already treats as
    # "client went away" — the server keeps serving other connections.
    if faults.fired("gateway.connection_drop"):
        writer.close()
        raise ConnectionResetError("injected fault: connection dropped")
    truncate = faults.fired("gateway.truncated_body")
    reason = _REASONS.get(response.status, "Unknown")
    headers = dict(response.headers)
    headers.setdefault("Content-Length", str(len(response.body)))
    headers["Connection"] = "keep-alive" if keep_alive else "close"
    head = [f"HTTP/1.1 {response.status} {reason}"]
    head.extend(f"{name}: {value}" for name, value in headers.items())
    writer.write(("\r\n".join(head) + "\r\n\r\n").encode("latin-1"))
    if truncate:
        writer.write(response.body[:len(response.body) // 2])
        await writer.drain()
        writer.close()
        raise ConnectionResetError("injected fault: response body truncated")
    writer.write(response.body)
    await writer.drain()


async def _read_http_response(reader):
    """Parse one response off a stream (the minimal client's half)."""
    status_line = await reader.readuntil(b"\r\n")
    parts = status_line.decode("latin-1").split(" ", 2)
    status = int(parts[1])
    headers = {}
    while True:
        line = await reader.readuntil(b"\r\n")
        if line == b"\r\n":
            break
        name, _, value = line.decode("latin-1").rstrip("\r\n").partition(":")
        headers[name.strip().lower()] = value.strip()
    length = int(headers.get("content-length", "0"))
    body = await reader.readexactly(length) if length else b""
    return HTTPResponse(
        status=status,
        headers={"Content-Type": headers.get("content-type", ""),
                 "Connection": headers.get("connection", "")},
        body=body,
    )


# ---------------------------------------------------------------------------
# Server + clients
# ---------------------------------------------------------------------------
class GatewayServer:
    """The gateway bound to a real listening socket.

    ``async with GatewayServer(gateway) as server`` starts listening on an
    ephemeral port (``server.port``); :meth:`shutdown` performs the graceful
    drain and then closes the listener.  :meth:`install_signal_handlers`
    wires ``SIGTERM``/``SIGINT`` to that shutdown, which is the production
    contract: stop accepting, flush in-flight tickets, then close.
    """

    def __init__(self, gateway, *, host="127.0.0.1", port=0):
        if not isinstance(gateway, Gateway):
            raise TypeError("GatewayServer requires a Gateway")
        self.gateway = gateway
        self.host = host
        self.port = int(port)
        self._server = None
        self._shutdown_task = None

    async def start(self):
        if self._server is not None:
            return self
        self._server = await asyncio.start_server(
            self.gateway.serve_connection, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    async def shutdown(self):
        """Graceful drain, then close the listener and lingering connections."""
        await self.gateway.drain()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for writer in list(self.gateway._connections):
            try:
                writer.close()
            except (ConnectionError, OSError):
                pass

    def install_signal_handlers(self, signals=(signal.SIGTERM, signal.SIGINT)):
        """SIGTERM/SIGINT -> one graceful shutdown (idempotent)."""
        loop = asyncio.get_running_loop()

        def _trigger():
            if self._shutdown_task is None or self._shutdown_task.done():
                self._shutdown_task = loop.create_task(self.shutdown())

        for signum in signals:
            loop.add_signal_handler(signum, _trigger)
        return self

    async def wait_closed(self):
        if self._server is not None:
            await self._server.wait_closed()
        if self._shutdown_task is not None:
            await self._shutdown_task

    @property
    def serving(self):
        return self._server is not None and self._server.is_serving()

    async def __aenter__(self):
        return await self.start()

    async def __aexit__(self, *exc_info):
        await self.shutdown()
        return False


class InProcessClient:
    """Socket-free client: drives :meth:`Gateway.handle` directly.

    This is the tier-1 test transport — byte-for-byte the same payloads as
    the wire, with no network I/O.  The convenience verbs mirror
    :class:`GatewayClient` so tests and benchmarks can swap transports.
    """

    def __init__(self, gateway):
        self.gateway = gateway

    async def request(self, method, path, *, body=b"", headers=None):
        path, _, query_string = path.partition("?")
        query = {}
        for pair in query_string.split("&"):
            key, _, value = pair.partition("=")
            if key:
                query[key] = value
        request = HTTPRequest(method=method.upper(), path=path, query=query,
                              headers={key.lower(): value
                                       for key, value in (headers or {}).items()},
                              body=body)
        return await self.gateway.handle(request)

    async def close(self):
        return None


class GatewayClient:
    """Minimal asyncio HTTP client for one keep-alive gateway connection.

    One in-flight request per instance (callers wanting concurrency open one
    client per logical user — exactly the closed-loop load-generator shape).
    """

    def __init__(self, host, port):
        self.host = host
        self.port = int(port)
        self._reader = None
        self._writer = None

    async def _connect(self):
        if self._writer is None or self._writer.is_closing():
            self._reader, self._writer = await asyncio.open_connection(
                self.host, self.port)

    async def request(self, method, path, *, body=b"", headers=None):
        await self._connect()
        head = [f"{method.upper()} {path} HTTP/1.1",
                f"Host: {self.host}:{self.port}",
                f"Content-Length: {len(body)}"]
        head.extend(f"{name}: {value}" for name, value in (headers or {}).items())
        self._writer.write(("\r\n".join(head) + "\r\n\r\n").encode("latin-1"))
        self._writer.write(body)
        await self._writer.drain()
        response = await _read_http_response(self._reader)
        if response.headers.get("Connection") == "close":
            await self.close()
        return response

    async def close(self):
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            self._writer = None
            self._reader = None


async def submit_and_fetch(client, request, *, codec=JSON_CONTENT_TYPE,
                           timeout=60.0):
    """Client-side round trip: submit, then block-fetch the decoded result.

    Works over either transport; returns ``(decoded_payload, http_status)``
    where the payload holds the response arrays bit-identical to the
    in-process :meth:`ImputationService.serve` result.
    """
    body = encode_impute_request(request, codec)
    submitted = await client.request(
        "POST", "/v1/impute", body=body,
        headers={"Content-Type": codec, "Accept": codec})
    if submitted.status != 202:
        return decode_array_payload(submitted.content_type, submitted.body), \
            submitted.status
    ticket = submitted.json()["ticket"]
    fetched = await client.request(
        "GET", f"/v1/result/{ticket}?timeout={timeout}",
        headers={"Accept": codec})
    if fetched.status != 200:
        return decode_array_payload(fetched.content_type, fetched.body), \
            fetched.status
    return decode_response_body(fetched.content_type, fetched.body), fetched.status
