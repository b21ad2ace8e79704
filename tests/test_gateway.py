"""Deterministic protocol test suite for the HTTP gateway.

Almost everything here runs **in-process**: the protocol core is the pure
``HTTPRequest -> HTTPResponse`` function :meth:`Gateway.handle`, driven
through :class:`InProcessClient`, and the wire framing layer is driven by
feeding hand-crafted bytes into an ``asyncio.StreamReader`` with a recording
writer.  ``TestRealSocket`` alone binds a localhost socket (port 0) and
re-checks bit-identity and drain through :class:`GatewayServer` and
:class:`GatewayClient`.  The suite pins:

* both payload codecs against **golden byte fixtures**
  (``tests/fixtures/gateway/``) — JSON is canonical (sorted keys, NaN as
  null) and NPZ is byte-deterministic (sorted entries, pinned timestamps),
* the end-to-end **bit-identity acceptance criterion**: a response fetched
  through the gateway decodes to arrays byte-identical to calling
  ``ImputationService.serve()`` directly, in float32 and float64, via both
  codecs,
* the error mapping (400 boundary validation, 404/405, 415, 429 with
  ``Retry-After``, 503 while draining, 500 structured internals), and
* graceful drain: every issued ticket is resolved before the gateway stops
  accepting work, with results still fetchable afterwards.
"""

import asyncio
import json
import threading
from pathlib import Path

import numpy as np
import pytest

from repro import (
    CircuitBreakerPolicy,
    FallbackRouter,
    ImputationRequest,
    ImputationService,
    ModelRegistry,
    PriSTI,
    PriSTIConfig,
    WorkerPool,
)
from repro.serving import faults
from repro.serving.gateway import (
    JSON_CONTENT_TYPE,
    MAX_HEADER_BYTES,
    NPZ_CONTENT_TYPE,
    Gateway,
    GatewayClient,
    GatewayError,
    GatewayServer,
    InProcessClient,
    decode_array_payload,
    decode_impute_request,
    decode_response_body,
    encode_array_payload,
    encode_impute_request,
    encode_response_body,
    submit_and_fetch,
)
from repro.serving.service import ImputationResponse

FIXTURES = Path(__file__).parent / "fixtures" / "gateway"
CODECS = (JSON_CONTENT_TYPE, NPZ_CONTENT_TYPE)


def _fast_config(**overrides):
    defaults = dict(window_length=12, epochs=1, iterations_per_epoch=1,
                    num_diffusion_steps=8, num_samples=2, batch_size=4)
    defaults.update(overrides)
    return PriSTIConfig.fast(**defaults)


@pytest.fixture(scope="module")
def gateway_model(tiny_traffic_dataset):
    model = PriSTI(_fast_config())
    model.fit(tiny_traffic_dataset)
    return model


@pytest.fixture(scope="module")
def gateway_registry(tmp_path_factory, gateway_model):
    registry = ModelRegistry(tmp_path_factory.mktemp("gateway-models"))
    registry.publish(gateway_model, "traffic")
    return registry


@pytest.fixture()
def service(gateway_registry):
    service = ImputationService(gateway_registry, max_batch_requests=8,
                                max_delay_seconds=0.005)
    yield service
    service.stop()


@pytest.fixture()
def gateway(service):
    return Gateway(service)


@pytest.fixture()
def client(gateway):
    return InProcessClient(gateway)


def _test_arrays(dataset, start=0, length=12):
    values, observed, evaluation = dataset.segment("test")
    mask = observed & ~evaluation
    return values[start:start + length], mask[start:start + length]


def _request(dataset, seed=42, **overrides):
    values, mask = _test_arrays(dataset)
    defaults = dict(model="traffic", values=values, observed_mask=mask,
                    num_samples=2, seed=seed)
    defaults.update(overrides)
    return ImputationRequest(**defaults)


def run(coroutine):
    return asyncio.run(coroutine)


# ----------------------------------------------------------------------
# Payload codecs + golden fixtures
# ----------------------------------------------------------------------
class TestCodecs:
    def _golden_request(self):
        values = np.array([[1.5, np.nan], [-2.25, 0.0], [np.nan, 3.75]])
        mask = np.array([[True, False], [True, True], [False, True]])
        return ImputationRequest(model="traffic@1", values=values,
                                 observed_mask=mask, num_samples=2, seed=7)

    def _golden_response(self):
        request = self._golden_request()
        rng = np.random.default_rng(1234)
        samples = rng.standard_normal((2, 3, 2)).astype(np.float32)
        median = np.median(samples.astype(np.float64), axis=0)
        return ImputationResponse(
            model="traffic@1", median=median, samples=samples,
            values=np.where(request.observed_mask, request.values, 0.0),
            observed_mask=request.observed_mask, batch_requests=3,
            queued_seconds=0.0625, batch_seconds=0.25)

    @pytest.mark.parametrize("suffix,codec", [("json", JSON_CONTENT_TYPE),
                                              ("npz", NPZ_CONTENT_TYPE)])
    def test_golden_request_bytes(self, suffix, codec):
        """Encoding is byte-deterministic and matches the committed fixture."""
        encoded = encode_impute_request(self._golden_request(), codec)
        assert encoded == encode_impute_request(self._golden_request(), codec)
        assert encoded == (FIXTURES / f"impute_request.{suffix}").read_bytes()

    @pytest.mark.parametrize("suffix,codec", [("json", JSON_CONTENT_TYPE),
                                              ("npz", NPZ_CONTENT_TYPE)])
    def test_golden_response_bytes(self, suffix, codec):
        encoded = encode_response_body(self._golden_response(), codec)
        assert encoded == (FIXTURES / f"impute_response.{suffix}").read_bytes()

    @pytest.mark.parametrize("suffix,codec", [("json", JSON_CONTENT_TYPE),
                                              ("npz", NPZ_CONTENT_TYPE)])
    def test_golden_request_decodes_exactly(self, suffix, codec):
        """The committed bytes decode back to the exact request (NaN and all)."""
        body = (FIXTURES / f"impute_request.{suffix}").read_bytes()
        decoded = decode_impute_request(codec, body)
        reference = self._golden_request()
        assert decoded.model == reference.model
        assert decoded.num_samples == reference.num_samples
        assert decoded.seed == reference.seed and decoded.stride is None
        assert np.array_equal(decoded.values, reference.values, equal_nan=True)
        assert np.array_equal(decoded.observed_mask, reference.observed_mask)

    @pytest.mark.parametrize("suffix,codec", [("json", JSON_CONTENT_TYPE),
                                              ("npz", NPZ_CONTENT_TYPE)])
    def test_golden_response_decodes_bit_exactly(self, suffix, codec):
        body = (FIXTURES / f"impute_response.{suffix}").read_bytes()
        decoded = decode_response_body(codec, body)
        reference = self._golden_response()
        assert decoded["model"] == "traffic@1"
        assert decoded["batch_requests"] == 3
        for key, expected in (("median", reference.median),
                              ("samples", reference.samples),
                              ("values", reference.values),
                              ("observed_mask", reference.observed_mask)):
            assert decoded[key].dtype == np.asarray(expected).dtype
            assert np.array_equal(decoded[key], expected)

    @pytest.mark.parametrize("codec", CODECS)
    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_array_payload_round_trip_bit_exact(self, codec, dtype):
        rng = np.random.default_rng(9)
        array = rng.standard_normal((4, 3, 2)).astype(dtype)
        body = encode_array_payload({"samples": array}, {"tag": 5}, codec)
        decoded = decode_array_payload(codec, body)
        assert decoded["samples"].dtype == np.dtype(dtype)
        assert np.array_equal(decoded["samples"], array)

    def test_json_nan_travels_as_null(self):
        body = encode_impute_request(
            ImputationRequest("m", np.array([[np.nan, 1.0]])), JSON_CONTENT_TYPE)
        document = json.loads(body)
        assert document["values"] == [[None, 1.0]]
        decoded = decode_impute_request(JSON_CONTENT_TYPE, body)
        assert np.isnan(decoded.values[0, 0]) and decoded.values[0, 1] == 1.0

    def test_malformed_bodies_rejected(self):
        with pytest.raises(GatewayError, match="JSON"):
            decode_impute_request(JSON_CONTENT_TYPE, b"not json")
        with pytest.raises(GatewayError, match="NPZ"):
            decode_impute_request(NPZ_CONTENT_TYPE, b"not a zip archive")
        with pytest.raises(GatewayError, match="object"):
            decode_impute_request(JSON_CONTENT_TYPE, b"[1,2,3]")
        with pytest.raises(GatewayError, match="content type"):
            decode_impute_request("text/plain", b"whatever")

    def test_boundary_validation(self):
        good = {"model": "m", "values": [[1.0, 2.0]], "values_dtype": "float64"}

        def encode(**overrides):
            document = dict(good)
            document.update(overrides)
            return json.dumps(document).encode()

        with pytest.raises(GatewayError, match="model"):
            decode_impute_request(JSON_CONTENT_TYPE, encode(model=None))
        with pytest.raises(GatewayError, match="values"):
            decode_impute_request(JSON_CONTENT_TYPE, encode(values=None))
        with pytest.raises(GatewayError, match="time, node"):
            decode_impute_request(JSON_CONTENT_TYPE, encode(values=[1.0, 2.0]))
        with pytest.raises(GatewayError, match="num_samples"):
            decode_impute_request(JSON_CONTENT_TYPE, encode(num_samples=0))
        with pytest.raises(GatewayError, match="num_samples"):
            decode_impute_request(JSON_CONTENT_TYPE, encode(num_samples=1.5))
        with pytest.raises(GatewayError, match="stride"):
            decode_impute_request(JSON_CONTENT_TYPE, encode(stride=0))
        with pytest.raises(GatewayError, match="same shape"):
            decode_impute_request(JSON_CONTENT_TYPE,
                                  encode(observed_mask=[[True]]))


# ----------------------------------------------------------------------
# Protocol surface through the in-process client
# ----------------------------------------------------------------------
class TestProtocol:
    def test_healthz(self, client):
        response = run(client.request("GET", "/v1/healthz"))
        assert response.status == 200
        assert response.json()["status"] == "ok"
        assert response.json()["draining"] is False

    def test_submit_then_fetch(self, client, tiny_traffic_dataset):
        async def go():
            body = encode_impute_request(_request(tiny_traffic_dataset))
            submitted = await client.request("POST", "/v1/impute", body=body)
            assert submitted.status == 202
            ticket = submitted.json()["ticket"]
            assert submitted.headers["Location"] == f"/v1/result/{ticket}"
            fetched = await client.request("GET", f"/v1/result/{ticket}?timeout=30")
            assert fetched.status == 200
            # One-shot: the ticket is consumed by a successful fetch.
            again = await client.request("GET", f"/v1/result/{ticket}")
            assert again.status == 404
            return decode_response_body(fetched.content_type, fetched.body)

        payload = run(go())
        assert payload["model"] == "traffic@1"
        assert payload["samples"].shape[0] == 2

    def test_sync_submit(self, client, tiny_traffic_dataset):
        body = encode_impute_request(_request(tiny_traffic_dataset))
        response = run(client.request("POST", "/v1/impute?sync=1", body=body))
        assert response.status == 200
        payload = decode_response_body(response.content_type, response.body)
        assert np.all(np.isfinite(payload["median"]))

    def test_pending_result_is_202(self, gateway_registry, tiny_traffic_dataset):
        # A long deadline keeps the queue unflushed, so the ticket is pending.
        service = ImputationService(gateway_registry, max_batch_requests=100,
                                    max_delay_seconds=10.0)
        client = InProcessClient(Gateway(service))
        try:
            async def go():
                body = encode_impute_request(_request(tiny_traffic_dataset))
                submitted = await client.request("POST", "/v1/impute", body=body)
                ticket = submitted.json()["ticket"]
                pending = await client.request("GET", f"/v1/result/{ticket}")
                assert pending.status == 202
                assert pending.json()["status"] == "pending"
                service.flush()
                done = await client.request("GET", f"/v1/result/{ticket}")
                assert done.status == 200

            run(go())
        finally:
            service.stop()

    @pytest.mark.parametrize("codec", CODECS)
    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_gateway_bit_identical_to_serve(self, tiny_traffic_dataset, tmp_path,
                                            dtype, codec):
        """Acceptance criterion: a gateway-fetched response decodes to arrays
        byte-identical to ``ImputationService.serve()`` called directly."""
        model = PriSTI(_fast_config(dtype=dtype))
        model.fit(tiny_traffic_dataset)
        registry = ModelRegistry(tmp_path / "models")
        registry.publish(model, "traffic")
        service = ImputationService(registry, max_batch_requests=8,
                                    max_delay_seconds=0.005)
        try:
            client = InProcessClient(Gateway(service))
            request = _request(tiny_traffic_dataset, seed=123)
            payload, status = run(submit_and_fetch(client, request, codec=codec))
            assert status == 200
            reference = service.serve(request)
            for key, expected in (("median", reference.median),
                                  ("samples", reference.samples),
                                  ("values", reference.values),
                                  ("observed_mask", reference.observed_mask)):
                assert payload[key].dtype == np.asarray(expected).dtype
                assert np.array_equal(payload[key], expected)
        finally:
            service.stop()

    def test_npz_nan_only_window_served(self, client, tiny_traffic_dataset):
        """An all-NaN window (no mask) over NPZ: everything counts as missing
        and the model imputes the full window."""
        values, _ = _test_arrays(tiny_traffic_dataset)
        request = ImputationRequest("traffic", np.full_like(values, np.nan),
                                    num_samples=2, seed=5)
        payload, status = run(submit_and_fetch(client, request,
                                               codec=NPZ_CONTENT_TYPE))
        assert status == 200
        assert not payload["observed_mask"].any()
        assert np.all(np.isfinite(payload["median"]))
        assert np.all(np.isfinite(payload["samples"]))

    def test_unknown_model_is_client_error(self, client, tiny_traffic_dataset):
        body = encode_impute_request(_request(tiny_traffic_dataset,
                                              model="missing"))
        response = run(client.request("POST", "/v1/impute", body=body))
        assert response.status == 500 or response.status == 400
        assert response.json()["error"] in ("internal", "bad_request")

    def test_model_rejection_maps_to_400_at_result(self, client):
        """A request that clears boundary validation but fails in the model
        (wrong node count) reports 400 through the result endpoint, and the
        errored ticket is retained so retries see the same failure."""
        request = ImputationRequest("traffic", np.zeros((12, 99)), None, seed=0)

        async def go():
            body = encode_impute_request(request)
            submitted = await client.request("POST", "/v1/impute", body=body)
            assert submitted.status == 202
            ticket = submitted.json()["ticket"]
            first = await client.request("GET", f"/v1/result/{ticket}?timeout=30")
            second = await client.request("GET", f"/v1/result/{ticket}?timeout=30")
            return first, second

        first, second = run(go())
        assert first.status == 400 and second.status == 400
        assert first.json()["error"] == "bad_request"

    def test_routing_errors(self, client):
        async def go():
            return (await client.request("GET", "/nope"),
                    await client.request("GET", "/v1/impute"),
                    await client.request("GET", "/v1/result/t999"),
                    await client.request("POST", "/v1/impute?timeout=bogus&sync=1",
                                         body=b"{}"))

        missing, wrong_method, unknown_ticket, bad_timeout = run(go())
        assert missing.status == 404
        assert wrong_method.status == 405
        assert wrong_method.headers["Allow"] == "POST"
        assert unknown_ticket.status == 404
        assert bad_timeout.status == 400

    def test_unsupported_media_type(self, client):
        response = run(client.request("POST", "/v1/impute", body=b"x",
                                      headers={"Content-Type": "text/plain"}))
        assert response.status == 415

    def test_overload_maps_to_429_with_retry_after(self, gateway_registry,
                                                   tiny_traffic_dataset):
        service = ImputationService(gateway_registry, max_batch_requests=100,
                                    max_delay_seconds=10.0, max_queue_depth=1)
        client = InProcessClient(Gateway(service))
        try:
            async def go():
                body = encode_impute_request(_request(tiny_traffic_dataset))
                first = await client.request("POST", "/v1/impute", body=body)
                second = await client.request("POST", "/v1/impute", body=body)
                return first, second

            first, second = run(go())
            assert first.status == 202
            assert second.status == 429
            assert second.json()["error"] == "overloaded"
            assert int(second.headers["Retry-After"]) >= 1
        finally:
            service.stop()

    def test_ticket_store_bound_sheds_load(self, service, tiny_traffic_dataset):
        client = InProcessClient(Gateway(service, max_tickets=1))

        async def go():
            body = encode_impute_request(_request(tiny_traffic_dataset))
            first = await client.request("POST", "/v1/impute", body=body)
            second = await client.request("POST", "/v1/impute", body=body)
            return first, second

        first, second = run(go())
        assert first.status == 202 and second.status == 429

    def test_stats_counters_move(self, client, gateway, tiny_traffic_dataset):
        async def go():
            request = _request(tiny_traffic_dataset)
            await submit_and_fetch(client, request, codec=NPZ_CONTENT_TYPE)
            return await client.request("GET", "/v1/stats")

        response = run(go())
        metrics = response.json()["metrics"]
        assert metrics["gateway.tickets.issued"] == 1
        assert metrics["gateway.tickets.fetched"] == 1
        assert metrics["service.requests.served"] >= 1
        assert metrics["service.queue.depth"] == 0
        assert metrics["registry.cache.misses"] >= 1
        # Gateway traffic runs on trace-and-replay, so the cache was consulted.
        assert metrics["compiled.cache.misses"] + metrics["compiled.cache.hits"] >= 1


# ----------------------------------------------------------------------
# Streaming sessions over the protocol
# ----------------------------------------------------------------------
class TestStreamingEndpoints:
    def _open(self, client, **overrides):
        document = {"model": "traffic", "num_nodes": 6, "num_samples": 1,
                    "seed": 3}
        document.update(overrides)
        return client.request("POST", "/v1/stream",
                              body=json.dumps(document).encode())

    def test_open_tick_close(self, client, tiny_traffic_dataset):
        values, mask = _test_arrays(tiny_traffic_dataset)

        async def go():
            opened = await self._open(client)
            assert opened.status == 201
            session = opened.json()["session"]
            assert opened.json()["model"] == "traffic@1"
            tick = np.where(mask[0], values[0], np.nan)
            body = json.dumps(
                {"values": [None if v != v else v for v in tick]}).encode()
            ticked = await client.request("POST", f"/v1/stream/{session}/tick",
                                          body=body)
            assert ticked.status == 200
            update = decode_array_payload(ticked.content_type, ticked.body)
            assert update["emitted"] is True and update["tick"] == 0
            closed = await client.request("DELETE", f"/v1/stream/{session}")
            assert closed.status == 200
            gone = await client.request("DELETE", f"/v1/stream/{session}")
            assert gone.status == 404

        run(go())

    def test_min_history_holds_emissions(self, client, tiny_traffic_dataset):
        values, mask = _test_arrays(tiny_traffic_dataset)

        async def go():
            opened = await self._open(client, min_history=3)
            session = opened.json()["session"]
            emitted = []
            for t in range(3):
                tick = np.where(mask[t], values[t], np.nan)
                body = json.dumps(
                    {"values": [None if v != v else v for v in tick]}).encode()
                response = await client.request(
                    "POST", f"/v1/stream/{session}/tick", body=body)
                emitted.append(decode_array_payload(
                    response.content_type, response.body)["emitted"])
            return emitted

        assert run(go()) == [False, False, True]

    def test_stream_validation(self, client):
        async def go():
            bad_nodes = await self._open(client, num_nodes=0)
            bad_stride = await self._open(client, emit_stride=0)
            unknown = await client.request("POST", "/v1/stream/s404/tick",
                                           body=b'{"values":[1.0]}')
            opened = await self._open(client)
            session = opened.json()["session"]
            wrong_shape = await client.request(
                "POST", f"/v1/stream/{session}/tick",
                body=b'{"values":[[1.0,2.0]]}')
            return bad_nodes, bad_stride, unknown, wrong_shape

        bad_nodes, bad_stride, unknown, wrong_shape = run(go())
        assert bad_nodes.status == 400
        assert bad_stride.status == 400
        assert unknown.status == 404
        assert wrong_shape.status == 400

    def test_stream_open_rejects_zero_samples(self, gateway, client):
        """A session that could never emit must be refused at open, not
        accepted and then failed on every tick."""
        async def go():
            return await self._open(client, num_samples=0)

        response = run(go())
        assert response.status == 400
        assert response.json()["error"] == "bad_request"
        assert "num_samples" in response.json()["message"]
        assert gateway.metrics.gauge("gateway.streams.open").value == 0


# ----------------------------------------------------------------------
# Graceful drain
# ----------------------------------------------------------------------
class TestDrain:
    def test_drain_resolves_every_inflight_ticket(self, gateway_registry,
                                                  tiny_traffic_dataset):
        """stop(drain)-style shutdown: every ticket issued before the drain is
        resolved by it, results stay fetchable, and new work is refused."""
        service = ImputationService(gateway_registry, max_batch_requests=100,
                                    max_delay_seconds=10.0)
        gateway = Gateway(service)
        client = InProcessClient(gateway)

        async def go():
            body = encode_impute_request(_request(tiny_traffic_dataset))
            tickets = []
            for _ in range(4):
                submitted = await client.request("POST", "/v1/impute", body=body)
                tickets.append(submitted.json()["ticket"])
            assert service.pending() == 4          # nothing flushed yet
            await gateway.drain()
            # Every ticket is resolved the moment drain returns.
            assert all(record.pending.done
                       for record in gateway._tickets.values())
            fetched = [await client.request("GET", f"/v1/result/{ticket}")
                       for ticket in tickets]
            assert [response.status for response in fetched] == [200] * 4
            refused = await client.request("POST", "/v1/impute", body=body)
            assert refused.status == 503
            assert refused.json()["error"] == "draining"
            stream = await client.request(
                "POST", "/v1/stream",
                body=b'{"model":"traffic","num_nodes":6}')
            assert stream.status == 503
            health = await client.request("GET", "/v1/healthz")
            assert health.json()["draining"] is True
            await gateway.drain()                  # idempotent
            return True

        assert run(go())

    def test_drain_with_pool_executor(self, gateway_registry,
                                      tiny_traffic_dataset):
        """Pool-dispatched batches also resolve before drain returns."""
        pool = WorkerPool(num_workers=2, max_queue_depth=64)
        service = ImputationService(gateway_registry, max_batch_requests=2,
                                    max_delay_seconds=0.005, executor=pool)
        gateway = Gateway(service)
        client = InProcessClient(gateway)
        try:
            async def go():
                body = encode_impute_request(_request(tiny_traffic_dataset))
                tickets = []
                for _ in range(4):
                    submitted = await client.request("POST", "/v1/impute",
                                                     body=body)
                    tickets.append(submitted.json()["ticket"])
                await gateway.drain()
                assert all(record.pending.done
                           for record in gateway._tickets.values())
                statuses = [
                    (await client.request("GET", f"/v1/result/{t}")).status
                    for t in tickets
                ]
                assert statuses == [200] * 4
                return True

            assert run(go())
        finally:
            pool.stop()

    def test_streams_closed_by_drain(self, gateway, client):
        async def go():
            opened = await client.request(
                "POST", "/v1/stream", body=b'{"model":"traffic","num_nodes":6}')
            session = opened.json()["session"]
            await gateway.drain()
            tick = await client.request("POST", f"/v1/stream/{session}/tick",
                                        body=b'{"values":[1,1,1,1,1,1]}')
            assert tick.status == 503              # draining wins over 404
            return True

        assert run(go())


# ----------------------------------------------------------------------
# Resilience surface: deadlines, readiness, circuits, degraded mode
# ----------------------------------------------------------------------
class TestResilienceProtocol:
    def test_unmeetable_deadline_header_is_429(self, gateway_registry,
                                               tiny_traffic_dataset):
        service = ImputationService(gateway_registry, max_delay_seconds=10.0)
        client = InProcessClient(Gateway(service))
        try:
            body = encode_impute_request(_request(tiny_traffic_dataset))
            response = run(client.request("POST", "/v1/impute", body=body,
                                          headers={"X-Deadline-Ms": "50"}))
            assert response.status == 429
            assert response.json()["error"] == "deadline_exceeded"
            assert int(response.headers["Retry-After"]) >= 1
        finally:
            service.stop()

    def test_invalid_deadline_header_is_400(self, client, tiny_traffic_dataset):
        body = encode_impute_request(_request(tiny_traffic_dataset))
        for raw in ("banana", "0", "-5", "999999999"):
            response = run(client.request("POST", "/v1/impute", body=body,
                                          headers={"X-Deadline-Ms": raw}))
            assert response.status == 400, raw
            assert response.json()["error"] == "bad_request"

    def test_generous_deadline_served_untagged(self, client,
                                               tiny_traffic_dataset):
        body = encode_impute_request(_request(tiny_traffic_dataset))
        response = run(client.request("POST", "/v1/impute?sync=1", body=body,
                                      headers={"X-Deadline-Ms": "60000"}))
        assert response.status == 200
        payload = decode_response_body(response.content_type, response.body)
        # The primary path never carries the degraded tag (legacy bytes).
        assert "degraded" not in payload

    def test_degraded_fallback_tagged_over_wire(self, gateway_registry,
                                                tiny_traffic_dataset):
        """An unmeetable-but-live deadline with a fallback configured serves
        the degraded statistical imputation, tagged in the metadata."""
        service = ImputationService(gateway_registry, max_delay_seconds=10.0,
                                    fallback=FallbackRouter())
        client = InProcessClient(Gateway(service))
        try:
            request = _request(tiny_traffic_dataset)
            body = encode_impute_request(request)
            response = run(client.request("POST", "/v1/impute?sync=1",
                                          body=body,
                                          headers={"X-Deadline-Ms": "50"}))
            assert response.status == 200
            payload = decode_response_body(response.content_type,
                                           response.body)
            assert bool(payload["degraded"]) is True
            assert np.all(np.isfinite(payload["median"]))
            observed = request.observed_mask & np.isfinite(request.values)
            assert np.array_equal(payload["median"][observed],
                                  request.values[observed])
            assert service.metrics_snapshot()["service.requests.degraded"] == 1
        finally:
            service.stop()

    def test_liveness_and_readiness_split(self, gateway, client):
        async def go():
            live = await client.request("GET", "/v1/healthz/live")
            ready = await client.request("GET", "/v1/healthz/ready")
            assert live.status == 200 and live.json()["live"] is True
            assert ready.status == 200 and ready.json()["ready"] is True
            assert ready.json()["reasons"] == []
            await gateway.drain()
            # Draining: still live (don't restart), no longer ready.
            live = await client.request("GET", "/v1/healthz/live")
            ready = await client.request("GET", "/v1/healthz/ready")
            health = await client.request("GET", "/v1/healthz")
            assert live.status == 200
            assert ready.status == 503
            assert ready.json()["reasons"] == ["draining"]
            assert int(ready.headers["Retry-After"]) >= 1
            assert health.status == 200            # legacy endpoint stays 200
            assert health.json()["ready"] is False
            return True

        assert run(go())

    def test_readiness_gates_on_dead_workers(self, gateway_registry):
        pool = WorkerPool(num_workers=2, mode="process")
        service = ImputationService(gateway_registry, executor=pool)
        client = InProcessClient(Gateway(service))
        try:
            assert run(client.request("GET", "/v1/healthz/ready")).status == 200
            pool.dead_workers[0] = True            # a child died, not respawned
            ready = run(client.request("GET", "/v1/healthz/ready"))
            assert ready.status == 503
            assert "dead_workers" in ready.json()["reasons"]
        finally:
            service.stop()
            pool.stop()

    def test_open_circuit_gates_readiness_and_maps_to_503(
            self, gateway_registry, tiny_traffic_dataset):
        service = ImputationService(
            gateway_registry,
            circuit_policy=CircuitBreakerPolicy(failure_threshold=1))
        client = InProcessClient(Gateway(service))
        try:
            async def go():
                body = encode_impute_request(_request(tiny_traffic_dataset))
                with faults.active([{"point": "service.flush", "hits": [1]}]):
                    submitted = await client.request("POST", "/v1/impute",
                                                     body=body)
                    assert submitted.status == 202
                    with pytest.raises(Exception):
                        service.flush()            # trips the breaker
                ready = await client.request("GET", "/v1/healthz/ready")
                assert ready.status == 503
                assert "circuit_open" in ready.json()["reasons"]
                rejected = await client.request("POST", "/v1/impute",
                                                body=body)
                assert rejected.status == 503
                assert rejected.json()["error"] == "circuit_open"
                assert int(rejected.headers["Retry-After"]) >= 1
                stats = await client.request("GET", "/v1/stats")
                circuits = stats.json()["circuits"]
                assert circuits["traffic@1"]["state"] == "open"
                return True

            assert run(go())
        finally:
            service.stop()

    def test_retry_after_is_load_aware(self, gateway_registry,
                                       tiny_traffic_dataset):
        """Retry-After is derived from the queue and the flush interval —
        here 4 waiting requests fit one batch, so the hint is exactly one
        30 s flush interval (the batch size is far above the queue so the
        service's background worker cannot race a size-triggered flush)."""
        service = ImputationService(gateway_registry, max_batch_requests=100,
                                    max_delay_seconds=30.0, max_queue_depth=4)
        client = InProcessClient(Gateway(service))
        try:
            async def go():
                body = encode_impute_request(_request(tiny_traffic_dataset))
                for _ in range(4):
                    accepted = await client.request("POST", "/v1/impute",
                                                    body=body)
                    assert accepted.status == 202
                shed = await client.request("POST", "/v1/impute", body=body)
                assert shed.status == 429
                assert shed.headers["Retry-After"] == "30"
                return True

            assert run(go())
        finally:
            service.stop()

    def test_retry_after_scales_with_queue_depth(self, service,
                                                 monkeypatch):
        """Deeper queues push the hint out: with 2 requests per batch and a
        5 s interval, 0 waiting → 1 batch → 5 s, 9 waiting → 5 batches →
        25 s, and a huge backlog clamps at 60 s."""
        gateway = Gateway(service)
        monkeypatch.setattr(service, "max_batch_requests", 2)
        monkeypatch.setattr(service, "max_delay_seconds", 5.0)
        for waiting, expected in ((0, "5"), (9, "25"), (1000, "60")):
            monkeypatch.setattr(service, "pending", lambda n=waiting: n)
            assert gateway._retry_after() == expected


# ----------------------------------------------------------------------
# Wire framing over in-memory streams (no sockets)
# ----------------------------------------------------------------------
class _RecordingWriter:
    """Just enough of an asyncio StreamWriter for serve_connection."""

    def __init__(self):
        self.chunks = []
        self.closed = False

    def write(self, data):
        self.chunks.append(bytes(data))

    async def drain(self):
        return None

    def close(self):
        self.closed = True

    def is_closing(self):
        return self.closed

    @property
    def data(self):
        return b"".join(self.chunks)


def _drive_wire(gateway, payload):
    """Feed raw bytes through the connection handler; returns the output."""
    async def go():
        reader = asyncio.StreamReader()
        reader.feed_data(payload)
        reader.feed_eof()
        writer = _RecordingWriter()
        await gateway.serve_connection(reader, writer)
        return writer

    return asyncio.run(go())


class TestWireFraming:
    def test_single_request_response(self, gateway):
        writer = _drive_wire(gateway, b"GET /v1/healthz HTTP/1.1\r\n\r\n")
        assert writer.data.startswith(b"HTTP/1.1 200 OK\r\n")
        head, _, body = writer.data.partition(b"\r\n\r\n")
        assert f"Content-Length: {len(body)}".encode() in head
        assert json.loads(body)["status"] == "ok"
        assert writer.closed

    def test_keep_alive_pipelining(self, gateway):
        writer = _drive_wire(gateway,
                             b"GET /v1/healthz HTTP/1.1\r\n\r\n"
                             b"GET /v1/stats HTTP/1.1\r\n\r\n")
        assert writer.data.count(b"HTTP/1.1 200 OK") == 2
        assert b"Connection: keep-alive" in writer.data

    def test_connection_close_honoured(self, gateway):
        writer = _drive_wire(gateway,
                             b"GET /v1/healthz HTTP/1.1\r\n"
                             b"Connection: close\r\n\r\n"
                             b"GET /v1/healthz HTTP/1.1\r\n\r\n")
        assert writer.data.count(b"HTTP/1.1 200 OK") == 1
        assert b"Connection: close" in writer.data

    def test_post_with_body_over_wire(self, gateway, tiny_traffic_dataset):
        body = encode_impute_request(_request(tiny_traffic_dataset))
        payload = (b"POST /v1/impute HTTP/1.1\r\n"
                   b"Content-Type: application/json\r\n"
                   b"Content-Length: " + str(len(body)).encode() + b"\r\n\r\n"
                   + body)
        writer = _drive_wire(gateway, payload)
        assert writer.data.startswith(b"HTTP/1.1 202 Accepted\r\n")
        assert b'"ticket"' in writer.data

    def test_malformed_request_line(self, gateway):
        writer = _drive_wire(gateway, b"NONSENSE\r\n\r\n")
        assert writer.data.startswith(b"HTTP/1.1 400 Bad Request\r\n")
        assert b"Connection: close" in writer.data

    def test_bad_content_length(self, gateway):
        writer = _drive_wire(gateway,
                             b"POST /v1/impute HTTP/1.1\r\n"
                             b"Content-Length: banana\r\n\r\n")
        assert writer.data.startswith(b"HTTP/1.1 400 Bad Request\r\n")

    def test_negative_content_length_is_bad_request(self, gateway):
        writer = _drive_wire(gateway,
                             b"POST /v1/impute HTTP/1.1\r\n"
                             b"Content-Length: -5\r\n\r\n")
        assert writer.data.startswith(b"HTTP/1.1 400 Bad Request\r\n")

    def test_oversized_header_line_answered(self, gateway):
        """One header line past the stream limit gets a 431, not silence."""
        writer = _drive_wire(gateway,
                             b"GET /v1/healthz HTTP/1.1\r\n"
                             b"X-Padding: " + b"a" * MAX_HEADER_BYTES
                             + b"\r\n\r\n")
        assert writer.data.startswith(
            b"HTTP/1.1 431 Request Header Fields Too Large\r\n")
        assert b"Connection: close" in writer.data
        assert writer.closed

    def test_too_many_headers_answered(self, gateway):
        header = b"X-Padding: " + b"a" * 1000 + b"\r\n"
        count = MAX_HEADER_BYTES // len(header) + 1
        writer = _drive_wire(gateway,
                             b"GET /v1/healthz HTTP/1.1\r\n"
                             + header * count + b"\r\n")
        assert writer.data.startswith(
            b"HTTP/1.1 431 Request Header Fields Too Large\r\n")

    def test_oversized_body_rejected(self, gateway):
        writer = _drive_wire(gateway,
                             b"POST /v1/impute HTTP/1.1\r\n"
                             b"Content-Length: 999999999999\r\n\r\n")
        assert writer.data.startswith(b"HTTP/1.1 413 Payload Too Large\r\n")

    def test_chunked_not_implemented(self, gateway):
        writer = _drive_wire(gateway,
                             b"POST /v1/impute HTTP/1.1\r\n"
                             b"Transfer-Encoding: chunked\r\n\r\n")
        assert writer.data.startswith(b"HTTP/1.1 501 Not Implemented\r\n")

    def test_query_string_parsed(self, gateway, tiny_traffic_dataset):
        body = encode_impute_request(_request(tiny_traffic_dataset))
        payload = (b"POST /v1/impute?sync=1 HTTP/1.1\r\n"
                   b"Content-Type: application/json\r\n"
                   b"Content-Length: " + str(len(body)).encode() + b"\r\n\r\n"
                   + body)
        writer = _drive_wire(gateway, payload)
        assert writer.data.startswith(b"HTTP/1.1 200 OK\r\n")


class TestWireFaults:
    def test_connection_drop_closes_without_response(self, gateway):
        with faults.active([{"point": "gateway.connection_drop",
                             "hits": [1]}]):
            writer = _drive_wire(gateway, b"GET /v1/healthz HTTP/1.1\r\n\r\n")
        # The connection handler absorbs the reset: nothing written, closed,
        # and no exception escaped to the caller.
        assert writer.data == b""
        assert writer.closed

    def test_truncated_body_underdelivers_content_length(self, gateway):
        clean = _drive_wire(gateway, b"GET /v1/healthz HTTP/1.1\r\n\r\n")
        _, _, full_body = clean.data.partition(b"\r\n\r\n")
        with faults.active([{"point": "gateway.truncated_body", "hits": [1]}]):
            writer = _drive_wire(gateway, b"GET /v1/healthz HTTP/1.1\r\n\r\n")
        head, _, body = writer.data.partition(b"\r\n\r\n")
        # The head promises the full body; the wire delivers only part of it,
        # then the connection dies — exactly what a client must survive.
        assert f"Content-Length: {len(full_body)}".encode() in head
        assert 0 < len(body) < len(full_body)
        assert writer.closed

    def test_faults_only_fire_when_scheduled(self, gateway):
        with faults.active([{"point": "gateway.connection_drop",
                             "hits": [2]}]):
            first = _drive_wire(gateway, b"GET /v1/healthz HTTP/1.1\r\n\r\n")
            second = _drive_wire(gateway, b"GET /v1/healthz HTTP/1.1\r\n\r\n")
        assert first.data.startswith(b"HTTP/1.1 200 OK\r\n")
        assert second.data == b""


# ----------------------------------------------------------------------
# A real localhost socket: GatewayServer on port 0, GatewayClient
# ----------------------------------------------------------------------
class TestRealSocket:
    @staticmethod
    async def _over_socket(gateway, scenario):
        async with GatewayServer(gateway) as server:
            client = GatewayClient(server.host, server.port)
            try:
                return await scenario(client)
            finally:
                await client.close()

    def test_bit_identical_to_serve_in_both_codecs(self, service, gateway,
                                                   tiny_traffic_dataset):
        request = _request(tiny_traffic_dataset, seed=321)
        reference = service.serve(request)

        async def scenario(client):
            return [await submit_and_fetch(client, request, codec=codec)
                    for codec in CODECS]

        for payload, status in run(self._over_socket(gateway, scenario)):
            assert status == 200
            for key in ("median", "samples", "values", "observed_mask"):
                expected = getattr(reference, key)
                assert payload[key].dtype == expected.dtype
                assert np.array_equal(payload[key], expected)

    def test_drain_resolves_queued_tickets(self, gateway_registry,
                                           tiny_traffic_dataset):
        """Tickets queued on a slow service all resolve to 200 after the
        drain, and the next submit is refused with 503."""
        service = ImputationService(gateway_registry, max_batch_requests=100,
                                    max_delay_seconds=30.0)
        gateway = Gateway(service)
        body = encode_impute_request(_request(tiny_traffic_dataset))

        async def scenario(client):
            tickets = []
            for _ in range(4):
                submitted = await client.request("POST", "/v1/impute",
                                                 body=body)
                assert submitted.status == 202
                tickets.append(submitted.json()["ticket"])
            assert service.pending() == 4
            await gateway.drain()
            statuses = [
                (await client.request("GET", f"/v1/result/{ticket}")).status
                for ticket in tickets
            ]
            refused = await client.request("POST", "/v1/impute", body=body)
            return statuses, refused.status

        statuses, refused = run(self._over_socket(gateway, scenario))
        assert statuses == [200] * 4
        assert refused == 503


# ----------------------------------------------------------------------
# Concurrency on the ticket surface
# ----------------------------------------------------------------------
class TestTicketConcurrency:
    def test_concurrent_result_calls_same_ticket(self, service,
                                                 tiny_traffic_dataset):
        """Two clients blocking on the same ticket both get the response."""
        ticket = service.submit(_request(tiny_traffic_dataset))
        outcomes = [None, None]

        def fetch(slot):
            outcomes[slot] = ticket.result(timeout=30)

        threads = [threading.Thread(target=fetch, args=(slot,))
                   for slot in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert outcomes[0] is outcomes[1]
        assert np.all(np.isfinite(outcomes[0].median))
