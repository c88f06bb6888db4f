"""JSON-over-HTTP front: predict/swap/healthz/stats round trips, overload."""

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.serving import serve_http

from tests.conftest import make_tiny_dataset
from tests.serving.conftest import publish_tiny


@pytest.fixture()
def http_front(gateway):
    server = serve_http(gateway, port=0)  # ephemeral port
    yield server
    server.stop()


def _call_full(server, method, path, payload=None):
    host, port = server.address
    body = json.dumps(payload).encode() if payload is not None else None
    request = urllib.request.Request(
        f"http://{host}:{port}{path}", data=body, method=method,
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, json.loads(response.read()), dict(response.headers)
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read()), dict(error.headers)


def _call(server, method, path, payload=None):
    status, doc, _headers = _call_full(server, method, path, payload)
    return status, doc


class TestEndpoints:
    def test_predict_round_trip(self, http_front, gateway, guard):
        image = make_tiny_dataset(1, seed=0).images[0]
        status, doc = _call(http_front, "POST", "/predict", {"image": image.tolist()})
        assert status == 200
        assert doc["verdict"] == "clean"
        assert doc["model_key"] == gateway.active_key
        assert isinstance(doc["label"], int)
        assert doc["latency_ms"] > 0

    def test_predict_rejects_bad_shape(self, http_front, guard):
        status, doc = _call(http_front, "POST", "/predict", {"image": [[0.0]]})
        assert status == 400 and "expected one" in doc["error"]

    def test_predict_rejects_image_of_another_shape(self, http_front, guard):
        image = make_tiny_dataset(1, seed=0).images[0][:, :4, :4]
        status, doc = _call(http_front, "POST", "/predict", {"image": image.tolist()})
        assert status == 400
        assert "(3, 8, 8)" in doc["error"] and "(3, 4, 4)" in doc["error"]

    def test_predict_requires_image_field(self, http_front, guard):
        status, doc = _call(http_front, "POST", "/predict", {})
        assert status == 400 and "image" in doc["error"]

    def test_healthz_and_stats(self, http_front, gateway, guard):
        status, doc = _call(http_front, "GET", "/healthz")
        assert status == 200 and doc["model_key"] == gateway.active_key
        status, stats = _call(http_front, "GET", "/stats")
        assert status == 200 and stats["alias"] == gateway.alias

    def test_swap_endpoint(self, http_front, gateway, registry, guard):
        new_key = publish_tiny(registry, seed=41)
        status, doc = _call(http_front, "POST", "/swap", {})
        assert status == 200
        assert doc == {"swapped": True, "model_key": new_key}
        status, doc = _call(http_front, "POST", "/swap", {"key": "model-nope"})
        assert status == 404 and "error" in doc

    def test_unknown_path_404(self, http_front, guard):
        status, doc = _call(http_front, "GET", "/nope")
        assert status == 404


class TestOverload:
    def test_queue_full_maps_to_503_with_retry_after(self, http_front, gateway, guard):
        """With the queue wedged at capacity, /predict sheds load explicitly."""
        image = make_tiny_dataset(1, seed=0).images[0]
        batcher = gateway._batcher
        release = threading.Event()
        original_process = batcher.process_batch

        def wedged(batch):
            release.wait(20.0)
            original_process(batch)

        batcher.process_batch = wedged
        original_limit, batcher.max_queue = batcher.max_queue, 1
        try:
            held = gateway.submit(image)  # occupies the single queue slot
            status, doc, headers = _call_full(
                http_front, "POST", "/predict", {"image": image.tolist()}
            )
            assert status == 503
            assert "queue full" in doc["error"]
            assert doc["retry_after_s"] > 0
            assert int(headers["Retry-After"]) >= 1
        finally:
            release.set()
            batcher.max_queue = original_limit
            batcher.process_batch = original_process
        assert held.result(timeout=30).verdict == "clean"
        # The queue drains and serving resumes normally.
        status, doc = _call(http_front, "POST", "/predict", {"image": image.tolist()})
        assert status == 200
