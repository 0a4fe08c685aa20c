"""Route matrix for the HTTP front door, status and body.

Runs every route — translate (200/400/403/404/413/503),
healthz/livez/readyz, metrics, tenants (incl. 401/403/429 admission
paths) — against a *deterministic* fake service behind
:class:`ServingServer`, over a real HTTP client.

The service is fake on purpose: a real ``translate`` stamps wall-clock
timings into the body and needs a model.  The matrix is about the front
door and :mod:`repro.serving.routes`, not the model — the fake pins
every response so each assertion checks the routing and rendering.
"""

from __future__ import annotations

import http.client
import json
import threading

import pytest

from repro.metrics import MetricsRegistry
from repro.serving import ServingServer
from repro.serving.service import (
    QueueFullError,
    ServeResponse,
    UnknownDatabaseError,
)
from repro.tenancy.controller import (
    AuthenticationError,
    QuotaExceededError,
    RateLimitedError,
)

GOOD_KEY = "tenant-key-good"
ADMIN_KEY = "tenant-key-admin"
LIMITED_KEY = "tenant-key-limited"
CAPPED_KEY = "tenant-key-capped"


class _Tenant:
    def __init__(self, tenant_id: str, weight: int = 1):
        self.tenant_id = tenant_id
        self.weight = weight


class FakeTenancy:
    """Deterministic admission control: outcomes keyed by API key."""

    def is_admin(self, key):
        return key == ADMIN_KEY

    def authenticate(self, key):
        if key == GOOD_KEY:
            return _Tenant("acme")
        raise AuthenticationError("unknown or disabled API key")

    def admit(self, key):
        if key == GOOD_KEY:
            return _Tenant("acme")
        if key == LIMITED_KEY:
            raise RateLimitedError("tenant 'limited' over rate", 2.5)
        if key == CAPPED_KEY:
            raise QuotaExceededError("tenant 'capped' quota spent", 600.0)
        raise AuthenticationError("unknown or disabled API key")

    def overview(self):
        return {"version": 1, "tenants": [{"id": "acme", "class": "gold"}]}

    def usage(self, tenant_id):
        if tenant_id == "acme":
            return {"id": "acme", "requests_today": 3}
        return None


def _fixed_response(**overrides) -> ServeResponse:
    response = ServeResponse(question="How many pets?", database_id="pets")
    response.sql = "SELECT count(*) FROM pets"
    response.engine = "heuristic"
    response.timings = {"decode": 0.001}
    response.queue_ms = 0.5
    response.service_ms = 1.5
    for key, value in overrides.items():
        setattr(response, key, value)
    return response


class FakeService:
    """Pinned-response stand-in with the duck-typed service surface."""

    def __init__(self):
        self.metrics = MetricsRegistry()
        self.tenancy = FakeTenancy()

    def is_ready(self):
        return True

    def health(self):
        return {"status": "ok", "ready": True, "databases": ["pets"]}

    def translate(self, question, database_id=None, **kwargs):
        if database_id == "missing":
            raise UnknownDatabaseError("unknown database 'missing'")
        if question == "overload":
            raise QueueFullError("queue full (64 deep)")
        if question == "badparam":
            raise ValueError("beam_size must be positive")
        if question == "blocked":
            return _fixed_response(
                sql=None,
                policy={"rule_id": "blocked-keyword", "violations": ["x"]},
            )
        return _fixed_response()


@pytest.fixture(scope="module")
def server():
    instance = ServingServer(("127.0.0.1", 0), FakeService())
    thread = threading.Thread(target=instance.serve_forever, daemon=True)
    thread.start()
    yield instance
    instance.shutdown()
    instance.server_close()


def request(server, method, path, *, body=None, headers=None):
    """One request on a fresh connection; returns ``(status, body)``."""
    host, port = server.server_address[:2]
    conn = http.client.HTTPConnection(host, port, timeout=30)
    try:
        conn.request(method, path, body=body, headers=headers or {})
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def _post(server, payload, *, key=None, raw=None):
    headers = {"Content-Type": "application/json"}
    if key:
        headers["Authorization"] = f"Bearer {key}"
    body = raw if raw is not None else json.dumps(payload).encode("utf-8")
    return request(server, "POST", "/translate", body=body, headers=headers)


class TestGetMatrix:
    def test_livez(self, server):
        status, body = request(server, "GET", "/livez")
        assert status == 200
        assert json.loads(body) == {"live": True}

    def test_readyz(self, server):
        status, _ = request(server, "GET", "/readyz")
        assert status == 200

    def test_healthz(self, server):
        status, body = request(server, "GET", "/healthz")
        assert status == 200
        assert json.loads(body)["databases"] == ["pets"]

    def test_metrics_text(self, server):
        status, _ = request(server, "GET", "/metrics")
        assert status == 200

    def test_metrics_json(self, server):
        status, _ = request(server, "GET", "/metrics?format=json")
        assert status == 200

    def test_unknown_path(self, server):
        status, _ = request(server, "GET", "/nope")
        assert status == 404

    def test_tenants_requires_key(self, server):
        status, _ = request(server, "GET", "/tenants")
        assert status == 401

    def test_tenants_non_admin_forbidden(self, server):
        status, _ = request(
            server, "GET", "/tenants",
            headers={"Authorization": f"Bearer {GOOD_KEY}"},
        )
        assert status == 403

    def test_tenants_admin(self, server):
        status, body = request(
            server, "GET", "/tenants",
            headers={"Authorization": f"Bearer {ADMIN_KEY}"},
        )
        assert status == 200
        assert json.loads(body)["tenants"][0]["id"] == "acme"

    def test_tenant_usage(self, server):
        status, _ = request(
            server, "GET", "/tenants/acme/usage",
            headers={"Authorization": f"Bearer {GOOD_KEY}"},
        )
        assert status == 200

    def test_tenant_usage_unknown(self, server):
        status, _ = request(
            server, "GET", "/tenants/ghost/usage",
            headers={"Authorization": f"Bearer {ADMIN_KEY}"},
        )
        assert status == 404


class TestTranslateMatrix:
    def test_success(self, server):
        status, body = _post(
            server, {"question": "How many pets?", "database_id": "pets"},
            key=GOOD_KEY,
        )
        assert status == 200
        assert json.loads(body)["sql"] == "SELECT count(*) FROM pets"

    def test_policy_block_403(self, server):
        status, body = _post(
            server, {"question": "blocked", "database_id": "pets"}, key=GOOD_KEY
        )
        assert status == 403
        payload = json.loads(body)
        assert payload["reason"] == "policy"
        assert payload["rule_id"] == "blocked-keyword"

    def test_unknown_database_404(self, server):
        status, _ = _post(
            server, {"question": "q", "database_id": "missing"}, key=GOOD_KEY
        )
        assert status == 404

    def test_queue_full_503(self, server):
        status, body = _post(server, {"question": "overload"}, key=GOOD_KEY)
        assert status == 503
        assert json.loads(body)["retriable"] is True

    def test_bad_params_400(self, server):
        status, _ = _post(server, {"question": "badparam"}, key=GOOD_KEY)
        assert status == 400

    def test_missing_question_400(self, server):
        status, _ = _post(server, {"database_id": "pets"}, key=GOOD_KEY)
        assert status == 400

    def test_invalid_json_400(self, server):
        status, _ = _post(server, None, key=GOOD_KEY, raw=b"{not json")
        assert status == 400

    def test_empty_body_400(self, server):
        status, _ = _post(server, None, key=GOOD_KEY, raw=b"")
        assert status == 400

    def test_missing_key_401(self, server):
        status, body = _post(server, {"question": "q"})
        assert status == 401
        assert json.loads(body)["reason"] == "auth"

    def test_rate_limited_429(self, server):
        status, body = _post(server, {"question": "q"}, key=LIMITED_KEY)
        assert status == 429
        assert json.loads(body)["reason"] == "rate_limited"

    def test_quota_429(self, server):
        status, body = _post(server, {"question": "q"}, key=CAPPED_KEY)
        assert status == 429
        assert json.loads(body)["reason"] == "quota"

    def test_oversized_body_413(self, server):
        # Refused from the Content-Length alone; the body is not drained.
        raw = json.dumps({"question": "x" * (70 * 1024)}).encode("utf-8")
        status, body = _post(server, None, key=GOOD_KEY, raw=raw)
        assert status == 413
        assert b"64 KiB" in body

    def test_post_unknown_path_404(self, server):
        status, _ = request(
            server, "POST", "/nope",
            body=b"{}", headers={"Content-Type": "application/json"},
        )
        assert status == 404
