"""Concurrency stress tests for the TranslationService (``-m stress``).

Many client threads submit against a small worker pool and bounded queue
while the fake pipeline misbehaves on schedule (exceptions, latency
spikes) and clients mix injected failures with near-zero deadlines.  The
invariants under test:

* no deadlock: every accepted request's ``done`` event fires;
* every future resolves exactly once (monkeypatched ``resolve`` counts);
* the books balance: accepted + rejected == submitted, and the service
  counters agree with the client-side tallies.
"""

from __future__ import annotations

import threading
import time
from collections import Counter

import pytest

from repro.pipeline.timing import StageTimings
from repro.pipeline.valuenet import TranslationResult
from repro.serving import (
    DatabaseRuntime,
    QueueFullError,
    ServeRequest,
    TranslationService,
)

pytestmark = pytest.mark.stress


class ChaosPipeline:
    """Scripted misbehavior: every 3rd call raises, every 4th is slow."""

    def __init__(self):
        self.beam_size = 1
        self.calls = 0
        self._lock = threading.Lock()

    def _tick(self) -> int:
        with self._lock:
            self.calls += 1
            return self.calls

    def translate_batch(self, questions, *, execute=False, encode_observer=None):
        return [self._translate_one(q) for q in questions]

    def _translate_one(self, question):
        call = self._tick()
        if call % 4 == 0:
            time.sleep(0.002)
        result = TranslationResult(question=question, timings=StageTimings())
        if call % 3 == 0:
            result.error = "decoding failed: scripted chaos"
        else:
            result.sql = "SELECT count(*) FROM student"
        return result


def test_stress_every_future_resolves_exactly_once(pets_db, monkeypatch):
    resolve_counts: Counter = Counter()
    count_lock = threading.Lock()
    original_resolve = ServeRequest.resolve

    def counting_resolve(self, response):
        with count_lock:
            resolve_counts[id(self)] += 1
        original_resolve(self, response)

    monkeypatch.setattr(ServeRequest, "resolve", counting_resolve)

    pipeline = ChaosPipeline()
    runtime = DatabaseRuntime(pets_db, pipeline=pipeline)
    service = TranslationService(
        [runtime],
        workers=4,
        queue_size=16,
        max_batch=4,
        batch_window_ms=1.0,
        allow_failure_injection=True,
    ).start()

    threads = 12
    per_thread = 25
    accepted: list[ServeRequest] = []
    accepted_lock = threading.Lock()
    rejected = Counter()
    client_errors: list[BaseException] = []

    def client(worker: int) -> None:
        for i in range(per_thread):
            kwargs = {}
            if (worker + i) % 5 == 0:
                kwargs["inject_failure"] = True
            if (worker + i) % 7 == 0:
                kwargs["timeout_ms"] = 0.0  # already expired at pickup
            try:
                request = service.submit(
                    f"how many students {worker}-{i}", **kwargs
                )
            except QueueFullError:
                with accepted_lock:
                    rejected[worker] += 1
                continue
            except BaseException as exc:  # pragma: no cover - bug detector
                client_errors.append(exc)
                continue
            with accepted_lock:
                accepted.append(request)

    try:
        workers = [
            threading.Thread(target=client, args=(w,)) for w in range(threads)
        ]
        for t in workers:
            t.start()
        for t in workers:
            t.join(timeout=60.0)
        assert not any(t.is_alive() for t in workers), "client threads hung"
        assert not client_errors, client_errors

        # No deadlock: every accepted future fires.
        for request in accepted:
            assert request.done.wait(timeout=60.0), "request never resolved"
    finally:
        service.stop(timeout=60.0)

    submitted = threads * per_thread
    total_rejected = sum(rejected.values())
    assert len(accepted) + total_rejected == submitted

    # Exactly-once resolution for every accepted request; nothing else
    # was resolved (no phantom requests).
    assert len(resolve_counts) == len(accepted)
    for request in accepted:
        assert resolve_counts[id(request)] == 1, "future resolved twice"
    assert all(request.response is not None for request in accepted)

    # The service's books agree with the client's.
    snap = service.metrics.snapshot()
    assert snap["serving_requests_total"] == len(accepted)
    assert snap["serving_rejected_total"] == total_rejected
    responded = (
        snap["serving_responses_ok_total"] + snap["serving_responses_error_total"]
    )
    assert responded == len(accepted)
    assert responded + snap["serving_rejected_total"] == submitted

    # Degraded responses exist (chaos + injection + deadlines guarantee
    # them) and every degraded response carries a reason.
    degraded = [r.response for r in accepted if r.response.degraded]
    assert degraded
    assert all(r.degraded_reason for r in degraded)
    reasons = {r.degraded_reason for r in degraded}
    assert "injected" in reasons
    assert "deadline" in reasons


def test_stress_deadline_storm_all_resolve_degraded(pets_db):
    pipeline = ChaosPipeline()
    runtime = DatabaseRuntime(pets_db, pipeline=pipeline)
    with TranslationService(
        [runtime], workers=2, queue_size=64, max_batch=8
    ) as service:
        requests = [
            service.submit(f"count students {i}", timeout_ms=0.0)
            for i in range(40)
        ]
        for request in requests:
            assert request.done.wait(timeout=60.0)
            response = request.response
            assert response is not None
            assert response.degraded
            assert response.degraded_reason == "deadline"
            assert response.engine == "heuristic"
        # Deadline-skipped requests must never have touched the model.
        assert pipeline.calls == 0


def test_stress_mixed_databases_no_cross_talk(pets_db):
    # Two runtimes, one flaky and one healthy, hammered concurrently:
    # responses must route to the right database and the healthy runtime
    # must stay healthy.
    healthy = DatabaseRuntime(pets_db, database_id="healthy")
    flaky = DatabaseRuntime(
        pets_db, database_id="flaky", pipeline=ChaosPipeline()
    )
    with TranslationService(
        [healthy, flaky], workers=4, queue_size=128, max_batch=4
    ) as service:
        requests = []
        for i in range(60):
            database_id = "healthy" if i % 2 == 0 else "flaky"
            requests.append(
                (database_id, service.submit("how many students", database_id))
            )
        for database_id, request in requests:
            assert request.done.wait(timeout=60.0)
            response = request.response
            assert response is not None
            assert response.database_id == database_id
            if database_id == "healthy":
                # Heuristic-primary runtime: never degraded by chaos.
                assert not response.degraded
                assert response.ok, response.error
