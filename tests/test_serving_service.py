"""Tests for the TranslationService core: queueing, batching, caching,
deadlines, and degraded fallback.

A fake neural pipeline stands in for the trained model so the tests stay
fast and can script failures deterministically; the heuristic fallback
and the database underneath are the real things.
"""

from __future__ import annotations

import threading

import pytest

from repro.errors import ModelError
from repro.pipeline import StageTimings, TranslationResult
from repro.serving import (
    DatabaseRuntime,
    QueueFullError,
    TranslationCache,
    TranslationService,
    UnknownDatabaseError,
)


class FakePipeline:
    """Scriptable stand-in for ValueNetPipeline."""

    def __init__(self, sql="SELECT count(*) FROM student", fail=False):
        self.sql = sql
        self.fail = fail
        self.beam_size = 1  # runtime overrides this per request
        self.calls = 0
        self._lock = threading.Lock()

    def translate_batch(self, questions, *, execute=False, encode_observer=None):
        with self._lock:
            self.calls += len(questions)
            self.seen_beam = self.beam_size
        if self.fail:
            raise ModelError("scripted failure")
        results = []
        for question in questions:
            result = TranslationResult(question=question, timings=StageTimings(
                preprocessing=0.001, encoder_decoder=0.002, postprocessing=0.0005,
            ))
            result.sql = self.sql
            results.append(result)
        return results


@pytest.fixture
def heuristic_service(pets_db):
    service = TranslationService(
        [DatabaseRuntime(pets_db, database_id="pets")],
        workers=2, queue_size=32, batch_window_ms=1.0,
    ).start()
    yield service
    service.stop()


def make_model_service(pets_db, pipeline, **kwargs):
    runtime = DatabaseRuntime(pets_db, database_id="pets", pipeline=pipeline)
    return TranslationService([runtime], workers=2, **kwargs)


class TestBasicServing:
    def test_heuristic_primary_engine_not_degraded(self, heuristic_service):
        response = heuristic_service.translate("How many students are there?")
        assert response.ok, response.error
        assert response.engine == "heuristic"
        assert not response.degraded
        assert "COUNT" in response.sql

    def test_execute_returns_rows(self, heuristic_service):
        response = heuristic_service.translate(
            "How many students are there?", execute=True
        )
        assert response.rows == [(4,)]

    def test_database_id_optional_with_single_database(self, heuristic_service):
        response = heuristic_service.translate("How many students?")
        assert response.database_id == "pets"

    def test_unknown_database_rejected(self, heuristic_service):
        with pytest.raises(UnknownDatabaseError):
            heuristic_service.translate("q", "nope")

    def test_model_engine_used_when_present(self, pets_db):
        pipeline = FakePipeline()
        with make_model_service(pets_db, pipeline) as service:
            response = service.translate("How many students are there?")
            assert response.engine == "model"
            assert response.sql == pipeline.sql
            assert not response.degraded
            assert pipeline.calls == 1

    def test_per_request_beam_size_reaches_pipeline(self, pets_db):
        pipeline = FakePipeline()
        with make_model_service(pets_db, pipeline) as service:
            service.translate("How many students?", beam_size=4)
            assert pipeline.seen_beam == 4
            assert pipeline.beam_size == 1  # restored after the call

    def test_response_as_dict_contract(self, heuristic_service):
        payload = heuristic_service.translate("How many students?").as_dict()
        for field in (
            "question", "database_id", "sql", "error", "engine", "degraded",
            "degraded_reason", "cache_hit", "timings_ms", "queue_ms",
            "service_ms", "batch_size",
        ):
            assert field in payload


class TestConcurrency:
    def test_many_concurrent_clients_zero_drops(self, heuristic_service):
        questions = [
            "How many students are there?",
            "List the name of all students.",
            "students from France",
            "pets heavier than 10",
        ]
        responses: list = [None] * 24
        errors: list = []

        def client(index: int):
            try:
                responses[index] = heuristic_service.translate(
                    questions[index % len(questions)]
                )
            except Exception as exc:  # pragma: no cover - failure detail
                errors.append(exc)

        threads = [threading.Thread(target=client, args=(i,)) for i in range(24)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert all(r is not None and r.sql is not None for r in responses)

    def test_queue_bound_enforced(self, pets_db):
        # Not started: nothing drains the queue, so the bound is hit.
        service = TranslationService(
            [DatabaseRuntime(pets_db, database_id="pets")],
            workers=1, queue_size=2,
        )
        service.submit("q1")
        service.submit("q2")
        with pytest.raises(QueueFullError):
            service.submit("q3")

    def test_batching_groups_compatible_requests(self, pets_db):
        # Enqueue before starting so one worker drains them as a batch.
        service = TranslationService(
            [DatabaseRuntime(pets_db, database_id="pets")],
            workers=1, queue_size=32, max_batch=4, batch_window_ms=50.0,
        )
        requests = [service.submit(f"students number {i}") for i in range(4)]
        service.start()
        for request in requests:
            assert request.done.wait(timeout=30)
        service.stop()
        sizes = {request.response.batch_size for request in requests}
        assert sizes == {4}


class TestCaching:
    def test_repeat_question_hits_cache(self, heuristic_service):
        first = heuristic_service.translate("How many students are there?")
        second = heuristic_service.translate("how many   students are there")
        assert not first.cache_hit
        assert second.cache_hit
        assert second.engine == "cache"
        assert second.sql == first.sql
        assert heuristic_service.cache.hits == 1

    def test_cache_hit_can_still_execute(self, heuristic_service):
        heuristic_service.translate("How many students are there?")
        response = heuristic_service.translate(
            "How many students are there?", execute=True
        )
        assert response.cache_hit
        assert response.rows == [(4,)]

    def test_model_results_cached_and_skip_model(self, pets_db):
        pipeline = FakePipeline()
        with make_model_service(pets_db, pipeline) as service:
            service.translate("How many students are there?")
            response = service.translate("How many students are there?")
            assert response.cache_hit
            assert pipeline.calls == 1

    def test_degraded_responses_not_cached(self, pets_db):
        pipeline = FakePipeline(fail=True)
        with make_model_service(pets_db, pipeline) as service:
            service.translate("How many students are there?")
            response = service.translate("How many students are there?")
            assert not response.cache_hit
            assert pipeline.calls == 2


class TestDegradation:
    def test_model_failure_falls_back_to_heuristic(self, pets_db):
        pipeline = FakePipeline(fail=True)
        with make_model_service(pets_db, pipeline) as service:
            response = service.translate("How many students are there?")
            assert response.degraded
            assert response.degraded_reason == "model_error"
            assert response.engine == "heuristic"
            assert response.sql is not None  # fallback still answered
            counters = service.metrics.snapshot()
            assert counters["serving_responses_degraded_total"] == 1

    def test_deadline_breach_skips_model(self, pets_db):
        pipeline = FakePipeline()
        with make_model_service(pets_db, pipeline) as service:
            response = service.translate(
                "How many students are there?", timeout_ms=0.0
            )
            assert response.degraded
            assert response.degraded_reason == "deadline"
            assert response.engine == "heuristic"
            assert pipeline.calls == 0

    def test_injected_failure_requires_opt_in(self, pets_db):
        pipeline = FakePipeline()
        with make_model_service(pets_db, pipeline) as service:
            response = service.translate("How many students?", inject_failure=True)
            assert not response.degraded  # flag ignored without opt-in

    def test_injected_failure_degrades_when_allowed(self, pets_db):
        pipeline = FakePipeline()
        with make_model_service(
            pets_db, pipeline, allow_failure_injection=True
        ) as service:
            response = service.translate("How many students?", inject_failure=True)
            assert response.degraded
            assert response.degraded_reason == "injected"
            assert response.engine == "heuristic"
            assert pipeline.calls == 0


class TestMetricsIntegration:
    def test_stage_histograms_follow_stage_timings(self, pets_db):
        pipeline = FakePipeline()
        with make_model_service(pets_db, pipeline) as service:
            service.translate("How many students are there?")
            snap = service.metrics.snapshot()
            # The fake pipeline reports fixed per-stage times; the stage
            # histograms must mirror StageTimings' non-zero stages.
            assert snap["serving_stage_encoder_decoder_seconds"]["count"] == 1
            assert snap["serving_stage_preprocessing_seconds"]["count"] == 1
            assert snap["serving_stage_execution_seconds"]["count"] == 0
            assert snap["serving_latency_seconds"]["count"] == 1
            assert snap["serving_requests_total"] == 1

    def test_cache_counters(self, heuristic_service):
        heuristic_service.translate("How many students?")
        heuristic_service.translate("How many students?")
        snap = heuristic_service.metrics.snapshot()
        assert snap["serving_cache_hits_total"] == 1
        assert snap["serving_cache_misses_total"] == 1

    def test_health_payload(self, heuristic_service):
        health = heuristic_service.health()
        assert health["status"] == "ok"
        assert health["databases"] == ["pets"]
        assert health["queue_capacity"] == 32
        assert "cache" in health


class TestCustomCache:
    def test_ttl_zero_effectively_disables_reuse(self, pets_db):
        service = TranslationService(
            [DatabaseRuntime(pets_db, database_id="pets")],
            workers=1, cache=TranslationCache(capacity=4, ttl_s=0.0),
        ).start()
        try:
            service.translate("How many students?")
            response = service.translate("How many students?")
            assert not response.cache_hit
        finally:
            service.stop()
