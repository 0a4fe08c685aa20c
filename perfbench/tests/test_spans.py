"""Span arithmetic: self time, request matching and the latency partition."""

import itertools
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from spans import (  # noqa: E402
    ClientRequest,
    Span,
    covered,
    layer_metrics,
    match_nested,
    self_time,
)

KEY = ("pets", "how many pets are there")
OTHER = ("flights", "list every airline")
_IDS = itertools.count(1)


def make(name, start, end, *, parent=None, keys=None, tid=1, pid=1, batch=None,
         extra=None):
    span = Span(pid, next(_IDS), name, start, end, tid,
                parent.id if parent else 0, keys, batch, False, extra)
    if parent is not None:
        parent.children.append(span)
    return span


def test_covered_merges_overlaps_and_clips():
    assert covered([(0, 10), (5, 20), (30, 40)], 0, 100) == 30
    assert covered([(0, 10), (5, 20)], 8, 15) == 7
    assert covered([], 0, 10) == 0


def test_self_time_subtracts_the_union_of_children():
    parent = make("runtime.translate_batch", 0, 100)
    make("preprocess.run", 10, 30, parent=parent)
    make("model.encode_batch", 25, 60, parent=parent)   # overlaps the first
    assert self_time(parent) == 100 - 50


def test_self_time_of_a_leaf_is_its_duration():
    assert self_time(make("cache.get", 5, 12)) == 7


def test_match_nested_joins_back_to_back_requests_for_one_key():
    outers = [(KEY, 0, 100), (KEY, 100, 200), (KEY, 300, 400)]
    inners = [(KEY, 310, 390), (KEY, 101, 199), (KEY, 1, 99)]
    assert match_nested(outers, inners) == {0: 2, 1: 1, 2: 0}


def test_match_nested_needs_equal_keys_and_containment():
    outers = [(KEY, 0, 10), (OTHER, 0, 10)]
    inners = [(KEY, 5, 11), (OTHER, 1, 9)]
    assert match_nested(outers, inners) == {1: 1}


def _request_tree(send, recv, key, *, hit, tid_http=10, tid_worker=20):
    """One single-process request: handle > service.translate on the HTTP
    thread; cache.get (+ execute on a hit, or translate_batch on a miss)
    on a worker thread."""
    handle = make("routes.handle", send + 1000, recv - 1000, tid=tid_http)
    service = make("service.translate", send + 2000, recv - 2000, parent=handle,
                   keys=[key], tid=tid_http)
    get = make("cache.get", service.start + 3000, service.start + 3500,
               keys=[key], tid=tid_worker, extra={"hit": hit})
    spans = [handle, service, get]
    if hit:
        spans.append(make("executor.execute", get.end + 100, get.end + 2100,
                          keys=[key], tid=tid_worker))
    else:
        batch = make("runtime.translate_batch", get.end + 100, get.end + 20_100,
                     keys=[key], tid=tid_worker, batch=1)
        pre = make("preprocess.run", batch.start + 100, batch.start + 2100,
                   parent=batch, tid=tid_worker)
        make("candidates.generate", pre.start + 100, pre.start + 600, parent=pre,
             tid=tid_worker)
        make("model.encode_batch", pre.end + 100, pre.end + 10_100, parent=batch,
             tid=tid_worker, batch=1)
        spans += [batch, *batch.children, *pre.children]
    return ClientRequest(key, send, recv), spans


def test_partition_accounts_for_client_latency():
    miss, miss_spans = _request_tree(0, 40_000, KEY, hit=False)
    hit, hit_spans = _request_tree(100_000, 120_000, OTHER, hit=True)
    result = layer_metrics(miss_spans + hit_spans, [miss, hit])
    assert result["matched"] == 2
    assert result["client_mean_ms"] == (40_000 + 20_000) / 2 / 1e6
    assert abs(result["accounted_ms"] - result["client_mean_ms"]) < 1e-12
    metrics = result["metrics"]
    assert metrics["cache.hit_ratio"] == 0.5
    assert metrics["encode.calls"] == 1.0
    assert result["cache_misses"] == 1
    assert metrics["encode.ms_per_question"] == 10_000 / 1e6
    assert metrics["value_lookup.ms"] == 500 / 1e6
    assert metrics["preprocess.ms"] == 1500 / 1e6
    assert metrics["front_door.outside_ms"] == 2000 / 1e6
    assert metrics["execute.calls_per_request"] == 0.5
