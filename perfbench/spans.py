"""Per-layer numbers from the tracer's spans.

Spans are joined to the load generator's timed requests by request key
``(database_id, normalized question)`` and time containment:

* ``routes.handle`` spans, through their ``service.translate`` (or
  ``cluster.translate``) child, to the client request they lie inside;
* in cluster mode, the worker's ``service.translate`` to the
  ``cluster.translate`` it lies inside;
* top-level spans on service worker threads (``ROOTS``) to the
  ``service.translate`` that waited for them.  A visit starts with the
  request's ``cache.get``; later roots on the same thread join the visit
  whose key they carry.  A micro-batch's ``translate_batch`` joins every
  request in it, because each of them waits for all of it.

Self time is a span's duration minus the part of it covered by its child
spans.  Per request, the pieces partition the client-measured time:
``outside + front_door.self + ipc + service.wait + sum of the self times
of its worker spans``; ``layer_metrics`` reports the sum as
``accounted_ms`` next to the client mean.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

FRONTS = ("service.translate", "cluster.translate")
ROOTS = ("cache.get", "runtime.translate_batch", "runtime.translate_fallback",
         "executor.execute")
LAYER_OF = {
    "cache.get": "cache",
    "runtime.translate_batch": "runtime",
    "runtime.translate_fallback": "fallback",
    "preprocess.run": "preprocess",
    "candidates.generate": "value_lookup",
    "candidates.validate": "value_lookup",
    "model.encode_batch": "encode",
    "model.decode_encoded": "decode",
    "postprocess.build": "postprocess",
    "executor.execute": "execute",
}
# Order of the latency breakdown, outermost first.
COMPONENTS = ("outside", "front_door", "ipc", "service_wait", "cache",
              "runtime", "fallback", "preprocess", "value_lookup", "encode",
              "decode", "postprocess", "execute", "other")


@dataclass(eq=False)
class Span:
    pid: int
    id: int
    name: str
    start: int
    end: int
    tid: int
    parent: int
    keys: list[tuple[str, str]] | None
    batch: int | None = None
    failed: bool = False
    extra: dict | None = None
    children: list["Span"] = field(default_factory=list)

    @property
    def dur(self) -> int:
        return self.end - self.start

    @property
    def key(self) -> tuple[str, str] | None:
        return self.keys[0] if self.keys else None


@dataclass
class ClientRequest:
    key: tuple[str, str]
    send_ns: int
    recv_ns: int


def covered(intervals: list[tuple[int, int]], lo: int, hi: int) -> int:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total, reach = 0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_time(span: Span) -> int:
    return span.dur - covered([(c.start, c.end) for c in span.children],
                              span.start, span.end)


def load_spans(trace_dir: Path) -> list[Span]:
    spans: list[Span] = []
    for path in sorted(trace_dir.glob("spans-*.json")):
        document = json.loads(path.read_text())
        pid = document["pid"]
        by_id: dict[int, Span] = {}
        for row in document["spans"]:
            keys = [tuple(k) for k in row["keys"]] if row["keys"] else None
            span = Span(pid, row["id"], row["name"], row["start"], row["end"],
                        row["tid"], row["parent"], keys, row["batch"],
                        row["failed"], row["extra"])
            by_id[span.id] = span
            spans.append(span)
        for span in by_id.values():
            parent = by_id.get(span.parent)
            if parent is not None:
                parent.children.append(span)
    return spans


def subtree(span: Span):
    yield span
    for child in span.children:
        yield from subtree(child)


@dataclass(eq=False)
class Attributed:
    client: ClientRequest
    handle: Span
    front: Span                   # service.translate or cluster.translate
    service: Span | None = None   # the service.translate that queued it
    roots: list[Span] = field(default_factory=list)


def match_nested(outers: list[tuple], inners: list[tuple]) -> dict[int, int]:
    """Join each of ``inners`` to the one of ``outers`` with the same key
    that contains it; items are ``(key, start, end)``.

    No workload has two requests for one key in flight at once, so
    same-key outers do not overlap and the only candidate is the last one
    to start no later than the inner.  An outer keeps the first inner that
    fits.  Returns outer index -> inner index.
    """
    by_key: dict = defaultdict(list)
    for i, (key, start, _end) in enumerate(outers):
        by_key[key].append((start, i))
    for starts in by_key.values():
        starts.sort()
    pairs: dict[int, int] = {}
    for j in sorted(range(len(inners)), key=lambda j: inners[j][1]):
        key, start, end = inners[j]
        starts = by_key.get(key, [])
        last = bisect_right(starts, (start, len(outers))) - 1
        if last >= 0:
            i = starts[last][1]
            if outers[i][2] >= end and i not in pairs:
                pairs[i] = j
    return pairs


def attribute(spans: list[Span], requests: list[ClientRequest]) -> list[Attributed]:
    """Join client requests to their spans; unmatched requests are
    dropped (the caller compares counts)."""
    handles = []
    for span in spans:
        if span.name == "routes.handle":
            fronts = [c for c in span.children if c.name in FRONTS]
            if fronts and fronts[0].key is not None:
                handles.append((span, fronts[0]))
    pairs = match_nested(
        [(r.key, r.send_ns, r.recv_ns) for r in requests],
        [(front.key, handle.start, handle.end) for handle, front in handles],
    )
    matched = [Attributed(requests[i], *handles[j]) for i, j in sorted(pairs.items())]

    # Cluster mode: the worker's service.translate (top level on a pool
    # thread) inside the supervisor's cluster.translate.
    inner = [s for s in spans
             if s.name == "service.translate" and s.parent == 0 and s.key]
    outer = [m for m in matched if m.front.name == "cluster.translate"]
    pairs = match_nested([(m.front.key, m.front.start, m.front.end) for m in outer],
                         [(s.key, s.start, s.end) for s in inner])
    for i, j in pairs.items():
        outer[i].service = inner[j]
    for item in matched:
        if item.front.name == "service.translate":
            item.service = item.front

    # A visit is a request's cache.get and the later roots on the same
    # thread that carry its key (until that key's next cache.get).
    served = [m for m in matched if m.service is not None]
    roots_by_thread: dict = defaultdict(list)
    for span in spans:
        if span.parent == 0 and span.name in ROOTS:
            roots_by_thread[(span.pid, span.tid)].append(span)
    visits: list[list[Span]] = []
    for roots in roots_by_thread.values():
        roots.sort(key=lambda s: s.start)
        open_visits: dict = {}
        for root in roots:
            if root.name == "cache.get":
                open_visits[root.key] = [root]
                visits.append(open_visits[root.key])
                continue
            for key in root.keys or ():
                if key in open_visits:
                    open_visits[key].append(root)
    pairs = match_nested(
        [((m.service.pid, m.service.key), m.service.start, m.service.end) for m in served],
        [((v[0].pid, v[0].key), v[0].start, max(r.end for r in v)) for v in visits],
    )
    for i, j in pairs.items():
        served[i].roots = visits[j]
    return matched


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def breakdown(item: Attributed) -> dict[str, float]:
    """Per-request partition of the client-measured time, in ms."""
    parts = dict.fromkeys(COMPONENTS, 0.0)
    client_ns = item.client.recv_ns - item.client.send_ns
    parts["outside"] = (client_ns - item.handle.dur) / 1e6
    parts["front_door"] = self_time(item.handle) / 1e6
    if item.service is not item.front and item.service is not None:
        parts["ipc"] = (item.front.dur - item.service.dur) / 1e6
    if item.service is not None:
        busy = covered([(r.start, r.end) for r in item.roots],
                       item.service.start, item.service.end)
        parts["service_wait"] = (item.service.dur - busy) / 1e6
    for root in item.roots:
        for span in subtree(root):
            parts[LAYER_OF.get(span.name, "other")] += self_time(span) / 1e6
    return parts


def layer_metrics(spans: list[Span], requests: list[ClientRequest]) -> dict:
    """Per-layer metrics over the timed requests (see BENCHMARK.json)."""
    matched = attribute(spans, requests)
    count = len(matched)
    parts = [breakdown(item) for item in matched]

    unique: dict[str, list[Span]] = defaultdict(list)
    seen: set = set()
    for item in matched:
        for root in item.roots:
            for span in subtree(root):
                if span not in seen:
                    seen.add(span)
                    unique[span.name].append(span)

    def mean_self_ms(name: str) -> float:
        return _mean(self_time(s) / 1e6 for s in unique[name])

    gets = unique["cache.get"]
    hits = sum(1 for s in gets if (s.extra or {}).get("hit"))
    encodes = unique["model.encode_batch"]
    decodes = unique["model.decode_encoded"]
    encoded_questions = sum(s.batch or 0 for s in encodes)
    executes = unique["executor.execute"]
    preprocess_calls = len(unique["preprocess.run"])
    lookup_ns = sum(s.dur for s in unique["candidates.generate"] + unique["candidates.validate"])

    window_lo = min((r.send_ns for r in requests), default=0)
    window_hi = max((r.recv_ns for r in requests), default=0)
    ipc_bytes = sum(
        (s.extra or {}).get("bytes", 0) for s in spans
        if s.name == "ipc.send" and window_lo <= s.start <= window_hi
        and (s.extra or {}).get("type") in ("request", "response")
    )
    metrics = {
        "front_door.self_ms": _mean(p["front_door"] for p in parts),
        "front_door.outside_ms": _mean(p["outside"] for p in parts),
        "service.wait_ms": _mean(p["service_wait"] for p in parts),
        "service.batch_size_mean": _mean(s.batch for s in unique["runtime.translate_batch"]),
        "cache.hit_ratio": hits / len(gets) if gets else 0.0,
        "cache.ms": mean_self_ms("cache.get"),
        "runtime.self_ms": mean_self_ms("runtime.translate_batch"),
        "preprocess.ms": mean_self_ms("preprocess.run"),
        "value_lookup.ms": lookup_ns / 1e6 / preprocess_calls if preprocess_calls else 0.0,
        "encode.ms_per_question": (sum(self_time(s) for s in encodes) / 1e6 / encoded_questions
                                   if encoded_questions else 0.0),
        "encode.calls": float(len(encodes)),
        "decode.ms_per_question": mean_self_ms("model.decode_encoded"),
        "decode.failure_ratio": _mean(1.0 if s.failed else 0.0 for s in decodes),
        "postprocess.ms": mean_self_ms("postprocess.build"),
        "execute.ms": mean_self_ms("executor.execute"),
        "execute.calls_per_request": len(executes) / count if count else 0.0,
        "execute.failure_ratio": _mean(1.0 if s.failed else 0.0 for s in executes),
        "ipc.round_trip_ms": _mean(p["ipc"] for p in parts),
        "ipc.bytes_per_request": ipc_bytes / count if count else 0.0,
    }
    client_mean = _mean((r.client.recv_ns - r.client.send_ns) / 1e6 for r in matched)
    latency_view = {name: _mean(p[name] for p in parts) for name in COMPONENTS}
    # The same sum from the published numbers: per-request residuals plus
    # each layer's total self time (a shared batch span counted once)
    # over the request count.  It equals the client mean only when every
    # timed request is matched, spans nest, and the layer metrics neither
    # drop nor double-count work.
    layer_ms: dict[str, float] = defaultdict(float)
    for name, members in unique.items():
        layer_ms[LAYER_OF.get(name, "other")] += sum(self_time(s) for s in members) / 1e6
    accounted = sum(latency_view[name] for name in
                    ("outside", "front_door", "ipc", "service_wait"))
    accounted += sum(layer_ms.values()) / count if count else 0.0
    return {
        "metrics": metrics,
        "latency_view_ms": latency_view,
        "client_mean_ms": client_mean,
        "accounted_ms": accounted,
        "matched": count,
        "cache_misses": len(gets) - hits,
    }


def tensors_per_question(spans: list[Span], after_ns: int) -> float:
    """``Tensor`` constructions inside encode and decode spans per encoded
    question, over spans that start after ``after_ns``."""
    counted = [s for s in spans if s.start >= after_ns
               and s.name in ("model.encode_batch", "model.decode_encoded")]
    questions = sum(s.batch or 0 for s in counted if s.name == "model.encode_batch")
    tensors = sum((s.extra or {}).get("tensors", 0) for s in counted)
    return tensors / questions if questions else 0.0
