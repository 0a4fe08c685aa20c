"""In-memory span tracer installed around the server's public functions.

``install`` wraps the functions each layer is entered through before ``repro.__main__.main`` runs, so the program itself is
unchanged.  Every call records one span: name, start and end
(``time.monotonic_ns``, which is CLOCK_MONOTONIC and so comparable across
the server's processes and the load generator), the parent span on the
same thread, the request keys ``(database_id, normalized question)`` it
serves, the batch size where one applies, whether it raised, and
layer-specific extras (Tensor constructions, IPC bytes).

Spans stay in memory and are written as one JSON file per process by
``Tracer.dump``.  Forked cluster workers inherit the wraps; a fork hook
empties the inherited span list so each process writes only its own.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import sys
import threading
import time

# Span tuple fields, in order (tuples keep the traced hot path cheap).
FIELDS = ("id", "name", "start", "end", "tid", "parent", "keys", "batch",
          "failed", "extra")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._tls = threading.local()

    def reset(self) -> None:
        """Forget inherited spans (runs in a freshly forked child)."""
        self.spans = []
        self._tls = threading.local()

    def _state(self):
        tls = self._tls
        if not hasattr(tls, "stack"):
            tls.stack = []
            tls.tensors = 0
            tls.sent = 0
            tls.ctx_keys = None
        return tls

    def count_tensor(self) -> None:
        self._state().tensors += 1

    def count_sent(self, nbytes: int) -> None:
        self._state().sent += nbytes

    def wrap(self, fn, name, *, keys=None, batch=None, failures=(),
             tensors=False, sent=False, extra=None):
        """Return ``fn`` wrapped to record one span per call.

        ``keys(args, kwargs)`` gives the request keys the call serves and
        ``batch(args, kwargs)`` its batch size.  A top-level span without
        keys of its own inherits the keys of the thread's last keyed
        top-level span: a cache hit's execution runs on the thread that
        looked the key up.  ``failures`` are exception types counted as a
        failed call; ``extra(args, kwargs, result)`` adds fields.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = tracer._state()
            span_id = next(tracer._ids)
            stack = state.stack
            parent = stack[-1] if stack else 0
            span_keys = keys(args, kwargs) if keys is not None else None
            if not stack:
                if span_keys:
                    state.ctx_keys = span_keys
                else:
                    span_keys = state.ctx_keys
            size = batch(args, kwargs) if batch is not None else None
            tensors0 = state.tensors
            sent0 = state.sent
            stack.append(span_id)
            failed = False
            result = None
            start = time.monotonic_ns()
            try:
                result = fn(*args, **kwargs)
                return result
            except failures:
                failed = True
                raise
            finally:
                end = time.monotonic_ns()
                stack.pop()
                fields = {}
                if tensors:
                    fields["tensors"] = state.tensors - tensors0
                if sent:
                    fields["bytes"] = state.sent - sent0
                if extra is not None:
                    fields.update(extra(args, kwargs, result))
                tracer.spans.append((span_id, name, start, end,
                                     threading.get_ident(), parent,
                                     span_keys, size, failed, fields or None))

        return traced

    def dump(self, directory: str) -> str:
        path = os.path.join(directory, f"spans-{os.getpid()}.json")
        rows = [dict(zip(FIELDS, span)) for span in self.spans]
        tmp = path + ".tmp"
        with open(tmp, "w") as handle:
            json.dump({"pid": os.getpid(), "spans": rows}, handle)
        os.replace(tmp, path)
        return path


def _replace_everywhere(original, replacement) -> None:
    """Rebind every module-level alias of ``original`` in loaded repro
    modules (``from x import f`` copies the binding)."""
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def _patch_method(tracer, cls, attr, name, **options) -> None:
    original = getattr(cls, attr)
    setattr(cls, attr, tracer.wrap(original, name, **options))


def install(tracer: Tracer, trace_dir: str, *, count_tensors: bool = False) -> None:
    """Wrap every traced layer entry point (call before ``main``).

    ``count_tensors`` also counts ``Tensor`` constructions.  That costs
    about a microsecond per tensor, thousands per question, so it runs
    in a server of its own, never in the one whose spans are timed.
    """
    from repro.candidates.generation import CandidateGenerator
    from repro.candidates.validation import CandidateValidator
    from repro.cluster import protocol
    from repro.cluster.supervisor import ClusterService
    from repro.cluster.worker import WorkerProcess
    from repro.db import executor
    from repro.errors import ReproError
    from repro.model.valuenet import ValueNetModel
    from repro.nn.tensor import Tensor
    from repro.postprocessing.sql_builder import SqlBuilder
    from repro.preprocessing.pipeline import Preprocessor
    from repro.serving import routes
    from repro.serving.cache import TranslationCache, normalize_question
    from repro.serving.runtime import DatabaseRuntime
    from repro.serving.service import TranslationService

    def request_key(args, kwargs):
        # (self, question, database_id, ...) for both service front ends.
        database_id = args[2] if len(args) > 2 else kwargs.get("database_id")
        return [(database_id, normalize_question(args[1]))]

    def batch_keys(args, kwargs):
        runtime = args[0]
        return [(runtime.database_id, normalize_question(q)) for q in args[1]]

    def fallback_key(args, kwargs):
        return [(args[0].database_id, normalize_question(args[1]))]

    def cache_key(args, kwargs):
        key = args[1]
        return [(key.database_id, key.question)]

    def cache_extra(args, kwargs, result):
        return {"hit": result is not None}

    def frame_extra(args, kwargs, result):
        return {"type": args[1].get("type")}

    _patch_method(tracer, routes, "handle", "routes.handle")
    _patch_method(tracer, TranslationService, "translate", "service.translate",
                  keys=request_key)
    _patch_method(tracer, ClusterService, "translate", "cluster.translate",
                  keys=request_key)
    _patch_method(tracer, TranslationCache, "get", "cache.get",
                  keys=cache_key, extra=cache_extra)
    _patch_method(tracer, DatabaseRuntime, "translate_batch",
                  "runtime.translate_batch", keys=batch_keys,
                  batch=lambda a, k: len(a[1]))
    _patch_method(tracer, DatabaseRuntime, "translate_fallback",
                  "runtime.translate_fallback", keys=fallback_key)
    _patch_method(tracer, Preprocessor, "run", "preprocess.run")
    _patch_method(tracer, CandidateGenerator, "generate", "candidates.generate")
    _patch_method(tracer, CandidateValidator, "validate", "candidates.validate")
    _patch_method(tracer, ValueNetModel, "encode_batch", "model.encode_batch",
                  batch=lambda a, k: len(a[1]), tensors=True)
    _patch_method(tracer, ValueNetModel, "decode_encoded",
                  "model.decode_encoded", failures=ReproError, tensors=True)
    _patch_method(tracer, SqlBuilder, "build", "postprocess.build")
    _patch_method(tracer, protocol.FrameConnection, "send", "ipc.send",
                  sent=True, extra=frame_extra)

    original_execute = executor.execute_with_budget
    traced_execute = tracer.wrap(original_execute, "executor.execute",
                                 failures=Exception)
    _replace_everywhere(original_execute, traced_execute)

    # Bytes through FrameConnection.send: its single gather write.
    original_sendmsg = protocol._sendmsg_all

    def counted_sendmsg(sock, views):
        tracer.count_sent(sum(len(view) for view in views))
        return original_sendmsg(sock, views)

    protocol._sendmsg_all = counted_sendmsg

    if count_tensors:
        original_init = Tensor.__init__

        def counted_init(self, *args, **kwargs):
            tracer.count_tensor()
            original_init(self, *args, **kwargs)

        Tensor.__init__ = counted_init

    # A cluster worker leaves through os._exit (multiprocessing), so it
    # writes its spans when its frame loop returns.
    original_run = WorkerProcess.run

    def run_and_dump(self):
        try:
            return original_run(self)
        finally:
            tracer.dump(trace_dir)

    WorkerProcess.run = run_and_dump
    os.register_at_fork(after_in_child=tracer.reset)
