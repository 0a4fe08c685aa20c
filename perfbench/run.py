"""End-to-end ``/translate`` benchmark on a trained ValueNet model.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

A run trains (once, cached) a small deterministic model, builds the
seed's dev databases and questions, serves them with the unmodified
``repro serve`` CLI in a subprocess, and drives ``POST /translate`` from
this process over keep-alive connections.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` repeats the workload against a server
started through ``traced_serve.py`` and reports per-layer metrics taken
from its spans, with the tracing overhead.  The last stdout line is one
JSON object; a failed correctness check sets ``"correct": false`` and
the exit code to 1.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from inputs import (  # noqa: E402
    GoldOracle,
    build_inputs,
    normalize,
    poisson_arrivals,
    zipf_draws,
)
from loadgen import Connections, payload_for, run_closed, run_open  # noqa: E402
from server import Server  # noqa: E402
from spans import (  # noqa: E402
    ClientRequest,
    layer_metrics,
    load_spans,
    tensors_per_question,
)

WORK = HERE / ".work"
MAX_CONNECTIONS = min(2, os.cpu_count() or 1)


@dataclass(frozen=True)
class Workload:
    name: str
    loop: str                   # "closed" or "open"
    connections: int
    beam_size: int
    hot: bool                   # Zipf over a filled hot set, else unique keys
    serve_args: tuple[str, ...] = ()
    rate_rps: float = 0.0       # open loop only


# Open-loop rate for beam-3 traffic: about 60% of the 43 req/s that two
# closed-loop connections sustain on the trained model (2 cores), so
# arrivals collide without the queue growing.
OPEN_RATE_RPS = 25.0
# Zipf over 64 hot questions (the cache holds 256).  Execution cost
# differs a lot between questions; a steeper exponent or a smaller set
# lets two or three questions set a run's mean cost, and which ones
# depends on the seed.
HOT_SET = 64
HOT_CANDIDATES = 96          # dev questions tried for the hot set
ZIPF_EXPONENT = 0.6
WARMUP = 8                   # unique questions sent before timing
SETUPS = 3                   # server set-ups per untraced run; setup_s is their median
QUESTIONS_PER_DOMAIN = 400   # dev questions generated per dev database
DIGEST_PREFIX = 200          # miss_serial responses covered by the digest
TENSOR_SAMPLE = 32           # questions whose Tensor constructions are counted
# Per-request residuals and layer self times must sum to the client mean.
ACCOUNTING_TOLERANCE = 0.05
# Answer quality on the unique-key workloads, with the trained model.  Seed
# runs read 0.03-0.07 degraded and 0.18-0.24 accurate.  A model path that
# always falls back reads 1.0 degraded (and 0.14 accurate on seed 1); a
# model that answers without falling back, but wrongly, drops accuracy.
DEGRADED_CEILING = 0.15
ACCURACY_FLOOR = 0.12
# The open-loop server must keep up with its arrivals.
OPEN_RATE_KEPT = 0.97

WORKLOADS = {w.name: w for w in (
    Workload("miss_serial", "closed", 1, 1, False),
    Workload("open_beam3", "open", 2, 3, False, rate_rps=OPEN_RATE_RPS),
    # The hot workloads use one connection.  With two, the load generator
    # and the server keep both cores busy, the host throttles the machine
    # (10-30% CPU steal) and throughput swings twofold from run to run.
    Workload("hot_pair", "closed", 1, 1, True),
    Workload("cluster_hot", "closed", 1, 1, True, serve_args=("--workers", "1")),
)}

E2E_UNITS = {
    "setup_s": "s", "latency_p50_ms": "ms", "latency_p99_ms": "ms",
    "throughput_rps": "req/s", "server_cpu_ms_per_req": "ms",
    "server_peak_rss_mb": "MB", "exec_accuracy": "ratio",
    "degraded_share": "ratio", "error_share": "ratio",
}


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# --------------------------------------------------------------- statistics

def tail_percentile(values: list[float]) -> tuple[float, float]:
    """``(p, value)``: the highest percentile, capped at 99, with at least
    ten samples above it (nearest rank)."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return 1.0, ordered[-1]
    rank = min(-(-99 * n // 100), n - 10)   # 1-based; ceil(0.99 n) at most
    return rank / n, ordered[rank - 1]


# ------------------------------------------------------------------- phases

@dataclass
class Phase:
    records: list
    items: list                  # Question per record item index
    wall_s: float
    cpu_s: float
    rss_mb: float
    setup_s: list[float]
    connections_max: int
    steal_share: float           # host CPU steal over the timed phase
    fill: dict = field(default_factory=dict)   # hot: key -> fill sql


def _post_serial(url, questions, beam_size, counter):
    payloads = [payload_for(q.database_id, q.question, beam_size) for q in questions]
    return run_closed(url, payloads, [list(range(len(payloads)))], 1e9, counter)


def run_phase(workload: Workload, inputs, model_dir: Path, run_dir: Path,
              seed: int, seconds: float, setups: int,
              trace_dir: Path | None = None) -> Phase:
    def make_server(traced: bool) -> Server:
        return Server(ROOT, run_dir, inputs.databases, model_dir,
                      list(workload.serve_args),
                      trace_dir=trace_dir if traced else None)

    setup_times = []
    for _ in range(setups - 1):
        server = make_server(False)
        try:
            setup_times.append(server.start())
        finally:
            server.stop()
    server = make_server(True)
    counter = Connections()
    connections = min(workload.connections, MAX_CONNECTIONS)
    try:
        setup_times.append(server.start())
        pool = inputs.questions
        fill: dict = {}
        if workload.hot:
            answers = _post_serial(server.url, pool[:HOT_CANDIDATES], 1, counter)
            hot = []
            for record in answers:
                body = _parse(record)
                # Degraded or failed answers are never cached, so a question
                # the fallback answers cannot be hot.
                if body is not None and not body["degraded"] and body["error"] is None:
                    question = pool[record.item]
                    hot.append(question)
                    fill[(question.database_id, normalize(question.question))] = body["sql"]
            items = hot[:HOT_SET]
            if not items:
                raise RuntimeError("no dev question was answered cacheably")
            rng = random.Random(seed)
            per_connection = max(1000, int(seconds * 5000))
            picks = [zipf_draws(per_connection, len(items), ZIPF_EXPONENT, rng)
                     for _ in range(connections)]
        else:
            _post_serial(server.url, pool[-WARMUP:], workload.beam_size, counter)
            items = pool[:-WARMUP]
            picks = [list(range(len(items)))]
        payloads = [payload_for(q.database_id, q.question, workload.beam_size)
                    for q in items]
        cpu0 = server.cpu_seconds()
        steal0 = host_steal()
        start = time.monotonic_ns()
        if workload.loop == "open":
            offsets = poisson_arrivals(workload.rate_rps, seconds, random.Random(seed))
            if len(offsets) > len(items):
                raise RuntimeError("question pool smaller than the arrival schedule")
            records = run_open(server.url, payloads[:len(offsets)], offsets,
                               connections, counter)
            start = min(r.due_ns for r in records)
        else:
            records = run_closed(server.url, payloads, picks, seconds, counter)
        end = max(r.recv_ns for r in records)
        cpu1 = server.cpu_seconds()
        steal1 = host_steal()
        rss = server.peak_rss_mb()
    finally:
        server.stop()
    steal = (steal1[0] - steal0[0]) / max(1, steal1[1] - steal0[1])
    return Phase(records, items, (end - start) / 1e9, cpu1 - cpu0, rss,
                 setup_times, counter.max_open, steal, fill)


def host_steal() -> tuple[int, int]:
    """``(steal, total)`` CPU ticks of the whole machine (``/proc/stat``):
    time the hypervisor ran someone else while this machine wanted to run."""
    with open("/proc/stat") as handle:
        fields = [int(v) for v in handle.readline().split()[1:]]
    return fields[7], sum(fields[:8])


def _parse(record) -> dict | None:
    """The response body when it is a well-formed 200 answer, else None."""
    if record.status != 200:
        return None
    try:
        body = json.loads(record.body)
    except ValueError:
        return None
    if not isinstance(body, dict):
        return None
    well_formed = (
        isinstance(body.get("question"), str)
        and isinstance(body.get("database_id"), str)
        and (body.get("sql") is None or isinstance(body.get("sql"), str))
        and (body.get("rows") is None or isinstance(body.get("rows"), list))
        and (body.get("error") is None or isinstance(body.get("error"), str))
        and isinstance(body.get("degraded"), bool)
        and isinstance(body.get("cache_hit"), bool)
        and body.get("engine") in ("model", "heuristic", "cache")
    )
    return body if well_formed else None


# ------------------------------------------------------------------ results

@dataclass
class Checks:
    failures: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def require(self, ok: bool, message: str) -> None:
        (self.notes if ok else self.failures).append(message)


def evaluate(workload: Workload, phase: Phase, oracle, checks: Checks,
             trained: bool) -> dict:
    """End-to-end metrics of one phase, checking every response; answer
    quality is checked only for a ``trained`` (full-recipe) model."""
    attempted = len(phase.records)
    failed = degraded = correct_rows = hits = malformed = 0
    for record in phase.records:
        question = phase.items[record.item]
        if record.status != 200:
            failed += 1
            continue
        body = _parse(record)
        if body is None or body["question"] != question.question \
                or body["database_id"] != question.database_id:
            malformed += 1
            failed += 1
            continue
        if body["error"] is not None:
            failed += 1
        degraded += body["degraded"]
        hits += body["cache_hit"]
        correct_rows += oracle.matches(question, body["rows"])
    checks.require(malformed == 0, f"{malformed} malformed 200 bodies")
    ok = attempted - failed
    latencies = [r.latency_ms for r in phase.records]
    tail_p, tail = tail_percentile(latencies)
    hit_ratio = hits / attempted
    if workload.hot:
        checks.require(hit_ratio >= 0.95, f"cache hit ratio {hit_ratio:.3f} (>= 0.95)")
    else:
        checks.require(hit_ratio <= 0.01, f"cache hit ratio {hit_ratio:.3f} (~0)")
    checks.require(phase.connections_max <= MAX_CONNECTIONS,
                   f"{phase.connections_max} connections at most (<= {MAX_CONNECTIONS})")
    metrics = {
        "setup_s": statistics.median(phase.setup_s),
        "latency_p50_ms": statistics.median(latencies),
        "latency_p99_ms": tail,
        "throughput_rps": ok / phase.wall_s,
        "server_cpu_ms_per_req": 1000.0 * phase.cpu_s / max(ok, 1),
        "server_peak_rss_mb": phase.rss_mb,
        "exec_accuracy": correct_rows / attempted,
        "degraded_share": degraded / attempted,
        "error_share": failed / attempted,
    }
    detail = {
        "attempted": attempted, "failed": failed, "tail_p": tail_p,
        "hit_ratio": hit_ratio, "setups": phase.setup_s,
    }
    checks.notes.append(f"host CPU steal {100 * phase.steal_share:.1f}% "
                        "of machine time over the timed phase")
    if trained and not workload.hot:
        checks.require(
            metrics["degraded_share"] <= DEGRADED_CEILING,
            f"degraded share {metrics['degraded_share']:.3f} (<= {DEGRADED_CEILING})")
        checks.require(
            metrics["exec_accuracy"] >= ACCURACY_FLOOR,
            f"execution accuracy {metrics['exec_accuracy']:.3f} (>= {ACCURACY_FLOOR})")
    if workload.loop == "open":
        kept = metrics["throughput_rps"] / workload.rate_rps
        checks.require(kept >= OPEN_RATE_KEPT,
                       f"throughput {kept:.3f} of the {workload.rate_rps:g} req/s "
                       f"schedule (>= {OPEN_RATE_KEPT})")
        late = [(r.send_ns - r.due_ns) / 1e6 for r in phase.records]
        detail["late_p50_ms"] = statistics.median(late)
        detail["late_p99_ms"] = tail_percentile(late)[1]
        checks.notes.append(
            f"generator lateness p50 {detail['late_p50_ms']:.3f} ms, "
            f"tail {detail['late_p99_ms']:.3f} ms")
    return {"metrics": metrics, "detail": detail}


def output_digest(workload: Workload, phase: Phase) -> tuple[str, int]:
    """sha256 over ``(database_id, question, sql)``: the hot set's fill
    answers, or the first ``DIGEST_PREFIX`` unique-key answers in order."""
    if workload.hot:
        hot = {(i.database_id, normalize(i.question)) for i in phase.items}
        triples = sorted((db, q, sql) for (db, q), sql in phase.fill.items()
                         if (db, q) in hot)
    else:
        ordered = sorted(phase.records, key=lambda r: r.item)[:DIGEST_PREFIX]
        triples = []
        for record in ordered:
            body = _parse(record)
            question = phase.items[record.item]
            triples.append((question.database_id, question.question,
                            body["sql"] if body else None))
    blob = json.dumps(triples).encode()
    return hashlib.sha256(blob).hexdigest(), len(triples)


def check_hot_consistency(phase: Phase, checks: Checks) -> None:
    """Every timed answer to a hot question repeats its fill answer."""
    mismatched = 0
    for record in phase.records:
        body = _parse(record)
        question = phase.items[record.item]
        key = (question.database_id, normalize(question.question))
        if body is not None and body["sql"] != phase.fill.get(key):
            mismatched += 1
    checks.require(mismatched == 0,
                   f"{mismatched} hot answers differ from their fill answer")


def check_digest(workload: Workload, phase: Phase, seed: int, code_key: str,
                 checks: Checks) -> None:
    if workload.name not in ("miss_serial", "hot_pair"):
        return
    digest, count = output_digest(workload, phase)
    store = WORK / "digests.json"
    known = json.loads(store.read_text()) if store.exists() else {}
    key = f"{workload.name}:{seed}:{count}:{code_key}"
    previous = known.get(key)
    checks.require(previous in (None, digest),
                   f"output digest {digest[:12]} over {count} answers "
                   + ("(first run of this code)" if previous is None
                      else f"vs earlier run {previous[:12]}"))
    known[key] = digest
    store.write_text(json.dumps(known, indent=1, sort_keys=True))


def source_key() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


# --------------------------------------------------------------- the trace

def traced_layers(workload: Workload, phase: Phase, trace_dir: Path,
                  checks: Checks) -> dict:
    requests = [
        ClientRequest((phase.items[r.item].database_id,
                       normalize(phase.items[r.item].question)),
                      r.send_ns, r.recv_ns)
        for r in phase.records if r.status == 200
    ]
    result = layer_metrics(load_spans(trace_dir), requests)
    checks.require(result["matched"] == len(requests),
                   f"{result['matched']}/{len(requests)} timed requests matched to spans")
    gap = abs(result["accounted_ms"] - result["client_mean_ms"])
    tolerance = ACCOUNTING_TOLERANCE * result["client_mean_ms"]
    accounted = (f"layers account for {result['accounted_ms']:.3f} of "
                 f"{result['client_mean_ms']:.3f} ms mean client latency "
                 f"(tolerance {ACCOUNTING_TOLERANCE:.0%})")
    if workload.name in ("miss_serial", "hot_pair"):
        checks.require(gap <= tolerance, accounted)
    else:
        checks.notes.append(accounted)
    if workload.hot:
        encodes = result["metrics"]["encode.calls"]
        checks.require(encodes == result["cache_misses"],
                       f"encode.calls {encodes:.0f} == cache misses {result['cache_misses']}")
    return result



def count_tensors(workload: Workload, inputs, phase: Phase, model_dir: Path,
                  run_dir: Path) -> float:
    """Tensor constructions per question on the workload's first timed
    questions, from a separate server that counts them (counting costs
    about a microsecond per tensor, so the timed trace does not)."""
    count_dir = run_dir / "count"
    count_dir.mkdir()
    server = Server(ROOT, run_dir, inputs.databases, model_dir,
                    list(workload.serve_args), trace_dir=count_dir,
                    count_tensors=True)
    counter = Connections()
    try:
        server.start()
        _post_serial(server.url, inputs.questions[-WARMUP:], workload.beam_size, counter)
        after = time.monotonic_ns()
        _post_serial(server.url, phase.items[:TENSOR_SAMPLE], workload.beam_size, counter)
    finally:
        server.stop()
    return tensors_per_question(load_spans(count_dir), after)


# -------------------------------------------------------------------- main

def run_workload(workload: Workload, seed: int, seconds: float, trace: bool,
                 model_dir: Path, code_key: str, trained: bool) -> dict:
    run_dir = WORK / f"run-{os.getpid()}-{workload.name}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    checks = Checks()
    try:
        inputs = build_inputs(seed, run_dir / "db", QUESTIONS_PER_DOMAIN)
        oracle = GoldOracle(inputs.databases)
        try:
            phase = run_phase(workload, inputs, model_dir, run_dir, seed,
                              seconds, 1 if trace else SETUPS)
            e2e = evaluate(workload, phase, oracle, checks, trained)
            if workload.hot:
                check_hot_consistency(phase, checks)
            check_digest(workload, phase, seed, code_key, checks)
            result = {"workload": workload, "e2e": e2e, "checks": checks}
            if trace:
                trace_dir = run_dir / "trace"
                trace_dir.mkdir()
                traced = run_phase(workload, inputs, model_dir, run_dir, seed,
                                   seconds, 1, trace_dir=trace_dir)
                traced_checks = Checks()
                traced_e2e = evaluate(workload, traced, oracle, traced_checks, trained)
                if workload.hot:
                    check_hot_consistency(traced, traced_checks)
                layers = traced_layers(workload, traced, trace_dir, traced_checks)
                checks.notes += [f"traced run: {n}" for n in traced_checks.notes]
                checks.failures += [f"traced run: {f}" for f in traced_checks.failures]
                layers["metrics"]["nn.tensors_per_question"] = (
                    0.0 if workload.hot else
                    count_tensors(workload, inputs, traced, model_dir, run_dir))
                layers["metrics"]["trace.overhead_p50_ms"] = (
                    traced_e2e["metrics"]["latency_p50_ms"]
                    - e2e["metrics"]["latency_p50_ms"])
                result["layers"] = layers
        finally:
            oracle.close()
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    return result


def report(result: dict) -> None:
    """Human-readable lines (stdout, before the JSON line)."""
    workload: Workload = result["workload"]
    e2e = result["e2e"]
    detail = e2e["detail"]
    shape = (f"open loop {workload.rate_rps:g} req/s" if workload.loop == "open"
             else "closed loop")
    print(f"== {workload.name}: {shape}, {min(workload.connections, MAX_CONNECTIONS)} "
          f"connection(s), beam {workload.beam_size}, "
          f"{detail['attempted']} attempted, {detail['failed']} failed")
    for name, value in e2e["metrics"].items():
        label = name
        if name == "latency_p99_ms":
            label += f" (p{100 * detail['tail_p']:.2f} of n={detail['attempted']})"
        if name == "setup_s":
            label += f" (median of {len(detail['setups'])})"
        print(f"  {label:<44} {value:12.4f} {E2E_UNITS[name]}")
    layers = result.get("layers")
    if layers:
        print("  per-layer (traced run):")
        for name, value in layers["metrics"].items():
            print(f"    {name:<42} {value:12.4f}")
        print("  latency breakdown, mean ms per request (batch spans counted per request):")
        total = layers["client_mean_ms"] or 1.0
        for name, value in layers["latency_view_ms"].items():
            if value:
                print(f"    {name:<42} {value:9.3f}  {100 * value / total:5.1f}%")
    checks: Checks = result["checks"]
    for note in checks.notes:
        print(f"  ok: {note}")
    for failure in checks.failures:
        print(f"  FAILED: {failure}")


def final_json(result: dict, trace: bool, spec: dict) -> dict:
    checks: Checks = result["checks"]
    detail = result["e2e"]["detail"]
    if trace:
        wanted = spec["per_layer"]
        values = result["layers"]["metrics"]
    else:
        wanted = spec["end_to_end"]
        values = result["e2e"]["metrics"]
    return {
        "correct": not checks.failures,
        "attempted": detail["attempted"],
        "failed": detail["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="all four workloads for one second each, traced, "
                             "on a tiny model")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required (or --smoke)")
    if not (ROOT / "src" / "repro" / "__main__.py").exists():
        print(f"no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from checkpoint import FULL, TINY, ensure_checkpoint

    WORK.mkdir(exist_ok=True)
    recipe = TINY if args.smoke else FULL
    model_dir, train_s = ensure_checkpoint(recipe, ROOT / "src", WORK / "models")
    print(f"model checkpoint {model_dir.name}: "
          + (f"trained in {train_s:.1f} s (not part of setup_s)" if train_s is not None
             else "cached"))
    code_key = f"{model_dir.name}:{source_key()}"
    spec = benchmark_spec()
    if args.smoke:
        ok = True
        for workload in WORKLOADS.values():
            result = run_workload(workload, args.seed, 1.0, True, model_dir,
                                  code_key, trained=False)
            report(result)
            ok &= not result["checks"].failures
        print(json.dumps({"smoke": "ok" if ok else "failed"}))
        return 0 if ok else 1
    workload = WORKLOADS[args.workload]
    result = run_workload(workload, args.seed, args.seconds, bool(args.trace),
                          model_dir, code_key, trained=True)
    report(result)
    final = final_json(result, bool(args.trace), spec)
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
