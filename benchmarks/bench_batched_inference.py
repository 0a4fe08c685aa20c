"""Batched-inference benchmark: fused encoder + no-grad fast path.

Measures the two speedups the serving micro-batcher relies on:

* ``encode_batch`` of 2, 4 or 8 questions versus one batch-1 call per
  question (the same fused path) — the acceptance bar is > 1x at every
  size;
* ``inference_mode`` versus grad-mode forwards — skipping backward
  closure construction and graph bookkeeping on the same computation.

Unlike the paper-figure benchmarks, this file does not use the trained
session fixtures: an untrained model exercises exactly the same numeric
path, so the module builds its own small corpus and model and stays
runnable standalone::

    PYTHONPATH=src python benchmarks/bench_batched_inference.py
"""

from __future__ import annotations

import time

import repro  # noqa: F401  (must precede numpy: sets the BLAS thread default)

import numpy as np
import pytest

from _util import print_table
from repro.config import ModelConfig
from repro.model import ValueNetModel, build_vocabulary
from repro.nn import Tensor, inference_mode
from repro.pipeline import ValueNetPipeline
from repro.preprocessing import Preprocessor
from repro.spider import CorpusConfig, generate_corpus

BENCH_MODEL = ModelConfig(
    dim=64, num_layers=2, num_heads=4, ff_dim=128, summary_hidden=32,
    decoder_hidden=64, pointer_hidden=48, dropout=0.0, word_dropout=0.0,
)
BATCH_SIZES = (2, 4, 8)
pytestmark = pytest.mark.slow


def _build():
    corpus = generate_corpus(CorpusConfig(train_per_domain=8, dev_per_domain=2))
    vocab = build_vocabulary(
        [e.question for e in corpus.train],
        [corpus.schema(d) for d in corpus.train_domains],
        [str(v) for e in corpus.train for v in e.values],
        vocab_size=600,
    )
    model = ValueNetModel(vocab, BENCH_MODEL)
    model.eval()
    domain = corpus.train_domains[0]
    db = corpus.database(domain)
    questions = [e.question for e in corpus.train if e.db_id == domain][:max(BATCH_SIZES)]
    preprocessor = Preprocessor(db)
    pres = [preprocessor.run(q) for q in questions]
    return corpus, model, db, questions, pres


def _best_of(repeats: int, *fns) -> list[float]:
    # Alternate within a round: a slow spell on a shared VM hits every side.
    best = [float("inf")] * len(fns)
    for _ in range(repeats):
        for i, fn in enumerate(fns):
            start = time.perf_counter()
            fn()
            best[i] = min(best[i], time.perf_counter() - start)
    return best


@pytest.fixture(scope="module")
def setup():
    corpus, model, db, questions, pres = _build()
    yield model, db, questions, pres
    corpus.close()


def test_bench_batched_encode_speedup(setup):
    model, db, questions, pres = setup
    rows = []
    speedups = {}
    for size in BATCH_SIZES:
        batch = pres[:size]

        def sequential():
            for pre in batch:
                model.encode_batch([pre], db.schema)

        def batched():
            model.encode_batch(batch, db.schema)

        sequential()  # warm caches (schema features, position encodings)
        batched()
        seq, bat = _best_of(5, sequential, batched)
        speedups[size] = seq / bat
        rows.append((
            f"batch {size}",
            f"{1000.0 * seq:.1f} ms",
            f"{1000.0 * bat:.1f} ms",
            f"{speedups[size]:.2f}x",
        ))
    print_table(
        "Batched encode vs one call per question (same inputs)",
        rows,
        ("batch", "sequential", "batched", "speedup"),
    )
    for size, speedup in speedups.items():
        assert speedup > 1.0, (
            f"batch-{size} encode must beat per-question calls, got {speedup:.2f}x"
        )


def test_bench_pipeline_translate_batch(setup):
    model, db, questions, pres = setup
    pipeline = ValueNetPipeline(model, db)

    def sequential():
        for question in questions:
            pipeline.translate(question)

    def batched():
        pipeline.translate_batch(questions)

    sequential()
    batched()
    seq, bat = _best_of(3, sequential, batched)
    print_table(
        f"End-to-end pipeline, {len(questions)} questions",
        [(
            f"{1000.0 * seq:.1f} ms",
            f"{1000.0 * bat:.1f} ms",
            f"{seq / bat:.2f}x",
        )],
        ("sequential translate", "translate_batch", "speedup"),
    )
    # Decoding stays sequential, so the end-to-end win is smaller than
    # the encoder-only win — but the batched path must never be slower.
    assert bat <= seq * 1.05


def test_bench_inference_mode_overhead(setup):
    model, db, questions, pres = setup
    rng = np.random.default_rng(0)
    x = Tensor(rng.normal(size=(64, BENCH_MODEL.dim)), requires_grad=True)

    def forward():
        return model.encoder.transformer(x).sum()

    def grad_mode():
        forward()

    def no_grad():
        with inference_mode():
            forward()

    grad_mode()
    no_grad()
    grad, fast = _best_of(5, grad_mode, no_grad)
    print_table(
        "Transformer forward (64 x dim), grad vs inference_mode",
        [(f"{1000.0 * grad:.2f} ms", f"{1000.0 * fast:.2f} ms",
          f"{grad / fast:.2f}x")],
        ("with graph", "inference_mode", "speedup"),
    )
    with inference_mode():
        out = forward()
    assert out._parents == ()
    # Skipping closure construction must not cost anything.
    assert fast <= grad * 1.05


if __name__ == "__main__":
    corpus, model, db, questions, pres = _build()
    setup_value = (model, db, questions, pres)
    test_bench_batched_encode_speedup(setup_value)
    test_bench_pipeline_translate_batch(setup_value)
    test_bench_inference_mode_overhead(setup_value)
    corpus.close()
