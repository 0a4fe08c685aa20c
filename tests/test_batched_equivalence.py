"""Differential tests: the batched inference path must be indistinguishable
from the sequential one, and the one encoder from a per-span reference.

Covers the layers of the fast path: ``inference_mode`` (no autograd
graph, identical numerics), ``ValueNetModel.encode_batch`` (padded +
masked fused forward == batch-1 forwards), and the pipeline's
``translate_batch`` (identical final SQL and errors).  The encoder's
oracle is :func:`reference_encode` — one unbatched transformer forward and
one BiLSTM run per span, over the module's own weights — which locks the
batch-1 forward, training gradients and word dropout's random draws.
"""

from __future__ import annotations

import copy
import dataclasses

import numpy as np
import pytest

from repro.config import ModelConfig
from repro.errors import ModelError
from repro.model import SchemaFeatureCache, ValueNetModel, build_vocabulary, featurize
from repro.model.encoder import EncodedExample
from repro.nn import Tensor, concat, inference_mode, is_grad_enabled, stack
from repro.pipeline import ValueNetPipeline
from repro.preprocessing import Preprocessor
from repro.spider import CorpusConfig, generate_corpus

TINY = ModelConfig(
    dim=32, num_layers=1, num_heads=2, ff_dim=48, summary_hidden=16,
    decoder_hidden=32, pointer_hidden=24, dropout=0.0, word_dropout=0.0,
)

ENCODED_FIELDS = ("question", "columns", "tables", "values", "summary")


@pytest.fixture(scope="module")
def corpus():
    corpus = generate_corpus(CorpusConfig(train_per_domain=8, dev_per_domain=4))
    yield corpus
    corpus.close()


def make_model(corpus, config: ModelConfig = TINY) -> ValueNetModel:
    vocab = build_vocabulary(
        [e.question for e in corpus.train],
        [corpus.schema(d) for d in corpus.train_domains],
        [str(v) for e in corpus.train for v in e.values],
        vocab_size=600,
    )
    return ValueNetModel(vocab, config)


@pytest.fixture(scope="module")
def model(corpus):
    return make_model(corpus)


@pytest.fixture(scope="module")
def domain_examples(corpus):
    """(database, preprocessed questions) for the first training domain."""
    domain = corpus.train_domains[0]
    db = corpus.database(domain)
    questions = [e.question for e in corpus.train if e.db_id == domain]
    preprocessor = Preprocessor(db)
    return db, [preprocessor.run(q) for q in questions]


@pytest.fixture(scope="module")
def fixture_questions(corpus):
    """(schema, preprocessed question) for every train and dev question."""
    examples = corpus.train + corpus.dev
    out = []
    for db_id in dict.fromkeys(e.db_id for e in examples):
        preprocessor = Preprocessor(corpus.database(db_id))
        out += [
            (preprocessor.schema, preprocessor.run(e.question))
            for e in examples if e.db_id == db_id
        ]
    return out


def max_abs_diff(a, b) -> float:
    if a is None and b is None:
        return 0.0
    assert (a is None) == (b is None)
    assert a.shape == b.shape
    return float(np.max(np.abs(a.data - b.data)))


def reference_summarize(summarizer, span: Tensor) -> Tensor:
    """BiLSTM summary of one (n, d_in) span, one cell call per token."""
    forward_state = summarizer.forward_cell.initial_state()
    for t in range(span.shape[0]):
        forward_state = summarizer.forward_cell(span[t], forward_state)
    backward_state = summarizer.backward_cell.initial_state()
    for t in range(span.shape[0] - 1, -1, -1):
        backward_state = summarizer.backward_cell(span[t], backward_state)
    combined = concat([forward_state[0], backward_state[0]], axis=-1)
    return (combined @ summarizer.projection).tanh()


def reference_encode(encoder, inp) -> EncodedExample:
    """Encode one input unbatched, summarizing each span on its own."""
    piece_ids = inp.piece_ids
    if encoder.training and encoder.config.word_dropout > 0:
        keep = encoder._word_dropout_rng.random(len(piece_ids))
        piece_ids = [
            pid if keep[i] >= encoder.config.word_dropout else 1  # [UNK]
            for i, pid in enumerate(piece_ids)
        ]
    embedded = (
        encoder.piece_embedding(piece_ids)
        + encoder.segment_embedding(inp.segment_ids)
        + encoder.hint_embedding(inp.hint_ids)
        + encoder.type_embedding(inp.type_ids)
        + Tensor(encoder._positions(inp.length) * 0.1)
    )
    contextual = encoder.transformer(embedded)
    question, columns, tables, values = (
        stack([
            reference_summarize(encoder.summarizer, contextual[s.start:s.end])
            for s in spans
        ]) if spans else None
        for spans in (
            inp.question_spans, inp.column_spans, inp.table_spans, inp.value_spans
        )
    )
    if inp.column_hints:
        columns = columns + encoder.output_column_hint(inp.column_hints)
    if inp.table_hints:
        tables = tables + encoder.output_table_hint(inp.table_hints)
    if values is not None and inp.value_located:
        values = values + encoder.output_value_located(inp.value_located)
    return EncodedExample(question, columns, tables, values, contextual[0])


class TestBatchedEncoderEquivalence:
    @pytest.mark.parametrize("batch_size", [1, 2, 8])
    def test_encode_batch_matches_sequential(
        self, model, domain_examples, batch_size
    ):
        db, pres = domain_examples
        pres = pres[:batch_size]
        assert len(pres) == batch_size
        model.eval()
        sequential = [model.encode(pre, db.schema) for pre in pres]
        batched = model.encode_batch(pres, db.schema)
        assert len(batched) == batch_size
        for seq, bat in zip(sequential, batched):
            for name in ENCODED_FIELDS:
                diff = max_abs_diff(getattr(seq, name), getattr(bat, name))
                assert diff < 1e-6, f"{name} differs by {diff}"

    def test_mixed_lengths_pad_correctly(self, model, domain_examples):
        # Sort by length so the batch mixes the shortest and longest
        # sequences — padding is maximally exercised.
        db, pres = domain_examples
        inputs = [featurize(p, db.schema, model.vocab) for p in pres]
        order = np.argsort([inp.length for inp in inputs])
        mixed = [pres[order[0]], pres[order[-1]], pres[order[len(order) // 2]]]
        lengths = {featurize(p, db.schema, model.vocab).length for p in mixed}
        assert len(lengths) > 1, "corpus questions are all the same length"
        model.eval()
        sequential = [model.encode(pre, db.schema) for pre in mixed]
        batched = model.encode_batch(mixed, db.schema)
        for seq, bat in zip(sequential, batched):
            for name in ENCODED_FIELDS:
                assert max_abs_diff(getattr(seq, name), getattr(bat, name)) < 1e-6

    def test_decode_parity_including_errors(self, model, domain_examples):
        db, pres = domain_examples

        def outcome(pre, encoded):
            try:
                return repr(model.decode_encoded(encoded, pre, db.schema))
            except ModelError as exc:
                return f"ModelError: {exc}"

        model.eval()
        sequential = [model.encode(pre, db.schema) for pre in pres]
        batched = model.encode_batch(pres, db.schema)
        for pre, seq, bat in zip(pres, sequential, batched):
            assert outcome(pre, seq) == outcome(pre, bat)

    def test_pipeline_translate_batch_matches_translate(self, model, corpus):
        domain = corpus.train_domains[0]
        db = corpus.database(domain)
        questions = [e.question for e in corpus.train if e.db_id == domain]
        pipeline = ValueNetPipeline(model, db)
        sequential = [pipeline.translate(q) for q in questions]
        batched = pipeline.translate_batch(questions)
        assert len(batched) == len(sequential)
        for seq, bat in zip(sequential, batched):
            assert bat.sql == seq.sql
            assert bat.error == seq.error

    def test_empty_and_singleton_batches(self, model, domain_examples):
        db, pres = domain_examples
        assert model.encode_batch([], db.schema) == []
        pipeline = ValueNetPipeline(model, db)
        assert pipeline.translate_batch([]) == []
        [only] = pipeline.translate_batch([pres[0].question])
        assert only.sql == pipeline.translate(pres[0].question).sql

    def test_batch_outputs_carry_no_graph(self, model, domain_examples):
        db, pres = domain_examples
        for encoded in model.encode_batch(pres[:3], db.schema):
            assert not encoded.summary.requires_grad
            assert encoded.summary._parents == ()


class TestPerSpanReference:
    def test_batch_one_forward_matches_reference(self, model, fixture_questions):
        model.eval()
        with_values = 0
        for schema, pre in fixture_questions:
            [fused] = model.encode_batch([pre], schema)
            with inference_mode():
                reference = reference_encode(
                    model.encoder, featurize(pre, schema, model.vocab)
                )
            for name in ENCODED_FIELDS:
                diff = max_abs_diff(getattr(fused, name), getattr(reference, name))
                assert diff < 1e-12, f"{pre.question!r}: {name} differs by {diff}"
            with_values += reference.values is not None
        assert with_values > 0, "no fixture question has value candidates"

    def test_training_gradients_match_reference(self, model, fixture_questions):
        encoder = model.encoder
        rng = np.random.default_rng(5)
        model.train()
        try:
            for schema, pre in fixture_questions[::7]:
                outputs = [
                    model.encode(pre, schema),
                    reference_encode(encoder, featurize(pre, schema, model.vocab)),
                ]
                # A fixed random linear read-out of every output field.
                weights = {
                    name: Tensor(rng.normal(size=getattr(outputs[0], name).shape))
                    for name in ENCODED_FIELDS
                    if getattr(outputs[0], name) is not None
                }
                grads = []
                for encoded in outputs:
                    encoder.zero_grad()
                    sum(
                        (getattr(encoded, name) * w).sum()
                        for name, w in weights.items()
                    ).backward()
                    grads.append([
                        np.zeros_like(p.data) if p.grad is None else p.grad.copy()
                        for p in encoder.parameters()
                    ])
                for (name, _), got, want in zip(encoder.named_parameters(), *grads):
                    diff = float(np.max(np.abs(got - want)))
                    assert diff < 1e-10, f"{name} gradient differs by {diff}"
        finally:
            encoder.zero_grad()
            model.eval()

    def test_word_dropout_consumes_reference_draws(self, corpus, fixture_questions):
        model = make_model(corpus, dataclasses.replace(TINY, word_dropout=0.3))
        encoder = model.encoder.train()
        inputs = [
            featurize(pre, schema, model.vocab)
            for schema, pre in (fixture_questions[i] for i in (0, 5, 11))
        ]
        assert len({inp.length for inp in inputs}) > 1, "inputs need padding"

        rng_state = encoder._word_dropout_rng.bit_generator
        start = copy.deepcopy(rng_state.state)
        fused = encoder(inputs)
        after_fused = rng_state.state
        rng_state.state = start
        reference = [reference_encode(encoder, inp) for inp in inputs]
        assert rng_state.state == after_fused
        for got, want in zip(fused, reference):
            for name in ENCODED_FIELDS:
                assert max_abs_diff(getattr(got, name), getattr(want, name)) < 1e-12


class TestInferenceMode:
    def test_forward_matches_grad_mode(self):
        rng = np.random.default_rng(0)
        a = Tensor(rng.normal(size=(5, 7)), requires_grad=True)
        w = Tensor(rng.normal(size=(7, 3)), requires_grad=True)

        def forward():
            return ((a @ w).tanh() * 0.5 + 1.0).relu().sum(axis=0)

        with_grad = forward()
        with inference_mode():
            without_grad = forward()
        np.testing.assert_array_equal(with_grad.data, without_grad.data)
        assert with_grad.requires_grad
        assert not without_grad.requires_grad

    def test_no_backward_graph_allocated(self):
        a = Tensor(np.ones((4, 4)), requires_grad=True)
        with inference_mode():
            out = (a @ a).relu()
            assert out._parents == ()
            assert out._backward is None
        assert is_grad_enabled()

    def test_nested_and_exception_safe(self):
        assert is_grad_enabled()
        try:
            with inference_mode():
                assert not is_grad_enabled()
                with inference_mode():
                    assert not is_grad_enabled()
                assert not is_grad_enabled()
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        assert is_grad_enabled()

    def test_constant_inputs_skip_graph_in_grad_mode(self):
        # The op-level fast path: when no input requires grad, ops must
        # not allocate closures even outside inference_mode.
        a = Tensor(np.ones((3, 3)))
        b = Tensor(np.ones((3, 3)))
        out = (a @ b + a).tanh()
        assert not out.requires_grad
        assert out._parents == ()
        assert out._backward is None

    def test_backward_through_inference_output_fails(self):
        a = Tensor(np.ones(3), requires_grad=True)
        with inference_mode():
            out = (a * 2.0).sum()
        # The output is detached: backward is a no-op that reaches no
        # parameters (it has no graph to traverse).
        assert out._parents == ()
        assert a.grad is None


class TestSchemaFeatureCache:
    def test_cached_featurize_is_identical(self, model, domain_examples):
        db, pres = domain_examples
        cache = SchemaFeatureCache()
        for pre in pres[:4]:
            plain = featurize(pre, db.schema, model.vocab)
            cached = featurize(pre, db.schema, model.vocab, cache=cache)
            assert cached.piece_ids == plain.piece_ids
            assert cached.segment_ids == plain.segment_ids
            assert cached.hint_ids == plain.hint_ids
            assert cached.type_ids == plain.type_ids
            assert cached.column_hints == plain.column_hints
            assert cached.table_hints == plain.table_hints
        assert len(cache) == 1

    def test_cache_reuses_entry_per_schema(self, model, domain_examples):
        db, pres = domain_examples
        cache = SchemaFeatureCache()
        first = cache.get(db.schema, model.vocab)
        second = cache.get(db.schema, model.vocab)
        assert first is second

    def test_model_encode_populates_cache(self, corpus):
        model = make_model(corpus)
        domain = corpus.train_domains[0]
        db = corpus.database(domain)
        pre = Preprocessor(db).run(
            next(e.question for e in corpus.train if e.db_id == domain)
        )
        assert len(model.schema_cache) == 0
        model.encode(pre, db.schema)
        assert len(model.schema_cache) == 1
        model.encode(pre, db.schema)
        assert len(model.schema_cache) == 1
