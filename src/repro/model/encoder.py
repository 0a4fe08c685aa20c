"""The ValueNet encoder (paper Sections III-B1 and IV-B4).

A transformer runs over the flat featurized sequence (question ⊕ columns ⊕
tables ⊕ value candidates with their locations); each input piece embeds
its WordPiece id plus segment, hint and column-type features and a
sinusoidal position.  Item encodings are then produced by summarizing each
item's piece span with a BiLSTM (the paper: "bi-directional LSTM networks
to summarize multi-token columns/tables/values").  The encoder has one
forward, over a list of inputs: single questions, batches and training.
"""

from __future__ import annotations

import numpy as np

from repro.config import ModelConfig
from repro.model.featurize import (
    EncoderInput,
    ItemSpan,
    NUM_COLUMN_TYPES,
    NUM_HINTS,
    NUM_SEGMENTS,
)
from repro.nn.layers import Embedding, Module
from repro.nn.rnn import BiLSTMSummarizer
from repro.nn.tensor import Tensor, concat
from repro.nn.transformer import TransformerEncoder, sinusoidal_positions


class EncodedExample:
    """Encoder output: per-item encodings ready for the decoder.

    Attributes:
        question: (n_tokens, dim) question-token encodings.
        columns: (n_columns, dim) column encodings ('*' first).
        tables: (n_tables, dim) table encodings.
        values: (n_candidates, dim) value-candidate encodings, or None
            when the candidate list is empty.
        summary: (dim,) [CLS] encoding used to initialize the decoder.
    """

    def __init__(
        self,
        question: Tensor,
        columns: Tensor,
        tables: Tensor,
        values: Tensor | None,
        summary: Tensor,
    ):
        self.question = question
        self.columns = columns
        self.tables = tables
        self.values = values
        self.summary = summary

    @property
    def num_values(self) -> int:
        return 0 if self.values is None else self.values.shape[0]


class ValueNetEncoder(Module):
    """Transformer encoder + BiLSTM span summarization."""

    def __init__(self, vocab_size: int, config: ModelConfig, rng: np.random.Generator):
        super().__init__()
        dim = config.dim
        self.config = config
        self.piece_embedding = Embedding(vocab_size, dim, rng)
        self.segment_embedding = Embedding(NUM_SEGMENTS, dim, rng)
        self.hint_embedding = Embedding(NUM_HINTS, dim, rng)
        self.type_embedding = Embedding(NUM_COLUMN_TYPES, dim, rng)
        self.transformer = TransformerEncoder(
            dim,
            config.num_layers,
            config.num_heads,
            config.ff_dim,
            rng,
            dropout_rate=config.dropout,
        )
        self.summarizer = BiLSTMSummarizer(dim, config.summary_hidden, dim, rng)
        # Schema hints are re-injected at the *output* of the encoder: the
        # pointer networks depend heavily on the linking features, and a
        # residual hint embedding keeps them undiluted by the transformer.
        self.output_column_hint = Embedding(16, dim, rng)  # column x table hints
        self.output_table_hint = Embedding(4, dim, rng)
        self.output_value_located = Embedding(2, dim, rng)
        self._position_cache: dict[int, np.ndarray] = {}
        self._word_dropout_rng = np.random.default_rng(config.seed + 1)

    def _positions(self, length: int) -> np.ndarray:
        cached = self._position_cache.get(length)
        if cached is None:
            cached = sinusoidal_positions(length, self.config.dim)
            self._position_cache[length] = cached
        return cached

    def __call__(self, inputs: list[EncoderInput]) -> list[EncodedExample]:
        """Encode one or more questions with one transformer forward.

        Sequences are right-padded to the batch maximum and the attention
        is masked over padding (no mask when nothing is padded, e.g. a
        single input), so every real position sees exactly the keys it
        would alone.  Item spans of every input are then summarized in
        fused equal-length groups: one BiLSTM pass per distinct span
        length.  The same path serves training (autograd graph, word
        dropout) and inference (run under ``eval()`` and
        :func:`~repro.nn.tensor.inference_mode`).
        """
        if not inputs:
            return []
        batch = len(inputs)
        max_len = max(inp.length for inp in inputs)
        piece = np.zeros((batch, max_len), dtype=np.int64)
        segment = np.zeros((batch, max_len), dtype=np.int64)
        hint = np.zeros((batch, max_len), dtype=np.int64)
        type_ = np.zeros((batch, max_len), dtype=np.int64)
        mask = np.zeros((batch, max_len), dtype=bool)
        for i, inp in enumerate(inputs):
            n = inp.length
            piece[i, :n] = inp.piece_ids
            segment[i, :n] = inp.segment_ids
            hint[i, :n] = inp.hint_ids
            type_[i, :n] = inp.type_ids
            mask[i, :n] = True
            if self.training and self.config.word_dropout > 0:
                # Word-level dropout: random pieces become [UNK] so the
                # model cannot rely purely on memorized surface forms —
                # essential for transfer to the unseen dev databases.
                keep = self._word_dropout_rng.random(n)
                piece[i, :n][keep < self.config.word_dropout] = 1  # [UNK]

        embedded = (
            self.piece_embedding(piece)
            + self.segment_embedding(segment)
            + self.hint_embedding(hint)
            + self.type_embedding(type_)
            + Tensor(self._positions(max_len) * 0.1)
        )
        contextual = self.transformer(embedded, mask=None if mask.all() else mask)

        # Summarize every item span of every input, grouped by span
        # length so each group is one fused pass through the BiLSTM; the
        # group outputs are concatenated and gathered back per item kind.
        kinds = [
            (inp.question_spans, inp.column_spans, inp.table_spans, inp.value_spans)
            for inp in inputs
        ]
        by_length: dict[int, list[tuple[int, int, int, ItemSpan]]] = {}
        for i, by_kind in enumerate(kinds):
            for k, spans in enumerate(by_kind):
                for j, span in enumerate(spans):
                    by_length.setdefault(span.end - span.start, []).append(
                        (i, k, j, span)
                    )
        groups = list(by_length.values())
        summaries = concat([
            self.summarizer.summarize_spans(
                contextual, [(i, span.start, span.end) for i, _, _, span in group]
            )
            for group in groups
        ], axis=0)
        rows = [[[0] * len(spans) for spans in by_kind] for by_kind in kinds]
        flat = (entry for group in groups for entry in group)
        for row, (i, k, j, _) in enumerate(flat):
            rows[i][k][j] = row

        out: list[EncodedExample] = []
        for i, inp in enumerate(inputs):
            question, columns, tables, values = (
                summaries[np.array(kind_rows)] if kind_rows else None
                for kind_rows in rows[i]
            )
            if inp.column_hints:
                columns = columns + self.output_column_hint(inp.column_hints)
            if inp.table_hints:
                tables = tables + self.output_table_hint(inp.table_hints)
            if values is not None and inp.value_located:
                values = values + self.output_value_located(inp.value_located)
            out.append(EncodedExample(
                question, columns, tables, values, contextual[(i, 0)]
            ))
        return out
