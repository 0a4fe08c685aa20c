"""Recurrent modules: LSTM cell and BiLSTM span summarizer.

The decoder is an LSTM (paper Section III-B2), and multi-token schema
items / value candidates are summarized by a bidirectional LSTM into a
single vector (Section V-C: "bi-directional LSTM networks to summarize
multi-token columns/tables/values").

The cell operates on a single (d,) input or a batched (s, d) stack of
inputs transparently (gates slice the last axis), which lets the encoder
summarize every same-length span of its inputs with one fused matrix
multiply per step instead of one vector multiply per span.
"""

from __future__ import annotations

import numpy as np

from repro.nn.init import xavier_uniform, zeros
from repro.nn.layers import Module
from repro.nn.tensor import Tensor, concat


class LSTMCell(Module):
    """A single LSTM step.

    Gates are computed from one fused affine map of ``[x; h]`` for speed;
    the forget-gate bias starts at 1.0 (the standard trick for gradient
    flow through long sequences).
    """

    def __init__(self, input_dim: int, hidden_dim: int, rng: np.random.Generator):
        super().__init__()
        self.hidden_dim = hidden_dim
        self.weight = xavier_uniform(rng, input_dim + hidden_dim, 4 * hidden_dim)
        self.bias = zeros(4 * hidden_dim)
        self.bias.data[hidden_dim:2 * hidden_dim] = 1.0  # forget gate

    def __call__(
        self, x: Tensor, state: tuple[Tensor, Tensor]
    ) -> tuple[Tensor, Tensor]:
        h, c = state
        combined = concat([x, h], axis=-1)
        gates = combined @ self.weight + self.bias
        d = self.hidden_dim
        i = gates[..., 0:d].sigmoid()
        f = gates[..., d:2 * d].sigmoid()
        g = gates[..., 2 * d:3 * d].tanh()
        o = gates[..., 3 * d:4 * d].sigmoid()
        c_next = f * c + i * g
        h_next = o * c_next.tanh()
        return h_next, c_next

    def initial_state(self, batch: int | None = None) -> tuple[Tensor, Tensor]:
        shape = (self.hidden_dim,) if batch is None else (batch, self.hidden_dim)
        return (Tensor(np.zeros(shape)), Tensor(np.zeros(shape)))


class BiLSTMSummarizer(Module):
    """Summarize token spans into one vector each.

    Runs an LSTM forward and another backward over a span and projects
    the concatenated final hidden states to ``output_dim``.  Used for
    multi-word column names, table names and multi-piece value candidates.
    """

    def __init__(
        self, input_dim: int, hidden_dim: int, output_dim: int, rng: np.random.Generator
    ):
        super().__init__()
        self.forward_cell = LSTMCell(input_dim, hidden_dim, rng)
        self.backward_cell = LSTMCell(input_dim, hidden_dim, rng)
        self.projection = xavier_uniform(rng, 2 * hidden_dim, output_dim)

    def summarize_spans(
        self, contextual: Tensor, spans: list[tuple[int, int, int]]
    ) -> Tensor:
        """Summarize many *equal-length* spans of a padded batch at once.

        Args:
            contextual: (batch, max_len, d_in) padded encoder output.
            spans: ``(example_index, start, end)`` triples, all with the
                same ``end - start``.

        Returns:
            (len(spans), output_dim) summaries, row-aligned with ``spans``.

        Each step gathers one position of every span and runs both LSTM
        cells on the (s, d_in) stack — the math of summarizing each span
        on its own, but one fused matmul per step.
        """
        length = spans[0][2] - spans[0][1]
        if any(end - start != length for _, start, end in spans):
            raise ValueError("summarize_spans requires equal-length spans")
        rows = np.array([example for example, _, _ in spans], dtype=np.int64)
        starts = np.array([start for _, start, _ in spans], dtype=np.int64)

        steps = [contextual[(rows, starts + t)] for t in range(length)]
        forward_state = self.forward_cell.initial_state(batch=len(spans))
        for x in steps:
            forward_state = self.forward_cell(x, forward_state)
        backward_state = self.backward_cell.initial_state(batch=len(spans))
        for x in reversed(steps):
            backward_state = self.backward_cell(x, backward_state)
        combined = concat([forward_state[0], backward_state[0]], axis=-1)
        return (combined @ self.projection).tanh()
