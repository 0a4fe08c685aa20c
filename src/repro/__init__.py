"""Reproduction of ValueNet (Brunner & Stockinger, ICDE 2021).

An end-to-end NL-to-SQL system that learns from database information:
value extraction, candidate generation/validation against base data, a
transformer encoder over question + schema + value candidates, a
grammar-constrained LSTM decoder over SemQL 2.0 with pointer networks, and
deterministic post-processing (JOIN inference, value formatting) --
evaluated with Spider-style Execution Accuracy on a synthetic
Spider-like corpus.

Typical usage::

    from repro import (
        generate_corpus, CorpusConfig, ValueNetModel, Trainer,
        ValueNetPipeline, build_vocabulary,
    )

See README.md for the full quickstart and DESIGN.md for the system
inventory and the per-experiment index.
"""

import os

# One BLAS thread unless the deployment says otherwise.  The model's
# matmuls are small (tens to a few hundred rows), where OpenBLAS's thread
# hand-off costs far more than the product itself; parallelism comes from
# server threads and cluster worker processes instead.  Set before any
# module below imports numpy, since OpenBLAS reads it once at load time.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from repro.config import ModelConfig, TrainingConfig
from repro.db import Database
from repro.errors import ReproError
from repro.evaluation import (
    AccuracyReport,
    Hardness,
    ValueDifficulty,
    evaluate_pipeline,
    exact_match,
    measure_extraction_coverage,
)
from repro.model import (
    Trainer,
    ValueNetModel,
    build_preprocessors,
    build_vocabulary,
    prepare_samples,
)
from repro.pipeline import (
    TranslationResult,
    ValueNetLightPipeline,
    ValueNetPipeline,
)
from repro.preprocessing import Preprocessor
from repro.schema import Schema
from repro.spider import CorpusConfig, SpiderCorpus, generate_corpus, load_corpus

__version__ = "1.0.0"

__all__ = [
    "AccuracyReport",
    "CorpusConfig",
    "Database",
    "Hardness",
    "ModelConfig",
    "Preprocessor",
    "ReproError",
    "Schema",
    "SpiderCorpus",
    "Trainer",
    "TrainingConfig",
    "TranslationResult",
    "ValueDifficulty",
    "ValueNetLightPipeline",
    "ValueNetModel",
    "ValueNetPipeline",
    "build_preprocessors",
    "build_vocabulary",
    "evaluate_pipeline",
    "exact_match",
    "generate_corpus",
    "load_corpus",
    "measure_extraction_coverage",
    "prepare_samples",
]
