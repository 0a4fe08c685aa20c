"""Deterministic model checkpoint, trained once per source version.

The model is trained with the repository's own ``Trainer`` on the
synthetic train split with fixed seeds.  The checkpoint is cached under
a key made of the recipe below plus a hash of every source file that can
change the trained weights, so a change to training numerics retrains
and a change to serving code does not.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import time
from dataclasses import asdict, dataclass
from pathlib import Path

# Packages that only serve or analyse a trained model; nothing in them
# is reached by corpus generation, pre-processing or training.
# ``evaluation`` is not among them: the corpus generator labels hardness
# with ``repro.evaluation.difficulty``.
_NOT_IN_TRAINING = {
    "analysis", "baselines", "cluster", "evolve", "pipeline", "policy",
    "serving", "tenancy",
}
_NOT_IN_TRAINING_FILES = {"__main__.py", "metrics.py", "logs.py"}


@dataclass(frozen=True)
class Recipe:
    train_per_domain: int   # examples per train domain (12 domains)
    epochs: int
    dim: int
    corpus_seed: int = 42


# 720 train examples x 5 epochs at width 48: clearly ahead of the
# heuristic fallback in execution accuracy, in about 2.5 minutes on one
# core.  Fewer examples or epochs fall to the fallback's level.
FULL = Recipe(train_per_domain=60, epochs=5, dim=48)
# Smoke runs only need a checkpoint that loads and decodes.
TINY = Recipe(train_per_domain=4, epochs=1, dim=16)


def weights_source_hash(src: Path) -> str:
    """sha256 over the source files that determine the trained weights."""
    digest = hashlib.sha256()
    package = src / "repro"
    for path in sorted(package.rglob("*.py")):
        relative = path.relative_to(package)
        if relative.parts[0] in _NOT_IN_TRAINING:
            continue
        if len(relative.parts) == 1 and relative.name in _NOT_IN_TRAINING_FILES:
            continue
        digest.update(str(relative).encode())
        digest.update(path.read_bytes())
    digest.update(Path(__file__).read_bytes())
    return digest.hexdigest()


def cache_key(recipe: Recipe, src: Path) -> str:
    import numpy

    material = json.dumps({
        "recipe": asdict(recipe),
        "numpy": numpy.__version__,
        "source": weights_source_hash(src),
    }, sort_keys=True)
    return hashlib.sha256(material.encode()).hexdigest()[:16]


def ensure_checkpoint(recipe: Recipe, src: Path, cache: Path) -> tuple[Path, float | None]:
    """Path of the checkpoint for ``recipe``; trains it when absent.

    Returns ``(directory, training seconds or None when cached)``.
    """
    directory = cache / f"model-{cache_key(recipe, src)}"
    if (directory / "weights.npz").exists():
        return directory, None
    start = time.perf_counter()
    model = train(recipe)
    seconds = time.perf_counter() - start
    staging = cache / f"{directory.name}.tmp"
    shutil.rmtree(staging, ignore_errors=True)
    model.save(staging)
    (staging / "recipe.json").write_text(json.dumps(
        {"recipe": asdict(recipe), "train_seconds": seconds}, indent=1))
    shutil.rmtree(directory, ignore_errors=True)
    staging.rename(directory)
    return directory, seconds


def train(recipe: Recipe):
    from repro.config import ModelConfig, TrainingConfig
    from repro.model import (
        Trainer,
        ValueNetModel,
        build_preprocessors,
        build_vocabulary,
        prepare_samples,
    )
    from repro.spider import CorpusConfig, generate_corpus

    corpus = generate_corpus(CorpusConfig(
        train_per_domain=recipe.train_per_domain, dev_per_domain=0,
        seed=recipe.corpus_seed,
    ))
    vocab = build_vocabulary(
        [e.question for e in corpus.train],
        [corpus.schema(d) for d in corpus.domains],
        [str(v) for e in corpus.train for v in e.values],
    )
    model = ValueNetModel(vocab, ModelConfig(dim=recipe.dim))
    samples, _ = prepare_samples(corpus.train, build_preprocessors(corpus), model)
    Trainer(model, TrainingConfig(epochs=recipe.epochs)).train(samples)
    corpus.close()
    return model
