"""Character corpora and the two synthetic symbol tasks."""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "CharCorpus",
    "SequenceDataset",
    "load_corpus",
    "chunk_sequences",
    "synth_copy_task",
    "synth_raster_task",
]

RASTER_FAMILIES = ("rect", "cross", "blank")


@dataclass
class CharCorpus:
    """A character stream mapped to dense ids with contiguous splits."""

    vocab: list[str]
    train_ids: np.ndarray
    valid_ids: np.ndarray

    @property
    def vocab_size(self) -> int:
        return len(self.vocab)


def load_corpus(path) -> CharCorpus:
    """Read a text file, build a sorted character vocabulary, split 0.9/0.05.

    Splits are contiguous spans of the id stream, in file order: the first
    ``int(0.9 n)`` ids train, the next ``int(0.05 n)`` validate.  The last
    5% is held out, and nothing reads it.
    """
    raw = Path(path).read_bytes()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError:
        text = raw.decode("latin-1")
    vocab = sorted(set(text))
    index = {ch: i for i, ch in enumerate(vocab)}
    ids = np.fromiter((index[ch] for ch in text), dtype=np.int64, count=len(text))
    n = len(ids)
    n_train = int(n * 0.9)
    n_valid = int(n * 0.05)
    return CharCorpus(vocab=vocab,
                      train_ids=ids[:n_train],
                      valid_ids=ids[n_train:n_train + n_valid])


@dataclass
class SequenceDataset:
    """Fixed-length symbol sequences, one row each."""

    sequences: np.ndarray  # [N, L] int64

    def __post_init__(self):
        self.sequences = np.asarray(self.sequences, dtype=np.int64)

    def __len__(self) -> int:
        return self.sequences.shape[0]


def chunk_sequences(ids, length: int) -> SequenceDataset:
    """Cut a flat id stream into floor(n/length) non-overlapping chunks.

    The remainder after the last full chunk is dropped.
    """
    ids = np.asarray(ids, dtype=np.int64)
    n = ids.shape[0] // length
    return SequenceDataset(ids[:n * length].reshape(n, length))


def synth_copy_task(vocab_size: int, pattern_len: int, seq_len: int, count: int,
                    rng: np.random.Generator) -> SequenceDataset:
    """Random patterns tiled out to seq_len, e.g. [2, 7] -> [2, 7, 2, 7, 2, 7].

    Everything after the first period is predictable by copying the
    symbol pattern_len steps back, so an ideal infinite-data model
    approaches (pattern_len / seq_len) * ln(vocab_size) nats per step.
    """
    reps = math.ceil(seq_len / pattern_len)
    rows = np.empty((count, seq_len), dtype=np.int64)
    for i in range(count):
        pattern = rng.integers(0, vocab_size, size=pattern_len)
        rows[i] = np.tile(pattern, reps)[:seq_len]
    return SequenceDataset(rows)


def synth_raster_task(width: int, height: int, shape_family: str, count: int,
                      rng: np.random.Generator) -> SequenceDataset:
    """Simple shapes drawn onto a width x height grid, each scanned
    row-major into one 0/1 sequence of a binary-vocabulary dataset.

    Families: "rect" (filled axis-aligned rectangle), "cross" (one full
    row plus one full column), "blank" (all background).
    """
    grids = np.zeros((count, height, width), dtype=np.int64)
    for grid in grids:
        if shape_family == "rect":
            y0, y1 = sorted(rng.integers(0, height, size=2))
            x0, x1 = sorted(rng.integers(0, width, size=2))
            grid[y0:y1 + 1, x0:x1 + 1] = 1
        elif shape_family == "cross":
            grid[rng.integers(0, height)] = 1
            grid[:, rng.integers(0, width)] = 1
    return SequenceDataset(grids.reshape(count, height * width))
