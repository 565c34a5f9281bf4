"""Pretrained word-vector tables and the unified L x D embedding matrix.

Several tables (e.g. three 300-dimensional models) are stacked side by
side: a token's unified vector is the concatenation of its per-table
lookups, so the matrix width is the sum of the table dimensions.
"""

from __future__ import annotations

import hashlib
import logging
from dataclasses import dataclass

import numpy as np

from .corpus import PAD_TOKEN, TokenSequence
from .errors import DataFormatError, open_text

log = logging.getLogger(__name__)


class WordVectorTable:
    """Immutable word -> vector map of one fixed dimension."""

    def __init__(self, dim: int, entries: dict, name: str = "", duplicates: int = 0):
        self.dim = dim
        self.entries = entries
        self.name = name
        self.duplicates = duplicates

    def __contains__(self, word: str) -> bool:
        return word in self.entries

    def __len__(self) -> int:
        return len(self.entries)

    def get(self, word: str):
        return self.entries.get(word)


def load_text_vectors(path, format: str = "glove_text", name: str = "") -> WordVectorTable:
    """Parse a text vector file.

    ``glove_text`` is one ``word v1 .. vD`` line per entry; ``w2v_text``
    is the same preceded by a ``count dim`` header line, whose count must
    equal the number of vector lines, duplicates included.  Duplicate words
    keep their first occurrence.
    """
    if format not in ("glove_text", "w2v_text"):
        raise ValueError(f"unknown vector format {format!r}")
    entries: dict[str, np.ndarray] = {}
    dim = None
    duplicates = 0
    with open_text(path) as fh:
        lineno = 0
        if format == "w2v_text":
            header = fh.readline()
            lineno = 1
            parts = header.split()
            if len(parts) != 2:
                raise DataFormatError(f"{path} line 1: expected 'count dim' header")
            try:
                count, dim = int(parts[0]), int(parts[1])
            except ValueError:
                raise DataFormatError(f"{path} line 1: bad header {header.strip()!r}, "
                                      f"expected two integers") from None
            if dim < 1:
                raise DataFormatError(f"{path} line 1: dim must be positive")
        for line in fh:
            lineno += 1
            parts = line.rstrip("\n").split(" ")
            if parts == [""]:
                continue
            word, rest = parts[0], parts[1:]
            if dim is None:
                dim = len(rest)
                if dim == 0:
                    raise DataFormatError(f"{path} line {lineno}: no vector components")
            if len(rest) != dim:
                raise DataFormatError(
                    f"{path} line {lineno}: expected {dim} components, found {len(rest)}"
                )
            try:
                vec = np.array([float(v) for v in rest], dtype=np.float64)
            except ValueError:
                raise DataFormatError(f"{path} line {lineno}: non-numeric component") from None
            if not np.isfinite(vec).all():
                raise DataFormatError(f"{path} line {lineno}: non-finite component")
            if word in entries:
                duplicates += 1
            else:
                entries[word] = vec
    if not entries:
        raise DataFormatError(f"{path}: no vector entries")
    if format == "w2v_text" and count != len(entries) + duplicates:
        raise DataFormatError(f"{path}: header declares {count} vectors, "
                              f"the file holds {len(entries) + duplicates}")
    if duplicates:
        log.warning("%s: %d duplicate entries ignored (first occurrence kept)", path, duplicates)
    return WordVectorTable(dim, entries, name=name or str(path), duplicates=duplicates)


@dataclass(frozen=True)
class OovPolicy:
    """Fill rule for tokens missing from a table."""

    kind: str = "zeros"  # zeros | seeded_uniform
    low: float = -0.25
    high: float = 0.25
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ("zeros", "seeded_uniform"):
            raise ValueError(f"unknown OOV policy {self.kind!r}")
        if self.high < self.low:
            raise ValueError("OOV range is empty")


def _oov_fill(policy: OovPolicy, table_index: int, token: str, dim: int) -> np.ndarray:
    if policy.kind == "zeros":
        return np.zeros(dim, dtype=np.float64)
    key = f"{policy.seed}|{table_index}|{token}".encode("utf-8")
    digest = hashlib.blake2b(key, digest_size=8).digest()
    rng = np.random.default_rng(int.from_bytes(digest, "little"))
    return rng.uniform(policy.low, policy.high, dim)


@dataclass(frozen=True)
class EmbeddingMatrix:
    """L x D matrix of stacked token vectors; pad rows are all zero."""

    data: np.ndarray

    def __post_init__(self) -> None:
        if self.data.ndim != 2:
            raise ValueError(f"expected a 2-D matrix, got ndim={self.data.ndim}")

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]


class UnifiedEmbedder:
    """Ordered stack of vector tables plus an out-of-vocabulary policy."""

    def __init__(self, tables, oov_policy: OovPolicy | None = None):
        self.tables = list(tables)
        if not self.tables:
            raise ValueError("embedder needs at least one table")
        self.oov_policy = oov_policy or OovPolicy()
        self.total_dim = sum(t.dim for t in self.tables)

    def embed_token(self, token: str) -> np.ndarray:
        """Unified vector: per-table lookups concatenated in table order."""
        if token == PAD_TOKEN:
            return np.zeros(self.total_dim, dtype=np.float64)
        blocks = []
        for i, table in enumerate(self.tables):
            vec = table.get(token)
            if vec is None:
                vec = _oov_fill(self.oov_policy, i, token, table.dim)
            blocks.append(vec)
        return np.concatenate(blocks)

    def build_matrix(self, seq: TokenSequence) -> EmbeddingMatrix:
        data = np.zeros((len(seq.tokens), self.total_dim), dtype=np.float64)
        for t, token in enumerate(seq.tokens):
            if token != PAD_TOKEN:
                data[t] = self.embed_token(token)
        return EmbeddingMatrix(data)

