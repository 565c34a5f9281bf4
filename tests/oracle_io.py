"""Code that ``iben.wordvec`` replaced, kept as the oracle of its new form.

``load_text_vectors`` is the per-line word-vector loader, the oracle of the
one-pass parse.  It converts each component with Python's ``float``, which
also accepts ``1_0`` and non-ASCII digits such as ``１``; the fast loader
refuses both.  ``build_matrix`` is the dense embedding build, the oracle of
the matrices that index one vocabulary store.
"""

import logging

import numpy as np

from iben.corpus import PAD_TOKEN
from iben.errors import DataFormatError, open_text
from iben.wordvec import WordVectorTable

log = logging.getLogger(__name__)


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


def build_matrix(embedder, seq) -> np.ndarray:
    """The L x D matrix of ``seq``: zeros, then each token's unified vector
    from ``embedder.embed_token`` in its row, pad rows left zero."""
    data = np.zeros((len(seq.tokens), embedder.total_dim), dtype=np.float64)
    for t, token in enumerate(seq.tokens):
        if token != PAD_TOKEN:
            data[t] = embedder.embed_token(token)
    return data
