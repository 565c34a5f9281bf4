"""Fusion of per-layer encoder hidden states into a branch-A input matrix.

Each layer is pooled over its token axis (mean block, then max block),
pooled layers are concatenated in pairs, and each pair is scaled by a
per-pair weight.  The default ``layer_sequence`` mode keeps one row
per pair so the recurrent branch sees a sequence; ``summed`` collapses
the weighted rows into a single vector.

Hidden states arrive from an external encoder via a binary container
(float32 on disk, float64 in memory); a deterministic pseudo-encoder
stands in for the encoder in tests and offline runs.
"""

from __future__ import annotations

import hashlib
import os
import struct
from dataclasses import dataclass

import numpy as np

from .corpus import PAD_TOKEN, TokenSequence
from .errors import DataFormatError, open_replacing

HS_MAGIC = b"IBENHS1\x00"
_U32_MAX = 0xFFFFFFFF
_MAX_RECORD_ELEMENTS = 1 << 33


class HsFileError(DataFormatError):
    """Hidden-state container violation."""


class BadMagicError(HsFileError):
    """The file does not start with the container magic."""


class TruncatedPayloadError(HsFileError):
    """The file ends before its declared payload."""


class DimensionOverflowError(HsFileError):
    """A declared dimension does not fit the container's u32 fields."""


class LayerStack:
    """Per-layer, per-token hidden states of one encoded sequence.

    Special-token positions are already excluded by the exporter; the
    token axis holds content tokens only.
    """

    def __init__(self, data, id: str = ""):
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim != 3:
            raise ValueError(f"layer stack must be 3-D, got shape {arr.shape}")
        if arr.shape[1] < 1:
            raise ValueError("layer stack needs at least one token")
        if not np.isfinite(arr).all():
            raise ValueError(f"layer stack {id!r} contains non-finite values")
        self.data = arr
        self.id = id

    @classmethod
    def _of_finite(cls, arr: np.ndarray, id: str) -> "LayerStack":
        """A stack of a 3-D float64 array of at least one token whose values
        the caller has found finite, made without scanning them again."""
        stack = cls.__new__(cls)
        stack.data, stack.id = arr, id
        return stack

    @property
    def n_layers(self) -> int:
        return self.data.shape[0]

    @property
    def seq_len(self) -> int:
        return self.data.shape[1]

    @property
    def hidden(self) -> int:
        return self.data.shape[2]


@dataclass(frozen=True)
class LayerPairing:
    """Ordered layer-index pairs, 1-based; indices distinct across the list.

    Row ``i`` of the fused output concatenates the pooled block of
    ``pairs[i][0]`` before the pooled block of ``pairs[i][1]``.
    """

    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if not self.pairs:
            raise ValueError("a pairing needs at least one pair")
        flat = [i for pair in self.pairs for i in pair]
        if len(set(flat)) != len(flat):
            raise ValueError("pairing reuses a layer index")
        if any(i < 1 for i in flat):
            raise ValueError("layer indices are 1-based")

    def __len__(self) -> int:
        return len(self.pairs)


def adjacent_pairing(n_layers: int) -> LayerPairing:
    """Pair each even layer with the odd layer below it: (2,1), (4,3), ...

    The higher layer of each adjacent pair comes first, so its pooled
    block leads the fused row.
    """
    if n_layers < 2 or n_layers % 2:
        raise ValueError(f"adjacent pairing needs an even layer count, got {n_layers}")
    return LayerPairing(tuple((i + 1, i) for i in range(1, n_layers, 2)))


def listed_pairing(n_layers: int) -> LayerPairing:
    """Pair consecutive positions as listed: (1,2), (3,4), ...

    Meant for stacks produced by :func:`select_layers`, where the caller's
    index order already encodes the intended layout.
    """
    if n_layers < 2 or n_layers % 2:
        raise ValueError(f"listed pairing needs an even layer count, got {n_layers}")
    return LayerPairing(tuple((i, i + 1) for i in range(1, n_layers, 2)))


def uniform_weights(n_pairs: int) -> list[float]:
    return [1.0] * n_pairs


@dataclass(frozen=True)
class FusedSequence:
    """Weighted paired-layer matrix; one row per pair (or one summed row)."""

    data: np.ndarray

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]


def fuse(stack: LayerStack, pairing: LayerPairing, weights,
         mode: str = "layer_sequence") -> FusedSequence:
    """Build the weighted paired-layer matrix consumed by branch A.

    Each layer the pairing names is pooled over its tokens, mean block then
    max block; row ``i`` holds the blocks of ``pairs[i]``, times ``weights[i]``.
    """
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != (len(pairing),):
        raise ValueError(f"{weights.size} weights for {len(pairing)} pairs")
    if mode not in ("layer_sequence", "summed"):
        raise ValueError(f"unknown fusion mode {mode!r}")
    beyond = [pair for pair in pairing.pairs if max(pair) > stack.n_layers]
    if beyond:
        raise ValueError(f"pair {beyond[0]} outside stack with {stack.n_layers} layers")
    index = np.array(pairing.pairs) - 1
    data = stack.data
    if index.size < stack.n_layers:  # pool only the layers the pairing names
        data, index = data[index.ravel()], np.arange(index.size).reshape(index.shape)
    pooled = np.concatenate([data.mean(axis=1), data.max(axis=1)], axis=1)
    matrix = pooled[index].reshape(len(pairing), -1) * weights[:, None]
    if mode == "summed":
        matrix = matrix.sum(axis=0, keepdims=True)
    return FusedSequence(matrix)


def select_layers(stack: LayerStack, indices) -> LayerStack:
    """Reduce a stack to the listed layers, preserving the listed order.

    The count must be even: downstream fusion pairs consecutive positions
    of the result, (1,2), (3,4), ...
    """
    indices = list(indices)
    if not indices or len(indices) % 2:
        raise ValueError(f"layer selection needs an even count, got {len(indices)}")
    if len(set(indices)) != len(indices):
        raise ValueError("duplicate layer index in selection")
    for i in indices:
        if not 1 <= i <= stack.n_layers:
            raise ValueError(f"layer index {i} outside 1..{stack.n_layers}")
    return LayerStack(stack.data[[i - 1 for i in indices]], id=stack.id)


# ---------------------------------------------------------------------------
# hidden-state container

def write_hs_file(stacks, path) -> None:
    """Write stacks to the binary container (little-endian, float32 payload).

    ``stacks`` is any iterable; each stack is checked and written as it
    comes, so a generator is held one stack at a time.  Every stack shares
    the first one's layer count and hidden size, and record ids are unique
    within a container.  The record count goes in last, and the file
    replaces ``path`` only once every record is written
    (:func:`~iben.errors.open_replacing`), so an error leaves ``path`` as it was.
    """
    seen: set[str] = set()
    dims = None
    with open_replacing(path) as fh:
        fh.write(HS_MAGIC)
        fh.write(struct.pack("<I", 0))  # the record count, written once known
        for s in stacks:
            index = len(seen)  # one id per record written
            if index == _U32_MAX:
                raise DimensionOverflowError("record count exceeds u32")
            dims = dims or (s.n_layers, s.hidden)
            if (s.n_layers, s.hidden) != dims:
                raise ValueError("all stacks in one file must share n_layers and hidden")
            if s.id in seen:
                raise ValueError(f"stack index {index} repeats the stack id {s.id!r}")
            seen.add(s.id)
            id_bytes = s.id.encode("utf-8")
            if len(id_bytes) > _U32_MAX:
                raise DimensionOverflowError(f"id of stack {s.id!r} exceeds u32")
            if max(s.n_layers, s.seq_len, s.hidden) > _U32_MAX:
                raise DimensionOverflowError(f"stack {s.id!r} dimension exceeds u32")
            fh.write(struct.pack("<I", len(id_bytes)))
            fh.write(id_bytes)
            fh.write(struct.pack("<III", s.n_layers, s.seq_len, s.hidden))
            fh.write(s.data.astype("<f4").tobytes())
            del s  # not held while the next stack is made
        fh.seek(len(HS_MAGIC))
        fh.write(struct.pack("<I", len(seen)))


def _read_exact(fh, n: int, size: int, where: str, what: str) -> bytes:
    """``n`` bytes of ``fh``, a file of ``size`` bytes; a length beyond the
    bytes left is refused before reading."""
    left = size - fh.tell()
    buf = fh.read(n) if n <= left else b""
    if len(buf) != n:
        raise TruncatedPayloadError(f"{where}: file ends inside {what} "
                                    f"({n} bytes declared, {left} left)")
    return buf


def read_hs_file(path, *, each=None) -> list[LayerStack] | None:
    """Read the stacks of a container written by :func:`write_hs_file`, in
    file order; a repeated record id is refused as soon as it is read.

    Without ``each``, return every stack.  With it, hand each stack to
    ``each(stack)`` as soon as it is read and checked, keep none, and return
    None: a caller that drops the stack holds one float64 stack at a time.
    """
    stacks = None if each else []
    each = each or stacks.append
    with open(path, "rb") as fh:
        magic = fh.read(len(HS_MAGIC))
        if magic != HS_MAGIC:
            raise BadMagicError(f"{path}: bad magic {magic!r}")
        size = os.fstat(fh.fileno()).st_size
        (count,) = struct.unpack("<I", _read_exact(fh, 4, size, str(path), "the record count"))
        seen: set[str] = set()
        for index in range(count):
            each(_read_record(fh, size, f"{path}: record index {index}", seen))
    return stacks


def _read_record(fh, size: int, where: str, seen: set) -> LayerStack:
    """The next record of ``fh`` as a float64 stack; its id joins ``seen``."""
    (id_len,) = struct.unpack("<I", _read_exact(fh, 4, size, where, "the id length"))
    try:
        stack_id = _read_exact(fh, id_len, size, where, "the id").decode("utf-8")
    except UnicodeDecodeError as exc:
        raise HsFileError(f"{where} has an id that is not UTF-8 ({exc})") from exc
    if stack_id in seen:
        raise HsFileError(f"{where} has duplicate stack id {stack_id!r}")
    seen.add(stack_id)
    where = f"{where} ({stack_id!r})"
    n_layers, seq_len, hidden = struct.unpack(
        "<III", _read_exact(fh, 12, size, where, "the dimensions"))
    if min(n_layers, seq_len, hidden) < 1:
        raise DimensionOverflowError(f"{where} declares a zero dimension")
    n_values = n_layers * seq_len * hidden
    if n_values > _MAX_RECORD_ELEMENTS:
        raise DimensionOverflowError(f"{where} declares {n_values} values")
    data = np.frombuffer(_read_exact(fh, 4 * n_values, size, where, "the payload"),
                         dtype="<f4")
    if not np.isfinite(data).all():
        raise HsFileError(f"{where} holds non-finite values")
    return LayerStack._of_finite(data.astype(np.float64).reshape(n_layers, seq_len, hidden),
                                 stack_id)


# ---------------------------------------------------------------------------
# pseudo-encoder

def pseudo_encode(seq: TokenSequence, n_layers: int, hidden: int, seed: int,
                  stack_id: str = "") -> LayerStack:
    """Deterministic stand-in for the external encoder.

    Every (token, layer) cell seeds its own generator from a stable hash,
    so identical inputs give bitwise-identical stacks on any platform.
    Every token other than the pad token is encoded, wherever the pads
    sit; values are float32-representable so the container round-trips
    exactly.
    """
    tokens = [t for t in seq.tokens if t != PAD_TOKEN]
    if not tokens:
        raise ValueError("pseudo_encode needs at least one non-pad token")
    if n_layers < 1 or hidden < 1:
        raise ValueError("n_layers and hidden must be positive")
    data = np.empty((n_layers, len(tokens), hidden), dtype=np.float64)
    for layer in range(n_layers):
        for pos, token in enumerate(tokens):
            key = f"{seed}|{layer + 1}|{token}".encode("utf-8")
            digest = hashlib.blake2b(key, digest_size=8).digest()
            rng = np.random.default_rng(int.from_bytes(digest, "little"))
            data[layer, pos] = rng.uniform(-1.0, 1.0, hidden).astype(np.float32)
    return LayerStack(data, id=stack_id)
