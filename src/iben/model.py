"""The two-branch funniness regressor.

Branch A runs a Bi-GRU over the fused encoder-layer matrix; branch B
runs a Bi-GRU and a multi-kernel convolution bank over the word-vector
matrix.  Each enabled branch is projected through its own dense layer,
the projections are concatenated, and an affine head emits one real.

Either branch (and either branch-B sub-model) can be switched off to
reproduce the single-component architectures of the ablation grid.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from itertools import accumulate

import numpy as np

from . import autodiff as ad
from .autodiff import Parameter, Tensor
from .errors import DataFormatError, open_replacing, refuse_json_constant

CHECKPOINT_SCHEMA = 2
_HEADER_KEYS = {"schema", "config", "seed", "params", "blob_bytes", "manifest"}

_POSITIVE_INT_FIELDS = ("fused_width", "n_pairs", "emb_dim", "hidden_size", "dense_size",
                        "filters_per_kernel")


@dataclass(frozen=True)
class ModelConfig:
    use_bert_branch: bool = True
    use_emb_branch: bool = True
    emb_submodel: str = "both"  # bigru | cnn | both
    fused_width: int = 4096  # columns of the branch-A input matrix
    n_pairs: int = 12  # rows of the branch-A input matrix
    emb_dim: int = 900  # columns of the branch-B input matrix
    hidden_size: int = 128
    dense_size: int = 64
    kernel_sizes: tuple[int, ...] = (1, 2, 3, 4)
    filters_per_kernel: int = 9
    dense_activation: bool = True  # relu after the per-branch dense layers
    use_bias: bool = True
    learn_layer_weights: bool = False
    seed: int = 0

    def __post_init__(self):
        if not (self.use_bert_branch or self.use_emb_branch):
            raise ValueError("at least one branch must be enabled")
        if self.emb_submodel not in ("bigru", "cnn", "both"):
            raise ValueError(f"unknown emb_submodel {self.emb_submodel!r}")
        for name in _POSITIVE_INT_FIELDS:
            value = getattr(self, name)
            if type(value) is not int or value < 1:  # bool is not an int here
                raise ValueError(f"{name} must be a positive integer, got {value!r}")
        if type(self.seed) is not int:
            raise ValueError(f"seed must be an integer, got {self.seed!r}")
        if not self.kernel_sizes or not all(type(k) is int and k > 0 for k in self.kernel_sizes):
            raise ValueError(f"kernel sizes must be positive integers, got {self.kernel_sizes!r}")
        if len(set(self.kernel_sizes)) != len(self.kernel_sizes):
            raise ValueError(f"kernel sizes must not repeat, got {self.kernel_sizes!r}")
        object.__setattr__(self, "kernel_sizes", tuple(self.kernel_sizes))


def _weight_count(c: ModelConfig) -> int:
    """Number of float64 weights in ``IbenModel(c)``, by integer arithmetic."""
    H, F, dense, bias = c.hidden_size, c.filters_per_kernel, c.dense_size, int(bool(c.use_bias))
    rnn = c.use_emb_branch and c.emb_submodel != "cnn"
    cnn = c.use_emb_branch and c.emb_submodel != "bigru"
    n = dense * (int(c.use_bert_branch) + int(c.use_emb_branch)) + bias  # the head
    if c.use_bert_branch:
        n += 6 * H * (c.fused_width + H + bias) + dense * (4 * H + bias)
        n += c.n_pairs if c.learn_layer_weights else 0
    if rnn:
        n += 6 * H * (c.emb_dim + H + bias)
    if cnn:
        n += sum(F * (k * c.emb_dim + 1) for k in c.kernel_sizes)
    if c.use_emb_branch:
        n += dense * ((4 * H if rnn else 0) + (F * len(c.kernel_sizes) if cnn else 0) + bias)
    return n


def _glorot(rng, shape, fan_in: int, fan_out: int) -> np.ndarray:
    a = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-a, a, shape)


class GruCell:
    """One direction's weights, each stacked as z, r and h gate blocks.

    ``W`` (3H x I), ``U`` (3H x H) and, with ``use_bias``, ``b`` (3H) are the
    parameters.  ``W_z`` ... ``b_h`` are plain tensor views of their blocks,
    for reading and writing single gates; they are not parameters.
    """

    def __init__(self, input_size: int, hidden_size: int, name: str, rng,
                 use_bias: bool = True):
        self.input_size = input_size
        self.hidden_size = hidden_size
        self.use_bias = use_bias
        H, I = hidden_size, input_size
        self.W = Parameter(_glorot(rng, (3 * H, I), I, H), f"{name}.W")
        self.U = Parameter(_glorot(rng, (3 * H, H), H, H), f"{name}.U")
        self.b = Parameter(np.zeros(3 * H), f"{name}.b") if use_bias else None

        def blocks(p):
            return [Tensor(p.values[i * H:(i + 1) * H]) for i in range(3)]

        self.W_z, self.W_r, self.W_h = blocks(self.W)
        self.U_z, self.U_r, self.U_h = blocks(self.U)
        self.b_z, self.b_r, self.b_h = blocks(self.b) if use_bias else (None,) * 3

    def parameters(self) -> list[Parameter]:
        return [self.W, self.U] + ([self.b] if self.use_bias else [])

    def step(self, x: Tensor, h_prev: Tensor) -> Tensor:
        """z gates the old state; (1 - z) admits the tanh candidate.

        ``x`` and ``h_prev`` are vectors, or B-row matrices for a batch.
        """
        row = ad.reshape(x, x.shape[:-1] + (1, x.shape[-1]))
        return ad.reshape(ad.gru_sequence(row, self.parameters(), h_prev), h_prev.shape)


class BiGru:
    """Forward and backward cells with independent parameters."""

    def __init__(self, input_size: int, hidden_size: int, name: str, rng,
                 use_bias: bool = True):
        self.fwd = GruCell(input_size, hidden_size, f"{name}.fwd", rng, use_bias)
        self.bwd = GruCell(input_size, hidden_size, f"{name}.bwd", rng, use_bias)

    def parameters(self) -> list[Parameter]:
        return self.fwd.parameters() + self.bwd.parameters()


def bi_gru(seq: Tensor, params: BiGru, *, concurrent: bool = False) -> Tensor:
    """Row t is the forward state at t joined with the backward state at t.

    The backward half comes from running the backward cell over the
    sequence last row first.  A B x T x I batch gives B x T x 2H states.
    :func:`~iben.autodiff.bi_gru_sequence` steps both directions together,
    or, asked by ``concurrent``, decides whether to fork them onto two
    threads.  The values and gradients are the same either way.
    """
    return ad.bi_gru_sequence(seq, params.fwd.parameters(), params.bwd.parameters(),
                              concurrent=concurrent)


def pool_states(states: Tensor) -> Tensor:
    """Max-over-time block followed by avg-over-time block; length 4H (per sample)."""
    return ad.concat([ad.max_over_time(states), ad.avg_over_time(states)], axis=-1)


class ConvBank:
    """One kernel tensor and bias per kernel size."""

    def __init__(self, emb_dim: int, kernel_sizes, filters_per_kernel: int,
                 name: str, rng):
        self.kernel_sizes = tuple(kernel_sizes)
        self.kernels = {}
        self.biases = {}
        for k in self.kernel_sizes:
            shape = (filters_per_kernel, k, emb_dim)
            self.kernels[k] = Parameter(
                _glorot(rng, shape, k * emb_dim, filters_per_kernel), f"{name}.k{k}.kernels"
            )
            self.biases[k] = Parameter(np.zeros(filters_per_kernel), f"{name}.k{k}.bias")

    def parameters(self) -> list[Parameter]:
        params = []
        for k in self.kernel_sizes:
            params += [self.kernels[k], self.biases[k]]
        return params


def conv_features(matrix: Tensor, bank: ConvBank) -> Tensor:
    """Per kernel size: valid convolution, relu, max over time; concatenated."""
    outs = []
    for k in bank.kernel_sizes:
        conv = ad.conv1d(matrix, bank.kernels[k], bank.biases[k])
        outs.append(ad.max_over_time(ad.relu(conv)))
    return ad.concat(outs, axis=-1)


class Dense:
    def __init__(self, in_size: int, out_size: int, name: str, rng,
                 use_bias: bool = True):
        self.W = Parameter(_glorot(rng, (out_size, in_size), in_size, out_size),
                           f"{name}.W")
        self.b = Parameter(np.zeros(out_size), f"{name}.b") if use_bias else None

    def __call__(self, v: Tensor) -> Tensor:
        """An in-vector, or a B x in matrix, to out values per row."""
        return ad.linear(v, self.W, self.b)

    def parameters(self) -> list[Parameter]:
        return [self.W] if self.b is None else [self.W, self.b]


def _input_matrix(x, width: int, what: str) -> Tensor:
    """One sample's matrix or a batch of them, as a tensor ``width`` columns wide."""
    if not isinstance(x, Tensor):
        x = Tensor(getattr(x, "data", x))
    if x.values.ndim not in (2, 3):
        raise ad.ShapeError(f"{what} must be a matrix or a batch of them, got shape {x.shape}")
    if x.shape[-1] != width:
        raise ad.ShapeError(f"{what} width {x.shape[-1]} != configured {width}")
    return x


def _madds(shape: tuple, bigru: BiGru | None, bank: ConvBank | None = None) -> int:
    """The multiply-adds of a forward pass over an input of ``shape`` through a
    Bi-GRU and a convolution bank (None when absent): per input row, one per
    weight of each direction's ``W`` and ``U`` (its input projection and
    recurrence) and of each kernel."""
    cells = (bigru.fwd, bigru.bwd) if bigru else ()
    kernels = bank.kernels.values() if bank else ()
    per_row = sum(c.W.size + c.U.size for c in cells) + sum(k.size for k in kernels)
    return math.prod(shape[:-1]) * per_row


class IbenModel:
    """All trainable parameters of both branches plus the prediction head."""

    def __init__(self, config: ModelConfig):
        self.config = config
        rng = np.random.default_rng(config.seed)
        H = config.hidden_size
        self._params: list[Parameter] = []

        self.branch_a = None
        self.layer_weights = None
        if config.use_bert_branch:
            self.branch_a = BiGru(config.fused_width, H, "branch_a", rng, config.use_bias)
            self._params += self.branch_a.parameters()
            if config.learn_layer_weights:
                self.layer_weights = Parameter(np.ones(config.n_pairs), "layer_weights")
                self._params.append(self.layer_weights)

        self.branch_b_rnn = None
        self.branch_b_conv = None
        if config.use_emb_branch:
            if config.emb_submodel in ("bigru", "both"):
                self.branch_b_rnn = BiGru(config.emb_dim, H, "branch_b_rnn", rng,
                                          config.use_bias)
                self._params += self.branch_b_rnn.parameters()
            if config.emb_submodel in ("cnn", "both"):
                self.branch_b_conv = ConvBank(config.emb_dim, config.kernel_sizes,
                                              config.filters_per_kernel,
                                              "branch_b_conv", rng)
                self._params += self.branch_b_conv.parameters()

        self.dense_a = None
        if config.use_bert_branch:
            self.dense_a = Dense(4 * H, config.dense_size, "dense_a", rng, config.use_bias)
            self._params += self.dense_a.parameters()
        self.dense_b = None
        if config.use_emb_branch:
            b_width = 0
            if self.branch_b_rnn is not None:
                b_width += 4 * H
            if self.branch_b_conv is not None:
                b_width += config.filters_per_kernel * len(config.kernel_sizes)
            self.dense_b = Dense(b_width, config.dense_size, "dense_b", rng, config.use_bias)
            self._params += self.dense_b.parameters()

        head_width = config.dense_size * (int(config.use_bert_branch)
                                          + int(config.use_emb_branch))
        self.head = Dense(head_width, 1, "head", rng, config.use_bias)
        self._params += self.head.parameters()

    def parameters(self) -> list[Parameter]:
        return list(self._params)

    def zero_grad(self) -> None:
        for p in self._params:
            p.zero_grad()

    def _branch_madds(self, fused_shape: tuple, emb_shape: tuple) -> tuple[int, int]:
        """The multiply-adds of one forward pass of branch A and of branch B over
        inputs of these shapes, in the Bi-GRUs and the convolutions; the dense
        layers, a small share, are left out."""
        return (_madds(fused_shape, self.branch_a),
                _madds(emb_shape, self.branch_b_rnn, self.branch_b_conv))

    def forward(self, fused=None, emb=None) -> Tensor:
        """Scalar prediction for P x W and L x D inputs, or a length-B vector of
        them for B x P x W and B x L x D batches; inputs for disabled branches
        are ignored.

        The two branches are forked (:func:`~iben.autodiff.fork`), branch B on
        the worker thread on two CPUs, when both are given as arrays, which no
        sweep of the open tape reaches, and each has at least
        ``autodiff.FORK_MIN_MADDS`` multiply-adds (:meth:`_branch_madds`).
        Each Bi-GRU asks to fork its two directions (:func:`bi_gru`), and
        :func:`~iben.autodiff.bi_gru_sequence` decides: inside forked branches,
        where the worker is held, it steps them together on its branch's
        thread.  The values and gradients are the same on every path."""
        c = self.config
        xa = xb = None
        if c.use_bert_branch:
            if fused is None:
                raise ValueError("encoder branch is enabled but got no fused input")
            xa = _input_matrix(fused, c.fused_width, "fused input")
        if c.use_emb_branch:
            if emb is None:
                raise ValueError("embedding branch is enabled but got no matrix input")
            xb = _input_matrix(emb, c.emb_dim, "embedding")
        if xa is not None and xb is not None and xa.shape[:-2] != xb.shape[:-2]:
            raise ad.ShapeError(f"fused input batch shape {xa.shape[:-2]} != embedding "
                                f"batch shape {xb.shape[:-2]}")

        # a sweep of the open tape may reach a caller's tensor, or a tensor recorded there,
        # and a branch tape cannot pass either its gradient
        split = (xa is not None and xb is not None and xa is not fused and xb is not emb
                 and min(self._branch_madds(xa.shape, xb.shape)) >= ad.FORK_MIN_MADDS)

        def branch_a():
            x = xa if self.layer_weights is None else ad.scale_rows(xa, self.layer_weights)
            va = self.dense_a(pool_states(bi_gru(x, self.branch_a, concurrent=True)))
            return ad.relu(va) if c.dense_activation else va

        def branch_b():
            parts = []
            if self.branch_b_rnn is not None:
                parts.append(pool_states(bi_gru(xb, self.branch_b_rnn, concurrent=True)))
            if self.branch_b_conv is not None:
                parts.append(conv_features(xb, self.branch_b_conv))
            vb = self.dense_b(parts[0] if len(parts) == 1 else ad.concat(parts, axis=-1))
            return ad.relu(vb) if c.dense_activation else vb

        if xb is None:
            joined = branch_a()
        elif xa is None:
            joined = branch_b()
        else:
            joined = ad.fork(branch_a, branch_b, split)
        return ad.reshape(self.head(joined), joined.shape[:-1])

    def predict(self, fused=None, emb=None, clamp: bool = False) -> float | np.ndarray:
        """Forward pass outside any tape: a plain float for one sample's
        matrices, a length-B array for a batch of B, in its row order.
        ``clamp`` bounds each prediction to [0, 3]."""
        values = self.forward(fused=fused, emb=emb).values
        if clamp:
            values = np.clip(values, 0.0, 3.0)
        return float(values) if values.ndim == 0 else values


# ---------------------------------------------------------------------------
# checkpoints: one JSON header line, then a little-endian float64 blob

def _config_to_json(config: ModelConfig) -> dict:
    data = asdict(config)
    data["kernel_sizes"] = list(config.kernel_sizes)
    return data


def _config_from_json(data, path) -> ModelConfig:
    if not isinstance(data, dict):
        raise DataFormatError(f"{path}: checkpoint config is not a JSON object")
    data = dict(data)
    kernel_sizes = data.get("kernel_sizes", [1, 2, 3, 4])
    if not isinstance(kernel_sizes, list):
        raise DataFormatError(f"{path}: checkpoint config's kernel_sizes is not a list")
    data["kernel_sizes"] = tuple(kernel_sizes)
    try:
        return ModelConfig(**data)
    except (TypeError, ValueError) as exc:
        raise DataFormatError(f"{path}: checkpoint config is invalid: {exc}") from exc


def _param_table(params) -> list[dict]:
    """The checkpoint layout: each parameter's name, shape and byte offset in the blob."""
    offsets = accumulate((8 * p.size for p in params), initial=0)
    return [{"name": p.name, "shape": list(p.shape), "offset": o} for p, o in zip(params, offsets)]


def _canonical(value) -> str:
    return json.dumps(value, sort_keys=True)


def save_checkpoint(model: IbenModel, path, manifest: dict | None = None) -> None:
    """Write the model to ``path``; ``manifest`` rides along in the header.

    The manifest is free-form JSON (e.g. the resolved run configuration)
    so a checkpoint records how its input features were produced.  The
    file replaces ``path`` only once it is complete
    (:func:`~iben.errors.open_replacing`).
    """
    params = model.parameters()
    header = {
        "schema": CHECKPOINT_SCHEMA,
        "config": _config_to_json(model.config),
        "seed": model.config.seed,
        "params": _param_table(params),
        "blob_bytes": 8 * sum(p.size for p in params),
    }
    if manifest is not None:
        header["manifest"] = manifest
    with open_replacing(path) as fh:
        fh.write(_canonical(header).encode("utf-8") + b"\n")
        for p in params:
            fh.write(p.values.astype("<f8").tobytes())


def _read_checkpoint_header(fh, path) -> dict:
    """Parse the header line at the start of ``fh``; the blob is left unread."""
    try:
        header = json.loads(fh.readline().decode("utf-8"), parse_constant=refuse_json_constant)
    except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON, or a NaN or Infinity
        raise DataFormatError(f"{path}: unreadable checkpoint header ({exc})") from exc
    if not isinstance(header, dict):
        raise DataFormatError(f"{path}: checkpoint header is not a JSON object")
    unknown = sorted(set(header) - _HEADER_KEYS)
    if unknown:
        raise DataFormatError(f"{path}: unknown checkpoint header keys {unknown}")
    return header


def checkpoint_manifest(path) -> dict | None:
    """Return the manifest stored alongside the weights, if any."""
    with open(path, "rb") as fh:
        header = _read_checkpoint_header(fh, path)
    manifest = header.get("manifest")
    if manifest is not None and not isinstance(manifest, dict):
        raise DataFormatError(f"{path}: checkpoint manifest is not a JSON object")
    return manifest


def load_checkpoint(path) -> IbenModel:
    """Rebuild a model from a checkpoint whose parameter table is the model's own
    and whose weights are all finite."""
    with open(path, "rb") as fh:
        header = _read_checkpoint_header(fh, path)
        blob = fh.read()
    schema, blob_bytes, seed = (header.get(k) for k in ("schema", "blob_bytes", "seed"))
    if type(schema) is not int or schema != CHECKPOINT_SCHEMA:
        raise DataFormatError(f"{path}: unsupported checkpoint schema {schema!r}, "
                              f"expected {CHECKPOINT_SCHEMA}")
    config = _config_from_json(header.get("config", {}), path)
    if type(seed) is not int or seed != config.seed:
        raise DataFormatError(f"{path}: checkpoint seed {seed!r} is not its config's "
                              f"seed {config.seed}")
    need = 8 * _weight_count(config)
    if need != len(blob):
        raise DataFormatError(f"{path}: blob is {len(blob)} bytes, its config needs {need}")
    if type(blob_bytes) is not int or blob_bytes != len(blob):
        raise DataFormatError(f"{path}: blob is {len(blob)} bytes, header blob_bytes "
                              f"declares {blob_bytes!r}")
    model = IbenModel(config)
    params = model.parameters()
    table = _param_table(params)
    entries = header.get("params")
    if _canonical(entries) != _canonical(table):
        found = entries if isinstance(entries, list) else [entries]
        i = next((i for i, (got, want) in enumerate(zip(found, table))
                  if _canonical(got) != _canonical(want)), min(len(found), len(table)))
        got, want = (_canonical(t[i]) if i < len(t) else "nothing" for t in (found, table))
        raise DataFormatError(f"{path}: checkpoint params entry {i} {got} does not match the "
                              f"model's {want}; params must be the model's list of objects")
    values = np.frombuffer(blob, dtype="<f8")
    for p, entry in zip(params, table):
        start = entry["offset"] // 8
        weights = values[start:start + p.size]
        if not np.isfinite(weights).all():
            raise DataFormatError(f"{path}: parameter {p.name} holds a non-finite weight")
        p.values[...] = weights.reshape(p.shape)
    return model
