"""Minibatch optimization, RMSE evaluation, and the mean baseline.

Batches are drawn in seeded-shuffle order, and each batch runs as one
stack of its samples' inputs, in ascending sample-index order, through one
forward pass, one loss and one reverse sweep of one tape; a model that
splits its branches (``IbenModel.forward``) records each on a tape of its
own, which that sweep reaches through the fork's entry.  Each parameter's
arithmetic is the same either way, so a (seed, data, config) triple, at a
fixed BLAS thread count, fully determines the trained parameters, bit for
bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import TrainingError


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 25
    batch_size: int = 16
    learning_rate: float = 0.001
    loss: str = "mse"  # mse | mae_sum
    seed: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    shuffle: bool = True
    optimizer: str = "adam"  # adam | sgd
    clip: float | None = None  # global gradient-norm cap, off by default

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        # zero is allowed so a frozen run can serve as a determinism probe
        if self.learning_rate < 0:
            raise ValueError("learning_rate must be >= 0")
        if self.loss not in ("mse", "mae_sum"):
            raise ValueError(f"unknown loss {self.loss!r}")
        if self.optimizer not in ("adam", "sgd"):
            raise ValueError(f"unknown optimizer {self.optimizer!r}")
        if self.clip is not None and self.clip <= 0:
            raise ValueError("clip must be positive when set")


@dataclass
class AdamState:
    """First and second moment estimates per parameter name."""

    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)
    t: int = 0

    @classmethod
    def for_params(cls, params) -> "AdamState":
        state = cls()
        for p in params:
            state.m[p.name] = np.zeros_like(p.values)
            state.v[p.name] = np.zeros_like(p.values)
        return state


_ADAM_BLOCK = 1 << 16
# Weights from which adam_step checks and updates its two halves concurrently.  On
# a 2-vCPU VM with one BLAS thread, model-shaped parameter lists broke even at about
# 200k weights, ran 14% faster at 354k, 23-33% from 513k to 1.5M and 39% at 4.13M,
# and ran 1.7-2.6x slower at 14k-76k.
_ADAM_MIN_WEIGHTS = 350_000


def _finite(values: np.ndarray) -> bool:
    """Whether every value is finite, read a block at a time so that the
    temporaries hold one block, not a copy of ``values``."""
    flat = values.reshape(-1)
    return all(np.isfinite(flat[lo:lo + _ADAM_BLOCK]).all()
               for lo in range(0, flat.size, _ADAM_BLOCK))


def _non_finite(params) -> list:
    """The parameters whose gradient holds a NaN or an infinity."""
    return [p for p in params if not _finite(p.grad)]


def _refuse_non_finite(params, bad) -> None:
    """Refuse a step when ``bad`` (see :func:`_non_finite`) is not empty,
    naming the first parameter of ``params`` in it."""
    if bad:
        first = next(p for p in params if any(p is b for b in bad))
        raise TrainingError(f"non-finite gradient for parameter {first.name}")


def _halves(params) -> tuple[list, list]:
    """The parameters in two lists of about equal weight count, largest first."""
    halves, counts = ([], []), [0, 0]
    for p in sorted(params, key=lambda p: p.values.size, reverse=True):
        lighter = int(counts[1] < counts[0])
        halves[lighter].append(p)
        counts[lighter] += p.values.size
    return halves


def _adam_update(params, state: AdamState, config: TrainConfig, step: float,
                 eps: float) -> None:
    """``w -= step * m / (sqrt(v) + eps)`` after the moment updates, in 12
    elementwise passes per block."""
    scratch = np.empty((2, min(_ADAM_BLOCK, max((p.values.size for p in params), default=0))))
    for p in params:
        flat = [x.reshape(-1) for x in (p.values, p.grad, state.m[p.name], state.v[p.name])]
        for lo in range(0, p.grad.size, _ADAM_BLOCK):
            w, g, m, v = (x[lo:lo + _ADAM_BLOCK] for x in flat)
            a, b = scratch[:, :g.size]
            m += np.multiply(np.subtract(g, m, out=a), 1.0 - config.beta1, out=a)
            v += np.multiply(np.subtract(np.multiply(g, g, out=a), v, out=a),
                             1.0 - config.beta2, out=a)
            np.add(np.sqrt(v, out=b), eps, out=b)
            w -= np.multiply(np.divide(m, b, out=a), step, out=a)


def adam_step(params, state: AdamState, config: TrainConfig) -> None:
    """One bias-corrected moment update of every parameter, or, when a
    gradient is not finite, no change at all (``state.t`` included).

    With bias corrections bc1 and bc2, ``m += (1-beta1)(g-m)``,
    ``v += (1-beta2)(g*g-v)`` and ``w -= (lr*sqrt(bc2)/bc1) * m /
    (sqrt(v) + eps*sqrt(bc2))``, which is ``lr * m_hat / (sqrt(v_hat) + eps)``
    with the scalars folded together.  Each parameter is updated in flat
    blocks of at most 2**16 values, whose temporaries share two scratch rows.
    From ``_ADAM_MIN_WEIGHTS`` weights, two halves of the parameters,
    balanced by weight count, are checked and then updated at the same time
    (``autodiff.run_both``); each value's arithmetic is the same either way.
    """
    first, second = _halves(params)
    concurrent = sum(p.values.size for p in params) >= _ADAM_MIN_WEIGHTS
    bad_first, bad_second = ad.run_both(lambda: _non_finite(first),
                                        lambda: _non_finite(second), concurrent)
    _refuse_non_finite(params, bad_first + bad_second)
    state.t += 1
    bc1 = 1.0 - config.beta1 ** state.t
    root_bc2 = math.sqrt(1.0 - config.beta2 ** state.t)
    step, eps = config.learning_rate * root_bc2 / bc1, config.eps * root_bc2
    ad.run_both(lambda: _adam_update(first, state, config, step, eps),
                lambda: _adam_update(second, state, config, step, eps), concurrent)


def sgd_step(params, config: TrainConfig) -> None:
    """``w -= lr * g`` for every parameter, or no change when a gradient is not finite."""
    params = list(params)
    _refuse_non_finite(params, _non_finite(params))
    for p in params:
        p.values -= config.learning_rate * p.grad


def _clip_gradients(params, cap: float) -> None:
    """Scale every gradient by ``cap / norm`` when their global norm exceeds ``cap``.
    The norm is one dot product per flat gradient view, with no copy."""
    norm_sq = 0.0
    for p in params:
        g = p.grad.reshape(-1)
        norm_sq += float(g @ g)
    norm = math.sqrt(norm_sq)
    if norm > cap:
        factor = cap / norm
        for p in params:
            p.grad *= factor


def _stack_batch(samples, names):
    """The samples' fused and embedding inputs, each stacked along a new first
    axis (None where the samples have none), and their targets.

    ``samples`` are ``((fused, emb), target)`` pairs; ``names`` label them in
    the error raised when an input's shape differs from the first sample's.
    """
    stacked = []
    for slot, what in enumerate(("fused", "embedding")):
        arrays = [getattr(inputs[slot], "data", inputs[slot]) for inputs, _ in samples]
        shapes = [None if a is None else np.shape(a) for a in arrays]
        for name, shape in zip(names, shapes):
            if shape != shapes[0]:
                raise ad.ShapeError(f"{name} has {what} input shape {shape}, {names[0]} "
                                    f"has {shapes[0]}; a batch needs one shape")
        stacked.append(None if shapes[0] is None else np.stack(arrays))
    return stacked, Tensor([float(target) for _, target in samples])


def _backward_batch(model, dataset, batch, loss: str) -> float:
    """Accumulate the batch loss's gradient, from one tape, into the model's
    parameters; return the sum of the per-sample losses.  The tape and the
    stacked inputs are freed on return."""
    (fused, emb), goal = _stack_batch([dataset[i] for i in batch],
                                      [f"sample {i}" for i in batch])
    with ad.Tape() as tape:
        pred = model.forward(fused=fused, emb=emb)
        total = (ad.mse_loss if loss == "mse" else ad.mae_sum_loss)(pred, goal)
    tape.backward(total)
    diff = pred.values - goal.values
    return float((diff * diff if loss == "mse" else np.abs(diff)).sum())


def train(model, dataset, config: TrainConfig, epoch_callback=None) -> list[float]:
    """Fit the model in place; returns per-epoch mean training loss.

    ``dataset`` holds ``((fused, emb), target)`` pairs, either input None
    when its branch is disabled; the samples of a batch must share each
    input's shape.  ``epoch_callback(epoch, model)`` runs
    after each epoch (e.g. to track dev RMSE); it must not mutate the
    model.
    """
    if not dataset:
        raise ValueError("training needs a non-empty dataset")
    params = model.parameters()
    state = AdamState.for_params(params) if config.optimizer == "adam" else None
    rng = np.random.default_rng(config.seed)
    n = len(dataset)
    history: list[float] = []
    for epoch in range(config.epochs):
        order = rng.permutation(n) if config.shuffle else np.arange(n)
        loss_sum = 0.0
        for batch_no, start in enumerate(range(0, n, config.batch_size)):
            batch = sorted(int(i) for i in order[start:start + config.batch_size])
            model.zero_grad()
            try:
                loss_sum += _backward_batch(model, dataset, batch, config.loss)
            except ad.NonFiniteError as exc:
                raise TrainingError(
                    f"non-finite loss at epoch {epoch + 1}, batch {batch_no + 1}: {exc}"
                ) from exc
            if config.clip is not None:
                _clip_gradients(params, config.clip)
            if config.optimizer == "adam":
                adam_step(params, state, config)
            else:
                sgd_step(params, config)
        history.append(loss_sum / n)
        if epoch_callback is not None:
            epoch_callback(epoch, model)
    return history


# ---------------------------------------------------------------------------
# evaluation

@dataclass(frozen=True)
class EvalReport:
    rmse: float
    n: int
    rows: tuple  # (id, target, prediction) per record


def evaluate_rmse(predictions, targets) -> float:
    """sqrt of the mean squared difference."""
    preds = np.asarray(list(predictions), dtype=np.float64)
    goals = np.asarray(list(targets), dtype=np.float64)
    if preds.shape != goals.shape:
        raise ValueError(f"{preds.size} predictions vs {goals.size} targets")
    if preds.size == 0:
        raise ValueError("rmse needs at least one prediction")
    return float(np.sqrt(np.mean((preds - goals) ** 2)))


EVAL_CHUNK = 16  # samples stacked per evaluation forward pass, the paper's batch size


def _predict_chunk(model, chunk, clamp: bool) -> list[float]:
    """One stacked prediction of the chunk's samples; its inputs are freed on return."""
    (fused, emb), _ = _stack_batch([(inputs, target) for _, inputs, target in chunk],
                                   [f"record {sample_id!r}" for sample_id, _, _ in chunk])
    return model.predict(fused=fused, emb=emb, clamp=clamp).tolist()


def evaluate_model(model, samples, clamp: bool = False) -> EvalReport:
    """Predict every sample; samples are (id, (fused, emb), target) triples.

    The samples run in order, in chunks of ``EVAL_CHUNK`` stacked into one
    ``model.predict`` call each, so memory holds one chunk's inputs at a time.
    The samples of a chunk must share each input's shape; a shape error names
    the record by its id.  Rows keep the input order.
    """
    rows = []
    for start in range(0, len(samples), EVAL_CHUNK):
        chunk = samples[start:start + EVAL_CHUNK]
        rows += [(sample_id, float(target), pred) for (sample_id, _, target), pred
                 in zip(chunk, _predict_chunk(model, chunk, clamp))]
    rmse = evaluate_rmse([r[2] for r in rows], [r[1] for r in rows])
    return EvalReport(rmse=rmse, n=len(rows), rows=tuple(rows))


def mean_baseline(train_records) -> float:
    """Constant predictor: the mean of the training mean grades."""
    records = list(train_records)
    if not records:
        raise ValueError("baseline needs a non-empty training set")
    return sum(r.mean_grade for r in records) / len(records)


def baseline_rmse(train_records, eval_records) -> float:
    constant = mean_baseline(train_records)
    eval_records = list(eval_records)
    return evaluate_rmse([constant] * len(eval_records),
                         [r.mean_grade for r in eval_records])
