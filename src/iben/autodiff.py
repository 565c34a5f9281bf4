"""Dense float64 tensors with tape-based reverse-mode differentiation.

Graphs are recorded onto an explicit :class:`Tape` used as a context
manager; outside any tape, every op is plain (and cheaper) numpy compute.
The reverse sweep replays the recorded entries exactly once, in reverse
execution order, and calls each entry's one backward function once for
all of its operands.  A gradient reaches a tensor only if it was recorded
on the tape being swept or is a :class:`Parameter`; every other operand is
a constant, which the backward function is told so that it can skip that
gradient, and only parameters carry a ``.grad``.  The open tapes are
process-wide and not thread-safe: an op run on any thread is recorded on
the innermost open tape.  A tape knows the tensors it recorded, and a
tensor does not refer to its tape, so a finished graph is freed by
reference counting alone.

Every op verifies its output is finite and raises :class:`NonFiniteError`
otherwise; overflow never propagates silently.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "Tensor",
    "Parameter",
    "Tape",
    "NonFiniteError",
    "ShapeError",
    "add",
    "hadamard",
    "scale_rows",
    "matmul",
    "linear",
    "sigmoid",
    "tanh",
    "relu",
    "concat",
    "reshape",
    "total",
    "gru_sequence",
    "conv1d",
    "max_over_time",
    "avg_over_time",
    "mse_loss",
    "mae_sum_loss",
    "grad_check",
]


class NonFiniteError(ArithmeticError):
    """An operation produced NaN or infinity."""


class ShapeError(ValueError):
    """Operand shapes violate an operation's contract."""


_open_tapes: list = []  # innermost last


def _active_tape():
    return _open_tapes[-1] if _open_tapes else None


class Tensor:
    """Dense array of 64-bit reals, row-major."""

    def __init__(self, values, _op: str = "tensor"):
        arr = np.asarray(values, dtype=np.float64)
        if not np.isfinite(arr).all():
            raise NonFiniteError(f"{_op} produced a non-finite value")
        self.values = arr

    @property
    def shape(self) -> tuple:
        return self.values.shape

    @property
    def size(self) -> int:
        return self.values.size

    def item(self) -> float:
        if self.values.size != 1:
            raise ShapeError(f"item() needs a single element, got shape {self.shape}")
        return float(self.values.reshape(()))

    def __repr__(self):
        return f"Tensor(shape={self.shape})"


class Parameter(Tensor):
    """Trainable tensor with a stable name and an accumulated gradient."""

    def __init__(self, values, name: str):
        # C order, so that a flat reshape of the values or the gradient is a view
        super().__init__(np.asarray(values, dtype=np.float64, order="C"),
                         _op=f"parameter {name}")
        self.name = name
        self.grad = np.zeros_like(self.values)

    def zero_grad(self) -> None:
        self.grad[...] = 0.0

    def __repr__(self):
        return f"Parameter({self.name!r}, shape={self.shape})"


class Tape:
    """Ordered record of executed ops, replayed once in reverse order.

    Entries are keyed by ``id`` of the op's output and keep that output, so
    the id stays unique while the tape lives; insertion order is execution
    order.  An entry is ``(out, parents, wanted, backward)``: the op's
    operands, which of them a gradient may reach (see :func:`_apply`), and
    the op's backward function.  Parameters accumulate in place into the
    buffer they own, so two backward calls without zeroing double a
    parameter's gradient.  A backward function may add a parameter's share
    into that buffer itself and return None in its place, to spare a
    parameter-sized temporary.
    """

    def __init__(self):
        self._entries: dict[int, tuple[Tensor, tuple, tuple, object]] = {}

    def __enter__(self) -> "Tape":
        _open_tapes.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        popped = _open_tapes.pop()
        assert popped is self
        return False

    def __len__(self) -> int:
        return len(self._entries)

    def backward(self, loss: Tensor) -> None:
        """Accumulate the gradient of ``loss`` into every reachable parameter."""
        if loss.values.shape != ():
            raise ShapeError(f"backward needs a scalar loss, got shape {loss.values.shape}")
        if id(loss) not in self._entries:
            raise ValueError("loss was not recorded on this tape")
        # adjoints of intermediates live in a scratch map so repeated sweeps stay correct
        adjoint: dict[int, np.ndarray] = {id(loss): np.ones((), dtype=np.float64)}
        for out, parents, wanted, backward in reversed(self._entries.values()):
            g = adjoint.pop(id(out), None)
            if g is None or not any(wanted):
                continue
            for parent, want, contrib in zip(parents, wanted, backward(g, wanted), strict=True):
                if not want:
                    continue
                if isinstance(parent, Parameter):
                    if contrib is not None:  # None: the op added its share in place
                        parent.grad += contrib
                else:
                    key = id(parent)
                    adjoint[key] = adjoint[key] + contrib if key in adjoint else contrib


def _receives_grad(t: Tensor, tape: Tape) -> bool:
    """The one gradient rule: a sweep of ``tape`` reaches ``t`` only if ``t``
    is a parameter or was recorded on ``tape``."""
    return isinstance(t, Parameter) or id(t) in tape._entries


def _apply(values: np.ndarray, op: str, parents: tuple, backward) -> Tensor:
    """The op's output, recorded on the innermost open tape if there is one.

    ``backward(g, wanted)`` maps the output's gradient ``g`` to one entry per
    operand, in the order of ``parents``; ``wanted[i]`` says whether a sweep
    reaches operand i, and the entry of an operand it does not reach may be
    None.  A sweep calls it at most once, and not at all when no operand is
    wanted.
    """
    out = Tensor(values, _op=op)
    tape = _active_tape()
    if tape is not None:
        wanted = tuple(_receives_grad(p, tape) for p in parents)
        tape._entries[id(out)] = (out, parents, wanted, backward)
    return out


_BLOCK_COLUMNS = 512


def _add_product(out: np.ndarray, a: np.ndarray, b: np.ndarray) -> None:
    """``out += a @ b``, a block of columns at a time, with no temporary as large as ``out``."""
    for lo in range(0, b.shape[1], _BLOCK_COLUMNS):
        out[:, lo:lo + _BLOCK_COLUMNS] += a @ b[:, lo:lo + _BLOCK_COLUMNS]


def _require_same_shape(a: Tensor, b: Tensor, op: str) -> None:
    if a.shape != b.shape:
        raise ShapeError(f"{op} needs equal shapes, got {a.shape} and {b.shape}")


# ---------------------------------------------------------------------------
# elementwise ops

def add(a: Tensor, b: Tensor) -> Tensor:
    _require_same_shape(a, b, "add")
    return _apply(a.values + b.values, "add", (a, b), lambda g, wanted: (g, g))


def hadamard(a: Tensor, b: Tensor) -> Tensor:
    _require_same_shape(a, b, "hadamard")
    av, bv = a.values, b.values
    return _apply(av * bv, "hadamard", (a, b), lambda g, wanted: (g * bv, g * av))


def scale_rows(x: Tensor, w: Tensor) -> Tensor:
    """Row i of an R x C matrix, or of each matrix of a batch, times w[i],
    for a length-R ``w``."""
    xv, wv = x.values, w.values
    if xv.ndim < 2 or wv.shape != (xv.shape[-2],):
        raise ShapeError(f"scale_rows needs an R x C matrix (or a batch of them) and "
                         f"R weights, got shapes {x.shape} and {w.shape}")
    col = wv[:, None]
    return _apply(xv * col, "scale_rows", (x, w),
                  lambda g, wanted: (g * col if wanted[0] else None,
                                     (g * xv).sum(axis=-1).reshape(-1, wv.size).sum(axis=0)))


def _logistic(x: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-x)) without overflow for large |x|: exp(x) / (1 + exp(x)) below 0."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def sigmoid(a: Tensor) -> Tensor:
    out = _logistic(a.values)
    return _apply(out, "sigmoid", (a,), lambda g, wanted: (g * out * (1.0 - out),))


def tanh(a: Tensor) -> Tensor:
    out = np.tanh(a.values)
    return _apply(out, "tanh", (a,), lambda g, wanted: (g * (1.0 - out * out),))


def relu(a: Tensor) -> Tensor:
    x = a.values
    mask = x > 0
    return _apply(np.where(mask, x, 0.0), "relu", (a,), lambda g, wanted: (g * mask,))


# ---------------------------------------------------------------------------
# shape ops

def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product; also matrix @ vector and vector @ matrix."""
    av, bv = a.values, b.values
    if av.ndim == 2 and bv.ndim == 2:
        if av.shape[1] != bv.shape[0]:
            raise ShapeError(f"matmul inner dims disagree: {av.shape} @ {bv.shape}")
        return _apply(av @ bv, "matmul", (a, b), lambda g, wanted: (g @ bv.T, av.T @ g))
    if av.ndim == 2 and bv.ndim == 1:
        if av.shape[1] != bv.shape[0]:
            raise ShapeError(f"matmul inner dims disagree: {av.shape} @ {bv.shape}")
        return _apply(av @ bv, "matmul", (a, b), lambda g, wanted: (np.outer(g, bv), av.T @ g))
    if av.ndim == 1 and bv.ndim == 2:
        if av.shape[0] != bv.shape[0]:
            raise ShapeError(f"matmul inner dims disagree: {av.shape} @ {bv.shape}")
        return _apply(av @ bv, "matmul", (a, b), lambda g, wanted: (bv @ g, np.outer(av, g)))
    raise ShapeError(f"matmul supports 2-D/1-D operands only, got {av.ndim}-D @ {bv.ndim}-D")


def linear(x: Tensor, W: Tensor, b: Tensor | None = None) -> Tensor:
    """``x @ W.T + b`` for an in-vector or a B x in matrix and an out x in ``W``."""
    xv, wv = x.values, W.values
    if (xv.ndim not in (1, 2) or wv.ndim != 2 or xv.shape[-1] != wv.shape[1]
            or (b is not None and b.shape != wv.shape[:1])):
        raise ShapeError(f"linear needs an in-vector or B x in input, an out x in weight and "
                         f"an out bias, got shapes {x.shape}, {W.shape} and "
                         f"{None if b is None else b.shape}")
    out = xv @ wv.T
    if b is not None:
        out += b.values
    rows = xv.reshape(-1, wv.shape[1])
    parents = (x, W) if b is None else (x, W, b)

    def backward(g, wanted):
        g_rows = g.reshape(-1, wv.shape[0])
        return (g @ wv, g_rows.T @ rows, g_rows.sum(axis=0))[:len(parents)]

    return _apply(out, "linear", parents, backward)


def concat(tensors, axis: int = 0) -> Tensor:
    tensors = list(tensors)
    if not tensors:
        raise ShapeError("concat needs at least one tensor")
    out = np.concatenate([t.values for t in tensors], axis=axis)
    ends = np.cumsum([t.values.shape[axis] for t in tensors])[:-1]
    return _apply(out, "concat", tuple(tensors), lambda g, wanted: np.split(g, ends, axis=axis))


def reshape(a: Tensor, shape) -> Tensor:
    old = a.shape
    return _apply(a.values.reshape(shape), "reshape", (a,), lambda g, wanted: (g.reshape(old),))


def total(a: Tensor) -> Tensor:
    """Sum of all elements, as a scalar."""
    shape = a.shape
    return _apply(a.values.sum(), "total", (a,),
                  lambda g, wanted: (np.full(shape, g, dtype=np.float64),))


# ---------------------------------------------------------------------------
# sequence ops

def gru_sequence(x: Tensor, weights, h0: Tensor | None = None,
                 reverse: bool = False) -> Tensor:
    """GRU states over the rows of a T x I sequence, as one T x H tensor.

    A B x T x I batch of sequences gives B x T x H states; a 2-D input is the
    batch of one without the axis.  ``weights`` is (W, U) or (W, U, b): W is
    3H x I, U is 3H x H and b has length 3H, each stacked as the z, r and h
    gate blocks in that order.  With W_z the first H rows of W, and so on,
    one step is

        z = sigmoid(W_z x + U_z h + b_z)     r = sigmoid(W_r x + U_r h + b_r)
        c = tanh(W_h x + r * (U_h h) + b_h)  h' = z * h + (1 - z) * c

    from ``h0`` (H, or B x H for a batch; zeros when None).  With ``reverse``
    the rows are consumed last to first; row t of the output is always the
    state after input row t.  The input projection of every sample, step and
    gate is one GEMM outside the recurrence, and each step's recurrence is
    one B x H by H x 3H GEMM (Appleyard et al., arXiv:1604.01946).  The
    backward pass is hand-written BPTT that forms each weight gradient once
    per batch, a parameter W's by adding into its buffer in place; one pass
    gives every operand's gradient, and the input's is skipped when the
    input is a constant.
    """
    weights = tuple(weights)
    if len(weights) not in (2, 3):
        raise ShapeError(f"gru_sequence needs (W, U) or (W, U, b), got {len(weights)} tensors")
    xv = x.values
    if xv.ndim not in (2, 3) or 0 in xv.shape[:-1]:
        raise ShapeError(f"gru_sequence needs a non-empty T x I or B x T x I input, "
                         f"got shape {x.shape}")
    W, U = weights[0].values, weights[1].values
    H = W.shape[0] // 3 if W.ndim == 2 else 0
    if (H == 0 or W.shape != (3 * H, xv.shape[-1]) or U.shape != (3 * H, H)
            or any(b.shape != (3 * H,) for b in weights[2:])):
        raise ShapeError(f"gru_sequence weight shapes {[w.shape for w in weights]} do not "
                         f"stack three gates over an input of width {xv.shape[-1]}")
    h_shape = xv.shape[:-2] + (H,)
    if h0 is not None and h0.shape != h_shape:
        raise ShapeError(f"gru_sequence initial state has shape {h0.shape}, expected {h_shape}")

    *_, T, I = xv.shape
    rows = xv.reshape(-1, I)  # row b * T + t is input row t of sample b
    B = rows.shape[0] // T
    pre = rows @ W.T
    if len(weights) == 3:
        pre += weights[2].values
    pre = pre.reshape(B, T, 3 * H)
    # the state after input row t is states[:, t + new], the one before it states[:, t + 1 - new]
    new = 0 if reverse else 1
    steps = range(T - 1, -1, -1) if reverse else range(T)
    states = np.empty((B, T + 1, H))
    h = states[:, T * (1 - new)]
    h[...] = 0.0 if h0 is None else h0.values.reshape(B, H)
    zr = np.empty((B, T, 2 * H))
    recur_c = np.empty((B, T, H))  # U_h h_prev
    cand = np.empty((B, T, H))
    UT = U.T
    for t in steps:
        g = h @ UT
        zr[:, t] = _logistic(pre[:, t, :2 * H] + g[:, :2 * H])
        z, r = zr[:, t, :H], zr[:, t, H:]
        recur_c[:, t] = g[:, 2 * H:]
        cand[:, t] = np.tanh(pre[:, t, 2 * H:] + r * recur_c[:, t])
        h = z * h + (1.0 - z) * cand[:, t]
        states[:, t + new] = h
    out = states[:, new:new + T].reshape(h_shape[:-1] + (T, H))

    def bptt(g, wanted):
        gs = g.reshape(B, T, H)
        d_pre = np.empty((B, T, 3 * H))  # z, r and candidate pre-activations
        dh = np.zeros((B, H))
        for t in reversed(steps):
            dh = dh + gs[:, t]
            z, r, c = zr[:, t, :H], zr[:, t, H:], cand[:, t]
            dc = dh * (1.0 - z) * (1.0 - c * c)
            d = d_pre[:, t]
            d[:, :H] = dh * (states[:, t + 1 - new] - c) * z * (1.0 - z)
            d[:, H:2 * H] = dc * recur_c[:, t] * r * (1.0 - r)
            d[:, 2 * H:] = dc
            dh = dh * z + np.concatenate((d[:, :2 * H], dc * r), axis=1) @ U
        d_rows = d_pre.reshape(B * T, 3 * H)  # in the row order of ``rows``
        dx = (d_rows @ W).reshape(xv.shape) if wanted[0] else None
        dW = None
        if isinstance(weights[0], Parameter):  # in place: W is 12.6 MB at paper dims
            _add_product(weights[0].grad, d_rows.T, rows)
        elif wanted[1]:
            dW = d_rows.T @ rows
        db = d_rows.sum(axis=0)
        d_pre[..., 2 * H:] *= zr[..., H:]  # now the gradient of U @ h_prev
        dU = d_rows.T @ states[:, 1 - new:1 - new + T].reshape(B * T, H)
        return ([dx, dW, dU] + ([db] if len(weights) == 3 else [])
                + ([dh.reshape(h_shape)] if h0 is not None else []))

    parents = (x,) + weights + (() if h0 is None else (h0,))
    return _apply(out, "gru_sequence", parents, bptt)


def conv1d(x: Tensor, kernels: Tensor, bias: Tensor) -> Tensor:
    """Valid convolution of an L x D sequence, or of each of a B x L x D
    batch, with F kernels of width k.

    out[..., t, f] = bias[f] + sum_{j<k, d<D} x[..., t+j, d] * kernels[f, j, d]

    One GEMM of every input row against all F x k kernel slices gives
    ``prod[..., s, f, j] = x[..., s, :] . kernels[f, j, :]``, and output row t
    sums ``prod[..., t+j, f, j]`` over j.  The input and kernel gradients are
    one GEMM each over the same (row, f, j) layout, so no window is copied.
    """
    xv, kv, bv = x.values, kernels.values, bias.values
    if xv.ndim not in (2, 3) or kv.ndim != 3 or bv.ndim != 1:
        raise ShapeError("conv1d needs input L x D or B x L x D, kernels F x k x D, bias F")
    L, D = xv.shape[-2:]
    F, k, Dk = kv.shape
    if Dk != D:
        raise ShapeError(f"kernel feature width {Dk} != input width {D}")
    if bv.shape[0] != F:
        raise ShapeError(f"bias length {bv.shape[0]} != filter count {F}")
    if k > L:
        raise ShapeError(f"kernel size {k} exceeds sequence length {L}")
    n = L - k + 1
    rows = xv.reshape(-1, D)
    slices = kv.reshape(F * k, D)
    prod = (rows @ slices.T).reshape(xv.shape[:-1] + (F, k))
    out = prod[..., :n, :, 0].copy()
    for j in range(1, k):
        out += prod[..., j:j + n, :, j]
    out += bv
    prod_shape = prod.shape  # the backward keeps the shape, not the products

    def spread(g):
        """The output gradient at the (row, f, j) product each output term used."""
        full = np.zeros(prod_shape)
        for j in range(k):
            full[..., j:j + n, :, j] = g
        return full.reshape(-1, F * k)

    def backward(g, wanted):
        full = spread(g)
        return ((full @ slices).reshape(xv.shape) if wanted[0] else None,
                (full.T @ rows).reshape(kv.shape),
                g.reshape(-1, F).sum(axis=0))

    return _apply(out, "conv1d", (x, kernels, bias), backward)


def max_over_time(x: Tensor) -> Tensor:
    """Per-column maximum over the rows of an L x D matrix, or of each
    matrix of a batch; ties break to the first row."""
    xv = x.values
    if xv.ndim < 2:
        raise ShapeError(f"max_over_time needs a 2-D or batched input, got shape {x.shape}")
    idx = np.expand_dims(xv.argmax(axis=-2), -2)

    def backward(g, wanted):
        dx = np.zeros_like(xv)
        np.put_along_axis(dx, idx, np.expand_dims(g, -2), axis=-2)
        return (dx,)

    return _apply(xv.max(axis=-2), "max_over_time", (x,), backward)


def avg_over_time(x: Tensor) -> Tensor:
    """Per-column mean over the rows of an L x D matrix, or of each matrix of a batch."""
    xv = x.values
    if xv.ndim < 2:
        raise ShapeError(f"avg_over_time needs a 2-D or batched input, got shape {x.shape}")
    L = xv.shape[-2]
    return _apply(xv.mean(axis=-2), "avg_over_time", (x,),
                  lambda g, wanted: (np.repeat(np.expand_dims(g / L, -2), L, axis=-2),))


# ---------------------------------------------------------------------------
# losses

def mse_loss(pred: Tensor, target: Tensor) -> Tensor:
    """(1/n) * sum((pred - target)^2), as a scalar."""
    _require_same_shape(pred, target, "mse_loss")
    n = pred.size
    if n == 0:
        raise ShapeError("mse_loss needs at least one element")
    diff = pred.values - target.values
    return _apply(np.asarray((diff * diff).mean()), "mse_loss", (pred, target),
                  lambda g, wanted: (g * 2.0 * diff / n, g * -2.0 * diff / n))


def mae_sum_loss(pred: Tensor, target: Tensor) -> Tensor:
    """sum(|pred - target|), as a scalar; subgradient 0 at exact ties."""
    _require_same_shape(pred, target, "mae_sum_loss")
    diff = pred.values - target.values
    sign = np.sign(diff)
    return _apply(np.asarray(np.abs(diff).sum()), "mae_sum_loss", (pred, target),
                  lambda g, wanted: (g * sign, g * -sign))


# ---------------------------------------------------------------------------
# finite-difference checking

def grad_check(function, params, eps: float = 1e-5) -> float:
    """Compare tape gradients of ``function()`` against central differences.

    ``function`` must rebuild its graph from the current parameter values
    on every call and return a scalar tensor.  Returns the worst relative
    error ``|a - b| / max(1e-8, |a| + |b|)`` over every coordinate of
    ``params``.
    """
    params = list(params)
    for p in params:
        p.zero_grad()
    with Tape() as tape:
        out = function()
    tape.backward(out)
    analytic = [p.grad.copy() for p in params]

    def value() -> float:
        return float(function().values)

    worst = 0.0
    for p, a in zip(params, analytic):
        flat = p.values.reshape(-1)
        aflat = a.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            hi = value()
            flat[i] = orig - eps
            lo = value()
            flat[i] = orig
            numeric = (hi - lo) / (2.0 * eps)
            err = abs(aflat[i] - numeric) / max(1e-8, abs(aflat[i]) + abs(numeric))
            if err > worst:
                worst = err
    return worst
