"""Tape ops that only the tests use.

The per-gate GRU oracle in ``test_model.py`` cuts gate blocks out of the
stacked weights with :func:`slice_axis`, forms ``1 - z`` with :func:`sub`
and stacks its states with :func:`stack_rows`; the model itself needs
none of them.  The op tests use :func:`scale` as a simple linear op.

:func:`gru_sequence` (one T x I sequence) and :func:`conv1d` (one L x D
matrix, by ``einsum``) are the single-sample ops the batched ones in
``iben.autodiff`` replaced, kept as their oracles.  :func:`batched_gru_sequence`
and :func:`batched_conv1d` are the batched ops as they were before all-zero
input rows were left out of their products, kept as the oracles of that skip.
:func:`conv_bank` is the chain of fine ops that ``iben.autodiff.conv_bank``
replaced, kept as its oracle.  :func:`_times` and :func:`_live` are zero-row
helpers that the package's ops no longer use; the serial GRU oracle does.

:func:`serial_backward` and :func:`serial_gru_sequence` are the reverse
sweep and the GRU op on one thread and one tape: each gradient buffer
zero-filled by the caller and added into, and W's gradient added in place
by the BPTT.  They are the oracles of the sweep that writes each buffer
with its first contribution and of the model's forks.  That BPTT added
W's gradient a block of columns at a time; the package adds a product into
a used buffer whole, so these oracles hold their own blocked add,
:func:`add_product`.
"""

import numpy as np

from iben import autodiff as ad
from iben.autodiff import (
    Parameter,
    ShapeError,
    Tensor,
    _apply,
    _check_gru,
    _nonzero_rows,
    _Product,
    _require_same_shape,
    concat,
    max_over_time,
    relu,
    reshape,
)


_BLOCK_COLUMNS = 512


def _times(rows: np.ndarray, keep: np.ndarray | None, m: np.ndarray) -> np.ndarray:
    """``rows @ m``, multiplied out for the rows ``keep`` only (all rows when None)."""
    if keep is None:
        return rows @ m
    out = np.zeros((rows.shape[0], m.shape[1]))
    out[keep] = rows[keep] @ m
    return out


def _live(d_rows: np.ndarray, rows: np.ndarray, keep: np.ndarray | None) -> tuple:
    """``(d_rows, rows)`` cut to the rows ``keep``: the operands of the weight
    gradient ``d_rows.T @ rows``."""
    return (d_rows, rows) if keep is None else (d_rows[keep], rows[keep])


def add_product(out: np.ndarray, a: np.ndarray, b: np.ndarray) -> None:
    """``out += a @ b``, a block of columns at a time, with no temporary as large as ``out``."""
    for lo in range(0, b.shape[1], _BLOCK_COLUMNS):
        out[:, lo:lo + _BLOCK_COLUMNS] += a @ b[:, lo:lo + _BLOCK_COLUMNS]


def logistic(x: np.ndarray) -> np.ndarray:
    """``iben.autodiff._logistic`` as it was before its select became a maximum."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)
    return _apply(a.values * c, "scale", (a,), lambda g, wanted: (g * c,))


def sub(a: Tensor, b: Tensor) -> Tensor:
    _require_same_shape(a, b, "sub")
    return _apply(a.values - b.values, "sub", (a, b), lambda g, wanted: (g, -g))


def slice_axis(a: Tensor, axis: int, start: int, stop: int) -> Tensor:
    idx = [slice(None)] * a.values.ndim
    idx[axis] = slice(start, stop)
    idx = tuple(idx)
    shape = a.shape

    def backward(g, wanted):
        full = np.zeros(shape, dtype=np.float64)
        full[idx] = g
        return (full,)

    return _apply(a.values[idx].copy(), "slice", (a,), backward)


def stack_rows(vectors) -> Tensor:
    """Stack 1-D tensors of equal length into a matrix, one per row."""
    vectors = list(vectors)
    return concat([reshape(v, (1, v.shape[0])) for v in vectors], axis=0)


def gru_sequence(x: Tensor, weights, h0: Tensor | None = None,
                 reverse: bool = False) -> Tensor:
    """GRU states over the rows of a T x I sequence, as one T x H tensor.

    ``weights`` is (W, U) or (W, U, b): W is 3H x I, U is 3H x H and b has
    length 3H, each stacked as the z, r and h gate blocks in that order.
    With W_z the first H rows of W, and so on, one step is

        z = sigmoid(W_z x + U_z h + b_z)     r = sigmoid(W_r x + U_r h + b_r)
        c = tanh(W_h x + r * (U_h h) + b_h)  h' = z * h + (1 - z) * c

    from ``h0`` (zeros when None).  With ``reverse`` the rows are consumed
    last to first; row t of the output is always the state after input
    row t.  The input projection of all steps and gates is one GEMM outside
    the recurrence (Appleyard et al., arXiv:1604.01946).  The backward pass
    is hand-written BPTT: one pass gives every operand's gradient, and the
    input's is skipped when the input is a constant.
    """
    weights = tuple(weights)
    if len(weights) not in (2, 3):
        raise ShapeError(f"gru_sequence needs (W, U) or (W, U, b), got {len(weights)} tensors")
    xv = x.values
    if xv.ndim != 2 or xv.shape[0] == 0:
        raise ShapeError(f"gru_sequence needs a non-empty T x I input, got shape {x.shape}")
    W, U = weights[0].values, weights[1].values
    H = W.shape[0] // 3 if W.ndim == 2 else 0
    if (H == 0 or W.shape != (3 * H, xv.shape[1]) or U.shape != (3 * H, H)
            or any(b.shape != (3 * H,) for b in weights[2:])):
        raise ShapeError(f"gru_sequence weight shapes {[w.shape for w in weights]} do not "
                         f"stack three gates over an input of width {xv.shape[1]}")
    h = np.zeros(H) if h0 is None else h0.values
    if h.shape != (H,):
        raise ShapeError(f"gru_sequence initial state has shape {h.shape}, expected ({H},)")

    xs = np.ascontiguousarray(xv[::-1]) if reverse else xv
    T = xs.shape[0]
    pre = xs @ W.T
    if len(weights) == 3:
        pre += weights[2].values
    states = np.empty((T + 1, H))  # row 0 is h0, row t + 1 the state after step t
    states[0] = h
    zr = np.empty((T, 2 * H))
    recur_c = np.empty((T, H))  # U_h h_prev
    cand = np.empty((T, H))
    for t in range(T):
        g = U @ h
        zr[t] = logistic(pre[t, :2 * H] + g[:2 * H])
        z, r = zr[t, :H], zr[t, H:]
        recur_c[t] = g[2 * H:]
        cand[t] = np.tanh(pre[t, 2 * H:] + r * recur_c[t])
        h = z * h + (1.0 - z) * cand[t]
        states[t + 1] = h
    out = states[1:][::-1] if reverse else states[1:]

    def bptt(g, wanted):
        gs = g[::-1] if reverse else g
        d_pre = np.empty((T, 3 * H))  # z, r and candidate pre-activations
        d_rec = np.empty((T, 3 * H))  # the three blocks of U @ h_prev
        dh = np.zeros(H)
        for t in range(T - 1, -1, -1):
            dh = dh + gs[t]
            z, r, c = zr[t, :H], zr[t, H:], cand[t]
            dc = dh * (1.0 - z) * (1.0 - c * c)
            d_pre[t, :H] = dh * (states[t] - c) * z * (1.0 - z)
            d_pre[t, H:2 * H] = dc * recur_c[t] * r * (1.0 - r)
            d_pre[t, 2 * H:] = dc
            d_rec[t, :2 * H] = d_pre[t, :2 * H]
            d_rec[t, 2 * H:] = dc * r
            dh = dh * z + d_rec[t] @ U
        grads = [None, d_pre.T @ xs, d_rec.T @ states[:-1]]  # dx, computed below when wanted
        if len(weights) == 3:
            grads.append(d_pre.sum(axis=0))
        if h0 is not None:
            grads.append(dh)
        if wanted[0]:
            # a sum of per-gate products, not one stacked GEMM, so that a learned
            # row scaling upstream gets the bits a per-gate model gives it
            dx = (d_pre[:, :H] @ W[:H] + d_pre[:, H:2 * H] @ W[H:2 * H]
                  + d_pre[:, 2 * H:] @ W[2 * H:])
            grads[0] = dx[::-1] if reverse else dx
        return grads

    parents = (x,) + weights + (() if h0 is None else (h0,))
    return _apply(out, "gru_sequence", parents, bptt)


def conv1d(x: Tensor, kernels: Tensor, bias: Tensor) -> Tensor:
    """Valid convolution of an L x D sequence with F kernels of width k.

    out[t, f] = bias[f] + sum_{j<k, d<D} x[t+j, d] * kernels[f, j, d]
    """
    xv, kv, bv = x.values, kernels.values, bias.values
    if xv.ndim != 2 or kv.ndim != 3 or bv.ndim != 1:
        raise ShapeError("conv1d needs input LxD, kernels Fxk xD, bias F")
    L, D = xv.shape
    F, k, Dk = kv.shape
    if Dk != D:
        raise ShapeError(f"kernel feature width {Dk} != input width {D}")
    if bv.shape[0] != F:
        raise ShapeError(f"bias length {bv.shape[0]} != filter count {F}")
    if k > L:
        raise ShapeError(f"kernel size {k} exceeds sequence length {L}")
    windows = np.lib.stride_tricks.sliding_window_view(xv, k, axis=0)  # (L-k+1, D, k)
    out = np.einsum("tdj,fjd->tf", windows, kv) + bv

    def grad_x(g):
        dx = np.zeros_like(xv)
        for j in range(k):
            dx[j:j + g.shape[0], :] += g @ kv[:, j, :]
        return dx

    return _apply(
        out,
        "conv1d",
        (x, kernels, bias),
        lambda g, wanted: (grad_x(g) if wanted[0] else None,
                           np.einsum("tf,tdj->fjd", g, windows),
                           g.sum(axis=0)),
    )


def batched_gru_sequence(x: Tensor, weights, h0: Tensor | None = None,
                         reverse: bool = False) -> Tensor:
    """``iben.autodiff.gru_sequence`` with every input row in its products."""
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
        zr[:, t] = logistic(pre[:, t, :2 * H] + g[:, :2 * H])
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
        dW = d_rows.T @ rows if wanted[1] else None
        db = d_rows.sum(axis=0)
        d_pre[..., 2 * H:] *= zr[..., H:]  # now the gradient of U @ h_prev
        dU = d_rows.T @ states[:, 1 - new:1 - new + T].reshape(B * T, H)
        return ([dx, dW, dU] + ([db] if len(weights) == 3 else [])
                + ([dh.reshape(h_shape)] if h0 is not None else []))

    parents = (x,) + weights + (() if h0 is None else (h0,))
    return _apply(out, "gru_sequence", parents, bptt)


def batched_conv1d(x: Tensor, kernels: Tensor, bias: Tensor) -> Tensor:
    """``iben.autodiff.conv1d`` with every input row in its products."""
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


def conv_bank(x: Tensor, kernels, biases) -> Tensor:
    """``iben.autodiff.conv_bank`` as the chain of ops it replaced: per kernel
    tensor a ``conv1d``, ``relu`` and ``max_over_time`` entry, then one ``concat``."""
    return concat([max_over_time(relu(ad.conv1d(x, k, b))) for k, b in zip(kernels, biases)],
                  axis=-1)


def serial_backward(tape, loss: Tensor) -> None:
    """``Tape.backward`` with every contribution added on the caller's thread
    into a buffer that holds the gradient so far; a product is multiplied out
    first.  The caller zero-fills the buffers (``p.grad[...] = 0.0``)."""
    adjoint = {id(loss): np.ones((), dtype=np.float64)}
    for out, parents, wanted, backward in reversed(tape._entries.values()):
        g = adjoint.pop(id(out), None)
        if g is None or not any(wanted):
            continue
        for parent, want, contrib in zip(parents, wanted, backward(g, wanted), strict=True):
            if not want:
                continue
            if isinstance(contrib, _Product):
                contrib = (contrib.a @ contrib.b).reshape(parent.shape)
            if isinstance(parent, Parameter):
                if contrib is not None:  # None: the op added its share in place
                    parent.grad += contrib
            else:
                key = id(parent)
                adjoint[key] = adjoint[key] + contrib if key in adjoint else contrib


def _serial_gru(x: Tensor, weights: tuple, h0: Tensor | None, reverse: bool,
                keep: np.ndarray | None):
    """One GRU direction's states and its BPTT function, which adds a
    parameter W's gradient into its buffer in place."""
    xv = x.values
    *_, T, I = xv.shape
    W, U = weights[0].values, weights[1].values
    H = U.shape[1]
    h_shape = xv.shape[:-2] + (H,)
    rows = xv.reshape(-1, I)
    B = rows.shape[0] // T
    pre = _times(rows, keep, W.T)
    if len(weights) == 3:
        pre += weights[2].values
    pre = pre.reshape(B, T, 3 * H)
    new = 0 if reverse else 1
    steps = range(T - 1, -1, -1) if reverse else range(T)
    states = np.empty((B, T + 1, H))
    h = states[:, T * (1 - new)]
    h[...] = 0.0 if h0 is None else h0.values.reshape(B, H)
    zr = np.empty((B, T, 2 * H))
    recur_c = np.empty((B, T, H))
    cand = np.empty((B, T, H))
    UT = U.T
    for t in steps:
        g = h @ UT
        zr[:, t] = logistic(pre[:, t, :2 * H] + g[:, :2 * H])
        z, r = zr[:, t, :H], zr[:, t, H:]
        recur_c[:, t] = g[:, 2 * H:]
        cand[:, t] = np.tanh(pre[:, t, 2 * H:] + r * recur_c[:, t])
        h = z * h + (1.0 - z) * cand[:, t]
        states[:, t + new] = h
    out = states[:, new:new + T].reshape(h_shape[:-1] + (T, H))

    def bptt(g, wanted):
        gs = g.reshape(B, T, H)
        d_pre = np.empty((B, T, 3 * H))
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
        d_rows = d_pre.reshape(B * T, 3 * H)
        dx = (d_rows @ W).reshape(xv.shape) if wanted[0] else None
        dW = None
        if wanted[1]:
            d_live, x_live = _live(d_rows, rows, keep)
            if isinstance(weights[0], Parameter):
                add_product(weights[0].grad, d_live.T, x_live)
            else:
                dW = d_live.T @ x_live
        db = d_rows.sum(axis=0)
        d_pre[..., 2 * H:] *= zr[..., H:]
        dU = d_rows.T @ states[:, 1 - new:1 - new + T].reshape(B * T, H)
        return ([dx, dW, dU] + ([db] if len(weights) == 3 else [])
                + ([dh.reshape(h_shape)] if h0 is not None else []))

    return out, bptt


def serial_gru_sequence(x: Tensor, weights, h0: Tensor | None = None,
                        reverse: bool = False) -> Tensor:
    weights = tuple(weights)
    _check_gru(x, weights, h0, "gru_sequence")
    out, bptt = _serial_gru(x, weights, h0, reverse,
                            _nonzero_rows(x.values.reshape(-1, x.shape[-1])))
    parents = (x,) + weights + (() if h0 is None else (h0,))
    return _apply(out, "gru_sequence", parents, bptt)
