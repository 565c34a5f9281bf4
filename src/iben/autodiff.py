"""Dense float64 tensors with tape-based reverse-mode differentiation.

Graphs are recorded onto an explicit :class:`Tape` used as a context
manager; outside any tape, every op is plain (and cheaper) numpy compute.
The reverse sweep replays the recorded entries exactly once, in reverse
execution order, and calls each entry's one backward function once for
all of its operands.  A gradient reaches a tensor only if it was recorded
on the tape being swept or is a :class:`Parameter`; every other operand is
a constant, which the backward function is told so that it can skip that
gradient, and only parameters carry a ``.grad``.  The open tape belongs to
the context (a ``contextvars`` variable): an op is recorded on the
innermost tape opened in its own thread's context, and a task given to the
worker thread starts from a copy of its caller's.  A tape knows the
tensors it recorded, and a tensor does not refer to its tape, so a
finished graph is freed by reference counting alone.

The module has one worker thread.  :func:`run_both` runs two pieces of
numpy work, one there and one on the caller's thread, when the process may
use two CPUs, and one after the other when it may not; ``_on_two_threads``
is the one place that asks, and says which it will do.  :func:`fork`
records two branches of a graph on tapes of their own through it, and the
fork's entry on the caller's tape sweeps the two branch tapes the same way.
The outermost ``run_both`` holds the worker, and every ``run_both`` inside
either of its pieces runs its two pieces in turn on its own thread.  A
parameter's gradient buffer is written by its first contribution after
``zero_grad``, not zero-filled first.

The sequence ops leave input rows that are all zero (word-vector padding)
out of their products with the input's weights, which are exactly zero
there; an input's gradient still covers every row.  One private recurrence
kernel steps one GRU direction (:func:`gru_sequence`) or a Bi-GRU's two
(:func:`bi_gru_sequence`, one tape entry) over the same input, with one
numpy call per step serving both directions, unless the Bi-GRU forks them
(see there).  Every op verifies its output is finite and raises
:class:`NonFiniteError` otherwise; overflow never propagates silently.
"""

from __future__ import annotations

import contextvars
import os
from concurrent.futures import ThreadPoolExecutor, wait

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
    "bi_gru_sequence",
    "conv1d",
    "max_over_time",
    "avg_over_time",
    "mse_loss",
    "mae_sum_loss",
    "grad_check",
    "run_both",
    "fork",
    "FORK_MIN_MADDS",
]


class NonFiniteError(ArithmeticError):
    """An operation produced NaN or infinity."""


class ShapeError(ValueError):
    """Operand shapes violate an operation's contract."""


_open_tape: contextvars.ContextVar = contextvars.ContextVar("iben_open_tape", default=None)


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
    """Trainable tensor with a stable name and an accumulated gradient.

    The gradient lives in one buffer for the parameter's life: ``p.grad`` is
    always the same array, and ``p.grad *= f`` or ``p.grad[...] = v`` write
    into it.
    """

    def __init__(self, values, name: str):
        # C order, so that a flat reshape of the values or the gradient is a view
        super().__init__(np.asarray(values, dtype=np.float64, order="C"),
                         _op=f"parameter {name}")
        self.name = name
        self._grad = np.zeros_like(self.values)
        self._grad_empty = False  # True: the buffer's values are stale and read as zeros

    @property
    def grad(self) -> np.ndarray:
        if self._grad_empty:
            self._grad[...] = 0.0
            self._grad_empty = False
        return self._grad

    @grad.setter
    def grad(self, values) -> None:
        if values is not self._grad:  # ``p.grad *= f`` assigns the buffer to itself
            self._grad[...] = values
        self._grad_empty = False

    def zero_grad(self) -> None:
        """Mark the gradient empty without writing it: the next contribution a
        reverse sweep makes is written into the buffer instead of added, and
        reading ``grad`` before any contribution fills the buffer with zeros."""
        self._grad_empty = True

    def _accumulate(self, contrib) -> None:
        """Add ``contrib``, an array or a :class:`_Product`, to the gradient;
        the first contribution after :meth:`zero_grad` is written, not added."""
        if isinstance(contrib, _Product):
            out = self._grad.reshape(contrib.a.shape[0], contrib.b.shape[1])
            if self._grad_empty:
                np.matmul(contrib.a, contrib.b, out=out)
            else:
                out += contrib.a @ contrib.b
        elif self._grad_empty:
            self._grad[...] = contrib
        else:
            self._grad += contrib
        self._grad_empty = False

    def __repr__(self):
        return f"Parameter({self.name!r}, shape={self.shape})"


class _Product:
    """The weight gradient ``a @ b``, not yet multiplied out, so that a
    parameter's first contribution is formed in its gradient buffer with no
    temporary and no copy; the sweep reshapes it to any other operand's shape.

    The operands must not change until the reverse sweep has formed it.
    """

    __slots__ = ("a", "b")

    def __init__(self, a: np.ndarray, b: np.ndarray):
        self.a, self.b = a, b


class Tape:
    """Ordered record of executed ops, replayed once in reverse order.

    Entries are keyed by ``id`` of the op's output and keep that output, so
    the id stays unique while the tape lives; insertion order is execution
    order.  An entry is ``(out, parents, wanted, backward)``: the op's
    operands, which of them a gradient may reach (see :func:`_apply`), and
    the op's backward function.  Parameters accumulate into the buffer they
    own, the first contribution after ``zero_grad`` written and later ones
    added, so two backward calls without zeroing double a parameter's
    gradient.  A fork's entry (see :func:`fork`) has no operands; its
    backward sweeps the fork's two branch tapes, whose entries count in the
    tape's length.
    """

    def __init__(self):
        self._entries: dict[int, tuple[Tensor, tuple, tuple, object]] = {}
        self._forks: list[Tape] = []  # the branch tapes of this tape's forks
        self._tokens: list[contextvars.Token] = []  # one per open ``with``, innermost last

    def __enter__(self) -> "Tape":
        self._tokens.append(_open_tape.set(self))
        return self

    def __exit__(self, exc_type, exc, tb):
        _open_tape.reset(self._tokens.pop())
        return False

    def __len__(self) -> int:
        return len(self._entries) + sum(map(len, self._forks))

    def backward(self, loss: Tensor) -> None:
        """Accumulate the gradient of ``loss`` into every reachable parameter."""
        if loss.values.shape != ():
            raise ShapeError(f"backward needs a scalar loss, got shape {loss.values.shape}")
        if id(loss) not in self._entries:
            raise ValueError("loss was not recorded on this tape")
        self._sweep(loss, np.ones((), dtype=np.float64))

    def _sweep(self, root: Tensor, g: np.ndarray) -> None:
        """Carry ``g``, the gradient of ``root``, through the entries in reverse."""
        # adjoints of intermediates live in a scratch map so repeated sweeps stay correct
        adjoint: dict[int, np.ndarray] = {id(root): g}
        for out, parents, wanted, backward in reversed(self._entries.values()):
            g = adjoint.pop(id(out), None)
            if g is None or (parents and not any(wanted)):
                continue
            contribs, g = backward(g, wanted), None  # a generator may free g once it is read
            for parent, want, contrib in zip(parents, wanted, contribs, strict=True):
                if not want:
                    continue
                if isinstance(parent, Parameter):
                    parent._accumulate(contrib)
                    continue
                if isinstance(contrib, _Product):
                    contrib = (contrib.a @ contrib.b).reshape(parent.shape)
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
    wanted.  It may return an iterator: the sweep holds no reference to
    ``g`` meanwhile, and it takes each entry, and forms it if it is a
    :class:`_Product`, before it asks for the next.
    """
    out = Tensor(values, _op=op)
    tape = _open_tape.get()
    if tape is not None:
        wanted = tuple(_receives_grad(p, tape) for p in parents)
        tape._entries[id(out)] = (out, parents, wanted, backward)
    return out


# ---------------------------------------------------------------------------
# the second core

def _new_worker() -> ThreadPoolExecutor:
    return ThreadPoolExecutor(max_workers=1, thread_name_prefix="iben-worker")


_worker = _new_worker()  # its one thread starts at the first concurrent call
_holds_worker = contextvars.ContextVar("iben_holds_worker", default=False)
if hasattr(os, "register_at_fork"):  # a forked child lacks the parent's worker thread
    os.register_at_fork(after_in_child=lambda: globals().update(_worker=_new_worker()))


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _on_two_threads(concurrent: bool) -> bool:
    """Whether :func:`run_both` called here with ``concurrent`` runs its two
    pieces on two threads: when asked to, where the process may use two CPUs
    and the worker is not held (see there)."""
    return concurrent and _usable_cpus() >= 2 and not _holds_worker.get()


def run_both(first, second, concurrent: bool) -> tuple:
    """``(first(), second())``.

    When ``concurrent`` is true and the process may use at least two CPUs,
    ``second`` runs on the module's one worker thread while ``first`` runs on
    the caller's thread, each under a copy of the caller's context (so the
    caller's ``np.errstate`` and open tape hold in both).  An exception from
    either is raised only after both have finished, ``first``'s in
    preference.  Neither may record on a tape that it did not open, as both
    would then write to the same tape.

    The outermost call holds the worker: both copies mark it held, so a
    ``run_both`` inside ``first`` or ``second`` runs its two pieces one after
    the other on its own thread.  A task queued behind the worker's running
    one would wait for it, and on the worker itself, forever.
    """
    if not _on_two_threads(concurrent):
        return first(), second()
    context = contextvars.copy_context()
    context.run(_holds_worker.set, True)
    future = _worker.submit(context.copy().run, second)
    try:
        result = context.run(first)
    finally:
        wait((future,))
    return result, future.result()


def fork(first, second, concurrent: bool) -> Tensor:
    """``concat([first(), second()], axis=-1)`` for two branches of a graph.

    When ``concurrent`` is true, the branches run through :func:`run_both`:
    on two threads, ``second`` on the worker, when the process may use two
    CPUs, and one after the other when it may not.  Under an open tape, each
    branch then records on a tape of its own, and the open tape records one
    entry for the fork.  The sweep of that entry splits the output's
    gradient and sweeps the two branch tapes through :func:`run_both` too,
    each from its own share.  A branch tape passes gradient only to
    parameters and to what the branch recorded, so neither branch may read
    another tensor that a sweep of the open tape reaches, and no parameter
    may be reached from both.  Each parameter's contributions then come from
    one thread in the order of a serial sweep, so the bits do not depend on
    the path.  Inside another ``run_both`` the branches run in turn (see
    there), each still on a tape of its own.
    """
    tape = _open_tape.get()
    if not concurrent or tape is None:
        return concat(run_both(first, second, concurrent), axis=-1)

    def record(branch):
        with Tape() as branch_tape:
            return branch_tape, branch()

    (tape_a, a), (tape_b, b) = run_both(lambda: record(first), lambda: record(second), True)
    out = Tensor(np.concatenate((a.values, b.values), axis=-1), _op="fork")
    width = a.shape[-1]

    def backward(g, wanted):
        run_both(lambda: tape_a._sweep(a, g[..., :width]),
                 lambda: tape_b._sweep(b, g[..., width:]), True)
        return ()

    tape._entries[id(out)] = (out, (), (), backward)
    tape._forks += (tape_a, tape_b)
    return out


# Multiply-adds per forward pass of each of two pieces of work from which they run on two
# threads: the model's two branches (``IbenModel.forward``) and a Bi-GRU's two directions
# (one direction's input projection over its live rows, ``bi_gru_sequence``).  On a 2-vCPU
# VM with one BLAS thread, a forward pass and sweep with the branch split took 1.1-1.4x as
# long as without it where the smaller branch had 0.26M-6.7M multiply-adds (the overfit
# criterion's dims), 0.86-1.23x at 10M, 0.86-1.07x at 20M-29M, 0.83x at 40M, and
# 0.60-0.68x at paper dims (35M at batch 1, 557M at batch 16).  A Bi-GRU's directions forked
# against stepped together (one-branch batches at paper dims, forward pass and sweep, then
# ``predict``, 3 rounds): A-only 0.67-0.69x, 0.63-0.70x at 19M and 0.66-0.72x, 0.57-0.74x at
# 38M; B-only with every row live 1.03-1.06x, 1.06-1.12x at 28M, 0.90-1.08x, 0.88-1.14x at
# 41M and 0.86-0.93x, 0.78-0.85x at 55M; with 8 of 40 rows live 0.88-0.96x, 0.81-0.84x at
# 22M, 0.84-0.93x, 0.79-0.88x at 33M and 0.78-0.85x, 0.76-0.80x at 44M.
FORK_MIN_MADDS = 1 << 25


# ---------------------------------------------------------------------------
# all-zero input rows

# Input values (rows x width) from which gru_sequence and conv1d look for all-zero
# input rows.  On a 2-vCPU VM with one BLAS thread, with 80% of the rows zero,
# the scan, gather and scatter cost 20-46 us more than they saved per op at
# 640 x 8 to 640 x 32 inputs and 36-48 product columns, broke even at 256 x 64,
# and saved 100-130 us at 640 x 64 and 1.7-2.4 ms at 640 x 900.
_SKIP_MIN_VALUES = 1 << 15


def _nonzero_rows(rows: np.ndarray) -> np.ndarray | None:
    """The indices of the rows of a 2-D array that hold a nonzero value, or
    None when every row does or the array has fewer than ``_SKIP_MIN_VALUES``
    values.

    An all-zero row's product with a weight matrix is exactly zero, and so is
    its share of that weight's gradient, so :func:`_times` and :func:`_live`
    leave it out.  The word-vector matrix's padding rows are all-zero, and so
    is an OOV token's row under ``oov: zeros``.
    """
    if rows.size < _SKIP_MIN_VALUES:
        return None
    keep = np.flatnonzero(rows.any(axis=1))
    return None if keep.size == rows.shape[0] else keep


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


def _logistic(x: np.ndarray, out: np.ndarray | None = None,
              scratch: np.ndarray | None = None) -> np.ndarray:
    """1 / (1 + exp(-x)) without overflow for large |x|: exp(x) / (1 + exp(x)) below 0.

    ``out`` (which may be ``x``) and ``scratch`` are arrays of x's shape to
    write into; fresh ones when None."""
    e = np.abs(x, out=np.empty_like(x) if scratch is None else scratch)
    np.negative(e, out=e)
    np.exp(e, out=e)
    s = np.sign(x, out=np.empty_like(x) if out is None else out)
    np.maximum(e, s, out=s)  # the numerator is 1 from x = +-0 up
    np.add(1.0, e, out=e)
    return np.divide(s, e, out=s)


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
    """Product of 2-D or 1-D operands: a 1-D left operand is one row and a 1-D
    right operand one column, and the result drops that row or column."""
    av, bv = a.values, b.values
    if av.ndim not in (1, 2) or bv.ndim not in (1, 2) or av.shape[-1] != bv.shape[0]:
        raise ShapeError(f"matmul needs 2-D or 1-D operands with equal inner dims, "
                         f"got {av.shape} @ {bv.shape}")

    def backward(g, wanted):
        rows = av if av.ndim == 2 else av[None, :]
        cols = bv if bv.ndim == 2 else bv[:, None]
        g = g.reshape(rows.shape[0], cols.shape[1])
        return (g @ cols.T).reshape(av.shape), (rows.T @ g).reshape(bv.shape)

    return _apply(av @ bv, "matmul", (a, b), backward)


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
        return (g @ wv, _Product(g_rows.T, rows), g_rows.sum(axis=0))[:len(parents)]

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

def _check_gru(x: Tensor, weights: tuple, h0: Tensor | None, op: str) -> int:
    """The hidden size H that ``weights`` stack for ``x``; raise on any shape mismatch."""
    if len(weights) not in (2, 3):
        raise ShapeError(f"{op} needs (W, U) or (W, U, b), got {len(weights)} tensors")
    xv = x.values
    if xv.ndim not in (2, 3) or 0 in xv.shape[:-1]:
        raise ShapeError(f"{op} needs a non-empty T x I or B x T x I input, got shape {x.shape}")
    W, U = weights[0].values, weights[1].values
    H = W.shape[0] // 3 if W.ndim == 2 else 0
    if (H == 0 or W.shape != (3 * H, xv.shape[-1]) or U.shape != (3 * H, H)
            or any(b.shape != (3 * H,) for b in weights[2:])):
        raise ShapeError(f"{op} weight shapes {[w.shape for w in weights]} do not "
                         f"stack three gates over an input of width {xv.shape[-1]}")
    h_shape = xv.shape[:-2] + (H,)
    if h0 is not None and h0.shape != h_shape:
        raise ShapeError(f"{op} initial state has shape {h0.shape}, expected {h_shape}")
    return H


def _step_views(a: np.ndarray, times: list, buf: np.ndarray | None = None) -> list:
    """For each step k, the D x B x W view of ``a`` (D x B x T x W) that holds
    row ``times[k][d]`` of each direction d.  ``buf`` is the C-ordered array
    whose first value is ``a[0, 0, 0, 0]``; ``a`` itself when None."""
    sD, sB, sT, sW = a.strides
    shape = (a.shape[0], a.shape[1], a.shape[3])
    buf = a if buf is None else buf
    return [np.ndarray(shape, np.float64, buf, t[0] * sT, (sD + (t[-1] - t[0]) * sT, sB, sW))
            for t in times]


def _gru(x: Tensor, cells: tuple, h0: Tensor | None, keep: np.ndarray | None):
    """D = len(cells) GRU directions over one checked input, stepped together
    (see :func:`gru_sequence` and :func:`bi_gru_sequence`): their states,
    joined on the last axis, and their BPTT function.

    ``cells`` holds each direction's ``(weights, reverse)``, all of one shape;
    ``h0`` may be given only for D = 1.  ``keep`` is ``_nonzero_rows`` of the
    input's rows.  Step k consumes input row k of a forward direction and row
    T-1-k of a reverse one.  What the steps write is stored step-major, so
    that step k of every direction is one contiguous D x B x . block, and
    each numpy call of a step but the per-direction GEMMs serves all D
    directions; each direction's arithmetic is that of D = 1.  Outside a
    tape the BPTT function is None and only the last step's U_h h_prev is
    kept.  The BPTT is a generator (see :func:`_apply`) that forms one
    direction's weight gradients after the other.  The input's gradient is
    the sum of the directions'.  Plain numpy; nothing is recorded."""
    xv = x.values
    *_, T, I = xv.shape
    D, H = len(cells), cells[0][0][1].shape[1]
    rows = xv.reshape(-1, I)  # row b * T + t is input row t of sample b
    B = rows.shape[0] // T
    times = list(zip(*(range(T - 1, -1, -1) if rev else range(T) for _, rev in cells)))

    def in_time(steps: np.ndarray, d: int) -> np.ndarray:
        """The B x T x . view, in input-row order, of direction d of a step-major array."""
        return (steps[::-1, d] if cells[d][1] else steps[:, d]).swapaxes(0, 1)

    # a sweep of the open tape may run the BPTT, which reads what every step stored.  What
    # outlives the call is allocated before what does not, so that the freed buffers leave
    # one hole: under a tape the output comes with the step storage, outside one after it
    taped = _open_tape.get() is not None
    # the input projection, until step k overwrites it with its gates z and r and its candidate
    zr, cand = np.empty((T, D, B, 2 * H)), np.empty((T, D, B, H))
    recur_c = np.empty((T if taped else 1, D, B, H))  # U_h h_prev, of every step or the last
    out = np.empty((B, T, D, H)) if taped else None
    x_live = rows if keep is None else rows[keep]
    live = None if keep is None else np.divmod(keep, T)  # (sample, row) of each live row
    proj = np.empty((x_live.shape[0], 3 * H))
    for d, (weights, _) in enumerate(cells):
        np.matmul(x_live, weights[0].values.T, out=proj)
        if len(weights) == 3:
            proj += weights[2].values
        for steps, cols in ((zr, slice(0, 2 * H)), (cand, slice(2 * H, 3 * H))):
            if live is None:
                in_time(steps, d)[...] = proj.reshape(B, T, 3 * H)[..., cols]
            else:  # an all-zero row's projection is its bias
                in_time(steps, d)[...] = 0.0 if len(weights) == 2 else 0.0 + weights[2].values[cols]
                in_time(steps, d)[live] = proj[:, cols]
    del x_live, proj
    states = np.empty((T + 1, D, B, H))  # states[k] before step k, states[k + 1] after it
    first = states[0]
    first[...] = 0.0 if h0 is None else h0.values.reshape(1, B, H)
    U = [weights[1].values for weights, _ in cells]
    uh = np.empty((D, B, 3 * H))  # U h_prev
    scratch, a = np.empty((D, B, 2 * H)), np.empty((D, B, H))
    for k in range(T):
        h, zr_k, c, h_new, rc = states[k], zr[k], cand[k], states[k + 1], recur_c[k % len(recur_c)]
        for d in range(D):
            np.matmul(h[d], U[d].T, out=uh[d])
        np.add(zr_k, uh[..., :2 * H], out=zr_k)
        _logistic(zr_k, out=zr_k, scratch=scratch)
        z, r = zr_k[..., :H], zr_k[..., H:]
        np.copyto(rc, uh[..., 2 * H:])
        np.multiply(r, rc, out=a)
        np.add(c, a, out=c)
        np.tanh(c, out=c)
        np.multiply(z, h, out=h_new)
        np.subtract(1.0, z, out=a)
        np.multiply(a, c, out=a)
        np.add(h_new, a, out=h_new)
    if not taped:
        del zr, cand, zr_k, z, r, c  # the step storage, and the last step's views of it
        out = np.empty((B, T, D, H))
    for d in range(D):
        out[:, :, d] = in_time(states[1:], d)
    if not taped:
        return out.reshape(xv.shape[:-1] + (D * H,)), None
    first = first.copy()  # the BPTT reads every later state from ``out``
    del states

    def bptt(g, wanted):
        gs = np.ascontiguousarray(g).reshape(B, T, D, H)
        grad_k = _step_views(gs.transpose(2, 0, 1, 3), times, gs)
        prev_k = [first] + _step_views(out.transpose(2, 0, 1, 3), times[:-1], out)
        # per direction, z, r and candidate pre-activations in row order
        d_pre = [np.empty((B, T, 3 * H)) for _ in cells]
        dh = np.zeros((D, B, H))
        one_minus, u = np.empty((D, B, 2 * H)), np.empty((D, B, 3 * H))
        dc = u[..., 2 * H:]  # until u becomes the gradient of U h_prev
        a, mm = np.empty((2, D, B, H))
        for k in range(T - 1, -1, -1):
            np.add(dh, grad_k[k], out=dh)
            zr_k, c = zr[k], cand[k]
            z, r = zr_k[..., :H], zr_k[..., H:]
            np.subtract(1.0, zr_k, out=one_minus)
            np.multiply(dh, one_minus[..., :H], out=dc)
            np.multiply(c, c, out=a)
            np.subtract(1.0, a, out=a)
            np.multiply(dc, a, out=dc)
            np.subtract(prev_k[k], c, out=a)
            np.multiply(dh, a, out=a)
            np.multiply(a, z, out=a)
            np.multiply(a, one_minus[..., :H], out=u[..., :H])
            np.multiply(dc, recur_c[k], out=a)
            np.multiply(a, r, out=a)
            np.multiply(a, one_minus[..., H:], out=u[..., H:2 * H])
            for d, t in enumerate(times[k]):
                np.copyto(d_pre[d][:, t], u[d])
            np.multiply(dc, r, out=dc)
            for d in range(D):
                np.matmul(u[d], U[d], out=mm[d])
            np.multiply(dh, z, out=dh)
            np.add(dh, mm, out=dh)
        del g, gs, grad_k
        # the entries are yielded in operand order, and the sweep forms each before it takes
        # the next, so a direction's d_pre is rewritten once its W's product is formed
        dx = None
        if wanted[0]:
            for d, (weights, _) in enumerate(cells):
                dx_d = d_pre[d].reshape(B * T, 3 * H) @ weights[0].values
                dx = dx_d if dx is None else np.add(dx, dx_d, out=dx)
        yield None if dx is None else dx.reshape(xv.shape)
        del dx
        n = len(cells[0][0])  # operands per direction
        x_live = rows if keep is None else rows[keep]
        h_prev = np.empty((B, T, H))  # the state before each input row
        for d, (weights, rev) in enumerate(cells):
            d_rows = d_pre[d].reshape(B * T, 3 * H)  # in the row order of ``rows``
            db = d_rows.sum(axis=0) if n == 3 else None
            if wanted[1 + d * n]:
                yield _Product((d_rows if keep is None else d_rows[keep]).T, x_live)
            else:
                yield None
            d_pre[d][..., 2 * H:] *= in_time(zr, d)[..., H:]  # now the gradient of U h_prev
            if rev:
                h_prev[:, :-1], h_prev[:, -1] = out[:, 1:, d], first[d]
            else:
                h_prev[:, 1:], h_prev[:, 0] = out[:, :-1, d], first[d]
            yield _Product(d_rows.T, h_prev.reshape(B * T, H))
            if n == 3:
                yield db
        if h0 is not None:
            yield dh.reshape(h0.shape)

    return out.reshape(xv.shape[:-1] + (D * H,)), bptt


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
    one B x H by H x 3H GEMM (Appleyard et al., arXiv:1604.01946).  Input
    rows that are all zero are left out of the projection and of W's
    gradient, whose share of them is exactly zero.  The backward pass is
    hand-written BPTT that forms each weight gradient once per batch; one
    pass gives every operand's gradient, and the input's, over every row, is
    skipped when the input is a constant.  It is the one-direction case of
    the recurrence that :func:`bi_gru_sequence` runs for two.
    """
    weights = tuple(weights)
    _check_gru(x, weights, h0, "gru_sequence")
    return _gru_sequence(x, weights, h0, reverse,
                         _nonzero_rows(x.values.reshape(-1, x.shape[-1])))


def _gru_sequence(x: Tensor, weights: tuple, h0: Tensor | None, reverse: bool,
                  keep: np.ndarray | None) -> Tensor:
    """:func:`gru_sequence` over a checked input whose ``_nonzero_rows`` are ``keep``."""
    out, bptt = _gru(x, ((weights, reverse),), h0, keep)
    parents = (x,) + weights + (() if h0 is None else (h0,))
    return _apply(out, "gru_sequence", parents, bptt)


def bi_gru_sequence(x: Tensor, fwd_weights, bwd_weights, *, concurrent: bool = False) -> Tensor:
    """``concat([gru_sequence(x, fwd_weights), gru_sequence(x, bwd_weights,
    reverse=True)], axis=-1)``, with the same bits.

    A T x I sequence gives T x 2H states, a B x T x I batch B x T x 2H, and
    both directions need the same weight shapes.  With ``concurrent`` they
    are a :func:`fork` of two ``gru_sequence`` ops where the worker is free
    (:func:`run_both`), one direction's input projection over the rows that
    are not all zero reaches ``FORK_MIN_MADDS`` multiply-adds, no sweep of
    the open tape reaches ``x`` or a weight that is not a parameter, and no
    parameter is in both directions.  Otherwise they step together as one
    op with one tape entry: step k runs the forward one on input row k and
    the backward one on row T-1-k, and every numpy call of a step but the
    two recurrence GEMMs serves both.  Either way they share one scan of the
    input for all-zero rows, and the input's gradient, when wanted, is the
    sum of the two directions' gradients.
    """
    fwd_weights, bwd_weights = tuple(fwd_weights), tuple(bwd_weights)
    shapes = [w.shape for w in fwd_weights], [w.shape for w in bwd_weights]
    if shapes[0] != shapes[1]:
        raise ShapeError(f"bi_gru_sequence directions need equal weight shapes, got "
                         f"{shapes[0]} and {shapes[1]}")
    _check_gru(x, fwd_weights, None, "bi_gru_sequence")
    rows = x.values.reshape(-1, x.shape[-1])
    keep = _nonzero_rows(rows)
    tape, live = _open_tape.get(), len(rows) if keep is None else keep.size
    # a branch tape passes no gradient to what the open tape recorded, and two threads must
    # not add into one parameter (see ``fork``); both directions read ``x``
    both = {id(x)} | {id(w) for w in fwd_weights} & {id(w) for w in bwd_weights}
    if (_on_two_threads(concurrent) and live * fwd_weights[0].size >= FORK_MIN_MADDS
            and (tape is None or not any(
                id(t) in both if isinstance(t, Parameter) else id(t) in tape._entries
                for t in (x,) + fwd_weights + bwd_weights))):
        return fork(lambda: _gru_sequence(x, fwd_weights, None, False, keep),
                    lambda: _gru_sequence(x, bwd_weights, None, True, keep), True)
    out, bptt = _gru(x, ((fwd_weights, False), (bwd_weights, True)), None, keep)
    return _apply(out, "bi_gru_sequence", (x,) + fwd_weights + bwd_weights, bptt)


def conv1d(x: Tensor, kernels: Tensor, bias: Tensor) -> Tensor:
    """Valid convolution of an L x D sequence, or of each of a B x L x D
    batch, with F kernels of width k.

    out[..., t, f] = bias[f] + sum_{j<k, d<D} x[..., t+j, d] * kernels[f, j, d]

    One GEMM of every input row against all F x k kernel slices gives
    ``prod[..., s, f, j] = x[..., s, :] . kernels[f, j, :]``, and output row t
    sums ``prod[..., t+j, f, j]`` over j.  The input and kernel gradients are
    one GEMM each over the same (row, f, j) layout, so no window is copied.
    Input rows that are all zero are left out of the product and of the
    kernel gradient, whose share of them is exactly zero.
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
    keep = _nonzero_rows(rows)
    prod = _times(rows, keep, slices.T).reshape(xv.shape[:-1] + (F, k))
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
        d_live, x_live = _live(full, rows, keep)
        return ((full @ slices).reshape(xv.shape) if wanted[0] else None,
                _Product(d_live.T, x_live),
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
    shape, L = xv.shape, xv.shape[-2]
    # a read-only view that repeats g / L over the rows, not a copy
    return _apply(xv.mean(axis=-2), "avg_over_time", (x,),
                  lambda g, wanted: (np.broadcast_to(np.expand_dims(g / L, -2), shape),))


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
