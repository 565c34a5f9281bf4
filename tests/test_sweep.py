"""The reverse sweep against the serial one, bit for bit.

``Tape.backward`` writes each gradient buffer with its first contribution
and hands large weight-gradient products to the worker thread.  Each case
compares every parameter gradient with ``oracle_ops.serial_backward`` over
the serial GRU ops: once with every product handed over (gate 0, two
CPUs), and once at the default gate, where these dims keep all work on
the caller's thread.
"""

import sys
import threading
import time

import numpy as np
import numpy.testing as npt
import pytest

import iben.autodiff as ad
import oracle_ops
from iben.autodiff import Parameter, Tape, Tensor
from iben.model import BiGru, GruCell, IbenModel, ModelConfig, bi_gru


class _CountingWorker:
    def __init__(self, worker):
        self.worker = worker
        self.calls = 0

    def submit(self, fn, *args):
        self.calls += 1
        return self.worker.submit(fn, *args)


class _NoWorker:
    def submit(self, *args, **kwargs):
        raise AssertionError("the worker thread was asked to run")


@pytest.fixture
def forced(monkeypatch):
    """Every product goes to the worker; returns the worker, which counts its submits."""
    monkeypatch.setattr(ad, "_DEFER_MIN_MADDS", 0)
    monkeypatch.setattr(ad, "_usable_cpus", lambda: 2)
    worker = _CountingWorker(ad._worker)
    monkeypatch.setattr(ad, "_worker", worker)
    return worker


@pytest.fixture(params=["deferred", "inline"])
def mode(request, monkeypatch):
    """The forced hand-off, or the default gate with a worker that must stay idle."""
    if request.param == "deferred":
        return request.getfixturevalue("forced")
    monkeypatch.setattr(ad, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(ad, "_worker", _NoWorker())
    return None


def _model_case(config, fused_shape, emb_shape, zero_rows):
    def make():
        model = IbenModel(config)
        rng = np.random.default_rng(config.seed + 1)
        fused = rng.normal(size=fused_shape)
        emb = rng.normal(size=emb_shape)
        for b, length in enumerate(zero_rows):  # padding tails, and one zero row inside
            emb[b, length:] = 0.0
        emb[0, 1] = 0.0
        goal = Tensor(rng.normal(size=fused_shape[0]))
        return (lambda: ad.mse_loss(model.forward(fused=fused, emb=emb), goal),
                model.parameters())
    return make


def _shared_weight_case():
    cell = GruCell(4, 3, "c", np.random.default_rng(21))
    shared = BiGru.__new__(BiGru)
    shared.fwd = shared.bwd = cell
    x = Tensor(np.random.default_rng(22).normal(size=(3, 5, 4)))
    return lambda: ad.total(ad.tanh(bi_gru(x, shared))), cell.parameters()


def _step_chain_case():
    """One cell's W, U and b reached by three ops of one graph."""
    rng = np.random.default_rng(23)
    cell = GruCell(4, 3, "c", rng)
    xs = [Tensor(rng.normal(size=(2, 4))) for _ in range(3)]
    weights = Tensor(rng.normal(size=(2, 3)))

    def build():
        h = Tensor(np.zeros((2, 3)))
        for x in xs:
            h = cell.step(x, h)
        return ad.total(ad.hadamard(h, weights))

    return build, cell.parameters()


CASES = {
    # the zero-row skip is on for the embeddings (4 x 12 x 900 values)
    "paper_like": _model_case(ModelConfig(fused_width=600, n_pairs=3, emb_dim=900,
                                          hidden_size=8, dense_size=8, kernel_sizes=(1, 2, 3),
                                          filters_per_kernel=3, seed=5),
                              (4, 3, 600), (4, 12, 900), (12, 7, 3, 9)),
    "paper_like_layer_weights": _model_case(
        ModelConfig(fused_width=600, n_pairs=3, emb_dim=900, hidden_size=8, dense_size=8,
                    kernel_sizes=(1, 2, 3), filters_per_kernel=3, learn_layer_weights=True,
                    seed=6),
        (4, 3, 600), (4, 12, 900), (5, 12, 2, 8)),
    "overfit16": _model_case(ModelConfig(fused_width=64, n_pairs=2, emb_dim=8, hidden_size=16,
                                         dense_size=16, seed=11),
                             (16, 2, 64), (16, 8, 8), tuple(range(1, 9)) * 2),
    "shared_weight": _shared_weight_case,
    "step_chain": _step_chain_case,
}


SEVERAL_CONTRIBUTIONS = {"shared_weight", "step_chain"}  # per parameter and sweep


def sweep_gradients(build, params, sweeps=1):
    for p in params:
        p.zero_grad()
    with Tape() as tape:
        loss = build()
    for _ in range(sweeps):
        tape.backward(loss)
    return [p.grad.copy() for p in params]


def serial_gradients(build, params, monkeypatch, sweeps=1):
    with monkeypatch.context() as patch:
        patch.setattr(ad, "gru_sequence", oracle_ops.serial_gru_sequence)
        patch.setattr(ad, "bi_gru_sequence", oracle_ops.serial_bi_gru_sequence)
        for p in params:
            p.grad[...] = 0.0
        with Tape() as tape:
            loss = build()
        for _ in range(sweeps):
            oracle_ops.serial_backward(tape, loss)
    return [p.grad.copy() for p in params]


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("sweeps", [1, 2])
def test_every_gradient_matches_the_serial_sweep(mode, monkeypatch, case, sweeps):
    """Two sweeps without zeroing double every gradient, exactly where each
    parameter takes one contribution per sweep."""
    build, params = CASES[case]()
    got = sweep_gradients(build, params, sweeps)
    if mode is not None:
        assert mode.calls > 0
    want = serial_gradients(build, params, monkeypatch, sweeps)
    assert any(np.any(g != 0.0) for g in want)
    for p, g, w in zip(params, got, want, strict=True):
        npt.assert_array_equal(g, w, err_msg=p.name)
    if sweeps == 2:
        for g, once in zip(got, sweep_gradients(build, params), strict=True):
            if case in SEVERAL_CONTRIBUTIONS:  # (a + b) + (a + b) is rounded once more
                npt.assert_allclose(g, 2 * once, rtol=1e-14, atol=0)
            else:
                npt.assert_array_equal(g, 2 * once)


def test_one_cpu_hands_nothing_over(monkeypatch):
    monkeypatch.setattr(ad, "_DEFER_MIN_MADDS", 0)
    monkeypatch.setattr(ad, "_usable_cpus", lambda: 1)
    monkeypatch.setattr(ad, "_worker", _NoWorker())
    build, params = CASES["paper_like"]()
    for g, w in zip(sweep_gradients(build, params),
                    serial_gradients(build, params, monkeypatch), strict=True):
        npt.assert_array_equal(g, w)


def test_a_parameter_no_op_reaches_reads_zeros(mode):
    reached = Parameter(np.ones((2, 3)), "reached")
    unreached = Parameter(np.ones((2, 3)), "unreached")
    x = Tensor(np.arange(6.0).reshape(2, 3))
    for p in (reached, unreached):
        p.grad[...] = 7.0
        p.zero_grad()
    with Tape() as tape:
        loss = ad.total(ad.linear(x, reached))
    tape.backward(loss)
    npt.assert_array_equal(unreached.grad, np.zeros((2, 3)))
    npt.assert_array_equal(reached.grad, np.tile(x.values.sum(axis=0), (2, 1)))


def test_writes_through_grad_keep_the_buffer(mode):
    """``p.grad *= f``, ``p.grad[...] = v`` and ``p.grad = v`` write into the
    one buffer, and a later sweep adds to what they left."""
    p = Parameter(np.ones((2, 3)), "w")
    buffer = p.grad
    x = Tensor(np.arange(6.0).reshape(2, 3))
    with Tape() as tape:
        loss = ad.total(ad.linear(x, p))
    once = np.tile(x.values.sum(axis=0), (2, 1))
    p.grad[...] = 5.0
    p.zero_grad()
    p.grad *= 3.0  # on an empty buffer: zeros
    assert p.grad is buffer
    npt.assert_array_equal(buffer, np.zeros((2, 3)))
    p.zero_grad()
    tape.backward(loss)
    p.grad *= 0.5
    assert p.grad is buffer
    npt.assert_array_equal(buffer, 0.5 * once)
    p.grad[...] = 1.0
    tape.backward(loss)
    npt.assert_array_equal(buffer, 1.0 + once)
    p.grad = np.full((2, 3), 2.0)
    assert p.grad is buffer
    npt.assert_array_equal(buffer, np.full((2, 3), 2.0))


def test_bi_gru_gradcheck_with_every_product_deferred(forced):
    rng = np.random.default_rng(24)
    bg = BiGru(3, 2, "bg", rng)
    x = Parameter(rng.normal(size=(2, 4, 3)), "x")
    weights = Tensor(rng.normal(size=(2, 4, 4)))
    assert ad.grad_check(
        lambda: ad.total(ad.hadamard(
            ad.bi_gru_sequence(x, bg.fwd.parameters(), bg.bwd.parameters()), weights)),
        bg.parameters() + [x]) <= 1e-6
    assert forced.calls > 0


def _linear_heads(names_and_inputs):
    """A loss over ``linear(x, w)`` for each (parameter, input) pair, in order."""
    terms = [ad.total(ad.linear(x, w)) for w, x in names_and_inputs]
    loss = terms[0]
    for term in terms[1:]:
        loss = ad.add(loss, term)
    return loss


def test_an_exception_from_a_product_is_raised_after_every_other_has_landed(forced,
                                                                           monkeypatch):
    """Two products fail; the first in sweep order is raised, once the rest
    are done, the slow one the worker takes up after the first failure too."""
    rng = np.random.default_rng(25)
    params = [Parameter(rng.normal(size=(3, 4)), f"w{i}") for i in range(4)]
    x = Tensor(rng.normal(size=(5, 4)))
    hook = Parameter(np.ones(2), "hook")
    accumulate = Parameter._accumulate
    finished = []
    w2_started = threading.Event()

    def slow_or_failing(self, contrib):
        if self.name in ("w1", "w3"):
            raise ValueError(f"{self.name} failed")
        if self.name == "w2":
            w2_started.set()
            time.sleep(0.3)
        accumulate(self, contrib)
        finished.append(self.name)

    monkeypatch.setattr(Parameter, "_accumulate", slow_or_failing)
    with Tape() as tape:
        # recorded first, so swept last: it holds the sweep until the worker runs w2
        held = ad._apply(hook.values.copy(), "hold", (hook,),
                         lambda g, wanted: (g if w2_started.wait(5) else None,))
        loss = ad.add(ad.total(held), _linear_heads([(w, x) for w in params]))
    with pytest.raises(ValueError, match="w3 failed"):  # the sweep meets w3 first
        tape.backward(loss)
    assert sorted(finished) == ["hook", "w0", "w2"]


def test_a_contribution_queues_behind_one_for_its_parameter(forced, monkeypatch):
    """A product goes to the held worker, and the two plain arrays that reach
    the same parameter later in the sweep go after it, in sweep order."""
    rng = np.random.default_rng(28)
    w = Parameter(rng.normal(size=(3, 4)), "w")
    x = Tensor(rng.normal(size=(5, 4)))
    c1, c2 = (Tensor(rng.normal(size=(3, 4))) for _ in range(2))

    def build():  # swept last to first: the product, then c2's array, then c1's
        return ad.add(ad.add(ad.total(ad.hadamard(w, c1)), ad.total(ad.hadamard(w, c2))),
                      ad.total(ad.linear(x, w)))

    accumulate = Parameter._accumulate
    landed = []

    def recording(self, contrib):
        kind = "product" if isinstance(contrib, ad._Product) else (
            "c1" if np.array_equal(contrib, c1.values) else "c2")
        landed.append((kind, threading.current_thread() is here))
        accumulate(self, contrib)

    here = threading.current_thread()
    monkeypatch.setattr(Parameter, "_accumulate", recording)
    release = threading.Event()
    ad._worker.submit(release.wait, 10)
    timer = threading.Timer(0.1, release.set)
    timer.start()
    try:
        got = sweep_gradients(build, [w])
    finally:
        release.set()
        timer.join(5)
    assert not timer.is_alive()
    assert landed == [("product", False), ("c2", False), ("c1", False)]
    monkeypatch.setattr(Parameter, "_accumulate", accumulate)
    npt.assert_array_equal(got[0], serial_gradients(build, [w], monkeypatch)[0])


def test_the_caller_takes_back_what_the_worker_has_not_started(forced, monkeypatch):
    """With the worker held busy, the caller forms each queued product itself,
    except those of a parameter that two queued products share: those stay
    on the worker, in sweep order."""
    rng = np.random.default_rng(26)
    w0, w1, shared = (Parameter(rng.normal(size=(3, 4)), n) for n in ("w0", "w1", "s"))
    x, x2 = Tensor(rng.normal(size=(5, 4))), Tensor(rng.normal(size=(7, 4)))
    graph = [(w0, x), (shared, x), (w1, x), (shared, x2)]  # swept last to first
    accumulate = Parameter._accumulate
    landed = []

    def recording(self, contrib):
        landed.append((self.name, contrib.a.shape[1], threading.current_thread()))
        accumulate(self, contrib)

    monkeypatch.setattr(Parameter, "_accumulate", recording)
    release = threading.Event()
    ad._worker.submit(release.wait, 10)
    timer = threading.Timer(0.2, release.set)
    timer.start()
    try:
        got = sweep_gradients(lambda: _linear_heads(graph), [w0, w1, shared])
    finally:
        release.set()
        timer.join(5)
    assert not timer.is_alive()
    here = threading.current_thread()
    assert [(name, rows, thread is here) for name, rows, thread in landed] == [
        ("w0", 5, True), ("w1", 5, True), ("s", 7, False), ("s", 5, False)]
    monkeypatch.setattr(Parameter, "_accumulate", accumulate)
    want = serial_gradients(lambda: _linear_heads(graph), [w0, w1, shared], monkeypatch)
    for g, w in zip(got, want, strict=True):
        npt.assert_array_equal(g, w)


def test_many_products_on_few_parameters_keep_the_serial_bits(forced, monkeypatch):
    """40 products and 20 plain arrays over 5 parameters, in a shuffled order,
    with the interpreter switching threads as often as it can: a contribution
    lost or landed out of order changes some bit of some gradient."""
    rng = np.random.default_rng(27)
    params = [Parameter(rng.normal(size=(6, 8)), f"w{i}") for i in range(5)]
    graph = [(params[int(i)], Tensor(rng.normal(size=(int(n), 8))))
             for i, n in zip(rng.integers(0, 5, 40), rng.integers(1, 9, 40))]
    arrays = [(params[int(i)], Tensor(rng.normal(size=(6, 8)))) for i in rng.integers(0, 5, 20)]
    order = rng.permutation(60)

    def build():
        terms = [ad.total(ad.linear(x, w)) if k < 40 else ad.total(ad.hadamard(w, x))
                 for k, (w, x) in ((k, (graph + arrays)[k]) for k in order)]
        loss = terms[0]
        for term in terms[1:]:
            loss = ad.add(loss, term)
        return loss

    want = serial_gradients(build, params, monkeypatch)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        deadline = time.monotonic() + 2.0
        rounds = 0
        while rounds < 20 and time.monotonic() < deadline:
            for g, w in zip(sweep_gradients(build, params), want, strict=True):
                npt.assert_array_equal(g, w)
            rounds += 1
    finally:
        sys.setswitchinterval(interval)
    assert rounds > 0 and forced.calls > 0
