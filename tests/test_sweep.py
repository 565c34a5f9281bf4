"""The reverse sweep against the serial one, bit for bit.

``Tape.backward`` writes each gradient buffer with its first contribution,
and a model may run branch B, or a Bi-GRU's backward direction, on the
worker thread, on a tape of its own, in the forward pass and in the sweep.
Each case compares every parameter gradient with
``oracle_ops.serial_backward`` over the serial GRU op on one tape: once with
the model's forks forced on (gate 0, two CPUs), and once at the default
gate, where these dims keep all work on the caller's thread.
"""

import numpy as np
import numpy.testing as npt
import pytest

import iben.autodiff as ad
import oracle_ops
from iben.autodiff import Parameter, Tape, Tensor
from iben.model import BiGru, GruCell, IbenModel, ModelConfig, bi_gru


@pytest.fixture(params=["split", "serial"])
def mode(request):
    """The forced split, or the default gate with a worker that must stay idle."""
    if request.param == "split":
        return request.getfixturevalue("forced_split")
    request.getfixturevalue("idle_worker")
    return None


def _model_inputs(config, fused_shape, emb_shape, zero_rows):
    """A model, its two inputs and a target for each sample."""
    model = IbenModel(config)
    rng = np.random.default_rng(config.seed + 1)
    fused = rng.normal(size=fused_shape)
    emb = rng.normal(size=emb_shape)
    for b, length in enumerate(zero_rows):  # padding tails, and one zero row inside
        emb[b, length:] = 0.0
    emb[0, 1] = 0.0
    return model, fused, emb, Tensor(rng.normal(size=fused_shape[0]))


def _model_case(*spec):
    def make():
        model, fused, emb, goal = _model_inputs(*spec)
        return (lambda: ad.mse_loss(model.forward(fused=fused, emb=emb), goal),
                model.parameters())
    make.spec = spec
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


PAPER_LIKE = dict(fused_width=600, n_pairs=3, emb_dim=900, hidden_size=8, dense_size=8,
                  kernel_sizes=(1, 2, 3), filters_per_kernel=3)

CASES = {
    # the zero-row skip is on for the embeddings (4 x 12 x 900 values)
    "paper_like": _model_case(ModelConfig(**PAPER_LIKE, seed=5),
                              (4, 3, 600), (4, 12, 900), (12, 7, 3, 9)),
    "paper_like_layer_weights": _model_case(
        ModelConfig(fused_width=600, n_pairs=3, emb_dim=900, hidden_size=8, dense_size=8,
                    kernel_sizes=(1, 2, 3), filters_per_kernel=3, learn_layer_weights=True,
                    seed=6),
        (4, 3, 600), (4, 12, 900), (5, 12, 2, 8)),
    "a_only": _model_case(ModelConfig(**PAPER_LIKE, use_emb_branch=False, seed=7),
                          (4, 3, 600), (4, 12, 900), (12, 7, 3, 9)),
    # a taped Bi-GRU input: it stays serial, and its gradient reaches the layer weights
    "a_only_layer_weights": _model_case(
        ModelConfig(**PAPER_LIKE, use_emb_branch=False, learn_layer_weights=True, seed=8),
        (4, 3, 600), (4, 12, 900), (12, 7, 3, 9)),
    "b_only": _model_case(ModelConfig(**PAPER_LIKE, use_bert_branch=False, seed=9),
                          (4, 3, 600), (4, 12, 900), (12, 7, 3, 9)),
    "overfit16": _model_case(ModelConfig(fused_width=64, n_pairs=2, emb_dim=8, hidden_size=16,
                                         dense_size=16, seed=11),
                             (16, 2, 64), (16, 8, 8), tuple(range(1, 9)) * 2),
    "shared_weight": _shared_weight_case,
    "step_chain": _step_chain_case,
}


SEVERAL_CONTRIBUTIONS = {"shared_weight", "step_chain"}  # per parameter and sweep
MODELS = {"paper_like", "paper_like_layer_weights", "a_only", "a_only_layer_weights", "b_only",
          "overfit16"}
FORKS_UNDER_A_TAPE = MODELS - {"a_only_layer_weights"}


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
        patch.setattr(ad, "FORK_MIN_MADDS", 1 << 62)  # neither branches nor directions fork
        patch.setattr(ad, "gru_sequence", oracle_ops.serial_gru_sequence)
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
        assert (mode.calls > 0) == (case in FORKS_UNDER_A_TAPE)
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


@pytest.mark.parametrize("case", sorted(MODELS))
def test_predict_matches_the_serial_predict(forced_split, monkeypatch, case):
    model, fused, emb, _ = _model_inputs(*CASES[case].spec)
    got = model.predict(fused=fused, emb=emb)
    assert forced_split.calls == 1
    monkeypatch.setattr(ad, "FORK_MIN_MADDS", 1 << 62)
    npt.assert_array_equal(got, model.predict(fused=fused, emb=emb))
    assert forced_split.calls == 1


def test_one_cpu_hands_nothing_over(forced_split, monkeypatch):
    monkeypatch.setattr(ad, "_usable_cpus", lambda: 1)
    build, params = CASES["paper_like"]()
    for g, w in zip(sweep_gradients(build, params),
                    serial_gradients(build, params, monkeypatch), strict=True):
        npt.assert_array_equal(g, w)
    assert forced_split.calls == 0


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


def test_model_gradcheck_with_the_split_forced(forced_split):
    config = ModelConfig(fused_width=3, n_pairs=2, emb_dim=3, hidden_size=2, dense_size=2,
                         kernel_sizes=(1, 2), filters_per_kernel=2, learn_layer_weights=True,
                         seed=7)
    model = IbenModel(config)
    rng = np.random.default_rng(24)
    fused, emb = rng.normal(size=(2, 2, 3)), rng.normal(size=(2, 4, 3))
    weights = Tensor(rng.normal(size=2))
    assert ad.grad_check(
        lambda: ad.total(ad.hadamard(model.forward(fused=fused, emb=emb), weights)),
        model.parameters()) <= 1e-6
    assert forced_split.calls > 0
