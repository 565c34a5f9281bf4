"""GRU cells, pooling, the convolution bank, the full network, checkpoints."""

import gc
import io
import itertools
import json
import math
import threading
import time
import weakref

import numpy as np
import numpy.testing as npt
import pytest

import iben.autodiff as ad
import iben.model as model_lib
from iben.autodiff import Parameter, Tape, Tensor
from iben.errors import DataFormatError
from iben.model import (
    BiGru,
    ConvBank,
    GruCell,
    IbenModel,
    ModelConfig,
    _weight_count,
    bi_gru,
    checkpoint_manifest,
    conv_features,
    load_checkpoint,
    pool_states,
    save_checkpoint,
)
from iben.train import AdamState, TrainConfig, adam_step
import oracle_ops
from oracle_ops import scale, slice_axis, stack_rows, sub


def zero_params(obj):
    for p in obj.parameters():
        p.values[...] = 0.0


def brute_cell_step(x, h_prev, cell):
    """Scalar-loop recomputation of the four gate formulas."""
    Wz, Wr, Wh = cell.W_z.values, cell.W_r.values, cell.W_h.values
    Uz, Ur, Uh = cell.U_z.values, cell.U_r.values, cell.U_h.values
    bz = cell.b_z.values if cell.use_bias else np.zeros(cell.hidden_size)
    br = cell.b_r.values if cell.use_bias else np.zeros(cell.hidden_size)
    bh = cell.b_h.values if cell.use_bias else np.zeros(cell.hidden_size)
    H, I = cell.hidden_size, cell.input_size
    out = []
    for i in range(H):
        zi = bz[i] + sum(Wz[i][j] * x[j] for j in range(I)) \
            + sum(Uz[i][j] * h_prev[j] for j in range(H))
        ri = br[i] + sum(Wr[i][j] * x[j] for j in range(I)) \
            + sum(Ur[i][j] * h_prev[j] for j in range(H))
        z = 1.0 / (1.0 + math.exp(-zi))
        r = 1.0 / (1.0 + math.exp(-ri))
        hp = bh[i] + sum(Wh[i][j] * x[j] for j in range(I)) \
            + r * sum(Uh[i][j] * h_prev[j] for j in range(H))
        h_tilde = math.tanh(hp)
        out.append(z * h_prev[i] + (1.0 - z) * h_tilde)
    return np.array(out)


def per_gate_step(cell, x, h_prev):
    """One GRU step composed of one tape op per gate operation (the oracle).

    Each gate's weights are its block of the stacked parameters, cut out on
    the tape, so that gradients reach the stacked parameters.
    """
    H = cell.hidden_size

    def gates(p):
        return [slice_axis(p, 0, i * H, (i + 1) * H) for i in range(3)]

    (W_z, W_r, W_h), (U_z, U_r, U_h) = gates(cell.W), gates(cell.U)
    z_pre = ad.add(ad.matmul(W_z, x), ad.matmul(U_z, h_prev))
    r_pre = ad.add(ad.matmul(W_r, x), ad.matmul(U_r, h_prev))
    if cell.use_bias:
        b_z, b_r, b_h = gates(cell.b)
        z_pre = ad.add(z_pre, b_z)
        r_pre = ad.add(r_pre, b_r)
    z = ad.sigmoid(z_pre)
    r = ad.sigmoid(r_pre)
    h_pre = ad.add(ad.matmul(W_h, x), ad.hadamard(r, ad.matmul(U_h, h_prev)))
    if cell.use_bias:
        h_pre = ad.add(h_pre, b_h)
    h_tilde = ad.tanh(h_pre)
    keep = ad.hadamard(z, h_prev)
    update = ad.hadamard(sub(Tensor(np.ones(cell.hidden_size)), z), h_tilde)
    return ad.add(keep, update)


def per_gate_states(cell, seq, h0=None, reverse=False):
    """Per-gate steps over the rows of ``seq``; row t is the state after row t."""
    T, width = seq.shape
    rows = [ad.reshape(slice_axis(seq, 0, t, t + 1), (width,)) for t in range(T)]
    h = h0 if h0 is not None else Tensor(np.zeros(cell.hidden_size))
    states = [None] * T
    for t in (reversed(range(T)) if reverse else range(T)):
        h = per_gate_step(cell, rows[t], h)
        states[t] = h
    return stack_rows(states)


def small_config(**overrides):
    base = dict(fused_width=6, n_pairs=3, emb_dim=5, hidden_size=4,
                dense_size=3, kernel_sizes=(1, 2), filters_per_kernel=2,
                seed=1)
    base.update(overrides)
    return ModelConfig(**base)


class TestGruCellStep:
    def test_zero_params_zero_state(self):
        cell = GruCell(3, 2, "c", np.random.default_rng(0))
        zero_params(cell)
        h = cell.step(Tensor(np.zeros(3)), Tensor(np.zeros(2)))
        npt.assert_array_equal(h.values, np.zeros(2))

    def test_zero_params_halve_the_state(self):
        """z = r = 0.5 and a zero candidate leave h = h_prev / 2."""
        cell = GruCell(3, 4, "c", np.random.default_rng(0))
        zero_params(cell)
        h_prev = np.array([0.8, -0.4, 0.0, 1.0])
        h = cell.step(Tensor(np.zeros(3)), Tensor(h_prev))
        npt.assert_allclose(h.values, 0.5 * h_prev, atol=1e-15)

    def test_matches_scalar_loop_on_random_cells(self):
        rng = np.random.default_rng(42)
        for _ in range(120):
            cell = GruCell(3, 2, "c", rng)
            cell.b_z.values[...] = rng.normal(size=2)
            cell.b_r.values[...] = rng.normal(size=2)
            cell.b_h.values[...] = rng.normal(size=2)
            x = rng.normal(size=3)
            h_prev = rng.normal(size=2)
            got = cell.step(Tensor(x), Tensor(h_prev)).values
            want = brute_cell_step(x, h_prev, cell)
            npt.assert_allclose(got, want, atol=1e-12, rtol=0)

    def test_shape_mismatch_raises(self):
        cell = GruCell(3, 2, "c", np.random.default_rng(0))
        with pytest.raises(ad.ShapeError):
            cell.step(Tensor(np.zeros(5)), Tensor(np.zeros(2)))

    def test_no_bias_variant_has_two_parameters(self):
        cell = GruCell(3, 2, "c", np.random.default_rng(0), use_bias=False)
        assert [p.name for p in cell.parameters()] == ["c.W", "c.U"]
        assert cell.b_z is cell.b_r is cell.b_h is None
        h = cell.step(Tensor(np.ones(3)), Tensor(np.zeros(2)))
        npt.assert_allclose(h.values, brute_cell_step(np.ones(3), np.zeros(2), cell),
                            atol=1e-12)

    def test_stacked_parameters_and_their_gate_views(self):
        cell = GruCell(3, 2, "c", np.random.default_rng(0))
        assert [(p.name, p.shape) for p in cell.parameters()] == [
            ("c.W", (6, 3)), ("c.U", (6, 2)), ("c.b", (6,))]
        views = [cell.W_z, cell.W_r, cell.W_h, cell.U_z, cell.U_r, cell.U_h,
                 cell.b_z, cell.b_r, cell.b_h]
        assert not any(isinstance(v, Parameter) for v in views)
        for i, (w, u, b) in enumerate(zip(views[:3], views[3:6], views[6:])):
            w.values[...] = i + 1.0
            u.values[...] = -(i + 1.0)
            b.values[...] = 10.0 * (i + 1)
        npt.assert_array_equal(cell.W.values[:, 0], [1, 1, 2, 2, 3, 3])
        npt.assert_array_equal(cell.U.values[:, 1], [-1, -1, -2, -2, -3, -3])
        npt.assert_array_equal(cell.b.values, [10, 10, 20, 20, 30, 30])

    def test_stacked_draw_equals_the_per_gate_draws(self):
        """One 3H x I uniform draw is the three H x I draws made in turn."""
        H, I = 4, 5
        cell = GruCell(I, H, "c", np.random.default_rng(3))
        rng = np.random.default_rng(3)
        a, b = math.sqrt(6.0 / (I + H)), math.sqrt(6.0 / (2 * H))
        W = [rng.uniform(-a, a, (H, I)) for _ in range(3)]
        U = [rng.uniform(-b, b, (H, H)) for _ in range(3)]
        npt.assert_array_equal(cell.W.values, np.concatenate(W))
        npt.assert_array_equal(cell.U.values, np.concatenate(U))


class TestGruForward:
    def test_single_step_sequence(self):
        rng = np.random.default_rng(1)
        cell = GruCell(3, 2, "c", rng)
        x = rng.normal(size=(1, 3))
        states = ad.gru_sequence(Tensor(x), cell.parameters())
        one = cell.step(Tensor(x[0]), Tensor(np.zeros(2)))
        npt.assert_array_equal(states.values[0], one.values)

    def test_zero_params_decay_h0_geometrically(self):
        cell = GruCell(2, 3, "c", np.random.default_rng(0))
        zero_params(cell)
        h0 = np.array([1.0, -0.5, 0.25])
        states = ad.gru_sequence(Tensor(np.zeros((4, 2))), cell.parameters(), Tensor(h0))
        for t in range(4):
            npt.assert_allclose(states.values[t], 0.5 ** (t + 1) * h0, atol=1e-15)

    def test_matches_unrolled_three_steps(self):
        rng = np.random.default_rng(2)
        cell = GruCell(3, 2, "c", rng)
        seq = rng.normal(size=(3, 3))
        states = ad.gru_sequence(Tensor(seq), cell.parameters()).values
        h = np.zeros(2)
        for t in range(3):
            h = brute_cell_step(seq[t], h, cell)
            npt.assert_allclose(states[t], h, atol=1e-12)

    def test_boundedness(self):
        """Each step is a convex mix of h_prev and a tanh value."""
        rng = np.random.default_rng(3)
        for _ in range(10):
            cell = GruCell(4, 3, "c", rng)
            for p in cell.parameters():
                p.values[...] = rng.normal(scale=2.0, size=p.shape)
            h0 = rng.uniform(-1, 1, 3)
            seq = rng.normal(scale=3.0, size=(6, 4))
            states = ad.gru_sequence(Tensor(seq), cell.parameters(), Tensor(h0)).values
            bound = max(np.abs(h0).max(), 1.0)
            assert np.all(np.abs(states) <= bound + 1e-12)


class TestGruSequence:
    def test_matches_the_per_gate_oracle_on_random_shapes(self):
        rng = np.random.default_rng(60)
        for trial in range(48):
            T, I, H = (int(v) for v in rng.integers(1, 7, size=3))
            use_bias, reverse, with_h0 = trial % 2 == 0, trial % 4 < 2, trial % 3 != 0
            cell = GruCell(I, H, "c", rng, use_bias)
            for p in cell.parameters():
                p.values[...] = rng.normal(size=p.shape)
            seq = Parameter(rng.normal(size=(T, I)), "seq")
            h0 = Parameter(rng.uniform(-1.0, 1.0, H), "h0") if with_h0 else None
            cotangent = Tensor(rng.normal(size=(T, H)))
            leaves = cell.parameters() + [seq] + ([h0] if with_h0 else [])

            def run(build):
                for p in leaves:
                    p.zero_grad()
                with Tape() as tape:
                    states = build()
                    loss = ad.total(ad.hadamard(states, cotangent))
                tape.backward(loss)
                return states.values, [p.grad.copy() for p in leaves]

            got, got_grads = run(
                lambda: ad.gru_sequence(seq, cell.parameters(), h0, reverse))
            want, want_grads = run(lambda: per_gate_states(cell, seq, h0, reverse))
            npt.assert_allclose(got, want, atol=1e-12, rtol=0)
            for p, g, w in zip(leaves, got_grads, want_grads):
                npt.assert_allclose(g, w, atol=1e-10, rtol=0, err_msg=p.name)

    def test_batch_matches_the_single_sample_oracle(self):
        """Each sample of a B x T x I batch against the per-sample op it replaced."""
        rng = np.random.default_rng(66)
        for B, use_bias, reverse, with_h0, _ in itertools.product(
                (1, 2, 5), (True, False), (False, True), (False, True), range(2)):
            T, I, H = (int(v) for v in rng.integers(1, 7, size=3))
            cell = GruCell(I, H, "c", rng, use_bias)
            for p in cell.parameters():
                p.values[...] = rng.normal(size=p.shape)
            xs = Parameter(rng.normal(size=(B, T, I)), "xs")
            h0 = Parameter(rng.uniform(-1.0, 1.0, (B, H)), "h0") if with_h0 else None
            cotangent = rng.normal(size=(B, T, H))

            def sweep(x, h, cot, op):
                for p in cell.parameters() + [x] + ([h] if with_h0 else []):
                    p.zero_grad()
                with Tape() as tape:
                    states = op(x, cell.parameters(), h, reverse)
                    loss = ad.total(ad.hadamard(states, Tensor(cot)))
                tape.backward(loss)
                return states.values, [p.grad.copy() for p in cell.parameters()]

            got, got_weights = sweep(xs, h0, cotangent, ad.gru_sequence)
            got_x, got_h0 = xs.grad.copy(), h0.grad.copy() if with_h0 else None
            want_weights = [np.zeros_like(p.values) for p in cell.parameters()]
            for b in range(B):
                xb = Parameter(xs.values[b], "xb")
                hb = Parameter(h0.values[b], "hb") if with_h0 else None
                want, grads = sweep(xb, hb, cotangent[b], oracle_ops.gru_sequence)
                npt.assert_allclose(got[b], want, atol=1e-12, rtol=0)
                npt.assert_allclose(got_x[b], xb.grad, atol=1e-10, rtol=0)
                if with_h0:
                    npt.assert_allclose(got_h0[b], hb.grad, atol=1e-10, rtol=0)
                for total, g in zip(want_weights, grads):
                    total += g
            for p, g, w in zip(cell.parameters(), got_weights, want_weights):
                npt.assert_allclose(g, w, atol=1e-10, rtol=0, err_msg=p.name)
            if B == 1:  # the same sample without the batch axis
                single = ad.gru_sequence(Tensor(xs.values[0]), cell.parameters(),
                                         Tensor(h0.values[0]) if with_h0 else None, reverse)
                assert single.shape == (T, H)
                npt.assert_array_equal(single.values, got[0])

    def test_weight_that_is_not_a_parameter_gets_the_same_gradient(self):
        """W's gradient is written into a parameter's buffer, or handed back whole."""
        rng = np.random.default_rng(67)
        cell = GruCell(1100, 3, "c", rng)
        xs = Tensor(rng.normal(size=(2, 4, 1100)))
        grads = []
        for wrap in (lambda w: w, lambda w: scale(w, 1.0)):
            cell.W.zero_grad()
            with Tape() as tape:
                states = ad.gru_sequence(xs, [wrap(cell.W), cell.U, cell.b], reverse=True)
                loss = ad.total(ad.tanh(states))
            tape.backward(loss)
            grads.append(cell.W.grad.copy())
        npt.assert_allclose(grads[0], grads[1], atol=1e-13, rtol=0)
        assert np.abs(grads[0]).min() > 0

    def test_second_sweep_doubles_every_gradient(self):
        rng = np.random.default_rng(61)
        cell = GruCell(3, 2, "c", rng)
        seq = Parameter(rng.normal(size=(4, 3)), "seq")
        with Tape() as tape:
            loss = ad.total(ad.gru_sequence(seq, cell.parameters(), reverse=True))
        tape.backward(loss)
        first = [p.grad.copy() for p in cell.parameters() + [seq]]
        tape.backward(loss)
        for p, g in zip(cell.parameters() + [seq], first):
            npt.assert_array_equal(p.grad, 2 * g)

    def test_constant_input_gives_the_gradients_of_a_parameter_input(self):
        """Skipping dX and dh0 for constants leaves every weight gradient bit-equal."""
        rng = np.random.default_rng(65)
        for reverse in (False, True):
            for with_h0 in (False, True):
                cell = GruCell(3, 4, "c", rng)
                xv, h0v = rng.normal(size=(5, 3)), rng.uniform(-1.0, 1.0, 4)
                cotangent = Tensor(rng.normal(size=(5, 4)))

                def sweeps(make):
                    cell_grads = []
                    x, h0 = make(xv, "x"), make(h0v, "h0") if with_h0 else None
                    with Tape() as tape:
                        states = ad.gru_sequence(x, cell.parameters(), h0, reverse)
                        loss = ad.total(ad.hadamard(states, cotangent))
                    for p in cell.parameters():
                        p.zero_grad()
                    for _ in range(2):
                        tape.backward(loss)
                        cell_grads.append([p.grad.copy() for p in cell.parameters()])
                    return cell_grads

                const = sweeps(lambda v, name: Tensor(v))
                for once, twice, want_once, want_twice in zip(*const, *sweeps(Parameter)):
                    npt.assert_array_equal(once, want_once)
                    npt.assert_array_equal(twice, want_twice)
                    npt.assert_array_equal(twice, 2 * once)

    @pytest.mark.parametrize("gate, entries", [(1 << 62, 1), (0, 3)])
    def test_records_one_entry_on_one_thread_and_a_fork_of_two_on_two(self, forced_split,
                                                                       monkeypatch, gate, entries):
        """One ``bi_gru_sequence`` entry, or, forked, the fork's entry and one
        ``gru_sequence`` entry on each branch tape."""
        monkeypatch.setattr(ad, "FORK_MIN_MADDS", gate)
        bg = BiGru(3, 2, "bg", np.random.default_rng(62))
        with Tape() as tape:
            bi_gru(Tensor(np.ones((5, 3))), bg)
        assert len(tape) == entries and forced_split.calls == int(gate == 0)

    @pytest.mark.parametrize("graph", ["serial bi_gru", "forked bi_gru of a recorded input",
                                       "forked branches"])
    def test_finished_tape_is_freed_by_reference_counting(self, forced_split, monkeypatch,
                                                          graph):
        """With gc off, a swept graph goes with its last reference: a branch
        tape keeps no link to the tape that its fork is on."""
        if graph == "serial bi_gru":
            monkeypatch.setattr(ad, "FORK_MIN_MADDS", 1 << 62)
        rng = np.random.default_rng(63)
        bg = BiGru(3, 2, "bg", rng)
        seq = Tensor(rng.normal(size=(4, 3)))
        model = split_model(learn_layer_weights=True)
        fused, emb = split_inputs()
        enabled = gc.isenabled()
        gc.disable()
        try:
            with Tape() as tape:
                if graph == "forked branches":
                    loss = ad.total(model.forward(fused=fused, emb=emb))
                else:
                    loss = ad.total(pool_states(bi_gru(ad.tanh(seq), bg)))
            tape.backward(loss)
            freed = weakref.ref(tape)
            del tape, loss
            assert freed() is None
        finally:
            if enabled:
                gc.enable()

    def test_shape_errors(self):
        cell = GruCell(3, 2, "c", np.random.default_rng(64))
        with pytest.raises(ad.ShapeError):
            ad.gru_sequence(Tensor(np.zeros((0, 3))), cell.parameters())
        with pytest.raises(ad.ShapeError):
            ad.gru_sequence(Tensor(np.zeros((2, 3))), cell.parameters(), Tensor(np.zeros(3)))
        with pytest.raises(ad.ShapeError, match="W, U"):
            ad.gru_sequence(Tensor(np.zeros((2, 3))), cell.parameters()[:1])
        with pytest.raises(ad.ShapeError, match="W, U"):
            ad.gru_sequence(Tensor(np.zeros((2, 3))), cell.parameters() + [cell.b])
        with pytest.raises(ad.ShapeError, match="three gates"):
            ad.gru_sequence(Tensor(np.zeros((2, 3))), [Tensor(np.zeros((5, 3))), cell.U])
        with pytest.raises(ad.ShapeError, match="three gates"):
            ad.gru_sequence(Tensor(np.zeros((2, 3))), [cell.W, cell.U, Tensor(np.zeros(2))])


class TestBiGru:
    def test_backward_half_is_a_reversed_forward_run(self):
        rng = np.random.default_rng(4)
        bg = BiGru(3, 2, "bg", rng)
        seq = rng.normal(size=(5, 3))
        out = bi_gru(Tensor(seq), bg).values
        rev_run = ad.gru_sequence(Tensor(seq[::-1].copy()), bg.bwd.parameters()).values
        npt.assert_array_equal(out[:, 2:], rev_run[::-1])

    def test_palindrome_with_tied_cells_is_symmetric(self):
        rng = np.random.default_rng(5)
        bg = BiGru(3, 2, "bg", rng)
        for src, dst in zip(bg.fwd.parameters(), bg.bwd.parameters()):
            dst.values[...] = src.values
        row = rng.normal(size=3)
        mid = rng.normal(size=3)
        seq = np.stack([row, mid, row])
        out = bi_gru(Tensor(seq), bg).values
        for t in range(3):
            npt.assert_array_equal(out[t, :2], out[2 - t, 2:])

    def test_zero_params_zero_output(self):
        bg = BiGru(3, 2, "bg", np.random.default_rng(6))
        zero_params(bg)
        out = bi_gru(Tensor(np.random.default_rng(7).normal(size=(4, 3))), bg)
        npt.assert_array_equal(out.values, np.zeros((4, 4)))

    def test_output_width_doubles_hidden(self):
        bg = BiGru(3, 5, "bg", np.random.default_rng(8))
        out = bi_gru(Tensor(np.zeros((2, 3))), bg)
        assert out.shape == (2, 10)


def oracle_bi_gru(seq, params):
    """The serial Bi-GRU, the concatenation of its two directions on one tape,
    kept as the reference of the forked one."""
    return ad.concat([ad.gru_sequence(seq, params.fwd.parameters()),
                      ad.gru_sequence(seq, params.bwd.parameters(), reverse=True)], axis=-1)


class TestBiGruFork:
    @pytest.mark.parametrize("batch", [(), (3,)])
    @pytest.mark.parametrize("input_wanted", [False, True])
    @pytest.mark.parametrize("use_bias", [True, False])
    def test_matches_the_serial_oracle_bit_for_bit(self, forced_split, batch, input_wanted,
                                                   use_bias):
        """Forked on two CPUs, or, when the input is a parameter, which both
        directions' branch tapes would add into, serial."""
        rng = np.random.default_rng(72)
        bg = BiGru(5, 4, "bg", rng, use_bias)
        for p in bg.parameters():
            p.values[...] = rng.normal(size=p.shape)
        xv = rng.normal(size=batch + (6, 5))
        cotangent = Tensor(rng.normal(size=batch + (6, 8)))

        def sweep(op):
            x = Parameter(xv.copy(), "x") if input_wanted else Tensor(xv)
            for p in bg.parameters():
                p.zero_grad()
            with Tape() as tape:
                states = op(x, bg)
                loss = ad.total(ad.hadamard(states, cotangent))
            tape.backward(loss)
            return ([states.values] + [p.grad.copy() for p in bg.parameters()]
                    + ([x.grad] if input_wanted else []))

        forked = sweep(bi_gru)
        assert forced_split.calls == (0 if input_wanted else 2)  # the forward pass, the sweep
        for got, want in zip(forked, sweep(oracle_bi_gru), strict=True):
            npt.assert_array_equal(got, want)

    def test_the_input_gradient_adds_the_two_directions(self):
        """``dx_b + dx_f`` from the sweep, bit for bit the ``dx_f + dx_b`` of
        the one-op Bi-GRU this fork replaced."""
        rng = np.random.default_rng(74)
        bg = BiGru(5, 4, "bg", rng)
        x = Parameter(rng.normal(size=(3, 6, 5)), "x")
        cotangent = rng.normal(size=(3, 6, 8))

        def input_grad(states, g):
            x.zero_grad()
            with Tape() as tape:
                loss = ad.total(ad.hadamard(states(), Tensor(g)))
            tape.backward(loss)
            return x.grad.copy()

        dx_f = input_grad(lambda: ad.gru_sequence(x, bg.fwd.parameters()), cotangent[..., :4])
        dx_b = input_grad(lambda: ad.gru_sequence(x, bg.bwd.parameters(), reverse=True),
                          cotangent[..., 4:])
        npt.assert_array_equal(input_grad(lambda: bi_gru(x, bg), cotangent), dx_f + dx_b)

    @pytest.mark.parametrize("input_kind", ["parameter", "recorded"])
    def test_gradcheck(self, forced_split, input_kind):
        """A parameter input keeps the directions together; an input recorded on
        the tape gets its gradient through the fork's entry."""
        rng = np.random.default_rng(73)
        bg = BiGru(3, 2, "bg", rng)
        x = Parameter(rng.normal(size=(2, 4, 3)), "x")
        weights = Tensor(rng.normal(size=(2, 4, 4)))
        seq = (lambda: x) if input_kind == "parameter" else (lambda: ad.tanh(x))
        assert ad.grad_check(lambda: ad.total(ad.hadamard(bi_gru(seq(), bg), weights)),
                             bg.parameters() + [x]) <= 1e-6
        assert (forced_split.calls > 0) == (input_kind == "recorded")

    def test_a_weight_shared_by_both_directions_gets_the_oracles_gradients(self):
        cell = GruCell(3, 2, "c", np.random.default_rng(76))
        shared = BiGru.__new__(BiGru)
        shared.fwd = shared.bwd = cell
        x = Tensor(np.random.default_rng(77).normal(size=(4, 3)))
        grads = []
        for op in (bi_gru, oracle_bi_gru):
            for p in cell.parameters():
                p.zero_grad()
            with Tape() as tape:
                loss = ad.total(ad.tanh(op(x, shared)))
            tape.backward(loss)
            grads.append([p.grad.copy() for p in cell.parameters()])
        for got, want in zip(*grads, strict=True):
            npt.assert_array_equal(got, want)

    @pytest.mark.parametrize("gate, tasks", [(1 << 62, 0), (0, 2)])
    def test_a_forked_bi_gru_hands_one_direction_to_the_worker(self, forced_split, monkeypatch,
                                                               gate, tasks):
        """The backward direction's forward pass and its sweep; unforked, both
        directions run one after the other on the caller's thread."""
        monkeypatch.setattr(ad, "FORK_MIN_MADDS", gate)
        bg = BiGru(1024, 64, "bg", np.random.default_rng(78))
        with Tape() as tape:
            loss = ad.total(bi_gru(Tensor(np.ones((16, 4, 1024))), bg))
        tape.backward(loss)
        assert forced_split.calls == tasks

    @pytest.mark.parametrize("branch, batch, live, forks", [
        ("a", 1, 12, False), ("a", 2, 12, True),  # 19M and 38M
        ("b", 2, 40, False), ("b", 3, 40, True),  # 28M and 41M
        ("b", 8, 8, False), ("b", 16, 8, True),  # 22M and 44M
    ])
    def test_forks_where_one_direction_projects_enough_rows(self, counting_worker, branch,
                                                             batch, live, forks):
        """At paper dims and the default gate, one direction's input projection
        over the rows that are not all zero: branch A's Bi-GRU forks from a
        batch of two, and branch B's from three with no padding and from 16
        with 8 of 40 rows live."""
        model = IbenModel(ModelConfig(**PAPER_DIMS))
        bigru, rows, width = ((model.branch_a, 12, 4096) if branch == "a"
                              else (model.branch_b_rnn, 40, 900))
        x = np.ones((batch, rows, width))
        x[:, live:] = 0.0
        assert (batch * live * 3 * 128 * width >= ad.FORK_MIN_MADDS) == forks
        bi_gru(Tensor(x), bigru)
        assert counting_worker.calls == forks

    @pytest.mark.usefixtures("idle_worker")
    def test_overfit16_dims_start_no_thread(self):
        """The fixed overfit inputs' model and batch: a forward pass, a sweep and
        an Adam step, all on the caller's thread even with two CPUs."""
        config = ModelConfig(fused_width=64, n_pairs=2, emb_dim=8, hidden_size=16,
                             dense_size=16, seed=11)
        model = IbenModel(config)
        rng = np.random.default_rng(79)
        with Tape() as tape:
            loss = ad.total(model.forward(fused=rng.normal(size=(16, 2, 64)),
                                          emb=rng.normal(size=(16, 8, 8))))
        tape.backward(loss)
        adam_step(model.parameters(), AdamState.for_params(model.parameters()), TrainConfig())


def split_model(**overrides):
    config = dict(fused_width=6, n_pairs=2, emb_dim=5, hidden_size=3, dense_size=4,
                  kernel_sizes=(1, 2), filters_per_kernel=2, seed=83)
    config.update(overrides)
    return IbenModel(ModelConfig(**config))


def split_inputs(batch=3, seed=84):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(batch, 2, 6)), rng.normal(size=(batch, 4, 5))


PAPER_DIMS = dict(fused_width=4096, n_pairs=12, emb_dim=900, hidden_size=128)
OVERFIT16_DIMS = dict(fused_width=64, n_pairs=2, emb_dim=8, hidden_size=16, dense_size=16,
                      seed=11)


def branch_madds(model: IbenModel, fused_shape: tuple, emb_shape: tuple) -> tuple:
    """The split gate's work per forward pass of branch A and of branch B, as
    ``IbenModel.forward`` reads it from the model's weights."""
    return (model_lib._madds(fused_shape, model.branch_a),
            model_lib._madds(emb_shape, model.branch_b_rnn, model.branch_b_conv))


def config_branch_madds(c: ModelConfig, fused_shape: tuple, emb_shape: tuple) -> tuple:
    """The oracle: the split gate's work per forward pass of branch A and of
    branch B, worked out from the config."""
    *batch, rows_a, width_a = fused_shape
    *_, rows_b, width_b = emb_shape
    B, H = math.prod(batch), c.hidden_size
    a = B * rows_a * 6 * H * (width_a + H)  # two directions of three gates
    b = B * rows_b * 6 * H * (width_b + H) if c.emb_submodel != "cnn" else 0
    if c.emb_submodel != "bigru":
        b += B * rows_b * width_b * c.filters_per_kernel * sum(c.kernel_sizes)
    return a, b


class TestBranchSplit:
    def test_the_split_starts_at_its_threshold(self, forced_split, monkeypatch):
        """The smaller branch's multiply-adds reach the threshold; one more does not."""
        model = split_model()
        fused, emb = split_inputs()
        smaller = min(branch_madds(model, fused.shape, emb.shape))
        for threshold, submits in ((smaller, 2), (smaller + 1, 0)):
            monkeypatch.setattr(ad, "FORK_MIN_MADDS", threshold)
            forced_split.calls = 0
            with Tape() as tape:
                loss = ad.total(model.forward(fused=fused, emb=emb))
            tape.backward(loss)
            assert forced_split.calls == submits  # branch B's forward pass and its sweep

    @pytest.mark.parametrize("submodel, conv, rnn", [("both", 1, 1), ("cnn", 1, 0),
                                                     ("bigru", 0, 1)])
    def test_branch_madds_count_the_bi_grus_and_convolutions(self, submodel, conv, rnn):
        model = split_model(emb_submodel=submodel)  # H 3, F 2, kernels 1 and 2
        a, b = branch_madds(model, (3, 2, 6), (3, 4, 5))
        assert a == 3 * 2 * (2 * 9 * 6 + 2 * 9 * 3)  # B x 2 directions x (3H x I + 3H x H) per row
        assert b == rnn * 3 * 4 * (2 * 9 * 5 + 2 * 9 * 3) + conv * 3 * 4 * 2 * (1 + 2) * 5

    @pytest.mark.parametrize("batch", [1, 16])
    @pytest.mark.parametrize("use_bias", [True, False])
    @pytest.mark.parametrize("submodel", ["both", "cnn", "bigru"])
    @pytest.mark.parametrize("dims, emb_rows, splits", [(PAPER_DIMS, 40, True),
                                                        (OVERFIT16_DIMS, 8, False)])
    def test_branch_madds_match_the_config_formula(self, dims, emb_rows, splits, submodel,
                                                   use_bias, batch):
        """The weight-derived counts equal the formula over the config that
        they replace, so the gate decides as before: paper dims split and
        the overfit criterion's dims do not."""
        config = ModelConfig(emb_submodel=submodel, use_bias=use_bias, **dims)
        fused_shape = (batch, config.n_pairs, config.fused_width)
        emb_shape = (batch, emb_rows, config.emb_dim)
        got = branch_madds(IbenModel(config), fused_shape, emb_shape)
        assert got == config_branch_madds(config, fused_shape, emb_shape)
        if submodel == "both":
            assert (min(got) >= ad.FORK_MIN_MADDS) == splits

    @pytest.mark.parametrize("given", ["arrays", "plain tensors"])
    @pytest.mark.parametrize("overrides", [dict(use_bert_branch=False),
                                           dict(use_emb_branch=False)])
    def test_one_branch_forks_its_bi_gru(self, forced_split, overrides, given):
        """The backward direction's forward pass and its sweep go to the worker,
        for an input the model makes a tensor of and for a caller's tensor that
        the open tape does not reach."""
        model = split_model(**overrides)
        fused, emb = split_inputs()
        if given == "plain tensors":
            fused, emb = Tensor(fused), Tensor(emb)
        with Tape() as tape:
            loss = ad.total(model.forward(fused=fused, emb=emb))
        tape.backward(loss)
        assert forced_split.calls == 2

    def test_one_cpu_starts_no_thread(self, forced_split, monkeypatch):
        monkeypatch.setattr(ad, "_usable_cpus", lambda: 1)
        fused, emb = split_inputs()
        with Tape() as tape:
            loss = ad.total(split_model().forward(fused=fused, emb=emb))
        tape.backward(loss)
        assert forced_split.calls == 0

    @pytest.mark.parametrize("recorded", [False, True])
    @pytest.mark.parametrize("tensors", ["fused", "emb", "both"])
    def test_a_tensor_input_gets_its_gradient_through_the_split(self, forced_split, tensors,
                                                                recorded):
        """A sweep of the caller's tape may reach a tensor input, a parameter or
        a tensor recorded there.  The branches fork over either (branch B's
        forward pass and its sweep), and each Bi-GRU inside them steps its
        directions together; a branch tape adds into a parameter input, and
        the fork's entry passes a recorded input its gradient."""
        fused, emb = split_inputs()
        params = {name: Parameter(v, name) for name, v in (("fused", fused), ("emb", emb))
                  if tensors in (name, "both")}
        with Tape() as tape:
            given = {name: ad.reshape(p, p.shape) if recorded else p
                     for name, p in params.items()}
            loss = ad.total(split_model().forward(**{"fused": fused, "emb": emb, **given}))
        tape.backward(loss)
        for p in params.values():
            assert np.any(p.grad != 0.0), p.name
        assert forced_split.calls == 2

    def test_predict_and_forward_match_the_serial_ones(self, forced_split, monkeypatch):
        model = split_model()
        fused, emb = split_inputs()
        split = model.predict(fused=fused, emb=emb)
        with Tape():
            taped = model.forward(fused=fused, emb=emb).values
        assert forced_split.calls == 2
        monkeypatch.setattr(ad, "FORK_MIN_MADDS", 1 << 62)
        npt.assert_array_equal(split, model.predict(fused=fused, emb=emb))
        npt.assert_array_equal(taped, split)
        assert forced_split.calls == 2

    @pytest.mark.parametrize("learn_layer_weights", [False, True])
    def test_a_split_tape_counts_the_entries_of_one_tape(self, monkeypatch, learn_layer_weights):
        monkeypatch.setattr(ad, "_usable_cpus", lambda: 2)
        model = split_model(learn_layer_weights=learn_layer_weights)
        fused, emb = split_inputs()
        lengths = []
        for gate in (0, 1 << 62):
            monkeypatch.setattr(ad, "FORK_MIN_MADDS", gate)
            with Tape() as tape:
                model.forward(fused=fused, emb=emb)
            lengths.append(len(tape))
        assert lengths[0] == lengths[1] == 23 + learn_layer_weights

    @pytest.mark.parametrize("taped", [True, False])
    @pytest.mark.parametrize("failing", ["b", "both"])
    def test_an_exception_is_raised_after_both_branches_finish(self, forced_split,
                                                               monkeypatch, taped, failing):
        """Branch B raises NonFiniteError on the worker: alone, at once while
        branch A is still running, or, after a pause, together with an error
        that branch A raises at once.  The caller sees an error only once both
        have finished, branch A's when both fail, and no tape stays open."""
        here = threading.current_thread()
        finished = []
        bi_gru_op, conv_op = model_lib.bi_gru, model_lib.conv_features

        def slow_a(seq, params, **kwargs):
            if params is model.branch_a:
                assert threading.current_thread() is here
                if failing == "both":
                    raise ValueError("branch A failed")
                time.sleep(0.1)
                finished.append("a")
            return bi_gru_op(seq, params, **kwargs)

        def failing_b(matrix, bank):
            assert threading.current_thread() is not here
            if failing == "both":
                time.sleep(0.1)
                finished.append("b")
            raise ad.NonFiniteError("conv1d produced a non-finite value")

        monkeypatch.setattr(model_lib, "bi_gru", slow_a)
        monkeypatch.setattr(model_lib, "conv_features", failing_b)
        model = split_model()
        fused, emb = split_inputs()
        error = (ValueError, "branch A") if failing == "both" else (ad.NonFiniteError, "conv1d")
        with pytest.raises(error[0], match=error[1]):
            if taped:
                with Tape():
                    model.forward(fused=fused, emb=emb)
            else:
                model.predict(fused=fused, emb=emb)
        assert finished == ["b" if failing == "both" else "a"]
        assert ad._open_tape.get() is None
        monkeypatch.setattr(model_lib, "bi_gru", bi_gru_op)
        monkeypatch.setattr(model_lib, "conv_features", conv_op)
        with Tape() as tape:
            loss = ad.total(model.forward(fused=fused, emb=emb))
        assert len(tape) > 0 and ad._open_tape.get() is None
        model.zero_grad()
        tape.backward(loss)
        assert all(np.any(p.grad != 0.0) for p in model.parameters())

    def test_the_callers_errstate_governs_both_branches(self, forced_split):
        """An overflow in branch B's Bi-GRU bias add, on the worker."""
        model = split_model(emb_submodel="bigru")
        cell = model.branch_b_rnn.bwd
        cell.W.values[...] = 1.0
        cell.b.values[...] = 1e308
        fused, emb = split_inputs()
        emb = np.full_like(emb, 1e308)  # x W^T + b overflows to inf; the states stay finite
        with np.errstate(over="ignore"):
            out = model.predict(fused=fused, emb=emb)
        assert np.isfinite(out).all()
        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            model.predict(fused=fused, emb=emb)
        assert forced_split.calls == 2


class TestWorkerUse:
    """At paper dims, on two CPUs at the default gate: the tasks that reach the
    worker in a training batch and in ``predict``, and the serial run's bits."""

    @pytest.mark.parametrize("overrides, live, tasks", [
        (dict(use_emb_branch=False), 9, (2, 1)),
        # the gate counts the rows branch B's Bi-GRU projects: 12M with 9 of 40 live, 55M with all
        (dict(use_bert_branch=False), 9, (0, 0)),
        (dict(use_bert_branch=False), 40, (2, 1)),
        (dict(use_emb_branch=False, learn_layer_weights=True), 9, (2, 1)),  # a taped input
        (dict(), 9, (2, 1)),  # the branches fork, and each Bi-GRU runs its directions in turn
        (dict(learn_layer_weights=True), 9, (2, 1)),
    ])
    def test_tasks_and_bits(self, counting_worker, monkeypatch, overrides, live, tasks):
        """``tasks``: those of a training batch and those of ``predict``."""
        model = IbenModel(ModelConfig(**PAPER_DIMS, seed=91, **overrides))
        rng = np.random.default_rng(92)
        fused, emb = rng.normal(size=(4, 12, 4096)), rng.normal(size=(4, 40, 900))
        emb[:, live:] = 0.0  # padding rows
        goal = Tensor(rng.normal(size=4))

        def batch_and_predict():
            model.zero_grad()
            with Tape() as tape:
                loss = ad.mse_loss(model.forward(fused=fused, emb=emb), goal)
            tape.backward(loss)
            batch_tasks = counting_worker.calls
            predicted = model.predict(fused=fused, emb=emb)
            return ([p.grad.copy() for p in model.parameters()], predicted,
                    (batch_tasks, counting_worker.calls - batch_tasks))

        grads, predicted, got_tasks = batch_and_predict()
        assert got_tasks == tasks
        monkeypatch.setattr(ad, "FORK_MIN_MADDS", 1 << 62)
        counting_worker.calls = 0
        want_grads, want_predicted, serial_tasks = batch_and_predict()
        assert serial_tasks == (0, 0)
        npt.assert_array_equal(predicted, want_predicted)
        for p, got, want in zip(model.parameters(), grads, want_grads, strict=True):
            assert np.any(want != 0.0), p.name
            npt.assert_array_equal(got, want, err_msg=p.name)


class TestPoolStates:
    def test_single_row_duplicates(self):
        row = np.array([[1.0, -2.0, 0.5, 3.0]])
        pooled = pool_states(Tensor(row)).values
        npt.assert_array_equal(pooled, np.concatenate([row[0], row[0]]))

    def test_constant_rows(self):
        states = np.tile([2.0, -1.0], (5, 1))
        pooled = pool_states(Tensor(states)).values
        npt.assert_array_equal(pooled[:2], pooled[2:])

    def test_random_3x4_against_numpy(self):
        rng = np.random.default_rng(9)
        states = rng.normal(size=(3, 4))
        pooled = pool_states(Tensor(states)).values
        npt.assert_allclose(pooled, np.concatenate([states.max(axis=0),
                                                    states.mean(axis=0)]),
                            atol=1e-15)


class TestConvFeatures:
    def make_bank(self, rng, emb_dim=3, sizes=(1, 2, 3, 4), filters=9,
                  random_bias=False):
        bank = ConvBank(emb_dim, sizes, filters, "bank", rng)
        if random_bias:
            for k in sizes:
                bank.biases[k].values[...] = rng.normal(size=filters)
        return bank

    def test_zero_input_zero_bias(self):
        bank = self.make_bank(np.random.default_rng(10))
        out = conv_features(Tensor(np.zeros((6, 3))), bank)
        npt.assert_array_equal(out.values, np.zeros(36))

    def test_single_filter_per_size(self):
        bank = self.make_bank(np.random.default_rng(11), filters=1)
        out = conv_features(Tensor(np.random.default_rng(12).normal(size=(6, 3))), bank)
        assert out.shape == (4,)

    def test_default_bank_yields_36_features(self):
        bank = self.make_bank(np.random.default_rng(13))
        out = conv_features(Tensor(np.zeros((5, 3))), bank)
        assert out.shape == (36,)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(14)
        for _ in range(110):
            D = int(rng.integers(1, 4))
            L = int(rng.integers(4, 8))
            filters = int(rng.integers(1, 4))
            bank = self.make_bank(rng, emb_dim=D, filters=filters, random_bias=True)
            x = rng.normal(size=(L, D))
            got = conv_features(Tensor(x), bank).values
            want = []
            for k in bank.kernel_sizes:
                K = bank.kernels[k].values
                b = bank.biases[k].values
                for f in range(filters):
                    best = -math.inf
                    for t in range(L - k + 1):
                        s = b[f] + sum(x[t + j, d] * K[f, j, d]
                                       for j in range(k) for d in range(D))
                        best = max(best, max(s, 0.0))
                    want.append(best)
            npt.assert_allclose(got, np.array(want), atol=1e-12, rtol=0)

    def test_input_shorter_than_largest_kernel(self):
        bank = self.make_bank(np.random.default_rng(15))
        with pytest.raises(ad.ShapeError):
            conv_features(Tensor(np.zeros((3, 3))), bank)


class TestModelConfig:
    def test_requires_a_branch(self):
        with pytest.raises(ValueError, match="branch"):
            small_config(use_bert_branch=False, use_emb_branch=False)

    def test_rejects_unknown_submodel(self):
        with pytest.raises(ValueError, match="emb_submodel"):
            small_config(emb_submodel="lstm")

    def test_rejects_non_positive_widths(self):
        with pytest.raises(ValueError, match="hidden_size"):
            small_config(hidden_size=0)

    @pytest.mark.parametrize("field, value", [
        ("hidden_size", 2.5), ("hidden_size", True), ("fused_width", "6"),
        ("seed", 1.5), ("kernel_sizes", (1, 2.0)), ("kernel_sizes", (True,)),
    ])
    def test_rejects_non_integer_sizes(self, field, value):
        with pytest.raises(ValueError, match="integer"):
            small_config(**{field: value})

    def test_rejects_repeated_kernel_sizes(self):
        with pytest.raises(ValueError, match="repeat"):
            small_config(kernel_sizes=(2, 2))

    def test_rejects_empty_kernel_sizes(self):
        with pytest.raises(ValueError, match="kernel"):
            small_config(kernel_sizes=())


class TestForward:
    def inputs(self, config, seed=20):
        rng = np.random.default_rng(seed)
        fused = rng.normal(size=(config.n_pairs, config.fused_width))
        emb = rng.normal(size=(max(config.kernel_sizes) + 2, config.emb_dim))
        return fused, emb

    def test_all_zero_weights_predict_zero(self):
        config = small_config()
        model = IbenModel(config)
        zero_params(model)
        fused, emb = self.inputs(config)
        assert model.forward(fused=fused, emb=emb).item() == 0.0

    def test_rnn_only_variant_head_width(self):
        config = small_config(use_bert_branch=False, emb_submodel="bigru")
        model = IbenModel(config)
        assert model.branch_b_conv is None
        assert model.head.W.shape == (1, config.dense_size)
        assert model.dense_b.W.shape == (config.dense_size, 4 * config.hidden_size)
        _, emb = self.inputs(config)
        assert isinstance(model.forward(emb=emb).item(), float)

    def test_cnn_only_variant_dense_width(self):
        config = small_config(use_bert_branch=False, emb_submodel="cnn")
        model = IbenModel(config)
        assert model.branch_b_rnn is None
        n_filters = len(config.kernel_sizes) * config.filters_per_kernel
        assert model.dense_b.W.shape == (config.dense_size, n_filters)

    def test_disabled_branch_input_is_ignored(self):
        config = small_config(use_bert_branch=False)
        model = IbenModel(config)
        fused, emb = self.inputs(config)
        a = model.forward(fused=fused, emb=emb).values
        b = model.forward(fused=fused * 100.0, emb=emb).values
        c = model.forward(emb=emb).values
        npt.assert_array_equal(a, b)
        npt.assert_array_equal(a, c)

    def test_missing_input_for_enabled_branch(self):
        model = IbenModel(small_config())
        fused, emb = self.inputs(small_config())
        with pytest.raises(ValueError, match="fused"):
            model.forward(emb=emb)
        with pytest.raises(ValueError, match="matrix"):
            model.forward(fused=fused)

    def test_wrong_widths_raise(self):
        config = small_config()
        model = IbenModel(config)
        fused, emb = self.inputs(config)
        with pytest.raises(ad.ShapeError):
            model.forward(fused=fused[:, :-1], emb=emb)
        with pytest.raises(ad.ShapeError):
            model.forward(fused=fused, emb=emb[:, :-1])

    def test_learnable_pair_weights_scale_rows(self):
        config = small_config(learn_layer_weights=True)
        model = IbenModel(config)
        assert model.layer_weights in model.parameters()
        assert (model.layer_weights.name, model.layer_weights.shape) == ("layer_weights", (3,))
        fused, emb = self.inputs(config)
        base = model.forward(fused=fused, emb=emb).item()
        model.layer_weights.values[...] = 0.0
        zeroed = model.forward(fused=fused, emb=emb).item()
        zero_rows = model.forward(fused=np.zeros_like(fused), emb=emb).item()
        assert zeroed == zero_rows
        assert base != zeroed

    def test_prediction_is_deterministic_across_instances(self):
        config = small_config()
        fused, emb = self.inputs(config)
        a = IbenModel(config).forward(fused=fused, emb=emb).item()
        b = IbenModel(config).forward(fused=fused, emb=emb).item()
        assert a == b

    def test_fused_rows_must_match_the_learned_weights(self):
        config = small_config(learn_layer_weights=True)
        fused, emb = self.inputs(config)
        with pytest.raises(ad.ShapeError, match="scale_rows"):
            IbenModel(config).forward(fused=fused[:2], emb=emb)

    def test_default_config_has_26_parameters_and_no_single_gate(self):
        model = IbenModel(ModelConfig(fused_width=8, emb_dim=8, hidden_size=4))
        assert len(model.parameters()) == 26
        H = model.config.hidden_size
        for cell in (model.branch_a.fwd, model.branch_a.bwd,
                     model.branch_b_rnn.fwd, model.branch_b_rnn.bwd):
            assert [p.shape[0] for p in cell.parameters()] == [3 * H] * 3

    @pytest.mark.parametrize("learn, entries", [(False, 29), (True, 30)])
    def test_forward_tape_entries_at_twelve_pairs(self, learn, entries):
        config = small_config(n_pairs=12, kernel_sizes=(1, 2, 3, 4),
                              learn_layer_weights=learn)
        fused, emb = self.inputs(config)
        with Tape() as tape:
            IbenModel(config).forward(fused=fused, emb=emb)
        assert len(tape) == entries

    def test_batch_matches_each_sample(self):
        """One forward over a stacked batch gives every sample's prediction and
        the sum of their gradients."""
        config = small_config(learn_layer_weights=True, kernel_sizes=(1, 2, 3))
        model = IbenModel(config)
        rng = np.random.default_rng(21)
        for p in model.parameters():
            p.values[...] = rng.normal(size=p.shape) * 0.5
        samples = [self.inputs(config, seed=40 + b) for b in range(4)]
        fused, emb = (np.stack(x) for x in zip(*samples))
        cotangent = rng.normal(size=4)

        model.zero_grad()
        with Tape() as tape:
            pred = model.forward(fused=fused, emb=emb)
            loss = ad.total(ad.hadamard(pred, Tensor(cotangent)))
        tape.backward(loss)
        assert pred.shape == (4,)
        got = [p.grad.copy() for p in model.parameters()]

        model.zero_grad()
        for (f, e), c, value in zip(samples, cotangent, pred.values):
            with Tape() as tape:
                one = model.forward(fused=f, emb=e)
                loss = scale(one, c)
            tape.backward(loss)
            assert one.shape == ()
            assert abs(one.item() - value) <= 1e-12
        for p, g in zip(model.parameters(), got):
            npt.assert_allclose(g, p.grad, atol=1e-10, rtol=0, err_msg=p.name)

    def test_batch_inputs_must_agree(self):
        config = small_config()
        model = IbenModel(config)
        fused, emb = self.inputs(config)
        with pytest.raises(ad.ShapeError, match="batch shape"):
            model.forward(fused=np.stack([fused] * 3), emb=np.stack([emb] * 2))
        with pytest.raises(ad.ShapeError, match="batch shape"):
            model.forward(fused=np.stack([fused]), emb=emb)
        with pytest.raises(ad.ShapeError, match="matrix or a batch"):
            model.forward(fused=fused[0], emb=emb)

    def test_full_model_gradient_check(self):
        config = small_config(hidden_size=3, emb_dim=4, fused_width=5,
                              n_pairs=3, learn_layer_weights=True, seed=7)
        model = IbenModel(config)
        rng = np.random.default_rng(23)
        fused = rng.normal(size=(3, 5))
        emb = rng.normal(size=(5, 4))
        err = ad.grad_check(lambda: model.forward(fused=fused, emb=emb),
                            model.parameters())
        assert err <= 1e-4


class TestPredict:
    def test_clamp_bounds_the_output(self):
        config = small_config(use_bert_branch=False, emb_submodel="cnn")
        model = IbenModel(config)
        zero_params(model)
        model.head.b.values[...] = 5.0
        _, emb = TestForward().inputs(config)
        assert model.predict(emb=emb) == 5.0
        assert model.predict(emb=emb, clamp=True) == 3.0
        model.head.b.values[...] = -1.0
        assert model.predict(emb=emb, clamp=True) == 0.0
        model.head.b.values[...] = 1.5
        assert model.predict(emb=emb, clamp=True) == 1.5


class TestCheckpoints:
    def make_model(self, **overrides):
        return IbenModel(small_config(**overrides))

    def test_round_trip_restores_everything(self, tmp_path):
        model = self.make_model()
        rng = np.random.default_rng(30)
        for p in model.parameters():
            p.values[...] = rng.normal(size=p.shape)
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)
        back = load_checkpoint(path)
        assert back.config == model.config
        for orig, rt in zip(model.parameters(), back.parameters()):
            assert rt.name == orig.name
            npt.assert_array_equal(rt.values, orig.values)

    def test_a_writer_failing_halfway_keeps_the_old_file(self, tmp_path):
        """A parameter in the middle of the blob fails to serialize: the old
        checkpoint stays byte-identical and no temporary is left."""

        class Exploding(np.ndarray):
            def astype(self, *args, **kwargs):
                raise OSError("no space left on device")

        path = tmp_path / "m.ckpt"
        save_checkpoint(self.make_model(seed=1), path)
        old = path.read_bytes()
        model = self.make_model(seed=2)
        params = model.parameters()
        middle = params[len(params) // 2]
        middle.values = middle.values.view(Exploding)
        with pytest.raises(OSError, match="no space"):
            save_checkpoint(model, path)
        assert path.read_bytes() == old
        assert [f.name for f in tmp_path.iterdir()] == ["m.ckpt"]

    def test_round_trip_preserves_predictions(self, tmp_path):
        model = self.make_model()
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)
        back = load_checkpoint(path)
        config = model.config
        fused, emb = TestForward().inputs(config)
        assert back.predict(fused=fused, emb=emb) == model.predict(fused=fused, emb=emb)

    def test_same_config_and_seed_write_identical_bytes(self, tmp_path):
        paths = []
        for i in range(2):
            path = tmp_path / f"m{i}.ckpt"
            save_checkpoint(self.make_model(seed=9), path)
            paths.append(path.read_bytes())
        assert paths[0] == paths[1]

    def test_manifest_round_trip(self, tmp_path):
        model = self.make_model()
        path = tmp_path / "m.ckpt"
        manifest = {"variant": "edited", "max_len": 40}
        save_checkpoint(model, path, manifest=manifest)
        assert checkpoint_manifest(path) == manifest
        load_checkpoint(path)  # manifest does not disturb loading

    def test_manifest_absent_is_none(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(self.make_model(), path)
        assert checkpoint_manifest(path) is None

    def test_manifest_is_read_from_the_header_line_alone(self, tmp_path, monkeypatch):
        path = tmp_path / "m.ckpt"
        manifest = {"variant": "edited", "max_len": 40}
        save_checkpoint(self.make_model(), path, manifest=manifest)
        header_line, _, blob = path.read_bytes().partition(b"\n")
        path.write_bytes(header_line + b"\n" + blob[:5])
        assert checkpoint_manifest(path) == manifest
        with pytest.raises(DataFormatError, match="blob is 5 bytes"):
            load_checkpoint(path)

        class HeaderLineOnly(io.BufferedReader):
            def read(self, size=-1):
                raise AssertionError("the blob was read")

        monkeypatch.setattr(model_lib, "open", lambda file, mode: HeaderLineOnly(io.FileIO(file)),
                            raising=False)
        assert checkpoint_manifest(path) == manifest

    def test_header_lists_the_parameters_back_to_back(self, tmp_path):
        model = self.make_model(learn_layer_weights=True)
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)
        header = json.loads(path.read_bytes().partition(b"\n")[0])
        params = model.parameters()
        sizes = [p.size for p in params]
        assert header["params"] == [
            {"name": p.name, "shape": list(p.shape), "offset": 8 * sum(sizes[:i])}
            for i, p in enumerate(params)]
        assert header["blob_bytes"] == 8 * sum(sizes)

    @pytest.mark.parametrize("mutate, entry", [
        (lambda t: t[-1].__setitem__("offset", 0), lambda n: n - 1),
        (lambda t: t[0].__setitem__("offset", True), lambda n: 0),
        (lambda t: t[1].__setitem__("offset", float(t[1]["offset"])), lambda n: 1),
        (lambda t: t[2].__setitem__("shape", [float(d) for d in t[2]["shape"]]), lambda n: 2),
        (lambda t: t[0].__setitem__("dtype", "<f8"), lambda n: 0),
        (lambda t: t[0].pop("offset"), lambda n: 0),
        (lambda t: t.insert(1, t[0]), lambda n: 1),
        (lambda t: t.__setitem__(slice(0, 2), t[1::-1]), lambda n: 0),
        (lambda t: t.pop(), lambda n: n - 1),
        (lambda t: t.append(dict(t[-1])), lambda n: n),
    ], ids=["duplicated_offset", "boolean_offset", "float_offset", "float_shape", "extra_key",
            "missing_key", "duplicated_entry", "swapped_entries", "missing_entry",
            "extra_entry"])
    def test_table_other_than_the_models_is_refused(self, tmp_path, mutate, entry):
        """Canonical JSON text is compared, so ``true`` and ``1.0`` are not ``1``."""
        path = self.tamper(tmp_path, lambda h: mutate(h["params"]))
        index = entry(len(self.make_model().parameters()))
        with pytest.raises(DataFormatError,
                           match=rf"m\.ckpt: checkpoint params entry {index} .* does not match"):
            load_checkpoint(path)

    def test_params_that_are_not_a_list_are_refused(self, tmp_path):
        path = self.tamper(tmp_path, lambda h: h.__setitem__("params", {"name": "head.b"}))
        with pytest.raises(DataFormatError, match=r"entry 0 \{\"name\": \"head.b\"\} does not"):
            load_checkpoint(path)

    def test_unreadable_header(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"\xff\xfe garbage\n more")
        with pytest.raises(DataFormatError):
            load_checkpoint(path)

    def test_header_nested_past_the_recursion_limit_is_unreadable(self, tmp_path):
        path = tmp_path / "deep.ckpt"
        path.write_bytes(b"[" * 100_000 + b"]" * 100_000 + b"\n")
        for read in (load_checkpoint, checkpoint_manifest):
            with pytest.raises(DataFormatError, match="unreadable checkpoint header"):
                read(path)

    @pytest.mark.parametrize("header", [b"[1, 2]", b"\"text\"", b"7", b"null"])
    def test_a_header_that_is_not_an_object_is_refused(self, tmp_path, header):
        path = tmp_path / "list.ckpt"
        path.write_bytes(header + b"\n")
        for read in (load_checkpoint, checkpoint_manifest):
            with pytest.raises(DataFormatError, match="list.ckpt: checkpoint header is not a "
                                                      "JSON object"):
                read(path)

    @pytest.mark.parametrize("manifest", [[1, 2], "text", 7])
    def test_a_manifest_that_is_not_an_object_is_refused(self, tmp_path, manifest):
        path = self.tamper(tmp_path, lambda h: h.__setitem__("manifest", manifest))
        with pytest.raises(DataFormatError, match="m.ckpt: checkpoint manifest is not a JSON "
                                                  "object"):
            checkpoint_manifest(path)

    def tamper(self, tmp_path, mutate):
        model = self.make_model()
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)
        header_line, _, blob = path.read_bytes().partition(b"\n")
        header = json.loads(header_line)
        mutate(header)
        path.write_bytes(json.dumps(header, sort_keys=True).encode() + b"\n" + blob)
        return path

    def test_shape_mismatch_detected(self, tmp_path):
        path = self.tamper(tmp_path, lambda h: h["params"][0].__setitem__("shape", [1, 1]))
        with pytest.raises(DataFormatError, match="shape"):
            load_checkpoint(path)

    def test_renamed_parameter_detected(self, tmp_path):
        path = self.tamper(tmp_path, lambda h: h["params"][0].__setitem__("name", "nope"))
        with pytest.raises(DataFormatError, match="does not match"):
            load_checkpoint(path)

    def test_bad_offset_detected(self, tmp_path):
        path = self.tamper(tmp_path, lambda h: h["params"][-1].__setitem__("offset", 10 ** 9))
        with pytest.raises(DataFormatError, match="offset"):
            load_checkpoint(path)

    def test_blob_length_mismatch_detected(self, tmp_path):
        path = self.tamper(tmp_path, lambda h: h.__setitem__("blob_bytes", 3))
        with pytest.raises(DataFormatError, match="blob"):
            load_checkpoint(path)

    @pytest.mark.parametrize("overrides", [
        {}, dict(use_bias=False), dict(learn_layer_weights=True),
        dict(use_bert_branch=False, emb_submodel="cnn"),
        dict(use_emb_branch=False), dict(emb_submodel="bigru"), dict(kernel_sizes=(1, 3, 4)),
    ])
    def test_weight_count_matches_the_built_model(self, overrides):
        model = self.make_model(**overrides)
        assert _weight_count(model.config) == sum(p.size for p in model.parameters())

    def test_unsupported_schema_detected(self, tmp_path):
        path = self.tamper(tmp_path, lambda h: h.__setitem__("schema", 99))
        with pytest.raises(DataFormatError, match="schema"):
            load_checkpoint(path)
