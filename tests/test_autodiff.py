"""Tests for the tensor core: op semantics, tape behavior, gradients.

Derived gradient values are checked against central finite differences;
simple values against hand arithmetic.
"""

import os
import threading
import time

import numpy as np
import numpy.testing as npt
import pytest

import iben.autodiff as ad
from iben.autodiff import NonFiniteError, Parameter, ShapeError, Tape, Tensor
import oracle_ops
from oracle_ops import scale, slice_axis, stack_rows, sub


def fd_gradient(f, x, eps=1e-5):
    """Central differences of a scalar function of one numpy array."""
    x = x.astype(np.float64)
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = f(x)
        flat[i] = orig - eps
        lo = f(x)
        flat[i] = orig
        gflat[i] = (hi - lo) / (2 * eps)
    return g


def tape_gradient(build, param):
    """Gradient of build(param) (a scalar tensor) wrt the parameter."""
    param.zero_grad()
    with Tape() as tape:
        out = build(param)
    tape.backward(out)
    return param.grad.copy()


class TestTensorBasics:
    def test_values_are_float64(self):
        t = Tensor([[1, 2], [3, 4]])
        assert t.values.dtype == np.float64
        assert t.shape == (2, 2)
        assert t.size == 4

    def test_non_finite_rejected_at_construction(self):
        with pytest.raises(NonFiniteError):
            Tensor([1.0, np.nan])
        with pytest.raises(NonFiniteError):
            Tensor([np.inf])

    def test_overflow_is_an_error_not_a_silent_inf(self):
        big = Tensor([1e200])
        with np.errstate(over="ignore"), pytest.raises(NonFiniteError):
            ad.hadamard(big, big)

    def test_item_requires_single_element(self):
        assert Tensor(3.5).item() == 3.5
        with pytest.raises(ShapeError):
            Tensor([1.0, 2.0]).item()

    def test_parameter_starts_with_zero_grad(self):
        p = Parameter(np.ones((2, 3)), name="p")
        assert p.name == "p"
        npt.assert_array_equal(p.grad, np.zeros((2, 3)))


class TestElementwiseOps:
    def test_add_zeros_is_identity(self):
        x = Tensor([1.0, -2.0, 3.0])
        npt.assert_array_equal(ad.add(x, Tensor(np.zeros(3))).values, x.values)

    def test_hadamard_ones_is_identity(self):
        x = Tensor([[1.5, -2.0], [0.0, 4.0]])
        npt.assert_array_equal(ad.hadamard(x, Tensor(np.ones((2, 2)))).values, x.values)

    def test_scale_by_zero_is_zeros(self):
        x = Tensor([1.0, 2.0])
        npt.assert_array_equal(scale(x, 0.0).values, np.zeros(2))

    def test_shape_mismatch_raises(self):
        with pytest.raises(ShapeError):
            ad.add(Tensor([1.0]), Tensor([1.0, 2.0]))
        with pytest.raises(ShapeError):
            ad.hadamard(Tensor([[1.0]]), Tensor([1.0]))

    def test_sigmoid_zero_is_half(self):
        assert ad.sigmoid(Tensor(0.0)).item() == 0.5

    def test_tanh_zero_is_zero(self):
        assert ad.tanh(Tensor(0.0)).item() == 0.0

    def test_sigmoid_range_and_stability(self):
        """Extreme inputs saturate without overflowing."""
        x = Tensor([-1000.0, -20.0, 0.0, 20.0, 1000.0])
        s = ad.sigmoid(x).values
        assert np.all(s >= 0.0) and np.all(s <= 1.0)
        assert s[0] == 0.0 and s[-1] == 1.0  # float64 saturation

    def test_tanh_range(self):
        x = Tensor(np.linspace(-50, 50, 101))
        v = ad.tanh(x).values
        assert np.all(v >= -1.0) and np.all(v <= 1.0)

    def test_relu_values(self):
        x = Tensor([-2.0, 0.0, 3.0])
        npt.assert_array_equal(ad.relu(x).values, [0.0, 0.0, 3.0])

    @pytest.mark.parametrize("op", [ad.sigmoid, ad.tanh])
    def test_smooth_unary_gradients(self, op):
        rng = np.random.default_rng(11)
        p = Parameter(rng.normal(size=8), name="u")
        err = ad.grad_check(lambda: ad.total(op(p)), [p])
        assert err <= 1e-6

    def test_relu_gradient_off_the_kink(self):
        rng = np.random.default_rng(12)
        x = rng.normal(size=10)
        x = x + 0.3 * np.where(x >= 0, 1.0, -1.0)
        p = Parameter(x, name="r")
        assert ad.grad_check(lambda: ad.total(ad.relu(p)), [p]) <= 1e-6

    def test_hadamard_and_scale_rows_gradients(self):
        rng = np.random.default_rng(13)
        a = Parameter(rng.normal(size=(3, 4)), name="a")
        b = Parameter(rng.normal(size=(3, 4)), name="b")
        w = Parameter(rng.normal(size=3), name="w")
        err = ad.grad_check(lambda: ad.total(ad.scale_rows(ad.hadamard(a, b), w)), [a, b, w])
        assert err <= 1e-6

    def test_scale_rows_values_and_shape_errors(self):
        x = np.arange(6.0).reshape(3, 2)
        out = ad.scale_rows(Tensor(x), Tensor(np.array([2.0, 0.0, -1.0])))
        npt.assert_array_equal(out.values, [[0.0, 2.0], [0.0, 0.0], [-4.0, -5.0]])
        with pytest.raises(ShapeError):
            ad.scale_rows(Tensor(x), Tensor(np.ones(2)))
        with pytest.raises(ShapeError):
            ad.scale_rows(Tensor(np.ones(3)), Tensor(np.ones(3)))


    def test_scale_rows_over_a_batch_matches_each_sample(self):
        rng = np.random.default_rng(14)
        x = Parameter(rng.normal(size=(3, 4, 2)), name="x")
        w = Parameter(rng.normal(size=4), name="w")
        out = ad.scale_rows(x, w).values
        for b in range(3):
            npt.assert_array_equal(out[b], ad.scale_rows(Tensor(x.values[b]), w).values)
        assert ad.grad_check(lambda: ad.total(ad.tanh(ad.scale_rows(x, w))), [x, w]) <= 1e-6


class TestLinear:
    def test_vector_and_batch_values(self):
        rng = np.random.default_rng(23)
        W, b = rng.normal(size=(3, 4)), rng.normal(size=3)
        v, m = rng.normal(size=4), rng.normal(size=(5, 4))
        npt.assert_allclose(ad.linear(Tensor(v), Tensor(W), Tensor(b)).values, W @ v + b,
                            atol=1e-14)
        out = ad.linear(Tensor(m), Tensor(W), Tensor(b)).values
        assert out.shape == (5, 3)
        for row, x in zip(out, m):
            npt.assert_allclose(row, W @ x + b, atol=1e-14)
        npt.assert_allclose(ad.linear(Tensor(m), Tensor(W)).values, m @ W.T, atol=1e-14)

    @pytest.mark.parametrize("shape", [(4,), (5, 4)])
    def test_gradients(self, shape):
        rng = np.random.default_rng(24)
        x = Parameter(rng.normal(size=shape), name="x")
        W = Parameter(rng.normal(size=(3, 4)), name="W")
        b = Parameter(rng.normal(size=3), name="b")
        err = ad.grad_check(lambda: ad.total(ad.tanh(ad.linear(x, W, b))), [x, W, b])
        assert err <= 1e-6
        assert ad.grad_check(lambda: ad.total(ad.tanh(ad.linear(x, W))), [x, W]) <= 1e-6

    def test_shape_errors(self):
        W = Tensor(np.ones((3, 4)))
        for x, bias in ((np.ones(3), None), (np.ones((2, 2, 4)), None), (np.ones(4), np.ones(4))):
            with pytest.raises(ShapeError, match="linear"):
                ad.linear(Tensor(x), W, None if bias is None else Tensor(bias))


class TestMatmul:
    def test_identity_left(self):
        b = np.arange(6, dtype=float).reshape(2, 3)
        out = ad.matmul(Tensor(np.eye(2)), Tensor(b))
        npt.assert_array_equal(out.values, b)

    def test_row_times_column(self):
        out = ad.matmul(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
        npt.assert_array_equal(out.values, [[11.0]])

    def test_gradient_of_sum_wrt_left_operand(self):
        """d/dA sum(A @ B) = ones @ B^T, confirmed two ways."""
        rng = np.random.default_rng(21)
        a = Parameter(rng.normal(size=(3, 4)), name="A")
        bv = rng.normal(size=(4, 2))
        b = Tensor(bv)
        g = tape_gradient(lambda p: ad.total(ad.matmul(p, b)), a)
        npt.assert_allclose(g, np.ones((3, 2)) @ bv.T, rtol=1e-12)
        assert ad.grad_check(lambda: ad.total(ad.matmul(a, b)), [a]) <= 1e-6

    def test_matrix_vector_and_vector_matrix(self):
        rng = np.random.default_rng(22)
        m = rng.normal(size=(3, 4))
        v = rng.normal(size=4)
        npt.assert_allclose(ad.matmul(Tensor(m), Tensor(v)).values, m @ v)
        w = rng.normal(size=3)
        npt.assert_allclose(ad.matmul(Tensor(w), Tensor(m)).values, w @ m)
        pm = Parameter(m, name="m")
        pv = Parameter(v, name="v")
        err = ad.grad_check(lambda: ad.total(ad.matmul(pm, pv)), [pm, pv])
        assert err <= 1e-6

    def test_inner_dim_mismatch(self):
        with pytest.raises(ShapeError):
            ad.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))


class TestConcatAndSlice:
    def test_concat_with_empty_tensor_is_identity(self):
        x = Tensor(np.arange(6, dtype=float).reshape(2, 3))
        empty = Tensor(np.zeros((0, 3)))
        out = ad.concat([x, empty], axis=0)
        npt.assert_array_equal(out.values, x.values)

    def test_slice_of_concat_recovers_originals(self):
        rng = np.random.default_rng(31)
        a = Tensor(rng.normal(size=(2, 4)))
        b = Tensor(rng.normal(size=(3, 4)))
        joined = ad.concat([a, b], axis=0)
        npt.assert_array_equal(slice_axis(joined, 0, 0, 2).values, a.values)
        npt.assert_array_equal(slice_axis(joined, 0, 2, 5).values, b.values)

    def test_concat_of_slices_recovers_original(self):
        rng = np.random.default_rng(32)
        x = Tensor(rng.normal(size=(5, 3)))
        parts = [slice_axis(x, 1, j, j + 1) for j in range(3)]
        npt.assert_array_equal(ad.concat(parts, axis=1).values, x.values)

    def test_gradient_routes_to_the_correct_block(self):
        rng = np.random.default_rng(33)
        a = Parameter(rng.normal(size=(2, 3)), name="a")
        b = Parameter(rng.normal(size=(2, 2)), name="b")

        def build():
            joined = ad.concat([a, b], axis=1)
            # weight only the second block so routing errors are visible
            keep = slice_axis(joined, 1, 3, 5)
            return ad.total(ad.hadamard(keep, keep))

        assert ad.grad_check(build, [a, b]) <= 1e-6
        tape_gradient_a = tape_gradient(lambda p: build(), a)
        npt.assert_array_equal(tape_gradient_a, np.zeros((2, 3)))

    def test_axis1_concat_values(self):
        a = Tensor([[1.0], [2.0]])
        b = Tensor([[3.0], [4.0]])
        npt.assert_array_equal(ad.concat([a, b], axis=1).values,
                               [[1.0, 3.0], [2.0, 4.0]])

    def test_stack_rows(self):
        rows = [Tensor([1.0, 2.0]), Tensor([3.0, 4.0])]
        npt.assert_array_equal(stack_rows(rows).values, [[1.0, 2.0], [3.0, 4.0]])


class TestConv1d:
    def test_width1_ones_kernel_gives_row_sums(self):
        rng = np.random.default_rng(41)
        x = rng.normal(size=(5, 3))
        out = ad.conv1d(Tensor(x), Tensor(np.ones((1, 1, 3))), Tensor(np.zeros(1)))
        npt.assert_allclose(out.values[:, 0], x.sum(axis=1), rtol=1e-12)

    def test_zero_input_broadcasts_bias(self):
        bias = np.array([0.5, -1.5])
        out = ad.conv1d(Tensor(np.zeros((4, 3))), Tensor(np.zeros((2, 2, 3))), Tensor(bias))
        assert out.shape == (3, 2)
        npt.assert_array_equal(out.values, np.tile(bias, (3, 1)))

    def test_matches_brute_force_triple_loop(self):
        """Random 6x3 input, k=2, F=2, against the definition written as loops."""
        rng = np.random.default_rng(42)
        x = rng.normal(size=(6, 3))
        k = rng.normal(size=(2, 2, 3))
        b = rng.normal(size=2)
        out = ad.conv1d(Tensor(x), Tensor(k), Tensor(b)).values
        expect = np.zeros((5, 2))
        for t in range(5):
            for f in range(2):
                acc = b[f]
                for j in range(2):
                    for d in range(3):
                        acc += x[t + j, d] * k[f, j, d]
                expect[t, f] = acc
        npt.assert_allclose(out, expect, atol=1e-12)

    def test_kernel_longer_than_sequence_raises(self):
        with pytest.raises(ShapeError):
            ad.conv1d(Tensor(np.zeros((2, 3))), Tensor(np.zeros((1, 3, 3))),
                      Tensor(np.zeros(1)))

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_gradients_all_kernel_sizes(self, k):
        rng = np.random.default_rng(100 + k)
        x = Parameter(rng.normal(size=(6, 3)), name="x")
        kern = Parameter(rng.normal(size=(2, k, 3)), name="k")
        bias = Parameter(rng.normal(size=2), name="b")
        err = ad.grad_check(lambda: ad.total(ad.conv1d(x, kern, bias)),
                            [x, kern, bias])
        assert err <= 1e-6


    def test_constant_input_gives_the_gradients_of_a_parameter_input(self):
        rng = np.random.default_rng(105)
        xv = rng.normal(size=(6, 3))
        kern = Parameter(rng.normal(size=(2, 3, 3)), name="k")
        bias = Parameter(rng.normal(size=2), name="b")
        cotangent = Tensor(rng.normal(size=(4, 2)))
        runs = []
        for x in (Tensor(xv), Parameter(xv, name="x")):
            kern.zero_grad()
            bias.zero_grad()
            with Tape() as tape:
                loss = ad.total(ad.hadamard(ad.conv1d(x, kern, bias), cotangent))
            tape.backward(loss)
            once = [kern.grad.copy(), bias.grad.copy()]
            tape.backward(loss)
            runs.append(once + [kern.grad.copy(), bias.grad.copy()])
        for got, want in zip(*runs):
            npt.assert_array_equal(got, want)
        npt.assert_array_equal(runs[0][2], 2 * runs[0][0])


    def test_batch_matches_the_einsum_oracle(self):
        """Each sample of a B x L x D batch against the per-sample op it replaced."""
        rng = np.random.default_rng(106)
        for B in (1, 2, 5):
            for _ in range(8):
                L, D, F = (int(v) for v in rng.integers(1, 7, size=3))
                k = int(rng.integers(1, L + 1))
                x = Parameter(rng.normal(size=(B, L, D)), name="x")
                kern = Parameter(rng.normal(size=(F, k, D)), name="k")
                bias = Parameter(rng.normal(size=F), name="b")
                cotangent = rng.normal(size=(B, L - k + 1, F))

                def sweep(xin, cot, op):
                    for p in (xin, kern, bias):
                        p.zero_grad()
                    with Tape() as tape:
                        out = op(xin, kern, bias)
                        loss = ad.total(ad.hadamard(out, Tensor(cot)))
                    tape.backward(loss)
                    return out.values, kern.grad.copy(), bias.grad.copy()

                got, got_k, got_b = sweep(x, cotangent, ad.conv1d)
                got_x = x.grad.copy()
                want_k, want_b = np.zeros_like(got_k), np.zeros_like(got_b)
                for b in range(B):
                    xb = Parameter(x.values[b], name="xb")
                    want, gk, gb = sweep(xb, cotangent[b], oracle_ops.conv1d)
                    npt.assert_allclose(got[b], want, atol=1e-12, rtol=0)
                    npt.assert_allclose(got_x[b], xb.grad, atol=1e-10, rtol=0)
                    want_k += gk
                    want_b += gb
                npt.assert_allclose(got_k, want_k, atol=1e-10, rtol=0)
                npt.assert_allclose(got_b, want_b, atol=1e-10, rtol=0)
                if B == 1:  # the same sample without the batch axis
                    single = ad.conv1d(Tensor(x.values[0]), kern, bias).values
                    npt.assert_array_equal(single, got[0])


class TestZeroRows:
    """gru_sequence, bi_gru_sequence and conv1d leave all-zero input rows out
    of their input-weight products; the ops from before that skip, kept in
    ``oracle_ops``, are the oracles."""

    CASES = ["zero rows at random positions", "an all-zero sample", "an all-zero batch",
             "no zero rows"]
    B, T, I, H, F, K = 4, 6, 5, 3, 2, 3

    @pytest.fixture
    def skip_at_any_size(self, monkeypatch):
        monkeypatch.setattr(ad, "_SKIP_MIN_VALUES", 0)

    def batch(self, case, rng):
        x = rng.normal(size=(self.B, self.T, self.I))
        if case == "zero rows at random positions":
            zero = rng.random((self.B, self.T)) < 0.4
            zero[0, :3] = [False, True, False]  # at least one interior zero row
            zero[1, 2] = False
            x[zero] = 0.0
            x[1, 2, :-1] = 0.0  # a row that is zero but for its last value is kept
        elif case == "an all-zero sample":
            x[2] = 0.0
        elif case == "an all-zero batch":
            x[...] = 0.0
        return x

    @staticmethod
    def weights(rng, shapes, recorded: bool):
        """Parameters, or (for ``recorded``) tape outputs of parameters, so that
        the gradient of a weight is returned instead of added in place."""
        params = [Parameter(rng.normal(size=s), f"w{i}") for i, s in enumerate(shapes)]
        return params, [ad.reshape(p, p.shape) if recorded else p for p in params]

    def sweep(self, xv, input_wanted, params, op, out_shape, rng):
        x = Parameter(xv.copy(), "x") if input_wanted else Tensor(xv)
        cotangent = Tensor(np.random.default_rng(5).normal(size=out_shape))
        for p in params:
            p.zero_grad()
        with Tape() as tape:
            out = op(x)
            loss = ad.total(ad.hadamard(out, cotangent))
        tape.backward(loss)
        return [out.values] + [p.grad.copy() for p in params] + ([x.grad] if input_wanted else [])

    @pytest.mark.parametrize("case", CASES)
    @pytest.mark.parametrize("input_wanted", [False, True])
    @pytest.mark.parametrize("recorded", [False, True])
    @pytest.mark.parametrize("op", ["gru", "gru reversed", "bi_gru", "conv"])
    @pytest.mark.usefixtures("skip_at_any_size")
    def test_matches_the_batched_oracle(self, case, input_wanted, recorded, op):
        rng = np.random.default_rng(131)
        xv = self.batch(case, rng)
        B, T, I, H = self.B, self.T, self.I, self.H
        zero_rows = int((~xv.reshape(-1, I).any(axis=1)).sum())
        keep = ad._nonzero_rows(xv.reshape(-1, I))
        assert (keep is None) == (zero_rows == 0)
        assert keep is None or keep.size == B * T - zero_rows
        if op == "conv":
            params, (kern, bias) = self.weights(rng, [(self.F, self.K, I), (self.F,)], recorded)
            out_shape = (B, T - self.K + 1, self.F)
            new = lambda x: ad.conv1d(x, kern, bias)  # noqa: E731
            old = lambda x: oracle_ops.batched_conv1d(x, kern, bias)  # noqa: E731
        else:
            shapes = [(3 * H, I), (3 * H, H), (3 * H,)]
            params, fwd = self.weights(rng, shapes, recorded)
            more, bwd = self.weights(rng, shapes, recorded)
            params += more
            out_shape = (B, T, 2 * H if op == "bi_gru" else H)
            reverse = op == "gru reversed"
            if op == "bi_gru":
                new = lambda x: ad.bi_gru_sequence(x, fwd, bwd)  # noqa: E731
                old = lambda x: ad.concat([oracle_ops.batched_gru_sequence(x, fwd),  # noqa: E731
                                           oracle_ops.batched_gru_sequence(x, bwd, reverse=True)],
                                          axis=-1)
            else:
                new = lambda x: ad.gru_sequence(x, fwd, reverse=reverse)  # noqa: E731
                old = lambda x: oracle_ops.batched_gru_sequence(x, fwd, reverse=reverse)  # noqa: E731
        got = self.sweep(xv, input_wanted, params, new, out_shape, rng)
        want = self.sweep(xv, input_wanted, params, old, out_shape, rng)
        for g, w in zip(got, want, strict=True):
            assert np.abs(g - w).max() <= 1e-12 * max(np.abs(w).max(), 1e-300)
        if input_wanted and zero_rows:  # the input's gradient covers the zero rows too
            dx = got[-1].reshape(-1, I)[~xv.reshape(-1, I).any(axis=1)]
            assert np.abs(dx).max() > 0

    @pytest.mark.parametrize("op", ["gru", "bi_gru", "conv"])
    @pytest.mark.usefixtures("skip_at_any_size")
    def test_gradcheck_with_zero_rows(self, op):
        rng = np.random.default_rng(132)
        xv = rng.normal(size=(2, 5, 3))
        xv[0, 1] = xv[0, 3:] = xv[1, 0] = 0.0
        x = Parameter(xv, "x")
        if op == "conv":
            params = [Parameter(rng.normal(size=(2, 2, 3)), "k"), Parameter(rng.normal(size=2), "b")]
            out = lambda: ad.conv1d(x, *params)  # noqa: E731
        else:
            params = [Parameter(rng.normal(size=s), f"w{i}")
                      for i, s in enumerate([(6, 3), (6, 2), (6,)] * 2)]
            out = ((lambda: ad.gru_sequence(x, params[:3])) if op == "gru"
                   else (lambda: ad.bi_gru_sequence(x, params[:3], params[3:])))
        weights = Tensor(rng.normal(size=out().shape))
        assert ad.grad_check(lambda: ad.total(ad.hadamard(ad.tanh(out()), weights)),
                             params + [x]) <= 1e-6

    def test_the_scan_starts_at_the_gate(self, monkeypatch):
        """Below ``_SKIP_MIN_VALUES`` values no row is left out."""
        rows = np.zeros((8, 4))
        rows[3] = 1.0
        monkeypatch.setattr(ad, "_SKIP_MIN_VALUES", rows.size)
        npt.assert_array_equal(ad._nonzero_rows(rows), [3])
        monkeypatch.setattr(ad, "_SKIP_MIN_VALUES", rows.size + 1)
        assert ad._nonzero_rows(rows) is None

    def test_the_overfit_inputs_are_below_the_gate(self):
        """16 samples of criterion 4's 8 x 8 word-vector matrix: the scan would
        cost more than it saves."""
        assert 16 * 8 * 8 < ad._SKIP_MIN_VALUES <= 16 * 40 * 900


class TestPooling:
    def test_batch_pools_each_sample(self):
        rng = np.random.default_rng(52)
        x = rng.normal(size=(3, 5, 4))
        x[np.arange(3)[:, None], x.argmax(axis=1), np.arange(4)] += 0.1
        p = Parameter(x, name="x")
        for op in (ad.max_over_time, ad.avg_over_time):
            out = op(p).values
            assert out.shape == (3, 4)
            for b in range(3):
                npt.assert_array_equal(out[b], op(Tensor(x[b])).values)
            assert ad.grad_check(lambda op=op: ad.total(ad.tanh(op(p))), [p]) <= 1e-6

    def test_single_row_input_returns_that_row(self):
        row = Tensor([[1.0, -2.0, 3.0]])
        npt.assert_array_equal(ad.max_over_time(row).values, [1.0, -2.0, 3.0])
        npt.assert_array_equal(ad.avg_over_time(row).values, [1.0, -2.0, 3.0])

    def test_constant_column_max_equals_avg(self):
        x = Tensor(np.full((4, 2), 0.7))
        npt.assert_array_equal(ad.max_over_time(x).values, ad.avg_over_time(x).values)

    def test_max_gradient_is_an_indicator(self):
        """Only the argmax cell of each column receives gradient."""
        x = np.array([[1.0, 5.0], [3.0, 2.0], [2.0, 4.0]])
        p = Parameter(x, name="x")
        g = tape_gradient(lambda t: ad.total(ad.max_over_time(t)), p)
        npt.assert_array_equal(g, [[0.0, 1.0], [1.0, 0.0], [0.0, 0.0]])

    def test_pooling_gradients_off_ties(self):
        rng = np.random.default_rng(51)
        x = rng.normal(size=(5, 3))
        top = x.argmax(axis=0)
        x[top, np.arange(3)] += 0.1  # widen the margin beyond the FD step
        p = Parameter(x, name="x")
        assert ad.grad_check(lambda: ad.total(ad.max_over_time(p)), [p]) <= 1e-6
        assert ad.grad_check(lambda: ad.total(ad.avg_over_time(p)), [p]) <= 1e-6

    def test_max_tie_breaks_to_first_row(self):
        x = Parameter(np.array([[2.0, 1.0], [2.0, 1.0]]), name="x")
        g = tape_gradient(lambda t: ad.total(ad.max_over_time(t)), x)
        npt.assert_array_equal(g, [[1.0, 1.0], [0.0, 0.0]])


class TestLosses:
    def test_zero_when_predictions_match(self):
        p = Tensor([0.3, 1.7])
        t = Tensor([0.3, 1.7])
        assert ad.mse_loss(p, t).item() == 0.0
        assert ad.mae_sum_loss(p, t).item() == 0.0

    def test_hand_arithmetic(self):
        p = Tensor([1.0, 1.0])
        t = Tensor([0.0, 3.0])
        assert ad.mse_loss(p, t).item() == pytest.approx(2.5, abs=1e-15)
        assert ad.mae_sum_loss(p, t).item() == pytest.approx(3.0, abs=1e-15)

    def test_mse_gradient_formula(self):
        """Analytic 2*(pred-target)/n, and the finite-difference check."""
        rng = np.random.default_rng(61)
        pv = rng.normal(size=5)
        tv = rng.normal(size=5)
        pred = Parameter(pv, name="pred")
        target = Tensor(tv)
        g = tape_gradient(lambda p: ad.mse_loss(p, target), pred)
        npt.assert_allclose(g, 2.0 * (pv - tv) / 5, rtol=1e-12)
        assert ad.grad_check(lambda: ad.mse_loss(pred, target), [pred]) <= 1e-6

    def test_mae_sum_gradient_is_sign(self):
        pred = Parameter(np.array([2.0, -1.0, 0.5]), name="pred")
        target = Tensor(np.array([1.0, 1.0, 0.5]))
        g = tape_gradient(lambda p: ad.mae_sum_loss(p, target), pred)
        npt.assert_array_equal(g, [1.0, -1.0, 0.0])  # subgradient 0 at the tie


class TestTapeSemantics:
    def test_no_tape_means_no_graph(self):
        p = Parameter(np.array([1.0, 2.0]), name="p")
        out = ad.total(p)
        with Tape() as tape:
            pass
        assert len(tape) == 0
        with pytest.raises(ValueError, match="not recorded on this tape"):
            tape.backward(out)
        npt.assert_array_equal(p.grad, [0.0, 0.0])

    def test_an_op_on_another_thread_records_on_the_open_tape(self):
        """Open tapes are process-wide: a worker thread's op lands on the
        innermost tape that the main thread opened."""
        p = Parameter(np.array([1.0, -2.0]), name="p")
        result = {}
        with Tape() as tape:
            worker = threading.Thread(target=lambda: result.update(loss=ad.total(p)))
            worker.start()
            worker.join(timeout=10)
        assert not worker.is_alive()
        assert len(tape) == 1
        tape.backward(result["loss"])
        npt.assert_array_equal(p.grad, [1.0, 1.0])

    def test_backward_requires_scalar(self):
        p = Parameter(np.ones(3), name="p")
        with Tape() as tape:
            out = scale(p, 2.0)
        with pytest.raises(ShapeError):
            tape.backward(out)

    def test_backward_rejects_foreign_tensor(self):
        with Tape() as t1:
            a = ad.total(Tensor([1.0]))
        with Tape() as t2:
            ad.total(Tensor([2.0]))
        with pytest.raises(ValueError):
            t2.backward(a)

    def test_diamond_graph_accumulates_through_shared_node(self):
        """f = sum(h + h) with h = 2x must give df/dx = 4."""
        p = Parameter(np.array([1.0, 2.0]), name="x")
        with Tape() as tape:
            h = scale(p, 2.0)
            out = ad.total(ad.add(h, h))
        tape.backward(out)
        npt.assert_array_equal(p.grad, [4.0, 4.0])

    def test_gradients_accumulate_across_backward_calls(self):
        """Without zeroing, a second sweep doubles the leaf gradient."""
        p = Parameter(np.array([3.0]), name="x")
        with Tape() as tape:
            out = ad.total(ad.hadamard(p, p))
        tape.backward(out)
        first = p.grad.copy()
        tape.backward(out)
        npt.assert_array_equal(p.grad, 2 * first)
        npt.assert_array_equal(first, [6.0])

    def test_parameter_gradient_accumulates_in_its_own_buffer(self):
        p = Parameter(np.array([1.0, -2.0]), name="x")
        buffer = p.grad
        with Tape() as tape:
            out = ad.total(ad.hadamard(p, p))
        tape.backward(out)
        tape.backward(out)
        assert p.grad is buffer
        npt.assert_array_equal(buffer, [4.0, -8.0])

    def test_reverse_sweep_is_linear(self):
        """grad(a*f + b*g) == a*grad(f) + b*grad(g) on shared parameters."""
        rng = np.random.default_rng(71)
        p = Parameter(rng.normal(size=4), name="p")

        def f(t):
            return ad.total(ad.hadamard(t, t))

        def g(t):
            return ad.total(ad.sigmoid(t))

        gf = tape_gradient(f, p)
        gg = tape_gradient(g, p)
        combo = tape_gradient(lambda t: ad.add(scale(f(t), 2.5),
                                               scale(g(t), -1.25)), p)
        npt.assert_allclose(combo, 2.5 * gf - 1.25 * gg, rtol=1e-12)

    def test_only_parameters_carry_a_gradient(self):
        x = Tensor([1.0, -2.0])
        p = Parameter(np.array([0.5, 3.0]), name="p")
        with Tape() as tape:
            mid = ad.hadamard(x, p)
            loss = ad.total(mid)
        tape.backward(loss)
        npt.assert_array_equal(p.grad, x.values)
        assert not any(hasattr(t, "grad") for t in (x, mid, loss))

    def test_outer_tape_tensor_is_a_constant_on_an_inner_tape(self):
        p = Parameter(np.array([1.0, 2.0]), name="p")
        with Tape() as outer:
            h = scale(p, 3.0)
            with Tape() as inner:
                loss = ad.total(ad.hadamard(h, p))
        inner.backward(loss)
        npt.assert_array_equal(p.grad, h.values)  # h held fixed: d/dp sum(h * p) = h
        assert not hasattr(h, "grad") and len(outer) == 1

    def test_nested_tapes_record_to_the_innermost(self):
        p = Parameter(np.array([1.0]), name="p")
        with Tape() as outer:
            ad.total(p)
            with Tape() as inner:
                ad.total(p)
            assert len(inner) == 1
        assert len(outer) == 1

    @pytest.mark.parametrize("count", [1, 3])
    def test_a_backward_with_the_wrong_number_of_gradients_raises(self, count):
        """One gradient per operand: a short or long answer is an error, not
        a silently dropped or ignored gradient."""
        p = Parameter(np.array([1.0, 2.0]), name="p")
        with Tape() as tape:
            out = ad._apply(p.values.sum(), "sum_twice", (p, p),
                            lambda g, wanted: (np.full(2, g),) * count)
        with pytest.raises(ValueError):
            tape.backward(out)

    def test_gru_sequence_runs_its_bptt_once_per_sweep(self, monkeypatch):
        """With the input, W, U, b and h0 all reachable, each sweep calls the
        op's backward once, and the second sweep adds what the first did."""
        calls = []
        apply = ad._apply

        def counting_apply(values, op, parents, backward):
            def counted(g, wanted):
                calls.append((op, wanted))
                return backward(g, wanted)

            return apply(values, op, parents, counted if op == "gru_sequence" else backward)

        monkeypatch.setattr(ad, "_apply", counting_apply)
        rng = np.random.default_rng(5)
        T, I, H = 4, 2, 3
        shapes = {"x": (T, I), "W": (3 * H, I), "U": (3 * H, H), "b": (3 * H,), "h0": (H,)}
        params = {n: Parameter(rng.normal(size=s), name=n) for n, s in shapes.items()}
        with Tape() as tape:
            x = scale(params["x"], 1.0)
            h0 = scale(params["h0"], 1.0)
            loss = ad.total(ad.gru_sequence(x, [params[n] for n in "WUb"], h0))
        tape.backward(loss)
        assert calls == [("gru_sequence", (True,) * 5)]
        first = {n: p.grad.copy() for n, p in params.items()}
        assert all(np.any(g != 0.0) for g in first.values())
        tape.backward(loss)
        assert len(calls) == 2
        for n, p in params.items():
            npt.assert_array_equal(p.grad, 2 * first[n])


class TestRunBoth:
    @pytest.fixture
    def two_cpus(self, monkeypatch):
        monkeypatch.setattr(ad, "_usable_cpus", lambda: 2)

    def test_second_runs_on_the_worker_under_the_callers_errstate(self, two_cpus):
        def where():
            return threading.current_thread(), np.geterr()["over"]

        with np.errstate(over="raise"):
            (first_thread, first_over), (second_thread, second_over) = ad.run_both(
                where, where, True)
        assert first_thread is threading.current_thread()
        assert second_thread is not first_thread
        assert first_over == second_over == "raise"

    @pytest.mark.parametrize("cpus", [{0}, None])
    def test_one_cpu_runs_both_here(self, monkeypatch, cpus):
        """One CPU in the affinity set, or no affinity call and one CPU counted."""
        if cpus is None:
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
            monkeypatch.setattr(os, "cpu_count", lambda: 1)
        else:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
        here = threading.current_thread()
        assert ad.run_both(threading.current_thread, threading.current_thread, True) == (here,
                                                                                          here)

    def test_not_concurrent_runs_both_here_in_order(self, two_cpus):
        calls = []
        assert ad.run_both(lambda: calls.append(threading.current_thread()) or 1,
                           lambda: calls.append(threading.current_thread()) or 2,
                           False) == (1, 2)
        assert calls == [threading.current_thread()] * 2

    def test_an_exception_is_raised_once_both_have_finished(self, two_cpus):
        finished = []

        def slow():
            time.sleep(0.05)
            finished.append("second")

        def fail(which):
            raise ValueError(which)

        with pytest.raises(ValueError, match="first"):
            ad.run_both(lambda: fail("first"), slow, True)
        assert finished == ["second"]
        with pytest.raises(ValueError, match="second"):
            ad.run_both(lambda: finished.append("first"), lambda: fail("second"), True)
        assert finished == ["second", "first"]

    def test_a_forked_child_gets_its_own_worker(self, two_cpus):
        ad.run_both(int, int, True)  # the worker thread now exists, and a child lacks it
        pid = os.fork()
        if pid == 0:  # the child: exit 0 only if its worker answers
            code = 1
            try:
                code = 0 if ad.run_both(lambda: 1, lambda: 2, True) == (1, 2) else 1
            finally:
                os._exit(code)
        deadline = time.monotonic() + 10
        while (status := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
            time.sleep(0.01)
        if status[0] == 0:
            os.kill(pid, 9)
            os.waitpid(pid, 0)
        assert status[0] == pid and os.waitstatus_to_exitcode(status[1]) == 0


class TestGradCheckUtility:
    def test_quadratic_function(self):
        """sum(x^2) has a known analytic gradient; the checker agrees closely."""
        rng = np.random.default_rng(81)
        p = Parameter(rng.normal(size=6) + 1.0, name="q")
        err = ad.grad_check(lambda: ad.total(ad.hadamard(p, p)), [p])
        assert err <= 1e-8

    def test_zero_function_has_zero_error(self):
        p = Parameter(np.array([1.0, 2.0]), name="z")
        assert ad.grad_check(lambda: ad.total(scale(p, 0.0)), [p]) == 0.0


class TestRandomShapeSweep:
    def test_every_op_passes_gradient_check_on_random_shapes(self):
        """Primitive-by-primitive sweep over random small shapes (<= 8)."""
        rng = np.random.default_rng(91)
        for trial in range(5):
            n = int(rng.integers(1, 9))
            m = int(rng.integers(1, 9))
            a = Parameter(rng.normal(size=(n, m)), name="a")
            b = Parameter(rng.normal(size=(n, m)), name="b")
            assert ad.grad_check(lambda: ad.total(ad.add(a, b)), [a, b]) <= 1e-6
            assert ad.grad_check(lambda: ad.total(sub(a, b)), [a, b]) <= 1e-6
            assert ad.grad_check(lambda: ad.total(ad.hadamard(a, b)), [a, b]) <= 1e-6
            assert ad.grad_check(lambda: ad.total(ad.tanh(a)), [a]) <= 1e-6
            assert ad.grad_check(lambda: ad.total(ad.sigmoid(a)), [a]) <= 1e-6
            c = Parameter(rng.normal(size=(m, n)), name="c")
            assert ad.grad_check(lambda: ad.total(ad.matmul(a, c)), [a, c]) <= 1e-6
            flat = Parameter(rng.normal(size=n * m), name="flat")
            assert ad.grad_check(
                lambda: ad.total(ad.reshape(flat, (n, m))), [flat]) <= 1e-6
