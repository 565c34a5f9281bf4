"""Tests for the tensor core: op semantics, tape behavior, gradients.

Derived gradient values are checked against central finite differences;
simple values against hand arithmetic.
"""

import contextlib
import contextvars
import os
import re
import threading
import time

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

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

    @settings(max_examples=300, deadline=None)
    @given(arrays(np.float64, st.integers(0, 40), elements=st.one_of(
        st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
        st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan]),
        st.floats(-746.0, -700.0),  # exp(-|x|) is subnormal or zero
        st.floats(700.0, 746.0))))
    def test_logistic_has_the_bits_of_the_select_formula(self, x):
        """The maximum of exp(-|x|) and sign(x) as the numerator, against the
        select ``where(x >= 0, 1, exp(-|x|))`` it replaced."""
        got, want = ad._logistic(x), oracle_ops.logistic(x)
        assert np.array_equal(got, want, equal_nan=True)
        assert np.array_equal(np.signbit(got), np.signbit(want))

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
        pw = Parameter(w, name="w")
        assert ad.grad_check(lambda: ad.total(ad.matmul(pw, pm)), [pw, pm]) <= 1e-6

    def test_vector_times_vector_is_their_dot_product(self):
        rng = np.random.default_rng(23)
        u = Parameter(rng.normal(size=5), name="u")
        v = Parameter(rng.normal(size=5), name="v")
        out = ad.matmul(u, v)
        assert out.shape == () and out.item() == u.values @ v.values
        assert ad.grad_check(lambda: ad.matmul(u, v), [u, v]) <= 1e-6

    @pytest.mark.parametrize("a_shape, b_shape", [
        ((2, 3), (2, 3)), (3, 2), ((), (2,)), ((2, 2, 2), (2, 2)), ((2, 2), (2, 2, 2)),
    ], ids=["inner_dims", "vector_lengths", "scalar_left", "3d_left", "3d_right"])
    def test_inner_dim_or_rank_mismatch(self, a_shape, b_shape):
        with pytest.raises(ShapeError, match=r"^matmul needs 2-D or 1-D operands"):
            ad.matmul(Tensor(np.ones(a_shape)), Tensor(np.ones(b_shape)))


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

    def test_a_recorded_kernel_gets_its_gradient_in_its_own_shape(self):
        """A kernel gradient is formed as an F x kD matrix; the sweep reshapes
        it to F x k x D for an operand that is no parameter."""
        rng = np.random.default_rng(44)
        x = Tensor(rng.normal(size=(2, 5, 3)))
        raw = Parameter(rng.normal(size=(2, 3, 3)), "raw")
        bias = Parameter(rng.normal(size=2), "bias")
        assert ad.grad_check(lambda: ad.total(ad.tanh(ad.conv1d(x, ad.tanh(raw), bias))),
                             [raw, bias]) <= 1e-6

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
    """gru_sequence and conv1d leave all-zero input rows out
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

    def sweep(self, xv, input_wanted, params, recorded, op, out_shape):
        """``op(x, weights)`` over the parameters ``params``, or (for
        ``recorded``) over views of them recorded on the tape, so that the
        gradient of a weight is returned instead of added in place."""
        x = Parameter(xv.copy(), "x") if input_wanted else Tensor(xv)
        cotangent = Tensor(np.random.default_rng(5).normal(size=out_shape))
        for p in params:
            p.zero_grad()
        with Tape() as tape:
            weights = [ad.reshape(p, p.shape) if recorded else p for p in params]
            out = op(x, weights)
            loss = ad.total(ad.hadamard(out, cotangent))
        tape.backward(loss)
        return [out.values] + [p.grad.copy() for p in params] + ([x.grad] if input_wanted else [])

    @pytest.mark.parametrize("case", CASES)
    @pytest.mark.parametrize("input_wanted", [False, True])
    @pytest.mark.parametrize("recorded", [False, True])
    @pytest.mark.parametrize("op", ["gru", "gru reversed", "bi_gru", "bi_gru_sequence", "conv"])
    @pytest.mark.usefixtures("skip_at_any_size")
    def test_matches_the_batched_oracle(self, forced_split, monkeypatch, case, input_wanted,
                                        recorded, op):
        """``bi_gru`` forks at gate 0 but for a wanted input, ``bi_gru_sequence``
        is the one op (gate ``1 << 62``)."""
        rng = np.random.default_rng(131)
        xv = self.batch(case, rng)
        B, T, I, H = self.B, self.T, self.I, self.H
        zero_rows = int((~xv.reshape(-1, I).any(axis=1)).sum())
        keep = ad._nonzero_rows(xv.reshape(-1, I))
        assert (keep is None) == (zero_rows == 0)
        assert keep is None or keep.size == B * T - zero_rows
        if op == "conv":
            shapes = [(self.F, self.K, I), (self.F,)]
            out_shape = (B, T - self.K + 1, self.F)
            new = lambda x, w: ad.conv1d(x, *w)  # noqa: E731
            old = lambda x, w: oracle_ops.batched_conv1d(x, *w)  # noqa: E731
        else:
            shapes = [(3 * H, I), (3 * H, H), (3 * H,)] * 2
            out_shape = (B, T, H if op.startswith("gru") else 2 * H)
            reverse = op == "gru reversed"
            if op == "bi_gru_sequence":
                monkeypatch.setattr(ad, "FORK_MIN_MADDS", 1 << 62)
            if op.startswith("bi_gru"):
                new = lambda x, w: ad.bi_gru_sequence(x, w[:3], w[3:])  # noqa: E731
                old = lambda x, w: ad.concat(  # noqa: E731
                    [oracle_ops.batched_gru_sequence(x, w[:3]),
                     oracle_ops.batched_gru_sequence(x, w[3:], reverse=True)], axis=-1)
            else:
                new = lambda x, w: ad.gru_sequence(x, w[:3], reverse=reverse)  # noqa: E731
                old = lambda x, w: oracle_ops.batched_gru_sequence(  # noqa: E731
                    x, w[:3], reverse=reverse)
        params = [Parameter(rng.normal(size=s), f"w{i}") for i, s in enumerate(shapes)]
        got = self.sweep(xv, input_wanted, params, recorded, new, out_shape)
        assert forced_split.calls == 2 * (op == "bi_gru" and not input_wanted)
        want = self.sweep(xv, input_wanted, params, recorded, old, out_shape)
        assert any(np.any(w != 0.0) for w in want[1:1 + len(params)])
        for g, w in zip(got, want, strict=True):
            assert np.abs(g - w).max() <= 1e-12 * max(np.abs(w).max(), 1e-300)
        if input_wanted and zero_rows:  # the input's gradient covers the zero rows too
            dx = got[-1].reshape(-1, I)[~xv.reshape(-1, I).any(axis=1)]
            assert np.abs(dx).max() > 0

    @pytest.mark.parametrize("op", ["gru", "bi_gru", "bi_gru_sequence", "conv"])
    @pytest.mark.usefixtures("skip_at_any_size")
    def test_gradcheck_with_zero_rows(self, forced_split, monkeypatch, op):
        """``bi_gru`` forks at gate 0 over ``tanh`` of the input, which keeps its
        zero rows: its finite differences come from forked passes outside the
        tape, and its gradients pass through the fork's entry.
        ``bi_gru_sequence`` is the one op throughout (gate ``1 << 62``)."""
        rng = np.random.default_rng(132)
        xv = rng.normal(size=(2, 5, 3))
        xv[0, 1] = xv[0, 3:] = xv[1, 0] = 0.0
        x = Parameter(xv, "x")
        if op == "bi_gru_sequence":
            monkeypatch.setattr(ad, "FORK_MIN_MADDS", 1 << 62)
        if op == "conv":
            params = [Parameter(rng.normal(size=(2, 2, 3)), "k"), Parameter(rng.normal(size=2), "b")]
            out = lambda: ad.conv1d(x, *params)  # noqa: E731
        else:
            params = [Parameter(rng.normal(size=s), f"w{i}")
                      for i, s in enumerate([(6, 3), (6, 2), (6,)] * 2)]
            fwd, bwd = params[:3], params[3:]
            out = {"gru": lambda: ad.gru_sequence(x, fwd),
                   "bi_gru": lambda: ad.bi_gru_sequence(ad.tanh(x), fwd, bwd),
                   "bi_gru_sequence": lambda: ad.bi_gru_sequence(x, fwd, bwd)}[op]
        weights = Tensor(rng.normal(size=out().shape))
        assert ad.grad_check(lambda: ad.total(ad.hadamard(ad.tanh(out()), weights)),
                             params + [x]) <= 1e-6
        assert (forced_split.calls > 0) == (op == "bi_gru")

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


class TestBiGruSequence:
    """``bi_gru_sequence`` against its two-op oracle, the ``concat`` of a
    forward and a reverse ``gru_sequence``: the same states and gradients,
    bit for bit, at the paper's and the overfit criterion's dims."""

    DIMS = {"paper_a": (12, 4096, 128), "paper_b": (40, 900, 128),  # T, I, H
            "overfit_a": (2, 64, 16), "overfit_b": (8, 8, 16)}
    # each input kind with and without biases and with and without padding rows
    RUNS = [("array", True, True), ("array", False, False), ("parameter", True, False),
            ("parameter", False, True), ("taped", True, True), ("taped", False, False)]

    @staticmethod
    def sweep(op, xv, weights, cotangent, kind):
        """The states and the gradients of the weights and of the input: of
        ``xv`` as a parameter, or of the row weights of ``scale_rows(xv, .)``,
        a tensor recorded on the caller's tape (as ``learn_layer_weights`` forms it)."""
        params = [Parameter(w.copy(), f"w{i}") for i, w in enumerate(weights)]
        x = Parameter(xv.copy(), "x") if kind == "parameter" else Tensor(xv)
        row_weights = Parameter(np.linspace(0.5, 1.5, xv.shape[-2]), "row_weights")
        wanted = params + {"array": [], "parameter": [x], "taped": [row_weights]}[kind]
        for p in wanted:
            p.zero_grad()
        with Tape() as tape:
            seq = ad.scale_rows(x, row_weights) if kind == "taped" else x
            n = len(params) // 2
            states = op(seq, params[:n], params[n:])
            loss = ad.total(ad.hadamard(states, Tensor(cotangent)))
        tape.backward(loss)
        return [states.values] + [p.grad.copy() for p in wanted]

    @staticmethod
    def oracle(x, fwd, bwd):
        return ad.concat([ad.gru_sequence(x, fwd), ad.gru_sequence(x, bwd, reverse=True)],
                         axis=-1)

    @pytest.mark.parametrize("batch", [None, 1, 3, 16])
    @pytest.mark.parametrize("dims", list(DIMS))
    def test_matches_the_two_op_oracle_bit_for_bit(self, dims, batch):
        T, I, H = self.DIMS[dims]
        rng = np.random.default_rng(sum(map(ord, dims)) + (batch or 0))
        shape = (T, I) if batch is None else (batch, T, I)
        directions = [[rng.normal(size=(3 * H, I)) / np.sqrt(I),
                       rng.normal(size=(3 * H, H)) / np.sqrt(H), rng.normal(size=3 * H)]
                      for _ in range(2)]
        for kind, use_bias, padded in self.RUNS:
            xv = rng.normal(size=shape)
            if padded:  # word-vector padding: all-zero rows after the first third
                xv[..., max(1, T // 3):, :] = 0.0
            weights = [w for cell in directions for w in cell[:3 if use_bias else 2]]
            cotangent = rng.normal(size=shape[:-1] + (2 * H,))
            got = self.sweep(ad.bi_gru_sequence, xv, weights, cotangent, kind)
            want = self.sweep(self.oracle, xv, weights, cotangent, kind)
            assert len(got) == len(want) == 1 + len(weights) + (kind != "array")
            for g, w in zip(got, want, strict=True):
                npt.assert_array_equal(g, w, err_msg=f"{kind}, bias {use_bias}, padded {padded}")

    def test_records_one_tape_entry(self):
        rng = np.random.default_rng(3)
        fwd, bwd = ([Tensor(rng.normal(size=s)) for s in [(6, 4), (6, 2)]] for _ in range(2))
        with Tape() as tape:
            ad.bi_gru_sequence(Tensor(rng.normal(size=(5, 4))), fwd, bwd)
        assert len(tape) == 1

    @pytest.mark.parametrize("kind, taped, tasks", [
        ("plain tensor", True, 2),
        ("parameter", False, 0),  # read by both directions
        ("parameter", True, 0),
        ("recorded input", True, 2),  # ``scale_rows``, as ``learn_layer_weights`` forms it
        ("recorded weight", True, 2),  # a weight that is not a parameter, on the tape
        ("shared parameter", True, 0),  # one U in both directions
        ("one cpu", True, 0),
    ])
    def test_forks_where_the_branch_tapes_pass_every_gradient(self, forced_split, monkeypatch,
                                                              kind, taped, tasks):
        """At gate 0 on two CPUs it forks where the worker is free and no
        parameter is in both directions, a parameter input counted in both;
        the fork's entry passes the open tape the gradients of what it
        recorded.  The states and gradients equal the one-op kernel's (gate
        ``1 << 62``) either way."""
        if kind == "one cpu":
            monkeypatch.setattr(ad, "_usable_cpus", lambda: 1)
        rng = np.random.default_rng(5)
        xv, cotangent = rng.normal(size=(3, 5, 4)), rng.normal(size=(3, 5, 4))
        params = [Parameter(rng.normal(size=s), f"w{i}")
                  for i, s in enumerate([(6, 4), (6, 2), (6,)] * 2)]
        if kind == "shared parameter":
            params[4] = params[1]
        row_weights = Parameter(np.linspace(0.5, 1.5, 5), "row_weights")

        def run():
            x = Parameter(xv.copy(), "x") if kind == "parameter" else Tensor(xv)
            wanted = params + {"parameter": [x], "recorded input": [row_weights]}.get(kind, [])
            for p in wanted:
                p.zero_grad()
            with Tape() if taped else contextlib.nullcontext() as tape:
                seq = ad.scale_rows(x, row_weights) if kind == "recorded input" else x
                weights = list(params)
                if kind == "recorded weight":
                    weights[3] = ad.reshape(params[3], params[3].shape)
                states = ad.bi_gru_sequence(seq, weights[:3], weights[3:])
                loss = ad.total(ad.hadamard(states, Tensor(cotangent)))
            if not taped:
                return [states.values], 0
            tape.backward(loss)
            return [states.values] + [p.grad.copy() for p in wanted], len(tape)

        got, entries = run()
        assert forced_split.calls == tasks
        monkeypatch.setattr(ad, "FORK_MIN_MADDS", 1 << 62)
        want, want_entries = run()
        assert forced_split.calls == tasks
        assert entries == want_entries + 2 * (taped and tasks > 0)  # a fork entry, a second op
        for g, w in zip(got, want, strict=True):
            assert np.any(w != 0.0)
            npt.assert_array_equal(g, w)


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


class TestRefusals:
    """Each op refuses operands outside its contract with a ShapeError that
    names the op or the operand."""

    @pytest.mark.parametrize("x, kernels, bias, message", [
        ((5,), (2, 1, 5), (2,), r"conv1d needs input L x D or B x L x D, kernels F x k x D"),
        ((5, 3), (2, 3), (2,), r"conv1d needs input L x D or B x L x D, kernels F x k x D"),
        ((5, 3), (2, 1, 3), (2, 1), r"conv1d needs input .*, bias F"),
        ((5, 3), (2, 1, 4), (2,), r"kernel feature width 4 != input width 3"),
        ((2, 5, 3), (2, 2, 3), (3,), r"bias length 3 != filter count 2"),
    ], ids=["1d_input", "2d_kernels", "2d_bias", "kernel_width", "bias_length"])
    def test_conv1d_shapes(self, x, kernels, bias, message):
        with pytest.raises(ShapeError, match=message):
            ad.conv1d(Tensor(np.ones(x)), Tensor(np.ones(kernels)), Tensor(np.ones(bias)))

    @pytest.mark.parametrize("op", [ad.max_over_time, ad.avg_over_time])
    def test_pooling_a_vector(self, op):
        with pytest.raises(ShapeError, match=rf"^{op.__name__} needs a 2-D or batched input, "
                                             r"got shape \(3,\)"):
            op(Tensor([1.0, 2.0, 3.0]))

    def test_mse_loss_of_nothing(self):
        with pytest.raises(ShapeError, match="^mse_loss needs at least one element"):
            ad.mse_loss(Tensor(np.zeros(0)), Tensor(np.zeros(0)))

    def test_concat_of_nothing(self):
        with pytest.raises(ShapeError, match="^concat needs at least one tensor"):
            ad.concat([])

    def test_bi_gru_directions_of_different_sizes(self):
        """Directions that differ in hidden size or in input width are refused
        with both directions' weight shapes."""
        def weights(H, I):
            return Tensor(np.zeros((3 * H, I))), Tensor(np.zeros((3 * H, H)))

        for H, I in ((3, 4), (2, 5)):
            with pytest.raises(ShapeError, match=re.escape(
                    f"bi_gru_sequence directions need equal weight shapes, got "
                    f"[(6, 4), (6, 2)] and [({3 * H}, {I}), ({3 * H}, {H})]")):
                ad.bi_gru_sequence(Tensor(np.ones((5, 4))), weights(2, 4), weights(H, I))


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

    def test_the_open_tape_belongs_to_the_context(self):
        """A new thread starts with no open tape; one run in a copy of the
        caller's context records on the caller's tape, and a tape it opens
        there is not open for the caller."""
        p = Parameter(np.array([1.0, -2.0]), name="p")
        result = {}

        def on_thread(fn, *args):
            thread = threading.Thread(target=fn, args=args)
            thread.start()
            thread.join(timeout=10)
            assert not thread.is_alive()

        def own_tape():
            with Tape() as result["inner"]:
                ad.total(p)
            ad.total(p)

        with Tape() as tape:
            on_thread(lambda: result.update(plain=ad.total(p)))
            assert len(tape) == 0
            on_thread(contextvars.copy_context().run, lambda: result.update(loss=ad.total(p)))
            assert len(tape) == 1
            on_thread(contextvars.copy_context().run, own_tape)
            assert len(result["inner"]) == 1 and len(tape) == 2
            ad.total(p)
        assert len(tape) == 3
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

    def test_a_tape_entered_twice_stays_open_until_its_outer_exit(self):
        p = Parameter(np.array([1.0]), name="p")
        tape = Tape()
        with tape:
            with Tape() as other:
                with tape:
                    ad.total(p)
                ad.total(p)
            ad.total(p)
        ad.total(p)
        assert len(tape) == 2 and len(other) == 1
        assert ad._open_tape.get() is None

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

    def test_a_call_on_the_worker_runs_both_there(self, two_cpus):
        """A task on the worker that asks for the worker gets both pieces run
        on its own thread: the one-thread worker cannot start a task queued
        behind the running one."""
        result = {}

        def call():
            result["threads"] = ad.run_both(
                threading.current_thread,
                lambda: ad.run_both(threading.current_thread, threading.current_thread, True),
                True)

        thread = threading.Thread(target=call, daemon=True)
        thread.start()
        thread.join(timeout=30)
        assert not thread.is_alive()
        caller, (first, second) = result["threads"]
        assert caller is thread and first is second and first is not caller

    def test_a_call_inside_first_runs_both_on_the_caller(self, counting_worker):
        """The outermost call holds the worker: a call inside its first piece
        runs both of its own pieces in order on the caller's thread and submits
        nothing, and once the outer call returns the worker is free again."""
        here = threading.current_thread()
        order = []

        def piece(n):
            return lambda: order.append((n, threading.current_thread())) or n

        def first():
            return ad.run_both(piece(1), piece(2), True)

        assert ad.run_both(first, threading.current_thread, True)[0] == (1, 2)
        assert order == [(1, here), (2, here)] and counting_worker.calls == 1
        assert ad.run_both(threading.current_thread, threading.current_thread, True)[1] is not here
        assert counting_worker.calls == 2

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


class TestFork:
    @pytest.fixture
    def branches(self):
        rng = np.random.default_rng(83)
        p = Parameter(rng.normal(size=(3, 4)), "p")
        q = Parameter(rng.normal(size=(2, 5)), "q")
        x, y = Tensor(rng.normal(size=(6, 4))), Tensor(rng.normal(size=(6, 5)))
        threads = []

        def first():
            threads.append(("first", threading.current_thread()))
            return ad.tanh(ad.linear(x, p))

        def second():
            threads.append(("second", threading.current_thread()))
            return ad.sigmoid(ad.linear(ad.tanh(y), q))

        weights = Tensor(rng.normal(size=(6, 5)))
        return first, second, [p, q], weights, threads

    def sweep(self, branches, concurrent):
        first, second, params, weights, threads = branches
        threads.clear()
        for p in params:
            p.zero_grad()
        with Tape() as tape:
            out = ad.fork(first, second, concurrent)
            loss = ad.total(ad.hadamard(out, weights))
        tape.backward(loss)
        return out.values, [p.grad.copy() for p in params], len(tape), dict(threads)

    def test_branch_tapes_give_the_one_tapes_bits(self, monkeypatch, branches):
        monkeypatch.setattr(ad, "_usable_cpus", lambda: 2)
        out, grads, entries, threads = self.sweep(branches, True)
        assert threads["first"] is threading.current_thread()
        assert threads["second"] is not threading.current_thread()
        want_out, want_grads, want_entries, threads = self.sweep(branches, False)
        assert set(threads.values()) == {threading.current_thread()}
        npt.assert_array_equal(out, want_out)
        for g, w in zip(grads, want_grads, strict=True):
            assert np.any(g != 0.0)
            npt.assert_array_equal(g, w)
        assert entries == want_entries == 8

    @pytest.mark.parametrize("failing", ["first", "second"])
    def test_a_failing_branch_leaves_no_tape_open(self, monkeypatch, branches, failing):
        monkeypatch.setattr(ad, "_usable_cpus", lambda: 2)
        first, second, params, weights, _ = branches
        broken = {"first": (lambda: ad.total(Tensor([np.inf])), second),
                  "second": (first, lambda: ad.total(Tensor([np.inf])))}[failing]
        with Tape() as tape:
            with pytest.raises(NonFiniteError):
                ad.fork(*broken, True)
            assert ad._open_tape.get() is tape and len(tape) == 0
        assert ad._open_tape.get() is None
        want = self.sweep(branches, False)[1]
        for g, w in zip(self.sweep(branches, True)[1], want, strict=True):
            npt.assert_array_equal(g, w)

    def test_one_cpu_records_the_branch_tapes_in_turn(self, monkeypatch, branches):
        """On one CPU the branches record on their own tapes one after the
        other, on the caller's thread, with the bits and the length of one tape."""
        monkeypatch.setattr(ad, "_usable_cpus", lambda: 1)
        first, second, *_ = branches
        with Tape() as tape:
            ad.fork(first, second, True)
        assert len(tape._forks) == 2
        out, grads, entries, threads = self.sweep(branches, True)
        assert set(threads.values()) == {threading.current_thread()}
        want_out, want_grads, want_entries, _ = self.sweep(branches, False)
        npt.assert_array_equal(out, want_out)
        for g, w in zip(grads, want_grads, strict=True):
            npt.assert_array_equal(g, w)
        assert entries == want_entries == 8

    def test_a_fork_inside_a_forked_branch_runs_its_branches_in_turn(self, counting_worker,
                                                                    branches):
        """The outer fork holds the worker, so the inner one runs both its
        branches on its own branch's thread and submits nothing; the bits are
        those of one tape."""
        first, second, params, _, threads = branches
        rng = np.random.default_rng(84)
        z, weights = Tensor(rng.normal(size=(6, 3))), Tensor(rng.normal(size=(6, 8)))

        def sweep(concurrent):
            threads.clear()
            for p in params:
                p.zero_grad()
            with Tape() as tape:
                out = ad.fork(lambda: ad.tanh(z),
                              lambda: ad.fork(first, second, concurrent), concurrent)
                loss = ad.total(ad.hadamard(out, weights))
            tape.backward(loss)
            return out.values, [p.grad.copy() for p in params]

        out, grads = sweep(True)
        assert counting_worker.calls == 2  # the outer fork's forward pass and its sweep
        (_, worker), (_, also) = threads
        assert worker is also and worker is not threading.current_thread()
        want_out, want_grads = sweep(False)
        npt.assert_array_equal(out, want_out)
        for g, w in zip(grads, want_grads, strict=True):
            assert np.any(g != 0.0)
            npt.assert_array_equal(g, w)

    @pytest.mark.parametrize("root", ["parameter", "recorded"])
    def test_a_branch_may_return_what_it_did_not_record(self, monkeypatch, root):
        """A branch that returns a parameter, or a tensor recorded on the open
        tape, passes it its share of the gradient through the fork's entry,
        with the serial fork's bits."""
        monkeypatch.setattr(ad, "_usable_cpus", lambda: 2)
        p, q = Parameter([0.5, -1.0], "p"), Parameter([0.3, 2.0], "q")
        weights = Tensor([1.5, -0.5, 2.0, 0.25])

        def sweep(concurrent):
            for t in (p, q):
                t.zero_grad()
            with Tape() as tape:
                first = p if root == "parameter" else ad.tanh(p)
                out = ad.fork(lambda: first, lambda: ad.tanh(q), concurrent)
                loss = ad.total(ad.hadamard(out, weights))
            tape.backward(loss)
            return [out.values, p.grad.copy(), q.grad.copy()]

        for got, want in zip(sweep(True), sweep(False), strict=True):
            assert np.all(want != 0.0)
            npt.assert_array_equal(got, want)

    def test_a_recorded_tensor_read_by_a_nested_fork_gets_the_serial_bits(self,
                                                                         counting_worker):
        """A tensor recorded on the open tape and read in both branches of a
        fork inside a forked branch, and in the other forked branch, gets its
        gradient through both forks' entries."""
        rng = np.random.default_rng(85)
        p, q = Parameter(rng.normal(size=(3, 4)), "p"), Parameter(rng.normal(size=(4, 2)), "q")
        weights = Tensor(rng.normal(size=(3, 10)))

        def sweep(concurrent):
            for t in (p, q):
                t.zero_grad()
            with Tape() as tape:
                r = ad.tanh(p)
                inner = lambda: ad.fork(lambda: ad.sigmoid(r),  # noqa: E731
                                        lambda: ad.matmul(r, q), concurrent)
                out = ad.fork(lambda: ad.tanh(r), inner, concurrent)
                loss = ad.total(ad.hadamard(out, weights))
            tape.backward(loss)
            return [out.values, p.grad.copy(), q.grad.copy()], len(tape._forks)

        (got, forks), (want, none) = sweep(True), sweep(False)
        assert (forks, none, counting_worker.calls) == (2, 0, 2)
        for g, w in zip(got, want, strict=True):
            assert np.all(w != 0.0)
            npt.assert_array_equal(g, w)

    def test_without_a_tape_it_is_the_concatenation(self, monkeypatch, branches):
        monkeypatch.setattr(ad, "_usable_cpus", lambda: 2)
        first, second, *_ = branches
        npt.assert_array_equal(ad.fork(first, second, True).values,
                               np.concatenate((first().values, second().values), axis=-1))


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
