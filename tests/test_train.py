"""Optimizer updates, the training loop, RMSE evaluation, the baseline."""

import math
import threading
import tracemalloc
from types import SimpleNamespace

import numpy as np
import numpy.testing as npt
import pytest

import iben.autodiff as ad
import iben.model as model_lib
import iben.train as train_lib
from iben.autodiff import Parameter, ShapeError
from iben.errors import TrainingError
from iben.model import IbenModel, ModelConfig
from iben.train import (
    EVAL_CHUNK,
    AdamState,
    EvalReport,
    TrainConfig,
    _clip_gradients,
    adam_step,
    baseline_rmse,
    evaluate_model,
    evaluate_rmse,
    mean_baseline,
    sgd_step,
    train,
)


def tiny_model(seed=0, **overrides):
    base = dict(fused_width=3, n_pairs=2, emb_dim=3, hidden_size=2,
                dense_size=2, kernel_sizes=(1, 2), filters_per_kernel=1,
                seed=seed)
    base.update(overrides)
    return IbenModel(ModelConfig(**base))


def tiny_dataset(n, seed=0):
    rng = np.random.default_rng(seed)
    return [((rng.normal(size=(2, 3)), rng.normal(size=(4, 3))),
             float(rng.uniform(0, 3)))
            for _ in range(n)]


def scalar_adam(theta, g, steps, lr=0.001, b1=0.9, b2=0.999, eps=1e-8):
    m = v = 0.0
    for t in range(1, steps + 1):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        m_hat = m / (1 - b1 ** t)
        v_hat = v / (1 - b2 ** t)
        theta -= lr * m_hat / (math.sqrt(v_hat) + eps)
    return theta


def reference_adam_step(params, state, config):
    """The per-parameter-temporaries update, kept as the oracle of adam_step."""
    state.t += 1
    bc1 = 1.0 - config.beta1 ** state.t
    bc2 = 1.0 - config.beta2 ** state.t
    for p in params:
        g = p.grad
        m = state.m[p.name]
        v = state.v[p.name]
        m *= config.beta1
        m += (1.0 - config.beta1) * g
        v *= config.beta2
        v += (1.0 - config.beta2) * (g * g)
        m_hat = m / bc1
        v_hat = v / bc2
        p.values -= config.learning_rate * m_hat / (np.sqrt(v_hat) + config.eps)


class TestTrainConfig:
    def test_defaults(self):
        cfg = TrainConfig()
        assert (cfg.epochs, cfg.batch_size, cfg.learning_rate) == (25, 16, 0.001)
        assert cfg.loss == "mse" and cfg.optimizer == "adam" and cfg.shuffle

    @pytest.mark.parametrize("kw", [
        dict(epochs=0), dict(batch_size=0), dict(learning_rate=-0.1),
        dict(loss="huber"), dict(optimizer="rmsprop"), dict(clip=0.0),
    ])
    def test_rejects_bad_values(self, kw):
        with pytest.raises(ValueError):
            TrainConfig(**kw)

    def test_zero_learning_rate_is_allowed(self):
        assert TrainConfig(learning_rate=0.0).learning_rate == 0.0


class TestAdamStep:
    def test_zero_gradients_are_the_identity(self):
        rng = np.random.default_rng(0)
        params = [Parameter(rng.normal(size=(3, 2)), "a"),
                  Parameter(rng.normal(size=4), "b")]
        before = [p.values.copy() for p in params]
        state = AdamState.for_params(params)
        for _ in range(5):
            adam_step(params, state, TrainConfig())
        for p, orig in zip(params, before):
            npt.assert_array_equal(p.values, orig)
        assert state.t == 5

    def test_single_scalar_step_closed_form(self):
        p = Parameter(np.asarray(1.0), "theta")
        p.grad[...] = 1.0
        state = AdamState.for_params([p])
        adam_step([p], state, TrainConfig())
        expected = 1.0 - 0.001 / (1.0 + 1e-8)
        assert abs(float(p.values) - expected) <= 1e-12

    def test_two_steps_match_scalar_reimplementation(self):
        p = Parameter(np.asarray(0.7), "theta")
        state = AdamState.for_params([p])
        cfg = TrainConfig()
        for _ in range(2):
            p.grad[...] = -0.3
            adam_step([p], state, cfg)
        expected = scalar_adam(0.7, -0.3, steps=2)
        assert abs(float(p.values) - expected) <= 1e-15

    def test_matches_the_reference_update_bit_for_bit(self, monkeypatch):
        """Serially and as two halves at the same time, with the same bits as
        each other.  The folded scalars round differently from the reference's
        ``lr * m_hat / (sqrt(v_hat) + eps)``, so the reference is met within
        1e-12 (criterion 7's tolerance), not bit for bit."""
        monkeypatch.setattr(ad, "_usable_cpus", lambda: 2)

        def adam_with_halves_from(min_weights):
            def step(params, state, cfg):
                monkeypatch.setattr(train_lib, "_ADAM_MIN_WEIGHTS", min_weights)
                adam_step(params, state, cfg)
            return step

        rng = np.random.default_rng(7)
        shapes = [(), (5,), (3, 4), (2, 3, 2), (1,), (7, 10_001)]  # the last spans two blocks
        cfg = TrainConfig(learning_rate=0.01)
        init = [rng.normal(size=s) for s in shapes]
        sides = []
        for step in (adam_with_halves_from(1 << 62), adam_with_halves_from(0),
                     reference_adam_step):
            params = [Parameter(v.copy(), f"p{i}") for i, v in enumerate(init)]
            sides.append((step, params, AdamState.for_params(params)))
        for _ in range(3):
            grads = [rng.normal(size=s) for s in shapes]
            for step, params, state in sides:
                for p, g in zip(params, grads):
                    p.grad[...] = g
                step(params, state, cfg)
        (_, serial, serial_state), (_, halves, halves_state), (_, want, want_state) = sides
        for p, q, w in zip(serial, halves, want, strict=True):
            for got, ref in ((p.values, q.values), (serial_state.m[p.name], halves_state.m[q.name]),
                             (serial_state.v[p.name], halves_state.v[q.name])):
                npt.assert_array_equal(got, ref)
            npt.assert_allclose(p.values, w.values, rtol=0, atol=1e-12)
            npt.assert_allclose(serial_state.m[p.name], want_state.m[w.name], rtol=0, atol=1e-12)
            npt.assert_allclose(serial_state.v[p.name], want_state.v[w.name], rtol=0, atol=1e-12)

    def test_non_finite_gradient_names_the_parameter(self):
        p = Parameter(np.zeros(2), "branch_a.fwd.W_z")
        p.grad[0] = np.nan
        with pytest.raises(TrainingError, match="branch_a.fwd.W_z"):
            adam_step([p], AdamState.for_params([p]), TrainConfig())

    @pytest.mark.parametrize("concurrent", [False, True])
    def test_a_refused_step_changes_nothing(self, monkeypatch, concurrent):
        """Every gradient is checked first; the error names the first bad one in list order."""
        monkeypatch.setattr(train_lib, "_ADAM_MIN_WEIGHTS", 0 if concurrent else 1 << 62)
        monkeypatch.setattr(ad, "_usable_cpus", lambda: 2)
        rng = np.random.default_rng(8)
        params = [Parameter(rng.normal(size=(3, 4)), f"p{i}") for i in range(4)]
        state = AdamState.for_params(params)
        for _ in range(2):
            for p in params:
                p.grad[...] = rng.normal(size=p.shape)
            adam_step(params, state, TrainConfig())
        params[1].grad[0, 0] = np.inf
        params[2].grad[2, 1] = np.nan  # in the other half from p1
        before = [(p.values.copy(), state.m[p.name].copy(), state.v[p.name].copy())
                  for p in params]
        with pytest.raises(TrainingError, match="parameter p1$"):
            adam_step(params, state, TrainConfig())
        assert state.t == 2
        for p, (values, m, v) in zip(params, before):
            npt.assert_array_equal(p.values, values)
            npt.assert_array_equal(state.m[p.name], m)
            npt.assert_array_equal(state.v[p.name], v)


class TestSgdStep:
    def test_plain_update(self):
        p = Parameter(np.array([1.0, 2.0]), "w")
        p.grad[...] = [0.5, -0.5]
        sgd_step([p], TrainConfig(learning_rate=0.1, optimizer="sgd"))
        npt.assert_allclose(p.values, [0.95, 2.05], atol=1e-15)

    def test_non_finite_gradient(self):
        p = Parameter(np.zeros(1), "w")
        p.grad[...] = np.inf
        with pytest.raises(TrainingError, match="w"):
            sgd_step([p], TrainConfig())

    def test_a_refused_step_changes_nothing(self):
        params = [Parameter(np.full(2, float(i)), f"p{i}") for i in range(3)]
        for p in params:
            p.grad[...] = 1.0
        params[2].grad[1] = np.nan
        with pytest.raises(TrainingError, match="parameter p2$"):
            sgd_step(params, TrainConfig(optimizer="sgd"))
        for i, p in enumerate(params):
            npt.assert_array_equal(p.values, [float(i)] * 2)


class TestClipGradients:
    def test_large_norm_rescaled_to_cap(self):
        p = Parameter(np.zeros(2), "w")
        p.grad[...] = [3.0, 4.0]  # norm 5
        _clip_gradients([p], 1.0)
        npt.assert_allclose(p.grad, [0.6, 0.8], atol=1e-15)

    def test_small_norm_untouched(self):
        p = Parameter(np.zeros(2), "w")
        p.grad[...] = [0.3, 0.4]
        _clip_gradients([p], 1.0)
        npt.assert_array_equal(p.grad, [0.3, 0.4])

    def test_norm_matches_the_sum_of_squares(self):
        """The dot-product norm is within 1e-12 of ``sqrt(sum(g * g))``, so
        the rescaled gradients are too."""
        rng = np.random.default_rng(12)
        params = [Parameter(np.zeros(s), f"p{i}") for i, s in enumerate([(384, 900), (7,), ()])]
        grads = [rng.normal(size=p.shape) * 10.0 ** i for i, p in enumerate(params)]
        norm = math.sqrt(sum(float((g * g).sum()) for g in grads))
        for p, g in zip(params, grads):
            p.grad[...] = g
        _clip_gradients(params, 1.0)
        for p, g in zip(params, grads):
            npt.assert_allclose(p.grad, g / norm, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("reader", ["norm", "finiteness check"])
    def test_a_large_gradient_is_not_copied(self, reader):
        """Branch A's W gradient (384 x 4096, 12.6 MB): the clipping norm and
        the optimizers' finiteness check each allocate under 1 MB."""
        p = Parameter(np.zeros((384, 4096)), "branch_a.fwd.W")
        p.grad[...] = 1e-3
        tracemalloc.start()
        try:
            if reader == "norm":
                _clip_gradients([p], 1e9)
            else:
                assert train_lib._non_finite([p]) == []
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestTrain:
    def test_single_sample_converges(self):
        model = tiny_model(seed=3)
        data = tiny_dataset(1, seed=5)
        history = train(model, data, TrainConfig(epochs=400, learning_rate=0.01,
                                                 batch_size=1))
        assert history[-1] < 1e-6
        assert history[-1] < history[0]

    def test_zero_learning_rate_freezes_everything(self):
        model = tiny_model(seed=1)
        before = [p.values.copy() for p in model.parameters()]
        data = tiny_dataset(5, seed=2)
        history = train(model, data, TrainConfig(epochs=4, learning_rate=0.0))
        for p, orig in zip(model.parameters(), before):
            npt.assert_array_equal(p.values, orig)
        assert len(set(history)) == 1

    def test_history_is_the_mean_per_sample_loss(self):
        """Exactly the loss of the same stacked batches; within 1e-12 of the
        per-sample predictions, since a row of a batched GEMM may differ from
        a one-row GEMM in the last bits."""
        model = tiny_model(seed=1)
        data = tiny_dataset(5, seed=2)
        total = 0.0
        for start in range(0, 5, 2):
            batch = data[start:start + 2]
            fused, emb = (np.stack(x) for x in zip(*(inputs for inputs, _ in batch)))
            diff = model.forward(fused=fused, emb=emb).values - [y for _, y in batch]
            total += float((diff * diff).sum())
        expected = total / len(data)
        preds = [model.predict(fused=f, emb=e) for (f, e), _ in data]
        per_sample = sum((p - y) ** 2 for p, (_, y) in zip(preds, data)) / len(data)
        history = train(model, data, TrainConfig(epochs=2, learning_rate=0.0,
                                                 shuffle=False, batch_size=2))
        assert history == [expected, expected]
        assert abs(history[0] - per_sample) <= 1e-12

    def test_ragged_batch_names_the_sample(self):
        data = tiny_dataset(4, seed=3)
        (fused, emb), target = data[2]
        data[2] = ((fused, emb[:3]), target)
        with pytest.raises(ShapeError, match=r"sample 2 has embedding input shape \(3, 3\), "
                                             r"sample 0 has \(4, 3\)"):
            train(tiny_model(), data, TrainConfig(epochs=1, shuffle=False, batch_size=4))
        data[2] = ((None, emb), target)
        with pytest.raises(ShapeError, match="sample 2 has fused input shape None"):
            train(tiny_model(), data, TrainConfig(epochs=1, shuffle=False, batch_size=4))

    def test_mae_sum_history_sums_the_absolute_errors(self):
        model = tiny_model(seed=2)
        data = tiny_dataset(3, seed=4)
        fused, emb = (np.stack(x) for x in zip(*(inputs for inputs, _ in data)))
        diff = model.forward(fused=fused, emb=emb).values - [y for _, y in data]
        history = train(model, data, TrainConfig(epochs=1, learning_rate=0.0, loss="mae_sum",
                                                 shuffle=False))
        assert history == [float(np.abs(diff).sum()) / 3]

    def test_same_seed_same_history_and_parameters(self):
        runs = []
        for _ in range(2):
            model = tiny_model(seed=4)
            history = train(model, tiny_dataset(6, seed=6),
                            TrainConfig(epochs=3, batch_size=2, seed=11))
            runs.append((history, [p.values.copy() for p in model.parameters()]))
        assert runs[0][0] == runs[1][0]
        for a, b in zip(runs[0][1], runs[1][1]):
            npt.assert_array_equal(a, b)

    def test_mae_sum_mode_trains(self):
        model = tiny_model(seed=7)
        history = train(model, tiny_dataset(3, seed=8),
                        TrainConfig(epochs=30, loss="mae_sum", learning_rate=0.01))
        assert history[-1] < history[0]

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            train(tiny_model(), [], TrainConfig())

    def test_divergence_reports_epoch_and_batch(self):
        model = tiny_model(seed=9)
        model.head.W.values[...] = 1e200
        with np.errstate(over="ignore"), \
                pytest.raises(TrainingError, match="epoch 1, batch 1"):
            train(model, tiny_dataset(2, seed=10), TrainConfig(epochs=1))

    def test_a_failure_on_the_worker_names_the_epoch_and_batch(self, monkeypatch):
        """Branch B, split onto the worker thread, raises in the second batch."""
        monkeypatch.setattr(ad, "FORK_MIN_MADDS", 0)
        monkeypatch.setattr(ad, "_usable_cpus", lambda: 2)
        conv_features = model_lib.conv_features
        threads = []

        def failing(matrix, bank):
            threads.append(threading.current_thread())
            if len(threads) == 2:
                raise ad.NonFiniteError("conv1d produced a non-finite value")
            return conv_features(matrix, bank)

        monkeypatch.setattr(model_lib, "conv_features", failing)
        with pytest.raises(TrainingError, match="epoch 1, batch 2: conv1d produced"):
            train(tiny_model(seed=14), tiny_dataset(3, seed=15),
                  TrainConfig(epochs=1, batch_size=2, shuffle=False))
        assert len(threads) == 2 and threading.current_thread() not in threads

    def test_epoch_callback_runs_once_per_epoch(self):
        seen = []
        train(tiny_model(seed=12), tiny_dataset(2, seed=13),
              TrainConfig(epochs=3, learning_rate=0.0),
              epoch_callback=lambda epoch, model: seen.append(epoch))
        assert seen == [0, 1, 2]

    @pytest.mark.parametrize("optimizer", ["adam", "sgd"])
    def test_each_batch_zeroes_sweeps_and_steps_once_in_that_order(self, monkeypatch,
                                                                    optimizer):
        """The benchmark's batch span opens at ``zero_grad`` and closes after the
        optimizer step, so each batch must make exactly one of each."""
        calls = []
        model = tiny_model()
        zero_grad, backward = model.zero_grad, ad.Tape.backward
        step = {"adam": train_lib.adam_step, "sgd": train_lib.sgd_step}[optimizer]
        monkeypatch.setattr(model, "zero_grad", lambda: calls.append("zero") or zero_grad())
        monkeypatch.setattr(ad.Tape, "backward",
                            lambda tape, loss: calls.append("sweep") or backward(tape, loss))
        monkeypatch.setattr(train_lib, f"{optimizer}_step",
                            lambda *args: calls.append("step") or step(*args))
        train(model, tiny_dataset(5), TrainConfig(epochs=2, batch_size=2, optimizer=optimizer))
        assert calls == ["zero", "sweep", "step"] * 6  # 3 batches per epoch

    def test_clip_keeps_training_stable(self):
        model = tiny_model(seed=14)
        history = train(model, tiny_dataset(4, seed=15),
                        TrainConfig(epochs=3, clip=0.5))
        assert all(math.isfinite(x) for x in history)


class TestEvaluateRmse:
    def test_exact_predictions_score_zero(self):
        assert evaluate_rmse([1.0, 2.0, 0.5], [1.0, 2.0, 0.5]) == 0.0

    def test_hand_example(self):
        assert abs(evaluate_rmse([1.0, 1.0], [0.0, 3.0]) - math.sqrt(2.5)) < 1e-15

    def test_symmetry(self):
        rng = np.random.default_rng(16)
        a, b = rng.normal(size=8), rng.normal(size=8)
        assert evaluate_rmse(a, b) == evaluate_rmse(b, a)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(17)
        a, b = rng.normal(size=10), rng.normal(size=10)
        perm = rng.permutation(10)
        assert abs(evaluate_rmse(a, b) - evaluate_rmse(a[perm], b[perm])) < 1e-12

    def test_matches_direct_recomputation(self):
        rng = np.random.default_rng(18)
        for _ in range(120):
            n = int(rng.integers(1, 12))
            preds = rng.normal(size=n)
            goals = rng.normal(size=n)
            want = math.sqrt(sum((p - g) ** 2 for p, g in zip(preds, goals)) / n)
            assert abs(evaluate_rmse(preds, goals) - want) <= 1e-12

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            evaluate_rmse([1.0], [1.0, 2.0])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            evaluate_rmse([], [])


def per_sample_rows(model, samples, clamp):
    """The one-predict-per-sample loop, kept as the oracle of evaluate_model."""
    return [(sample_id, float(target), model.predict(fused=fused, emb=emb, clamp=clamp))
            for sample_id, (fused, emb), target in samples]


def spread_model(**overrides):
    """A tiny model whose predictions spread past both clamp bounds."""
    model = tiny_model(seed=23, **overrides)
    model.head.W.values[...] *= 40.0
    model.head.b.values[...] = 1.5
    return model


def eval_samples(n, seed=0, branches="both"):
    """(id, (fused, emb), target) triples, None for a disabled branch's input."""
    return [(f"h{i}", (fused if branches != "emb" else None,
                       emb if branches != "bert" else None), target)
            for i, ((fused, emb), target) in enumerate(tiny_dataset(n, seed=seed))]


class TestEvaluateModel:
    def test_report_contents(self):
        model = tiny_model(seed=19)
        data = tiny_dataset(3, seed=20)
        samples = [(f"id{i}", inputs, y) for i, (inputs, y) in enumerate(data)]
        report = evaluate_model(model, samples)
        assert isinstance(report, EvalReport)
        assert report.n == 3
        assert [r[0] for r in report.rows] == ["id0", "id1", "id2"]
        assert report.rmse == evaluate_rmse([r[2] for r in report.rows],
                                            [r[1] for r in report.rows])

    def test_clamp_bounds_predictions(self):
        model = tiny_model(seed=21)
        model.head.b.values[...] = 50.0
        samples = [(f"s{i}", inputs, y)
                   for i, (inputs, y) in enumerate(tiny_dataset(2, seed=22))]
        report = evaluate_model(model, samples, clamp=True)
        assert all(0.0 <= r[2] <= 3.0 for r in report.rows)

    BRANCHES = {"bert": dict(use_emb_branch=False), "emb": dict(use_bert_branch=False),
                "both": {}}

    @pytest.mark.parametrize("branches", list(BRANCHES))
    @pytest.mark.parametrize("clamp", [False, True])
    @pytest.mark.parametrize("n", [1, 15, 16, 17, 33])
    def test_matches_the_per_sample_oracle(self, n, clamp, branches):
        model = spread_model(**self.BRANCHES[branches])
        samples = eval_samples(n, seed=n, branches=branches)
        want = per_sample_rows(model, samples, clamp)
        report = evaluate_model(model, samples, clamp=clamp)
        assert report.n == n
        assert [r[:2] for r in report.rows] == [r[:2] for r in want]
        assert all(type(r[2]) is float for r in report.rows)
        npt.assert_allclose([r[2] for r in report.rows], [r[2] for r in want],
                            rtol=0, atol=1e-12)
        rmse = evaluate_rmse([r[2] for r in want], [r[1] for r in want])
        assert abs(report.rmse - rmse) <= 1e-12
        if clamp:
            assert all(0.0 <= r[2] <= 3.0 for r in report.rows)

    def test_the_clamp_case_reaches_both_bounds(self):
        preds = [r[2] for r in evaluate_model(spread_model(), eval_samples(33, seed=33)).rows]
        assert min(preds) < 0.0 and max(preds) > 3.0

    def test_no_samples_rejected(self):
        with pytest.raises(ValueError):
            evaluate_model(tiny_model(), [])

    def test_ragged_embedding_names_the_record(self):
        samples = eval_samples(40, seed=24)
        sample_id, (fused, emb), target = samples[20]
        samples[20] = (sample_id, (fused, emb[:3]), target)
        with pytest.raises(ShapeError, match=r"record 'h20' has embedding input shape "
                                             r"\(3, 3\), record 'h16' has \(4, 3\)"):
            evaluate_model(tiny_model(), samples)

    def test_missing_fused_input_names_the_record(self):
        samples = eval_samples(40, seed=25)
        sample_id, (_, emb), target = samples[37]
        samples[37] = (sample_id, (None, emb), target)
        with pytest.raises(ShapeError, match="record 'h37' has fused input shape None, "
                                             "record 'h32' has"):
            evaluate_model(tiny_model(), samples)

    @pytest.mark.parametrize("n", [1, 16, 17, 33, 48])
    def test_one_predict_call_per_chunk(self, n, monkeypatch):
        """The benchmark times model.predict by wrapping it on the class."""
        calls = []
        predict = IbenModel.predict

        def counted(self, *args, **kwargs):
            calls.append(kwargs["emb"].shape[0])
            return predict(self, *args, **kwargs)

        monkeypatch.setattr(IbenModel, "predict", counted)
        evaluate_model(tiny_model(), eval_samples(n, seed=26))
        assert len(calls) == math.ceil(n / EVAL_CHUNK) and sum(calls) == n
        assert max(calls) <= EVAL_CHUNK

    def test_memory_holds_one_chunk(self):
        """The peak for 64 samples stays within 25% of the peak for 16: the
        samples are never stacked as one split."""
        model = tiny_model(seed=27, fused_width=64, n_pairs=6, emb_dim=48)
        rng = np.random.default_rng(28)
        samples = [(f"h{i}", (rng.normal(size=(6, 64)), rng.normal(size=(20, 48))), 1.0)
                   for i in range(64)]
        evaluate_model(model, samples[:EVAL_CHUNK])  # warm up
        peaks = []
        for n in (EVAL_CHUNK, 64):
            tracemalloc.start()
            evaluate_model(model, samples[:n])
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
        assert peaks[1] <= 1.25 * peaks[0], peaks


def fake_records(*means):
    return [SimpleNamespace(mean_grade=m) for m in means]


class TestBaseline:
    def test_constant_one_perfectly_fits_ones(self):
        train_recs = fake_records(1.0, 1.0, 1.0)
        assert mean_baseline(train_recs) == 1.0
        assert baseline_rmse(train_recs, fake_records(1.0, 1.0)) == 0.0

    def test_sqrt_two_case(self):
        train_recs = fake_records(0.0, 2.0)
        assert mean_baseline(train_recs) == 1.0
        got = baseline_rmse(train_recs, fake_records(1.0, 3.0))
        assert abs(got - math.sqrt(2.0)) < 1e-15

    def test_empty_training_set(self):
        with pytest.raises(ValueError):
            mean_baseline([])
