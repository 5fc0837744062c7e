import copy
import logging
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spatialgrad import data as data_mod
from spatialgrad.conv import conv_backward_input, conv_backward_weights, conv_forward, im2col
from spatialgrad.data import LabeledDataset, synth_digits
from spatialgrad.expconfig import build_datasets, load_config
from spatialgrad.layers import (
    BatchNormLayer,
    ConvLayer,
    DenseLayer,
    FlattenLayer,
    GlobalAvgPoolLayer,
    MaxPoolLayer,
    ReLULayer,
    SoftmaxCrossEntropy,
)
from spatialgrad.network import (
    ConvLayerSpec,
    DenseSpec,
    FlattenSpec,
    GlobalAvgPoolSpec,
    MaxPoolSpec,
    Network,
    SoftmaxXentSpec,
    build_network,
    kernel_magnitude_matrix,
    validate_model_spec,
)
from spatialgrad.optim import KINDS, OptimizerConfig
from spatialgrad.tensor import ShapeError
from spatialgrad.training import (
    MEASURES,
    Run,
    SgsSettings,
    TrainingConfig,
    TrainingDivergedError,
    _batches,
    _capture_feature_maps,
    build_run,
    inspect_scalings,
    refresh_scalings,
    run_epoch,
    train,
    train_run,
    train_step,
)


def two_conv_model():
    return [
        ConvLayerSpec(out_channels=8, kernel=(3, 3), padding=1),
        MaxPoolSpec(),
        ConvLayerSpec(out_channels=16, kernel=(3, 3), padding=1),
        MaxPoolSpec(),
        FlattenSpec(),
        DenseSpec(out_features=10),
        SoftmaxXentSpec(),
    ]


def tiny_model():
    return [
        ConvLayerSpec(out_channels=2, kernel=(3, 3), padding=1, batch_norm=False),
        MaxPoolSpec(),
        FlattenSpec(),
        DenseSpec(out_features=3),
        SoftmaxXentSpec(),
    ]


def momentum_cfg(**kwargs):
    defaults = dict(epochs=2, batch_size=32, lr=0.05,
                    optimizer=OptimizerConfig(kind="sgd_momentum", momentum=0.9), seed=0)
    defaults.update(kwargs)
    return TrainingConfig(**defaults)


class TestSchedule:
    def test_constant(self):
        cfg = TrainingConfig(epochs=10, batch_size=1, lr=0.05, schedule="constant")
        assert [cfg.lr_at(t) for t in (0, 5, 9)] == [0.05, 0.05, 0.05]

    def test_cosine_formula(self):
        cfg = TrainingConfig(epochs=100, batch_size=1, lr=0.1, schedule="cosine")
        for t in (0, 1, 17, 50, 99):
            expected = 0.1 * (1 + np.cos(np.pi * t / 100)) / 2
            assert cfg.lr_at(t) == pytest.approx(expected, rel=1e-15)
        assert all(cfg.lr_at(t) > 0 for t in range(100))

    def test_validation(self):
        with pytest.raises(ValueError):
            TrainingConfig(epochs=1, batch_size=1, lr=0.1, schedule="linear")
        with pytest.raises(ValueError):
            TrainingConfig(epochs=1, batch_size=1, lr=0.0)
        with pytest.raises(ValueError):
            TrainingConfig(epochs=1, batch_size=1, lr=0.1,
                           optimizer=OptimizerConfig(kind="rmsprop"))


class TestNonFiniteSettings:
    @pytest.mark.parametrize("lr", [np.nan, np.inf, -np.inf])
    def test_non_finite_lr_is_rejected(self, lr):
        with pytest.raises(ValueError, match="lr must be positive and finite"):
            TrainingConfig(epochs=1, batch_size=1, lr=lr)

    @pytest.mark.parametrize("key", ["k", "alpha", "beta"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_scaling_setting_is_rejected(self, key, value):
        with pytest.raises(ValueError, match="finite"):
            SgsSettings(**{key: value})

    @pytest.mark.parametrize("value", [0.5, np.nan, np.inf, -np.inf])
    def test_a_numeric_redundancy_filter_is_rejected(self, value):
        with pytest.raises(ValueError, match="redundancy_filter must be None or 'auto'"):
            SgsSettings(redundancy_filter=value)


class TestNetworkSpecValidation:
    def test_requires_single_trailing_head(self):
        with pytest.raises(ValueError):
            validate_model_spec([ConvLayerSpec(4, (3, 3))])
        with pytest.raises(ValueError):
            validate_model_spec([SoftmaxXentSpec(), DenseSpec(3)])

    def test_shape_chain_errors_before_training(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="flatten"):
            build_network([DenseSpec(4), SoftmaxXentSpec()], (1, 8, 8), 4, rng)
        with pytest.raises(ValueError, match="class count"):
            build_network([FlattenSpec(), DenseSpec(4), SoftmaxXentSpec()], (1, 2, 2), 7, rng)
        with pytest.raises(Exception):
            build_network([ConvLayerSpec(2, (9, 9)), FlattenSpec(), DenseSpec(3),
                           SoftmaxXentSpec()], (1, 4, 4), 3, rng)

    def test_gap_then_dense_chain(self):
        rng = np.random.default_rng(1)
        net = build_network([ConvLayerSpec(6, (3, 3), padding=1), GlobalAvgPoolSpec(),
                             FlattenSpec(), DenseSpec(4), SoftmaxXentSpec()],
                            (1, 8, 8), 4, rng)
        logits = net.forward(np.random.default_rng(2).normal(size=(3, 1, 8, 8)), train=False)
        assert logits.shape == (3, 4)

    def test_strided_conv_chain(self):
        rng = np.random.default_rng(2)
        net = build_network([ConvLayerSpec(4, (3, 3), stride=2, padding=1), FlattenSpec(),
                             DenseSpec(5), SoftmaxXentSpec()], (1, 8, 8), 5, rng)
        logits = net.forward(rng.normal(size=(2, 1, 8, 8)), train=False)
        assert logits.shape == (2, 5)

    def test_an_empty_batch_passes_forward_and_predict(self):
        net = build_network(two_conv_model(), (1, 28, 28), 10, np.random.default_rng(3))
        empty = np.zeros((0, 1, 28, 28))
        assert net.forward(empty, train=False).shape == (0, 10)
        assert net.predict(empty).shape == (0,)


def relu_first(net: Network) -> Network:
    """A copy of ``net`` with each ReLU moved back before the maxpools that
    precede it: the relu-then-pool order the model spec reads in."""
    layers = copy.deepcopy(net.layers)
    for i, layer in enumerate(layers):
        if isinstance(layer, ReLULayer):
            j = i
            while isinstance(layers[j - 1], MaxPoolLayer):
                j -= 1
            layers.insert(j, layers.pop(i))
    return Network(layers, SoftmaxCrossEntropy(), net.dtype)


class TestPoolBeforeReLU:
    """``build_network`` runs a relu conv's ReLU after the maxpools that follow it."""

    @pytest.mark.parametrize("specs,kinds", [
        ([ConvLayerSpec(2, (3, 3)), MaxPoolSpec()], [ConvLayer, MaxPoolLayer, ReLULayer]),
        ([ConvLayerSpec(2, (3, 3), batch_norm=True), MaxPoolSpec()],
         [ConvLayer, BatchNormLayer, MaxPoolLayer, ReLULayer]),
        ([ConvLayerSpec(2, (3, 3)), MaxPoolSpec(), MaxPoolSpec()],
         [ConvLayer, MaxPoolLayer, MaxPoolLayer, ReLULayer]),
        ([ConvLayerSpec(2, (3, 3), activation="none"), MaxPoolSpec()], [ConvLayer, MaxPoolLayer]),
        ([ConvLayerSpec(2, (3, 3)), GlobalAvgPoolSpec()],
         [ConvLayer, ReLULayer, GlobalAvgPoolLayer]),
        ([ConvLayerSpec(2, (3, 3))], [ConvLayer, ReLULayer]),
    ], ids=["relu_maxpool", "bn_relu_maxpool", "two_maxpools", "no_act_maxpool", "relu_gap",
            "relu_alone"])
    def test_built_layer_kinds(self, specs, kinds):
        net = build_network([*specs, FlattenSpec(), DenseSpec(3), SoftmaxXentSpec()],
                            (1, 10, 10), 3, np.random.default_rng(0))
        assert [type(l) for l in net.layers] == [*kinds, FlattenLayer, DenseLayer]

    def test_layer_indices_and_names_follow_the_spec(self):
        net = build_network(two_conv_model(), (1, 28, 28), 10, np.random.default_rng(0))
        assert net.conv_indices == [0, 3]
        assert list(net.named_weights()) == ["conv0.W", "conv3.W", "dense7.W", "dense7.b"]

    @pytest.mark.parametrize("batch_norm", [False, True], ids=["plain", "bn"])
    @pytest.mark.parametrize("with_nan", [False, True], ids=["finite", "nan"])
    def test_forward_backward_and_captures_equal_the_relu_first_order(self, batch_norm,
                                                                      with_nan):
        specs = [ConvLayerSpec(2, (1, 1), batch_norm=batch_norm), MaxPoolSpec(),
                 ConvLayerSpec(3, (3, 3), padding=1, batch_norm=batch_norm), MaxPoolSpec(),
                 FlattenSpec(), DenseSpec(4), SoftmaxXentSpec()]
        rng = np.random.default_rng(5)
        net = build_network(specs, (1, 9, 11), 4, rng)
        net.layers[0].params["W"] = np.array([1.0, -1.0]).reshape(2, 1, 1, 1)
        # small integers, so conv 0's outputs hold tied maxima, exact zeros and
        # all-negative 2x2 blocks; odd H and W leave a trailing row and column
        x = rng.integers(-2, 3, size=(6, 1, 9, 11)).astype(np.float64)
        x[1] = -np.abs(x[1])
        if with_nan:
            x[2, 0, 4, 5] = np.nan
        labels = rng.integers(0, 4, size=6)
        old = relu_first(net)
        assert [type(l) for l in old.layers].count(ReLULayer) == 2
        assert [type(l) for l in old.layers] != [type(l) for l in net.layers]

        captured_new, captured_old = {}, {}
        net.forward(x, train=False, capture_conv_inputs=captured_new)
        old.forward(x, train=False, capture_conv_inputs=captured_old)
        assert captured_new.keys() == captured_old.keys() == set(net.conv_indices)
        for idx in captured_new:
            assert np.array_equal(captured_new[idx], captured_old[idx], equal_nan=True)

        logits_new, logits_old = net.forward(x, train=True), old.forward(x, train=True)
        assert np.array_equal(logits_new, logits_old, equal_nan=True)
        assert np.isnan(logits_new).any() == with_nan
        net.head.loss(logits_new, labels)
        dlogits = net.head.grad()
        assert np.array_equal(net.backward(dlogits), old.backward(dlogits), equal_nan=True)
        for (idx, _, name, _), (_, old_layer, _, _) in zip(net.parameters(), old.parameters()):
            assert np.array_equal(net.layers[idx].grads[name], old_layer.grads[name],
                                  equal_nan=True)

    def test_digits_smoke_steps_leave_the_relu_first_weights(self):
        cfg = load_config(Path(__file__).parents[1] / "configs" / "digits_smoke.ini")
        ds = synth_digits(96, seed=4)
        run = build_run(cfg.model, ds.images.shape[1:], ds.class_count, cfg.train)
        old = copy.deepcopy(run)
        old.network = relu_first(run.network)
        for offset in (0, 32, 64):
            batch = slice(offset, offset + 32)
            for r in (run, old):
                train_step(r, ds.images[batch], ds.labels[batch], offset)
        new_w, old_w = run.final_weights(), old.final_weights()
        assert new_w.keys() == old_w.keys()
        assert all(new_w[k].tobytes() == old_w[k].tobytes() for k in new_w)


class TestEndToEndGradients:
    def test_full_network_matches_finite_differences(self):
        """Loss gradient w.r.t. every parameter of a 2-layer net via central differences."""
        rng = np.random.default_rng(3)
        net = build_network(tiny_model(), (1, 6, 6), 3, rng)
        x = rng.normal(size=(3, 1, 6, 6))
        labels = rng.integers(0, 3, size=3)

        value, _ = net.loss(x, labels, train=True)
        net.backward(net.head.grad())
        analytic = {(idx, name): layer.grads[name]
                    for idx, layer, name, _ in net.parameters()}

        h = 1e-5
        for idx, layer, name, param in list(net.parameters()):
            num = np.zeros_like(param)
            it = np.nditer(param, flags=["multi_index"])
            for _ in it:
                pidx = it.multi_index
                original = param[pidx]
                param[pidx] = original + h
                up, _ = net.loss(x, labels, train=True)
                param[pidx] = original - h
                down, _ = net.loss(x, labels, train=True)
                param[pidx] = original
                num[pidx] = (up - down) / (2 * h)
            np.testing.assert_allclose(analytic[(idx, name)], num, rtol=1e-4, atol=1e-8)

    def test_batch_norm_network_gradients(self):
        rng = np.random.default_rng(4)
        model = [ConvLayerSpec(2, (3, 3), padding=1, batch_norm=True), FlattenSpec(),
                 DenseSpec(3), SoftmaxXentSpec()]
        net = build_network(model, (1, 4, 4), 3, rng)
        x = rng.normal(size=(4, 1, 4, 4))
        labels = rng.integers(0, 3, size=4)
        net.loss(x, labels, train=True)
        net.backward(net.head.grad())
        analytic = {(idx, name): layer.grads[name].copy()
                    for idx, layer, name, _ in net.parameters()}
        h = 1e-5
        for idx, layer, name, param in list(net.parameters()):
            flat = param.reshape(-1)
            probe = min(6, flat.size)
            for k in range(probe):
                original = flat[k]
                flat[k] = original + h
                up, _ = net.loss(x, labels, train=True)
                flat[k] = original - h
                down, _ = net.loss(x, labels, train=True)
                flat[k] = original
                num = (up - down) / (2 * h)
                np.testing.assert_allclose(analytic[(idx, name)].reshape(-1)[k], num,
                                           rtol=2e-4, atol=1e-7)


class TestBuildRun:
    def test_streams_are_init_shuffle_refresh_children_of_the_seed(self):
        cfg = momentum_cfg(seed=7)
        run = build_run(tiny_model(), (1, 8, 8), 3, cfg)
        init, shuffle, refresh = np.random.SeedSequence(7).spawn(3)
        by_hand = build_network(tiny_model(), (1, 8, 8), 3, np.random.default_rng(init),
                                cfg.dtype)
        for name, w in by_hand.named_weights().items():
            assert np.array_equal(run.network.named_weights()[name], w)
        assert run.shuffle_rng.random() == np.random.default_rng(shuffle).random()
        assert run.refresh_rng.random() == np.random.default_rng(refresh).random()


def assert_same_weights(a: Run, b: Run):
    wa, wb = a.final_weights(), b.final_weights()
    assert wa.keys() == wb.keys()
    assert all(np.array_equal(wa[k], wb[k]) for k in wa)


class TestRunSplit:
    def test_run_epoch_n_times_equals_train(self):
        train_ds = synth_digits(128, seed=20)
        test_ds = synth_digits(64, seed=21)
        cfg = momentum_cfg(epochs=3, sgs=SgsSettings(enabled=True, measure="mi",
                                                     warmup_epochs=1, refresh_every=1))
        whole = train(two_conv_model(), train_ds, test_ds, cfg)
        run = build_run(two_conv_model(), train_ds.images.shape[1:], train_ds.class_count, cfg)
        assert run.epoch == 0
        for _ in range(cfg.epochs):
            run_epoch(run, train_ds, test_ds)
        assert isinstance(whole, Run) and run.epoch == whole.epoch == cfg.epochs
        assert_same_weights(run, whole)
        assert [(m.epoch, m.train_loss, m.train_acc, m.eval_acc) for m in run.metrics] \
            == [(m.epoch, m.train_loss, m.train_acc, m.eval_acc) for m in whole.metrics]
        assert [epoch for epoch, _ in run.refreshes] == [epoch for epoch, _ in whole.refreshes] \
            == [1, 2]
        for (_, mine), (_, theirs) in zip(run.refreshes, whole.refreshes):
            assert mine.keys() == theirs.keys()
            for idx in mine:
                for m, t in zip(mine[idx], theirs[idx]):
                    assert np.array_equal(m.values, t.values)

    def test_train_run_runs_only_the_remaining_epochs(self, monkeypatch):
        import spatialgrad.training as training_mod

        train_ds = synth_digits(128, seed=20)
        test_ds = synth_digits(64, seed=21)
        cfg = momentum_cfg(epochs=3, sgs=SgsSettings(enabled=True, measure="mi",
                                                     warmup_epochs=1, refresh_every=1))
        whole = train(two_conv_model(), train_ds, test_ds, cfg)
        run = build_run(two_conv_model(), train_ds.images.shape[1:], train_ds.class_count, cfg)
        run_epoch(run, train_ds, test_ds)  # k = 1 epoch before the refreshes at 1 and 2
        real_run_epoch, epochs_run = training_mod.run_epoch, []

        def counting_run_epoch(run, *datasets):
            epochs_run.append(run.epoch)
            return real_run_epoch(run, *datasets)

        monkeypatch.setattr(training_mod, "run_epoch", counting_run_epoch)
        assert train_run(run, train_ds, test_ds) is run
        assert epochs_run == [1, 2] and run.epoch == cfg.epochs
        assert train_run(run, train_ds, test_ds) is run and epochs_run == [1, 2]
        assert_same_weights(run, whole)
        assert [(m.epoch, m.train_loss, m.train_acc, m.eval_acc) for m in run.metrics] \
            == [(m.epoch, m.train_loss, m.train_acc, m.eval_acc) for m in whole.metrics]
        assert [epoch for epoch, _ in run.refreshes] == [epoch for epoch, _ in whole.refreshes] \
            == [1, 2]
        for (_, mine), (_, theirs) in zip(run.refreshes, whole.refreshes):
            assert mine.keys() == theirs.keys()
            for idx in mine:
                for m, t in zip(mine[idx], theirs[idx]):
                    assert np.array_equal(m.values, t.values)

    def test_hand_loop_of_train_step_equals_run_epoch(self):
        train_ds = synth_digits(128, seed=22)
        test_ds = synth_digits(64, seed=23)
        cfg = momentum_cfg(epochs=2, sgs=SgsSettings(enabled=True, measure="mi",
                                                     warmup_epochs=0, refresh_every=2))
        run = build_run(two_conv_model(), train_ds.images.shape[1:], train_ds.class_count, cfg)
        run_epoch(run, train_ds, test_ds)  # epoch 0 refreshes; epoch 1 steps scaled, no refresh
        by_hand = copy.deepcopy(run)
        metrics = run_epoch(run, train_ds, test_ds)
        assert [epoch for epoch, _ in run.refreshes] == [0] and by_hand.scalings
        loss_sum, seen = 0.0, 0
        for batch_idx in _batches(by_hand.shuffle_rng.permutation(len(train_ds)),
                                  cfg.batch_size):
            loss, _ = train_step(by_hand, train_ds.images[batch_idx], train_ds.labels[batch_idx],
                                 seen)
            loss_sum += loss * len(batch_idx)
            seen += len(batch_idx)
        assert loss_sum / seen == metrics.train_loss
        assert_same_weights(by_hand, run)


class TestRunEpochData:
    @pytest.mark.parametrize("bad,match", [
        ("train", "training set is empty"),
        ("eval", "eval set is empty"),
        ("classes", "at least 2 classes"),
    ])
    def test_bad_dataset_raises_before_the_refresh(self, bad, match):
        ds = synth_digits(64, seed=24)
        empty = LabeledDataset(ds.images[:0], ds.labels[:0], ds.class_count)
        one_class = LabeledDataset(ds.images, np.zeros_like(ds.labels), 1)
        train_ds, eval_ds = {"train": (empty, ds), "eval": (ds, empty),
                             "classes": (one_class, ds)}[bad]
        cfg = momentum_cfg(sgs=SgsSettings(enabled=True, measure="mi", warmup_epochs=0))
        run = build_run(two_conv_model(), ds.images.shape[1:], ds.class_count, cfg)
        before = copy.deepcopy(run)
        with pytest.raises(ValueError, match=match):
            run_epoch(run, train_ds, eval_ds)
        assert run.epoch == 0 and run.refreshes == [] and run.scalings == {}
        assert run.refresh_rng.bit_generator.state == before.refresh_rng.bit_generator.state
        assert run.shuffle_rng.bit_generator.state == before.shuffle_rng.bit_generator.state
        assert_same_weights(run, before)

    def test_float64_data_keeps_a_float32_run_in_float32(self):
        train_ds = synth_digits(96, seed=26)
        test_ds = synth_digits(32, seed=27)
        assert train_ds.images.dtype == test_ds.images.dtype == np.float64
        cfg = momentum_cfg(precision=32, sgs=SgsSettings(enabled=True, measure="mi",
                                                         warmup_epochs=0, refresh_every=1))
        run = build_run(two_conv_model(), train_ds.images.shape[1:], train_ds.class_count, cfg)
        cast = copy.deepcopy(run)
        run_epoch(run, train_ds, test_ds)
        for name, value in run.final_weights().items():
            assert value.dtype == np.float32, name
        for key, state in run.opt_states.items():
            assert all(b.dtype == np.float32 for b in state.buffers.values()), key
        # the same epoch as on data cast to float32 up front
        run_epoch(cast, train_ds.astype(np.float32), test_ds.astype(np.float32))
        assert_same_weights(run, cast)
        assert run.metrics[0].train_loss == cast.metrics[0].train_loss


class TestTrainLoop:
    def test_smoke_loss_decreases(self):
        train_ds = synth_digits(512, seed=0)
        test_ds = synth_digits(128, seed=1)
        cfg = momentum_cfg(epochs=3, batch_size=64, sgs=SgsSettings(enabled=False))
        result = train(two_conv_model(), train_ds, test_ds, cfg)
        assert result.metrics[-1].train_loss < result.metrics[0].train_loss

    def test_bitwise_determinism(self):
        train_ds = synth_digits(128, seed=2)
        test_ds = synth_digits(64, seed=3)
        cfg = momentum_cfg(sgs=SgsSettings(enabled=True, measure="mi", warmup_epochs=0,
                                           refresh_every=1))
        a = train(two_conv_model(), train_ds, test_ds, cfg)
        b = train(two_conv_model(), train_ds, test_ds, cfg)
        assert [m.train_loss for m in a.metrics] == [m.train_loss for m in b.metrics]
        assert [m.eval_acc for m in a.metrics] == [m.eval_acc for m in b.metrics]
        wa, wb = a.final_weights(), b.final_weights()
        assert all(np.array_equal(wa[k], wb[k]) for k in wa)

    def test_identity_scaling_bitwise_equals_disabled(self):
        train_ds = synth_digits(128, seed=4)
        test_ds = synth_digits(64, seed=5)
        base_cfg = momentum_cfg(sgs=SgsSettings(enabled=False))
        ones_cfg = momentum_cfg(sgs=SgsSettings(enabled=True, measure="fixed",
                                                warmup_epochs=0, refresh_every=1))
        a = train(two_conv_model(), train_ds, test_ds, base_cfg)
        b = train(two_conv_model(), train_ds, test_ds, ones_cfg)
        assert [m.train_loss for m in a.metrics] == [m.train_loss for m in b.metrics]
        wa, wb = a.final_weights(), b.final_weights()
        assert all(np.array_equal(wa[k], wb[k]) for k in wa)

    @pytest.mark.parametrize("position", ["pre", "post"])
    def test_one_by_one_conv_with_all_ones_scaling_bitwise_equals_disabled(self, position):
        model = [
            ConvLayerSpec(out_channels=4, kernel=(1, 1)),
            ConvLayerSpec(out_channels=4, kernel=(3, 3), padding=1),
            MaxPoolSpec(),
            FlattenSpec(),
            DenseSpec(out_features=10),
            SoftmaxXentSpec(),
        ]
        train_ds = synth_digits(96, seed=8)
        test_ds = synth_digits(32, seed=9)
        base_cfg = momentum_cfg(sgs=SgsSettings(enabled=False, scaling_position=position))
        ones_cfg = momentum_cfg(sgs=SgsSettings(enabled=True, measure="fixed", warmup_epochs=0,
                                                refresh_every=1, scaling_position=position))
        a = train(model, train_ds, test_ds, base_cfg)
        b = train(model, train_ds, test_ds, ones_cfg)
        assert {scaling.values.shape for _, refresh in b.refreshes
                for _, scaling in refresh.values()} == {(1, 1), (3, 3)}
        assert [m.train_loss for m in a.metrics] == [m.train_loss for m in b.metrics]
        wa, wb = a.final_weights(), b.final_weights()
        assert all(np.array_equal(wa[k], wb[k]) for k in wa)

    def test_scaling_history_valid_and_seeded_refreshes(self):
        train_ds = synth_digits(128, seed=6)
        test_ds = synth_digits(64, seed=7)
        cfg = momentum_cfg(epochs=4, sgs=SgsSettings(enabled=True, measure="mi",
                                                     warmup_epochs=1, refresh_every=2))
        result = train(two_conv_model(), train_ds, test_ds, cfg)
        # refreshes at epochs 1 and 3, two conv layers each
        epochs = [epoch for epoch, refresh in result.refreshes for _ in refresh]
        assert epochs == [1, 1, 3, 3]
        for _, refresh in result.refreshes:
            for _, scaling in refresh.values():
                assert scaling.values.min() > 0
                assert abs(scaling.values.mean() - 1.0) <= 1e-9

    def test_warmup_delays_first_refresh(self):
        train_ds = synth_digits(96, seed=8)
        test_ds = synth_digits(32, seed=9)
        cfg = momentum_cfg(epochs=2, sgs=SgsSettings(enabled=True, measure="mi",
                                                     warmup_epochs=5, refresh_every=1))
        result = train(two_conv_model(), train_ds, test_ds, cfg)
        assert result.refreshes == []

    def test_float32_precision_runs(self):
        train_ds = synth_digits(96, seed=10)
        test_ds = synth_digits(32, seed=11)
        cfg = momentum_cfg(precision=32, sgs=SgsSettings(enabled=True, measure="mi",
                                                         warmup_epochs=0, refresh_every=1))
        result = train(two_conv_model(), train_ds, test_ds, cfg)
        assert result.final_weights()["conv0.W"].dtype == np.float32

    def test_nan_loss_aborts_with_diagnostic(self):
        train_ds = synth_digits(96, seed=12)
        test_ds = synth_digits(32, seed=13)
        # one step at this rate overflows the weights; the next forward is NaN
        cfg = momentum_cfg(lr=1e308, epochs=3, sgs=SgsSettings(enabled=False))
        with np.errstate(all="ignore"), pytest.raises(TrainingDivergedError, match="epoch"):
            train(two_conv_model(), train_ds, test_ds, cfg)

    def test_nan_gradient_with_finite_loss_aborts_naming_the_parameter(self, monkeypatch):
        original = ConvLayer.backward

        def nan_second_conv(self, dy):
            dx = original(self, dy)
            if self.spec.in_channels > 1:
                self.grads["W"] = np.full_like(self.grads["W"], np.nan)
            return dx

        monkeypatch.setattr(ConvLayer, "backward", nan_second_conv)
        train_ds = synth_digits(96, seed=12)
        test_ds = synth_digits(32, seed=13)
        cfg = momentum_cfg(sgs=SgsSettings(enabled=False))
        with pytest.raises(TrainingDivergedError,
                           match=r"gradient of conv3\.W with finite loss .* at epoch 0, "
                                 r"sample offset 0$"):
            train(two_conv_model(), train_ds, test_ds, cfg)

    def test_kept_window_matrix_equals_rebuilding_it_in_the_trainer(self, monkeypatch):
        # digits_smoke's model and data for one epoch, with its MI refresh
        # moved to epoch 0 so the scaled step runs too
        cfg = load_config(Path(__file__).parent.parent / "configs" / "digits_smoke.ini",
                          {"train": {"epochs": "1"}, "sgs": {"warmup_epochs": "0"}})
        train_ds, test_ds = build_datasets(cfg.data)
        kept = train(cfg.model, train_ds, test_ds, cfg.train).final_weights()

        def forward(self, x, train):
            self._x = x
            return conv_forward(im2col(x, self.spec), self.params["W"], self.spec)

        def backward(self, dy):
            self.grads["W"] = conv_backward_weights(dy, im2col(self._x, self.spec), self.spec)
            return conv_backward_input(dy, self.params["W"], self.spec, self._x.shape[2:])

        monkeypatch.setattr(ConvLayer, "forward", forward)
        monkeypatch.setattr(ConvLayer, "backward", backward)
        rebuilt = train(cfg.model, train_ds, test_ds, cfg.train).final_weights()
        assert kept.keys() == rebuilt.keys()
        assert all(np.array_equal(kept[k], rebuilt[k]) for k in kept)

    def test_empty_eval_set_rejected_before_training(self, monkeypatch):
        import spatialgrad.training as training_mod

        def no_step(*args, **kwargs):
            raise AssertionError("train() stepped with an empty eval set")

        monkeypatch.setattr(training_mod, "train_step", no_step)
        train_ds = synth_digits(64, seed=16)
        empty = LabeledDataset(train_ds.images[:0], train_ds.labels[:0], train_ds.class_count)
        with pytest.raises(ValueError, match="eval set is empty"):
            train(two_conv_model(), train_ds, empty, momentum_cfg(sgs=SgsSettings(enabled=False)))

    def test_test_images_that_do_not_fit_rejected_before_training(self, monkeypatch):
        import spatialgrad.training as training_mod

        def no_call(*args, **kwargs):
            raise AssertionError("train() stepped or refreshed before checking the test images")

        monkeypatch.setattr(training_mod, "train_step", no_call)
        monkeypatch.setattr(training_mod, "refresh_scalings", no_call)
        train_ds = synth_digits(64, seed=16)
        test_ds = synth_digits(32, seed=17)
        cropped = LabeledDataset(test_ds.images[:, :, 4:24, 4:24], test_ds.labels,
                                 test_ds.class_count)
        cfg = momentum_cfg(sgs=SgsSettings(enabled=True, measure="mi", warmup_epochs=0))
        with pytest.raises(ShapeError, match=r"^test images of shape \(1, 20, 20\) do not pass "
                                             r"through the model: dense input shape"):
            train(two_conv_model(), train_ds, cropped, cfg)

    def test_empty_training_set_rejected_before_training(self, monkeypatch):
        import spatialgrad.training as training_mod

        def no_refresh(*args, **kwargs):
            raise AssertionError("train() refreshed on an empty training set")

        monkeypatch.setattr(training_mod, "refresh_scalings", no_refresh)
        eval_ds = synth_digits(64, seed=16)
        empty = LabeledDataset(eval_ds.images[:0], eval_ds.labels[:0], eval_ds.class_count)
        with pytest.raises(ValueError, match="training set is empty"):
            train(two_conv_model(), empty, eval_ds, momentum_cfg(sgs=SgsSettings(enabled=False)))


class TestRefreshScalings:
    def test_records_the_refresh_at_the_run_epoch_in_the_run_dtype(self):
        train_ds, test_ds = synth_digits(96, seed=30), synth_digits(32, seed=31)
        cfg = momentum_cfg(precision=32, sgs=SgsSettings(enabled=True, measure="mi",
                                                         warmup_epochs=5))
        run = build_run(two_conv_model(), train_ds.images.shape[1:], train_ds.class_count, cfg)
        run_epoch(run, train_ds, test_ds)  # inside the warm-up: no refresh
        assert run.epoch == 1 and run.refreshes == [] and run.scalings == {}
        twin = copy.deepcopy(run)
        assert refresh_scalings(run, train_ds) is None
        want = inspect_scalings(twin.network, train_ds, cfg.sgs, twin.refresh_rng,
                                cfg.batch_size)
        assert [epoch for epoch, _ in run.refreshes] == [1]
        got = run.refreshes[0][1]
        assert got.keys() == want.keys() == set(run.network.conv_indices)
        assert run.scalings.keys() == {(idx, "W") for idx in want}
        for idx, (dependence, scaling) in want.items():
            assert np.array_equal(got[idx][0].values, dependence.values)
            assert np.array_equal(got[idx][1].values, scaling.values)
            held = run.scalings[idx, "W"]
            assert held.dtype == np.float32
            assert np.array_equal(held, scaling.values.astype(np.float32))
        assert run.refresh_rng.bit_generator.state == twin.refresh_rng.bit_generator.state

    def test_a_second_refresh_replaces_the_scalings(self):
        ds = synth_digits(96, seed=32)
        cfg = momentum_cfg(sgs=SgsSettings(enabled=True, measure="mi"))
        run = build_run(two_conv_model(), ds.images.shape[1:], ds.class_count, cfg)
        refresh_scalings(run, ds)
        run.scalings[-1, "W"] = np.ones((3, 3))  # a key no refresh makes
        run.cfg.sgs.measure = "masks"
        refresh_scalings(run, ds)
        assert [epoch for epoch, _ in run.refreshes] == [0, 0]
        (_, first), (_, second) = run.refreshes
        assert run.scalings.keys() == {(idx, "W") for idx in run.network.conv_indices}
        for idx, (_, scaling) in second.items():
            assert not np.array_equal(scaling.values, first[idx][1].values)
            assert np.array_equal(run.scalings[idx, "W"], scaling.values)


class TestInspectScalings:
    def build_net(self, model, hw=(1, 28, 28), classes=10, seed=0):
        return build_network(model, hw, classes, np.random.default_rng(seed))

    def test_fixed_measure_gives_uniform(self):
        net = self.build_net(two_conv_model())
        ds = synth_digits(64, seed=0)
        sgs = SgsSettings(enabled=True, measure="fixed")
        out = inspect_scalings(net, ds, sgs, np.random.default_rng(0), 32)
        for _, matrix in out.values():
            np.testing.assert_array_equal(matrix.values, np.ones((3, 3)))

    def test_mi_on_noise_images_center_spike(self):
        rng = np.random.default_rng(1)
        from spatialgrad.data import LabeledDataset

        noise = LabeledDataset(rng.uniform(size=(256, 1, 28, 28)),
                               rng.integers(0, 10, size=256), 10)
        net = self.build_net(two_conv_model())
        sgs = SgsSettings(enabled=True, measure="mi", k=5.0, refresh_batches=4)
        out = inspect_scalings(net, noise, sgs, np.random.default_rng(2), 64)
        first = out[0][1].values  # first conv sees the raw noise
        assert first[1, 1] == first.max()
        off = np.delete(first.ravel(), 4)
        assert np.all(first[1, 1] > 3 * off)

    def test_alpha_beta_measure(self):
        net = self.build_net(two_conv_model())
        ds = synth_digits(64, seed=3)
        sgs = SgsSettings(enabled=True, measure="alpha_beta", alpha=2.0, beta=4.0)
        out = inspect_scalings(net, ds, sgs, np.random.default_rng(0), 32)
        for _, matrix in out.values():
            assert matrix.values[1, 1] == pytest.approx(2.25, rel=1e-12)

    def test_masks_measure(self):
        net = self.build_net(two_conv_model())
        ds = synth_digits(64, seed=4)
        sgs = SgsSettings(enabled=True, measure="masks", mask_family="acb")
        out = inspect_scalings(net, ds, sgs, np.random.default_rng(0), 32)
        raw = np.array([[1, 2, 1], [2, 3, 2], [1, 2, 1]], dtype=float)
        for _, matrix in out.values():
            np.testing.assert_allclose(matrix.values, raw / raw.mean(), rtol=1e-12)

    def test_degenerate_layer_degrades_to_uniform_with_warning(self, caplog):
        from spatialgrad.data import LabeledDataset

        # A ramp along each row: horizontal neighbours differ by 1/27 of the
        # range, less than the bin width 1/8, and vertical ones not at all, so
        # the filter empties every off-center displacement of the first layer.
        ramp = np.broadcast_to(np.linspace(0.0, 1.0, 28), (64, 1, 28, 28))
        smooth = LabeledDataset(ramp.copy(), np.zeros(64, dtype=np.int64), 10)
        net = self.build_net(two_conv_model())
        sgs = SgsSettings(enabled=True, measure="mi", bins=8, redundancy_filter="auto")
        with caplog.at_level(logging.WARNING):
            out = inspect_scalings(net, smooth, sgs, np.random.default_rng(0), 32)
        assert any(m.startswith("layer 0:") and "redundancy" in m and "uniform" in m
                   for m in caplog.messages)
        np.testing.assert_array_equal(out[0][1].values, np.ones((3, 3)))

    def test_non_finite_maps_degrade_to_uniform_with_warning(self, caplog):
        ds = synth_digits(64, seed=6)
        ds.images[5, 0, 10, 12] = np.nan  # reaches every conv layer's captured input
        net = self.build_net(two_conv_model())
        sgs = SgsSettings(enabled=True, measure="mi", refresh_batches=2)
        with caplog.at_level(logging.WARNING):
            out = inspect_scalings(net, ds, sgs, np.random.default_rng(0), 32)
        messages = [rec.message for rec in caplog.records]
        for idx in net.conv_indices:
            dependence, scaling = out[idx]
            assert dependence is None
            np.testing.assert_array_equal(scaling.values, np.ones((3, 3)))
            assert any(f"layer {idx}:" in m and "non-finite" in m and "uniform" in m
                       for m in messages)

    def test_capture_stops_at_the_last_conv_input(self, monkeypatch):
        net = self.build_net(two_conv_model())
        ds = synth_digits(96, seed=8)
        sgs = SgsSettings(enabled=True, measure="mi", refresh_batches=2)

        def no_dense(self, x, train):
            raise AssertionError("the capture forward ran past the last conv")

        def no_last_conv(x, train):
            raise AssertionError("the capture forward ran the last conv")

        with monkeypatch.context() as patched:
            patched.setattr(DenseLayer, "forward", no_dense)
            patched.setattr(net.layers[net.conv_indices[-1]], "forward", no_last_conv)
            captured = _capture_feature_maps(net, ds, sgs, np.random.default_rng(3), 32)

        order = np.random.default_rng(3).choice(len(ds), size=64, replace=False)
        expected = {idx: [] for idx in net.conv_indices}
        for start in (0, 32):
            x = ds.images[order[start : start + 32]]
            for idx, layer in enumerate(net.layers):  # the full eval forward
                if idx in expected:
                    expected[idx].append(x)
                x = layer.forward(x, train=False)
            assert x.shape == (32, 10)
        assert captured.keys() == expected.keys()
        for idx, maps in captured.items():
            assert len(maps) == len(expected[idx]) == 2
            for got, want in zip(maps, expected[idx]):
                np.testing.assert_array_equal(got, want)

    def test_capture_forward_keeps_no_window_matrix(self):
        net = self.build_net(two_conv_model())
        ds = synth_digits(64, seed=8)
        sgs = SgsSettings(enabled=True, measure="mi", refresh_batches=2)
        first, last = (net.layers[idx] for idx in net.conv_indices)
        net.forward(ds.images[:32], train=True)
        kept = last._saved
        assert first._saved is not None and kept is not None
        _capture_feature_maps(net, ds, sgs, np.random.default_rng(3), 32)
        assert first._saved is None
        assert last._saved is kept  # the capture stops before the last conv's forward
        net.forward(ds.images[:32], train=False)
        assert first._saved is None and last._saved is None

    def test_one_by_one_kernels_stay_uniform(self, monkeypatch):
        model = [
            ConvLayerSpec(out_channels=4, kernel=(1, 1)),
            ConvLayerSpec(out_channels=4, kernel=(3, 3), padding=1),
            FlattenSpec(),
            DenseSpec(out_features=10),
            SoftmaxXentSpec(),
        ]
        net = build_network(model, (1, 8, 8), 10, np.random.default_rng(5))
        monkeypatch.setattr(data_mod, "DIGIT_SIZE", 8)
        monkeypatch.setattr(data_mod, "DIGIT_JITTER", 0)
        ds = synth_digits(64, seed=5)
        sgs = SgsSettings(enabled=True, measure="mi")
        out = inspect_scalings(net, ds, sgs, np.random.default_rng(0), 32)
        first_conv, second_conv = net.conv_indices
        np.testing.assert_array_equal(out[first_conv][1].values, np.ones((1, 1)))
        assert out[second_conv][1].values.shape == (3, 3)


class TestKernelMagnitude:
    def test_uniform_weights(self):
        np.testing.assert_array_equal(kernel_magnitude_matrix(np.full((4, 3, 3, 3), -2.0)),
                                      np.ones((3, 3)))

    def test_doubled_center_column_oracle(self):
        rng = np.random.default_rng(6)
        w = rng.uniform(0.5, 1.0, size=(4, 2, 3, 3))
        w[:, :, :, 1] *= 2
        matrix = kernel_magnitude_matrix(w)
        # direct arithmetic oracle
        expected = np.abs(w).mean(axis=(0, 1))
        expected /= expected.mean()
        np.testing.assert_allclose(matrix, expected, rtol=1e-12)
        assert matrix[:, 1].min() > matrix[:, 0].max()
        assert matrix.mean() == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_weights_rejected(self, bad):
        w = np.ones((2, 2, 3, 3))
        w[0, 1, 1, 2] = bad
        with pytest.raises(ValueError, match="non-finite"):
            kernel_magnitude_matrix(w)

    def test_zero_weights_degenerate(self):
        with pytest.raises(ValueError, match="degenerate"):
            kernel_magnitude_matrix(np.zeros((2, 2, 3, 3)))


SPEC_CLASSES = 3


@st.composite
def small_model_specs(draw):
    """A ``[model]`` spec of 1–3 conv lines, with up to two ``maxpool`` or ``gap``
    lines anywhere before ``flatten``, at most one hidden dense layer, and the head."""
    convs = draw(st.lists(st.builds(
        ConvLayerSpec, out_channels=st.integers(1, 4),
        kernel=st.tuples(st.integers(1, 5), st.integers(1, 5)), stride=st.integers(1, 2),
        padding=st.integers(0, 2), activation=st.sampled_from(["relu", "none"]),
        batch_norm=st.booleans()), min_size=1, max_size=3))
    pools = draw(st.lists(st.tuples(st.integers(0, len(convs)),
                                    st.sampled_from([MaxPoolSpec(), GlobalAvgPoolSpec()])),
                          max_size=2))
    features = list(convs)
    for position, pool in sorted(pools, key=lambda p: p[0], reverse=True):
        features.insert(position, pool)
    hidden = draw(st.lists(st.builds(DenseSpec, st.integers(1, 6)), max_size=1))
    return [*features, FlattenSpec(), *hidden, DenseSpec(SPEC_CLASSES), SoftmaxXentSpec()]


def chains(specs: list, input_shape: tuple[int, int, int]) -> bool:
    """Whether every layer of ``specs`` has a non-empty output on ``input_shape``."""
    _, h, w = input_shape
    for spec in specs:
        if isinstance(spec, ConvLayerSpec):
            (kx, ky), stride, pad = spec.kernel, spec.stride, spec.padding
            h, w = (h + 2 * pad - kx) // stride + 1, (w + 2 * pad - ky) // stride + 1
            if h < 1 or w < 1:
                return False
        elif isinstance(spec, MaxPoolSpec):
            if h < 2 or w < 2:
                return False
            h, w = h // 2, w // 2
        elif isinstance(spec, GlobalAvgPoolSpec):
            h = w = 1
    return True


class TestSmallModelSpecs:
    @given(spec=small_model_specs(),
           input_shape=st.tuples(st.integers(1, 3), st.integers(5, 12), st.integers(5, 12)),
           measure=st.sampled_from(MEASURES), kind=st.sampled_from(KINDS),
           position=st.sampled_from(["pre", "post"]), precision=st.sampled_from([32, 64]),
           seed=st.integers(0, 2**16))
    @settings(max_examples=200, deadline=None)
    def test_build_train_twice_and_keep_the_dtype(self, spec, input_shape, measure, kind,
                                                  position, precision, seed):
        cfg = TrainingConfig(epochs=1, batch_size=8, lr=0.01, optimizer=OptimizerConfig(kind),
                             seed=seed, precision=precision,
                             sgs=SgsSettings(measure=measure, warmup_epochs=0,
                                             scaling_position=position))
        if not chains(spec, input_shape):
            with pytest.raises(ValueError):
                build_run(spec, input_shape, SPEC_CLASSES, cfg)
            return
        rng = np.random.default_rng(seed)
        train_ds, eval_ds = (LabeledDataset(rng.random((n, *input_shape)),
                                            np.arange(n) % SPEC_CLASSES, SPEC_CLASSES)
                             for n in (16, 8))

        def scores(run):
            return [(m.train_loss, m.train_acc, m.eval_acc) for m in run.metrics]

        a, b = (train(spec, train_ds, eval_ds, cfg) for _ in range(2))
        assert_same_weights(a, b)
        assert scores(a) == scores(b)
        assert a.scalings.keys() == b.scalings.keys()
        assert all(np.array_equal(a.scalings[k], b.scalings[k]) for k in a.scalings)
        # measure = fixed with no values scales by ones: bitwise the disabled run.
        fixed, off = (train(spec, train_ds, eval_ds,
                            replace(cfg, sgs=replace(cfg.sgs, measure="fixed", enabled=on)))
                      for on in (True, False))
        assert_same_weights(fixed, off)
        assert scores(fixed) == scores(off)
        if precision == 32:
            for name, value in a.final_weights().items():  # BN running statistics too
                assert value.dtype == np.float32, name
            for idx, layer, name, _ in a.network.parameters():
                assert layer.grads[name].dtype == np.float32, (idx, name)
            for key, state in a.opt_states.items():
                assert all(v.dtype == np.float32 for v in state.buffers.values()), key
            assert all(m.dtype == np.float32 for m in a.scalings.values())
            assert a.network.forward(eval_ds.images, train=False).dtype == np.float32
