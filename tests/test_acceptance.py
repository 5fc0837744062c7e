"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria execute. Tolerances are pinned here exactly as stated; nothing is
deferred to later calibration.
"""

import time

import numpy as np
import pytest

from spatialgrad.conv import (
    ConvSpec,
    conv_backward_input,
    conv_backward_weights,
    conv_forward,
    im2col,
)
from spatialgrad.data import synth_correlated_field, synth_digits
from spatialgrad.dependence import (
    BinningConfig,
    alpha_beta_scaling,
    normalized_mi,
    spatial_dependence_mi,
)
from spatialgrad.network import (
    ConvLayerSpec,
    DenseSpec,
    FlattenSpec,
    MaxPoolSpec,
    SoftmaxXentSpec,
    build_network,
)
from spatialgrad.optim import OptimizerConfig
from spatialgrad.reparam import equivalence_run, standard_mask_sets
from spatialgrad.scaling import k_transform
from spatialgrad.training import SgsSettings, TrainingConfig, train


def report(index, passed, detail):
    line = f"ACCEPTANCE {index} {'PASS' if passed else 'FAIL'}: {detail}"
    print(line)
    assert passed, line


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


def momentum_config(**kwargs):
    defaults = dict(
        epochs=3, batch_size=64, lr=0.05,
        optimizer=OptimizerConfig(kind="sgd_momentum", momentum=0.9, weight_decay=1e-4),
        seed=0, sgs=SgsSettings(enabled=False),
    )
    defaults.update(kwargs)
    return TrainingConfig(**defaults)


@pytest.mark.slow
def test_criterion_1_lemma_equivalence():
    """Branched training merges to the coverage-scaled trajectory, 1e-8 over 100 steps."""
    t0 = time.perf_counter()
    optimizers = [
        OptimizerConfig(kind="sgd", weight_decay=1e-4),
        OptimizerConfig(kind="sgd_momentum", momentum=0.9, weight_decay=1e-4),
    ]
    worst = 0.0
    mask_sets = 0
    for kernel in [(3, 3), (7, 7)]:
        for seed in range(10):
            masks = standard_mask_sets(kernel, "random", count=3, seed=seed)
            mask_sets += 1
            for cfg in optimizers:
                rep = equivalence_run(masks, cfg, steps=100, seed=seed, kernel=kernel, lr=0.05)
                worst = max(worst, rep.max_divergence)
    wall = time.perf_counter() - t0
    report(1, worst <= 1e-8 and mask_sets >= 20 and wall < 120.0,
           f"{mask_sets} random mask sets (3x3 and 7x7), each with sgd and "
           f"sgd_momentum(0.9) at wd 1e-4, max divergence {worst:.3e} <= 1e-8, "
           f"wall {wall:.1f}s < 120s")


def test_criterion_2_identity_degeneracy():
    """All-ones scaling reproduces the unscaled trajectory bitwise over 3 epochs."""
    train_ds = synth_digits(512, seed=0)
    test_ds = synth_digits(128, seed=1)
    base = train(two_conv_model(), train_ds, test_ds, momentum_config())
    ones = train(two_conv_model(), train_ds, test_ds, momentum_config(
        sgs=SgsSettings(enabled=True, measure="fixed", warmup_epochs=0, refresh_every=1)))
    metrics_equal = all(
        a.train_loss == b.train_loss and a.train_acc == b.train_acc
        and a.eval_acc == b.eval_acc
        for a, b in zip(base.metrics, ones.metrics))
    wa, wb = base.final_weights(), ones.final_weights()
    weights_equal = set(wa) == set(wb) and all(np.array_equal(wa[k], wb[k]) for k in wa)
    report(2, metrics_equal and weights_equal,
           f"3-epoch digit-subset run: metrics bitwise equal={metrics_equal}, "
           f"weights bitwise equal={weights_equal}")


def test_criterion_3_gradient_correctness():
    """Layer backward passes at 1e-5 and the end-to-end net at 1e-4 vs central differences."""
    rng = np.random.default_rng(0)
    h = 1e-5

    def rel_err(analytic, numeric):
        denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
        return float((np.abs(analytic - numeric) / denom).max())

    spec = ConvSpec(2, 3, (3, 3), stride=1, padding=1)
    x = rng.normal(size=(2, 2, 6, 6))
    w = rng.normal(size=spec.weight_shape)
    dy = rng.normal(size=conv_forward(im2col(x, spec), w, spec).shape)

    def loss_w(weights):
        return float((conv_forward(im2col(x, spec), weights, spec) * dy).sum())

    num_w = np.zeros_like(w)
    it = np.nditer(w, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        wp, wm = w.copy(), w.copy()
        wp[idx] += h
        wm[idx] -= h
        num_w[idx] = (loss_w(wp) - loss_w(wm)) / (2 * h)
    err_w = rel_err(conv_backward_weights(dy, im2col(x, spec), spec), num_w)

    num_x = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        xp, xm = x.copy(), x.copy()
        xp[idx] += h
        xm[idx] -= h
        num_x[idx] = (float((conv_forward(im2col(xp, spec), w, spec) * dy).sum())
                      - float((conv_forward(im2col(xm, spec), w, spec) * dy).sum())) / (2 * h)
    err_x = rel_err(conv_backward_input(dy, w, spec, x.shape[2:]), num_x)

    model = [ConvLayerSpec(2, (3, 3), padding=1), MaxPoolSpec(), FlattenSpec(),
             DenseSpec(3), SoftmaxXentSpec()]
    net = build_network(model, (1, 6, 6), 3, rng)
    xb = rng.normal(size=(3, 1, 6, 6))
    labels = rng.integers(0, 3, size=3)
    net.loss(xb, labels, train=True)
    net.backward(net.head.grad())
    err_net = 0.0
    for idx, layer, name, param in list(net.parameters()):
        analytic = layer.grads[name]
        num = np.zeros_like(param)
        it = np.nditer(param, flags=["multi_index"])
        for _ in it:
            pidx = it.multi_index
            original = param[pidx]
            param[pidx] = original + h
            up, _ = net.loss(xb, labels, train=True)
            param[pidx] = original - h
            down, _ = net.loss(xb, labels, train=True)
            param[pidx] = original
            num[pidx] = (up - down) / (2 * h)
        err_net = max(err_net, rel_err(analytic, num))

    report(3, err_w <= 1e-5 and err_x <= 1e-5 and err_net <= 1e-4,
           f"conv dW rel err {err_w:.2e} <= 1e-5, conv dX rel err {err_x:.2e} <= 1e-5, "
           f"end-to-end rel err {err_net:.2e} <= 1e-4")


def test_criterion_4_mi_oracle():
    """Normalized MI matches closed-form entropy arithmetic and its conventions."""
    def entropy(probs):
        return float(sum(-p * np.log(p) for p in probs if p > 0))

    rng = np.random.default_rng(1)
    max_err = 0.0
    for _ in range(25):
        joint = rng.integers(0, 40, size=(6, 6)).astype(float)
        joint[2, 3] += 1
        p = joint / joint.sum()
        h_joint = entropy(p.ravel())
        closed = 0.0 if h_joint == 0 else np.clip(
            (entropy(p.sum(axis=1)) + entropy(p.sum(axis=0)) - h_joint) / h_joint, 0, 1)
        max_err = max(max_err, abs(normalized_mi(joint) - closed))

    dependent = normalized_mi(np.array([[0.5, 0.0], [0.0, 0.5]]))
    product = normalized_mi(np.full((2, 2), 0.25))
    maps = [np.random.default_rng(2).normal(size=(4, 2, 10, 10))]
    center = spatial_dependence_mi(maps, (3, 3), BinningConfig(bins=16)).values[1, 1]

    report(4, max_err <= 1e-12 and dependent == 1.0 and product == 0.0 and center == 1.0,
           f"closed-form max err {max_err:.2e} <= 1e-12, dependent joint -> {dependent}, "
           f"product joint -> {product}, S(0,0) on non-constant maps -> {center}")


def test_criterion_5_k_transform():
    """Fixed points, the frozen midpoint value, and monotonicity on 1e4 random pairs."""
    fixed_ok = all(
        k_transform(np.array([[0.0, 1.0]]), float(k)).tolist() == [[0.0, 1.0]]
        for k in range(2, 8))
    midpoint = k_transform(np.array([[0.5]]), 5.0)[0, 0]
    midpoint_ok = abs(midpoint - 2.5 / 3.0) < 1e-12

    rng = np.random.default_rng(3)
    s = rng.uniform(0.0, 1.0, size=10_000)
    k = rng.uniform(0.1, 20.0, size=10_000)
    monotone_s = True
    for kv in (2.0, 5.0, 7.0):
        order = np.argsort(s)
        out = k_transform(s[order].reshape(1, -1), kv).ravel()
        monotone_s &= bool(np.all(np.diff(out) >= 0))
    eps = 1e-6
    bumped = np.clip(s, eps, 1 - eps)
    monotone_k = bool(np.all(
        k_transform(bumped.reshape(1, -1), 1.0)
        <= k_transform(bumped.reshape(1, -1), 1.0 + 1e-9)))
    lower = np.array([k_transform(np.array([[sv]]), kv)[0, 0] for sv, kv in zip(bumped, k)])
    upper = np.array([k_transform(np.array([[sv]]), kv + 0.5)[0, 0] for sv, kv in zip(bumped, k)])
    monotone_k &= bool(np.all(upper >= lower))

    report(5, fixed_ok and midpoint_ok and monotone_s and monotone_k,
           f"fixed points 0/1 for k in 2..7: {fixed_ok}, k=5 at S=0.5 -> {midpoint:.6f} "
           f"(2.5/3), monotone in S: {monotone_s}, monotone in k on 1e4 pairs: {monotone_k}")


def test_criterion_6_alpha_beta():
    """alpha = beta = 1 is uniform; every grid value has mean exactly 1."""
    uniform = np.array_equal(alpha_beta_scaling(1.0, 1.0).values, np.ones((3, 3)))
    grid = [0.8, 1.0, 1.25, 1.7, 5.0, 10, 100]
    worst_mean = max(abs(alpha_beta_scaling(a, b).values.mean() - 1.0)
                     for a in grid for b in grid)
    report(6, uniform and worst_mean <= 1e-12,
           f"alpha=beta=1 uniform: {uniform}, worst |mean-1| over grid {worst_mean:.2e} <= 1e-12")


@pytest.mark.slow
def test_criterion_7_overhead():
    """Scaling refresh every epoch costs at most 15% wall-clock over 5 epochs.

    One baseline/scaled pair is at the mercy of host noise, so three pairs
    run interleaved (the order flips each pair to cancel drift) and the
    median walls are compared.
    """
    train_ds = synth_digits(2000, seed=0)
    test_ds = synth_digits(500, seed=1)
    # warm the contraction caches so neither timed run pays first-call costs
    warm = momentum_config(epochs=1, seed=9)
    train(two_conv_model(), synth_digits(64, seed=9), synth_digits(32, seed=9), warm)

    configs = {
        "base": momentum_config(epochs=5),
        "sgs": momentum_config(epochs=5, sgs=SgsSettings(
            enabled=True, measure="mi", k=5.0, refresh_every=1, refresh_batches=2,
            warmup_epochs=1)),
    }
    walls: dict[str, list[float]] = {"base": [], "sgs": []}
    for pair in range(3):
        for name in ("base", "sgs") if pair % 2 == 0 else ("sgs", "base"):
            t0 = time.perf_counter()
            train(two_conv_model(), train_ds, test_ds, configs[name])
            walls[name].append(time.perf_counter() - t0)

    base_wall = float(np.median(walls["base"]))
    sgs_wall = float(np.median(walls["sgs"]))
    overhead = sgs_wall / base_wall - 1.0
    report(7, overhead <= 0.15,
           f"median of 3 pairs: baseline {base_wall:.2f}s, scaled {sgs_wall:.2f}s, "
           f"overhead {100 * overhead:+.1f}% <= 15%")


@pytest.mark.slow
def test_criterion_8_non_inferiority_smoke():
    """Scaled training is within 0.5pp of baseline over 3 seeds; losses strictly fall."""
    t0 = time.perf_counter()
    train_ds = synth_digits(2000, seed=100)
    test_ds = synth_digits(500, seed=101)
    base_accs, sgs_accs = [], []
    losses_fall = True
    for seed in (0, 1, 2):
        base = train(two_conv_model(), train_ds, test_ds,
                     momentum_config(epochs=5, seed=seed))
        sgs = train(two_conv_model(), train_ds, test_ds, momentum_config(
            epochs=5, seed=seed,
            sgs=SgsSettings(enabled=True, measure="mi", k=5.0, refresh_every=1,
                            refresh_batches=2, warmup_epochs=1)))
        base_accs.append(base.metrics[-1].eval_acc)
        sgs_accs.append(sgs.metrics[-1].eval_acc)
        for result in (base, sgs):
            losses = [m.train_loss for m in result.metrics]
            losses_fall &= all(b < a for a, b in zip(losses, losses[1:]))
    wall = time.perf_counter() - t0
    base_mean = float(np.mean(base_accs))
    sgs_mean = float(np.mean(sgs_accs))
    report(8, sgs_mean >= base_mean - 0.005 and losses_fall and wall < 300.0,
           f"mean eval acc baseline {base_mean:.4f} vs scaled {sgs_mean:.4f} "
           f"(>= -0.5pp), losses strictly decrease in every run: {losses_fall}, "
           f"wall {wall:.1f}s < 300s")


def test_criterion_9_estimator_sanity():
    """Independent fields score near zero; smoothing raises off-center dependence."""
    rough = [synth_correlated_field((16, 4, 41, 40), 0, seed=0)]
    smooth = [synth_correlated_field((16, 4, 41, 40), 3, seed=0)]
    pair_count = 16 * 4 * 40 * 40  # smallest per-displacement pair set
    s_rough = spatial_dependence_mi(rough, (3, 3), BinningConfig(bins=32))
    s_smooth = spatial_dependence_mi(smooth, (3, 3), BinningConfig(bins=32))
    off = np.delete(np.arange(9), 4)
    rough_off_max = s_rough.values.ravel()[off].max()
    rough_mean = s_rough.values.ravel()[off].mean()
    smooth_mean = s_smooth.values.ravel()[off].mean()
    report(9, pair_count >= 100_000 and rough_off_max < 0.05 and smooth_mean > rough_mean,
           f"{pair_count} pairs, iid off-center max {rough_off_max:.4f} < 0.05, "
           f"mean off-center dependence smoothed {smooth_mean:.4f} > iid {rough_mean:.4f}")
