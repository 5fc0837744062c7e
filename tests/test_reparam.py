import numpy as np
import pytest

from spatialgrad.conv import ConvSpec, conv_forward
from spatialgrad.optim import OptimizerConfig, make_state
from spatialgrad.reparam import (
    BranchedConv,
    branched_backward_step,
    branched_forward,
    equivalence_run,
    split_init,
    standard_mask_sets,
)
from spatialgrad.scaling import from_masks


def acb_masks():
    return standard_mask_sets((3, 3), "acb")


class TestMaskValidation:
    """Branch masks are checked by ``from_masks``, which every split goes through."""

    def test_rejects_empty_mask(self):
        with pytest.raises(ValueError):
            from_masks([np.zeros((3, 3))])
        with pytest.raises(ValueError, match="mask 1 has no set position"):
            from_masks([np.ones((3, 3)), np.zeros((3, 3))])

    def test_rejects_non_binary(self):
        with pytest.raises(ValueError):
            from_masks([np.full((2, 2), 0.3)])


class TestStandardMaskSets:
    def test_acb_sum_frozen(self):
        masks = acb_masks()
        assert len(masks) == 3
        np.testing.assert_array_equal(sum(masks), [[1, 2, 1], [2, 3, 2], [1, 2, 1]])

    def test_all_rectangles_3x3_enumeration(self):
        masks = standard_mask_sets((3, 3), "all_rectangles")
        # enumeration oracle: centerd odd a x b for a,b in {1,3}
        sizes = sorted(int(m.sum()) for m in masks)
        assert len(masks) == 4
        assert sizes == sorted([1 * 1, 1 * 3, 3 * 1, 3 * 3])

    def test_all_rectangles_7x7_count(self):
        masks = standard_mask_sets((7, 7), "all_rectangles")
        # odd a in {1,3,5,7} x odd b in {1,3,5,7}
        assert len(masks) == 16
        shapes = {(int(m.sum(axis=1).max()), int(m.sum(axis=0).max())) for m in masks}
        assert shapes == {(b, a) for a in (1, 3, 5, 7) for b in (1, 3, 5, 7)}

    def test_full_plus_center(self):
        masks = standard_mask_sets((5, 5), "full_plus_center")
        assert len(masks) == 2
        assert masks[1].sum() == 1 and masks[1][2, 2] == 1

    def test_random_family_full_coverage_and_determinism(self):
        a = standard_mask_sets((3, 3), "random", count=4, seed=11)
        b = standard_mask_sets((3, 3), "random", count=4, seed=11)
        assert len(a) == 5  # four random masks plus the forced full mask
        assert all(np.array_equal(x, y) for x, y in zip(a, b))
        assert np.all(sum(a) >= 1)
        c = standard_mask_sets((3, 3), "random", count=4, seed=12)
        assert any(not np.array_equal(x, y) for x, y in zip(a, c))

    def test_acb_rejects_even_kernels(self):
        with pytest.raises(ValueError):
            standard_mask_sets((2, 2), "acb")
        with pytest.raises(ValueError):
            standard_mask_sets((4, 4), "all_rectangles")

    def test_unknown_family(self):
        with pytest.raises(ValueError, match="unknown mask family"):
            standard_mask_sets((3, 3), "diagonals")


class TestSplitInit:
    def test_single_full_mask_copies_base(self):
        spec = ConvSpec(2, 2, (3, 3), padding=1)
        w = np.random.default_rng(0).normal(size=spec.weight_shape)
        conv = split_init(w, [np.ones((3, 3))], spec)
        np.testing.assert_array_equal(conv.branches[0].weights, w)

    def test_acb_split_coverage_division(self):
        spec = ConvSpec(1, 1, (3, 3), padding=1)
        w = np.ones(spec.weight_shape)
        conv = split_init(w, acb_masks(), spec)
        # coverage-division oracle: center 1/3 (within an ulp for the closing
        # branch), edges 1/2, corners 1
        full, row, col = (b.weights[0, 0] for b in conv.branches)
        assert full[0, 0] == 1.0
        assert full[0, 1] == 0.5 and full[1, 0] == 0.5
        for branch_center in (full[1, 1], row[1, 1], col[1, 1]):
            assert abs(branch_center - 1 / 3) <= 2 * np.spacing(1 / 3)
        np.testing.assert_array_equal(conv.merged_weights(), w)

    def test_merged_reconstruction_bitwise(self):
        rng = np.random.default_rng(1)
        for seed in range(10):
            spec = ConvSpec(3, 2, (3, 3), padding=1)
            w = rng.normal(size=spec.weight_shape) * 10.0 ** rng.integers(-6, 4)
            masks = standard_mask_sets((3, 3), "random", count=4, seed=seed)
            conv = split_init(w, masks, spec)
            assert np.array_equal(conv.merged_weights(), w)

    def test_uncovered_position_rejected(self):
        spec = ConvSpec(1, 1, (3, 3))
        w = np.ones(spec.weight_shape)
        partial = np.zeros((3, 3))
        partial[0, 0] = 1
        with pytest.raises(ValueError, match="not covered"):
            split_init(w, [partial], spec)

    def test_unmasked_positions_start_zero(self):
        spec = ConvSpec(2, 2, (3, 3), padding=1)
        w = np.random.default_rng(2).normal(size=spec.weight_shape)
        conv = split_init(w, acb_masks(), spec)
        for branch in conv.branches:
            assert not branch.weights[:, :, branch.mask == 0].any()


class TestBranchedForward:
    def test_single_full_mask_equals_plain_conv(self):
        rng = np.random.default_rng(3)
        spec = ConvSpec(2, 3, (3, 3), padding=1)
        w = rng.normal(size=spec.weight_shape)
        conv = split_init(w, [np.ones((3, 3))], spec)
        x = rng.normal(size=(2, 2, 6, 6))
        np.testing.assert_array_equal(branched_forward(conv, x), conv_forward(x, w, spec))

    def test_branch_sum_equals_merged_conv(self):
        rng = np.random.default_rng(4)
        spec = ConvSpec(2, 3, (3, 3), padding=1)
        w = rng.normal(size=spec.weight_shape)
        conv = split_init(w, acb_masks(), spec)
        x = rng.normal(size=(2, 2, 6, 6))
        merged_out = conv_forward(x, conv.merged_weights(), spec)
        branch_out = branched_forward(conv, x)
        scale = np.abs(merged_out).max()
        assert np.abs(branch_out - merged_out).max() / scale < 1e-12

    def test_zero_branches_give_zero_output(self):
        spec = ConvSpec(1, 1, (3, 3), padding=1)
        conv = BranchedConv(
            branches=[type(b)(mask=b.mask, weights=np.zeros(spec.weight_shape))
                      for b in split_init(np.ones(spec.weight_shape), acb_masks(), spec).branches],
            spec=spec,
        )
        assert not branched_forward(conv, np.ones((1, 1, 4, 4))).any()


class TestBranchedBackwardStep:
    def test_single_full_mask_matches_plain_sgd(self):
        rng = np.random.default_rng(5)
        spec = ConvSpec(2, 2, (3, 3), padding=1)
        w = rng.normal(size=spec.weight_shape)
        x = rng.normal(size=(2, 2, 5, 5))
        dy = rng.normal(size=(2, 2, 5, 5))
        cfg = OptimizerConfig(kind="sgd")

        conv = split_init(w, [np.ones((3, 3))], spec)
        branched_backward_step(conv, x, dy, [make_state(cfg, w)], lr=0.1)

        from spatialgrad.conv import conv_backward_weights
        from spatialgrad.optim import step

        expected = step(make_state(cfg, w), w, conv_backward_weights(dy, x, spec), lr=0.1)
        np.testing.assert_array_equal(conv.merged_weights(), expected)

    def test_single_step_merged_change_is_coverage_scaled(self):
        """One plain sgd step changes the merged weights by -lr * (sum M) * g."""
        rng = np.random.default_rng(6)
        spec = ConvSpec(1, 2, (3, 3), padding=1)
        w = rng.normal(size=spec.weight_shape)
        x = rng.normal(size=(1, 1, 5, 5))
        dy = rng.normal(size=(1, 2, 5, 5))
        cfg = OptimizerConfig(kind="sgd")
        masks = acb_masks()
        conv = split_init(w, masks, spec)
        states = [make_state(cfg, w) for _ in masks]
        branched_backward_step(conv, x, dy, states, lr=0.1)

        from spatialgrad.conv import conv_backward_weights

        g = conv_backward_weights(dy, x, spec)
        expected = w - 0.1 * sum(masks) * g
        np.testing.assert_allclose(conv.merged_weights(), expected, rtol=1e-12, atol=1e-15)

    def test_zero_dy_no_change(self):
        rng = np.random.default_rng(7)
        spec = ConvSpec(1, 1, (3, 3), padding=1)
        w = rng.normal(size=spec.weight_shape)
        conv = split_init(w, acb_masks(), spec)
        before = [b.weights.copy() for b in conv.branches]
        states = [make_state(OptimizerConfig(kind="sgd"), w) for _ in conv.branches]
        branched_backward_step(conv, np.ones((1, 1, 5, 5)), np.zeros((1, 1, 5, 5)), states, lr=0.1)
        for prev, branch in zip(before, conv.branches):
            np.testing.assert_array_equal(branch.weights, prev)

    def test_frozen_positions_stay_zero(self):
        rng = np.random.default_rng(8)
        spec = ConvSpec(2, 2, (3, 3), padding=1)
        w = rng.normal(size=spec.weight_shape)
        masks = acb_masks()
        conv = split_init(w, masks, spec)
        cfg = OptimizerConfig(kind="sgd_momentum", momentum=0.9, weight_decay=1e-4)
        states = [make_state(cfg, w) for _ in masks]
        for _ in range(10):
            x = rng.normal(size=(2, 2, 5, 5))
            dy = rng.normal(size=(2, 2, 5, 5))
            branched_backward_step(conv, x, dy, states, lr=0.05)
        for branch in conv.branches:
            assert not branch.weights[:, :, branch.mask == 0].any()


class TestEquivalenceRun:
    def test_full_mask_degenerate_case(self):
        report = equivalence_run([np.ones((3, 3))], OptimizerConfig(kind="sgd"),
                                 steps=25, seed=0)
        assert report.linear_guarantee
        assert report.max_divergence <= 1e-12

    def test_acb_sgd_50_steps(self):
        report = equivalence_run(acb_masks(), OptimizerConfig(kind="sgd"),
                                 steps=50, seed=1, lr=0.1)
        assert report.max_divergence < 1e-10

    def test_momentum_weight_decay_100_steps(self):
        cfg = OptimizerConfig(kind="sgd_momentum", momentum=0.9, weight_decay=1e-4)
        report = equivalence_run(acb_masks(), cfg, steps=100, seed=2)
        assert report.max_divergence < 1e-8

    def test_nonlinear_optimizer_flagged(self):
        report = equivalence_run(acb_masks(), OptimizerConfig(kind="adam"), steps=5, seed=0)
        assert not report.linear_guarantee
        assert report.optimizer_kind == "adam"

    @pytest.mark.parametrize("kwargs", [{"steps": 0}, {"lr": 0.0}, {"lr": -0.05},
                                        {"kernel": (4, 4)}, {"kernel": (3, 5)},
                                        {"kernel": (-1, -1)}])
    def test_rejects_bad_run_arguments(self, kwargs):
        args = {"steps": 5, "seed": 0, **kwargs}
        with pytest.raises(ValueError, match="must be"):
            equivalence_run(acb_masks(), OptimizerConfig(kind="sgd"), **args)

    @pytest.mark.slow
    def test_lemma_property_random_mask_sets(self):
        """Twenty random full-coverage mask sets stay in lockstep for 100 steps."""
        worst = 0.0
        for seed in range(20):
            kernel = (3, 3) if seed % 2 == 0 else (7, 7)
            masks = standard_mask_sets(kernel, "random", count=3, seed=seed)
            cfg = [
                OptimizerConfig(kind="sgd"),
                OptimizerConfig(kind="sgd", weight_decay=1e-4),
                OptimizerConfig(kind="sgd_momentum", momentum=0.9),
                OptimizerConfig(kind="sgd_momentum", momentum=0.9, weight_decay=1e-4),
            ][seed % 4]
            report = equivalence_run(masks, cfg, steps=100, seed=seed, kernel=kernel)
            worst = max(worst, report.max_divergence)
        assert worst <= 1e-8
