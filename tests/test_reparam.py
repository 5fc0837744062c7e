import numpy as np
import pytest

from spatialgrad.conv import ConvSpec, conv_backward_input, conv_forward, im2col
from spatialgrad.optim import OptimizerConfig, make_state
from spatialgrad.reparam import (
    MASK_FAMILIES,
    BranchedConv,
    branched_backward_input,
    branched_backward_step,
    branched_forward,
    equivalence_run,
    split_init,
    standard_mask_sets,
)
from spatialgrad.scaling import from_masks


def acb_masks():
    return standard_mask_sets((3, 3), "acb")


def count_window_matrices(monkeypatch):
    """Record the spec of every ``conv._im2col`` call, the one builder of window matrices."""
    import spatialgrad.conv as conv_mod

    built = []
    build = conv_mod._im2col

    def counting_im2col(x, spec):
        built.append(spec)
        return build(x, spec)

    monkeypatch.setattr(conv_mod, "_im2col", counting_im2col)
    return built


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

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("family", MASK_FAMILIES)
    def test_split_follows_its_definition(self, family, dtype):
        # Per position: the equal share while a later mask still covers it, the
        # complement of the ordered sum of the earlier branches at its last
        # covering branch, and zero where the branch's mask is off.
        kernel = (5, 5)
        spec = ConvSpec(2, 3, kernel, padding=2)
        rng = np.random.default_rng(7)
        masks = standard_mask_sets(kernel, family, **({"count": 4} if family == "random" else {}))
        for scale in (1e-3, 1.0, 1e3):
            w = (rng.normal(size=spec.weight_shape) * scale).astype(dtype)
            conv = split_init(w, masks, spec)
            share = w / sum(masks).astype(dtype)
            partial = np.zeros_like(w)
            for n, (m, branch) in enumerate(zip(masks, conv.branches)):
                covered = m > 0
                later = np.zeros(kernel, dtype=bool)
                for after in masks[n + 1:]:
                    later |= after > 0
                weights = branch.weights
                assert weights.dtype == dtype
                shared, last = covered & later, covered & ~later
                assert weights[:, :, shared].tobytes() == share[:, :, shared].tobytes()
                assert weights[:, :, last].tobytes() == (w - partial)[:, :, last].tobytes()
                assert not weights[:, :, ~covered].any()
                partial += branch.mask * weights
            assert partial.tobytes() == w.tobytes()

    @pytest.mark.parametrize("kernel", [3, 5, 7])
    @pytest.mark.parametrize("family", MASK_FAMILIES)
    def test_float32_split_is_exact_and_stays_float32(self, family, kernel):
        spec = ConvSpec(2, 3, (kernel, kernel), padding=kernel // 2)
        rng = np.random.default_rng(kernel)
        masks = standard_mask_sets((kernel, kernel), family)
        for scale in 10.0 ** np.arange(-3, 4):
            w = (rng.normal(size=spec.weight_shape) * scale).astype(np.float32)
            conv = split_init(w, masks, spec)
            assert np.array_equal(conv.merged_weights(), w)
            for branch in conv.branches:
                assert branch.mask.dtype == branch.weights.dtype == np.float32
        x = rng.normal(size=(2, 2, 6, 6)).astype(np.float32)
        cols = im2col(x, spec)
        y = branched_forward(conv, cols)
        dx = branched_backward_input(conv, y, (6, 6))
        states = [make_state(OptimizerConfig(kind="sgd_momentum"), branch.weights)
                  for branch in conv.branches]
        branched_backward_step(conv, cols, y, states, lr=0.1)
        assert y.dtype == dx.dtype == np.float32
        assert all(branch.weights.dtype == np.float32 for branch in conv.branches)


class TestBranchedForward:
    def test_single_full_mask_equals_plain_conv(self):
        rng = np.random.default_rng(3)
        spec = ConvSpec(2, 3, (3, 3), padding=1)
        w = rng.normal(size=spec.weight_shape)
        conv = split_init(w, [np.ones((3, 3))], spec)
        x = rng.normal(size=(2, 2, 6, 6))
        np.testing.assert_array_equal(branched_forward(conv, im2col(x, spec)),
                                      conv_forward(im2col(x, spec), w, spec))

    def test_branch_sum_equals_merged_conv(self):
        rng = np.random.default_rng(4)
        spec = ConvSpec(2, 3, (3, 3), padding=1)
        w = rng.normal(size=spec.weight_shape)
        conv = split_init(w, acb_masks(), spec)
        x = rng.normal(size=(2, 2, 6, 6))
        merged_out = conv_forward(im2col(x, spec), conv.merged_weights(), spec)
        branch_out = branched_forward(conv, im2col(x, spec))
        scale = np.abs(merged_out).max()
        assert np.abs(branch_out - merged_out).max() / scale < 1e-12

    def test_zero_branches_give_zero_output(self):
        spec = ConvSpec(1, 1, (3, 3), padding=1)
        conv = BranchedConv(
            branches=[type(b)(mask=b.mask, weights=np.zeros(spec.weight_shape))
                      for b in split_init(np.ones(spec.weight_shape), acb_masks(), spec).branches],
            spec=spec,
        )
        x = np.ones((1, 1, 4, 4))
        assert not branched_forward(conv, im2col(x, spec)).any()

    def test_branches_share_one_window_matrix(self, monkeypatch):
        import spatialgrad.reparam as reparam_mod

        built = []

        def counting_im2col(x, spec):
            built.append(spec)
            return im2col(x, spec)

        monkeypatch.setattr(reparam_mod, "im2col", counting_im2col)
        rng = np.random.default_rng(5)
        spec = ConvSpec(2, 3, (3, 3), padding=1)
        conv = split_init(rng.normal(size=spec.weight_shape), acb_masks(), spec)
        x = rng.normal(size=(2, 2, 6, 6))
        cols = im2col(x, spec)
        out = branched_forward(conv, cols)
        assert built == []
        expected = None
        for b in conv.branches:
            y = conv_forward(im2col(x, spec), b.mask * b.weights, spec)
            expected = y if expected is None else expected + y
        np.testing.assert_array_equal(out, expected)


class TestBranchedBackwardInput:
    """One dY window matrix per call, shared by the branches' own calls and GEMMs."""

    @staticmethod
    def branch_sum(conv, dy, input_hw):
        expected = None
        for b in conv.branches:
            dx = conv_backward_input(dy, b.mask * b.weights, conv.spec, input_hw)
            expected = dx if expected is None else expected + dx
        return expected

    @pytest.mark.parametrize("spec,grad_spec", [
        (ConvSpec(3, 2, (3, 3), padding=1), ConvSpec(2, 3, (3, 3))),
        (ConvSpec(2, 3, (3, 3), padding=1), ConvSpec(3, 2, (1, 3))),
    ], ids=["gather", "row"])
    @pytest.mark.parametrize("masks", [
        acb_masks(),
        standard_mask_sets((3, 3), "random", count=4, seed=1),
    ], ids=["acb", "random5"])
    def test_one_window_matrix_shared_by_every_branch(self, masks, spec, grad_spec,
                                                      monkeypatch):
        import spatialgrad.reparam as reparam_mod

        rng = np.random.default_rng(9)
        conv = split_init(rng.normal(size=spec.weight_shape), masks, spec)
        dy = rng.normal(size=(2, spec.out_channels, 6, 5))
        expected = self.branch_sum(conv, dy, (6, 5))

        calls = []

        def counting_backward_input(*args, **kwargs):
            calls.append(kwargs["cols"])
            return conv_backward_input(*args, **kwargs)

        monkeypatch.setattr(reparam_mod, "conv_backward_input", counting_backward_input)
        built = count_window_matrices(monkeypatch)
        out = branched_backward_input(conv, dy, (6, 5))
        assert built == [grad_spec]
        assert len(calls) == len(masks) and all(c is calls[0] for c in calls)
        np.testing.assert_array_equal(out, expected)

    @pytest.mark.parametrize("spec", [ConvSpec(1, 4, (3, 3), padding=1),
                                      ConvSpec(3, 2, (3, 3), stride=2, padding=1)],
                             ids=["co_gt_ci_kx", "stride2"])
    def test_scatter_spec_builds_no_matrix(self, spec, monkeypatch):
        rng = np.random.default_rng(10)
        conv = split_init(rng.normal(size=spec.weight_shape), acb_masks(), spec)
        dy = rng.normal(size=(2, spec.out_channels, *spec.out_size(6, 5)))
        expected = self.branch_sum(conv, dy, (6, 5))
        built = count_window_matrices(monkeypatch)
        out = branched_backward_input(conv, dy, (6, 5))
        assert built == []
        np.testing.assert_array_equal(out, expected)


class TestBranchedBackwardStep:
    def test_single_full_mask_matches_plain_sgd(self):
        rng = np.random.default_rng(5)
        spec = ConvSpec(2, 2, (3, 3), padding=1)
        w = rng.normal(size=spec.weight_shape)
        x = rng.normal(size=(2, 2, 5, 5))
        dy = rng.normal(size=(2, 2, 5, 5))
        cfg = OptimizerConfig(kind="sgd")

        conv = split_init(w, [np.ones((3, 3))], spec)
        branched_backward_step(conv, im2col(x, spec), dy, [make_state(cfg, w)], lr=0.1)

        from spatialgrad.conv import conv_backward_weights
        from spatialgrad.optim import step

        g = conv_backward_weights(dy, im2col(x, spec), spec)
        expected = step(make_state(cfg, w), w, g, lr=0.1)
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
        branched_backward_step(conv, im2col(x, spec), dy, states, lr=0.1)

        from spatialgrad.conv import conv_backward_weights

        g = conv_backward_weights(dy, im2col(x, spec), spec)
        expected = w - 0.1 * sum(masks) * g
        np.testing.assert_allclose(conv.merged_weights(), expected, rtol=1e-12, atol=1e-15)

    def test_zero_dy_no_change(self):
        rng = np.random.default_rng(7)
        spec = ConvSpec(1, 1, (3, 3), padding=1)
        w = rng.normal(size=spec.weight_shape)
        conv = split_init(w, acb_masks(), spec)
        before = [b.weights.copy() for b in conv.branches]
        states = [make_state(OptimizerConfig(kind="sgd"), w) for _ in conv.branches]
        branched_backward_step(conv, im2col(np.ones((1, 1, 5, 5)), spec), np.zeros((1, 1, 5, 5)),
                               states, lr=0.1)
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
            branched_backward_step(conv, im2col(x, spec), dy, states, lr=0.05)
        for branch in conv.branches:
            assert not branch.weights[:, :, branch.mask == 0].any()


class TestEquivalenceRun:
    def test_full_mask_degenerate_case(self):
        cfg = OptimizerConfig(kind="sgd")
        report = equivalence_run([np.ones((3, 3))], cfg, steps=25, seed=0, kernel=(3, 3),
                                 lr=0.05)
        assert cfg.is_linear
        assert report.max_divergence <= 1e-12

    def test_acb_sgd_50_steps(self):
        report = equivalence_run(acb_masks(), OptimizerConfig(kind="sgd"),
                                 steps=50, seed=1, kernel=(3, 3), lr=0.1)
        assert report.max_divergence < 1e-10

    def test_momentum_weight_decay_100_steps(self):
        cfg = OptimizerConfig(kind="sgd_momentum", momentum=0.9, weight_decay=1e-4)
        report = equivalence_run(acb_masks(), cfg, steps=100, seed=2, kernel=(3, 3), lr=0.05)
        assert report.max_divergence < 1e-8

    def test_one_window_matrix_per_conv_input_per_step(self, monkeypatch):
        """x's matrix serves both twins' first conv; each hidden activation gets one."""
        import spatialgrad.reparam as reparam_mod

        built = []

        def counting_im2col(x, spec):
            built.append(spec)
            return im2col(x, spec)

        masks = standard_mask_sets((7, 7), "random", count=4, seed=0)
        cfg = OptimizerConfig(kind="sgd_momentum", momentum=0.9)
        expected = equivalence_run(masks, cfg, steps=10, seed=0, kernel=(7, 7), lr=0.05)
        monkeypatch.setattr(reparam_mod, "im2col", counting_im2col)
        report = equivalence_run(masks, cfg, steps=10, seed=0, kernel=(7, 7), lr=0.05)
        assert len(built) == 3 * 10
        assert [s.in_channels for s in built[:3]] == [2, 3, 3]
        assert report.max_rel == expected.max_rel and report.mean_rel == expected.mean_rel

    def test_one_dy_window_matrix_per_twin_per_step(self, monkeypatch):
        """Three conv-input matrices plus one dY matrix per twin: 50 over 10 steps, not 90."""
        masks = standard_mask_sets((7, 7), "random", count=4, seed=0)
        cfg = OptimizerConfig(kind="sgd_momentum", momentum=0.9)
        expected = equivalence_run(masks, cfg, steps=10, seed=0, kernel=(7, 7), lr=0.05)
        built = count_window_matrices(monkeypatch)
        report = equivalence_run(masks, cfg, steps=10, seed=0, kernel=(7, 7), lr=0.05)
        assert len(built) == 5 * 10
        assert built.count(ConvSpec(2, 3, (7, 7))) == 2 * 10
        assert report.max_rel == expected.max_rel and report.mean_rel == expected.mean_rel

    def test_nonlinear_optimizer_runs_every_step(self):
        cfg = OptimizerConfig(kind="adam")
        report = equivalence_run(acb_masks(), cfg, steps=5, seed=0, kernel=(3, 3), lr=0.05)
        assert not cfg.is_linear and cfg.kind == "adam"
        assert report.steps == list(range(5)) and not report.diverged_numerically

    @pytest.mark.parametrize("kwargs", [{"steps": 0}, {"lr": 0.0}, {"lr": -0.05},
                                        {"kernel": (4, 4)}, {"kernel": (3, 5)},
                                        {"kernel": (-1, -1)}])
    def test_rejects_bad_run_arguments(self, kwargs):
        args = {"steps": 5, "seed": 0, "kernel": (3, 3), "lr": 0.05, **kwargs}
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
            report = equivalence_run(masks, cfg, steps=100, seed=seed, kernel=kernel, lr=0.05)
            worst = max(worst, report.max_divergence)
        assert worst <= 1e-8
