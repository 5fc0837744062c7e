from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spatialgrad.dependence import (
    BinningConfig,
    EstimatorError,
    SpatialDependenceMatrix,
    alpha_beta_scaling,
    collect_pairs,
    normalized_mi,
    spatial_dependence_autocorr,
    spatial_dependence_mi,
)


def entropy_oracle(probs):
    """Closed-form Shannon entropy in nats over explicit probabilities."""
    return float(sum(-p * np.log(p) for p in probs if p > 0))


def nmi_oracle(joint):
    joint = np.asarray(joint, dtype=float)
    p = joint / joint.sum()
    h_joint = entropy_oracle(p.ravel())
    if h_joint == 0:
        return 0.0
    h_p = entropy_oracle(p.sum(axis=1))
    h_q = entropy_oracle(p.sum(axis=0))
    return (h_p + h_q - h_joint) / h_joint


class TestCollectPairs:
    def test_zero_displacement_mass_on_diagonal(self):
        rng = np.random.default_rng(0)
        fm = rng.uniform(size=(2, 3, 6, 6))
        joint = collect_pairs([fm], (0, 0), BinningConfig(bins=8))
        off_diag = joint - np.diag(np.diag(joint))
        assert not off_diag.any()
        assert joint.sum() == 2 * 3 * 6 * 6

    def test_hand_enumerated_example(self):
        # map [[0,1],[0,1]], displacement (0,1): valid pairs are (0,1) twice
        fm = np.array([[0.0, 1.0], [0.0, 1.0]]).reshape(1, 1, 2, 2)
        joint = collect_pairs([fm], (0, 1), BinningConfig(bins=2, value_range=(0.0, 1.0)))
        np.testing.assert_array_equal(joint, [[0.0, 2.0], [0.0, 0.0]])

    def test_constant_map_with_filter_is_empty(self):
        fm = np.full((1, 1, 4, 4), 0.5)
        cfg = BinningConfig(bins=4, value_range=(0.0, 1.0), redundancy_filter=0.01)
        with pytest.raises(EstimatorError, match="redundancy"):
            collect_pairs([fm], (0, 1), cfg)

    def test_filter_drops_near_pairs_only(self):
        fm = np.array([[0.0, 0.05, 1.0, 0.0]]).reshape(1, 1, 1, 4)
        cfg = BinningConfig(bins=2, value_range=(0.0, 1.0), redundancy_filter=0.1)
        # pairs: (0,0.05) dropped, (0.05,1) kept, (1,0) kept
        joint = collect_pairs([fm], (0, 1), cfg)
        assert joint.sum() == 2

    def test_displacement_exceeding_extent(self):
        fm = np.zeros((1, 1, 3, 3))
        with pytest.raises(EstimatorError, match="exceeds"):
            collect_pairs([fm], (3, 0), BinningConfig())

    def test_aggregates_across_maps(self):
        fm = np.array([[0.0, 1.0]]).reshape(1, 1, 1, 2)
        cfg = BinningConfig(bins=2, value_range=(0.0, 1.0))
        one = collect_pairs([fm], (0, 1), cfg)
        three = collect_pairs([fm, fm, fm], (0, 1), cfg)
        np.testing.assert_array_equal(three, 3 * one)

    def test_auto_filter_threshold_is_one_bin(self):
        fm = np.array([[0.0, 0.2, 0.9]]).reshape(1, 1, 1, 3)
        cfg = BinningConfig(bins=4, value_range=(0.0, 0.9), redundancy_filter="auto")
        # bin width 0.225: pair (0, 0.2) dropped, (0.2, 0.9) kept
        joint = collect_pairs([fm], (0, 1), cfg)
        assert joint.sum() == 1


class TestNormalizedMI:
    def test_perfect_dependence_frozen(self):
        joint = np.array([[0.5, 0.0], [0.0, 0.5]])
        # closed-form: H(P)=H(Q)=H(PQ)=ln 2 -> (2ln2 - ln2)/ln2 = 1
        assert nmi_oracle(joint) == pytest.approx(1.0, abs=1e-15)
        assert normalized_mi(joint) == pytest.approx(1.0, abs=1e-12)

    def test_uniform_product_frozen(self):
        joint = np.full((2, 2), 0.25)
        # H(P)=H(Q)=ln2, H(PQ)=2ln2 -> 0
        assert nmi_oracle(joint) == pytest.approx(0.0, abs=1e-15)
        assert normalized_mi(joint) == pytest.approx(0.0, abs=1e-12)

    def test_single_cell_convention(self):
        joint = np.zeros((4, 4))
        joint[2, 1] = 17
        assert normalized_mi(joint) == 0.0

    def test_matches_closed_form_on_random_joints(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            joint = rng.integers(0, 50, size=(5, 5)).astype(float)
            if joint.sum() == 0:
                continue
            assert normalized_mi(joint) == pytest.approx(
                np.clip(nmi_oracle(joint), 0, 1), abs=1e-12)

    def test_empty_histogram_errors(self):
        with pytest.raises(ValueError):
            normalized_mi(np.zeros((3, 3)))
        with pytest.raises(ValueError):
            normalized_mi(np.array([[1.0, -1.0], [1.0, 1.0]]))

    @given(st.integers(0, 100_000))
    @settings(max_examples=60, deadline=None)
    def test_symmetric_under_transpose(self, seed):
        rng = np.random.default_rng(seed)
        joint = rng.integers(0, 20, size=(4, 4)).astype(float)
        joint[0, 0] += 1  # never empty
        assert normalized_mi(joint) == pytest.approx(normalized_mi(joint.T), abs=1e-12)

    @given(st.integers(0, 100_000))
    @settings(max_examples=60, deadline=None)
    def test_bounded(self, seed):
        rng = np.random.default_rng(seed)
        joint = rng.integers(0, 30, size=(3, 5)).astype(float)
        joint[1, 1] += 1
        assert 0.0 <= normalized_mi(joint) <= 1.0


class TestSpatialDependenceMI:
    def test_center_is_one_on_nonconstant_maps(self):
        rng = np.random.default_rng(2)
        maps = [rng.normal(size=(4, 2, 8, 8))]
        s = spatial_dependence_mi(maps, (3, 3), BinningConfig(bins=16))
        assert s.values[1, 1] == 1.0

    def test_iid_noise_off_center_low(self):
        rng = np.random.default_rng(3)
        # 4*4*30*30 = 14400 per map, 8 maps > 1e5 pairs
        maps = [rng.normal(size=(4, 4, 30, 30)) for _ in range(8)]
        s = spatial_dependence_mi(maps, (3, 3), BinningConfig(bins=32))
        off = np.delete(s.values.ravel(), 4)
        assert off.max() < 0.05

    def test_row_constant_field_favors_horizontal(self):
        # each row holds one random level: moving along a row keeps the value,
        # moving across rows decorrelates completely
        rng = np.random.default_rng(4)
        rows = rng.normal(size=(8, 1, 40, 1))
        maps = [np.broadcast_to(rows, (8, 1, 40, 40)).copy()]
        s = spatial_dependence_mi(maps, (3, 3), BinningConfig(bins=16))
        horizontal = (s.values[1, 0] + s.values[1, 2]) / 2
        vertical = (s.values[0, 1] + s.values[2, 1]) / 2
        assert horizontal > vertical + 0.5

    def test_constant_maps_give_zero(self):
        maps = [np.full((2, 1, 6, 6), 3.0)]
        s = spatial_dependence_mi(maps, (3, 3), BinningConfig(bins=8))
        np.testing.assert_array_equal(s.values, np.zeros((3, 3)))

    def test_filter_never_empties_center(self):
        rng = np.random.default_rng(5)
        maps = [rng.uniform(size=(2, 2, 10, 10))]
        cfg = BinningConfig(bins=8, redundancy_filter="auto")
        s = spatial_dependence_mi(maps, (3, 3), cfg)
        assert s.values[1, 1] == 1.0

    def test_even_kernel_has_no_forced_entries(self):
        rng = np.random.default_rng(6)
        maps = [rng.normal(size=(2, 2, 10, 10))]
        s = spatial_dependence_mi(maps, (2, 2), BinningConfig(bins=8))
        assert s.values.shape == (2, 2)
        # displacement (0,0) sits at entry (1,1) for a 2x2 kernel
        assert s.values[1, 1] == 1.0

    def test_convergence_with_sample_count(self):
        maps5 = [synth_field(200_000, seed=7)]
        maps6 = [synth_field(2_000_000, seed=7)]
        s5 = spatial_dependence_mi(maps5, (3, 3), BinningConfig(bins=32))
        s6 = spatial_dependence_mi(maps6, (3, 3), BinningConfig(bins=32))
        assert np.abs(s5.values - s6.values).max() < 0.02


def tied_maps(seed):
    """Two ReLU'd, coarsely rounded batches: many zeros and many tied values."""
    rng = np.random.default_rng(seed)
    return [np.round(np.maximum(rng.normal(size=shape), 0.0), 1)
            for shape in ((3, 2, 9, 8), (2, 2, 9, 8))]


def collect_pairs_rebuild(maps, kernel, cfg):
    """The MI matrix from one collect_pairs call per displacement, filter off at (0, 0)."""
    kx, ky = kernel
    cfg = replace(cfg, value_range=(min(float(m.min()) for m in maps),
                                    max(float(m.max()) for m in maps)))
    center = replace(cfg, redundancy_filter=None)
    return np.array([[normalized_mi(collect_pairs(
        maps, (a - kx // 2, b - ky // 2), center if (a, b) == (kx // 2, ky // 2) else cfg))
        for b in range(ky)] for a in range(kx)])


class TestEstimatorEqualsCollectPairs:
    """The estimator is bitwise a per-displacement collect_pairs rebuild."""

    @pytest.mark.parametrize("kernel", [(3, 3), (7, 7), (5, 3), (4, 4), (2, 1)])
    @pytest.mark.parametrize("redundancy_filter", [None, "auto", 0.3])
    def test_matches_rebuild(self, kernel, redundancy_filter):
        maps = tied_maps(sum(kernel))
        cfg = BinningConfig(bins=8, redundancy_filter=redundancy_filter)
        fast = spatial_dependence_mi(maps, kernel, cfg).values
        assert np.array_equal(fast, collect_pairs_rebuild(maps, kernel, cfg))

    @pytest.mark.parametrize("redundancy_filter", [None, "auto", 0.3])
    def test_mirrored_displacement_is_the_transpose(self, redundancy_filter):
        maps = tied_maps(11)
        cfg = BinningConfig(bins=8, value_range=(0.0, 3.0),
                            redundancy_filter=redundancy_filter)
        for i, j in [(0, 1), (1, 0), (1, 2), (-2, 1), (3, -3)]:
            joint = collect_pairs(maps, (i, j), cfg)
            assert np.array_equal(joint, collect_pairs(maps, (-i, -j), cfg).T)


def synth_field(target_pairs, seed):
    """Smoothed-noise field holding roughly target_pairs pixels."""
    from spatialgrad.data import synth_correlated_field

    side = int(np.sqrt(target_pairs / 4))
    return synth_correlated_field((4, 1, side, side), 2, seed)


class TestSpatialDependenceAutocorr:
    def test_center_is_one(self):
        rng = np.random.default_rng(8)
        s = spatial_dependence_autocorr([rng.normal(size=(2, 2, 10, 10))], (3, 3))
        assert s.values[1, 1] == pytest.approx(1.0, abs=1e-12)

    def test_iid_noise_low_off_center(self):
        rng = np.random.default_rng(9)
        maps = [rng.normal(size=(4, 4, 30, 30)) for _ in range(8)]
        s = spatial_dependence_autocorr(maps, (3, 3))
        off = np.delete(s.values.ravel(), 4)
        assert off.max() < 0.05

    def test_anticorrelated_scores_one(self):
        # per-row random level with alternating column sign: the (0, 1)
        # neighbour is exactly -p, the (0, 2) neighbour exactly +p
        rng = np.random.default_rng(10)
        levels = rng.normal(size=(1, 1, 20, 1))
        signs = (-1.0) ** np.arange(10)
        fm = levels * signs
        s = spatial_dependence_autocorr([fm], (1, 3))
        assert s.values[0, 0] == pytest.approx(1.0, abs=1e-10)
        assert s.values[0, 2] == pytest.approx(1.0, abs=1e-10)

    def test_zero_variance_convention(self):
        s = spatial_dependence_autocorr([np.full((1, 1, 5, 5), 2.0)], (3, 3))
        np.testing.assert_array_equal(s.values, np.zeros((3, 3)))


class TestNonFiniteMaps:
    """One NaN or inf in one map is an estimator error, never a silent all-zero matrix."""

    @staticmethod
    def maps_with(bad):
        rng = np.random.default_rng(0)
        maps = [rng.uniform(size=(2, 2, 6, 6)) for _ in range(2)]
        maps[1][1, 0, 3, 2] = bad
        return maps

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_mi_raises(self, bad):
        with pytest.raises(EstimatorError, match="non-finite"):
            spatial_dependence_mi(self.maps_with(bad), (3, 3), BinningConfig())

    @pytest.mark.parametrize("cfg", [BinningConfig(value_range=(0.0, 1.0)),
                                     BinningConfig(redundancy_filter="auto")])
    def test_mi_with_fixed_range_or_filter_raises(self, cfg):
        with pytest.raises(EstimatorError, match="non-finite"):
            spatial_dependence_mi(self.maps_with(np.nan), (3, 3), cfg)

    def test_autocorr_raises(self):
        with pytest.raises(EstimatorError, match="non-finite"):
            spatial_dependence_autocorr(self.maps_with(np.nan), (3, 3))

    def test_collect_pairs_raises(self):
        with pytest.raises(EstimatorError, match="non-finite"):
            collect_pairs(self.maps_with(np.nan), (0, 1), BinningConfig(value_range=(0.0, 1.0)))


class TestAlphaBetaScaling:
    def test_uniform_case(self):
        np.testing.assert_allclose(alpha_beta_scaling(1.0, 1.0).values, np.ones((3, 3)),
                                   rtol=1e-15)

    def test_frozen_example_alpha2_beta4(self):
        m = alpha_beta_scaling(2.0, 4.0)
        # direct arithmetic: factor 9/(1 + 4/2 + 4/4) = 9/4
        expected = np.array([
            [0.5625, 1.125, 0.5625],
            [1.125, 2.25, 1.125],
            [0.5625, 1.125, 0.5625],
        ])
        np.testing.assert_allclose(m.values, expected, rtol=1e-15)
        assert m.values.mean() == pytest.approx(1.0, abs=1e-15)

    def test_grid_values_mean_exactly_one(self):
        grid = [0.8, 1.0, 1.25, 1.7, 5.0, 10, 100]
        for alpha in grid:
            for beta in grid:
                m = alpha_beta_scaling(alpha, beta)
                assert m.values.mean() == pytest.approx(1.0, abs=1e-12)
                assert m.values.min() > 0

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            alpha_beta_scaling(0.0, 1.0)
        with pytest.raises(ValueError):
            alpha_beta_scaling(1.0, -2.0)


class TestSpatialDependenceMatrix:
    def test_bounds_enforced(self):
        with pytest.raises(ValueError):
            SpatialDependenceMatrix(np.array([[0.5, 1.2]]))
