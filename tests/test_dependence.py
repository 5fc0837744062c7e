import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spatialgrad import dependence
from spatialgrad.data import synth_correlated_field
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
        joint = collect_pairs([fm], (0, 1), BinningConfig(bins=2))
        np.testing.assert_array_equal(joint, [[0.0, 2.0], [0.0, 0.0]])

    def test_constant_map_with_filter_is_empty(self):
        fm = np.full((1, 1, 4, 4), 0.5)
        cfg = BinningConfig(bins=4, redundancy_filter=0.01)
        with pytest.raises(EstimatorError, match="redundancy"):
            collect_pairs([fm], (0, 1), cfg)

    def test_filter_drops_near_pairs_only(self):
        fm = np.array([[0.0, 0.05, 1.0, 0.0]]).reshape(1, 1, 1, 4)
        cfg = BinningConfig(bins=2, redundancy_filter=0.1)
        # pairs: (0,0.05) dropped, (0.05,1) kept, (1,0) kept
        joint = collect_pairs([fm], (0, 1), cfg)
        assert joint.sum() == 2

    def test_displacement_exceeding_extent(self):
        fm = np.zeros((1, 1, 3, 3))
        with pytest.raises(EstimatorError, match="exceeds"):
            collect_pairs([fm], (3, 0), BinningConfig())

    def test_aggregates_across_maps(self):
        fm = np.array([[0.0, 1.0]]).reshape(1, 1, 1, 2)
        cfg = BinningConfig(bins=2)
        one = collect_pairs([fm], (0, 1), cfg)
        three = collect_pairs([fm, fm, fm], (0, 1), cfg)
        np.testing.assert_array_equal(three, 3 * one)

    def test_auto_filter_threshold_is_one_bin(self):
        fm = np.array([[0.0, 0.2, 0.9]]).reshape(1, 1, 1, 3)
        cfg = BinningConfig(bins=4, redundancy_filter="auto")
        # bin width 0.225: pair (0, 0.2) dropped, (0.2, 0.9) kept
        joint = collect_pairs([fm], (0, 1), cfg)
        assert joint.sum() == 1

    def test_pixel_far_above_the_rest_lands_alone_in_the_last_bin(self):
        # Pooled range (0, 1e18): 0 and 0.5 share the first bin, and 1e18,
        # scaled exactly to bins, is clipped into the last.
        fm = np.array([[0.0, 0.5, 1e18]]).reshape(1, 1, 1, 3)
        joint = collect_pairs([fm], (0, 1), BinningConfig(bins=16))
        expected = np.zeros((16, 16))
        expected[0, 0] = 1  # (0, 0.5)
        expected[0, 15] = 1  # (0.5, 1e18)
        np.testing.assert_array_equal(joint, expected)

    def test_kept_pairs_fill_the_last_cell(self):
        # Pairs: (0.76, 1.0) kept in cell (3, 3), the last of bins**2;
        # (1.0, 0.95) dropped from that same cell; (0.95, 0.0) kept in (3, 0);
        # (0.0, 0.05) dropped from cell (0, 0). A dropped pair's code lies at
        # or past bins**2, so an off-by-one there or in the kept cells moves or
        # loses a count of the last cell.
        fm = np.array([[0.76, 1.0, 0.95, 0.0, 0.05]]).reshape(1, 1, 1, 5)
        cfg = BinningConfig(bins=4, redundancy_filter=0.1)
        expected = np.zeros((4, 4))
        expected[3, 3] = expected[3, 0] = 1
        joint = collect_pairs([fm], (0, 1), cfg)
        np.testing.assert_array_equal(joint, expected)
        np.testing.assert_array_equal(joint, naive_joint([fm], (0, 1), cfg))

    @pytest.mark.parametrize("threshold", [np.nan, np.inf, -np.inf])
    def test_non_finite_filter_threshold_is_rejected(self, threshold):
        with pytest.raises(ValueError, match="finite"):
            BinningConfig(redundancy_filter=threshold)


class TestBinIndices:
    def test_values_far_outside_a_fixed_range_land_in_the_edge_bins(self):
        idx = dependence._bin_indices(np.array([1e18, 1e300, -1e18, -1e300]), 0.0, 1.0, 32)
        np.testing.assert_array_equal(idx, [31, 31, 0, 0])

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_indices_that_fit_an_int64_are_cast_then_clipped(self, dtype):
        # Clipping the scaled value before the cast moves no index whose
        # scaled value fits an int64.
        rng = np.random.default_rng(4)
        values = np.concatenate([rng.uniform(-3.0, 4.0, size=500), [0.2, 1.5, 1e15, -1e15],
                                 np.linspace(0.2, 1.5, 81)]).astype(dtype)
        scaled = (values - 0.2) * (8 / (1.5 - 0.2))
        np.testing.assert_array_equal(dependence._bin_indices(values, 0.2, 1.5, 8),
                                      np.clip(scaled.astype(np.int64), 0, 7))


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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_counts_raise(self, bad):
        with pytest.raises(ValueError, match="finite"):
            normalized_mi(np.array([[1.0, bad], [1.0, 1.0]]))

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


def values_or_error(call, *args):
    """call(*args), or the message of the EstimatorError it raised."""
    try:
        return call(*args)
    except EstimatorError as err:
        return str(err)


def collect_pairs_rebuild(maps, kernel, cfg):
    """The MI matrix from one collect_pairs call per displacement, filter off at (0, 0)."""
    kx, ky = kernel
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
        maps = [np.minimum(fm, 3.0) for fm in tied_maps(11)]  # pooled range (0, 3)
        cfg = BinningConfig(bins=8, redundancy_filter=redundancy_filter)
        for i, j in [(0, 1), (1, 0), (1, 2), (-2, 1), (3, -3)]:
            joint = collect_pairs(maps, (i, j), cfg)
            assert np.array_equal(joint, collect_pairs(maps, (-i, -j), cfg).T)


def mixed_maps(seed):
    """Tied batches of 6, 10 and 4 planes on 9x8, 7x10 and 6x6 grids."""
    rng = np.random.default_rng(seed)
    return [np.round(np.maximum(rng.normal(size=shape), 0.0), 1)
            for shape in ((3, 2, 9, 8), (5, 2, 7, 10), (2, 2, 6, 6))]


class TestBlockBoundaries:
    """Where the block loop cuts a map never changes a count."""

    # 1 value: one plane per block. 288 values: 4 of the 72- and 70-value
    # planes, so neither the 6- nor the 10-plane map divides into blocks.
    # 10**6 values: every map in one block.
    @pytest.mark.parametrize("block_values", [1, 288, 10**6])
    @pytest.mark.parametrize("kernel", [(3, 3), (7, 7), (5, 3), (2, 1)])
    @pytest.mark.parametrize("redundancy_filter", [None, "auto", 0.3])
    def test_matches_rebuild(self, monkeypatch, block_values, kernel, redundancy_filter):
        monkeypatch.setattr(dependence, "_BLOCK_VALUES", block_values)
        maps = mixed_maps(sum(kernel))
        cfg = BinningConfig(bins=8, redundancy_filter=redundancy_filter)
        fast = spatial_dependence_mi(maps, kernel, cfg).values
        assert np.array_equal(fast, collect_pairs_rebuild(maps, kernel, cfg))

    @given(block_values=st.integers(1, 400), seed=st.integers(0, 2**32 - 1),
           batches=st.lists(st.tuples(st.integers(1, 4), st.integers(4, 9), st.integers(4, 9)),
                            min_size=1, max_size=3),
           kernel=st.tuples(st.integers(1, 7), st.integers(1, 7)),
           redundancy_filter=st.one_of(st.none(), st.just("auto"), st.floats(0.05, 0.5)))
    @settings(max_examples=60, deadline=None)
    def test_any_block_size_matches_rebuild(self, block_values, seed, batches, kernel,
                                            redundancy_filter):
        rng = np.random.default_rng(seed)
        maps = [np.round(rng.uniform(size=(n, 2, h, w)), 1) for n, h, w in batches]
        cfg = BinningConfig(bins=6, redundancy_filter=redundancy_filter)
        original = dependence._BLOCK_VALUES
        dependence._BLOCK_VALUES = block_values
        try:
            fast = values_or_error(lambda: spatial_dependence_mi(maps, kernel, cfg).values)
        finally:
            dependence._BLOCK_VALUES = original
        # A filter can empty some displacement: both then name the same first one.
        assert np.array_equal(fast, values_or_error(collect_pairs_rebuild, maps, kernel, cfg))


def naive_joint(maps, displacement, cfg):
    """collect_pairs from whole-map pair copies, each copy filtered and binned on its own.

    Shares no code with the estimator: the pooled range, the pair slices, the
    filter threshold and the binning are written out here.
    """
    i, j = displacement
    lo, hi = min(float(fm.min()) for fm in maps), max(float(fm.max()) for fm in maps)
    delta = (hi - lo) / cfg.bins if cfg.redundancy_filter == "auto" else cfg.redundancy_filter

    def bin_index(values):
        if hi <= lo:
            return np.zeros(values.shape, dtype=np.int64)
        return np.clip(((values - lo) * (cfg.bins / (hi - lo))).astype(np.int64), 0, cfg.bins - 1)

    counts = np.zeros(cfg.bins * cfg.bins, dtype=np.int64)
    for fm in maps:
        h, w = fm.shape[2:]
        p = fm[:, :, max(0, -i) : h - max(0, i), max(0, -j) : w - max(0, j)].ravel()
        q = fm[:, :, max(0, i) : h + min(0, i), max(0, j) : w + min(0, j)].ravel()
        if delta is not None:
            keep = np.abs(p - q) >= delta
            p, q = p[keep], q[keep]
        counts += np.bincount(bin_index(p) * cfg.bins + bin_index(q), minlength=cfg.bins ** 2)
    return counts.reshape(cfg.bins, cfg.bins).astype(np.float64)


class TestCollectPairsEqualsNaiveJoint:
    """collect_pairs counts through the block loop; every joint is bitwise the naive one."""

    # The smallest mixed map is 6x6, so |i| and |j| reach h - 1 = 5.
    DISPLACEMENTS = [(0, 1), (1, 0), (-2, 3), (3, -4), (5, -5), (-5, 5)]

    @pytest.mark.parametrize("block_values", [1, 288, 10**6])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("redundancy_filter", [None, "auto", 0.3])
    @pytest.mark.parametrize("value_range", [None, (0.2, 1.5)])
    def test_matches_naive_joint(self, monkeypatch, block_values, dtype, redundancy_filter,
                                 value_range):
        monkeypatch.setattr(dependence, "_BLOCK_VALUES", block_values)
        maps = mixed_maps(3)
        if value_range is not None:
            # Maps clipped at both ends put many values exactly on both edges
            # of their pooled range, in the first and the last bin.
            assert min(fm.min() for fm in maps) < 0.2 and max(fm.max() for fm in maps) > 1.5
            maps = [np.clip(fm, *value_range) for fm in maps]
        maps = [fm.astype(dtype) for fm in maps]
        # The pooled range puts the data maximum exactly on its upper edge, in the last bin.
        cfg = BinningConfig(bins=8, redundancy_filter=redundancy_filter)
        displacements = self.DISPLACEMENTS + ([(0, 0)] if redundancy_filter is None else [])
        for d in displacements:
            assert np.array_equal(collect_pairs(maps, d, cfg), naive_joint(maps, d, cfg)), d

    # 1-row planes (1x9, 1x5), 1-column planes (9x1, 4x1) and non-square
    # ones (3x11, 5x2), each with a kernel whose displacements fit them all.
    LAYOUTS = {"one_row": ([(3, 2, 1, 9), (2, 2, 1, 5)], (1, 9)),
               "one_column": ([(3, 2, 9, 1), (1, 2, 4, 1)], (7, 1)),
               "non_square": ([(2, 2, 3, 11), (3, 2, 5, 2)], (5, 3))}

    @pytest.mark.parametrize("block_values", [1, 7, 10**6])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("redundancy_filter", [None, "auto", 0.3])
    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    def test_thin_and_non_square_planes_match_naive_joint(self, monkeypatch, block_values,
                                                          dtype, redundancy_filter, layout):
        monkeypatch.setattr(dependence, "_BLOCK_VALUES", block_values)
        shapes, (kx, ky) = self.LAYOUTS[layout]
        rng = np.random.default_rng(5)
        maps = [np.round(np.maximum(rng.normal(size=shape), 0.0), 1).astype(dtype)
                for shape in shapes]
        cfg = BinningConfig(bins=8, redundancy_filter=redundancy_filter)
        for i, j in dependence._displacements((kx, ky)):
            if redundancy_filter is not None and (i, j) == (0, 0):
                continue
            assert np.array_equal(collect_pairs(maps, (i, j), cfg),
                                  naive_joint(maps, (i, j), cfg)), (i, j)


class TestEstimatorErrors:
    def test_extent_checked_before_any_counting(self, monkeypatch):
        def no_binning(*args):
            raise AssertionError("a map was binned before every extent was checked")

        monkeypatch.setattr(dependence, "_bin_indices", no_binning)
        maps = [np.ones((2, 2, 9, 8)), np.ones((2, 2, 3, 5)), np.ones((1, 2, 2, 2))]
        with pytest.raises(EstimatorError, match=r"displacement \(-3, -3\) exceeds "
                                                 r"spatial extent 3x5"):
            spatial_dependence_mi(maps, (7, 7), BinningConfig())

    @pytest.mark.parametrize("maps,error", [
        ([np.ones((2, 2, 9, 8)), np.ones((2, 2, 3, 5))],
         r"displacement \(3, 0\) exceeds spatial extent 3x5"),
        ([np.ones((2, 2, 2, 2)), np.full((2, 2, 9, 8), np.nan)], "feature map 1 holds non-finite"),
    ])
    def test_collect_pairs_checks_every_map_before_binning(self, monkeypatch, maps, error):
        def no_binning(*args):
            raise AssertionError("a map was binned before every map and extent was checked")

        monkeypatch.setattr(dependence, "_bin_indices", no_binning)
        with pytest.raises(EstimatorError, match=error):
            collect_pairs(maps, (3, 0), BinningConfig(redundancy_filter="auto"))

    @pytest.mark.parametrize("redundancy_filter,suffix", [(None, "$"),
                                                          ("auto", " after redundancy")])
    def test_empty_maps_name_the_first_displacement(self, redundancy_filter, suffix):
        maps = [np.zeros((0, 2, 6, 6))]
        cfg = BinningConfig(redundancy_filter=redundancy_filter)
        with pytest.raises(EstimatorError,
                           match=r"no pairs collected for displacement \(-1, -1\)" + suffix):
            spatial_dependence_mi(maps, (3, 3), cfg)

    def test_zero_size_maps_add_nothing_to_the_pooled_range(self):
        with pytest.raises(EstimatorError, match="no pairs collected"):
            spatial_dependence_mi([np.zeros((0, 2, 6, 6))], (3, 3), BinningConfig())
        fm = np.random.default_rng(0).uniform(size=(2, 2, 6, 6))
        cfg = BinningConfig(redundancy_filter="auto")
        with_empty = spatial_dependence_mi([np.zeros((0, 2, 6, 6)), fm], (3, 3), cfg)
        assert np.array_equal(with_empty.values, spatial_dependence_mi([fm], (3, 3), cfg).values)


def traced_peak(call, *args):
    """Peak bytes tracemalloc sees allocated during call(*args)."""
    tracemalloc.start()
    try:
        call(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestEstimatorMemory:
    @staticmethod
    def four_mib_maps():
        rng = np.random.default_rng(8)
        return [np.maximum(rng.normal(size=(32, 16, 32, 32)), 0.0) for _ in range(2)]

    def test_peak_allocation_is_a_block_not_the_maps(self):
        # Binning whole maps into int64 indices and row codes would allocate
        # twice their bytes; one block's arrays take about 1.5 MiB however
        # large the maps are.
        maps = self.four_mib_maps()
        peak = traced_peak(spatial_dependence_mi, maps, (3, 3), BinningConfig(bins=32))
        assert peak < sum(fm.nbytes for fm in maps) / 2

    def test_filtered_collect_pairs_peak_is_a_block_not_the_maps(self):
        # Copying each map's pixel and neighbour values whole, then filtering
        # and binning the copies, allocated about 2.3 times the maps' bytes.
        maps = self.four_mib_maps()
        cfg = BinningConfig(bins=32, redundancy_filter="auto")
        assert traced_peak(collect_pairs, maps, (1, 1), cfg) < sum(fm.nbytes for fm in maps) / 2

    def test_autocorr_peak_is_a_block_not_the_maps(self):
        # Concatenating a displacement's pixels and neighbours from every map
        # allocated about twice the maps' bytes.
        maps = self.four_mib_maps()
        peak = traced_peak(spatial_dependence_autocorr, maps, (3, 3))
        assert peak < sum(fm.nbytes for fm in maps) / 2

    def test_map_check_allocates_no_map_sized_mask(self):
        # A bool finiteness mask of this float32 map would take 1 MiB.
        fm = np.random.default_rng(8).normal(size=(64, 16, 32, 32)).astype(np.float32)
        assert traced_peak(dependence._check_maps, [fm]) < fm.nbytes / 16


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

    # 0.1, 1/3 and 0.7 are not reproduced exactly by the mean, so var()
    # leaves a residue of order 1e-34 on these constant maps.
    @pytest.mark.parametrize("shape", [(1, 1, 5, 5), (3, 2, 9, 7)])
    @pytest.mark.parametrize("value", [2.0, 0.1, 1 / 3, 0.7])
    def test_zero_variance_convention(self, value, shape):
        s = spatial_dependence_autocorr([np.full(shape, value)], (3, 3))
        np.testing.assert_array_equal(s.values, np.zeros((3, 3)))


def concatenated_autocorr(maps, kernel):
    """The autocorr matrix from whole-map pair copies, concatenated and taken in float64."""
    kx, ky = kernel
    values = np.zeros(kernel)
    for a in range(kx):
        for b in range(ky):
            i, j = a - kx // 2, b - ky // 2
            p = np.concatenate([fm[:, :, max(0, -i) : h - max(0, i), max(0, -j) : w - max(0, j)]
                                .ravel() for fm in maps for h, w in [fm.shape[2:]]])
            q = np.concatenate([fm[:, :, max(0, i) : h + min(0, i), max(0, j) : w + min(0, j)]
                                .ravel() for fm in maps for h, w in [fm.shape[2:]]])
            p, q = p.astype(np.float64), q.astype(np.float64)
            if p.min() == p.max() or q.min() == q.max():
                continue
            cov = ((p - p.mean()) * (q - q.mean())).mean()
            values[a, b] = min(abs(cov / np.sqrt(p.var() * q.var())), 1.0)
    return values


class TestAutocorrEqualsConcatenatedForm:
    """The blocked float64 moments agree with the concatenated float64 form to 1e-12."""

    @staticmethod
    def offset_maps(seed):
        # Correlated fields far from zero, so the moments need the mean shift.
        rng = np.random.default_rng(seed)
        maps = []
        for shape in ((3, 2, 9, 8), (5, 2, 7, 10), (2, 2, 6, 6)):
            fm = rng.normal(size=shape)
            maps.append(100.0 + fm + np.roll(fm, 1, axis=2) + 0.5 * np.roll(fm, -1, axis=3))
        return maps

    @staticmethod
    def constant_planes(seed):
        # Every plane is constant: each block's sides are constant at one
        # plane per block, the pooled sides are not.
        levels = np.random.default_rng(seed).uniform(size=(4, 3, 1, 1))
        return [np.broadcast_to(levels, (4, 3, 5, 6)).copy()]

    @pytest.mark.parametrize("block_values", [1, 288, 10**6])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("kernel", [(3, 3), (5, 3), (2, 1)])
    @pytest.mark.parametrize("maps_of", ["mixed_maps", "offset_maps", "constant_planes"])
    def test_matches_concatenated_float64(self, monkeypatch, block_values, dtype, kernel,
                                          maps_of):
        monkeypatch.setattr(dependence, "_BLOCK_VALUES", block_values)
        make = mixed_maps if maps_of == "mixed_maps" else getattr(self, maps_of)
        maps = [fm.astype(dtype) for fm in make(sum(kernel))]
        fast = spatial_dependence_autocorr(maps, kernel).values
        np.testing.assert_allclose(fast, concatenated_autocorr(maps, kernel), rtol=0, atol=1e-12)
        if kernel[0] % 2 and kernel[1] % 2:  # -d shares d's score bit for bit
            assert fast.tobytes() == fast[::-1, ::-1].tobytes()

    def test_scores_each_unordered_displacement_once(self, monkeypatch):
        fm = np.random.default_rng(3).normal(size=(2, 3, 10, 10))  # one block
        extents = []
        pair_slices = dependence._pair_slices

        def recording(extent, i, j):
            extents.append(extent)
            return pair_slices(extent, i, j)

        monkeypatch.setattr(dependence, "_pair_slices", recording)
        spatial_dependence_autocorr([fm], (7, 7))
        # The extent check passes the 10x10 grid; the block loop the [H, W, planes] block.
        assert extents.count((10, 10, 6)) == 25


_erf = np.vectorize(math.erf, otypes=[float])


def binned_normal_nmi(rho, sigma, lo, hi, bins=32, nodes=8, tail=12.0):
    """The ``bins``-bin normalized MI of a bivariate normal, by quadrature.

    Both marginals are N(0, sigma**2) with correlation ``rho`` < 1. The bins
    split [lo, hi] uniformly and the tails beyond fold into the edge bins.
    x is integrated by Gauss-Legendre over the bin edges, extended by steps of
    one bin width to ``tail`` sigmas; y's bin masses given x come from the
    conditional normal's CDF.
    """
    edges = np.linspace(lo, hi, bins + 1)
    width = edges[1] - edges[0]
    cuts = np.unique(np.concatenate([np.arange(lo, -tail * sigma, -width), edges,
                                     np.arange(hi, tail * sigma, width)]))
    t, w = np.polynomial.legendre.leggauss(nodes)
    a, b = cuts[:-1, None], cuts[1:, None]
    x = ((a + b) / 2 + (b - a) / 2 * t).ravel()
    mass = ((b - a) / 2 * w).ravel() * np.exp(-0.5 * (x / sigma) ** 2) \
        / (sigma * math.sqrt(2 * math.pi))
    rows = np.clip(np.floor((x - lo) / width), 0, bins - 1).astype(int)
    spread = sigma * math.sqrt(2 * (1 - rho * rho))
    cdf = 0.5 * (1 + _erf((edges[1:-1] - rho * x[:, None]) / spread))
    ones = np.ones((len(x), 1))
    joint = np.zeros((bins, bins))
    np.add.at(joint, rows, mass[:, None] * np.diff(np.hstack([np.zeros_like(ones), cdf, ones]), axis=1))
    return nmi_oracle(joint)


class TestKnownAnswer:
    """Both estimators against the closed form of a box-smoothed Gaussian field.

    ``synth_correlated_field`` with half-width r = 1 is white noise averaged
    over L x L boxes, L = 3. Away from the zero padding, cropped by r on each
    side, each pixel is N(0, 1/L**2), and the correlation at displacement
    (i, j) is the boxes' overlap, rho = (L - |i|)(L - |j|) / L**2, and 0
    once |i| or |j| reaches L. The MI reference is ``binned_normal_nmi`` over the
    cropped field's pooled range, as the estimator bins it. The tolerances
    are about 1.5x the largest off-centre errors over seeds 0-19 of a 7x7
    kernel: 6.5e-4 for MI, 6.8e-3 for the autocorrelation.
    """

    L = 3
    KERNEL = (7, 7)
    MI_TOLERANCE = 1e-3
    AUTOCORR_TOLERANCE = 1e-2

    @classmethod
    def field_and_rho(cls, seed):
        field = synth_correlated_field((4, 1, 402, 402), 1, seed)[:, :, 1:-1, 1:-1]
        offsets = np.abs(np.arange(cls.KERNEL[0]) - cls.KERNEL[0] // 2)
        overlap = np.maximum(cls.L - offsets, 0) / cls.L
        return field, np.outer(overlap, overlap)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_mi_matches_the_binned_bivariate_normal(self, seed):
        field, rho = self.field_and_rho(seed)
        lo, hi = float(field.min()), float(field.max())
        got = spatial_dependence_mi([field], self.KERNEL, BinningConfig(bins=32)).values
        off = rho < 1
        want = {r: binned_normal_nmi(r, 1 / self.L, lo, hi) for r in np.unique(rho[off])}
        assert got[~off].tolist() == [1.0]
        np.testing.assert_allclose(got[off], [want[r] for r in rho[off]],
                                   rtol=0, atol=self.MI_TOLERANCE)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_autocorr_matches_the_box_overlap(self, seed):
        field, rho = self.field_and_rho(seed)
        got = spatial_dependence_autocorr([field], self.KERNEL).values
        np.testing.assert_allclose(got, rho, rtol=0, atol=self.AUTOCORR_TOLERANCE)

    def test_reference_reads_zero_without_correlation_and_rises_with_it(self):
        sigma = 1 / self.L
        values = [binned_normal_nmi(r, sigma, -4.5 * sigma, 4.5 * sigma)
                  for r in (0.0, 1 / 9, 4 / 9, 2 / 3, 0.9)]
        assert abs(values[0]) < 1e-12
        assert all(a < b for a, b in zip(values, values[1:]))


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

    @pytest.mark.parametrize("redundancy_filter", ["auto", 0.3])
    def test_mi_with_filter_raises(self, redundancy_filter):
        with pytest.raises(EstimatorError, match="non-finite"):
            spatial_dependence_mi(self.maps_with(np.nan), (3, 3),
                                  BinningConfig(redundancy_filter=redundancy_filter))

    def test_autocorr_raises(self):
        with pytest.raises(EstimatorError, match="non-finite"):
            spatial_dependence_autocorr(self.maps_with(np.nan), (3, 3))

    def test_collect_pairs_raises(self):
        with pytest.raises(EstimatorError, match="non-finite"):
            collect_pairs(self.maps_with(np.nan), (0, 1), BinningConfig())


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

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_values_rejected(self, bad):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            SpatialDependenceMatrix(np.array([[bad, 1.0]]))
