import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spatialgrad.dependence import SpatialDependenceMatrix
from spatialgrad.scaling import EPSILON_FLOOR, ScalingMatrix, finalize, from_masks, k_transform


class TestScalingMatrix:
    def test_valid_construction(self):
        m = ScalingMatrix(np.array([[0.5, 1.5], [1.5, 0.5]]))
        assert m.values.shape == (2, 2)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            ScalingMatrix(np.array([[0.0, 2.0], [1.0, 1.0]]))

    def test_rejects_wrong_mean(self):
        with pytest.raises(ValueError):
            ScalingMatrix(np.array([[1.0, 2.0], [1.0, 1.0]]))

    def test_immutable(self):
        m = ScalingMatrix(np.ones((2, 2)))
        with pytest.raises(ValueError):
            m.values[0, 0] = 2.0


class TestFromMasks:
    def test_single_full_mask(self):
        normalized, raw = from_masks([np.ones((3, 3))])
        np.testing.assert_array_equal(raw, np.ones((3, 3), dtype=np.int64))
        np.testing.assert_array_equal(normalized.values, np.ones((3, 3)))

    def test_acb_coverage(self):
        row = np.zeros((3, 3))
        row[1, :] = 1
        col = np.zeros((3, 3))
        col[:, 1] = 1
        normalized, raw = from_masks([np.ones((3, 3)), row, col])
        np.testing.assert_array_equal(raw, [[1, 2, 1], [2, 3, 2], [1, 2, 1]])
        assert normalized.values.mean() == pytest.approx(1.0, abs=1e-12)

    def test_full_plus_center(self):
        center = np.zeros((3, 3))
        center[1, 1] = 1
        _, raw = from_masks([np.ones((3, 3)), center])
        expected = np.ones((3, 3), dtype=np.int64)
        expected[1, 1] = 2
        np.testing.assert_array_equal(raw, expected)

    def test_uncovered_position_names_it(self):
        m = np.zeros((2, 2))
        m[0, 0] = 1
        with pytest.raises(ValueError, match=r"\(1, 1\)"):
            from_masks([m])

    def test_rejects_non_binary(self):
        with pytest.raises(ValueError):
            from_masks([np.full((2, 2), 0.5)])

    def test_rejects_mixed_shapes(self):
        with pytest.raises(ValueError):
            from_masks([np.ones((2, 2)), np.ones((3, 3))])


class TestKTransform:
    def test_fixed_points(self):
        for k in range(2, 8):
            out = k_transform(np.array([[0.0, 1.0]]), float(k))
            np.testing.assert_array_equal(out, [[0.0, 1.0]])

    def test_frozen_midpoint_example(self):
        # k*s/((k-1)s + 1) with s=0.5, k=5 -> 2.5/3
        assert k_transform(np.array([[0.5]]), 5.0)[0, 0] == pytest.approx(2.5 / 3, rel=1e-15)

    def test_k_one_is_identity(self):
        s = np.linspace(0, 1, 7).reshape(1, 7)
        np.testing.assert_allclose(k_transform(s, 1.0), s, rtol=1e-15)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            k_transform(np.array([[0.5]]), 0.0)
        with pytest.raises(ValueError):
            k_transform(np.array([[1.5]]), 2.0)
        with pytest.raises(ValueError):
            k_transform(np.array([[-0.1]]), 2.0)

    @pytest.mark.parametrize("dependence,k", [([[np.nan, 1.0]], 5.0), ([[0.5, np.inf]], 5.0),
                                              ([[0.5]], np.inf), ([[0.5]], np.nan)])
    def test_rejects_non_finite_values(self, dependence, k):
        with pytest.raises(ValueError):
            k_transform(np.array(dependence), k)

    def test_monotonic_in_s_and_k_bulk(self):
        rng = np.random.default_rng(0)
        s = np.sort(rng.uniform(0.0, 1.0, size=10_000))
        for k in (0.5, 2.0, 5.0, 7.0):
            out = k_transform(s.reshape(1, -1), k).ravel()
            assert np.all(np.diff(out) >= 0)
            strictly = np.diff(s) > 0
            assert np.all(np.diff(out)[strictly] > 0)
        interior = rng.uniform(0.01, 0.99, size=10_000)
        lower = k_transform(interior.reshape(1, -1), 2.0)
        upper = k_transform(interior.reshape(1, -1), 5.0)
        assert np.all(upper > lower)

    @given(st.floats(0.001, 0.999), st.floats(0.001, 0.999), st.floats(0.1, 50.0))
    @settings(max_examples=100, deadline=None)
    def test_monotonicity_property(self, s1, s2, k):
        lo, hi = sorted((s1, s2))
        out_lo = k_transform(np.array([[lo]]), k)[0, 0]
        out_hi = k_transform(np.array([[hi]]), k)[0, 0]
        assert (out_hi - out_lo >= 0) == (hi - lo >= 0)


class TestFinalize:
    def test_uniform_raw_gives_ones(self):
        for c in (0.2, 1.0, 7.5):
            np.testing.assert_allclose(finalize(np.full((3, 3), c)).values, np.ones((3, 3)),
                                       rtol=1e-15)

    def test_floor_then_normalize_oracle(self):
        assert EPSILON_FLOOR == 1e-3  # the method's floor
        raw = np.array([[0.0, 1.0], [5e-4, 2.0]])
        # direct arithmetic oracle: 0 and 5e-4 both rise to the floor
        floored = np.array([[1e-3, 1.0], [1e-3, 2.0]])
        expected = floored / floored.mean()
        out = finalize(raw)
        np.testing.assert_allclose(out.values, expected, rtol=1e-15)
        assert out.values.mean() == pytest.approx(1.0, abs=1e-12)

    def test_all_zero_raw_floors_to_uniform(self):
        np.testing.assert_array_equal(finalize(np.zeros((3, 3))).values, np.ones((3, 3)))

    def test_rejects_negative_raw(self):
        with pytest.raises(ValueError):
            finalize(np.array([[-0.1, 1.0]]))

    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_output_always_valid(self, seed):
        rng = np.random.default_rng(seed)
        raw = rng.uniform(0.0, 3.0, size=(3, 3))
        out = finalize(raw)
        assert abs(out.values.mean() - 1.0) <= 1e-9
        assert out.values.min() > 0


@pytest.mark.parametrize("cls", [ScalingMatrix, SpatialDependenceMatrix])
def test_kernel_matrix_rejects_a_3d_input(cls):
    with pytest.raises(ValueError, match="2-D"):
        cls(np.ones((2, 3, 3)))  # values valid for both kinds; only the rank is wrong
