import math

import pytest

import netskel as ns
from netskel.errors import DegenerateFitError, NetskelError


class TestFitPowerLaw:
    def test_exact_power_law(self):
        fit = ns.fit_power_law([(1, 2), (2, 8), (4, 32)])
        assert fit.amplitude == pytest.approx(2.0)
        assert fit.exponent == pytest.approx(2.0)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-9)

    def test_constant_data(self):
        fit = ns.fit_power_law([(1, 1), (2, 1), (4, 1)])
        assert fit.amplitude == pytest.approx(1.0)
        assert fit.exponent == pytest.approx(0.0, abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0)

    def test_scale_equivariance(self):
        pts = [(1.0, 3.0), (2.0, 11.0), (3.0, 30.0), (5.0, 70.0)]
        base = ns.fit_power_law(pts)
        scaled = ns.fit_power_law([(x, 10 * y) for x, y in pts])
        assert scaled.amplitude == pytest.approx(10 * base.amplitude, rel=1e-9)
        assert scaled.exponent == pytest.approx(base.exponent, abs=1e-9)
        assert scaled.r_squared == pytest.approx(base.r_squared, abs=1e-9)

    def test_rejects_nonpositive(self):
        with pytest.raises(NetskelError):
            ns.fit_power_law([(1, 1), (2, -1), (3, 2)])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("axis", [0, 1])
    def test_rejects_non_finite(self, bad, axis):
        pts = [(1.0, 1.0), (2.0, 2.0), (3.0, 2.0)]
        pts[1] = (bad, 2.0) if axis == 0 else (2.0, bad)
        with pytest.raises(NetskelError, match="finite"):
            ns.fit_power_law(pts)

    def test_pinned_values(self):
        # least-squares values of numpy.polyfit on the same points
        fit = ns.fit_power_law([(1, 3), (2, 11), (3, 30), (5, 70)])
        assert fit.amplitude == pytest.approx(2.985137102749479, rel=1e-12)
        assert fit.exponent == pytest.approx(1.9909510445501428, rel=1e-12)
        assert fit.r_squared == pytest.approx(0.9958882865636802, rel=1e-12)
        assert all(type(v) is float for v in (fit.amplitude, fit.exponent, fit.r_squared))

    def test_rejects_too_few_points(self):
        with pytest.raises(DegenerateFitError):
            ns.fit_power_law([(1, 1), (2, 2)])

    def test_rejects_identical_x(self):
        with pytest.raises(DegenerateFitError):
            ns.fit_power_law([(2, 1), (2, 2), (2, 3)])


class TestEstimateFromSkeleton:
    def test_ratio_one(self):
        assert ns.estimate_h_from_skeleton(100.0, 50, 50) == pytest.approx(101.2)

    def test_linear_in_h_skeleton(self):
        a = ns.estimate_h_from_skeleton(10.0, 30, 100)
        b = ns.estimate_h_from_skeleton(20.0, 30, 100)
        assert b == pytest.approx(2 * a)

    def test_decreasing_in_ratio(self):
        high = ns.estimate_h_from_skeleton(100.0, 20, 100)
        low = ns.estimate_h_from_skeleton(100.0, 80, 100)
        assert high > low

    def test_rejects_oversized_skeleton(self):
        with pytest.raises(NetskelError):
            ns.estimate_h_from_skeleton(1.0, 11, 10)

    def test_rejects_empty_skeleton(self):
        with pytest.raises(NetskelError):
            ns.estimate_h_from_skeleton(1.0, 0, 10)

    @pytest.mark.parametrize("bad", [-1.0, math.nan, math.inf, -math.inf])
    def test_rejects_negative_or_non_finite_h_skeleton(self, bad):
        with pytest.raises(NetskelError, match="finite and non-negative"):
            ns.estimate_h_from_skeleton(bad, 5, 10)
        with pytest.raises(NetskelError, match="finite and non-negative"):
            ns.skeleton_estimate(bad, 5, 10)

    def test_low_confidence_flag_below_threshold(self):
        est = ns.skeleton_estimate(1000.0, 51, 369)  # TfL-like ratio 0.138
        assert est.ratio == pytest.approx(51 / 369)
        assert est.low_confidence

    def test_confident_above_threshold(self):
        est = ns.skeleton_estimate(1000.0, 29, 34)
        assert not est.low_confidence

    def test_custom_constants(self):
        c = ns.ScalingConstants(inverse_amplitude=2.0, inverse_exponent=1.0)
        assert ns.estimate_h_from_skeleton(10.0, 25, 50, c) == pytest.approx(40.0)

    @pytest.mark.parametrize(
        "h_skeleton,n_skeleton,n_original,constants",
        [
            (0.0, 1, 4, {"inverse_exponent": 1e308}),  # the power overflows
            (0.0, 1, 4, {"inverse_exponent": 100, "inverse_amplitude": 1e300}),  # inf * 0
            (15.5, 4, 8, {"inverse_exponent": 1000, "inverse_amplitude": 1e300}),  # inf
        ],
        ids=["overflow", "nan", "infinity"],
    )
    def test_rejects_non_finite_estimate(self, h_skeleton, n_skeleton, n_original, constants):
        c = ns.ScalingConstants(**constants)
        with pytest.raises(NetskelError, match="not finite"):
            ns.estimate_h_from_skeleton(h_skeleton, n_skeleton, n_original, c)
        with pytest.raises(NetskelError, match="not finite"):
            ns.skeleton_estimate(h_skeleton, n_skeleton, n_original, c)


class TestApproxHTree:
    def test_n1(self):
        assert ns.approx_h_tree(1) == pytest.approx(0.721)

    def test_n10(self):
        assert ns.approx_h_tree(10) == pytest.approx(0.721 * 10**2.55)

    def test_n100(self):
        assert ns.approx_h_tree(100) == pytest.approx(0.721 * 100**2.55)
        assert ns.approx_h_tree(100) == pytest.approx(9.08e4, rel=0.01)

    def test_rejects_zero(self):
        with pytest.raises(NetskelError):
            ns.approx_h_tree(0)


class TestRelativeError:
    @pytest.mark.parametrize(
        "estimate,actual,expected", [(100, 100, 0.0), (150, 100, 0.5), (50, 100, -0.5)]
    )
    def test_values(self, estimate, actual, expected):
        assert ns.relative_error(estimate, actual) == pytest.approx(expected)

    def test_rejects_nonpositive_actual(self):
        with pytest.raises(NetskelError):
            ns.relative_error(1.0, 0.0)


class TestScalingConstants:
    def test_defaults_are_published_values(self):
        c = ns.ScalingConstants()
        assert (c.inverse_amplitude, c.inverse_exponent) == (1.012, 2.35)
        assert (c.tree_amplitude, c.tree_exponent) == (0.721, 2.550)

    def test_rejects_nonpositive_amplitude(self):
        with pytest.raises(NetskelError):
            ns.ScalingConstants(tree_amplitude=0.0)
        with pytest.raises(NetskelError):
            ns.ScalingConstants()._replace(tree_amplitude=0.0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("name", ns.ScalingConstants._fields)
    def test_rejects_non_finite(self, name, value):
        with pytest.raises(NetskelError, match=f"{name} must be finite"):
            ns.ScalingConstants(**{name: value})
