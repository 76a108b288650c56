"""Spiral fields, the six-angle flower sum, closure solving, and
classification."""

import math

import numpy as np
import pytest

from hexpack.lattice import MAX_FIELD_VALUE, Window, d1, d2
from hexpack.spiral import (
    SpiralParams,
    classify,
    flower_angle_sum,
    solve_flower_closure,
    spiral_field,
)

TWO_PI = 2.0 * math.pi


class TestSpiralField:
    def test_unit_parameters_give_zero_field(self):
        f = spiral_field(SpiralParams(1.0, 1.0, 1.0), Window(-3, 3, -3, 3))
        assert np.all(f.values == 0.0)

    def test_direct_substitution(self):
        f = spiral_field(SpiralParams(1.0, math.e, 1.0), Window(0, 4, 0, 0))
        assert f[(3, 0)] == pytest.approx(3.0, abs=1e-14)

    def test_differences_are_log_ratios(self):
        f = spiral_field(SpiralParams(0.5, 1.7, 0.8), Window(-4, 4, -3, 3))
        assert np.allclose(d1(f).values, math.log(1.7), atol=1e-13)
        assert np.allclose(d2(f).values, math.log(0.8), atol=1e-13)

    def test_invalid_parameters(self):
        for bad in [(0.0, 1.0, 1.0), (1.0, -2.0, 1.0), (1.0, 1.0, 0.0)]:
            with pytest.raises(ValueError):
                SpiralParams(*bad)

    @pytest.mark.parametrize("x, m", [
        pytest.param(2.0, 10**400, id="m-past-float-range"),
        pytest.param(1e308, 10**306, id="product-overflows"),
        pytest.param(1e10, 10**299, id="past-field-bound"),
        pytest.param(1e10, -(10**299), id="below-minus-field-bound"),
    ])
    def test_log_radius_past_the_field_bound_raises(self, x, m):
        with pytest.raises(ValueError, match="has a log radius past 1e\\+300 in magnitude"):
            spiral_field(SpiralParams(1.0, x, 1.0), Window(m, m, 0, 0))

    def test_log_radius_at_the_field_bound_is_kept(self):
        m = 4 * 10**298
        f = spiral_field(SpiralParams(1.0, 1e10, 1.0), Window(m, m, -2, 2))
        assert np.all(f.values == m * math.log(1e10))
        assert np.abs(f.values).max() <= MAX_FIELD_VALUE


class TestFlowerAngleSum:
    def test_regular(self):
        assert flower_angle_sum(0.0, 0.0) == pytest.approx(TWO_PI, abs=1e-14)

    def test_generic_parameters(self):
        assert flower_angle_sum(math.log(1.5), math.log(0.8)) == pytest.approx(
            TWO_PI, abs=1e-12
        )

    def test_identity_on_grid(self):
        # every (a, b) closes the flower: checked, not assumed
        for a in np.linspace(-2.0, 2.0, 41):
            worst = max(
                abs(flower_angle_sum(a, b) - TWO_PI) for b in np.linspace(-2.0, 2.0, 41)
            )
            assert worst <= 1e-11

    def test_argument_swap_symmetry(self):
        # empirical symmetry of the sum under (a, b) -> (b, a)
        for a in np.linspace(-2.0, 2.0, 21):
            for b in np.linspace(-2.0, 2.0, 21):
                assert flower_angle_sum(a, b) == pytest.approx(
                    flower_angle_sum(b, a), abs=1e-12
                )

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            flower_angle_sum(math.nan, 0.0)


class TestFlowerClosure:
    def test_regular(self):
        assert solve_flower_closure(0.0, 0.0) == pytest.approx(0.0, abs=1e-12)

    def test_named_example(self):
        assert solve_flower_closure(0.3, 0.1) == pytest.approx(-0.3, abs=1e-10)

    def test_random_parameters_return_negated_offset(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            a1, k1 = rng.uniform(-1.0, 1.0, size=2)
            assert solve_flower_closure(a1, k1) + a1 == pytest.approx(0.0, abs=1e-10)

    def test_returned_value_closes_the_flower(self):
        from hexpack.spiral import _closure_angle_sum

        a2 = solve_flower_closure(-0.7, 0.45)
        assert abs(_closure_angle_sum(-0.7, 0.45, a2) - TWO_PI) < 1e-13

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            solve_flower_closure(math.inf, 0.0)

    @pytest.mark.parametrize("a1, k1", [(51.0, 0.0), (60.0, 5.0), (-60.0, 3.0)])
    def test_root_outside_the_bracket_names_it(self, a1, k1):
        with pytest.raises(RuntimeError) as info:
            solve_flower_closure(a1, k1)
        assert "[-50.0, 50.0]" in str(info.value)
        assert f"a2 = -a1 = {-a1}" in str(info.value)
        assert "|a1| < 50.0" in str(info.value)


class TestFlowerClosurePrecision:
    """The residual is flat near its root, so a residual target would stop
    early; bisection to the bracket's float resolution lands on -a1."""

    SLOPES = (-100.0, -5.0, 0.0, 1.0, 10.0, 1000.0)

    @pytest.mark.parametrize("a1", [-10.0, -7.5, -5.0, -1.0, -0.1, 0.0, 0.3, 1.0, 5.0,
                                    9.99, 10.0])
    def test_root_within_1e_12_for_moderate_offsets(self, a1):
        for k1 in self.SLOPES:
            assert abs(solve_flower_closure(a1, k1) + a1) <= 1e-12, k1

    @pytest.mark.parametrize("a1", [49.999, -49.999])
    def test_root_within_1e_3_near_the_bracket_end(self, a1):
        for k1 in self.SLOPES:
            assert abs(solve_flower_closure(a1, k1) + a1) <= 1e-3, k1


class TestClassify:
    def test_spiral_recovers_parameters(self):
        f = spiral_field(SpiralParams(1.0, 2.0, 0.7), Window(-5, 5, -5, 5))
        c = classify(f)
        assert c.kind == "spiral"
        assert c.k1 == pytest.approx(math.log(2.0), abs=1e-12)
        assert c.k2 == pytest.approx(math.log(0.7), abs=1e-12)

    def test_constant_field_is_regular(self):
        from hexpack.lattice import ScalarField

        c = classify(ScalarField.constant(Window(-2, 2, -2, 2), 5.0))
        assert c.kind == "regular"

    def test_quadratic_field_is_other(self):
        from hexpack.lattice import ScalarField

        f = ScalarField.from_function(Window(-1, 1, -1, 1), lambda v: float(v[0] ** 2))
        c = classify(f)
        assert c.kind == "other"
        assert c.spread >= 2.0

    def test_parameter_recovery_sweep(self):
        rng = np.random.default_rng(19)
        w = Window(-4, 4, -4, 4)
        for _ in range(25):
            x = rng.uniform(0.5, 2.0)
            y = rng.uniform(0.5, 2.0)
            c = classify(spiral_field(SpiralParams(1.0, x, y), w))
            assert c.kind in ("spiral", "regular")
            assert c.k1 == pytest.approx(math.log(x), abs=1e-12)
            assert c.k2 == pytest.approx(math.log(y), abs=1e-12)

    def test_window_too_small(self):
        from hexpack.lattice import ScalarField

        with pytest.raises(ValueError):
            classify(ScalarField.constant(Window(0, 0, 0, 3), 1.0))
