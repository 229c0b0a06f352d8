import numpy as np
import pytest

from lorentzheat.params import INF_DECAY, RadialProfile
from lorentzheat.quadrature import (
    cumulative_integral,
    radial_derivative_values,
    two_point_exponent,
    windowed_exponent,
)

GRID = np.geomspace(1e-3, 1e2, 64)


class TestTwoPointExponent:
    def test_exact_on_powers_of_either_sign(self):
        for c in (3.0, -0.5):
            e = two_point_exponent(GRID, c * GRID ** 1.5)
            assert e == pytest.approx(1.5, rel=1e-12)

    def test_zero_or_sign_change_gives_flat(self):
        for v in ((0.0, 1.0), (1.0, 0.0), (1.0, -2.0), (-1.0, 2.0)):
            assert two_point_exponent(GRID, np.array(v)) == 0.0

    def test_underflowing_product_still_fits(self):
        # y0 * y1 underflows to 0.0; the signs still agree
        y = 1e-170 * GRID ** 2
        assert y[0] * y[1] == 0.0
        assert two_point_exponent(GRID, y) == pytest.approx(2.0, rel=1e-12)
        head = cumulative_integral(GRID, y)[0]
        assert head == pytest.approx(y[0] * GRID[0] / 3.0, rel=1e-12)

    def test_profile_keeps_its_zero_rule(self):
        vals = np.ones_like(GRID)
        vals[0] = 0.0
        assert RadialProfile(GRID, vals, 3).inner_exponent == INF_DECAY
        assert RadialProfile(GRID, GRID ** 2, 3).inner_exponent == pytest.approx(2.0)


class TestCumulativeIntegral:
    @pytest.mark.parametrize("e", [19.5, 21.0, 30.0, 40.0])
    def test_exact_on_steep_powers(self, e):
        # from e ~ 20 on, y[i] * y[i + 1] underflows on the first panels,
        # which must still be integrated as power laws
        r = np.geomspace(1e-8, 1.0, 400)
        got = cumulative_integral(r, r ** e, head_exponent=e)
        exact = r ** (e + 1.0) / (e + 1.0)
        normal = exact > 1e-290
        assert np.count_nonzero(normal) > 300
        np.testing.assert_allclose(got[normal], exact[normal], rtol=1e-12, atol=0.0)


class TestWindowedExponent:
    def test_slope_of_a_power_and_snap(self):
        assert windowed_exponent(GRID, GRID ** 0.5, 16, 0.02) == pytest.approx(0.5)
        assert windowed_exponent(GRID, -GRID ** 0.5, 16, 0.02) == pytest.approx(0.5)
        assert windowed_exponent(GRID, GRID ** 0.1, 16, 0.15) == 0.0

    def test_zero_or_sign_change_defers(self):
        vals = GRID ** 0.5
        vals[3] = 0.0
        assert windowed_exponent(GRID, vals, 16, 0.02) is None
        vals[3] = -1.0
        assert windowed_exponent(GRID, vals, 16, 0.02) is None
        # values past the window are not read
        vals = GRID ** 0.5
        vals[20:] = 0.0
        assert windowed_exponent(GRID, vals, 16, 0.02) == pytest.approx(0.5)


class TestRadialDerivative:
    def test_fourth_order_in_log_r(self):
        # y = (log r)^4: the interior log-grid stencils are exact on
        # quartics in u, which second-order ones are not
        u = np.log(GRID)
        d1 = radial_derivative_values(u ** 4, GRID, order=1)
        d2 = radial_derivative_values(u ** 4, GRID, order=2)
        inner = slice(2, -2)
        assert np.allclose((d1 * GRID)[inner], (4 * u ** 3)[inner],
                           rtol=1e-9, atol=1e-8)
        assert np.allclose((d2 * GRID ** 2)[inner],
                           (12 * u ** 2 - 4 * u ** 3)[inner], rtol=1e-9, atol=1e-8)

    def test_non_geometric_grid_rejected(self):
        r = np.linspace(0.1, 10.0, 64)
        for order in (1, 2):
            with pytest.raises(ValueError, match="geometric grid"):
                radial_derivative_values(r ** 2, r, order=order)
