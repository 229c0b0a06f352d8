import math

import numpy as np
import pytest

from lorentzheat import spectral
from lorentzheat.harmonic import solve_h
from lorentzheat.iterated import (
    SingularSourceError,
    apply_I,
    derivative_iterated,
    envelope_nabla_J,
    iterate_I,
    j_envelope,
    laplacian_oracle_C,
    mode_ode_residual,
)
from lorentzheat.params import RadialProfile
from lorentzheat.quadrature import make_grid

GRID = make_grid(1e-8, 1e4, 2048)


@pytest.fixture(scope="module")
def zero3():
    spec = spectral.PotentialSpec.zero(3)
    return {k: solve_h(spec, k, GRID) for k in range(5)}


@pytest.fixture(scope="module")
def hardy_hk():
    return {k: solve_h(spectral.PotentialSpec.hardy(3, 2.0), k, GRID)
            for k in range(3)}


class TestOracleRecursion:
    def test_c_k0(self):
        assert laplacian_oracle_C(0, 0, 3) == 1.0
        assert laplacian_oracle_C(4, 0, 5) == 1.0

    def test_c_k1_closed_form(self):
        for k in range(5):
            for n in (3, 4, 7):
                assert laplacian_oracle_C(k, 1, n) == pytest.approx(
                    1.0 / (2.0 * (n + 2 * k)))

    @pytest.mark.parametrize("dimension", [2, 3, 5])
    def test_iterate_matches_oracle(self, dimension):
        spec = spectral.PotentialSpec.zero(dimension)
        mask = GRID < 1e3  # keep away from the zero-extension boundary
        for k in (0, 1, 2, 4):
            hk = solve_h(spec, k, GRID)
            for n in (1, 2, 3):
                itg = iterate_I(hk, n)
                want = laplacian_oracle_C(k, n, dimension) * GRID ** (2 * n)
                rel = np.abs(itg.values[mask] / want[mask] - 1.0)
                assert np.max(rel) < 1e-6, (k, n)

    def test_first_level_zero_potential(self, zero3):
        # I_k[1] = r^2 / (2 (N + 2k))
        for k in (0, 2):
            itg = iterate_I(zero3[k], 1)
            want = GRID ** 2 / (2.0 * (3 + 2 * k))
            assert np.max(np.abs(itg.values / want - 1.0)) < 1e-8


class TestApplyI:
    def test_zero_source(self, zero3):
        itg = apply_I(zero3[0], np.zeros_like(GRID))
        assert np.all(itg.values == 0.0)

    def test_vanishes_at_origin(self, hardy_hk):
        itg = iterate_I(hardy_hk[1], 2)
        assert itg.values[0] < 1e-20
        assert itg.profile.inner_exponent == pytest.approx(4.0)

    def test_positivity_and_monotonicity(self, hardy_hk):
        f = np.exp(-GRID)
        itg = apply_I(hardy_hk[0], f)
        assert np.all(itg.values >= 0.0)
        assert np.all(np.diff(itg.values) >= 0.0)

    def test_too_singular_source_rejected(self, hardy_hk):
        # need |f| <~ r^-a with a < N + 2 A_1k; A_0 = 1, so a < 5
        f = RadialProfile.power(-5.5, 3)
        with pytest.raises(SingularSourceError):
            apply_I(hardy_hk[0], f)

    def test_steep_mode_inner_integral(self):
        # r^2 h_10^2 is about 1e-178 at r = 1e-8, so the product of two
        # neighbouring samples underflows there; the inner integral must stay
        # the panel-wise power-law integral, summed here apart from the code
        grid = make_grid(1e-8, 1e4, 1024)
        hk = solve_h(spectral.PotentialSpec.hardy(3, 2.0), 10, grid)
        y = grid ** 2 * hk.values ** 2
        assert y[0] * y[1] == 0.0
        inner = [y[0] * grid[0] / (2.0 * hk.inner_exponent + 3.0)]
        for r0, r1, y0, y1 in zip(grid[:-1], grid[1:], y[:-1], y[1:]):
            x = math.log(r1 / r0)
            e1 = math.log(y1 / y0) / x + 1.0
            inner.append(inner[-1] + y0 * r0 * math.expm1(e1 * x) / e1)
        expect = np.array(inner) / (grid ** 2 * hk.values ** 2)
        itg = apply_I(hk, np.ones_like(grid), f_inner_exponent=0.0)
        np.testing.assert_allclose(itg.dI, expect, rtol=1e-12, atol=0.0)

    def test_hardy_scaling(self, hardy_hk):
        # I_k^n(lam r) = lam^(2n) I_k^n(r) for the scale-invariant potential
        itg = iterate_I(hardy_hk[1], 2)
        prof = itg.profile
        r = GRID[(GRID > 1e-5) & (GRID < 1e2)]
        for lam in (2.0, 8.0):
            lhs = prof.eval(lam * r)
            rhs = lam ** 4 * prof.eval(r)
            assert np.max(np.abs(lhs / rhs - 1.0)) < 1e-6


class TestInversionIdentity:
    """I_k right-inverts the h_k-conjugated mode operator:
    L_k(h_k I_k[f]) = h_k f, all derivatives by independent differences."""

    def corpus(self):
        powers = [0.0, 0.5, 1.0, 2.0, -0.5, 3.0, 1.5]
        bumps = [lambda r: np.exp(-r), lambda r: 1.0 / (1.0 + r ** 2),
                 lambda r: np.exp(-0.5 * (np.log(np.maximum(r, 1e-300)) - 1.0) ** 2)]
        return powers, bumps

    @pytest.mark.parametrize("specmaker", [
        lambda: spectral.PotentialSpec.hardy(3, 2.0),
        lambda: spectral.PotentialSpec.inverse_power(3, 1.0, 4.0),
    ])
    def test_right_inverse_on_corpus(self, specmaker):
        # the panel quadrature is second order, so this check needs the
        # full default grid resolution
        grid = make_grid(1e-8, 1e4, 4096)
        spec = specmaker()
        hk = solve_h(spec, 1, grid)
        powers, bumps = self.corpus()
        fs = [grid ** a for a in powers] + [b(grid) for b in bumps]
        for i, f in enumerate(fs):
            itg = apply_I(hk, f)
            assert mode_ode_residual(itg) < 1e-5, f"corpus member {i}"

    def test_plain_laplacian_identity(self):
        # V = 0, k = 0 is the one case where the unconjugated operator
        # already inverts: h_0 = 1 makes the conjugation trivial
        from lorentzheat.quadrature import radial_derivative_values
        grid = make_grid(1e-8, 1e4, 4096)
        hk = solve_h(spectral.PotentialSpec.zero(3), 0, grid)
        f = np.exp(-grid)
        itg = apply_I(hk, f)
        i1 = radial_derivative_values(itg.values, grid, 1)
        i2 = radial_derivative_values(itg.values, grid, 2)
        res = i2 + 2.0 / grid * i1 - f
        sl = slice(4, -4)
        scale = np.abs(f) + np.abs(i2) + np.abs(2.0 / grid * i1)
        assert np.max(np.abs(res[sl]) / scale[sl]) < 1e-5


class TestDerivatives:
    def test_exact_first_derivative(self, hardy_hk):
        itg = iterate_I(hardy_hk[0], 1)
        # Hardy A_0 = 1: I = r^2/(2(N+2A_0)) = r^2/10, I' = r/5
        d1 = derivative_iterated(itg, 1)
        assert np.max(np.abs(d1 / (GRID / 5.0) - 1.0)) < 1e-8

    def test_second_derivative_identity(self, hardy_hk):
        itg = iterate_I(hardy_hk[0], 1)
        d2 = derivative_iterated(itg, 2)
        assert np.max(np.abs(d2 - 0.2)) < 1e-8


class TestEnvelopes:
    def test_j0_is_h(self, hardy_hk):
        env = j_envelope(hardy_hk[1], 0)
        assert np.allclose(env.values, hardy_hk[1].values, rtol=1e-12)

    def test_zero_potential_envelope_power(self, zero3):
        env = j_envelope(zero3[2], 1)
        want = laplacian_oracle_C(2, 1, 3) * GRID ** 4
        mask = GRID < 1e3
        assert np.max(np.abs(env.values[mask] / want[mask] - 1.0)) < 1e-6

    def test_gradient_envelope_rate(self, hardy_hk):
        # grad^1 envelope of h_1 I_1^1 behaves like r^(A_1 + 1) near 0
        hk = hardy_hk[1]
        itg = iterate_I(hk, 1)
        env = envelope_nabla_J(hk, itg, 1)
        small = GRID < 1e-3
        slope = np.polyfit(np.log(GRID[small]), np.log(env.values[small]), 1)[0]
        assert slope == pytest.approx(hk.inner_exponent + 1.0, abs=1e-3)

    def test_normalized_envelope_bound(self, hardy_hk):
        # t^-n h_k I^n / h_k(sqrt t) <= C (h_0/h_0(sqrt t)) on r < sqrt(t)
        hk, h0 = hardy_hk[2], hardy_hk[0]
        itg = iterate_I(hk, 1)
        t = 4.0
        mask = GRID < math.sqrt(t)
        lhs = (hk.values * itg.values / t)[mask] / hk.eval(math.sqrt(t))
        rhs = h0.values[mask] / h0.eval(math.sqrt(t))
        assert np.max(lhs / rhs) < 5.0
