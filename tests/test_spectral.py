import ast
import itertools
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from lorentzheat import harmonic, spectral
from lorentzheat.quadrature import make_grid
from lorentzheat.spectral import (
    FIT_TOL,
    NULL_CRITICAL,
    POSITIVE_CRITICAL,
    ROOT_SEPARATION,
    SUBCRITICAL,
    UNKNOWN,
    PotentialSpec,
    SpectralError,
    a_exponents,
    check_nonnegativity,
    check_inverse_square_smoothness,
    classify_criticality,
    eigenspace_dimension,
    exponent_table,
    lambda_star,
    omega,
)


class TestOmega:
    def test_k0(self):
        assert omega(0, 3) == 0.0

    def test_k1_n3(self):
        assert omega(1, 3) == 2.0

    def test_k2_n4(self):
        assert omega(2, 4) == 8.0


class TestEigenspaceDimension:
    def test_constants(self):
        for n in (2, 3, 4, 7):
            assert eigenspace_dimension(0, n) == 1

    def test_degree_one_3d(self):
        assert eigenspace_dimension(1, 3) == 3

    def test_degree_two_3d(self):
        assert eigenspace_dimension(2, 3) == 5

    def test_dimension_two(self):
        assert all(eigenspace_dimension(k, 2) == 2 for k in range(1, 8))

    def test_growth_order(self):
        # d_k = O(k^(N-2))
        for n in (3, 4, 5):
            vals = [eigenspace_dimension(k, n) / (k ** (n - 2)) for k in range(2, 40)]
            assert max(vals) < 10.0

    def test_large_k_exact_integer(self):
        d = eigenspace_dimension(60, 6)
        assert isinstance(d, int) and d > 0


class TestAExponents:
    def test_zero_coupling(self):
        ap, am = a_exponents(0.0, 5)
        assert ap == 0.0 and am == -3.0

    def test_floor_double_root(self):
        ap, am = a_exponents(lambda_star(4), 4)
        assert ap == am == -1.0

    def test_n3_lambda2(self):
        ap, am = a_exponents(2.0, 3)
        assert ap == pytest.approx(1.0) and am == pytest.approx(-2.0)

    def test_below_floor_rejected(self):
        with pytest.raises(SpectralError):
            a_exponents(lambda_star(3) - 0.1, 3)

    def test_vieta(self):
        for n in (2, 3, 6):
            for lam in np.linspace(lambda_star(n), lambda_star(n) + 12, 25):
                ap, am = a_exponents(lam, n)
                assert ap + am == pytest.approx(-(n - 2), abs=1e-12)
                assert ap * am == pytest.approx(-lam, abs=1e-9)


class TestExponentTable:
    def test_hardy_subcritical(self):
        spec = PotentialSpec.hardy(3, 2.0)
        tbl = exponent_table(spec, SUBCRITICAL, 6)
        assert np.allclose(tbl.A1, tbl.A2)
        assert tbl.A1[0] == pytest.approx(1.0)
        assert np.all(tbl.B == 0)

    @pytest.mark.parametrize("n", [3, 5])
    def test_dimensions_exact_past_int64(self, n):
        # from k = 20 on in N = 3, (N+k-3)! no longer fits an int64
        tbl = exponent_table(PotentialSpec.hardy(n, 2.0), SUBCRITICAL, 50)
        assert len(tbl.d) == 51
        for k, d in enumerate(tbl.d):
            num = (n + 2 * k - 2) * math.factorial(n + k - 3)
            den = math.factorial(k) * math.factorial(n - 2)
            assert num % den == 0 and d == num // den, k

    def test_zero_potential_gives_k(self):
        spec = PotentialSpec.zero(4)
        tbl = exponent_table(spec, SUBCRITICAL, 8)
        assert np.allclose(tbl.A1, np.arange(9))
        assert np.allclose(tbl.A2, np.arange(9))

    def test_borderline_log_flag(self):
        # lambda2 at the floor with a subcritical operator carries B_0 = 1
        n = 3
        spec = PotentialSpec(n, "table", 0.0, 1.0, lambda_star(n), 1.0, 1,
                             lambda r: np.zeros_like(np.asarray(r, dtype=float)))
        tbl = exponent_table(spec, SUBCRITICAL, 3)
        assert tbl.B[0] == 1 and np.all(tbl.B[1:] == 0)

    def test_critical_k0_uses_minus_root(self):
        spec = PotentialSpec.hardy(4, lambda_star(4))
        tbl = exponent_table(spec, NULL_CRITICAL, 2)
        assert tbl.A2[0] == pytest.approx(-1.0)
        assert tbl.A2[1] == pytest.approx(a_exponents(lambda_star(4) + omega(1, 4), 4)[0])

    def test_positive_critical_band_rejected(self):
        # critical with A_20 <= -N/2 violates the admissibility clause
        n = 6
        spec = PotentialSpec(n, "table", lambda_star(n), 1.0, lambda_star(n) - 0 + 2.0,
                             1.0, 1, lambda r: np.zeros_like(np.asarray(r, dtype=float)))
        # A^-_{2.0} in N=6: (-4 - sqrt(16+8))/2 = -4.45 < -3
        with pytest.raises(SpectralError, match="positive-critical"):
            exponent_table(spec, NULL_CRITICAL, 2)

    def test_monotone_in_k(self):
        spec = PotentialSpec.hardy(3, 0.5)
        tbl = exponent_table(spec, SUBCRITICAL, 12)
        assert np.all(np.diff(tbl.A1) > 0)
        assert np.all(np.diff(tbl.A2) > 0)
        # A_k - k stays bounded
        assert np.max(np.abs(tbl.A1 - np.arange(13))) < 2.0

    def test_gap_bound(self):
        # 0 < A_1 - A_0 < 1 whenever lambda > 0
        for lam in np.linspace(0.1, 30, 40):
            for n in (3, 5):
                a0 = a_exponents(lam, n)[0]
                a1 = a_exponents(lam + omega(1, n), n)[0]
                assert 0.0 < a1 - a0 < 1.0


class TestClassification:
    def test_hardy_above_floor(self):
        assert classify_criticality(PotentialSpec.hardy(3, lambda_star(3) + 1)) \
            == SUBCRITICAL

    def test_hardy_at_floor(self):
        assert classify_criticality(PotentialSpec.hardy(3, lambda_star(3))) \
            == NULL_CRITICAL

    def test_zero(self):
        assert classify_criticality(PotentialSpec.zero(3)) == SUBCRITICAL

    def test_hardy_sweep_matches_rule(self):
        for lam in np.linspace(lambda_star(3), lambda_star(3) + 10, 15):
            got = classify_criticality(PotentialSpec.hardy(3, lam))
            want = SUBCRITICAL if lam > lambda_star(3) else NULL_CRITICAL
            assert got == want

    def test_positive_critical_detected_for_deep_floor(self):
        # N=6 Hardy at the floor: A^-_{lambda_*} = -(N-2)/2 = -2 > -3 = -N/2,
        # so still null-critical; the positive-critical regime needs A_20 < -N/2
        assert classify_criticality(PotentialSpec.hardy(6, lambda_star(6))) \
            == NULL_CRITICAL

    def test_bounded_potential_numeric(self):
        spec = PotentialSpec.inverse_power(3, 1.0, 4.0)
        h0 = harmonic.solve_h(spec, 0)
        assert classify_criticality(spec, h0.outer_exponent) == SUBCRITICAL

    def test_far_field_kind_needs_the_exponent(self):
        with pytest.raises(SpectralError, match="far-field exponent of h_0"):
            classify_criticality(PotentialSpec.inverse_power(3, 1.0, 4.0))

    @pytest.mark.parametrize("n, lam2, pick, want", [
        (3, 0.0, 0, SUBCRITICAL),
        (3, 0.0, 1, NULL_CRITICAL),
        (5, 0.0, 1, POSITIVE_CRITICAL),
        (3, 0.0, None, UNKNOWN),
        # roots 0.1 apart: unknown even when the exponent is one of them
        (3, lambda_star(3) + 0.0025, 0, UNKNOWN),
    ])
    def test_category_of_the_matched_exponent(self, n, lam2, pick, want):
        spec = _table_spec(n, lam2)
        roots = a_exponents(lam2, n)
        outer = roots[0] + 0.3 if pick is None else roots[pick]
        assert classify_criticality(spec, outer) == want


def _table_spec(n, lam2):
    """A potential of no analytic kind with far-field coupling lam2."""
    return PotentialSpec(n, "table", 0.0, 2.0, lam2, 2.0, 1,
                         lambda r: lam2 / np.asarray(r, dtype=float) ** 2)


def _fitted_exponent_rule(spec, fitted):
    """Criticality from the fitted far-field exponent of h_0, as decided
    before the classifier read the matched exponent."""
    a_plus, a_minus = a_exponents(spec.lambda2, spec.dimension)
    if abs(a_plus - a_minus) < ROOT_SEPARATION:
        return UNKNOWN
    if abs(fitted - a_plus) < FIT_TOL:
        return SUBCRITICAL
    if abs(fitted - a_minus) < FIT_TOL:
        return NULL_CRITICAL if a_minus > -spec.dimension / 2.0 \
            else POSITIVE_CRITICAL
    return UNKNOWN


class TestClassificationOracle:
    """The matched far-field exponent gives the category the fitted one did."""

    def test_inverse_power_profiles(self):
        seen = set()
        for n, kappa, amplitude, r_max in itertools.product(
                (3, 5), (2.5, 3.0, 4.0, 6.0), (4.0, 1.0, -0.05), (1e3, 1e4)):
            spec = PotentialSpec.inverse_power(n, amplitude, kappa)
            h0 = harmonic.solve_h(spec, 0, make_grid(1e-8, r_max, 512))
            want = _fitted_exponent_rule(spec, h0.fitted_outer_exponent)
            assert classify_criticality(spec, h0.outer_exponent) == want, \
                (n, kappa, amplitude, r_max)
            seen.add(want)
        # slow far fields on short grids leave the fit between the roots
        assert seen == {SUBCRITICAL, UNKNOWN}

    @given(n=st.integers(3, 6), gap=st.floats(0.0, 3.0),
           shift=st.floats(-0.5, 0.5), root=st.integers(0, 1))
    @settings(max_examples=300, deadline=None)
    def test_synthetic_fits(self, n, gap, shift, root):
        spec = _table_spec(n, lambda_star(n) + gap)
        fitted = a_exponents(spec.lambda2, n)[root] + shift
        # a fit exactly FIT_TOL from a root is matched, where the fitted
        # rule left it unknown
        assume(abs(abs(shift) - FIT_TOL) > 1e-12)
        outer = harmonic._match_outer(spec, 0, fitted)[0]
        assert classify_criticality(spec, outer) == \
            _fitted_exponent_rule(spec, fitted)


class TestLayering:
    def test_spectral_solves_no_ode(self):
        # the classifier is arithmetic on an exponent; an import of the
        # profile solver or of scipy's integrators would bring a solve back
        tree = ast.parse(Path(spectral.__file__).read_text())
        imported = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported += [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                base = "." * node.level + (node.module or "")
                imported += [base] + [f"{base}.{alias.name}" for alias in node.names]
        assert imported, "no imports parsed"
        for name in imported:
            assert "harmonic" not in name.split("."), name
            assert not name.startswith("scipy.integrate"), name


class TestNonnegativity:
    def test_hardy_floor_true(self):
        ok, ev = check_nonnegativity(PotentialSpec.hardy(3, lambda_star(3)))
        assert ok and ev["method"] == "hardy-inequality"

    def test_hardy_below_floor_unconstructible(self):
        # couplings below the floor violate the asymptotic-data invariant
        with pytest.raises(SpectralError):
            PotentialSpec.hardy(3, lambda_star(3) - 0.05)

    def test_nonnegative_potential(self):
        ok, ev = check_nonnegativity(PotentialSpec.inverse_power(3, 2.0, 4.0))
        assert ok and ev["method"] == "pointwise-sign"

    def test_constant_negative_potential(self):
        n = 3
        spec = PotentialSpec(n, "table", 0.0, 2.0, 0.0, 2.0, 1,
                             lambda r: np.full_like(np.asarray(r, dtype=float), -1.0))
        ok, ev = check_nonnegativity(spec)
        assert not ok
        assert ev["eigenvalue"] == pytest.approx(-1.0, abs=0.05)


class TestSmoothnessCheck:
    def test_inverse_power_bounded(self):
        spec = PotentialSpec.inverse_power(3, 1.0, 4.0)
        sups = check_inverse_square_smoothness(spec, ell_max=3)
        assert all(math.isfinite(v) for v in sups.values())

    def test_hardy_exact(self):
        spec = PotentialSpec.hardy(3, 2.0)
        sups = check_inverse_square_smoothness(spec, ell_max=2)
        assert sups[0] == pytest.approx(2.0)
        assert sups[1] == pytest.approx(4.0)


class TestInversePowerRemainder:
    """r^2 V(r) = r^2 a (1 + r^2)^(-kappa/2), which the profile ODE's
    right-hand side calls once per evaluation, against mpmath at 30 digits.
    The profile solver tests hand both solvers the same remainder, so only
    this test sees a change of its form."""

    PAIRS = [(1.0, 4.0), (-0.05, 3.0), (2.0, 4.0), (1.0, 3.0), (-0.05, 5.0),
             (0.5, 2.5)]
    R = np.geomspace(1e-9, 1e5, 1201)

    @staticmethod
    def _exact(a, kappa, r):
        import mpmath
        with mpmath.workdps(30):
            rr = mpmath.mpf(r) ** 2
            return rr * mpmath.mpf(a) * (1 + rr) ** (-mpmath.mpf(kappa) / 2)

    @pytest.mark.parametrize("a, kappa", PAIRS)
    def test_against_mpmath(self, a, kappa):
        import mpmath
        remainder = PotentialSpec.inverse_power(3, a, kappa).remainder
        # 2 eps = 2^-51 relative: the rounding of 1 + r^2 enters raised to
        # kappa / 2, so above kappa = 4 the bound grows as kappa / 2 eps
        # (measured worst 1.61 eps at kappa = 4, 2.28 at kappa = 5)
        tol = max(2.0, kappa / 2.0) * np.finfo(float).eps
        values = remainder(self.R)
        assert isinstance(values, np.ndarray) and values.shape == self.R.shape
        for r, in_array in zip(self.R.tolist(), values.tolist()):
            got = remainder(r)
            assert type(got) is float
            # np.float64 is what RK45 hands over at the grid's first node
            assert got == remainder(np.float64(r))
            exact = self._exact(a, kappa, r)
            # an array goes through numpy's vector power, which need not
            # round as libm's pow does, so it is held to the bound alone
            for value in (got, in_array):
                assert abs(mpmath.mpf(value) - exact) <= tol * abs(exact), (r, value)
