import math

import numpy as np
import pytest

from lorentzheat import spectral
from lorentzheat.harmonic import ProfileSet
from lorentzheat.params import INF, LorentzParams
from lorentzheat.quadrature import make_grid
from lorentzheat.rates import (
    AmbiguousCaseError,
    RateFitError,
    _ball_norm_growth,
    _gamma_dual_growth,
    classify_cases,
    consistency_check_free_rate,
    fit_rate,
    free_exponent,
    lower_envelope,
    phi_alpha,
    closed_form_rate,
    upper_envelope_J,
)

GRID = make_grid(1e-8, 1e4, 2048)


@pytest.fixture(scope="module")
def ps_zero():
    return ProfileSet.build(spectral.PotentialSpec.zero(3), k_max=4, grid=GRID)


@pytest.fixture(scope="module")
def ps_hardy():
    return ProfileSet.build(spectral.PotentialSpec.hardy(3, 2.0), k_max=4,
                            grid=GRID)


@pytest.fixture(scope="module")
def ps_bounded():
    return ProfileSet.build(spectral.PotentialSpec.inverse_power(3, 1.0, 4.0),
                            k_max=4, grid=GRID)


class TestFitRate:
    def test_exact_power_recovery(self):
        ts = np.geomspace(0.1, 100, 12)
        est = fit_rate(ts, 3.0 * ts ** -1.5)
        assert est.exponent == pytest.approx(-1.5, abs=1e-10)
        assert est.log_power == 0.0
        assert est.amplitude == pytest.approx(3.0, rel=1e-9)

    def test_power_log_recovery(self):
        ts = np.geomspace(2.0, 2000.0, 16)
        est = fit_rate(ts, ts ** -1.0 * np.log(ts), model="power-log")
        assert est.exponent == pytest.approx(-1.0, abs=1e-9)
        assert est.log_power == pytest.approx(1.0, abs=1e-9)

    def test_auto_prefers_simple_model(self):
        ts = np.geomspace(2.0, 2000.0, 16)
        est = fit_rate(ts, 2.0 * ts ** -0.75, model="auto")
        assert est.model == "pure-power"

    def test_auto_detects_log_branch(self):
        ts = np.geomspace(5.0, 5000.0, 20)
        est = fit_rate(ts, ts ** -1.0 * np.log(ts) ** 2, model="auto")
        assert est.model == "power-log"
        assert est.log_power == pytest.approx(2.0, abs=1e-6)

    def test_short_window_rejected(self):
        ts = np.geomspace(1.0, 50.0, 10)
        with pytest.raises(RateFitError, match="decades"):
            fit_rate(ts, ts ** -1.0)

    def test_few_points_rejected(self):
        ts = np.geomspace(0.1, 100, 5)
        with pytest.raises(RateFitError, match="points"):
            fit_rate(ts, ts ** -1.0)

    def test_nonpositive_dropped(self):
        ts = np.geomspace(0.1, 100, 12)
        vals = ts ** -1.0
        vals[3] = 0.0
        est = fit_rate(ts, vals)
        assert est.exponent == pytest.approx(-1.0, abs=1e-9)


class TestCaseTags:
    def test_zero_potential_alpha1(self, ps_zero):
        tag = classify_cases(ps_zero.table, 1)
        assert tag.near_zero == "B" and tag.zero_power == 0
        assert tag.near_infinity == "B" and tag.infinity_power == 0
        assert tag.render() == "B_1(0)/B'_1(0)"

    def test_hardy_alpha1_nondegenerate(self, ps_hardy):
        # A_0 = 1 is not in {0,...,alpha-1} = {0}
        tag = classify_cases(ps_hardy.table, 1)
        assert tag.near_zero == "A" and tag.near_infinity == "A"

    def test_hardy_alpha2_degenerate(self, ps_hardy):
        tag = classify_cases(ps_hardy.table, 2)
        assert tag.near_zero == "B" and tag.zero_power == 1

    def test_log_factor_forces_nondegenerate(self):
        n = 3
        spec = spectral.PotentialSpec(
            n, "table", 0.0, 1.0, spectral.lambda_star(n), 1.0, 1,
            lambda r: np.zeros_like(np.asarray(r, float)))
        tbl = spectral.exponent_table(spec, spectral.SUBCRITICAL, 2)
        assert tbl.B[0] == 1
        tag = classify_cases(tbl, 2)
        assert tag.near_infinity == "A"

    def test_ambiguous_band_raises(self, ps_zero):
        tbl = ps_zero.table
        tweaked = spectral.ExponentTable(
            tbl.dimension, tbl.k_max, tbl.criticality, tbl.omega, tbl.d,
            tbl.A1 + 5e-4, tbl.A2, tbl.B)
        with pytest.raises(AmbiguousCaseError):
            classify_cases(tweaked, 1)


class TestEnvelopes:
    def test_free_exponent_helper(self):
        lp = LorentzParams(1.0, INF, 1.0, INF)
        assert free_exponent(lp, 0, 3) == -1.5
        assert free_exponent(lp, 2, 3) == -2.5
        lp2 = LorentzParams(2.0, 2.0, 2.0, 2.0)
        assert free_exponent(lp2, 1, 3) == -0.5

    def test_phi0_zero_potential_rate(self, ps_zero):
        lp = LorentzParams(1.0, INF, 1.0, INF)
        vals = [phi_alpha(ps_zero, lp, 0, t) * t ** 1.5
                for t in np.geomspace(0.1, 100, 7)]
        assert max(vals) / min(vals) < 1.001

    def test_phi1_zero_potential_gradient_term_vanishes(self, ps_zero):
        # h_0 constant: only the free term survives
        lp = LorentzParams(2.0, INF, 2.0, INF)
        for t in (0.5, 5.0):
            got = phi_alpha(ps_zero, lp, 1, t)
            want = t ** -1.5 * ps_zero.h(0).lorentz_norm_on_ball(
                2.0, 2.0, math.sqrt(t)) / 1.0 * t ** -0.5
            # the gradient norm is numerically ~0, so phi ~ Gamma' * t^(-N/2) * t^(-1/2)
            assert got == pytest.approx(want, rel=1e-2)

    def test_phi_infinite_on_membership_failure(self):
        ps = ProfileSet.build(spectral.PotentialSpec.hardy(3, -0.2475),
                              k_max=2, grid=GRID)
        lp = LorentzParams(1.2, 2.0, 1.0, 2.0)  # p' = 6 > 20/3? p'=6 < 20/3 ok
        lp_bad = LorentzParams(1.1, 2.0, 1.0, 2.0)  # p' = 11 > 20/3
        assert phi_alpha(ps, lp_bad, 0, 1.0) == INF
        assert phi_alpha(ps, lp, 0, 1.0) < INF

    def test_phi_alpha_rates_hardy(self, ps_hardy):
        # (1,1) -> (2,2): all alpha <= 2 carry the free rate for A_0 = 1
        lp = LorentzParams(1.0, 2.0, 1.0, 2.0)
        for alpha in (0, 1, 2):
            want = free_exponent(lp, alpha, 3)
            vals = [phi_alpha(ps_hardy, lp, alpha, t) * t ** -want
                    for t in np.geomspace(0.1, 100, 7)]
            assert max(vals) / min(vals) < 1.6, alpha

    def test_upper_envelope_zero_potential(self, ps_zero):
        lp = LorentzParams(1.0, INF, 1.0, INF)
        for alpha in (0, 1, 2, 3):
            want = free_exponent(lp, alpha, 3)
            vals = [upper_envelope_J(ps_zero, lp, alpha, t) * t ** -want
                    for t in np.geomspace(0.1, 100, 5)]
            assert max(vals) / min(vals) < 1.3, alpha

    def test_upper_reduces_to_phi0(self, ps_hardy):
        lp = LorentzParams(1.0, 2.0, 1.0, 2.0)
        for t in (0.5, 5.0):
            up = upper_envelope_J(ps_hardy, lp, 0, t)
            ph = phi_alpha(ps_hardy, lp, 0, t)
            assert up / ph == pytest.approx(1.0, rel=0.75)

    def test_lower_envelope_floor(self, ps_zero, ps_hardy, ps_bounded):
        lp = LorentzParams(2.0, INF, 2.0, INF)
        for ps in (ps_zero, ps_hardy, ps_bounded):
            for alpha in (0, 1, 2):
                for t in (0.5, 50.0):
                    val = lower_envelope(ps, lp, alpha, t)
                    assert val >= t ** free_exponent(lp, alpha, 3) * (1 - 1e-12)

    def test_lower_envelope_zero_alpha1_floor_only(self, ps_zero):
        # constant profile kills the bracket term
        lp = LorentzParams(1.0, INF, 1.0, INF)
        t = 4.0
        assert lower_envelope(ps_zero, lp, 1, t) == pytest.approx(
            t ** free_exponent(lp, 1, 3))

    def test_lower_below_upper(self, ps_hardy):
        lp = LorentzParams(1.0, 2.0, 1.0, 2.0)
        ratios = []
        for alpha in (0, 1):
            for t in np.geomspace(0.1, 100, 5):
                lo = lower_envelope(ps_hardy, lp, alpha, t)
                hi = upper_envelope_J(ps_hardy, lp, alpha, t)
                ratios.append(lo / hi)
        assert max(ratios) < 3.0  # single bracket constant over the sweep


class TestSection7:
    def test_scale_invariant_free_rate(self, ps_hardy):
        lp = LorentzParams(1.0, INF, 1.0, INF)
        for alpha in (0, 1):
            pred = closed_form_rate(ps_hardy, lp, alpha)
            assert pred.theorem == "T7.1" and pred.applicable
            assert pred.exponent == pytest.approx(-1.5 - alpha / 2.0)
            assert pred.log_power == 0.0

    def test_scale_invariant_hypothesis_failure(self, ps_hardy):
        # alpha = 2 with target sup norm: r^(A_0 - 2) unbounded
        lp = LorentzParams(1.0, INF, 1.0, INF)
        pred = closed_form_rate(ps_hardy, lp, 2)
        assert not pred.applicable
        assert any(not ok for _, ok, _ in pred.hypotheses)

    def test_zero_potential_all_t(self, ps_zero):
        lp = LorentzParams(2.0, 4.0, 2.0, 4.0)
        pred = closed_form_rate(ps_zero, lp, 3)
        assert pred.applicable
        assert pred.exponent == pytest.approx(free_exponent(lp, 3, 3))

    def test_bounded_alpha0_large_time_free(self, ps_bounded):
        # A_20 = 0 >= alpha = 0: table branch reduces to the free rate
        lp = LorentzParams(2.0, INF, 2.0, INF)
        pred = closed_form_rate(ps_bounded, lp, 0)
        assert pred.applicable and pred.theorem == "T7.2"
        assert pred.exponent == pytest.approx(-0.75)
        assert pred.log_power == 0.0

    def test_flat_far_field_slow_rate(self, ps_bounded):
        # kappa = 4 > N = 3, alpha = 1, (p, q) = (2, inf):
        # eta_1 = (1+r)^-2 bounded below near 0, so the rate is -N/2p
        lp = LorentzParams(2.0, INF, 2.0, INF)
        pred = closed_form_rate(ps_bounded, lp, 1)
        assert pred.theorem == "T7.3" and pred.applicable
        assert pred.exponent == pytest.approx(-0.75)
        assert pred.log_power == 0.0
        # strictly slower than the free rate
        assert pred.exponent > free_exponent(lp, 1, 3) + 0.25

    def test_flat_far_field_kappa_below_dimension(self):
        ps = ProfileSet.build(spectral.PotentialSpec.inverse_power(3, 0.5, 2.5),
                              k_max=2, grid=GRID)
        lp = LorentzParams(2.0, INF, 2.0, INF)
        pred = closed_form_rate(ps, lp, 1)
        # eta_1 = (1+r)^(2-kappa-1) = (1+r)^(-1.5): sup stays bounded
        assert pred.applicable
        assert pred.exponent == pytest.approx(-0.75)

    def test_integrable_perturbation_route(self, ps_bounded):
        # force the pairing-integral route by dropping the kappa tag
        import copy
        ps2 = copy.copy(ps_bounded)
        spec2 = copy.copy(ps_bounded.spec)
        spec2.params = {k: v for k, v in spec2.params.items() if k != "kappa"}
        ps2.spec = spec2
        lp = LorentzParams(2.0, INF, 2.0, INF)
        pred = closed_form_rate(ps2, lp, 1)
        assert pred.theorem == "T7.4" and pred.applicable
        assert pred.exponent == pytest.approx(-0.75)


class TestClosedFormBranches:
    """The theta, sigma' and degenerate branches of the closed-form rates,
    each against a value derived by hand from the stated asymptotics."""

    @pytest.mark.parametrize("e, b, q, theta, expected", [
        # q < inf, q e + N > 0: ||(1+r)^-1||_2 on B(0, R) in N = 3 grows
        # like R^(1/2) = t^(1/4)
        (-1.0, 0, 2.0, 2.0, (0.25, 0.0)),
        # q e + N = 0: (1+r)^(-3/2) has f*(s) ~ s^(-1/2), so the L^{2,4}
        # norm on the ball is (int ds/s)^(1/4) ~ (log t)^(1/4)
        (-1.5, 0, 2.0, 4.0, (0.0, 0.25)),
        # ... and r^(-N/q) lies in L^{q,inf}: bounded
        (-1.5, 0, 2.0, INF, (0.0, 0.0)),
        # q e + N < 0: integrable at infinity, bounded
        (-2.0, 0, 2.0, 2.0, (0.0, 0.0)),
        # q = inf, e > 0: the sup (1+sqrt t)^e log^b grows like t^(e/2)
        (1.0, 0, INF, INF, (0.5, 0.0)),
        (1.0, 1, INF, INF, (0.5, 1.0)),
    ])
    def test_ball_norm_growth(self, e, b, q, theta, expected):
        assert _ball_norm_growth(e, b, q, theta, 3) == pytest.approx(expected)

    @staticmethod
    def _table(a20, b0):
        return spectral.ExponentTable(
            3, 0, spectral.NULL_CRITICAL, np.array([0.0]), np.array([1]),
            np.array([0.0]), np.array([a20]), np.array([b0]))

    @pytest.mark.parametrize("p, sigma, expected", [
        # p > p_* = N / (N + A_20) = 3/2: ||r^-1||_{3/2'} on B(0, sqrt t)
        # over h_0(sqrt t) grows like t^(N/2p')
        (2.0, 2.0, (0.75, 0.0)),
        # p = p_*: r^-1 sits at the L^{3,sigma'} endpoint, so the norm is
        # (log t)^(1/sigma'); the quotient by h_0(sqrt t) gives t^(1/2)
        (1.5, 2.0, (0.5, 0.5)),
        (1.5, 1.0, (0.5, 0.0)),        # sigma' = inf: no log factor
        # p < p_*: h_0 lies in L^{p'} at infinity, only the quotient grows
        (1.2, 1.2, (0.5, 0.0)),
    ])
    def test_gamma_dual_growth(self, p, sigma, expected):
        lp = LorentzParams(p, INF, sigma, INF)
        assert _gamma_dual_growth(self._table(-1.0, 0), lp) \
            == pytest.approx(expected)

    def test_gamma_dual_growth_log_profile(self):
        # h_0 ~ r^-1/2 log r at lambda_2 = lambda_*: p_* = 3/2.5 = 1.2, and
        # below it the quotient by h_0(sqrt t) loses one log power
        lp = LorentzParams(1.1, INF, 1.1, INF)
        assert _gamma_dual_growth(self._table(-0.5, 1), lp) \
            == pytest.approx((0.25, -1.0))

    def test_scale_invariant_even_degree(self):
        # lambda = 6, N = 3: A_0 = 2 solves A(A + 1) = 6, an even degree;
        # A_1 = (sqrt 33 - 1)/2 ~ 2.37 solves A(A + 1) = 6 + omega_1 = 8.
        # Into L^inf: alpha <= A_0 passes the clause, and at alpha = 3 the
        # first mode r^(A_1 - 3) is unbounded at the origin
        ps = ProfileSet.build(spectral.PotentialSpec.hardy(3, 6.0), k_max=1,
                              grid=GRID)
        lp = LorentzParams(1.0, INF, 1.0, INF)
        for alpha in (0, 1, 2):
            pred = closed_form_rate(ps, lp, alpha)
            assert pred.theorem == "T7.1" and pred.applicable
            assert pred.exponent == pytest.approx(-1.5 - alpha / 2.0)
            assert [c for c, _, _ in pred.hypotheses][-1] \
                == "even-degree degenerate clause"
        pred = closed_form_rate(ps, lp, 3)
        assert not pred.applicable and pred.exponent is None
        assert ("even-degree degenerate clause", False) in \
            [(c, ok) for c, ok, _ in pred.hypotheses]

    def test_flat_far_field_kappa_equal_dimension(self):
        # kappa = N = 3: eta_1 = (1+r)^(2-N-1) log r = (1+r)^-2 log r.
        # Into L^inf it is bounded, so the rate is -N/2p = -3/4 at p = 2.
        # Into L^{3/2,2} (q e + N = 0) it grows like (log t)^(1 + 1/2),
        # below the free term t^(N/2q - 1/2) = t^(1/2): -3/2 + 1/2 = -1.
        # For N >= 3 the log factor never outgrows the free term.
        ps = ProfileSet.build(spectral.PotentialSpec.inverse_power(3, 1.0, 3.0),
                              k_max=1, grid=GRID)
        for lp, expo in ((LorentzParams(2.0, INF, 2.0, INF), -0.75),
                         (LorentzParams(1.0, 1.5, 1.0, 2.0), -1.0)):
            pred = closed_form_rate(ps, lp, 1)
            assert pred.theorem == "T7.3" and pred.applicable
            assert pred.exponent == pytest.approx(expo)
            assert pred.log_power == 0.0

    def test_unrecognized_family(self, ps_hardy):
        # lambda_1 = 1 at the origin, r^-4 at infinity: neither Hardy nor
        # zero nor inverse_power, so no closed form applies and none is made up
        import copy
        ps2 = copy.copy(ps_hardy)
        ps2.spec = spectral.PotentialSpec(
            3, "custom", 1.0, 2.0, 0.0, 2.0, 2,
            lambda r: 1.0 / (r * r * (1.0 + r * r)))
        with pytest.raises(ValueError, match="'custom'"):
            closed_form_rate(ps2, LorentzParams(1.0, INF, 1.0, INF), 0)


class TestConsistencyCheck:
    def test_zero_coupling_blocks_free_gradient_rate(self, ps_bounded):
        from lorentzheat.rates import RateEstimate
        fits = {
            0: RateEstimate(1.0, -0.75, 0.0, 0.01, (10, 1000), "pure-power"),
            1: RateEstimate(1.0, -0.75, 0.0, 0.01, (10, 1000), "pure-power"),
        }
        rows = consistency_check_free_rate(ps_bounded, 2.0, fits)
        by_alpha = {r["alpha"]: r for r in rows}
        # alpha = 0: free rate achieved, characterization allows it
        assert not by_alpha[0]["free_rate_violated"]
        assert by_alpha[0]["characterization_allows_free"]
        # alpha = 1: lambda_2 = 0 outside [omega_1, inf) forces violation
        assert by_alpha[1]["free_rate_violated"]
        assert not by_alpha[1]["characterization_allows_free"]
        assert all(r["consistent"] for r in rows)

    def test_zero_potential_allows_free_rate_at_every_order(self, ps_zero):
        # V = 0 is -Delta itself: the free fit is consistent at every alpha
        from lorentzheat.rates import RateEstimate
        # exactly the free exponents -N/(2p) - alpha/2 of L^2 -> L^inf, N = 3
        fits = {a: RateEstimate(1.0, -0.75 - a / 2.0, 0.0, 0.01, (10, 1000),
                                "pure-power")
                for a in (0, 1, 2)}
        rows = consistency_check_free_rate(ps_zero, 2.0, fits)
        assert [r["alpha"] for r in rows] == [0, 1, 2]
        for r in rows:
            assert not r["free_rate_violated"]
            assert r["characterization_allows_free"]
            assert r["consistent"]

    def test_hardy_free_rates_consistent(self, ps_hardy):
        from lorentzheat.rates import RateEstimate
        fits = {0: RateEstimate(1.0, -0.75, 0.0, 0.01, (10, 1000), "pure-power")}
        rows = consistency_check_free_rate(ps_hardy, 2.0, fits)
        assert rows[0]["consistent"]
