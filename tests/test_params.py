import math
import warnings
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from lorentzheat import params, quadrature
from lorentzheat.params import (
    INF,
    INF_DECAY,
    LambdaMembershipError,
    LorentzParams,
    RadialProfile,
    holder_conjugate,
    power_membership,
    unit_ball_volume,
)

from oracles import power_norm_asymptotic, segment_lp_norm

A3 = unit_ball_volume(3)


class TestLambdaValidation:
    def test_endpoint_tuple_valid(self):
        lp = LorentzParams(1, INF, 1, INF)
        assert lp.p == 1 and lp.q == INF

    def test_l2_tuple_valid(self):
        assert LorentzParams(2, 2, 2, 2).sigma == 2

    def test_ordering_violation(self):
        with pytest.raises(LambdaMembershipError, match="p <= q"):
            LorentzParams(2, 1, 2, 1)

    def test_sigma_forced_at_p1(self):
        with pytest.raises(LambdaMembershipError, match="sigma must be 1"):
            LorentzParams(1, 2, 2, 2)

    def test_sigma_forced_at_p_inf(self):
        with pytest.raises(LambdaMembershipError, match="sigma must be inf"):
            LorentzParams(INF, INF, 2, INF)

    def test_theta_forced_at_q_inf(self):
        with pytest.raises(LambdaMembershipError):
            LorentzParams(1, INF, 1, 2)

    def test_sigma_le_theta_on_diagonal(self):
        with pytest.raises(LambdaMembershipError, match="sigma <= theta"):
            LorentzParams(2, 2, 3, 2)

    def test_conjugates(self):
        assert holder_conjugate(1) == INF
        assert holder_conjugate(INF) == 1
        assert holder_conjugate(2) == 2
        assert math.isclose(holder_conjugate(4), 4 / 3)
        lp = LorentzParams(4, INF, 2, INF)
        assert math.isclose(lp.p_conj, 4 / 3) and lp.sigma_conj == 2

    @given(p=st.floats(1.001, 50), frac=st.floats(0, 1), s=st.floats(1, 50))
    @settings(max_examples=60, deadline=None)
    def test_conjugate_involution_and_membership(self, p, frac, s):
        q = p + frac * (50 - p)
        assert math.isclose(holder_conjugate(holder_conjugate(p)), p, rel_tol=1e-9)
        lp = LorentzParams(p, q, s, s if p == q else max(s, 1))
        assert lp.p <= lp.q


class TestDistributionFunction:
    def test_ball_indicator(self):
        phi = RadialProfile.indicator_ball(1.0, 3)
        assert phi.distribution_function(0.5) == pytest.approx(4 * math.pi / 3)

    def test_inverse_power_full_space(self):
        # |x|^-1 on B(0, 1e4) in R^3: mu(lam) = (4 pi / 3) lam^-3 for lam > 1e-4
        phi = RadialProfile.power(-1.0, 3)
        for lam in (0.1, 1.0, 7.3):
            assert phi.distribution_function(lam) == pytest.approx(
                A3 * lam ** -3, rel=1e-12)

    def test_above_sup_is_zero(self):
        phi = RadialProfile.indicator_ball(2.0, 3)
        assert phi.distribution_function(1.0) == 0.0
        assert phi.distribution_function(5.0) == 0.0

    def test_monotone_in_lambda(self):
        grid = np.geomspace(1e-4, 10, 200)
        phi = RadialProfile(grid, np.exp(-grid), 3)
        lams = np.linspace(1e-3, 0.999, 40)
        mus = [phi.distribution_function(l) for l in lams]
        assert all(a >= b for a, b in zip(mus, mus[1:]))

    def test_radial_nonincreasing_level_sets_are_balls(self):
        # phi decreases, so {|phi| > phi(r)} is the ball B(0, r)
        grid = np.geomspace(1e-3, 20, 300)
        phi = RadialProfile(grid, 1.0 / (1.0 + grid ** 2), 3)
        for r in (0.01, 0.5, 3.0):
            assert phi.distribution_function(phi.eval(r)) == pytest.approx(
                A3 * r ** 3, rel=1e-10)

    def test_measure_past_the_float_range_is_inf_quietly(self):
        # r^-0.02 on a grid out to 1e200 in R^3: r^3 overflows beyond about
        # 5.6e102, where r^-0.02 is about 0.0089, so every level below that has
        # a measure past the largest float, and every norm is inf; no NaN and
        # no overflow or invalid-value warning on the way
        grid = np.geomspace(1e-3, 1e200, 400)
        phi = RadialProfile(grid, grid ** -0.02, 3)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for lam in (1e-4, 1e-3, 5e-3):
                assert phi.distribution_function(lam) == INF, lam
            # {r^-0.02 > 1/2} = B(0, 2^50)
            assert phi.distribution_function(0.5) == pytest.approx(
                A3 * 2.0 ** 150, rel=1e-9)
            for p, sigma in [(2.0, INF), (2.0, 1.0), (2.0, 2.0), (2.0, 3.0),
                             (1.0, 1.0), (INF, INF)]:
                assert phi.lorentz_norm(p, sigma) == INF, (p, sigma)

    def test_infinite_measure_at_a_zero_weight_node_is_inf_quietly(self):
        # sin(log r) beyond r = 1e150 in R^2: r^2 overflows, so the levels
        # below its peaks have an infinite measure, and equal levels make
        # Gauss nodes of zero weight among them (inf * 0 if summed)
        grid = np.geomspace(1e-3, 1e200, 400)
        phi = RadialProfile(grid, np.where(grid > 1e150, np.sin(np.log(grid)),
                                           0.0), 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for sigma in (1.0, 3.0):
                assert phi.lorentz_norm(2.0, sigma) == INF, sigma


class TestLorentzNorm:
    def test_indicator_lp(self):
        phi = RadialProfile.indicator_ball(1.0, 3)
        for p in (1.0, 2.0, 3.5):
            assert phi.lorentz_norm(p, p) == pytest.approx(A3 ** (1 / p), rel=1e-10)

    def test_indicator_weak(self):
        phi = RadialProfile.indicator_ball(1.0, 3)
        for p in (1.5, 2.0, 6.0):
            assert phi.lorentz_norm(p, INF) == pytest.approx(1.0, rel=1e-10)

    def test_borderline_power_diverges(self):
        # r^(-N/p) on a ball: pA + N = 0 fails the strict rule for sigma < inf
        p = 2.0
        phi = RadialProfile.power(-1.5, 3, r_max=1.0)
        assert phi.lorentz_norm(p, p) == INF
        assert phi.lorentz_norm(p, 2.5) == INF
        # but the weak norm is finite
        assert phi.lorentz_norm(p, INF) < INF

    def test_power_on_ball_closed_form(self):
        # ||r^A||_p^p = N a_N R^(pA+N) / (pA + N) on B(0, R)
        for (A, p, R) in [(1.0, 2.0, 1.0), (0.5, 3.0, 2.0), (-0.5, 2.0, 0.7)]:
            phi = RadialProfile.power(A, 3, r_max=R)
            expect = (3 * A3 / (p * A + 3)) ** (1 / p) * R ** (A + 3 / p)
            assert phi.lorentz_norm(p, p) == pytest.approx(expect, rel=1e-9)

    def test_constant_on_sqrt_t_ball(self):
        t = 4.0
        phi = RadialProfile.indicator_ball(math.sqrt(t), 3)
        for p in (1.0, 2.0):
            assert phi.lorentz_norm(p, p) == pytest.approx(
                A3 ** (1 / p) * t ** (3 / (2 * p)), rel=1e-10)

    def test_lorentz_norm_on_ball_restriction(self):
        phi = RadialProfile.power(1.0, 3)  # r on B(0, 1e4)
        val = phi.lorentz_norm_on_ball(2.0, 2.0, 1.0)
        expect = (3 * A3 / 5) ** 0.5
        assert val == pytest.approx(expect, rel=1e-9)

    def test_lpp_matches_direct_quadrature_smooth(self):
        from lorentzheat.quadrature import cumulative_integral

        grid = np.geomspace(1e-5, 30, 2000)
        vals = np.exp(-grid ** 2 / 2)
        phi = RadialProfile(grid, vals, 3, inner_exponent=0.0)
        p = 2.0
        # direct radial L^p quadrature of the same interpolant
        direct = (4 * math.pi * cumulative_integral(
            grid, vals ** p * grid ** 2)[-1]) ** (1 / p)
        assert phi.lorentz_norm(p, p) == pytest.approx(direct, rel=1e-6)
        # and the plain trapezoid agrees at its own accuracy
        trap = (4 * math.pi * np.trapezoid(vals ** p * grid ** 2, grid)) ** (1 / p)
        assert phi.lorentz_norm(p, p) == pytest.approx(trap, rel=1e-4)

    def test_sup_norm(self):
        grid = np.geomspace(0.01, 10, 50)
        vals = grid / (1 + grid ** 2)
        phi = RadialProfile(grid, vals, 3)
        assert phi.lorentz_norm(INF, INF) == pytest.approx(np.max(vals), rel=1e-6)

    def test_signed_profile_uses_absolute_value(self):
        grid = np.geomspace(0.1, 10, 400)
        vals = np.sin(grid) * np.exp(-grid)
        phi = RadialProfile(grid, vals, 3, inner_exponent=1.0)
        neg = RadialProfile(grid, -vals, 3, inner_exponent=1.0)
        assert phi.lorentz_norm(2, 2) == pytest.approx(
            neg.lorentz_norm(2, 2), rel=1e-12)
        # interpolation across sign changes is linear, so the pre-abs'd
        # profile only agrees up to the interpolant difference
        phi_abs = RadialProfile(grid, np.abs(vals), 3, inner_exponent=1.0)
        assert phi.lorentz_norm(2, 2) == pytest.approx(
            phi_abs.lorentz_norm(2, 2), rel=1e-4)

    def test_nesting_in_sigma(self):
        # finiteness for sigma_1 implies finiteness for sigma_2 >= sigma_1
        profiles = [
            RadialProfile.power(-0.8, 3, r_max=1.0),
            RadialProfile.power(0.5, 3, r_max=2.0),
            RadialProfile.indicator_annulus(0.5, 2.0, 3),
        ]
        for phi in profiles:
            for p in (2.0, 3.0):
                norms = [phi.lorentz_norm(p, s) for s in (1.0, 2.0, 4.0, INF)]
                for a, b in zip(norms, norms[1:]):
                    assert (a < INF) <= (b < INF)

    def test_quasi_triangle_uniform_constant(self):
        # ||f+g|| <= C (||f|| + ||g||) with one corpus-wide constant
        grid = np.geomspace(1e-6, 1.0, 600)
        p, sigma = 2.0, 4.0
        worst = 0.0
        corpus = [(-0.7, 0.3), (0.0, 1.0), (-0.5, -0.5), (0.5, 2.0)]
        for (af, ag) in corpus:
            f = RadialProfile(grid, grid ** af, 3, inner_exponent=af)
            g = RadialProfile(grid, grid ** ag, 3, inner_exponent=ag)
            s = RadialProfile(grid, grid ** af + grid ** ag, 3)
            num = s.lorentz_norm(p, sigma)
            den = f.lorentz_norm(p, sigma) + g.lorentz_norm(p, sigma)
            worst = max(worst, num / den)
        assert 0 < worst < 4.0

    def test_holder_pairing_uniform_constant(self):
        # ||f g||_1 <= C ||f||_{p,sigma} ||g||_{p',sigma'} over a small corpus
        grid = np.geomspace(1e-6, 1.0, 800)
        corpus = [(-0.7, 0.2), (-0.5, 0.0), (0.0, 1.0), (0.8, -0.9)]
        worst = 0.0
        p, sigma = 2.0, 3.0
        ps, ss = holder_conjugate(p), holder_conjugate(sigma)
        for (af, ag) in corpus:
            f = RadialProfile(grid, grid ** af, 3, inner_exponent=af)
            g = RadialProfile(grid, grid ** ag, 3, inner_exponent=ag)
            fg = RadialProfile(grid, grid ** (af + ag), 3, inner_exponent=af + ag)
            l1 = fg.lorentz_norm(1.0, 1.0)
            bound = f.lorentz_norm(p, sigma) * g.lorentz_norm(ps, ss)
            if math.isfinite(l1) and math.isfinite(bound):
                worst = max(worst, l1 / bound)
        assert 0 < worst < 10.0  # single corpus-wide constant


class TestPowerNormAsymptotics:
    def test_constant(self):
        assert power_norm_asymptotic(0.0, 2.0, 2.0, 9.0, 3) == pytest.approx(
            9.0 ** (3 / 4))

    def test_membership_error(self):
        with pytest.raises(LambdaMembershipError):
            power_norm_asymptotic(-2.0, 2.0, 2.0, 1.0, 3)

    def test_membership_rule(self):
        assert power_membership(-1.5, 2.0, INF, 3)
        assert not power_membership(-1.5, 2.0, 2.0, 3)
        assert power_membership(0.0, INF, INF, 3)
        assert not power_membership(-0.1, INF, INF, 3)

    def test_ratio_bounded_over_sweep(self):
        # ||f_A||_{L^{p,s}(B(0,sqrt t))} / t^(A/2 + N/2p) stays in a fixed band
        A, p, sigma = 1.0, 2.0, 4.0
        phi = RadialProfile.power(A, 3)
        ratios = []
        for t in np.geomspace(0.01, 100, 9):
            val = phi.lorentz_norm_on_ball(p, sigma, math.sqrt(t))
            ratios.append(val / power_norm_asymptotic(A, p, sigma, t, 3))
        assert max(ratios) / min(ratios) < 1.0 + 1e-9  # exactly a power here


class TestProfileBasics:
    def test_eval_power_exact(self):
        phi = RadialProfile.power(1.5, 3, r_min=1e-6, r_max=100.0)
        r = np.array([1e-7, 1e-3, 1.0, 50.0])
        assert np.allclose(phi.eval(r), r ** 1.5, rtol=1e-12)

    def test_eval_takes_the_flat_piece_the_norms_take(self):
        # the first interval's exponent, about 5e-14, is below the flat
        # threshold: the segment set and lp_norms integrate 1 there, and eval
        # returns it
        phi = RadialProfile(np.array([1.0, 2.0, 4.0]), np.array([1.0, 1.0 + 3.5e-14, 1.0]),
                            3, inner_exponent=0.0)
        assert phi.segments().expo[1] == 0.0
        assert phi.eval(1.5) == 1.0
        assert phi.eval(np.array([1.5, 1.9])).tolist() == [1.0, 1.0]

    @pytest.mark.parametrize("inner", [2.0, 0.5, -0.7, INF_DECAY])
    def test_eval_at_a_point_equals_the_array_path(self, inner):
        # sin(3 log r) r^0.3 changes sign between nodes and has a run of
        # zero nodes, so the points take power and linear pieces, the inner
        # extension (a = 0.5 is numpy's sqrt branch of **), r == g[-1] and
        # points beyond the grid
        rng = np.random.default_rng(3)
        grid = np.geomspace(1e-3, 1e2, 200)
        vals = np.sin(3.0 * np.log(grid)) * grid ** 0.3
        vals[90:100] = 0.0
        phi = RadialProfile(grid, vals, 3, inner_exponent=inner)
        r = np.concatenate((
            grid[0] * np.exp(rng.uniform(-8.0, 0.0, 100)),
            np.exp(rng.uniform(math.log(grid[0]), math.log(grid[-1]), 1000)),
            grid, grid[-1] * np.array([1.0 + 1e-15, 1.5, 1e9])))
        expect = phi.eval(r)
        assert np.isfinite(expect).all()
        for point in (r.tolist(), list(r), [np.array(x) for x in r]):
            got = np.array([phi.eval(x) for x in point])
            assert got.tobytes() == expect.tobytes()
        assert isinstance(phi.eval(float(grid[-1])), np.float64)

    def test_invalid_grid_rejected(self):
        with pytest.raises(ValueError):
            RadialProfile(np.array([0.0, 1.0]), np.array([1.0, 1.0]), 3)
        with pytest.raises(ValueError):
            RadialProfile(np.array([1.0, 1.0]), np.array([1.0, 1.0]), 3)
        with pytest.raises(ValueError):
            RadialProfile(np.array([1.0, 2.0]), np.array([1.0, np.nan]), 3)


def _mu_oracle(segs, lam_desc):
    """mu at descending levels, summed one segment at a time with scalar
    segment parameters: closed-form partial volumes on the levels inside a
    segment's value range, its whole volume on the levels below it."""
    mu = np.zeros(lam_desc.size)
    whole = np.zeros(lam_desc.size + 1)
    neg = -lam_desc
    for i in range(segs.ra.size):
        lo = np.searchsorted(neg, -segs.vmax[i], side="right")
        hi = np.searchsorted(neg, -segs.vmin[i], side="right")
        lam = lam_desc[lo:hi]
        if lam.size:
            if segs.kind[i] == params._POWER:
                a = segs.expo[i]
                # an array exponent, as in mu_batch: for a scalar 2, 0.5 or -1
                # numpy takes other loops (square, sqrt, reciprocal)
                rstar = segs.ra[i] * np.power(lam / segs.va[i],
                                              np.full(lam.size, 1.0 / a))
                increasing = a > 0
            else:
                rstar = (lam - segs.icpt[i]) / segs.slope[i]
                increasing = segs.slope[i] > 0
            if increasing:
                r_lo, r_hi = np.maximum(segs.r0[i], rstar), np.full_like(lam, segs.r1[i])
            else:
                r_lo, r_hi = np.full_like(lam, segs.r0[i]), np.minimum(segs.r1[i], rstar)
            mu[lo:hi] += np.maximum(segs.alpha_N * (r_hi ** segs.N - r_lo ** segs.N), 0.0)
        whole[hi] += segs.vol[i]
    return mu + np.cumsum(whole[:-1])


def _segments_oracle(phi):
    """Segment fields of phi built one grid interval at a time, with numpy's
    log and power as the program uses them, plus each segment's value range:
    its power-law ends, or exactly 0 and the anchor value on a line."""
    g, v = phi.grid, phi.values
    rows = []  # (r0, r1, kind, ra, va, expo, slope, icpt)

    def linear(r0, r1, y0, y1):
        m = (y1 - y0) / (r1 - r0)
        rows.append((r0, r1, params._LINEAR, r0, max(y0, y1), 0.0, m, y0 - m * r0))

    if v[0] != 0.0 and phi.inner_exponent != INF_DECAY:
        rows.append((0.0, g[0], params._POWER, g[0], abs(v[0]), phi.inner_exponent,
                     0.0, 0.0))
    for r0, r1, v0, v1 in zip(g[:-1], g[1:], v[:-1], v[1:]):
        if v0 * v1 > 0.0:
            a = np.log(abs(v1 / v0)) / np.log(r1 / r0)
            a = 0.0 if abs(a) < quadrature._FLAT_EPS else a
            rows.append((r0, r1, params._POWER, r0, abs(v0), a, 0.0, 0.0))
        elif v0 * v1 < 0.0:
            rc = r0 + (r1 - r0) * v0 / (v0 - v1)
            linear(r0, rc, abs(v0), 0.0)
            linear(rc, r1, 0.0, abs(v1))
        elif v0 != 0.0 or v1 != 0.0:
            linear(r0, r1, abs(v0), abs(v1))

    def value(row, r):
        _, _, _, ra, va, a, _, _ = row
        if r == 0.0:
            return INF if a < 0 else (va if a == 0 else 0.0)
        return va * np.power(r / ra, a)

    # a linear piece runs from a zero to its anchor node value, exactly
    ends = [(0.0, row[4]) if row[2] == params._LINEAR else
            (value(row, row[0]), value(row, row[1])) for row in rows]
    return rows, [min(e) for e in ends], [max(e) for e in ends]


# zeros, flat runs and sign changes come from the sampled values
_VALUE = st.one_of(st.sampled_from([0.0, 1.0, -1.0, 2.0]),
                   st.floats(0.01, 3.0), st.floats(-3.0, -0.01))


@st.composite
def signed_profiles(draw):
    n = draw(st.integers(2, 30))
    if draw(st.booleans()):
        values = np.array(draw(st.lists(_VALUE, min_size=n, max_size=n)))
        steps = draw(st.lists(st.floats(0.05, 1.5), min_size=n - 1, max_size=n - 1))
    else:
        # slowly varying, as on fine grids: neighbour ratios near 1
        drift = draw(st.lists(st.floats(-0.05, 0.05), min_size=n - 1, max_size=n - 1))
        signs = draw(st.lists(st.sampled_from([1.0] * 6 + [-1.0, 0.0]), min_size=n,
                              max_size=n))
        values = np.exp(np.concatenate(([0.0], np.cumsum(drift)))) * np.array(signs)
        steps = draw(st.lists(st.floats(0.001, 0.05), min_size=n - 1, max_size=n - 1))
    grid = 1e-2 * np.exp(np.concatenate(([0.0], np.cumsum(steps))))
    inner = draw(st.sampled_from([None, INF_DECAY, 0.0, 1.0, -1.0, 2.0, 0.5, -0.8]))
    dimension = draw(st.sampled_from([2, 3, 5]))
    return RadialProfile(grid, values, dimension, inner_exponent=inner)


def _test_levels(segs, extra):
    """Descending levels: every finite segment end value, points just beside
    them, and extra levels."""
    ends = np.concatenate((segs.vmin, segs.vmax))
    ends = ends[np.isfinite(ends) & (ends > 0.0)]
    lam = np.concatenate((ends, ends * (1.0 + 1e-9), ends * (1.0 - 1e-9), extra))
    return np.unique(lam)[::-1]


def _restrict_by_eval(phi, r_hi):
    """The reference restriction: eval at every node below r_hi."""
    if r_hi <= phi.grid[0]:
        sub = np.array([r_hi * 1e-6, r_hi])
    else:
        sub = np.append(phi.grid[phi.grid < r_hi], r_hi)
    return RadialProfile(sub, phi.eval(sub), phi.dimension,
                         inner_exponent=phi.inner_exponent)


class TestRestrict:
    @given(phi=signed_profiles(), where=st.floats(-0.5, 1.5),
           on_node=st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_matches_evaluating_every_node(self, phi, where, on_node):
        # at a node eval returns the node's value: the restriction that reads
        # the node values is the same profile, to the last bit (a zero may
        # change sign, which no norm reads)
        g = phi.grid
        if on_node:
            r_hi = g[int(np.clip(round(where * (g.size - 1)), 0, g.size - 1))]
        else:
            r_hi = g[0] * (g[-1] / g[0]) ** where
        got, expect = phi.restrict(r_hi), _restrict_by_eval(phi, r_hi)
        assert got.grid.tobytes() == expect.grid.tobytes()
        assert np.abs(got.values).tobytes() == np.abs(expect.values).tobytes()
        assert np.array_equal(got.values, expect.values)
        assert got.inner_exponent == expect.inner_exponent
        for p, sigma in ((1.0, 1.0), (2.0, INF), (INF, INF), (1.5, 3.0)):
            assert got.lorentz_norm(p, sigma) == expect.lorentz_norm(p, sigma)


class TestDistributionKernel:
    @given(phi=signed_profiles(),
           extra=st.lists(st.floats(1e-12, 10.0), min_size=1, max_size=20))
    @settings(max_examples=150, deadline=None)
    def test_mu_batch_matches_segmentwise_oracle(self, phi, extra):
        segs = phi.segments()
        lam = _test_levels(segs, np.array(extra))
        expect = _mu_oracle(segs, lam)
        # small blocks split the level ranges a segment straddles
        for block in (params._PAIR_BLOCK, 1, 7):
            with mock.patch.object(params, "_PAIR_BLOCK", block), \
                    warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                got = segs.mu_batch(lam)
            assert np.array_equal(got, expect), block

    @given(phi=signed_profiles())
    @settings(max_examples=150, deadline=None)
    def test_segments_match_intervalwise_oracle(self, phi):
        # bit for bit: an ulp in an exponent or end value moves quadrature levels
        rows, vmin, vmax = _segments_oracle(phi)
        segs = phi.segments()
        fields = (segs.r0, segs.r1, segs.kind, segs.ra, segs.va, segs.expo,
                  segs.slope, segs.icpt)
        for got, expect in zip(fields, zip(*rows) if rows else [[]] * 8):
            assert np.array_equal(got, np.array(expect, dtype=got.dtype))
        assert np.array_equal(segs.vmin, vmin) and np.array_equal(segs.vmax, vmax)

    @given(phi=signed_profiles(), k=st.integers(-6, 6))
    @settings(max_examples=60, deadline=None)
    def test_dilation_law(self, phi, k):
        # ||f(c .)||_{L^{p,sigma}} = c^(-N/p) ||f||_{L^{p,sigma}}.  With c a
        # power of two the dilated profile has the same values, levels and
        # quadrature nodes, so the law must hold to rounding.
        scale = 2.0 ** k
        dilated = RadialProfile(phi.grid / scale, phi.values, phi.dimension,
                                inner_exponent=phi.inner_exponent)
        for p, sigma in [(1.0, 1.0), (1.5, 1.0), (1.5, 3.0), (2.0, 2.0),
                         (2.0, INF), (4.0, 2.0), (INF, INF)]:
            base = phi.lorentz_norm(p, sigma)
            got = dilated.lorentz_norm(p, sigma)
            factor = 1.0 if p == INF else scale ** (-phi.dimension / p)
            if base == INF:
                assert got == INF
            else:
                assert got == pytest.approx(factor * base, rel=1e-12, abs=0.0)


def _lp_quad_oracle(phi, p):
    """||phi||_{L^p} by scipy quad of |phi|^p r^(N-1) on each node interval
    (split at an interpolated zero), the inner power extension in closed
    form."""
    from scipy.integrate import quad

    n, g, v = phi.dimension, phi.grid, phi.values
    total = 0.0
    for r0, r1, v0, v1 in zip(g[:-1], g[1:], v[:-1], v[1:]):
        if v0 == 0.0 and v1 == 0.0:
            continue
        split = None
        if v0 * v1 > 0.0:
            a = math.log(v1 / v0) / math.log(r1 / r0)
            f = lambda r: abs(v0 * (r / r0) ** a) ** p * r ** (n - 1)
        else:
            f = lambda r: abs(v0 + (v1 - v0) * (r - r0) / (r1 - r0)) ** p * r ** (n - 1)
            if v0 * v1 < 0.0:
                split = [r0 + (r1 - r0) * v0 / (v0 - v1)]
        total += quad(f, r0, r1, points=split, epsabs=0.0, epsrel=1e-13, limit=200)[0]
    a = phi.inner_exponent
    if v[0] != 0.0 and a != INF_DECAY:
        s = a * p + n
        if s <= 0.0:
            return INF
        total += abs(v[0]) ** p * g[0] ** n / s
    return (n * unit_ball_volume(n) * total) ** (1.0 / p)


class TestExactLpNorm:
    @given(phi=signed_profiles(), p=st.sampled_from([1.0, 1.5, 2.0, 3.5]))
    @settings(max_examples=150, deadline=None)
    def test_matches_quad_oracle(self, phi, p):
        expect = _lp_quad_oracle(phi, p)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = phi.lorentz_norm(p, p)
        if expect == INF:
            assert got == INF
        else:
            assert got == pytest.approx(expect, rel=1e-12, abs=0.0)

    @given(phi=signed_profiles(), c=st.floats(0.01, 100.0),
           p=st.sampled_from([1.0, 1.5, 2.0, 3.5]))
    @settings(max_examples=100, deadline=None)
    def test_dilation_law_general_factor(self, phi, c, p):
        dilated = RadialProfile(phi.grid / c, phi.values, phi.dimension,
                                inner_exponent=phi.inner_exponent)
        base = phi.lorentz_norm(p, p)
        got = dilated.lorentz_norm(p, p)
        if base == INF:
            assert got == INF
        else:
            assert got == pytest.approx(c ** (-phi.dimension / p) * base, rel=1e-13,
                                        abs=0.0)

    @given(phi=signed_profiles(), c=st.sampled_from([1e-300, 1e100, 1e300]),
           p=st.sampled_from([1.0, 3.5]))
    # a sign change across a long interval
    @example(phi=RadialProfile(np.array([0.01, 2.65e8, 7.2e8]), np.array([1.0, 1.0, -1.0]), 2),
             c=1e300, p=1.0)
    @settings(max_examples=90, deadline=None)
    def test_homogeneous_at_extreme_magnitudes(self, phi, c, p):
        # |phi|^p underflows for values near 1e-300 and overflows near 1e100 at
        # p = 3.5; near 1e-300 the product of two neighbouring values underflows,
        # near 1e300 the product of a value and an interval length overflows
        scaled = RadialProfile(phi.grid, c * phi.values, phi.dimension,
                               inner_exponent=phi.inner_exponent)
        base = phi.lorentz_norm(p, p)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = scaled.lorentz_norm(p, p)
        if base == INF:
            assert got == INF
        else:
            assert got == pytest.approx(c * base, rel=1e-13, abs=0.0)

    def test_hat_profile_has_one_exact_level(self):
        # the lines' zero ends are exactly 0 and their node ends exactly 1
        phi = RadialProfile(np.geomspace(0.01, 1, 5), np.array([0.0, 1.0, 0.0, 0.0, 0.0]), 3)
        assert phi.segments()._levels().tolist() == [1.0]

    def test_hat_profile_not_underestimated(self):
        # one distinct level; the layer-cake quadrature gave 0.028173928
        phi = RadialProfile(np.geomspace(0.01, 1, 5), np.array([0.0, 1.0, 0.0, 0.0, 0.0]), 3)
        assert phi.lorentz_norm(2, 2) == pytest.approx(0.028174999684195, rel=1e-13)

    @pytest.mark.parametrize("kind", ["ball", "annulus"])
    def test_indicators_on_grid_match_quad(self, kind):
        from lorentzheat.quadrature import make_grid

        r = make_grid(1e-8, 1e4, 1024)
        if kind == "ball":
            phi = RadialProfile(r, np.where(r <= 0.3, 1.0, 0.0), 3, inner_exponent=0.0)
        else:
            phi = RadialProfile(r, np.where((r > 0.15) & (r <= 0.3), 1.0, 0.0), 3,
                                inner_exponent=INF_DECAY)
        assert phi.lorentz_norm(2, 2) == pytest.approx(_lp_quad_oracle(phi, 2.0),
                                                       rel=1e-13)


def _node_sup(phi):
    """max |v_i|, or inf where the extension below the grid is singular."""
    v = np.abs(phi.values)
    a = phi.inner_exponent
    if v[0] != 0.0 and a != INF_DECAY and a < 0.0:
        return INF
    return float(np.max(v))


_EXTENSIONS = st.sampled_from([INF_DECAY, 0.0, 1.0, -1.0, 2.0, 0.5, -0.8, -4.5])


class TestNodeValueNorms:
    @given(phi=signed_profiles())
    @settings(max_examples=150, deadline=None)
    def test_sup_is_the_largest_node_value(self, phi):
        assert phi.lorentz_norm(INF, INF) == _node_sup(phi)
        zero = RadialProfile(phi.grid, np.zeros_like(phi.values), phi.dimension,
                             inner_exponent=phi.inner_exponent)
        assert zero.lorentz_norm(INF, INF) == 0.0
        assert zero.lorentz_norm(2, 2) == 0.0

    def test_sup_of_singular_extensions(self):
        grid, values = np.array([0.1, 1.0]), np.array([2.0, -3.0])
        for inner, expect in [(-0.5, INF), (INF_DECAY, 3.0), (0.0, 3.0), (2.0, 3.0)]:
            phi = RadialProfile(grid, values, 3, inner_exponent=inner)
            assert phi.lorentz_norm(INF, INF) == expect, inner
        # a zero end has no extension to be singular
        phi = RadialProfile(grid, np.array([0.0, 0.0]), 3, inner_exponent=-0.5)
        assert phi.lorentz_norm(INF, INF) == 0.0

    @given(phi=signed_profiles(), p=st.sampled_from([1.0, 1.5, 2.0, 3.5]))
    @settings(max_examples=200, deadline=None)
    def test_lp_matches_segment_reference(self, phi, p):
        expect = segment_lp_norm(phi, p)
        got = phi.lorentz_norm(p, p)
        if expect == INF:
            assert got == INF
        else:
            assert got == pytest.approx(expect, rel=1e-12, abs=0.0)

    @given(phi=signed_profiles(), data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_stack_column_is_its_one_column_call(self, phi, data):
        # bit for bit, whatever the neighbours: their zeros, sign changes,
        # singular or divergent extensions and scales
        m = phi.grid.size
        cols, inner = [phi.values], [phi.inner_exponent]
        for _ in range(data.draw(st.integers(1, 4))):
            values = np.array(data.draw(st.lists(_VALUE, min_size=m, max_size=m)))
            cols.append(values * 10.0 ** data.draw(st.integers(-3, 3)))
            inner.append(data.draw(_EXTENSIONS))
        at = data.draw(st.integers(0, len(cols) - 1))
        for seq in (cols, inner):
            seq.insert(at, seq.pop(0))
        for p in (1.0, 1.5, 2.0, 3.5, INF):
            stack = params.lp_norms(phi.grid, np.column_stack(cols), inner, p,
                                    phi.dimension)
            for j, col in enumerate(cols):
                one = params.lp_norms(phi.grid, col[:, None], [inner[j]], p,
                                      phi.dimension)
                assert stack[j] == one[0], (p, j)
            assert stack[at] == phi.lorentz_norm(p, p)

    @pytest.mark.parametrize("dimension, expect", [
        (2, math.sqrt(2000.0 * math.pi)),
        (3, math.sqrt(4.0 * math.pi * math.log(1e203))),
        (5, INF)])
    def test_power_where_r_to_the_n_overflows(self, dimension, expect):
        # r^-1.5 on [1e-3, 1e200], zero below: ||f||_2^2 = |S^(N-1)| times
        # the integral of r^(N-4).  Far out |f|^2 underflows to 0 where r^N
        # overflows to inf, yet their product is finite for N = 2 and 3;
        # for N = 5 the norm itself is past the float range
        grid = np.geomspace(1e-3, 1e200, 400)
        got = params.lp_norms(grid, (grid ** -1.5)[:, None], [INF_DECAY], 2.0,
                              dimension)[0]
        assert got == pytest.approx(expect, rel=1e-11)


class TestLinearPieceCoefficients:
    @pytest.mark.parametrize("n", [2, 3, 5])
    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0, 4.0])
    def test_match_exact_arithmetic(self, n, p):
        # C(N-1, k), 1/(p+k+1) and B(k+1, p+1) = k! p! / (p+k+1)! in rationals
        binom, zero_at_r0, zero_at_r1 = params._linear_piece_coefficients(n, p)
        q = int(p)
        for k in range(n):
            exact = {
                "binom": Fraction(math.comb(n - 1, k)),
                "zero_at_r0": Fraction(1, q + k + 1),
                "zero_at_r1": Fraction(math.factorial(k) * math.factorial(q),
                                       math.factorial(q + k + 1)),
            }
            got = {"binom": binom[k], "zero_at_r0": zero_at_r0[k],
                   "zero_at_r1": zero_at_r1[k]}
            for name, value in exact.items():
                err = abs(Fraction(float(got[name])) - value)
                assert err <= 2 * Fraction(math.ulp(float(value))), (name, k)
