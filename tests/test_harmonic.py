import copy
import dataclasses

import numpy as np
import pytest

from lorentzheat import harmonic, params, spectral
from lorentzheat.harmonic import (
    ProfileSet,
    derivative_h,
    fit_asymptotic_constant,
    gamma_ratio,
    hessian_envelope,
    solve_h,
    weighted_h,
)
from lorentzheat.iterated import iterate_I
from lorentzheat.params import INF, RadialProfile, unit_ball_volume
from lorentzheat.quadrature import make_grid, radial_derivative_values

from oracles import (derivative_bound_constant, doubling_constant,
                     integral_representation, mass_bound_constant,
                     mode_ratio_decay, sandwich_constants)

GRID = make_grid(1e-8, 1e4, 2048)


def _empty_cache_copy(hp):
    """A copy of hp whose derived cache is empty."""
    twin = copy.copy(hp)
    twin._derived = {}
    return twin


@pytest.fixture(scope="module")
def hardy2():
    return {k: solve_h(spectral.PotentialSpec.hardy(3, 2.0), k, GRID)
            for k in range(4)}


@pytest.fixture(scope="module")
def bounded_set():
    spec = spectral.PotentialSpec.inverse_power(3, 1.0, 4.0)
    return ProfileSet.build(spec, k_max=3, grid=GRID)


class TestOracles:
    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_zero_potential_power(self, n):
        spec = spectral.PotentialSpec.zero(n)
        for k in range(0, 7, 2):
            hp = solve_h(spec, k, GRID)
            rel = np.abs(hp.values / GRID ** k - 1.0)
            assert np.max(rel) < 1e-8

    @pytest.mark.parametrize("lam", [-0.24, 0.5, 2.0, 6.0])
    def test_hardy_power(self, lam):
        spec = spectral.PotentialSpec.hardy(3, lam)
        for k in (0, 1, 3, 6):
            ak = spectral.a_exponents(lam + spectral.omega(k, 3), 3)[0]
            hp = solve_h(spec, k, GRID)
            rel = np.abs(hp.values / GRID ** ak - 1.0)
            assert np.max(rel) < 1e-8

    def test_bounded_potential_matches_picard(self, bounded_set):
        # independent fixed-point representation of the same profile; the
        # fixed-point quadrature is second order on the grid (1.2e-5 at 2048
        # points, shrinking 4x per refinement)
        spec = bounded_set.spec
        h_ode = bounded_set.h(0).values
        h_pic = integral_representation(spec, 0, GRID)
        rel = np.abs(h_ode / h_pic - 1.0)
        assert np.max(rel) < 2e-5

    def test_bounded_flat_limit_constant(self, bounded_set):
        # kappa > N: bracket converges, h_0 -> c_0 > 1 for a > 0
        hp = bounded_set.h(0)
        assert hp.fitted_outer_exponent == pytest.approx(0.0, abs=1e-3)
        assert hp.c is not None and hp.c > 1.0


class TestODEResidual:
    @pytest.mark.parametrize("build", [
        lambda: (spectral.PotentialSpec.hardy(3, 0.5), 1),
        lambda: (spectral.PotentialSpec.inverse_power(3, 1.0, 4.0), 0),
        lambda: (spectral.PotentialSpec.inverse_power(3, -0.05, 5.0), 2),
    ])
    def test_profile_equation(self, build):
        spec, k = build()
        hp = solve_h(spec, k, GRID)
        r, h = hp.grid, hp.values
        h1 = radial_derivative_values(h, r, order=1)
        h2 = radial_derivative_values(h, r, order=2)
        vk = spec.v_k(r, k)
        res = h2 + (spec.dimension - 1) / r * h1 - vk * h
        scale = (np.abs(vk) + r ** -2.0) * h
        sl = slice(4, -4)
        assert np.max(np.abs(res[sl]) / scale[sl]) < 1e-6

    def test_exact_first_derivative(self):
        hp = solve_h(spectral.PotentialSpec.hardy(3, 2.0), 1, GRID)
        a1 = hp.inner_exponent
        assert np.max(np.abs(hp.hprime / (a1 * GRID ** (a1 - 1)) - 1.0)) < 1e-8


class TestDerivatives:
    def test_zero_potential_k2_second_derivative(self):
        hp = solve_h(spectral.PotentialSpec.zero(3), 2, GRID)
        d2 = derivative_h(hp, 2).values
        assert np.max(np.abs(d2 - 2.0)) < 1e-7

    def test_hardy_first_derivative(self, hardy2):
        hp = hardy2[1]
        a = hp.inner_exponent
        d1 = derivative_h(hp, 1).values
        assert np.max(np.abs(d1 / (a * GRID ** (a - 1.0)) - 1.0)) < 1e-7

    def test_hardy_third_derivative(self, hardy2):
        # h_0 = r, so d3 vanishes; the recursion assembles it from terms of
        # size |V_k'| h, which sets the cancellation scale
        hp = hardy2[0]
        d3 = derivative_h(hp, 3).values
        scale = 4.0 * GRID ** -3.0 * hp.values
        assert np.max(np.abs(d3) / scale) < 1e-12

    def test_derivative_bound_constant(self, hardy2):
        # |d^l h_k| <= C (k+1)^(l-1) r^-l h_k with one modest constant
        consts = [derivative_bound_constant(hardy2[k], ell)
                  for k in range(4) for ell in (1, 2)]
        assert max(consts) < 50.0

    def test_smoothness_cap(self):
        spec = spectral.PotentialSpec(3, "table", 0.0, 2.0, 0.0, 2.0, 1,
                                      lambda r: np.zeros_like(np.asarray(r, float)))
        hp = solve_h(spec, 0, GRID)
        with pytest.raises(harmonic.InsufficientSmoothnessError):
            derivative_h(hp, 3)


class TestGammaRatio:
    def test_zero_potential_exact(self):
        hp = solve_h(spectral.PotentialSpec.zero(3), 0, GRID)
        a3 = unit_ball_volume(3)
        for t in (0.1, 1.0, 100.0):
            got = gamma_ratio(hp, 2.0, 2.0, t)
            assert got == pytest.approx(a3 ** 0.5 * t ** 0.75, rel=1e-6)

    def test_hardy_rate(self, hardy2):
        hp = hardy2[0]
        vals = [gamma_ratio(hp, 2.0, 2.0, t) / t ** 0.75
                for t in np.geomspace(0.1, 100, 7)]
        assert max(vals) / min(vals) < 1.0 + 1e-6

    def test_membership_failure_infinite(self):
        # negative coupling: h_0 = r^-0.45, so p A + N < 0 once p > 20/3
        spec = spectral.PotentialSpec.hardy(3, -0.2475)
        hp = solve_h(spec, 0, GRID)
        assert gamma_ratio(hp, 8.0, 2.0, 1.0) == INF
        assert gamma_ratio(hp, 8.0, INF, 1.0) == INF

    def test_weak_vs_strong_membership(self):
        spec = spectral.PotentialSpec.hardy(3, -0.2475)
        hp = solve_h(spec, 0, GRID)
        a0 = hp.inner_exponent
        p_star = -3.0 / a0  # borderline p A + N = 0
        assert gamma_ratio(hp, p_star, INF, 1.0) < INF
        assert gamma_ratio(hp, p_star, 2.0, 1.0) == INF


    def test_cached_per_argument(self, monkeypatch):
        hp = solve_h(spectral.PotentialSpec.hardy(3, 2.0), 0, GRID)
        built = []
        monkeypatch.setattr(harmonic, "gamma_ratio",
                            lambda *args: built.append(args[1:]) or gamma_ratio(*args))
        first = hp.derived(harmonic.gamma_ratio, 2.0, 2.0, 1.0)
        assert first == gamma_ratio(hp, 2.0, 2.0, 1.0)
        assert hp.derived(harmonic.gamma_ratio, 2.0, 2.0, 1.0) == first
        assert hp.derived(harmonic.gamma_ratio, 2.0, 2.0, 0.5) == \
            gamma_ratio(hp, 2.0, 2.0, 0.5)
        assert built == [(2.0, 2.0, 1.0), (2.0, 2.0, 0.5)]


class TestHessianEnvelope:
    def test_built_once_from_the_exact_derivatives(self):
        hp = solve_h(spectral.PotentialSpec.hardy(3, 2.0), 0, GRID)
        env = hp.derived(hessian_envelope)
        assert hp.derived(hessian_envelope) is env
        h1, h2 = derivative_h(hp, 1).values, derivative_h(hp, 2).values
        expect = np.sqrt(h2 ** 2 + 2 * (h1 / hp.grid) ** 2)
        assert np.array_equal(env.values, expect)
        rebuilt = _empty_cache_copy(hp).derived(hessian_envelope)
        assert rebuilt is not env
        assert rebuilt.values.tobytes() == env.values.tobytes()


class TestDerivativeCache:
    def test_each_order_built_once_whatever_the_order_asked(self, monkeypatch):
        spec = spectral.PotentialSpec.inverse_power(3, 1.0, 4.0)
        first = solve_h(spec, 1, GRID)
        second = _empty_cache_copy(first)
        built = []
        inner = harmonic._derivative_values
        monkeypatch.setattr(harmonic, "_derivative_values",
                            lambda hp, ell: built.append(ell) or inner(hp, ell))
        top = first.derived(derivative_h, 4)
        assert sorted(built) == [0, 1, 2, 3, 4]
        kept = {ell: first.derived(derivative_h, ell) for ell in (2, 0, 3, 4, 1)}
        assert kept[4] is top
        for ell in range(5):
            assert first.derived(derivative_h, ell) is kept[ell]
        assert sorted(built) == [0, 1, 2, 3, 4]
        for ell in (1, 2, 3, 4):
            second.derived(derivative_h, ell)
        assert sorted(built) == [0, 0, 1, 1, 2, 2, 3, 3, 4, 4]
        for ell in range(5):
            assert second.derived(derivative_h, ell).values.tobytes() == \
                kept[ell].values.tobytes()

    def test_weighted_profile_built_once_per_power(self):
        hp = solve_h(spectral.PotentialSpec.hardy(3, 2.0), 1, GRID)
        soft = hp.derived(weighted_h, 1.0)
        assert hp.derived(weighted_h, 1.0) is soft
        assert soft.values.tobytes() == (hp.grid ** 1.0 * hp.values).tobytes()
        assert hp.derived(weighted_h, 2.0) is not soft
        assert _empty_cache_copy(hp).derived(weighted_h, 1.0) \
            .values.tobytes() == soft.values.tobytes()


def _sampled_functions():
    """Freshly solved h_k (Hardy lambda = 2, kappa = 4) and I_k^n."""
    grid = make_grid(1e-6, 1e3, 512)
    hardy = [solve_h(spectral.PotentialSpec.hardy(3, 2.0), k, grid) for k in (0, 1)]
    kappa4 = solve_h(spectral.PotentialSpec.inverse_power(3, 1.0, 4.0), 0, grid)
    return {"hardy_h0": hardy[0], "hardy_h1": hardy[1], "kappa4_h0": kappa4,
            "hardy_I1^2": iterate_I(hardy[1], 2), "kappa4_I0^1": iterate_I(kappa4, 1)}


SAMPLED = ("hardy_h0", "hardy_h1", "kappa4_h0", "hardy_I1^2", "kappa4_I0^1")
SEGMENT_FIELDS = ("r0", "r1", "kind", "ra", "va", "expo", "slope", "icpt",
                  "vol", "vmin", "vmax")


class TestOneSampledFunctionType:
    """h_k and I_k^n are RadialProfiles: their norms, values and segments are
    those of the plain profile of their samples, and what is derived from
    them, the segment set too, sits in one cache."""

    @pytest.mark.parametrize("name", SAMPLED)
    def test_same_bits_as_the_plain_profile(self, name):
        prof = _sampled_functions()[name]
        plain = RadialProfile(prof.grid, prof.values, 3,
                              inner_exponent=prof.inner_exponent)
        for pair in ((1, 1), (2, 2), (INF, INF), (1.5, 3), (2, INF)):
            assert prof.lorentz_norm(*pair) == plain.lorentz_norm(*pair), pair
        r = np.concatenate(([1e-8, 1e-6], np.geomspace(2e-6, 9e2, 37), [1e3, 2e3]))
        assert prof.eval(r).tobytes() == plain.eval(r).tobytes()
        for x in r:
            assert prof.eval(x) == plain.eval(x)
        got, want = prof.segments(), plain.segments()
        for key in SEGMENT_FIELDS:
            assert getattr(got, key).tobytes() == getattr(want, key).tobytes(), key

    @pytest.mark.parametrize("name", SAMPLED)
    def test_segments_are_one_derived_build(self, name, monkeypatch):
        prof = _sampled_functions()[name]
        built = []
        inner = params._build_segments
        monkeypatch.setattr(params, "_build_segments",
                            lambda profile: built.append(profile) or inner(profile))
        segments = prof.segments()
        assert prof.segments() is segments
        assert segments is prof.derived(params._build_segments)
        assert built == [prof]


class TestAsymptoticConstants:
    def test_hardy_c_is_one(self, hardy2):
        for k in range(4):
            c, res = fit_asymptotic_constant(hardy2[k])
            assert c == pytest.approx(1.0, rel=1e-9)
            assert res < 1e-9

    def test_zero_c_is_one(self):
        hp = solve_h(spectral.PotentialSpec.zero(3), 2, GRID)
        assert fit_asymptotic_constant(hp)[0] == pytest.approx(1.0, rel=1e-9)

    def test_compact_potential_c_matches_bracket(self, bounded_set):
        # c_0 equals the fixed-point bracket at infinity; the bracket
        # approaches it like 1/r, which bounds the window bias
        spec = bounded_set.spec
        h_pic = integral_representation(spec, 0, GRID)
        c_ode = bounded_set.h(0).c
        assert c_ode == pytest.approx(h_pic[-1], rel=1e-3)


class TestPropositionSuites:
    def test_sandwich(self, hardy2):
        for k in range(4):
            sc = sandwich_constants(hardy2[k])
            assert sc["inner_max"] / max(sc["inner_min"], 1e-300) < 1.01
            assert sc["outer_max"] / max(sc["outer_min"], 1e-300) < 1.01

    def test_sandwich_bounded(self, bounded_set):
        for k in range(3):
            sc = sandwich_constants(bounded_set.h(k))
            band = max(sc["inner_max"], sc["outer_max"]) / \
                min(sc["inner_min"], sc["outer_min"])
            assert band < 20.0

    def test_mass_bound(self, hardy2, bounded_set):
        consts = [mass_bound_constant(hardy2[k]) for k in range(4)]
        consts += [mass_bound_constant(bounded_set.h(k)) for k in range(3)]
        assert max(consts) < 5.0

    def test_mode_ratio_decay(self, hardy2):
        # h_k(eps r)/h_l(eps r) <= C eps^((k/2)-gamma)+ h_k(r)/h_l(r)
        for k in (2, 3):
            sup = mode_ratio_decay(hardy2, k, 0)
            assert sup[0.25] <= sup[0.5] <= 1.01
            # ratio shrinks at least geometrically in eps for k >= 2
            assert sup[0.125] < sup[0.5] * 0.9

    def test_doubling(self, hardy2, bounded_set):
        cs = [doubling_constant(hardy2[k]) for k in range(4)]
        cs += [doubling_constant(bounded_set.h(k)) for k in range(3)]
        assert max(cs) < 300.0  # 2^A_k for the largest mode


class TestProfileSet:
    def test_build_hardy(self):
        ps = ProfileSet.build(spectral.PotentialSpec.hardy(3, 2.0), k_max=2,
                              grid=GRID)
        assert ps.criticality == spectral.SUBCRITICAL
        assert ps.table.A1[0] == pytest.approx(1.0)
        assert set(ps.hks) == {0, 1, 2}

    def test_positive_solution_enforced(self):
        # a potential violating nonnegativity drives h_0 through zero
        n = 3
        spec = spectral.PotentialSpec(
            n, "table", 0.0, 2.0, 0.0, 2.0, 1,
            lambda r: np.full_like(np.asarray(r, float), -40.0))
        with pytest.raises(harmonic.NonpositiveSolutionError):
            solve_h(spec, 0, make_grid(1e-4, 1e3, 1024))

    def test_failing_solve_stops_at_the_first_zero(self, monkeypatch):
        # the same potential: h_0 first vanishes near r = 0.5, so the solve
        # stops there instead of following h through its oscillations
        results = []
        eager = harmonic.solve_ivp

        def recording(*args, **kwargs):
            results.append(eager(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(harmonic, "solve_ivp", recording)
        spec = spectral.PotentialSpec(
            3, "table", 0.0, 2.0, 0.0, 2.0, 1,
            lambda r: np.full_like(np.asarray(r, float), -40.0))
        with pytest.raises(harmonic.NonpositiveSolutionError):
            solve_h(spec, 0, make_grid(1e-4, 1e3, 1024))
        (sol,) = results
        assert sol.status == 1
        assert sol.t[-1] < 0.0 and sol.nfev < 20000


class TestLazyProfiles:
    SPEC = spectral.PotentialSpec.hardy(3, 2.0)
    SMALL = make_grid(1e-6, 1e3, 512)

    @pytest.fixture
    def solved(self, monkeypatch):
        """Modes handed to harmonic.solve_h, in call order."""
        calls = []
        eager = harmonic.solve_h

        def counting(spec, k, grid=None, **kwargs):
            calls.append(k)
            return eager(spec, k, grid, **kwargs)

        monkeypatch.setattr(harmonic, "solve_h", counting)
        return calls

    def test_build_solves_nothing(self, solved):
        ps = ProfileSet.build(self.SPEC, k_max=6, grid=self.SMALL)
        assert solved == []
        assert ps.table.k_max == 6

    def test_far_field_classification_solves_h0_once(self, solved):
        spec = spectral.PotentialSpec.inverse_power(3, 1.0, 4.0)
        ps = ProfileSet.build(spec, k_max=6, grid=self.SMALL)
        assert solved == [0]
        assert ps.criticality == spectral.SUBCRITICAL
        h0 = ps.h(0)
        h0.derived(iterate_I, 0)
        assert solved == [0]
        assert np.array_equal(h0.grid, self.SMALL)
        assert np.array_equal(h0.values, solve_h(spec, 0, self.SMALL).values)

    def test_mode_solved_once(self, solved):
        ps = ProfileSet.build(self.SPEC, k_max=6, grid=self.SMALL)
        assert ps.h(0) is ps.h(0)
        itg = ps.h(0).derived(iterate_I, 0)
        assert ps.h(0).derived(iterate_I, 0) is itg
        assert solved == [0]

    def test_modes_outside_table_raise(self, solved):
        ps = ProfileSet.build(self.SPEC, k_max=2, grid=self.SMALL)
        for k in (3, -1):
            with pytest.raises(KeyError):
                ps.h(k)
        assert solved == []

    def test_hks_equal_eager_solves(self, solved):
        ps = ProfileSet.build(self.SPEC, k_max=2, grid=self.SMALL)
        ps.h(1)
        hks = ps.hks
        assert sorted(hks) == [0, 1, 2] and sorted(solved) == [0, 1, 2]
        for k, hp in hks.items():
            eager = solve_h(self.SPEC, k, self.SMALL)
            assert np.array_equal(hp.values, eager.values)
            assert np.array_equal(hp.hprime, eager.hprime)
            assert hp.c == eager.c and hp.fit_residual == eager.fit_residual
            assert hp.fitted_outer_exponent == eager.fitted_outer_exponent


class TestClosedForm:
    """Hardy and zero profiles are r^{A_1k} in closed form; a "table" spec
    with the same exponents and zero remainder takes the RK45 branch."""

    SPECS = [spectral.PotentialSpec.hardy(3, 2.0),
             spectral.PotentialSpec.hardy(5, -1.0),
             spectral.PotentialSpec.zero(3)]

    @pytest.fixture
    def rk45_calls(self, monkeypatch):
        calls = []
        eager = harmonic.solve_ivp

        def recording(*args, **kwargs):
            calls.append(eager(*args, **kwargs))
            return calls[-1]

        monkeypatch.setattr(harmonic, "solve_ivp", recording)
        return calls

    @pytest.mark.parametrize("n", [1024, 4096])
    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.label)
    def test_equals_rk45_bit_for_bit(self, spec, n, rk45_calls):
        grid = make_grid(1e-8, 1e4, n)
        table = dataclasses.replace(spec, kind="table")
        for k in range(7):
            closed, solved = solve_h(spec, k, grid), solve_h(table, k, grid)
            assert np.array_equal(closed.values, solved.values)
            assert np.array_equal(closed.hprime, solved.hprime)
            assert (closed.c, closed.fit_residual, closed.outer_exponent) == \
                (solved.c, solved.fit_residual, solved.outer_exponent)
        assert len(rk45_calls) == 7

    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.label)
    def test_analytic_kinds_skip_rk45(self, spec, rk45_calls):
        for k in range(3):
            solve_h(spec, k, GRID)
        assert rk45_calls == []

    def test_inverse_power_solves_once(self, rk45_calls):
        solve_h(spectral.PotentialSpec.inverse_power(3, 1.0, 4.0), 0, GRID)
        assert len(rk45_calls) == 1


class TestScipyOracle:
    """The built-in RK45 against scipy.integrate.solve_ivp on the call that
    `_solve_g` makes: the same steps, evaluations and output bits."""

    GRID = make_grid(1e-4, 1e3, 1024)
    NEGATIVE = spectral.PotentialSpec(
        3, "table", 0.0, 2.0, 0.0, 2.0, 1,
        lambda r: np.full_like(np.asarray(r, float), -40.0))

    @staticmethod
    def _both(spec, k, grid):
        """(built-in result, scipy result) of the solve behind
        solve_h(spec, k, grid)."""
        from scipy.integrate import solve_ivp as scipy_solve_ivp
        calls = []
        eager = harmonic.solve_ivp

        def recording(*args):
            calls.append((args, eager(*args)))
            return calls[-1][1]

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(harmonic, "solve_ivp", recording)
            try:
                solve_h(spec, k, grid)
            except harmonic.NonpositiveSolutionError:
                pass
        ((fun, x, y0, first_step), ours), = calls

        def g_reaches_zero(xv, y):
            return y[0]

        g_reaches_zero.terminal = True
        g_reaches_zero.direction = -1
        ref = scipy_solve_ivp(fun, (x[0], x[-1]), y0, method="RK45", t_eval=x,
                              rtol=harmonic.RTOL, atol=harmonic.ATOL,
                              dense_output=False, events=g_reaches_zero,
                              first_step=first_step)
        return ours, ref

    @pytest.mark.parametrize("k", [0, 6])
    @pytest.mark.parametrize("n", [3, 5])
    @pytest.mark.parametrize("a,kappa", [(1.0, 4.0), (-0.05, 3.0)])
    def test_inverse_power_bit_for_bit(self, a, kappa, n, k):
        spec = spectral.PotentialSpec.inverse_power(n, a, kappa)
        ours, ref = self._both(spec, k, self.GRID)
        assert ours.status == ref.status == 0 and ours.success
        assert ours.nfev == ref.nfev
        assert np.array_equal(ours.t, ref.t)
        assert np.array_equal(ours.y, ref.y)

    def test_stops_at_the_same_step(self):
        ours, ref = self._both(self.NEGATIVE, 0, self.GRID)
        assert ours.status == ref.status == 1 and ours.success
        assert ours.nfev == ref.nfev
        # scipy also outputs the points of the last step up to its root of
        # g; the built-in solver outputs none of that step
        m = ours.t.size
        assert 0 < m <= ref.t.size
        assert np.array_equal(ours.t, ref.t[:m])
        assert np.array_equal(ours.y, ref.y[:, :m])
        assert ours.t[-1] < ref.t_events[0][0]

    @pytest.mark.parametrize("k", [0, 6])
    def test_benchmark_solve_bit_for_bit(self, k):
        # verify_bounded's potential and grid: 1e-8..1e4 at 1024 nodes
        spec = spectral.PotentialSpec.inverse_power(3, 1.0, 4.0)
        ours, ref = self._both(spec, k, make_grid(1e-8, 1e4, 1024))
        assert ours.status == ref.status == 0
        assert ours.nfev == ref.nfev
        assert np.array_equal(ours.t, ref.t)
        assert np.array_equal(ours.y, ref.y)

    def test_initial_value_sequence_types_agree(self):
        remainder = spectral.PotentialSpec.inverse_power(3, 1.0, 4.0).remainder

        def fun(xv, y):
            return [y[1], -1.0 * y[1] + remainder(np.exp(xv)) * y[0]]

        x = np.log(self.GRID)
        y0 = (1.0 + 1e-9, 3e-9)
        results = [harmonic.solve_ivp(fun, x, start, 1e-3)
                   for start in (list(y0), y0, np.array(y0))]
        for res in results[1:]:
            assert res.status == results[0].status == 0
            assert res.nfev == results[0].nfev
            assert np.array_equal(res.t, results[0].t)
            assert np.array_equal(res.y, results[0].y)
