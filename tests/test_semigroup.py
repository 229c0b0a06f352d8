import importlib.machinery
import importlib.util
import math

import numpy as np
import pytest
from scipy.linalg import lapack, solveh_banded

from lorentzheat import semigroup, spectral
from lorentzheat.harmonic import solve_h
from lorentzheat.params import INF, LorentzParams
from lorentzheat.quadrature import make_grid
from lorentzheat.semigroup import (
    CONTAMINATION_THRESHOLD,
    DT_CAP_MAX,
    DT_RUNG,
    INIT_SCALE_STEPS,
    POSITIVITY_TOL,
    build_test_family,
    check_dt_cap,
    evolve_modes,
    operator_norm_sweep,
    _Operator,
    _time_schedule,
    radial_derivative,
)

from oracles import gaussian_exact, heat_kernel_sup, sweep_every_column

GRID = make_grid(1e-7, 2e3, 3072)
INNER = GRID < GRID[-1] / 3.16  # below the monitors' outer zone


@pytest.fixture(scope="module")
def h0_zero():
    return solve_h(spectral.PotentialSpec.zero(3), 0, GRID)


@pytest.fixture(scope="module")
def h_hardy():
    spec = spectral.PotentialSpec.hardy(3, 2.0)
    return {k: solve_h(spec, k, GRID) for k in (0, 1)}


class TestScheme:
    @pytest.mark.parametrize("field, value", [("dt_cap", -64.0), ("dt_cap", 0.0),
                                              ("dt_cap", np.inf)])
    def test_out_of_range_value_rejected(self, h_hardy, field, value):
        # dt_cap <= 0 or inf never advances the time schedule
        with pytest.raises(ValueError, match=f"scheme.{field}"):
            evolve_modes(h_hardy[0], np.ones_like(GRID), [1.0], **{field: value})

    def test_dt_cap_limit(self):
        # the schedule is listed up front, so a huge finite dt_cap would
        # exhaust memory before the first step; checked without building one
        check_dt_cap(256.0)
        check_dt_cap(DT_CAP_MAX)
        for value in (np.nextafter(DT_CAP_MAX, np.inf), 1e8):
            with pytest.raises(ValueError, match=r"scheme\.dt_cap must be in"):
                check_dt_cap(value)

    @pytest.mark.parametrize("dt_cap", [64.0, 256.0])
    def test_graded_start_length(self, dt_cap):
        # dt_cap/2 steps of the first length, then growth by 1 + 2/dt_cap a
        # step over the factor 8 that the first step is graded down by
        _, steps = _time_schedule([1.0], dt_cap)
        bound = dt_cap / 2 + math.ceil(math.log(8.0) / math.log1p(2.0 / dt_cap)) + 1
        assert len(steps) <= bound

    @pytest.mark.parametrize("dt_cap", [16.0, 64.0, 256.0])
    def test_graded_start_unchanged(self, dt_cap):
        # up to the first target the steps are dt = max(dt0, t / cap), as
        # they were before the ladder: a flow to one target, as every sweep
        # flow is, keeps its schedule
        targets = [0.3, 0.3001, 2.0, 1e3]
        cap = 0.5 * dt_cap
        dt0 = targets[0] / (cap * INIT_SCALE_STEPS)
        graded, t = [], 0.0
        while True:
            dt = max(dt0, t / cap)
            if t + dt >= targets[0] * (1.0 - 1e-14):
                graded.append((targets[0] - t, True))
                break
            graded.append((dt, False))
            t += dt
        _, steps = _time_schedule(targets, dt_cap)
        assert steps[:len(graded)] == graded
        _, alone = _time_schedule(targets[:1], dt_cap)
        assert alone == graded

    @pytest.mark.parametrize("dt_cap", [16.0, 64.0, 256.0])
    def test_ladder_after_the_first_target(self, dt_cap):
        # after t_1 every step is a rung (t_1 / cap) DT_RUNG^k <= t / cap,
        # and the rungs never go down; only a step that lands on a target
        # is shorter, and it lands exactly
        targets, steps = _time_schedule([0.3, 0.3001, 2.0, 2.5, 1e3], dt_cap)
        cap = 0.5 * dt_cap
        base = targets[0] / cap
        rungs = [base * DT_RUNG ** k for k in range(400)]
        t = 0.0
        arrived = 0
        last_dt = 0.0
        for dt, emit in steps:
            if arrived:
                # the largest rung at most t / cap
                rung = rungs[sum(x <= t / cap for x in rungs) - 1]
                if emit:
                    assert 0.0 < dt <= rung
                else:
                    assert dt == rung >= last_dt
                    last_dt = dt
            t += dt
            if emit:
                assert t == pytest.approx(targets[arrived], rel=1e-14)
                t = targets[arrived]
                arrived += 1
        assert arrived == len(targets)
        # past t_1 a rung falls short of t / cap by less than DT_RUNG, so t
        # grows by at least 1 + 1 / (cap DT_RUNG) a step, plus the landings
        bound = (dt_cap / 2 + math.ceil(math.log(8.0) / math.log1p(2.0 / dt_cap))
                 + 1 + math.log(1e3 / 0.3) / math.log1p(1.0 / (cap * DT_RUNG))
                 + len(targets) + 1)
        assert len(steps) <= bound

    def test_steady_state_exact(self, h_hardy):
        hk = h_hardy[0]
        ws, _ = evolve_modes(hk, np.ones_like(GRID), [0.5, 2.0])
        # ~2000 steps at <= 5e-15 drift per step; w is pinned to 0 at r_max
        for w in ws:
            assert np.max(np.abs(w[INNER] - 1.0)) < 1e-10

    def test_mass_conservation(self, h0_zero):
        # the heat is far from r_max through t = 10, so none is absorbed
        w0 = np.where(GRID < 1.0, 1.0, 0.0)
        op = _Operator(h0_zero)
        m0 = float(op.mass @ w0)
        ws, _ = evolve_modes(h0_zero, w0, [0.1, 1.0, 10.0])
        for w in ws:
            assert float(op.mass @ w[:, 0]) == pytest.approx(m0, rel=1e-10)

    def test_mass_monotone_absorbing(self, h0_zero):
        w0 = np.where(GRID < 1.0, 1.0, 0.0)
        op = _Operator(h0_zero)
        t_far = (GRID[-1] / 4.0) ** 2  # heat genuinely reaches the boundary
        ws, _ = evolve_modes(h0_zero, w0, [1.0, 100.0, t_far])
        m_init = float(op.mass @ w0)
        masses = [float(op.mass @ w[:, 0]) for w in ws]
        slack = 1e-12 * m_init
        assert masses[0] <= m_init + slack
        assert masses[1] <= masses[0] + slack
        assert masses[2] < 0.99 * masses[1]  # real absorption by t_far

    def test_max_principle(self, h_hardy):
        hk = h_hardy[1]
        w0 = np.where(GRID < 0.5, 2.0, 0.5)
        ws, warnings = evolve_modes(hk, w0, [0.2, 5.0])
        for w in ws:
            assert np.min(w[INNER]) > 0.5 - 1e-8
            assert np.max(w[INNER]) < 2.0 + 1e-8
        assert not any("positivity" in msg for msg in warnings)

    def test_gaussian_oracle(self, h0_zero):
        # V = 0, k = 0: Gaussians evolve in closed form
        width = 1.0
        phi = gaussian_exact(3, width, GRID, 0.0)
        ts = [0.1, 1.0, 10.0]
        ws, _ = evolve_modes(h0_zero, phi / h0_zero.values, ts, dt_cap=256.0)
        for t, w in zip(ts, ws):
            exact = gaussian_exact(3, width, GRID, t)
            err = np.max(np.abs(h0_zero.values * w[:, 0] - exact)) / np.max(exact)
            assert err < 1e-4, f"t={t}"

    def test_hardy_self_similarity(self, h_hardy):
        # V homogeneous of degree -2: r -> 2r, t -> 4t maps solutions
        hk = h_hardy[0]
        phi = np.where(GRID < 1.0, hk.values, 0.0)
        phi_scaled = np.where(GRID < 2.0, hk.eval(GRID / 2.0), 0.0)
        w = evolve_modes(hk, phi / hk.values, [1.0])[0][0]
        w_scaled = evolve_modes(hk, phi_scaled / hk.values, [4.0])[0][0]
        mid = (GRID > 1e-3) & (GRID < 30.0)
        v1 = radial_derivative(hk, 1.0, w, 0)[0].eval(GRID[mid] / 2.0)
        v2 = (hk.values * w_scaled[:, 0])[mid]
        # indicator edges land mid-cell, so the sampled data are only
        # rescalings of each other to ~1 cell volume
        assert np.max(np.abs(v2 - v1)) < 2e-2 * np.max(np.abs(v1))

    def test_boundary_contamination_warns(self, h0_zero):
        # pushing heat to t with sqrt(t) ~ r_max trips the monitor
        phi = np.where(GRID < 1.0, 1.0, 0.0)
        t_big = (GRID[-1] / 3.0) ** 2
        _, warnings = evolve_modes(h0_zero, phi / h0_zero.values, [t_big])
        assert any("contamination" in msg for msg in warnings)

    def test_contamination_ratio_near_the_free_tail(self, h_hardy):
        # at t = (r_max / 3)^2 the heat of a unit ball reaches the outer zone
        # at about the free e^(-r^2 / 4t) = 0.80 (r = r_max / 3.16); an
        # undamped stiff inner mode would set max|w| and read ~1e-9 instead
        phi = np.where(GRID < 1.0, 1.0, 0.0)
        t_big = (GRID[-1] / 3.0) ** 2
        _, warnings = evolve_modes(h_hardy[1], phi, [t_big])
        ratios = [float(msg.split()[2]) for msg in warnings
                  if msg.startswith("boundary contamination")]
        assert len(ratios) == 1 and ratios[0] > 0.1
        assert not any("positivity" in msg for msg in warnings)


def _divergence(op, w):
    """Flux divergence -K w of the conductance Laplacian K."""
    flux = op.cond[:, None] * np.diff(w, axis=0)
    out = np.empty_like(w)
    out[0] = flux[0]
    out[1:-1] = flux[1:] - flux[:-1]
    out[-1] = -flux[-1]
    return out


GAMMA = 2.0 - np.sqrt(2.0)
C1 = 1.0 / (GAMMA * (2.0 - GAMMA))
C0 = (1.0 - GAMMA) ** 2 * C1


def _band(op, s):
    """The 2-row upper band of A = M + s K with the last row pinned."""
    m = op.mass.size
    cl = np.zeros(m)
    cr = np.zeros(m)
    cr[:-1] = op.cond
    cl[1:] = op.cond
    ab = np.zeros((2, m))
    ab[1] = op.mass + s * cl + s * cr
    ab[0, 1:] = -s * op.cond
    ab[1, -1] = 1.0
    ab[0, -1] = 0.0
    return ab


def _explicit_step(op, dt, w):
    """One TR-BDF2 step with the trapezoid right-hand side (M - s K) w
    assembled explicitly, s = gamma dt / 2:
    A w_g = M w - s K w, then A w' = c1 M w_g - c0 M w, each solved by
    solveh_banded on the same 2-row band (LAPACK ?ptsv)."""
    s = 0.5 * GAMMA * dt
    ab = _band(op, s)
    mw = op.mass[:, None] * w
    rhs = mw + s * _divergence(op, w)
    rhs[-1] = 0.0
    w_g = solveh_banded(ab, rhs)
    rhs = C1 * (op.mass[:, None] * w_g) - C0 * mw
    rhs[-1] = 0.0
    return solveh_banded(ab, rhs)


def _identity_step(op, dt, w):
    """A fresh assembly of the stepper's arithmetic: x = A^-1 (M w), so that
    w_g = 2 x - w, then A w' = (2 c1 M) x - ((c1 + c0) M) w."""
    ab = _band(op, 0.5 * GAMMA * dt)
    x = solveh_banded(ab, op.mass[:, None] * w)
    rhs = ((2.0 * C1) * op.mass)[:, None] * x - ((C1 + C0) * op.mass)[:, None] * w
    return solveh_banded(ab, rhs)


def _reference_evolve(hk, w0, t_targets, step, dt_cap=64.0):
    """evolve_modes with each step assembled afresh by step(op, dt, w)."""
    op = _Operator(hk)
    w = np.atleast_2d(np.asarray(w0, dtype=float).T).T.copy()
    targets, steps = _time_schedule(t_targets, dt_cap)
    w[-1] = 0.0
    out, warnings = [], []
    outer_zone = hk.grid >= hk.grid[-1] / 3.16
    init_floor = float(np.min(w))
    for dt, emit in steps:
        w = step(op, dt, w)
        if emit:
            t = targets[len(out)]
            wmax = float(np.max(np.abs(w)))
            if min(0.0, init_floor) - float(np.min(w)) > POSITIVITY_TOL * wmax:
                warnings.append(f"positivity dip at t={t:g}")
            contamination = float(np.max(np.abs(w[outer_zone]))) / max(wmax, 1e-300)
            if contamination > CONTAMINATION_THRESHOLD:
                warnings.append(
                    f"boundary contamination {contamination:.2e} at t={t:g}")
            out.append(w.copy())
    return out, warnings


def _spy(monkeypatch, name):
    """The calls of semigroup.<name> (a LAPACK routine), counted."""
    calls = []
    routine = getattr(semigroup, name)

    def spy(*args):
        calls.append(args)
        return routine(*args)

    monkeypatch.setattr(semigroup, name, spy)
    return calls


class TestStepper:
    TARGETS = [0.01, 0.3, (GRID[-1] / 3.0) ** 2]

    @staticmethod
    def _data(hk, ncol):
        r = hk.grid
        cols = [np.where(r < 1.0, 1.0, 0.0),
                np.exp(-r ** 2 / 0.5) / hk.values,
                np.where((r > 0.25) & (r <= 0.5), 1.0, 0.0),
                np.where(r < 2.0, 1.0, 0.0) * np.cos(3.0 * r),
                np.where(r < 1e-3, 5.0, -0.5)]
        return np.stack(cols[:ncol], axis=1)

    @pytest.mark.parametrize("ncol", [1, 5])
    def test_matches_fresh_assembly(self, h_hardy, ncol):
        # the reused buffers and factorizations change no bit
        hk = h_hardy[1]
        w0 = self._data(hk, ncol)
        ws, warnings = evolve_modes(hk, w0, self.TARGETS)
        ref, ref_warnings = _reference_evolve(hk, w0, self.TARGETS, _identity_step)
        assert warnings == ref_warnings
        # the contamination warning fires at the last target
        assert warnings
        assert len(ws) == len(ref) == len(self.TARGETS)
        for w, w_ref in zip(ws, ref):
            assert w.shape == w_ref.shape == (GRID.size, ncol)
            assert np.array_equal(w, w_ref)

    @pytest.mark.parametrize("ncol", [1, 5])
    def test_matches_explicit_trapezoid_stage(self, h_hardy, ncol):
        # the identity (M - s K) w = 2 M w - A w changes only roundings: the
        # worst distance measured is 9.2e-14 of a column's max
        hk = h_hardy[1]
        w0 = self._data(hk, ncol)
        ws, warnings = evolve_modes(hk, w0, self.TARGETS)
        ref, ref_warnings = _reference_evolve(hk, w0, self.TARGETS, _explicit_step)
        assert warnings == ref_warnings
        for w, w_ref in zip(ws, ref):
            scale = np.max(np.abs(w_ref), axis=0)
            assert np.all(np.max(np.abs(w - w_ref), axis=0) <= 1e-12 * scale)

    def test_one_dimensional_datum(self, h_hardy):
        hk = h_hardy[0]
        w0 = self._data(hk, 1)[:, 0]
        ws, _ = evolve_modes(hk, w0, [0.1])
        ref, _ = _reference_evolve(hk, w0, [0.1], _identity_step)
        assert np.array_equal(ws[0], ref[0])

    @pytest.mark.parametrize("targets, dt_cap", [([0.1], 64.0),
                                                 ([0.01, 0.3, 20.0], 64.0),
                                                 ([1e-3, 0.5, 0.5001, 7.0], 16.0)])
    def test_one_factorization_per_step_length(self, h_hardy, monkeypatch,
                                               targets, dt_cap):
        _, steps = _time_schedule(targets, dt_cap)
        lengths = [dt for dt, _ in steps]
        runs = 1 + sum(a != b for a, b in zip(lengths, lengths[1:]))
        factored = _spy(monkeypatch, "dpttrf")
        solved = _spy(monkeypatch, "dpttrs")
        evolve_modes(h_hardy[0], self._data(h_hardy[0], 2), targets, dt_cap)
        assert len(factored) == runs < len(steps)
        assert len(solved) == 2 * len(steps)

    def test_no_positivity_dip_on_hk_bump(self):
        # w = v/h_1 of the h_1 bump stays nonnegative on evolve_flow's
        # targets 0.1 .. 1000; Crank-Nicolson kept the stiff innermost
        # modes oscillating and dipped to -1e-12 from t = 178 on
        grid = make_grid(1e-8, 1e4, 4096)
        hk = solve_h(spectral.PotentialSpec.hardy(3, 2.0), 1, grid)
        w0 = np.where(grid <= np.sqrt(0.1), 1.0, 0.0)
        targets = 0.1 * 10.0 ** (np.arange(17) / 4.0)
        ws, warnings = evolve_modes(hk, w0, targets, dt_cap=256.0)
        assert not any("positivity" in msg for msg in warnings)
        assert len(ws) == len(targets)
        assert all(float(np.min(w)) >= 0.0 for w in ws)

    def test_nonfinite_datum_raises(self, h_hardy):
        w0 = self._data(h_hardy[0], 5)
        w0[10, 2] = np.nan
        with pytest.raises(ValueError, match="infs or NaNs"):
            evolve_modes(h_hardy[0], w0, [0.1])

    @pytest.mark.parametrize("field, index", [("cond", 100), ("cond", -1),
                                              ("mass", 0), ("mass", 100),
                                              ("mass", -1)])
    @pytest.mark.parametrize("value", [np.inf, np.nan])
    def test_nonfinite_operator_raises_before_any_step(
            self, h_hardy, monkeypatch, field, index, value):
        class Poisoned(_Operator):
            def __init__(self, hk):
                super().__init__(hk)
                getattr(self, field)[index] = value

        monkeypatch.setattr(semigroup, "_Operator", Poisoned)
        solved = _spy(monkeypatch, "dpttrs")
        with pytest.raises(ValueError, match="infs or NaNs"):
            evolve_modes(h_hardy[0], self._data(h_hardy[0], 2), [0.1, 1.0])
        assert solved == []

    def test_overflow_during_the_flow_raises(self, h_hardy):
        # finite start columns whose products with the cell masses overflow:
        # the error is raised at the first emit, and no RuntimeWarning (an
        # error under this suite's filter) escapes the steps before it
        w0 = self._data(h_hardy[0], 2)
        w0[:, 1] = 1e308
        assert np.isfinite(w0).all()
        with pytest.raises(ValueError, match="infs or NaNs"):
            evolve_modes(h_hardy[0], w0, [0.1, 1.0])


class TestLapackLoader:
    @pytest.mark.parametrize("n", [2, 5, 1024])
    @pytest.mark.parametrize("ncol", [1, 9])
    def test_matches_scipy_linalg_lapack(self, n, ncol):
        # the directly loaded wrappers against scipy.linalg.lapack's, with
        # the overwrite flags _Stepper passes; each side gets its own copies,
        # since both routines overwrite their inputs
        rng = np.random.default_rng(n + ncol)
        e = rng.standard_normal(n - 1)
        d = rng.uniform(0.5, 2.0, n) + np.abs(np.concatenate([e, [0.0]])) \
            + np.abs(np.concatenate([[0.0], e]))
        b = np.asfortranarray(rng.standard_normal((n, ncol)))
        results = []
        for factor, solve in ((semigroup.dpttrf, semigroup.dpttrs),
                              (lapack.dpttrf, lapack.dpttrs)):
            df, ef, info = factor(d.copy(), e.copy(), 1, 1)
            x, solve_info = solve(df, ef, b.copy(order="F"), 1)
            results.append((df, ef, info, x, solve_info))
        assert semigroup.dpttrf is not lapack.dpttrf
        ours, theirs = results
        assert ours[2] == theirs[2] == 0 and ours[4] == theirs[4] == 0
        for a, b_ in zip(ours, theirs):
            assert np.array_equal(a, b_)

    def test_no_scipy_raises_import_error(self, monkeypatch):
        monkeypatch.setattr(importlib.util, "find_spec", lambda name: None)
        with pytest.raises(ImportError, match="scipy not found on sys.path"):
            semigroup._load_flapack()

    def test_no_flapack_raises_import_error(self, monkeypatch, tmp_path):
        # a scipy whose directory holds no linalg/_flapack extension
        fake = importlib.machinery.ModuleSpec("scipy", None, is_package=True)
        fake.submodule_search_locations = [str(tmp_path)]
        monkeypatch.setattr(importlib.util, "find_spec", lambda name: fake)
        with pytest.raises(ImportError, match="_flapack not found in") as info:
            semigroup._load_flapack()
        assert str(tmp_path / "linalg") in str(info.value)


class TestRadialDerivative:
    def test_alpha0_identity(self, h0_zero):
        phi = gaussian_exact(3, 1.0, GRID, 0.0)
        w = evolve_modes(h0_zero, phi / h0_zero.values, [1.0])[0][0]
        assert np.allclose(radial_derivative(h0_zero, 1.0, w, 0)[0].values,
                           h0_zero.values * w[:, 0])

    def test_gaussian_first_derivative(self, h0_zero):
        phi = gaussian_exact(3, 1.0, GRID, 0.0)
        t = 1.0
        w = evolve_modes(h0_zero, phi / h0_zero.values, [t], dt_cap=256.0)[0][0]
        d1 = radial_derivative(h0_zero, t, w, 1)[0].values
        s2 = 1.0 + 2.0 * t
        exact = -GRID / s2 * gaussian_exact(3, 1.0, GRID, t)
        mask = GRID < 20.0
        err = np.max(np.abs(d1[mask] - exact[mask])) / np.max(np.abs(exact))
        assert err < 1e-3

    def test_hardy_derivative_envelope(self, h_hardy):
        # |d_r v| ~ r^(A_1 - 1) near the origin at fixed t
        hk = h_hardy[1]
        phi = np.where(GRID < 1.0, hk.values, 0.0)
        w = evolve_modes(hk, phi / hk.values, [1.0])[0][0]
        d1 = np.abs(radial_derivative(hk, 1.0, w, 1)[0].values)
        small = (GRID > 1e-6) & (GRID < 1e-3)
        slope = np.polyfit(np.log(GRID[small]), np.log(d1[small]), 1)[0]
        assert slope == pytest.approx(hk.inner_exponent - 1.0, abs=1e-2)


class TestFamilyAndNorms:
    def test_family_normalization(self, h_hardy):
        fam = build_test_family(h_hardy[0], 4.0)
        labels = {d.label for d in fam}
        assert "ball_j0" in labels and "annulus_j3" in labels and "hk_bump" in labels
        for d in fam:
            nrm = d.profile.lorentz_norm(2.0, 2.0)
            assert 0.0 < nrm < INF

    def test_gaussian_operator_norm_window(self, h0_zero):
        # L^1 -> L^inf estimate must catch at least half the kernel sup
        lp = LorentzParams(1.0, INF, 1.0, INF)
        for t in (0.5, 4.0):
            est = operator_norm_sweep(h0_zero, [0], [lp], [t])[0][(0, 0)][0]
            assert 0.5 * heat_kernel_sup(3, t) <= est <= 1.05 * heat_kernel_sup(3, t)

    def test_time_error_of_the_sweep(self):
        # scan_hardy's sweep at the default dt_cap against dt_cap 2048: the
        # graded start must not be cut below what the time error allows
        # (5.30e-4 with INIT_SCALE_STEPS = 8, 5.62e-4 with 4)
        grid = make_grid(1e-8, 1e4, 1024)
        hk = solve_h(spectral.PotentialSpec.hardy(3, 2.0), 0, grid)
        lps = [LorentzParams(1.0, INF, 1.0, INF), LorentzParams(1.0, 2.0, 1.0, 2.0)]
        coarse, fine = (operator_norm_sweep(hk, [0, 1, 2], lps, [0.1, 1.0],
                                            dt_cap=dt_cap)[0]
                        for dt_cap in (64.0, 2048.0))
        for key, series in coarse.items():
            assert series == pytest.approx(fine[key], rel=5.4e-4), key

    def test_hardy_scale_invariance_of_estimates(self, h_hardy):
        # estimate(t) * t^(N/2 (1/p - 1/q) + alpha/2) constant within 5%
        hk = h_hardy[0]
        lp = LorentzParams(1.0, INF, 1.0, INF)
        ts = [0.25, 1.0, 4.0, 16.0]
        vals = operator_norm_sweep(hk, [0], [lp], ts)[0][(0, 0)] * np.array(ts) ** 1.5
        assert max(vals) / min(vals) < 1.05


def _spy_columns(monkeypatch):
    """The column count of every evolve_modes call the sweep makes."""
    counts = []
    flow = semigroup.evolve_modes

    def spy(hk, w0, *args, **kwargs):
        counts.append(np.shape(w0)[1])
        return flow(hk, w0, *args, **kwargs)

    monkeypatch.setattr(semigroup, "evolve_modes", spy)
    return counts


class TestBasisFlow:
    """The sweep flows the balls, the bump and the innermost annulus, and
    takes every other annulus as the difference of its two balls."""

    GRID = make_grid(1e-6, 1e3, 768)
    LPS = [LorentzParams(1.0, INF, 1.0, INF), LorentzParams(1.0, 2.0, 1.0, 2.0)]
    TS = [1.0, 10.0, 100.0]
    # alpha = 2 takes w'' by second differences, which amplify one rounding
    # of w near the origin: against the every-column flow the worst case
    # measured on these cases is 1.5e-6 (kappa = 4, t = 10, L^1 -> L^inf).
    # The margin to 5e-6 covers the 4.2e-6 that one rounding of the start
    # data moves a single column there (flowing 3 w0 and dividing by 3).
    ALPHA2_REL = 5e-6

    @pytest.fixture(scope="class", params=["hardy", "kappa4"])
    def hk(self, request):
        spec = {"hardy": spectral.PotentialSpec.hardy(3, 2.0),
                "kappa4": spectral.PotentialSpec.inverse_power(3, 1.0, 4.0)}
        return solve_h(spec[request.param], 0, self.GRID)

    @pytest.mark.parametrize("j_max", [0, 3, 6])
    def test_matches_flowing_every_column(self, hk, j_max, monkeypatch):
        counts = _spy_columns(monkeypatch)
        new, warnings = operator_norm_sweep(hk, [0, 1, 2], self.LPS, self.TS,
                                            j_max=j_max)
        # balls j0..j_max, the bump and the innermost annulus, at each time
        assert counts == [j_max + 3] * len(self.TS)
        monkeypatch.undo()
        old, old_warnings = sweep_every_column(hk, [0, 1, 2], self.LPS, self.TS,
                                               j_max=j_max)
        assert warnings == old_warnings
        for (alpha, i), series in old.items():
            rel = self.ALPHA2_REL if alpha == 2 else 1e-10
            assert new[(alpha, i)] == pytest.approx(series, rel=rel), (alpha, i)

    def test_family_cut_short_by_r_min(self, monkeypatch):
        # 4 r_min = 8e-3: at t = 0.1 ball_j6 (radius 4.9e-3) is left out and
        # annulus_j5 with it; at t = 1 ball_j6 stays but annulus_j6 (inner
        # radius 7.8e-3) goes, so no annulus is flowed at either time
        grid = make_grid(2e-3, 1e3, 768)
        hk = solve_h(spectral.PotentialSpec.hardy(3, 2.0), 0, grid)
        ts = [0.1, 1.0]
        labels = [[d.label for d in build_test_family(hk, t)] for t in ts]
        assert labels[0][-3:] == ["annulus_j4", "ball_j5", "hk_bump"]
        assert labels[1][-3:] == ["annulus_j5", "ball_j6", "hk_bump"]
        counts = _spy_columns(monkeypatch)
        new = operator_norm_sweep(hk, [0, 1], self.LPS, ts)[0]
        assert counts == [6 + 1, 7 + 1]
        monkeypatch.undo()
        old = sweep_every_column(hk, [0, 1], self.LPS, ts)[0]
        for key, series in old.items():
            assert new[key] == pytest.approx(series, rel=1e-10), key

    def test_annulus_without_grid_node(self, monkeypatch):
        # nodes a factor 3 apart: some dyadic annuli hold no node and are
        # left out, the innermost one at t = 1 among them, and the annuli
        # around them still pair the right balls
        grid = np.geomspace(1e-6, 3.0 ** 19 * 1e-6, 20)
        hk = solve_h(spectral.PotentialSpec.hardy(3, 2.0), 0, grid)
        ts = [0.3, 1.0]
        missing = {0.3: [2, 5], 1.0: [1, 3, 6]}
        for t in ts:
            fam = build_test_family(hk, t)
            labels = [d.label for d in fam]
            assert [j for j in range(7) if f"annulus_j{j}" not in labels] == missing[t]
            assert sum(label.startswith("ball") for label in labels) == 7
            for d in fam:
                if d.between is not None:
                    outer, inner = (fam[i] for i in d.between)
                    j = int(d.label[len("annulus_j"):])
                    assert (outer.label, inner.label) == (f"ball_j{j}",
                                                          f"ball_j{j + 1}")
                    assert np.array_equal(d.profile.values, outer.profile.values
                                          - inner.profile.values)
        counts = _spy_columns(monkeypatch)
        new = operator_norm_sweep(hk, [0, 1], self.LPS, ts)[0]
        # 7 balls and the bump, and annulus_j6 where it holds a node
        assert counts == [7 + 1 + 1, 7 + 1]
        monkeypatch.undo()
        old = sweep_every_column(hk, [0, 1], self.LPS, ts)[0]
        for key, series in old.items():
            assert new[key] == pytest.approx(series, rel=1e-10), key


class TestAssembly:
    def test_low_mode_dominates_near_origin(self, h_hardy):
        v = []
        for k in (0, 1):
            hk = h_hardy[k]
            phi = np.where(GRID < 1.0, hk.values, 0.0)
            w = evolve_modes(hk, phi / hk.values, [4.0])[0][0]
            v.append(hk.values * w[:, 0])
        v0, v1 = np.abs(v[0]), np.abs(v[1])
        small = (GRID > 1e-5) & (GRID < 1e-2)
        assert np.all(v0[small] > v1[small])
