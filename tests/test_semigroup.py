import numpy as np
import pytest
from scipy.linalg import solve_banded, solveh_banded

from lorentzheat import spectral
from lorentzheat.harmonic import solve_h
from lorentzheat.params import INF, LorentzParams
from lorentzheat.quadrature import make_grid
from lorentzheat.semigroup import (
    CONTAMINATION_THRESHOLD,
    DEFAULT_SCHEME,
    POSITIVITY_TOL,
    SchemeParams,
    build_test_family,
    evolve_mode,
    evolve_modes,
    gaussian_exact,
    heat_kernel_sup,
    operator_norm_sweep,
    _Operator,
    _time_schedule,
    radial_derivative,
)

GRID = make_grid(1e-7, 2e3, 3072)


@pytest.fixture(scope="module")
def h0_zero():
    return solve_h(spectral.PotentialSpec.zero(3), 0, GRID)


@pytest.fixture(scope="module")
def h_hardy():
    spec = spectral.PotentialSpec.hardy(3, 2.0)
    return {k: solve_h(spec, k, GRID) for k in (0, 1)}


class TestScheme:
    def test_steady_state_exact(self, h_hardy):
        hk = h_hardy[0]
        scheme = SchemeParams(boundary="reflecting")
        ws, _ = evolve_modes(hk, np.ones_like(GRID), [0.5, 2.0], scheme)
        # ~2000 steps at <= 5e-15 drift per step
        for w in ws:
            assert np.max(np.abs(w - 1.0)) < 1e-10

    def test_mass_conservation_reflecting(self, h0_zero):
        from lorentzheat.semigroup import _Operator
        scheme = SchemeParams(boundary="reflecting")
        w0 = np.where(GRID < 1.0, 1.0, 0.0)
        op = _Operator(h0_zero, "reflecting")
        m0 = float(op.mass @ w0)
        ws, _ = evolve_modes(h0_zero, w0, [0.1, 1.0, 10.0], scheme)
        for w in ws:
            assert float(op.mass @ w[:, 0]) == pytest.approx(m0, rel=1e-10)

    def test_mass_monotone_absorbing(self, h0_zero):
        from lorentzheat.semigroup import _Operator
        w0 = np.where(GRID < 1.0, 1.0, 0.0)
        op = _Operator(h0_zero, "absorbing")
        t_far = (GRID[-1] / 4.0) ** 2  # heat genuinely reaches the boundary
        ws, _ = evolve_modes(h0_zero, w0, [1.0, 100.0, t_far], DEFAULT_SCHEME)
        m_init = float(op.mass @ w0)
        masses = [float(op.mass @ w[:, 0]) for w in ws]
        slack = 1e-12 * m_init
        assert masses[0] <= m_init + slack
        assert masses[1] <= masses[0] + slack
        assert masses[2] < 0.99 * masses[1]  # real absorption by t_far

    def test_max_principle(self, h_hardy):
        hk = h_hardy[1]
        w0 = np.where(GRID < 0.5, 2.0, 0.5)
        ws, warnings = evolve_modes(hk, w0, [0.2, 5.0],
                                    SchemeParams(boundary="reflecting"))
        for w in ws:
            assert np.min(w) > 0.5 - 1e-8
            assert np.max(w) < 2.0 + 1e-8
        assert not any("positivity" in msg for msg in warnings)

    def test_gaussian_oracle(self, h0_zero):
        # V = 0, k = 0: Gaussians evolve in closed form
        width = 1.0
        phi = gaussian_exact(3, width, GRID, 0.0)
        scheme = SchemeParams(dt_cap=256.0)
        states = evolve_mode(h0_zero, phi, [0.1, 1.0, 10.0], scheme)
        for st in states:
            exact = gaussian_exact(3, width, GRID, st.t)
            err = np.max(np.abs(st.v_values() - exact)) / np.max(exact)
            assert err < 1e-4, f"t={st.t}"

    def test_hardy_self_similarity(self, h_hardy):
        # V homogeneous of degree -2: r -> 2r, t -> 4t maps solutions
        hk = h_hardy[0]
        phi = np.where(GRID < 1.0, hk.values, 0.0)
        phi_scaled = np.where(GRID < 2.0, hk.eval(GRID / 2.0), 0.0)
        st = evolve_mode(hk, phi, [1.0])[0]
        st_scaled = evolve_mode(hk, phi_scaled, [4.0])[0]
        mid = (GRID > 1e-3) & (GRID < 30.0)
        v1 = st.v_profile().eval(GRID[mid] / 2.0)
        v2 = st_scaled.v_values()[mid]
        # indicator edges land mid-cell, so the sampled data are only
        # rescalings of each other to ~1 cell volume
        assert np.max(np.abs(v2 - v1)) < 2e-2 * np.max(np.abs(v1))

    def test_boundary_contamination_warns(self, h0_zero):
        # pushing heat to t with sqrt(t) ~ r_max trips the monitor
        phi = np.where(GRID < 1.0, 1.0, 0.0)
        t_big = (GRID[-1] / 3.0) ** 2
        states = evolve_mode(h0_zero, phi, [t_big])
        assert any("contamination" in msg for msg in states[0].warnings)


def _divergence(op, w):
    """Flux divergence -K w of the conductance Laplacian K."""
    flux = op.cond[:, None] * np.diff(w, axis=0)
    out = np.empty_like(w)
    out[0] = flux[0]
    out[1:-1] = flux[1:] - flux[:-1]
    out[-1] = -flux[-1]
    return out


def _symmetric_step(op, absorbing, theta, dt, w):
    """A fresh assembly of (M + theta dt K) w' = M w - (1 - theta) dt K w,
    solved by solveh_banded on a 2-row band (LAPACK ?ptsv)."""
    m = op.mass.size
    s = theta * dt
    cl = np.zeros(m)
    cr = np.zeros(m)
    cr[:-1] = op.cond
    cl[1:] = op.cond
    ab = np.zeros((2, m))
    ab[1] = op.mass + s * cl + s * cr
    ab[0, 1:] = -s * op.cond
    rhs = op.mass[:, None] * w
    if theta < 1.0:
        rhs = rhs + (1.0 - theta) * dt * _divergence(op, w)
    if absorbing:
        ab[1, -1] = 1.0
        ab[0, -1] = 0.0
        rhs[-1] = 0.0
    return solveh_banded(ab, rhs)


def _row_scaled_step(op, absorbing, theta, dt, w):
    """The earlier assembly, divided through by the cell masses:
    (I + theta dt M^-1 K) w' = w - (1 - theta) dt M^-1 K w, by solve_banded."""
    m = op.mass.size
    cl = np.zeros(m)
    cr = np.zeros(m)
    cr[:-1] = op.cond
    cl[1:] = op.cond
    tl = theta * dt * cl / op.mass
    tr = theta * dt * cr / op.mass
    ab = np.zeros((3, m))
    ab[1] = 1.0 + tl + tr
    ab[0, 1:] = -tr[:-1]
    ab[2, :-1] = -tl[1:]
    rhs = w.copy()
    if theta < 1.0:
        rhs = w + (1.0 - theta) * dt * (_divergence(op, w) / op.mass[:, None])
    if absorbing:
        ab[1, -1] = 1.0
        ab[2, -2] = 0.0
        rhs[-1] = 0.0
    return solve_banded((1, 1), ab, rhs)


def _reference_evolve(hk, w0, t_targets, scheme, step=_symmetric_step):
    """evolve_modes with each step assembled afresh by `step`: with the
    default the stepper must reproduce it bit for bit."""
    op = _Operator(hk, scheme.boundary)
    absorbing = scheme.boundary == "absorbing"
    w = np.atleast_2d(np.asarray(w0, dtype=float).T).T.copy()
    targets, steps = _time_schedule(t_targets, scheme)
    if absorbing:
        w[-1] = 0.0
    out, warnings = [], []
    outer_zone = hk.grid >= hk.grid[-1] / 3.16
    init_floor = float(np.min(w))
    for step_index, (dt, emit) in enumerate(steps):
        theta = 1.0 if step_index < scheme.rannacher_steps else scheme.theta
        w = step(op, absorbing, theta, dt, w)
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


class TestStepper:
    @staticmethod
    def _data(hk, ncol):
        r = hk.grid
        cols = [np.where(r < 1.0, 1.0, 0.0),
                np.exp(-r ** 2 / 0.5) / hk.values,
                np.where((r > 0.25) & (r <= 0.5), 1.0, 0.0),
                np.where(r < 2.0, 1.0, 0.0) * np.cos(3.0 * r),
                np.where(r < 1e-3, 5.0, -0.5)]
        return np.stack(cols[:ncol], axis=1)

    @pytest.mark.parametrize("boundary", ["absorbing", "reflecting"])
    # 1 - 0.6 is not a power of two, so the rounding order of the explicit
    # part shows
    @pytest.mark.parametrize("theta", [0.5, 0.6, 1.0])
    @pytest.mark.parametrize("ncol", [1, 5])
    def test_matches_fresh_assembly(self, h_hardy, boundary, theta, ncol):
        hk = h_hardy[1]
        w0 = self._data(hk, ncol)
        targets = [0.01, 0.3, (GRID[-1] / 3.0) ** 2]
        seen = []
        for rannacher in (12, 0):
            scheme = SchemeParams(theta=theta, boundary=boundary,
                                  rannacher_steps=rannacher)
            ws, warnings = evolve_modes(hk, w0, targets, scheme)
            ref, ref_warnings = _reference_evolve(hk, w0, targets, scheme)
            old, _ = _reference_evolve(hk, w0, targets, scheme,
                                       step=_row_scaled_step)
            assert warnings == ref_warnings
            seen += warnings
            assert len(ws) == len(ref) == len(old) == len(targets)
            for w, w_ref, w_old in zip(ws, ref, old):
                assert w.shape == w_ref.shape == (GRID.size, ncol)
                assert np.array_equal(w, w_ref)
                # the same scheme up to rounding: the row-scaled system is
                # the symmetric one divided through by the cell masses
                assert np.max(np.abs(w - w_old)) <= 1e-10 * np.max(np.abs(w0))
        # positivity and contamination warnings both fire over these cases
        assert seen

    def test_one_dimensional_datum(self, h_hardy):
        hk = h_hardy[0]
        w0 = self._data(hk, 1)[:, 0]
        ws, _ = evolve_modes(hk, w0, [0.1], DEFAULT_SCHEME)
        ref, _ = _reference_evolve(hk, w0, [0.1], DEFAULT_SCHEME)
        assert np.array_equal(ws[0], ref[0])

    def test_no_positivity_dip_on_hk_bump(self):
        # w = v/h_1 of the h_1 bump stays nonnegative through t = 100; the
        # rounding noise of the row-scaled system dips below zero there
        grid = make_grid(1e-8, 1e4, 4096)
        hk = solve_h(spectral.PotentialSpec.hardy(3, 2.0), 1, grid)
        w0 = np.where(grid <= np.sqrt(0.1), 1.0, 0.0)
        targets = 0.1 * 10.0 ** (np.arange(13) / 4.0)
        scheme = SchemeParams(dt_cap=256.0)
        _, warnings = evolve_modes(hk, w0, targets, scheme)
        _, old_warnings = _reference_evolve(hk, w0, targets, scheme,
                                            step=_row_scaled_step)
        assert not any("positivity" in msg for msg in warnings)
        assert "positivity dip at t=100" in old_warnings

    @pytest.mark.parametrize("theta", [0.5, 1.0])
    def test_nonfinite_datum_raises(self, h_hardy, theta):
        w0 = self._data(h_hardy[0], 5)
        w0[10, 2] = np.nan
        with pytest.raises(ValueError, match="infs or NaNs"):
            evolve_modes(h_hardy[0], w0, [0.1], SchemeParams(theta=theta,
                                                             rannacher_steps=0))


class TestRadialDerivative:
    def test_alpha0_identity(self, h0_zero):
        phi = gaussian_exact(3, 1.0, GRID, 0.0)
        st = evolve_mode(h0_zero, phi, [1.0])[0]
        assert np.allclose(radial_derivative(st, 0).values, st.v_values())

    def test_gaussian_first_derivative(self, h0_zero):
        phi = gaussian_exact(3, 1.0, GRID, 0.0)
        scheme = SchemeParams(dt_cap=256.0)
        st = evolve_mode(h0_zero, phi, [1.0], scheme)[0]
        d1 = radial_derivative(st, 1).values
        s2 = 1.0 + 2.0 * st.t
        exact = -GRID / s2 * gaussian_exact(3, 1.0, GRID, st.t)
        mask = GRID < 20.0
        err = np.max(np.abs(d1[mask] - exact[mask])) / np.max(np.abs(exact))
        assert err < 1e-3

    def test_hardy_derivative_envelope(self, h_hardy):
        # |d_r v| ~ r^(A_1 - 1) near the origin at fixed t
        hk = h_hardy[1]
        phi = np.where(GRID < 1.0, hk.values, 0.0)
        st = evolve_mode(hk, phi, [1.0])[0]
        d1 = np.abs(radial_derivative(st, 1).values)
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
            est = operator_norm_sweep(h0_zero, [0], [lp], [t])[(0, 0)][0]
            assert 0.5 * heat_kernel_sup(3, t) <= est.value \
                <= 1.05 * heat_kernel_sup(3, t)

    def test_hardy_scale_invariance_of_estimates(self, h_hardy):
        # estimate(t) * t^(N/2 (1/p - 1/q) + alpha/2) constant within 5%
        hk = h_hardy[0]
        lp = LorentzParams(1.0, INF, 1.0, INF)
        ts = [0.25, 1.0, 4.0, 16.0]
        sweep = operator_norm_sweep(hk, [0], [lp], ts)
        vals = [e.value * e.t ** 1.5 for e in sweep[(0, 0)]]
        assert max(vals) / min(vals) < 1.05


class TestAssembly:
    def test_low_mode_dominates_near_origin(self, h_hardy):
        states = []
        for k in (0, 1):
            hk = h_hardy[k]
            phi = np.where(GRID < 1.0, hk.values, 0.0)
            states.append((evolve_mode(hk, phi, [4.0])[0], 1.0))
        v0 = np.abs(states[0][0].v_values())
        v1 = np.abs(states[1][0].v_values())
        small = (GRID > 1e-5) & (GRID < 1e-2)
        assert np.all(v0[small] > v1[small])
