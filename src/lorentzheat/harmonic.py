"""Positive harmonic profiles of the radial mode operators.

For each mode k the profile h_k solves

    h'' + (N-1)/r h' - (V(r) + omega_k r^-2) h = 0,   h(r) = r^{A_{1,k}} (1+o(1))

at the origin.  Writing h = r^{A_{1,k}} g cancels the r^-2 singularity
exactly (A(A+N-2) = lambda_1 + omega_k), leaving

    g'' + (2 A_{1,k} + N - 1)/r g' = (V - lambda_1 r^-2) g,

which is integrated in x = log r with an adaptive embedded Runge-Kutta
pair.  Far-field exponents are fitted on the last grid decade and matched
against the characteristic roots; the match of h_0 is what
`spectral.classify_criticality` reads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import solve_ivp

from . import spectral
from .params import INF, RadialProfile, power_membership
from .quadrature import cumulative_integral, make_grid

FIT_WINDOW_DECADES = 1.0
# RK45 tolerances; the absolute one sits far below any profile value
RTOL = 1e-11
ATOL = 1e-250


class HarmonicSolveError(RuntimeError):
    pass


class NonpositiveSolutionError(HarmonicSolveError):
    """h_k crossed zero: classification or nonnegativity input is wrong."""


class NonConvergedFitError(HarmonicSolveError):
    pass


class InsufficientSmoothnessError(ValueError):
    pass


@dataclass
class HarmonicProfile:
    """Solved h_k together with its exact first derivative and asymptotics."""

    k: int
    spec: spectral.PotentialSpec
    profile: RadialProfile
    hprime: np.ndarray
    inner_exponent: float
    fitted_outer_exponent: float
    outer_exponent: float
    outer_log_power: int
    c: float | None = None
    fit_residual: float | None = None
    _derivs: dict = field(default_factory=dict, repr=False)

    @property
    def grid(self) -> np.ndarray:
        return self.profile.grid

    @property
    def values(self) -> np.ndarray:
        return self.profile.values

    def eval(self, r):
        return self.profile.eval(r)

    __call__ = eval


def _g_reaches_zero(xv, y):
    """Terminal solve_ivp event: g, and with it h, falls to zero."""
    return y[0]


_g_reaches_zero.terminal = True
_g_reaches_zero.direction = -1


def solve_h(spec: spectral.PotentialSpec, k: int, grid=None) -> HarmonicProfile:
    """Integrate the regularized profile equation for mode k on the grid."""
    if grid is None:
        grid = make_grid()
    grid = np.asarray(grid, dtype=float)
    n = spec.dimension
    a1 = spectral.a_exponents(spec.lambda1 + spectral.omega(k, n), n)[0]
    b = 2.0 * a1 + n - 2.0
    x = np.log(grid)

    remainder = spec.remainder

    def rhs(xv, y):
        r = math.exp(xv)
        return [y[1], -b * y[1] + remainder(r) * y[0]]

    g0, gd0 = 1.0, 0.0
    w0 = float(remainder(grid[0])) / grid[0] ** spec.rho1
    if w0 != 0.0 and math.isfinite(w0):
        # one Frobenius correction term; without it the start g' = 0 is off
        # by the full leading derivative, which corrupts h' over the first
        # decades whenever A_1k = 0 (bounded potentials)
        coef = w0 / (spec.rho1 * (spec.rho1 + b))
        g0 = 1.0 + coef * grid[0] ** spec.rho1
        gd0 = coef * spec.rho1 * grid[0] ** spec.rho1

    sol = solve_ivp(rhs, (x[0], x[-1]), [g0, gd0], method="RK45",
                    t_eval=x, rtol=RTOL, atol=ATOL, dense_output=False,
                    events=_g_reaches_zero,
                    first_step=min(1e-3, (x[-1] - x[0]) / 10.0))
    if not sol.success:
        raise HarmonicSolveError(f"mode {k} integration failed: {sol.message}")
    g, gdot = sol.y
    # a zero of g stops the solve short (status 1); h can also underflow
    # to zero while g > 0
    h = np.exp(a1 * x) * g if sol.status == 0 else None
    if h is None or np.any(h <= 0.0):
        raise NonpositiveSolutionError(
            f"h_{k} nonpositive on the grid; check nonnegativity/criticality")
    hprime = np.exp((a1 - 1.0) * x) * (a1 * g + gdot)

    fitted = _fit_tail_exponent(grid, h)
    matched, logpow = _match_outer(spec, k, fitted)
    profile = RadialProfile(grid, h, n, inner_exponent=a1, outer_exponent=fitted)
    hp = HarmonicProfile(k, spec, profile, hprime, a1, fitted, matched, logpow)
    try:
        hp.c, hp.fit_residual = fit_asymptotic_constant(hp)
    except NonConvergedFitError:
        hp.c, hp.fit_residual = None, None
    return hp


def _fit_tail_exponent(grid, h, decades=FIT_WINDOW_DECADES):
    mask = grid >= grid[-1] / 10.0 ** decades
    lr = np.log(grid[mask])
    lh = np.log(h[mask])
    slope = np.polyfit(lr, lh, 1)[0]
    return float(slope)


def _match_outer(spec, k, fitted):
    """The characteristic root within FIT_TOL of the fitted far-field
    exponent (A^+, or for k = 0 also A^-), else the fit itself; and the
    power of the log factor at infinity."""
    n = spec.dimension
    a_plus = spectral.a_exponents(spec.lambda2 + spectral.omega(k, n), n)[0]
    candidates = [a_plus]
    if k == 0:
        candidates.append(spectral.a_exponents(spec.lambda2, n)[1])
    best = min(candidates, key=lambda c: abs(c - fitted))
    if abs(best - fitted) > spectral.FIT_TOL:
        best = fitted
    logpow = 0
    if k == 0 and spec.lambda2 == spectral.lambda_star(n) \
            and abs(best - a_plus) < 1e-12:
        # borderline coupling at infinity carries the logarithmic factor
        logpow = 1
    return best, logpow


def derivative_h(hp: HarmonicProfile, ell: int) -> RadialProfile:
    """d^ell h_k / dr^ell via the ODE recursion (no finite differences).

    h'' is eliminated through the profile equation, and higher orders follow
    by Leibniz in (h, h', derivatives of the mode potential).
    """
    if ell > hp.spec.smoothness + 1:
        raise InsufficientSmoothnessError(
            f"order {ell} exceeds m+1 = {hp.spec.smoothness + 1}")
    if ell in hp._derivs:
        return hp._derivs[ell]
    r = hp.grid
    n = hp.spec.dimension
    d = [hp.values, hp.hprime]
    for j in range(2, ell + 1):
        m = j - 2
        acc = np.zeros_like(r)
        crude = np.zeros_like(r)
        for i in range(m + 1):
            cmi = math.comb(m, i)
            t1 = cmi * hp.spec.v_k_deriv(r, hp.k, i) * d[m - i]
            t2 = cmi * (n - 1.0) * (-1.0) ** i * math.factorial(i) \
                * r ** (-1.0 - i) * d[m + 1 - i]
            acc += t1 - t2
            crude += np.abs(t1) + np.abs(t2)
        # exact cancellations (profiles that are low-degree polynomials)
        # leave an eps-sized residue that must not pollute higher orders
        acc[np.abs(acc) < 1e-12 * crude] = 0.0
        d.append(acc)
    for j in range(ell + 1):
        if j not in hp._derivs:
            hp._derivs[j] = RadialProfile(r, d[j], n)
    return hp._derivs[ell]


def leibniz_h(hp: HarmonicProfile, g_deriv, order: int) -> np.ndarray:
    """d^order (h_k g) = sum_j C(order, j) h_k^(j) g^(order-j), the h_k factors
    from derivative_h; g_deriv(m) returns the m-th derivative of g on the grid."""
    if order == 0:
        return hp.values * g_deriv(0)
    acc = np.zeros_like(hp.values)
    for j in range(order + 1):
        hj = hp.values if j == 0 else derivative_h(hp, j).values
        acc += math.comb(order, j) * hj * g_deriv(order - j)
    return acc


def gamma_ratio(hp: HarmonicProfile, p: float, sigma: float, t: float) -> float:
    """|| h_k ||_{L^{p,sigma}(B(0,sqrt t))} / h_k(sqrt t); inf when h_k is
    not in L^{p,sigma} near the origin."""
    if t <= 0.0:
        raise ValueError("t must be positive")
    if not power_membership(hp.inner_exponent, p, sigma, hp.spec.dimension):
        return INF
    root_t = math.sqrt(t)
    if root_t > hp.grid[-1]:
        raise ValueError(f"sqrt(t)={root_t:g} beyond the solved grid")
    return hp.profile.lorentz_norm_on_ball(p, sigma, root_t) / hp.eval(root_t)


def fit_asymptotic_constant(hp: HarmonicProfile, decades=FIT_WINDOW_DECADES,
                            tol=0.05) -> tuple[float, float]:
    """Least-squares constant c with h_k ~ c r^{A_2}(log r)^B on the last
    grid decade; raises when the window is not yet asymptotic."""
    grid, h = hp.grid, hp.values
    mask = grid >= grid[-1] / 10.0 ** decades
    v = grid[mask] ** hp.outer_exponent
    if hp.outer_log_power:
        v = v * np.log(grid[mask]) ** hp.outer_log_power
    logratio = np.log(h[mask] / v)
    c = float(np.exp(np.mean(logratio)))
    residual = float(np.sqrt(np.mean((logratio - math.log(c)) ** 2)))
    if residual > tol:
        raise NonConvergedFitError(
            f"far-field fit residual {residual:.3g} above {tol}")
    return c, residual


def integral_representation(spec: spectral.PotentialSpec, k: int, grid=None,
                            max_iter=60, tol=1e-13) -> np.ndarray:
    """Fixed point of h = r^k [1 + II(V h)] for bounded potentials.

    Independent of the ODE solver; the bracket at infinity is the far-field
    constant when r^(N-1) V is integrable.
    """
    if spec.lambda1 != 0.0:
        raise ValueError("integral representation requires a bounded potential")
    if grid is None:
        grid = make_grid()
    grid = np.asarray(grid, dtype=float)
    n = spec.dimension
    v = spec.V(grid)
    h = grid ** k
    for _ in range(max_iter):
        inner = cumulative_integral(grid, grid ** (k + n - 1) * v * (h / grid ** k))
        outer = cumulative_integral(grid, grid ** (-2 * k - n + 1) * inner)
        h_new = grid ** k * (1.0 + outer)
        delta = np.max(np.abs(h_new - h) / np.maximum(np.abs(h_new), 1e-300))
        h = h_new
        if delta < tol:
            break
    return h


# ---------------------------------------------------------------------------
# fitted constants for the profile-comparison invariants
# ---------------------------------------------------------------------------


def derivative_bound_constant(hp: HarmonicProfile, ell: int) -> float:
    """Smallest C with |d^ell h_k| <= C (k+1)^(ell-1) r^-ell h_k on the grid."""
    d = derivative_h(hp, ell).values
    r, h = hp.grid, hp.values
    ratio = np.abs(d) * r ** ell / ((hp.k + 1.0) ** (ell - 1) * h)
    return float(np.max(ratio))


def sandwich_constants(hp: HarmonicProfile) -> dict:
    """Two-sided comparison of h_k with its model powers on (0,1] and (1,inf)."""
    r, h = hp.grid, hp.values
    inner = r <= 1.0
    vin = r[inner] ** hp.inner_exponent
    ratio_in = h[inner] / vin
    outer = r > 1.0
    vout = r[outer] ** hp.outer_exponent
    if hp.outer_log_power:
        vout = vout * np.log(np.maximum(r[outer], 1.0 + 1e-9)) ** hp.outer_log_power
    ratio_out = h[outer] / vout
    return {
        "inner_max": float(np.max(ratio_in)), "inner_min": float(np.min(ratio_in)),
        "outer_max": float(np.max(ratio_out)), "outer_min": float(np.min(ratio_out)),
    }


def mass_bound_constant(hp: HarmonicProfile) -> float:
    """Smallest C with int_0^r s^(N-1) h_k^2 ds <= C (k+1)^-1 r^N h_k(r)^2."""
    r, h = hp.grid, hp.values
    n = hp.spec.dimension
    head = 2.0 * hp.inner_exponent + n - 1.0
    mass = cumulative_integral(r, r ** (n - 1) * h * h, head_exponent=head)
    ratio = (hp.k + 1.0) * mass / (r ** n * h * h)
    return float(np.max(ratio))


def mode_ratio_decay(hps: dict[int, HarmonicProfile], k: int, ell: int,
                     eps_list=(0.5, 0.25, 0.125)) -> dict:
    """sup_r of [h_k(eps r)/h_ell(eps r)] / [h_k(r)/h_ell(r)] per eps."""
    hk, hl = hps[k], hps[ell]
    r = hk.grid
    mask = (r >= r[0] / min(eps_list) * 8.0) & (r <= r[-1])
    rr = r[mask]
    base = hk.eval(rr) / hl.eval(rr)
    out = {}
    for eps in eps_list:
        shifted = hk.eval(eps * rr) / hl.eval(eps * rr)
        out[eps] = float(np.max(shifted / base))
    return out


def doubling_constant(hp: HarmonicProfile) -> float:
    """sup of h(2r)/h(r) and h(r)/h(2r) over the grid interior."""
    r = hp.grid
    mask = (r >= r[0] * 4.0) & (r <= r[-1] / 4.0)
    rr = r[mask]
    ratio = hp.eval(2.0 * rr) / hp.eval(rr)
    return float(max(np.max(ratio), np.max(1.0 / ratio)))


# ---------------------------------------------------------------------------
# solved-profile bundles
# ---------------------------------------------------------------------------


@dataclass
class ProfileSet:
    """Potential spec, exponent table, and the profiles h_k for k <= k_max.

    Each h_k is solved the first time it is asked for, so a command pays
    only for the modes it reads; h_0 of a potential classified from its far
    field is solved by `build` and kept.
    """

    spec: spectral.PotentialSpec
    table: spectral.ExponentTable
    criticality: str
    grid: np.ndarray
    _hks: dict = field(default_factory=dict, repr=False)
    _iterated: dict = field(default_factory=dict, repr=False)

    @classmethod
    def build(cls, spec: spectral.PotentialSpec, k_max=6, grid=None,
              criticality=None) -> "ProfileSet":
        """Exponent table and criticality; other than for Hardy and zero
        potentials, classifying solves h_0 on the grid and keeps it."""
        grid = np.asarray(make_grid() if grid is None else grid, dtype=float)
        hks = {}
        if criticality is None:
            outer = None
            if spec.kind not in spectral.ANALYTIC_KINDS:
                hks[0] = solve_h(spec, 0, grid)
                outer = hks[0].outer_exponent
            criticality = spectral.classify_criticality(spec, outer)
        if criticality == spectral.UNKNOWN:
            raise spectral.AmbiguousClassificationError(
                "criticality could not be resolved; pass it explicitly")
        if criticality == spectral.POSITIVE_CRITICAL:
            raise spectral.SpectralError(
                "positive-critical operators are rejected by the semigroup layer")
        table = spectral.exponent_table(spec, criticality, k_max)
        return cls(spec, table, criticality, grid, hks)

    def h(self, k: int) -> HarmonicProfile:
        """h_k, solved on first use; KeyError outside 0..k_max."""
        if k not in self._hks:
            if not 0 <= k <= self.table.k_max:
                raise KeyError(k)
            self._hks[k] = solve_h(self.spec, k, self.grid)
        return self._hks[k]

    @property
    def hks(self) -> dict[int, HarmonicProfile]:
        """Every mode k <= k_max, solved."""
        return {k: self.h(k) for k in range(self.table.k_max + 1)}

    def iterated(self, k: int, n: int):
        """Cached I_k^n bundles (lazily built)."""
        from . import iterated as it
        key = (k, n)
        if key not in self._iterated:
            self._iterated[key] = it.iterate_I(self.h(k), n)
        return self._iterated[key]
