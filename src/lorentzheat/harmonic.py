"""Positive harmonic profiles of the radial mode operators.

For each mode k the profile h_k solves

    h'' + (N-1)/r h' - (V(r) + omega_k r^-2) h = 0,   h(r) = r^{A_{1,k}} (1+o(1))

at the origin.  Writing h = r^{A_{1,k}} g cancels the r^-2 singularity
exactly (A(A+N-2) = lambda_1 + omega_k), leaving

    g'' + (2 A_{1,k} + N - 1)/r g' = (V - lambda_1 r^-2) g,

which is integrated in x = log r with an adaptive embedded Runge-Kutta
pair.  For the Hardy and zero potentials the right-hand side vanishes, so
g = 1 and h_k = r^{A_{1,k}} in closed form, with no solve.  Far-field
exponents are fitted on the last grid decade and matched against the
characteristic roots; the match of h_0 is what
`spectral.classify_criticality` reads.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field

import numpy as np

from . import spectral
from .params import INF, RadialProfile, power_membership
from .quadrature import make_grid

FIT_WINDOW_DECADES = 1.0
# largest rms log-residual of an asymptotic far-field constant fit
FIT_RESIDUAL_TOL = 0.05
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
    _derived: dict = field(default_factory=dict, repr=False)

    @property
    def grid(self) -> np.ndarray:
        return self.profile.grid

    @property
    def values(self) -> np.ndarray:
        return self.profile.values

    def eval(self, r):
        return self.profile.eval(r)

    def derived(self, build, *args):
        """build(self, *args), run once per (build, args) and kept.  Callers
        look build up on its module at the call, so that a wrapper put there
        is the key and sees every build."""
        key = (build, args)
        if key not in self._derived:
            self._derived[key] = build(self, *args)
        return self._derived[key]


# Dormand-Prince 5(4) (J. Comput. Appl. Math. 6, 1980) with Shampine's
# quartic dense output (Math. Comp. 46, 1986).  The tableau, the order of
# every sum and the step control are scipy.integrate's RK45, so a profile
# is the same to the last bit as one solved by scipy.integrate.solve_ivp.
# Only the sums stay numpy calls: the tableau sums over the rows of K, the
# dot of the error norm and the dense-output products round as OpenBLAS
# sums them, which a sum in Python does not reproduce.  Every other
# operation is one IEEE operation per component, the same in Python floats,
# which skip numpy's per-call overhead on the 2-vectors of each step.
_C = np.array([0, 1/5, 3/10, 4/5, 8/9, 1])
_A = np.array([
    [0, 0, 0, 0, 0],
    [1/5, 0, 0, 0, 0],
    [3/40, 9/40, 0, 0, 0],
    [44/45, -56/15, 32/9, 0, 0],
    [19372/6561, -25360/2187, 64448/6561, -212/729, 0],
    [9017/3168, -355/33, 46732/5247, 49/176, -5103/18656]
])
_B = np.array([35/384, 0, 500/1113, 125/192, -2187/6784, 11/84])
_E = np.array([-71/57600, 0, 71/16695, -71/1920, 17253/339200, -22/525, 1/40])
_P = np.array([
    [1, -8048581381/2820520608, 8663915743/2820520608,
     -12715105075/11282082432],
    [0, 0, 0, 0],
    [0, 131558114200/32700410799, -68118460800/10900136933,
     87487479700/32700410799],
    [0, -1754552775/470086768, 14199869525/1410260304,
     -10690763975/1880347072],
    [0, 127303824393/49829197408, -318862633887/49829197408,
     701980252875 / 199316789632],
    [0, -282668133/205662961, 2019193451/616988883, -1453857185/822651844],
    [0, 40617522/29380423, -110615467/29380423, 69997945/29380423]])
SAFETY = 0.9
MIN_FACTOR = 0.2
MAX_FACTOR = 10
ERROR_EXPONENT = -1 / 5
_MESSAGES = {
    -1: "Required step size is less than spacing between numbers.",
    0: "The solver successfully reached the end of the integration interval.",
    1: "A termination event occurred.",
}


@dataclass
class IvpResult:
    """Grid points passed (t), the solution there (y, shape (2, len(t))),
    status 0 (end reached), 1 (g fell to zero) or -1 (step too small), and
    the number of right-hand-side evaluations."""

    t: np.ndarray
    y: np.ndarray
    status: int
    nfev: int

    @property
    def success(self) -> bool:
        return self.status >= 0

    @property
    def message(self) -> str:
        return _MESSAGES[self.status]


def solve_ivp(fun, x, y0, first_step) -> IvpResult:
    """RK45 for y' = fun(t, y), y = (g, dg/dx), from x[0] to x[-1] with
    outputs at the increasing points x.  The solve stops (status 1) after the
    first step on which g goes from >= 0 to <= 0; the points of that step
    are not output.  fun gets y as a tuple of two floats.  The step runs on
    Python floats; its sums (the stages, the error norm and the dense
    output) stay numpy calls, which round as scipy's do."""
    xs = x.tolist()
    t, t_bound = xs[0], xs[-1]
    y = tuple(map(float, y0))
    f = fun(t, y)
    nfev = 1
    K = np.empty((7, 2))
    # the rows of K are written through a memoryview, which skips numpy's
    # per-call cost; the sums take the views of K that scipy's RK45 takes
    Kw = memoryview(K)
    stages = [(s, K[:s].T, _A[s, :s], float(_C[s])) for s in range(1, 6)]
    K_step, K_all = K[:-1].T, K.T
    h_abs = first_step
    g_out, gd_out = [], []
    i = 0
    while True:
        min_step = 10 * (math.nextafter(t, math.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        Kw[0, 0], Kw[0, 1] = f
        while True:
            if h_abs < min_step:
                return _ivp_result(x[:i], g_out, gd_out, -1, nfev)
            t_new = min(t + h_abs, t_bound)
            h = t_new - t
            h_abs = abs(h)
            for s, rows, a, c in stages:
                d0, d1 = rows.dot(a).tolist()
                Kw[s, 0], Kw[s, 1] = fun(t + c * h,
                                         (y[0] + d0 * h, y[1] + d1 * h))
            d0, d1 = K_step.dot(_B).tolist()
            y_new = (y[0] + h * d0, y[1] + h * d1)
            f_new = fun(t + h, y_new)
            Kw[6, 0], Kw[6, 1] = f_new
            nfev += 6
            e0, e1 = K_all.dot(_E).tolist()
            err = np.array((
                e0 * h / (ATOL + max(abs(y[0]), abs(y_new[0])) * RTOL),
                e1 * h / (ATOL + max(abs(y[1]), abs(y_new[1])) * RTOL)))
            # np.linalg.norm's sum, as scipy takes it
            error_norm = math.sqrt(err.dot(err)) / 2 ** 0.5
            if error_norm < 1:
                if error_norm == 0:
                    factor = MAX_FACTOR
                else:
                    factor = min(MAX_FACTOR,
                                 SAFETY * error_norm ** ERROR_EXPONENT)
                if rejected:
                    factor = min(1, factor)
                h_abs *= factor
                break
            h_abs *= max(MIN_FACTOR, SAFETY * error_norm ** ERROR_EXPONENT)
            rejected = True
        t_old, y_old = t, y
        t, y, f = t_new, y_new, f_new
        if y_old[0] >= 0 and y[0] <= 0:
            return _ivp_result(x[:i], g_out, gd_out, 1, nfev)
        i_new = bisect.bisect_right(xs, t, i)
        if i_new > i:
            step = t - t_old
            z = [(xv - t_old) / step for xv in xs[i:i_new]]
            p = [z]  # the powers z, z^2, z^3, z^4 as cumulative products
            for _ in range(3):
                p.append([u * v for u, v in zip(p[-1], z)])
            d0, d1 = K_all.dot(_P).dot(p).tolist()
            g_out += [y_old[0] + step * d for d in d0]
            gd_out += [y_old[1] + step * d for d in d1]
            i = i_new
        if t - t_bound >= 0:
            return _ivp_result(x[:i], g_out, gd_out, 0, nfev)


def _ivp_result(t, g, gd, status, nfev) -> IvpResult:
    return IvpResult(t.copy(), np.array((g, gd)), status, nfev)


def solve_h(spec: spectral.PotentialSpec, k: int, grid=None) -> HarmonicProfile:
    """h_k on the grid: r^{A_{1,k}} for the Hardy and zero potentials, else
    the regularized profile equation integrated by RK45."""
    if grid is None:
        grid = make_grid()
    grid = np.asarray(grid, dtype=float)
    n = spec.dimension
    a1 = spectral.a_exponents(spec.lambda1 + spectral.omega(k, n), n)[0]
    x = np.log(grid)
    if spec.kind in spectral.ANALYTIC_KINDS:
        g, gdot = 1.0, 0.0  # the remainder is zero: RK45 returns these exactly
    else:
        g, gdot = _solve_g(spec, k, a1, grid, x)
    # a zero of g stops the solve short (g is None); h can also underflow
    # to zero while g > 0, or overflow on a far grid
    with np.errstate(over="ignore", invalid="ignore"):
        h = None if g is None else np.exp(a1 * x) * g
        if h is None or np.any(h <= 0.0):
            raise NonpositiveSolutionError(
                f"h_{k} nonpositive on the grid; check nonnegativity/criticality")
        hprime = np.exp((a1 - 1.0) * x) * (a1 * g + gdot)
    if not (np.isfinite(h).all() and np.isfinite(hprime).all()):
        raise HarmonicSolveError(f"h_{k} or its derivative overflowed on the grid")

    fitted = _fit_tail_exponent(grid, h)
    matched, logpow = _match_outer(spec, k, fitted)
    profile = RadialProfile(grid, h, n, inner_exponent=a1)
    hp = HarmonicProfile(k, spec, profile, hprime, a1, fitted, matched, logpow)
    try:
        hp.c, hp.fit_residual = fit_asymptotic_constant(hp)
    except NonConvergedFitError:
        hp.c, hp.fit_residual = None, None
    return hp


def _solve_g(spec, k, a1, grid, x):
    """g and dg/dx on the grid from RK45 in x = log r, or (None, None) when
    g reaches zero first."""
    b = 2.0 * a1 + spec.dimension - 2.0
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

    sol = solve_ivp(rhs, x, [g0, gd0], min(1e-3, (x[-1] - x[0]) / 10.0))
    if not sol.success:
        raise HarmonicSolveError(f"mode {k} integration failed: {sol.message}")
    return sol.y if sol.status == 0 else (None, None)


def _fit_tail_exponent(grid, h):
    mask = grid >= grid[-1] / 10.0 ** FIT_WINDOW_DECADES
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
    return RadialProfile(hp.grid, _derivative_values(hp, ell), hp.spec.dimension)


def _derivative_values(hp: HarmonicProfile, ell: int) -> np.ndarray:
    """d^ell h_k / dr^ell on the grid, from the orders below it, each built
    once through hp.derived."""
    if ell < 2:
        return (hp.values, hp.hprime)[ell]
    r = hp.grid
    n = hp.spec.dimension
    d = [hp.derived(derivative_h, j).values for j in range(ell)]
    m = ell - 2
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
    return acc


def leibniz_h(hp: HarmonicProfile, g_deriv, order: int) -> np.ndarray:
    """d^order (h_k g) = sum_j C(order, j) h_k^(j) g^(order-j), the h_k factors
    from derivative_h; g_deriv(m) returns the m-th derivative of g on the
    grid, one column or a stack of them (grid x c), each taken on its own."""
    g = g_deriv(order)
    column = (-1,) + (1,) * (g.ndim - 1)
    if order == 0:
        return hp.values.reshape(column) * g
    acc = np.zeros(g.shape)
    for j in range(order + 1):
        hj = hp.values if j == 0 else hp.derived(derivative_h, j).values
        acc += math.comb(order, j) * hj.reshape(column) * \
            (g if j == 0 else g_deriv(order - j))
    return acc


def hessian_envelope(hp: HarmonicProfile) -> RadialProfile:
    """|grad^2| envelope of the radial function h_k, sqrt(h''^2 + (N-1)(h'/r)^2)."""
    n = hp.spec.dimension
    r = hp.grid
    h1 = hp.derived(derivative_h, 1).values
    h2 = hp.derived(derivative_h, 2).values
    return RadialProfile(r, np.sqrt(h2 ** 2 + (n - 1) * (h1 / r) ** 2), n)


def weighted_h(hp: HarmonicProfile, power: float) -> RadialProfile:
    """r^power h_k on the grid of h_k."""
    return RadialProfile(hp.grid, hp.grid ** power * hp.values, hp.spec.dimension)


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


def fit_asymptotic_constant(hp: HarmonicProfile) -> tuple[float, float]:
    """Least-squares constant c with h_k ~ c r^{A_2}(log r)^B on the last
    grid decade; raises when the window is not yet asymptotic."""
    grid, h = hp.grid, hp.values
    mask = grid >= grid[-1] / 10.0 ** FIT_WINDOW_DECADES
    v = grid[mask] ** hp.outer_exponent
    if hp.outer_log_power:
        v = v * np.log(grid[mask]) ** hp.outer_log_power
    logratio = np.log(h[mask] / v)
    c = float(np.exp(np.mean(logratio)))
    residual = float(np.sqrt(np.mean((logratio - math.log(c)) ** 2)))
    if residual > FIT_RESIDUAL_TOL:
        raise NonConvergedFitError(
            f"far-field fit residual {residual:.3g} above {FIT_RESIDUAL_TOL}")
    return c, residual


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

    @classmethod
    def build(cls, spec: spectral.PotentialSpec, k_max=6, grid=None
              ) -> "ProfileSet":
        """Exponent table and criticality; other than for Hardy and zero
        potentials, classifying solves h_0 on the grid and keeps it."""
        grid = np.asarray(make_grid() if grid is None else grid, dtype=float)
        hks = {}
        outer = None
        if spec.kind not in spectral.ANALYTIC_KINDS:
            hks[0] = solve_h(spec, 0, grid)
            outer = hks[0].outer_exponent
        criticality = spectral.classify_criticality(spec, outer)
        if criticality == spectral.UNKNOWN:
            raise spectral.AmbiguousClassificationError(
                "criticality could not be resolved from the far-field fit")
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
