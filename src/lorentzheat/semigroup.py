"""Radial heat flow of individual modes and empirical operator norms.

A mode v_k(r, t) evolves under dt v = v'' + (N-1)/r v' - V_k v.  The solver
works in the ratio w = v / h_k, which satisfies the divergence-form
equation

    dt w = (r^(N-1) nu_k)^-1  d_r ( r^(N-1) nu_k d_r w ),   nu_k = h_k^2,

regular at the origin.  Space is discretized by a conservative finite
volume on the geometric grid (face weights by geometric means, cell masses
by exact power panels), time by TR-BDF2 (second order and L-stable; see
_Stepper), with w pinned to 0 at r_max (an absorbing boundary).  w == 1 is
a discrete steady state to machine precision away from r_max, which pins
the harmonic profile as stationary.

The flow's one parameter is dt_cap, at most DT_CAP_MAX: once moving, a step
of two solves covers dt <= 2 t / dt_cap.  Fixed constants shape the rest:
the first step is 2 t_first / (dt_cap * INIT_SCALE_STEPS), and at each
target a dip of min w below min(0, min w0) by more than POSITIVITY_TOL
max|w|, or an outer-zone value above CONTAMINATION_THRESHOLD max|w|, is
reported as a warning.

The graded start takes dt_cap / 2 steps of the first length to reach
t_first / INIT_SCALE_STEPS, then steps growing by 1 + 2 / dt_cap a step to
reach t_first: about dt_cap / 2 + ln(INIT_SCALE_STEPS) / ln(1 + 2 / dt_cap)
steps in all.  The L-stable step damps indicator edges without a first
step at the diffusion time of the smallest dyadic ball, so the time error
alone sets INIT_SCALE_STEPS.  On a Hardy (lambda = 2, N = 3, 1024 nodes)
operator_norm_sweep, alpha = 0..2 into L^inf and L^2 at t = 0.1 and 1, the
largest relative distance of dt_cap 64 from dt_cap 2048 is 1.70e-3 at 1,
6.70e-4 at 2, 5.62e-4 at 4, 5.30e-4 at 8 and 5.33e-4 at 4096: 8 is the
smallest power of 2 that costs no accuracy (a flow to one target then
takes 100 steps at dt_cap 64, not 303).

A step's cost is two solves with the factored matrix of its length, so
past the first target the steps climb a ladder of lengths, (t_first /
cap) DT_RUNG^k <= t / cap with cap = dt_cap / 2, and one factorization
serves the about 0.04 cap steps of a rung.  Every sweep flow has one
target and keeps the graded start alone.  The rule for DT_RUNG: the
smallest ratio whose flow time is within 5% of the best.  On evolve_flow's
flow (h_1 bump, 16384 nodes, dt_cap 256, 17 targets over 0.1..1000;
median of 7) 2^(1/32) took 0.720 s with 714 factorizations, 2^(1/16)
0.670 s with 508 and 2^(1/8) 0.654 s with 404, so 2^(1/16); the shorter
steps it takes raise that flow's error against the exact ball flow from
1.27609e-3 to 1.27704e-3 (+0.075%).

The two LAPACK routines, dpttrf and dpttrs, are the f2py wrappers of
scipy's linalg/_flapack extension, loaded from its file by _load_flapack.
Importing the scipy.linalg package for them cost a launch about 0.22 s
of set-up and 21 MiB of peak memory (benchmark medians on a 2-core x86
box, scipy 1.17.1), and nothing else on a flow's path needs scipy.

Operator norms between Lorentz spaces are estimated from below by flowing a
family of concentrated data (dyadic balls, annuli, and an h_k-shaped bump at
scale sqrt t) and taking the best norm ratio; the routine never claims more
than a lower bound.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from .harmonic import HarmonicProfile, leibniz_h
from .params import INF_DECAY, RadialProfile, lorentz_norms
from .quadrature import power_pieces, radial_derivative_values, windowed_exponent


INIT_SCALE_STEPS = 8.0            # first dt = 2 t_first / (dt_cap * this); 8: see above
DT_CAP_MAX = 1e4                  # steps listed up front: ~ dt_cap/2 per e-fold of t
CONTAMINATION_THRESHOLD = 1e-9    # outer-zone |w| / max|w| that warns
POSITIVITY_TOL = 1e-9             # dip below the initial floor, / max|w|
DT_RUNG = 2.0 ** (1.0 / 16.0)     # ratio of the step ladder past the first target; see above


def _load_flapack():
    """scipy's f2py LAPACK extension linalg/_flapack, loaded on its own.

    Importing the scipy.linalg package to reach it costs about 0.2 s of
    set-up (its array-API layer clones numpy's namespace, which loads
    numpy.f2py, .ma, .testing, .random and .polynomial); the extension
    alone loads in a few ms.  find_spec("scipy") locates the package
    without running its code.  The module is named under this one, not
    scipy's, so a later import of scipy.linalg loads its own copy.
    """
    scipy = importlib.util.find_spec("scipy")
    if scipy is None:
        raise ImportError(f"scipy not found on sys.path {sys.path}")
    dirs = [os.path.join(d, "linalg") for d in scipy.submodule_search_locations or ()]
    spec = importlib.machinery.PathFinder.find_spec(f"{__name__}._flapack", dirs)
    if spec is None:
        raise ImportError(f"scipy's LAPACK extension _flapack not found in {dirs}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_flapack = _load_flapack()
dpttrf, dpttrs = _flapack.dpttrf, _flapack.dpttrs


class NonFiniteFlowError(ArithmeticError, ValueError):
    """A flow's start ratio phi / h_k (a NaN datum, or h_k subnormal where
    the datum is not 0), matrix band (h_k^2 r^(N-1) overflows) or columns
    at a target time hold infs or NaNs."""


def check_dt_cap(dt_cap: float) -> None:
    """ValueError unless 0 < dt_cap <= DT_CAP_MAX: at 0 or below, or at inf,
    the time schedule never advances (dt = 0 at t = 0), and above the limit
    the listed steps exhaust memory long before the flow would end."""
    if not 0.0 < dt_cap <= DT_CAP_MAX:
        raise ValueError(
            f"scheme.dt_cap must be in (0, {DT_CAP_MAX:g}], got {dt_cap}")


class _Operator:
    """Precomputed conservative discretization of the weighted flow."""

    def __init__(self, hk: HarmonicProfile):
        r = hk.grid
        n = hk.spec.dimension
        weight = hk.values ** 2 * r ** (n - 1)
        # face conductances: geometric-mean weight over node spacing
        self.cond = np.sqrt(weight[:-1] * weight[1:]) / np.diff(r)
        self.mass = _cell_masses(r, weight,
                                 head_exponent=2.0 * hk.inner_exponent + n - 1.0)


class _Stepper:
    """TR-BDF2 steps of the columns of w, in reused buffers.

    With gamma = 2 - sqrt 2 and s = gamma dt / 2, a trapezoid stage over
    gamma dt and a BDF2 stage over the rest solve

        A w_g = (M - s K) w,    A w' = c1 M w_g - c0 M w,    A = M + s K,

    c1 = 1 / (gamma (2 - gamma)), c0 = (1 - gamma)^2 c1, M the diagonal of
    cell masses and K the conductance Laplacian (off diagonals -cond, zero
    row sums), the last row replaced by w'[-1] = 0.  A is symmetric
    positive definite: LAPACK's dpttrf factors it (LDL^T, no pivoting) and
    dpttrs solves with it.  Since (M - s K) w = 2 M w - A w, the trapezoid
    stage is w_g = 2 x - w with x = A^-1 (M w), and the BDF2 right-hand side
    is (2 c1 M) x - ((c1 + c0) M) w: w_g is never formed, and a step is the
    two solves and four array passes.  The pinned row keeps the identity,
    since w[-1] = 0 stays exact.  A is factored only when dt differs from
    the previous step's, and the band is checked for infs and NaNs then.
    The columns are checked by evolve_modes at each emit.  Every buffer is
    refilled with out= ufuncs, in the operations and order of a fresh
    assembly, so the bits do not depend on the reuse.

    Measured on a 2-core x86 box (numpy 2.4.6, scipy 1.17.1; medians of 15
    runs of 200 steps): at 16384 nodes and one column a step takes about
    505 us with a factorization and 295 us on a reused one, against 525 us
    when the trapezoid stage assembled (M - s K) w; at 1024 nodes and 9
    columns, 210-230 and 195-220 us against 275-300 us.
    """

    GAMMA = 2.0 - math.sqrt(2.0)
    C1 = 1.0 / (GAMMA * (2.0 - GAMMA))
    C0 = (1.0 - GAMMA) ** 2 * C1

    def __init__(self, op: _Operator, w: np.ndarray):
        """w: the Fortran-ordered start columns, taken over as a buffer."""
        m = w.shape[0]
        self.op, self.w = op, w
        self.rhs = np.empty_like(w, order="F")
        self.mass_x = ((2.0 * self.C1) * op.mass)[:, None]
        self.mass_w = ((self.C1 + self.C0) * op.mass)[:, None]
        self.d = np.empty(m)
        self.e = np.empty(m - 1)
        self.dt = None

    def _factor(self, dt: float) -> None:
        """Assemble and factor the band of A = M + s K for this dt."""
        op = self.op
        s = 0.5 * self.GAMMA * dt
        # d = (mass + s cl) + s cr, cl / cr the conductance of each cell's
        # left / right face (none at the ends); e = -s cond
        sc, d = np.multiply(s, op.cond, out=self.e), self.d
        d[0] = op.mass[0]
        np.add(op.mass[1:], sc, out=d[1:])
        np.add(d[:-1], sc, out=d[:-1])
        e = np.negative(sc, out=sc)
        # the pinned row decouples; its column multiplies w'[-1] = 0
        d[-1] = 1.0
        e[-1] = 0.0
        # every |e| is a term of d, so a finite d means a finite band; the
        # pinned row's mass, which d does not hold, multiplies w[-1] = 0
        if not (np.isfinite(d).all() and math.isfinite(op.mass[-1])):
            raise NonFiniteFlowError("the flow's matrix holds infs or NaNs: "
                                     "h_k^2 r^(N-1) overflows on the grid")
        d, e, info = dpttrf(d, e, 1, 1)
        if info > 0:
            raise np.linalg.LinAlgError("matrix not positive definite")
        self.d, self.e, self.dt = d, e, dt

    def step(self, dt: float) -> np.ndarray:
        """Advance w by one step; returns the new w (a buffer: copy to keep)."""
        if dt != self.dt:
            self._factor(dt)
        w = self.w
        # stage 1: x = A^-1 (M w), solved in rhs's buffer
        x, _ = dpttrs(self.d, self.e,
                      np.multiply(self.op.mass[:, None], w, out=self.rhs), 1)
        # stage 2: A w' = (2 c1 M) x - ((c1 + c0) M) w, in x's buffer
        np.subtract(np.multiply(self.mass_x, x, out=x),
                    np.multiply(self.mass_w, w, out=w), out=x)
        x, _ = dpttrs(self.d, self.e, x, 1)
        self.w, self.rhs = x, w
        return x


def _cell_masses(r, weight, head_exponent):
    """Integral of the weight over each finite-volume cell.

    Faces sit at geometric means of adjacent nodes; each half-panel is
    integrated with the panel's power law from power_pieces (flat where a
    weight is 0), and the innermost cell includes the exact (0, r_0] head.
    """
    n = r.size
    faces = np.sqrt(r[:-1] * r[1:])
    expo = power_pieces(r, weight)[1]

    def partial(anchor_r, anchor_w, e, r_from, r_to):
        ep1 = e + 1.0
        return anchor_w * anchor_r / ep1 * ((r_to / anchor_r) ** ep1
                                            - (r_from / anchor_r) ** ep1)

    mass = np.empty(n)
    if head_exponent <= -1.0:
        raise ValueError("cell-mass head exponent must exceed -1")
    head = weight[0] * r[0] / (head_exponent + 1.0)
    mass[0] = head + partial(r[0], weight[0], expo[0], r[0], faces[0])
    # right half of panel i-1 plus left half of panel i
    mass[1:-1] = partial(r[1:-1], weight[1:-1], expo[:-1], faces[:-1], r[1:-1]) \
        + partial(r[1:-1], weight[1:-1], expo[1:], r[1:-1], faces[1:])
    mass[-1] = partial(r[-1], weight[-1], expo[-1], faces[-1], r[-1])
    return mass


def _time_schedule(t_targets, dt_cap: float = 64.0):
    """Steps of dt <= 2 t / dt_cap (two solves each) once moving; emit
    flags mark target arrivals.

    Up to the first target t_1 the start is graded (see the module
    docstring): dt = max(dt0, t / cap), cap = dt_cap / 2.  After it, dt is
    the largest rung (t_1 / cap) DT_RUNG^k <= t / cap.  The rung index k
    only climbs and each rung is compared as the float it steps by, so no
    rounding takes dt past t / cap, and a run of equal steps shares one
    factorization.  The step that reaches a target is shortened to land on
    it exactly.  The targets are the distinct times, ascending: the order
    of every flow output.
    """
    check_dt_cap(dt_cap)
    targets = sorted(set(float(t) for t in t_targets))
    if targets[0] <= 0.0:
        raise ValueError("targets must be positive")
    cap = 0.5 * dt_cap
    dt0 = targets[0] / (cap * INIT_SCALE_STEPS)
    base, k = targets[0] / cap, 0
    steps = []  # (dt, emit_after_this_step)
    t = 0.0
    for target in targets:
        while True:
            if t < targets[0]:
                dt = max(dt0, t / cap)
            else:
                while base * DT_RUNG ** (k + 1) <= t / cap:
                    k += 1
                dt = base * DT_RUNG ** k
            last = t + dt >= target * (1.0 - 1e-14)
            if last:
                dt = target - t
            steps.append((dt, last))
            t += dt
            if last:
                t = target
                break
    return targets, steps


def evolve_modes(hk: HarmonicProfile, w0: np.ndarray, t_targets,
                 dt_cap: float = 64.0):
    """Flow one or more initial ratios w0 (columns) to the target times.

    Returns (list over the distinct targets, ascending, of w arrays,
    warnings).  Positivity / outer-boundary contamination are monitored
    rather than silently ignored.
    """
    w = np.array(np.atleast_2d(np.asarray(w0, dtype=float).T).T, order="F")
    bad = np.flatnonzero(~np.isfinite(w).all(axis=1))
    if bad.size:
        i = bad[0]
        raise NonFiniteFlowError(
            f"the start ratio phi/h_{hk.k} holds infs or NaNs from r = "
            f"{hk.grid[i]:g} (h_{hk.k} = {hk.values[i]:g} there)")
    targets, steps = _time_schedule(t_targets, dt_cap)
    w[-1] = 0.0
    out = []
    warnings = []
    outer_zone = _outer_zone(hk.grid)
    init_floor = float(np.min(w))
    # an overflowing weight makes the band nonfinite, which _factor rejects;
    # an inf or NaN never leaves a column once in it, so the columns are
    # checked only at the emits, and the steps before raise no warning
    with np.errstate(over="ignore", invalid="ignore"):
        stepper = _Stepper(_Operator(hk), w)
        for dt, emit in steps:
            w = stepper.step(dt)
            if emit:
                t = targets[len(out)]
                if not np.isfinite(w).all():
                    raise NonFiniteFlowError(f"the flow holds infs or NaNs at t={t:g}")
                warnings += _flow_warnings(w, t, init_floor, outer_zone)
                out.append(w.copy())
    return out, warnings


def _flow_warnings(w, t, init_floor, outer_zone) -> list[str]:
    """The positivity and boundary warnings of the columns w at time t."""
    warnings = []
    wmax = float(np.max(np.abs(w)))
    if min(0.0, init_floor) - float(np.min(w)) > POSITIVITY_TOL * wmax:
        warnings.append(f"positivity dip at t={t:g}")
    contamination = float(np.max(np.abs(w[outer_zone]))) / max(wmax, 1e-300)
    if contamination > CONTAMINATION_THRESHOLD:
        warnings.append(f"boundary contamination {contamination:.2e} at t={t:g}")
    return warnings


def _outer_zone(r):
    """The nodes whose |w| counts as boundary contamination."""
    return r >= r[-1] / 3.16


def radial_derivative(hk: HarmonicProfile, t: float, w, alpha: int
                      ) -> list[RadialProfile]:
    """d^alpha_r v of v = h_k w as a profile, one per column of w (grid x c)
    at time t, each column on its own; the derivatives in one pass.

    h_k factors use the exact ODE recursion; w factors use log-grid finite
    differences.  Deep inside B(0, sqrt t) the ratio w is flat to below
    double precision and differences only amplify solver noise by r^-2, so
    the inner zone is replaced by the leading expansion of w around the
    origin (w' proportional to r, w'' constant).  v itself keeps the inner
    extension of h_k; its derivatives fit theirs from the values.
    """
    r, n = hk.grid, hk.spec.dimension
    if alpha == 0:
        return [RadialProfile(r, v, n, inner_exponent=hk.inner_exponent)
                for v in (hk.values[:, None] * w).T]
    cut = np.searchsorted(r, 3e-4 * math.sqrt(t))
    cut = int(np.clip(cut, 2, r.size - 8))
    wd = [w]
    for order in range(1, alpha + 1):
        if order <= 2:
            d = radial_derivative_values(w, r, order=order)
        else:
            d = radial_derivative_values(wd[order - 2], r, order=2)
        if order == 1:
            d[:cut] = d[cut] * r[:cut, None] / r[cut]
        else:
            d[:cut] = d[cut]
        wd.append(d)
    # deep sub-resolution cells carry a percent-level systematic tilt from
    # the quasi-static advance, so two-point fits are meaningless there: a
    # windowed fit averages the tilt, and slopes inside the snap band become
    # flat extensions, since the estimate layer reports lower bounds and must
    # not extrapolate a singularity it cannot resolve (genuine singular
    # exponents on this corpus sit well outside the band)
    return [RadialProfile(r, v, n, inner_exponent=windowed_exponent(r, v, 32, 0.15))
            for v in leibniz_h(hk, wd.__getitem__, alpha).T]


# ---------------------------------------------------------------------------
# test families and operator-norm estimation
# ---------------------------------------------------------------------------


@dataclass
class FamilyDatum:
    label: str
    profile: RadialProfile      # raw amplitude-1 samples on the grid
    between: tuple[int, int] | None = None  # family indices: ball minus ball


def start_values(hk: HarmonicProfile, kind: str, radius: float) -> np.ndarray:
    """Samples on the grid of a start datum at the given radius: "ball" 1 on
    B(0, radius), "annulus" 1 on radius/2 < r <= radius, "hk_bump" h_k on
    B(0, radius), "gaussian" exp(-r^2 / (2 radius^2))."""
    r = hk.grid
    if kind == "gaussian":
        with np.errstate(over="ignore"):  # r^2 = inf far out: exactly 0
            return np.exp(-r ** 2 / (2.0 * radius ** 2))
    if kind == "annulus":
        return np.where((r > radius / 2.0) & (r <= radius), 1.0, 0.0)
    return np.where(r <= radius, hk.values if kind == "hk_bump" else 1.0, 0.0)


# the test family keeps a ball or annulus only where its radius exceeds
# FAMILY_CUT r_min
FAMILY_CUT = 4.0


def build_test_family(hk: HarmonicProfile, t: float, j_max: int = 6
                      ) -> list[FamilyDatum]:
    """Concentrated data at dyadic fractions of sqrt t.

    Balls B(0, 2^-j sqrt t), annuli between consecutive radii, and the
    h_k-shaped bump on B(0, sqrt t); amplitudes are raw, callers normalize
    by the profile's source norm (the flow is linear).  Halving a radius is
    exact, so on the grid annulus_j is ball_j - ball_{j+1} exactly; its
    `between` names those two balls, except for the innermost annulus at
    j = j_max, whose inner ball is not in the family.
    """
    r = hk.grid
    n = hk.spec.dimension
    root_t = math.sqrt(t)
    out = []
    for j in range(j_max + 1):
        radius = root_t * 2.0 ** (-j)
        if radius <= r[0] * FAMILY_CUT:
            break
        prof = RadialProfile(r, start_values(hk, "ball", radius), n,
                             inner_exponent=0.0)
        out.append(FamilyDatum(f"ball_j{j}", prof))
        if radius / 2.0 > r[0] * FAMILY_CUT:
            av = start_values(hk, "annulus", radius)
            if np.any(av > 0.0):
                aprof = RadialProfile(r, av, n, inner_exponent=INF_DECAY)
                # ball_{j+1} follows this annulus unless j = j_max
                between = (len(out) - 1, len(out) + 1) if j < j_max else None
                out.append(FamilyDatum(f"annulus_j{j}", aprof, between))
    bump = start_values(hk, "hk_bump", root_t)
    scale = float(np.max(np.abs(bump)))
    if scale > 0.0:
        bump = bump / scale
        out.append(FamilyDatum("hk_bump", RadialProfile(
            r, bump, n, inner_exponent=hk.inner_exponent)))
    return out


def flow_family(hk: HarmonicProfile, fam: list[FamilyDatum], t: float,
                dt_cap: float = 64.0):
    """The ratios w of every family datum at time t, one column each, and
    the flow's warnings.

    One batched flow takes the data that are no difference of two others
    (the balls, the bump and the innermost annulus); the flow is linear, so
    every other annulus is the difference of its two balls' columns.  The
    warnings judge all the family's columns, as a flow of each would.
    """
    basis = [i for i, d in enumerate(fam) if d.between is None]
    with np.errstate(over="ignore"):  # evolve_modes rejects the overflow
        w0 = np.stack([fam[i].profile.values / hk.values for i in basis], axis=1)
    ws, _ = evolve_modes(hk, w0, [t], dt_cap)
    w = np.empty((hk.grid.size, len(fam)), order="F")
    w[:, basis] = ws[0]
    for i, d in enumerate(fam):
        if d.between is not None:
            np.subtract(w[:, d.between[0]], w[:, d.between[1]], out=w[:, i])
    return w, _flow_warnings(w, t, float(np.min(w0)), _outer_zone(hk.grid))


def best_ratios(hk: HarmonicProfile, fam: list[FamilyDatum], t: float, w_t,
                alphas, lps) -> dict:
    """{(alpha, lp_index): best ratio} of ||d_r^alpha v_t||_{L^{q,theta}} to
    ||datum||_{L^{p,sigma}} over the family's columns w_t at time t; data of
    zero or infinite source norm are passed over, and 0 means none was left.

    One radial_derivative call per alpha takes the derivative profiles of
    all the columns.  Norms are taken per column stack, with one
    lorentz_norms call per (alpha, target pair) and one per distinct
    source pair; sigma = p and sup norms come from the node values.
    """
    data = [d.profile for d in fam]
    src = {pair: lorentz_norms(data, *pair)
           for pair in dict.fromkeys(lp.source_pair() for lp in lps)}
    best = {}
    for a in alphas:
        derivs = radial_derivative(hk, t, w_t, a)
        target = {}
        for i, lp in enumerate(lps):
            pair = lp.target_pair()
            if pair not in target:
                target[pair] = lorentz_norms(derivs, *pair)
            den = src[lp.source_pair()]
            keep = (den > 0.0) & np.isfinite(den)
            best[(a, i)] = float(np.max(target[pair][keep] / den[keep], initial=0.0))
    return best


def operator_norm_sweep(hk: HarmonicProfile, alphas, lps, t_list,
                        dt_cap: float = 64.0, j_max=6):
    """Best lower bounds on ||d_r^alpha e^{-tH_k}||(L^{p,sigma} -> L^{q,theta})
    over the concentrated test family, for every (alpha, tuple, t); one
    batched flow of the family's basis per t (flow_family).

    Returns ({(alpha, lp_index): array of the bounds over t_list}, the
    warnings of each time's flow, in the order of t_list).
    """
    results = {(a, i): np.empty(len(t_list)) for a in alphas for i in range(len(lps))}
    warnings = []
    for it, t in enumerate(t_list):
        fam = build_test_family(hk, t, j_max)
        w_t, flow_warnings = flow_family(hk, fam, t, dt_cap)
        warnings += flow_warnings
        for key, value in best_ratios(hk, fam, t, w_t, alphas, lps).items():
            results[key][it] = value
    return results, warnings
