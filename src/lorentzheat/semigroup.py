"""Radial heat flow of individual modes and empirical operator norms.

A mode v_k(r, t) evolves under dt v = v'' + (N-1)/r v' - V_k v.  The solver
works in the ratio w = v / h_k, which satisfies the divergence-form
equation

    dt w = (r^(N-1) nu_k)^-1  d_r ( r^(N-1) nu_k d_r w ),   nu_k = h_k^2,

regular at the origin.  Space is discretized by a conservative finite
volume on the geometric grid (face weights by geometric means, cell masses
by exact power panels), time by an implicit theta scheme with a
backward-Euler start-up.  Each step solves the mass-weighted system
(M + theta dt K) w' = M w - (1 - theta) dt K w, M the cell masses and K the
conductance Laplacian: symmetric positive definite and tridiagonal, one
LDL^T factorization for all columns.  w == 1 is a discrete steady state to
machine precision, which pins the harmonic profile as stationary.

Three fixed constants shape every flow: the first step is
t_first / (dt_cap * INIT_SCALE_STEPS), and at each target a dip of min w
below min(0, min w0) by more than POSITIVITY_TOL max|w|, or an outer-zone
value above CONTAMINATION_THRESHOLD max|w|, is reported as a warning.

Operator norms between Lorentz spaces are estimated from below by flowing a
family of concentrated data (dyadic balls, annuli, and an h_k-shaped bump at
scale sqrt t) and taking the best norm ratio; the routine never claims more
than a lower bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dptsv

from .harmonic import HarmonicProfile, leibniz_h
from .params import INF_DECAY, RadialProfile
from .quadrature import radial_derivative_values, windowed_exponent


INIT_SCALE_STEPS = 4.0 ** 6       # first dt = t_first / (dt_cap * this)
CONTAMINATION_THRESHOLD = 1e-9    # outer-zone |w| / max|w| that warns
POSITIVITY_TOL = 1e-9             # dip below the initial floor, / max|w|


@dataclass(frozen=True)
class SchemeParams:
    """Time-stepping knobs; the start step and the monitors' thresholds are
    the module constants INIT_SCALE_STEPS, CONTAMINATION_THRESHOLD and
    POSITIVITY_TOL."""

    theta: float = 0.5              # in [0.5, 1]; 1 is backward Euler
    dt_cap: float = 64.0            # dt <= t / dt_cap once moving
    rannacher_steps: int = 12       # backward-Euler start-up steps; enough to
    # damp indicator-edge modes that Crank-Nicolson would keep oscillating
    boundary: str = "absorbing"     # or "reflecting"


DEFAULT_SCHEME = SchemeParams()


@dataclass
class ModeState:
    """Solution ratio w = v/h_k of one mode at one time."""

    k: int
    t: float
    w: np.ndarray
    hk: HarmonicProfile
    warnings: tuple = ()

    @property
    def grid(self) -> np.ndarray:
        return self.hk.grid

    def v_values(self) -> np.ndarray:
        return self.hk.values * self.w

    def v_profile(self) -> RadialProfile:
        return RadialProfile(self.grid, self.v_values(), self.hk.spec.dimension,
                             inner_exponent=self.hk.inner_exponent)


class _Operator:
    """Precomputed conservative discretization of the weighted flow."""

    def __init__(self, hk: HarmonicProfile, boundary: str):
        r = hk.grid
        n = hk.spec.dimension
        self.boundary = boundary
        weight = hk.values ** 2 * r ** (n - 1)
        # face conductances: geometric-mean weight over node spacing
        self.cond = np.sqrt(weight[:-1] * weight[1:]) / np.diff(r)
        self.mass = _cell_masses(r, weight,
                                 head_exponent=2.0 * hk.inner_exponent + n - 1.0)


class _ThetaStepper:
    """Implicit theta steps of the columns of w, in reused buffers.

    A step solves the mass-weighted system

        (M + theta dt K) w' = M w - (1 - theta) dt K w,

    M the diagonal of cell masses and K the conductance Laplacian (off
    diagonals -cond, zero row sums).  The matrix is symmetric positive
    definite, so LAPACK's dptsv factors it once (LDL^T, no pivoting) for all
    columns.  The band vectors and the Fortran-ordered w / rhs pair are
    allocated once and refilled with out= ufuncs, in the operations and
    order of a fresh assembly, so the bits do not depend on the reuse.
    """

    def __init__(self, op: _Operator, w: np.ndarray):
        """w: the Fortran-ordered start columns, taken over as a buffer."""
        m, ncol = w.shape
        self.op, self.w = op, w
        self.absorbing = op.boundary == "absorbing"
        self.rhs = np.empty_like(w, order="F")
        self.flux = np.empty((m - 1, ncol), order="F")
        self.d = np.empty(m)
        self.e = np.empty(m - 1)

    def step(self, theta: float, dt: float) -> np.ndarray:
        """Advance w by one step; returns the new w (a buffer: copy to keep)."""
        op, w, rhs = self.op, self.w, self.rhs
        s = theta * dt
        # d = (mass + s cl) + s cr, cl / cr the conductance of each cell's
        # left / right face (none at the ends); e = -s cond
        sc, d = np.multiply(s, op.cond, out=self.e), self.d
        d[0] = op.mass[0]
        np.add(op.mass[1:], sc, out=d[1:])
        np.add(d[:-1], sc, out=d[:-1])
        e = np.negative(sc, out=sc)
        if self.absorbing:
            # the pinned row decouples; its column multiplies w'[-1] = 0
            d[-1] = 1.0
            e[-1] = 0.0
        if theta >= 1.0:
            np.multiply(op.mass[:, None], w, out=rhs)
        else:
            # rhs = M w + ((1 - theta) dt) div(flux), the divergence assembled
            # in place in rhs and M w in w's buffer, which is dead afterwards
            flux = np.multiply(op.cond[:, None],
                               np.subtract(w[1:], w[:-1], out=self.flux),
                               out=self.flux)
            rhs[0] = flux[0]
            np.subtract(flux[1:], flux[:-1], out=rhs[1:-1])
            np.negative(flux[-1], out=rhs[-1])
            np.multiply((1.0 - theta) * dt, rhs, out=rhs)
            np.add(np.multiply(op.mass[:, None], w, out=w), rhs, out=rhs)
        if self.absorbing:
            rhs[-1] = 0.0
        # every |e| is a term of d, so a finite d means a finite band
        if not (np.isfinite(d).all() and np.isfinite(rhs).all()):
            raise ValueError("array must not contain infs or NaNs")
        *_, x, info = dptsv(d, e, rhs, 1, 1, 1)
        if info > 0:
            raise np.linalg.LinAlgError("matrix not positive definite")
        self.w, self.rhs = x, w
        return x


def _cell_masses(r, weight, head_exponent):
    """Integral of the weight over each finite-volume cell.

    Faces sit at geometric means of adjacent nodes; each half-panel is
    integrated with the local power law, and the innermost cell includes
    the exact (0, r_0] head.
    """
    n = r.size
    faces = np.sqrt(r[:-1] * r[1:])
    with np.errstate(divide="ignore", invalid="ignore"):
        expo = np.log(weight[1:] / weight[:-1]) / np.log(r[1:] / r[:-1])
    expo = np.where(np.isfinite(expo), expo, 0.0)

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


def _time_schedule(t_targets, scheme: SchemeParams):
    """Geometrically growing steps; emit flags mark target arrivals."""
    targets = sorted(set(float(t) for t in t_targets))
    if targets[0] <= 0.0:
        raise ValueError("targets must be positive")
    dt0 = targets[0] / (scheme.dt_cap * INIT_SCALE_STEPS)
    steps = []  # (dt, emit_after_this_step)
    t = 0.0
    for target in targets:
        while True:
            dt = max(dt0, t / scheme.dt_cap)
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
                 scheme: SchemeParams = DEFAULT_SCHEME):
    """Flow one or more initial ratios w0 (columns) to the target times.

    Returns (list over targets of w arrays, warnings).  Implicit theta
    stepping; the first few steps run backward Euler to damp indicator
    oscillations, and positivity / outer-boundary contamination are
    monitored rather than silently ignored.
    """
    w = np.array(np.atleast_2d(np.asarray(w0, dtype=float).T).T, order="F")
    targets, steps = _time_schedule(t_targets, scheme)
    if scheme.boundary == "absorbing":
        w[-1] = 0.0
    stepper = _ThetaStepper(_Operator(hk, scheme.boundary), w)
    out = []
    warnings = []
    r = hk.grid
    outer_zone = r >= r[-1] / 3.16
    init_floor = float(np.min(w))
    t = 0.0
    for step_index, (dt, emit) in enumerate(steps):
        theta = 1.0 if step_index < scheme.rannacher_steps else scheme.theta
        w = stepper.step(theta, dt)
        t += dt
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


def evolve_mode(hk: HarmonicProfile, phi: RadialProfile | np.ndarray,
                t_targets, scheme: SchemeParams = DEFAULT_SCHEME
                ) -> list[ModeState]:
    """Evolve a single mode datum phi; returns states at the target times."""
    phi_vals = phi.eval(hk.grid) if isinstance(phi, RadialProfile) \
        else np.asarray(phi, dtype=float)
    w0 = phi_vals / hk.values
    if not np.all(np.isfinite(w0)):
        raise ValueError("phi/h_k must be bounded on the grid")
    ws, warnings = evolve_modes(hk, w0[:, None], t_targets, scheme)
    targets = sorted(set(float(t) for t in t_targets))
    return [ModeState(hk.k, t, w[:, 0], hk, tuple(warnings))
            for t, w in zip(targets, ws)]


def radial_derivative(state: ModeState, alpha: int) -> RadialProfile:
    """d^alpha_r v as a profile, via Leibniz on v = h_k w.

    h_k factors use the exact ODE recursion; w factors use log-grid finite
    differences.  Deep inside B(0, sqrt t) the ratio w is flat to below
    double precision and differences only amplify solver noise by r^-2, so
    the inner zone is replaced by the leading expansion of w around the
    origin (w' proportional to r, w'' constant).
    """
    if alpha == 0:
        return state.v_profile()
    hk = state.hk
    r = state.grid
    cut = np.searchsorted(r, 3e-4 * math.sqrt(state.t))
    cut = int(np.clip(cut, 2, r.size - 8))
    wd = [state.w]
    for order in range(1, alpha + 1):
        if order <= 2:
            d = radial_derivative_values(state.w, r, order=order)
        else:
            d = radial_derivative_values(wd[order - 2], r, order=2)
        if order == 1:
            d[:cut] = d[cut] * r[:cut] / r[cut]
        else:
            d[:cut] = d[cut]
        wd.append(d)
    acc = leibniz_h(hk, wd.__getitem__, alpha)
    # deep sub-resolution cells carry a percent-level systematic tilt from
    # the quasi-static advance, so two-point fits are meaningless there: a
    # windowed fit averages the tilt, and slopes inside the snap band become
    # flat extensions, since the estimate layer reports lower bounds and must
    # not extrapolate a singularity it cannot resolve (genuine singular
    # exponents on this corpus sit well outside the band)
    return RadialProfile(r, acc, hk.spec.dimension,
                         inner_exponent=windowed_exponent(r, acc, 32, 0.15))


# ---------------------------------------------------------------------------
# test families and operator-norm estimation
# ---------------------------------------------------------------------------


@dataclass
class FamilyDatum:
    label: str
    profile: RadialProfile      # raw amplitude-1 samples on the grid


def build_test_family(hk: HarmonicProfile, t: float, j_max: int = 6
                      ) -> list[FamilyDatum]:
    """Concentrated data at dyadic fractions of sqrt t.

    Balls B(0, 2^-j sqrt t), annuli between consecutive radii, and the
    h_k-shaped bump on B(0, sqrt t); amplitudes are raw, callers normalize
    by the profile's source norm (the flow is linear).
    """
    r = hk.grid
    n = hk.spec.dimension
    root_t = math.sqrt(t)
    out = []
    for j in range(j_max + 1):
        radius = root_t * 2.0 ** (-j)
        if radius <= r[0] * 4.0:
            break
        vals = np.where(r <= radius, 1.0, 0.0)
        prof = RadialProfile(r, vals, n, inner_exponent=0.0)
        out.append(FamilyDatum(f"ball_j{j}", prof))
        inner_radius = radius / 2.0
        if inner_radius > r[0] * 4.0:
            av = np.where((r > inner_radius) & (r <= radius), 1.0, 0.0)
            if np.any(av > 0.0):
                aprof = RadialProfile(r, av, n, inner_exponent=INF_DECAY)
                out.append(FamilyDatum(f"annulus_j{j}", aprof))
    bump = np.where(r <= root_t, hk.values, 0.0)
    scale = float(np.max(np.abs(bump)))
    if scale > 0.0:
        bump = bump / scale
        out.append(FamilyDatum("hk_bump", RadialProfile(
            r, bump, n, inner_exponent=hk.inner_exponent)))
    return out


@dataclass
class OperatorNormEstimate:
    value: float
    datum: str
    t: float
    warnings: tuple = ()


def operator_norm_sweep(hk: HarmonicProfile, alphas, lps, t_list,
                        scheme: SchemeParams = DEFAULT_SCHEME, j_max=6):
    """Best lower bounds on ||d_r^alpha e^{-tH_k}||(L^{p,sigma} -> L^{q,theta})
    over the concentrated test family, for every (alpha, tuple, t); one
    batched flow per t.

    Returns {(alpha, lp_index): [OperatorNormEstimate per t]}.
    """
    results = {(a, i): [] for a in alphas for i in range(len(lps))}
    for t in t_list:
        fam = build_test_family(hk, t, j_max)
        w0 = np.stack([d.profile.values / hk.values for d in fam], axis=1)
        ws, warnings = evolve_modes(hk, w0, [t], scheme)
        w_t = ws[0]
        deriv_profiles = {}
        for a in alphas:
            deriv_profiles[a] = []
            for col in range(len(fam)):
                st = ModeState(hk.k, t, w_t[:, col], hk)
                deriv_profiles[a].append(radial_derivative(st, a))
        for i, lp in enumerate(lps):
            p, sigma = lp.source_pair()
            q, th = lp.target_pair()
            src = np.array([d.profile.lorentz_norm(p, sigma) for d in fam])
            for a in alphas:
                best, who = 0.0, "none"
                for col, d in enumerate(fam):
                    if not (src[col] > 0.0 and math.isfinite(src[col])):
                        continue
                    val = deriv_profiles[a][col].lorentz_norm(q, th)
                    ratio = val / src[col]
                    if ratio > best:
                        best, who = ratio, d.label
                results[(a, i)].append(OperatorNormEstimate(
                    best, who, t, tuple(warnings)))
    return results


def gaussian_exact(dimension: int, width: float, r, t: float):
    """Heat evolution of exp(-r^2/(2 width^2)) under the plain Laplacian."""
    r = np.asarray(r, dtype=float)
    s2 = width * width + 2.0 * t
    return (width * width / s2) ** (dimension / 2.0) * np.exp(-r * r / (2.0 * s2))


def heat_kernel_sup(dimension: int, t: float) -> float:
    """(4 pi t)^(-N/2), the L^1 -> L^inf norm of the free heat semigroup."""
    return (4.0 * math.pi * t) ** (-dimension / 2.0)
