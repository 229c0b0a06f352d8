"""Reference quantities that only the tests read: closed-form solutions, an
independent profile solver, residuals by finite differences, and the fitted
constants of the profile-comparison invariants."""

from __future__ import annotations

import math

import numpy as np

from lorentzheat import spectral
from lorentzheat.harmonic import HarmonicProfile, derivative_h
from lorentzheat.iterated import IteratedIntegral, iterate_I
from lorentzheat import params
from lorentzheat.params import (INF, LambdaMembershipError, RadialProfile,
                                power_membership, validate_pair)
from lorentzheat.quadrature import (cumulative_integral, make_grid,
                                    radial_derivative_values)
from lorentzheat.semigroup import build_test_family, evolve_modes, radial_derivative

# dilation factors at which mode_ratio_decay compares the profile ratios
MODE_RATIO_EPS = (0.5, 0.25, 0.125)


def power_norm_asymptotic(exponent, p, sigma, t, dimension) -> float:
    """Reference envelope t^(A/2 + N/(2p)) for ||r^A||_{L^{p,sigma}(B(0,sqrt t))}."""
    p, sigma = validate_pair(p, sigma)
    if not power_membership(exponent, p, sigma, dimension):
        raise LambdaMembershipError(
            f"r^{exponent} not in L^({p},{sigma}) near the origin in dimension {dimension}")
    np_over = 0.0 if p == INF else dimension / (2.0 * p)
    return t ** (exponent / 2.0 + np_over)


def segment_lp_norm(phi: RadialProfile, p: float) -> float:
    """||phi||_{L^p}, p < inf, summed over the segment set of phi: each
    piece's closed form, its end values taken from the segments' value
    ranges (the kernel before lp_norms read them from the nodes).

    A power piece va (r/ra)^a with s = a p + N integrates to
    v_e^p r_e^N (1 - (r_lo/r_hi)^|s|) / |s|, taken at the end e where
    v^p r^N is larger (r1 if s > 0, else r0), or va^p r0^N log(r1/r0) if
    s = 0; the inner extension (r0 = 0) diverges unless s > 0.  A linear
    piece vanishes at one end, so expanding r^(N-1) about r0, with
    L = r1 - r0 and va the nonzero end's value, gives va^p sum_k C(N-1, k) r0^(N-1-k) L^(k+1) c_k, where
    c_k = 1/(p+k+1) for the zero at r0 and B(k+1, p+1) for the zero at r1.
    Values are divided by the largest finite end value before the power p.
    """
    segs = phi.segments()
    if segs.ra.size == 0:
        return 0.0
    N = segs.N
    power = segs.kind == params._POWER
    s = np.where(power, segs.expo * p + N, 0.0)
    if np.any(power & (segs.r0 == 0.0) & (s <= 0.0)):
        return INF
    scale = float(np.max(segs.vmax[np.isfinite(segs.vmax)]))

    s = s[power]
    r0, r1 = segs.r0[power], segs.r1[power]
    up = s > 0.0
    # the value at r1 is vmax on increasing pieces, vmin on the others
    v_e = np.where(up, np.where(segs.expo[power] > 0, segs.vmax[power],
                                segs.vmin[power]), segs.va[power])
    abs_s = np.abs(s)
    with np.errstate(divide="ignore", invalid="ignore"):
        x = np.log(r1 / r0)  # inf on the inner extension
        shape = np.where(s == 0.0, x, -np.expm1(-abs_s * x) / abs_s)
    total = np.sum((v_e / scale) ** p * np.where(up, r1, r0) ** N * shape)

    lin = ~power
    r0 = segs.r0[lin]
    length = segs.r1[lin] - r0
    k = np.arange(N)
    binom, zero_at_r0, zero_at_r1 = params._linear_piece_coefficients(N, p)
    coef = np.where(segs.slope[lin][:, None] > 0, zero_at_r0, zero_at_r1)
    terms = binom * r0[:, None] ** (N - 1 - k) * length[:, None] ** (k + 1) * coef
    total += np.sum((segs.va[lin] / scale) ** p * terms.sum(axis=1))
    return scale * float(N * segs.alpha_N * total) ** (1.0 / p)


def laplacian_oracle_C(k: int, n: int, dimension: int) -> float:
    """Closed-form C_{k,n} with I_k^n(r) = C_{k,n} r^(2n) for V == 0.

    Integrating s^(2j) against the V == 0 weights gives the recursion
    C_{k,0} = 1, C_{k,j+1} = C_{k,j} / ((2j+2)(2j+2k+N)).
    """
    c = 1.0
    for j in range(n):
        c /= (2.0 * j + 2.0) * (2.0 * j + 2.0 * k + dimension)
    return c


def gaussian_exact(dimension: int, width: float, r, t: float):
    """Heat evolution of exp(-r^2/(2 width^2)) under the plain Laplacian."""
    r = np.asarray(r, dtype=float)
    s2 = width * width + 2.0 * t
    return (width * width / s2) ** (dimension / 2.0) * np.exp(-r * r / (2.0 * s2))


def heat_kernel_sup(dimension: int, t: float) -> float:
    """(4 pi t)^(-N/2), the L^1 -> L^inf norm of the free heat semigroup."""
    return (4.0 * math.pi * t) ** (-dimension / 2.0)


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


def j_envelope(hk: HarmonicProfile, n: int) -> RadialProfile:
    """Radial envelope h_k(r) I_k^n(r) of the weighted mode functions.

    The angular factor is a bounded multiplier and never evaluated pointwise;
    rates computed from this envelope are exact, constants envelope-level.
    """
    itg = iterate_I(hk, n)
    vals = hk.values * itg.values
    return RadialProfile(hk.grid, vals, hk.spec.dimension,
                         inner_exponent=hk.inner_exponent + itg.inner_exponent)


def mode_ode_residual(itg: IteratedIntegral) -> float:
    """Max relative residual of L_k (h_k I_k[f]) = h_k f on the grid interior
    (4 nodes off each end), with all derivatives taken by independent finite
    differences."""
    hk = itg.source
    r = hk.grid
    n = hk.spec.dimension
    u = hk.values * itg.values
    u1 = radial_derivative_values(u, r, order=1)
    u2 = radial_derivative_values(u, r, order=2)
    vk = hk.spec.v_k(r, hk.k)
    lhs = u2 + (n - 1.0) / r * u1 - vk * u
    rhs = hk.values * itg.fvals
    sl = slice(4, -4)
    scale = (np.abs(u2) + (n - 1.0) / r * np.abs(u1)
             + np.abs(vk * u) + np.abs(rhs))[sl]
    return float(np.max(np.abs(lhs[sl] - rhs[sl]) / scale))


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


def mode_ratio_decay(hps: dict[int, HarmonicProfile], k: int, ell: int) -> dict:
    """sup_r of [h_k(eps r)/h_ell(eps r)] / [h_k(r)/h_ell(r)] per eps in
    MODE_RATIO_EPS."""
    hk, hl = hps[k], hps[ell]
    r = hk.grid
    mask = (r >= r[0] / min(MODE_RATIO_EPS) * 8.0) & (r <= r[-1])
    rr = r[mask]
    base = hk.eval(rr) / hl.eval(rr)
    out = {}
    for eps in MODE_RATIO_EPS:
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


def sweep_every_column(hk: HarmonicProfile, alphas, lps, t_list,
                       dt_cap: float = 64.0, j_max=6):
    """operator_norm_sweep with every family datum flowed as its own column
    (annuli too, not as differences of balls), each ratio taken in turn."""
    results = {(a, i): np.zeros(len(t_list)) for a in alphas for i in range(len(lps))}
    all_warnings = []
    for it, t in enumerate(t_list):
        fam = build_test_family(hk, t, j_max)
        with np.errstate(over="ignore"):
            w0 = np.stack([d.profile.values / hk.values for d in fam], axis=1)
        ws, warnings = evolve_modes(hk, w0, [t], dt_cap)
        all_warnings += warnings
        deriv_profiles = {a: [radial_derivative(hk, t, w[:, None], a)[0] for w in ws[0].T]
                          for a in alphas}
        for i, lp in enumerate(lps):
            p, sigma = lp.source_pair()
            q, th = lp.target_pair()
            src = np.array([d.profile.lorentz_norm(p, sigma) for d in fam])
            for a in alphas:
                for col in range(len(fam)):
                    if not (src[col] > 0.0 and math.isfinite(src[col])):
                        continue
                    val = deriv_profiles[a][col].lorentz_norm(q, th)
                    results[(a, i)][it] = max(results[(a, i)][it], val / src[col])
    return results, all_warnings
