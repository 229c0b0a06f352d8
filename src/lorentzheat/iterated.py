"""Iterated integral operators of the radial mode equations.

I_k[f](r) = int_0^r s^(1-N) h_k(s)^-2 ( int_0^s tau^(N-1) h_k(tau)^2 f(tau) dtau ) ds

is a right inverse of the h_k-conjugated mode operator: with
L_k u := u'' + (N-1)/r u' - (V + omega_k r^-2) u one has, exactly,

    L_k [ h_k * I_k[f] ] = h_k * f,

equivalently I_k[f]'' + ((N-1)/r + 2 h_k'/h_k) I_k[f]' = f.  The repeated
kernels I_k^n := I_k^n[1] and their h_k-weighted envelopes are the building
blocks of the upper decay envelopes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .harmonic import HarmonicProfile, leibniz_h
from .params import RadialProfile
from .quadrature import (DivergentIntegralError, cumulative_integral,
                         radial_derivative_values, two_point_exponent,
                         windowed_exponent)


class SingularSourceError(ValueError):
    """f too singular at the origin for the inner integral to converge."""


@dataclass
class IteratedIntegral:
    """I_k^n together with the exact pieces of its first two derivatives."""

    k: int
    n: int
    profile: RadialProfile
    source: HarmonicProfile
    fvals: np.ndarray            # the integrand f this level was built from
    dI: np.ndarray               # exact first derivative r^(1-N) h^-2 G
    _derivs: dict = field(default_factory=dict, repr=False)

    @property
    def values(self) -> np.ndarray:
        return self.profile.values

    @property
    def grid(self) -> np.ndarray:
        return self.profile.grid


def apply_I(hk: HarmonicProfile, f, f_inner_exponent=None) -> IteratedIntegral:
    """One application of I_k to f (an array on the grid or a RadialProfile)."""
    r = hk.grid
    n = hk.spec.dimension
    if isinstance(f, RadialProfile):
        if f_inner_exponent is None:
            f_inner_exponent = f.inner_exponent
        fvals = f.eval(r) if f.grid.shape != r.shape or np.any(f.grid != r) \
            else f.values.copy()
    else:
        fvals = np.asarray(f, dtype=float)
    if f_inner_exponent is None or not math.isfinite(f_inner_exponent):
        f_inner_exponent = two_point_exponent(r, fvals)

    a1 = hk.inner_exponent
    head_in = n - 1.0 + 2.0 * a1 + f_inner_exponent
    if head_in <= -1.0:
        raise SingularSourceError(
            f"inner integrand exponent {head_in:.3f} <= -1 "
            f"(f must satisfy |f| <~ r^-a with a < N + 2 A_1k)")
    h = hk.values
    try:
        inner = cumulative_integral(r, r ** (n - 1) * h * h * fvals,
                                    head_exponent=head_in)
        dI = r ** (1 - n) * inner / (h * h)
        head_out = head_in + 1.0 - (n - 1.0) - 2.0 * a1  # = f_exp + 2 - 1
        outer = cumulative_integral(r, dI, head_exponent=head_out)
    except DivergentIntegralError as exc:
        raise SingularSourceError(str(exc)) from exc
    profile = RadialProfile(r, outer, n,
                            inner_exponent=f_inner_exponent + 2.0)
    return IteratedIntegral(hk.k, 1, profile, hk, fvals, dI)


def iterate_I(hk: HarmonicProfile, n: int) -> IteratedIntegral:
    """I_k^n = n-fold application of I_k to the constant 1."""
    if n < 0:
        raise ValueError("n must be >= 0")
    r = hk.grid
    if n == 0:
        ones = np.ones_like(r)
        prof = RadialProfile(r, ones, hk.spec.dimension, inner_exponent=0.0)
        return IteratedIntegral(hk.k, 0, prof, hk, ones, np.zeros_like(r))
    cur = apply_I(hk, np.ones_like(r), f_inner_exponent=0.0)
    for j in range(1, n):
        nxt = apply_I(hk, cur.values, f_inner_exponent=2.0 * j)
        nxt.n = j + 1
        cur = nxt
    cur.n = n
    return cur


def laplacian_oracle_C(k: int, n: int, dimension: int) -> float:
    """Closed-form C_{k,n} with I_k^n(r) = C_{k,n} r^(2n) for V == 0.

    Integrating s^(2j) against the V == 0 weights gives the recursion
    C_{k,0} = 1, C_{k,j+1} = C_{k,j} / ((2j+2)(2j+2k+N)).
    """
    c = 1.0
    for j in range(n):
        c /= (2.0 * j + 2.0) * (2.0 * j + 2.0 * k + dimension)
    return c


def j_envelope(hk: HarmonicProfile, n: int, itg: IteratedIntegral | None = None
               ) -> RadialProfile:
    """Radial envelope h_k(r) I_k^n(r) of the weighted mode functions.

    The angular factor is a bounded multiplier and never evaluated pointwise;
    rates computed from this envelope are exact, constants envelope-level.
    """
    if itg is None:
        itg = iterate_I(hk, n)
    vals = hk.values * itg.values
    return RadialProfile(hk.grid, vals, hk.spec.dimension,
                         inner_exponent=hk.inner_exponent + itg.profile.inner_exponent)


def derivative_iterated(itg: IteratedIntegral, ell: int) -> np.ndarray:
    """d^ell I_k^n / dr^ell, exact for ell <= 2 via the inversion identity.

    I' is the stored single integral; I'' follows from
    I'' = f - ((N-1)/r) I' - 2 (h'/h) I'.  Orders above 2 use log-grid
    finite differences of I'' (only envelope-level accuracy is needed there).
    """
    if ell == 0:
        return itg.values
    if ell in itg._derivs:
        return itg._derivs[ell]
    hk = itg.source
    r = hk.grid
    n = hk.spec.dimension
    if itg.n == 0:
        out = np.zeros_like(r)
    elif ell == 1:
        out = itg.dI
    elif ell == 2:
        out = itg.fvals - ((n - 1.0) / r) * itg.dI \
            - 2.0 * (hk.hprime / hk.values) * itg.dI
    else:
        base = derivative_iterated(itg, 2)
        out = radial_derivative_values(base, r, order=1) if ell == 3 else \
            radial_derivative_values(base, r, order=2)
        if ell > 4:
            raise ValueError("iterated-integral derivatives supported to order 4")
    itg._derivs[ell] = out
    return out


def _radial_gradient_components(gd, r):
    """Elementary components P_i of the gradient tensors of a radial g.

    P_0 = g and P_i = (d/dr - (i-1)/r) P_{i-1}; every entry of grad^j g is
    a bounded combination of P_{j-l} r^-l with l <= j/2, so polynomial
    cancellations at any order survive.  Each P_i is returned with its
    absolute-sum companion (the cancellation noise floor).
    """
    orders = len(gd) - 1
    # P_i = sum_j c_{i,j} gd[j] r^(j-i); build the coefficient rows
    coefs = [{0: 1.0}]
    for i in range(1, orders + 1):
        prev = coefs[-1]
        cur: dict[int, float] = {}
        for j, c in prev.items():
            cur[j + 1] = cur.get(j + 1, 0.0) + c
            cur[j] = cur.get(j, 0.0) + c * (j - i + 1) - c * (i - 1)
        coefs.append({j: c for j, c in cur.items() if c != 0.0})
    ps, crude = [], []
    for i, row in enumerate(coefs):
        acc = np.zeros_like(r)
        flo = np.zeros_like(r)
        for j, c in row.items():
            term = c * gd[j] * r ** (j - i)
            acc += term
            flo += np.abs(term)
        ps.append(acc)
        crude.append(flo)
    return ps, crude


def envelope_nabla_J(hk: HarmonicProfile, itg: IteratedIntegral, alpha: int
                     ) -> RadialProfile:
    """Radial envelope of |grad^alpha (h_k I_k^n Q)|.

    Writing the mode function as (r^k Q) * g with g = h_k I_k^n r^-k, the
    harmonic-polynomial factor loses derivatives beyond order k, and
    |grad^j g| is controlled by the elementary radial components P_i:

        env = sum_{m<=min(alpha,k)} C(alpha,m) (k)_m r^(k-m)
                  * sum_{l<=j/2} |P_{j-l}(g)| r^-l,     j = alpha - m.

    This vanishes exactly on the homogeneous-polynomial corpus (any order)
    and scales like r^(A_k + 2n - alpha) otherwise; values below the
    cancellation noise floor are clamped to zero.
    """
    r = hk.grid
    k = hk.k
    # u[j] = d^j (h_k I_k^n), by Leibniz over the exact factor derivatives
    u = [leibniz_h(hk, lambda m: derivative_iterated(itg, m), j)
         for j in range(alpha + 1)]
    gd, gd_crude = [], []
    for i in range(alpha + 1):
        acc = np.zeros_like(r)
        crude = np.zeros_like(r)
        for j in range(i + 1):
            fall = 1.0
            for step in range(i - j):
                fall *= -k - step
            term = math.comb(i, j) * u[j] * fall * r ** (-k - (i - j))
            acc += term
            crude += np.abs(term)
        gd.append(acc)
        gd_crude.append(crude)
    # mask cancellation noise in the g-derivatives before combining
    for i in range(alpha + 1):
        gd[i] = np.where(np.abs(gd[i]) < 1e-11 * gd_crude[i], 0.0, gd[i])
    ps, ps_crude = _radial_gradient_components(gd, r)
    env = np.zeros_like(r)
    env_crude = np.zeros_like(r)
    for m in range(min(alpha, k) + 1):
        poly = 1.0
        for step in range(m):
            poly *= k - step
        j = alpha - m
        radial = np.zeros_like(r)
        radial_crude = np.zeros_like(r)
        if j == 0:
            radial, radial_crude = np.abs(ps[0]), ps_crude[0]
        else:
            for ell in range(j // 2 + 1):
                if j - ell < 1:
                    continue
                radial += np.abs(ps[j - ell]) * r ** (-ell)
                radial_crude += ps_crude[j - ell] * r ** (-ell)
        weight = math.comb(alpha, m) * abs(poly) * r ** (k - m)
        env += weight * radial
        env_crude += weight * radial_crude
    env[env < 1e-10 * env_crude] = 0.0
    # smooth profiles keep flat envelopes near the origin even when the
    # generic scaling would suggest a singular power, so the extension is
    # read off the computed values rather than declared (None: default fit)
    return RadialProfile(r, env, hk.spec.dimension,
                         inner_exponent=windowed_exponent(r, env, 16, 0.02))


def mode_ode_residual(itg: IteratedIntegral, interior=(4, 4)) -> float:
    """Max relative residual of L_k (h_k I_k[f]) = h_k f on the grid interior,
    with all derivatives taken by independent finite differences."""
    hk = itg.source
    r = hk.grid
    n = hk.spec.dimension
    u = hk.values * itg.values
    lo, hi = interior
    u1 = radial_derivative_values(u, r, order=1)
    u2 = radial_derivative_values(u, r, order=2)
    vk = hk.spec.v_k(r, hk.k)
    lhs = u2 + (n - 1.0) / r * u1 - vk * u
    rhs = hk.values * itg.fvals
    sl = slice(lo, -hi if hi else None)
    scale = (np.abs(u2) + (n - 1.0) / r * np.abs(u1)
             + np.abs(vk * u) + np.abs(rhs))[sl]
    return float(np.max(np.abs(lhs[sl] - rhs[sl]) / scale))
