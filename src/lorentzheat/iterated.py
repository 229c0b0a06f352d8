"""Iterated integral operators of the radial mode equations.

I_k[f](r) = int_0^r s^(1-N) h_k(s)^-2 ( int_0^s tau^(N-1) h_k(tau)^2 f(tau) dtau ) ds

is a right inverse of the h_k-conjugated mode operator: with
L_k u := u'' + (N-1)/r u' - (V + omega_k r^-2) u one has, exactly,

    L_k [ h_k * I_k[f] ] = h_k * f,

equivalently I_k[f]'' + ((N-1)/r + 2 h_k'/h_k) I_k[f]' = f.  The repeated
kernels I_k^n := I_k^n[1] and their h_k-weighted envelopes are the building
blocks of the upper decay envelopes.  Each I_k^n is a `RadialProfile` on the
grid of h_k that also carries its integrand and its exact first derivative.
"""

from __future__ import annotations

import math

import numpy as np

from .harmonic import HarmonicProfile, leibniz_h
from .params import RadialProfile
from .quadrature import (DivergentIntegralError, cumulative_integral,
                         radial_derivative_values, two_point_exponent,
                         windowed_exponent)


# highest order of derivative_iterated: I'' is exact, two finite differences
# of it give the orders 3 and 4
DERIVATIVE_ORDER_MAX = 4


class SingularSourceError(ValueError):
    """f too singular at the origin for the inner integral to converge."""


class IteratedIntegral(RadialProfile):
    """I_k^n together with the exact pieces of its first two derivatives."""

    def __init__(self, n, source, values, inner_exponent, fvals, dI):
        super().__init__(source.grid, values, source.spec.dimension,
                         inner_exponent=inner_exponent)
        self.n = n
        self.source = source
        self.fvals = fvals  # the integrand f this level was built from
        self.dI = dI        # exact first derivative r^(1-N) h^-2 G


def apply_I(hk: HarmonicProfile, f, f_inner_exponent=None) -> IteratedIntegral:
    """One application of I_k to f, its values at hk's grid nodes."""
    r = hk.grid
    n = hk.spec.dimension
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
    return IteratedIntegral(1, hk, outer, f_inner_exponent + 2.0, fvals, dI)


def iterate_I(hk: HarmonicProfile, n: int) -> IteratedIntegral:
    """I_k^n = n-fold application of I_k to the constant 1."""
    if n < 0:
        raise ValueError("n must be >= 0")
    r = hk.grid
    if n == 0:
        ones = np.ones_like(r)
        return IteratedIntegral(0, hk, ones, 0.0, ones, np.zeros_like(r))
    cur = apply_I(hk, np.ones_like(r), f_inner_exponent=0.0)
    for j in range(1, n):
        cur = apply_I(hk, cur.values, f_inner_exponent=2.0 * j)
        cur.n = j + 1
    return cur


def derivative_iterated(itg: IteratedIntegral, ell: int) -> np.ndarray:
    """d^ell I_k^n / dr^ell, exact for ell <= 2 via the inversion identity.

    I' is the stored single integral; I'' follows from
    I'' = f - ((N-1)/r) I' - 2 (h'/h) I'.  Orders above 2 use log-grid
    finite differences of I'' (only envelope-level accuracy is needed there).
    """
    if ell == 0:
        return itg.values
    hk = itg.source
    r = hk.grid
    n = hk.spec.dimension
    if itg.n == 0:
        return np.zeros_like(r)
    if ell == 1:
        return itg.dI
    if ell == 2:
        return itg.fvals - ((n - 1.0) / r) * itg.dI \
            - 2.0 * (hk.hprime / hk.values) * itg.dI
    if ell > DERIVATIVE_ORDER_MAX:
        raise ValueError("iterated-integral derivatives supported to order "
                         f"{DERIVATIVE_ORDER_MAX}")
    return radial_derivative_values(derivative_iterated(itg, 2), r, order=ell - 2)


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
    d = [derivative_iterated(itg, m) for m in range(alpha + 1)]
    u = [leibniz_h(hk, d.__getitem__, j) for j in range(alpha + 1)]
    # g[i] = d^i (h_k I_k^n r^-k), its terms below the noise floor of their
    # absolute sum clamped to zero before they are combined
    gd = []
    for i in range(alpha + 1):
        acc = np.zeros_like(r)
        crude = np.zeros_like(r)
        for j in range(i + 1):
            fall = math.prod(range(-k, -k - (i - j), -1))
            term = math.comb(i, j) * u[j] * fall * r ** (-k - (i - j))
            acc += term
            crude += np.abs(term)
        gd.append(np.where(np.abs(acc) < 1e-11 * crude, 0.0, acc))
    ps, ps_crude = _radial_gradient_components(gd, r)
    env = np.zeros_like(r)
    env_crude = np.zeros_like(r)
    for m in range(min(alpha, k) + 1):
        j = alpha - m
        radial = np.zeros_like(r)
        radial_crude = np.zeros_like(r)
        for ell in range(j // 2 + 1):
            radial += np.abs(ps[j - ell]) * r ** (-ell)
            radial_crude += ps_crude[j - ell] * r ** (-ell)
        weight = math.comb(alpha, m) * math.perm(k, m) * r ** (k - m)
        env += weight * radial
        env_crude += weight * radial_crude
    env[env < 1e-10 * env_crude] = 0.0
    # smooth profiles keep flat envelopes near the origin even when the
    # generic scaling would suggest a singular power, so the extension is
    # read off the computed values rather than declared (None: default fit)
    return RadialProfile(r, env, hk.spec.dimension,
                         inner_exponent=windowed_exponent(r, env, 16, 0.02))


def kernel_envelope(hk: HarmonicProfile, n: int, alpha: int) -> RadialProfile:
    """envelope_nabla_J of I_k^n, with I_k^n built once through hk.derived;
    no t enters either, so callers keep the result the same way."""
    return envelope_nabla_J(hk, hk.derived(iterate_I, n), alpha)
