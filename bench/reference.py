"""Independent references for the benchmark's correctness checks.

Nothing here imports lorentzheat: every reference is a closed form evaluated
with scipy, so a fault in the program cannot hide in its own oracle.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import optimize, special, stats


def sphere_area(dimension: int) -> float:
    """|S^{N-1}| = 2 pi^{N/2} / Gamma(N/2)."""
    return 2.0 * math.pi ** (dimension / 2.0) / math.gamma(dimension / 2.0)


def bessel_order(dimension: int, lam: float) -> float:
    """nu = sqrt((N-2)^2/4 + lambda), the Bessel order of the mode-0 kernel."""
    return math.sqrt((dimension - 2.0) ** 2 / 4.0 + lam)


def hardy_kernel(r, s, t: float, dimension: int, lam: float):
    """Radial heat kernel of -Lap + lambda/r^2 on R^N, per unit volume.

    p_t(r,s) = (2t)^-1 (rs)^{-(N-2)/2} e^{-(r^2+s^2)/4t} I_nu(rs/2t) / |S^{N-1}|,
    written with the scaled Bessel function ive so that it does not overflow.
    """
    r = np.asarray(r, dtype=float)
    s = np.asarray(s, dtype=float)
    nu = bessel_order(dimension, lam)
    z = r * s / (2.0 * t)
    return (special.ive(nu, z) * np.exp(-(r - s) ** 2 / (4.0 * t))
            * (r * s) ** (-(dimension - 2.0) / 2.0)
            / (2.0 * t * sphere_area(dimension)))


def hardy_diagonal_sup(t: float, dimension: int, lam: float) -> float:
    """sup_s p_t(s,s), the exact L^1 -> L^inf norm on radial data.

    With x = s^2/2t, p_t(s,s) = (2t)^{-N/2} x^{-(N-2)/2} ive(nu, x) / |S^{N-1}|,
    so the sup is a one-dimensional maximization in log x, done on a fine
    grid and polished with a bounded scalar search.
    """
    nu = bessel_order(dimension, lam)
    half = (dimension - 2.0) / 2.0

    def g(logx):
        x = np.exp(logx)
        return x ** -half * special.ive(nu, x)

    logx = np.linspace(math.log(1e-12), math.log(1e8), 4001)
    vals = g(logx)
    i = int(np.argmax(vals))
    best = float(vals[i])
    if 0 < i < logx.size - 1:
        res = optimize.minimize_scalar(lambda u: -g(u), method="bounded",
                                       bounds=(logx[i - 1], logx[i + 1]),
                                       options={"xatol": 1e-12})
        best = max(best, float(-res.fun))
    return (2.0 * t) ** (-dimension / 2.0) * best / sphere_area(dimension)


def hardy_mode0_norm(p: float, q: float, t: float, dimension: int,
                     lam: float) -> float:
    """Exact ||e^{-tH}|| on radial data for L^1 -> L^inf and L^1 -> L^2.

    L^1 -> L^inf is sup_s p_t(s,s); L^1 -> L^2 is sup_s ||p_t(., s)||_2 =
    sqrt(sup_s p_{2t}(s,s)) by the semigroup law and symmetry.
    """
    if p != 1.0:
        raise ValueError("exact norms are available from L^1 only")
    if q == math.inf:
        return hardy_diagonal_sup(t, dimension, lam)
    if q == 2.0:
        return math.sqrt(hardy_diagonal_sup(2.0 * t, dimension, lam))
    raise ValueError("exact norms are available into L^inf and L^2 only")


def ball_flow_ratio(r, t: float, radius: float, d: float):
    """Heat flow at time t of the indicator of B(0, radius) in dimension d.

    For a Brownian motion with generator Lap started at |x| = r, |X_t|^2/2t
    is noncentral chi-square with d degrees of freedom and noncentrality
    r^2/2t; d need not be an integer (Bessel process).
    """
    r = np.asarray(r, dtype=float)
    return stats.ncx2.cdf(radius ** 2 / (2.0 * t), d, r ** 2 / (2.0 * t))


def gaussian_ball_flow_3d(r, t: float, radius: float):
    """Free 3-d heat flow of 1_{B(0,radius)} in closed form (erf and Gaussians).

    u(r,t) = 1/2[erf((R+r)/a) + erf((R-r)/a)]
             - (a/(2 r sqrt pi)) [e^{-((R-r)/a)^2} - e^{-((R+r)/a)^2}],
    with a = sqrt(4t).  Used only to test ball_flow_ratio.
    """
    r = np.asarray(r, dtype=float)
    a = math.sqrt(4.0 * t)
    big, small = (radius + r) / a, (radius - r) / a
    return (0.5 * (special.erf(big) + special.erf(small))
            - a / (2.0 * r * math.sqrt(math.pi))
            * (np.exp(-small ** 2) - np.exp(-big ** 2)))


def loglog_slope(ts, values) -> float:
    """Least-squares slope b of log value = a + b log t."""
    lt = np.log(np.asarray(ts, dtype=float))
    lv = np.log(np.asarray(values, dtype=float))
    lt_c = lt - lt.mean()
    return float(np.dot(lt_c, lv - lv.mean()) / np.dot(lt_c, lt_c))
