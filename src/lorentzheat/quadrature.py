"""Power-law panel quadrature and log-grid finite differences.

The package's grids are geometric, so integrands that behave like powers of
r near the origin are integrated exactly by fitting a local power law on
each panel.  Finite-difference stencils operate in u = log r, where a
geometric grid is uniform.
"""

from __future__ import annotations

import math

import numpy as np


class DivergentIntegralError(ArithmeticError):
    """Head panel of a cumulative integral diverges at r = 0."""


_FLAT_EPS = 1e-13  # exponents below this magnitude are flat pieces


def power_pieces(r, v):
    """The interpolant's piece on each interval of the grid r, along the last
    axis of v (one column, or a stack of them, each on its own): (same, a).

    same is the product of the end values' signs (v0 * v1 could underflow):
    > 0 for a power law v0 (r/r0)^a, < 0 for a sign change, 0 for a zero end.
    a is 0.0 on those linear pieces and where |a| < _FLAT_EPS.
    """
    v0, v1 = v[..., :-1], v[..., 1:]
    same = np.sign(v0) * np.sign(v1)
    with np.errstate(divide="ignore", invalid="ignore"):
        a = np.log(np.abs(v1 / v0)) / np.log(r[1:] / r[:-1])
    return same, np.where((same > 0.0) & (np.abs(a) >= _FLAT_EPS), a, 0.0)


def two_point_exponent(r, v) -> float:
    """a of power_pieces' first piece: v[1] = v[0] (r[1]/r[0])^a, or 0.0."""
    return float(power_pieces(r[:2], v[:2])[1][0])


def windowed_exponent(r, v, window, snap):
    """Least-squares log-log slope of the first min(window, n // 4) values.

    None when those values hold a zero or change sign; a slope within snap
    of 0 becomes 0.0.
    """
    m = min(window, v.size // 4)
    head = v[:m]
    # by sign: the product head * head[0] can underflow to 0
    if not np.all(np.sign(head) * np.sign(head[0]) > 0.0):
        return None
    slope = np.polyfit(np.log(r[:m]), np.log(np.abs(head)), 1)[0]
    return 0.0 if abs(slope) < snap else float(slope)


def cumulative_integral(r, y, head_exponent=None):
    """Cumulative integral F(r_i) = int_0^{r_i} y dr on a positive grid.

    Panels where both endpoint values share a sign are integrated with a
    local power-law fit (exact when y is a power of r); mixed-sign or zero
    panels fall back to the trapezoid rule.  The head (0, r_0] assumes
    y ~ y_0 (r/r_0)^e with e = head_exponent (fitted from the first panel
    when None); e <= -1 with y_0 != 0 raises DivergentIntegralError.
    """
    r = np.asarray(r, dtype=float)
    y = np.asarray(y, dtype=float)
    n = r.size
    out = np.empty(n)

    y0 = y[0]
    if y0 == 0.0:
        out[0] = 0.0
    else:
        if head_exponent is None:
            head_exponent = two_point_exponent(r, y)
        if head_exponent <= -1.0:
            raise DivergentIntegralError(
                f"head exponent {head_exponent:.3f} <= -1 with nonzero value at r_min")
        out[0] = y0 * r[0] / (head_exponent + 1.0)

    ratio = np.empty(n - 1)
    same, expo = power_pieces(r, y)
    powok = same > 0.0
    idx_pow = np.nonzero(powok)[0]
    if idx_pow.size:
        r0, r1 = r[idx_pow], r[idx_pow + 1]
        a0, e = y[idx_pow], expo[idx_pow]
        flat = np.abs(e + 1.0) < 1e-12
        val = np.empty(idx_pow.size)
        nz = ~flat
        val[nz] = a0[nz] * r0[nz] * ((r1[nz] / r0[nz]) ** (e[nz] + 1.0) - 1.0) / (e[nz] + 1.0)
        val[flat] = a0[flat] * r0[flat] * np.log(r1[flat] / r0[flat])
        ratio[idx_pow] = val
    idx_lin = np.nonzero(~powok)[0]
    if idx_lin.size:
        ratio[idx_lin] = 0.5 * (y[idx_lin] + y[idx_lin + 1]) * (r[idx_lin + 1] - r[idx_lin])
    out[1:] = out[0] + np.cumsum(ratio)
    return out


def is_log_uniform(r) -> bool:
    """Whether log r is uniform to 1e-8 of its step."""
    u = np.log(r)
    h = np.diff(u)
    return float(np.max(np.abs(h - h[0]))) <= 1e-8 * abs(h[0])


def _d_du(y, h, order):
    """Uniform-grid derivative in the log variable along axis 0: fourth-order
    central stencils inside, second order next to and at the ends."""
    n = y.shape[0]
    out = np.empty_like(y)
    if order == 1:
        if n >= 5:
            out[2:-2] = (y[:-4] - 8 * y[1:-3] + 8 * y[3:-1] - y[4:]) / (12 * h)
            out[1] = (y[2] - y[0]) / (2 * h)
            out[-2] = (y[-1] - y[-3]) / (2 * h)
        else:
            out[1:-1] = (y[2:] - y[:-2]) / (2 * h)
        out[0] = (-3 * y[0] + 4 * y[1] - y[2]) / (2 * h)
        out[-1] = (3 * y[-1] - 4 * y[-2] + y[-3]) / (2 * h)
        return out
    if order == 2:
        if n >= 5:
            out[2:-2] = (-y[:-4] + 16 * y[1:-3] - 30 * y[2:-2]
                         + 16 * y[3:-1] - y[4:]) / (12 * h * h)
            out[1] = (y[0] - 2 * y[1] + y[2]) / (h * h)
            out[-2] = (y[-3] - 2 * y[-2] + y[-1]) / (h * h)
        else:
            out[1:-1] = (y[:-2] - 2 * y[1:-1] + y[2:]) / (h * h)
        out[0] = (2 * y[0] - 5 * y[1] + 4 * y[2] - y[3]) / (h * h)
        out[-1] = (2 * y[-1] - 5 * y[-2] + 4 * y[-3] - y[-4]) / (h * h)
        return out
    raise ValueError("order must be 1 or 2")


def radial_derivative_values(y, r, order=1):
    """d^order y / dr^order on the geometric grid r (order in {1, 2}), for
    one column y or a stack of them (len(r) x c), each column on its own.

    Uses uniform stencils in u = log r, mapped back by dy/dr = (1/r) dy/du
    and d2y/dr2 = (d2y/du2 - dy/du)/r^2; any other grid raises ValueError.
    """
    r = np.asarray(r, dtype=float)
    y = np.asarray(y, dtype=float)
    if not is_log_uniform(r):
        raise ValueError("radial derivatives need a geometric grid")
    h = math.log(r[1] / r[0])
    du1 = _d_du(y, h, 1)
    r = r.reshape(r.shape + (1,) * (y.ndim - 1))
    if order == 1:
        return du1 / r
    du2 = _d_du(y, h, 2)
    return (du2 - du1) / (r * r)


def make_grid(r_min=1e-8, r_max=1e4, n_points=4096) -> np.ndarray:
    """Default geometric grid resolving power behaviour at both ends."""
    return np.geomspace(r_min, r_max, n_points)
