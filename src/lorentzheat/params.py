"""Lorentz-space parameters and norms of radial functions.

A radial function is stored as samples on a strictly increasing grid and
interpreted as a piecewise power law below and between the nodes (linear
pieces where a power law is undefined, e.g. across sign changes or zeros),
and zero beyond the last node.  Superlevel-set
volumes are then available in closed form segment by segment, which makes
distribution functions and Lorentz norms exact on the power-function corpus
that the rest of the package leans on.

For sigma = p < inf the norm is the L^p norm (int |phi|^p dx)^(1/p), whose
radial integral has a closed form on every piece; for p = inf it is the
sup, the largest |value| at a node, since every piece is monotone and
passes through its nodes.  lp_norms reads both from the node values, for a
stack of columns on one grid, without building segments.  Other norms are
computed through the layer-cake identity

    ||phi||^s = a_N^(1 - s/p) * p * int_0^inf  lam^(s-1) mu(lam)^(s/p) dlam

(s = sigma < inf), where mu is the exact distribution function of the
interpolant and a_N the unit-ball volume; for sigma = inf the weak form
sup_lam lam (mu(lam)/a_N)^(1/p) is used instead.  The segment set serves
only these layer-cake norms and distribution_function.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .quadrature import power_pieces, two_point_exponent

INF = math.inf

# marker for "vanishes faster than any power" below the grid
INF_DECAY = -math.inf


def unit_ball_volume(dimension: int) -> float:
    """Volume of the unit ball in R^N."""
    return math.pi ** (dimension / 2.0) / math.gamma(dimension / 2.0 + 1.0)


def holder_conjugate(r: float) -> float:
    """r' with 1' = inf, inf' = 1, else r/(r-1)."""
    if r == 1:
        return INF
    if r == INF:
        return 1.0
    return r / (r - 1.0)


class LambdaMembershipError(ValueError):
    """Raised when (p, q, sigma, theta) falls outside the admissible set."""


@dataclass(frozen=True)
class LorentzParams:
    """Validated exponent tuple (p, q, sigma, theta).

    p, sigma describe the source space, q, theta the target space.  All
    entries live in [1, inf]; use math.inf for the endpoint.
    """

    p: float
    q: float
    sigma: float
    theta: float

    def __post_init__(self):
        for name in ("p", "q", "sigma", "theta"):
            v = float(getattr(self, name))
            object.__setattr__(self, name, v)
            if math.isnan(v) or not (1.0 <= v):
                raise LambdaMembershipError(f"{name} must lie in [1, inf], got {v}")
        p, q, sigma, theta = self.p, self.q, self.sigma, self.theta
        if p > q:
            raise LambdaMembershipError(f"p <= q required, got p={p} > q={q}")
        if p == 1 and sigma != 1:
            raise LambdaMembershipError("sigma must be 1 when p = 1")
        if p == INF and sigma != INF:
            raise LambdaMembershipError("sigma must be inf when p = inf")
        if q == 1 and theta != 1:
            raise LambdaMembershipError("theta must be 1 when q = 1")
        if q == INF and theta != INF:
            raise LambdaMembershipError("theta must be inf when q = inf")
        if p == q and sigma > theta:
            raise LambdaMembershipError(
                f"sigma <= theta required when p = q, got sigma={sigma} > theta={theta}"
            )

    @property
    def p_conj(self) -> float:
        return holder_conjugate(self.p)

    @property
    def sigma_conj(self) -> float:
        return holder_conjugate(self.sigma)

    def source_pair(self) -> tuple[float, float]:
        return self.p, self.sigma

    def target_pair(self) -> tuple[float, float]:
        return self.q, self.theta

    def label(self) -> str:
        fmt = lambda x: "inf" if x == INF else ("%g" % x)
        return f"({fmt(self.p)},{fmt(self.sigma)})->({fmt(self.q)},{fmt(self.theta)})"


def validate_pair(p, sigma) -> tuple[float, float]:
    """Validate a single-space pair (p, sigma), i.e. (p, p, sigma, sigma)."""
    lp = LorentzParams(p, p, sigma, sigma)
    return lp.p, lp.sigma


# ---------------------------------------------------------------------------
# radial profiles
# ---------------------------------------------------------------------------


class RadialProfile:
    """Sampled radial function on r > 0: a power law below the grid, zero
    beyond its last node.

    Parameters
    ----------
    grid : increasing radii, grid[0] > 0
    values : samples (may be signed; norms act on |phi|)
    dimension : ambient dimension N >= 2
    inner_exponent : power a with phi ~ phi(r_0) (r/r_0)^a below the grid;
        None fits it from the first segment, INF_DECAY means zero there
    """

    def __init__(self, grid, values, dimension, inner_exponent=None):
        grid = np.asarray(grid, dtype=float)
        values = np.asarray(values, dtype=float)
        if grid.ndim != 1 or grid.shape != values.shape or grid.size < 2:
            raise ValueError("grid and values must be matching 1-d arrays, size >= 2")
        if grid[0] <= 0.0 or np.any(np.diff(grid) <= 0.0):
            raise ValueError("grid must be strictly increasing with grid[0] > 0")
        if not np.all(np.isfinite(values)):
            raise ValueError("profile values must be finite")
        if dimension < 2:
            raise ValueError("dimension must be >= 2")
        grid = grid.copy()
        values = values.copy()
        grid.setflags(write=False)
        values.setflags(write=False)
        self.grid = grid
        self.values = values
        self.dimension = int(dimension)
        if inner_exponent is None:
            inner_exponent = INF_DECAY if values[0] == 0.0 \
                else two_point_exponent(grid, values)
        self.inner_exponent = float(inner_exponent)
        self._derived = {}

    # -- constructors ---------------------------------------------------------

    @classmethod
    def power(cls, exponent, dimension, r_min=1e-8, r_max=1e4):
        """r^exponent on the ball B(0, r_max)."""
        grid = np.array([r_min, r_max])
        return cls(grid, grid ** exponent, dimension, inner_exponent=exponent)

    @classmethod
    def indicator_ball(cls, radius, dimension):
        """Radial indicator of B(0, radius); exact two-node profile."""
        return cls(np.array([radius * 1e-12, radius]), np.array([1.0, 1.0]),
                   dimension, inner_exponent=0.0)

    @classmethod
    def indicator_annulus(cls, r1, r2, dimension):
        """Radial indicator of {r1 < |x| < r2}."""
        if not (0.0 < r1 < r2):
            raise ValueError("need 0 < r1 < r2")
        return cls(np.array([r1, r2]), np.array([1.0, 1.0]), dimension,
                   inner_exponent=INF_DECAY)

    # -- evaluation -------------------------------------------------------------

    def eval(self, r):
        """Interpolated (signed) values; the power law below the grid, zero
        beyond it.  An array of points is evaluated point by point."""
        if np.ndim(r) == 0:
            return self._eval_point(float(r))
        r = np.asarray(r, dtype=float)
        return np.array([self._eval_point(x) for x in r.ravel().tolist()],
                        dtype=float).reshape(r.shape)

    def _eval_point(self, r: float) -> np.float64:
        """eval at one point, on the piece of the profile's power_pieces."""
        g, v = self.grid, self.values
        i = g.searchsorted(r, side="right") - 1
        if i < 0:
            a = self.inner_exponent
            if a == INF_DECAY:
                return np.float64(0.0)
            # a 0-d array takes the array's ** (a sqrt for a = 0.5)
            return v[0] * np.asarray(r / g[0]) ** a
        if i >= g.size - 1:
            return v[-1] if r == g[-1] else np.float64(0.0)
        same, a = self.derived(_power_pieces)
        r0, r1, v0, v1 = g[i], g[i + 1], v[i], v[i + 1]
        if same[i] > 0.0:
            return v0 * np.power(r / r0, a[i])
        w = (r - r0) / (r1 - r0)
        return v0 * (1.0 - w) + v1 * w

    # -- derived profiles ---------------------------------------------------------

    def derived(self, build, *args):
        """build(self, *args), run once per (build, args) and kept.  Callers
        look build up on its module at the call, so that a wrapper put there
        is the key and sees every build."""
        key = (build, args)
        if key not in self._derived:
            self._derived[key] = build(self, *args)
        return self._derived[key]

    def segments(self) -> "_SegmentSet":
        return self.derived(_build_segments)

    def restrict(self, r_hi) -> "RadialProfile":
        """Zero-extended restriction to the ball B(0, r_hi): the nodes below
        r_hi with their values, which eval returns there, then r_hi."""
        if r_hi <= self.grid[0]:
            sub = np.array([r_hi * 1e-6, r_hi])
            vals = self.eval(sub)
        else:
            m = np.searchsorted(self.grid, r_hi)
            sub = np.append(self.grid[:m], r_hi)
            vals = np.append(self.values[:m], self.eval(r_hi))
        return RadialProfile(sub, vals, self.dimension,
                             inner_exponent=self.inner_exponent)

    # -- measure-theoretic operations ------------------------------------------------

    def distribution_function(self, lam: float) -> float:
        """Lebesgue measure of {x in R^N : |phi(x)| > lam}."""
        if lam <= 0.0:
            raise ValueError("lambda must be positive")
        return float(self.segments().mu_batch(np.array([lam]))[0])

    def lorentz_norm(self, p, sigma) -> float:
        """||phi||_{L^{p,sigma}} of the extended interpolant."""
        return float(lorentz_norms([self], p, sigma)[0])

    def lorentz_norm_on_ball(self, p, sigma, radius) -> float:
        if radius <= 0.0:
            raise ValueError("radius must be positive")
        return self.restrict(radius).lorentz_norm(p, sigma)


# ---------------------------------------------------------------------------
# sigma = p norms from the node values
# ---------------------------------------------------------------------------


def lorentz_norms(profiles, p, sigma) -> np.ndarray:
    """||phi||_{L^{p,sigma}} of each profile; the profiles share one grid.

    sigma = p, the sup at p = inf, is one lp_norms call over the stack of
    their values; other pairs take each profile's layer-cake norm.
    """
    p, sigma = validate_pair(p, sigma)
    if sigma != p:
        return np.array([f.segments().lorentz_norm(p, sigma) for f in profiles])
    return lp_norms(profiles[0].grid, np.array([f.values for f in profiles]).T,
                    [f.inner_exponent for f in profiles], p, profiles[0].dimension)


@np.errstate(over="ignore")
def lp_norms(grid, values, inner, p, dimension) -> np.ndarray:
    """L^p norms, the sup at p = inf, of the columns of values (m x c) on
    one grid, read from the node values without a segment set.

    inner: per column, the power a of the extension v_0 (r/r_0)^a below
    the grid; INF_DECAY means zero there.  Beyond the last node every column
    is zero.  The sup is max |v_i|, since every piece is monotone and passes
    through its nodes; it is inf where the extension is singular (a < 0
    with v_0 != 0).

    For p < inf each piece integrates in closed form.  A power piece
    v_lo (r/r_lo)^a with s = a p + N gives v_e^p r_e^N (1 - (r_lo/r_hi)^|s|)
    / |s|, at the end e where v^p r^N is larger (r_hi if s > 0, else r_lo),
    or v_lo^p r_lo^N log(r_hi/r_lo) if s = 0.  v_e is the node value, but a
    piece that power_pieces snaps flat keeps its anchor value v_lo.  The inner
    extension (r_lo = 0) diverges unless s > 0.  A linear piece of
    _linear_pieces runs from a zero to a node value va: with L its length,
    expanding r^(N-1) about its start r_0 gives
    va^p sum_k C(N-1, k) r_0^(N-1-k) L^(k+1) c_k, where c_k = 1/(p+k+1) for
    the zero at r_0 and B(k+1, p+1) for the zero at its other end.  Values
    are divided by max |v| before the power p.  Every column's pieces sum
    in slots fixed by the grid's intervals, so a column's norm does not
    depend on its neighbours in the stack.  Where r^N overflows, a power
    piece's v_e^p r_e^N is taken in logs; a piece whose value is past the
    float range is inf.
    """
    g = np.asarray(grid, dtype=float)
    v = np.ascontiguousarray(np.asarray(values, dtype=float).T)  # a row per column
    c = v.shape[0]
    y = np.abs(v)
    inner = np.asarray(inner, dtype=float)
    head = (y[:, 0] != 0.0) & (inner != INF_DECAY)
    scale = np.max(y, axis=1, initial=0.0)
    if p == INF:
        return np.where(head & (inner < 0.0), INF, scale)
    N = int(dimension)
    s_in = inner * p + N
    divergent = head & (s_in <= 0.0)
    unit = np.where(scale > 0.0, scale, 1.0)
    y /= unit[:, None]

    # power pieces: head, then one slot per interval
    log_step = np.log(g[1:] / g[:-1])
    g_N = g ** N
    y0, y1 = y[:, :-1], y[:, 1:]
    same, a = power_pieces(g, v)
    power = same > 0.0
    pieces = np.zeros((c, g.size))
    with np.errstate(divide="ignore", invalid="ignore"):
        s = a * p + N
        abs_s = np.abs(s)
        shape = np.where(s == 0.0, log_step, -np.expm1(-abs_s * log_step) / abs_s)
        # the extension: shape 1/|s|, the end at r_0
        pieces[:, 0] = np.where(head & ~divergent,
                                y[:, 0] ** p * g_N[0] * (1.0 / np.abs(s_in)), 0.0)
    up = s > 0.0
    v_e = np.where(up & (a != 0.0), y1, y0)
    g_e = np.where(up, g_N[1:], g_N[:-1])
    with np.errstate(divide="ignore", invalid="ignore"):
        end = v_e ** p * g_e
        far = np.isinf(g_e)
        if far.any():
            # r_e^N overflows: v_e^p r_e^N in logs, since v_e^p may underflow
            # to 0 there; a product past the float range stays inf
            r_e = np.where(up, g[1:], g[:-1])[far]
            end[far] = np.exp(p * np.log(v_e[far]) + N * np.log(r_e))
    pieces[:, 1:] = np.where(power, end * shape, 0.0)

    # linear pieces: two slots per interval
    row, slot, start, stop, va, zero_at_start = _linear_pieces(g, v, same)
    length = stop - start
    k = np.arange(N)
    binom, zero_at_r0, zero_at_r1 = _linear_piece_coefficients(N, p)
    coef = np.where(zero_at_start[:, None], zero_at_r0, zero_at_r1)
    terms = binom * start[:, None] ** (N - 1 - k) * length[:, None] ** (k + 1) * coef
    lines = np.zeros((c, 2 * (g.size - 1)))
    lines[row, slot] = (va / unit[row]) ** p * terms.sum(axis=1)

    total = pieces.sum(axis=1) + lines.sum(axis=1)
    factor = N * unit_ball_volume(N)
    return np.array([INF if bad else 0.0 if top == 0.0 else
                     top * float(factor * part) ** (1.0 / p)
                     for top, bad, part in zip(scale.tolist(), divergent.tolist(), total)])


def _linear_pieces(g, v, same):
    """The interpolant's linear pieces in the rows of v (c x m) on the grid
    g, with same from power_pieces(g, v): an interval with one zero end is
    one piece, in slot 2i; a sign change is two that meet at the
    interpolated zero, in slots 2i and 2i + 1.  A piece of zero length (a
    zero that rounds onto a node) is not a piece.  Returns (row, slot,
    start, end, |v| at the nonzero end, whether the zero is at the start),
    one entry per piece, ordered by row and slot."""
    v0, v1 = v[:, :-1], v[:, 1:]
    cross = same < 0.0
    row, i = np.nonzero(cross | ((same == 0.0) & ((v0 != 0.0) | (v1 != 0.0))))
    x, a, b = cross[row, i], v0[row, i], v1[row, i]
    mid = g[i + 1]  # a copy; a zero end's second slot gets zero length
    mid[x] = _zero_crossing(g[i[x]], g[i[x] + 1], a[x], b[x])
    y0, y1 = np.abs(a), np.abs(b)
    pieces = [np.stack(pair, axis=1) for pair in (
        (row, row), (2 * i, 2 * i + 1), (g[i], mid), (mid, g[i + 1]),
        (np.where(x, y0, np.maximum(y0, y1)), y1), (~x & (a == 0.0), x))]
    keep = pieces[3] > pieces[2]
    return tuple(field[keep] for field in pieces)


def _zero_crossing(r0, r1, v0, v1):
    """Where the line from (r0, v0) to (r1, v1) crosses zero, for v0 and v1
    of opposite signs."""
    span = r1 - r0
    with np.errstate(over="ignore"):
        prod = span * v0
    # span * v0 overflows for values near the top of the float range: divide
    # first there (an ulp apart from the product form, kept where it is finite)
    return r0 + np.where(np.isfinite(prod), prod / (v0 - v1), span * (v0 / (v0 - v1)))


# ---------------------------------------------------------------------------
# segment machinery
# ---------------------------------------------------------------------------

_POWER = 0
_RISING = 1   # a line from a zero at r0 to its node value at r1
_FALLING = 2  # a line from its node value at r0 to a zero at r1

# most (segment, level) pairs mu_batch forms at once, which bounds its memory
_PAIR_BLOCK = 4096


class _SegmentSet:
    """|phi| as disjoint monotone segments: power laws and lines from a zero."""

    def __init__(self, dimension, r0, r1, kind, ra, va, expo):
        self.N = dimension
        self.alpha_N = unit_ball_volume(dimension)
        self.r0 = r0
        self.r1 = r1
        self.kind = kind
        self.ra = ra          # anchor radius for power segments
        self.va = va          # anchor value, > 0
        self.expo = expo
        # past the float range r^N is inf, and so is the volume, even where
        # r0^N is inf too
        with np.errstate(over="ignore", invalid="ignore"):
            r0_N, r1_N = r0 ** self.N, r1 ** self.N
            self.vol = self.alpha_N * np.where(r1_N == INF, INF, r1_N - r0_N)
        self.vmin, self.vmax = self._value_range()

    def _value_range(self):
        """(min, max) of |phi| at segment ends; pow gives the limit at 0.
        A linear piece runs from a zero to its anchor node: exactly (0, va)."""
        power = self.kind == _POWER
        ends = []
        for r in (self.r0, self.r1):
            end = np.zeros(r.size)
            with np.errstate(divide="ignore"):
                end[power] = self.va[power] * np.power(r[power] / self.ra[power],
                                                       self.expo[power])
            ends.append(end)
        vmax = np.maximum(*ends)
        vmax[~power] = self.va[~power]
        return np.minimum(*ends), vmax

    @np.errstate(over="ignore", invalid="ignore")
    def mu_batch(self, lam_desc):
        """Exact distribution function at a descending array of levels.

        Segment i adds its whole volume at the levels k >= hi[i] and a part of
        it at lo[i] <= k < hi[i].  Those (segment, level) pairs are formed in
        blocks of consecutive levels with at most _PAIR_BLOCK pairs (or one
        level), segment by segment, so each level sums in segment order.

        A measure past the float range is inf.  On a far grid r^N overflows,
        and so do sums of volumes; a part whose ends both overflow (inf - inf)
        counts as inf too."""
        m = lam_desc.size
        neg = -lam_desc  # ascending
        lo = np.searchsorted(neg, -self.vmax, side="right")
        hi = np.searchsorted(neg, -self.vmin, side="right")
        mu = np.cumsum(np.bincount(hi, weights=self.vol, minlength=m + 1)[:-1])
        straddle = np.nonzero(lo < hi)[0]
        lo, hi = lo[straddle], hi[straddle]
        # before[k]: pairs on the levels before level k
        before = np.bincount(lo + 1, minlength=m + 1) - \
            np.bincount(hi + 1, minlength=m + 2)[:-1]
        np.cumsum(np.cumsum(before, out=before), out=before)
        # per straddling segment, with x = lam / va: |phi| = lam at
        # rstar = ra x^(1/a) on a power law, r0 + (r1 - r0) x on a rising line
        # and r1 - (r1 - r0) x on a falling one; the part above lam is
        # sign (fixed^N - clip(rstar, r0, r1)^N): a_N, r1 if increasing, else -a_N, r0
        kind = self.kind[straddle]
        power = kind == _POWER
        va, ra = self.va[straddle], self.ra[straddle]
        inv_a = np.divide(1.0, self.expo[straddle], out=np.ones(straddle.size),
                          where=power)
        r0, r1 = self.r0[straddle], self.r1[straddle]
        increasing = np.where(power, self.expo[straddle] > 0, kind == _RISING)
        start, step = np.where(increasing, (r0, r1 - r0), (r1, r0 - r1))
        fixed_N = np.where(increasing, r1, r0) ** self.N
        sign = np.where(increasing, self.alpha_N, -self.alpha_N)
        b0 = 0
        while b0 < m:
            b1 = max(b0 + 1, int(np.searchsorted(before, before[b0] + _PAIR_BLOCK,
                                                 side="right")) - 1)
            if before[b1] > before[b0]:
                take = (lo < b1) & (hi > b0)
                first = np.maximum(lo[take], b0)
                count = np.minimum(hi[take], b1) - first
                level = np.arange(before[b1] - before[b0]) + \
                    np.repeat(first - np.cumsum(count) + count, count)
                j = np.repeat(np.nonzero(take)[0], count)
                x = lam_desc[level] / va[j]
                rstar = start[j] + step[j] * x
                pw = power[j]
                rstar[pw] = ra[j[pw]] * np.power(x[pw], inv_a[j[pw]])
                vol = fixed_N[j] - np.clip(rstar, r0[j], r1[j]) ** self.N
                vol *= sign[j]
                vol[np.isnan(vol)] = INF
                np.maximum(vol, 0.0, out=vol)
                mu[b0:b1] += np.bincount(level - b0, weights=vol, minlength=b1 - b0)
            b0 = b1
        return mu

    # -- norms -----------------------------------------------------------------------

    def lorentz_norm(self, p: float, sigma: float) -> float:
        """The layer-cake norm, sigma != p < inf; lp_norms takes sigma = p."""
        if self.ra.size == 0:
            return 0.0
        # a measure past the float range, or its power sigma/p, is inf, and
        # so is the norm
        with np.errstate(over="ignore"):
            return self._weak_norm(p) if sigma == INF else self._strong_norm(p, sigma)

    def _levels(self):
        vals = np.concatenate([self.vmin, self.vmax])
        vals = vals[np.isfinite(vals) & (vals > 0.0)]
        return np.unique(vals)[::-1]

    def _strong_norm(self, p, sigma):
        levels = self._levels()
        if levels.size == 0:
            return 0.0
        acc = 0.0
        if np.any(self.vmax == INF):
            acc = self._top_tail(levels[0], p, sigma)
            if acc == INF:
                return INF
        if levels.size > 1:
            n_gl = 24 if levels.size <= 192 else 8
            lam, w_all = _log_gauss(np.log(levels[:-1]), np.log(levels[1:]), n_gl)
            mu = self.mu_batch(lam)
            # a measure past the float range makes the norm inf; the sum
            # would meet it as inf * 0 at a node of zero weight
            if np.isinf(mu).any():
                return INF
            acc += p * float(np.sum(w_all * lam ** sigma * mu ** (sigma / p)))
        acc += self._bottom_piece(levels[-1], p, sigma)
        if acc == INF or not math.isfinite(acc):
            return INF
        return (self.alpha_N ** (1.0 - sigma / p) * acc) ** (1.0 / sigma)

    def _top_tail(self, lam0, p, sigma):
        """p * int_{lam0}^inf lam^(sigma-1) mu^(sigma/p) dlam, closed form.

        Only the inner extension (the one segment with r0 = 0) can be
        integrably singular, so mu is the pure power a_N (ra (lam/va)^(1/a))^N
        there.  Assembled in logs: nearly flat negative exponents make the
        individual powers overflow even though the combined term is tiny.
        """
        singular = self.vmax == INF
        if np.any(singular & ((self.kind != _POWER) | (self.expo >= 0) |
                              (self.r0 > 0.0))):
            return INF
        i = int(np.argmax(singular))
        a = self.expo[i]
        e = sigma - 1.0 + (self.N * sigma) / (p * a)
        if e >= -1.0:
            return INF
        log_term = (
            math.log(p)
            + (sigma / p) * (math.log(self.alpha_N) + self.N * math.log(self.ra[i]))
            + sigma * math.log(lam0)
            + (self.N * sigma) / (p * a) * (math.log(lam0) - math.log(self.va[i]))
            - math.log(-(e + 1.0))
        )
        if log_term > 700.0:
            return INF
        return math.exp(log_term) if log_term > -700.0 else 0.0

    def _bottom_piece(self, lam_min, p, sigma):
        """p * int_0^{lam_min} lam^(sigma-1) mu^(sigma/p) dlam: mu is bounded
        near 0, so 24 Gauss nodes in u = lam^sigma."""
        nodes, weights = _gauss_nodes(24)
        u1 = lam_min ** sigma
        u = 0.5 * u1 * (nodes + 1.0)
        lam = u ** (1.0 / sigma)
        order = np.argsort(-lam)
        mu = np.empty_like(lam)
        mu[order] = self.mu_batch(lam[order])
        return (p / sigma) * float(np.sum(weights * mu ** (sigma / p))) * 0.5 * u1

    def _weak_norm(self, p):
        levels = self._levels()
        if levels.size == 0:
            return 0.0
        # singular end: lam mu(lam)^(1/p) ~ lam^(1 + N/(a p)) as lam -> inf
        a = self.expo[self.vmax == INF]
        if np.any(a >= 0) or np.any(1.0 + self.N / (a * p) > 0):
            return INF
        # mu jumps at the levels; sample just below each to capture the sup,
        # and between levels at the inner points of linspace(log hi, log lo, 10)
        u = np.log(levels)
        step = (u[1:] - u[:-1]) / 9
        between = np.exp((np.arange(1.0, 9.0) * step[:, None] + u[:-1, None]).ravel())
        lam = np.unique(np.concatenate([levels, levels * (1.0 - 1e-12), between]))[::-1]
        mu = self.mu_batch(lam)
        return float(np.max(lam * (mu / self.alpha_N) ** (1.0 / p)))


def _linear_piece_coefficients(N, p):
    """C(N-1, k), 1/(p+k+1) and B(k+1, p+1) = k!/((p+1)(p+2)...(p+k+1)) for
    k < N: the factors of lp_norms's linear pieces."""
    k = np.arange(N)
    binom = np.array([math.comb(N - 1, j) for j in range(N)], dtype=float)
    factorial = np.array([math.factorial(j) for j in range(N)], dtype=float)
    return binom, 1.0 / (p + k + 1.0), factorial / np.cumprod(p + k + 1.0)


# widest piece of a _log_gauss rule in u = log(lam): half a decade in lambda
_LOG_GAUSS_WIDTH = 1.15


def _log_gauss(u_hi, u_lo, n_gl):
    """Gauss-Legendre rule, n_gl nodes per piece of u = log(lam), over the
    intervals [u_lo, u_hi] cut where np.linspace(u_hi, u_lo, n + 1) cuts them
    into pieces no wider than _LOG_GAUSS_WIDTH.  Returns the lam nodes,
    descending, and their u-weights."""
    width = u_hi - u_lo
    n = np.where(width > _LOG_GAUSS_WIDTH, np.ceil(width / _LOG_GAUSS_WIDTH),
                 1.0).astype(int)
    start = np.repeat(u_hi, n)
    step = np.repeat((u_lo - u_hi) / n, n)
    k = np.arange(n.sum()) - np.repeat(np.cumsum(n) - n, n)  # piece within interval
    hi = k * step + start
    lo = (k + 1) * step + start
    lo[np.cumsum(n) - 1] = u_lo
    nodes, weights = _gauss_nodes(n_gl)
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    u_all = (mid[:, None] + half[:, None] * nodes[None, ::-1]).ravel()
    w_all = (half[:, None] * weights[None, ::-1]).ravel()
    return np.exp(u_all), w_all


@functools.cache
def _gauss_nodes(n):
    return np.polynomial.legendre.leggauss(n)


def _power_pieces(profile: RadialProfile):
    """power_pieces of the profile: the one table eval and the segments read."""
    return power_pieces(profile.grid, profile.values)


def _build_segments(profile: RadialProfile) -> _SegmentSet:
    """Inner extension, then per grid interval a power law (same signs) or
    its _linear_pieces, in the order of their slots."""
    g, v = profile.grid, profile.values
    same, a = profile.derived(_power_pieces)
    _, slot, start, end, top, zero_at_start = _linear_pieces(g, v[None], same[None])
    i = np.nonzero(same > 0.0)[0]
    # the fields (r0, r1, kind, ra, va, expo) as rows, a column per segment:
    # the power laws and the lines, put in slot order
    fields = np.concatenate((
        (g[i], g[i + 1], np.full(i.size, _POWER), g[i], np.abs(v[i]), a[i]),
        (start, end, np.where(zero_at_start, _RISING, _FALLING), start, top,
         np.zeros(slot.size))),
        axis=1)[:, np.argsort(np.concatenate((2 * i, slot)))]

    # the power-law extension below the grid, as a column of the same fields
    head = []
    a_in = profile.inner_exponent
    if v[0] != 0.0 and a_in != INF_DECAY:
        head.append((0.0, g[0], _POWER, g[0], abs(v[0]), a_in))
    r0, r1, kind, ra, va, expo = np.concatenate(
        (np.reshape(head, (-1, 6)).T, fields), axis=1)
    return _SegmentSet(profile.dimension, r0, r1, kind.astype(int), ra, va, expo)


def power_membership(exponent: float, p: float, sigma: float, dimension: int) -> bool:
    """Whether r^exponent lies in L^{p,sigma} of a ball around the origin."""
    p, sigma = validate_pair(p, sigma)
    if p == INF:
        return exponent >= 0.0
    s = p * exponent + dimension
    return s > 0.0 if sigma < INF else s >= 0.0
