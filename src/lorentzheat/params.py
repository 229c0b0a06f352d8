"""Lorentz-space parameters and norms of radial functions.

A radial function is stored as samples on a strictly increasing grid and
interpreted as a piecewise power law between nodes (linear pieces where a
power law is undefined, e.g. across sign changes or zeros).  Superlevel-set
volumes are then available in closed form segment by segment, which makes
distribution functions, rearrangements, and Lorentz norms exact on the
power-function corpus that the rest of the package leans on.

For sigma = p < inf the norm is the L^p norm (int |phi|^p dx)^(1/p), whose
radial integral has a closed form on every segment.  Other norms are
computed through the layer-cake identity

    ||phi||^s = a_N^(1 - s/p) * p * int_0^inf  lam^(s-1) mu(lam)^(s/p) dlam

(s = sigma < inf), where mu is the exact distribution function of the
interpolant and a_N the unit-ball volume; for sigma = inf the weak form
sup_lam lam (mu(lam)/a_N)^(1/p) is used instead.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq
from scipy.special import beta, comb

from .quadrature import two_point_exponent

INF = math.inf

# marker for "vanishes faster than any power" below the grid
INF_DECAY = -math.inf

# exponents below this magnitude are treated as flat segments
_FLAT_EPS = 1e-13


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
    """Sampled radial function on r > 0 with power-law extensions.

    Parameters
    ----------
    grid : increasing radii, grid[0] > 0
    values : samples (may be signed; norms act on |phi|)
    dimension : ambient dimension N >= 2
    inner_exponent : power a with phi ~ phi(r_0) (r/r_0)^a below the grid;
        None fits it from the first segment, INF_DECAY means zero there
    outer_exponent : power b with phi = phi(r_M) (r/r_M)^b beyond the last
        node r_M; None means zero there
    """

    def __init__(self, grid, values, dimension, inner_exponent=None,
                 outer_exponent=None):
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
        self.outer_exponent = None if outer_exponent is None else float(outer_exponent)
        if inner_exponent is None:
            inner_exponent = INF_DECAY if values[0] == 0.0 \
                else two_point_exponent(grid, values)
        self.inner_exponent = float(inner_exponent)
        self._segments = None

    # -- constructors ---------------------------------------------------------

    @classmethod
    def power(cls, exponent, dimension, r_min=1e-8, r_max=1e4, support=None,
              coefficient=1.0):
        """c r^exponent, optionally truncated to the ball B(0, support)."""
        if support is not None:
            r_max = support
        grid = np.array([r_min, r_max])
        vals = coefficient * grid ** exponent
        return cls(grid, vals, dimension, inner_exponent=exponent,
                   outer_exponent=exponent if support is None else None)

    @classmethod
    def indicator_ball(cls, radius, dimension, r_min=None):
        """Radial indicator of B(0, radius); exact two-node profile."""
        r_min = radius * 1e-12 if r_min is None else r_min
        return cls(np.array([r_min, radius]), np.array([1.0, 1.0]), dimension,
                   inner_exponent=0.0)

    @classmethod
    def indicator_annulus(cls, r1, r2, dimension):
        """Radial indicator of {r1 < |x| < r2}."""
        if not (0.0 < r1 < r2):
            raise ValueError("need 0 < r1 < r2")
        return cls(np.array([r1, r2]), np.array([1.0, 1.0]), dimension,
                   inner_exponent=INF_DECAY)

    def with_values(self, values, inner_exponent=None) -> "RadialProfile":
        return RadialProfile(self.grid, values, self.dimension, inner_exponent,
                             self.outer_exponent)

    # -- evaluation -------------------------------------------------------------

    def eval(self, r):
        """Interpolated (signed) values; honours inner/outer extensions."""
        r = np.asarray(r, dtype=float)
        scalar = r.ndim == 0
        r = np.atleast_1d(r)
        out = np.empty_like(r)
        g, v = self.grid, self.values
        idx = np.searchsorted(g, r, side="right") - 1
        inner = idx < 0
        outerm = idx >= g.size - 1
        mid = ~(inner | outerm)
        if np.any(mid):
            i = idx[mid]
            r0, r1 = g[i], g[i + 1]
            v0, v1 = v[i], v[i + 1]
            rm = r[mid]
            res = np.empty(i.shape)
            powok = np.sign(v0) * np.sign(v1) > 0.0  # v0 * v1 can underflow
            if np.any(powok):
                a = np.log(np.abs(v1[powok] / v0[powok])) / np.log(r1[powok] / r0[powok])
                res[powok] = v0[powok] * (rm[powok] / r0[powok]) ** a
            lin = ~powok
            if np.any(lin):
                w = (rm[lin] - r0[lin]) / (r1[lin] - r0[lin])
                res[lin] = v0[lin] * (1.0 - w) + v1[lin] * w
            out[mid] = res
        if np.any(inner):
            a = self.inner_exponent
            out[inner] = 0.0 if a == INF_DECAY else v[0] * (r[inner] / g[0]) ** a
        if np.any(outerm):
            out[outerm & (r == g[-1])] = v[-1]
            beyond = outerm & (r > g[-1])
            if np.any(beyond):
                if self.outer_exponent is None or v[-1] == 0.0:
                    out[beyond] = 0.0
                else:
                    out[beyond] = v[-1] * (r[beyond] / g[-1]) ** self.outer_exponent
        return out[0] if scalar else out

    __call__ = eval

    # -- derived profiles ---------------------------------------------------------

    def segments(self) -> "_SegmentSet":
        if self._segments is None:
            self._segments = _build_segments(self)
        return self._segments

    def restrict(self, r_hi) -> "RadialProfile":
        """Zero-extended restriction to the ball B(0, r_hi)."""
        if r_hi <= self.grid[0]:
            sub = np.array([r_hi * 1e-6, r_hi])
        else:
            sub = np.append(self.grid[self.grid < r_hi], r_hi)
        return RadialProfile(sub, self.eval(sub), self.dimension,
                             inner_exponent=self.inner_exponent)

    # -- measure-theoretic operations ------------------------------------------------

    def distribution_function(self, lam: float) -> float:
        """Lebesgue measure of {x in R^N : |phi(x)| > lam}."""
        if lam <= 0.0:
            raise ValueError("lambda must be positive")
        return self.segments().measure_above(lam)

    def decreasing_rearrangement(self):
        """The callable s -> phi*(s) = inf{lam > 0 : mu(lam) <= s}."""
        segs = self.segments()

        def phi_star(s):
            s_arr = np.atleast_1d(np.asarray(s, dtype=float))
            out = np.array([segs.rearrangement_at(sv) for sv in s_arr])
            return out[0] if np.ndim(s) == 0 else out

        return phi_star

    def lorentz_norm(self, p, sigma) -> float:
        """||phi||_{L^{p,sigma}} of the zero/power-extended interpolant."""
        p, sigma = validate_pair(p, sigma)
        return self.segments().lorentz_norm(p, sigma)

    def lorentz_norm_on_ball(self, p, sigma, radius) -> float:
        if radius <= 0.0:
            raise ValueError("radius must be positive")
        return self.restrict(radius).lorentz_norm(p, sigma)


# ---------------------------------------------------------------------------
# segment machinery
# ---------------------------------------------------------------------------

_POWER = 0
_LINEAR = 1

# most (segment, level) pairs mu_batch forms at once, which bounds its memory
_PAIR_BLOCK = 4096


class _SegmentSet:
    """|phi| as disjoint monotone segments, each a power law or linear."""

    def __init__(self, dimension, r0, r1, kind, ra, va, expo, slope, icpt):
        self.N = dimension
        self.alpha_N = unit_ball_volume(dimension)
        self.r0 = r0
        self.r1 = r1
        self.kind = kind
        self.ra = ra          # anchor radius for power segments
        self.va = va          # anchor value, > 0
        self.expo = expo
        self.slope = slope    # linear segments: |phi| = icpt + slope r
        self.icpt = icpt
        with np.errstate(over="ignore"):
            self.vol = self.alpha_N * (r1 ** self.N - r0 ** self.N)
        self.vmin, self.vmax = self._value_range()

    def _value_range(self):
        """(min, max) of |phi| at segment ends; pow gives the limits at 0, inf."""
        power = self.kind == _POWER
        ends = []
        for r in (self.r0, self.r1):
            with np.errstate(divide="ignore", invalid="ignore"):
                end = self.icpt + self.slope * r
                end[power] = self.va[power] * _libm(operator.pow, r[power] / self.ra[power],
                                                    self.expo[power])
            ends.append(end)
        return np.minimum(*ends), np.maximum(*ends)

    def mu_batch(self, lam_desc):
        """Exact distribution function at a descending array of levels.

        Segment i adds its whole volume at the levels k >= hi[i] and a part of
        it at lo[i] <= k < hi[i].  Those (segment, level) pairs are formed in
        blocks of consecutive levels with at most _PAIR_BLOCK pairs (or one
        level), segment by segment, so each level sums in segment order."""
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
        # per straddling segment: |phi| = lam at rstar = (lam - icpt) / slope on a
        # line, ra (lam / va)^(1/a) on a power law (icpt = 0); the part above lam
        # is sign (fixed^N - clip(rstar, r0, r1)^N): a_N, r1 if increasing, else -a_N, r0
        power = self.kind[straddle] == _POWER
        icpt = self.icpt[straddle]
        scale = np.where(power, self.va[straddle], self.slope[straddle])
        ra = self.ra[straddle]
        inv_a = np.divide(1.0, self.expo[straddle], out=np.ones(straddle.size),
                          where=power)
        r0, r1 = self.r0[straddle], self.r1[straddle]
        increasing = np.where(power, self.expo[straddle] > 0, self.slope[straddle] > 0)
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
                rstar = (lam_desc[level] - icpt[j]) / scale[j]
                pw = power[j]
                rstar[pw] = ra[j[pw]] * _scalar_like_power(rstar[pw], inv_a[j[pw]])
                vol = fixed_N[j] - np.clip(rstar, r0[j], r1[j]) ** self.N
                vol *= sign[j]
                np.maximum(vol, 0.0, out=vol)
                mu[b0:b1] += np.bincount(level - b0, weights=vol, minlength=b1 - b0)
            b0 = b1
        return mu

    def measure_above(self, lam: float) -> float:
        if np.any((self.r1 == INF) & ((self.vmax == INF) |
                                      (self.vmax > lam) & (self.vmin >= lam))):
            return INF
        return float(self.mu_batch(np.array([lam]))[0])

    def sup_value(self) -> float:
        return float(np.max(self.vmax)) if self.vmax.size else 0.0

    def rearrangement_at(self, s: float) -> float:
        if s < 0:
            raise ValueError("s must be >= 0")
        if self.ra.size == 0:
            return 0.0
        total = float(np.sum(self.vol))
        if math.isfinite(total) and s >= total:
            return 0.0
        vmax = self.sup_value()
        hi = vmax
        if hi == INF:
            hi = max(1.0, float(np.max(self.vmax[np.isfinite(self.vmax)], initial=1.0)))
            while self.measure_above(hi) > s:
                hi *= 4.0
                if hi > 1e300:
                    return INF
        lo = hi
        while self.measure_above(lo) <= s:
            lo /= 4.0
            if lo < 1e-300:
                return 0.0
        return brentq(lambda lam: self.measure_above(lam) - s, lo, hi, rtol=1e-13)

    # -- norms -----------------------------------------------------------------------

    def lorentz_norm(self, p: float, sigma: float) -> float:
        if self.ra.size == 0:
            return 0.0
        if p == INF:
            return self.sup_value()
        if np.any((self.r1 == INF) & (self.expo >= 0)):
            return INF  # flat or growing tail: mu = inf below the tail's value
        if sigma == p:
            return self._lp_norm(p)
        if sigma == INF:
            return self._weak_norm(p)
        return self._strong_norm(p, sigma)

    def _lp_norm(self, p):
        """(N a_N sum_i int |phi|^p r^(N-1) dr)^(1/p), each segment in closed form.

        A power piece va (r/ra)^a with s = a p + N integrates to
        v_e^p r_e^N (1 - (r_lo/r_hi)^|s|) / |s|, taken at the end e where
        v^p r^N is larger (r1 if s > 0, else r0), or va^p r0^N log(r1/r0) if
        s = 0; the inner extension (r0 = 0) diverges unless s > 0, the outer
        tail (r1 = inf) unless s < 0.  A linear piece vanishes at one end, so
        expanding r^(N-1) about r0, with L = r1 - r0 and va the nonzero end's
        value, gives va^p sum_k C(N-1, k) r0^(N-1-k) L^(k+1) c_k, where
        c_k = 1/(p+k+1) for the zero at r0 and B(k+1, p+1) for the zero at r1.
        Values are divided by the largest finite end value before the power p.
        """
        N = self.N
        power = self.kind == _POWER
        s = np.where(power, self.expo * p + N, 0.0)
        if np.any(power & (((self.r0 == 0.0) & (s <= 0.0)) |
                           ((self.r1 == INF) & (s >= 0.0)))):
            return INF
        scale = float(np.max(self.vmax[np.isfinite(self.vmax)]))

        s = s[power]
        r0, r1 = self.r0[power], self.r1[power]
        up = s > 0.0
        # the value at r1 is vmax on increasing pieces, vmin on the others
        v_e = np.where(up, np.where(self.expo[power] > 0, self.vmax[power],
                                    self.vmin[power]), self.va[power])
        abs_s = np.abs(s)
        with np.errstate(divide="ignore", invalid="ignore"):
            x = np.log(r1 / r0)  # inf on the extensions
            shape = np.where(s == 0.0, x, -np.expm1(-abs_s * x) / abs_s)
        total = np.sum((v_e / scale) ** p * np.where(up, r1, r0) ** N * shape)

        lin = ~power
        r0 = self.r0[lin]
        length = self.r1[lin] - r0
        k = np.arange(N)
        coef = np.where(self.slope[lin][:, None] > 0, 1.0 / (p + k + 1.0),
                        beta(k + 1.0, p + 1.0))
        terms = comb(N - 1, k) * r0[:, None] ** (N - 1 - k) * \
            length[:, None] ** (k + 1) * coef
        total += np.sum((self.va[lin] / scale) ** p * terms.sum(axis=1))
        return scale * float(N * self.alpha_N * total) ** (1.0 / p)

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
        """p * int_0^{lam_min} lam^(sigma-1) mu^(sigma/p) dlam."""
        # lorentz_norm has returned inf on flat and growing tails, so an
        # outer tail here decays, whatever its value against lam_min
        tail = np.nonzero(self.r1 == INF)[0]
        if tail.size == 0:
            # mu is bounded near 0; substitute u = lam^sigma
            nodes, weights = _gauss_nodes(24)
            u1 = lam_min ** sigma
            u = 0.5 * u1 * (nodes + 1.0)
            lam = u ** (1.0 / sigma)
            order = np.argsort(-lam)
            mu = np.empty_like(lam)
            mu[order] = self.mu_batch(lam[order])
            return (p / sigma) * float(np.sum(weights * mu ** (sigma / p))) * 0.5 * u1
        # decaying outer tail: mu(lam) = R(lam) + c lam^(N/a), R bounded
        i = int(tail[0])
        a = self.expo[i]
        e = sigma - 1.0 + (self.N * sigma) / (p * a)
        if e <= -1.0:
            return INF
        c = self.alpha_N * self.ra[i] ** self.N * self.va[i] ** (-self.N / a)
        r_rest = float(np.sum(self.vol[np.arange(self.vol.size) != i]))
        r0_corr = self.alpha_N * self.r0[i] ** self.N
        rest = r_rest - r0_corr
        lam_c = lam_min
        while c * lam_c ** (self.N / a) < 1e4 * max(abs(rest), 1e-300) and lam_c > 1e-280:
            lam_c *= 0.5
        acc = 0.0
        if lam_c < lam_min:
            lam, w_all = _log_gauss(np.array([math.log(lam_min)]),
                                    np.array([math.log(lam_c)]), 24)
            mu = self.mu_batch(lam)
            acc += p * float(np.sum(w_all * lam ** sigma * mu ** (sigma / p)))
        # asymptotic piece with a first-order binomial correction in R/c lam^beta
        s_p = sigma / p
        beta = self.N / a
        lead = c ** s_p * lam_c ** (e + 1.0) / (e + 1.0)
        corr_exp = e - beta
        corr = s_p * c ** (s_p - 1.0) * rest * lam_c ** (corr_exp + 1.0) / (corr_exp + 1.0)
        acc += p * (lead + corr)
        return acc

    def _weak_norm(self, p):
        levels = self._levels()
        if levels.size == 0:
            return 0.0
        # singular end: lam mu(lam)^(1/p) ~ lam^(1 + N/(a p)) as lam -> inf
        a = self.expo[self.vmax == INF]
        if np.any(a >= 0) or np.any(1.0 + self.N / (a * p) > 0):
            return INF
        tail = (self.r1 == INF) & (self.expo < 0) & (self.kind == _POWER)
        if np.any(1.0 + self.N / (self.expo[tail] * p) < 0):
            return INF  # decaying tail too heavy for weak-L^p
        # mu jumps at the levels; sample just below each to capture the sup,
        # and between levels at the inner points of linspace(log hi, log lo, 10)
        u = _libm(math.log, levels)
        step = (u[1:] - u[:-1]) / 9
        between = np.exp((np.arange(1.0, 9.0) * step[:, None] + u[:-1, None]).ravel())
        cand = [levels, levels * (1.0 - 1e-12), between]
        if tail.any():
            cand.append(levels[-1] * np.exp(-np.arange(1.0, 60.0, 3.0)))
        lam = np.unique(np.concatenate(cand))[::-1]
        mu = self.mu_batch(lam)
        return float(np.max(lam * (mu / self.alpha_N) ** (1.0 / p)))


def _libm(fn, *arrays):
    """fn elementwise over float64 scalars, whose log and ** are the C library's
    (numpy's SIMD loops differ in the last bit, which moves quadrature levels)."""
    return np.fromiter(map(fn, *arrays), float, arrays[0].size)


def _scalar_like_power(base, expo):
    """base ** expo elementwise, rounded as `base ** e` with a scalar e is:
    numpy takes square, sqrt and reciprocal for e = 2, 0.5 and -1."""
    out = np.power(base, expo)
    for e, fn in ((2.0, np.square), (0.5, np.sqrt), (-1.0, np.reciprocal)):
        hit = expo == e
        if hit.any():
            out[hit] = fn(base[hit])
    return out


def _log_gauss(u_hi, u_lo, n_gl, max_width=1.15):
    """Gauss-Legendre rule, n_gl nodes per piece of u = log(lam), over the
    intervals [u_lo, u_hi] cut where np.linspace(u_hi, u_lo, n + 1) cuts them
    into pieces no wider than max_width (half a decade in lambda).  Returns
    the lam nodes, descending, and their u-weights."""
    width = u_hi - u_lo
    n = np.where(width > max_width, np.ceil(width / max_width), 1.0).astype(int)
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


_GAUSS_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _gauss_nodes(n):
    if n not in _GAUSS_CACHE:
        _GAUSS_CACHE[n] = np.polynomial.legendre.leggauss(n)
    return _GAUSS_CACHE[n]


def _build_segments(profile: RadialProfile) -> _SegmentSet:
    """Inner extension, then per grid interval a power law (same signs), two
    linear pieces meeting at the interpolated zero (opposite signs) or one
    linear piece (a zero end), then the outer tail; all-zero parts dropped."""
    g, v = profile.grid, profile.values
    r0, r1, v0, v1 = g[:-1], g[1:], v[:-1], v[1:]
    same = np.sign(v0) * np.sign(v1)  # v0 * v1 can underflow
    power, cross = same > 0.0, same < 0.0
    a = np.zeros(r0.size)
    a[power] = _libm(math.log, np.abs(v1[power] / v0[power])) / \
        _libm(math.log, r1[power] / r0[power])
    a[np.abs(a) < _FLAT_EPS] = 0.0
    rc = r0.copy()
    span, va, vb = r1[cross] - r0[cross], v0[cross], v1[cross]
    with np.errstate(over="ignore"):
        prod = span * va
    # span * va overflows for values near the top of the float range: divide
    # first there (an ulp apart from the product form, kept where it is finite)
    rc[cross] = r0[cross] + np.where(np.isfinite(prod), prod / (va - vb),
                                     span * (va / (va - vb)))
    # two slots per interval: the first piece, and the second linear piece
    # of a sign change (rc, r1, 0, |v1|); row-major order is segment order
    y0, y1 = np.abs(v0), np.abs(v1)
    x0 = np.stack((r0, rc), axis=1)
    x1 = np.stack((np.where(cross, rc, r1), r1), axis=1)
    f0 = np.stack((y0, np.zeros_like(y0)), axis=1)
    f1 = np.stack((np.where(cross, 0.0, y1), y1), axis=1)
    slope = (f1 - f0) / (x1 - x0)
    is_pow = np.stack((power, np.zeros_like(power)), axis=1)
    keep = np.stack(((v0 != 0.0) | (v1 != 0.0), cross), axis=1)
    columns = (x0, x1, np.where(is_pow, _POWER, _LINEAR), x0,
               np.where(is_pow, f0, np.maximum(f0, f1)),
               np.where(is_pow, a[:, None], 0.0),
               np.where(is_pow, 0.0, slope),
               np.where(is_pow, 0.0, f0 - slope * x0))

    # the power-law extensions, as (r0, r1, kind, ra, va, expo, slope, icpt)
    head, tail = [], []
    a_in = profile.inner_exponent
    if v[0] != 0.0 and a_in != INF_DECAY:
        head.append((0.0, g[0], _POWER, g[0], abs(v[0]), a_in, 0.0, 0.0))
    if profile.outer_exponent is not None and v[-1] != 0.0:
        tail.append((g[-1], INF, _POWER, g[-1], abs(v[-1]), profile.outer_exponent,
                     0.0, 0.0))
    r0, r1, kind, ra, va, expo, slope, icpt = (
        np.concatenate(([h[j] for h in head], col[keep], [t[j] for t in tail]))
        for j, col in enumerate(columns))
    return _SegmentSet(profile.dimension, r0, r1, kind.astype(int),
                       ra, va, expo, slope, icpt)


def power_membership(exponent: float, p: float, sigma: float, dimension: int) -> bool:
    """Whether r^exponent lies in L^{p,sigma} of a ball around the origin."""
    p, sigma = validate_pair(p, sigma)
    if p == INF:
        return exponent >= 0.0
    s = p * exponent + dimension
    return s > 0.0 if sigma < INF else s >= 0.0


def power_norm_asymptotic(exponent, p, sigma, t, dimension) -> float:
    """Reference envelope t^(A/2 + N/(2p)) for ||r^A||_{L^{p,sigma}(B(0,sqrt t))}."""
    p, sigma = validate_pair(p, sigma)
    if not power_membership(exponent, p, sigma, dimension):
        raise LambdaMembershipError(
            f"r^{exponent} not in L^({p},{sigma}) near the origin in dimension {dimension}")
    np_over = 0.0 if p == INF else dimension / (2.0 * p)
    return t ** (exponent / 2.0 + np_over)
