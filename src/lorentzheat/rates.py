"""Predicted decay envelopes and empirical rate fitting.

Three layers of prediction, all reducing to the solved harmonic profiles:

* the two-sided envelope for derivative orders alpha <= 2 (norm ratios of
  h_0, h_1 and their gradients over B(0, sqrt t)),
* the general upper envelope built from the weighted iterated kernels, and
  a lower envelope from the mode profiles with the universal free-rate
  floor,
* closed-form rate exponents for the canonical potential families (scale
  invariant couplings, bounded potentials with power far fields, and
  integrable perturbations), each guarded by its hypothesis checks.

Empirical series are reduced by least squares in log-log coordinates, with
an optional log t regressor for the borderline branches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import harmonic, iterated, spectral
from .harmonic import ProfileSet
from .params import INF, LorentzParams, power_membership
from .quadrature import cumulative_integral


# an exponent within CASE_TOL of an integer is that integer; one within
# CASE_BAND but not CASE_TOL is ambiguous
CASE_TOL = 1e-9
CASE_BAND = 1e-3
# margin by which a fitted exponent must beat the free one to violate it
FREE_RATE_TOL = 0.05


class RateFitError(ValueError):
    pass


class AmbiguousCaseError(ValueError):
    """Fitted exponent sits between the integer band and its complement."""


def free_exponent(lp: LorentzParams, alpha: int, dimension: int) -> float:
    """-N/2 (1/p - 1/q) - alpha/2 with 1/inf = 0."""
    inv = lambda x: 0.0 if x == INF else 1.0 / x
    return -dimension / 2.0 * (inv(lp.p) - inv(lp.q)) - alpha / 2.0


# ---------------------------------------------------------------------------
# case tags
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CaseTag:
    alpha: int
    near_zero: str              # 'A' or 'B'
    zero_power: int | None      # the integer A in the degenerate case
    near_infinity: str          # 'A' or 'B'
    infinity_power: int | None

    def render(self) -> str:
        z = f"B_{self.alpha}({self.zero_power})" if self.near_zero == "B" \
            else f"A_{self.alpha}"
        i = f"B'_{self.alpha}({self.infinity_power})" if self.near_infinity == "B" \
            else f"A'_{self.alpha}"
        return f"{z}/{i}"


def _integer_membership(value, alpha):
    nearest = round(value)
    dist = abs(value - nearest)
    if dist <= CASE_TOL:
        if 0 <= nearest <= alpha - 1:
            return True, int(nearest)
        return False, None
    if dist <= CASE_BAND:
        raise AmbiguousCaseError(
            f"exponent {value:.6g} within {CASE_BAND} of integer {nearest}; "
            "assert the case explicitly")
    return False, None


def classify_cases(table: spectral.ExponentTable, alpha: int) -> CaseTag:
    """Near-origin and far-field case tags for derivative order alpha.

    The degenerate branch requires the profile to behave like an exact
    integer power r^A with A <= alpha - 1; a logarithmic far-field factor
    forces the non-degenerate branch regardless of the exponent.
    """
    zero_b, zero_a = _integer_membership(float(table.A1[0]), alpha)
    if table.B[0]:
        inf_b, inf_a = False, None
    else:
        inf_b, inf_a = _integer_membership(float(table.A2[0]), alpha)
    return CaseTag(alpha, "B" if zero_b else "A", zero_a,
                   "B" if inf_b else "A", inf_a)


# ---------------------------------------------------------------------------
# envelopes
# ---------------------------------------------------------------------------


def phi_alpha(ps: ProfileSet, lp: LorentzParams, alpha: int, t: float) -> float:
    """Two-sided rate envelope for alpha in {0, 1, 2}.

    The second-order term of the k = 1 modes is a genuinely non-radial
    norm; its radial envelope is used, which preserves the rate but not the
    constant.
    """
    if alpha not in (0, 1, 2):
        raise ValueError("the two-sided envelope covers alpha <= 2 only")
    n = ps.spec.dimension
    h0 = ps.h(0)
    root_t = math.sqrt(t)
    gam_dual = h0.derived(harmonic.gamma_ratio, lp.p_conj, lp.sigma_conj, t)
    if gam_dual == INF:
        return INF
    n2q = 0.0 if lp.q == INF else n / (2.0 * lp.q)
    if alpha == 0:
        gam_target = h0.derived(harmonic.gamma_ratio, lp.q, lp.theta, t)
        if gam_target == INF:
            return INF
        return t ** (-n / 2.0) * gam_dual * gam_target
    q, th = lp.target_pair()
    if alpha == 1:
        grad = h0.derived(harmonic.derivative_h, 1)
        term = grad.lorentz_norm_on_ball(q, th, root_t) / h0.eval(root_t)
        return t ** (-n / 2.0) * gam_dual * (term + t ** (n2q - 0.5))
    hess0 = h0.derived(harmonic.hessian_envelope)
    term0 = hess0.lorentz_norm_on_ball(q, th, root_t) / h0.eval(root_t)
    # envelope of |grad^2 (h_1 Q)|, sharp through the polynomial split
    h1 = ps.h(1)
    d1 = spectral.eigenspace_dimension(1, n)
    hess1 = h1.derived(iterated.kernel_envelope, 0, 2)
    term1 = d1 * hess1.lorentz_norm_on_ball(q, th, root_t) / h1.eval(root_t)
    return t ** (-n / 2.0) * gam_dual * (term0 + term1 + t ** (n2q - 1.0))


def upper_envelope_J(ps: ProfileSet, lp: LorentzParams, alpha: int, t: float
                     ) -> float:
    """Upper envelope t^{-N/2} Gamma'(t) [ J_alpha(t) + t^{N/2q - alpha/2} ],
    with J_alpha summing the weighted iterated-kernel envelopes over
    0 <= k + 2n <= alpha with eigenspace multiplicities."""
    n = ps.spec.dimension
    h0 = ps.h(0)
    gam_dual = h0.derived(harmonic.gamma_ratio, lp.p_conj, lp.sigma_conj, t)
    if gam_dual == INF:
        return INF
    root_t = math.sqrt(t)
    q, th = lp.target_pair()
    n2q = 0.0 if lp.q == INF else n / (2.0 * lp.q)
    j_sum = 0.0
    for k in range(0, alpha + 1):
        for m in range(0, (alpha - k) // 2 + 1):
            hk = ps.h(k)
            env = hk.derived(iterated.kernel_envelope, m, alpha)
            nrm = env.lorentz_norm_on_ball(q, th, root_t)
            if nrm == INF:
                return INF
            j_sum += spectral.eigenspace_dimension(k, n) * t ** (-m) * nrm \
                / hk.eval(root_t)
    return t ** (-n / 2.0) * gam_dual * (j_sum + t ** (n2q - alpha / 2.0))


def lower_envelope(ps: ProfileSet, lp: LorentzParams, alpha: int, t: float,
                   delta: float = 0.25) -> float:
    """Lower envelope: the universal free-rate floor joined with the
    per-mode profile brackets over the interior ball B(0, delta sqrt t)."""
    n = ps.spec.dimension
    best = t ** free_exponent(lp, alpha, n)
    root_t = math.sqrt(t)
    q, th = lp.target_pair()
    for k in range(0, min(alpha, ps.table.k_max) + 1):
        hk = ps.h(k)
        gam = hk.derived(harmonic.gamma_ratio, lp.p_conj, lp.sigma_conj, t)
        if gam == INF:
            return INF
        radius = delta * root_t
        main = hk.derived(harmonic.derivative_h, alpha).lorentz_norm_on_ball(
            q, th, radius)
        if main == INF:  # the bracket reads nothing (inf - inf at an inf soft)
            continue
        soft = hk.derived(harmonic.weighted_h, 2.0 - alpha).lorentz_norm_on_ball(
            q, th, radius)
        bracket = main - soft / t
        if bracket <= 0.0:
            continue
        val = t ** (-n / 2.0) * gam / hk.eval(root_t) * bracket
        best = max(best, val)
    return best


# ---------------------------------------------------------------------------
# closed-form rate predictions for the canonical families
# ---------------------------------------------------------------------------


@dataclass
class RatePrediction:
    theorem: str
    applicable: bool
    exponent: float | None
    log_power: float | None
    hypotheses: list = field(default_factory=list)  # (clause, ok, detail)


def _ball_norm_growth(exponent, log_power, q, theta, dimension):
    """(t-exponent, log-power) of || (1+r)^e log^b ||_{L^{q,theta}(B(0,sqrt t))}
    as t -> infinity."""
    e, b = exponent, log_power
    if q == INF:
        if e > 0.0:
            return e / 2.0, float(b)
        if e == 0.0:
            return 0.0, float(max(b, 0))
        return 0.0, 0.0
    c = q * e + dimension
    if c > 0.0:
        return e / 2.0 + dimension / (2.0 * q), float(b)
    if c < 0.0:
        return 0.0, 0.0
    extra = 0.0 if theta == INF else 1.0 / theta
    return 0.0, float(b) + extra


def _gamma_dual_growth(table: spectral.ExponentTable, lp: LorentzParams):
    """(t-exponent, log-power) of Gamma_{p',sigma'}(t) for large t, from the
    piecewise table in terms of p_* = N / (N + A_20)."""
    n = table.dimension
    a = float(table.A2[0])
    b0 = int(table.B[0])
    p_star = n / (n + a)
    p = lp.p
    if p > p_star:
        return n / 2.0 * (1.0 - (0.0 if p == INF else 1.0 / p)), 0.0
    if p == p_star:
        sc = lp.sigma_conj
        extra = 0.0 if sc == INF else 1.0 / sc
        return -a / 2.0, extra
    return -a / 2.0, -float(b0)


def _lex_max(a, b):
    """Max of (exponent, log-power) pairs by asymptotic size."""
    if a[0] != b[0]:
        return a if a[0] > b[0] else b
    return a if a[1] >= b[1] else b


def closed_form_rate(ps: ProfileSet, lp: LorentzParams, alpha: int
                     ) -> RatePrediction:
    """Predicted decay exponent of the operator norm for the potential's
    family (the large-time one for a bounded potential), with hypothesis
    checks reported; ValueError for a kind outside hardy, zero and
    inverse_power."""
    spec = ps.spec
    kind = spec.kind
    n = spec.dimension
    if kind == "hardy":
        return _rate_scale_invariant(ps, lp, alpha)
    if kind == "zero":
        return RatePrediction("T7.2", True, free_exponent(lp, alpha, n), 0.0,
                              [("V == 0", True, "free flow")])
    if kind == "inverse_power":
        return _rate_bounded(ps, lp, alpha)
    raise ValueError(f"no closed-form rate for potential kind {kind!r}")


def _rate_scale_invariant(ps, lp, alpha):
    spec = ps.spec
    n = spec.dimension
    lam = spec.params["lambda"]
    hyp = []
    hyp.append(("coupling nonzero", lam != 0.0, f"lambda={lam:g}"))
    a0 = spectral.a_exponents(lam, n)[0]
    a1 = spectral.a_exponents(lam + spectral.omega(1, n), n)[0]
    even = abs(a0 - 2.0 * round(a0 / 2.0)) < 1e-12 and a0 > 0.0
    if not even:
        c1 = power_membership(a0, lp.p_conj, lp.sigma_conj, n)
        c2 = power_membership(a0 - alpha, lp.q, lp.theta, n)
        hyp.append(("profile in dual source space", c1, f"A_0={a0:.6g}"))
        hyp.append(("shifted profile in target space", c2,
                    f"A_0-alpha={a0 - alpha:.6g}"))
        ok = c1 and c2
    else:
        c1 = alpha <= a0 or power_membership(a1 - alpha, lp.q, lp.theta, n)
        hyp.append(("even-degree degenerate clause", c1,
                    f"A_0={a0:.6g}, A_1={a1:.6g}"))
        ok = c1
    ok = ok and lam != 0.0
    expo = free_exponent(lp, alpha, n) if ok else None
    return RatePrediction("T7.1", ok, expo, 0.0 if ok else None, hyp)


def _rate_bounded(ps, lp, alpha):
    spec = ps.spec
    n = spec.dimension
    table = ps.table
    a20 = float(table.A2[0])
    b0 = int(table.B[0])
    hyp = [("bounded potential", True, spec.label)]
    # lambda_2 = 0 leaves A_20 = 0 (subcritical) or 2 - N < 0 (critical)
    if a20 == 0.0 and alpha >= 1:
        # flat far field: the large-time rate is set by the integrable
        # perturbation itself, not by the exponent table
        return _rate_flat_far_field(ps, lp, alpha, hyp)
    g = _gamma_dual_growth(table, lp)
    n2q = 0.0 if lp.q == INF else n / (2.0 * lp.q)
    hyp.append(("non-degenerate far field", True, f"A_20={a20:.6g}"))
    h = _ball_norm_growth(a20 - alpha, b0, lp.q, lp.theta, n)
    h = (h[0] - a20 / 2.0, h[1] - float(b0))   # ratio to h_0(sqrt t)
    h = _lex_max(h, (n2q - alpha / 2.0, 0.0))
    return RatePrediction("T7.2", True, -n / 2.0 + g[0] + h[0], g[1] + h[1], hyp)


def _rate_flat_far_field(ps, lp, alpha, hyp):
    spec = ps.spec
    n = spec.dimension
    grid = ps.grid
    kappa = spec.params.get("kappa")
    h0 = ps.h(0)
    # eta envelope exponent by the far-field strength of V
    if kappa is not None and spec.params.get("amplitude", 0.0) != 0.0:
        theorem = "T7.3"
        hyp.append(("far-field amplitude nonzero", True,
                    f"a={spec.params['amplitude']:g}"))
        hyp.append(("far field a r^-kappa, kappa > 2", kappa > 2.0,
                    f"kappa={kappa:g}"))
        # at kappa = N, eta carries a log factor that never outgrows the free
        # term t^(N/2q - alpha/2) taken below, so it predicts what kappa > N does
        e, b = 2.0 - min(kappa, n) - alpha, 0
    else:
        theorem = "T7.4"
        v = spec.V(grid)
        mass = cumulative_integral(grid, grid ** (n - 1) * np.abs(v))[-1]
        pairing = cumulative_integral(grid, grid ** (n - 1) * v * h0.values)[-1]
        hyp.append(("r^(N-1) V integrable", math.isfinite(mass),
                    f"integral={mass:.4g}"))
        hyp.append(("nonzero pairing with the profile", abs(pairing) > 1e-12,
                    f"pairing={pairing:.4g}"))
        if not (math.isfinite(mass) and abs(pairing) > 1e-12):
            return RatePrediction(theorem, False, None, None, hyp)
        e, b = 2.0 - n - alpha, 0
    growth = _ball_norm_growth(e, b, lp.q, lp.theta, n)
    n2q = 0.0 if lp.q == INF else n / (2.0 * lp.q)
    growth = _lex_max(growth, (n2q - alpha / 2.0, 0.0))
    p_inv = 0.0 if lp.p == INF else 1.0 / lp.p
    expo = -n / 2.0 * p_inv + growth[0]
    return RatePrediction(theorem, True, expo, growth[1], hyp)


# ---------------------------------------------------------------------------
# empirical rate fitting
# ---------------------------------------------------------------------------


@dataclass
class RateEstimate:
    amplitude: float
    exponent: float
    log_power: float
    residual: float
    window: tuple[float, float]
    model: str


def check_window(ts) -> None:
    """RateFitError unless the times ts are >= 8 points that span >= 2
    decades, the least fit_rate fits on."""
    if ts.size < 8:
        raise RateFitError(f"need >= 8 usable points, got {ts.size}")
    span = np.max(ts) / np.min(ts)
    if span < 99.0:
        raise RateFitError(f"window must span >= 2 decades, got {span:.3g}x")


def fit_rate(ts, values, model: str = "auto") -> RateEstimate:
    """Least squares in log-log coordinates.

    model 'pure-power' fits a t^b; 'power-log' adds a (log t)^c factor
    (needs the window inside t > 1); 'auto' keeps the simpler model unless
    the log factor reduces the residual by a clear margin.
    """
    ts = np.asarray(ts, dtype=float)
    values = np.asarray(values, dtype=float)
    mask = np.isfinite(values) & (values > 0.0)
    ts, values = ts[mask], values[mask]
    check_window(ts)
    lt, lv = np.log(ts), np.log(values)

    def pure():
        coef, res = _lstsq(np.column_stack([np.ones_like(lt), lt]), lv)
        return RateEstimate(math.exp(coef[0]), coef[1], 0.0, res,
                            (float(np.min(ts)), float(np.max(ts))), "pure-power")

    def powerlog():
        if np.min(ts) <= 1.5:
            raise RateFitError("power-log model needs the window inside t > 1.5")
        llt = np.log(lt)
        coef, res = _lstsq(np.column_stack([np.ones_like(lt), lt, llt]), lv)
        return RateEstimate(math.exp(coef[0]), coef[1], coef[2], res,
                            (float(np.min(ts)), float(np.max(ts))), "power-log")

    if model == "pure-power":
        return pure()
    if model == "power-log":
        return powerlog()
    if model != "auto":
        raise ValueError(f"unknown model {model!r}")
    base = pure()
    try:
        withlog = powerlog()
    except RateFitError:
        return base
    # selection margin: the extra parameter must earn a clear reduction
    if withlog.residual < 0.5 * base.residual - 1e-12:
        return withlog
    return base


def _lstsq(design, target):
    coef, *_ = np.linalg.lstsq(design, target, rcond=None)
    resid = target - design @ coef
    return coef, float(np.sqrt(np.mean(resid ** 2)))


def consistency_check_free_rate(ps: ProfileSet, p: float, fits: dict
                                ) -> list[dict]:
    """Contrapositive check of the free-rate characterization.

    For source exponent p and target L^inf, the free decay t^(-N/2p - alpha/2)
    forces the couplings into [omega_alpha, inf) (with 0 allowed at the
    origin); couplings outside those ranges must show a strictly slower
    fitted rate.  V == 0 is -Delta itself, whose rate is free at every
    alpha.  fits maps alpha -> RateEstimate of the empirical series.
    """
    spec = ps.spec
    n = spec.dimension
    # every kind vanishes on the grid only for a zero coupling or amplitude
    free_operator = not np.any(spec.V(ps.grid))
    rows = []
    for alpha, fit in sorted(fits.items()):
        free = -n / (2.0 * p) - alpha / 2.0
        violated = fit.exponent > free + FREE_RATE_TOL
        w_alpha = spectral.omega(alpha, n)
        allows = free_operator or (
            ps.criticality == spectral.SUBCRITICAL
            and (spec.lambda1 >= w_alpha or spec.lambda1 == 0.0)
            and spec.lambda2 >= w_alpha)
        rows.append({
            "alpha": alpha,
            "free_exponent": free,
            "fitted_exponent": fit.exponent,
            "free_rate_violated": violated,
            "characterization_allows_free": allows,
            "consistent": violated or allows,
        })
    return rows
