"""Exponent arithmetic and potential classification.

Everything here is derivable from (lambda_1, lambda_2, N, k) without solving
an ODE: sphere eigenvalues, eigenspace dimensions, the characteristic
exponents A^+/-, per-mode exponent tables, and the criticality /
nonnegativity checks for radial inverse-square potentials.  Criticality of
a potential other than Hardy or zero takes one more number, the matched
far-field exponent of h_0, which the harmonic module solves for.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

SUBCRITICAL = "subcritical"
NULL_CRITICAL = "null-critical"
POSITIVE_CRITICAL = "positive-critical"
UNKNOWN = "unknown"

# admissibility floor and separation demanded of a criticality exponent fit
FIT_TOL = 0.05
ROOT_SEPARATION = 0.2

# potential kinds whose criticality follows from lambda_2 alone
ANALYTIC_KINDS = ("zero", "hardy")

# nonnegativity evidence of a sign-changing V: the Dirichlet ball B(0, 60) on
# 3000 interior nodes, and how far below 0 its lowest eigenvalue may sit
NONNEG_R_MAX = 60.0
NONNEG_POINTS = 3000
NONNEG_TOL = 1e-3


class SpectralError(ValueError):
    pass


class AmbiguousClassificationError(SpectralError):
    """Exponent fit cannot distinguish the two characteristic roots."""


def lambda_star(dimension: int) -> float:
    """Coupling floor -(N-2)^2/4 below which nonnegativity fails."""
    return -((dimension - 2) ** 2) / 4.0


def omega(k: int, dimension: int) -> float:
    """k-th eigenvalue k(N+k-2) of the sphere Laplacian."""
    if k < 0 or dimension < 2:
        raise SpectralError("need k >= 0 and N >= 2")
    return float(k * (dimension + k - 2))


def eigenspace_dimension(k: int, dimension: int) -> int:
    """Multiplicity of the k-th sphere eigenvalue (exact integer)."""
    if k < 0 or dimension < 2:
        raise SpectralError("need k >= 0 and N >= 2")
    if k == 0:
        return 1
    n = dimension
    num = (n + 2 * k - 2) * math.factorial(n + k - 3)
    den = math.factorial(n - 2) * math.factorial(k)
    d, rem = divmod(num, den)
    if rem:
        raise SpectralError(f"non-integer eigenspace dimension for k={k}, N={n}")
    return d


def a_exponents(lam: float, dimension: int) -> tuple[float, float]:
    """Roots A^+- of A(A+N-2) = lam; requires lam >= lambda_*."""
    disc = (dimension - 2) ** 2 + 4.0 * lam
    if disc < -1e-12:
        raise SpectralError(f"lambda={lam} below the floor {lambda_star(dimension)}")
    root = math.sqrt(max(disc, 0.0))
    return (-(dimension - 2) + root) / 2.0, (-(dimension - 2) - root) / 2.0


# ---------------------------------------------------------------------------
# potentials
# ---------------------------------------------------------------------------


@dataclass
class PotentialSpec:
    """Radial potential with its inverse-square asymptotic data.

    V(r) = lambda1 r^-2 + O(r^(-2+rho1)) at 0 and lambda2 r^-2 + O(r^(-2-rho2))
    at infinity; `remainder(r)` returns r^2 V(r) - lambda1 exactly (this is
    what the regularized harmonic solver integrates against).
    """

    dimension: int
    kind: str
    lambda1: float
    rho1: float
    lambda2: float
    rho2: float
    smoothness: int
    V: Callable[[np.ndarray], np.ndarray]
    V_deriv: Callable[[np.ndarray, int], np.ndarray] | None = None
    remainder: Callable[[np.ndarray], np.ndarray] | None = None
    label: str = ""
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.dimension < 2:
            raise SpectralError("dimension must be >= 2")
        floor = lambda_star(self.dimension)
        if self.lambda1 < floor - 1e-12 or self.lambda2 < floor - 1e-12:
            raise SpectralError(
                f"lambda1/lambda2 must be >= lambda_* = {floor} (condition on the "
                "inverse-square asymptotics)")
        if self.rho1 <= 0 or self.rho2 <= 0:
            raise SpectralError("rho1, rho2 must be positive")
        if self.remainder is None:
            l1 = self.lambda1
            vf = self.V
            self.remainder = lambda r: r * r * vf(r) - l1
        if not self.label:
            self.label = self.kind

    # -- canonical constructors -------------------------------------------------

    @classmethod
    def hardy(cls, dimension: int, lam: float) -> "PotentialSpec":
        """V(r) = lam / r^2."""

        def v(r):
            return lam / np.asarray(r, dtype=float) ** 2

        def v_deriv(r, ell):
            r = np.asarray(r, dtype=float)
            coef = lam * (-1) ** ell * math.factorial(ell + 1)
            return coef * r ** (-2 - ell)

        return cls(dimension, "hardy", lam, 2.0, lam, 2.0, 99, v, v_deriv,
                   remainder=lambda r: np.zeros_like(np.asarray(r, dtype=float)),
                   label=f"hardy(lambda={lam:g})", params={"lambda": lam})

    @classmethod
    def zero(cls, dimension: int) -> "PotentialSpec":
        """V identically zero (the plain heat flow)."""
        z = lambda r: np.zeros_like(np.asarray(r, dtype=float))
        return cls(dimension, "zero", 0.0, 2.0, 0.0, 2.0, 99, z,
                   lambda r, ell: z(r), remainder=z, label="zero")

    @classmethod
    def inverse_power(cls, dimension: int, amplitude: float, kappa: float
                      ) -> "PotentialSpec":
        """V(r) = a (1 + r^2)^(-kappa/2), bounded with r^-kappa far field."""
        if kappa <= 2.0:
            raise SpectralError("kappa must exceed 2 for an inverse-square far field")
        a = float(amplitude)

        def v(r):
            r = np.asarray(r, dtype=float)
            return a * (1.0 + r * r) ** (-kappa / 2.0)

        def v_deriv(r, ell):
            r = np.asarray(r, dtype=float)
            # d^ell/dr^ell (1+r^2)^(-kappa/2) = P_ell(r) (1+r^2)^(-kappa/2-ell)
            poly = np.array([1.0])
            for j in range(ell):
                dp = np.polynomial.polynomial.polyder(poly) if poly.size > 1 \
                    else np.array([0.0])
                # P' (1+r^2) - (kappa + 2 j) r P
                p1 = np.polynomial.polynomial.polymul(dp, np.array([1.0, 0.0, 1.0]))
                p2 = np.polynomial.polynomial.polymul(
                    poly, np.array([0.0, kappa + 2.0 * j]))
                poly = np.polynomial.polynomial.polysub(p1, p2)
            val = np.polynomial.polynomial.polyval(r, poly)
            return a * val * (1.0 + r * r) ** (-kappa / 2.0 - ell)

        def remainder(r):
            # r^2 V(r) by v's operations, which on the floats of the RK45
            # right-hand side skip numpy's per-call overhead
            rr = r * r
            return rr * (a * (1.0 + rr) ** (-kappa / 2.0))

        return cls(dimension, "inverse_power", 0.0, 2.0, 0.0, kappa - 2.0, 99,
                   v, v_deriv, remainder=remainder,
                   label=f"inverse_power(a={a:g},kappa={kappa:g})",
                   params={"amplitude": a, "kappa": kappa})

    def v_k(self, r, k: int):
        """Mode potential V(r) + omega_k r^-2."""
        r = np.asarray(r, dtype=float)
        return self.V(r) + omega(k, self.dimension) / r ** 2

    def v_k_deriv(self, r, k: int, ell: int):
        """ell-th derivative of the mode potential."""
        r = np.asarray(r, dtype=float)
        if ell == 0:
            return self.v_k(r, k)
        if self.V_deriv is None:
            raise SpectralError(
                f"potential kind {self.kind!r} provides no derivatives")
        wk = omega(k, self.dimension)
        coef = wk * (-1) ** ell * math.factorial(ell + 1)
        return self.V_deriv(r, ell) + coef * r ** (-2 - ell)


# ---------------------------------------------------------------------------
# exponent tables
# ---------------------------------------------------------------------------


@dataclass
class ExponentTable:
    """Per-mode constants derived from (lambda1, lambda2, N) and criticality."""

    dimension: int
    k_max: int
    criticality: str
    omega: np.ndarray
    d: np.ndarray
    A1: np.ndarray
    A2: np.ndarray
    B: np.ndarray

    def row(self, k: int) -> dict:
        return {
            "k": k, "omega": float(self.omega[k]), "d": int(self.d[k]),
            "A1": float(self.A1[k]), "A2": float(self.A2[k]), "B": int(self.B[k]),
        }


def exponent_table(spec: PotentialSpec, criticality: str, k_max: int
                   ) -> ExponentTable:
    """Assemble the per-mode exponent table; enforces the admissibility
    clause that a critical operator must satisfy A_{2,0} > -N/2."""
    if criticality not in (SUBCRITICAL, NULL_CRITICAL, POSITIVE_CRITICAL):
        raise SpectralError(f"criticality must be resolved first, got {criticality!r}")
    n = spec.dimension
    ks = range(k_max + 1)  # Python ints: the dimensions outgrow int64
    om = np.array([omega(k, n) for k in ks])
    dims = np.array([eigenspace_dimension(k, n) for k in ks], dtype=object)
    a1 = np.array([a_exponents(spec.lambda1 + w, n)[0] for w in om])
    a2 = np.array([a_exponents(spec.lambda2 + w, n)[0] for w in om])
    b = np.zeros(k_max + 1, dtype=int)
    critical = criticality != SUBCRITICAL
    if critical:
        a2[0] = a_exponents(spec.lambda2, n)[1]
        if a2[0] <= -n / 2.0:
            raise SpectralError(
                f"critical operator with A_20 = {a2[0]:.6g} <= -N/2: the "
                "positive-critical regime is rejected")
    elif spec.lambda2 == lambda_star(n):
        b[0] = 1
    return ExponentTable(n, k_max, criticality, om, dims, a1, a2, b)


def classify_criticality(spec: PotentialSpec,
                         h0_outer_exponent: float | None = None) -> str:
    """Subcritical / null-critical / positive-critical / unknown.

    Hardy and zero potentials are classified analytically.  Any other kind
    is classified from the matched far-field exponent of its positive
    harmonic profile h_0 (`HarmonicProfile.outer_exponent` for k = 0): the
    root A^+ means subcritical, the root A^- critical, and an unmatched fit
    or roots closer than ROOT_SEPARATION unknown.  This procedure is the
    package's own device, not a closed-form criterion.
    """
    n = spec.dimension
    a_plus, a_minus = a_exponents(spec.lambda2, n)
    critical = NULL_CRITICAL if a_minus > -n / 2.0 else POSITIVE_CRITICAL
    if spec.kind == "zero":
        return SUBCRITICAL
    if spec.kind == "hardy":
        return SUBCRITICAL if spec.lambda2 > lambda_star(n) else critical
    if h0_outer_exponent is None:
        raise SpectralError(f"potential kind {spec.kind!r} is classified from "
                            "the far-field exponent of h_0; none was given")
    if abs(a_plus - a_minus) < ROOT_SEPARATION:
        return UNKNOWN
    if h0_outer_exponent == a_plus:
        return SUBCRITICAL
    if h0_outer_exponent == a_minus:
        return critical
    return UNKNOWN


def check_nonnegativity(spec: PotentialSpec) -> tuple[bool, dict]:
    """Evidence that the quadratic form of -Delta + V is nonnegative.

    Hardy potentials use the sharp inequality; pointwise nonnegative V is
    immediate; otherwise the radial operator is discretized on a ball with
    Dirichlet boundary and its smallest eigenvalue returned as evidence.
    """
    n = spec.dimension
    if spec.kind == "hardy":
        lam = spec.params["lambda"]
        margin = lam - lambda_star(n)
        return margin >= -1e-12, {"method": "hardy-inequality", "margin": margin}
    probe = np.geomspace(1e-6, 1e6, 481)
    vp = spec.V(probe)
    if np.all(vp >= 0.0):
        return True, {"method": "pointwise-sign", "min_V": float(np.min(vp))}
    # the only use of scipy.linalg: imported here, not on every launch
    from scipy.linalg import eigh_tridiagonal

    # symmetrized radial operator: u = r^((N-1)/2) h turns the radial
    # Laplacian into -u'' + [(N-1)(N-3)/(4 r^2)] u
    h = NONNEG_R_MAX / (NONNEG_POINTS + 1)
    r = h * np.arange(1, NONNEG_POINTS + 1)
    w = spec.V(r) + (n - 1) * (n - 3) / (4.0 * r ** 2)
    diag = 2.0 / h ** 2 + w
    off = np.full(NONNEG_POINTS - 1, -1.0 / h ** 2)
    ev = eigh_tridiagonal(diag, off, select="i", select_range=(0, 0),
                          eigvals_only=True)[0]
    return bool(ev >= -NONNEG_TOL), {"method": "dirichlet-eigenvalue",
                                     "eigenvalue": float(ev),
                                     "r_max": NONNEG_R_MAX, "tol": NONNEG_TOL}


def check_inverse_square_smoothness(spec: PotentialSpec, ell_max: int) -> dict:
    """Numerical sup of |r^(l+2) V^(l)(r)| for l <= ell_max on a probe grid
    over 1e-6 <= r <= 1e6."""
    r = np.geomspace(1e-6, 1e6, 241)
    sups = {}
    for ell in range(0, ell_max + 1):
        vals = spec.V(r) if ell == 0 else spec.V_deriv(r, ell)
        sups[ell] = float(np.max(np.abs(r ** (ell + 2) * vals)))
    return sups
