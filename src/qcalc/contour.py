"""Quadrature along sector boundaries for the kernel calculi.

The path is the boundary of a sector of half-opening angle phi inside one
complex slice: gamma(t) = -t e^{J phi} for t < 0 and t e^{-J phi} for
t > 0, so the integral of K(s) ds_J f(s) reduces to

    int_{tmin}^{tmax} [ K(r e^{J phi}) s+ - K(r e^{-J phi}) s- ] dr,
    s+- = e^{+-J phi} J f(r e^{+-J phi}).

After r = e^u the integrand is analytic in u on the strip |Im u| < d with
d = min(phi - omega, theta - phi), where omega is the spectral angle and
theta the function sector, so the trapezoidal rule on a lattice u = j h
converges geometrically in 1/h (Trefethen and Weideman, SIAM Review 56,
2014).  The lattice is anchored at u = 0 and covers [log t_min,
log t_max].  The first step h0 = min(1, 2 pi d / ln(10 / tol)) is taken
from the strip (contour_for), and each refinement halves h, which keeps
every old node and evaluates only the new odd ones:
T_{k+1} = T_k / 2 + h_{k+1} sum_new.  Two consecutive levels must agree
in the whole-matrix Frobenius norm; a halving whose difference does not
shrink has stalled at roundoff and ends the refinement at once.

An OperatorKernel is integrated without J.  Its family G = A + i B =
sum_d C_d z^d M^p (see operators.KernelNumerator) is the left kernel
A + B J at z and A - B J at zbar.  For f = alpha + J beta with stem
W = alpha + i beta, e^{+-J phi} = cos phi +- J sin phi gives

    K(z) s+ - K(zbar) s- = A (s+ - s-) + B J (s+ + s-)
      = -2 A (sin phi alpha + cos phi beta) - 2 B (cos phi alpha
        - sin phi beta) = Re(G 2i e^{i phi} W),

so with dz = e^{i phi} dr a level is sum_d C_d Re(2i sum_m z_m^d M_m^p
W_m dz_m), free of J.  f ds_J K_R with K_R = A + J B mirrors this for
intrinsic f, whose real alpha, beta commute with J.  A right kernel on
the left, a left kernel on the right and a non-intrinsic f on the right
have no such form; require_moment_form refuses them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NoDecayMetadata, NotIntrinsic, ToleranceNotMet
from .operators import (QuatMatrix, _AB_FAMILY, _chain, _z_powers, bq_dot,
                        stack_fro)
from .operators import bq_scalar  # unused; qbench/layertrace.py traces it
from .quaternion import Quaternion

# qbench/layertrace.py counts a level's nodes as _level_value's fifth
# argument times GAUSS_ORDER; the trapezoidal lattice has one node per point
GAUSS_ORDER = 1
_MAX_REFINEMENTS = 9

# Truncation radii are clamped to keep intermediate powers of |s| inside
# float range; contour_for refuses certificates that would need more.
_RADIUS_CLAMP = 1e60


@dataclass(frozen=True)
class SectorContour:
    """Integration path along the boundary rays of a sector.

    phi: ray angle, strictly between the spectral angle and the function
    sector; unit: the imaginary unit J spanning the slice, which no value
    reads (the moment form is J-free); t_min/t_max: truncation radii with
    0 < t_min < 1 < t_max; h0: first lattice step in u = log r (see
    contour_for); tol: Frobenius target for refinement.
    """

    phi: float
    unit: Quaternion  # qbench/layertrace.py keys its integral spans on it
    t_min: float
    t_max: float
    h0: float
    tol: float = 1e-9

    def __post_init__(self):
        _require_positive_tol(self.tol)
        if not 0.0 < self.phi < math.pi:
            raise ValueError("contour angle must lie in (0, pi)")
        if abs(self.unit.s0) > 1e-9 or abs(self.unit.norm() - 1.0) > 1e-9:
            raise ValueError("contour unit must be a unit imaginary quaternion")
        if not (0.0 < self.t_min < 1.0 < self.t_max < math.inf):
            raise ValueError("truncation radii must satisfy 0 < t_min < 1 < t_max")
        _require_positive_step(self.h0)


def _require_positive_step(h: float) -> None:
    if not 0.0 < h < math.inf:
        raise ValueError(f"lattice step must be positive and finite, got "
                         f"h={h!r}")


def _require_positive_tol(tol: float) -> None:
    if not tol > 0.0:  # NaN too; tol = inf asks for no refinement
        raise ValueError(f"tolerance must be positive, got tol={tol!r}")


def _one_sided_radius(delta: float, c: float, tol: float, side: str) -> float:
    """Truncation radius t_min (side "min") with 2 C t_min**delta / delta <=
    tol/20, or t_max (side "max") with the mirrored bound at infinity; the
    min(delta, 1) keeps extra headroom for delta > 1.  tol = inf gives 1.
    A constant so large (or NaN) that the bound underflows raises
    ToleranceNotMet; a radius past the float range is inf."""
    if delta <= 0.0:
        raise ValueError("decay rate delta must be positive")
    _require_positive_tol(tol)
    if not math.isfinite(tol):
        return 1.0
    base = min(delta, 1.0) * tol / (40.0 * max(c, 1e-300))
    if not base > 0.0:
        raise ToleranceNotMet(
            f"certificate constant {c:.3g} leaves no truncation radius in "
            f"floating point")
    try:
        return base ** (1.0 / delta if side == "min" else -1.0 / delta)
    except OverflowError:
        return math.inf


def _first_step(strip: float, tol: float) -> float:
    """min(1, 2 pi d / ln(10 / tol)) for strip half-width d: the trapezoidal
    error on the strip falls like exp(-2 pi d / h), so at h0 it is about
    tol / 10 and one halving checks it.  1 when tol >= 10 (tol = inf)."""
    if not tol < 10.0:
        return 1.0
    return min(1.0, 2.0 * math.pi * strip / math.log(10.0 / tol))


def contour_for(cert, kernel_bound, phi: float, omega: float,
                unit: Quaternion, tol: float = 1e-9) -> SectorContour:
    """Build a contour whose truncation error is certified below tol/10;
    ToleranceNotMet when the certified radii cannot be represented.

    cert is the integrand's DecayCertificate, certified on the sector of
    angle cert.theta.  kernel_bound is (C_K, a_K, b_K): the kernel norm is
    bounded by C_K |s|**-a_K below radius one and C_K |s|**-b_K above.  The
    integrand then decays like t**(-1+delta0) at zero and
    t**(-1-deltainf) at infinity.  omega is the operator's spectral angle;
    with theta = cert.theta the integrand is analytic on the strip of
    half-width min(phi - omega, theta - phi) in log r, which sets the first
    lattice step (_first_step).
    """
    if not omega < phi < cert.theta:
        raise ValueError(f"need omega < phi < theta, got omega={omega!r}, "
                         f"phi={phi!r}, theta={cert.theta!r}")
    c_k, a_k, b_k = kernel_bound
    delta0 = cert.delta + (cert.a - a_k)
    deltainf = cert.delta + (b_k - cert.b)
    if delta0 <= 0.0 or deltainf <= 0.0:
        raise NoDecayMetadata(
            f"certificate (a={cert.a:g}, b={cert.b:g}, delta={cert.delta:g}) "
            f"cannot absorb a kernel of orders ({a_k:g}, {b_k:g})")
    c_total = c_k * cert.constant
    t_min = _one_sided_radius(delta0, c_total, tol, "min")
    t_max = _one_sided_radius(deltainf, c_total, tol, "max")
    if not 1.0 / _RADIUS_CLAMP <= t_min < 1.0 < t_max <= _RADIUS_CLAMP:
        raise ToleranceNotMet(
            f"certified truncation radii ({t_min:.3g}, {t_max:.3g}) leave the "
            f"floating-point safe range or the interval around 1")
    h0 = _first_step(min(phi - omega, cert.theta - phi), tol)
    return SectorContour(phi, unit, t_min, t_max, h0, tol=tol)


class OperatorKernel:
    """One kernel kind of a fixed operator, the one kernel the quadrature
    takes; it is integrated in moment form (see _moment_value)."""

    def __init__(self, kind: str, t):
        self.kind = kind
        self.operator = t

    @property
    def path(self) -> str:
        """"eigenbasis" when the operator has one (see _moment_value), else
        "dense"."""
        return "dense" if self.operator.eigenbasis is None else "eigenbasis"


def require_moment_form(kind: str, f, side: str) -> None:
    """Refuse a kernel kind, function and side with no J-free moment form
    (see the module docstring): ValueError for an unknown side or a kernel
    on the other side, NotIntrinsic for a non-intrinsic f on the right."""
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    if kind.endswith("_R" if side == "left" else "_L"):
        raise ValueError(
            f"kernel {kind} has no J-free moment form on side {side!r}")
    if side == "right" and not f.intrinsic:
        raise NotIntrinsic("the right-kernel form needs an intrinsic function")


def _moment_value(k: OperatorKernel, dz, z, stem, side: str):
    """sum_d C_d Re(Mom_d) (side "left") or sum_d Re(Mom_d) C_d (side
    "right") with Mom_d = sum_m 2i dz_m z_m^d W_m M_m^power (see the module
    docstring), one complex GEMM over the nodes.  With an eigenbasis
    (U, d0, d2) it runs over the diagonal of U^T M^power U (see _chain) and
    each of the 4 (degree+1) moments is U diag U^T.  No unit J is read.
    Returns the sum and the worst conditioning of the nodes' Q_{c,z}(T)."""
    fam = _AB_FAMILY[k.kind]
    num = k.operator.kernel_numerators[fam]
    basis = k.operator.eigenbasis
    g, scale, cond = _chain(k.operator, z.real, z.imag, upto=fam,
                            diagonal=basis is not None)
    zp = _z_powers(z, scale, len(num.coef) - 1, num.power)
    weights = (2j * dz)[:, None, None] * zp[:, :, None] * stem[:, None, :]
    m = len(z)
    moments = (weights.reshape(m, -1).T @ g.reshape(m, -1)).real
    moments = moments.reshape((-1, 4) + g.shape[1:])
    if basis is not None:
        u = basis[0]
        moments = (u * moments[..., None, :]) @ u.T
    value = (bq_dot(num.coef, moments) if side == "left"
             else bq_dot(moments, num.coef))
    return value, float(cond.max())


def _nodes(contour: SectorContour, h: float) -> np.ndarray:
    """The lattice of step h: the indices j of the nodes u = j h in
    [log t_min, log t_max], r = e^u.  It is anchored at u = 0, so the
    lattice at h / 2 holds every node at h (its even j) and the new ones
    (its odd j)."""
    return np.arange(math.ceil(math.log(contour.t_min) / h),
                     math.floor(math.log(contour.t_max) / h) + 1)


def _level_value(k, f, contour: SectorContour, side: str, count: int,
                 u: np.ndarray):
    """The moment-form sum of an OperatorKernel over the nodes
    z = e^{u + i phi} with du = 1 (the caller weights it by h), after
    require_moment_form; returns (sum, worst conditioning of Q_{c,z}(T)).
    count = len(u) is not read: qbench/layertrace.py takes the six
    arguments by position and counts the level's nodes as count *
    GAUSS_ORDER."""
    if not isinstance(k, OperatorKernel):
        raise TypeError("the quadrature takes an OperatorKernel, not "
                        f"{type(k).__name__}")
    require_moment_form(k.kind, f, side)
    z = np.exp(u + 1j * contour.phi)
    with np.errstate(over="ignore", invalid="ignore"):
        stem = f.complex_stem(z)
    if not np.isfinite(stem).all():
        raise ToleranceNotMet(
            f"{f!r} is not finite on the contour between radii "
            f"{contour.t_min:.3g} and {contour.t_max:.3g}")
    return _moment_value(k, z, z, stem, side)  # dz = z du


def integrate(k, f, contour: SectorContour, *, side: str = "left"):
    """Adaptively evaluate the sector-boundary integral of K ds_J f.

    k is an OperatorKernel (any other object raises TypeError), taken in
    moment form, which refuses the forms that would depend on J (see
    require_moment_form).  side selects the sandwich order: "left" is
    K ds_J f, "right" is f ds_J K.  The first level is the whole lattice at
    contour.h0; each refinement halves h and evaluates the new nodes only
    (see the module docstring), at most _MAX_REFINEMENTS times.  Returns
    (QuatMatrix, diagnostics): nodes is the number of nodes evaluated over
    all levels, h the accepted step, and worst_cond the largest
    (||Q||_F ||Q^-1||_F)^2 met on the accepted lattice.  A non-finite stem
    or difference, or a difference that does not shrink, raises
    ToleranceNotMet at once, as refining cannot mend it.
    """
    h = contour.h0
    u = _nodes(contour, h) * h
    total, cond = _level_value(k, f, contour, side, len(u), u)
    value, nodes = h * total, len(u)
    last = math.inf
    for _ in range(_MAX_REFINEMENTS):
        h /= 2.0
        j = _nodes(contour, h)
        u = j[j % 2 == 1] * h
        total, new_cond = _level_value(k, f, contour, side, len(u), u)
        refined = 0.5 * value + h * total
        cond, nodes = max(cond, new_cond), nodes + len(u)
        diff = float(stack_fro(refined - value))
        value = refined
        if not math.isfinite(diff):
            raise ToleranceNotMet(f"Frobenius difference {diff:.3g} is not "
                                  f"finite at h = {h:.3g}")
        if diff <= contour.tol:
            return QuatMatrix(value), {"nodes": nodes, "h": h,
                                       "tol_achieved": diff,
                                       "t_min": contour.t_min,
                                       "t_max": contour.t_max,
                                       "worst_cond": cond}
        if diff >= last:
            raise ToleranceNotMet(
                f"refinement stalled at h = {h:.3g}: Frobenius difference "
                f"{diff:.3g} did not fall below {last:.3g} (target "
                f"{contour.tol:.3g})")
        last = diff
    raise ToleranceNotMet(
        f"Frobenius difference {diff:.3g} above target {contour.tol:.3g} "
        f"at h = {h:.3g}")


def integrate_fixed(k, f, contour: SectorContour, h: float, *,
                    side: str = "left"):
    """Single trapezoidal pass over the whole lattice of step h (see
    _nodes), no refinement.

    Used by linearity and step tests where the node set must match across
    calls; integrate's value at its accepted h is this value up to the
    order of summation.
    """
    _require_positive_step(h)
    u = _nodes(contour, h) * h
    total, _ = _level_value(k, f, contour, side, len(u), u)
    return QuatMatrix(h * total), {"nodes": len(u), "h": h}
