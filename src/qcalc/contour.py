"""Quadrature along sector boundaries for the kernel calculi.

The path is the boundary of a sector of half-opening angle phi inside one
complex slice: gamma(t) = -t e^{J phi} for t < 0 and t e^{-J phi} for
t > 0, so the integral of K(s) ds_J f(s) reduces to

    int_{tmin}^{tmax} [ K(r e^{J phi}) s+ - K(r e^{-J phi}) s- ] dr,
    s+- = e^{+-J phi} J f(r e^{+-J phi}).

The substitution r = e^u equidistributes the decay at both ends; each panel
carries a fixed Gauss-Legendre rule and the panel set is bisected until two
consecutive refinements agree in the whole-matrix Frobenius norm.

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

GAUSS_ORDER = 16  # qbench/layertrace.py reads it to count nodes
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(GAUSS_ORDER)
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
    0 < t_min < 1 < t_max; tol: Frobenius target for refinement.
    """

    phi: float
    unit: Quaternion  # qbench/layertrace.py keys its integral spans on it
    t_min: float
    t_max: float
    tol: float = 1e-9

    def __post_init__(self):
        _require_positive_tol(self.tol)
        if not 0.0 < self.phi < math.pi:
            raise ValueError("contour angle must lie in (0, pi)")
        if abs(self.unit.s0) > 1e-9 or abs(self.unit.norm() - 1.0) > 1e-9:
            raise ValueError("contour unit must be a unit imaginary quaternion")
        if not (0.0 < self.t_min < 1.0 < self.t_max < math.inf):
            raise ValueError("truncation radii must satisfy 0 < t_min < 1 < t_max")


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


def contour_for(cert, kernel_bound, phi: float, unit: Quaternion,
                tol: float = 1e-9) -> SectorContour:
    """Build a contour whose truncation error is certified below tol/10;
    ToleranceNotMet when the certified radii cannot be represented.

    cert is the integrand's DecayCertificate.  kernel_bound is
    (C_K, a_K, b_K): the kernel norm is bounded by C_K |s|**-a_K below
    radius one and C_K |s|**-b_K above.  The integrand then decays like
    t**(-1+delta0) at zero and t**(-1-deltainf) at infinity.
    """
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
    return SectorContour(phi, unit, t_min, t_max, tol=tol)


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


def _nodes(contour: SectorContour, panels: int):
    """The level's nodes z = r e^{i phi} on the upper ray and their
    Gauss-Legendre weights in u = log r: panels equal panels in u from
    t_min to t_max, GAUSS_ORDER nodes each."""
    edges = np.linspace(math.log(contour.t_min), math.log(contour.t_max),
                        panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    u = (mid[:, None] + half[:, None] * _GL_NODES[None, :]).ravel()
    w = (half[:, None] * _GL_WEIGHTS[None, :]).ravel()
    t = np.exp(u)
    return t * math.cos(contour.phi) + 1j * (t * math.sin(contour.phi)), w


def _level_value(k, f, contour: SectorContour, side: str, panels: int,
                 matrix_dim: int | None):
    """One quadrature level of an OperatorKernel: (value, worst
    conditioning of Q_{c,z}(T)) in moment form, after require_moment_form.
    matrix_dim is not read; qbench/layertrace.py takes the six arguments
    by position."""
    if not isinstance(k, OperatorKernel):
        raise TypeError("the quadrature takes an OperatorKernel, not "
                        f"{type(k).__name__}")
    require_moment_form(k.kind, f, side)
    z, w = _nodes(contour, panels)
    with np.errstate(over="ignore", invalid="ignore"):
        stem = f.complex_stem(z)
    if not np.isfinite(stem).all():
        raise ToleranceNotMet(
            f"{f!r} is not finite on the contour between radii "
            f"{contour.t_min:.3g} and {contour.t_max:.3g}")
    return _moment_value(k, w * z, z, stem, side)  # dz = z du


def integrate(k, f, contour: SectorContour, *, side: str = "left"):
    """Adaptively evaluate the sector-boundary integral of K ds_J f.

    k is an OperatorKernel (any other object raises TypeError), taken in
    moment form, which refuses the forms that would depend on J (see
    require_moment_form).  side selects the sandwich order: "left" is
    K ds_J f, "right" is f ds_J K.  The first level has one panel per two
    units of log radius (at least 8); each refinement doubles the panels.
    Returns (QuatMatrix, diagnostics); the diagnostics' worst_cond is the
    largest (||Q||_F ||Q^-1||_F)^2 met on the accepted level.  A non-finite
    stem or difference between levels raises ToleranceNotMet at once, as
    refining cannot mend it.
    """
    span = math.log(contour.t_max) - math.log(contour.t_min)
    panels = max(8, math.ceil(span / 2.0))
    value, _ = _level_value(k, f, contour, side, panels, None)
    diff = math.inf
    for _ in range(_MAX_REFINEMENTS):
        panels *= 2
        refined, cond = _level_value(k, f, contour, side, panels, None)
        diff = float(stack_fro(refined - value))
        if not math.isfinite(diff):
            raise ToleranceNotMet(f"Frobenius difference {diff:.3g} is not "
                                  f"finite at {panels} panels")
        value = refined
        if diff <= contour.tol:
            return QuatMatrix(value), {"panels": panels, "tol_achieved": diff,
                                       "t_min": contour.t_min,
                                       "t_max": contour.t_max,
                                       "worst_cond": cond}
    raise ToleranceNotMet(
        f"Frobenius difference {diff:.3g} above target {contour.tol:.3g} "
        f"after {panels} panels")


def integrate_fixed(k, f, contour: SectorContour, panels: int, *,
                    side: str = "left"):
    """Single quadrature pass at exactly the given number of panels, no
    refinement.

    Used by linearity and panel-scaling tests where the node set must match
    across calls.
    """
    if panels < 1:
        raise ValueError("need at least one panel")
    value, _ = _level_value(k, f, contour, side, panels, None)
    return QuatMatrix(value), {"panels": panels}
