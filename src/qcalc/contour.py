"""Quadrature along sector boundaries for the kernel calculi.

The path is the boundary of a sector of half-opening angle phi inside one
complex slice: gamma(t) = -t e^{J phi} for t < 0 and t e^{-J phi} for
t > 0, so the integral of K(s) ds_J f(s) reduces to

    int_{tmin}^{tmax} [ K(r e^{J phi}) (e^{J phi} J) f(r e^{J phi})
                      - K(r e^{-J phi}) (e^{-J phi} J) f(r e^{-J phi}) ] dr.

The substitution r = e^u equidistributes the decay at both ends; each panel
carries a fixed Gauss-Legendre rule and the panel set is bisected until two
consecutive refinements agree in the whole-matrix Frobenius norm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NoDecayMetadata, ToleranceNotMet
from .operators import (QuatMatrix, _AB_FAMILY, _chain, _z_powers, bq_dot,
                        bq_scalar, kernel_batch, stack_fro)
from .quaternion import Quaternion, SlicePoint, exp_j, qarr, qarr_mul

GAUSS_ORDER = 16
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(GAUSS_ORDER)
_MAX_REFINEMENTS = 9

# Truncation radii are clamped to keep intermediate powers of |s| inside
# float range; contour_for refuses certificates that would need more.
_RADIUS_CLAMP = 1e60


@dataclass(frozen=True)
class SectorContour:
    """Integration path along the boundary rays of a sector.

    phi: ray angle, strictly between the spectral angle and the function
    sector; unit: the imaginary unit J spanning the slice; t_min/t_max:
    truncation radii with 0 < t_min < 1 < t_max; tol: Frobenius target
    for refinement.
    """

    phi: float
    unit: Quaternion
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
    """One kernel kind of a fixed operator.  The quadrature integrates it in
    moment form (see _level_value); a call evaluates it at one point."""

    def __init__(self, kind: str, t):
        self.kind = kind
        self.operator = t
        self.n = t.n

    @property
    def path(self) -> str:
        """"eigenbasis" when the operator has one (see _moment_value), else
        "dense"."""
        return "dense" if self.operator.eigenbasis is None else "eigenbasis"

    def __call__(self, p: SlicePoint) -> QuatMatrix:
        return QuatMatrix(kernel_batch(self.kind, self.operator,
                                       np.array([p.x]), np.array([p.y]), p.j)[0])


def _point_kernel_rays(k, x, y, unit, n):
    plus = np.empty((len(x), 4, n, n))
    minus = np.empty_like(plus)
    for i, (xi, yi) in enumerate(zip(x, y)):
        plus[i] = k(SlicePoint(float(xi), float(yi), unit)).components
        minus[i] = k(SlicePoint(float(xi), float(yi), -1.0 * unit)).components
    return plus, minus


def _moment_value(k: OperatorKernel, contour: SectorContour, t, w, x, y,
                  s_plus, s_minus, side: str):
    """Sum over the nodes of K(x +- J y) s+- (side "left") or s+- K (side
    "right") with K = sum_(d, i) r^d C+-_(d, i) g_i for the real and
    imaginary parts g_0, g_1 of the per-node M^power (see _chain): they
    commute with the coefficients C, so the nodes enter only through the
    real moments sum_m w_m r_m^d s_m g_m, one GEMM against the stacked
    parts.  With an eigenbasis (U, d0, d2) of the operator g is the
    diagonal of U^T g U, so the GEMM runs over n columns per part and each
    moment is U diag U^T; otherwise over the dense n x n parts.  Returns
    the sum and the worst conditioning of the nodes' Q_{c,z}(T)."""
    fam = _AB_FAMILY[k.kind]
    num = k.operator.kernel_numerators[fam]
    basis = k.operator.eigenbasis
    g, scale, cond = _chain(k.operator, x, y, upto=fam,
                            diagonal=basis is not None)
    pair = np.stack([g.real, g.imag], axis=1)
    m, n = pair.shape[0], k.n
    coeffs = num.ray_coefficients(k.kind, contour.phi, contour.unit)
    rho = _z_powers(t, scale, coeffs.shape[1] - 1, num.power)
    scalars = np.stack([s_plus, -s_minus], axis=1)  # (m, 2, 4)
    weights = (w[:, None, None, None] * rho[:, None, :, None]
               * scalars[:, :, None, :])  # (m, 2, degree+1, 4)
    moments = weights.reshape(m, -1).T @ pair.reshape(m, -1)
    moments = moments.reshape((2, -1, 4, 2) + pair.shape[2:]).swapaxes(2, 3)
    if basis is not None:
        u = basis[0]
        moments = (u * moments[..., None, :]) @ u.T
    coeffs = coeffs.reshape(-1, 4, n, n)
    moments = moments.reshape(-1, 4, n, n)
    value = (bq_dot(coeffs, moments) if side == "left"
             else bq_dot(moments, coeffs))
    return value, float(cond.max())


def _level_value(k, f, contour: SectorContour, side: str, panels: int,
                 matrix_dim: int | None):
    """One quadrature level: (value, worst conditioning of Q_{c,z}(T)),
    the latter None for a point-callable kernel."""
    u0, u1 = math.log(contour.t_min), math.log(contour.t_max)
    j = contour.unit
    c_plus = qarr(exp_j(j, contour.phi) * j)
    c_minus = qarr(exp_j(j, -contour.phi) * j)

    edges = np.linspace(u0, u1, panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    u = (mid[:, None] + half[:, None] * _GL_NODES[None, :]).ravel()
    w = (half[:, None] * _GL_WEIGHTS[None, :]).ravel()
    t = np.exp(u)
    w = w * t  # jacobian of r = e^u
    x = t * math.cos(contour.phi)
    y = t * math.sin(contour.phi)

    stem = f.complex_stem(x + 1j * y)
    jb = qarr_mul(qarr(j), stem.imag)
    f_plus, f_minus = stem.real + jb, stem.real - jb
    if side == "left":
        s_plus, s_minus = qarr_mul(c_plus, f_plus), qarr_mul(c_minus, f_minus)
        scalar_side = "right"
    elif side == "right":
        s_plus, s_minus = qarr_mul(f_plus, c_plus), qarr_mul(f_minus, c_minus)
        scalar_side = "left"
    else:
        raise ValueError("side must be 'left' or 'right'")

    if isinstance(k, OperatorKernel):
        return _moment_value(k, contour, t, w, x, y, s_plus, s_minus, side)
    if matrix_dim is None:
        matrix_dim = k(SlicePoint(float(x[0]), float(y[0]), j)).n
    k_plus, k_minus = _point_kernel_rays(k, x, y, j, matrix_dim)
    vals = (bq_scalar(s_plus, k_plus, scalar_side)
            - bq_scalar(s_minus, k_minus, scalar_side))
    return np.einsum("m,mcij->cij", w, vals), None


def integrate(k, f, contour: SectorContour, *, side: str = "left"):
    """Adaptively evaluate the sector-boundary integral of K ds_J f.

    k is either an OperatorKernel (moment form) or any callable
    SlicePoint -> QuatMatrix.  side selects the sandwich order: "left" is
    K ds_J f, "right" is f ds_J K.  The first level has one panel per two
    units of log radius (at least 8); each refinement doubles the panels.
    Returns (QuatMatrix, diagnostics); the diagnostics' worst_cond is the
    largest (||Q||_F ||Q^-1||_F)^2 met on the accepted level (None for a
    point-callable kernel).
    """
    dim = getattr(k, "n", None)
    span = math.log(contour.t_max) - math.log(contour.t_min)
    panels = max(8, math.ceil(span / 2.0))
    value, _ = _level_value(k, f, contour, side, panels, dim)
    diff = math.inf
    for _ in range(_MAX_REFINEMENTS):
        panels *= 2
        refined, cond = _level_value(k, f, contour, side, panels, dim)
        diff = float(stack_fro(refined - value))
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
    value, _ = _level_value(k, f, contour, side, panels, getattr(k, "n", None))
    return QuatMatrix(value), {"panels": panels}
