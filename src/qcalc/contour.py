"""Quadrature along sector boundaries for the kernel calculi.

The path is the boundary of a sector of half-opening angle phi inside one
complex slice: gamma(t) = -t e^{J phi} for t < 0 and t e^{-J phi} for
t > 0, so the integral of K(s) ds_J f(s) reduces to

    int_{tmin}^{tmax} [ K(r e^{J phi}) s+ - K(r e^{-J phi}) s- ] dr,
    s+- = e^{+-J phi} J f(r e^{+-J phi}).

After r = e^u the integrand is analytic in u on the strip |Im u| < d with
d = min(phi - omega, theta - phi), where omega is the spectral angle and
theta the function sector, and decays like e^{-delta |u|} at both ends.
With u = sinh v the decay is double-exponential in v, so the trapezoidal
rule on the lattice v = j h, weighted by du = cosh v dv, spends few nodes
on the tails (Takahasi and Mori, Publ. RIMS 9, 1974) and converges
geometrically in 1/h (Trefethen and Weideman, SIAM Review 56, 2014).  It
is anchored at v = 0 and covers [asinh log t_min, asinh log t_max]
(_index_range).  The first step h0 = min(1, 2 pi d / ln(10 / tol)) comes
from the strip (contour_for), whose image has half-width asin d at v = 0,
and each refinement halves h, which keeps every old node and evaluates
only the new odd ones: T_{k+1} = T_k / 2 + h_{k+1} sum_new.  Two
consecutive levels must agree in the whole-matrix Frobenius norm; a
halving whose difference does not shrink has stalled at roundoff and ends
the refinement at once.  When T has an eigenbasis U, every level is a
diagonal in U (see _moment_value): the levels are summed and compared as
the n quaternions of that diagonal, whose Frobenius norm is the matrix's,
and the accepted sum is returned so (operators.SpectralValue).

Integrals of one operator at one angle and one first step share one
lattice (integrate_many): a level evaluates the union of their lattices,
which all hold v = 0, with one inversion of Q_{c,z}(T) per point and one
stem per function, and each integral reads its own slice.  Its radii, stop
rule, stall rule and cap stay its own, so each value is what it would be
alone; integrate is the batch of one and the one entry for a single
integral.  A fixed pass at step h is integrate from h0 = 2 h at
tol = inf: the one-pass sum at h, up to the order of summation.

An OperatorKernel is integrated without J.  Its family G = A + i B =
sum_d C_d z^d M^p (see operators.KernelNumerator) is the left kernel
A + B J at z and A - B J at zbar.  For f = alpha + J beta with stem
W = alpha + i beta, e^{+-J phi} = cos phi +- J sin phi gives

    K(z) s+ - K(zbar) s- = A (s+ - s-) + B J (s+ + s-)
      = -2 A (sin phi alpha + cos phi beta) - 2 B (cos phi alpha
        - sin phi beta) = Re(G 2i e^{i phi} W),

so with dz = e^{i phi} dr = z cosh v dv a level is sum_d C_d Re(2i sum_m
z_m^d M_m^p W_m dz_m), free of J.  f ds_J K_R with K_R = A + J B mirrors
this for intrinsic f, whose real alpha, beta commute with J.  The side
thus picks the family's kernel; a non-intrinsic f on the right has no
such form, and require_moment_form refuses it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NoDecayMetadata, NotIntrinsic, ToleranceNotMet
from .operators import (KERNEL_FAMILIES, QuatMatrix, SpectralValue, _chain,
                        _z_powers, bq_conj, bq_dot)
from .operators import bq_scalar  # unused; qbench/layertrace.py traces it
from .quaternion import Quaternion

# qbench/layertrace.py counts a level's nodes as _level_value's fifth
# argument times GAUSS_ORDER; the trapezoidal lattice has one node per point
GAUSS_ORDER = 1
_MAX_REFINEMENTS = 9

# Truncation radii are clamped to keep intermediate powers of |s| inside
# float range; contour_for refuses certificates that would need more.
_RADIUS_CLAMP = 1e60
# the share of the target that the two truncated tails together may take:
# the refinement's level difference never sees them, so they are kept far
# below what it accepts
_TAIL_SHARE = 1e-4


@dataclass(frozen=True)
class SectorContour:
    """Integration path along the boundary rays of a sector.

    phi: ray angle, strictly between the spectral angle and the function
    sector; unit: the imaginary unit J spanning the slice, which no value
    reads (the moment form is J-free); t_min/t_max: truncation radii with
    0 < t_min < 1 < t_max; h0: first lattice step in v, where
    log r = sinh v (see contour_for); tol: Frobenius target for refinement.
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
        if not 0.0 < self.h0 < math.inf:
            raise ValueError(f"lattice step must be positive and finite, "
                             f"got h0={self.h0!r}")


def _require_positive_tol(tol: float) -> None:
    # NaN too; tol = inf accepts the first halving, it does not skip the
    # refinement
    if not tol > 0.0:
        raise ValueError(f"tolerance must be positive, got tol={tol!r}")


def _one_sided_radius(delta: float, c: float, tol: float, side: str) -> float:
    """Truncation radius t_min (side "min") with 2 C t_min**delta / delta =
    _TAIL_SHARE tol / 2, the bound on both rays' integrand C t**(-1+delta)
    over (0, t_min), or t_max (side "max") with the mirrored bound for
    C t**(-1-delta) over (t_max, inf), so the two ends together stay below
    _TAIL_SHARE tol.  tol = inf certifies nothing and raises ValueError.
    A constant so large (or NaN) that the bound underflows raises
    ToleranceNotMet; a radius past the float range is inf."""
    if delta <= 0.0:
        raise ValueError("decay rate delta must be positive")
    _require_positive_tol(tol)
    if tol == math.inf:
        raise ValueError("a certified truncation radius needs a finite "
                         "tolerance, got tol=inf")
    base = delta * _TAIL_SHARE * tol / (4.0 * max(c, 1e-300))
    if not base > 0.0:
        raise ToleranceNotMet(
            f"certificate constant {c:.3g} leaves no truncation radius in "
            f"floating point")
    try:
        return base ** (1.0 / delta if side == "min" else -1.0 / delta)
    except OverflowError:
        return math.inf


def _first_step(strip: float, tol: float) -> float:
    """min(1, 2 pi d / ln(10 / tol)) in v for the strip |Im u| < d, whose
    image near v = 0 is wider: the error falls like exp(-2 pi d / h), so at
    h0 it is about tol / 10 and one halving checks it.  1 when tol >= 10."""
    if not tol < 10.0:
        return 1.0
    return min(1.0, 2.0 * math.pi * strip / math.log(10.0 / tol))


def contour_for(cert, kernel_bound, phi: float, omega: float,
                unit: Quaternion, tol: float = 1e-9) -> SectorContour:
    """Build a contour whose two truncated tails together are certified
    below tol * _TAIL_SHARE (tol / 1e4); ValueError when tol is not
    positive and finite, ToleranceNotMet when the certified radii cannot be
    represented.

    cert is the integrand's DecayCertificate, certified on the sector of
    angle cert.theta.  kernel_bound is (C_K, a_K, b_K): the kernel norm is
    bounded by C_K |s|**-a_K below radius one and C_K |s|**-b_K above.  The
    integrand then decays like t**(-1+delta0) at zero and
    t**(-1-deltainf) at infinity, delta0 = cert.delta0 + cert.a - a_K and
    deltainf = cert.deltainf + b_K - cert.b, and each end's radius comes
    from its own rate (_one_sided_radius).  omega is the operator's
    spectral angle; with theta = cert.theta the integrand is analytic on
    the strip of half-width min(phi - omega, theta - phi) in log r, which
    sets the first lattice step in v (_first_step).
    """
    if not omega < phi < cert.theta:
        raise ValueError(f"need omega < phi < theta, got omega={omega!r}, "
                         f"phi={phi!r}, theta={cert.theta!r}")
    c_k, a_k, b_k = kernel_bound
    delta0 = cert.delta0 + (cert.a - a_k)
    deltainf = cert.deltainf + (b_k - cert.b)
    if delta0 <= 0.0 or deltainf <= 0.0:
        raise NoDecayMetadata(
            f"certificate (a={cert.a:g}, b={cert.b:g}, delta0="
            f"{cert.delta0:g}, deltainf={cert.deltainf:g}) cannot absorb a "
            f"kernel of orders ({a_k:g}, {b_k:g})")
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
    """One kernel family (S, Qc, P2 or F) of T, or of conj(T) if conj, in
    moment form (see _moment_value), the one kernel the quadrature takes;
    the side of the integral picks the family's left or right kernel."""

    def __init__(self, kind: str, t, conj: bool = False):
        self.kind = kind  # the family; qbench/layertrace.py keys on it
        self.operator = t
        self.conj = conj

    @property
    def path(self) -> str:
        """"eigenbasis" when the operator has one (see _moment_value), else
        "dense"."""
        return "dense" if self.operator.eigenbasis is None else "eigenbasis"


def require_moment_form(f, side: str) -> None:
    """Refuse a function and side with no J-free moment form (see the
    module docstring): ValueError for an unknown side, NotIntrinsic for a
    non-intrinsic f on the right."""
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    if side == "right" and not f.intrinsic:
        raise NotIntrinsic("the right-kernel form needs an intrinsic function")


def _moment_value(k: OperatorKernel, z, stem, g, scale, side: str):
    """sum_d C_d Re(Mom_d) (side "left") or sum_d Re(Mom_d) C_d (side
    "right") with Mom_d = sum_m 2i z_m^(d+1) W_m M_m^power, dz = z du (du's
    cosh v is in W; see the module docstring), one complex GEMM over the
    nodes z.  g and scale are _chain's at these nodes for M^power.  k.conj
    takes conj(T)'s C_d, the bq_conj of T's: its Q_{c,z} = z^2 - 2 T0 z +
    |T|^2, so its M, is T's, as T0 and |T|^2 are unchanged.  No J is read.

    With an eigenbasis (U, lambda) g holds the diagonals of U^T M^power U,
    so the 4 (degree+1) moments are diagonals too, and so is every U^T C_d
    U: the sum is returned in U, as the (n, 4) stack of its diagonal
    quaternions (see operators.SpectralValue), from one batched product
    with the family's cached multipliers (CommutingOperator.
    moment_multipliers).  Otherwise it is the (4, n, n) component stack."""
    num = k.operator.kernel_numerators[k.kind]
    zp = _z_powers(z, scale, len(num.coef) - 1, num.power)
    weights = (2j * z)[:, None, None] * zp[:, :, None] * stem[:, None, :]
    m = len(z)
    moments = (weights.reshape(m, -1).T @ g.reshape(m, -1)).real
    if k.operator.eigenbasis is not None:
        mult = k.operator.moment_multipliers[k.kind, k.conj, side]
        return (mult @ moments.T[:, :, None])[:, :, 0]
    coef = bq_conj(num.coef) if k.conj else num.coef
    moments = moments.reshape((-1, 4) + g.shape[1:])
    return (bq_dot(coef, moments) if side == "left"
            else bq_dot(moments, coef))


def _index_range(contour: SectorContour, h: float) -> tuple[int, int]:
    """The first and last index j of the lattice of step h: the nodes
    v = j h in [asinh log t_min, asinh log t_max], r = e^sinh v.  It is
    anchored at v = 0, so the lattice at h / 2 holds every node at h (its
    even j) and the new ones (its odd j)."""
    return (math.ceil(math.asinh(math.log(contour.t_min)) / h),
            math.floor(math.asinh(math.log(contour.t_max)) / h))


def _level_value(items, slices, phi: float, side: str, count: int,
                 v: np.ndarray):
    """The moment-form sums of the items (OperatorKernel, f, contour) of one
    operator, each over its slice (a, b) of the nodes z = e^{sinh v + i phi}
    with dv = 1 (the caller weights them by h), after require_moment_form.
    One _chain call serves every item, squared once when powers 1 and 2
    both occur, and one stem times cosh v serves every item of the same f.
    Returns per item (sum, worst conditioning of Q_{c,z}(T) on its slice),
    the sum as _moment_value gives it (per eigenvalue with an eigenbasis),
    or (0.0, 0.0) for a slice with no node, as narrow radii may hold no
    new node of a level; a stem not finite on its slice raises
    ToleranceNotMet.
    count = len(v) is read by position in qbench/layertrace.py only."""
    t = items[0][0].operator
    nums = t.kernel_numerators
    powers = [nums[k.kind].power for k, _, _ in items]
    diagonal = t.eigenbasis is not None
    z, w = np.exp(np.sinh(v) + 1j * phi), np.cosh(v)[:, None]
    one = min(powers) == max(powers)
    g, scale, cond = _chain(t, z.real, z.imag, diagonal=diagonal,
                            upto=items[0][0].kind if one else "Qc")
    m_pow = {powers[0]: g} if one else {1: g, 2: g * g if diagonal else g @ g}
    spans = {}  # one stem per function object, over its items' slices
    for (_, f, _), (a, b) in zip(items, slices):
        a0, b0 = spans.get(f, (a, b))
        spans[f] = (min(a, a0), max(b, b0))
    with np.errstate(over="ignore", invalid="ignore"):
        for f, (a, b) in spans.items():
            spans[f] = (a, f.complex_stem(z[a:b]) * w[a:b])
    out = []
    for (k, f, contour), p, (a, b) in zip(items, powers, slices):
        if a == b:  # no new node: a zero sum, so the level halves the last
            out.append((0.0, 0.0))
            continue
        a0, stem = spans[f]
        stem = stem[a - a0:b - a0]
        if not np.isfinite(stem).all():
            raise ToleranceNotMet(
                f"{f!r} is not finite on the contour between radii "
                f"{contour.t_min:.3g} and {contour.t_max:.3g}")
        out.append((_moment_value(k, z[a:b], stem, m_pow[p][a:b], scale[a:b],
                                  side), float(cond[a:b].max())))
    return out


def integrate_many(items, *, side: str = "left") -> list:
    """Adaptively evaluate the sector-boundary integrals of K ds_J f of the
    items (k, f, contour) on one shared lattice.

    Each k is an OperatorKernel of a family (else TypeError or
    ValueError), taken in moment form, which refuses the forms that would
    depend on J (see require_moment_form).  side selects the sandwich
    order and the family's kernel: "left" is K_L ds_J f, "right" f ds_J
    K_R.  The items must share one operator (k.operator), one angle and
    one first step (contour.phi, contour.h0), else ValueError; their
    kernels, f and radii may differ.

    The first level is the whole lattice at h0; each refinement halves h
    and evaluates the new nodes only (see the module docstring), at most
    _MAX_REFINEMENTS times.  A level covers the union of the lattices of
    the items still refining, which all hold v = 0: one _chain call and
    one stem per f serve them all (see _level_value), and each item reads
    its own slice.  Each item keeps its own stop rule, stall rule and cap
    and leaves the batch once accepted.  A non-finite stem or difference,
    or a difference that does not shrink, raises ToleranceNotMet at once,
    as refining cannot mend it; the first error of any item ends the
    batch.  Returns (value, info) per item, in order: nodes is the number
    of the item's own nodes over all levels, h its accepted step, and
    worst_cond the largest (||Q||_F ||Q^-1||_F)^2 met on its accepted
    lattice.  Each equals, bit for bit, what the item gives alone.

    With an eigenbasis the levels are summed, refined and compared in it,
    per eigenvalue (see _moment_value), and the value is the accepted sum
    as an operators.SpectralValue: the Frobenius norm is orthogonally
    invariant, so the stop and stall rules read what they would on the
    matrix.  Otherwise it is a QuatMatrix; matrix() of either is its
    QuatMatrix.
    """
    items = list(items)
    for k, f, _ in items:
        if not isinstance(k, OperatorKernel):
            raise TypeError("the quadrature takes an OperatorKernel, not "
                            f"{type(k).__name__}")
        if k.kind not in KERNEL_FAMILIES:
            raise ValueError(f"unknown kernel family {k.kind!r}")
        require_moment_form(f, side)
    if not items:
        return []
    k0, _, c0 = items[0]
    if any(k.operator is not k0.operator or c.phi != c0.phi or c.h0 != c0.h0
           for k, _, c in items):
        raise ValueError("a batch of integrals shares one operator, one "
                         "contour angle and one first step")
    basis = k0.operator.eigenbasis
    n = len(items)
    value, nodes, cond = [None] * n, [0] * n, [0.0] * n
    last, out = [math.inf] * n, [None] * n
    active, h = list(range(n)), c0.h0
    for level in range(_MAX_REFINEMENTS + 1):
        if level:
            h /= 2.0
        ranges = [_index_range(items[p][2], h) for p in active]
        # the union's indices from `first` in steps of `step`: all of them
        # on the first level, the new (odd) ones after it; an item's slice
        # holds its own indices
        step = 2 if level else 1
        first = min(lo for lo, _ in ranges) | (level > 0)
        slices = [(-((first - lo) // step), (hi - first) // step + 1)
                  for lo, hi in ranges]
        v = np.arange(first, max(hi for _, hi in ranges) + 1, step) * h
        sums = _level_value([items[p] for p in active], slices, c0.phi,
                            side, len(v), v)
        kept = []
        for p, (total, new_cond), (a, b) in zip(active, sums, slices):
            nodes[p] += b - a
            cond[p] = max(cond[p], new_cond)
            if not level:
                value[p] = h * total
                kept.append(p)
                continue
            refined = 0.5 * value[p] + h * total
            step_diff = refined - value[p]
            diff = float(np.sqrt(np.sum(step_diff * step_diff)))
            value[p] = refined
            if not math.isfinite(diff):
                raise ToleranceNotMet(f"Frobenius difference {diff:.3g} is "
                                      f"not finite at h = {h:.3g}")
            contour = items[p][2]
            if diff <= contour.tol:
                out[p] = (QuatMatrix(refined) if basis is None
                          else SpectralValue(basis[0], refined),
                          {"nodes": nodes[p], "h": h, "tol_achieved": diff,
                           "t_min": contour.t_min, "t_max": contour.t_max,
                           "worst_cond": cond[p]})
                continue
            if diff >= last[p]:
                raise ToleranceNotMet(
                    f"refinement stalled at h = {h:.3g}: Frobenius "
                    f"difference {diff:.3g} did not fall below "
                    f"{last[p]:.3g} (target {contour.tol:.3g})")
            last[p] = diff
            kept.append(p)
        active = kept
        if not active:
            return out
    p = active[0]
    raise ToleranceNotMet(
        f"Frobenius difference {last[p]:.3g} above target "
        f"{items[p][2].tol:.3g} at h = {h:.3g}")


def integrate(k, f, contour: SectorContour, *, side: str = "left"):
    """The integral of K ds_J f (side "left") or f ds_J K ("right") on
    contour: integrate_many of the one item (k, f, contour), returning its
    (value, info)."""
    return integrate_many([(k, f, contour)], side=side)[0]
