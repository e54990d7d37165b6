"""The four kernel calculi for decaying functions and their H-infinity forms.

For an operator of type (alpha, beta, omega) and a function f certified in
the (3 alpha, 3 beta) decay class on a sector strictly larger than omega,
the calculi are the contour integrals

    S :  (1/2pi)  int S_L^-1(s,T) ds_J f(s)
    Q :  (-1/pi)  int Q_{c,s}^-1(T) ds_J f(s)
    P2:  (1/2pi)  int P_2^L(s,T) ds_J f(s)
    F :  (1/2pi)  int F_L(s,T) ds_J f(s)

over the boundary of a sector between the spectral angle and the function
sector.  Polynomially growing functions are handled by multiplying in a
rational regularizer e(s) = s^n/(1+s)^(2n), evaluating the decaying-class
calculi, and inverting the prescribed prefactor built from e(T) and
e(conj T).
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, replace

import numpy as np

from . import operators
from .contour import (OperatorKernel, contour_for, integrate,
                      require_moment_form)
from .errors import NotInjective, NotIntrinsic
from .operators import (KERNEL_KINDS, CommutingOperator, QuatMatrix,
                        TypeProfile, adjoint, assemble, bq_conj, conj_op,
                        estimate_type_profile, stack_norm)
from .quaternion import E1, Quaternion, to_slice
from .slicefun import Memo, Power, Product, Regularizer, choose_regularizer

CALC_KINDS = ("S", "Q", "P2", "F")

# prefactor of the defining integral, per calculus kind
_PREFACTOR = {"S": 1.0 / (2.0 * math.pi), "Q": -1.0 / math.pi,
              "P2": 1.0 / (2.0 * math.pi), "F": 1.0 / (2.0 * math.pi)}

_LEFT_KERNEL = {"S": "S_L", "Q": "Qc", "P2": "P2_L", "F": "F_L"}
_RIGHT_KERNEL = {"S": "S_R", "Q": "Qc", "P2": "P2_R", "F": "F_R"}

# norm bounds of the kernels outside the phi-sector, as multiples of the
# sampled S-resolvent constant: (multiplier(C), exponent factor); the kernel
# norm is bounded by mult * |s|**(-factor*alpha) below radius one and
# mult * |s|**(-factor*beta) above.
_KERNEL_ENVELOPE = {
    "S_L": (lambda c: c, 1.0),
    "S_R": (lambda c: 2.0 * c, 1.0),
    "Qc": (lambda c: 10.0 * c * c, 2.0),
    "P2_L": (lambda c: 10.0 * c * c, 2.0),
    "P2_R": (lambda c: 16.0 * c * c, 2.0),
    "F_L": (lambda c: 40.0 * c ** 3, 3.0),
    "F_R": (lambda c: 80.0 * c ** 3, 3.0),
}

INJECTIVITY_FACTOR = 1e-10

# H-infinity sub-integrals run at this tolerance or tighter, because the
# prefactor inversion amplifies their error
_HINF_TOL_CAP = 1e-12


def kernel_bound(kernel_kind: str, profile: TypeProfile, phi: float):
    """(C_K, a_K, b_K) tail envelope of a kernel outside the phi-sector."""
    mult, factor = _KERNEL_ENVELOPE[kernel_kind]
    c = profile.constant_at(phi)
    return mult(c), factor * profile.alpha, factor * profile.beta


@dataclass
class CalcDiagnostics:
    tol_achieved: float
    panels: int
    t_min: float
    t_max: float
    phi: float
    theta: float
    worst_cond: float  # largest (||Q||_F ||Q^-1||_F)^2 of the quadrature
    kernel_path: str  # "eigenbasis" or "dense" (see OperatorKernel.path)
    regularizer_n: int | None = None
    range_residual: float | None = None


@dataclass
class CalculusResult:
    value: QuatMatrix
    kind: str
    regime: str
    diagnostics: CalcDiagnostics


def _check_profile(profile: TypeProfile) -> None:
    if profile.alpha < 1.0 / 3.0 - 1e-12:
        raise ValueError("profile exponent alpha must be at least 1/3")
    if not 0.0 < profile.beta <= 1.0 / 3.0 + 1e-12:
        raise ValueError("profile exponent beta must lie in (0, 1/3]")


def default_theta(omega: float) -> float:
    """Function-sector angle used when none is given: three quarters of the
    way from the spectral angle omega to pi."""
    return omega + 0.75 * (math.pi - omega)


def _angles(omega: float, theta, phi):
    if theta is None:
        theta = default_theta(omega)
    if phi is None:
        phi = 0.5 * (omega + theta)
    if not omega < phi < theta < math.pi:
        raise ValueError(f"need omega < phi < theta < pi, got omega="
                         f"{omega!r}, phi={phi!r}, theta={theta!r}")
    return theta, phi


def _require_injective(comps: np.ndarray, label: str) -> None:
    sv = np.linalg.svd(adjoint(comps), compute_uv=False)
    if sv[-1] <= INJECTIVITY_FACTOR * max(sv[0], 1e-300):
        raise NotInjective(f"{label} is numerically non-injective")


def _solve_prefactor(pref: QuatMatrix, bracket: QuatMatrix):
    cond = np.linalg.cond(adjoint(pref.components))
    if not np.isfinite(cond) or cond > 1e12:
        raise NotInjective("regularized prefactor is numerically non-injective")
    inv = pref.inverse()
    x = inv @ bracket
    resid = (pref @ x - bracket).fro() / max(1.0, bracket.fro())
    return x, resid


class Evaluator:
    """Calculus values of one operator, each computed at most once.

    Values are memoized (see Memo) on (kind, repr(f), options) and depend
    on nothing else, so one evaluator may serve many threads; when two
    threads compute one value, the first stored is kept.  hinf assembles
    its values from calc, so e(T), (e*f)(T) and their D, Dbar and Delta
    forms serve every kind.  conj=True is the one conjugation rule: the
    entrywise conjugate of the value at T for intrinsic f, otherwise the
    value on conj(T), whose type profile is estimated once.  No value is
    cached between evaluators; certificates are, by the same rule.
    """

    def __init__(self, t: CommutingOperator, profile: TypeProfile, *,
                 theta: float | None = None, phi: float | None = None,
                 unit: Quaternion = E1):
        _check_profile(profile)
        self.theta, self.phi = _angles(profile.omega, theta, phi)
        self.t = t
        self.profile = profile
        self.unit = unit
        self._memo = Memo()
        self._bar: Evaluator | None = None
        self._lock = threading.Lock()  # guards _bar

    def _on_conj(self, f, evaluate) -> CalculusResult:
        if f.intrinsic:
            res = evaluate(self)
            return replace(res, value=res.value.conj())
        with self._lock:
            if self._bar is None:
                t_bar = conj_op(self.t)
                profile_bar = estimate_type_profile(
                    t_bar, self.profile.omega, sorted(self.profile.c_phi),
                    alpha=self.profile.alpha, beta=self.profile.beta)
                self._bar = Evaluator(t_bar, profile_bar, theta=self.theta,
                                      phi=self.phi, unit=self.unit)
        return evaluate(self._bar)  # set once, never replaced

    def calc(self, kind: str, f, *, tol: float = 1e-9, side: str = "left",
             conj: bool = False) -> CalculusResult:
        """Decaying-regime functional calculus of f (at conj(T) if conj).

        side = "left" uses the left kernel with f on the right of ds_J; the
        "right" form (intrinsic f only) integrates f ds_J K_R instead.
        """
        if kind not in CALC_KINDS:
            raise ValueError(f"unknown calculus kind {kind!r}")
        kernel_kind = (_RIGHT_KERNEL if side == "right" else _LEFT_KERNEL)[kind]
        # refused before conj(T), a certificate or a contour is built
        require_moment_form(kernel_kind, f, side)
        if conj:
            return self._on_conj(
                f, lambda ev: ev.calc(kind, f, tol=tol, side=side))
        return self._memo.get(
            ("calc", kind, repr(f), tol, side), f,
            lambda: self._calc(kind, kernel_kind, f, tol, side))

    def _calc(self, kind, kernel_kind, f, tol, side) -> CalculusResult:
        profile = self.profile
        cert = f.certify_decay(3.0 * profile.alpha, 3.0 * profile.beta,
                               self.theta)
        bound = kernel_bound(kernel_kind, profile, self.phi)
        contour = contour_for(cert, bound, self.phi, self.unit, tol=tol)
        kernel = OperatorKernel(kernel_kind, self.t)
        raw, info = integrate(kernel, f, contour, side=side)
        value = _PREFACTOR[kind] * raw
        diag = CalcDiagnostics(tol_achieved=info["tol_achieved"],
                               panels=info["panels"], t_min=contour.t_min,
                               t_max=contour.t_max, phi=self.phi,
                               theta=self.theta,
                               worst_cond=info["worst_cond"],
                               kernel_path=kernel.path)
        return CalculusResult(value, kind, "decaying", diag)

    def hinf(self, kind: str, f, *, tol: float = 1e-12,
             regularizer_power: int | None = None,
             conj: bool = False) -> CalculusResult:
        """H-infinity calculus of a polynomially growing f (at conj(T) if conj).

        The value is assembled from decaying-regime sub-calculi of e and
        e*f, where e is the rational regularizer chosen from the growth
        certificate of f (or of the given power), and the prefactors e(T),
        e(T) e(conj T), e(T)^2 e(conj T) are inverted through the complex
        adjoint.  Requires T and conj(T) injective.

        Inverting the prefactor amplifies quadrature error by up to the
        norm of e(T)^-1, so tol is capped at 1e-12 and the sub-integrals
        tighten it adaptively once that norm is known (down to the roundoff
        floor of the quadrature).
        """
        if kind not in CALC_KINDS:
            raise ValueError(f"unknown calculus kind {kind!r}")
        tol = min(tol, _HINF_TOL_CAP)  # before the memo key: one value per cap
        if conj:
            return self._on_conj(f, lambda ev: ev.hinf(
                kind, f, tol=tol, regularizer_power=regularizer_power))
        return self._memo.get(
            ("hinf", kind, repr(f), tol, regularizer_power), f,
            lambda: self._hinf(kind, f, tol, regularizer_power))

    def _hinf(self, kind, f, tol, regularizer_power) -> CalculusResult:
        _require_injective(self.t.components, "T")
        _require_injective(bq_conj(self.t.components), "conj(T)")
        if regularizer_power is None:
            e = choose_regularizer(f, self.profile.alpha, self.profile.beta,
                                   self.theta)
        else:
            e = Regularizer(regularizer_power)
        ef = Product(e, f)
        conds, paths = [], set()

        def sub(kind_, g, conj=False):  # at the current tol
            res = self.calc(kind_, g, tol=tol, conj=conj)
            conds.append(res.diagnostics.worst_cond)
            paths.add(res.diagnostics.kernel_path)
            return res.value

        e_t = sub("S", e)
        try:
            amplification = e_t.inverse().norm()
        except np.linalg.LinAlgError as exc:
            raise NotInjective("e(T) is numerically singular") from exc
        if not math.isfinite(amplification):
            raise NotInjective("e(T) is numerically singular")
        tol_eff = max(min(tol, 1e-8 / max(amplification, 1.0)), 2e-13)
        if tol_eff < tol:
            tol = tol_eff
            e_t = sub("S", e)
        e_tbar = e_t.conj()  # e is intrinsic
        ef_t = sub("S", ef)

        if kind == "S":
            pref, bracket = e_t, ef_t
        elif kind == "Q":
            de_t = sub("Q", e)
            def_t = sub("Q", ef)
            pref = e_t @ e_tbar
            bracket = e_t @ def_t - de_t @ ef_t
        elif kind == "P2":
            de_t = sub("Q", e)
            dbe_t = sub("P2", e)
            dbef_t = sub("P2", ef)
            ef_tbar = sub("S", ef, conj=True)
            pref = e_t @ e_t @ e_tbar
            bracket = (e_t @ e_tbar @ dbef_t - e_tbar @ dbe_t @ ef_t
                       + e_t @ de_t @ ef_tbar - e_tbar @ de_t @ ef_t)
        else:  # F
            de_t = sub("Q", e)
            le_t = sub("F", e)
            lef_t = sub("F", ef)
            def_t = sub("Q", ef)
            pref = e_t @ e_t @ e_tbar
            bracket = (e_t @ e_tbar @ lef_t - e_tbar @ le_t @ ef_t
                       + e_t @ de_t @ def_t - de_t @ de_t @ ef_t)

        value, range_resid = _solve_prefactor(pref, bracket)
        diag = CalcDiagnostics(tol_achieved=tol, panels=0, t_min=0.0,
                               t_max=0.0, phi=self.phi, theta=self.theta,
                               worst_cond=max(conds),
                               kernel_path="dense" if "dense" in paths
                               else "eigenbasis", regularizer_n=e.n,
                               range_residual=range_resid)
        return CalculusResult(value, kind, "h_infinity", diag)


def calc(kind: str, t: CommutingOperator, f, profile: TypeProfile, *,
         theta: float | None = None, phi: float | None = None,
         unit: Quaternion = E1, tol: float = 1e-9,
         side: str = "left") -> CalculusResult:
    """Decaying-regime functional calculus of f at t (see Evaluator.calc)."""
    return Evaluator(t, profile, theta=theta, phi=phi, unit=unit).calc(
        kind, f, tol=tol, side=side)


def hinf(kind: str, t: CommutingOperator, f, profile: TypeProfile, *,
         theta: float | None = None, phi: float | None = None,
         unit: Quaternion = E1, tol: float = 1e-12,
         regularizer_power: int | None = None) -> CalculusResult:
    """H-infinity calculus of a polynomially growing f (see Evaluator.hinf)."""
    return Evaluator(t, profile, theta=theta, phi=phi, unit=unit).hinf(
        kind, f, tol=tol, regularizer_power=regularizer_power)


# ---------------------------------------------------------------------------
# Algebraic resolvent identities (no quadrature).
# ---------------------------------------------------------------------------

def resolvent_identity_residuals(t: CommutingOperator, s: Quaternion,
                                 p: Quaternion) -> dict[str, float]:
    """Residuals of the four two-point kernel identities at (s, p), s not in [p].

    Each residual is the operator 2-norm of LHS - RHS divided by
    max(1, ||RHS||).  All ten kernels come from one two-point kernel_batch
    call, and the ten norms from one batched SVD.
    """
    w = p * p - 2.0 * s.re * p + Quaternion(s.norm_sq())
    if w.norm() < 1e-12:
        raise ValueError("s and p lie on a common sphere; identities degenerate")
    w_inv = w.inverse()
    sbar = s.conj()
    points = (to_slice(s), to_slice(p))
    # looked up on its module, where qbench's layer trace wraps it
    pairs = operators.kernel_batch(KERNEL_KINDS, t, [q.x for q in points],
                                   [q.y for q in points], None)

    def k(kind: str, at: int, conj: bool = False) -> QuatMatrix:
        # kind at s (at 0) or p (at 1) with its own unit, of conj(T) if conj
        a, b = (bq_conj(c[at]) if conj else c[at] for c in pairs[kind])
        return QuatMatrix(assemble(kind, a, b, points[at].j))

    def lhs(k_s: QuatMatrix, k_p: QuatMatrix) -> QuatMatrix:
        d = k_s - k_p
        return (d.scalar_mul(p, "right")
                - d.scalar_mul(sbar, "left")).scalar_mul(w_inv, "right")

    sr_s, q_s, p2r_s, fr_s = map(k, ("S_R", "Qc", "P2_R", "F_R"), [0] * 4)
    sl_p, q_p, p2l_p, fl_p = map(k, ("S_L", "Qc", "P2_L", "F_L"), [1] * 4)
    sl_p_bar, sr_s_bar = k("S_L", 1, conj=True), k("S_R", 0, conj=True)
    l_q = lhs(q_s, q_p)
    checks = [  # (LHS, RHS) of S, Q (two forms), P2 and F
        (lhs(sr_s, sl_p), sr_s @ sl_p),
        (l_q, q_s @ sl_p + sr_s_bar @ q_p),
        (l_q, q_s @ sl_p_bar + sr_s @ q_p),
        (lhs(p2r_s, p2l_p),
         p2r_s @ sl_p + sr_s @ p2l_p - 2.0 * (q_s @ (sl_p - sl_p_bar))),
        (lhs(fr_s, fl_p), fr_s @ sl_p + sr_s @ fl_p - 4.0 * (q_s @ q_p)),
    ]
    rel = _rel_stack(*(np.stack([m.components for m in side])
                       for side in zip(*checks))).tolist()
    return {f"resolvent_identity_{tag}": r for tag, r in
            zip(("S", "Q", "P2", "F"), (rel[0], max(rel[1:3]), *rel[3:]))}


# ---------------------------------------------------------------------------
# Theorem-shaped residual helpers shared by the suites and the test suite.
# ---------------------------------------------------------------------------

def _rel_stack(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """_rel over component stacks a, b (..., 4, n, n), from one batched SVD."""
    norms = stack_norm(np.stack([a - b, b]))
    return norms[0] / np.maximum(1.0, norms[1])


def _rel(a: QuatMatrix, b: QuatMatrix) -> float:
    """Residual ||a - b|| / max(1, ||b||) of a against the reference b."""
    return float(_rel_stack(a.components, b.components))


def product_rule_residuals(ev: Evaluator, g, f, *, regime: str,
                           tol: float) -> dict[str, float]:
    """Residuals of the four product rules for intrinsic g and left-slice f.

    Values come from ev.calc (regime "decaying") or ev.hinf ("h_infinity")
    at tolerance tol, and whole matrices are compared.
    """
    if not g.intrinsic:
        raise NotIntrinsic("product rules require an intrinsic left factor")
    gf = Product(g, f)

    if regime not in ("decaying", "h_infinity"):
        raise ValueError("regime must be 'decaying' or 'h_infinity'")
    value_of = ev.calc if regime == "decaying" else ev.hinf

    def evaluate(kind, h, conj=False):
        return value_of(kind, h, tol=tol, conj=conj)

    g_t, f_t = evaluate("S", g).value, evaluate("S", f).value
    g_tbar = evaluate("S", g, conj=True).value
    f_tbar = evaluate("S", f, conj=True).value
    dg_t, df_t = evaluate("Q", g).value, evaluate("Q", f).value
    dbg_t, dbf_t = evaluate("P2", g).value, evaluate("P2", f).value
    lg_t, lf_t = evaluate("F", g).value, evaluate("F", f).value
    dgf_t = evaluate("Q", gf).value

    out = {
        "product_rule_S": _rel(evaluate("S", gf).value, g_t @ f_t),
        "product_rule_Q": max(_rel(dgf_t, dg_t @ f_t + g_tbar @ df_t),
                              _rel(dgf_t, dg_t @ f_tbar + g_t @ df_t)),
        "product_rule_P2": _rel(
            evaluate("P2", gf).value,
            dbg_t @ f_t + g_t @ dbf_t + dg_t @ (f_t - f_tbar)),
        "product_rule_F": _rel(
            evaluate("F", gf).value, lg_t @ f_t + g_t @ lf_t - dg_t @ df_t),
    }
    return out


def power_recurrence_residuals(ev: Evaluator, f, n_max: int, *,
                               tol: float) -> dict[str, float]:
    """Residuals of the four recurrences linking s^n f to s^(n-1) f."""
    # membership that keeps s^n f inside the calculus class up to n_max
    f.certify_decay(3.0 * ev.profile.alpha, 3.0 * ev.profile.beta - n_max,
                    ev.theta)

    tq = ev.t.as_qmatrix()
    tbq = tq.conj()

    def evaluate(kind, h, conj=False):
        return ev.calc(kind, h, tol=tol, conj=conj)

    f_t_base = evaluate("S", f).value
    f_tbar_base = evaluate("S", f, conj=True).value
    out = {}
    for n in range(1, n_max + 1):
        lo = Product(Power(n - 1), f)
        hi = Product(Power(n), f)
        tn_f = tq.matpow(n - 1) @ f_t_base
        tbn_f = tbq.matpow(n - 1) @ f_tbar_base

        out[f"recurrence_S_n{n}"] = _rel(evaluate("S", hi).value,
                                         tq @ evaluate("S", lo).value)
        d_lo = evaluate("Q", lo).value
        d_hi = evaluate("Q", hi).value
        ra = tq @ d_lo - 2.0 * tbn_f
        rb = tbq @ d_lo - 2.0 * tn_f
        out[f"recurrence_Q_n{n}"] = max(_rel(d_hi, ra), _rel(d_hi, rb),
                                        _rel(ra, rb))
        out[f"recurrence_P2_n{n}"] = _rel(
            evaluate("P2", hi).value,
            tq @ evaluate("P2", lo).value + 2.0 * tbn_f + 2.0 * tn_f)
        out[f"recurrence_F_n{n}"] = _rel(
            evaluate("F", hi).value, tq @ evaluate("F", lo).value + 2.0 * d_lo)
    return out


def derivative_combination_residual(ev: Evaluator, f, *, tol: float) -> float:
    """Residual of Dbar f(T) = 2 f'(T) - D f(T)."""
    fprime = f.slice_derivative()
    lhs = ev.calc("P2", f, tol=tol).value
    rhs = (2.0 * ev.calc("S", fprime, tol=tol).value
           - ev.calc("Q", f, tol=tol).value)
    return _rel(lhs, rhs)


def power_reference(kind: str, t: CommutingOperator, n: int) -> QuatMatrix:
    """Closed-form value the H-infinity calculi must give on s**n.

    S: T^n.  Q: -2 sum_{k=0}^{n-1} conj(T)^(n-1-k) T^k.  P2: 2n T^(n-1) plus
    the same sum with factor +2.  F: -4 sum_{k=1}^{n-1} k conj(T)^(n-1-k)
    T^(k-1).
    """
    tq = t.as_qmatrix()
    tbq = tq.conj()
    if kind == "S":
        return tq.matpow(n)
    if kind == "Q" or kind == "P2":
        acc = QuatMatrix.zeros(t.n)
        for k in range(n):
            acc = acc + tbq.matpow(n - 1 - k) @ tq.matpow(k)
        if kind == "Q":
            return -2.0 * acc
        if n == 0:
            return 2.0 * acc
        return 2.0 * float(n) * tq.matpow(n - 1) + 2.0 * acc
    if kind == "F":
        acc = QuatMatrix.zeros(t.n)
        for k in range(1, n):
            acc = acc + float(k) * (tbq.matpow(n - 1 - k) @ tq.matpow(k - 1))
        return -4.0 * acc
    raise ValueError(f"unknown calculus kind {kind!r}")
