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
e(conj T).  For a normal T = U diag(lambda_k) U^T every such value is
U diag(v_k) U^T, so each H-infinity formula is one quaternion identity per
eigenvalue (the spectral theorem on the S-spectrum: Alpay, Colombo and
Kimsey, J. Math. Phys. 57 (2016) 023503); with an eigenbasis T and the
values are held and assembled that way (operators.SpectralValue).
"""

from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass, replace

import numpy as np

from . import operators
from .contour import (OperatorKernel, _require_positive_tol, contour_for,
                      integrate, integrate_many, require_moment_form)
from .errors import NotInjective, NotIntrinsic
from .operators import (KERNEL_FAMILIES, CommutingOperator, QuatMatrix,
                        SpectralValue, TypeProfile, assemble, bq_conj,
                        kernel_family, stack_norm)
from .quaternion import E1, Quaternion, to_slice
from .slicefun import (Memo, Power, Product, Regularizer, StemFunction,
                       choose_regularizer)

CALC_KINDS = ("S", "Q", "P2", "F")

# prefactor of the defining integral, per calculus kind
_PREFACTOR = {"S": 1.0 / (2.0 * math.pi), "Q": -1.0 / math.pi,
              "P2": 1.0 / (2.0 * math.pi), "F": 1.0 / (2.0 * math.pi)}

# the kernel family each calculus integrates; its side picks the kernel
_FAMILY = {"S": "S", "Q": "Qc", "P2": "P2", "F": "F"}

INJECTIVITY_FACTOR = 1e-10

# H-infinity sub-integrals run at this tolerance or tighter, because the
# prefactor inversion amplifies their error, but no tighter than the
# roundoff floor of the quadrature
_HINF_TOL_CAP = 1e-12
_HINF_TOL_FLOOR = 2e-13

# the decaying-regime values each H-infinity kind is assembled from, as
# (kind, "e" or "ef", conj), e(T) and (e*f)(T) first
_HINF_VALUES = {
    "S": (("S", "e", False), ("S", "ef", False)),
    "Q": (("S", "e", False), ("S", "ef", False), ("Q", "e", False),
          ("Q", "ef", False)),
    "P2": (("S", "e", False), ("S", "ef", False), ("Q", "e", False),
           ("P2", "e", False), ("P2", "ef", False), ("S", "ef", True)),
    "F": (("S", "e", False), ("S", "ef", False), ("Q", "e", False),
          ("F", "e", False), ("F", "ef", False), ("Q", "ef", False)),
}


def kernel_bound(family: str, t: CommutingOperator, profile: TypeProfile,
                 phi: float):
    """(C, p alpha, p): the tail envelope ||K(s)|| <= C |s|**(-p alpha)
    below radius one and C |s|**(-p) above of both kernels of a family of
    t outside the phi-sector, with C the family's sampled constant (see
    TypeProfile) and p its order at infinity (KernelNumerator.order)."""
    p = t.kernel_numerators[family].order
    return profile.constant_at(phi, family), p * profile.alpha, float(p)


@dataclass
class CalcDiagnostics:
    tol_achieved: float
    nodes: int  # nodes of all levels; an H-infinity value sums its
    # sub-integrals' own lattices, more than their shared lattice evaluates
    h: float  # accepted lattice step (the finest of the sub-integrals)
    # the smallest and largest truncation radius of the contour (of the
    # sub-integrals of an H-infinity value)
    t_min: float
    t_max: float
    phi: float
    theta: float
    worst_cond: float  # largest (||Q||_F ||Q^-1||_F)^2 of the quadrature
    kernel_path: str  # "eigenbasis" or "dense" (see OperatorKernel.path)
    # the H-infinity fields, None on a decaying-regime value
    regularizer_n: int | None = None
    range_residual: float | None = None
    # ||e(T)^-1||, of e(conj T) for a value at conj(T) (_amplification)
    amplification: float | None = None
    # 2-norm condition number of the inverted prefactor, refused past 1e12
    # (_solve_prefactor), taken in its held form: max_k |p_k| / min_k |p_k|
    # of its quaternions p_k with an eigenbasis, else QuatMatrix.cond
    prefactor_cond: float | None = None


@dataclass
class CalculusResult:
    held: QuatMatrix | SpectralValue  # SpectralValue when T has an eigenbasis
    kind: str
    regime: str
    diagnostics: CalcDiagnostics

    @functools.cached_property
    def value(self) -> QuatMatrix:  # built once, on first read
        return self.held.matrix()


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


def _require_function(f) -> None:
    if not isinstance(f, StemFunction):
        raise TypeError(f"f must be a StemFunction, not {type(f).__name__}"
                        "; slicefun.parse builds one from text")


def _require_injective(t) -> bool:
    """True, or NotInjective when T or conj(T) is singular: its 2-norm
    condition number at least 1 / INJECTIVITY_FACTOR.  t is T in its held
    form, t.eigenbasis or else t.as_qmatrix(), whose cond() reads the
    moduli |lambda_k| in O(n) or QuatMatrix.cond."""
    for x, label in ((t, "T"), (t.conj(), "conj(T)")):
        if not x.cond() < 1.0 / INJECTIVITY_FACTOR:  # a NaN fails too
            raise NotInjective(f"{label} is numerically non-injective")
    return True


def _amplification(t, n: int) -> float:
    """||e(T)^-1|| for e = reg(n), from e(T)^-1 = (T^-1 + 2 + T)^n in T's
    held form t (see _require_injective; t.conj() for conj(T)), per
    eigenvalue in O(n) or on full matrices; NotInjective when it
    overflows or when it amplifies the quadrature floor past 1, since
    sub-integrals at the floor would then leave the value all noise."""
    with np.errstate(over="ignore", invalid="ignore"):
        step = t.inverse() + 2.0 + t
        e_inv = functools.reduce(lambda a, b: a @ b, [step] * n)
        amplification = e_inv.norm()
    if not math.isfinite(amplification):
        raise NotInjective("e(T) is numerically singular")
    if amplification * _HINF_TOL_FLOOR >= 1.0:
        raise NotInjective(
            f"e(T) = reg({n})(T) is too small to invert: ||e(T)^-1|| = "
            f"{amplification:.3g} amplifies the quadrature floor "
            f"{_HINF_TOL_FLOOR:g} past 1")
    return amplification


def _solve_prefactor(pref, bracket):
    """(x, range residual, cond) for pref x = bracket, both QuatMatrix or
    both SpectralValue (per eigenvalue, each prefactor inverted as a
    quaternion); NotInjective when the 2-norm condition number of pref is
    past 1e12 or not finite."""
    cond = pref.cond()
    if not np.isfinite(cond) or cond > 1e12:
        raise NotInjective("regularized prefactor is numerically non-injective")
    inv = pref.inverse()
    x = inv @ bracket
    resid = (pref @ x - bracket).fro() / max(1.0, bracket.fro())
    return x, resid, cond


class Evaluator:
    """Calculus values of one operator, each integral computed at most once.

    Everything an evaluator keeps is in its one Memo: one CalculusResult
    per calc value on (kind, repr(f), tol, side, conj), held as the
    quadrature returns it, and for hinf the injectivity of T and
    ||e(T)^-1|| and ||e(conj T)^-1|| per regularizer.  Each depends on its
    key only, so one evaluator may serve many threads; when two threads
    compute one entry, the first stored is kept, and failures are never
    stored.  calc_many computes the missing values of a list in one
    shared-lattice batch (contour.integrate_many), and calc is its list of
    one.  hinf assembles its value on every call from one calc_many batch
    of every sub-value its kind needs, read in their held form, so e(T),
    (e*f)(T) and their D, Dbar and Delta forms share the nodes' work and
    serve every kind.  conj=True is the one conjugation rule of both: the
    entrywise conjugate of the value at T for intrinsic f, stored under
    its own conj key, else the value at conj(T), one more item of T's
    batch.  Q_{c,z}(conj T) = z^2 - 2 T0 z + |T|^2 is Q_{c,z}(T), since T0
    and |T|^2 are unchanged, so conj(T) shares T's M, moments, contour and
    profile, and only its kernel coefficients differ, as their entrywise
    conjugates (contour.OperatorKernel).  No value is shared between
    evaluators (certificates are, by the same rule), but the public calc
    and hinf keep one evaluator on each operator and reuse it while the
    profile object, theta, phi and unit stay the same (_evaluator_of).
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

    def calc(self, kind: str, f, *, tol: float = 1e-9, side: str = "left",
             conj: bool = False) -> CalculusResult:
        """Decaying-regime functional calculus of f (at conj(T) if conj).

        side = "left" uses the left kernel with f on the right of ds_J; the
        "right" form (intrinsic f only) integrates f ds_J K_R instead.
        """
        return self.calc_many([(kind, f, conj)], tol=tol, side=side)[0]

    def calc_many(self, requests, *, tol: float = 1e-9,
                  side: str = "left") -> list[CalculusResult]:
        """calc of each (kind, f, conj) request at one tol and side, in
        order, each the memoized result that calc gives it alone.  The
        missing values are computed as one batch on T
        (contour.integrate_many), a non-intrinsic f with conj at conj(T)
        among them, and an intrinsic f with conj stores the conjugate of
        its value at T.  A lone value goes through integrate, the batch of
        one, which qbench/layertrace.py counts as one integral."""
        _require_positive_tol(tol)
        requests = list(requests)
        for kind, f, _ in requests:
            if kind not in CALC_KINDS:
                raise ValueError(f"unknown calculus kind {kind!r}")
            _require_function(f)
            # refused before a certificate or a contour is built
            require_moment_form(f, side)
        keys = [("calc", kind, repr(f), tol, side, conj)
                for kind, f, conj in requests]
        # the key each is read from: an intrinsic f with conj reads T's
        ats = [key[:-1] + (False,) if conj and f.intrinsic else key
               for key, (_, f, conj) in zip(keys, requests)]
        # the integral of each missing value, under its key
        todo = {at: (kind, f, conj and not f.intrinsic)
                for key, at, (kind, f, conj) in zip(keys, ats, requests)
                if self._memo.find(key) is None and self._memo.find(at) is None}
        if todo:
            items = [(OperatorKernel(_FAMILY[kind], self.t, bar), f,
                      self._contour(_FAMILY[kind], f, tol))
                     for kind, f, bar in todo.values()]
            raws = ([integrate(*items[0], side=side)] if len(items) == 1
                    else integrate_many(items, side=side))
            for key, (kind, _, _), (kernel, f, _), (raw, info) in zip(
                    todo, todo.values(), items, raws):
                diag = CalcDiagnostics(**info, phi=self.phi, theta=self.theta,
                                       kernel_path=kernel.path)
                self._memo.put(key, f, CalculusResult(
                    _PREFACTOR[kind] * raw, kind, "decaying", diag))
        # a key read from itself is stored, so get computes no value of it
        return [self._memo.get(key, f, lambda r=self._memo.find(at): replace(
                    r, held=r.held.conj()))
                for key, at, (_, f, _) in zip(keys, ats, requests)]

    def _contour(self, family, f, tol):
        profile = self.profile
        cert = f.certify_decay(3.0 * profile.alpha, 3.0 * profile.beta,
                               self.theta)
        bound = kernel_bound(family, self.t, profile, self.phi)
        return contour_for(cert, bound, self.phi, profile.omega, self.unit,
                           tol=tol)

    def hinf(self, kind: str, f, *, tol: float = 1e-12,
             regularizer_power: int | None = None,
             conj: bool = False) -> CalculusResult:
        """H-infinity calculus of a polynomially growing f (at conj(T) if conj).

        The value is assembled from decaying-regime sub-calculi of e and
        e*f, where e is the rational regularizer chosen from the growth
        certificate of f (or of the given power), and the prefactor e(T),
        e(T) e(conj T) or e(T)^2 e(conj T) is inverted (_solve_prefactor).
        The sub-values are read as calc_many holds them: with an eigenbasis
        they, the bracket, the prefactor and the result are held per
        eigenvalue and each eigenvalue's prefactor is inverted as a
        quaternion; otherwise they are full matrices and the prefactor is
        inverted as one (QuatMatrix.inverse).  One set of formulas serves
        both, as SpectralValue and QuatMatrix share their operators, and so
        do the checks that T and conj(T) are injective (_require_injective).

        Inverting the prefactor amplifies quadrature error by up to the norm
        of e(T)^-1 = (T^-1 + 2 + T)^n, so tol is capped at 1e-12 and, when
        that norm asks for it, tightened further (down to the roundoff floor
        of the quadrature, 2e-13) before the one calc_many batch of the
        sub-values runs.  A norm at which that floor times the norm reaches 1
        would leave the value all noise, and raises NotInjective first.  conj
        follows calc_many's rule; a non-intrinsic f at conj(T) flips the conj
        of every sub-value and reads ||e(conj T)^-1||.  Only the sub-values
        and the checks on T and e are memoized: the prefactor is solved on
        every call, which returns a result of its own.  The diagnostics
        report the sub-integrals' smallest t_min and largest t_max.
        """
        _require_positive_tol(tol)
        if kind not in CALC_KINDS:
            raise ValueError(f"unknown calculus kind {kind!r}")
        _require_function(f)
        flip = conj and not f.intrinsic
        # T held as its values are; the work on (T, e) alone is memoized
        # like a value, so a failure raises again on every call
        t = self.t.eigenbasis or self.t.as_qmatrix()
        self._memo.get(("injective",), None, lambda: _require_injective(t))
        if regularizer_power is None:
            e = choose_regularizer(f, self.profile.alpha, self.profile.beta,
                                   self.theta)
        else:
            e = Regularizer(regularizer_power)
        amplification = self._memo.get(
            ("amplification", e.n, flip), None,
            lambda: _amplification(t.conj() if flip else t, e.n))
        # capped before the sub-values' key: every larger tol asks for the
        # same sub-values
        tol = max(min(tol, _HINF_TOL_CAP, 1e-8 / max(amplification, 1.0)),
                  _HINF_TOL_FLOOR)
        named = {"e": e, "ef": Product(e, f)}
        requests = [(k, named[g], c != flip) for k, g, c in _HINF_VALUES[kind]]
        results = self.calc_many(requests, tol=tol)
        e_t, ef_t, *rest = (res.held for res in results)
        e_tbar = e_t.conj()  # e is intrinsic

        if kind == "S":
            pref, bracket = e_t, ef_t
        elif kind == "Q":
            de_t, def_t = rest
            pref = e_t @ e_tbar
            bracket = e_t @ def_t - de_t @ ef_t
        elif kind == "P2":
            de_t, dbe_t, dbef_t, ef_tbar = rest
            pref = e_t @ e_t @ e_tbar
            bracket = (e_t @ e_tbar @ dbef_t - e_tbar @ dbe_t @ ef_t
                       + e_t @ de_t @ ef_tbar - e_tbar @ de_t @ ef_t)
        else:  # F
            de_t, le_t, lef_t, def_t = rest
            pref = e_t @ e_t @ e_tbar
            bracket = (e_t @ e_tbar @ lef_t - e_tbar @ le_t @ ef_t
                       + e_t @ de_t @ def_t - de_t @ de_t @ ef_t)

        value, range_resid, cond = _solve_prefactor(pref, bracket)
        # phi, theta and kernel_path are those of every sub-value
        subs = [res.diagnostics for res in results]
        diag = replace(subs[0], tol_achieved=tol,
                       nodes=sum(d.nodes for d in subs),
                       h=min(d.h for d in subs),
                       t_min=min(d.t_min for d in subs),
                       t_max=max(d.t_max for d in subs),
                       worst_cond=max(d.worst_cond for d in subs),
                       regularizer_n=e.n, range_residual=range_resid,
                       amplification=amplification, prefactor_cond=cond)
        return CalculusResult(value.conj() if conj and not flip else value,
                              kind, "h_infinity", diag)


_SLOT_LOCK = threading.Lock()  # guards every operator's evaluator slot


def _evaluator_of(t: CommutingOperator, profile: TypeProfile, theta, phi,
                  unit: Quaternion) -> Evaluator:
    """The Evaluator in t's one slot if it has this profile object and the
    same resolved theta, phi and unit, else a new one that replaces it.
    One slot, not one per key: the calls it serves are those of one sweep,
    such as the four kinds of one f."""
    with _SLOT_LOCK:
        ev = t.__dict__.get("evaluator")
        # the angles are resolved only against a profile the slot's
        # evaluator has already checked; a new one checks its own
        if (ev is None or ev.profile is not profile or ev.unit != unit
                or (ev.theta, ev.phi) != _angles(profile.omega, theta, phi)):
            ev = Evaluator(t, profile, theta=theta, phi=phi, unit=unit)
            # a frozen dataclass: filled as the cached eigenbasis is
            t.__dict__["evaluator"] = ev
    return ev


def calc(kind: str, t: CommutingOperator, f, profile: TypeProfile, *,
         theta: float | None = None, phi: float | None = None,
         unit: Quaternion = E1, tol: float = 1e-9,
         side: str = "left") -> CalculusResult:
    """Decaying-regime functional calculus of f at t (see Evaluator.calc),
    from the Evaluator kept on t (see _evaluator_of), shared with hinf.
    The result is memoized and shared by every equal call, so do not
    mutate it."""
    return _evaluator_of(t, profile, theta, phi, unit).calc(
        kind, f, tol=tol, side=side)


def hinf(kind: str, t: CommutingOperator, f, profile: TypeProfile, *,
         theta: float | None = None, phi: float | None = None,
         unit: Quaternion = E1, tol: float = 1e-12,
         regularizer_power: int | None = None) -> CalculusResult:
    """H-infinity calculus of a polynomially growing f (see Evaluator.hinf),
    assembled on every call from the sub-values memoized in the Evaluator
    kept on t (see _evaluator_of), shared with calc."""
    return _evaluator_of(t, profile, theta, phi, unit).hinf(
        kind, f, tol=tol, regularizer_power=regularizer_power)


# ---------------------------------------------------------------------------
# Algebraic resolvent identities (no quadrature).
# ---------------------------------------------------------------------------

def resolvent_identity_residuals(t: CommutingOperator, s: Quaternion,
                                 p: Quaternion) -> dict[str, float]:
    """Residuals of the four two-point kernel identities at (s, p), s not in [p].

    Each residual is the operator 2-norm of LHS - RHS divided by
    max(1, ||RHS||).  All ten kernels come from one two-point kernel_batch
    call of the four families, and the ten norms from one batched SVD.
    """
    w = p * p - 2.0 * s.re * p + Quaternion(s.norm_sq())
    if w.norm() < 1e-12:
        raise ValueError("s and p lie on a common sphere; identities degenerate")
    w_inv = w.inverse()
    sbar = s.conj()
    points = (to_slice(s), to_slice(p))
    # looked up on its module, where qbench's layer trace wraps it
    pairs = operators.kernel_batch(KERNEL_FAMILIES, t, [q.x for q in points],
                                   [q.y for q in points])

    def k(kind: str, at: int, conj: bool = False) -> QuatMatrix:
        # kind at s (at 0) or p (at 1) with its own unit, of conj(T) if conj
        a, b = (bq_conj(c[at]) if conj else c[at]
                for c in pairs[kernel_family(kind)])
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

    Values come from ev.calc_many as one batch (regime "decaying") or from
    ev.hinf ("h_infinity") at tolerance tol, and whole matrices are
    compared.
    """
    if not g.intrinsic:
        raise NotIntrinsic("product rules require an intrinsic left factor")
    gf = Product(g, f)

    if regime not in ("decaying", "h_infinity"):
        raise ValueError("regime must be 'decaying' or 'h_infinity'")
    requests = [("S", g, False), ("S", f, False), ("S", g, True),
                ("S", f, True), ("Q", g, False), ("Q", f, False),
                ("P2", g, False), ("P2", f, False), ("F", g, False),
                ("F", f, False), ("Q", gf, False), ("S", gf, False),
                ("P2", gf, False), ("F", gf, False)]
    if regime == "decaying":
        results = ev.calc_many(requests, tol=tol)
    else:
        results = [ev.hinf(kind, h, tol=tol, conj=conj)
                   for kind, h, conj in requests]
    (g_t, f_t, g_tbar, f_tbar, dg_t, df_t, dbg_t, dbf_t, lg_t, lf_t, dgf_t,
     sgf_t, dbgf_t, lgf_t) = (res.value for res in results)

    return {
        "product_rule_S": _rel(sgf_t, g_t @ f_t),
        "product_rule_Q": max(_rel(dgf_t, dg_t @ f_t + g_tbar @ df_t),
                              _rel(dgf_t, dg_t @ f_tbar + g_t @ df_t)),
        "product_rule_P2": _rel(
            dbgf_t, dbg_t @ f_t + g_t @ dbf_t + dg_t @ (f_t - f_tbar)),
        "product_rule_F": _rel(lgf_t, lg_t @ f_t + g_t @ lf_t - dg_t @ df_t),
    }


def power_recurrence_residuals(ev: Evaluator, f, n_max: int, *,
                               tol: float) -> dict[str, float]:
    """Residuals of the four recurrences linking s^n f to s^(n-1) f; every
    value comes from one ev.calc_many batch."""
    # membership that keeps s^n f inside the calculus class up to n_max
    f.certify_decay(3.0 * ev.profile.alpha, 3.0 * ev.profile.beta - n_max,
                    ev.theta)

    tq = ev.t.as_qmatrix()
    tbq = tq.conj()
    fs = [Product(Power(n), f) for n in range(n_max + 1)]
    requests = [("S", f, False), ("S", f, True)] + [
        (kind, h, False) for h in fs for kind in CALC_KINDS]
    f_t_base, f_tbar_base, *vals = (
        res.value for res in ev.calc_many(requests, tol=tol))
    s, d, db, lap = (vals[i::len(CALC_KINDS)] for i in range(len(CALC_KINDS)))
    out = {}
    for n in range(1, n_max + 1):
        tn_f = tq.matpow(n - 1) @ f_t_base
        tbn_f = tbq.matpow(n - 1) @ f_tbar_base

        out[f"recurrence_S_n{n}"] = _rel(s[n], tq @ s[n - 1])
        ra = tq @ d[n - 1] - 2.0 * tbn_f
        rb = tbq @ d[n - 1] - 2.0 * tn_f
        out[f"recurrence_Q_n{n}"] = max(_rel(d[n], ra), _rel(d[n], rb),
                                        _rel(ra, rb))
        out[f"recurrence_P2_n{n}"] = _rel(
            db[n], tq @ db[n - 1] + 2.0 * tbn_f + 2.0 * tn_f)
        out[f"recurrence_F_n{n}"] = _rel(lap[n],
                                         tq @ lap[n - 1] + 2.0 * d[n - 1])
    return out


def derivative_combination_residual(ev: Evaluator, f, *, tol: float) -> float:
    """Residual of Dbar f(T) = 2 f'(T) - D f(T), from one calc_many batch."""
    dbf_t, fprime_t, df_t = (res.value for res in ev.calc_many(
        [("P2", f, False), ("S", f.slice_derivative(), False),
         ("Q", f, False)], tol=tol))
    return _rel(dbf_t, 2.0 * fprime_t - df_t)


def power_reference(kind: str, t: CommutingOperator, n: int) -> QuatMatrix:
    """Closed-form value the H-infinity calculi must give on s**n.

    S: T^n.  Q: -2 sum_{k=0}^{n-1} conj(T)^(n-1-k) T^k.  P2: 2n T^(n-1) plus
    the same sum with factor +2.  F: -4 sum_{k=1}^{n-1} k conj(T)^(n-1-k)
    T^(k-1).  n must be a nonnegative int, else ValueError.
    """
    if not isinstance(n, int) or n < 0:
        raise ValueError(f"only nonnegative integer powers, got {n!r}")
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
