"""Theorem suites: operator generation, residual checks, reports.

Each suite maps a block of algebraic identities onto (tag, residual,
tolerance) records computed on a generated or loaded operator.  Residuals
are operator 2-norm differences divided by max(1, reference norm) unless a
check states otherwise.
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import asdict, dataclass, field
from functools import cached_property, reduce

import numpy as np

from .calculus import (CALC_KINDS, Evaluator, _angles, _rel, calc,
                       default_theta, derivative_combination_residual, hinf,
                       kernel_bound, power_recurrence_residuals,
                       power_reference, product_rule_residuals,
                       resolvent_identity_residuals)
from .contour import _require_positive_tol
from .errors import NotInjective, QCalcError
from .operators import (KERNEL_KINDS, CommutingOperator, QuatMatrix,
                        ab_decompose, conj_op, estimate_type_profile,
                        f_spectrum_check, kernel, kernel_batch, q_operator,
                        stack_norm)
from .quaternion import E1, Quaternion, random_unit_imaginary, to_slice
from .slicefun import Power, Regularizer, parse, pointwise_fine

SUITE_NAMES = ("identities", "product_rules", "independence", "powers",
               "hinf", "oracle", "kernels")

REPORT_VERSION = "3"


@dataclass(frozen=True)
class OperatorSpec:
    """Generator recipe: eigenspheres in the omega-sector with moduli in the
    given annulus, components conjugated by a random orthogonal basis."""

    dim: int = 4
    seed: int = 7
    annulus: tuple[float, float] = (0.5, 2.0)
    omega: float = math.pi / 4.0
    diagonal: bool = False

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"dim must be at least 1, got {self.dim}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if not 0.0 < self.omega < math.pi:
            raise ValueError("sector angle must lie in (0, pi)")
        lo, hi = self.annulus
        if not 0.0 < lo <= hi < math.inf:  # NaN fails too
            raise ValueError("annulus must satisfy 0 < r_min <= r_max < inf")


@dataclass
class GeneratedOperator:
    """An operator with its eigensphere data: every component is
    basis_inv @ diag(eigenvalue components) @ basis."""

    operator: CommutingOperator
    eigenvalues: list[Quaternion]
    basis: np.ndarray
    basis_inv: np.ndarray
    spec: OperatorSpec

    def expected_diag(self, values: list[Quaternion]) -> QuatMatrix:
        """Quaternion matrix with the given values on the eigen-basis diagonal."""
        b, b_inv = self.basis, self.basis_inv
        comps = np.stack([b_inv @ np.diag([v.components[i] for v in values]) @ b
                          for i in range(4)])
        return QuatMatrix(comps)


def generate_operator(spec: OperatorSpec) -> GeneratedOperator:
    """Simultaneously diagonalizable commuting components with a known
    eigensphere list, reproducible from the seed."""
    lo, hi = spec.annulus
    rng = np.random.default_rng(spec.seed)
    eigs = []
    for _ in range(spec.dim):
        modulus = math.exp(rng.uniform(math.log(lo), math.log(hi)))
        angle = rng.uniform(0.1 * spec.omega, 0.9 * spec.omega)
        unit = random_unit_imaginary(rng)
        eigs.append(Quaternion(modulus * math.cos(angle))
                    + unit * (modulus * math.sin(angle)))
    if spec.diagonal:
        basis = np.eye(spec.dim)
    else:
        basis, _ = np.linalg.qr(rng.normal(size=(spec.dim, spec.dim)))
    comps = np.stack([basis.T @ np.diag([q.components[i] for q in eigs]) @ basis
                      for i in range(4)])
    return GeneratedOperator(CommutingOperator(comps), eigs, basis, basis.T,
                             spec)


# ---------------------------------------------------------------------------
# Suite context and runner.
# ---------------------------------------------------------------------------

@dataclass
class SuiteContext:
    gen: GeneratedOperator
    tol: float = 1e-9
    theta: float | None = None
    angles: tuple[float, float] | None = None
    n_max: int = 5
    pairs: int = 50

    def __post_init__(self):
        if self.pairs < 1 or self.n_max < 1:
            raise ValueError(f"pairs and n_max must be at least 1, got "
                             f"pairs={self.pairs}, n_max={self.n_max}")
        _require_positive_tol(self.tol)
        omega = self.gen.spec.omega
        if self.theta is None:
            self.theta = default_theta(omega)
        room = self.theta - omega
        if self.angles is None:
            # the nominal offsets, pulled inward when the sector gap is slim
            off = min(0.2, 0.25 * room)
            self.angles = (omega + off, self.theta - off)
        for phi in self.angles:  # the rule of every Evaluator
            _angles(omega, self.theta, phi)

    @property
    def operator(self) -> CommutingOperator:
        return self.gen.operator

    @cached_property
    def profile(self):
        omega = self.gen.spec.omega
        gap = math.pi - omega  # test angles spread over (omega, pi)
        return estimate_type_profile(
            self.operator, omega,
            (omega + 0.1 * gap, omega + 0.5 * gap, omega + 0.9 * gap))

    @cached_property
    def evaluator(self) -> Evaluator:  # shared by every group and suite
        return Evaluator(self.operator, self.profile, theta=self.theta)

    def rng(self, salt: int = 0) -> np.random.Generator:
        return np.random.default_rng(self.gen.spec.seed + 1000 * salt)

    def random_resolvent_point(self, rng) -> Quaternion:
        """Random quaternion staying clear of every eigensphere."""
        spectrum = [(q.re, to_slice(q).y) for q in self.gen.eigenvalues]
        for _ in range(10_000):
            s = Quaternion(*rng.normal(size=4)) * rng.uniform(0.3, 2.0)
            if s.norm() < 0.1:
                continue
            p = to_slice(s)
            if all(math.hypot(p.x - x0, p.y - y0) > 0.15 for x0, y0 in spectrum):
                return s
        raise QCalcError("no resolvent point found away from the spectrum")


@dataclass
class CheckRecord:
    tag: str
    residual: float
    tol: float
    passed: bool
    ms: float


@dataclass
class SuiteReport:
    suite: str
    operator: dict
    checks: list[CheckRecord] = field(default_factory=list)
    env: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json(self) -> dict:
        return {
            "version": REPORT_VERSION,
            "suite": self.suite,
            "operator": self.operator,
            "checks": [{"tag": c.tag, "residual": c.residual, "tol": c.tol,
                        "pass": c.passed, "ms": c.ms} for c in self.checks],
            "env": self.env,
        }

    def to_csv(self) -> str:
        lines = ["suite,tag,residual,tol,pass"]
        for c in self.checks:
            lines.append(f"{self.suite},{c.tag},{c.residual:.17g},{c.tol:.17g},"
                         f"{str(c.passed).lower()}")
        return "\n".join(lines) + "\n"


def _run_groups(groups) -> list[CheckRecord]:
    records = []
    for group in groups:
        start = time.perf_counter()
        results = group()
        # each check gets an equal share of its group's wall time
        ms = (time.perf_counter() - start) * 1000.0 / max(len(results), 1)
        records += [CheckRecord(tag, float(res), tol, bool(res <= tol), ms)
                    for tag, res, tol in results]
    return records


# ---------------------------------------------------------------------------
# The seven suites.
# ---------------------------------------------------------------------------

def _suite_identities(ctx: SuiteContext):
    def group():
        rng = ctx.rng(1)
        t = ctx.operator
        worst: dict[str, float] = {}
        done = 0
        while done < ctx.pairs:
            s = ctx.random_resolvent_point(rng)
            p = ctx.random_resolvent_point(rng)
            w = p * p - 2.0 * s.re * p + Quaternion(s.norm_sq())
            if w.norm() < 1e-2:  # too close to the sphere of s
                continue
            for tag, res in resolvent_identity_residuals(t, s, p).items():
                worst[tag] = max(worst.get(tag, 0.0), res)
            done += 1
        return [(tag, res, 1e-10) for tag, res in sorted(worst.items())]

    return [group]


def _suite_product_rules(ctx: SuiteContext):
    groups = []
    cases = [("reg2", parse("reg(2)")), ("pow1reg3", parse("pow(1)*reg(3)"))]
    for regime, rtag in (("decaying", "decaying"), ("h_infinity", "hinf")):
        for ftag, f in cases:
            def group(f=f, regime=regime, rtag=rtag, ftag=ftag):
                res = product_rule_residuals(
                    ctx.evaluator, Regularizer(2), f, regime=regime,
                    tol=ctx.tol)
                return [(f"{tag}_{rtag}_{ftag}", val, 1e-6)
                        for tag, val in sorted(res.items())]

            groups.append(group)
    return groups


def _suite_independence(ctx: SuiteContext):
    groups = []
    f = parse("reg(2)")
    for kind in CALC_KINDS:
        def group(kind=kind):
            values = []
            for phi in ctx.angles:
                values.append(calc(kind, ctx.operator, f, ctx.profile,
                                   theta=ctx.theta, phi=phi,
                                   tol=ctx.tol).value)
            worst = max(((v - values[0]).norm() for v in values[1:]),
                        default=0.0)
            return [(f"independence_{kind}", worst, 1e-7)]

        groups.append(group)
    return groups


def _suite_powers(ctx: SuiteContext):
    groups = []

    for n in range(1, ctx.n_max + 1):
        def group(n=n):
            ev = ctx.evaluator
            out = []
            for kind in CALC_KINDS:
                res = ev.hinf(kind, Power(n), tol=ctx.tol)
                ref = power_reference(kind, ctx.operator, n)
                out.append((f"hinf_power_{kind}_n{n}", _rel(res.value, ref),
                            1e-6))
            return out

        groups.append(group)

    def recurrences():
        res = power_recurrence_residuals(ctx.evaluator, Regularizer(4), 3,
                                         tol=ctx.tol)
        return [(tag, val, 1e-6) for tag, val in sorted(res.items())]

    def reg_shift():
        ev = ctx.evaluator
        a = ev.hinf("F", Power(2), tol=ctx.tol)
        b = ev.hinf("F", Power(2), tol=ctx.tol,
                    regularizer_power=a.diagnostics.regularizer_n + 1)
        return [("regularizer_shift", _rel(b.value, a.value), 1e-6)]

    return groups + [recurrences, reg_shift]


def _commutation_with_t(ctx: SuiteContext, val: QuatMatrix) -> float:
    """||V T - T V|| / max(1, ||V|| ||T||)."""
    tq = ctx.operator.as_qmatrix()
    return (val @ tq - tq @ val).norm() / max(1.0, val.norm() * tq.norm())


def _suite_hinf(ctx: SuiteContext):
    def agreement():
        ev = ctx.evaluator
        out = []
        f = Regularizer(2)
        for kind in CALC_KINDS:
            a = ev.hinf(kind, f, tol=ctx.tol)
            b = ev.calc(kind, f, tol=ctx.tol)
            out.append((f"hinf_matches_decaying_{kind}",
                        _rel(a.value, b.value), 1e-7))
            out.append((f"hinf_range_residual_{kind}",
                        a.diagnostics.range_residual, 1e-10))
        return out

    def injectivity_guard():
        zero = CommutingOperator(np.zeros((4, ctx.operator.n, ctx.operator.n)))
        try:
            hinf("S", zero, Power(1), ctx.profile, theta=ctx.theta)
        except NotInjective:
            return [("hinf_rejects_noninjective", 0.0, 0.5)]
        return [("hinf_rejects_noninjective", 1.0, 0.5)]

    def commutation():
        val = ctx.evaluator.hinf("Q", Regularizer(2), tol=ctx.tol).value
        return [("hinf_commutation_T", _commutation_with_t(ctx, val), 1e-9)]

    return [agreement, injectivity_guard, commutation]


def _suite_oracle(ctx: SuiteContext):
    f = Regularizer(2)

    def cauchy():
        got = ctx.evaluator.calc("S", f, tol=ctx.tol).value
        want = ctx.gen.expected_diag([f.eval(q) for q in ctx.gen.eigenvalues])
        return [("cauchy_reproduction", (got - want).norm(), 1e-7)]

    def fine():
        vals = [pointwise_fine(f, q) for q in ctx.gen.eigenvalues]
        ev = ctx.evaluator
        out = []
        for idx, kind in enumerate(("Q", "P2", "F")):
            got = ev.calc(kind, f, tol=ctx.tol).value
            want = ctx.gen.expected_diag([v[idx] for v in vals])
            out.append((f"fine_oracle_{kind}", (got - want).norm(), 1e-6))
        return out

    def left_right():
        ev = ctx.evaluator
        out = []
        for kind in CALC_KINDS:
            a = ev.calc(kind, f, tol=ctx.tol).value
            b = ev.calc(kind, f, tol=ctx.tol, side="right").value
            out.append((f"left_right_{kind}", (a - b).norm(), 1e-8))
        return out

    def conj_and_friends():
        ev = ctx.evaluator
        t_bar = conj_op(ctx.operator)
        profile_bar = estimate_type_profile(t_bar, ctx.gen.spec.omega,
                                            sorted(ctx.profile.c_phi))
        out = []
        for kind in CALC_KINDS:
            a = ev.calc(kind, f, tol=ctx.tol, conj=True).value
            b = calc(kind, t_bar, f, profile_bar, theta=ctx.theta,
                     tol=ctx.tol).value
            out.append((f"intrinsic_conj_{kind}", (a - b).norm(), 1e-8))
        out.append(("two_fprime",
                    derivative_combination_residual(
                        ev, Regularizer(3), tol=ctx.tol), 1e-6))
        val = ev.calc("S", f, tol=ctx.tol).value
        out.append(("commutation_T", _commutation_with_t(ctx, val), 1e-9))
        out.append(("value_components_commute",
                    val.commutation_residual(), 1e-9))
        return out

    return [cauchy, fine, left_right, conj_and_friends]


def _algebra_kernel(kind: str, t: CommutingOperator, s: Quaternion,
                    qi: QuatMatrix):
    """Kernel kind at s from QuatMatrix algebra on qi = Q^-1 with
    Q = Q_{c,s}(T), not from kernel_batch's pair: with D = s - conj(T) and
    D0 = s - T0, S_L = D Q^-1, Qc = Q^-1, F_L = -4 D Q^-2 and
    P2_L = 4 D D0 Q^-2; a right kernel takes the factors in the reverse
    order."""
    sm = QuatMatrix.from_scalar(s, t.n)
    d = sm - t.as_qmatrix().conj()
    d0 = sm - QuatMatrix.from_real(t.components[0])
    scale, factors = {"S": (1.0, [d, qi]), "Qc": (1.0, [qi]),
                      "F": (-4.0, [d, qi, qi]),
                      "P2": (4.0, [d, d0, qi, qi])}[kind.split("_")[0]]
    if kind.endswith("_R"):
        factors.reverse()
    return scale * reduce(QuatMatrix.__matmul__, factors)


def _suite_kernels(ctx: SuiteContext):
    t = ctx.operator

    def reconstruction():
        rng = ctx.rng(3)
        worst = 0.0
        worst_sym = 0.0
        for _ in range(6):
            s = ctx.random_resolvent_point(rng)
            p = to_slice(s)
            pairs = {}
            for kind in KERNEL_KINDS:
                a, b = pairs[kind] = ab_decompose(kind, t, p.x, p.y)
                a2, b2 = ab_decompose(kind, t, p.x, -p.y)
                worst_sym = max(worst_sym, (a - a2).norm(), (b + b2).norm())
            for _ in range(8):  # one unit and one inversion for every kind
                j = random_unit_imaginary(rng)
                sj = Quaternion(p.x) + j * p.y
                qi = q_operator(t, sj).inverse()
                for kind, (a, b) in pairs.items():
                    k = _algebra_kernel(kind, t, sj, qi)
                    if kind.endswith("_R"):
                        recon = a + b.scalar_mul(j, "left")
                    else:
                        recon = a + b.scalar_mul(j, "right")
                    worst = max(worst, _rel(recon, k))
        return [("ab_reconstruction", worst, 1e-10),
                ("ab_symmetry", worst_sym, 1e-10)]

    def cauchy_riemann():
        rng = ctx.rng(4)
        worst = 0.0
        for _ in range(4):
            s = ctx.random_resolvent_point(rng)
            p = to_slice(s)
            h = 1e-5 * max(1.0, s.norm())
            for kind in KERNEL_KINDS:
                ax_p, bx_p = ab_decompose(kind, t, p.x + h, p.y)
                ax_m, bx_m = ab_decompose(kind, t, p.x - h, p.y)
                ay_p, by_p = ab_decompose(kind, t, p.x, p.y + h)
                ay_m, by_m = ab_decompose(kind, t, p.x, p.y - h)
                da_dx = (ax_p - ax_m) * (0.5 / h)
                db_dx = (bx_p - bx_m) * (0.5 / h)
                da_dy = (ay_p - ay_m) * (0.5 / h)
                db_dy = (by_p - by_m) * (0.5 / h)
                scale = max(da_dx.norm(), db_dy.norm(), da_dy.norm(),
                            db_dx.norm(), 1e-30)
                worst = max(worst, (da_dx - db_dy).norm() / scale,
                            (da_dy + db_dx).norm() / scale)
        return [("kernel_cauchy_riemann", worst, 1e-5)]

    def norms_and_conj():
        rng = ctx.rng(5)
        worst_comp = 0.0
        worst_conj_norm = 0.0
        worst_conj_rel = 0.0
        count = 0
        while count < 100:
            s = ctx.random_resolvent_point(rng)
            kind = KERNEL_KINDS[count % len(KERNEL_KINDS)]
            k = kernel(kind, t, s)
            nk = k.norm()
            for i in range(4):
                ni = float(np.linalg.norm(k.components[i], 2))
                worst_comp = max(worst_comp, ni - nk)
            worst_conj_norm = max(worst_conj_norm, k.conj().norm() - 2.0 * nk)
            count += 1
        t_bar = conj_op(t)
        for _ in range(10):
            s = ctx.random_resolvent_point(rng)
            lhs = kernel("S_L", t_bar, s)
            rhs = kernel("S_R", t, s.conj()).conj()
            worst_conj_rel = max(worst_conj_rel, _rel(lhs, rhs))
        return [("component_norms", max(worst_comp, 0.0), 1e-12),
                ("conjugate_norm", max(worst_conj_norm, 0.0), 1e-12),
                ("conj_relation", worst_conj_rel, 1e-10)]

    def spectrum_and_commutation():
        rng = ctx.rng(6)
        out = []
        sym_ok = 0.0
        for q in ctx.gen.eigenvalues[: min(3, len(ctx.gen.eigenvalues))]:
            base = f_spectrum_check(t, q)
            p = to_slice(q)
            for _ in range(16):
                j = random_unit_imaginary(rng)
                other = f_spectrum_check(t, Quaternion(p.x) + j * p.y)
                if other != base:
                    sym_ok = 1.0
        s = ctx.random_resolvent_point(rng)
        base = f_spectrum_check(t, s)
        p = to_slice(s)
        for _ in range(16):
            j = random_unit_imaginary(rng)
            if f_spectrum_check(t, Quaternion(p.x) + j * p.y) != base:
                sym_ok = 1.0
        out.append(("axial_symmetry", sym_ok, 0.5))
        out.append(("spectrum_detects_eigensphere",
                    1.0 if f_spectrum_check(t, ctx.gen.eigenvalues[0]) else 0.0,
                    0.5))

        worst_comm = 0.0
        worst_back = 0.0
        for _ in range(10):
            s = ctx.random_resolvent_point(rng)
            g = kernel("Qc", t, s)
            back = q_operator(t, s) @ g - QuatMatrix.identity(t.n)
            worst_back = max(worst_back, back.norm())
            for i in range(4):
                ti = QuatMatrix.from_real(t.components[i])
                worst_comm = max(worst_comm, (ti @ g - g @ ti).norm()
                                 / max(1.0, g.norm()))
        out.append(("q_inverse_multiply_back", worst_back, 1e-10))
        out.append(("q_inverse_commutes", worst_comm, 1e-10))
        return out

    def estimate_scaling():
        prof = ctx.profile
        phi = min(prof.c_phi)
        worst = 0.0
        radii = np.geomspace(5e-3, 5e2, 24)
        for kind in KERNEL_KINDS:
            c_k, a_k, b_k = kernel_bound(kind, prof, phi)
            bound = np.where(radii <= 1.0, radii ** (-a_k), radii ** (-b_k))
            for psi in (phi, (phi + math.pi) / 2.0, math.pi):
                x = radii * math.cos(psi)
                y = radii * np.abs(math.sin(psi))
                norms = stack_norm(kernel_batch(kind, t, x, y, E1))
                worst = max(worst, float(np.max(norms / (c_k * bound))))
        return [("estimate_scaling_envelope", worst / 10.0, 1.0)]

    return [reconstruction, cauchy_riemann, norms_and_conj,
            spectrum_and_commutation, estimate_scaling]


_SUITE_BUILDERS = {
    "identities": _suite_identities,
    "product_rules": _suite_product_rules,
    "independence": _suite_independence,
    "powers": _suite_powers,
    "hinf": _suite_hinf,
    "oracle": _suite_oracle,
    "kernels": _suite_kernels,
}


def run_suite(name: str, ctx: SuiteContext) -> SuiteReport:
    if name not in _SUITE_BUILDERS:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITE_NAMES}")
    groups = _SUITE_BUILDERS[name](ctx)
    checks = _run_groups(groups)
    spec = ctx.gen.spec
    return SuiteReport(
        suite=name,
        operator={**asdict(spec), "annulus": list(spec.annulus)},
        checks=checks,
        env={"seed": spec.seed, "tol": ctx.tol, "theta": ctx.theta,
             "angles": list(ctx.angles), "n_max": ctx.n_max,
             "pairs": ctx.pairs},
    )


def write_report(report: SuiteReport, directory) -> tuple[str, str]:
    os.makedirs(directory, exist_ok=True)
    json_path = os.path.join(directory, f"{report.suite}_report.json")
    csv_path = os.path.join(directory, f"{report.suite}_report.csv")
    with open(json_path, "w") as fh:
        json.dump(report.to_json(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    with open(csv_path, "w") as fh:
        fh.write(report.to_csv())
    return json_path, csv_path
