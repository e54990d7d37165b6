"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one `ACCEPTANCE n ... PASS/FAIL` line (run with -s to see
them all); the assertions enforce the stated tolerances.
"""

import math
import time

import numpy as np
import pytest

from qcalc.calculus import (Evaluator, calc, hinf,
                            power_recurrence_residuals, power_reference,
                            product_rule_residuals,
                            resolvent_identity_residuals)
from qcalc.operators import ab_decompose, estimate_type_profile, kernel
from qcalc.quaternion import (E1, Quaternion, random_unit_imaginary, to_slice)
from qcalc.slicefun import Power, Product, Regularizer, pointwise_fine
from qcalc.suites import OperatorSpec, generate_operator

OMEGA = math.pi / 4.0
THETA = OMEGA + 0.75 * (math.pi - OMEGA)
E12 = Quaternion(0.0, 1.0, 1.0, 0.0) * (1.0 / math.sqrt(2.0))

N_OPERATORS = 20


def report(criterion: str, detail: str, passed: bool) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {criterion}: {detail} -> {status}")


@pytest.fixture(scope="module")
def operators():
    """20 random diagonal operators, dims <= 8, eigenspheres in the
    quarter-sector with moduli in [1/2, 2]."""
    rng = np.random.default_rng(20240801)
    out = []
    for k in range(N_OPERATORS):
        dim = int(rng.integers(1, 9))
        spec = OperatorSpec(dim=dim, seed=int(rng.integers(0, 2 ** 31)),
                            annulus=(0.5, 2.0), omega=OMEGA, diagonal=True)
        gen = generate_operator(spec)
        profile = estimate_type_profile(gen.operator, OMEGA,
                                        [OMEGA + 0.1, math.pi / 2,
                                         THETA - 0.1])
        out.append((gen, profile))
    return out


def resolvent_point(gen, rng):
    spectrum = [(q.re, to_slice(q).y) for q in gen.eigenvalues]
    for _ in range(10_000):
        s = Quaternion(*rng.normal(size=4)) * rng.uniform(0.4, 1.6)
        p = to_slice(s)
        if s.norm() > 0.15 and all(math.hypot(p.x - a, p.y - b) > 0.2
                                   for a, b in spectrum):
            return s
    pytest.fail("no resolvent point found away from the spectrum")


def test_criterion_1_cauchy_reproduction(operators):
    f = Regularizer(2)
    worst = 0.0
    slowest = 0.0
    for gen, profile in operators:
        start = time.perf_counter()
        got = calc("S", gen.operator, f, profile, theta=THETA).value
        elapsed = time.perf_counter() - start
        want = gen.expected_diag([f.eval(q) for q in gen.eigenvalues])
        worst = max(worst, (got - want).norm())
        slowest = max(slowest, elapsed)
    ok = worst <= 1e-7 and slowest <= 5.0
    report("1 (Cauchy reproduction)",
           f"max residual {worst:.3e} (tol 1e-7), slowest case "
           f"{slowest:.2f}s (limit 5s)", ok)
    assert worst <= 1e-7
    assert slowest <= 5.0


def test_criterion_2_fine_structure_oracles(operators):
    f = Regularizer(2)
    worst = 0.0
    for gen, profile in operators:
        fine = [pointwise_fine(f, q) for q in gen.eigenvalues]
        for idx, kind in enumerate(("Q", "P2", "F")):
            got = calc(kind, gen.operator, f, profile, theta=THETA).value
            want = gen.expected_diag([v[idx] for v in fine])
            worst = max(worst, (got - want).norm())
    ok = worst <= 1e-6
    report("2 (fine-structure oracles)",
           f"max residual {worst:.3e} (tol 1e-6)", ok)
    assert worst <= 1e-6


def test_criterion_3_integral_independence(operators):
    f = Regularizer(2)
    angles = (OMEGA + 0.2, THETA - 0.2)
    units = (E1, E12)
    worst = 0.0
    for gen, profile in operators[:3]:
        for kind in ("S", "Q", "P2", "F"):
            vals = [calc(kind, gen.operator, f, profile, theta=THETA,
                         phi=phi, unit=unit).value
                    for phi in angles for unit in units]
            for v in vals[1:]:
                worst = max(worst, (v - vals[0]).norm())
    ok = worst <= 1e-7
    report("3 (integral independence)",
           f"max spread over angles x units {worst:.3e} (tol 1e-7)", ok)
    assert worst <= 1e-7


def test_criterion_4_resolvent_identities(operators):
    gen, _ = operators[0]
    rng = np.random.default_rng(99)
    worst = 0.0
    start = time.perf_counter()
    done = 0
    while done < 50:
        s = resolvent_point(gen, rng)
        p = resolvent_point(gen, rng)
        w = p * p - 2.0 * s.re * p + Quaternion(s.norm_sq())
        if w.norm() < 1e-2:
            continue
        worst = max(worst, max(resolvent_identity_residuals(
            gen.operator, s, p).values()))
        done += 1
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed <= 1.0
    report("4 (resolvent identities)",
           f"max residual {worst:.3e} (tol 1e-10) over 50 pairs in "
           f"{elapsed:.2f}s (limit 1s)", ok)
    assert worst <= 1e-10
    assert elapsed <= 1.0


def test_criterion_5_product_rules(operators):
    gen, profile = operators[1]
    g = Regularizer(2)
    cases = [Regularizer(2), Product(Power(1), Regularizer(3))]
    ev = Evaluator(gen.operator, profile, theta=THETA)
    worst = 0.0
    for f in cases:
        for regime, tol in (("decaying", 1e-9), ("h_infinity", 1e-12)):
            res = product_rule_residuals(ev, g, f, regime=regime, tol=tol)
            worst = max(worst, max(res.values()))
    ok = worst <= 1e-6
    report("5 (product rules, decaying + H-infinity)",
           f"max residual {worst:.3e} (tol 1e-6)", ok)
    assert worst <= 1e-6


def test_criterion_6_hinf_powers(operators):
    gen, profile = operators[2]
    worst = 0.0
    for n in range(1, 6):
        for kind in ("S", "Q", "P2", "F"):
            got = hinf(kind, gen.operator, Power(n), profile, theta=THETA)
            ref = power_reference(kind, gen.operator, n)
            worst = max(worst, (got.value - ref).norm()
                        / max(1.0, ref.norm()))
    a = hinf("F", gen.operator, Power(2), profile, theta=THETA)
    b = hinf("F", gen.operator, Power(2), profile, theta=THETA,
             regularizer_power=a.diagnostics.regularizer_n + 1)
    shift = (a.value - b.value).norm()
    ok = worst <= 1e-6 and shift <= 1e-6
    report("6 (H-infinity powers)",
           f"max power residual {worst:.3e}, regularizer shift {shift:.3e} "
           f"(tol 1e-6)", ok)
    assert worst <= 1e-6
    assert shift <= 1e-6


def test_criterion_7_kernel_structure(operators):
    gen, _ = operators[3]
    t = gen.operator
    rng = np.random.default_rng(7)
    kinds = ("S_L", "S_R", "Qc", "P2_L", "P2_R", "F_L", "F_R")

    worst_recon = 0.0
    for _ in range(4):
        s = resolvent_point(gen, rng)
        p = to_slice(s)
        for kind in kinds:
            a, b = ab_decompose(kind, t, p.x, p.y)
            for _ in range(8):
                j = random_unit_imaginary(rng)
                k = kernel(kind, t, Quaternion(p.x) + j * p.y)
                recon = a + (b.scalar_mul(j, "left") if kind.endswith("_R")
                             else b.scalar_mul(j, "right"))
                worst_recon = max(worst_recon, (k - recon).norm())

    worst_cr = 0.0
    for _ in range(3):
        s = resolvent_point(gen, rng)
        p = to_slice(s)
        h = 1e-5 * max(1.0, s.norm())
        for kind in kinds:
            da_dx = (ab_decompose(kind, t, p.x + h, p.y)[0]
                     - ab_decompose(kind, t, p.x - h, p.y)[0]) * (0.5 / h)
            db_dx = (ab_decompose(kind, t, p.x + h, p.y)[1]
                     - ab_decompose(kind, t, p.x - h, p.y)[1]) * (0.5 / h)
            da_dy = (ab_decompose(kind, t, p.x, p.y + h)[0]
                     - ab_decompose(kind, t, p.x, p.y - h)[0]) * (0.5 / h)
            db_dy = (ab_decompose(kind, t, p.x, p.y + h)[1]
                     - ab_decompose(kind, t, p.x, p.y - h)[1]) * (0.5 / h)
            scale = max(da_dx.norm(), db_dy.norm(), 1e-30)
            worst_cr = max(worst_cr, (da_dx - db_dy).norm() / scale,
                           (da_dy + db_dx).norm() / scale)

    worst_norm_slack = 0.0
    for i in range(100):
        s = resolvent_point(gen, rng)
        k = kernel(kinds[i % len(kinds)], t, s)
        nk = k.norm()
        for c in range(4):
            worst_norm_slack = max(worst_norm_slack,
                                   float(np.linalg.norm(k.components[c], 2))
                                   - nk)
        worst_norm_slack = max(worst_norm_slack, k.conj().norm() - 2.0 * nk)

    ok = worst_recon <= 1e-10 and worst_cr <= 1e-5 and worst_norm_slack <= 1e-12
    report("7 (kernel structure)",
           f"reconstruction {worst_recon:.3e} (tol 1e-10), Cauchy-Riemann "
           f"{worst_cr:.3e} (tol 1e-5), norm slack {worst_norm_slack:.3e} "
           f"(tol 1e-12)", ok)
    assert worst_recon <= 1e-10
    assert worst_cr <= 1e-5
    assert worst_norm_slack <= 1e-12


def test_criterion_8_recurrences(operators):
    gen, profile = operators[4]
    res = power_recurrence_residuals(Evaluator(gen.operator, profile,
                                               theta=THETA),
                                     Regularizer(4), 3, tol=1e-9)
    worst = max(res.values())
    ok = worst <= 1e-6
    report("8 (power recurrences)",
           f"max residual {worst:.3e} (tol 1e-6) over n=1..3", ok)
    assert worst <= 1e-6
