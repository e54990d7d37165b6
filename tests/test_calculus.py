import gc
import math
import re
import sys
import weakref
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

from conftest import (counting_integrate, dense_twin, random_quaternion,
                      scalar_operator)
from qcalc import calculus, contour, slicefun
from qcalc.calculus import (Evaluator, _rel, _rel_stack, calc,
                            derivative_combination_residual, hinf,
                            power_recurrence_residuals, power_reference,
                            product_rule_residuals,
                            resolvent_identity_residuals)
from qcalc.errors import (ClassMismatch, NotInjective, NotIntrinsic,
                          SpectrumHit, ToleranceNotMet)
from qcalc.operators import (KERNEL_FAMILIES, KERNEL_KINDS, CommutingOperator,
                             QuatMatrix, SpectralValue, TypeProfile, assemble,
                             bq_conj, conj_op, kernel, kernel_batch,
                             kernel_family, stack_fro, stack_norm)
from qcalc.quaternion import E1, Quaternion, to_slice
from qcalc.slicefun import (Power, Product, Regularizer, Scale, Sum,
                            pointwise_fine)
from qcalc.suites import OperatorSpec, SuiteContext, generate_operator

E12 = Quaternion(0, 1, 1, 0) * (1.0 / math.sqrt(2.0))


def resolvent_pair(gen, rng):
    spectrum = [(q.re, to_slice(q).y) for q in gen.eigenvalues]

    def one():
        while True:
            s = random_quaternion(rng)
            p = to_slice(s)
            if s.norm() > 0.15 and all(math.hypot(p.x - a, p.y - b) > 0.2
                                       for a, b in spectrum):
                return s

    while True:
        s, p = one(), one()
        w = p * p - 2.0 * s.re * p + Quaternion(s.norm_sq())
        if w.norm() > 1e-2:
            return s, p


class TestDecayingCalculi:
    def test_cauchy_reproduction_on_diagonal(self, ctx4, gen4):
        f = Regularizer(2)
        got = calc("S", gen4.operator, f, ctx4.profile, tol=1e-9).value
        want = gen4.expected_diag([f.eval(q) for q in gen4.eigenvalues])
        assert (got - want).norm() <= 1e-7

    @pytest.mark.parametrize("kind,idx", [("Q", 0), ("P2", 1), ("F", 2)])
    def test_fine_structure_oracles(self, ctx4, gen4, kind, idx):
        f = Regularizer(2)
        got = calc(kind, gen4.operator, f, ctx4.profile, tol=1e-9).value
        vals = [pointwise_fine(f, q)[idx] for q in gen4.eigenvalues]
        want = gen4.expected_diag(vals)
        assert (got - want).norm() <= 1e-6

    def test_result_has_commuting_components(self, ctx4, gen4):
        res = calc("F", gen4.operator, Regularizer(2), ctx4.profile)
        assert res.value.commutation_residual() <= 1e-9
        assert res.regime == "decaying"

    @pytest.mark.parametrize("kind", ["S", "Q", "P2", "F"])
    def test_left_right_agreement(self, ctx4, gen4, kind):
        f = Regularizer(2)
        a = calc(kind, gen4.operator, f, ctx4.profile).value
        b = calc(kind, gen4.operator, f, ctx4.profile, side="right").value
        assert (a - b).norm() <= 1e-8

    def test_kernel_path_recorded(self, ctx4, gen4):
        # a generated operator has an orthogonal eigenbasis; without one the
        # same value comes from the dense path
        f = Regularizer(2)
        fast = calc("F", gen4.operator, f, ctx4.profile)
        slow = calc("F", dense_twin(gen4.operator), f, ctx4.profile)
        assert fast.diagnostics.kernel_path == "eigenbasis"
        assert slow.diagnostics.kernel_path == "dense"
        assert fast.diagnostics.nodes == slow.diagnostics.nodes
        assert (fast.value - slow.value).norm() <= 1e-12 * max(
            1.0, slow.value.norm())

    def test_worst_conditioning_recorded(self, ctx4, gen4):
        ev = Evaluator(gen4.operator, ctx4.profile)
        for kind in ("S", "F"):
            cond = ev.calc(kind, Regularizer(2)).diagnostics.worst_cond
            assert math.isfinite(cond) and 1.0 <= cond <= 1e12
        # an H-infinity value reports the worst of its sub-integrals
        res = ev.hinf("Q", Power(1))
        e = Regularizer(res.diagnostics.regularizer_n)
        subs = [ev.calc(kind, g, tol=res.diagnostics.tol_achieved)
                for kind in ("S", "Q") for g in (e, Product(e, Power(1)))]
        assert res.diagnostics.worst_cond == max(
            r.diagnostics.worst_cond for r in subs)

    def test_right_form_rejects_nonintrinsic(self, ctx4, gen4):
        f = Scale(E1, Regularizer(2))
        with pytest.raises(NotIntrinsic):
            calc("S", gen4.operator, f, ctx4.profile, side="right")

    @pytest.mark.parametrize("f,side,conj,error", [
        (Scale(E1, Regularizer(2)), "right", False, NotIntrinsic),
        (Scale(E1, Regularizer(2)), "right", True, NotIntrinsic),
        (Regularizer(2), "middle", False, ValueError)],
        ids=["nonintrinsic-right", "nonintrinsic-right-conj",
             "unknown-side"])
    def test_refused_before_any_certificate(self, ctx4, gen4, monkeypatch,
                                            f, side, conj, error):
        ev = Evaluator(gen4.operator, ctx4.profile)

        def forbidden(*args, **kwargs):
            raise AssertionError("a certificate or a contour built before "
                                 "the refusal")

        monkeypatch.setattr(slicefun.StemFunction, "certify_decay", forbidden)
        monkeypatch.setattr(calculus, "contour_for", forbidden)
        with pytest.raises(error):
            ev.calc("S", f, side=side, conj=conj)

    def test_class_mismatch(self, ctx4, gen4):
        with pytest.raises(ClassMismatch):
            calc("S", gen4.operator, Power(1), ctx4.profile)

    def test_profile_validation(self, gen4):
        bad = TypeProfile(alpha=0.2, beta=1.0 / 3.0, omega=math.pi / 4,
                          c_phi={1.0: 1.0})
        with pytest.raises(ValueError):
            calc("S", gen4.operator, Regularizer(2), bad)
        bad2 = TypeProfile(alpha=1.0 / 3.0, beta=0.5, omega=math.pi / 4,
                           c_phi={1.0: 1.0})
        with pytest.raises(ValueError):
            calc("S", gen4.operator, Regularizer(2), bad2)

    @pytest.mark.parametrize("tol", [-1e-9, 0.0, math.nan])
    @pytest.mark.parametrize("value_of", [calc, hinf], ids=["calc", "hinf"])
    def test_rejects_nonpositive_tol(self, ctx4, gen4, monkeypatch, value_of,
                                     tol):
        # refused before a certificate is stored
        monkeypatch.setattr(slicefun, "_CERTIFICATES", slicefun.Memo())
        with pytest.raises(ValueError, match="tolerance"):
            value_of("S", gen4.operator, Regularizer(2), ctx4.profile, tol=tol)
        assert not slicefun._CERTIFICATES._store

    def test_infinite_tol_certifies_no_contour(self, ctx4, gen4):
        # tol = inf would give truncation radii of 1, no contour at all
        with pytest.raises(ValueError, match="finite tolerance"):
            calc("S", gen4.operator, Regularizer(2), ctx4.profile,
                 tol=math.inf)

    def test_angle_and_unit_independence(self, ctx4, gen4):
        f = Regularizer(2)
        omega = gen4.spec.omega
        theta = ctx4.theta
        vals = []
        for phi in (omega + 0.2, theta - 0.2):
            for unit in (E1, E12):
                vals.append(calc("F", gen4.operator, f, ctx4.profile,
                                 theta=theta, phi=phi, unit=unit).value)
        for v in vals[1:]:
            assert (v - vals[0]).norm() <= 1e-7

    def test_intrinsic_conjugation(self, ctx4, gen4):
        f = Regularizer(2)
        a = calc("Q", gen4.operator, f, ctx4.profile).value.conj()
        b = Evaluator(gen4.operator, ctx4.profile).calc("Q", f, conj=True).value
        assert (a - b).norm() <= 1e-12  # intrinsic f: the conjugated value
        assert (a - b.conj()).norm() <= 1e-12  # and the value is self-conjugate
        # direct evaluation on the conjugate operator agrees
        from qcalc.operators import estimate_type_profile
        prof_bar = estimate_type_profile(conj_op(gen4.operator),
                                         gen4.spec.omega,
                                         sorted(ctx4.profile.c_phi))
        c = calc("Q", conj_op(gen4.operator), f, prof_bar).value
        assert (a - c).norm() <= 1e-8

    def test_commutation_with_operator(self, ctx4, gen4):
        val = calc("S", gen4.operator, Regularizer(2), ctx4.profile).value
        tq = gen4.operator.as_qmatrix()
        assert (val @ tq - tq @ val).norm() <= 1e-9 * max(1.0, val.norm())

    def test_two_fprime_combination(self, ctx4, gen4):
        res = derivative_combination_residual(
            Evaluator(gen4.operator, ctx4.profile), Regularizer(3), tol=1e-9)
        assert res <= 1e-6

    def test_value_ignores_other_certificates(self):
        # certifying f for another class must not move the contour of a
        # later value, so that a value depends on its memo key only; each
        # side has its own Evaluator, since public calls with equal
        # arguments share one memoized value
        ctx = SuiteContext(generate_operator(OperatorSpec(dim=4, seed=7)))
        f = Regularizer(4)
        before = Evaluator(ctx.operator, ctx.profile).calc("S", f)
        f.certify_decay(1.0, -2.0, ctx.theta)
        after = Evaluator(ctx.operator, ctx.profile).calc("S", f)
        assert np.array_equal(after.value.components,
                              before.value.components)
        assert after.diagnostics.t_min == before.diagnostics.t_min
        assert after.diagnostics.nodes == before.diagnostics.nodes


# each kind on the eigenbasis path, and again on a dense twin of the
# operator, where _chain inverts the dense Q
CONJ_CASES = pytest.mark.parametrize(
    "kind,path", [(kind, path) for path in ("eigenbasis", "dense")
                  for kind in ("S", "Q", "P2", "F")],
    ids=["S", "Q", "P2", "F", "S-dense", "Q-dense", "P2-dense", "F-dense"])


class TestEvaluator:
    def test_memo_key_is_exact(self, ctx4, gen4):
        ev = Evaluator(gen4.operator, ctx4.profile)
        a = ev.calc("S", Scale(2.5, Regularizer(2))).value
        b = ev.calc("S", Scale(2.5000001, Regularizer(2))).value
        assert (a - b).norm() > 0.0
        assert (b - a * (2.5000001 / 2.5)).norm() <= 1e-8 * a.norm()

    def test_each_value_computed_once(self, ctx4, gen4, monkeypatch):
        seen = counting_integrate(monkeypatch)
        ev = Evaluator(gen4.operator, ctx4.profile)
        first = ev.calc("Q", Regularizer(2))
        assert ev.calc("Q", Regularizer(2)) is first
        assert len(seen) == 1
        ev.calc("Q", Regularizer(2), tol=1e-10)
        ev.calc("Q", Regularizer(2), side="right")
        assert len(seen) == 3

    @pytest.mark.parametrize("path", ["eigenbasis", "dense"])
    def test_result_holds_the_memoized_value(self, ctx4, gen4, path):
        # one result per value: held in its path's form, the same object
        # on every call, its matrix built once, from held
        t = gen4.operator if path == "eigenbasis" else dense_twin(
            gen4.operator)
        form = SpectralValue if path == "eigenbasis" else QuatMatrix
        ev = Evaluator(t, ctx4.profile)
        f = Regularizer(2)
        res = ev.calc("P2", f)
        assert type(res.held) is form
        assert ev.calc("P2", f) is res
        assert ev.calc_many([("S", f, False), ("P2", f, False)])[1] is res
        assert res.value is res.value
        assert np.array_equal(res.value.components,
                              res.held.matrix().components)
        assert f"{form.__name__}(n=4)" in repr(res)
        assert "0x" not in repr(res)
        value = ev.hinf("Q", Power(2))
        assert type(value.held) is form
        assert np.array_equal(value.value.components,
                              value.held.matrix().components)

    @pytest.mark.parametrize("first", [False, True])
    def test_intrinsic_conj_is_stored_once(self, ctx4, gen4, monkeypatch,
                                           first):
        # the conjugate of the value at T is stored under its own key: one
        # integral serves both, in either order, and a second conj call
        # returns the stored result
        seen = counting_integrate(monkeypatch)
        ev = Evaluator(gen4.operator, ctx4.profile)
        f = Regularizer(2)
        assert f.intrinsic
        got = {conj: ev.calc("Q", f, conj=conj) for conj in (first, not first)}
        bar, at_t = got[True], got[False]
        assert ev.calc("Q", f, conj=True) is bar
        assert len(seen) == 1
        assert np.array_equal(bar.held.v, at_t.held.conj().v)
        assert bar.diagnostics == at_t.diagnostics
        both = Evaluator(gen4.operator, ctx4.profile).calc_many(
            [("S", f, True), ("S", f, False)])
        assert len(seen) == 2
        assert np.array_equal(both[0].value.components,
                              both[1].value.conj().components)

    @CONJ_CASES
    def test_conj_of_nonintrinsic_runs_on_conj_operator(self, ctx4, gen4,
                                                        kind, path):
        # the value at conj(T) is an item of T's own batch with conjugated
        # kernel coefficients; it equals the value on conj_op(T) bit for
        # bit, on the dense path too, where _chain inverts the dense Q
        from qcalc.operators import estimate_type_profile
        f = Scale(E1, Regularizer(2))
        assert not f.intrinsic
        if path == "eigenbasis":
            t = gen4.operator
            ev = Evaluator(t, ctx4.profile)
            t_bar = conj_op(t)
            prof_bar = estimate_type_profile(t_bar, gen4.spec.omega,
                                             sorted(ctx4.profile.c_phi))
            want = calc(kind, t_bar, f, prof_bar)
        else:
            # the profile a dense twin would estimate has Frobenius
            # constants and other radii, so T's profile serves both
            t = dense_twin(gen4.operator)
            ev = Evaluator(t, ctx4.profile)
            want = Evaluator(conj_op(t), ctx4.profile, theta=ev.theta,
                             phi=ev.phi).calc(kind, f)
        got = ev.calc(kind, f, conj=True)
        assert got.diagnostics.kernel_path == path
        assert np.array_equal(got.value.components, want.value.components)
        assert repr(got.diagnostics) == repr(want.diagnostics)

    def test_one_batch_per_call(self, ctx4, gen4, monkeypatch):
        # values at conj(T) join T's own batch: one integrate or
        # integrate_many call per calc_many and per hinf
        calls = []
        for name in ("integrate", "integrate_many"):
            def counted(*args, name=name, real=getattr(calculus, name),
                        **kwargs):
                calls.append(name)
                return real(*args, **kwargs)
            monkeypatch.setattr(calculus, name, counted)
        f = Scale(E1, Power(2))
        assert not f.intrinsic
        Evaluator(gen4.operator, ctx4.profile).hinf("P2", f)
        assert calls == ["integrate_many"]
        calls.clear()
        g = Scale(E1, Regularizer(2))
        Evaluator(gen4.operator, ctx4.profile).calc_many(
            [(kind, g, conj) for kind in ("S", "Q", "P2", "F")
             for conj in (False, True)])
        assert calls == ["integrate_many"]

    @pytest.mark.parametrize("f", ["reg(2)", 2.0], ids=["str", "float"])
    def test_non_function_refused(self, ctx4, gen4, f):
        with pytest.raises(TypeError, match="StemFunction.*parse"):
            calc("S", gen4.operator, f, ctx4.profile)
        with pytest.raises(TypeError, match="StemFunction.*parse"):
            hinf("S", gen4.operator, f, ctx4.profile)

    def test_hinf_matches_module_level_bit_for_bit(self, ctx4, gen4):
        ev = Evaluator(gen4.operator, ctx4.profile)
        for kind in ("S", "Q", "P2", "F"):
            got = ev.hinf(kind, Power(2))
            want = hinf(kind, gen4.operator, Power(2), ctx4.profile)
            assert np.array_equal(got.value.components, want.value.components)
            assert got.diagnostics == want.diagnostics

    @CONJ_CASES
    def test_hinf_conj_rule(self, ctx4, gen4, kind, path):
        # a non-intrinsic f is evaluated on conj(T); an intrinsic one is
        # the entrywise conjugate of its value at T
        from qcalc.operators import estimate_type_profile
        f = Scale(E1, Power(2))
        if path == "eigenbasis":
            t = gen4.operator
            ev = Evaluator(t, ctx4.profile)
            t_bar = conj_op(t)
            prof_bar = estimate_type_profile(
                t_bar, ctx4.profile.omega, sorted(ctx4.profile.c_phi),
                alpha=ctx4.profile.alpha, beta=ctx4.profile.beta)
            want = hinf(kind, t_bar, f, prof_bar, theta=ev.theta, phi=ev.phi)
        else:
            t = dense_twin(gen4.operator)
            ev = Evaluator(t, ctx4.profile)
            want = Evaluator(conj_op(t), ctx4.profile, theta=ev.theta,
                             phi=ev.phi).hinf(kind, f)
        got = ev.hinf(kind, f, conj=True)
        assert got.diagnostics.kernel_path == path
        assert np.array_equal(got.value.components, want.value.components)
        assert repr(got.diagnostics) == repr(want.diagnostics)
        got = ev.hinf(kind, Power(2), conj=True)
        want = ev.hinf(kind, Power(2))
        assert np.array_equal(got.value.components,
                              want.value.conj().components)
        assert got.diagnostics == want.diagnostics

    def test_hinf_tolerance_cap_reuses_the_sub_values(self, ctx4, gen4,
                                                      monkeypatch):
        # every tol above the 1e-12 cap asks for the same sub-values, so
        # the same value and diagnostics, with no integral run again
        ev = Evaluator(gen4.operator, ctx4.profile)
        first = ev.hinf("S", Power(1))
        seen = counting_integrate(monkeypatch)
        for tol in (1e-9, 1e-12):
            again = ev.hinf("S", Power(1), tol=tol)
            assert np.array_equal(again.value.components,
                                  first.value.components)
            assert again.diagnostics == first.diagnostics
        assert not seen

    def test_hinf_product_rules_repeat_no_integral(self, ctx4, gen4,
                                                   monkeypatch):
        seen = counting_integrate(monkeypatch)
        product_rule_residuals(Evaluator(gen4.operator, ctx4.profile),
                               Regularizer(2),
                               Product(Power(1), Regularizer(3)),
                               regime="h_infinity", tol=1e-12)
        assert seen and len(set(seen)) == len(seen)

    def test_threads_share_the_first_stored_value(self, monkeypatch):
        # more threads than cores race for the same keys; a lost update
        # would hand two callers different objects for one key.  Values and
        # certificates (here of a rebuilt function per thread) alike
        from qcalc.operators import estimate_type_profile
        monkeypatch.setattr(slicefun, "_CERTIFICATES", slicefun.Memo())
        t = scalar_operator(Quaternion(0.8) + E1 * 0.4)
        profile = estimate_type_profile(t, math.pi / 4,
                                        [math.pi / 2, 3 * math.pi / 4])
        ev = Evaluator(t, profile)
        f = Regularizer(2)
        kinds = ["S", "Q", "P2", "F"]

        def work(i):  # each thread starts at another kind
            out = {kind: ev.calc(kind, f, tol=1e-6)
                   for kind in kinds[i % 4:] + kinds[:i % 4]}
            out["cert"] = Product(Regularizer(2), Power(1)).certify_decay(
                1.0, 1.0, ev.theta)
            return out

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(work, i) for i in range(8)]
                results = [fut.result(timeout=120) for fut in futures]
        finally:
            sys.setswitchinterval(interval)
        for kind in kinds:
            stored = ev.calc(kind, f, tol=1e-6)
            assert all(r[kind] is stored for r in results)
        assert all(r["cert"] is results[0]["cert"] for r in results)

    def test_threads_share_the_stored_conj_value(self):
        # a non-intrinsic f with conj is evaluated at conj(T) in T's own
        # batch and stored under its own key; threads that race to compute
        # it must all get the one stored conj value, the one a later
        # serial call returns
        from qcalc.operators import estimate_type_profile
        t = scalar_operator(Quaternion(0.8) + E1 * 0.4)
        profile = estimate_type_profile(t, math.pi / 4,
                                        [math.pi / 2, 3 * math.pi / 4])
        ev = Evaluator(t, profile)
        f = Scale(E1, Regularizer(2))
        assert not f.intrinsic
        kinds = ["S", "Q", "P2", "F"]

        def work(i):  # each thread starts at another kind
            return {kind: ev.calc(kind, f, tol=1e-6, conj=True)
                    for kind in kinds[i % 4:] + kinds[:i % 4]}

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(work, i) for i in range(8)]
                results = [fut.result(timeout=120) for fut in futures]
        finally:
            sys.setswitchinterval(interval)
        for kind in kinds:
            stored = ev.calc(kind, f, tol=1e-6, conj=True)
            assert all(r[kind] is stored for r in results)


def reference_identity_residuals(t, s, p):
    """The identity residuals from ten separate kernel() calls, the
    unfactored left-hand side and one _rel per comparison."""
    tbar = conj_op(t)
    w_inv = (p * p - 2.0 * s.re * p + Quaternion(s.norm_sq())).inverse()
    sbar = s.conj()

    def lhs(k_s, k_p):
        expr = (k_s.scalar_mul(p, "right") - k_p.scalar_mul(p, "right")
                - k_s.scalar_mul(sbar, "left") + k_p.scalar_mul(sbar, "left"))
        return expr.scalar_mul(w_inv, "right")

    sl_p, sr_s = kernel("S_L", t, p), kernel("S_R", t, s)
    q_s, q_p = kernel("Qc", t, s), kernel("Qc", t, p)
    sl_p_bar, sr_s_bar = kernel("S_L", tbar, p), kernel("S_R", tbar, s)
    p2l_p, p2r_s = kernel("P2_L", t, p), kernel("P2_R", t, s)
    fl_p, fr_s = kernel("F_L", t, p), kernel("F_R", t, s)
    l_q = lhs(q_s, q_p)
    return {
        "resolvent_identity_S": _rel(lhs(sr_s, sl_p), sr_s @ sl_p),
        "resolvent_identity_Q": max(_rel(l_q, q_s @ sl_p + sr_s_bar @ q_p),
                                    _rel(l_q, q_s @ sl_p_bar + sr_s @ q_p)),
        "resolvent_identity_P2": _rel(
            lhs(p2r_s, p2l_p),
            p2r_s @ sl_p + sr_s @ p2l_p - 2.0 * (q_s @ (sl_p - sl_p_bar))),
        "resolvent_identity_F": _rel(
            lhs(fr_s, fl_p), fr_s @ sl_p + sr_s @ fl_p - 4.0 * (q_s @ q_p)),
    }


@pytest.fixture(scope="module", params=[1, 4, 8, 16],
                ids=["n1", "n4", "n8", "n16"])
def identity_cases(request):
    gen = generate_operator(OperatorSpec(dim=request.param, seed=31))
    rng = np.random.default_rng(request.param)
    return gen.operator, [resolvent_pair(gen, rng) for _ in range(20)]


class TestResolventIdentities:
    def test_two_point_kernels_match_single_points(self, identity_cases):
        # one two-point batch of pairs, assembled with each point's unit and
        # conjugated for conj(T), gives the single-point kernels
        t, pairs = identity_cases
        tbar = conj_op(t)
        for s, p in pairs:
            points = (to_slice(s), to_slice(p))
            batch = kernel_batch(KERNEL_FAMILIES, t, [q.x for q in points],
                                 [q.y for q in points])
            for at, sp in enumerate(points):
                for kind in KERNEL_KINDS:
                    for conj, op in ((False, t), (True, tbar)):
                        want = kernel(kind, op, sp).components
                        a, b = (bq_conj(c[at]) if conj else c[at]
                                for c in batch[kernel_family(kind)])
                        got = assemble(kind, a, b, sp.j)
                        assert stack_fro(got - want) <= 1e-15 * stack_fro(want)
                # a family's pair does not depend on the others in the call
                values = kernel_batch(KERNEL_FAMILIES, t, [sp.x], [sp.y])
                for family in KERNEL_FAMILIES:
                    lone = kernel_batch((family,), t, [sp.x], [sp.y])[family]
                    for c, c_lone in zip(values[family], lone):
                        assert np.array_equal(c, c_lone)

    def test_residuals_match_ten_kernel_reference(self, identity_cases):
        # per eigenvalue on t, dense on its twin; the reference is dense
        t, pairs = identity_cases
        for s, p in pairs:
            want = reference_identity_residuals(t, s, p)
            for op in (t, dense_twin(t)):
                got = resolvent_identity_residuals(op, s, p)
                assert got.keys() == want.keys()
                for tag in want:
                    assert abs(got[tag] - want[tag]) <= 1e-13

    def test_diagonal_pairs_are_the_dense_ones_in_the_eigenbasis(
            self, identity_cases):
        # per eigenvalue, each family's pair is the diagonal of U^T A U and
        # U^T B U of the dense pair, whose off-diagonal parts vanish; the
        # mirror points y -> -y included
        t, pairs = identity_cases
        u = t.eigenbasis.u
        points = [to_slice(q) for pair in pairs for q in pair]
        x = np.array([q.x for q in points])
        y = np.array([q.y for q in points])
        x, y = np.concatenate([x, x]), np.concatenate([y, -y])
        dense = kernel_batch(KERNEL_FAMILIES, dense_twin(t), x, y)
        diagonal = kernel_batch(KERNEL_FAMILIES, t, x, y, diagonal=True)
        for family in KERNEL_FAMILIES:
            for d, c in zip(dense[family], diagonal[family]):
                assert c.shape == (len(x), 4, t.n)
                rot = u.T @ d @ u
                diag = np.diagonal(rot, axis1=-2, axis2=-1)
                off = rot - diag[..., None] * np.eye(t.n)
                scale = np.maximum(stack_fro(d), 1e-300)
                assert np.all(stack_fro(off) <= 1e-13 * scale)
                assert np.all(np.sqrt(np.sum((c - diag) ** 2, axis=(1, 2)))
                              <= 1e-13 * scale)

    def test_diagonal_check_sees_a_perturbed_family(self, identity_cases):
        # scaling one family's coefficients per eigenvalue by 1 + 1e-8
        # breaks an identity past the 1e-10 the suites ask, at 1e-11 or
        # more on every pair, where correct kernels leave about 1e-15; a
        # scaled P2 shows only through 2 Q (S - conj S), which shrinks with
        # T's imaginary parts (4.4e-11 at one pair of n = 1)
        t, pairs = identity_cases
        for family in KERNEL_FAMILIES:
            op = CommutingOperator(t.components)
            op.__dict__["numerator_diagonals"] = {
                fam: diag * (1.0 + 1e-8) if fam == family else diag
                for fam, diag in t.numerator_diagonals.items()}
            worst = [max(resolvent_identity_residuals(op, s, p).values())
                     for s, p in pairs]
            assert min(worst) > 1e-11 and max(worst) > 1e-10

    def test_one_inversion_per_call(self, gen4, rng, monkeypatch):
        # dense: one inversion of both points' Q_{c,z}(T) in one batch; per
        # eigenvalue: none, M is 1/q
        s, p = resolvent_pair(gen4, rng)
        calls, real_inv = [], np.linalg.inv

        def counting_inv(a):
            calls.append(np.shape(a))
            return real_inv(a)

        monkeypatch.setattr(np.linalg, "inv", counting_inv)
        resolvent_identity_residuals(dense_twin(gen4.operator), s, p)
        assert calls == [(2, 4, 4)]
        calls.clear()
        assert gen4.operator.eigenbasis is not None
        resolvent_identity_residuals(gen4.operator, s, p)
        assert calls == []

    def test_one_svd_per_call(self, gen4, rng, monkeypatch):
        # dense: the five numerators and the denominators past ||.||_F = 1
        # go to one batched SVD; per eigenvalue the norms are moduli
        s, p = resolvent_pair(gen4, rng)
        calls, real_svd = [], np.linalg.svd

        def counting_svd(a, *args, **kwargs):
            calls.append(np.shape(a))
            return real_svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        resolvent_identity_residuals(dense_twin(gen4.operator), s, p)
        assert len(calls) == 1 and 5 <= math.prod(calls[0][:-2]) <= 10
        calls.clear()
        assert gen4.operator.eigenbasis is not None
        resolvent_identity_residuals(gen4.operator, s, p)
        assert calls == []

    def test_rejects_spectrum_points(self, gen4, rng, unit_q):
        # a point on an eigensphere, with a unit of its own, is refused
        # whether it is s or p
        eig = to_slice(gen4.eigenvalues[0])
        on_sphere = Quaternion(eig.x) + unit_q * eig.y
        _, off = resolvent_pair(gen4, rng)
        for s, p in ((on_sphere, off), (off, on_sphere)):
            with pytest.raises(SpectrumHit):
                resolvent_identity_residuals(gen4.operator, s, p)

    def test_residuals_small(self, gen4, rng):
        for _ in range(50):
            s, p = resolvent_pair(gen4, rng)
            res = resolvent_identity_residuals(gen4.operator, s, p)
            assert max(res.values()) <= 1e-10

    def test_rejects_same_sphere(self, gen4):
        s = Quaternion(1.0, 2.0, 0.0, 0.0)
        p = Quaternion(1.0, 0.0, 2.0, 0.0)  # same sphere as s
        with pytest.raises(ValueError):
            resolvent_identity_residuals(gen4.operator, s, p)


def all_svd_rel(a, b):
    """_rel_stack's definition with an SVD of every denominator."""
    return stack_norm(a - b) / np.maximum(1.0, stack_norm(b))


class TestRelStack:
    @staticmethod
    def stacks(rng, n, lo, hi, norm=stack_fro):
        # 20 pairs (a, b) with norm(b) drawn from [lo, hi); a is b off by
        # 1e-3 relative
        b = rng.normal(size=(20, 4, n, n))
        b *= (rng.uniform(lo, hi, size=20) / norm(b))[:, None, None, None]
        return b + 1e-3 * rng.normal(size=b.shape) * stack_fro(b)[
            :, None, None, None], b

    @pytest.mark.parametrize("n", [3, 8])
    def test_skipped_denominators_are_exact(self, rng, n):
        # ||b||_F / ||b||_2 exceeds 1.04 on 2,000 generic b at n = 3, and
        # 1.4 at n = 8
        cases = {"fro <= 1": self.stacks(rng, n, 0.05, 1.0),
                 "fro > 1 > 2-norm": self.stacks(rng, n, 0.97, 0.99,
                                                 stack_norm),
                 "2-norm > 1": self.stacks(rng, n, 1.01, 20.0, stack_norm)}
        fro, two = (np.concatenate([norm(b) for _, b in cases.values()])
                    for norm in (stack_fro, stack_norm))
        assert np.all(fro[:20] <= 1.0) and np.all(two[40:] > 1.0)
        assert np.all(fro[20:40] > 1.0) and np.all(two[20:40] < 1.0)
        for a, b in cases.values():
            assert np.array_equal(_rel_stack(a, b), all_svd_rel(a, b))
            for a1, b1 in zip(a[:3], b[:3]):
                assert _rel(QuatMatrix(a1), QuatMatrix(b1)) == float(
                    all_svd_rel(a1, b1))
        # mixed in one call, with leading axes (3, 20)
        a, b = (np.stack([c[i] for c in cases.values()]) for i in (0, 1))
        assert np.array_equal(_rel_stack(a, b), all_svd_rel(a, b))

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("where", ["a", "b"])
    def test_nonfinite_entries_end_as_the_svd_ends(self, rng, value, where):
        # ||b||_F <= 1 is false for a NaN or inf b, so the SVD sees it as it
        # sees any a - b: a NaN ends in LinAlgError, an inf in a NaN
        # residual (1j * inf is NaN in adjoint)
        a, b = self.stacks(rng, 4, 0.05, 1.0)
        (a if where == "a" else b)[3, 1, 2, 0] = value

        def outcome(rel):
            try:  # 1j * inf warns in adjoint, on both sides alike
                with np.errstate(invalid="ignore"):
                    return rel(a, b)
            except np.linalg.LinAlgError as exc:
                return type(exc)

        got, want = outcome(_rel_stack), outcome(all_svd_rel)
        if math.isnan(value):
            assert got is want is np.linalg.LinAlgError
        else:
            assert np.array_equal(got, want, equal_nan=True)
            assert np.isnan(got[3]) and np.isfinite(np.delete(got, 3)).all()


class TestProductRules:
    @pytest.mark.parametrize("regime", ["decaying", "h_infinity"])
    def test_rules(self, ctx4, gen4, regime):
        g = Regularizer(2)
        f = Product(Power(1), Regularizer(3))
        tol = 1e-9 if regime == "decaying" else 1e-12
        res = product_rule_residuals(Evaluator(gen4.operator, ctx4.profile),
                                     g, f, regime=regime, tol=tol)
        assert max(res.values()) <= 1e-6

    def test_rejects_nonintrinsic_g(self, ctx4, gen4):
        g = Scale(E1, Regularizer(2))
        with pytest.raises(NotIntrinsic):
            product_rule_residuals(Evaluator(gen4.operator, ctx4.profile),
                                   g, Regularizer(2), regime="decaying",
                                   tol=1e-9)


class TestRecurrences:
    def test_reg4_recurrences(self, ctx4, gen4):
        res = power_recurrence_residuals(
            Evaluator(gen4.operator, ctx4.profile), Regularizer(4), 3,
            tol=1e-9)
        assert len(res) == 12
        assert max(res.values()) <= 1e-6

    def test_class_prerequisite(self, ctx4, gen4):
        # reg(2) decays like |s|^-2: s^3 reg(2) leaves the calculus class
        with pytest.raises(ClassMismatch):
            power_recurrence_residuals(
                Evaluator(gen4.operator, ctx4.profile), Regularizer(2), 3,
                tol=1e-9)


class TestHInfinity:
    @pytest.mark.parametrize("kind", ["S", "Q", "P2", "F"])
    def test_powers(self, ctx4, gen4, kind):
        for n in range(0, 6):
            res = hinf(kind, gen4.operator, Power(n), ctx4.profile)
            ref = power_reference(kind, gen4.operator, n)
            assert (res.value - ref).norm() <= 1e-6 * max(1.0, ref.norm())
            assert res.regime == "h_infinity"
            assert res.diagnostics.range_residual <= 1e-10

    @pytest.mark.parametrize("kind", ["S", "Q", "P2", "F"])
    @pytest.mark.parametrize("n", [-1, -2, 2.0])
    def test_power_reference_refuses_bad_exponents(self, gen4, kind, n):
        # the H-infinity checks and qbench compare against this reference,
        # so an exponent it has no closed form for must not give a matrix
        with pytest.raises(ValueError, match="nonnegative integer"):
            power_reference(kind, gen4.operator, n)

    def test_power_one_examples(self, ctx4, gen4):
        t = gen4.operator
        eye_scale = {"Q": -2.0, "P2": 4.0}
        for kind, factor in eye_scale.items():
            res = hinf(kind, t, Power(1), ctx4.profile)
            want = factor * power_reference("S", t, 0)
            assert (res.value - want).norm() <= 1e-6

    def test_regularizer_choice_recorded(self, ctx4, gen4):
        res = hinf("S", gen4.operator, Power(3), ctx4.profile)
        assert res.diagnostics.regularizer_n == 4

    def test_conditioning_recorded(self, ctx4, gen4):
        # ||e(T)^-1|| and the prefactor's condition number, which no
        # refusal reads: below 1e3 on the default family, past 1e8 for P2
        # and F of pow(5) on the annulus (0.1, 20) (9.6e11).  Inverted per
        # eigenvalue, that prefactor still gives the closed forms; the
        # full-matrix assembly missed them there by up to 1.8e2.  On the
        # eigenbasis path ||e(T)^-1|| is taken per eigenvalue, so it
        # matches that of T's full matrix to roundoff
        ctx = fresh_context()
        for n in (1, 3, 5):
            for kind in ("S", "Q", "P2", "F"):
                diag = ctx.evaluator.hinf(kind, Power(n)).diagnostics
                assert diag.prefactor_cond < 1e3
                assert diag.amplification == pytest.approx(
                    calculus._amplification(ctx.operator.as_qmatrix(),
                                            diag.regularizer_n), rel=1e-12)
        wide = SuiteContext(generate_operator(
            OperatorSpec(dim=4, seed=3, annulus=(0.1, 20.0))))
        for kind in ("P2", "F"):
            res = wide.evaluator.hinf(kind, Power(5))
            assert res.diagnostics.prefactor_cond > 1e8
            assert _rel(res.value,
                        power_reference(kind, wide.operator, 5)) <= 1e-6
        diag = calc("S", gen4.operator, Regularizer(2),
                    ctx4.profile).diagnostics
        assert diag.amplification is None and diag.prefactor_cond is None

    def test_regularizer_shift_invariance(self, ctx4, gen4):
        a = hinf("F", gen4.operator, Power(2), ctx4.profile)
        b = hinf("F", gen4.operator, Power(2), ctx4.profile,
                 regularizer_power=a.diagnostics.regularizer_n + 1)
        assert (a.value - b.value).norm() <= 1e-6

    def test_matches_decaying_on_decaying_input(self, ctx4, gen4):
        f = Regularizer(2)
        for kind in ("S", "Q", "P2", "F"):
            a = hinf(kind, gen4.operator, f, ctx4.profile).value
            b = calc(kind, gen4.operator, f, ctx4.profile).value
            assert (a - b).norm() <= 1e-7 * max(1.0, b.norm())

    @pytest.mark.parametrize("path", ["eigenbasis", "dense"])
    def test_radii_are_the_sub_integrals_extremes(self, path):
        # an H-infinity value reports the smallest t_min and the largest
        # t_max of the sub-values it is assembled from
        ctx = fresh_context()
        ev = ctx.evaluator if path == "eigenbasis" else Evaluator(
            dense_twin(ctx.operator), ctx.profile)
        for kind in ("S", "Q", "P2", "F"):
            diag = ev.hinf(kind, Power(3)).diagnostics
            e = Regularizer(diag.regularizer_n)
            named = {"e": e, "ef": Product(e, Power(3))}
            subs = [res.diagnostics for res in ev.calc_many(
                [(k, named[g], c) for k, g, c in calculus._HINF_VALUES[kind]],
                tol=diag.tol_achieved)]
            assert diag.t_min == min(d.t_min for d in subs)
            assert diag.t_max == max(d.t_max for d in subs)
            assert 0.0 < diag.t_min < 1.0 < diag.t_max

    def test_rejects_noninjective(self, ctx4):
        zero = CommutingOperator(np.zeros((4, 3, 3)))
        with pytest.raises(NotInjective):
            hinf("S", zero, Power(1), ctx4.profile)

    def test_overflowing_regularizer_inverse_is_typed(self, ctx4, gen4,
                                                      monkeypatch):
        # e(T)^-1 = (T^-1 + 2 + T)^500 overflows: NotInjective, with no
        # numpy warning, before any integral runs
        seen = counting_integrate(monkeypatch)
        with pytest.raises(NotInjective, match=re.escape("e(T)")):
            hinf("S", gen4.operator, Power(1), ctx4.profile,
                 regularizer_power=500)
        assert not seen

    def test_noise_amplifying_regularizer_is_refused(self, monkeypatch):
        # at annulus (10, 1e3) reg(160)(T) is tiny on the whole spectrum,
        # so ||e(T)^-1|| = 2.2e300 times the 2e-13 floor of the
        # sub-integrals is far above 1: NotInjective names the
        # amplification before any integral runs, where the value came
        # out with relative error 1.0 and no error
        ctx = SuiteContext(generate_operator(
            OperatorSpec(dim=2, seed=3, annulus=(10.0, 1e3))))
        seen = counting_integrate(monkeypatch)
        with pytest.raises(NotInjective,
                           match=re.escape("||e(T)^-1|| = 2.23e+300")):
            hinf("S", ctx.operator, Power(1), ctx.profile,
                 regularizer_power=160)
        assert not seen

    @pytest.mark.parametrize("n", [400, 10**20])
    def test_large_power_is_typed(self, n):
        # s^n overflows on the certificate grid (400) or is NaN there
        # (10^20): its growth certificate raises ClassMismatch, with no
        # numpy warning, before any contour is built
        ctx = SuiteContext(generate_operator(OperatorSpec(dim=2, seed=3)))
        with pytest.raises(ClassMismatch, match=re.escape(f"pow({n})")):
            hinf("S", ctx.operator, Power(n), ctx.profile)

    @pytest.mark.parametrize("entry, build", [
        (hinf, lambda: Power(103)),
        (calc, lambda: Product(Regularizer(110), Power(103)))],
        ids=["hinf-pow(103)", "calc-reg(110)*pow(103)"])
    def test_overflowing_stem_is_refused_at_certification(
            self, ctx4, gen4, monkeypatch, entry, build):
        # a stem that overflows on the certificate grid ends in ClassMismatch
        # naming f and theta, and no certificate of it is stored
        monkeypatch.setattr(slicefun, "_CERTIFICATES", slicefun.Memo())
        f = build()
        theta = Evaluator(gen4.operator, ctx4.profile).theta
        with pytest.raises(ClassMismatch) as info:
            entry("S", gen4.operator, f, ctx4.profile)
        assert repr(f) in str(info.value) and repr(theta) in str(info.value)
        stored = slicefun._CERTIFICATES._store
        assert not any(repr(f) in key[1] for key in stored)
        assert all(math.isfinite(cert.constant) for _, cert in stored.values())

    def test_nonfinite_integrand_fails_at_once(self, monkeypatch):
        # past |s| ~ 5e23 the stem of reg(14) * pow(13) is inf * 0, and its
        # S-contour reaches 1.4e25: the first quadrature level with a node
        # past 5e23 refuses it instead of refining to the cap, before any
        # value of the batch is accepted.  A lattice end sits inside t_max
        # by up to cosh(v) h in u, so that is the third level here
        ctx = SuiteContext(generate_operator(OperatorSpec(dim=2, seed=7)))
        levels, real_level = [], contour._level_value

        def counting_level(items, slices, phi, side, count, v):
            levels.append(([repr(f) for _, f, _ in items],
                           math.exp(math.sinh(v.max()))))
            return real_level(items, slices, phi, side, count, v)

        monkeypatch.setattr(contour, "_level_value", counting_level)
        with pytest.raises(ToleranceNotMet,
                           match=r"reg\(14\) \* pow\(13\)"):
            hinf("S", ctx.operator, Power(13), ctx.profile)
        assert [fs for fs, _ in levels] == [
            ["reg(14)", "(reg(14) * pow(13))"]] * 3
        assert [r > 5e23 for _, r in levels] == [False, False, True]

    def test_retightened_value_equals_separate_integrals(self, monkeypatch):
        # at annulus (0.1, 10) the norm of e(T)^-1 asks hinf("F", pow(5))
        # for a tol below the cap, at which its one batch runs; the value
        # and diagnostics are those of one integrate call per sub-value
        # (each side in its own Evaluator, so that neither reads the other's
        # memo)
        ctx = SuiteContext(generate_operator(
            OperatorSpec(dim=4, seed=3, annulus=(0.1, 10))))
        got = Evaluator(ctx.operator, ctx.profile).hinf("F", Power(5))
        assert got.diagnostics.tol_achieved < 1e-12
        monkeypatch.setattr(calculus, "integrate_many",
                            lambda items, **kw: [contour.integrate(*item, **kw)
                                                 for item in items])
        want = Evaluator(ctx.operator, ctx.profile).hinf("F", Power(5))
        assert np.array_equal(got.value.components, want.value.components)
        assert got.diagnostics == want.diagnostics

    def test_retightened_value_is_one_batch(self, monkeypatch):
        # the tighter tol comes from the closed-form e(T)^-1, so every
        # sub-value runs once, in one batch at that tol
        ctx = SuiteContext(generate_operator(
            OperatorSpec(dim=4, seed=3, annulus=(0.1, 10))))
        seen = counting_integrate(monkeypatch)
        batches, real_many = [], calculus.integrate_many

        def counting_batches(items, **kw):
            batches.append(len(items))
            return real_many(items, **kw)

        monkeypatch.setattr(calculus, "integrate_many", counting_batches)
        res = hinf("F", ctx.operator, Power(5), ctx.profile)
        assert batches == [len(seen)] == [6]
        assert all(key[-2] == res.diagnostics.tol_achieved < 1e-12
                   for key in seen)

    def test_kernel_path_is_reported(self, ctx4, gen4):
        res = hinf("Q", gen4.operator, Power(2), ctx4.profile)
        assert res.diagnostics.kernel_path == "eigenbasis"

    def test_nilpotent_rejected(self, ctx4):
        # real nilpotent component: injectivity fails although T is nonzero
        t0 = np.array([[0.0, 1.0], [0.0, 0.0]])
        zeros = np.zeros((2, 2))
        t = CommutingOperator(np.stack([t0, zeros, zeros, zeros]))
        with pytest.raises(NotInjective):
            hinf("S", t, Power(1), ctx4.profile)


def _held_t_pairs():
    """(name, T held per eigenvalue, T's full matrix): the default family
    at dims 1, 2, 4 and 8 and the spread annulus (0.1, 20), each for T and
    for conj(T)."""
    specs = [OperatorSpec(dim=dim, seed=3) for dim in (1, 2, 4, 8)] + [
        OperatorSpec(dim=4, seed=3, annulus=(0.1, 20.0))]
    for spec in specs:
        t = generate_operator(spec).operator
        held, dense = t.eigenbasis, dense_twin(t).as_qmatrix()
        name = f"dim{spec.dim}-{spec.annulus}"
        yield name, held, dense
        yield name + "-conj", held.conj(), dense.conj()


class TestHeldGuards:
    """The injectivity check and ||e(T)^-1|| are one formula on T's held
    form: per eigenvalue with an eigenbasis, on the full matrix without."""

    def test_paths_agree(self):
        # both accept T, and reg(1) to reg(9) alike
        for name, held, dense in _held_t_pairs():
            assert calculus._require_injective(held), name
            assert calculus._require_injective(dense), name
            for n in range(1, 10):
                assert calculus._amplification(held, n) == pytest.approx(
                    calculus._amplification(dense, n), rel=1e-12), (name, n)

    @pytest.mark.parametrize("path", ["eigenbasis", "dense"])
    @pytest.mark.parametrize("spec, power, message", [
        (None, None, "T is numerically non-injective"),
        (OperatorSpec(dim=4, seed=7), 500, "e(T)"),
        (OperatorSpec(dim=2, seed=3, annulus=(10.0, 1e3)), 160,
         "||e(T)^-1|| = 2.23e+300")], ids=["zero", "reg500", "reg160"])
    def test_both_paths_refuse(self, ctx4, monkeypatch, path, spec, power,
                               message):
        if spec is None:
            t, profile = CommutingOperator(np.zeros((4, 3, 3))), ctx4.profile
        else:
            ctx = SuiteContext(generate_operator(spec))
            t, profile = ctx.operator, ctx.profile
        if path == "dense":
            t = dense_twin(t)
        assert (t.eigenbasis is None) == (path == "dense")
        seen = counting_integrate(monkeypatch)
        with pytest.raises(NotInjective, match=re.escape(message)):
            hinf("S", t, Power(1), profile, regularizer_power=power)
        assert not seen


class TestSpectralAssembly:
    """With an eigenbasis every value is held per eigenvalue and each
    H-infinity formula is one quaternion identity per eigenvalue; the
    dense path assembles full matrices."""

    @pytest.mark.parametrize("dim", range(1, 9))
    def test_both_assemblies_agree(self, dim):
        gen = generate_operator(OperatorSpec(dim=dim, seed=300 + dim))
        profile = SuiteContext(gen).profile
        fast, slow = (Evaluator(t, profile)
                      for t in (gen.operator, dense_twin(gen.operator)))
        growing = [Power(n) for n in range(1, 6)] + [
            Scale(2.0, Power(2)), Sum(Power(1), Power(3))]
        for kind in ("S", "Q", "P2", "F"):
            calls = [(f, False) for f in growing]
            # a non-intrinsic f with conj is assembled at conj(T)
            calls.append((Scale(E1, Power(2)), True))
            for f, conj in calls:
                a, b = (ev.hinf(kind, f, conj=conj) for ev in (fast, slow))
                assert (a.diagnostics.kernel_path,
                        b.diagnostics.kernel_path) == ("eigenbasis", "dense")
                assert _rel(a.value, b.value) <= 1e-12, (kind, repr(f))
                # cond and ||e(T)^-1|| read from the eigenvalues
                for field in ("prefactor_cond", "amplification"):
                    assert getattr(a.diagnostics, field) == pytest.approx(
                        getattr(b.diagnostics, field), rel=1e-12)
            for side in ("left", "right"):
                a, b = (ev.calc(kind, Regularizer(2), side=side)
                        for ev in (fast, slow))
                assert _rel(a.value, b.value) <= 1e-12, (kind, side)

    @pytest.mark.parametrize("annulus, seed", [
        ((0.1, 20.0), 3), ((0.1, 20.0), 4), ((0.15, 15.0), 3),
        ((0.2, 15.0), 4)], ids=["0.1-20-seed3", "0.1-20-seed4",
                                "0.15-15-seed3", "0.2-15-seed4"])
    def test_spread_spectra_meet_the_closed_forms(self, annulus, seed):
        # spectra over two decades: the prefactor's condition number
        # reaches 9.6e11, and the full-matrix assembly missed 14 of these
        # 48 values, by up to 1.8e2, with no error
        ctx = SuiteContext(generate_operator(
            OperatorSpec(dim=4, seed=seed, annulus=annulus)))
        for n in (1, 3, 5):
            for kind in ("S", "Q", "P2", "F"):
                res = ctx.evaluator.hinf(kind, Power(n))
                assert res.diagnostics.kernel_path == "eigenbasis"
                ref = power_reference(kind, ctx.operator, n)
                assert _rel(res.value, ref) <= 1e-6, (kind, n)


def eigensphere_oracle(gen, kind, f):
    """f(T) for S, and D f, Dbar f and the Laplacian of f for Q, P2 and F,
    from the pointwise values at the generated eigenvalues."""
    if kind == "S":
        return gen.expected_diag([f.eval(q) for q in gen.eigenvalues])
    idx = {"Q": 0, "P2": 1, "F": 2}[kind]
    return gen.expected_diag([pointwise_fine(f, q)[idx]
                              for q in gen.eigenvalues])


class TestDoubleExponentialLattice:
    """The lattice v = j h with u = sinh v spends few nodes on the tails;
    a value accepted on it must still meet its target."""

    @pytest.mark.parametrize("spec", [
        OperatorSpec(dim=4, seed=7), OperatorSpec(dim=8, seed=7),
        OperatorSpec(dim=4, seed=3, annulus=(0.1, 10.0)),
        OperatorSpec(dim=4, seed=3, annulus=(0.2, 15.0)),
        OperatorSpec(dim=4, seed=3, annulus=(0.1, 20.0))],
        ids=["default-dim4", "default-dim8", "0.1-10", "0.2-15", "0.1-20"])
    def test_no_false_acceptance(self, spec):
        # every integral starts at the library's own first step h0 and is
        # accepted by the stop rule; each value lies within its target of
        # the eigensphere oracle, for every kind, on the default annulus
        # and on spectra spread over one to two decades
        gen = generate_operator(spec)
        profile = SuiteContext(gen).profile
        for f, tol in ((Regularizer(2), 1e-9),
                       (Product(Regularizer(4), Power(3)), 2e-13),
                       (Product(Regularizer(6), Power(5)), 2e-13)):
            for kind in ("S", "Q", "P2", "F"):
                got = calc(kind, gen.operator, f, profile, tol=tol).value
                want = eigensphere_oracle(gen, kind, f)
                assert (got - want).norm() <= tol, (kind, repr(f))

    def test_node_ceiling(self):
        # hinf of pow(5) evaluates 133, 256, 390 and 376 nodes for S, Q, P2
        # and F here, against 1,293, 2,057, 3,381 and 2,686 on the lattice
        # u = j h; a return to a dense lattice fails this
        ctx = fresh_context()
        counts = {"S": 133, "Q": 256, "P2": 390, "F": 376}
        for kind, count in counts.items():
            nodes = hinf(kind, ctx.operator, Power(5),
                         ctx.profile).diagnostics.nodes
            assert nodes <= 1.25 * count, kind


def fresh_context(dim=4, seed=7):
    """A context on a new operator object, whose evaluator slot is empty."""
    return SuiteContext(generate_operator(OperatorSpec(dim=dim, seed=seed)))


class TestSharedEvaluator:
    """Public calc and hinf keep one Evaluator on the operator object."""

    def test_four_kind_sweep_computes_each_sub_value_once(self, monkeypatch):
        ctx = fresh_context()
        t, profile, f = ctx.operator, ctx.profile, Power(3)
        calls = {"_require_injective": 0, "_amplification": 0}
        for name in calls:
            def counted(*args, name=name, real=getattr(calculus, name)):
                calls[name] += 1
                return real(*args)
            monkeypatch.setattr(calculus, name, counted)
        seen = counting_integrate(monkeypatch)
        shared = [hinf(kind, t, f, profile) for kind in ("S", "Q", "P2", "F")]
        # e(T) and (e f)(T) serve every kind, D e(T) Q, P2 and F, and
        # D (e f)(T) Q and F: each kind adds two integrals
        assert len(seen) == len(set(seen)) == 8
        assert calls == {"_require_injective": 1, "_amplification": 1}
        seen.clear()
        alone = [Evaluator(t, profile).hinf(kind, f)
                 for kind in ("S", "Q", "P2", "F")]
        assert len(seen) == 17
        for a, b in zip(shared, alone):
            assert np.array_equal(a.value.components, b.value.components)
            assert a.diagnostics == b.diagnostics

    def test_guards_are_kept_on_the_operator(self, monkeypatch):
        # the injectivity check and ||e(T)^-1|| depend on T and e only, so
        # a sweep at another angle, whose evaluator replaces the slot's,
        # and an evaluator of its own reuse them; a refusal is not kept
        ctx = fresh_context()
        t, profile, f = ctx.operator, ctx.profile, Power(3)
        calls = {"_require_injective": 0, "_amplification": 0}
        for name in calls:
            def counted(*args, name=name, real=getattr(calculus, name)):
                calls[name] += 1
                return real(*args)
            monkeypatch.setattr(calculus, name, counted)
        phi = Evaluator(t, profile).phi
        hinf("S", t, f, profile)
        hinf("Q", t, f, profile, phi=phi + 0.1)
        Evaluator(t, profile, phi=phi - 0.05).hinf("F", f)
        assert calls == {"_require_injective": 1, "_amplification": 1}
        zero = CommutingOperator(np.zeros((4, 2, 2)))
        for other in (0.0, 0.1, 0.0):
            with pytest.raises(NotInjective, match="T is numerically"):
                hinf("S", zero, Power(1), profile, phi=phi + other)
        for other in (0.0, 0.1):
            with pytest.raises(NotInjective, match=re.escape("e(T)")):
                hinf("S", t, f, profile, phi=phi + other,
                     regularizer_power=500)
        assert calls == {"_require_injective": 4, "_amplification": 3}

    def test_public_hinf_solves_its_own_prefactor(self, monkeypatch):
        # the sub-values are shared, the assembled result is not: a second
        # call solves the prefactor again, per eigenvalue on the eigenbasis
        # path and on full matrices on the dense one, and builds a new
        # value equal to the first
        ctx = fresh_context()
        real = calculus._solve_prefactor
        for t, held in ((ctx.operator, SpectralValue),
                        (dense_twin(ctx.operator), QuatMatrix)):
            profile, f = ctx.profile, Power(3)
            first = hinf("Q", t, f, profile)
            solves = []
            monkeypatch.setattr(
                calculus, "_solve_prefactor",
                lambda pref, bracket: solves.append((type(pref),
                                                     type(bracket)))
                or real(pref, bracket))
            seen = counting_integrate(monkeypatch)
            again = hinf("Q", t, f, profile)
            assert not seen and solves == [(held, held)]
            assert again is not first and again.value is not first.value
            assert np.array_equal(again.value.components,
                                  first.value.components)
            assert again.diagnostics == first.diagnostics
            monkeypatch.undo()

    def test_other_angle_profile_or_unit_replaces_the_slot(self, monkeypatch):
        ctx = fresh_context()
        t, profile, f = ctx.operator, ctx.profile, Regularizer(2)
        phi = Evaluator(t, profile).phi
        seen = counting_integrate(monkeypatch)
        first = calc("S", t, f, profile)
        # the angles are compared resolved: the default phi given explicitly
        # is the same evaluator
        assert calc("S", t, f, profile, phi=phi) is first
        assert len(seen) == 1
        # angles are checked on a slot hit too
        with pytest.raises(ValueError, match="omega < phi"):
            calc("S", t, f, profile, phi=4.0)
        for other in (dict(phi=phi + 0.1), dict(unit=E12),
                      dict(profile=replace(profile))):
            calc("S", t, f, **{"profile": profile, **other})
            again = calc("S", t, f, profile)
            assert again is not first
            assert np.array_equal(again.value.components,
                                  first.value.components)
            first = again
        assert len(seen) == 7

    def test_dropped_operator_is_collected(self):
        # the slot's evaluator holds its operator (ev.t), a reference cycle
        # that the collector breaks
        ctx = fresh_context(dim=2, seed=3)
        hinf("S", ctx.operator, Power(1), ctx.profile)
        calc("S", ctx.operator, Regularizer(2), ctx.profile)
        ref = weakref.ref(ctx.operator)
        del ctx
        gc.collect()
        assert ref() is None

    def test_failures_are_not_memoized(self, monkeypatch):
        ctx = fresh_context(dim=2, seed=3)
        seen = counting_integrate(monkeypatch)
        for _ in range(2):
            with pytest.raises(NotInjective, match=re.escape("e(T)")):
                hinf("S", ctx.operator, Power(1), ctx.profile,
                     regularizer_power=500)
        assert not seen
        # injectivity is checked before the regularizer is chosen, whose
        # certificate would refuse pow(10^20) with ClassMismatch
        zero = CommutingOperator(np.zeros((4, 2, 2)))
        for _ in range(2):
            with pytest.raises(NotInjective, match="T is numerically"):
                hinf("S", zero, Power(10**20), ctx.profile)
        # the slot still serves values after the failures
        got = hinf("S", ctx.operator, Power(1), ctx.profile)
        assert (got.value - ctx.operator.as_qmatrix()).norm() <= 1e-6

    def test_threads_on_the_public_path_match_a_serial_run(self):
        # threads race for the slot (two angles, so they also replace it)
        # and for the memo of the evaluator they share; every value is the
        # serial one bit for bit
        ctx = fresh_context()
        t, profile = ctx.operator, ctx.profile
        phis = (Evaluator(t, profile).phi, Evaluator(t, profile).phi + 0.1)
        fs = (Power(2), Product(Power(1), Regularizer(1)))
        kinds = ["S", "Q", "P2", "F"]
        serial = {(kind, i, phi): Evaluator(t, profile, phi=phi).hinf(
            kind, f).value.components
            for kind in kinds for i, f in enumerate(fs) for phi in phis}

        def work(i):  # each thread starts at another kind
            phi = phis[i % 2]
            return {(kind, j, phi): hinf(kind, t, f, profile, phi=phi)
                    .value.components
                    for kind in kinds[i % 4:] + kinds[:i % 4]
                    for j, f in enumerate(fs)}

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(work, i) for i in range(8)]
                results = [fut.result(timeout=120) for fut in futures]
        finally:
            sys.setswitchinterval(interval)
        for got in results:
            assert len(got) == 8
            for key, value in got.items():
                assert np.array_equal(value, serial[key])


class TestScalarOperatorAgainstPointwise:
    """Dimension-1 operators reduce every calculus to pointwise arithmetic."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_all_kinds(self, seed):
        rng = np.random.default_rng(seed)
        ang = rng.uniform(0.1, 0.6)
        mod = rng.uniform(0.6, 1.8)
        from qcalc.quaternion import random_unit_imaginary
        j = random_unit_imaginary(rng)
        q = Quaternion(mod * math.cos(ang)) + j * (mod * math.sin(ang))
        t = CommutingOperator(q.components.reshape(4, 1, 1))
        from qcalc.operators import estimate_type_profile
        prof = estimate_type_profile(t, math.pi / 4,
                                     [math.pi / 2, 3 * math.pi / 4])
        f = Regularizer(2)
        res = calc("S", t, f, prof)
        s_val = res.value.entry(0, 0)
        assert (s_val - f.eval(q)).norm() <= 1e-8
        # a 1 x 1 pseudo-resolvent has ||R|| ||R^-1|| = 1
        assert abs(res.diagnostics.worst_cond - 1.0) <= 1e-12
        fine = pointwise_fine(f, q)
        for kind, want in zip(("Q", "P2", "F"), fine):
            got = calc(kind, t, f, prof).value.entry(0, 0)
            assert (got - want).norm() <= 1e-7
