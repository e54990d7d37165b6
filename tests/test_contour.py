import math
import warnings
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from conftest import dense_twin, scalar_operator
from qcalc.contour import (OperatorKernel, SectorContour, _level_value,
                           _one_sided_radius, contour_for, integrate,
                           integrate_fixed)
from qcalc.errors import (NoDecayMetadata, NotIntrinsic, SpectrumHit,
                          ToleranceNotMet)
from qcalc.operators import (KERNEL_KINDS, CommutingOperator, _chain,
                             kernel_batch, operator_from_text,
                             operator_to_text)
from qcalc.quaternion import E1, E2, ONE, Quaternion, to_slice
from qcalc.slicefun import Regularizer, Scale, Sum
from qcalc.suites import OperatorSpec, generate_operator

E12 = Quaternion(0, 1, 1, 0) * (1.0 / math.sqrt(2.0))


def cauchy_setup(tol=1e-9):
    """Scalar operator q = 1, f = reg(1) and its (1, 1) decay certificate."""
    t = scalar_operator(ONE)
    f = Regularizer(1)
    return t, f, f.certify_decay(1.0, 1.0, 2.4)


class TestTailRadius:
    def test_spec_values(self):
        assert _one_sided_radius(1.0, 1.0, 1e-8, "min") == pytest.approx(
            2.5e-10, rel=1e-12)
        assert _one_sided_radius(1.0, 1.0, 1e-8, "max") == pytest.approx(
            4e9, rel=1e-12)
        assert _one_sided_radius(2.0, 1.0, 1e-8, "min") == pytest.approx(
            math.sqrt(2.5e-10), rel=1e-12)

    @pytest.mark.parametrize("delta,c,tol", [(0.5, 3.0, 1e-6), (1.0, 1.0, 1e-8),
                                             (2.0, 10.0, 1e-9), (0.2, 0.5, 1e-7)])
    def test_tail_bound_postcondition(self, delta, c, tol):
        t_min = _one_sided_radius(delta, c, tol, "min")
        t_max = _one_sided_radius(delta, c, tol, "max")
        assert 2.0 * c * t_min ** delta / delta <= tol / 20.0 * (1 + 1e-12)
        assert 2.0 * c * t_max ** (-delta) / delta <= tol / 20.0 * (1 + 1e-12)

    def test_degenerate_rejected(self):
        assert _one_sided_radius(1.0, 1.0, math.inf, "min") == 1.0
        assert _one_sided_radius(1.0, 1.0, math.inf, "max") == 1.0
        with pytest.raises(ValueError):
            SectorContour(1.0, E1, 1.0, 1.0)
        with pytest.raises(ValueError):
            _one_sided_radius(0.0, 1.0, 1e-8, "min")
        # contour_for reports the degenerate pair as a typed error
        _, _, cert = cauchy_setup()
        with pytest.raises(ToleranceNotMet):
            contour_for(cert, (2.0, 1.0, 1.0), math.pi / 2, E1, tol=math.inf)

    @pytest.mark.parametrize("constant,tol", [(math.inf, 1e-12),
                                              (math.nan, 1e-12),
                                              (1e305, 1e-20), (1e305, 1e-12)])
    def test_unrepresentable_constant(self, constant, tol):
        # the bound tol / (40 C) is NaN or underflows to 0, or t_max
        # overflows: typed, not a ZeroDivisionError or OverflowError from
        # the power
        _, _, cert = cauchy_setup()
        with pytest.raises(ToleranceNotMet):
            contour_for(replace(cert, constant=constant), (2.0, 1.0, 1.0),
                        math.pi / 2, E1, tol=tol)

    def test_radii_collapsing_to_one(self):
        # decay rates so large that both radii round to 1: typed, not the
        # ValueError of the SectorContour invariant
        _, _, cert = cauchy_setup()
        with pytest.raises(ToleranceNotMet):
            contour_for(replace(cert, delta=1e20), (2.0, 1.0, 1.0),
                        math.pi / 2, E1)


class TestContourValidation:
    def test_invariants(self):
        with pytest.raises(ValueError):
            SectorContour(0.0, E1, 1e-6, 1e6)
        with pytest.raises(ValueError):
            SectorContour(1.0, ONE, 1e-6, 1e6)
        with pytest.raises(ValueError):
            SectorContour(1.0, E1, 2.0, 1e6)

    @pytest.mark.parametrize("tol", [-1e-9, 0.0, math.nan])
    def test_rejects_nonpositive_tol(self, tol):
        # before any radius is computed; tol = inf (no refinement) stays
        _, _, cert = cauchy_setup()
        with pytest.raises(ValueError, match="tolerance"):
            contour_for(cert, (2.0, 1.0, 1.0), math.pi / 2, E1, tol=tol)
        with pytest.raises(ValueError, match="tolerance"):
            _one_sided_radius(1.0, 1.0, tol, "max")
        with pytest.raises(ValueError, match="tolerance"):
            SectorContour(1.0, E1, 1e-6, 1e6, tol=tol)
        assert SectorContour(1.0, E1, 1e-6, 1e6, tol=math.inf).tol == math.inf

    def test_contour_for_rejects_uncovered_kernel(self):
        cert = Regularizer(1).certify_decay(1.0, 1.0, 2.4)
        # kernel growing faster at infinity than the certificate decays
        with pytest.raises(NoDecayMetadata):
            contour_for(cert, (1.0, 1.0, -3.0), 1.0, E1)


class TestCauchyFormula:
    def test_reproduces_value(self):
        t, f, cert = cauchy_setup()
        contour = contour_for(cert, (2.0, 1.0, 1.0), math.pi / 2, E1, tol=1e-9)
        value, info = integrate(OperatorKernel("S_L", t), f, contour)
        got = value.components[:, 0, 0] / (2.0 * math.pi)
        assert abs(got[0] - 0.25) <= 1e-8
        assert np.abs(got[1:]).max() <= 1e-10
        assert info["tol_achieved"] <= 1e-9

    def test_unit_independence(self):
        t, f, cert = cauchy_setup()
        vals = []
        for unit in (E1, E2, E12):
            contour = contour_for(cert, (2.0, 1.0, 1.0), math.pi / 2, unit)
            value, _ = integrate(OperatorKernel("S_L", t), f, contour)
            vals.append(value.components[:, 0, 0])
        for v in vals[1:]:
            assert np.abs(v - vals[0]).max() <= 1e-8

    def test_angle_independence(self):
        t, f, cert = cauchy_setup()
        vals = []
        for phi in (0.9, 1.4, 2.0):
            contour = contour_for(cert, (2.0, 1.0, 1.0), phi, E1)
            value, _ = integrate(OperatorKernel("S_L", t), f, contour)
            vals.append(value.components[:, 0, 0])
        for v in vals[1:]:
            assert np.abs(v - vals[0]).max() <= 1e-8

    def test_q_kernel_matches_fine_oracle(self):
        # (1/2pi) * integral of -2 Q^-1 ds f equals D f pointwise
        from qcalc.slicefun import pointwise_fine
        j = E1
        q = Quaternion(math.cos(math.pi / 8)) + j * math.sin(math.pi / 8)
        t = scalar_operator(q)
        f = Regularizer(2)
        cert = f.certify_decay(1.0, 1.0, 2.4)
        contour = contour_for(cert, (4.0, 2.0 / 3.0, 2.0 / 3.0), 1.2, E2)
        value, _ = integrate(OperatorKernel("Qc", t), f, contour)
        got = Quaternion.from_components(-2.0 * value.components[:, 0, 0]
                                         / (2.0 * math.pi))
        want, _, _ = pointwise_fine(f, q)
        assert (got - want).norm() <= 1e-8


class TestQuadratureMechanics:
    def test_linearity(self):
        t, _, _ = cauchy_setup()
        f = Regularizer(1)
        g = Regularizer(2)
        h = Sum(Scale(2.5, f), g)
        contour = SectorContour(1.2, E1, 1e-8, 1e8)
        k = OperatorKernel("S_L", t)
        vf, _ = integrate_fixed(k, f, contour, 64)
        vg, _ = integrate_fixed(k, g, contour, 64)
        vh, _ = integrate_fixed(k, h, contour, 64)
        lin = 2.5 * vf + vg
        assert (vh - lin).norm() <= 1e-12 * max(1.0, lin.norm())

    def test_doubling_improves(self):
        t, f, _ = cauchy_setup()
        k = OperatorKernel("S_L", t)
        contour = SectorContour(1.2, E1, 1e-8, 1e8)
        want, _ = integrate_fixed(f=f, k=k, contour=contour, panels=512)
        errors = []
        for panels in (1, 2, 4):
            v, _ = integrate_fixed(k, f, contour, panels)
            errors.append((v - want).norm())
        assert errors[1] <= 0.5 * errors[0]
        assert errors[2] <= 0.5 * errors[1]

    @pytest.mark.parametrize("t_min,t_max,start", [(0.1, 10.0, 8),
                                                   (1e-20, 1e20, 47)])
    def test_first_level_panel_count(self, t_min, t_max, start):
        # max(8, ceil(ln(t_max / t_min) / 2)) panels, then one bisection,
        # which any difference meets at an infinite target
        t, f, _ = cauchy_setup()
        contour = SectorContour(1.2, E1, t_min, t_max, tol=math.inf)
        _, info = integrate(OperatorKernel("S_L", t), f, contour)
        assert info["panels"] == 2 * start

    def test_tolerance_not_met(self, gen4):
        # at n = 4 consecutive levels keep differing by about 1e-15; a
        # scalar operator can agree bit for bit, which meets any target
        contour = SectorContour(1.2, E1, 1e-8, 1e8, tol=1e-30)
        with pytest.raises(ToleranceNotMet):
            integrate(OperatorKernel("S_L", gen4.operator), Regularizer(2),
                      contour)

    def test_nonfinite_difference_fails_at_once(self):
        # a NaN level ends the refinement at its first difference: 8 panels,
        # then 16, where the cap is 8 * 2**9
        nan_kernel = lambda x, y, unit: np.full((len(x), 4, 1, 1), np.nan)
        contour = SectorContour(1.2, E1, 1e-2, 1e2)
        with pytest.raises(ToleranceNotMet, match="not finite at 16 panels"):
            integrate(nan_kernel, Regularizer(1), contour)

    def test_point_callable_matches_batched(self):
        t, f, _ = cauchy_setup()
        contour = SectorContour(1.2, E1, 1e-6, 1e6)
        fast = OperatorKernel("S_L", t)
        slow = partial(kernel_batch, "S_L", t)  # (x, y, unit) -> stack
        va, _ = integrate_fixed(fast, f, contour, 24)
        vb, _ = integrate_fixed(slow, f, contour, 24)
        assert (va - vb).norm() <= 1e-13

    def test_point_callable_takes_one_call_per_ray(self):
        # 12 panels of 16 nodes: one call with J and one with -J, each on
        # all 192 nodes, not one call per node and ray
        t, f, _ = cauchy_setup()
        contour = SectorContour(1.2, E12, 1e-6, 1e6)
        calls = []

        def recording(x, y, unit):
            calls.append((len(x), len(y), unit))
            return kernel_batch("S_L", t, x, y, unit)

        integrate_fixed(recording, f, contour, 12)
        assert [c[:2] for c in calls] == [(192, 192), (192, 192)]
        assert calls[0][2] == E12 and calls[1][2] == -1.0 * E12

    def test_right_sandwich_order(self):
        # for an intrinsic f and the scalar operator the two orders agree
        t, f, _ = cauchy_setup()
        contour = SectorContour(1.2, E1, 1e-8, 1e8)
        va, _ = integrate_fixed(OperatorKernel("S_L", t), f, contour, 64)
        vb, _ = integrate_fixed(OperatorKernel("S_R", t), f, contour, 64,
                                side="right")
        assert (va - vb).norm() <= 1e-12


# each kernel on the side its calculus integrates it (Qc serves both)
KIND_SIDES = [("S_L", "left"), ("S_R", "right"), ("Qc", "left"),
              ("Qc", "right"), ("P2_L", "left"), ("P2_R", "right"),
              ("F_L", "left"), ("F_R", "right")]


# the non-intrinsic left slice function the left forms are checked on
NONINTRINSIC = Scale(Quaternion(0.0, 0.3, 0.5, 0.1), Regularizer(2))


class TestMomentForm:
    @pytest.mark.parametrize("t_min,t_max,panels", [(1e-6, 1e6, 12),
                                                    (1e-20, 1e50, 24)])
    @pytest.mark.parametrize("kind,side", KIND_SIDES)
    def test_matches_point_kernels(self, gen4, unit_q, kind, side, t_min,
                                   t_max, panels):
        # the J-free moment form against the point kernels, which are
        # assembled with the unit on both rays; the second contour spans
        # the truncation radii hinf reaches
        k = OperatorKernel(kind, gen4.operator)
        point = partial(kernel_batch, kind, gen4.operator)
        fs = [Regularizer(2)] + ([NONINTRINSIC] if side == "left" else [])
        for unit in (E1, E12, unit_q):
            contour = SectorContour(1.7, unit, t_min, t_max)
            for f in fs:
                va, _ = integrate_fixed(k, f, contour, panels, side=side)
                vb, _ = integrate_fixed(point, f, contour, panels, side=side)
                assert (va - vb).norm() <= 1e-13 * max(1.0, vb.norm())

    @pytest.mark.parametrize("kind,side", KIND_SIDES)
    def test_unit_is_not_read(self, gen4, unit_q, kind, side):
        # on fixed nodes the value is the same bit for bit in every slice
        k = OperatorKernel(kind, gen4.operator)
        f = NONINTRINSIC if side == "left" else Regularizer(2)
        vals = [integrate_fixed(k, f, SectorContour(1.7, unit, 1e-6, 1e6),
                                12, side=side)[0].components
                for unit in (E1, E12, unit_q)]
        for v in vals[1:]:
            assert np.array_equal(v, vals[0])

    def test_right_form_refuses_nonintrinsic(self, gen4):
        # f ds_J K_R depends on J unless f is intrinsic (the kernels on the
        # other side from their suffix: TestKernelPaths::test_paths_agree)
        contour = SectorContour(1.7, E12, 1e-6, 1e6)
        for kind in ("S_R", "Qc", "P2_R", "F_R"):
            with pytest.raises(NotIntrinsic):
                integrate(OperatorKernel(kind, gen4.operator),
                          Scale(E1, Regularizer(2)), contour, side="right")

    @pytest.mark.parametrize("kind", ["S_L", "Qc", "F_L", "P2_L"])
    def test_scalar_closed_forms(self, kind):
        # q in the contour's slice commutes with every node s, so the
        # kernels are (s - q)^-1, Q_{c,s}(q)^-1, -4 (s - q)^-2 (s - qbar)^-1
        # and 4 (s - q0) (s - q)^-2 (s - qbar)^-1
        q = Quaternion(0.9) + E12 * 0.4
        closed = {
            "S_L": lambda s: (s - q).inverse(),
            "Qc": lambda s: (s * s - 2.0 * q.re * s
                             + Quaternion(q.norm_sq())).inverse(),
            "F_L": lambda s: -4.0 * ((s - q) * (s - q) * (s - q.conj())).inverse(),
            "P2_L": lambda s: 4.0 * (s - Quaternion(q.re)) * (
                (s - q) * (s - q) * (s - q.conj())).inverse(),
        }[kind]
        contour = SectorContour(1.2, E12, 1e-8, 1e8)
        f = Regularizer(2)

        def closed_stack(x, y, unit):  # the (m, 4, 1, 1) kernel stack
            return np.array([closed(Quaternion(xi) + unit * yi).components
                             for xi, yi in zip(x, y)])[:, :, None, None]

        va, _ = integrate_fixed(OperatorKernel(kind, scalar_operator(q)), f,
                                contour, 16)
        vb, _ = integrate_fixed(closed_stack, f, contour, 16)
        if kind == "Qc":  # the Q-calculus integrates -2 Q_{c,s}^-1
            va, vb = -2.0 * va, -2.0 * vb
        assert (va - vb).norm() <= 1e-13 * max(1.0, vb.norm())


class TestKernelPaths:
    # the eigenbasis path (orthogonal U, one O(n) pair per node) against
    # the dense one (one n x n inversion per node) on the same nodes
    @pytest.mark.parametrize("kind", KERNEL_KINDS)
    @pytest.mark.parametrize("side", ["left", "right"])
    def test_paths_agree(self, kind, side):
        # a kernel on the other side from its suffix is refused on both
        contour = SectorContour(1.7, E12, 1e-6, 1e6)
        f = Regularizer(2)
        for n in range(1, 9):
            t = generate_operator(OperatorSpec(dim=n, seed=100 + n)).operator
            fast, slow = OperatorKernel(kind, t), OperatorKernel(kind, dense_twin(t))
            assert (fast.path, slow.path) == ("eigenbasis", "dense")
            if (kind, side) not in KIND_SIDES:
                for k in (fast, slow):
                    with pytest.raises(ValueError, match="moment form"):
                        integrate_fixed(k, f, contour, 12, side=side)
                continue
            va, _ = integrate_fixed(fast, f, contour, 12, side=side)
            vb, _ = integrate_fixed(slow, f, contour, 12, side=side)
            assert (va - vb).norm() <= 1e-13 * max(1.0, vb.norm())
            _, cond_a = _level_value(fast, f, contour, side, 12, n)
            _, cond_b = _level_value(slow, f, contour, side, 12, n)
            assert cond_a == pytest.approx(cond_b, rel=1e-10)

    @pytest.mark.parametrize("dim", [1, 4, 8])
    def test_same_spectrum_hits(self, dim):
        # near an eigensphere both paths reject exactly the same points
        gen = generate_operator(OperatorSpec(dim=dim, seed=200 + dim))
        t, outcomes = gen.operator, []
        for q in gen.eigenvalues[:2]:
            p = to_slice(q)
            for d in 10.0 ** -np.arange(2, 8):
                for dx, dy in ((d, 0.0), (0.0, d), (-d, 0.0)):
                    x, y = np.array([p.x + dx]), np.array([p.y + dy])
                    hits = []
                    for diagonal in (False, True):
                        try:
                            _chain(t, x, y, upto="Qc", diagonal=diagonal)
                            hits.append(False)
                        except SpectrumHit:
                            hits.append(True)
                    assert hits[0] == hits[1], (d, dx, dy)
                    outcomes.append(hits[0])
        assert any(outcomes) == (dim > 1)  # a 1 x 1 Q has condition 1

    def test_singular_node_is_spectrum_hit(self):
        # a node on an eigensphere makes Q_{c,z}(T) singular: SpectrumHit,
        # and no numpy warning on the way, on either path
        q = Quaternion(0.8, 0.3, 0.0, 0.0)
        t = CommutingOperator(np.stack([np.diag([q.components[i], 2.0 * i])
                                        for i in range(4)]))
        assert t.eigenbasis is not None
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for diagonal in (True, False):
                with pytest.raises(SpectrumHit):
                    _chain(t, np.array([0.8, 1.0]), np.array([0.3, 1.0]),
                           upto="Qc", diagonal=diagonal)
                with pytest.raises(SpectrumHit):
                    _chain(t, np.array([np.nan]), np.array([0.3]),
                           upto="Qc", diagonal=diagonal)

    @pytest.mark.parametrize("kind,side", KIND_SIDES)
    def test_fallback_operators_keep_dense_values(self, kind, side):
        # a non-normal S^-1 D S operator and a loaded normal operator with a
        # non-symmetric T0 have no orthogonal eigenbasis: the moment form
        # runs dense and matches the point kernels
        rng = np.random.default_rng(5)
        s = rng.normal(size=(3, 3)) + 3.0 * np.eye(3)
        d = [np.diag(v) for v in ([0.9, 1.3, 0.7], [0.2, 0.0, 0.3],
                                  [0.0, 0.4, 0.1], [0.1, 0.0, 0.0])]
        nonnormal = CommutingOperator(
            np.stack([np.linalg.solve(s, di @ s) for di in d]))
        rot = np.array([[1.0, -0.5], [0.5, 1.0]])
        loaded = operator_from_text(operator_to_text(CommutingOperator(
            np.stack([rot, 0.3 * rot, np.zeros((2, 2)), np.zeros((2, 2))]))))
        contour = SectorContour(1.7, E12, 1e-6, 1e6)
        f = Regularizer(2)
        for t in (nonnormal, loaded):
            assert t.eigenbasis is None
            k = OperatorKernel(kind, t)
            assert k.path == "dense"
            va, _ = integrate_fixed(k, f, contour, 12, side=side)
            vb, _ = integrate_fixed(partial(kernel_batch, kind, t), f,
                                    contour, 12, side=side)
            assert (va - vb).norm() <= 1e-13 * max(1.0, vb.norm())
