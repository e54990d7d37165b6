import math

import numpy as np
import pytest

from conftest import scalar_operator
from qcalc.contour import (OperatorKernel, SectorContour, contour_for,
                           integrate, integrate_fixed, tail_radius)
from qcalc.errors import NoDecayMetadata, ToleranceNotMet
from qcalc.operators import QuatMatrix
from qcalc.quaternion import E1, E2, ONE, Quaternion
from qcalc.slicefun import Regularizer, Scale, Sum

E12 = Quaternion(0, 1, 1, 0) * (1.0 / math.sqrt(2.0))


def cauchy_setup(tol=1e-9):
    """Scalar operator q = 1, f = reg(1) and its (1, 1) decay certificate."""
    t = scalar_operator(ONE)
    f = Regularizer(1)
    return t, f, f.certify_decay(1.0, 1.0, 2.4)


class TestTailRadius:
    def test_spec_values(self):
        t_min, t_max = tail_radius(1.0, 1.0, 1e-8)
        assert t_min == pytest.approx(2.5e-10, rel=1e-12)
        assert t_max == pytest.approx(4e9, rel=1e-12)

        t_min, _ = tail_radius(2.0, 1.0, 1e-8)
        assert t_min == pytest.approx(math.sqrt(2.5e-10), rel=1e-12)

    @pytest.mark.parametrize("delta,c,tol", [(0.5, 3.0, 1e-6), (1.0, 1.0, 1e-8),
                                             (2.0, 10.0, 1e-9), (0.2, 0.5, 1e-7)])
    def test_tail_bound_postcondition(self, delta, c, tol):
        t_min, t_max = tail_radius(delta, c, tol)
        assert 2.0 * c * t_min ** delta / delta <= tol / 20.0 * (1 + 1e-12)
        assert 2.0 * c * t_max ** (-delta) / delta <= tol / 20.0 * (1 + 1e-12)

    def test_degenerate_rejected(self):
        t_min, t_max = tail_radius(1.0, 1.0, math.inf)
        assert (t_min, t_max) == (1.0, 1.0)
        with pytest.raises(ValueError):
            SectorContour(1.0, E1, t_min, t_max)
        with pytest.raises(ValueError):
            tail_radius(0.0, 1.0, 1e-8)


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
            tail_radius(1.0, 1.0, tol)
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

    def test_tolerance_not_met(self):
        t, f, _ = cauchy_setup()
        contour = SectorContour(1.2, E1, 1e-8, 1e8, tol=1e-30)
        with pytest.raises(ToleranceNotMet):
            integrate(OperatorKernel("S_L", t), f, contour)

    def test_point_callable_matches_batched(self):
        t, f, _ = cauchy_setup()
        contour = SectorContour(1.2, E1, 1e-6, 1e6)
        fast = OperatorKernel("S_L", t)
        slow = lambda p: fast(p)  # plain SlicePoint -> QuatMatrix callable
        va, _ = integrate_fixed(fast, f, contour, 24)
        vb, _ = integrate_fixed(slow, f, contour, 24)
        assert (va - vb).norm() <= 1e-13

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


class TestMomentForm:
    @pytest.mark.parametrize("t_min,t_max,panels", [(1e-6, 1e6, 12),
                                                    (1e-20, 1e50, 24)])
    @pytest.mark.parametrize("kind,side", KIND_SIDES)
    def test_matches_point_kernels(self, gen4, kind, side, t_min, t_max,
                                   panels):
        # the second contour spans the truncation radii hinf reaches
        contour = SectorContour(1.7, E12, t_min, t_max)
        f = Regularizer(2)
        k = OperatorKernel(kind, gen4.operator)
        va, _ = integrate_fixed(k, f, contour, panels, side=side)
        vb, _ = integrate_fixed(lambda p: k(p), f, contour, panels, side=side)
        assert (va - vb).norm() <= 1e-13 * max(1.0, vb.norm())

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
        va, _ = integrate_fixed(OperatorKernel(kind, scalar_operator(q)), f,
                                contour, 16)
        vb, _ = integrate_fixed(
            lambda p: QuatMatrix.from_scalar(closed(p.point()), 1), f,
            contour, 16)
        if kind == "Qc":  # the Q-calculus integrates -2 Q_{c,s}^-1
            va, vb = -2.0 * va, -2.0 * vb
        assert (va - vb).norm() <= 1e-13 * max(1.0, vb.norm())
