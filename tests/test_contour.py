import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

import qcalc.contour as contour_module
from conftest import (dense_twin, exp_j, lattice, point_kernel,
                      reference_level, scalar_operator)
from qcalc.contour import (OperatorKernel, SectorContour, _first_step,
                           _index_range, _level_value, _one_sided_radius,
                           contour_for, integrate, integrate_many)
from qcalc.errors import (NoDecayMetadata, NotIntrinsic, SpectrumHit,
                          ToleranceNotMet)
from qcalc.operators import (KERNEL_FAMILIES, KERNEL_KINDS,
                             CommutingOperator, QuatMatrix, SpectralValue,
                             _chain, kernel_family, operator_from_text,
                             operator_to_text)
from qcalc.quaternion import E1, E2, ONE, Quaternion, to_slice
from qcalc.slicefun import Power, Product, Regularizer, Scale, Sum
from qcalc.suites import OperatorSpec, generate_operator

E12 = Quaternion(0, 1, 1, 0) * (1.0 / math.sqrt(2.0))

# first lattice step of the hand-built contours; a fixed pass (fixed_pass)
# replaces it with twice its own step
H0 = 0.25


def cauchy_setup(tol=1e-9):
    """Scalar operator q = 1 (spectral angle 0), f = reg(1) and its (1, 1)
    decay certificate on the sector of angle 2.4."""
    t = scalar_operator(ONE)
    f = Regularizer(1)
    return t, f, f.certify_decay(1.0, 1.0, 2.4)


def fixed_pass(k, f, contour, h, side="left"):
    """The one trapezoidal pass at step h over contour's whole lattice, by
    the library's own rule: integrate from h0 = 2 h at tol = inf evaluates
    the lattice at 2 h, then the new nodes at h, and accepts the first
    halving's difference (see the contour module).  Returns (the value's
    QuatMatrix, info)."""
    value, info = integrate(k, f, replace(contour, h0=2 * h, tol=math.inf),
                            side=side)
    return value.matrix(), info


class TestTailRadius:
    def test_spec_values(self):
        # 2 C t**delta / delta = tol / 2e4 at each end
        assert _one_sided_radius(1.0, 1.0, 1e-8, "min") == pytest.approx(
            2.5e-13, rel=1e-12)
        assert _one_sided_radius(1.0, 1.0, 1e-8, "max") == pytest.approx(
            4e12, rel=1e-12)
        assert _one_sided_radius(2.0, 1.0, 1e-8, "min") == pytest.approx(
            math.sqrt(5e-13), rel=1e-12)

    @pytest.mark.parametrize("delta,c,tol", [
        (0.5, 3.0, 1e-6), (1.0, 1.0, 1e-8), (2.0, 10.0, 1e-9),
        (0.2, 0.5, 1e-7), (8.5, 40.0, 1e-12)])
    def test_tail_bound_postcondition(self, delta, c, tol):
        # both tails together stay below tol / 1e4
        t_min = _one_sided_radius(delta, c, tol, "min")
        t_max = _one_sided_radius(delta, c, tol, "max")
        assert 2.0 * c * t_min ** delta / delta <= tol / 2e4 * (1 + 1e-12)
        assert 2.0 * c * t_max ** (-delta) / delta <= tol / 2e4 * (1 + 1e-12)

    def test_degenerate_rejected(self):
        # an infinite tolerance certifies no radius
        for side in ("min", "max"):
            with pytest.raises(ValueError, match="finite tolerance"):
                _one_sided_radius(1.0, 1.0, math.inf, side)
        with pytest.raises(ValueError):
            SectorContour(1.0, E1, 1.0, 1.0, H0)
        with pytest.raises(ValueError):
            _one_sided_radius(0.0, 1.0, 1e-8, "min")
        _, _, cert = cauchy_setup()
        with pytest.raises(ValueError, match="finite tolerance"):
            contour_for(cert, (2.0, 1.0, 1.0), math.pi / 2, 0.0, E1,
                        tol=math.inf)

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
                        math.pi / 2, 0.0, E1, tol=tol)

    def test_radii_collapsing_to_one(self):
        # decay rates so large that both radii round to 1: typed, not the
        # ValueError of the SectorContour invariant
        _, _, cert = cauchy_setup()
        with pytest.raises(ToleranceNotMet):
            contour_for(replace(cert, delta0=1e20, deltainf=1e20),
                        (2.0, 1.0, 1.0), math.pi / 2, 0.0, E1)

    def test_each_end_uses_its_own_rate(self):
        # reg(3) * pow(1) on the (1, 1) class: delta0 = 4, deltainf = 2;
        # a kernel of orders (1/3, 1) leaves 4 + 2/3 at zero and 2 at
        # infinity, each end's radius from its own rate
        cert = Product(Power(1), Regularizer(3)).certify_decay(1.0, 1.0, 2.4)
        assert (cert.delta0, cert.deltainf) == (4.0, 2.0)
        contour = contour_for(cert, (3.0, 1.0 / 3.0, 1.0), math.pi / 2,
                              0.0, E1, tol=1e-9)
        c = 3.0 * cert.constant
        assert contour.t_min == _one_sided_radius(4.0 + 2.0 / 3.0, c, 1e-9,
                                                  "min")
        assert contour.t_max == _one_sided_radius(2.0, c, 1e-9, "max")


class TestContourValidation:
    def test_invariants(self):
        with pytest.raises(ValueError):
            SectorContour(0.0, E1, 1e-6, 1e6, H0)
        with pytest.raises(ValueError):
            SectorContour(1.0, ONE, 1e-6, 1e6, H0)
        with pytest.raises(ValueError):
            SectorContour(1.0, E1, 2.0, 1e6, H0)
        for h0 in (0.0, -0.25, math.inf, math.nan):
            with pytest.raises(ValueError, match="lattice step"):
                SectorContour(1.0, E1, 1e-6, 1e6, h0)

    @pytest.mark.parametrize("tol", [-1e-9, 0.0, math.nan])
    def test_rejects_nonpositive_tol(self, tol):
        # before any radius is computed; a SectorContour keeps tol = inf,
        # which accepts the first halving (see fixed_pass)
        _, _, cert = cauchy_setup()
        with pytest.raises(ValueError, match="tolerance"):
            contour_for(cert, (2.0, 1.0, 1.0), math.pi / 2, 0.0, E1,
                        tol=tol)
        with pytest.raises(ValueError, match="tolerance"):
            _one_sided_radius(1.0, 1.0, tol, "max")
        with pytest.raises(ValueError, match="tolerance"):
            SectorContour(1.0, E1, 1e-6, 1e6, H0, tol=tol)
        assert SectorContour(1.0, E1, 1e-6, 1e6, H0,
                             tol=math.inf).tol == math.inf

    def test_contour_for_rejects_uncovered_kernel(self):
        cert = Regularizer(1).certify_decay(1.0, 1.0, 2.4)
        # kernel growing faster at infinity than the certificate decays
        with pytest.raises(NoDecayMetadata):
            contour_for(cert, (1.0, 1.0, -3.0), 1.0, 0.0, E1)


class TestCauchyFormula:
    def test_reproduces_value(self):
        t, f, cert = cauchy_setup()
        contour = contour_for(cert, (2.0, 1.0, 1.0), math.pi / 2, 0.0, E1,
                              tol=1e-9)
        value, info = integrate(OperatorKernel("S", t), f, contour)
        got = value.matrix().components[:, 0, 0] / (2.0 * math.pi)
        assert abs(got[0] - 0.25) <= 1e-8
        assert np.abs(got[1:]).max() <= 1e-10
        assert info["tol_achieved"] <= 1e-9

    def test_unit_independence(self):
        t, f, cert = cauchy_setup()
        vals = []
        for unit in (E1, E2, E12):
            contour = contour_for(cert, (2.0, 1.0, 1.0), math.pi / 2, 0.0,
                                  unit)
            value, _ = integrate(OperatorKernel("S", t), f, contour)
            vals.append(value.matrix().components[:, 0, 0])
        for v in vals[1:]:
            assert np.abs(v - vals[0]).max() <= 1e-8

    def test_angle_independence(self):
        t, f, cert = cauchy_setup()
        vals = []
        for phi in (0.9, 1.4, 2.0):
            contour = contour_for(cert, (2.0, 1.0, 1.0), phi, 0.0, E1)
            value, _ = integrate(OperatorKernel("S", t), f, contour)
            vals.append(value.matrix().components[:, 0, 0])
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
        contour = contour_for(cert, (4.0, 2.0 / 3.0, 2.0 / 3.0), 1.2,
                              math.pi / 8, E2)
        value, _ = integrate(OperatorKernel("Qc", t), f, contour)
        got = Quaternion.from_components(
            -2.0 * value.matrix().components[:, 0, 0] / (2.0 * math.pi))
        want, _, _ = pointwise_fine(f, q)
        assert (got - want).norm() <= 1e-8


def record_levels(monkeypatch):
    """Wrap contour._level_value; returns the list that receives the
    lattice points v of every level evaluated."""
    levels = []

    def recording(*args):
        levels.append(args[5])
        return _level_value(*args)

    monkeypatch.setattr("qcalc.contour._level_value", recording)
    return levels


def roundoff_contour(gen):
    """A contour of gen's operator whose target, 1e-30, is below roundoff,
    with the strip step of phi = 1.2 and theta = pi (Regularizer(2) is
    analytic off s = -1)."""
    strip = min(1.2 - gen.spec.omega, math.pi - 1.2)
    return SectorContour(1.2, E1, 1e-8, 1e8, _first_step(strip, 1e-30),
                         tol=1e-30)


class TestQuadratureMechanics:
    def test_linearity(self):
        t, _, _ = cauchy_setup()
        f = Regularizer(1)
        g = Regularizer(2)
        h = Sum(Scale(2.5, f), g)
        contour = SectorContour(1.2, E1, 1e-8, 1e8, H0)
        k = OperatorKernel("S", t)
        vf, _ = fixed_pass(k, f, contour, 0.125)
        vg, _ = fixed_pass(k, g, contour, 0.125)
        vh, _ = fixed_pass(k, h, contour, 0.125)
        lin = 2.5 * vf + vg
        assert (vh - lin).norm() <= 1e-12 * max(1.0, lin.norm())

    def test_halving_improves(self):
        # the trapezoidal error falls like exp(-2 pi d / h) on the strip of
        # half-width d, so each halving at least raises it to the power 3/2;
        # radii far out keep the lattice ends below the errors compared
        t, f, _ = cauchy_setup()
        k = OperatorKernel("S", t)
        contour = SectorContour(1.2, E1, 1e-20, 1e20, H0)
        want, _ = fixed_pass(f=f, k=k, contour=contour, h=1.0 / 64)
        errors = []
        for h in (1.0, 0.5, 0.25):
            v, _ = fixed_pass(k, f, contour, h)
            errors.append((v - want).norm())
        assert errors[1] <= errors[0] ** 1.5
        assert errors[2] <= errors[1] ** 1.5

    @pytest.mark.parametrize("tol", [1e-9, 1e-12, 0.1])
    def test_first_step(self, monkeypatch, tol):
        # contour_for takes h0 = min(1, 2 pi d / ln(10 / tol)) from the strip
        # d = min(phi - omega, theta - phi); integrate evaluates the whole
        # lattice at h0, then the new nodes of one halving, which any
        # difference meets at an infinite target
        t, f, cert = cauchy_setup()  # theta = 2.4
        contour = contour_for(cert, (2.0, 1.0, 1.0), 1.5, 0.5, E1, tol=tol)
        assert contour.h0 == pytest.approx(
            min(1.0, 2.0 * math.pi * 0.9 / math.log(10.0 / tol)), rel=1e-14)
        levels = record_levels(monkeypatch)
        _, info = integrate(OperatorKernel("S", t), f,
                            replace(contour, tol=math.inf))
        h = contour.h0 / 2.0
        assert info["h"] == h
        first = len(lattice(contour, contour.h0))
        assert [len(u) for u in levels] == [first,
                                            len(lattice(contour, h)) - first]
        assert info["nodes"] == len(lattice(contour, h))

    def test_first_step_rule(self):
        assert _first_step(0.9, 1e-9) == pytest.approx(
            2.0 * math.pi * 0.9 / math.log(1e10), rel=1e-15)
        assert _first_step(0.9, 1.0) == 1.0
        assert _first_step(0.9, math.inf) == 1.0
        _, _, cert = cauchy_setup()
        for omega, phi in ((0.5, 0.5), (1.0, 0.5), (0.5, 2.4)):
            with pytest.raises(ValueError, match="omega < phi < theta"):
                contour_for(cert, (2.0, 1.0, 1.0), phi, omega, E1)

    def test_levels_nest(self, gen4, monkeypatch):
        # a halving keeps every old node: the nodes of all levels up to the
        # accepted one are exactly the lattice at the accepted h, and the
        # value is the single pass at that h up to the order of summation
        seen = record_levels(monkeypatch)
        k, f = OperatorKernel("F", gen4.operator), Regularizer(2)
        contour = SectorContour(1.2, E1, 1e-8, 1e8, 1.0, tol=1e-10)
        value, info = integrate(k, f, contour)
        h = info["h"]
        assert len(seen) >= 3 and h == 2.0 ** (1 - len(seen))
        nodes = np.sort(np.concatenate(seen))
        assert np.array_equal(nodes, lattice(contour, h))
        assert info["nodes"] == len(nodes)
        fixed, _ = fixed_pass(k, f, contour, h)
        assert (value.matrix() - fixed).norm() <= 1e-14 * max(1.0,
                                                              fixed.norm())

    @pytest.mark.parametrize("path", ["eigenbasis", "dense"])
    @pytest.mark.parametrize("family", KERNEL_FAMILIES)
    def test_fixed_pass_is_one_level(self, gen4, family, path):
        # the fixed pass the tests take (integrate from h0 = 2 h at
        # tol = inf) is the one-level sum over the whole lattice at h, up
        # to the order of summation, and counts that lattice's nodes; on
        # the eigenbasis path the level sum is per eigenvalue, in U
        t = gen4.operator if path == "eigenbasis" else dense_twin(
            gen4.operator)
        k, f, h = OperatorKernel(family, t), Regularizer(2), 0.125
        assert k.path == path
        contour = SectorContour(1.2, E1, 1e-8, 1e8, H0)
        u = lattice(contour, h)
        for side in ("left", "right"):
            value, info = fixed_pass(k, f, contour, h, side=side)
            [(total, _)] = _level_value([(k, f, contour)], [(0, len(u))],
                                        contour.phi, side, len(u), u)
            want = (QuatMatrix(h * total) if path == "dense"
                    else SpectralValue(t.eigenbasis.u, h * total).matrix())
            assert (value - want).norm() <= 1e-13 * want.norm()
            assert info["nodes"] == len(u)

    def test_tolerance_not_met(self, gen4):
        # at n = 4 consecutive levels keep differing by about 1e-16; a
        # scalar operator can agree bit for bit, which meets any target
        with pytest.raises(ToleranceNotMet):
            integrate(OperatorKernel("S", gen4.operator), Regularizer(2),
                      roundoff_contour(gen4))

    def test_stall_stops_within_four_levels(self, gen4, monkeypatch):
        # the difference reaches roundoff at the first halving and then
        # stops shrinking, and the first halving whose difference does not
        # fall ends the refinement, not the cap of nine halvings; how many
        # roundoff differences fall before one rises is chance, so the
        # levels are checked against the rule, not counted
        sums = []

        def recording(*args):
            out = _level_value(*args)
            sums.append(out[0][0])
            return out

        monkeypatch.setattr("qcalc.contour._level_value", recording)
        contour = roundoff_contour(gen4)
        with pytest.raises(ToleranceNotMet, match="stalled at h = "):
            integrate(OperatorKernel("S", gen4.operator), Regularizer(2),
                      contour)
        assert len(sums) <= contour_module._MAX_REFINEMENTS
        h, value, diffs = contour.h0, contour.h0 * sums[0], []
        for total in sums[1:]:
            h /= 2.0
            refined = 0.5 * value + h * total
            diffs.append(float(np.sqrt(np.sum((refined - value) ** 2))))
            value = refined
        scale = float(np.sqrt(np.sum(value * value)))
        assert max(diffs) <= 1e-15 * scale
        assert all(b < a for a, b in zip(diffs, diffs[1:-1]))
        assert diffs[-1] >= diffs[-2]

    def test_nonfinite_difference_fails_at_once(self, monkeypatch):
        # a NaN level ends the refinement at its first difference: the
        # lattice at h0 = 0.25, then the halving to 0.125
        monkeypatch.setattr("qcalc.contour._moment_value",
                            lambda k, z, stem, g, scale, side:
                            np.full((4, 1, 1), np.nan))
        t, f, _ = cauchy_setup()
        contour = SectorContour(1.2, E1, 1e-2, 1e2, H0)
        with pytest.raises(ToleranceNotMet, match="not finite at h = 0.125"):
            integrate(OperatorKernel("S", t), f, contour)

    def test_point_callable_matches_batched(self):
        t, f, _ = cauchy_setup()
        contour = SectorContour(1.2, E1, 1e-6, 1e6, H0)
        va, _ = fixed_pass(OperatorKernel("S", t), f, contour, 0.25)
        vb = reference_level(point_kernel("S_L", t), f, contour, 0.25,
                             "left")
        assert (va - vb).norm() <= 1e-13

    def test_refuses_point_callable(self):
        # the quadrature takes an OperatorKernel only; the J-based point
        # kernel is the tests' reference (conftest.reference_level)
        t, f, _ = cauchy_setup()
        contour = SectorContour(1.2, E1, 1e-6, 1e6, H0)
        point = point_kernel("S_L", t)
        with pytest.raises(TypeError, match="OperatorKernel"):
            integrate(point, f, contour)

    @pytest.mark.parametrize("kind", ["S_L", "Q", "X"])
    def test_refuses_kind_that_is_not_a_family(self, kind):
        # a kernel kind such as S_L is not a family: the side of the
        # integral picks the family's kernel
        t, f, _ = cauchy_setup()
        contour = SectorContour(1.2, E1, 1e-6, 1e6, H0)
        k = OperatorKernel(kind, t)
        with pytest.raises(ValueError, match="unknown kernel family"):
            integrate(k, f, contour)
        with pytest.raises(ValueError, match="unknown kernel family"):
            integrate(k, f, contour, side="right")
        with pytest.raises(ValueError, match="unknown kernel family"):
            integrate_many([(OperatorKernel("S", t), f, contour),
                            (k, f, contour)])

    def test_right_sandwich_order(self):
        # for an intrinsic f and the scalar operator the two orders agree
        t, f, _ = cauchy_setup()
        contour = SectorContour(1.2, E1, 1e-8, 1e8, H0)
        k = OperatorKernel("S", t)
        va, _ = fixed_pass(k, f, contour, 0.125)
        vb, _ = fixed_pass(k, f, contour, 0.125, side="right")
        assert (va - vb).norm() <= 1e-12


def test_exp_j():
    # the reference's ray factor e^{J phi}
    v = exp_j(E1, math.pi / 3)
    assert math.isclose(v.s0, 0.5, rel_tol=1e-12)
    assert math.isclose(v.s1, math.sqrt(3) / 2, rel_tol=1e-12)
    assert math.isclose(v.norm(), 1.0, rel_tol=1e-12)


# each kernel on the side that picks it from its family (Qc serves both)
KIND_SIDES = [("S_L", "left"), ("S_R", "right"), ("Qc", "left"),
              ("Qc", "right"), ("P2_L", "left"), ("P2_R", "right"),
              ("F_L", "left"), ("F_R", "right")]


# the non-intrinsic left slice function the left forms are checked on
NONINTRINSIC = Scale(Quaternion(0.0, 0.3, 0.5, 0.1), Regularizer(2))


class TestMomentForm:
    @pytest.mark.parametrize("t_min,t_max,per_unit", [(1e-6, 1e6, 12),
                                                      (1e-20, 1e50, 24)])
    @pytest.mark.parametrize("kind,side", KIND_SIDES)
    def test_matches_point_kernels(self, gen4, unit_q, kind, side, t_min,
                                   t_max, per_unit):
        # the J-free moment form against the J-based reference on the point
        # kernels, which are assembled with the unit on both rays; the
        # second contour spans the truncation radii hinf reaches; per_unit
        # is the number of lattice points per unit of v
        k = OperatorKernel(kernel_family(kind), gen4.operator)
        point = point_kernel(kind, gen4.operator)
        fs = [Regularizer(2)] + ([NONINTRINSIC] if side == "left" else [])
        for unit in (E1, E12, unit_q):
            contour = SectorContour(1.7, unit, t_min, t_max, H0)
            for f in fs:
                va, _ = fixed_pass(k, f, contour, 1.0 / per_unit,
                                        side=side)
                vb = reference_level(point, f, contour, 1.0 / per_unit, side)
                assert (va - vb).norm() <= 1e-13 * max(1.0, vb.norm())

    @pytest.mark.parametrize("kind,side", KIND_SIDES)
    def test_unit_is_not_read(self, gen4, unit_q, kind, side):
        # on fixed nodes the value is the same bit for bit in every slice
        k = OperatorKernel(kernel_family(kind), gen4.operator)
        f = NONINTRINSIC if side == "left" else Regularizer(2)
        vals = [fixed_pass(k, f, SectorContour(1.7, unit, 1e-6, 1e6, H0),
                                0.25, side=side)[0].components
                for unit in (E1, E12, unit_q)]
        for v in vals[1:]:
            assert np.array_equal(v, vals[0])

    def test_right_form_refuses_nonintrinsic(self, gen4):
        # f ds_J K_R depends on J unless f is intrinsic
        contour = SectorContour(1.7, E12, 1e-6, 1e6, H0)
        for family in KERNEL_FAMILIES:
            with pytest.raises(NotIntrinsic):
                integrate(OperatorKernel(family, gen4.operator),
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
        contour = SectorContour(1.2, E12, 1e-8, 1e8, H0)
        f = Regularizer(2)

        def closed_stack(x, y, unit):  # the (m, 4, 1, 1) kernel stack
            return np.array([closed(Quaternion(xi) + unit * yi).components
                             for xi, yi in zip(x, y)])[:, :, None, None]

        va, _ = fixed_pass(OperatorKernel(kernel_family(kind),
                                               scalar_operator(q)), f,
                                contour, 0.25)
        vb = reference_level(closed_stack, f, contour, 0.25, "left")
        if kind == "Qc":  # the Q-calculus integrates -2 Q_{c,s}^-1
            va, vb = -2.0 * va, -2.0 * vb
        assert (va - vb).norm() <= 1e-13 * max(1.0, vb.norm())


class TestKernelPaths:
    # the eigenbasis path (orthogonal U, one O(n) pair per node) against
    # the dense one (one n x n inversion per node) on the same nodes
    @pytest.mark.parametrize("kind", KERNEL_KINDS)
    @pytest.mark.parametrize("side", ["left", "right"])
    def test_paths_agree(self, kind, side):
        # kind's family on side, of T, or of conj(T) where the suffix of
        # kind names the other side: the kernels of T and of conj(T) of
        # the S, P2 and F families on both sides
        conj = kind.endswith("_R" if side == "left" else "_L")
        contour = SectorContour(1.7, E12, 1e-6, 1e6, H0)
        f = Regularizer(2)
        for n in range(1, 9):
            t = generate_operator(OperatorSpec(dim=n, seed=100 + n)).operator
            fast, slow = (OperatorKernel(kernel_family(kind), op, conj)
                          for op in (t, dense_twin(t)))
            assert (fast.path, slow.path) == ("eigenbasis", "dense")
            va, _ = fixed_pass(fast, f, contour, 0.25, side=side)
            vb, _ = fixed_pass(slow, f, contour, 0.25, side=side)
            assert (va - vb).norm() <= 1e-13 * max(1.0, vb.norm())
            u = lattice(contour, 0.25)
            [(_, cond_a)], [(_, cond_b)] = (
                _level_value([(k, f, contour)], [(0, len(u))], contour.phi,
                             side, len(u), u) for k in (fast, slow))
            assert cond_a == pytest.approx(cond_b, rel=1e-10)

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_value_is_held_in_its_path_form(self, gen4, side):
        # integrate and integrate_many return the accepted sum as the path
        # holds it: per eigenvalue with an eigenbasis, else the matrix;
        # matrix() of either is the QuatMatrix
        contour = replace(WIDE, tol=math.inf)
        f = Regularizer(2)
        for family in KERNEL_FAMILIES:
            got = {}
            for t, form in ((gen4.operator, SpectralValue),
                            (dense_twin(gen4.operator), QuatMatrix)):
                k = OperatorKernel(family, t)
                value, _ = integrate(k, f, contour, side=side)
                [(batched, _)] = integrate_many([(k, f, contour)], side=side)
                assert type(value) is form and type(batched) is form
                got[form] = value.matrix()
            assert got[QuatMatrix].matrix() is got[QuatMatrix]
            va, vb = got[SpectralValue], got[QuatMatrix]
            assert (va - vb).norm() <= 1e-13 * max(1.0, vb.norm())

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
        # a non-normal S^-1 D S operator, a loaded normal operator with a
        # non-symmetric T0 and one whose T0 = I and |T|^2 = 0.75 I are
        # symmetric but T1 is not have no orthogonal eigenbasis: the
        # moment form runs dense and matches the reference on the point
        # kernels
        rng = np.random.default_rng(5)
        s = rng.normal(size=(3, 3)) + 3.0 * np.eye(3)
        d = [np.diag(v) for v in ([0.9, 1.3, 0.7], [0.2, 0.0, 0.3],
                                  [0.0, 0.4, 0.1], [0.1, 0.0, 0.0])]
        nonnormal = CommutingOperator(
            np.stack([np.linalg.solve(s, di @ s) for di in d]))
        rot = np.array([[1.0, -0.5], [0.5, 1.0]])
        loaded = operator_from_text(operator_to_text(CommutingOperator(
            np.stack([rot, 0.3 * rot, np.zeros((2, 2)), np.zeros((2, 2))]))))
        antisymmetric = CommutingOperator(np.stack([
            np.eye(2), [[0.0, 0.5], [-0.5, 0.0]], np.zeros((2, 2)),
            np.zeros((2, 2))]))
        contour = SectorContour(1.7, E12, 1e-6, 1e6, H0)
        f = Regularizer(2)
        for t in (nonnormal, loaded, antisymmetric):
            assert t.eigenbasis is None
            k = OperatorKernel(kernel_family(kind), t)
            assert k.path == "dense"
            va, _ = fixed_pass(k, f, contour, 0.25, side=side)
            vb = reference_level(point_kernel(kind, t), f, contour, 0.25,
                                 side)
            assert (va - vb).norm() <= 1e-13 * max(1.0, vb.norm())


# contours of one angle and one first step whose radii nest (WIDE holds
# NESTED), overlap (OVERLAP reaches below WIDE and stops short of it above)
# and whose targets are accepted at different levels; as on a certified
# contour, the integrands at the radii lie below the targets, since a
# lattice end moves by up to cosh(v) h in u from one level to the next
SHARED_H0 = 0.5
WIDE = SectorContour(1.2, E1, 1e-8, 1e8, SHARED_H0, tol=1e-10)
NESTED = SectorContour(1.2, E1, 1e-7, 1e7, SHARED_H0, tol=1e-9)
OVERLAP = SectorContour(1.2, E1, 1e-10, 1e6, SHARED_H0, tol=1e-11)
LOOSE = SectorContour(1.2, E1, 1e-6, 1e6, SHARED_H0, tol=1e-6)


def shared_items(t, side):
    """Every kernel with a moment form on side, against functions that
    share objects between items, on the four contours above."""
    fs = [Regularizer(2), Product(Power(1), Regularizer(3))]
    if side == "left":
        fs.append(NONINTRINSIC)
    return [(OperatorKernel(kernel_family(kind), t), f, c)
            for kind, s in KIND_SIDES if s == side for f in fs
            for c in (WIDE, NESTED, OVERLAP, LOOSE)]


class TestSharedLattice:
    @pytest.mark.parametrize("side", ["left", "right"])
    @pytest.mark.parametrize("path", ["eigenbasis", "dense"])
    def test_batch_equals_separate_integrals(self, gen4, path, side):
        # one lattice per level changes no bit of any value or diagnostic
        t = gen4.operator if path == "eigenbasis" else dense_twin(
            gen4.operator)
        items = shared_items(t, side)
        assert OperatorKernel(items[0][0].kind, t).path == path
        batch = integrate_many(items, side=side)
        assert len({info["h"] for _, info in batch}) >= 2
        for (k, f, c), (value, info) in zip(items, batch):
            want, want_info = integrate(k, f, c, side=side)
            assert type(value) is type(want)
            assert np.array_equal(value.matrix().components,
                                  want.matrix().components)
            assert info == want_info

    def test_one_chain_call_per_level_over_the_union(self, gen4,
                                                     monkeypatch):
        # each level inverts Q_{c,z}(T) once per point of the union of the
        # lattices of the items still refining, and at no other point
        chains, levels = [], []
        real_chain, real_level = contour_module._chain, _level_value

        def chain(t, x, y, **kw):
            chains.append(len(x))
            return real_chain(t, x, y, **kw)

        def level(items, slices, phi, side, count, u):
            levels.append(u)
            return real_level(items, slices, phi, side, count, u)

        monkeypatch.setattr(contour_module, "_chain", chain)
        monkeypatch.setattr(contour_module, "_level_value", level)
        items = shared_items(gen4.operator, "left")
        infos = [info for _, info in integrate_many(items)]
        assert chains == [len(u) for u in levels]
        for depth, u in enumerate(levels):
            h = SHARED_H0 / 2.0 ** depth
            union = set()
            for (_, _, c), info in zip(items, infos):
                if info["h"] <= h:  # still refining at this level
                    lo, hi = _index_range(c, h)
                    j = np.arange(lo, hi + 1)
                    union |= set(j if depth == 0 else j[j % 2 == 1])
            assert np.array_equal(u, np.array(sorted(union)) * h)
        assert len(levels) == 1 + round(math.log2(
            SHARED_H0 / min(info["h"] for info in infos)))

    def test_items_must_share_operator_angle_and_step(self, gen4):
        k, f = OperatorKernel("S", gen4.operator), Regularizer(2)
        twin = OperatorKernel("S", dense_twin(gen4.operator))
        for other in ((twin, f, WIDE), (k, f, replace(WIDE, phi=1.3)),
                      (k, f, replace(WIDE, h0=0.25))):
            with pytest.raises(ValueError, match="shares one operator"):
                integrate_many([(k, f, WIDE), other])
        assert integrate_many([]) == []

    def test_one_nonfinite_stem_names_its_function(self, gen4):
        # past |s| ~ 2e51 the stem of reg(7) * pow(6) is inf * 0; the
        # finite item beside it does not hide the error
        k = OperatorKernel("S", gen4.operator)
        bad = Product(Regularizer(7), Power(6))
        with pytest.raises(ToleranceNotMet,
                           match=r"\(reg\(7\) \* pow\(6\)\) is not finite"):
            integrate_many([(k, Regularizer(2), WIDE),
                            (k, bad, replace(WIDE, t_max=1e55))])

    @pytest.mark.parametrize("path", ["eigenbasis", "dense"])
    def test_level_with_no_new_node(self, path):
        # radii this close to 1 hold only v = 0 until h = 1 / 16: the
        # halvings before add no node, a zero sum of new nodes, so the
        # level is half the last; S stalls there, F is accepted, each
        # alone and beside a wide item alike
        t = generate_operator(OperatorSpec(dim=2, seed=7)).operator
        if path == "dense":
            t = dense_twin(t)
        narrow = SectorContour(2.0, E1, 0.9, 1.1, 1.0, tol=1e-3)
        wide = replace(narrow, t_min=1e-4, t_max=1e4)
        k_s, k_f, f = OperatorKernel("S", t), OperatorKernel("F", t), \
            Regularizer(2)
        for items in ([(k_s, f, narrow)], [(k_s, f, narrow), (k_f, f, wide)]):
            with pytest.raises(ToleranceNotMet, match="stalled at h = "):
                integrate_many(items)
        value, info = integrate(k_f, f, narrow)
        [(batched, batched_info), _] = integrate_many([(k_f, f, narrow),
                                                       (k_f, f, wide)])
        assert np.array_equal(batched.matrix().components,
                              value.matrix().components)
        assert batched_info == info
        assert info["nodes"] == len(lattice(narrow, info["h"]))
        assert info["h"] < 1.0 / 16.0

    def test_one_stalled_item_ends_the_batch(self, gen4):
        k = OperatorKernel("S", gen4.operator)
        stalls = roundoff_contour(gen4)
        with pytest.raises(ToleranceNotMet, match="stalled at h = "):
            integrate_many([(k, Regularizer(2), replace(stalls, tol=1e-9)),
                            (k, Regularizer(2), stalls)])
