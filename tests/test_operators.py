import math

import numpy as np
import pytest

from conftest import (dense_twin, point_kernel, random_quaternion,
                      scalar_operator)
from qcalc import operators
from qcalc.calculus import kernel_bound
from qcalc.errors import SpectrumHit
from qcalc.operators import (_PROFILE_RADII, _PROFILE_RAYS,
                             COND_SPECTRUM_THRESHOLD, KERNEL_FAMILIES,
                             CommutingOperator, QuatMatrix, _chain,
                             _refine_eigenbasis, _round_robin, ab_decompose,
                             adjoint, assemble, bq_conj, conj_op,
                             estimate_type_profile, f_spectrum_check,
                             from_adjoint, kernel, kernel_batch,
                             kernel_family, modulus_sq, operator_from_text,
                             operator_to_text, q_operator, stack_fro,
                             stack_norm)
from qcalc.quaternion import (E1, E2, ONE, Quaternion,
                              random_unit_imaginary, to_slice)
from qcalc.suites import OperatorSpec, generate_operator

KINDS = ("S_L", "S_R", "Qc", "P2_L", "P2_R", "F_L", "F_R")


def diag_operator(qs):
    comps = np.stack([np.diag([q.components[i] for q in qs]) for i in range(4)])
    return CommutingOperator(comps)


def resolvent_point(gen, rng):
    spectrum = [(q.re, to_slice(q).y) for q in gen.eigenvalues]
    for _ in range(10_000):
        s = random_quaternion(rng)
        p = to_slice(s)
        if s.norm() > 0.15 and all(math.hypot(p.x - a, p.y - b) > 0.2
                                   for a, b in spectrum):
            return s
    pytest.fail("no resolvent point found away from the spectrum")


def q_complex(t, x, y):
    """Q_{c,z}(T) at z = x + i y as a complex n x n matrix (i read as e1)."""
    q = q_operator(t, Quaternion(x) + E1 * y).components
    return q[0] + 1j * q[1]


def cond_fro(a):
    return float(np.linalg.norm(a) * np.linalg.norm(np.linalg.inv(a)))


def near_sphere(dim, d):
    """Operator (dim, seed 7) and the point d from its first eigensphere,
    moved along x, with a generic unit."""
    gen = generate_operator(OperatorSpec(dim=dim, seed=7))
    p = to_slice(gen.eigenvalues[0])
    unit = Quaternion(0.0, 1.0, 1.0, 1.0) * (1.0 / math.sqrt(3.0))
    return gen.operator, Quaternion(p.x + d) + unit * p.y


class TestCommutingOperator:
    def test_rejects_noncommuting(self):
        t0 = np.array([[0.0, 1.0], [0.0, 0.0]])
        t1 = np.array([[0.0, 0.0], [1.0, 0.0]])
        zero = np.zeros((2, 2))
        with pytest.raises(ValueError):
            CommutingOperator(np.stack([t0, t1, zero, zero]))


class TestQuatMatrix:
    @pytest.mark.parametrize("k", [-1, -2, 1.0, 2.5])
    def test_matpow_refuses_what_is_not_a_nonnegative_int(self, k):
        # no silent identity for a power that is not a nonnegative int
        with pytest.raises(ValueError, match="nonnegative integer"):
            QuatMatrix.identity(2).matpow(k)


class TestConjAndModulus:
    def test_real_operator_fixed(self, rng):
        t0 = rng.normal(size=(3, 3))
        t = CommutingOperator(np.stack([t0, np.zeros((3, 3)),
                                        np.zeros((3, 3)), np.zeros((3, 3))]))
        assert np.allclose(conj_op(t).components, t.components)

    def test_involution(self, gen4):
        t = gen4.operator
        assert np.allclose(conj_op(conj_op(t)).components, t.components)

    def test_diagonal_conjugation(self, rng):
        qs = [random_quaternion(rng) for _ in range(3)]
        t = diag_operator(qs)
        tbar = conj_op(t)
        for k, q in enumerate(qs):
            got = Quaternion.from_components(tbar.components[:, k, k])
            assert got.isclose(q.conj())

    def test_modulus_examples(self, rng):
        n = 3
        t = CommutingOperator(np.stack([np.eye(n)] + [np.zeros((n, n))] * 3))
        assert np.allclose(modulus_sq(t), np.eye(n))

        qs = [random_quaternion(rng) for _ in range(n)]
        td = diag_operator(qs)
        assert np.allclose(np.diag(modulus_sq(td)),
                           [q.norm_sq() for q in qs])

    def test_modulus_is_conj_product(self, gen4):
        t = gen4.operator
        prod = conj_op(t).as_qmatrix() @ t.as_qmatrix()
        other = t.as_qmatrix() @ conj_op(t).as_qmatrix()
        want = QuatMatrix.from_real(modulus_sq(t))
        assert (prod - want).norm() <= 1e-10 * max(1.0, want.norm())
        assert (other - want).norm() <= 1e-10 * max(1.0, want.norm())

    @pytest.mark.parametrize("n", [4, 8, 16])
    def test_conj_numerators_are_conjugates(self, n):
        # conj(T) builds its own kernel numerators: they are the entrywise
        # conjugates of T's bit for bit, and its Qc pair is T's
        t = generate_operator(OperatorSpec(dim=n, seed=n)).operator
        own, ref = conj_op(t).kernel_numerators, t.kernel_numerators
        assert own.keys() == ref.keys()
        for got, want in zip(own["Qc pair"], ref["Qc pair"]):
            assert np.array_equal(got, want)
        for fam in ("Qc", "S", "F", "P2"):
            got, want = own[fam], ref[fam]
            assert got.power == want.power
            assert np.array_equal(got.coef, bq_conj(want.coef))


class TestPseudoResolvent:
    def test_scalar_example(self):
        # q = 1 real, s = 2 e1: Q = s^2 - 2 s + 1 = -3 - 4 e1, |Q|^2 = 25
        t = scalar_operator(ONE)
        q = q_operator(t, Quaternion(0.0, 2.0, 0.0, 0.0))
        assert q.n == 1 and q.entry(0, 0).isclose(Quaternion(-3, -4, 0, 0))
        assert math.isclose(q.entry(0, 0).norm_sq(), 25.0)

    def test_vanishes_on_eigensphere(self, rng):
        qs = [random_quaternion(rng) for _ in range(3)]
        t = diag_operator(qs)
        for k, q in enumerate(qs):
            p = to_slice(q)
            for s in (q, Quaternion(p.x) + random_unit_imaginary(rng) * p.y):
                entry = q_operator(t, s).entry(k, k)
                assert entry.norm() <= 1e-10 * max(1.0, q.norm() ** 2)

    def test_conjugate_in_y(self, gen4, rng):
        # Q(x, -y) = conj(Q(x, y)): Q has real matrix coefficients
        t = gen4.operator
        for _ in range(5):
            x, y = rng.normal(), rng.normal()
            want = q_operator(t, Quaternion(x) + E1 * y).conj()
            got = q_operator(t, Quaternion(x) - E1 * y)
            assert (got - want).norm() <= 1e-14 * max(1.0, want.norm())


class TestQInverse:
    def test_scalar_example(self):
        t = scalar_operator(ONE)
        g = kernel("Qc", t, Quaternion(0, 2, 0, 0))
        want = Quaternion(-3, 4, 0, 0) * (1.0 / 25.0)
        assert (g.entry(0, 0) - want).norm() <= 1e-14

    def test_real_diagonal(self):
        ts = [0.5, 1.5, -2.0]
        t = diag_operator([Quaternion(v) for v in ts])
        s = Quaternion(3.0)
        g = kernel("Qc", t, s)
        for k, v in enumerate(ts):
            assert math.isclose(g.entry(k, k).s0, 1.0 / (3.0 - v) ** 2,
                                rel_tol=1e-12)

    def test_multiply_back(self, gen4, rng):
        t = gen4.operator
        eye = QuatMatrix.identity(t.n)
        for _ in range(10):
            s = resolvent_point(gen4, rng)
            g = kernel("Qc", t, s)
            q = q_operator(t, s)
            assert (q @ g - eye).norm() <= 1e-10
            assert (g @ q - eye).norm() <= 1e-10

    def test_spectrum_hit(self, rng):
        qs = [random_quaternion(rng) for _ in range(3)]
        t = diag_operator(qs)
        with pytest.raises(SpectrumHit):
            kernel("Qc", t, qs[0])

    def test_commutes_with_components(self, gen4, rng):
        t = gen4.operator
        for _ in range(5):
            s = resolvent_point(gen4, rng)
            g = kernel("Qc", t, s)
            for i in range(4):
                ti = QuatMatrix.from_real(t.components[i])
                assert (ti @ g - g @ ti).norm() <= 1e-10 * max(1.0, g.norm())


class TestKernels:
    def test_scalar_s_kernel_is_complex_resolvent(self, rng):
        t = scalar_operator(ONE)
        for _ in range(10):
            s = random_quaternion(rng)
            if (s - ONE).norm() < 0.2:
                continue
            want = (s - ONE).inverse()
            got = kernel("S_L", t, s).entry(0, 0)
            assert (got - want).norm() <= 1e-12 * max(1.0, want.norm())

    def test_scalar_f_kernel(self, rng):
        t = scalar_operator(ONE)
        for _ in range(10):
            s = random_quaternion(rng)
            if (s - ONE).norm() < 0.3:
                continue
            d = (s - ONE).inverse()
            want = -4.0 * (d * d * d)
            got = kernel("F_L", t, s).entry(0, 0)
            assert (got - want).norm() <= 1e-10 * max(1.0, want.norm())

    def test_p2_two_formulas(self, gen4, rng):
        t = gen4.operator
        t0 = QuatMatrix.from_real(t.components[0])
        for _ in range(6):
            s = resolvent_point(gen4, rng)
            k1 = kernel("P2_L", t, s)
            sl = kernel("S_L", t, s)
            sl_bar = kernel("S_L", conj_op(t), s)
            k2 = 2.0 * (sl @ (sl + sl_bar))
            assert (k1 - k2).norm() <= 1e-12 * max(1.0, k1.norm())
            qi = kernel("Qc", t, s)
            sm = QuatMatrix.from_scalar(s, t.n)
            k3 = 4.0 * (sl @ ((sm - t0) @ qi))
            assert (k1 - k3).norm() <= 1e-12 * max(1.0, k1.norm())

    def test_s_right_direct_formula(self, gen4, rng):
        t = gen4.operator
        for _ in range(6):
            s = resolvent_point(gen4, rng)
            qi = kernel("Qc", t, s)
            acc = qi.scalar_mul(s, "left")
            for i in range(4):
                ti = QuatMatrix.from_real(t.components[i])
                ebar = Quaternion(1.0) if i == 0 else \
                    Quaternion.from_components(-np.eye(4)[i])
                acc = acc - (ti @ qi).scalar_mul(ebar, "right")
            got = kernel("S_R", t, s)
            assert (got - acc).norm() <= 1e-12 * max(1.0, got.norm())

    def test_f_is_product_of_s_and_q(self, gen4, rng):
        t = gen4.operator
        for _ in range(6):
            s = resolvent_point(gen4, rng)
            want = -4.0 * (kernel("S_L", t, s) @ kernel("Qc", t, s))
            got = kernel("F_L", t, s)
            assert (got - want).norm() <= 1e-12 * max(1.0, got.norm())

    @pytest.mark.parametrize("families", ["S", "Qc", ("S", "S_L"), ("X",)])
    def test_kernel_batch_refuses_what_is_not_families(self, gen4,
                                                       families):
        # a bare string is refused, since set("S") would pass the family
        # check by accident, and so is a kernel kind such as S_L
        with pytest.raises(ValueError, match="kernel famil"):
            kernel_batch(families, gen4.operator, [1.5], [0.5])

    def test_kernel_refuses_a_family(self, gen4):
        with pytest.raises(ValueError, match="unknown kernel kind"):
            kernel("S", gen4.operator, Quaternion(1.5, 0.5, 0.0, 0.0))

    def test_conjugate_relation(self, gen4, rng):
        t = gen4.operator
        for _ in range(6):
            s = resolvent_point(gen4, rng)
            lhs = kernel("S_L", conj_op(t), s)
            rhs = kernel("S_R", t, s.conj()).conj()
            assert (lhs - rhs).norm() <= 1e-10 * max(1.0, rhs.norm())


class TestABDecomposition:
    def test_qc_closed_form(self, gen4, rng):
        t = gen4.operator
        msq = modulus_sq(t)
        t0 = t.components[0]
        eye = np.eye(t.n)
        for _ in range(5):
            s = resolvent_point(gen4, rng)
            p = to_slice(s)
            q = ((p.x ** 2 - p.y ** 2) * eye - 2 * p.x * t0 + msq
                 + 2j * p.y * (p.x * eye - t0))
            m = np.linalg.inv(q)
            a_want, b_want = m.real, m.imag
            a, b = ab_decompose("Qc", t, p.x, p.y)
            assert np.allclose(a.components[0], a_want, atol=1e-12)
            assert np.allclose(b.components[0], b_want, atol=1e-12)
            assert np.abs(a.components[1:]).max() <= 1e-15
            assert np.abs(b.components[1:]).max() <= 1e-15

    def test_zero_y_has_zero_b(self, gen4):
        for kind in KINDS:
            _, b = ab_decompose(kind, gen4.operator, 3.1, 0.0)
            assert b.norm() <= 1e-14

    @pytest.mark.parametrize("kind", KINDS)
    def test_reconstruction_and_symmetry(self, kind, gen4, rng):
        t = gen4.operator
        for _ in range(3):
            s = resolvent_point(gen4, rng)
            p = to_slice(s)
            a, b = ab_decompose(kind, t, p.x, p.y)
            a_m, b_m = ab_decompose(kind, t, p.x, -p.y)
            assert (a - a_m).norm() <= 1e-10 * max(1.0, a.norm())
            assert (b + b_m).norm() <= 1e-10 * max(1.0, b.norm())
            for _ in range(8):
                j = random_unit_imaginary(rng)
                k = kernel(kind, t, Quaternion(p.x) + j * p.y)
                if kind.endswith("_R"):
                    recon = a + b.scalar_mul(j, "left")
                else:
                    recon = a + b.scalar_mul(j, "right")
                assert (k - recon).norm() <= 1e-10 * max(1.0, k.norm())

    def test_kernel_cauchy_riemann(self, gen4):
        t = gen4.operator
        x, y = 1.3, 0.9
        h = 1e-5 * max(1.0, math.hypot(x, y))
        for kind in KINDS:
            da_dx = (ab_decompose(kind, t, x + h, y)[0]
                     - ab_decompose(kind, t, x - h, y)[0]) * (0.5 / h)
            db_dx = (ab_decompose(kind, t, x + h, y)[1]
                     - ab_decompose(kind, t, x - h, y)[1]) * (0.5 / h)
            da_dy = (ab_decompose(kind, t, x, y + h)[0]
                     - ab_decompose(kind, t, x, y - h)[0]) * (0.5 / h)
            db_dy = (ab_decompose(kind, t, x, y + h)[1]
                     - ab_decompose(kind, t, x, y - h)[1]) * (0.5 / h)
            scale = max(da_dx.norm(), db_dy.norm(), 1e-30)
            assert (da_dx - db_dy).norm() <= 1e-5 * scale
            assert (da_dy + db_dx).norm() <= 1e-5 * scale


class TestComponentNorms:
    def test_kernel_component_bounds(self, gen4, rng):
        t = gen4.operator
        for i in range(40):
            s = resolvent_point(gen4, rng)
            k = kernel(KINDS[i % len(KINDS)], t, s)
            nk = k.norm()
            for c in range(4):
                assert np.linalg.norm(k.components[c], 2) <= nk + 1e-12
            assert k.conj().norm() <= 2.0 * nk + 1e-12


class TestSpectrum:
    def test_diagonal_spectrum_oracle(self, rng):
        qs = [random_quaternion(rng) for _ in range(4)]
        t = diag_operator(qs)
        for q in qs:
            p = to_slice(q)
            for _ in range(4):
                j = random_unit_imaginary(rng)
                assert not f_spectrum_check(t, Quaternion(p.x) + j * p.y)
        # far away from all spheres
        assert f_spectrum_check(t, Quaternion(50.0) + E1 * 3.0)

    def test_axial_symmetry(self, gen4, rng):
        t = gen4.operator
        s = resolvent_point(gen4, rng)
        p = to_slice(s)
        base = f_spectrum_check(t, s)
        for _ in range(16):
            j = random_unit_imaginary(rng)
            assert f_spectrum_check(t, Quaternion(p.x) + j * p.y) == base

    def test_zero_operator(self):
        t = CommutingOperator(np.zeros((4, 2, 2)))
        assert f_spectrum_check(t, ONE + E2)
        assert f_spectrum_check(t, Quaternion(0.01))

    def test_one_conditioning_rule(self):
        # kernels and the spectrum check reject the same points: here the
        # squared 2-norm condition number of Q is just above the threshold
        # (1.4e12), so the squared Frobenius one, which bounds it from
        # above, is too
        q = Quaternion(0.8, 0.3, -0.4, 0.2)
        t = diag_operator([q, Quaternion(1.5, 0.0, 0.9, 0.0)])
        s = q + Quaternion(1e-6, 0.0, 0.0, 0.0)
        p = to_slice(s)
        assert np.linalg.cond(q_complex(t, p.x, p.y)) ** 2 > 1e12
        with pytest.raises(SpectrumHit):
            kernel("S_L", t, s)
        assert not f_spectrum_check(t, s)
        # an exact eigenvalue makes Q singular: False, not an exception
        assert not f_spectrum_check(t, q)

    def test_multiply_back_near_sphere(self):
        # 1e-5 from an eigensphere, cond_F(Q)^2 = 1.2e10: the inverse of Q
        # itself multiplies back within test_multiply_back's tolerance; an
        # inverse through the sum of squares Q conj(Q), whose condition is
        # that square, leaves about 1e-6
        t, s = near_sphere(8, 1e-5)
        g, q = kernel("Qc", t, s), q_operator(t, s)
        eye = QuatMatrix.identity(t.n)
        assert (q @ g - eye).norm() <= 1e-10
        assert (g @ q - eye).norm() <= 1e-10

    def test_closer_point_is_spectrum_hit(self):
        # 1e-6 from the same sphere cond_F(Q)^2 = 1.2e12 is over the
        # threshold, though the Frobenius condition of Q conj(Q) is not
        t, s = near_sphere(8, 1e-6)
        p = to_slice(s)
        assert cond_fro(q_complex(t, p.x, p.y)) ** 2 > COND_SPECTRUM_THRESHOLD
        with pytest.raises(SpectrumHit):
            kernel("Qc", t, s)
        assert not f_spectrum_check(t, s)


def mp_kernels(t, s):
    """The seven kernels at s in the complex adjoint (see adjoint), from
    quaternion-matrix products and one inverse at 30 digits:
    S_L = (s - conj(T)) Q^-1, F_L = -4 (s - conj(T)) Q^-2,
    P2_L = 4 (s - conj(T))(s - T0) Q^-2 and their mirror images, with
    Q = s^2 - 2 s T0 + conj(T) T."""
    mp = pytest.importorskip("mpmath")

    def lift(comps):
        return mp.matrix(adjoint(comps).tolist())

    with mp.workdps(30):
        tt, tbar = lift(t.components), lift(bq_conj(t.components))
        t0 = lift(QuatMatrix.from_real(t.components[0]).components)
        sm = lift(QuatMatrix.from_scalar(s, t.n).components)
        qi = (sm * sm - 2 * sm * t0 + tbar * tt) ** -1
        a, b = sm - tbar, sm - t0
        ks = {"Qc": qi, "S_L": a * qi, "S_R": qi * a,
              "F_L": -4 * a * qi * qi, "F_R": -4 * qi * qi * a,
              "P2_L": 4 * a * b * qi * qi, "P2_R": 4 * qi * qi * b * a}
        return {k: np.array(v.tolist(), dtype=complex) for k, v in ks.items()}


@pytest.mark.parametrize("d", [1e-2, 1e-3, 1e-4, 1e-5, 1e-6])
def test_kernels_near_sphere_match_mpmath(d):
    # every kind within 32 eps cond_F(Q) of a 30-digit reference, relative
    # in the Frobenius norm, an error bound of one inversion of Q (through
    # the sum of squares Q conj(Q) the error grows like cond_F(Q)^2);
    # where cond_F(Q)^2 passes the threshold, every kind raises SpectrumHit
    t, s = near_sphere(8, d)
    p = to_slice(s)
    cond = cond_fro(q_complex(t, p.x, p.y))
    if cond ** 2 > COND_SPECTRUM_THRESHOLD:
        for kind in KINDS:
            with pytest.raises(SpectrumHit):
                kernel(kind, t, s)
        return
    ref = mp_kernels(t, s)
    bound = 32.0 * np.finfo(float).eps * cond
    for kind in KINDS:
        got = adjoint(kernel(kind, t, s).components)
        err = np.linalg.norm(got - ref[kind]) / np.linalg.norm(ref[kind])
        assert err <= bound, (kind, err / bound)
    # the eigenbasis path: M = U diag(g / scale^2) U^T, with the parts
    # (A1, B1) of the reference Qc = A1 + J B1
    u = t.eigenbasis.u
    g, scale, _ = _chain(t, np.array([p.x]), np.array([p.y]), upto="Qc",
                         diagonal=True)
    m = (u * (g[0] / scale[0] ** 2)) @ u.T
    qc = from_adjoint(ref["Qc"])
    want = qc[0] + 1j * np.tensordot(p.j.components[1:], qc[1:], axes=1)
    assert np.linalg.norm(m - want) <= bound * np.linalg.norm(want)


class TestEigenbasis:
    def test_conj_shares_eigenbasis(self):
        # conj(T) is held as T's held form conjugated, bit for bit: T's U
        # and the joint eigenvalues with Im negated
        t = generate_operator(OperatorSpec(dim=8, seed=3)).operator
        basis, bar = t.eigenbasis, conj_op(t).eigenbasis
        (u, lam), (u_bar, lam_bar) = (basis.u, basis.v.T), (bar.u, bar.v.T)
        assert u_bar is u
        assert np.array_equal(bar.v, basis.conj().v)
        assert np.array_equal(lam_bar[0], lam[0])
        assert np.array_equal(lam_bar[1:], -lam[1:])
        assert conj_op(dense_twin(t)).eigenbasis is None

    @pytest.mark.parametrize("n", [1, 3, 8, 16])
    def test_diagonalizes_t0_and_modulus(self, n):
        gen = generate_operator(OperatorSpec(dim=n, seed=40 + n))
        eps = np.finfo(float).eps
        for t in (gen.operator, conj_op(gen.operator)):
            u, lam = t.eigenbasis.u, t.eigenbasis.v.T
            assert np.linalg.norm(u.T @ u - np.eye(n)) <= eps * n
            # T held per eigenvalue is T
            for got, a in zip(t.eigenbasis.matrix().components, t.components):
                assert np.linalg.norm(got - a) <= (
                    4.0 * eps * n * np.linalg.norm(a))
            # every component, and |T|^2 through the joint eigenvalues
            pairs = list(zip(t.components, lam)) + [
                (modulus_sq(t), np.sum(lam * lam, axis=0))]
            for a, d in pairs:
                assert np.linalg.norm(u @ np.diag(d) @ u.T - a) <= (
                    4.0 * eps * n * np.linalg.norm(a))
        # U comes from T alone, yet its diagonals are the generator's spectrum
        want = sorted(q.re for q in gen.eigenvalues)
        assert np.allclose(sorted(lam[0]), want, rtol=0.0, atol=1e-13)

    @pytest.mark.parametrize("spec", [
        OperatorSpec(dim=16, seed=6),
        OperatorSpec(dim=4, seed=173594038)])  # hinf_dim4, workload seed 4
    def test_components_missed_by_the_basis_of_t0_and_modulus(
            self, spec, monkeypatch):
        # a basis of (T0, |T|^2) alone tells eigenvalues apart only by
        # (Re l, |l|^2), here much closer than the eigenvalues themselves
        # (1.5e-3 and 0.14 against 0.75 apart), and left T1..T3 past the
        # residual test; the basis of all four components diagonalizes
        # each, and the profile takes the closed form, at most the dense
        # path's Frobenius bound
        gen = generate_operator(spec)
        t, n = gen.operator, spec.dim
        u, lam = t.eigenbasis.u, t.eigenbasis.v.T
        for a, d in zip(t.components, lam):
            assert np.linalg.norm(u @ np.diag(d) @ u.T - a) <= (
                16.0 * np.finfo(float).eps * n * np.linalg.norm(a))
        angles = [spec.omega + f * (math.pi - spec.omega) for f in (0.1, 0.9)]
        slow = estimate_type_profile(dense_twin(t), spec.omega, angles).c_phi

        def no_dense_kernels(*args, **kw):
            raise AssertionError("the closed form takes no point kernels")

        monkeypatch.setattr(operators, "kernel_batch", no_dense_kernels)
        fast = estimate_type_profile(t, spec.omega, angles).c_phi
        for phi, consts in fast.items():
            for fam, c in consts.items():
                assert c <= slow[phi][fam] * (1.0 + 1e-13)

    def test_refinement_separates_mixed_pair(self):
        # eigh of the combination mixes two joint eigenvectors whose combined
        # eigenvalues nearly coincide; one joint Jacobi sweep separates them
        t0, t2 = np.diag([0.5, 1.0, 2.0]), np.diag([3.0, 1.0, 0.25])
        c, s = math.cos(1e-3), math.sin(1e-3)
        u = np.eye(3)
        u[:, :2] = u[:, :2] @ np.array([[c, -s], [s, c]])
        u = _refine_eigenbasis(u, np.stack([t0, t2]))
        assert np.linalg.norm(u.T @ u - np.eye(3)) <= 1e-15
        for a in (t0, t2):
            r = u.T @ a @ u
            assert np.linalg.norm(r - np.diag(np.diag(r))) <= 1e-15

    @staticmethod
    def refine_per_matrix(u, mats):
        """_refine_eigenbasis with one rotation per matrix of the stack, in
        a Python loop."""
        n = len(u)
        u = u + 0.5 * u @ (np.eye(n) - u.T @ u)
        rot = [u.T @ a @ u for a in mats]
        for i, j in _round_robin(n):
            h = [(r[i, j], 0.5 * (r[j, j] - r[i, i])) for r in rot]
            p = sum(a * a for a, _ in h)
            q = sum(b * b for _, b in h)
            c2 = sum(a * b for a, b in h)
            psi = 0.5 * np.arctan2(2.0 * c2, p - q) + 0.5 * math.pi
            psi = np.where(np.cos(psi) < 0.0, psi - math.pi, psi)
            psi = np.where((c2 == 0.0) & (p <= q), 0.0, psi)
            c, s = np.cos(0.5 * psi), np.sin(0.5 * psi)
            for a in (u, *rot):
                ai, aj = a[:, i], a[:, j]
                a[:, i], a[:, j] = c * ai + s * aj, c * aj - s * ai
            for r in rot:
                ri, rj = r[i, :], r[j, :]
                r[i, :], r[j, :] = (c[:, None] * ri + s[:, None] * rj,
                                    c[:, None] * rj - s[:, None] * ri)
        return u

    @pytest.mark.parametrize("n", [1, 2, 5, 16])
    def test_stacked_sweep_matches_per_matrix_loop(self, n):
        # rotating the (4, n, n) stack at once is the per-matrix sweep,
        # with the same arithmetic bit for bit
        t = generate_operator(OperatorSpec(dim=n, seed=60 + n)).operator
        mats = t.components / np.linalg.norm(t.components,
                                             axis=(1, 2))[:, None, None]
        _, u = np.linalg.eigh(mats[0] + 0.3 * mats[1] + 0.7 * mats[2])
        assert np.array_equal(_refine_eigenbasis(u.copy(), mats),
                              self.refine_per_matrix(u.copy(), mats))

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 9])
    def test_round_robin_covers_each_pair_once(self, n):
        rounds = [list(zip(i.tolist(), j.tolist()))
                  for i, j in _round_robin(n)]
        assert len(rounds) == (0 if n == 1 else n - 1 + n % 2)
        for pairs in rounds:  # disjoint within a round
            assert len({k for pair in pairs for k in pair}) == 2 * len(pairs)
        flat = [pair for pairs in rounds for pair in pairs]
        assert sorted(flat) == [(i, j) for i in range(n)
                                for j in range(i + 1, n)]

    def test_no_eigenbasis_for_nonsymmetric_parts(self):
        # a non-normal operator: T0 = S^-1 D S is not symmetric
        s = np.array([[1.0, 0.5], [0.0, 1.0]])
        d = np.diag([1.0, 2.0])
        zeros = np.zeros((2, 2))
        t = CommutingOperator(np.stack([np.linalg.solve(s, d @ s), zeros,
                                        zeros, zeros]))
        assert t.eigenbasis is None


class TestTypeProfile:
    def test_accepts_sectorial_diagonal(self, gen4):
        prof = estimate_type_profile(gen4.operator, math.pi / 4,
                                     [math.pi / 2, 3 * math.pi / 4])
        assert prof.alpha == pytest.approx(1.0 / 3.0)
        assert {fam: gen4.operator.kernel_numerators[fam].order
                for fam in KERNEL_FAMILIES} == {"S": 1, "Qc": 2, "P2": 2,
                                                "F": 3}
        for consts in prof.c_phi.values():
            assert sorted(consts) == sorted(KERNEL_FAMILIES)
            for c in consts.values():
                assert 0.0 < c < math.inf
        # constants shrink (weakly) as the excluded sector grows
        for fam in KERNEL_FAMILIES:
            assert (prof.c_phi[math.pi / 2][fam]
                    >= prof.c_phi[3 * math.pi / 4][fam] - 1e-12)

    def test_constant_lookup_is_conservative(self, gen4):
        prof = estimate_type_profile(gen4.operator, math.pi / 4,
                                     [1.0, 2.0])
        for fam in KERNEL_FAMILIES:
            c1, c2 = prof.c_phi[1.0][fam], prof.c_phi[2.0][fam]
            assert prof.constant_at(1.5, fam) == c1
            assert prof.constant_at(2.5, fam) == max(c1, c2)
            assert prof.constant_at(0.9, fam) == 2.0 * max(c1, c2)

    def test_envelope_really_bounds(self, gen4):
        prof = estimate_type_profile(gen4.operator, math.pi / 4, [1.2])
        c = prof.c_phi[1.2]["S"]
        radii = np.geomspace(1e-2, 1e2, 30)
        for psi in (1.2, 2.0, math.pi):
            for r in radii:
                s = Quaternion(r * math.cos(psi)) + E1 * (r * abs(math.sin(psi)))
                nk = kernel("S_L", gen4.operator, s).norm()
                bound = c * (r ** (-prof.alpha) if r <= 1 else 1.0 / r)
                assert nk <= bound * 1.0001

    @staticmethod
    def per_ray_reference(t, angles, norm):
        """The profile's constants ray by ray on the dense kernels, with the
        bound N(s) on ||K(x + J y)|| of each kind's samples (x, y) taken by
        norm(kind, x, y): one kernel evaluation per ray and test angle."""
        radii = _PROFILE_RADII
        nums = t.kernel_numerators
        out = {}
        for phi in angles:
            consts = {}
            for fam, kind in zip(KERNEL_FAMILIES,
                                 ("S_L", "Qc", "P2_L", "F_L")):
                p = nums[fam].order
                weight = np.where(radii <= 1.0, radii ** (p / 3.0),
                                  radii ** float(p))
                best = 0.0
                for psi in np.linspace(phi, math.pi, _PROFILE_RAYS):
                    norms = norm(kind, radii * math.cos(psi),
                                 radii * abs(math.sin(psi)))
                    best = max(best, float(np.max(norms * weight)))
                consts[fam] = max(2.0 * best,
                                  float(stack_norm(nums[fam].coef[-1])))
            out[float(phi)] = consts
        return out

    @staticmethod
    def sup_over_units(t):
        """||K(x + J y)|| at its largest over the units J: at J = v_k, the
        unit along Im(lambda_k), for some eigenvalue k (E1 serves real
        eigenvalues)."""
        units = [E1] + [Quaternion(0.0, *(v / np.linalg.norm(v)))
                        for v in t.eigenbasis.v.T[1:].T
                        if np.linalg.norm(v) > 0.0]

        def norm(kind, x, y):
            return np.max([stack_norm(point_kernel(kind, t)(x, y, j))
                           for j in units], axis=0)
        return norm

    @staticmethod
    def frobenius_pair(t):
        """||A||_F + ||B||_F of the kernel's pair (A, B)."""
        def norm(kind, x, y):
            family = kernel_family(kind)
            a, b = kernel_batch((family,), t, x, y)[family]
            return stack_fro(a) + stack_fro(b)
        return norm

    @pytest.mark.parametrize("dim", [1, 2, 4, 8, 16])
    def test_joint_eigenvalues_match_dense_norms(self, dim):
        # the joint eigenvalues give the sup of ||K|| over every unit, the
        # dense path ||A||_F + ||B||_F, at least that and at most
        # 2 sqrt(n) times it.  The reference sup takes n + 1 units per
        # sample, so from dim 8 on it checks T at seed 1 and one angle
        for seed in (1, 2, 3):
            gen = generate_operator(OperatorSpec(dim=dim, seed=seed))
            omega = gen.spec.omega
            angles = [omega + f * (math.pi - omega) for f in (0.1, 0.5, 0.9)]
            for t in (gen.operator, conj_op(gen.operator)):
                assert t.eigenbasis is not None
                fast = estimate_type_profile(t, omega, angles).c_phi
                slow = estimate_type_profile(dense_twin(t), omega,
                                             angles).c_phi
                assert fast.keys() == slow.keys()
                for phi, consts in fast.items():
                    assert consts.keys() == slow[phi].keys()
                    for fam, c in consts.items():
                        assert (c * (1.0 - 1e-13) <= slow[phi][fam]
                                <= 2.0 * math.sqrt(dim) * c * (1.0 + 1e-13))
                if dim <= 4:
                    checked = angles
                elif seed == 1 and t is gen.operator:
                    checked = angles[1:2]
                else:
                    continue
                want = self.per_ray_reference(t, checked,
                                              self.sup_over_units(t))
                for phi, consts in want.items():
                    for fam, c in consts.items():
                        assert abs(fast[phi][fam] - c) <= 1e-13 * c

    def test_joint_eigenvalues_are_the_generators(self):
        gen = generate_operator(OperatorSpec(dim=8, seed=5))
        lam = gen.operator.eigenbasis.v.T
        want = np.array([q.components for q in gen.eigenvalues]).T
        got, want = lam[:, np.argsort(lam[0])], want[:, np.argsort(want[0])]
        assert np.allclose(got, want, rtol=0.0, atol=1e-13)
        conj = conj_op(gen.operator).eigenbasis.v.T
        assert np.array_equal(conj, lam * np.array([[1.0], [-1.0], [-1.0],
                                                    [-1.0]]))

    def test_dense_path_matches_per_ray_reference(self):
        # T1 = R diag(1, -1) R^T with R a 30 degree rotation: (T0, |T|^2) =
        # (0, I) leave U free, and the basis of all four components is R's
        c, s = math.cos(math.pi / 6), math.sin(math.pi / 6)
        r = np.array([[c, -s], [s, c]])
        zeros = np.zeros((2, 2))
        t = CommutingOperator(np.stack([zeros, r @ np.diag([1.0, -1.0]) @ r.T,
                                        zeros, zeros]))
        assert np.allclose(sorted(t.eigenbasis.v.T[1]), [-1.0, 1.0],
                           rtol=0.0, atol=1e-15)
        angles = [1.7, 2.2, 2.9]  # the spectrum {J} lies on the angle pi/2
        dense = dense_twin(t)
        prof = estimate_type_profile(dense, 1.6, angles)
        assert prof.c_phi == self.per_ray_reference(
            dense, angles, self.frobenius_pair(dense))

    @pytest.mark.parametrize("dense", [False, True])
    @pytest.mark.parametrize("annulus", [(0.5, 2.0), (1e-4, 1e-2),
                                         (1e2, 1e5)])
    def test_conj_has_the_same_profile(self, annulus, dense):
        # the closed form reads only lambda0 and |Im lambda|, and the
        # Frobenius bound is invariant under bq_conj, so an Evaluator
        # hands conj(T) the profile of T.  A spectrum over three decades
        # can put a sample past the conditioning rule (ROADMAP): then
        # both raise SpectrumHit
        def profile(op, omega, angles):
            try:
                return estimate_type_profile(op, omega, angles)
            except SpectrumHit:
                return SpectrumHit

        for dim in (1, 2, 3, 4, 8, 16):
            for seed in (1, 2, 3):
                gen = generate_operator(OperatorSpec(dim=dim, seed=seed,
                                                     annulus=annulus))
                t = dense_twin(gen.operator) if dense else gen.operator
                omega = gen.spec.omega
                angles = [omega + f * (math.pi - omega)
                          for f in (0.1, 0.5, 0.9)]
                assert (profile(conj_op(t), omega, angles)
                        == profile(t, omega, angles))

    def test_each_distinct_sample_once(self, gen4, monkeypatch):
        # three test angles: 12 rays, of which the three psi = pi are one
        calls = []

        def counting_chain(t, x, y, **kw):
            calls.append(len(x))
            return _chain(t, x, y, **kw)

        monkeypatch.setattr(operators, "_chain", counting_chain)
        omega = gen4.spec.omega
        angles = [omega + f * (math.pi - omega) for f in (0.1, 0.5, 0.9)]
        for t in (gen4.operator, dense_twin(gen4.operator)):
            calls.clear()
            estimate_type_profile(t, omega, angles)
            assert calls == [10 * len(_PROFILE_RADII)]

    def test_spectrum_hit_on_both_paths(self):
        # the eigenvalue x + e1 y sits on a sampled point of the first ray
        phi, r = 2.0, _PROFILE_RADII[20]
        x, y = r * math.cos(phi), r * abs(math.sin(phi))
        t = scalar_operator(Quaternion(x, y, 0.0, 0.0))
        assert t.eigenbasis is not None
        for op in (t, dense_twin(t)):
            with pytest.raises(SpectrumHit):
                estimate_type_profile(op, 1.5, [phi])


class TestKernelEnvelope:
    @staticmethod
    def worst_ratio(gen, t, prof, phi, psis, rng):
        """The largest ratio of ||K(s)|| to its family's envelope
        (kernel_bound at phi) over every kind, at units J and -J (the
        lower ray), on the rays psis, at the eigenvalue moduli and at radii
        1e4 past the annulus and the profile's default 1e-3..1e3 alike.
        The units are two random ones and those along Im(lambda_k), where
        |s - conj(lambda_k)| peaks."""
        lo, hi = gen.spec.annulus
        lam = gen.operator.eigenbasis.v.T
        radii = np.concatenate([
            np.geomspace(min(1e-4, lo * 1e-4), max(1e5, hi * 1e4), 60),
            np.sqrt(np.sum(lam * lam, axis=0))])
        x = np.multiply.outer(np.cos(psis), radii).ravel()
        y = np.multiply.outer(np.sin(psis), radii).ravel()
        r = np.tile(radii, len(psis))
        units = [random_unit_imaginary(rng) for _ in range(2)] + [
            Quaternion(0.0, *(v / np.linalg.norm(v)))
            for v in lam[1:].T]
        worst = 0.0
        pairs = kernel_batch(KERNEL_FAMILIES, t, x, y)
        for j in units:
            for unit in (j, -j):
                for kind in KINDS:
                    family = kernel_family(kind)
                    c, a, p = kernel_bound(family, t, prof, phi)
                    envelope = c * np.where(r <= 1.0, r ** -a, r ** -p)
                    k = assemble(kind, *pairs[family], unit)
                    worst = max(worst, float(np.max(stack_norm(k)
                                                    / envelope)))
        return worst

    @pytest.mark.parametrize("dense", [False, True])
    @pytest.mark.parametrize("dim,seed,phi,annulus", [
        (4, 1, 1.8, (0.5, 2.0)), (8, 5, 0.985, (0.5, 2.0)),
        (4, 2, 1.8, (1e2, 1e5)), (4, 3, 1.8, (1e-5, 1e-2))])
    def test_every_kind_under_its_envelope(self, dim, seed, phi, annulus,
                                           dense):
        # ||K(s)|| <= C |s|**-a (|s| <= 1) and C |s|**-p (|s| >= 1) from
        # kernel_bound on rays of the fan [phi, pi] (see worst_ratio): at
        # dim 8, seed 5, phi = 0.985 S_L there is 1.18 times a constant
        # sampled at the unit E1 alone.  ||K|| |s|**p peaks near the
        # moduli, which the last two annuli take past the default radii
        gen = generate_operator(OperatorSpec(dim=dim, seed=seed,
                                             annulus=annulus))
        t = dense_twin(gen.operator) if dense else gen.operator
        assert (t.eigenbasis is None) == dense
        prof = estimate_type_profile(t, gen.spec.omega, [phi])
        rng = np.random.default_rng(seed)
        psis = np.array([phi, rng.uniform(phi, math.pi), math.pi])
        assert self.worst_ratio(gen, t, prof, phi, psis, rng) <= 1.0

    @pytest.mark.parametrize("dense", [False, True])
    @pytest.mark.parametrize("dim,seed,annulus", [
        (2, 1, (0.5, 2.0)), (4, 2, (0.1, 10.0)), (8, 3, (0.01, 1.0))])
    def test_fallback_constant_below_every_sampled_angle(self, dim, seed,
                                                         annulus, dense):
        # phi = omega + 0.2 lies below the suites' test angles (see
        # SuiteContext.profile), as in the independence suite, so
        # constant_at falls back to twice the largest sampled constant;
        # that bounds the constant sampled at phi itself and every kernel
        # on the rays of [phi, pi]
        gen = generate_operator(OperatorSpec(dim=dim, seed=seed,
                                             annulus=annulus))
        t = dense_twin(gen.operator) if dense else gen.operator
        omega = gen.spec.omega
        prof = estimate_type_profile(t, omega, [
            omega + f * (math.pi - omega) for f in (0.1, 0.5, 0.9)])
        phi = omega + 0.2
        assert phi < min(prof.c_phi)
        at_phi = estimate_type_profile(t, omega, [phi]).c_phi[phi]
        for family in KERNEL_FAMILIES:
            fallback = prof.constant_at(phi, family)
            assert fallback == 2.0 * max(c[family]
                                         for c in prof.c_phi.values())
            assert at_phi[family] <= fallback
        psis = np.linspace(phi, math.pi, 4)
        rng = np.random.default_rng(seed)
        assert self.worst_ratio(gen, t, prof, phi, psis, rng) <= 1.0


class TestEmbedding:
    def test_adjoint_is_multiplicative(self, rng):
        n = 3
        a = QuatMatrix(rng.normal(size=(4, n, n)))
        b = QuatMatrix(rng.normal(size=(4, n, n)))
        want = np.zeros((4, n, n))  # entry by entry in scalar quaternions
        for i in range(n):
            for k in range(n):
                acc = Quaternion()
                for j in range(n):
                    acc = acc + a.entry(i, j) * b.entry(j, k)
                want[:, i, k] = acc.components
        got = adjoint(a.components) @ adjoint(b.components)
        assert np.allclose(got, adjoint(want), atol=1e-12)

    def test_adjoint_roundtrip(self, rng):
        comps = rng.normal(size=(2, 4, 3, 3))  # batched
        assert np.array_equal(from_adjoint(adjoint(comps)), comps)

    def test_singular_values_match_left_action(self, rng):
        n = 3
        m = QuatMatrix(rng.normal(size=(4, n, n)))
        # real 4n x 4n matrix of v -> M v on quaternion vectors, built
        # column by column from scalar quaternion products
        action = np.zeros((4 * n, 4 * n))
        for j in range(n):
            for c in range(4):
                e = Quaternion.from_components(np.eye(4)[c])
                for i in range(n):
                    action[4 * i:4 * i + 4, 4 * j + c] = (m.entry(i, j)
                                                          * e).components
        want = np.linalg.svd(action, compute_uv=False)
        got = np.linalg.svd(adjoint(m.components), compute_uv=False)
        assert m.norm() == pytest.approx(want[0], rel=1e-13)
        assert np.allclose(got, want[::2], rtol=1e-12)

    def test_inverse_and_submultiplicative(self, rng):
        comps = rng.normal(size=(4, 3, 3))
        m = QuatMatrix(comps)
        inv = m.inverse()
        eye = QuatMatrix.identity(3)
        assert (m @ inv - eye).norm() <= 1e-10
        assert (inv @ m - eye).norm() <= 1e-10
        other = QuatMatrix(rng.normal(size=(4, 3, 3)))
        assert (m @ other).norm() <= m.norm() * other.norm() * (1 + 1e-12)
        assert (m @ eye - m).norm() <= 1e-14


class TestTextFormat:
    def test_roundtrip(self, gen4):
        text = operator_to_text(gen4.operator)
        back = operator_from_text(text)
        assert np.array_equal(back.components, gen4.operator.components)

    def test_deterministic_bytes(self):
        a = generate_operator(OperatorSpec(dim=8, seed=123))
        b = generate_operator(OperatorSpec(dim=8, seed=123))
        assert operator_to_text(a.operator) == operator_to_text(b.operator)

    @pytest.mark.parametrize("bad", [
        "", "2\n1 2 3", "x\n", "1\n1 2 3 4 5", pytest.param("0\n", id="dim0"),
        pytest.param("2\n" + "nan " * 16, id="nan"),
        pytest.param("1\n1 inf 0 0", id="inf"),
        pytest.param("-1\n1 2 3 4", id="negative dim")])
    def test_malformed(self, bad):
        with pytest.raises(ValueError):
            operator_from_text(bad)


def test_generate_operator_constraints():
    spec = OperatorSpec(dim=6, seed=9, annulus=(0.5, 2.0), omega=math.pi / 4)
    gen = generate_operator(spec)
    for q in gen.eigenvalues:
        assert 0.5 <= q.norm() <= 2.0
        p = to_slice(q)
        assert math.atan2(p.y, p.x) < math.pi / 4

    with pytest.raises(ValueError):
        generate_operator(OperatorSpec(omega=math.pi))
    for annulus in ((0.0, 1.0), (0.5, math.nan), (0.5, math.inf)):
        with pytest.raises(ValueError):
            generate_operator(OperatorSpec(annulus=annulus))
