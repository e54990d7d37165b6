import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcalc import slicefun
from qcalc.errors import ClassMismatch, NotIntrinsic, QCalcError
from qcalc.quaternion import (E1, E2, E3, ONE, Quaternion, qarr, qarr_mul,
                              qarr_norm, to_slice)
from qcalc.slicefun import (_GRID_ANGLES, _GRID_RADII, Power, Product,
                            Regularizer, Scale, StemFunction, Sum,
                            choose_regularizer, parse, pointwise_fine)

from conftest import random_quaternion

BUILTINS = [
    Power(0), Power(1), Power(3), Regularizer(1), Regularizer(2),
    Sum(Power(1), Regularizer(2)), Product(Power(1), Regularizer(3)),
    Scale(2.5, Regularizer(2)), Regularizer(1).slice_derivative(),
]
NONINTRINSIC = [
    Scale(Quaternion(0.5, 1, -0.5, 0.25), Product(Power(1), Regularizer(3))),
    Product(Regularizer(2), Scale(E1, Regularizer(2))),
    # |f(x + J y)| of a sum of differently scaled terms depends on J
    Sum(Power(1), Scale(E2, Regularizer(1))),
]


def test_eval_examples():
    f = Power(2)
    assert f.eval(ONE + E1).isclose(2.0 * E1)

    e = Regularizer(1)
    assert e.eval(ONE).isclose(Quaternion(0.25))


def test_power_eval_matches_repeated_multiplication(rng):
    for n in (0, 1, 2, 3, 5, 7):
        f = Power(n)
        for _ in range(25):
            q = random_quaternion(rng)
            want = ONE
            for _ in range(n):
                want = q * want
            assert (f.eval(q) - want).norm() <= 1e-12 * max(1.0, want.norm())


def test_regularizer_eval_matches_quotient(rng):
    for n in (1, 2, 3):
        e = Regularizer(n)
        for _ in range(25):
            q = random_quaternion(rng)
            if (ONE + q).norm() < 1e-3:
                continue
            num = q ** n
            den = (ONE + q) ** (2 * n)
            want = num * den.inverse()
            assert (e.eval(q) - want).norm() <= 1e-10 * max(1.0, want.norm())


def test_slice_derivative_structures():
    d = Power(3).slice_derivative()
    # 3 * pow(2)
    q = Quaternion(0.3, 1.1, -0.4, 0.2)
    assert (d.eval(q) - 3.0 * Power(2).eval(q)).norm() <= 1e-12

    s = Sum(Power(1), Power(2)).slice_derivative()
    want = Sum(Scale(1.0, Power(0)), Scale(2.0, Power(1)))
    assert (s.eval(q) - want.eval(q)).norm() <= 1e-12


def test_regularizer_derivative_closed_form(rng):
    # e'(s) = (1 - s) / (1 + s)^3 for n = 1
    d = Regularizer(1).slice_derivative()
    for _ in range(10):
        q = random_quaternion(rng)
        if (ONE + q).norm() < 1e-2:
            continue
        want = (ONE - q) * (((ONE + q) ** 3).inverse())
        assert (d.eval(q) - want).norm() <= 1e-10 * max(1.0, want.norm())


@pytest.mark.parametrize("f", [Regularizer(1), Regularizer(3),
                               Product(Power(2), Regularizer(3))])
def test_derivative_against_central_differences(f, rng):
    d = f.slice_derivative()
    h = 1e-6
    for _ in range(10):
        x = rng.uniform(0.3, 2.0)
        y = rng.uniform(0.1, 1.5)
        fp = f.complex_stem(np.array(x + h + 1j * y))
        fm = f.complex_stem(np.array(x - h + 1j * y))
        fd = (fp - fm) / (2 * h)
        got = d.complex_stem(np.array(x + 1j * y))
        assert np.abs(got - fd).max() <= 1e-8 * max(1.0, np.abs(fd).max())


@pytest.mark.parametrize("f", BUILTINS + NONINTRINSIC)
def test_even_odd_and_cauchy_riemann_on_grid(f):
    xs = np.linspace(0.15, 2.0, 20)
    ys = np.linspace(0.1, 1.8, 20)
    gx, gy = np.meshgrid(xs, ys)
    w_pos = f.complex_stem(gx + 1j * gy)
    w_neg = f.complex_stem(gx - 1j * gy)
    assert np.allclose(w_pos.real, w_neg.real, atol=1e-12)
    assert np.allclose(w_pos.imag, -w_neg.imag, atol=1e-12)

    h = 1e-6
    w_dx = (f.complex_stem(gx + h + 1j * gy)
            - f.complex_stem(gx - h + 1j * gy)) / (2 * h)
    w_dy = (f.complex_stem(gx + 1j * (gy + h))
            - f.complex_stem(gx + 1j * (gy - h))) / (2 * h)
    da_dx, db_dx = w_dx.real, w_dx.imag
    da_dy, db_dy = w_dy.real, w_dy.imag
    scale = max(np.abs(da_dx).max(), np.abs(db_dy).max(), 1.0)
    assert np.abs(da_dx - db_dy).max() <= 1e-6 * scale
    assert np.abs(da_dy + db_dx).max() <= 1e-6 * scale

    # analytic x-derivative agrees with the finite difference
    dw = f.complex_stem(gx + 1j * gy, 1)
    da, db = dw.real, dw.imag
    assert np.abs(da - da_dx).max() <= 1e-6 * scale
    assert np.abs(db - db_dx).max() <= 1e-6 * scale


def test_composite_stems_follow_the_quaternion_pair_rules():
    # Product and Scale act on complex stems; on the quaternion pairs they are
    # the stem product (a1 a2 - b1 b2, a1 b2 + b1 a2) and c*(alpha, beta)
    z = np.add.outer(1j * np.linspace(0.1, 1.8, 7), np.linspace(-2.0, 2.0, 9))

    def pair_product(u, v):
        return (qarr_mul(u.real, v.real) - qarr_mul(u.imag, v.imag)
                + 1j * (qarr_mul(u.real, v.imag) + qarr_mul(u.imag, v.real)))

    def close(got, want):
        scale = np.abs(want).max(axis=-1, keepdims=True)
        return np.all(np.abs(got - want) <= 1e-15 * scale)

    g, f = Regularizer(2), Scale(E1, Regularizer(2))
    want = [pair_product(g.complex_stem(z), f.complex_stem(z)),
            pair_product(g.complex_stem(z, 1), f.complex_stem(z))
            + pair_product(g.complex_stem(z), f.complex_stem(z, 1))]
    c = Quaternion(0.5, 1, -0.5, 0.25)
    h = Product(g, f)  # not intrinsic, so c must act from the left
    for m in (0, 1):
        assert close(Product(g, f).complex_stem(z, m), want[m])
        inner = h.complex_stem(z, m)
        assert close(Scale(c, h).complex_stem(z, m),
                     qarr_mul(qarr(c), inner.real)
                     + 1j * qarr_mul(qarr(c), inner.imag))


def _per_unit_sup(f, theta, weight):
    """The certificates' grid maximum as one evaluation per grid point, at
    the unit J that maximises |f(x + J*y)| there: J along Im(alpha conj(beta)),
    any unit when that is zero."""
    best = 0.0
    for ang, r in itertools.product(theta * _GRID_ANGLES, _GRID_RADII):
        x, y = r * math.cos(ang), r * math.sin(ang)
        w = f.complex_stem(np.asarray(complex(x, y)))
        alpha, beta = (Quaternion.from_components(part)
                       for part in (w.real, w.imag))
        cross = (alpha * beta.conj()).imag
        j = E1 if cross.norm() == 0.0 else cross * (1.0 / cross.norm())
        value = f.eval(Quaternion(x) + j * y).norm()
        best = max(best, value / float(weight(r)))
    return best


@pytest.mark.parametrize("f", BUILTINS + NONINTRINSIC)
def test_certificate_constants_match_a_per_unit_loop(f):
    theta = 2.4
    grow = f.certify_growth(theta)
    want = 2.0 * _per_unit_sup(f, theta, lambda r: r ** grow.k + r ** -grow.k)
    assert math.isclose(grow.constant, want, rel_tol=1e-13)
    try:
        dec = f.certify_decay(1.0, 1.0, theta)
    except ClassMismatch:
        return
    want = 2.0 * _per_unit_sup(f, theta, lambda r: np.where(
        r <= 1.0, r ** dec.delta0, r ** -dec.deltainf))
    assert math.isclose(dec.constant, max(want, 1e-6), rel_tol=1e-13)


def test_certificate_sup_covers_every_unit_and_both_rays():
    # |f(x + J y)| of a sum of differently scaled terms depends on J; the
    # sampled sup must bound it for every unit J and for -J (the lower ray)
    theta = 13 * math.pi / 16
    c1, c2 = Quaternion(-0.5, 1.4, 0.1, 2.3), Quaternion(-0.8, 0.6, -0.2, 0.6)
    f = Sum(Scale(c1, Regularizer(2)),
            Scale(c2, Product(Power(1), Regularizer(3))))
    units = np.random.default_rng(5).normal(size=(2000, 3))
    units /= np.linalg.norm(units, axis=1, keepdims=True)
    units = np.concatenate([units, -units])
    units = np.concatenate([np.zeros((len(units), 1)), units], axis=1)
    ang = theta * _GRID_ANGLES[:, None]
    w = f.complex_stem(_GRID_RADII * np.cos(ang) + 1j * _GRID_RADII * np.sin(ang))
    values = qarr_norm(w.real + qarr_mul(units[:, None, None], w.imag))
    grow = f.certify_growth(theta)
    dec = f.certify_decay(1.0, 1.0, theta)
    for constant, weight in (
            (grow.constant, _GRID_RADII ** grow.k + _GRID_RADII ** -grow.k),
            (dec.constant, np.where(_GRID_RADII <= 1.0,
                                    _GRID_RADII ** dec.delta0,
                                    _GRID_RADII ** -dec.deltainf))):
        assert (values / weight).max() <= 0.5 * constant * (1.0 + 1e-14)


def test_intrinsic_slice_structure(rng):
    f = Sum(Regularizer(2), Power(1))
    for _ in range(20):
        x = rng.uniform(0.2, 2.0)
        y = rng.uniform(0.1, 1.5)
        vals = []
        for j in (E1, E2, E3, Quaternion(0, 0.6, 0.0, 0.8)):
            v = f.eval(Quaternion(x) + j * y)
            alpha = v.s0
            beta = -(j * v).s0
            vals.append((alpha, beta))
        base = vals[0]
        for alpha, beta in vals[1:]:
            assert math.isclose(alpha, base[0], rel_tol=1e-12, abs_tol=1e-12)
            assert math.isclose(beta, base[1], rel_tol=1e-12, abs_tol=1e-12)


def test_pointwise_fine_power_examples(rng):
    for _ in range(5):
        q = random_quaternion(rng)
        if to_slice(q).y < 1e-3:
            continue
        d, db, lap = pointwise_fine(Power(1), q)
        assert d.isclose(Quaternion(-2.0), tol=1e-12)
        assert db.isclose(Quaternion(4.0), tol=1e-12)
        assert lap.isclose(Quaternion(), tol=1e-12)

        _, _, lap2 = pointwise_fine(Power(2), q)
        assert lap2.isclose(Quaternion(-4.0), tol=1e-10)


def quaternion_derivative_sums(q: Quaternion, n: int):
    """Direct evaluation of the power derivative sums via quaternion products."""
    qb = q.conj()
    s = Quaternion()
    for k in range(n):
        s = s + (qb ** (n - 1 - k)) * (q ** k)
    d = -2.0 * s
    db = 2.0 * float(n) * (q ** (n - 1)) + 2.0 * s
    lap = Quaternion()
    for k in range(1, n):
        lap = lap + float(k) * ((qb ** (n - 1 - k)) * (q ** (k - 1)))
    lap = -4.0 * lap
    return d, db, lap


def test_pointwise_fine_matches_power_sums(rng):
    for n in range(1, 9):
        f = Power(n)
        count = 0
        while count < 100:
            q = random_quaternion(rng)
            if to_slice(q).y < 1e-2:
                continue
            count += 1
            got = pointwise_fine(f, q)
            want = quaternion_derivative_sums(q, n)
            for a, b in zip(got, want):
                assert (a - b).norm() <= 1e-10 * max(1.0, b.norm())


def test_fine_combination_is_twice_derivative(rng):
    for f in (Regularizer(2), Product(Power(1), Regularizer(2)), Power(4)):
        fp = f.slice_derivative()
        for _ in range(25):
            q = random_quaternion(rng)
            p = to_slice(q)
            if p.y < 1e-2 or (ONE + q).norm() < 1e-2:
                continue
            d, db, _ = pointwise_fine(f, q)
            want = 2.0 * fp.eval(q)
            assert (d + db - want).norm() <= 1e-10 * max(1.0, want.norm())


def test_pointwise_fine_rejects_reals():
    with pytest.raises(ValueError):
        pointwise_fine(Power(2), Quaternion(1.5))


class TestFiniteDifferenceOperators:
    """Validate the closed fine-structure forms against 4D finite
    differences of the evaluated function, independent of any stem
    bookkeeping."""

    UNITS = (ONE, E1, E2, E3)

    @staticmethod
    def _shift(q, i, h):
        c = list(q.components)
        c[i] += h
        return Quaternion(*c)

    def _fd_dirac(self, f, q, h=1e-6, conjugate=False):
        acc = Quaternion()
        for i, e in enumerate(self.UNITS):
            d = (f.eval(self._shift(q, i, h)) - f.eval(self._shift(q, i, -h))) \
                * (0.5 / h)
            if conjugate and i > 0:
                acc = acc - e * d
            else:
                acc = acc + e * d
        return acc

    def _fd_laplacian_step(self, f, q, h):
        acc = Quaternion()
        centre = f.eval(q)
        for i in range(4):
            acc = acc + (f.eval(self._shift(q, i, h)) - 2.0 * centre
                         + f.eval(self._shift(q, i, -h))) * (1.0 / (h * h))
        return acc

    def _fd_laplacian(self, f, q, h=2e-3):
        # Richardson extrapolation kills the h^2 truncation term
        coarse = self._fd_laplacian_step(f, q, h)
        fine = self._fd_laplacian_step(f, q, 0.5 * h)
        return (4.0 * fine - coarse) * (1.0 / 3.0)

    @pytest.mark.parametrize("f", [Power(2), Power(3), Regularizer(2),
                                   Product(Power(1), Regularizer(2))])
    def test_against_fd(self, f, rng):
        checked = 0
        while checked < 5:
            q = random_quaternion(rng)
            p = to_slice(q)
            if p.y < 0.3 or (ONE + q).norm() < 0.8 or q.norm() > 2.5:
                continue
            checked += 1
            d, db, lap = pointwise_fine(f, q)
            assert (d - self._fd_dirac(f, q)).norm() <= 1e-7
            assert (db - self._fd_dirac(f, q, conjugate=True)).norm() <= 1e-7
            assert (lap - self._fd_laplacian(f, q)).norm() <= 1e-6


def test_choose_regularizer_arithmetic():
    third = 1.0 / 3.0
    theta = 2.0
    assert choose_regularizer(Power(1), third, third, theta).n == 2
    # reg(2) decays at both ends, so the growth exponent falls back to 0.5
    assert choose_regularizer(Regularizer(2), third, third, theta).n == 1
    assert choose_regularizer(Power(3), third, third, theta).n == 4


def test_decay_certificates():
    theta = 2.0
    cert = Regularizer(2).certify_decay(1.0, 1.0, theta)
    assert (cert.delta0, cert.deltainf) == (2.0, 2.0)
    assert cert.constant > 0.0
    # sampled bound really holds on a fresh grid
    f = Regularizer(2)
    for r in np.geomspace(1e-2, 1e2, 25):
        for ang in np.linspace(-0.95 * theta, 0.95 * theta, 9):
            q = Quaternion(r * math.cos(ang)) + E2 * (r * abs(math.sin(ang)))
            bound = cert.constant * (r ** (cert.a - 1 + cert.delta0) if r <= 1
                                     else r ** (cert.b - 1 - cert.deltainf))
            assert f.eval(q).norm() <= bound * (1 + 1e-9)

    with pytest.raises(ClassMismatch):
        Power(1).certify_decay(1.0, 1.0, theta)


def test_growth_certificates():
    cert = Power(3).certify_growth(2.0)
    assert cert.k == pytest.approx(3.0)
    cert2 = Regularizer(2).certify_growth(2.0)
    assert cert2.k == pytest.approx(0.5)


def test_rebuilt_expression_shares_its_certificates(monkeypatch):
    # certificates are memoized on repr(f), as Evaluator values are, so the
    # Product(e, f) that every H-infinity value rebuilds samples no grid again
    monkeypatch.setattr(slicefun, "_CERTIFICATES", slicefun.Memo())
    samples = []
    sample_sup = StemFunction._sample_sup

    def counting(self, theta, weight):
        samples.append(theta)
        return sample_sup(self, theta, weight)

    monkeypatch.setattr(StemFunction, "_sample_sup", counting)
    first, second = (Product(Regularizer(2), Power(1)) for _ in range(2))
    assert first is not second
    decay = first.certify_decay(1.0, 1.0, 2.4)
    assert second.certify_decay(1.0, 1.0, 2.4) == decay
    growth = first.certify_growth(2.4)
    assert second.certify_growth(2.4) == growth
    assert samples == [2.4, 2.4]  # one grid sample per certificate kind
    other = second.certify_decay(1.0, 1.0, 2.3)
    assert samples == [2.4, 2.4, 2.3] and other.theta == 2.3
    assert other != decay


def test_product_requires_intrinsic_left():
    twisted = Scale(E1, Regularizer(2))
    assert not twisted.intrinsic
    with pytest.raises(NotIntrinsic):
        Product(twisted, Power(1))
    # intrinsic left with non-intrinsic right is fine
    p = Product(Regularizer(2), twisted)
    assert not p.intrinsic


def test_quaternion_scale_evaluation(rng):
    c = Quaternion(0.5, 1.0, -0.5, 0.25)
    f = Scale(c, Regularizer(2))
    for _ in range(20):
        q = random_quaternion(rng)
        if (ONE + q).norm() < 1e-2:
            continue
        p = to_slice(q)
        w = Regularizer(2).complex_stem(np.asarray(complex(p.x, p.y)))
        alpha, beta = (Quaternion.from_components(part)
                       for part in (w.real, w.imag))
        want = c * alpha + p.j * (c * beta)
        assert (f.eval(q) - want).norm() <= 1e-12 * max(1.0, want.norm())


def test_repr_tells_close_scales_apart():
    # repr is the memo key of calculus.Evaluator, so it must be exact
    assert repr(Scale(2.5, Regularizer(2))) != repr(Scale(2.5000001,
                                                          Regularizer(2)))
    assert repr(Scale(Quaternion(2.0, 1e-13), Regularizer(2))) \
        != repr(Scale(2.0, Regularizer(2)))
    c = Quaternion(0.1, 1.0 / 3.0, -2e-17, 7.0)
    assert eval(repr(c), {"Quaternion": Quaternion}) == c


class TestParser:
    def test_atoms(self):
        assert isinstance(parse("pow(3)"), Power)
        assert isinstance(parse("reg(2)"), Regularizer)
        assert parse("pow(3)").n == 3

    def test_expression_value(self, rng):
        f = parse("2*reg(2) + (pow(1)*reg(3))")
        manual = Sum(Scale(2.0, Regularizer(2)),
                     Product(Power(1), Regularizer(3)))
        for _ in range(10):
            q = random_quaternion(rng)
            if (ONE + q).norm() < 1e-2:
                continue
            assert (f.eval(q) - manual.eval(q)).norm() <= 1e-12

    def test_left_to_right(self):
        # equal precedence: a + b * c parses as (a + b) * c
        f = parse("reg(2) + reg(2) * pow(1)")
        manual = Product(Sum(Regularizer(2), Regularizer(2)), Power(1))
        q = Quaternion(0.4, 0.3, 0.1, 0.0)
        assert (f.eval(q) - manual.eval(q)).norm() <= 1e-13

    def test_parentheses(self):
        f = parse("reg(2) * (pow(1) + pow(2))")
        manual = Product(Regularizer(2), Sum(Power(1), Power(2)))
        q = Quaternion(0.4, 0.3, 0.1, 0.0)
        assert (f.eval(q) - manual.eval(q)).norm() <= 1e-13

    @pytest.mark.parametrize("text, spaced", [("pow(1)+2", "pow(1) + 2"),
                                              ("2*reg(2)+1", "2*reg(2) + 1")])
    def test_sign_after_a_term_is_an_operator(self, text, spaced):
        q = Quaternion(0.4, 0.3, 0.1, 0.0)
        assert repr(parse(text)) == repr(parse(spaced))
        assert (parse(text).eval(q) - parse(spaced).eval(q)).norm() == 0.0

    def test_scalar_only(self):
        f = parse("1.5")
        assert f.eval(Quaternion(2.0)).isclose(Quaternion(1.5))

    @pytest.mark.parametrize("bad", ["pow(", "pow(1.5)", "reg(2))", "foo(1)",
                                     "pow(1) +", "reg 2", "reg(1e400)",
                                     "pow(1e400)", "pow(103)", "pow(1e20)"])
    def test_errors(self, bad):
        # parse checks grammar only: a well-formed pow whose stem overflows
        # on the certificate grid parses, and is refused at its certificate
        if bad in ("pow(103)", "pow(1e20)"):
            f = parse(bad)
            with pytest.raises(ClassMismatch, match=re.escape(repr(f))):
                f.certify_growth(13 * math.pi / 16)
        else:
            with pytest.raises(ValueError):
                parse(bad)



# (text, the repr parse gives, or the exception it raises)
GRAMMAR = [
    ("pow(3)", "pow(3)"),
    ("reg(2)", "reg(2)"),
    ("-2*reg(2)", "(-2.0 * reg(2))"),
    ("pow(1)*-2", "(-2.0 * pow(1))"),
    ("2+-3", "(-1.0 * pow(0))"),
    ("2*+3", "(6.0 * pow(0))"),
    ("- 1", ValueError),
    ("+ 1e3", ValueError),
    ("2 - 3", ValueError),
    ("2-3", ValueError),
    ("-pow(1)", ValueError),
    ("pow(1)+2", "(pow(1) + (2.0 * pow(0)))"),
    ("2*3+reg(2)", "((6.0 * pow(0)) + reg(2))"),
    ("1.5", "(1.5 * pow(0))"),
    ("1e400", "(inf * pow(0))"),
    ("reg(2)*2", "(2.0 * reg(2))"),
    ("(2)", "(2.0 * pow(0))"),
    ("pow((2))", ValueError),
    ("pow(2.0)", "pow(2)"),
    ("pow(+1)", "pow(1)"),
    ("pow(1.5)", ValueError),
    ("pow(-0)", "pow(0)"),
    ("pow(1e20)", "pow(100000000000000000000)"),
    ("reg(1e400)", ValueError),
    ("reg(0)", ValueError),
    ("", ValueError),
    ("()", ValueError),
    ("pow(1)reg(2)", ValueError),
    (" ( pow ( 1 ) + 2 ) * reg ( 2 )", "((pow(1) + (2.0 * pow(0))) * reg(2))"),
    ("pow(- 1)", ValueError),
]


@pytest.mark.parametrize("text, expected", GRAMMAR)
def test_grammar(text, expected):
    if isinstance(expected, str):
        assert repr(parse(text)) == expected
    else:
        with pytest.raises(expected):
            parse(text)


@pytest.mark.parametrize("text", ["pow(1) ", "2*reg(2)\t", "(1 + reg(1)) \n",
                                  "1.5  "])
def test_trailing_whitespace_is_ignored(text):
    assert repr(parse(text)) == repr(parse(text.rstrip()))


_ATOMS = st.one_of(
    st.integers(0, 150).map(lambda n: f"pow({n})"),
    st.integers(1, 150).map(lambda n: f"reg({n})"),
    st.floats(-1e3, 1e3).map(repr))
_EXPRESSIONS = st.recursive(_ATOMS, lambda inner: st.tuples(
    inner, st.sampled_from("+*"), inner).map(lambda t: f"({t[0]} {t[1]} {t[2]})"),
    max_leaves=6)


@settings(max_examples=100, deadline=None)
@given(_EXPRESSIONS)
def test_parsed_functions_certify_finitely_or_raise_typed(text):
    # parse checks grammar only: a stem that overflows on the certificate
    # grid is refused at certification, with no numpy warning
    f = parse(text)
    theta = 13 * math.pi / 16
    for certify in (lambda: f.certify_decay(1.0, 1.0, theta),
                    lambda: f.certify_growth(theta)):
        try:
            cert = certify()
        except QCalcError:
            continue
        assert math.isfinite(cert.constant)


def test_regularizer_pole_guard():
    with pytest.raises(ZeroDivisionError):
        Regularizer(1).eval(Quaternion(-1.0))


# the family's leaves and combinations, small enough that the certificate
# grid's factor 2 is meant to cover every point of the sector
_LEAVES = st.one_of(st.integers(0, 3).map(Power),
                    st.integers(1, 3).map(Regularizer))
_SCALARS = st.one_of(
    st.floats(0.2, 3.0), st.floats(-3.0, -0.2),
    st.tuples(*[st.floats(-2.0, 2.0)] * 4).filter(
        lambda c: math.hypot(*c) > 0.2).map(lambda c: Quaternion(*c)))


def _combinations(children):
    return st.one_of(
        st.tuples(children, children).map(lambda fg: Sum(*fg)),
        st.tuples(children.filter(lambda g: g.intrinsic),
                  children).map(lambda gf: Product(*gf)),
        st.tuples(_SCALARS, children).map(lambda cf: Scale(*cf)))


_MEMBERS = st.recursive(_LEAVES, _combinations, max_leaves=3)


@settings(max_examples=60, deadline=None)
@given(_MEMBERS, st.integers(0, 2**32 - 1))
def test_decay_certificate_holds_at_each_end(f, seed):
    # |f(x + J y)| <= C |s|**(a-1+delta0) (|s| <= 1) and
    # C |s|**(b-1-deltainf) (|s| >= 1) at units J and -J (both rays), at
    # angles up to theta and radii far beyond the grid's 1e-3..1e3
    theta = 13 * math.pi / 16
    try:
        cert = f.certify_decay(1.0, 1.0, theta)
    except ClassMismatch:
        return
    rng = np.random.default_rng(seed)
    r = np.geomspace(1e-6, 1e6, 61)
    ang = rng.uniform(0.0, theta, size=(8, 1))
    w = f.complex_stem(r * np.exp(1j * ang))  # (8, 61, 4)
    units = rng.normal(size=(8, 1, 4)) * np.array([0.0, 1.0, 1.0, 1.0])
    units /= np.linalg.norm(units, axis=-1, keepdims=True)
    bound = cert.constant * np.where(r <= 1.0,
                                     r ** (cert.a - 1.0 + cert.delta0),
                                     r ** (cert.b - 1.0 - cert.deltainf))
    for j in (units, -units):
        values = qarr_norm(w.real + qarr_mul(j, w.imag))
        assert np.all(values <= bound * (1.0 + 1e-12))


# each function's classes (a, b) refused with ClassMismatch: by the orders
# (min(ord0 - a + 1, b - 1 - ordinf) <= 0) or by a sup that is not finite
_CLASSES = [(1.0, 1.0), (1.0, -1.0), (2.0, 1.0), (1.0 / 3.0, 1.0 / 3.0)]
_REFUSED = {
    "pow(0)": _CLASSES, "pow(1)": _CLASSES, "pow(3)": _CLASSES,
    "pow(1) + reg(2)": _CLASSES, "pow(3) * reg(2)": _CLASSES,
    "reg(110) * pow(103)": _CLASSES,
    "reg(1)": [(1.0, -1.0), (2.0, 1.0)], "reg(2)": [(1.0, -1.0)],
    "pow(1) * reg(3)": [(1.0, -1.0)], "reg(7) * pow(6)": [(1.0, -1.0)],
    "2.5 * reg(2)": [(1.0, -1.0)],
    "pow(2) * reg(3) + reg(1)": [(1.0, -1.0), (2.0, 1.0)],
    "0 * pow(4)": [], "reg(1) + 3 * reg(4)": [], "reg(2) * reg(2)": [],
}


@pytest.mark.parametrize("text", sorted(_REFUSED))
def test_class_membership_is_unchanged(text):
    f = parse(text)
    refused = []
    for a, b in _CLASSES:
        try:
            f.certify_decay(a, b, 2.4)
        except ClassMismatch:
            refused.append((a, b))
    assert refused == _REFUSED[text]
