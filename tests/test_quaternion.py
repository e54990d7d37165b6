import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcalc.quaternion import (E1, E2, E3, ONE, Quaternion, arg, in_sector,
                              qarr_mul, to_slice)

UNITS = {"1": ONE, "e1": E1, "e2": E2, "e3": E3}


def left_matrix(q: Quaternion) -> np.ndarray:
    """Independent 4x4 real representation of left multiplication by q."""
    a, b, c, d = q.s0, q.s1, q.s2, q.s3
    return np.array([[a, -b, -c, -d],
                     [b, a, -d, c],
                     [c, d, a, -b],
                     [d, -c, b, a]])


finite = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)
quats = st.builds(Quaternion, finite, finite, finite, finite)


def test_unit_multiplication_table():
    assert (E1 * E2).isclose(E3)
    assert (E2 * E3).isclose(E1)
    assert (E3 * E1).isclose(E2)
    assert (E2 * E1).isclose(-E3)
    assert (E3 * E2).isclose(-E1)
    assert (E1 * E3).isclose(-E2)
    for e in (E1, E2, E3):
        assert (e * e).isclose(-ONE)


def test_table_closure_over_signed_units():
    signed = [u for q in UNITS.values() for u in (q, -q)]
    for a in signed:
        for b in signed:
            p = a * b
            assert any(p.isclose(u) for u in signed)


def test_simple_products():
    assert ((ONE + E1) * (ONE - E1)).isclose(Quaternion(2.0))
    assert (E1 * E2).isclose(E3)


@settings(max_examples=200, deadline=None)
@given(quats, quats)
def test_norm_multiplicative(a, b):
    assert math.isclose((a * b).norm(), a.norm() * b.norm(),
                        rel_tol=1e-10, abs_tol=1e-8)


@settings(max_examples=200, deadline=None)
@given(quats, quats)
def test_conj_antihomomorphism(a, b):
    lhs = (a * b).conj()
    rhs = b.conj() * a.conj()
    assert (lhs - rhs).norm() <= 1e-9 * max(1.0, a.norm() * b.norm())


@settings(max_examples=200, deadline=None)
@given(quats, quats, quats)
def test_associativity(a, b, c):
    lhs = (a * b) * c
    rhs = a * (b * c)
    scale = max(1.0, a.norm() * b.norm() * c.norm())
    assert (lhs - rhs).norm() <= 1e-9 * scale


def test_double_conjugation_and_modulus(rng):
    for _ in range(50):
        s = Quaternion(*rng.normal(size=4))
        assert s.conj().conj().isclose(s)
        p = s * s.conj()
        assert math.isclose(p.s0, s.norm_sq(), rel_tol=1e-12)
        assert p.imag.norm() <= 1e-14 * max(1.0, s.norm_sq())


def test_matrix_representation_oracle(rng):
    for _ in range(100):
        a = Quaternion(*rng.normal(size=4))
        b = Quaternion(*rng.normal(size=4))
        want = left_matrix(a) @ b.components
        got = (a * b).components
        assert np.allclose(got, want, atol=1e-12 * max(1.0, a.norm() * b.norm()))
        # array kernel agrees with the object product
        arr = qarr_mul(a.components, b.components)
        assert np.allclose(arr, want, atol=1e-12 * max(1.0, a.norm() * b.norm()))


def test_inverse_and_division(rng):
    for _ in range(20):
        s = Quaternion(*rng.normal(size=4))
        if s.norm() < 1e-6:
            continue
        assert (s * s.inverse()).isclose(ONE, tol=1e-12)
        assert (s / s).isclose(ONE, tol=1e-12)
    with pytest.raises(ZeroDivisionError):
        Quaternion().inverse()


def test_to_slice_examples():
    p = to_slice(Quaternion(3.0) + 4.0 * E2)
    assert p.x == 3.0 and math.isclose(p.y, 4.0) and p.j.isclose(E2)
    assert not p.degenerate

    p = to_slice(Quaternion(5.0))
    assert p.x == 5.0 and p.y == 0.0 and p.j.isclose(E1) and p.degenerate

    s = Quaternion(1.0, 1.0, 1.0, 1.0)
    p = to_slice(s)
    assert math.isclose(p.y, math.sqrt(3.0))
    assert p.j.isclose(Quaternion(0, 1, 1, 1) / math.sqrt(3.0))


def test_to_slice_reconstruction(rng):
    for _ in range(100):
        s = Quaternion(*rng.normal(size=4))
        p = to_slice(s)
        assert (p.point() - s).norm() <= 1e-14 * max(1.0, s.norm())


def test_in_sector():
    assert in_sector(ONE + E1, math.pi / 2)
    assert not in_sector(Quaternion(-1.0), 3 * math.pi / 4)
    # boundary excluded: Arg(e3) = pi/2
    assert not in_sector(E3, math.pi / 2)
    assert in_sector(E3, math.pi / 2 + 1e-9)
    with pytest.raises(ValueError):
        in_sector(Quaternion(), math.pi / 2)
    with pytest.raises(ValueError):
        in_sector(ONE, 4.0)


def test_arg_sign_free(rng):
    for _ in range(20):
        s = Quaternion(*rng.normal(size=4))
        if s.norm() < 1e-6:
            continue
        assert math.isclose(arg(s), arg(s.conj()), rel_tol=1e-12)
