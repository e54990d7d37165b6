import math

import numpy as np
import pytest

from qcalc import calculus
from qcalc.contour import _index_range
from qcalc.operators import (CommutingOperator, QuatMatrix, assemble,
                             bq_scalar, kernel_batch, kernel_family)
from qcalc.quaternion import Quaternion, qarr, qarr_mul
from qcalc.suites import OperatorSpec, SuiteContext, generate_operator


def scalar_operator(q: Quaternion) -> CommutingOperator:
    """Dimension-1 operator of left multiplication by q."""
    return CommutingOperator(q.components.reshape(4, 1, 1))


def dense_twin(t: CommutingOperator) -> CommutingOperator:
    """A copy of t whose kernels take the dense path (no eigenbasis)."""
    twin = CommutingOperator(t.components)
    twin.__dict__["eigenbasis"] = None
    return twin


def random_quaternion(rng, scale=1.0) -> Quaternion:
    return Quaternion(*(scale * rng.normal(size=4)))


def exp_j(j: Quaternion, angle: float) -> Quaternion:
    """cos(angle) + j*sin(angle) for a unit imaginary j."""
    return Quaternion(math.cos(angle)) + j * math.sin(angle)


def point_kernel(kind: str, t: CommutingOperator):
    """The point kernel (x, y, unit) -> (m, 4, n, n) stack of kind at the
    points x + unit y: its family's kernel_batch pair, assembled."""
    family = kernel_family(kind)

    def point(x, y, unit):
        return assemble(kind, *kernel_batch((family,), t, x, y)[family],
                        unit)
    return point


def lattice(contour, h: float) -> np.ndarray:
    """The nodes v = j h of the library's lattice of step h on contour, at
    log radii u = sinh v."""
    lo, hi = _index_range(contour, h)
    return np.arange(lo, hi + 1) * h


def reference_level(point, f, contour, h: float, side: str) -> QuatMatrix:
    """The J-based trapezoidal pass of step h that the library's moment form
    replaces, on the library's lattice (see lattice): the point kernel
    point(x, y, unit) -> (m, 4, n, n) stack at x + unit y, such as
    point_kernel(kind, t), is called once per ray, with
    J = contour.unit and with -J, and contracted with
    s+- = e^{+-J phi} J f(r e^{+-J phi}) (see the contour module):
    sum_m h r_m cosh v_m [K(r e^{J phi}) s+ - K(r e^{-J phi}) s-] for side
    "left", the mirrored sandwich for "right"."""
    v = lattice(contour, h)
    z = np.exp(np.sinh(v) + 1j * contour.phi)
    x, y, stem = z.real, z.imag, f.complex_stem(z)
    j = contour.unit
    c_plus = qarr(exp_j(j, contour.phi) * j)
    c_minus = qarr(exp_j(j, -contour.phi) * j)
    jb = qarr_mul(qarr(j), stem.imag)
    f_plus, f_minus = stem.real + jb, stem.real - jb
    if side == "left":
        s_plus, s_minus = qarr_mul(c_plus, f_plus), qarr_mul(c_minus, f_minus)
        scalar_side = "right"
    else:
        s_plus, s_minus = qarr_mul(f_plus, c_plus), qarr_mul(f_minus, c_minus)
        scalar_side = "left"
    vals = (bq_scalar(s_plus, point(x, y, j), scalar_side)
            - bq_scalar(s_minus, point(x, y, -1.0 * j), scalar_side))
    dr = h * np.abs(z) * np.cosh(v)  # r du, du = cosh v dv
    return QuatMatrix(np.einsum("m,mcij->cij", dr, vals))


def counting_integrate(monkeypatch):
    """Install wrappers on calculus.integrate and calculus.integrate_many;
    returns the list of keys, one per integral: one per integrate call and
    one per item of a batch."""
    seen = []
    original, original_many = calculus.integrate, calculus.integrate_many

    def key(k, f, contour, side):
        return (k.kind, k.operator.components.tobytes(), k.conj, repr(f),
                contour.phi, tuple(contour.unit.components),
                contour.t_min, contour.t_max, contour.tol, side)

    def counting(k, f, contour, side="left", **kw):
        seen.append(key(k, f, contour, side))
        return original(k, f, contour, side=side, **kw)

    def counting_many(items, side="left", **kw):
        items = list(items)
        seen.extend(key(k, f, contour, side) for k, f, contour in items)
        return original_many(items, side=side, **kw)

    monkeypatch.setattr(calculus, "integrate", counting)
    monkeypatch.setattr(calculus, "integrate_many", counting_many)
    return seen


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(2024)


@pytest.fixture(scope="session")
def gen4():
    """Conjugated-diagonal 4-dimensional operator in the quarter-plane sector."""
    return generate_operator(OperatorSpec(dim=4, seed=11))


@pytest.fixture(scope="session")
def ctx4(gen4):
    return SuiteContext(gen4)


@pytest.fixture(scope="session")
def gen_diag3():
    return generate_operator(OperatorSpec(dim=3, seed=23, diagonal=True))


@pytest.fixture(scope="session")
def ctx_diag3(gen_diag3):
    return SuiteContext(gen_diag3)


@pytest.fixture(scope="session")
def unit_q():
    return Quaternion(0.0, 0.6, -0.48, 0.64)  # |.| = 1, generic direction


def sector_omega() -> float:
    return math.pi / 4.0
