import math

import numpy as np
import pytest

from qcalc import calculus
from qcalc.operators import CommutingOperator
from qcalc.quaternion import Quaternion
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


def counting_integrate(monkeypatch):
    """Install a wrapper on calculus.integrate; returns the list of keys."""
    seen = []
    original = calculus.integrate

    def counting(k, f, contour, side="left", **kw):
        seen.append((k.kind, k.operator.components.tobytes(), repr(f),
                     contour.phi, tuple(contour.unit.components),
                     contour.t_min, contour.t_max, contour.tol, side))
        return original(k, f, contour, side=side, **kw)

    monkeypatch.setattr(calculus, "integrate", counting)
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
