"""Quaternion scalars, slice-plane geometry and sector membership.

A quaternion is s0 + s1*e1 + s2*e2 + s3*e3 with e1*e2 = e3, e2*e3 = e1,
e3*e1 = e2 and ei**2 = -1.  Every non-real quaternion s lies in exactly one
complex half-plane: s = x + J*y with x = Re(s), y = |Im(s)| > 0 and J the
unit imaginary direction of Im(s).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Global absolute tolerance for scalar comparisons.  The algebra itself is
# exact as floating point; the tolerance only enters predicates.
DEFAULT_TOL = 1e-12


@dataclass(frozen=True)
class Quaternion:
    s0: float = 0.0
    s1: float = 0.0
    s2: float = 0.0
    s3: float = 0.0

    @staticmethod
    def from_components(c) -> "Quaternion":
        c = np.asarray(c, dtype=float)
        return Quaternion(float(c[0]), float(c[1]), float(c[2]), float(c[3]))

    @property
    def components(self) -> np.ndarray:
        return np.array([self.s0, self.s1, self.s2, self.s3], dtype=float)

    @property
    def re(self) -> float:
        return self.s0

    @property
    def imag(self) -> "Quaternion":
        return Quaternion(0.0, self.s1, self.s2, self.s3)

    def conj(self) -> "Quaternion":
        return Quaternion(self.s0, -self.s1, -self.s2, -self.s3)

    def norm(self) -> float:
        return math.sqrt(self.s0 * self.s0 + self.s1 * self.s1
                         + self.s2 * self.s2 + self.s3 * self.s3)

    def norm_sq(self) -> float:
        return self.s0 * self.s0 + self.s1 * self.s1 + self.s2 * self.s2 + self.s3 * self.s3

    def inverse(self) -> "Quaternion":
        n2 = self.norm_sq()
        if n2 == 0.0:
            raise ZeroDivisionError("zero quaternion has no inverse")
        return Quaternion(self.s0 / n2, -self.s1 / n2, -self.s2 / n2, -self.s3 / n2)

    def is_real(self, tol: float | None = None) -> bool:
        t = DEFAULT_TOL if tol is None else tol
        return abs(self.s1) <= t and abs(self.s2) <= t and abs(self.s3) <= t

    def isclose(self, other: "Quaternion", tol: float | None = None) -> bool:
        t = DEFAULT_TOL if tol is None else tol
        return (self - other).norm() <= t

    def __add__(self, other):
        other = _coerce(other)
        return Quaternion(self.s0 + other.s0, self.s1 + other.s1,
                          self.s2 + other.s2, self.s3 + other.s3)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        return Quaternion(self.s0 - other.s0, self.s1 - other.s1,
                          self.s2 - other.s2, self.s3 - other.s3)

    def __rsub__(self, other):
        return _coerce(other) - self

    def __neg__(self):
        return Quaternion(-self.s0, -self.s1, -self.s2, -self.s3)

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return Quaternion(self.s0 * other, self.s1 * other,
                              self.s2 * other, self.s3 * other)
        a, b = self, _coerce(other)
        return Quaternion(
            a.s0 * b.s0 - a.s1 * b.s1 - a.s2 * b.s2 - a.s3 * b.s3,
            a.s0 * b.s1 + a.s1 * b.s0 + a.s2 * b.s3 - a.s3 * b.s2,
            a.s0 * b.s2 - a.s1 * b.s3 + a.s2 * b.s0 + a.s3 * b.s1,
            a.s0 * b.s3 + a.s1 * b.s2 - a.s2 * b.s1 + a.s3 * b.s0,
        )

    def __rmul__(self, other):
        if isinstance(other, (int, float)):
            return self * other
        return _coerce(other) * self

    def __truediv__(self, other):
        if isinstance(other, (int, float)):
            return self * (1.0 / other)
        return self * _coerce(other).inverse()

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("only nonnegative integer powers")
        out = ONE
        for _ in range(n):
            out = out * self
        return out

    def __repr__(self):
        return f"Quaternion({self.s0!r}, {self.s1!r}, {self.s2!r}, {self.s3!r})"


def _coerce(v) -> Quaternion:
    if isinstance(v, Quaternion):
        return v
    if isinstance(v, (int, float)):
        return Quaternion(float(v))
    raise TypeError(f"cannot interpret {type(v).__name__} as a quaternion")


ONE = Quaternion(1.0)
E1 = Quaternion(0.0, 1.0)
E2 = Quaternion(0.0, 0.0, 1.0)
E3 = Quaternion(0.0, 0.0, 0.0, 1.0)


@dataclass(frozen=True)
class SlicePoint:
    """A point x + J*y of a complex slice, with y >= 0 and J unit imaginary.

    degenerate is set when the original quaternion was real, in which case
    J = e1 is a recorded default rather than geometric data.
    """

    x: float
    y: float
    j: Quaternion
    degenerate: bool = False

    def __post_init__(self):
        if self.y < 0:
            raise ValueError("slice ordinate y must be nonnegative")
        if abs(self.j.s0) > 1e-9 or abs(self.j.norm() - 1.0) > 1e-9:
            raise ValueError("J must be a unit purely imaginary quaternion")

    def point(self) -> Quaternion:
        return Quaternion(self.x) + self.j * self.y


def to_slice(s: Quaternion) -> SlicePoint:
    """Decompose s into (x, y, J) with s = x + J*y, y = |Im(s)|.

    Real inputs get the documented default J = e1 and the degenerate flag.
    """
    s = _coerce(s)
    y = math.sqrt(s.s1 * s.s1 + s.s2 * s.s2 + s.s3 * s.s3)
    if y <= DEFAULT_TOL:
        return SlicePoint(s.s0, 0.0, E1, degenerate=True)
    return SlicePoint(s.s0, y, Quaternion(0.0, s.s1 / y, s.s2 / y, s.s3 / y))


def arg(s: Quaternion) -> float:
    """Argument of s in [0, pi], the angle of its slice representative."""
    s = _coerce(s)
    if s.norm() == 0.0:
        raise ValueError("argument of zero is undefined")
    p = to_slice(s)
    return math.atan2(p.y, p.x)


def in_sector(s: Quaternion, omega: float) -> bool:
    """True iff s lies in the open sector of half-opening angle omega.

    The sector is |Arg(s)| < omega with the boundary excluded; since the
    slice ordinate is nonnegative the argument is sign-free.
    """
    if not 0.0 < omega < math.pi:
        raise ValueError("sector angle must lie in (0, pi)")
    return arg(s) < omega


def random_unit_imaginary(rng: np.random.Generator) -> Quaternion:
    v = rng.normal(size=3)
    v /= np.linalg.norm(v)
    return Quaternion(0.0, float(v[0]), float(v[1]), float(v[2]))


# ---------------------------------------------------------------------------
# Array kernels: quaternions as (..., 4) float arrays.  These back the batched
# kernel and quadrature paths where per-object arithmetic would be too slow.
# ---------------------------------------------------------------------------

def qarr(q: Quaternion) -> np.ndarray:
    return q.components


def qarr_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Quaternion product of component arrays, broadcasting over leading axes."""
    a0, a1, a2, a3 = a[..., 0], a[..., 1], a[..., 2], a[..., 3]
    b0, b1, b2, b3 = b[..., 0], b[..., 1], b[..., 2], b[..., 3]
    return np.stack([
        a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3,
        a0 * b1 + a1 * b0 + a2 * b3 - a3 * b2,
        a0 * b2 - a1 * b3 + a2 * b0 + a3 * b1,
        a0 * b3 + a1 * b2 - a2 * b1 + a3 * b0,
    ], axis=-1)


def qarr_norm(a: np.ndarray) -> np.ndarray:
    return np.sqrt(np.sum(a * a, axis=-1))
