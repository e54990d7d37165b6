"""Slice hyperholomorphic functions represented by stem pairs.

A function of the closed family evaluates on a slice as

    f(x + J*y) = alpha(x, y) + J * beta(x, y),

with alpha even and beta odd in y and (alpha, beta) satisfying the
Cauchy-Riemann equations.  The family is a small algebra: integer powers,
the rational regularizers s^n / (1+s)^(2n), sums, products with an
intrinsic left factor, and left scalar multiples of the stem pair.  Keeping
the family closed lets decay and growth certificates be derived instead of
assumed.

Every member is a finite sum of quaternion constants times intrinsic
functions, so its stem pair is one complex-analytic, quaternion-valued
function W = alpha + i*beta of z = x + iy (i the unit of z, not e1); slice
derivatives and the pointwise fine-structure operators come from exact
complex differentiation of W.
"""

from __future__ import annotations

import math
import re
import threading
from dataclasses import dataclass

import numpy as np

from .errors import ClassMismatch, NotIntrinsic, UnsupportedKind
from .quaternion import (DEFAULT_TOL, Quaternion, qarr, qarr_mul,
                         qarr_norm, to_slice)

# certificate grid: radii, and angles as fractions of the sector angle
_GRID_RADII = np.geomspace(1e-3, 1e3, 41)
_GRID_ANGLES = np.linspace(0.0, 0.999, 7)
_CONJ = np.array([1.0, -1.0, -1.0, -1.0])


@dataclass(frozen=True)
class DecayCertificate:
    """|f(s)| <= C * |s|**(a-1+delta0) for |s|<=1 and C * |s|**(b-1-deltainf)
    for |s|>=1 on the sector of angle theta.  Each end has its own rate,
    from f's exact leading order there (delta0 = ord0 - a + 1, deltainf =
    b - 1 - ordinf, each capped at 8), so a fast end does not wait for a
    slow one."""

    a: float
    b: float
    delta0: float
    deltainf: float
    constant: float
    theta: float


@dataclass(frozen=True)
class GrowthCertificate:
    """|f(s)| <= C * (|s|**k + |s|**(-k)) on the sector of angle theta."""

    k: float
    constant: float
    theta: float


def _embed(w: np.ndarray) -> np.ndarray:
    """A complex scalar stem as a (..., 4) component array."""
    out = np.zeros(w.shape + (4,), dtype=complex)
    out[..., 0] = w
    return out


class StemFunction:
    """Base node of the closed function algebra."""

    kind = "abstract"
    intrinsic = False
    # Leading power-law orders: f ~ |s|**ord0 near 0 and ~ |s|**ordinf near
    # infinity.  Exact for every member of the rational family.
    ord0 = 0.0
    ordinf = 0.0

    # -- evaluation ---------------------------------------------------------

    def complex_stem(self, z: np.ndarray, m: int = 0) -> np.ndarray:
        """m-th x-derivative of the stem W = alpha + i*beta at z = x + iy.

        alpha and beta are quaternion-valued, so W is a complex (..., 4)
        component array (i is the unit of z, not e1); every node is a sum
        of quaternion constants times intrinsic functions, so the
        x-derivatives of W are its complex derivatives.
        """
        raise UnsupportedKind(f"no stem rule for kind {self.kind!r}")

    def eval(self, q: Quaternion) -> Quaternion:
        """f(q) = alpha + J*beta at the slice decomposition of q."""
        p = to_slice(q)
        w = self.complex_stem(np.asarray(complex(p.x, p.y)))
        return (Quaternion.from_components(w.real)
                + p.j * Quaternion.from_components(w.imag))

    # -- structure ----------------------------------------------------------

    def slice_derivative(self) -> "StemFunction":
        raise UnsupportedKind(f"no derivative rule for kind {self.kind!r}")

    def __add__(self, other):
        # a number in a sum is the constant function c * pow(0)
        if not isinstance(other, StemFunction):
            other = Scale(other, Power(0))
        return Sum(self, other)

    def __radd__(self, c):
        return Sum(Scale(c, Power(0)), self)

    def __mul__(self, other):
        if isinstance(other, StemFunction):
            return Product(self, other)
        return Scale(other, self)

    def __rmul__(self, c):
        return Scale(c, self)

    # -- certificates -------------------------------------------------------

    def _sample_sup(self, theta: float, weight) -> float:
        """max over a sector grid (y >= 0) of sup_J |f(x + J*y)| / weight(|s|).

        |alpha + J*beta|^2 = |alpha|^2 + |beta|^2 + 2<Im(alpha conj(beta)), J>,
        so the sup over every unit J, both rays of every slice, adds
        2|Im(alpha conj(beta))|.  Raises ClassMismatch when it is not finite.
        """
        angles = theta * _GRID_ANGLES[:, None]
        with np.errstate(all="ignore"):
            # weighted first, so that squares overflow only where f/weight does
            w = (self.complex_stem(_GRID_RADII * np.exp(1j * angles))
                 / weight(_GRID_RADII)[:, None])
            cross = qarr_norm(qarr_mul(w.real, w.imag * _CONJ)[..., 1:])
            sq = np.sum((w * w.conj()).real, axis=-1) + 2.0 * cross
            sup = float(np.sqrt(sq).max())
        if not math.isfinite(sup):
            raise ClassMismatch(f"{self!r} is not finite on the certificate "
                                f"grid of the sector theta = {theta!r}")
        return sup

    def certify_decay(self, a: float, b: float, theta: float) -> DecayCertificate:
        """Certificate of membership in the class with exponents (a, b) on the sector of angle theta.

        delta0 and deltainf come from the exact leading orders at each end;
        the constant is twice _sample_sup.  Raises ClassMismatch when the
        orders admit no positive rate at either end or that sup is not
        finite.
        """
        delta0 = min(self.ord0 - a + 1.0, 8.0)
        deltainf = min(b - 1.0 - self.ordinf, 8.0)
        if delta0 <= 0.0 or deltainf <= 0.0:
            raise ClassMismatch(
                f"{self!r} is not in the ({a:g},{b:g}) decay class: "
                f"orders ({self.ord0:g}, {self.ordinf:g}) give delta0 = "
                f"{delta0:g}, deltainf = {deltainf:g}")

        def weight(r):
            return np.where(r <= 1.0, r ** (a - 1.0 + delta0),
                            r ** (b - 1.0 - deltainf))

        def compute():
            # floor keeps the truncation formulas sane for near-zero functions
            c = max(2.0 * self._sample_sup(theta, weight), 1e-6)
            return DecayCertificate(a, b, delta0, deltainf, c, theta)

        return _CERTIFICATES.get(("decay", repr(self), a, b, theta), self,
                                 compute)

    def certify_growth(self, theta: float) -> GrowthCertificate:
        k = max(self.ordinf, -self.ord0)
        if k <= 0.0:
            k = 0.5

        def weight(r):
            return r ** k + r ** (-k)

        def compute():
            return GrowthCertificate(k, 2.0 * self._sample_sup(theta, weight),
                                     theta)

        return _CERTIFICATES.get(("growth", repr(self), theta), self, compute)


class Memo:
    """The first value stored under each key, for values that depend on
    their key only (keys hold a repr, not an object).  A lock guards the
    store and is never held while computing, so two threads may compute one
    value; the first stored is kept.  The object a value was computed for
    is kept with it, so that an id-based repr stays unique."""

    def __init__(self):
        self._store: dict = {}
        self._lock = threading.Lock()

    def find(self, key):
        """The value stored under key, or None."""
        with self._lock:
            hit = self._store.get(key)
        return None if hit is None else hit[1]

    def put(self, key, owner, value):
        """Store value under key unless one is stored; returns the one kept."""
        with self._lock:
            return self._store.setdefault(key, (owner, value))[1]

    def get(self, key, owner, compute):
        value = self.find(key)
        return self.put(key, owner, compute()) if value is None else value


# certificates of the process, keyed on (kind, repr(f), class exponents,
# theta): a certificate depends only on its key, as an Evaluator value does
_CERTIFICATES = Memo()


class Power(StemFunction):
    """f(s) = s**n for an integer n >= 0."""

    kind = "power"
    intrinsic = True

    def __init__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("power exponent must be a nonnegative integer")
        self.n = n
        self.ord0 = float(n)
        self.ordinf = float(n)

    def complex_stem(self, z, m: int = 0):
        z = np.asarray(z, dtype=complex)
        if m > self.n:
            return _embed(np.zeros_like(z))
        return _embed(math.perm(self.n, m) * z ** (self.n - m))

    def slice_derivative(self):
        if self.n == 0:
            return Scale(0.0, Power(0))
        return Scale(float(self.n), Power(self.n - 1))

    def __repr__(self):
        return f"pow({self.n})"


class Regularizer(StemFunction):
    """f(s) = s**n / (1+s)**(2n); decays like |s|**n at 0 and |s|**-n at infinity."""

    kind = "regularizer"
    intrinsic = True

    def __init__(self, n: int):
        if not isinstance(n, int) or n < 1:
            raise ValueError("regularizer index must be a positive integer")
        self.n = n
        self.ord0 = float(n)
        self.ordinf = float(-n)

    def complex_stem(self, z, m: int = 0):
        z = np.asarray(z, dtype=complex)
        denom = 1.0 + z
        if np.any(np.abs(denom) < 1e-12):
            raise ZeroDivisionError("regularizer evaluated at its pole s = -1")
        # z**(n-j) (1+z)**(-2n-i) written through the bounded ratios
        # w = z/(1+z) and v = 1/(1+z) to stay inside float range on long
        # contour tails
        w = z / denom
        v = 1.0 / denom
        n = self.n
        out = np.zeros_like(z)
        for j in range(min(m, n) + 1):
            i = m - j
            # perm(2n + i - 1, i) is the rising factorial 2n (2n+1) ... (2n+i-1)
            out += (math.comb(m, j) * math.perm(n, j) * (-1.0) ** i
                    * math.perm(2 * n + i - 1, i)
                    * w ** (n - j) * v ** (n + j + i))
        return _embed(out)

    def slice_derivative(self):
        return Derivative(self, 1)

    def __repr__(self):
        return f"reg({self.n})"


class Derivative(StemFunction):
    """order-th slice derivative of an intrinsic base node."""

    kind = "derivative"

    def __init__(self, base: StemFunction, order: int):
        if not base.intrinsic:
            raise NotIntrinsic("derivative nodes require an intrinsic base")
        self.base = base
        self.order = order
        self.intrinsic = True
        self.ord0 = base.ord0 - order
        self.ordinf = base.ordinf - order

    def complex_stem(self, z, m: int = 0):
        return self.base.complex_stem(z, m + self.order)

    def slice_derivative(self):
        return Derivative(self.base, self.order + 1)

    def __repr__(self):
        return f"d{self.order}({self.base!r})"


class Sum(StemFunction):
    kind = "sum"

    def __init__(self, f: StemFunction, g: StemFunction):
        self.f = f
        self.g = g
        self.intrinsic = f.intrinsic and g.intrinsic
        self.ord0 = min(f.ord0, g.ord0)
        self.ordinf = max(f.ordinf, g.ordinf)

    def complex_stem(self, z, m: int = 0):
        return self.f.complex_stem(z, m) + self.g.complex_stem(z, m)

    def slice_derivative(self):
        return Sum(self.f.slice_derivative(), self.g.slice_derivative())

    def __repr__(self):
        return f"({self.f!r} + {self.g!r})"


class Product(StemFunction):
    """Pointwise product g*f; the left factor must be intrinsic so the stem
    product (a1*a2 - b1*b2, a1*b2 + b1*a2) is again a valid stem pair.  With
    g's stem a complex scalar that product is complex multiplication."""

    kind = "product"

    def __init__(self, g: StemFunction, f: StemFunction):
        if not g.intrinsic:
            raise NotIntrinsic("the left factor of a product must be intrinsic")
        self.g = g
        self.f = f
        self.intrinsic = f.intrinsic
        self.ord0 = g.ord0 + f.ord0
        self.ordinf = g.ordinf + f.ordinf

    def complex_stem(self, z, m: int = 0):
        # Leibniz rule; g's stem lives in the real component
        return sum(math.comb(m, j) * self.g.complex_stem(z, j)[..., :1]
                   * self.f.complex_stem(z, m - j) for j in range(m + 1))

    def slice_derivative(self):
        return Sum(Product(self.g.slice_derivative(), self.f),
                   Product(self.g, self.f.slice_derivative()))

    def __repr__(self):
        return f"({self.g!r} * {self.f!r})"


class Scale(StemFunction):
    """Left scalar multiple of the stem pair: (alpha, beta) -> (c*alpha, c*beta).

    For an intrinsic child this equals the pointwise right module action
    f(s)*c, which is the slice-preserving notion of scalar multiple.
    """

    kind = "scale"

    def __init__(self, c, f: StemFunction):
        if isinstance(c, (int, float)):
            c = Quaternion(float(c))
        if not isinstance(c, Quaternion):
            raise TypeError("scale factor must be a real number or Quaternion")
        self.c = c
        self.f = f
        self.intrinsic = f.intrinsic and c.is_real()
        if c.norm() == 0.0:
            # the zero function decays faster than any power
            self.ord0, self.ordinf = math.inf, -math.inf
        else:
            self.ord0, self.ordinf = f.ord0, f.ordinf

    def complex_stem(self, z, m: int = 0):
        return qarr_mul(qarr(self.c), self.f.complex_stem(z, m))

    def slice_derivative(self):
        return Scale(self.c, self.f.slice_derivative())

    def __repr__(self):
        if self.c.is_real(tol=0.0):
            return f"({self.c.s0!r} * {self.f!r})"
        return f"({self.c!r} * {self.f!r})"


# ---------------------------------------------------------------------------
# Pointwise fine-structure oracles.
# ---------------------------------------------------------------------------

def pointwise_fine(f: StemFunction, q: Quaternion):
    """Closed forms of (Df, Dbar f, Laplacian f) at a non-real point.

    For a slice function alpha + J*beta the Cauchy-Fueter operator reduces
    to Df = -(2/y) beta, its conjugate to Dbar f = 2 f' + (2/y) beta, and
    the Laplacian to -(2/y) d_x beta + J (2/y)(d_y beta - beta/y).  These
    serve as independent references for the operator-level calculi.
    """
    p = to_slice(q)
    if p.y <= DEFAULT_TOL:
        raise ValueError("fine-structure forms are singular on the reals (y = 0)")
    z = np.asarray(complex(p.x, p.y))
    alpha, beta, da, db = (Quaternion.from_components(part)
                           for w in (f.complex_stem(z), f.complex_stem(z, 1))
                           for part in (w.real, w.imag))
    fprime = da + p.j * db
    two_over_y = 2.0 / p.y
    d_f = -two_over_y * beta
    dbar_f = 2.0 * fprime + two_over_y * beta
    # Cauchy-Riemann gives d_y beta = d_x alpha.
    delta_f = -two_over_y * db + p.j * (two_over_y * (da - beta * (1.0 / p.y)))
    return d_f, dbar_f, delta_f


def choose_regularizer(f: StemFunction, alpha: float, beta: float,
                       theta: float) -> Regularizer:
    """Smallest rational regularizer making e*f integrable for the calculi.

    Uses the growth certificate (k, C) of f and returns reg(n) with the
    minimal integer n > max(k + 3*alpha - 1, k - 3*beta + 1).
    """
    cert = f.certify_growth(theta)
    bound = max(cert.k + 3.0 * alpha - 1.0, cert.k - 3.0 * beta + 1.0)
    return Regularizer(max(1, math.floor(bound) + 1))


# ---------------------------------------------------------------------------
# Tiny text grammar.  An expression is a term followed by any number of
# "+ term" and "* term", read left to right with equal precedence.  A term is
# a number, an atom of _ATOMS with a number argument in parentheses, or a
# parenthesised expression.  A sign belongs to a number only when it touches
# its digits, so "pow(1)+2" is a sum and "- 1" and "2 - 3" are errors.
# Whitespace may stand before and after every token.
# ---------------------------------------------------------------------------

_ATOMS = {"pow": Power, "reg": Regularizer}
_NUMBER = r"[+-]?\d+(?:\.\d*)?(?:[eE][+-]?\d+)?"
_TERM = re.compile(rf"\s*(?:(?P<num>{_NUMBER})|(?P<atom>{'|'.join(_ATOMS)})"
                   rf"\s*\(\s*(?P<arg>{_NUMBER})\s*\)|\()")
_OPERATOR = re.compile(r"\s*([+*])")
_CLOSE = re.compile(r"\s*\)")


def _term(text: str, pos: int):
    """The term at text[pos:], as a float or a StemFunction, and its end."""
    m = _TERM.match(text, pos)
    if m is None:
        atoms = ", ".join(f"{name}(number)" for name in _ATOMS)
        raise ValueError(f"expected a number, {atoms} or '(' at position "
                         f"{pos} of {text!r}")
    if m["num"]:
        return float(m["num"]), m.end()
    if m["atom"]:
        # the constructor checks the argument; an integral float is an int
        arg = float(m["arg"])
        return _ATOMS[m["atom"]](int(arg) if arg.is_integer() else arg), m.end()
    value, pos = _expr(text, m.end())
    close = _CLOSE.match(text, pos)
    if close is None:
        raise ValueError(f"expected ')' at position {pos} of {text!r}")
    return value, close.end()


def _expr(text: str, pos: int):
    """The expression at text[pos:] and its end; one of numbers only is a float."""
    value, pos = _term(text, pos)
    while op := _OPERATOR.match(text, pos):
        rhs, pos = _term(text, op.end())
        value = value + rhs if op[1] == "+" else value * rhs
    return value, pos


def parse(text: str) -> StemFunction:
    """Parse a function expression like '2*reg(2) + (pow(1)*reg(3))'."""
    value, pos = _expr(text, 0)
    if text[pos:].strip():
        raise ValueError(f"expected '+', '*' or the end at position {pos} "
                         f"of {text!r}")
    return value if isinstance(value, StemFunction) else Scale(value, Power(0))
