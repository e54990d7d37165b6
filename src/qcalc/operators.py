"""Commuting-component operators, the pseudo-resolvent and the kernels.

An operator on H^n is stored through four real n x n component matrices
(T0, T1, T2, T3) that commute pairwise; it acts on a quaternion vector v as
T0 v + e1 (T1 v) + e2 (T2 v) + e3 (T3 v).  Every kernel family is a
polynomial in z = x + i y times a power of M = Q_{c,z}(T)^-1,
Q_{c,z}(T) = z^2 - 2 T0 z + |T|^2:

    Qc = M,  S = (z - conj(T)) M,  F = -4 (z - conj(T)) M^2,
    P2 = 4 (z - T0)(z - conj(T)) M^2,

and a family's value A + i B gives the kernel A + B J (left) or A + J B
(right) at x + J y.  The coefficients of z^d are quaternion matrices that
commute with M, built once per operator.  A node costs one inversion of
Q_{c,z}(T) itself (see _chain).  When one orthogonal U diagonalizes all
four components, T_a = U diag(lambda[a]) U^T (CommutingOperator.eigenbasis,
the operator's one spectral decomposition, a SpectralValue), the quadrature
inverts the n scalars z^2 - 2 z lambda0_k + |lambda_k|^2, O(n) per node,
and type profiles (estimate_type_profile) take each family's sup over
every unit in closed form from the joint eigenvalues lambda_k.  Otherwise
the quadrature inverts the complex n x n matrix and the profile bounds
the sup by the Frobenius norms of the family's pair (A, B).  Point
kernels (kernel_batch) take the same switch as _chain: the resolvent
identity check reads them per eigenvalue when T has an eigenbasis, while
kernel, ab_decompose, the kernels suite and the dense profile keep the
matrices, the independent dense reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import SpectrumHit
from .quaternion import (Quaternion, SlicePoint, qarr, qarr_mul, qarr_norm,
                         to_slice)

COND_SPECTRUM_THRESHOLD = 1e12

# a kernel kind is a family's left or right kernel (see KernelNumerator)
KERNEL_FAMILIES = ("S", "Qc", "P2", "F")
KERNEL_KINDS = ("S_L", "S_R", "Qc", "P2_L", "P2_R", "F_L", "F_R")


# ---------------------------------------------------------------------------
# Batched component algebra on stacks shaped (..., 4, n, n).
# ---------------------------------------------------------------------------

# e_a e_b = sum_c _QMUL[a, b, c] e_c for the basis 1, e1, e2, e3
_QMUL = qarr_mul(np.eye(4)[:, None, :], np.eye(4)[None, :, :])
# _QMUL as the (16, 4) map from the products p_a q_b to the components of pq
_QMUL_TABLE = _QMUL.reshape(16, 4)
# the component signs of the quaternion conjugate
_CONJ_SIGNS = np.array([1.0, -1.0, -1.0, -1.0])


def mul_matrix(q: np.ndarray, side: str) -> np.ndarray:
    """Real 4 x 4 matrices m (..., 4, 4) of x -> q x (side "left") or
    x -> x q ("right") for quaternions q (..., 4), acting on component
    vectors: component c of the product is sum_a m[c, a] x_a."""
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    return np.einsum("abc,...b->...ca" if side == "right" else "bac,...b->...ca",
                     _QMUL, q)


def bq_scalar(q: np.ndarray, a: np.ndarray, side: str) -> np.ndarray:
    """Component stacks a (..., 4, n, n) times quaternion scalars q of shape
    (..., 4): a*q for side "right", q*a for side "left"."""
    return np.einsum("...ca,...aij->...cij", mul_matrix(q, side), a)


def bq_conj(a: np.ndarray) -> np.ndarray:
    out = a.copy()
    out[..., 1:, :, :] *= -1.0
    return out


def bq_dot(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """sum_e p[e] q[e] of quaternion-matrix products of stacks (E, 4, n, n),
    as one real (4n, En) x (En, 4n) product of all component pairs."""
    e, _, n, _ = p.shape
    rows = p.transpose(1, 2, 0, 3).reshape(4 * n, e * n)
    cols = q.transpose(0, 2, 1, 3).reshape(e * n, 4 * n)
    pairs = (rows @ cols).reshape(4, n, 4, n)
    return np.einsum("aibk,abc->cik", pairs, _QMUL)


def bq_matmul(l: np.ndarray, r: np.ndarray) -> np.ndarray:
    """The quaternion-matrix products l[k] r[k] of stacks (B, 4, n, n): one
    batched real (4n, n) x (n, 4n) product of all component pairs, summed
    into components by one (4, 16) x (16, n^2) product per k."""
    b, _, n, _ = l.shape
    rows = l.reshape(b, 4 * n, n)
    cols = r.transpose(0, 2, 1, 3).reshape(b, n, 4 * n)
    pairs = (rows @ cols).reshape(b, 4, n, 4, n).transpose(0, 1, 3, 2, 4)
    return (_QMUL_TABLE.T @ pairs.reshape(b, 16, n * n)).reshape(b, 4, n, n)


def _as_stack(real: np.ndarray) -> np.ndarray:
    """Lift real matrices (..., n, n) to component stacks with zero imaginaries."""
    out = np.zeros(real.shape[:-2] + (4,) + real.shape[-2:])
    out[..., 0, :, :] = real
    return out


def adjoint(components: np.ndarray) -> np.ndarray:
    """Complex 2n x 2n adjoint [[A1, A2], [-conj(A2), conj(A1)]] of the
    quaternion matrix A = A1 + A2 e2, A1 = M0 + i M1, A2 = M2 + i M3 (i
    standing for e1), batched over leading axes.  It is multiplicative and
    has the singular values of A, each twice, so dense norms, inverses and
    condition numbers are taken on it."""
    a1 = components[..., 0, :, :] + 1j * components[..., 1, :, :]
    a2 = components[..., 2, :, :] + 1j * components[..., 3, :, :]
    return np.concatenate([np.concatenate([a1, a2], axis=-1),
                           np.concatenate([-a2.conj(), a1.conj()], axis=-1)],
                          axis=-2)


def from_adjoint(big: np.ndarray) -> np.ndarray:
    """Component stack (..., 4, n, n) of a complex adjoint (see adjoint)."""
    n = big.shape[-1] // 2
    a1, a2 = big[..., :n, :n], big[..., :n, n:]
    return np.stack([a1.real, a1.imag, a2.real, a2.imag], axis=-3)


def stack_norm(components: np.ndarray) -> np.ndarray:
    """Operator 2-norm through the complex adjoint, batched over leading
    axes."""
    return np.linalg.svd(adjoint(components), compute_uv=False)[..., 0]


def stack_fro(components: np.ndarray) -> np.ndarray:
    return np.sqrt(np.sum(components * components, axis=(-3, -2, -1)))


class QuatMatrix:
    """n x n quaternion matrix acting on H^n by entrywise left multiplication."""

    __slots__ = ("components",)

    def __init__(self, components: np.ndarray):
        components = np.asarray(components, dtype=float)
        if components.ndim != 3 or components.shape[0] != 4 \
                or components.shape[1] != components.shape[2]:
            raise ValueError("QuatMatrix expects components of shape (4, n, n)")
        self.components = components

    @property
    def n(self) -> int:
        return self.components.shape[1]

    @staticmethod
    def identity(n: int) -> "QuatMatrix":
        return QuatMatrix(_as_stack(np.eye(n)))

    @staticmethod
    def zeros(n: int) -> "QuatMatrix":
        return QuatMatrix(np.zeros((4, n, n)))

    @staticmethod
    def from_real(m: np.ndarray) -> "QuatMatrix":
        return QuatMatrix(_as_stack(np.asarray(m, dtype=float)))

    @staticmethod
    def from_scalar(q: Quaternion, n: int) -> "QuatMatrix":
        comps = np.zeros((4, n, n))
        for i, v in enumerate(q.components):
            comps[i] = v * np.eye(n)
        return QuatMatrix(comps)

    def entry(self, i: int, j: int) -> Quaternion:
        return Quaternion.from_components(self.components[:, i, j])

    def conj(self) -> "QuatMatrix":
        return QuatMatrix(bq_conj(self.components))

    def __add__(self, other) -> "QuatMatrix":  # a real other as other I
        if not isinstance(other, QuatMatrix):
            other = QuatMatrix.from_real(float(other) * np.eye(self.n))
        return QuatMatrix(self.components + other.components)

    def __sub__(self, other: "QuatMatrix") -> "QuatMatrix":
        return QuatMatrix(self.components - other.components)

    def __neg__(self) -> "QuatMatrix":
        return QuatMatrix(-self.components)

    def __mul__(self, c: float) -> "QuatMatrix":
        return QuatMatrix(self.components * float(c))

    __rmul__ = __mul__

    def __matmul__(self, other: "QuatMatrix") -> "QuatMatrix":
        return QuatMatrix(bq_dot(self.components[None], other.components[None]))

    def scalar_mul(self, q: Quaternion, side: str = "left") -> "QuatMatrix":
        return QuatMatrix(bq_scalar(qarr(q), self.components, side))

    def matpow(self, k: int) -> "QuatMatrix":
        if not isinstance(k, int) or k < 0:
            raise ValueError(f"only nonnegative integer powers, got {k!r}")
        out = QuatMatrix.identity(self.n)
        for _ in range(k):
            out = out @ self
        return out

    def inverse(self) -> "QuatMatrix":
        # the adjoint algebra is closed under inversion
        return QuatMatrix(from_adjoint(np.linalg.inv(adjoint(self.components))))

    def norm(self) -> float:  # inf past a non-finite entry, where SVD fails
        if not np.isfinite(self.components).all():
            return math.inf
        return float(stack_norm(self.components))

    def fro(self) -> float:
        return float(stack_fro(self.components))

    def cond(self) -> float:
        """2-norm condition number, through the complex adjoint."""
        return float(np.linalg.cond(adjoint(self.components)))

    def commutation_residual(self) -> float:
        """Largest Frobenius commutator among the four component matrices."""
        worst = 0.0
        for i in range(4):
            for j in range(i + 1, 4):
                a, b = self.components[i], self.components[j]
                worst = max(worst, float(np.linalg.norm(a @ b - b @ a)))
        return worst

    def matrix(self) -> "QuatMatrix":  # as SpectralValue.matrix(): itself
        return self

    def __repr__(self):
        return f"QuatMatrix(n={self.n})"


def diag_matmul(l: np.ndarray, r: np.ndarray) -> np.ndarray:
    """The quaternion products l_k r_k of stacks (..., 4), components last:
    the diagonal of U diag(l_k) U^T U diag(r_k) U^T in one eigenbasis U."""
    pairs = l[..., :, None] * r[..., None, :]
    return pairs.reshape(pairs.shape[:-2] + (16,)) @ _QMUL_TABLE


def diag_norm(v: np.ndarray) -> np.ndarray:
    """The 2-norm of U diag(v_k) U^T, U orthogonal, for stacks v (..., n, 4):
    the largest modulus |v_k|, taken by hypot, which squares no entry."""
    return np.max(np.hypot.reduce(v, axis=-1), axis=-1)


class SpectralValue:
    """The quaternion matrix U diag(v_k) U^T in an operator's eigenbasis U
    (CommutingOperator.eigenbasis), held by its n quaternions v_k as the
    (n, 4) stack v.  Such matrices multiply, add, conjugate and invert
    entry by entry, so they take QuatMatrix's operators at O(n), and
    matrix() builds the QuatMatrix.  U is orthogonal, so the Frobenius
    norm is that of v and the 2-norm the largest modulus |v_k|."""

    __slots__ = ("u", "v")

    def __init__(self, u: np.ndarray, v: np.ndarray):
        self.u = u
        self.v = v

    def matrix(self) -> QuatMatrix:
        return QuatMatrix((self.u * self.v.T[:, None, :]) @ self.u.T)

    def conj(self) -> "SpectralValue":
        return SpectralValue(self.u, self.v * _CONJ_SIGNS)

    def __add__(self, other) -> "SpectralValue":  # a real other as other I
        if not isinstance(other, SpectralValue):
            other = SpectralValue(self.u, np.array([float(other), 0, 0, 0]))
        return SpectralValue(self.u, self.v + other.v)

    def __sub__(self, other: "SpectralValue") -> "SpectralValue":
        return SpectralValue(self.u, self.v - other.v)

    def __mul__(self, c: float) -> "SpectralValue":
        return SpectralValue(self.u, self.v * float(c))

    __rmul__ = __mul__

    def __matmul__(self, other: "SpectralValue") -> "SpectralValue":
        return SpectralValue(self.u, diag_matmul(self.v, other.v))

    def inverse(self) -> "SpectralValue":
        return SpectralValue(self.u, self.conj().v
                             / np.sum(self.v * self.v, axis=1)[:, None])

    def norm(self) -> float:
        return float(diag_norm(self.v))

    def fro(self) -> float:
        return float(np.sqrt(np.sum(self.v * self.v)))

    def cond(self) -> float:
        """2-norm condition number max_k |v_k| / min_k |v_k|, that of the
        diagonal matrix of the moduli, whose singular values they are;
        np.linalg.cond takes it, as it takes QuatMatrix.cond, so that
        qbench/layertrace.py's numpy.cond span sees both."""
        return float(np.linalg.cond(np.diag(qarr_norm(self.v))))

    def __repr__(self):
        return f"SpectralValue(n={len(self.v)})"


@dataclass(frozen=True)
class CommutingOperator:
    """T = T0 + e1 T1 + e2 T2 + e3 T3 with pairwise commuting real components."""

    components: np.ndarray

    def __post_init__(self):
        comps = np.asarray(self.components, dtype=float)
        if comps.ndim != 3 or comps.shape[0] != 4 or comps.shape[1] != comps.shape[2]:
            raise ValueError("expected component array of shape (4, n, n)")
        if comps.shape[1] == 0:
            raise ValueError("operator dimension must be at least 1")
        if not np.all(np.isfinite(comps)):  # NaN would pass the commutation test
            raise ValueError("operator components must be finite")
        object.__setattr__(self, "components", comps)
        for i in range(4):
            for j in range(i + 1, 4):
                a, b = comps[i], comps[j]
                lim = 1e-10 * np.linalg.norm(a) * np.linalg.norm(b)
                if np.linalg.norm(a @ b - b @ a) > max(lim, 1e-300):
                    raise ValueError(f"components {i} and {j} do not commute")

    @property
    def n(self) -> int:
        return self.components.shape[1]

    def as_qmatrix(self) -> QuatMatrix:
        return QuatMatrix(self.components.copy())

    @cached_property
    def eigenbasis(self):
        """T held per eigenvalue: the SpectralValue U diag(lambda_k) U^T,
        U orthogonal and its rows v_k the joint eigenvalues lambda_k, equal
        to T to roundoff, or None when no such U is found (see
        _eigenbasis); then the kernels take the dense path.  In U a kernel
        at a point of C_E1 is diagonal, so its norm is the largest modulus
        of the n quaternion scalars on the diagonal."""
        return _eigenbasis(self.components)

    @cached_property
    def qc_pair_diagonal(self):
        """kernel_numerators["Qc pair"] in the eigenbasis, the (3, n)
        diagonals (|lambda|^2, -2 lambda0, 1) that _chain's diagonal path
        takes."""
        lam = self.eigenbasis.v.T
        return np.stack([np.sum(lam * lam, axis=0), -2.0 * lam[0],
                         np.ones(self.n)])

    @cached_property
    def numerator_diagonals(self) -> dict:
        """{family: (degree+1, 4, n)}: each family's coefficients C_d in the
        eigenbasis U.  C_d commutes with T's components, so U^T C_d U is
        diagonal, entry k a quaternion c_dk; this holds the diagonals
        (U^T C_d)_kj U_jk, which the point kernels (kernel_batch with
        diagonal=True) and the moment multipliers read."""
        u = self.eigenbasis.u
        return {fam: np.sum((u.T @ self.kernel_numerators[fam].coef) * u.T,
                            axis=-1)
                for fam in KERNEL_FAMILIES}

    @cached_property
    def moment_multipliers(self) -> dict:
        """{(family, conj, side): (n, 4, 4 (degree+1))}: each family's
        coefficients C_d in the eigenbasis, which contract its moments
        there (see contour._moment_value), read from numerator_diagonals,
        entry k the quaternion c_dk with its imaginary parts negated for
        conj(T) (conj).  Entry k's column block d is the real 4 x 4 matrix
        of q -> c_dk q (side "left") or q -> q c_dk ("right")."""
        out = {}
        for fam, diag in self.numerator_diagonals.items():
            for conj in (False, True):
                c = diag * _CONJ_SIGNS[:, None] if conj else diag
                for side in ("left", "right"):
                    # (n, degree+1, 4, 4) -> (n, 4, 4 (degree+1))
                    mult = mul_matrix(np.moveaxis(c, -1, 0), side)
                    out[fam, conj, side] = mult.transpose(0, 2, 1, 3).reshape(
                        self.n, 4, -1)
        return out

    @cached_property
    def kernel_numerators(self) -> dict:
        """The coefficients "Qc pair" of Q_{c,z}(T) and a KernelNumerator
        per family (Qc, S, F, P2), built once."""
        return _kernel_numerators(self)


def conj_op(t: CommutingOperator) -> CommutingOperator:
    """Conjugate operator (T0, -T1, -T2, -T3); involutive.  Its held form
    is T's conjugated: T's U, the imaginary parts of lambda_k negated."""
    out = CommutingOperator(bq_conj(t.components))
    basis = t.eigenbasis
    # fill the cached_property
    out.__dict__["eigenbasis"] = None if basis is None else basis.conj()
    return out


def modulus_sq(t: CommutingOperator) -> np.ndarray:
    """|T|^2 = T0^2 + T1^2 + T2^2 + T3^2, equal to the action of conj(T) T."""
    return sum(t.components[i] @ t.components[i] for i in range(4))


# U is accepted when ||U^T U - I||_F and the off-diagonal Frobenius norm
# of each U^T T_a U, relative to ||T_a||_F, are at most this multiple of
# eps n
_EIGENBASIS_SLACK = 16.0
# weights of the normalized components in the combination that eigh
# diagonalizes; independent over the rationals, so that distinct joint
# eigenvalues stay apart
_EIGENBASIS_MIX = np.sqrt([1.0, 2.0, 3.0, 5.0])


def _eigenbasis(comps: np.ndarray):
    """One orthogonal U that diagonalizes every symmetric component of the
    stack comps (4, n, n), taken from eigh of a generic combination and
    refined (see _refine_eigenbasis), as the SpectralValue of U and the
    joint eigenvalues; None when a component is not symmetric or U misses the
    residual test.  Symmetric commuting components share such a U; a
    non-normal operator fails."""
    n = comps.shape[-1]
    bound = _EIGENBASIS_SLACK * np.finfo(float).eps * n
    norms = np.maximum(np.linalg.norm(comps, axis=(1, 2)), 1e-300)
    asym = np.linalg.norm(comps - comps.transpose(0, 2, 1), axis=(1, 2))
    if np.any(asym > bound * norms):
        return None
    mats = comps / norms[:, None, None]
    _, u = np.linalg.eigh(np.tensordot(_EIGENBASIS_MIX, mats, axes=1))
    u = _refine_eigenbasis(u, mats)
    r = u.T @ comps @ u
    lam = np.diagonal(r, axis1=1, axis2=2).copy()
    off = np.linalg.norm(r - lam[:, :, None] * np.eye(n), axis=(1, 2))
    if (np.linalg.norm(u.T @ u - np.eye(n)) > bound
            or np.any(off > bound * norms)):
        return None
    return SpectralValue(u, lam.T)


def _round_robin(n: int):
    """Index arrays (i, j), i < j, of disjoint pairs, one per round, that
    together cover every pair once: n - 1 rounds for even n and n for odd
    n, none for n = 1 (the circle method of Brent and Luk, SIAM J. Sci.
    Stat. Comput. 6 (1985) 69; for odd n, index n sits out)."""
    m = n + n % 2
    order = list(range(m))
    for _ in range(m - 1):
        pairs = [(min(a, b), max(a, b))
                 for a, b in zip(order[:m // 2], order[::-1]) if max(a, b) < n]
        if pairs:
            yield tuple(np.array(pairs).T)
        order = [order[0], order[-1]] + order[1:-1]


def _refine_eigenbasis(u: np.ndarray, mats: np.ndarray) -> np.ndarray:
    """U after one Newton-Schulz step towards orthogonality and one sweep
    of joint Jacobi rotations on U^T a U for a in the stack mats (k, n, n).
    The step cuts ||U^T U - I|| about eightfold from eigh's (about
    1.3 eps n at n = 16).  The rotation of columns (i, j) minimizes the
    sum of squares of the rotated (i, j) entries (Cardoso and Souloumiac,
    SIAM J. Matrix Anal. Appl. 17 (1996) 161); it settles pairs whose
    combined eigenvalues nearly coincide, where eigh mixes two joint
    eigenvectors.  The sweep takes the pairs in round-robin order
    (_round_robin): the pairs of a round are disjoint, and a rotation of
    (i, j) leaves the entries (i, j), (i, i) and (j, j) of the others
    unchanged, so each round's rotations are computed and applied
    together, to U and to the whole stack at once."""
    n = len(u)
    u = u + 0.5 * u @ (np.eye(n) - u.T @ u)
    rot = u.T @ np.asarray(mats) @ u
    for i, j in _round_robin(n):
        # off-diagonal after rotating by theta: h . (cos 2theta, sin 2theta)
        a, b = rot[:, i, j], 0.5 * (rot[:, j, j] - rot[:, i, i])
        p = np.sum(a * a, axis=0)
        q = np.sum(b * b, axis=0)
        c2 = np.sum(a * b, axis=0)
        # the eigenvector of [[p, c2], [c2, q]] for its smaller eigenvalue;
        # where c2 = 0 and p <= q, (1, 0) is already optimal: theta = 0
        psi = 0.5 * np.arctan2(2.0 * c2, p - q) + 0.5 * math.pi
        psi = np.where(np.cos(psi) < 0.0, psi - math.pi, psi)
        psi = np.where((c2 == 0.0) & (p <= q), 0.0, psi)
        c, s = np.cos(0.5 * psi), np.sin(0.5 * psi)
        ui, uj = u[:, i], u[:, j]
        u[:, i], u[:, j] = c * ui + s * uj, c * uj - s * ui
        ri, rj = rot[..., i], rot[..., j]
        rot[..., i], rot[..., j] = c * ri + s * rj, c * rj - s * ri
        c, s = c[:, None], s[:, None]
        ri, rj = rot[:, i, :], rot[:, j, :]
        rot[:, i, :], rot[:, j, :] = c * ri + s * rj, c * rj - s * ri
    return u


def _z_powers(z: np.ndarray, scale: np.ndarray, degree: int,
              power: int) -> np.ndarray:
    """(m, degree+1): z^d / scale^(2 power) at the nodes, each as
    (z/scale)^d scale^(d - 2 power): no factor exceeds one for
    scale >= max(1, |z|) and d <= 2 power.  The powers are repeated
    products, so they are exactly conjugate under y -> -y."""
    zs, zd = z / scale, np.ones_like(z)
    out = np.empty((len(z), degree + 1), dtype=complex)
    for d in range(degree + 1):
        out[:, d] = zd * scale ** float(d - 2 * power)
        zd = zd * zs
    return out


@dataclass(frozen=True)
class KernelNumerator:
    """One kernel family as a polynomial in z = x + i y: the family is
    A + i B = sum_d coef[d] z^d M^power with coef (degree+1, 4, n, n) and
    M = Q_{c,z}(T)^-1 (see _chain); the coefficients commute with M,
    and the kernel at x + J y is K_L = A + B J, K_R = A + J B.  The
    family decays like |s|^-order (see order).  Neither coef nor the
    quadrature's moments of z^d M^power depend on J (see contour); only
    point kernels (assemble) read a J."""

    coef: np.ndarray
    power: int

    @property
    def order(self) -> int:
        """p = 2 power - degree: z^degree M^power falls like |s|^-p, and
        so does the family, whose leading coefficient (a multiple of the
        identity) is not zero: 1, 2, 2, 3 for S, Qc, P2, F."""
        return 2 * self.power - (len(self.coef) - 1)


def _kernel_numerators(t: CommutingOperator) -> dict:
    """Q_{c,z}(T) = z^2 - 2 T0 z + |T|^2 as the real stack "Qc pair", and the
    families Qc = M, S = (z - conj(T)) M, F = -4 (z - conj(T)) M^2 and
    P2 = 4 (z - T0)(z - conj(T)) M^2 as KernelNumerators."""
    eye = _as_stack(np.eye(t.n))
    t0, tbar = t.components[0], bq_conj(t.components)
    s = np.stack([-tbar, eye])
    return {"Qc pair": np.stack([modulus_sq(t), -2.0 * t0, np.eye(t.n)]),
            "Qc": KernelNumerator(eye[None], 1),
            "S": KernelNumerator(s, 1),
            "F": KernelNumerator(-4.0 * s, 2),
            "P2": KernelNumerator(4.0 * np.stack(
                [t0 @ tbar, -(_as_stack(t0) + tbar), eye]), 2)}


def _chain(t: CommutingOperator, x: np.ndarray, y: np.ndarray, *,
           upto: str = "P2", diagonal: bool = False):
    """Per-node work of the kernel family upto at the nodes (x[k], y[k]).

    Returns (g, scale, cond) with scale = max(1, |x + J y|), g the complex
    stack (m, n, n) of scale^(2 power) M^power, M = Q_{c,z}(T)^-1 at
    z = x + i y, which every kernel of the family combines with polynomial
    coefficients, and cond the nodes' (||Q||_F ||Q^-1||_F)^2.  Q / scale^2
    = sum_d (z^d / scale^2) C_d is formed from the stack
    C = (|T|^2, -2 T0, I) of kernel_numerators["Qc pair"] and inverted
    itself, so no power of a large radius overflows, and near the
    spectrum the error grows with the condition of Q, not with its square
    as it would for the real sum of squares Q conj(Q).  A singular Q, or
    cond over COND_SPECTRUM_THRESHOLD, raises SpectrumHit; cond bounds the
    squared 2-norm condition number of Q from above, and the Frobenius
    one of Q conj(Q) too (by submultiplicativity).

    diagonal=True needs t.eigenbasis, U diag(lambda_k) U^T, and returns g
    as the (m, n) diagonals of U^T g U: C is then the diagonals
    (|lambda|^2, -2 lambda0, 1) of t.qc_pair_diagonal, Q / scale^2 the
    diagonal q and its inverse 1/q, so a node costs O(n).  Frobenius
    norms are orthogonally invariant, so cond and the spectrum rule are
    those of the dense path.
    """
    scale = np.maximum(1.0, np.hypot(x, y))
    power = t.kernel_numerators[upto].power
    coef = t.qc_pair_diagonal if diagonal else t.kernel_numerators["Qc pair"]
    axes = 1 if diagonal else (1, 2)

    def fro_sq(a):
        return np.sum(a.real * a.real + a.imag * a.imag, axis=axes)

    # a NaN node or a singular Q must end in SpectrumHit, not in a warning
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        zp = _z_powers(x + 1j * y, scale, 2, 1)
        q = zp @ coef if diagonal else np.tensordot(zp, coef, axes=1)
        try:
            g = 1.0 / q if diagonal else np.linalg.inv(q)
            cond = fro_sq(q) * fro_sq(g)
        except np.linalg.LinAlgError:
            cond = np.array([math.inf])
    if not np.all(cond <= COND_SPECTRUM_THRESHOLD):  # a NaN fails too
        raise SpectrumHit(
            f"pseudo-resolvent condition number {np.max(cond):.3g} "
            f"exceeds {COND_SPECTRUM_THRESHOLD:.1g}: point numerically in the "
            f"F-spectrum")
    if power == 2:
        g = g * g if diagonal else g @ g
    return g, scale, cond


def assemble(kind: str, a, b, j: Quaternion) -> np.ndarray:
    """Kernel kind from its family's pair: K_L = A + B J, K_R = A + J B."""
    return a + bq_scalar(qarr(j), b, "left" if kind.endswith("_R") else "right")


def kernel_batch(families, t: CommutingOperator, x, y, *,
                 diagonal: bool = False) -> dict:
    """Each family's J-independent pair (A, B) (see assemble) at the slice
    points x[k] + J y[k], each of shape (m, 4, n, n), as {family: (A, B)}.
    One inversion of Q_{c,z}(T) per node and one square of it serve all
    families; conj(T)'s pairs are the entrywise conjugates (bq_conj) of
    T's.

    diagonal=True is _chain's switch: it needs t.eigenbasis U, where every
    pair is diagonal, and returns the (m, 4, n) diagonals of U^T A U and
    U^T B U, from M = 1/q per eigenvalue and the coefficients of
    t.numerator_diagonals, O(n) per node; conj(T)'s pairs negate
    components 1-3 on axis 1.  The default keeps the dense matrices, the
    reference that kernel, ab_decompose, the kernels suite and the dense
    type profile read."""
    # a bare string is refused: set("S") would pass
    if isinstance(families, str) or not set(families) <= set(KERNEL_FAMILIES):
        raise ValueError(f"kernel_batch takes a collection of kernel "
                         f"families {KERNEL_FAMILIES}, not {families!r}")
    x, y = (np.atleast_1d(np.asarray(v, dtype=float)) for v in (x, y))
    g, scale, _ = _chain(t, x, y, upto="Qc", diagonal=diagonal)
    nums = {fam: t.kernel_numerators[fam] for fam in families}
    sq = ((g * g if diagonal else g @ g)
          if any(n.power == 2 for n in nums.values()) else None)
    z, ab = x + 1j * y, {}
    for fam, num in nums.items():
        m_pow = sq if num.power == 2 else g  # M^power scale^(2 power)
        zp = _z_powers(z, scale, len(num.coef) - 1, num.power)
        coef = t.numerator_diagonals[fam] if diagonal else num.coef
        value = (zp @ coef.reshape(len(coef), -1)).reshape(
            (-1,) + coef.shape[1:])
        value = value * m_pow[:, None] if diagonal else value @ m_pow[:, None]
        ab[fam] = (value.real, value.imag)
    return ab


def kernel_family(kind: str) -> str:
    """The family of a kernel kind: S_L -> S, Qc -> Qc."""
    if kind not in KERNEL_KINDS:
        raise ValueError(f"unknown kernel kind {kind!r}")
    return kind.split("_")[0]


def kernel(kind: str, t: CommutingOperator, s) -> QuatMatrix:
    """One of the resolvent kernels at s: S_L/S_R, Qc (Q_{c,s}(T)^-1
    itself), P2_L/P2_R or F_L/F_R."""
    p = s if isinstance(s, SlicePoint) else to_slice(s)
    fam = kernel_family(kind)
    a, b = kernel_batch((fam,), t, np.array([p.x]), np.array([p.y]))[fam]
    return QuatMatrix(assemble(kind, a, b, p.j)[0])


def ab_decompose(kind: str, t: CommutingOperator, x: float, y: float):
    """J-independent pair (A, B) with K_L = A + B J and K_R = A + J B."""
    fam = kernel_family(kind)
    return tuple(QuatMatrix(c[0])
                 for c in kernel_batch((fam,), t, float(x), float(y))[fam])


def q_operator(t: CommutingOperator, s: Quaternion) -> QuatMatrix:
    """Q_{c,s}(T) itself as a quaternion matrix (for residual checks)."""
    n = t.n
    s_m = QuatMatrix.from_scalar(s, n)
    s2_m = QuatMatrix.from_scalar(s * s, n)
    t0_m = QuatMatrix.from_real(t.components[0])
    return s2_m - 2.0 * (s_m @ t0_m) + QuatMatrix.from_real(modulus_sq(t))


def f_spectrum_check(t: CommutingOperator, s) -> bool:
    """True iff s is numerically in the F-resolvent set, by the conditioning
    rule of the kernels (see _chain); a point of the spectrum gives False."""
    p = s if isinstance(s, SlicePoint) else to_slice(s)
    try:
        _chain(t, np.array([p.x]), np.array([p.y]), upto="Qc")
    except SpectrumHit:
        return False
    return True


# ---------------------------------------------------------------------------
# Type profiles: sector angle plus sampled resolvent constants.
# ---------------------------------------------------------------------------

_PROFILE_RADII = np.geomspace(1e-3, 1e3, 40)
_PROFILE_RAYS = 4  # rays per test angle, from phi to pi
# the profile's radii reach this factor past every eigenvalue modulus
_PROFILE_MARGIN = 100.0


@dataclass
class TypeProfile:
    """Growth data of an operator of type (alpha, beta, omega).

    c_phi maps each sampled test angle phi to one constant C per kernel
    family (S, Qc, P2, F) with

        ||K(s, T)|| <= C |s|**(-p alpha) (|s| <= 1), C |s|**(-p) (|s| >= 1)

    for both kernels K of the family, every unit J and both rays outside
    the sector of angle phi, p the family's exact order at infinity
    (KernelNumerator.order).  calculus.calc and hinf match a profile by
    identity, so do not mutate one after use.
    """

    alpha: float
    beta: float
    omega: float
    c_phi: dict = field(default_factory=dict)

    def constant_at(self, phi: float, family: str) -> float:
        """Conservative constant of a family valid on the complement of the
        phi-sector."""
        if not self.c_phi:
            raise ValueError("profile has no sampled constants")
        eligible = [c[family] for ang, c in self.c_phi.items()
                    if ang <= phi + 1e-12]
        if eligible:
            return max(eligible)
        return 2.0 * max(c[family] for c in self.c_phi.values())


def _profile_radii(t: CommutingOperator) -> np.ndarray:
    """_PROFILE_RADII, extended at its own ratio until it reaches
    _PROFILE_MARGIN past the smallest and the largest eigenvalue modulus
    of t: the weighted norm ||K|| w(|s|) peaks near |s| = |lambda_k|, and
    past the margin it stays within about p / _PROFILE_MARGIN of its
    value at the end samples, well inside the profile's factor 2.  The
    moduli are those of the joint eigenvalues (t.eigenbasis), or else of
    the eigenvalues of the complex adjoint; a zero one extends nothing."""
    if t.eigenbasis is None:
        mods = np.abs(np.linalg.eigvals(adjoint(t.components)))
    else:
        mods = np.sqrt(t.qc_pair_diagonal[0])
    mods = mods[mods > 0.0]
    radii = _PROFILE_RADII
    if not mods.size:
        return radii
    log_step = math.log(radii[1] / radii[0])
    below = math.ceil(math.log(radii[0] * _PROFILE_MARGIN / np.min(mods))
                      / log_step)
    above = math.ceil(math.log(np.max(mods) * _PROFILE_MARGIN / radii[-1])
                      / log_step)
    if below <= 0 and above <= 0:
        return radii
    return np.concatenate([radii[0] * np.exp(log_step * np.arange(-below, 0)),
                           radii,
                           radii[-1] * np.exp(log_step
                                              * np.arange(1, above + 1))])


def estimate_type_profile(t: CommutingOperator, omega: float, angles,
                          alpha: float = 1.0 / 3.0, beta: float = 1.0 / 3.0
                          ) -> TypeProfile:
    """Sample each family's C_phi (see TypeProfile): twice the sup of
    N(s) w(|s|), w = |s|**(p alpha) below radius one and |s|**p above,
    over log-spaced radii (_profile_radii) on the rays x + i y of each
    test fan psi in [phi, pi], and at least ||coef[-1]||, the limit of
    ||K|| |s|**p at infinity.  N(s) bounds ||K(x + J y)|| for every unit
    J, so on the lower ray too (the upper one at -J), and for K_L and K_R
    alike.  A ray
    shared by several test angles (psi = pi ends every fan) is sampled
    once, and all samples share one _chain call.

    With t.eigenbasis N is that sup itself, in closed form.
    In U every kernel is diagonal, its entry k the scalar kernel at
    lambda_k = l0 + l v (v a unit), a product of the moduli
    m = |Q_{c,s}(lambda_k)^-1|, |s - l0| and |s - conj(lambda_k)|, the last
    of which peaks over the units at J = v, at
    sqrt((x - l0)^2 + (|y| + l)^2).  By the families' definitions
    (_kernel_numerators) the sups are Qc = m, S = |s - conj(lambda)| m,
    F = 4 |s - conj(lambda)| m^2 and P2 = 4 |s - l0| |s - conj(lambda)| m^2,
    O(n) per sample.  Otherwise N = ||A||_F + ||B||_F of kernel_batch's
    pairs (||A + B J|| <= ||A|| + ||B||), at most 2 sqrt(n) times the sup
    and O(n^2) per sample, where 2-norms would take one SVD per family,
    pair and sample."""
    angles = [float(phi) for phi in angles]
    if not all(omega < phi < math.pi for phi in angles):
        raise ValueError("test angles must lie in (omega, pi)")
    fans = {phi: np.linspace(phi, math.pi, _PROFILE_RAYS) for phi in angles}
    psis = sorted({float(psi) for fan in fans.values() for psi in fan})
    radii = _profile_radii(t)
    x = np.multiply.outer([math.cos(psi) for psi in psis], radii).ravel()
    y = np.multiply.outer([abs(math.sin(psi)) for psi in psis], radii).ravel()
    nums = [t.kernel_numerators[fam] for fam in KERNEL_FAMILIES]
    if t.eigenbasis is None:
        pairs = kernel_batch(KERNEL_FAMILIES, t, x, y)
        norms = np.stack([stack_fro(a) + stack_fro(b)
                          for a, b in pairs.values()])
    else:
        lam = t.eigenbasis.v.T
        g, scale, _ = _chain(t, x, y, upto="Qc", diagonal=True)
        # (n, samples): |m_k| = |Q_{c,s}(lambda_k)^-1|, |s - lambda0_k| and
        # the sup of |s - conj(lambda_k)| over every unit and both rays
        m = np.abs(g.T) / scale ** 2
        dx2 = (x - lam[0][:, None]) ** 2
        w = np.sqrt(dx2 + y * y)
        e = np.sqrt(dx2 + (y + np.sqrt(np.sum(lam[1:] ** 2, axis=0))[:, None])
                    ** 2)
        s_sup = e * m
        f_sup = 4.0 * s_sup * m
        # S, Qc, P2 and F: the sup over the n entries
        norms = np.stack([np.max(a, axis=0)
                          for a in (s_sup, m, w * f_sup, f_sup)])
    # each coef[-1] is a real multiple of the identity
    limits = [abs(num.coef[-1][0, 0, 0]) for num in nums]
    orders = np.array([[num.order] for num in nums], dtype=float)
    weight = np.where(radii <= 1.0, radii ** (alpha * orders), radii ** orders)
    # (families, rays)
    ray_sup = np.max(norms.reshape(len(nums), len(psis), len(radii))
                     * weight[:, None, :], axis=2)
    profile = TypeProfile(alpha=alpha, beta=beta, omega=omega)
    for phi, fan in fans.items():
        rays = [psis.index(float(psi)) for psi in fan]
        c = np.maximum(2.0 * np.max(ray_sup[:, rays], axis=1), limits)
        profile.c_phi[phi] = dict(zip(KERNEL_FAMILIES, c.tolist()))
    return profile


# ---------------------------------------------------------------------------
# Plain-text operator format: dimension header, then the four component
# matrices row-major, whitespace separated.
# ---------------------------------------------------------------------------

def operator_to_text(t: CommutingOperator) -> str:
    lines = [str(t.n)]
    for i in range(4):
        for row in t.components[i]:
            lines.append(" ".join(f"{v:.17g}" for v in row))
    return "\n".join(lines) + "\n"


def operator_from_text(text: str) -> CommutingOperator:
    tokens = text.split()
    if not tokens:
        raise ValueError("empty operator file")
    try:
        n = int(tokens[0])
    except ValueError as exc:
        raise ValueError("operator file must start with the dimension") from exc
    if n < 1:
        raise ValueError(f"operator dimension must be at least 1, got {n}")
    need = 1 + 4 * n * n
    if len(tokens) != need:
        raise ValueError(f"operator file needs {need} tokens, found {len(tokens)}")
    vals = np.array([float(v) for v in tokens[1:]])
    return CommutingOperator(vals.reshape(4, n, n))


def load_operator(path) -> CommutingOperator:
    with open(path) as fh:
        return operator_from_text(fh.read())
