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
commute with M, built once per operator.  M depends on T only through T0
and |T|^2, and a node costs one inversion of Q_{c,z}(T) itself (see
_chain): when one orthogonal U diagonalizes both
(CommutingOperator.eigenbasis), the quadrature inverts the n scalars
z^2 - 2 z d0 + d2, O(n) per node, and otherwise the complex n x n matrix.
Point kernels (kernel_batch) always take the matrix.  Type profiles
(estimate_type_profile) read kernel norms from the joint eigenvalues when
U diagonalizes every component (CommutingOperator.joint_eigenvalues), and
otherwise take the largest singular value of the kernel's complex adjoint.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import SpectrumHit
from .quaternion import E1, Quaternion, SlicePoint, qarr, qarr_mul, to_slice

COND_SPECTRUM_THRESHOLD = 1e12

KERNEL_KINDS = ("S_L", "S_R", "Qc", "P2_L", "P2_R", "F_L", "F_R")

_AB_FAMILY = {"S_L": "S", "S_R": "S", "Qc": "Qc",
              "P2_L": "P2", "P2_R": "P2", "F_L": "F", "F_R": "F"}


# ---------------------------------------------------------------------------
# Batched component algebra on stacks shaped (..., 4, n, n).
# ---------------------------------------------------------------------------

# e_a e_b = sum_c _QMUL[a, b, c] e_c for the basis 1, e1, e2, e3
_QMUL = qarr_mul(np.eye(4)[:, None, :], np.eye(4)[None, :, :])


def bq_scalar(q: np.ndarray, a: np.ndarray, side: str) -> np.ndarray:
    """Component stacks a (..., 4, n, n) times quaternion scalars q of shape
    (..., 4): a*q for side "right", q*a for side "left"."""
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    mix = np.einsum("abc,...b->...ac" if side == "right" else "bac,...b->...ac",
                    _QMUL, q)
    return np.einsum("...ac,...aij->...cij", mix, a)


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

    def __add__(self, other: "QuatMatrix") -> "QuatMatrix":
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
        out = QuatMatrix.identity(self.n)
        for _ in range(k):
            out = out @ self
        return out

    def inverse(self) -> "QuatMatrix":
        # the adjoint algebra is closed under inversion
        return QuatMatrix(from_adjoint(np.linalg.inv(adjoint(self.components))))

    def norm(self) -> float:
        return float(stack_norm(self.components))

    def fro(self) -> float:
        return float(stack_fro(self.components))

    def commutation_residual(self) -> float:
        """Largest Frobenius commutator among the four component matrices."""
        worst = 0.0
        for i in range(4):
            for j in range(i + 1, 4):
                a, b = self.components[i], self.components[j]
                worst = max(worst, float(np.linalg.norm(a @ b - b @ a)))
        return worst

    def __repr__(self):
        return f"QuatMatrix(n={self.n})"


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

    def norm(self) -> float:
        return float(stack_norm(self.components))

    @cached_property
    def eigenbasis(self):
        """(U, d0, d2) with U orthogonal, T0 = U diag(d0) U^T and |T|^2 =
        U diag(d2) U^T to roundoff, or None when no such U is found (see
        _eigenbasis); then the kernels take the dense path."""
        return _eigenbasis(self.components[0], modulus_sq(self))

    @cached_property
    def qc_pair_diagonal(self):
        """kernel_numerators["Qc pair"] in the eigenbasis, the (3, n)
        diagonals (d2, -2 d0, 1) that _chain's diagonal path takes."""
        _, d0, d2 = self.eigenbasis
        return np.stack([d2, -2.0 * d0, np.ones_like(d0)])

    @cached_property
    def joint_eigenvalues(self):
        """(4, n) components of eigenvalues lambda_k with T_a = U
        diag(lambda[a]) U^T for every component a, U from eigenbasis, or
        None when there is no eigenbasis or U misses the residual test of
        _eigenbasis on T1, T2 or T3.  In U a kernel at a point of C_E1 is
        then diagonal, so its norm is the largest modulus of the n
        quaternion scalars on the diagonal."""
        if self.eigenbasis is None:
            return None
        u, d0, _ = self.eigenbasis
        rows = [d0] + [_diagonal_in(u, a) for a in self.components[1:]]
        return None if any(r is None for r in rows) else np.stack(rows)

    @cached_property
    def kernel_numerators(self) -> dict:
        """The coefficients "Qc pair" of Q_{c,z}(T) and a KernelNumerator
        per family (Qc, S, F, P2), built once."""
        return _kernel_numerators(self)


def conj_op(t: CommutingOperator) -> CommutingOperator:
    """Conjugate operator (T0, -T1, -T2, -T3); involutive.  It shares T's
    eigenbasis, since T0 and |T|^2 are the same bit for bit, and its joint
    eigenvalues are T's with the imaginary rows negated."""
    out = CommutingOperator(bq_conj(t.components))
    lam = t.joint_eigenvalues
    # fill the cached_properties
    out.__dict__["eigenbasis"] = t.eigenbasis
    out.__dict__["joint_eigenvalues"] = (
        None if lam is None else np.concatenate([lam[:1], -lam[1:]]))
    return out


def modulus_sq(t: CommutingOperator) -> np.ndarray:
    """|T|^2 = T0^2 + T1^2 + T2^2 + T3^2, equal to the action of conj(T) T."""
    return sum(t.components[i] @ t.components[i] for i in range(4))


# U is accepted when ||U^T U - I||_F and the off-diagonal Frobenius norms of
# U^T T0 U and U^T |T|^2 U, relative to ||T0||_F and |||T|^2||_F, are at
# most this multiple of eps n
_EIGENBASIS_SLACK = 16.0
# weight of the normalized |T|^2 in the combination that eigh
# diagonalizes; irrational, so that distinct pairs (d0, d2) stay apart
_EIGENBASIS_MIX = (math.sqrt(5.0) - 1.0) / 2.0


def _eigenbasis(t0: np.ndarray, t2: np.ndarray):
    """One orthogonal U that diagonalizes both symmetric matrices t0 and t2,
    taken from eigh of a generic combination and refined (see
    _refine_eigenbasis), as (U, d0, d2); None when either matrix is not
    symmetric or U misses the residual test.  T0 and |T|^2 commute, so a
    U exists whenever both are symmetric; a non-normal operator fails."""
    n = len(t0)
    bound = _EIGENBASIS_SLACK * np.finfo(float).eps * n
    norms = [max(float(np.linalg.norm(a)), 1e-300) for a in (t0, t2)]
    if any(np.linalg.norm(a - a.T) > bound * s for a, s in zip((t0, t2), norms)):
        return None
    mats = (t0 / norms[0], t2 / norms[1])
    _, u = np.linalg.eigh(mats[0] + _EIGENBASIS_MIX * mats[1])
    u = _refine_eigenbasis(u, mats)
    diags = [_diagonal_in(u, a) for a in (t0, t2)]
    if (np.linalg.norm(u.T @ u - np.eye(n)) > bound
            or any(d is None for d in diags)):
        return None
    return u, *diags


def _diagonal_in(u: np.ndarray, a: np.ndarray):
    """The diagonal of U^T a U, or None when its off-diagonal Frobenius
    norm exceeds _EIGENBASIS_SLACK eps n ||a||_F."""
    bound = _EIGENBASIS_SLACK * np.finfo(float).eps * len(a)
    r = u.T @ a @ u
    d = np.diag(r).copy()
    if np.linalg.norm(r - np.diag(d)) > bound * max(float(np.linalg.norm(a)),
                                                     1e-300):
        return None
    return d


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


def _refine_eigenbasis(u: np.ndarray, mats) -> np.ndarray:
    """U after one Newton-Schulz step towards orthogonality and one sweep
    of joint Jacobi rotations on U^T a U for a in mats.  The step cuts
    ||U^T U - I|| about eightfold from eigh's (about 1.3 eps n at n = 16).
    The rotation of columns (i, j) minimizes the sum of squares of the
    rotated (i, j) entries (Cardoso and Souloumiac, SIAM J. Matrix Anal.
    Appl. 17 (1996) 161); it settles pairs whose combined eigenvalues
    nearly coincide, where eigh mixes two joint eigenvectors.  The sweep
    takes the pairs in round-robin order (_round_robin): the pairs of a
    round are disjoint, and a rotation of (i, j) leaves the entries
    (i, j), (i, i) and (j, j) of the others unchanged, so each round's
    rotations are computed and applied together."""
    n = len(u)
    u = u + 0.5 * u @ (np.eye(n) - u.T @ u)
    rot = [u.T @ a @ u for a in mats]
    for i, j in _round_robin(n):
        # off-diagonal after rotating by theta: h . (cos 2theta, sin 2theta)
        h = [(r[i, j], 0.5 * (r[j, j] - r[i, i])) for r in rot]
        p = sum(a * a for a, _ in h)
        q = sum(b * b for _, b in h)
        c2 = sum(a * b for a, b in h)
        # the eigenvector of [[p, c2], [c2, q]] for its smaller eigenvalue;
        # where c2 = 0 and p <= q, (1, 0) is already optimal: theta = 0
        psi = 0.5 * np.arctan2(2.0 * c2, p - q) + 0.5 * math.pi
        psi = np.where(np.cos(psi) < 0.0, psi - math.pi, psi)
        psi = np.where((c2 == 0.0) & (p <= q), 0.0, psi)
        c, s = np.cos(0.5 * psi), np.sin(0.5 * psi)
        for a in (u, *rot):
            ai, aj = a[:, i], a[:, j]
            a[:, i], a[:, j] = c * ai + s * aj, c * aj - s * ai
        c, s = c[:, None], s[:, None]
        for r in rot:
            ri, rj = r[i, :], r[j, :]
            r[i, :], r[j, :] = c * ri + s * rj, c * rj - s * ri
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
    family decays like |s|^(-2 power).  Neither coef nor the quadrature's
    moments of z^d M^power depend on J (see contour); only point kernels
    (kernel_batch with a unit) assemble a J."""

    coef: np.ndarray
    power: int


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

    diagonal=True needs t.eigenbasis (U, d0, d2) and returns g as the
    (m, n) diagonals of U^T g U: C is then the diagonals (d2, -2 d0, 1)
    of t.qc_pair_diagonal, Q / scale^2 the diagonal q and its inverse 1/q,
    so a node costs O(n).  Frobenius norms are orthogonally invariant, so
    cond and the spectrum rule are those of the dense path.
    """
    scale = np.maximum(1.0, np.hypot(x, y))
    power = t.kernel_numerators[upto].power
    coef = t.qc_pair_diagonal if diagonal else t.kernel_numerators["Qc pair"]
    axes = 1 if diagonal else (1, 2)

    def fro_sq(a):
        return np.sum(a.real * a.real + a.imag * a.imag, axis=axes)

    # a NaN node or a singular Q must end in SpectrumHit, not in a warning
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        q = np.tensordot(_z_powers(x + 1j * y, scale, 2, 1), coef, axes=1)
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
    """Kernel kind from its pair: K_L = A + B J, K_R = A + J B."""
    return a + bq_scalar(qarr(j), b, "left" if kind.endswith("_R") else "right")


def kernel_batch(kind, t: CommutingOperator, x, y, j: Quaternion | None):
    """Kernel values at the slice points x[k] + J y[k], shape (m, 4, n, n);
    a dict by kind for a tuple of kinds, and each kind's J-independent pair
    (A, B) (see assemble) for j None.  One inversion of Q_{c,z}(T) per node
    and one square of it serve all kinds; conj(T)'s pairs are the
    entrywise conjugates (bq_conj) of T's."""
    kinds = (kind,) if isinstance(kind, str) else tuple(kind)
    if not set(kinds) <= set(KERNEL_KINDS):
        raise ValueError(f"unknown kernel kind in {kind!r}")
    x, y = (np.atleast_1d(np.asarray(v, dtype=float)) for v in (x, y))
    g, scale, _ = _chain(t, x, y, upto="Qc")
    nums = {_AB_FAMILY[k]: t.kernel_numerators[_AB_FAMILY[k]] for k in kinds}
    sq = g @ g if any(n.power == 2 for n in nums.values()) else None
    z, ab = x + 1j * y, {}
    for fam, num in nums.items():
        m_pow = sq if num.power == 2 else g  # M^power scale^(2 power)
        zp = _z_powers(z, scale, len(num.coef) - 1, num.power)
        coef = num.coef.reshape(len(num.coef), -1)
        value = (zp @ coef).reshape(-1, 4, t.n, t.n) @ m_pow[:, None]
        ab[fam] = (value.real, value.imag)
    out = {k: ab[_AB_FAMILY[k]] if j is None
           else assemble(k, *ab[_AB_FAMILY[k]], j) for k in kinds}
    return out[kind] if isinstance(kind, str) else out


def kernel(kind: str, t: CommutingOperator, s) -> QuatMatrix:
    """One of the resolvent kernels at s: S_L/S_R, Qc (Q_{c,s}(T)^-1
    itself), P2_L/P2_R or F_L/F_R."""
    p = s if isinstance(s, SlicePoint) else to_slice(s)
    comps = kernel_batch(kind, t, np.array([p.x]), np.array([p.y]), p.j)
    return QuatMatrix(comps[0])


def ab_decompose(kind: str, t: CommutingOperator, x: float, y: float):
    """J-independent pair (A, B) with K_L = A + B J and K_R = A + J B."""
    return tuple(QuatMatrix(c[0])
                 for c in kernel_batch(kind, t, float(x), float(y), None))


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


@dataclass
class TypeProfile:
    """Growth data of an operator of type (alpha, beta, omega).

    c_phi maps each sampled test angle phi to a constant with
    ||S_L^-1(s,T)|| <= C_phi |s|**-alpha (|s|<=1) resp. |s|**-beta (|s|>=1)
    outside the sector of angle phi.
    """

    alpha: float
    beta: float
    omega: float
    c_phi: dict = field(default_factory=dict)

    def constant_at(self, phi: float) -> float:
        """Conservative constant valid on the complement of the phi-sector."""
        if not self.c_phi:
            raise ValueError("profile has no sampled constants")
        eligible = [c for ang, c in self.c_phi.items() if ang <= phi + 1e-12]
        if eligible:
            return max(eligible)
        return 2.0 * max(self.c_phi.values())


def estimate_type_profile(t: CommutingOperator, omega: float, angles,
                          alpha: float = 1.0 / 3.0, beta: float = 1.0 / 3.0
                          ) -> TypeProfile:
    """Sample C_phi = sup ||S_L^-1(s, T)|| weighted by |s|**alpha / |s|**beta
    over log-spaced radii on rays x + E1 y outside each test sector,
    inflated by 2.  A ray shared by several test angles (psi = pi ends
    every fan) is sampled once, and all samples are taken in one batch.
    With t.joint_eigenvalues the norm is read from them: S_L^-1(s, T) is
    U diag((s - conj(lambda_k)) Q_{c,s}(lambda_k)^-1) U^T, so it is
    max_k |s - conj(lambda_k)| |g_k| / scale^2 with (g, scale) of
    _chain on the eigenbasis path, O(n) per sample.  Otherwise it is the
    largest singular value of the kernel's complex adjoint (stack_norm)."""
    angles = [float(phi) for phi in angles]
    if not all(omega < phi < math.pi for phi in angles):
        raise ValueError("test angles must lie in (omega, pi)")
    fans = {phi: np.linspace(phi, math.pi, _PROFILE_RAYS) for phi in angles}
    psis = sorted({float(psi) for fan in fans.values() for psi in fan})
    radii = _PROFILE_RADII
    x = np.multiply.outer([math.cos(psi) for psi in psis], radii).ravel()
    y = np.multiply.outer([abs(math.sin(psi)) for psi in psis], radii).ravel()
    lam = t.joint_eigenvalues
    if lam is None:
        norms = stack_norm(kernel_batch("S_L", t, x, y, E1))
    else:
        g, scale, _ = _chain(t, x, y, upto="Qc", diagonal=True)
        dist = np.sqrt((x[:, None] - lam[0]) ** 2 + (y[:, None] + lam[1]) ** 2
                       + lam[2] ** 2 + lam[3] ** 2)  # |s - conj(lambda_k)|
        norms = np.max(dist * np.abs(g), axis=1) / scale ** 2
    weight = np.where(radii <= 1.0, radii ** alpha, radii ** beta)
    ray_sup = dict(zip(psis, np.max(norms.reshape(len(psis), len(radii))
                                    * weight, axis=1)))
    profile = TypeProfile(alpha=alpha, beta=beta, omega=omega)
    for phi, fan in fans.items():
        profile.c_phi[phi] = 2.0 * max(float(ray_sup[float(psi)])
                                       for psi in fan)
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
