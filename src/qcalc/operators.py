"""Commuting-component operators, the pseudo-resolvent and the six kernels.

An operator on H^n is stored through four real n x n component matrices
(T0, T1, T2, T3) that commute pairwise; it acts on a quaternion vector v as
T0 v + e1 (T1 v) + e2 (T2 v) + e3 (T3 v).  Every kernel evaluation reduces
to one real n x n inversion of the pseudo-resolvent

    R(x, y) = (x^2+y^2 - |T|^2)^2 + 4 (T0 - x)((x^2+y^2) T0 - x |T|^2),

followed by a short cascade of component products, so batches of contour
nodes are evaluated with stacked numpy arrays of shape (m, 4, n, n).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import SpectrumHit
from .quaternion import E1, Quaternion, SlicePoint, qarr, to_slice

COND_SPECTRUM_THRESHOLD = 1e12

KERNEL_KINDS = ("S_L", "S_R", "Qc", "P2_L", "P2_R", "F_L", "F_R")

_AB_FAMILY = {"S_L": "S", "S_R": "S", "Qc": "Qc",
              "P2_L": "P2", "P2_R": "P2", "F_L": "F", "F_R": "F"}


# ---------------------------------------------------------------------------
# Batched component algebra on stacks shaped (..., 4, n, n).
# ---------------------------------------------------------------------------

def bq_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Quaternion-matrix product of component stacks."""
    a0, a1, a2, a3 = (a[..., i, :, :] for i in range(4))
    b0, b1, b2, b3 = (b[..., i, :, :] for i in range(4))
    return np.stack([
        a0 @ b0 - a1 @ b1 - a2 @ b2 - a3 @ b3,
        a0 @ b1 + a1 @ b0 + a2 @ b3 - a3 @ b2,
        a0 @ b2 - a1 @ b3 + a2 @ b0 + a3 @ b1,
        a0 @ b3 + a1 @ b2 - a2 @ b1 + a3 @ b0,
    ], axis=-3)


def bq_scalar(q: np.ndarray, a: np.ndarray, side: str) -> np.ndarray:
    """Multiply a component stack by quaternion scalars q of shape (..., 4)."""
    q0, q1, q2, q3 = (q[..., i, None, None] for i in range(4))
    a0, a1, a2, a3 = (a[..., i, :, :] for i in range(4))
    if side == "left":
        comps = [q0 * a0 - q1 * a1 - q2 * a2 - q3 * a3,
                 q0 * a1 + q1 * a0 + q2 * a3 - q3 * a2,
                 q0 * a2 - q1 * a3 + q2 * a0 + q3 * a1,
                 q0 * a3 + q1 * a2 - q2 * a1 + q3 * a0]
    elif side == "right":
        comps = [a0 * q0 - a1 * q1 - a2 * q2 - a3 * q3,
                 a0 * q1 + a1 * q0 + a2 * q3 - a3 * q2,
                 a0 * q2 - a1 * q3 + a2 * q0 + a3 * q1,
                 a0 * q3 + a1 * q2 - a2 * q1 + a3 * q0]
    else:
        raise ValueError("side must be 'left' or 'right'")
    return np.stack(comps, axis=-3)


def bq_conj(a: np.ndarray) -> np.ndarray:
    out = a.copy()
    out[..., 1:, :, :] *= -1.0
    return out


def _as_stack(real: np.ndarray) -> np.ndarray:
    """Lift real matrices (..., n, n) to component stacks with zero imaginaries."""
    out = np.zeros(real.shape[:-2] + (4,) + real.shape[-2:])
    out[..., 0, :, :] = real
    return out


def embed(components: np.ndarray) -> np.ndarray:
    """Real 4n x 4n matrix of the left action on stacked coordinates."""
    m0, m1, m2, m3 = (components[..., i, :, :] for i in range(4))
    row0 = np.concatenate([m0, -m1, -m2, -m3], axis=-1)
    row1 = np.concatenate([m1, m0, -m3, m2], axis=-1)
    row2 = np.concatenate([m2, m3, m0, -m1], axis=-1)
    row3 = np.concatenate([m3, -m2, m1, m0], axis=-1)
    return np.concatenate([row0, row1, row2, row3], axis=-2)


def unembed(big: np.ndarray, n: int) -> np.ndarray:
    return np.stack([big[..., i * n:(i + 1) * n, 0:n] for i in range(4)], axis=-3)


def stack_norm(components: np.ndarray) -> np.ndarray:
    """Operator 2-norm through the real embedding, batched over leading axes."""
    return np.linalg.svd(embed(components), compute_uv=False)[..., 0]


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
        return QuatMatrix(bq_mul(self.components, other.components))

    def scalar_mul(self, q: Quaternion, side: str = "left") -> "QuatMatrix":
        return QuatMatrix(bq_scalar(qarr(q), self.components, side))

    def matpow(self, k: int) -> "QuatMatrix":
        out = QuatMatrix.identity(self.n)
        for _ in range(k):
            out = out @ self
        return out

    def embed(self) -> np.ndarray:
        return embed(self.components)

    def inverse(self) -> "QuatMatrix":
        # the embedded algebra is closed under inversion
        return QuatMatrix(unembed(np.linalg.inv(self.embed()), self.n))

    def norm(self) -> float:
        return float(stack_norm(self.components))

    def fro(self) -> float:
        return float(stack_fro(self.components))

    def apply(self, v: np.ndarray) -> np.ndarray:
        """Act on quaternion coordinates of shape (n, 4)."""
        flat = np.asarray(v, dtype=float).T.reshape(-1)
        return (self.embed() @ flat).reshape(4, self.n).T

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
        object.__setattr__(self, "components", comps)
        for i in range(4):
            for j in range(i + 1, 4):
                a, b = comps[i], comps[j]
                lim = 1e-10 * np.linalg.norm(a) * np.linalg.norm(b)
                if np.linalg.norm(a @ b - b @ a) > max(lim, 1e-300):
                    raise ValueError(f"components {i} and {j} do not commute")

    @staticmethod
    def from_parts(t0, t1, t2, t3) -> "CommutingOperator":
        return CommutingOperator(np.stack([np.asarray(p, dtype=float)
                                           for p in (t0, t1, t2, t3)]))

    @property
    def n(self) -> int:
        return self.components.shape[1]

    def conj(self) -> "CommutingOperator":
        return conj_op(self)

    def as_qmatrix(self) -> QuatMatrix:
        return QuatMatrix(self.components.copy())

    def norm(self) -> float:
        return float(stack_norm(self.components))

    def min_singular_value(self) -> float:
        return float(np.linalg.svd(embed(self.components), compute_uv=False)[-1])

    def apply(self, v: np.ndarray) -> np.ndarray:
        """Action on a vector of quaternion coordinates, shape (n, 4):
        T0 v + e1 (T1 v) + e2 (T2 v) + e3 (T3 v)."""
        return self.as_qmatrix().apply(v)


def conj_op(t: CommutingOperator) -> CommutingOperator:
    """Conjugate operator (T0, -T1, -T2, -T3); involutive."""
    comps = t.components.copy()
    comps[1:] *= -1.0
    return CommutingOperator(comps)


def modulus_sq(t: CommutingOperator) -> np.ndarray:
    """|T|^2 = T0^2 + T1^2 + T2^2 + T3^2, equal to the action of conj(T) T."""
    return sum(t.components[i] @ t.components[i] for i in range(4))


def real_pseudo_resolvent(t: CommutingOperator, x: float, y: float) -> np.ndarray:
    """The real matrix R(x, y) whose inverse drives every kernel; R depends on
    y only through y^2 and commutes with every component of T."""
    r = _chain(t, np.atleast_1d(float(x)), np.atleast_1d(float(y)),
               upto="R")["R"]
    return r[0]


def _chain(t: CommutingOperator, x: np.ndarray, y: np.ndarray, *,
           upto: str = "P2", cond_threshold: float = COND_SPECTRUM_THRESHOLD):
    """Evaluate the A/B decomposition cascade at the nodes (x[k], y[k]).

    Returns a dict with the real pseudo-resolvent R and the pairs (A, B) for
    the Qc, S, F and P2 families, each shaped (m, 4, n, n).  The pair for a
    left kernel K_L(x+Jy) = A + B J is shared with the right kernel
    K_R = A + J B.
    """
    n = t.n
    eye = np.eye(n)
    t0 = t.components[0]
    msq = modulus_sq(t)
    xx = x[:, None, None]
    yy = y[:, None, None]
    r2 = xx * xx + yy * yy

    m1 = r2 * eye - msq
    rmat = m1 @ m1 + 4.0 * (t0 - xx * eye) @ (r2 * t0 - xx * msq)
    out = {"R": rmat}
    if upto == "R":
        return out

    cond = np.linalg.cond(rmat)
    if np.any(~np.isfinite(cond)) or np.any(cond > cond_threshold):
        worst = float(np.nanmax(cond))
        raise SpectrumHit(
            f"pseudo-resolvent condition number {worst:.3g} exceeds "
            f"{cond_threshold:.1g}: point numerically in the F-spectrum")
    rinv = np.linalg.inv(rmat)

    a1 = ((xx * xx - yy * yy) * eye - 2.0 * xx * t0 + msq) @ rinv
    b1 = -2.0 * yy * ((xx * eye - t0) @ rinv)
    out["Qc"] = (_as_stack(a1), _as_stack(b1))
    if upto == "Qc":
        return out

    # S family: A2 + B2 J with A2 = (x - conj(T)) A1 - y B1.
    c_op = np.stack([xx * eye - t0,
                     np.broadcast_to(t.components[1], rmat.shape),
                     np.broadcast_to(t.components[2], rmat.shape),
                     np.broadcast_to(t.components[3], rmat.shape)], axis=1)
    a2 = c_op @ a1[:, None]
    a2[:, 0] -= yy * b1
    b2 = c_op @ b1[:, None]
    b2[:, 0] += yy * a1
    out["S"] = (a2, b2)
    if upto == "S":
        return out

    a3 = -4.0 * (a2 @ a1[:, None] - b2 @ b1[:, None])
    b3 = -4.0 * (a2 @ b1[:, None] + b2 @ a1[:, None])
    out["F"] = (a3, b3)

    lt = (t0 - xx * eye)[:, None]
    y4 = y[:, None, None, None]
    a4 = lt @ a3 + y4 * b3
    b4 = lt @ b3 - y4 * a3
    out["P2"] = (a4, b4)
    return out


def kernel_batch(kind: str, t: CommutingOperator, x: np.ndarray, y: np.ndarray,
                 j: Quaternion) -> np.ndarray:
    """Kernel values at the slice points x[k] + J y[k], shape (m, 4, n, n)."""
    if kind not in KERNEL_KINDS:
        raise ValueError(f"unknown kernel kind {kind!r}")
    fam = _AB_FAMILY[kind]
    pair = _chain(t, np.asarray(x, float), np.asarray(y, float), upto=fam)[fam]
    a, b = pair
    jq = np.broadcast_to(qarr(j), (a.shape[0], 4))
    if kind.endswith("_R"):
        return a + bq_scalar(jq, b, "left")
    return a + bq_scalar(jq, b, "right")


def kernel(kind: str, t: CommutingOperator, s) -> QuatMatrix:
    """One of the resolvent kernels at s: S_L/S_R, Qc (the pseudo-resolvent
    inverse itself), P2_L/P2_R or F_L/F_R."""
    p = s if isinstance(s, SlicePoint) else to_slice(s)
    comps = kernel_batch(kind, t, np.array([p.x]), np.array([p.y]), p.j)
    return QuatMatrix(comps[0])


def ab_decompose(kind: str, t: CommutingOperator, x: float, y: float):
    """J-independent pair (A, B) with K_L = A + B J and K_R = A + J B."""
    if kind not in KERNEL_KINDS:
        raise ValueError(f"unknown kernel kind {kind!r}")
    fam = _AB_FAMILY[kind]
    pair = _chain(t, np.atleast_1d(float(x)), np.atleast_1d(float(y)), upto=fam)[fam]
    a, b = pair
    return QuatMatrix(a[0]), QuatMatrix(b[0])


def q_inverse(t: CommutingOperator, s) -> QuatMatrix:
    """Inverse of Q_{c,s}(T) = s^2 - 2 s T0 + |T|^2 via one real inversion."""
    return kernel("Qc", t, s)


def q_operator(t: CommutingOperator, s: Quaternion) -> QuatMatrix:
    """Q_{c,s}(T) itself as a quaternion matrix (for residual checks)."""
    n = t.n
    s_m = QuatMatrix.from_scalar(s, n)
    s2_m = QuatMatrix.from_scalar(s * s, n)
    t0_m = QuatMatrix.from_real(t.components[0])
    return s2_m - 2.0 * (s_m @ t0_m) + QuatMatrix.from_real(modulus_sq(t))


def f_spectrum_check(t: CommutingOperator, s) -> bool:
    """True iff s is numerically in the F-resolvent set."""
    p = s if isinstance(s, SlicePoint) else to_slice(s)
    r = real_pseudo_resolvent(t, p.x, p.y)
    cond = np.linalg.cond(r)
    return bool(np.isfinite(cond) and cond <= COND_SPECTRUM_THRESHOLD)


# ---------------------------------------------------------------------------
# Type profiles: sector angle plus sampled resolvent constants.
# ---------------------------------------------------------------------------

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
                          alpha: float = 1.0 / 3.0, beta: float = 1.0 / 3.0,
                          rays_per_angle: int = 4, radii=None) -> TypeProfile:
    """Sample C_phi = sup ||S_L^-1|| weighted by |s|**alpha / |s|**beta over
    log-spaced radii on rays outside each test sector, inflated by 2."""
    if radii is None:
        radii = np.geomspace(1e-3, 1e3, 40)
    radii = np.asarray(radii, dtype=float)
    profile = TypeProfile(alpha=alpha, beta=beta, omega=omega)
    weight = np.where(radii <= 1.0, radii ** alpha, radii ** beta)
    for phi in angles:
        if not omega < phi < math.pi:
            raise ValueError("test angles must lie in (omega, pi)")
        psis = np.linspace(phi, math.pi, rays_per_angle)
        best = 0.0
        for psi in psis:
            x = radii * math.cos(psi)
            y = radii * abs(math.sin(psi))
            comps = kernel_batch("S_L", t, x, y, E1)
            norms = stack_norm(comps)
            best = max(best, float(np.max(norms * weight)))
        profile.c_phi[float(phi)] = 2.0 * best
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
    need = 1 + 4 * n * n
    if len(tokens) != need:
        raise ValueError(f"operator file needs {need} tokens, found {len(tokens)}")
    vals = np.array([float(v) for v in tokens[1:]])
    return CommutingOperator(vals.reshape(4, n, n))


def save_operator(t: CommutingOperator, path) -> None:
    with open(path, "w") as fh:
        fh.write(operator_to_text(t))


def load_operator(path) -> CommutingOperator:
    with open(path) as fh:
        return operator_from_text(fh.read())
