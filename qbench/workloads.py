"""Seeded workloads of the qcalc benchmark.

Each workload turns a seed into operators, functions, contour angles,
units and resolvent pairs before anything is timed, calls one public qcalc
entry point per operation, and checks every returned value against a
reference that does not go through the quadrature:

* ``calc_dim16``: decaying-regime ``qcalc.calc`` at n = 16, checked against
  the eigensphere oracles (``f.eval`` for S at 1e-7, ``pointwise_fine`` for
  Q, P2 and F at 1e-6);
* ``hinf_dim4``: ``qcalc.hinf`` at n = 4 and tol 1e-12 on growing
  functions, checked against ``power_reference`` or the eigensphere oracle
  at 1e-6;
* ``pointwise_dim8``: ``qcalc.resolvent_identity_residuals`` at n = 8, each
  of the four residuals checked at 1e-10.

Public calls are looked up on the ``qcalc`` module at call time, so the
layer trace sees them when its wrappers are installed.
"""

from __future__ import annotations

import math
import struct
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

import qcalc
from qcalc.quaternion import random_unit_imaginary, to_slice

OMEGA = math.pi / 4.0
ANNULUS = (0.5, 2.0)
KINDS = ("S", "Q", "P2", "F")

# reference tolerances, as the theorem suites use them
TOL_CAUCHY = 1e-7
TOL_FINE = 1e-6
TOL_HINF = 1e-6
TOL_IDENTITY = 1e-10

# the H-infinity sub-integral target the powers and product-rule suites use
HINF_TOL = 1e-12

WHY = {
    "calc_dim16": (
        "per-node matrix work dominates: the _chain cascade, the bq_scalar "
        "contraction, cond and inv at n = 16; memoization and H-infinity "
        "orchestration are bypassed"),
    "hinf_dim4": (
        "small matrices, so the cost is the number of integrals: each value "
        "issues several calc sub-integrals, e(T) and (e*f)(T) recur across "
        "kinds, and Product(e, f) certificates are resampled"),
    "pointwise_dim8": (
        "the operators layer one node at a time (m = 1 kernel_batch, cond, "
        "inv) plus QuatMatrix algebra, with no quadrature and no "
        "certificates; a batched-kernel rewrite must not slow it"),
}


@dataclass(frozen=True)
class WorkloadSpec:
    dim: int
    operators: int
    # ops generated per run; the measuring loop wraps around when it runs
    # out, so this only needs to exceed what one run usually gets through
    ops: int
    # ops per round of the op list (see below); a run ends on a round
    # boundary, so that it holds whole rounds only
    round_ops: int


SPECS = {
    "calc_dim16": WorkloadSpec(dim=16, operators=8, ops=640, round_ops=32),
    "hinf_dim4": WorkloadSpec(dim=4, operators=24, ops=560, round_ops=28),
    "pointwise_dim8": WorkloadSpec(dim=8, operators=8, ops=16384,
                                   round_ops=1),
}


@dataclass(frozen=True)
class Op:
    """One public call; every field is plain data drawn from the seed.

    fn is a recipe (see build_fn) and fn_key names the function object the
    call receives, so calls sharing a key share the object and its
    certificate cache, as a user reusing one function would.
    """

    operator: int
    kind: str = ""
    side: str = "left"
    fn: tuple = ()
    fn_key: tuple = ()
    phi: float = 0.0
    unit: tuple = ()
    s: tuple = ()
    p: tuple = ()


def build_fn(recipe: tuple):
    """Function object of a recipe: ("pow", n), ("reg", n), ("scale", c, r),
    ("sum", r1, r2) or ("mul", r1, r2)."""
    tag = recipe[0]
    if tag == "pow":
        return qcalc.Power(recipe[1])
    if tag == "reg":
        return qcalc.Regularizer(recipe[1])
    if tag == "scale":
        return qcalc.Scale(recipe[1], build_fn(recipe[2]))
    if tag == "sum":
        return qcalc.Sum(build_fn(recipe[1]), build_fn(recipe[2]))
    if tag == "mul":
        return qcalc.Product(build_fn(recipe[1]), build_fn(recipe[2]))
    raise ValueError(f"unknown function recipe {recipe!r}")


def profile_angles(omega: float = OMEGA) -> tuple[float, float, float]:
    """Test angles of the type profile, as SuiteContext chooses them."""
    gap = math.pi - omega
    return (omega + 0.1 * gap, omega + 0.5 * gap, omega + 0.9 * gap)


def angle_range(omega: float = OMEGA) -> tuple[float, float]:
    """Contour angles between omega and the default function sector, pulled
    in from both ends as the independence suite does."""
    theta = omega + 0.75 * (math.pi - omega)
    off = min(0.2, 0.25 * (theta - omega))
    return omega + off, theta - off


def operator_specs(name: str, seed: int) -> list:
    rng = np.random.default_rng([seed, 0])
    spec = SPECS[name]
    return [qcalc.OperatorSpec(dim=spec.dim, seed=int(s), annulus=ANNULUS,
                               omega=OMEGA)
            for s in rng.integers(0, 2**31 - 1, size=spec.operators)]


@dataclass
class State:
    """What a user holds after set-up: operators and their type profiles."""

    name: str
    gens: list
    profiles: list


def setup(name: str, seed: int, span=None) -> State:
    """Generate each operator and estimate its type profile.

    span, when given, is a context-manager factory taking a span name; the
    layer trace passes its own to time these calls from outside.
    """
    gens, profiles = [], []
    for spec in operator_specs(name, seed):
        with span("suites.generate") if span else nullcontext():
            gen = qcalc.generate_operator(spec)
        with span("operators.profile") if span else nullcontext():
            prof = qcalc.estimate_type_profile(gen.operator, OMEGA,
                                               profile_angles())
        gens.append(gen)
        profiles.append(prof)
    return State(name, gens, profiles)


# ---------------------------------------------------------------------------
# Operation lists.  Each is built in rounds that hold every function, kind
# and side once, so a run of any length sees the same mix of costs.
# ---------------------------------------------------------------------------

def _unit(rng) -> tuple:
    return tuple(float(v) for v in random_unit_imaginary(rng).components)


def _angles(rng, count: int) -> list[float]:
    """The centres of count equal cells of angle_range(), in random order.
    The angle sets how far the quadrature refines (up to four times the
    work near either end of the range), so every round takes the same
    angles and the seed decides which op gets which."""
    lo, hi = angle_range()
    cells = (np.arange(count) + 0.5) / count
    return [float(lo + (hi - lo) * c) for c in rng.permutation(cells)]


def _calc_ops(rng, count: int, n_ops: int) -> list[Op]:
    fns = []
    for _ in range(n_ops):
        a, b = (float(v) for v in rng.uniform(0.5, 2.0, size=2)
                * rng.choice([-1.0, 1.0], size=2))
        fns.append((("reg", 2), ("reg", 3), ("mul", ("pow", 1), ("reg", 3)),
                    ("sum", ("scale", a, ("reg", 2)),
                     ("scale", b, ("mul", ("pow", 1), ("reg", 3))))))
    combos = [(i, kind, side) for i in range(4) for kind in KINDS
              for side in ("left", "right")]
    ops: list[Op] = []
    while len(ops) < count:
        # every operator equally often in each round, so that the draw of
        # operators moves the work of a run as little as it can
        owners = rng.permutation(np.resize(np.arange(n_ops), len(combos)))
        phis = _angles(rng, len(combos))
        for c, o, phi in zip(rng.permutation(len(combos)), owners, phis):
            i, kind, side = combos[c]
            o = int(o)
            ops.append(Op(operator=o, kind=kind, side=side, fn=fns[o][i],
                          fn_key=(o, i), phi=phi, unit=_unit(rng)))
    return ops[:count]


_HINF_FNS = (("pow", 1), ("pow", 2), ("pow", 3), ("pow", 4), ("pow", 5),
             ("scale", 2.0, ("pow", 2)), ("sum", ("pow", 1), ("pow", 3)))


def _hinf_ops(rng, count: int, n_ops: int) -> list[Op]:
    ops: list[Op] = []
    sweep = 0
    owners: list[int] = []
    n_fns = len(_HINF_FNS)
    fns = rng.permutation(n_fns)
    phis = _angles(rng, n_fns)
    rnd = 0
    while len(ops) < count:
        # a Latin square: round rnd pairs function fns[j] with angle
        # phis[j + rnd], so n_fns rounds pair every function with every angle
        for j in rng.permutation(n_fns):
            i, phi = fns[j], phis[(j + rnd) % n_fns]
            if not owners:  # each operator once before any repeats
                owners = [int(o) for o in rng.permutation(n_ops)]
            o = owners.pop()
            unit = _unit(rng)
            # one function object per sweep over the four kinds
            for kind in KINDS:
                ops.append(Op(operator=o, kind=kind, fn=_HINF_FNS[i],
                              fn_key=(sweep,), phi=phi, unit=unit))
            sweep += 1
        rnd += 1
    return ops[:count]


# sampler bounds: the acceptance rate near the annulus is far above these
_PAIR_TRIES = 10_000
_SPHERE_GAP = 0.15  # slice distance kept from every eigensphere
_W_MIN = 1e-2       # |p^2 - 2 Re(s) p + |s|^2| kept from the sphere of s


def _resolvent_point(rng, spectrum) -> qcalc.Quaternion:
    for _ in range(_PAIR_TRIES):
        s = qcalc.Quaternion(*rng.normal(size=4)) * float(rng.uniform(0.3, 2.0))
        if s.norm() < 0.1:
            continue
        p = to_slice(s)
        if all(math.hypot(p.x - x0, p.y - y0) > _SPHERE_GAP
               for x0, y0 in spectrum):
            return s
    raise RuntimeError("no resolvent point found away from the spectrum")


def _resolvent_pair(rng, o: int, spectrum) -> Op:
    for _ in range(_PAIR_TRIES):
        s = _resolvent_point(rng, spectrum)
        p = _resolvent_point(rng, spectrum)
        w = p * p - 2.0 * s.re * p + qcalc.Quaternion(s.norm_sq())
        if w.norm() >= _W_MIN:
            return Op(operator=o, s=tuple(map(float, s.components)),
                      p=tuple(map(float, p.components)))
    raise RuntimeError("no resolvent pair found off the sphere of s")


def _pointwise_ops(rng, count: int, gens) -> list[Op]:
    spectra = [[(q.re, to_slice(q).y) for q in g.eigenvalues] for g in gens]
    ops = []
    for _ in range(count):
        o = int(rng.integers(len(gens)))
        ops.append(_resolvent_pair(rng, o, spectra[o]))
    return ops


def make_ops(state: State, seed: int) -> list[Op]:
    """The run's operation list, drawn from the seed before timing."""
    rng = np.random.default_rng([seed, 1])
    spec = SPECS[state.name]
    if state.name == "calc_dim16":
        return _calc_ops(rng, spec.ops, len(state.gens))
    if state.name == "hinf_dim4":
        return _hinf_ops(rng, spec.ops, len(state.gens))
    return _pointwise_ops(rng, spec.ops, state.gens)


def warmup_op(state: State) -> Op:
    """The set-up's one warm-up call: the same kind, function and angle for
    every seed, so that set-up time does not swing with the first op."""
    if state.name == "pointwise_dim8":
        spectrum = [(q.re, to_slice(q).y) for q in state.gens[0].eigenvalues]
        return _resolvent_pair(np.random.default_rng(0), 0, spectrum)
    lo, hi = angle_range()
    fn = ("reg", 2) if state.name == "calc_dim16" else ("pow", 1)
    return Op(operator=0, kind="S", fn=fn, fn_key=("warmup",),
              phi=0.5 * (lo + hi), unit=(0.0, 1.0, 0.0, 0.0))


def inputs_bytes(state: State, ops: list[Op]) -> bytes:
    """Canonical bytes of everything qcalc receives, for reproducibility."""
    parts = [g.operator.components.tobytes() for g in state.gens]
    for op in ops:
        parts.append(repr(op).encode())
        if op.s:
            parts.append(struct.pack("<8d", *op.s, *op.p))
    return b"".join(parts)


# ---------------------------------------------------------------------------
# Calls and reference checks.
# ---------------------------------------------------------------------------

class Runner:
    """Binds an operation list to the set-up state: function objects are
    built before timing, call() makes exactly one public qcalc call, and
    check() returns the error as a multiple of the reference tolerance."""

    def __init__(self, state: State, ops: list[Op]):
        self.state = state
        self.ops = ops
        self.round_ops = SPECS[state.name].round_ops
        self.fns = {}
        for op in ops:
            if op.fn and op.fn_key not in self.fns:
                self.fns[op.fn_key] = build_fn(op.fn)

    def call(self, op: Op):
        t = self.state.gens[op.operator].operator
        prof = self.state.profiles[op.operator]
        if self.state.name == "pointwise_dim8":
            return qcalc.resolvent_identity_residuals(
                t, qcalc.Quaternion(*op.s), qcalc.Quaternion(*op.p))
        f = self.fns[op.fn_key]
        unit = qcalc.Quaternion(*op.unit)
        if self.state.name == "calc_dim16":
            return qcalc.calc(op.kind, t, f, prof, phi=op.phi, unit=unit,
                              side=op.side).value
        return qcalc.hinf(op.kind, t, f, prof, phi=op.phi, unit=unit,
                          tol=HINF_TOL).value

    def check(self, op: Op, value) -> float:
        if self.state.name == "pointwise_dim8":
            return max(value.values()) / TOL_IDENTITY
        gen = self.state.gens[op.operator]
        if self.state.name == "calc_dim16":
            want = eigensphere_oracle(gen, op.kind, build_fn(op.fn))
            tol = TOL_CAUCHY if op.kind == "S" else TOL_FINE
        elif op.fn[0] == "sum":
            want = eigensphere_oracle(gen, op.kind, build_fn(op.fn))
            tol = TOL_HINF
        else:
            want = _power_combination(op.kind, gen.operator, op.fn)
            tol = TOL_HINF
        return (value - want).norm() / max(1.0, want.norm()) / tol


def eigensphere_oracle(gen, kind: str, f):
    """f(T) for S and Df, Dbar f, Laplacian f for Q, P2, F, assembled from
    the pointwise values at the generated eigenvalues."""
    if kind == "S":
        return gen.expected_diag([f.eval(q) for q in gen.eigenvalues])
    idx = {"Q": 0, "P2": 1, "F": 2}[kind]
    return gen.expected_diag([qcalc.pointwise_fine(f, q)[idx]
                              for q in gen.eigenvalues])


def _power_combination(kind: str, t, recipe: tuple):
    if recipe[0] == "pow":
        return qcalc.power_reference(kind, t, recipe[1])
    if recipe[0] == "scale":
        return recipe[1] * _power_combination(kind, t, recipe[2])
    raise ValueError(f"no closed-form reference for {recipe!r}")
