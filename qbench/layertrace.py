"""Layer trace of qcalc, timed from outside the package.

Tracer.install() replaces each traced name where qcalc looks it up at call
time (module globals, class attributes, numpy.linalg) with a wrapper that
records a span (name, start, end, parent, info) in memory; uninstall()
puts every original back.  Nothing under src/ knows about the trace.
derive() turns the spans into the per-layer metrics: counts, busy time,
self time (a span's duration minus the time its child spans cover) and
useful-work ratios; times are divided by the host-speed factor of their
phase, as every time the benchmark reports is (see hostspeed.py).
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager

import numpy as np

import qcalc
from qcalc import calculus, contour, operators, slicefun

GAUSS_ORDER = contour.GAUSS_ORDER

# spans whose cond/inv children belong to the kernel evaluation
_KERNEL_SPANS = ("operators.chain", "operators.point")

_QUATMATRIX_METHODS = ("__matmul__", "__add__", "__sub__", "scalar_mul",
                       "norm", "conj", "inverse")


def _integral_key(result, k, f, contour_, side="left", **_):
    return (k.kind, hash(k.operator.components.tobytes()), repr(f),
            contour_.phi, tuple(contour_.unit.components), contour_.t_min,
            contour_.t_max, contour_.tol, side)


def _chain_info(result, t, x, y, *, upto="P2", **_):
    return upto, len(x)


def _level_panels(result, k, f, contour_, side, panels, matrix_dim):
    return panels


def _worst_cond(result, *args, **kwargs):
    return float(np.nanmax(result))


def _retightened(result, *args, tol=1e-12, **kwargs):
    return result.diagnostics.tol_achieved < min(tol, 1e-12)


def _targets():
    """(owner, attribute, span name, info function) for every traced name."""
    out = [
        (qcalc, "calc", "calculus.calc", None),
        (calculus, "calc", "calculus.calc", None),
        (qcalc, "hinf", "calculus.hinf", _retightened),
        (calculus, "hinf", "calculus.hinf", _retightened),
        (qcalc, "resolvent_identity_residuals", "calculus.identity", None),
        (calculus, "resolvent_identity_residuals", "calculus.identity", None),
        (calculus, "integrate", "contour.integrate", _integral_key),
        (calculus, "_solve_prefactor", "calculus.prefactor", None),
        (contour, "_chain", "operators.chain", _chain_info),
        (contour, "bq_scalar", "contour.contract", None),
        (contour, "_level_value", "contour.level", _level_panels),
        (operators, "kernel_batch", "operators.point", None),
        (slicefun.StemFunction, "_sample_sup", "slicefun.sample", None),
        (slicefun.StemFunction, "certify_decay", "slicefun.certify", None),
        (slicefun.StemFunction, "certify_growth", "slicefun.certify", None),
        (np.linalg, "cond", "numpy.cond", _worst_cond),
        (np.linalg, "inv", "numpy.inv", None),
    ]
    out += [(operators.QuatMatrix, m, "operators.quatmatrix", None)
            for m in _QUATMATRIX_METHODS]
    return out


class Tracer:
    """In-memory span recorder; one per traced run, single-threaded."""

    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index, info)
        self._stack: list[int] = []
        self._saved: list = []  # (owner, attribute, original)

    def _open(self, name):
        sid = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(sid)
        return sid, parent

    @contextmanager
    def span(self, name: str, info=None):
        """Span around a block of the benchmark's own code."""
        sid, parent = self._open(name)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[sid] = (name, start, end, parent, info)

    def _wrap(self, name, fn, describe):
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid, parent = self._open(name)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end = clock()
                self._stack.pop()
                self.spans[sid] = (name, start, end, parent, None)
                raise
            end = clock()
            self._stack.pop()
            info = describe(result, *args, **kwargs) if describe else None
            self.spans[sid] = (name, start, end, parent, info)
            return result

        return traced

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("trace wrappers are already installed")
        for owner, attr, name, describe in _targets():
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, describe))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "info"],
                       "spans": [list(s[:4]) + [_jsonable(s[4])]
                                 for s in self.spans]}, fh)


def _jsonable(info):
    if info is None or isinstance(info, (bool, int, float, str)):
        return info
    return repr(info)


def originals() -> list:
    """The objects install() replaces, for checking that uninstall() restored
    them."""
    return [(owner, attr, vars(owner)[attr]) for owner, attr, _, _ in _targets()]


def derive(spans, setup_reps: int, op_factor: float = 1.0,
           setup_factor: float = 1.0) -> dict:
    """Per-layer metrics from a finished span list (name -> (value, unit)).

    Counts and seconds are per op (per "bench.op" span), so that runs of
    different lengths compare; set-up times are per set-up repetition.
    Seconds are reference-host seconds: wall time divided by op_factor, or
    by setup_factor for the set-up spans.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    by = {}
    for sid, (name, *_rest) in enumerate(spans):
        by.setdefault(name, []).append(sid)

    def ids(name):
        return by.get(name, [])

    def dur(sid):
        return spans[sid][2] - spans[sid][1]

    def busy(sids):
        return sum(dur(s) for s in sids)

    def self_time(sids):
        return sum(dur(s) - child[s] for s in sids)

    def parent_name(sid):
        p = spans[sid][3]
        return spans[p][0] if p >= 0 else None

    def has_ancestor(sid, name):
        p = spans[sid][3]
        while p >= 0:
            if spans[p][0] == name:
                return True
            p = spans[p][3]
        return False

    def frac(num, den):
        return num / den if den else 0.0

    n_ops = len(ids("bench.op"))

    def per_op(value):
        return frac(value, n_ops)

    def per_op_s(seconds):
        return per_op(seconds) / op_factor

    def per_setup_s(seconds):
        return seconds / setup_reps / setup_factor

    m = {}
    chain = ids("operators.chain")
    m["operators.chain.calls"] = (per_op(len(chain)), "count")
    m["operators.chain.nodes"] = (
        per_op(sum(spans[s][4][1] for s in chain)), "count")
    for fam in ("S", "Qc", "P2", "F"):
        m[f"operators.chain.nodes.{fam}"] = (per_op(
            sum(spans[s][4][1] for s in chain if spans[s][4][0] == fam)),
            "count")
    m["operators.chain.self_s"] = (per_op_s(self_time(chain)), "s")
    cond = [s for s in ids("numpy.cond") if parent_name(s) in _KERNEL_SPANS]
    m["operators.cond.calls"] = (per_op(len(cond)), "count")
    m["operators.cond.s"] = (per_op_s(busy(cond)), "s")
    m["operators.cond.worst"] = (max((spans[s][4] for s in cond),
                                     default=0.0), "ratio")
    inv = [s for s in ids("numpy.inv") if parent_name(s) in _KERNEL_SPANS]
    m["operators.inv.s"] = (per_op_s(busy(inv)), "s")
    point = ids("operators.point")
    m["operators.point.calls"] = (per_op(len(point)), "count")
    m["operators.point.s"] = (per_op_s(busy(point)), "s")
    quat = [s for s in ids("operators.quatmatrix")
            if parent_name(s) != "operators.quatmatrix"]
    m["operators.quatmatrix.s"] = (per_op_s(busy(quat)), "s")
    m["operators.profile.s"] = (per_setup_s(busy(ids("operators.profile"))),
                                "s")
    m["suites.generate.s"] = (per_setup_s(busy(ids("suites.generate"))), "s")

    integ = ids("contour.integrate")
    levels = ids("contour.level")
    nodes = sum(spans[s][4] * GAUSS_ORDER for s in levels)
    last_level = {}
    for s in levels:  # levels of one integral run in order, so keep the last
        last_level[spans[s][3]] = s
    useful = sum(spans[s][4] * GAUSS_ORDER for s in last_level.values())
    m["contour.integrate.calls"] = (per_op(len(integ)), "count")
    m["contour.levels"] = (per_op(len(levels)), "count")
    m["contour.nodes"] = (per_op(nodes), "count")
    m["contour.nodes_per_integral"] = (frac(nodes, len(integ)), "count")
    m["contour.useful_node_frac"] = (frac(useful, nodes), "fraction")
    m["contour.contract.s"] = (per_op_s(busy(ids("contour.contract"))), "s")
    m["contour.level.self_s"] = (per_op_s(self_time(levels)), "s")

    cert = ids("slicefun.certify")
    sample = ids("slicefun.sample")
    sampled = {spans[s][3] for s in sample}
    m["slicefun.certify.calls"] = (per_op(len(cert)), "count")
    m["slicefun.certify.samples"] = (per_op(len(sample)), "count")
    m["slicefun.certify.hit_frac"] = (
        frac(sum(1 for s in cert if s not in sampled), len(cert)), "fraction")
    m["slicefun.sample.s"] = (per_op_s(busy(sample)), "s")

    hinf = ids("calculus.hinf")
    m["calculus.calc.calls"] = (per_op(len(ids("calculus.calc"))), "count")
    m["calculus.hinf.calls"] = (per_op(len(hinf)), "count")
    m["calculus.hinf.integrals_per_value"] = (
        frac(sum(1 for s in integ if has_ancestor(s, "calculus.hinf")),
             len(hinf)), "count")
    m["calculus.distinct_integral_frac"] = (
        frac(len({spans[s][4] for s in integ}), len(integ)), "fraction")
    m["calculus.hinf.retighten_frac"] = (
        frac(sum(1 for s in hinf if spans[s][4]), len(hinf)), "fraction")
    m["calculus.prefactor.s"] = (per_op_s(busy(ids("calculus.prefactor"))),
                                 "s")
    m["calculus.identity.s"] = (per_op_s(busy(ids("calculus.identity"))), "s")
    m["trace.spans_per_op"] = (per_op(len(spans)), "count")
    return m
