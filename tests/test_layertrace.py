"""The benchmark's layer trace replaces qcalc names by attribute lookup; a
rename under src/ must fail here rather than break `--trace 1` silently."""

import importlib.util
from pathlib import Path

import qcalc

LAYERTRACE = Path(__file__).resolve().parents[1] / "qbench" / "layertrace.py"


def _load_layertrace():
    spec = importlib.util.spec_from_file_location("qbench_layertrace",
                                                  LAYERTRACE)
    layertrace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layertrace)
    return layertrace


def test_every_traced_name_exists():
    originals = _load_layertrace().originals()
    assert originals
    for owner, attr, value in originals:
        assert callable(value), f"{owner!r}.{attr} is not callable"


def test_traced_public_calls():
    # the wrappers read the traced functions' arguments (integrate's kernel,
    # _chain's nodes, _level_value's node count), so a changed signature fails
    layertrace = _load_layertrace()
    before = layertrace.originals()
    ctx = qcalc.SuiteContext(
        qcalc.generate_operator(qcalc.OperatorSpec(dim=2, seed=3)))
    t, profile = ctx.operator, ctx.profile
    s = qcalc.Quaternion(-1.0, 0.5, 0.0, 0.0)
    p = qcalc.Quaternion(-0.5, 0.0, 1.2, 0.0)
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        with tracer.span("bench.op"):
            qcalc.calc("Q", t, qcalc.Regularizer(2), profile)
            qcalc.hinf("S", t, qcalc.Power(1), profile)
            qcalc.resolvent_identity_residuals(t, s, p)
    finally:
        tracer.uninstall()
    metrics = layertrace.derive(tracer.spans, 1)
    assert metrics["contour.nodes"][0] > 0
    assert metrics["operators.chain.calls"][0] > 0
    after = layertrace.originals()
    assert all(a is b for (_, _, a), (_, _, b) in zip(after, before))


def test_identity_check_is_one_point_span():
    # the identity check's one pseudo-resolvent inversion is a point-kernel
    # evaluation (operators.kernel_batch), so the trace attributes it there
    layertrace = _load_layertrace()
    t = qcalc.generate_operator(qcalc.OperatorSpec(dim=2, seed=3)).operator
    s = qcalc.Quaternion(-1.0, 0.5, 0.0, 0.0)
    p = qcalc.Quaternion(-0.5, 0.0, 1.2, 0.0)
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        with tracer.span("bench.op"):
            qcalc.resolvent_identity_residuals(t, s, p)
    finally:
        tracer.uninstall()
    names = [span[0] for span in tracer.spans]
    assert names.count("operators.point") == 1
    (inv,) = [span for span in tracer.spans if span[0] == "numpy.inv"]
    assert tracer.spans[inv[3]][0] == "operators.point"
    metrics = layertrace.derive(tracer.spans, 1)
    assert metrics["operators.point.calls"][0] == 1
    assert metrics["operators.inv.s"][0] > 0


def test_lone_calc_traces_chain_nodes():
    # the eigenbasis path still runs its per-node work in contour._chain,
    # so a calc on a generated operator shows its nodes in the trace
    layertrace = _load_layertrace()
    ctx = qcalc.SuiteContext(
        qcalc.generate_operator(qcalc.OperatorSpec(dim=4, seed=3)))
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        with tracer.span("bench.op"):
            res = qcalc.calc("F", ctx.operator, qcalc.Regularizer(2),
                             ctx.profile)
    finally:
        tracer.uninstall()
    assert res.diagnostics.kernel_path == "eigenbasis"
    metrics = layertrace.derive(tracer.spans, 1)
    assert metrics["operators.chain.nodes"][0] > 0
    assert metrics["operators.chain.nodes.F"][0] > 0


def test_traced_nodes_match_diagnostics():
    # the trace counts a level's nodes as _level_value's fifth argument
    # times contour.GAUSS_ORDER, which must add up to what the value
    # reports having spent
    layertrace = _load_layertrace()
    ctx = qcalc.SuiteContext(
        qcalc.generate_operator(qcalc.OperatorSpec(dim=4, seed=3)))
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        with tracer.span("bench.op"):
            res = qcalc.calc("Q", ctx.operator, qcalc.Regularizer(2),
                             ctx.profile)
    finally:
        tracer.uninstall()
    metrics = layertrace.derive(tracer.spans, 1)
    assert metrics["contour.integrate.calls"][0] == 1
    assert metrics["contour.nodes"][0] == res.diagnostics.nodes > 0
