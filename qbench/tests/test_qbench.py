"""Self-tests of the benchmark: reproducible inputs, failing checks, clean
trace removal and the output contract.  Run with

    python -m pytest qbench/tests -q
"""

import json
import shutil
from collections import Counter
import subprocess
import sys
from pathlib import Path

import pytest

import hostspeed
import layertrace
import run
import workloads

ROOT = Path(__file__).resolve().parents[2]
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def prepared():
    """Set-up state and ops of every workload at seed 5."""
    out = {}
    for name in workloads.SPECS:
        state = workloads.setup(name, 5)
        out[name] = (state, workloads.make_ops(state, 5))
    return out


@pytest.mark.parametrize("name", sorted(workloads.SPECS))
def test_same_seed_gives_byte_identical_inputs(name, prepared):
    state, ops = prepared[name]
    again = workloads.setup(name, 5)
    other = workloads.setup(name, 6)
    assert workloads.inputs_bytes(state, ops) == workloads.inputs_bytes(
        again, workloads.make_ops(again, 5))
    assert workloads.inputs_bytes(state, ops) != workloads.inputs_bytes(
        other, workloads.make_ops(other, 6))


def test_calc_rounds_are_balanced(prepared):
    state, ops = prepared["calc_dim16"]
    size = workloads.SPECS["calc_dim16"].round_ops
    angles = None
    for k in range(0, len(ops), size):
        rnd = ops[k:k + size]
        assert len({(op.fn_key[1], op.kind, op.side) for op in rnd}) == size
        assert Counter(op.operator for op in rnd) == {
            o: size // len(state.gens) for o in range(len(state.gens))}
        angles = angles or sorted(op.phi for op in rnd)
        assert sorted(op.phi for op in rnd) == angles


def test_hinf_rounds_pair_every_function_with_every_angle(prepared):
    state, ops = prepared["hinf_dim4"]
    n = len(workloads._HINF_FNS)
    sweeps = ops[:len(workloads.KINDS) * n * n:len(workloads.KINDS)]
    assert len({(op.fn, op.phi) for op in sweeps}) == n * n


@pytest.mark.parametrize("name", ["calc_dim16", "hinf_dim4"])
def test_value_perturbed_by_1e4_fails(name, prepared):
    state, ops = prepared[name]
    op = next(o for o in ops if o.kind == "S")
    runner = workloads.Runner(state, [op])
    value = runner.call(op)
    assert runner.check(op, value) <= 1.0
    assert runner.check(op, value * (1.0 + 1e-4)) > 1.0


class _Perturbed(workloads.Runner):
    def call(self, op):
        # one side of each identity off by a relative 1e-4
        return {k: v + 1e-4 for k, v in super().call(op).items()}


def test_perturbed_identity_counts_as_failure(prepared):
    state, ops = prepared["pointwise_dim8"]
    probe = hostspeed.Probe()
    good = run.measure(workloads.Runner(state, ops), probe, 0.05)
    assert good["failed"] == 0 and good["attempted"] >= 1
    bad = run.measure(_Perturbed(state, ops), probe, 0.05)
    assert bad["attempted"] >= 1 and bad["failed"] == bad["attempted"]


def test_reference_times_divide_wall_times_by_the_probe_factor(prepared):
    state, ops = prepared["pointwise_dim8"]

    class Slow:
        def factor(self):
            return 2.0

    res = run.measure(workloads.Runner(state, ops), Slow(), 0.05)
    assert res["ref_latencies"] == [t / 2.0 for t in res["latencies"]]
    assert run.slowdown(res) == pytest.approx(2.0)
    assert run.rate(res) == pytest.approx(2.0 * run.rate(res, "latencies"))


def test_probe_factor_is_a_positive_finite_ratio():
    probe = hostspeed.Probe()
    assert set(probe.times()) == set(hostspeed.NOMINAL_S)
    assert 0.05 < probe.factor() < 50.0


def test_trace_wrappers_are_removed(prepared):
    before = layertrace.originals()
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        assert any(getattr(owner, attr) is not fn for owner, attr, fn in before)
        for name in ("calc_dim16", "hinf_dim4", "pointwise_dim8"):
            state, ops = prepared[name]
            workloads.Runner(state, ops[:1]).call(ops[0])
    finally:
        tracer.uninstall()
    assert all(getattr(owner, attr) is fn for owner, attr, fn in before)
    names = {s[0] for s in tracer.spans}
    assert {"calculus.calc", "calculus.hinf", "contour.integrate",
            "operators.chain", "operators.point", "numpy.cond"} <= names


def test_probe_runs_outside_the_trace():
    probe = hostspeed.Probe()  # made before the wrappers, as run.py does
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        probe.factor()
    finally:
        tracer.uninstall()
    assert tracer.spans == []


def test_self_time_excludes_children():
    spans = [("bench.op", 0.0, 2.0, -1, 0),
             ("operators.chain", 0.0, 1.0, 0, ("S", 4)),
             ("numpy.cond", 0.1, 0.4, 1, 12.0),
             ("numpy.inv", 0.5, 0.6, 1, None),
             ("bench.op", 2.0, 3.0, -1, 1)]
    m = layertrace.derive(spans, setup_reps=1)
    # per op: two ops share one chain call
    assert m["operators.chain.self_s"][0] == pytest.approx(0.3)
    assert m["operators.chain.nodes.S"][0] == 2
    assert m["operators.inv.s"][0] == pytest.approx(0.05)
    assert m["operators.cond.worst"][0] == 12.0
    slow = layertrace.derive(spans, setup_reps=1, op_factor=2.0)
    assert slow["operators.chain.self_s"][0] == pytest.approx(0.15)
    assert slow["operators.chain.nodes.S"][0] == 2


def test_quantile_estimates():
    assert run.quantile([7.0] * 50, 0.9) == pytest.approx(7.0)
    assert run.quantile(range(1, 100), 0.5) == pytest.approx(50.0)
    assert 85.0 < run.quantile(range(1, 100), 0.9) < 95.0


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_last_line_matches_contract(trace, key):
    proc = subprocess.run(
        [sys.executable, "qbench/run.py", "--workload", "pointwise_dim8",
         "--seed", "3", "--seconds", "0.5", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    want = {m["name"]: m["unit"] for m in CONTRACT[key]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "qbench", tmp_path / "qbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "qbench/run.py", "--workload", "hinf_dim4",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
