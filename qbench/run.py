"""qcalc benchmark: certified values per second, set-up time and a layer trace.

Run from the root of a checkout:

    python3 qbench/run.py --workload calc_dim16 --seed 1 --seconds 32 --trace 0

One process, one client, closed loop: the next public call starts when the
previous one has returned and been checked.  A host-speed probe runs
between calls, and every reported time is in reference-host seconds (see
hostspeed.py); the wall-clock figures go to the output file.
With --trace 0 the last line of standard output is a JSON object with the
end-to-end metrics; with --trace 1 it carries the per-layer metrics of a
run with the layer trace installed, preceded by an untraced phase of equal
length that gives the tracing overhead.  Environment, metric table and
(with --trace 1) the spans go to qbench/out/.  See qbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

WORKLOADS = ("calc_dim16", "hinf_dim4", "pointwise_dim8")
SETUP_REPS = 5
SETUP_PROBES = 9     # probes whose median brackets each set-up repetition
MIN_OPS = 100        # so that p90 has at least ten samples beyond it
MAX_STRETCH = 2.0    # a run may outlast --seconds up to this many times
                     # to reach MIN_OPS and the end of a round
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def import_qcalc() -> float:
    """Import numpy and qcalc from this checkout's src/; return the seconds."""
    if not (SRC / "qcalc" / "__init__.py").is_file():
        raise SystemExit(f"qbench: no qcalc sources at {SRC}")
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import numpy  # noqa: F401  (part of what a user pays on import)
    import qcalc
    elapsed = time.perf_counter() - start
    if Path(qcalc.__file__).resolve().parent != SRC / "qcalc":
        raise SystemExit(f"qbench: imported qcalc from {qcalc.__file__}, "
                         f"not from {SRC}")
    return elapsed


def environment() -> dict:
    import numpy as np
    import qcalc
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas.get("name"), "blas_version": blas.get("version"),
            "nproc": len(os.sched_getaffinity(0)),
            "cpu_count": os.cpu_count(), "qcalc": qcalc.__version__,
            **{v: os.environ.get(v) for v in THREAD_VARS}}


def timed_setup(name: str, seed: int, probe, tracer=None):
    """Set up SETUP_REPS times between host-speed probes (each the median of
    SETUP_PROBES factors).  Return the last state and the medians of the
    set-up plus one warm-up op: in reference-host seconds, in wall seconds,
    and the slowdown factor."""
    import workloads

    def steady_factor():
        return statistics.median(probe.factor() for _ in range(SETUP_PROBES))

    ref, wall, factors = [], [], []
    before = steady_factor()
    for _ in range(SETUP_REPS):
        start = time.perf_counter()
        state = workloads.setup(name, seed,
                                span=tracer.span if tracer else None)
        warm = workloads.warmup_op(state)
        workloads.Runner(state, [warm]).call(warm)
        elapsed = time.perf_counter() - start
        after = steady_factor()
        factor = 0.5 * (before + after)
        before = after
        ref.append(elapsed / factor)
        wall.append(elapsed)
        factors.append(factor)
    return (state, statistics.median(ref), statistics.median(wall),
            statistics.median(factors))


def measure(runner, probe, seconds: float, tracer=None) -> dict:
    """Closed loop over the op list for `seconds` of wall time, longer only
    until MIN_OPS ops and a whole number of rounds of the op list have run.
    Only the public call is timed; every value is checked.  The host-speed
    probe runs between calls, and each latency is divided by the mean of
    the factors measured just before and just after its call."""
    import qcalc

    clock = time.perf_counter
    ops = runner.ops
    lat, ref, ratios = [], [], []
    calls = failed = 0
    first_error = None
    start = clock()

    def finished():
        wall = clock() - start
        return wall >= MAX_STRETCH * seconds or (
            wall >= seconds and calls >= MIN_OPS
            and calls % runner.round_ops == 0)

    before = probe.factor()
    while not finished():
        op = ops[calls % len(ops)]
        calls += 1
        t0 = clock()
        try:
            if tracer is None:
                value = runner.call(op)
            else:
                with tracer.span("bench.op", calls - 1):
                    value = runner.call(op)
        except qcalc.QCalcError as exc:
            before = probe.factor()
            failed += 1
            first_error = first_error or f"{type(exc).__name__}: {exc} at {op}"
            continue
        dt = clock() - t0
        after = probe.factor()
        lat.append(dt)
        ref.append(dt / (0.5 * (before + after)))
        before = after
        ratio = runner.check(op, value)
        ratios.append(ratio)
        if not ratio <= 1.0:
            failed += 1
            first_error = first_error or f"error {ratio:.3g} x tol at {op}"
    if first_error:
        print(f"qbench: first failure: {first_error}", file=sys.stderr)
    if not lat:
        raise SystemExit("qbench: no op completed")
    return {"attempted": calls, "failed": failed, "latencies": lat,
            "ref_latencies": ref, "ratios": ratios}


def rate(res: dict, key: str = "ref_latencies") -> float:
    """Values returned per second spent inside the public calls, in
    reference-host seconds (or wall seconds with key="latencies")."""
    return len(res[key]) / sum(res[key])


def slowdown(res: dict) -> float:
    """Time-weighted mean host slowdown factor over a measured phase."""
    return sum(res["latencies"]) / sum(res["ref_latencies"])


def margin_log10(ratio: float) -> float:
    # an error below 1e-300 x tol reads as 300 digits, not as infinity
    return -math.log10(max(ratio, 1e-300))


def quantile(values, p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: a beta-weighted mean of all
    order statistics.  Latencies cluster by op kind, and one or two middle
    samples jump between clusters from run to run; the weighted mean does
    not."""
    import numpy as np

    x = np.sort(np.asarray(values, dtype=float))
    n = len(x)
    a, b = p * (n + 1), (1.0 - p) * (n + 1)
    # the Beta(a, b) distribution function on a grid, by the trapezoid rule
    grid = np.linspace(0.0, 1.0, 20 * n + 1)[1:-1]
    log_pdf = (a - 1.0) * np.log(grid) + (b - 1.0) * np.log1p(-grid)
    pdf = np.exp(log_pdf - log_pdf.max())
    cdf = np.concatenate([[0.0], np.cumsum(0.5 * (pdf[1:] + pdf[:-1]))])
    weights = np.diff(np.interp(np.arange(n + 1) / n, grid, cdf / cdf[-1]))
    return float(weights @ x)


def end_to_end(res: dict, setup_s: float) -> dict:
    import numpy as np

    ref_ms = np.asarray(res["ref_latencies"]) * 1000.0
    return {
        "ops_per_ref_s": (rate(res), "1/s"),
        "op_ref_ms.p50": (quantile(ref_ms, 0.5), "ms"),
        "op_ref_ms.p90": (quantile(ref_ms, 0.9), "ms"),
        "ok_frac": (1.0 - res["failed"] / res["attempted"], "fraction"),
        "err_margin_log10": (
            margin_log10(float(np.percentile(res["ratios"], 90))), "log10"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
        "setup_s": (setup_s, "s"),
    }


def wall_figures(res: dict, import_s: float, setup_wall_s: float,
                 setup_factor: float) -> dict:
    """The same timings in wall seconds, with the probe's factors."""
    import numpy as np

    ms = np.asarray(res["latencies"]) * 1000.0
    return {"wall_ops_per_s": rate(res, "latencies"),
            "wall_op_ms.p50": quantile(ms, 0.5),
            "wall_op_ms.p90": quantile(ms, 0.9),
            "wall_import_s": import_s,
            "wall_setup_s": import_s + setup_wall_s,
            "host_factor.setup": setup_factor,
            "host_factor.ops": slowdown(res)}


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        raise SystemExit("qbench: --seconds must be positive")
    for var in THREAD_VARS:  # read by OpenBLAS when numpy loads
        os.environ[var] = "1"
    import_s = import_qcalc()
    import hostspeed
    import layertrace
    import workloads

    env = environment()
    print(json.dumps({"env": env, "workload": args.workload,
                      "seed": args.seed, "why": workloads.WHY[args.workload]}))
    probe = hostspeed.Probe()
    probe.factor()  # first touch of the probe's code and data
    tracer = layertrace.Tracer() if args.trace else None
    state, setup_ref, setup_wall, setup_factor = timed_setup(
        args.workload, args.seed, probe, tracer)
    setup_s = import_s / setup_factor + setup_ref
    runner = workloads.Runner(state, workloads.make_ops(state, args.seed))

    if args.trace == 0:
        res = measure(runner, probe, args.seconds)
        metrics = end_to_end(res, setup_s)
        extra = {"samples": len(res["latencies"]),
                 "worst_err_margin_log10": margin_log10(max(res["ratios"])),
                 **wall_figures(res, import_s, setup_wall, setup_factor)}
    else:
        plain = measure(runner, probe, args.seconds / 2.0)
        tracer.install()
        try:
            res = measure(runner, probe, args.seconds / 2.0, tracer)
        finally:
            tracer.uninstall()
        metrics = layertrace.derive(tracer.spans, SETUP_REPS,
                                    op_factor=slowdown(res),
                                    setup_factor=setup_factor)
        metrics["trace.untraced_ops_per_ref_s"] = (rate(plain), "1/s")
        metrics["trace.traced_ops_per_ref_s"] = (rate(res), "1/s")
        metrics["trace.overhead_ops_per_ref_s"] = (rate(plain) - rate(res),
                                                   "1/s")
        extra = {"host_factor.setup": setup_factor,
                 "host_factor.untraced": slowdown(plain),
                 "host_factor.traced": slowdown(res)}
        res = {k: plain[k] + res[k] for k in ("attempted", "failed")}

    OUT.mkdir(exist_ok=True)
    if tracer is not None:
        tracer.write(OUT / f"{args.workload}.spans.json")

    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:16.6g} {unit}")
    result = {"correct": res["failed"] == 0, "attempted": res["attempted"],
              "failed": res["failed"],
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}}
    with open(OUT / f"{args.workload}.trace{args.trace}.json", "w") as fh:
        json.dump({"env": env, "seed": args.seed, "seconds": args.seconds,
                   **extra, **result}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
