"""Command-line harness: generate operators, run theorem suites, emit reports.

    qcalc run <suite> [--dim N] [--seed S] [--tol T] [--angles p1,p2]
              [--units J1,J2] [--config PATH] [--report DIR] [--parallel]
              [--diag] [--operator FILE] [--n-max K] [--pairs N]
    qcalc generate [--dim N] [--seed S] [--annulus r0,r1] [--omega W]
              [--diag] [--out FILE]

Config files are INI-style `key = value` lines with sections [operator],
[quadrature] and [suites]; command-line flags override file values.
"""

from __future__ import annotations

import argparse
import configparser
import math
import sys
from dataclasses import replace

import numpy as np

from . import __version__
from .errors import QCalcError
from .operators import load_operator, operator_to_text
from .quaternion import Quaternion
from .suites import (SUITE_NAMES, E12, GeneratedOperator, OperatorSpec,
                     SuiteContext, generate_operator, run_suite, write_report)

_UNIT_NAMES = {
    "e1": Quaternion(0, 1, 0, 0),
    "e2": Quaternion(0, 0, 1, 0),
    "e3": Quaternion(0, 0, 0, 1),
    "e12": E12,
    "e13": Quaternion(0, 1, 0, 1) * (1.0 / math.sqrt(2.0)),
    "e23": Quaternion(0, 0, 1, 1) * (1.0 / math.sqrt(2.0)),
    "e123": Quaternion(0, 1, 1, 1) * (1.0 / math.sqrt(3.0)),
}


def parse_unit(token: str) -> Quaternion:
    token = token.strip().lower()
    if token in _UNIT_NAMES:
        return _UNIT_NAMES[token]
    parts = token.split(":")
    if len(parts) == 3:
        v = Quaternion(0.0, float(parts[0]), float(parts[1]), float(parts[2]))
        n = v.norm()
        if n == 0.0:
            raise ValueError("unit must be nonzero")
        return v * (1.0 / n)
    raise ValueError(f"unknown imaginary unit {token!r} "
                     f"(use e1/e2/e3/e12/e13/e23/e123 or x:y:z components)")


def _parse_pair(text: str) -> tuple[float, float]:
    parts = [float(v) for v in text.split(",")]
    if len(parts) != 2:
        raise ValueError("expected two comma-separated numbers")
    return parts[0], parts[1]


# largest condition number of a loaded operator's recovered eigenbasis
_MAX_BASIS_COND = 1e8

_DEFAULTS = {
    "dim": 4, "seed": 7, "annulus": (0.5, 2.0), "omega": math.pi / 4.0,
    "diag": False, "operator": None,
    "tol": 1e-9, "theta": None, "angles": None, "units": (("e1", "e12")),
    "n_max": 5, "pairs": 50,
}


def load_config(path: str) -> dict:
    """Read the line-oriented key = value config with its three sections."""
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise QCalcError(f"cannot read config file {path!r}")
    out: dict = {}
    if parser.has_section("operator"):
        sec = parser["operator"]
        if "dim" in sec:
            out["dim"] = sec.getint("dim")
        if "seed" in sec:
            out["seed"] = sec.getint("seed")
        if "annulus" in sec:
            out["annulus"] = _parse_pair(sec["annulus"])
        if "omega" in sec:
            out["omega"] = sec.getfloat("omega")
        if "diag" in sec:
            out["diag"] = sec.getboolean("diag")
        if "file" in sec:
            out["operator"] = sec["file"]
    if parser.has_section("quadrature"):
        sec = parser["quadrature"]
        if "tol" in sec:
            out["tol"] = sec.getfloat("tol")
        if "theta" in sec:
            out["theta"] = sec.getfloat("theta")
        if "angles" in sec:
            out["angles"] = _parse_pair(sec["angles"])
        if "units" in sec:
            out["units"] = tuple(v.strip() for v in sec["units"].split(","))
    if parser.has_section("suites"):
        sec = parser["suites"]
        if "n_max" in sec:
            out["n_max"] = sec.getint("n_max")
        if "pairs" in sec:
            out["pairs"] = sec.getint("pairs")
    return out


def _merged_options(args) -> dict:
    opts = dict(_DEFAULTS)
    if getattr(args, "config", None):
        opts.update(load_config(args.config))
    for key in ("dim", "seed", "tol", "theta", "n_max", "pairs", "omega"):
        val = getattr(args, key.replace("-", "_"), None)
        if val is not None:
            opts[key] = val
    if getattr(args, "annulus", None) is not None:
        opts["annulus"] = _parse_pair(args.annulus)
    if getattr(args, "angles", None) is not None:
        opts["angles"] = _parse_pair(args.angles)
    if getattr(args, "units", None) is not None:
        opts["units"] = tuple(v.strip() for v in args.units.split(","))
    if getattr(args, "diag", False):
        opts["diag"] = True
    if getattr(args, "operator", None):
        opts["operator"] = args.operator
    return opts


def _build_context(opts) -> SuiteContext:
    spec = OperatorSpec(dim=opts["dim"], seed=opts["seed"],
                        annulus=tuple(opts["annulus"]), omega=opts["omega"],
                        diagonal=opts["diag"])
    if opts.get("operator"):
        op = load_operator(opts["operator"])
        gen = _wrap_loaded(op, replace(spec, dim=op.n))
    else:
        gen = generate_operator(spec)
    units = tuple(parse_unit(u) for u in opts["units"])
    return SuiteContext(gen, tol=opts["tol"], theta=opts["theta"],
                        angles=opts["angles"], units=units,
                        n_max=opts["n_max"], pairs=opts["pairs"],
                        seed=opts["seed"])


def _wrap_loaded(op, spec: OperatorSpec) -> GeneratedOperator:
    # A loaded operator has no recorded eigensphere data; the suites that
    # need it (the oracles, the kernels' spectrum checks, resolvent point
    # sampling) recover it by joint diagonalisation.  Eigenvectors V of a
    # random real combination of the commuting components diagonalize each
    # component as V^-1 T_i V when they are jointly diagonalizable with
    # real eigenvalues; V need not be orthogonal.
    rng = np.random.default_rng(spec.seed)
    w = rng.normal(size=4)
    mix = sum(w[i] * op.components[i] for i in range(4))
    _, vecs = np.linalg.eig(mix)
    if np.iscomplexobj(vecs):
        raise QCalcError("loaded operator has non-real component eigenvalues; "
                         "its eigensphere data cannot be recovered")
    cond = np.linalg.cond(vecs)
    if not cond <= _MAX_BASIS_COND:
        raise QCalcError(f"loaded operator's eigenvector basis has condition "
                         f"number {cond:.3g} (limit {_MAX_BASIS_COND:.0e}); "
                         f"it is not reliably diagonalizable")
    inv = np.linalg.inv(vecs)
    diag = np.stack([np.diag(inv @ c @ vecs) for c in op.components], axis=1)
    eigs = [Quaternion(*(float(v) for v in row)) for row in diag]
    return GeneratedOperator(op, eigs, inv, vecs, spec)


def cmd_generate(args) -> int:
    opts = _merged_options(args)
    spec = OperatorSpec(dim=opts["dim"], seed=opts["seed"],
                        annulus=tuple(opts["annulus"]), omega=opts["omega"],
                        diagonal=opts["diag"])
    gen = generate_operator(spec)
    text = operator_to_text(gen.operator)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        print(f"wrote dim-{spec.dim} operator to {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def cmd_run(args) -> int:
    opts = _merged_options(args)
    names = SUITE_NAMES if args.suite == "all" else (args.suite,)
    ctx = _build_context(opts)
    ok = True
    for name in names:
        report = run_suite(name, ctx, parallel=args.parallel)
        for check in report.checks:
            status = "pass" if check.passed else "FAIL"
            print(f"[{name}] {check.tag:<42s} residual {check.residual:10.3e}"
                  f"  tol {check.tol:8.1e}  {status}")
        if args.report:
            json_path, csv_path = write_report(report, args.report)
            print(f"[{name}] report written: {json_path}, {csv_path}")
        ok = ok and report.passed
    return 0 if ok else 1


def build_arg_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="qcalc",
        description="verify the quaternionic S/Q/P2/F functional calculi "
                    "on generated commuting-component operators")
    top.add_argument("--version", action="version", version=__version__)
    sub = top.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a theorem suite")
    run.add_argument("suite", choices=SUITE_NAMES + ("all",))
    run.add_argument("--dim", type=int)
    run.add_argument("--seed", type=int)
    run.add_argument("--tol", type=float)
    run.add_argument("--theta", type=float)
    run.add_argument("--omega", type=float)
    run.add_argument("--angles", help="two contour angles, comma separated")
    run.add_argument("--units", help="imaginary units, e.g. e1,e12")
    run.add_argument("--annulus", help="eigenvalue modulus range r0,r1")
    run.add_argument("--n-max", dest="n_max", type=int)
    run.add_argument("--pairs", type=int)
    run.add_argument("--diag", action="store_true",
                     help="diagonal components (no orthogonal conjugation)")
    run.add_argument("--operator", help="load operator from text file")
    run.add_argument("--config", help="INI config path")
    run.add_argument("--report", help="directory for JSON + CSV reports")
    run.add_argument("--parallel", action="store_true",
                     help="run independent check groups concurrently")
    run.set_defaults(func=cmd_run)

    gen = sub.add_parser("generate", help="emit an operator in text format")
    gen.add_argument("--dim", type=int)
    gen.add_argument("--seed", type=int)
    gen.add_argument("--annulus", help="eigenvalue modulus range r0,r1")
    gen.add_argument("--omega", type=float)
    gen.add_argument("--diag", action="store_true")
    gen.add_argument("--config", help="INI config path")
    gen.add_argument("--out", "-o", help="output file (stdout when absent)")
    gen.set_defaults(func=cmd_generate)
    return top


def main(argv=None) -> int:
    args = build_arg_parser().parse_args(argv)
    try:
        return args.func(args)
    except (QCalcError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
