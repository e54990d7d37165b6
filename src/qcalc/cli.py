"""Command-line harness: generate operators, run theorem suites, emit reports.

    qcalc run <suite> [--dim N] [--seed S] [--annulus r0,r1] [--omega W]
              [--diag] [--operator FILE] [--tol T] [--theta A]
              [--angles p1,p2] [--n-max K] [--pairs N] [--config PATH]
              [--report DIR]
    qcalc generate [--dim N] [--seed S] [--annulus r0,r1] [--omega W]
              [--diag] [--config PATH] [--out FILE]

Config files are INI-style `key = value` lines with sections [operator],
[quadrature] and [suites] (see _SETTINGS); flags override file values,
and a setting set by neither keeps its OperatorSpec or SuiteContext default.
"""

from __future__ import annotations

import argparse
import configparser
import sys
from dataclasses import fields, replace

import numpy as np

from . import __version__
from .errors import QCalcError
from .operators import load_operator, operator_to_text
from .quaternion import Quaternion
from .suites import (SUITE_NAMES, GeneratedOperator, OperatorSpec,
                     SuiteContext, generate_operator, run_suite, write_report)


def _parse_pair(text: str) -> tuple[float, float]:
    parts = [float(v) for v in text.split(",")]
    if len(parts) != 2:
        raise ValueError("expected two comma-separated numbers")
    return parts[0], parts[1]


def _parse_bool(text: str) -> bool:
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[text.strip().lower()]
    except KeyError:
        raise ValueError("expected a boolean such as yes or no") from None


# setting -> (INI section, INI key, parser of its text); a setting is also
# its flag's dest.  "operator" is a file to load; the other settings are
# fields of OperatorSpec or SuiteContext, which hold their defaults.
_SETTINGS = {
    "dim": ("operator", "dim", int),
    "seed": ("operator", "seed", int),
    "annulus": ("operator", "annulus", _parse_pair),
    "omega": ("operator", "omega", float),
    "diagonal": ("operator", "diag", _parse_bool),
    "operator": ("operator", "file", str),
    "tol": ("quadrature", "tol", float),
    "theta": ("quadrature", "theta", float),
    "angles": ("quadrature", "angles", _parse_pair),
    "n_max": ("suites", "n_max", int),
    "pairs": ("suites", "pairs", int),
}


def load_config(path: str) -> dict[str, str]:
    """Texts of the settings an INI file sets, by setting name; a section
    or key that _SETTINGS does not hold is an error."""
    parser = configparser.ConfigParser()
    if not parser.read(path):
        raise QCalcError(f"cannot read config file {path!r}")
    names = {(sec, key): name for name, (sec, key, _) in _SETTINGS.items()}
    out = {}
    for sec in parser.sections():
        if sec not in {s for s, _, _ in _SETTINGS.values()}:
            raise QCalcError(f"config file {path!r}: unknown section [{sec}]")
        for key, text in parser.items(sec):
            if (sec, key) not in names:
                raise QCalcError(f"config file {path!r}: unknown key {key!r} "
                                 f"in section [{sec}]")
            out[names[sec, key]] = text
    return out


def _settings(args) -> dict:
    """The parsed settings of the config file and the flags, flags winning.
    A setting neither sets is absent, so its dataclass default applies."""
    texts = load_config(args.config) if args.config else {}
    texts.update({name: getattr(args, name) for name in _SETTINGS
                  if getattr(args, name, None) is not None})
    out = {}
    for name, text in texts.items():
        _, key, parse = _SETTINGS[name]
        try:
            out[name] = parse(text)
        except ValueError as exc:
            raise ValueError(f"bad {key} {text!r}: {exc}") from None
    return out


def _from_settings(cls, settings: dict, **given):
    """cls from the settings named as its fields; the rest keep defaults."""
    names = {f.name for f in fields(cls)}
    return cls(**given, **{k: v for k, v in settings.items() if k in names})


def _build_context(settings: dict) -> SuiteContext:
    spec = _from_settings(OperatorSpec, settings)
    if settings.get("operator"):
        op = load_operator(settings["operator"])
        gen = _wrap_loaded(op, replace(spec, dim=op.n))
    else:
        gen = generate_operator(spec)
    return _from_settings(SuiteContext, settings, gen=gen)


# largest condition number of a loaded operator's recovered eigenbasis
_MAX_BASIS_COND = 1e8


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
    gen = generate_operator(_from_settings(OperatorSpec, _settings(args)))
    text = operator_to_text(gen.operator)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        print(f"wrote dim-{gen.spec.dim} operator to {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def cmd_run(args) -> int:
    names = SUITE_NAMES if args.suite == "all" else (args.suite,)
    ctx = _build_context(_settings(args))
    ok = True
    for name in names:
        report = run_suite(name, ctx)
        for check in report.checks:
            status = "pass" if check.passed else "FAIL"
            print(f"[{name}] {check.tag:<42s} residual {check.residual:10.3e}"
                  f"  tol {check.tol:8.1e}  {status}")
        if args.report:
            json_path, csv_path = write_report(report, args.report)
            print(f"[{name}] report written: {json_path}, {csv_path}")
        ok = ok and report.passed
    return 0 if ok else 1


def _add_operator_flags(parser: argparse.ArgumentParser) -> None:
    # flags take text: _settings parses it as it parses the config file
    parser.add_argument("--dim")
    parser.add_argument("--seed")
    parser.add_argument("--annulus", help="eigenvalue modulus range r0,r1")
    parser.add_argument("--omega")
    parser.add_argument("--diag", dest="diagonal", action="store_const",
                        const="yes",
                        help="diagonal components (no orthogonal conjugation)")
    parser.add_argument("--config", help="INI config path")


def build_arg_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="qcalc",
        description="verify the quaternionic S/Q/P2/F functional calculi "
                    "on generated commuting-component operators")
    top.add_argument("--version", action="version", version=__version__)
    sub = top.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a theorem suite")
    run.add_argument("suite", choices=SUITE_NAMES + ("all",))
    _add_operator_flags(run)
    run.add_argument("--operator", help="load operator from text file")
    run.add_argument("--tol")
    run.add_argument("--theta")
    run.add_argument("--angles", help="two contour angles, comma separated")
    run.add_argument("--n-max", dest="n_max")
    run.add_argument("--pairs")
    run.add_argument("--report", help="directory for JSON + CSV reports")
    run.set_defaults(func=cmd_run)

    gen = sub.add_parser("generate", help="emit an operator in text format")
    _add_operator_flags(gen)
    gen.add_argument("--out", "-o", help="output file (stdout when absent)")
    gen.set_defaults(func=cmd_generate)
    return top


def main(argv=None) -> int:
    args = build_arg_parser().parse_args(argv)
    try:
        return args.func(args)
    except (QCalcError, ValueError, OSError, configparser.Error) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
