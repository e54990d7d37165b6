from pathlib import Path

import numpy as np
import pytest

from conftest import counting_integrate
from qcalc.errors import QCalcError
from qcalc.suites import (SUITE_NAMES, OperatorSpec, SuiteContext,
                          generate_operator, run_suite, write_report)


@pytest.fixture(scope="module")
def ctx():
    gen = generate_operator(OperatorSpec(dim=3, seed=31))
    return SuiteContext(gen, pairs=12, n_max=3)


@pytest.mark.parametrize("name", SUITE_NAMES)
def test_every_suite_passes(ctx, name):
    report = run_suite(name, ctx)
    failing = [c.tag for c in report.checks if not c.passed]
    assert report.passed, f"failing checks: {failing}"
    assert report.checks, "suite produced no checks"
    for check in report.checks:
        assert check.ms >= 0.0
        assert check.passed == (check.residual <= check.tol)


def test_unknown_suite(ctx):
    with pytest.raises(ValueError):
        run_suite("nonsense", ctx)


def test_every_invariant_tag_appears(ctx):
    seen = set()
    for name in SUITE_NAMES:
        for check in run_suite(name, ctx).checks:
            seen.add(check.tag)
    required_fragments = [
        "resolvent_identity_S", "resolvent_identity_Q",
        "resolvent_identity_P2", "resolvent_identity_F",
        "product_rule_S", "product_rule_F", "independence_S",
        "hinf_power_S", "hinf_power_F", "recurrence_S", "recurrence_F",
        "regularizer_shift", "cauchy_reproduction", "fine_oracle_Q",
        "left_right_S", "intrinsic_conj_S", "two_fprime", "commutation_T",
        "ab_reconstruction", "kernel_cauchy_riemann", "component_norms",
        "conj_relation", "axial_symmetry", "estimate_scaling_envelope",
        "q_inverse_commutes", "hinf_matches_decaying_S",
    ]
    joined = "|".join(sorted(seen))
    for fragment in required_fragments:
        assert any(fragment in tag for tag in seen), \
            f"{fragment} missing from {joined}"


def test_suites_share_every_value(monkeypatch):
    # a fresh context, so that no other test has filled its evaluator
    ctx = SuiteContext(generate_operator(OperatorSpec(dim=4, seed=7)))
    seen = counting_integrate(monkeypatch)
    for name in SUITE_NAMES:
        run_suite(name, ctx)
    assert seen and len(set(seen)) == len(seen)


def test_resolvent_point_gives_up(ctx):
    class ZeroRng:  # every draw is the origin, which is rejected
        def normal(self, size):
            return np.zeros(size)

        def uniform(self, low, high):
            return low

    with pytest.raises(QCalcError):
        ctx.random_resolvent_point(ZeroRng())


def test_report_io(ctx, tmp_path):
    report = run_suite("identities", ctx)
    json_path, csv_path = write_report(report, tmp_path)
    import json
    data = json.loads(Path(json_path).read_text())
    assert data["suite"] == "identities"
    assert len(Path(csv_path).read_text().splitlines()) == len(report.checks) + 1


def test_checks_share_their_group_time():
    import time

    from qcalc.suites import _run_groups

    def group():
        time.sleep(0.02)
        return [(f"check_{i}", 0.0, 1.0) for i in range(4)]

    records = _run_groups([group], parallel=False)
    assert len({r.ms for r in records}) == 1
    assert 20.0 <= sum(r.ms for r in records) < 1000.0
