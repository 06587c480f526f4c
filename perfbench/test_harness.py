"""Tests of the benchmark's own checker and tracer.

    python3 -m pytest perfbench -q

A tampered certificate, a NO caused only by rounding, a witness that is
negative on a vertex and a wrong exit code must each count as failures.
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checker  # noqa: E402
import slocc  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

LAM = np.array([0.7, 0.1, 0.1, 0.1])
LAM_P = np.array([0.6, 0.2, 0.1, 0.1])


def test_vertices_match_program_order():
    assert np.array_equal(np.stack(slocc.vertex_set()), checker.VERTICES)


def test_yes_passes_and_tampered_rmatrix_fails():
    decision = slocc.can_convert_bd(LAM, LAM_P)
    assert checker.check_bd_decision(LAM, LAM_P, decision) is None
    r = decision.rmatrix.copy()
    r[1, 0] += 0.05
    assert checker.check_bd(LAM, LAM_P, True, r) == "replay"
    assert checker.check_bd(LAM, LAM_P, True, -decision.rmatrix) \
        == "rmatrix_not_nonnegative"


def test_no_passes_and_rounding_no_fails():
    decision = slocc.can_convert_bd(LAM_P, LAM)
    assert checker.check_bd_decision(LAM_P, LAM, decision) is None
    # lam -> lam is a tie: every exact slack is 0, so a NO is rounding alone
    assert checker.check_bd(LAM, LAM, False, violated="E2") == "tie_no"
    just_inside = LAM_P + np.array([-1e-13, 1e-13, 0, 0])
    assert checker.check_bd(LAM, just_inside, False, violated="E1") \
        == "tie_no"


def test_yes_contradicting_exact_monotones_fails():
    assert checker.check_bd(LAM_P, LAM, True, np.eye(4)) == "wrong_yes"


def test_witness_checks():
    r = np.zeros((4, 4))
    r[0, 0] = 1.0
    cert = slocc.is_separable(r)
    assert checker.check_separability(r, cert) is None
    assert checker.check_witness(r, -np.ones((4, 4))) \
        == "witness_negative_on_vertex"
    assert checker.check_witness(np.full((4, 4), 1 / 16),
                                 cert.witness.matrix) \
        == "witness_not_negative_on_state"


def test_decomposition_checks():
    r = np.full((4, 4), 1 / 16)
    cert = slocc.is_separable(r)
    assert checker.check_separability(r, cert) is None
    tampered = r.copy()
    tampered[0, 1] += 1e-6
    tampered[0, 2] -= 1e-6
    assert checker.check_separability(tampered, cert) \
        == "decomposition_rebuild"
    w = np.zeros(len(checker.VERTICES))
    w[0], w[1] = 1.5, -0.5
    assert checker.check_decomposition(r, w) == "decomposition_weights"


def test_wrong_exit_code_fails():
    req = {"sub": "convert", "expect": 1, "lam": LAM_P, "lam_p": LAM}
    payload = json.dumps({"convertible": False, "violated_monotone": "E1"})
    assert checker.check_cli(req, 1, payload, {}) is None
    assert checker.check_cli(req, 0, payload, {}) == "cli.convert.exit0"
    assert checker.check_cli(req, 2, "", {}) == "cli.convert.exit2"


def test_lorentz_weights_recover_generating_weights():
    rng = np.random.default_rng(0)
    for _ in range(20):
        rho, (_, lam) = workloads.filtered_bd(rng)
        assert np.abs(checker.lorentz_weights(rho) - lam).max() < 1e-9


def test_two_qubit_expectations():
    rng = np.random.default_rng(1)
    ppt, _ = workloads.ginibre(rng, True)
    ent, d_ent = workloads.ginibre(rng, False)
    assert checker.expected_two_qubit(d_ent, (True, None)) is True
    assert checker.expected_two_qubit((True, None), d_ent) is False
    d = slocc.can_convert_two_qubit(ppt, ent)
    assert checker.check_two_qubit((True, None), d_ent, d) is None


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_pools_are_seeded(name):
    wl = workloads.WORKLOADS[name]
    a = wl.make_pool(np.random.default_rng(5), 20)
    b = wl.make_pool(np.random.default_rng(5), 20)
    assert repr(a) == repr(b)


def test_tracer_wraps_every_binding_and_restores():
    original = slocc.separability.is_separable
    tracer = tracing.Tracer(slocc)
    tracer.install()
    try:
        assert slocc.convert.is_separable is not original
        assert slocc.is_separable is slocc.separability.is_separable
        tracer.begin_op(0, "bd")
        slocc.can_convert_bd(LAM, LAM_P)
        tracer.end_op()
    finally:
        tracer.uninstall()
    assert slocc.convert.is_separable is original
    assert slocc.is_separable is original
    per, totals = tracing.aggregate(tracer.spans, {0: 1.0})
    assert per["separability.is_separable"]["calls"] == 1
    assert per["numerics.convex_membership"]["calls"] == 2
    self_sum = sum(s["self"] for s in per.values()) + totals["unaccounted"]
    assert self_sum == pytest.approx(totals["wall"], rel=1e-9)
