import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import slocc.normal_form
from slocc.bell import weights_to_density
from slocc.choi import rho_nd, rho_nd_prime
from slocc.convert import (NotEntangledError, _separable_endpoint,
                           can_convert_bd, monotones)
from slocc.normal_form import (InvalidStateError, SeparableInputError,
                               _lorentz_normal_forms, _states, bd_equivalent,
                               can_convert_two_qubit, classify, concurrence,
                               filter_iteration, is_ppt)


def _random_state(rng, rank=4):
    A = rng.normal(size=(4, rank)) + 1j * rng.normal(size=(4, rank))
    rho = A @ A.conj().T
    return rho / np.trace(rho).real


def _random_filter(rng, max_cond=10.0):
    while True:
        F = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        s = np.linalg.svd(F, compute_uv=False)
        if s[0] / s[1] <= max_cond:
            return F


def test_concurrence_values():
    bell = weights_to_density([1.0, 0, 0, 0])
    assert abs(concurrence(bell) - 1.0) < 1e-12
    assert concurrence(np.eye(4) / 4.0) == 0.0
    # Bell-diagonal concurrence is max(0, 2 lam_1 - 1)
    assert abs(concurrence(weights_to_density([0.7, 0.1, 0.1, 0.1])) - 0.4) \
        < 1e-10


def test_ppt_detects_bell_diagonal_entanglement():
    assert not is_ppt(weights_to_density([0.7, 0.1, 0.1, 0.1]))
    assert is_ppt(weights_to_density([0.5, 0.3, 0.1, 0.1]))
    assert is_ppt(np.eye(4) / 4.0)


def _nan_pair_state():
    # NaN off the diagonal only: the trace stays 1, the marginals I/2
    rho = np.eye(4, dtype=complex) / 4.0
    rho[0, 1] = rho[1, 0] = np.nan
    return rho


def test_is_ppt_rejects_nan():
    with pytest.raises(InvalidStateError):
        is_ppt(_nan_pair_state())


def test_concurrence_rejects_nan():
    with pytest.raises(InvalidStateError):
        concurrence(_nan_pair_state())


def test_filter_leaves_bell_diagonal_states_alone():
    rho = weights_to_density([0.6, 0.2, 0.1, 0.1])
    res = filter_iteration(rho)
    assert res.converged and res.iterations == 0
    assert np.abs(res.state - rho).max() < 1e-12


def test_filter_recovers_weights_after_filtering():
    rng = np.random.default_rng(61)
    lam = np.array([0.55, 0.25, 0.15, 0.05])
    rho = weights_to_density(lam)
    F = _random_filter(rng)
    G = _random_filter(rng)
    K = np.kron(F, G)
    twisted = K @ rho @ K.conj().T
    twisted /= np.trace(twisted).real
    res = filter_iteration(twisted)
    assert res.converged
    back = np.sort(np.linalg.eigvalsh(res.state))[::-1]
    assert np.abs(back - lam).max() < 1e-8


def test_filter_blows_up_on_nd_family():
    res = filter_iteration(rho_nd(0.3))
    assert not res.converged


def test_classify_separable():
    assert classify(np.eye(4) / 4.0).kind == "separable"
    assert classify(weights_to_density([0.5, 0.3, 0.1, 0.1])).kind \
        == "separable"


def test_classify_bell_diagonal():
    res = classify(weights_to_density([0.7, 0.1, 0.1, 0.1]))
    assert res.kind == "bell_diagonal"
    assert np.abs(res.weights - [0.7, 0.1, 0.1, 0.1]).max() < 1e-10


def test_classify_nd_structural():
    for b in (0.1, 0.3, 0.5):
        res = classify(rho_nd(b))
        assert res.kind == "nd_class"
        assert abs(res.b - b) < 1e-10


def test_classify_nd_without_estimation():
    # estimate_b is accepted and ignored: b is exact on every nd input
    res = classify(rho_nd(0.2), estimate_b=False)
    assert res.kind == "nd_class" and abs(res.b - 0.2) <= 1e-10
    rng = np.random.default_rng(64)
    F = _random_filter(rng, max_cond=3.0)
    K = np.kron(F, np.eye(2))
    rho = K @ rho_nd(0.2) @ K.conj().T
    rho /= np.trace(rho).real
    res = classify(rho, estimate_b=False)
    assert res.kind == "nd_class" and abs(res.b - 0.2) <= 1e-10


def test_classify_nd_filtered_needs_optimization():
    # a local filter breaks the spectrum of rho_nd(b) but not the class;
    # the Lorentz normal form still gives b exactly, with no optimization
    rng = np.random.default_rng(62)
    b = 0.25
    F = _random_filter(rng, max_cond=3.0)
    G = _random_filter(rng, max_cond=3.0)
    K = np.kron(F, G)
    rho = K @ rho_nd(b) @ K.conj().T
    rho /= np.trace(rho).real
    res = classify(rho)
    assert res.kind == "nd_class"
    assert abs(res.b - b) <= 1e-10


def _random_unitary(rng):
    q, r = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _twist(rho, F, G):
    K = np.kron(F, G)
    out = K @ rho @ K.conj().T
    return out / np.trace(out).real


@pytest.mark.parametrize("b", [0.05, 0.2, 0.45, 0.5])
def test_classify_nd_exact_b_under_unitaries_and_filters(b):
    rng = np.random.default_rng(65)
    for make in (_random_unitary, lambda g: _random_filter(g, max_cond=5.0)):
        for _ in range(10):
            res = classify(_twist(rho_nd(b), make(rng), make(rng)))
            assert res.kind == "nd_class"
            assert abs(res.b - b) <= 1e-10
            assert np.abs(res.weights - [(1 + 2 * b) / 2, (1 - 2 * b) / 2,
                                         0.0, 0.0]).max() <= 1e-10


def test_classify_near_rank2_filtered_bell_diagonal():
    # the filter iteration exhausts its sweeps on these, so filter
    # non-convergence cannot be the class signal
    rng = np.random.default_rng(66)
    for _ in range(20):
        head = rng.uniform(0.55, 0.95)
        tail = rng.uniform(1e-4, 2e-3) * np.array([0.6, 0.4])
        lam = np.concatenate((np.array([head, 1 - head]) * (1 - tail.sum()),
                              tail))
        rho = _twist(weights_to_density(rng.permutation(lam)),
                     _random_filter(rng, 5.0), _random_filter(rng, 5.0))
        res = classify(rho)
        assert res.kind == "bell_diagonal"
        assert np.abs(res.weights - np.sort(lam)[::-1]).max() <= 1e-8


@pytest.mark.parametrize("seed", [575, 604])
def test_classify_slow_filter_rank3_states(seed):
    # 500 filter sweeps are not enough here; 5000 converge in about 600
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(4, 3)) + 1j * rng.normal(size=(4, 3))
    rho = A @ A.conj().T
    rho /= np.trace(rho).real
    res = classify(rho)
    oracle = filter_iteration(rho, max_iter=5000)
    assert res.kind == "bell_diagonal" and oracle.converged
    back = np.sort(np.linalg.eigvalsh(oracle.state))[::-1]
    assert np.abs(res.weights - back).max() <= 1e-10


@pytest.mark.parametrize("lam", [
    [1.0, 0, 0, 0], [0.7, 0.3, 0, 0], [0.5 + 1e-6, 0.5 - 1e-6, 0, 0],
    [0.6, 0.2, 0.2, 0.0],
    *([0.6, 0.15 + gap, 0.15, 0.1 - gap]
      for gap in (1e-12, 1e-9, 1e-7, 1e-5))])
def test_classify_degenerate_bell_diagonal_filtered(lam):
    # equal or nearly equal Lorentz values of a Bell-diagonal-class state
    # form a diagonalizable cluster, not a Jordan block
    rng = np.random.default_rng(67)
    for _ in range(10):
        rho = _twist(weights_to_density(rng.permutation(lam)),
                     _random_filter(rng, 10.0), _random_filter(rng, 10.0))
        res = classify(rho)
        assert res.kind == "bell_diagonal"
        assert np.abs(res.weights - np.sort(lam)[::-1]).max() <= 1e-8


@pytest.mark.parametrize("excess", [1e-3, 1e-5, 1e-7])
def test_classify_at_ppt_boundary(excess):
    rng = np.random.default_rng(70)
    for sign, kind in ((1, "bell_diagonal"), (-1, "separable")):
        lam = np.array([0.5 + sign * excess, 0.3 - sign * excess, 0.15,
                        0.05])
        for _ in range(10):
            rho = _twist(weights_to_density(rng.permutation(lam)),
                         _random_filter(rng, 5.0), _random_filter(rng, 5.0))
            res = classify(rho)
            assert res.kind == kind
            if kind == "bell_diagonal":
                assert np.abs(res.weights - lam).max() <= 1e-10


def test_classify_sign_of_det_r():
    # every Bell labelling has the same weights but its own sign pattern of
    # the correlations; the closed form must undo each one
    lam = np.array([0.6, 0.2, 0.15, 0.05])
    rng = np.random.default_rng(68)
    for perm in itertools.permutations(range(4)):
        rho = _twist(weights_to_density(lam[list(perm)]),
                     _random_filter(rng, 3.0), _random_filter(rng, 3.0))
        assert np.abs(bd_equivalent(rho) - lam).max() <= 1e-10


def test_classify_pure_entangled_is_bell_diagonal():
    ket = np.array([0.8, 0, 0, 0.6], dtype=complex)
    res = classify(np.outer(ket, ket.conj()))
    assert res.kind == "bell_diagonal"
    assert np.abs(res.weights - [1.0, 0.0, 0.0, 0.0]).max() < 1e-8


def test_bd_equivalent_invariance():
    rng = np.random.default_rng(63)
    lam = np.array([0.65, 0.2, 0.1, 0.05])
    rho = weights_to_density(lam)
    for _ in range(3):
        K = np.kron(_random_filter(rng), _random_filter(rng))
        twisted = K @ rho @ K.conj().T
        twisted /= np.trace(twisted).real
        assert np.abs(bd_equivalent(twisted) - lam).max() < 1e-10


def test_bd_equivalent_nd_target():
    lam = bd_equivalent(rho_nd(0.3))
    assert np.abs(lam - [0.8, 0.2, 0.0, 0.0]).max() < 1e-10
    with pytest.raises(SeparableInputError):
        bd_equivalent(np.eye(4) / 4.0)


def test_can_convert_two_qubit_rules():
    ent = weights_to_density([0.7, 0.1, 0.1, 0.1])
    sep = np.eye(4) / 4.0
    assert can_convert_two_qubit(ent, sep).convertible
    assert not can_convert_two_qubit(sep, ent).convertible
    d = can_convert_two_qubit(ent, weights_to_density([0.6, 0.2, 0.1, 0.1]))
    assert d.convertible
    d = can_convert_two_qubit(rho_nd_prime(0.3), rho_nd(0.3))
    assert d.convertible  # the quasi-distillation pair, reverse direction


def test_validation():
    with pytest.raises(InvalidStateError):
        classify(np.eye(4))  # trace 4
    with pytest.raises(InvalidStateError):
        classify(np.diag([1.5, -0.5, 0.0, 0.0]))


def test_classify_rejects_nan():
    with pytest.raises(InvalidStateError):
        classify(_nan_pair_state())


def test_can_convert_two_qubit_rejects_nan():
    good = weights_to_density([0.6, 0.2, 0.1, 0.1])
    with pytest.raises(InvalidStateError):
        can_convert_two_qubit(_nan_pair_state(), good)
    with pytest.raises(InvalidStateError):
        can_convert_two_qubit(good, _nan_pair_state())


@pytest.mark.parametrize("bad, message", [
    (np.eye(3) / 3.0, "expected a 4x4 Hermitian matrix"),
    ([[0.5, 0.0], [0.5]], "expected a 4x4 Hermitian matrix"),
    (_nan_pair_state(), "non-finite entry"),
    (np.eye(4), "trace 4.0, expected 1"),
    (np.diag([1.5, -0.5, 0.0, 0.0]), "not positive semidefinite")],
    ids=["3x3", "ragged", "nan", "trace", "not-psd"])
def test_pair_rejects_a_bad_source_or_target(bad, message):
    # never numpy's ValueError from stacking a 3x3 or ragged state
    good = weights_to_density([0.6, 0.2, 0.1, 0.1])
    for pair in ((bad, good), (good, bad), (np.eye(4) / 4.0, bad)):
        with pytest.raises(InvalidStateError, match=message):
            can_convert_two_qubit(*pair)


def test_pair_of_bad_states_raises_the_source_error():
    states = {"expected a 4x4 Hermitian matrix": np.eye(3) / 3.0,
              "non-finite entry": _nan_pair_state(),
              "trace 4.0, expected 1": np.eye(4),
              "not positive semidefinite": np.diag([1.5, -0.5, 0.0, 0.0])}
    for message, src in states.items():
        for dst in states.values():
            with pytest.raises(InvalidStateError, match=message):
                can_convert_two_qubit(src, dst)


def test_filter_iteration_rejects_nan():
    with pytest.raises(InvalidStateError):
        filter_iteration(_nan_pair_state())


_unit = st.floats(-1.0, 1.0, allow_nan=False)


@st.composite
def _filters(draw, max_cond=10.0):
    """A complex 2x2 filter with condition number at most `max_cond`."""
    x = draw(st.lists(_unit, min_size=8, max_size=8))
    F = np.eye(2) + np.reshape(np.array(x[:4]) + 1j * np.array(x[4:]), (2, 2))
    s = np.linalg.svd(F, compute_uv=False)
    assume(s[1] > 0 and s[0] / s[1] <= max_cond)
    return F


@st.composite
def _entangled_weights(draw):
    head = draw(st.floats(0.55, 0.999))
    tail = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=3,
                                  max_size=3)))
    assume(tail.sum() > 0)
    lam = np.concatenate(([head], (1 - head) * np.sort(tail)[::-1]
                          / tail.sum()))
    return lam, draw(st.permutations(range(4)))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(_entangled_weights(), _filters(), _filters())
def test_bd_equivalent_filter_invariant_and_matches_oracle(weights, F, G):
    lam, labels = weights
    rho = _twist(weights_to_density(lam[list(labels)]), F, G)
    got = bd_equivalent(rho)
    assert np.abs(got - lam).max() <= 1e-8
    oracle = filter_iteration(rho)
    if oracle.converged:
        back = np.sort(np.linalg.eigvalsh(oracle.state))[::-1]
        assert np.abs(got - back).max() <= 1e-8


def _pair_pool(rng):
    """Filtered Bell-diagonal, entangled and PPT Ginibre, and rho_nd(b)
    images under local unitaries and filters."""
    states = []
    for lam in ([0.7, 0.2, 0.07, 0.03], [0.55, 0.3, 0.1, 0.05],
                [0.9, 0.05, 0.03, 0.02], [0.6, 0.4, 0.0, 0.0]):
        F, G = _random_filter(rng, 5.0), _random_filter(rng, 5.0)
        states.append(_twist(weights_to_density(rng.permutation(lam)), F, G))
    kinds = {"separable": 0, "bell_diagonal": 0}
    while min(kinds.values()) < 4:
        rho = _random_state(rng, rank=int(rng.integers(2, 5)))
        kind = classify(rho).kind
        if kinds[kind] < 4:
            kinds[kind] += 1
            states.append(rho)
    for b in (0.1, 0.3):
        states.append(_twist(rho_nd(b), _random_unitary(rng),
                             _random_unitary(rng)))
        states.append(_twist(rho_nd(b), _random_filter(rng, 3.0),
                             _random_filter(rng, 3.0)))
    return states


def _answer(decision):
    return (decision.convertible, decision.reason, decision.violated_monotone)


def test_pair_decision_matches_classify_of_each_state():
    states = _pair_pool(np.random.default_rng(71))
    results = [classify(rho) for rho in states]
    assert {r.kind for r in results} == {"separable", "bell_diagonal",
                                         "nd_class"}
    for src, rho in zip(results, states):
        for dst, rho_p in zip(results, states):
            want = _separable_endpoint(src.kind != "separable",
                                       dst.kind != "separable") \
                or can_convert_bd(src.weights, dst.weights)
            got = can_convert_two_qubit(rho, rho_p)
            assert _answer(got) == _answer(want)
            # the hand-off skips the validation, not the map: same r bytes
            assert (got.rmatrix is None) == (want.rmatrix is None)
            if want.rmatrix is not None:
                assert got.rmatrix.tobytes() == want.rmatrix.tobytes()


@pytest.mark.parametrize("side", [0, 1])
def test_pair_refuses_a_representative_at_one_half(monkeypatch, side):
    # the representatives reach the decision unvalidated, but not
    # unchecked: lambda_1 = 1/2 raises as can_convert_bd does
    rows = np.array([[0.7, 0.1, 0.1, 0.1]] * 2)
    rows[side] = [0.5, 0.3, 0.2, 0.0]
    monkeypatch.setattr(slocc.normal_form, "_lorentz_normal_forms",
                        lambda stack: (rows, np.zeros(2, dtype=bool)))
    with pytest.raises(NotEntangledError) as want:
        can_convert_bd(*rows)
    rho = weights_to_density([0.7, 0.1, 0.1, 0.1])
    with pytest.raises(NotEntangledError) as got:
        can_convert_two_qubit(rho, rho)
    assert str(got.value) == str(want.value)


def test_stacked_normal_form_rows_match_classify():
    # a row of the stacked pass is the same bits as the state on its own, so
    # a pair and its two classify calls never disagree on a tie
    states = _pair_pool(np.random.default_rng(72))
    stack, ppt = _states(states)
    entangled = stack[~ppt]
    lam, jordan = _lorentz_normal_forms(entangled)
    for k, rho in enumerate(states):
        res = classify(rho)
        assert (res.kind == "separable") == ppt[k]
    for k, rho in enumerate(entangled):
        res = classify(rho)
        assert res.kind == ("nd_class" if jordan[k] else "bell_diagonal")
        assert np.array_equal(res.weights, lam[k])
        assert res.b is None or res.b == float(lam[k, 0] - lam[k, 1]) / 2.0
    for rho in states:
        assert can_convert_two_qubit(rho, rho).convertible


def _margins(lam, lam_p):
    """Signed slack of each monotone of lam -> lam' (>= 0 on a YES)."""
    m, m_p = monotones(lam), monotones(lam_p)
    return (m.e1 - m_p.e1, m.e2[0] * m_p.e2[1] - m_p.e2[0] * m.e2[1],
            m.e3[0] * m_p.e3[1] - m_p.e3[0] * m.e3[1])


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(_entangled_weights(), _entangled_weights(), _filters(), _filters(),
       _filters(), _filters())
def test_pair_decision_filter_invariant(source, target, F, G, F_p, G_p):
    # the pair decision sees only the SLOCC classes of rho and rho'; pairs
    # within rounding of a facet of P_lam are left to the boundary policy
    (lam, labels), (lam_p, labels_p) = source, target
    assume(min(abs(x) for x in _margins(lam, lam_p)) > 1e-8)
    rho = _twist(weights_to_density(lam[list(labels)]), F, G)
    rho_p = _twist(weights_to_density(lam_p[list(labels_p)]), F_p, G_p)
    want = can_convert_bd(lam, lam_p, with_map=False)
    assert _answer(can_convert_two_qubit(rho, rho_p)) == _answer(want)
