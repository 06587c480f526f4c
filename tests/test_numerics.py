import ast
import dataclasses
import inspect
import io
import tokenize
from pathlib import Path

import numpy as np
import pytest

import slocc
from slocc.cli import _random_ordered_entangled
from slocc.numerics import (DegenerateInputError, DimensionMismatchError,
                            Tolerances, convex_membership, is_hermitian,
                            kron, partial_trace, partial_transpose)


def test_is_hermitian():
    assert is_hermitian(np.eye(3))
    assert is_hermitian(np.array([[1, 1j], [-1j, 2]]))
    assert not is_hermitian(np.array([[1, 1j], [1j, 2]]))
    assert not is_hermitian(np.ones((2, 3)))


def test_kron_chains():
    X = np.array([[0, 1], [1, 0]])
    assert np.allclose(kron(X, X, X), np.kron(X, np.kron(X, X)))


def test_partial_transpose_involution():
    rng = np.random.default_rng(3)
    M = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
    for sub in (0, 1, 2):
        twice = partial_transpose(partial_transpose(M, (2, 3, 2), sub),
                                  (2, 3, 2), sub)
        assert np.abs(twice - M).max() == 0
    assert abs(np.trace(partial_transpose(M, (4, 3), 1)) - np.trace(M)) < 1e-12


def test_partial_transpose_full_is_transpose():
    rng = np.random.default_rng(4)
    M = rng.normal(size=(4, 4))
    both = partial_transpose(partial_transpose(M, (2, 2), 0), (2, 2), 1)
    assert np.abs(both - M.T).max() == 0


def test_partial_trace_product_state():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(2, 2))
    a = a @ a.T
    a /= np.trace(a)
    b = rng.normal(size=(3, 3))
    b = b @ b.T
    b /= np.trace(b)
    rho = np.kron(a, b)
    assert np.abs(partial_trace(rho, (2, 3), keep=(0,)) - a).max() < 1e-12
    assert np.abs(partial_trace(rho, (2, 3), keep=(1,)) - b).max() < 1e-12
    assert np.abs(partial_trace(rho, (2, 3), keep=(0, 1)) - rho).max() == 0


def test_partial_trace_dimension_check():
    with pytest.raises(DimensionMismatchError):
        partial_trace(np.eye(5), (2, 2), keep=(0,))
    with pytest.raises(DimensionMismatchError):
        partial_trace(np.eye(4) / 4, (2, 2), keep=(0, 0))


def test_convex_membership_inside_certificate():
    V = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    q = np.array([0.25, 0.25])
    c = convex_membership(V, q)
    assert c is not None
    assert c.min() >= -1e-12 and abs(c.sum() - 1) < 1e-9
    assert np.abs(V.T @ c - q).max() < 1e-9


def test_convex_membership_outside_certificate():
    V = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    assert convex_membership(V, np.array([0.8, 0.8])) is None


def test_convex_membership_boundary_point_is_inside():
    V = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    assert convex_membership(V, np.array([0.5, 0.5])) is not None


def test_convex_membership_rejects_bad_input():
    with pytest.raises(DimensionMismatchError):
        convex_membership(np.eye(2), np.zeros(3))
    with pytest.raises(DegenerateInputError):
        convex_membership(np.array([[np.nan, 0.0]]), np.zeros(2))


def test_convex_membership_hull_with_tiny_coordinates():
    # HiGHS drops matrix entries below 1e-9; the hull must not lose them
    V = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 5e-10]])
    c = convex_membership(V, np.array([0.2, 2e-10]))
    assert c is not None
    assert np.abs(V.T @ c - [0.2, 2e-10]).max() < 1e-12
    assert convex_membership(V, np.array([0.2, 1e-9])) is None


def test_small_float_literals_live_in_numerics():
    # every threshold is a Tolerances field; the one exception is the floor
    # of the selfcheck sampler, which draws lambda_1 from (1/2 + 1e-6, 1).
    # isclose and allclose are refused everywhere: their default rtol is a
    # threshold of its own
    source, first = inspect.getsourcelines(_random_ordered_entangled)
    sampler = range(first, first + len(source))
    found = []
    for path in sorted(Path(slocc.__file__).parent.glob("*.py")):
        readline = io.StringIO(path.read_text()).readline
        for tok in tokenize.generate_tokens(readline):
            if tok.type == tokenize.NAME \
                    and tok.string in ("isclose", "allclose"):
                found.append(f"{path.name}:{tok.start[0]}: {tok.string}")
            if tok.type != tokenize.NUMBER or path.name == "numerics.py":
                continue
            value = ast.literal_eval(tok.string)
            if not isinstance(value, float) or not 0 < abs(value) <= 1e-5:
                continue
            if path.name == "cli.py" and tok.start[0] in sampler:
                continue
            found.append(f"{path.name}:{tok.start[0]}: {tok.string}")
    assert found == []


def test_every_tolerance_is_read():
    # a Tolerances field that no code reads as TOL.<field> is a knob without
    # a use; docstrings and comments do not count as readers
    read = set()
    for path in Path(slocc.__file__).parent.glob("*.py"):
        tokens = [tok.string for tok in tokenize.generate_tokens(
            io.StringIO(path.read_text()).readline)
            if tok.type in (tokenize.NAME, tokenize.OP)]
        read.update(field for name, dot, field
                    in zip(tokens, tokens[1:], tokens[2:])
                    if name == "TOL" and dot == ".")
    assert [f.name for f in dataclasses.fields(Tolerances)
            if f.name not in read] == []


def test_no_unused_imports_in_src():
    # no linter runs on the package, so a removal can leave an import
    # behind; __init__.py imports only to re-export
    found = []
    for path in sorted(Path(slocc.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) \
                    and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    imported[name] = node.lineno
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        found += [f"{path.name}:{line}: {name}"
                  for name, line in imported.items() if name not in used]
    assert found == []
