import json
import os
import subprocess
import sys

import numpy as np
import pytest

import slocc
from slocc.bell import BELL_VECTORS, weights_to_density
from slocc.choi import rho_nd
from slocc.cli import _selfcheck_items, main
from slocc.numerics import TOL
from slocc.separability import (CANONICAL_WITNESSES, D0, G0, _facet_walk,
                                is_separable, min_witness_values,
                                vertex_set)


def _write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def _weights_file(tmp_path, name, lam):
    return _write(tmp_path, name, {"kind": "weights", "lambda": list(lam)})


def _density_file(tmp_path, name, rho):
    rows = [[[float(rho[i, j].real), float(rho[i, j].imag)]
             for j in range(4)] for i in range(4)]
    return _write(tmp_path, name, {"kind": "density", "matrix": rows})


@pytest.fixture
def worked_pair(tmp_path):
    src = _weights_file(tmp_path, "src.json", [0.7, 0.1, 0.1, 0.1])
    dst = _weights_file(tmp_path, "dst.json", [0.6, 0.2, 0.1, 0.1])
    return src, dst


def test_monotones_text(worked_pair, capsys):
    src, _ = worked_pair
    assert main(["monotones", src]) == 0
    out = capsys.readouterr().out
    assert "lambda: 0.7 0.1 0.1 0.1" in out
    assert "E1 = 0.7" in out and "E2 = 4" in out and "E3 = 6" in out


def test_monotones_json(worked_pair, capsys):
    src, _ = worked_pair
    assert main(["--json", "monotones", src]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["E1"] == 0.7
    assert data["E2"]["ratio"] == [pytest.approx(0.8), pytest.approx(0.2)]


def _strict_json(text):
    """json.loads that refuses Infinity and NaN, which JSON does not have."""
    def refuse(name):
        raise ValueError(f"non-JSON constant {name}")
    return json.loads(text, parse_constant=refuse)


def test_monotones_pure_bell_inf(tmp_path, capsys):
    f = _weights_file(tmp_path, "bell.json", [1.0, 0.0, 0.0, 0.0])
    assert main(["monotones", f]) == 0
    out = capsys.readouterr().out
    assert "E2 = inf (ratio 1/0)" in out
    # --json prints an infinite value as null; the ratio pair keeps it
    assert main(["--json", "monotones", f]) == 0
    data = _strict_json(capsys.readouterr().out)
    for name in ("E2", "E3"):
        assert data[name] == {"value": None, "ratio": [1.0, 0.0]}
    src = _weights_file(tmp_path, "src.json", [0.7, 0.1, 0.1, 0.1])
    dst = _weights_file(tmp_path, "dst.json", [0.6, 0.4, 0.0, 0.0])
    assert main(["--json", "convert", src, dst]) == 1
    data = _strict_json(capsys.readouterr().out)
    assert data["violated_monotone"] == "E2"
    assert data["source_value"] == pytest.approx(4.0)
    assert data["target_value"] is None


def test_monotones_not_entangled_exit_3(tmp_path, capsys):
    f = _weights_file(tmp_path, "mm.json", [0.25, 0.25, 0.25, 0.25])
    assert main(["monotones", f]) == 3


def test_convert_yes_with_replay(worked_pair, capsys):
    src, dst = worked_pair
    assert main(["convert", src, dst]) == 0
    out = capsys.readouterr().out
    assert out.startswith("YES")
    rline = next(l for l in out.splitlines() if l.startswith("rmatrix:"))
    r = np.array(json.loads(rline.split(":", 1)[1]))
    image = r @ np.array([0.7, 0.1, 0.1, 0.1])
    image /= image.sum()
    assert np.abs(image - [0.6, 0.2, 0.1, 0.1]).max() < 1e-10


def test_convert_certificate_goes_back_into_the_cli(worked_pair, tmp_path,
                                                    capsys):
    # the printed r-matrix is a unit-sum dual state, so apply-map and
    # separable read it as it stands
    src, dst = worked_pair
    assert main(["--json", "convert", src, dst]) == 0
    r = json.loads(capsys.readouterr().out)["rmatrix"]
    rf = _write(tmp_path, "r.json", {"kind": "rmatrix", "r": r})
    assert main(["apply-map", rf, src]) == 0
    out = capsys.readouterr().out.splitlines()
    assert "weights: 0.6 0.2 0.1 0.1" in out and "success weight: 1" in out
    assert main(["separable", rf]) == 0
    assert capsys.readouterr().out.startswith("SEPARABLE")


def test_convert_no_cites_e1(worked_pair, capsys):
    src, dst = worked_pair
    assert main(["convert", dst, src]) == 1
    out = capsys.readouterr().out
    assert "NO" in out and "E1 violated: 0.6 < 0.7" in out


def test_convert_to_separable_target(worked_pair, tmp_path, capsys):
    src, _ = worked_pair
    mm = _weights_file(tmp_path, "mm.json", [0.25, 0.25, 0.25, 0.25])
    assert main(["convert", src, mm]) == 0
    assert "target separable" in capsys.readouterr().out


def test_convert_from_separable_source(worked_pair, tmp_path, capsys):
    _, dst = worked_pair
    mm = _weights_file(tmp_path, "mm.json", [0.25, 0.25, 0.25, 0.25])
    assert main(["convert", mm, dst]) == 1
    assert capsys.readouterr().out == \
        "NO\nrule: separable source, entangled target\n"
    assert main(["--json", "convert", mm, dst]) == 1
    assert json.loads(capsys.readouterr().out) == {
        "convertible": False, "reason": "separable source, entangled target"}


def test_density_off_bell_diagonal_exit_2(worked_pair, tmp_path, capsys):
    # one 1e-3 off-diagonal element in the Bell basis: not Bell-diagonal
    in_bell = np.diag([0.7, 0.1, 0.1, 0.1]).astype(complex)
    in_bell[0, 1] = in_bell[1, 0] = 1e-3
    U = BELL_VECTORS.T
    f = _density_file(tmp_path, "off.json", U @ in_bell @ U.conj().T)
    src, _ = worked_pair
    for argv in (["monotones", f], ["convert", src, f], ["convert", f, src]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            f"error: {f}: off-diagonal Bell element 1.000e-03")


# trace 1 with Hermiticity defect 0.2
_NON_HERMITIAN = [[[0.4, 0.1], [0, 0], [0, 0], [0.3, 0.1]],
                  [[0, 0], [0.1, -0.1], [0, 0.1], [0, 0]],
                  [[0, 0], [0, 0.1], [0.1, -0.1], [0, 0]],
                  [[0.3, 0.1], [0, 0], [0, 0], [0.4, 0.1]]]


@pytest.mark.parametrize("matrix, message", [
    (_NON_HERMITIAN, "expected a 4x4 Hermitian matrix"),
    (2.0 * np.diag([0.7, 0.1, 0.1, 0.1]), "trace 2.0, expected 1"),
    (np.diag([1.2, -0.2, 0.0, 0.0]), "state is not positive semidefinite"),
], ids=["non-hermitian", "trace-2", "non-psd"])
def test_invalid_density_exit_2(worked_pair, tmp_path, capsys, matrix,
                                message):
    # every subcommand that reads a density validates it as a state first
    if isinstance(matrix, np.ndarray):
        f = _density_file(tmp_path, "bad.json", matrix)
    else:
        f = _write(tmp_path, "bad.json", {"kind": "density", "matrix": matrix})
    src, _ = worked_pair
    g0 = _write(tmp_path, "g0.json", {"kind": "rmatrix", "r": G0.tolist()})
    for argv in (["monotones", f], ["convert", src, f], ["convert", f, src],
                 ["apply-map", g0, f], ["normal-form", f]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {f}: {message}")


def test_separable_d0(tmp_path, capsys):
    f = _write(tmp_path, "d0.json",
               {"kind": "rmatrix", "r": np.diag([0.25] * 4).tolist()})
    assert main(["separable", f]) == 0
    assert "SEPARABLE" in capsys.readouterr().out
    # vertex indices follow vertex_set(): D0's orbit first, G0's from 24
    for name, seed, index in (("d0", D0, "0"), ("g0", G0, "24")):
        f = _write(tmp_path, f"{name}.json",
                   {"kind": "rmatrix", "r": seed.tolist()})
        assert main(["--json", "separable", f]) == 0
        assert json.loads(capsys.readouterr().out)["weights"] == {index: 1.0}


def test_separable_bell_pair(tmp_path, capsys):
    r = np.zeros((4, 4))
    r[3, 0] = 1.0
    f = _write(tmp_path, "r41.json", {"kind": "rmatrix", "r": r.tolist()})
    assert main(["separable", f]) == 1
    out = capsys.readouterr().out
    assert "ENTANGLED" in out and "W1" in out and "value: -1" in out


def test_separable_bell_pair_json(tmp_path, capsys):
    r = np.zeros((4, 4))
    r[3, 0] = 1.0
    f = _write(tmp_path, "r41.json", {"kind": "rmatrix", "r": r.tolist()})
    assert main(["--json", "separable", f]) == 1
    data = json.loads(capsys.readouterr().out)
    assert data["family"] == "W1" and data["transposed"] is False
    assert main(["separable", f]) == 1
    assert "transposed" not in capsys.readouterr().out


def test_separable_transposed_witness(tmp_path, capsys):
    # 0.999 * (centroid of the W2^T facet) + 0.001 * (the entry where W2^T
    # is -1): only a transposed W2 witness is negative here
    Wt = CANONICAL_WITNESSES["W2"].T
    verts = np.stack(vertex_set())
    r = 0.999 * verts[np.tensordot(verts, Wt, axes=2) == 0].mean(axis=0)
    r[np.unravel_index(np.argmin(Wt), Wt.shape)] += 0.001
    f = _write(tmp_path, "w2t.json", {"kind": "rmatrix", "r": r.tolist()})
    assert main(["separable", f]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[:3] == ["ENTANGLED", "witness family: W2", "transposed: true"]
    assert main(["--json", "separable", f]) == 1
    data = json.loads(capsys.readouterr().out)
    assert data["family"] == "W2" and data["transposed"] is True
    assert data["value"] < 0


def test_separable_deviation_is_that_of_the_printed_weights(tmp_path,
                                                            capsys):
    # the facet walk leaves weights of rounding dust on this mixture of five
    # vertices; the certificate carries none, and the deviation printed must
    # be the one of the weights printed
    r = np.array([[0.0, 0.04, 0.1, 0.0], [0.06, 0.02, 0.09, 0.19],
                  [0.08, 0.08, 0.05, 0.15000000000000002],
                  [0.12, 0.0, 0.0, 0.02]])
    raw = _facet_walk(r, min_witness_values(r))
    assert 0 < raw[raw > 0].min() <= TOL.negligible
    assert np.frombuffer(is_separable(r).coefficients).min() > TOL.negligible
    f = _write(tmp_path, "dust.json", {"kind": "rmatrix", "r": r.tolist()})
    assert main(["--json", "separable", f]) == 0
    data = json.loads(capsys.readouterr().out)
    verts = np.stack(vertex_set()).reshape(-1, 16)
    printed = sorted((int(i), w) for i, w in data["weights"].items())
    recon = sum(w * verts[i] for i, w in printed)
    dev = np.abs(recon - r.ravel()).max()
    assert data["deviation"] == dev
    assert main(["separable", f]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1] == f"decomposition deviation: {dev:.12g}"
    assert len(lines) == 2 + len(printed)


def _run_without_scipy(code):
    """Run `code` in a fresh interpreter, then check it left scipy unloaded."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(
        os.path.dirname(slocc.__file__)))
    subprocess.run([sys.executable, "-c",
                    code + "assert 'scipy' not in sys.modules\n"],
                   env=env, check=True, capture_output=True)


def test_no_scipy_without_an_lp(worked_pair):
    # monotones and convert, NO or YES with its map, solve no LP, so they
    # never load scipy
    src, dst = worked_pair
    _run_without_scipy("import sys\n"
                       "import slocc\n"
                       "assert 'scipy' not in sys.modules\n"
                       "from slocc.cli import main\n"
                       f"assert main(['monotones', {src!r}]) == 0\n"
                       f"assert main(['convert', {dst!r}, {src!r}]) == 1\n"
                       f"assert main(['convert', {src!r}, {dst!r}]) == 0\n")


def test_no_scipy_for_an_entangled_rmatrix(tmp_path):
    # a violated witness certifies a NO by itself, so no LP is solved
    r41 = np.zeros((4, 4))
    r41[3, 0] = 1.0
    f = _write(tmp_path, "r41.json", {"kind": "rmatrix", "r": r41.tolist()})
    _run_without_scipy("import sys\n"
                       "from slocc.cli import main\n"
                       "from slocc.separability import D0, ViolatedWitness, "
                       "is_separable\n"
                       f"assert main(['separable', {f!r}]) == 1\n"
                       "r = 0.3 * D0\n"
                       "r[3, 0] += 0.7\n"
                       "assert isinstance(is_separable(r), ViolatedWitness)\n")


def test_no_scipy_for_a_separable_rmatrix(tmp_path):
    # the facet walk decomposes a separable r-matrix without an LP, so no
    # answer of `separable` loads scipy
    f = _write(tmp_path, "d0.json", {"kind": "rmatrix", "r": D0.tolist()})
    _run_without_scipy("import sys\n"
                       "from slocc.cli import main\n"
                       "from slocc.separability import (ConvexDecomposition, "
                       "D0, G0, is_separable)\n"
                       f"assert main(['separable', {f!r}]) == 0\n"
                       "r = 0.3 * D0 + 0.5 * G0 + 0.2 * G0[::-1].T\n"
                       "assert isinstance(is_separable(r), "
                       "ConvexDecomposition)\n")


@pytest.mark.parametrize("fn", [pytest.param(fn, id=name.replace(" ", "-"))
                                for name, fn in _selfcheck_items(0)])
def test_selfcheck_item(fn):
    ok, detail = fn()
    assert ok, detail


def test_selfcheck_reports_a_raising_item(monkeypatch, capsys):
    def broken():
        raise ValueError("broken item")

    items = dict(_selfcheck_items(0))
    monkeypatch.setattr(slocc.cli, "_selfcheck_items", lambda seed: [
        ("W2 extension certificate", items["W2 extension certificate"]),
        ("quasi-reverse map", broken)])
    assert main(["selfcheck"]) == 2
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("[PASS] W2 extension certificate: ")
    assert lines[1].startswith(
        "[FAIL] quasi-reverse map: raised ValueError: broken item (")


def test_normal_form_nd(tmp_path, capsys):
    f = _density_file(tmp_path, "nd.json", rho_nd(0.3))
    assert main(["normal-form", f]) == 0
    assert "NDClass b=0.300" in capsys.readouterr().out


@pytest.mark.parametrize("rho, lines, data", [
    (weights_to_density([0.7, 0.1, 0.1, 0.1]),
     ["class: BellDiagonal", "lambda: 0.7 0.1 0.1 0.1"],
     {"class": "BellDiagonal",
      "lambda": pytest.approx([0.7, 0.1, 0.1, 0.1], abs=1e-12)}),
    (np.eye(4) / 4, ["class: Separable"], {"class": "Separable"}),
], ids=["bell-diagonal", "separable"])
def test_normal_form_classes(tmp_path, capsys, rho, lines, data):
    f = _density_file(tmp_path, "rho.json", rho)
    assert main(["normal-form", f]) == 0
    assert capsys.readouterr().out.splitlines() == lines
    assert main(["--json", "normal-form", f]) == 0
    assert json.loads(capsys.readouterr().out) == data


def test_apply_map_g0(tmp_path, capsys):
    g0 = np.zeros((4, 4))
    g0[:2, :2] = 0.25
    rf = _write(tmp_path, "g0.json", {"kind": "rmatrix", "r": g0.tolist()})
    sf = _weights_file(tmp_path, "w.json", [0.7, 0.1, 0.1, 0.1])
    assert main(["apply-map", rf, sf]) == 0
    out = capsys.readouterr().out
    assert "weights: 0.5 0.5 0 0" in out
    assert "success weight: 0.8" in out


def test_parse_errors_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["monotones", str(bad)]) == 2
    assert main(["monotones", str(tmp_path / "missing.json")]) == 2
    nan = _write(tmp_path, "nan.json",
                 {"kind": "weights", "lambda": [0.5, 0.5, None, 0.0]})
    assert main(["monotones", nan]) == 2
    wrongkind = _write(tmp_path, "wk.json", {"kind": "mystery"})
    assert main(["monotones", wrongkind]) == 2


@pytest.mark.parametrize("argv, bad, message", [
    (["separable", "w"], "w", "'separable' expects kind 'rmatrix'"),
    (["normal-form", "w"], "w", "'normal-form' expects kind 'density'"),
    (["apply-map", "w", "w"], "w", "'apply-map' expects kind 'rmatrix'"),
    (["monotones", "r"], "r", "kind 'rmatrix' not usable as Bell weights"),
    (["convert", "r", "w"], "r", "kind 'rmatrix' not usable as Bell weights"),
    (["convert", "w", "r"], "r", "kind 'rmatrix' not usable as Bell weights"),
    (["monotones", "a"], "a", "expected an object with a 'kind' field"),
], ids=["separable-weights", "normal-form-weights", "apply-map-weights",
        "monotones-rmatrix", "convert-from-rmatrix", "convert-to-rmatrix",
        "json-array"])
def test_wrong_kind_exit_2(tmp_path, capsys, argv, bad, message):
    files = {"w": _weights_file(tmp_path, "w.json", [0.7, 0.1, 0.1, 0.1]),
             "r": _write(tmp_path, "r.json",
                         {"kind": "rmatrix", "r": D0.tolist()}),
             "a": _write(tmp_path, "a.json", [0.7, 0.1, 0.1, 0.1])}
    assert main([files.get(a, a) for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {files[bad]}: {message}\n"


_DENSITY = [[[0.25, 0.0] if i == j else [0.0, 0.0] for j in range(4)]
            for i in range(4)]


@pytest.mark.parametrize("text, field", [
    ('{"kind": "weights", "lambda": [0.7, 0.3, 0.0]}', "lambda"),
    ('{"kind": "rmatrix", "r": [[0.25, 0.25], [0.25, 0.25]]}', "r"),
    (json.dumps({"kind": "density", "matrix": _DENSITY[:3]}), "matrix"),
    (json.dumps({"kind": "density", "matrix": [[[0.25, 0.0, 0.0]]
                                               + _DENSITY[0][1:]]
                 + _DENSITY[1:]}), "matrix[0][0]"),
    ('{"kind": "weights", "lambda": [true, 0, 0, 0]}', "lambda[0]"),
    ('{"kind": "weights", "lambda": [1e400, 0, 0, 0]}', "lambda[0]"),
    ('{"kind": "rmatrix", "r": [[1e400, 0, 0, 0], [0, 0, 0, 0], '
     '[0, 0, 0, 0], [0, 0, 0, 0]]}', "r[0][0]"),
    # an integer too large for a float, and one too long to parse
    ('{"kind": "weights", "lambda": [1' + "0" * 400 + ', 0, 0, 0]}',
     "lambda[0]"),
    ('{"kind": "weights", "lambda": [1' + "0" * 5000 + ', 0, 0, 0]}',
     "invalid JSON"),
], ids=["short-lambda", "2x2-r", "3-row-matrix", "3-entry-cell", "true",
        "inf-weight", "inf-r-entry", "int-past-float", "int-past-digit-limit"])
def test_malformed_input_exit_2(tmp_path, capsys, text, field):
    f = tmp_path / "bad.json"
    f.write_text(text)
    for argv in (["monotones", str(f)], ["--json", "monotones", str(f)],
                 ["separable", str(f)], ["normal-form", str(f)]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {f}: {field}")


def test_undecodable_file_exit_2(tmp_path, capsys):
    f = tmp_path / "latin1.json"
    f.write_bytes(b'{"kind": "weights", "lambda": [1, 0, 0, 0], "x": "\xff"}')
    assert main(["monotones", str(f)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {f}: invalid JSON")


@pytest.mark.parametrize("lam, message", [
    ([0.8, 0.3, -0.1, 0.0], "negative weight"),
    ([0.8, 0.3, 0.1, 0.0], "weights sum to"),
])
def test_invalid_weights_exit_2(tmp_path, capsys, lam, message):
    f = _weights_file(tmp_path, "w.json", lam)
    assert main(["monotones", f]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {f}: {message}")


def test_output_deterministic(worked_pair, capsys):
    src, dst = worked_pair
    main(["convert", src, dst])
    first = capsys.readouterr().out
    main(["convert", src, dst])
    assert capsys.readouterr().out == first
