import json
import os
import subprocess
import sys

import numpy as np
import pytest

import slocc
from slocc.choi import rho_nd
from slocc.cli import _selfcheck_items, main
from slocc.separability import CANONICAL_WITNESSES, vertex_set


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


def test_monotones_pure_bell_inf(tmp_path, capsys):
    f = _weights_file(tmp_path, "bell.json", [1.0, 0.0, 0.0, 0.0])
    assert main(["monotones", f]) == 0
    out = capsys.readouterr().out
    assert "E2 = inf (ratio 1/0)" in out


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


def test_separable_d0(tmp_path, capsys):
    f = _write(tmp_path, "d0.json",
               {"kind": "rmatrix", "r": np.diag([0.25] * 4).tolist()})
    assert main(["separable", f]) == 0
    assert "SEPARABLE" in capsys.readouterr().out


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


def test_no_scipy_without_an_lp(worked_pair):
    # monotones and a NO from convert need no LP, so they never load scipy
    src, dst = worked_pair
    code = ("import sys\n"
            "import slocc\n"
            "assert 'scipy' not in sys.modules\n"
            "from slocc.cli import main\n"
            f"assert main(['monotones', {src!r}]) == 0\n"
            f"assert main(['convert', {dst!r}, {src!r}]) == 1\n"
            "assert 'scipy' not in sys.modules\n")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(
        os.path.dirname(slocc.__file__)))
    subprocess.run([sys.executable, "-c", code], env=env, check=True,
                   capture_output=True)


def test_no_scipy_for_an_entangled_rmatrix(tmp_path):
    # a violated witness certifies a NO by itself, so no LP is solved
    r41 = np.zeros((4, 4))
    r41[3, 0] = 1.0
    f = _write(tmp_path, "r41.json", {"kind": "rmatrix", "r": r41.tolist()})
    code = ("import sys\n"
            "from slocc.cli import main\n"
            "from slocc.separability import D0, ViolatedWitness, "
            "is_separable\n"
            f"assert main(['separable', {f!r}]) == 1\n"
            "r = 0.3 * D0\n"
            "r[3, 0] += 0.7\n"
            "assert isinstance(is_separable(r), ViolatedWitness)\n"
            "assert 'scipy' not in sys.modules\n")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(
        os.path.dirname(slocc.__file__)))
    subprocess.run([sys.executable, "-c", code], env=env, check=True,
                   capture_output=True)


def test_selfcheck_witness_scan_vs_lp():
    ok, detail = dict(_selfcheck_items(0))["witness scan vs LP oracle"]()
    assert ok, detail


def test_normal_form_nd(tmp_path, capsys):
    f = _density_file(tmp_path, "nd.json", rho_nd(0.3))
    assert main(["normal-form", f]) == 0
    assert "NDClass b=0.300" in capsys.readouterr().out


def test_apply_map_g0(tmp_path, capsys):
    g0 = np.zeros((4, 4))
    g0[:2, :2] = 0.25
    rf = _write(tmp_path, "g0.json", {"kind": "rmatrix", "r": g0.tolist()})
    sf = _weights_file(tmp_path, "w.json", [0.7, 0.1, 0.1, 0.1])
    assert main(["apply-map", rf, sf]) == 0
    out = capsys.readouterr().out
    assert "weights: 0.5 0.5 0 0" in out
    assert "success weight: 0.4" in out


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


def test_output_deterministic(worked_pair, capsys):
    src, dst = worked_pair
    main(["convert", src, dst])
    first = capsys.readouterr().out
    main(["convert", src, dst])
    assert capsys.readouterr().out == first
