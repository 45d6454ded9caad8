import csv
import io
import json

import numpy as np
import pytest

from esum_lab import cli
from esum_lab.verify import emit_tables, report_csv, report_json


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture
def spec_path(tmp_path):
    return write(tmp_path, "spec.json", {"kind": "lp", "p": 2.0, "index_size": 3})


def run_cli(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip().startswith("{") else out


def test_norm_command(tmp_path, capsys, spec_path):
    vec = write(tmp_path, "v.json", [3.0, [0.0, 4.0], 0.0])
    code, out = run_cli(capsys, ["norm", "--spec", spec_path, "--vector", vec])
    assert code == 0
    assert abs(out["norm"] - 5.0) <= 1e-12


def _error_line(capsys):
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    return json.loads(lines[0])["error"]


def test_unreadable_input_is_one_line_error(tmp_path, capsys, spec_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli.main(["norm", "--spec", str(bad), "--vector", spec_path]) == 2
    assert _error_line(capsys).startswith("JSONDecodeError")
    missing = str(tmp_path / "missing.json")
    assert cli.main(["ce", "--spec", missing]) == 2
    assert "missing.json" in _error_line(capsys)


def test_invalid_spec_is_one_line_error(tmp_path, capsys):
    spec = write(tmp_path, "spec.json",
                 {"kind": "orlicz", "phi": {"family": "shifted_ramp", "a": 1.5},
                  "index_size": 3})
    assert cli.main(["ce", "--spec", spec]) == 2
    assert _error_line(capsys) == "LatticeSpecError: ramp offset must lie in (0,1), got 1.5"
    vec = write(tmp_path, "v.json", [1.0, 2.0])
    lp = write(tmp_path, "lp.json", {"kind": "lp", "p": 2.0, "index_size": 3})
    assert cli.main(["norm", "--spec", lp, "--vector", vec]) == 2
    assert "does not match index_size" in _error_line(capsys)


def test_ce_command(tmp_path, capsys):
    spec = write(tmp_path, "spec.json",
                 {"kind": "orlicz", "phi": {"family": "shifted_ramp", "a": 0.25},
                  "index_size": 8})
    code, out = run_cli(capsys, ["ce", "--spec", spec])
    assert code == 0
    assert out["bounded"] and out["limit"] == 4.0


def test_am_command(tmp_path, capsys, spec_path):
    code, out = run_cli(capsys, ["am", "--n", "3", "--spec", spec_path, "--seed", "1"])
    assert code == 0
    assert abs(out["lower"] - 3.0) <= 1e-6 and abs(out["upper"] - 3.0) <= 1e-6
    assert not out["loose"]
    assert "witness_lower" not in out
    code, out = run_cli(capsys, ["am", "--n", "3", "--spec", spec_path, "--witnesses"])
    assert "witness_lower" in out and "witness_upper" in out


def test_esum_commands(tmp_path, capsys):
    algebra = write(tmp_path, "alg.json", {
        "summands": [
            {"structure": [[[1.0]]], "norm": "max_abs"},
            {"structure": [[[1.0]]], "norm": "max_abs"},
        ],
        "lattice": {"kind": "weighted_sup", "weights": [1.0, 2.0], "index_size": 2},
    })
    x = write(tmp_path, "x.json", {"values": [[1.0], [1.0]]})
    y = write(tmp_path, "y.json", {"values": [[2.0], [0.0]]})
    code, out = run_cli(capsys, ["esum-norm", "--algebra", algebra, "--element", x])
    assert code == 0 and out["norm"] == 2.0
    code, out = run_cli(capsys, ["esum-mul", "--algebra", algebra, "--x", x, "--y", y])
    assert code == 0 and out["values"][0][0] == [2.0, 0.0] and out["values"][1][0] == [0.0, 0.0]
    code, out = run_cli(capsys, ["bai-check", "--algebra", algebra])
    assert code == 0 and out["ok"] and out["unit_norm"] == 2.0


def test_jsum_commands(tmp_path, capsys):
    system = write(tmp_path, "sys.json", {
        "dims": [0, 1, 1],
        "bonds": [[], [[1.0]]],
        "algebra": [[], [[[1.0]]], [[[1.0]]]],
    })
    element = write(tmp_path, "x.json", {"coords": [[], [1.0], [1.0]]})
    code, out = run_cli(capsys, ["jnorm", "--system", system, "--element", element])
    assert code == 0 and abs(out["jnorm"] - 1.0) <= 1e-12
    code, out = run_cli(capsys, ["jcheck", "--system", system, "--samples", "50"])
    assert code == 0 and out["bimonotone"]["ok"] and out["omega_submultiplicative"]["ok"]


def test_wa_commands(tmp_path, capsys):
    m2 = {
        "structure": np.zeros((4, 4, 4)).tolist(),
        "norm": {"kind": "matrix_operator", "side": 2},
    }
    cube = np.zeros((4, 4, 4))
    for i in range(2):
        for j in range(2):
            for k in range(2):
                for l in range(2):
                    if j == k:
                        cube[i * 2 + j, k * 2 + l, i * 2 + l] = 1.0
    m2["structure"] = cube.tolist()
    algebra = write(tmp_path, "m2.json", m2)
    code, out = run_cli(capsys, ["wa", "--algebra", algebra])
    assert code == 0
    assert out["weakly_amenable"] and out["dim_derivations"] == 3
    code, out = run_cli(capsys, ["wam", "--algebra", algebra, "--samples", "20"])
    assert code == 0 and 0 < out["lower"] <= out["upper"]
    code, out = run_cli(capsys, ["lp-demo", "--base", algebra, "--p", "2", "--sizes", "2,4"])
    assert code == 0 and out["ok"]


def _tiny_report():
    return {
        "seed": 1,
        "budget": 1.0,
        "passed": True,
        "cases": [
            {"case_id": "a", "anchor": "x", "expected": "1", "got": "1",
             "tol": 0.0, "status": "pass"},
            {"case_id": "b", "anchor": "y", "expected": "2", "got": "2",
             "tol": 1e-6, "status": "loose"},
        ],
    }


def test_report_roundtrip(tmp_path):
    report = _tiny_report()
    paths = emit_tables(report, str(tmp_path), formats=("csv", "json"))
    assert len(paths) == 2
    mirrored = json.loads((tmp_path / "verify_report.json").read_text())
    rows = list(csv.DictReader(io.StringIO((tmp_path / "verify_report.csv").read_text())))
    assert len(rows) == len(mirrored["cases"])
    for row, case in zip(rows, mirrored["cases"]):
        assert row["case_id"] == case["case_id"]
        assert row["status"] == case["status"]
        assert row["expected"] == case["expected"]
        assert row["got"] == case["got"]


def test_report_empty_is_header_only():
    empty = {"seed": 0, "budget": 1.0, "passed": True, "cases": []}
    assert report_csv(empty) == "case_id,anchor,expected,got,tol,status\n"


def test_report_json_stable():
    report = _tiny_report()
    assert report_json(report) == report_json(json.loads(json.dumps(report)))


def test_verify_command_on_case_subset(tmp_path, capsys, monkeypatch):
    from esum_lab import verify as vf

    keep = [c for c in vf.CASES if c["id"] in ("lattice-indicator-lp", "esum-norm-values")]
    monkeypatch.setattr(vf, "CASES", keep)
    out_dir = str(tmp_path / "report")
    code = cli.main(["verify", "--seed", "3", "--out", out_dir, "--format", "both"])
    out = capsys.readouterr().out
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert {r["case_id"] for r in rows} == {"lattice-indicator-lp", "esum-norm-values"}
    assert all(r["status"] == "pass" for r in rows)
    first = (tmp_path / "report" / "verify_report.json").read_bytes()
    cli.main(["verify", "--seed", "3", "--out", out_dir, "--format", "both"])
    capsys.readouterr()
    assert (tmp_path / "report" / "verify_report.json").read_bytes() == first


def test_verify_exit_code_and_fault_isolation(tmp_path, capsys, monkeypatch):
    from esum_lab import verify as vf

    def explode(ctx):
        raise OSError("corrupted input document")

    broken = {
        "id": "always-fails",
        "anchor": "synthetic",
        "tol": 0.0,
        "runner": lambda ctx: {"expected": "1", "got": "2", "ok": False,
                               "loose": False, "note": ""},
    }
    crashing = {"id": "crashes", "anchor": "synthetic", "tol": 0.0, "runner": explode}
    healthy = next(c for c in vf.CASES if c["id"] == "esum-norm-values")
    monkeypatch.setattr(vf, "CASES", [broken, crashing, healthy])
    code = cli.main(["verify", "--seed", "0"])
    out = capsys.readouterr().out
    rows = {r["case_id"]: r for r in csv.DictReader(io.StringIO(out))}
    assert code == 1
    assert rows["always-fails"]["status"] == "fail"
    assert rows["crashes"]["status"] == "error"
    assert "corrupted input document" in rows["crashes"]["got"]
    assert rows["esum-norm-values"]["status"] == "pass"


def test_verify_budget_zero_goes_loose_not_failed(capsys, monkeypatch):
    from esum_lab import verify as vf

    sharp = next(c for c in vf.CASES if c["id"] == "am-sharp-euclidean")
    monkeypatch.setattr(vf, "CASES", [sharp])
    code = cli.main(["verify", "--seed", "0", "--budget", "0"])
    out = capsys.readouterr().out
    rows = list(csv.DictReader(io.StringIO(out)))
    assert code == 0
    assert rows[0]["status"] == "loose"
