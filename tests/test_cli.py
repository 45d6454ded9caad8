import argparse
import contextlib
import csv
import io
import json
import tempfile
import warnings
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from referencing import Registry, Resource

from esum_lab import cli
from esum_lab import esum as es
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


@pytest.mark.parametrize("doc, message", [
    ({"kind": "lp", "index_size": 3}, "LatticeSpecError: lp spec is missing the key 'p'"),
    ({"kind": "sup"}, "LatticeSpecError: sup spec is missing the key 'index_size'"),
    ({"index_size": 3}, "LatticeSpecError: norm spec is missing the key 'kind'"),
    ({"kind": "weighted_sup"},
     "LatticeSpecError: weighted_sup spec is missing the key 'weights'"),
    ({"kind": "orlicz", "phi": {"family": "shifted_ramp"}, "index_size": 3},
     "LatticeSpecError: shifted_ramp function is missing the key 'a'"),
    ([2.0, 3], "LatticeSpecError: norm spec must be a JSON object, got list"),
])
def test_spec_missing_key_is_one_line_error(tmp_path, capsys, doc, message):
    assert cli.main(["ce", "--spec", write(tmp_path, "spec.json", doc)]) == 2
    assert _error_line(capsys) == message


@pytest.mark.parametrize("doc, message", [
    ({"structure": [[[1.0]]]}, "AlgebraError: algebra is missing the key 'norm'"),
    ({"norm": "max_abs"}, "AlgebraError: algebra is missing the key 'structure'"),
    ({"structure": [[[1.0]]], "norm": {"kind": "matrix_operator"}},
     "AlgebraError: matrix_operator norm is missing the key 'side'"),
    ({"summands": [{"structure": [[[1.0]]], "norm": "max_abs"}]},
     "AlgebraError: summed algebra is missing the key 'lattice'"),
    ({"summands": [{"structure": [[[1.0]]], "norm": "max_abs"}],
      "lattice": {"kind": "lp", "p": 2.0}},
     "LatticeSpecError: lp spec is missing the key 'index_size'"),
])
def test_algebra_missing_key_is_one_line_error(tmp_path, capsys, doc, message):
    assert cli.main(["wa", "--algebra", write(tmp_path, "alg.json", doc)]) == 2
    assert _error_line(capsys) == message


M2_CUBE = es.matrix_units_algebra(2).structure.real.tolist()
CHAIN = {"dims": [0, 1], "bonds": [[[]]]}
SCALARS = {"summands": [{"structure": [[[1.0]]], "norm": "max_abs"}],
           "lattice": {"kind": "sup", "index_size": 1}}
LP2 = {"kind": "lp", "p": 2.0, "index_size": 2}
HUGE_INT = 10 ** 400   # a JSON integer that no float holds


@pytest.mark.parametrize("side", [3, 0, -2])
def test_matrix_operator_side_must_fit_the_dim(tmp_path, capsys, side):
    doc = {"structure": M2_CUBE, "norm": {"kind": "matrix_operator", "side": side}}
    assert cli.main(["wa", "--algebra", write(tmp_path, "alg.json", doc)]) == 2
    assert _error_line(capsys) == ("AlgebraError: matrix_operator norm key 'side' must be at "
                                   f"least 1 with side^2 = dim, got side {side} for dim 4")


@pytest.mark.parametrize("command, docs, message", [
    ("jnorm", {"system": {"dims": [0, 1]}, "element": {"coords": [[], [1.0]]}},
     "JSystemError: chain system is missing the key 'bonds'"),
    ("jcheck", {"system": {"dims": [0, 1]}},
     "JSystemError: chain system is missing the key 'bonds'"),
    ("jnorm", {"system": CHAIN, "element": {"coord": [[], [1.0]]}},
     "JSystemError: chain element is missing the key 'coords'"),
    ("esum-norm", {"algebra": SCALARS, "element": {"vals": [[1.0]]}},
     "AlgebraError: element is missing the key 'values'"),
    ("norm", {"spec": LP2, "vector": [[1.0], [2.0, 0]]},
     "ValueError: coefficient 0 must be a number or an [re, im] pair, got [1.0]"),
    ("norm", {"spec": LP2, "vector": [1.0, None]},
     "ValueError: coefficient 1 must be a number or an [re, im] pair, got null"),
    ("wam", {"algebra": {"summands": [{"structure": M2_CUBE, "norm": {"kind": "matrix_operator",
                                                                      "side": 2}}] * 2,
                         "lattice": {"kind": "orlicz", "index_size": 2,
                                     "phi": {"family": "shifted_ramp", "a": 0.5}}}},
     "NotImplementedError: dual norm for Orlicz lattices is not implemented"),
    ("jnorm", {"system": CHAIN, "element": {"coords": 5}},
     "JSystemError: chain element key 'coords' must be a JSON array, got int"),
    ("jnorm", {"system": {"dims": 3, "bonds": []}, "element": {"coords": [[], [1.0]]}},
     "JSystemError: chain system key 'dims' must be a JSON array, got int"),
    ("esum-norm", {"algebra": SCALARS, "element": {"values": 5}},
     "AlgebraError: element key 'values' must be a JSON array, got int"),
    ("ce", {"spec": {"kind": "weighted_sup", "weights": 5}},
     "LatticeSpecError: weighted_sup spec key 'weights' must be a JSON array, got int"),
    ("ce", {"spec": {"kind": "orlicz", "phi": {"family": "shifted_ramp", "a": 0.5},
                     "index_size": [5]}},
     "LatticeSpecError: orlicz spec key 'index_size' must be an integer, got [5]"),
    ("ce", {"spec": {"kind": "weighted_sup", "weights": [1, {}]}},
     "LatticeSpecError: weighted_sup spec key 'weights' must hold only numbers, got {}"),
    ("ce", {"spec": {"kind": "orlicz", "phi": {"family": "table", "points": [5]},
                     "index_size": 3}},
     "LatticeSpecError: table function key 'points' must hold [t, y] pairs"),
    ("ce", {"spec": {"kind": "lp", "p": {}, "index_size": 3}},
     "LatticeSpecError: lp spec key 'p' must be a number, got {}"),
    ("jnorm", {"system": {"dims": [0, 1], "bonds": [[{}]]}, "element": {"coords": [[], [1.0]]}},
     "JSystemError: chain system bond 0 must hold only numbers, got {}"),
    ("jnorm", {"system": {"dims": [0, 1], "bonds": [[[]]], "algebra": [[], [[[{}]]]]},
               "element": {"coords": [[], [1.0]]}},
     "JSystemError: chain system algebra level 1 must hold only numbers, got {}"),
    ("esum-norm", {"algebra": {"summands": [{"structure": [[[{}]]], "norm": "max_abs"}],
                               "lattice": {"kind": "sup", "index_size": 1}},
                   "element": {"values": [[1.0]]}},
     "AlgebraError: algebra key 'structure' must hold only numbers, got {}"),
    ("norm", {"spec": LP2, "vector": ["1.5", True, "1+2j"]},
     'ValueError: coefficient 0 must be a number or an [re, im] pair, got "1.5"'),
    ("norm", {"spec": LP2, "vector": [1.0, [True, 0]]},
     "ValueError: coefficient 1 must be a number or an [re, im] pair, got [true, 0]"),
    ("esum-norm", {"algebra": SCALARS, "element": {"values": [["2"]]}},
     'ValueError: coefficient 0 must be a number or an [re, im] pair, got "2"'),
    ("jnorm", {"system": CHAIN, "element": {"coords": [[], [False]]}},
     "ValueError: coefficient 0 must be a number or an [re, im] pair, got false"),
    ("ce", {"spec": {"kind": "weighted_sup", "weights": [1, 2], "index_size": None}},
     "LatticeSpecError: weighted_sup spec key 'index_size' must be an integer, got null"),
    ("norm", {"spec": LP2, "vector": [HUGE_INT]},
     f"ValueError: coefficient 0 must be a number or an [re, im] pair, got {HUGE_INT}"),
    ("ce", {"spec": {"kind": "lp", "p": HUGE_INT, "index_size": 3}},
     f"LatticeSpecError: lp spec key 'p' must be a number, got {HUGE_INT}"),
])
def test_bad_document_is_one_line_error(tmp_path, capsys, command, docs, message):
    argv = [command]
    for name, doc in docs.items():
        argv += [f"--{name}", write(tmp_path, f"{name}.json", doc)]
    assert cli.main(argv) == 2
    assert _error_line(capsys) == message


M2_BASE = {"structure": M2_CUBE, "norm": {"kind": "matrix_operator", "side": 2}}
HEAVY = {"summands": [{"structure": [[[1.0]]], "norm": "max_abs"}],
         "lattice": {"kind": "weighted_sup", "weights": [1e308]}}


@pytest.mark.parametrize("command, docs, key", [
    ("norm", {"spec": {"kind": "weighted_sup", "weights": [1e308]}, "vector": [10.0]}, "norm"),
    ("esum-norm", {"algebra": HEAVY, "element": {"values": [[10.0]]}}, "norm"),
    ("esum-mul", {"algebra": HEAVY, "x": {"values": [[10.0]]}, "y": {"values": [[1.0]]}}, "norm"),
    ("jnorm", {"system": CHAIN, "element": {"coords": [[], [1e308]]}}, "jnorm"),
    ("am", {"spec": {"kind": "weighted_sup", "weights": [1.4e154, 1.0]}}, "AM bracket"),
    ("ce", {"spec": {"kind": "orlicz", "phi": {"family": "shifted_ramp", "a": 1e-320},
                     "index_size": 3}}, "limit"),
])
def test_overflowing_norm_is_one_line_error(tmp_path, capsys, command, docs, key):
    """Finite input whose norm overflows a float: no Infinity on stdout and
    no numpy warning, only the error line.  The am weight squares to C_E^2
    above the largest float."""
    argv = [command] + (["--n", "2"] if command == "am" else [])
    for name, doc in docs.items():
        argv += [f"--{name}", write(tmp_path, f"{name}.json", doc)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(argv) == 2
    assert _error_line(capsys) == f"ValueError: the {key} of this input overflows a float (inf)"


EUCLID_AND_MAX = {"summands": [{"structure": [[[1.0]]], "norm": "euclidean"},
                             {"structure": [[[1.0]]], "norm": "max_abs"}],
                  "lattice": {"kind": "lp", "p": 2, "index_size": 2}}


@pytest.mark.parametrize("values, norm", [
    ([[1e-200], [0.0]], 1e-200),
    ([[1e308], [1e308]], np.sqrt(2.0) * 1e308),
])
def test_esum_norm_of_tiny_and_huge_euclidean_entries(tmp_path, capsys, values, norm):
    code, out = run_cli(capsys, ["esum-norm", "--algebra", write(tmp_path, "a.json", EUCLID_AND_MAX),
                                 "--element", write(tmp_path, "e.json", {"values": values})])
    assert code == 0 and abs(out["norm"] - norm) <= 1e-15 * norm


def test_wam_infinity_is_exact(tmp_path, capsys):
    """An algebra that is not weakly amenable has no constant: both ends
    print as null, strict JSON, beside the verdict."""
    sz = {"structure": es.square_zero_algebra().structure.real.tolist(), "norm": "max_abs"}
    code, out = run_cli(capsys, ["wam", "--algebra", write(tmp_path, "sz.json", sz)])
    assert code == 0
    assert out["lower"] is None and out["upper"] is None and not out["weakly_amenable"]


@pytest.mark.parametrize("base, flags, message", [
    ({"structure": [[[1.0]]], "norm": "max_abs"}, [],
     "ValueError: --psi is required unless the base is a matrix algebra"),
    (M2_BASE, ["--sizes", "0"], "ValueError: --sizes must list positive integers, got 0"),
    (M2_BASE, ["--sizes=-2"], "ValueError: --sizes must list positive integers, got -2"),
    (M2_BASE, ["--sizes", "2,0,4"], "ValueError: --sizes must list positive integers, got 2,0,4"),
    (M2_BASE, ["--p", "1"], "ValueError: exponent must satisfy 1 < p < inf, got 1.0"),
])
def test_bad_lp_demo_argument_is_one_line_error(tmp_path, capsys, base, flags, message):
    argv = ["lp-demo", "--base", write(tmp_path, "base.json", base), "--p", "2"] + flags
    assert cli.main(argv) == 2
    assert _error_line(capsys) == message


def test_lp_demo_repeated_size_gives_the_rows_once(tmp_path, capsys):
    base = write(tmp_path, "base.json", M2_BASE)
    code, repeated = run_cli(capsys, ["lp-demo", "--base", base, "--p", "2", "--sizes", "2,2,4"])
    assert code == 0 and repeated["ok"] and repeated["monotone_growth"]
    distinct = run_cli(capsys, ["lp-demo", "--base", base, "--p", "2", "--sizes", "2,4"])
    assert distinct == (0, repeated)


@pytest.mark.parametrize("command, docs, message", [
    ("wam", {"algebra": M2_BASE}, "ValueError: samples must be nonnegative, got -5"),
    ("jcheck", {"system": CHAIN}, "ValueError: samples must be nonnegative, got -5"),
])
def test_negative_samples_is_one_line_error(tmp_path, capsys, command, docs, message):
    argv = [command, "--samples", "-5"]
    for name, doc in docs.items():
        argv += [f"--{name}", write(tmp_path, f"{name}.json", doc)]
    assert cli.main(argv) == 2
    assert _error_line(capsys) == message


def test_ce_command(tmp_path, capsys):
    spec = write(tmp_path, "spec.json",
                 {"kind": "orlicz", "phi": {"family": "shifted_ramp", "a": 0.25},
                  "index_size": 8})
    code, out = run_cli(capsys, ["ce", "--spec", spec])
    assert code == 0
    assert out["bounded"] and out["limit"] == 4.0


def test_am_command(tmp_path, capsys, spec_path):
    code, out = run_cli(capsys, ["am", "--n", "3", "--spec", spec_path])
    assert code == 0
    assert abs(out["lower"] - 3.0) <= 1e-6 and abs(out["upper"] - 3.0) <= 1e-6
    assert not out["loose"]
    assert "witness_lower" not in out
    code, out = run_cli(capsys, ["am", "--n", "3", "--spec", spec_path, "--witnesses"])
    assert "witness_lower" in out and "witness_upper" in out


def test_am_refuses_a_witness_above_the_limit(tmp_path, capsys):
    spec = write(tmp_path, "spec.json", {"kind": "orlicz", "index_size": 171,
                                         "phi": {"family": "shifted_ramp", "a": 0.5}})
    assert cli.main(["am", "--n", "171", "--spec", spec]) == 2
    assert _error_line(capsys) == ("ValueError: the AM witness at n = 171 needs 10000422 complex "
                                   "entries, more than MAX_WITNESS_ENTRIES = 10000000")


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


@pytest.mark.parametrize("command, docs", [
    ("wa", {"algebra": {"structure": M2_CUBE, "norm": "max_abs"}}),
    ("esum-norm", {"algebra": {"summands": [{"structure": M2_CUBE, "norm": "max_abs"}],
                               "lattice": {"kind": "sup", "index_size": 1}},
                   "element": {"values": [[1, 0, 0, 1]]}}),
])
def test_unbounded_summand_is_refuted_by_sampling(tmp_path, capsys, command, docs):
    # M_2 under max-abs has bound 2, attained by (e_11 + e_12)(e_11 + e_21) = 2 e_11
    argv = [command]
    for key, doc in docs.items():
        argv += [f"--{key}", write(tmp_path, f"{key}.json", doc)]
    assert cli.main(argv) == 2
    message = _error_line(capsys)
    assert message.startswith("AlgebraError: algebra(dim=4): norm is not submultiplicative (ratio ")
    assert 1.0 < float(message.rsplit(" ", 1)[1].rstrip(")")) <= 2.0


def test_bounded_document_makes_no_draws(tmp_path, capsys, monkeypatch):
    calls = []
    real = es._worst_ratio

    def recording(label, rng, algebras, samples, lattice=None):
        if samples:
            calls.append(label)
        return real(label, rng, algebras, samples, lattice)
    monkeypatch.setattr(es, "_worst_ratio", recording)
    c2 = {"structure": es.pointwise_algebra(2).structure.real.tolist(), "norm": "max_abs"}
    algebra = write(tmp_path, "alg.json", {"summands": [c2, c2],
                                           "lattice": {"kind": "lp", "p": 2, "index_size": 2}})
    element = write(tmp_path, "x.json", {"values": [[3, 0], [0, 4]]})
    code, out = run_cli(capsys, ["esum-norm", "--algebra", algebra, "--element", element])
    assert code == 0 and out["norm"] == 5.0 and calls == []


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


RAMP2 = {"kind": "orlicz", "phi": {"family": "shifted_ramp", "a": 0.5}, "index_size": 2}
TABLE2 = {"kind": "orlicz", "phi": {"family": "table", "points": [[0, 0], [0.5, 0.25], [1, 1]]},
          "index_size": 2}
M2_SUM = {"summands": [M2_BASE, {"structure": [[[1.0]]], "norm": "max_abs"}],
          "lattice": {"kind": "weighted_sup", "weights": [1.0, 2.0], "index_size": 2}}
LEVELS = {"dims": [0, 1, 1], "bonds": [[], [[1.0]]], "algebra": [[], [[[1.0]]], [[[1.0]]]]}
# one valid invocation per command: its flags and its input documents
VALID_RUNS = [
    (["norm"], {"spec": TABLE2, "vector": [3.0, [0.0, 4.0]]}),
    (["ce"], {"spec": {"kind": "weighted_sup", "weights": [1.0, 2.0], "index_size": 2}}),
    (["ce"], {"spec": TABLE2}),
    (["am", "--n", "2"], {"spec": RAMP2}),
    (["am", "--n", "2"], {"spec": {"kind": "weighted_sup", "weights": [1.0, 2.0]}}),
    (["esum-norm"], {"algebra": M2_SUM, "element": {"values": [[1, 0, [0, 1], 2], [0.5]]}}),
    (["esum-mul"], {"algebra": SCALARS, "x": {"values": [[2.0]]}, "y": {"values": [[[0, 1]]]}}),
    (["bai-check"], {"algebra": {"summands": [SCALARS["summands"][0]] * 2,
                                 "lattice": {"kind": "lp", "p": 2, "index_size": 2}}}),
    (["jnorm"], {"system": LEVELS, "element": {"coords": [[], [1.0], [[0.5, 0.5]]]}}),
    (["jcheck", "--samples", "3"], {"system": LEVELS}),
    (["wa"], {"algebra": M2_BASE}),
    (["wam", "--samples", "2"], {"algebra": M2_SUM}),
    (["lp-demo", "--sizes", "2", "--p", "2"], {"base": M2_BASE, "psi": [0, 1, 0, 0]}),
]
REPLACEMENTS = [{}, [], "x", "1.5", None, True, [5], 5, -1, 0, 2.5, [[1, {}]], 1e308, -1e308]
SCHEMA_DIR = Path(__file__).resolve().parents[1] / "docs" / "schemas"
# the schema that describes each input flag's document
SCHEMA_OF = {"spec": "norm_spec", "algebra": "algebra", "base": "algebra", "system": "jsystem",
             "vector": "element", "element": "element", "x": "element", "y": "element",
             "psi": "element"}


def _schema_validator(name):
    schemas = {path.name: json.loads(path.read_text()) for path in SCHEMA_DIR.glob("*.json")}
    registry = Registry().with_resources(
        (key, Resource.from_contents(schema)) for key, schema in schemas.items())
    return jsonschema.Draft7Validator(schemas[f"{name}.schema.json"], registry=registry)


def test_valid_run_documents_match_their_schemas():
    docs = [(key, doc) for _, run_docs in VALID_RUNS for key, doc in run_docs.items()]
    assert len(docs) == 19
    for key, doc in docs:
        errors = list(_schema_validator(SCHEMA_OF[key]).iter_errors(doc))
        assert errors == [], (key, doc, errors)


@pytest.mark.parametrize("flags, key, doc, message", [
    (["ce"], "spec", {"kind": "lp", "index_size": 3}, "missing the key 'p'"),
    (["ce"], "spec", {"kind": "weighted_sup", "weights": [0.5, 2.0]}, "weights must be"),
    (["ce"], "spec", {"kind": "sup", "index_size": 0}, "index_size must be a positive"),
    (["jcheck", "--samples", "3"], "system", {"dims": [0, -1], "bonds": [[]]},
     "dimensions must be nonnegative"),
])
def test_schemas_refuse_what_the_readers_refuse(tmp_path, capsys, flags, key, doc, message):
    assert not _schema_validator(SCHEMA_OF[key]).is_valid(doc)
    assert cli.main(flags + [f"--{key}", write(tmp_path, f"{key}.json", doc)]) == 2
    assert message in _error_line(capsys)


def _paths(doc, prefix=()):
    """Every position in a JSON document, the root included."""
    yield prefix
    if isinstance(doc, (dict, list)):
        for key, value in (doc.items() if isinstance(doc, dict) else enumerate(doc)):
            yield from _paths(value, prefix + (key,))


def _replaced(doc, path, value):
    if not path:
        return value
    out = dict(doc) if isinstance(doc, dict) else list(doc)
    out[path[0]] = _replaced(doc[path[0]], path[1:], value)
    return out


GOLDEN_RUNS = Path(__file__).parent / "data" / "valid_runs.json"


def _assert_matches_golden(got, want, where=()):
    """Keys, strings, ints, bools and None equal, floats to 1e-12 relative."""
    assert type(got) is type(want), (where, got, want)
    if isinstance(want, dict):
        assert sorted(got) == sorted(want), where
        for key in want:
            _assert_matches_golden(got[key], want[key], where + (key,))
    elif isinstance(want, list):
        assert len(got) == len(want), where
        for k, (g, w) in enumerate(zip(got, want)):
            _assert_matches_golden(g, w, where + (k,))
    elif isinstance(want, float):
        assert abs(got - want) <= 1e-12 * abs(want), (where, got, want)
    else:
        assert got == want, (where, got, want)


def test_valid_runs_replay_the_golden_outputs(tmp_path, capsys):
    golden = json.loads(GOLDEN_RUNS.read_text())
    assert [run["flags"] for run in golden] == [flags for flags, _ in VALID_RUNS]
    for (flags, docs), run in zip(VALID_RUNS, golden):
        argv = list(flags)
        for key, doc in docs.items():
            argv += [f"--{key}", write(tmp_path, f"{key}.json", doc)]
        code, out = run_cli(capsys, argv)
        assert code == 0, flags
        _assert_matches_golden(out, run["stdout"], tuple(flags))


def test_every_command_has_a_valid_run():
    parser = cli.build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices
    assert set(commands) - {"verify"} == {flags[0] for flags, _ in VALID_RUNS}


def _refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


@settings(max_examples=710, deadline=None, derandomize=True)
@given(data=st.data())
def test_mutated_document_exits_cleanly(data):
    """One value anywhere in a valid document replaced by a wrong-typed or
    out-of-range one, every warning made an error: the command either
    succeeds with strict JSON (no Infinity or NaN) on stdout or exits 2 with
    one {"error": ...} line on stderr, never a traceback or a warning.
    About 55 examples per valid run."""
    flags, docs = data.draw(st.sampled_from(VALID_RUNS))
    name = data.draw(st.sampled_from(sorted(docs)))
    path = data.draw(st.sampled_from(list(_paths(docs[name]))))
    value = data.draw(st.sampled_from(REPLACEMENTS))
    docs = dict(docs, **{name: _replaced(docs[name], path, value)})
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        argv = list(flags)
        for key, doc in docs.items():
            argv += [f"--{key}", str(Path(tmp) / f"{key}.json")]
            Path(argv[-1]).write_text(json.dumps(doc))
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main(argv)
    if code == 0:
        json.loads(out.getvalue(), parse_constant=_refuse_constant)
    else:
        assert code == 2 and out.getvalue() == ""
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and isinstance(json.loads(lines[0])["error"], str)


def _tiny_report():
    return {
        "seed": 1,
        "passed": False,
        "cases": [
            {"case_id": "a", "anchor": "x", "expected": "1", "got": "1",
             "tol": 0.0, "status": "pass"},
            {"case_id": "b", "anchor": "y", "expected": "2", "got": "2",
             "tol": 1e-6, "status": "fail"},
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
    empty = {"seed": 0, "passed": True, "cases": []}
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
        "runner": lambda ctx: {"expected": "1", "got": "2", "ok": False},
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


def test_open_bracket_fails_its_case(capsys, monkeypatch):
    """With the separated decomposition as the only upper witness the sup
    norm's bracket stays open at [1, n]; its case fails, verify exits 1."""
    from esum_lab import gamma as gm
    from esum_lab import lattice as lt
    from esum_lab import verify as vf

    def separated_only(spec, extremal):
        pairs = gm.separated_decomposition(spec.index_size)
        return gm.decomposition_cost(spec, pairs), pairs, "separated"

    monkeypatch.setattr(gm, "primal_decomposition_upper", separated_only)
    assert gm.am_pointwise(4, lt.sup_norm(4)).loose
    c0 = next(c for c in vf.CASES if c["id"] == "am-c0-formula")
    monkeypatch.setattr(vf, "CASES", [c0])
    code = cli.main(["verify", "--seed", "0"])
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert code == 1
    assert rows[0]["status"] == "fail"


@pytest.mark.parametrize("argv", [
    ["am", "--n", "3", "--budget", "0"],
    ["verify", "--budget", "1"],
    ["am", "--n", "3", "--seed", "1"],
    ["lp-demo", "--p", "2", "--seed", "1"],
])
def test_removed_flags_are_usage_errors(tmp_path, capsys, spec_path, argv):
    argv = argv + {"am": ["--spec", spec_path], "lp-demo": ["--base", spec_path]}.get(argv[0], [])
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
