"""Golden outputs of the derivation paths on many blocks.

``tests/data/block_runs.json`` records the stdout of ``esum-lab wa`` and
``esum-lab wam`` on sums of copies of M_2 under sup, and the
``esum_wa_check`` reports on mixed summands under three lattices.  A
replay must give them again: the ends of a WAM bracket to 1e-12 relative,
everything else exactly.  ``python tests/test_block_goldens.py`` rewrites
the file from the current code.
"""

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from esum_lab import cli
from esum_lab import derivations as dv
from esum_lab import esum as es
from esum_lab import lattice as lt

GOLDEN = Path(__file__).parent / "data" / "block_runs.json"
M2_BASE = {"structure": es.matrix_units_algebra(2).structure.real.tolist(),
           "norm": {"kind": "matrix_operator", "side": 2}}


def _copies(k):
    return {"summands": [M2_BASE] * k, "lattice": {"kind": "sup", "index_size": k}}


CLI_RUNS = [   # flags and the number of copies of M_2 in the --algebra document
    (["wa"], 16),
    (["wa"], 64),
    (["wam"], 16),
    (["wam", "--samples", "20"], 64),
]
SUMMANDS = {"M2": es.matrix_units_algebra(2), "M3": es.matrix_units_algebra(3),
            "C": es.scalar_algebra(), "square-zero": es.square_zero_algebra()}
LATTICES = {"sup": lt.sup_norm, "lp(1.5)": lambda n: lt.lp_norm(1.5, n),
            "weighted_sup": lambda n: lt.weighted_sup(1.0 + 0.75 * np.arange(n))}
CHECKS = [(names, kind) for names in (["M2", "M3", "C", "M2"], ["C", "square-zero", "M2", "M3"])
          for kind in sorted(LATTICES)]


def _cli_stdout(tmp_dir, flags, copies):
    path = Path(tmp_dir) / f"copies{copies}.json"
    path.write_text(json.dumps(_copies(copies)))
    out = _capture(lambda: cli.main(flags + ["--algebra", str(path)]))
    return json.loads(out)


def _capture(run):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert run() == 0
    return buf.getvalue()


def _check_report(names, kind):
    summands = [SUMMANDS[n] for n in names]
    return json.loads(json.dumps(dv.esum_wa_check(summands, LATTICES[kind](len(names)))))


def _assert_matches(got, want, where=()):
    """Keys, strings, ints, bools, None and floats equal, except the floats
    under "lower" and "upper", which agree to 1e-12 relative."""
    assert type(got) is type(want), (where, got, want)
    if isinstance(want, dict):
        assert sorted(got) == sorted(want), where
        for key in want:
            _assert_matches(got[key], want[key], where + (key,))
    elif isinstance(want, list):
        assert len(got) == len(want), where
        for k, (g, w) in enumerate(zip(got, want)):
            _assert_matches(g, w, where + (k,))
    elif isinstance(want, float) and where and where[-1] in ("lower", "upper"):
        assert abs(got - want) <= 1e-12 * abs(want), (where, got, want)
    else:
        assert got == want, (where, got, want)


def _record(tmp_dir):
    return {"cli": [{"flags": flags, "copies": k, "stdout": _cli_stdout(tmp_dir, flags, k)}
                    for flags, k in CLI_RUNS],
            "esum_wa_check": [{"summands": names, "lattice": kind,
                               "report": _check_report(names, kind)} for names, kind in CHECKS]}


def test_wa_and_wam_on_copies_replay_the_goldens(tmp_path):
    golden = json.loads(GOLDEN.read_text())["cli"]
    assert [(run["flags"], run["copies"]) for run in golden] == CLI_RUNS
    for run in golden:
        _assert_matches(_cli_stdout(tmp_path, run["flags"], run["copies"]), run["stdout"],
                        (str(run["flags"]), run["copies"]))


def test_mixed_summand_checks_replay_the_goldens():
    golden = json.loads(GOLDEN.read_text())["esum_wa_check"]
    assert [(run["summands"], run["lattice"]) for run in golden] == CHECKS
    for run in golden:
        _assert_matches(_check_report(run["summands"], run["lattice"]), run["report"],
                        (str(run["summands"]), run["lattice"]))


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        GOLDEN.write_text(json.dumps(_record(tmp), indent=1) + "\n")
    print(f"wrote {GOLDEN}", file=sys.stderr)
