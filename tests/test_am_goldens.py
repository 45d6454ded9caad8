"""Golden AM brackets of the diag benchmark specs and the named families.

``tests/data/am_brackets.json`` records, for every norm spec of the
diag-orlicz and diag-lp benchmark tasks at seeds 42 and 7 and for every
named family at n = 1..8, what ``am_pointwise`` returns: both ends and the
certified bound as ``float.hex``, both method strings, and sha256 digests of
the lower matrix's bytes and of the upper pairs as one complex array.  A
replay must give every record again exactly.  ``python
tests/test_am_goldens.py`` rewrites the file from the current code.
"""

import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from esum_lab import gamma as gm
from test_gamma import _benchmark_specs, _exact_families

GOLDEN = Path(__file__).parent / "data" / "am_brackets.json"
SOURCES = [("exact", n) for n in range(1, 9)] + [("benchmark", 42), ("benchmark", 7)]


def _specs(source, arg):
    return _exact_families(arg) if source == "exact" else _benchmark_specs(arg)


def _sha256(array):
    return hashlib.sha256(array.tobytes()).hexdigest()


def _record_bracket(spec):
    br = gm.am_pointwise(spec.index_size, spec)
    mat, cert, lower_method = br.witness_lower
    pairs, _, upper_method = br.witness_upper
    return {"kind": spec.kind, "n": spec.index_size,
            "lower": br.lower.hex(), "upper": br.upper.hex(),
            "lower_method": lower_method, "upper_method": upper_method,
            "certified_bound": float(cert).hex(),
            "lower_matrix_sha256": _sha256(np.asarray(mat)),
            "pairs_sha256": _sha256(np.asarray(pairs, complex))}


def _record():
    return [{"source": source, "arg": arg, "brackets": [_record_bracket(s) for s in _specs(source, arg)]}
            for source, arg in SOURCES]


def test_am_brackets_replay_the_goldens():
    golden = json.loads(GOLDEN.read_text())
    assert [(run["source"], run["arg"]) for run in golden] == SOURCES
    for run in golden:
        got = [_record_bracket(spec) for spec in _specs(run["source"], run["arg"])]
        assert len(got) == len(run["brackets"]), (run["source"], run["arg"])
        for k, (g, w) in enumerate(zip(got, run["brackets"])):
            assert g == w, (run["source"], run["arg"], k)


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(_record(), indent=1) + "\n")
    print(f"wrote {GOLDEN}", file=sys.stderr)
