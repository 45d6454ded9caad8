"""Command-line entry point (``esum-lab``).

All inputs are JSON documents (schemas under ``docs/schemas/``).  Every
subcommand but ``verify`` returns a payload, and :func:`main` alone prints
it as strict JSON on stdout.  ``verify`` prints its CSV report and exits 1
when any case fails or errors.  Bad input, and a result that overflows a
float, end in one ``{"error": ...}`` line on stderr and exit code 2.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from . import derivations as dv
from . import esum as es
from . import gamma as gm
from . import jsum as js
from . import lattice as lt
from .verify import emit_tables, report_csv, verify_all


def _load(path):
    with open(path) as fh:
        return json.load(fh)


def _key(d, key, what="algebra", array=False):
    return lt.required_key(d, key, what, es.AlgebraError, array=array)


def _summand_from_dict(s):
    structure = lt.numbers_from_json(_key(s, "structure", array=True),
                                     "algebra key 'structure'", es.AlgebraError)
    norm = es.coordinate_norm_from_json(_key(s, "norm"))
    if isinstance(norm, es.MatrixOperatorNorm) and not (norm.side >= 1
                                                        and norm.side ** 2 == len(structure)):
        raise es.AlgebraError(f"matrix_operator norm key 'side' must be at least 1 with "
                              f"side^2 = dim, got side {norm.side} for dim {len(structure)}")
    algebra = es.FiniteAlgebra(structure, norm)
    dim = lt.integer_from_json(s.get("dim", algebra.dim), "algebra key 'dim'", es.AlgebraError)
    if algebra.dim != dim:
        raise ValueError(f"declared dim {dim} disagrees with the structure cube")
    return algebra


def _algebra_from_dict(d):
    summands = [_summand_from_dict(s) for s in _key(d, "summands", "summed algebra", array=True)]
    lattice = lt.spec_from_dict(_key(d, "lattice", "summed algebra"))
    return es.ESumAlgebra(summands, lattice)


def _element_from_dict(algebra, d):
    return algebra.element([lt.values_from_json(v) for v in _key(d, "values", "element", array=True)])


def _finite_algebra_from_dict(d):
    if isinstance(d, dict) and "summands" in d:
        return _algebra_from_dict(d).as_finite_algebra()
    return _summand_from_dict(d)


def _require_finite(payload, key=None):
    """Raise ValueError at the first float in a (nested) payload that
    overflowed (inf or nan), naming its key."""
    if isinstance(payload, dict):
        for k, value in payload.items():
            _require_finite(value, k)
    elif isinstance(payload, list):
        for value in payload:
            _require_finite(value, key)
    elif isinstance(payload, float) and not np.isfinite(payload):
        raise ValueError(f"the {key} of this input overflows a float ({payload})")


def cmd_norm(args):
    spec = lt.load_spec(args.spec)
    vec = lt.values_from_json(_load(args.vector))
    return {"norm": lt.norm_eval(spec, vec)}


def cmd_ce(args):
    spec = lt.load_spec(args.spec)
    return lt.ce_constant(spec).as_dict()


def cmd_esum_norm(args):
    algebra = _algebra_from_dict(_load(args.algebra))
    return {"norm": algebra.norm_of(_element_from_dict(algebra, _load(args.element)))}


def cmd_esum_mul(args):
    algebra = _algebra_from_dict(_load(args.algebra))
    x = _element_from_dict(algebra, _load(args.x))
    y = _element_from_dict(algebra, _load(args.y))
    out = algebra.multiply(x, y)
    return {
        "values": [[[v.real, v.imag] for v in out[run]] for run in algebra.norm.slices],
        "norm": algebra.norm_of(out),
    }


def cmd_bai_check(args):
    algebra = _algebra_from_dict(_load(args.algebra))
    return es.unit_and_bai_bound_check(algebra)


def cmd_am(args):
    spec = lt.load_spec(args.spec)
    bracket = gm.am_pointwise(args.n, spec)
    payload = bracket.as_dict()
    if not args.witnesses:
        payload.pop("witness_lower")
        payload.pop("witness_upper")
    return payload


def cmd_jnorm(args):
    system = js.system_from_dict(_load(args.system))
    element = js.element_from_dict(system, _load(args.element))
    return {"jnorm": js.jnorm(element)}


def cmd_jcheck(args):
    system = js.system_from_dict(_load(args.system))
    rng = np.random.default_rng(args.seed)
    x = js.JElement(system, [
        rng.standard_normal(d) + 1j * rng.standard_normal(d) for d in system.dims
    ])
    report = {"bimonotone": js.bimonotone_check(x, samples=args.samples, rng=rng)}
    report["bimonotone"]["violations"] = len(report["bimonotone"]["violations"])
    if system.has_algebra:
        report["omega_submultiplicative"] = js.omega_submult_check(
            system, samples=args.samples, rng=rng)
    return report


def cmd_wa(args):
    algebra = _finite_algebra_from_dict(_load(args.algebra))
    rep = dv.derivation_space(algebra)
    dv.is_weakly_amenable(algebra, rep)   # re-checks the verdict against its certificate
    out = rep.as_dict()
    out["essential"] = rep.essential
    return out


def cmd_wam(args):
    algebra = _finite_algebra_from_dict(_load(args.algebra))
    out = dv.wam_bracket(algebra, samples=args.samples, seed=args.seed)
    if not out["weakly_amenable"]:   # no constant exists; JSON has no Infinity
        out.update(lower=None, upper=None)
    return out


def cmd_lp_demo(args):
    base = _finite_algebra_from_dict(_load(args.base))
    if args.psi:
        psi = lt.values_from_json(_load(args.psi))
    elif isinstance(base.norm, es.MatrixOperatorNorm) and base.norm.side >= 2:
        psi = np.zeros(base.dim)
        psi[1] = 1.0   # the (1,2) matrix-unit functional
    else:
        raise ValueError("--psi is required unless the base is a matrix algebra")
    sizes = [int(s) for s in args.sizes.split(",")]
    if min(sizes) < 1:
        raise ValueError(f"--sizes must list positive integers, got {args.sizes}")
    return dv.lp_obstruction_demo(base, psi, args.p, sizes)


def cmd_verify(args):
    start = time.perf_counter()
    report = verify_all(seed=args.seed)
    elapsed = time.perf_counter() - start
    if args.out:
        formats = ("csv", "json") if args.format == "both" else (args.format,)
        for path in emit_tables(report, args.out, formats=formats):
            print(f"wrote {path}", file=sys.stderr)
    print(report_csv(report), end="")
    counts = {}
    for row in report["cases"]:
        counts[row["status"]] = counts.get(row["status"], 0) + 1
    print(f"# {counts} in {elapsed:.1f}s", file=sys.stderr)
    return 0 if report["passed"] else 1


def build_parser():
    parser = argparse.ArgumentParser(prog="esum-lab")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("norm", help="evaluate a lattice norm on a vector")
    p.add_argument("--spec", required=True)
    p.add_argument("--vector", required=True)
    p.set_defaults(fn=cmd_norm)

    p = sub.add_parser("ce", help="uniformity constant of a norm spec")
    p.add_argument("--spec", required=True)
    p.set_defaults(fn=cmd_ce)

    p = sub.add_parser("esum-norm", help="norm of an element of a summed algebra")
    p.add_argument("--algebra", required=True)
    p.add_argument("--element", required=True)
    p.set_defaults(fn=cmd_esum_norm)

    p = sub.add_parser("esum-mul", help="coordinatewise product of two elements")
    p.add_argument("--algebra", required=True)
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    p.set_defaults(fn=cmd_esum_mul)

    p = sub.add_parser("bai-check", help="unit norm versus indicator norms")
    p.add_argument("--algebra", required=True)
    p.set_defaults(fn=cmd_bai_check)

    p = sub.add_parser("am", help="diagonal tensor-norm bracket for C^n")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--spec", required=True)
    p.add_argument("--witnesses", action="store_true")
    p.set_defaults(fn=cmd_am)

    p = sub.add_parser("jnorm", help="chain-sum norm of an element")
    p.add_argument("--system", required=True)
    p.add_argument("--element", required=True)
    p.set_defaults(fn=cmd_jnorm)

    p = sub.add_parser("jcheck", help="sampled window/limit checks on a system")
    p.add_argument("--system", required=True)
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_jcheck)

    p = sub.add_parser("wa", help="derivation-space weak amenability decision")
    p.add_argument("--algebra", required=True)
    p.set_defaults(fn=cmd_wa)

    p = sub.add_parser("wam", help="weak amenability constant bracket")
    p.add_argument("--algebra", required=True)
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_wam)

    p = sub.add_parser("lp-demo", help="per-coordinate growth obstruction demo")
    p.add_argument("--base", required=True, help="base algebra JSON")
    p.add_argument("--psi", default=None, help="dual coefficient vector JSON")
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--sizes", default="2,4,8")
    p.set_defaults(fn=cmd_lp_demo)

    p = sub.add_parser("verify", help="run the full deterministic case suite")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=["csv", "json", "both"], default="both")
    p.set_defaults(fn=cmd_verify)
    return parser


def main(argv=None):
    """Run one subcommand and print its payload as sorted, indented, strict
    JSON; ``verify`` prints its own report and returns its exit code.
    numpy's floating-point warnings stay quiet, and a payload number that
    overflowed a float (inf or nan) is refused.  Unreadable or malformed
    input documents, the library's errors (json.JSONDecodeError,
    LatticeSpecError and the other ``*Error`` classes are all ValueErrors),
    an overflowing result and inputs that need an unimplemented case (the
    Orlicz dual norm) print one JSON line ``{"error": ...}`` on stderr and
    exit with code 2."""
    args = build_parser().parse_args(argv)
    try:
        if args.fn is cmd_verify:
            return cmd_verify(args)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            payload = args.fn(args)
        _require_finite(payload)
        print(json.dumps(payload, indent=2, sort_keys=True, allow_nan=False))
    except (OSError, ValueError, NotImplementedError) as exc:
        print(json.dumps({"error": f"{type(exc).__name__}: {exc}"}), file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
