"""Desk-scale verification suite.

Every case replays one finite-scale claim with frozen inputs and a
deterministic per-case random stream (derived by hashing the master seed
with the case id).  Cases never abort the suite: exceptions become
per-case ``error`` rows, so every case ends ``pass``, ``fail`` or
``error``.  The AM brackets close for every named lattice, and a bracket
that fails to close fails its case.  Reports carry no timing, so two runs
with one seed are byte-identical.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os

import numpy as np

from . import derivations as dv
from . import esum as es
from . import gamma as gm
from . import jsum as js
from . import lattice as lt

CASES = []


def _fmt(x):
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, float):
        return format(x, ".12g")
    if isinstance(x, (list, tuple)):
        return "[" + ", ".join(_fmt(v) for v in x) + "]"
    return str(x)


class CaseContext:
    def __init__(self, master_seed, case_id):
        digest = hashlib.sha256(f"{master_seed}:{case_id}".encode()).digest()
        self.seed = int.from_bytes(digest[:8], "big")
        self.case_id = case_id

    def rng(self):
        # [seed, 0] fixes the per-case streams behind the golden report
        return np.random.default_rng([self.seed, 0])


def case(case_id, anchor, tol):
    def register(fn):
        CASES.append({"id": case_id, "anchor": anchor, "tol": tol, "runner": fn})
        return fn
    return register


def _result(expected, got, ok):
    return {"expected": _fmt(expected), "got": _fmt(got), "ok": bool(ok)}


# ---------------------------------------------------------------------------
# Lattice norms
# ---------------------------------------------------------------------------

@case("lattice-indicator-lp", "lp-indicator-closed-form", 0.0)
def _lp_indicators(ctx):
    bad = []
    for p in (1.0, 1.5, 2.0, 3.0):
        spec = lt.lp_norm(p, 9)
        for n in (1, 4, 9):
            if lt.chi_norm(spec, n) != float(n) ** (1.0 / p):
                bad.append((p, n))
    return _result("exact n**(1/p) for all cases", f"{len(bad)} mismatches", not bad)


@case("lattice-indicator-weighted", "weighted-sup-indicator", 0.0)
def _weighted_indicators(ctx):
    spec = lt.weighted_sup([1.0, 2.0, 3.0])
    got = (lt.chi_norm(spec, 3), lt.norm_eval(spec, [1, 1, 1]), lt.ce_constant(spec).value)
    ok = got == (3.0, 3.0, 3.0)
    return _result([3.0, 3.0, 3.0], list(got), ok)


@case("lattice-indicator-orlicz", "orlicz-indicator-vs-luxemburg", 1e-9)
def _orlicz_indicators(ctx):
    worst = 0.0
    for a in (0.25, 0.5):
        phi = lt.OrliczFunction.shifted_ramp(a)
        spec = lt.orlicz_norm(phi, 12)
        for n in (1, 3, 4, 12):
            closed = lt.chi_norm(spec, n)
            direct = lt.norm_eval(spec, lt.worst_indicator(spec, n))
            worst = max(worst, abs(closed - direct))
    phi = lt.OrliczFunction.power(2.0)
    spec = lt.orlicz_norm(phi, 9)
    worst = max(worst, abs(lt.chi_norm(spec, 9) - 3.0))
    return _result("<= 1e-09", worst, worst <= 1e-9)


@case("lattice-uniformity-orlicz-limit", "orlicz-degenerate-limit", 1e-4)
def _orlicz_limit(ctx):
    errs = []
    for a in (0.25, 0.5):
        spec = lt.orlicz_norm(lt.OrliczFunction.shifted_ramp(a), 10 ** 6)
        rep = lt.ce_constant(spec)
        errs.append(abs(lt.chi_norm(spec, 10 ** 6) - rep.limit))
    worst = max(errs)
    return _result("<= 0.0001", worst, worst <= 1e-4)


@case("lattice-orlicz-inverse", "generalized-inverse-values", 1e-12)
def _orlicz_inverse(ctx):
    phi = lt.OrliczFunction.shifted_ramp(0.5)
    vals = [
        (lt.generalized_inverse(phi, 1.0 / 10), 0.55),
        (lt.generalized_inverse(phi, 1.0), 1.0),
        (lt.generalized_inverse(lt.OrliczFunction.power(2.0), 0.25), 0.5),
    ]
    worst = max(abs(a - b) for a, b in vals)
    return _result("<= 1e-12", worst, worst <= 1e-12)


@case("lattice-solidity-invariants", "solid-norm-axioms", 1e-9)
def _solidity(ctx):
    rng = ctx.rng()
    specs = [
        lt.sup_norm(6),
        lt.weighted_sup(1.0 + 2.0 * rng.random(6)),
        lt.lp_norm(1.5, 6),
        lt.orlicz_norm(lt.OrliczFunction.shifted_ramp(0.4), 6),
    ]
    failures = 0
    for spec in specs:
        ce = lt.ce_constant(spec).value
        for _ in range(200):
            y = rng.standard_normal(6) + 1j * rng.standard_normal(6)
            shrink = rng.random(6)
            x = y * shrink
            nx, ny = lt.norm_eval(spec, x), lt.norm_eval(spec, y)
            sup_y = float(np.abs(y).max())
            if nx > ny * (1 + 1e-9):
                failures += 1
            if ny < sup_y * (1 - 1e-9):
                failures += 1
            if ny > ce * sup_y * (1 + 1e-9):
                failures += 1
            z = rng.standard_normal(6) + 1j * rng.standard_normal(6)
            if lt.norm_eval(spec, y * z) > ny * lt.norm_eval(spec, z) * (1 + 1e-9):
                failures += 1
    return _result(0, failures, failures == 0)


# ---------------------------------------------------------------------------
# E-sums
# ---------------------------------------------------------------------------

def _scalar_sum(lattice):
    return es.ESumAlgebra([es.scalar_algebra() for _ in range(lattice.index_size)], lattice)


@case("esum-norm-values", "summand-norm-aggregation", 1e-12)
def _esum_norms(ctx):
    a1 = _scalar_sum(lt.sup_norm(3)).element([[1], [-2], [3]])
    a2 = _scalar_sum(lt.lp_norm(2, 2)).element([[3], [4]])
    a3 = _scalar_sum(lt.weighted_sup([1, 2])).element([[1], [1]])
    got = [es.esum_norm(a1), es.esum_norm(a2), es.esum_norm(a3)]
    worst = max(abs(g - e) for g, e in zip(got, [3.0, 5.0, 2.0]))
    return _result([3.0, 5.0, 2.0], got, worst <= 1e-12)


@case("esum-projection-embedding", "coordinate-maps", 1e-9)
def _esum_maps(ctx):
    rng = ctx.rng()
    alg = _scalar_sum(lt.weighted_sup([1.0, 2.0, 3.0]))
    ok = True
    ok &= es.embedding_norm(alg, 2) == 3.0
    ok &= abs(es.projection_norm(alg, 2) - 1.0 / 3.0) <= 1e-12
    for _ in range(500):
        vals = rng.standard_normal((3, 1)) + 1j * rng.standard_normal((3, 1))
        a = alg.element(list(vals))
        na = es.esum_norm(a)
        for i in range(3):
            ok &= abs(complex(es.coordinate_projection(a, i)[0])) <= na * (1 + 1e-9)
        b = alg.element(list(rng.standard_normal((3, 1))))
        ab = es.esum_mul(a, b)
        for i in range(3):
            pi = es.coordinate_projection(ab, i)
            ok &= abs(pi[0] - a.values[i][0] * b.values[i][0]) <= 1e-12
    v = np.array([1.5])
    emb = es.coordinate_embedding(alg, v, 1)
    ok &= abs(es.coordinate_projection(emb, 1)[0] - 1.5) <= 1e-15
    ok &= abs(es.coordinate_projection(emb, 0)[0]) == 0.0
    return _result("laws hold", "laws hold" if ok else "violated", ok)


@case("esum-truncate", "support-truncation", 1e-12)
def _esum_truncate(ctx):
    alg = _scalar_sum(lt.lp_norm(2, 3))
    a = alg.element([[1], [2], [3]])
    t = es.truncate(a, {0, 2})
    got = es.esum_norm(t)
    full = es.truncate(a, {0, 1, 2})
    empty = es.truncate(a, set())
    ok = (
        abs(got - np.sqrt(10)) <= 1e-12
        and es.esum_norm(empty) == 0.0
        and abs(es.esum_norm(full) - es.esum_norm(a)) <= 1e-15
    )
    return _result(np.sqrt(10), got, ok)


@case("esum-submultiplicative", "product-norm-bound", 1e-9)
def _esum_submult(ctx):
    seed = ctx.seed % 2 ** 32
    configs = [
        es.ESumAlgebra([es.matrix_units_algebra(2) for _ in range(3)], lt.sup_norm(3)),
        es.ESumAlgebra([es.matrix_units_algebra(2), es.scalar_algebra()], lt.lp_norm(1.5, 2)),
        _scalar_sum(lt.orlicz_norm(lt.OrliczFunction.shifted_ramp(0.5), 4)),
        _scalar_sum(lt.weighted_sup([1.0, 2.0, 3.0])),
    ]
    worst = 0.0
    for alg in configs:
        rep = alg.certify_submultiplicative(samples=10_000, seed=seed)
        worst = max(worst, rep["worst_ratio"])
    return _result("ratio <= 1 on 10^4 pairs per configuration", worst, worst <= 1 + 1e-9)


@case("esum-unit-bound", "unit-norm-vs-indicators", 1e-12)
def _esum_unit(ctx):
    reports = [
        es.unit_and_bai_bound_check(_scalar_sum(lt.sup_norm(4))),
        es.unit_and_bai_bound_check(_scalar_sum(lt.lp_norm(2, 9))),
        es.unit_and_bai_bound_check(_scalar_sum(lt.weighted_sup([1, 1, 1, 2]))),
    ]
    units = [r["unit_norm"] for r in reports]
    ok = all(r["ok"] for r in reports) and units == [1.0, 3.0, 2.0]
    return _result([1.0, 3.0, 2.0], units, ok)


# ---------------------------------------------------------------------------
# Diagonal tensor norms
# ---------------------------------------------------------------------------

@case("am-c0-formula", "plain-sup-sum-constant", 1e-6)
def _am_sup(ctx):
    worst = 0.0
    for n in range(1, 9):
        br = gm.am_pointwise(n, lt.sup_norm(n))
        worst = max(worst, abs(br.lower - 1.0), abs(br.upper - 1.0))
    return _result("1 for n = 1..8", f"max deviation {worst:.3g}", worst <= 1e-6)


@case("am-sharp-euclidean", "euclidean-diagonal-sharpness", 1e-6)
def _am_sharp(ctx):
    worst = 0.0
    for n in range(1, 7):
        br = gm.am_pointwise(n, lt.lp_norm(2.0, n))
        worst = max(worst, abs(br.lower - n) / n, abs(br.upper - n) / n)
    return _result("n for n = 1..6", f"max relative deviation {worst:.3g}", worst <= 1e-6)


def _random_sandwich_specs(rng):
    specs = []
    for _ in range(30):
        n = int(rng.integers(2, 6))
        kind = rng.integers(0, 3)
        if kind == 0:
            specs.append(lt.weighted_sup(np.sort(1.0 + 2.0 * rng.random(n))))
        elif kind == 1:
            p = float(rng.choice([1.0, 1.5, 2.0, 3.0]))
            specs.append(lt.lp_norm(p, n))
        else:
            a = float(rng.choice([0.25, 0.5]))
            specs.append(lt.orlicz_norm(lt.OrliczFunction.shifted_ramp(a), n))
    return specs


@case("am-sandwich-random", "two-sided-uniformity-estimate", 1e-6)
def _am_sandwich(ctx):
    specs = _random_sandwich_specs(ctx.rng())
    bad = sum(not gm.verify_main_theorem(spec.index_size, spec)["ok"] for spec in specs)
    return _result(0, bad, bad == 0)


@case("am-lp-regression", "lp-diagonal-values", 1e-6)
def _am_lp(ctx):
    checks = [
        (3, 1.0, 3.0),            # both routes meet at the dimension
        (4, 1.5, 4.0),
        (3, 2.0, 3.0),
        (4, 3.0, 4.0 ** (2.0 / 3.0)),
    ]
    worst = 0.0
    for n, p, expected in checks:
        br = gm.am_pointwise(n, lt.lp_norm(p, n))
        worst = max(worst, abs(br.lower - expected), abs(br.upper - expected))
    return _result("frozen lp diagonal values", f"max deviation {worst:.3g}", worst <= 1e-6)


@case("am-quotient-monotone", "coordinate-quotient-bound", 1e-9)
def _am_quotient(ctx):
    reports = [
        gm.verify_quotient_bound(lt.lp_norm(2.0, 4), [0, 1]),
        gm.verify_quotient_bound(lt.lp_norm(2.0, 3), [0, 1, 2]),
        gm.verify_quotient_bound(lt.sup_norm(5), [1, 3]),
    ]
    ok = all(r["ok"] for r in reports)
    return _result("upper bounds contract", "ok" if ok else "violated", ok)


@case("am-scaling-covariance", "norm-rescaling", 1e-6)
def _am_scaling(ctx):
    base = gm.am_pointwise(3, lt.sup_norm(3))
    scaled = gm.am_pointwise(3, lt.weighted_sup([2.0, 2.0, 2.0]))
    got = [scaled.lower, scaled.upper]
    expected = [4 * base.lower, 4 * base.upper]
    worst = max(abs(g - e) for g, e in zip(got, expected))
    return _result(expected, got, worst <= 1e-6)


# ---------------------------------------------------------------------------
# J-sums
# ---------------------------------------------------------------------------

def _random_system(rng, max_levels=8, max_dim=3):
    dims = [0] + [int(rng.integers(1, max_dim + 1)) for _ in range(int(rng.integers(2, max_levels)))]
    bonds = []
    for lo, hi in zip(dims, dims[1:]):
        raw = rng.standard_normal((hi, lo)) + 1j * rng.standard_normal((hi, lo))
        if raw.size:
            top = np.linalg.svd(raw, compute_uv=False)
            if top.size and top[0] > 0:
                raw = raw / (top[0] * (1.0 + rng.random()))
        bonds.append(raw)
    return js.JSystem(dims, bonds)


def _random_element(rng, system, support=8):
    coords = [np.zeros(d, complex) for d in system.dims]
    top = system.top
    picks = rng.choice(np.arange(1, top + 1), size=min(support, top), replace=False)
    for n in picks:
        d = system.dims[n]
        coords[n] = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return js.JElement(system, coords)


@case("jsum-dp-vs-enumeration", "chain-programming-exactness", 1e-12)
def _jsum_dp(ctx):
    rng = ctx.rng()
    worst = 0.0
    bound_failures = 0
    for _ in range(500):
        system = _random_system(rng)
        x = _random_element(rng, system)
        a = js.jnorm(x)
        b = js.jnorm_bruteforce(x)
        worst = max(worst, abs(a - b))
        for n in range(1, system.top + 1):
            if np.linalg.norm(x.coords[n]) > a * (1 + 1e-9) + 1e-12:
                bound_failures += 1
        for _ in range(5):
            size = int(rng.integers(1, system.top + 2))
            chain = sorted(rng.choice(system.top + 2, size=size, replace=False))
            s = js.sigma(x, chain)
            r = js.rho(x, chain)
            if not (s <= r * (1 + 1e-12) and r <= np.sqrt(2) * a * (1 + 1e-9) + 1e-12):
                bound_failures += 1
    ok = worst <= 1e-12 and bound_failures == 0
    return _result("agreement to 1e-12", f"max gap {worst:.3g}, {bound_failures} bound failures", ok)


@case("jsum-singleton-isometry", "single-level-embedding", 1e-12)
def _jsum_singleton(ctx):
    rng = ctx.rng()
    worst = 0.0
    for _ in range(100):
        system = _random_system(rng)
        n = int(rng.integers(1, system.top + 1))
        v = rng.standard_normal(system.dims[n]) + 1j * rng.standard_normal(system.dims[n])
        x = js.JElement.from_support(system, {n: v})
        worst = max(worst, abs(js.jnorm(x) - np.linalg.norm(v)))
    return _result("<= 1e-12", worst, worst <= 1e-12)


@case("jsum-chain-values", "variation-hand-values", 1e-12)
def _jsum_chains(ctx):
    system = js.JSystem([0, 1, 1], [np.zeros((1, 0)), np.eye(1)])
    x = js.JElement(system, [[], [1.0], [1.0]])
    vals = [
        (js.sigma(x, [0, 1, 2]), 1.0),
        (js.rho(x, [0, 1, 2]), np.sqrt(2.0)),
        (js.jnorm(x), 1.0),
        (js.jnorm_bruteforce(x, horizon=3), 1.0),
        (js.sigma(js.JElement(system, [[], [0.0], [0.0]]), [0, 2]), 0.0),
    ]
    sys2 = js.JSystem([0, 2, 2], [np.zeros((2, 0)), np.eye(2)])
    v = np.array([0.6, -0.8])
    y = js.JElement.from_support(sys2, {2: v})
    vals.append((js.sigma(y, [0, 2]), 1.0))
    vals.append((js.rho(y, [0, 2]), np.sqrt(2.0)))
    worst = max(abs(a - b) for a, b in vals)
    return _result("<= 1e-12", worst, worst <= 1e-12)


@case("jsum-horizon-stability", "enumeration-horizon-regression", 1e-12)
def _jsum_horizon(ctx):
    rng = ctx.rng()
    worst = 0.0
    for _ in range(40):
        system = _random_system(rng, max_levels=6)
        x = _random_element(rng, system, support=5)
        a = js.jnorm(x)
        b = js.jnorm_bruteforce(x, horizon=system.top + 5)
        worst = max(worst, abs(a - b))
    return _result("<= 1e-12", worst, worst <= 1e-12)


def _scalar_algebra_system(rng, levels):
    dims = [0] + [1] * levels
    bonds = [np.zeros((1, 0))] + [np.eye(1) * float(rng.integers(0, 2)) for _ in range(levels - 1)]
    structures = [np.zeros((0, 0, 0))] + [np.ones((1, 1, 1)) for _ in range(levels)]
    return js.JSystem(dims, bonds, structures=structures)


def _c2_algebra_system(rng, levels):
    dims = [0] + [2] * levels
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    proj = np.diag([1.0, 0.0])
    shift = np.array([[0.0, 0.0], [1.0, 0.0]])
    choices = [np.eye(2), swap, proj, shift, np.zeros((2, 2))]
    bonds = [np.zeros((2, 0))] + [choices[rng.integers(0, len(choices))] for _ in range(levels - 1)]
    cube = np.zeros((2, 2, 2))
    cube[0, 0, 0] = 1.0
    cube[1, 1, 1] = 1.0
    structures = [np.zeros((0, 0, 0))] + [cube for _ in range(levels)]
    return js.JSystem(dims, bonds, structures=structures)


@case("jsum-product-bounds", "variation-product-inequalities", 1e-9)
def _jsum_products(ctx):
    rng = ctx.rng()
    triple_failures = 0
    norm_failures = 0
    triples = 0
    for trial in range(250):
        levels = int(rng.integers(3, 7))
        system = _scalar_algebra_system(rng, levels) if trial % 2 else _c2_algebra_system(rng, levels)
        x = _random_element(rng, system, support=levels)
        y = _random_element(rng, system, support=levels)
        xy = x.multiply(y)
        sx, sy = x.sup_norm(), y.sup_norm()
        for _ in range(20):
            size = int(rng.integers(1, system.top + 2))
            chain = sorted(rng.choice(system.top + 2, size=size, replace=False))
            lhs = js.sigma(xy, chain)
            rhs = sy * js.sigma(x, chain) + sx * js.sigma(y, chain)
            triples += 1
            if lhs > rhs * (1 + 1e-9) + 1e-12:
                triple_failures += 1
        if js.jnorm(xy) > js.MUL_BOUND * js.jnorm(x) * js.jnorm(y) * (1 + 1e-9) + 1e-12:
            norm_failures += 1
    ok = triple_failures == 0 and norm_failures == 0 and triples >= 5000
    return _result("0 violations", f"{triple_failures}+{norm_failures} violations on {triples} triples", ok)


@case("jsum-limit-seminorm", "coherent-tail-limit", 1e-9)
def _jsum_omega(ctx):
    rng = ctx.rng()
    ok = True
    ident = js.JSystem([0] + [2] * 6, [np.zeros((2, 0))] + [np.eye(2)] * 5)
    v = np.array([1.0, 2.0])
    rep = js.omega_seminorm(ident, [[], v], 1, 6)
    ok &= abs(rep["value"] - np.linalg.norm(v)) <= 1e-12 and rep["error_bar"] <= 1e-12
    halving = js.JSystem([0] + [1] * 41, [np.zeros((1, 0))] + [np.eye(1) * 0.5] * 40)
    rep2 = js.omega_seminorm(halving, [[], [1.0]], 1, 41 - 1)
    ok &= rep2["value"] <= 1e-11
    theta = 0.7
    rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    rotating = js.JSystem([0] + [2] * 8, [np.zeros((2, 0))] + [rot] * 7)
    w = np.array([0.3, -1.1])
    rep3 = js.omega_seminorm(rotating, [[], w], 1, 8)
    ok &= abs(rep3["value"] - np.linalg.norm(w)) <= 1e-12
    sub = js.omega_submult_check(_c2_algebra_system(rng, 6), samples=300, rng=rng)
    ok &= sub["ok"]
    return _result("tail limits and submultiplicativity", "ok" if ok else "violated", ok)


@case("jsum-window-monotonicity", "nested-window-inequality", 1e-9)
def _jsum_windows(ctx):
    rng = ctx.rng()
    system = js.JSystem([0, 1, 1], [np.zeros((1, 0)), np.eye(1)])
    x = js.JElement(system, [[], [1.0], [1.0]])
    inner = js.jnorm(js.JElement(system, [[], [0.0], [1.0]]))
    rep0 = js.bimonotone_check(x, samples=20, rng=rng)
    ok = rep0["ok"] and abs(inner - 1.0) <= 1e-12
    for _ in range(100):
        system = _random_system(rng, max_levels=7)
        y = _random_element(rng, system, support=6)
        rep = js.bimonotone_check(y, samples=10, rng=rng)
        ok &= rep["ok"]
    return _result("windows nest", "ok" if ok else "violated", ok)


# ---------------------------------------------------------------------------
# Derivations and weak amenability
# ---------------------------------------------------------------------------

@case("wa-pointwise-zero", "idempotent-coordinates-rigidity", 0.0)
def _wa_pointwise(ctx):
    dims = []
    for n in range(1, 9):
        rep = dv.derivation_space(es.pointwise_algebra(n))
        dims.append(rep.dim_derivations)
        if not rep.weakly_amenable:
            return _result("all zero", f"n={n} not weakly amenable", False)
    ok = all(d == 0 for d in dims)
    return _result([0] * 8, dims, ok)


@case("wa-matrix-algebra", "full-matrix-derivations", 0.0)
def _wa_matrix(ctx):
    alg = es.matrix_units_algebra(2)
    rep = dv.derivation_space(alg)
    wa, _ = dv.is_weakly_amenable(alg, rep)
    got = [rep.dim_derivations, rep.dim_inner, rep.center_annihilator_dim, wa]
    ok = got == [3, 3, 1, True] and dv.essential_check(alg)
    return _result([3, 3, 1, True], got, ok)


@case("wa-square-zero", "nilpotent-obstruction", 0.0)
def _wa_square_zero(ctx):
    alg = es.square_zero_algebra()
    rep = dv.derivation_space(alg)
    wa, cert = dv.is_weakly_amenable(alg, rep)
    got = [rep.dim_derivations, rep.dim_inner, wa, dv.essential_check(alg)]
    ok = got == [1, 0, False, False] and "outside_derivation" in cert
    return _result([1, 0, False, False], got, ok)


@case("wa-esum-commutative", "commutative-sum-rigidity", 0.0)
def _wa_esum_commutative(ctx):
    lattices = [
        lt.sup_norm(3),
        lt.weighted_sup([1.0, 1.5, 2.0]),
        lt.lp_norm(1.5, 4),
        lt.orlicz_norm(lt.OrliczFunction.shifted_ramp(0.5), 3),
        lt.sup_norm(6),
    ]
    dims = []
    for lat in lattices:
        summands = [es.scalar_algebra() for _ in range(lat.index_size)]
        rep = dv.esum_wa_check(summands, lat, samples=10, seed=ctx.seed % 2 ** 32)
        dims.append(rep["sum"]["dim_derivations"])
        if not rep["ok"]:
            return _result("all zero", f"check failed: {rep['failures']}", False)
    ok = all(d == 0 for d in dims)
    return _result([0] * len(lattices), dims, ok)


@case("wa-esum-offender", "failure-passes-to-summands", 0.0)
def _wa_esum_offender(ctx):
    summands = [es.scalar_algebra(), es.square_zero_algebra(), es.scalar_algebra()]
    rep = dv.esum_wa_check(summands, lt.sup_norm(3), samples=10, seed=ctx.seed % 2 ** 32)
    got = rep.get("offending_summands")
    ok = (not rep["sum"]["weakly_amenable"]) and got == [1]
    return _result([1], got, ok)


@case("wam-linf-copies", "max-sum-constant-stability", 0.1)
def _wam_copies(ctx):
    seed = ctx.seed % 2 ** 32
    m2 = es.matrix_units_algebra(2)
    single = dv.wam_bracket(m2, samples=150, seed=seed)
    devs = []
    offblocks = []
    for copies in (2, 3):
        summands = [es.matrix_units_algebra(2) for _ in range(copies)]
        rep = dv.esum_wa_check(summands, lt.sup_norm(copies), samples=150, seed=seed)
        if not rep["ok"]:
            return _result("stable", f"failures: {rep['failures']}", False)
        devs.append(abs(rep["bracket_sum"]["lower"] - single["lower"]) / single["lower"])
        offblocks.append(rep["max_off_block"])
    ok = max(devs) <= 0.1 and max(offblocks) <= 1e-9
    return _result("within 10%, block-diagonal", f"dev={max(devs):.3g}, off={max(offblocks):.3g}", ok)


@case("wam-transfer-bound", "embedding-transfer", 1e-9)
def _wam_transfer(ctx):
    seed = ctx.seed % 2 ** 32
    summands = [es.matrix_units_algebra(2), es.matrix_units_algebra(2)]
    rep = dv.wa_quotient_transfer_check(summands, lt.weighted_sup([1.0, 2.0]), samples=80, seed=seed)
    zero = dv.wa_quotient_transfer_check(
        [es.scalar_algebra(), es.scalar_algebra()], lt.sup_norm(2), samples=10, seed=seed
    )
    ok = rep["ok"] and zero["ok"]
    return _result("transfer bounds hold", "ok" if ok else "violated", ok)


@case("wa-psum-growth", "per-coordinate-growth-floor", 1e-8)
def _wa_psum(ctx):
    m2 = es.matrix_units_algebra(2)
    psi = np.zeros(4)
    psi[1] = 1.0   # the (1,2) matrix-unit functional
    ok = True
    worst = 0.0
    for p in (1.5, 2.0, 3.0):
        rep = dv.lp_obstruction_demo(m2, psi, p, [2, 4, 8])
        ok &= rep["ok"]
        for row in rep["rows"]:
            gap = min(np.array(row["per_coordinate"]) - np.array(row["floor"]))
            worst = min(worst, float(gap))
    return _result("floors hold, aggregates grow", f"min slack {worst:.3g}", ok)


# ---------------------------------------------------------------------------
# Runner and reports
# ---------------------------------------------------------------------------

def verify_all(seed=0):
    """Run every case with the master seed; per-case errors are contained."""
    rows = []
    for spec in sorted(CASES, key=lambda c: c["id"]):
        ctx = CaseContext(seed, spec["id"])
        try:
            out = spec["runner"](ctx)
            row = {
                "case_id": spec["id"],
                "anchor": spec["anchor"],
                "expected": out["expected"],
                "got": out["got"],
                "tol": spec["tol"],
                "status": "pass" if out["ok"] else "fail",
            }
        except Exception as exc:  # fault isolation: one bad case never aborts the suite
            row = {
                "case_id": spec["id"],
                "anchor": spec["anchor"],
                "expected": "run to completion",
                "got": f"{type(exc).__name__}: {exc}",
                "tol": spec["tol"],
                "status": "error",
            }
        rows.append(row)
    passed = all(r["status"] == "pass" for r in rows)
    return {"seed": seed, "passed": passed, "cases": rows}


def report_json(report):
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def report_csv(report):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["case_id", "anchor", "expected", "got", "tol", "status"])
    for row in report["cases"]:
        writer.writerow([row["case_id"], row["anchor"], row["expected"],
                         row["got"], row["tol"], row["status"]])
    return buf.getvalue()


def emit_tables(report, out_dir, formats=("csv", "json")):
    """Write the CSV table and/or its JSON mirror; returns the paths."""
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    if "json" in formats:
        path = os.path.join(out_dir, "verify_report.json")
        with open(path, "w") as fh:
            fh.write(report_json(report))
        paths.append(path)
    if "csv" in formats:
        path = os.path.join(out_dir, "verify_report.csv")
        with open(path, "w") as fh:
            fh.write(report_csv(report))
        paths.append(path)
    return paths
