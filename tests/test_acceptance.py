"""Acceptance gate: one test per release criterion, each printing a verdict
line.  Run with ``pytest -s tests/test_acceptance.py`` to see the table."""

import time
from pathlib import Path

import numpy as np
import pytest

from esum_lab import derivations as dv
from esum_lab import esum as es
from esum_lab import gamma as gm
from esum_lab import jsum as js
from esum_lab import lattice as lt
from esum_lab.verify import report_csv, report_json, verify_all

GOLDEN_CSV = Path(__file__).parent / "data" / "verify_seed42.csv"


def verdict(name, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}" + (f"  ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


def test_criterion_1_euclidean_sharpness():
    worst = 0.0
    slowest = 0.0
    for n in range(1, 7):
        t0 = time.perf_counter()
        br = gm.am_pointwise(n, lt.lp_norm(2.0, n))
        elapsed = time.perf_counter() - t0
        slowest = max(slowest, elapsed)
        worst = max(worst, abs(br.lower - n) / n, abs(br.upper - n) / n)
    verdict("criterion 1: euclidean diagonal collapses to n (n=1..6)",
            worst <= 1e-6 and slowest < 10.0,
            f"max rel dev {worst:.2e}, slowest {slowest:.2f}s")


def test_criterion_2_sup_formula():
    worst = 0.0
    for n in range(1, 9):
        br = gm.am_pointwise(n, lt.sup_norm(n))
        worst = max(worst, abs(br.lower - 1.0), abs(br.upper - 1.0))
    verdict("criterion 2: plain sup-sum constant is 1 (n=1..8)",
            worst <= 1e-6, f"max dev {worst:.2e}")


def test_criterion_3_sandwich_30_random_specs():
    rng = np.random.default_rng(2024)
    specs = []
    while len(specs) < 30:
        n = int(rng.integers(2, 6))
        kind = len(specs) % 3
        if kind == 0:
            specs.append(lt.weighted_sup(1.0 + 2.0 * rng.random(n)))
        elif kind == 1:
            specs.append(lt.lp_norm(float(rng.choice([1.0, 1.5, 2.0, 3.0])), n))
        else:
            specs.append(lt.orlicz_norm(
                lt.OrliczFunction.shifted_ramp(float(rng.choice([0.25, 0.5]))), n))
    bad = []
    for spec in specs:
        br = gm.am_pointwise(spec.index_size, spec)
        ce = lt.ce_constant(spec).value
        if not (br.lower >= 1.0 - 1e-6 and br.upper <= ce * ce + 1e-6):
            bad.append(spec)
    verdict("criterion 3: two-sided estimate on 30 random specs (n<=5)",
            not bad, f"{len(bad)} violations")


def test_criterion_4_closed_forms():
    ok = True
    for p in (1.0, 1.5, 2.0, 3.0):
        spec = lt.lp_norm(p, 16)
        ok &= all(lt.chi_norm(spec, n) == float(n) ** (1.0 / p) for n in (1, 3, 16))
    worst = 0.0
    for a in (0.25, 0.5):
        spec = lt.orlicz_norm(lt.OrliczFunction.shifted_ramp(a), 10)
        for n in (1, 2, 7, 10):
            worst = max(worst, abs(lt.chi_norm(spec, n)
                                   - lt.norm_eval(spec, lt.worst_indicator(spec, n))))
    ok &= worst <= 1e-9
    ok &= lt.ce_constant(lt.weighted_sup([1.0, 2.5, 1.5])).value == 2.5
    limit_err = 0.0
    for a in (0.25, 0.5):
        spec = lt.orlicz_norm(lt.OrliczFunction.shifted_ramp(a), 10 ** 6)
        limit_err = max(limit_err, abs(lt.chi_norm(spec, 10 ** 6) - 1.0 / a))
    ok &= limit_err <= 1e-4
    verdict("criterion 4: indicator closed forms and uniformity constants",
            ok, f"orlicz dev {worst:.2e}, limit dev {limit_err:.2e}")


def test_criterion_5_jnorm_dp_vs_bruteforce():
    rng = np.random.default_rng(7)
    worst = 0.0
    bound_failures = 0
    iso_worst = 0.0
    for _ in range(500):
        levels = int(rng.integers(2, 9))
        dims = [0] + [int(rng.integers(1, 4)) for _ in range(levels)]
        bonds = []
        for lo, hi in zip(dims, dims[1:]):
            raw = rng.standard_normal((hi, lo)) + 1j * rng.standard_normal((hi, lo))
            if raw.size:
                s = np.linalg.svd(raw, compute_uv=False)
                if s.size and s[0] > 0:
                    raw = raw / (s[0] * (1.0 + rng.random()))
            bonds.append(raw)
        system = js.JSystem(dims, bonds)
        support = rng.choice(np.arange(1, levels + 1),
                             size=min(8, levels), replace=False)
        coords = [np.zeros(d, complex) for d in system.dims]
        for n in support:
            coords[n] = rng.standard_normal(dims[n]) + 1j * rng.standard_normal(dims[n])
        x = js.JElement(system, coords)
        a, b = js.jnorm(x), js.jnorm_bruteforce(x)
        worst = max(worst, abs(a - b))
        for n in range(1, system.top + 1):
            if np.linalg.norm(x.coords[n]) > a * (1 + 1e-9) + 1e-12:
                bound_failures += 1
        for _ in range(4):
            size = int(rng.integers(1, system.top + 2))
            chain = sorted(rng.choice(system.top + 2, size=size, replace=False))
            s_, r_ = js.sigma(x, chain), js.rho(x, chain)
            if not (s_ <= r_ * (1 + 1e-12) and r_ <= np.sqrt(2) * a * (1 + 1e-9) + 1e-12):
                bound_failures += 1
        n = int(rng.integers(1, system.top + 1))
        v = rng.standard_normal(dims[n])
        iso_worst = max(iso_worst, abs(
            js.jnorm(js.JElement.from_support(system, {n: v})) - np.linalg.norm(v)))
    ok = worst <= 1e-12 and bound_failures == 0 and iso_worst <= 1e-12
    verdict("criterion 5: chain-sum dynamic program vs enumeration (500 systems)",
            ok, f"max gap {worst:.2e}, iso {iso_worst:.2e}, {bound_failures} bound failures")


def test_criterion_6_product_bounds_ten_thousand_triples():
    rng = np.random.default_rng(8)
    cube = np.zeros((2, 2, 2))
    cube[0, 0, 0] = cube[1, 1, 1] = 1.0
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    proj = np.diag([1.0, 0.0])
    shift = np.array([[0.0, 0.0], [1.0, 0.0]])
    triples = 0
    violations = 0
    for trial in range(500):
        levels = int(rng.integers(3, 7))
        if trial % 2:
            dims = [0] + [1] * levels
            bonds = [np.zeros((1, 0))] + [np.eye(1) * float(rng.integers(0, 2))
                                          for _ in range(levels - 1)]
            structures = [np.zeros((0, 0, 0))] + [np.ones((1, 1, 1))] * levels
        else:
            dims = [0] + [2] * levels
            choices = [np.eye(2), swap, proj, shift, np.zeros((2, 2))]
            bonds = [np.zeros((2, 0))] + [choices[rng.integers(0, len(choices))]
                                          for _ in range(levels - 1)]
            structures = [np.zeros((0, 0, 0))] + [cube] * levels
        system = js.JSystem(dims, bonds, structures=structures)
        coords_x = [rng.standard_normal(d) + 1j * rng.standard_normal(d) for d in dims]
        coords_y = [rng.standard_normal(d) + 1j * rng.standard_normal(d) for d in dims]
        x = js.JElement(system, coords_x)
        y = js.JElement(system, coords_y)
        xy = x.multiply(y)
        sx, sy = x.sup_norm(), y.sup_norm()
        for _ in range(20):
            size = int(rng.integers(1, system.top + 2))
            chain = sorted(rng.choice(system.top + 2, size=size, replace=False))
            triples += 1
            if js.sigma(xy, chain) > (sy * js.sigma(x, chain)
                                      + sx * js.sigma(y, chain)) * (1 + 1e-9) + 1e-12:
                violations += 1
        if js.jnorm(xy) > js.MUL_BOUND * js.jnorm(x) * js.jnorm(y) * (1 + 1e-9) + 1e-12:
            violations += 1
    verdict("criterion 6: product variation bounds on 10^4 sampled triples",
            triples >= 10_000 and violations == 0,
            f"{triples} triples, {violations} violations")


def test_criterion_7_weak_amenability_decisions():
    ok = True
    for n in range(1, 9):
        rep = dv.derivation_space(es.pointwise_algebra(n))
        ok &= rep.dim_derivations == 0 and rep.weakly_amenable
    rep = dv.derivation_space(es.matrix_units_algebra(2))
    ok &= rep.dim_derivations == 3 and rep.dim_inner == 3 and rep.weakly_amenable
    sz = es.square_zero_algebra()
    rep = dv.derivation_space(sz)
    flag, _ = dv.is_weakly_amenable(sz, rep)
    ok &= (not flag) and (not rep.essential)
    verdict("criterion 7: weak amenability decisions (pointwise, matrix, nilpotent)", ok)


def test_criterion_8_max_sum_constant_stability():
    seed = 515
    single = dv.wam_bracket(es.matrix_units_algebra(2), samples=150, seed=seed)
    devs, offs = [], []
    for copies in (2, 3):
        rep = dv.esum_wa_check([es.matrix_units_algebra(2) for _ in range(copies)],
                               lt.sup_norm(copies), samples=150, seed=seed)
        assert rep["ok"], rep["failures"]
        devs.append(abs(rep["bracket_sum"]["lower"] - single["lower"]) / single["lower"])
        offs.append(rep["max_off_block"])
    verdict("criterion 8: max-sum constant brackets stable across copies",
            max(devs) <= 0.1 and max(offs) <= 1e-9,
            f"max dev {max(devs):.2e}, off-block {max(offs):.2e}")


def test_criterion_9_psum_growth_obstruction():
    m2 = es.matrix_units_algebra(2)
    psi = np.zeros(4)
    psi[1] = 1.0
    ok = True
    detail = []
    for p in (1.5, 2.0, 3.0):
        rep = dv.lp_obstruction_demo(m2, psi, p, [2, 4, 8])
        ok &= rep["ok"] and rep["monotone_growth"]
        ok &= all(r["per_coordinate_ok"] for r in rep["rows"])
        detail.append(f"p={p}: " + "->".join(f"{r['aggregate']:.3f}" for r in rep["rows"]))
    verdict("criterion 9: per-coordinate growth floors at truncations 2,4,8",
            ok, "; ".join(detail))


def test_criterion_10_verify_suite_deterministic():
    """Two runs at seed 42 agree, and the CSV equals the committed golden
    report; a deliberate change to the report updates that file."""
    t0 = time.perf_counter()
    first = verify_all(seed=42)
    elapsed = time.perf_counter() - t0
    second = verify_all(seed=42)
    identical = report_json(first) == report_json(second)
    csv_text, golden = report_csv(first), GOLDEN_CSV.read_text()
    changed = sorted(set(csv_text.splitlines()) ^ set(golden.splitlines()))
    statuses = {c["status"] for c in first["cases"]}
    verdict("criterion 10: verify suite deterministic, green, under 5 minutes",
            identical and first["passed"] and statuses <= {"pass"} and elapsed < 300.0,
            f"{len(first['cases'])} cases in {elapsed:.0f}s, statuses {sorted(statuses)}")
    verdict("criterion 10: verify report at seed 42 equals tests/data/verify_seed42.csv",
            csv_text == golden, "; ".join(changed) or "same rows, different order")
