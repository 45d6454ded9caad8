import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from esum_lab import lattice as lt


def ramp_inverse(a, s):
    # solve (t - a) / (1 - a) = s by hand
    return a + s * (1.0 - a) if s > 0 else 0.0


# ---------------------------------------------------------------------------
# Bisection oracles: the iterative kernels the closed forms replaced
# ---------------------------------------------------------------------------

def _bisect_inverse(phi, s, iters=200, horizon=1e18):
    """inf{t >= 0 : phi(t) >= s} by bisection against the monotone evaluator."""
    if s == 0.0:
        return 0.0
    hi = max(1.0, phi.a_phi + 1.0)
    while float(phi(hi)) < s:
        hi *= 2.0
        if hi > horizon:
            raise lt.UnreachableLevelError(f"phi does not reach level {s}")
    lo = 0.0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if float(phi(mid)) >= s:
            hi = mid
        else:
            lo = mid
        if hi - lo <= 1e-16 * max(hi, 1.0):
            break
    return hi


def _bisect_luxemburg(phi, rows, iters=200, rel_tol=1e-14):
    """Luxemburg norms of the rows by vector bisection on lam, inside the
    bracket [m / phi_inv(1), m / phi_inv(1/n)] with m the row maximum."""
    rows = np.asarray(rows, dtype=float)
    m = rows.max(axis=1)
    out = np.zeros(len(rows))
    active = m > 0
    if not np.any(active):
        return out
    r, ma = rows[active], m[active]
    lo = ma / _bisect_inverse(phi, 1.0)
    hi = ma / _bisect_inverse(phi, 1.0 / rows.shape[1])

    def budget(lam):
        return phi(r / lam[:, None]).sum(axis=1)

    # flat segments of phi: push lo down until it is infeasible
    for _ in range(80):
        feasible = budget(lo) <= 1.0
        if not np.any(feasible):
            break
        lo = np.where(feasible, lo * 0.5, lo)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        ok = budget(mid) <= 1.0
        hi = np.where(ok, mid, hi)
        lo = np.where(ok, lo, mid)
        if np.all(hi - lo <= rel_tol * hi):
            break
    out[active] = hi
    return out


class TestOrliczFunction:
    def test_power_inverse_values(self):
        phi = lt.OrliczFunction.power(2.0)
        assert abs(lt.generalized_inverse(phi, 1.0) - 1.0) <= 1e-12
        assert abs(lt.generalized_inverse(phi, 0.25) - 0.5) <= 1e-12
        assert lt.generalized_inverse(phi, 0.0) == 0.0

    def test_ramp_inverse_matches_analytic(self):
        phi = lt.OrliczFunction.shifted_ramp(0.5)
        for n in (2, 10, 1000):
            got = lt.generalized_inverse(phi, 1.0 / n)
            assert abs(got - ramp_inverse(0.5, 1.0 / n)) <= 1e-12
        assert abs(lt.generalized_inverse(phi, 1.0 / 10) - 0.55) <= 1e-12

    def test_inverse_monotone(self):
        phi = lt.OrliczFunction.shifted_ramp(0.25)
        levels = np.linspace(0.01, 2.0, 40)
        vals = [lt.generalized_inverse(phi, s) for s in levels]
        assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))

    def test_inverse_level_reached(self):
        phi = lt.OrliczFunction.power(2.0)
        for s in (0.3, 1.0, 7.0):
            t = lt.generalized_inverse(phi, s)
            assert float(phi(t)) >= s - 1e-9

    def test_unreachable_level(self):
        phi = lt.OrliczFunction.from_table([(0, 0), (1, 1), (2, 1)])
        with pytest.raises(lt.UnreachableLevelError):
            lt.generalized_inverse(phi, 2.0)
        with pytest.raises(lt.UnreachableLevelError):
            lt.generalized_inverse(phi, 1.0 + 1e-12)
        assert lt.generalized_inverse(phi, 1.0) == 1.0   # left end of the flat tail

    def test_negative_level_rejected(self):
        with pytest.raises(ValueError):
            lt.generalized_inverse(lt.OrliczFunction.power(2.0), -1.0)

    def test_degeneracy_points(self):
        assert lt.OrliczFunction.power(3.0).a_phi == 0.0
        assert lt.OrliczFunction.shifted_ramp(0.3).a_phi == 0.3
        table = lt.OrliczFunction.from_table([(0, 0), (0.4, 0), (1, 1)])
        assert table.a_phi == 0.4
        immediate = lt.OrliczFunction.from_table([(0, 0), (1, 1)])
        assert immediate.a_phi == 0.0

    def test_table_validation(self):
        with pytest.raises(lt.LatticeSpecError):
            lt.OrliczFunction.from_table([(0, 0), (1, 2), (2, 1)])  # not monotone
        with pytest.raises(lt.LatticeSpecError):
            lt.OrliczFunction.from_table([(0.5, 0), (1, 1)])        # missing origin
        with pytest.raises(lt.LatticeSpecError):
            lt.OrliczFunction.from_table([(0, 0)])

    def test_table_extrapolates_linearly(self):
        phi = lt.OrliczFunction.from_table([(0, 0), (1, 1)])
        assert abs(float(phi(3.0)) - 3.0) <= 1e-12


class TestSpecValidation:
    def test_weights_below_one_rejected(self):
        with pytest.raises(lt.LatticeSpecError):
            lt.weighted_sup([0.5, 1.0])

    def test_lp_exponent_range(self):
        with pytest.raises(lt.LatticeSpecError):
            lt.lp_norm(0.5, 3)
        with pytest.raises(lt.LatticeSpecError):
            lt.lp_norm(np.inf, 3)

    def test_orlicz_admissibility_gate(self):
        # phi(1) < 1 would let coordinate spikes have norm below 1
        weak = lt.OrliczFunction.from_table([(0, 0), (2, 1)])
        with pytest.raises(lt.LatticeSpecError):
            lt.orlicz_norm(weak, 4)
        # flat at level 1 past t = 1 breaks sup-norm domination too
        flat = lt.OrliczFunction.from_table([(0, 0), (1, 1), (3, 1), (4, 2)])
        with pytest.raises(lt.LatticeSpecError):
            lt.orlicz_norm(flat, 4)

    def test_non_convex_table_refused(self):
        # Monotone tables whose slopes decrease: the first gave the AM
        # bracket [3.75, 3.0] at n = 3, the second chi_norm(spec, 2) = 2.0
        # against a norm of 1.25 for [1, 1].  from_table keeps accepting them.
        for points in ([(0, 0), (0.8, 1), (1, 1), (2, 4)],
                       [(0, 0), (0.5, 0.5), (0.8, 0.5), (1, 1), (2, 4)]):
            phi = lt.OrliczFunction.from_table(points)
            with pytest.raises(lt.LatticeSpecError, match="convex"):
                lt.orlicz_norm(phi, 3)
        # phi(t) = 3t on uneven nodes: the computed slopes dip by a few ulps
        line = lt.OrliczFunction.from_table([(t, 3.0 * t) for t in (0, 0.5, 0.8, 0.9, 1.0)])
        ts, ys, _ = line.nodes
        slopes = np.diff(ys) / np.diff(ts)
        assert np.any(slopes[1:] < slopes[:-1])
        assert lt.orlicz_norm(line, 3).phi is line

    def test_vector_validation(self):
        spec = lt.lp_norm(2, 3)
        with pytest.raises(ValueError):
            lt.norm_eval(spec, [1.0, 2.0])
        with pytest.raises(ValueError):
            lt.norm_eval(spec, [1.0, np.nan, 0.0])
        with pytest.raises(ValueError):
            lt.norm_eval(spec, [1.0, np.inf, 0.0])

    def test_chi_size_range(self):
        spec = lt.sup_norm(4)
        with pytest.raises(ValueError):
            lt.chi_norm(spec, 0)
        with pytest.raises(ValueError):
            lt.chi_norm(spec, 5)


class TestNormEval:
    def test_family_values(self):
        assert lt.norm_eval(lt.lp_norm(2, 4), [1, 1, 1, 1]) == 2.0
        assert lt.norm_eval(lt.weighted_sup([1, 2, 3]), [1, 1, 1]) == 3.0
        assert lt.norm_eval(lt.sup_norm(3), [1, -5, 2]) == 5.0

    def test_luxemburg_indicator(self):
        phi = lt.OrliczFunction.shifted_ramp(0.5)
        spec = lt.orlicz_norm(phi, 4)
        got = lt.norm_eval(spec, [1, 1, 1, 1])
        assert abs(got - 1.6) <= 1e-9

    def test_zero_vector(self):
        for spec in (lt.sup_norm(3), lt.lp_norm(2, 3),
                     lt.orlicz_norm(lt.OrliczFunction.power(2), 3)):
            assert lt.norm_eval(spec, [0, 0, 0]) == 0.0

    def test_complex_entries_use_modulus(self):
        spec = lt.lp_norm(2, 2)
        assert abs(lt.norm_eval(spec, [3j, 4]) - 5.0) <= 1e-12

    def test_power_orlicz_matches_lp(self):
        rng = np.random.default_rng(5)
        for p in (1.5, 2.0, 3.0):
            ospec = lt.orlicz_norm(lt.OrliczFunction.power(p), 5)
            lspec = lt.lp_norm(p, 5)
            for _ in range(20):
                x = rng.standard_normal(5)
                assert abs(lt.norm_eval(ospec, x) - lt.norm_eval(lspec, x)) <= 1e-9


class TestChiAndCe:
    def test_lp_chi_exact(self):
        for p in (1.0, 1.5, 2.0, 3.0):
            spec = lt.lp_norm(p, 16)
            for n in (1, 2, 4, 16):
                assert lt.chi_norm(spec, n) == float(n) ** (1.0 / p)

    def test_sup_chi(self):
        spec = lt.sup_norm(6)
        assert all(lt.chi_norm(spec, n) == 1.0 for n in range(1, 7))

    def test_weighted_chi_worst_case(self):
        spec = lt.weighted_sup([1.0, 3.0, 2.0])
        for n in (1, 2, 3):
            assert lt.chi_norm(spec, n) == 3.0
            ind = lt.worst_indicator(spec, n)
            assert lt.norm_eval(spec, ind) == 3.0

    def test_orlicz_chi_closed_form(self):
        phi = lt.OrliczFunction.shifted_ramp(0.5)
        spec = lt.orlicz_norm(phi, 8)
        assert abs(lt.chi_norm(spec, 4) - 1.6) <= 1e-12
        phi2 = lt.OrliczFunction.power(2.0)
        spec2 = lt.orlicz_norm(phi2, 9)
        assert abs(lt.chi_norm(spec2, 9) - 3.0) <= 1e-12

    def test_orlicz_chi_vs_luxemburg(self):
        for a in (0.25, 0.5):
            spec = lt.orlicz_norm(lt.OrliczFunction.shifted_ramp(a), 12)
            for n in (1, 2, 5, 12):
                closed = lt.chi_norm(spec, n)
                direct = lt.norm_eval(spec, lt.worst_indicator(spec, n))
                assert abs(closed - direct) <= 1e-9

    def test_ce_sup(self):
        rep = lt.ce_constant(lt.sup_norm(10))
        assert rep.value == 1.0 and rep.bounded and rep.limit == 1.0

    def test_ce_weighted(self):
        rep = lt.ce_constant(lt.weighted_sup([1, 2, 3]))
        assert rep.value == 3.0 and rep.bounded and rep.limit == 3.0

    def test_ce_lp_divergent(self):
        rep = lt.ce_constant(lt.lp_norm(2.0, 16))
        assert rep.value == 4.0 and not rep.bounded and rep.limit is None

    def test_ce_orlicz_bounded(self):
        rep = lt.ce_constant(lt.orlicz_norm(lt.OrliczFunction.shifted_ramp(0.25), 50))
        assert rep.bounded and rep.limit == 4.0
        assert rep.value <= 4.0

    def test_ce_orlicz_divergent(self):
        rep = lt.ce_constant(lt.orlicz_norm(lt.OrliczFunction.power(2.0), 9))
        assert not rep.bounded and rep.value == 3.0

    def test_orlicz_limit_attained_at_large_horizon(self):
        for a in (0.25, 0.5):
            spec = lt.orlicz_norm(lt.OrliczFunction.shifted_ramp(a), 10 ** 6)
            assert abs(lt.chi_norm(spec, 10 ** 6) - 1.0 / a) <= 1e-4

    def test_delta_norms(self):
        assert lt.delta_norm(lt.sup_norm(3), 1) == 1.0
        assert lt.delta_norm(lt.weighted_sup([1, 2, 3]), 2) == 3.0
        assert lt.delta_norm(lt.lp_norm(2, 3), 0) == 1.0
        ospec = lt.orlicz_norm(lt.OrliczFunction.shifted_ramp(0.5), 3)
        assert abs(lt.delta_norm(ospec, 0) - 1.0) <= 1e-12


def _spec_strategy(n):
    ramp = st.sampled_from([0.25, 0.4, 0.5, 0.75])
    return st.one_of(
        st.just(lt.sup_norm(n)),
        st.builds(lambda ws: lt.weighted_sup(1.0 + np.asarray(ws)),
                  st.lists(st.floats(0, 3), min_size=n, max_size=n)),
        st.builds(lambda p: lt.lp_norm(p, n), st.sampled_from([1.0, 1.5, 2.0, 4.0])),
        st.builds(lambda a: lt.orlicz_norm(lt.OrliczFunction.shifted_ramp(a), n), ramp),
    )


finite_entry = st.floats(min_value=-50, max_value=50, allow_nan=False)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(spec=_spec_strategy(4),
       x=st.lists(finite_entry, min_size=4, max_size=4),
       y=st.lists(finite_entry, min_size=4, max_size=4))
def test_pointwise_submultiplicativity(spec, x, y):
    x, y = np.asarray(x), np.asarray(y)
    lhs = lt.norm_eval(spec, x * y)
    assert lhs <= lt.norm_eval(spec, x) * lt.norm_eval(spec, y) * (1 + 1e-9) + 1e-12


def _dual_spec_strategy(n):
    return st.one_of(
        st.just(lt.sup_norm(n)),
        st.builds(lambda ws: lt.weighted_sup(1.0 + np.asarray(ws)),
                  st.lists(st.floats(0, 3), min_size=n, max_size=n)),
        st.builds(lambda p: lt.lp_norm(p, n), st.floats(1.0, 6.0)),
    )


complex_row = st.lists(st.tuples(finite_entry, finite_entry), min_size=4, max_size=4).map(
    lambda pairs: np.array([complex(re, im) for re, im in pairs]))


@settings(max_examples=120, deadline=None, derandomize=True)
@given(spec=_dual_spec_strategy(4), rows=st.lists(complex_row, min_size=1, max_size=4),
       x=complex_row)
def test_dual_norm_holder_and_extremal(spec, rows, x):
    rows = np.array(rows)
    duals = lt.dual_norm_batch(spec, rows)
    for f, dual in zip(rows, duals):
        assert lt.dual_norm_batch(spec, f[None, :])[0] == dual
        assert abs(f @ x) <= dual * lt.norm_eval(spec, x) * (1 + 1e-9) + 1e-12
        extremal = lt.dual_extremal(spec, f)
        assert lt.norm_eval(spec, extremal) <= 1.0 + 1e-12
        assert abs(f @ extremal - dual) <= 1e-9 * dual + 1e-12


def test_dual_norm_values():
    f = np.array([[1.0, -2.0, 2.0]])
    assert lt.dual_norm_batch(lt.sup_norm(3), f)[0] == 5.0
    assert lt.dual_norm_batch(lt.weighted_sup([1, 2, 4]), f)[0] == 2.5
    assert abs(lt.dual_norm_batch(lt.lp_norm(2.0, 3), f)[0] - 3.0) <= 1e-12
    assert lt.dual_norm_batch(lt.lp_norm(1.0, 3), f)[0] == 2.0
    # q = 1001 and 10001: the entries are scaled by the row maximum before
    # the power, so they neither overflow nor underflow
    assert abs(lt.dual_norm_batch(lt.lp_norm(1.001, 2), [[50.0, 1.0]])[0] - 50.0) <= 1e-12
    assert abs(lt.dual_norm_batch(lt.lp_norm(1.0001, 2), [[0.5, 0.25]])[0] - 0.5) <= 1e-15
    ramp = lt.orlicz_norm(lt.OrliczFunction.shifted_ramp(0.5), 2)
    with pytest.raises(NotImplementedError):
        lt.dual_norm_batch(ramp, np.ones((1, 2)))
    with pytest.raises(NotImplementedError):
        lt.dual_vs_l2(ramp)
    with pytest.raises(NotImplementedError):
        lt.dual_extremal(ramp, np.ones(2))


@pytest.mark.parametrize("spec", [lt.sup_norm(4), lt.weighted_sup([1.0, 2.5, 1.0, 4.0]),
                                  lt.lp_norm(1.0, 4), lt.lp_norm(1.5, 4)], ids=repr)
def test_stacked_dual_extremal_matches_single_rows(spec):
    """dual_extremal on a (2, 3, 4) stack equals its calls on single rows,
    zero rows and tied moduli included; under l1 a tie goes to the first
    largest modulus."""
    rng = np.random.default_rng(4)
    f = rng.standard_normal((2, 3, 4)) + 1j * rng.standard_normal((2, 3, 4))
    f[0, 1] = 0.0
    f[1, 0] = [0.5, -2.0, 2.0j, 2.0]
    f[1, 2, :2] = 0.0
    stacked = lt.dual_extremal(spec, f)
    assert stacked.shape == f.shape
    for k in np.ndindex(2, 3):
        assert np.array_equal(stacked[k], lt.dual_extremal(spec, f[k]))
    if spec.kind == "lp" and spec.p == 1.0:
        assert np.flatnonzero(stacked[1, 0]).tolist() == [1]
        assert np.array_equal(stacked[0, 1], [1.0, 0.0, 0.0, 0.0])
    ramp = lt.orlicz_norm(lt.OrliczFunction.shifted_ramp(0.5), 4)
    with pytest.raises(NotImplementedError):
        lt.dual_extremal(ramp, f)


def test_sup_is_unit_weighted_sup():
    """The sup norm and the weighted sup norm with unit weights agree bit
    for bit in every closed form."""
    from esum_lab import gamma as gm

    rng = np.random.default_rng(12)
    for n in range(1, 7):
        sup, unit = lt.sup_norm(n), lt.weighted_sup(np.ones(n))
        rows = rng.standard_normal((5, n)) + 1j * rng.standard_normal((5, n))
        assert np.array_equal(lt.norm_eval_batch(sup, rows), lt.norm_eval_batch(unit, rows))
        assert np.array_equal(lt.dual_norm_batch(sup, rows), lt.dual_norm_batch(unit, rows))
        for f in rows:
            assert np.array_equal(lt.dual_extremal(sup, f), lt.dual_extremal(unit, f))
        assert lt.dual_vs_l2(sup) == lt.dual_vs_l2(unit)
        assert np.array_equal(lt.coordinate_ball_sup(sup), lt.coordinate_ball_sup(unit))
        for i in range(n):
            assert lt.delta_norm(sup, i) == lt.delta_norm(unit, i)
            assert lt.chi_norm(sup, i + 1) == lt.chi_norm(unit, i + 1)
            assert np.array_equal(lt.worst_indicator(sup, i + 1),
                                  lt.worst_indicator(unit, i + 1))
        s_sup, x_sup = lt.max_square_sum(sup)
        s_unit, x_unit = lt.max_square_sum(unit)
        assert s_sup == s_unit and np.array_equal(x_sup, x_unit)
        assert lt.ce_constant(sup).as_dict() == lt.ce_constant(unit).as_dict()
        b_sup, b_unit = gm.am_pointwise(n, sup), gm.am_pointwise(n, unit)
        assert (b_sup.lower, b_sup.upper) == (b_unit.lower, b_unit.upper)
        assert b_sup.witness_lower[2] == b_unit.witness_lower[2]
        assert b_sup.witness_upper[2] == b_unit.witness_upper[2]


def test_restrict_spec():
    spec = lt.weighted_sup([1.0, 2.0, 3.0])
    sub = lt.restrict_spec(spec, [0, 2])
    assert sub.kind == "weighted_sup" and list(sub.weights) == [1.0, 3.0]
    assert lt.restrict_spec(lt.lp_norm(2, 4), [1, 2]).index_size == 2
    with pytest.raises(lt.LatticeSpecError):
        lt.restrict_spec(spec, [])
    with pytest.raises(lt.LatticeSpecError):
        lt.restrict_spec(spec, [5])


def test_spec_from_dict_roundtrip():
    specs = [
        {"kind": "sup", "index_size": 3},
        {"kind": "weighted_sup", "weights": [1, 2], "index_size": 2},
        {"kind": "lp", "p": 1.5, "index_size": 4},
        {"kind": "orlicz", "phi": {"family": "shifted_ramp", "a": 0.5}, "index_size": 3},
        {"kind": "orlicz", "phi": {"family": "power", "p": 2}, "index_size": 3},
        {"kind": "orlicz", "phi": {"family": "table", "points": [[0, 0], [0.5, 0], [1, 1]]},
         "index_size": 3},
    ]
    for d in specs:
        spec = lt.spec_from_dict(d)
        assert spec.index_size == d["index_size"]
    with pytest.raises(lt.LatticeSpecError):
        lt.spec_from_dict({"kind": "nope", "index_size": 2})


# ---------------------------------------------------------------------------
# Closed-form kernels against the bisection oracles
# ---------------------------------------------------------------------------

@st.composite
def monotone_tables(draw, convex):
    """Nodes on a 0.1 grid with t = 1 among them.  Convex tables get
    nondecreasing slopes (a first slope of 0 gives a flat zero segment) and
    are scaled to phi(1) = 1, which passes the admissibility gate; monotone
    ones may have flat segments at any level, including the tail."""
    grid = draw(st.lists(st.integers(1, 30), min_size=0, max_size=4, unique=True))
    ts = np.array(sorted({0, 10, *grid})) / 10.0
    steps = draw(st.lists(st.integers(0, 4), min_size=len(ts) - 1, max_size=len(ts) - 1))
    slopes = np.cumsum(steps) if convex else np.asarray(steps)
    ys = np.concatenate([[0.0], np.cumsum(slopes * np.diff(ts))])
    one = ys[list(ts).index(1.0)]
    assume(one > 0 and ys[-1] > ys[-2] or not convex)
    if convex:
        ys = ys / one
    return lt.OrliczFunction.from_table(list(zip(ts, ys)))


orlicz_functions = st.one_of(
    st.floats(0.05, 0.95).map(lt.OrliczFunction.shifted_ramp),
    st.floats(1.0, 6.0).map(lt.OrliczFunction.power),
    monotone_tables(convex=True),
)
modulus = st.one_of(st.just(0.0), st.floats(1e-300, 1e3))


def _every_family(n):
    """sup, weighted sup, lp with p in [1, 6], and the Orlicz norms of a
    shifted ramp, a power and a convex table."""
    return st.one_of(
        st.just(lt.sup_norm(n)),
        st.builds(lambda ws: lt.weighted_sup(1.0 + np.asarray(ws)),
                  st.lists(st.floats(0, 3), min_size=n, max_size=n)),
        st.floats(1.0, 6.0).map(lambda p: lt.lp_norm(p, n)),
        orlicz_functions.map(lambda phi: lt.orlicz_norm(phi, n)),
    )


@settings(max_examples=150, deadline=None, derandomize=True)
@given(spec=_every_family(5),
       y=st.lists(st.tuples(finite_entry, finite_entry), min_size=5, max_size=5),
       shrink=st.lists(st.floats(0, 1), min_size=5, max_size=5),
       phase=st.lists(st.floats(0, 2 * np.pi), min_size=5, max_size=5))
def test_solidity_and_domination(spec, y, shrink, phase):
    """|x| <= |y| entrywise gives ||x|| <= ||y||, and ||y|| >= max |y_i|
    (the lattice dominates the sup norm), for complex x and y."""
    y = np.array([complex(re, im) for re, im in y])
    x = np.abs(y) * np.asarray(shrink) * np.exp(1j * np.asarray(phase))
    ny = lt.norm_eval(spec, y)
    nx = lt.norm_eval(spec, x)
    assert nx <= ny * (1 + 1e-9) + 1e-12
    assert ny >= np.abs(y).max() * (1 - 1e-9)
    ce = lt.ce_constant(spec).value
    assert ny <= ce * np.abs(y).max() * (1 + 1e-9) + 1e-12


@st.composite
def row_batches(draw):
    """A few rows of moduli on n = 1..6 coordinates, one of them all zero."""
    n = draw(st.integers(1, 6))
    rows = draw(st.lists(st.lists(modulus, min_size=n, max_size=n), min_size=1, max_size=6))
    return np.array(rows + [[0.0] * n])


@settings(max_examples=150, deadline=None, derandomize=True)
@given(phi=orlicz_functions, rows=row_batches())
def test_luxemburg_matches_bisection_and_stays_feasible(phi, rows):
    got = lt.luxemburg_batch(phi, rows)
    want = _bisect_luxemburg(phi, rows)
    assert got[-1] == 0.0
    assert np.all(np.abs(got - want) <= 1e-10 * want)
    live = got > 0
    # feasible side, exactly as the modular evaluates
    assert np.all(phi(rows[live] / got[live, None]).sum(axis=1) <= 1.0)
    # batched and single-row evaluation agree exactly
    for row, value in zip(rows, got):
        assert lt.luxemburg_batch(phi, row[None, :])[0] == value


@settings(max_examples=150, deadline=None, derandomize=True)
@given(phi=st.one_of(orlicz_functions, monotone_tables(convex=False)),
       level=st.floats(0.0, 1.0), node=st.integers(0, 5))
def test_inverse_matches_bisection(phi, level, node):
    ys = phi.nodes[1] if phi.nodes is not None else np.array([0.0, 1.0])
    # levels inside the range, exactly at a node value (flat segments take
    # their left end), and past the last node
    for s in (level * ys[-1], ys[min(node, len(ys) - 1)], ys[-1] + 0.5 + level):
        try:
            want = _bisect_inverse(phi, s)
        except lt.UnreachableLevelError:
            with pytest.raises(lt.UnreachableLevelError):
                lt.generalized_inverse(phi, s)
            continue
        got = lt.generalized_inverse(phi, s)
        assert abs(got - want) <= 1e-10 * max(want, 1.0)


# ---------------------------------------------------------------------------
# The piecewise-linear Luxemburg solve against the all-knots solve
# ---------------------------------------------------------------------------

def _all_knots_luxemburg(phi, rows, block=2 ** 20):
    """The all-knots solve the sorted-kink solve replaced: S(u) at every
    breakpoint t_k / x_i of every row, capped at ``top``, then one linear
    interpolation on the segment where S crosses 1 and the same nextafter
    feasibility step.  It holds rows x n x (n K + 2) floats, so it runs on
    blocks of rows; rows are independent, so blocking changes no value."""
    rows = np.asarray(rows, dtype=float)
    m = rows.max(axis=1)
    out = np.zeros(len(rows))
    active = m > 0
    r, m = rows[active], m[active]
    ts = phi.nodes[0][1:]
    top = 2.0 * max(ts[-1], 1.0)
    step = max(1, block // (rows.shape[1] * (rows.shape[1] * len(ts) + 2)))
    lams = []
    for a in range(0, len(r), step):
        rb, mb = r[a:a + step], m[a:a + step]
        unit = (rb / mb[:, None])[:, :, None]
        knots = np.full(unit.shape[:2] + ts.shape, top)
        np.divide(ts, unit, out=knots, where=ts < top * unit)
        edge = np.zeros((len(rb), 1))
        knots = np.sort(np.concatenate([edge, knots.reshape(len(rb), -1), edge + top], axis=1))
        level = phi(unit * knots[:, None, :]).sum(axis=1)
        i, j = np.arange(len(rb)), np.argmax(level > 1.0, axis=1)
        u0, u1, s0, s1 = knots[i, j - 1], knots[i, j], level[i, j - 1], level[i, j]
        lams.append(mb / (u0 + (1.0 - s0) / (s1 - s0) * (u1 - u0)))
    lam = np.concatenate(lams) if lams else np.zeros(0)
    bad = phi(r / lam[:, None]).sum(axis=1) > 1.0
    while np.any(bad):
        lam[bad] = np.nextafter(lam[bad], np.inf)
        bad[bad] = phi(r[bad] / lam[bad, None]).sum(axis=1) > 1.0
    out[active] = lam
    return out


@st.composite
def convex_tables(draw):
    """Convex tables off the 0.1 grid: random node spacings and slope
    increments, some of them 0 (collinear nodes), a first slope that may be
    positive, and phi(1) scaled to 1."""
    k = draw(st.integers(1, 5))
    gaps = draw(st.lists(st.floats(0.01, 2.0), min_size=k, max_size=k))
    steps = draw(st.lists(st.one_of(st.just(0.0), st.floats(0.01, 5.0)), min_size=k, max_size=k))
    assume(sum(steps) > 0)
    ts = np.concatenate([[0.0], np.cumsum(gaps)])
    ys = np.concatenate([[0.0], np.cumsum(np.cumsum(steps) * np.diff(ts))])
    table = lt.OrliczFunction.from_table(list(zip(ts, ys)))
    one = float(table(1.0))
    assume(one > 0)
    return lt.OrliczFunction.from_table(list(zip(ts, ys / one)))


piecewise_functions = st.one_of(
    st.floats(0.01, 0.99).map(lt.OrliczFunction.shifted_ramp),
    monotone_tables(convex=True),
    convex_tables(),
)


@st.composite
def luxemburg_rows(draw):
    """A batch of 1 to 10^4 rows on n = 1..16 coordinates from a drawn seed:
    moduli over six decades with some zeros, and among them zero rows,
    indicator rows, rows with entries near 1e-320 beside entries near 1,
    and rows lying wholly near 1e-320."""
    n = draw(st.integers(1, 16))
    count = draw(st.one_of(st.integers(1, 40), st.sampled_from([1000, 10_000])))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    rows = rng.exponential(size=(count, n)) * 10.0 ** rng.integers(-3, 4, size=(count, 1))
    rows[rng.random((count, n)) < 0.2] = 0.0
    kind = rng.integers(0, 6, size=count)
    rows[kind == 0] = 0.0
    rows[kind == 1] = rng.random(((kind == 1).sum(), n)) < 0.5
    tiny = rng.random((count, n)) < 0.5
    rows[(kind == 2)[:, None] & tiny] = 1e-320
    rows[kind == 3] = 1e-320 * rng.integers(1, 100, size=((kind == 3).sum(), n))
    return rows


@settings(max_examples=80, deadline=None, derandomize=True)
@given(phi=piecewise_functions, rows=luxemburg_rows())
def test_luxemburg_matches_all_knots_solve(phi, rows):
    """Within 4 ulp of the all-knots solve, feasible as evaluated, and
    without a RuntimeWarning, on every kind of row."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = lt.luxemburg_batch(phi, rows)
        want = _all_knots_luxemburg(phi, rows)
        live = got > 0
        assert np.array_equal(live, rows.max(axis=1) > 0)
        assert np.all(np.abs(got - want) <= 4 * np.spacing(want))
        assert np.all(phi(rows[live] / got[live, None]).sum(axis=1) <= 1.0)
