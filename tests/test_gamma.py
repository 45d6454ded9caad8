import importlib.util
import itertools
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from esum_lab import gamma as gm
from esum_lab import lattice as lt

# convex tables: the one of the diag-orlicz benchmark, one with a different
# middle node, and one whose square-sum S = 1 is attained by a single
# coordinate at 1, so that AM = n
DIAG_ORLICZ_TABLE = [(0, 0), (0.3, 0), (0.6, 0.3), (1, 1), (2, 4)]
MIDDLE_TABLE = [(0, 0), (0.3, 0), (0.7, 0.4), (1, 1), (2, 4)]
UNIT_S_TABLE = [(0, 0), (0.3, 0.1), (1, 1)]


class TestKnownValues:
    def test_euclidean_sharpness(self):
        # the separated decomposition costs n unit norms, summed exactly;
        # no float-rounded Fourier cost may put the upper end below AM = n
        for n in range(1, 65):
            br = gm.am_pointwise(n, lt.lp_norm(2.0, n))
            assert (br.lower, br.upper) == (n, n)

    def test_plain_sup_is_one(self):
        for n in (1, 3, 6, 8):
            br = gm.am_pointwise(n, lt.sup_norm(n))
            assert abs(br.lower - 1.0) <= 1e-9
            assert abs(br.upper - 1.0) <= 1e-9

    def test_l1_value(self):
        br = gm.am_pointwise(3, lt.lp_norm(1.0, 3))
        assert abs(br.lower - 3.0) <= 1e-9
        assert abs(br.upper - 3.0) <= 1e-9

    def test_lp_above_two(self):
        for n, p in ((4, 3.0), (3, 4.0)):
            expected = float(n) ** (2.0 / p)
            br = gm.am_pointwise(n, lt.lp_norm(p, n))
            assert abs(br.lower - expected) <= 1e-9
            assert abs(br.upper - expected) <= 1e-9

    def test_single_coordinate_any_norm(self):
        for spec in (lt.sup_norm(1), lt.lp_norm(3.0, 1),
                     lt.orlicz_norm(lt.OrliczFunction.shifted_ramp(0.5), 1)):
            br = gm.am_pointwise(1, spec)
            assert abs(br.lower - 1.0) <= 1e-9 and abs(br.upper - 1.0) <= 1e-9

    def test_weighted_sup_collapses_at_top_weight_squared(self):
        br = gm.am_pointwise(3, lt.weighted_sup([1.0, 1.0, 2.0]))
        assert abs(br.lower - 4.0) <= 1e-9
        assert abs(br.upper - 4.0) <= 1e-9
        assert 1.0 - 1e-9 <= br.lower and br.upper <= 4.0 + 1e-9


class TestBracketMechanics:
    def test_sandwich_always(self):
        rng = np.random.default_rng(7)
        specs = [
            lt.weighted_sup(1.0 + 2 * rng.random(4)),
            lt.lp_norm(1.5, 4),
            lt.orlicz_norm(lt.OrliczFunction.shifted_ramp(0.25), 4),
        ]
        for spec in specs:
            br = gm.am_pointwise(4, spec)
            assert br.lower <= br.upper + 1e-12
            assert br.lower >= 1.0 - 1e-9

    def test_lower_floor_is_unit_vector_norm(self):
        table = lt.OrliczFunction.from_table([(0, 0), (0.3, 0), (0.7, 0.4), (1, 1), (2, 4)])
        specs = [
            lt.sup_norm(4),
            lt.weighted_sup([1.0, 1.5, 2.0, 3.0]),
            lt.lp_norm(1.5, 4),
            lt.lp_norm(3.0, 4),
            lt.orlicz_norm(lt.OrliczFunction.shifted_ramp(0.5), 4),
            lt.orlicz_norm(table, 4),
        ]
        for spec in specs:
            br = gm.am_pointwise(4, spec)
            floor = lt.norm_eval(spec, np.ones(4))
            assert br.lower >= floor - 1e-9

    def test_witness_fields(self):
        br = gm.am_pointwise(3, lt.lp_norm(2.0, 3))
        mat, cert, method = br.witness_lower
        assert cert <= 1.0 + 1e-9
        assert gm.bilinear_cert(lt.lp_norm(2.0, 3), mat) <= 1.0 + 1e-9
        pairs, cost, _ = br.witness_upper
        assert gm.decomposition_residual(3, pairs) <= 1e-9
        assert abs(cost - br.upper) <= 1e-12

    def test_dual_witness_sampled_feasibility(self):
        # |z^T M x| stays within the certified bound on random ball points
        spec = lt.lp_norm(2.0, 4)
        br = gm.am_pointwise(4, spec)
        mat, cert, _ = br.witness_lower
        rng = np.random.default_rng(11)
        for _ in range(300):
            x = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            z = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            x /= lt.norm_eval(spec, x)
            z /= lt.norm_eval(spec, z)
            assert abs(z @ mat @ x) <= cert * (1 + 1e-9)

    def test_decomposition_cost_equals_pairwise_sum(self):
        # one batched norm call over every vector, summed in pair order:
        # the same float as norming each vector on its own
        table = lt.OrliczFunction.from_table([(0, 0), (0.3, 0), (0.7, 0.4), (1, 1), (2, 4)])
        rng = np.random.default_rng(4)
        for spec in (lt.sup_norm(4), lt.weighted_sup([1.0, 1.5, 2.0, 3.0]),
                     lt.lp_norm(1.5, 4), lt.orlicz_norm(lt.OrliczFunction.power(3.0), 4),
                     lt.orlicz_norm(lt.OrliczFunction.shifted_ramp(0.5), 4),
                     lt.orlicz_norm(table, 4)):
            u = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            v = np.linalg.inv(u).T
            pairs = [(u[:, k], v[:, k]) for k in range(4)]
            want = sum(lt.norm_eval(spec, x) * lt.norm_eval(spec, y) for x, y in pairs)
            assert gm.decomposition_cost(spec, pairs) == want

    def test_fourier_decomposition_identity(self):
        for n in (2, 3, 5):
            assert gm.decomposition_residual(n, gm.dft_decomposition(n)) <= 1e-12

    def test_orlicz_bracket_closes_at_n_over_square_sum(self):
        # the ramp at a = 0.5 has S = 1.75, so both ends sit at n / S
        spec = lt.orlicz_norm(lt.OrliczFunction.shifted_ramp(0.5), 4)
        br = gm.am_pointwise(4, spec)
        ce = lt.ce_constant(spec).value
        assert br.lower >= 1.0 - 1e-9
        assert br.upper <= ce * ce + 1e-9
        assert abs(br.lower - 4.0 / 1.75) <= 1e-12
        assert abs(br.upper - 4.0 / 1.75) <= 1e-12

    def test_scaling_covariance(self):
        base = gm.am_pointwise(3, lt.sup_norm(3))
        scaled = gm.am_pointwise(3, lt.weighted_sup([2.0, 2.0, 2.0]))
        assert abs(scaled.lower - 4 * base.lower) <= 1e-9
        assert abs(scaled.upper - 4 * base.upper) <= 1e-9

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            gm.am_pointwise(3, lt.sup_norm(4))


# Lower-witness families that the theorem's form does not use: none may beat
# the bracket's lower bound, which is AM itself.  They are scored with
# _full_cert, which adds rules for general matrices, and two diagonal rules
# that never beat max|f| S when S is exact, to bilinear_cert's.

def _full_cert(spec, mat):
    """The entry cover, the largest singular value for lp with p <= 2, the
    largest entry for l1, and for a diagonal matrix bilinear_cert's rules,
    max|f| n / ||chi_n|| and, for lp with p > 2, the r-norm of f."""
    mat = np.asarray(mat, dtype=complex)
    n = spec.index_size
    sup = gm.coordinate_ball_sup(spec)
    bounds = [float(np.abs(mat).ravel() @ np.outer(sup, sup).ravel())]
    if spec.kind == "lp":
        if spec.p <= 2.0:
            # the lp ball is contained in the l2 ball for p <= 2
            bounds.append(float(np.linalg.svd(mat, compute_uv=False)[0]))
        if spec.p == 1.0:
            bounds.append(float(np.abs(mat).max()))
    off = mat - np.diag(np.diag(mat))
    if np.abs(off).max() <= 1e-15 * max(1.0, np.abs(mat).max()):
        f = np.abs(np.diag(mat))
        bounds.append(gm.bilinear_cert(spec, mat))
        bounds.append(float(f.max(initial=0.0)) * n / lt.chi_norm(spec, n))
        if spec.kind == "lp" and spec.p > 2.0:
            r = spec.p / (spec.p - 2.0)
            bounds.append(float(np.sum(f ** r) ** (1.0 / r)))
    return min(bounds)


def _permutation_oracle(n):
    for perm in itertools.permutations(range(n)):
        yield np.eye(n)[list(perm)]


def _sign_diagonal_oracle(n, rng, count=8):
    for _ in range(count):
        yield np.diag(rng.choice([-1.0, 1.0], size=n))


def _ascent_oracle(spec, rng, restarts=8, iters=80):
    """Projected gradient ascent on Re tr(M) over the certified unit ball;
    the projection is exact only for lp with p in {1, 2}."""
    if spec.kind != "lp" or spec.p not in (1.0, 2.0):
        return
    n = spec.index_size
    for _ in range(restarts):
        m = rng.standard_normal((n, n)) * 0.1
        for it in range(1, iters + 1):
            m = m + (0.1 / np.sqrt(it)) * np.eye(n)   # gradient of Re tr
            if spec.p == 2.0:
                u, s, vt = np.linalg.svd(m)
                m = (u * np.clip(s, None, 1.0)) @ vt  # singular-value clipping
            else:
                m = np.clip(m, -1.0, 1.0)             # entry clipping
        yield m


def _dropped_diagonal_oracle(spec):
    """The diagonal forms the theorem passes over: the identity under a
    weighted sup (sup included), every spike under a symmetric norm."""
    n = spec.index_size
    if spec.weights is not None:
        yield np.eye(n)
        return
    for m in range(n):
        spike = np.zeros((n, n))
        spike[m, m] = 1.0
        yield spike


def _oracle_specs(n):
    table = lt.OrliczFunction.from_table([(0, 0), (0.3, 0), (0.7, 0.4), (1, 1), (2, 4)])
    specs = [lt.sup_norm(n), lt.weighted_sup(2.0 ** np.arange(n))]
    specs += [lt.lp_norm(p, n) for p in (1.0, 1.5, 2.0, 3.0, 5.0)]
    specs += [lt.orlicz_norm(phi, n) for phi in (lt.OrliczFunction.shifted_ramp(0.5),
                                                 lt.OrliczFunction.power(3.0), table)]
    return specs


@pytest.mark.parametrize("n", range(1, 7))
def test_dropped_lower_candidates_never_win(n):
    rng = np.random.default_rng(n)
    for spec in _oracle_specs(n):
        lower = gm.am_pointwise(n, spec).lower
        mats = itertools.chain(_permutation_oracle(n), _sign_diagonal_oracle(n, rng),
                               _ascent_oracle(spec, rng), _dropped_diagonal_oracle(spec))
        for mat in mats:
            value = float(np.trace(mat).real) / _full_cert(spec, mat)
            assert value <= lower * (1 + 1e-12), (spec, mat, value, lower)


class TestCertifiedBounds:
    def test_spike_cert_exact(self):
        spec = lt.weighted_sup([1.0, 2.0])
        m = np.zeros((2, 2))
        m[1, 1] = 1.0
        assert abs(gm.bilinear_cert(spec, m) - 0.25) <= 1e-12

    def test_off_diagonal_matrix_refused(self):
        with pytest.raises(ValueError):
            gm.bilinear_cert(lt.lp_norm(2.0, 2), np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_spectral_cert_for_l2(self):
        rng = np.random.default_rng(3)
        m = rng.standard_normal((4, 4))
        assert abs(_full_cert(lt.lp_norm(2.0, 4), m)
                   - np.linalg.svd(m, compute_uv=False)[0]) <= 1e-12

    def test_max_entry_cert_for_l1(self):
        m = np.array([[0.5, -2.0], [1.0, 0.25]])
        assert _full_cert(lt.lp_norm(1.0, 2), m) == 2.0

    def test_max_square_sum_values(self):
        assert gm.max_square_sum(lt.sup_norm(5))[0] == 5.0
        assert abs(gm.max_square_sum(lt.weighted_sup([1.0, 2.0]))[0] - 1.25) <= 1e-12
        assert gm.max_square_sum(lt.lp_norm(1.5, 7))[0] == 1.0
        assert abs(gm.max_square_sum(lt.lp_norm(4.0, 4))[0] - 4.0 ** 0.5) <= 1e-12
        ramp = lt.orlicz_norm(lt.OrliczFunction.shifted_ramp(0.5), 4)
        assert abs(gm.max_square_sum(ramp)[0] - 1.75) <= 1e-12
        unit = lt.orlicz_norm(lt.OrliczFunction.from_table(UNIT_S_TABLE), 5)
        assert abs(gm.max_square_sum(unit)[0] - 1.0) <= 1e-15

    def test_max_square_sum_is_a_true_bound(self):
        # the maximiser lies in the ball and attains S; sampled ball points
        # never exceed S
        rng = np.random.default_rng(9)
        for spec in (lt.sup_norm(4), lt.weighted_sup([1.0, 1.5, 2.0, 3.0]),
                     lt.lp_norm(3.0, 4),
                     lt.orlicz_norm(lt.OrliczFunction.shifted_ramp(0.5), 4),
                     lt.orlicz_norm(lt.OrliczFunction.from_table(DIAG_ORLICZ_TABLE), 4)):
            q, top = gm.max_square_sum(spec)
            assert lt.norm_eval(spec, top) <= 1.0 + 1e-12
            assert abs(np.sum(top ** 2) - q) <= 1e-12 * q
            for _ in range(200):
                x = rng.standard_normal(4) * rng.choice([0.2, 1.0, 3.0])
                nx = lt.norm_eval(spec, x)
                if nx == 0:
                    continue
                x = x / nx
                assert np.sum(np.abs(x) ** 2) <= q * (1 + 1e-9)


def _square_sum_oracle(phi, n, points=2000):
    """max sum x^2 over a grid of ``points`` values per coordinate, the
    nodes of phi included, on n - 1 coordinates, the last coordinate taking
    the largest value the leftover modular budget allows."""
    if phi.nodes is None:
        top = 1.0
        nodes = np.array([])

        def last(r):
            return r ** (1.0 / phi.params["p"])
    else:
        ts, ys, tail = phi.nodes
        z = np.nonzero(ys == 0.0)[0][-1]          # a_phi: phi increases from here
        far = ts[-1] + 10.0
        inv_t = np.append(ts[z:], far)
        inv_y = np.append(ys[z:], ys[-1] + tail * (far - ts[-1]))
        top = float(np.interp(1.0, inv_y, inv_t))
        nodes = ts[ts <= top]

        def last(r):
            return np.interp(r, inv_y, inv_t)
    grid = np.union1d(np.linspace(0.0, top, points), nodes)
    cost = phi(grid)
    if n == 1:
        return float(last(1.0)) ** 2
    if n == 2:
        used, sq = cost, grid ** 2
    else:
        used = (cost[:, None] + cost[None, :]).ravel()
        sq = (grid[:, None] ** 2 + grid[None, :] ** 2).ravel()
    ok = used <= 1.0
    return float(np.max(sq[ok] + last(1.0 - used[ok]) ** 2))


ORACLE_PHIS = (
    lt.OrliczFunction.shifted_ramp(0.25), lt.OrliczFunction.shifted_ramp(0.5),
    lt.OrliczFunction.power(3.0), lt.OrliczFunction.from_table(DIAG_ORLICZ_TABLE),
    lt.OrliczFunction.from_table(MIDDLE_TABLE), lt.OrliczFunction.from_table(UNIT_S_TABLE),
)


@pytest.mark.parametrize("n", (1, 2, 3))
def test_square_sum_against_grid_oracle(n):
    for phi in ORACLE_PHIS:
        exact = gm.max_square_sum(lt.orlicz_norm(phi, n))[0]
        assert _square_sum_oracle(phi, n) <= exact * (1 + 1e-12), phi


def _exact_families(n):
    specs = [lt.sup_norm(n), lt.weighted_sup(2.0 ** np.arange(n))]
    specs += [lt.lp_norm(p, n) for p in (1.0, 1.5, 2.0, 3.0, 5.0)]
    phis = [lt.OrliczFunction.shifted_ramp(0.25), lt.OrliczFunction.shifted_ramp(0.5),
            lt.OrliczFunction.power(1.5), lt.OrliczFunction.power(3.0)]
    phis += [lt.OrliczFunction.from_table(t) for t in (DIAG_ORLICZ_TABLE, MIDDLE_TABLE,
                                                      UNIT_S_TABLE)]
    return specs + [lt.orlicz_norm(phi, n) for phi in phis]


@pytest.mark.parametrize("n", range(1, 9))
def test_every_named_family_closes(n):
    for spec in _exact_families(n):
        br = gm.am_pointwise(n, spec)
        assert not br.loose, spec
        assert br.upper - br.lower <= 1e-12 * br.upper, (spec, br)
    unit = gm.am_pointwise(n, lt.orlicz_norm(lt.OrliczFunction.from_table(UNIT_S_TABLE), n))
    assert abs(unit.lower - n) <= 1e-12 * n


def test_table_enumeration_cap_raises_quickly():
    # t^2 on a 0.01 grid: 100 nodes with 0 < phi <= 1, the smallest worth
    # 1e-4, so 29 free coordinates allow far more than 10**6 multisets
    ts = np.linspace(0.0, 1.0, 101)
    phi = lt.OrliczFunction.from_table(list(zip(ts, ts ** 2)) + [(2.0, 4.0)])
    start = time.process_time()
    with pytest.raises(lt.LatticeSpecError, match="node multisets"):
        gm.max_square_sum(lt.orlicz_norm(phi, 30))
    assert time.process_time() - start < 5.0


def test_orbit_witness_at_n_64():
    # 4096 orbit pairs in one luxemburg_batch call: the bracket still closes,
    # and each row, the former block edges 2015-2017 among them, gets the
    # norm it gets alone
    n = 64
    spec = lt.orlicz_norm(lt.OrliczFunction.shifted_ramp(0.5), n)
    br = gm.am_pointwise(n, spec)
    assert br.witness_upper[2] == "orbit" and not br.loose
    assert br.upper - br.lower <= 1e-12 * br.upper
    rows = np.abs([x for x, _ in br.witness_upper[0]])
    batch = lt.luxemburg_batch(spec.phi, rows)
    for i in (0, 1, 2015, 2016, 2017, 4095):
        assert lt.luxemburg_batch(spec.phi, rows[i:i + 1])[0] == batch[i]


def _single_row_cost(spec, pairs):
    return sum(lt.norm_eval(spec, x) * lt.norm_eval(spec, y) for x, y in pairs)


def _theorem_pick(spec, extremal):
    """The upper witness the theorem names for x*: separated for a spike,
    Fourier for a weighted sup or a constant x*, else the orbit of x*."""
    if np.count_nonzero(extremal) <= 1:
        return "separated"
    if spec.weights is not None or np.ptp(extremal) == 0:
        return "fourier"
    return "orbit"


def _decompositions(spec, extremal):
    """The separated, Fourier and orbit decompositions of x*; the orbit
    divides by sum x*^2, so it needs that to be positive."""
    n = spec.index_size
    out = {"separated": gm.separated_decomposition(n), "fourier": gm.dft_decomposition(n)}
    if np.sum(np.square(extremal)) > 0:
        out["orbit"] = gm.orbit_decomposition(extremal)
    return out


def _benchmark_specs(seed):
    """The norm specs of every diag-orlicz and diag-lp benchmark task."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    loader = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(workloads)
    return [task.spec for name in ("diag-orlicz", "diag-lp")
            for task in workloads.build(name, seed)]


def test_theorem_pick_is_never_beaten():
    """No decomposition the theorem passes over costs less than its pick,
    beyond 4 ulp of rounding in the cost's sum."""
    specs = [spec for n in range(1, 9) for spec in _exact_families(n)]
    specs += _benchmark_specs(42) + _benchmark_specs(7)
    for spec in specs:
        extremal = gm.max_square_sum(spec)[1]
        costs = {method: _single_row_cost(spec, pairs)
                 for method, pairs in _decompositions(spec, extremal).items()}
        pick = costs[_theorem_pick(spec, extremal)]
        for method, cost in costs.items():
            assert cost >= pick * (1 - 4 * np.finfo(float).eps), (spec, method, cost, pick)


@st.composite
def _spec_and_extremal(draw):
    """A spec of one named family at n = 1..8, with either its true extremal
    vector or a random nonnegative one (any x* gives a valid orbit)."""
    n = draw(st.integers(1, 8))
    kind = draw(st.sampled_from(["sup", "weighted", "lp", "power", "ramp", "table"]))
    if kind == "sup":
        spec = lt.sup_norm(n)
    elif kind == "weighted":
        spec = lt.weighted_sup(draw(st.lists(st.floats(1.0, 4.0), min_size=n, max_size=n)))
    elif kind == "lp":
        spec = lt.lp_norm(draw(st.sampled_from([1.0, 1.5, 3.0])), n)
    else:
        phi = {"power": lt.OrliczFunction.power(1.5),
               "ramp": lt.OrliczFunction.shifted_ramp(0.5),
               "table": lt.OrliczFunction.from_table(DIAG_ORLICZ_TABLE)}[kind]
        spec = lt.orlicz_norm(phi, n)
    extremal = gm.max_square_sum(spec)[1]
    if draw(st.booleans()):
        extremal = np.array(draw(st.lists(st.floats(0.0, 3.0), min_size=n, max_size=n)))
    return spec, extremal


@settings(max_examples=150, deadline=None, derandomize=True)
@given(case=_spec_and_extremal())
def test_batched_candidate_costs_equal_single_row_sums(case):
    # one norm_eval_batch call over a decomposition's vectors gives the
    # float that norming its vectors one at a time gives, for each of the
    # separated, Fourier and orbit decompositions of the drawn x*
    spec, extremal = case
    candidates = _decompositions(spec, extremal)
    batched = {method: gm.decomposition_cost(spec, pairs) for method, pairs in candidates.items()}
    for method, pairs in candidates.items():
        assert batched[method] == _single_row_cost(spec, pairs), method
    cost, pairs, method = gm.primal_decomposition_upper(spec, extremal)
    assert method == _theorem_pick(spec, extremal)
    assert cost == _single_row_cost(spec, pairs) == batched[method]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(case=_spec_and_extremal())
def test_am_witnesses_recertify(case):
    """What am_pointwise returns, re-checked outside its path: the lower
    matrix by _full_cert, and the upper pairs re-multiplied to the identity
    and re-normed one vector at a time."""
    spec = case[0]
    n = spec.index_size
    bracket = gm.am_pointwise(n, spec)
    mat = bracket.witness_lower[0]
    cert = _full_cert(spec, mat)
    assert cert <= 1.0 + 1e-9
    assert bracket.lower <= float(np.trace(mat).real) / cert * (1 + 1e-12)
    pairs = bracket.witness_upper[0]
    xs, ys = (np.array(v) for v in zip(*pairs))
    assert np.abs(xs.T @ ys - np.eye(n)).max() <= 1e-12
    cost = _single_row_cost(spec, pairs)
    assert abs(cost - bracket.upper) <= 1e-12 * cost


def test_am_pointwise_makes_one_lattice_call(monkeypatch):
    calls = []

    def counting(spec, rows):
        calls.append(len(rows))
        return lt.norm_eval_batch(spec, rows)

    monkeypatch.setattr(gm, "norm_eval_batch", counting)
    brackets = 0
    for n in (1, 2, 5, 8):
        for spec in _exact_families(n):
            gm.am_pointwise(n, spec)
            brackets += 1
    assert len(calls) == brackets


class TestTheoremChecks:
    def test_main_sandwich_report(self):
        rep = gm.verify_main_theorem(4, lt.lp_norm(2.0, 4))
        assert rep["ok"] and abs(rep["ratio_upper"] - 1.0) <= 1e-9
        rep = gm.verify_main_theorem(4, lt.sup_norm(4))
        assert rep["ok"] and rep["ce_squared"] == 1.0

    def test_weighted_sandwich(self):
        rep = gm.verify_main_theorem(3, lt.weighted_sup([1.0, 1.0, 2.0]))
        assert rep["ok"]
        assert rep["am_lower"] >= 1.0 - 1e-9 and rep["am_upper"] <= 4.0 + 1e-9

    def test_quotient_bound(self):
        rep = gm.verify_quotient_bound(lt.lp_norm(2.0, 4), [0, 1])
        assert rep["ok"]
        assert abs(rep["target_upper"] - 2.0) <= 1e-9
        assert abs(rep["source_upper"] - 4.0) <= 1e-9
        ident = gm.verify_quotient_bound(lt.lp_norm(2.0, 3), [0, 1, 2])
        assert ident["ok"] and abs(ident["target_upper"] - ident["source_upper"]) <= 1e-9
        sup = gm.verify_quotient_bound(lt.sup_norm(5), [2, 4])
        assert sup["ok"]
