import itertools

import numpy as np
import pytest

from esum_lab import gamma as gm
from esum_lab import lattice as lt

# unit tests exercise correctness, not search effort
BUDGET = gm.BracketBudget(scale=0.3)


def bracket(n, spec, salt=0):
    return gm.am_pointwise(n, spec, budget=BUDGET, rng=np.random.default_rng(salt))


class TestKnownValues:
    def test_euclidean_sharpness(self):
        for n in range(1, 5):
            br = bracket(n, lt.lp_norm(2.0, n), salt=n)
            assert abs(br.lower - n) <= 1e-9 * n
            assert abs(br.upper - n) <= 1e-9 * n

    def test_plain_sup_is_one(self):
        for n in (1, 3, 6, 8):
            br = bracket(n, lt.sup_norm(n), salt=n)
            assert abs(br.lower - 1.0) <= 1e-9
            assert abs(br.upper - 1.0) <= 1e-9

    def test_l1_value(self):
        br = bracket(3, lt.lp_norm(1.0, 3))
        assert abs(br.lower - 3.0) <= 1e-9
        assert abs(br.upper - 3.0) <= 1e-9

    def test_lp_above_two(self):
        for n, p in ((4, 3.0), (3, 4.0)):
            expected = float(n) ** (2.0 / p)
            br = bracket(n, lt.lp_norm(p, n), salt=n)
            assert abs(br.lower - expected) <= 1e-9
            assert abs(br.upper - expected) <= 1e-9

    def test_single_coordinate_any_norm(self):
        for spec in (lt.sup_norm(1), lt.lp_norm(3.0, 1),
                     lt.orlicz_norm(lt.OrliczFunction.shifted_ramp(0.5), 1)):
            br = bracket(1, spec)
            assert abs(br.lower - 1.0) <= 1e-9 and abs(br.upper - 1.0) <= 1e-9

    def test_weighted_sup_collapses_at_top_weight_squared(self):
        br = bracket(3, lt.weighted_sup([1.0, 1.0, 2.0]))
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
            br = bracket(4, spec)
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
            br = bracket(4, spec)
            floor = lt.norm_eval(spec, np.ones(4))
            assert br.lower >= floor - 1e-9

    def test_witness_fields(self):
        br = bracket(3, lt.lp_norm(2.0, 3))
        mat, cert, method = br.witness_lower
        assert cert <= 1.0 + 1e-9
        assert gm.bilinear_cert(lt.lp_norm(2.0, 3), mat) <= 1.0 + 1e-9
        pairs, cost, _ = br.witness_upper
        assert gm.decomposition_residual(3, pairs) <= 1e-9
        assert abs(cost - br.upper) <= 1e-12

    def test_dual_witness_sampled_feasibility(self):
        # |z^T M x| stays within the certified bound on random ball points
        spec = lt.lp_norm(2.0, 4)
        br = bracket(4, spec)
        mat, cert, _ = br.witness_lower
        rng = np.random.default_rng(11)
        for _ in range(300):
            x = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            z = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            x /= lt.norm_eval(spec, x)
            z /= lt.norm_eval(spec, z)
            assert abs(z @ mat @ x) <= cert * (1 + 1e-9)

    def test_decomposition_cost_equals_pairwise_sum(self):
        # one batched norm call per side, summed in pair order: the same
        # float as norming each vector on its own
        table = lt.OrliczFunction.from_table([(0, 0), (0.3, 0), (0.7, 0.4), (1, 1), (2, 4)])
        rng = np.random.default_rng(4)
        for spec in (lt.sup_norm(4), lt.weighted_sup([1.0, 1.5, 2.0, 3.0]),
                     lt.lp_norm(1.5, 4), lt.orlicz_norm(lt.OrliczFunction.power(3.0), 4),
                     lt.orlicz_norm(lt.OrliczFunction.shifted_ramp(0.5), 4),
                     lt.orlicz_norm(table, 4)):
            u = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            pairs = gm._pairs_from_matrix(u)
            want = sum(lt.norm_eval(spec, x) * lt.norm_eval(spec, y) for x, y in pairs)
            assert gm._decomposition_cost(spec, pairs) == want

    def test_fourier_decomposition_identity(self):
        for n in (2, 3, 5):
            assert gm.decomposition_residual(n, gm.dft_decomposition(n)) <= 1e-12

    def test_budget_zero_goes_loose(self):
        br = gm.am_pointwise(4, lt.lp_norm(2.0, 4), budget=gm.BracketBudget(scale=0.0))
        assert br.loose
        assert br.lower >= 1.0 - 1e-12
        assert br.upper >= br.lower

    def test_orlicz_bracket_flagged_but_sandwiched(self):
        spec = lt.orlicz_norm(lt.OrliczFunction.shifted_ramp(0.5), 4)
        br = bracket(4, spec)
        ce = lt.ce_constant(spec).value
        assert br.lower >= 1.0 - 1e-9
        assert br.upper <= ce * ce + 1e-9
        # uniform diagonal witness beats the trivial floor here
        assert br.lower >= 4.0 / (1 + 3 * 0.25) - 1e-9

    def test_scaling_covariance(self):
        base = bracket(3, lt.sup_norm(3), salt=1)
        scaled = bracket(3, lt.weighted_sup([2.0, 2.0, 2.0]), salt=2)
        assert abs(scaled.lower - 4 * base.lower) <= 1e-9
        assert abs(scaled.upper - 4 * base.upper) <= 1e-9

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            gm.am_pointwise(3, lt.sup_norm(4))


# Lower-witness families that dual_pairing_lower does not score: under the
# certificates none can exceed a spike or the identity (its docstring gives
# the argument), so as oracles none may beat the bracket's lower bound.

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
        lower = gm.am_pointwise(n, spec, budget=gm.BracketBudget(scale=0.01)).lower
        mats = itertools.chain(_permutation_oracle(n), _sign_diagonal_oracle(n, rng),
                               _ascent_oracle(spec, rng))
        for mat in mats:
            value = gm._scaled_candidate(spec, mat, "oracle")[0]
            assert value <= lower * (1 + 1e-12), (spec, mat, value, lower)


class TestCertifiedBounds:
    def test_spike_cert_exact(self):
        spec = lt.weighted_sup([1.0, 2.0])
        m = np.zeros((2, 2))
        m[1, 1] = 1.0
        assert abs(gm.bilinear_cert(spec, m) - 0.25) <= 1e-12

    def test_spectral_cert_for_l2(self):
        rng = np.random.default_rng(3)
        m = rng.standard_normal((4, 4))
        assert abs(gm.bilinear_cert(lt.lp_norm(2.0, 4), m)
                   - np.linalg.svd(m, compute_uv=False)[0]) <= 1e-12

    def test_max_entry_cert_for_l1(self):
        m = np.array([[0.5, -2.0], [1.0, 0.25]])
        assert gm.bilinear_cert(lt.lp_norm(1.0, 2), m) == 2.0

    def test_max_square_sum_values(self):
        assert gm.max_square_sum(lt.sup_norm(5)) == 5.0
        assert abs(gm.max_square_sum(lt.weighted_sup([1.0, 2.0])) - 1.25) <= 1e-12
        assert gm.max_square_sum(lt.lp_norm(1.5, 7)) == 1.0
        assert abs(gm.max_square_sum(lt.lp_norm(4.0, 4)) - 4.0 ** 0.5) <= 1e-12
        ramp = lt.orlicz_norm(lt.OrliczFunction.shifted_ramp(0.5), 4)
        assert abs(gm.max_square_sum(ramp) - 1.75) <= 1e-12

    def test_max_square_sum_is_a_true_bound(self):
        # sampled ball points never exceed the certified square-sum
        rng = np.random.default_rng(9)
        for spec in (lt.sup_norm(4), lt.weighted_sup([1.0, 1.5, 2.0, 3.0]),
                     lt.lp_norm(3.0, 4),
                     lt.orlicz_norm(lt.OrliczFunction.shifted_ramp(0.5), 4)):
            q = gm.max_square_sum(spec)
            for _ in range(200):
                x = rng.standard_normal(4) * rng.choice([0.2, 1.0, 3.0])
                nx = lt.norm_eval(spec, x)
                if nx == 0:
                    continue
                x = x / nx
                assert np.sum(np.abs(x) ** 2) <= q * (1 + 1e-9)


class TestTheoremChecks:
    def test_main_sandwich_report(self):
        rep = gm.verify_main_theorem(4, lt.lp_norm(2.0, 4), budget=BUDGET)
        assert rep["ok"] and abs(rep["ratio_upper"] - 1.0) <= 1e-9
        rep = gm.verify_main_theorem(4, lt.sup_norm(4), budget=BUDGET)
        assert rep["ok"] and rep["ce_squared"] == 1.0

    def test_weighted_sandwich(self):
        rep = gm.verify_main_theorem(3, lt.weighted_sup([1.0, 1.0, 2.0]), budget=BUDGET)
        assert rep["ok"]
        assert rep["am_lower"] >= 1.0 - 1e-9 and rep["am_upper"] <= 4.0 + 1e-9

    def test_quotient_bound(self):
        rep = gm.verify_quotient_bound(lt.lp_norm(2.0, 4), [0, 1], budget=BUDGET)
        assert rep["ok"]
        assert abs(rep["target_upper"] - 2.0) <= 1e-9
        assert abs(rep["source_upper"] - 4.0) <= 1e-9
        ident = gm.verify_quotient_bound(lt.lp_norm(2.0, 3), [0, 1, 2], budget=BUDGET)
        assert ident["ok"] and abs(ident["target_upper"] - ident["source_upper"]) <= 1e-9
        sup = gm.verify_quotient_bound(lt.sup_norm(5), [2, 4], budget=BUDGET)
        assert sup["ok"]
