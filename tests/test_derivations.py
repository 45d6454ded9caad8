import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from esum_lab import derivations as dv
from esum_lab import esum as es
from esum_lab import lattice as lt


def _monolithic_derivations(algebra):
    """Oracle: the nullspace of the whole d^3 x d^2 Leibniz system, at
    RANK_TOL relative to its own largest singular value."""
    c = algebra.structure
    d = algebra.dim
    basis = np.eye(d * d, dtype=complex).reshape(d * d, d, d)
    t1 = np.einsum("ijm,bkm->bijk", c, basis)
    t2 = np.einsum("kiq,bqj->bijk", c, basis)
    t3 = np.einsum("jkq,bqi->bijk", c, basis)
    system = (t1 - t2 - t3).reshape(d * d, d ** 3).T
    _, s, vh = np.linalg.svd(system, full_matrices=True)
    rank = int(np.sum(s > dv.RANK_TOL * s[0])) if s[0] > 0 else 0
    return vh[rank:].conj().reshape(-1, d, d)


def _en_algebra():
    """span{e, n} with e^2 = e, en = n, ne = n^2 = 0."""
    c = np.zeros((2, 2, 2))
    c[0, 0, 0] = 1.0
    c[0, 1, 1] = 1.0
    return es.FiniteAlgebra(c, es.MaxAbsCoordinate(), certified=True, label="en")


def _nilpotent_algebra():
    """span{a, b} with a^2 = b and every other product 0: A^2 = span{b} is
    neither 0 nor A, so the annihilator of the products is a proper part."""
    c = np.zeros((2, 2, 2))
    c[0, 0, 1] = 1.0
    return es.FiniteAlgebra(c, es.MaxAbsCoordinate(), certified=True, label="nil2")


SUMMANDS = {
    "M2": es.matrix_units_algebra(2),
    "C": es.scalar_algebra(),
    "square-zero": es.square_zero_algebra(),
    "en": _en_algebra(),
    "nil2": _nilpotent_algebra(),
}


def _rebased(c, scale):
    """The same algebra in the basis b'_i = scale (b_i + 0.5j b_{i+1}): its
    structure constants are genuinely complex and rescaled."""
    S = scale * (np.eye(len(c)) + 0.5j * np.eye(len(c), k=1))
    return np.einsum("ip,jq,pqr,rk->ijk", S, S, c, np.linalg.inv(S))


def _permuted_sum(names, scales, perm):
    """Block sum of the named summands, each in a complex basis scaled by
    its scale, with coordinates relabelled by ``perm``."""
    c = es.block_cube([_rebased(SUMMANDS[n].structure, s) for n, s in zip(names, scales)])
    c = c[np.ix_(perm, perm, perm)]
    return es.FiniteAlgebra(c, es.MaxAbsCoordinate(), certified=True)


def _flat(basis):
    return basis.reshape(len(basis), basis.shape[1] * basis.shape[2])


def _projector(basis):
    flat = _flat(basis)
    return flat.T @ flat.conj()


class TestSpaces:
    def test_pointwise_rigidity(self):
        for n in range(1, 9):
            rep = dv.derivation_space(es.pointwise_algebra(n))
            assert rep.dim_derivations == 0
            assert rep.dim_inner == 0
            assert rep.weakly_amenable

    def test_matrix_algebra(self):
        m2 = es.matrix_units_algebra(2)
        rep = dv.derivation_space(m2)
        assert rep.dim_derivations == 3
        assert rep.dim_inner == 3
        assert rep.center_annihilator_dim == 1
        assert rep.weakly_amenable
        # the commutant of the bimodule action is spanned by the trace
        z = rep.z_basis[0]
        assert abs(abs(z[0]) - abs(z[3])) <= 1e-12 and abs(z[1]) <= 1e-12

    def test_square_zero(self):
        sz = es.square_zero_algebra()
        rep = dv.derivation_space(sz)
        assert rep.dim_derivations == 1
        assert rep.dim_inner == 0
        assert not rep.weakly_amenable

    def test_leibniz_residuals_of_bases(self):
        for alg in (es.matrix_units_algebra(2), es.pointwise_algebra(3)):
            rep = dv.derivation_space(alg)
            for mat in rep.derivation_basis:
                assert dv.leibniz_residual(alg, mat) <= 1e-10
            for mat in rep.inner_basis:
                assert dv.leibniz_residual(alg, mat) <= 1e-10

    def test_rank_nullity(self):
        for alg in (es.matrix_units_algebra(2), es.matrix_units_algebra(3),
                    es.pointwise_algebra(4)):
            rep = dv.derivation_space(alg)
            assert rep.dim_inner + rep.center_annihilator_dim == alg.dim

    def test_weak_amenability_certificates(self):
        m2 = es.matrix_units_algebra(2)
        flag, cert = dv.is_weakly_amenable(m2)
        assert flag and len(cert["implementations"]) == 3
        sz = es.square_zero_algebra()
        flag, cert = dv.is_weakly_amenable(sz)
        assert not flag and "outside_derivation" in cert

    def test_essential(self):
        assert dv.essential_check(es.pointwise_algebra(3))
        assert dv.essential_check(es.matrix_units_algebra(2))
        assert not dv.essential_check(es.square_zero_algebra())
        # weakly amenable forces essential on everything we test
        for alg in (es.pointwise_algebra(2), es.matrix_units_algebra(2)):
            flag, _ = dv.is_weakly_amenable(alg)
            if flag:
                assert dv.essential_check(alg)

    def test_structure_blocks_follow_the_nonzero_pattern(self):
        # M2 on {0, 2, 4, 5}, C on {3}, square-zero on {1}
        alg = _permuted_sum(["M2", "C", "square-zero"], [1.0, 1.0, 1.0], [0, 5, 1, 4, 2, 3])
        assert [b.tolist() for b in dv._structure_blocks(alg.structure)] == [
            [0, 2, 4, 5], [1], [3]]

    def test_square_zero_pair(self):
        # one derivation per summand and one per ordered pair of summands
        rep = dv.derivation_space(_permuted_sum(["square-zero"] * 2, [1.0, 1.0], [0, 1]))
        assert (rep.dim_derivations, rep.dim_inner) == (4, 0)
        assert not rep.weakly_amenable

    def test_eight_matrix_copies(self):
        alg = es.ESumAlgebra([es.matrix_units_algebra(2)] * 8,
                             lt.sup_norm(8)).as_finite_algebra(samples=0)
        rep = dv.derivation_space(alg)
        assert (rep.dim_derivations, rep.dim_inner, rep.center_annihilator_dim) == (24, 24, 8)
        assert rep.weakly_amenable and dv.is_weakly_amenable(alg, rep)[0]

    def test_residual_matches_einsum_reference(self):
        # the three Leibniz terms summed one index at a time
        rng = np.random.default_rng(7)
        alg = _permuted_sum(["M2", "en", "C"], [1.0, 3.0, 0.5], rng.permutation(7))
        c = alg.structure
        for _ in range(5):
            D = rng.standard_normal((7, 7)) + 1j * rng.standard_normal((7, 7))
            ref = np.abs(np.einsum("ijm,km->ijk", c, D) - np.einsum("kiq,qj->ijk", c, D)
                         - np.einsum("jkq,qi->ijk", c, D)).max()
            assert dv.leibniz_residual(c, D) == dv.leibniz_residual(alg, D)
            assert abs(dv.leibniz_residual(alg, D) - ref) <= 1e-13 * ref


@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_blockwise_matches_monolithic(data):
    names = data.draw(st.lists(st.sampled_from(sorted(SUMMANDS)), min_size=1, max_size=4)
                      .filter(lambda ns: sum(SUMMANDS[n].dim for n in ns) <= 10))
    scales = data.draw(st.lists(st.sampled_from([1e-2, 0.5, 1.0, 3.0, 1e2, 1j, 0.5 - 2j]),
                                min_size=len(names), max_size=len(names)))
    dim = sum(SUMMANDS[n].dim for n in names)
    perm = data.draw(st.permutations(range(dim)))
    alg = _permuted_sum(names, scales, perm)

    rep = dv.derivation_space(alg)
    oracle = _monolithic_derivations(alg)
    basis = rep.derivation_basis
    assert rep.dim_derivations == len(oracle)
    assert np.abs(_projector(basis) - _projector(oracle)).max(initial=0.0) <= 1e-10
    flat = _flat(basis)
    assert np.abs(flat.conj() @ flat.T - np.eye(len(basis))).max(initial=0.0) <= 1e-10
    for mat in basis:
        assert dv.leibniz_residual(alg, mat) <= 1e-10


class TestMinimization:
    def test_m2_distance_to_commutant(self):
        m2 = es.matrix_units_algebra(2)
        rep = dv.derivation_space(m2)
        psi = np.zeros(4)
        psi[1] = 1.0
        _, dist = dv.min_dual_over_affine(m2.norm, psi, rep.z_basis)
        assert abs(dist - 1.0) <= 1e-6

    def test_trace_multiple_projects_to_zero(self):
        m2 = es.matrix_units_algebra(2)
        rep = dv.derivation_space(m2)
        trace = np.array([1.0, 0.0, 0.0, 1.0])
        _, dist = dv.min_dual_over_affine(m2.norm, trace, rep.z_basis)
        assert dist <= 1e-8

    def test_euclidean_shortcut_matches_powell(self):
        rng = np.random.default_rng(0)
        phi0 = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        z = dv._orthonormal_rows(rng.standard_normal((1, 4)))
        _, via_l2 = dv.min_dual_over_affine(es.EuclideanCoordinate(), phi0, z)
        norm = es.MaxAbsCoordinate()

        def bruteforce(steps=400):
            best = np.inf
            for re in np.linspace(-3, 3, steps):
                for im in np.linspace(-3, 3, 7):
                    best = min(best, float(norm.dual(phi0 + (re + 1j * im) * z[0])))
            return best

        _, via_powell = dv.min_dual_over_affine(norm, phi0, z)
        assert via_powell <= bruteforce() + 1e-4
        # the Euclidean projection is never larger than the starting point
        assert via_l2 <= float(np.linalg.norm(phi0)) + 1e-12

    def test_minimal_implementing_functional(self):
        m2 = es.matrix_units_algebra(2)
        rep = dv.derivation_space(m2)
        psi = np.zeros(4)
        psi[1] = 1.0
        admat = dv.adjoint_map_matrix(m2.structure)
        D = (admat @ psi).reshape(4, 4)
        phi, val = dv.minimal_implementing_functional(m2, D, report=rep)
        recon = (admat @ phi).reshape(4, 4)
        assert np.abs(recon - D).max() <= 1e-8
        assert val <= float(m2.norm.dual(psi)) + 1e-9

    def test_non_inner_rejected(self):
        sz = es.square_zero_algebra()
        rep = dv.derivation_space(sz)
        D = rep.derivation_basis[0]
        with pytest.raises(ValueError):
            dv.minimal_implementing_functional(sz, D, report=rep)


class TestWamBracket:
    def test_commutative_zero(self):
        out = dv.wam_bracket(es.pointwise_algebra(4), samples=10)
        assert out == {"lower": 0.0, "upper": 0.0, "wam_zero": True, "weakly_amenable": True}

    def test_not_weakly_amenable_infinite(self):
        out = dv.wam_bracket(es.square_zero_algebra(), samples=10)
        assert out["lower"] == np.inf and out["upper"] == np.inf

    def test_m2_bracket(self):
        out = dv.wam_bracket(es.matrix_units_algebra(2), samples=60, seed=5)
        assert 0 < out["lower"] <= out["upper"] < np.inf
        assert out["samples_used"] >= 60


class TestEsumChecks:
    def test_commutative_sum_zero(self):
        for lattice in (lt.sup_norm(3), lt.weighted_sup([1.0, 2.0, 3.0]),
                        lt.lp_norm(1.5, 3),
                        lt.orlicz_norm(lt.OrliczFunction.shifted_ramp(0.5), 3)):
            summands = [es.scalar_algebra() for _ in range(3)]
            rep = dv.esum_wa_check(summands, lattice, samples=8, seed=1)
            assert rep["ok"]
            assert rep["sum"]["dim_derivations"] == 0

    def test_offender_identified(self):
        summands = [es.scalar_algebra(), es.square_zero_algebra(), es.scalar_algebra()]
        rep = dv.esum_wa_check(summands, lt.sup_norm(3), samples=8, seed=1)
        assert not rep["sum"]["weakly_amenable"]
        assert rep["offending_summands"] == [1]

    def test_matrix_copies_block_diagonal(self):
        rep = dv.esum_wa_check([es.matrix_units_algebra(2) for _ in range(2)],
                               lt.sup_norm(2), samples=40, seed=2)
        assert rep["ok"]
        assert rep["max_off_block"] <= 1e-9
        single = dv.wam_bracket(es.matrix_units_algebra(2), samples=40, seed=2)
        rel = abs(rep["bracket_sum"]["lower"] - single["lower"]) / single["lower"]
        assert rel <= 0.1

    def test_transfer_bound(self):
        rep = dv.wa_quotient_transfer_check(
            [es.matrix_units_algebra(2), es.matrix_units_algebra(2)],
            lt.weighted_sup([1.0, 2.0]), samples=30, seed=3)
        assert rep["ok"]
        assert rep["rows"][1]["embedding_norm"] == 2.0
        zero = dv.wa_quotient_transfer_check(
            [es.scalar_algebra(), es.scalar_algebra()], lt.sup_norm(2),
            samples=5, seed=3)
        assert zero["ok"]


class TestObstruction:
    def test_weights(self):
        assert np.allclose(dv.obstruction_weights(1.5, 4), np.ones(4))
        assert np.allclose(dv.obstruction_weights(2.0, 4), np.ones(4))
        w = dv.obstruction_weights(3.0, 4)
        assert np.allclose(w, np.arange(1, 5) ** (-2.0 / 3.0))
        with pytest.raises(ValueError):
            dv.obstruction_weights(1.0, 4)

    def test_demo_floors_and_growth(self):
        m2 = es.matrix_units_algebra(2)
        psi = np.zeros(4)
        psi[1] = 1.0
        for p in (1.5, 2.0, 3.0):
            rep = dv.lp_obstruction_demo(m2, psi, p, [2, 4, 8], seed=4)
            assert rep["ok"]
            assert abs(rep["distance"] - 1.0) <= 1e-6
            aggs = [row["aggregate"] for row in rep["rows"]]
            assert aggs == sorted(aggs) and len(set(aggs)) == 3
            for row in rep["rows"]:
                assert row["per_coordinate_ok"]
                assert row["leibniz_residual"] <= 1e-9

    def test_p2_aggregate_value(self):
        m2 = es.matrix_units_algebra(2)
        psi = np.zeros(4)
        psi[1] = 1.0
        rep = dv.lp_obstruction_demo(m2, psi, 2.0, [2, 4], seed=4)
        for row in rep["rows"]:
            assert abs(row["aggregate"] - np.sqrt(row["size"])) <= 1e-6

    def test_commutant_psi_rejected(self):
        m2 = es.matrix_units_algebra(2)
        trace = np.array([1.0, 0.0, 0.0, 1.0])
        with pytest.raises(ValueError):
            dv.lp_obstruction_demo(m2, trace, 2.0, [2])

    def test_zero_weight_coordinate_needs_nothing(self):
        # a vanished derivation component is implemented by the zero functional
        m2 = es.matrix_units_algebra(2)
        rep = dv.derivation_space(m2)
        phi, val = dv.min_dual_over_affine(m2.norm, 0.0 * np.ones(4), rep.z_basis)
        assert val == 0.0 and np.abs(phi).max() == 0.0


def test_blockwise_span_split():
    blocks = [[0, 1], [2, 3]]
    decomposable = np.array([[1.0, 0, 0, 0], [0, 0, 0, 1.0]])
    pieces = dv.blockwise_span_split(decomposable, blocks)
    assert pieces is not None and [p.shape[0] for p in pieces] == [1, 1]
    entangled = np.array([[1.0, 0, 1.0, 0]]) / np.sqrt(2)
    assert dv.blockwise_span_split(entangled, blocks) is None
