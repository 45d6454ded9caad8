import numpy as np
import pytest

from esum_lab import esum as es
from esum_lab import lattice as lt


def scalar_sum(lattice):
    return es.ESumAlgebra([es.scalar_algebra() for _ in range(lattice.index_size)], lattice)


class BrokenNorm(es.CoordinateNorm):
    # deliberately fails ||ab|| <= ||a|| ||b||
    def eval(self, v):
        return 0.25 * np.abs(np.asarray(v)).max(axis=-1)

    def dual(self, v):
        return 4.0 * np.abs(np.asarray(v)).sum(axis=-1)

    def dual_vs_l2(self, dim):
        return (4.0 * np.sqrt(dim), 1.0)


class TestFiniteAlgebra:
    def test_associativity_enforced(self):
        c = np.zeros((2, 2, 2))
        c[0, 0, 1] = 1.0
        c[1, 1, 0] = 1.0
        c[0, 1, 0] = 1.0  # breaks (b0 b0) b1 = b0 (b0 b1)
        with pytest.raises(es.AlgebraError):
            es.FiniteAlgebra(c, es.MaxAbsCoordinate())

    def test_submultiplicativity_certification_aborts(self):
        with pytest.raises(es.AlgebraError):
            es.FiniteAlgebra([[[1.0]]], BrokenNorm(), samples=500)

    def test_units(self):
        assert np.allclose(es.scalar_algebra().unit, [1.0])
        assert np.allclose(es.pointwise_algebra(3).unit, np.ones(3))
        m2 = es.matrix_units_algebra(2)
        assert np.allclose(m2.unit, [1, 0, 0, 1])
        assert es.square_zero_algebra().unit is None

    def test_commutativity_flags(self):
        assert es.pointwise_algebra(4).commutative
        assert not es.matrix_units_algebra(2).commutative

    def test_matrix_algebra_multiplication(self):
        m2 = es.matrix_units_algebra(2)
        rng = np.random.default_rng(0)
        a = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        b = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        direct = (a.reshape(2, 2) @ b.reshape(2, 2)).reshape(4)
        assert np.allclose(m2.multiply(a, b), direct)
        assert abs(m2.norm_of(a) - np.linalg.svd(a.reshape(2, 2), compute_uv=False)[0]) <= 1e-12


class TestESumOperations:
    def test_norm_examples(self):
        assert es.esum_norm(scalar_sum(lt.sup_norm(3)).element([[1], [-2], [3]])) == 3.0
        assert es.esum_norm(scalar_sum(lt.lp_norm(2, 2)).element([[3], [4]])) == 5.0
        assert es.esum_norm(scalar_sum(lt.weighted_sup([1, 2])).element([[1], [1]])) == 2.0

    def test_mul_examples(self):
        alg = scalar_sum(lt.sup_norm(2))
        a = alg.element([[2], [0]])
        b = alg.element([[3], [5]])
        ab = es.esum_mul(a, b)
        assert [complex(v[0]) for v in ab.values] == [6.0, 0.0]
        disj = es.esum_mul(alg.element([[1], [0]]), alg.element([[0], [7]]))
        assert es.esum_norm(disj) == 0.0
        unit = alg.unit()
        uu = es.esum_mul(unit, unit)
        assert all(np.allclose(u, v) for u, v in zip(uu.values, unit.values))

    def test_mul_requires_same_parent(self):
        a = scalar_sum(lt.sup_norm(2)).element([[1], [1]])
        b = scalar_sum(lt.sup_norm(2)).element([[1], [1]])
        with pytest.raises(es.AlgebraError):
            es.esum_mul(a, b)

    def test_projection_embedding_norms(self):
        alg = scalar_sum(lt.weighted_sup([1.0, 2.0, 3.0]))
        assert es.embedding_norm(alg, 2) == 3.0
        assert abs(es.projection_norm(alg, 2) - 1.0 / 3.0) <= 1e-15
        assert es.embedding_norm(scalar_sum(lt.sup_norm(2)), 0) == 1.0
        assert es.embedding_norm(scalar_sum(lt.lp_norm(2, 2)), 1) == 1.0
        with pytest.raises(IndexError):
            es.embedding_norm(alg, 3)

    def test_projection_embedding_laws(self):
        alg = scalar_sum(lt.lp_norm(2, 3))
        v = np.array([2.5])
        emb = es.coordinate_embedding(alg, v, 1)
        assert complex(es.coordinate_projection(emb, 1)[0]) == 2.5
        assert complex(es.coordinate_projection(emb, 0)[0]) == 0.0
        # embedding norm attained on supported elements
        assert es.esum_norm(emb) == 2.5 * es.embedding_norm(alg, 1)
        # embeddings are multiplicative
        u, w = np.array([2.0]), np.array([-3.0])
        lhs = es.coordinate_embedding(alg, alg.summands[1].multiply(u, w), 1)
        rhs = es.esum_mul(es.coordinate_embedding(alg, u, 1),
                          es.coordinate_embedding(alg, w, 1))
        assert all(np.allclose(a, b) for a, b in zip(lhs.values, rhs.values))

    def test_projection_contractive_sampled(self):
        rng = np.random.default_rng(1)
        alg = scalar_sum(lt.weighted_sup([1.0, 1.5, 2.0]))
        for _ in range(300):
            a = alg.element(list(rng.standard_normal((3, 1)) + 1j * rng.standard_normal((3, 1))))
            na = es.esum_norm(a)
            for i in range(3):
                assert abs(complex(es.coordinate_projection(a, i)[0])) <= na * (1 + 1e-9)

    def test_homomorphism_laws_sampled(self):
        rng = np.random.default_rng(2)
        summands = [es.matrix_units_algebra(2), es.scalar_algebra()]
        alg = es.ESumAlgebra(summands, lt.sup_norm(2))
        for _ in range(50):
            a = alg.element([rng.standard_normal(4), rng.standard_normal(1)])
            b = alg.element([rng.standard_normal(4), rng.standard_normal(1)])
            ab = es.esum_mul(a, b)
            for i in range(2):
                direct = summands[i].multiply(a.values[i], b.values[i])
                assert np.allclose(es.coordinate_projection(ab, i), direct)

    def test_submultiplicativity_sampled(self):
        rng = np.random.default_rng(3)
        alg = es.ESumAlgebra(
            [es.matrix_units_algebra(2), es.matrix_units_algebra(2)], lt.lp_norm(2, 2)
        )
        for _ in range(200):
            a = alg.element(list(rng.standard_normal((2, 4))))
            b = alg.element(list(rng.standard_normal((2, 4))))
            assert es.esum_norm(es.esum_mul(a, b)) <= (
                es.esum_norm(a) * es.esum_norm(b) * (1 + 1e-9) + 1e-12
            )
        rep = alg.certify_submultiplicative(samples=10_000, seed=3)
        assert rep["ok"] and rep["worst_ratio"] <= 1 + 1e-9

    def test_truncate(self):
        alg = scalar_sum(lt.lp_norm(2, 3))
        a = alg.element([[1], [2], [3]])
        t = es.truncate(a, {0, 2})
        assert abs(es.esum_norm(t) - np.sqrt(10)) <= 1e-12
        again = es.truncate(t, {0, 2})
        assert all(np.allclose(u, v) for u, v in zip(again.values, t.values))
        assert es.esum_norm(es.truncate(a, set())) == 0.0
        full = es.truncate(a, {0, 1, 2})
        assert es.esum_norm(full) == es.esum_norm(a)
        # truncation is multiplicative
        rng = np.random.default_rng(4)
        b = alg.element(list(rng.standard_normal((3, 1))))
        lhs = es.truncate(es.esum_mul(a, b), {1, 2})
        rhs = es.esum_mul(es.truncate(a, {1, 2}), es.truncate(b, {1, 2}))
        assert all(np.allclose(u, v) for u, v in zip(lhs.values, rhs.values))


class TestUnitBound:
    def test_examples(self):
        rep = es.unit_and_bai_bound_check(scalar_sum(lt.sup_norm(4)))
        assert rep["unit_norm"] == 1.0 and rep["ok"]
        rep = es.unit_and_bai_bound_check(scalar_sum(lt.lp_norm(2, 9)))
        assert rep["unit_norm"] == 3.0 and rep["ok"]
        assert max(rep["indicator_norms"]) == 3.0
        rep = es.unit_and_bai_bound_check(scalar_sum(lt.weighted_sup([1, 1, 1, 2])))
        assert rep["unit_norm"] == 2.0 and rep["bound"] == 4.0 and rep["ok"]

    def test_not_unital(self):
        alg = es.ESumAlgebra(
            [es.scalar_algebra(), es.square_zero_algebra()], lt.sup_norm(2)
        )
        with pytest.raises(es.AlgebraError, match="not unital"):
            es.unit_and_bai_bound_check(alg)


class TestBlockNorm:
    def test_matches_esum_norm(self):
        rng = np.random.default_rng(5)
        for lattice in (lt.sup_norm(2), lt.lp_norm(1.5, 2), lt.weighted_sup([1.0, 2.0])):
            alg = es.ESumAlgebra(
                [es.matrix_units_algebra(2), es.scalar_algebra()], lattice
            )
            big = alg.as_finite_algebra(samples=2000)
            for _ in range(30):
                vals = [rng.standard_normal(4) + 1j * rng.standard_normal(4),
                        rng.standard_normal(1)]
                element = alg.element(vals)
                flat = np.concatenate(vals).astype(complex)
                assert abs(es.esum_norm(element) - big.norm_of(flat)) <= 1e-9
                blocked = big.multiply(flat, flat)
                coord = es.esum_mul(element, element)
                assert np.allclose(blocked, np.concatenate(coord.values))

    def test_dual_is_block_sum_for_sup(self):
        alg = es.ESumAlgebra(
            [es.matrix_units_algebra(2), es.matrix_units_algebra(2)], lt.sup_norm(2)
        )
        norm = alg.as_finite_algebra(samples=0).norm
        rng = np.random.default_rng(6)
        phi = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        blocks = [phi[:4].reshape(2, 2), phi[4:].reshape(2, 2)]
        expect = sum(np.linalg.svd(b, compute_uv=False).sum() for b in blocks)
        assert abs(norm.dual(phi) - expect) <= 1e-12

    def test_orlicz_dual_unimplemented(self):
        alg = es.ESumAlgebra(
            [es.scalar_algebra(), es.scalar_algebra()],
            lt.orlicz_norm(lt.OrliczFunction.shifted_ramp(0.5), 2),
        )
        norm = alg.as_finite_algebra(samples=0).norm
        with pytest.raises(NotImplementedError):
            norm.dual(np.ones(2))


def _two_by_two_cases(rng, count=400):
    """Unitary, rank-one, near-unitary and Gaussian complex 2 x 2 matrices."""
    def gauss(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    unitary, _ = np.linalg.qr(gauss(count, 2, 2))
    return {
        "unitary": unitary,
        "rank-one": gauss(count, 2, 1) @ gauss(count, 1, 2),
        "near-unitary": unitary + 1e-7 * gauss(count, 2, 2),
        "gaussian": gauss(count, 2, 2),
    }


@pytest.mark.parametrize("scale", [1e-200, 1.0, 1e150])
def test_two_by_two_closed_forms_match_svd(scale):
    norm = es.MatrixOperatorNorm(2)
    for kind, mats in _two_by_two_cases(np.random.default_rng(8)).items():
        mats = scale * mats
        s = np.linalg.svd(mats, compute_uv=False)
        flat = mats.reshape(len(mats), 4)
        assert np.abs(norm.eval(flat) / s[:, 0] - 1.0).max() <= 1e-14, kind
        assert np.abs(norm.dual(flat) / s.sum(axis=1) - 1.0).max() <= 1e-14, kind
    assert norm.eval(np.zeros(4)) == 0.0 and norm.dual(np.zeros(4)) == 0.0


def test_norming_elements():
    """X = norm.norming(phi) has ||X|| <= 1 and pairs with phi to its dual
    norm, for every coordinate norm, zero blocks included."""
    blocks = [es.MatrixOperatorNorm(2), es.EuclideanCoordinate(), es.MaxAbsCoordinate()]
    norms = [(es.MaxAbsCoordinate(), 3), (es.EuclideanCoordinate(), 3),
             (es.MatrixOperatorNorm(2), 4), (es.MatrixOperatorNorm(3), 9)]
    norms += [(es.LatticeBlockNorm(lat, blocks, [4, 2, 3]), 9)
              for lat in (lt.sup_norm(3), lt.weighted_sup([1.0, 3.0, 2.0]),
                          lt.lp_norm(1.0, 3), lt.lp_norm(1.5, 3))]
    rng = np.random.default_rng(9)
    for norm, dim in norms:
        for zeros in ([], [0, 1, 2, 3], [4, 5]):
            phi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
            phi[[i for i in zeros if i < dim]] = 0.0
            x = norm.norming(phi)
            dual = float(norm.dual(phi))
            assert float(norm.eval(x)) <= 1.0 + 1e-12
            assert abs(phi @ x - dual) <= 1e-12 * dual
