import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from esum_lab import cli
from esum_lab import derivations as dv
from esum_lab import esum as es
from esum_lab import lattice as lt


def scalar_sum(lattice):
    return es.ESumAlgebra([es.scalar_algebra() for _ in range(lattice.index_size)], lattice)


# M_2 under the Euclidean norm has no certified bound, so its sums are sampled
M2_EUCLIDEAN = es.FiniteAlgebra(es.matrix_units_algebra(2).structure, es.EuclideanCoordinate(),
                                samples=0, label="M_2 (euclidean)")
C_EUCLIDEAN = es.FiniteAlgebra([[[1.0]]], es.EuclideanCoordinate(), samples=0, label="C (euclidean)")


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

    @pytest.mark.parametrize("perm", [[0, 1, 2, 3, 4, 5], [4, 0, 2, 5, 1, 3]])
    def test_associativity_enforced_in_a_later_block(self, perm):
        # M_2 beside span{b0, b1} with b0 b0 = b1, b1 b0 = b0, so that
        # (b0 b0) b0 = b0 but b0 (b0 b0) = 0; coordinates relabelled by perm
        bad = np.zeros((2, 2, 2))
        bad[0, 0, 1] = 1.0
        bad[1, 0, 0] = 1.0
        c = es.block_cube([es.matrix_units_algebra(2).structure, bad])[np.ix_(perm, perm, perm)]
        with pytest.raises(es.AlgebraError,
                           match=r"^blocks: structure constants are not associative$"):
            es.FiniteAlgebra(c, es.MaxAbsCoordinate(), samples=0, label="blocks")

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(d=st.integers(1, 40), order=st.permutations(range(40)), length=st.integers(0, 39),
           triples=st.lists(st.tuples(*[st.integers(0, 39)] * 3), max_size=20))
    def test_structure_blocks_match_a_union_find(self, d, order, length, triples):
        """A path of up to d nodes, in a random order, plus random links:
        the longest paths need every squaring of the closure."""
        path = [k for k in order if k < d][:length + 1]
        links = [(a, b, b) for a, b in zip(path, path[1:])] + [
            tuple(x % d for x in t) for t in triples]
        c = np.zeros((d, d, d))
        parent = list(range(d))

        def root(i):
            while parent[i] != i:
                i = parent[i]
            return i

        for i, j, m in links:
            c[i, j, m] = 1.0
            roots = {root(i), root(j), root(m)}
            for r in roots:
                parent[r] = min(roots)
        groups = {}
        for i in range(d):
            groups.setdefault(root(i), []).append(i)
        assert [b.tolist() for b in es._structure_blocks(c)] == sorted(groups.values())

    def test_submultiplicativity_certification_aborts(self):
        with pytest.raises(es.AlgebraError):
            es.FiniteAlgebra([[[1.0]]], BrokenNorm(), samples=500)

    def test_units(self):
        assert np.allclose(es.scalar_algebra().unit, [1.0])
        assert np.allclose(es.pointwise_algebra(3).unit, np.ones(3))
        m2 = es.matrix_units_algebra(2)
        assert np.allclose(m2.unit, [1, 0, 0, 1])
        assert es.square_zero_algebra().unit is None

    def test_associativity_defect_of_one_part_in_a_million_is_refused(self):
        # b_0 b_1 = (1 + 1e-6) b_1 in M_2: the defect is 1e-6 on entries of size 1
        c = es.matrix_units_algebra(2).structure.copy()
        c[0, 1, 1] = 1.0 + 1e-6
        with pytest.raises(es.AlgebraError, match=r"^M2': structure constants are not associative$"):
            es.FiniteAlgebra(c, es.MaxAbsCoordinate(), samples=0, label="M2'")

    @pytest.mark.parametrize("q, commutative", [(1.0, True), (1.0 + 1e-6, False)])
    def test_commutator_of_one_part_in_a_million_is_seen(self, q, commutative):
        # span{1, x, y, z} with x y = z, y x = q z and every other product of
        # x, y, z zero: associative for every q, commutative for q = 1 only
        c = np.zeros((4, 4, 4))
        for j in range(4):
            c[0, j, j] = c[j, 0, j] = 1.0
        c[1, 2, 3], c[2, 1, 3] = 1.0, q
        alg = es.FiniteAlgebra(c, es.MaxAbsCoordinate(), samples=0)
        assert alg.commutative == commutative and alg.unital

    def test_rescaled_cube_is_accepted(self):
        alg = es.FiniteAlgebra(1e6 * es.matrix_units_algebra(2).structure,
                               es.MaxAbsCoordinate(), samples=0)
        assert not alg.commutative
        assert np.abs(alg.unit - 1e-6 * np.array([1, 0, 0, 1])).max() <= 1e-21

    def test_overflowing_products_certify_nothing(self):
        # M_2 times 1e308 is associative; its sampled products overflow, and
        # the operator norm of an overflowed product is nan
        c = 1e308 * es.matrix_units_algebra(2).structure
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(es.AlgebraError, match="not submultiplicative"):
            es.FiniteAlgebra(c, es.MatrixOperatorNorm(2))

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

    @pytest.mark.parametrize("block", [es.ROW_BLOCK, 40])
    def test_blocked_product_equals_einsum(self, block, monkeypatch):
        # the BLAS partial products give the three-operand einsum's floats
        # on matrix-unit cubes, in one block or in many, broadcast or not;
        # also on blocks that are no runs of coordinates, and on an E-sum
        monkeypatch.setattr(es, "ROW_BLOCK", block)
        rng = np.random.default_rng(1)
        permuted = es.FiniteAlgebra(GUARD_CUBES["permuted"][0], es.MaxAbsCoordinate(), samples=0)
        three = es.ESumAlgebra([es.matrix_units_algebra(2), es.scalar_algebra(),
                                es.pointwise_algebra(2)], lt.lp_norm(2, 3))
        for alg in (es.scalar_algebra(), es.matrix_units_algebra(2), es.matrix_units_algebra(3),
                    permuted, three):
            d = alg.dim
            for ushape, vshape in (((d,), (d,)), ((50, d), (50, d)), ((d,), (7, d)),
                                   ((3, 1, d), (1, 5, d))):
                u = rng.standard_normal(ushape) + 1j * rng.standard_normal(ushape)
                v = rng.standard_normal(vshape) + 1j * rng.standard_normal(vshape)
                want = np.einsum("...i,...j,ijk->...k", u, v, alg.structure)
                got = alg.multiply(u, v)
                assert got.shape == want.shape and np.array_equal(got, want), (alg.label, ushape)


class TestESumOperations:
    def test_norm_examples(self):
        for alg, vals, want in ((scalar_sum(lt.sup_norm(3)), [[1], [-2], [3]], 3.0),
                                (scalar_sum(lt.lp_norm(2, 2)), [[3], [4]], 5.0),
                                (scalar_sum(lt.weighted_sup([1, 2])), [[1], [1]], 2.0)):
            assert alg.norm_of(alg.element(vals)) == want

    def test_element_is_the_concatenated_vector(self):
        alg = es.ESumAlgebra([es.matrix_units_algebra(2), es.scalar_algebra()], lt.sup_norm(2))
        a = alg.element([[1, 2, 3, 4], [5j]])
        assert a.dtype == complex and a.tolist() == [1, 2, 3, 4, 5j]
        with pytest.raises(es.AlgebraError, match="^one coefficient vector per summand is required$"):
            alg.element([[1, 2, 3, 4]])
        with pytest.raises(es.AlgebraError, match="^summand coefficient length mismatch$"):
            alg.element([[1, 2, 3], [5]])

    def test_mul_examples(self):
        alg = scalar_sum(lt.sup_norm(2))
        ab = alg.multiply(alg.element([[2], [0]]), alg.element([[3], [5]]))
        assert ab.tolist() == [6.0, 0.0]
        disj = alg.multiply(alg.element([[1], [0]]), alg.element([[0], [7]]))
        assert alg.norm_of(disj) == 0.0
        assert np.allclose(alg.multiply(alg.unit, alg.unit), alg.unit)

    def test_mul_broadcasts_summand_by_summand(self):
        summands = [es.matrix_units_algebra(2), es.scalar_algebra(), es.pointwise_algebra(2)]
        alg = es.ESumAlgebra(summands, lt.lp_norm(2, 3))
        rng = np.random.default_rng(7)
        u = rng.standard_normal((3, 1, 7)) + 1j * rng.standard_normal((3, 1, 7))
        v = rng.standard_normal((5, 7)) + 1j * rng.standard_normal((5, 7))
        got = alg.multiply(u, v)
        assert got.shape == (3, 5, 7)
        for run, a in zip(alg.norm.slices, summands):
            assert np.array_equal(got[..., run], a.multiply(u[..., run], v[..., run]))

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
        assert complex(es.coordinate_projection(alg, emb, 1)[0]) == 2.5
        assert complex(es.coordinate_projection(alg, emb, 0)[0]) == 0.0
        with pytest.raises(IndexError):
            es.coordinate_projection(alg, emb, 3)
        # embedding norm attained on supported elements
        assert alg.norm_of(emb) == 2.5 * es.embedding_norm(alg, 1)
        # embeddings are multiplicative
        u, w = np.array([2.0]), np.array([-3.0])
        lhs = es.coordinate_embedding(alg, alg.summands[1].multiply(u, w), 1)
        rhs = alg.multiply(es.coordinate_embedding(alg, u, 1), es.coordinate_embedding(alg, w, 1))
        assert np.allclose(lhs, rhs)

    def test_projection_contractive_sampled(self):
        rng = np.random.default_rng(1)
        alg = scalar_sum(lt.weighted_sup([1.0, 1.5, 2.0]))
        for _ in range(300):
            a = alg.element(list(rng.standard_normal((3, 1)) + 1j * rng.standard_normal((3, 1))))
            na = alg.norm_of(a)
            for i in range(3):
                assert abs(complex(es.coordinate_projection(alg, a, i)[0])) <= na * (1 + 1e-9)

    def test_homomorphism_laws_sampled(self):
        rng = np.random.default_rng(2)
        summands = [es.matrix_units_algebra(2), es.scalar_algebra()]
        alg = es.ESumAlgebra(summands, lt.sup_norm(2))
        for _ in range(50):
            a_vals = [rng.standard_normal(4), rng.standard_normal(1)]
            b_vals = [rng.standard_normal(4), rng.standard_normal(1)]
            ab = alg.multiply(alg.element(a_vals), alg.element(b_vals))
            for i in range(2):
                direct = summands[i].multiply(a_vals[i], b_vals[i])
                assert np.allclose(es.coordinate_projection(alg, ab, i), direct)

    def test_submultiplicativity_sampled(self):
        rng = np.random.default_rng(3)
        alg = es.ESumAlgebra(
            [es.matrix_units_algebra(2), es.matrix_units_algebra(2)], lt.lp_norm(2, 2)
        )
        for _ in range(200):
            a = alg.element(list(rng.standard_normal((2, 4))))
            b = alg.element(list(rng.standard_normal((2, 4))))
            assert alg.norm_of(alg.multiply(a, b)) <= (
                alg.norm_of(a) * alg.norm_of(b) * (1 + 1e-9) + 1e-12
            )
        rep = alg.certify_submultiplicative(samples=10_000, seed=3)
        assert rep["ok"] and rep["worst_ratio"] <= 1 + 1e-9

    def test_certification_without_samples(self):
        alg = es.ESumAlgebra([M2_EUCLIDEAN] * 2, lt.lp_norm(2, 2))
        rep = alg.certify_submultiplicative(samples=0)
        assert rep["worst_ratio"] == 0.0 and rep["ok"]

    def test_assembly_certifies_the_sum(self):
        broken = es.FiniteAlgebra([[[1.0]]], BrokenNorm(), samples=0)
        alg = es.ESumAlgebra([es.scalar_algebra(), broken], lt.sup_norm(2))
        with pytest.raises(es.AlgebraError, match="not submultiplicative"):
            alg.as_finite_algebra(samples=500)
        assert alg.as_finite_algebra(samples=0).dim == 2

    def test_embedding_checks_the_summand_length(self):
        alg = scalar_sum(lt.sup_norm(2))
        with pytest.raises(es.AlgebraError, match="^summand coefficient length mismatch$"):
            es.coordinate_embedding(alg, [1.0, 5.0, 9.0], 0)
        v = np.array([2.0 + 0j])
        emb = es.coordinate_embedding(alg, v, 1)
        v[0] = 7.0   # the element holds a copy
        assert emb.tolist() == [0.0, 2.0]

    def test_truncate(self):
        alg = scalar_sum(lt.lp_norm(2, 3))
        a = alg.element([[1], [2], [3]])
        t = es.truncate(alg, a, {0, 2})
        assert abs(alg.norm_of(t) - np.sqrt(10)) <= 1e-12
        assert np.array_equal(es.truncate(alg, t, {0, 2}), t)
        assert alg.norm_of(es.truncate(alg, a, set())) == 0.0
        full = es.truncate(alg, a, {0, 1, 2})
        assert alg.norm_of(full) == alg.norm_of(a)
        # truncation is multiplicative
        rng = np.random.default_rng(4)
        b = alg.element(list(rng.standard_normal((3, 1))))
        lhs = es.truncate(alg, alg.multiply(a, b), {1, 2})
        rhs = alg.multiply(es.truncate(alg, a, {1, 2}), es.truncate(alg, b, {1, 2}))
        assert np.allclose(lhs, rhs)

    @pytest.mark.parametrize("index", [3, 5, -1])
    def test_truncate_refuses_an_index_outside_the_sum(self, index):
        alg = scalar_sum(lt.lp_norm(2, 3))
        with pytest.raises(IndexError, match=f"summand index {index} out of range"):
            es.truncate(alg, alg.element([[1], [2], [3]]), {0, index})


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


BLOCK_SUMMANDS = {
    "C": es.scalar_algebra(),
    "M2": es.matrix_units_algebra(2),
    "C^2": es.pointwise_algebra(2),
    "square-zero": es.square_zero_algebra(),
}
CONVEX_TABLE = lt.OrliczFunction.from_table([(0, 0), (0.5, 0.25), (1, 1), (2, 3)])
BLOCK_LATTICES = {
    "sup": lt.sup_norm,
    "weighted_sup": lambda k: lt.weighted_sup(np.linspace(1.0, 2.5, k)),
    "lp(1.5)": lambda k: lt.lp_norm(1.5, k),
    "ramp(0.5)": lambda k: lt.orlicz_norm(lt.OrliczFunction.shifted_ramp(0.5), k),
    "table": lambda k: lt.orlicz_norm(CONVEX_TABLE, k),
}
block_entry = st.floats(min_value=-50, max_value=50, allow_nan=False)


@st.composite
def block_sums(draw):
    """An E-sum of 1-4 summands over one of the lattices above, with two
    distinct elements u and v."""
    names = draw(st.lists(st.sampled_from(sorted(BLOCK_SUMMANDS)), min_size=1, max_size=4))
    lattice = BLOCK_LATTICES[draw(st.sampled_from(sorted(BLOCK_LATTICES)))](len(names))
    alg = es.ESumAlgebra([BLOCK_SUMMANDS[n] for n in names], lattice)

    def element():
        return [np.array([complex(re, im) for re, im in draw(st.lists(
            st.tuples(block_entry, block_entry), min_size=a.dim, max_size=a.dim))])
            for a in alg.summands]

    u, v = element(), element()
    assume(not np.array_equal(np.concatenate(u), np.concatenate(v)))
    return alg, u, v


class TestBlockNorm:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(case=block_sums())
    def test_matches_the_summands(self, case):
        """The sum's norm is the lattice norm of the summand norms, bit for
        bit, and its product is the summands' products side by side, which
        is the product of the dense block cube."""
        alg, u, v = case
        for vals in (u, v):
            want = lt.norm_eval(alg.lattice, [a.norm_of(x) for a, x in zip(alg.summands, vals)])
            assert alg.norm_of(np.concatenate(vals)) == want
        got = alg.multiply(np.concatenate(u), np.concatenate(v))
        direct = np.concatenate([a.multiply(x, y) for a, x, y in zip(alg.summands, u, v)])
        assert got.dtype == direct.dtype and got.tobytes() == direct.tobytes()
        dense = np.einsum("i,j,ijk->k", np.concatenate(u), np.concatenate(v),
                          es.block_cube([a.structure for a in alg.summands]))
        assert np.abs(got - dense).max() <= 1e-12 * max(1.0, np.abs(dense).max())

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


@pytest.mark.parametrize("scale", [1e-200, 1.0, 1e200])
def test_euclidean_norm_scales_each_row(scale):
    """The Euclidean norm, its dual and its norming element neither overflow
    nor underflow where the norm is a float, and the norming element pairs
    with phi to its dual norm."""
    norm = es.EuclideanCoordinate()
    phi = scale * np.array([[1.0, 1.0], [3.0, -4j]])
    want = scale * np.array([np.sqrt(2.0), 5.0])
    assert np.abs(norm.eval(phi) / want - 1.0).max() <= 1e-15
    assert np.abs(norm.dual(phi) / want - 1.0).max() <= 1e-15
    x = norm.norming(phi)
    assert np.abs(norm.eval(x) - 1.0).max() <= 1e-15
    assert np.abs(np.sum(phi * x, axis=-1).real / want - 1.0).max() <= 1e-15
    assert norm.eval([1e308]) == 1e308 and norm.eval([5e-324, 0.0]) == 5e-324


def test_norming_elements():
    """X = norm.norming(phi) has ||X|| <= 1 and pairs with phi to its dual
    norm, for every coordinate norm, zero blocks included; on an (N, dim)
    stack with zero rows and zero blocks, each row's X is its single call's
    to 1e-14."""
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
        stack = rng.standard_normal((6, dim)) + 1j * rng.standard_normal((6, dim))
        stack[1] = 0.0
        stack[3, :4] = 0.0
        stack[4, 4:6] = 0.0
        x = norm.norming(stack)
        assert x.shape == stack.shape
        assert np.all(norm.eval(x) <= 1.0 + 1e-12)
        duals = norm.dual(stack)
        assert np.all(np.abs(np.einsum("nk,nk->n", stack, x) - duals) <= 1e-12 * duals)
        for row, xr in zip(stack, x):
            assert np.abs(xr - norm.norming(row)).max() <= 1e-14


def _polar_cases(rng, count=300):
    """2 x 2 matrices as (n, 4) rows: nonsingular, rank-one, exactly zero,
    signed-zero, +-1e300-scaled and traceless ones."""
    def gauss(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    nonsingular = gauss(count, 4)
    traceless = gauss(count, 4)
    traceless[:, 3] = -traceless[:, 0]
    signed = np.array([[-0.0, 0.0, 0.0, -0.0], [complex(-0.0, -0.0), -0.0, complex(0.0, -0.0), 0.0],
                       [-0.0, 1.0, complex(0.0, -0.0), -0.0], [2.0, -0.0, -0.0, complex(-0.0, 3.0)]])
    return {
        "nonsingular": nonsingular,
        "rank-one": (gauss(count, 2, 1) @ gauss(count, 1, 2)).reshape(count, 4),
        "zero": np.zeros((3, 4), complex),
        "signed-zero": signed,
        "scaled": np.concatenate([1e300 * nonsingular[:50], -1e300 * nonsingular[50:100],
                                  1e300 * traceless[:50]]),
        "traceless": traceless,
    }


def test_two_by_two_norming_is_a_polar_factor():
    """X = norming(A) for 2 x 2 A has ||X||_op <= 1 + 1e-15 (by LAPACK's SVD)
    and pairs with A to its trace norm within 1e-15 relative; for a
    traceless A, X is traceless too."""
    norm = es.MatrixOperatorNorm(2)
    for kind, mats in _polar_cases(np.random.default_rng(11)).items():
        x = norm.norming(mats)
        assert x.shape == mats.shape and np.isfinite(x).all(), kind
        assert np.linalg.svd(x.reshape(-1, 2, 2), compute_uv=False)[:, 0].max() <= 1.0 + 1e-15, kind
        trace_norm = np.linalg.svd(mats.reshape(-1, 2, 2), compute_uv=False).sum(axis=1)
        pairing = np.einsum("nk,nk->n", mats, x)
        assert np.all(np.abs(pairing - trace_norm) <= 1e-15 * trace_norm), kind
        if kind == "traceless":
            assert np.abs(x[:, 0] + x[:, 3]).max() <= 1e-15


@pytest.mark.parametrize("shape", [(4,), (1, 4), (7, 4), (5, 3, 4)])
def test_two_by_two_closed_forms_do_not_depend_on_the_batch(shape):
    """eval, dual and norming of 2 x 2 matrices give the bits of one stack
    of all rows, whether the rows come one at a time or in other shapes."""
    norm = es.MatrixOperatorNorm(2)
    rows = np.random.default_rng(13).standard_normal((1050, 4, 2)) @ [1, 1j]
    rows[:10] *= 1e-200
    rows[10:20, 2] = 0.0
    for method in ("eval", "dual", "norming"):
        whole = getattr(norm, method)(rows)
        size = int(np.prod(shape[:-1]))
        for start in range(0, len(rows), size):
            got = getattr(norm, method)(rows[start:start + size].reshape(shape))
            want = whole[start:start + size].reshape(shape[:-1] + whole.shape[1:])
            assert _same_bits(got, want), (method, start)


def _per_summand_values(norm, v, dual):
    """Oracle: one summand-norm call per summand, stacked on a last axis."""
    return np.stack([nrm.dual(v[..., sl]) if dual else nrm.eval(v[..., sl])
                     for nrm, sl in zip(norm.block_norms, norm.slices)], axis=-1)


def _per_summand_norm(norm, v, kind):
    """Oracle: a LatticeBlockNorm's eval, dual or norming with one summand-norm
    call per summand."""
    vals = _per_summand_values(norm, v, kind != "eval")
    if kind == "norming":
        weights = lt.dual_extremal(norm.lattice, vals)
        return np.concatenate([w[..., None] * nrm.norming(v[..., sl]) for w, nrm, sl in
                               zip(np.moveaxis(weights, -1, 0), norm.block_norms, norm.slices)], axis=-1)
    batch = lt.norm_eval_batch if kind == "eval" else lt.dual_norm_batch
    return batch(norm.lattice, vals.reshape(-1, vals.shape[-1])).reshape(vals.shape[:-1])


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("kind", ["sup", "lp(1.5)", "weighted_sup"])
@pytest.mark.parametrize("lead", [(), (5,), (2, 3)])
def test_block_norm_matches_the_per_summand_oracle(kind, lead):
    """eval, dual and norming of a LatticeBlockNorm whose summand norms are
    separate but equal objects, interleaved with others, equal their
    per-summand oracle bit for bit, on rows with zero summands and signed
    zeros too."""
    norms = [es.MatrixOperatorNorm(2), es.MaxAbsCoordinate(), es.MatrixOperatorNorm(2),
             es.EuclideanCoordinate(), es.MatrixOperatorNorm(3), es.MaxAbsCoordinate(),
             es.MatrixOperatorNorm(2), es.EuclideanCoordinate()]
    dims = [4, 1, 4, 3, 9, 2, 4, 3]
    lattice = {"sup": lt.sup_norm, "lp(1.5)": lambda k: lt.lp_norm(1.5, k),
               "weighted_sup": lambda k: lt.weighted_sup(np.linspace(1.0, 2.0, k))}[kind](len(dims))
    norm = es.LatticeBlockNorm(lattice, norms, dims)
    rng = np.random.default_rng(len(lead))
    v = rng.standard_normal(lead + (30, 2)) @ [1, 1j]
    v[..., 5:9] = 0.0
    v[..., 26:30] = -0.0
    v[..., 18] = complex(-0.0, 0.0)
    for method in ("eval", "dual", "norming"):
        assert _same_bits(getattr(norm, method)(v), _per_summand_norm(norm, v, method)), method


def _norming_formula(norm, phi):
    """Oracle: the norming element by each coordinate norm's own formula, and
    under a lattice norm one summand at a time, weighted by dual_extremal of
    the summands' duals."""
    if isinstance(norm, es.LatticeBlockNorm):
        weights = lt.dual_extremal(norm.lattice, _per_summand_values(norm, phi, True))
        return np.concatenate([w[..., None] * _norming_formula(nrm, phi[..., sl]) for w, nrm, sl in
                               zip(np.moveaxis(weights, -1, 0), norm.block_norms, norm.slices)], axis=-1)
    if isinstance(norm, es.MaxAbsCoordinate):
        return np.exp(-1j * np.angle(np.where(phi == 0, 1, phi)))
    if isinstance(norm, es.EuclideanCoordinate):
        w = phi / norm._scale(phi)
        return np.conj(w) / np.maximum(np.linalg.norm(w, axis=-1, keepdims=True), 1.0)
    if norm.side != 2:
        u, _, vh = np.linalg.svd(norm._mats(phi))
        return np.conj(u @ vh).reshape(np.shape(phi))
    # (M^H + conj(ph) adj(M)) / (s1 + s2) of each scaled row, as one (n, 4) stack
    _, (a, b, c, d), (pa, pb, pc, pd) = norm._scaled_entries(phi)
    det = a * d - b * c
    mod = np.abs(det)
    cph = np.where(mod > 0, np.conj(det) / np.where(mod > 0, mod, 1.0), 1.0)
    total = np.sqrt(pa + pb + pc + pd + 2.0 * mod)
    x = np.stack([np.conj(a) + cph * d, np.conj(b) - cph * c,
                  np.conj(c) - cph * b, np.conj(d) + cph * a], axis=-1)
    return (x / np.where(total > 0, total, 1.0)[:, None]).reshape(np.shape(phi))


def _dual_norming_cases():
    m2 = es.matrix_units_algebra(2)
    inner = es.ESumAlgebra([m2, es.scalar_algebra()], lt.weighted_sup([1.0, 2.5])).norm
    flat = [es.MatrixOperatorNorm(2), es.MaxAbsCoordinate(), es.EuclideanCoordinate(),
            es.MatrixOperatorNorm(3), es.MatrixOperatorNorm(2)]
    return {"max_abs": (es.MaxAbsCoordinate(), 5), "euclidean": (es.EuclideanCoordinate(), 5),
            "operator(2)": (es.MatrixOperatorNorm(2), 4), "operator(3)": (es.MatrixOperatorNorm(3), 9),
            "lattice": (es.LatticeBlockNorm(lt.lp_norm(1.5, 5), flat, [4, 2, 3, 9, 4]), 22),
            "nested": (es.LatticeBlockNorm(lt.sup_norm(3), [inner, es.MatrixOperatorNorm(2), inner],
                                           [5, 4, 5]), 14)}


@pytest.mark.parametrize("case", sorted(_dual_norming_cases()))
@pytest.mark.parametrize("lead", [(), (7,), (2, 3)])
def test_dual_norming_is_the_dual_and_the_formula_norming(case, lead):
    """The dual and the norming element of one pass are dual's bits and
    the bits of each norm's own formula, on single rows and stacks with
    zero rows, zero blocks and signed zeros."""
    norm, dim = _dual_norming_cases()[case]
    rng = np.random.default_rng(dim)
    phi = rng.standard_normal(lead + (dim, 2)) @ [1, 1j]
    phi[..., :2] = [-0.0, complex(-0.0, -0.0)]
    phi[..., 4:8] = complex(0.0, -0.0)
    if lead:
        phi[(0,) * len(lead)] = 0.0
    dual, x = norm.dual_norming(phi)
    assert _same_bits(dual, norm.dual(phi))
    assert _same_bits(x, _norming_formula(norm, phi))


def test_nested_block_norms_group_by_object():
    """Summand norms that are themselves lattice norms have list-valued
    parameters, so only one object groups with itself: here summands 0 and
    2, which are no run of summands.  The values equal the per-summand
    oracle's bit for bit."""
    m2 = es.matrix_units_algebra(2)
    inner = [es.ESumAlgebra([m2, m2], lt.sup_norm(2)) for _ in range(2)]
    norm = es.ESumAlgebra(inner + [inner[0]], lt.lp_norm(1.5, 3)).norm
    assert [(n, m, which) for _, n, m, which, _ in norm._groups()] == [(2, 8, [0, 2]), (1, 8, slice(1, 2))]
    v = np.random.default_rng(5).standard_normal((4, 24, 2)) @ [1, 1j]
    for method in ("eval", "dual", "norming"):
        assert _same_bits(getattr(norm, method)(v), _per_summand_norm(norm, v, method)), method


# ---------------------------------------------------------------------------
# The blocked sampler against a one-shot replay
# ---------------------------------------------------------------------------

def _one_shot_pair_norms(rng, alg, samples):
    """The one-shot sampler: the real and imaginary parts of u, then of v,
    as four (samples, dim) draws, and the norms of u, v and uv over the
    whole batch at once."""
    d = alg.dim
    u = rng.standard_normal((samples, d)) + 1j * rng.standard_normal((samples, d))
    v = rng.standard_normal((samples, d)) + 1j * rng.standard_normal((samples, d))
    uv = np.einsum("ni,nj,ijk->nk", u, v, alg.structure)
    return alg.norm.eval(u), alg.norm.eval(v), alg.norm.eval(uv)


def _one_shot_ratio(nu, nv, nuv):
    return float((nuv / np.maximum(nu * nv, 1e-300)).max(initial=0.0))


def _one_shot_esum_ratio(alg, samples, seed):
    rng = np.random.default_rng(seed)
    cols = [_one_shot_pair_norms(rng, a, samples) for a in alg.summands]
    return _one_shot_ratio(*(lt.norm_eval_batch(alg.lattice, np.stack(c, axis=1))
                             for c in zip(*cols)))


# Certified bounds beta >= sup ||uv|| / (||u|| ||v||): max_k sum_ij |c_ijk|
# under max-abs (C and C^2 give 1, square-zero 0), and 1 for matrix units
# under the operator norm.
CERTIFIED_BOUNDS = {
    "C": (es.scalar_algebra(), 1.0),
    "C^2": (es.pointwise_algebra(2), 1.0),
    "M2": (es.matrix_units_algebra(2), 1.0),
    "M3": (es.matrix_units_algebra(3), 1.0),
    "square-zero": (es.square_zero_algebra(), 0.0),
}


@pytest.mark.parametrize("kind", sorted(BLOCK_LATTICES))
@pytest.mark.parametrize("name", sorted(CERTIFIED_BOUNDS))
@settings(max_examples=2, deadline=None, derandomize=True)
@given(copies=st.integers(1, 4), seed=st.integers(0, 2 ** 32 - 1))
def test_sampled_ratios_never_exceed_the_certified_bound(name, kind, copies, seed):
    """10^4 Gaussian pairs, on the summand and on a sum of its copies, stay
    within the summand's certified bound, up to SUBMULT_TOL for rounding."""
    summand, bound = CERTIFIED_BOUNDS[name]
    alg = es.ESumAlgebra([summand] * copies, BLOCK_LATTICES[kind](copies))
    alone = _one_shot_ratio(*_one_shot_pair_norms(np.random.default_rng(seed), summand, 10_000))
    assert alone <= bound * (1 + es.SUBMULT_TOL)
    assert _one_shot_esum_ratio(alg, 10_000, seed) <= bound * (1 + es.SUBMULT_TOL)
    assert summand.submult_bound == bound
    assert alg.certify_submultiplicative(seed=seed) == {
        "samples": 0, "ok": True, "worst_ratio": bound, "method": "bound"}


def test_bounded_summands_make_no_draws(monkeypatch):
    """Sums of summands with bounds at most 1, under every lattice, and
    algebras with such bounds draw no pair; the assembled block algebra is
    built with samples=0."""
    calls = []

    def recording(label, rng, algebras, samples, lattice=None):
        if samples:
            calls.append((label, samples))
        return real(label, rng, algebras, samples, lattice)
    real = es._worst_ratio
    monkeypatch.setattr(es, "_worst_ratio", recording)
    summands = [bound_and_summand[0] for bound_and_summand in CERTIFIED_BOUNDS.values()]
    for kind in sorted(BLOCK_LATTICES):
        alg = es.ESumAlgebra(summands, BLOCK_LATTICES[kind](len(summands)))
        assert alg.certify_submultiplicative()["samples"] == 0
        assert alg.as_finite_algebra().dim == sum(a.dim for a in summands)
    es.FiniteAlgebra(es.pointwise_algebra(3).structure, es.MaxAbsCoordinate())
    es.FiniteAlgebra(es.matrix_units_algebra(3).structure, es.MatrixOperatorNorm(3))
    assert calls == []
    # one summand without a bound makes the whole sum sampled
    es.ESumAlgebra(summands + [M2_EUCLIDEAN], lt.sup_norm(6)).certify_submultiplicative()
    assert calls == [("esum(sup)", es.SUBMULT_SAMPLES)]


class StrictMaxAbs(es.MaxAbsCoordinate):
    pass


@pytest.mark.parametrize("norm, cube, bound", [
    (es.MaxAbsCoordinate(), es.matrix_units_algebra(2).structure, 2.0),
    (es.MaxAbsCoordinate(), 3.0 * es.pointwise_algebra(2).structure, 3.0),
    (es.MatrixOperatorNorm(2), es.matrix_units_algebra(2).structure, 1.0),
    (es.MatrixOperatorNorm(2), 0.5 * es.matrix_units_algebra(2).structure, None),
    (es.MatrixOperatorNorm(3), es.matrix_units_algebra(3).structure, 1.0),
    (es.EuclideanCoordinate(), es.scalar_algebra().structure, None),
    (StrictMaxAbs(), es.scalar_algebra().structure, None),
    (BrokenNorm(), es.scalar_algebra().structure, None),
    (es.LatticeBlockNorm(lt.sup_norm(2), [es.MaxAbsCoordinate()] * 2, [1, 1]),
     es.pointwise_algebra(2).structure, None),
])
def test_bound_follows_the_exact_norm_type(norm, cube, bound):
    assert es.FiniteAlgebra(cube, norm, samples=0).submult_bound == bound


def test_max_abs_bound_holds_in_exact_arithmetic():
    # 1 + 2^-53 + 2^-53 sums to 1 in floats and to 1 + 2^-52 exactly
    tiny = 2.0 ** -53
    cube = np.zeros((3, 3, 3))
    cube[0, 0, 0], cube[1, 1, 0], cube[2, 2, 0] = 1.0, tiny, tiny
    assert es._max_abs_bound([cube]) == 1.0 + 2 * tiny
    # 1 + 2^-53 is no float, and the nearest, 1, would certify: round up
    cube[2, 2, 0] = 0.0
    assert es._max_abs_bound([cube]) == 1.0 + 2 * tiny
    # |0.6 + 0.8i| rounds to 1 in floats; one float step up keeps it a bound
    assert es._max_abs_bound([np.array([[[0.6 + 0.8j]]])]) == np.nextafter(1.0, 2.0)
    assert es._max_abs_bound([np.array([[[1e308]]]), np.array([[[-1e308, 1e308]] * 2] * 2)]) \
        == np.inf


CLOSED_FORM_LATTICES = {"sup": lt.sup_norm(3), "weighted_sup": lt.weighted_sup([1.0, 2.5, 1.5]),
                        "lp": lt.lp_norm(1.5, 3), "lp-9": lt.lp_norm(2.5, 9)}
SAMPLE_COUNTS = (0, 1, es.ROW_BLOCK - 1, es.ROW_BLOCK + 1, 10_000)


@pytest.mark.parametrize("kind", sorted(CLOSED_FORM_LATTICES))
@pytest.mark.parametrize("seed", [0, 7, 42])
def test_certification_replays_the_one_shot_sampler(kind, seed):
    """worst_ratio is the one-shot sampler's float, bit for bit, on summands
    of different dimensions, for sample counts on both sides of a block;
    nine lp summands sum each row with eight accumulators.  The Euclidean
    M_2 has no bound, so every summand is drawn, the bounded C included."""
    lattice = CLOSED_FORM_LATTICES[kind]
    alg = es.ESumAlgebra([M2_EUCLIDEAN, es.scalar_algebra(), M2_EUCLIDEAN]
                         * (lattice.index_size // 3), lattice)
    for samples in SAMPLE_COUNTS:
        rep = alg.certify_submultiplicative(samples=samples, seed=seed)
        assert rep == {"samples": samples, "ok": True, "method": "sampled",
                       "worst_ratio": _one_shot_esum_ratio(alg, samples, seed)}, samples


@pytest.mark.parametrize("kind", ["lp", "sup", "weighted_sup"])
def test_failing_sum_raises_the_one_shot_ratio(kind):
    broken = es.FiniteAlgebra([[[1.0]]], BrokenNorm(), samples=0)
    alg = es.ESumAlgebra([broken, C_EUCLIDEAN, broken], CLOSED_FORM_LATTICES[kind])
    for samples, seed in ((500, 0), (4097, 7), (10_000, 42)):
        ratio = _one_shot_esum_ratio(alg, samples, seed)
        with pytest.raises(es.AlgebraError) as err:
            alg.certify_submultiplicative(samples=samples, seed=seed)
        assert str(err.value) == f"esum({kind}): norm is not submultiplicative (ratio {ratio:.6g})"
    ratio = _one_shot_ratio(*_one_shot_pair_norms(np.random.default_rng(3), broken, 5000))
    with pytest.raises(es.AlgebraError) as err:
        es.FiniteAlgebra([[[1.0]]], BrokenNorm(), samples=5000, seed=3, label="broken")
    assert str(err.value) == f"broken: norm is not submultiplicative (ratio {ratio:.6g})"


def test_negative_samples_are_refused():
    alg = es.ESumAlgebra([es.scalar_algebra()] * 2, lt.sup_norm(2))
    with pytest.raises(ValueError, match="^samples must be nonnegative, got -5$"):
        alg.certify_submultiplicative(samples=-5)
    with pytest.raises(ValueError, match="^samples must be nonnegative, got -5$"):
        es.FiniteAlgebra([[[1.0]]], es.MaxAbsCoordinate(), samples=-5)


def test_orlicz_certification_memory():
    """Eight Euclidean copies of C, which have no bound, under a
    shifted-ramp lattice at 10^4 samples peak under 10 MB: no rows x n x n
    K knot array, no unblocked batch."""
    alg = es.ESumAlgebra([C_EUCLIDEAN] * 8, lt.orlicz_norm(lt.OrliczFunction.shifted_ramp(0.5), 8))
    tracemalloc.start()
    try:
        rep = alg.certify_submultiplicative(samples=10_000, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep["ok"] and rep["method"] == "sampled" and peak <= 10 * 2 ** 20, peak


# ---------------------------------------------------------------------------
# The block checks against an oracle of three separate loops
# ---------------------------------------------------------------------------

def _three_loop_oracle(structure, label):
    """Blocks, block cubes, commutativity and unit as three separate loops
    over every block: associativity on each normalised cube, commutativity
    on each normalised cube again, then one least-squares unit per block,
    snapped to whole numbers when that leaves a residual under 1e-12."""
    c = es._as_complex_cube(structure)
    blocks = es._structure_blocks(c)
    cubes = [c[np.ix_(b, b, b)] for b in blocks]

    def scaled(cb):
        top = np.abs(cb).max(initial=0.0)
        return cb / top if top > 0 else cb

    for cb in map(scaled, cubes):
        if not np.allclose(np.einsum("ijm,mkl->ijkl", cb, cb), np.einsum("jkm,iml->ijkl", cb, cb),
                           rtol=0, atol=1e-12):
            raise es.AlgebraError(f"{label}: structure constants are not associative")
    commutative = all(np.allclose(cb, cb.transpose(1, 0, 2), rtol=0, atol=1e-12)
                      for cb in map(scaled, cubes))
    unit = np.zeros(len(c), complex)
    for b, cb in zip(blocks, cubes):
        d = len(cb)
        eye = np.eye(d).reshape(-1)
        big = np.vstack([cb.transpose(1, 2, 0).reshape(d * d, d),
                         cb.transpose(0, 2, 1).reshape(d * d, d)])
        rhs = np.concatenate([eye, eye])
        u, *_ = np.linalg.lstsq(big, rhs, rcond=None)
        snapped = np.round(u.real) + 1j * np.round(u.imag)
        if np.linalg.norm(big @ snapped - rhs) < 1e-12:
            unit[b] = snapped
        elif np.linalg.norm(big @ u - rhs) < 1e-10:
            unit[b] = u
        else:
            unit = None
            break
    return blocks, cubes, commutative, unit


def _certificate_oracle(alg, samples, seed):
    """certify_submultiplicative's items in order: the largest bound when
    every summand's is at most 1, else the one-shot sampler's worst ratio."""
    bounds = [a.submult_bound for a in alg.summands]
    if all(b is not None and b <= 1.0 for b in bounds):
        return [("samples", 0), ("ok", True), ("worst_ratio", max(bounds)), ("method", "bound")]
    ratio = _one_shot_esum_ratio(alg, samples, seed)
    if ratio > 1.0 + es.SUBMULT_TOL:
        raise es.AlgebraError(f"{alg.label}: norm is not submultiplicative (ratio {ratio:.6g})")
    return [("samples", samples), ("ok", True), ("method", "sampled"), ("worst_ratio", ratio)]


def _outcome(build):
    try:
        return build()
    except es.AlgebraError as exc:
        return f"AlgebraError: {exc}"


def _nilpotent_cube():
    """span{b0, b1} with b0 b0 = b1 and every other product 0: no unit."""
    c = np.zeros((2, 2, 2))
    c[0, 0, 1] = 1.0
    return c


def _later_block_not_associative():
    """M_2 beside span{b0, b1} with b0 b0 = b1 and b1 b0 = b0."""
    bad = np.zeros((2, 2, 2))
    bad[0, 0, 1] = bad[1, 0, 0] = 1.0
    return es.block_cube([es._matrix_unit_cube(2), bad])


MIXED_BLOCKS = es.block_cube([es._matrix_unit_cube(2), [[[1.0]]], [[[0.0]]],
                              es._matrix_unit_cube(2)])
PERMUTATION = [7, 2, 9, 0, 4, 8, 1, 5, 3, 6]
# (cube, norm, samples at construction, submult_bound)
GUARD_CUBES = {
    "C": ([[[1.0]]], es.MaxAbsCoordinate(), es.SUBMULT_SAMPLES, 1.0),
    **{f"C^{n}": (es.pointwise_algebra(n).structure, es.MaxAbsCoordinate(), es.SUBMULT_SAMPLES,
                  1.0) for n in range(1, 5)},
    "M2": (es._matrix_unit_cube(2), es.MatrixOperatorNorm(2), es.SUBMULT_SAMPLES, 1.0),
    "M3": (es._matrix_unit_cube(3), es.MatrixOperatorNorm(3), es.SUBMULT_SAMPLES, 1.0),
    "square-zero": ([[[0.0]]], es.MaxAbsCoordinate(), es.SUBMULT_SAMPLES, 0.0),
    "M2 (euclidean)": (es._matrix_unit_cube(2), es.EuclideanCoordinate(), 500, None),
    "M2+C+square-zero+M2": (MIXED_BLOCKS, es.MaxAbsCoordinate(), 0, 2.0),
    "permuted": (MIXED_BLOCKS[np.ix_(PERMUTATION, PERMUTATION, PERMUTATION)],
                 es.MaxAbsCoordinate(), 0, 2.0),
    "M2+3C": (es.block_cube([es._matrix_unit_cube(2), [[[3.0]]]]), es.MaxAbsCoordinate(), 0, 3.0),
    "1e6 M2": (1e6 * es._matrix_unit_cube(2), es.MaxAbsCoordinate(), 0, 2e6),
    # unit 1 / (1 - 1e-11): snapping it to 1 leaves a residual above 1e-12
    "C (1 - 1e-11)": ([[[1.0 - 1e-11]]], es.MaxAbsCoordinate(), 0, 1.0 - 1e-11),
    "nilpotent": (_nilpotent_cube(), es.MaxAbsCoordinate(), 0, 1.0),
    "later block not associative": (_later_block_not_associative(), es.MaxAbsCoordinate(), 0, None),
}


def _assert_block_facts_match(alg, cube, label):
    blocks, cubes, commutative, unit = _three_loop_oracle(cube, label)
    assert [b.tolist() for b in alg.blocks] == [b.tolist() for b in blocks]
    assert [cb.tobytes() for cb in alg.cubes] == [cb.tobytes() for cb in cubes]
    assert alg.commutative is commutative
    assert (alg.unit is None) == (unit is None)
    assert unit is None or (alg.unit.dtype == unit.dtype and alg.unit.tobytes() == unit.tobytes())


@pytest.mark.parametrize("name", list(GUARD_CUBES))
def test_block_facts_match_the_three_loop_oracle(name):
    cube, norm, samples, bound = GUARD_CUBES[name]
    alg = _outcome(lambda: es.FiniteAlgebra(cube, norm, samples=samples, label=name))
    want = _outcome(lambda: _three_loop_oracle(cube, name))
    if isinstance(want, str):
        assert alg == want == f"AlgebraError: {name}: structure constants are not associative"
        return
    _assert_block_facts_match(alg, cube, name)
    assert alg.submult_bound == bound
    summed = es.ESumAlgebra([alg, alg], lt.lp_norm(1.5, 2))
    rep = _outcome(lambda: list(summed.certify_submultiplicative(samples=500, seed=3).items()))
    assert rep == _outcome(lambda: _certificate_oracle(summed, 500, 3))


ASSEMBLED_SUMS = {
    **{f"{k}-{name}": [name] * k for name in ("C", "M2") for k in range(1, 5)},
    "M2+C+square-zero": ["M2", "C", "square-zero"],
    # blocks that are no runs of consecutive coordinates, after a summand and before one
    "M2+permuted+C": ["M2", "permuted", "C"],
    "2 x M2 (euclidean)": ["M2 (euclidean)"] * 2,
}


@pytest.mark.parametrize("names", list(ASSEMBLED_SUMS))
def test_assembled_block_facts_match_the_three_loop_oracle(names):
    """Under sup, lp(1.5), weighted sup and ramp(0.5), the assembled sum has
    the blocks, cubes, unit and structure of the dense block cube's
    FiniteAlgebra byte for byte, its flags and norm, and the three-loop
    oracle's facts; it is certified as the summands are."""
    built = {n: es.FiniteAlgebra(*GUARD_CUBES[n][:2], samples=0, label=n)
             for n in set(ASSEMBLED_SUMS[names])}
    summands = [built[n] for n in ASSEMBLED_SUMS[names]]
    for kind in ("sup", "lp(1.5)", "weighted_sup", "ramp(0.5)"):
        _assert_assembly_matches_the_dense_cube(
            es.ESumAlgebra(summands, BLOCK_LATTICES[kind](len(summands))))


def _assert_assembly_matches_the_dense_cube(algebra):
    summands = algebra.summands
    cert = _outcome(lambda: list(algebra.certify_submultiplicative(samples=500, seed=3).items()))
    assert cert == _outcome(lambda: _certificate_oracle(algebra, 500, 3))
    if isinstance(cert, str):
        assert _outcome(lambda: algebra.as_finite_algebra(samples=500, seed=3)) == cert
    alg = algebra.as_finite_algebra(samples=0)
    _assert_block_facts_match(alg, alg.structure, alg.label)
    assert alg.submult_bound is None

    dense = es.FiniteAlgebra(
        es.block_cube([a.structure for a in summands]),
        es.LatticeBlockNorm(algebra.lattice, [a.norm for a in summands], [a.dim for a in summands]),
        samples=0, label=alg.label)
    assert [(b.dtype, b.tobytes()) for b in alg.blocks] == \
        [(b.dtype, b.tobytes()) for b in dense.blocks]
    assert [cb.tobytes() for cb in alg.cubes] == [cb.tobytes() for cb in dense.cubes]
    assert alg.structure.shape == dense.structure.shape
    assert alg.structure.dtype == dense.structure.dtype
    assert alg.structure.tobytes() == dense.structure.tobytes()
    assert (alg.unit is None) == (dense.unit is None)
    assert alg.unit is None or (alg.unit.dtype == dense.unit.dtype
                                and alg.unit.tobytes() == dense.unit.tobytes())
    assert (alg.commutative, alg.unital) == (dense.commutative, dense.unital)
    rng = np.random.default_rng(5)
    for v in rng.standard_normal((4, 2, alg.dim)):
        v = v[0] + 1j * v[1]
        assert alg.norm_of(v) == dense.norm_of(v)


def test_each_distinct_block_cube_is_decided_once(monkeypatch):
    m2, c = es.matrix_units_algebra(2), es.scalar_algebra()
    calls = []
    real = es._block_facts
    monkeypatch.setattr(es, "_block_facts",
                        lambda cube, label: calls.append(len(cube)) or real(cube, label))
    es.ESumAlgebra([m2] * 4, lt.sup_norm(4)).as_finite_algebra()
    assert calls == []   # the sum takes its summands' facts
    calls.clear()
    es.FiniteAlgebra(es.block_cube([m2.structure, c.structure, m2.structure]),
                     es.MaxAbsCoordinate(), samples=0)
    assert calls == [4, 1]
    calls.clear()
    es.pointwise_algebra(5)
    assert calls == [1]


def _refuse_the_dense_cube(structures):
    raise AssertionError("the dense block cube was built")


def test_the_sum_is_its_own_block_algebra(monkeypatch, tmp_path, capsys):
    """as_finite_algebra returns the sum; its derivation space, weak
    amenability, WAM bracket, lp demo, product and certificate read the
    summands' blocks and never the dense cube, and no E-sum path decides a
    block again; nor do the CLI's esum-norm, esum-mul, wam and lp-demo on
    such a sum."""
    m2 = es.matrix_units_algebra(2)
    calls = []
    real_facts = es._block_facts
    monkeypatch.setattr(es, "_block_facts", lambda c, label: calls.append(label) or real_facts(c, label))
    monkeypatch.setattr(es, "block_cube", _refuse_the_dense_cube)
    alg = es.ESumAlgebra([m2] * 4, lt.sup_norm(4))
    assert "stacks" not in vars(alg)   # keyed on the first product, not at construction
    assert alg.as_finite_algebra(samples=0) is alg
    rep = dv.derivation_space(alg)
    assert dv.is_weakly_amenable(alg, rep)[0]
    assert dv.esum_wa_check([m2] * 4, lt.sup_norm(4), samples=5)["ok"]
    runs = [range(4 * i, 4 * i + 4) for i in range(4)]
    for _ in range(2):
        dv.wam_bracket(alg, samples=5, blocks=runs, report=rep)
    rng = np.random.default_rng(8)
    alg.multiply(rng.standard_normal((3, 16)), rng.standard_normal(16))
    assert [idx.tolist() for _, idx in alg.stacks] == [np.arange(16).reshape(4, 4).tolist()]
    assert alg.certify_submultiplicative(samples=100)["ok"]
    psi = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    assert dv.lp_obstruction_demo(alg, psi, 1.5, [1, 2, 4])["ok"]
    assert calls == [] and "structure" not in vars(alg)

    m2_doc = {"structure": m2.structure.real.tolist(), "norm": {"kind": "matrix_operator", "side": 2}}
    docs = {"algebra": {"summands": [m2_doc] * 4, "lattice": {"kind": "sup", "index_size": 4}},
            "element": {"values": [[1, 0, 0, 2]] * 4}}
    docs["x"] = docs["y"] = docs["element"]
    docs["base"], docs["psi"] = docs["algebra"], [0, 1, 0, 0] * 4
    paths = {}
    for key, doc in docs.items():
        paths[key] = tmp_path / f"{key}.json"
        paths[key].write_text(json.dumps(doc))
    for flags, keys in ((["esum-norm"], ("algebra", "element")), (["esum-mul"], ("algebra", "x", "y")),
                        (["wam", "--samples", "2"], ("algebra",)),
                        (["lp-demo", "--p", "3", "--sizes", "1,2"], ("base", "psi"))):
        argv = flags + [arg for key in keys for arg in (f"--{key}", str(paths[key]))]
        assert cli.main(argv) == 0, flags
        assert json.loads(capsys.readouterr().out)
