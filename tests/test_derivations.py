import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from esum_lab import derivations as dv
from esum_lab import esum as es
from esum_lab import lattice as lt


def _three_einsum_system(c):
    """Oracle: the (dim^3, dim^2) Leibniz system of the cube c, row index
    (i, j, k), as the three terms of the identity summed by einsum."""
    d = len(c)
    basis = np.eye(d * d, dtype=complex).reshape(d * d, d, d)
    t1 = np.einsum("ijm,bkm->bijk", c, basis)
    t2 = np.einsum("kiq,bqj->bijk", c, basis)
    t3 = np.einsum("jkq,bqi->bijk", c, basis)
    return (t1 - t2 - t3).reshape(d * d, d ** 3).T


def _monolithic_derivations(algebra):
    """Oracle: the nullspace of the whole d^3 x d^2 Leibniz system, at
    RANK_TOL relative to its own largest singular value."""
    d = algebra.dim
    system = _three_einsum_system(algebra.structure)
    _, s, vh = np.linalg.svd(system, full_matrices=True)
    rank = int(np.sum(s > dv.RANK_TOL * s[0])) if s[0] > 0 else 0
    return vh[rank:].conj().reshape(-1, d, d)


def _en_algebra():
    """span{e, n} with e^2 = e, en = n, ne = n^2 = 0."""
    c = np.zeros((2, 2, 2))
    c[0, 0, 0] = 1.0
    c[0, 1, 1] = 1.0
    return es.FiniteAlgebra(c, es.MaxAbsCoordinate(), samples=0, label="en")


def _nilpotent_algebra():
    """span{a, b} with a^2 = b and every other product 0: A^2 = span{b} is
    neither 0 nor A, so the annihilator of the products is a proper part."""
    c = np.zeros((2, 2, 2))
    c[0, 0, 1] = 1.0
    return es.FiniteAlgebra(c, es.MaxAbsCoordinate(), samples=0, label="nil2")


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
    return es.FiniteAlgebra(c, es.MaxAbsCoordinate(), samples=0)


def _dense(pieces, algebra):
    """A stack of maps given by pieces, as one dense stack (..., d, d)."""
    out = np.zeros(pieces[0][2].shape[:-2] + (algebra.dim,) * 2, complex)
    for i, j, x in pieces:
        out[..., algebra.blocks[i][:, None], algebra.blocks[j]] = x
    return out


def _cut(D, algebra):
    """A dense map (..., d, d) as pieces on every pair of blocks."""
    return [(i, j, D[..., bi[:, None], bj]) for i, bi in enumerate(algebra.blocks)
            for j, bj in enumerate(algebra.blocks)]


def _derivation_basis(rep):
    """The report's derivation basis as one dense stack (k, d, d), in the
    order of its pieces."""
    return np.concatenate([_dense([piece], rep.algebra) for piece in rep.pieces])


def _inner_basis(rep):
    """The report's inner basis as one dense stack (r, d, d): each block's
    kept left singular vectors as maps on its square, zero elsewhere."""
    return np.concatenate([_dense([(i, i, u[:, :r].T.reshape(r, len(b), len(b)))], rep.algebra)
                           for i, (b, (r, u, _, _)) in enumerate(rep.adjoint)])


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
        # each block's inner elements, embedded, are derivations of the whole
        # cube, and implement finds the preimage whose ad map each one is
        for alg in (es.matrix_units_algebra(2), es.pointwise_algebra(3),
                    _permuted_sum(["M2", "en", "C"], [1.0, 3.0, 0.5], [3, 0, 6, 1, 5, 2, 4])):
            rep = dv.derivation_space(alg)
            for mat in _derivation_basis(rep):
                assert dv.leibniz_residual(alg.structure, mat) <= 1e-10
            inner = _inner_basis(rep)
            assert len(inner) == rep.dim_inner
            for mat in inner:
                assert dv.leibniz_residual(alg.structure, mat) <= 1e-10
            phis, res = rep.implement(_cut(inner, alg))
            assert np.all(res <= 1e-12)
            assert np.abs(_dense(dv.ad_maps(alg, phis), alg) - inner).max(initial=0.0) <= 1e-12

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

    def test_certificate_rechecks_the_dimension_count(self):
        for alg in (es.matrix_units_algebra(2), es.square_zero_algebra()):
            rep = dv.derivation_space(alg)
            rep.weakly_amenable = not rep.weakly_amenable
            with pytest.raises(AssertionError, match="contradicts the dimension count"):
                dv.is_weakly_amenable(alg, rep)

    def test_essential(self):
        assert dv.derivation_space(es.pointwise_algebra(3)).essential
        assert dv.derivation_space(es.matrix_units_algebra(2)).essential
        assert not dv.derivation_space(es.square_zero_algebra()).essential
        # weakly amenable forces essential on everything we test
        for alg in (es.pointwise_algebra(2), es.matrix_units_algebra(2)):
            flag, _ = dv.is_weakly_amenable(alg)
            if flag:
                assert dv.derivation_space(alg).essential

    def test_structure_blocks_follow_the_nonzero_pattern(self):
        # M2 on {0, 2, 4, 5}, C on {3}, square-zero on {1}
        alg = _permuted_sum(["M2", "C", "square-zero"], [1.0, 1.0, 1.0], [0, 5, 1, 4, 2, 3])
        assert [b.tolist() for b in es._structure_blocks(alg.structure)] == [
            [0, 2, 4, 5], [1], [3]]
        assert [b.tolist() for b in alg.blocks] == [[0, 2, 4, 5], [1], [3]]

    def test_square_zero_pair(self):
        # one derivation per summand and one per ordered pair of summands
        rep = dv.derivation_space(_permuted_sum(["square-zero"] * 2, [1.0, 1.0], [0, 1]))
        assert (rep.dim_derivations, rep.dim_inner) == (4, 0)
        assert not rep.weakly_amenable

    def test_pieces_skip_pairs_with_an_empty_annihilator(self):
        # one diagonal piece per block; off-block pieces only between the
        # two square-zero blocks, the only ones whose products miss a vector
        alg = _permuted_sum(["square-zero", "M2", "square-zero", "C"], [1.0] * 4, range(7))
        rep = dv.derivation_space(alg)
        assert [(i, j, x.shape) for i, j, x in rep.pieces] == [
            (0, 0, (1, 1, 1)), (1, 1, (3, 4, 4)), (2, 2, (1, 1, 1)), (3, 3, (0, 1, 1)),
            (0, 2, (1, 1, 1)), (2, 0, (1, 1, 1))]
        alg = es.ESumAlgebra([es.matrix_units_algebra(2)] * 64,
                             lt.sup_norm(64)).as_finite_algebra(samples=0)
        pieces = dv.derivation_space(alg).pieces
        assert [(i, j, x.shape) for i, j, x in pieces] == [(i, i, (3, 4, 4)) for i in range(64)]

    def test_sixty_four_matrix_copies_stay_on_their_blocks(self):
        # no derivation basis, remainder or certificate at the size d x d
        alg = es.ESumAlgebra([es.matrix_units_algebra(2)] * 64,
                             lt.sup_norm(64)).as_finite_algebra(samples=0)
        tracemalloc.start()
        try:
            rep = dv.derivation_space(alg)
            flag, _ = dv.is_weakly_amenable(alg, rep)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [rep.dim_derivations, rep.dim_inner, rep.center_annihilator_dim] == [192, 192, 64]
        assert flag and peak <= 16 * 2 ** 20, peak

    def test_twelve_matrix_copies_stay_small(self):
        # the blocks are checked one at a time: no d^4 associativity
        # temporary and no whole-cube re-check of an inner basis element
        tracemalloc.start()
        try:
            alg = es.ESumAlgebra([es.matrix_units_algebra(2)] * 12,
                                 lt.sup_norm(12)).as_finite_algebra(samples=0)
            rep = dv.derivation_space(alg)
            flag, _ = dv.is_weakly_amenable(alg, rep)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [rep.dim_derivations, rep.dim_inner, rep.center_annihilator_dim] == [36, 36, 12]
        assert flag and peak <= 32 * 2 ** 20, peak

    def test_thirty_two_matrix_copies_solve_block_sized_systems(self, monkeypatch):
        # the unit, the Leibniz systems and essentialness are solved per
        # block: no call sees more rows than one M_2 Leibniz system (64)
        rows = []
        for name in ("lstsq", "svd"):
            solve = getattr(np.linalg, name)

            def recorded(a, *args, solve=solve, **kwargs):
                rows.append(np.shape(a)[-2])
                return solve(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, recorded)
        alg = es.ESumAlgebra([es.matrix_units_algebra(2)] * 32,
                             lt.sup_norm(32)).as_finite_algebra(samples=0)
        rep = dv.derivation_space(alg)
        flag, _ = dv.is_weakly_amenable(alg, rep)
        assert [rep.dim_derivations, rep.dim_inner, rep.center_annihilator_dim] == [96, 96, 32]
        assert flag and alg.unital and rep.essential
        assert rows and max(rows) <= 64, max(rows)

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
            assert abs(dv.leibniz_residual(c, D) - ref) <= 1e-13 * ref

    def test_residual_of_a_stack_is_the_max_over_its_maps(self):
        rng = np.random.default_rng(8)
        alg = _permuted_sum(["M2", "en", "C"], [1.0, 3.0, 0.5], rng.permutation(7))
        c, inner = alg.structure, _inner_basis(dv.derivation_space(alg))
        gauss = rng.standard_normal((2, 3, 7, 7)) + 1j * rng.standard_normal((2, 3, 7, 7))
        for stack in (gauss, inner, np.concatenate([inner, gauss[0]])):
            want = max(dv.leibniz_residual(c, D) for D in stack.reshape(-1, 7, 7))
            assert dv.leibniz_residual(c, stack) == want
        assert dv.leibniz_residual(c, inner[:0]) == 0.0


@st.composite
def block_sums(draw):
    """Permuted block sums of one to four named summands in rescaled
    complex bases, of dimension at most 10."""
    names = draw(st.lists(st.sampled_from(sorted(SUMMANDS)), min_size=1, max_size=4)
                 .filter(lambda ns: sum(SUMMANDS[n].dim for n in ns) <= 10))
    scales = draw(st.lists(st.sampled_from([1e-2, 0.5, 1.0, 3.0, 1e2, 1j, 0.5 - 2j]),
                           min_size=len(names), max_size=len(names)))
    dim = sum(SUMMANDS[n].dim for n in names)
    return _permuted_sum(names, scales, draw(st.permutations(range(dim))))


@pytest.mark.parametrize("scale", [1e-2, 0.5, 1.0, 3.0, 1e2, 1j, 0.5 - 2j])   # block_sums' scales
@pytest.mark.parametrize("name", sorted(SUMMANDS))
def test_rescaled_complex_bases_are_accepted(name, scale):
    alg = es.FiniteAlgebra(_rebased(SUMMANDS[name].structure, scale), es.MaxAbsCoordinate(),
                           samples=0)
    assert alg.commutative == SUMMANDS[name].commutative
    assert alg.unital == SUMMANDS[name].unital


@settings(max_examples=40, deadline=None, derandomize=True)
@given(alg=block_sums())
def test_blockwise_matches_monolithic(alg):
    rep = dv.derivation_space(alg)
    oracle = _monolithic_derivations(alg)
    basis = _derivation_basis(rep)
    assert rep.dim_derivations == len(oracle)
    assert np.abs(_projector(basis) - _projector(oracle)).max(initial=0.0) <= 1e-10
    flat = _flat(basis)
    assert np.abs(flat.conj() @ flat.T - np.eye(len(basis))).max(initial=0.0) <= 1e-10
    for mat in basis:
        assert dv.leibniz_residual(alg.structure, mat) <= 1e-10


def _assert_same_system(c):
    got, want = dv._leibniz_system(c), _three_einsum_system(c)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("alg", [es.matrix_units_algebra(2), es.matrix_units_algebra(3),
                                 es.pointwise_algebra(3), es.square_zero_algebra(),
                                 _en_algebra(), _nilpotent_algebra()], ids=lambda a: a.label)
def test_leibniz_system_matches_three_einsums(alg):
    _assert_same_system(alg.structure)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(alg=block_sums())
def test_leibniz_system_of_block_sums_matches_three_einsums(alg):
    _assert_same_system(alg.structure)


@pytest.mark.parametrize("which", [0, 1, 2])
def test_inner_recheck_catches_a_perturbed_block(which, monkeypatch):
    """An adjoint matrix perturbed on one block of M_2 (+) C (+) M_2 gives
    inner basis elements that are not derivations, and the re-check of the
    inner basis refuses them."""
    alg = _sum_algebra([es.matrix_units_algebra(2), es.scalar_algebra(),
                        es.matrix_units_algebra(2)], lt.sup_norm(3))
    adjoint = dv.adjoint_map_matrix
    calls = []

    def perturbed(c):
        out = adjoint(c)
        calls.append(len(c))
        if len(calls) == which + 1:
            out = out + 0.01 * np.random.default_rng(which).standard_normal(out.shape)
        return out

    monkeypatch.setattr(dv, "adjoint_map_matrix", perturbed)
    with pytest.raises(AssertionError, match="inner derivation violates the Leibniz identity"):
        dv.derivation_space(alg)
    assert calls == [4, 1, 4]


def test_inner_recheck_catches_a_tampered_block_factor(monkeypatch):
    """One entry of the last kept left singular vector of the second M_2
    block of M_2 (+) C (+) M_2, moved by 0.01 once the report holds it,
    makes that inner element no derivation of the block's cube, and the
    re-check refuses it; untampered, the same report passes."""
    alg = _sum_algebra([es.matrix_units_algebra(2), es.scalar_algebra(),
                        es.matrix_units_algebra(2)], lt.sup_norm(3))
    init = dv.DerivationSpaceReport.__init__

    def tampered(self, *args):
        init(self, *args)
        b, (r, u, _, _) = self.adjoint[2]
        assert b.tolist() == [5, 6, 7, 8] and r == 3
        u[0, r - 1] += 0.01

    dv.derivation_space(alg)
    monkeypatch.setattr(dv.DerivationSpaceReport, "__init__", tampered)
    with pytest.raises(AssertionError, match="inner derivation violates the Leibniz identity"):
        dv.derivation_space(alg)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(alg=block_sums(), seed=st.integers(0, 2 ** 32 - 1))
def test_report_implements_like_the_dense_solve(alg, seed):
    """Oracle: the least-squares solve of the whole dim^2 x dim adjoint
    matrix at RANK_TOL, and the least kept value of its full SVD.  Checked
    on an inner derivation ad_psi and on a matrix that is not one."""
    rep = dv.derivation_space(alg)
    admat = dv.adjoint_map_matrix(alg.structure)
    s = np.linalg.svd(admat, compute_uv=False)
    kept = s[s > dv.RANK_TOL * s[0]]
    if kept.size:
        assert abs(rep.sigma_min - kept.min()) <= 1e-10 * kept.min()
    else:
        assert rep.sigma_min == np.inf
    rng = np.random.default_rng(seed)
    d = alg.dim
    psi = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    for D in ((admat @ psi).reshape(d, d), g):
        phi, res = rep.implement(_cut(D, alg))
        oracle, *_ = np.linalg.lstsq(admat, D.reshape(-1), rcond=dv.RANK_TOL)
        assert np.linalg.norm(phi - oracle) <= 1e-10 * np.linalg.norm(oracle)
        oracle_res = np.linalg.norm(admat @ oracle - D.reshape(-1))
        assert abs(res - oracle_res) <= 1e-10 * np.linalg.norm(D)


def _whole_cube_unit(c):
    """Oracle: the unit as one least-squares system over the whole cube,
    u b_j = b_j and b_j u = b_j for all j, snapped to integers when they
    solve it; None without a unit."""
    d = len(c)
    eye = np.eye(d).reshape(-1)
    big = np.vstack([c.transpose(1, 2, 0).reshape(d * d, d), c.transpose(0, 2, 1).reshape(d * d, d)])
    rhs = np.concatenate([eye, eye])
    u, *_ = np.linalg.lstsq(big, rhs, rcond=None)
    snapped = np.round(u.real) + 1j * np.round(u.imag)
    if np.linalg.norm(big @ snapped - rhs) < 1e-12:
        return snapped
    if np.linalg.norm(big @ u - rhs) < 1e-10:
        return u
    return None


def _whole_cube_commutative(c):
    """Oracle: the whole cube against its transpose in (i, j)."""
    return bool(np.allclose(c, c.transpose(1, 0, 2), atol=1e-12))


def _whole_cube_essential(c):
    """Oracle: span{ab} = A when the whole d^2 x d multiplication matrix has
    rank d at RANK_TOL relative to its largest singular value."""
    d = len(c)
    s = np.linalg.svd(c.reshape(d * d, d), compute_uv=False)
    return int(np.sum(s > dv.RANK_TOL * s.max(initial=0.0))) == d


def _assert_matches_whole_cube(alg):
    c = alg.structure
    unit = _whole_cube_unit(c)
    assert alg.unital == (unit is not None)
    if unit is not None:
        assert np.linalg.norm(alg.unit - unit) <= 1e-12 * np.linalg.norm(unit)
    assert alg.commutative == _whole_cube_commutative(c)
    assert dv.derivation_space(alg).essential == _whole_cube_essential(c)


def _mixed_unit_sum():
    """M_2 beside C in the basis 3 b_0, whose unit is b_0 / 3."""
    c = es.block_cube([es.matrix_units_algebra(2).structure, [[[3.0]]]])
    return es.FiniteAlgebra(c, es.MaxAbsCoordinate(), samples=0, label="M2 + 3C")


def _square_zero_sum():
    """M_2 beside a square-zero block: no unit."""
    c = es.block_cube([es.matrix_units_algebra(2).structure, [[[0.0]]]])
    return es.FiniteAlgebra(c, es.MaxAbsCoordinate(), samples=0, label="M2 + square-zero")


@pytest.mark.parametrize("alg", list(SUMMANDS.values()) + [
    es.matrix_units_algebra(3), es.pointwise_algebra(3), _mixed_unit_sum(), _square_zero_sum()],
    ids=lambda a: a.label)
def test_unit_commutativity_and_essentialness_match_the_whole_cube(alg):
    _assert_matches_whole_cube(alg)


def test_hand_built_sums_exercise_both_unit_cases():
    mixed = _mixed_unit_sum()
    assert np.abs(mixed.unit - [1, 0, 0, 1, 1 / 3]).max() <= 1e-15
    assert not _square_zero_sum().unital


@settings(max_examples=40, deadline=None, derandomize=True)
@given(alg=block_sums())
def test_unit_commutativity_and_essentialness_of_block_sums_match_the_whole_cube(alg):
    _assert_matches_whole_cube(alg)


class TestMinimization:
    def test_m2_distance_to_commutant(self):
        m2 = es.matrix_units_algebra(2)
        rep = dv.derivation_space(m2)
        psi = np.zeros(4)
        psi[1] = 1.0
        dist = dv.min_dual_over_affine(m2.norm, psi, rep.z_basis)["lower"]
        assert abs(dist - 1.0) <= 1e-6

    def test_trace_multiple_projects_to_zero(self):
        m2 = es.matrix_units_algebra(2)
        rep = dv.derivation_space(m2)
        trace = np.array([1.0, 0.0, 0.0, 1.0])
        dist = dv.min_dual_over_affine(m2.norm, trace, rep.z_basis)["lower"]
        assert dist <= 1e-8

    def test_minimal_implementing_functional(self):
        m2 = es.matrix_units_algebra(2)
        rep = dv.derivation_space(m2)
        psi = np.zeros(4)
        psi[1] = 1.0
        admat = dv.adjoint_map_matrix(m2.structure)
        D = (admat @ psi).reshape(4, 4)
        phi0, res = rep.implement(_cut(D, m2))
        assert res <= dv.INNER_TOL
        best = dv.min_dual_over_affine(m2.norm, phi0, rep.z_basis)
        recon = (admat @ best["phi"]).reshape(4, 4)
        assert np.abs(recon - D).max() <= 1e-8
        assert best["lower"] <= best["upper"] <= float(m2.norm.dual(psi)) + 1e-9

    def test_non_inner_rejected(self):
        # the derivation of the square-zero algebra is a unit vector outside
        # the (zero) inner span, so its residual is its whole norm
        sz = es.square_zero_algebra()
        rep = dv.derivation_space(sz)
        D = _derivation_basis(rep)[0]
        phi0, res = rep.implement(_cut(D, sz))
        assert res > dv.INNER_TOL and abs(res - 1.0) <= 1e-12
        assert np.abs(phi0).max() == 0.0


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


def _parent_wam_oracle(algebra, samples, seed, blocks, rep):
    """The draw path that wam_bracket once took, kept as an oracle: one
    Gaussian draw at a time, projected onto the derivation basis, filtered
    by the Leibniz identity, implemented again through ``rep.implement`` and
    bracketed by min_dual_over_affine; the upper end sums the basis norms
    one at a time."""
    d = algebra.dim
    draws = []
    for block in blocks or [list(range(d))]:
        idx = np.asarray(block)
        rng_b = np.random.default_rng([seed, len(idx)])
        for _ in range(samples):
            g = rng_b.standard_normal((len(idx), len(idx))) + 1j * rng_b.standard_normal((len(idx), len(idx)))
            full = np.zeros((d, d), complex)
            full[np.ix_(idx, idx)] = g
            draws.append(full)
    rng_mix = np.random.default_rng([seed, 0xE5])
    for _ in range(max(4, samples // 10)):
        draws.append(rng_mix.standard_normal((d, d)) + 1j * rng_mix.standard_normal((d, d)))
    lower, used = 0.0, 0
    flat = _derivation_basis(rep).reshape(rep.dim_derivations, d * d)
    for g in draws:
        D = ((flat.conj() @ g.reshape(-1)) @ flat).reshape(d, d)
        if dv.leibniz_residual(algebra.structure, D) > 1e-8 * max(1.0, float(np.abs(D).max())):
            continue
        nd = dv.derivation_norm_upper(algebra, _cut(D, algebra))
        if nd < 1e-12:
            continue
        phi0, res = rep.implement(_cut(D, algebra))
        assert res <= dv.INNER_TOL * max(1.0, float(np.linalg.norm(D)))
        lower = max(lower, dv.min_dual_over_affine(algebra.norm, phi0, rep.z_basis)["lower"] / nd)
        used += 1
    r_phi, s_phi = algebra.norm.dual_vs_l2(d)
    basis_sq = float(sum(algebra.norm.eval(np.eye(d, dtype=complex)[j]) ** 2 for j in range(d)))
    upper = max(r_phi * s_phi * np.sqrt(basis_sq) / rep.sigma_min, lower)
    return lower, float(upper), used


WAM_LATTICES = {
    "sup": lt.sup_norm,
    "lp(1.5)": lambda n: lt.lp_norm(1.5, n),
    "weighted_sup": lambda n: lt.weighted_sup(1.0 + 0.75 * np.arange(n)),
}


@pytest.mark.parametrize("seed", [0, 7, 42])
@pytest.mark.parametrize("case", ["M2", "split"] + [f"{k} x {n}" for n in (2, 3)
                                                  for k in sorted(WAM_LATTICES)])
def test_wam_bracket_matches_the_per_draw_oracle(case, seed):
    """wam_bracket's ends agree with the per-draw oracle to 1e-12 relative
    and use as many samples, on M_2 and on 2 and 3 copies of M_2 drawn
    block by block; "split" draws on unsorted index lists that cut across
    the structure blocks of 2 copies."""
    if case == "M2":
        alg, blocks = es.matrix_units_algebra(2), None
    elif case == "split":
        alg = _sum_algebra([es.matrix_units_algebra(2)] * 2, lt.sup_norm(2))
        blocks = [[1, 0], [2, 3, 4], [7, 6, 5]]
    else:
        kind, copies = case.split(" x ")
        copies = int(copies)
        alg = es.ESumAlgebra([es.matrix_units_algebra(2)] * copies,
                             WAM_LATTICES[kind](copies)).as_finite_algebra(samples=0)
        blocks = [list(range(4 * i, 4 * i + 4)) for i in range(copies)]
    rep = dv.derivation_space(alg)
    out = dv.wam_bracket(alg, samples=25, seed=seed, blocks=blocks, report=rep)
    lower, upper, used = _parent_wam_oracle(alg, 25, seed, blocks, rep)
    assert abs(out["lower"] - lower) <= 1e-12 * lower
    assert abs(out["upper"] - upper) <= 1e-12 * upper
    assert out["samples_used"] == used


@pytest.mark.parametrize("seed", [0, 7, 42])
@pytest.mark.parametrize("copies", [2, 3])
@pytest.mark.parametrize("kind", sorted(WAM_LATTICES))
def test_esum_wa_check_brackets_match_the_per_draw_oracle(kind, copies, seed):
    """esum_wa_check's bracket of the sum and of each summand agree with the
    per-draw oracle to 1e-12 relative and use as many samples."""
    m2 = es.matrix_units_algebra(2)
    lattice = WAM_LATTICES[kind](copies)
    rep = dv.esum_wa_check([m2] * copies, lattice, samples=25, seed=seed)
    assert rep["ok"]
    big = es.ESumAlgebra([m2] * copies, lattice).as_finite_algebra(seed=seed)
    blocks = [list(range(4 * i, 4 * i + 4)) for i in range(copies)]
    expected = [_parent_wam_oracle(big, 25, seed, blocks, dv.derivation_space(big))]
    expected += [_parent_wam_oracle(m2, 25, seed, None, dv.derivation_space(m2))] * copies
    got = [rep["bracket_sum"]] + rep["bracket_summands"]
    assert len(got) == len(expected)
    for br, (lower, upper, used) in zip(got, expected):
        assert abs(br["lower"] - lower) <= 1e-12 * lower
        assert abs(br["upper"] - upper) <= 1e-12 * upper
        assert br["samples_used"] == used


def test_wam_bracket_solves_every_draw_in_one_call(monkeypatch):
    """A bracket on a weakly amenable algebra makes one implement call per
    basis piece for the basis check and one per group of draws (a block's,
    or the whole-space mix), one min_dual_over_affine call for all their
    witnesses and no Leibniz re-check of a draw; is_weakly_amenable makes
    one implement call per basis piece."""
    calls = {"implement": 0, "leibniz_residual": 0, "min_dual_over_affine": 0}
    implement, leibniz = dv.DerivationSpaceReport.implement, dv.leibniz_residual
    solve = dv.min_dual_over_affine

    def counting_solve(*args):
        calls["min_dual_over_affine"] += 1
        return solve(*args)

    def counting_implement(self, D):
        calls["implement"] += 1
        return implement(self, D)

    def counting_leibniz(*args):
        calls["leibniz_residual"] += 1
        return leibniz(*args)

    for copies in (1, 3):
        alg = es.ESumAlgebra([es.matrix_units_algebra(2)] * copies,
                             lt.lp_norm(1.5, copies)).as_finite_algebra(samples=0)
        rep = dv.derivation_space(alg)
        with monkeypatch.context() as m:
            m.setattr(dv.DerivationSpaceReport, "implement", counting_implement)
            m.setattr(dv, "leibniz_residual", counting_leibniz)
            m.setattr(dv, "min_dual_over_affine", counting_solve)
            calls.update(implement=0, leibniz_residual=0, min_dual_over_affine=0)
            assert dv.is_weakly_amenable(alg, rep)[0] and len(rep.pieces) == copies
            assert calls == {"implement": copies, "leibniz_residual": 0, "min_dual_over_affine": 0}
            blocks = [list(range(4 * i, 4 * i + 4)) for i in range(copies)]
            out = dv.wam_bracket(alg, samples=30, seed=1, blocks=blocks, report=rep)
            assert calls == {"implement": 2 * copies + (copies + 1), "leibniz_residual": 0,
                             "min_dual_over_affine": 1}
            assert out["samples_used"] == 30 * copies + 4


def test_wam_bracket_on_sixteen_copies_stays_on_its_blocks():
    """120 draws a block on 16 copies of M_2 and 12 whole-space draws, each
    cut to its blocks: no stack of draws or ad maps at the size d x d."""
    alg = es.ESumAlgebra([es.matrix_units_algebra(2)] * 16,
                         lt.sup_norm(16)).as_finite_algebra(samples=0)
    blocks = [list(range(4 * i, 4 * i + 4)) for i in range(16)]
    tracemalloc.start()
    try:
        out = dv.wam_bracket(alg, samples=120, seed=0, blocks=blocks)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out["samples_used"] == 16 * 120 + 12
    assert peak <= 64 * 2 ** 20, peak


def test_wam_bracket_refuses_negative_samples():
    with pytest.raises(ValueError, match="samples must be nonnegative, got -1"):
        dv.wam_bracket(es.matrix_units_algebra(2), samples=-1)
    out = dv.wam_bracket(es.matrix_units_algebra(2), samples=0)
    assert out["samples_used"] == 4 and 0 < out["lower"] <= out["upper"]


def _sum_algebra(summands, lattice):
    return es.ESumAlgebra(summands, lattice).as_finite_algebra(samples=0)


STACK_ALGEBRAS = {   # the coordinate norms of WITNESS_NORMS, on algebras
    "max_abs": _permuted_sum(["M2", "en", "C"], [1.0, 3.0, 0.5], [3, 0, 6, 1, 5, 2, 4]),
    "euclidean": es.FiniteAlgebra(es.matrix_units_algebra(2).structure,
                                  es.EuclideanCoordinate(), samples=0),
    "M2": es.matrix_units_algebra(2),
    "M3": es.matrix_units_algebra(3),
    "sup(M2, M2)": _sum_algebra([es.matrix_units_algebra(2)] * 2, lt.sup_norm(2)),
    "weighted_sup(M2, C)": _sum_algebra([es.matrix_units_algebra(2), es.scalar_algebra()],
                                        lt.weighted_sup([1.0, 2.5])),
    "lp(C, M2, M2)": _sum_algebra([es.scalar_algebra()] + [es.matrix_units_algebra(2)] * 2,
                                  lt.lp_norm(1.5, 3)),
}


@settings(max_examples=60, deadline=None, derandomize=True)
@given(name=st.sampled_from(sorted(STACK_ALGEBRAS)), lead=st.sampled_from([(1,), (6,), (2, 3)]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_stacked_helpers_match_single_maps(name, lead, seed):
    """On a stack (..., d, d) of inner maps ad_psi and of Gaussian maps,
    implement and derivation_norm_upper equal their per-map calls to 1e-15
    relative (phi against its own norm, the residual against ||D||), and
    every Gaussian map, which is not inner, has a residual above INNER_TOL."""
    alg = STACK_ALGEBRAS[name]
    rep = dv.derivation_space(alg)
    d = alg.dim
    rng = np.random.default_rng(seed)
    psi = rng.standard_normal(lead + (d,)) + 1j * rng.standard_normal(lead + (d,))
    inner = (psi @ dv.adjoint_map_matrix(alg.structure).T).reshape(lead + (d, d))
    gauss = rng.standard_normal(lead + (d, d)) + 1j * rng.standard_normal(lead + (d, d))
    for stack, is_inner in ((inner, True), (gauss, False)):
        phis, res = rep.implement(_cut(stack, alg))
        bounds = dv.derivation_norm_upper(alg, _cut(stack, alg))
        assert phis.shape == lead + (d,) and res.shape == bounds.shape == lead
        for k in np.ndindex(*lead):
            phi, r = rep.implement(_cut(stack[k], alg))
            bound = dv.derivation_norm_upper(alg, _cut(stack[k], alg))
            assert isinstance(r, float) and isinstance(bound, float)
            scale = float(np.linalg.norm(stack[k]))
            assert np.linalg.norm(phis[k] - phi) <= 1e-15 * np.linalg.norm(phi)
            assert abs(res[k] - r) <= 1e-15 * scale
            assert abs(bounds[k] - bound) <= 1e-15 * bound
            assert (r <= dv.INNER_TOL * scale) if is_inner else (r > dv.INNER_TOL)


NORM_ALGEBRAS = dict(STACK_ALGEBRAS, **{   # and one Euclidean algebra of several blocks
    "euclidean(sz, M2, sz, C)": es.FiniteAlgebra(
        es.block_cube([SUMMANDS[n].structure for n in ("square-zero", "M2", "square-zero", "C")]),
        es.EuclideanCoordinate(), samples=0)})


@settings(max_examples=60, deadline=None, derandomize=True)
@given(name=st.sampled_from(sorted(NORM_ALGEBRAS)), lead=st.sampled_from([(), (3,)]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_norm_bound_of_pieces_matches_the_dense_map(name, lead, seed):
    """derivation_norm_upper of pieces on a random set of block pairs,
    linked or not, is the bound of the assembled map to 1e-12 relative:
    its spectral norm under the Euclidean norm, and else the sum of the
    dual norms of its columns."""
    alg = NORM_ALGEBRAS[name]
    rng = np.random.default_rng(seed)
    k = len(alg.blocks)
    pairs = [(i, j) for i in range(k) for j in range(k) if rng.random() < 0.4] or [(0, 0)]
    pieces = [(i, j, rng.standard_normal(lead + (len(alg.blocks[i]), len(alg.blocks[j]), 2)) @ [1, 1j])
              for i, j in pairs]
    D = _dense(pieces, alg)
    if isinstance(alg.norm, es.EuclideanCoordinate):
        want = np.linalg.svd(D, compute_uv=False)[..., 0]
    else:
        want = alg.norm.dual(np.swapaxes(D, -1, -2)).sum(axis=-1)
    got = dv.derivation_norm_upper(alg, pieces)
    assert np.shape(got) == lead and np.all(np.abs(got - want) <= 1e-12 * want)


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

    def test_each_distinct_summand_is_solved_once(self, monkeypatch):
        """derivation_space runs on the sum and once per distinct summand
        object, and the report keeps one equal entry per summand."""
        calls = []
        solve = dv.derivation_space
        monkeypatch.setattr(dv, "derivation_space", lambda a: calls.append(a) or solve(a))
        m2, c = es.matrix_units_algebra(2), es.scalar_algebra()
        for summands, distinct in (([m2] * 3, 1), ([m2, c, m2], 2),
                                   ([m2, es.matrix_units_algebra(2)], 2)):
            calls.clear()
            rep = dv.esum_wa_check(summands, lt.sup_norm(len(summands)), samples=10, seed=4)
            assert rep["ok"] and len(calls) == 1 + distinct
            assert len(rep["summands"]) == len(rep["bracket_summands"]) == len(summands)
            for i, a in enumerate(summands):
                single = dv.wam_bracket(a, samples=10, seed=4)
                assert rep["bracket_summands"][i] == single
                assert rep["summands"][i] == solve(a).as_dict()

    def test_negative_samples_are_refused(self):
        # before any work: [C, square-zero] is not weakly amenable and takes no bracket
        for summands in ([es.scalar_algebra(), es.square_zero_algebra()],
                         [es.matrix_units_algebra(2)] * 2):
            with pytest.raises(ValueError, match="^samples must be nonnegative, got -1$"):
                dv.esum_wa_check(summands, lt.sup_norm(2), samples=-1)

    def test_transfer_bound(self):
        # summand lower <= ||delta_i|| * sum upper, from esum_wa_check's brackets
        lattice = lt.weighted_sup([1.0, 2.0])
        assert lt.delta_norm(lattice, 1) == 2.0
        for summands, lat, samples in (
                ([es.matrix_units_algebra(2), es.matrix_units_algebra(2)], lattice, 30),
                ([es.scalar_algebra(), es.scalar_algebra()], lt.sup_norm(2), 5)):
            rep = dv.esum_wa_check(summands, lat, samples=samples, seed=3)
            assert rep["ok"]
            bound = rep["bracket_sum"]["upper"]
            for i, br in enumerate(rep["bracket_summands"]):
                assert br["lower"] <= lt.delta_norm(lat, i) * bound + dv.BRACKET_TOL


def _whole_cube_demo(B, psi, p, sizes):
    """Oracle: lp_obstruction_demo on the dense structure cube of B, with
    ad_psi from the whole adjoint matrix and each row's Leibniz residual
    taken on the whole cube; ``sizes`` distinct and increasing."""
    rep = dv.derivation_space(B)
    ad_psi = (dv.adjoint_map_matrix(B.structure) @ psi).reshape(B.dim, B.dim)
    dist = dv.min_dual_over_affine(B.norm, psi, rep.z_basis)["lower"]
    q = p / (p - 1.0)
    weights = dv.obstruction_weights(p, sizes[-1])
    minima = dv.min_dual_over_affine(B.norm, weights[:, None] * psi, rep.z_basis)["lower"]
    rows = []
    for size in sizes:
        w, per_coord = weights[:size], minima[:size]
        floor = dist * np.abs(w)
        rows.append({
            "size": size,
            "per_coordinate": per_coord.tolist(),
            "floor": floor.tolist(),
            "per_coordinate_ok": bool(np.all(per_coord >= floor - dv.FLOOR_TOL)),
            "aggregate": float(np.sum(per_coord ** q) ** (1.0 / q)),
            "reference": float(dist * np.sum(np.abs(w) ** q) ** (1.0 / q)),
            "leibniz_residual": float(np.abs(dv._leibniz_defect(
                B.structure, w[:, None, None] * ad_psi)).max()),
        })
    growing = all(a["aggregate"] > b["aggregate"] for a, b in zip(rows[1:], rows[:-1]))
    ok = growing and all(r["per_coordinate_ok"] and r["leibniz_residual"] <= 1e-9 for r in rows)
    return {"distance": dist, "q": q, "rows": rows, "monotone_growth": growing, "ok": ok}


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
            rep = dv.lp_obstruction_demo(m2, psi, p, [2, 4, 8])
            assert rep["ok"]
            assert abs(rep["distance"] - 1.0) <= 1e-6
            aggs = [row["aggregate"] for row in rep["rows"]]
            assert aggs == sorted(aggs) and len(set(aggs)) == 3
            for row in rep["rows"]:
                assert row["per_coordinate_ok"]
                assert row["leibniz_residual"] <= 1e-9

    def test_repeated_sizes_give_each_row_once(self):
        m2 = es.matrix_units_algebra(2)
        psi = np.eye(4)[1]
        rep = dv.lp_obstruction_demo(m2, psi, 2.0, [4, 2, 2])
        assert rep == dv.lp_obstruction_demo(m2, psi, 2.0, [2, 4])
        assert rep["ok"] and rep["monotone_growth"] and [r["size"] for r in rep["rows"]] == [2, 4]

    def test_demo_solves_each_coordinate_once(self, monkeypatch):
        # the distance, then the minima of every coordinate of the longest
        # truncation in one stacked call; the shorter ones take prefixes
        calls = []
        solve = dv.min_dual_over_affine
        monkeypatch.setattr(dv, "min_dual_over_affine",
                            lambda *args: calls.append(1) or solve(*args))
        psi = np.zeros(4)
        psi[1] = 1.0
        dv.lp_obstruction_demo(es.matrix_units_algebra(2), psi, 3.0, [2, 4, 8])
        assert len(calls) == 2

    def test_p2_aggregate_value(self):
        m2 = es.matrix_units_algebra(2)
        psi = np.zeros(4)
        psi[1] = 1.0
        rep = dv.lp_obstruction_demo(m2, psi, 2.0, [2, 4])
        for row in rep["rows"]:
            assert abs(row["aggregate"] - np.sqrt(row["size"])) <= 1e-6

    @pytest.mark.parametrize("sizes, p, message", [
        ([], 2.0, r"^sizes must list positive integers, got \[\]$"),
        ([0], 2.0, r"^sizes must list positive integers, got \[0\]$"),
        ([4, -1, 2], 2.0, r"^sizes must list positive integers, got \[-1, 2, 4\]$"),
        ([2], 1.0, r"^exponent must satisfy 1 < p < inf, got 1.0$"),
        ([2], np.inf, r"^exponent must satisfy 1 < p < inf, got inf$"),
    ])
    def test_bad_sizes_and_exponents_are_refused(self, sizes, p, message):
        with pytest.raises(ValueError, match=message):
            dv.lp_obstruction_demo(es.matrix_units_algebra(2), np.eye(4)[1], p, sizes)

    def test_commutant_psi_rejected(self):
        m2 = es.matrix_units_algebra(2)
        trace = np.array([1.0, 0.0, 0.0, 1.0])
        with pytest.raises(ValueError):
            dv.lp_obstruction_demo(m2, trace, 2.0, [2])

    @pytest.mark.parametrize("kind", sorted(WAM_LATTICES))
    @pytest.mark.parametrize("copies", [1, 2, 3, 4])
    def test_demo_rows_match_the_whole_cube(self, kind, copies):
        """On copies of M_2, with psi = e_12 of the first copy and with a
        random complex psi, the report equals, bit for bit, the one built on
        the dense structure cube: ad_psi from the whole adjoint matrix and
        the Leibniz residual of the whole cube."""
        B = _sum_algebra([es.matrix_units_algebra(2)] * copies, WAM_LATTICES[kind](copies))
        rng = np.random.default_rng(copies)
        d = B.dim
        for psi in (np.eye(d)[1], rng.standard_normal(d) + 1j * rng.standard_normal(d)):
            for p in (1.5, 2.0, 3.0):
                got = dv.lp_obstruction_demo(B, psi, p, [3, 1, 5])
                assert got == _whole_cube_demo(B, psi, p, [1, 3, 5]), (kind, copies, p)

    def test_zero_weight_coordinate_needs_nothing(self):
        # a vanished derivation component is implemented by the zero functional
        m2 = es.matrix_units_algebra(2)
        rep = dv.derivation_space(m2)
        best = dv.min_dual_over_affine(m2.norm, 0.0 * np.ones(4), rep.z_basis)
        assert best["lower"] == 0.0 and np.abs(best["phi"]).max() == 0.0


def _powell_oracle(norm, phi0, z):
    """The Powell search that the dual witness replaced, kept as an oracle:
    its value is the dual norm at a point of phi0 + span(z), so it sits at
    or above the true minimum."""
    from scipy.optimize import minimize
    k = len(z)

    def objective(t):
        return float(norm.dual(phi0 + (t[:k] + 1j * t[k:]) @ z))

    proj = -(z.conj() @ phi0)
    starts = [np.zeros(2 * k), np.concatenate([proj.real, proj.imag])]
    return min(minimize(objective, x0, method="Powell",
                        options={"xtol": 1e-10, "ftol": 1e-12, "maxiter": 10000}).fun
               for x0 in starts)


WITNESS_NORMS = {   # name: (norm, dimension)
    "max_abs": (es.MaxAbsCoordinate(), 4),
    "euclidean": (es.EuclideanCoordinate(), 4),
    "M2": (es.MatrixOperatorNorm(2), 4),
    "M3": (es.MatrixOperatorNorm(3), 9),
    "sup(M2, M2)": (es.LatticeBlockNorm(lt.sup_norm(2), [es.MatrixOperatorNorm(2)] * 2, [4, 4]), 8),
    "weighted_sup(M2, max_abs)": (es.LatticeBlockNorm(
        lt.weighted_sup([1.0, 2.5]), [es.MatrixOperatorNorm(2), es.MaxAbsCoordinate()], [4, 2]), 6),
    "lp(euclidean, M2)": (es.LatticeBlockNorm(
        lt.lp_norm(1.5, 2), [es.EuclideanCoordinate(), es.MatrixOperatorNorm(2)], [3, 4]), 7),
}


def _orthonormal_rows(g):
    q, _ = np.linalg.qr(g.T)
    return q.T


@settings(max_examples=60, deadline=None, derandomize=True)
@given(name=st.sampled_from(sorted(WITNESS_NORMS)), k=st.integers(0, 2),
       seed=st.integers(0, 2 ** 32 - 1))
def test_witness_is_a_lower_bound(name, k, seed):
    """On random phi0 and a random Z, which does not split by block, the
    witness value sits below the dual norm of every sampled point of
    phi0 + Z and below the Powell oracle; the upper end is attained.  The
    witness X is re-checked without witness_value: it annihilates Z, and
    every sampled phi pairs with X / ||X|| to at most ||phi||_dual."""
    norm, d = WITNESS_NORMS[name]
    rng = np.random.default_rng(seed)
    phi0 = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    z = _orthonormal_rows(rng.standard_normal((k, d)) + 1j * rng.standard_normal((k, d)))
    best = dv.min_dual_over_affine(norm, phi0, z)
    assert dv.witness_value(norm, phi0, z, best["witness"]) == best["lower"]
    assert abs(float(norm.dual(best["phi"])) - best["upper"]) <= 1e-12 * best["upper"]
    step = best["phi"] - phi0   # lies in Z
    assert np.abs((z.conj() @ step) @ z - step).max(initial=0.0) <= 1e-12
    x = best["witness"]
    assert np.abs(z @ x).max(initial=0.0) <= 1e-12 * np.linalg.norm(x)
    size = float(norm.eval(x))
    slack = 1e-12 * best["upper"]
    assert best["lower"] <= best["upper"] + slack
    for _ in range(20):
        c = rng.standard_normal(k) + 1j * rng.standard_normal(k)
        phi = phi0 + c @ z
        dual = float(norm.dual(phi))
        assert best["lower"] <= dual + slack
        if size > 0:
            assert float((phi @ x).real) / size <= dual * (1 + 1e-12)
    if k:
        assert best["lower"] <= _powell_oracle(norm, phi0, z) + slack


@settings(max_examples=40, deadline=None, derandomize=True)
@given(name=st.sampled_from(sorted(WITNESS_NORMS)), k=st.integers(0, 2),
       seed=st.integers(0, 2 ** 32 - 1))
def test_stacked_witnesses_match_single_rows(name, k, seed):
    """min_dual_over_affine and witness_value on a stack (N, d), zero rows
    included, give each row's single call to 1e-14 relative to its upper
    end, as arrays (N,) where a single row gives floats."""
    norm, d = WITNESS_NORMS[name]
    rng = np.random.default_rng(seed)
    phi0 = rng.standard_normal((7, d)) + 1j * rng.standard_normal((7, d))
    phi0[[2, 5]] = 0.0
    z = _orthonormal_rows(rng.standard_normal((k, d)) + 1j * rng.standard_normal((k, d)))
    best = dv.min_dual_over_affine(norm, phi0, z)
    values = dv.witness_value(norm, phi0, z, best["witness"])
    assert best["lower"].shape == best["upper"].shape == values.shape == (7,)
    assert np.array_equal(values, best["lower"])
    for i, row in enumerate(phi0):
        one = dv.min_dual_over_affine(norm, row, z)
        assert isinstance(one["lower"], float) and isinstance(one["upper"], float)
        assert isinstance(dv.witness_value(norm, row, z, one["witness"]), float)
        scale = 1e-14 * one["upper"]
        assert abs(best["upper"][i] - one["upper"]) <= scale
        assert abs(best["lower"][i] - one["lower"]) <= scale
        assert np.abs(best["phi"][i] - one["phi"]).max() <= 1e-14 * np.abs(row).max(initial=0.0)
        assert np.abs(best["witness"][i] - one["witness"]).max() <= 1e-14
    assert np.array_equal(best["lower"][[2, 5]], [0.0, 0.0])
    assert np.array_equal(best["upper"][[2, 5]], [0.0, 0.0])


def test_witness_is_exact_on_m2():
    """Z = span(I): the traceless part of phi0 is the minimiser, its trace
    norm is the minimum, and the witness attains it."""
    m2 = es.matrix_units_algebra(2)
    z = dv.derivation_space(m2).z_basis
    rng = np.random.default_rng(11)
    for _ in range(50):
        phi0 = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        best = dv.min_dual_over_affine(m2.norm, phi0, z)
        a = phi0.reshape(2, 2)
        traceless = a - np.trace(a) / 2 * np.eye(2)
        exact = float(np.linalg.svd(traceless, compute_uv=False).sum())
        assert abs(best["upper"] - exact) <= 1e-12 * exact
        assert abs(best["lower"] - exact) <= 1e-12 * exact
        for t in rng.standard_normal(10) + 1j * rng.standard_normal(10):
            assert float(m2.norm.dual(phi0 + t * np.eye(2).reshape(-1))) >= best["lower"]


@pytest.mark.parametrize("kind", ["sup", "weighted_sup", "lp"])
@pytest.mark.parametrize("copies", range(1, 9))
def test_witness_is_exact_on_m2_copies(kind, copies):
    lattice = {"sup": lt.sup_norm(copies),
               "weighted_sup": lt.weighted_sup(1.0 + 0.5 * np.arange(copies)),
               "lp": lt.lp_norm(1.5, copies)}[kind]
    alg = es.ESumAlgebra([es.matrix_units_algebra(2)] * copies, lattice).as_finite_algebra(samples=0)
    z = dv.derivation_space(alg).z_basis
    rng = np.random.default_rng(copies)
    for _ in range(5):
        phi0 = rng.standard_normal(alg.dim) + 1j * rng.standard_normal(alg.dim)
        best = dv.min_dual_over_affine(alg.norm, phi0, z)
        assert abs(best["lower"] - best["upper"]) <= 1e-12 * best["upper"]


def test_witness_is_loose_on_m3():
    """Beyond M_2 the witness is valid but may sit below the minimum: on M_3
    it stays below Powell's value, which stays below the projection's, and
    it sits 6-15% below Powell on these draws."""
    m3 = es.matrix_units_algebra(3)
    z = dv.derivation_space(m3).z_basis
    rng = np.random.default_rng(3)
    gaps = []
    for _ in range(8):
        phi0 = rng.standard_normal(9) + 1j * rng.standard_normal(9)
        best = dv.min_dual_over_affine(m3.norm, phi0, z)
        oracle = _powell_oracle(m3.norm, phi0, z)
        assert best["lower"] <= oracle <= best["upper"] * (1 + 1e-12)
        gaps.append(1.0 - best["lower"] / oracle)
    assert 1e-3 < max(gaps) < 0.2


def test_tampered_witness_is_refused():
    m2 = es.matrix_units_algebra(2)
    z = dv.derivation_space(m2).z_basis
    phi0 = np.array([0.3, 1.0, -0.5j, 2.0])
    best = dv.min_dual_over_affine(m2.norm, phi0, z)
    assert dv.witness_value(m2.norm, phi0, z, best["witness"]) == best["lower"]
    moved = best["witness"] + 1e-6 * z[0].conj()
    with pytest.raises(AssertionError, match="does not annihilate"):
        dv.witness_value(m2.norm, phi0, z, moved)
    # in a stack, one tampered row is enough, and the worst residual is reported
    stack = np.stack([phi0, 2.0 * phi0, np.zeros(4), 1j * phi0])
    witness = dv.min_dual_over_affine(m2.norm, stack, z)["witness"]
    dv.witness_value(m2.norm, stack, z, witness)
    witness[1] += 1e-6 * z[0].conj()
    witness[3] += 1e-4 * z[0].conj()
    worst = float(np.abs(z @ witness[3]).max()) / float(m2.norm.eval(witness[3]))
    with pytest.raises(AssertionError, match=f"does not annihilate the commutant: {worst:.3g}$"):
        dv.witness_value(m2.norm, stack, z, witness)


def test_brackets_run_no_search():
    """No scipy optimiser is imported on the way to a WAM bracket or an
    lp-demo report."""
    import subprocess
    import sys
    code = ("import sys, numpy as np; from esum_lab import derivations as dv, esum as es, "
            "lattice as lt; m2 = es.matrix_units_algebra(2); dv.wam_bracket(m2, samples=5); "
            "dv.esum_wa_check([m2, m2], lt.lp_norm(1.5, 2), samples=5); "
            "dv.lp_obstruction_demo(m2, np.eye(4)[1], 2.0, [2]); "
            "assert 'scipy.optimize' not in sys.modules")
    subprocess.run([sys.executable, "-c", code], check=True, timeout=120)
