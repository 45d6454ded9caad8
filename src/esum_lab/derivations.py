"""Derivation spaces of finite-dimensional algebras into their dual bimodule.

The dual A* of a :class:`~esum_lab.esum.FiniteAlgebra` carries the actions
(a.phi)(x) = phi(xa) and (phi.a)(x) = phi(ax), realized as matrices built
from the structure constants.  A derivation is a linear map D: A -> A* with
D(ab) = a.D(b) + D(a).b; the inner derivation implemented by phi in A* is
ad_phi(a) = a.phi - phi.a.

Everything reduces to exact linear algebra on the structure constants,
solved one block at a time.  The blocks are the connected components of
the cube's nonzero pattern, so an algebra is the direct sum of its blocks
and a direct sum of summands splits at least along the summands:

  - the derivation space is the direct sum of each block's derivations
    (the nullspace of that block's own Leibniz system over dim_P^2 matrix
    unknowns) and, for each ordered pair of distinct blocks K, P, the maps
    u v^T with u and v annihilating the products of K and of P; the
    argument is in :func:`derivation_space`;
  - the inner space is the column space of the map phi -> ad_phi, whose
    kernel is the commutant Z of the bimodule action; both split along the
    blocks, since ad_phi is supported on the block of phi;
  - weak amenability means every derivation lies in the inner span.

Ranks come from reduced SVDs at relative tolerance 1e-10, taken against
the largest singular value over all blocks of the same kind of matrix.
The adjoint map is solved once: the report keeps each block's singular
triplets above that threshold and implements every derivation with them.

On top of that sit weak-amenability constant brackets, which solve each
sampled map g once (phi0 by the pseudo-inverse, D = ad_phi0 inner by
construction, a re-checked dual witness over phi0 + Z for the lower end),
and the finite-scale coordinate mechanisms for direct sums:
block-diagonality of derivations, the two-sided estimate with its
transfer bound, and the per-coordinate growth obstruction on p-summed
copies of a noncommutative algebra.
"""

from __future__ import annotations

import numpy as np

from . import esum as es
from .esum import ESumAlgebra, EuclideanCoordinate
from .lattice import ce_constant

RANK_TOL = 1e-10
LEIBNIZ_TOL = 1e-10
INNER_TOL = 1e-8     # relative least-squares residual of an inner derivation
WITNESS_TOL = 1e-12
BRACKET_TOL = 1e-9   # slack when one constant bracket is compared with another
FLOOR_TOL = 1e-8     # slack of the per-coordinate floors in lp_obstruction_demo


def adjoint_map_matrix(c):
    """The (dim^2, dim) matrix of phi -> vec(ad_phi) for the structure cube
    c, row index (k, j)."""
    d = len(c)
    return (c - c.transpose(1, 0, 2)).reshape(d * d, d)


def leibniz_residual(algebra, D):
    """Max-abs violation of the derivation identity by the matrix D, for an
    algebra or for a bare structure-constant cube."""
    c = algebra.structure if isinstance(algebra, es.FiniteAlgebra) else algebra
    cd = c @ D   # cd[k,i,j] = sum_q c[k,i,q] D[q,j]
    # entry (i,j,k): sum_m c[i,j,m] D[k,m] - cd[k,i,j] - cd[j,k,i]
    return float(np.abs(c @ D.T - cd.transpose(1, 2, 0) - cd.transpose(2, 0, 1)).max())


def _leibniz_system(c):
    """The (dim^3, dim^2) matrix of D -> Leibniz defect, row index (i, j, k)."""
    d = len(c)
    basis = np.eye(d * d, dtype=complex).reshape(d * d, d, d)
    t1 = np.einsum("ijm,bkm->bijk", c, basis)
    t2 = np.einsum("kiq,bqj->bijk", c, basis)
    t3 = np.einsum("jkq,bqi->bijk", c, basis)
    return (t1 - t2 - t3).reshape(d * d, d ** 3).T


def _rank_split(mats):
    """Reduced SVDs of matrices of one kind, each with its rank.

    Each rank counts the singular values above RANK_TOL times the largest
    singular value of all ``mats`` together: the threshold of the one
    block-diagonal matrix they form, whose singular values are the union of
    theirs.  Every matrix here has at least as many rows as columns, so the
    reduced ``vh`` is square: its leading ``rank`` rows with ``u`` and ``s``
    are the kept singular triplets, and its trailing rows span the whole
    nullspace.  Returns one (rank, u, s, vh) per matrix.
    """
    factors = [np.linalg.svd(m, full_matrices=False) for m in mats]
    top = max((float(s[0]) for _, s, _ in factors if s.size), default=0.0)
    return [(int(np.sum(s > RANK_TOL * top)), u, s, vh) for u, s, vh in factors]


def _structure_blocks(c):
    """Index arrays of the connected components of the nonzero pattern of
    the cube c (i, j and m are linked when c[i,j,m] != 0), ordered by their
    smallest index.  A block need not be a run of consecutive indices."""
    nz = c != 0
    linked = nz.any(axis=2) | nz.any(axis=1) | nz.any(axis=0)
    reach = (linked | linked.T | np.eye(len(c), dtype=bool)).astype(float)
    while True:   # transitive closure, by squaring the reachability matrix
        wider = (reach @ reach > 0).astype(float)
        if np.array_equal(wider, reach):
            break
        reach = wider
    first = reach.argmax(axis=1)   # the smallest index of each component
    return [np.flatnonzero(first == k) for k in np.unique(first)]


def _embed(rows, d, *index):
    """Stack of zero arrays of side d carrying ``rows`` on the given index
    arrays (one per axis)."""
    full = np.zeros((len(rows),) + (d,) * len(index), complex)
    full[(slice(None),) + np.ix_(*index)] = rows
    return full


# ---------------------------------------------------------------------------
# Derivation and inner spaces
# ---------------------------------------------------------------------------

class DerivationSpaceReport:
    """Derivations of an algebra, with the map phi -> ad_phi solved once.

    ``adjoint`` holds, per structure block b, the (rank, u, s, vh) of
    :func:`_rank_split` for :func:`adjoint_map_matrix` of the block's cube.
    Embedded on b, the kept triplets give the orthonormal inner basis u_i,
    its preimages conj(v_i) / s_i (ad of preimage i is inner basis element
    i) and ``sigma_min``, the least kept singular value over all blocks;
    the trailing rows of vh span the commutant Z.  Each block's reduced vh
    is square, so its kept and trailing rows add up to the block's
    dimension and ``dim_inner + center_annihilator_dim == dim`` holds by
    construction (rank-nullity needs no check).
    """

    def __init__(self, algebra, derivation_basis, adjoint):
        d = algebra.dim
        self.algebra = algebra
        self.derivation_basis = derivation_basis   # (k, d, d), orthonormal rows
        self.inner_basis = np.concatenate([        # (r, d, d), orthonormal rows
            _embed(u[:, :r].T.reshape(-1, len(b), len(b)), d, b, b) for b, (r, u, _, _) in adjoint])
        self.preimages = np.concatenate([          # (r, d)
            _embed(vh[:r].conj() / s[:r, None], d, b) for b, (r, _, s, vh) in adjoint])
        self.z_basis = np.concatenate([            # (z, d), orthonormal rows
            _embed(vh[r:].conj(), d, b) for b, (r, _, _, vh) in adjoint])
        self.sigma_min = float(min((s[r - 1] for _, (r, _, s, _) in adjoint if r), default=np.inf))
        self.dim_derivations = len(derivation_basis)
        self.dim_inner = len(self.inner_basis)
        self.center_annihilator_dim = len(self.z_basis)
        self.weakly_amenable = self.dim_derivations == self.dim_inner

    def implement(self, D):
        """(phi, residual) for a map D of shape (d, d) or for each map of a
        stack (..., d, d): the least-l2 phi whose ad_phi is nearest to D, of
        shape (..., d), and that distance ||ad_phi - D||_F, of shape (...)
        (a float for one map).  With a_i = <u_i, D>, ad_phi = sum a_i u_i is
        the projection of D onto the inner span and phi = sum a_i conj(v_i)
        / s_i, the pseudo-inverse solution."""
        d = self.algebra.dim
        target = np.reshape(D, np.shape(D)[:-2] + (d * d,))
        flat = self.inner_basis.reshape(self.dim_inner, d * d)
        coef = target @ flat.conj().T
        residual = np.linalg.norm(target - coef @ flat, axis=-1)
        return coef @ self.preimages, residual if residual.ndim else float(residual)

    def as_dict(self):
        return {
            "dim_derivations": self.dim_derivations,
            "dim_inner": self.dim_inner,
            "commutant_dim": self.center_annihilator_dim,
            "weakly_amenable": self.weakly_amenable,
        }


def derivation_space(algebra):
    """Derivations, inner derivations and commutant, one block at a time.

    Let the blocks be the connected components of the structure cube's
    nonzero pattern, so that c[i,j,m] != 0 only when i, j and m lie in one
    block and A = (+)_P A_P.  The Leibniz equation (i, j, k) reads

        sum_m c[i,j,m] D[k,m] - sum_q c[k,i,q] D[q,j] - sum_q c[j,k,q] D[q,i] = 0,

    and its three terms need i~j, k~i and j~k respectively (~: same block).
    When i, j, k lie in one block P every term involves D[P,P] alone: this
    is the Leibniz system of c_P, of size dim_P^3 x dim_P^2.  Otherwise at
    most one pair shares a block and at most one term survives, and it
    involves D[K,P] alone, the part of D with rows in block K and columns in
    block P != K.  With M_B = c_B reshaped to dim_B^2 x dim_B (the matrix
    :func:`essential_check` ranks), the surviving terms say exactly
    D[K,P] M_P^T = 0 (i, j in P, k in K) and M_K D[K,P] = 0 (k and one of
    i, j in K, the other in P).  So the off-block parts decouple:

        Der(A) = (+)_P Der(A_P) (+) (+)_{K != P} {u v^T : u in N_K, v in N_P},

    where N_B = ker M_B = (A_B^2)^perp.  Orthonormal nullspace bases give
    orthonormal outer products, and distinct pairs have disjoint supports,
    so the vectorized basis has orthonormal rows.  The map phi -> ad_phi
    sends block P into D[P,P], so the inner space and its kernel Z are the
    direct sums of the blocks' own.  An indecomposable algebra is the case
    of a single block, where this is the whole Leibniz system.
    """
    c = algebra.structure
    d = algebra.dim
    blocks = _structure_blocks(c)
    cubes = [c[np.ix_(b, b, b)] for b in blocks]

    derivations = [
        _embed(vh[r:].conj().reshape(-1, len(b), len(b)), d, b, b)
        for b, (r, _, _, vh) in zip(blocks, _rank_split([_leibniz_system(cb) for cb in cubes]))
    ]
    annihilators = [vh[r:].conj() for r, _, _, vh in
                    _rank_split([cb.reshape(len(cb) ** 2, len(cb)) for cb in cubes])]
    for K, u in zip(blocks, annihilators):
        for P, v in zip(blocks, annihilators):
            if K is not P:
                outer = np.einsum("ak,bp->abkp", u, v).reshape(-1, len(K), len(P))
                derivations.append(_embed(outer, d, K, P))
    report = DerivationSpaceReport(algebra, np.concatenate(derivations), list(zip(
        blocks, _rank_split([adjoint_map_matrix(cb) for cb in cubes]))))

    scale = max(1.0, float(np.abs(c).max()))
    for mat in report.inner_basis:
        res = leibniz_residual(algebra, mat)
        if res > LEIBNIZ_TOL * scale * 10:
            raise AssertionError(f"inner derivation violates the Leibniz identity: {res}")
    return report


def is_weakly_amenable(algebra, report=None):
    """(flag, certificate): the report's verdict dim Der = dim Inn, and the
    implementing functionals of the derivation basis, one row each, or the
    first basis element whose least-squares residual exceeds INNER_TOL (the
    basis elements are unit vectors).  A certificate that disagrees with
    the verdict raises AssertionError."""
    rep = report or derivation_space(algebra)
    phis, res = rep.implement(rep.derivation_basis)
    outside = np.flatnonzero(res > INNER_TOL)
    if outside.size:
        cert = {"outside_derivation": rep.derivation_basis[outside[0]],
                "residual": float(res[outside[0]])}
    else:
        cert = {"implementations": phis}
    if ("implementations" in cert) != rep.weakly_amenable:
        raise AssertionError("the least-squares certificate contradicts the dimension count")
    return rep.weakly_amenable, cert


def essential_check(algebra):
    """span{ab : a, b in A} = A, via the rank of the multiplication image."""
    c = algebra.structure
    d = algebra.dim
    [(rank, _, _, _)] = _rank_split([c.reshape(d * d, d)])
    return rank == d


# ---------------------------------------------------------------------------
# Operator norms and least-norm implementing functionals
# ---------------------------------------------------------------------------

def derivation_norm_upper(algebra, D):
    """Certified upper bound on ||D|| for a map D of shape (d, d) or for
    each map of a stack (..., d, d), of shape (...) (a float for one map):
    coefficients of a unit-ball element are bounded by 1 for every
    supported coordinate norm, so the column dual norms sum to a bound.
    Exact for the Euclidean family."""
    if isinstance(algebra.norm, EuclideanCoordinate):
        bound = np.linalg.svd(D, compute_uv=False)[..., 0]
    else:
        bound = algebra.norm.dual(np.swapaxes(D, -1, -2)).sum(axis=-1)
    return bound if bound.ndim else float(bound)


def minimize(*args, **kwargs):
    """``scipy.optimize.minimize``, imported on the first call; scipy is in
    the ``test`` extra only.  No library code calls it; it stays a
    module-level name for perfbench's tracer."""
    from scipy.optimize import minimize as scipy_minimize
    return scipy_minimize(*args, **kwargs)


def witness_value(norm, phi0, z_basis, witness):
    """Re sum_k phi0_k X_k / ||X|| (0 for X = 0), at most ||phi||_dual for
    every phi in phi0 + span(z_basis) when X annihilates the span, as every
    such phi then pairs with X as phi0 does.  An X whose pairing with a
    unit row of z_basis exceeds WITNESS_TOL ||X|| raises AssertionError."""
    size = float(norm.eval(witness))
    if size == 0.0:
        return 0.0
    residual = float(np.abs(z_basis @ witness).max(initial=0.0)) / size
    if residual > WITNESS_TOL:
        raise AssertionError(f"dual witness does not annihilate the commutant: {residual:.3g}")
    return float((phi0 @ witness).real) / size


def min_dual_over_affine(norm, phi0, z_basis):
    """Bracket min{||phi||_dual : phi in phi0 + Z}, Z = span(z_basis) with
    orthonormal rows, by one path for every norm.  Returns a dict: ``phi``,
    phi0 minus its orthogonal projection onto Z, with ``upper`` = its dual
    norm, and ``witness`` X, phi's norming element
    (:meth:`~esum_lab.esum.CoordinateNorm.norming`) projected to annihilate
    Z, with ``lower`` = :func:`witness_value` of X.  They meet when the
    norming element already annihilates Z: for the Euclidean norm, and for
    M_2 and lattice sums of M_2 blocks, whose Z is spanned by the blocks'
    identities.  For a 2 x 2 A with eigenvalues mu +- delta and t' = t + mu,
    ||A + tI||_1^2 = ||A - mu I||_F^2 + 2|t'|^2 + 2|t'^2 - delta^2| is least
    at t' = 0, and the traceless minimiser has a traceless polar factor.
    Elsewhere ``lower`` is valid but may be loose."""
    phi0 = np.asarray(phi0, complex)
    zb = np.asarray(z_basis, complex).reshape(-1, len(phi0))
    psi = phi0 - (zb.conj() @ phi0) @ zb
    upper = float(norm.dual(psi))
    witness = norm.norming(psi) if upper > 0.0 else np.zeros_like(psi)
    # twice: when the projection cancels most of X, one pass leaves a
    # rounding residual that is large relative to what is left
    for _ in range(2):
        witness = witness - (zb @ witness) @ zb.conj()
    return {"phi": psi, "lower": witness_value(norm, phi0, zb, witness), "upper": upper,
            "witness": witness}


# ---------------------------------------------------------------------------
# Weak amenability constant brackets
# ---------------------------------------------------------------------------

def wam_bracket(algebra, samples=200, seed=0, blocks=None, report=None):
    """Certified lower / certified upper bracket for the best constant C with:
    every derivation D admits an implementing phi with ||phi|| <= C ||D||.
    One :meth:`DerivationSpaceReport.implement` call solves the stack
    (N, d, d) of draws g: phi0 (N, d) is the pseudo-inverse solve, and D =
    ad_phi0 is inner by construction, implemented exactly by phi0 + Z.
    The lower end is the best over D of the re-checked dual witness value
    of :func:`min_dual_over_affine` over :func:`derivation_norm_upper`.

    Zero is returned exactly when there are no nonzero derivations; both
    ends are infinite when the algebra is not weakly amenable.  ``blocks``
    (coordinate index lists) add per-block samples whose draws depend only
    on the block dimension, so direct sums of copies reuse the single-copy
    samples; a negative ``samples`` raises ValueError.
    """
    if samples < 0:
        raise ValueError(f"samples must be nonnegative, got {samples}")
    rep = report or derivation_space(algebra)
    if rep.dim_derivations == 0:
        return {"lower": 0.0, "upper": 0.0, "wam_zero": True, "weakly_amenable": True}
    wa, _ = is_weakly_amenable(algebra, rep)
    if not wa:
        return {"lower": np.inf, "upper": np.inf, "wam_zero": False, "weakly_amenable": False}

    d = algebra.dim
    if blocks is None:
        blocks = [range(d)]
    draws = []
    for block in blocks:   # real and imaginary parts alternate, draw by draw
        idx = np.asarray(block)
        g = np.random.default_rng([seed, len(idx)]).standard_normal((samples, 2, len(idx), len(idx)))
        draws.append(_embed(g[:, 0] + 1j * g[:, 1], d, idx, idx))
    g = np.random.default_rng([seed, 0xE5]).standard_normal((max(4, samples // 10), 2, d, d))
    draws.append(g[:, 0] + 1j * g[:, 1])

    phi0, _ = rep.implement(np.concatenate(draws))
    D = (phi0 @ adjoint_map_matrix(algebra.structure).T).reshape(-1, d, d)
    nd = derivation_norm_upper(algebra, D)
    kept = nd >= 1e-12
    lower = max((min_dual_over_affine(algebra.norm, phi, rep.z_basis)["lower"] / n
                 for phi, n in zip(phi0[kept], nd[kept])), default=0.0)

    r_phi, s_phi = algebra.norm.dual_vs_l2(d)
    basis_sq = float(np.sum(algebra.norm.eval(np.eye(d, dtype=complex)) ** 2))
    upper = max(r_phi * s_phi * np.sqrt(basis_sq) / rep.sigma_min, lower)
    return {
        "lower": lower,
        "upper": float(upper),
        "wam_zero": False,
        "weakly_amenable": True,
        "samples_used": int(kept.sum()),
    }


# ---------------------------------------------------------------------------
# Direct-sum checks
# ---------------------------------------------------------------------------

def _off_block_mass(mat, blocks):
    mask = np.zeros(mat.shape, dtype=bool)
    for block in blocks:
        mask[np.ix_(block, block)] = True
    off = np.where(mask, 0.0, np.abs(mat))
    return float(off.max(initial=0.0))


def esum_wa_check(summands, lattice, samples=120, seed=0):
    """Assemble the sum as one block algebra and check the finite-scale
    coordinate claims: commutative weakly amenable summands force a zero
    derivation space; weak amenability passes to summands; derivations of a
    sum of weakly amenable summands are block-diagonal; and the constant
    brackets obey the two-sided uniformity estimate max_i lower_i <=
    upper(sum), lower(sum) <= C_E^2 max_i upper_i.  Its first half implies
    the transfer bound lower_i <= ||delta_i|| upper(sum), as every lattice
    has embedding norms ||delta_i|| >= 1."""
    esum = ESumAlgebra(summands, lattice)
    big = esum.as_finite_algebra(seed=seed)
    ends = np.cumsum([a.dim for a in summands])
    blocks = [list(range(end - a.dim, end)) for a, end in zip(summands, ends)]
    rep_big = derivation_space(big)
    reps = [derivation_space(a) for a in summands]

    all_wa = all(r.weakly_amenable for r in reps)
    all_comm = all(a.commutative for a in summands)
    report = {
        "sum": rep_big.as_dict(),
        "summands": [r.as_dict() for r in reps],
        "ok": True,
        "failures": [],
    }

    if all_comm and all_wa and rep_big.dim_derivations != 0:
        report["failures"].append("commutative weakly amenable summands left a nonzero derivation space")
    if rep_big.weakly_amenable:
        for i, r in enumerate(reps):
            if not r.weakly_amenable:
                report["failures"].append(f"sum weakly amenable but summand {i} is not")
    else:
        offenders = [i for i, r in enumerate(reps) if not r.weakly_amenable]
        report["offending_summands"] = offenders

    if all_wa:
        worst = max(
            (_off_block_mass(mat, blocks) for mat in rep_big.derivation_basis),
            default=0.0,
        )
        report["max_off_block"] = worst
        if worst > 1e-9:
            report["failures"].append(f"derivation basis is not block-diagonal: {worst}")

        br_big = wam_bracket(big, samples=samples, seed=seed, blocks=blocks, report=rep_big)
        br_small = [
            wam_bracket(a, samples=samples, seed=seed, report=r)
            for a, r in zip(summands, reps)
        ]
        report["bracket_sum"] = br_big
        report["bracket_summands"] = br_small
        ce = ce_constant(lattice).value
        max_lower = max(b["lower"] for b in br_small)
        max_upper = max(b["upper"] for b in br_small)
        if max_lower > br_big["upper"] + BRACKET_TOL:
            report["failures"].append("summand lower bracket exceeds the sum upper bracket")
        if br_big["lower"] > ce * ce * max_upper + BRACKET_TOL:
            report["failures"].append("sum lower bracket exceeds CE^2 times the summand upper bracket")

    report["ok"] = not report["failures"]
    return report


# ---------------------------------------------------------------------------
# The p-sum growth obstruction
# ---------------------------------------------------------------------------

def obstruction_weights(p, count):
    """Coordinate weights for the growth construction: constant 1 for
    1 < p <= 2 and n**(-1/q) beyond, so their l_q tail always diverges."""
    if not (1.0 < p < np.inf):
        raise ValueError(f"exponent must satisfy 1 < p < inf, got {p}")
    q = p / (p - 1.0)
    n = np.arange(1, count + 1, dtype=float)
    return np.ones(count) if p <= 2.0 else n ** (-1.0 / q)


def lp_obstruction_demo(B, psi, p, sizes):
    """Per-coordinate growth mechanism on finite truncations of a p-sum of
    copies of B.

    With d the dual distance from psi to the commutant Z, the derivation
    sending (b_i) to (w_i ad_psi(b_i)) forces every implementing family to
    satisfy ||Phi_i|| >= d |w_i|; the l_q aggregate of the per-coordinate
    minima is reported against d ||w||_q across the truncation sizes.  d and
    the per-coordinate minima are the re-checked witness values (the lower
    ends) of :func:`min_dual_over_affine`.
    """
    psi = np.asarray(psi, complex)
    if psi.shape != (B.dim,):
        raise ValueError("psi must be a dual coefficient vector for B")
    rep = derivation_space(B)
    admat = adjoint_map_matrix(B.structure)
    ad_psi = (admat @ psi).reshape(B.dim, B.dim)
    if float(np.abs(ad_psi).max()) <= 1e-12:
        raise ValueError("psi lies in the commutant; the construction degenerates")
    dist = min_dual_over_affine(B.norm, psi, rep.z_basis)["lower"]
    if dist <= 1e-12:
        raise ValueError("psi has zero distance to the commutant")

    q = p / (p - 1.0)
    weights = obstruction_weights(p, max(sizes))
    rows = []
    for size in sorted(sizes):
        w = weights[:size]
        per_coord = np.array([min_dual_over_affine(B.norm, w[i] * psi, rep.z_basis)["lower"]
                              for i in range(size)])
        floor = dist * np.abs(w)
        percoord_ok = bool(np.all(per_coord >= floor - FLOOR_TOL))
        aggregate = float(np.sum(per_coord ** q) ** (1.0 / q))
        reference = float(dist * np.sum(np.abs(w) ** q) ** (1.0 / q))

        # the assembled block map is a genuine derivation of the truncated sum
        cube = es.block_cube([B.structure] * size)
        D = np.zeros((B.dim * size, B.dim * size), complex)
        for i in range(size):
            sl = slice(i * B.dim, (i + 1) * B.dim)
            D[sl, sl] = w[i] * ad_psi
        residual = leibniz_residual(cube, D)

        rows.append({
            "size": size,
            "per_coordinate": per_coord.tolist(),
            "floor": floor.tolist(),
            "per_coordinate_ok": percoord_ok,
            "aggregate": aggregate,
            "reference": reference,
            "leibniz_residual": residual,
        })
    growing = all(a["aggregate"] > b["aggregate"] for a, b in zip(rows[1:], rows[:-1]))
    ok = growing and all(r["per_coordinate_ok"] for r in rows) and all(
        r["leibniz_residual"] <= 1e-9 for r in rows
    )
    return {"distance": dist, "q": q, "rows": rows, "monotone_growth": growing, "ok": ok}
