"""Derivation spaces of finite-dimensional algebras into their dual bimodule.

The dual A* of a :class:`~esum_lab.esum.FiniteAlgebra` carries the actions
(a.phi)(x) = phi(xa) and (phi.a)(x) = phi(ax), realized as matrices built
from the structure constants.  A derivation is a linear map D: A -> A* with
D(ab) = a.D(b) + D(a).b; the inner derivation implemented by phi in A* is
ad_phi(a) = a.phi - phi.a.

Everything reduces to exact linear algebra on the structure constants,
solved one block at a time.  The blocks come from the algebra (``blocks``,
the connected components of the cube's nonzero pattern), so an algebra is
the direct sum of its blocks and a sum of summands splits at least along them:

  - the derivation space is the direct sum of each block's derivations
    (the nullspace of that block's own Leibniz system over dim_P^2 matrix
    unknowns) and, for each ordered pair of distinct blocks K, P, the maps
    u v^T with u and v annihilating the products of K and of P; the
    argument is in :func:`derivation_space`;
  - the inner space is the column space of the map phi -> ad_phi, whose
    kernel is the commutant Z of the bimodule action; both split along the
    blocks, since ad_phi is supported on the block of phi;
  - weak amenability means every derivation lies in the inner span;
  - the algebra is essential, span{ab : a, b in A} = A, when no block's
    products are annihilated by a nonzero functional; the argument is in
    :func:`derivation_space`.

Ranks come from reduced SVDs at relative tolerance 1e-10, taken against
the largest singular value over all blocks of the same kind of matrix.
The adjoint map is solved once: the report keeps each block's singular
triplets above that threshold and implements every derivation with them.

A map A -> A* is the sum of its pieces (i, j, x), at most one per pair of
blocks, x of shape (..., |b_i|, |b_j|) on the rows of block i and the
columns of block j; ad_phi has only (i, i) pieces.  Functionals are d-vectors.

On top of that sit weak-amenability constant brackets, which solve each
sampled map g once (phi0 by the pseudo-inverse, D = ad_phi0 inner by
construction, a re-checked dual witness over phi0 + Z for the lower end).
Each step takes the N draws as one stack, as the coordinate norms' dual
and norming do: maps as pieces (N, |b_i|, |b_j|), functionals and
witnesses (N, d), and one value per draw.  Beside them sit the
finite-scale coordinate mechanisms for direct sums: block-diagonality of
derivations, the two-sided estimate with its transfer bound, and the
per-coordinate growth obstruction on p-summed copies of a noncommutative
algebra.
"""

from __future__ import annotations

import numpy as np

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


def ad_maps(algebra, phi):
    """ad_phi for each row of an array phi (..., d), as one piece (i, i, x)
    per block b in order: x is phi[b] times b's adjoint matrix."""
    lead = phi.shape[:-1]
    return [(i, i, (phi[..., b] @ adjoint_map_matrix(cb).T).reshape(lead + (len(b),) * 2))
            for i, (b, cb) in enumerate(zip(algebra.blocks, algebra.cubes))]


def _leibniz_defect(c, D):
    """The defect of the derivation identity for the cube c, of shape
    (..., d, d, d) for a map D (d, d) or a stack (..., d, d); entry (i, j, k)
    is sum_m c[i,j,m] D[k,m] - sum_q c[k,i,q] D[q,j] - sum_q c[j,k,q] D[q,i]."""
    return (np.einsum("ijm,...km->...ijk", c, D) - np.einsum("kiq,...qj->...ijk", c, D)
            - np.einsum("jkq,...qi->...ijk", c, D))


def leibniz_residual(c, D):
    """Max-abs violation of the derivation identity of the structure cube c
    by a map D (d, d) or by a whole stack (..., d, d)."""
    return float(np.abs(_leibniz_defect(c, D)).max(initial=0.0))


def _leibniz_system(c):
    """The (dim^3, dim^2) matrix of D -> Leibniz defect, row index (i, j, k):
    the defects of the matrix units, one column each."""
    d = len(c)
    units = np.eye(d * d, dtype=complex).reshape(d * d, d, d)
    return _leibniz_defect(c, units).reshape(d * d, d ** 3).T


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


# ---------------------------------------------------------------------------
# Derivation and inner spaces
# ---------------------------------------------------------------------------

class DerivationSpaceReport:
    """Derivations of an algebra, with the map phi -> ad_phi solved once.

    ``pieces`` holds the orthonormal derivation basis: each (i, j, x) has
    one basis element per row of x, the (i, i) first, one per block.
    ``adjoint`` holds, per structure block b, (b, (rank, u, s, vh)) of
    :func:`_rank_split` for :func:`adjoint_map_matrix` of the block's cube.
    On b, the kept triplets give the orthonormal inner basis u_i (maps on
    b x b), their preimages conj(v_i) / s_i and ``sigma_min``, the least
    kept singular value over all blocks; the trailing rows of vh, on b,
    span the commutant Z.  Each block's reduced vh is square, so its kept
    and trailing rows add up to the block's dimension and ``dim_inner +
    center_annihilator_dim == dim`` holds by construction (rank-nullity
    needs no check).  ``essential`` is :func:`derivation_space`'s verdict
    that span{ab : a, b in A} = A.
    """

    def __init__(self, algebra, pieces, adjoint, essential):
        self.algebra = algebra
        self.essential = essential
        self.pieces = pieces
        self.adjoint = adjoint
        z = [np.zeros((len(b) - r, algebra.dim), complex) for b, (r, _, _, _) in adjoint]
        for x, (b, (r, _, _, vh)) in zip(z, adjoint):
            x[:, b] = vh[r:].conj()
        self.z_basis = np.concatenate(z)   # (z, d), orthonormal rows
        self.sigma_min = float(min((s[r - 1] for _, (r, _, s, _) in adjoint if r), default=np.inf))
        self.dim_derivations = sum(len(x) for _, _, x in pieces)
        self.dim_inner = sum(r for _, (r, _, _, _) in adjoint)
        self.center_annihilator_dim = len(self.z_basis)
        self.weakly_amenable = self.dim_derivations == self.dim_inner

    def implement(self, pieces):
        """(phi, residual) for each map D of a stack given as a nonempty list
        of pieces: the least-l2 phi whose ad_phi is nearest to D, of shape
        (..., d), and that distance ||ad_phi - D||_F, of shape (...) (a float
        for pieces without leading axes).  With a_i = <u_i, x> for each (i,
        i, x), ad_phi = sum a_i u_i is the projection of D onto the inner
        span and phi[b_i] = sum a_i conj(v_i) / s_i, the pseudo-inverse
        solution.  The residual is the norm of what is left of each piece,
        as a difference of squares would cancel below INNER_TOL."""
        lead = pieces[0][2].shape[:-2]
        phi, squares = np.zeros(lead + (self.algebra.dim,), complex), 0.0
        for i, j, x in pieces:
            rest = x.reshape(lead + (x.shape[-2] * x.shape[-1],))
            if i == j:
                b, (r, u, s, vh) = self.adjoint[i]
                coef = rest @ u[:, :r].conj()
                rest = rest - coef @ u[:, :r].T
                phi[..., b] = coef @ (vh[:r].conj() / s[:r, None])
            squares = squares + sum(np.einsum("...k,...k->...", y, y) for y in (rest.real, rest.imag))
        residual = np.sqrt(squares)
        return phi, residual if residual.ndim else float(residual)

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
    block P != K.  With M_B = c_B reshaped to dim_B^2 x dim_B (its column
    space is spanned by the products of A_B), the surviving terms say exactly
    D[K,P] M_P^T = 0 (i, j in P, k in K) and M_K D[K,P] = 0 (k and one of
    i, j in K, the other in P).  So the off-block parts decouple:

        Der(A) = (+)_P Der(A_P) (+) (+)_{K != P} {u v^T : u in N_K, v in N_P},

    where N_B = ker M_B = (A_B^2)^perp.  Orthonormal nullspace bases give
    orthonormal outer products, and distinct pairs have disjoint supports,
    so the vectorized basis has orthonormal rows.  The map phi -> ad_phi
    sends block P into D[P,P], so the inner space and its kernel Z are the
    direct sums of the blocks' own.  An indecomposable algebra is the case
    of a single block, where this is the whole Leibniz system.

    ``essential`` is true when every N_B is zero.  The algebra is essential
    when the d^2 x d matrix c reshaped, whose column space is span{ab}, has
    rank d.  Up to zero rows (pairs i, j in different blocks) and a
    permutation of rows and columns, that matrix is block-diagonal with
    blocks M_B, so its singular values are the union of theirs and its
    rank, at one threshold for all blocks (:func:`_rank_split`), is the sum
    of their ranks.  It is d exactly when rank M_B = dim_B for every B.

    The inner basis is re-checked block by block: an element of block P is
    a map on P x P, where every term above needs i, j and k in P, so it is
    a derivation when it satisfies c_P's identity.
    """
    blocks, cubes = algebra.blocks, algebra.cubes
    pieces = [(i, i, vh[r:].conj().reshape(-1, len(b), len(b))) for i, (b, (r, _, _, vh))
              in enumerate(zip(blocks, _rank_split([_leibniz_system(cb) for cb in cubes])))]
    # only blocks with a nonzero N_B take part in off-block pieces
    annihilators = [(i, vh[r:].conj()) for i, (r, _, _, vh) in
                    enumerate(_rank_split([cb.reshape(len(cb) ** 2, len(cb)) for cb in cubes]))
                    if r < len(vh)]
    for K, u in annihilators:
        for P, v in annihilators:
            if K != P:
                pieces.append((K, P, np.einsum("ak,bp->abkp", u, v).reshape(-1, u.shape[1], v.shape[1])))
    adjoint = list(zip(blocks, _rank_split([adjoint_map_matrix(cb) for cb in cubes])))
    report = DerivationSpaceReport(algebra, pieces, adjoint, not annihilators)

    scale = max([1.0] + [float(np.abs(cb).max()) for cb in cubes])
    for cb, (b, (r, u, _, _)) in zip(cubes, report.adjoint):
        res = leibniz_residual(cb, u[:, :r].T.reshape(r, len(b), len(b)))
        if res > LEIBNIZ_TOL * scale * 10:
            raise AssertionError(f"inner derivation violates the Leibniz identity: {res}")
    return report


def is_weakly_amenable(algebra, report=None):
    """(flag, certificate): the report's verdict dim Der = dim Inn, and the
    implementing functionals of the derivation basis, one row each, or the
    first basis element whose least-squares residual exceeds INNER_TOL (the
    basis elements are unit vectors), as its piece (i, j, x).  The basis is
    implemented one piece at a time.  A certificate that disagrees with the
    verdict raises AssertionError."""
    rep = report or derivation_space(algebra)
    solved = [rep.implement([piece]) for piece in rep.pieces]
    outside = [((i, j, x[k]), res[k]) for (i, j, x), (_, res) in zip(rep.pieces, solved)
               for k in np.flatnonzero(res > INNER_TOL)]
    if outside:
        cert = {"outside_derivation": outside[0][0], "residual": float(outside[0][1])}
    else:
        cert = {"implementations": np.concatenate([phi for phi, _ in solved])}
    if ("implementations" in cert) != rep.weakly_amenable:
        raise AssertionError("the least-squares certificate contradicts the dimension count")
    return rep.weakly_amenable, cert


# ---------------------------------------------------------------------------
# Operator norms and least-norm implementing functionals
# ---------------------------------------------------------------------------

def derivation_norm_upper(algebra, pieces):
    """Certified upper bound on ||D|| for each map D of a stack given as a
    nonempty list of pieces, of shape (...) (a float without leading axes).
    D is the direct sum of its groups of pieces linked by a shared row or
    column block, whose columns are assembled as dense rows (..., n, d) one
    group at a time.  Column dual norms sum to a bound, as the coefficients
    of a unit-ball element are bounded by 1 for every supported coordinate
    norm; for the Euclidean family the largest spectral norm is exact."""
    groups = [{j} for j in {j for _, j, _ in pieces}]   # of column blocks
    for row in {i for i, _, _ in pieces}:   # the columns that meet one row block are linked
        cols = {j for i, j, _ in pieces if i == row}
        groups = [g for g in groups if not g & cols] + [cols.union(*(g for g in groups if g & cols))]
    lead, blocks = pieces[0][2].shape[:-2], algebra.blocks
    euclidean = isinstance(algebra.norm, EuclideanCoordinate)
    values = []
    for cols in groups:
        where = np.sort(np.concatenate([blocks[j] for j in cols]))   # the columns, in order
        columns = np.zeros(lead + (len(where), algebra.dim), complex)
        for i, j, x in pieces:
            if j in cols:
                columns[..., np.searchsorted(where, blocks[j])[:, None], blocks[i]] = np.swapaxes(x, -1, -2)
        values.append(np.linalg.svd(columns, compute_uv=False)[..., 0] if euclidean
                      else algebra.norm.dual(columns).sum(axis=-1))
    bound = np.max(values, axis=0) if euclidean else np.sum(values, axis=0)
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
    such phi then pairs with X as phi0 does.  phi0 and X are one row (d,),
    which gives a float, or matching stacks (N, d), which give one value a
    row.  When the pairing of some X with a unit row of z_basis exceeds
    WITNESS_TOL ||X||, AssertionError reports the worst row's residual."""
    size = norm.eval(witness)
    safe = np.where(size > 0, size, 1.0)
    residual = np.abs(witness @ np.transpose(z_basis)).max(axis=-1, initial=0.0) / safe
    worst = float(residual.max(initial=0.0))
    if worst > WITNESS_TOL:
        raise AssertionError(f"dual witness does not annihilate the commutant: {worst:.3g}")
    value = np.where(size > 0, np.einsum("...k,...k->...", phi0, witness).real / safe, 0.0)
    return value if value.ndim else float(value)


def min_dual_over_affine(norm, phi0, z_basis):
    """Bracket min{||phi||_dual : phi in phi0 + Z}, Z = span(z_basis) with
    orthonormal rows, by one path for every norm, for one phi0 (d,) or for
    each row of a stack (N, d).  Returns a dict: ``phi``, phi0 minus its
    orthogonal projection onto Z, with ``upper`` = its dual norm, and
    ``witness`` X, phi's norming element
    (:meth:`~esum_lab.esum.CoordinateNorm.norming`) projected to annihilate
    Z, with ``lower`` = :func:`witness_value` of X; ``lower`` and ``upper``
    are floats for one row and arrays (N,) for a stack.  They meet when the
    norming element already annihilates Z: for the Euclidean norm, and for
    M_2 and lattice sums of M_2 blocks, whose Z is spanned by the blocks'
    identities.  For a 2 x 2 A with eigenvalues mu +- delta and t' = t + mu,
    ||A + tI||_1^2 = ||A - mu I||_F^2 + 2|t'|^2 + 2|t'^2 - delta^2| is least
    at t' = 0, and the traceless minimiser has a traceless polar factor.
    Elsewhere ``lower`` is valid but may be loose."""
    phi0 = np.asarray(phi0, complex)
    zb = np.asarray(z_basis, complex).reshape(-1, phi0.shape[-1])
    psi = phi0 - (phi0 @ zb.conj().T) @ zb
    upper = norm.dual(psi)
    witness = np.where(np.expand_dims(upper > 0.0, -1), norm.norming(psi), 0.0)
    # twice: when the projection cancels most of X, one pass leaves a
    # rounding residual that is large relative to what is left
    for _ in range(2):
        witness = witness - (witness @ zb.T) @ zb.conj()
    return {"phi": psi, "lower": witness_value(norm, phi0, zb, witness),
            "upper": upper if np.ndim(upper) else float(upper), "witness": witness}


# ---------------------------------------------------------------------------
# Weak amenability constant brackets
# ---------------------------------------------------------------------------

def wam_bracket(algebra, samples=200, seed=0, blocks=None, report=None):
    """Certified lower / certified upper bracket for the best constant C with:
    every derivation D admits an implementing phi with ||phi|| <= C ||D||.
    Each draw g is cut to its (i, i) pieces, the only ones that reach the
    inner span, and one :meth:`DerivationSpaceReport.implement` call per
    group of draws gives phi0 (N, d), the pseudo-inverse solve; D = ad_phi0
    is inner: phi0 + Z implements it exactly.
    The lower end is the best over D of the re-checked dual witness value
    over :func:`derivation_norm_upper`, the witnesses of every draw with a
    nonzero D coming from one :func:`min_dual_over_affine` call on their
    rows of phi0 (0 when no draw has one).

    Zero is returned exactly when there are no nonzero derivations; both
    ends are infinite when the algebra is not weakly amenable.  ``blocks``
    (coordinate index lists) add per-block samples whose draws depend only
    on the block dimension, so direct sums of copies reuse the single-copy
    samples (draws made one at a time give the stream of one call); a
    negative ``samples`` raises ValueError.
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
    owner = np.empty(d, int)   # the structure block of each coordinate
    for i, b in enumerate(algebra.blocks):
        owner[b] = i
    groups = [(np.asarray(idx), [seed, len(idx)], samples) for idx in ([range(d)] if blocks is None else blocks)]
    groups.append((np.arange(d), [seed, 0xE5], max(4, samples // 10)))
    phi0 = []
    for idx, key, count in groups:
        rng, cuts = np.random.default_rng(key), []
        for i in np.unique(owner[idx]):   # idx[src] lies in block i, at its positions dst
            src = np.flatnonzero(owner[idx] == i)
            cuts.append((i, src, np.searchsorted(algebra.blocks[i], idx[src]),
                         np.zeros((count,) + (len(algebra.blocks[i]),) * 2, complex)))
        step = max(count, 1) if len(cuts) == 1 else 1   # draws over several blocks one at a time
        for n in range(0, count, step):   # real and imaginary parts alternate
            g = rng.standard_normal((min(step, count - n), 2, len(idx), len(idx)))
            g = g[:, 0] + 1j * g[:, 1]
            for _, src, dst, x in cuts:
                x[n:n + len(g), dst[:, None], dst] = g[:, src[:, None], src]
        phi0.append(rep.implement([(i, i, x) for i, _, _, x in cuts])[0])
    phi0 = np.concatenate(phi0)
    nd = derivation_norm_upper(algebra, ad_maps(algebra, phi0))
    kept = nd >= 1e-12
    values = min_dual_over_affine(algebra.norm, phi0[kept], rep.z_basis)["lower"] / nd[kept]
    lower = float(max(values, default=0.0))

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

def esum_wa_check(summands, lattice, samples=120, seed=0):
    """Certify the sum (its own block algebra) and check the finite-scale
    coordinate claims: commutative weakly amenable summands force a zero
    derivation space; weak amenability passes to summands; derivations of a
    sum of weakly amenable summands are block-diagonal; and the constant
    brackets obey the two-sided uniformity estimate max_i lower_i <=
    upper(sum), lower(sum) <= C_E^2 max_i upper_i.  Its first half implies
    the transfer bound lower_i <= ||delta_i|| upper(sum), as every lattice
    has embedding norms ||delta_i|| >= 1.  A negative ``samples`` raises
    ValueError."""
    if samples < 0:
        raise ValueError(f"samples must be nonnegative, got {samples}")
    esum = ESumAlgebra(summands, lattice).as_finite_algebra(seed=seed)
    blocks = [range(run.start, run.stop) for run in esum.norm.slices]
    rep_big = derivation_space(esum)
    distinct = {id(a): a for a in summands}   # a summand listed twice is solved once
    spaces = {key: derivation_space(a) for key, a in distinct.items()}
    reps = [spaces[id(a)] for a in summands]

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
        owner = np.repeat(np.arange(len(summands)), [a.dim for a in summands])
        worst = max((float(np.abs(x).max()) for i, j, x in rep_big.pieces
                     if owner[esum.blocks[i][0]] != owner[esum.blocks[j][0]]), default=0.0)
        report["max_off_block"] = worst
        if worst > 1e-9:
            report["failures"].append(f"derivation basis is not block-diagonal: {worst}")

        br_big = wam_bracket(esum, samples=samples, seed=seed, blocks=blocks, report=rep_big)
        brackets = {key: wam_bracket(a, samples=samples, seed=seed, report=spaces[key])
                    for key, a in distinct.items()}
        br_small = [brackets[id(a)] for a in summands]
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
    minima is reported against d ||w||_q across the truncation sizes, each
    once and in increasing order.  d and the per-coordinate minima are the
    re-checked witness values (the lower ends) of :func:`min_dual_over_affine`.
    A bad psi, sizes (none, or one below 1) or p raises ValueError.
    """
    psi = np.asarray(psi, complex)
    if psi.shape != (B.dim,):
        raise ValueError("psi must be a dual coefficient vector for B")
    sizes = sorted(set(sizes))
    if not sizes or sizes[0] < 1:
        raise ValueError(f"sizes must list positive integers, got {sizes}")
    weights = obstruction_weights(p, sizes[-1])
    q = p / (p - 1.0)
    rep = derivation_space(B)
    ad_psi = ad_maps(B, psi)
    if max(float(np.abs(x).max()) for _, _, x in ad_psi) <= 1e-12:
        raise ValueError("psi lies in the commutant; the construction degenerates")
    dist = min_dual_over_affine(B.norm, psi, rep.z_basis)["lower"]
    if dist <= 1e-12:
        raise ValueError("psi has zero distance to the commutant")

    # each truncation's minima are a prefix of the longest one's
    minima = min_dual_over_affine(B.norm, weights[:, None] * psi, rep.z_basis)["lower"]
    rows = []
    for size in sizes:
        w, per_coord = weights[:size], minima[:size]
        floor = dist * np.abs(w)
        rows.append({
            "size": size,
            "per_coordinate": per_coord.tolist(),
            "floor": floor.tolist(),
            "per_coordinate_ok": bool(np.all(per_coord >= floor - FLOOR_TOL)),
            "aggregate": float(np.sum(per_coord ** q) ** (1.0 / q)),
            "reference": float(dist * np.sum(np.abs(w) ** q) ** (1.0 / q)),
            # the block map of the w_i ad_psi is a derivation of the truncated sum, on each block's cube
            "leibniz_residual": max(leibniz_residual(cb, w[:, None, None] * x)
                                    for (_, _, x), cb in zip(ad_psi, B.cubes)),
        })
    growing = all(a["aggregate"] > b["aggregate"] for a, b in zip(rows[1:], rows[:-1]))
    ok = growing and all(r["per_coordinate_ok"] and r["leibniz_residual"] <= 1e-9 for r in rows)
    return {"distance": dist, "q": q, "rows": rows, "monotone_growth": growing, "ok": ok}
