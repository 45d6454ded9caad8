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

Ranks come from reduced SVDs at relative tolerance 1e-10 of each block
matrix's own largest singular value, so each distinct cube is factored
once.  The adjoint map is solved once: the report keeps each block's
singular triplets above that threshold and implements every derivation
with them.

A map A -> A* is the sum of its pieces (i, j, x), at most one per pair of
blocks, x of shape (..., |b_i|, |b_j|) on the rows of block i and the
columns of block j; ad_phi has only (i, i) pieces.  Functionals are d-vectors.

On top of that sit weak-amenability constant brackets, which solve each
sampled map g once (phi0 by the pseudo-inverse, D = ad_phi0 inner by
construction, a re-checked dual witness over phi0 + Z for the lower end),
the N draws of a group as one stack: maps as pieces (N, |b_i|, |b_j|),
functionals and witnesses (N, d).  Beside them sit the finite-scale
coordinate mechanisms for direct sums: block-diagonality of derivations,
the two-sided estimate with its transfer bound, and the per-coordinate
growth obstruction on p-summed copies of a noncommutative algebra.
"""

from __future__ import annotations

import numpy as np

from .esum import ESumAlgebra, EuclideanCoordinate, LatticeBlockNorm
from .lattice import ce_constant, dual_norm_batch, restrict_spec

RANK_TOL = 1e-10
LEIBNIZ_TOL = 1e-10
INNER_TOL = 1e-8     # relative least-squares residual of an inner derivation
WITNESS_TOL = 1e-12
BRACKET_TOL = 1e-9   # slack when one constant bracket is compared with another
FLOOR_TOL = 1e-8     # slack of the per-coordinate floors in lp_obstruction_demo
MIX_ENTRIES = 2 ** 20   # entries of a chunk of draws over several blocks: one d x d draw at d = 1024


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
    is sum_m c[i,j,m] D[k,m] - sum_q c[k,i,q] D[q,j] - sum_q c[j,k,q] D[q,i]
    = (C D^T)[ij, k] - P[ki, j] - P[jk, i], C the (d^2, d) flattening of c
    and P = C D.  Plus 0.0, a matmul's -0.0 is the +0.0 of a sum from zero:
    a matrix unit's defect, of single products, has three einsums' bits."""
    flat, shape = c.reshape(len(c) ** 2, len(c)), np.shape(D)[:-2] + (len(c),) * 3
    p = (flat @ D).reshape(shape)   # p[..., a, b, x] = sum_q c[a,b,q] D[q,x]
    return (flat @ np.swapaxes(D, -1, -2)).reshape(shape) - np.moveaxis(p, -3, -1) - np.moveaxis(p, -1, -3) + 0.0


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


def _rank_split(m):
    """Reduced SVD of one block's matrix with its rank, (rank, u, s, vh):
    the singular values above RANK_TOL times its own largest, as a block's
    scale is no algebraic fact (eps times its cube gives an isomorphic
    block).  Every matrix here has at least as many rows as columns, so the
    reduced ``vh`` is square: its leading ``rank`` rows with ``u`` and ``s``
    are the kept singular triplets; its trailing rows span the nullspace."""
    u, s, vh = np.linalg.svd(m, full_matrices=False)
    return int(np.sum(s > RANK_TOL * s.max(initial=0.0))), u, s, vh


# ---------------------------------------------------------------------------
# Derivation and inner spaces
# ---------------------------------------------------------------------------

class DerivationSpaceReport:
    """Derivations of an algebra, with the map phi -> ad_phi solved once.

    ``pieces`` holds the orthonormal derivation basis: each (i, j, x) has
    one basis element per row of x, the (i, i) first, one per block.
    ``adjoint`` holds, per structure block b, (b, (rank, u, s, vh)) of
    :func:`_rank_split` for :func:`adjoint_map_matrix` of the block's cube;
    blocks with equal cubes share one tuple, as their (i, i) pieces share x.
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
    blocks M_B, so its rank is the sum of theirs (each decided on its block
    alone, :func:`_rank_split`), and it is d exactly when every M_B has rank dim_B.

    The inner basis is re-checked block by block: an element of block P is
    a map on P x P, where every term above needs i, j and k in P, so it is
    a derivation when it satisfies c_P's identity.  All of this depends on
    c_P alone, so each distinct cube (keyed by its bytes, as
    ``FiniteAlgebra.stacks`` is) is solved, factored and re-checked once.
    """
    return _derivation_space(algebra, {})


def _derivation_space(algebra, solved):
    """:func:`derivation_space`, with the solves of distinct cubes kept in
    ``solved`` (keyed by the cube's bytes: the cube, its derivations,
    annihilator N_B and adjoint factors) and looked up there first.  A cube
    found there is neither solved nor re-checked again, so one dict shared
    by the calls of one weak-amenability check solves each cube once for
    the sum and its summands together."""
    blocks, cubes = algebra.blocks, algebra.cubes
    new = {}
    for key, cb in {cb.tobytes(): cb for cb in cubes}.items():
        if key not in solved:
            m = len(cb)
            (r, _, _, vh), (q, _, _, nh) = _rank_split(_leibniz_system(cb)), _rank_split(cb.reshape(m * m, m))
            new[key] = cb, vh[r:].conj().reshape(-1, m, m), nh[q:].conj(), _rank_split(adjoint_map_matrix(cb))
    solved.update(new)
    space = [solved[cb.tobytes()] for cb in cubes]
    pieces = [(i, i, x) for i, (_, x, _, _) in enumerate(space)]
    # only blocks with a nonzero N_B take part in off-block pieces
    annihilators = [(i, n) for i, (_, _, n, _) in enumerate(space) if len(n)]
    for K, u in annihilators:
        for P, v in annihilators:
            if K != P:
                pieces.append((K, P, np.einsum("ak,bp->abkp", u, v).reshape(-1, u.shape[1], v.shape[1])))
    report = DerivationSpaceReport(algebra, pieces, [(b, f) for b, (*_, f) in zip(blocks, space)],
                                   not annihilators)

    for cb, _, _, (r, u, _, _) in new.values():
        res = leibniz_residual(cb, u[:, :r].T.reshape(r, len(cb), len(cb)))
        if res > LEIBNIZ_TOL * max(1.0, float(np.abs(cb).max())) * 10:
            raise AssertionError(f"inner derivation violates the Leibniz identity: {res}")
    return report


def is_weakly_amenable(algebra, report=None):
    """(flag, certificate): the report's verdict dim Der = dim Inn, and the
    implementing functionals of the derivation basis, one row each, or the
    first basis element whose least-squares residual exceeds INNER_TOL (the
    basis elements are unit vectors), as its piece (i, j, x).  The basis is
    implemented one piece at a time, an (i, i) piece once per distinct cube
    and moved to every block with that cube, as its functionals on block i
    depend on the cube alone.  A certificate that disagrees with the verdict
    raises AssertionError."""
    rep = report or derivation_space(algebra)
    first, solved = {}, []   # per distinct piece: its first block and that block's (phi, residual)
    for i, j, x in rep.pieces:
        key = algebra.cubes[i].tobytes() if i == j else (i, j)
        k, (phi, res) = first[key] if key in first else first.setdefault(key, (i, rep.implement([(i, j, x)])))
        if k != i:   # block k's functionals moved to block i (the right side is read first)
            phi, phi[:, algebra.blocks[i]] = np.zeros_like(phi), phi[:, algebra.blocks[k]]
        solved.append((phi, res))
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
    group at a time, but one piece (i, i, x) on the whole run of a summand
    (of the space, without a lattice) is x transposed, in the layout of
    assembled columns (numpy sums 8 or more entries of a strided axis in
    another order).  Column dual norms sum to a bound, as the coefficients
    of a unit-ball element are bounded by 1 for every supported coordinate
    norm; for the Euclidean family the largest spectral norm is exact.
    Under a lattice the dual lattice norm of the touched summands' duals
    (``restrict_spec``) takes O(k) work on k summands, with the bits of the
    whole vector's while a column touches at most two (zeros and two
    nonzeros sum exactly in any order).  A column on summand t alone, as
    each of an ad map is, has duals d e_t of dual lattice norm d ||e_t||_E*:
    d / w_t under (weighted) sup, dual to sum_i |f_i| / w_i, and d under lp,
    for finite d >= 0 the floats of the restricted ``dual_norm_batch``."""
    groups = [{j} for j in {j for _, j, _ in pieces}]   # of column blocks
    for row in {i for i, _, _ in pieces}:   # the columns that meet one row block are linked
        cols = {j for i, j, _ in pieces if i == row}
        groups = [g for g in groups if not g & cols] + [cols.union(*(g for g in groups if g & cols))]
    lead, blocks, norm = pieces[0][2].shape[:-2], algebra.blocks, algebra.norm
    euclidean, lattice = isinstance(norm, EuclideanCoordinate), isinstance(norm, LatticeBlockNorm)
    owner, runs = (np.repeat(np.arange(len(norm.slices)), norm.block_dims), norm.slices) if lattice \
        else (np.zeros(algebra.dim, int), [slice(0, algebra.dim)])   # each coordinate's summand
    values = []
    for cols in groups:
        group = [(i, j, x) for i, j, x in pieces if j in cols]
        (i, j, x), t = group[0], owner[blocks[group[0][0]][0]]
        if len(group) == 1 and i == j and len(blocks[i]) == runs[t].stop - runs[t].start:
            touched, parts = [t], [np.swapaxes(x, -1, -2)]   # laid out as assembled, see above
            columns = parts[0] if lattice else np.ascontiguousarray(parts[0])
        else:
            where = np.sort(np.concatenate([blocks[j] for j in cols]))   # the columns, in order
            # the rows: the coordinates of the summands that the columns touch, in order
            touched = sorted(set(owner[np.concatenate([blocks[i] for i, _, _ in group])].tolist()))
            coords = np.concatenate([np.arange(runs[t].start, runs[t].stop) for t in touched])
            columns = np.zeros(lead + (len(where), len(coords)), complex)
            for i, j, x in group:
                columns[..., np.searchsorted(where, blocks[j])[:, None], np.searchsorted(coords, blocks[i])] = \
                    np.swapaxes(x, -1, -2)
            parts = [columns[..., owner[coords] == t] for t in touched] if lattice else []
        if lattice:   # the dual lattice norm of the touched summands' duals
            duals = [norm.block_norms[t].dual(part) for t, part in zip(touched, parts)]
            if len(touched) == 1 and norm.lattice.kind != "orlicz":   # d ||e_t||_E*
                duals = duals[0] if norm.lattice.weights is None else duals[0] / norm.lattice.weights[touched[0]]
            else:
                duals = dual_norm_batch(restrict_spec(norm.lattice, touched),
                                        np.stack(duals, -1).reshape(-1, len(touched))).reshape(duals[0].shape)
        values.append(np.linalg.svd(columns, compute_uv=False)[..., 0] if euclidean
                      else (duals if lattice else norm.dual(columns)).sum(axis=-1))
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
    ``witness`` X, phi's norming element projected to annihilate Z (both
    from one :meth:`~esum_lab.esum.CoordinateNorm.dual_norming` call), with
    ``lower`` = :func:`witness_value` of X; ``lower`` and ``upper`` are
    floats for one row and arrays (N,) for a stack.  They meet when the
    norming element already annihilates Z: for the Euclidean norm, and for
    M_2 and lattice sums of M_2 blocks, whose Z is spanned by the blocks'
    identities.  For a 2 x 2 A with eigenvalues mu +- delta and t' = t + mu,
    ||A + tI||_1^2 = ||A - mu I||_F^2 + 2|t'|^2 + 2|t'^2 - delta^2| is least
    at t' = 0, and the traceless minimiser has a traceless polar factor.
    Elsewhere ``lower`` is valid but may be loose."""
    phi0 = np.asarray(phi0, complex)
    zb = np.asarray(z_basis, complex).reshape(-1, phi0.shape[-1])
    psi = phi0 - (phi0 @ zb.conj().T) @ zb
    upper, witness = norm.dual_norming(psi)
    witness = np.where(np.expand_dims(upper > 0.0, -1), witness, 0.0)
    # twice: when the projection cancels most of X, one pass leaves a
    # rounding residual that is large relative to what is left
    for _ in range(2):
        witness = witness - (witness @ zb.T) @ zb.conj()
    return {"phi": psi, "lower": witness_value(norm, phi0, zb, witness),
            "upper": upper if np.ndim(upper) else float(upper), "witness": witness}


# ---------------------------------------------------------------------------
# Weak amenability constant brackets
# ---------------------------------------------------------------------------

def _gaussians(rng, count, n):
    """count complex Gaussian n x n matrices, real and imaginary parts
    alternating in the stream."""
    g = rng.standard_normal((count, 2, n, n))
    return g[:, 0] + 1j * g[:, 1]


def _content(algebra):
    """What a draw group on all of ``algebra`` depends on: norm, blocks and cubes."""
    return algebra.norm.group_key(algebra.dim), *(x.tobytes() for x in [*algebra.blocks, *algebra.cubes])


def wam_bracket(algebra, samples=200, seed=0, blocks=None, report=None):
    """Certified lower / certified upper bracket for the best constant C with:
    every derivation D admits an implementing phi with ||phi|| <= C ||D||.
    Each draw g is cut to its (i, i) pieces, the only ones that reach the
    inner span; one :meth:`DerivationSpaceReport.implement` call per group
    of draws gives phi0, the pseudo-inverse solve, and D = ad_phi0 is inner.
    The lower end is the best re-checked dual witness value over phi0 + Z
    (one :func:`min_dual_over_affine` call) over :func:`derivation_norm_upper`
    across the draws with a nonzero D, 0 without one; it is 0 exactly without
    nonzero derivations, and both ends are infinite when the algebra is not
    weakly amenable.  ``blocks``, lists of distinct coordinates in [0, d),
    add per-block groups whose draws depend only on the block size; a group
    over several blocks is drawn in chunks of MIX_ENTRIES entries at most,
    the stream of one call.  Bad ``blocks`` or samples < 0: ValueError.

    On an E-sum, a group that is exactly summand t's run is bracketed in the
    summand, on the sum's factors of its blocks, once per summand content,
    seed and count; ``samples_used`` counts each copy's kept draws.  With
    phi0 on summand t, every phi implementing D = ad_phi0 lies in phi0 + Z,
    which splits along the summands, so ||phi|| >= ||e_t||_E* ||phi_t||
    with phi_t in phi0_t + Z_t (E* is solid); and ||D|| <= ||e_t||_E*
    ||D_t||, as D reads a_t alone, ||a_t|| ||e_t||_E <= ||a|| and
    ||e_t||_E >= 1.  So the summand's certified ratios bound the sum's
    constant from below (the sum's own arithmetic gives them up to rounding
    under sup, weighted sup and lp; a Euclidean summand's spectral bound is
    tighter).  The mix and groups across summands are solved in the sum."""
    return _wam_bracket(algebra, samples, seed, blocks, report, {})


def _wam_bracket(algebra, samples, seed, blocks, report, memo):
    """:func:`wam_bracket`; ``memo`` keeps whole-space groups' (best ratio, kept draws) by content."""
    if samples < 0:
        raise ValueError(f"samples must be nonnegative, got {samples}")
    d, whole = algebra.dim, np.arange(algebra.dim)
    lists = [whole] if blocks is None else [np.asarray(idx) for idx in blocks]
    for idx, given in zip(lists, [] if blocks is None else blocks):
        v = idx.tolist() if idx.ndim == 1 and idx.dtype.kind in "iu" else []
        if not v or len(set(v)) < len(v) or min(v) < 0 or max(v) >= d:
            raise ValueError(f"a block must list distinct integer coordinates in [0, {d}), got {given!r}")
    rep = report or derivation_space(algebra)
    if rep.dim_derivations == 0:
        return {"lower": 0.0, "upper": 0.0, "wam_zero": True, "weakly_amenable": True}
    if not is_weakly_amenable(algebra, rep)[0]:
        return {"lower": np.inf, "upper": np.inf, "wam_zero": False, "weakly_amenable": False}

    runs = {(s.start, s.stop): a for a, s in zip(algebra.summands, algebra.norm.slices)} \
        if isinstance(algebra, ESumAlgebra) else {}
    own, found, fac = [], [], {}   # the groups solved here; every group's (best ratio, kept draws)
    for idx in lists:
        a = runs.get((int(idx[0]), int(idx[-1]) + 1))
        if a is None or idx.tolist() != list(range(idx[0], idx[-1] + 1)):
            own.append((idx, [seed, len(idx)], samples))
            continue
        at = (_content(a), seed, a.dim, samples)
        if at not in memo:   # on the sum's (i, i) pieces and factors, its only ones; no inner D: no draws
            fac = fac or {cb.tobytes(): (p[2], f) for cb, p, (_, f) in zip(algebra.cubes, rep.pieces, rep.adjoint)}
            sub = DerivationSpaceReport(a, [(i, i, fac[c.tobytes()][0]) for i, c in enumerate(a.cubes)],
                                        [(b, fac[c.tobytes()][1]) for b, c in zip(a.blocks, a.cubes)], None)
            memo[at] = _draw_ratios(a, sub, [(np.arange(a.dim), [seed, a.dim], samples)])[0] if sub.dim_inner \
                else (0.0, 0)
        found.append(memo[at])
    own.append((np.arange(d), [seed, 0xE5], max(4, samples // 10)))
    for (idx, key, count), best in zip(own, _draw_ratios(algebra, rep, own)):
        found.append(best)
        if idx is whole:   # the whole-space samples group, which a sum reads for a summand's run
            memo[(_content(algebra), *key, count)] = best
    lower = max(best for best, _ in found)

    r_phi, s_phi = algebra.norm.dual_vs_l2(d)
    basis_sq = float(np.sum(algebra.norm.eval(np.eye(d, dtype=complex)) ** 2))
    upper = max(r_phi * s_phi * np.sqrt(basis_sq) / rep.sigma_min, lower)
    return {"lower": lower, "upper": float(upper), "wam_zero": False, "weakly_amenable": True,
            "samples_used": sum(used for _, used in found)}


def _draw_ratios(algebra, rep, groups):
    """(best certified ratio, kept draws) of each group (idx, key, count) in one stack; c[r] kept in r rows."""
    owner, phi0 = np.empty(algebra.dim, int), []   # owner: the structure block of each coordinate
    for i, b in enumerate(algebra.blocks):
        owner[b] = i
    for idx, key, count in groups:
        block = owner[idx[0]]
        whole = np.array_equal(idx, algebra.blocks[block])   # one whole structure block, in order: no cuts
        cuts = []
        for i in [] if whole else np.unique(owner[idx]):   # idx[src] lies in block i, at its positions dst
            src = np.flatnonzero(owner[idx] == i)
            cuts.append((i, src, np.searchsorted(algebra.blocks[i], idx[src]),
                         np.zeros((count,) + (len(algebra.blocks[i]),) * 2, complex)))
        if whole or len(cuts) == 1:   # drawn at once
            drawn = _gaussians(np.random.default_rng(key), count, len(idx))
            draws = [(0, drawn)]
        else:   # over several blocks, in chunks of at most MIX_ENTRIES entries, each scattered per cut
            rng, step = np.random.default_rng(key), max(1, MIX_ENTRIES // len(idx) ** 2)
            draws = ((n, _gaussians(rng, min(step, count - n), len(idx))) for n in range(0, count, step))
        for n, g in draws:
            for _, src, dst, x in cuts:
                x[n:n + len(g), dst[:, None], dst] = g[:, src[:, None], src]
        phi0.append(rep.implement([(block, block, drawn)] if whole else [(i, i, x) for i, _, _, x in cuts])[0])
    phi0 = np.concatenate(phi0)
    nd = derivation_norm_upper(algebra, ad_maps(algebra, phi0))
    kept = nd >= 1e-12   # a draw with a nonzero D
    values = min_dual_over_affine(algebra.norm, phi0[kept], rep.z_basis)["lower"] / nd[kept]
    rows, c = np.cumsum([0] + [n for *_, n in groups]).tolist(), [0, *np.cumsum(kept).tolist()]
    return [(max(values[c[a]:c[b]].tolist(), default=0.0), c[b] - c[a]) for a, b in zip(rows, rows[1:])]


# ---------------------------------------------------------------------------
# Direct-sum checks
# ---------------------------------------------------------------------------

def esum_wa_check(summands, lattice, samples=120, seed=0):
    """Certify the sum (its own block algebra) and check the finite-scale
    coordinate claims: commutative weakly amenable summands force a zero
    derivation space; weak amenability passes to summands; conversely,
    weakly amenable summands of which at most one is not essential make a
    weakly amenable sum, since an off-block piece of :func:`derivation_space`
    needs nonzero annihilators N_K and N_P on two blocks; derivations of a
    sum of weakly amenable summands are block-diagonal; and the constant
    brackets obey the two-sided uniformity estimate max_i lower_i <=
    upper(sum), lower(sum) <= C_E^2 max_i upper_i.  Its first half implies
    the transfer bound lower_i <= ||delta_i|| upper(sum), as every lattice
    has embedding norms ||delta_i|| >= 1.

    Each distinct block cube is solved once for the sum and its summands,
    each distinct summand object takes one report and each distinct content
    one bracket.  The sum reads that bracket's draws on the summand's run
    and solves only its mix: for phi0 on summand t, ||phi|| >= ||e_t||_E*
    ||phi_t|| for all phi implementing ad_phi0, and ||ad_phi0|| <=
    ||e_t||_E* ||ad_phi0_t|| (:func:`wam_bracket`), so the summand's ratios
    bound the sum's constant from below.  A negative ``samples`` raises
    ValueError."""
    if samples < 0:
        raise ValueError(f"samples must be nonnegative, got {samples}")
    esum = ESumAlgebra(summands, lattice).as_finite_algebra(seed=seed)
    blocks = [range(run.start, run.stop) for run in esum.norm.slices]
    solved = {}   # per distinct cube, shared by the sum's and the summands' solves
    rep_big = _derivation_space(esum, solved)
    distinct = {id(a): a for a in summands}   # a summand listed twice is solved once
    spaces = {key: _derivation_space(a, solved) for key, a in distinct.items()}
    reps = [spaces[id(a)] for a in summands]

    all_wa = all(r.weakly_amenable for r in reps)
    report = {"sum": rep_big.as_dict(), "summands": [r.as_dict() for r in reps], "ok": True, "failures": []}

    if all(a.commutative for a in summands) and all_wa and rep_big.dim_derivations != 0:
        report["failures"].append("commutative weakly amenable summands left a nonzero derivation space")
    if rep_big.weakly_amenable:
        for i, r in enumerate(reps):
            if not r.weakly_amenable:
                report["failures"].append(f"sum weakly amenable but summand {i} is not")
    else:
        report["offending_summands"] = [i for i, r in enumerate(reps) if not r.weakly_amenable]
        if all_wa and sum(not r.essential for r in reps) <= 1:
            report["failures"].append("summands weakly amenable and at most one not essential, "
                                      "but the sum is not weakly amenable")

    if all_wa:
        owner = np.repeat(np.arange(len(summands)), [a.dim for a in summands])
        worst = max((float(np.abs(x).max()) for i, j, x in rep_big.pieces
                     if owner[esum.blocks[i][0]] != owner[esum.blocks[j][0]]), default=0.0)
        report["max_off_block"] = worst
        if worst > 1e-9:
            report["failures"].append(f"derivation basis is not block-diagonal: {worst}")

        memo, contents = {}, {_content(a): a for a in summands}   # the summands' groups, read by the sum
        brackets = {key: _wam_bracket(a, samples, seed, None, spaces[id(a)], memo) for key, a in contents.items()}
        br_small = [brackets[_content(a)] for a in summands]
        br_big = _wam_bracket(esum, samples, seed, blocks, rep_big, memo)
        report.update(bracket_sum=br_big, bracket_summands=br_small)
        ce = ce_constant(lattice).value
        if max(b["lower"] for b in br_small) > br_big["upper"] + BRACKET_TOL:
            report["failures"].append("summand lower bracket exceeds the sum upper bracket")
        if br_big["lower"] > ce * ce * max(b["upper"] for b in br_small) + BRACKET_TOL:
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
