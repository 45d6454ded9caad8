"""Derivation spaces of finite-dimensional algebras into their dual bimodule.

The dual A* of a :class:`~esum_lab.esum.FiniteAlgebra` carries the actions
(a.phi)(x) = phi(xa) and (phi.a)(x) = phi(ax), realized as matrices built
from the structure constants.  A derivation is a linear map D: A -> A* with
D(ab) = a.D(b) + D(a).b; the inner derivation implemented by phi in A* is
ad_phi(a) = a.phi - phi.a.

Everything reduces to exact linear algebra on the structure constants:

  - the derivation space is the nullspace of one homogeneous system over
    dim^2 matrix unknowns (rank-revealing SVD, relative tolerance 1e-10);
  - the inner space is the column space of the map phi -> ad_phi, whose
    kernel is the commutant Z of the bimodule action;
  - weak amenability means every derivation lies in the inner span.

On top of that sit sampled weak-amenability constant brackets (minimum
dual-norm implementing functionals over the affine solution set, against
certified upper bounds on derivation operator norms) and the finite-scale
coordinate mechanisms for direct sums: block-diagonality of derivations,
two-sided transfer bounds, and the per-coordinate growth obstruction on
p-summed copies of a noncommutative algebra.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import minimize

from . import esum as es
from .esum import ESumAlgebra, EuclideanCoordinate
from .lattice import ce_constant, delta_norm

RANK_TOL = 1e-10
LEIBNIZ_TOL = 1e-10


# ---------------------------------------------------------------------------
# Bimodule actions
# ---------------------------------------------------------------------------

class DualBimodule:
    """Matrix realization of the actions of A on A* in the dual basis."""

    def __init__(self, algebra):
        self.algebra = algebra
        c = algebra.structure
        self.left = c.transpose(1, 0, 2).copy()   # (b_i . phi)_j = c[j,i,k] phi_k
        self.right = c.copy()                     # (phi . b_i)_j = c[i,j,k] phi_k
        self._check_axioms()

    def _check_axioms(self):
        c = self.algebra.structure
        L, R = self.left, self.right
        prod_left = np.einsum("ijm,mkl->ijkl", c, L)
        comp_left = np.einsum("ikq,jql->ijkl", L, L)
        if not np.allclose(prod_left, comp_left, atol=1e-10):
            raise AssertionError("left action does not compose along products")
        prod_right = np.einsum("ijm,mkl->ijkl", c, R)
        comp_right = np.einsum("jkq,iql->ijkl", R, R)
        if not np.allclose(prod_right, comp_right, atol=1e-10):
            raise AssertionError("right action does not compose along products")
        mixed1 = np.einsum("ikq,jql->ijkl", L, R)
        mixed2 = np.einsum("jkq,iql->ijkl", R, L)
        if not np.allclose(mixed1, mixed2, atol=1e-10):
            raise AssertionError("left and right actions do not commute")


def adjoint_map_matrix(algebra):
    """The (dim^2, dim) matrix of phi -> vec(ad_phi), row index (k, j)."""
    c = algebra.structure
    d = algebra.dim
    return (c - c.transpose(1, 0, 2)).reshape(d * d, d)


def leibniz_residual(algebra, D):
    """Max-abs violation of the derivation identity by the matrix D."""
    c = algebra.structure
    t1 = np.einsum("ijm,km->ijk", c, D)
    t2 = np.einsum("kiq,qj->ijk", c, D)
    t3 = np.einsum("jkq,qi->ijk", c, D)
    return float(np.abs(t1 - t2 - t3).max())


def _rank_split(mat):
    """SVD column space / nullspace split at the relative rank tolerance."""
    u, s, vh = np.linalg.svd(mat, full_matrices=True)
    if s.size == 0 or s[0] == 0.0:
        rank = 0
    else:
        rank = int(np.sum(s > RANK_TOL * s[0]))
    col = u[:, :rank]
    null = vh[rank:].conj()
    return rank, col, null, s


# ---------------------------------------------------------------------------
# Derivation and inner spaces
# ---------------------------------------------------------------------------

class DerivationSpaceReport:
    def __init__(self, algebra, derivation_basis, inner_basis, z_basis):
        self.algebra = algebra
        self.derivation_basis = derivation_basis   # (k, d, d)
        self.inner_basis = inner_basis             # (r, d, d)
        self.z_basis = z_basis                     # (z, d), orthonormal rows
        self.dim_derivations = len(derivation_basis)
        self.dim_inner = len(inner_basis)
        self.center_annihilator_dim = len(z_basis)
        self.weakly_amenable = self.dim_derivations == self.dim_inner

    def as_dict(self):
        return {
            "dim_derivations": self.dim_derivations,
            "dim_inner": self.dim_inner,
            "commutant_dim": self.center_annihilator_dim,
            "weakly_amenable": self.weakly_amenable,
        }


def derivation_space(algebra):
    """Solve the Leibniz system over all dim^2 matrix unknowns."""
    c = algebra.structure
    d = algebra.dim
    basis = np.eye(d * d, dtype=complex).reshape(d * d, d, d)
    t1 = np.einsum("ijm,bkm->bijk", c, basis)
    t2 = np.einsum("kiq,bqj->bijk", c, basis)
    t3 = np.einsum("jkq,bqi->bijk", c, basis)
    system = (t1 - t2 - t3).reshape(d * d, d ** 3).T
    _, _, null, _ = _rank_split(system)
    derivations = null.reshape(-1, d, d)

    admat = adjoint_map_matrix(algebra)
    rank, col, z_null, _ = _rank_split(admat)
    inner = col.T.reshape(-1, d, d)

    scale = max(1.0, float(np.abs(c).max()))
    for mat in inner:
        res = leibniz_residual(algebra, mat)
        if res > LEIBNIZ_TOL * scale * 10:
            raise AssertionError(f"inner derivation violates the Leibniz identity: {res}")
    if rank != d - len(z_null):
        raise AssertionError("rank-nullity mismatch in the adjoint map")
    return DerivationSpaceReport(algebra, derivations, inner, z_null)


def inner_space(algebra):
    """Basis of the inner derivations plus the commutant kernel Z."""
    rep = derivation_space(algebra)
    return {
        "inner_basis": rep.inner_basis,
        "dim_inner": rep.dim_inner,
        "z_basis": rep.z_basis,
        "dim_z": rep.center_annihilator_dim,
    }


def is_weakly_amenable(algebra, report=None):
    """Containment test derivations <= inner span, with a certificate.

    Returns (flag, certificate): the certificate lists implementing
    functional coordinates per derivation basis element, or exhibits one
    derivation outside the inner span.
    """
    rep = report or derivation_space(algebra)
    admat = adjoint_map_matrix(algebra)
    implementations = []
    for mat in rep.derivation_basis:
        target = mat.reshape(-1)
        phi, *_ = np.linalg.lstsq(admat, target, rcond=None)
        res = float(np.linalg.norm(admat @ phi - target))
        if res > 1e-8 * max(1.0, float(np.linalg.norm(target))):
            return False, {"outside_derivation": mat, "residual": res}
        implementations.append(phi)
    return True, {"implementations": implementations}


def essential_check(algebra):
    """span{ab : a, b in A} = A, via the rank of the multiplication image."""
    c = algebra.structure
    d = algebra.dim
    rank, *_ = _rank_split(c.reshape(d * d, d))
    return rank == d


# ---------------------------------------------------------------------------
# Operator norms and minimum-norm implementations
# ---------------------------------------------------------------------------

def derivation_norm_upper(algebra, D):
    """Certified upper bound on ||D||: coefficients of a unit-ball element
    are bounded by 1 for every supported coordinate norm, so the column dual
    norms sum to a bound.  Exact for the Euclidean family."""
    if isinstance(algebra.norm, EuclideanCoordinate):
        return float(np.linalg.svd(D, compute_uv=False)[0])
    cols = algebra.norm.dual(D.T)
    return float(np.sum(cols))


def _orthonormal_rows(mat, tol=1e-12):
    mat = np.atleast_2d(np.asarray(mat, complex))
    if mat.size == 0:
        return np.zeros((0, mat.shape[-1]), complex)
    u, s, vh = np.linalg.svd(mat, full_matrices=False)
    rank = int(np.sum(s > tol * max(s[0], 1.0))) if s.size else 0
    return vh[:rank]


def blockwise_span_split(z_basis, blocks):
    """Per-block orthonormal bases when span(z_basis) decomposes into
    block-supported pieces; None otherwise.  Decomposability holds exactly
    when the block restrictions' ranks add up to the span dimension."""
    zb = np.asarray(z_basis, complex)
    if zb.size == 0:
        return [np.zeros((0, 0), complex) for _ in blocks]
    pieces = []
    total = 0
    for block in blocks:
        idx = np.asarray(block)
        restricted = _orthonormal_rows(zb[:, idx])
        full = np.zeros((restricted.shape[0], zb.shape[1]), complex)
        full[:, idx] = restricted
        pieces.append(full)
        total += restricted.shape[0]
    if total != zb.shape[0]:
        return None
    return pieces


def min_dual_over_affine(norm, phi0, z_basis, seed=0, restarts=1, blocks=None):
    """Minimize the dual norm over phi0 + span(z_basis) (convex, few dims).

    The Euclidean case is closed-form.  When ``blocks`` are given, the norm
    is a lattice aggregate of block duals and the span splits along the
    blocks, the problem decomposes into independent small minimizations
    (every lattice aggregate is monotone per block).  Otherwise Powell runs
    from the orthogonal projection plus random offsets.
    """
    phi0 = np.asarray(phi0, complex)
    zb = np.asarray(z_basis, complex)
    if zb.size == 0 or float(np.abs(phi0).max(initial=0.0)) < 1e-15:
        return phi0.copy(), float(norm.dual(phi0))
    if isinstance(norm, EuclideanCoordinate):
        # rows of z_basis are orthonormal: project
        proj = -(zb.conj() @ phi0)
        phi = phi0 + proj @ zb
        return phi, float(norm.dual(phi))
    if blocks is not None and len(blocks) > 1 and isinstance(norm, es.LatticeBlockNorm):
        pieces = blockwise_span_split(zb, blocks)
        if pieces is not None:
            phi = phi0.copy()
            for bnorm, block, piece in zip(norm.block_norms, blocks, pieces):
                idx = np.asarray(block)
                sub, _ = min_dual_over_affine(bnorm, phi0[idx], piece[:, idx],
                                              seed=seed, restarts=0)
                phi[idx] = sub
            return phi, float(norm.dual(phi))

    zb_on = _orthonormal_rows(zb)
    k = zb_on.shape[0]
    proj = -(zb_on.conj() @ phi0)

    def objective(t):
        coef = t[:k] + 1j * t[k:]
        return float(norm.dual(phi0 + coef @ zb_on))

    rng = np.random.default_rng(seed)
    starts = [np.zeros(2 * k), np.concatenate([proj.real, proj.imag])]
    starts += [rng.standard_normal(2 * k) * 0.5 for _ in range(restarts)]
    best_x, best_f = None, np.inf
    for x0 in starts:
        res = minimize(objective, x0, method="Powell",
                       options={"xtol": 1e-10, "ftol": 1e-12, "maxiter": 10000})
        if res.fun < best_f:
            best_x, best_f = res.x, float(res.fun)
    coef = best_x[:k] + 1j * best_x[k:]
    return phi0 + coef @ zb_on, best_f


def minimal_implementing_functional(algebra, D, report=None, seed=0, blocks=None):
    """Least dual-norm phi with ad_phi = D (the constraint set is affine)."""
    rep = report or derivation_space(algebra)
    admat = adjoint_map_matrix(algebra)
    target = D.reshape(-1)
    phi0, *_ = np.linalg.lstsq(admat, target, rcond=None)
    res = float(np.linalg.norm(admat @ phi0 - target))
    if res > 1e-8 * max(1.0, float(np.linalg.norm(target))):
        raise ValueError("derivation is not inner")
    return min_dual_over_affine(algebra.norm, phi0, rep.z_basis, seed=seed, blocks=blocks)


# ---------------------------------------------------------------------------
# Weak amenability constant brackets
# ---------------------------------------------------------------------------

def _project_onto_span(basis_rows, mat):
    """Orthogonal projection of mat onto the span of the (orthonormal-row)
    basis of vectorized matrices."""
    v = mat.reshape(-1)
    flat = basis_rows.reshape(len(basis_rows), -1)
    return (flat.conj() @ v) @ flat


def wam_bracket(algebra, samples=200, seed=0, blocks=None, report=None):
    """Sampled lower / certified upper bracket for the best constant C with:
    every derivation D admits an implementing phi with ||phi|| <= C ||D||.

    Zero is returned exactly when there are no nonzero derivations; both
    ends are infinite when the algebra is not weakly amenable.  ``blocks``
    (coordinate index lists) add per-block samples whose draws depend only
    on the block dimension, so direct sums of copies reuse the single-copy
    samples.
    """
    rep = report or derivation_space(algebra)
    if rep.dim_derivations == 0:
        return {"lower": 0.0, "upper": 0.0, "wam_zero": True, "weakly_amenable": True}
    wa, _ = is_weakly_amenable(algebra, rep)
    if not wa:
        return {"lower": np.inf, "upper": np.inf, "wam_zero": False, "weakly_amenable": False}

    d = algebra.dim
    if blocks is None:
        blocks = [list(range(d))]
    draws = []
    for block in blocks:
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

    lower = 0.0
    used = 0
    for g in draws:
        D = _project_onto_span(rep.derivation_basis, g).reshape(d, d)
        if leibniz_residual(algebra, D) > 1e-8 * max(1.0, float(np.abs(D).max())):
            continue
        nd = derivation_norm_upper(algebra, D)
        if nd < 1e-12:
            continue
        _, phi_norm = minimal_implementing_functional(algebra, D, report=rep, seed=seed,
                                                      blocks=blocks)
        lower = max(lower, phi_norm / nd)
        used += 1

    admat = adjoint_map_matrix(algebra)
    s = np.linalg.svd(admat, compute_uv=False)
    sigma_min = float(s[s > RANK_TOL * s[0]].min())
    r_phi, s_phi = algebra.norm.dual_vs_l2(d)
    basis_sq = float(sum(algebra.norm.eval(np.eye(d, dtype=complex)[j]) ** 2 for j in range(d)))
    upper = r_phi * s_phi * np.sqrt(basis_sq) / sigma_min
    upper = max(upper, lower)
    return {
        "lower": lower,
        "upper": float(upper),
        "wam_zero": False,
        "weakly_amenable": True,
        "samples_used": used,
    }


# ---------------------------------------------------------------------------
# Direct-sum checks
# ---------------------------------------------------------------------------

def _block_index_lists(summands):
    blocks, start = [], 0
    for alg in summands:
        blocks.append(list(range(start, start + alg.dim)))
        start += alg.dim
    return blocks


def _off_block_mass(mat, blocks):
    mask = np.zeros(mat.shape, dtype=bool)
    for block in blocks:
        mask[np.ix_(block, block)] = True
    off = np.where(mask, 0.0, np.abs(mat))
    return float(off.max(initial=0.0))


def esum_wa_check(summands, lattice, samples=120, seed=0, tol=1e-9):
    """Assemble the sum as one block algebra and check the finite-scale
    coordinate claims: commutative weakly amenable summands force a zero
    derivation space; weak amenability passes to summands; derivations of a
    sum of weakly amenable summands are block-diagonal; and the constant
    brackets obey the two-sided uniformity estimate."""
    esum = ESumAlgebra(summands, lattice)
    big = esum.as_finite_algebra(seed=seed)
    blocks = _block_index_lists(summands)
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
        if max_lower > br_big["upper"] + tol:
            report["failures"].append("summand lower bracket exceeds the sum upper bracket")
        if br_big["lower"] > ce * ce * max_upper + tol:
            report["failures"].append("sum lower bracket exceeds CE^2 times the summand upper bracket")

    report["ok"] = not report["failures"]
    return report


def wa_quotient_transfer_check(summands, lattice, samples=120, seed=0, tol=1e-9):
    """Summand constants are controlled by the embedding norm times the sum
    constant; checked on the sampled brackets."""
    esum = ESumAlgebra(summands, lattice)
    big = esum.as_finite_algebra(seed=seed)
    blocks = _block_index_lists(summands)
    br_big = wam_bracket(big, samples=samples, seed=seed, blocks=blocks)
    rows = []
    ok = True
    for i, alg in enumerate(summands):
        br = wam_bracket(alg, samples=samples, seed=seed)
        factor = delta_norm(lattice, i)
        bound = factor * br_big["upper"]
        row_ok = br["lower"] <= bound + tol
        ok = ok and row_ok
        rows.append({
            "summand": i,
            "lower": br["lower"],
            "embedding_norm": factor,
            "bound": bound,
            "ok": row_ok,
        })
    return {"rows": rows, "sum_bracket": br_big, "ok": ok}


# ---------------------------------------------------------------------------
# The p-sum growth obstruction
# ---------------------------------------------------------------------------

def _block_cube(summands):
    total = sum(a.dim for a in summands)
    cube = np.zeros((total, total, total), complex)
    start = 0
    for alg in summands:
        sl = slice(start, start + alg.dim)
        cube[sl, sl, sl] = alg.structure
        start += alg.dim
    return cube


def obstruction_weights(p, count):
    """Coordinate weights for the growth construction: constant 1 for
    1 < p <= 2 and n**(-1/q) beyond, so their l_q tail always diverges."""
    if not (1.0 < p < np.inf):
        raise ValueError(f"exponent must satisfy 1 < p < inf, got {p}")
    q = p / (p - 1.0)
    n = np.arange(1, count + 1, dtype=float)
    return np.ones(count) if p <= 2.0 else n ** (-1.0 / q)


def lp_obstruction_demo(B, psi, p, sizes, seed=0, tol=1e-8):
    """Per-coordinate growth mechanism on finite truncations of a p-sum of
    copies of B.

    With d the dual distance from psi to the commutant Z, the derivation
    sending (b_i) to (w_i ad_psi(b_i)) forces every implementing family to
    satisfy ||Phi_i|| >= d |w_i|; the l_q aggregate of the per-coordinate
    minima is reported against d ||w||_q across the truncation sizes.
    """
    psi = np.asarray(psi, complex)
    if psi.shape != (B.dim,):
        raise ValueError("psi must be a dual coefficient vector for B")
    rep = derivation_space(B)
    admat = adjoint_map_matrix(B)
    ad_psi = (admat @ psi).reshape(B.dim, B.dim)
    if float(np.abs(ad_psi).max()) <= 1e-12:
        raise ValueError("psi lies in the commutant; the construction degenerates")
    _, dist = min_dual_over_affine(B.norm, psi, rep.z_basis, seed=seed)
    if dist <= 1e-12:
        raise ValueError("psi has zero distance to the commutant")

    q = p / (p - 1.0)
    weights = obstruction_weights(p, max(sizes))
    rows = []
    for size in sorted(sizes):
        w = weights[:size]
        per_coord = []
        for i in range(size):
            _, val = min_dual_over_affine(B.norm, w[i] * psi, rep.z_basis, seed=seed)
            per_coord.append(val)
        per_coord = np.array(per_coord)
        floor = dist * np.abs(w)
        percoord_ok = bool(np.all(per_coord >= floor - tol))
        aggregate = float(np.sum(per_coord ** q) ** (1.0 / q))
        reference = float(dist * np.sum(np.abs(w) ** q) ** (1.0 / q))

        # the assembled block map is a genuine derivation of the truncated sum
        cube = _block_cube([B] * size)
        D = np.zeros((B.dim * size, B.dim * size), complex)
        for i in range(size):
            sl = slice(i * B.dim, (i + 1) * B.dim)
            D[sl, sl] = w[i] * ad_psi
        t1 = np.einsum("ijm,km->ijk", cube, D)
        t2 = np.einsum("kiq,qj->ijk", cube, D)
        t3 = np.einsum("jkq,qi->ijk", cube, D)
        residual = float(np.abs(t1 - t2 - t3).max())

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
