"""Projective tensor norm of the canonical diagonal of a pointwise algebra.

For C^n with coordinatewise product and a lattice norm N, the only candidate
diagonal is d = sum_i e_i (x) e_i: commutation with all of C^n kills the
off-diagonal tensor coefficients and the unit condition pins the diagonal
ones to 1.  Its projective norm is bracketed from two sides:

  lower:  a bilinear form B with |B| <= 1 on the product of N-balls pairs
          with d to give sum_i B(e_i, e_i).  Candidate forms are matrices M
          (B(x, z) = z^T M x) whose bilinear norm is bounded by certified,
          family-specific rules; the reported value is Re tr(M) after
          scaling M by its certified bound.  Candidates: the single-entry
          spikes and the identity.

  upper:  any finite decomposition sum_k x_k (x) y_k with
          sum_k x_k y_k^T = I is a valid bound sum_k ||x_k|| ||y_k||.
          Candidates: the separated decomposition (e_i, e_i), the discrete
          Fourier decomposition (1/n) sum_k w_k (x) conj(w_k) whose cost is
          the squared full-indicator norm, and a local search over
          column/inverse-column pairs of an invertible matrix.

The amenability constant of these pointwise algebras equals the diagonal's
projective norm, so the returned bracket is an AM bracket.
"""

from __future__ import annotations

import numpy as np

from .lattice import (
    LatticeNormSpec,
    ce_constant,
    chi_norm,
    generalized_inverse,
    norm_eval_batch,
    restrict_spec,
)

DEFAULT_TOL = 1e-6
WITNESS_TOL = 1e-9


class BracketBudget:
    """Search effort.  ``scale`` sets the local-search rounds of the upper
    side (400 at scale 1); ``scale == 0`` keeps only the always-on
    candidates (separated decomposition, single-entry witnesses), which is
    enough for validity but usually leaves the bracket loose."""

    def __init__(self, scale=1.0):
        self.scale = float(scale)
        self.local_rounds = max(0, int(400 * self.scale))
        self.tol = DEFAULT_TOL

    @property
    def search_enabled(self):
        return self.scale > 0


class NormBracket:
    def __init__(self, lower, upper, witness_lower, witness_upper, loose):
        self.lower = float(lower)
        self.upper = float(upper)
        self.witness_lower = witness_lower   # (matrix, certified bilinear bound, method)
        self.witness_upper = witness_upper   # (list of (x, y) pairs, cost, method)
        self.loose = bool(loose)

    def as_dict(self):
        mat, cert, method = self.witness_lower
        pairs, cost, umethod = self.witness_upper
        return {
            "lower": self.lower,
            "upper": self.upper,
            "loose": self.loose,
            "witness_lower": {
                "matrix": _cplx_list(mat),
                "certified_bilinear_bound": cert,
                "method": method,
            },
            "witness_upper": {
                "pairs": [[_cplx_list(x), _cplx_list(y)] for x, y in pairs],
                "cost": cost,
                "method": umethod,
            },
        }

    def __repr__(self):
        flag = ", loose" if self.loose else ""
        return f"NormBracket([{self.lower:.9g}, {self.upper:.9g}]{flag})"


def _cplx_list(a):
    a = np.asarray(a)
    if np.iscomplexobj(a):
        return np.stack([a.real, a.imag], axis=-1).tolist()
    return a.tolist()


# ---------------------------------------------------------------------------
# Certified bilinear bounds
# ---------------------------------------------------------------------------

def coordinate_ball_sup(spec):
    """Per-coordinate sup of |x_i| over the unit ball: 1/||delta_i||."""
    n = spec.index_size
    if spec.kind == "sup":
        return np.ones(n)
    if spec.kind == "weighted_sup":
        return 1.0 / spec.weights
    if spec.kind == "lp":
        return np.ones(n)
    return np.full(n, generalized_inverse(spec.phi, 1.0))


def max_square_sum(spec):
    """Certified upper bound (exact for the named families) on
    sup{sum_i |x_i|^2 : ||x|| <= 1}, the key constant for diagonal forms."""
    n = spec.index_size
    if spec.kind == "sup":
        return float(n)
    if spec.kind == "weighted_sup":
        return float(np.sum(1.0 / spec.weights ** 2))
    if spec.kind == "lp":
        return max(1.0, n ** (1.0 - 2.0 / spec.p))
    phi = spec.phi
    if phi.family == "power":
        p = phi.params["p"]
        return max(1.0, n ** (1.0 - 2.0 / p))
    if phi.family == "shifted_ramp":
        a = phi.params["a"]
        # One coordinate at 1 exhausts the modular budget; the rest sit at
        # the degeneracy plateau a.
        return 1.0 + (n - 1) * a * a
    s = generalized_inverse(phi, 1.0)
    return float(n) * s * s


def bilinear_cert(spec, mat):
    """A certified upper bound on sup{|z^T M x| : ||x||, ||z|| <= 1}.

    Exact for the spectral (lp, p = 2) and max-entry (lp, p = 1) cases and
    for diagonal matrices in all named families; a safe entrywise cover
    otherwise.
    """
    mat = np.asarray(mat, dtype=complex)
    n = spec.index_size
    sup = coordinate_ball_sup(spec)
    bounds = [float(np.abs(mat).ravel() @ np.outer(sup, sup).ravel())]  # entry cover
    if spec.kind == "lp":
        if spec.p <= 2.0:
            # the lp ball is contained in the l2 ball for p <= 2
            bounds.append(float(np.linalg.svd(mat, compute_uv=False)[0]))
        if spec.p == 1.0:
            bounds.append(float(np.abs(mat).max()))
    off = mat - np.diag(np.diag(mat))
    if np.abs(off).max() <= 1e-15 * max(1.0, np.abs(mat).max()):
        f = np.abs(np.diag(mat))
        # Cauchy-Schwarz: sum f |x z| <= max f * sup_ball sum |x|^2
        bounds.append(float(f.max(initial=0.0)) * max_square_sum(spec))
        bounds.append(float(f @ (sup * sup)))
        # pointwise products of two ball elements stay in the ball, and a
        # symmetric linear objective over the ball peaks at a constant
        # vector, so sup sum_i u_i = n / ||chi_n||
        bounds.append(float(f.max(initial=0.0)) * n / chi_norm(spec, n))
        if spec.kind == "lp" and spec.p > 2.0:
            r = spec.p / (spec.p - 2.0)
            bounds.append(float(np.sum(f ** r) ** (1.0 / r)))
    return min(bounds)


# ---------------------------------------------------------------------------
# Lower bound: certified dual witnesses
# ---------------------------------------------------------------------------

def _scaled_candidate(spec, mat, method):
    cert = bilinear_cert(spec, mat)
    if cert <= 0:
        return None
    value = float(np.trace(mat).real) / cert
    return (value, mat / cert, method)


def dual_pairing_lower(spec, budget):
    """Best certified witness value among the single-entry forms spike[m]
    and, when the budget allows a search, the identity.

    Three further families never beat them, so they are not scored:

    - a sign diagonal diag(+-1) has the certificate of the identity (every
      bound reads |M|, and |diag| and the singular values are all 1) and a
      trace of at most n;
    - a permutation with fixed set F, where only the entry cover applies,
      has cert = sum_i s_i s_pi(i) > sum_F s_i^2 with s_i = 1/||delta_i||,
      so its value is below 1/min_F s_i^2, at most the best spike; for lp
      with p <= 2 its cert is >= 1 and its value at most |F| <= n, the
      identity's value;
    - gradient ascent on Re tr(M) over the certified ball is only exact for
      lp with p in {1, 2}, where the certificate is the exact bilinear norm
      (largest singular value or largest entry), so Re tr(M) / cert <= n,
      which the identity attains.

    Ties go to the earlier candidate.
    """
    n = spec.index_size
    cands = []
    for m in range(n):
        e = np.zeros((n, n))
        e[m, m] = 1.0
        cands.append(_scaled_candidate(spec, e, f"spike[{m}]"))
    if budget.search_enabled:
        cands.append(_scaled_candidate(spec, np.eye(n), "identity-diagonal"))
    cands = [c for c in cands if c is not None]
    return max(cands, key=lambda c: c[0])


# ---------------------------------------------------------------------------
# Upper bound: explicit decompositions
# ---------------------------------------------------------------------------

def _decomposition_cost(spec, pairs):
    """sum_k ||x_k|| ||y_k||, from one batched norm call per side, summed
    in pair order."""
    xs, ys = zip(*pairs)
    nx = norm_eval_batch(spec, np.array(xs))
    ny = norm_eval_batch(spec, np.array(ys))
    return float(sum((nx * ny).tolist()))


def decomposition_residual(n, pairs):
    acc = np.zeros((n, n), dtype=complex)
    for x, y in pairs:
        acc += np.outer(x, y)
    return float(np.abs(acc - np.eye(n)).max())


def separated_decomposition(n):
    eye = np.eye(n)
    return [(eye[i].astype(complex), eye[i].astype(complex)) for i in range(n)]


def dft_decomposition(n):
    """d = (1/n) sum_k w_k (x) conj(w_k) with character columns w_k."""
    k = np.arange(n)
    w = np.exp(2j * np.pi * np.outer(k, k) / n)
    return [(w[:, j] / n, np.conj(w[:, j])) for j in range(n)]


def _pairs_from_matrix(u):
    v = np.linalg.inv(u).T
    return [(u[:, k].copy(), v[:, k].copy()) for k in range(u.shape[1])]


def _local_search_upper(spec, budget, rng, seeds):
    """Hill-climb over invertible matrices U; columns of U and of inv(U)^T
    always recombine to the diagonal, so every iterate is a valid bound."""
    n = spec.index_size
    best_pairs, best_cost = None, np.inf
    for seed_mat in seeds:
        u = seed_mat.astype(complex).copy()
        pairs = _pairs_from_matrix(u)
        cost = _decomposition_cost(spec, pairs)
        step = 0.3
        stall = 0
        for _ in range(budget.local_rounds):
            g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            cand = u @ (np.eye(n) + step * g)
            if abs(np.linalg.det(cand)) < 1e-8:
                continue
            cand_pairs = _pairs_from_matrix(cand)
            cand_cost = _decomposition_cost(spec, cand_pairs)
            if cand_cost < cost - 1e-15:
                u, pairs, cost = cand, cand_pairs, cand_cost
                stall = 0
            else:
                stall += 1
                if stall >= 25:
                    step *= 0.7
                    stall = 0
        if cost < best_cost:
            best_pairs, best_cost = pairs, cost
    return best_pairs, best_cost


def primal_decomposition_upper(spec, budget, rng):
    n = spec.index_size
    candidates = []
    sep = separated_decomposition(n)
    candidates.append((_decomposition_cost(spec, sep), sep, "separated"))
    if budget.search_enabled:
        dft = dft_decomposition(n)
        candidates.append((_decomposition_cost(spec, dft), dft, "fourier"))
        if budget.local_rounds > 0 and n >= 2:
            seeds = [np.eye(n), np.exp(2j * np.pi * np.outer(np.arange(n), np.arange(n)) / n) / np.sqrt(n)]
            pairs, cost = _local_search_upper(spec, budget, rng, seeds)
            if pairs is not None:
                candidates.append((cost, pairs, "local-search"))
    return min(candidates, key=lambda c: c[0])


# ---------------------------------------------------------------------------
# Bracket assembly
# ---------------------------------------------------------------------------

def am_pointwise(n, spec, budget=None, rng=None):
    """AM bracket of the pointwise algebra C^n under the given norm: the
    diagonal is the unique candidate, so AM equals its projective norm.

    Both witnesses are re-verified independently: the stored dual matrix is
    re-certified to bilinear bound <= 1 + 1e-9, and the stored decomposition
    is re-multiplied to the exact diagonal with its cost recomputed.
    """
    if not isinstance(spec, LatticeNormSpec) or spec.index_size != n:
        raise ValueError("norm spec must live on exactly n indices")
    budget = budget or BracketBudget()
    rng = rng or np.random.default_rng(0)
    lower, wl_mat, wl_method = dual_pairing_lower(spec, budget)
    upper, wu_pairs, wu_method = primal_decomposition_upper(spec, budget, rng)

    recert = bilinear_cert(spec, wl_mat)
    if recert > 1.0 + WITNESS_TOL:
        raise AssertionError(f"dual witness failed re-certification: {recert}")
    residual = decomposition_residual(n, wu_pairs)
    if residual > WITNESS_TOL:
        raise AssertionError(f"decomposition does not recombine to the diagonal: {residual}")
    upper = _decomposition_cost(spec, wu_pairs)

    if upper < lower - 1e-9 * max(1.0, upper):
        raise AssertionError(f"bracket inversion: lower {lower} > upper {upper}")
    lower = min(lower, upper)
    loose = (upper - lower) > budget.tol * max(upper, 1.0)
    return NormBracket(
        lower, upper,
        (wl_mat, recert, wl_method),
        (wu_pairs, upper, wu_method),
        loose,
    )


def verify_main_theorem(n, spec, budget=None, rng=None):
    """Check 1 <= AM <= C_E^2 through the bracket, with C_E at horizon n."""
    bracket = am_pointwise(n, spec, budget=budget, rng=rng)
    ce = ce_constant(spec).value
    tol = (budget or BracketBudget()).tol
    lower_ok = bracket.lower >= 1.0 - tol
    upper_ok = bracket.upper <= ce * ce + tol
    return {
        "n": n,
        "am_lower": bracket.lower,
        "am_upper": bracket.upper,
        "ce": ce,
        "ce_squared": ce * ce,
        "lower_ok": lower_ok,
        "upper_ok": upper_ok,
        "ratio_upper": bracket.upper / (ce * ce),
        "loose": bracket.loose,
        "ok": lower_ok and upper_ok,
    }


def verify_quotient_bound(spec, keep_indices, budget=None, rng=None, tol=1e-9):
    """Coordinate selection is a norm-one surjective homomorphism onto the
    restricted pointwise algebra, so the target AM upper bound must not
    exceed the source one."""
    keep = list(keep_indices)
    source = am_pointwise(spec.index_size, spec, budget=budget, rng=rng)
    target_spec = restrict_spec(spec, keep)
    target = am_pointwise(len(keep), target_spec, budget=budget, rng=rng)
    q_norm = 1.0  # attained on coordinate vectors; <= 1 by solidity
    ok = target.upper <= q_norm ** 2 * source.upper + tol
    return {
        "kept": keep,
        "q_norm": q_norm,
        "source_upper": source.upper,
        "target_upper": target.upper,
        "ok": ok,
    }
