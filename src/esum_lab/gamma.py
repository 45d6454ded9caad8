"""Projective tensor norm of the canonical diagonal of a pointwise algebra.

For C^n with coordinatewise product and a lattice norm N, the only candidate
diagonal is d = sum_i e_i (x) e_i: commutation with all of C^n kills the
off-diagonal tensor coefficients and the unit condition pins the diagonal
ones to 1.  Its projective norm is bracketed from two sides:

  lower:  a bilinear form B with |B| <= 1 on the product of N-balls pairs
          with d to give sum_i B(e_i, e_i).  Candidate forms are diagonal
          matrices M (B(x, z) = z^T M x) whose bilinear norm is bounded by
          certified rules; the reported value is Re tr(M) after scaling M
          by its certified bound.  Candidates: the single-entry spikes and
          the identity.

  upper:  any finite decomposition sum_k x_k (x) y_k with
          sum_k x_k y_k^T = I is a valid bound sum_k ||x_k|| ||y_k||.
          Candidates: the separated decomposition (e_i, e_i), the discrete
          Fourier decomposition (1/n) sum_k w_k (x) conj(w_k) whose cost is
          the squared full-indicator norm, and the orbit of an extremal
          vector.

For every named lattice the two sides meet.  Let S = sup{sum_i |x_i|^2 :
||x|| <= 1}.  The diagonal is fixed by x (x) y -> Dx (x) conj(D)y for every
diagonal unitary D, and the norm sees only |x|, so averaging an optimal
dual form over that torus leaves its diagonal diag(m), m >= 0.  By AM-GM,
m_i |x_i z_i| <= m_i ((|x| + |z|) / 2)_i^2, and (|x| + |z|) / 2 lies in the
unit ball when the ball is convex, so

  AM = sup over m >= 0 of sum_i m_i / sup{sum_i m_i x_i^2 : ||x|| <= 1}.

For a symmetric norm (sup, lp, Orlicz) averaging over permutations makes m
constant, so AM = n / S, which the identity scores once S is exact; for
weighted sup the best spike scores max_i w_i^2, the Fourier cost.  The
upper side attains n / S with an extremal x* (||x*|| = 1, sum x*^2 = S):
the squares of its cyclic shifts sigma_s x* sum to S at every coordinate,
so over the Fourier phases D_k = diag(w^(k i)) the n^2 pairs
(D_k sigma_s x* / (n S), conj(D_k) sigma_s x*) recombine to the diagonal
and cost n ||x*||^2 / S = n / S.  Convexity of the ball, that is of phi
for an Orlicz norm, is required; ``LatticeNormSpec`` refuses a table whose
slopes decrease.

Every candidate is scored on every call, so ``NormBracket.loose`` (a gap
above ``DEFAULT_TOL`` relative) can only come from a fault.  The lattice
layer runs once for the whole candidate set, one ``norm_eval_batch`` call
over every candidate's vectors, and once more when ``am_pointwise`` re-costs
the winner; a bracket therefore makes two lattice calls.  The
amenability constant of these pointwise algebras equals the diagonal's
projective norm, so the returned bracket is an AM bracket.
"""

from __future__ import annotations

import math

import numpy as np

from .lattice import (
    LatticeNormSpec,
    ce_constant,
    coordinate_ball_sup,
    max_square_sum,
    norm_eval_batch,
    restrict_spec,
)

DEFAULT_TOL = 1e-6
WITNESS_TOL = 1e-9
QUOTIENT_TOL = 1e-9   # slack of verify_quotient_bound's comparison of upper ends


class BracketBudget:
    """Kept only for ``perfbench/workloads.py``, which builds one and reads
    its ``tol``.  ``scale`` is ignored: every bracket scores every
    candidate."""

    def __init__(self, scale=None):
        self.tol = DEFAULT_TOL


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

def bilinear_cert(spec, mat, square=None):
    """A certified upper bound on sup{|z^T M x| : ||x||, ||z|| <= 1} for a
    diagonal M = diag(f): the smaller of max|f| S, by Cauchy-Schwarz with
    S = ``square`` from :func:`max_square_sum`, and sum_i |f_i| sup_ball |x_i|^2.
    The first is exact for the identity, the second for a spike, in every
    named family.  An off-diagonal M raises ValueError."""
    mat = np.asarray(mat, dtype=complex)
    f = np.abs(np.diag(mat))
    off = mat - np.diag(np.diag(mat))
    if np.abs(off).max() > 1e-15 * max(1.0, np.abs(mat).max()):
        raise ValueError("bilinear_cert certifies diagonal matrices only")
    sup = coordinate_ball_sup(spec)
    if square is None:
        square = max_square_sum(spec)[0]
    return min(float(f.max(initial=0.0)) * square, float(f @ (sup * sup)))


# ---------------------------------------------------------------------------
# Lower bound: certified dual witnesses
# ---------------------------------------------------------------------------

def dual_pairing_lower(spec, square):
    """Best certified witness value among the single-entry forms spike[m]
    and the identity.  These attain AM for every named lattice (module
    docstring), and no validly certified form scores above AM, so no other
    family (permutations, sign diagonals, gradient ascent) is scored.

    The spike e_mm scores 1 / min(S, sup_ball |x_m|^2), the reciprocal of
    its :func:`bilinear_cert`, so all n are scored as one vector and only
    the winner's matrix is built.  Ties go to the lower index, and the
    identity wins only when it scores strictly higher.
    """
    n = spec.index_size
    sup = coordinate_ball_sup(spec)
    values = 1.0 / np.minimum(square, sup * sup)
    m = int(np.argmax(values))
    cert = bilinear_cert(spec, np.eye(n), square)
    if n / cert > values[m]:
        return (n / cert, np.eye(n) / cert, "identity-diagonal")
    spike = np.zeros((n, n))
    spike[m, m] = values[m]
    return (float(values[m]), spike, f"spike[{m}]")


# ---------------------------------------------------------------------------
# Upper bound: explicit decompositions
# ---------------------------------------------------------------------------

def _candidate_costs(spec, candidates):
    """sum_k ||x_k|| ||y_k|| for every pair list in ``candidates``, from one
    ``norm_eval_batch`` call over all their x's and y's stacked, each sum
    taken in pair order.  A row's norm does not depend on the other rows of
    its batch, so each cost is the float that norming its vectors one at a
    time gives."""
    rows = [v for pairs in candidates for pair in pairs for v in pair]
    norms = norm_eval_batch(spec, np.array(rows)).reshape(-1, 2)
    products = iter((norms[:, 0] * norms[:, 1]).tolist())
    return [float(sum(next(products) for _ in pairs)) for pairs in candidates]


def _decomposition_cost(spec, pairs):
    """sum_k ||x_k|| ||y_k||, from one batched norm call over all the
    vectors, summed in pair order."""
    return _candidate_costs(spec, [pairs])[0]


def decomposition_residual(n, pairs):
    xs, ys = zip(*pairs)
    return float(np.abs(np.array(xs).T @ np.array(ys) - np.eye(n)).max())


def separated_decomposition(n):
    eye = np.eye(n)
    return [(eye[i].astype(complex), eye[i].astype(complex)) for i in range(n)]


def dft_decomposition(n):
    """d = (1/n) sum_k w_k (x) conj(w_k) with character columns w_k."""
    k = np.arange(n)
    w = np.exp(2j * np.pi * np.outer(k, k) / n)
    return [(w[:, j] / n, np.conj(w[:, j])) for j in range(n)]


def orbit_decomposition(x):
    """The n^2 pairs (D_k sigma_s x / (n S), conj(D_k) sigma_s x) over the
    cyclic shifts sigma_s and the Fourier phases D_k = diag(w^(k i)), with
    S = sum_i x_i^2: they recombine to the diagonal and cost
    n ||x||^2 / S for a symmetric norm."""
    n = len(x)
    k = np.arange(n)
    phases = np.exp(2j * np.pi * np.outer(k, k) / n)
    shifts = np.asarray(x)[(k[None, :] - k[:, None]) % n]   # row s is np.roll(x, s)
    vecs = (phases[:, None, :] * shifts[None, :, :]).reshape(n * n, n)
    scale = n * float(np.sum(np.square(x)))
    return [(v / scale, np.conj(v)) for v in vecs]


def upper_candidates(spec, extremal):
    """The (pairs, method) decompositions scored for the upper side."""
    n = spec.index_size
    candidates = [(separated_decomposition(n), "separated"), (dft_decomposition(n), "fourier")]
    # the orbit keeps its norms only under a symmetric norm, and for a
    # spike or a constant x* it costs what the two above cost
    if spec.kind != "weighted_sup" and np.count_nonzero(extremal) > 1 and np.ptp(extremal) > 0:
        candidates.append((orbit_decomposition(extremal), "orbit"))
    return candidates


def primal_decomposition_upper(spec, extremal):
    """(cost, pairs, method) of the cheapest candidate, the first on ties;
    all candidates are costed in one lattice call."""
    candidates = upper_candidates(spec, extremal)
    costs = _candidate_costs(spec, [pairs for pairs, _ in candidates])
    scored = [(cost, pairs, method) for cost, (pairs, method) in zip(costs, candidates)]
    return min(scored, key=lambda c: c[0])


# ---------------------------------------------------------------------------
# Bracket assembly
# ---------------------------------------------------------------------------

def am_pointwise(n, spec, budget=None, rng=None):
    """AM bracket of the pointwise algebra C^n under the given norm: the
    diagonal is the unique candidate, so AM equals its projective norm.
    Every candidate is deterministic.  ``budget`` and ``rng`` are accepted
    and ignored, for the calls in ``perfbench/workloads.py`` only.

    A bracket end that overflows a float raises ValueError.  Both witnesses
    are then re-verified independently: the stored dual matrix is
    re-certified to bilinear bound <= 1 + 1e-9, and the stored decomposition
    is re-multiplied to the exact diagonal with its cost recomputed.  The
    candidates are costed in one ``norm_eval_batch`` call and the re-cost
    makes one more, so a bracket makes two lattice calls in all.
    """
    if not isinstance(spec, LatticeNormSpec) or spec.index_size != n:
        raise ValueError("norm spec must live on exactly n indices")
    square, extremal = max_square_sum(spec)   # one table enumeration per bracket
    lower, wl_mat, wl_method = dual_pairing_lower(spec, square)
    upper, wu_pairs, wu_method = primal_decomposition_upper(spec, extremal)
    # AM can leave the float range (C_E^2 = max w_i^2 for a weight above
    # 1.34e154); refused here, a failed re-certification still means a fault
    for end in (lower, upper):
        if not math.isfinite(end):
            raise ValueError(f"the AM bracket of this input overflows a float ({end})")

    recert = bilinear_cert(spec, wl_mat, square)
    if recert > 1.0 + WITNESS_TOL:
        raise AssertionError(f"dual witness failed re-certification: {recert}")
    residual = decomposition_residual(n, wu_pairs)
    if residual > WITNESS_TOL:
        raise AssertionError(f"decomposition does not recombine to the diagonal: {residual}")
    upper = _decomposition_cost(spec, wu_pairs)

    if upper < lower - 1e-9 * max(1.0, upper):
        raise AssertionError(f"bracket inversion: lower {lower} > upper {upper}")
    lower = min(lower, upper)
    loose = (upper - lower) > DEFAULT_TOL * max(upper, 1.0)
    return NormBracket(
        lower, upper,
        (wl_mat, recert, wl_method),
        (wu_pairs, upper, wu_method),
        loose,
    )


def verify_main_theorem(n, spec):
    """Check 1 <= AM <= C_E^2 through the bracket, with C_E at horizon n."""
    bracket = am_pointwise(n, spec)
    ce = ce_constant(spec).value
    lower_ok = bracket.lower >= 1.0 - DEFAULT_TOL
    upper_ok = bracket.upper <= ce * ce + DEFAULT_TOL
    return {
        "n": n,
        "am_lower": bracket.lower,
        "am_upper": bracket.upper,
        "ce": ce,
        "ce_squared": ce * ce,
        "lower_ok": lower_ok,
        "upper_ok": upper_ok,
        "ratio_upper": bracket.upper / (ce * ce),
        "ok": lower_ok and upper_ok,
    }


def verify_quotient_bound(spec, keep_indices):
    """Coordinate selection is a norm-one surjective homomorphism onto the
    restricted pointwise algebra, so the target AM upper bound must not
    exceed the source one."""
    keep = list(keep_indices)
    source = am_pointwise(spec.index_size, spec)
    target_spec = restrict_spec(spec, keep)
    target = am_pointwise(len(keep), target_spec)
    q_norm = 1.0  # attained on coordinate vectors; <= 1 by solidity
    ok = target.upper <= q_norm ** 2 * source.upper + QUOTIENT_TOL
    return {
        "kept": keep,
        "q_norm": q_norm,
        "source_upper": source.upper,
        "target_upper": target.upper,
        "ok": ok,
    }
