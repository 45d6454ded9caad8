"""Projective tensor norm of the canonical diagonal of a pointwise algebra.

For C^n with coordinatewise product and a lattice norm N, the only candidate
diagonal is d = sum_i e_i (x) e_i: commutation with all of C^n kills the
off-diagonal tensor coefficients and the unit condition pins the diagonal
ones to 1.  Its projective norm is bracketed from two sides:

  lower:  a bilinear form B with |B| <= 1 on the product of N-balls pairs
          with d to give sum_i B(e_i, e_i).  Candidate forms are diagonal
          matrices M (B(x, z) = z^T M x) whose bilinear norm is bounded by
          certified rules; the reported value is Re tr(M) after scaling M
          by its certified bound.  The witness: the best single-entry
          spike under a weighted sup (sup included), else the identity.

  upper:  any finite decomposition sum_k x_k (x) y_k with
          sum_k x_k y_k^T = I is a valid bound sum_k ||x_k|| ||y_k||.
          The witness: the orbit of an extremal vector x* (below), built
          as the separated decomposition (e_i, e_i) when x* is a spike and
          as the Fourier one (1/n) sum_k w_k (x) conj(w_k) when x* is
          constant or the norm a weighted sup.

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
and cost n ||x*||^2 / S = n / S.  For a spike x* these pairs are phased
copies of the separated pairs, and for a constant x* scaled copies of the
Fourier pairs, at the same cost; a weighted sup is not symmetric, but its
Fourier cost max_i w_i^2 meets the spike.  Convexity of the ball, that is
of phi for an Orlicz norm, is required; ``LatticeNormSpec`` refuses a table
whose slopes decrease.

Each side builds the one witness named above, so ``NormBracket.loose`` (a
gap above ``DEFAULT_TOL`` relative) can only come from a fault.  The lower
witness is a closed form; the upper one is a complex (m, 2, n) stack, row k
the pair (x_k, y_k), refused above ``MAX_WITNESS_ENTRIES`` before it is
allocated.  Its cost, the upper end, is one ``norm_eval_batch`` call on its
(2m, n) view.  Both witnesses are re-checked, and a nan or inf fails the
checks.  The amenability constant of these pointwise algebras equals the
diagonal's projective norm, so the returned bracket is an AM bracket.
"""

from __future__ import annotations

import math

import numpy as np

from .lattice import (LatticeNormSpec, ce_constant, coordinate_ball_sup, max_square_sum,
                      norm_eval_batch, restrict_spec)

DEFAULT_TOL = 1e-6
WITNESS_TOL = 1e-9
QUOTIENT_TOL = 1e-9   # slack of verify_quotient_bound's comparison of upper ends
# entries of an upper witness: the orbit at n = 170 (9.8e6) peaks at 940 MB
# RSS on shifted_ramp(0.5) (2-CPU x86-64, numpy 2.4.6); n = 171 is refused
MAX_WITNESS_ENTRIES = 10 ** 7


class BracketBudget:
    """Kept for ``perfbench/workloads.py``, which reads its ``tol``; ``scale`` is ignored."""

    def __init__(self, scale=None):
        self.tol = DEFAULT_TOL


class NormBracket:
    def __init__(self, lower, upper, witness_lower, witness_upper, loose):
        self.lower = float(lower)
        self.upper = float(upper)
        self.witness_lower = witness_lower   # (matrix, certified bilinear bound, method)
        self.witness_upper = witness_upper   # ((m, 2, n) stack of (x, y) pairs, cost, method)
        self.loose = bool(loose)

    def as_dict(self):
        mat, cert, method = self.witness_lower
        pairs, cost, umethod = self.witness_upper
        return {"lower": self.lower, "upper": self.upper, "loose": self.loose,
                "witness_lower": {"matrix": _cplx_list(mat), "certified_bilinear_bound": cert,
                                  "method": method},
                "witness_upper": {"pairs": _cplx_list(pairs), "cost": cost, "method": umethod}}

    def __repr__(self):
        flag = ", loose" if self.loose else ""
        return f"NormBracket([{self.lower:.9g}, {self.upper:.9g}]{flag})"


def _cplx_list(a):
    """A nested list of ``a``, each complex entry as [re, im]."""
    return (np.stack([a.real, a.imag], axis=-1) if np.iscomplexobj(a) else a).tolist()


# ---------------------------------------------------------------------------
# Certified bilinear bounds
# ---------------------------------------------------------------------------

def bilinear_cert(spec, mat, square=None):
    """A certified upper bound on sup{|z^T M x| : ||x||, ||z|| <= 1} for a
    diagonal M = diag(f): the smaller of max|f| S, by Cauchy-Schwarz with
    S = ``square`` from :func:`max_square_sum`, and sum_i |f_i| sup_ball |x_i|^2.
    The first is exact for the identity, the second for a spike, in every
    named family.  An off-diagonal M, or one with an entry that is not
    finite, raises ValueError."""
    a = np.abs(np.asarray(mat))
    top, n = float(a.max(initial=0.0)), len(a)
    if not math.isfinite(top):
        raise ValueError("bilinear_cert certifies finite matrices only")
    if a.ravel()[:-1].reshape(n - 1, n + 1)[:, 1:].max(initial=0.0) > 1e-15 * max(1.0, top):
        raise ValueError("bilinear_cert certifies diagonal matrices only")   # off-diagonal entry
    f = a.diagonal().copy()
    sup = coordinate_ball_sup(spec)
    square = max_square_sum(spec)[0] if square is None else square
    return min(float(f.max(initial=0.0)) * square, float(f @ (sup * sup)))


# ---------------------------------------------------------------------------
# Lower bound: certified dual witnesses
# ---------------------------------------------------------------------------

def dual_pairing_lower(spec, square):
    """(value, matrix, method) of the certified form that attains AM (module
    docstring): the best spike under a weighted sup (sup included), else the
    identity.  No validly certified form scores above AM.

    The identity's :func:`bilinear_cert`, min(S, sum_i sup_ball |x_i|^2),
    is written out.  The spike e_mm scores 1 / min(S, sup_ball |x_m|^2),
    the reciprocal of its certificate, so all n are scored as one vector
    and only the best one's matrix is built, ties going to the lower index.
    """
    n = spec.index_size
    sup = coordinate_ball_sup(spec)
    if spec.weights is None:
        cert = min(square, float(np.ones(n) @ (sup * sup)))   # bilinear_cert of the identity
        return (n / cert, np.eye(n) / cert, "identity-diagonal")
    values = 1.0 / np.minimum(square, sup * sup)
    m = int(np.argmax(values))
    spike = np.zeros((n, n))
    spike[m, m] = values[m]
    return (float(values[m]), spike, f"spike[{m}]")


# ---------------------------------------------------------------------------
# Upper bound: explicit decompositions
# ---------------------------------------------------------------------------

def _witness_stack(m, n):
    """An empty complex (m, 2, n) stack, refused above ``MAX_WITNESS_ENTRIES``."""
    if 2 * m * n > MAX_WITNESS_ENTRIES:
        raise ValueError(f"the AM witness at n = {n} needs {2 * m * n} complex entries, "
                         f"more than MAX_WITNESS_ENTRIES = {MAX_WITNESS_ENTRIES}")
    return np.empty((m, 2, n), dtype=complex)


def decomposition_cost(spec, pairs):
    """sum_k ||x_k|| ||y_k|| of an (m, 2, n) stack or a sequence of (x, y)
    pairs, from one ``norm_eval_batch`` call on its (2m, n) reshape, summed
    in pair order.  A row's norm does not depend on the other rows of its
    batch, so the cost is the float that norming each vector alone gives."""
    pairs = np.asarray(pairs)
    norms = norm_eval_batch(spec, pairs.reshape(-1, pairs.shape[-1]))
    return float(sum((norms[0::2] * norms[1::2]).tolist()))


def decomposition_residual(n, pairs):
    """max |sum_k x_k y_k^T - I| of an (m, 2, n) stack or a sequence of
    (x, y) pairs, from contiguous copies of its x and y planes."""
    pairs = np.asarray(pairs)
    xs, ys = np.ascontiguousarray(pairs[:, 0]), np.ascontiguousarray(pairs[:, 1])
    return float(np.abs(xs.T @ ys - np.eye(n)).max())


def separated_decomposition(n):
    """The n pairs (e_i, e_i), as an (n, 2, n) stack."""
    pairs = _witness_stack(n, n)
    pairs[:, 0] = pairs[:, 1] = np.eye(n)
    return pairs


def dft_decomposition(n):
    """d = (1/n) sum_k w_k (x) conj(w_k) with character columns w_k, row k (w_k / n, conj(w_k))."""
    pairs = _witness_stack(n, n)
    k = np.arange(n)
    w = np.exp(2j * np.pi * np.outer(k, k) / n).T   # row k is the column w_k
    np.divide(w, n, out=pairs[:, 0])
    np.conj(w, out=pairs[:, 1])
    return pairs


def orbit_decomposition(x):
    """The n^2 pairs (D_k sigma_s x / (n S), conj(D_k) sigma_s x) over the
    cyclic shifts sigma_s and the Fourier phases D_k = diag(w^(k i)), with
    S = sum_i x_i^2, the pair of D_k and sigma_s in row k n + s: they
    recombine to the diagonal and cost n ||x||^2 / S for a symmetric norm."""
    n = len(x)
    pairs = _witness_stack(n * n, n)
    k = np.arange(n)
    phases = np.exp(2j * np.pi * np.outer(k, k) / n)
    shifts = np.asarray(x)[(k[None, :] - k[:, None]) % n]   # row s is np.roll(x, s)
    vecs = (phases[:, None, :] * shifts[None, :, :]).reshape(n * n, n)
    np.divide(vecs, n * float(np.sum(np.square(x))), out=pairs[:, 0])
    np.conj(vecs, out=pairs[:, 1])
    return pairs


def primal_decomposition_upper(spec, extremal):
    """(cost, pairs, method) of the decomposition that attains AM for the
    extremal vector x* (module docstring): separated when x* has at most one
    nonzero entry, Fourier for a weighted sup or a constant x*, otherwise
    the orbit of x*."""
    n = spec.index_size
    if np.count_nonzero(extremal) <= 1:
        pairs, method = separated_decomposition(n), "separated"
    elif spec.weights is not None or extremal.min() == extremal.max():
        pairs, method = dft_decomposition(n), "fourier"
    else:
        pairs, method = orbit_decomposition(extremal), "orbit"
    return decomposition_cost(spec, pairs), pairs, method


# ---------------------------------------------------------------------------
# Bracket assembly
# ---------------------------------------------------------------------------

def am_pointwise(n, spec, budget=None, rng=None):
    """AM bracket of the pointwise algebra C^n under the given norm: the
    diagonal is the unique candidate, so AM equals its projective norm.
    Both witnesses are deterministic.  ``budget`` and ``rng`` are accepted
    and ignored, for the calls in ``perfbench/workloads.py`` only.

    A witness above ``MAX_WITNESS_ENTRIES`` or an end that overflows a
    float raises ValueError.  Both witnesses are then re-verified, a nan
    failing: the dual matrix is re-certified to bilinear bound <= 1 + 1e-9,
    and the decomposition re-multiplied to the exact diagonal.  Its cost,
    the upper end, is the one ``norm_eval_batch`` call a bracket makes.
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
    if not recert <= 1.0 + WITNESS_TOL:   # a nan fails too
        raise AssertionError(f"dual witness failed re-certification: {recert}")
    residual = decomposition_residual(n, wu_pairs)
    if not residual <= WITNESS_TOL:
        raise AssertionError(f"decomposition does not recombine to the diagonal: {residual}")

    if upper < lower - 1e-9 * max(1.0, upper):
        raise AssertionError(f"bracket inversion: lower {lower} > upper {upper}")
    lower = min(lower, upper)
    loose = (upper - lower) > DEFAULT_TOL * max(upper, 1.0)
    return NormBracket(lower, upper, (wl_mat, recert, wl_method), (wu_pairs, upper, wu_method), loose)


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
