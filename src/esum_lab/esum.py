"""Direct sums of finite-dimensional normed algebras over a lattice norm.

A :class:`FiniteAlgebra` is a basis-free description by structure constants
``c[i][j][k]`` (``b_i b_j = sum_k c[i][j][k] b_k``) together with a norm on
coefficient vectors.  Construction finds its ``blocks``, the connected
components of the cube's nonzero pattern, slices each block's own cube
once (``cubes``) and stacks the blocks of each distinct cube (``stacks``).
As c[i,j,k] != 0 only when i, j and k share a block, products are taken
stack by stack, and associativity, commutativity and the unit are decided
by one function of a block cube (:func:`_block_facts`) called once per
stack, since equal cubes have equal facts:

  - both sides of (b_i b_j) b_k = b_i (b_j b_k) are 0 unless i, j and k
    share a block, where both are sums within it;
  - c[i,j,k] = c[j,i,k] reads 0 = 0 unless i, j and k share a block;
  - the unit equations (j, k), sum_i c[i,j,k] u_i = delta_jk and
    sum_i c[j,i,k] u_i = delta_jk, read 0 = 0 when j and k lie in
    different blocks, and otherwise involve only the coordinates u_P of
    the block P of j and k.  So the least-squares system decouples: its
    solution is the blocks' own solutions side by side, and the algebra
    has a unit exactly when every block has one.

Construction also finds ``submult_bound``, a bound
beta >= sup ||uv|| / (||u|| ||v||) from the cube and the norm's exact type
(None for any other norm, a subclass of these two included):

  - max-abs: |(uv)_k| = |sum_ij u_i v_j c[i,j,k]| <= sum_ij |c[i,j,k]| ||u|| ||v||,
    so beta = max_k sum_ij |c[i,j,k]|.  Each k lies in one block, so the
    sums run over the block cubes, in rationals over the float moduli; the
    modulus of an entry that is not real is taken one float step up, and
    the largest sum is rounded up to a float.  C and C^n get 1 and the
    square-zero algebra 0, exactly;
  - the operator norm on an m x m matrix algebra: when the cube equals the
    matrix-unit cube entry for entry, uv is the matrix product and
    ||AB|| <= ||A|| ||B||, so beta = 1.

An algebra with beta <= 1 is submultiplicative and draws nothing.  Any
other is sampled as a refuter: over Gaussian pairs u, v the worst ratio
||uv|| / (||u|| ||v||) may not exceed 1 + SUBMULT_TOL, and a failure
aborts construction.

An :class:`ESumAlgebra` glues finitely many summands along a
:class:`~esum_lab.lattice.LatticeNormSpec`: an element is the summands'
coefficient vectors end to end, normed by the lattice norm of the summand
norms and multiplied on the summands' blocks.  Coordinate projections are
contractive; the embedding of summand i has norm exactly ||delta_i||.

The sum is a Banach algebra coordinatewise.  E is solid and dominates the
sup norm (``LatticeNormSpec``'s gate enforces both), so ||b|| >= max_i ||b_i||,
and with summand bounds beta_i
||ab|| = E(||a_i b_i||) <= E(beta_i ||a_i|| ||b_i||) <= max_i beta_i E(||a_i||) max_i ||b_i||
<= max_i beta_i ||a|| ||b||.  So a sum whose summands all have beta_i <= 1 is
certified with max_i beta_i and no draws
(:meth:`ESumAlgebra.certify_submultiplicative`).  Otherwise the sum is
sampled once, summand by summand under the lattice norm, and not again as the
block algebra it is, because a Gaussian pair on the whole space is a Gaussian
pair on each block.  One sampler serves both, ``ROW_BLOCK`` pairs at a time.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import accumulate

import numpy as np

from .lattice import (LatticeNormSpec, chi_norm, delta_norm, dual_extremal, dual_norm_batch,
                      dual_vs_l2, integer_from_json, norm_eval_batch, required_key)

SUBMULT_SAMPLES = 10_000
SUBMULT_TOL = 1e-9
ROW_BLOCK = 2048   # sampled pairs per batch; multiply's partial products stay within ROW_BLOCK * dim


class AlgebraError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Coordinate norms on coefficient vectors
# ---------------------------------------------------------------------------

class CoordinateNorm:
    """Norm on coefficient vectors; ``eval`` is batched over leading axes.

    ``dual`` evaluates the dual norm under the bilinear pairing
    phi(a) = sum_k phi_k a_k; ``dual_norming`` gives it and X, ||X|| <= 1,
    with sum_k phi_k X_k = ||phi||_dual per row phi of a (..., dim) stack (a
    zero row gets some X of norm <= 1) in one pass, and ``norming`` that X.
    ``dual_vs_l2`` returns (r, s) with ||phi||_dual <= r ||phi||_2 and
    ||phi||_2 <= s ||phi||_dual, for the certified constants of WAM bounds.
    """

    def eval(self, v):
        raise NotImplementedError

    def dual(self, v):
        raise NotImplementedError

    def dual_norming(self, phi):
        raise NotImplementedError

    def norming(self, phi):
        return self.dual_norming(phi)[1]

    def dual_vs_l2(self, dim):
        raise NotImplementedError

    def group_key(self, dim):
        """Equal for norms of one class and equal parameters on dimension dim, else the object's own."""
        try:
            key = (type(self), dim, *vars(self).items())
            hash(key)
        except TypeError:
            return id(self), dim
        return key


class MaxAbsCoordinate(CoordinateNorm):
    def eval(self, v):
        return np.abs(np.asarray(v)).max(axis=-1)

    def dual(self, v):
        return np.abs(np.asarray(v)).sum(axis=-1)

    def dual_norming(self, phi):
        return self.dual(phi), np.exp(-1j * np.angle(np.where(phi == 0, 1, phi)))   # 1 on a zero of either sign

    def dual_vs_l2(self, dim):
        return (np.sqrt(dim), 1.0)


class EuclideanCoordinate(CoordinateNorm):
    """The self-dual l2 norm.  Each row is divided by its largest modulus,
    rounded down to a power of two so that the division is exact, before it
    is squared, so nothing overflows or underflows."""

    def _scale(self, v):
        # each row's largest modulus rounded down to a power of two, 1/2 for a zero row
        return np.ldexp(1.0, np.frexp(np.abs(v).max(axis=-1, keepdims=True, initial=0.0))[1] - 1)

    def eval(self, v):
        scale = self._scale(v)
        return scale[..., 0] * np.linalg.norm(v / scale, axis=-1)

    dual = eval

    def dual_norming(self, phi):
        scale = self._scale(phi)
        w = phi / scale   # a nonzero row of w has norm at least 1
        size = np.linalg.norm(w, axis=-1, keepdims=True)
        return scale[..., 0] * size[..., 0], np.conj(w) / np.maximum(size, 1.0)

    def dual_vs_l2(self, dim):
        return (1.0, 1.0)


class MatrixOperatorNorm(CoordinateNorm):
    """Spectral norm on an m x m matrix algebra in the matrix-unit basis
    (row-major coefficients); the dual is the trace norm, which phi = U S V^H
    attains on conj(U V^H).

    The 2 x 2 case uses closed forms, with s1 >= s2 the singular values:
    s1 from the eigenvalues of M^H M, s1 + s2 from ||M||_F^2 + 2 |det M|,
    and the polar factor U V^H = (M + ph adj(M)^H) / (s1 + s2), where ph =
    det M / |det M| (1 when det M = 0), since ph adj(M)^H = U diag(s2, s1) V^H.
    A zero matrix gets the norming element 0.  Each closed form runs on the
    rows as one (n, 4) stack, even for one matrix: numpy rounds a 0-d
    complex product differently from the same product inside an array, so
    a matrix alone would otherwise get other bits than in a stack."""

    def __init__(self, side):
        self.side = int(side)

    def _mats(self, v):
        v = np.asarray(v)
        return v.reshape(v.shape[:-1] + (self.side, self.side))

    def _scaled_entries(self, v):
        """For 2 x 2 matrices [[a, b], [c, d]], the rows of v as an (n, 4)
        stack: the largest entry modulus s (1 for zero), and the entries over
        s and their squared moduli over s^2, so nothing overflows or
        underflows; by columns, as numpy reduces short axes slowly."""
        v = np.asarray(v).reshape(-1, 4)
        entries = [v[:, k] for k in range(4)]
        mods = [np.abs(z) for z in entries]
        scale = np.maximum(np.maximum(mods[0], mods[1]), np.maximum(mods[2], mods[3]))
        scale = np.where(scale > 0, scale, 1.0)
        return scale, [z / scale for z in entries], [(m / scale) ** 2 for m in mods]

    @staticmethod
    def _unstack(v, out):
        """A closed form's (n, ...) result on the leading axes of v."""
        return out.reshape(np.shape(v)[:-1] + out.shape[1:])[()]

    def eval(self, v):
        if self.side != 2:
            return np.linalg.svd(self._mats(v), compute_uv=False).max(axis=-1)
        # s1^2 = (tr + g) / 2 for M^H M = [[p, r], [conj(r), q]], whose
        # eigenvalue gap g = sqrt((p - q)^2 + 4 |r|^2) cannot cancel
        scale, (a, b, c, d), (pa, pb, pc, pd) = self._scaled_entries(v)
        r = np.abs(np.conj(a) * b + np.conj(c) * d)
        gap = np.sqrt((pa + pc - pb - pd) ** 2 + 4.0 * r * r)
        return self._unstack(v, scale * np.sqrt(0.5 * (pa + pb + pc + pd + gap)))

    def dual(self, v):
        if self.side != 2:
            return np.linalg.svd(self._mats(v), compute_uv=False).sum(axis=-1)
        # (s1 + s2)^2 = ||M||_F^2 + 2 |det M|
        scale, (a, b, c, d), (pa, pb, pc, pd) = self._scaled_entries(v)
        return self._unstack(v, scale * np.sqrt(pa + pb + pc + pd + 2.0 * np.abs(a * d - b * c)))

    def dual_norming(self, phi):
        if self.side != 2:   # LAPACK's singular values differ by a bit with and without U and V
            u, _, vh = np.linalg.svd(self._mats(phi))
            return self.dual(phi), np.conj(u @ vh).reshape(np.shape(phi))
        # the dual scale * total, and the conjugate polar factor of the scaled matrix
        scale, (a, b, c, d), (pa, pb, pc, pd) = self._scaled_entries(phi)
        det = a * d - b * c
        mod = np.abs(det)
        cph = np.where(mod > 0, np.conj(det) / np.where(mod > 0, mod, 1.0), 1.0)
        total = np.sqrt(pa + pb + pc + pd + 2.0 * mod)
        x = np.stack([np.conj(a) + cph * d, np.conj(b) - cph * c, np.conj(c) - cph * b,
                      np.conj(d) + cph * a], axis=-1) / np.where(total > 0, total, 1.0)[:, None]
        return self._unstack(phi, scale * total), self._unstack(phi, x)

    def dual_vs_l2(self, dim):
        return (np.sqrt(self.side), 1.0)


class LatticeBlockNorm(CoordinateNorm):
    """E-sum norm on concatenated summand coefficients: the lattice norm of
    the per-block norms.  The dual applies the dual lattice norm
    (:func:`~esum_lab.lattice.dual_norm_batch`) to the dual block norms;
    :func:`~esum_lab.lattice.dual_extremal` of the same duals weights the
    blocks' norming elements.  Each group of equal summand norms takes one
    call (one ``dual_norming`` for both), on its summands' slices as (..., n, m)."""

    def __init__(self, lattice, block_norms, block_dims):
        self.lattice = lattice
        self.block_norms = list(block_norms)
        self.block_dims = list(block_dims)
        ends = [0, *accumulate(self.block_dims)]
        self.slices = [slice(a, b) for a, b in zip(ends, ends[1:])]
        self.dim = ends[-1]

    def _groups(self):
        """The summands in groups whose norms are of one class with equal
        parameters (one object or several) and of one dimension m, as (norm,
        n, m, the summands, their coordinates), slices for a run of summands."""
        groups = {}
        for i, (nrm, d) in enumerate(zip(self.block_norms, self.block_dims)):
            groups.setdefault(nrm.group_key(d), (nrm, d, []))[2].append(i)
        for nrm, m, w in groups.values():
            run = w[-1] - w[0] == len(w) - 1
            yield nrm, len(w), m, slice(w[0], w[-1] + 1) if run else w, \
                slice(self.slices[w[0]].start, self.slices[w[-1]].stop) if run else \
                np.concatenate([np.arange(self.slices[i].start, self.slices[i].stop) for i in w])

    def _block_values(self, v, dual=False):
        v = np.asarray(v)
        vals = np.empty(v.shape[:-1] + (len(self.slices),))
        for nrm, n, m, which, coords in self._groups():
            vals[..., which] = (nrm.dual if dual else nrm.eval)(v[..., coords].reshape(v.shape[:-1] + (n, m)))
        return vals

    def eval(self, v):
        vals = self._block_values(v)
        return norm_eval_batch(self.lattice, vals.reshape(-1, vals.shape[-1])).reshape(vals.shape[:-1])

    def dual(self, v):
        vals = self._block_values(v, dual=True)
        return dual_norm_batch(self.lattice, vals.reshape(-1, vals.shape[-1])).reshape(vals.shape[:-1])

    def dual_norming(self, phi):
        lead = np.shape(phi)[:-1]
        vals, out, parts = np.empty(lead + (len(self.slices),)), np.empty(np.shape(phi), complex), []
        for nrm, n, m, which, coords in self._groups():
            vals[..., which], x = nrm.dual_norming(phi[..., coords].reshape(lead + (n, m)))
            parts.append((which, coords, x))
        weights = dual_extremal(self.lattice, vals)
        for which, coords, x in parts:
            out[..., coords] = (weights[..., which, None] * x).reshape(lead + (x.shape[-2] * x.shape[-1],))
        return dual_norm_batch(self.lattice, vals.reshape(-1, vals.shape[-1])).reshape(lead), out

    def dual_vs_l2(self, dim):
        rs = [nrm.dual_vs_l2(d) for nrm, d in zip(self.block_norms, self.block_dims)]
        R, S = dual_vs_l2(self.lattice)
        return (max(r for r, _ in rs) * R, max(s for _, s in rs) * S)


def coordinate_norm_from_json(d):
    if d == "max_abs":
        return MaxAbsCoordinate()
    if d == "euclidean":
        return EuclideanCoordinate()
    if isinstance(d, dict) and d.get("kind") == "matrix_operator":
        side = required_key(d, "side", "matrix_operator norm", AlgebraError)
        return MatrixOperatorNorm(integer_from_json(side, "matrix_operator norm key 'side'",
                                                    AlgebraError))
    raise AlgebraError(f"unknown coordinate norm {d!r}")


# ---------------------------------------------------------------------------
# Finite-dimensional algebras
# ---------------------------------------------------------------------------

def _as_complex_cube(structure):
    c = np.asarray(structure)
    if c.ndim == 4 and c.shape[-1] == 2:   # [re, im] pairs
        c = c[..., 0] + 1j * c[..., 1]
    c = c.astype(complex)
    if c.ndim != 3 or len({c.shape[0], c.shape[1], c.shape[2]}) != 1:
        raise AlgebraError(f"structure constants must form a cube, got shape {c.shape}")
    return c


def _structure_blocks(c):
    """Index arrays of the connected components of the nonzero pattern of
    the cube c (i, j and m are linked when c[i,j,m] != 0), ordered by their
    smallest index.  A block need not be a run of consecutive indices."""
    nz = c != 0
    linked = nz.any(axis=2) | nz.any(axis=1) | nz.any(axis=0)
    reach = linked | linked.T | np.eye(len(c), dtype=bool)
    for _ in range(len(c).bit_length()):   # each squaring doubles the paths' reach
        reach = reach.astype(float) @ reach > 0
    first = reach.argmax(axis=1)   # the smallest index of each component
    return [np.flatnonzero(first == k) for k in np.unique(first)]


def _matrix_unit_cube(m):
    """Structure constants of M_m in the row-major matrix-unit basis:
    e_ij e_jl = e_il, and every other product of matrix units is 0."""
    i, j, l = np.indices((m, m, m)).reshape(3, -1)
    c = np.zeros((m * m,) * 3)
    c[i * m + j, j * m + l, i * m + l] = 1.0
    return c


def _max_abs_bound(cubes):
    """max_k sum_ij |c[i,j,k]| over the block cubes, as an upper bound in
    exact arithmetic: the moduli of entries that are not real go one float
    step up, the sums are rational, and the largest is rounded up to a
    float (inf past the float range)."""
    worst = Fraction(0)
    for c in cubes:
        mod = np.abs(c)
        mod = np.where(c.imag == 0, mod, np.nextafter(mod, np.inf))
        if not np.isfinite(mod).all():
            return np.inf
        for col in mod.reshape(-1, len(c)).T:   # col[(i, j)] = |c[i, j, k]|
            worst = max(worst, sum(map(Fraction, col[col > 0].tolist()), Fraction(0)))
    try:
        x = float(worst)
    except OverflowError:
        return np.inf
    return x if Fraction(x) >= worst else float(np.nextafter(x, np.inf))


def _submult_bound(algebra):
    """beta >= sup ||uv|| / (||u|| ||v||) for the norm's exact type, or None
    (the module docstring has the argument)."""
    norm = algebra.norm
    if type(norm) is MaxAbsCoordinate:
        return _max_abs_bound(algebra.cubes)
    if type(norm) is MatrixOperatorNorm and norm.side ** 2 == algebra.dim and np.array_equal(
            algebra.structure, _matrix_unit_cube(norm.side)):
        return 1.0
    return None


def _block_facts(c, label):
    """(commutative, unit or None) of one block cube c; AlgebraError when c
    is not associative.  Both identities are invariant under scaling, so
    they are compared on c over its largest entry modulus, where an absolute
    tolerance is one relative to the size of c that cannot overflow.  The
    unit solves u b_j = b_j and b_j u = b_j for every j as one least-squares
    system, snapped to whole numbers when that leaves a residual under 1e-12."""
    top = np.abs(c).max()
    n = c / top if top > 0 else c
    defect = np.einsum("ijm,mkl->ijkl", n, n) - np.einsum("jkm,iml->ijkl", n, n)
    if not np.abs(defect).max() <= 1e-12:   # not (x <= tol) also refuses a nan
        raise AlgebraError(f"{label}: structure constants are not associative")
    commutative = bool(np.abs(n - n.transpose(1, 0, 2)).max() <= 1e-12)
    d = len(c)
    eye = np.eye(d).reshape(-1)
    big = np.vstack([c.transpose(1, 2, 0).reshape(d * d, d),    # rows (j,k): c[i,j,k] u_i
                     c.transpose(0, 2, 1).reshape(d * d, d)])   # rows (j,k): c[j,i,k] u_i
    rhs = np.concatenate([eye, eye])
    u, *_ = np.linalg.lstsq(big, rhs, rcond=None)
    snapped = np.round(u.real) + 1j * np.round(u.imag)
    if np.linalg.norm(big @ snapped - rhs) < 1e-12:
        return commutative, snapped
    return commutative, (u if np.linalg.norm(big @ u - rhs) < 1e-10 else None)


def _certify(label, algebras, samples, seed, lattice=None):
    """The certificate that ||uv|| <= ||u|| ||v|| on ``algebras``, one algebra
    or the summands of a sum under ``lattice``: their largest
    ``submult_bound`` when every one is at most 1, and nothing drawn
    (the module docstring has the lattice argument); otherwise the worst
    ratio over ``samples`` pairs drawn per algebra, AlgebraError on a
    violation.  A negative ``samples`` raises ValueError either way."""
    if samples < 0:
        raise ValueError(f"samples must be nonnegative, got {samples}")
    bounds = [alg.submult_bound for alg in algebras]
    if all(b is not None and b <= 1.0 for b in bounds):
        return {"samples": 0, "ok": True, "worst_ratio": max(bounds, default=0.0),
                "method": "bound"}
    return {"samples": samples, "ok": True, "method": "sampled", "worst_ratio": _worst_ratio(
        label, np.random.default_rng(seed), algebras, samples, lattice)}


class FiniteAlgebra:
    """Associative algebra on C^dim given by structure constants and a norm.

    :func:`_block_facts` decides each cube of ``stacks`` once: the algebra
    is ``commutative`` when every block is, and its ``unit`` is the blocks'
    units side by side (None when a block has none).  ``submult_bound`` is a
    certified bound on ||uv|| / (||u|| ||v||), or None; the algebra is
    sampled ``samples`` times only when it is None or above 1 (:func:`_certify`).
    """

    def __init__(self, structure, norm, *, samples=SUBMULT_SAMPLES, seed=0, label=""):
        self.structure = _as_complex_cube(structure)
        self.dim = self.structure.shape[0]
        self.norm = norm
        self.label = label or f"algebra(dim={self.dim})"
        self.blocks = _structure_blocks(self.structure)
        self.cubes = [self.structure[np.ix_(b, b, b)] for b in self.blocks]
        facts = [_block_facts(cb, self.label) for cb, _ in self.stacks]
        self.commutative = all(commutative for commutative, _ in facts)
        self.unit = None
        if all(u is not None for _, u in facts):
            self.unit = np.zeros(self.dim, complex)
            for (_, idx), (_, u) in zip(self.stacks, facts):
                self.unit[idx] = u
        self.submult_bound = _submult_bound(self)
        _certify(self.label, [self], samples, seed)

    @cached_property
    def stacks(self):
        """(cube, indices (n, m) of its n blocks, one row each) per distinct
        block cube, keyed by its bytes at construction or an E-sum's first product."""
        groups = {}
        for b, cb in zip(self.blocks, self.cubes):
            groups.setdefault(cb.tobytes(), (cb, []))[1].append(b)
        return [(cb, np.stack(bs)) for cb, bs in groups.values()]

    # b_i b_j = sum_k c[i,j,k] b_k
    def multiply(self, u, v):
        """Products of u and v, broadcast over leading axes, stack by stack:
        the partial products w[i, k] = sum_j v_j c[i, j, k] of the stack's
        m x m x m cube are one BLAS product per ``ROW_BLOCK // m`` rows (at
        most ``ROW_BLOCK`` * dim entries), then (uv)_k = sum_i u_i w[i, k]."""
        u, v = np.broadcast_arrays(u, v)
        shape = u.shape
        u, v = u.reshape(-1, self.dim), v.reshape(-1, self.dim)
        out = np.empty(u.shape, dtype=np.result_type(u, v, np.complex128))
        for cube, idx in self.stacks:
            m = len(cube)
            right = cube.transpose(1, 0, 2).reshape(m, m * m)   # [j, (i, k)] = c[i, j, k]
            step = max(1, ROW_BLOCK // m)
            for a in range(0, len(u), step):
                w = (v[a:a + step, idx] @ right).reshape(-1, len(idx), m, m)
                out[a:a + step, idx] = np.einsum("rni,rnik->rnk", u[a:a + step, idx], w)
        return out.reshape(shape)

    def norm_of(self, v):
        return float(self.norm.eval(np.asarray(v, complex)))

    @property
    def unital(self):
        return self.unit is not None


def _worst_ratio(label, rng, algebras, samples, lattice=None):
    """The worst ratio ||uv|| / (||u|| ||v||) over ``samples`` Gaussian pairs
    (0 without), drawn as (re u, im u, re v, im v) per algebra in turn and,
    with a lattice, normed again by it; AlgebraError above 1 + SUBMULT_TOL."""
    # one buffer, the same stream as a draw per algebra, keeps the heap from shrinking
    sizes = [4 * samples * alg.dim for alg in algebras]
    flat = np.split(rng.standard_normal(sum(sizes)), np.cumsum(sizes)[:-1])
    draws = [z.reshape(4, samples, alg.dim) for z, alg in zip(flat, algebras)]
    worst = 0.0
    for a in range(0, samples, ROW_BLOCK):
        vals = np.empty((len(algebras), 3, min(ROW_BLOCK, samples - a)))
        for alg, z, out in zip(algebras, draws, vals):
            pair = np.empty((2, vals.shape[2], alg.dim), complex)   # u and v
            pair.real, pair.imag = z[0::2, a:a + ROW_BLOCK], z[1::2, a:a + ROW_BLOCK]
            out[:2] = alg.norm.eval(pair)
            out[2] = alg.norm.eval(alg.multiply(pair[0], pair[1]))
        # the lattice sees the transpose, so its row reductions run down columns
        nu, nv, nuv = vals[0] if lattice is None else norm_eval_batch(
            lattice, vals.reshape(len(algebras), -1).T).reshape(3, -1)
        ratio = nuv / np.maximum(nu * nv, 1e-300)
        # a product whose norm overflowed to nan certifies nothing
        worst = max(worst, float(np.where(np.isnan(ratio), np.inf, ratio).max()))
    if worst > 1.0 + SUBMULT_TOL:
        raise AlgebraError(f"{label}: norm is not submultiplicative (ratio {worst:.6g})")
    return worst


def scalar_algebra():
    """C with |.|."""
    return FiniteAlgebra([[[1.0]]], MaxAbsCoordinate(), samples=0, label="C")


def pointwise_algebra(n):
    """C^n with coordinatewise product and the max-abs norm."""
    c = np.zeros((n, n, n))
    for i in range(n):
        c[i, i, i] = 1.0
    return FiniteAlgebra(c, MaxAbsCoordinate(), samples=0, label=f"C^{n}")


def matrix_units_algebra(m):
    """Full matrix algebra M_m in the matrix-unit basis with operator norm."""
    return FiniteAlgebra(_matrix_unit_cube(m), MatrixOperatorNorm(m), samples=0, label=f"M_{m}")


def square_zero_algebra():
    """span{b} with b^2 = 0."""
    return FiniteAlgebra([[[0.0]]], MaxAbsCoordinate(), samples=0, label="square-zero")


# ---------------------------------------------------------------------------
# E-sums
# ---------------------------------------------------------------------------

class ESumAlgebra(FiniteAlgebra):
    """Finitely many summands glued along a lattice norm; the block algebra
    of their concatenated coefficients, with the summands' own blocks (each
    on its run of coordinates, ``norm.slices``), cubes, unit and commutativity,
    normed summand by summand.  The sum's certificate is
    :meth:`certify_submultiplicative`, so ``submult_bound`` is None."""

    def __init__(self, summands, lattice):
        if not isinstance(lattice, LatticeNormSpec):
            raise AlgebraError("lattice must be a LatticeNormSpec")
        if len(summands) != lattice.index_size:
            raise AlgebraError("one summand per lattice index is required")
        self.summands = list(summands)
        self.lattice = lattice
        self.label = f"esum({lattice.kind})"
        self.norm = LatticeBlockNorm(lattice, [a.norm for a in summands], [a.dim for a in summands])
        self.dim = self.norm.dim
        self.blocks = [b + s.start for a, s in zip(summands, self.norm.slices) for b in a.blocks]
        self.cubes = [cb for a in summands for cb in a.cubes]
        self.commutative = all(a.commutative for a in summands)
        units = [a.unit for a in summands]
        self.unit = None if any(u is None for u in units) else np.concatenate(units)
        self.submult_bound = None

    @cached_property
    def structure(self):
        """The dense :func:`block_cube`, built on first read."""
        return block_cube([a.structure for a in self.summands])

    @property
    def size(self):
        return len(self.summands)

    def element(self, values):
        """The coefficient vector of the family ``values``, one vector per summand."""
        values = [np.asarray(v, dtype=complex) for v in values]
        if len(values) != self.size:
            raise AlgebraError("one coefficient vector per summand is required")
        if any(v.shape != (a.dim,) for v, a in zip(values, self.summands)):
            raise AlgebraError("summand coefficient length mismatch")
        return np.concatenate(values)

    def multiply(self, u, v):
        """:meth:`FiniteAlgebra.multiply`, with ||uv|| <= ||u|| ||v||
        (1 + SUBMULT_TOL) + 1e-12 asserted row by row."""
        out = super().multiply(u, v)
        nuv, nu, nv = (self.norm.eval(w) for w in (out, u, v))
        assert not np.any(nuv > nu * nv * (1 + SUBMULT_TOL) + 1e-12)
        return out

    def certify_submultiplicative(self, samples=SUBMULT_SAMPLES, seed=0):
        """Certify ||ab|| <= ||a|| ||b|| by the summands' bounds, or on
        ``samples`` pairs per summand normed by the lattice (:func:`_certify`).
        Returns ``ok``, ``worst_ratio`` (the bound, or the worst sampled ratio),
        ``samples`` (the pairs drawn) and ``method`` ("bound" or "sampled")."""
        return _certify(self.label, self.summands, samples, seed, self.lattice)

    def as_finite_algebra(self, *, samples=SUBMULT_SAMPLES, seed=0):
        """The sum itself, certified by :meth:`certify_submultiplicative`:
        by the summands' bounds, or on ``samples`` pairs per summand."""
        self.certify_submultiplicative(samples, seed)
        return self


def block_cube(structures):
    """Structure constants of a direct sum: each summand's cube on its own
    consecutive run of coordinates, zero everywhere else."""
    total = sum(len(c) for c in structures)
    cube = np.zeros((total, total, total), dtype=complex)
    start = 0
    for c in structures:
        sl = slice(start, start + len(c))
        cube[sl, sl, sl] = c
        start += len(c)
    return cube


def _summand_run(algebra, i):
    """The coordinates of summand i; IndexError outside [0, size)."""
    if not (0 <= i < algebra.size):
        raise IndexError(f"summand index {i} out of range")
    return algebra.norm.slices[i]


def coordinate_projection(algebra, a, i):
    """The i-th summand coefficients of a; always contractive."""
    return np.array(a[..., _summand_run(algebra, i)])


def projection_norm(algebra, i):
    """Exact operator norm of the i-th coordinate projection: 1/||delta_i||.

    Solidity gives ||a|| >= ||a_i|| ||delta_i||, with equality on elements
    supported at i, so the bound is attained and is <= 1.
    """
    return 1.0 / embedding_norm(algebra, i)


def coordinate_embedding(algebra, v, i):
    """The element supported at index i with value v."""
    _summand_run(algebra, i)
    values = [np.zeros(a.dim) for a in algebra.summands]
    values[i] = v
    return algebra.element(values)


def embedding_norm(algebra, i):
    """Exact operator norm of the i-th embedding: ||delta_i||."""
    _summand_run(algebra, i)
    return delta_norm(algebra.lattice, i)


def truncate(algebra, a, keep):
    """Zero the summands of a outside ``keep``, in [0, size); never increases the norm."""
    out = np.zeros_like(a)
    for i in set(keep):
        run = _summand_run(algebra, i)
        out[run] = a[run]
    assert algebra.norm_of(out) <= algebra.norm_of(a) * (1 + 1e-12) + 1e-12
    return out


def unit_and_bai_bound_check(algebra):
    """With unit-norm units in every summand, the sum's unit has norm
    M = ||chi_I|| and every indicator satisfies ||chi_F|| <= 2M.

    The inequality is immediate by solidity at finite index; the report
    documents the mechanism linking bounded-identity norms to indicator
    growth.
    """
    for alg in algebra.summands:
        if not alg.unital:
            raise AlgebraError("not unital: some summand lacks a unit")
        un = alg.norm_of(alg.unit)
        if abs(un - 1.0) > 1e-9:
            raise AlgebraError(f"summand unit has norm {un}, expected 1")
    m_norm = algebra.norm_of(algebra.unit)
    sizes = list(range(1, algebra.size + 1))
    chis = [chi_norm(algebra.lattice, n) for n in sizes]
    ok = all(c <= 2 * m_norm + 1e-12 for c in chis)
    return {
        "unit_norm": m_norm,
        "bound": 2 * m_norm,
        "subset_sizes": sizes,
        "indicator_norms": chis,
        "ok": ok,
    }
