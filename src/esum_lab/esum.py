"""Direct sums of finite-dimensional normed algebras over a lattice norm.

A :class:`FiniteAlgebra` is a basis-free description by structure constants
``c[i][j][k]`` (``b_i b_j = sum_k c[i][j][k] b_k``) together with a norm on
coefficient vectors.  Associativity is verified exactly at construction and
submultiplicativity of the norm is certified on random samples; failures
abort construction.

An :class:`ESumAlgebra` glues finitely many summands along a
:class:`~esum_lab.lattice.LatticeNormSpec`: elements are per-summand
coefficient vectors, the norm is the lattice norm of the summand norms, and
multiplication is coordinatewise.  Coordinate projections are contractive;
the embedding of summand i has norm exactly ||delta_i||.
"""

from __future__ import annotations

import numpy as np

from .lattice import (LatticeNormSpec, chi_norm, delta_norm, dual_extremal, dual_norm_batch,
                      dual_vs_l2, integer_from_json, norm_eval, norm_eval_batch, required_key)

SUBMULT_SAMPLES = 10_000
SUBMULT_TOL = 1e-9


class AlgebraError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Coordinate norms on coefficient vectors
# ---------------------------------------------------------------------------

class CoordinateNorm:
    """Norm on coefficient vectors; ``eval`` is batched over leading axes.

    ``dual`` evaluates the dual norm under the bilinear pairing
    phi(a) = sum_k phi_k a_k; ``norming`` returns X with ||X|| <= 1 and
    sum_k phi_k X_k = ||phi||_dual for one phi.  ``dual_vs_l2`` returns (r, s) with
    ||phi||_dual <= r ||phi||_2 and ||phi||_2 <= s ||phi||_dual, used for the
    certified (loose) constants in weak-amenability bounds.
    """

    def eval(self, v):
        raise NotImplementedError

    def dual(self, v):
        raise NotImplementedError

    def dual_vs_l2(self, dim):
        raise NotImplementedError


class MaxAbsCoordinate(CoordinateNorm):
    def eval(self, v):
        return np.abs(np.asarray(v)).max(axis=-1)

    def dual(self, v):
        return np.abs(np.asarray(v)).sum(axis=-1)

    def norming(self, phi):
        return np.exp(-1j * np.angle(phi))

    def dual_vs_l2(self, dim):
        return (np.sqrt(dim), 1.0)


class EuclideanCoordinate(CoordinateNorm):
    def eval(self, v):
        return np.linalg.norm(np.asarray(v), axis=-1)

    def dual(self, v):
        return np.linalg.norm(np.asarray(v), axis=-1)

    def norming(self, phi):
        return np.conj(phi) / (np.linalg.norm(phi) or 1.0)

    def dual_vs_l2(self, dim):
        return (1.0, 1.0)


class MatrixOperatorNorm(CoordinateNorm):
    """Spectral norm on an m x m matrix algebra in the matrix-unit basis
    (row-major coefficients); the dual is the trace norm, which phi = U S V^H
    attains on conj(U V^H).  The 2 x 2 case uses closed forms."""

    def __init__(self, side):
        self.side = int(side)

    def _mats(self, v):
        v = np.asarray(v)
        return v.reshape(v.shape[:-1] + (self.side, self.side))

    def _scaled_entries(self, v):
        """For 2 x 2 matrices [[a, b], [c, d]]: the largest entry modulus s (1
        for zero), and the entries over s and their squared moduli over s^2, so
        nothing overflows or underflows; by columns, as numpy reduces short axes slowly."""
        v = np.asarray(v)
        entries = [v[..., k] for k in range(4)]
        mods = [np.abs(z) for z in entries]
        scale = np.maximum(np.maximum(mods[0], mods[1]), np.maximum(mods[2], mods[3]))
        scale = np.where(scale > 0, scale, 1.0)
        return scale, [z / scale for z in entries], [(m / scale) ** 2 for m in mods]

    def eval(self, v):
        if self.side != 2:
            return np.linalg.svd(self._mats(v), compute_uv=False).max(axis=-1)
        # s1^2 = (tr + g) / 2 for M^H M = [[p, r], [conj(r), q]], whose
        # eigenvalue gap g = sqrt((p - q)^2 + 4 |r|^2) cannot cancel
        scale, (a, b, c, d), (pa, pb, pc, pd) = self._scaled_entries(v)
        r = np.abs(np.conj(a) * b + np.conj(c) * d)
        gap = np.sqrt((pa + pc - pb - pd) ** 2 + 4.0 * r * r)
        return scale * np.sqrt(0.5 * (pa + pb + pc + pd + gap))

    def dual(self, v):
        if self.side != 2:
            return np.linalg.svd(self._mats(v), compute_uv=False).sum(axis=-1)
        # (s1 + s2)^2 = ||M||_F^2 + 2 |det M|
        scale, (a, b, c, d), (pa, pb, pc, pd) = self._scaled_entries(v)
        return scale * np.sqrt(pa + pb + pc + pd + 2.0 * np.abs(a * d - b * c))

    def norming(self, phi):
        u, _, vh = np.linalg.svd(self._mats(phi))
        return np.conj(u @ vh).reshape(-1)

    def dual_vs_l2(self, dim):
        return (np.sqrt(self.side), 1.0)


class LatticeBlockNorm(CoordinateNorm):
    """E-sum norm on concatenated summand coefficients: the lattice norm of
    the per-block norms.  The dual applies the dual lattice norm
    (:func:`~esum_lab.lattice.dual_norm_batch`) to the dual block norms;
    :func:`~esum_lab.lattice.dual_extremal` weights the blocks' norming
    elements."""

    def __init__(self, lattice, block_norms, block_dims):
        self.lattice = lattice
        self.block_norms = list(block_norms)
        self.block_dims = list(block_dims)
        self.slices = []
        start = 0
        for d in self.block_dims:
            self.slices.append(slice(start, start + d))
            start += d
        self.dim = start

    def _block_values(self, v, dual=False):
        v = np.asarray(v)
        cols = []
        for nrm, sl in zip(self.block_norms, self.slices):
            cols.append(nrm.dual(v[..., sl]) if dual else nrm.eval(v[..., sl]))
        return np.stack(cols, axis=-1)

    def eval(self, v):
        vals = self._block_values(v)
        flat = vals.reshape(-1, vals.shape[-1])
        return norm_eval_batch(self.lattice, flat).reshape(vals.shape[:-1])

    def dual(self, v):
        vals = self._block_values(v, dual=True)
        flat = vals.reshape(-1, vals.shape[-1])
        return dual_norm_batch(self.lattice, flat).reshape(vals.shape[:-1])

    def norming(self, phi):
        weights = dual_extremal(self.lattice, self._block_values(phi, dual=True))
        return np.concatenate([w * nrm.norming(phi[sl]) for w, nrm, sl
                               in zip(weights, self.block_norms, self.slices)])

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

def _as_complex_cube(structure, dim=None):
    c = np.asarray(structure)
    if c.dtype == object:  # nested lists of [re, im] pairs
        c = np.asarray(structure, dtype=float)
    if c.ndim == 4 and c.shape[-1] == 2:
        c = c[..., 0] + 1j * c[..., 1]
    c = c.astype(complex)
    if c.ndim != 3 or len({c.shape[0], c.shape[1], c.shape[2]}) != 1:
        raise AlgebraError(f"structure constants must form a cube, got shape {c.shape}")
    if dim is not None and c.shape[0] != dim:
        raise AlgebraError("structure constant cube disagrees with dim")
    return c


class FiniteAlgebra:
    """Associative algebra on C^dim given by structure constants and a norm."""

    def __init__(self, structure, norm, *, samples=SUBMULT_SAMPLES, seed=0,
                 certified=False, label=""):
        self.structure = _as_complex_cube(structure)
        self.dim = self.structure.shape[0]
        self.norm = norm
        self.label = label or f"algebra(dim={self.dim})"
        self._check_associativity()
        c = self.structure
        self.commutative = bool(np.allclose(c, c.transpose(1, 0, 2), atol=1e-12))
        self.unit = self._find_unit()
        if not certified:
            self._certify_submultiplicative(samples, seed)

    # b_i b_j = sum_k c[i,j,k] b_k
    def multiply(self, u, v):
        return np.einsum("...i,...j,ijk->...k", u, v, self.structure)

    def norm_of(self, v):
        return float(self.norm.eval(np.asarray(v, complex)))

    def _check_associativity(self):
        c = self.structure
        left = np.einsum("ijm,mkl->ijkl", c, c)
        right = np.einsum("jkm,iml->ijkl", c, c)
        if not np.allclose(left, right, atol=1e-12):
            raise AlgebraError(f"{self.label}: structure constants are not associative")

    def _find_unit(self):
        c = self.structure
        d = self.dim
        eye = np.eye(d).reshape(-1)
        # u b_j = b_j and b_j u = b_j for all j, as one least-squares system
        a_left = c.transpose(1, 2, 0).reshape(d * d, d)   # rows (j,k): c[i,j,k] u_i
        a_right = c.transpose(0, 2, 1).reshape(d * d, d)  # rows (j,k): c[j,i,k] u_i
        big = np.vstack([a_left, a_right])
        rhs = np.concatenate([eye, eye])
        u, *_ = np.linalg.lstsq(big, rhs, rcond=None)
        snapped = np.round(u.real) + 1j * np.round(u.imag)
        if np.linalg.norm(big @ snapped - rhs) < 1e-12:
            return snapped
        if np.linalg.norm(big @ u - rhs) < 1e-10:
            return u
        return None

    @property
    def unital(self):
        return self.unit is not None

    def _certify_submultiplicative(self, samples, seed):
        rng = np.random.default_rng(seed)
        batch = 2000
        for start in range(0, samples, batch):
            nu, nv, np_ = _sample_pair_norms(rng, self, min(batch, samples - start))
            if np.any(np_ > nu * nv * (1.0 + SUBMULT_TOL) + 1e-12):
                raise AlgebraError(
                    f"{self.label}: norm is not submultiplicative "
                    f"(violation ratio {float((np_ / (nu * nv)).max()):.6g})"
                )


def _sample_pair_norms(rng, algebra, count):
    """Norms of ``count`` random pairs u, v and of their products uv.  The
    draws come in a fixed order: the real part of u, its imaginary part,
    then the same for v."""
    u = rng.standard_normal((count, algebra.dim)) + 1j * rng.standard_normal((count, algebra.dim))
    v = rng.standard_normal((count, algebra.dim)) + 1j * rng.standard_normal((count, algebra.dim))
    return algebra.norm.eval(u), algebra.norm.eval(v), algebra.norm.eval(algebra.multiply(u, v))


def scalar_algebra():
    """C with |.|."""
    return FiniteAlgebra([[[1.0]]], MaxAbsCoordinate(), certified=True, label="C")


def pointwise_algebra(n, norm=None):
    """C^n with coordinatewise product; default norm is max-abs."""
    c = np.zeros((n, n, n))
    for i in range(n):
        c[i, i, i] = 1.0
    return FiniteAlgebra(c, norm or MaxAbsCoordinate(), certified=True, label=f"C^{n}")


def matrix_units_algebra(m):
    """Full matrix algebra M_m in the matrix-unit basis with operator norm."""
    d = m * m
    c = np.zeros((d, d, d))
    for i in range(m):
        for j in range(m):
            for k in range(m):
                for l in range(m):
                    if j == k:
                        c[i * m + j, k * m + l, i * m + l] = 1.0
    return FiniteAlgebra(c, MatrixOperatorNorm(m), certified=True, label=f"M_{m}")


def square_zero_algebra():
    """span{b} with b^2 = 0."""
    return FiniteAlgebra([[[0.0]]], MaxAbsCoordinate(), certified=True, label="square-zero")


# ---------------------------------------------------------------------------
# E-sums
# ---------------------------------------------------------------------------

class ESumElement:
    """A family of summand coefficient vectors, one per index."""

    __slots__ = ("parent", "values")

    def __init__(self, parent, values):
        self.parent = parent
        self.values = [np.asarray(v, dtype=complex) for v in values]
        if len(self.values) != len(parent.summands):
            raise AlgebraError("one coefficient vector per summand is required")
        for v, alg in zip(self.values, parent.summands):
            if v.shape != (alg.dim,):
                raise AlgebraError("summand coefficient length mismatch")

    def __repr__(self):
        return f"ESumElement({[list(v) for v in self.values]})"


class ESumAlgebra:
    """Finitely many summands glued along a lattice norm."""

    def __init__(self, summands, lattice):
        if not isinstance(lattice, LatticeNormSpec):
            raise AlgebraError("lattice must be a LatticeNormSpec")
        if len(summands) != lattice.index_size:
            raise AlgebraError("one summand per lattice index is required")
        self.summands = list(summands)
        self.lattice = lattice

    @property
    def size(self):
        return len(self.summands)

    def element(self, values):
        return ESumElement(self, values)

    def zero(self):
        return self.element([np.zeros(a.dim, complex) for a in self.summands])

    def summand_norms(self, a):
        return np.array([alg.norm_of(v) for alg, v in zip(self.summands, a.values)])

    def unit(self):
        units = [alg.unit for alg in self.summands]
        if any(u is None for u in units):
            raise AlgebraError("not unital: some summand lacks a unit")
        return self.element(units)

    def certify_submultiplicative(self, samples=SUBMULT_SAMPLES, seed=0, tol=SUBMULT_TOL):
        """Sample ||ab|| <= ||a|| ||b|| on random element pairs, batched per
        summand; raises on any violation."""
        rng = np.random.default_rng(seed)
        cols = [_sample_pair_norms(rng, alg, samples) for alg in self.summands]
        nu, nv, nuv = (norm_eval_batch(self.lattice, np.stack(c, axis=1)) for c in zip(*cols))
        worst = float((nuv / np.maximum(nu * nv, 1e-300)).max())
        if worst > 1.0 + tol:
            raise AlgebraError(f"E-sum norm is not submultiplicative (ratio {worst:.6g})")
        return {"samples": samples, "worst_ratio": worst, "ok": True}

    def as_finite_algebra(self, *, samples=SUBMULT_SAMPLES, seed=0):
        """The same algebra as one block FiniteAlgebra (block-diagonal
        structure constants, lattice-of-blocks norm)."""
        dims = [a.dim for a in self.summands]
        c = block_cube([a.structure for a in self.summands])
        norm = LatticeBlockNorm(self.lattice, [a.norm for a in self.summands], dims)
        return FiniteAlgebra(c, norm, samples=samples, seed=seed,
                             label=f"esum({self.lattice.kind})")


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


def esum_norm(a):
    """||a|| = lattice norm of the vector of summand norms."""
    return norm_eval(a.parent.lattice, a.parent.summand_norms(a))


def esum_mul(a, b):
    """Coordinatewise product; submultiplicativity is asserted in debug mode."""
    if a.parent is not b.parent:
        raise AlgebraError("operands must come from the same E-sum algebra")
    out = a.parent.element([
        alg.multiply(u, v) for alg, u, v in zip(a.parent.summands, a.values, b.values)
    ])
    assert esum_norm(out) <= esum_norm(a) * esum_norm(b) * (1 + SUBMULT_TOL) + 1e-12
    return out


def coordinate_projection(a, i):
    """The i-th summand coefficients; always contractive."""
    if not (0 <= i < a.parent.size):
        raise IndexError(f"summand index {i} out of range")
    return a.values[i].copy()


def projection_norm(algebra, i):
    """Exact operator norm of the i-th coordinate projection: 1/||delta_i||.

    Solidity gives ||a|| >= ||a_i|| ||delta_i||, with equality on elements
    supported at i, so the bound is attained and is <= 1.
    """
    if not (0 <= i < algebra.size):
        raise IndexError(f"summand index {i} out of range")
    return 1.0 / delta_norm(algebra.lattice, i)


def coordinate_embedding(algebra, v, i):
    """The element supported at index i with value v."""
    if not (0 <= i < algebra.size):
        raise IndexError(f"summand index {i} out of range")
    out = algebra.zero()
    out.values[i] = np.asarray(v, complex).copy()
    return out


def embedding_norm(algebra, i):
    """Exact operator norm of the i-th embedding: ||delta_i||."""
    if not (0 <= i < algebra.size):
        raise IndexError(f"summand index {i} out of range")
    return delta_norm(algebra.lattice, i)


def truncate(a, keep):
    """Zero all coordinates outside ``keep``; never increases the norm."""
    keep = set(keep)
    out = a.parent.element([
        v.copy() if i in keep else np.zeros_like(v) for i, v in enumerate(a.values)
    ])
    assert esum_norm(out) <= esum_norm(a) * (1 + 1e-12) + 1e-12
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
    m_norm = esum_norm(algebra.unit())
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
