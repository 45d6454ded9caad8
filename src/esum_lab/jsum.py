"""Conditional sums over a chain of contractive bonding maps.

A :class:`JSystem` is a finite chain of coordinate spaces C^{d_0}, ..., C^{d_N}
with d_0 = 0 and contractive linear maps between consecutive levels.  For a
finitely supported element x and an increasing index list S = {p_0 < ... < p_k}:

    sigma(x, S)^2 = sum_i || bond(p_{i-1} -> p_i)(x_{p_{i-1}}) - x_{p_i} ||^2
    rho(x, S)^2   = sigma(x, S)^2 + ||x_{p_k}||^2
    ||x||_J       = sup_S rho(x, S) / sqrt(2)

The supremum over all finite index lists is attained with indices at most
one past the last level (contractivity makes any later crossing term
smaller), so ``jnorm`` runs an exact dynamic program on that horizon while
``jnorm_bruteforce`` enumerates every subset as an independent oracle.
Coordinate norms are Euclidean.

A system keeps each bond at its own shape, and an element its coordinates
end to end in one ``entries`` vector of length sum d_n, with ``coords[n]`` a
view of it; nothing is padded.  ``jnorm`` runs its forward pass in blocks of
``JNORM_BLOCK`` target levels whose rows lie end to end the same way, so a
level costs one matrix product and a block a few vectorised steps.

If per-level pointwise algebra structures are supplied (with multiplicative
bonds), elements multiply coordinatewise; products obey
sigma(xy, S) <= ||y||_inf sigma(x, S) + ||x||_inf sigma(y, S) and
||xy||_J <= (3/sqrt(2)) ||x||_J ||y||_J.  Eventually coherent tails (those
generated by the bonds) carry the limiting coordinate seminorm.
"""

from __future__ import annotations

from itertools import accumulate, combinations

import numpy as np

from . import esum as es
from .lattice import (integer_from_json, numbers_from_json, required_key,
                      values_from_json)

BOND_TOL = 1e-9
BIMONOTONE_TOL = 1e-9   # relative slack of the window comparisons in bimonotone_check
MUL_BOUND = 3.0 / np.sqrt(2.0)
JNORM_BLOCK = 16        # target levels per block of jnorm's forward pass


class JSystemError(ValueError):
    pass


class CoherenceError(ValueError):
    """The supplied prefix is not generated by the bonds past its anchor."""


class JSystem:
    def __init__(self, dims, bonds, structures=None):
        self.dims = [int(d) for d in dims]
        if len(self.dims) < 2:
            raise JSystemError("need at least levels 0 and 1")
        if self.dims[0] != 0:
            raise JSystemError("level 0 must be zero-dimensional")
        if any(d < 0 for d in self.dims):
            raise JSystemError("dimensions must be nonnegative")
        if len(bonds) != len(self.dims) - 1:
            raise JSystemError("need one bond per consecutive level pair")
        self.top = len(self.dims) - 1
        self.bonds = [np.asarray(b, dtype=complex).reshape(self.dims[n + 1], self.dims[n])
                      for n, b in enumerate(bonds)]
        self._check_contractive()
        # levels past the top continue with this identity (see bond_at)
        self._tail_bond = np.eye(self.dims[self.top], dtype=complex)
        self._tail_bond.setflags(write=False)
        # level n's coordinates are entries offsets[n]:offsets[n + 1] of an
        # element, so entry i belongs to level entry_level[i]
        self.offsets = [0, *accumulate(self.dims)]
        self.entry_level = np.repeat(np.arange(self.top + 1), self.dims)
        self._compose_cache = {}
        self.structures = None
        if structures is not None:
            self._attach_structures(structures)

    def _check_contractive(self):
        """One stacked SVD per bond shape; the error names the first bond
        whose operator norm exceeds 1."""
        by_shape = {}
        for n, b in enumerate(self.bonds):
            if b.size:
                by_shape.setdefault(b.shape, []).append(n)
        norms = np.zeros(self.top)
        for ns in by_shape.values():
            stack = np.stack([self.bonds[n] for n in ns])
            norms[ns] = np.linalg.svd(stack, compute_uv=False)[:, 0]
        bad = np.flatnonzero(norms > 1.0 + BOND_TOL)
        if bad.size:
            raise JSystemError(f"bond {bad[0]} has operator norm {norms[bad[0]]:.6g} > 1")

    # -- algebra structure ---------------------------------------------------

    def _attach_structures(self, structures):
        if len(structures) != len(self.dims):
            raise JSystemError("need one structure cube per level")
        cubes = [np.asarray(s, dtype=complex).reshape(d, d, d)
                 for d, s in zip(self.dims, structures)]
        for lvl, c in enumerate(cubes):
            if len(c):
                try:
                    es.FiniteAlgebra(c, es.EuclideanCoordinate(), samples=200, label=f"level {lvl}")
                except es.AlgebraError as exc:
                    raise JSystemError(str(exc)) from exc
        for n, bond in enumerate(self.bonds):
            c_lo, c_hi = cubes[n], cubes[n + 1]
            if self.dims[n] == 0:
                continue
            # bond(b_i b_j) must equal bond(b_i) bond(b_j); both sides are
            # linear in the cubes, so they are compared over the largest entry
            top = max(np.abs(c_lo).max(), np.abs(c_hi).max(initial=0.0)) or 1.0
            lhs = np.einsum("ijm,km->ijk", c_lo / top, bond)
            rhs = np.einsum("pi,qj,pqk->ijk", bond, bond, c_hi / top)
            if not np.abs(lhs - rhs).max(initial=0.0) <= 1e-9:   # a nan fails too
                raise JSystemError(f"bond {n} is not multiplicative")
        self.structures = cubes

    @property
    def has_algebra(self):
        return self.structures is not None

    def level_multiply(self, n, u, v):
        if not self.has_algebra:
            raise JSystemError("system carries no algebra structure")
        return np.einsum("i,j,ijk->k", u, v, self.structures[n])

    # -- levels and compositions ----------------------------------------------

    def level_dim(self, n):
        """Levels past the top continue the chain with identity bonds."""
        return self.dims[min(n, self.top)]

    def bond_at(self, n):
        """Bond n -> n + 1; past the top, the read-only identity on the top
        level."""
        if n < self.top:
            return self.bonds[n]
        return self._tail_bond

    def compose(self, n, m):
        """The map from level n to level m >= n (identity when m == n)."""
        if m < n:
            raise JSystemError("compositions only run forward")
        key = (n, m)
        if key not in self._compose_cache:
            mat = np.eye(self.level_dim(n), dtype=complex)
            for q in range(n, m):
                mat = self.bond_at(q) @ mat
            self._compose_cache[key] = mat
        return self._compose_cache[key]


class JElement:
    def __init__(self, system, coords):
        self.system = system
        if len(coords) != len(system.dims):
            raise JSystemError("need one coordinate vector per level")
        self.entries = np.concatenate([np.asarray(c, dtype=complex).reshape(d)
                                       for c, d in zip(coords, system.dims)])
        offsets = system.offsets
        self.coords = [self.entries[a:b] for a, b in zip(offsets, offsets[1:])]

    @classmethod
    def from_support(cls, system, support):
        coords = [np.zeros(d, complex) for d in system.dims]
        for n, v in support.items():
            coords[n] = np.asarray(v, complex).reshape(system.dims[n])
        return cls(system, coords)

    def coord(self, n):
        """Coordinate at level n; levels past the top are zero."""
        if n < len(self.coords):
            return self.coords[n]
        return np.zeros(self.system.level_dim(n), complex)

    def sup_norm(self):
        return max((float(np.linalg.norm(c)) for c in self.coords), default=0.0)

    def multiply(self, other):
        if other.system is not self.system:
            raise JSystemError("operands live in different systems")
        return JElement(self.system, [
            self.system.level_multiply(n, u, v)
            for n, (u, v) in enumerate(zip(self.coords, other.coords))
        ])


def _validate_chain(system, chain, horizon):
    chain = [int(p) for p in chain]
    if not chain:
        raise ValueError("index list must be nonempty")
    if any(b <= a for a, b in zip(chain, chain[1:])):
        raise ValueError("index list must be strictly increasing")
    if chain[0] < 0 or chain[-1] > horizon:
        raise ValueError(f"indices must lie in [0, {horizon}]")
    return chain


def sigma(x, chain, horizon=None):
    """Quadratic variation of x along the chain."""
    system = x.system
    h = system.top + 1 if horizon is None else horizon
    chain = _validate_chain(system, chain, h)
    total = 0.0
    for a, b in zip(chain, chain[1:]):
        diff = system.compose(a, b) @ x.coord(a) - x.coord(b)
        total += float(np.linalg.norm(diff)) ** 2
    return float(np.sqrt(total))


def rho(x, chain, horizon=None):
    system = x.system
    h = system.top + 1 if horizon is None else horizon
    chain = _validate_chain(system, chain, h)
    s = sigma(x, chain, horizon=h)
    tail = float(np.linalg.norm(x.coord(chain[-1])))
    return float(np.sqrt(s * s + tail * tail))


def _chain_tables(x, horizon):
    """t[p][q] = ||bond(p->q)(x_p) - x_q||^2 for p < q, and the terminal
    weights ||x_p||^2, marching each coordinate forward on its own.  Only
    :func:`jnorm_bruteforce` reads these tables, so the enumeration checks
    :func:`jnorm` against a separate computation of every link."""
    system = x.system
    h = horizon
    link = np.zeros((h + 1, h + 1))
    for p in range(h + 1):
        y = x.coord(p)
        for q in range(p + 1, h + 1):
            y = system.bond_at(q - 1) @ y
            link[p, q] = float(np.linalg.norm(y - x.coord(q))) ** 2
    terminal = np.array([float(np.linalg.norm(x.coord(p))) ** 2 for p in range(h + 1)])
    return link, terminal


def jnorm(x, horizon=None):
    """Exact J-norm by dynamic programming over chain endpoints.

    ``best[q]`` holds the largest sigma^2 over chains ending at q.  The
    forward pass takes the target levels in blocks of ``JNORM_BLOCK``.  For
    the block of levels q0 <= q < q1 a buffer of q1 columns stacks the rows
    of levels q0 - 1 .. q1 - 1 end to end, d_q rows for level q, like
    ``entries``: its (d_{q0-1} + ... + d_{q1-1}) * q1 complex values hold,
    for level q, the columns bond(p -> q)(x_p) for p < q and x_q itself in
    column q.  Level q0 - 1 carries the last level of the previous block.
    Each level costs one product with bond(q-1 -> q), the identity on the
    top level past the top.  Each block then takes the norms of all its
    links at once, pulls the best chains ending before the block in one
    vectorised maximum and finishes the chains inside the block in plain
    Python.  The terminal weights ||x_q||^2 are added in one step at the
    end.  The default horizon is one past the top level, which suffices for
    any finitely supported element under contractive bonds.
    """
    system = x.system
    top = system.top
    h = top + 1 if horizon is None else int(horizon)
    if h < 0:
        raise ValueError(f"horizon must be nonnegative: {h}")
    dims = system.dims[:h + 1] + [system.dims[top]] * (h - top)
    bonds = system.bonds[:h] + [system.bond_at(top)] * (h - top)
    starts = [0, *accumulate(dims)]   # agrees with system.offsets up to the top
    best = np.zeros(h + 1)
    last = np.zeros((0, 1), complex)  # level 0 is zero-dimensional
    for q0 in range(1, h + 1, JNORM_BLOCK):
        q1 = min(q0 + JNORM_BLOCK, h + 1)
        n = q1 - q0
        r0 = starts[q0 - 1]
        rows = [r - r0 for r in starts[q0 - 1:q1 + 1]]
        carry = np.zeros((rows[-1], q1), complex)
        carry[:rows[1], :q0] = last
        lo, hi = starts[min(q0, top + 1)], starts[min(q1, top + 1)]
        carry[np.arange(lo - r0, hi - r0), system.entry_level[lo:hi]] = x.entries[lo:hi]
        for j, q in enumerate(range(q0, q1)):
            np.matmul(bonds[q - 1], carry[rows[j]:rows[j + 1], :q],
                      out=carry[rows[j + 1]:rows[j + 2], :q])
        last = carry[rows[-2]:]
        level = np.repeat(np.arange(n), dims[q0:q1])
        own = carry[np.arange(rows[1], rows[-1]), level + q0]
        diff = carry[rows[1]:, :q1 - 1] - own[:, None]
        # add up each level's rows in order into cell (level, p) of an n x (q1 - 1) table
        cells = (level * (q1 - 1))[:, None] + np.arange(q1 - 1)
        links = np.bincount(cells.ravel(), (diff.real ** 2 + diff.imag ** 2).ravel(),
                            minlength=n * (q1 - 1)).reshape(n, q1 - 1)
        inner = links[:, q0:].tolist()
        block_best = []
        for value, row in zip((best[:q0] + links[:, :q0]).max(axis=1).tolist(), inner):
            for prior, link in zip(block_best, row):
                if prior + link > value:
                    value = prior + link
            block_best.append(value)
        best[q0:q1] = block_best
    squares = x.entries.real ** 2 + x.entries.imag ** 2
    terminal = np.bincount(system.entry_level, squares, minlength=h + 1)[:h + 1]
    return float(np.sqrt((best + terminal).max() / 2.0))


def jnorm_bruteforce(x, horizon=None):
    """Exhaustive maximum of rho over every nonempty index subset."""
    system = x.system
    h = system.top + 1 if horizon is None else int(horizon)
    if h + 1 > 20:
        raise ValueError(f"horizon too large for enumeration: {h}")
    link, terminal = _chain_tables(x, h)
    best = 0.0
    indices = range(h + 1)
    for size in range(1, h + 2):
        for chain in combinations(indices, size):
            acc = terminal[chain[-1]]
            for a, b in zip(chain, chain[1:]):
                acc += link[a, b]
            if acc > best:
                best = acc
    return float(np.sqrt(best / 2.0))


def jmul(x, y):
    """Coordinatewise product in an algebra-carrying system.

    Debug mode samples the sigma product inequality on random chains and
    checks the 3/sqrt(2) norm bound on the result.
    """
    system = x.system
    if not system.has_algebra:
        raise JSystemError("system carries no algebra structure")
    out = x.multiply(y)
    if __debug__:
        h = system.top + 1
        rng = np.random.default_rng(h)
        xs, ys = x.sup_norm(), y.sup_norm()
        for _ in range(8):
            size = int(rng.integers(1, h + 2))
            chain = sorted(rng.choice(h + 1, size=size, replace=False))
            bound = ys * sigma(x, chain) + xs * sigma(y, chain)
            assert sigma(out, chain) <= bound * (1 + 1e-9) + 1e-12
        assert jnorm(out) <= MUL_BOUND * jnorm(x) * jnorm(y) * (1 + 1e-9) + 1e-12
    return out


# ---------------------------------------------------------------------------
# Eventually coherent tails
# ---------------------------------------------------------------------------

def omega_seminorm(system, prefix, anchor, horizon):
    """Limiting coordinate norm of the tail generated from ``anchor``.

    ``prefix`` covers levels 0..M with anchor <= M; entries past the anchor
    must already be generated by the bonds (else :class:`CoherenceError`).
    The tail norms are nonincreasing from the anchor by contractivity, so
    the value at the horizon upper-bounds the limit and the last decrement
    serves as the error bar.  The horizon must stay within the system.
    """
    anchor = int(anchor)
    horizon = int(horizon)
    coords = [np.asarray(c, complex).reshape(system.dims[n]) for n, c in enumerate(prefix)]
    m = len(coords) - 1
    if not (0 <= anchor <= m):
        raise ValueError("anchor must lie inside the prefix")
    if not (anchor <= horizon <= system.top):
        raise ValueError(f"horizon must lie in [{anchor}, {system.top}]")
    for n in range(anchor, m):
        expected = system.bonds[n] @ coords[n]
        if np.linalg.norm(expected - coords[n + 1]) > 1e-9 * (1.0 + np.linalg.norm(coords[n])):
            raise CoherenceError(f"prefix breaks coherence between levels {n} and {n + 1}")
    norms = [float(np.linalg.norm(coords[anchor]))]
    y = coords[anchor]
    for n in range(anchor, horizon):
        y = system.bonds[n] @ y
        norms.append(float(np.linalg.norm(y)))
    value = norms[-1]
    err = norms[-2] - norms[-1] if len(norms) >= 2 else 0.0
    return {"value": value, "error_bar": max(err, 0.0), "horizon": horizon, "anchor": anchor}


def omega_submult_check(system, samples, rng=None):
    """Sampled check that the limiting seminorm is submultiplicative; a
    negative ``samples`` raises ValueError."""
    if samples < 0:
        raise ValueError(f"samples must be nonnegative, got {samples}")
    if not system.has_algebra:
        raise JSystemError("system carries no algebra structure")
    rng = rng or np.random.default_rng(0)
    top = system.top
    violations = 0
    worst = 0.0
    for _ in range(samples):
        anchor_x = int(rng.integers(1, max(2, top)))
        anchor_y = int(rng.integers(1, max(2, top)))
        x = _random_coherent(system, anchor_x, rng)
        y = _random_coherent(system, anchor_y, rng)
        xy = x.multiply(y)
        vx = omega_seminorm(system, x.coords, anchor_x, top)
        vy = omega_seminorm(system, y.coords, anchor_y, top)
        # the product tail is coherent from the later anchor
        vxy = omega_seminorm(system, xy.coords, max(anchor_x, anchor_y), top)
        slack = vx["error_bar"] * vy["value"] + vy["error_bar"] * vx["value"] + 1e-9
        gap = vxy["value"] - vx["value"] * vy["value"]
        worst = max(worst, gap)
        if gap > slack:
            violations += 1
    return {"samples": samples, "violations": violations, "worst_gap": worst, "ok": violations == 0}


def _random_coherent(system, anchor, rng):
    coords = [np.zeros(d, complex) for d in system.dims]
    for n in range(1, anchor + 1):
        d = system.dims[n]
        coords[n] = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    for n in range(anchor, system.top):
        coords[n + 1] = system.bonds[n] @ coords[n]
    return JElement(system, coords)


# ---------------------------------------------------------------------------
# Block decomposition checks
# ---------------------------------------------------------------------------

def _coordinate_window(x, lo, hi):
    """Keep the coordinates with level in [lo, hi], zero the rest."""
    coords = [
        c.copy() if lo <= n <= hi else np.zeros_like(c)
        for n, c in enumerate(x.coords)
    ]
    return JElement(x.system, coords)


def bimonotone_check(x, samples, rng=None):
    """Inner coordinate windows never beat the enclosing window in J-norm,
    and the norm is the maximum over prefixes at finite support.  A negative
    ``samples`` raises ValueError."""
    if samples < 0:
        raise ValueError(f"samples must be nonnegative, got {samples}")
    rng = rng or np.random.default_rng(0)
    system = x.system
    top = system.top
    failures = []
    for _ in range(samples):
        p = int(rng.integers(0, top))
        q = int(rng.integers(1, top - p + 1))
        r = int(rng.integers(0, top - p - q + 1))
        inner = jnorm(_coordinate_window(x, p + 1, p + q))
        outer = jnorm(_coordinate_window(x, 1, p + q + r))
        if inner > outer * (1 + BIMONOTONE_TOL) + 1e-12:
            failures.append((p, q, r, inner, outer))
    prefixes = [jnorm(_coordinate_window(x, 1, n)) for n in range(1, top + 1)]
    full = jnorm(x)
    prefix_ok = abs(max(prefixes) - full) <= 1e-12 + BIMONOTONE_TOL * full
    monotone_ok = all(a <= b * (1 + BIMONOTONE_TOL) + 1e-12
                      for a, b in zip(prefixes, prefixes[1:]))
    return {
        "samples": samples,
        "violations": failures,
        "prefix_max_matches": prefix_ok,
        "prefix_monotone": monotone_ok,
        "ok": not failures and prefix_ok and monotone_ok,
    }


# ---------------------------------------------------------------------------
# JSON interface
# ---------------------------------------------------------------------------

def system_from_dict(d):
    def entries(key):
        return enumerate(required_key(d, key, "chain system", JSystemError, array=True))

    dims = [integer_from_json(v, f"chain system dims entry {n}", JSystemError)
            for n, v in entries("dims")]
    bonds = [numbers_from_json(v, f"chain system bond {n}", JSystemError)
             for n, v in entries("bonds")]
    structures = None
    if "algebra" in d:
        structures = [numbers_from_json(v, f"chain system algebra level {n}", JSystemError)
                      for n, v in entries("algebra")]
    return JSystem(dims, bonds, structures=structures)


def element_from_dict(system, d):
    coords = required_key(d, "coords", "chain element", JSystemError, array=True)
    return JElement(system, [values_from_json(c) for c in coords])
