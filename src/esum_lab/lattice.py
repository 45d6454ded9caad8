"""Solid sequence-space norms on a finite index set.

Four norm families are supported on coefficient vectors of a fixed finite
length:

  - ``sup``           max_i |x_i|
  - ``weighted_sup``  max_i w_i |x_i|            (all w_i >= 1)
  - ``lp``            (sum_i |x_i|^p)^(1/p)      (p >= 1)
  - ``orlicz``        Luxemburg norm inf{lam > 0 : sum_i phi(|x_i|/lam) <= 1}

Every family is solid (|x| <= |y| pointwise implies norm(x) <= norm(y)) and
dominates the sup norm.  The module also computes indicator norms, the
uniformity constant ``ce_constant`` (the largest indicator norm, together
with its behaviour as the index set grows), and the generalized inverse of
an Orlicz function, which yields the indicator closed form
``chi(n) = 1 / phi_inv(1/n)``, and the squared l2 radius of the unit ball
with a vector attaining it (``max_square_sum``).

Every named Orlicz family is evaluated in closed form, without iteration: a
power phi(t) = t**p reduces to the lp formulas, and the shifted ramp and
tables are piecewise linear, so both the generalized inverse and the
Luxemburg norm come from interpolating between nodes.
"""

from __future__ import annotations

import json
import numpy as np


MAX_TABLE_CANDIDATES = 10 ** 6
LUXEMBURG_BLOCK = 2 ** 24   # floats in one block's knot levels


class UnreachableLevelError(ValueError):
    """phi never reaches the requested level."""


class LatticeSpecError(ValueError):
    """Invalid norm-family parameters."""


# ---------------------------------------------------------------------------
# Orlicz functions
# ---------------------------------------------------------------------------

class OrliczFunction:
    """A nondecreasing function phi: [0,inf) -> [0,inf) with phi(0) = 0.

    ``a_phi`` caches the degeneracy point sup{t > 0 : phi(t) = 0} (0 when phi
    is positive immediately).  The evaluator accepts numpy arrays.  A
    piecewise-linear phi (shifted ramp, table) carries ``nodes`` = (ts, ys,
    tail): its nodes from (0, 0) and the slope past the last one; a power phi
    has ``nodes`` None and its exponent in ``params["p"]``.
    """

    def __init__(self, evaluator, a_phi, family, params=None, nodes=None):
        self.evaluator = evaluator
        self.a_phi = float(a_phi)
        self.family = family
        self.params = dict(params or {})
        self.nodes = nodes
        v0 = float(self.evaluator(0.0))
        if abs(v0) > 1e-15:
            raise LatticeSpecError(f"phi(0) must be 0, got {v0}")

    def __call__(self, t):
        return self.evaluator(np.asarray(t, dtype=float))

    def __repr__(self):
        return f"OrliczFunction({self.family}, {self.params})"

    @classmethod
    def power(cls, p):
        """phi(t) = t**p for p >= 1."""
        p = float(p)
        if not (p >= 1.0 and np.isfinite(p)):
            raise LatticeSpecError(f"power exponent must satisfy p >= 1, got {p}")
        return cls(lambda t: np.asarray(t, float) ** p, 0.0, "power", {"p": p})

    @classmethod
    def shifted_ramp(cls, a):
        """phi(t) = max(0, (t - a) / (1 - a)) for 0 < a < 1; vanishes on [0, a].

        Its nodes are those of the table through (0, 0), (a, 0), (1, 1).
        """
        a = float(a)
        if not (0.0 < a < 1.0):
            raise LatticeSpecError(f"ramp offset must lie in (0,1), got {a}")
        return cls(
            lambda t: np.maximum(0.0, (np.asarray(t, float) - a) / (1.0 - a)),
            a,
            "shifted_ramp",
            {"a": a},
            nodes=(np.array([0.0, a, 1.0]), np.array([0.0, 0.0, 1.0]), 1.0 / (1.0 - a)),
        )

    @classmethod
    def from_table(cls, points):
        """Piecewise-linear phi through ``points`` [(t, y), ...].

        Nodes must start at (0, 0), have strictly increasing t and
        nondecreasing y; beyond the last node the final segment is extended
        linearly.  Only monotonicity is validated here; an Orlicz norm spec
        also requires convexity.
        """
        pts = sorted((float(t), float(y)) for t, y in points)
        ts = np.array([t for t, _ in pts])
        ys = np.array([y for _, y in pts])
        if len(ts) < 2:
            raise LatticeSpecError("table needs at least two nodes")
        if ts[0] != 0.0 or ys[0] != 0.0:
            raise LatticeSpecError("table must start at (0, 0)")
        if np.any(np.diff(ts) <= 0):
            raise LatticeSpecError("table abscissae must be strictly increasing")
        if np.any(np.diff(ys) < 0):
            raise LatticeSpecError("table values must be nondecreasing")
        slope = (ys[-1] - ys[-2]) / (ts[-1] - ts[-2])

        def evaluator(t):
            t = np.asarray(t, float)
            out = np.interp(t, ts, ys)
            return np.where(t > ts[-1], ys[-1] + (t - ts[-1]) * slope, out)

        zero = np.nonzero(ys == 0.0)[0]
        a_phi = ts[zero[-1]] if len(zero) else 0.0
        return cls(evaluator, a_phi, "table", {"ts": tuple(ts), "ys": tuple(ys)},
                   nodes=(ts, ys, slope))


def generalized_inverse(phi, s):
    """inf{t >= 0 : phi(t) >= s}, in closed form.

    A power phi gives s**(1/p); the shifted ramp gives a + s (1 - a).  A
    table takes the first node with y_k >= s (``searchsorted``, side "left")
    and interpolates linearly on the segment that ends there, so a flat
    segment at level s returns its left end; beyond the last node it follows
    the tail slope.  Returns 0 for s = 0.  Raises
    :class:`UnreachableLevelError` when phi stays below s, which for a table
    means a tail slope of 0.  Limit queries s -> 0+ should go through
    ``phi.a_phi`` instead.
    """
    s = float(s)
    if s < 0:
        raise ValueError(f"level must be nonnegative, got {s}")
    if s == 0.0:
        return 0.0
    if phi.nodes is None:
        return s ** (1.0 / phi.params["p"])
    ts, ys, tail = phi.nodes
    k = int(np.searchsorted(ys, s, side="left"))
    if k < len(ys):
        return float(ts[k - 1] + (s - ys[k - 1]) / (ys[k] - ys[k - 1]) * (ts[k] - ts[k - 1]))
    if tail == 0:
        raise UnreachableLevelError(f"phi does not reach level {s}")
    return float(ts[-1] + (s - ys[-1]) / tail)


# ---------------------------------------------------------------------------
# Norm specs
# ---------------------------------------------------------------------------

class LatticeNormSpec:
    """One of the four solid norm families, on indices {0, ..., index_size-1}.

    Use the constructors :func:`sup_norm`, :func:`weighted_sup`,
    :func:`lp_norm`, :func:`orlicz_norm` or :func:`spec_from_dict`.
    """

    def __init__(self, kind, index_size, weights=None, p=None, phi=None):
        if index_size < 1 or index_size != int(index_size):
            raise LatticeSpecError(f"index_size must be a positive integer, got {index_size}")
        self.kind = kind
        self.index_size = int(index_size)
        self.weights = None
        self.p = None
        self.phi = None
        if kind == "sup":
            pass
        elif kind == "weighted_sup":
            w = np.asarray(weights, dtype=float)
            if w.shape != (self.index_size,):
                raise LatticeSpecError("need one weight per index")
            if not np.all(np.isfinite(w)) or np.any(w < 1.0):
                raise LatticeSpecError("weights must be finite and >= 1")
            self.weights = w
        elif kind == "lp":
            p = float(p)
            if not (np.isfinite(p) and p >= 1.0):
                raise LatticeSpecError(f"lp exponent must satisfy 1 <= p < inf, got {p}")
            self.p = p
        elif kind == "orlicz":
            if not isinstance(phi, OrliczFunction):
                raise LatticeSpecError("orlicz spec needs an OrliczFunction")
            # Admissibility gate: phi(1) >= 1 and phi > 1 beyond t = 1, so that
            # ||delta_i|| >= 1 and the sup norm is dominated.  phi is
            # nondecreasing, so its value just past 1 decides the second.
            if float(phi(1.0)) < 1.0 - 1e-12:
                raise LatticeSpecError("phi(1) >= 1 required for sup-norm domination")
            if float(phi(1.0 + 1e-9)) <= 1.0:
                raise LatticeSpecError("phi must exceed 1 strictly beyond t = 1")
            # Convexity makes the Luxemburg functional a norm; the bilinear
            # certificates and the square-sum enumeration rely on it.
            if phi.nodes is not None:
                ts, ys, _ = phi.nodes
                slopes = np.diff(ys) / np.diff(ts)
                if np.any(slopes[1:] < slopes[:-1] * (1.0 - 1e-12)):
                    raise LatticeSpecError("phi must be convex, but the table's slopes decrease")
            self.phi = phi
        else:
            raise LatticeSpecError(f"unknown norm family {kind!r}")

    def __repr__(self):
        extra = {
            "sup": "",
            "weighted_sup": f", w={self.weights}",
            "lp": f", p={self.p}",
            "orlicz": f", phi={self.phi}",
        }[self.kind]
        return f"LatticeNormSpec({self.kind}, n={self.index_size}{extra})"


def sup_norm(index_size):
    return LatticeNormSpec("sup", index_size)


def weighted_sup(weights):
    weights = np.asarray(weights, float)
    return LatticeNormSpec("weighted_sup", len(weights), weights=weights)


def lp_norm(p, index_size):
    return LatticeNormSpec("lp", index_size, p=p)


def orlicz_norm(phi, index_size):
    return LatticeNormSpec("orlicz", index_size, phi=phi)


def restrict_spec(spec, indices):
    """The same norm family on a subset of coordinates (in the given order)."""
    indices = list(indices)
    if len(indices) == 0:
        raise LatticeSpecError("cannot restrict to an empty index set")
    if any(i < 0 or i >= spec.index_size for i in indices):
        raise LatticeSpecError("restriction indices out of range")
    if spec.kind == "sup":
        return sup_norm(len(indices))
    if spec.kind == "weighted_sup":
        return weighted_sup(spec.weights[indices])
    if spec.kind == "lp":
        return lp_norm(spec.p, len(indices))
    return orlicz_norm(spec.phi, len(indices))


# ---------------------------------------------------------------------------
# Norm evaluation
# ---------------------------------------------------------------------------

def _validate_vector(spec, x):
    x = np.asarray(x)
    if x.shape != (spec.index_size,):
        raise ValueError(f"vector length {x.shape} does not match index_size {spec.index_size}")
    ax = np.abs(x).astype(float)
    if not np.all(np.isfinite(ax)):
        raise ValueError("vector entries must be finite")
    return ax


def _lp_batch(rows, p):
    """(sum_i x_i**p)**(1/p) per row, scaled by the row maximum."""
    m = rows.max(axis=1)
    safe = np.where(m > 0, m, 1.0)
    return safe * ((rows / safe[:, None]) ** p).sum(axis=1) ** (1.0 / p)


def _piecewise_luxemburg(phi, r, m):
    """The breakpoint solve of :func:`luxemburg_batch` for a piecewise-linear
    phi, on nonzero rows r with maxima m."""
    ts = phi.nodes[0][1:]
    top = 2.0 * max(ts[-1], 1.0)
    unit = (r / m[:, None])[:, :, None]
    knots = np.full(unit.shape[:2] + ts.shape, top)
    np.divide(ts, unit, out=knots, where=ts < top * unit)
    edge = np.zeros((len(r), 1))
    knots = np.sort(np.concatenate([edge, knots.reshape(len(r), -1), edge + top], axis=1))
    level = phi(unit * knots[:, None, :]).sum(axis=1)
    # level[:, 0] = S(0) = 0, so the first knot with S > 1 has index j >= 1
    i, j = np.arange(len(r)), np.argmax(level > 1.0, axis=1)
    u0, u1, s0, s1 = knots[i, j - 1], knots[i, j], level[i, j - 1], level[i, j]
    return m / (u0 + (1.0 - s0) / (s1 - s0) * (u1 - u0))


def luxemburg_batch(phi, rows):
    """Luxemburg norms inf{lam > 0 : sum_i phi(x_i / lam) <= 1} of the rows
    of a nonnegative matrix, in closed form; rows of zeros get norm 0.

    A power phi gives the lp norm.  For a piecewise-linear phi and a row r
    scaled to maximum 1, S(u) = sum_i phi(r_i u) is piecewise linear with
    breakpoints t_k / r_i at the nodes t_k.  The knot ``top`` has
    S(top) >= phi(top) > 1 by the admissibility gate and stands in for every
    breakpoint beyond it, so zero coordinates add none.  On the segment
    before the first sorted knot with S > 1, S(u*) = 1 is one linear
    equation, and the norm is max_i x_i / u*.  Rounding is corrected towards
    the feasible side: the returned lam satisfies sum_i phi(x_i / lam) <= 1
    as evaluated, stepped up by ``np.nextafter`` where it did not.  The
    solve takes rows x n x (n K + 2) floats for K nodes, so it runs on
    blocks of rows that keep this under ``LUXEMBURG_BLOCK``; rows are
    independent, so blocking changes no value.
    """
    rows = np.asarray(rows, dtype=float)
    m = rows.max(axis=1)
    out = np.zeros(rows.shape[0])
    active = m > 0
    if not np.any(active):
        return out
    r, m = rows[active], m[active]
    if phi.nodes is None:
        lam = _lp_batch(r, phi.params["p"])
    else:
        n, nodes = r.shape[1], len(phi.nodes[0]) - 1
        step = max(1, LUXEMBURG_BLOCK // (n * (n * nodes + 2)))
        lam = np.concatenate([_piecewise_luxemburg(phi, r[i:i + step], m[i:i + step])
                              for i in range(0, len(r), step)])
    bad = phi(r / lam[:, None]).sum(axis=1) > 1.0
    while np.any(bad):
        lam[bad] = np.nextafter(lam[bad], np.inf)
        bad[bad] = phi(r[bad] / lam[bad, None]).sum(axis=1) > 1.0
    out[active] = lam
    return out


def norm_eval_batch(spec, rows):
    """Norms of the rows of a (batch, index_size) array of moduli."""
    rows = np.abs(np.asarray(rows)).astype(float)
    if spec.kind == "sup":
        return rows.max(axis=1)
    if spec.kind == "weighted_sup":
        return (rows * spec.weights).max(axis=1)
    if spec.kind == "lp":
        return _lp_batch(rows, spec.p)
    return luxemburg_batch(spec.phi, rows)


def norm_eval(spec, x):
    """The lattice norm of a coefficient vector (moduli are taken internally)."""
    ax = _validate_vector(spec, x)
    return float(norm_eval_batch(spec, ax[None, :])[0])


def dual_norm_batch(spec, rows):
    """Dual norms, under the pairing sum_i f_i x_i, of the rows of a
    (batch, index_size) array of moduli: sup <-> sum, weighted sup <->
    sum_i |f_i| / w_i, lp <-> lq (the max for p = 1).  The Orlicz dual is
    not implemented."""
    rows = np.abs(np.asarray(rows)).astype(float)
    if spec.kind == "sup":
        return rows.sum(axis=1)
    if spec.kind == "weighted_sup":
        return (rows / spec.weights).sum(axis=1)
    if spec.kind == "lp":
        if spec.p == 1.0:
            return rows.max(axis=1)
        return _lp_batch(rows, spec.p / (spec.p - 1.0))
    raise NotImplementedError("dual norm for Orlicz lattices is not implemented")


def dual_extremal(spec, f):
    """x with ||x|| <= 1 and sum_i f_i x_i = dual(f) (:func:`dual_norm_batch`):
    f's conjugate phases times 1 (sup), 1/w (weighted sup), |f|^(q-1) (lp,
    scaled by max |f|), or at the largest |f_i| alone (l1)."""
    a = np.abs(np.asarray(f))
    phase = np.exp(-1j * np.angle(f))
    if spec.kind == "sup":
        x = phase
    elif spec.kind == "weighted_sup":
        x = phase / spec.weights
    elif spec.kind != "lp":
        raise NotImplementedError("dual norm for Orlicz lattices is not implemented")
    elif spec.p == 1.0:
        x = np.where(np.arange(len(a)) == a.argmax(), phase, 0.0)
    else:
        x = phase * (a / (a.max() or 1.0)) ** (1.0 / (spec.p - 1.0))
    return x / (norm_eval_batch(spec, x[None, :])[0] or 1.0)


def dual_vs_l2(spec):
    """Constants (R, S) with dual(f) <= R ||f||_2 and ||f||_2 <= S dual(f)
    for every f on the index set, with ``dual`` as in :func:`dual_norm_batch`."""
    k = spec.index_size
    if spec.kind == "sup":            # dual lattice ell_1
        return np.sqrt(k), 1.0
    if spec.kind == "weighted_sup":   # dual lattice sum(u_i / w_i)
        return np.sqrt(float(np.sum(1.0 / spec.weights ** 2))), float(np.max(spec.weights))
    if spec.kind == "lp":             # dual lattice ell_q, q = inf for p = 1
        q = np.inf if spec.p == 1.0 else spec.p / (spec.p - 1.0)
        return max(1.0, k ** max(0.0, 1.0 / q - 0.5)), k ** max(0.0, 0.5 - 1.0 / q)
    raise NotImplementedError("dual norm for Orlicz lattices is not implemented")


def delta_norm(spec, i):
    """Norm of the i-th coordinate unit vector."""
    if not (0 <= i < spec.index_size):
        raise IndexError(f"index {i} out of range")
    if spec.kind == "sup":
        return 1.0
    if spec.kind == "weighted_sup":
        return float(spec.weights[i])
    if spec.kind == "lp":
        return 1.0
    return 1.0 / generalized_inverse(spec.phi, 1.0)


def chi_norm(spec, subset_size):
    """Worst-case norm of an indicator vector of ``subset_size`` coordinates.

    Closed forms: sup -> 1; weighted sup -> the largest weight (the worst
    subset contains it); lp -> n**(1/p); orlicz -> 1 / phi_inv(1/n).  All are
    cross-checkable against :func:`norm_eval` on an explicit indicator.
    """
    n = int(subset_size)
    if n < 1 or n > spec.index_size:
        raise ValueError(f"subset size must lie in [1, {spec.index_size}], got {subset_size}")
    if spec.kind == "sup":
        return 1.0
    if spec.kind == "weighted_sup":
        return float(np.max(spec.weights))
    if spec.kind == "lp":
        return float(n) ** (1.0 / spec.p)
    return 1.0 / generalized_inverse(spec.phi, 1.0 / n)


def worst_indicator(spec, subset_size):
    """An explicit indicator vector attaining :func:`chi_norm`."""
    n = int(subset_size)
    x = np.zeros(spec.index_size)
    if spec.kind == "weighted_sup":
        order = np.argsort(spec.weights)[::-1]
        x[order[:n]] = 1.0
    else:
        x[:n] = 1.0
    return x


def max_square_sum(spec):
    """S = sup{sum_i |x_i|^2 : ||x|| <= 1} with a nonnegative maximiser x*,
    as (S, x*): closed forms for sup, weighted sup, lp, power and the ramp,
    an exact enumeration for a table (:func:`_table_square_sum`)."""
    n = spec.index_size
    if spec.kind == "sup":
        return float(n), np.ones(n)
    if spec.kind == "weighted_sup":
        return float(np.sum(1.0 / spec.weights ** 2)), 1.0 / spec.weights
    if spec.kind == "lp" or spec.phi.family == "power":
        p = spec.p if spec.kind == "lp" else spec.phi.params["p"]
        if p <= 2.0:
            return 1.0, np.eye(n)[0]
        return max(1.0, n ** (1.0 - 2.0 / p)), np.full(n, n ** (-1.0 / p))
    if spec.phi.family == "shifted_ramp":
        a = spec.phi.params["a"]
        # One coordinate at 1 exhausts the modular budget; the rest sit at
        # the degeneracy plateau a.
        return 1.0 + (n - 1) * a * a, np.array([1.0] + [a] * (n - 1))
    return _table_square_sum(spec.phi, n)


def _table_square_sum(phi, n):
    """(S, x*) for a convex table phi, by enumerating extreme points.

    sum x^2 is convex, so it peaks at an extreme point of the unit ball
    {x >= 0 : sum_i phi(x_i) <= 1}.  Two coordinates inside linear pieces
    could trade modular mass both ways, so at most one coordinate of an
    extreme point lies off a node.  The other n - 1 sit at nodes: a_phi
    dominates the other zero nodes, and the nodes with 0 < phi(t_k) <= 1
    fill at most 1 / min phi(t_k) slots.  The last coordinate takes what is
    left, max(a_phi, phi_inv(1 - used)).  Node multisets grow one slot at a
    time and are counted before they are built, so a table that needs more
    than ``MAX_TABLE_CANDIDATES`` raises at once.  S is rounded up one ulp,
    because it feeds a certified lower bound.
    """
    ts, ys, _ = phi.nodes
    a = phi.a_phi
    live = (ys > 0.0) & (ys <= 1.0)
    t, y = ts[live], ys[live]           # y increases, as phi is convex
    # a level holds the multisets of j nodes: parent row, last node, used, sum of squares
    levels = [(None, np.zeros(1, int), np.zeros(1), np.zeros(1))]
    count = 1
    for _ in range(n - 1):
        _, last, used, sq = levels[-1]
        width = np.maximum(np.searchsorted(y, 1.0 - used, side="right") - last, 0)
        total = int(width.sum())
        if total == 0:
            break
        count += total
        if count > MAX_TABLE_CANDIDATES:
            raise LatticeSpecError(f"the square-sum of this table on {n} coordinates needs "
                                   f"more than {MAX_TABLE_CANDIDATES} node multisets")
        parent = np.repeat(np.arange(len(last)), width)
        node = last[parent] + np.arange(total) - (np.cumsum(width) - width)[parent]
        levels.append((parent, node, used[parent] + y[node], sq[parent] + t[node] ** 2))

    def rest(u):
        return max(a, generalized_inverse(phi, max(0.0, 1.0 - u)))

    best = (-1.0, 0, 0)
    for j, (_, _, used, sq) in enumerate(levels):
        value = sq + (n - 1 - j) * a * a + np.array([rest(u) for u in used]) ** 2
        k = int(np.argmax(value))
        best = max(best, (float(value[k]), j, k))
    s, j, k = best
    x = [rest(levels[j][2][k])]
    for parent, node, _, _ in levels[j:0:-1]:   # back through the parent rows
        x.append(t[node[k]])
        k = parent[k]
    return float(np.nextafter(s, np.inf)), np.array(x + [a] * (n - 1 - j))


class CeReport:
    """Value of the uniformity constant at the finite horizon, plus the
    analytic verdict for the family on an unbounded index set."""

    def __init__(self, value, bounded, limit, growth):
        self.value = float(value)
        self.bounded = bool(bounded)
        self.limit = None if limit is None else float(limit)
        self.growth = growth

    def as_dict(self):
        return {
            "value": self.value,
            "bounded": self.bounded,
            "limit": self.limit,
            "growth": self.growth,
        }

    def __repr__(self):
        return f"CeReport(value={self.value}, bounded={self.bounded}, limit={self.limit}, growth={self.growth!r})"


def ce_constant(spec):
    """Largest indicator norm over all subset sizes at the configured horizon.

    The asymptotic verdict is reported analytically per family, never by
    extrapolating numbers: sup and weighted sup stay bounded, lp grows like
    n**(1/p), and an Orlicz family is bounded exactly when phi degenerates
    near 0 (a_phi > 0), with limit 1/a_phi.
    """
    n = spec.index_size
    if spec.kind == "sup":
        return CeReport(1.0, True, 1.0, "constant")
    if spec.kind == "weighted_sup":
        top = float(np.max(spec.weights))
        return CeReport(top, True, top, "constant")
    if spec.kind == "lp":
        return CeReport(n ** (1.0 / spec.p), False, None, f"n**(1/{spec.p:g})")
    value = chi_norm(spec, n)
    if spec.phi.a_phi > 0:
        return CeReport(value, True, 1.0 / spec.phi.a_phi, "constant")
    return CeReport(value, False, None, "1/phi_inv(1/n)")


# ---------------------------------------------------------------------------
# JSON interface
# ---------------------------------------------------------------------------

def required_key(doc, key, what, error=LatticeSpecError, array=False):
    """``doc[key]`` of a JSON object describing ``what``.  A document that is
    not an object, lacks the key, or (with ``array``) holds something other
    than a JSON array under it, raises ``error`` naming both."""
    if not isinstance(doc, dict):
        raise error(f"{what} must be a JSON object, got {type(doc).__name__}")
    if key not in doc:
        raise error(f"{what} is missing the key {key!r}")
    value = doc[key]
    if array and not isinstance(value, list):
        raise error(f"{what} key {key!r} must be a JSON array, got {type(value).__name__}")
    return value


def values_from_json(raw):
    """A complex coefficient vector from a JSON array whose entries are
    numbers or [re, im] pairs; a malformed entry raises ValueError naming
    its position."""
    if not isinstance(raw, list):
        raise ValueError(f"coefficients must be a JSON array, got {type(raw).__name__}")
    out = []
    for i, v in enumerate(raw):
        try:
            if isinstance(v, list):
                re, im = v
                out.append(complex(re, im))
            else:
                out.append(complex(v))
        except (TypeError, ValueError):
            raise ValueError(f"coefficient {i} must be a number or an [re, im] pair, "
                             f"got {json.dumps(v)}") from None
    return np.asarray(out, dtype=complex)


def _is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def numbers_from_json(raw, what, error=LatticeSpecError):
    """A float array from nested JSON arrays of numbers.  An entry at any
    depth that is not a number (an object, a string, null, a boolean), or
    a ragged nesting, raises ``error`` naming ``what``."""
    stack = [raw]
    while stack:
        v = stack.pop()
        if isinstance(v, list):
            stack.extend(v)
        elif not _is_number(v):
            raise error(f"{what} must hold only numbers, got {json.dumps(v)}")
    try:
        return np.asarray(raw, dtype=float)
    except ValueError:
        raise error(f"{what} must be a regular array of numbers") from None


def number_from_json(raw, what, error=LatticeSpecError):
    """A JSON number as a float; anything else raises ``error`` naming
    ``what``."""
    if not _is_number(raw):
        raise error(f"{what} must be a number, got {json.dumps(raw)}")
    return float(raw)


def integer_from_json(raw, what, error=LatticeSpecError):
    """A whole JSON number as an int; anything else raises ``error`` naming
    ``what``."""
    if not (_is_number(raw) and (isinstance(raw, int) or raw.is_integer())):
        raise error(f"{what} must be an integer, got {json.dumps(raw)}")
    return int(raw)


def phi_from_dict(d):
    family = required_key(d, "family", "Orlicz function")
    if family == "power":
        return OrliczFunction.power(number_from_json(required_key(d, "p", "power function"),
                                                     "power function key 'p'"))
    if family == "shifted_ramp":
        return OrliczFunction.shifted_ramp(number_from_json(
            required_key(d, "a", "shifted_ramp function"), "shifted_ramp function key 'a'"))
    if family == "table":
        what = "table function key 'points'"
        points = numbers_from_json(required_key(d, "points", "table function", array=True), what)
        if points.ndim != 2 or points.shape[1] != 2:
            raise LatticeSpecError(f"{what} must hold [t, y] pairs")
        return OrliczFunction.from_table(points)
    raise LatticeSpecError(f"unknown Orlicz family {family!r}")


def spec_from_dict(d):
    kind = required_key(d, "kind", "norm spec")
    if kind == "weighted_sup":
        w = numbers_from_json(required_key(d, "weights", "weighted_sup spec", array=True),
                              "weighted_sup spec key 'weights'")
        n = d.get("index_size")
        if n is not None and len(w) != integer_from_json(n, "weighted_sup spec key 'index_size'"):
            raise LatticeSpecError("index_size disagrees with the weight list")
        return weighted_sup(w)
    if kind not in ("sup", "lp", "orlicz"):
        raise LatticeSpecError(f"unknown norm family {kind!r}")
    n = integer_from_json(required_key(d, "index_size", f"{kind} spec"),
                          f"{kind} spec key 'index_size'")
    if kind == "sup":
        return sup_norm(n)
    if kind == "lp":
        return lp_norm(number_from_json(required_key(d, "p", "lp spec"), "lp spec key 'p'"), n)
    return orlicz_norm(phi_from_dict(required_key(d, "phi", "orlicz spec")), n)


def load_spec(path):
    with open(path) as fh:
        return spec_from_dict(json.load(fh))
