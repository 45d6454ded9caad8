import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from esum_lab import esum as es
from esum_lab import jsum as js


def scalar_identity_system(levels):
    return js.JSystem([0] + [1] * levels, [np.zeros((1, 0))] + [np.eye(1)] * (levels - 1))


def random_system(rng, max_levels=7, max_dim=3):
    dims = [0] + [int(rng.integers(1, max_dim + 1))
                  for _ in range(int(rng.integers(2, max_levels)))]
    bonds = []
    for lo, hi in zip(dims, dims[1:]):
        raw = rng.standard_normal((hi, lo)) + 1j * rng.standard_normal((hi, lo))
        if raw.size:
            s = np.linalg.svd(raw, compute_uv=False)
            if s.size and s[0] > 0:
                raw = raw / (s[0] * (1.0 + rng.random()))
        bonds.append(raw)
    return js.JSystem(dims, bonds)


def random_element(rng, system, support=None):
    coords = []
    for n, d in enumerate(system.dims):
        if n == 0 or (support is not None and n not in support):
            coords.append(np.zeros(d, complex))
        else:
            coords.append(rng.standard_normal(d) + 1j * rng.standard_normal(d))
    return js.JElement(system, coords)


def scalar_algebra_system(levels, bond_bits):
    dims = [0] + [1] * levels
    bonds = [np.zeros((1, 0))] + [np.eye(1) * float(b) for b in bond_bits]
    structures = [np.zeros((0, 0, 0))] + [np.ones((1, 1, 1))] * levels
    return js.JSystem(dims, bonds, structures=structures)


class TestSystemValidation:
    def test_level_zero_must_be_trivial(self):
        with pytest.raises(js.JSystemError):
            js.JSystem([1, 2], [np.ones((2, 1))])

    def test_contractivity_enforced(self):
        with pytest.raises(js.JSystemError):
            js.JSystem([0, 1, 1], [np.zeros((1, 0)), 1.5 * np.eye(1)])

    def test_contractivity_error_names_the_first_offending_bond(self):
        dims = [0, 1, 3, 2, 2, 2]
        bonds = [np.zeros((1, 0)), np.ones((3, 1)) / np.sqrt(3.0),
                 np.array([[1.5, 0.0, 0.0], [0.0, 0.5, 0.0]]), np.eye(2), 2.0 * np.eye(2)]
        with pytest.raises(js.JSystemError, match=r"^bond 2 has operator norm 1\.5 > 1$"):
            js.JSystem(dims, bonds)

    def test_storage_keeps_shapes(self):
        system = js.JSystem([0, 1, 3, 0, 2], [np.zeros((1, 0)), np.ones((3, 1)) / 2,
                                              np.zeros((0, 3)), np.zeros((2, 0))])
        assert [b.shape for b in system.bonds] == [(1, 0), (3, 1), (0, 3), (2, 0)]
        assert system.offsets == [0, 0, 1, 4, 4, 6]
        assert system.entry_level.tolist() == [1, 2, 2, 2, 4, 4]
        x = js.JElement(system, [[], [1.0], [1.0, 2.0, 3.0], [], [4.0, 5.0]])
        assert np.array_equal(x.entries, [1.0, 1.0, 2.0, 3.0, 4.0, 5.0])
        assert [c.shape for c in x.coords] == [(0,), (1,), (3,), (0,), (2,)]
        x.coords[2][1] = 7.0
        assert x.entries[2] == 7.0

    def test_bond_count(self):
        with pytest.raises(js.JSystemError):
            js.JSystem([0, 1, 1], [np.zeros((1, 0))])

    def test_multiplicative_bonds_enforced(self):
        dims = [0, 1, 1]
        bonds = [np.zeros((1, 0)), 0.5 * np.eye(1)]  # scaling is not multiplicative
        structures = [np.zeros((0, 0, 0)), np.ones((1, 1, 1)), np.ones((1, 1, 1))]
        with pytest.raises(js.JSystemError):
            js.JSystem(dims, bonds, structures=structures)

    def test_bond_off_by_one_part_in_a_million_is_refused(self):
        # bond(b b) = 1 - 1e-6 but bond(b) bond(b) = (1 - 1e-6)^2
        structures = [np.zeros((0, 0, 0)), np.ones((1, 1, 1)), np.ones((1, 1, 1))]
        with pytest.raises(js.JSystemError, match="^bond 1 is not multiplicative$"):
            js.JSystem([0, 1, 1], [np.zeros((1, 0)), [[1.0 - 1e-6]]], structures=structures)

    @pytest.mark.parametrize("defect, accepted", [(2e-9, False), (5e-10, True)])
    def test_bond_multiplicativity_tolerance_is_1e_9(self, defect, accepted):
        # on C^2, diag(1, s) maps b_1 b_1 = b_1 to s b_1 and b_1 to s b_1,
        # whose square is s^2 b_1: a defect of s - s^2, about 1 - s
        cube = es.pointwise_algebra(2).structure
        bonds = [np.zeros((2, 0)), np.diag([1.0, 1.0 - defect])]
        structures = [np.zeros((0, 0, 0)), cube, cube]
        if accepted:
            assert js.JSystem([0, 2, 2], bonds, structures=structures).has_algebra
        else:
            with pytest.raises(js.JSystemError, match="^bond 1 is not multiplicative$"):
                js.JSystem([0, 2, 2], bonds, structures=structures)

    def test_asymmetric_multiplicative_bond_accepted(self):
        cube = np.zeros((2, 2, 2))
        cube[0, 0, 0] = cube[1, 1, 1] = 1.0
        shift = np.array([[0.0, 0.0], [1.0, 0.0]])  # e1 -> e2, e2 -> 0
        system = js.JSystem([0, 2, 2], [np.zeros((2, 0)), shift],
                            structures=[np.zeros((0, 0, 0)), cube, cube])
        assert system.has_algebra
        x = js.JElement(system, [[], [1.0, 0.0], [0.0, 0.0]])
        y = js.jmul(x, x)
        assert np.allclose(y.coords[1], [1.0, 0.0])
        # a genuinely non-multiplicative asymmetric bond is rejected
        bad = np.array([[0.0, 0.0], [0.5, 0.0]])
        with pytest.raises(js.JSystemError):
            js.JSystem([0, 2, 2], [np.zeros((2, 0)), bad],
                       structures=[np.zeros((0, 0, 0)), cube, cube])

    def test_non_associative_level_rejected(self):
        c = np.zeros((2, 2, 2))
        c[0, 0, 1] = c[1, 1, 0] = c[0, 1, 0] = 1.0   # (b0 b0) b1 != b0 (b0 b1)
        with pytest.raises(js.JSystemError, match="level 1.*not associative"):
            js.JSystem([0, 2], [np.zeros((2, 0))], structures=[np.zeros((0, 0, 0)), c])

    def test_level_breaking_euclidean_product_bound_rejected(self):
        # b b = 2 b gives |uv| = 2 |u| |v| in the Euclidean norm
        with pytest.raises(js.JSystemError, match="level 1.*not submultiplicative"):
            js.JSystem([0, 1], [np.zeros((1, 0))],
                       structures=[np.zeros((0, 0, 0)), [[[2.0]]]])

    def test_compose_caches_and_extends(self):
        system = scalar_identity_system(3)
        assert np.allclose(system.compose(1, 3), np.eye(1))
        assert np.allclose(system.compose(2, 6), np.eye(1))  # identity past the top
        with pytest.raises(js.JSystemError):
            system.compose(3, 1)


class TestSigmaRho:
    def test_spike_through_zero(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            system = random_system(rng)
            n = int(rng.integers(1, system.top + 1))
            v = rng.standard_normal(system.dims[n])
            x = js.JElement.from_support(system, {n: v})
            nv = np.linalg.norm(v)
            assert abs(js.sigma(x, [0, n]) - nv) <= 1e-12
            assert abs(js.rho(x, [0, n]) - np.sqrt(2) * nv) <= 1e-12

    def test_zero_element(self):
        system = scalar_identity_system(4)
        zero = js.JElement(system, [[], [0], [0], [0], [0]])
        assert js.sigma(zero, [0, 2, 4]) == 0.0
        assert js.rho(zero, [1, 3]) == 0.0

    def test_hand_value(self):
        system = scalar_identity_system(2)
        x = js.JElement(system, [[], [1.0], [1.0]])
        assert abs(js.sigma(x, [0, 1, 2]) - 1.0) <= 1e-15
        assert abs(js.rho(x, [0, 1, 2]) - np.sqrt(2)) <= 1e-15

    def test_singleton_chain(self):
        system = scalar_identity_system(3)
        x = js.JElement(system, [[], [2.0], [0.0], [0.0]])
        assert js.sigma(x, [1]) == 0.0
        assert js.rho(x, [1]) == 2.0

    def test_chain_validation(self):
        system = scalar_identity_system(3)
        x = js.JElement(system, [[], [1.0], [0.0], [0.0]])
        with pytest.raises(ValueError):
            js.sigma(x, [2, 1])
        with pytest.raises(ValueError):
            js.sigma(x, [])
        with pytest.raises(ValueError):
            js.rho(x, [0, 99])


class TestJNorm:
    def test_singleton_isometry(self):
        rng = np.random.default_rng(1)
        for _ in range(60):
            system = random_system(rng)
            n = int(rng.integers(1, system.top + 1))
            v = rng.standard_normal(system.dims[n]) + 1j * rng.standard_normal(system.dims[n])
            x = js.JElement.from_support(system, {n: v})
            assert abs(js.jnorm(x) - np.linalg.norm(v)) <= 1e-12

    def test_zero(self):
        system = scalar_identity_system(3)
        assert js.jnorm(js.JElement(system, [[], [0], [0], [0]])) == 0.0

    def test_two_ones(self):
        system = scalar_identity_system(2)
        x = js.JElement(system, [[], [1.0], [1.0]])
        assert abs(js.jnorm(x) - 1.0) <= 1e-15
        assert abs(js.jnorm_bruteforce(x, horizon=3) - 1.0) <= 1e-15

    def test_dp_matches_bruteforce(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            system = random_system(rng)
            x = random_element(rng, system)
            assert abs(js.jnorm(x) - js.jnorm_bruteforce(x)) <= 1e-12

    def test_horizon_extension_never_grows(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            system = random_system(rng, max_levels=6)
            x = random_element(rng, system)
            base = js.jnorm(x)
            assert abs(js.jnorm_bruteforce(x, horizon=system.top + 5) - base) <= 1e-12
            assert abs(js.jnorm(x, horizon=system.top + 5) - base) <= 1e-12

    def test_coordinate_bound(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            system = random_system(rng)
            x = random_element(rng, system)
            jx = js.jnorm(x)
            for n in range(1, system.top + 1):
                assert np.linalg.norm(x.coords[n]) <= jx * (1 + 1e-9) + 1e-12

    def test_sigma_rho_jnorm_chain_bounds(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            system = random_system(rng)
            x = random_element(rng, system)
            jx = js.jnorm(x)
            for _ in range(6):
                size = int(rng.integers(1, system.top + 2))
                chain = sorted(rng.choice(system.top + 2, size=size, replace=False))
                s, r = js.sigma(x, chain), js.rho(x, chain)
                assert s <= r * (1 + 1e-12)
                assert r <= np.sqrt(2) * jx * (1 + 1e-9) + 1e-12

    def test_bruteforce_horizon_cap(self):
        system = scalar_identity_system(25)
        x = random_element(np.random.default_rng(6), system, support={1})
        with pytest.raises(ValueError):
            js.jnorm_bruteforce(x)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(dims=st.lists(st.integers(0, 3), min_size=1, max_size=5),
       zero_bonds=st.lists(st.booleans(), min_size=5, max_size=5),
       seed=st.integers(0, 2 ** 32 - 1))
def test_jnorm_matches_chain_oracle(dims, zero_bonds, seed):
    """On random contractive systems (zero bonds and zero-dimensional
    levels included), jnorm equals the largest rho over every nonempty
    chain in [0, top + 1], divided by sqrt(2).  rho composes the bonds
    through JSystem.compose, so the oracle shares no table with jnorm or
    jnorm_bruteforce; a longer horizon never changes the value."""
    rng = np.random.default_rng(seed)
    dims = [0] + dims
    bonds = []
    for (lo, hi), zero in zip(zip(dims, dims[1:]), zero_bonds):
        raw = rng.standard_normal((hi, lo)) + 1j * rng.standard_normal((hi, lo))
        top = np.linalg.svd(raw, compute_uv=False)[0] if raw.size else 0.0
        bonds.append(np.zeros((hi, lo)) if zero or top == 0 else raw / (top * (1.0 + rng.random())))
    system = js.JSystem(dims, bonds)
    x = js.JElement(system, [rng.standard_normal(d) + 1j * rng.standard_normal(d) for d in dims])
    h = system.top + 1
    oracle = max(js.rho(x, chain) for size in range(1, h + 2)
                 for chain in combinations(range(h + 1), size)) / np.sqrt(2.0)
    assert abs(js.jnorm(x) - oracle) <= 1e-12
    assert abs(js.jnorm(x, horizon=system.top + 3) - oracle) <= 1e-12


def column_stack_jnorm(x, horizon=None):
    """The one-level-at-a-time forward pass: level q stacks x_{q-1} onto the
    carried columns bond(p -> q-1)(x_p) and maps them with bond(q-1 -> q).
    The reference that jnorm's blocked pass must reproduce."""
    system = x.system
    h = system.top + 1 if horizon is None else int(horizon)
    best = np.zeros(h + 1)
    carried = np.zeros((system.level_dim(0), 0), complex)
    answer = 0.0
    for q in range(h + 1):
        xq = x.coord(q)
        if q:
            carried = system.bond_at(q - 1) @ np.column_stack([carried, x.coord(q - 1)])
            diff = carried - xq[:, None]
            best[q] = np.max(best[:q] + (diff.real ** 2 + diff.imag ** 2).sum(axis=0))
        answer = max(answer, best[q] + float(np.linalg.norm(xq)) ** 2)
    return float(np.sqrt(answer / 2.0))


def random_chain_element(rng, top):
    """An element on every level of a contractive system with levels 0..top,
    widths 0-3 (zero-dimensional levels included) and about one bond in five
    zero.  The other bonds have norm in [0.9, 1], so long transports stay
    visible in the links."""
    dims = [0] + [int(rng.integers(0, 4)) for _ in range(top)]
    bonds = []
    for lo, hi in zip(dims, dims[1:]):
        raw = rng.standard_normal((hi, lo)) + 1j * rng.standard_normal((hi, lo))
        norm = np.linalg.svd(raw, compute_uv=False)[0] if raw.size else 0.0
        zero = norm == 0 or rng.random() < 0.2
        bonds.append(np.zeros((hi, lo)) if zero else raw / (norm * (1.0 + 0.1 * rng.random())))
    system = js.JSystem(dims, bonds)
    return js.JElement(system, [rng.standard_normal(d) + 1j * rng.standard_normal(d) for d in dims])


def assert_within_2ulp(value, expected):
    assert abs(value - expected) <= 2 * np.finfo(float).eps * expected, (value, expected)


@pytest.mark.parametrize("horizon", [1, 15, 16, 17, 31, 32, 33, 129])
def test_jnorm_matches_column_stack_pass(horizon):
    """Horizons on both sides of the 16-level blocks of jnorm's forward pass;
    horizon 1 lies below the default horizon of the smallest system."""
    rng = np.random.default_rng(horizon)
    for _ in range(4):
        x = random_chain_element(rng, max(horizon - 1, 1))
        assert_within_2ulp(js.jnorm(x), column_stack_jnorm(x))
        assert_within_2ulp(js.jnorm(x, horizon=horizon), column_stack_jnorm(x, horizon))


def test_jnorm_matches_column_stack_pass_at_explicit_horizons():
    rng = np.random.default_rng(11)
    for _ in range(3):
        x = random_chain_element(rng, 40)
        for horizon in (0, 1, 2, 16, 17, 39, 40, 41, 42, 48, 49, 75):
            assert_within_2ulp(js.jnorm(x, horizon=horizon), column_stack_jnorm(x, horizon))


def test_skewed_chain_pads_only_its_own_block():
    """One 200-wide level ahead of 200 scalar levels.  Padding every bond to
    the widest level would hold 200 * 200^2 complex values (128 MB), and a
    buffer as wide as the horizon in the first block 17 * 200 * 202 (11 MB);
    building the system and element and taking the norm stay under 8 MB."""
    rng = np.random.default_rng(3)
    dims = [0, 200] + [1] * 200
    row = rng.standard_normal((1, 200)) + 1j * rng.standard_normal((1, 200))
    bonds = [np.zeros((200, 0)), row / (1.1 * np.linalg.norm(row))] + [0.9 * np.eye(1)] * 199
    coords = [rng.standard_normal(d) + 1j * rng.standard_normal(d) for d in dims]
    tracemalloc.start()
    try:
        x = js.JElement(js.JSystem(dims, bonds), coords)
        value = js.jnorm(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6, peak
    assert_within_2ulp(value, column_stack_jnorm(x))
    for horizon in (1, 2, 17, 40, 230):
        assert_within_2ulp(js.jnorm(x, horizon=horizon), column_stack_jnorm(x, horizon))


def test_jnorm_of_zero_width_systems():
    for dims in ([0, 0], [0, 0, 0]):
        system = js.JSystem(dims, [np.zeros((0, 0))] * (len(dims) - 1))
        x = js.JElement(system, [[]] * len(dims))
        assert js.jnorm(x) == 0.0
        assert js.jnorm(x, horizon=17) == 0.0
        assert column_stack_jnorm(x, 17) == 0.0


def test_negative_horizon_refused():
    x = js.JElement(scalar_identity_system(2), [[], [1.0], [1.0]])
    with pytest.raises(ValueError, match="horizon must be nonnegative"):
        js.jnorm(x, horizon=-1)


class TestMultiplication:
    def test_requires_algebra(self):
        system = scalar_identity_system(2)
        x = js.JElement(system, [[], [1.0], [0.0]])
        with pytest.raises(js.JSystemError):
            js.jmul(x, x)

    def test_disjoint_supports(self):
        system = scalar_algebra_system(4, [1, 1, 1])
        x = js.JElement.from_support(system, {1: [1.0]})
        y = js.JElement.from_support(system, {3: [2.0]})
        assert js.jnorm(js.jmul(x, y)) == 0.0

    def test_spike_product(self):
        system = scalar_algebra_system(3, [1, 1])
        x = js.JElement.from_support(system, {2: [1.0]})
        out = js.jmul(x, x)
        assert abs(js.jnorm(out) - 1.0) <= 1e-12
        assert js.jnorm(out) <= js.MUL_BOUND * js.jnorm(x) ** 2 + 1e-12

    def test_sampled_product_inequalities(self):
        rng = np.random.default_rng(7)
        cube = np.zeros((2, 2, 2))
        cube[0, 0, 0] = cube[1, 1, 1] = 1.0
        swap = np.array([[0.0, 1.0], [1.0, 0.0]])
        proj = np.diag([1.0, 0.0])
        shift = np.array([[0.0, 0.0], [1.0, 0.0]])
        for trial in range(80):
            levels = int(rng.integers(2, 6))
            if trial % 2:
                system = scalar_algebra_system(levels, rng.integers(0, 2, size=levels - 1))
            else:
                choices = [np.eye(2), swap, proj, shift, np.zeros((2, 2))]
                bonds = [np.zeros((2, 0))] + [choices[rng.integers(0, len(choices))]
                                              for _ in range(levels - 1)]
                system = js.JSystem([0] + [2] * levels, bonds,
                                    structures=[np.zeros((0, 0, 0))] + [cube] * levels)
            x = random_element(rng, system)
            y = random_element(rng, system)
            xy = js.jmul(x, y)
            sx, sy = x.sup_norm(), y.sup_norm()
            for _ in range(10):
                size = int(rng.integers(1, system.top + 2))
                chain = sorted(rng.choice(system.top + 2, size=size, replace=False))
                assert js.sigma(xy, chain) <= (
                    sy * js.sigma(x, chain) + sx * js.sigma(y, chain)
                ) * (1 + 1e-9) + 1e-12
            assert js.jnorm(xy) <= js.MUL_BOUND * js.jnorm(x) * js.jnorm(y) * (1 + 1e-9) + 1e-12


class TestOmega:
    def test_identity_tail(self):
        system = js.JSystem([0] + [2] * 5, [np.zeros((2, 0))] + [np.eye(2)] * 4)
        v = np.array([3.0, 4.0])
        rep = js.omega_seminorm(system, [[], v], 1, 5)
        assert abs(rep["value"] - 5.0) <= 1e-12
        assert rep["error_bar"] == 0.0

    def test_halving_tail(self):
        system = js.JSystem([0] + [1] * 31, [np.zeros((1, 0))] + [0.5 * np.eye(1)] * 30)
        rep = js.omega_seminorm(system, [[], [1.0]], 1, 31 - 1)
        assert rep["value"] <= 2.0 ** -28
        assert rep["error_bar"] >= 0.0

    def test_rotation_tail(self):
        theta = 1.1
        rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
        system = js.JSystem([0] + [2] * 6, [np.zeros((2, 0))] + [rot] * 5)
        v = np.array([0.7, -0.2])
        rep = js.omega_seminorm(system, [[], v], 1, 6)
        assert abs(rep["value"] - np.linalg.norm(v)) <= 1e-12
        assert rep["error_bar"] <= 1e-12

    def test_coherence_violation(self):
        system = js.JSystem([0] + [1] * 3, [np.zeros((1, 0))] + [np.eye(1)] * 2)
        with pytest.raises(js.CoherenceError):
            js.omega_seminorm(system, [[], [1.0], [2.0]], 1, 3)

    def test_horizon_bounds(self):
        system = js.JSystem([0] + [1] * 3, [np.zeros((1, 0))] + [np.eye(1)] * 2)
        with pytest.raises(ValueError):
            js.omega_seminorm(system, [[], [1.0]], 1, 9)
        with pytest.raises(ValueError):
            js.omega_seminorm(system, [[], [1.0]], 5, 3)

    def test_submultiplicative_sampled(self):
        cube = np.zeros((2, 2, 2))
        cube[0, 0, 0] = cube[1, 1, 1] = 1.0
        swap = np.array([[0.0, 1.0], [1.0, 0.0]])
        system = js.JSystem(
            [0] + [2] * 6,
            [np.zeros((2, 0))] + [swap, np.eye(2), swap, np.diag([1.0, 0.0]), np.eye(2)],
            structures=[np.zeros((0, 0, 0))] + [cube] * 6,
        )
        rep = js.omega_submult_check(system, samples=200, rng=np.random.default_rng(8))
        assert rep["ok"]
        with pytest.raises(ValueError, match="samples must be nonnegative, got -5"):
            js.omega_submult_check(system, samples=-5)


class TestBimonotone:
    def test_inner_window_example(self):
        system = scalar_identity_system(2)
        x = js.JElement(system, [[], [1.0], [1.0]])
        inner = js.jnorm(js.JElement(system, [[], [0.0], [1.0]]))
        assert abs(inner - 1.0) <= 1e-15
        assert inner <= js.jnorm(x) + 1e-15
        rep = js.bimonotone_check(x, samples=30, rng=np.random.default_rng(9))
        assert rep["ok"]
        with pytest.raises(ValueError, match="samples must be nonnegative, got -5"):
            js.bimonotone_check(x, samples=-5)

    def test_sampled_windows(self):
        rng = np.random.default_rng(10)
        for _ in range(60):
            system = random_system(rng, max_levels=6)
            x = random_element(rng, system)
            rep = js.bimonotone_check(x, samples=10, rng=rng)
            assert rep["ok"], rep


def test_json_roundtrip():
    payload = {
        "dims": [0, 1, 1],
        "bonds": [[[0.0] * 0], [[1.0]]],
        "algebra": [[[[0.0] * 0] * 0] * 0, [[[1.0]]], [[[1.0]]]],
    }
    payload["bonds"][0] = np.zeros((1, 0)).tolist()
    system = js.system_from_dict(payload)
    assert system.has_algebra
    x = js.element_from_dict(system, {"coords": [[], [[1.0, 0.0]], [1.0]]})
    assert abs(js.jnorm(x) - 1.0) <= 1e-15
