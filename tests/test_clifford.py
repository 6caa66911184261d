"""Blade arithmetic, involutions, and the Chevalley map."""

import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spinpairs
from spinpairs.clifford import (MAX_DIM, CliffordElement, ExteriorElement,
                                QuadraticSpace, SpaceMismatchError, basis_vector, blade,
                                blade_product, blade_sign_mask, chevalley_T, chevalley_T_inv,
                                chevalley_T_vectors, complex_space, complexify_element,
                                exterior_apply_map, exterior_vector, from_vector,
                                real_space, reorder_sign, reorder_signs,
                                scalar_element, _reorder_masks)


def random_exact_element(rng, space, nterms=4):
    # Gaussian-integer coefficients: sums and products stay exact in doubles
    dim = space.dim
    terms = {}
    for _ in range(nterms):
        m = int(rng.integers(1 << dim))
        terms[m] = complex(int(rng.integers(-4, 5)), int(rng.integers(-4, 5)))
    return CliffordElement(space, terms)


def random_float_element(rng, space, nterms=5):
    dim = space.dim
    terms = {int(rng.integers(1 << dim)): complex(rng.normal(), rng.normal())
             for _ in range(nterms)}
    return CliffordElement(space, terms)


# --- blade products ---------------------------------------------------------

def test_blade_product_disjoint_ascending():
    E = real_space(2)
    assert blade_product(0b01, 0b10, E) == (0b11, 1)


def test_blade_product_one_transposition():
    E = real_space(2)
    assert blade_product(0b10, 0b01, E) == (0b11, -1)


def test_blade_product_generator_square_is_norm():
    E = QuadraticSpace("real", (-1,))
    assert blade_product(0b1, 0b1, E) == (0, -1)


def test_reorder_sign_matches_inversion_count():
    # e2e3 * e1 moves e1 past two generators
    assert reorder_sign(0b110, 0b001) == 1
    assert reorder_sign(0b110, 0b010) == -1


def _oracle_blade_product(a, b, norms):
    """Concatenate the index lists, bubble-sort counting transpositions, then
    contract equal neighbours by their norm."""
    idx = range(len(norms))
    seq = [i for i in idx if a >> i & 1] + [i for i in idx if b >> i & 1]
    swaps = 0
    for end in range(len(seq) - 1, 0, -1):
        for k in range(end):
            if seq[k] > seq[k + 1]:
                seq[k], seq[k + 1] = seq[k + 1], seq[k]
                swaps += 1
    reorder = -1 if swaps % 2 else 1
    coeff, kept = reorder, []
    for i in seq:
        if kept and kept[-1] == i:
            kept.pop()
            coeff *= norms[i]
        else:
            kept.append(i)
    return reorder, sum(1 << i for i in kept), coeff


@st.composite
def _blade_pairs(draw):
    n = draw(st.integers(1, MAX_DIM))
    norms = tuple(draw(st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n)))
    mask = st.integers(0, (1 << n) - 1)
    return norms, draw(mask), draw(mask)


@given(_blade_pairs())
@settings(max_examples=200, deadline=None)
def test_blade_kernel_matches_bubble_sort_oracle(case):
    norms, a, b = case
    space = QuadraticSpace("real", norms)
    reorder, mask, coeff = _oracle_blade_product(a, b, norms)
    assert reorder_sign(a, b) == reorder
    assert blade_product(a, b, space) == (mask, coeff)
    assert (a & blade_sign_mask(b, space)).bit_count() & 1 == (coeff < 0)
    wedge = ExteriorElement(space, {a: 1}) ^ ExteriorElement(space, {b: 1})
    assert wedge.terms == ({} if a & b else {a | b: complex(reorder)})


def test_array_reorder_signs_match_reorder_sign():
    small = np.arange(1 << 8)
    # b one int, and b an array broadcast against a
    grid = reorder_signs(small[:, None], small)
    for b in range(1 << 8):
        want = [reorder_sign(a, b) for a in range(1 << 8)]
        assert reorder_signs(small, b).tolist() == grid[:, b].tolist() == want, b
    # masks on bit MAX_DIM - 1, where _reorder_mask's negative masks reach the int64 sign bit
    rng = np.random.default_rng(61)
    top = 1 << (MAX_DIM - 1)
    wide = [int(m) | top * int(k) for m, k in zip(rng.integers(0, top, 64), rng.integers(0, 2, 64))]
    for b in wide[:32] + [top, top | 1]:
        assert reorder_signs(np.array(wide), b).tolist() == [reorder_sign(a, b) for a in wide], b


def test_array_sign_masks_match_blade_sign_mask():
    # the array K(b) of the array product, on masks using bit MAX_DIM - 1
    rng = np.random.default_rng(62)
    space = QuadraticSpace("real", tuple(int(n) for n in rng.choice((1, -1), MAX_DIM)))
    top = 1 << (MAX_DIM - 1)
    b = rng.integers(0, top, 256) | top * rng.integers(0, 2, 256)
    got = _reorder_masks(b) ^ (b & space.negative_mask)
    low = (1 << MAX_DIM) - 1
    assert [int(k) & low for k in got] == [blade_sign_mask(int(m), space) & low for m in b]


def dense_element(rng, space, nterms, real=False):
    # nterms distinct blades; real coefficients keep signed zeros in the products
    masks = rng.choice(1 << space.dim, size=nterms, replace=False)
    return CliffordElement(space, {int(m): complex(rng.normal(), 0.0 if real else rng.normal())
                                   for m in masks})


def _bits(terms):
    # blades in dict order with the exact bits of both parts; hex tells -0.0 from 0.0
    return [(m, c.real.hex(), c.imag.hex()) for m, c in terms.items()]


# the array path starts at 1024 term pairs; 700 x 300 at dim 12 takes four
# blocks of the grid, and at dim 16 64 x 64 has too many bins a pair for it
MUL_CASES = [
    ((2, 2), (12, 12), False, False),
    ((4, 4), (40, 40), False, True),
    ((1, 5), (30, 30), False, False),
    ((6, 6), (64, 32), True, True),
    ((6, 6), (700, 300), False, True),
    ((8, 8), (128, 128), False, True),
    ((8, 8), (64, 64), False, False),
]


@pytest.mark.parametrize("pq, sizes, real, array", MUL_CASES,
                         ids=[f"pq{i}" for i in range(len(MUL_CASES))])
def test_mul_bit_identical_to_blade_product_loop(pq, sizes, real, array, array_products):
    # the reference sums each coefficient in the product's own order, so both
    # paths must match its terms bit for bit, signed zeros and dict order
    # included, on ten seeded draws per case
    space = real_space(*pq)
    rng = np.random.default_rng(sum(pq) + sizes[0])
    for _ in range(10):
        x, y = (dense_element(rng, space, n, real) for n in sizes)
        want = {}
        for ma, ca in x.terms.items():
            for mb, cb in y.terms.items():
                m, sign = blade_product(ma, mb, space)
                contrib = ca * cb if sign == 1 else -(ca * cb)
                want[m] = want[m] + contrib if m in want else contrib
        want = CliffordElement(space, want).terms
        if real:
            assert {math.copysign(1.0, c.imag) for c in want.values()} == {1.0, -1.0}
        assert _bits((x * y).terms) == _bits(want)
    assert array_products == ([sizes] * 10 if array else [])


def test_mul_dispatch_reads_term_counts_and_dim(array_products):
    # array path: at least 1024 term pairs, at most four bins a pair and 2**16 bins
    rng = np.random.default_rng(9)
    cases = [(8, (31, 33), False), (8, (32, 32), True), (12, (32, 32), True),
             (12, (31, 33), False), (16, (64, 64), False), (17, (256, 128), False)]
    for dim, sizes, array in cases:
        space = real_space(dim)
        x, y = (dense_element(rng, space, n) for n in sizes)
        del array_products[:]
        x * y
        assert array_products == ([sizes] if array else []), (dim, sizes)


def test_array_product_memory_is_blocked():
    # 1024 x 1024 terms at dim 12 is 2**20 term pairs, whose unblocked grid
    # would hold 24 MiB in its blade indices and coefficients alone; blocks of
    # 2**16 pairs keep the traced peak near 3.3 MiB
    space = real_space(6, 6)
    rng = np.random.default_rng(12)
    x, y = dense_element(rng, space, 1024), dense_element(rng, space, 1024)
    tracemalloc.start()
    try:
        x * y
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * 2**20


@st.composite
def _gaussian_integer_factors(draw):
    n = draw(st.integers(1, 12))
    norms = tuple(draw(st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n)))
    terms = st.dictionaries(st.integers(0, (1 << n) - 1),
                            st.tuples(st.integers(-4, 4), st.integers(-4, 4)), max_size=8)
    return norms, draw(terms), draw(terms)


@given(_gaussian_integer_factors())
@settings(max_examples=200, deadline=None)
def test_mul_matches_integer_oracle(case):
    # the exact reference for the product: Python ints over the bubble-sort oracle
    norms, a, b = case
    want = {}
    for ma, (ar, ai) in a.items():
        for mb, (br, bi) in b.items():
            _, m, sign = _oracle_blade_product(ma, mb, norms)
            re, im = want.get(m, (0, 0))
            want[m] = (re + sign * (ar * br - ai * bi), im + sign * (ar * bi + ai * br))
    space = QuadraticSpace("real", norms)
    x, y = (CliffordElement(space, {m: complex(*c) for m, c in t.items()}) for t in (a, b))
    assert (x * y).terms == {m: complex(*c) for m, c in want.items() if c != (0, 0)}


def test_mul_matches_integer_oracle_on_the_array_path(array_products):
    # the hypothesis oracle's products stay under the array threshold; these
    # dense Gaussian-integer products are above it at dim 8 to 10
    rng = np.random.default_rng(810)
    for dim, sizes in ((8, (48, 40)), (9, (64, 32)), (10, (40, 40))):
        norms = tuple(int(s) for s in rng.choice((1, -1), size=dim))
        a, b = ({int(m): (int(rng.integers(-4, 5)), int(rng.integers(-4, 5)))
                 for m in rng.choice(1 << dim, size=n, replace=False)} for n in sizes)
        want = {}
        for ma, (ar, ai) in a.items():
            for mb, (br, bi) in b.items():
                _, m, sign = _oracle_blade_product(ma, mb, norms)
                re, im = want.get(m, (0, 0))
                want[m] = (re + sign * (ar * br - ai * bi), im + sign * (ar * bi + ai * br))
        space = QuadraticSpace("real", norms)
        x, y = (CliffordElement(space, {m: complex(*c) for m, c in t.items()}) for t in (a, b))
        assert (x * y).terms == {m: complex(*c) for m, c in want.items() if c != (0, 0)}
    assert len(array_products) == 3


def test_bit_tricks_and_exact_conversion_only_in_clifford():
    # the blade-sign kernel and coefficient conversion live in clifford.py alone
    banned = ("bin(", '.count("1")', ".bit_length()", "bitwise_count(", ".to_complex()")
    for path in Path(spinpairs.__file__).parent.glob("*.py"):
        if path.name != "clifford.py":
            text = path.read_text()
            assert not [b for b in banned if b in text], path.name


# --- multiplication ---------------------------------------------------------

@pytest.mark.parametrize("norms", [(1, 1), (1, -1), (-1, -1)])
def test_mul_difference_of_squares(norms):
    E = QuadraticSpace("real", norms)
    one = scalar_element(E, 1)
    e1 = basis_vector(E, 0)
    lhs = (one + e1) * (one - e1)
    assert lhs.equals_exact(scalar_element(E, 1 - norms[0]))


@pytest.mark.parametrize("norms", [(1, 1), (1, -1), (-1, -1)])
def test_mul_bivector_square(norms):
    E = QuadraticSpace("real", norms)
    b = blade(E, [0, 1])
    assert (b * b).equals_exact(scalar_element(E, -norms[0] * norms[1]))


def test_mul_associative_random_exact():
    rng = np.random.default_rng(11)
    E = QuadraticSpace("real", (1, 1, -1, -1, 1))
    for _ in range(40):
        x = random_exact_element(rng, E)
        y = random_exact_element(rng, E)
        z = random_exact_element(rng, E)
        assert ((x * y) * z).equals_exact(x * (y * z))


def test_mul_space_mismatch():
    E1, E2 = real_space(2), real_space(3)
    with pytest.raises(SpaceMismatchError):
        basis_vector(E1, 0) * basis_vector(E2, 0)


@given(st.integers(0, 31), st.integers(0, 31), st.integers(0, 31))
@settings(max_examples=200, deadline=None)
def test_blade_mul_associative_hypothesis(a, b, c):
    E = QuadraticSpace("real", (1, -1, 1, -1, 1))
    xa, xb, xc = (CliffordElement(E, {m: 1}) for m in (a, b, c))
    assert ((xa * xb) * xc).equals_exact(xa * (xb * xc))


def test_dimension_closure():
    E = QuadraticSpace("real", (1, -1, 1))
    rng = np.random.default_rng(5)
    x = random_exact_element(rng, E, nterms=8)
    y = random_exact_element(rng, E, nterms=8)
    assert all(m < (1 << E.dim) for m in (x * y).terms)


def test_anticommutation_relations():
    E = QuadraticSpace("real", (1, 1, -1))
    for i in range(3):
        for j in range(3):
            ei, ej = basis_vector(E, i), basis_vector(E, j)
            anti = ei * ej + ej * ei
            want = scalar_element(E, 2 * E.norms[i] if i == j else 0)
            assert anti.equals_exact(want)


# --- involutions ------------------------------------------------------------

def test_alpha_on_vector():
    E = real_space(2)
    e1 = basis_vector(E, 0)
    assert e1.alpha().equals_exact(-e1)


def test_alpha_even_blade_fixed():
    E = real_space(2)
    b = blade(E, [0, 1])
    assert b.alpha().equals_exact(b)


def test_tau_reverses_bivector():
    E = real_space(2)
    b = blade(E, [0, 1])
    assert b.tau().equals_exact(-b)


def test_tau_fixes_vectors():
    E = real_space(3)
    v = from_vector(E, [1, 2, -3])
    assert v.tau().equals_exact(v)


@pytest.mark.parametrize("make", [from_vector, exterior_vector])
@pytest.mark.parametrize("coords", [[1, 2], [1, 2, 3, 4]])
def test_vector_constructors_reject_wrong_length(make, coords):
    with pytest.raises(ValueError, match="space of dimension 3"):
        make(real_space(3), coords)


@given(st.integers(0, 200))
@settings(max_examples=60, deadline=None)
def test_involution_properties_hypothesis(seed):
    rng = np.random.default_rng(seed)
    E = QuadraticSpace("real", (1, 1, -1, -1))
    x = random_exact_element(rng, E)
    y = random_exact_element(rng, E)
    assert x.alpha().alpha().equals_exact(x)
    assert x.tau().tau().equals_exact(x)
    # automorphism / anti-automorphism / commuting pair
    assert (x * y).alpha().equals_exact(x.alpha() * y.alpha())
    assert (x * y).tau().equals_exact(y.tau() * x.tau())
    assert x.alpha().tau().equals_exact(x.tau().alpha())


# --- Chevalley map ----------------------------------------------------------

def test_chevalley_identity_on_blades():
    E = real_space(3)
    w = ExteriorElement(E, {0b011: 1})
    assert chevalley_T(w).equals_exact(blade(E, [0, 1]))


def test_chevalley_on_nonorthogonal_wedge():
    # v1 = e1 + e2, v2 = e1 - e2: T(v1 ^ v2) must equal (v1 v2 - v2 v1)/2
    E = QuadraticSpace("real", (1, -1))
    v1 = from_vector(E, [1, 1])
    v2 = from_vector(E, [1, -1])
    w1 = exterior_vector(E, [1, 1])
    w2 = exterior_vector(E, [1, -1])
    lhs = chevalley_T(w1 ^ w2)
    rhs = (v1 * v2 - v2 * v1).scale(0.5)
    assert lhs.equals_exact(rhs)
    # and against the full antisymmetrization oracle
    assert lhs.equals_exact(chevalley_T_vectors([v1, v2]))


def test_chevalley_roundtrip_random():
    rng = np.random.default_rng(9)
    E = QuadraticSpace("real", (1, 1, -1, -1))
    for _ in range(20):
        w = ExteriorElement(E, {int(rng.integers(16)): int(rng.integers(-3, 4))
                                for _ in range(5)})
        assert chevalley_T_inv(chevalley_T(w)).equals_exact(w)


def test_wedge_nilpotent_and_antisymmetric():
    E = real_space(4)
    rng = np.random.default_rng(2)
    v = exterior_vector(E, rng.normal(size=4))
    w = exterior_vector(E, rng.normal(size=4))
    assert not (v ^ v).terms
    assert not ((v ^ w) + (w ^ v)).terms


@given(st.integers(0, 100))
@settings(max_examples=40, deadline=None)
def test_wedge_associative_hypothesis(seed):
    rng = np.random.default_rng(seed)
    E = QuadraticSpace("real", (1, 1, -1, -1, 1))
    def rand():
        return ExteriorElement(E, {int(rng.integers(32)): int(rng.integers(-3, 4))
                                   for _ in range(4)})
    u, v, w = rand(), rand(), rand()
    assert ((u ^ v) ^ w).equals_exact(u ^ (v ^ w))


def test_exterior_apply_map_is_factorwise():
    E = real_space(3)
    rng = np.random.default_rng(4)
    g = rng.normal(size=(3, 3))
    v = rng.normal(size=3)
    w = rng.normal(size=3)
    lhs = exterior_apply_map(g, exterior_vector(E, v) ^ exterior_vector(E, w))
    rhs = exterior_vector(E, g @ v) ^ exterior_vector(E, g @ w)
    assert lhs.isclose(rhs, 1e-10)


def test_exterior_apply_map_rejects_mismatched_matrix():
    with pytest.raises(ValueError):
        exterior_apply_map(np.arange(25.).reshape(5, 5), exterior_vector(complex_space(4), [1, 2, 3, 4]))


# --- complexification -------------------------------------------------------

def test_complexify_element_is_algebra_map():
    E = QuadraticSpace("real", (1, -1, -1))
    rng = np.random.default_rng(8)
    for _ in range(20):
        x = random_float_element(rng, E)
        y = random_float_element(rng, E)
        lhs = complexify_element(x * y)
        rhs = complexify_element(x) * complexify_element(y)
        assert lhs.isclose(rhs, 1e-9)


def test_complexify_preserves_generator_squares():
    E = QuadraticSpace("real", (1, -1))
    for k in range(2):
        img = complexify_element(basis_vector(E, k))
        sq = img * img
        assert sq.isclose(scalar_element(complex_space(2), E.norms[k]), 1e-12)


def test_space_validation():
    with pytest.raises(ValueError):
        QuadraticSpace("real", (1, 2))
    with pytest.raises(ValueError):
        QuadraticSpace("complex", (1, -1))
    with pytest.raises(ValueError):
        QuadraticSpace("real", (1,) * 63)
    assert QuadraticSpace("real", (1, -1, -1)).signature == (1, 2)


def test_blade_arithmetic_at_large_dimension():
    # single-word masks stay exact up to the 62-generator cap
    rng = np.random.default_rng(62)
    for dim in (20, 40, 62):
        E = QuadraticSpace("real", tuple(1 if k % 3 else -1 for k in range(dim)))
        for _ in range(50):
            a, b, c = (int(rng.integers(1 << dim)) for _ in range(3))
            m1, c1 = blade_product(a, b, E)
            m2, c2 = blade_product(m1, c, E)
            n1, d1 = blade_product(b, c, E)
            n2, d2 = blade_product(a, n1, E)
            assert (m2, c1 * c2) == (n2, d1 * d2)
