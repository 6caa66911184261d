"""Pin membership, projection, lifting, commutators, and covers."""

import numpy as np
import pytest

from spinpairs.clifford import (CliffordElement, QuadraticSpace, basis_vector, blade,
                                exterior_vector, chevalley_T, real_space, scalar_element)
from spinpairs.families import build_pair
from spinpairs.groups import LoopGenerator, OrthogonalMap
from spinpairs.pin import (MAX_COMMUTATOR_TERM_PAIRS, MAX_PATH_STEPS, LiftError, NotPinError,
                           PinElement, _commutator_term_pairs, all_commute, canonical_sign,
                           classify_extension, commutator_pairing, commutator_sign,
                           label_from_loop_signs, lift, loop_lift_sign, pin_element, project)

RNG = np.random.default_rng(77)


def random_isometry(space, rng, reflect_prob=0.5):
    n = space.dim
    B = np.diag(np.array(space.norms, dtype=float))
    A = rng.normal(size=(n, n))
    X = A - B @ A.T @ B          # X^T B + B X = 0
    import scipy.linalg as sla
    g = sla.expm(0.6 * X / max(1.0, np.abs(X).max()))
    if rng.random() < reflect_prob:
        k = int(rng.integers(n))
        refl = np.eye(n)
        refl[k, k] = -1.0
        g = g @ refl
    return OrthogonalMap(space, g)


# --- membership and projection ------------------------------------------------

def test_unit_vector_projects_to_reflection():
    E = real_space(3)
    x = pin_element(basis_vector(E, 0))
    P = project(x).matrix
    assert np.allclose(P, np.diag([-1.0, 1.0, 1.0]))


def test_negative_norm_vector_is_pin():
    E = QuadraticSpace("real", (1, -1))
    x = pin_element(basis_vector(E, 1))
    assert x.spinor_norm == -1
    assert np.allclose(project(x).matrix, np.diag([1.0, -1.0]))


def test_minus_one_projects_to_identity():
    E = real_space(2)
    x = pin_element(scalar_element(E, -1.0))
    assert np.allclose(project(x).matrix, np.eye(2))


def test_rotation_blade_projects_to_rotation():
    E = real_space(2)
    theta = 0.9
    x = pin_element(CliffordElement(
        E, {0: np.cos(theta / 2), 0b11: -np.sin(theta / 2)}))
    R = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    assert np.allclose(project(x).matrix, R, atol=1e-12)


def test_non_homogeneous_rejected():
    E = real_space(2)
    with pytest.raises(NotPinError):
        pin_element(scalar_element(E, 1.0) + basis_vector(E, 0))


def test_non_unit_scalar_rejected():
    E = real_space(2)
    with pytest.raises(NotPinError):
        pin_element(scalar_element(E, 2.0))


def test_unit_norm_but_non_group_element_rejected():
    # (1 + e1e2e3e4)/sqrt(2) is even with unit coefficient norm, but its
    # tau-norm is 1 + e1234, not a scalar
    E = real_space(4)
    x = (scalar_element(E, 1.0) + blade(E, [0, 1, 2, 3])).scale(1 / np.sqrt(2))
    with pytest.raises(NotPinError):
        pin_element(x)


def test_projection_is_homomorphism():
    E = QuadraticSpace("real", (1, 1, -1))
    rng = np.random.default_rng(5)
    for _ in range(100):
        x = lift(random_isometry(E, rng))
        y = lift(random_isometry(E, rng))
        lhs = project(x * y).matrix
        rhs = project(x).matrix @ project(y).matrix
        assert np.allclose(lhs, rhs, atol=1e-8)


# --- lifting -------------------------------------------------------------------

def test_lift_identity_is_scalar():
    E = real_space(2)
    x = lift(OrthogonalMap(E, np.eye(2)))
    assert abs(abs(complex(x.value.coeff(0))) - 1) < 1e-12
    assert np.allclose(project(x).matrix, np.eye(2))


def test_lift_reflection_is_vector():
    E = real_space(3)
    g = OrthogonalMap(E, np.diag([-1.0, 1.0, 1.0]))
    x = lift(g)
    assert set(x.value.terms) == {0b001}


@pytest.mark.parametrize("pq", [(2, 0), (1, 1), (2, 2), (4, 4)])
def test_lift_round_trip(pq):
    E = real_space(*pq)
    rng = np.random.default_rng(sum(pq))
    for _ in range(30):
        g = random_isometry(E, rng)
        x = lift(g)
        assert np.allclose(project(x).matrix, g.matrix, atol=1e-9)


def test_lift_terminal_identity_check():
    # a non-isometry cannot be factored into reflections; a rounding-sized
    # defect still lifts and projects back
    E = real_space(2, 2)
    with pytest.raises(LiftError, match="did not terminate"):
        lift(OrthogonalMap(E, np.eye(4) + 1e-3 * np.ones((4, 4))))
    with np.errstate(invalid="ignore"), pytest.raises(LiftError, match="did not terminate"):
        lift(OrthogonalMap(E, np.full((4, 4), np.nan)))
    g = np.eye(4) + 1e-12 * np.ones((4, 4))
    assert np.allclose(project(lift(OrthogonalMap(E, g))).matrix, g, atol=1e-9)


def test_fiber_has_two_elements():
    E = real_space(2, 2)
    rng = np.random.default_rng(1)
    for _ in range(20):
        g = random_isometry(E, rng)
        x = lift(g)
        y = lift(project(x))       # re-lift the projection: must collide
        same = x.value.distance(y.value)
        opp = x.value.distance((-y).value)
        assert min(same, opp) < 1e-8 < max(same, opp)


def test_lift_complex_ambient():
    spec = build_pair("O_C", (2, 2))
    g = spec.G.component_reps[0].map
    x = lift(g)
    assert np.allclose(project(x).matrix, g.matrix, atol=1e-9)


def test_lift_null_rotation_exercises_isotropic_fallback():
    # unipotent isometry of O(2,2) displacing e1 by an isotropic vector: the
    # first pivot g(e1) - e1 is null, forcing the g(e1) + e1 branch
    E = real_space(2, 2)
    B = np.diag(np.array(E.norms, dtype=float))
    w = np.array([0.0, 1.0, 0.0, 1.0])          # e2 + e4, null, orthogonal to e1
    e1 = np.eye(4)[0]
    X = np.outer(w, B @ e1) - np.outer(e1, B @ w)
    g = np.eye(4) + X + X @ X / 2.0
    gm = OrthogonalMap(E, g)
    assert gm.is_isometry(1e-12)
    assert abs((g[:, 0] - e1) @ B @ (g[:, 0] - e1)) < 1e-12   # truly isotropic pivot
    x = lift(gm)
    assert np.allclose(project(x).matrix, g, atol=1e-9)


# --- explicit commutation witnesses -------------------------------------------

def test_complex_orthogonal_witness_blades_commute_exactly():
    # realified O(2,C) x O(2,C) in O(4,4): the det -1 lifts are the blades
    # k1 k3 l1 l3 and k1 k2 l1 l2 in the k/l basis, and they commute
    E = real_space(4, 4)
    g = blade(E, [0, 2, 4, 6])
    h = blade(E, [0, 1, 4, 5])
    assert (g * h).equals_exact(h * g)
    # g projects to the embedded (negate e_1) ox id, h to id ox (negate f_m)
    spec = build_pair("O_C_real", (2, 2))
    refl_first = np.diag([-1.0, 1.0]).astype(complex)
    refl_last = np.diag([1.0, -1.0]).astype(complex)
    for elt, want in ((g, spec.G.embed_group(refl_first)),
                      (h, spec.Gp.embed_group(refl_last))):
        x = pin_element(elt)
        assert np.allclose(project(x).matrix, want.matrix, atol=1e-12)


def test_gl_witness_blades_commute_exactly():
    # GL(n,R) x GL(m,R) in O(nm,nm): s~ = prod_j b+_{1j} b-_{1j},
    # t~ = prod_i b+_{i1} b-_{i1}; the products commute
    for n, m in [(2, 2), (2, 3), (3, 2)]:
        d = n * m
        E = real_space(d, d)
        s_idx = [j for j in range(m)] + [d + j for j in range(m)]
        t_idx = [i * m for i in range(n)] + [d + i * m for i in range(n)]
        s = blade(E, sorted(s_idx))
        t = blade(E, sorted(t_idx))
        assert (s * t).equals_exact(t * s)
        spec = build_pair("GL_R", (n, m))
        x = pin_element(s)
        assert np.allclose(project(x).matrix, spec.G.component_reps[0].map.matrix,
                           atol=1e-12)
        y = pin_element(t)
        assert np.allclose(project(y).matrix, spec.Gp.component_reps[0].map.matrix,
                           atol=1e-12)


def test_complex_orthogonal_witness_blades_asymmetric_sizes():
    # same witnesses at (n,m) = (2,3) and (3,2): g over the arithmetic
    # progression {(m-t)n+1}, h over the consecutive block {1..n}
    for n, m in [(2, 3), (3, 2)]:
        d = n * m
        E = real_space(d, d)
        g_idx = [(m - 1 - t) * n for t in range(m)]
        h_idx = list(range(n))
        g = blade(E, sorted(g_idx) + sorted(d + i for i in g_idx))
        h = blade(E, sorted(h_idx) + sorted(d + i for i in h_idx))
        assert (g * h).equals_exact(h * g)
        spec = build_pair("O_C_real", (n, m))
        refl_first = np.diag([-1.0 if k == 0 else 1.0 for k in range(n)]).astype(complex)
        refl_last = np.diag([-1.0 if k == m - 1 else 1.0 for k in range(m)]).astype(complex)
        for elt, want in ((g, spec.G.embed_group(refl_first)),
                          (h, spec.Gp.embed_group(refl_last))):
            x = pin_element(elt)
            assert np.allclose(project(x).matrix, want.matrix, atol=1e-12)


def test_lift_parity_matches_determinant():
    E = real_space(2, 2)
    rng = np.random.default_rng(21)
    for _ in range(20):
        g = random_isometry(E, rng)
        x = lift(g)
        assert (-1.0) ** x.parity == pytest.approx(np.linalg.det(g.matrix), abs=1e-8)


def test_negative_control_anticommutes():
    # O(1) x O(2) in O(2): lifts e1e2 and e1 anticommute
    E = real_space(2)
    x = pin_element(blade(E, [0, 1]))
    y = pin_element(basis_vector(E, 0))
    assert commutator_sign(x, y) == -1
    recs = commutator_pairing(build_pair("O_real", ((1, 0), (2, 0))))
    assert not all_commute(recs)
    assert any(r["sign"] == -1 for r in recs)


@pytest.mark.parametrize("family,params", [("O_star", (2, 2)), ("GL_R", (2, 2)),
                                           ("U", ((1, 1), (1, 1))), ("Sp_C_real", (1, 1))])
def test_commutator_term_pair_bound_covers_the_chain(family, params):
    # the bound checked before the products holds for the products actually taken
    spec = build_pair(family, params)
    x = lift(spec.G.identity_probe()[1])
    y = lift(spec.Gp.identity_probe()[1])
    xy = x.value * y.value
    xyx = xy * x.inverse_value()
    a, c = len(x.value.terms), len(y.value.terms)
    taken = a * c + len(xy.terms) * a + len(xyx.terms) * c
    assert taken <= _commutator_term_pairs(x, y) <= MAX_COMMUTATOR_TERM_PAIRS


def test_commutator_sign_constant_on_components():
    # multiplying a representative by identity-component elements never
    # changes the pairing sign
    spec = build_pair("O_real", ((1, 0), (2, 0)))
    rep_g = spec.G.component_reps[0].map
    rep_h = spec.Gp.component_reps[0].map
    base = commutator_sign(lift(rep_g), lift(rep_h))
    rng = np.random.default_rng(3)
    import scipy.linalg as sla
    for _ in range(5):
        X = sum(rng.normal() * L.matrix for L in spec.Gp.lie_generators)
        wiggle = OrthogonalMap(spec.space, rep_h.matrix @ sla.expm(0.5 * X).real)
        assert commutator_sign(lift(rep_g), lift(wiggle)) == base


@pytest.mark.parametrize("family,params", [
    ("U", ((1, 0), (1, 0))), ("U", ((1, 1), (1, 0))), ("U", ((2, 1), (1, 1))),
    ("Sp_R", (1, 1)), ("Sp_R", (1, 2)),
    ("O_C_real", (2, 2)), ("O_C_real", (2, 3)),
    ("Sp_C_real", (1, 1)), ("Sp_H", ((1, 0), (1, 0))), ("Sp_H", ((1, 1), (1, 0))),
    ("O_star", (2, 2)), ("GL_R", (1, 1)), ("GL_R", (2, 2)), ("GL_R", (1, 3)),
    ("GL_C", (1, 1)), ("GL_C", (2, 1)),
    ("GL_H", (1, 1)), ("O_C", (3, 3)), ("Sp_C", (1, 1)), ("GL_C_complex", (1, 1)),
])
def test_lifted_pairs_commute(family, params):
    assert all_commute(commutator_pairing(build_pair(family, params)))


def test_complex_even_orthogonal_pair_fails_to_commute():
    recs = commutator_pairing(build_pair("O_C", (2, 2)))
    assert any(r["sign"] == -1 for r in recs)


def test_real_orthogonal_parity_phenomenon():
    # odd x odd real orthogonal lifts commute; an even member breaks it
    assert all_commute(commutator_pairing(build_pair("O_real", ((1, 0), (3, 0)))))
    assert all_commute(commutator_pairing(build_pair("O_real", ((2, 1), (1, 2)))))
    for params in [((1, 0), (2, 0)), ((2, 0), (2, 0)), ((1, 1), (1, 0))]:
        recs = commutator_pairing(build_pair("O_real", params))
        assert any(r["sign"] == -1 for r in recs), params


# --- path lifting and classification --------------------------------------------

def test_u1_in_o2_loop_sign_is_minus_one():
    E = real_space(2)

    def rot(t):
        return OrthogonalMap(E, np.array([[np.cos(t), -np.sin(t)],
                                          [np.sin(t), np.cos(t)]]))

    assert loop_lift_sign(LoopGenerator("U(1)", rot)) == -1


def test_doubled_rotation_loop_sign_is_plus_one():
    E = real_space(4)

    def rot2(t):
        c, s = np.cos(t), np.sin(t)
        R = np.array([[c, -s], [s, c]])
        return OrthogonalMap(E, np.block([[R, np.zeros((2, 2))],
                                          [np.zeros((2, 2)), R]]))

    assert loop_lift_sign(LoopGenerator("diag", rot2)) == 1


def test_path_lift_auto_refines_high_winding():
    # winding-128 loop sampled at 256 steps puts consecutive lifts at right
    # angles (equidistant from both preimages): the tracker must refine
    E = real_space(2)

    def fast(t):
        return OrthogonalMap(E, np.array([[np.cos(128 * t), -np.sin(128 * t)],
                                          [np.sin(128 * t), np.cos(128 * t)]]))

    assert loop_lift_sign(LoopGenerator("fast", fast), steps=256) == 1

    def fast_odd(t):
        return OrthogonalMap(E, np.array([[np.cos(127 * t), -np.sin(127 * t)],
                                          [np.sin(127 * t), np.cos(127 * t)]]))

    assert loop_lift_sign(LoopGenerator("fast_odd", fast_odd), steps=256) == -1


def test_path_lift_fails_when_refinement_capped():
    E = real_space(2)

    def fast(t):
        return OrthogonalMap(E, np.array([[np.cos(128 * t), -np.sin(128 * t)],
                                          [np.sin(128 * t), np.cos(128 * t)]]))

    # every count steps * 2^k up to the cap leaves a lift step ambiguous; the
    # message names the finest count tried: 3, 6, ..., 192 stops short of 256
    for steps, finest in ((256, 256), (3, 192)):
        with pytest.raises(LiftError, match=f"ambiguous even at {finest} steps"):
            loop_lift_sign(LoopGenerator("fast", fast), steps=steps, max_steps=256)


def test_label_table():
    assert label_from_loop_signs({"U(2)[G+]": 1, "U(1)[G-]": 1}) == "Trivial"
    assert label_from_loop_signs({"U(2)[G+]": -1, "U(1)[G-]": -1}) == "Lambda(2,1)"
    assert label_from_loop_signs({"U(3)[G+]": -1}) == "DetHalf"
    assert label_from_loop_signs({"SO(3)[G]": -1}) == "NontrivialOther"
    assert label_from_loop_signs({"U(2)[G+]": -1, "U(1)[G-]": 1}) == "NontrivialOther"


CLASSIFICATION_CASES = [
    ("U", ((1, 0), (1, 0)), "G", "DetHalf"),
    ("U", ((1, 1), (1, 0)), "G", "Lambda(1,1)"),
    ("U", ((1, 1), (1, 0)), "Gp", "Trivial"),
    ("U", ((1, 1), (1, 1)), "G", "Trivial"),
    ("U", ((2, 1), (1, 0)), "G", "Lambda(2,1)"),
    ("Sp_R", (1, 1), "G", "Trivial"),
    ("O_C_real", (2, 2), "G", "Trivial"),
    ("Sp_C_real", (1, 1), "G", "Trivial"),
    ("Sp_H", ((1, 0), (1, 0)), "G", "Trivial"),
    ("O_star", (2, 2), "G", "Trivial"),
    ("GL_R", (1, 1), "G", "Trivial"),
    ("GL_R", (2, 2), "G", "Trivial"),
    ("GL_C", (1, 1), "G", "Trivial"),
    ("GL_H", (1, 1), "G", "Trivial"),
    ("GL_C_complex", (1, 1), "G", "DetHalf"),
    ("Sp_C", (1, 1), "G", "Trivial"),
]


@pytest.mark.parametrize("family,params,side,label", CLASSIFICATION_CASES)
def test_extension_labels(family, params, side, label):
    ext = classify_extension(build_pair(family, params), side)
    assert ext.label == label


def test_no_loop_families_annotated():
    ext = classify_extension(build_pair("GL_H", (1, 1)), "G")
    assert ext.no_loops and ext.label == "Trivial" and ext.loop_signs == {}


def test_block_sum_loop_sign_multiplicativity():
    signs = {}
    for m in (1, 2, 3):
        ext = classify_extension(build_pair("U", ((1, 0), (m, 0))), "G")
        signs[m] = next(iter(ext.loop_signs.values()))
    assert signs[2] == signs[1] * signs[1]
    assert signs[3] == signs[1] * signs[2]


def test_canonical_sign_deterministic():
    E = real_space(2, 2)
    rng = np.random.default_rng(8)
    g = random_isometry(E, rng)
    s1 = canonical_sign(lift(g))
    s2 = canonical_sign(-lift(g))
    assert s1.value.distance(s2.value) < 1e-9 \
        or s1.value.distance((-s2).value) < 1e-9
    # the sign-normalized lift itself is sign-stable
    assert canonical_sign(-s1).value.distance(s1.value) < 1e-12


def test_chevalley_intertwines_pin_actions():
    # T(rho1(c) w) = c T(w) c^{-1} for even lifts, the module isomorphism
    from spinpairs.clifford import exterior_apply_map
    for pq in [(2, 2), (4, 4)]:
        E = real_space(*pq)
        rng = np.random.default_rng(pq[0])
        for _ in range(10):
            g = random_isometry(E, rng, reflect_prob=0.0)
            c = lift(g)
            assert c.parity == 0
            w = CliffordElement(E, {int(rng.integers(1 << E.dim)):
                                    complex(rng.normal(), rng.normal())
                                    for _ in range(4)})
            from spinpairs.clifford import ExteriorElement, chevalley_T_inv
            wext = chevalley_T_inv(w)
            lhs = chevalley_T(exterior_apply_map(project(c).matrix, wext))
            rhs = c.value * w * c.inverse_value()
            assert lhs.isclose(rhs, 1e-9)


def test_loop_lift_sign_rejects_out_of_range_steps():
    loop = build_pair("U", ((1, 0), (1, 0))).G.loops[0]
    for steps in (1, 0, -5, MAX_PATH_STEPS + 1):
        with pytest.raises(ValueError):
            loop_lift_sign(loop, steps=steps)
