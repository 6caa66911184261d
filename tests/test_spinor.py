"""Spinor module: gamma operators, the algebra isomorphism, and dPi."""

import numpy as np
import pytest

from spinpairs.clifford import (CliffordElement, basis_vector, blade, complex_space,
                                complexify_element, from_vector, real_space, scalar_element)
from spinpairs.groups import OrthogonalMap, complex_scales
from spinpairs.howe import span_rank
from spinpairs.pin import lift, pin_element
from spinpairs.spinor import (SpinorSpace, build_spinors, d_pi, gamma_tilde,
                              lie_to_clifford, pi_rep)

RNG = np.random.default_rng(31)


def test_smallest_case_gammas_are_2x2():
    sp = build_spinors(complex_space(2))
    assert sp.dim_s == 2
    for g in sp.gammas:
        assert g.shape == (2, 2)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_gamma_anticommutators(n):
    sp = build_spinors(complex_space(2 * n))
    for i in range(2 * n):
        for j in range(2 * n):
            anti = sp.gammas[i] @ sp.gammas[j] + sp.gammas[j] @ sp.gammas[i]
            want = 2.0 * (i == j) * np.eye(sp.dim_s)
            assert np.allclose(anti, want, atol=1e-12)


def test_witt_vectors_are_creation_annihilation():
    # gamma(a_1) gamma(a_1^*) + gamma(a_1^*) gamma(a_1) = 2 b(a_1, a_1^*) = Id
    # a_1 = (e_1 - i e_3)/2 and a_1^* = (e_1 + i e_3)/2
    sp = build_spinors(complex_space(4))
    a1 = gamma_tilde(sp, from_vector(sp.space, np.array([0.5, 0, -0.5j, 0])))
    a1s = gamma_tilde(sp, from_vector(sp.space, np.array([0.5, 0, 0.5j, 0])))
    assert np.allclose(a1 @ a1, 0, atol=1e-12)
    assert np.allclose(a1 @ a1s + a1s @ a1, np.eye(4), atol=1e-12)


def test_odd_dimension_rejected():
    with pytest.raises(ValueError):
        build_spinors(complex_space(3))
    with pytest.raises(ValueError):
        build_spinors(real_space(2))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_blade_images_linearly_independent(n):
    sp = build_spinors(complex_space(2 * n))
    images = [gamma_tilde(sp, CliffordElement(sp.space, {m: 1.0})) for m in range(4 ** n)]
    assert span_rank(images) == 4 ** n


def test_gamma_tilde_unit_and_blades():
    sp = build_spinors(complex_space(4))
    one = scalar_element(sp.space, 1.0)
    assert np.allclose(gamma_tilde(sp, one), np.eye(4))
    b12 = blade(sp.space, [0, 1])
    assert np.allclose(gamma_tilde(sp, b12), sp.gammas[0] @ sp.gammas[1])


def test_gamma_tilde_multiplicative_random():
    sp = build_spinors(complex_space(4))
    for _ in range(25):
        x = CliffordElement(sp.space, {int(RNG.integers(16)):
                                       complex(RNG.normal(), RNG.normal())
                                       for _ in range(4)})
        y = CliffordElement(sp.space, {int(RNG.integers(16)):
                                       complex(RNG.normal(), RNG.normal())
                                       for _ in range(4)})
        assert np.allclose(gamma_tilde(sp, x * y),
                           gamma_tilde(sp, x) @ gamma_tilde(sp, y), atol=1e-10)


def test_schur_commutant_of_gammas_is_scalar():
    from spinpairs.howe import commutant
    sp = build_spinors(complex_space(4))
    comm = commutant(sp.gammas, sp.dim_s)
    assert len(comm) == 1
    c = comm[0]
    assert np.allclose(c, c[0, 0] * np.eye(sp.dim_s), atol=1e-9)


def test_pi_of_minus_one_is_minus_identity():
    E = real_space(1, 1)
    sp = build_spinors(complex_space(2))
    x = pin_element(scalar_element(E, -1.0))
    assert np.allclose(pi_rep(sp, x), -np.eye(2))


def test_pi_of_reflection_squares_consistently():
    # a unit vector squares to its norm, so Pi squares to +-Id accordingly
    E = real_space(1, 1)
    sp = build_spinors(complex_space(2))
    for k, want in ((0, 1.0), (1, -1.0)):
        x = pin_element(basis_vector(E, k))
        P = pi_rep(sp, x)
        assert np.allclose(P @ P, want * np.eye(2), atol=1e-12)


def test_pi_multiplicative_on_lifts():
    E = real_space(2, 2)
    sp = build_spinors(complex_space(4))
    import scipy.linalg as sla
    B = np.diag(np.array(E.norms, dtype=float))
    rng = np.random.default_rng(6)
    for _ in range(10):
        A1, A2 = rng.normal(size=(4, 4)), rng.normal(size=(4, 4))
        g1 = OrthogonalMap(E, sla.expm(0.4 * (A1 - B @ A1.T @ B)))
        g2 = OrthogonalMap(E, sla.expm(0.4 * (A2 - B @ A2.T @ B)))
        x1, x2 = lift(g1), lift(g2)
        assert np.allclose(pi_rep(sp, x1 * x2), pi_rep(sp, x1) @ pi_rep(sp, x2),
                           atol=1e-9)


# --- lie_to_clifford ----------------------------------------------------------

def test_lie_to_clifford_zero():
    E = real_space(2)
    q = lie_to_clifford(np.zeros((2, 2)), E)
    assert not q.terms


def test_lie_to_clifford_elementary_rotation():
    # bracket identity on the basis: for X e1 = e2, X e2 = -e1 the unique
    # degree-2 solution is -(1/2) e1 e2
    E = real_space(2)
    X = np.array([[0.0, -1.0], [1.0, 0.0]])
    q = lie_to_clifford(X, E)
    assert set(q.terms) == {0b11}
    assert abs(complex(q.coeff(0b11)) + 0.5) < 1e-12


def test_lie_to_clifford_bracket_identity():
    E = real_space(2, 2)
    B = np.diag(np.array(E.norms, dtype=float))
    rng = np.random.default_rng(17)
    for _ in range(10):
        A = rng.normal(size=(4, 4))
        X = A - B @ A.T @ B
        q = lie_to_clifford(X, E)
        for k in range(4):
            ek = basis_vector(E, k)
            lhs = q * ek - ek * q
            rhs = CliffordElement(E, {1 << i: X[i, k] for i in range(4)})
            assert lhs.isclose(rhs, 1e-9)


def test_lie_to_clifford_is_lie_homomorphism():
    E = real_space(3, 1)
    B = np.diag(np.array(E.norms, dtype=float))
    rng = np.random.default_rng(23)
    for _ in range(10):
        A1, A2 = rng.normal(size=(4, 4)), rng.normal(size=(4, 4))
        X = A1 - B @ A1.T @ B
        Y = A2 - B @ A2.T @ B
        qX = lie_to_clifford(X, E)
        qY = lie_to_clifford(Y, E)
        qXY = lie_to_clifford(X @ Y - Y @ X, E)
        assert (qX * qY - qY * qX).isclose(qXY, 1e-9)


def test_lie_to_clifford_rejects_non_antisymmetric():
    E = real_space(2)
    with pytest.raises(ValueError):
        lie_to_clifford(np.array([[1.0, 0.0], [0.0, 1.0]]), E)


def test_d_pi_commutation_contract():
    # [dPi(X), gamma(v)] = gamma(Xv) for complexified generators
    sp = build_spinors(complex_space(4))
    rng = np.random.default_rng(41)
    for _ in range(10):
        A = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        X = A - A.T
        D = d_pi(sp, X)
        for k in range(4):
            gv = gamma_tilde(sp, from_vector(sp.space, np.eye(4)[k]))
            gXv = gamma_tilde(sp, from_vector(sp.space, X[:, k]))
            assert np.allclose(D @ gv - gv @ D, gXv, atol=1e-9)


def test_d_pi_real_lie_element_route():
    # a real boost enters d_pi complexified, as C X C^-1 with C = diag(complex_scales(norms))
    E = real_space(1, 1)
    sp = build_spinors(complex_space(2))
    C = np.diag(complex_scales(E.norms))
    X = np.array([[0.0, 1.0], [1.0, 0.0]])
    D = d_pi(sp, C @ X @ np.linalg.inv(C))
    # boost generator acts diagonally on the two weight vectors
    assert np.allclose(D, np.diag([0.5, -0.5]), atol=1e-12)
