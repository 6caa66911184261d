"""Invariants, generator theorems, transfer, and the double-commutant checks."""

import ast
import itertools
import json
from pathlib import Path

import numpy as np
import pytest

import spinpairs
from spinpairs import howe
from spinpairs.cli import load_expected_table
from spinpairs.clifford import (ExteriorElement, _mask_indices, chevalley_T, complex_space,
                                exterior_blade_images, exterior_vector, reorder_sign)
from spinpairs.families import (FAMILIES, PAIR_PARAM_FAMILIES, ambient_signature, build_pair,
                                normalize_params)
from spinpairs.groups import ClassificationError, UnsupportedFamilyError, complexify
from spinpairs.howe import (DimensionCapError, GLModel, OModel, SpModel, blades_of_degree,
                            commutant, commuting, exterior_derivation_matrix,
                            generated_algebra, howe_check, invariant_space, invariants,
                            nullspace, orthonormal_rows, side_operators,
                            subspace_equal, transfer_invariants, verify_generation, wedge_rows)
from spinpairs.pin import lift
from spinpairs.spinor import build_spinors, gamma_tilde, pi_rep
from test_acceptance import TRANSFER_FAMILIES as CRITERION_7_FAMILIES
from test_groups import random_element

RNG = np.random.default_rng(314)


# --- exterior actions ---------------------------------------------------------

def exterior_group_matrix(g, d):
    """Oracle: the matrix of the factorwise action of g on degree-d wedges, blade by blade."""
    N = len(g)
    image = exterior_blade_images(g, complex_space(N))
    src = blades_of_degree(N, d)
    row = {m: i for i, m in enumerate(src)}
    M = np.zeros((len(src), len(src)), dtype=complex)
    for col, S in enumerate(src):
        for m, c in image(S).terms.items():
            M[row[m], col] += c
    return M


def _derivation(X, d):
    """The derivation matrix of X on every blade of degree d."""
    return exterior_derivation_matrix(X, d, np.arange(len(blades_of_degree(len(X), d))))


def wedge_matrix(g, d_from, d_to):
    """The matrix of (g ^ .) from degree d_from to degree d_to: g wedged with each unit row."""
    return wedge_rows(g, np.eye(len(blades_of_degree(g.space.dim, d_from))), d_from, d_to).T


def test_identity_acts_as_identity():
    for d in range(4):
        M = exterior_group_matrix(np.eye(4), d)
        assert np.allclose(M, np.eye(M.shape[0]))


def test_minus_identity_acts_by_parity():
    for d in range(5):
        M = exterior_group_matrix(-np.eye(4), d)
        assert np.allclose(M, (-1.0) ** d * np.eye(M.shape[0]))


def test_derivation_leibniz_on_wedges():
    E = complex_space(4)
    X = RNG.normal(size=(4, 4)) + 1j * RNG.normal(size=(4, 4))
    v = RNG.normal(size=4)
    w = RNG.normal(size=4)
    vw = exterior_vector(E, v) ^ exterior_vector(E, w)
    D2 = _derivation(X, 2)
    blades = blades_of_degree(4, 2)
    coords = np.array([complex(vw.coeff(m)) for m in blades])
    lhs = D2 @ coords
    rhs_elt = (exterior_vector(E, X @ v) ^ exterior_vector(E, w)) \
        + (exterior_vector(E, v) ^ exterior_vector(E, X @ w))
    rhs = np.array([complex(rhs_elt.coeff(m)) for m in blades])
    assert np.allclose(lhs, rhs, atol=1e-10)


def test_derivation_exponentiates_to_group_action():
    import scipy.linalg as sla
    X = RNG.normal(size=(4, 4))
    g = sla.expm(X)
    for d in range(5):
        assert np.allclose(sla.expm(_derivation(X, d)),
                           exterior_group_matrix(g, d), atol=1e-8)


@pytest.mark.parametrize("build", [exterior_group_matrix, _derivation],
                         ids=["exterior_group_matrix", "exterior_derivation_matrix"])
def test_exterior_matrices_reject_non_square(build):
    with pytest.raises(ValueError):
        build(np.ones((3, 5)), 1)


def _loop_derivation_matrix(X, d):
    # oracle: the per-blade loop over each blade's bits that the array build replaced
    N = len(X)
    blades = blades_of_degree(N, d)
    row = {m: i for i, m in enumerate(blades)}
    cols = [[(i, X[i, j]) for i in range(N) if X[i, j] != 0] for j in range(N)]
    M = np.zeros((len(blades), len(blades)), dtype=complex)
    for col, mask in enumerate(blades):
        for j in _mask_indices(mask):
            rest = mask ^ (1 << j)
            for i, v in cols[j]:
                if i == j:
                    M[col, col] += v
                elif not mask >> i & 1:
                    sign = reorder_sign(rest, 1 << j) * reorder_sign(rest, 1 << i)
                    M[row[rest | (1 << i)], col] += sign * v
    return M


def _derivation_cases():
    rng = np.random.default_rng(909)
    cases = {}
    for N in range(1, 10):
        mask = rng.random((N, N)) < 0.3
        cases[f"sparse N={N}"] = (rng.normal(size=(N, N)) + 1j * rng.normal(size=(N, N))) * mask
    cases["diagonal"] = np.diag(rng.normal(size=7) + 1j * rng.normal(size=7))
    cases["zero"] = np.zeros((6, 6), dtype=complex)
    return cases


DERIVATION_CASES = _derivation_cases()


@pytest.mark.parametrize("name", DERIVATION_CASES)
def test_derivation_matrix_matches_the_blade_loop(name):
    X = DERIVATION_CASES[name]
    for d in range(len(X) + 1):
        assert np.array_equal(_derivation(X, d), _loop_derivation_matrix(X, d)), d


@pytest.mark.parametrize("name", DERIVATION_CASES)
def test_derivation_matrix_on_cells_is_the_full_matrix_cut_to_them(name):
    # the kept columns only, entry for entry as the full matrix has them
    X = DERIVATION_CASES[name]
    rng = np.random.default_rng(len(X))
    for d in range(len(X) + 1):
        full = _derivation(X, d)
        for size in {0, 1, full.shape[1] // 2, full.shape[1]}:
            cells = np.sort(rng.choice(full.shape[1], size, replace=False))
            assert np.array_equal(exterior_derivation_matrix(X, d, cells), full[:, cells]), d


def test_nullspace_of_zero_map_is_everything():
    ns = nullspace(np.zeros((3, 4)))
    assert ns.shape[0] == 4


def _dense_kernel(A):
    # oracle: one full SVD, cut at 1e-8 of max(1, largest singular value)
    _, s, vh = np.linalg.svd(A)
    return vh[int((s > 1e-8 * max(1.0, s.max(initial=0.0))).sum()):].conj()


def _random_block(rng, m, n, rank):
    def gauss(a, b):
        return rng.normal(size=(a, b)) + 1j * rng.normal(size=(a, b))
    return gauss(m, rank) @ gauss(rank, n)


def _permuted_blocks(rng, blocks, zero_rows=0, zero_cols=0):
    """Block-diagonal matrix of the given blocks, rows and columns shuffled."""
    rows = sum(b.shape[0] for b in blocks) + zero_rows
    cols = sum(b.shape[1] for b in blocks) + zero_cols
    A = np.zeros((rows, cols), dtype=complex)
    i = j = 0
    for b in blocks:
        A[i:i + b.shape[0], j:j + b.shape[1]] = b
        i, j = i + b.shape[0], j + b.shape[1]
    return A[rng.permutation(rows)][:, rng.permutation(cols)]


def _nullspace_cases():
    rng = np.random.default_rng(2010)

    def square(k=5, side=16):
        return [_random_block(rng, side, side, rank) for rank in rng.integers(4, side + 1, k)]

    # row i joins columns i and i + 1: one sparse component, with a kernel line
    bidiagonal = np.zeros((80, 81))
    bidiagonal[np.arange(80), np.arange(80)] = rng.normal(size=80)
    bidiagonal[np.arange(80), np.arange(1, 81)] = rng.normal(size=80)
    return {
        "blocks": _permuted_blocks(rng, square()),
        "zero column": _permuted_blocks(rng, square(), zero_cols=3),
        "zero row": _permuted_blocks(rng, square(), zero_rows=3),
        "tall block": _permuted_blocks(rng, [_random_block(rng, 60, 12, 8)] + square(4)),
        "wide block": _permuted_blocks(rng, [_random_block(rng, 12, 60, 9)] + square(4)),
        "dense component": _random_block(rng, 70, 80, 50),
        "connected sparse pattern": bidiagonal,
        "all zero": np.zeros((80, 90)),
        "no rows": np.zeros((0, 70)),
    }


NULLSPACE_CASES = _nullspace_cases()


@pytest.mark.parametrize("name", NULLSPACE_CASES)
def test_nullspace_matches_dense_svd(name, monkeypatch):
    A = NULLSPACE_CASES[name]
    oracle = _dense_kernel(A)
    calls = []
    svd = np.linalg.svd

    def spy(a, *args, **kwargs):
        calls.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    K = nullspace(A)
    assert calls == [A.shape]  # one SVD of the whole input
    assert K.shape == oracle.shape
    assert np.abs(A @ K.T).max(initial=0.0) < 1e-9
    assert np.allclose(K @ K.conj().T, np.eye(len(K)), atol=1e-12)
    # the same subspace: equal orthogonal projectors
    assert np.allclose(K.T @ K.conj(), oracle.T @ oracle.conj(), atol=1e-9)
    if name == "no rows":
        assert np.array_equal(K, np.eye(70))


def test_nullspace_cuts_at_the_largest_singular_value():
    # a block with singular values 1e3 sets the cutoff 1e-8 * 1e3 = 1e-5, so the
    # 5e-6 direction of another block is kernel; a cutoff of 1e-8 * max(1, 1)
    # on that block alone would count it as rank
    rng = np.random.default_rng(6)

    def unitary(n):
        return np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))[0]

    side = 16
    loud = 1e3 * unitary(side)
    quiet = unitary(side) @ np.diag([5e-6] + [1.0] * (side - 1)) @ unitary(side)
    A = _permuted_blocks(rng, [loud, quiet, unitary(side), unitary(side), unitary(side)])
    assert nullspace(A).shape[0] == _dense_kernel(A).shape[0] == 1
    assert len(nullspace(quiet)) == 0


def test_dense_and_sparse_exterior_actions_agree():
    # the dense matrix must place each blade image of the sparse action in its row
    from spinpairs.clifford import ExteriorElement, exterior_apply_map
    E = complex_space(5)
    rng = np.random.default_rng(55)
    g = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    for d in range(6):
        M = exterior_group_matrix(g, d)
        blades = blades_of_degree(5, d)
        for trial in range(3):
            coords = rng.normal(size=len(blades)) + 1j * rng.normal(size=len(blades))
            w = ExteriorElement(E, dict(zip(blades, coords)))
            img = exterior_apply_map(g, w)
            want = M @ coords
            got = np.array([complex(img.coeff(m)) for m in blades])
            assert np.allclose(got, want, atol=1e-9)


# --- brute-force invariants -----------------------------------------------------

def test_degree_zero_always_invariant():
    spec = build_pair("Sp_R", (1, 1))
    inv = invariants(spec, "G")
    assert inv.dims[0] == 1


def test_gl1_complex_invariant_dimensions():
    # GL(1,C) on U ox V + U* ox V* with 1-dimensional factors: dims 1,0,1
    spec = build_pair("GL_C_complex", (1, 1))
    inv = invariants(spec, "G")
    assert inv.dims == {0: 1, 1: 0, 2: 1}


def test_o1_sign_action_invariants_are_even_part():
    # O(1) = {+-1} on a 2-dimensional multiplicity space: even degrees survive
    model = OModel(1, 2)
    inv = invariant_space(model.space(), model.lie(), model.comps())
    assert inv.dims == {0: 1, 1: 0, 2: 1}


def test_invariant_vectors_annihilated_and_fixed():
    # every basis vector: killed by each derivation, fixed by each component
    spec = build_pair("GL_R", (2, 1))
    cpx = complexify(spec)
    inv = invariants(spec, "G", cpx)
    N = cpx.space_c.dim
    for d, basis in inv.degree_bases.items():
        for X in cpx.lie_G:
            D = _derivation(X, d)
            for row in basis:
                assert np.linalg.norm(D @ row) < 1e-9
        for _, g in cpx.comps_G:
            A = exterior_group_matrix(g, d)
            for row in basis:
                assert np.linalg.norm(A @ row - row) < 1e-9


def test_invariants_independent_of_generator_basis():
    spec = build_pair("Sp_R", (1, 1))
    cpx = complexify(spec)
    base = invariants(spec, "G", cpx).dims
    rng = np.random.default_rng(10)
    mixed = []
    k = len(cpx.lie_G)
    C = rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))
    while abs(np.linalg.det(C)) < 1e-3:
        C = rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))
    for row in C:
        mixed.append(sum(c * X for c, X in zip(row, cpx.lie_G)))
    alt = invariant_space(cpx.space_c, mixed, [g for _, g in cpx.comps_G])
    assert alt.dims == base


def _family_instances(max_dim):
    """Every family instance with dim E <= max_dim."""
    sides = [(p, q) for p in range(max_dim + 1) for q in range(max_dim + 1)
             if 1 <= p + q <= max_dim]
    for family in FAMILIES:
        grid = sides if family in PAIR_PARAM_FAMILIES else range(1, max_dim + 1)
        for params in itertools.product(grid, grid):
            try:
                if sum(ambient_signature(family, params)) <= max_dim:
                    yield family, params
            except ClassificationError:
                continue


def test_every_component_rep_is_an_exact_sign_diagonal():
    # the premise of the parity cut: each complexified component rep of every
    # family instance with dim E <= 12, and OModel's reflection, is +-1 on the
    # diagonal and exactly zero off it
    instances = list(_family_instances(12))
    reps = [g for family, params in instances for side in ("G", "Gp")
            for _, g in complexify(build_pair(family, params)).side(side)[1]]
    reps += [g for n in range(1, 4) for m in range(1, 5) for g in OModel(n, m).comps()]
    assert (len(instances), len(reps)) == (782, 1634)
    for g in reps:
        assert np.isin(np.diagonal(g), (1, -1)).all() and np.count_nonzero(g) == len(g)


@pytest.mark.parametrize("comp", [np.eye(4)[[1, 0, 2, 3]], np.diag([1j, -1j, 1, 1])],
                         ids=["coordinate swap", "diag(i, -i, 1, 1)"])
def test_invariant_space_refuses_a_component_that_is_not_a_sign_diagonal(comp):
    # each fixes wedges no parity rule finds (e0 + e1, and e0 ^ e1), so it is refused
    with pytest.raises(ValueError, match="exact"):
        invariant_space(complex_space(4), [], [comp])


# --- generator elements ----------------------------------------------------------

def test_lambda_generator_is_the_degree2_invariant():
    model = GLModel(1, 1, 1)
    inv = invariant_space(model.space(), model.lie(), model.comps())
    assert inv.dims[2] == 1
    gens = model.generators()
    assert len(gens) == 1
    blades = blades_of_degree(model.dim, 2)
    v = np.array([complex(gens[0].coeff(m)) for m in blades])
    basis = inv.degree_bases[2]
    proj = basis.conj() @ v
    assert np.linalg.norm(v - basis.T @ proj) < 1e-9


def test_eta_antisymmetry():
    from spinpairs.clifford import ExteriorElement
    model = OModel(2, 3)
    sp = model.space()

    def eta(a, b):
        acc = ExteriorElement(sp, {})
        for k in range(model.n):
            u_a = ExteriorElement(sp, {1 << (k * model.m + a): 1.0})
            u_b = ExteriorElement(sp, {1 << (k * model.m + b): 1.0})
            acc = acc + (u_a ^ u_b)
        return acc

    assert not (eta(0, 1) + eta(1, 0)).terms


def test_gamma_generators_killed_by_sp_derivations():
    model = SpModel(1, 2)
    blades = blades_of_degree(model.dim, 2)
    D = [_derivation(X, 2) for X in model.lie()]
    for g in model.generators():
        v = np.array([complex(g.coeff(m)) for m in blades])
        for Dx in D:
            assert np.linalg.norm(Dx @ v) < 1e-10


GENERATION_GRID = [
    OModel(1, 2), OModel(1, 3), OModel(1, 4), OModel(2, 2), OModel(2, 3),
    OModel(3, 2), OModel(3, 3), OModel(2, 4),
    GLModel(1, 1, 1), GLModel(1, 2, 1), GLModel(1, 2, 2), GLModel(1, 3, 1),
    GLModel(2, 1, 1), GLModel(2, 2, 1), GLModel(2, 1, 2), GLModel(3, 1, 1),
    SpModel(1, 1), SpModel(1, 2), SpModel(1, 3), SpModel(1, 4), SpModel(2, 1),
    SpModel(2, 2), SpModel(1, 5), SpModel(3, 1),
]


@pytest.mark.parametrize("model", GENERATION_GRID, ids=lambda m: repr(m))
def test_generator_theorems(model):
    report = verify_generation(model)
    for d, (gen_dim, inv_dim) in report.items():
        assert gen_dim == inv_dim, (d, report)


def _wedge_sums(model):
    # the degree-2 generators of the three theorems, each a sum of wedges of basis vectors
    sp = model.space()

    def e(i):
        return ExteriorElement(sp, {1 << i: 1.0})

    def total(wedges):
        acc = ExteriorElement(sp, {})
        for w in wedges:
            acc = acc + w
        return acc

    n, m = model.n, model.m
    if isinstance(model, GLModel):
        return [total(e(k * m + a) ^ e(n * m + k * model.l + b) for k in range(n))
                for a in range(m) for b in range(model.l)]
    if isinstance(model, OModel):
        return [total(e(k * m + a) ^ e(k * m + b) for k in range(n))
                for a in range(m) for b in range(a + 1, m)]
    return [total(w for k in range(n) for w in (e(k * m + a) ^ e((n + k) * m + b),
                                                -(e((n + k) * m + a) ^ e(k * m + b))))
            for a in range(m) for b in range(a, m)]


@pytest.mark.parametrize("model", GENERATION_GRID, ids=lambda m: repr(m))
def test_generators_are_the_wedge_sums_of_the_theorems(model):
    got, want = model.generators(), _wedge_sums(model)
    assert len(got) == len(want)
    assert all(g.equals_exact(w) for g, w in zip(got, want))


def _sparse_wedge_matrix(g, d_from, d_to):
    # oracle: each column is the sparse product g ^ e_S
    src = blades_of_degree(g.space.dim, d_from)
    row = {m: i for i, m in enumerate(blades_of_degree(g.space.dim, d_to))}
    M = np.zeros((len(row), len(src)), dtype=complex)
    for col, S in enumerate(src):
        for m, c in (g ^ ExteriorElement(g.space, {S: 1})).terms.items():
            M[row[m], col] += c
    return M


@pytest.mark.parametrize("model", GENERATION_GRID + [GLModel(2, 3, 3), SpModel(2, 3)],
                         ids=lambda m: repr(m))
def test_wedge_matrix_matches_the_sparse_wedge(model):
    for g in model.generators():
        for d in range(2, model.dim + 1):
            assert np.array_equal(wedge_matrix(g, d - 2, d), _sparse_wedge_matrix(g, d - 2, d)), d


def test_wedge_matrix_signs_odd_degrees_and_refuses_mixed_ones():
    # an odd term t picks up (-1)^(|t| d_from) in e_t ^ e_S = +-e_S ^ e_t
    rng = np.random.default_rng(7)
    space = complex_space(6)
    for k in (1, 2, 3):
        blades = blades_of_degree(6, k)
        g = ExteriorElement(space, {m: complex(*rng.normal(size=2)) for m in blades[::2]})
        for d in range(7 - k):
            assert np.array_equal(wedge_matrix(g, d, d + k), _sparse_wedge_matrix(g, d, d + k))
    with pytest.raises(ValueError):
        wedge_matrix(ExteriorElement(space, {0b11: 1.0, 0b111: 1.0}), 0, 2)


@pytest.mark.parametrize("model", [GLModel(2, 2, 2), SpModel(1, 3), OModel(3, 3)],
                         ids=lambda m: repr(m))
def test_wedge_rows_are_the_rows_times_the_wedge_matrix(model):
    rng = np.random.default_rng(11)
    for g in model.generators():
        for d in range(2, model.dim + 1):
            oracle = _sparse_wedge_matrix(g, d - 2, d)
            R = rng.normal(size=(3, oracle.shape[1])) + 1j * rng.normal(size=(3, oracle.shape[1]))
            assert np.allclose(wedge_rows(g, R, d - 2, d), R @ oracle.T, atol=1e-12), d


def test_verify_generation_rejects_a_non_invariant_generator():
    # the reflection in comps negates e0 ^ e2, though so(2) kills it
    class WithExtra(OModel):
        def generators(self):
            return super().generators() + [ExteriorElement(self.space(), {0b101: 1.0})]

    with pytest.raises(RuntimeError):
        verify_generation(WithExtra(2, 2))


def test_verify_generation_rejects_generated_wedges_off_the_invariants(monkeypatch):
    # a degree-4 basis missing a row: the wedges of the generators leave its span
    solve = howe.invariant_space

    def short(*args):
        inv = solve(*args)
        inv.degree_bases[4] = inv.degree_bases[4][1:]
        return inv

    monkeypatch.setattr(howe, "invariant_space", short)
    with pytest.raises(RuntimeError):
        verify_generation(GLModel(1, 2, 2))


def test_verify_generation_caps_the_exterior_dimension():
    with pytest.raises(DimensionCapError):
        verify_generation(GLModel(1, 6, 7))


# --- transfer and commutant -------------------------------------------------------

def test_transfer_degree_zero_gives_identity():
    spec = build_pair("U", ((1, 0), (1, 0)))
    cpx = complexify(spec)
    spn = build_spinors(cpx.space_c)
    inv = invariants(spec, "G", cpx)
    ops = transfer_invariants(inv, spn)
    found_identity = any(np.allclose(o / o[0, 0], np.eye(spn.dim_s), atol=1e-9)
                         for o in ops if abs(o[0, 0]) > 1e-9)
    assert found_identity
    assert len(ops) == sum(inv.dims.values())


def test_transfer_image_conjugation_invariant():
    spec = build_pair("GL_R", (2, 1))
    cpx = complexify(spec)
    spn = build_spinors(cpx.space_c)
    inv = invariants(spec, "G", cpx)
    ops = transfer_invariants(inv, spn)
    mats = [o.ravel() for o in ops]
    for rep in spec.G.component_reps:
        P = pi_rep(spn, lift(rep.map))
        Pinv = np.linalg.inv(P)
        conj = [(P @ o @ Pinv).ravel() for o in ops]
        assert subspace_equal(mats, mats + conj)


def test_commutant_of_identity_is_everything():
    assert len(commutant([np.eye(4)], 4)) == 16


def test_commutant_of_non_transpose_closed_generator():
    # a single nilpotent Jordan block: commutant is span{I, N}, and every
    # returned basis element must genuinely commute with N (not with N^T)
    N = np.array([[0.0, 1.0], [0.0, 0.0]])
    comm = commutant([N], 2)
    assert len(comm) == 2
    for c in comm:
        assert np.abs(c @ N - N @ c).max() < 1e-9


def test_commutant_never_stacks_constraints(monkeypatch):
    # one d^2-row constraint per SVD, restricted to the running kernel, and no
    # tall SVD builds a full U factor; only the first solve of an End(S)
    # commutant sees d^2 columns, and a solve inside a given span none
    calls = []
    svd = np.linalg.svd
    solved = []
    solve = howe.nullspace

    def spy(a, *args, **kwargs):
        calls.append((np.shape(a), kwargs.get("full_matrices", True)))
        return svd(a, *args, **kwargs)

    def nullspace_spy(A):
        K = solve(A)
        solved.append((np.shape(A)[1], len(K)))
        return K

    monkeypatch.setattr(np.linalg, "svd", spy)
    monkeypatch.setattr(howe, "nullspace", nullspace_spy)
    spn = build_spinors(complex_space(4))
    d = spn.dim_s
    assert len(commutant(spn.gammas, d)) == 1
    assert len(calls) > 1
    for (*_, rows, cols), full in calls:
        assert rows <= d * d
        assert not (full and rows > cols)
    assert len(solved) > 1 and solved[0][0] == d * d
    for (_, kernel), (cols, _) in zip(solved, solved[1:]):
        assert cols <= kernel < d * d
    # gamma_0 gamma_2 is diagonal: the weight cut, not an SVD, takes its constraint,
    # so the first solve sees only the cells of its zero weights
    solved.clear()
    h = spn.gammas[0] @ spn.gammas[2]
    assert _is_diagonal(h)
    assert len(commutant([h] + spn.gammas, d)) == 1
    assert len(solved) == len(spn.gammas) and solved[0][0] == d * d // 2
    within = commutant(spn.gammas[:2], d)
    solved.clear()
    assert len(commutant(spn.gammas[2:], d, within=within)) == 1
    assert solved and all(cols < d * d for cols, _ in solved)
    assert solved[0][0] == len(within)
    # gamma_1 anticommutes with gamma_0: the basis empties, and no later op is solved
    solved.clear()
    g1 = spn.gammas[1] / np.linalg.norm(spn.gammas[1])
    assert commutant(spn.gammas, d, within=[g1]) == [] and len(solved) == 1


def _is_diagonal(M):
    return np.count_nonzero(M - np.diag(np.diagonal(M))) == 0


def _pair_side(family, params):
    spec = build_pair(family, params)
    cpx = complexify(spec)
    return spec, cpx, build_spinors(cpx.space_c)


def _side_ops(family, params, side="G"):
    spec, cpx, spn = _pair_side(family, params)
    return side_operators(spec, spn, cpx, side), spn.dim_s


def _hand_diagonal(gap):
    # weights h_a - h_b of 0, gap and about 1: the cutoff is 1e-8 * 1
    return [np.diag([0.0, gap, 1.0, 1.0 + 1e-3])], 4


# name: (op set, whether each op is diagonal, pinned commutant dimension)
COMMUTANT_CASES = {
    "every op diagonal": (lambda: _side_ops("GL_C_complex", (1, 1)), {True}, None),
    "some ops diagonal (U)": (lambda: _side_ops("U", ((1, 1), (1, 0))), {True, False}, None),
    "some ops diagonal (GL_R)": (lambda: _side_ops("GL_R", (2, 1)), {True, False}, None),
    "no op diagonal": (lambda: _side_ops("Sp_R", (1, 1)), {False}, None),
    # the 5e-9 weight is kept, as the SVD keeps it; the 2e-8 weight is dropped
    "weights inside the cutoff": (lambda: _hand_diagonal(5e-9), {True}, 6),
    "weights beyond the cutoff": (lambda: _hand_diagonal(2e-8), {True}, 4),
}


@pytest.mark.parametrize("name", COMMUTANT_CASES)
def test_weight_cut_commutant_matches_the_kron_kernel(name):
    build, diagonal, pinned = COMMUTANT_CASES[name]
    ops, d = build()
    assert {_is_diagonal(o) for o in ops} == diagonal
    # oracle: the kernel of the stacked commutator maps X -> X o - o X, one dense SVD
    oracle = _dense_kernel(np.concatenate(
        [np.kron(np.eye(d), o.T) - np.kron(o, np.eye(d)) for o in ops]))
    C = np.array([c.ravel() for c in commutant(ops, d)])
    assert C.shape == oracle.shape
    assert np.allclose(C @ C.conj().T, np.eye(len(C)), atol=1e-12)
    assert np.allclose(C.T @ C.conj(), oracle.T @ oracle.conj(), atol=1e-9)
    assert pinned in (None, len(C))


def _all_blade_invariants(N, lie, comps):
    """Oracle: per degree, the kernel of every derivation and every component
    action minus the identity on all blades, stacked, from one dense SVD."""
    out = {}
    for d in range(N + 1):
        nd = len(blades_of_degree(N, d))
        out[d] = _dense_kernel(np.concatenate(
            [np.zeros((0, nd))] + [_derivation(X, d) for X in lie]
            + [exterior_group_matrix(g, d) - np.eye(nd) for g in comps]))
    return out


def _model_inputs(model):
    return model.space(), model.lie(), model.comps()


def _side_inputs(family, params, side):
    cpx = complexify(build_pair(family, params))
    lie, comps = cpx.side(side)
    return cpx.space_c, lie, [g for _, g in comps]


INVARIANT_CASES = {
    "GLModel(1,2,2)": lambda: _model_inputs(GLModel(1, 2, 2)),
    "GLModel(2,2,2)": lambda: _model_inputs(GLModel(2, 2, 2)),
    "SpModel(1,2)": lambda: _model_inputs(SpModel(1, 2)),
    "OModel(2,3)": lambda: _model_inputs(OModel(2, 3)),
    "GL_R(2,1) G": lambda: _side_inputs("GL_R", (2, 1), "G"),
    "GL_R(2,1) Gp": lambda: _side_inputs("GL_R", (2, 1), "Gp"),
    # sides whose components carry the invariants, cut by parity
    "OModel(3,3)": lambda: _model_inputs(OModel(3, 3)),
    "O_C(3,3) G": lambda: _side_inputs("O_C", (3, 3), "G"),
    "O_C(3,3) Gp": lambda: _side_inputs("O_C", (3, 3), "Gp"),
    "O_real((2,1),(2,1)) G": lambda: _side_inputs("O_real", ((2, 1), (2, 1)), "G"),
    "O_C_real(2,2) G": lambda: _side_inputs("O_C_real", (2, 2), "G"),
}


@pytest.mark.parametrize("name", INVARIANT_CASES)
def test_weight_cut_invariants_match_the_all_blade_solve(name, monkeypatch):
    space, lie, comps = INVARIANT_CASES[name]()
    oracle = _all_blade_invariants(space.dim, lie, comps)
    built, solved = [], []
    derivation, solve = howe.exterior_derivation_matrix, howe.nullspace

    def spy(X, d, cells):
        built.append(np.asarray(X))
        return derivation(X, d, cells)

    def nullspace_spy(A):
        solved.append(np.asarray(A))
        return solve(A)

    monkeypatch.setattr(howe, "exterior_derivation_matrix", spy)
    monkeypatch.setattr(howe, "nullspace", nullspace_spy)
    inv = invariant_space(space, lie, comps)
    # every SVD is a derivation's: no component builds a matrix or takes an SVD
    assert len(solved) == len(built)
    # and sees only the rows its derivation reaches
    assert all(A.any(axis=1).all() for A in solved)
    for d, K in inv.degree_bases.items():
        assert K.shape == oracle[d].shape, d
        assert np.allclose(K @ K.conj().T, np.eye(len(K)), atol=1e-12)
        assert np.allclose(K.T @ K.conj(), oracle[d].T @ oracle[d].conj(), atol=1e-9), d
    # no derivation matrix of a diagonal generator is built, in any degree
    assert not any(_is_diagonal(X) for X in built)
    assert bool(built) == any(not _is_diagonal(np.asarray(X)) for X in lie)


def test_rank_decisions_only_in_howe():
    # every SVD, and with it every rank cutoff, lives in howe.py, and every
    # cutoff, the weight cut's too, is RANK_TOL times a scale in one expression
    products = []
    for path in Path(spinpairs.__file__).parent.glob("*.py"):
        text = path.read_text()
        assert "full_matrices=True" not in text, path.name
        if path.name != "howe.py":
            assert "svd(" not in text, path.name
        products += [(path.name, node.lineno) for node in ast.walk(ast.parse(text))
                     if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult)
                     and "RANK_TOL" in {getattr(node.left, "id", None),
                                        getattr(node.right, "id", None)}]
    assert [name for name, _ in products] == ["howe.py"], products


# public names that only tests call, each kept for a reason
KEPT_FOR_TESTS = {
    "blade_product": "oracle: the blade sign rule, against which the product is compared",
    "chevalley_T_vectors": "oracle: the Chevalley map by its permutation-sum definition",
    "quaternion_matrix_product": "oracle: quaternion arithmetic for the realified embedding",
    "pin_element": "oracle: the full Pin membership check of lifted elements",
    "blade": "constructor of test inputs: the unit blade of a set of basis vectors",
    "_BladeMap.equals_exact": "oracle: term-for-term equality of sign-exact blade products",
    "Family.minimal": "fixture: the smallest honest instance of each family",
}


def _references(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value  # the benchmark names some models by string


def _package_and_bench():
    """The package's modules by path, and every parsed tree of the package and bench/."""
    src = Path(spinpairs.__file__).parent
    modules = {p: ast.parse(p.read_text()) for p in src.glob("*.py") if p.name != "__init__.py"}
    bench = Path(__file__).resolve().parents[1] / "bench"
    return modules, [*modules.values(), *(ast.parse(p.read_text()) for p in bench.glob("*.py"))]


def test_every_public_name_is_used_by_the_package_or_benchmark():
    modules, trees = _package_and_bench()
    used = {name for tree in trees for name in _references(tree)}
    unused = []
    for path, tree in sorted(modules.items()):
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name[0] == "_":
                continue
            if any("command" in ast.unparse(d) for d in node.decorator_list):
                continue  # click commands are reached through the `spinpairs` entry point
            if node.name not in used and node.name not in KEPT_FOR_TESTS:
                unused.append(f"{path.name}:{node.name}")
    assert unused == []


def _reads(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value  # report keys, and the names the benchmark passes to getattr


def test_every_public_member_is_read_by_the_package_or_benchmark():
    # Coarse: a member passes if any attribute load or string anywhere bears its
    # name, so a write-only field named like a report key (DualPairSpec's old
    # `family` and `params`) still needs a reader's eye.
    modules, trees = _package_and_bench()
    read = {name for tree in trees for name in _reads(tree)}
    unread = []
    for path, tree in sorted(modules.items()):
        for cls in (node for node in tree.body if isinstance(node, ast.ClassDef)):
            # a to_json of asdict(self) reads every field into the report
            as_dict = any(isinstance(node, ast.FunctionDef) and node.name == "to_json"
                          and "asdict(self)" in ast.unparse(node) for node in cls.body)
            for node in cls.body:
                if isinstance(node, ast.FunctionDef):
                    name = node.name
                elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                    if as_dict:
                        continue
                    name = node.target.id
                else:
                    continue
                if name[0] != "_" and name not in read \
                        and f"{cls.name}.{name}" not in KEPT_FOR_TESTS:
                    unread.append(f"{path.name}:{cls.name}.{name}")
    assert unread == []


def test_generated_algebra_of_gammas_is_full():
    spn = build_spinors(complex_space(4))
    alg = generated_algebra(spn.gammas, spn.dim_s)
    assert len(alg) == 16


def test_generated_algebra_of_no_ops_is_the_scalars():
    alg = generated_algebra([], 4)
    assert len(alg) == 1 and np.allclose(alg[0], alg[0][0, 0] * np.eye(4))


TRANSFER_PAIRS = [
    ("GL_R", (1, 1)), ("U", ((1, 0), (1, 0))), ("U", ((1, 1), (1, 0))),
    ("Sp_R", (1, 1)), ("Sp_H", ((1, 0), (1, 0))), ("GL_C", (1, 1)),
    ("GL_H", (1, 1)), ("Sp_C_real", (1, 1)), ("GL_C_complex", (1, 1)),
    ("Sp_C", (1, 1)),
]


def _element_transfer(inv, spn):
    # oracle: each invariant vector as one exterior element, sent through gamma~ of chevalley_T
    out = []
    for d, K in sorted(inv.degree_bases.items()):
        blades = blades_of_degree(inv.space.dim, d)
        for row in K:
            w = ExteriorElement(inv.space, {m: row[i] for i, m in enumerate(blades)})
            out.append(gamma_tilde(spn, chevalley_T(w)))
    return out


def test_transfer_matches_the_per_element_oracle(monkeypatch):
    calls, image = [], howe.gamma_tilde

    def spy(sp, x):
        calls.append(list(x.terms))
        return image(sp, x)

    monkeypatch.setattr(howe, "gamma_tilde", spy)
    empty = 0
    for family, params in CRITERION_7_FAMILIES:
        spec = build_pair(family, params)
        cpx = complexify(spec)
        spn = build_spinors(cpx.space_c)
        for side in ("G", "Gp"):
            inv = invariants(spec, side, cpx)
            calls.clear()
            ops = transfer_invariants(inv, spn)
            want = _element_transfer(inv, spn)
            assert len(ops) == len(want) == sum(inv.dims.values())
            assert all(np.allclose(o, w, rtol=0, atol=1e-12) for o, w in zip(ops, want))
            # one blade image per blade a degree's basis reaches, in degree order
            reached = [[m] for d, K in sorted(inv.degree_bases.items())
                       for m, hit in zip(blades_of_degree(inv.space.dim, d), K.any(axis=0)) if hit]
            assert calls == reached, (family, params, side)
            empty += 0 in inv.dims.values()
    assert empty  # a side with an empty degree


@pytest.mark.parametrize("family,params", TRANSFER_PAIRS)
def test_transfer_equals_commutant(family, params):
    spec = build_pair(family, params)
    cpx = complexify(spec)
    spn = build_spinors(cpx.space_c)
    for side in ("G", "Gp"):
        inv = invariants(spec, side, cpx)
        ops = transfer_invariants(inv, spn)
        comm = commutant(side_operators(spec, spn, cpx, side), spn.dim_s)
        assert subspace_equal(ops, comm)


HOWE_PAIRS = [
    ("GL_R", (1, 1)), ("U", ((1, 0), (1, 0))), ("U", ((1, 1), (1, 0))),
    ("Sp_R", (1, 1)), ("GL_C", (1, 1)), ("GL_H", (1, 1)), ("Sp_C", (1, 1)),
    ("Sp_C_real", (1, 1)), ("Sp_H", ((1, 0), (1, 0))), ("GL_C_complex", (1, 1)),
    # non-minimal sizes: asymmetric members and larger spinor modules
    ("U", ((2, 0), (1, 0))), ("U", ((2, 1), (1, 0))), ("GL_R", (2, 1)),
    ("GL_R", (1, 2)), ("Sp_R", (1, 2)), ("Sp_H", ((1, 1), (1, 0))),
    ("GL_C_complex", (2, 1)), ("Sp_C", (1, 2)),
]


@pytest.mark.parametrize("family,params", HOWE_PAIRS)
def test_howe_correspondence(family, params):
    rep = howe_check(build_pair(family, params))
    assert rep.equal
    assert rep.mult_free
    assert rep.isotypic_count >= 1
    assert rep.dim_commutant == rep.dim_algebra
    assert rep.dim_commutant_other == rep.dim_algebra_other


def _span_oracle(spec):
    """The double commutant in End(S), the route the block sizes replaced: the
    8-field record with the span criterion for ``equal`` (rank plus containment
    both ways) and the joint commutant solved in End(S) from both sides' operators."""
    cpx = complexify(spec)
    spn = build_spinors(cpx.space_c)
    d = spn.dim_s
    ops_G, ops_Gp = (howe.side_operators(spec, spn, cpx, side) for side in ("G", "Gp"))
    comm_G, comm_Gp = commutant(ops_G, d), commutant(ops_Gp, d)
    alg_G, alg_Gp = generated_algebra(ops_G, d), generated_algebra(ops_Gp, d)
    joint = commutant(ops_G + ops_Gp, d)
    return (d, len(comm_G), len(comm_Gp), len(alg_Gp), len(alg_G),
            subspace_equal(comm_G, alg_Gp) and subspace_equal(comm_Gp, alg_G),
            commuting(itertools.combinations(joint, 2)), len(joint))


def _record(rep):
    return (rep.dim_s, rep.dim_commutant, rep.dim_commutant_other, rep.dim_algebra,
            rep.dim_algebra_other, rep.equal, rep.mult_free, rep.isotypic_count)


def _conjugated(ops, d):
    """ops in a fixed unitary change of basis, from a seeded QR."""
    q, _ = np.linalg.qr(np.random.default_rng(23).normal(size=(d, 2 * d)).view(complex))
    return [q @ o @ q.conj().T for o in ops]


# each fault's record (dim_s, dim_commutant, dim_commutant_other, dim_algebra,
# dim_algebra_other, equal, mult_free, isotypic_count) as the double commutant
# gives it, and whether <G~> and <G~'> are semisimple; howe_check gives the same
# record or refuses a non-semisimple algebra at its trace form
NEGATIVE_CONTROLS = {
    "G keeps every other generator": (
        "GL_R", (2, 2), lambda ops, sp, side: ops[::2] if side == "G" else ops,
        (16, 46, 20, 20, 6, False, True, 6), False),
    # dimensions agree, only the commutation clause can fail
    "G' conjugated by a unitary": (
        "GL_R", (2, 2), lambda ops, sp, side: ops if side == "G" else _conjugated(ops, sp.dim_s),
        (16, 20, 20, 20, 20, False, True, 1), True),
    "G' plus gamma(e_0)": (
        "GL_R", (2, 2), lambda ops, sp, side: ops if side == "G" else ops + [sp.gammas[0]],
        (16, 20, 3, 96, 20, False, True, 1), True),
    "both sides empty": (
        "GL_R", (1, 1), lambda ops, sp, side: [],
        (2, 4, 4, 1, 1, False, False, 4), True),
    # the upper triangular algebra is not its own double commutant: <G~'> = Comm<G~>
    # holds and only the second dimension clause fails
    "G upper triangular, G' the identity": (
        "GL_R", (1, 1), lambda ops, sp, side: (
            [np.triu(np.ones((2, 2))), np.diag([0.0, 1.0])] if side == "G" else [np.eye(2)]),
        (2, 1, 4, 1, 3, False, True, 1), False),
    # span{I, N} is its own commutant, so the double commutant certifies the
    # indecomposable S as a multiplicity-free sum of two blocks
    "G and G' the Jordan block": (
        "GL_R", (1, 1), lambda ops, sp, side: [np.array([[0.0, 1.0], [0.0, 0.0]])],
        (2, 2, 2, 2, 2, True, True, 2), False),
}


@pytest.mark.parametrize("fault", NEGATIVE_CONTROLS)
def test_negative_controls(fault, monkeypatch):
    family, params, alter, record, semisimple = NEGATIVE_CONTROLS[fault]
    sides = howe.side_operators
    monkeypatch.setattr(howe, "side_operators",
                        lambda spec, sp, cpx, side: alter(sides(spec, sp, cpx, side), sp, side))
    spec = build_pair(family, params)
    if semisimple:
        assert _record(howe_check(spec)) == record
    else:
        with pytest.raises(RuntimeError, match="not semisimple"):
            howe_check(spec)
    assert _span_oracle(spec) == record


@pytest.mark.parametrize("family,params", [("GL_R", (2, 2)), ("U", ((1, 1), (1, 0))),
                                           ("Sp_R", (1, 1)), ("Sp_C_real", (1, 1))])
@pytest.mark.parametrize("drop", [0, 2, -1])
def test_blocks_refuse_a_basis_missing_a_row(family, params, drop, monkeypatch):
    closure = howe.generated_algebra

    def short(ops, dim):
        alg = closure(ops, dim)
        del alg[drop]
        return alg

    monkeypatch.setattr(howe, "generated_algebra", short)
    with pytest.raises(RuntimeError, match="not closed"):
        howe_check(build_pair(family, params))


def test_certificate_refuses_centres_of_different_dimensions(monkeypatch):
    # a certified pair's two centres are both A cap A'; one row short must raise
    read = howe.blocks
    sides = []

    def short(alg, ops, dim):
        found, centre = read(alg, ops, dim)
        sides.append(ops)
        return found, centre[:-1] if len(sides) == 2 else centre

    monkeypatch.setattr(howe, "blocks", short)
    with pytest.raises(RuntimeError, match="centres differ"):
        howe_check(build_pair("GL_R", (2, 2)))


def _block_operators(sizes, seed):
    """Two random operators of (+) End(C^n) (x) I_m over the (n, m) of sizes,
    under a fixed non-unitary change of basis, so their algebra is not closed
    under adjoints."""
    rng = np.random.default_rng(seed)
    dim = sum(n * m for n, m in sizes)
    p = rng.normal(size=(dim, dim)) + dim * np.eye(dim)
    ops = []
    for _ in range(2):
        o = np.zeros((dim, dim))
        at = 0
        for n, m in sizes:
            o[at:at + n * m, at:at + n * m] = np.kron(rng.normal(size=(n, n)), np.eye(m))
            at += n * m
        ops.append(p @ o @ np.linalg.inv(p))
    return ops, dim


@pytest.mark.parametrize("sizes", [[(2, 3), (1, 2)], [(1, 1), (1, 1), (3, 1)], [(2, 2)]])
def test_blocks_read_a_known_decomposition(sizes):
    ops, dim = _block_operators(sizes, 4)
    alg = generated_algebra(ops, dim)
    found, centre = howe.blocks(alg, ops, dim)
    assert sorted(found) == sorted(sizes)
    assert len(alg) == sum(n * n for n, _ in sizes)
    assert len(commutant(ops, dim)) == sum(m * m for _, m in sizes)
    assert len(centre) == len(sizes) and commuting(itertools.product(centre, ops))


def test_blocks_gate_the_centre_gap_and_the_integer_traces(monkeypatch):
    ops, dim = _block_operators([(2, 3), (1, 2)], 4)
    alg = generated_algebra(ops, dim)
    monkeypatch.setattr(howe, "CENTRE_GAP", 2.0)
    with pytest.raises(RuntimeError, match="apart"):
        howe.blocks(alg, ops, dim)
    monkeypatch.undo()
    eigvals = np.linalg.eigvals
    monkeypatch.setattr(np.linalg, "eigvals", lambda a: eigvals(a) * 1.01)
    with pytest.raises(RuntimeError, match="no Wedderburn block sizes"):
        howe.blocks(alg, ops, dim)


def _full_stack_closure(ops, dim):
    """Oracle: each round stacks the basis and every op times every basis row
    and takes one SVD of the whole stack, until the rank stops growing."""
    basis = orthonormal_rows([np.eye(dim, dtype=complex)] + [np.asarray(o) for o in ops])
    while True:
        prods = list(basis)
        for o in ops:
            for b in basis:
                prods.append((np.asarray(o) @ b.reshape(dim, dim)).ravel())
        nxt = orthonormal_rows(prods)
        if nxt.shape[0] == basis.shape[0]:
            return [b.reshape(dim, dim) for b in basis]
        basis = nxt


def _side_operator_sets(family, params):
    spec = build_pair(family, params)
    cpx = complexify(spec)
    spn = build_spinors(cpx.space_c)
    return [(side_operators(spec, spn, cpx, side), spn.dim_s) for side in ("G", "Gp")]


_HOWE_TABLE_ROWS = [(fam, normalize_params(fam, json.loads(pkey)))
                    for (fam, pkey), row in load_expected_table().items()
                    if row["howe"] is not None]


@pytest.mark.parametrize("family,params",
                         HOWE_PAIRS + [r for r in _HOWE_TABLE_ROWS if r not in HOWE_PAIRS])
def test_equal_matches_the_span_oracle(family, params):
    spec = build_pair(family, params)
    assert _record(howe_check(spec)) == _span_oracle(spec)


@pytest.mark.parametrize("family,params",
                         HOWE_PAIRS + [r for r in _HOWE_TABLE_ROWS if r not in HOWE_PAIRS])
def test_closure_matches_the_full_stack_oracle(family, params):
    for ops, d in _side_operator_sets(family, params):
        alg = generated_algebra(ops, d)
        oracle = _full_stack_closure(ops, d)
        assert len(alg) == len(oracle)
        assert subspace_equal(alg, oracle)
        # an algebra: I and every o b lie in the span of the returned basis
        B = np.array([b.ravel() for b in alg])
        prods = np.concatenate([np.eye(d).reshape(1, -1)]
                               + [(np.asarray(o) @ B.reshape(-1, d, d)).reshape(len(B), -1)
                                  for o in ops])
        resid = prods - (prods @ B.conj().T) @ B
        assert np.abs(resid).max() <= 1e-8 * max(1.0, np.abs(prods).max())


@pytest.mark.parametrize("family,params", [("Sp_C_real", (1, 1)), ("GL_R", (2, 2)),
                                           ("U", ((1, 1), (1, 1)))])
def test_closure_never_stacks_products(family, params, monkeypatch):
    # at most the initial span{I, ops} or one frontier per SVD, never the
    # (1 + k) |B| rows of a full stack
    calls = []
    svd = np.linalg.svd

    def spy(a, *args, **kwargs):
        calls.append(np.shape(a)[0])
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    for ops, d in _side_operator_sets(family, params):
        calls.clear()
        alg = generated_algebra(ops, d)
        assert calls and max(calls) <= max(1 + len(ops), len(alg))


def test_closure_raises_when_its_basis_loses_orthonormality(monkeypatch):
    rows = howe.orthonormal_rows
    monkeypatch.setattr(howe, "orthonormal_rows", lambda r: rows(r) * 1.001)
    spn = build_spinors(complex_space(4))
    with pytest.raises(RuntimeError, match="orthonormality"):
        generated_algebra(spn.gammas, spn.dim_s)


def test_howe_algebra_saturated_by_group_elements():
    # adding Pi of random group exponentials must not grow <G~>
    spec = build_pair("Sp_R", (1, 1))
    cpx = complexify(spec)
    spn = build_spinors(cpx.space_c)
    ops = side_operators(spec, spn, cpx, "G")
    alg = generated_algebra(ops, spn.dim_s)
    rng = np.random.default_rng(2)
    extra = [pi_rep(spn, lift(random_element(spec.G, rng))) for _ in range(4)]
    alg2 = generated_algebra(list(ops) + extra, spn.dim_s)
    assert len(alg2) == len(alg)


def test_howe_scope_guards():
    with pytest.raises(UnsupportedFamilyError):
        howe_check(build_pair("O_real", ((1, 0), (2, 0))))
    with pytest.raises(UnsupportedFamilyError):
        howe_check(build_pair("O_C_real", (2, 2)))
    with pytest.raises(DimensionCapError):
        howe_check(build_pair("O_star", (2, 2)))


@pytest.mark.parametrize("family,params", [
    ("GL_R", (2, 1)), ("U", ((1, 1), (1, 1))), ("Sp_H", ((1, 1), (1, 0))), ("Sp_R", (1, 2))])
def test_joint_commutant_is_solved_inside_comm_G(family, params, monkeypatch):
    # a certified pair makes two commutant solves, the centre of each side's
    # algebra inside that algebra; the joint commutant is the centre of
    # <G~'> = Comm<G~>, and no solve sees the dim S^2 columns of End(S)
    spec = build_pair(family, params)
    solve, kernel = howe.commutant, howe.nullspace
    calls, widths = [], []

    def spy(ops, dim, within=None):
        calls.append((ops, within))
        return solve(ops, dim, within)

    def nullspace_spy(A):
        widths.append(np.shape(A)[1])
        return kernel(A)

    monkeypatch.setattr(howe, "commutant", spy)
    monkeypatch.setattr(howe, "nullspace", nullspace_spy)
    rep = howe_check(spec)
    monkeypatch.undo()
    cpx = complexify(spec)
    spn = build_spinors(cpx.space_c)
    d = spn.dim_s
    assert rep.equal
    assert widths and max(widths) < d * d
    sides = [side_operators(spec, spn, cpx, side) for side in ("G", "Gp")]
    assert len(calls) == 2
    for (got, within), want in zip(calls, sides):
        assert len(got) == len(want) and all(np.allclose(a, b) for a, b in zip(got, want))
        alg = generated_algebra(want, d)
        assert len(within) == len(alg) and subspace_equal(within, alg)
    joint = solve(sides[0] + sides[1], d)
    assert rep.isotypic_count == len(joint)
    assert rep.mult_free == commuting(itertools.combinations(joint, 2))


def test_joint_commutant_commutativity_detection():
    assert commuting(itertools.combinations([np.diag([1.0, 2.0]), np.diag([3.0, 4.0])], 2))
    assert not commuting([(np.array([[0.0, 1], [0, 0]]), np.array([[0.0, 0], [1, 0]]))])
    assert commuting([])


def test_unknown_side_name_rejected():
    # any name but G and Gp is an error, not G'
    spec = build_pair("GL_R", (1, 2))
    cpx = complexify(spec)
    for bad in ("H", "Gprime", "", "left", "G'"):
        with pytest.raises(ValueError):
            invariants(spec, bad, cpx)
        with pytest.raises(ValueError):
            side_operators(spec, build_spinors(cpx.space_c), cpx, bad)
