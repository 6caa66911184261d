"""Invariants, generator theorems, transfer, and the double-commutant checks."""

import ast
from pathlib import Path

import numpy as np
import pytest

import spinpairs
from spinpairs.clifford import ExteriorElement, complex_space, exterior_vector
from spinpairs.families import build_pair
from spinpairs.groups import complexify
from spinpairs.howe import (DimensionCapError, GLModel, OModel, SpModel,
                            UnsupportedFamilyError, blades_of_degree, commutant,
                            exterior_derivation_matrix, exterior_group_matrix,
                            generated_algebra, howe_check, invariant_space, invariants,
                            is_commutative, nullspace, side_operators, subspace_equal,
                            transfer_invariants, verify_generation)
from spinpairs.pin import lift
from spinpairs.spinor import build_spinors, pi_rep

RNG = np.random.default_rng(314)


# --- exterior actions ---------------------------------------------------------

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
    D2 = exterior_derivation_matrix(X, 2)
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
        assert np.allclose(sla.expm(exterior_derivation_matrix(X, d)),
                           exterior_group_matrix(g, d), atol=1e-8)


@pytest.mark.parametrize("build", [exterior_group_matrix, exterior_derivation_matrix])
def test_exterior_matrices_reject_non_square(build):
    with pytest.raises(ValueError):
        build(np.ones((3, 5)), 1)


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


def _split_cases():
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


SPLIT_CASES = _split_cases()


@pytest.mark.parametrize("name", SPLIT_CASES)
def test_split_nullspace_matches_dense_svd(name):
    A = SPLIT_CASES[name]
    K = nullspace(A)
    oracle = _dense_kernel(A)
    assert K.shape == oracle.shape
    assert np.abs(A @ K.T).max(initial=0.0) < 1e-9
    assert np.allclose(K @ K.conj().T, np.eye(len(K)), atol=1e-12)
    # the same subspace: equal orthogonal projectors
    assert np.allclose(K.T @ K.conj(), oracle.T @ oracle.conj(), atol=1e-9)
    if name == "no rows":
        assert np.array_equal(K, np.eye(70))


def test_split_cuts_every_block_at_the_whole_matrix_scale():
    # a block with singular values 1e3 sets the cutoff 1e-8 * 1e3 = 1e-5, so the
    # 5e-6 direction of another block is kernel, as in one dense SVD; a per-block
    # scale of max(1, 1) would cut at 1e-8 and count it as rank
    rng = np.random.default_rng(6)

    def unitary(n):
        return np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))[0]

    side = 16
    loud = 1e3 * unitary(side)
    quiet = unitary(side) @ np.diag([5e-6] + [1.0] * (side - 1)) @ unitary(side)
    A = _permuted_blocks(rng, [loud, quiet, unitary(side), unitary(side), unitary(side)])
    assert nullspace(A).shape[0] == _dense_kernel(A).shape[0] == 1


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
            D = exterior_derivation_matrix(X, d)
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

    assert (eta(0, 1) + eta(1, 0)).norm() < 1e-12


def test_gamma_generators_killed_by_sp_derivations():
    model = SpModel(1, 2)
    blades = blades_of_degree(model.dim, 2)
    D = [exterior_derivation_matrix(X, 2) for X in model.lie()]
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


def test_verify_generation_rejects_a_non_invariant_generator():
    # the reflection in comps negates e0 ^ e2, though so(2) kills it
    class WithExtra(OModel):
        def generators(self):
            return super().generators() + [ExteriorElement(self.space(), {0b101: 1.0})]

    with pytest.raises(RuntimeError):
        verify_generation(WithExtra(2, 2))


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
    assert len(ops) == inv.total_dim()


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
    # tall SVD builds a full U factor
    calls = []
    svd = np.linalg.svd

    def spy(a, *args, **kwargs):
        calls.append((np.shape(a), kwargs.get("full_matrices", True)))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    spn = build_spinors(complex_space(4))
    d = spn.dim_s
    assert len(commutant(spn.gammas, d)) == 1
    assert len(calls) > 1
    for (rows, cols), full in calls:
        assert rows <= d * d
        assert not (full and rows > cols)


def test_rank_decisions_only_in_howe():
    # every SVD, and with it every rank cutoff, lives in howe.py
    for path in Path(spinpairs.__file__).parent.glob("*.py"):
        text = path.read_text()
        assert "full_matrices=True" not in text, path.name
        if path.name != "howe.py":
            assert "svd(" not in text, path.name


# public names that only tests call, each kept for a reason
KEPT_FOR_TESTS = {
    "blade_product": "oracle: the blade sign rule, against which the product is compared",
    "chevalley_T_vectors": "oracle: the Chevalley map by its permutation-sum definition",
    "quaternion_matrix_product": "oracle: quaternion arithmetic for the realified embedding",
    "pin_element": "oracle: the full Pin membership check of lifted elements",
    "blade": "constructor of test inputs, like SideSpec.random_element",
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


def test_every_public_name_is_used_by_the_package_or_benchmark():
    src = Path(spinpairs.__file__).parent
    modules = {p: ast.parse(p.read_text()) for p in src.glob("*.py") if p.name != "__init__.py"}
    bench = Path(__file__).resolve().parents[1] / "bench"
    used = {name for tree in [*modules.values(), *(ast.parse(p.read_text())
                                                   for p in bench.glob("*.py"))]
            for name in _references(tree)}
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


def test_generated_algebra_of_gammas_is_full():
    spn = build_spinors(complex_space(4))
    alg = generated_algebra(spn.gammas, spn.dim_s)
    assert len(alg) == 16


TRANSFER_PAIRS = [
    ("GL_R", (1, 1)), ("U", ((1, 0), (1, 0))), ("U", ((1, 1), (1, 0))),
    ("Sp_R", (1, 1)), ("Sp_H", ((1, 0), (1, 0))), ("GL_C", (1, 1)),
    ("GL_H", (1, 1)), ("Sp_C_real", (1, 1)), ("GL_C_complex", (1, 1)),
    ("Sp_C", (1, 1)),
]


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
    assert rep.subspace_equality
    assert rep.joint_commutant_commutative
    assert rep.isotypic_count >= 1
    assert rep.dim_commutant_G == rep.dim_algebra_Gp
    assert rep.dim_commutant_Gp == rep.dim_algebra_G


def test_howe_algebra_saturated_by_group_elements():
    # adding Pi of random group exponentials must not grow <G~>
    spec = build_pair("Sp_R", (1, 1))
    cpx = complexify(spec)
    spn = build_spinors(cpx.space_c)
    ops = side_operators(spec, spn, cpx, "G")
    alg = generated_algebra(ops, spn.dim_s)
    rng = np.random.default_rng(2)
    extra = [pi_rep(spn, lift(spec.G.random_element(rng))) for _ in range(4)]
    alg2 = generated_algebra(list(ops) + extra, spn.dim_s)
    assert len(alg2) == len(alg)


def test_howe_scope_guards():
    with pytest.raises(UnsupportedFamilyError):
        howe_check(build_pair("O_real", ((1, 0), (2, 0))))
    with pytest.raises(UnsupportedFamilyError):
        howe_check(build_pair("O_C_real", (2, 2)))
    with pytest.raises(DimensionCapError):
        howe_check(build_pair("O_star", (2, 2)))


def test_joint_commutant_commutativity_detection():
    assert is_commutative([np.diag([1.0, 2.0]), np.diag([3.0, 4.0])])
    assert not is_commutative([np.array([[0.0, 1], [0, 0]]), np.array([[0.0, 0], [1, 0]])])


def test_unknown_side_name_rejected():
    # any name outside the aliases of G and G' is an error, not G'
    spec = build_pair("GL_R", (1, 2))
    cpx = complexify(spec)
    for bad in ("H", "Gprime", ""):
        with pytest.raises(ValueError):
            invariants(spec, bad, cpx)
        with pytest.raises(ValueError):
            side_operators(spec, build_spinors(cpx.space_c), cpx, bad)
    assert invariants(spec, "left", cpx).dims == invariants(spec, "G", cpx).dims
    assert invariants(spec, "G'", cpx).dims == invariants(spec, "Gp", cpx).dims
