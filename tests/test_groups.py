"""Family embeddings: realifications, signatures, commutation, complexification."""

import ast
import dataclasses
import itertools
import json
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg as sla

from spinpairs import families, howe
from spinpairs.cli import load_expected_table
from spinpairs.clifford import real_space
from spinpairs.families import (FAMILIES, ambient_signature, build_pair,
                                normalize_params, sp_pq_quat_basis, u_pq_basis)
from spinpairs.groups import (ClassificationError, ComponentRep, OrthogonalMap, _expm, complexify,
                              fixed_real_basis, is_b_antisymmetric, orthogonalize_real_gram,
                              quaternion_J, quaternion_matrix_product, realify_complex_matrix,
                              realify_quaternionic, tensor_kl_permutation)
from spinpairs.howe import span_rank

RNG = np.random.default_rng(2024)


def random_element(side, rng: np.random.Generator) -> OrthogonalMap:
    """Product of a random Lie exponential and a random subset of one member's component reps."""
    M = np.eye(side.space.dim, dtype=complex)
    if side.lie_generators:
        X = sum(rng.normal() * g for g in side.lie_generators)
        M = M @ sla.expm(0.5 / max(1.0, np.abs(X).max()) * np.asarray(X, dtype=complex))
    for rep in side.component_reps:
        if rng.integers(2):
            M = M @ rep.map.matrix
    return OrthogonalMap(side.space, M.real if side.space.field_kind == "real" else M)


# --- realification of complex spaces ----------------------------------------

def test_tensor_kl_permutation_layout_2x2():
    # slot a(s,t) = (m-t)n+s, 1-based: slots 1..4 carry (1,2), (2,2), (1,1), (2,1)
    P = tensor_kl_permutation(2, 2)
    assert (P.sum(axis=0) == 1).all() and (P.sum(axis=1) == 1).all()
    slots = [divmod(int(np.argmax(P[a])), 2) for a in range(4)]
    assert [(s + 1, t + 1) for s, t in slots] == [(1, 2), (2, 2), (1, 1), (2, 1)]


def test_realified_matrix_multiplicative():
    for _ in range(10):
        A = RNG.normal(size=(3, 3)) + 1j * RNG.normal(size=(3, 3))
        B = RNG.normal(size=(3, 3)) + 1j * RNG.normal(size=(3, 3))
        assert np.allclose(realify_complex_matrix(A @ B),
                           realify_complex_matrix(A) @ realify_complex_matrix(B))


# --- quaternionic embedding --------------------------------------------------

def test_quaternion_identity_embeds_to_identity():
    n = 3
    M = realify_quaternionic(np.eye(n), np.zeros((n, n)))
    assert np.allclose(M, np.eye(2 * n))


def test_quaternion_j_block():
    M = realify_quaternionic(np.zeros((1, 1)), np.eye(1))
    assert np.allclose(M, np.array([[0, -1], [1, 0]]))


def test_quaternion_embedding_is_ring_homomorphism():
    # oracle: direct quaternion matrix arithmetic on (A, B) pairs
    for _ in range(50):
        n = int(RNG.integers(1, 4))
        x = (RNG.normal(size=(n, n)) + 1j * RNG.normal(size=(n, n)),
             RNG.normal(size=(n, n)) + 1j * RNG.normal(size=(n, n)))
        y = (RNG.normal(size=(n, n)) + 1j * RNG.normal(size=(n, n)),
             RNG.normal(size=(n, n)) + 1j * RNG.normal(size=(n, n)))
        lhs = realify_quaternionic(*x) @ realify_quaternionic(*y)
        rhs = realify_quaternionic(*quaternion_matrix_product(x, y))
        assert np.allclose(lhs, rhs)


def test_quaternion_image_characterized_by_J_conjugation():
    n = 2
    J = quaternion_J(n)
    g = realify_quaternionic(RNG.normal(size=(n, n)) + 1j * RNG.normal(size=(n, n)),
                             RNG.normal(size=(n, n)) + 1j * RNG.normal(size=(n, n)))
    assert np.allclose(g @ J, J @ g.conj(), atol=1e-9)
    h = np.diag([1.0 + 0j, 1, 1, 1j])
    assert not np.allclose(h @ J, J @ h.conj(), atol=1e-9)


def test_quaternion_embedding_injective():
    xs = []
    for _ in range(8):
        xs.append(realify_quaternionic(
            RNG.normal(size=(2, 2)) + 1j * RNG.normal(size=(2, 2)),
            RNG.normal(size=(2, 2)) + 1j * RNG.normal(size=(2, 2))))
    assert span_rank([x.ravel() for x in xs]) == 8


def test_fixed_real_basis_is_real_form():
    J1, J2 = quaternion_J(1), quaternion_J(2)
    R = fixed_real_basis(J1, J2)
    assert R.shape == (8, 8)
    P = np.kron(J1, J2)
    for k in range(8):
        assert np.allclose(P @ R[:, k].conj(), R[:, k])


# --- generic orthogonalization ----------------------------------------------

def test_orthogonalize_real_gram_roundtrip():
    M = RNG.normal(size=(6, 6))
    M = M + M.T + 0.5 * np.eye(6)
    P, norms = orthogonalize_real_gram(M)
    assert np.allclose(P.T @ M @ P, np.diag(norms), atol=1e-10)
    assert list(norms) == sorted(norms, reverse=True)


# --- signatures across the classification -----------------------------------

SIGNATURE_CASES = [
    ("O_real", ((1, 0), (2, 0)), (2, 0)),
    ("O_real", ((1, 1), (2, 1)), (3, 3)),
    ("O_real", ((2, 0), (0, 2)), (0, 4)),
    ("U", ((1, 0), (1, 0)), (2, 0)),
    ("U", ((1, 1), (1, 0)), (2, 2)),
    ("U", ((2, 1), (1, 1)), (6, 6)),
    ("Sp_R", (1, 1), (2, 2)),
    ("Sp_R", (1, 2), (4, 4)),
    ("Sp_R", (2, 2), (8, 8)),
    ("O_C_real", (2, 2), (4, 4)),
    ("O_C_real", (2, 3), (6, 6)),
    ("O_C_real", (3, 3), (9, 9)),
    ("Sp_C_real", (1, 1), (4, 4)),
    ("Sp_C_real", (1, 2), (8, 8)),
    ("Sp_C_real", (2, 1), (8, 8)),
    ("Sp_H", ((1, 0), (1, 0)), (4, 0)),
    ("Sp_H", ((1, 0), (1, 1)), (4, 4)),
    ("Sp_H", ((1, 1), (1, 1)), (8, 8)),
    ("Sp_H", ((2, 0), (1, 0)), (8, 0)),
    ("O_star", (2, 2), (8, 8)),
    ("O_star", (2, 3), (12, 12)),
    ("O_star", (3, 2), (12, 12)),
    ("GL_R", (1, 1), (1, 1)),
    ("GL_R", (2, 3), (6, 6)),
    ("GL_R", (2, 2), (4, 4)),
    ("GL_C", (1, 1), (2, 2)),
    ("GL_C", (1, 2), (4, 4)),
    ("GL_C", (2, 1), (4, 4)),
    ("GL_H", (1, 1), (4, 4)),
    ("GL_H", (1, 2), (8, 8)),
    ("GL_H", (2, 1), (8, 8)),
    ("O_C", (2, 2), (4, 0)),
    ("O_C", (3, 3), (9, 0)),
    ("O_C", (2, 4), (8, 0)),
    ("Sp_C", (1, 1), (4, 0)),
    ("Sp_C", (1, 2), (8, 0)),
    ("Sp_C", (2, 1), (8, 0)),
    ("GL_C_complex", (1, 1), (2, 0)),
    ("GL_C_complex", (2, 1), (4, 0)),
    ("GL_C_complex", (1, 3), (6, 0)),
]


@pytest.mark.parametrize("family,params,signature", SIGNATURE_CASES)
def test_ambient_signature_matches_classification(family, params, signature):
    spec = build_pair(family, params)
    assert spec.space.signature == signature
    assert ambient_signature(family, normalize_params(family, params)) == signature


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_build_pair_rejects_a_space_off_the_signature_table(family, monkeypatch):
    params = FAMILIES[family].minimal
    spec = build_pair(family, params)
    p, q = spec.space.signature
    wrong = real_space(q, p) if p != q else real_space(p + 1, q - 1)
    monkeypatch.setitem(families.FAMILIES, family, dataclasses.replace(
        FAMILIES[family], build=lambda params: (wrong, spec.G, spec.Gp)))
    with pytest.raises(RuntimeError, match="ambient signature"):
        build_pair(family, params)


def test_excluded_sizes_rejected():
    for fam in ("O_C", "O_C_real", "O_star"):
        with pytest.raises(ClassificationError):
            build_pair(fam, (1, 2))
    with pytest.raises(ClassificationError):
        build_pair("U", ((0, 0), (1, 0)))
    with pytest.raises(ClassificationError):
        build_pair("nonsense", (1, 1))


@pytest.mark.parametrize("family", ["O_C", "O_C_real", "O_star"])
def test_excluded_sizes_rejected_before_building(family, monkeypatch):
    # the smallest member size lives in the family's row, not in its builder
    def fail(*args):
        raise AssertionError("an excluded size reached the builder")

    monkeypatch.setitem(families.FAMILIES, family,
                        dataclasses.replace(FAMILIES[family], build=fail))
    with pytest.raises(ClassificationError, match="at least 2"):
        build_pair(family, (1, 2))


# one instance per family above the 62 generators a blade mask can carry, most just above
OVERSIZED = [
    ("O_real", ((8, 0), (8, 0))), ("U", ((4, 2), (3, 3))), ("Sp_R", (4, 4)),
    ("O_C_real", (6, 6)), ("Sp_C_real", (2, 4)), ("Sp_H", ((4, 0), (2, 2))),
    ("O_star", (4, 4)), ("GL_R", (8, 8)), ("GL_C", (4, 4)), ("GL_H", (2, 4)),
    ("O_C", (8, 8)), ("Sp_C", (6, 6)), ("GL_C_complex", (6, 6)),
]


@pytest.mark.parametrize("family,params", OVERSIZED)
def test_oversized_instances_rejected_before_building(family, params, monkeypatch):
    def fail(*args):
        raise AssertionError("an oversized instance reached the builder")

    monkeypatch.setitem(families.FAMILIES, family,
                        dataclasses.replace(FAMILIES[family], build=fail))
    with pytest.raises(ClassificationError, match="ambient dimension"):
        build_pair(family, params)


def test_ambient_dim_matches_built_space():
    rows = [(f, json.loads(p)) for f, p in load_expected_table()]
    for family, params in rows + sorted((f, row.minimal) for f, row in FAMILIES.items()):
        spec = build_pair(family, params)
        assert sum(ambient_signature(family, normalize_params(family, params))) == spec.space.dim


# --- embedded structure -----------------------------------------------------

@pytest.mark.parametrize("family,params", sorted((f, row.minimal) for f, row in FAMILIES.items()))
def test_embeddings_are_isometries_and_commute(family, params):
    spec = build_pair(family, params)
    rng = np.random.default_rng(99)
    for _ in range(100):
        g = random_element(spec.G, rng)
        h = random_element(spec.Gp, rng)
        assert g.is_isometry()
        assert h.is_isometry()
        assert np.allclose(g.matrix @ h.matrix, h.matrix @ g.matrix, atol=1e-8)
    for X in spec.G.lie_generators + spec.Gp.lie_generators:
        assert is_b_antisymmetric(spec.space, X)
    for rep in spec.G.component_reps + spec.Gp.component_reps:
        assert rep.map.is_isometry()


@pytest.mark.parametrize("family,params", sorted((f, row.minimal) for f, row in FAMILIES.items()))
def test_expm_matches_scipy_on_every_lie_generator(family, params):
    # the identity probe's scale, then scales at which the squaring loop runs
    spec = build_pair(family, params)
    for X in spec.G.lie_generators + spec.Gp.lie_generators:
        X = np.asarray(X, dtype=complex)
        for c in (0.3 / max(1.0, np.abs(X).max()), 1.0, 7.0, 40.0):
            want = sla.expm(c * X)
            assert np.abs(_expm(c * X) - want).max() <= 1e-12 * np.abs(want).max()


def test_component_reps_exact_isometries_where_integer():
    # reflection-type representatives have integer entries: check exactly
    for family, params in [("O_real", ((1, 1), (1, 1))), ("GL_R", (1, 1)), ("GL_R", (2, 2)),
                           ("O_C_real", (2, 2))]:
        spec = build_pair(family, params)
        B = np.diag(spec.space.norms)
        for rep in spec.G.component_reps + spec.Gp.component_reps:
            M = rep.map.matrix
            Mi = np.round(M.real).astype(int)
            assert (M == Mi).all()
            assert (Mi.T @ B @ Mi == B).all()


def test_u1_single_rotation_generator():
    spec = build_pair("U", ((1, 0), (1, 0)))
    assert len(spec.G.lie_generators) == 1
    X = spec.G.lie_generators[0]
    assert np.allclose(X, np.array([[0.0, -1.0], [1.0, 0.0]])) \
        or np.allclose(X, np.array([[0.0, 1.0], [-1.0, 0.0]]))


def test_gl1_component_rep_negates_both_split_vectors():
    # s = (-1) acts by -1 on E1 and on E1^*, so both b_+- vectors flip
    spec = build_pair("GL_R", (1, 1))
    rep = spec.G.component_reps[0]
    assert np.allclose(rep.map.matrix, -np.eye(2))


def test_o2c_reflection_realifies_to_kl_pattern():
    # det -1 representative of the first factor negates exactly the k/l slots
    # with s = 1: 1-based k-indices (m-t)n+1 -> {1, 3} for n = m = 2
    spec = build_pair("O_C_real", (2, 2))
    g = spec.G.component_reps[0].map.matrix
    want = np.diag([-1.0, 1.0, -1.0, 1.0, -1.0, 1.0, -1.0, 1.0])
    assert np.allclose(g, want)


def test_gl_type2_inverse_transpose_on_dual():
    spec = build_pair("GL_R", (2, 2))
    A = np.array([[2.0, 1.0], [0.0, 0.5]])
    g = spec.G.embed_group(A)
    assert g.is_isometry()
    gi = spec.G.embed_group(np.linalg.inv(A))
    assert np.allclose(g.matrix @ gi.matrix, np.eye(8), atol=1e-10)


# --- complexification --------------------------------------------------------

def test_complexify_dimension_preserved_all_families():
    for family, params in ((f, row.minimal) for f, row in FAMILIES.items()):
        spec = build_pair(family, params)
        cpx = complexify(spec)
        assert cpx.space_c.dim == spec.space.dim
        B = np.eye(cpx.space_c.dim)
        for X in cpx.lie_G + cpx.lie_Gp:
            assert np.allclose(X.T + X, 0, atol=1e-9)
        for _, g in cpx.comps_G + cpx.comps_Gp:
            assert np.allclose(g.T @ g, B, atol=1e-9)


@pytest.mark.parametrize("params", [(1, 1), (1, 2), (2, 1), (2, 2), (1, 3)])
@pytest.mark.parametrize("family,real_form", [("Sp_C", "Sp_R"), ("GL_C_complex", "GL_R")])
def test_complex_families_are_complexified_real_forms(family, real_form, params):
    # one complexification rule: the complex frame is the real frame divided by complex_scales
    spec = build_pair(family, params)
    cpx = complexify(build_pair(real_form, params))
    for side in ("G", "Gp"):
        lie, _ = cpx.side(side)
        ours = spec.side(side).lie_generators
        assert len(ours) == len(lie)
        assert all(np.array_equal(X, Y) for X, Y in zip(ours, lie)), side


REALIFIED = [("O_C_real", "O_C", p) for p in [(2, 2), (2, 3), (3, 2), (3, 3)]] \
    + [("Sp_C_real", "Sp_C", p) for p in [(1, 1), (1, 2), (2, 1)]] \
    + [("GL_C", "GL_C_complex", p) for p in [(1, 1), (1, 2), (2, 1), (2, 2)]]


@pytest.mark.parametrize("family,complex_family,params", REALIFIED)
def test_realified_families_are_realified_complex_pairs(family, complex_family, params):
    # (G, G')_R: every matrix is realify_complex_matrix of the complex pair's, X then iX
    spec, cspec = build_pair(family, params), build_pair(complex_family, params)
    N = cspec.space.dim
    assert spec.space.norms == (1,) * N + (-1,) * N
    for side in ("G", "Gp"):
        real, cpx = spec.side(side), cspec.side(side)
        want = [realify_complex_matrix(c * X) for c in (1, 1j) for X in cpx.lie_generators]
        assert len(real.lie_generators) == len(want)
        assert all(np.array_equal(X, W) for X, W in zip(real.lie_generators, want)), side
        assert [r.name for r in real.component_reps] == [r.name for r in cpx.component_reps]
        assert all(np.array_equal(r.map.matrix, realify_complex_matrix(s.map.matrix))
                   for r, s in zip(real.component_reps, cpx.component_reps)), side
        assert [x.name for x in real.loops] == [x.name for x in cpx.loops]
        for x, y in zip(real.loops, cpx.loops):
            assert np.array_equal(x.generator, realify_complex_matrix(y.generator)), x.name
            assert sorted(x.weights) == sorted([*y.weights, *(-y.weights)]), x.name


@pytest.mark.parametrize("fault", ["symmetric generator", "scaled rep", "half-integer loop"])
def test_realified_sides_pass_the_construction_checks(fault):
    spec = build_pair("O_C", (2, 2))
    E, G = spec.space, spec.G
    X = G.lie_generators[0]
    if fault == "symmetric generator":
        G.lie_generators = [X @ X]
    elif fault == "scaled rep":
        G.component_reps = [ComponentRep("r", OrthogonalMap(E, 2.0 * np.eye(E.dim)))]
    else:
        G.loops = [SimpleNamespace(name="half", generator=G.loops[0].generator / 2)]
    with pytest.raises((RuntimeError, ValueError)):
        families.realified(lambda params: (spec.space, spec.G, spec.Gp))((2, 2))


def test_lie_generators_are_matrices_with_one_antisymmetry_check():
    # no Lie element wrapper: groups.is_b_antisymmetric is the one test of X^T B + B X = 0
    for path in Path(families.__file__).parent.glob("*.py"):
        text = path.read_text()
        assert "LieElement" not in text and ".is_b_antisymmetric(" not in text, path.name
        assert text.count(".T @ B + B @") == (1 if path.name == "groups.py" else 0), path.name


def test_realification_has_one_rule():
    # realified pairs come from families.realified, not from an Embedding flag or a doubled basis
    assert "realify" not in families.Embedding.__dataclass_fields__
    assert "real_form" not in Path(families.__file__).read_text()


def test_permutation_frames_embed_integer_generators():
    # O_real and U take an exact permutation frame: sign-matrix generators stay exact
    sides = [(p, q) for p in range(5) for q in range(5) if 1 <= p + q <= 4]
    checked = 0
    for family, a, b in itertools.product(("O_real", "U"), sides, sides):
        if sum(ambient_signature(family, (a, b))) > 8:
            continue
        spec = build_pair(family, (a, b))
        for X in spec.G.lie_generators + spec.Gp.lie_generators:
            assert np.isin(X, (-1.0, 0.0, 1.0)).all(), (family, a, b)
            checked += 1
    assert checked > 100


def test_pairs_have_one_constructor_and_the_models_reuse_the_family_bases():
    # every builder hands a frame, two side models and two members to _pair, the
    # signatures live in one table, and howe's models build no Lie basis of their own
    tree = ast.parse(Path(families.__file__).read_text())
    functions = [f for f in tree.body if isinstance(f, ast.FunctionDef)]
    callers = {f.name for f in functions for node in ast.walk(f)
               if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "DualPairSpec"}
    assert callers == {"build_pair"}
    closures = {node.name for f in functions for node in ast.walk(f)
                if isinstance(node, ast.FunctionDef) and node is not f}
    assert "side" not in closures
    text = Path(families.__file__).read_text()
    assert "_check_signature" not in text and "DIM_FACTOR" not in text
    bases = {name for name in vars(families) if name.endswith("_basis")}
    models = [c for c in ast.parse(Path(howe.__file__).read_text()).body
              if isinstance(c, ast.ClassDef) and c.name.endswith("Model")]
    assert len(models) == 3
    for cls in models:
        methods = {f.name: f for f in cls.body if isinstance(f, ast.FunctionDef)}
        assert {n.id for n in ast.walk(methods["lie"]) if isinstance(n, ast.Name)} & bases, cls.name
        for name in ("lie", "comps"):
            assert not any(isinstance(n, ast.Subscript) and isinstance(n.ctx, ast.Store)
                           for n in ast.walk(methods[name])), (cls.name, name)


def test_only_families_names_a_family():
    # every fact about a family lives in its row of families.FAMILIES
    for path in Path(families.__file__).parent.glob("*.py"):
        if path.name != "families.py":
            tags = {node.value for node in ast.walk(ast.parse(path.read_text()))
                    if isinstance(node, ast.Constant) and node.value in FAMILIES}
            assert not tags, (path.name, tags)


def test_every_frame_comes_from_groups_or_the_split_frame():
    # builders take orthogonal frames from groups.py or _split_frame, never their own
    text = Path(families.__file__).read_text()
    assert "np.sqrt(" not in text
    assert "eigh(" not in text


def _complex_structure(spec, d):
    # multiplication by i on E, the G-embedding of i * I_d; complexifying is a
    # similarity, so its eigenvalues are those of the complexified structure
    return spec.G.embed_group(1j * np.eye(d)).matrix


def test_u1_pair_complex_structure_splits_evenly():
    spec = build_pair("U", ((1, 0), (1, 0)))
    w = np.linalg.eigvals(_complex_structure(spec, 1))
    assert sorted(np.round(w.imag).astype(int).tolist()) == [-1, 1]


def test_indefinite_u_pair_complex_structure_splits_evenly():
    # the complexified space of a unitary pair splits into conjugate halves
    spec = build_pair("U", ((1, 1), (1, 0)))
    w = np.linalg.eigvals(_complex_structure(spec, 2))
    counts = sorted(np.round(w.imag).astype(int).tolist())
    assert counts == [-1, -1, 1, 1]


def test_gl_h_complexification_is_full_matrix_algebra():
    # complex span of the embedded quaternionic gl(n) has dimension (2n)^2
    for n in (1, 2):
        spec = build_pair("GL_H", (n, 1))
        cpx = complexify(spec)
        assert span_rank(cpx.lie_G) == 4 * n * n


def test_sp_h_complexification_dimension():
    # sp(p,q,H) complexifies to the full complex symplectic algebra of rank p+q
    spec = build_pair("Sp_H", ((1, 1), (1, 0)))
    cpx = complexify(spec)
    k = 2
    assert span_rank(cpx.lie_G) == k * (2 * k + 1)


def test_u_lie_dimensions():
    assert len(u_pq_basis(2, 1)) == 9
    assert len(sp_pq_quat_basis(1, 1)) == 10


# --- group / Lie consistency of the embeddings --------------------------------

LOOPS = [(family, which, i)
         for family, params in sorted((f, row.minimal) for f, row in FAMILIES.items())
         for which in ("G", "Gp")
         for i in range(len(build_pair(family, params).side(which).loops))]


def test_minimal_families_carry_fourteen_loops():
    assert len(LOOPS) == 14


@pytest.mark.parametrize("family,which,index", LOOPS)
def test_loop_is_one_parameter_subgroup_tangent_to_lie_span(family, which, index):
    spec = build_pair(family, FAMILIES[family].minimal)
    side = spec.side(which)
    loop = side.loops[index]
    for s, t in ((0.3, 1.1), (2.0, 2.5), (np.pi, np.pi)):
        assert np.abs(loop.at(s).matrix @ loop.at(t).matrix
                      - loop.at(s + t).matrix).max() < 1e-9
    assert np.abs(loop.at(2 * np.pi).matrix - np.eye(spec.space.dim)).max() < 1e-9
    # the tangent at 0 lies in the span of the Lie generators over the ambient
    # field (a complex ambient carries a complex basis of the member's algebra)
    h = 1e-4
    tangent = np.asarray((loop.at(h).matrix - loop.at(-h).matrix) / (2 * h), dtype=complex)
    gens = [np.asarray(X, dtype=complex).ravel() for X in side.lie_generators]
    if spec.space.field_kind == "complex":
        gens += [1j * g for g in gens]
    A = np.array(gens).T
    A = np.vstack([A.real, A.imag])
    v = np.concatenate([tangent.ravel().real, tangent.ravel().imag])
    coeffs, *_ = np.linalg.lstsq(A, v, rcond=None)
    assert np.linalg.norm(v) > 0.5
    assert np.linalg.norm(v - A @ coeffs) < 1e-9 * np.linalg.norm(v)
