"""Acceptance criteria: one test per criterion, at the stated tolerances.

Each test prints a single PASS line when its criterion holds; the suite is
the exit gate for the whole artifact.
"""

import time

import numpy as np
import pytest
import scipy.linalg as sla

from spinpairs.clifford import (CliffordElement, QuadraticSpace, chevalley_T,
                                chevalley_T_inv, exterior_apply_map, real_space)
from spinpairs.families import build_pair
from spinpairs.groups import OrthogonalMap, complexify
from spinpairs.howe import (GLModel, OModel, SpModel, commutant, howe_check,
                            invariants, side_operators, subspace_equal,
                            transfer_invariants, verify_generation)
from spinpairs.pin import (all_commute, classify_extension, commutator_pairing, lift,
                           loop_lift_sign, project)
from spinpairs.spinor import build_spinors

EQ_TOL = 1e-9


def random_exact(rng, space, nterms=4):
    terms = {int(rng.integers(1 << space.dim)): complex(int(rng.integers(-3, 4)),
                                                        int(rng.integers(-3, 4)))
             for _ in range(nterms)}
    return CliffordElement(space, terms)


def gaussian_integer(x):
    """x, once every coefficient is checked to be a Gaussian integer with parts
    below 2**53, where complex doubles add and multiply integers exactly."""
    for c in x.terms.values():
        for part in (c.real, c.imag):
            assert part == int(part) and abs(part) < 2 ** 53
    return x


def random_float(rng, space, nterms=4):
    terms = {int(rng.integers(1 << space.dim)): complex(rng.normal(), rng.normal())
             for _ in range(nterms)}
    return CliffordElement(space, terms)


def random_isometry(space, rng, reflect=True):
    n = space.dim
    B = np.diag(np.array(space.norms, dtype=float))
    A = rng.normal(size=(n, n))
    X = A - B @ A.T @ B
    g = sla.expm(0.7 * X / max(1.0, np.abs(X).max()))
    if reflect and rng.random() < 0.5:
        refl = np.eye(n)
        k = int(rng.integers(n))
        refl[k, k] = -1.0
        g = g @ refl
    return OrthogonalMap(space, g)


def test_criterion_1_clifford_axioms():
    """Associativity and generator relations, exact and to 1e-9, under 10 s."""
    t0 = time.monotonic()
    for dim in (2, 4, 8, 12):
        q = dim // 2
        space = QuadraticSpace("real", (1,) * (dim - q) + (-1,) * q)
        rng = np.random.default_rng(dim)
        exact_elems = [random_exact(rng, space) for _ in range(200)]
        for i in range(0, 198):
            x, y, z = exact_elems[i], exact_elems[i + 1], exact_elems[i + 2]
            xy, yz = gaussian_integer(x * y), gaussian_integer(y * z)
            assert gaussian_integer(xy * z).equals_exact(gaussian_integer(x * yz))
        rngf = np.random.default_rng(dim + 1)
        float_elems = [random_float(rngf, space) for _ in range(200)]
        for i in range(0, 198):
            x, y, z = float_elems[i], float_elems[i + 1], float_elems[i + 2]
            assert ((x * y) * z).isclose(x * (y * z), EQ_TOL)
        for i in range(dim):
            for j in range(dim):
                ei = CliffordElement(space, {1 << i: 1})
                ej = CliffordElement(space, {1 << j: 1})
                anti = gaussian_integer(ei * ej + ej * ei)
                want = CliffordElement(space, {0: 2 * space.norms[i] if i == j else 0})
                assert anti.equals_exact(want)
                assert anti.isclose(want, EQ_TOL)
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0, f"criterion 1 runtime {elapsed:.1f}s over budget"
    print(f"\nACCEPTANCE 1 PASS: Clifford axioms exact + 1e-9 on dims 2/4/8/12 "
          f"({elapsed:.1f}s)")


def test_criterion_2_covering():
    """project(lift(g)) = g to 1e-9, fibers exactly two-element, per signature."""
    for pq in [(2, 0), (1, 1), (2, 2), (4, 4)]:
        space = real_space(*pq)
        rng = np.random.default_rng(100 + pq[0] * 10 + pq[1])
        for _ in range(100):
            g = random_isometry(space, rng)
            x = lift(g)
            assert np.allclose(project(x).matrix, g.matrix, atol=EQ_TOL)
            y = lift(project(x))
            same = x.value.distance(y.value)
            opp = x.value.distance((-y).value)
            assert min(same, opp) < 1e-8, "relift escaped the fiber"
            assert max(same, opp) > 1e-2, "fiber elements must differ by the sign"
    print("\nACCEPTANCE 2 PASS: covering round trip and two-element fibers "
          "on (2,0),(1,1),(2,2),(4,4)")


THEOREM1_FAMILIES = [
    ("U", ((1, 0), (1, 0))), ("Sp_R", (1, 1)), ("O_C_real", (2, 2)),
    ("Sp_C_real", (1, 1)), ("Sp_H", ((1, 0), (1, 0))), ("O_star", (2, 2)),
    ("GL_R", (1, 1)), ("GL_C", (1, 1)), ("GL_H", (1, 1)),
    # complex-ambient families at their smallest all-commuting sizes
    ("O_C", (3, 3)), ("Sp_C", (1, 1)), ("GL_C_complex", (1, 1)),
]


def test_criterion_3_lifted_pairs_commute():
    """Every classified non-orthogonal family commutes after lifting; control fails."""
    t0 = time.monotonic()
    for family, params in THEOREM1_FAMILIES:
        spec = build_pair(family, params)
        assert spec.space.dim <= 16
        recs = commutator_pairing(spec)
        assert all_commute(recs), (family, recs)
    control = commutator_pairing(build_pair("O_real", ((1, 0), (2, 0))))
    assert any(r["sign"] == -1 for r in control)
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0, f"criterion 3 runtime {elapsed:.1f}s over budget"
    print(f"\nACCEPTANCE 3 PASS: 12 classified families all-commute, real-orthogonal "
          f"control has a -1 ({elapsed:.1f}s)")


def test_criterion_4_cover_classification():
    """Path-lifted extension labels match the classification table."""
    expect = [
        ("U", ((1, 0), (1, 0)), "G", "DetHalf"),       # Lambda(1,0): det-half cover
        ("U", ((1, 1), (1, 0)), "G", "Lambda(1,1)"),
        ("U", ((1, 0), (1, 1)), "G", "Trivial"),
        ("U", ((1, 1), (1, 1)), "G", "Trivial"),
        ("Sp_R", (1, 1), "G", "Trivial"),
        ("O_C_real", (2, 2), "G", "Trivial"),
        ("Sp_H", ((1, 0), (1, 0)), "G", "Trivial"),
        ("O_star", (2, 2), "G", "Trivial"),
        ("GL_R", (1, 1), "G", "Trivial"),
        ("GL_R", (2, 2), "G", "Trivial"),
        ("GL_C", (1, 1), "G", "Trivial"),
        ("GL_H", (1, 1), "G", "Trivial"),
    ]
    for family, params, side, label in expect:
        ext = classify_extension(build_pair(family, params), side)
        assert ext.label == label, (family, params, ext)
    # the compact unitary loop in the smallest even orthogonal group flips sign
    spec = build_pair("U", ((1, 0), (1, 0)))
    sign = loop_lift_sign(spec.G.loops[0])
    assert sign == -1
    print("\nACCEPTANCE 4 PASS: cover labels match the classification; "
          "U(1) in O(2) loop sign is -1 exactly")


def test_criterion_5_block_sum_multiplicativity():
    """Loop signs multiply across orthogonal block sums of the embedding."""
    signs = {}
    for m in (1, 2, 3, 4):
        ext = classify_extension(build_pair("U", ((1, 0), (m, 0))), "G")
        signs[m] = next(iter(ext.loop_signs.values()))
    for m1 in (1, 2):
        for m2 in (1, 2):
            assert signs[m1 + m2] == signs[m1] * signs[m2], signs
    print(f"\nACCEPTANCE 5 PASS: block-sum loop signs multiply "
          f"(signs per copy count: {signs})")


def _generation_grid():
    models = []
    for n in range(1, 4):
        for m in range(1, 4):
            if n * m <= 12:
                models.append(OModel(n, m))
    for n in range(1, 4):
        for m in range(1, 4):
            for l in range(1, 4):
                if n * (m + l) <= 12:
                    models.append(GLModel(n, m, l))
    for n in range(1, 4):
        for m in range(1, 4):
            if 2 * n * m <= 12:
                models.append(SpModel(n, m))
    return models


def test_criterion_6_generator_theorems():
    """Degree-2 generators span the full invariant algebra, exact dim match."""
    checked = 0
    for model in _generation_grid():
        report = verify_generation(model)
        for d, (gen_dim, inv_dim) in report.items():
            assert gen_dim == inv_dim, (model, d, report)
        checked += 1
    print(f"\nACCEPTANCE 6 PASS: generator theorems on {checked} models "
          f"(exterior dims up to 2^12), exact per-degree match")


TRANSFER_FAMILIES = [
    ("GL_R", (1, 1)), ("GL_R", (2, 1)), ("U", ((1, 0), (1, 0))),
    ("U", ((1, 1), (1, 0))), ("Sp_R", (1, 1)), ("Sp_H", ((1, 0), (1, 0))),
    ("GL_C", (1, 1)), ("GL_H", (1, 1)), ("Sp_C_real", (1, 1)),
    ("GL_C_complex", (1, 1)), ("Sp_C", (1, 1)),
]


def test_criterion_7_transfer_of_invariants():
    """Chevalley-transported invariants equal the commutant, rank + containment."""
    for family, params in TRANSFER_FAMILIES:
        spec = build_pair(family, params)
        assert spec.space.dim <= 8
        cpx = complexify(spec)
        spn = build_spinors(cpx.space_c)
        for side in ("G", "Gp"):
            inv = invariants(spec, side, cpx)
            ops = transfer_invariants(inv, spn)
            comm = commutant(side_operators(spec, spn, cpx, side), spn.dim_s)
            assert subspace_equal(ops, comm), (family, params, side)
    print(f"\nACCEPTANCE 7 PASS: transfer image equals the commutant for "
          f"{len(TRANSFER_FAMILIES)} families, both sides, at 1e-8")


HOWE_FAMILIES = [
    ("GL_R", (1, 1)), ("U", ((1, 0), (1, 0))), ("U", ((1, 1), (1, 0))),
    ("Sp_R", (1, 1)), ("GL_C", (1, 1)), ("GL_H", (1, 1)),
    ("Sp_C", (1, 1)), ("Sp_C_real", (1, 1)), ("Sp_H", ((1, 0), (1, 0))),
    ("GL_C_complex", (1, 1)), ("U", ((1, 1), (1, 1))),
]


def test_criterion_8_howe_correspondence():
    """Double-commutant equality both ways plus multiplicity-freeness, < 5 min."""
    t0 = time.monotonic()
    for family, params in HOWE_FAMILIES:
        rep = howe_check(build_pair(family, params))
        assert rep.dim_s <= 64
        assert rep.equal, (family, params, rep)
        assert rep.mult_free, (family, params, rep)
    elapsed = time.monotonic() - t0
    assert elapsed < 300.0, f"criterion 8 runtime {elapsed:.1f}s over budget"
    print(f"\nACCEPTANCE 8 PASS: Howe correspondence certified for "
          f"{len(HOWE_FAMILIES)} pairs ({elapsed:.1f}s)")


def test_criterion_9_chevalley_intertwining():
    """T intertwines the exterior and conjugation actions of even lifts, 1e-9."""
    for pq in [(2, 2), (4, 4)]:
        space = real_space(*pq)
        rng = np.random.default_rng(900 + pq[0])
        for _ in range(50):
            g = random_isometry(space, rng, reflect=False)
            c = lift(g)
            assert c.parity == 0
            w = random_float(rng, space, nterms=5)
            wext = chevalley_T_inv(w)
            lhs = chevalley_T(exterior_apply_map(project(c).matrix, wext))
            rhs = c.value * w * c.inverse_value()
            assert lhs.isclose(rhs, EQ_TOL), pq
    print("\nACCEPTANCE 9 PASS: Chevalley map intertwines the two lifted actions "
          "on (2,2) and (4,4), 50 lifts each, at 1e-9")
