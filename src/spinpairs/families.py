"""Concrete builders for the classified dual-pair families.

Thirteen families: ten builders, three over a complex ambient orthogonal
space and seven over a real one, plus the three ``_R`` families that
``realified`` derives from the complex ones (``O_C_real``, ``Sp_C_real`` and
``GL_C`` from ``O_C``, ``Sp_C`` and ``GL_C_complex``).  Each builder writes the
ambient quadratic space in an orthogonal frame with its +1 vectors first,
taken from ``orthogonalize_real_gram``, ``_split_frame`` or a permutation.
``Sp_C`` and ``GL_C_complex`` divide the real frames of ``Sp_R`` and ``GL_R``
by ``complex_scales``, so their matrices are exactly the complexified ones.
Both members are embedded (group and Lie level) through one
:class:`Embedding` each, with component representatives and compact loop
generators where the member groups are disconnected or
non-simply-connected.

Ambient signatures follow the classification table:

    (O(n,C), O(m,C))            O(nm, C)                 n, m >= 2
    (Sp(2n,C), Sp(2m,C))        O(4nm, C)
    (GL(n,C), GL(m,C))          O(2nm, C)
    (O(p1,q1), O(p2,q2))        O(p1p2+q1q2, p1q2+q1p2)
    (U(p1,q1), U(p2,q2))        O(2(p1p2+q1q2), 2(p1q2+q1p2))
    (Sp(2n1,R), Sp(2n2,R))      O(2n1n2, 2n1n2)
    (O(n1,C), O(n2,C))_R        O(n1n2, n1n2)            n1, n2 >= 2
    (Sp(2n1,C), Sp(2n2,C))_R    O(4n1n2, 4n1n2)
    (Sp(p1,q1,H), Sp(p2,q2,H))  O(4(p1p2+q1q2), 4(p1q2+q1p2))
    (O*(2n1), O*(2n2))          O(2n1n2, 2n1n2)          n1, n2 >= 2
    (GL(n1,R), GL(n2,R))        O(n1n2, n1n2)
    (GL(n1,C), GL(n2,C))_R      O(2n1n2, 2n1n2)
    (GL(n1,H), GL(n2,H))        O(4n1n2, 4n1n2)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from .clifford import MAX_DIM, QuadraticSpace, complex_space, real_space
from .groups import (ClassificationError, ComponentRep, DualPairSpec, LieElement,
                     LoopGenerator, OrthogonalMap, SideSpec, complex_scales,
                     fixed_real_basis, orthogonalize_real_gram, quaternion_J,
                     realify_complex_matrix, realify_quaternionic, tensor_kl_permutation)

BUILD_TOL = 1e-9


# ---------------------------------------------------------------------------
# Lie-algebra bases (native, unembedded)
# ---------------------------------------------------------------------------

def _E(n: int, a: int, b: int, val=1.0) -> np.ndarray:
    M = np.zeros((n, n), dtype=complex)
    M[a, b] = val
    return M


def gl_real_basis(n: int) -> List[np.ndarray]:
    return [_E(n, a, b) for a in range(n) for b in range(n)]


def u_pq_basis(p: int, q: int) -> List[np.ndarray]:
    """u(p,q) for the hermitian form diag(I_p, -I_q): H times anti-hermitian."""
    d = p + q
    H = np.diag([1.0] * p + [-1.0] * q).astype(complex)
    out = [H @ _E(d, a, a, 1j) for a in range(d)]
    for a in range(d):
        for b in range(a + 1, d):
            out.append(H @ (_E(d, a, b) - _E(d, b, a)))
            out.append(H @ (_E(d, a, b, 1j) + _E(d, b, a, 1j)))
    return out


def so_pq_basis(norms: Sequence[int]) -> List[np.ndarray]:
    d = len(norms)
    out = []
    for a in range(d):
        for b in range(a + 1, d):
            out.append(_E(d, a, b) - norms[a] * norms[b] * _E(d, b, a))
    return out


def so_n_complex_basis(n: int) -> List[np.ndarray]:
    return [_E(n, a, b) - _E(n, b, a) for a in range(n) for b in range(a + 1, n)]


def sp_2n_basis(n: int) -> List[np.ndarray]:
    """sp(2n) for omega(a_i, b_j) = delta_ij in basis (a_1..a_n, b_1..b_n)."""
    def blk(A, B, C):
        return np.block([[A, B], [C, -A.T]])

    z = np.zeros((n, n), dtype=complex)
    out = []
    for a in range(n):
        for b in range(n):
            out.append(blk(_E(n, a, b), z, z))
    for a in range(n):
        for b in range(a, n):
            S = _E(n, a, b) + _E(n, b, a)
            out.append(blk(z, S, z))
            out.append(blk(z, z, S))
    return out


def sp_pq_quat_basis(p: int, q: int) -> List[Tuple[np.ndarray, np.ndarray]]:
    """sp(p,q,H) as quaternion pairs (A, B): A in u(p,q), B with D B symmetric."""
    d = p + q
    D = np.diag([1.0] * p + [-1.0] * q).astype(complex)
    z = np.zeros((d, d), dtype=complex)
    out = [(A, z) for A in u_pq_basis(p, q)]
    for a in range(d):
        for b in range(a, d):
            S = _E(d, a, b) + _E(d, b, a)
            out.append((z, D @ S))
            out.append((z, D @ (1j * S)))
    return out


def ostar_basis(n: int) -> List[np.ndarray]:
    """so*(2n): [[P, Q], [-conj(Q), -P^T]], P anti-hermitian, Q antisymmetric."""
    z = np.zeros((n, n), dtype=complex)

    def blk(P, Q):
        return np.block([[P, Q], [-Q.conj(), -P.T]])

    out = [blk(_E(n, a, a, 1j), z) for a in range(n)]
    for a in range(n):
        for b in range(a + 1, n):
            out.append(blk(_E(n, a, b) - _E(n, b, a), z))
            out.append(blk(_E(n, a, b, 1j) + _E(n, b, a, 1j), z))
            out.append(blk(z, _E(n, a, b) - _E(n, b, a)))
            out.append(blk(z, _E(n, a, b, 1j) - _E(n, b, a, 1j)))
    return out


# ---------------------------------------------------------------------------
# builder scaffolding
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Embedding:
    """One member's embedding x -> left @ model(x) @ right into O(E, b).

    ``model`` realizes a native element (a matrix, or a quaternionic pair
    (A, B) meaning A + jB) on a tensor model of E, and ``left``/``right``
    change to the orthogonal frame of ``space``.  With ``dual`` the
    model space is E1 + E1^*, the group acting on the dual factor by inverse
    transpose and the Lie algebra by minus transpose.  A real ``space`` keeps
    the real part, which must vanish in imaginary part.
    """

    space: QuadraticSpace
    model: Callable[[np.ndarray], np.ndarray]
    left: np.ndarray
    right: np.ndarray
    dual: bool = False

    def matrix(self, x, lie: bool = False) -> np.ndarray:
        if isinstance(x, tuple):
            x = realify_quaternionic(*x)
        M = self.model(x)
        if self.dual:
            Z = np.zeros(M.shape)
            M = np.block([[M, Z], [Z, -M.T if lie else np.linalg.inv(M).T]])
        M = self.left @ M @ self.right
        if self.space.field_kind == "real":
            if np.abs(M.imag).max() > 1e-8:
                raise RuntimeError("embedded map does not preserve the real form")
            return M.real
        return M

    def group(self, g) -> OrthogonalMap:
        return OrthogonalMap(self.space, self.matrix(g))


def _checked_side(name: str, space: QuadraticSpace, lie, comps, loops,
                  embed_group: Callable[..., OrthogonalMap]) -> SideSpec:
    """SideSpec of embedded matrices: Lie and (name, X) loop generators, (name, g) reps.

    Every side passes here: generators must be b-antisymmetric and reps
    isometries; ``LoopGenerator`` checks that the loop weights are integers.
    """
    def lie_element(X) -> LieElement:
        L = LieElement(space, X)
        if not L.is_b_antisymmetric(BUILD_TOL):
            raise RuntimeError(f"{name}: embedded Lie element is not b-antisymmetric")
        return L

    reps = []
    for cname, g in comps:
        om = OrthogonalMap(space, g)
        if not om.is_isometry(BUILD_TOL):
            raise RuntimeError(f"{name}: component representative is not an isometry")
        reps.append(ComponentRep(cname, om))
    return SideSpec(name, space, [lie_element(X) for X in lie], reps,
                    [LoopGenerator(n, space, lie_element(X).matrix) for n, X in loops],
                    embed_group)


def _side(embedding: Embedding, name: str, lie, comps, loops) -> SideSpec:
    """Embed one member's native Lie basis, component reps and (name, X) loop generators."""
    return _checked_side(name, embedding.space,
                         [embedding.matrix(X, lie=True) for X in lie],
                         [(c, embedding.matrix(g)) for c, g in comps],
                         [(n, embedding.matrix(X, lie=True)) for n, X in loops],
                         embedding.group)


def realified(family: str, build_complex: Callable) -> Callable:
    """Builder of the pair (G, G')_R: a complex pair as real groups on E_R with Re b.

    In the basis (w; i w) of E_R, w the complex pair's orthonormal frame, Re b
    has norms (+1)^N (-1)^N and every complex matrix M becomes
    ``realify_complex_matrix(M)``, an algebra map.  Each Lie generator X
    gives X, then all the iX follow in the same order; reps, loop generators
    and ``embed_group`` are realified one for one.
    """
    def build(params) -> DualPairSpec:
        spec = build_complex(params)
        space = real_space(spec.space.dim, spec.space.dim)

        def side(s: SideSpec) -> SideSpec:
            return _checked_side(
                s.name, space,
                [realify_complex_matrix(c * L.matrix) for c in (1, 1j) for L in s.lie_generators],
                [(r.name, realify_complex_matrix(r.map.matrix)) for r in s.component_reps],
                [(loop.name, realify_complex_matrix(loop.generator)) for loop in s.loops],
                lambda g: OrthogonalMap(space, realify_complex_matrix(s.embed_group(g).matrix)))

        return DualPairSpec(family, params, space, side(spec.G), side(spec.Gp))

    return build


def _check_signature(space: QuadraticSpace, expected: Tuple[int, int], family: str):
    if space.signature != expected:
        raise RuntimeError(f"{family}: ambient signature {space.signature} != {expected}")


def _pair_params(params) -> Tuple[Tuple[int, int], Tuple[int, int]]:
    (p1, q1), (p2, q2) = params
    if min(p1, q1, p2, q2) < 0 or p1 + q1 == 0 or p2 + q2 == 0:
        raise ClassificationError(f"invalid signature parameters {params}")
    return (int(p1), int(q1)), (int(p2), int(q2))


def _int_params(params) -> Tuple[int, int]:
    n1, n2 = params
    if n1 < 1 or n2 < 1:
        raise ClassificationError(f"sizes must be positive, got {params}")
    return int(n1), int(n2)


def _kron_sides(d1: int, d2: int):
    """Side models g -> g ox I and g -> I ox g at matrix level."""
    return (lambda g: np.kron(np.asarray(g, dtype=complex), np.eye(d2)),
            lambda g: np.kron(np.eye(d1), np.asarray(g, dtype=complex)))


def _reflection(n: int, slot: int = 0) -> np.ndarray:
    return np.diag([-1.0 if k == slot else 1.0 for k in range(n)])


# ---------------------------------------------------------------------------
# real-orthogonal pair (negative control for Pin-level commutation)
# ---------------------------------------------------------------------------

def build_O_real(params) -> DualPairSpec:
    (p1, q1), (p2, q2) = _pair_params(params)
    d1, d2 = p1 + q1, p2 + q2
    eps1 = [1] * p1 + [-1] * q1
    eps2 = [1] * p2 + [-1] * q2
    nat_norms = [eps1[i] * eps2[j] for i in range(d1) for j in range(d2)]
    P, norms = orthogonalize_real_gram(np.diag(nat_norms))
    space = QuadraticSpace("real", norms)
    _check_signature(space, (p1 * p2 + q1 * q2, p1 * q2 + q1 * p2), "O_real")
    kG, kGp = _kron_sides(d1, d2)

    def side(k, p, q, eps):
        comps = [("r+", _reflection(p + q, 0))] if p >= 1 else []
        if q >= 1:
            comps.append(("r-", _reflection(p + q, p)))
        return _side(Embedding(space, k, P.T, P), f"O({p},{q})", so_pq_basis(eps), comps, [])

    return DualPairSpec("O_real", params, space, side(kG, p1, q1, eps1), side(kGp, p2, q2, eps2))


# ---------------------------------------------------------------------------
# unitary pairs
# ---------------------------------------------------------------------------

def build_U(params) -> DualPairSpec:
    (p1, q1), (p2, q2) = _pair_params(params)
    d1, d2 = p1 + q1, p2 + q2
    eps1 = [1] * p1 + [-1] * q1
    eps2 = [1] * p2 + [-1] * q2
    # realified norms of Re(h1 ox h2): eps_i * eps_j on both w and i*w slots
    nat = [eps1[i] * eps2[j] for i in range(d1) for j in range(d2)]
    P, norms = orthogonalize_real_gram(np.diag(nat + nat))
    space = QuadraticSpace("real", norms)
    _check_signature(space, (2 * (p1 * p2 + q1 * q2), 2 * (p1 * q2 + q1 * p2)), "U")
    kG, kGp = _kron_sides(d1, d2)

    def side(k, p, q, tag):
        # one loop per nontrivial compact unitary factor: U(p) at the first +slot,
        # U(q) at the first -slot
        loops = [(f"U({p})[{tag}+]", _E(p + q, 0, 0, 1j))] if p >= 1 else []
        if q >= 1:
            loops.append((f"U({q})[{tag}-]", _E(p + q, p, p, 1j)))
        emb = Embedding(space, lambda g: realify_complex_matrix(k(g)), P.T, P)
        return _side(emb, f"U({p},{q})", u_pq_basis(p, q), [], loops)

    return DualPairSpec("U", params, space, side(kG, p1, q1, "G"), side(kGp, p2, q2, "G'"))


# ---------------------------------------------------------------------------
# real symplectic pairs
# ---------------------------------------------------------------------------

def _omega(n: int) -> np.ndarray:
    return np.block([[np.zeros((n, n)), np.eye(n)], [-np.eye(n), np.zeros((n, n))]])


def build_Sp_R(params) -> DualPairSpec:
    n1, n2 = _int_params(params)
    gram = np.kron(_omega(n1), _omega(n2))
    P, norms = orthogonalize_real_gram(gram)
    Pinv = np.linalg.inv(P)
    space = QuadraticSpace("real", norms)
    _check_signature(space, (2 * n1 * n2, 2 * n1 * n2), "Sp_R")
    kG, kGp = _kron_sides(2 * n1, 2 * n2)

    def side(k, n, tag):
        return _side(Embedding(space, k, Pinv, P), f"Sp({2*n},R)",
                     sp_2n_basis(n), [],
                     [(f"U({n})[{tag}]", _E(2 * n, n, 0) - _E(2 * n, 0, n))])

    return DualPairSpec("Sp_R", params, space, side(kG, n1, "G"), side(kGp, n2, "G'"))


# ---------------------------------------------------------------------------
# complex orthogonal / symplectic pairs
# ---------------------------------------------------------------------------

def build_O_C(params) -> DualPairSpec:
    n1, n2 = _int_params(params)
    if n1 < 2 or n2 < 2:
        raise ClassificationError("O(n,C) pairs require n1, n2 >= 2")
    Pkl = tensor_kl_permutation(n1, n2)
    space = complex_space(n1 * n2)
    kG, kGp = _kron_sides(n1, n2)

    def side(k, n, tag):
        return _side(Embedding(space, k, Pkl, Pkl.T), f"O({n},C)",
                     so_n_complex_basis(n), [("r", _reflection(n))],
                     [(f"SO({n})[{tag}]", _E(n, 1, 0) - _E(n, 0, 1))])

    return DualPairSpec("O_C", params, space, side(kG, n1, "G"), side(kGp, n2, "G'"))


def build_Sp_C(params) -> DualPairSpec:
    n1, n2 = _int_params(params)
    # Sp_R's frame made complex orthonormal: its matrices are complexify(Sp_R)'s
    P, norms = orthogonalize_real_gram(np.kron(_omega(n1), _omega(n2)))
    c = complex_scales(norms)
    left, right = c[:, None] * np.linalg.inv(P), P / c
    space = complex_space(4 * n1 * n2)
    kG, kGp = _kron_sides(2 * n1, 2 * n2)

    def side(k, n):
        return _side(Embedding(space, k, left, right), f"Sp({2*n},C)", sp_2n_basis(n), [], [])

    return DualPairSpec("Sp_C", params, space, side(kG, n1), side(kGp, n2))


# ---------------------------------------------------------------------------
# quaternionic pairs
# ---------------------------------------------------------------------------

def _fixed_models(J1: np.ndarray, J2: np.ndarray):
    """Basis R of Fix(J1 ox J2 . conj) and both side models restricted to it."""
    R = fixed_real_basis(J1, J2)
    kG, kGp = _kron_sides(J1.shape[0], J2.shape[0])
    return R, (lambda X: R.conj().T @ kG(X) @ R), (lambda X: R.conj().T @ kGp(X) @ R)


def _quat_tensor_spec(family: str, params, K1, K2, J1, J2, expected_sig,
                      name1, name2, lie1, lie2, loops1, loops2) -> DualPairSpec:
    """Shared machinery: restrict kron actions to Fix(J1 ox J2 . conj)."""
    R, mG, mGp = _fixed_models(J1, J2)
    gram_c = R.T @ np.kron(K1, K2) @ R
    if np.abs(gram_c.imag).max() > 1e-10:
        raise RuntimeError(f"{family}: tensor form is not real on the fixed subspace")
    P, norms = orthogonalize_real_gram(gram_c.real)
    Pinv = np.linalg.inv(P)
    space = QuadraticSpace("real", norms)
    _check_signature(space, expected_sig, family)
    G = _side(Embedding(space, mG, Pinv, P), name1, lie1, [], loops1)
    Gp = _side(Embedding(space, mGp, Pinv, P), name2, lie2, [], loops2)
    return DualPairSpec(family, params, space, G, Gp)


def build_Sp_H(params) -> DualPairSpec:
    (p1, q1), (p2, q2) = _pair_params(params)
    n1, n2 = p1 + q1, p2 + q2

    def KD(p, q):
        D = np.diag([1.0] * p + [-1.0] * q).astype(complex)
        z = np.zeros_like(D)
        return np.block([[z, D], [-D, z]])

    return _quat_tensor_spec(
        "Sp_H", params, KD(p1, q1), KD(p2, q2), quaternion_J(n1), quaternion_J(n2),
        (4 * (p1 * p2 + q1 * q2), 4 * (p1 * q2 + q1 * p2)),
        f"Sp({p1},{q1},H)", f"Sp({p2},{q2},H)",
        sp_pq_quat_basis(p1, q1), sp_pq_quat_basis(p2, q2), [], [])


def build_O_star(params) -> DualPairSpec:
    n1, n2 = _int_params(params)
    if n1 < 2 or n2 < 2:
        raise ClassificationError("O*(n,H) pairs require n1, n2 >= 2")

    def KS(n):
        S = np.block([[np.zeros((n, n)), np.eye(n)], [np.eye(n), np.zeros((n, n))]])
        return 1j * S.astype(complex)

    # J aligned with S = antidiag so that U(n) sits as diag(u, conj(u))
    return _quat_tensor_spec(
        "O_star", params, KS(n1), KS(n2), quaternion_J(n1), quaternion_J(n2),
        (2 * n1 * n2, 2 * n1 * n2),
        f"O*({2*n1})", f"O*({2*n2})",
        ostar_basis(n1), ostar_basis(n2),
        [(f"U({n1})[G]", _E(2 * n1, 0, 0, 1j) - _E(2 * n1, n1, n1, 1j))],
        [(f"U({n2})[G']", _E(2 * n2, 0, 0, 1j) - _E(2 * n2, n2, n2, 1j))])


# ---------------------------------------------------------------------------
# type-II general linear pairs: E = E1 + E1^* with split form
# ---------------------------------------------------------------------------

def _split_frame(d: int) -> Tuple[np.ndarray, np.ndarray]:
    """(left, right) of the change to b_+- = (e +- e*)/sqrt(2) on E1 + E1*.

    The orthonormal frame is H/sqrt(2) with the integer H = [[I, I], [I, -I]];
    since H H = 2I, left = H and right = H/2 give the same conjugation with
    no rounding, so sign-matrix component reps embed to exact sign matrices.
    """
    I = np.eye(d)
    H = np.block([[I, I], [I, -I]])
    return H, H / 2.0


def build_GL_R(params) -> DualPairSpec:
    n1, n2 = _int_params(params)
    left, right = _split_frame(n1 * n2)
    space = real_space(n1 * n2, n1 * n2)
    kG, kGp = _kron_sides(n1, n2)

    def side(k, n, tag):
        loops = [(f"SO({n})[{tag}]", _E(n, 1, 0) - _E(n, 0, 1))] if n >= 2 else []
        return _side(Embedding(space, k, left, right, dual=True), f"GL({n},R)",
                     gl_real_basis(n), [("s", _reflection(n))], loops)

    return DualPairSpec("GL_R", params, space, side(kG, n1, "G"), side(kGp, n2, "G'"))


def build_GL_H(params) -> DualPairSpec:
    n1, n2 = _int_params(params)
    _, mG, mGp = _fixed_models(quaternion_J(n1), quaternion_J(n2))
    left, right = _split_frame(4 * n1 * n2)
    space = real_space(4 * n1 * n2, 4 * n1 * n2)

    def quat_gl_basis(n):
        z = np.zeros((n, n), dtype=complex)
        out = []
        for a in range(n):
            for b in range(n):
                out.append((_E(n, a, b), z))
                out.append((_E(n, a, b, 1j), z))
                out.append((z, _E(n, a, b)))
                out.append((z, _E(n, a, b, 1j)))
        return out

    def side(m, n):
        return _side(Embedding(space, m, left, right, dual=True), f"GL({n},H)",
                     quat_gl_basis(n), [], [])

    return DualPairSpec("GL_H", params, space, side(mG, n1), side(mGp, n2))


def build_GL_C_complex(params) -> DualPairSpec:
    n1, n2 = _int_params(params)
    # GL_R's split frame made complex orthonormal: its matrices are complexify(GL_R)'s
    H, Hinv = _split_frame(n1 * n2)
    c = complex_scales(real_space(n1 * n2, n1 * n2).norms)
    left, right = c[:, None] * H, Hinv / c
    space = complex_space(2 * n1 * n2)
    kG, kGp = _kron_sides(n1, n2)

    def side(k, n, tag):
        return _side(Embedding(space, k, left, right, dual=True), f"GL({n},C)",
                     gl_real_basis(n), [],
                     [(f"U({n})[{tag}]", _E(n, 0, 0, 1j))])

    return DualPairSpec("GL_C_complex", params, space, side(kG, n1, "G"), side(kGp, n2, "G'"))


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

FAMILY_BUILDERS: Dict[str, Callable] = {
    "O_real": build_O_real,
    "U": build_U,
    "Sp_R": build_Sp_R,
    "O_C_real": realified("O_C_real", build_O_C),
    "Sp_C_real": realified("Sp_C_real", build_Sp_C),
    "Sp_H": build_Sp_H,
    "O_star": build_O_star,
    "GL_R": build_GL_R,
    "GL_C": realified("GL_C", build_GL_C_complex),
    "GL_H": build_GL_H,
    "O_C": build_O_C,
    "Sp_C": build_Sp_C,
    "GL_C_complex": build_GL_C_complex,
}

PAIR_PARAM_FAMILIES = {"O_real", "U", "Sp_H"}

# dim E = DIM_FACTOR * d1 * d2 with d_i = p_i + q_i or n_i: the ambient
# signatures of the module docstring, known before anything is built
DIM_FACTOR: Dict[str, int] = {
    "O_real": 1, "U": 2, "Sp_R": 4, "O_C_real": 2, "Sp_C_real": 8, "Sp_H": 4, "O_star": 4,
    "GL_R": 2, "GL_C": 4, "GL_H": 8, "O_C": 1, "Sp_C": 4, "GL_C_complex": 2,
}

# smallest parameters at which each family is an honest member of the
# classification (size-1 exclusions respected)
MINIMAL_PARAMS: Dict[str, tuple] = {
    "O_real": ((1, 0), (2, 0)),
    "U": ((1, 0), (1, 0)),
    "Sp_R": (1, 1),
    "O_C_real": (2, 2),
    "Sp_C_real": (1, 1),
    "Sp_H": ((1, 0), (1, 0)),
    "O_star": (2, 2),
    "GL_R": (1, 1),
    "GL_C": (1, 1),
    "GL_H": (1, 1),
    "O_C": (3, 3),
    "Sp_C": (1, 1),
    "GL_C_complex": (1, 1),
}


def _integer(x) -> int:
    # int() would truncate 1.5 to 1 and read True as 1: a different pair, silently
    if isinstance(x, bool) or not isinstance(x, (int, np.integer)):
        raise ClassificationError(f"parameters must be integers, got {x!r}")
    return int(x)


def _two(x) -> tuple:
    # a wrong shape is a rejected pair, recorded per row, not an abort of the run
    try:
        a, b = x
    except (TypeError, ValueError):
        raise ClassificationError(f"expected two parameters, got {x!r}") from None
    return a, b


def normalize_params(family: str, params) -> tuple:
    if family in PAIR_PARAM_FAMILIES:
        return tuple(tuple(map(_integer, _two(side))) for side in _two(params))
    return tuple(map(_integer, _two(params)))


def ambient_dim(family: str, params: tuple) -> int:
    """dim E of a family instance, from its normalized parameters."""
    if family in PAIR_PARAM_FAMILIES:
        (p1, q1), (p2, q2) = _pair_params(params)
        d1, d2 = p1 + q1, p2 + q2
    else:
        d1, d2 = _int_params(params)
    return DIM_FACTOR[family] * d1 * d2


def build_pair(family: str, params) -> DualPairSpec:
    """Instantiate one classified family; raises ClassificationError on excluded sizes,
    and on an ambient dimension above clifford.MAX_DIM before the builder runs."""
    if family not in FAMILY_BUILDERS:
        raise ClassificationError(f"unknown family {family!r}")
    params = normalize_params(family, params)
    dim = ambient_dim(family, params)
    if dim > MAX_DIM:
        raise ClassificationError(f"{family}{params}: ambient dimension {dim} above {MAX_DIM}")
    return FAMILY_BUILDERS[family](params)
