"""Concrete builders for the classified dual-pair families.

Every family is a pair of members (G, G') acting on a tensor model of the
ambient space E: V1 ox V2, its realification, the real form of a tensor
product of quaternionic spaces, or V1 ox V2 doubled with its dual.  A builder
names a frame of E, two side models and two native members, and hands them to
``_pair``, which returns (space, G, G'):

- the frame is ``_frame`` of the tensor form's gram matrix (its orthogonal
  frame from ``orthogonalize_real_gram``, +1 vectors first), ``_split_frame``
  of E1 + E1^*, or a permutation.  A complex frame is a real one divided by
  ``complex_scales``, so the matrices of ``Sp_C`` and ``GL_C_complex`` are
  exactly the complexified ones of ``Sp_R`` and ``GL_R``;
- a side model realizes a native element of one member on the tensor model;
- a native member is (name, Lie basis, component reps, loop generators), and
  ``_pair`` embeds it, group and Lie level, through one :class:`Embedding`.

The three ``_R`` families are ``realified`` complex pairs: ``O_C_real``,
``Sp_C_real`` and ``GL_C`` from ``O_C``, ``Sp_C`` and ``GL_C_complex``.

One table, ``FAMILIES``, holds every fact about a family in one row: its
builder, its ambient signature, its smallest honest parameters, its smallest
member size and the stages out of its scope.  ``build_pair`` checks the
parameters against the row before anything is built, checks the built space
against the row's signature, and constructs every :class:`DualPairSpec`:

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

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Sequence, Tuple

import numpy as np

from .clifford import MAX_DIM, QuadraticSpace, complex_space, real_space
from .groups import (ClassificationError, ComponentRep, DualPairSpec, LoopGenerator,
                     OrthogonalMap, SideSpec, complex_scales, fixed_real_basis,
                     is_b_antisymmetric, orthogonalize_real_gram, quaternion_J,
                     realify_complex_matrix, realify_quaternionic, tensor_kl_permutation)


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


def gl_quat_basis(n: int) -> List[Tuple[np.ndarray, np.ndarray]]:
    """gl(n,H) as quaternion pairs (A, B) meaning A + jB."""
    z = np.zeros((n, n), dtype=complex)
    out = []
    for a in range(n):
        for b in range(n):
            out += [(_E(n, a, b), z), (_E(n, a, b, 1j), z), (z, _E(n, a, b)), (z, _E(n, a, b, 1j))]
    return out


# ---------------------------------------------------------------------------
# the one constructor
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
    for X in [*lie, *(X for _, X in loops)]:
        if not is_b_antisymmetric(space, X):
            raise RuntimeError(f"{name}: embedded Lie element is not b-antisymmetric")
    reps = []
    for cname, g in comps:
        om = OrthogonalMap(space, g)
        if not om.is_isometry():
            raise RuntimeError(f"{name}: component representative is not an isometry")
        reps.append(ComponentRep(cname, om))
    return SideSpec(name, space, list(lie), reps,
                    [LoopGenerator(n, space, X) for n, X in loops], embed_group)


def _side(embedding: Embedding, name: str, lie, comps, loops) -> SideSpec:
    """Embed one member's native Lie basis, component reps and (name, X) loop generators."""
    return _checked_side(name, embedding.space,
                         [embedding.matrix(X, lie=True) for X in lie],
                         [(c, embedding.matrix(g)) for c, g in comps],
                         [(n, embedding.matrix(X, lie=True)) for n, X in loops],
                         embedding.group)


def _pair(space: QuadraticSpace, left: np.ndarray, right: np.ndarray,
          models: Sequence[Callable], members: Sequence[tuple], dual: bool = False):
    """(space, G, G') of two native members, each embedded through its side model.

    A member is (name, Lie basis, (name, g) component reps, (name, X) loop
    generators); ``models``, ``left``, ``right`` and ``dual`` are those of
    its :class:`Embedding`.
    """
    return (space, *(_side(Embedding(space, model, left, right, dual), *member)
                     for model, member in zip(models, members)))


def _in_field(field: str, norms: Sequence[int], left: np.ndarray, right: np.ndarray):
    """(space, left, right) of a real orthogonal frame over ``field``.

    Over the complex field each frame vector is divided by its
    ``complex_scales`` entry, which makes the frame complex orthonormal.
    """
    if field == "real":
        return QuadraticSpace("real", tuple(norms)), left, right
    c = complex_scales(norms)
    return complex_space(len(norms)), c[:, None] * left, right / c


def _frame(gram: np.ndarray, field: str = "real"):
    """(space, P^-1, P) for the orthogonal frame P of a real symmetric gram, +1 vectors first."""
    P, norms = orthogonalize_real_gram(gram)
    return _in_field(field, norms, np.linalg.inv(P), P)


def _split_frame(d: int, field: str = "real"):
    """(space, left, right) of the change to b_+- = (e +- e*)/sqrt(2) on E1 + E1*.

    The orthonormal frame is H/sqrt(2) with the integer H = [[I, I], [I, -I]];
    since H H = 2I, left = H and right = H/2 give the same conjugation with
    no rounding, so sign-matrix component reps embed to exact sign matrices.
    """
    I = np.eye(d)
    H = np.block([[I, I], [I, -I]])
    return _in_field(field, (1,) * d + (-1,) * d, H, H / 2.0)


def realified(build_complex: Callable) -> Callable:
    """Builder of the pair (G, G')_R: a complex pair as real groups on E_R with Re b.

    In the basis (w; i w) of E_R, w the complex pair's orthonormal frame, Re b
    has norms (+1)^N (-1)^N and every complex matrix M becomes
    ``realify_complex_matrix(M)``, an algebra map.  Each Lie generator X
    gives X, then all the iX follow in the same order; reps, loop generators
    and ``embed_group`` are realified one for one.
    """
    def build(params):
        cspace, *sides = build_complex(params)
        space = real_space(cspace.dim, cspace.dim)

        def realify(s: SideSpec) -> SideSpec:
            return _checked_side(
                s.name, space,
                [realify_complex_matrix(c * X) for c in (1, 1j) for X in s.lie_generators],
                [(r.name, realify_complex_matrix(r.map.matrix)) for r in s.component_reps],
                [(loop.name, realify_complex_matrix(loop.generator)) for loop in s.loops],
                lambda g: OrthogonalMap(space, realify_complex_matrix(s.embed_group(g).matrix)))

        return (space, *map(realify, sides))

    return build


def _kron_sides(d1: int, d2: int):
    """Side models g -> g ox I and g -> I ox g at matrix level."""
    return (lambda g: np.kron(np.asarray(g, dtype=complex), np.eye(d2)),
            lambda g: np.kron(np.eye(d1), np.asarray(g, dtype=complex)))


def reflection(n: int, slot: int = 0) -> np.ndarray:
    """The reflection in the basis vector e_slot of C^n."""
    return np.diag([-1.0 if k == slot else 1.0 for k in range(n)])


def _rotation(n: int, b: int = 1) -> np.ndarray:
    """Generator of the rotations of the (e_0, e_b) plane."""
    return _E(n, b, 0) - _E(n, 0, b)


def _signs(p: int, q: int) -> List[int]:
    return [1] * p + [-1] * q


def _sign_blocks(p: int, q: int) -> List[Tuple[str, int, int]]:
    """(sign, first slot, size) of each nonempty block of diag(I_p, -I_q)."""
    return [(s, k, size) for s, k, size in (("+", 0, p), ("-", p, q)) if size]


_TAGS = ("G", "G'")


# ---------------------------------------------------------------------------
# the families
# ---------------------------------------------------------------------------

def build_O_real(params):
    (p1, q1), (p2, q2) = params
    gram = np.diag(np.outer(_signs(p1, q1), _signs(p2, q2)).ravel())
    members = [(f"O({p},{q})", so_pq_basis(_signs(p, q)),
                [(f"r{s}", reflection(p + q, k)) for s, k, _ in _sign_blocks(p, q)], [])
               for p, q in params]
    return _pair(*_frame(gram), _kron_sides(p1 + q1, p2 + q2), members)


def build_U(params):
    (p1, q1), (p2, q2) = params
    # realified norms of Re(h1 ox h2): eps_i * eps_j on both w and i*w slots
    nat = np.outer(_signs(p1, q1), _signs(p2, q2)).ravel()
    models = [lambda g, k=k: realify_complex_matrix(k(g)) for k in _kron_sides(p1 + q1, p2 + q2)]
    # one loop per nontrivial compact unitary factor: U(p) at the first +slot,
    # U(q) at the first -slot
    members = [(f"U({p},{q})", u_pq_basis(p, q), [],
                [(f"U({size})[{tag}{s}]", _E(p + q, k, k, 1j)) for s, k, size in _sign_blocks(p, q)])
               for (p, q), tag in zip(params, _TAGS)]
    return _pair(*_frame(np.diag(np.tile(nat, 2))), models, members)


def _omega(n: int) -> np.ndarray:
    return np.block([[np.zeros((n, n)), np.eye(n)], [-np.eye(n), np.zeros((n, n))]])


def build_Sp_R(params):
    n1, n2 = params
    members = [(f"Sp({2*n},R)", sp_2n_basis(n), [], [(f"U({n})[{tag}]", _rotation(2 * n, n))])
               for n, tag in zip(params, _TAGS)]
    return _pair(*_frame(np.kron(_omega(n1), _omega(n2))), _kron_sides(2 * n1, 2 * n2), members)


def build_Sp_C(params):
    n1, n2 = params
    # Sp_R's frame made complex orthonormal: its matrices are complexify(Sp_R)'s
    return _pair(*_frame(np.kron(_omega(n1), _omega(n2)), "complex"), _kron_sides(2 * n1, 2 * n2),
                 [(f"Sp({2*n},C)", sp_2n_basis(n), [], []) for n in params])


def build_O_C(params):
    n1, n2 = params
    Pkl = tensor_kl_permutation(n1, n2)
    members = [(f"O({n},C)", so_pq_basis((1,) * n), [("r", reflection(n))],
                [(f"SO({n})[{tag}]", _rotation(n))]) for n, tag in zip(params, _TAGS)]
    return _pair(complex_space(n1 * n2), Pkl, Pkl.T, _kron_sides(n1, n2), members)


def _fixed_models(n1: int, n2: int):
    """Basis R of Fix(J1 ox J2 . conj) and both side models restricted to it."""
    R = fixed_real_basis(quaternion_J(n1), quaternion_J(n2))
    return R, [lambda X, k=k: R.conj().T @ k(X) @ R for k in _kron_sides(2 * n1, 2 * n2)]


def _quat_pair(K1: np.ndarray, K2: np.ndarray, members):
    """The pair on Fix(J1 ox J2 . conj), where the tensor form K1 ox K2 is real."""
    R, models = _fixed_models(len(K1) // 2, len(K2) // 2)
    gram = R.T @ np.kron(K1, K2) @ R
    if np.abs(gram.imag).max() > 1e-10:
        raise RuntimeError("tensor form is not real on the fixed subspace")
    return _pair(*_frame(gram.real), models, members)


def build_Sp_H(params):
    def KD(p, q):
        D = np.diag(_signs(p, q)).astype(complex)
        z = np.zeros_like(D)
        return np.block([[z, D], [-D, z]])

    return _quat_pair(*(KD(p, q) for p, q in params),
                      [(f"Sp({p},{q},H)", sp_pq_quat_basis(p, q), [], []) for p, q in params])


def build_O_star(params):
    def KS(n):
        S = np.block([[np.zeros((n, n)), np.eye(n)], [np.eye(n), np.zeros((n, n))]])
        return 1j * S.astype(complex)

    # J aligned with S = antidiag so that U(n) sits as diag(u, conj(u))
    return _quat_pair(*map(KS, params),
                      [(f"O*({2*n})", ostar_basis(n), [],
                        [(f"U({n})[{tag}]", _E(2 * n, 0, 0, 1j) - _E(2 * n, n, n, 1j))])
                       for n, tag in zip(params, _TAGS)])


# type-II general linear pairs: E = E1 + E1^* with split form

def build_GL_R(params):
    n1, n2 = params
    members = [(f"GL({n},R)", gl_real_basis(n), [("s", reflection(n))],
                [(f"SO({n})[{tag}]", _rotation(n))] if n >= 2 else [])
               for n, tag in zip(params, _TAGS)]
    return _pair(*_split_frame(n1 * n2), _kron_sides(n1, n2), members, dual=True)


def build_GL_H(params):
    n1, n2 = params
    _, models = _fixed_models(n1, n2)
    return _pair(*_split_frame(4 * n1 * n2), models,
                 [(f"GL({n},H)", gl_quat_basis(n), [], []) for n in params], dual=True)


def build_GL_C_complex(params):
    n1, n2 = params
    # GL_R's split frame made complex orthonormal: its matrices are complexify(GL_R)'s
    members = [(f"GL({n},C)", gl_real_basis(n), [], [(f"U({n})[{tag}]", _E(n, 0, 0, 1j))])
               for n, tag in zip(params, _TAGS)]
    return _pair(*_split_frame(n1 * n2, "complex"), _kron_sides(n1, n2), members, dual=True)


# ---------------------------------------------------------------------------
# the table
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Family:
    """Every fact about one classified family.

    ``build`` maps checked parameters to (space, G, G').  E has signature
    ``factor`` times (p1p2+q1q2, p1q2+q1p2) for ``kind`` "pair", (n1n2, n1n2)
    for "split" and (n1n2, 0) for "complex", the table of the module
    docstring.  ``minimal`` is the smallest honest instance, ``min_size`` the
    smallest member size (p + q, or n), and ``skips`` maps each stage out of
    the family's scope to its reason, in which ``{family}`` names the family.
    """

    build: Callable[[tuple], tuple]
    factor: int
    kind: str
    minimal: tuple
    min_size: int = 1
    skips: Mapping[str, str] = field(default_factory=dict)


_NO_DUALITY = {"howe": "{family}: orthogonal-pair duality is outside the engine's scope"}

FAMILIES: Dict[str, Family] = {
    "O_real": Family(build_O_real, 1, "pair", ((1, 0), (2, 0)), skips={
        "cover": "real orthogonal cover classification out of scope", **_NO_DUALITY}),
    "U": Family(build_U, 2, "pair", ((1, 0), (1, 0))),
    "Sp_R": Family(build_Sp_R, 2, "split", (1, 1)),
    "O_C_real": Family(realified(build_O_C), 1, "split", (2, 2), 2, _NO_DUALITY),
    "Sp_C_real": Family(realified(build_Sp_C), 4, "split", (1, 1)),
    "Sp_H": Family(build_Sp_H, 4, "pair", ((1, 0), (1, 0))),
    "O_star": Family(build_O_star, 2, "split", (2, 2), 2),
    "GL_R": Family(build_GL_R, 1, "split", (1, 1)),
    "GL_C": Family(realified(build_GL_C_complex), 2, "split", (1, 1)),
    "GL_H": Family(build_GL_H, 4, "split", (1, 1)),
    "O_C": Family(build_O_C, 1, "complex", (3, 3), 2, _NO_DUALITY),
    "Sp_C": Family(build_Sp_C, 4, "complex", (1, 1)),
    "GL_C_complex": Family(build_GL_C_complex, 2, "complex", (1, 1)),
}

PAIR_PARAM_FAMILIES = {family for family, row in FAMILIES.items() if row.kind == "pair"}


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


def ambient_signature(family: str, params: tuple) -> Tuple[int, int]:
    """Signature of E for a family instance, from its normalized parameters.

    Parameters below the row's smallest member size, or a negative signature
    entry, are a ClassificationError.
    """
    row = FAMILIES[family]
    if row.kind == "pair":
        (p1, q1), (p2, q2) = params
        if min(p1, q1, p2, q2) < 0 or min(p1 + q1, p2 + q2) < row.min_size:
            raise ClassificationError(f"invalid signature parameters {params}")
        return row.factor * (p1 * p2 + q1 * q2), row.factor * (p1 * q2 + q1 * p2)
    n1, n2 = params
    if min(n1, n2) < row.min_size:
        raise ClassificationError(f"{family} sizes must be at least {row.min_size}, got {params}")
    return row.factor * n1 * n2, row.factor * n1 * n2 if row.kind == "split" else 0


def build_pair(family: str, params) -> DualPairSpec:
    """Instantiate one classified family from its row of ``FAMILIES``.

    Parameters off the row, or an ambient dimension above clifford.MAX_DIM,
    are a ClassificationError before the builder runs; a built space off the
    row's signature is a RuntimeError.
    """
    if family not in FAMILIES:
        raise ClassificationError(f"unknown family {family!r}")
    row = FAMILIES[family]
    params = normalize_params(family, params)
    signature = ambient_signature(family, params)
    if sum(signature) > MAX_DIM:
        raise ClassificationError(f"{family}{params}: ambient dimension {sum(signature)} "
                                  f"above {MAX_DIM}")
    space, G, Gp = row.build(params)
    if space.signature != signature:
        raise RuntimeError(f"{family}{params}: ambient signature {space.signature} "
                           f"!= {signature}")
    skips = {stage: reason.format(family=family) for stage, reason in row.skips.items()}
    return DualPairSpec(space, G, Gp, skips)
