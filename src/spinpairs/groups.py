"""Matrix realizations of orthogonal groups and dual-pair scaffolding.

Everything downstream (lifting, path tracking, invariant solves) consumes
isometries expressed in the distinguished orthogonal basis of a
:class:`~spinpairs.clifford.QuadraticSpace`, so this module concentrates the
change-of-basis bookkeeping: realifications of complex and quaternionic
matrices, and the deterministic real frame of a symmetric form, +1 vectors
first.  There is one complexification rule: a real orthogonal frame becomes
complex orthonormal by dividing its columns by ``complex_scales`` (i on each
-1 vector).  ``complexify`` conjugates every pair's matrices by it, and the
builders of ``Sp_C`` and ``GL_C_complex`` apply it to the real frames of
``Sp_R`` and ``GL_R``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from .clifford import QuadraticSpace, complex_space

ISOMETRY_TOL = 1e-9


class ClassificationError(ValueError):
    """Parameters violate a side condition of the dual-pair classification."""


class DimensionCapError(ValueError):
    """Instance exceeds a brute-force size cap."""


class UnsupportedFamilyError(ValueError):
    """A stage outside the scope of the engine for this family."""


# ---------------------------------------------------------------------------
# basic wrapped types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OrthogonalMap:
    space: QuadraticSpace
    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "matrix", np.asarray(self.matrix))

    def is_isometry(self) -> bool:
        B = np.diag(np.array(self.space.norms, dtype=float))
        return bool(np.allclose(self.matrix.T @ B @ self.matrix, B, atol=ISOMETRY_TOL))


def is_b_antisymmetric(space: QuadraticSpace, X: np.ndarray) -> bool:
    """X^T B + B X = 0 for the gram B of ``space``: X lies in o(E, b)."""
    B = np.diag(np.array(space.norms, dtype=float))
    return bool(np.allclose(X.T @ B + B @ X, 0, atol=ISOMETRY_TOL))


def _expm(X: np.ndarray) -> np.ndarray:
    """exp(X) by scaling and squaring: X / 2^s has 1-norm at most 1, then degree-18 Taylor."""
    s = max(0, int(np.frexp(np.abs(X).sum(axis=0).max())[1]))
    A = X / 2.0 ** s
    E = term = np.eye(len(X), dtype=A.dtype)
    for k in range(1, 19):
        term = term @ A / k
        E = E + term
    for _ in range(s):
        E = E @ E
    return E


@dataclass(frozen=True)
class ComponentRep:
    name: str
    map: OrthogonalMap


@dataclass(frozen=True)
class LoopGenerator:
    """The compact loop theta in [0, 2pi] -> exp(theta X) of an embedded generator X.

    X is diagonalized once as V diag(i w) V^{-1}; construction rejects X unless
    V gives it back and every weight w is an integer, so the loop closes.  The
    loop's class in pi_1(SO) -> Z/2, and so the sign path lifting must find,
    is ``weight_parity`` = (-1)^(sum of the positive weights).
    """

    name: str
    space: QuadraticSpace
    generator: np.ndarray
    weights: np.ndarray = field(init=False, repr=False)
    weight_parity: int = field(init=False)
    _eig: Tuple[np.ndarray, np.ndarray] = field(init=False, repr=False)

    def __post_init__(self):
        X = np.asarray(self.generator, dtype=complex)
        lam, V = np.linalg.eig(X)
        w = np.round(lam.imag).astype(int)
        if np.abs(lam - 1j * w).max() > ISOMETRY_TOL:
            raise ValueError(f"loop {self.name}: generator eigenvalues are not i times integers")
        Vinv = np.linalg.inv(V)
        if np.abs((V * lam) @ Vinv - X).max() > ISOMETRY_TOL:
            raise ValueError(f"loop {self.name}: generator is not diagonalizable")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "weight_parity", -1 if w[w > 0].sum() % 2 else 1)
        object.__setattr__(self, "_eig", (V, Vinv))

    def at(self, theta: float) -> OrthogonalMap:
        V, Vinv = self._eig
        M = (V * np.exp(1j * theta * self.weights)) @ Vinv
        return OrthogonalMap(self.space, M.real if self.space.field_kind == "real" else M)


@dataclass
class SideSpec:
    """One member of a dual pair: embedded Lie generator matrices and component data."""

    name: str
    space: QuadraticSpace
    lie_generators: List[np.ndarray]
    component_reps: List[ComponentRep]
    loops: List[LoopGenerator]
    embed_group: Callable[..., OrthogonalMap]

    def identity_probe(self) -> Tuple[str, OrthogonalMap]:
        """A deterministic identity-component element away from the identity."""
        if self.loops:
            loop = self.loops[0]
            return f"{loop.name}@2pi/3", loop.at(2.0 * np.pi / 3.0)
        if not self.lie_generators:
            return "id", OrthogonalMap(self.space, np.eye(self.space.dim))
        X = self.lie_generators[0]
        g = _expm(0.3 / max(1.0, np.abs(X).max()) * np.asarray(X, dtype=complex))
        if self.space.field_kind == "real":
            g = g.real
        return "exp0", OrthogonalMap(self.space, g)


@dataclass
class DualPairSpec:
    """A classified dual-pair family instance with embedded group data.

    ``skips`` maps each stage out of scope for the family to its reason.
    """

    space: QuadraticSpace
    G: SideSpec
    Gp: SideSpec
    skips: Dict[str, str] = field(default_factory=dict)

    def refuse_skipped(self, stage: str) -> None:
        """Raise UnsupportedFamilyError, with its reason, if ``stage`` is out of scope."""
        if stage in self.skips:
            raise UnsupportedFamilyError(self.skips[stage])

    def side(self, which: str) -> SideSpec:
        if which == "G":
            return self.G
        if which == "Gp":
            return self.Gp
        raise ValueError(f"unknown side {which!r}")


# ---------------------------------------------------------------------------
# realification helpers
# ---------------------------------------------------------------------------

def realify_complex_matrix(G: np.ndarray) -> np.ndarray:
    """Real matrix of a C-linear map in the realified basis (w_a; i w_a)."""
    G = np.asarray(G, dtype=complex)
    return np.block([[G.real, -G.imag], [G.imag, G.real]])


def tensor_kl_permutation(n: int, m: int) -> np.ndarray:
    """Permutation P with P[a(s,t), s*m + t] = 1 re-indexing kron(A_n, B_m)."""
    P = np.zeros((n * m, n * m))
    for s in range(n):
        for t in range(m):
            P[(m - 1 - t) * n + s, s * m + t] = 1.0
    return P


# ---------------------------------------------------------------------------
# quaternionic helpers
# ---------------------------------------------------------------------------

def realify_quaternionic(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Complex 2n x 2n image of the quaternionic matrix A + jB."""
    A = np.asarray(A, dtype=complex)
    B = np.asarray(B, dtype=complex)
    if A.shape != B.shape or A.shape[0] != A.shape[1]:
        raise ValueError("A and B must be square of equal size")
    return np.block([[A, -B.conj()], [B, A.conj()]])


def quaternion_matrix_product(x: Tuple[np.ndarray, np.ndarray],
                              y: Tuple[np.ndarray, np.ndarray],
                              ) -> Tuple[np.ndarray, np.ndarray]:
    """(A1 + jB1)(A2 + jB2) evaluated by quaternion arithmetic."""
    A1, B1 = x
    A2, B2 = y
    return A1 @ A2 - B1.conj() @ B2, A1.conj() @ B2 + B1 @ A2


def quaternion_J(n: int) -> np.ndarray:
    return np.block([[np.zeros((n, n)), -np.eye(n)], [np.eye(n), np.zeros((n, n))]])


def fixed_real_basis(J1: np.ndarray, J2: np.ndarray) -> np.ndarray:
    """Unitary columns spanning Fix(sigma), sigma(v) = (J1 kron J2) conj(v).

    sigma is an antilinear involution pairing the standard basis in signed
    2-orbits; each orbit contributes two fixed real directions.
    """
    P = np.kron(J1, J2)
    N = P.shape[0]
    seen = set()
    cols = []
    for idx in range(N):
        if idx in seen:
            continue
        w = np.zeros(N, dtype=complex)
        w[idx] = 1.0
        sw = P @ w.conj()
        j = int(np.argmax(np.abs(sw)))
        s = sw[j]
        if abs(abs(s) - 1.0) > 1e-12 or j == idx:
            raise ValueError("sigma is not a free signed permutation on the basis")
        seen.update((idx, j))
        w2 = np.zeros(N, dtype=complex)
        w2[j] = 1.0
        cols.append((w + s * w2) / np.sqrt(2.0))
        cols.append((1j * w - 1j * s * w2) / np.sqrt(2.0))
    return np.array(cols).T


# ---------------------------------------------------------------------------
# deterministic orthogonalization
# ---------------------------------------------------------------------------

def _fix_column_signs(P: np.ndarray) -> np.ndarray:
    P = P.copy()
    for j in range(P.shape[1]):
        col = P[:, j]
        k = int(np.argmax(np.abs(col) - 1e-15 * np.arange(len(col))))
        if col[k] < 0:
            P[:, j] = -col
    return P


def orthogonalize_real_gram(M: np.ndarray) -> Tuple[np.ndarray, Tuple[int, ...]]:
    """P with P^T M P = diag(norms), norms sorted +1 block then -1 block."""
    M = np.asarray(M, dtype=float)
    w, Q = np.linalg.eigh((M + M.T) / 2.0)
    if np.min(np.abs(w)) < 1e-10:
        raise ValueError("degenerate symmetric form")
    P = Q / np.sqrt(np.abs(w))[None, :]
    signs = np.where(w > 0, 1, -1)
    order = sorted(range(len(w)), key=lambda i: (-signs[i], i))
    P = _fix_column_signs(P[:, order])
    norms = tuple(int(signs[i]) for i in order)
    return P, norms


def complex_scales(norms: Sequence[int]) -> np.ndarray:
    """c with c_k^2 = norms[k]: 1 on a +1 vector, i on a -1 vector.

    Dividing the columns of a real orthogonal frame by c makes it a complex
    orthonormal frame, and conjugates every matrix written in it by diag(c).
    """
    return np.where(np.asarray(norms) == 1, 1.0 + 0j, 1j)


# ---------------------------------------------------------------------------
# complexification of a pair
# ---------------------------------------------------------------------------

@dataclass
class ComplexifiedPair:
    """Complexified ambient data consumed by the duality engine."""

    spec: DualPairSpec
    space_c: QuadraticSpace
    lie_G: List[np.ndarray]
    lie_Gp: List[np.ndarray]
    comps_G: List[Tuple[str, np.ndarray]]
    comps_Gp: List[Tuple[str, np.ndarray]]

    def side(self, which: str) -> Tuple[List[np.ndarray], List[Tuple[str, np.ndarray]]]:
        """Complexified Lie generators and component reps of one member."""
        if self.spec.side(which) is self.spec.G:
            return self.lie_G, self.comps_G
        return self.lie_Gp, self.comps_Gp


def complexify(spec: DualPairSpec) -> ComplexifiedPair:
    """Complexified quadratic space plus complexified generators of both sides.

    The inclusion rescales each -1 generator by i, conjugating matrices by
    C = diag(complex_scales(norms)); every norm of a complex ambient space is
    +1, so C = I there.  dim E_C always equals dim_R E.
    """
    scales = complex_scales(spec.space.norms)
    C = np.diag(scales)
    Cinv = np.diag(1.0 / scales)

    def conj(M):
        return C @ np.asarray(M, dtype=complex) @ Cinv

    return ComplexifiedPair(
        spec, complex_space(spec.space.dim),
        [conj(X) for X in spec.G.lie_generators],
        [conj(X) for X in spec.Gp.lie_generators],
        [(r.name, conj(r.map.matrix)) for r in spec.G.component_reps],
        [(r.name, conj(r.map.matrix)) for r in spec.Gp.component_reps],
    )
