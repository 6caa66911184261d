"""Matrix realizations of orthogonal groups and dual-pair scaffolding.

Everything downstream (lifting, path tracking, invariant solves) consumes
isometries expressed in the distinguished orthogonal basis of a
:class:`~spinpairs.clifford.QuadraticSpace`, so this module concentrates the
change-of-basis bookkeeping: realifications of complex and quaternionic
matrices, split bases for type-II pairs, and deterministic orthogonalization of
tensor-product forms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Sequence, Tuple

import numpy as np
import scipy.linalg as sla

from .clifford import QuadraticSpace, complex_space

ISOMETRY_TOL = 1e-9
ORTHONORMALIZE_TOL = 1e-10


class ClassificationError(ValueError):
    """Parameters violate a side condition of the dual-pair classification."""


class DimensionCapError(ValueError):
    """Instance exceeds a brute-force size cap."""


# ---------------------------------------------------------------------------
# basic wrapped types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OrthogonalMap:
    space: QuadraticSpace
    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "matrix", np.asarray(self.matrix))

    def gram(self) -> np.ndarray:
        return np.diag(np.array(self.space.norms, dtype=float))

    def is_isometry(self, tol: float = ISOMETRY_TOL) -> bool:
        B = self.gram()
        return bool(np.allclose(self.matrix.T @ B @ self.matrix, B, atol=tol))

    def compose(self, other: "OrthogonalMap") -> "OrthogonalMap":
        if self.space != other.space:
            raise ValueError("space mismatch")
        return OrthogonalMap(self.space, self.matrix @ other.matrix)


@dataclass(frozen=True)
class LieElement:
    space: QuadraticSpace
    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "matrix", np.asarray(self.matrix))

    def is_b_antisymmetric(self, tol: float = ISOMETRY_TOL) -> bool:
        B = np.diag(np.array(self.space.norms, dtype=float))
        return bool(np.allclose(self.matrix.T @ B + B @ self.matrix, 0, atol=tol))


@dataclass(frozen=True)
class ComponentRep:
    name: str
    map: OrthogonalMap


@dataclass(frozen=True)
class LoopGenerator:
    """One-parameter compact loop theta in [0, 2pi] -> embedded isometry."""

    name: str
    fn: Callable[[float], OrthogonalMap]

    def at(self, theta: float) -> OrthogonalMap:
        return self.fn(theta)


@dataclass
class SideSpec:
    """One member of a dual pair: embedded generators and component data."""

    name: str
    space: QuadraticSpace
    lie_generators: List[LieElement]
    component_reps: List[ComponentRep]
    loops: List[LoopGenerator]
    embed_group: Callable[..., OrthogonalMap]

    def random_element(self, rng: np.random.Generator, scale: float = 0.5) -> OrthogonalMap:
        """Product of a random Lie exponential and a random subset of component reps."""
        n = self.space.dim
        M = np.eye(n, dtype=complex)
        if self.lie_generators:
            X = sum(rng.normal() * g.matrix for g in self.lie_generators)
            M = M @ sla.expm(scale / max(1.0, np.abs(X).max()) * np.asarray(X, dtype=complex))
        for rep in self.component_reps:
            if rng.integers(2):
                M = M @ rep.map.matrix
        if self.space.field_kind == "real":
            M = M.real
        return OrthogonalMap(self.space, M)

    def identity_probe(self) -> Tuple[str, OrthogonalMap]:
        """A deterministic identity-component element away from the identity."""
        if self.loops:
            loop = self.loops[0]
            return f"{loop.name}@2pi/3", loop.at(2.0 * np.pi / 3.0)
        if not self.lie_generators:
            return "id", OrthogonalMap(self.space, np.eye(self.space.dim))
        X = self.lie_generators[0].matrix
        g = sla.expm(0.3 / max(1.0, np.abs(X).max()) * np.asarray(X, dtype=complex))
        if self.space.field_kind == "real":
            g = g.real
        return "exp0", OrthogonalMap(self.space, g)


@dataclass
class DualPairSpec:
    """A classified dual-pair family instance with embedded group data."""

    family: str
    params: tuple
    space: QuadraticSpace
    G: SideSpec
    Gp: SideSpec

    @property
    def is_complex_ambient(self) -> bool:
        return self.space.field_kind == "complex"

    def side(self, which: str) -> SideSpec:
        if which in ("G", "g", "left", "0"):
            return self.G
        if which in ("Gp", "g'", "G'", "right", "1"):
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
        piv = col[k]
        if piv.real < 0 or (abs(piv.real) < 1e-14 and piv.imag < 0):
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


def complex_orthonormalize(M: np.ndarray) -> np.ndarray:
    """P with P^T M P = I for a non-degenerate complex symmetric bilinear M.

    Gram-Schmidt with norm pivoting; isotropic leftovers are resolved through
    hyperbolic pairs (u + v with b(u, v) != 0).
    """
    M = np.asarray(M, dtype=complex)
    N = M.shape[0]
    pending = [np.eye(N, dtype=complex)[:, i] for i in range(N)]
    done: List[np.ndarray] = []

    def b(u, v):
        return u @ M @ v

    def reduce(v):
        for w in done:
            v = v - b(v, w) * w
        return v

    while pending:
        reduced = [reduce(v) for v in pending]
        norms = [abs(b(v, v)) for v in reduced]
        i = int(np.argmax(norms))
        if norms[i] > ORTHONORMALIZE_TOL:
            v = reduced[i]
            w = v / np.sqrt(b(v, v))
            done.append(w)
            pending.pop(i)
            continue
        # all diagonal norms vanish: find the strongest hyperbolic cross pair
        best, bi, bj = 0.0, -1, -1
        for a in range(len(reduced)):
            for c in range(a + 1, len(reduced)):
                val = abs(b(reduced[a], reduced[c]))
                if val > best:
                    best, bi, bj = val, a, c
        if best <= ORTHONORMALIZE_TOL:
            raise ValueError("degenerate complex symmetric form")
        v = reduced[bi] + reduced[bj]
        w = v / np.sqrt(b(v, v))
        done.append(w)
        pending.pop(bi)
    return np.array(done).T


def sort_basis(matrix: np.ndarray, norms: Sequence[int]) -> Tuple[np.ndarray, Tuple[int, ...], np.ndarray]:
    """Stable-permute an orthogonal basis so +1 norms precede -1 norms.

    Returns (P^T matrix P, sorted norms, P) for the permutation matrix P.
    """
    order = sorted(range(len(norms)), key=lambda i: (-norms[i], i))
    P = np.zeros((len(norms), len(norms)))
    for new, old in enumerate(order):
        P[old, new] = 1.0
    return P.T @ np.asarray(matrix) @ P, tuple(int(norms[i]) for i in order), P


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

    For a real ambient space the inclusion rescales negative-norm generators
    by i, conjugating matrices by C = diag(scales); complex ambient spaces
    pass through unchanged.  dim E_C always equals dim_R E.
    """
    if spec.is_complex_ambient:
        return ComplexifiedPair(
            spec, spec.space,
            [np.asarray(g.matrix, dtype=complex) for g in spec.G.lie_generators],
            [np.asarray(g.matrix, dtype=complex) for g in spec.Gp.lie_generators],
            [(r.name, np.asarray(r.map.matrix, dtype=complex)) for r in spec.G.component_reps],
            [(r.name, np.asarray(r.map.matrix, dtype=complex)) for r in spec.Gp.component_reps],
        )
    scales = np.array([1.0 + 0j if n == 1 else 1j for n in spec.space.norms])
    C = np.diag(scales)
    Cinv = np.diag(1.0 / scales)

    def conj(M):
        return C @ np.asarray(M, dtype=complex) @ Cinv

    return ComplexifiedPair(
        spec, complex_space(spec.space.dim),
        [conj(g.matrix) for g in spec.G.lie_generators],
        [conj(g.matrix) for g in spec.Gp.lie_generators],
        [(r.name, conj(r.map.matrix)) for r in spec.G.component_reps],
        [(r.name, conj(r.map.matrix)) for r in spec.Gp.component_reps],
    )
