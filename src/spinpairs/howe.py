"""Duality for the spinorial representation, made executable.

The pipeline per dual pair: complexify the ambient space, compute the
graded invariants of the exterior algebra under one member by brute-force
nullspaces, transport them into End(S) through the Chevalley map and the
spinor isomorphism, and compare with the directly computed commutant of the
algebra generated by the lifted member.  A Howe correspondence is certified
by the double-commutant criterion

    Comm <G~> = <G~'>   (both directions)

together with commutativity of the joint commutant, whose dimension counts
the isotypic blocks of the multiplicity-free decomposition.

The three degree-2 generator theorems for exterior invariants of GL, O and
Sp are verified separately on standalone tensor models at small rank, with
the brute-force invariant dimensions as the oracle.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np
import scipy.linalg as sla

from .clifford import (ExteriorElement, QuadraticSpace, _mask_indices, chevalley_T,
                       complex_space, exterior_blade_images, reorder_sign)
from .families import gl_real_basis, reflection, so_n_complex_basis, sp_2n_basis
from .groups import ComplexifiedPair, DimensionCapError, DualPairSpec, complexify
from .pin import lift
from .spinor import SpinorSpace, build_spinors, d_pi, gamma_tilde, pi_rep

RANK_TOL = 1e-8
COMMUTATIVITY_TOL = 1e-7
HOWE_DIM_CAP = 12
EXTERIOR_DIM_CAP = 12
# nullspace splits a nonzero pattern only when both sides are at least
# SPLIT_MIN_SIDE long and at most a SPLIT_MAX_FILL share of entries is nonzero.
# k equal blocks fill 1/k of a matrix, so a fuller pattern has at most three
# blocks to gain from, and is mostly one component, while the component
# search costs about 0.2 us per nonzero; a smaller matrix's SVD is cheap.
# Over the nullspace inputs of the benchmark's invariants and table passes,
# side limits of 32 to 128 and fill limits of 1/20 to 1/4 time within 8 %.
SPLIT_MIN_SIDE = 64
SPLIT_MAX_FILL = 0.25

ORTHOGONAL_PAIR_FAMILIES = {"O_real", "O_C", "O_C_real"}


class UnsupportedFamilyError(ValueError):
    """Family outside the scope of the spinorial duality engine."""


# ---------------------------------------------------------------------------
# numerical span utilities
# ---------------------------------------------------------------------------

def _rank(s: np.ndarray, scale: Optional[float] = None) -> int:
    """Number of singular values above the one rank cutoff of the package.

    Spans are built from O(1)-scaled group and Lie matrices, operators and
    wedges, so the cutoff keeps an absolute floor: a matrix whose largest
    singular value is itself negligible is the zero map.  The cutoff is
    RANK_TOL * max(1, largest singular value); when s holds only one block
    of a matrix's singular values, `scale` passes that max over the whole
    matrix, so each block is cut where the whole would be.
    """
    scale = s.max(initial=1.0) if scale is None else scale
    return int((s > RANK_TOL * scale).sum())


def nullspace(A: np.ndarray) -> np.ndarray:
    """Orthonormal rows spanning ker(A).

    The connected components of the bipartite graph of A's exact nonzero
    pattern, row i joined to column j iff A[i, j] != 0, permute A to block
    diagonal form, so ker A is the direct sum of the block kernels and each
    block is solved on its own.  A pattern that is small, dense or connected
    gets one dense SVD.
    """
    A = np.asarray(A, dtype=complex)
    rows, cols = A.shape
    if min(rows, cols) >= SPLIT_MIN_SIDE:
        r, c = np.nonzero(A)
        if r.size <= SPLIT_MAX_FILL * rows * cols:
            blocks = _pattern_blocks(r, c, cols)
            if len(blocks) > 1:
                return _blockwise_nullspace(A, blocks)
    return _dense_nullspace(A)


def _dense_nullspace(A: np.ndarray) -> np.ndarray:
    # only a wide A needs the full Vh
    rows, cols = A.shape
    _, s, vh = np.linalg.svd(A, full_matrices=rows < cols)
    return vh[_rank(s):].conj()


def _pattern_blocks(r: np.ndarray, c: np.ndarray,
                    cols: int) -> List[Tuple[List[int], List[int]]]:
    """(rows, columns) of each connected component of the pattern {(r[k], c[k])}.

    A union-find over the columns joins each row's nonzero columns to its
    first one; a column in no row is a component without rows.  Components
    come in the order of their smallest column, rows and columns ascending.
    """
    parent = list(range(cols))

    def root(j: int) -> int:
        while parent[j] != j:
            parent[j] = parent[parent[j]]
            j = parent[j]
        return j

    first: Dict[int, int] = {}
    for i, j in zip(r.tolist(), c.tolist()):
        a, b = root(first.setdefault(i, j)), root(j)
        if a != b:
            parent[max(a, b)] = min(a, b)
    comp = [root(j) for j in range(cols)]
    blocks: Dict[int, Tuple[List[int], List[int]]] = {}
    for j, k in enumerate(comp):
        blocks.setdefault(k, ([], []))[1].append(j)
    for i, j in first.items():
        blocks[comp[j]][0].append(i)
    return list(blocks.values())


def _blockwise_nullspace(A: np.ndarray,
                         blocks: Sequence[Tuple[List[int], List[int]]]) -> np.ndarray:
    """ker A as the direct sum of the kernels of its pattern blocks.

    Blocks of one shape share a batched SVD.  Every rank is cut at the scale
    of the whole matrix, the largest singular value over all blocks, which is
    the cutoff the dense SVD of A applies.  A block without rows is a set of
    columns no row touches, each one a kernel unit vector.
    """
    by_shape: Dict[Tuple[int, int], list] = {}
    for rs, cs in blocks:
        by_shape.setdefault((len(rs), len(cs)), []).append((rs, cs))
    solved = []
    for (m, n), group in by_shape.items():
        if m == 0:
            s = np.zeros((len(group), 0))
            vh = np.broadcast_to(np.eye(n, dtype=complex), (len(group), n, n))
        else:
            _, s, vh = np.linalg.svd(np.stack([A[np.ix_(rs, cs)] for rs, cs in group]),
                                     full_matrices=m < n)
        solved.append((group, s, vh))
    scale = max(s.max(initial=1.0) for _, s, _ in solved)
    pieces = [(cs, vb[_rank(sb, scale):].conj())
              for group, s, vh in solved for (_, cs), sb, vb in zip(group, s, vh)]
    K = np.zeros((sum(len(k) for _, k in pieces), A.shape[1]), dtype=complex)
    at = 0
    for cs, k in pieces:
        K[at:at + len(k), cs] = k
        at += len(k)
    return K


def orthonormal_rows(rows: Sequence[np.ndarray]) -> np.ndarray:
    A = np.asarray([np.asarray(r).ravel() for r in rows], dtype=complex)
    if A.shape[0] == 0:
        return A
    _, s, vh = np.linalg.svd(A, full_matrices=False)
    return vh[:_rank(s)]


def span_rank(rows: Sequence[np.ndarray]) -> int:
    return orthonormal_rows(rows).shape[0]


def subspace_equal(A: Sequence[np.ndarray], B: Sequence[np.ndarray]) -> bool:
    """Equal rank plus mutual containment of two operator/vector spans."""
    ra = span_rank(A)
    rb = span_rank(B)
    if ra != rb:
        return False
    joint = [np.asarray(x).ravel() for x in A] + [np.asarray(x).ravel() for x in B]
    return span_rank(joint) == ra


def joint_nullspace(constraints: Iterable[np.ndarray], dim: int) -> np.ndarray:
    """Orthonormal rows spanning the joint kernel, by successive restriction.

    Restricting each constraint to the running nullspace keeps every SVD at
    the current kernel width instead of stacking all constraints at once.
    Constraints are drawn one at a time, and none once the kernel is empty.
    """
    basis = None
    for M in constraints:
        basis = nullspace(M) if basis is None else nullspace(M @ basis.T) @ basis
        if basis.shape[0] == 0:
            break
    return np.eye(dim, dtype=complex) if basis is None else basis


# ---------------------------------------------------------------------------
# exterior algebra actions, per degree
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def blades_of_degree(N: int, d: int) -> Tuple[int, ...]:
    return tuple(sum(1 << i for i in comb) for comb in itertools.combinations(range(N), d))


def _degree_matrix(N: int, d_from: int, d_to: int,
                   image: Callable[[int], Iterable[Tuple[int, complex]]]) -> np.ndarray:
    """Matrix on the blade bases of Lambda(C^N): the column of a degree-d_from blade S
    sums the (degree-d_to blade, coefficient) terms that image(S) yields."""
    src = blades_of_degree(N, d_from)
    row = {m: i for i, m in enumerate(blades_of_degree(N, d_to))}
    M = np.zeros((len(row), len(src)), dtype=complex)
    for col, S in enumerate(src):
        for m, c in image(S):
            M[row[m], col] += c
    return M


def exterior_group_matrix(g: np.ndarray, d: int) -> np.ndarray:
    """Matrix of the factorwise action of g on degree-d wedges."""
    image = exterior_blade_images(g, complex_space(len(g)))
    return _degree_matrix(len(g), d, d, lambda S: image(S).terms.items())


def exterior_derivation_matrix(X: np.ndarray, d: int) -> np.ndarray:
    """Matrix of the derivation extension of X on degree-d wedges.

    Independent of exterior_blade_images, so that it cross-checks the group matrix.
    """
    X = np.asarray(X, dtype=complex)
    N = X.shape[0]
    if X.shape != (N, N):
        raise ValueError(f"a {X.shape} matrix is not an endomorphism")
    cols = [[(i, X[i, j]) for i in range(N) if X[i, j] != 0] for j in range(N)]

    def image(mask):
        for j in _mask_indices(mask):
            rest = mask ^ (1 << j)
            for i, v in cols[j]:
                if i == j:
                    yield mask, v
                elif not mask >> i & 1:
                    # the (-1)^|rest| factors of the two reorderings cancel
                    sign = reorder_sign(rest, 1 << j) * reorder_sign(rest, 1 << i)
                    yield rest | (1 << i), sign * v

    return _degree_matrix(N, d, d, image)


# ---------------------------------------------------------------------------
# invariants of one dual-pair member
# ---------------------------------------------------------------------------

@dataclass
class InvariantSpace:
    """Per-degree orthonormal bases of the invariant wedges, in blade coordinates."""

    space: QuadraticSpace
    degree_bases: Dict[int, np.ndarray]

    @property
    def dims(self) -> Dict[int, int]:
        return {d: b.shape[0] for d, b in self.degree_bases.items()}

    def total_dim(self) -> int:
        return sum(self.dims.values())

    def elements(self) -> List[ExteriorElement]:
        out = []
        for d in sorted(self.degree_bases):
            blades = blades_of_degree(self.space.dim, d)
            for row in self.degree_bases[d]:
                out.append(ExteriorElement(
                    self.space, {m: row[i] for i, m in enumerate(blades)}))
        return out


def invariant_space(space_c: QuadraticSpace, lie: Sequence[np.ndarray],
                    comps: Sequence[np.ndarray]) -> InvariantSpace:
    """Joint nullspace of Lie derivations and fixed space of component actions."""
    N = space_c.dim
    if N > EXTERIOR_DIM_CAP:
        raise DimensionCapError(f"exterior dimension {N} exceeds cap {EXTERIOR_DIM_CAP}")
    bases: Dict[int, np.ndarray] = {}
    for d in range(N + 1):
        nd = len(blades_of_degree(N, d))
        constraints = itertools.chain(
            (exterior_derivation_matrix(X, d) for X in lie),
            (exterior_group_matrix(g, d) - np.eye(nd) for g in comps))
        bases[d] = joint_nullspace(constraints, nd)
    return InvariantSpace(space_c, bases)


def invariants(spec: DualPairSpec, side: str,
               cpx: Optional[ComplexifiedPair] = None) -> InvariantSpace:
    """Graded invariants of the complexified exterior algebra under one member."""
    cpx = cpx or complexify(spec)
    lie, comps = cpx.side(side)
    return invariant_space(cpx.space_c, lie, [g for _, g in comps])


# ---------------------------------------------------------------------------
# Howe's generator theorems on standalone tensor models
# ---------------------------------------------------------------------------

def _wedge_sum(space: QuadraticSpace, terms: Iterable[Tuple[int, int, int]]) -> ExteriorElement:
    """The degree-2 element sum of s e_i ^ e_j over the (s, i, j) of terms."""
    acc = ExteriorElement(space, {})
    for s, i, j in terms:
        w = ExteriorElement(space, {1 << i: 1.0}) ^ ExteriorElement(space, {1 << j: 1.0})
        acc = acc + w if s > 0 else acc - w
    return acc


@dataclass
class GLModel:
    """GL(V) acting on V ox U + V* ox W; invariants generated in degree 2.

    Basis order: (v_k ox u_a) row-major, then (v*_k ox w_b) row-major.
    """

    n: int  # dim V
    m: int  # dim U
    l: int  # dim W

    @property
    def dim(self) -> int:
        return self.n * (self.m + self.l)

    def space(self) -> QuadraticSpace:
        return complex_space(self.dim)

    def lie(self) -> List[np.ndarray]:
        return [sla.block_diag(np.kron(X, np.eye(self.m)), np.kron(-X.T, np.eye(self.l)))
                for X in gl_real_basis(self.n)]

    def comps(self) -> List[np.ndarray]:
        return []

    def generators(self) -> List[ExteriorElement]:
        n, m, l = self.n, self.m, self.l
        return [_wedge_sum(self.space(), [(1, k * m + a, n * m + k * l + b) for k in range(n)])
                for a in range(m) for b in range(l)]


@dataclass
class OModel:
    """O(n,C) acting on U ox V with U orthogonal; eta generators in degree 2."""

    n: int  # dim U
    m: int  # dim V

    @property
    def dim(self) -> int:
        return self.n * self.m

    def space(self) -> QuadraticSpace:
        return complex_space(self.dim)

    def lie(self) -> List[np.ndarray]:
        return [np.kron(X, np.eye(self.m)) for X in so_n_complex_basis(self.n)]

    def comps(self) -> List[np.ndarray]:
        return [np.kron(reflection(self.n), np.eye(self.m)).astype(complex)]

    def generators(self) -> List[ExteriorElement]:
        n, m = self.n, self.m
        return [_wedge_sum(self.space(), [(1, k * m + a, k * m + b) for k in range(n)])
                for a in range(m) for b in range(a + 1, m)]


@dataclass
class SpModel:
    """Sp(2n,C) acting on C^{2n} ox C^m; gamma generators in degree 2.

    Symplectic basis (e_1..e_n, f_1..f_n) with omega(e_i, f_j) = delta_ij.
    """

    n: int  # half rank
    m: int

    @property
    def dim(self) -> int:
        return 2 * self.n * self.m

    def space(self) -> QuadraticSpace:
        return complex_space(self.dim)

    def lie(self) -> List[np.ndarray]:
        return [np.kron(X, np.eye(self.m)) for X in sp_2n_basis(self.n)]

    def comps(self) -> List[np.ndarray]:
        return []

    def generators(self) -> List[ExteriorElement]:
        n, m = self.n, self.m
        return [_wedge_sum(self.space(), [t for k in range(n) for t in (
                    (1, k * m + a, (n + k) * m + b), (-1, (n + k) * m + a, k * m + b))])
                for a in range(m) for b in range(a, m)]


def wedge_matrix(g: ExteriorElement, d_from: int, d_to: int) -> np.ndarray:
    """Matrix of (g ^ .) from degree d_from wedges to degree d_to wedges."""
    return _degree_matrix(g.space.dim, d_from, d_to, lambda S: (
        g ^ ExteriorElement(g.space, {S: 1.0})).terms.items())


def verify_generation(model) -> Dict[int, Tuple[int, int]]:
    """Per-degree (generated, invariant) dimensions; equality proves generation.

    The generated subalgebra is the wedge-span closure of the degree-2
    generator elements; since they have even degree the monomial spans close
    degree by degree.
    """
    N = model.dim
    inv = invariant_space(model.space(), model.lie(), model.comps())
    gens = model.generators()
    # every generator must itself be invariant
    for g in gens:
        for d, basis in inv.degree_bases.items():
            part = g.grade_part(d)
            if not part.is_zero():
                v = np.array([part.coeff(m) for m in blades_of_degree(N, d)])
                if span_rank([*basis, v]) > basis.shape[0]:
                    raise RuntimeError("generator element is not invariant")
    report: Dict[int, Tuple[int, int]] = {}
    current: Dict[int, np.ndarray] = {0: np.ones((1, 1), dtype=complex)}
    for d in range(N + 1):
        inv_dim = inv.dims[d]
        gen_dim = 0
        if d == 0:
            gen_dim = 1
        elif d % 2 == 0 and (d - 2) in current and current[d - 2].shape[0] > 0:
            rows = []
            for g in gens:
                W = wedge_matrix(g, d - 2, d)
                rows.extend((current[d - 2] @ W.T))
            basis = orthonormal_rows(rows)
            current[d] = basis
            gen_dim = basis.shape[0]
        report[d] = (gen_dim, inv_dim)
    return report


# ---------------------------------------------------------------------------
# transfer of invariants and double commutant
# ---------------------------------------------------------------------------

def transfer_invariants(inv: InvariantSpace, sp: SpinorSpace) -> List[np.ndarray]:
    """Image of the invariant wedges in End(S) under the Chevalley map.

    On distinguished-basis blades the Chevalley map is coordinatewise, so
    each invariant vector transports to gamma~ of the same blade combination.
    """
    if inv.space != sp.space:
        raise ValueError("invariants and spinors live over different spaces")
    return [gamma_tilde(sp, chevalley_T(w)) for w in inv.elements()]


def commutant(ops: Sequence[np.ndarray], dim: int) -> List[np.ndarray]:
    """Orthonormal basis of {X : [X, op] = 0 for all ops} inside End(S).

    Row-major vectorization: vec(X o) = (I kron o^T) vec(X) and
    vec(o X) = (o kron I) vec(X).
    """
    eye = np.eye(dim)
    constraints = (np.kron(eye, o.T) - np.kron(o, eye) for o in map(np.asarray, ops))
    return [v.reshape(dim, dim) for v in joint_nullspace(constraints, dim * dim)]


def generated_algebra(ops: Sequence[np.ndarray], dim: int) -> List[np.ndarray]:
    """Orthonormal basis of the unital algebra generated by ops, by span closure."""
    basis = orthonormal_rows([np.eye(dim, dtype=complex)] + [np.asarray(o) for o in ops])
    while True:
        prods = list(basis)
        for o in ops:
            om = np.asarray(o)
            for b in basis:
                prods.append((om @ b.reshape(dim, dim)).ravel())
        nxt = orthonormal_rows(prods)
        if nxt.shape[0] == basis.shape[0]:
            return [b.reshape(dim, dim) for b in basis]
        basis = nxt


def is_commutative(ops: Sequence[np.ndarray]) -> bool:
    for i, a in enumerate(ops):
        for b in ops[i + 1:]:
            scale = max(1.0, np.abs(a).max() * np.abs(b).max())
            if not np.allclose(a @ b, b @ a, atol=COMMUTATIVITY_TOL * scale):
                return False
    return True


@dataclass
class HoweReport:
    pair: str
    dim_s: int
    dim_commutant_G: int
    dim_commutant_Gp: int
    dim_algebra_G: int
    dim_algebra_Gp: int
    subspace_equality: bool
    joint_commutant_commutative: bool
    isotypic_count: int

    def to_json(self) -> dict:
        return {
            "pair": self.pair,
            "dim_s": self.dim_s,
            "dim_commutant": self.dim_commutant_G,
            "dim_commutant_other": self.dim_commutant_Gp,
            "dim_algebra": self.dim_algebra_Gp,
            "dim_algebra_other": self.dim_algebra_G,
            "equal": self.subspace_equality,
            "mult_free": self.joint_commutant_commutative,
            "isotypic_count": self.isotypic_count,
        }


def side_operators(spec: DualPairSpec, sp: SpinorSpace, cpx: ComplexifiedPair,
                   side: str) -> List[np.ndarray]:
    """Generating operators of <G~>: dPi of Lie generators plus Pi of lifted reps."""
    lie, _ = cpx.side(side)
    ops = [d_pi(sp, X) for X in lie]
    ops += [pi_rep(sp, lift(rep.map)) for rep in spec.side(side).component_reps]
    return ops


def howe_check(spec: DualPairSpec) -> HoweReport:
    """Double-commutant certificate for the spinorial representation.

    Verifies Comm<G~> = <G~'> in both directions and that the joint commutant
    is commutative, reporting its dimension as the isotypic count.
    """
    if spec.family in ORTHOGONAL_PAIR_FAMILIES:
        raise UnsupportedFamilyError(
            f"{spec.family}: orthogonal-pair duality is outside the engine's scope")
    if spec.space.dim > HOWE_DIM_CAP:
        raise DimensionCapError(f"dim E = {spec.space.dim} exceeds duality cap {HOWE_DIM_CAP}")
    cpx = complexify(spec)
    sp = build_spinors(cpx.space_c)
    dim = sp.dim_s
    ops_G = side_operators(spec, sp, cpx, "G")
    ops_Gp = side_operators(spec, sp, cpx, "Gp")
    alg_G = generated_algebra(ops_G, dim)
    alg_Gp = generated_algebra(ops_Gp, dim)
    comm_G = commutant(ops_G, dim)
    comm_Gp = commutant(ops_Gp, dim)
    equal = subspace_equal(comm_G, alg_Gp) and subspace_equal(comm_Gp, alg_G)
    joint = commutant(list(ops_G) + list(ops_Gp), dim)
    return HoweReport(
        pair=f"{spec.G.name} x {spec.Gp.name}",
        dim_s=dim,
        dim_commutant_G=len(comm_G),
        dim_commutant_Gp=len(comm_Gp),
        dim_algebra_G=len(alg_G),
        dim_algebra_Gp=len(alg_Gp),
        subspace_equality=equal,
        joint_commutant_commutative=is_commutative(joint),
        isotypic_count=len(joint),
    )
