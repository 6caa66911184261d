"""Duality for the spinorial representation, made executable.

``howe_check`` complexifies the ambient space, generates A = <G~> and
A' = <G~'> on the spinors from dPi of the Lie generators and Pi of the lifted
component reps, and certifies a Howe correspondence by the double-commutant
criterion

    Comm <G~> = <G~'>   (both directions)

without solving a commutant in End(S).  ``blocks`` reads the Wedderburn
block sizes (n_i, m_i) of each algebra, S = (+) V_i (x) C^{m_i}, from the
central idempotents of its centre, solved inside the algebra, and gates the
closure, the semisimplicity (the trace form), the eigenvalue gap and the
integer traces on the way; dim Comm A = sum m_i^2.  A' lies in Comm A iff the
two sides' generators commute, and then equal dimensions make them equal.
A certified pair's joint commutant is then the common centre A cap A', whose
dimension counts the isotypic blocks of the multiplicity-free decomposition;
an uncertified pair gets the joint commutant solved in End(S) as a
diagnostic.  Each algebra is an incremental span closure multiplying only
its last round's rows.

A family whose row in ``families.FAMILIES`` puts the howe stage out of scope
(the orthogonal pairs) is refused through its spec; ``howe_check`` and
``invariant_space`` share one size cap, ``HOWE_DIM_CAP`` on dim E = dim E_C.

The invariant route is checked apart from ``howe_check`` (criterion 7 and
the benchmark's invariants workload): the graded exterior invariants of one
member, solved on the blades its diagonal generators and components keep and
carried into End(S) by ``transfer_invariants`` through the Chevalley map,
span its commutant.

Every kernel is one SVD cut at ``RANK_TOL * max(1, largest singular value)``.
A diagonal generator or operator takes no SVD: invariants have weight zero
under it, so ``invariant_space`` solves only the zero-weight blades and an
End(S) ``commutant`` starts from the zero-weight unit matrices, each cut at
the cutoff an SVD of that diagonal map would apply.  A component, an exact
+-1 diagonal, takes no matrix either: it fixes the blades holding an even
number of its -1 slots.

The three degree-2 generator theorems for exterior invariants of GL, O and
Sp are verified separately on standalone tensor models at small rank, with
the invariant dimensions as the oracle.  Each degree's generated wedges are
gated into the span of that degree's invariant basis and ranked in its
coordinates.  Derivations are built on the kept blades, every entry in one
pass, and wedges applied to coordinate rows, as arrays over the blade masks
of a degree, their signs from ``clifford.reorder_signs`` on arrays of both.
"""

from __future__ import annotations

import functools
import itertools
import random
from dataclasses import asdict, dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .clifford import (CliffordElement, ExteriorElement, QuadraticSpace, complex_space, grade,
                       reorder_signs)
from .families import gl_real_basis, reflection, so_pq_basis, sp_2n_basis
from .groups import ComplexifiedPair, DimensionCapError, DualPairSpec, complexify
from .pin import lift
from .spinor import SpinorSpace, build_spinors, d_pi, gamma_tilde, pi_rep

RANK_TOL = 1e-8
COMMUTATIVITY_TOL = 1e-7
CENTRE_GAP = 1e-3
INTEGER_TOL = 1e-6
HOWE_DIM_CAP = 12


# ---------------------------------------------------------------------------
# numerical span utilities
# ---------------------------------------------------------------------------

def _cutoff(scale: float) -> float:
    """The one rank cutoff of the package, RANK_TOL * max(1, scale).

    Spans are built from O(1)-scaled group and Lie matrices, operators and
    wedges, so the cutoff keeps an absolute floor: a matrix whose largest
    singular value is itself negligible is the zero map.
    """
    return RANK_TOL * max(1.0, scale)


def _rank(s: np.ndarray, scale: Optional[float] = None) -> int:
    """Number of singular values above the cutoff at the largest of them.

    ``generated_algebra`` passes `scale`, the largest norm of the products
    whose residual s belongs to, so a residual is cut where the products are.
    """
    return int((s > _cutoff(s.max(initial=0.0) if scale is None else scale)).sum())


def nullspace(A: np.ndarray) -> np.ndarray:
    """Orthonormal rows spanning ker(A), from one SVD cut by `_rank`."""
    A = np.asarray(A, dtype=complex)
    # only a wide A needs the full Vh
    _, s, vh = np.linalg.svd(A, full_matrices=A.shape[0] < A.shape[1])
    return vh[_rank(s):].conj()


def _weight_cut(ops: Sequence[np.ndarray],
                incidence: np.ndarray) -> Tuple[np.ndarray, List[np.ndarray]]:
    """The cells every diagonal op weighs zero, and the ops that are not diagonal.

    An op whose off-diagonal entries are all exactly zero acts on cell c as
    multiplication by the weight incidence[c] @ diag(op), so its kernel is
    spanned by the unit vectors of the cells whose weight it cuts.  Each op
    cuts the cells kept so far at the cutoff `_rank` gives that diagonal map,
    the largest |weight| among them.
    """
    keep = np.ones(len(incidence), dtype=bool)
    rest = []
    for o in ops:
        if np.count_nonzero(o) > np.count_nonzero(np.diagonal(o)):
            rest.append(o)
            continue
        w = np.abs(incidence[keep] @ np.diagonal(o))
        keep[keep] = w <= _cutoff(w.max(initial=0.0))
    return np.flatnonzero(keep), rest


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
    Each SVD sees only the rows the constraint reaches, first of its own and
    then on the running kernel: zero rows change no singular value or right
    singular vector.  Constraints are drawn one at a time, and none once the
    kernel is empty.
    """
    basis = np.eye(dim, dtype=complex)
    for M in constraints:
        M = M[M.any(axis=1)] @ basis.T
        basis = nullspace(M[M.any(axis=1)]) @ basis
        if basis.shape[0] == 0:
            break
    return basis


# ---------------------------------------------------------------------------
# exterior algebra actions, per degree
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def blades_of_degree(N: int, d: int) -> Tuple[int, ...]:
    return tuple(sum(1 << i for i in comb) for comb in itertools.combinations(range(N), d))


def _positions(masks: np.ndarray, of: np.ndarray) -> np.ndarray:
    """The index in masks of each mask of `of`; masks holds all of them."""
    order = np.argsort(masks)
    return order[np.searchsorted(masks, of, sorter=order)]


def exterior_derivation_matrix(X: np.ndarray, d: int, cells: np.ndarray) -> np.ndarray:
    """Columns `cells` of the matrix of the derivation extension of X on degree-d wedges.

    Every nonzero X[i, j] moves the blades S holding j and not i to S - j + i,
    all entries against all columns in one vector pass; for i = j the same
    rule keeps each blade holding j in place with sign 1, so X[j, j] scales
    it.  One np.add.at adds in (entry, column) order, so each cell sums its
    entries in argwhere order.  Independent of exterior_blade_images, so that
    it cross-checks the group action.
    """
    X = np.asarray(X, dtype=complex)
    N = X.shape[0]
    if X.shape != (N, N):
        raise ValueError(f"a {X.shape} matrix is not an endomorphism")
    masks = np.array(blades_of_degree(N, d), dtype=np.int64)
    src = masks[cells]
    i, j = np.argwhere(X).T
    e, col = np.nonzero(src & (1 << i[:, None] | 1 << j[:, None]) == 1 << j[:, None])
    bi, bj = 1 << i[e], 1 << j[e]
    rest = src[col] ^ bj
    # the (-1)^|rest| factors of the two reorderings cancel
    sign = reorder_signs(rest, bj) * reorder_signs(rest, bi)
    M = np.zeros((len(masks), len(src)), dtype=complex)
    np.add.at(M, (_positions(masks, rest | bi), col), sign * X[i[e], j[e]])
    return M


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


def invariant_space(space_c: QuadraticSpace, lie: Sequence[np.ndarray],
                    comps: Sequence[np.ndarray]) -> InvariantSpace:
    """Joint nullspace of Lie derivations and fixed space of component actions.

    A diagonal generator h acts on the blade S by its weight sum_{k in S} h_k,
    and a component g, which must be an exact +-1 diagonal (else ValueError),
    by the product of its entries over S.  So the invariants of each degree lie
    on the blades of weight zero under every such h that hold an even number of
    every g's -1 slots; the other generators are solved on those blades only.
    """
    N = space_c.dim
    if N > HOWE_DIM_CAP:
        raise DimensionCapError(f"exterior dimension {N} exceeds cap {HOWE_DIM_CAP}")
    lie = [np.asarray(X) for X in lie]
    flips = []
    for g in comps:
        g = np.asarray(g)
        s = np.diagonal(g)
        if g.shape != (N, N) or not np.isin(s, (1, -1)).all() or np.count_nonzero(g) > N:
            raise ValueError("a component rep that is not an exact +-1 diagonal")
        flips.append(s.real < 0)
    bases: Dict[int, np.ndarray] = {}
    for d in range(N + 1):
        blades = np.array(blades_of_degree(N, d))
        incidence = blades[:, None] >> np.arange(N) & 1
        cells, rest = _weight_cut(lie, incidence)
        for f in flips:
            cells = cells[incidence[cells] @ f % 2 == 0]
        K = joint_nullspace((exterior_derivation_matrix(X, d, cells) for X in rest), len(cells))
        bases[d] = np.zeros((len(K), len(blades)), dtype=complex)
        bases[d][:, cells] = K
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
        Z = np.zeros((self.n * self.m, self.n * self.l))
        return [np.block([[np.kron(X, np.eye(self.m)), Z], [Z.T, np.kron(-X.T, np.eye(self.l))]])
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
        return [np.kron(X, np.eye(self.m)) for X in so_pq_basis((1,) * self.n)]

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


def wedge_rows(g: ExteriorElement, rows: np.ndarray, d_from: int, d_to: int) -> np.ndarray:
    """The coordinate rows of g ^ w, one for each degree d_from coordinate row w of rows.

    Every term t of g must have degree d_to - d_from; it sends each blade S
    disjoint from it to e_t ^ e_S = (-1)^(|t| d_from) e_S ^ e_t.  S -> S | t is
    one to one, so no two columns of a term land in one column of the result.
    """
    N = g.space.dim
    src = np.array(blades_of_degree(N, d_from), dtype=np.int64)
    dst = np.array(blades_of_degree(N, d_to), dtype=np.int64)
    out = np.zeros((len(rows), len(dst)), dtype=complex)
    for t, c in g.terms.items():
        if grade(t) != d_to - d_from:
            raise ValueError(f"a term of degree {grade(t)} does not map degree {d_from} "
                             f"to degree {d_to}")
        col = np.flatnonzero(src & t == 0)
        sign = (-1) ** (grade(t) * d_from) * reorder_signs(src[col], t)
        out[:, _positions(dst, src[col] | t)] += rows[:, col] * (sign * c)
    return out


def verify_generation(model) -> Dict[int, Tuple[int, int]]:
    """Per-degree (generated, invariant) dimensions; equality proves generation.

    The generated subalgebra is the wedge-span closure of the degree-2
    generator elements; since they have even degree the monomial spans close
    degree by degree.  Degree d's rows, the generators wedged with degree
    d - 2's basis, must lie in the span of the invariant basis Q_d: a row
    residual above the cutoff of the largest row norm raises RuntimeError, so
    at degree 2 every generator is checked invariant.  The rows are ranked by
    their coordinates on Q_d, which have the same singular values.
    """
    N = model.dim
    inv = invariant_space(model.space(), model.lie(), model.comps())
    gens = model.generators()
    report: Dict[int, Tuple[int, int]] = {0: (1, inv.dims[0])}
    current: Dict[int, np.ndarray] = {0: np.ones((1, 1), dtype=complex)}
    for d in range(1, N + 1):
        Q = inv.degree_bases[d]
        gen_dim = 0
        if d % 2 == 0:
            rows = np.concatenate([np.zeros((0, Q.shape[1]))] + [
                wedge_rows(g, current[d - 2], d - 2, d) for g in gens])
            coords = rows @ Q.conj().T
            resid = np.linalg.norm(rows - coords @ Q, axis=1).max(initial=0.0)
            scale = np.linalg.norm(rows, axis=1).max(initial=0.0)
            if resid > _cutoff(scale):
                raise RuntimeError(f"generated wedges of degree {d} are not invariant: "
                                   f"residual {resid:.1e} at scale {scale:.1e}")
            _, s, vh = np.linalg.svd(coords, full_matrices=False)
            gen_dim = _rank(s)
            current[d] = vh[:gen_dim] @ Q
        report[d] = (gen_dim, inv.dims[d])
    return report


# ---------------------------------------------------------------------------
# transfer of invariants and double commutant
# ---------------------------------------------------------------------------

def transfer_invariants(inv: InvariantSpace, sp: SpinorSpace) -> List[np.ndarray]:
    """Image of the invariant wedges in End(S) under the Chevalley map, degree by degree.

    On distinguished-basis blades the Chevalley map is coordinatewise, so
    each invariant vector transports to the same combination of the blade
    images gamma~(e_S), each built once, over the blades S its degree's
    basis reaches.
    """
    if inv.space != sp.space:
        raise ValueError("invariants and spinors live over different spaces")
    out: List[np.ndarray] = []
    for d, K in sorted(inv.degree_bases.items()):
        blades = blades_of_degree(sp.space.dim, d)
        cols = np.flatnonzero(K.any(axis=0))
        G = [gamma_tilde(sp, CliffordElement(sp.space, {blades[c]: 1})) for c in cols]
        out += list(np.tensordot(K[:, cols], np.reshape(G, (-1, sp.dim_s, sp.dim_s)), axes=1))
    return out


def commutant(ops: Sequence[np.ndarray], dim: int,
              within: Optional[Sequence[np.ndarray]] = None) -> List[np.ndarray]:
    """Orthonormal basis of the X in span(within), End(S) by default, with [X, op] = 0.

    Each op cuts the running orthonormal basis B, ``within`` if given, to the
    c B with [c B, op] = 0.  An End(S) solve starts from the unit matrices
    E_ab whose weight h_a - h_b the weight cut keeps for every diagonal op h,
    and scatters the first other op's kernel into those cells; only that op
    sees more columns than the running kernel.
    """
    ops = [np.asarray(o) for o in ops]
    cells = None
    if within is None:
        eye = np.eye(dim)
        cells, ops = _weight_cut(ops, (eye[:, None] - eye[None]).reshape(dim * dim, dim))
        basis = np.zeros((len(cells), dim * dim), dtype=complex)
        basis[np.arange(len(cells)), cells] = 1
    else:
        basis = np.asarray(within, dtype=complex).reshape(-1, dim * dim)
    for o in ops:
        if not len(basis):
            break
        X = basis.reshape(-1, dim, dim)
        K = nullspace((X @ o - o @ X).reshape(len(basis), dim * dim).T)
        if cells is None:
            basis = K @ basis
        else:
            basis = np.zeros((len(K), dim * dim), dtype=complex)
            basis[:, cells] = K
            cells = None
    return list(basis.reshape(-1, dim, dim))


def generated_algebra(ops: Sequence[np.ndarray], dim: int) -> List[np.ndarray]:
    """Orthonormal basis of the unital algebra generated by ops, by incremental closure.

    The basis B starts as span{I, ops}; the frontier F holds the rows the
    last round added.  A round multiplies F by one generator o at a time, in
    one batched matmul, removes the span(B) component of the products twice
    (classical Gram-Schmidt with reorthogonalization) and appends the rows of
    the residual's SVD above the cutoff, scaled by the largest product norm.
    Every o·b of an older row b already lies in span(B), so a round that
    adds nothing leaves span(B) closed under left multiplication by the ops,
    and it is the algebra.  Each product is formed once and no SVD sees
    more rows than the frontier.
    """
    ops = [np.asarray(o) for o in ops]
    basis = orthonormal_rows([np.eye(dim, dtype=complex)] + ops)
    frontier = basis
    # more rows than dim End(S) can only be a basis that lost its orthonormality
    while len(frontier) and len(basis) <= dim * dim:
        start = len(basis)
        for o in ops:
            prods = (o @ frontier.reshape(-1, dim, dim)).reshape(len(frontier), -1)
            scale = np.linalg.norm(prods, axis=1).max()
            resid = prods
            for _ in range(2):
                resid = resid - (resid @ basis.conj().T) @ basis
            _, s, vh = np.linalg.svd(resid, full_matrices=False)
            basis = np.concatenate([basis, vh[:_rank(s, scale)]])
        frontier = basis[start:]
    drift = np.abs(basis @ basis.conj().T - np.eye(len(basis))).max(initial=0.0)
    if drift > RANK_TOL:
        raise RuntimeError(f"span closure lost orthonormality: |B B^H - I| = {drift:.1e}")
    return list(basis.reshape(-1, dim, dim))


def commuting(pairs: Iterable[Tuple[np.ndarray, np.ndarray]]) -> bool:
    """a b ~ b a for all (a, b): allclose, atol COMMUTATIVITY_TOL * max(1, max|a| max|b|)."""
    return all(np.allclose(a @ b, b @ a, atol=COMMUTATIVITY_TOL
                           * max(1.0, np.abs(a).max() * np.abs(b).max())) for a, b in pairs)


def _seeded_complex(rng: random.Random, n: int) -> np.ndarray:
    # the standard library's generator: numpy.random would add its import to the CLI
    return np.array([complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0)) for _ in range(n)])


def blocks(alg: Sequence[np.ndarray], ops: Sequence[np.ndarray],
           dim: int) -> Tuple[List[Tuple[int, int]], List[np.ndarray]]:
    """Wedderburn block sizes [(n_i, m_i)] of the algebra A = span(alg) that ops
    generate, and an orthonormal basis of its centre.

    A semisimple A splits S as (+) V_i (x) C^{m_i} with n_i = dim V_i, so that
    dim A = sum n_i^2 and dim Comm A = sum m_i^2.  Each step is gated on the
    orthonormal basis {a_j} of k rows, and a failed gate raises RuntimeError:

    0. closure: I and o a_j lie in span{a_j} within RANK_TOL times the largest
       product norm, o one seeded combination of ops;
    1. semisimplicity: the trace form tr(a_j a_l) has rank k (Dickson's criterion);
    2. the centre Z = A cap Comm(ops), solved inside A;
    3. the central idempotents e_i, Lagrange polynomials in a seeded z in Z at
       the eigenvalues of its multiplication on Z, which lie CENTRE_GAP apart
       relative to the largest;
    4. r_i = tr e_i = n_i m_i and n_i^2 = tr(e_i sum_j a_j a_j^H), the trace of
       a -> e_i a on A, round to integers within INTEGER_TOL, n_i^2 is a square,
       n_i divides r_i, sum n_i^2 = k and sum r_i = dim S.
    """
    rng = random.Random(0)
    B = np.asarray(alg, dtype=complex).reshape(-1, dim * dim)
    k = len(B)
    B3 = B.reshape(k, dim, dim)
    eye = np.eye(dim).ravel()
    o = sum((c * np.asarray(op) for c, op in zip(_seeded_complex(rng, len(ops)), ops)),
            np.zeros((dim, dim)))
    prods = np.concatenate([eye[None], (o @ B3).reshape(k, -1)])
    scale = max(1.0, np.linalg.norm(prods, axis=1).max())
    resid = np.linalg.norm(prods - (prods @ B.conj().T) @ B, axis=1).max()
    if resid > _cutoff(scale):
        raise RuntimeError(f"span(alg) is not closed under its generators: "
                           f"residual {resid:.1e} at scale {scale:.1e}")
    trace_form = B @ B3.transpose(0, 2, 1).reshape(k, -1).T
    rank = _rank(np.linalg.svd(trace_form, compute_uv=False))
    if rank < k:
        raise RuntimeError(f"the algebra is not semisimple: its trace form has rank {rank} < {k}")
    centre = commutant(ops, dim, within=B)
    Z = np.asarray(centre).reshape(-1, dim * dim)
    b = len(Z)
    z = (_seeded_complex(rng, b) @ Z).reshape(dim, dim)
    # z z_l = sum_m mult[m, l] z_m
    mult = ((z @ Z.reshape(b, dim, dim)).reshape(b, -1) @ Z.conj().T).T
    lam = np.linalg.eigvals(mult)
    if b > 1:
        gap = min(abs(x - y) for x, y in itertools.combinations(lam, 2)) / np.abs(lam).max()
        if gap < CENTRE_GAP:
            raise RuntimeError(f"central eigenvalues {gap:.1e} apart, below {CENTRE_GAP}")
    # coordinates of e_i on Z, applied to those of I
    unit = Z.conj() @ eye
    idem = np.empty((b, b), dtype=complex)
    for i in range(b):
        x = unit
        for l in range(b):
            if l != i:
                x = (mult @ x - lam[l] * x) / (lam[i] - lam[l])
        idem[i] = x
    gram = np.tensordot(B3, B3.conj(), axes=([0, 2], [0, 2]))
    traces = idem @ (Z @ np.stack([eye, gram.T.ravel()], axis=1))
    whole = np.rint(traces.real)
    off = np.abs(traces - whole).max(initial=0.0)
    r, nsq = whole.astype(int).T
    n = np.rint(np.sqrt(np.maximum(nsq, 0))).astype(int)
    if (off > INTEGER_TOL or (n < 1).any() or (n * n != nsq).any() or (r % n).any()
            or nsq.sum() != k or r.sum() != dim):
        raise RuntimeError(f"no Wedderburn block sizes: tr e_i = {r.tolist()}, "
                           f"n_i^2 = {nsq.tolist()}, rounding residual {off:.1e}")
    return [(int(ni), int(ri // ni)) for ni, ri in zip(n, r)], centre


@dataclass
class HoweReport:
    """The double-commutant record under the report's keys: ``dim_commutant`` is
    dim Comm<G~> and ``dim_algebra`` dim <G~'>; the ``_other`` fields swap G and G'."""

    pair: str
    dim_s: int
    dim_commutant: int
    dim_commutant_other: int
    dim_algebra: int
    dim_algebra_other: int
    equal: bool
    mult_free: bool
    isotypic_count: int

    def to_json(self) -> dict:
        return asdict(self)


def side_operators(spec: DualPairSpec, sp: SpinorSpace, cpx: ComplexifiedPair,
                   side: str) -> List[np.ndarray]:
    """Generating operators of <G~>: dPi of Lie generators plus Pi of lifted reps."""
    lie, _ = cpx.side(side)
    ops = [d_pi(sp, X) for X in lie]
    ops += [pi_rep(sp, lift(rep.map)) for rep in spec.side(side).component_reps]
    return ops


def howe_check(spec: DualPairSpec) -> HoweReport:
    """Double-commutant certificate for the spinorial representation.

    Verifies Comm<G~> = <G~'> in both directions from the block sizes of the
    two algebras and that the joint commutant is commutative, reporting its
    dimension as the isotypic count.  A family whose howe stage is out of scope
    raises UnsupportedFamilyError; an algebra that fails a gate of ``blocks``,
    a non-semisimple one among them, raises RuntimeError.
    """
    spec.refuse_skipped("howe")
    if spec.space.dim > HOWE_DIM_CAP:
        raise DimensionCapError(f"dim E = {spec.space.dim} exceeds duality cap {HOWE_DIM_CAP}")
    cpx = complexify(spec)
    sp = build_spinors(cpx.space_c)
    dim = sp.dim_s
    ops_G, ops_Gp = (side_operators(spec, sp, cpx, side) for side in ("G", "Gp"))
    alg_G = generated_algebra(ops_G, dim)
    alg_Gp = generated_algebra(ops_Gp, dim)
    blocks_G, centre_G = blocks(alg_G, ops_G, dim)
    blocks_Gp, centre_Gp = blocks(alg_Gp, ops_Gp, dim)
    dim_comm_G = sum(m * m for _, m in blocks_G)
    dim_comm_Gp = sum(m * m for _, m in blocks_Gp)
    # <G~'> lies in Comm<G~> iff the generators commute, so equal dimensions suffice
    equal = (dim_comm_G == len(alg_Gp) and dim_comm_Gp == len(alg_G)
             and commuting(itertools.product(ops_G, ops_Gp)))
    if equal:
        # Comm<G~> = <G~'> and Comm<G~'> = <G~>: the joint commutant is their common centre
        if len(centre_G) != len(centre_Gp):
            raise RuntimeError(f"the two centres differ: dimensions {len(centre_G)} "
                               f"and {len(centre_Gp)}")
        joint = centre_Gp
    else:
        joint = commutant(ops_G + ops_Gp, dim)
    return HoweReport(
        pair=f"{spec.G.name} x {spec.Gp.name}",
        dim_s=dim,
        dim_commutant=dim_comm_G,
        dim_commutant_other=dim_comm_Gp,
        dim_algebra=len(alg_Gp),
        dim_algebra_other=len(alg_G),
        equal=equal,
        mult_free=commuting(itertools.combinations(joint, 2)),
        isotypic_count=len(joint),
    )
