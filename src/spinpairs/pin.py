"""The Pin group as a computational object.

Membership uses the two-valued spinor norm: a parity-homogeneous x with
x tau(x) = +-1 whose twisted conjugation alpha(x) e x^{-1} preserves the
vector space.  The projection pi(x) e = alpha(x) e x^{-1} is then a
surjection onto the isometry group with kernel {+-1} over the reals, and a
unit vector projects to the reflection negating it, which is what the
Cartan-Dieudonne factorization feeds on.

Isometries are lifted by reflection factorization; extension classes of
embedded subgroups are read off by tracking lifts along compact loops and
recording whether the lift closes up (+1) or returns to minus itself (-1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .clifford import (CliffordElement, QuadraticSpace, basis_vector, from_vector, grade,
                       scalar_element, vector_coords)
from .groups import DimensionCapError, DualPairSpec, LoopGenerator, OrthogonalMap, SideSpec

PIN_TOL = 1e-9
COMMUTATOR_TOL = 1e-7
PIVOT_TOL = 1e-8
SKIP_TOL = 1e-10
DEFAULT_PATH_STEPS = 256
MAX_PATH_STEPS = 1 << 14
# about 5 s of Clifford products at 0.3 us a term pair; the expected table needs 69,888 at most
MAX_COMMUTATOR_TERM_PAIRS = 1 << 24


class LiftError(RuntimeError):
    """Reflection factorization or path tracking failed."""


class AmbiguousPathError(LiftError):
    """Consecutive path lifts nearly equidistant from both preimages."""


class NotPinError(ValueError):
    """Element fails a Pin membership condition."""


@dataclass(frozen=True)
class PinElement:
    """A Clifford element certified to lie in the Pin group."""

    value: CliffordElement
    parity: int
    spinor_norm: int

    @property
    def space(self) -> QuadraticSpace:
        return self.value.space

    def inverse_value(self) -> CliffordElement:
        # x tau(x) = nu  =>  x^{-1} = nu tau(x)
        t = self.value.tau()
        return t if self.spinor_norm == 1 else -t

    def inverse(self) -> "PinElement":
        return PinElement(self.inverse_value(), self.parity, self.spinor_norm)

    def __mul__(self, other: "PinElement") -> "PinElement":
        return PinElement(self.value * other.value,
                          (self.parity + other.parity) & 1,
                          self.spinor_norm * other.spinor_norm)

    def __neg__(self) -> "PinElement":
        return PinElement(-self.value, self.parity, self.spinor_norm)


def _scalar_sign(x: CliffordElement, tol: float) -> Optional[int]:
    """+-1 if x is the scalar +-1 to tolerance, else None."""
    s = x.coeff(0)
    if abs(s.imag) > tol:
        return None
    rest = sum(abs(c) ** 2 for m, c in x.terms.items() if m != 0)
    if rest > tol * tol:
        return None
    if abs(s.real - 1) <= tol:
        return 1
    if abs(s.real + 1) <= tol:
        return -1
    return None


def pin_element(value: CliffordElement) -> PinElement:
    """Certify a Clifford element as a Pin member.

    Checks parity homogeneity, the two-valued spinor norm, and that twisted
    conjugation maps every basis vector back into the vector space.
    """
    parity = value.parity()
    if parity is None:
        raise NotPinError("element is not parity-homogeneous")
    nu = _scalar_sign(value * value.tau(), PIN_TOL)
    if nu is None:
        raise NotPinError("x tau(x) is not a +-1 scalar")
    x = PinElement(value, parity, nu)
    xinv = x.inverse_value()
    ax = value.alpha()
    for k in range(value.space.dim):
        img = ax * basis_vector(value.space, k) * xinv
        if any(grade(m) != 1 for m in img.terms):
            raise NotPinError("twisted conjugation does not preserve the vector space")
    return x


def project(x: PinElement) -> OrthogonalMap:
    """The covering map: columns are alpha(x) e_k x^{-1} in basis coordinates."""
    space = x.space
    n = space.dim
    xinv = x.inverse_value()
    ax = x.value.alpha()
    cols = []
    for k in range(n):
        img = ax * basis_vector(space, k) * xinv
        bad = [m for m in img.terms if grade(m) != 1]
        if bad:
            raise NotPinError(f"projection image of e_{k} has non-vector components")
        cols.append(vector_coords(img))
    M = np.array(cols).T
    if space.field_kind == "real":
        if np.abs(M.imag).max() > PIN_TOL:
            raise NotPinError("projection of a real-space element must be real")
        M = M.real
    return OrthogonalMap(space, M)


def lift(g: OrthogonalMap) -> PinElement:
    """One Pin preimage of an isometry via Cartan-Dieudonne factorization.

    Walks the basis in order; at step i reflects g(e_i) onto e_i along
    v = g(e_i) - e_i, falling back to v = g(e_i) + e_i followed by a
    reflection along e_i when the pivot is numerically isotropic (below
    1e-8).  The two preimages of g are +-(returned element).
    """
    space = g.space
    n = space.dim
    norms = np.array(space.norms, dtype=float)
    eye = np.eye(n)
    cur = np.asarray(g.matrix, dtype=complex).copy()
    x = scalar_element(space, 1.0)
    parity = 0
    nu = 1
    for i in range(n):
        e = eye[i]
        w = cur[:, i]
        v = w - e
        if np.abs(v).max() < SKIP_TOL:
            continue
        bvv = v @ (norms * v)
        if abs(bvv) >= PIVOT_TOL:
            refls = [v]
        else:
            v2 = w + e
            if abs(v2 @ (norms * v2)) < PIVOT_TOL:
                raise LiftError(f"isotropic pivot at basis index {i}")
            refls = [v2, e]
        for r in refls:
            br = norms * r
            brr = r @ br
            if space.field_kind == "real":
                rhat = r.real / np.sqrt(abs(brr))
                nu *= 1 if brr.real > 0 else -1
            else:
                rhat = r / np.sqrt(brr + 0j)
            x = x * from_vector(space, rhat)
            parity ^= 1
            # the reflection I - 2 r (B r)^T / b(r, r), applied as a rank-one update
            cur -= np.outer(r, (2.0 / brr) * (br @ cur))
    # numpy's allclose rule at atol 1e-7, entrywise; a NaN fails it
    if not (np.abs(cur - eye) <= 1e-7 + 1e-5 * eye).all():
        raise LiftError("reflection factorization did not terminate at the identity")
    return PinElement(x, parity, nu)


def canonical_sign(x: PinElement) -> PinElement:
    """Deterministic sign of a lift: largest-magnitude coefficient made positive.

    Largest by magnitude with lowest blade mask as tie-break; positive means
    positive real part, falling back to positive imaginary part when the
    real part vanishes.
    """
    best_mask, best_mag = None, -1.0
    for m, c in sorted(x.value.terms.items()):
        mag = abs(c)
        if mag > best_mag + 1e-12:
            best_mask, best_mag = m, mag
    if best_mask is None:
        raise NotPinError("zero element")
    piv = x.value.coeff(best_mask)
    if piv.real < -1e-12 or (abs(piv.real) <= 1e-12 and piv.imag < 0):
        return -x
    return x


def commutator_sign(x: PinElement, y: PinElement) -> int:
    """[x, y] = x y x^{-1} y^{-1}, which must be a central +-1."""
    c = (x * y * x.inverse() * y.inverse()).value
    s = _scalar_sign(c, COMMUTATOR_TOL)
    if s is None:
        raise NotPinError("commutator of Pin lifts is not +-1; not a dual pair candidate")
    return s


def _commutator_term_pairs(x: PinElement, y: PinElement) -> int:
    """Upper bound on the term pairs of x y x^{-1} y^{-1}, multiplied left to right.

    An inverse has as many terms as its element, and a product of
    parity-homogeneous elements lives in one parity, on at most 2^(n-1) blades.
    """
    a, c = len(x.value.terms), len(y.value.terms)
    half = 1 << (x.space.dim - 1)
    t = min(a * c, half)
    return a * c + t * a + min(t * a, half) * c


def commutator_pairing(spec: DualPairSpec) -> List[dict]:
    """Commutator signs of lifted generators across the two sides.

    The pairing factors through component groups, so component
    representatives suffice; a deterministic identity-component probe
    follows them on each side, so the Pin-level commutation is exercised
    rather than vacuous when a side is connected.
    """

    def side_lifts(side: SideSpec) -> List[Tuple[str, PinElement]]:
        out = [(rep.name, lift(rep.map)) for rep in side.component_reps]
        name, g = side.identity_probe()
        out.append((name, lift(g)))
        return out

    lifts_Gp = side_lifts(spec.Gp)
    pairs = [(gx, gy) for gx in side_lifts(spec.G) for gy in lifts_Gp]
    # every pair is bounded before the first product is taken
    for (nx, x), (ny, y) in pairs:
        bound = _commutator_term_pairs(x, y)
        if bound > MAX_COMMUTATOR_TERM_PAIRS:
            raise DimensionCapError(
                f"commutator of {nx} and {ny}: lifts of {len(x.value.terms)} and "
                f"{len(y.value.terms)} terms bound its products by {bound} term pairs, "
                f"above the cap of {MAX_COMMUTATOR_TERM_PAIRS}")
    return [{"pair": [nx, ny], "sign": commutator_sign(x, y)} for (nx, x), (ny, y) in pairs]


def all_commute(records: Sequence[dict]) -> bool:
    return all(r["sign"] == 1 for r in records)


# ---------------------------------------------------------------------------
# path lifting and extension classification
# ---------------------------------------------------------------------------

def _closer_sign(x: CliffordElement, ref: CliffordElement) -> Tuple[CliffordElement, float, float]:
    dplus = x.distance(ref)
    dminus = (-x).distance(ref)
    if dminus < dplus:
        return -x, dminus, dplus
    return x, dplus, dminus


def loop_lift_sign(loop: LoopGenerator, steps: int = DEFAULT_PATH_STEPS,
                   max_steps: int = MAX_PATH_STEPS) -> int:
    """Track the lift of a closed loop; +1 if it closes up, -1 if it flips.

    +1 means the double cover restricted to this loop is disconnected
    (trivial over the loop); -1 means the preimage is a connected double
    cover.  Steps auto-refine when consecutive lifts sit nearly equidistant
    from both preimages.  A single step (or none) cannot see a flip, so
    ``steps`` must be at least 2, and at most ``max_steps``.
    """
    if not 2 <= steps <= max_steps:
        raise ValueError(f"loop {loop.name}: path lifting needs 2 <= steps <= {max_steps}, "
                         f"got {steps}")
    n = steps
    while n <= max_steps:
        try:
            return _loop_attempt(loop, n)
        except AmbiguousPathError:
            n *= 2
    # n has just doubled past max_steps: n // 2 is the finest count tried
    raise LiftError(f"loop {loop.name}: path lifting ambiguous even at {n // 2} steps")


def _loop_attempt(loop: LoopGenerator, n: int) -> int:
    x0 = canonical_sign(lift(loop.at(0.0)))
    prev = x0.value
    for k in range(1, n + 1):
        theta = 2.0 * np.pi * k / n
        xk = lift(loop.at(theta)).value
        chosen, dnear, dfar = _closer_sign(xk, prev)
        if dnear > 0.5 * dfar:
            raise AmbiguousPathError(f"step {k}/{n} of {loop.name}")
        prev = chosen
    dplus = prev.distance(x0.value)
    dminus = (-prev).distance(x0.value)
    if min(dplus, dminus) > 0.5 * max(dplus, dminus):
        raise AmbiguousPathError(f"endpoint of {loop.name}")
    return 1 if dplus < dminus else -1


@dataclass(frozen=True)
class ExtensionClass:
    """Loop signs of a lifted subgroup and the classified label."""

    loop_signs: Dict[str, int]
    label: str
    no_loops: bool = False

    def to_json(self) -> dict:
        return {"loops": dict(sorted(self.loop_signs.items())),
                "label": self.label, "no_loops": self.no_loops}


def _unitary_rank(name: str) -> Optional[int]:
    if name.startswith("U(") and ")" in name:
        try:
            return int(name[2:name.index(")")])
        except ValueError:
            return None
    return None


def label_from_loop_signs(signs: Dict[str, int]) -> str:
    """Classification table: pure function of named loop signs.

    All +1 (or no loops): trivial product cover.  Two unitary-factor loops
    both -1: the unique cover nontrivial over both compact unitary factors.
    A single unitary loop at -1: the square-root-of-determinant cover.
    Anything else is nontrivial but outside the classified patterns.
    """
    if all(s == 1 for s in signs.values()):
        return "Trivial"
    ranks = [_unitary_rank(nm) for nm in signs]
    if len(signs) == 2 and all(r is not None for r in ranks) \
            and all(s == -1 for s in signs.values()):
        p, q = ranks
        return f"Lambda({p},{q})"
    if len(signs) == 1 and ranks[0] is not None and list(signs.values())[0] == -1:
        return "DetHalf"
    return "NontrivialOther"


def classify_extension(spec: DualPairSpec, side: str,
                       steps: int = DEFAULT_PATH_STEPS) -> ExtensionClass:
    """Extension class of one side's lift, by path lifting its compact loops."""
    s = spec.side(side)
    if not s.loops:
        # simply connected maximal compact: nothing to test, cover is split
        return ExtensionClass({}, "Trivial", no_loops=True)
    signs = {loop.name: loop_lift_sign(loop, steps=steps) for loop in s.loops}
    return ExtensionClass(signs, label_from_loop_signs(signs))
