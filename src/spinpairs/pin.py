"""The Pin group as a computational object.

Membership uses the two-valued spinor norm: a parity-homogeneous x with
x tau(x) = +-1 whose twisted conjugation alpha(x) e x^{-1} preserves the
vector space.  The projection pi(x) e = alpha(x) e x^{-1} is then a
surjection onto the isometry group with kernel {+-1} over the reals, and a
unit vector projects to the reflection negating it, which is what the
Cartan-Dieudonne factorization feeds on.

Isometries are lifted by reflection factorization.  Extension classes of
embedded subgroups are read off the compact loops, one lift, then a power:
a loop theta -> exp(theta X) lifts to a one-parameter subgroup of Pin, so
the first step of n is lifted once and raised to the n-th power, and the
end records whether the lift closes up (+1) or returns to minus itself
(-1), a sign each loop's weight parity must confirm.
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
# term pairs of x y and y x together; the expected table needs 512 at most.  The dict
# loop, which runs every product above dim 16, takes 0.7-0.85 us a pair on lifts of
# like size (measured at 2^23 on GL_R(5,6) and GL_R(9,2)), 12-14 s at the cap.  A pair
# costs more when the right factor is the larger lift: on U((1,0),(20,0)) y x took
# 3.1-3.6 us a pair against 0.6 us for x y, which puts the cap near 35 s
MAX_COMMUTATOR_TERM_PAIRS = 1 << 24


class LiftError(RuntimeError):
    """Reflection factorization or path tracking failed."""


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

    Checks parity homogeneity, the two-valued spinor norm, and, through
    ``project``, that twisted conjugation maps every basis vector back into
    the vector space.
    """
    parity = value.parity()
    if parity is None:
        raise NotPinError("element is not parity-homogeneous")
    nu = _scalar_sign(value * value.tau(), PIN_TOL)
    if nu is None:
        raise NotPinError("x tau(x) is not a +-1 scalar")
    x = PinElement(value, parity, nu)
    project(x)
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


def commutator_sign(x: PinElement, y: PinElement) -> int:
    """The central sign s of [x, y] = x y x^{-1} y^{-1}, read off as x y = s y x."""
    xy, yx = x.value * y.value, y.value * x.value
    tol = COMMUTATOR_TOL * max(1.0, np.linalg.norm(list(xy.terms.values())))
    for s in (1, -1):
        if xy.distance(yx if s == 1 else -yx) <= tol:
            return s
    raise NotPinError("commutator of Pin lifts is not +-1; not a dual pair candidate")


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
        a, c = len(x.value.terms), len(y.value.terms)
        if 2 * a * c > MAX_COMMUTATOR_TERM_PAIRS:
            raise DimensionCapError(
                f"commutator of {nx} and {ny}: lifts of {a} and {c} terms make x y and y x "
                f"take {2 * a * c} term pairs, above the cap of {MAX_COMMUTATOR_TERM_PAIRS}")
    return [{"pair": [nx, ny], "sign": commutator_sign(x, y)} for (nx, x), (ny, y) in pairs]


def all_commute(records: Sequence[dict]) -> bool:
    return all(r["sign"] == 1 for r in records)


# ---------------------------------------------------------------------------
# path lifting and extension classification
# ---------------------------------------------------------------------------

def loop_lift_sign(loop: LoopGenerator, steps: int = DEFAULT_PATH_STEPS) -> int:
    """One lift, then a power: +1 if a closed loop's lift closes up, -1 if it flips.

    +1 means the double cover restricted to this loop is disconnected
    (trivial over the loop); -1 means the preimage is a connected double
    cover.  The loop theta -> exp(theta X) lifts to a one-parameter subgroup,
    so with x the preimage of the first step ``at(2 pi / n)`` nearer to +1,
    the lift at step k is x^k and the path ends at x^n, which must be a
    central +-1.  n starts at ``steps`` (at least 2, since one step cannot
    see a flip, and at most ``MAX_PATH_STEPS``) and doubles while both preimages
    of the first step sit nearly equidistant from +1.
    """
    if not 2 <= steps <= MAX_PATH_STEPS:
        raise ValueError(f"loop {loop.name}: path lifting needs 2 <= steps <= {MAX_PATH_STEPS}, "
                         f"got {steps}")
    one = scalar_element(loop.space, 1.0)
    n = steps
    while True:
        x = lift(loop.at(2.0 * np.pi / n)).value
        dplus, dminus = x.distance(one), (-x).distance(one)
        if min(dplus, dminus) <= 0.5 * max(dplus, dminus):
            break
        if 2 * n > MAX_PATH_STEPS:
            raise LiftError(f"loop {loop.name}: path lifting ambiguous even at {n} steps")
        n *= 2
    if dminus < dplus:
        x = -x
    # x^n by repeated squaring
    end, k = one, n
    while k:
        if k & 1:
            end = end * x
        k >>= 1
        if k:
            x = x * x
    sign = _scalar_sign(end, COMMUTATOR_TOL)
    if sign is None:
        raise LiftError(f"loop {loop.name}: the lift of the first of {n} steps, raised "
                        f"to the power {n}, is not +-1; the loop does not close")
    return sign


@dataclass(frozen=True)
class ExtensionClass:
    """Loop signs of a lifted subgroup; the label is a function of them."""

    loop_signs: Dict[str, int]

    @property
    def label(self) -> str:
        return label_from_loop_signs(self.loop_signs)

    def to_json(self) -> dict:
        return {"loops": dict(sorted(self.loop_signs.items())),
                "label": self.label, "no_loops": not self.loop_signs}


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
    """Extension class of one side's lift, by path lifting its compact loops.

    Each loop is lifted once, at its first step, and the lift raised to the
    power of the step count (``loop_lift_sign``).  Each sign is checked
    against the loop's weight parity; a disagreement raises LiftError rather
    than yield a label.  A side without loops gets no signs, which label it
    Trivial.  A family whose cover stage is out of scope raises
    UnsupportedFamilyError.
    """
    spec.refuse_skipped("cover")
    signs = {}
    for loop in spec.side(side).loops:
        sign = loop_lift_sign(loop, steps=steps)
        if sign != loop.weight_parity:
            raise LiftError(f"loop {loop.name}: path lifting gives {sign:+d} but the "
                            f"weight parity is {loop.weight_parity:+d}")
        signs[loop.name] = sign
    return ExtensionClass(signs)
