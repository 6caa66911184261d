"""Sparse Clifford and exterior algebra over a quadratic space.

Basis blades are bitmasks over an orthogonal basis ``e_0 .. e_{n-1}`` with
``e_i e_j + e_j e_i = 2 b(e_i, e_j) = 2 delta_ij norms[i]``, i.e. every
generator squares to its norm (+1 or -1).  Elements are sparse maps from
blade mask to complex-double coefficient.  Sums and products of Gaussian
integers below 2**53 are exact in doubles, so integer-coefficient identities
hold exactly, and ``equals_exact`` compares such elements term for term.

The quadratic convention matters: with generators squaring to the half-norm
the unit-vector membership equations of the Pin group have no solutions over
definite forms, so everything downstream (reflections, lifts, spinor norms)
is normalized to ``e_i^2 = norms[i]``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

MAX_DIM = 62
FLOAT_DROP_TOL = 1e-12
DEFAULT_EQ_TOL = 1e-9


class SpaceMismatchError(ValueError):
    """Operands live over different quadratic spaces."""


# ---------------------------------------------------------------------------
# quadratic spaces
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuadraticSpace:
    """A real or complex orthogonal space with a distinguished orthogonal basis.

    ``norms[i]`` is b(e_i, e_i), always +-1; complex spaces carry the standard
    form (all +1), since every non-degenerate complex symmetric form is
    equivalent to it.
    """

    field_kind: str  # "real" | "complex"
    norms: Tuple[int, ...]
    negative_mask: int = field(init=False, repr=False, compare=False)  # generators of norm -1

    def __post_init__(self):
        if self.field_kind not in ("real", "complex"):
            raise ValueError(f"field_kind must be 'real' or 'complex', got {self.field_kind!r}")
        if not 1 <= len(self.norms) <= MAX_DIM:
            raise ValueError(f"dimension must be in 1..{MAX_DIM}, got {len(self.norms)}")
        if any(n not in (1, -1) for n in self.norms):
            raise ValueError("every basis norm must be +1 or -1")
        if self.field_kind == "complex" and any(n != 1 for n in self.norms):
            raise ValueError("complex spaces carry the standard form: all norms +1")
        object.__setattr__(self, "negative_mask", sum(1 << i for i, n in enumerate(self.norms) if n < 0))

    @property
    def dim(self) -> int:
        return len(self.norms)

    @property
    def signature(self) -> Tuple[int, int]:
        p = sum(1 for n in self.norms if n == 1)
        return p, self.dim - p


def real_space(p: int, q: int = 0) -> QuadraticSpace:
    """Real space of signature (p, q), norms sorted +1 block then -1 block."""
    return QuadraticSpace("real", (1,) * p + (-1,) * q)


def complex_space(n: int) -> QuadraticSpace:
    return QuadraticSpace("complex", (1,) * n)


# ---------------------------------------------------------------------------
# blade arithmetic
# ---------------------------------------------------------------------------

def grade(mask: int) -> int:
    return mask.bit_count()


def _reorder_mask(b: int) -> int:
    """XOR over the set bits j of b of the mask of all bits above j.

    Bit i of the result is the parity of the set bits of b below i, so
    (a & mask).bit_count() has the parity of the transpositions that sort
    the concatenation of a and b.
    """
    mask = 0
    while b:
        low = b & -b
        mask ^= -(low << 1)
        b ^= low
    return mask


def blade_sign_mask(b: int, space: QuadraticSpace) -> int:
    """K(b): the sign of blade a times blade b is (-1)^popcount(a & K(b)).

    Parities of popcounts add under XOR of masks, so the reordering parity
    and the parity of shared negative-norm generators (a & b & negative)
    fold into one mask that depends on b alone.
    """
    return _reorder_mask(b) ^ (b & space.negative_mask)


def reorder_sign(a: int, b: int) -> int:
    """Sign from sorting the concatenation of blades a and b.

    For each set bit of b, count set bits of a strictly above it; the sign is
    (-1) to that total.
    """
    return -1 if (a & _reorder_mask(b)).bit_count() & 1 else 1


def _reorder_masks(b: np.ndarray) -> np.ndarray:
    """_reorder_mask of every mask of the int64 array b, on the bits below MAX_DIM:
    bit i, the parity of the bits of b below i, by a prefix-XOR scan of b << 1."""
    k = np.asarray(b, np.int64) << 1
    for s in (1, 2, 4, 8, 16, 32):
        k ^= k << s
    return k


def reorder_signs(a: np.ndarray, b) -> np.ndarray:
    """reorder_sign(m, n) for the masks m of a and n of b (an int or int64 array),
    broadcast against each other, as an int64 array.

    The masks of a are below 2**MAX_DIM, so a & _reorder_masks(b) is a
    non-negative int64 whose bits np.bitwise_count counts.
    """
    return np.where(np.bitwise_count(np.asarray(a, np.int64) & _reorder_masks(b)) & 1, -1, 1)


def blade_product(a: int, b: int, space: QuadraticSpace) -> Tuple[int, int]:
    """Product of two basis blades: (mask a XOR b, integer coefficient).

    The coefficient is the reordering sign times the norms of the shared
    generators; only the negative ones count, and blade_sign_mask folds both
    signs into one parity.
    """
    return a ^ b, -1 if (a & blade_sign_mask(b, space)).bit_count() & 1 else 1


def _tau_sign(k: int) -> int:
    return -1 if (k * (k - 1) // 2) & 1 else 1


# ---------------------------------------------------------------------------
# sparse multivectors
# ---------------------------------------------------------------------------

class _BladeMap:
    """Shared sparse-term machinery for Clifford and exterior elements."""

    __slots__ = ("space", "terms")

    def __init__(self, space: QuadraticSpace, terms: Dict[int, complex], *, exact=False,
                 _clean=False):
        if exact:
            raise ValueError("coefficients are complex doubles; there is no exact mode")
        self.space = space
        if _clean:
            self.terms = terms
            return
        self.terms = _normalize_terms(terms)
        top = 1 << space.dim
        if any(m >= top or m < 0 for m in self.terms):
            raise ValueError("blade mask out of range for the space")

    # -- ring-independent pieces -------------------------------------------

    def _binary_check(self, other: "_BladeMap"):
        if self.space != other.space:
            raise SpaceMismatchError("elements live over different spaces")

    def coeff(self, mask: int) -> complex:
        return self.terms.get(mask, 0j)

    def parity(self) -> Optional[int]:
        """0 even, 1 odd, None if not parity-homogeneous (or zero)."""
        ps = {grade(m) & 1 for m in self.terms}
        return ps.pop() if len(ps) == 1 else None

    def distance(self, other) -> float:
        self._binary_check(other)
        a, b = self.terms, other.terms
        diffs = (a.get(m, 0j) - b.get(m, 0j) for m in set(a) | set(b))
        return math.sqrt(sum(d.real * d.real + d.imag * d.imag for d in diffs))

    def isclose(self, other, tol: float = DEFAULT_EQ_TOL) -> bool:
        if self.space != other.space:
            return False
        a, b = self.terms, other.terms
        return all(abs(a.get(m, 0j) - b.get(m, 0j)) <= tol for m in set(a) | set(b))

    def equals_exact(self, other) -> bool:
        self._binary_check(other)
        return self.terms == other.terms

    def _new(self, terms, clean=False):
        return type(self)(self.space, terms, _clean=clean)

    def __add__(self, other):
        self._binary_check(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, 0j) + c
        return self._new(out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self._new({m: -c for m, c in self.terms.items()}, clean=True)

    def scale(self, s):
        s = complex(s)
        return self._new({m: c * s for m, c in self.terms.items()})

    def __rmul__(self, s):
        if isinstance(s, _BladeMap):
            return NotImplemented
        return self.scale(s)

    def __repr__(self):
        if not self.terms:
            return f"{type(self).__name__}(0)"
        bits = []
        for m, c in sorted(self.terms.items()):
            label = "1" if m == 0 else "e" + "e".join(str(i) for i in _mask_indices(m))
            bits.append(f"{c}*{label}")
        return f"{type(self).__name__}({' + '.join(bits)})"


def _mask_indices(m: int) -> List[int]:
    """Indices of the set bits of m, ascending."""
    out = []
    while m:
        low = m & -m
        out.append(low.bit_length() - 1)
        m ^= low
    return out


def _normalize_terms(terms: Dict[int, complex]) -> Dict[int, complex]:
    out: Dict[int, complex] = {}
    for m, c in terms.items():
        c = complex(c)
        if abs(c) > FLOAT_DROP_TOL:
            out[int(m)] = c
    return out


def _dropped(out: Dict[int, complex]) -> Dict[int, complex]:
    """Product terms above FLOAT_DROP_TOL; they are complex and in range already."""
    return {m: c for m, c in out.items() if abs(c) > FLOAT_DROP_TOL}


# A product takes the array path from MUL_ARRAY_MIN_PAIRS term pairs on, if
# its 2**dim bins are at most four per term pair and at most
# MUL_ARRAY_MAX_BINS; smaller products are faster in the dict loop.  The
# array path builds its grid in blocks of at most MUL_BLOCK_PAIRS term pairs.
MUL_ARRAY_MIN_PAIRS = 1 << 10
MUL_ARRAY_MAX_BINS = 1 << 16
MUL_BLOCK_PAIRS = 1 << 16


def _mul_arrays(a: Dict[int, complex], b: Dict[int, complex],
                space: QuadraticSpace) -> Dict[int, complex]:
    """The dict loop of CliffordElement.__mul__ as array operations, bit for bit.

    The grid's rows are a's terms and its columns b's, so row-major order is
    the loop's order.  Each coefficient is Python's complex product written
    out in real arithmetic (numpy's complex multiply rounds differently).
    np.add.at adds in index order into bins that start at -0.0, which is an
    exact identity for addition, so every bin is the loop's sum, signed zeros
    included; the keys come out in the order they first appear, the loop's
    insertion order.
    """
    na, nb = len(a), len(b)
    masks_a = np.fromiter(a, np.int64, na)[:, None]
    masks_b = np.fromiter(b, np.int64, nb)
    # blade_sign_mask of every m of b
    signs_b = _reorder_masks(masks_b) ^ (masks_b & space.negative_mask)
    ca = np.fromiter(a.values(), complex, na)[:, None]
    cb = np.fromiter(b.values(), complex, nb)
    sums = np.full(1 << space.dim, complex(-0.0, -0.0))
    first = np.full(1 << space.dim, na * nb)
    rows = max(1, MUL_BLOCK_PAIRS // nb)
    for i in range(0, na, rows):
        ma, xa = masks_a[i:i + rows], ca[i:i + rows]
        at = (ma ^ masks_b).ravel()
        sign = 1.0 - 2.0 * (np.bitwise_count(ma & signs_b) & 1)
        prod = np.empty(sign.shape, complex)
        prod.real = (xa.real * cb.real - xa.imag * cb.imag) * sign
        prod.imag = (xa.real * cb.imag + xa.imag * cb.real) * sign
        np.add.at(sums, at, prod.ravel())
        np.minimum.at(first, at, np.arange(i * nb, i * nb + at.size))
    keys = np.flatnonzero(first < na * nb)
    keys = keys[np.argsort(first[keys])]
    return _dropped(dict(zip(keys.tolist(), sums[keys].tolist())))


class CliffordElement(_BladeMap):
    """Sparse element of Cliff(E, b); `*` is the Clifford product."""

    def __mul__(self, other):
        if not isinstance(other, CliffordElement):
            return self.scale(other)
        self._binary_check(other)
        space = self.space
        pairs = len(self.terms) * len(other.terms)
        if pairs >= MUL_ARRAY_MIN_PAIRS and 1 << space.dim <= min(4 * pairs, MUL_ARRAY_MAX_BINS):
            return self._new(_mul_arrays(self.terms, other.terms, space), clean=True)
        right = [(mb, cb, blade_sign_mask(mb, space)) for mb, cb in other.terms.items()]
        out: Dict[int, complex] = {}
        for ma, ca in self.terms.items():
            for mb, cb, kb in right:
                m = ma ^ mb
                prev = out.get(m)
                contrib = -(ca * cb) if (ma & kb).bit_count() & 1 else ca * cb
                out[m] = contrib if prev is None else prev + contrib
        return self._new(_dropped(out), clean=True)

    def alpha(self) -> "CliffordElement":
        """Grade involution: (-1)^k on grade-k parts."""
        return self._new({m: (c if grade(m) % 2 == 0 else -c) for m, c in self.terms.items()},
                         clean=True)

    def tau(self) -> "CliffordElement":
        """Reversal anti-automorphism: (-1)^{k(k-1)/2} on grade-k parts."""
        return self._new({m: (c if _tau_sign(grade(m)) == 1 else -c)
                          for m, c in self.terms.items()}, clean=True)


class ExteriorElement(_BladeMap):
    """Sparse element of Lambda(E); `^` is the wedge product."""

    def __xor__(self, other) -> "ExteriorElement":
        self._binary_check(other)
        right = [(mb, cb, _reorder_mask(mb)) for mb, cb in other.terms.items()]
        out: Dict[int, complex] = {}
        for ma, ca in self.terms.items():
            for mb, cb, kb in right:
                if ma & mb:
                    continue
                m = ma | mb
                contrib = -(ca * cb) if (ma & kb).bit_count() & 1 else ca * cb
                prev = out.get(m)
                out[m] = contrib if prev is None else prev + contrib
        return self._new(_dropped(out), clean=True)


# -- constructors -----------------------------------------------------------

def scalar_element(space: QuadraticSpace, value=1) -> CliffordElement:
    return CliffordElement(space, {0: value})


def basis_vector(space: QuadraticSpace, i: int) -> CliffordElement:
    return CliffordElement(space, {1 << i: 1})


def blade(space: QuadraticSpace, indices: Iterable[int]) -> CliffordElement:
    mask = 0
    for i in indices:
        mask |= 1 << i
    return CliffordElement(space, {mask: 1})


def _vector_terms(space: QuadraticSpace, coords: Sequence) -> Dict[int, complex]:
    if len(coords) != space.dim:
        raise ValueError(f"{len(coords)} coordinates for a space of dimension {space.dim}")
    return {1 << i: c for i, c in enumerate(np.asarray(coords, dtype=complex).tolist())
            if abs(c) > FLOAT_DROP_TOL}


def from_vector(space: QuadraticSpace, coords: Sequence) -> CliffordElement:
    return CliffordElement(space, _vector_terms(space, coords), _clean=True)


def exterior_vector(space: QuadraticSpace, coords: Sequence) -> ExteriorElement:
    return ExteriorElement(space, _vector_terms(space, coords), _clean=True)


def vector_coords(x: CliffordElement) -> List[complex]:
    """Coordinates of a grade-1 element (zero padding elsewhere)."""
    out = [0j] * x.space.dim
    for m, c in x.terms.items():
        if grade(m) != 1:
            raise ValueError("element is not grade-1")
        out[m.bit_length() - 1] = c
    return out


# ---------------------------------------------------------------------------
# complexification
# ---------------------------------------------------------------------------

def complexify_element(x: CliffordElement) -> CliffordElement:
    """Algebra inclusion Cliff(E, b) -> Cliff(E_C, b_C) on blade coefficients.

    iota(e_k) = c_k e~_k with c_k^2 = norms[k], so a blade picks up i once per
    negative-norm generator in it.
    """
    if x.space.field_kind == "complex":
        return x
    neg = x.space.negative_mask
    return CliffordElement(complex_space(x.space.dim),
                           {m: c * 1j ** (m & neg).bit_count() for m, c in x.terms.items()})


# ---------------------------------------------------------------------------
# Chevalley identification Lambda(E) <-> Cliff(E, b)
# ---------------------------------------------------------------------------

def chevalley_T(w: ExteriorElement) -> CliffordElement:
    """Antisymmetrized product map; the identity on orthogonal-basis blade coordinates.

    On a blade of pairwise-anticommuting generators every permutation term of
    the antisymmetrization equals the ordered product, so the 1/k! average
    collapses and T is coordinatewise.
    """
    return CliffordElement(w.space, dict(w.terms), _clean=True)


def chevalley_T_inv(x: CliffordElement) -> ExteriorElement:
    return ExteriorElement(x.space, dict(x.terms), _clean=True)


def chevalley_T_vectors(vectors: Sequence[CliffordElement]) -> CliffordElement:
    """T(v_1 ^ ... ^ v_k) computed from the definition, for cross-checks.

    Averages the signed products over all permutations; exponential in k, so
    only meant for small k test oracles.
    """
    import itertools

    if not vectors:
        raise ValueError("need at least one vector")
    space = vectors[0].space
    k = len(vectors)
    acc = CliffordElement(space, {})
    for perm in itertools.permutations(range(k)):
        sgn = _perm_sign(perm)
        prod = scalar_element(space, 1)
        for i in perm:
            prod = prod * vectors[i]
        acc = acc + (prod if sgn == 1 else -prod)
    return acc.scale(1.0 / math.factorial(k))


def _perm_sign(perm: Sequence[int]) -> int:
    inv = sum(1 for i in range(len(perm)) for j in range(i + 1, len(perm)) if perm[i] > perm[j])
    return -1 if inv & 1 else 1


def exterior_blade_images(matrix, space: QuadraticSpace) -> Callable[[int], ExteriorElement]:
    """Map a blade mask to its image g(e_j1) ^ ... ^ g(e_jk); matrix is dense over the
    distinguished basis, and its columns are built once for all blades."""
    n = space.dim
    matrix = np.asarray(matrix)
    if matrix.shape != (n, n):
        raise ValueError(f"a {matrix.shape} matrix does not act on a space of dimension {n}")
    cols = [exterior_vector(space, matrix[:, c]) for c in range(n)]

    def image(m: int) -> ExteriorElement:
        piece = ExteriorElement(space, {0: 1.0})
        for j in _mask_indices(m):
            piece = piece ^ cols[j]
        return piece
    return image


def exterior_apply_map(matrix, w: ExteriorElement) -> ExteriorElement:
    """Factorwise action of a linear map on an exterior element.

    g . (v_1 ^ ... ^ v_k) = g(v_1) ^ ... ^ g(v_k), extended linearly over the
    sparse blade terms; matrix is dense over the distinguished basis.
    """
    image = exterior_blade_images(matrix, w.space)
    out = ExteriorElement(w.space, {})
    for m, c in w.terms.items():
        out = out + image(m).scale(c)
    return out
