"""The space of spinors and the Clifford algebra isomorphism onto End(S).

For a complexified space of even dimension 2n, S is realized on the exterior
algebra of the positive half of a Witt basis: pairing the i-th and (n+i)-th
distinguished generators gives isotropic a_i = (e_i - i e_{n+i})/2 and
a_i^* = (e_i + i e_{n+i})/2, with a_i acting by wedge and a_i^* by
contraction.  The generators then satisfy

    gamma(x) gamma(y) + gamma(y) gamma(x) = 2 b(x, y) Id,

matching the algebra-wide convention that generators square to their norm,
and the blade-extension gamma~ is an algebra isomorphism onto End(S).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from .clifford import (CliffordElement, QuadraticSpace, _mask_indices, complexify_element,
                       from_vector, grade, reorder_sign)
from .groups import is_b_antisymmetric
from .pin import PinElement

MAX_HALF_DIM = 8


@dataclass(frozen=True)
class SpinorSpace:
    """Gamma operators of Cliff(E_C) on the 2^n-dimensional spinor module."""

    space: QuadraticSpace          # the complexified quadratic space, dim 2n
    gammas: List[np.ndarray]       # gamma(e_k), one per distinguished generator

    @property
    def half_dim(self) -> int:
        return self.space.dim // 2

    @property
    def dim_s(self) -> int:
        return 1 << self.half_dim


def build_spinors(space_c: QuadraticSpace) -> SpinorSpace:
    """Fock-model spinor space for an even-dimensional complex space."""
    if space_c.field_kind != "complex":
        raise ValueError("spinors are built over the complexified space")
    if space_c.dim % 2 != 0:
        raise ValueError("spinor construction requires even dimension")
    n = space_c.dim // 2
    if n > MAX_HALF_DIM:
        raise ValueError(f"half-dimension {n} exceeds the dense-operator cap {MAX_HALF_DIM}")
    dim = 1 << n
    create = []
    for j in range(n):
        Cj = np.zeros((dim, dim), dtype=complex)
        for T in range(dim):
            if not (T >> j) & 1:
                Cj[T | (1 << j), T] = reorder_sign(1 << j, T)
        create.append(Cj)
    # contraction by a_j^* is the transpose of the wedge by a_j
    gammas = [C + C.T for C in create]
    gammas += [1j * (C - C.T) for C in create]
    return SpinorSpace(space_c, gammas)


def gamma_tilde(sp: SpinorSpace, x: CliffordElement) -> np.ndarray:
    """Extend the gammas over blades; an algebra isomorphism Cliff(E_C) -> End(S)."""
    if x.space != sp.space:
        raise ValueError("element lives over a different complexified space")
    dim = sp.dim_s
    out = np.zeros((dim, dim), dtype=complex)
    for m, c in x.terms.items():
        op = None
        for j in _mask_indices(m):
            op = sp.gammas[j] if op is None else op @ sp.gammas[j]
        out += c * (np.eye(dim) if op is None else op)
    return out


def pi_rep(sp: SpinorSpace, x: PinElement) -> np.ndarray:
    """The spinorial representation on a Pin element.

    Real-space elements are included into the complexified Clifford algebra
    first; the restriction stays irreducible.
    """
    val = x.value if x.space.field_kind == "complex" else complexify_element(x.value)
    return gamma_tilde(sp, val)


def lie_to_clifford(X: np.ndarray, space: QuadraticSpace) -> CliffordElement:
    """Degree-2 Clifford realization Q(X) with [Q(X), v] = Xv for vectors v.

    Q(X) = (1/4) sum_k norms[k] (X e_k) e_k; requires X antisymmetric for the
    form.  Linear in X and a Lie-algebra map for commutators.
    """
    M = np.asarray(X, dtype=complex)
    if not is_b_antisymmetric(space, M):
        raise ValueError("matrix is not antisymmetric for the quadratic form")
    n = space.dim
    acc = CliffordElement(space, {})
    for k in range(n):
        col = M[:, k]
        if not col.any():
            continue
        term = from_vector(space, col) * from_vector(space, np.eye(n)[k])
        acc = acc + term.scale(0.25 * space.norms[k])
    # the scalar part cancels by antisymmetry; drop roundoff residue
    return CliffordElement(space, {m: c for m, c in acc.terms.items() if grade(m) == 2})


def d_pi(sp: SpinorSpace, X: np.ndarray) -> np.ndarray:
    """dPi(X) = gamma~(Q(X)) for X complexified on ``sp.space``, acting on S.

    Satisfies [dPi(X), gamma(v)] = gamma(Xv).
    """
    return gamma_tilde(sp, lie_to_clifford(X, sp.space))
