"""Dual pairs in Pin groups, their double covers, and spinorial Howe duality.

The package certifies, at small rank and by direct computation, that lifted
reductive dual pairs of an orthogonal group commute in the Pin cover, which
double cover each lift is, and that the spinorial representation decomposes
multiplicity-freely under the lifted pair.
"""

from .clifford import (CliffordElement, ExteriorElement, QuadraticSpace, blade,
                       blade_product, basis_vector, chevalley_T, chevalley_T_inv,
                       complex_space, complexify_element, from_vector, real_space,
                       scalar_element)
from .groups import (ClassificationError, ComplexifiedPair, DualPairSpec, OrthogonalMap,
                     complexify, realify_quaternionic)
from .families import FAMILIES, build_pair
from .pin import (ExtensionClass, PinElement, classify_extension, commutator_pairing, lift,
                  loop_lift_sign, pin_element, project)
from .spinor import SpinorSpace, build_spinors, d_pi, gamma_tilde, lie_to_clifford, pi_rep
from .howe import (GLModel, HoweReport, OModel, SpModel, commutant, generated_algebra,
                   howe_check, invariants, transfer_invariants, verify_generation)

__version__ = "0.1.0"
