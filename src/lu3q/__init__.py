"""Local-unitary equivalence of three-qubit mixed states.

Expands a state in the three-qubit Pauli basis, canonicalizes the coefficient
tensor under local rotations, evaluates a class-complete set of polynomial
invariants, and decides equivalence of two states by comparing fingerprints.
For nongeneric states it also reconstructs the components the generic
invariants leave undetermined.
"""

from .canonical import (CanonicalForm, OrbitClass, Tolerances, Verdict,
                        canonicalize, classify, equivalent)
from .errors import (FormatError, InconsistentInvariantsError,
                     NotHermitianError, NotRotationError,
                     NotSpecialUnitaryError, SingularSystemError,
                     TraceNotOneError, WrongClassError)
from .invariants import (Fingerprint, all_invariants, fingerprint_families,
                         first_mismatch, full_fingerprint, generic_fingerprint,
                         q_trilinear, q_trilinear_flat, sign_resolution,
                         single_zero_extras, squared_family)
from .pauli import (BlochTensor, bloch_from_dict, bloch_to_dict, decompose,
                    density_from_dict, density_to_dict, pauli_string,
                    reconstruct, validate_density)
from .recover import (SignGroup, SingleZeroSolution, TwoZeroRecovery,
                      VandermondeSystem, recover_two_zero, solve_single_zero,
                      vandermonde_system)
from .rotations import LocalRotation, act, adjoint, conjugate, haar_su2
from .serialize import bloch_to_json, density_to_json, dumps, load_input, loads_state
from .states import (example_state, ghz_state, min_eigenvalue, product_state,
                     random_mixed, w_state)
from .tensor_ops import flatten, gram, refold, triple, triple_cofactor

__version__ = "0.1.0"

__all__ = [
    "BlochTensor", "CanonicalForm", "Fingerprint", "FormatError",
    "InconsistentInvariantsError", "LocalRotation", "NotHermitianError",
    "NotRotationError", "NotSpecialUnitaryError", "OrbitClass", "SignGroup",
    "SingleZeroSolution", "SingularSystemError", "Tolerances",
    "TraceNotOneError", "TwoZeroRecovery", "VandermondeSystem", "Verdict",
    "WrongClassError", "act", "adjoint", "all_invariants", "bloch_from_dict",
    "bloch_to_dict", "bloch_to_json", "canonicalize", "classify", "conjugate",
    "decompose", "density_from_dict", "density_to_dict", "density_to_json",
    "dumps", "equivalent", "example_state", "fingerprint_families",
    "first_mismatch", "flatten",
    "full_fingerprint", "generic_fingerprint", "ghz_state", "gram",
    "haar_su2", "load_input", "loads_state", "min_eigenvalue",
    "pauli_string", "product_state", "q_trilinear", "q_trilinear_flat",
    "random_mixed", "reconstruct",
    "recover_two_zero", "refold", "sign_resolution", "single_zero_extras",
    "solve_single_zero", "squared_family", "triple",
    "triple_cofactor", "validate_density", "vandermonde_system", "w_state",
]
