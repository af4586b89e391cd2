"""Local-unitary equivalence of three-qubit mixed states.

Expands a state in the three-qubit Pauli basis, canonicalizes the coefficient
tensor under local rotations, evaluates a class-complete set of polynomial
invariants, and decides equivalence of two states by comparing fingerprints.
For nongeneric states it also reconstructs the components the generic
invariants leave undetermined.

The package exports exactly the names in its modules' __all__ lists.
"""

from . import (canonical, errors, invariants, pauli, recover, rotations, serialize, states,
               tensor_ops)
from .canonical import *  # noqa: F401,F403
from .errors import *  # noqa: F401,F403
from .invariants import *  # noqa: F401,F403
from .pauli import *  # noqa: F401,F403
from .recover import *  # noqa: F401,F403
from .rotations import *  # noqa: F401,F403
from .serialize import *  # noqa: F401,F403
from .states import *  # noqa: F401,F403
from .tensor_ops import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [name for module in (canonical, errors, invariants, pauli, recover, rotations,
                               serialize, states, tensor_ops)
           for name in module.__all__]
