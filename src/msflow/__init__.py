"""msflow: combinatorial Morse-Smale flows over GF(2).

Model a flow by its critical elements (rest points, closed orbits) and
integer connection counts; build the associated GF(2) chain complex with two
generators per orbit; detect when the boundary fails to square to zero;
enumerate the ways a closed orbit can be traded for a rest-point pair; and
compare the face posets of the resulting gradient-like systems.
"""

from .ejcomplex import (
    BasisElement,
    ChainComplexGF2,
    D2Error,
    D2Violation,
    DiffCell,
    InvalidSystemError,
    betti,
    build_complex,
    check_d2,
    compare_matrices,
    euler_characteristic,
)
from .flowdata import (
    ConnectionMap,
    CriticalElement,
    FlowSystem,
    ParseError,
    Violation,
    parse,
    serialize,
    validate,
)
from .gf2 import MatrixGF2, kernel_dim, multiply, rank, rref
from .perturb import (
    ChoiceDescriptor,
    ChoiceError,
    ClaimOutcome,
    ClaimsReport,
    PerturbationResult,
    apply_choice,
    enumerate_choices_2d,
    parse_choice,
    resolve_all_detailed,
    verify_franks_claims,
)
from .poset import (
    CensusClass,
    CensusReport,
    IsoVerdict,
    LabeledPoset,
    Profile,
    Verdict,
    cell_equivalence_verdict,
    census,
    face_poset,
    invariant_profile,
    is_isomorphic,
    parse_poset,
)

__version__ = "0.1.0"

__all__ = [
    "MatrixGF2",
    "multiply",
    "rank",
    "rref",
    "kernel_dim",
    "CriticalElement",
    "ConnectionMap",
    "FlowSystem",
    "Violation",
    "ParseError",
    "parse",
    "serialize",
    "validate",
    "BasisElement",
    "ChainComplexGF2",
    "D2Violation",
    "D2Error",
    "DiffCell",
    "InvalidSystemError",
    "build_complex",
    "check_d2",
    "betti",
    "euler_characteristic",
    "compare_matrices",
    "ChoiceDescriptor",
    "ChoiceError",
    "ClaimOutcome",
    "ClaimsReport",
    "PerturbationResult",
    "apply_choice",
    "enumerate_choices_2d",
    "verify_franks_claims",
    "resolve_all_detailed",
    "parse_choice",
    "LabeledPoset",
    "Profile",
    "IsoVerdict",
    "Verdict",
    "CensusClass",
    "CensusReport",
    "face_poset",
    "parse_poset",
    "invariant_profile",
    "is_isomorphic",
    "cell_equivalence_verdict",
    "census",
    "__version__",
]
