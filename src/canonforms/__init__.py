"""Exact canonical forms, invariant factors, and matrix-pencil invariants.

Everything is exact: rationals are arbitrary-precision fractions, prime
fields are reduced residues, and no floating point appears anywhere.
"""

from .algebra import (
    BinaryForm,
    DomainError,
    FactorTerm,
    GF,
    GFElement,
    HomogeneousPoint,
    Poly,
    QQ,
    RootInterval,
    VerificationError,
    ZZ,
    factor,
    isolate_real_roots,
    poly_gcd,
    rational_roots,
    squarefree_decompose,
    sturm_count,
)
from .canonical import (
    CanonicalResult,
    JordanStructure,
    SplitFieldRequired,
    companion,
    eldiv_to_jordan,
    hypercompanion,
    jordan_block,
    jordan_form,
    jordan_to_eldiv,
    multiplicative_jordan_block,
    primary_form,
    rational_canonical_form,
    similar,
)
from .matrix import (
    Mat,
    PolynomialRing,
    ShapeError,
    SingularMatrixError,
    det,
    k_minors,
    mat_inverse,
    nullspace,
)
from .oscillations import (
    InertiaResult,
    ModeReport,
    OscSystem,
    StabilityVerdicts,
    char_poly,
    classify_stability,
    eigvec_adjugate,
    inertia,
    mode_report,
)
from .pencil import (
    Pencil,
    PencilInvariants,
    SingularPencilError,
    canonical_pencil,
    kronecker_elementary_form,
    pencil_det,
    pencil_divisors,
    pencil_equivalent,
    pencil_regular,
)
from .smith import (
    DivisorData,
    divisor_data,
    elementary_divisors_from_chain,
    gcd_minors_chain,
    smith_form,
)

__version__ = "0.1.0"
