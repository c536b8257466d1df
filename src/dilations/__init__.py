"""Machine-verified dilation constructions for combinations of l^p isometries.

The package builds explicit dilation triples (J, U, Q) certifying that
compressed words of block operators reproduce powers and products of
convex combinations of invertible isometries on finite-dimensional l^p
spaces, with the verification carried out in exact rational arithmetic
whenever the inputs are rational.  Alongside the main construction live
the zero-operator augmentation, a truncated shift dilation on l^1, the
classical block-unitary oracle for the Hilbert case, sign-flip
decompositions of contractions, cyclic word-sum identities and exact
LP-certified hull membership.
"""

from .builders import (INFINITE_GUARANTEE, WORD_CAP, BlockDiagonalOperator,
                       ConvexCombination, DilationTriple, FirstBlockMap,
                       ScaledBlockMap, VerificationReport, WordCheck,
                       build_n_dilation, build_simultaneous_n_dilation,
                       check_word, compress_word, compressed_power,
                       compressed_powers, rationalize_family,
                       rationalize_weights, shift_dilation, trivial_dilation,
                       verify_dilation, zero_augment, zero_augment_targets)
from .cyclic import (CyclicPermutation, MultiIndex, Orbit, OrbitPartition,
                     ProductFibreReport, WordSum, act, check_orbit_identity,
                     double_coset_count, enumerate_indices, lhs_word_sum,
                     orbit_partition, rhs_word_sum, weight_of)
from .hull import (CONVEX, SUBCONVEX, MembershipResult, PositiveScanReport,
                   SeparationCertificate, default_generators, hull_membership,
                   permutation_generators, positive_isometry_scan,
                   signed_permutation_generators, snap_matrix,
                   snap_to_rational)
from .isometries import (OrthogonalDecomposition, SignedPermutation,
                         all_permutations, all_signed_permutations,
                         decompose_contraction, is_lp_isometry,
                         rationalize_decomposition, svd)
from .linalg import (EXACT, FLOAT64, ModeError, OperatorMatrix, PNorm,
                     SpaceDescriptor, as_fraction, block_diag, lp_norm,
                     lp_norm_pow_p, operator_residual, sym_eig)
from .schaffer import (CrossValidationReport, UnitaryNDilation, cross_validate,
                       defect_root, schaffer_dilation, spectral_norm)
from .simplex import Phase1Result, solve_equalities

__version__ = "0.1.0"

__all__ = [
    "BlockDiagonalOperator", "CONVEX", "ConvexCombination",
    "CrossValidationReport", "CyclicPermutation", "DilationTriple", "EXACT",
    "FLOAT64", "FirstBlockMap", "INFINITE_GUARANTEE", "MembershipResult",
    "ModeError", "MultiIndex", "OperatorMatrix", "Orbit", "OrbitPartition",
    "OrthogonalDecomposition", "PNorm", "Phase1Result", "PositiveScanReport",
    "ProductFibreReport", "SUBCONVEX", "ScaledBlockMap",
    "SeparationCertificate", "SignedPermutation", "SpaceDescriptor",
    "UnitaryNDilation", "VerificationReport", "WORD_CAP", "WordCheck",
    "WordSum", "act", "all_permutations", "all_signed_permutations",
    "as_fraction", "block_diag", "build_n_dilation",
    "build_simultaneous_n_dilation", "check_orbit_identity", "check_word",
    "compress_word", "compressed_power", "compressed_powers",
    "cross_validate", "decompose_contraction", "default_generators",
    "defect_root", "double_coset_count", "enumerate_indices", "hull_membership",
    "is_lp_isometry", "lhs_word_sum", "lp_norm", "lp_norm_pow_p",
    "operator_residual", "orbit_partition", "permutation_generators",
    "positive_isometry_scan",
    "rationalize_decomposition", "rationalize_family", "rationalize_weights",
    "rhs_word_sum", "schaffer_dilation", "shift_dilation",
    "signed_permutation_generators", "snap_matrix", "snap_to_rational",
    "solve_equalities", "spectral_norm", "svd", "sym_eig",
    "trivial_dilation", "verify_dilation", "weight_of", "zero_augment",
    "zero_augment_targets",
]
