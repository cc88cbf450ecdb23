"""Finite Gabor frames in general linear position.

Construction of windows whose N² time-frequency shifts have every N-element
subset linearly independent, exact certification of that property via
prime-field embeddings of cyclotomic arithmetic, the monomial machinery that
explains why the construction works, and the signal-processing payoff:
erasure-robust encoding and operator identification.
"""

from .backends import (
    COMPLEX_DTYPE,
    CyclotomicContext,
    FloatBackend,
    ResidueBackend,
    SearchBoundExceededError,
    embed_rational_complex,
    embedding_primes,
)
from .codec import (
    AmbiguousOperatorError,
    CoefficientPacket,
    ErasurePattern,
    InsufficientPacketsError,
    RankDeficientError,
    decode,
    encode,
    erase,
    identify_operator,
    random_erasure,
    support_bound_check,
)
from .monomials import (
    BudgetExceededError,
    ColumnProfile,
    CyclicPoly,
    DimensionTooLargeError,
    canonical_partition,
    ci_coefficient,
    ci_monomial,
    enumerate_profiles,
    expand_determinant,
    interval_of_profile,
    lowest_index_monomial,
    moments,
    monomial_of_class,
    normalize_profile,
    normalize_support,
    partition_classes,
    profile_of_support,
    q_polynomial,
    verify_ci_uniqueness,
)
from .operators import (
    Window,
    frame_operator_defect,
    full_support,
    gabor_matrix,
    modulate,
    stft,
    system_matrix,
    tf_shift,
    translate,
)
from .verify import (
    SupportEnumeration,
    VerificationReport,
    fourier_minor_check,
    verify_glp,
    write_witness_csv,
)
from .windows import (
    UnsupportedDimensionError,
    ones_window,
    power_window_generic,
    power_window_root_of_unity,
    power_window_root_of_unity_float,
    random_window,
)

__version__ = "0.1.0"
