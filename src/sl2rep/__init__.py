"""Dimensions and component censuses of SL(2,C) representation varieties
of one-relator product-of-powers groups and their free products."""

from .census import (
    CensusResult,
    ExactBasis,
    QuotientLowerBound,
    consecutive_prime_triples,
    distinguishing_sequence,
    exact_census,
    lower_bound_census,
    prime_triple,
    product_spectrum,
)
from .dimension import (
    CERTIFIED_REDUCIBLE,
    IRREDUCIBLE,
    UNDETERMINED,
    DimResult,
    RecursionStep,
    base_dim,
    dimension_table,
    freeness_test,
    not_two,
    product_power_dim,
    representation_dim,
)
from .families import (
    EligibilityChecks,
    EligibilityError,
    ParafreeProfile,
    family_member,
    meskin_isomorphic,
    parafree_profile,
    tuple_eligibility,
    witness_group,
)
from .matrices import (
    Diagonalizable,
    EigenSplit,
    Jordan,
    Scalar,
    adjugate,
    eigen_split,
    eval_word,
    mat2,
    mat_power,
    matrix_roots,
    random_sl2,
)
from .oracle import (
    ConstraintSystem,
    LocalDimension,
    RankGapError,
    ResidualError,
    Tolerances,
    VerificationReport,
    build_plan,
    complete_point,
    jacobian_fd,
    local_dimension,
    sample_rng,
    verify_central_roots,
    verify_dimension,
)
from .presentations import (
    CyclicFinite,
    FreeGroup,
    FreeProduct,
    GroupSpec,
    ParseError,
    ProductPower,
    deficiency,
    exponent_gcd,
    format_spec,
    generator_count,
    normalized_exponents,
    parse_spec,
    validate_exponents,
)
from .traces import (
    ComponentSpectrum,
    TraceClass,
    admissible_traces,
    central_root_classes,
    central_root_spectrum,
    classify_trace,
)

__version__ = "0.1.0"
