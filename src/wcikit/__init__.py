"""Exact-arithmetic analysis of weighted complete intersections in weighted
projective spaces: weight normalization, singular strata, well-formedness
classification, adjunction numbers, finite-field singularity probes, and a
bounded parameter-space census."""

__version__ = "0.1.0"

from .analysis import (
    FLAG_DEGENERATE_CONTAINMENT,
    FLAG_DIMCA_MISMATCH,
    FLAG_NONINTEGRAL_SURFACE,
    THEOREM_CONSISTENT,
    THEOREM_IMPLIES_NOT_QUASISMOOTH,
    THEOREM_NOT_APPLICABLE_DIM,
    THEOREM_NOT_APPLICABLE_LINEAR_CONE,
    AnalysisReport,
    StratumIntersection,
    WCISpec,
    adjunction_data,
    classify,
    dimca_codim,
    is_linear_cone,
    is_representable,
    is_weakly_well_formed,
    is_well_formed,
    stratum_intersection,
)
from .census import (
    CensusBounds,
    CensusRecord,
    CensusSummary,
    ProbeBudget,
    enumerate_specs,
    run_census,
    write_census,
)
from .oracle import (
    ConePoint,
    QSVerdict,
    WitnessSearchReport,
    determinantal_codim_bound,
    is_singular_witness,
    jacobian_rank,
    matrix_rank,
    quasi_smooth_probe,
    wf_witness_search,
)
from .poly import (
    GF,
    QQ,
    DegreeMismatchError,
    ParseError,
    PolyError,
    PolySystem,
    PrimeField,
    RationalField,
    SparsePoly,
    evaluate,
    generic_poly,
    monomials_of_degree,
    parse_poly,
    partial_derivative,
    restrict,
    to_prime_field,
    weighted_degree,
)
from .weights import (
    NormalizationStep,
    NormalizationTrace,
    Stratum,
    Weights,
    as_weights,
    is_well_formed_space,
    singular_strata,
    well_form,
)

__all__ = [name for name in dir() if not name.startswith("_")]
