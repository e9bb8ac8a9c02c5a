"""lomlab: construction, analysis and classification of transitive algebras
of real matrices.

The commutant of a transitive matrix algebra is a division algebra, hence R,
C or H; the type, the minimal rank of a nonzero element, and the density
degree are three faces of the same invariant.  This package computes all of
them, builds the model objects realizing each type (partial complex
structures, quaternion group representations), and decides isomorphism of the
operator-range models attached to dimension sequences.
"""

from .classify import (
    ClassificationReport,
    DensityObstruction,
    classify,
    classify_type,
    density_degree,
    envelope,
)
from .construct import (
    GenericPair,
    GroupRep,
    PCSOperator,
    build_pcs,
    build_quaternion_rep,
    generic_pair_pcs,
    group_mean,
    pcs_commutant_algebra,
    rep_commutant_algebra,
    solve_popolam,
    t_vf,
    twisted_rep,
)
from .division import (
    AlgebraType,
    DivisionStructure,
    Quaternion,
    embed_complex,
    embed_quaternion,
    frobenius_recognize,
    quat_mul,
)
from .engine import (
    MatrixAlgebra,
    TransitivityReport,
    commutant,
    generate_algebra,
    is_transitive,
    lift_idempotent,
    min_rank,
    riesz_projection,
    strict_interpolate,
)
from .errors import LomlabError
from .numeric import (
    DEFAULT_TOL,
    Tolerance,
    nullspace_of,
    rank_of,
    solve_least_squares,
)
from .ranges import (
    INFINITY,
    DimSequence,
    IsoVerdict,
    asymptotic_certificate,
    check_isomorphism,
    power_family,
    range_weights,
)

__version__ = "0.1.0"

__all__ = [
    "AlgebraType",
    "ClassificationReport",
    "DEFAULT_TOL",
    "DensityObstruction",
    "DimSequence",
    "DivisionStructure",
    "GenericPair",
    "GroupRep",
    "INFINITY",
    "IsoVerdict",
    "LomlabError",
    "MatrixAlgebra",
    "PCSOperator",
    "Quaternion",
    "Tolerance",
    "TransitivityReport",
    "asymptotic_certificate",
    "build_pcs",
    "build_quaternion_rep",
    "check_isomorphism",
    "classify",
    "classify_type",
    "commutant",
    "density_degree",
    "embed_complex",
    "embed_quaternion",
    "envelope",
    "frobenius_recognize",
    "generate_algebra",
    "generic_pair_pcs",
    "group_mean",
    "is_transitive",
    "lift_idempotent",
    "min_rank",
    "nullspace_of",
    "pcs_commutant_algebra",
    "power_family",
    "quat_mul",
    "range_weights",
    "rank_of",
    "rep_commutant_algebra",
    "riesz_projection",
    "solve_least_squares",
    "solve_popolam",
    "strict_interpolate",
    "t_vf",
    "twisted_rep",
]
