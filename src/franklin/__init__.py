"""Exact q-series and the extended Franklin involution on distinct-part partitions.

The package expands the product of (1 - q^k) over k > m directly and by
two closed forms (a Gaussian-binomial sum and the fixed-point generating
function), builds the sign-reversing involution on partitions with
distinct parts > m whose fixed points explain the surviving coefficients,
and cross-checks it all: the product against each closed form, the
fixed-point form against enumerated fixed points, the two sides of
Sylvester's Durfee-square identity in (z, q) against each other, each
Durfee class's term against enumerated partitions, and every involution
law partition by partition.
"""

from .involution import (
    AuditReport,
    InvolutionCase,
    InvolutionResult,
    PreconditionViolated,
    SizeStats,
    cancellation_stats,
    enumerate_fixed_points,
    involute,
    orbit_audit,
    sigma,
    tau,
)
from .partitions import (
    DistinctPartition,
    DurfeeCategory,
    DurfeeInfo,
    SignedMonomial,
    base_partition,
    count_distinct_signed,
    durfee,
    enumerate_distinct,
    format_partition,
    parse_partition,
    weight,
)
from .qseries import (
    NonUnitConstantTerm,
    QSeries,
    TruncationMismatch,
    ZQSeries,
    euler_product,
    format_series,
    gauss_binomial,
    max_distinct_parts,
    pochhammer_neg_zq,
    rhs_fixed_points,
    rhs_general,
    sylvester_sides,
)
from .staircase import (
    Cell,
    CellClass,
    EmptyPartition,
    PartTooSmall,
    Staircase,
    classify_cells,
    render_ferrers,
    staircase,
)
from .verify import (
    VerificationReport,
    check_durfee_decomposition,
    check_fixed_point_formula,
    check_general_formula,
    check_involution_laws,
    check_sylvester,
)

__version__ = "0.1.0"

__all__ = [
    "AuditReport",
    "Cell",
    "CellClass",
    "DistinctPartition",
    "DurfeeCategory",
    "DurfeeInfo",
    "EmptyPartition",
    "InvolutionCase",
    "InvolutionResult",
    "NonUnitConstantTerm",
    "PartTooSmall",
    "PreconditionViolated",
    "QSeries",
    "SignedMonomial",
    "SizeStats",
    "Staircase",
    "TruncationMismatch",
    "VerificationReport",
    "ZQSeries",
    "base_partition",
    "cancellation_stats",
    "check_durfee_decomposition",
    "check_fixed_point_formula",
    "check_general_formula",
    "check_involution_laws",
    "check_sylvester",
    "classify_cells",
    "count_distinct_signed",
    "durfee",
    "enumerate_distinct",
    "enumerate_fixed_points",
    "euler_product",
    "format_partition",
    "format_series",
    "gauss_binomial",
    "involute",
    "max_distinct_parts",
    "orbit_audit",
    "parse_partition",
    "pochhammer_neg_zq",
    "render_ferrers",
    "rhs_fixed_points",
    "rhs_general",
    "sigma",
    "staircase",
    "sylvester_sides",
    "tau",
    "weight",
]
