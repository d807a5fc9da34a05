"""formaldiv: exact division of truncated formal power series vectors.

The library computes, over exact coefficient rings (rationals, polynomials
in parameters, localized fractions):

* division of a series vector by an ordered list of divisors, with cell
  support certificates (``division.hironaka_divide``);
* staircase diagrams of initial exponents and standard bases
  (``exponents``, ``division.complete_to_standard_basis``);
* generating relations between the divisors (``syzygies``);
* specialization of parametrized families, generic diagrams with
  certificate polynomials, and semicontinuity scans (``families``).

All computations are exact modulo terms of total degree greater than the
declared truncation degree D, which is an analysis horizon chosen by the
caller and echoed in every output.
"""

__version__ = "0.1.0"

from .coefficients import (
    QQ,
    DenominatorSet,
    LocalizedFraction,
    LocalizedRing,
    ParamPolynomial,
    PolynomialRing,
    format_coefficient,
    parse_coefficient,
)
from .division import (
    DivisionResult,
    StandardBasis,
    canonicalize,
    complete_to_standard_basis,
    hironaka_divide,
    is_member,
    minimal_generating_subset,
)
from .exponents import (
    DeltaPartition,
    Diagram,
    ModExponent,
    Ordering,
    PositiveLinearForm,
    StandardOrder,
    SyzygyOrder,
    compare_diagrams,
    diagram_from_exponents,
    syzygy_order_for,
)
from .families import (
    ExceptionalCertificates,
    ParamModule,
    SemicontinuityReport,
    generic_diagram,
    grid_points,
    oracle_relations,
    relation_multiplier_bound,
    sample_points,
    semicontinuity_scan,
    specialize,
    specialized_relations_check,
)
from .series import InitialData, TruncatedSeries
from .syzygies import (
    RelationPresentation,
    SyzygyBasis,
    reduce_relation,
    relations_of_generators,
    standard_relations,
    syzygy_diagram,
)

__all__ = [name for name in dir() if not name.startswith("_")]
