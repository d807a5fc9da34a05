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

# Public names by submodule.  A submodule is imported on first access to one
# of its names (PEP 562), so ``import formaldiv`` loads none of them.
_EXPORTS = {
    "coefficients": (
        "DenominatorSet", "LocalizedFraction", "LocalizedRing",
        "ParamPolynomial", "PolynomialRing", "format_coefficient",
        "parse_coefficient",
    ),
    "division": (
        "DivisionResult", "StandardBasis", "canonicalize",
        "complete_to_standard_basis", "hironaka_divide", "is_member",
    ),
    "exponents": (
        "DeltaPartition", "Diagram", "ModExponent", "Ordering", "StandardOrder",
        "SyzygyOrder", "compare_diagrams", "diagram_from_exponents",
    ),
    "families": (
        "ExceptionalCertificates", "SemicontinuityReport", "generic_diagram",
        "grid_points", "oracle_relations", "relation_multiplier_bound", "sample_points",
        "semicontinuity_scan", "specialize", "specialized_relations_check",
    ),
    "io": ("ParamModule",),
    "rationals": ("QQ",),
    "series": ("InitialData", "TruncatedSeries"),
    "syzygies": (
        "RelationPresentation", "SyzygyBasis", "minimal_generating_subset",
        "reduce_relation", "relations_of_generators", "standard_relations", "syzygy_diagram",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
