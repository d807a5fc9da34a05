"""Parametrized families of series modules.

Generators carry polynomial coefficients in named parameters; evaluating the
parameters at a rational point specializes the family to a plain module over
the rationals.  The staircase diagram computed over the localized parameter
ring is the generic one: at any sample point it can only stay equal or grow
later in the diagram order, and equality is certified by the nonvanishing of
an explicit list of polynomials (the coefficients inverted along the way).
No parameter-space geometry is computed; sampling plus certificates stand in
for the stratification, and the reports say only what was sampled.

The family type, `ParamModule`, is the module record `io` reads, so a
parametric `divide`, `std-basis` or `relations` loads none of this module.
The point sources and JSON results of the family commands live here;
`syzygies` and `linalg` are imported by the functions that run them.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from functools import cmp_to_key
from typing import TYPE_CHECKING, NamedTuple, Optional, Sequence

from . import io
from .division import StandardBasis, complete_to_standard_basis
from .errors import PreconditionError, SchemaError, VanishingDenominatorError
from .exponents import (
    Diagram,
    ModExponent,
    Ordering,
    add_alpha,
    compare_diagrams,
    iter_alphas,
)
from .io import ParamModule
from .rationals import QQ
from .series import TruncatedSeries

if TYPE_CHECKING:
    from .coefficients import ParamPolynomial
    from .syzygies import RelationPresentation


def specialize(pm: ParamModule, point: Sequence[Fraction]) -> list[TruncatedSeries]:
    """Evaluate every generator coefficient at a rational parameter point.

    Points where a declared denominator-seed polynomial vanishes lie outside
    the family's domain and are rejected.
    """
    point = tuple(Fraction(v) for v in point)
    if len(point) != len(pm.param_names):
        raise PreconditionError(
            f"point arity {len(point)} != parameter arity {len(pm.param_names)}"
        )
    for seed in pm.denominator_seed:
        if not seed.evaluate(point):
            raise VanishingDenominatorError(
                f"declared denominator {seed} vanishes at ({', '.join(map(str, point))})"
            )
    return [_at(g, point) for g in pm.generators]


def _at(series: TruncatedSeries, point) -> TruncatedSeries:
    # the series over QQ with every coefficient evaluated at point
    return series.map_coefficients(lambda c: c.evaluate(point), QQ)


class ExceptionalCertificates(NamedTuple):
    """Polynomials whose joint nonvanishing certifies generic behaviour."""

    initial_coefficients: tuple[ParamPolynomial, ...]
    denominator_generators: tuple[ParamPolynomial, ...]
    det_u_constant: Optional[ParamPolynomial] = None

    def all_polys(self) -> tuple[ParamPolynomial, ...]:
        """The nonconstant polynomials, each once, in first-seen order."""
        det = () if self.det_u_constant is None else (self.det_u_constant,)
        polys = (*self.initial_coefficients, *self.denominator_generators, *det)
        return tuple(dict.fromkeys(p for p in polys if not p.is_constant))

    def flags_at(self, point) -> tuple[bool, ...]:
        return tuple(bool(p.evaluate(point)) for p in self.all_polys())


def _certificates(basis: StandardBasis, det_u_constant=None) -> ExceptionalCertificates:
    """The basis initial coefficients and the denominators of its ring."""
    return ExceptionalCertificates(
        initial_coefficients=tuple(
            e.initial(basis.order).coefficient.num for e in basis.elements
        ),
        denominator_generators=tuple(basis.elements[0].ring.dset.generators),
        det_u_constant=det_u_constant,
    )


def generic_diagram(pm: ParamModule) -> tuple[Diagram, ExceptionalCertificates]:
    """Staircase diagram over the localized parameter ring, with the
    polynomials inverted while computing it."""
    basis = complete_to_standard_basis(pm.order, pm.localized()[1])
    return basis.diagram, _certificates(basis)


class PointRecord(NamedTuple):
    point: tuple[Fraction, ...]
    status: str  # "ok" | "skipped"
    reason: Optional[str] = None
    diagram: Optional[Diagram] = None
    comparison: Optional[Ordering] = None
    certificates_nonzero: Optional[tuple[bool, ...]] = None


class RefinementInfo(NamedTuple):
    census: list[tuple[Diagram, int]]
    stable: bool


class SemicontinuityReport(NamedTuple):
    generic: Diagram
    certificates: ExceptionalCertificates
    records: list[PointRecord]
    census: list[tuple[Diagram, int]]
    semicontinuity_ok: bool
    genericity_ok: bool
    refinement: Optional[RefinementInfo] = None


def _census_of(diagrams: list[Diagram]) -> list[tuple[Diagram, int]]:
    counts: dict = {}
    for d in diagrams:
        counts.setdefault(d.census_key(), [d, 0])[1] += 1
    entries = [(d, c) for d, c in counts.values()]
    entries.sort(key=cmp_to_key(lambda a, b: int(compare_diagrams(a[0], b[0]))))
    return entries


def semicontinuity_scan(
    pm: ParamModule,
    points: Sequence[Sequence[Fraction]],
    refine_points: Optional[Sequence[Sequence[Fraction]]] = None,
) -> SemicontinuityReport:
    """Specialize at every point, compare diagrams, and tally the census.

    The generic diagram never compares greater than a specialized one, and
    matches it wherever every certificate is nonzero; either failing is
    surfaced through the report flags, never silently accepted.  The census
    is evidence about the sampled points only.
    """
    generic, certs = generic_diagram(pm)
    found = {}  # each distinct point's diagram, or the VanishingDenominatorError raised

    def diagram_at(raw):
        point = tuple(Fraction(v) for v in raw)
        if point not in found:
            try:
                nonzero = [g for g in specialize(pm, point) if not g.is_zero]
            except VanishingDenominatorError as exc:
                found[point] = exc
            else:
                found[point] = (complete_to_standard_basis(pm.order, nonzero).diagram
                                if nonzero else Diagram(pm.n, pm.p, [], pm.order))
        return point, found[point]

    records = []
    diagrams = []
    semicontinuity_ok = True
    genericity_ok = True
    for raw in points:
        point, na = diagram_at(raw)
        if isinstance(na, VanishingDenominatorError):
            records.append(PointRecord(point, "skipped", reason=str(na)))
            continue
        cmpr = compare_diagrams(generic, na)
        flags = certs.flags_at(point)
        if cmpr == Ordering.GREATER:
            semicontinuity_ok = False
        if all(flags) and na != generic:
            genericity_ok = False
        records.append(PointRecord(point, "ok", diagram=na, comparison=cmpr,
                                   certificates_nonzero=flags))
        diagrams.append(na)

    refinement = None
    if refine_points is not None:
        refined = [d for _, d in map(diagram_at, refine_points) if isinstance(d, Diagram)]
        stable = {d.census_key() for d in refined} == {d.census_key() for d in diagrams}
        refinement = RefinementInfo(census=_census_of(refined), stable=stable)

    return SemicontinuityReport(
        generic=generic,
        certificates=certs,
        records=records,
        census=_census_of(diagrams),
        semicontinuity_ok=semicontinuity_ok,
        genericity_ok=genericity_ok,
        refinement=refinement,
    )


def relation_multiplier_bound(order, generators) -> int:
    """Multiplier degree bound keeping oracle relations honest: trunc minus
    the largest vertex degree of the completed diagram of the generators."""
    nonzero = [g for g in generators if not g.is_zero]
    if not nonzero:
        return generators[0].trunc if generators else 0
    diagram = complete_to_standard_basis(order, nonzero).diagram
    degs = [v.degree for v in diagram.vertices]
    return max(nonzero[0].trunc - max(degs), 0)


def oracle_relations(
    generators: Sequence[TruncatedSeries], bound: int
) -> list[TruncatedSeries]:
    """All relations with multipliers of degree <= bound, found by exact
    linear algebra over the rationals.

    Pass relation_multiplier_bound under the module's order.  Looser bounds
    admit near-relations whose defect hides just past the horizon; they are
    truncation artifacts, not elements of the relation module.
    """
    from .linalg import kernel_basis
    gens = list(generators)
    if not gens:
        return []
    first = gens[0]
    n, trunc, q = first.n, first.trunc, len(gens)
    if first.ring != QQ:
        raise PreconditionError("oracle relations run over rational coefficients")
    betas = list(iter_alphas(n, bound))
    columns = [(g, beta) for g in gens for beta in betas]
    slots = [ModExponent(beta, i + 1) for i in range(q) for beta in betas]
    rows = _multiplier_rows(columns, trunc).values()
    return [
        TruncatedSeries(n, q, trunc, QQ, {slots[j]: c for j, c in vec.items()})
        for vec in kernel_basis(rows, len(columns))
    ]


def _multiplier_rows(columns, trunc):
    """Sparse rows of the map sending column j = (s, beta) to x^beta * s:
    row (alpha, comp) holds, for degree(alpha) <= trunc, the coefficient of
    x^alpha in slot comp of each product.  Rows that stay zero are absent."""
    rows = {}
    for j, (s, beta) in enumerate(columns):
        room = trunc - sum(beta)
        for e, c in s.terms.items():
            if e.degree <= room:
                rows.setdefault((add_alpha(e.alpha, beta), e.comp), {})[j] = c
    return rows


class RelationsPointRecord(NamedTuple):
    point: tuple[Fraction, ...]
    status: str  # "ok" | "skipped"
    reason: Optional[str] = None
    oracle_count: int = 0
    all_spanned: Optional[bool] = None


class RelationsCheckReport(NamedTuple):
    presentation: RelationPresentation
    certificates: ExceptionalCertificates
    records: list[RelationsPointRecord]
    all_passed: bool


def specialized_relations_check(
    pm: ParamModule, points: Sequence[Sequence[Fraction]]
) -> RelationsCheckReport:
    """Verify that the emitted relations specialize to generating sets.

    At every sample point where all certificates are nonzero, each relation
    of the specialized generators found by the linear-algebra oracle must lie
    in the span of the specialized emitted relations (modulo degree > trunc
    and inert coordinates; see _all_spanned).
    """
    from .syzygies import relations_of_generators
    pres = relations_of_generators(pm.order, pm.localized()[1])
    certs = _certificates(pres.basis, pres.det_u_certificate)
    records = []
    all_passed = True
    for raw in points:
        point = tuple(Fraction(v) for v in raw)
        if not all(certs.flags_at(point)):
            records.append(RelationsPointRecord(point, "skipped", reason="certificate vanishes"))
            continue
        # seeds and relation denominators are constants times products of certificates
        gens_a = specialize(pm, point)
        rels_a = [_at(r, point) for r in pres.relations]
        bound = relation_multiplier_bound(pm.order, gens_a)
        oracle = oracle_relations(gens_a, bound)
        spanned = _all_spanned(rels_a, gens_a, oracle)
        if not spanned:
            all_passed = False
        records.append(RelationsPointRecord(point, "ok", oracle_count=len(oracle),
                                            all_spanned=spanned))
    return RelationsCheckReport(pres, certs, records, all_passed)


def _all_spanned(span_rels, gens_a, candidates) -> bool:
    """Whether every candidate is a rational combination of the multiples
    x^beta * r of the span relations, as an identity on the coordinates of
    degree <= trunc that are not inert (syzygies.active_part).

    One row reduction decides it: the multiples are the leading columns and
    the candidates the trailing ones, so a candidate outside the span shows
    as a pivot in a candidate column.
    """
    from .linalg import rref
    from .syzygies import _active_test
    n, trunc = gens_a[0].n, gens_a[0].trunc
    multiples = [(r, beta) for r in span_rels for beta in iter_alphas(n, trunc)]
    rows = _multiplier_rows(multiples + [(h, (0,) * n) for h in candidates], trunc)
    active = _active_test(gens_a, trunc)
    _, pivots = rref(row for (alpha, comp), row in rows.items()
                     if active(sum(alpha), comp))
    return not pivots or pivots[-1] < len(multiples)


# ---------------------------------------------------------------------------
# sample points and point sources
# ---------------------------------------------------------------------------

_NUM_BOUND, _DEN_BOUND = 9, 4


def sample_points(num_params: int, count: int, seed: int) -> list[tuple[Fraction, ...]]:
    """Seeded rational sample points: each coordinate is a / b with a drawn
    uniformly from -9..9 and b from 1..4."""
    rng = random.Random(seed)
    return [
        tuple(Fraction(rng.randint(-_NUM_BOUND, _NUM_BOUND), rng.randint(1, _DEN_BOUND))
              for _ in range(num_params))
        for _ in range(count)
    ]


def grid_points(
    ranges: Sequence[tuple[Fraction, Fraction]], step: Fraction = Fraction(1)
) -> list[tuple[Fraction, ...]]:
    """Cartesian grid over closed intervals with the given step."""
    axes = []
    for lo, hi in ranges:
        lo, hi = Fraction(lo), Fraction(hi)
        if hi < lo:
            raise PreconditionError(f"empty grid range {lo}..{hi}")
        axes.append([lo + k * step for k in range((hi - lo) // step + 1)])
    return [tuple(p) for p in itertools.product(*axes)]


def _parse_point(text: str, arity: int) -> tuple[Fraction, ...]:
    """A point given as comma-separated rationals, as `--at` takes it."""
    parts = text.split(",")
    if len(parts) != arity:
        raise SchemaError(f"--at expects {arity} coordinates, got {len(parts)}")
    return tuple(io._as_fraction(s, "--at") for s in parts)


def _parse_grid(spec: str, param_names) -> list[tuple[int, int]]:
    entries = {}
    for part in spec.split(","):
        name, sep, rng = part.partition(":")
        if not sep:
            raise SchemaError(f"--grid: expected 'name:lo..hi', got {part!r}")
        lo, sep2, hi = rng.partition("..")
        if not sep2:
            raise SchemaError(f"--grid: expected 'lo..hi' in {part!r}")
        name = name.strip()
        if name in entries:
            raise SchemaError(f"--grid: repeated parameter {name!r}")
        try:
            entries[name] = (int(lo), int(hi))
        except ValueError as exc:
            raise SchemaError(f"--grid: {exc}") from None
    missing = [nm for nm in param_names if nm not in entries]
    extra = [nm for nm in entries if nm not in param_names]
    if missing or extra:
        raise SchemaError(
            f"--grid must cover the parameters exactly; missing {missing}, "
            f"unknown {extra}"
        )
    return [entries[nm] for nm in param_names]


def load_points_data(data, arity: int, source) -> list[tuple[Fraction, ...]]:
    io._expect(isinstance(data, dict) and isinstance(data.get("points"), list),
               source, "expected an object with a 'points' list")
    points = []
    for i, raw in enumerate(data["points"]):
        ppath = f"{source}.points[{i}]"
        io._expect(isinstance(raw, list) and len(raw) == arity,
                   ppath, f"expected {arity} coordinates")
        points.append(tuple(io._as_fraction(v, ppath) for v in raw))
    return points


def _point_source(param_names, hashes, points=None, grid=None, seed=None,
                  count=None, refine=False):
    """(points, refinement points or None, source descriptor) from the CLI
    options of these names; the descriptor is echoed in the payload and the
    source's digest goes into hashes.  `refine` needs a grid and `count`
    (default 100) a seed.  An empty point set would pass vacuously, so it is
    a precondition violation."""
    arity = len(param_names)
    if refine and grid is None:
        raise SchemaError("--refine needs --grid")
    if count is not None and seed is None:
        raise SchemaError("--count needs --seed")
    refined = None
    if points is not None:
        hashes["points"], data = io.load_json(points)
        source = {"kind": "file", "path": points}
        sample = load_points_data(data, arity, source=str(points))
    elif grid is not None:
        hashes["points"] = io.hash_bytes(f"grid:{grid}".encode())
        ranges = _parse_grid(grid, param_names)
        sample = grid_points(ranges, step=Fraction(1))
        refined = grid_points(ranges, step=Fraction(1, 2)) if refine else None
        source = {"kind": "grid", "spec": grid, "refined": bool(refine)}
    elif seed is not None:
        count = 100 if count is None else count
        hashes["points"] = io.hash_bytes(f"seed:{seed}:count:{count}".encode())
        source = {"kind": "seed", "seed": seed, "count": count}
        sample = sample_points(arity, count, seed)
    else:
        raise SchemaError("one of --points, --grid, or --seed is required")
    if not sample:
        raise PreconditionError("empty point set")
    return sample, refined, source


# ---------------------------------------------------------------------------
# JSON results
# ---------------------------------------------------------------------------

def point_to_json(point) -> list:
    return [str(Fraction(v)) for v in point]


def certificates_to_json(certs: ExceptionalCertificates) -> dict:
    det = certs.det_u_constant
    return {
        "initial_coefficients": [io.coeff_to_json(p) for p in certs.initial_coefficients],
        "denominator_generators": [io.coeff_to_json(p) for p in certs.denominator_generators],
        "det_u_constant": io.coeff_to_json(det) if det is not None else None,
        "certificate_polynomials": [io.coeff_to_json(p) for p in certs.all_polys()],
    }


def _census_to_json(census) -> list:
    return [{"vertices": io.diagram_to_json(d), "count": c} for d, c in census]


def _records_to_json(records, ok_fields) -> list:
    """Scan or check point records; an "ok" one adds ok_fields(record)."""
    return [
        {
            "point": point_to_json(rec.point),
            "status": rec.status,
            **({"reason": rec.reason} if rec.reason else {}),
            **(ok_fields(rec) if rec.status == "ok" else {}),
        }
        for rec in records
    ]


def semicontinuity_report_to_json(report: SemicontinuityReport) -> dict:
    payload = {
        "generic_vertices": io.diagram_to_json(report.generic),
        "certificates": certificates_to_json(report.certificates),
        "semicontinuity_ok": report.semicontinuity_ok,
        "genericity_ok": report.genericity_ok,
        "points": _records_to_json(report.records, lambda rec: {
            "vertices": io.diagram_to_json(rec.diagram),
            "comparison": rec.comparison.name.lower(),
            "certificates_nonzero": list(rec.certificates_nonzero),
        }),
        "census": _census_to_json(report.census),
        "note": "census reflects the sampled points only",
    }
    if report.refinement is not None:
        payload["refinement"] = {
            "census": _census_to_json(report.refinement.census),
            "stable": report.refinement.stable,
        }
    return payload


def relations_check_report_to_json(report: RelationsCheckReport) -> dict:
    return {
        "m": report.presentation.m,
        "subset": [i + 1 for i in report.presentation.subset],
        "relation_count": len(report.presentation.relations),
        "certificates": certificates_to_json(report.certificates),
        "all_passed": report.all_passed,
        "points": _records_to_json(report.records, lambda rec: {
            "oracle_relations": rec.oracle_count,
            "all_spanned": rec.all_spanned,
        }),
    }


def specialize_payload(pm: ParamModule, at: str, hashes) -> dict:
    """The `specialize` result: the named generators at the point `at`."""
    point = _parse_point(at, len(pm.param_names))
    hashes["point"] = io.hash_bytes(at.encode())
    return {
        "point": point_to_json(point),
        "series": io.named_series_to_json(pm.series_names, specialize(pm, point), pm.order),
    }


def scan_payload(pm: ParamModule, hashes, **source) -> dict:
    """The `semicont-scan` result over the points of _point_source(**source)."""
    points, refine, descriptor = _point_source(pm.param_names, hashes, **source)
    report = semicontinuity_scan(pm, points, refine)
    return {"points_source": descriptor, **semicontinuity_report_to_json(report)}


def relations_check_payload(pm: ParamModule, hashes, **source) -> dict:
    """The `relations-check` result over the points of _point_source(**source)."""
    points, _, descriptor = _point_source(pm.param_names, hashes, **source)
    report = specialized_relations_check(pm, points)
    return {"points_source": descriptor, **relations_check_report_to_json(report)}
