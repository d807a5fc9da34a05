"""Spans and call counts around formaldiv's layers, added from outside.

The package is never edited: `instrument` rebinds the public functions and
methods of each formaldiv module to wrappers for the duration of a `with`
block and restores the originals afterwards.  A module-level function is
rebound in every formaldiv module that imported it, so calls through
`from .division import hironaka_divide` are seen too.

Two kinds of wrapper exist.  A span wrapper records (name, start, end,
parent, op id) in a `Tracer`; it is used on everything except the hot leaf
methods listed in HOT, whose per-call cost would swamp the time they
measure.  A count wrapper only counts calls; the counting pass applies it to
every public function and method, HOT included, in a separate replay.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import importlib
import inspect
import json
import time
from array import array

LAYERS = ("cli", "io", "division", "series", "coefficients", "exponents",
          "syzygies", "families", "linalg")

# Hot leaf methods: traced only by the counting pass.
HOT = frozenset({
    "exponents.ModExponent.shift",
    "exponents.ModExponent.divides",
    "exponents.StandardOrder.key",
    "exponents.StandardOrder.compare",
    "exponents.SyzygyOrder.key",
    "exponents.SyzygyOrder.compare",
    "exponents.DeltaPartition.cell_of",
    "exponents.DeltaPartition.in_remainder",
    "exponents.DeltaPartition.box_contains",
    "exponents.Diagram.contains",
    "exponents.add_alpha",
    "exponents.sub_alpha",
    "exponents.clipped_sub",
    "exponents.degree",
    "series.TruncatedSeries.coefficient",
    "series.TruncatedSeries.component",
    "series.TruncatedSeries.initial",
    "series.InitialData.monomial",
    "coefficients.ParamPolynomial.leading",
    "coefficients.ParamPolynomial.scale",
    "coefficients.ParamPolynomial.evaluate",
    "coefficients.ParamPolynomial.exact_div",
    "coefficients.ParamPolynomial.constant",
    "coefficients.ParamPolynomial.constant_value",
    "coefficients.LocalizedFraction.evaluate",
    "coefficients.LocalizedFraction.denominator_poly",
    "coefficients.DenominatorSet.power_product",
    "coefficients.format_coefficient",
    "coefficients.RationalField.divide_by_unit",
    "coefficients.PolynomialRing.divide_by_unit",
} | {
    f"coefficients.{ring}.{method}"
    for ring in ("RationalField", "PolynomialRing", "LocalizedRing")
    for method in ("add", "sub", "mul", "neg", "is_zero", "eq", "from_int",
                   "from_fraction", "from_poly", "evaluate")
})

# Operators counted by the counting pass although they are not public names.
COUNTED_DUNDERS = frozenset({"coefficients.ParamPolynomial.__mul__"})


def _modules():
    return {name: importlib.import_module(f"formaldiv.{name}") for name in LAYERS}


def _targets(modules):
    """(owner, attribute, span name, raw function, rewrap) for every public
    function and method defined in the layer modules."""
    out = []
    for layer, mod in modules.items():
        for attr, value in vars(mod).items():
            if attr.startswith("_"):
                continue
            if inspect.isfunction(value) and value.__module__ == mod.__name__:
                out.append((mod, attr, f"{layer}.{attr}", value, None))
            elif inspect.isclass(value) and value.__module__ == mod.__name__:
                for mname, member in vars(value).items():
                    name = f"{layer}.{value.__name__}.{mname}"
                    if mname.startswith("_") and name not in COUNTED_DUNDERS:
                        continue
                    if isinstance(member, (classmethod, staticmethod)):
                        out.append((value, mname, name, member.__func__, type(member)))
                    elif inspect.isfunction(member):
                        out.append((value, mname, name, member, None))
    return out


@contextlib.contextmanager
def instrument(make_wrapper, include):
    """Rebind every target whose span name passes `include` to
    make_wrapper(name, function) until the block exits."""
    modules = _modules()
    restore = []
    try:
        for owner, attr, name, fn, rewrap in _targets(modules):
            if not include(name):
                continue
            wrapped = make_wrapper(name, fn)
            if rewrap is not None:
                restore.append((owner, attr, vars(owner)[attr]))
                setattr(owner, attr, rewrap(wrapped))
                continue
            restore.append((owner, attr, fn))
            setattr(owner, attr, wrapped)
            if owner in modules.values():
                # rebind the name wherever another module imported it
                for other in modules.values():
                    if other is not owner and vars(other).get(attr) is fn:
                        restore.append((other, attr, fn))
                        setattr(other, attr, wrapped)
        yield
    finally:
        for owner, attr, original in reversed(restore):
            setattr(owner, attr, original)


class Tracer:
    """Spans kept in memory as parallel arrays, one entry per call."""

    def __init__(self):
        self.names: list[str] = []
        self.name_id: dict[str, int] = {}
        self.name_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.facts: dict[int, object] = {}
        self.stack = [-1]
        self.op_id = -1

    def wrapper(self, name, fn):
        nid = self.name_id.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        fact = FACTS.get(name)
        clock = time.perf_counter
        stack, start, end = self.stack, self.start, self.end

        @functools.wraps(fn)
        def span(*args, **kwargs):
            idx = len(start)
            self.name_of.append(nid)
            self.parent.append(stack[-1])
            self.op.append(self.op_id)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if fact is not None:
                self.facts[idx] = fact(args, result)
            return result

        return span

    def __len__(self):
        return len(self.start)

    def self_times(self):
        """Each span's duration minus the part of it its children cover."""
        covered = [[] for _ in range(len(self))]
        for i, p in enumerate(self.parent):
            if p >= 0:
                covered[p].append((self.start[i], self.end[i]))
        out = []
        for i in range(len(self)):
            busy, reach = 0.0, self.start[i]
            for a, b in sorted(covered[i]):
                a = max(a, reach)
                if b > a:
                    busy += b - a
                    reach = b
            out.append(self.end[i] - self.start[i] - busy)
        return out

    def write(self, path):
        """All spans as gzip'd JSON lines: a header, then one array per span
        [name, start, end, parent index, op id]."""
        with gzip.open(path, "wt") as fh:
            fh.write(json.dumps({"fields": ["name", "start", "end", "parent", "op"],
                                 "spans": len(self)}) + "\n")
            for i in range(len(self)):
                fh.write(json.dumps([self.names[self.name_of[i]], self.start[i],
                                     self.end[i], self.parent[i], self.op[i]]) + "\n")


# Facts recorded from a span's arguments and result, for the ratios and
# point counts the per-layer metrics need.
FACTS = {
    "division.hironaka_divide": lambda args, res: not res.remainder.is_zero,
    "coefficients.DenominatorSet.register": lambda args, res: res is not None,
    "io.emit_result": lambda args, res: len(res),
    "families.semicontinuity_scan": lambda args, res: (
        len(args[1]) + len(args[2] or ()) if len(args) > 2 else len(args[1]),
        sum(r.status == "ok" for r in res.records),
        sum(r.status == "skipped" for r in res.records)),
    "families.specialized_relations_check": lambda args, res: (
        len(args[1]),
        sum(r.status == "ok" for r in res.records),
        sum(r.status == "skipped" for r in res.records)),
}


class Counter:
    """Call counts only; the counting pass's wrapper."""

    def __init__(self):
        self.counts: dict[str, int] = {}

    def wrapper(self, name, fn):
        counts = self.counts
        counts.setdefault(name, 0)

        @functools.wraps(fn)
        def count(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return count


def layer_metrics(tr: Tracer, counts: dict[str, int]) -> dict[str, float]:
    """The per-layer metrics of one traced replay and one counting pass."""
    selfs = tr.self_times()
    names = [tr.names[k] for k in tr.name_of]
    dur = [b - a for a, b in zip(tr.start, tr.end)]

    def parent_name(i):
        p = tr.parent[i]
        return names[p] if p >= 0 else None

    def spans(name):
        return [i for i, nm in enumerate(names) if nm == name]

    def total(idx, of):
        return sum(of[i] for i in idx)

    divide = spans("division.hironaka_divide")
    complete = spans("division.complete_to_standard_basis")
    minimal = spans("division.minimal_generating_subset")
    mul = spans("series.TruncatedSeries.mul_series")
    rel = spans("syzygies.relations_of_generators")
    locdiv = spans("coefficients.LocalizedRing.divide_by_unit")
    factor = spans("coefficients.DenominatorSet.factor_as_unit")
    register = spans("coefficients.DenominatorSet.register")
    generic = spans("families.generic_diagram")
    scans = spans("families.semicontinuity_scan")
    checks = spans("families.specialized_relations_check")
    linalg = [i for i, nm in enumerate(names) if nm.startswith("linalg.")]
    # outermost io function calls: reading inputs, or writing the result
    io_top = [i for i, nm in enumerate(names)
              if nm.startswith("io.") and nm.count(".") == 1
              and not (parent_name(i) or "").startswith("io.")]
    parse = [i for i in io_top if names[i][3:].startswith(("parse_", "load_", "hash_"))]
    emit = sorted(set(io_top) - set(parse))

    tried = [i for i in divide if parent_name(i) == "division.complete_to_standard_basis"]
    appended = sum(1 for i in tried if tr.facts.get(i))
    points = {i: tr.facts.get(i, (0, 0, 0)) for i in scans + checks}
    scan_points = sum(points[i][0] for i in scans)
    check_points = sum(points[i][0] for i in checks)
    scan_generic = [i for i in generic if parent_name(i) == "families.semicontinuity_scan"]
    check_rel = [i for i in rel if parent_name(i) == "families.specialized_relations_check"]

    return {
        "division.divide.calls": len(divide),
        "division.divide.self_s": total(divide, selfs),
        "division.complete.calls": len(complete),
        "division.complete.self_s": total(complete, selfs),
        "division.complete.tests_tried": len(tried),
        "division.complete.tests_appended": appended,
        "division.complete.useful_ratio": appended / len(tried) if tried else 0.0,
        "division.complete.provenance_s": total(
            [i for i in mul if parent_name(i) == "division.complete_to_standard_basis"], selfs),
        "division.minimal_subset.calls": len(minimal),
        "division.minimal_subset.s": total(minimal, dur),
        "division.minimal_subset.completions": sum(
            1 for i in complete if parent_name(i) == "division.minimal_generating_subset"),
        "series.mul_series.calls": len(mul),
        "series.mul_series.self_s": total(mul, selfs),
        "syzygies.relations.calls": len(rel),
        "syzygies.relations.self_s": total(rel, selfs),
        "syzygies.relations.mul_series_s": total(
            [i for i in mul if parent_name(i) == "syzygies.relations_of_generators"], selfs),
        "coefficients.localized_divide.calls": len(locdiv),
        "coefficients.localized_divide.self_s": total(locdiv, selfs),
        "coefficients.factor_as_unit.calls": len(factor),
        "coefficients.factor_as_unit.self_s": total(factor, selfs),
        "coefficients.denominators_registered": sum(1 for i in register if tr.facts.get(i)),
        "coefficients.param_mul.calls": counts.get("coefficients.ParamPolynomial.__mul__", 0),
        "exponents.order_key.calls": counts.get("exponents.StandardOrder.key", 0)
        + counts.get("exponents.SyzygyOrder.key", 0),
        "families.generic_s": total(generic, dur),
        "families.scan.point_s": (total(scans, dur) - total(scan_generic, dur)) / scan_points
        if scan_points else 0.0,
        "families.check.point_s": (total(checks, dur) - total(check_rel, dur)) / check_points
        if check_points else 0.0,
        "families.points_ok": sum(p[1] for p in points.values()),
        "families.points_skipped": sum(p[2] for p in points.values()),
        "linalg.calls": len(linalg),
        "linalg.self_s": total(linalg, selfs),
        "io.parse_s": total(parse, dur),
        "io.emit_s": total(emit, dur),
        "io.bytes_out": sum(tr.facts.get(i, 0) for i in spans("io.emit_result")),
    }


def self_time_errors(tr: Tracer, op_walls: list[float]) -> int:
    """Spans that break the accounting: one never closed, a negative self
    time, or an op whose self times do not add up to its measured time."""
    selfs = tr.self_times()
    errors = sum(1 for i in range(len(tr)) if tr.end[i] < tr.start[i] or selfs[i] < -1e-9)
    per_op = [0.0] * len(op_walls)
    for i, s in enumerate(selfs):
        if 0 <= tr.op[i] < len(per_op):
            per_op[tr.op[i]] += s
    for got, wall in zip(per_op, op_walls):
        # the root span sits just inside the op's own timer
        if not 0.0 <= wall - got <= max(0.02 * wall, 1e-3):
            errors += 1
    return errors
