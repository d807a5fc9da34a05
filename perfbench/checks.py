"""Independent output checks for the benchmark workloads.

These checks do not import formaldiv.  Polynomials are plain dicts mapping
a multi-index tuple to a Fraction, and every check reads only the input
files and the CLI's JSON result.  Each checker returns None when the output
is right and a one-line reason when it is not.

`corrupt` makes a deliberately wrong copy of a correct output, one defect
per kind, so the benchmark can confirm that each checker can fail.
"""

from __future__ import annotations

import json
from fractions import Fraction


def read_module(path):
    """(n, D, generators) of a module file with one-component series."""
    with open(path) as fh:
        data = json.load(fh)
    gens = [terms_to_poly(s["terms"]) for s in data["series"]]
    return data["n"], data["D"], gens


def terms_to_poly(terms, component=None):
    """A term list as {alpha: Fraction}, optionally one component only."""
    out = {}
    for t in terms:
        if component is not None and t["component"] != component:
            continue
        a = tuple(t["exponent"])
        out[a] = out.get(a, 0) + Fraction(t["coeff"])
    return {a: c for a, c in out.items() if c}


def add_product(acc, f, g, D, sign=1):
    """acc += sign * f * g, dropping terms of total degree > D."""
    for a, c in f.items():
        da = sum(a)
        for b, d in g.items():
            if da + sum(b) > D:
                continue
            e = tuple(x + y for x, y in zip(a, b))
            acc[e] = acc.get(e, 0) + sign * c * d


def initial_exponent(f):
    """Least exponent under lex(|a|, j, a) for a one-component series."""
    return min(f, key=lambda a: (sum(a), a))


def _divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def check_divide(op, result):
    _, D, gens = read_module(op.module)
    _, _, (dividend,) = read_module(op.dividend)
    payload = result["payload"]
    quotients = [terms_to_poly(q["terms"]) for q in payload["quotients"]]
    remainder = terms_to_poly(payload["remainder"])
    if len(quotients) != len(gens):
        return f"{len(quotients)} quotients for {len(gens)} divisors"
    acc = dict(dividend)
    for q, g in zip(quotients, gens):
        add_product(acc, q, g, D, sign=-1)
    for a, c in remainder.items():
        acc[a] = acc.get(a, 0) - c
    bad = [a for a, c in acc.items() if c and sum(a) <= D]
    if bad:
        return f"dividend - sum Q_i*phi_i - R has {len(bad)} terms of degree <= D"
    inits = [initial_exponent(g) for g in gens]
    for a in remainder:
        for i, e in enumerate(inits):
            if _divides(e, a):
                return f"remainder exponent {a} is divisible by in(phi_{i + 1}) = {e}"
    return None


def relation_defect(rel_terms, gens, D):
    """sum_k r_k * g_k truncated at D, as a dict with zero terms dropped."""
    acc = {}
    for k, g in enumerate(gens):
        add_product(acc, terms_to_poly(rel_terms, component=k + 1), g, D)
    return {a: c for a, c in acc.items() if c}


def check_relations(op, result):
    _, D, gens = read_module(op.module)
    relations = result["payload"]["relations"]
    if not relations:
        return "no relations emitted"
    for i, rel in enumerate(relations):
        if relation_defect(rel, gens, D):
            return f"relation {i + 1} does not annihilate the generators below degree {D}"
    return None


def check_scan(op, result):
    payload = result["payload"]
    for flag in ("semicontinuity_ok", "genericity_ok"):
        if payload.get(flag) is not True:
            return f"{flag} is not true"
    if not any(p["status"] == "ok" for p in payload["points"]):
        return "no point was scanned"
    return None


def check_relations_check(op, result):
    payload = result["payload"]
    if payload.get("all_passed") is not True:
        return "all_passed is not true"
    if not any(p["status"] == "ok" for p in payload["points"]):
        return "no point was checked"
    return None


# Checkers whose failure means the program itself reported a failed
# verification; the others show an output to be wrong.
SELF_REPORTED = frozenset({"scan", "check"})

CHECKERS = {
    "divide": check_divide,
    "relations": check_relations,
    "scan": check_scan,
    "check": check_relations_check,
}


def check(op, output: bytes):
    """None if the CLI output for op is right, else the reason it is not."""
    try:
        result = json.loads(output)
    except ValueError as exc:
        return f"output is not JSON: {exc}"
    try:
        return CHECKERS[op.kind](op, result)
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        return f"output does not have the expected shape: {exc!r}"


def corrupt(op, output: bytes):
    """A copy of a correct output with one defect a checker must catch:
    a flipped quotient coefficient, a dropped relation term, a false flag.
    None when the output has no term whose change would show."""
    result = json.loads(output)
    payload = result["payload"]
    if op.kind == "divide":
        q = next((q for q in payload["quotients"] if q["terms"]), None)
        if q is None:
            return None
        q["terms"][0]["coeff"] = str(Fraction(q["terms"][0]["coeff"]) + 1)
    elif op.kind == "relations":
        _, D, gens = read_module(op.module)
        mindeg = [min(sum(a) for a in g) for g in gens]
        # drop a term that acts below the horizon, so its loss shows
        active = [(rel, t) for rel in payload["relations"] for t in rel
                  if sum(t["exponent"]) + mindeg[t["component"] - 1] <= D]
        if not active:
            return None
        rel, t = active[0]
        rel.remove(t)
    elif op.kind == "scan":
        payload["genericity_ok"] = False
    elif op.kind == "check":
        payload["all_passed"] = False
    return json.dumps(result).encode()
