"""Seeded inputs for the three benchmark workloads.

Every workload is a list of operations.  An operation is one CLI call: the
argv after ``python -m formaldiv.cli`` plus the input files it reads.  All
files are written into a work directory; the argv names them by absolute
path so the same list can be replayed as subprocesses or in-process.

The inputs depend only on the seed, the slot index and the rung tables,
never on timing, so one seed always yields the same bytes.  A pool may
also hold fixed inputs that every seed shares (see FIXED).
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction


@dataclass
class Op:
    """One CLI call with the facts its output checker needs."""

    key: str                      # distinct input id; repeats share it
    kind: str                     # divide | relations | scan | check
    argv: list[str]
    module: str                   # module file path
    dividend: str | None = None   # dividend file path (divide only)

    @property
    def files(self):
        return [self.module] + ([self.dividend] if self.dividend else [])


# ---------------------------------------------------------------------------
# random series as JSON term lists
#
# Each pool slot draws from two generators.  `shape` does not depend on the
# seed: it fixes the supports (which monomials occur, which coefficients
# carry parameters) and the magnitudes of all coefficients.  `sign` draws
# every coefficient's sign from the seed.  Supports and magnitudes set most
# of an operation's cost (exact rationals grow with the magnitudes they
# divide by), so a slot costs about the same under every seed and runs with
# different seeds stay comparable, while the seed still changes every input
# file.
# ---------------------------------------------------------------------------

def _alphas(n, lo, hi):
    """All multi-indices in N^n with lo <= |alpha| <= hi, in a fixed order."""
    out = []

    def rec(prefix, left):
        if len(prefix) == n - 1:
            out.append(prefix + (left,))
            return
        for k in range(left + 1):
            rec(prefix + (k,), left - k)

    for d in range(lo, hi + 1):
        rec((), d)
    return out


def _low_alpha(rng, n, lo, hi):
    """A multi-index of degree in lo..hi, biased toward low degree."""
    d = max(lo, min(rng.randint(0, hi), rng.randint(0, hi)))
    alpha = [0] * n
    for _ in range(d):
        alpha[rng.randrange(n)] += 1
    return tuple(alpha)


def _low_support(shape, n, lo, hi, count):
    exps = {}
    while len(exps) < count:
        exps.setdefault(_low_alpha(shape, n, lo, hi), None)
    return list(exps)


def _int_coeff(shape, sign, bound=5):
    """A nonzero integer in [-bound, bound]."""
    return shape.randint(1, bound) * sign.choice((1, -1))


def _terms(exps, coeffs):
    return [
        {"component": 1, "exponent": list(a), "coeff": str(c)}
        for a, c in zip(exps, coeffs)
    ]


def w3_series(shape, sign, n, D, count=25):
    """The W3 shape: `count` random terms of degree >= 2, integer
    coefficients in [-5, 5]."""
    exps = _low_support(shape, n, 2, D, count)
    return _terms(exps, [_int_coeff(shape, sign) for _ in exps])


def dense_rational_series(shape, sign, n, D, count=60):
    exps = shape.sample(_alphas(n, 0, D), count)
    return _terms(exps, [Fraction(_int_coeff(shape, sign, 9), shape.randint(1, 7))
                         for _ in exps])


def monomial_tail_series(shape, sign, n, D, m, tail_terms=3):
    """m generators: distinct degree-2 monomial leaders plus integer tails."""
    leaders = shape.sample(_alphas(n, 2, 2), m)
    tail_exps = _alphas(n, 3, D)
    out = []
    for a in leaders:
        tail = shape.sample(tail_exps, tail_terms)
        out.append([{"component": 1, "exponent": list(a), "coeff": "1"}]
                   + _terms(tail, [_int_coeff(shape, sign) for _ in tail]))
    return out


def _affine(shape, sign, params):
    """A nonconstant affine form in the parameters, as an expression."""
    while True:
        a = [shape.randint(0, 2) for _ in params]
        if any(a):
            break
    parts = [f"{k * sign.choice((1, -1))}*{name}" for k, name in zip(a, params) if k]
    parts.append(str(shape.randint(0, 3) * sign.choice((1, -1))))
    return " + ".join(parts).replace("+ -", "- ")


def family_series(shape, sign, n, D, params, count, p_param=0.5):
    """Random terms of degree 1..3; about p_param of them carry an affine
    coefficient in the parameters, the rest an integer."""
    exps = shape.sample(_alphas(n, 1, min(3, D)), count)
    return [
        {"component": 1, "exponent": list(a),
         "coeff": _affine(shape, sign, params) if shape.random() < p_param
         else str(_int_coeff(shape, sign))}
        for a in exps
    ]


def module_json(n, D, series, parameters=()):
    data = {"n": n, "p": 1, "D": D}
    if parameters:
        data["parameters"] = list(parameters)
    data["series"] = [
        {"name": f"Phi{i + 1}", "terms": terms} for i, terms in enumerate(series)
    ]
    return data


# ---------------------------------------------------------------------------
# workloads: one function per workload, building the input of pool slot i
# ---------------------------------------------------------------------------

# Rung tables.  Slot i uses rung i mod len(table), so every rung is
# represented in every run.
DIVIDE_DEGREES = (8, 10, 12)
RELATIONS_W3_D = 4
RELATIONS_MONOMIAL_M = (4, 5, 6)
SCAN_GRID = "s:-2..2,t:-2..2"
CHECK_GRIDS = {1: "t:-3..3", 2: "s:-1..1,t:-1..1"}


def divide_slot(i, shape, sign, put):
    D = DIVIDE_DEGREES[i % len(DIVIDE_DEGREES)]
    mod = module_json(3, D, [w3_series(shape, sign, 3, D) for _ in range(3)])
    div = module_json(3, D, [dense_rational_series(shape, sign, 3, D)])
    m = put(f"divide{i}.module.json", mod)
    d = put(f"divide{i}.dividend.json", div)
    return Op(f"divide{i}", "divide",
              ["divide", "--module", m, "--dividend", d], m, d)


def relations_slot(i, shape, sign, put):
    if i % 2 == 0:
        D = RELATIONS_W3_D
        mod = module_json(3, D, [w3_series(shape, sign, 3, D, count=6)
                                 for _ in range(3)])
    else:
        m = RELATIONS_MONOMIAL_M[(i // 2) % len(RELATIONS_MONOMIAL_M)]
        mod = module_json(4, 4, monomial_tail_series(shape, sign, 4, 4, m))
    path = put(f"relations{i}.module.json", mod)
    return Op(f"relations{i}", "relations",
              ["relations", "--module", path], path)


def families_slot(i, shape, sign, put):
    kind = i % 4
    if kind in (0, 2):
        mod = module_json(3, 6, [family_series(shape, sign, 3, 6, ("s", "t"), 4)
                                 for _ in range(2)], ("s", "t"))
        path = put(f"families{i}.module.json", mod)
        if kind == 0:
            extra = ["--grid", SCAN_GRID]
        else:
            extra = ["--seed", str(sign.randrange(10**6)), "--count", "25"]
        return Op(f"families{i}", "scan",
                  ["semicont-scan", "--module", path] + extra, path)
    params = ("t",) if kind == 1 else ("s", "t")
    mod = module_json(2, 4, [family_series(shape, sign, 2, 4, params, 3)
                             for _ in range(3 if kind == 1 else 2)], params)
    path = put(f"families{i}.module.json", mod)
    return Op(f"families{i}", "check",
              ["relations-check", "--module", path, "--grid", CHECK_GRIDS[len(params)]],
              path)


SLOTS = {
    "divide": divide_slot,
    "relations": relations_slot,
    "families": families_slot,
}


def _fixed_terms(*terms):
    return [{"component": 1, "exponent": list(a), "coeff": c} for a, c in terms]


# A one-parameter family on which relations-check reports all_passed: false
# (all_spanned: false at every certified point), a known defect of the
# program.  Random supports of the families pool hit it too rarely to show
# in every run, so every families pool also holds this input, whatever the
# seed; it counts in `failed` and lowers ops_per_s until the defect is fixed.
KNOWN_DEFECT = module_json(2, 4, [
    _fixed_terms(((2, 0), "-5"), ((0, 1), "2*t + 2"), ((1, 1), "-2")),
    _fixed_terms(((0, 3), "-1"), ((2, 0), "-2"), ((0, 1), "-3")),
    _fixed_terms(((3, 0), "2*t + 2"), ((2, 1), "-1*t - 1"), ((0, 2), "1*t - 2")),
], ("t",))


def known_defect_op(put):
    path = put("families-defect.module.json", KNOWN_DEFECT)
    return Op("families-defect", "check",
              ["relations-check", "--module", path, "--grid", CHECK_GRIDS[1]], path)


# Inputs every pool of a workload holds after its seeded slots.
FIXED = {"families": [known_defect_op]}


def build_pool(workload, seed, workdir, size):
    """The first `size` seeded operations of a workload, then its fixed
    ones."""
    os.makedirs(workdir, exist_ok=True)

    def put(name, data):
        path = os.path.join(workdir, name)
        with open(path, "w") as fh:
            json.dump(data, fh, indent=1)
            fh.write("\n")
        return path

    pool = [
        SLOTS[workload](i, random.Random(f"{workload}:shape:{i}"),
                        random.Random(f"{workload}:{seed}:{i}"), put)
        for i in range(size)
    ]
    return pool + [make(put) for make in FIXED.get(workload, ())]
