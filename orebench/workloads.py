"""Seeded inputs of the three workloads.

Each workload is a list of queries, built from the seed alone.  A query
is the argv of one orediamond CLI call plus the data the answer checks
need (the derivation and operands in the benchmark's own representation,
and, for the named corpus, the answer recorded for it).  Nothing here
imports orediamond: the program only ever sees the generated text.

Queries come in two roles:

* ``timed`` queries run in every timed pass.  For ``decide-planar`` and
  ``darboux-deep`` they are the named corpus plus one known hard input,
  so every seed times the same work; for ``ore-witness`` they are the
  seeded random operators, whose costs are close to one another.
* ``probe`` queries run once per run, after the timed passes: the seeded
  random derivations of ``decide-planar`` and ``darboux-deep``, and the
  second known hard input of ``darboux-deep``.  Random derivations cost
  anything from milliseconds to a hang, so a few of them in every pass
  would move every timing metric from seed to seed by more than any
  regression bound.
"""

import random
from dataclasses import dataclass, field

import oracle

DECIDE = "decide-planar"
DARBOUX = "darboux-deep"
ORE = "ore-witness"
WORKLOADS = (DECIDE, DARBOUX, ORE)

DECIDE_BOUND = 6
DARBOUX_BOUND = 8

# Per-query deadline in seconds, for every workload.  The slowest timed
# query that passes takes 3-5.5 s on a 2-core machine (the final
# example, darboux bound 8); the known hard inputs run for minutes.
DEADLINE_S = 10.0

# Seconds of --seconds allotted to one timed pass.  A run makes
# max(2, round(seconds / PASS_S)) timed passes, so the number of samples,
# and with it the percentile that query_tail_ms reports, is the same on
# every commit for a given --seconds.  At 20 s this gives 3 passes of
# decide-planar and darboux-deep, so that query_tail_ms is the middle
# sample of one query's three, and 2 of ore-witness, whose queries cost
# about the same as one another.
PASS_S = {DECIDE: 7.0, DARBOUX: 7.0, ORE: 10.0}

# Random derivations run as probes per run.
PROBES = {DECIDE: 2, DARBOUX: 1, ORE: 0}

# name, dx, dy, decide answer at DECIDE_BOUND (status, certified),
# darboux complete_up_to_bound at DARBOUX_BOUND; recorded at the commit
# that introduced this benchmark.
NAMED = (
    ("lotka-volterra", "x - x*y", "x*y - y", ("NotDiamond", True), True),
    ("hamiltonian", "y^2", "x^2", ("NotDiamond", True), True),
    ("x2-y2", "x^2 - y^2", "2*x*y", ("NotDiamond", True), True),
    ("xy2-plus-x", "x*y^2 + x", "y^3 - x^2*y", ("NotDiamond", True), True),
    ("euler-top-d2", "x^2 + y", "x*y - x", ("NotDiamond", True), False),
    ("final-example", "x*y^2 + y^2 - y", "-1*x*y^4 - y^4 + y^3", ("Diamond", False), False),
    ("one-xy2", "1", "x*y^2", ("Diamond", False), True),
    ("shamsuddin", "1", "x*y + 1", ("NotDiamond", True), True),
    ("nilpotent", "1", "x", ("Diamond", True), True),
    ("euler", "x", "y", ("NotDiamond", True), True),
)

# Inputs that ran for minutes when the benchmark was written: name, dx,
# dy, probe.  They stay in the workload so that the defects they expose
# keep showing as failures until a change fixes them.
DECIDE_KNOWN_HARD = (
    ("hang-rational-roots", "5*x^2", "3*y^2 - 5", False),
)
DARBOUX_KNOWN_HARD = (
    ("hang-linear", "5*y + 3", "3*x", False),
    ("hang-bound-8", "3*x^2 + 3*y^2 + 3*y", "5*y^2 + 5*y", True),
)

# Derivations the ore-witness operators act on (a subset of the corpus).
ORE_DERIVATIONS = ("lotka-volterra", "hamiltonian", "euler", "shamsuddin")
ORE_PER_DERIVATION = 2  # ore-mul and witness queries each, per derivation
ORE_THETA_DEGREE = 8
ORE_COEFF_TERMS = 6


@dataclass
class Query:
    label: str
    verb: str
    argv: list
    probe: bool = False
    deriv: tuple = None  # (dx, dy) as oracle polynomials
    bound: int = None
    f: list = None  # Ore operands as lists of oracle polynomials
    g: list = None
    x: dict = None
    expect: dict = field(default_factory=dict)  # recorded answer fields


def _deriv_text(dx, dy):
    return f"dx={dx}; dy={dy}"


def _planar(label, verb, bound, dx, dy, probe=False, expect=None):
    argv = [verb, "--ring", "poly2", "--deriv", _deriv_text(dx, dy), "--bound", str(bound), "--json"]
    deriv = (oracle.parse_poly(dx), oracle.parse_poly(dy))
    return Query(label, verb, argv, probe=probe, deriv=deriv, bound=bound, expect=expect or {})


_MONOMIALS_DEG2 = [(i, s - i) for s in range(3) for i in range(s + 1)]


def _nonzero(rng, lo=-5, hi=5):
    return rng.choice([c for c in range(lo, hi + 1) if c])


def random_component(rng):
    """Degree <= 2, 1-3 terms, integer coefficients in [-5, 5]."""
    poly = {}
    for _ in range(rng.randint(1, 3)):
        oracle.add_term(poly, rng.choice(_MONOMIALS_DEG2), _nonzero(rng))
    return poly


def random_derivation(rng):
    while True:
        dx, dy = random_component(rng), random_component(rng)
        if dx or dy:
            return dx, dy


def _random_coefficient(rng, degree):
    """ORE_COEFF_TERMS terms, two of them of the given total degree, so
    that every seed gives operators of the same shape and about the same
    cost; only the monomials and the coefficients are drawn."""
    top = [(i, degree - i) for i in range(degree + 1)]
    lower = [(i, s - i) for s in range(degree) for i in range(s + 1)]
    monomials = rng.sample(top, 2) + rng.sample(lower, ORE_COEFF_TERMS - 2)
    return {m: oracle.Fraction(_nonzero(rng)) for m in monomials}


def random_operator(rng):
    """theta-coefficients of degree 3 and 4 in turn."""
    return [_random_coefficient(rng, 3 + k % 2) for k in range(ORE_THETA_DEGREE + 1)]


def random_linear_form(rng, deriv, lead):
    """a*x + b*y + c with a, b, c nonzero, meeting the witness hypotheses:
    it divides neither the leading theta-coefficient nor its own image
    under delta."""
    while True:
        a, b, c = (_nonzero(rng) for _ in range(3))
        form = {}
        for m, v in (((1, 0), a), ((0, 1), b), ((0, 0), c)):
            oracle.add_term(form, m, v)
        image = oracle.apply(deriv, form)
        if oracle.divides_linear(form, lead):
            continue
        if image and set(image) == {(0, 0)}:
            return form
        if not oracle.divides_linear(form, image):
            return form


def _decide_queries(seed):
    rng = random.Random(f"{DECIDE}:{seed}")
    out = [
        _planar(f"named:{name}", "decide", DECIDE_BOUND, dx, dy,
                expect={"status": ans[0], "certified": ans[1], "evidence_bound": DECIDE_BOUND})
        for name, dx, dy, ans, _ in NAMED
    ]
    out += [_planar(f"known:{name}", "decide", DECIDE_BOUND, dx, dy, probe) for name, dx, dy, probe in DECIDE_KNOWN_HARD]
    for k in range(PROBES[DECIDE]):
        dx, dy = random_derivation(rng)
        out.append(_planar(f"random:{k}", "decide", DECIDE_BOUND, oracle.render(dx), oracle.render(dy), probe=True))
    return out


def _darboux_queries(seed):
    rng = random.Random(f"{DARBOUX}:{seed}")
    out = [
        _planar(f"named:{name}", "darboux", DARBOUX_BOUND, dx, dy,
                expect={"complete_up_to_bound": complete, "degree_bound": DARBOUX_BOUND})
        for name, dx, dy, _, complete in NAMED
    ]
    out += [_planar(f"known:{name}", "darboux", DARBOUX_BOUND, dx, dy, probe) for name, dx, dy, probe in DARBOUX_KNOWN_HARD]
    for k in range(PROBES[DARBOUX]):
        dx, dy = random_derivation(rng)
        out.append(_planar(f"random:{k}", "darboux", DARBOUX_BOUND, oracle.render(dx), oracle.render(dy), probe=True))
    return out


def _ore_queries(seed):
    rng = random.Random(f"{ORE}:{seed}")
    named = {name: (dx, dy) for name, dx, dy, _, _ in NAMED}
    out = []
    for name in ORE_DERIVATIONS:
        dx, dy = named[name]
        deriv = (oracle.parse_poly(dx), oracle.parse_poly(dy))
        common = ["--ring", "poly2", "--deriv", _deriv_text(dx, dy)]
        for k in range(ORE_PER_DERIVATION):
            f, g = random_operator(rng), random_operator(rng)
            argv = ["ore-mul", *common, "--f", oracle.render_ore(f), "--g", oracle.render_ore(g), "--json"]
            out.append(Query(f"ore-mul:{name}:{k}", "ore-mul", argv, deriv=deriv, f=f, g=g))
        for k in range(ORE_PER_DERIVATION):
            f = random_operator(rng)
            x = random_linear_form(rng, deriv, f[-1])
            argv = ["witness", *common, "--f", oracle.render_ore(f), "--x", oracle.render(x), "--json"]
            out.append(Query(f"witness:{name}:{k}", "witness", argv, deriv=deriv, f=f, x=x))
    return out


_BUILDERS = {DECIDE: _decide_queries, DARBOUX: _darboux_queries, ORE: _ore_queries}


def build(workload, seed):
    """The workload's queries for this seed, timed ones first."""
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    return _BUILDERS[workload](seed)
