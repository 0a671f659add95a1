"""Darboux polynomial search: pinned pencils, verification invariants,
scaling equivariance, affine coordinate changes, pencil-member
selection, and the independent degree-1 brute-force oracle."""

import copy
import importlib.util
import itertools
import math
import random
from pathlib import Path

import pytest

from orediamond import (
    BiPoly,
    Derivation,
    DomainError,
    Q,
    UniPoly,
    darboux,
    darboux_search,
    decide,
    exact_divide,
    first_integral_search,
    linalg,
    pencil_members_through,
    rational_roots,
    shamsuddin_analyze,
    singular_darboux_audit,
)
from orediamond.darboux import (
    DarbouxCert,
    PencilCert,
    _assemble_report,
    _cascade,
    _cascade_level,
    _composite_of,
    _kernel_echelon,
    _level_matrix,
    _pencil_cofactor,
    _span,
    _stop_degree,
    _top_atoms,
    _top_candidates,
)
from orediamond.derivation import _shamsuddin_shape
from orediamond.multipoly import MPoly
from util import bi, cleared, degree1_darboux_oracle, in_pencil_span, random_bipoly

_spec = importlib.util.spec_from_file_location("cli_diff", Path(__file__).resolve().parent.parent / "tools" / "cli_diff.py")
cli_diff = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(cli_diff)


def pencil_triples(report):
    return {(p.p, p.q, p.cofactor) for p in report.pencils}


class TestSearchExamples:
    def test_euler(self):
        report = darboux_search(Derivation(bi("x"), bi("y")), 1)
        assert (bi("x"), bi("y"), bi("1")) in pencil_triples(report)

    def test_final_example_reduced(self):
        report = darboux_search(Derivation(bi("1"), bi("-1*y^2")), 2)
        assert (bi("y"), bi("x*y - 1"), bi("-1*y")) in pencil_triples(report)

    def test_quadratic_family(self):
        report = darboux_search(Derivation(bi("1"), bi("x*y^2")), 3)
        assert (bi("y"), bi("x^2*y + 2"), bi("x*y")) in pencil_triples(report)

    def test_zero_derivation_rejected(self):
        with pytest.raises(DomainError):
            darboux_search(Derivation(BiPoly.zero(), BiPoly.zero()), 2)

    def test_certs_verify(self):
        # (1, y) gives a certificate, (x, y) a pencil
        for d, bound in ((Derivation(bi("1"), bi("y")), 3), (Derivation(bi("x"), bi("y")), 1)):
            report = darboux_search(d, bound)
            for cert in report.certs:
                assert d.apply(cert.p) == cert.cofactor * cert.p
            for pencil in report.pencils:
                assert d.apply(pencil.p) == pencil.cofactor * pencil.p
                assert d.apply(pencil.q) == pencil.cofactor * pencil.q
                # first-integral identity q*delta(p) - p*delta(q) = 0
                assert (pencil.q * d.apply(pencil.p) - pencil.p * d.apply(pencil.q)).is_zero
            found = report.certs + report.pencils
            assert found
            for f in found:
                assert f.verify(d)
                f.cofactor = f.cofactor + bi("x")  # a tampered cofactor fails
                assert not f.verify(d)

    def test_verify_rejects_tampered_records(self):
        """verify checks both cofactor identities of a pencil, so a wrong
        cofactor or a q off the pencil fails, as a wrong cofactor of a
        certificate does."""
        cert = DarbouxCert(Derivation(bi("1"), bi("y")), bi("y"), bi("1"))
        reduced = Derivation(bi("1"), bi("-1*y^2"))
        pencil = PencilCert(reduced, bi("y"), bi("x*y - 1"), bi("-1*y"))
        assert cert.verify(Derivation(bi("1"), bi("y"))) and pencil.verify(reduced)
        tampered = []
        for field, value in (("cofactor", bi("1/2")), ("cofactor", bi("0"))):
            t = copy.copy(cert)
            setattr(t, field, value)
            tampered.append((t, Derivation(bi("1"), bi("y"))))
        for field, value in (("cofactor", bi("y")), ("q", bi("x*y")), ("q", bi("x*y + x - 1")), ("p", bi("x"))):
            t = copy.copy(pencil)
            setattr(t, field, value)
            tampered.append((t, reduced))
        assert [t.verify(d) for t, d in tampered] == [False] * 6


# Reports at bound 6 on named planar systems, taken from the release
# before the cascade moved to one polynomial type: (dx, dy) ->
# (certs as (p, cofactor), pencils as (p, q, cofactor), complete).  The
# reports at bound 8, taken from the release before rref eliminated on
# ints, are the same strings.
PINNED_REPORTS = {
    "lotka-volterra": (
        ("x - x*y", "x*y - y"),
        ([("y", "x - 1"), ("x", "-1*y + 1")], [], True),
    ),
    "hamiltonian": (
        ("y^2", "x^2"),
        ([("x - y", "-1*x - y"), ("x^2 + x*y + y^2", "x + y")], [("x^3 - y^3", "1", "0")], True),
    ),
    "x2-y2": (("x^2 - y^2", "2*x*y"), ([], [("y", "x^2 + y^2", "2*x")], True)),
    "xy2-plus-x": (
        ("x*y^2 + x", "y^3 - x^2*y"),
        ([("y", "-1*x^2 + y^2"), ("x", "y^2 + 1")], [], True),
    ),
    "euler-top-d2": (
        ("x^2 + y", "x*y - x"),
        ([("y - 1", "x")], [("x^2 + 2*y - 1", "y^2 - 2*y + 1", "2*x")], False),
    ),
    "final-example": (
        ("x*y^2 + y^2 - y", "-1*x*y^4 - y^4 + y^3"),
        ([], [("y", "x*y - 1", "-1*x*y^3 - y^3 + y^2")], False),
    ),
    "one-xy2": (("1", "x*y^2"), ([], [("y", "x^2*y + 2", "x*y")], True)),
    "shamsuddin": (("1", "x*y + 1"), ([], [], True)),
    "nilpotent": (("1", "x"), ([], [("x^2 - 2*y", "1", "0")], True)),
    "euler": (("x", "y"), ([], [("x", "y", "1")], True)),
}


def _report_strings(dx, dy, bound):
    report = darboux_search(Derivation(bi(dx), bi(dy)), bound)
    return (
        [(c.p.render(), c.cofactor.render()) for c in report.certs],
        [(p.p.render(), p.q.render(), p.cofactor.render()) for p in report.pencils],
        report.complete_up_to_bound,
    )


@pytest.mark.parametrize("name", sorted(PINNED_REPORTS))
def test_pinned_report(name):
    (dx, dy), expected = PINNED_REPORTS[name]
    assert _report_strings(dx, dy, 6) == expected


@pytest.mark.parametrize("name", sorted(PINNED_REPORTS))
def test_pinned_report_bound_8(name):
    (dx, dy), expected = PINNED_REPORTS[name]
    assert _report_strings(dx, dy, 8) == expected


@pytest.mark.parametrize("dx, dy, line", [("2", "-3", "x + 2/3*y"), ("0", "1/2", "x")])
def test_constant_field_report(dx, dy, line):
    # a constant field runs the degree loop with cofactor 0; its pencil
    # (dy*x - dx*y)/1 appears at degree 1 and D(1, 0) = 1 stops the loop
    assert _report_strings(dx, dy, 6) == ([], [(line, "1", "0")], True)
    assert darboux_search(Derivation(bi(dx), bi(dy)), 6).searched_degree == 1


def _two_pass_kernel(deriv, c0, n):
    """The reduced echelon kernel basis by two eliminations: a nullspace
    over the monomials in descending graded-lex order, then its _span."""
    mons = [(i, deg - i) for deg in range(n, -1, -1) for i in range(deg, -1, -1)]
    views = [(deriv.apply(BiPoly.monomial(*e)) - c0 * BiPoly.monomial(*e)).rational_terms() for e in mons]
    eq_set = sorted(set().union(*views))
    rows = [[v.get(e, Q(0)) for v in views] for e in eq_set]
    kernel = [BiPoly(dict(zip(mons, vec))) for vec in linalg.nullspace(cleared(rows), len(mons))]
    return [BiPoly(dict(row)) for row in _span(*kernel)]


def test_kernel_echelon_is_the_span_of_the_kernel():
    """_kernel_echelon's one elimination gives the _span of the kernel,
    on seeded constant fields and Euler-type fields (h*x + a, h*y + b),
    degrees 1 to 6, at the cofactors the degree loop uses and others.
    It runs, as the degree loop does, on L*delta and L*c0, L clearing
    the denominators of delta and c0, whose kernel is delta's at c0."""
    rng = random.Random(2801)

    def rational():
        return Q(rng.randint(-4, 4), rng.choice([1, 2, 3]))

    fields = []
    for _ in range(4):
        a, b = rational(), rational() or Q(1)
        fields.append((Derivation(BiPoly.const(a), BiPoly.const(b)), Q(0)))
        h = rational() or Q(-2)
        fields.append((Derivation(h * bi("x") + BiPoly.const(a), h * bi("y") + BiPoly.const(b)), h))
    cases = nonempty = 0
    for deriv, h in fields:
        for n in range(1, 7):
            for c0 in {n * h, (n // 2) * h, h + 1, Q(1, 2)}:
                c0 = BiPoly.const(c0)
                scale = math.lcm(deriv.dx.den, deriv.dy.den, c0.den)
                basis = _kernel_echelon(Derivation(deriv.dx * scale, deriv.dy * scale), c0 * scale, n)
                assert basis == _two_pass_kernel(deriv, c0, n), (deriv, c0, n)
                cases += 1
                nonempty += bool(basis)
    assert cases >= 150 and nonempty >= 60


def test_pencil_members_are_monic():
    """Pencil members are monic, as certificates are, also where they
    come from an affine family of the cascade: below the leading form
    (x + 2/3*y)^3 of delta = (3*x, 3*x + 5*y) the coefficient of x^5 is
    free."""
    report = darboux_search(Derivation(bi("3*x"), bi("3*x + 5*y")), 6)
    assert [(p.p, p.q, p.cofactor) for p in report.pencils] == [
        (bi("x^3 + 2*x^2*y + 4/3*x*y^2 + 8/27*y^3"), bi("x^5"), bi("15"))
    ]
    rng = random.Random(2001)
    fields = [(bi(dx), bi(dy)) for (dx, dy), _ in PINNED_REPORTS.values()]
    fields += [(d.dx, d.dy) for d in (_random_degree2(rng, k) for k in range(16)) if not d.is_zero]
    pencils = 0
    for dx, dy in fields:
        for pencil in darboux_search(Derivation(dx, dy), 6).pencils:
            assert pencil.p == pencil.p.monic() and pencil.q == pencil.q.monic()
            pencils += 1
    assert pencils >= 10


# Pencil systems whose first pencil, of degree m and cofactor c, is found
# by a search complete through m: at bound 12 the search stops at
# D(m, c) and returns the bound-6 report.
STOPS = {
    "hamiltonian": (PINNED_REPORTS["hamiltonian"], 4),
    "x2-y2": (PINNED_REPORTS["x2-y2"], 3),
    "nilpotent": (PINNED_REPORTS["nilpotent"], 2),
    "euler": (PINNED_REPORTS["euler"], 1),
    "linear-center": ((("5*y + 3", "3*x"), ([], [("x^2 - 5/3*y^2 - 2*y", "1", "0")], True)), 2),
}


@pytest.mark.parametrize("name", sorted(STOPS))
def test_search_stops_at_the_pencil_bound(name):
    ((dx, dy), expected), stop = STOPS[name]
    assert _report_strings(dx, dy, 12) == expected
    assert darboux_search(Derivation(bi(dx), bi(dy)), 12).searched_degree == stop


@pytest.mark.parametrize("name", ["final-example", "euler-top-d2", "one-xy2", "lotka-volterra"])
def test_search_runs_to_the_bound(name):
    # incomplete when the pencil appears; D(3, x*y) = 16 > 8; no pencil.
    # final-example has gcd(dx, dy) = y*(x*y + y - 1): the search of
    # delta/gcd = (1, -y^2) stops at D(2, -y) = 3, that of delta itself
    # at the degree 3 of the gcd
    (dx, dy), _ = PINNED_REPORTS[name]
    searched = 3 if name == "final-example" else 8
    assert darboux_search(Derivation(bi(dx), bi(dy)), 8).searched_degree == searched


def test_stop_degree():
    zero, c = BiPoly.zero(), bi("x")
    assert [_stop_degree(1, zero), _stop_degree(1, c)] == [1, 1]
    assert [_stop_degree(2, zero), _stop_degree(2, c)] == [2, 3]
    assert [_stop_degree(3, zero), _stop_degree(3, c)] == [4, 16]


def test_pencil_cofactor():
    zero, c = BiPoly.zero(), bi("x")
    assert _pencil_cofactor([(bi("x"), c), (bi("2*x"), c), (bi("y"), bi("y"))]) is None
    assert _pencil_cofactor([(bi("x"), c), (bi("2*x"), c), (bi("y"), c)]) == c
    assert _pencil_cofactor([(bi("x^2 - 2*y"), zero)]) == zero
    assert _pencil_cofactor([(bi("x"), c)]) is None
    assert _pencil_cofactor([(bi("x"), c), (bi("1"), c)]) == c


def _no_stop(monkeypatch):
    monkeypatch.setattr(darboux, "_stop_degree", lambda m, c: float("inf"))


class TestIrrationalFibers:
    """delta = (2 - x^2, 1 + 2xy) is the Hamiltonian field of H = 2y - x -
    x^2*y (m = 3, c = 0).  Its fibers at H = +-sqrt(2) split into a line
    and a conic, and the product of the two conjugate conics is a
    Q-irreducible Darboux polynomial of degree 4 > m: the stop is at
    D(3, 0) = 4, not at m."""

    DERIV = ("2 - x^2", "1 + 2*x*y")
    CONICS = "x^2*y^2 + 2*x*y - 2*y^2 + 1"

    def _report(self, bound):
        return darboux_search(Derivation(*map(bi, self.DERIV)), bound)

    def test_conjugate_conics_reported(self):
        for bound in range(4, 9):
            assert bi(self.CONICS) in [c.p for c in self._report(bound).certs]

    def test_stop_keeps_them(self, monkeypatch):
        # the cascade gives up on the irrational lines x +- sqrt(2) at
        # degree 1, so the search is incomplete and runs to the bound;
        # with that give-up treated as settled the stop fires at 4
        monkeypatch.setattr(darboux, "_splits_rationally", lambda g, roots: True)
        for bound in range(4, 9):
            report = self._report(bound)
            assert report.complete_up_to_bound and report.searched_degree == 4
            assert bi(self.CONICS) in [c.p for c in report.certs]


def _random_degree2(rng, k):
    """Generic degree-2 fields and, every other one, the Hamiltonian
    field of a random cubic, which has a polynomial first integral."""
    if k % 2:
        h = random_bipoly(rng, maxdeg=3, nterms=4, maxcoef=5)
        return Derivation(h.deriv_y(), -h.deriv_x())
    return Derivation(*(random_bipoly(rng, maxdeg=2, nterms=4, maxcoef=5) for _ in range(2)))


def test_stop_changes_no_answer(monkeypatch):
    """The stop leaves certs and pencils as they are; it may only turn
    complete_up_to_bound from false to true, where it fired."""
    rng = random.Random(1201)
    derivs = [d for d in (_random_degree2(rng, k) for k in range(40)) if not d.is_zero]
    stopped = [darboux_search(d, 6) for d in derivs]
    _no_stop(monkeypatch)
    fired = settled = 0
    for d, report in zip(derivs, stopped):
        full = darboux_search(d, 6)
        assert full.searched_degree == 6
        assert [(c.p, c.cofactor) for c in report.certs] == [(c.p, c.cofactor) for c in full.certs]
        assert pencil_triples(report) == pencil_triples(full)
        fired += report.searched_degree < 6
        if report.complete_up_to_bound != full.complete_up_to_bound:
            assert report.complete_up_to_bound and report.searched_degree < 6
            settled += 1
    assert fired >= 10 and settled >= 1


def test_stop_settles_a_solver_give_up(monkeypatch):
    """H = y^3 - 6/5*y - 3x is linear in x, so every fiber is irreducible
    and nothing above degree D(3, 0) = 4 is Darboux and non-composite;
    without the stop the solver gives up above degree 4."""
    deriv = Derivation(bi("5*y^2 - 2"), bi("5"))
    report = darboux_search(deriv, 8)
    assert report.certs == [] and report.complete_up_to_bound and report.searched_degree == 4
    assert pencil_triples(report) == {(bi("y^3 - 3*x - 6/5*y"), bi("1"), bi("0"))}
    assert "searched=4" in repr(report)
    _no_stop(monkeypatch)
    full = darboux_search(deriv, 8)
    assert pencil_triples(full) == pencil_triples(report) and not full.complete_up_to_bound


def test_cascade_parameters_follow_the_input():
    # below the leading form y^50 of delta = y*d/dx every lower power of
    # y is free: one affine family with 50 parameters, its base first and
    # then its directions
    n = 50
    p_top = bi(f"y^{n}")
    sols, complete = _cascade(_ab_parts(bi("y"), BiPoly.zero()), n, p_top, BiPoly.zero())
    assert complete and len(sols) == n + 1
    (base, _), *directions = sols
    assert base == p_top and all(c.is_zero for _, c in sols)
    assert sorted(d.monic().render() for d, _ in directions) == sorted(
        bi(f"y^{k}").render() for k in range(n)
    )


def test_cascade_stops_at_a_constant_row(monkeypatch):
    # for the final example, d = 5, below the leading form x with cofactor
    # top 0 an early level leaves a nonzero constant row: no solution,
    # and the cascade returns before solving any constraint
    assert darboux._solve_constraints([MPoly.const(3, 1)]) == ([], True)

    def unreachable(cons):
        raise AssertionError("constraints solved after a constant row")

    monkeypatch.setattr(darboux, "_solve_constraints", unreachable)
    a_pol, b_pol = bi("x*y^2 + y^2 - y"), bi("-1*x*y^4 - y^4 + y^3")
    assert _cascade(_ab_parts(a_pol, b_pol), 1, bi("x"), BiPoly.zero()) == ([], True)


def test_solve_constraints_nests_substitutions_without_a_cap():
    # v2 - 1, v3 - v2, ..., v9 - v8: eight substitutions, one inside the
    # other, each making the next constraint univariate
    v = [MPoly.var(10, i) for i in range(10)]
    cons = [v[2] - 1] + [v[i] - v[i - 1] for i in range(3, 10)]
    assert darboux._solve_constraints(cons) == ([dict.fromkeys(range(2, 10), Q(1))], True)


def test_search_complete_past_six_substitutions():
    # y = C*exp(3x/4) is transcendental, so x and y are the only
    # irreducible Darboux polynomials; from degree 7 on the cascade's
    # constraints need more than six nested substitutions
    report = darboux_search(Derivation(bi("4*x"), bi("3*x*y")), 8)
    assert report.complete_up_to_bound
    assert {(c.p, c.cofactor) for c in report.certs} == {(bi("x"), bi("4")), (bi("y"), bi("3*x"))}
    assert report.pencils == []


def test_solve_constraints_gives_up_on_a_bivariate_resultant(monkeypatch):
    # the resultant in v4 of v2*v4 + v3 and v3*v4 + v2 is v2^2 - v3^2,
    # not univariate: give up at once instead of computing it again
    v = [MPoly.var(5, i) for i in range(5)]
    calls = []
    solve = darboux._solve_constraints

    def counted(cons):
        calls.append(cons)
        return solve(cons)

    monkeypatch.setattr(darboux, "_solve_constraints", counted)
    assert counted([v[2] * v[4] + v[3], v[3] * v[4] + v[2]]) == ([], False)
    assert len(calls) == 1


def test_splits_rationally_matches_sympy():
    """Products of rational linear factors, some repeated, and irreducible
    quadratics split over Q exactly when sympy factors them into linear
    factors alone."""
    sp = pytest.importorskip("sympy")
    z = sp.Symbol("z")
    rng = random.Random(1402)
    seen = set()
    for _ in range(80):
        factors = []
        for _ in range(rng.randint(0, 3)):
            factors += [rng.randint(1, 4) * z + rng.randint(-6, 6)] * rng.randint(1, 3)
        for _ in range(rng.randint(0, 2)):
            b, c = rng.randint(-5, 5), rng.randint(-6, 6)
            if sp.Poly(z**2 + b * z + c, z).is_irreducible:
                factors += [z**2 + b * z + c] * rng.randint(1, 2)
        g = sp.Poly(rng.randint(1, 5) * sp.Mul(*factors), z)
        ours = UniPoly([int(c) for c in reversed(g.all_coeffs())])
        expected = all(f.degree() == 1 for f, _ in g.factor_list()[1])
        assert darboux._splits_rationally(ours, rational_roots(ours)) == expected
        seen.add(expected)
    assert seen == {True, False}


def _product_level_matrix(ad, bd, p_top, c_top, mons_p, mons_c, eq_mons):
    """Reference for _level_matrix: the level's columns built as BiPoly
    products, then read off coefficient by coefficient."""
    monos_p = [BiPoly.monomial(i, j) for (i, j) in mons_p]
    cols = [ad * m.deriv_x() + bd * m.deriv_y() - c_top * m for m in monos_p]
    cols += [-(BiPoly.monomial(i, j) * p_top) for (i, j) in mons_c]
    return [[col.coeff(i, j) for col in cols] for (i, j) in eq_mons]


def _ab_parts(a_pol, b_pol):
    """The homogeneous parts (a_e, b_e) of the field for e = 0..d, the
    list _degree_loop builds once per search for _cascade."""
    d = int(max(a_pol.total_degree(), b_pol.total_degree()))
    return [(a_pol.homogeneous_part(e), b_pol.homogeneous_part(e)) for e in range(d + 1)]


def _top_parts(a_pol, b_pol):
    """(d, ad, bd, atoms, cofactors, certified) of the field's top part:
    the atoms of M (x and y when M = 0), each with its cofactor, as
    _degree_loop computes them, and whether its cascades get a cofactor
    table (always when M = 0); atoms is None when M = 0 and d = 1."""
    d = int(max(a_pol.total_degree(), b_pol.total_degree()))
    ad, bd = a_pol.homogeneous_part(d), b_pol.homogeneous_part(d)
    big_m = bi("x") * bd - bi("y") * ad
    if not big_m.is_zero:
        atoms, certified = _top_atoms(big_m, d)
    elif d == 1:
        return d, ad, bd, None, None, True
    else:
        atoms, certified = [bi("x"), bi("y")], True
    cofactors = [exact_divide(ad * a.deriv_x() + bd * a.deriv_y(), a) for a in atoms]
    return d, ad, bd, atoms, cofactors, certified


def _candidates(atoms, cofactors, n):
    """The (product, cofactor) pairs of _top_candidates' degree n."""
    return [(p, c) for _, p, c in next(itertools.islice(_top_candidates(atoms, cofactors), n, None))]


def _cascade_inputs(a_pol, b_pol, n):
    """(d, n, p_top, c_top) for every leading form darboux_search tries
    at degree n (none when M = 0 and d = 1); each c_top, the sum of its
    atoms' cofactors, is checked against D(p_top)/p_top."""
    d, ad, bd, atoms, cofactors, _ = _top_parts(a_pol, b_pol)
    if atoms is None:
        return []
    out = []
    for p_top, c_top in _candidates(atoms, cofactors, n):
        assert c_top == exact_divide(ad * p_top.deriv_x() + bd * p_top.deriv_y(), p_top), p_top
        out.append((d, n, p_top, c_top))
    return out


def _levels(a_pol, b_pol, d, n, p_top, c_top):
    """Every level of the cascade below p_top, reduced, whether or not
    _cascade reads it."""
    ab_parts = _ab_parts(a_pol, b_pol)
    assert len(ab_parts) == d + 1
    return [_cascade_level(ab_parts, n, p_top, c_top, s) for s in range(1, n + d)]


def test_level_matrices_match_products():
    """On the named systems at bound 8, and on a seeded cubic field with a
    coefficient 1/2, every cascade level matrix built from terms equals
    the one built from products, and _cascade_level reduces it as rref
    does.  Each field runs as L*delta, L clearing its denominators, as in
    the degree loop."""
    fields = [(bi(dx), bi(dy)) for (dx, dy), _ in PINNED_REPORTS.values()]
    dx, dy = _random_field(random.Random(1702), 3, 0)
    fields.append((dx + BiPoly.monomial(2, 1, Q(1, 2)), dy))
    levels_seen = rational_seen = 0
    for a_pol, b_pol in fields:
        scale = math.lcm(a_pol.den, b_pol.den)
        a_pol, b_pol = a_pol * scale, b_pol * scale
        for n in range(1, 9):
            for d, _, p_top, c_top in _cascade_inputs(a_pol, b_pol, n):
                ad, bd = a_pol.homogeneous_part(d), b_pol.homogeneous_part(d)
                for mons_p, mons_c, eq_mons, m, pivots, _ in _levels(a_pol, b_pol, d, n, p_top, c_top):
                    args = (ad, bd, p_top, c_top, mons_p, mons_c, eq_mons)
                    rows = _level_matrix(*args)
                    assert rows == _product_level_matrix(*args)
                    assert linalg.rref(rows, len(mons_p) + len(mons_c))[:2] == (m, pivots)
                    levels_seen += 1
                    rational_seen += scale != 1
    # every level of the named systems, read by _cascade or not, and the
    # rational field's
    assert (levels_seen - rational_seen, rational_seen) == (3138, 1318)


def test_level_matrices_are_integral_for_every_field(monkeypatch):
    """The degree loop runs on L*delta, L clearing the denominators of
    delta, and _top_atoms builds each form from the int numerators of a
    monic atom, which are primitive: by Gauss's lemma every level matrix
    is built from integral polynomials and holds ints.  On the survey at
    bound 6, its rational variants (dx/2, dy/3) too, and on hang-linear
    at bound 8, whose monic atom x^2 - 5/3*y^2 has a rational
    coefficient."""
    dens, entries = [], set()
    level_matrix = darboux._level_matrix

    def checked(ad, bd, p_top, c_top, *rest):
        dens.append({p.den for p in (ad, bd, p_top, c_top)})
        rows = level_matrix(ad, bd, p_top, c_top, *rest)
        entries.update(type(v) for row in rows for v in row)
        return rows

    monkeypatch.setattr(darboux, "_level_matrix", checked)
    workloads, _ = cli_diff._orebench()
    for _, dx, dy in cli_diff.survey():
        darboux_search(Derivation(bi(dx), bi(dy)), 6)
    assert len(dens) == 13157
    for _, dx, dy in cli_diff.survey():
        darboux_search(Derivation(bi(dx) * Q(1, 2), bi(dy) * Q(1, 3)), 6)
    assert len(dens) == 13157 + 12973
    (dx, dy), = [(dx, dy) for name, dx, dy, _ in workloads.DARBOUX_KNOWN_HARD if name == "hang-linear"]
    darboux_search(Derivation(bi(dx), bi(dy)), 8)
    assert len(dens) == 13157 + 12973 + 2
    assert all(den == {1} for den in dens) and entries == {int}


def _flat_xy_coeffs(g):
    """{(i, j): coefficient of x^i*y^j} of an MPoly in (x, y, p_0, ...),
    each coefficient free of x and y."""
    buckets = {}
    for e, c in g.terms.items():
        buckets.setdefault(e[:2], {})[(0, 0) + e[2:]] = c
    return {ij: MPoly._lowest(g.nvars, g.den, b) for ij, b in buckets.items()}


def _flat_cascade(a_pol, b_pol, d, n, p_top, c_top):
    """Reference for _cascade: its level loop in the flat layout, every
    level reduced up front and solved in MPoly, level 1 included, every
    part of p and of the cofactor one MPoly in (x, y, p_0, ...), each
    right side built from products of whole parts and split into its
    (x, y)-coefficients afterwards."""
    levels = _levels(a_pol, b_pol, d, n, p_top, c_top)
    nv = 2 + sum(len(mons_p) + len(mons_c) - len(pivots) for mons_p, mons_c, _, _, pivots, _ in levels)
    params = iter(range(2, nv))
    a_parts = [MPoly.from_bipoly(a_pol.homogeneous_part(e), nv) for e in range(d + 1)]
    b_parts = [MPoly.from_bipoly(b_pol.homogeneous_part(e), nv) for e in range(d + 1)]
    parts_p = {n: MPoly.from_bipoly(p_top, nv)}
    parts_c = {d - 1: MPoly.from_bipoly(c_top, nv)}
    grads = {n: (parts_p[n].deriv(0), parts_p[n].deriv(1))}
    zero = MPoly.zero(nv)
    constraints = []
    for s, (mons_p, mons_c, eq_mons, m, pivots, ops) in enumerate(levels, 1):
        g = zero
        for i in range(max(0, s - d), min(s - 1, n) + 1):
            e = d - (s - i)
            for grad, coeff in zip(grads.get(n - i, ()), (a_parts[e], b_parts[e])):
                if grad and coeff:
                    g = g + grad * coeff
        for j in range(1, min(s - 1, d - 1) + 1):
            cpart, ppart = parts_c.get(d - 1 - j), parts_p.get(n - s + j)
            if cpart and ppart:
                g = g - cpart * ppart
        g = _flat_xy_coeffs(g)
        rhs = linalg.replay(ops, [g.get(e, zero) for e in eq_mons])
        leftover = [v for v in rhs[len(pivots):] if v]
        if any(v.is_constant for v in leftover):
            return [], True
        constraints.extend(leftover)
        ncols = len(mons_p) + len(mons_c)
        free = [c for c in range(ncols) if c not in pivots]
        u = [None] * ncols
        for f in free:
            u[f] = MPoly.var(nv, next(params))
        for row, c, v in zip(m, pivots, rhs):
            u[c] = -v
            for f in free:
                if row[f]:
                    u[c] = u[c] - row[f] * u[f]
        if mons_p:
            part = parts_p[n - s] = MPoly.from_xy_coeffs(zip(mons_p, u), nv)
            grads[n - s] = (part.deriv(0), part.deriv(1))
        if mons_c:
            parts_c[d - 1 - s] = MPoly.from_xy_coeffs(zip(mons_c, u[len(mons_p):]), nv)
    return darboux._cascade_answers(sum(parts_p.values(), zero), sum(parts_c.values(), zero), constraints)


def _random_field(rng, deg, k):
    """A field of degree deg: for odd k the Hamiltonian field of a random
    H of degree deg + 1, which has the first integral H, else a generic
    one."""
    if k % 2:
        top = rng.randint(0, deg + 1)
        h = random_bipoly(rng, maxdeg=deg + 1, nterms=4, maxcoef=5)
        h = h + BiPoly.monomial(top, deg + 1 - top, rng.choice([-2, -1, 1, 3]))
        return h.deriv_y(), -h.deriv_x()
    top = rng.randint(0, deg)
    dx = random_bipoly(rng, maxdeg=deg, nterms=3, maxcoef=5)
    dx = dx + BiPoly.monomial(top, deg - top, rng.choice([-3, 1, 2]))
    return dx, random_bipoly(rng, maxdeg=deg, nterms=3, maxcoef=5)


def test_cascade_matches_product_form():
    """_cascade, which builds each level's right side monomial by monomial
    on (x, y)-coefficient maps, gives the answers of the flat product
    layout: on seeded fields of degree 2-5 for every leading form up to
    degree 5, and on the final example below the leading form x^2*y^6."""
    rng = random.Random(1601)
    cases = []
    for deg in range(2, 6):
        for k in range(4):
            a_pol, b_pol = _random_field(rng, deg, k)
            for n in range(1, 6):
                cases += [(a_pol, b_pol, *args) for args in _cascade_inputs(a_pol, b_pol, n)]
    (dx, dy), _ = PINNED_REPORTS["final-example"]
    final = [args for args in _cascade_inputs(bi(dx), bi(dy), 8) if args[2] == bi("x^2*y^6")]
    assert len(final) == 1
    cases.append((bi(dx), bi(dy), *final[0]))
    found = 0
    for case in cases:
        ours = _cascade(_ab_parts(*case[:2]), *case[3:])
        assert ours == _flat_cascade(*case)
        found += bool(ours[0])
    assert len(cases) > 100 and found > 10


def test_level_one_refutes_before_reducing_the_rest(monkeypatch):
    """On Lotka-Volterra at n = 3 a leading form refuted at level 1 has
    only that level reduced, and one that passes has all four."""
    a_pol, b_pol = bi("x - x*y"), bi("x*y - y")
    inputs = {args[2]: args for args in _cascade_inputs(a_pol, b_pol, 3)}
    calls = []
    rref = linalg.rref

    def counted(rows, ncols):
        calls.append(ncols)
        return rref(rows, ncols)

    monkeypatch.setattr(linalg, "rref", counted)
    ab_parts = _ab_parts(a_pol, b_pol)
    assert _cascade(ab_parts, *inputs[bi("x^3 + 3*x^2*y + 3*x*y^2 + y^3")][1:]) == ([], True)
    assert len(calls) == 1
    calls.clear()
    assert _cascade(ab_parts, *inputs[bi("x^3")][1:]) == ([(bi("x^3"), bi("-3*y + 3"))], True)
    assert len(calls) == 4


def test_no_cascade_takes_a_homogeneous_part(monkeypatch):
    """_degree_loop builds delta's homogeneous parts once per search, and
    every cascade of the named corpus at bound 6 reads them from
    ab_parts: none calls BiPoly.homogeneous_part."""
    cascade, part = darboux._cascade, BiPoly.homogeneous_part
    inside, runs = [], []

    def checked(*args):
        inside.append(True)
        runs.append(True)
        try:
            return cascade(*args)
        finally:
            inside.pop()

    def taken(self, d):
        assert not inside, "a cascade took a homogeneous part"
        return part(self, d)

    monkeypatch.setattr(darboux, "_cascade", checked)
    monkeypatch.setattr(BiPoly, "homogeneous_part", taken)
    workloads, _ = cli_diff._orebench()
    for _, dx, dy, _, _ in workloads.NAMED:
        darboux_search(Derivation(bi(dx), bi(dy)), 6)
    assert len(runs) > 100


def _brute_candidates(atoms, cofactors, n):
    """Every exponent vector e with sum e_k*deg(atom_k) = n, in
    lexicographic order, with the product of atom_k^e_k and the sum of
    e_k times atom_k's cofactor."""
    degrees = [int(a.total_degree()) for a in atoms]
    out = []
    for e in itertools.product(*(range(n // k + 1) for k in degrees)):
        if sum(k * v for k, v in zip(degrees, e)) == n:
            product, cofactor = bi("1"), bi("0")
            for atom, c, v in zip(atoms, cofactors, e):
                product, cofactor = product * atom**v, cofactor + v * c
            out.append((e, product, cofactor))
    return out


def test_candidate_table_is_every_product_of_atoms(monkeypatch):
    """_top_candidates gives, degree by degree through 12, every product
    of atoms with its exponent vector and cofactor, in lexicographic order
    of the vectors, on the atoms of every named field and of the survey
    fields; and the cofactor table each search keeps is read off it."""
    workloads, _ = cli_diff._orebench()
    fields = [(dx, dy) for _, dx, dy, _, _ in workloads.NAMED] + [(dx, dy) for _, dx, dy in cli_diff.survey()]
    atom_sets = set()
    for dx, dy in fields:
        _, _, _, atoms, cofactors, _ = _top_parts(bi(dx), bi(dy))
        if atoms is not None:
            atom_sets.add((tuple(atoms), tuple(cofactors)))
    entries = 0
    for atoms, cofactors in atom_sets:
        table = _top_candidates(atoms, cofactors)
        for n in range(13):
            ours = next(table)
            assert ours == _brute_candidates(atoms, cofactors, n), (atoms, n)
            entries += len(ours)
    assert (len(atom_sets), entries) == (127, 18791)
    tables = []
    cascade = darboux._cascade

    def recorded(ab_parts, n, p_top, c_top, known=None):
        tables.append((ab_parts, n, known))
        return cascade(ab_parts, n, p_top, c_top, known)

    monkeypatch.setattr(darboux, "_cascade", recorded)
    for dx, dy in fields[: len(workloads.NAMED)]:
        darboux_search(Derivation(bi(dx), bi(dy)), 8)
    # one table per degree loop, read when the search is over; the atoms
    # are those of the field's top parts
    last = {id(known): (ab_parts, n, known) for ab_parts, n, known in tables}
    for ab_parts, n, known in last.values():
        _, _, _, atoms, cofactors, _ = _top_parts(*ab_parts[-1])
        assert set(known.cofactors) == set(range(n + 1))
        for k, cofs in known.cofactors.items():
            assert cofs == {c for _, _, c in _brute_candidates(atoms, cofactors, k)}
    assert len(last) == 9


def test_level_one_column_is_the_replayed_right_side(monkeypatch):
    """On every level 1 of the named corpus at bound 8, the right side
    that rref eliminates as the last column of the matrix is replay of
    the rational right side D_{d-1}(p_top) by the row operations of the
    matrix alone, which rref reduces as it does without that column; a
    cascade whose replayed side is nonzero below the pivots is refuted
    there, with no other level reduced."""
    cascade_level, cascade = darboux._cascade_level, darboux._cascade
    reduced, counts = [], {"levels": 0, "refuted": 0}

    def recorded(*args):
        reduced.append((args[4], cascade_level(*args)))
        return reduced[-1][1]

    def checked(ab_parts, n, p_top, c_top, known=None):
        reduced.clear()
        out = cascade(ab_parts, n, p_top, c_top, known)
        (s, (_, _, eq_mons, m, pivots, _)), *rest = reduced
        assert s == 1 and all(s > 1 for s, _ in rest)
        *_, plain, plain_pivots, ops = cascade_level(ab_parts, n, p_top, c_top, 1)
        a, b = ab_parts[-2]  # the parts of degree d - 1
        g = a * p_top.deriv_x() + b * p_top.deriv_y()
        rhs = linalg.replay(ops, [g.coeff(*e) for e in eq_mons])
        assert (pivots, [row[:-1] for row in m]) == (plain_pivots, plain)
        assert [row[-1] for row in m] == rhs
        refuted = any(rhs[len(pivots):])
        assert not (refuted and rest)
        if refuted:
            assert out == ([], True)
        counts["levels"] += 1
        counts["refuted"] += refuted
        return out

    monkeypatch.setattr(darboux, "_cascade_level", recorded)
    monkeypatch.setattr(darboux, "_cascade", checked)
    workloads, _ = cli_diff._orebench()
    for _, dx, dy, _, _ in workloads.NAMED:
        darboux_search(Derivation(bi(dx), bi(dy)), 8)
    assert counts == {"levels": 329, "refuted": 129}


def _unreachable(*args):
    raise AssertionError("a step the proof skips was run")


class TestProofExits:
    """The two exits of the search that a proof answers: a delta-simple
    field of Shamsuddin shape, and a cascade with no free column whose
    leading form is a product of found ones (darboux_search, _cascade)."""

    def test_delta_simple_field_needs_no_search(self, monkeypatch):
        """On every d_simple field among the seeded Shamsuddin fields and
        the named one, no cascade runs, and the report is the full
        search's at bound 6 apart from completeness, which the full
        search misses on s2 alone."""
        workloads, _ = cli_diff._orebench()
        named = [(name, dx, dy) for name, dx, dy, _, _ in workloads.NAMED if name == "shamsuddin"]
        simple, gained = [], []
        for label, dx, dy in cli_diff.shamsuddin_fields() + named:
            deriv = Derivation(bi(dx), bi(dy))
            if shamsuddin_analyze(*_shamsuddin_shape(deriv)).status != "d_simple":
                continue
            with monkeypatch.context() as m:
                m.setattr(darboux, "_cascade", _unreachable)
                fast = darboux_search(deriv, 6)
            with monkeypatch.context() as m:
                m.setattr(darboux, "_shamsuddin_shape", lambda deriv: None)
                full = darboux_search(deriv, 6)
            assert fast.complete_up_to_bound
            key = [{**r.to_json(), "complete_up_to_bound": None, "searched": r.searched_degree} for r in (fast, full)]
            assert key[0] == key[1] == {
                "certs": [], "pencils": [], "degree_bound": 6, "complete_up_to_bound": None, "searched": 6
            }, label
            simple.append(label)
            if not full.complete_up_to_bound:
                gained.append(label)
        assert len(simple) >= 10 and "shamsuddin" in simple
        assert gained == ["s2"]

    def test_unique_darboux_field_is_searched(self):
        # x - y is Darboux for d/dx + (y - x + 1) d/dy: c = x solves c' = c - x + 1
        report = darboux_search(Derivation(bi("1"), bi("y - x + 1")), 3)
        assert [(c.p, c.cofactor) for c in report.certs] == [(bi("x - y"), bi("1"))]

    @staticmethod
    def _checked_cascades(monkeypatch):
        """Make every cascade that takes a known product check it against
        the full cascade of that leading form; returns the leading forms
        checked, a list that grows as searches run."""
        hits, taken = [], []
        known_product, cascade = darboux._known_product, darboux._cascade

        def recorded(p_top, known):
            hits.append(known_product(p_top, known))
            return hits[-1]

        def checked(ab_parts, n, p_top, c_top, known=None):
            before = len(hits)
            out = cascade(ab_parts, n, p_top, c_top, known)
            if len(hits) > before and hits[-1] is not None:
                assert out == cascade(ab_parts, n, p_top, c_top), p_top
                taken.append(p_top)
            return out

        monkeypatch.setattr(darboux, "_known_product", recorded)
        monkeypatch.setattr(darboux, "_cascade", checked)
        return taken

    def test_product_is_the_full_cascade_answer_on_the_named_corpus(self, monkeypatch):
        """At bound 8, 97 of the 105 cascades with no free column that find
        an answer take the product; the other 8 have an irreducible
        leading form: the lines at degree 1 and x^2 + x*y + y^2 of the
        Hamiltonian field."""
        taken = self._checked_cascades(monkeypatch)
        workloads, _ = cli_diff._orebench()
        counts = {}
        for name, dx, dy, _, _ in workloads.NAMED:
            before = len(taken)
            darboux_search(Derivation(bi(dx), bi(dy)), 8)
            counts[name] = len(taken) - before
        assert {name: k for name, k in counts.items() if k} == {
            "lotka-volterra": 42, "xy2-plus-x": 42, "euler-top-d2": 7, "hamiltonian": 4, "x2-y2": 2
        }

    def test_product_is_the_full_cascade_answer_on_the_survey(self, monkeypatch):
        taken = self._checked_cascades(monkeypatch)
        for _, dx, dy in cli_diff.survey()[:40]:
            darboux_search(Derivation(bi(dx), bi(dy)), 6)
        assert len(taken) >= 50

    def test_product_is_scaled_to_the_leading_form(self, monkeypatch):
        """On Lotka-Volterra at n = 3, below 3*x^3, the answer is 3 times
        x * x^2, with the cofactors of x and x^2 added: with known=None
        after all four levels are reduced and solved, and with the index
        and its cofactor table after level 1 alone."""
        a_pol, b_pol = bi("x - x*y"), bi("x*y - y")
        for found, *_ in darboux._degree_loop(Derivation(a_pol, b_pol), 2, False):
            pass
        _, _, _, atoms, cofactors, certified = _top_parts(a_pol, b_pol)
        assert certified
        known = darboux._Known()
        known.cofactors.update((k, {c for _, c in _candidates(atoms, cofactors, k)}) for k in range(1, 3))
        known.update((darboux._leading_form(p), (p, c)) for p, c in found)
        (d, n, p_top, c_top), = [args for args in _cascade_inputs(a_pol, b_pol, 3) if args[2] == bi("x^3")]
        args = (_ab_parts(a_pol, b_pol), n, 3 * p_top, c_top)
        rref, calls = linalg.rref, []
        with monkeypatch.context() as m:
            m.setattr(linalg, "rref", lambda rows, ncols: calls.append(ncols) or rref(rows, ncols))
            full = _cascade(*args)
            assert len(calls) == 4
            calls.clear()
            m.setattr(darboux, "_cascade_answers", _unreachable)
            ours = _cascade(*args, known)
            assert len(calls) == 1
        assert ours == full == ([(bi("3*x^3"), bi("-3*y + 3"))], True)


class TestCofactorTable:
    """The cofactor table of _degree_loop (known.cofactors) reads P = 0
    off the atoms of M: at each level s >= max(2, d) it sees a free column
    exactly when _cascade_level leaves one (the proof is in _cascade)."""

    @staticmethod
    def _checked_tables(monkeypatch):
        """Make every cascade check its leading form's cofactor against
        D(p_top)/p_top and, when it gets a table, the table's verdict on
        every level s >= max(2, d) against the reduced level; returns
        counts of the cascades and levels checked, which grow as searches
        run."""
        counts = {"tables": 0, "no table": 0, "levels": 0, "free": 0}
        cascade = darboux._cascade

        def checked(ab_parts, n, p_top, c_top, known=None):
            d, (ad, bd) = len(ab_parts) - 1, ab_parts[-1]
            assert c_top == exact_divide(ad * p_top.deriv_x() + bd * p_top.deriv_y(), p_top), p_top
            counts["no table" if known is None else "tables"] += 1
            for s in range(max(2, d), n + d) if known is not None else ():
                free = darboux._free_columns(_cascade_level(ab_parts, n, p_top, c_top, s)) > 0
                assert free == (s <= n and c_top in known.cofactors[n - s]), (p_top, s)
                counts["levels"] += 1
                counts["free"] += free
            return cascade(ab_parts, n, p_top, c_top, known)

        monkeypatch.setattr(darboux, "_cascade", checked)
        return counts

    def test_table_sees_the_free_columns_on_the_named_corpus(self, monkeypatch):
        counts = self._checked_tables(monkeypatch)
        workloads, _ = cli_diff._orebench()
        for _, dx, dy, _, _ in workloads.NAMED:
            darboux_search(Derivation(bi(dx), bi(dy)), 8)
        # euler-top-d2 (M = 0) among them
        assert counts == {"tables": 329, "no table": 0, "levels": 1785, "free": 273}

    def test_table_sees_the_free_columns_on_the_survey(self, monkeypatch):
        counts = self._checked_tables(monkeypatch)
        for _, dx, dy in cli_diff.survey():
            darboux_search(Derivation(bi(dx), bi(dy)), 6)
        assert counts == {"tables": 3904, "no table": 0, "levels": 15699, "free": 3121}

    @staticmethod
    def _reports_as_every_level(monkeypatch, a_pol, b_pol):
        """The field's reports at bounds 6 and 8 are those of the search
        with known=None, which reduces every level of every cascade."""
        for bound in (6, 8):
            ours = darboux_search(Derivation(a_pol, b_pol), bound)
            with monkeypatch.context() as m:
                m.setattr(darboux, "_cascade", lambda *args: _cascade(*args[:4]))
                reference = darboux_search(Derivation(a_pol, b_pol), bound)
            assert repr(ours) == repr(reference)

    def test_uncertified_field_runs_every_level(self, monkeypatch):
        """M = (x^3 + 2*y^3)*(x^3 + 3*y^3), whose factorization _top_atoms
        does not certify: every cascade gets known=None."""
        a_pol, b_pol = bi("-6*y^5"), bi("x^5 + 5*x^2*y^3")
        assert not _top_parts(a_pol, b_pol)[-1]
        counts = self._checked_tables(monkeypatch)
        self._reports_as_every_level(monkeypatch, a_pol, b_pol)
        assert counts["tables"] == 0 and counts["no table"] > 0

    @pytest.mark.parametrize(
        "dx, dy",
        [("x^2 + y", "x*y - x"), ("-2*x^2*y + x^2 + x + y^2", "x^2 - 2*x*y^2 + 2*x*y + y")],
        ids=["euler-top-d2", "zero-m-d3"],
    )
    def test_zero_m_gets_an_exact_table(self, monkeypatch, dx, dy):
        """M = 0, so the top part is r times the Euler operator: every
        cascade gets a table, and it sees no free column at any level s >=
        max(2, d), as the reduced levels do; on the cubic field it starts
        below level 2, which has cofactor columns."""
        a_pol, b_pol = bi(dx), bi(dy)
        _, ad, bd, atoms, _, certified = _top_parts(a_pol, b_pol)
        assert (bi("x") * bd - bi("y") * ad).is_zero and atoms == [bi("x"), bi("y")] and certified
        counts = self._checked_tables(monkeypatch)
        self._reports_as_every_level(monkeypatch, a_pol, b_pol)
        # the n + 1 monomials of each degree n <= 6, then <= 8, each with
        # the n levels s = max(2, d)..n + d - 1
        assert counts == {"tables": 71, "no table": 0, "levels": 352, "free": 0}


class TestCompositePencils:
    """Pencils and certs that are functions of a smaller pencil b/u are
    left out of the report."""

    def test_linear_center(self):
        # H = x^2 - 5/3*y^2 - 2*y is a first integral; H^3 + 36/5*H^2 +
        # 432/25*H is a composite whose factor 25t^2 + 180t + 432 has no
        # rational root
        for bound in (6, 8):
            report = darboux_search(Derivation(bi("5*y + 3"), bi("3*x")), bound)
            assert report.certs == [] and report.complete_up_to_bound
            assert [(p.p, p.q, p.cofactor) for p in report.pencils] == [
                (bi("x^2 - 5/3*y^2 - 2*y"), bi("1"), bi("0"))
            ]

    def test_rational_pencil_composite(self):
        report = darboux_search(Derivation(bi("5*x^2"), bi("-2*x^2 - 8")), 6)
        assert report.certs == []
        assert [(p.p, p.q, p.cofactor) for p in report.pencils] == [
            (bi("x"), bi("x^2 + 5/2*x*y - 4"), bi("5*x"))
        ]

    def test_linear_center_audit(self):
        verdict = decide("poly2", Derivation(bi("5*y + 3"), bi("3*x")), 6)
        assert verdict.trace[0].kind == "singular_locus_audit"
        assert [(i.parameter, i.poly) for i in verdict.trace[0].incidences] == [
            (Q(-3, 5), bi("x^2 - 5/3*y^2 - 2*y - 3/5"))
        ]

    def test_constant_member(self):
        b, u = bi("x^2 - 2*y"), bi("1")
        assert _composite_of(b, u, (b**3 - 2 * b + 5,))
        assert _composite_of(b, u, (b**3 + 1, b))
        assert not _composite_of(b, u, (b**3 + bi("x"),))

    def test_proportional_top_forms(self):
        # b - u = y - 1 has lower degree than b and u
        b, u = bi("x^2 + y"), bi("x^2 + 1")
        assert _composite_of(b, u, ((b - u) ** 3,))
        assert _composite_of(b, u, ((b - u) ** 3 + b * u**2, u**3))
        assert not _composite_of(b, u, ((b - u) ** 3, u**2))

    def test_irrational_members(self):
        # u^2 + 8b^2 is Q-irreducible: no member at a rational t divides it
        b, u = bi("x"), bi("y + 1")
        p = u**2 + 8 * b**2
        assert _composite_of(b, u, (p,)) and _span(p, b, u) != _span(b, u)
        assert _composite_of(b, u, (p, b * u))

    def test_factor_outside_the_pencil(self):
        b, u = bi("x"), bi("y")
        g = bi("x + y^2")
        assert not _composite_of(b, u, (b * g,))
        assert not _composite_of(b, u, (b * g, u**3))


class TestReportFilters:
    """_assemble_report on hand-built found lists for the rotation
    (-y, x), whose Darboux polynomials are the functions of x^2 + y^2."""

    rotation = Derivation(bi("-1*y"), bi("x"))
    circle = bi("x^2 + y^2")

    def test_drops_a_square(self):
        report = _assemble_report(self.rotation, [(self.circle * self.circle, BiPoly.zero())], 4, True, 4)
        assert (report.certs, report.pencils) == ([], [])

    def test_drops_a_composite_of_a_pencil(self):
        # (x^2 + y^2)^2 + 1 is square-free, a function of the pencil
        # x^2 + y^2 + t, and not one of its members
        found = [self.circle, bi("1"), self.circle * self.circle + bi("1")]
        report = _assemble_report(self.rotation, [(p, BiPoly.zero()) for p in found], 4, True, 4)
        assert report.certs == []
        assert pencil_triples(report) == {(self.circle, bi("1"), BiPoly.zero())}

    def test_zero_bound_rejected(self):
        with pytest.raises(DomainError) as exc:
            darboux_search(self.rotation, 0)
        assert str(exc.value) == "degree bound must be at least 1"


class TestCommonFactor:
    """darboux_search on delta = g*delta' with g = gcd(dx, dy) not
    constant: delta' is searched to the bound, delta through deg g."""

    def test_factor_of_the_gcd_is_reported(self):
        # g = x is not Darboux for delta/g = (1, y); the search of delta
        # itself through deg g = 1 finds it
        report = darboux_search(Derivation(bi("x"), bi("x*y")), 4)
        assert [(c.p, c.cofactor) for c in report.certs] == [(bi("y"), bi("x")), (bi("x"), bi("1"))]
        assert report.pencils == [] and report.complete_up_to_bound and report.searched_degree == 4

    def test_bound_below_the_degree_of_the_gcd(self):
        # final-example, g = y*(x*y + y - 1) of degree 3: at bound 2 both
        # runs end at 2, and the pencil of delta/g = (1, -y^2) carries the
        # cofactor -y times g
        g = bi("x*y^2 + y^2 - y")
        deriv = Derivation(g, bi("-1*y^2") * g)
        report = darboux_search(deriv, 2)
        assert report.searched_degree == 2 and report.complete_up_to_bound and report.certs == []
        assert pencil_triples(report) == {(bi("y"), bi("x*y - 1"), bi("-1*y") * g)}

    def test_answers_verify_against_the_field_itself(self):
        rng = random.Random(2401)
        reports = 0
        for _ in range(12):
            g = random_bipoly(rng, maxdeg=2, nterms=2, maxcoef=3)
            deriv = Derivation(*(g * random_bipoly(rng, maxdeg=1, nterms=3, maxcoef=3) for _ in range(2)))
            if deriv.is_zero or g.is_constant:
                continue
            report = darboux_search(deriv, 3)
            assert all(c.verify(deriv) for c in report.certs + report.pencils)
            reports += 1
        assert reports >= 10


class TestFirstIntegral:
    def test_polynomial_integral(self):
        pencil = first_integral_search(Derivation(bi("1"), bi("1")), 1)
        assert (pencil.p, pencil.q, pencil.cofactor) == (bi("x - y"), bi("1"), bi("0"))

    def test_final_example(self):
        pencil = first_integral_search(Derivation(bi("1"), bi("-1*y^2")), 2)
        assert (pencil.p, pencil.q, pencil.cofactor) == (
            bi("y"),
            bi("x*y - 1"),
            bi("-1*y"),
        )

    def test_unique_darboux_excludes_pencil(self):
        assert first_integral_search(Derivation(bi("1"), bi("y")), 4) is None

    def test_searches_the_field_divided_by_its_gcd(self):
        # delta = y*(3x + 3, 2y): delta/y has the pencil (x + 1)^2 / y^3,
        # the first-integral verb's answer, and its search is complete
        deriv = Derivation(bi("3*x*y + 3*y"), bi("2*y^2"))
        report = darboux_search(deriv, 6)
        assert report.complete_up_to_bound
        assert [(c.p, c.cofactor) for c in report.certs] == [(bi("y"), bi("2*y")), (bi("x + 1"), bi("3*y"))]
        assert pencil_triples(report) == {(bi("x^2 + 2*x + 1"), bi("y^3"), bi("6*y"))}
        pencil = first_integral_search(deriv, 6)
        assert (pencil.p, pencil.q, pencil.cofactor) == (bi("x^2 + 2*x + 1"), bi("y^3"), bi("6*y"))
        assert pencil.verify(deriv)

    def test_zero_field_keeps_the_search_message(self):
        with pytest.raises(DomainError) as exc:
            first_integral_search(Derivation(BiPoly.zero(), BiPoly.zero()), 3)
        assert str(exc.value) == "every polynomial is Darboux for the zero derivation"


class TestScalingEquivariance:
    def test_scaled_derivation(self):
        rng = random.Random(401)
        samples = [
            Derivation(bi("x"), bi("y")),
            Derivation(bi("1"), bi("-1*y^2")),
            Derivation(bi("1"), bi("x*y^2")),
            Derivation(bi("y"), bi("x")),
        ]
        for d in samples:
            base = darboux_search(d, 3)
            for alpha in (Q(2), Q(-3), Q(1, 2)):
                scaled = darboux_search(
                    Derivation(alpha * d.dx, alpha * d.dy), 3
                )
                assert {c.p for c in base.certs} == {c.p for c in scaled.certs}
                assert {(c.p, alpha * c.cofactor) for c in base.certs} == {
                    (c.p, c.cofactor) for c in scaled.certs
                }
                assert {(p.p, p.q, alpha * p.cofactor) for p in base.pencils} == {
                    (p.p, p.q, p.cofactor) for p in scaled.pencils
                }

    def test_search_of_a_multiple_keeps_every_answer(self):
        """darboux_search(lam*delta, 6) gives delta's certificates and
        pencils, in delta's order, each cofactor times lam, with delta's
        completeness and last degree: delta(p) = c*p exactly when
        (lam*delta)(p) = lam*c*p, and both searches run on an integral
        multiple of delta.  On the named corpus and the first 30 survey
        fields, for lam = 1/2, 3, 5/7 and -2."""
        workloads, _ = cli_diff._orebench()
        fields = [(dx, dy) for _, dx, dy, _, _ in workloads.NAMED] + [(dx, dy) for _, dx, dy in cli_diff.survey()[:30]]
        for dx, dy in fields:
            base = darboux_search(Derivation(bi(dx), bi(dy)), 6)
            for lam in (Q(1, 2), Q(3), Q(5, 7), Q(-2)):
                scaled = darboux_search(Derivation(bi(dx) * lam, bi(dy) * lam), 6)
                assert [(c.p, lam * c.cofactor) for c in base.certs] == [(c.p, c.cofactor) for c in scaled.certs]
                assert [(p.p, p.q, lam * p.cofactor) for p in base.pencils] == [
                    (p.p, p.q, p.cofactor) for p in scaled.pencils
                ]
                assert (scaled.complete_up_to_bound, scaled.searched_degree) == (
                    base.complete_up_to_bound,
                    base.searched_degree,
                ), (dx, dy, lam)


def _compose(p, fx, fy):
    """p(fx, fy)."""
    out = BiPoly.zero()
    for (i, j), c in p.rational_terms().items():
        out = out + BiPoly.const(c) * fx**i * fy**j
    return out


class TestCoordinateChanges:
    """An affine automorphism sigma of Q[x, y] maps the Darboux data of
    sigma^-1 * delta * sigma onto that of delta: p with cofactor c to
    sigma(p) with cofactor sigma(c), a pencil's span to a span.  So two
    complete reports must agree once mapped; a search that is complete in
    one coordinate system only is counted, not failed."""

    X, Y = bi("x"), bi("y")
    # name: ((sigma(x), sigma(y)), (sigma^-1(x), sigma^-1(y)))
    MAPS = {
        "swap": ((Y, X), (Y, X)),
        "shear": ((X - Y, Y), (X + Y, Y)),
        "shift": ((X + 1, Y - 2), (X - 1, Y + 2)),
    }

    @staticmethod
    def _data(report, sigma):
        certs = {(_compose(c.p, *sigma).monic(), _compose(c.cofactor, *sigma)) for c in report.certs}
        pencils = {
            (_span(_compose(p.p, *sigma), _compose(p.q, *sigma)), _compose(p.cofactor, *sigma))
            for p in report.pencils
        }
        return certs, pencils

    def test_complete_reports_agree(self):
        fields = [Derivation(bi(dx), bi(dy)) for (dx, dy), _ in PINNED_REPORTS.values()]
        fields += [Derivation(bi("y"), bi("x")), Derivation(bi("y^2 + 2"), bi("-2*x^2"))]
        rng = random.Random(2526)
        fields += [_random_degree2(rng, k) for k in range(4)]
        identity = (self.X, self.Y)
        compared = flips = 0
        for d in fields:
            base = darboux_search(d, 4)
            for sigma, inverse in self.MAPS.values():
                moved = Derivation(*(_compose(d.apply(s), *inverse) for s in sigma))
                report = darboux_search(moved, 4)
                if base.complete_up_to_bound and report.complete_up_to_bound:
                    assert self._data(report, sigma) == self._data(base, identity), (d, sigma)
                    compared += 1
                else:
                    flips += base.complete_up_to_bound != report.complete_up_to_bound
        assert compared >= 36, f"{compared} compared, {flips} completeness flips"


def test_settled_ends_the_search_after_degree_1():
    """settled sees the report through degree 1, the one a search to
    bound 1 gives; a true return ends the search with it, a false one
    lets the search run on to the answer it gives without the hook."""
    d = Derivation(bi("x - x*y"), bi("x*y - y"))
    seen = []
    report = darboux_search(d, 6, settled=lambda r: seen.append(r) or True)
    assert seen == [report] and report.searched_degree == 1
    assert report.to_json() == darboux_search(d, 1).to_json()
    full = darboux_search(d, 6, settled=lambda r: False)
    assert full.to_json() == darboux_search(d, 6).to_json() and full.searched_degree == 6


def test_settled_is_not_called_when_degree_1_ends_the_search():
    """The Euler field's pencil y/x at degree 1 stops the search there,
    and a bound of 1 ends it too: no degree is left, so no hook."""
    calls = []
    for d, bound in ((Derivation(bi("x"), bi("y")), 6), (Derivation(bi("x - x*y"), bi("x*y - y")), 1)):
        darboux_search(d, bound, settled=calls.append)
    assert calls == []


class TestPencilMembers:
    def test_final_example_members(self):
        f = bi("x*y + y - 1") * bi("y")
        d = Derivation(f, -bi("y^2") * f)
        pencil = darboux_search(Derivation(bi("1"), bi("-1*y^2")), 2).pencils[0]
        through = pencil_members_through(pencil, [f, -bi("y^3") * bi("x*y + y - 1")])
        assert through.kind == "finite"
        assert [(t, m) for t, m in through.members] == [
            (Q(0), bi("y")),
            (Q(1), bi("x*y + y - 1")),
        ]
        assert not through.residual_nonrational

    def test_all_members_through_origin(self):
        pencil = darboux_search(Derivation(bi("x"), bi("y")), 1).pencils[0]
        assert (pencil.p, pencil.q) == (bi("x"), bi("y"))
        through = pencil_members_through(pencil, [bi("x"), bi("y")])
        assert through.kind == "all"

    def test_member_through_a_line_of_zeros(self):
        """V(4x^2, -xy) is the line x = 0; the member x*y^4 of the pencil
        (x*y^4, 1) contains it, and no resultant of the generators sees it.
        The audit reads the search to the bound: decide stops at the
        violation y after degree 1, before the pencil is found."""
        dx, dy = bi("4*x^2"), -bi("x*y")
        report = darboux_search(Derivation(bi("4*x"), -bi("y")), 6)
        pencil = report.pencils[0]
        assert (pencil.p, pencil.q) == (bi("x*y^4"), bi("1"))
        through = pencil_members_through(pencil, [dx, dy])
        assert through.kind == "finite"
        assert through.members == [(Q(0), bi("x*y^4"))]
        assert not through.residual_nonrational
        audit = singular_darboux_audit(Derivation(dx, dy), report)
        assert not audit.residual_nonrational
        assert (Q(0), bi("x*y^4")) in [(i.parameter, i.poly) for i in audit.incidences]

    def test_all_on_a_curve_is_checked_member_by_member(self):
        """V(xy - 1) is a curve, so "all" for the pencil (y, 1) is only
        cofinite: y = 0 misses xy = 1.  The audit must not count y as
        meeting the locus, and the violation it names is a member that
        does meet it."""
        dx, dy = bi("x*y - 1"), bi("0")
        pencil = darboux_search(Derivation(bi("1"), bi("0")), 6).pencils[0]
        assert (pencil.p, pencil.q) == (bi("y"), bi("1"))
        assert pencil_members_through(pencil, [dx, dy]).kind == "all"
        verdict = decide("poly2", Derivation(dx, dy))
        audit = next(c for c in verdict.trace if c.kind == "singular_locus_audit")
        meets = {i.poly: i.meets_locus for i in audit.incidences}
        assert meets == {bi("y"): False, bi("y + 1"): True}
        violation = next(c for c in verdict.trace if c.kind == "singular_violation")
        assert violation.p == bi("y + 1")

    def test_member_at_infinity(self):
        """delta = (-x*y^2 - 2*y, -y^3) reduces by gcd y to a field with
        the pencil (x*y + 1, y^2).  No finite member meets the locus y = 0
        (x*y + 1 + t*y^2 is 1 there); the member at t = infinity, y^2,
        does and does not divide dx."""
        dx, dy = bi("-1*x*y^2 - 2*y"), bi("-1*y^3")
        report = darboux_search(Derivation(bi("-1*x*y - 2"), bi("-1*y^2")), 4)
        assert [(p.p, p.q) for p in report.pencils] == [(bi("x*y + 1"), bi("y^2"))]
        through = pencil_members_through(report.pencils[0], [dx, dy])
        assert through.kind == "finite"
        assert through.members == [(darboux.INFINITY, bi("y^2"))]
        assert not through.residual_nonrational
        verdict = decide("poly2", Derivation(dx, dy), 4)
        audit = next(c for c in verdict.trace if c.kind == "singular_locus_audit")
        assert "y^2 (t=inf): violates" in audit.describe()
        assert [(i.parameter, i.poly, i.violation) for i in audit.incidences] == [
            (None, bi("y"), False),
            (darboux.INFINITY, bi("y^2"), True),
        ]

    def test_member_parameters(self):
        pencil = darboux_search(Derivation(bi("x"), bi("y")), 1).pencils[0]
        assert pencil.member(darboux.INFINITY) == bi("y")
        assert pencil.member(0) == bi("x")
        assert pencil.member("-1/2") == bi("x - 1/2*y")

    def test_unit_ideal_rejected(self):
        pencil = darboux_search(Derivation(bi("1"), bi("-1*y^2")), 2).pencils[0]
        with pytest.raises(DomainError):
            pencil_members_through(pencil, [bi("1")])
        # generators of the unit ideal without a constant: no members
        through = pencil_members_through(pencil, [bi("x"), bi("x + 1")])
        assert (through.kind, through.members) == ("finite", [])


class TestDegreeOneOracle:
    def test_oracle_equivalence(self):
        rng = random.Random(402)
        checked = 0
        while checked < 20:
            d = Derivation(
                random_bipoly(rng, maxdeg=2, nterms=3, maxcoef=4),
                random_bipoly(rng, maxdeg=2, nterms=3, maxcoef=4),
            )
            if d.is_zero:
                continue
            checked += 1
            solutions, infinite = degree1_darboux_oracle(d)
            report = darboux_search(d, 1)
            deg1_certs = {
                (c.p, c.cofactor) for c in report.certs if c.p.total_degree() == 1
            }
            # every oracle solution appears as a cert or inside a pencil span
            for p, c in solutions:
                assert (p, c) in deg1_certs or any(
                    pencil.cofactor == c and in_pencil_span(p, pencil)
                    for pencil in report.pencils
                ), f"oracle found {p.render()} missing from report"
            # every degree-1 cert is found by the oracle
            if not infinite:
                for p, c in deg1_certs:
                    assert (p, c) in solutions, f"report cert {p.render()} not in oracle"
            else:
                # an infinite family must surface as a pencil
                assert report.pencils or not solutions


class TestFirstPencilStop:
    """first_integral_search stops the search at the first degree whose
    report holds a pencil, and answers as the search to the bound."""

    @staticmethod
    def _first_pencils(deriv, bound):
        """(p, q, cofactor) of first_integral_search and of the first
        pencil of the search to the bound, each None when there is none."""
        full = darboux_search(deriv, bound).pencils
        firsts = (first_integral_search(deriv, bound), full[0] if full else None)
        return [None if pc is None else (pc.p, pc.q, pc.cofactor) for pc in firsts]

    def test_named_corpus_at_bounds_1_to_8(self):
        workloads, _ = cli_diff._orebench()
        for name, dx, dy, _, _ in workloads.NAMED:
            for bound in range(1, 9):
                early, full = self._first_pencils(Derivation(bi(dx), bi(dy)), bound)
                assert early == full, (name, bound)

    def test_survey_at_bound_6(self):
        fields = cli_diff.survey()
        assert len(fields) == 147  # the hangs left out
        pencils = 0
        for label, dx, dy in fields:
            early, full = self._first_pencils(Derivation(bi(dx), bi(dy)), 6)
            assert early == full, label
            pencils += early is not None
        assert pencils >= 30

    def test_field_with_a_gcd(self):
        # delta = y*(3x + 3, 2y): delta itself runs through deg g = 1
        deriv = Derivation(bi("3*x*y + 3*y"), bi("2*y^2"))
        for bound in (1, 2, 3, 6):
            early, full = self._first_pencils(deriv, bound)
            assert early == full, bound
        assert darboux_search(deriv, 6, first_pencil=True).searched_degree == 3

    @pytest.mark.parametrize(
        "dx, dy, bound, searched",
        [("1", "x*y^2", 6, 3), ("1", "x*y^2", 12, 3), ("x^2 + y", "x*y - x", 12, 2)],
        ids=["one-xy2-6", "one-xy2-12", "euler-top-d2-12"],
    )
    def test_searched_degree(self, dx, dy, bound, searched):
        report = darboux_search(Derivation(bi(dx), bi(dy)), bound, first_pencil=True)
        assert report.pencils
        assert report.searched_degree == report.degree_bound == searched
