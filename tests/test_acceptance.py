"""Acceptance criteria: the pinned verdict matrix plus the randomized
identity suites, each reporting one pass/fail line."""

import math
import random
import time

from orediamond import (
    BiPoly,
    Derivation,
    OreContext,
    OrePoly,
    Q,
    UniDerivation,
    buchberger,
    darboux_search,
    decide,
    essential_witness,
    mul,
    normal_form,
)
from util import (
    a_theta_pow_right,
    bi,
    degree1_darboux_oracle,
    in_pencil_span,
    lau,
    macaulay_member,
    random_bipoly,
    random_unipoly,
    theta_pow_left,
    uni,
)


def report(capsys, name, fn):
    start = time.perf_counter()
    try:
        fn()
    except BaseException:
        with capsys.disabled():
            print(f"[FAIL] {name}")
        raise
    elapsed = time.perf_counter() - start
    with capsys.disabled():
        print(f"[PASS] {name} ({elapsed:.2f}s)")


def test_criterion_1_verdict_matrix(capsys):
    def run():
        rows = []

        def check(label, verdict, status, certified):
            assert verdict.status == status, f"{label}: {verdict.status}"
            assert verdict.certified == certified, f"{label}: certified mismatch"
            rows.append(verdict)
            return verdict

        check("laurent x^3", decide("laurent1", UniDerivation(lau("x^3"), laurent=True)), "Diamond", True)
        check("laurent x^2+x", decide("laurent1", UniDerivation(lau("x^2 + x"), laurent=True)), "NotDiamond", True)
        check("poly1 5", decide("poly1", UniDerivation(uni("5"))), "Diamond", True)
        check("poly1 x^2", decide("poly1", UniDerivation(uni("x^2"))), "NotDiamond", True)

        v = check("dx+x dy", decide("poly2", Derivation(bi("1"), bi("x"))), "Diamond", True)
        assert v.trace[0].kind == "locally_nilpotent" and v.trace[0].order == 3

        v = check("euler", decide("poly2", Derivation(bi("x"), bi("y"))), "NotDiamond", True)
        violations = [c for c in v.trace if c.kind == "singular_violation"]
        assert violations and violations[0].p in (bi("x"), bi("y"))

        check("shamsuddin y", decide("poly2", Derivation(bi("1"), bi("y"))), "NotDiamond", True)
        check("shamsuddin xy+1", decide("poly2", Derivation(bi("1"), bi("x*y + 1"))), "NotDiamond", True)

        v = decide("poly2", Derivation(bi("1"), bi("x*y^2")))
        assert v.status == "Diamond"
        pencil_rows = [
            c.pencil for c in v.trace if c.kind == "no_max_delta_ideal_not_primitive"
        ]
        assert pencil_rows and (
            pencil_rows[0].p,
            pencil_rows[0].q,
            pencil_rows[0].cofactor,
        ) == (bi("y"), bi("x^2*y + 2"), bi("x*y"))

        f = bi("x*y + y - 1") * bi("y")
        final = Derivation(f, -bi("y^2") * f)
        v = decide("poly2", final)
        assert v.status == "Diamond"
        audit = next(c for c in v.trace if c.kind == "singular_locus_audit")
        assert not any(i.violation for i in audit.incidences)
        members = {(i.parameter, i.poly) for i in audit.incidences}
        assert (Q(0), bi("y")) in members and (Q(1), bi("x*y + y - 1")) in members
        pencils = [c.pencil for c in v.trace if c.kind == "primitivity"]
        assert (pencils[0].p, pencils[0].q, pencils[0].cofactor) == (
            bi("y"),
            bi("x*y - 1"),
            bi("-1*x*y^3 - y^3 + y^2"),
        )
        assert pencils[0].verify(final)

    report(capsys, "criterion 1: worked-example verdict matrix", run)


def test_criterion_2_closed_darboux_family(capsys):
    def run():
        rng = random.Random(601)
        d = Derivation(bi("1"), bi("-1*y^2"))
        for _ in range(25):
            deg = rng.randrange(1, 5)
            a = random_unipoly(rng, maxdeg=deg, monic=True)
            n = a.degree()
            p = BiPoly.zero()
            der = a
            for k in range(n + 1):
                p = p + Q((-1) ** k, math.factorial(k)) * BiPoly.from_uni(der) * bi(
                    "y"
                ) ** (n - k)
                der = der.derivative()
            assert (d.apply(p) + Q(n) * bi("y") * p).is_zero

    report(capsys, "criterion 2: closed Darboux family identity", run)


def test_criterion_3_ore_identity_suite(capsys):
    def run():
        rng = random.Random(602)
        derivs = [
            Derivation(bi("1"), BiPoly.zero()),
            Derivation(bi("x"), bi("y")),
            Derivation(bi("1"), bi("-1*y^2")),
        ]
        count = 0
        while count < 100:
            d = derivs[count % 3]
            univariate = count % 2 == 0 and d.dy.is_zero
            ctx = OreContext("poly1" if univariate else "poly2", d)
            a = random_bipoly(rng, maxdeg=3, nterms=2, maxcoef=8)
            if univariate:
                a = BiPoly({(i, 0): c for (i, j), c in a.rational_terms().items()})
            count += 1
            for n in range(7):
                left = theta_pow_left(ctx, n, a)
                expected = OrePoly.from_ring(a)
                for _ in range(n):
                    expected = mul(ctx, OrePoly.theta(), expected)
                assert left == expected
                assert a_theta_pow_right(ctx, a, n) == OrePoly.theta(n, a)

    report(capsys, "criterion 3: Ore identity suite", run)


def test_criterion_4_essential_witness(capsys):
    def run():
        rng = random.Random(603)
        ctx = OreContext("poly1", Derivation(bi("1"), BiPoly.zero()))
        produced = 0
        while produced < 50:
            coeffs = []
            for _ in range(rng.randrange(1, 7)):
                p = random_unipoly(rng, maxdeg=3, maxcoef=6)
                coeffs.append(BiPoly.from_uni(p))
            f = OrePoly(coeffs)
            if f.is_zero or f.coeffs[-1].coeff(0, 0) == 0:
                continue
            produced += 1
            cert = essential_witness(ctx, f, bi("x"))
            n = f.degree()
            lhs = f.scale_left(bi("x") ** (n + 1))
            theta_x = mul(ctx, OrePoly.theta(), OrePoly.from_ring(bi("x")))
            rhs = mul(ctx, cert.h, theta_x) + OrePoly.from_ring(cert.r * bi("x"))
            assert lhs == rhs
            assert not cert.r.is_zero

    report(capsys, "criterion 4: essential-extension witness", run)


def test_criterion_5_degree1_darboux_oracle(capsys):
    def run():
        rng = random.Random(604)
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
            report_ = darboux_search(d, 1)
            deg1 = {(c.p, c.cofactor) for c in report_.certs if c.p.total_degree() == 1}
            for p, c in solutions:
                assert (p, c) in deg1 or any(
                    pencil.cofactor == c and in_pencil_span(p, pencil)
                    for pencil in report_.pencils
                )
            if not infinite:
                for p, c in deg1:
                    assert (p, c) in solutions

    report(capsys, "criterion 5: degree-1 Darboux oracle equivalence", run)


def test_criterion_6_groebner_vs_macaulay(capsys):
    def run():
        rng = random.Random(605)
        checked = 0
        while checked < 20:
            gens = [random_bipoly(rng, maxdeg=3, nonzero=True) for _ in range(2)]
            if any(g.is_constant for g in gens):
                continue
            checked += 1
            gb = buchberger(gens)
            member = (
                random_bipoly(rng, maxdeg=2) * gens[0]
                + random_bipoly(rng, maxdeg=2) * gens[1]
            )
            if not member.is_zero and int(member.total_degree()) <= 8:
                assert normal_form(member, gb).is_zero
                assert macaulay_member(member, gens, bound=8)
            probe = random_bipoly(rng, maxdeg=3, nonzero=True)
            assert normal_form(probe, gb).is_zero == macaulay_member(probe, gens, bound=8)

    report(capsys, "criterion 6: Groebner vs Macaulay oracle", run)


def test_criterion_7_property_suites(capsys):
    # the per-module property suites live in the other test files; this
    # criterion re-runs a condensed cross-section so the acceptance log
    # carries an explicit line for it
    def run():
        rng = random.Random(606)
        d = Derivation(bi("x + y^2"), bi("x*y - 3"))
        for _ in range(200):
            p = random_bipoly(rng, maxdeg=5, nterms=3)
            q_ = random_bipoly(rng, maxdeg=5, nterms=3)
            r = random_bipoly(rng, maxdeg=5, nterms=3)
            assert (p * q_) * r == p * (q_ * r)
            assert p * (q_ + r) == p * q_ + p * r
            assert d.apply(p * q_) == d.apply(p) * q_ + p * d.apply(q_)
        base = decide("poly2", Derivation(bi("1"), bi("x*y^2")))
        for alpha in (Q(2), Q(-1, 3)):
            scaled = decide("poly2", Derivation(alpha * bi("1"), alpha * bi("x*y^2")))
            assert scaled.status == base.status

    report(capsys, "criterion 7: per-module property suites", run)
