"""Expression parsing, canonical-render round trips, CLI exit codes,
and JSON schema validation."""

import json
import os
import subprocess
import sys
from pathlib import Path
from importlib import resources

import jsonschema
import pytest
from hypothesis import given, settings, strategies as st

from orediamond import (
    BiPoly,
    Derivation,
    LaurentUniPoly,
    OrePoly,
    ParseError,
    Q,
    UniPoly,
    parse_derivation,
    parse_ore,
    parse_polynomial,
    render_derivation,
)
from orediamond.cli import main
from orediamond.parse import MAX_TERMS
from orediamond.poly import MPoly
from util import bi, lau


def _value(parsed):
    """What a parse is compared by: a Derivation by its (dx, dy)."""
    return (parsed.dx, parsed.dy) if isinstance(parsed, Derivation) else parsed


class TestParsePolynomial:
    def test_bivariate(self):
        p = parse_polynomial("x^2*y - 3/2*y", "poly2")
        assert p == BiPoly({(2, 1): Q(1), (0, 1): Q(-3, 2)})

    def test_laurent_offset(self):
        p = parse_polynomial("x^-2 + 1", "laurent1")
        assert p.min_degree() == -2
        assert p.coeff(-2) == Q(1)
        assert p.coeff(0) == Q(1)

    def test_negative_exponent_rejected_in_poly(self):
        with pytest.raises(ParseError):
            parse_polynomial("x^-1", "poly1")

    def test_y_rejected_in_univariate(self):
        with pytest.raises(ParseError):
            parse_polynomial("x + y", "poly1")

    def test_t_rejected_outside_ore(self):
        with pytest.raises(ParseError):
            parse_polynomial("t + 1", "poly2")

    def test_zero_denominator(self):
        with pytest.raises(ParseError):
            parse_polynomial("1/0", "poly1")

    def test_exponent_cap(self):
        # poly1 is dense: x^99999999 would allocate 10^8 coefficients
        for text, ring in (
            ("x^99999999", "poly1"),
            ("x^600*x^401", "poly2"),
            ("y^1001 + 1", "poly2"),
            ("x^-1001", "laurent1"),
        ):
            with pytest.raises(ParseError):
                parse_polynomial(text, ring)
        with pytest.raises(ParseError):
            parse_ore("t^1001", "poly2")
        assert parse_polynomial("x^600*x^400", "poly2") == BiPoly.monomial(1000, 0)

    def test_digit_cap(self):
        # int() of more than 4300 digits fails in CPython
        big = "7" * 4301
        for text, position in (
            (f"x + {big}*y", 4),
            (f"1/{big}", 2),
            (f"x^{big}", 2),
        ):
            with pytest.raises(ParseError) as exc:
                parse_polynomial(text, "poly2")
            assert exc.value.position == position
        assert parse_polynomial("7" * 4300, "poly2") == int("7" * 4300)

    @pytest.mark.parametrize(
        "parser, prefix, term, parsed",
        [
            (parse_polynomial, "", "x", BiPoly.monomial(1, 0) * MAX_TERMS),
            (parse_derivation, "dx=1; dy=", "y", Derivation(BiPoly.one(), BiPoly.monomial(0, 1) * MAX_TERMS)),
            (parse_ore, "", "x*t", OrePoly([BiPoly.zero(), BiPoly.monomial(1, 0) * MAX_TERMS])),
        ],
    )
    def test_term_cap(self, parser, prefix, term, parsed):
        # terms are counted as read, before x + x combine into 2*x
        joiner = " + "
        assert _value(parser(prefix + joiner.join([term] * MAX_TERMS), "poly2")) == _value(parsed)
        with pytest.raises(ParseError) as exc:
            parser(prefix + joiner.join([term] * (MAX_TERMS + 1)), "poly2")
        # the sign opening term MAX_TERMS + 1, counting from 1
        position = len(prefix) + MAX_TERMS * len(term) + (MAX_TERMS - 1) * len(joiner) + 1
        assert str(exc.value) == f"more than {MAX_TERMS} terms (at position {position})"

    def test_syntax_error_position(self):
        with pytest.raises(ParseError):
            parse_polynomial("x +", "poly2")
        with pytest.raises(ParseError):
            parse_polynomial("x ? y", "poly2")


# (parser, text, ring, message, position); a derivation component's
# positions count from the start of that component's text
ERRORS = [
    (parse_polynomial, "x^", "poly2", "unexpected end of input", 2),
    (parse_polynomial, "x +", "poly2", "expected a term", 3),
    (parse_polynomial, "x + * y", "poly2", "expected a term, found '*'", 4),
    (parse_polynomial, "2x", "poly2", "expected '+' or '-', found 'x'", 1),
    (parse_polynomial, "x*2", "poly2", "expected a variable, found '2'", 2),
    (parse_polynomial, "x ? y", "poly2", "unexpected character '?'", 2),
    (parse_polynomial, "x", "poly3", "unknown ring 'poly3'", 0),
    (parse_polynomial, "x + 2*y", "poly1", "variable 'y' is not in this ring", 6),
    (parse_polynomial, "1 + x*y^2", "laurent1", "variable 'y' is not in this ring", 6),
    (parse_polynomial, "x + 3*t", "poly2", "'t' is only allowed in operator operands", 6),
    (parse_polynomial, "1 + y*x^-1", "poly2", "negative exponent in polynomial ring", 6),
    (parse_polynomial, "x + x^2*y^-1", "laurent1", "variable 'y' is not in this ring", 8),
    (parse_derivation, "dx", "poly2", "derivation component must look like dx=<poly>", 0),
    (parse_derivation, "dx=1; dz=x", "poly2", "unknown derivation component 'dz'", 6),
    (parse_derivation, "dx=1; dx=2", "poly1", "duplicate component 'dx'", 6),
    (parse_derivation, "dy=1", "poly2", "dx component required", 4),
    (parse_derivation, "dx=1", "poly2", "dy required for the bivariate ring", 4),
    (parse_derivation, "dx=1; dy=0", "poly1", "dy is not allowed for a univariate ring", 6),
    (parse_derivation, "dx=1; dy = x + 2*t", "poly2", "'t' is only allowed in operator operands", 17),
    (parse_derivation, "dx=x^^2", "poly1", "expected digits, found '^'", 5),
    # only ASCII digits are digits: str.isdigit also takes these
    (parse_derivation, "dx=x^\N{SUPERSCRIPT TWO}; dy=1", "poly2", "unexpected character '\N{SUPERSCRIPT TWO}'", 5),
    (parse_derivation, "dx=\N{ARABIC-INDIC DIGIT THREE}*x", "poly1", "unexpected character '\N{ARABIC-INDIC DIGIT THREE}'", 3),
    # only ASCII whitespace is skipped: str.isspace also takes these
    (parse_derivation, "dx=x\N{IDEOGRAPHIC SPACE}+ 1", "poly1", "unexpected character '\\u3000'", 4),
    (parse_polynomial, "x\x1c+1", "poly1", "unexpected character '\\x1c'", 1),
    (parse_derivation, "\N{NO-BREAK SPACE}dx=1", "poly1", "unknown derivation component '\\xa0dx'", 0),
    (parse_ore, "t", "laurent1", "operator operands live over poly1 or poly2", 0),
    (parse_ore, "t^2 + x*y*t", "poly1", "variable 'y' is not in this ring", 8),
    (parse_ore, "t + x^-1*t", "poly2", "negative exponent in polynomial ring", 4),
]


@pytest.mark.parametrize("parser, text, ring, message, position", ERRORS)
def test_error_message_and_position(parser, text, ring, message, position):
    with pytest.raises(ParseError) as exc:
        parser(text, ring)
    assert str(exc.value) == f"{message} (at position {position})"
    assert exc.value.position == position


class TestParseDerivation:
    def test_bivariate(self):
        d = parse_derivation("dx=1; dy=x*y^2", "poly2")
        assert (d.dx, d.dy) == (bi("1"), bi("x*y^2"))

    def test_laurent(self):
        d = parse_derivation("dx=x^3", "laurent1")
        assert d.laurent and d.dx == lau("x^3")

    def test_missing_dy_rejected(self):
        with pytest.raises(ParseError):
            parse_derivation("dx=1", "poly2")

    def test_extra_dy_rejected(self):
        with pytest.raises(ParseError):
            parse_derivation("dx=1; dy=x", "poly1")

    def test_empty_component_skipped(self):
        assert _value(parse_derivation("dx=1; ; dy=x", "poly2")) == _value(parse_derivation("dx=1; dy=x", "poly2"))


class TestParseOre:
    def test_normal_form(self):
        f = parse_ore("x*t^2 + 2*t + 1", "poly1")
        assert f.degree() == 2
        assert f.coeff(2) == bi("x")
        assert f.coeff(1) == bi("2")
        assert f.coeff(0) == bi("1")

    def test_canonical_rendering(self):
        f = parse_ore("3/2*x*t^3 + y", "poly2")
        assert f.render() == "(3/2*x)t^3 + (y)"
        assert parse_ore("t*x", "poly1") == parse_ore("x*t", "poly1")


def coeff_strategy():
    return st.fractions(
        min_value=-50, max_value=50, max_denominator=12
    ).filter(lambda f: f != 0)


@st.composite
def bipoly_strategy(draw):
    nterms = draw(st.integers(min_value=1, max_value=5))
    terms = {}
    for _ in range(nterms):
        i = draw(st.integers(min_value=0, max_value=5))
        j = draw(st.integers(min_value=0, max_value=5))
        c = draw(coeff_strategy())
        terms[(i, j)] = Q(c.numerator, c.denominator)
    return BiPoly(terms)


@st.composite
def univariate_strategy(draw, laurent):
    """A UniPoly, or a LaurentUniPoly whose exponents may be negative."""
    low = draw(st.integers(min_value=-5, max_value=0)) if laurent else 0
    coeffs = draw(st.lists(coeff_strategy() | st.just(Q(0)), min_size=1, max_size=6))
    return LaurentUniPoly(low, coeffs) if laurent else UniPoly(coeffs)


class TestRoundTrip:
    @settings(max_examples=300, deadline=None)
    @given(
        bipoly_strategy().map(lambda p: (p, "poly2"))
        | univariate_strategy(False).map(lambda p: (p, "poly1"))
        | univariate_strategy(True).map(lambda p: (p, "laurent1"))
    )
    def test_bipoly_render_reparse(self, case):
        p, ring = case
        q_ = parse_polynomial(p.render(), ring)
        assert q_ == p and type(q_) is type(p)

    @settings(max_examples=100, deadline=None)
    @given(bipoly_strategy(), bipoly_strategy())
    def test_derivation_render_reparse(self, dx, dy):
        d = parse_derivation(render_derivation(Derivation(dx, dy)), "poly2")
        assert (d.dx, d.dy) == (dx, dy)


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestCli:
    def test_decide_not_diamond(self, capsys):
        code, out, _ = run(
            ["decide", "--ring", "poly2", "--deriv", "dx=x; dy=y", "--json"], capsys
        )
        doc = json.loads(out)
        assert code == 0
        assert doc["result"]["status"] == "NotDiamond"
        assert doc["result"]["certified"] is True

    def test_witness(self, capsys):
        code, out, _ = run(
            ["witness", "--deriv", "dx=1", "--f", "t^2", "--x", "x", "--json"], capsys
        )
        doc = json.loads(out)
        assert code == 0
        assert doc["result"]["h"]["rendered"] == "(x^2)t + (-2*x)"
        assert doc["result"]["r"] == "2"

    def test_unknown_exits_2(self, capsys):
        code, _, _ = run(["decide", "--ring", "poly1", "--deriv", "dx=x^2+1"], capsys)
        assert code == 2

    def test_absent_first_integral_exits_2(self, capsys):
        code, _, _ = run(["first-integral", "--deriv", "dx=1; dy=y"], capsys)
        assert code == 2

    def test_parse_error_exits_1(self, capsys):
        code, _, err = run(["decide", "--ring", "poly2", "--deriv", "dx=?; dy=y"], capsys)
        assert code == 1
        assert "error" in err

    # an ore-mul document of about 120 kB, more than a pipe holds
    LONG_F = " + ".join(f"{k}*x^{k}*t^20" for k in range(1, 60)) + " + x*t"

    @pytest.mark.parametrize(
        "argv, read",
        [
            (["decide", "--ring", "poly2", "--deriv", "dx=x; dy=y"], 0),
            (["ore-mul", "--deriv", "dx=x^2 + 1", "--f", LONG_F, "--g", "x^40*t^20", "--json"], 0),
            (["ore-mul", "--deriv", "dx=x^2 + 1", "--f", LONG_F, "--g", "x^40*t^20", "--json"], 4096),
        ],
    )
    def test_closed_stdout_exits_quietly(self, argv, read):
        """A reader that closes stdout, before the first byte or after
        read bytes, gets an exit code of the CLI and no traceback."""
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
        proc = subprocess.Popen(
            [sys.executable, "-m", "orediamond.cli", *argv], stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env
        )
        proc.stdout.read(read)
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=60) in (0, 1, 2)
        assert "Traceback" not in err and "Exception ignored" not in err, err

    def test_ore_mul(self, capsys):
        code, out, _ = run(
            ["ore-mul", "--deriv", "dx=1", "--f", "t", "--g", "x", "--json"], capsys
        )
        doc = json.loads(out)
        assert code == 0
        assert doc["result"]["product"]["rendered"] == "(x)t + (1)"

    def test_coefficients_past_the_int_str_limit(self, capsys):
        if not hasattr(sys, "set_int_max_str_digits"):
            pytest.skip("this interpreter has no int-to-str digit limit")
        n = int("7" * 3000)
        code, out, _ = run(
            ["ore-mul", "--deriv", "dx=1", "--f", f"{n}*t", "--g", f"{n}*x", "--json"], capsys
        )
        p = UniPoly([Q(-(10**5000) - 3, 7**5000), 0, n * n])
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            square = str(n * n)
            expected = f"{square}*x^2 - {10**5000 + 3}/{7**5000}"
        finally:
            sys.set_int_max_str_digits(limit)
        assert code == 0
        assert json.loads(out)["result"]["product"]["rendered"] == f"({square}*x)t + ({square})"
        assert p.render() == expected
        big = MPoly.const(3, 10**5000) * MPoly.var(3, 2)
        assert repr(big) == f"MPoly(1{'0' * 5000}*v2)"

    def test_simple(self, capsys):
        code, out, _ = run(
            ["simple", "--ring", "laurent1", "--deriv", "dx=x^3"], capsys
        )
        assert code == 0
        assert "yes" in out

    @pytest.mark.parametrize(
        "argv",
        [
            ["simple", "--deriv", "dx=1"],
            ["ore-mul", "--deriv", "dx=1", "--f", "t", "--g", "x"],
            ["witness", "--deriv", "dx=1", "--f", "t^2", "--x", "x"],
        ],
    )
    def test_bound_only_for_searching_verbs(self, argv, capsys):
        # only decide, darboux, primitive and first-integral search
        assert run(argv, capsys)[0] == 0
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--bound", "3"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --bound 3" in capsys.readouterr().err

    def test_input_echo_reparses(self, capsys):
        code, out, _ = run(
            ["decide", "--ring", "poly2", "--deriv", "dx=1; dy=x*y^2", "--json"], capsys
        )
        doc = json.loads(out)
        echoed = parse_derivation(doc["inputs"]["deriv"], "poly2")
        assert (echoed.dx, echoed.dy) == (bi("1"), bi("x*y^2"))


class TestJsonSchema:
    @pytest.fixture()
    def schema(self):
        text = resources.files("orediamond").joinpath("output_schema.json").read_text()
        return json.loads(text)

    COMMANDS = [
        ["decide", "--ring", "poly2", "--deriv", "dx=x; dy=y"],
        ["decide", "--ring", "laurent1", "--deriv", "dx=x^3"],
        ["decide", "--ring", "poly2", "--deriv", "dx=1; dy=x*y^2"],
        ["darboux", "--deriv", "dx=1; dy=-1*y^2"],
        ["primitive", "--deriv", "dx=x; dy=y"],
        ["simple", "--ring", "poly1", "--deriv", "dx=5"],
        ["ore-mul", "--deriv", "dx=1", "--f", "t^2", "--g", "x*t"],
        ["witness", "--deriv", "dx=1", "--f", "t^2", "--x", "x"],
        ["first-integral", "--deriv", "dx=1; dy=-1*y^2"],
    ]

    def test_documents_validate(self, schema, capsys):
        for argv in self.COMMANDS:
            code, out, _ = run(argv + ["--json"], capsys)
            assert code in (0, 2)
            jsonschema.validate(json.loads(out), schema)

    def test_univariate_operator_derivation_error(self, schema, capsys):
        # operator verbs over poly1 read --deriv with parse_derivation
        argv = ["ore-mul", "--ring", "poly1", "--deriv", "dx=1; dy=0", "--f", "t", "--g", "x"]
        code, _, err = run(argv, capsys)
        assert code == 1
        assert err == "error: dy is not allowed for a univariate ring (at position 6)\n"
        code, out, _ = run(argv + ["--json"], capsys)
        assert code == 1
        doc = json.loads(out)
        assert doc["error"] == "dy is not allowed for a univariate ring (at position 6)"
        jsonschema.validate(doc, schema)

    def test_error_document_validates(self, schema, capsys):
        code, out, _ = run(
            ["decide", "--ring", "poly2", "--deriv", "dx=1", "--json"], capsys
        )
        assert code == 1
        jsonschema.validate(json.loads(out), schema)
