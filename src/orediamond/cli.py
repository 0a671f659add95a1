"""Command-line front end.

Verbs: decide, darboux, primitive, simple, ore-mul, witness,
first-integral.  Output is a human-readable trace by default or a
stable JSON document with --json.  Exit codes: 0 decided/complete,
2 unknown/absent/incomplete, 1 errors.
"""

import argparse
import json
import sys

from .poly import BiPoly, DomainError
from .derivation import Derivation
from .darboux import INFINITY, darboux_search, first_integral_search
from .diamond import (
    DIAMOND,
    NOT_DIAMOND,
    UNKNOWN,
    NotPrimitive,
    PrimitiveCertified,
    PrimitivityCert,
    classify_primitivity,
    decide,
    delta_simple_dim1_check,
)
from .ore import OreContext, essential_witness, mul
from .parse import (
    LAURENT_UNI,
    POLY_BI,
    POLY_UNI,
    ParseError,
    parse_derivation,
    parse_ore,
    render_derivation,
)

SCHEMA_VERSION = "1.0"


def _pencil_json(pencil):
    return {
        "p": pencil.p.render(),
        "q": pencil.q.render(),
        "cofactor": pencil.cofactor.render(),
    }


def _report_json(report):
    return {
        "certs": [
            {"p": c.p.render(), "cofactor": c.cofactor.render()} for c in report.certs
        ],
        "pencils": [_pencil_json(p) for p in report.pencils],
        "degree_bound": report.degree_bound,
        "complete_up_to_bound": report.complete_up_to_bound,
    }


def _ore_json(f):
    return {
        "rendered": f.render(),
        "coefficients": [c.render() for c in f.coeffs],
    }


def _ore_context(args):
    ring = args.ring
    if ring not in (POLY_UNI, POLY_BI):
        raise DomainError("operator verbs support poly1 and poly2")
    if ring == POLY_UNI:
        from .parse import parse_polynomial

        parts = args.deriv.split("=", 1)
        if len(parts) != 2 or parts[0].strip() != "dx":
            raise ParseError("derivation must look like dx=<poly>", 0)
        dx_uni = parse_polynomial(parts[1].strip(), POLY_UNI)
        deriv = Derivation(BiPoly.from_uni(dx_uni), BiPoly.zero())
    else:
        deriv = parse_derivation(args.deriv, POLY_BI)
    return OreContext(ring, deriv)


def _cmd_decide(args):
    deriv = parse_derivation(args.deriv, args.ring)
    verdict = decide(args.ring, deriv, args.bound)
    doc_result = {
        "status": verdict.status,
        "certified": verdict.certified,
        "evidence_bound": verdict.evidence_bound,
    }
    trace = [c.to_json() for c in verdict.trace]
    lines = [
        f"status: {verdict.status}",
        f"certified: {'yes' if verdict.certified else 'no'}",
        f"evidence bound: {verdict.evidence_bound}",
    ] + [f"  - {c.describe()}" for c in verdict.trace]
    code = 2 if verdict.status == UNKNOWN else 0
    inputs = {"ring": args.ring, "deriv": render_derivation(deriv)}
    return doc_result, trace, lines, code, inputs


def _cmd_darboux(args):
    deriv = parse_derivation(args.deriv, POLY_BI)
    report = darboux_search(deriv, args.bound)
    result = _report_json(report)
    lines = [f"degree bound: {report.degree_bound}"]
    for c in report.certs:
        lines.append(f"darboux: {c.p.render()}  (cofactor {c.cofactor.render()})")
    for p in report.pencils:
        lines.append(
            f"pencil: {p.p.render()} + t*({p.q.render()})  (cofactor {p.cofactor.render()})"
        )
    lines.append(
        "complete up to bound" if report.complete_up_to_bound else "search incomplete at this bound"
    )
    code = 0 if report.complete_up_to_bound else 2
    inputs = {"ring": POLY_BI, "deriv": render_derivation(deriv)}
    return result, [], lines, code, inputs


def _cmd_primitive(args):
    deriv = parse_derivation(args.deriv, POLY_BI)
    verdict = classify_primitivity(deriv, args.bound)
    cert = PrimitivityCert(verdict)
    result = cert.to_json()
    lines = [cert.describe()]
    code = 0 if isinstance(verdict, (NotPrimitive, PrimitiveCertified)) else 2
    inputs = {"ring": POLY_BI, "deriv": render_derivation(deriv)}
    return result, [], lines, code, inputs


def _cmd_simple(args):
    if args.ring not in (POLY_UNI, LAURENT_UNI):
        raise DomainError("delta-simplicity is decided for poly1 and laurent1 only")
    deriv = parse_derivation(args.deriv, args.ring)
    answer = delta_simple_dim1_check(args.ring, deriv)
    result = {"delta_simple": answer}
    lines = [f"delta-simple: {'yes' if answer else 'no'}"]
    inputs = {"ring": args.ring, "deriv": render_derivation(deriv)}
    return result, [], lines, 0, inputs


def _cmd_ore_mul(args):
    ctx = _ore_context(args)
    f = parse_ore(args.f, args.ring)
    g = parse_ore(args.g, args.ring)
    product = mul(ctx, f, g)
    result = {"product": _ore_json(product)}
    lines = [f"product: {product.render()}"]
    inputs = {
        "ring": args.ring,
        "deriv": args.deriv,
        "f": f.render(),
        "g": g.render(),
    }
    return result, [], lines, 0, inputs


def _cmd_witness(args):
    ctx = _ore_context(args)
    f = parse_ore(args.f, args.ring)
    from .parse import parse_polynomial

    if args.ring == POLY_UNI:
        x_elt = BiPoly.from_uni(parse_polynomial(args.x, POLY_UNI))
    else:
        x_elt = parse_polynomial(args.x, POLY_BI)
    cert = essential_witness(ctx, f, x_elt)
    result = {
        "h": _ore_json(cert.h),
        "r": cert.r.render(),
        "identity": "x^(n+1)*f = h*t*x + r*x",
    }
    lines = [f"h = {cert.h.render()}", f"r = {cert.r.render()}"]
    inputs = {"ring": args.ring, "deriv": args.deriv, "f": f.render(), "x": x_elt.render()}
    return result, [], lines, 0, inputs


def _cmd_first_integral(args):
    deriv = parse_derivation(args.deriv, POLY_BI)
    pencil = first_integral_search(deriv, args.bound)
    if pencil is None:
        result = {"found": False}
        lines = [f"no rational first integral up to degree {args.bound}"]
        code = 2
    else:
        result = {"found": True, "pencil": _pencil_json(pencil)}
        lines = [
            f"first integral: ({pencil.p.render()}) / ({pencil.q.render()})",
            f"shared cofactor: {pencil.cofactor.render()}",
        ]
        code = 0
    inputs = {"ring": POLY_BI, "deriv": render_derivation(deriv)}
    return result, [], lines, code, inputs


_HANDLERS = {
    "decide": _cmd_decide,
    "darboux": _cmd_darboux,
    "primitive": _cmd_primitive,
    "simple": _cmd_simple,
    "ore-mul": _cmd_ore_mul,
    "witness": _cmd_witness,
    "first-integral": _cmd_first_integral,
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="orediamond",
        description="Exact certificates for differential operator rings over Q[x], Q[x,x^-1], Q[x,y]",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def common(p, ring_default=POLY_BI, rings=(POLY_UNI, LAURENT_UNI, POLY_BI)):
        p.add_argument("--ring", choices=rings, default=ring_default)
        p.add_argument("--deriv", required=True, help="dx=<poly> or dx=<poly>; dy=<poly>")
        p.add_argument("--bound", type=int, default=6, help="Darboux degree bound")
        p.add_argument("--json", action="store_true")

    common(sub.add_parser("decide"))
    common(sub.add_parser("darboux"), rings=(POLY_BI,))
    common(sub.add_parser("primitive"), rings=(POLY_BI,))
    common(sub.add_parser("simple"), ring_default=POLY_UNI, rings=(POLY_UNI, LAURENT_UNI))
    p = sub.add_parser("ore-mul")
    common(p, ring_default=POLY_UNI, rings=(POLY_UNI, POLY_BI))
    p.add_argument("--f", required=True)
    p.add_argument("--g", required=True)
    p = sub.add_parser("witness")
    common(p, ring_default=POLY_UNI, rings=(POLY_UNI, POLY_BI))
    p.add_argument("--f", required=True)
    p.add_argument("--x", required=True, help="the ring element of the witness")
    common(sub.add_parser("first-integral"), rings=(POLY_BI,))
    return parser


def run_command(args):
    """Dispatch a parsed command; returns (document, lines, exit_code)."""
    result, trace, lines, code, inputs = _HANDLERS[args.verb](args)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "verb": args.verb,
        "inputs": inputs,
        "result": result,
        "trace": trace,
    }
    return doc, lines, code


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        doc, lines, code = run_command(args)
    except (ParseError, DomainError, ValueError) as exc:
        if getattr(args, "json", False):
            print(json.dumps({"schema_version": SCHEMA_VERSION, "verb": args.verb, "error": str(exc)}))
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        for line in lines:
            print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())
