"""Command-line front end.

Verbs: decide, darboux, primitive, simple, ore-mul, witness,
first-integral.  Every verb takes --ring and --deriv, and the four that
run the Darboux search (decide, darboux, primitive, first-integral) take
--bound; argparse limits each verb to the rings it supports, and
run_command parses the derivation once for all of them.  Output is a
human-readable trace by default or a stable JSON document with --json.
Exit codes: 0 decided/complete, 2 unknown/absent/incomplete, 1 errors.
"""

import argparse
import json
import os
import sys

from .poly import BiPoly, DomainError
from .derivation import Derivation
from .darboux import darboux_search, first_integral_search
from .diamond import (
    LAURENT_UNI,
    POLY_BI,
    POLY_UNI,
    UNKNOWN,
    classify_primitivity,
    decide,
    delta_simple_dim1_check,
)
from .ore import OreContext, essential_witness, mul, render_coefficients
from .parse import (
    ParseError,
    parse_derivation,
    parse_ore,
    parse_polynomial,
    render_derivation,
)

SCHEMA_VERSION = "1.0"


def _ore_json(f):
    coefficients = [c.render() for c in f.coeffs]
    return {"rendered": render_coefficients(coefficients), "coefficients": coefficients}


def _ore_context(args, deriv):
    """The operator ring of the arguments; poly1's derivation becomes a
    Derivation of Q[x, y] that does not move y."""
    if args.ring == POLY_UNI:
        deriv = Derivation(BiPoly.from_uni(deriv.dx), BiPoly.zero())
    return OreContext(args.ring, deriv)


def _cmd_decide(args, deriv, inputs):
    verdict = decide(args.ring, deriv, args.bound)
    result = verdict.to_json()
    trace = result.pop("trace")
    lines = [
        f"status: {verdict.status}",
        f"certified: {'yes' if verdict.certified else 'no'}",
        f"evidence bound: {verdict.evidence_bound}",
    ] + [f"  - {c.describe()}" for c in verdict.trace]
    return result, trace, lines, 2 if verdict.status == UNKNOWN else 0


def _cmd_darboux(args, deriv, inputs):
    report = darboux_search(deriv, args.bound)
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
    return report.to_json(), [], lines, 0 if report.complete_up_to_bound else 2


def _cmd_primitive(args, deriv, inputs):
    step = classify_primitivity(deriv, args.bound)
    return step.to_json(), [], [step.describe()], 2 if step.status == "primitive_evidence" else 0


def _cmd_simple(args, deriv, inputs):
    answer = delta_simple_dim1_check(args.ring, deriv)
    return {"delta_simple": answer}, [], [f"delta-simple: {'yes' if answer else 'no'}"], 0


def _cmd_ore_mul(args, deriv, inputs):
    ctx = _ore_context(args, deriv)
    f = parse_ore(args.f, args.ring)
    g = parse_ore(args.g, args.ring)
    product = _ore_json(mul(ctx, f, g))
    inputs.update(f=f.render(), g=g.render())
    return {"product": product}, [], [f"product: {product['rendered']}"], 0


def _cmd_witness(args, deriv, inputs):
    ctx = _ore_context(args, deriv)
    f = parse_ore(args.f, args.ring)
    x_elt = parse_polynomial(args.x, args.ring)
    if args.ring == POLY_UNI:
        x_elt = BiPoly.from_uni(x_elt)
    cert = essential_witness(ctx, f, x_elt)
    h, r = _ore_json(cert.h), cert.r.render()
    result = {"h": h, "r": r, "identity": "x^(n+1)*f = h*t*x + r*x"}
    inputs.update(f=f.render(), x=x_elt.render())
    return result, [], [f"h = {h['rendered']}", f"r = {r}"], 0


def _cmd_first_integral(args, deriv, inputs):
    pencil = first_integral_search(deriv, args.bound)
    if pencil is None:
        return {"found": False}, [], [f"no rational first integral up to degree {args.bound}"], 2
    lines = [
        f"first integral: ({pencil.p.render()}) / ({pencil.q.render()})",
        f"shared cofactor: {pencil.cofactor.render()}",
    ]
    return {"found": True, "pencil": pencil.to_json()}, [], lines, 0


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
        p.add_argument("--json", action="store_true")

    searching = argparse.ArgumentParser(add_help=False)  # the verbs that run the Darboux search
    searching.add_argument("--bound", type=int, default=6, help="Darboux degree bound")
    common(sub.add_parser("decide", parents=[searching]))
    common(sub.add_parser("darboux", parents=[searching]), rings=(POLY_BI,))
    common(sub.add_parser("primitive", parents=[searching]), rings=(POLY_BI,))
    common(sub.add_parser("simple"), ring_default=POLY_UNI, rings=(POLY_UNI, LAURENT_UNI))
    p = sub.add_parser("ore-mul")
    common(p, ring_default=POLY_UNI, rings=(POLY_UNI, POLY_BI))
    p.add_argument("--f", required=True)
    p.add_argument("--g", required=True)
    p = sub.add_parser("witness")
    common(p, ring_default=POLY_UNI, rings=(POLY_UNI, POLY_BI))
    p.add_argument("--f", required=True)
    p.add_argument("--x", required=True, help="the ring element of the witness")
    common(sub.add_parser("first-integral", parents=[searching]), rings=(POLY_BI,))
    return parser


def run_command(args):
    """Dispatch a parsed command; returns (document, lines, exit_code).
    The derivation is parsed here, once, in the ring --ring names; each
    handler gets (args, deriv, inputs), where inputs echoes the ring and
    the derivation's canonical text and may gain the verb's operands,
    and returns (result, trace, lines, exit_code)."""
    deriv = parse_derivation(args.deriv, args.ring)
    inputs = {"ring": args.ring, "deriv": render_derivation(deriv)}
    result, trace, lines, code = _HANDLERS[args.verb](args, deriv, inputs)
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
        lines = [json.dumps(doc, indent=2, sort_keys=True)] if args.json else lines
    except (ParseError, DomainError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        error = {"schema_version": SCHEMA_VERSION, "verb": args.verb, "error": str(exc)}
        lines, code = ([json.dumps(error)] if args.json else []), 1
    try:
        sys.stdout.writelines(line + "\n" for line in lines)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader left: on devnull the interpreter's last flush succeeds
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
