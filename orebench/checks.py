"""Answer checks.  They run outside the timed region and need no golden
files: every certificate is re-parsed and re-verified with the
benchmark's own arithmetic (oracle.py), every document is validated
against the program's published JSON schema, and the named corpus is
compared with the answers recorded in workloads.NAMED.
"""

import hashlib
import json

import jsonschema

import oracle


def schema_errors(doc, schema):
    """Errors of doc against the program's published JSON schema."""
    validator = jsonschema.validators.validator_for(schema)(schema)
    return [f"{error.json_path}: {error.message}" for error in validator.iter_errors(doc)]


def digest(doc):
    """Short hash of an answer's defining fields: the result object and
    the trace, which holds decide's certificate chain."""
    text = json.dumps([doc.get("result"), doc.get("trace")], sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _darboux_errors(deriv, entry, where, with_cofactor):
    """Re-verify a Darboux certificate or pencil.  decide searches the
    derivation divided by gcd(dx, dy), so its cofactors belong to that
    quotient; there only the first-integral identity is checked."""
    p = oracle.parse_poly(entry["p"])
    c = oracle.parse_poly(entry["cofactor"])
    dp = oracle.apply(deriv, p)
    errors = []
    if "q" not in entry and (not p or set(p) == {(0, 0)}):
        errors.append(f"{where}: constant Darboux polynomial {entry['p']}")
    if with_cofactor and dp != oracle.mul(c, p):
        errors.append(f"{where}: delta(p) != c*p for p={entry['p']}")
    if "q" in entry:
        q = oracle.parse_poly(entry["q"])
        dq = oracle.apply(deriv, q)
        if not q or (with_cofactor and dq != oracle.mul(c, q)):
            errors.append(f"{where}: delta(q) != c*q for q={entry['q']}")
        if oracle.mul(q, dp) != oracle.mul(p, dq):
            errors.append(f"{where}: q*delta(p) != p*delta(q)")
    return errors


def _certificates(node, where):
    """Every {p, cofactor[, q]} object inside a document."""
    if isinstance(node, dict):
        if "p" in node and "cofactor" in node:
            yield where, node
        for key, value in node.items():
            yield from _certificates(value, f"{where}.{key}")
    elif isinstance(node, list):
        for n, value in enumerate(node):
            yield from _certificates(value, f"{where}[{n}]")


def _ore(entry):
    return oracle.trim(oracle.parse_poly(c) for c in entry["coefficients"])


def _witness_errors(query, result):
    h = _ore(result["h"])
    r = oracle.parse_poly(result["r"])
    x, f, deriv = query.x, query.f, query.deriv
    n = len(f) - 1
    x_power = {(0, 0): oracle.Fraction(1)}
    for _ in range(n + 1):
        x_power = oracle.mul(x_power, x)
    lhs = oracle.trim([oracle.mul(x_power, c) for c in f])
    theta_x = oracle.theta_times(deriv, [x])
    rhs = oracle.ore_add(oracle.ore_mul(deriv, h, theta_x), [oracle.mul(r, x)])
    errors = []
    if not r:
        errors.append("witness remainder r is zero")
    if lhs != rhs:
        errors.append("x^(n+1)*f != h*t*x + r*x")
    return errors


def answer_errors(query, doc, schema):
    """Problems with one answer; an empty list means it checks out."""
    errors = schema_errors(doc, schema)
    if errors:
        return errors
    if doc.get("verb") != query.verb or "result" not in doc:
        return [f"document for verb {doc.get('verb')!r}, expected {query.verb!r}"]
    result = doc["result"]
    errors += [
        f"{key} = {result.get(key)!r}, recorded {value!r}"
        for key, value in query.expect.items()
        if result.get(key) != value
    ]
    if query.verb == "decide":
        if result.get("status") not in ("Diamond", "NotDiamond", "Unknown"):
            errors.append(f"unknown status {result.get('status')!r}")
        if result.get("evidence_bound") != query.bound:
            errors.append("evidence_bound differs from the requested bound")
    elif query.verb == "darboux" and result.get("degree_bound") != query.bound:
        errors.append("degree_bound differs from the requested bound")
    if query.verb in ("decide", "darboux"):
        for where, entry in _certificates(doc, "$"):
            errors += _darboux_errors(query.deriv, entry, where, query.verb == "darboux")
    elif query.verb == "ore-mul":
        if _ore(result["product"]) != oracle.ore_mul(query.deriv, query.f, query.g):
            errors.append("product differs from the term-by-term skew product")
    elif query.verb == "witness":
        errors += _witness_errors(query, result)
    return errors
