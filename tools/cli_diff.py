"""Byte-identity check of the CLI between two trees of the repository.

    python3 tools/cli_diff.py --parent PARENT_TREE --change CHANGE_TREE --out FILE

Each tree is a checkout of the repository (src, orebench, tests).  One
fixed corpus of argv lists, built from this script's own tree, runs in
each tree: one worker subprocess per tree, with that tree's src first on
sys.path, calls orediamond.cli.main in process for every argv and records
its stdout, stderr and exit code.  A query that runs past TIMEOUT_S is
recorded as "timeout".  The two trees run at the same time.

The corpus, each query as text and with --json:
- the named corpus of orebench/workloads.NAMED under decide 6, darboux 6,
  darboux 8, darboux 12, primitive 6 and 12, and first-integral 8 and 12
  (at 12 the first-pencil stop skips the most degrees);
- the survey, the first 150 workloads.random_derivation(random.Random(7))
  fields without the three that hang (HANGS), under decide 6, darboux 6,
  darboux 8, primitive 6 and first-integral 6;
- the Shamsuddin fields, SHAMSUDDIN_SIZE seeded fields dx = k, dy =
  a(x)*y + b(x) with deg a, deg b <= 3 (shamsuddin_fields), under decide
  6, darboux 6, darboux 8 and first-integral 6 (the search's delta-simple
  exit answers most of them);
- the Laurent fields, LAURENT_SIZE seeded dx on laurent1 with one to
  three terms of exponent -3..3 (laurent_fields), under decide and simple;
- every argv of the CLI pins in tests/*_cli_pins.json;
- the ore-mul and witness queries of the ore-witness workload for the
  seeds ORE_SEEDS (workloads.build), at the benchmark's shape: theta-degree
  8, with a bivariate linear witness element;
- the Ore block (ore_block), outside that shape: seeded operators of
  theta-degree 0 to 4 with rational coefficients and zero middle
  coefficients, under ore-mul and witness, on poly1 and on poly2 with
  rational coefficients in delta and with a constant field, and one
  product and one witness under Lotka-Volterra with exponents near the
  parser's cap of 1000;
- the reach block (REACH): queries that reach code of the verbs that no
  other block reaches.  Three call unifactor._quadratic_factor on a
  quartic with no rational root: darboux on a field whose top part has
  the factor x^4 + 1, which has no quadratic factor over Q, and witness
  on poly1 with x = x^4 + 2, which has none either, and x = x^4 + 4,
  whose factor x^2 - 2x + 2 makes the witness exit 1 as reducible.
  darboux 6 and 8 on dx = -6y^5, dy = x^5 + 5x^2y^3, whose top part
  M = (x^3 + 2y^3)(x^3 + 3y^3) _top_atoms does not factor with a
  certificate, run the cascade without the cofactor table.  darboux 6
  and 8 on dx = -2x^2y + x^2 + x + y^2, dy = x^2 - 2xy^2 + 2xy + y, whose
  M is 0 with d = 3, read the table past level 2, which has cofactor
  columns.  The search runs on L*delta, L clearing the denominators of delta, and
  five fields with rational coefficients check that the scaling leaves
  every answer as it was: darboux 6 and 8 and decide 6 on dx = 1/2x^2y +
  y, dy = -xy^2 + x, whose top part has the coefficient 1/2; darboux 6
  and first-integral 6 on the constant field (1/2, 1/3), which takes the
  kernel path with d = 0; darboux 6 and decide 6 on (x/2 + 1, y/2 -
  2/3), where M = 0 and d = 1; and darboux 6 and decide 6 on (xy/2 +
  y/3, 2y^2/5), where g = y, so delta's own run is scaled too.  decide 4
  on dx = -xy^2 - 2y, dy = -y^3 audits the member at t = infinity, y^2,
  of the pencil (xy + 1, y^2) of delta/y.  One product has a zero
  operand, and two derivations have a syntax error: a missing exponent,
  and the non-ASCII digit in x^².

FILE gets every argv whose outcomes differ, with both sides.  The exit
code is 1 when some argv differs, 2 when a worker stops early, else 0.
Standard library only.
"""

import argparse
import json
import random
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
TIMEOUT_S = 60
SURVEY_SIZE = 150
HANGS = ("r74", "r114", "r131")  # rational_roots runs for minutes on these
SHAMSUDDIN_SIZE = 30
LAURENT_SIZE = 40
ORE_SEEDS = (3001, 3002, 3003)
PIN_FILES = ("planar_cli_pins.json", "univariate_cli_pins.json", "ore_cli_pins.json")
NAMED_QUERIES = (
    ("decide", 6),
    ("darboux", 6),
    ("darboux", 8),
    ("darboux", 12),
    ("primitive", 6),
    ("primitive", 12),
    ("first-integral", 8),
    ("first-integral", 12),
)
SURVEY_QUERIES = (("decide", 6), ("darboux", 6), ("darboux", 8), ("primitive", 6), ("first-integral", 6))
SHAMSUDDIN_QUERIES = (("decide", 6), ("darboux", 6), ("darboux", 8), ("first-integral", 6))
ORE_BLOCK_PER_FIELD = 3  # ore-mul queries per field of the Ore block
# (ring, derivation, witness elements) of the Ore block: each element
# meets the witness hypotheses under its field
ORE_BLOCK_FIELDS = (
    ("poly1", "dx=1", ("x", "x^2 + 1")),
    ("poly1", "dx=1/2*x^2 - 3", ("x + 2", "x - 1/3")),
    ("poly2", "dx=1/2*x - 3/7*x*y; dy=2/5*y^2 + 1/3", ("y + 1", "2*x - y + 3")),
    ("poly2", "dx=2; dy=-3", ("x + y", "1/2*x - 5*y + 2")),
)
ORE_NEAR_CAP = (
    ["ore-mul", "--ring", "poly2", "--deriv", "dx=x - x*y; dy=x*y - y",
     "--f", "y^1000*t^2 - 3*x*y*t^2 + x", "--g", "y^999*t - x^1000"],
    ["witness", "--ring", "poly2", "--deriv", "dx=x - x*y; dy=x*y - y",
     "--f", "y^1000*t^2 + x*t + y^999", "--x", "2*x - y + 3"],
)
REACH = (
    ["darboux", "--ring", "poly2", "--deriv", "dx=y^3; dy=-1*x^3", "--bound", "3"],
    ["witness", "--ring", "poly1", "--deriv", "dx=1", "--f", "t", "--x", "x^4 + 2"],
    ["witness", "--ring", "poly1", "--deriv", "dx=1", "--f", "t", "--x", "x^4 + 4"],
    ["darboux", "--ring", "poly2", "--deriv", "dx=-6*y^5; dy=x^5 + 5*x^2*y^3", "--bound", "6"],
    ["darboux", "--ring", "poly2", "--deriv", "dx=-6*y^5; dy=x^5 + 5*x^2*y^3", "--bound", "8"],
    ["darboux", "--ring", "poly2", "--deriv", "dx=-2*x^2*y + x^2 + x + y^2; dy=x^2 - 2*x*y^2 + 2*x*y + y", "--bound", "6"],
    ["darboux", "--ring", "poly2", "--deriv", "dx=-2*x^2*y + x^2 + x + y^2; dy=x^2 - 2*x*y^2 + 2*x*y + y", "--bound", "8"],
    ["darboux", "--ring", "poly2", "--deriv", "dx=1/2*x^2*y + y; dy=-1*x*y^2 + x", "--bound", "6"],
    ["darboux", "--ring", "poly2", "--deriv", "dx=1/2*x^2*y + y; dy=-1*x*y^2 + x", "--bound", "8"],
    ["decide", "--ring", "poly2", "--deriv", "dx=1/2*x^2*y + y; dy=-1*x*y^2 + x", "--bound", "6"],
    ["decide", "--ring", "poly2", "--deriv", "dx=-1*x*y^2 - 2*y; dy=-1*y^3", "--bound", "4"],
    ["ore-mul", "--ring", "poly1", "--deriv", "dx=1", "--f", "0", "--g", "t"],
    ["decide", "--ring", "poly2", "--deriv", "dx=x^; dy=1", "--bound", "6"],
    ["darboux", "--ring", "poly2", "--deriv", "dx=1/2; dy=1/3", "--bound", "6"],
    ["first-integral", "--ring", "poly2", "--deriv", "dx=1/2; dy=1/3", "--bound", "6"],
    ["darboux", "--ring", "poly2", "--deriv", "dx=1/2*x + 1; dy=1/2*y - 2/3", "--bound", "6"],
    ["decide", "--ring", "poly2", "--deriv", "dx=1/2*x + 1; dy=1/2*y - 2/3", "--bound", "6"],
    ["darboux", "--ring", "poly2", "--deriv", "dx=1/2*x*y + 1/3*y; dy=2/5*y^2", "--bound", "6"],
    ["decide", "--ring", "poly2", "--deriv", "dx=1/2*x*y + 1/3*y; dy=2/5*y^2", "--bound", "6"],
    ["decide", "--ring", "poly2", "--deriv", "dx=x^\N{SUPERSCRIPT TWO}; dy=1", "--bound", "6"],
)

# Runs in each tree: argv lists on stdin as one JSON list, one JSON
# outcome per line on stdout.
WORKER = r"""
import contextlib, io, json, signal, sys

sys.path.insert(0, "src")
from orediamond import cli

class Timeout(BaseException):
    pass

def alarm(signum, frame):
    raise Timeout

signal.signal(signal.SIGALRM, alarm)
out = sys.stdout
for argv in json.load(sys.stdin):
    stdout, stderr = io.StringIO(), io.StringIO()
    signal.alarm(int(sys.argv[1]))
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
    except Timeout:
        code = "timeout"
    except Exception as exc:
        code = "exception: " + type(exc).__name__
        stderr.write(repr(exc))
    finally:
        signal.alarm(0)
    out.write(json.dumps({"out": stdout.getvalue(), "err": stderr.getvalue(), "code": code}) + "\n")
    out.flush()
"""


def _orebench():
    """The workloads and oracle modules of this tree's orebench."""
    if str(ROOT / "orebench") not in sys.path:
        sys.path.insert(0, str(ROOT / "orebench"))
    import oracle
    import workloads

    return workloads, oracle


def survey():
    """[(label, dx, dy)] of the survey fields that do not hang, as text."""
    workloads, oracle = _orebench()
    rng = random.Random(7)
    fields = [workloads.random_derivation(rng) for _ in range(SURVEY_SIZE)]
    return [
        (f"r{i}", oracle.render(dx), oracle.render(dy)) for i, (dx, dy) in enumerate(fields) if f"r{i}" not in HANGS
    ]


def shamsuddin_fields():
    """[(label, dx, dy)] of the Shamsuddin fields, as text: k nonzero and a
    nonzero, so that decide reaches shamsuddin_analyze.  Every third has
    b = k*c' - a*c for some c(x) of degree <= 3 - deg a, so that c' = (a*c +
    b)/k has a solution; the others mostly have none."""
    _, oracle = _orebench()
    rng = random.Random(25)

    def poly_in_x(deg):
        """Degree deg, its lower coefficients in [-5, 5]."""
        lower = {(i, 0): oracle.Fraction(rng.randint(-5, 5)) for i in range(deg)}
        return oracle.add(lower, {(deg, 0): oracle.Fraction(rng.choice((-2, -1, 1, 3)))})

    out = []
    for n in range(SHAMSUDDIN_SIZE):
        k = rng.choice((-3, -1, 1, 2, 5))
        deg_a = rng.randint(0, 3)
        a = poly_in_x(deg_a)
        if n % 3 == 0:
            c = poly_in_x(rng.randint(0, 3 - deg_a))
            b = oracle.add(oracle.scale(oracle.partial(c, 0), k), oracle.scale(oracle.mul(a, c), -1))
        else:
            b = poly_in_x(rng.randint(0, 3))
        dy = oracle.add(oracle.mul(a, {(0, 1): oracle.Fraction(1)}), b)
        out.append((f"s{n}", str(k), oracle.render(dy)))
    return out


def laurent_fields():
    """[dx] of the Laurent fields, as text: one to three terms c*x^n with
    distinct n in -3..3 and c nonzero, in a seeded order."""
    rng = random.Random(28)
    out = []
    for _ in range(LAURENT_SIZE):
        exps = rng.sample(range(-3, 4), rng.randint(1, 3))
        terms = [(n, rng.choice(("-3", "-1", "1", "2", "1/2", "-3/2"))) for n in exps]
        text = " + ".join(c if n == 0 else f"{c}*x^{n}" for n, c in terms)
        out.append(text.replace("+ -", "- "))
    return out


def ore_block():
    """The argv lists of the Ore block, without --json.  Each operator has
    theta-degree 0 to 4; each coefficient below the leading one is zero
    with chance 1/4, and every other one has one to four terms of total
    degree <= 3 (in x alone on poly1), each coefficient drawn from 1, -2,
    1/2, -3/7 and 5/3."""
    _, oracle = _orebench()
    rng = random.Random(32)
    coeffs = [oracle.Fraction(c) for c in ("1", "-2", "1/2", "-3/7", "5/3")]

    def operator(ring):
        monomials = [(i, s - i) for s in range(4) for i in range(s + 1) if ring == "poly2" or i == s]
        out = []
        for k in range(rng.randint(0, 4) + 1):
            c = {}
            if k == 0 or rng.random() >= 0.25:
                for m in rng.sample(monomials, rng.randint(1, 4)):
                    oracle.add_term(c, m, rng.choice(coeffs))
            out.append(c)
        while not out[-1]:
            out[-1] = {(0, 0): rng.choice(coeffs)}
        return oracle.render_ore(out)

    out = []
    for ring, deriv, elements in ORE_BLOCK_FIELDS:
        common = ["--ring", ring, "--deriv", deriv]
        out += [["ore-mul", *common, "--f", operator(ring), "--g", operator(ring)] for _ in range(ORE_BLOCK_PER_FIELD)]
        out += [["witness", *common, "--f", operator(ring), "--x", x] for x in elements]
    return out + [list(argv) for argv in ORE_NEAR_CAP]


def _planar(verb, bound, dx, dy):
    return [verb, "--ring", "poly2", "--deriv", f"dx={dx}; dy={dy}", "--bound", str(bound)]


def corpus():
    """The argv lists, each once, in a fixed order."""
    workloads, _ = _orebench()
    base = [_planar(verb, bound, dx, dy) for verb, bound in NAMED_QUERIES for _, dx, dy, _, _ in workloads.NAMED]
    base += [_planar(verb, bound, dx, dy) for verb, bound in SURVEY_QUERIES for _, dx, dy in survey()]
    base += [_planar(verb, bound, dx, dy) for verb, bound in SHAMSUDDIN_QUERIES for _, dx, dy in shamsuddin_fields()]
    base += [[verb, "--ring", "laurent1", "--deriv", f"dx={dx}"] for verb in ("decide", "simple") for dx in laurent_fields()]
    base += ore_block()
    base += [list(argv) for argv in REACH]
    out = [argv for plain in base for argv in (plain, plain + ["--json"])]
    for name in PIN_FILES:
        out += [pin["argv"] for pin in json.loads((ROOT / "tests" / name).read_text())]
    out += [query.argv for seed in ORE_SEEDS for query in workloads.build(workloads.ORE, seed)]
    return [list(argv) for argv in dict.fromkeys(map(tuple, out))]


def differences(argvs, parent, change):
    """[{"argv", "parent", "change"}] for each argv whose outcomes (out,
    err, code) differ between the two sides."""
    return [
        {"argv": argv, "parent": p, "change": c} for argv, p, c in zip(argvs, parent, change) if p != c
    ]


def _start(tree, argvs):
    """The worker of one tree, its outcomes going to a temporary file so
    that neither worker waits on a full pipe."""
    sink = tempfile.TemporaryFile("w+")
    worker = subprocess.Popen(
        [sys.executable, "-c", WORKER, str(TIMEOUT_S)], cwd=tree, stdin=subprocess.PIPE, stdout=sink, text=True
    )
    worker.stdin.write(json.dumps(argvs))
    worker.stdin.close()
    return worker, sink


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", type=Path, required=True, help="tree of the parent commit")
    ap.add_argument("--change", type=Path, required=True, help="tree of the change")
    ap.add_argument("--out", type=Path, required=True, help="JSON file for the differences")
    args = ap.parse_args(argv)
    argvs = corpus()
    workers = {side: _start(getattr(args, side), argvs) for side in SIDES}
    outcomes = {}
    for side, (worker, sink) in workers.items():
        worker.wait()
        with sink:
            sink.seek(0)
            outcomes[side] = [json.loads(line) for line in sink]
    for side, (worker, _) in workers.items():
        if worker.returncode != 0 or len(outcomes[side]) != len(argvs):
            print(f"cli_diff: the {side} worker stopped after {len(outcomes[side])} of {len(argvs)} queries", file=sys.stderr)
            return 2
    diffs = differences(argvs, outcomes["parent"], outcomes["change"])
    timeouts = {side: sum(o["code"] == "timeout" for o in outcomes[side]) for side in SIDES}
    report = {"queries": len(argvs), "timeouts": timeouts, "differences": diffs}
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"{len(argvs)} queries, {len(diffs)} differ; timeouts {timeouts}")
    for d in diffs:
        print("  " + " ".join(d["argv"]))
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
