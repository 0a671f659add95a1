"""tools/cli_diff.py: the comparison on canned outcomes, and its fixed
corpus; no worker is started."""

import contextlib
import importlib.util
import io
import json
from pathlib import Path

from orediamond import BiPoly, cli, darboux, linalg, unifactor
from orediamond.derivation import _shamsuddin_shape, shamsuddin_analyze
from orediamond.parse import parse_derivation, parse_ore

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("cli_diff", ROOT / "tools" / "cli_diff.py")
cli_diff = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(cli_diff)

SAME = {"out": "status: Diamond\n", "err": "", "code": 0}


def test_identical_outcomes_report_nothing():
    argvs = [["decide"], ["darboux"]]
    assert cli_diff.differences(argvs, [SAME, dict(SAME)], [dict(SAME), SAME]) == []


def test_each_part_of_an_outcome_is_compared():
    changed = [
        {**SAME, "out": "status: Unknown\n"},
        {**SAME, "err": "error: bound must be at least 1\n"},
        {**SAME, "code": 2},
        {**SAME, "code": "timeout"},
    ]
    argvs = [[f"q{k}"] for k in range(len(changed) + 1)]
    found = cli_diff.differences(argvs, [SAME] * len(argvs), changed + [SAME])
    assert found == [{"argv": a, "parent": SAME, "change": c} for a, c in zip(argvs, changed)]


def test_survey_leaves_out_the_hangs():
    fields = {label: (dx, dy) for label, dx, dy in cli_diff.survey()}
    assert len(fields) == 147
    assert not set(cli_diff.HANGS) & set(fields)
    assert fields["r142"] == ("3*x*y + 3*y", "2*y^2")


def test_corpus_runs_each_query_once_and_every_pin():
    corpus = cli_diff.corpus()
    keys = [tuple(argv) for argv in corpus]
    assert len(keys) == len(set(keys))
    for name in cli_diff.PIN_FILES:
        for pin in json.loads((ROOT / "tests" / name).read_text()):
            assert tuple(pin["argv"]) in keys
    r142 = ["primitive", "--ring", "poly2", "--deriv", "dx=3*x*y + 3*y; dy=2*y^2", "--bound", "6"]
    assert r142 in corpus and r142 + ["--json"] in corpus
    # r114, one of the hangs, is in no query
    assert not any("dx=5*x^2; dy=3*y^2 - 4*y - 5" in argv for argv in corpus)
    named = [argv for argv in corpus if argv[4] == "dx=x; dy=y" and argv[0] == "darboux"]
    assert {argv[6] for argv in named} == {"6", "8", "12"}
    # the survey runs darboux at 6 and 8, r142 among its fields
    for bound in ("6", "8"):
        r142 = ["darboux", "--ring", "poly2", "--deriv", "dx=3*x*y + 3*y; dy=2*y^2", "--bound", bound]
        assert r142 in corpus and r142 + ["--json"] in corpus
    survey = [argv for argv in corpus if argv[0] == "darboux" and argv[6] == "8" and "--json" not in argv]
    # the survey, the named corpus, the Shamsuddin fields and the reach
    # block's field without a certified factorization of M, its field
    # with M = 0 and its field with a rational top part
    assert len(survey) == 147 + 10 + cli_diff.SHAMSUDDIN_SIZE + 3
    # at bound 6 the reach block adds its three other rational fields and
    # its field whose gcd has a content in y
    at_6 = [argv for argv in corpus if argv[0] == "darboux" and argv[6] == "6" and "--json" not in argv]
    assert len(at_6) == 147 + 10 + cli_diff.SHAMSUDDIN_SIZE + 3 + 3 + 1
    assert len(corpus) == 2260


def test_corpus_runs_the_shamsuddin_fields_under_decide_and_the_search():
    corpus = cli_diff.corpus()
    fields = cli_diff.shamsuddin_fields()
    assert len(fields) == cli_diff.SHAMSUDDIN_SIZE == 30
    statuses = []
    for _, dx, dy in fields:
        for verb, bound in (("decide", "6"), ("darboux", "6"), ("darboux", "8"), ("first-integral", "6")):
            argv = [verb, "--ring", "poly2", "--deriv", f"dx={dx}; dy={dy}", "--bound", bound]
            assert argv in corpus and argv + ["--json"] in corpus
        # each field reaches shamsuddin_analyze, with deg a, deg b <= 3
        a, b = _shamsuddin_shape(parse_derivation(f"dx={dx}; dy={dy}", "poly2"))
        assert a.degree() <= 3 and b.degree() <= 3
        statuses.append(shamsuddin_analyze(a, b).status)
    assert statuses.count("d_simple") >= 5 and statuses.count("unique_darboux") >= 5


def test_corpus_runs_the_ore_witness_workload():
    corpus = cli_diff.corpus()
    workloads, _ = cli_diff._orebench()
    queries = [q for seed in cli_diff.ORE_SEEDS for q in workloads.build(workloads.ORE, seed)]
    assert cli_diff.ORE_SEEDS == (3001, 3002, 3003)
    assert {q.verb for q in queries} == {"ore-mul", "witness"}
    for q in queries:
        assert q.argv in corpus
        assert len(q.f) == 9  # theta-degree 8
        if q.verb == "witness":
            assert "--ring" in q.argv and q.argv[q.argv.index("--ring") + 1] == "poly2"
            assert max(sum(m) for m in q.x) == 1  # a linear form in x and y


def test_corpus_runs_the_ore_block():
    corpus = cli_diff.corpus()
    block = cli_diff.ore_block()
    assert len(block) == len(cli_diff.ORE_BLOCK_FIELDS) * (cli_diff.ORE_BLOCK_PER_FIELD + 2) + 2 == 22
    # the block is seeded: pin its first product and one witness
    assert block[0] == ["ore-mul", "--ring", "poly1", "--deriv", "dx=1", "--f", "-3/7*x^3 - 2*x", "--g", "1/2"]
    assert block[13] == [
        "witness", "--ring", "poly2", "--deriv", "dx=1/2*x - 3/7*x*y; dy=2/5*y^2 + 1/3",
        "--f", "1/2*x^3 + 1/2*x*y^2 + 1*x^3*t - 2*x*y*t - 3/7*t - 3/7*x*y*t^2 + 1*t^2 + 1*y*t^3", "--x", "y + 1",
    ]
    for argv in block:
        assert argv in corpus and argv + ["--json"] in corpus
    assert block[-2:] == [list(argv) for argv in cli_diff.ORE_NEAR_CAP]
    assert {argv[2] for argv in block} == {"poly1", "poly2"}
    fields = {argv[4] for argv in block}
    assert "dx=1/2*x - 3/7*x*y; dy=2/5*y^2 + 1/3" in fields and "dx=2; dy=-3" in fields
    ops = [parse_ore(argv[k + 1], argv[2]) for argv in block for k, a in enumerate(argv) if a in ("--f", "--g")]
    assert {op.degree() for op in ops} == {0, 1, 2, 3, 4}
    assert any(c.is_zero for op in ops for c in op.coeffs)  # a zero middle coefficient
    assert any(c.den > 1 for op in ops for c in op.coeffs)
    assert max(c.degree_in(1) for op in ops for c in op.coeffs) == 1000
    # every query answers: each witness element meets the hypotheses
    for argv in block:
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0


def test_corpus_runs_the_laurent_fields():
    corpus = cli_diff.corpus()
    fields = cli_diff.laurent_fields()
    assert len(fields) == cli_diff.LAURENT_SIZE == 40
    for dx in fields:
        for verb in ("decide", "simple"):
            argv = [verb, "--ring", "laurent1", "--deriv", f"dx={dx}"]
            assert argv in corpus and argv + ["--json"] in corpus
    # one to three terms of exponent -3..3, some with a negative power
    derivs = [parse_derivation(f"dx={dx}", "laurent1").dx for dx in fields]
    assert all(1 <= len(d.terms) <= 3 and -3 <= d.min_degree() <= d.max_degree() <= 3 for d in derivs)
    assert sum(d.min_degree() < 0 for d in derivs) >= 15


def test_corpus_reaches_the_quadratic_factor_search(monkeypatch):
    """The reach block's three quartics without a rational root each call
    unifactor._quadratic_factor once, as text and with --json."""
    corpus = cli_diff.corpus()
    quartics = cli_diff.REACH[:3]
    assert [argv[-1] for argv in quartics] == ["3", "x^4 + 2", "x^4 + 4"]
    found = []
    original = unifactor._quadratic_factor

    def counted(*args):
        found.append(original(*args))
        return found[-1]

    monkeypatch.setattr(unifactor, "_quadratic_factor", counted)
    for argv in quartics:
        assert argv in corpus and argv + ["--json"] in corpus
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(argv)
    # x^4 + 1 and x^4 + 2 have no quadratic factor; x^4 + 4 has x^2 - 2x + 2
    assert [None if f is None else f.render() for f in found] == [None, None, "x^2 - 2*x + 2"]


def test_corpus_runs_a_top_part_without_a_certified_factorization():
    """The reach block runs darboux 6 and 8, as text and with --json, on
    a field whose M = (x^3 + 2y^3)(x^3 + 3y^3) _top_atoms does not
    certify, so its cascades read no cofactor table."""
    corpus = cli_diff.corpus()
    for bound in ("6", "8"):
        argv = ["darboux", "--ring", "poly2", "--deriv", "dx=-6*y^5; dy=x^5 + 5*x^2*y^3", "--bound", bound]
        assert argv in cli_diff.REACH and argv in corpus and argv + ["--json"] in corpus


def test_corpus_runs_a_zero_m_cascade_past_a_cofactor_level():
    """The reach block runs darboux 6 and 8, as text and with --json, on
    a field with M = 0 and d = 3, whose cascades read the cofactor table
    after reducing level 2, which has cofactor columns."""
    corpus = cli_diff.corpus()
    deriv = "dx=-2*x^2*y + x^2 + x + y^2; dy=x^2 - 2*x*y^2 + 2*x*y + y"
    field = parse_derivation(deriv, "poly2")
    ad, bd = field.dx.homogeneous_part(3), field.dy.homogeneous_part(3)
    assert not ad.is_zero and (BiPoly.var_x() * bd - BiPoly.var_y() * ad).is_zero
    for bound in ("6", "8"):
        argv = ["darboux", "--ring", "poly2", "--deriv", deriv, "--bound", bound]
        assert argv in cli_diff.REACH and argv in corpus and argv + ["--json"] in corpus


def test_corpus_runs_rational_fields_on_ints(monkeypatch):
    """The reach block runs the search, as text and with --json, on five
    fields with rational coefficients: a top part with the coefficient
    1/2, a constant field (kernel path, d = 0), a field with M = 0 and d
    = 1 (kernel path), and one whose gcd y is not constant, so delta's
    own run is scaled too.  The search runs on an integral multiple of
    each, so _level_matrix gets integral polynomials and rref int rows;
    every query reaches rref, and each outside the kernel path
    _level_matrix."""
    corpus = cli_diff.corpus()
    # field: (whether it takes the kernel path, its queries)
    queries = {
        "dx=1/2*x^2*y + y; dy=-1*x*y^2 + x": (False, (("darboux", "6"), ("darboux", "8"), ("decide", "6"))),
        "dx=1/2; dy=1/3": (True, (("darboux", "6"), ("first-integral", "6"))),
        "dx=1/2*x + 1; dy=1/2*y - 2/3": (True, (("darboux", "6"), ("decide", "6"))),
        "dx=1/2*x*y + 1/3*y; dy=2/5*y^2": (False, (("darboux", "6"), ("decide", "6"))),
    }
    levels, rows_seen = [], []
    level_matrix, rref = darboux._level_matrix, linalg.rref

    def level_recorded(*args):
        levels.extend(p.den for p in args[:4])  # ad, bd, p_top, c_top
        return level_matrix(*args)

    def rref_recorded(rows, ncols):
        rows_seen.extend(type(v) for row in rows for v in row)
        return rref(rows, ncols)

    monkeypatch.setattr(darboux, "_level_matrix", level_recorded)
    monkeypatch.setattr(linalg, "rref", rref_recorded)
    for deriv, (kernel, verbs) in queries.items():
        field = parse_derivation(deriv, "poly2")
        assert field.dx.den != 1 or field.dy.den != 1
        for verb, bound in verbs:
            argv = [verb, "--ring", "poly2", "--deriv", deriv, "--bound", bound]
            assert argv in cli_diff.REACH and argv in corpus and argv + ["--json"] in corpus
            levels.clear()
            rows_seen.clear()
            with contextlib.redirect_stdout(io.StringIO()):
                cli.main(argv)
            assert set(levels) <= {1} and set(rows_seen) == {int}, argv
            assert bool(levels) != kernel, argv


def test_corpus_audits_a_member_at_infinity(capsys):
    """The reach block runs decide 4, as text and with --json, on delta =
    (-x*y^2 - 2*y, -y^3), whose audit reaches the member y^2 at t =
    infinity of the pencil (x*y + 1, y^2) of delta/y."""
    corpus = cli_diff.corpus()
    argv = ["decide", "--ring", "poly2", "--deriv", "dx=-1*x*y^2 - 2*y; dy=-1*y^3", "--bound", "4"]
    assert argv in cli_diff.REACH and argv in corpus and argv + ["--json"] in corpus
    assert cli.main(argv + ["--json"]) == 0
    (audit,) = [step for step in json.loads(capsys.readouterr().out)["trace"] if step["kind"] == "singular_locus_audit"]
    assert [(i["member"], i.get("t")) for i in audit["incidences"]] == [("y", None), ("y^2", "inf")]
