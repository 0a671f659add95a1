"""orediamond benchmark: one closed-loop client, in process, no threads.

    python3 orebench/run.py --workload decide-planar --seed 1 --seconds 20 --trace 0

Every query goes through the public CLI entry point
(orediamond.cli.build_parser + run_command, with --json), one after the
other.  With --trace 0 the last line of standard output is the
end-to-end result; with --trace 1 it is the per-layer result of a run
traced from outside the program (see tracer.py).  The line before it is
a JSON record with provenance, answer digests and every failed query.
See README.md for the workloads and metrics.
"""

import argparse
import gc
import json
import os
import platform
import resource
import shlex
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PACKAGE = SRC / "orediamond"
SCHEMA = PACKAGE / "output_schema.json"

sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402
from speed import Speedometer  # noqa: E402
from tracer import Tracer  # noqa: E402

SETUP_PROCESSES = 15
# A query with fewer speed samples than this is scaled by its pass's.
MIN_UNITS = 3

# metric name, tracer layer, field of the layer's snapshot
PER_LAYER = (
    ("derivation.nilpotency.s", "derivation.nilpotency", "s"),
    ("derivation.nilpotency.calls", "derivation.nilpotency", "calls"),
    ("derivation.nilpotency.undecided", "derivation.nilpotency", "undecided"),
    ("derivation.nilpotency.decided_ratio", "derivation.nilpotency", "decided_ratio"),
    ("derivation.shamsuddin.s", "derivation.shamsuddin", "s"),
    ("derivation.shamsuddin.calls", "derivation.shamsuddin", "calls"),
    ("diamond.decide.self_s", "diamond.decide", "self_s"),
    ("darboux.search.s", "darboux.search", "s"),
    ("darboux.search.self_s", "darboux.search", "self_s"),
    ("darboux.search.calls", "darboux.search", "calls"),
    ("darboux.search.incomplete", "darboux.search", "incomplete"),
    ("darboux.certs", "darboux.search", "certs"),
    ("darboux.pencils", "darboux.search", "pencils"),
    ("multipoly.resultant.s", "multipoly.resultant", "s"),
    ("multipoly.resultant.calls", "multipoly.resultant", "calls"),
    ("multipoly.exact_divide.s", "multipoly.exact_divide", "s"),
    ("multipoly.exact_divide.calls", "multipoly.exact_divide", "calls"),
    ("linalg.s", "linalg", "s"),
    ("linalg.calls", "linalg", "calls"),
    ("poly.rational_roots.s", "poly.rational_roots", "s"),
    ("poly.rational_roots.calls", "poly.rational_roots", "calls"),
    ("unifactor.factor.s", "unifactor.factor", "s"),
    ("unifactor.factor.calls", "unifactor.factor", "calls"),
    ("unifactor.factor.uncertified", "unifactor.factor", "uncertified"),
    ("diamond.audit.s", "diamond.audit", "s"),
    ("diamond.audit.calls", "diamond.audit", "calls"),
    ("darboux.members_through.s", "darboux.members_through", "s"),
    ("darboux.members_through.calls", "darboux.members_through", "calls"),
    ("darboux.members_through.all", "darboux.members_through", "all"),
    ("groebner.buchberger.s", "groebner.buchberger", "s"),
    ("groebner.buchberger.calls", "groebner.buchberger", "calls"),
    ("groebner.normal_form.calls", "groebner.normal_form", "calls"),
    ("poly.gcd.s", "poly.gcd", "s"),
    ("poly.gcd.calls", "poly.gcd", "calls"),
    ("poly.exact_divide.s", "poly.exact_divide", "s"),
    ("poly.exact_divide.calls", "poly.exact_divide", "calls"),
    ("poly.exact_divide.hit_ratio", "poly.exact_divide", "hit_ratio"),
    ("poly.BiPoly.mul.s", "poly.BiPoly.mul", "s"),
    ("poly.BiPoly.mul.calls", "poly.BiPoly.mul", "calls"),
    ("poly.BiPoly.mul.term_products", "poly.BiPoly.mul", "term_products"),
    ("poly.BiPoly.add.s", "poly.BiPoly.add", "s"),
    ("poly.BiPoly.add.calls", "poly.BiPoly.add", "calls"),
    ("multipoly.MPoly.mul.s", "multipoly.MPoly.mul", "s"),
    ("multipoly.MPoly.mul.calls", "multipoly.MPoly.mul", "calls"),
    ("multipoly.MPoly.mul.term_products", "multipoly.MPoly.mul", "term_products"),
    ("multipoly.MPoly.add.s", "multipoly.MPoly.add", "s"),
    ("multipoly.MPoly.add.calls", "multipoly.MPoly.add", "calls"),
    ("ore.mul.s", "ore.mul", "s"),
    ("ore.mul.calls", "ore.mul", "calls"),
    ("ore.witness.s", "ore.witness", "s"),
    ("ore.witness.calls", "ore.witness", "calls"),
    ("parse.s", "parse", "s"),
    ("parse.calls", "parse", "calls"),
    ("cli.run_command.self_s", "cli.run_command", "self_s"),
)


def _layer_value(stats, field):
    """A snapshot field; the two ratios are 0 when the layer was not called."""
    calls = stats.get("calls", 0)
    if field == "decided_ratio":
        return (calls - stats.get("undecided", 0)) / calls if calls else 0.0
    if field == "hit_ratio":
        return stats.get("hits", 0) / calls if calls else 0.0
    return stats.get(field, 0)


class QueryTimeout(BaseException):
    """Raised by SIGALRM inside a query that ran past the deadline; a
    BaseException so that no handler in the program swallows it."""


def _on_alarm(signum, frame):
    raise QueryTimeout


@dataclass
class Sample:
    query: workloads.Query
    seconds: float
    reason: str = None  # None, "timeout", "error" or "wrong_answer"
    detail: str = ""
    text: str = None  # the JSON document as printed by --json
    digest: str = None
    units: tuple = (0, 0)  # marks of the speed samples taken while it ran
    scaled: float = None  # seconds at the reference speed (see run_pass)


class Runner:
    """Runs queries one at a time through the CLI entry point, each under
    the deadline and with the speed sampler on (see speed.py), whose own
    time is taken out of the query's.  A query that timed out is not run
    again in this process: later samples of it time out at once, with the
    deadline recorded as their time."""

    def __init__(self, cli, deadline):
        self.cli = cli
        self.parser = cli.build_parser()
        self.deadline = deadline
        self.timed_out = set()
        self.speed = Speedometer()

    def run_pass(self, queries):
        """One pass.  Each sample's time is scaled by the speed sampled
        while it ran or, with fewer than MIN_UNITS samples, by the pass's.
        Returns the samples and the pass's speed factor."""
        mark = self.speed.mark()
        samples = [self.run(q) for q in queries]
        factor = self.speed.factor(mark)
        for s in samples:
            start, end = s.units
            s.scaled = s.seconds * (self.speed.factor(start, end) if end - start >= MIN_UNITS else factor)
        return samples, factor

    def run(self, query):
        mark = self.speed.mark()
        sample = self._run(query)
        sample.units = (mark, self.speed.mark())
        return sample

    def _run(self, query):
        if query.label in self.timed_out:
            return Sample(query, self.deadline, "timeout", "timed out in an earlier pass; not run again")
        gc.collect()  # start every query from the same collector state
        speed, spent = self.speed, self.speed.spent
        start = time.perf_counter()

        def elapsed():
            return time.perf_counter() - start - (speed.spent - spent)

        try:
            speed.start()
            signal.setitimer(signal.ITIMER_REAL, self.deadline)
            try:
                args = self.parser.parse_args(query.argv)
                doc, _lines, _code = self.cli.run_command(args)
                text = json.dumps(doc, indent=2, sort_keys=True)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
                speed.stop()
        except QueryTimeout:
            self.timed_out.add(query.label)
            return Sample(query, elapsed(), "timeout", f"no answer within {self.deadline:g} s")
        except (Exception, SystemExit) as exc:  # the program's failure is the measurement
            return Sample(query, elapsed(), "error", f"{type(exc).__name__}: {exc}")
        return Sample(query, elapsed(), text=text, digest=checks.digest(doc))


def load_program():
    """orediamond's cli module from this checkout's src, or None."""
    if not (PACKAGE / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    import orediamond
    from orediamond import cli

    if Path(orediamond.__file__).resolve().parent != PACKAGE.resolve():
        return None
    return cli


def check_answers(samples, schema):
    """Mark wrong answers: the first answer to each query is checked;
    any later answer must have the same digest."""
    first = {}
    for sample in samples:
        if sample.text is None:
            continue
        label = sample.query.label
        if label not in first:
            try:
                errors = checks.answer_errors(sample.query, json.loads(sample.text), schema)
            except (KeyError, IndexError, TypeError, ValueError) as exc:  # a malformed answer
                errors = [f"answer could not be checked: {type(exc).__name__}: {exc}"]
            first[label] = (sample.digest, "; ".join(errors))
        digest, problem = first[label]
        if problem:
            sample.reason, sample.detail = "wrong_answer", problem
        elif sample.digest != digest:
            sample.reason, sample.detail = "wrong_answer", f"answer differs between passes ({sample.digest} != {digest})"
    return {label: digest for label, (digest, _) in first.items()}


def failures(samples):
    """One record per failing query: reason, input and how often."""
    out = {}
    for s in samples:
        if s.reason:
            key = (s.query.label, s.reason)
            if key not in out:
                out[key] = {"query": s.query.label, "reason": s.reason, "count": 0, "detail": s.detail,
                            "input": "orediamond " + shlex.join(s.query.argv)}
            out[key]["count"] += 1
    return list(out.values())


def tail(latencies):
    """Latency at the highest percentile that still has at least ten
    samples beyond it (the largest sample when there are fewer)."""
    ordered = sorted(latencies)
    index = max(0, len(ordered) - 11)
    return ordered[index], 100.0 * (index + 1) / len(ordered), len(ordered)


def setup_prober(queries):
    """A function that returns the set-up time of one fresh interpreter:
    import + parser + input parsing.  The argv lists go to the
    interpreter on stdin, so that it imports nothing of the benchmark's
    own.  One discarded interpreter first writes the bytecode caches, as
    an installed package has them."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), str(SRC)]
    argvs = json.dumps([q.argv for q in queries])
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}

    def probe():
        done = subprocess.run(cmd, input=argvs, capture_output=True, text=True, timeout=120, check=True, env=env)
        return float(done.stdout.split()[-1])

    probe()
    return probe


def _commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def provenance():
    package = sys.modules["orediamond"]
    rational = getattr(package, "Q", None)
    return {
        "python": platform.python_version(),
        "rational_backend": type(rational(1)).__module__ + "." + type(rational(1)).__name__ if rational else "unknown",
        "kernel_backend": getattr(package, "BACKEND", None),
        "commit": _commit(),
        "nproc": os.cpu_count(),
        "src_lines": sum(len(p.read_text().splitlines()) for p in sorted(PACKAGE.glob("*.py"))),
    }


def _metric(value, unit):
    return {"value": value, "unit": unit}


def answered(rounds):
    """The samples of each pass that did not time out.  A timed-out
    sample's time is the deadline, which the benchmark sets, not the
    program, so it counts in fail_ratio but in no timing metric."""
    return [[s for s in r if s.reason != "timeout"] for r in rounds]


def fail_ratio(rounds):
    """Failed samples / attempted samples of the timed passes."""
    samples = [s for r in rounds for s in r]
    return sum(s.reason is not None for s in samples) / len(samples)


def latencies_ms(rounds):
    """Scaled latency of each answered sample."""
    return [s.scaled * 1000.0 for r in answered(rounds) for s in r]


def p50_ms(rounds, field="scaled"):
    """The median over queries of each query's median latency.  The
    timed queries of a workload differ in cost, so the middle of the
    pooled samples falls between two queries' samples, at the slowest of
    one and the fastest of the other; their medians move much less."""
    by_query = {}
    for r in answered(rounds):
        for s in r:
            by_query.setdefault(s.query.label, []).append(getattr(s, field) * 1000.0)
    return statistics.median(statistics.median(v) for v in by_query.values())


def timing_metrics(rounds):
    """pass_s, query_p50_ms, query_tail_ms and success_ratio of the timed
    passes, once their answers have been checked, from the scaled times
    (see speed.py).  success_ratio is 1 - fail_ratio: a failure ratio
    reads 0 on a workload where nothing fails, and a bound relative to 0
    is no bound."""
    tail_ms, _, _ = tail(latencies_ms(rounds))
    return {
        "pass_s": _metric(statistics.median(sum(s.scaled for s in r) for r in answered(rounds)), "s"),
        "query_p50_ms": _metric(p50_ms(rounds), "ms"),
        "query_tail_ms": _metric(tail_ms, "ms"),
        "success_ratio": _metric(1.0 - fail_ratio(rounds), "ratio"),
    }


def end_to_end(workload, seconds, runner, timed, probes, schema):
    passes = max(2, round(seconds / workloads.PASS_S[workload]))
    setup = setup_prober(timed + probes)
    # The set-up interpreters run between the passes, so that a slow
    # moment of the machine does not time all of them.  Their median is
    # scaled by the speed over all the passes: a set-up time is too short
    # to follow the machine's speed from one moment to the next, but the
    # run's speed corrects for the drift between runs.
    mark = runner.speed.mark()
    setup_times, rounds, factors = [], [], []
    for k in range(passes):
        count = SETUP_PROCESSES * (k + 1) // passes - SETUP_PROCESSES * k // passes
        setup_times += [setup() for _ in range(count)]
        samples, factor = runner.run_pass(timed)
        rounds.append(samples)
        factors.append(factor)
    run_factor = runner.speed.factor(mark)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    probe = [runner.run(q) for q in probes]
    samples = [s for r in rounds for s in r]
    digests = check_answers(samples + probe, schema)
    metrics = {
        "setup_s": _metric(statistics.median(setup_times) * run_factor, "s"),
        "peak_rss_mb": _metric(peak_rss_mb, "MB"),
        **timing_metrics(rounds),
    }
    by_query = {}
    for s in samples + probe:
        by_query.setdefault(s.query.label, []).append(s.seconds * 1000.0)
    _, percentile, count = tail(latencies_ms(rounds))
    extra = {
        "passes": passes,
        "fail_ratio": fail_ratio(rounds),
        "speed_factor_each": factors,
        "wall": {
            "setup_s": statistics.median(setup_times),
            "pass_s": statistics.median(sum(s.seconds for s in r) for r in answered(rounds)),
            "query_p50_ms": p50_ms(rounds, "seconds"),
        },
        "pass_s_each": [sum(s.seconds for s in r) for r in answered(rounds)],
        "timeout_s_each": [sum(s.seconds for s in r if s.reason == "timeout") for r in rounds],
        "query_tail": {"percentile": percentile, "samples": count},
        "latency_ms": {label: statistics.median(v) for label, v in by_query.items()},
        "digests": digests,
    }
    return samples, probe, metrics, extra


def per_layer(runner, timed, probes, schema):
    """One traced pass over the timed queries and the probes, between two
    untraced passes over the timed queries that give trace_overhead.
    Layer seconds are scaled by the speed factor of the traced part."""
    before, _ = runner.run_pass(timed)
    tracer = Tracer()
    tracer.install()
    try:
        mark = runner.speed.mark()
        traced, _ = runner.run_pass(timed)
        probe = [runner.run(q) for q in probes]
        factor = runner.speed.factor(mark)
    finally:
        tracer.uninstall()
    after, _ = runner.run_pass(timed)
    layers = tracer.snapshot()
    metrics = {}
    for name, layer, field in PER_LAYER:
        unit = "ratio" if field.endswith("_ratio") else "s" if field in ("s", "self_s") else "count"
        value = _layer_value(layers.get(layer, {}), field)
        metrics[name] = _metric(value * factor if unit == "s" else value, unit)
    digests = check_answers(before + traced + after + probe, schema)
    ran = [n for n, t in enumerate(traced) if t.reason != "timeout"]
    untraced = statistics.mean(sum(run[n].scaled for n in ran) for run in (before, after))
    overhead = sum(traced[n].scaled for n in ran) / untraced - 1.0 if ran else 0.0
    metrics["trace_overhead"] = _metric(overhead, "ratio")
    extra = {"absent_targets": tracer.absent, "layers": layers, "speed_factor": factor, "digests": digests}
    return before + traced + after, probe, metrics, extra


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    cli = load_program()
    if cli is None:
        print(f"orebench: no orediamond package under {SRC}", file=sys.stderr)
        return 1
    schema = json.loads(SCHEMA.read_text())
    queries = workloads.build(args.workload, args.seed)
    timed = [q for q in queries if not q.probe]
    probes = [q for q in queries if q.probe]

    signal.signal(signal.SIGALRM, _on_alarm)
    runner = Runner(cli, workloads.DEADLINE_S)
    if args.trace:
        samples, probe, metrics, extra = per_layer(runner, timed, probes, schema)
    else:
        samples, probe, metrics, extra = end_to_end(args.workload, args.seconds, runner, timed, probes, schema)

    everything = samples + probe
    failed_queries = failures(everything)
    for f in failed_queries:
        print(f"FAILED {f['reason']} x{f['count']} {f['query']}: {f['input']}  [{f['detail']}]")
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "deadline_s": workloads.DEADLINE_S,
        "provenance": provenance(),
        **extra,
        "probe": {"attempted": len(probe), "failed": sum(s.reason is not None for s in probe)},
        "failures": failed_queries,
    }
    print(json.dumps({"orebench": record}, sort_keys=True))
    print(json.dumps({
        "correct": not any(s.reason == "wrong_answer" for s in everything),
        "attempted": len(everything),
        "failed": sum(s.reason is not None for s in everything),
        "metrics": metrics,
    }, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
