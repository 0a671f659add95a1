"""Alternating parent/change runs of orebench, written as one BENCH_<n>.json.

    python3 tools/bench_pairs.py --parent PARENT_TREE --change CHANGE_TREE \\
        --out BENCH_15.json --change-note "what changed" --claim "what should move"

Each tree is a checkout of the repository (src, orebench, BENCHMARK.json).
The command, run length and workloads come from the change tree's
BENCHMARK.json.  Workload k (counting from 1) runs seeds 1000*k + 1 to
1000*k + PAIRS (ten); each seed is one pair, the parent running first when
the seed is odd and the change first otherwise.  One traced run of each
workload's first seed follows, parent first.  Runs are one at a time.

Every run keeps orebench's last two stdout lines: the record and the
result.  The summary compares the end-to-end metrics of the pairs,
per_query each query's latency, wall-clock and speed-scaled, and
setup_wall the set-up time before scaling, with the factor that scaled
it; about.src_lines gives each side's source line count, as its runs'
provenance reports it.  The output file is rewritten after every run,
so an interrupted session keeps what it measured.  Standard library only.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
PAIRS = 10  # alternating pairs per workload, the fewest that can support a claim


def _quartiles(values):
    """(q1, median, q3), inclusive quartiles."""
    if len(values) == 1:
        return values * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def _complete_pairs(runs):
    """{workload: [{"parent": run, "change": run}, ...]} in seed order,
    leaving out seeds that lack one side."""
    pairs = {}
    for run in runs:
        pairs.setdefault(run["workload"], {}).setdefault(run["seed"], {})[run["side"]] = run
    return {
        workload: [p for _, p in sorted(by_seed.items()) if len(p) == 2] for workload, by_seed in pairs.items()
    }


def summarize(runs, end_to_end):
    """Per workload: the pair count, whether the answer digests of the two
    sides agree in every pair, and if not digest_mismatches, the sorted
    labels of the queries whose digests differ in some pair; then per
    end-to-end metric each side's median and quartiles, the change's
    [wins, losses] over the pairs (ties count for neither), and
    beyond_parent_iqr, whether the medians differ by more than the
    parent's q3 - q1: the two halves of a claim.  The no-regression half
    takes the metric's bound as a share of the parent's median:
    worse_beyond_bound, whether the change's median is worse than the
    parent's by more than that share, and unresolved, whether the
    parent's q3 - q1 is wider than that share while some change run does
    not beat every parent run.  runs are untraced run entries; end_to_end
    is BENCHMARK.json's list of {"name", "better", "bound"}."""
    summary = {}
    for workload, complete in _complete_pairs(runs).items():
        mismatches = set()
        for p in complete:
            a, c = p["parent"]["record"]["digests"], p["change"]["record"]["digests"]
            mismatches.update(label for label in a.keys() | c.keys() if a.get(label) != c.get(label))
        out = summary[workload] = {
            "pairs": len(complete),
            "digests_identical_in_every_pair": not mismatches,
        }
        if mismatches:
            out["digest_mismatches"] = sorted(mismatches)
        if not complete:
            continue
        for metric in end_to_end:
            name, sign = metric["name"], 1 if metric["better"] == "higher" else -1
            values = {
                side: [p[side]["result"]["metrics"][name]["value"] for p in complete] for side in SIDES
            }
            wins = sum(sign * (c - a) > 0 for a, c in zip(values["parent"], values["change"]))
            losses = sum(sign * (c - a) < 0 for a, c in zip(values["parent"], values["change"]))
            out[name] = {"change_wins_losses": [wins, losses]}
            for side in SIDES:
                q1, median, q3 = _quartiles(values[side])
                out[name][side] = {"median": median, "q1": q1, "q3": q3}
            parent, change = out[name]["parent"], out[name]["change"]
            spread = parent["q3"] - parent["q1"]
            out[name]["beyond_parent_iqr"] = abs(change["median"] - parent["median"]) > spread
            share = metric["bound"] * abs(parent["median"])
            out[name]["worse_beyond_bound"] = sign * (change["median"] - parent["median"]) < -share
            beats_all = all(sign * (c - a) > 0 for a in values["parent"] for c in values["change"])
            out[name]["unresolved"] = spread > share and not beats_all
    return summary


def src_lines(runs):
    """{side: src_lines} read from the provenance of the runs' records;
    ValueError when the runs of one side disagree, its tree having
    changed between them."""
    seen = {}
    for run in runs:
        seen.setdefault(run["side"], set()).add(run["record"]["provenance"]["src_lines"])
    for side, counts in seen.items():
        if len(counts) > 1:
            raise ValueError(f"{side} runs report src_lines {sorted(counts)}")
    return {side: counts.pop() for side, counts in seen.items()}


def _ratio(change, parent):
    return change / parent if parent and change is not None else None


def per_query(runs):
    """Per workload and query label: each side's median over the pairs of
    the query's record latency_ms (orebench's median over the passes of
    one run, in wall-clock ms), and change_over_parent, the ratio of the two
    medians (None when the parent's is 0).  parent_scaled, change_scaled and
    scaled_change_over_parent are the same with each run's latency first
    multiplied by the median of the run's speed_factor_each, the speed
    sampler's factor per timed pass, so that the host's speed drops out of
    the ratio as it does from the end-to-end metrics.  A label missing from
    a run counts only in the pairs that have it on that side."""
    out = {}
    for workload, complete in _complete_pairs(runs).items():
        labels = {label for p in complete for side in SIDES for label in p[side]["record"]["latency_ms"]}
        rows = out[workload] = {}
        for label in sorted(labels):
            row = rows[label] = {}
            for side in SIDES:
                records = [p[side]["record"] for p in complete if label in p[side]["record"]["latency_ms"]]
                wall = [r["latency_ms"][label] for r in records]
                scaled = [r["latency_ms"][label] * statistics.median(r["speed_factor_each"]) for r in records]
                row[side] = statistics.median(wall) if wall else None
                row[f"{side}_scaled"] = statistics.median(scaled) if scaled else None
            row["change_over_parent"] = _ratio(row["change"], row["parent"])
            row["scaled_change_over_parent"] = _ratio(row["change_scaled"], row["parent_scaled"])
    return out


def setup_wall(runs):
    """Per workload and side: the median and quartiles over the pairs of
    the run record's wall.setup_s, the set-up time before scaling, and of
    run_factor, setup_s over wall.setup_s, the speed factor that scaled
    it.  A factor that moves while the raw time does not is the host or
    the timed queries, not the set-up."""
    out = {}
    for workload, complete in _complete_pairs(runs).items():
        if not complete:
            continue
        rows = out[workload] = {}
        for side in SIDES:
            wall = [p[side]["record"]["wall"]["setup_s"] for p in complete]
            factor = [p[side]["result"]["metrics"]["setup_s"]["value"] / w for p, w in zip(complete, wall)]
            rows[side] = {
                name: dict(zip(("q1", "median", "q3"), _quartiles(values)))
                for name, values in (("wall_setup_s", wall), ("run_factor", factor))
            }
    return out


def _run(tree, command, workload, seed, seconds, trace):
    argv = [*command, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    if proc.returncode:
        sys.exit(f"bench_pairs: {' '.join(argv)} in {tree} exited with {proc.returncode}\n{proc.stderr}")
    record, result = proc.stdout.splitlines()[-2:]
    return json.loads(record)["orebench"], json.loads(result)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", type=Path, required=True, help="tree of the parent commit")
    ap.add_argument("--change", type=Path, required=True, help="tree of the change")
    ap.add_argument("--out", type=Path, required=True, help="BENCH_<n>.json to write")
    ap.add_argument("--change-note", required=True, help="one sentence on what the change does")
    ap.add_argument("--claim", required=True, help="the metric claimed to improve, and what must hold")
    args = ap.parse_args(argv)

    bench = json.loads((args.change / "BENCHMARK.json").read_text())
    command, seconds = bench["command"], bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    doc = {
        "about": {
            "change": args.change_note,
            "claim": args.claim,
            "command": f"{' '.join(command)} --workload <w> --seed <s> --seconds {seconds} --trace 0 (traced: --trace 1)",
            "method": (
                f"{PAIRS} pairs per workload (seeds "
                + ", ".join(f"{w} {1000 * k + 1}-{1000 * k + PAIRS}" for k, w in enumerate(workloads, 1))
                + "); the parent runs first in pairs whose seed is odd, the change first in the others; "
                "each side runs from its own tree, one run at a time; traced runs of each workload's "
                "first seed follow, parent first; written by tools/bench_pairs.py"
            ),
            "summary_fields": (
                "per workload and metric: median, q1, q3 (inclusive quartiles) of each side, and "
                "[change wins, change losses] over the pairs (ties count for neither), and beyond_parent_iqr, "
                "whether |change median - parent median| > parent q3 - q1; "
                "worse_beyond_bound, whether the change median is worse than the parent median by more "
                "than the metric's BENCHMARK.json bound times the parent median, and unresolved, whether "
                "parent q3 - q1 exceeds that share while some change run does not beat every parent run; "
                "digests_identical_in_every_pair compares the answer digests of the two sides of each pair, "
                "and digest_mismatches, present only when they differ, lists the labels of the queries "
                "whose digests differ in some pair"
            ),
            "per_query_fields": (
                "per workload and query label: each side's median over the pairs of the run record's "
                "latency_ms for that query (wall-clock ms, not speed-scaled), and change_over_parent, "
                "the change's median over the parent's; parent_scaled, change_scaled and "
                "scaled_change_over_parent, the same with each run's latency multiplied by the median "
                "of that run's speed_factor_each"
            ),
            "setup_wall_fields": (
                "per workload and side: median, q1, q3 over the pairs of the run record's wall.setup_s "
                "(the set-up time before scaling) and of run_factor, setup_s over wall.setup_s"
            ),
        },
        "per_query": {},
        "runs": [],
        "setup_wall": {},
        "summary": {},
        "traced": [],
    }

    def measure(workload, seed, side, ran_first, trace):
        record, result = _run(trees[side], command, workload, seed, seconds, trace)
        if "host" not in doc["about"]:
            p = record["provenance"]
            doc["about"]["host"] = (
                f"{p['nproc']} cores, Python {p['python']}, rational backend {p['rational_backend']}"
            )
        entry = {"ran_first": ran_first, "record": record, "result": result, "seed": seed, "side": side,
                 "trace": trace, "workload": workload}
        doc["traced" if trace else "runs"].append(entry)
        doc["about"]["src_lines"] = src_lines(doc["runs"] + doc["traced"])
        doc["summary"] = summarize(doc["runs"], bench["end_to_end"])
        doc["per_query"] = per_query(doc["runs"])
        doc["setup_wall"] = setup_wall(doc["runs"])
        args.out.write_text(json.dumps(doc, indent=1, sort_keys=True))
        metrics = " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
        print(f"{workload} {seed} {side} trace={trace}: {metrics}", file=sys.stderr, flush=True)

    for k, workload in enumerate(workloads, 1):
        for seed in range(1000 * k + 1, 1000 * k + PAIRS + 1):
            order = SIDES if seed % 2 else SIDES[::-1]
            for i, side in enumerate(order):
                measure(workload, seed, side, i == 0, 0)
    for k, workload in enumerate(workloads, 1):
        for i, side in enumerate(SIDES):
            measure(workload, 1000 * k + 1, side, i == 0, 1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
