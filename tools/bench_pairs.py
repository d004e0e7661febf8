"""Run the benchmark of two checkouts in alternating pairs and compare their
end-to-end metrics.

Usage (from anywhere):

    python3 tools/bench_pairs.py PARENT CHANGE --workload W [W ...]
        --pairs N [--seed S [S ...]] [--traced]

PARENT and CHANGE are checkout directories, each with its own
``perfbench/run.py`` and ``src``.  For each workload W, pair i runs
``python3 perfbench/run.py --workload W --seed S --trace 0`` in both
checkouts, one run at a time: the parent first in even pairs, the change
first in odd ones.  S cycles through the given seeds (default 0), so with
seeds 0 and 7 the pairs run seeds 0, 7, 0, 7, ...  The run length is
``perfbench/run.py``'s own, the same on both sides.

For every end-to-end metric of ``CHANGE/BENCHMARK.json`` the JSON on stdout
gives, per workload: each run's value, both medians, the parent's first and
third quartiles, the relative change of the median, the pairs in which the
change is better, and whether the medians differ by more than the parent's
quartile spread.  Two verdicts follow, as a change is judged on them:
``gain_rule_met`` (better in at least 9 of 10 pairs, and a median better by
more than the parent's quartile spread) and ``within_bound`` (a median no
worse than the parent's by more than the metric's relative ``bound``).  It
also gives each run's ``correct``, ``attempted`` and ``failed``, a third
verdict per workload, ``failed_share`` (each side's failed / attempted over
its runs, and ``no_larger``: whether the change's share is no larger than
the parent's, since no gain counts where more operations fail), and the
start time, side and seed of every run.  ``--traced`` adds one
``--workload all --trace 1`` run per side and every per-layer metric it
reports, side by side: each count and ratio (span call counts and the
named counters) under ``counts``, and each span time under ``seconds``,
which, read from one run per side, moves with the host.
Progress goes to stderr.
"""

import argparse
import datetime
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_bench(checkout, args):
    """perfbench/run.py's last stdout line (its JSON summary) for args."""
    cmd = [sys.executable, "perfbench/run.py", *args]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"{checkout}: {' '.join(cmd)} printed nothing:\n"
                         f"{proc.stderr}")
    return json.loads(lines[-1])


def summarize(parent, change, better, bound):
    """Per-run values of both sides, how the change compares, and the two
    verdicts: the gain rule and the metric's bound."""
    q1, _, q3 = statistics.quantiles(parent, n=4, method="inclusive")
    med_p, med_c = statistics.median(parent), statistics.median(change)
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (c - p) < 0.0 for p, c in zip(parent, change))
    gain = sign * (med_p - med_c)         # > 0: the change's median is better
    return {"parent": parent, "change": change,
            "median_parent": med_p, "median_change": med_c,
            "q1_q3_parent": [q1, q3],
            "change_of_median": f"{100.0 * (med_c - med_p) / med_p:+.1f}%",
            "change_better_in_pairs": f"{wins}/{len(parent)}",
            "medians_apart_beyond_parent_spread": abs(med_c - med_p) > q3 - q1,
            "gain_rule_met": 10 * wins >= 9 * len(parent) and gain > q3 - q1,
            "within_bound": -gain <= bound * abs(med_p)}


def failed_share(failed, attempted):
    """Each side's failed / attempted over all its runs (None when it
    attempted nothing), and whether the change's share is no larger."""
    shares = {s: sum(failed[s]) / sum(attempted[s]) if sum(attempted[s])
              else None for s in ("parent", "change")}
    return {**shares, "no_larger": None not in shares.values()
            and shares["change"] <= shares["parent"]}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", nargs="+", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed", type=int, nargs="+", default=[0])
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2 (quartiles need two runs)")
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = json.loads((sides["change"] / "BENCHMARK.json").read_text())
    metrics = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}

    order, out = [], {}
    for workload in args.workload:
        runs = {"parent": [], "change": []}
        seeds = []
        for i in range(args.pairs):
            seed = args.seed[i % len(args.seed)]
            seeds.append(seed)
            for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
                stamp = datetime.datetime.now().strftime("%H:%M:%S")
                order.append(f"{stamp} {side} {workload} pair {i} seed {seed}")
                print(order[-1], file=sys.stderr)
                runs[side].append(run_bench(sides[side], [
                    "--workload", workload, "--seed", str(seed), "--trace", "0"]))
        result = {"pairs": args.pairs, "seeds": seeds}
        for key in ("correct", "attempted", "failed"):
            result[key] = {s: [r[key] for r in runs[s]] for s in runs}
        result["failed_share"] = failed_share(result["failed"],
                                              result["attempted"])
        for name, (better, bound) in metrics.items():
            values = {s: [r["metrics"][name]["value"] for r in runs[s]]
                      for s in runs}
            result[name] = summarize(values["parent"], values["change"],
                                     better, bound)
        out[workload] = result

    if args.traced:
        traced = {}
        for side in sides:
            stamp = datetime.datetime.now().strftime("%H:%M:%S")
            order.append(f"{stamp} {side} all traced seed {args.seed[0]}")
            print(order[-1], file=sys.stderr)
            traced[side] = run_bench(sides[side], [
                "--workload", "all", "--seed", str(args.seed[0]), "--trace", "1"])
        tables = {"counts": {}, "seconds": {}}
        for name, m in traced["change"]["metrics"].items():
            before = traced["parent"]["metrics"].get(name, {}).get("value")
            table = tables["seconds" if m["unit"] == "s" else "counts"]
            table[name] = {"parent": before, "change": m["value"]}
        out["traced"] = {"correct": {s: traced[s]["correct"] for s in traced},
                         "failed": {s: traced[s]["failed"] for s in traced},
                         **tables}
    out["order"] = order
    json.dump(out, sys.stdout, indent=2)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
