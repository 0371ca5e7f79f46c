"""A/A check: do two sets of runs of the *same* code agree?

    python3 bench/aa_check.py [--runs 5] [--out REPORT.json] [--record]

For every workload it runs set A and set B alternately (A1 B1 A2 B2 ...),
each run a fresh process started exactly as the driver starts it, run *i*
of both sets with seed *i*.  It prints, per workload and end-to-end metric,
both set medians, how much worse B's is than A's, the spread of all the
runs (interquartile range over median, as the driver computes it) and the
bound from ``BENCHMARK.json``; it checks that every count repeats exactly
between the two runs of a seed; and it exits non-zero on any breach.

The timings demoted to ``scaled.*`` per-layer metrics are compared in the
same table, without a bound.  The bounds in ``BENCHMARK.json`` were set from
three such comparisons, whose reports are ``bench/AA_REPORT*.json``; the
rule is in ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_EXPECTED = os.path.join(_ROOT, "bench", "expected.json")


def _run_once(command: list[str], workload: str, seed: int, seconds: int) -> dict:
    """One benchmark process; its metrics, exact counts and verdict."""
    done = subprocess.run(
        [*command, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=_ROOT, capture_output=True, text=True, timeout=900,
    )
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr}")
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    exact = next(
        json.loads(line.split(None, 1)[1])
        for line in lines if line.split(None, 1)[:1] == ["exact"]
    )
    metrics = {name: item["value"] for name, item in result["metrics"].items()}
    raw = {}
    for fields in (line.split() for line in lines):
        if len(fields) == 3 and fields[0] == "raw":
            raw[fields[1]] = float(fields[2])
        elif len(fields) == 3 and fields[0] == "scaled":
            # A timing demoted from end to end: compared, but never gated.
            metrics["scaled." + fields[1]] = float(fields[2])
    return {
        "seed": seed,
        "correct": result["correct"],
        "failed": result["failed"],
        "attempted": result["attempted"],
        "metrics": metrics,
        "raw": raw,
        "exact": exact,
    }


def _seeds_recorded() -> int:
    """How many seeds ``bench/expected.json`` holds records of."""
    if not os.path.exists(_EXPECTED):
        return 0
    with open(_EXPECTED) as handle:
        workloads = json.load(handle)["workloads"]
    return max((len(seeds) for seeds in workloads.values()), default=0)


def _spread(values: list[float]) -> float:
    first, _second, third = statistics.quantiles(values, n=4)
    return (third - first) / statistics.median(values)


def _worse_by(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first``, as a share of ``first``."""
    change = (second - first) / first
    return change if better == "lower" else -change


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=5, help="runs per set (>= 5)")
    parser.add_argument("--out", default=None, help="write the report here as JSON")
    parser.add_argument(
        "--record", action="store_true",
        help="replace bench/expected.json with the exact counts of the seeds "
             "run (written only if they repeated between the two sets)",
    )
    args = parser.parse_args(argv)
    if args.runs < 5:
        parser.error("--runs must be at least 5")
    # Seeds are 1..runs: recording fewer than the file holds would drop the
    # others, and the harness skips the check for a seed it finds no record of.
    if args.record and args.runs < _seeds_recorded():
        parser.error(f"--record needs --runs >= {_seeds_recorded()}, the seeds "
                     "bench/expected.json holds")
    if args.record and os.path.exists(_EXPECTED):
        # With the old records in place every run would fail its counts check.
        os.remove(_EXPECTED)

    with open(os.path.join(_ROOT, "BENCHMARK.json")) as handle:
        contract = json.load(handle)
    seconds = contract["run_seconds"]
    workloads = [item["name"] for item in contract["workloads"]]
    report: dict = {"run_seconds": seconds, "runs_per_set": args.runs, "workloads": {}}
    breaches: list[str] = []

    for workload in workloads:
        sets: dict[str, list[dict]] = {"A": [], "B": []}
        for seed in range(1, args.runs + 1):
            for name in ("A", "B"):
                run = _run_once(contract["command"], workload, seed, seconds)
                sets[name].append(run)
                print(f"{workload} {name}{seed}: correct={run['correct']} "
                      f"failed={run['failed']}", flush=True)
                if not run["correct"]:
                    breaches.append(f"{workload} {name}{seed}: {run['failed']} failed")
            if sets["A"][-1]["exact"] != sets["B"][-1]["exact"]:
                breaches.append(f"{workload} seed {seed}: counts differ between runs")

        rows = {}
        print(f"\n{workload}: {'metric':28s} {'median A':>14s} {'median B':>14s} "
              f"{'B worse by':>11s} {'spread':>8s} {'unscaled':>9s} {'bound':>7s}")
        demoted = [m for m in contract["per_layer"] if m["name"].startswith("scaled.")]
        for metric in contract["end_to_end"] + demoted:
            name, bound = metric["name"], metric.get("bound")
            a = [run["metrics"][name] for run in sets["A"]]
            b = [run["metrics"][name] for run in sets["B"]]
            worse = _worse_by(statistics.median(a), statistics.median(b), metric["better"])
            spread = _spread(a + b)
            timing = name.removeprefix("scaled.")
            unscaled = [
                run["raw"][timing] for run in sets["A"] + sets["B"] if timing in run["raw"]
            ]
            rows[name] = {
                "median_a": statistics.median(a), "median_b": statistics.median(b),
                "b_worse_by": worse, "spread": spread, "bound": bound,
                "unit": metric["unit"], "values_a": a, "values_b": b,
                # What the spread would be without speed calibration.
                "spread_unscaled": _spread(unscaled) if unscaled else None,
            }
            flag = ""
            # A demoted timing has no bound: compared, never gated.
            if bound is not None and abs(worse) > bound:
                flag = "  <-- sets disagree"
                breaches.append(f"{workload}/{name}: sets differ by {worse:+.1%}")
            elif bound is not None and spread > bound:
                flag = "  <-- spread"
                breaches.append(f"{workload}/{name}: spread {spread:.1%}")
            unscaled_text = f"{_spread(unscaled):9.2%}" if unscaled else f"{'':9s}"
            print(f"{'':{len(workload) + 2}s}{name:28s} {rows[name]['median_a']:14.4f} "
                  f"{rows[name]['median_b']:14.4f} {worse:+11.2%} {spread:8.2%} "
                  f"{unscaled_text} {'none' if bound is None else format(bound, '.1%'):>7s}{flag}")
        print()
        report["workloads"][workload] = {
            "metrics": rows,
            "exact_counts_repeat": all(
                a["exact"] == b["exact"] for a, b in zip(sets["A"], sets["B"])
            ),
            "exact": {str(run["seed"]): run["exact"] for run in sets["A"]},
        }

    report["breaches"] = breaches
    repeatable = all(item["exact_counts_repeat"] for item in report["workloads"].values())
    if args.record and repeatable:
        expected = {
            "run_seconds": seconds,
            "workloads": {
                name: item["exact"] for name, item in report["workloads"].items()
            },
        }
        with open(_EXPECTED, "w") as handle:
            json.dump(expected, handle, indent=1, sort_keys=True)
            handle.write("\n")
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(report, handle, indent=1, sort_keys=True)
            handle.write("\n")
    for breach in breaches:
        print(f"BREACH {breach}")
    print("A/A check", "FAILED" if breaches else "passed")
    return 1 if breaches else 0


if __name__ == "__main__":
    sys.exit(main())
