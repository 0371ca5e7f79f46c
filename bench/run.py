"""Run one workload of the Clio benchmark and print what it measured.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every metric is printed by name with its unit; the last line of standard
output is the JSON object the benchmark contract asks for.  ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer ones.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _pin_hash_seed() -> None:
    """Re-exec once with ``PYTHONHASHSEED=0``.

    String hashes decide how every namespace and attribute dict collides;
    with a random seed whole processes came out a few percent apart, with
    a fixed one five of six runs of a seed agreed within 2 %.
    """
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, *sys.argv])


def main(argv: list[str] | None = None) -> int:
    source = os.path.join(_ROOT, "src")
    if not os.path.isdir(os.path.join(source, "repro")):
        print(f"error: no program to measure: {source}/repro is missing", file=sys.stderr)
        return 2
    sys.path[:0] = [_ROOT, source]
    from bench.harness import run
    from bench.workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}")
    for name, (value, unit) in result.metrics.items():
        print(f"  {name:48s} {value:16.6f} {unit}")
    if not args.trace:
        for name, value in result.demoted.items():
            print(f"  scaled {name:41s} {value:16.6f}")
        for name, value in result.raw.items():
            print(f"  raw {name:44s} {value:16.6f}")
    # One line, so a reader (bench/aa_check.py) can compare or record it.
    print("  exact " + json.dumps(
        {"counts": result.counts, "fingerprint": result.fingerprint}, sort_keys=True
    ))
    for message in result.failures:
        print(f"  FAILED: {message}")
    print(result.as_json())
    return 0


if __name__ == "__main__":
    _pin_hash_seed()
    sys.exit(main())
