#!/usr/bin/env python3
"""Fail if the geometric mean of an `hsqp --output` report's per-query times
exceeds a limit.

Usage: check_geomean.py REPORT.json --max-ms LIMIT

The report must cover all 22 TPC-H queries, each with a positive `ms`.
The limit is not a performance baseline; it is set several times above the
expected value to catch a stall per request (a control connection without
TCP_NODELAY costs ≈ 90 ms per stage, a geomean of ≈ 235 ms where ≈ 10 ms
is expected), which no row-count diff can see.
"""

import json
import math
import sys


def main(argv):
    if len(argv) != 3 or argv[1] != "--max-ms":
        raise SystemExit("usage: check_geomean.py REPORT.json --max-ms LIMIT")
    path, limit = argv[0], float(argv[2])
    with open(path) as f:
        report = json.load(f)
    times = {q["query"]: q["ms"] for q in report["queries"] if "ms" in q}
    missing = sorted(set(range(1, 23)) - set(times))
    if missing:
        raise SystemExit(f"{path}: no time for queries {missing}")
    if min(times.values()) <= 0:
        raise SystemExit(f"{path}: non-positive query time in {times}")
    geomean = math.exp(sum(math.log(ms) for ms in times.values()) / len(times))
    print(f"{path}: geomean of {len(times)} queries {geomean:.1f} ms (limit {limit:g} ms)")
    if geomean > limit:
        raise SystemExit(f"{path}: geomean {geomean:.1f} ms exceeds {limit:g} ms")


if __name__ == "__main__":
    main(sys.argv[1:])
