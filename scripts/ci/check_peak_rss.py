#!/usr/bin/env python3
"""Fail if an `hsqp --output` report's `peak_rss_mb` exceeds a limit.

Usage: check_peak_rss.py REPORT.json --max-mb LIMIT

`peak_rss_mb` is the driver's peak resident set (`VmHWM`), read when the
report is written. Loading holds every generated row once: the relation
is cut into its per-node parts a column at a time, and each column is
dropped once cut. A placement that copies whole relations again (or a
scan that materializes what an aggregate could read a morsel at a time)
shows here as tens of MB at SF 0.1. A report whose `peak_rss_mb` is
`null` (no `/proc/self/status`) fails too: the check would see nothing.
"""

import json
import sys


def main(argv):
    if len(argv) != 3 or argv[1] != "--max-mb":
        raise SystemExit("usage: check_peak_rss.py REPORT.json --max-mb LIMIT")
    path, limit = argv[0], float(argv[2])
    with open(path) as f:
        report = json.load(f)
    peak = report.get("peak_rss_mb")
    if not isinstance(peak, (int, float)) or peak <= 0:
        raise SystemExit(f"{path}: no peak_rss_mb in the report ({peak!r})")
    print(f"{path}: peak RSS {peak:.1f} MB (limit {limit:g} MB)")
    if peak > limit:
        raise SystemExit(f"{path}: peak RSS {peak:.1f} MB exceeds {limit:g} MB")


if __name__ == "__main__":
    main(sys.argv[1:])
