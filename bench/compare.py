#!/usr/bin/env python3
"""Summarise one result file, or compare two.

    python3 bench/compare.py BASE.jsonl [NEW.jsonl]

A result file holds one JSON line per run, as `run.py --results` appends
them.  For every workload and end-to-end metric this prints the median and
quartiles of each file and the spread (q3 - q1) / median.  With two files
it also prints the change of the median, as a share of the base median and
signed so that positive is worse, and a verdict against the metric's bound
in BENCHMARK.json:

* `ok`          the new median is not worse by more than the bound;
* `REGRESSION`  it is worse by more than the bound;
* `unresolved`  a spread exceeds the bound and not every new run beats
                every base run, so the runs cannot tell.

It also compares the share of failed operations, which must be equal.
Traced runs (trace = 1) are summarised the same way over the per-layer
metrics, without verdicts.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(path: str) -> dict:
    """{(trace, workload): [result, ...]} from a result file."""
    runs = defaultdict(list)
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                r = json.loads(line)
                runs[(r.get("trace", 0), r["workload"])].append(r)
    return runs


def quartiles(values: list) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list) -> float:
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else float("inf")


def failed_share(runs: list) -> str:
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    return f"{failed}/{attempted}"


def verdict(base: list, new: list, better: str, bound: float) -> tuple[float, str]:
    mb, mn = statistics.median(base), statistics.median(new)
    worse = (mn - mb) / mb if better == "lower" else (mb - mn) / mb
    if len(base) > 1 and len(new) > 1 and max(spread(base), spread(new)) > bound:
        wins = (max(new) < min(base)) if better == "lower" else (min(new) > max(base))
        if not wins:
            return worse, "unresolved"
    return worse, ("REGRESSION" if worse > bound else "ok")


def main(argv: list) -> int:
    if len(argv) not in (1, 2):
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    files = [load(p) for p in argv]
    status = 0
    for key in sorted(set().union(*files)):
        trace, workload = key
        sets = [f.get(key, []) for f in files]
        shares = [failed_share(s) for s in sets]
        print(f"{workload} ({'traced' if trace else 'end to end'}): runs "
              f"{', '.join(str(len(s)) for s in sets)}; failed "
              f"{' vs '.join(shares)}")
        if len(sets) == 2 and sets[0] and sets[1]:
            a, b = (sum(r["failed"] for r in s) / sum(r["attempted"] for r in s)
                    for s in sets)
            if a != b:
                print("  failed share differs")
                status = 1
        names = list(next(s for s in sets if s)[0]["metrics"])
        for name in names:
            cols = []
            values = []
            for s in sets:
                v = [r["metrics"][name]["value"] for r in s if name in r["metrics"]]
                values.append(v)
                if v:
                    q1, q2, q3 = quartiles(v)
                    cols.append(f"median {q2:.5g} [{q1:.5g}, {q3:.5g}] "
                                f"spread {spread(v):.3f}")
                else:
                    cols.append("no runs")
            line = f"  {name:24s} " + "  |  ".join(cols)
            m = bounds.get(name)
            if m and not trace:
                line += f"  bound {m['bound']}"
                if len(values) == 2 and values[0] and values[1]:
                    worse, word = verdict(values[0], values[1], m["better"], m["bound"])
                    line += f"  change {worse:+.3f} {word}"
                    if word != "ok":
                        status = 1
                elif values[0] and spread(values[0]) > m["bound"]:
                    line += "  SPREAD OVER BOUND"
                    status = 1
            print(line)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
