#!/usr/bin/env python3
"""Compare two sets of benchmark results.

    python3 perfbench/compare.py OLD_DIR NEW_DIR

Each directory holds the result records run.py writes to
.perfbench/results/ (copy them aside between commits).  For every
workload and end-to-end metric it prints the median of the untraced
runs on each side and the change against the metric's bound.  It gates
(exits 1 on a change worse than the bound) only when both sides carry
the same host fingerprint; otherwise it names the fields that differ and
reports the comparison as informational.
"""

import json
import os
import statistics
import sys


def load(d):
    by_workload = {}
    for f in sorted(os.listdir(d)):
        if f.endswith("-trace0.json"):
            with open(os.path.join(d, f)) as fh:
                r = json.load(fh)
            by_workload.setdefault(r["workload"], []).append(r)
    return by_workload


def fingerprint(records):
    fps = {json.dumps(r["fingerprint"], sort_keys=True) for r in records}
    return json.loads(fps.pop()) if len(fps) == 1 else None


def main():
    if len(sys.argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    here = os.path.dirname(os.path.abspath(__file__))
    with open(os.path.join(here, "..", "BENCHMARK.json")) as f:
        spec = json.load(f)
    old, new = load(sys.argv[1]), load(sys.argv[2])
    regressed = False
    for w in sorted(set(old) & set(new)):
        a, b = fingerprint(old[w]), fingerprint(new[w])
        if a is None or b is None:
            gate, why = False, "a side mixes several host fingerprints"
        else:
            differ = sorted(k for k in set(a) | set(b) if a.get(k) != b.get(k))
            gate, why = not differ, "fingerprints differ in " + ", ".join(differ)
        print(f"{w}: {len(old[w])} old runs, {len(new[w])} new runs"
              + ("" if gate else f" (informational only: {why})"))
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            x = statistics.median(r["metrics"][name]["value"] for r in old[w])
            y = statistics.median(r["metrics"][name]["value"] for r in new[w])
            change = (y - x) / x if x else 0.0
            worse = change if m["better"] == "lower" else -change
            verdict = "ok"
            if worse > bound:
                verdict = "REGRESSION" if gate else "worse (not gated)"
                regressed = regressed or gate
            print(f"  {name:12} {x:12.5g} -> {y:12.5g} {m['unit']:6} "
                  f"{change:+8.2%} (bound {bound:.0%}) {verdict}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
