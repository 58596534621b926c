#!/usr/bin/env python3
"""Steadiness report: run workloads over several seeds and show how far
each metric spreads.

    python3 hdbench/steady.py --workloads wear-std dense-stream --seeds 1-10

Runs ``run.py`` once per (workload, seed), one run at a time, and prints
for every metric the median and quartiles over the seeds and the spread
(q3 - q1) / median.  A spread wider than the metric's bound is flagged
``WIDE``, one wider than a third of it ``tight``.  The summary also goes to
``.hdbench/steady-<trace>.json``.  ``--seconds`` defaults to BENCHMARK.json's
run_seconds.  Exit status 1 if any run failed or any metric is WIDE.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from metrics import END_TO_END, PER_LAYER
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BOUNDS = {m.name: m.bound for m in END_TO_END}


def seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    elapsed = time.monotonic() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        return {"correct": False, "metrics": {}, "elapsed": elapsed}
    result = json.loads(lines[-1])
    result["elapsed"] = elapsed
    result["digest"] = next((ln.split()[1] for ln in lines if ln.startswith("digest ")), None)
    return result


def summarise(values: list, bound: float | None) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    spread = (q3 - q1) / abs(med) if med else float("inf")
    flag = ""
    if bound is not None:
        flag = "WIDE" if spread > bound else "tight" if spread > bound / 3 else "ok"
    return {"median": med, "q1": q1, "q3": q3, "spread": spread, "bound": bound, "flag": flag}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", nargs="+", default=sorted(WORKLOADS), choices=sorted(WORKLOADS))
    ap.add_argument("--seeds", type=seeds, default=seeds("1-10"), help="range such as 1-10")
    ap.add_argument("--seconds", type=int,
                    default=json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    names = [m.name for m in END_TO_END] if not args.trace else [m.name for m in PER_LAYER]
    report, bad = {}, False
    for w in args.workloads:
        results = {s: run_once(w, s, args.seconds, args.trace) for s in args.seeds}
        failed = [s for s, r in results.items() if not r["correct"]]
        bad |= bool(failed)
        ok = [r for r in results.values() if r["correct"]]
        rows = {}
        longest = max(r["elapsed"] for r in results.values())
        print(f"{w}: {len(ok)} of {len(results)} runs correct, longest run {longest:.1f} s"
              + (f", failed seeds {failed}" if failed else ""))
        for name in names:
            vals = [r["metrics"][name]["value"] for r in ok]
            if not vals:
                continue
            rows[name] = summarise(vals, BOUNDS.get(name))
            s = rows[name]
            bad |= s["flag"] == "WIDE"
            print(f"  {name:<36} median {s['median']:<12.6g} q1 {s['q1']:<12.6g} "
                  f"q3 {s['q3']:<12.6g} spread {s['spread']:<8.4f} {s['flag']}")
        report[w] = {"metrics": rows, "digests": {s: r.get("digest") for s, r in results.items()}}
    out = ROOT / ".hdbench" / f"steady-{args.trace}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print(f"summary {out.relative_to(ROOT)}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
