"""Run-to-run spread of the end-to-end metrics across seeds.

    python3 bench/spread.py --seeds 1-10 [--workloads grid_sweep,ray_sweep]
                            [--save A.json] [--compare B.json]

Runs run.py once per (workload, seed) with --trace 0 for BENCHMARK.json's
run_seconds and, per metric, prints
the median and the quartile spread (Q3 - Q1 over the median, quartiles as
statistics.quantiles(values, n=4) gives them) next to the metric's bound.
--compare checks that each median is no worse than a saved set's by more
than the bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from layers import END_TO_END  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SECONDS = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    ap.add_argument("--workloads", default=",".join(WORKLOADS))
    ap.add_argument("--save")
    ap.add_argument("--compare")
    args = ap.parse_args()

    values = {}
    ok = True
    for w in args.workloads.split(","):
        for s in args.seeds:
            out = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", w,
                                  "--seed", str(s), "--seconds", str(SECONDS), "--trace", "0"],
                                 cwd=HERE.parent, capture_output=True, text=True, timeout=600)
            if out.returncode != 0:
                print(f"{w} seed {s}: exit {out.returncode}\n{out.stderr}")
                return 1
            res = json.loads(out.stdout.strip().splitlines()[-1])
            if not res["correct"]:
                print(f"{w} seed {s}: correct = false")
                ok = False
            for name, m in res["metrics"].items():
                values.setdefault(w, {}).setdefault(name, []).append(m["value"])
    old = json.loads(Path(args.compare).read_text()) if args.compare else None
    for w, per in values.items():
        for name, unit, better, bound in END_TO_END:
            xs = per[name]
            med = statistics.median(xs)
            q1, _, q3 = statistics.quantiles(xs, n=4)
            spread = (q3 - q1) / med
            line = (f"{w:13s} {name:13s} median {med:12.6g} {unit:4s} spread {spread:7.4f} "
                    f"(bound {bound}, third {bound / 3:.4f})")
            if name != "setup_s" and spread > bound:
                ok = False
                line += "  SPREAD OVER BOUND"
            if old is not None:
                prev = statistics.median(old[w][name])
                worse = (med - prev) / prev if better == "lower" else (prev - med) / prev
                line += f"  vs saved {worse:+.4f}"
                if worse > bound:
                    ok = False
                    line += " WORSE THAN BOUND"
            print(line)
    if args.save:
        Path(args.save).write_text(json.dumps(values))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
