"""One benchmark worker: set-up, then the closed-loop timed phase(s).

Started by run.py as a child process, so set-up time covers a fresh
interpreter, and peak memory is the worker's own.  One client, one check
at a time, no threads (GFT_THREADS is removed from the environment); for
cli_session each check is one child process at a time.

Usage: worker.py --workload W --seed N --seconds S --trace 0|1 --out PATH
                 [--setup-only]
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import resource
import sys
import time
import traceback
import warnings
from pathlib import Path

import workloads as W
from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("GFT_THREADS", None)
    env["PYTHONPATH"] = str(SRC)
    return env


def import_gftkit():
    sys.path.insert(0, str(SRC))
    warnings.simplefilter("ignore")
    import gftkit

    return gftkit


def setup(workload: str, seed: int):
    """Everything a user pays once: bytecode, import, inputs, warm-up."""
    os.environ.pop("GFT_THREADS", None)
    compileall.compile_dir(str(SRC / "gftkit"), quiet=1)
    # cli_session checks are child processes; its worker never imports gftkit
    env = W.Env(None if workload == "cli_session" else import_gftkit(), child_env())
    cycles = [[(s, *W.prepare(s, env)) for s in cycle] for cycle in W.generate(workload, seed)]
    null = Tracer(False)
    for spec in W.warmup_specs(workload):
        call, judge = W.prepare(spec, env)
        judge(call(null))
    return env, cycles


def run_check(spec, call, judge, tr):
    """Time one check; judge it outside the timed region."""
    tr.check_id = spec["id"]
    rec = {"id": spec["id"], "kind": spec["kind"], "cycle": spec["cycle"], "error": None,
           "outputs": None, "counters": None, "refs": []}
    with tr.span(f"check.{spec['kind']}"):
        t0 = time.perf_counter()
        try:
            res = call(tr)
        except Exception as exc:  # the loop must go on; the failure is recorded
            res = None
            rec["error"] = f"{type(exc).__name__}: {exc}"
            rec["traceback"] = traceback.format_exc()
        t1 = time.perf_counter()
    try:
        tr.run_deferred()
    except Exception as exc:  # counters are the harness's own extra calls
        rec["harness_error"] = f"counter {type(exc).__name__}: {exc}"
    if rec["error"] is None:
        try:
            rec["outputs"], rec["counters"], rec["refs"] = judge(res)
        except Exception as exc:  # a harness fault must surface, not stop the run
            rec["error"] = f"judge {type(exc).__name__}: {exc}"
            rec["traceback"] = traceback.format_exc()
            rec["harness_error"] = rec["error"]
    return t1 - t0, rec


def run_cycles(cycles, tr, n_cycles):
    """The first ``n_cycles`` cycles, whole.  Returns latencies and records."""
    lat, recs = [], []
    for j in range(n_cycles):
        for spec, call, judge in cycles[j % len(cycles)]:
            dt, rec = run_check(spec, call, judge, tr)
            lat.append(dt)
            recs.append(rec)
    return {"cycles": n_cycles, "latencies": lat, "records": recs}


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=W.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    env, cycles = setup(args.workload, args.seed)
    result = {"ready_t": time.monotonic()}
    if not args.setup_only:
        if args.trace:
            # the same checks twice, untraced then traced, for the overhead
            n = W.cycles_for(args.workload, args.seconds / 2.0)
            tr = Tracer(True)
            phases = {"untraced": run_cycles(cycles, Tracer(False), n),
                      "traced": run_cycles(cycles, tr, n)}
        else:
            tr = None
            n = W.cycles_for(args.workload, args.seconds)
            phases = {"timed": run_cycles(cycles, Tracer(False), n)}
        who = resource.RUSAGE_CHILDREN if args.workload == "cli_session" else resource.RUSAGE_SELF
        result["peak_rss_kb"] = resource.getrusage(who).ru_maxrss
        if tr is not None:
            import layers

            tr.check_id = "probe"
            layers.run_probes(import_gftkit(), tr, sys.executable, child_env())
            result["spans"] = tr.spans
        result["phases"] = phases
    with open(args.out, "w") as fh:
        json.dump(result, fh, default=str)


if __name__ == "__main__":
    main()
