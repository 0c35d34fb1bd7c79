"""gftkit benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload grid_sweep --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; gftkit is imported from ./src.
Prints a report and, as its last line, one JSON object
{"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
metrics are the end-to-end ones, with --trace 1 the per-layer ones (see
README.md in this directory).  Full records, counters, spans and the
environment go to .bench_out/.  Exits 2 without a result if the checkout
has no gftkit sources, 1 if a worker fails.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import tracing  # noqa: E402
from references import KNOWN_DEFECTS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_SAMPLES = 3  # set-ups per run; setup_s is their median
WORKER_TIMEOUT_S = 150
THREAD_VARS = ("GFT_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def quantile(xs, p):
    """Linear-interpolation quantile of a non-empty list."""
    xs = sorted(xs)
    h = (len(xs) - 1) * p
    lo = int(h)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (h - lo)


def cycle_rate(phase) -> float:
    """Median over cycles of checks per second of check time.  Every cycle
    has the same composition, so cycle rates are comparable, and the median
    keeps a transient slowdown of the host in one cycle out."""
    per = len(phase["latencies"]) // phase["cycles"]
    lat = phase["latencies"]
    return statistics.median(per / sum(lat[i:i + per]) for i in range(0, len(lat), per))


def environment() -> dict:
    env = {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "threads_env": {k: os.environ[k] for k in THREAD_VARS if k in os.environ},
    }
    for pkg in ("numpy", "scipy"):
        try:
            env[pkg] = importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            env[pkg] = None
    try:
        out = subprocess.run(["lscpu", "-J"], capture_output=True, text=True, timeout=10)
        fields = {e["field"].rstrip(":"): e["data"] for e in json.loads(out.stdout)["lscpu"]}
        env.update({"cpu_model": fields.get("Model name"), "l2": fields.get("L2 cache"),
                    "l3": fields.get("L3 cache")})
    except (OSError, ValueError, KeyError, subprocess.TimeoutExpired):
        env.update({"cpu_model": platform.processor() or None, "l2": None, "l3": None})
    commit = None
    if (ROOT / ".git").exists():
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
        commit = out.stdout.strip() or None
    digest = hashlib.sha256()
    for p in sorted((ROOT / "src" / "gftkit").glob("*.py")):
        digest.update(p.name.encode() + p.read_bytes())
    env.update({"commit": commit, "source_sha256": digest.hexdigest()})
    return env


def spawn_worker(args, out: Path, setup_only: bool):
    """Run one worker; return (its result, seconds from spawn to ready)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out", str(out)]
    if setup_only:
        cmd.append("--setup-only")
    t_spawn = time.monotonic()
    # own process group, so a timeout also stops the worker's CLI children
    proc = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True)
    try:
        proc.wait(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    with open(out) as fh:
        result = json.load(fh)
    return result, result["ready_t"] - t_spawn


def _round(x):
    if isinstance(x, bool) or x is None or isinstance(x, (int, str)):
        return x
    if isinstance(x, float):
        return float(f"{x:.6g}")
    if isinstance(x, dict):
        return {k: _round(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_round(v) for v in x]
    return str(x)


def outputs_digest(records) -> str:
    """sha256 of the rounded outputs of the first cycle's checks."""
    first = [(r["id"], _round(r["outputs"]), r["error"] is not None)
             for r in records if r["cycle"] == 0]
    return hashlib.sha256(json.dumps(first, sort_keys=True).encode()).hexdigest()[:16]


def tally(records):
    """Failures by cause; a reference that fails inside a known defect's
    scope counts as failed but not as unexpected."""
    failed, unexpected = 0, []
    defects, errors = {}, {}
    ref_err_max, ref_err_max_new, n_refs = 0.0, 0.0, 0
    for r in records:
        bad = r["error"] is not None
        if bad:
            errors[r["error"].split(":")[0]] = errors.get(r["error"].split(":")[0], 0) + 1
            unexpected.append(r["id"])
        for x in r["refs"]:
            if x["err"] is not None:
                n_refs += 1
                ref_err_max = max(ref_err_max, x["err"])
                if x["defect"] not in KNOWN_DEFECTS:
                    ref_err_max_new = max(ref_err_max_new, x["err"])
            if not x["ok"]:
                bad = True
                if x["defect"] in KNOWN_DEFECTS:
                    defects[x["defect"]] = defects.get(x["defect"], 0) + 1
                else:
                    unexpected.append(f"{r['id']}:{x['name']}")
        failed += bad
    return {"attempted": len(records), "failed": failed, "unexpected": unexpected,
            "known_defects": defects, "errors": errors, "ref_err_max": ref_err_max,
            "ref_err_max_outside_known_defects": ref_err_max_new, "n_refs": n_refs}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "gftkit" / "__init__.py").is_file():
        print(f"error: no gftkit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}.seed{args.seed}.trace{args.trace}"

    try:
        setups = [spawn_worker(args, out_dir / f"{stem}.setup{i}.json", True)[1]
                  for i in range(SETUP_SAMPLES - 1)]
        result, t_setup = spawn_worker(args, out_dir / f"{stem}.worker.json", False)
    except (RuntimeError, OSError, ValueError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    setups.append(t_setup)

    phases = result["phases"]
    main_phase = phases["untraced"] if args.trace else phases["timed"]
    records = [r for p in phases.values() for r in p["records"]]
    t = tally(records)
    digest = outputs_digest(main_phase["records"])
    same = True
    if args.trace:
        same = digest == outputs_digest(phases["traced"]["records"])
    harness_faults = [r["id"] for r in records if r.get("harness_error")]
    correct = not t["unexpected"] and same and not harness_faults
    failed_frac = t["failed"] / t["attempted"]

    lat = main_phase["latencies"]
    if args.trace:
        spans = result["spans"]
        overhead = sum(phases["traced"]["latencies"]) / sum(lat) - 1.0
        metrics = layers.per_layer_metrics(spans, overhead, failed_frac, t["ref_err_max"])
        units = {n: u for n, u, _, _ in layers.PER_LAYER}
    else:
        metrics = {
            "setup_s": statistics.median(setups),
            "checks_per_s": cycle_rate(main_phase),
            "check_ms_p50": quantile(lat, 0.5) * 1e3,
            "check_ms_p90": quantile(lat, 0.9) * 1e3,
            "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
        }
        units = {n: u for n, u, _, _ in layers.END_TO_END}
    missing = [n for n, v in metrics.items() if v is None]
    if missing:
        print(f"error: no data for {', '.join(missing)}", file=sys.stderr)
        return 1

    beyond = len(lat) - int(0.9 * len(lat))
    print(f"gftkit benchmark  workload={args.workload} seed={args.seed} trace={args.trace}")
    print(f"  closed loop, 1 client, no threads: {main_phase['cycles']} whole cycles, "
          f"{len(lat)} checks, {sum(lat):.2f} s of check time")
    print(f"  setup samples (s): {', '.join(f'{s:.3f}' for s in setups)}")
    print(f"  p90 from {len(lat)} samples, {beyond} beyond it"
          + ("" if beyond >= 10 else " (fewer than 10: p90 is not resolved at this run length)"))
    for name, value in metrics.items():
        print(f"  {name:42s} {value:14.6g} {units[name]}")
    print(f"  failed_frac {failed_frac:.6g} ({t['failed']} of {t['attempted']}); "
          f"ref_err_max {t['ref_err_max']:.3g} over {t['n_refs']} closed-form comparisons "
          f"({t['ref_err_max_outside_known_defects']:.3g} outside known defects)")
    for name, n in sorted(t["known_defects"].items()):
        print(f"  known defect {name}: {n} check(s) -- {KNOWN_DEFECTS[name]}")
    for name, n in sorted(t["errors"].items()):
        print(f"  raised {name}: {n} check(s)")
    for item in t["unexpected"][:20]:
        print(f"  UNEXPECTED failure: {item}")
    if harness_faults:
        print(f"  HARNESS fault in judging: {', '.join(harness_faults[:10])}")
    print(f"  outputs digest (cycle 0): {digest}" + ("" if same else " (traced run differs!)"))

    env = environment()
    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "environment": env, "setup_samples_s": setups,
              "metrics": metrics, "tally": t, "digest": digest, "cycles": main_phase["cycles"],
              "latencies_s": lat, "records": main_phase["records"]}
    if args.trace:
        spans = result["spans"]
        report["self_time_s"] = tracing.self_times(spans)
        report["spans"] = spans
        top = sorted(report["self_time_s"].items(), key=lambda kv: -kv[1])[:8]
        print("  self time (s): " + ", ".join(f"{k} {v:.3f}" for k, v in top))
    print(f"  environment: {env['cpu_model']}, nproc {env['nproc']}, L2 {env['l2']}, "
          f"L3 {env['l3']}, python {env['python']}, numpy {env['numpy']}, scipy {env['scipy']}")
    with open(out_dir / f"{stem}.json", "w") as fh:
        json.dump(report, fh, default=str)

    print(json.dumps({
        "correct": correct,
        "attempted": t["attempted"],
        "failed": t["failed"],
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
