"""Metric registry, the fixed layer probes, and per-layer aggregation.

End-to-end metrics come from untraced runs.  Per-layer metrics come from
a traced run: spans around the workload's own calls into gftkit plus a
fixed probe set that calls every module once at reference sizes, so each
traced run reports every layer whichever workload it measures.  Each
per-layer entry names the end-to-end metric and workload it should move.
"""

from __future__ import annotations

import contextlib
import io
import json
import statistics
import subprocess

from tracing import durations

# (name, unit, better, bound)
# The timing bounds sit at the 0.25 maximum: on the 2-core reference host
# the same run drifts by up to ~30% within minutes (see README).
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("checks_per_s", "1/s", "higher", 0.25),
    ("check_ms_p50", "ms", "lower", 0.25),
    ("check_ms_p90", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

CLI_SUBS = ("classify", "order", "norm", "schwarzian", "radius", "const-q", "palpha",
            "theorem", "factor-check")
JET_MAPS = ("quarter_pole", "cot_scaled", "inverse_log")
JET_GRIDS = ("16x256", "64x512", "128x4096")

_GRID = "checks_per_s/check_ms_p50 on grid_sweep"
# (name, unit, better, what it should move)
PER_LAYER = (
    ("cli.interp_ms", "ms", "lower", "floor of every CLI call; should never move"),
    ("cli.import_ms", "ms", "lower",
     "check_ms_p50/checks_per_s on cli_session; setup_s everywhere"),
    *((f"cli.work_ms.{s}", "ms", "lower", "check_ms_p90 on cli_session") for s in CLI_SUBS),
    ("expressions.parse_us", "us", "lower", "setup_s"),
    ("expressions.scalar_jet_us", "us", "lower", "checks_per_s on ray_sweep"),
    *((f"jets.eval_ns_per_point.{m}.{g}", "ns", "lower",
       f"{_GRID}; no change on palpha_sweep") for m in JET_MAPS for g in JET_GRIDS),
    ("families.membership_ms", "ms", "lower", _GRID),
    ("families.order_estimate_ms", "ms", "lower", _GRID),
    ("families.polish_ms", "ms", "lower", _GRID),
    ("families.functional_ns_per_point", "ns", "lower", _GRID),
    ("families.samples_evaluated", "count", "higher", "work count on grid_sweep"),
    ("families.samples_skipped", "count", "lower", "work count on grid_sweep"),
    ("families.useful_ratio", "ratio", "higher", "work count on grid_sweep"),
    ("schwarzian.grid_ns_per_point", "ns", "lower", _GRID),
    ("schwarzian.norm_ms", "ms", "lower", _GRID),
    ("schwarzian.norm_evaluated", "count", "higher", "work count on grid_sweep"),
    ("schwarzian.invariance_ms", "ms", "lower", _GRID),
    ("schwarzian.scalar_us", "us", "lower", "checks_per_s on ray_sweep"),
    ("palpha.check_ms", "ms", "lower",
     "every metric on palpha_sweep; check_ms_p90 on grid_sweep (sufficiency)"),
    ("palpha.rhs_calls", "count", "lower", "every metric on palpha_sweep"),
    ("palpha.us_per_rhs", "us", "lower", "every metric on palpha_sweep"),
    ("palpha.integral_ms", "ms", "lower", "checks_per_s on palpha_sweep"),
    ("palpha.sharpness_ms", "ms", "lower", "check_ms_p90 on palpha_sweep"),
    ("palpha.constant_solver_us", "us", "lower", "check_ms_p50 on palpha_sweep"),
    ("rays.solve_ray_ms", "ms", "lower", "checks_per_s/check_ms_p50 on ray_sweep"),
    ("rays.rhs_calls", "count", "lower", "checks_per_s on ray_sweep"),
    ("rays.us_per_rhs", "us", "lower", "checks_per_s on ray_sweep"),
    ("rays.equivalence_ms_per_ray", "ms", "lower", "check_ms_p90/peak_rss_mb on ray_sweep"),
    ("rays.wronskian_drift_max", "ratio", "lower", "quality gauge on ray_sweep; must stay <= 1e-8"),
    ("rays.reconstruct_ms", "ms", "lower", "check_ms_p90 on palpha_sweep"),
    ("radius.root_us", "us", "lower", _GRID),
    ("radius.verify_ms", "ms", "lower", _GRID),
    ("radius.rotation_ms", "ms", "lower", _GRID),
    ("theorems.duality_ms", "ms", "lower", "check_ms_p90 on grid_sweep"),
    ("theorems.inclusions_ms", "ms", "lower", "check_ms_p90 on grid_sweep"),
    ("theorems.sufficiency_ms", "ms", "lower", "check_ms_p90 on grid_sweep"),
    ("trace.overhead_frac", "ratio", "lower", "traced minus untraced check time, same checks"),
    ("checks.failed_frac", "ratio", "lower", "failed/attempted checks of the run"),
    ("checks.ref_err_max", "ratio", "lower", "largest reference error over its tolerance"),
)


# -- probes --------------------------------------------------------------------------------


def run_probes(g, tr, python: str, child_env: dict):
    """Fixed calls into every module at reference sizes, all under spans."""
    from gftkit import catalog, cli

    for _ in range(3):
        with tr.span("cli.interp"):
            subprocess.run([python, "-c", "pass"], env=child_env, check=True, timeout=60)
    for _ in range(3):
        with tr.span("cli.import"):
            subprocess.run([python, "-c", "import gftkit.cli"], env=child_env, check=True,
                           timeout=60)
    for argv in (
        ["classify", "--catalog", "quarter_pole", "--family", "bc", "--alpha", "0.5"],
        ["order", "--catalog", "quarter_pole", "--family", "bc"],
        ["norm", "--catalog", "koebe"],
        ["schwarzian", "--catalog", "koebe", "--z", "0.3+0.4i"],
        ["radius", "--alpha", "0.3", "--check-catalog", "koebe_reciprocal"],
        ["const-q", "--target", "0.5"],
        ["palpha", "--q", "2*(1-x)", "--alpha", "0.5"],
        ["theorem", "--check", "duality", "--catalog", "inverse_log", "--alpha", "0.5"],
        ["factor-check", "--catalog", "quarter_pole", "--alpha", "0.5", "--rays", "8"],
    ):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), tr.span(f"cli.{argv[0]}") as a:
            cli.main(argv + ["--json"])
        a["wall_time_ms"] = json.loads(buf.getvalue())["wall_time_ms"]

    texts = [e.expr_text for e in catalog.entries()]
    for _ in range(5):
        with tr.span("expressions.parse", n=len(texts) * 20):
            for _ in range(20):
                for t in texts:
                    g.parse(t)

    maps = {"quarter_pole": catalog.get_entry("quarter_pole").expr,
            "cot_scaled": catalog.get_entry("cot_scaled_a030").expr,
            "inverse_log": catalog.get_entry("inverse_log").expr}
    z0 = 0.3 + 0.4j
    for f in maps.values():
        with tr.span("expressions.eval_jet.scalar", n=200):
            for _ in range(200):
                g.eval_jet(f, z0)
        with tr.span("schwarzian.schwarzian.scalar", n=200):
            for _ in range(200):
                g.schwarzian(f, z0)
    reps = {"16x256": 5, "64x512": 3, "128x4096": 2}
    for grid, n in reps.items():
        rings, ppr = (int(x) for x in grid.split("x"))
        sampler = g.DiskSampler(rings=rings, points_per_ring=ppr)
        for name, f in maps.items():
            pts = sampler.points(f.singular_points, f.exclusion_radius)
            for _ in range(n):
                with tr.span(f"jets.eval.{name}.{grid}", points=int(pts.size)):
                    g.eval_jet(f, pts)
            if grid == "64x512":
                with tr.span("schwarzian.schwarzian.grid", points=int(pts.size)):
                    g.schwarzian(f, pts)

    qp, koebe = maps["quarter_pole"], catalog.get_entry("koebe").expr
    with tr.span("families.membership", grid="probe") as a:
        v = g.membership(qp, "bc", 0.5)
    a.update(evaluated=v.samples_evaluated, skipped=v.samples_skipped)
    with tr.span("families.order_estimate", grid="probe"):
        g.order_estimate(qp, "bc")
    with tr.span("schwarzian.schwarzian_norm") as a:
        est = g.schwarzian_norm(koebe)
    a.update(evaluated=est.evaluated, skipped=est.skipped)
    with tr.span("schwarzian.invariance_residuals"):
        g.invariance_residuals(qp, (1.0, 2.0, 0.5, 3.0), [0.3 + 0.2j, 0.5j, -0.4, 0.1 - 0.6j])

    q = g.QFunction.from_expression("2*(1-x)")
    with tr.span("palpha.check_palpha", q="probe"):
        g.check_palpha(q, 0.5)
    with tr.span("palpha.integrate_ivp") as a:
        sol = g.integrate_ivp(q, eps_end=2.0**-21, rel_tol=1e-10)
    a["n_rhs"] = sol.n_rhs
    with tr.span("palpha.integral_criterion"):
        g.integral_criterion(q, 1.0)
    with tr.span("palpha.sharpness_construct", n=200):
        g.sharpness_construct(200, 0.4)
    for _ in range(10):
        with tr.span("palpha.constant_solver"):
            g.constant_solver(0.5)

    cot = maps["cot_scaled"]
    with tr.span("rays.solve_ray") as a:
        ray = g.solve_ray(lambda z: g.schwarzian(cot, z) / 2.0, 0.3)
    a.update(n_rhs=ray.n_rhs, drift=ray.wronskian_drift)
    with tr.span("rays.starlike_equivalence_check", n_rays=8) as a:
        rep = g.starlike_equivalence_check(cot, 0.3, n_rays=8)
    a["drift"] = rep.wronskian_worst
    with tr.span("rays.reconstruct_f_from_y"):
        g.reconstruct_f_from_y(q, 0.5)

    krec = catalog.get_entry("koebe_reciprocal").expr
    for _ in range(10):
        with tr.span("radius.radius_inverse_convexity"):
            root = g.radius_inverse_convexity(0.3)
    with tr.span("radius.verify_radius"):
        g.verify_radius(krec, 0.3)
    with tr.span("radius.rotation_witness"):
        g.rotation_witness(krec, 0.3, root.radius)

    il = maps["inverse_log"]
    with tr.span("theorems.verify_duality"):
        g.verify_duality(il, 0.5)
    with tr.span("theorems.verify_inclusions"):
        g.verify_inclusions(il, (0.1, 0.25, 0.4))
    with tr.span("theorems.verify_sufficiency"):
        g.verify_sufficiency(cot, g.QFunction.constant(0.7 / 3.141592653589793), 0.3)


# -- aggregation -----------------------------------------------------------------------


def _median(xs, scale):
    return statistics.median(xs) * scale if xs else None


def _attrs(spans, name, key):
    return [s["attrs"][key] for s in spans if s["name"] == name and key in s["attrs"]]


def _per_unit(spans, name, key, scale):
    """Total span time over the total of one counter, scaled."""
    total = sum(s["end"] - s["start"] for s in spans if s["name"] == name and key in s["attrs"])
    count = sum(_attrs(spans, name, key))
    return total / count * scale if count else None


def _mean(xs):
    return sum(xs) / len(xs) if xs else None


def _polish(spans):
    """order_estimate minus membership on the same draw: the polish's cost."""
    member = {s["attrs"]["grid"]: s["end"] - s["start"] for s in spans
              if s["name"] == "families.membership" and "grid" in s["attrs"]}
    diffs = [(s["end"] - s["start"]) - member[s["attrs"]["grid"]] for s in spans
             if s["name"] == "families.order_estimate" and s["attrs"].get("grid") in member]
    return _median(diffs, 1e3)


def per_layer_metrics(spans, overhead, failed_frac, ref_err_max) -> dict:
    ms, us = 1e3, 1e6
    m = {
        "cli.interp_ms": _median(durations(spans, "cli.interp"), ms),
        "cli.import_ms": _median(durations(spans, "cli.import"), ms),
    }
    for sub in CLI_SUBS:
        m[f"cli.work_ms.{sub}"] = _median(_attrs(spans, f"cli.{sub}", "wall_time_ms"), 1.0)
    m["expressions.parse_us"] = _per_unit(spans, "expressions.parse", "n", us)
    m["expressions.scalar_jet_us"] = _per_unit(spans, "expressions.eval_jet.scalar", "n", us)
    for name in JET_MAPS:
        for grid in JET_GRIDS:
            s = [x for x in spans if x["name"] == f"jets.eval.{name}.{grid}"]
            m[f"jets.eval_ns_per_point.{name}.{grid}"] = _median(
                [(x["end"] - x["start"]) / x["attrs"]["points"] for x in s], 1e9)
    evaluated = _attrs(spans, "families.membership", "evaluated")
    skipped = _attrs(spans, "families.membership", "skipped")
    m.update({
        "families.membership_ms": _median(durations(spans, "families.membership"), ms),
        "families.order_estimate_ms": _median(durations(spans, "families.order_estimate"), ms),
        "families.polish_ms": _polish(spans),
        "families.functional_ns_per_point": (
            sum(durations(spans, "families.membership")) / (sum(evaluated) + sum(skipped)) * 1e9
            if evaluated else None),
        "families.samples_evaluated": _mean(evaluated),
        "families.samples_skipped": _mean(skipped),
        "families.useful_ratio": (sum(evaluated) / (sum(evaluated) + sum(skipped))
                                  if evaluated else None),
        "schwarzian.grid_ns_per_point": _per_unit(spans, "schwarzian.schwarzian.grid", "points", 1e9),
        "schwarzian.norm_ms": _median(durations(spans, "schwarzian.schwarzian_norm"), ms),
        "schwarzian.norm_evaluated": _mean(_attrs(spans, "schwarzian.schwarzian_norm", "evaluated")),
        "schwarzian.invariance_ms": _median(durations(spans, "schwarzian.invariance_residuals"), ms),
        "schwarzian.scalar_us": _per_unit(spans, "schwarzian.schwarzian.scalar", "n", us),
        "palpha.check_ms": _median(durations(spans, "palpha.check_palpha"), ms),
        "palpha.rhs_calls": _mean(_attrs(spans, "palpha.integrate_ivp", "n_rhs")),
        "palpha.us_per_rhs": _per_unit(spans, "palpha.integrate_ivp", "n_rhs", us),
        "palpha.integral_ms": _median(durations(spans, "palpha.integral_criterion"), ms),
        "palpha.sharpness_ms": _median(durations(spans, "palpha.sharpness_construct"), ms),
        "palpha.constant_solver_us": _median(durations(spans, "palpha.constant_solver"), us),
        "rays.solve_ray_ms": _median(durations(spans, "rays.solve_ray"), ms),
        "rays.rhs_calls": _mean(_attrs(spans, "rays.solve_ray", "n_rhs")),
        "rays.us_per_rhs": _per_unit(spans, "rays.solve_ray", "n_rhs", us),
        "rays.equivalence_ms_per_ray": _per_unit(spans, "rays.starlike_equivalence_check",
                                                 "n_rays", ms),
        "rays.wronskian_drift_max": max(_attrs(spans, "rays.solve_ray", "drift")
                                        + _attrs(spans, "rays.starlike_equivalence_check", "drift")),
        "rays.reconstruct_ms": _median(durations(spans, "rays.reconstruct_f_from_y"), ms),
        "radius.root_us": _median(durations(spans, "radius.radius_inverse_convexity"), us),
        "radius.verify_ms": _median(durations(spans, "radius.verify_radius"), ms),
        "radius.rotation_ms": _median(durations(spans, "radius.rotation_witness"), ms),
        "theorems.duality_ms": _median(durations(spans, "theorems.verify_duality"), ms),
        "theorems.inclusions_ms": _median(durations(spans, "theorems.verify_inclusions"), ms),
        "theorems.sufficiency_ms": _median(durations(spans, "theorems.verify_sufficiency"), ms),
        "trace.overhead_frac": overhead,
        "checks.failed_frac": failed_frac,
        "checks.ref_err_max": ref_err_max,
    })
    return m
