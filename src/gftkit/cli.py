"""Command-line front end.

Exit codes: 0 the check holds / the quantity was computed; 1 the check
ran and was violated; 2 usage or evaluation errors.  ``--json`` swaps the
text report for a machine-readable one with the fixed key order
{command, inputs, verdict, order_estimate?, tolerances, wall_time_ms,
version}; everything except wall_time_ms is reproducible bit-for-bit for
fixed inputs and --seed.  GFT_THREADS overrides the grid-evaluation
worker count.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time

import numpy as np

from . import __version__, catalog
from .errors import GftError, WronskianDrift
from .expressions import parse
from .families import DiskSampler, Family, membership, order_estimate, injectivity_spot_check
from .palpha import QFunction, check_palpha, constant_solver, sharpness_construct
from .radius import radius_inverse_convexity, rotation_witness, verify_radius
from .rays import starlike_equivalence_check
from .schwarzian import schwarzian, schwarzian_norm
from .theorems import verify_duality, verify_inclusions, verify_sufficiency


def _parse_complex(text: str) -> complex:
    try:
        return complex(text.strip().replace(" ", "").replace("i", "j"))
    except ValueError:
        raise ValueError(f"cannot parse complex number {text!r}; use forms like 0.5 or 0.3+0.4i")


def _add_common(p):
    p.add_argument("--json", action="store_true", help="emit a JSON report")
    p.add_argument("--seed", type=int, default=0, help="seed for quasi-random sampling")
    p.add_argument("--tol", type=float, default=1e-6, help="verdict tolerance")


def _add_source(p, required=True):
    g = p.add_mutually_exclusive_group(required=required)
    g.add_argument("--expr", help="expression in z, e.g. 'z/4 + 1/z'")
    g.add_argument("--catalog", dest="catalog_name", metavar="NAME",
                   help="built-in catalog entry name (see the catalog subcommand)")


def _add_sampler(p):
    p.add_argument("--rmax", type=float, default=0.999, help="outer sampling radius")
    p.add_argument("--rings", type=int, default=64, help="number of radii")
    p.add_argument("--points", type=int, default=512, help="points per ring")
    p.add_argument("--exclude", type=float, default=1e-3,
                   help="exclusion radius around the origin and declared singularities")


def _source_expr(args):
    if args.catalog_name:
        entry = catalog.get_entry(args.catalog_name)
        return entry.expr, entry.expr_text
    f = parse(args.expr)
    return f, args.expr


def _sampler(args) -> DiskSampler:
    return DiskSampler(
        r_max=args.rmax,
        rings=args.rings,
        points_per_ring=args.points,
        exclusion_radius=args.exclude,
    )


def _witness(re=0.0, im=0.0, value=0.0):
    return {"re": float(re), "im": float(im), "value": float(value)}


def _emit(args, command, inputs, verdict, tolerances, t0, text_lines, order_est=None):
    if args.json:
        report = {"command": command, "inputs": inputs, "verdict": verdict}
        if order_est is not None:
            report["order_estimate"] = float(order_est)
        report["tolerances"] = tolerances
        report["wall_time_ms"] = round((time.perf_counter() - t0) * 1000.0, 3)
        report["version"] = __version__
        print(json.dumps(report, indent=2))
    else:
        for line in text_lines:
            print(line)


# -- subcommand handlers ---------------------------------------------------


def _cmd_classify(args, t0):
    f, text = _source_expr(args)
    sampler = _sampler(args)
    v = membership(f, Family(args.family), args.alpha, sampler=sampler, tol=args.tol)
    lines = [
        f"family {v.family.value}, alpha = {v.alpha}",
        f"holds on samples: {v.holds_on_samples}",
        f"margin: {v.margin:.9g}",
        f"witness: {v.witness:.9f} (functional {v.witness_value:.9g})",
        f"order estimate (grid): {v.order_estimate:.9g}",
        f"samples: {v.samples_evaluated} evaluated, {v.samples_skipped} skipped",
    ]
    if Family(args.family) is Family.BCI:
        ok = injectivity_spot_check(f, seed=args.seed)
        lines.append(f"injectivity spot check (heuristic): {'no collisions' if ok else 'FAILED'}")
    _emit(
        args, "classify",
        {"expr": text, "family": args.family, "alpha": args.alpha, "seed": args.seed,
         "rmax": args.rmax, "rings": args.rings, "points": args.points,
         "exclude": args.exclude},
        {"holds": v.holds_on_samples, "margin": v.margin,
         "witness": _witness(v.witness.real, v.witness.imag, v.witness_value)},
        {"tol": args.tol}, t0, lines, order_est=v.order_estimate,
    )
    return 0 if v.holds_on_samples else 1


def _cmd_order(args, t0):
    f, text = _source_expr(args)
    sampler = _sampler(args)
    fam = Family(args.family)
    v = membership(f, fam, 0.0, sampler=sampler, tol=args.tol)
    refined = order_estimate(f, fam, sampler=sampler)
    lines = [
        f"family {fam.value}",
        f"order estimate: {refined:.9g}",
        f"grid minimum at {v.witness:.9f} (functional {v.witness_value:.9g})",
    ]
    _emit(
        args, "order",
        {"expr": text, "family": args.family, "seed": args.seed, "rmax": args.rmax,
         "rings": args.rings, "points": args.points, "exclude": args.exclude},
        {"holds": refined > 0.0, "margin": refined,
         "witness": _witness(v.witness.real, v.witness.imag, v.witness_value)},
        {"tol": args.tol}, t0, lines, order_est=refined,
    )
    return 0


def _cmd_schwarzian(args, t0):
    f, text = _source_expr(args)
    z = _parse_complex(args.z)
    s = schwarzian(f, z)
    lines = [f"S_f({z}) = {s.real:.15g} + {s.imag:.15g}i", f"|S_f| = {abs(s):.15g}"]
    _emit(
        args, "schwarzian",
        {"expr": text, "z": {"re": z.real, "im": z.imag}, "seed": args.seed},
        {"holds": True, "margin": 0.0, "witness": _witness(s.real, s.imag, abs(s))},
        {"tol": args.tol}, t0, lines,
    )
    return 0


def _cmd_norm(args, t0):
    f, text = _source_expr(args)
    est = schwarzian_norm(f, rings=args.rings, points_per_ring=args.points,
                          refine_iters=args.refine)
    lines = [
        f"norm lower bound: {est.lower_bound:.12g}",
        f"argmax: {est.argmax:.9f}",
        f"grid: {est.evaluated} evaluated, {est.skipped} skipped",
    ]
    _emit(
        args, "norm",
        {"expr": text, "rings": args.rings, "points": args.points,
         "refine": args.refine, "seed": args.seed},
        {"holds": True, "margin": est.lower_bound,
         "witness": _witness(est.argmax.real, est.argmax.imag, est.lower_bound)},
        {"tol": args.tol}, t0, lines,
    )
    return 0


def _q_from_args(args) -> QFunction:
    if getattr(args, "q_const", None) is not None:
        return QFunction.constant(args.q_const)
    if getattr(args, "q", None):
        return QFunction.from_expression(args.q)
    raise ValueError("need --q or --q-const")


def _cmd_palpha(args, t0):
    q = _q_from_args(args)
    v = check_palpha(q, args.alpha, eps_end=args.eps_end, tol=args.tol)
    lines = [
        f"q: {q.label}",
        f"positive on (0,1): {v.positive_on_01}"
        + ("" if v.first_zero is None else f" (first zero near x = {v.first_zero:.9f})"),
        f"boundary log-slope limit: {v.limit_estimate:.9g}",
        f"member at alpha = {v.alpha}: {v.member}",
    ]
    if v.positive_on_01:
        margin = v.limit_estimate - v.alpha
        wit = _witness(1.0, 0.0, v.limit_estimate)
    else:
        margin = -1.0  # sentinel: fails by positivity, not by the limit
        wit = _witness(v.first_zero, 0.0, 0.0)
    _emit(
        args, "palpha",
        {"q": q.label, "alpha": args.alpha, "eps_end": args.eps_end, "seed": args.seed},
        {"holds": v.member, "margin": margin, "witness": wit},
        {"tol": args.tol, "ladder_settle": 1e-5}, t0, lines,
    )
    return 0 if v.member else 1


def _cmd_const_q(args, t0):
    c = constant_solver(args.target)
    t = np.sqrt(c)
    residual = abs(t / np.tan(t) - args.target)
    lines = [f"c = {c!r}", f"residual |sqrt(c) cot(sqrt(c)) - target| = {residual:.3e}"]
    _emit(
        args, "const-q",
        {"target": args.target, "seed": args.seed},
        {"holds": True, "margin": residual, "witness": _witness(c, 0.0, c)},
        {"tol": args.tol, "solver_xtol": 1e-15}, t0, lines,
    )
    return 0


def _cmd_radius(args, t0):
    res = radius_inverse_convexity(args.alpha)
    lines = [
        f"radius of inverse convexity at alpha = {args.alpha}: {res.radius!r}",
        f"closed form: {res.closed_form!r} (difference {abs(res.radius - res.closed_form):.3e})",
        f"polynomial residual: {res.residual:.3e}",
    ]
    code = 0
    verdict = {"holds": True, "margin": res.residual,
               "witness": _witness(res.radius, 0.0, res.radius)}
    inputs = {"alpha": args.alpha, "seed": args.seed}
    if args.check_expr or args.check_catalog:
        if args.check_catalog:
            entry = catalog.get_entry(args.check_catalog)
            g, gtext = entry.expr, entry.expr_text
        else:
            g, gtext = parse(args.check_expr), args.check_expr
        r = args.at_radius if args.at_radius is not None else res.radius
        chk = verify_radius(g, args.alpha, radius=r, tol=args.tol)
        wit = rotation_witness(g, args.alpha, r, tol=args.tol)
        lines += [
            f"check {gtext} on |z| < {r!r}: holds = {chk.holds_inside} "
            f"(margin {chk.verdict.margin:.6g})",
            f"worst rotation at tau = {wit.tau:.6f}: functional {wit.value:.6g}"
            + (" (violates)" if wit.violates else ""),
        ]
        verdict = {
            "holds": chk.holds_inside,
            "margin": chk.verdict.margin,
            "witness": _witness(chk.verdict.witness.real, chk.verdict.witness.imag,
                                chk.verdict.witness_value),
        }
        inputs.update({"check": gtext, "at_radius": r})
        code = 0 if chk.holds_inside else 1
    _emit(args, "radius", inputs, verdict, {"tol": args.tol, "root_xtol": 1e-15}, t0, lines)
    return code


_WRONSKIAN_TOL = 1e-8


def _cmd_factor_check(args, t0):
    f, text = _source_expr(args)
    sampler = _sampler(args)
    rep = starlike_equivalence_check(f, args.alpha, n_rays=args.rays, sampler=sampler,
                                     tol=max(args.tol, 1e-4))
    if rep.wronskian_worst > _WRONSKIAN_TOL:
        raise WronskianDrift(
            f"worst Wronskian drift {rep.wronskian_worst:.3e} exceeds {_WRONSKIAN_TOL:g}; "
            "the ray solves cannot be trusted"
        )
    lines = [
        f"target starlike order (1+alpha)/2 = {0.5 * (1 + args.alpha)}",
        f"factor-solution margin over {rep.n_rays} rays: {rep.v_margin:.6g} "
        f"(worst ray theta = {rep.worst_ray_theta:.6f})",
        f"worst Wronskian drift: {rep.wronskian_worst:.3e}",
        f"convexity verdict: holds = {rep.bc_holds} (margin {rep.bc_margin:.6g})",
        f"routes agree: {rep.agree}",
    ]
    wz = sampler.r_max * np.exp(1j * rep.worst_ray_theta)
    _emit(
        args, "factor-check",
        {"expr": text, "alpha": args.alpha, "rays": args.rays, "rmax": args.rmax,
         "seed": args.seed},
        {"holds": rep.agree, "margin": rep.v_margin,
         "witness": _witness(wz.real, wz.imag, rep.v_margin)},
        {"tol": max(args.tol, 1e-4), "wronskian": _WRONSKIAN_TOL}, t0, lines,
    )
    return 0 if rep.agree else 1


def _cmd_theorem(args, t0):
    sampler = _sampler(args)
    if args.check == "sufficiency":
        f, text = _source_expr(args)
        rep = verify_sufficiency(f, _q_from_args(args), args.alpha, sampler=sampler,
                                 tol=args.tol)
    elif args.check == "duality":
        f, text = _source_expr(args)
        rep = verify_duality(f, args.alpha, sampler=sampler, tol=args.tol)
    else:
        f, text = _source_expr(args)
        alphas = [float(a) for a in args.alphas.split(",") if a.strip()]
        rep = verify_inclusions(f, alphas, sampler=sampler, tol=args.tol)
    lines = [f"check: {rep.check_id}", f"subject: {rep.subject}"]
    lines += [
        f"  [{'pass' if it.passed else 'FAIL'}] {it.name}: margin {it.margin:.6g}"
        + (f" ({it.detail})" if it.detail else "")
        for it in rep.items
    ]
    lines.append(f"consistent: {rep.consistent}")
    worst = min(it.margin for it in rep.items)
    _emit(
        args, "theorem",
        {"check": args.check, "expr": text, "alpha": args.alpha, "seed": args.seed},
        {"holds": rep.consistent, "margin": float(worst), "witness": _witness(0.0, 0.0, worst)},
        {"tol": args.tol}, t0, lines,
    )
    return 0 if rep.consistent else 1


def _cmd_sharpness(args, t0):
    res = sharpness_construct(args.n, args.beta, eps_end=args.eps_end)
    lines = [
        f"coefficient: {res.q.label}",
        f"ratio target beta = {res.beta}, boundary limit estimate "
        f"{res.limit_estimate:.9g}",
        f"infimum of x y'/y on the span: {res.min_ratio:.9g} at x = {res.argmin_x:.9f}",
        f"certified floor beta + (1-beta)/(n+2): {res.floor:.9g}",
    ]
    if res.found:
        lines.append(
            f"found x0 = {res.x0:.9f}: ratio {res.ratio_at_x0:.9g}, "
            f"convexity value {res.convexity_value:.9g}"
        )
        wit = _witness(res.x0, 0.0, res.ratio_at_x0)
    else:
        lines.append("no x0 with x y'/y <= beta in the span "
                     "(the construction tightens only as n grows)")
        wit = _witness(res.argmin_x, 0.0, res.min_ratio)
    # the gap to beta at the boundary; min_ratio at x = 1 - eps_end overstates it
    boundary = res.min_ratio if math.isnan(res.limit_estimate) else res.limit_estimate
    _emit(
        args, "sharpness",
        {"n": args.n, "beta": args.beta, "eps_end": args.eps_end, "seed": args.seed},
        {"holds": res.found, "margin": boundary - res.beta, "witness": wit},
        {"tol": args.tol}, t0, lines,
    )
    return 0 if res.found else 1


def _cmd_catalog(args, t0):
    data = catalog.catalog_json()
    if args.json:
        print(json.dumps(data, indent=2))
        return 0
    for e in catalog.entries():
        print(f"{e.name}: {e.expr_text}")
        for c in e.claims:
            print(f"    {c.family.value} order {c.order}: {c.cite}")
        if e.notes:
            print(f"    note: {e.notes}")
    return 0


# -- parser ------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gftkit",
        description="Numerical checks for meromorphic convexity, starlikeness, "
        "Schwarzian norms, and the associated ODE positivity classes.",
        epilog="Environment: GFT_THREADS overrides the grid-evaluation worker count.",
    )
    parser.add_argument("--version", action="version", version=f"gftkit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="sampled family membership verdict")
    _add_source(p)
    p.add_argument("--family", required=True, choices=[f.value for f in Family])
    p.add_argument("--alpha", type=float, default=0.0)
    _add_sampler(p)
    _add_common(p)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("order", help="largest sampled order for a family")
    _add_source(p)
    p.add_argument("--family", required=True, choices=[f.value for f in Family])
    _add_sampler(p)
    _add_common(p)
    p.set_defaults(func=_cmd_order)

    p = sub.add_parser("schwarzian", help="Schwarzian derivative at a point")
    _add_source(p)
    p.add_argument("--z", required=True, help="evaluation point, e.g. 0.3+0.4i")
    _add_common(p)
    p.set_defaults(func=_cmd_schwarzian)

    p = sub.add_parser("norm", help="hyperbolically weighted Schwarzian norm (lower bound)")
    _add_source(p)
    p.add_argument("--rings", type=int, default=64)
    p.add_argument("--points", type=int, default=512)
    p.add_argument("--refine", type=int, default=3, help="golden-section polish rounds")
    _add_common(p)
    p.set_defaults(func=_cmd_norm)

    p = sub.add_parser("palpha", help="positivity-class membership for a coefficient q")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--q", help="expression in x, e.g. '2*(1-x)'")
    g.add_argument("--q-const", type=float, help="constant coefficient value")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--eps-end", type=float, default=2.0**-21,
                   help="distance to 1 at which integration stops")
    _add_common(p)
    p.set_defaults(func=_cmd_palpha)

    p = sub.add_parser("const-q", help="constant coefficient matching a boundary limit")
    p.add_argument("--target", type=float, required=True, help="target limit in (0,1)")
    _add_common(p)
    p.set_defaults(func=_cmd_const_q)

    p = sub.add_parser("radius", help="radius of inverse convexity, optional sampled check")
    p.add_argument("--alpha", type=float, required=True)
    chk = p.add_mutually_exclusive_group()
    chk.add_argument("--check-expr", help="expression to verify on the sub-disk")
    chk.add_argument("--check-catalog", metavar="NAME", help="catalog entry to verify")
    p.add_argument("--at-radius", type=float, default=None,
                   help="verify at this radius instead of r_alpha")
    _add_common(p)
    p.set_defaults(func=_cmd_radius)

    p = sub.add_parser("factor-check", help="convexity vs starlike factor-solution agreement")
    _add_source(p)
    p.add_argument("--alpha", type=float, default=0.0)
    p.add_argument("--rays", type=int, default=64)
    _add_sampler(p)
    _add_common(p)
    p.set_defaults(func=_cmd_factor_check)

    p = sub.add_parser("theorem", help="structural consistency checks")
    p.add_argument("--check", required=True, choices=["sufficiency", "duality", "inclusions"])
    _add_source(p)
    p.add_argument("--alpha", type=float, default=0.0)
    p.add_argument("--q", help="coefficient expression in x (sufficiency)")
    p.add_argument("--q-const", type=float, help="constant coefficient (sufficiency)")
    p.add_argument("--alphas", default="0.1,0.25,0.4",
                   help="comma-separated orders (inclusions)")
    _add_sampler(p)
    _add_common(p)
    p.set_defaults(func=_cmd_theorem)

    p = sub.add_parser("sharpness", help="search for a convexity breakdown point of the "
                                         "monomial coefficient construction")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--eps-end", type=float, default=1e-6)
    _add_common(p)
    p.set_defaults(func=_cmd_sharpness)

    p = sub.add_parser("catalog", help="list the built-in reference maps")
    _add_common(p)
    p.set_defaults(func=_cmd_catalog)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    t0 = time.perf_counter()
    try:
        return args.func(args, t0)
    except (GftError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
