"""Command-line front end.

Every subcommand handler returns a ``_Report``; ``main`` alone prints it
and returns its exit code.  Exit codes: 0 the check holds or the quantity
was computed, 1 the check ran and was violated, 2 usage or evaluation
errors; the one exception is ``order``, which exits 0 whenever the
estimate was computed, even with ``"holds": false``.  ``--json`` swaps the
text report for a machine-readable one with the fixed key order
{command, inputs, verdict, order_estimate?, tolerances, wall_time_ms,
version}; everything except wall_time_ms is reproducible bit-for-bit for
fixed inputs and --seed.

Start-up comes in two tiers.  This module imports no numpy: ``--version``,
``--help``, ``catalog`` and every input that fails to parse are answered
without it.  ``main`` reads every map, point and list the arguments give
as text first, then imports the modules the subcommand runs, and only
then starts the clock that ``wall_time_ms`` reports.  Handlers import
their names from those modules, which are loaded by then.
"""

from __future__ import annotations

import argparse
import cmath
import errno
import importlib
import json
import math
import os
import sys
import time
from dataclasses import dataclass

from . import __version__, catalog
from .errors import EvaluationFailed, GftError, WronskianDrift
from .expressions import FunctionExpr, parse
from .shared import CHECK_IDS, Family


def _parse_complex(text: str) -> complex:
    try:
        return complex(text.strip().replace(" ", "").replace("i", "j"))
    except ValueError:
        raise ValueError(f"cannot parse complex number {text!r}; use forms like 0.5 or 0.3+0.4i")


def _tolerance(text: str) -> float:
    """A --tol value: a NaN or infinite tolerance would flip verdicts silently."""
    try:
        tol = float(text)
    except ValueError:
        tol = math.nan
    if not 0.0 <= tol < math.inf:
        raise argparse.ArgumentTypeError(f"need a finite tolerance >= 0, got {text!r}")
    return tol


def _add_common(p, handler, *modules):
    """``modules``: what ``handler`` runs, for ``main`` to import before the
    clock; gftkit's modules relative (".palpha"), and numpy's lazily loaded
    submodules that the numerics reach."""
    p.add_argument("--json", action="store_true", help="emit a JSON report")
    p.add_argument("--seed", type=int, default=0, help="seed for quasi-random sampling")
    p.add_argument("--tol", type=_tolerance, default=1e-6, help="verdict tolerance")
    p.set_defaults(func=handler, modules=modules)


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


def _load(name, text):
    """The catalog entry ``name``'s map, else ``text`` parsed; with its text."""
    if name:
        entry = catalog.get_entry(name)
        return entry.expr, entry.expr_text
    return parse(text), text


def _parse_alphas(text: str) -> list:
    alphas = [float(a) for a in text.split(",") if a.strip()]
    if not alphas:
        raise ValueError(f"--alphas {text!r} names no order; give comma-separated orders "
                         "such as 0.1,0.25")
    return alphas


def _read_q(args):
    """--q-const, else the map --q; parsed, not yet screened."""
    if args.q_const is not None:
        return args.q_const
    if args.q:
        return parse(args.q, variable="x")
    raise ValueError("need --q or --q-const")


def _read_inputs(args):
    """Parse what the arguments give as text, with the numpy-free parser and
    catalog: the map (``args.f``, ``args.text``), the map to check
    (``args.g``, ``args.gtext``), the coefficient (``args.q_source``), the
    point (``args.point``) and the orders (``args.alpha_list``): only what
    the subcommand, and the theorem check, will read.  Adds to
    ``args.modules`` what those inputs make the handler run."""
    if hasattr(args, "catalog_name"):
        args.f, args.text = _load(args.catalog_name, args.expr)
    if getattr(args, "check_expr", None) or getattr(args, "check_catalog", None):
        args.g, args.gtext = _load(args.check_catalog, args.check_expr)
    if args.command == "schwarzian":
        args.point = _parse_complex(args.z)
    if args.command == "palpha" or getattr(args, "check", None) == "sufficiency":
        args.q_source = _read_q(args)
    if getattr(args, "check", None) == "inclusions":
        args.alpha_list = _parse_alphas(args.alphas)
    if any(isinstance(v, FunctionExpr) for v in vars(args).values()):
        args.modules += (".compiler",)  # the handler evaluates the map it was given


def _sampler(args):
    from .families import DiskSampler

    return DiskSampler(
        r_max=args.rmax,
        rings=args.rings,
        points_per_ring=args.points,
        exclusion_radius=args.exclude,
    )


@dataclass(frozen=True)
class _Report:
    """One subcommand's answer; ``main`` prints it as text or as JSON.

    ``witness`` is (point, value).  ``tolerances`` go after, or over,
    {"tol": --tol}.  ``code`` is set only where the exit code is not
    ``0 if holds else 1``.  ``listing`` is the whole JSON output, if set.
    """

    lines: list
    inputs: dict = None
    holds: bool = True
    margin: float = 0.0
    witness: tuple = (0.0, 0.0)
    tolerances: dict = None
    order_estimate: float = None
    code: int = None
    listing: object = None

    def as_json(self, args, wall_time_ms: float):
        if self.listing is not None:
            return self.listing
        z, value = complex(self.witness[0]), float(self.witness[1])
        report = {"command": args.command, "inputs": self.inputs, "verdict": {
            "holds": self.holds, "margin": self.margin,
            "witness": {"re": z.real, "im": z.imag, "value": value}}}
        if self.order_estimate is not None:
            report["order_estimate"] = float(self.order_estimate)
        report["tolerances"] = {"tol": args.tol, **(self.tolerances or {})}
        report["wall_time_ms"] = wall_time_ms
        report["version"] = __version__
        return report


# -- subcommand handlers ---------------------------------------------------


def _cmd_classify(args):
    from .families import injectivity_spot_check, membership

    f, text = args.f, args.text
    v = membership(f, Family(args.family), args.alpha, sampler=_sampler(args), tol=args.tol)
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
    return _Report(
        lines,
        {"expr": text, "family": args.family, "alpha": args.alpha, "seed": args.seed,
         "rmax": args.rmax, "rings": args.rings, "points": args.points,
         "exclude": args.exclude},
        v.holds_on_samples, v.margin, (v.witness, v.witness_value),
        order_estimate=v.order_estimate,
    )


def _cmd_order(args):
    from .families import GridField

    f, text = args.f, args.text
    fam = Family(args.family)
    field = GridField(f, _sampler(args), (fam,))
    v = field.verdict(fam, 0.0, args.tol)
    refined = field.order_estimate(fam)
    lines = [
        f"family {fam.value}",
        f"order estimate: {refined:.9g}",
        f"grid minimum at {v.witness:.9f} (functional {v.witness_value:.9g})",
    ]
    return _Report(
        lines,
        {"expr": text, "family": args.family, "seed": args.seed, "rmax": args.rmax,
         "rings": args.rings, "points": args.points, "exclude": args.exclude},
        refined > 0.0, refined, (v.witness, v.witness_value),
        order_estimate=refined, code=0,  # an estimate, not a check
    )


def _cmd_schwarzian(args):
    from .schwarzian import schwarzian

    f, text, z = args.f, args.text, args.point
    s = schwarzian(f, z)
    if not cmath.isfinite(s):
        raise EvaluationFailed(f"S_f({args.z}) is not finite: f or one of its derivatives "
                               "is singular or not finite there")
    return _Report(
        [f"S_f({z}) = {s.real:.15g} + {s.imag:.15g}i", f"|S_f| = {abs(s):.15g}"],
        {"expr": text, "z": {"re": z.real, "im": z.imag}, "seed": args.seed},
        True, 0.0, (s, abs(s)),
    )


def _cmd_norm(args):
    from .schwarzian import schwarzian_norm

    f, text = args.f, args.text
    est = schwarzian_norm(f, rings=args.rings, points_per_ring=args.points,
                          refine_iters=args.refine)
    lines = [
        f"norm lower bound: {est.lower_bound:.12g}",
        f"argmax: {est.argmax:.9f}",
        f"grid: {est.evaluated} evaluated, {est.skipped} skipped",
    ]
    return _Report(
        lines,
        {"expr": text, "rings": args.rings, "points": args.points,
         "refine": args.refine, "seed": args.seed},
        True, est.lower_bound, (est.argmax, est.lower_bound),
    )


def _q_function(source):
    """The coefficient ``_read_q`` read, screened as a QFunction."""
    from .palpha import QFunction

    if isinstance(source, FunctionExpr):
        return QFunction.from_expression(source)
    return QFunction.constant(source)


def _cmd_palpha(args):
    from .palpha import check_palpha

    q = _q_function(args.q_source)
    v = check_palpha(q, args.alpha, eps_end=args.eps_end, tol=args.tol)
    lines = [
        f"q: {q.label}",
        f"positive on (0,1): {v.positive_on_01}"
        + ("" if v.first_zero is None else f" (first zero near x = {v.first_zero:.9f})"),
        f"boundary log-slope limit: {v.limit_estimate:.9g}",
        f"member at alpha = {v.alpha}: {v.member}",
    ]
    if v.positive_on_01:
        margin, wit = v.limit_estimate - v.alpha, (1.0, v.limit_estimate)
    else:  # margin -1 is a sentinel: fails by positivity, not by the limit
        margin, wit = -1.0, (v.first_zero, 0.0)
    return _Report(
        lines,
        {"q": q.label, "alpha": args.alpha, "eps_end": args.eps_end, "seed": args.seed},
        v.member, margin, wit, tolerances={"ladder_settle": 1e-5},
    )


def _cmd_const_q(args):
    import numpy as np

    from .palpha import constant_solver

    c = constant_solver(args.target)
    t = np.sqrt(c)
    residual = abs(t / np.tan(t) - args.target)
    return _Report(
        [f"c = {c!r}", f"residual |sqrt(c) cot(sqrt(c)) - target| = {residual:.3e}"],
        {"target": args.target, "seed": args.seed},
        True, residual, (c, c), tolerances={"solver_xtol": 1e-15},
    )


def _cmd_radius(args):
    from .radius import radius_inverse_convexity, rotation_witness, verify_radius

    res = radius_inverse_convexity(args.alpha)
    lines = [
        f"radius of inverse convexity at alpha = {args.alpha}: {res.radius!r}",
        f"closed form: {res.closed_form!r} (difference {abs(res.radius - res.closed_form):.3e})",
        f"polynomial residual: {res.residual:.3e}",
    ]
    inputs = {"alpha": args.alpha, "seed": args.seed}
    holds, margin, wit = True, res.residual, (res.radius, res.radius)
    if args.check_expr or args.check_catalog:
        g, gtext = args.g, args.gtext
        chk = verify_radius(g, args.alpha, radius=args.at_radius, tol=args.tol)
        r = chk.radius
        rot = rotation_witness(g, args.alpha, r, tol=args.tol)
        v = chk.verdict
        lines += [
            f"check {gtext} on |z| < {r!r}: holds = {chk.holds_inside} (margin {v.margin:.6g})",
            f"worst rotation at tau = {rot.tau:.6f}: functional {rot.value:.6g}"
            + (" (violates)" if rot.violates else ""),
        ]
        inputs.update({"check": gtext, "at_radius": r})
        holds, margin, wit = chk.holds_inside, v.margin, (v.witness, v.witness_value)
    return _Report(lines, inputs, holds, margin, wit, tolerances={"root_xtol": 1e-15})


_WRONSKIAN_TOL = 1e-8


def _cmd_factor_check(args):
    import numpy as np

    from .rays import starlike_equivalence_check

    f, text = args.f, args.text
    tol = max(args.tol, 1e-4)
    rep = starlike_equivalence_check(f, args.alpha, n_rays=args.rays, sampler=_sampler(args),
                                     tol=tol)
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
    wz = args.rmax * np.exp(1j * rep.worst_ray_theta)
    return _Report(
        lines,
        {"expr": text, "alpha": args.alpha, "rays": args.rays, "rmax": args.rmax,
         "seed": args.seed, "rings": args.rings, "points": args.points, "exclude": args.exclude},
        rep.agree, rep.v_margin, (wz, rep.v_margin),
        tolerances={"tol": tol, "wronskian": _WRONSKIAN_TOL},
    )


def _cmd_theorem(args):
    from .theorems import verify_duality, verify_inclusions, verify_sufficiency

    f, text = args.f, args.text
    sampler = _sampler(args)
    inputs = {"check": args.check, "expr": text, "alpha": args.alpha, "seed": args.seed,
              "rmax": args.rmax, "rings": args.rings, "points": args.points,
              "exclude": args.exclude}
    if args.check == "sufficiency":
        q = _q_function(args.q_source)
        inputs["q"] = q.label
        rep = verify_sufficiency(f, q, args.alpha, sampler=sampler, tol=args.tol)
    elif args.check == "duality":
        rep = verify_duality(f, args.alpha, sampler=sampler, tol=args.tol)
    else:
        inputs["alphas"] = args.alpha_list
        rep = verify_inclusions(f, args.alpha_list, sampler=sampler, tol=args.tol)
    lines = [f"check: {rep.check_id}", f"subject: {rep.subject}"]
    lines += [
        f"  [{'pass' if it.passed else 'FAIL'}] {it.name}: margin {it.margin:.6g}"
        + (f" ({it.detail})" if it.detail else "")
        for it in rep.items
    ]
    lines.append(f"consistent: {rep.consistent}")
    worst = float(min(it.margin for it in rep.items))
    return _Report(lines, inputs, rep.consistent, worst, (0.0, worst))


def _cmd_sharpness(args):
    from .palpha import sharpness_construct

    res = sharpness_construct(args.n, args.beta, eps_end=args.eps_end)
    lines = [
        f"coefficient: {res.q.label}",
        f"ratio target beta = {res.beta}, boundary limit estimate "
        f"{res.limit_estimate:.9g}",
        f"infimum of x y'/y on the span: {res.min_ratio:.9g} at x = {res.argmin_x:.9f}",
        f"certified floor beta + (1-beta)/(n+2): {res.floor:.9g}",
        "no x0 with x y'/y <= beta in the span (the construction tightens only as n grows)",
    ]
    # the gap to beta at the boundary; min_ratio at x = 1 - eps_end overstates it
    boundary = res.min_ratio if math.isnan(res.limit_estimate) else res.limit_estimate
    return _Report(
        lines, {"n": args.n, "beta": args.beta, "eps_end": args.eps_end, "seed": args.seed},
        res.found, boundary - res.beta, (res.argmin_x, res.min_ratio),
    )


def _cmd_catalog(args):
    lines = []
    for e in catalog.entries():
        lines.append(f"{e.name}: {e.expr_text}")
        lines += [f"    {c.family.value} order {c.order}: {c.cite}" for c in e.claims]
        if e.notes:
            lines.append(f"    note: {e.notes}")
    return _Report(lines, listing=catalog.catalog_json())


# -- parser ------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gftkit",
        description="Numerical checks for meromorphic convexity, starlikeness, "
        "Schwarzian norms, and the associated ODE positivity classes.",
    )
    parser.add_argument("--version", action="version", version=f"gftkit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="sampled family membership verdict")
    _add_source(p)
    p.add_argument("--family", required=True, choices=[f.value for f in Family])
    p.add_argument("--alpha", type=float, default=0.0)
    _add_sampler(p)
    _add_common(p, _cmd_classify, ".families")

    p = sub.add_parser("order", help="largest sampled order for a family")
    _add_source(p)
    p.add_argument("--family", required=True, choices=[f.value for f in Family])
    _add_sampler(p)
    _add_common(p, _cmd_order, ".families")

    p = sub.add_parser("schwarzian", help="Schwarzian derivative at a point")
    _add_source(p)
    p.add_argument("--z", required=True, help="evaluation point, e.g. 0.3+0.4i")
    _add_common(p, _cmd_schwarzian, ".schwarzian")

    p = sub.add_parser("norm", help="hyperbolically weighted Schwarzian norm (lower bound)")
    _add_source(p)
    p.add_argument("--rings", type=int, default=64)
    p.add_argument("--points", type=int, default=512)
    p.add_argument("--refine", type=int, default=3, help="golden-section polish rounds")
    _add_common(p, _cmd_norm, ".schwarzian")

    p = sub.add_parser("palpha", help="positivity-class membership for a coefficient q")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--q", help="expression in x, e.g. '2*(1-x)'")
    g.add_argument("--q-const", type=float, help="constant coefficient value")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--eps-end", type=float, default=2.0**-21,
                   help="distance to 1 at which integration stops")
    _add_common(p, _cmd_palpha, ".palpha")

    p = sub.add_parser("const-q", help="constant coefficient matching a boundary limit")
    p.add_argument("--target", type=float, required=True, help="target limit in (0,1)")
    _add_common(p, _cmd_const_q, ".palpha")

    p = sub.add_parser("radius", help="radius of inverse convexity, optional sampled check")
    p.add_argument("--alpha", type=float, required=True)
    chk = p.add_mutually_exclusive_group()
    chk.add_argument("--check-expr", help="expression to verify on the sub-disk")
    chk.add_argument("--check-catalog", metavar="NAME", help="catalog entry to verify")
    p.add_argument("--at-radius", type=float, default=None,
                   help="verify at this radius instead of r_alpha")
    _add_common(p, _cmd_radius, ".radius")

    p = sub.add_parser("factor-check", help="convexity vs starlike factor-solution agreement")
    _add_source(p)
    p.add_argument("--alpha", type=float, default=0.0)
    p.add_argument("--rays", type=int, default=64)
    _add_sampler(p)
    _add_common(p, _cmd_factor_check, ".rays", "numpy.fft")

    p = sub.add_parser("theorem", help="structural consistency checks")
    p.add_argument("--check", required=True, choices=CHECK_IDS)
    _add_source(p)
    p.add_argument("--alpha", type=float, default=0.0)
    p.add_argument("--q", help="coefficient expression in x (sufficiency)")
    p.add_argument("--q-const", type=float, help="constant coefficient (sufficiency)")
    p.add_argument("--alphas", default="0.1,0.25,0.4",
                   help="comma-separated orders (inclusions)")
    _add_sampler(p)
    _add_common(p, _cmd_theorem, ".theorems")

    p = sub.add_parser("sharpness", help="search for a convexity breakdown point of the "
                                         "monomial coefficient construction")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--eps-end", type=float, default=1e-6)
    _add_common(p, _cmd_sharpness, ".palpha", ".compiler")

    p = sub.add_parser("catalog", help="list the built-in reference maps")
    _add_common(p, _cmd_catalog)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _read_inputs(args)
        for module in args.modules:
            importlib.import_module(module, __package__)
        t0 = time.perf_counter()
        report = args.func(args)
    except (GftError, ValueError, KeyError) as exc:
        # str() of a KeyError is the repr of its argument: print the message itself
        print(f"error: {exc.args[0] if isinstance(exc, KeyError) else exc}", file=sys.stderr)
        return 2
    wall_time_ms = round((time.perf_counter() - t0) * 1000.0, 3)
    try:
        if args.json:
            print(json.dumps(report.as_json(args, wall_time_ms), indent=2))
        else:
            print(*report.lines, sep="\n")
        sys.stdout.flush()
    except OSError as exc:
        if exc.errno == errno.EPIPE:
            # the reader is gone; the interpreter's exit-time flush must not fail again
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: cannot write the report: {exc.strerror or exc}", file=sys.stderr)
        return 2
    return (0 if report.holds else 1) if report.code is None else report.code


if __name__ == "__main__":
    sys.exit(main())
