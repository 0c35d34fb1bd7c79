"""The four workloads: seeded input generators and the checks run on them.

A generator turns (workload, seed) into a list of cycles of plain-data
check specs.  Every cycle has the same fixed composition of check kinds,
maps, grid sizes, ray counts and other cost-setting sizes; the seed draws
the parameters that leave the cost of a cycle unchanged (orders,
dilations, Mobius coefficients, sample points, table values, coefficients
within their strata) and the order of checks inside a cycle.  The timed
loop runs whole cycles, so a seed changes what is checked without
changing how much work a run measures.  Inputs never depend on program
outputs.

``prepare(spec, env)`` turns one spec into ``(call, judge)``: ``call(tr)``
makes the timed calls into gftkit, inside tracer spans named
``<module>.<function>``; ``judge(result)`` returns the check's outputs
(margins and witnesses), its deterministic counters, and its comparisons
against the closed forms in ``references``.
"""

from __future__ import annotations

import cmath
import json
import math
import random
import subprocess
import sys

import references as R

WORKLOADS = ("cli_session", "grid_sweep", "palpha_sweep", "ray_sweep")

GRIDS = {"16x256": (16, 256), "64x512": (64, 512), "128x4096": (128, 4096)}
# Theorem checks evaluate 6 to 12 grids each; on the 128x4096 grid one draw
# would take several seconds, so they run on the default grid there.
THEOREM_GRID = {"16x256": "16x256", "64x512": "64x512", "128x4096": "64x512"}

# Base maps per family with their proven order: a dilation lam*f(lam z)
# (b-forms) or f(lam z)/lam keeps every family functional's infimum at or
# above the base map's, since it is the same functional on |lam z| <= |z|.
FAMILY_MAPS = {
    "bc": (("quarter_pole", 0.5), ("cot_scaled", None), ("mobius_pole", 1.0)),
    "bci": (("inverse_log", 0.5), ("power_ratio", None)),
    "bsstar": (("koebe_reciprocal", 0.0), ("mobius_pole", 0.5)),
    "c": (("half_plane_log", 0.5), ("cayley", 0.0)),
    "sstar": (("koebe", 0.0), ("cayley", 0.5)),
}
# bsstar-0 b-forms, for which the radius statement applies: -Re(z g'/g) > 0.
# quarter_pole: Re((4-z^2)/(4+z^2)) > 0; inverse_log, power_ratio: inverse
# convex, hence starlike of order 0.
RADIUS_MAPS = {"koebe_reciprocal", "mobius_pole", "inverse_log", "power_ratio",
               "quarter_pole", "mobius_a0"}

MALFORMED = ("z/(", "sin(z", "z^^2", "2*", "cot(z))", "z + + 1", "exp(z", "log()")


# -- comparisons -----------------------------------------------------------------


def ref(name, value, lo, hi=None, tol=1.0, defect=None):
    """A closed-form comparison: ``value`` must lie in [lo - tol, hi + tol]
    (hi defaults to lo).  err is the distance outside [lo, hi] over tol."""
    hi = lo if hi is None else hi
    value = float(value)
    err = max(lo - value, value - hi, 0.0) / tol
    if math.isnan(value):
        err = math.inf
    return {"name": name, "value": value, "lo": lo, "hi": hi, "tol": tol,
            "err": err, "ok": err <= 1.0, "defect": defect}


def expect(name, value, expected, defect=None):
    """An exact comparison (verdict, exit code, structure); carries no err."""
    return {"name": name, "value": value, "expected": expected, "err": None,
            "ok": value == expected, "defect": defect}


def _c(z):
    return [float(z.real), float(z.imag)]


def _z(pair):
    return complex(pair[0], pair[1])


# -- generators ------------------------------------------------------------------------


# Seconds of run length that one cycle stands for; close to its check time
# on the reference machine (see README: cli_session ~13 s, grid_sweep
# ~2.3 s, palpha_sweep ~6.4 s, ray_sweep ~5 s).  A run measures
# round(seconds / this) whole cycles, at least one, so how much work a run
# measures never depends on how fast the machine happens to be.
CYCLE_SECONDS = {"cli_session": 10.0, "grid_sweep": 2.5, "palpha_sweep": 5.0,
                 "ray_sweep": 5.0}


def cycles_for(workload: str, seconds: float) -> int:
    return max(1, round(seconds / CYCLE_SECONDS[workload]))


def generate(workload: str, seed: int, n_cycles: int = 8):
    """Seeded list of cycles; the same (workload, seed) gives the same list."""
    rng = random.Random(f"{workload}:{seed}")
    gen = {"cli_session": _gen_cli, "grid_sweep": _gen_grid,
           "palpha_sweep": _gen_palpha, "ray_sweep": _gen_ray}[workload]
    cycles = []
    for j in range(n_cycles):
        specs = gen(rng, j)
        rng.shuffle(specs)
        for k, s in enumerate(specs):
            s["id"] = f"c{j}.{k:03d}.{s['kind']}"
            s["cycle"] = j
        cycles.append(specs)
    return cycles


def warmup_specs(workload: str):
    """Small fixed instances of every check kind, run once before timing."""
    rng = random.Random(f"{workload}:warmup")
    if workload == "grid_sweep":
        specs = _grid_draw(rng, 0, "bc", ("quarter_pole", 0.5), "16x256")
        specs += _grid_draw(rng, 1, "bci", ("inverse_log", 0.5), "16x256")
    elif workload == "ray_sweep":
        specs = [_ray_single("quarter_pole", 0.0, 0.3), _ray_equiv(rng, "mobius_pole", 0.0, 8)]
    elif workload == "palpha_sweep":
        first = {}
        for s in _gen_palpha(rng, 0):
            if s.get("c", 0.0) < 10.0:
                first.setdefault(s["kind"], s)
        specs = list(first.values())
    else:
        specs = [{"kind": "cli", "sub": "version", "argv": ["--version"], "exit": 0}]
    for k, s in enumerate(specs):
        s["id"] = f"w.{k:03d}.{s['kind']}"
        s["cycle"] = -1
    return specs


def _dilation(rng):
    s = rng.uniform(0.7, 0.98)
    return _c(s * cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi)))


def _mobius(rng):
    """T(w) = (a w + b)/(c w + d) with its pole |d/c| >= 60, far outside the
    values the base maps take on the invariance samples (|f| < 40 there)."""
    while True:
        a, b, c = (complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(3))
        d = 60.0 * abs(c) * rng.uniform(1.0, 2.0) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
        if abs(a * d - b * c) >= 0.5:
            return [_c(a), _c(b), _c(c), _c(d)]


def _annulus(rng, n, r_lo, r_hi):
    return [_c(math.sqrt(rng.uniform(r_lo**2, r_hi**2)) * cmath.exp(1j * rng.uniform(0, 2 * math.pi)))
            for _ in range(n)]


def _grid_draw(rng, draw, family, slot, grid):
    name, claim = slot
    param = 0.0
    if name == "cot_scaled":
        param = rng.uniform(0.0, 0.9)
        claim = param
    elif name == "power_ratio":
        param = rng.uniform(0.05, 0.45)
        claim = param
    base = {"draw": draw, "map": name, "param": param, "lam": _dilation(rng),
            "family": family, "claim": claim, "grid": grid}
    if name == "quarter_pole":
        alpha = rng.uniform(0.0, 0.95)
    else:
        alpha = max(0.0, min(claim, 0.999) - rng.uniform(0.0, 0.3))
    if name == "cot_scaled":
        q_c = None  # set to b^2 s^2 at prepare time: exact Schwarzian domination
    elif name in ("mobius_pole", "cayley"):
        q_c = rng.uniform(0.0, 1.0)
    else:
        q_c = rng.uniform(0.0, 2.0)
    return [
        dict(base, kind="membership", alpha=alpha),
        dict(base, kind="order_estimate"),
        dict(base, kind="schwarzian_norm"),
        dict(base, kind="invariance", mobius=_mobius(rng), samples=_annulus(rng, 16, 0.1, 0.6)),
        dict(base, kind="laurent"),
        dict(base, kind="radius", alpha=rng.uniform(0.0, 0.9)),
        dict(base, kind="duality", alpha=rng.uniform(0.0, 0.9)),
        dict(base, kind="inclusions", alphas=sorted(rng.uniform(0.0, 0.9) for _ in range(3))),
        dict(base, kind="sufficiency", alpha=rng.uniform(0.0, 0.9), q_c=q_c),
    ]


# The one 128x4096 draw per cycle: a fixed slot, so every cycle costs the
# same; quarter_pole has the closed-form infimum to check there.
BIG_SLOT = ("bc", ("quarter_pole", 0.5))


def _gen_grid(rng, j):
    """Every family on the 16x256 and 64x512 grids, plus the 128x4096 draw.
    The base map of each family's slot rotates with the cycle index, never
    with the seed."""
    specs = []
    for fi, (family, slots) in enumerate(FAMILY_MAPS.items()):
        for gi, grid in enumerate(("16x256", "64x512")):
            specs += _grid_draw(rng, f"{j}.{fi}.{gi}", family, slots[(j + gi) % len(slots)], grid)
    return specs + _grid_draw(rng, f"{j}.big", *BIG_SLOT, "128x4096")


# Constants: one per quarter-decade cell of [1e-2, 1e7] every two cycles,
# within +-CELL_JITTER decades of the cell's midpoint.  A check_palpha call
# costs ~ sqrt(c), so drawing c freely inside a decade would move a run's
# cost and its upper quantiles by up to 3x with the seed.
CELL_JITTER = 0.02
SAMPLE_TABLE_SIZES = (8, 32)
POLY_POWERS = (1, 3, 5)
SHARPNESS_N = (50, 200)
RECONSTRUCT_POWERS = (1, 3)


def _gen_palpha(rng, j):
    specs = []
    for k in range(-2, 7):
        for i in (j % 2, j % 2 + 2):
            c = 10.0 ** (k + (i + 0.5) / 4.0 + rng.uniform(-CELL_JITTER, CELL_JITTER))
            specs.append({"kind": "palpha_const", "c": c, "alpha": rng.uniform(0.0, 0.99)})
            specs.append({"kind": "integral_const", "c": c})
    for k in POLY_POWERS:
        a = (k + 1) * rng.uniform(0.05, 0.95)
        specs.append({"kind": "palpha_poly", "a": a, "k": k,
                      "alpha": rng.uniform(0.0, 1.0 - a / (k + 1))})
        specs.append({"kind": "integral_poly", "a": a, "k": k})
    for n in SHARPNESS_N:
        specs.append({"kind": "sharpness", "n": n, "beta": rng.uniform(0.0, 0.9)})
        specs.append({"kind": "integral_monomial", "a": (n + 1) * rng.uniform(0.05, 1.0), "n": n})
    for m in SAMPLE_TABLE_SIZES:
        inner = set()
        while len(inner) < m - 2:
            inner.add(round(rng.uniform(0.001, 0.999), 6))
        xs = [0.0, *sorted(inner), 1.0]
        specs.append({"kind": "samples", "xs": xs, "vs": [rng.uniform(0.0, 2.0) for _ in xs]})
    for _ in range(2):
        specs.append({"kind": "round_trip", "target": rng.uniform(0.05, 0.95),
                      "alpha": rng.uniform(0.0, 0.99)})
    for k in RECONSTRUCT_POWERS:
        specs.append({"kind": "reconstruct", "a": (k + 1) * rng.uniform(0.05, 0.9), "k": k,
                      "omega": rng.uniform(0.2, 0.8), "x": rng.uniform(0.3, 0.9)})
    a, b = rng.uniform(0.5, 5.0), rng.uniform(0.5, 2.0)
    text = rng.choice([f"{a!r}*i*x", f"{a!r}*x*(1 + {b!r}*i)", f"{a!r} + {b!r}*i"])
    specs.append({"kind": "complex_q", "text": text})
    return specs


RAY_MAPS = ("quarter_pole", "cot_scaled", "mobius_pole", "mobius_a0")
RAY_COUNTS = (8, 16, 32, 64)
SINGLE_RAYS_PER_MAP = 12


def _ray_param(rng, name):
    if name == "cot_scaled":
        return rng.uniform(0.2, 0.4)
    if name == "mobius_a0":
        return _c(rng.uniform(0.0, 0.9) * cmath.exp(1j * rng.uniform(0, 2 * math.pi)))
    return 0.0


def _ray_single(name, param, theta):
    return {"kind": "solve_ray", "map": name, "param": param, "theta": theta}


def _ray_equiv(rng, name, param, n_rays):
    return {"kind": "equivalence", "map": name, "param": param, "n_rays": n_rays,
            "alpha": rng.uniform(0.0, 0.9)}


def _gen_ray(rng, j):
    """Each map gets one equivalence check per cycle, its ray count rotating
    with the cycle index, and single-ray solves on fixed, evenly spaced
    angles: the RHS count of a solve swings 3x with the angle, erratically,
    so seeded angles would move the run's cost with the seed."""
    specs = []
    for i, name in enumerate(RAY_MAPS):
        param = _ray_param(rng, name)
        specs.append(_ray_equiv(rng, name, param, RAY_COUNTS[(i + j) % len(RAY_COUNTS)]))
        specs += [_ray_single(name, param, 2.0 * math.pi * (k + 0.5) / SINGLE_RAYS_PER_MAP)
                  for k in range(SINGLE_RAYS_PER_MAP)]
    return specs


def _gen_cli(rng, j):
    """One call of each subcommand per cycle plus two malformed expressions."""
    claimed = [c for c in R.CLAIMS if c[2] < 1.0]
    name, fam, order, _ = rng.choice(claimed)
    alpha = max(0.0, order - rng.uniform(0.0, 0.3))
    specs = [{"kind": "cli", "sub": "classify", "exit": 0, "map": name, "claim": order,
              "argv": ["classify", "--catalog", name, "--family", fam, "--alpha", repr(alpha)]}]
    name, fam, order, _ = rng.choice(R.CLAIMS)
    specs.append({"kind": "cli", "sub": "order", "exit": 0, "map": name, "claim": order,
                  "argv": ["order", "--catalog", name, "--family", fam]})
    name = rng.choice(["koebe", "koebe_reciprocal", "mobius_pole", "mobius_generic", "cayley",
                       "quarter_pole", "cot_scaled_a000", "cot_scaled_a030", "cot_scaled_a050"])
    specs.append({"kind": "cli", "sub": "norm", "exit": 0, "map": name,
                  "argv": ["norm", "--catalog", name]})
    name = rng.choice(["koebe", "quarter_pole", "cot_scaled_a030", "mobius_generic"])
    z = _annulus(rng, 1, 0.2, 0.9)[0]
    specs.append({"kind": "cli", "sub": "schwarzian", "exit": 0, "map": name, "z": z,
                  "argv": ["schwarzian", "--catalog", name, f"--z={z[0]!r}{z[1]:+.17g}i"]})
    alpha = rng.uniform(0.0, 0.9)
    name = rng.choice(["koebe_reciprocal", "mobius_pole"])
    specs.append({"kind": "cli", "sub": "radius", "exit": 0, "alpha": alpha,
                  "argv": ["radius", "--alpha", repr(alpha), "--check-catalog", name]})
    target = rng.uniform(0.05, 0.95)
    specs.append({"kind": "cli", "sub": "const-q", "exit": 0, "target": target,
                  "argv": ["const-q", "--target", repr(target)]})
    if rng.random() < 0.5:
        c = rng.uniform(0.01, 2.0)
        alpha = rng.uniform(0.0, 0.99)
        lim = R.const_q_limit(c)
        specs.append({"kind": "cli", "sub": "palpha", "c": c, "alpha": alpha,
                      "exit": 0 if lim >= alpha else 1,
                      "argv": ["palpha", "--q-const", repr(c), "--alpha", repr(alpha)]})
    else:
        k = rng.randint(1, 4)
        a = (k + 1) * rng.uniform(0.05, 0.9)
        alpha = rng.uniform(0.0, 1.0 - a / (k + 1))
        specs.append({"kind": "cli", "sub": "palpha", "exit": 0,
                      "argv": ["palpha", "--q", f"{a!r}*(1-x)^{k}", "--alpha", repr(alpha)]})
    name = rng.choice(["inverse_log", "power_ratio_a025", "quarter_pole", "koebe_reciprocal",
                       "mobius_pole"])
    specs.append({"kind": "cli", "sub": "theorem", "exit": 0,
                  "argv": ["theorem", "--check", "duality", "--catalog", name,
                           "--alpha", repr(rng.uniform(0.0, 0.9))]})
    name = rng.choice(["quarter_pole", "cot_scaled_a000", "cot_scaled_a030", "cot_scaled_a050",
                       "mobius_pole"])
    alpha = rng.uniform(0.0, 0.9)
    specs.append({"kind": "cli", "sub": "factor-check", "exit": 0, "map": name, "alpha": alpha,
                  "argv": ["factor-check", "--catalog", name, "--alpha", repr(alpha),
                           "--rays", "8"]})
    specs.append({"kind": "cli", "sub": "catalog", "exit": 0, "argv": ["catalog"]})
    for sub in rng.sample(["classify", "norm", "schwarzian", "order"], 2):
        text = rng.choice(MALFORMED)
        argv = [sub, "--expr", text]
        argv += {"classify": ["--family", "bc"], "order": ["--family", "bc"],
                 "schwarzian": ["--z", "0.5"], "norm": []}[sub]
        specs.append({"kind": "cli", "sub": "malformed", "exit": 2, "argv": argv})
    for s in specs:
        s["argv"] = s["argv"] + ["--json"]
    return specs


# -- preparation: spec -> (call, judge) -------------------------------------------------


class Env:
    """Per-worker caches of built inputs; building happens during set-up."""

    def __init__(self, g, child_env):
        self.g = g
        self.child_env = child_env
        self._exprs = {}
        self._samplers = {}

    def base(self, name, param):
        key = (name, json.dumps(param))
        if key not in self._exprs:
            text = R.base_text(name, _z(param) if isinstance(param, list) else param)
            sing = (0,) if name in R.B_FORM else ()
            self._exprs[key] = self.g.parse(text, singular_points=sing)
        return self._exprs[key]

    def dilated(self, name, param, lam):
        key = ("dil", name, json.dumps(param), tuple(lam))
        if key not in self._exprs:
            f = self.base(name, param)
            lam_c = _z(lam)
            scaled = self.g.scale_variable(f, lam_c)
            self._exprs[key] = lam_c * scaled if name in R.B_FORM else scaled / lam_c
        return self._exprs[key]

    def sampler(self, grid, r_max=0.999):
        key = (grid, r_max)
        if key not in self._samplers:
            rings, ppr = GRIDS[grid]
            self._samplers[key] = self.g.DiskSampler(r_max=r_max, rings=rings, points_per_ring=ppr)
        return self._samplers[key]


def prepare(spec, env):
    return _PREPARE[spec["kind"]](spec, env)


def _grid_common(spec, env):
    f = env.dilated(spec["map"], spec["param"], spec["lam"])
    lam = _z(spec["lam"])
    return f, lam, abs(lam), spec["map"] in R.B_FORM


def _p_membership(spec, env):
    g = env.g
    f, lam, s, _ = _grid_common(spec, env)
    sampler = env.sampler(spec["grid"])
    fam, alpha = spec["family"], spec["alpha"]

    def call(tr):
        with tr.span("families.membership", grid=spec["draw"]) as a:
            v = g.membership(f, fam, alpha, sampler=sampler)
        a.update(evaluated=v.samples_evaluated, skipped=v.samples_skipped)
        return v

    def judge(v):
        refs = []
        if spec["map"] == "quarter_pole":
            rho = s * sampler.r_max
            inf = R.quarter_pole_bc_inf(rho)
            gap = R.grid_angle_error(rho, sampler.points_per_ring)
            refs.append(ref("grid_min_vs_closed_form", v.witness_value, inf, inf + gap, R.TOL["on_grid"]))
            if abs(inf - alpha) > gap + v.tol:
                refs.append(expect("verdict_vs_closed_form", v.holds_on_samples, inf >= alpha))
        else:
            refs.append(expect("claim_holds", v.holds_on_samples, True))
        out = {"holds": v.holds_on_samples, "margin": v.margin, "witness": _c(v.witness),
               "witness_value": v.witness_value}
        cnt = {"evaluated": v.samples_evaluated, "skipped": v.samples_skipped}
        return out, cnt, refs

    return call, judge


def _p_order(spec, env):
    g = env.g
    f, lam, s, _ = _grid_common(spec, env)
    sampler = env.sampler(spec["grid"])

    def call(tr):
        with tr.span("families.order_estimate", grid=spec["draw"],
                     points=sampler.rings * sampler.points_per_ring):
            return g.order_estimate(f, spec["family"], sampler=sampler)

    def judge(order):
        if spec["map"] == "quarter_pole":
            inf = R.quarter_pole_bc_inf(s * sampler.r_max)
            r = ref("polished_min_vs_closed_form", order, inf, tol=R.TOL["polished"])
        elif spec["map"] == "mobius_pole" and spec["family"] == "bc":
            r = ref("order_vs_closed_form", order, 1.0, tol=R.TOL["on_grid"])
        else:
            r = ref("order_at_least_claim", order, spec["claim"], 1.0, R.TOL["claim"])
        return {"order": order}, {}, [r]

    return call, judge


def _p_norm(spec, env):
    g = env.g
    f, lam, s, _ = _grid_common(spec, env)
    rings, ppr = GRIDS[spec["grid"]]

    def call(tr):
        with tr.span("schwarzian.schwarzian_norm") as a:
            est = g.schwarzian_norm(f, rings=rings, points_per_ring=ppr)
        a.update(evaluated=est.evaluated, skipped=est.skipped)
        return est

    def judge(est):
        refs = []
        sup = _norm_closed_form(spec["map"], spec["param"], s)
        refs.append(ref("norm_vs_closed_form", est.lower_bound, sup,
                        tol=R.TOL["norm_rel"] * sup + R.TOL["pole_cancellation"]))
        out = {"norm": est.lower_bound, "argmax": _c(est.argmax)}
        return out, {"evaluated": est.evaluated, "skipped": est.skipped}, refs

    return call, judge


def _norm_closed_form(name, param, s):
    sup = R.norm_sup(name, param, s)
    if sup is not None:
        return sup
    # S_f = k/(1-z)^2 (half_plane_log, inverse_log: k = 1/2; power_ratio:
    # k = (1-eta^2)/2).  Dilated, the weighted modulus peaks on the ray
    # where lam z > 0 at s^2 k ((1-r^2)/(1-s r))^2, maximal at
    # r* = (1 - sqrt(1-s^2))/s.
    k = 0.5 if name in ("half_plane_log", "inverse_log") else (1.0 - R.power_eta(param) ** 2) / 2.0
    r = (1.0 - math.sqrt(1.0 - s * s)) / s
    return s * s * k * ((1.0 - r * r) / (1.0 - s * r)) ** 2


def _schwarzian_closed_form(name, param, lam, z):
    """S of the dilation at z: lam^2 S_f(lam z)."""
    w = lam * z
    S = R.schwarzian_at(name, w, param)
    if S is None:
        k = 0.5 if name in ("half_plane_log", "inverse_log") else (1.0 - R.power_eta(param) ** 2) / 2.0
        S = k / (1.0 - w) ** 2
    return lam * lam * S


def _p_invariance(spec, env):
    g = env.g
    f, lam, s, _ = _grid_common(spec, env)
    mob = tuple(_z(p) for p in spec["mobius"])
    zs = [_z(p) for p in spec["samples"]]

    def call(tr):
        with tr.span("schwarzian.invariance_residuals", points=len(zs)):
            return g.invariance_residuals(f, mob, zs)

    def judge(chk):
        scale = max(1.0, max(abs(_schwarzian_closed_form(spec["map"], spec["param"], lam, z)) for z in zs))
        refs = [ref("mobius_residual", chk.mobius_residual, 0.0, tol=R.TOL["invariance"] * scale),
                ref("reciprocal_residual", chk.reciprocal_residual, 0.0, tol=R.TOL["invariance"] * scale)]
        out = {"mobius_residual": chk.mobius_residual, "reciprocal_residual": chk.reciprocal_residual}
        return out, {"samples": chk.n_samples}, refs

    return call, judge


def _p_laurent(spec, env):
    g = env.g
    f, lam, s, b_form = _grid_common(spec, env)

    def call(tr):
        with tr.span("expressions.laurent_b_check"):
            return g.laurent_b_check(f)

    def judge(p):
        refs = [expect("is_b_form", p.is_b_form, b_form)]
        if b_form:
            a0 = R.dilated_a0(spec["map"], spec["param"], lam)
            tol = R.TOL["laurent"] * max(1.0, abs(a0))
            refs.append(ref("a0_vs_closed_form", abs(p.a0_estimate - a0), 0.0, tol=tol))
        out = {"is_b_form": p.is_b_form, "a0": _c(p.a0_estimate), "pole": _c(p.pole_coefficient)}
        return out, {}, refs

    return call, judge


def _p_radius(spec, env):
    g = env.g
    f, lam, s, _ = _grid_common(spec, env)
    alpha = spec["alpha"]
    sampler = env.sampler(spec["grid"])

    def call(tr):
        with tr.span("radius.radius_inverse_convexity"):
            root = g.radius_inverse_convexity(alpha)
        with tr.span("radius.verify_radius") as a:
            chk = g.verify_radius(f, alpha, sampler=sampler)
        a.update(evaluated=chk.verdict.samples_evaluated, skipped=chk.verdict.samples_skipped)
        with tr.span("radius.rotation_witness"):
            wit = g.rotation_witness(f, alpha, chk.radius)
        return root, chk, wit

    def judge(res):
        root, chk, wit = res
        r_closed = R.radius_alpha(alpha)
        refs = [ref("root_vs_closed_form", root.radius, r_closed, tol=R.TOL["radius"]),
                ref("radius_vs_closed_form", chk.radius, r_closed, tol=R.TOL["radius"])]
        if spec["map"] in RADIUS_MAPS:
            refs.append(expect("holds_inside_r_alpha", chk.holds_inside, True))
            refs.append(expect("no_violating_rotation", wit.violates, False))
        out = {"radius": chk.radius, "holds": chk.holds_inside, "margin": chk.verdict.margin,
               "witness": _c(chk.verdict.witness), "tau": wit.tau, "rotation_value": wit.value}
        cnt = {"evaluated": chk.verdict.samples_evaluated, "skipped": chk.verdict.samples_skipped}
        return out, cnt, refs

    return call, judge


def _theorem_out(rep):
    return {"consistent": rep.consistent, "hypotheses": rep.hypotheses_hold,
            "conclusion": rep.conclusion_holds,
            "margins": {it.name: it.margin for it in rep.items}}


def _p_duality(spec, env):
    g = env.g
    f, lam, s, b_form = _grid_common(spec, env)
    sampler = env.sampler(THEOREM_GRID[spec["grid"]])

    def call(tr):
        with tr.span("theorems.verify_duality"):
            return g.verify_duality(f, spec["alpha"], sampler=sampler)

    def judge(rep):
        refs = [expect("equivalence_consistent", rep.consistent, True)] if b_form else []
        return _theorem_out(rep), {}, refs

    return call, judge


def _p_inclusions(spec, env):
    g = env.g
    f, lam, s, b_form = _grid_common(spec, env)
    sampler = env.sampler(THEOREM_GRID[spec["grid"]])

    def call(tr):
        with tr.span("theorems.verify_inclusions"):
            return g.verify_inclusions(f, spec["alphas"], sampler=sampler)

    def judge(rep):
        refs = [expect("inclusions_consistent", rep.consistent, True)] if b_form else []
        return _theorem_out(rep), {}, refs

    return call, judge


def _p_sufficiency(spec, env):
    g = env.g
    f, lam, s, b_form = _grid_common(spec, env)
    sampler = env.sampler(THEOREM_GRID[spec["grid"]])
    c = spec["q_c"]
    if c is None:  # cot_scaled: |S| = 2 b^2 s^2 everywhere, so q = b^2 s^2
        c = R.cot_b(spec["param"]) ** 2 * s * s
    q = g.QFunction.constant(c)
    alpha = spec["alpha"]

    def call(tr):
        with tr.span("theorems.verify_sufficiency"):
            return g.verify_sufficiency(f, q, alpha, sampler=sampler)

    def judge(rep):
        refs = [expect("implication_consistent", rep.consistent, True)] if b_form else []
        target = 0.5 * (1.0 + alpha)
        limit = rep.item("coefficient_class").margin + target
        lim_c = R.const_q_limit(c)
        refs.append(ref("coefficient_limit_vs_closed_form", limit, lim_c,
                        tol=R.TOL["palpha_limit"] * max(1.0, abs(lim_c))))
        return _theorem_out(rep), {}, refs

    return call, judge


# palpha_sweep ---------------------------------------------------------------------------


def _palpha_out(v):
    return {"member": v.member, "positive": v.positive_on_01, "first_zero": v.first_zero,
            "limit": v.limit_estimate}


def _palpha_call(g, tr, q, alpha, kind):
    with tr.span("palpha.check_palpha", q=kind):
        v = g.check_palpha(q, alpha)

    def count_rhs():
        # check_palpha does not report its RHS count; integrate_ivp at the
        # same settings (check_palpha's default rel_tol) does
        with tr.span("palpha.integrate_ivp") as a:
            sol = g.integrate_ivp(q, eps_end=v.eps_end, rel_tol=1e-10)
        a["n_rhs"] = sol.n_rhs

    tr.defer(count_rhs)
    return v


def _p_palpha_const(spec, env):
    g = env.g
    c, alpha = spec["c"], spec["alpha"]
    q = g.QFunction.constant(c)

    def call(tr):
        return _palpha_call(g, tr, q, alpha, "constant")

    def judge(v):
        refs = []
        zero = R.const_q_first_zero(c)
        if zero is None:
            lim = R.const_q_limit(c)
            refs.append(expect("positive_on_01", v.positive_on_01, True))
            if v.positive_on_01:
                refs.append(ref("limit_vs_closed_form", v.limit_estimate, lim,
                                tol=R.TOL["palpha_limit"] * max(1.0, abs(lim))))
                if abs(lim - alpha) > R.TOL["palpha_limit"] * max(1.0, abs(lim)) + v.tol:
                    refs.append(expect("member_vs_closed_form", v.member, lim >= alpha))
        else:
            refs.append(expect("positive_on_01", v.positive_on_01, False))
            defect = "palpha.first_zero_large_c" if zero < R.PALPHA_FIRST_NODE else None
            fz = math.nan if v.first_zero is None else v.first_zero
            refs.append(ref("first_zero_vs_closed_form", fz, zero,
                            tol=R.TOL["first_zero_rel"] * zero, defect=defect))
        return _palpha_out(v), {}, refs

    return call, judge


def _integral_judge(expected, bound, defect=None):
    def judge(chk):
        refs = [ref("integral_vs_closed_form", chk.integral, expected,
                    tol=R.TOL["integral"] * max(1.0, expected), defect=defect)]
        if abs(expected - bound) > 1e-8:
            refs.append(expect("criterion_vs_closed_form", chk.satisfied, expected <= bound))
        return {"integral": chk.integral, "satisfied": chk.satisfied}, {}, refs

    return judge


def _integral_call(g, q, bound):
    def call(tr):
        with tr.span("palpha.integral_criterion"):
            return g.integral_criterion(q, bound)

    return call


def _p_integral_const(spec, env):
    g = env.g
    c = spec["c"]
    return _integral_call(g, g.QFunction.constant(c), 1.0), _integral_judge(c, 1.0)


def _poly_q(g, a, k):
    return g.QFunction.from_expression(f"{a!r}*(1-x)^{k}")


def _p_integral_poly(spec, env):
    g = env.g
    a, k = spec["a"], spec["k"]
    # integral of a (1-x)^k is a/(k+1)
    return _integral_call(g, _poly_q(g, a, k), 1.0), _integral_judge(a / (k + 1), 1.0)


def _p_integral_monomial(spec, env):
    g = env.g
    a, n = spec["a"], spec["n"]
    q = g.QFunction.from_expression(f"{a!r}*x^{n}")
    return _integral_call(g, q, 1.0), _integral_judge(R.monomial_integral(a, n), 1.0)


def _p_palpha_poly(spec, env):
    g = env.g
    a, k, alpha = spec["a"], spec["k"], spec["alpha"]
    q = _poly_q(g, a, k)

    def call(tr):
        return _palpha_call(g, tr, q, alpha, "poly")

    def judge(v):
        # integral a/(k+1) <= 1 - alpha puts q in the class of order alpha
        return _palpha_out(v), {}, [expect("member_by_integral_criterion", v.member, True)]

    return call, judge


def _p_samples(spec, env):
    g = env.g
    xs, vs = spec["xs"], spec["vs"]
    q = g.QFunction.from_samples(xs, vs)
    integral = R.trapezoid_integral(xs, vs)
    alpha = max(0.0, 1.0 - integral - 0.01)

    def call(tr):
        with tr.span("palpha.integral_criterion"):
            chk = g.integral_criterion(q, 1.0)
        v = _palpha_call(g, tr, q, alpha, "samples")
        return chk, v

    def judge(res):
        chk, v = res
        out, _, refs = _integral_judge(integral, 1.0, "palpha.integral_kinked_samples")(chk)
        if integral <= 0.99:
            refs.append(expect("member_by_integral_criterion", v.member, True))
        out.update(_palpha_out(v))
        return out, {"nodes": len(xs)}, refs

    return call, judge


def _p_sharpness(spec, env):
    g = env.g
    n, beta = spec["n"], spec["beta"]

    def call(tr):
        with tr.span("palpha.sharpness_construct", n=n):
            return g.sharpness_construct(n, beta)

    def judge(res):
        floor = R.sharpness_floor(n, beta)
        refs = [ref("min_ratio_above_certificate", res.min_ratio, floor, math.inf, R.TOL["sharpness"])]
        out = {"found": res.found, "min_ratio": res.min_ratio, "argmin_x": res.argmin_x,
               "limit": res.limit_estimate}
        return out, {}, refs

    return call, judge


def _p_round_trip(spec, env):
    g = env.g
    target, alpha = spec["target"], spec["alpha"]

    def call(tr):
        with tr.span("palpha.constant_solver"):
            c = g.constant_solver(target)
        v = _palpha_call(g, tr, g.QFunction.constant(c), alpha, "round_trip")
        return c, v

    def judge(res):
        c, v = res
        refs = [ref("solver_vs_closed_form", R.const_q_limit(c), target, tol=R.TOL["constant_solver"]),
                ref("limit_vs_target", v.limit_estimate, target, tol=R.TOL["palpha_limit"])]
        out = {"c": c}
        out.update(_palpha_out(v))
        return out, {}, refs

    return call, judge


def _p_reconstruct(spec, env):
    g = env.g
    a, k, omega, x = spec["a"], spec["k"], spec["omega"], spec["x"]
    q = _poly_q(g, a, k)

    def call(tr):
        with tr.span("rays.reconstruct_f_from_y") as a_:
            rm = g.reconstruct_f_from_y(q, omega)
        a_["n_rhs"] = rm.solution.n_rhs
        with tr.span("rays.schwarzian_fd"):
            s_fd = rm.schwarzian_fd(x)
        return rm, s_fd

    def judge(res):
        rm, s_fd = res
        two_q = 2.0 * a * (1.0 - x) ** k
        refs = [ref("fd_schwarzian_vs_2q", s_fd, two_q, tol=R.TOL["reconstruct"] * max(1.0, two_q))]
        return {"s_fd": s_fd}, {"n_rhs": rm.solution.n_rhs}, refs

    return call, judge


def _p_complex_q(spec, env):
    g = env.g
    text = spec["text"]

    def call(tr):
        try:
            with tr.span("palpha.QFunction.from_expression"):
                q = g.QFunction.from_expression(text)
        except (ValueError, g.GftError) as exc:
            return type(exc).__name__, None
        return None, _palpha_call(g, tr, q, 0.5, "complex")

    def judge(res):
        rejected, v = res
        refs = [expect("complex_q_rejected", rejected is not None, True,
                       defect="palpha.complex_q_accepted")]
        out = {"rejected": rejected}
        if v is not None:
            out.update(_palpha_out(v))
        return out, {}, refs

    return call, judge


# ray_sweep ------------------------------------------------------------------------------


def _p_solve_ray(spec, env):
    import numpy as np

    g = env.g
    name, param, theta = spec["map"], spec["param"], spec["theta"]
    f = env.base(name, param)
    p = lambda z: g.schwarzian(f, z) / 2.0  # noqa: E731  (as starlike_equivalence_check builds it)

    def call(tr):
        with tr.span("rays.solve_ray") as a:
            ray = g.solve_ray(p, theta)
        a.update(n_rhs=ray.n_rhs, drift=ray.wronskian_drift)
        return ray

    def judge(ray):
        pv = _z(param) if isinstance(param, list) else param
        v, u = R.ray_solutions(name, pv, ray.z)
        gap_v = float(np.max(np.abs(ray.v - v)))
        gap_u = float(np.max(np.abs(ray.u - u)))
        drift = ray.wronskian_drift
        refs = [ref("v_vs_closed_form", gap_v, 0.0, tol=R.TOL["ray_gap"]),
                ref("u_vs_closed_form", gap_u, 0.0, tol=R.TOL["ray_gap"]),
                ref("wronskian_drift", drift, 0.0, tol=R.TOL["wronskian"])]
        out = {"v_end": _c(ray.v[-1]), "u_end": _c(ray.u[-1])}
        return out, {"n_rhs": ray.n_rhs, "nodes": int(ray.rho.size), "drift": drift}, refs

    return call, judge


def _p_equivalence(spec, env):
    g = env.g
    name, param, n_rays, alpha = spec["map"], spec["param"], spec["n_rays"], spec["alpha"]
    f = env.base(name, param)

    def call(tr):
        with tr.span("rays.starlike_equivalence_check", n_rays=n_rays) as a:
            rep = g.starlike_equivalence_check(f, alpha, n_rays=n_rays)
        a["drift"] = rep.wronskian_worst
        return rep

    def judge(rep):
        refs = [expect("routes_agree", rep.agree, True),
                ref("wronskian_worst", rep.wronskian_worst, 0.0, tol=R.TOL["wronskian"])]
        if name in ("mobius_pole", "mobius_a0"):
            # v = z: Re(z v'/v) = 1; bc functional of 1/z + a0 is 1
            refs.append(ref("v_margin_vs_closed_form", rep.v_margin, 0.5 * (1.0 - alpha),
                            tol=R.TOL["ray_gap"]))
            refs.append(ref("bc_margin_vs_closed_form", rep.bc_margin, 1.0 - alpha, tol=R.TOL["on_grid"]))
        elif name == "quarter_pole":
            # the default grid has z = 0.999 i on it, where the bc infimum sits
            refs.append(ref("bc_margin_vs_closed_form", rep.bc_margin,
                            R.quarter_pole_bc_inf(0.999) - alpha, tol=R.TOL["on_grid"]))
        out = {"agree": rep.agree, "v_margin": rep.v_margin, "bc_margin": rep.bc_margin,
               "worst_theta": rep.worst_ray_theta}
        return out, {"n_rays": rep.n_rays, "drift": rep.wronskian_worst}, refs

    return call, judge


# cli_session ------------------------------------------------------------------------


def _p_cli(spec, env):
    cmd = [sys.executable, "-m", "gftkit.cli", *spec["argv"]]

    def call(tr):
        with tr.span(f"cli.{spec['sub']}") as a:
            proc = subprocess.run(cmd, env=env.child_env, capture_output=True, text=True,
                                  timeout=120)
        if proc.returncode != 2 and spec["sub"] not in ("version", "catalog"):
            a["wall_time_ms"] = json.loads(proc.stdout)["wall_time_ms"]
        return proc

    def judge(proc):
        return _cli_judge(spec, proc.returncode, proc.stdout)

    return call, judge


def _cli_judge(spec, code, stdout):
    """Exit code and report fields against the closed forms."""
    refs = [expect("exit_code", code, spec["exit"])]
    out = {"exit": code}
    if code == 2 or spec["sub"] == "version":
        return out, {}, refs
    try:
        rep = json.loads(stdout)
    except json.JSONDecodeError:
        refs.append(expect("json_report", False, True))
        return out, {}, refs
    sub = spec["sub"]
    if sub == "catalog":
        claims = sorted((e["name"], x["family"], x["order"]) for e in rep for x in e["expected"])
        refs.append(expect("catalog_names", tuple(e["name"] for e in rep), R.CATALOG_NAMES))
        refs.append(expect("catalog_claims", claims, sorted(c[:3] for c in R.CLAIMS)))
        return {"exit": code, "entries": len(rep)}, {}, refs
    v = rep["verdict"]
    out.update({"holds": v["holds"], "margin": v["margin"], "witness": v["witness"]})
    wall = rep["wall_time_ms"]
    if sub in ("classify", "order"):
        if spec["map"] == "quarter_pole":
            inf = R.quarter_pole_bc_inf(0.999)
            value = v["witness"]["value"] if sub == "classify" else rep["order_estimate"]
            refs.append(ref("min_vs_closed_form", value, inf,
                            tol=R.TOL["on_grid" if sub == "classify" else "polished"]))
        else:
            refs.append(ref("order_at_least_claim", rep["order_estimate"], spec["claim"], 1.0,
                            R.TOL["claim"]))
    elif sub == "norm":
        name = spec["map"]
        param = float(name[-3:]) / 100.0 if name.startswith("cot_scaled") else 0.0
        sup = R.norm_sup("cot_scaled" if name.startswith("cot_scaled") else name, param, 1.0)
        refs.append(ref("norm_vs_closed_form", v["margin"], sup,
                        tol=R.TOL["norm_rel"] * sup + R.TOL["pole_cancellation"]))
    elif sub == "schwarzian":
        name = spec["map"]
        z = _z(spec["z"])
        S = R.schwarzian_at("cot_scaled" if name.startswith("cot_scaled") else name, z,
                            float(name[-3:]) / 100.0 if name.startswith("cot_scaled") else 0.0)
        got = complex(v["witness"]["re"], v["witness"]["im"])
        refs.append(ref("schwarzian_vs_closed_form", abs(got - S), 0.0,
                        tol=R.TOL["schwarzian_point"] * max(1.0, abs(S))))
    elif sub == "radius":
        refs.append(ref("radius_vs_closed_form", rep["inputs"]["at_radius"],
                        R.radius_alpha(spec["alpha"]), tol=R.TOL["radius"]))
    elif sub == "const-q":
        c = v["witness"]["re"]
        refs.append(ref("solver_vs_closed_form", R.const_q_limit(c), spec["target"],
                        tol=R.TOL["constant_solver"]))
    elif sub == "palpha" and "c" in spec:
        lim = R.const_q_limit(spec["c"])
        refs.append(ref("limit_vs_closed_form", v["witness"]["value"], lim,
                        tol=R.TOL["palpha_limit"] * max(1.0, abs(lim))))
    elif sub == "factor-check" and spec["map"] == "mobius_pole":
        refs.append(ref("v_margin_vs_closed_form", v["margin"], 0.5 * (1.0 - spec["alpha"]),
                        tol=R.TOL["ray_gap"]))
    return out, {"wall_time_ms": wall}, refs


_PREPARE = {
    "cli": _p_cli,
    "membership": _p_membership,
    "order_estimate": _p_order,
    "schwarzian_norm": _p_norm,
    "invariance": _p_invariance,
    "laurent": _p_laurent,
    "radius": _p_radius,
    "duality": _p_duality,
    "inclusions": _p_inclusions,
    "sufficiency": _p_sufficiency,
    "palpha_const": _p_palpha_const,
    "integral_const": _p_integral_const,
    "palpha_poly": _p_palpha_poly,
    "integral_poly": _p_integral_poly,
    "integral_monomial": _p_integral_monomial,
    "samples": _p_samples,
    "sharpness": _p_sharpness,
    "round_trip": _p_round_trip,
    "reconstruct": _p_reconstruct,
    "complex_q": _p_complex_q,
    "solve_ray": _p_solve_ray,
    "equivalence": _p_equivalence,
}
