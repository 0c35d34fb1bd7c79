"""Closed-form answers the benchmark checks gftkit's outputs against.

Nothing here imports gftkit: every value is derived by hand from the
mathematics (the derivation is in each docstring), so a wrong answer from
the library cannot also be the reference.  Each comparison carries a
tolerance stated here, before any run, with the reason for its size.

Known defects are listed by name.  A reference that fails on an input
inside a known defect's stated scope still counts as failed; it only
keeps the run's ``correct`` flag true, because the failure is expected
and explained rather than new.
"""

from __future__ import annotations

import cmath
import math

# -- known defects -------------------------------------------------------------

KNOWN_DEFECTS = {
    "palpha.first_zero_large_c": (
        "check_palpha scans for the first zero of y only on its fixed reporting "
        "nodes; when pi/sqrt(c) lies before the first node the reported zero is "
        "wrong"
    ),
    "palpha.complex_q_accepted": (
        "QFunction.from_expression keeps the real part of a complex coefficient "
        "instead of rejecting it, then reports a verdict for a different q"
    ),
    "palpha.integral_kinked_samples": (
        "integrate_q misses its 1e-10 tolerance by up to ~1e-8 on the kinks of a "
        "from_samples table; quad only raises an IntegrationWarning"
    ),
}

# First interior reporting node of check_palpha at its default eps_end = 2^-21:
# the nodes start with linspace(0, 1 - eps_end, 385).  A constant c whose first
# zero pi/sqrt(c) falls before it is inside the scope of
# "palpha.first_zero_large_c".
PALPHA_FIRST_NODE = (1.0 - 2.0**-21) / 384.0

# -- tolerances ------------------------------------------------------------------

TOL = {
    # bisection to 1e-15 on a polynomial with slope >= 2 at the root
    "radius": 1e-12,
    # Richardson ladder settles to 1e-5 between rungs; the extrapolated
    # limit is far better than that on smooth y, so 1e-6 (relative above 1)
    "palpha_limit": 1e-6,
    # first zero bisected to 1e-12 on a dense interpolant at rtol 1e-10
    "first_zero_rel": 1e-8,
    # quadrature with abs_tol 1e-10 (relative above 1)
    "integral": 1e-9,
    # sqrt(c) cot(sqrt(c)) = L solved by bisection to 1e-15 in sqrt(c)
    "constant_solver": 1e-12,
    # sharpness certificate y'(1) >= beta + (1-beta)/(n+2): one-sided, so
    # only roundoff of the solver's ratio is allowed below it
    "sharpness": 1e-9,
    # closed-loop finite-difference Schwarzian (the library's own 10b gate)
    "reconstruct": 1e-6,
    # polished extremum vs exact infimum: golden section to 1e-10 in angle
    "polished": 1e-8,
    # grid values exactly on the extremal point: roundoff only
    "on_grid": 1e-9,
    # weighted Schwarzian norm whose supremum sits at the origin; the grid's
    # innermost ring is r = 1e-4, so the estimate is low by ~2e-8 relative
    "norm_rel": 1e-6,
    # Schwarzian near a pole at 0: S is the difference of two terms of size
    # 6/|z|^2, which at the norm grid's innermost ring r = 1e-4 are 6e8, each
    # carrying ~10 ulp of jet rounding: 6e8 * 10 * 2.2e-16 = 1.3e-6, so an
    # absolute 2e-6 on top of any relative tolerance (and the whole
    # tolerance where S = 0)
    "pole_cancellation": 2e-6,
    # Schwarzian at a point from exact jets (relative above 1)
    "schwarzian_point": 1e-9,
    # invariance residuals S_{T o f} - S_f and S_{1/f} - S_f on |z| <= 0.9
    # (relative above 1 in the size of S_f there)
    "invariance": 1e-8,
    # contour-average Laurent coefficient on 64 points (relative above 1)
    "laurent": 1e-9,
    # ray solve against the closed-form factor solutions (ROADMAP gate)
    "ray_gap": 1e-7,
    # Wronskian u v' - u' v = 1 along a ray (ROADMAP gate)
    "wronskian": 1e-8,
    # one-sided verdict margins: grid or polish may not undershoot a proven
    # lower bound by more than the membership tolerance
    "claim": 1e-6,
}

# -- catalog claims ----------------------------------------------------------------

# (name, family, order): the memberships each catalog map is known to have,
# with the one-line reason.  Independent of gftkit.catalog, which states the
# same claims; the cli_session workload compares the two.
CLAIMS = (
    ("quarter_pole", "bc", 0.5, "-Re(1 + z f''/f') = Re((z^2+4)/(4-z^2)) >= 3/5"),
    ("cot_scaled_a000", "bc", 0.0, "constant Schwarzian 2/pi, dominated case"),
    ("cot_scaled_a030", "bc", 0.3, "constant Schwarzian 2(0.7)/pi"),
    ("cot_scaled_a050", "bc", 0.5, "constant Schwarzian 1/pi"),
    ("inverse_log", "bci", 0.5, "1/g = -log(1-z) is convex of order 1/2"),
    ("power_ratio_a025", "bci", 0.25, "1/g is convex of order 1/4"),
    ("koebe", "sstar", 0.0, "z f'/f = (1+z)/(1-z)"),
    ("koebe_reciprocal", "bsstar", 0.0, "-z h'/h = (1+z)/(1-z)"),
    ("mobius_pole", "bc", 1.0, "-Re(1 + z g''/g') = 1 identically"),
    ("mobius_pole", "bsstar", 0.5, "-z g'/g = 1/(1-z)"),
    ("half_plane_log", "c", 0.5, "1 + z f''/f' = 1/(1-z)"),
    ("cayley", "c", 0.0, "1 + z f''/f' = (1+z)/(1-z)"),
    ("cayley", "sstar", 0.5, "z f'/f = 1/(1-z)"),
)
CATALOG_NAMES = (
    "quarter_pole", "cot_scaled_a000", "cot_scaled_a030", "cot_scaled_a050",
    "inverse_log", "power_ratio_a025", "koebe", "koebe_reciprocal", "mobius_pole",
    "half_plane_log", "cayley", "mobius_generic",
)

# -- maps -----------------------------------------------------------------------------

# Expression text for every base map the in-process workloads use, and which of
# them carry the normalized simple pole 1/z + a0 + ... at the origin.
B_FORM = {"quarter_pole", "cot_scaled", "inverse_log", "power_ratio",
          "koebe_reciprocal", "mobius_pole", "mobius_a0"}


def cot_b(alpha: float) -> float:
    """b with b cot(b z) convex of order alpha: b^2 = (1 - alpha)/pi."""
    return math.sqrt((1.0 - alpha) / math.pi)


def power_eta(alpha: float) -> float:
    return 2.0 * alpha - 1.0


def base_text(name: str, param: float = 0.0) -> str:
    """Expression text in z for a base map (param: alpha, or a0 for mobius_a0)."""
    if name == "cot_scaled":
        b = cot_b(param)
        return f"{b!r}*cot({b!r}*z)"
    if name == "power_ratio":
        eta = power_eta(param)
        return f"{eta!r}/(1-(1-z)^{eta!r})"
    if name == "mobius_a0":
        a0 = complex(param)
        return f"1/z + ({a0.real!r}) + ({a0.imag!r})*i"
    return {
        "quarter_pole": "z/4 + 1/z",
        "inverse_log": "-1/log(1-z)",
        "koebe": "z/(1-z)^2",
        "koebe_reciprocal": "z + 1/z - 2",
        "mobius_pole": "(1-z)/z",
        "half_plane_log": "-log(1-z)",
        "cayley": "z/(1-z)",
    }[name]


def laurent_a0(name: str, param: float = 0.0):
    """Constant term a0 of f = 1/z + a0 + a1 z + ... for b-form base maps.

    cot: b cot(bz) = 1/z - b^2 z/3 - ..., a0 = 0.  inverse_log:
    -1/log(1-z) = 1/(z (1 + z/2 + ...)) = 1/z - 1/2 + ...  power_ratio:
    1 - (1-z)^eta = eta z (1 - (eta-1) z/2 + ...), a0 = (eta-1)/2.
    """
    if name in ("quarter_pole", "cot_scaled"):
        return 0.0
    if name == "inverse_log":
        return -0.5
    if name == "power_ratio":
        return (power_eta(param) - 1.0) / 2.0
    if name == "koebe_reciprocal":
        return -2.0
    if name == "mobius_pole":
        return -1.0
    if name == "mobius_a0":
        return complex(param)
    return None


def dilated_a0(name: str, param: float, lam: complex):
    """a0 of lam*f(lam z) = 1/z + lam a0 + lam^2 a1 z + ..."""
    a0 = laurent_a0(name, param)
    return None if a0 is None else lam * a0


def schwarzian_at(name: str, z: complex, param: float = 0.0):
    """S_f(z) in closed form, or None where none is used.

    quarter_pole: f' = (z^2-4)/(4z^2), f''/f' = 8/(z(z^2-4)),
    f'''/f' = -24/(z^2(z^2-4)), so S = -24/(z^2-4)^2.  cot_scaled: S of
    cot(bz) is 2b^2.  koebe and its reciprocal: S = -6/(1-z^2)^2 (S is
    invariant under f -> 1/f).  Mobius maps: S = 0.
    """
    if name == "quarter_pole":
        return -24.0 / (z * z - 4.0) ** 2
    if name == "cot_scaled":
        return complex(2.0 * cot_b(param) ** 2)
    if name in ("koebe", "koebe_reciprocal"):
        return -6.0 / (1.0 - z * z) ** 2
    if name in ("mobius_pole", "mobius_a0", "cayley", "mobius_generic"):
        return 0j
    return None


def norm_sup(name: str, param: float, s: float):
    """sup (1-|z|^2)^2 |S_g| for g the dilation of f by |lam| = s <= 1.

    S_g(z) = lam^2 S_f(lam z).  For quarter_pole, cot_scaled and koebe the
    weighted modulus at radius r peaks where |S_f| does, at the value
    s^2 (1-r^2)^2 |S_f(s r)|, which decreases in r (for quarter_pole:
    d/dr of (1-r^2)/(4-s^2 r^2) has the sign of s^2 - 4 < 0; koebe:
    of s^2 - 1 <= 0), so the sup is the value at the origin: 1.5 s^2,
    2 b^2 s^2 and 6 s^2.  Mobius maps: 0.
    """
    if name == "quarter_pole":
        return 1.5 * s * s
    if name == "cot_scaled":
        return 2.0 * cot_b(param) ** 2 * s * s
    if name in ("koebe", "koebe_reciprocal"):
        return 6.0 * s * s
    if name in ("mobius_pole", "mobius_a0", "cayley", "mobius_generic"):
        return 0.0
    return None


def quarter_pole_bc(w: complex) -> float:
    """-Re(1 + w f''/f') for f = w/4 + 1/w: Re((w^2+4)/(4-w^2))."""
    return ((w * w + 4.0) / (4.0 - w * w)).real


def quarter_pole_bc_inf(rho: float) -> float:
    """Infimum of the bc functional over |w| <= rho: (4-rho^2)/(4+rho^2),
    attained at w = +-i rho."""
    return (4.0 - rho * rho) / (4.0 + rho * rho)


def grid_angle_error(rho: float, points_per_ring: int) -> float:
    """How far a ring grid of the given size can sit above the infimum on
    |w| = rho: the closed-form functional half a grid step from the
    minimizer, minus its minimum."""
    half = math.pi / points_per_ring
    return quarter_pole_bc(rho * cmath.exp(1j * (math.pi / 2 + half))) - quarter_pole_bc_inf(rho)


def radius_alpha(alpha: float) -> float:
    """Root in (0,1) of (-1-alpha) x^2 + 4x + alpha - 1."""
    return (2.0 - math.sqrt(3.0 + alpha * alpha)) / (1.0 + alpha)


def const_q_limit(c: float) -> float:
    """Boundary log-slope of y = sin(sqrt(c) x)/sqrt(c): sqrt(c) cot(sqrt(c))."""
    if c == 0.0:
        return 1.0
    t = math.sqrt(c)
    return t / math.tan(t)


def const_q_first_zero(c: float):
    """First zero of sin(sqrt(c) x) in (0, 1), or None."""
    t = math.sqrt(c)
    return math.pi / t if t > math.pi else None


def monomial_integral(a: float, n: float) -> float:
    """Integral of a x^n over [0, 1]."""
    return a / (n + 1.0)


def sharpness_floor(n: int, beta: float) -> float:
    """Certified lower bound on min x y'/y for q = (1-beta)(n+1) x^n:
    q >= 0 gives y <= x and y' decreasing, so x y'/y >= y'(1) >=
    1 - int q x dx = beta + (1-beta)/(n+2)."""
    return beta + (1.0 - beta) / (n + 2.0)


def trapezoid_integral(xs, vs) -> float:
    """Exact integral of the piecewise-linear interpolant of a sample table."""
    return sum(0.5 * (vs[i] + vs[i + 1]) * (xs[i + 1] - xs[i]) for i in range(len(xs) - 1))


def ray_solutions(name: str, param: float, z):
    """Normalized factor solutions (v, u) of w'' + (S_f/2) w = 0, v(0) = 0,
    v'(0) = 1, u(0) = 1, u'(0) = 0, at complex points z (numpy array).

    They are 1/sqrt(f') and f/sqrt(f') up to normalization.  cot_scaled:
    S/2 = b^2, so v = sin(bz)/b, u = cos(bz).  quarter_pole:
    1/sqrt(f') = -i z/sqrt(1 - z^2/4), so v = z/sqrt(1 - z^2/4) and
    u = (1 + z^2/4)/sqrt(1 - z^2/4).  Mobius maps (S = 0): v = z, u = 1.
    """
    import numpy as np

    if name == "cot_scaled":
        b = cot_b(param)
        return np.sin(b * z) / b, np.cos(b * z)
    if name == "quarter_pole":
        root = np.sqrt(1.0 - z * z / 4.0)
        return z / root, (1.0 + z * z / 4.0) / root
    if name in ("mobius_pole", "mobius_a0"):
        return z, np.ones_like(z)
    raise KeyError(name)
