"""Command-line interface: exit codes, JSON report shape, determinism."""

import json
import math
import os
import subprocess
import sys

import jsonschema
import pytest

import gftkit
from gftkit import catalog
from gftkit.cli import build_parser, main

pytestmark = pytest.mark.filterwarnings(
    "ignore::gftkit.errors.UnivalenceNotChecked"
)

FAST = ["--rings", "12", "--points", "64"]

REPORT_SCHEMA = {
    "type": "object",
    "properties": {
        "command": {"type": "string"},
        "inputs": {"type": "object"},
        "verdict": {
            "type": "object",
            "properties": {
                "holds": {"type": "boolean"},
                "margin": {"type": "number"},
                "witness": {
                    "type": "object",
                    "properties": {
                        "re": {"type": "number"},
                        "im": {"type": "number"},
                        "value": {"type": "number"},
                    },
                    "required": ["re", "im", "value"],
                    "additionalProperties": False,
                },
            },
            "required": ["holds", "margin", "witness"],
            "additionalProperties": False,
        },
        "order_estimate": {"type": "number"},
        "tolerances": {"type": "object"},
        "wall_time_ms": {"type": "number"},
        "version": {"type": "string"},
    },
    "required": ["command", "inputs", "verdict", "tolerances", "wall_time_ms", "version"],
    "additionalProperties": False,
}


def run_json(capsys, argv):
    code = main(argv + ["--json"])
    report = json.loads(capsys.readouterr().out)
    jsonschema.validate(report, REPORT_SCHEMA)
    return code, report


# -- exit codes ----------------------------------------------------------------


def test_holding_verdict_exits_zero(capsys):
    code = main(["classify", "--catalog", "quarter_pole", "--family", "bc",
                 "--alpha", "0.5"] + FAST)
    out = capsys.readouterr().out
    assert code == 0
    assert "holds on samples: True" in out
    assert "0.999000000j" in out  # witness on the top of the grid


def test_violated_verdict_exits_one(capsys):
    code, report = run_json(capsys, ["classify", "--catalog", "koebe",
                                     "--family", "c"] + FAST)
    assert code == 1
    assert report["verdict"]["holds"] is False
    assert report["verdict"]["margin"] < -100
    assert report["verdict"]["witness"]["re"] < -0.9


def test_a_map_with_a_negative_real_constant_under_a_root_exits_zero(capsys):
    # sqrt(-(1)) is i: the map is i*z, convex, and every grid point evaluates
    assert main(["classify", "--expr", "z*sqrt(-(1))", "--family", "c"] + FAST) == 0
    assert "0 skipped" in capsys.readouterr().out


def test_usage_errors_exit_two():
    with pytest.raises(SystemExit) as exc:
        main(["classify", "--family", "bc"])  # no --expr/--catalog
    assert exc.value.code == 2
    with pytest.raises(SystemExit):
        main(["classify", "--expr", "1/z", "--family", "nope"])


@pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
def test_a_tolerance_that_is_not_finite_and_non_negative_is_a_usage_error(tol, capsys):
    # a NaN tolerance made a holding check fail, an infinite one every check hold
    with pytest.raises(SystemExit) as exc:
        main(["classify", "--catalog", "cot_scaled_a030", "--family", "bc", "--alpha", "0.9",
              "--tol", tol, "--json"] + FAST)
    assert exc.value.code == 2
    assert f"need a finite tolerance >= 0, got {tol!r}" in capsys.readouterr().err


def test_evaluation_errors_exit_two(capsys):
    assert main(["classify", "--catalog", "no_such_entry", "--family", "bc"]) == 2
    assert "error:" in capsys.readouterr().err
    assert main(["classify", "--expr", "1/(z", "--family", "bc"]) == 2
    assert main(["schwarzian", "--expr", "1/z", "--z", "abc"]) == 2
    assert main(["theorem", "--check", "sufficiency", "--catalog", "mobius_pole"]
                + FAST) == 2  # sufficiency needs --q or --q-const


@pytest.mark.parametrize("argv", [
    ["norm", "--rings", "8", "--points", "64"],
    ["factor-check", "--rays", "8"] + FAST,
])
def test_a_constant_map_fails_as_its_non_folded_form_does(argv, capsys):
    # 3 and z^0 fold to constants; 2+0*z does not, and reports the failure
    assert main(argv + ["--expr", "2+0*z"]) == 2
    want = capsys.readouterr().err
    assert want.startswith("error: ") and want.count("\n") == 1
    for text in ("3", "z^0"):
        assert main(argv + ["--expr", text]) == 2, text
        assert capsys.readouterr().err == want, text


def test_grid_overflow_reports_the_error_line_alone():
    # the jets NaN-mask overflow; numpy's RuntimeWarnings must not reach stderr
    src = os.path.dirname(os.path.dirname(gftkit.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-m", "gftkit.cli", "classify", "--expr", "exp(1000*z)",
         "--family", "sstar"],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": path, "PYTHONWARNINGS": "default"},
    )
    assert out.returncode == 2
    assert out.stderr == "error: 12396 of 32768 grid points failed to evaluate (> 1%)\n"


def test_schwarzian_overflow_reports_the_error_line_alone():
    # S_f of exp(1000 z) is -500000, but its jet overflows at z = 0.9: no
    # NaN result, no "holds", and no numpy RuntimeWarning on stderr
    src = os.path.dirname(os.path.dirname(gftkit.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-m", "gftkit.cli", "schwarzian", "--expr", "exp(1000*z)",
         "--z", "0.9", "--json"],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": path, "PYTHONWARNINGS": "default"},
    )
    assert out.returncode == 2
    assert out.stdout == ""
    assert out.stderr == ("error: S_f(0.9) is not finite: f or one of its derivatives is "
                          "singular or not finite there\n")


def test_schwarzian_at_a_singular_point_names_the_point(capsys):
    # at the pole of z/4 + 1/z the one-point jet is NaN, as on a grid
    assert main(["schwarzian", "--catalog", "quarter_pole", "--z", "0"]) == 2
    assert capsys.readouterr().err == ("error: S_f(0) is not finite: f or one of its "
                                       "derivatives is singular or not finite there\n")
    # a zero of f' is a raise of its own
    assert main(["schwarzian", "--catalog", "koebe_reciprocal", "--z", "1"]) == 2
    assert capsys.readouterr().err == "error: f'((1+0j)) = 0 to tolerance\n"


def test_schwarzian_of_a_map_whose_derivative_overflows_abs(capsys):
    # |f'| overflows Python's abs(): far from zero, so S_f = 0, no traceback
    assert main(["schwarzian", "--expr", "1.5e308*z + 1.5e308*i*z", "--z", "0.5"]) == 0
    assert capsys.readouterr().out == "S_f((0.5+0j)) = 0 + 0i\n|S_f| = 0\n"


def test_an_unknown_catalog_name_is_printed_as_its_message(capsys):
    assert main(["order", "--catalog", "nosuch", "--family", "bc"]) == 2
    known = ", ".join(catalog.names())
    assert capsys.readouterr().err == f"error: no catalog entry 'nosuch'; known: {known}\n"


def test_an_empty_alphas_list_is_a_usage_error(capsys):
    argv = ["theorem", "--check", "inclusions", "--catalog", "quarter_pole", "--alphas", ","]
    assert main(argv + FAST) == 2
    assert capsys.readouterr().err == (
        "error: --alphas ',' names no order; give comma-separated orders such as 0.1,0.25\n"
    )


@pytest.mark.parametrize("argv", [
    ["catalog", "--json"],
    ["classify", "--catalog", "quarter_pole", "--family", "bc", "--json"] + FAST,
], ids=["catalog", "classify"])
def test_a_closed_stdout_gives_an_error_line_not_a_traceback(argv):
    read, write = os.pipe()
    os.close(read)  # the reader is gone before the report is written
    try:
        out = subprocess.run([sys.executable, "-m", "gftkit.cli", *argv], stdout=write,
                             stderr=subprocess.PIPE, text=True, env=_child_env())
    finally:
        os.close(write)
    assert out.returncode == 2
    assert out.stderr == "error: cannot write the report: Broken pipe\n"


def test_version_flag():
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


# -- individual subcommands ----------------------------------------------------


def test_radius_prints_both_routes(capsys):
    assert main(["radius", "--alpha", "0"]) == 0
    out = capsys.readouterr().out
    assert "0.2679491924311228" in out and "closed form" in out


def test_radius_with_a_sampled_check(capsys):
    code, report = run_json(capsys, ["radius", "--alpha", "0.5",
                                     "--check-catalog", "koebe_reciprocal"])
    assert code == 0 and report["verdict"]["holds"] is True
    code, report = run_json(capsys, ["radius", "--alpha", "0.5",
                                     "--check-catalog", "koebe_reciprocal",
                                     "--at-radius", "0.25"])
    assert code == 1 and report["verdict"]["holds"] is False


def test_radius_check_inside_the_exclusion_ball_exits_two(capsys):
    assert main(["radius", "--alpha", "0.999", "--check-catalog", "quarter_pole"]) == 2
    err = capsys.readouterr().err
    assert "r_alpha = 0.00025" in err and "exclusion radius 0.001" in err
    assert "need 0 < exclusion_radius" not in err


def test_order_reports_the_refined_estimate(capsys):
    code, report = run_json(capsys, ["order", "--catalog", "quarter_pole",
                                     "--family", "bc"] + FAST)
    assert code == 0
    assert report["order_estimate"] == pytest.approx(0.6006399358463514, abs=1e-9)


def test_order_exits_zero_even_when_the_estimate_does_not_hold(capsys):
    # order computes an estimate; "holds" is only whether it is positive
    code, report = run_json(capsys, ["order", "--catalog", "koebe", "--family", "c"] + FAST)
    assert code == 0
    assert report["verdict"]["holds"] is False
    assert report["order_estimate"] == 0.0


def test_radius_without_a_check_exits_zero(capsys):
    code, report = run_json(capsys, ["radius", "--alpha", "0"])
    assert code == 0
    assert report["verdict"]["holds"] is True


def test_schwarzian_at_a_point(capsys):
    code, report = run_json(capsys, ["schwarzian", "--catalog", "koebe", "--z", "0"])
    assert code == 0
    assert report["verdict"]["witness"]["re"] == pytest.approx(-6.0, abs=1e-12)
    assert main(["schwarzian", "--expr", "1/z", "--z", "0.3+0.4i"]) == 0


def test_norm_lower_bound(capsys):
    code, report = run_json(capsys, ["norm", "--catalog", "mobius_generic",
                                     "--rings", "8", "--points", "64", "--refine", "1"])
    assert code == 0
    assert report["verdict"]["margin"] <= 1e-10  # Mobius maps have zero norm


def test_palpha_membership_and_rejection(capsys):
    assert main(["palpha", "--q-const", "0", "--alpha", "0.95"]) == 0
    capsys.readouterr()  # drop the text report before the JSON run
    code, report = run_json(capsys, ["palpha", "--q-const", "4", "--alpha", "0.1"])
    assert code == 1
    assert report["verdict"]["margin"] == pytest.approx(
        2.0 / math.tan(2.0) - 0.1, abs=1e-6
    )


def test_palpha_with_too_short_a_ladder_names_the_cause(capsys):
    # at eps_end = 0.01 no rung of x_k = 1 - 2^-k, k >= 7, fits before the end
    assert main(["palpha", "--q-const", "1", "--alpha", "0.3", "--eps-end", "0.01"]) == 2
    err = capsys.readouterr().err
    assert "eps_end = 0.01 leaves the boundary ladder" in err and "0 of the 3 rungs" in err
    assert "did not settle" not in err


def test_const_q_solver(capsys):
    assert main(["const-q", "--target", "0.5"]) == 0
    assert "1.358532876461639" in capsys.readouterr().out


def test_factor_check_agreement(capsys):
    code, report = run_json(capsys, ["factor-check", "--catalog", "mobius_pole",
                                     "--alpha", "0.8", "--rays", "8"] + FAST)
    assert code == 0
    assert report["verdict"]["holds"] is True
    assert report["verdict"]["margin"] == pytest.approx(0.1, abs=1e-6)


def test_factor_check_gates_the_wronskian_tolerance(capsys, monkeypatch):
    import dataclasses

    import gftkit.rays as rays

    real_check = rays.starlike_equivalence_check

    def drifting_check(*args, **kwargs):
        return dataclasses.replace(real_check(*args, **kwargs), wronskian_worst=1e-6)

    # the handler imports the check from its module when it runs
    monkeypatch.setattr(rays, "starlike_equivalence_check", drifting_check)
    code = main(["factor-check", "--catalog", "mobius_pole", "--alpha", "0.8",
                 "--rays", "8", "--json"] + FAST)
    captured = capsys.readouterr()
    assert code == 2
    assert "Wronskian drift" in captured.err
    assert captured.out == ""


def test_theorem_checks(capsys):
    assert main(["theorem", "--check", "duality", "--catalog", "inverse_log",
                 "--alpha", "0.5"] + FAST) == 0
    assert "consistent: True" in capsys.readouterr().out
    assert main(["theorem", "--check", "sufficiency", "--catalog", "mobius_pole",
                 "--q-const", "0", "--alpha", "0.9"] + FAST) == 0
    assert main(["theorem", "--check", "inclusions", "--catalog", "mobius_pole",
                 "--alphas", "0.0,0.25"] + FAST) == 0


def test_sharpness_reports_a_miss_honestly(capsys):
    code, report = run_json(capsys, ["sharpness", "--n", "3", "--beta", "0.5"])
    assert code == 1
    assert report["verdict"]["holds"] is False
    assert report["verdict"]["margin"] > 0  # infimum stays above beta
    assert report["verdict"]["witness"]["re"] > 0.99


def test_sharpness_margin_is_taken_at_the_boundary(capsys):
    code, report = run_json(capsys, ["sharpness", "--n", "2000", "--beta", "0.1"])
    assert code == 1
    # boundary limit 0.10070, not the ratio 0.1025 at x = 1 - eps_end
    assert report["verdict"]["margin"] == pytest.approx(0.000697, abs=2e-6)
    main(["sharpness", "--n", "2000", "--beta", "0.1"])
    floor = 0.1 + 0.9 / 2002
    assert f"certified floor beta + (1-beta)/(n+2): {floor:.9g}" in capsys.readouterr().out


def test_catalog_listing(capsys):
    assert main(["catalog"]) == 0
    out = capsys.readouterr().out
    for name in catalog.names():
        assert name in out
    assert main(["catalog", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert [e["name"] for e in data] == list(catalog.names())


# -- report shape and determinism ----------------------------------------------


def test_json_key_order_is_fixed(capsys):
    _, report = run_json(capsys, ["classify", "--catalog", "mobius_pole",
                                  "--family", "bsstar", "--alpha", "0.5"] + FAST)
    assert list(report) == ["command", "inputs", "verdict", "order_estimate",
                            "tolerances", "wall_time_ms", "version"]
    _, report = run_json(capsys, ["const-q", "--target", "0.3"])
    assert list(report) == ["command", "inputs", "verdict", "tolerances",
                            "wall_time_ms", "version"]


def test_reports_are_deterministic_up_to_wall_time(capsys):
    argv = ["classify", "--catalog", "quarter_pole", "--family", "bc",
            "--alpha", "0.5", "--seed", "7"] + FAST
    _, first = run_json(capsys, argv)
    _, second = run_json(capsys, argv)
    first.pop("wall_time_ms")
    second.pop("wall_time_ms")
    assert first == second


# each subcommand's arguments, and those its handler reads besides --json and
# --tol (which goes to "tolerances"): changing any of them must change "inputs"
INPUT_CALLS = {
    "theorem sufficiency": (
        ["theorem", "--check", "sufficiency"], {"--catalog": "mobius_pole", "--q-const": "0.5"},
        ["--expr", "--alpha", "--q", "--q-const"]),
    "theorem duality": (
        ["theorem", "--check", "duality"], {"--catalog": "mobius_pole"},
        ["--expr", "--alpha"]),
    "theorem inclusions": (
        ["theorem", "--check", "inclusions"], {"--catalog": "mobius_pole"},
        ["--expr", "--alphas"]),
    "factor-check": (
        ["factor-check"], {"--catalog": "mobius_pole", "--rays": "4"},
        ["--expr", "--alpha", "--rays"]),
}
_SAMPLER_ARGS = ["--catalog", "--rmax", "--rings", "--points", "--exclude", "--seed"]
_CHANGED = {"--expr": "1/z + 0.5 + z/8", "--catalog": "quarter_pole", "--alpha": "0.3",
            "--q": "2*(1-x)", "--q-const": "2", "--alphas": "0.1,0.2", "--rmax": "0.99",
            "--rings": "10", "--points": "48", "--exclude": "0.002", "--rays": "6", "--seed": "3"}
_EITHER = {"--expr": "--catalog", "--catalog": "--expr", "--q": "--q-const", "--q-const": "--q"}


@pytest.mark.parametrize("name", list(INPUT_CALLS))
def test_json_inputs_name_every_argument_the_verdict_reads(capsys, name):
    command, base, read = INPUT_CALLS[name]
    base = {**base, "--rings": "12", "--points": "64"}

    def inputs(args):
        return run_json(capsys, command + [x for kv in args.items() for x in kv])[1]["inputs"]

    before = inputs(base)
    for arg in read + _SAMPLER_ARGS:
        changed = {k: v for k, v in base.items() if k != _EITHER.get(arg)}
        changed[arg] = _CHANGED[arg]
        assert inputs(changed) != before, arg


def test_theorem_inputs_name_the_coefficient_and_the_orders(capsys):
    _, report = run_json(capsys, ["theorem", "--check", "sufficiency", "--catalog",
                                  "mobius_pole", "--q", "2*(1-x)"] + FAST)
    assert report["inputs"]["q"] == "2*(1-x)"
    _, report = run_json(capsys, ["theorem", "--check", "inclusions", "--catalog",
                                  "mobius_pole", "--alphas", "0.4,0.1"] + FAST)
    assert report["inputs"]["alphas"] == [0.4, 0.1]


def test_parser_registers_every_subcommand():
    parser = build_parser()
    actions = [a for a in parser._actions if a.dest == "command"]
    assert sorted(actions[0].choices) == sorted(
        ["classify", "order", "schwarzian", "norm", "palpha", "const-q",
         "radius", "factor-check", "theorem", "sharpness", "catalog"]
    )


# -- import graph ----------------------------------------------------------------


def _child_env():
    src = os.path.dirname(os.path.dirname(gftkit.__file__))
    return {**os.environ,
            "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def _probe(code, *argv):
    """stdout of ``code`` run in a fresh interpreter, parsed as JSON."""
    out = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True,
                         check=True, env=_child_env())
    return json.loads(out.stdout)


_LIGHT_PROBE = """
import contextlib, io, json, sys
from gftkit.cli import main

loaded = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    loaded.append([code, "numpy" in sys.modules])
print(json.dumps(loaded))
"""

# listings, usage, and input that fails to parse or names no catalog entry
LIGHT_CALLS = [
    ["--version"], ["--help"], ["catalog"], ["catalog", "--json"],
    ["classify", "--expr", "1/(z", "--family", "bc"],
    ["order", "--expr", "z +", "--family", "bc", "--json"],
    ["norm", "--expr", "sin(z"],
    ["schwarzian", "--expr", "z^z", "--z", "0.5"],
    ["theorem", "--check", "duality", "--expr", "1/(z"],
    ["factor-check", "--expr", "exp z", "--json"],
    ["classify", "--catalog", "nosuch", "--family", "bc"],
    ["schwarzian", "--catalog", "koebe", "--z", "abc"],
    ["palpha", "--q", "2*(1-", "--alpha", "0.5"],
    ["radius", "--alpha", "0.3", "--check-expr", "1/("],
    ["theorem", "--check", "inclusions", "--catalog", "quarter_pole", "--alphas", ","],
]


def test_listings_and_bad_input_are_answered_without_numpy():
    codes = [0, 0, 0, 0] + [2] * (len(LIGHT_CALLS) - 4)
    assert _probe(_LIGHT_PROBE, json.dumps(LIGHT_CALLS)) == [[c, False] for c in codes]


def test_classify_imports_only_the_modules_it_runs():
    probe = (
        "import contextlib, io, json, sys\n"
        "from gftkit.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    main(sys.argv[1:])\n"
        "print(json.dumps([m for m in ('gftkit.rays', 'gftkit.theorems', 'gftkit.palpha',\n"
        "                              'gftkit.radius') if m in sys.modules]))\n"
    )
    argv = ["classify", "--catalog", "quarter_pole", "--family", "bc"] + FAST
    assert _probe(probe, *argv) == []


_CLOCK_PROBE = """
import contextlib, io, json, sys, time
from gftkit.cli import main

clock, at_start = time.perf_counter, []


def clock_that_notes_the_modules():
    if not at_start:  # main's clock start
        at_start.append(set(sys.modules))
    return clock()


time.perf_counter = clock_that_notes_the_modules
with contextlib.redirect_stdout(io.StringIO()):
    main(sys.argv[1:])
print(json.dumps(sorted(set(sys.modules) - at_start[0])))
"""

CLOCKED_CALLS = {
    "classify": ["classify", "--catalog", "inverse_log", "--family", "bci"] + FAST,
    "order": ["order", "--catalog", "quarter_pole", "--family", "bc"] + FAST,
    "schwarzian": ["schwarzian", "--catalog", "koebe", "--z", "0.3+0.4i"],
    "norm": ["norm", "--catalog", "koebe", "--rings", "8", "--points", "64", "--refine", "1"],
    "palpha --q": ["palpha", "--q", "2*(1-x)", "--alpha", "0.5"],
    "palpha --q-const": ["palpha", "--q-const", "1", "--alpha", "0.5"],
    "palpha, branch point": ["palpha", "--q", "3*x^0.5", "--alpha", "0.1"],
    "const-q": ["const-q", "--target", "0.5"],
    "radius": ["radius", "--alpha", "0.3"],
    "radius --check-catalog": ["radius", "--alpha", "0.3", "--check-catalog", "koebe_reciprocal"],
    "factor-check": ["factor-check", "--catalog", "mobius_pole", "--rays", "8"] + FAST,
    "theorem duality": ["theorem", "--check", "duality", "--catalog", "inverse_log"] + FAST,
    "theorem sufficiency": ["theorem", "--check", "sufficiency", "--catalog", "mobius_pole",
                            "--q-const", "0"] + FAST,
    "theorem sufficiency, branch point": ["theorem", "--check", "sufficiency", "--catalog",
                                          "mobius_pole", "--q", "x^0.5"] + FAST,
    "theorem inclusions": ["theorem", "--check", "inclusions", "--catalog", "mobius_pole"] + FAST,
    "sharpness": ["sharpness", "--n", "3", "--beta", "0.5"],
    "catalog": ["catalog", "--json"],
}


def test_no_module_is_imported_while_the_clock_runs():
    # wall_time_ms times the work: each subcommand's imports come before it
    loaded = {name: _probe(_CLOCK_PROBE, *argv) for name, argv in CLOCKED_CALLS.items()}
    assert loaded == {name: [] for name in CLOCKED_CALLS}


_HEAVY_PROBE = """
import contextlib, io, json, sys
from gftkit.cli import main

with contextlib.redirect_stdout(io.StringIO()):
    main(sys.argv[1:])
print(json.dumps(sorted(m for m in ("numpy.ma", "numpy.polynomial") if m in sys.modules)))
"""


@pytest.mark.parametrize("name", ["palpha --q", "palpha --q-const", "palpha, branch point",
                                  "factor-check", "sharpness", "theorem sufficiency",
                                  "theorem sufficiency, branch point"])
def test_no_run_loads_numpy_ma_or_numpy_polynomial(name):
    # each costs 10-15 ms of start-up, and no gftkit numerics need either
    assert _probe(_HEAVY_PROBE, *CLOCKED_CALLS[name]) == []


EXPORTED = [
    "CatalogEntry", "FamilyClaim", "catalog_json", "cot_scaled", "entries", "get_entry",
    "names", "power_ratio", "BranchPointOrPole", "DegenerateMobius", "DivisionAtZero",
    "EvaluationFailed", "ExprSyntaxError", "ExtrapolationDiverged", "GftError",
    "LocallyNonUnivalent", "NonAnalyticSample", "NonnegativityViolated", "QuadratureFailed",
    "StepSizeUnderflow", "TargetOutOfRange", "UnivalenceNotChecked", "WronskianDrift",
    "YVanishes", "FunctionExpr", "LaurentProbe", "compose_mobius", "const_expr", "eval_jet",
    "laurent_b_check", "parse", "scale_variable", "var_expr", "B_FAMILIES", "DiskSampler",
    "Family", "FamilyVerdict", "functional_value", "injectivity_spot_check", "membership",
    "order_estimate", "Jet3", "variable", "bisect", "polish_minimum", "quasi_random_disk",
    "richardson", "IntegralCheck", "OdeSolution", "PalphaVerdict", "QFunction",
    "SharpnessResult", "check_palpha", "constant_solver", "integral_criterion",
    "integrate_ivp", "integrate_q", "sharpness_construct", "RadiusCheck", "RadiusResult",
    "RotationWitness", "radius_inverse_convexity", "radius_polynomial", "rotation_witness",
    "verify_radius", "schwarzian", "EquivalenceReport", "RaySolution", "ReconstructedMap",
    "reconstruct_f_from_y", "solve_ray", "starlike_equivalence_check", "starlike_margin",
    "InvarianceCheck", "NormEstimate", "invariance_residuals", "pre_schwarzian",
    "schwarzian_norm", "weighted_modulus", "CHECK_IDS", "CheckItem", "TheoremReport",
    "dual_transform", "verify_duality", "verify_inclusions", "verify_sufficiency",
]

_EXPORTS_PROBE = """
import json, sys
import gftkit

listed = sorted(gftkit.__all__), sorted(set(dir(gftkit)) & set(gftkit.__all__))
objects = {name: getattr(gftkit, name) for name in gftkit.__all__}
defined = {name: getattr(sys.modules[obj.__module__], name) is obj
           for name, obj in objects.items() if hasattr(obj, "__module__")}
import gftkit.families, gftkit.theorems
reexported = [gftkit.Family is gftkit.families.Family,
              gftkit.B_FAMILIES is gftkit.families.B_FAMILIES,
              gftkit.CHECK_IDS is gftkit.theorems.CHECK_IDS]
print(json.dumps([listed, defined, reexported]))
"""


def test_the_package_exports_the_same_names_lazily():
    listed, defined, reexported = _probe(_EXPORTS_PROBE)
    assert listed == [sorted(EXPORTED), sorted(EXPORTED)]
    assert len(defined) == len(EXPORTED) - 2  # all but the frozenset and the tuple
    assert all(defined.values()) and all(reexported)


@pytest.mark.parametrize("first", [
    "import gftkit.rays", "import gftkit.schwarzian", "from gftkit import schwarzian",
    "import gftkit.theorems, gftkit.cli",
])
def test_gftkit_schwarzian_is_the_function_in_any_import_order(first):
    probe = (
        f"{first}\n"
        "import json, sys, types, gftkit\n"
        "module = sys.modules['gftkit.schwarzian']\n"
        "bound = globals().get('schwarzian', module.schwarzian)\n"
        "print(json.dumps([gftkit.schwarzian is module.schwarzian, bound is module.schwarzian,\n"
        "                  type(gftkit) is types.ModuleType]))\n"
    )
    # and the package is a plain module again once the submodule has loaded
    assert _probe(probe) == [True, True, True]


_SCIPY_PROBE = """
import contextlib, io, sys
import gftkit, gftkit.cli

def scipy_loaded():
    return any(m == "scipy" or m.startswith("scipy.") for m in sys.modules)

calls = [
    ["classify", "--catalog", "mobius_pole", "--family", "bsstar", "--alpha", "0.5",
     "--rings", "12", "--points", "64"],
    ["const-q", "--target", "0.5"],
    ["palpha", "--q-const", "1", "--alpha", "0.5"],
    ["palpha", "--q", "2*(1-x)", "--alpha", "0.5"],
    ["sharpness", "--n", "3", "--beta", "0.5"],
    ["theorem", "--check", "sufficiency", "--catalog", "mobius_pole", "--q-const", "0",
     "--rings", "12", "--points", "64"],
    ["factor-check", "--catalog", "mobius_pole", "--rays", "8", "--rings", "12",
     "--points", "64"],
]
states = [scipy_loaded()]
with contextlib.redirect_stdout(io.StringIO()):
    for argv in calls:
        gftkit.cli.main(argv)
        states.append(scipy_loaded())
print(states)
"""


def test_a_grid_check_starts_no_thread_pool():
    src = os.path.dirname(os.path.dirname(gftkit.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    probe = (
        "import contextlib, io, sys, gftkit.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    gftkit.cli.main(['classify', '--catalog', 'quarter_pole', '--family', 'bc',\n"
        "                     '--rings', '12', '--points', '64'])\n"
        "print('concurrent.futures' in sys.modules)\n"
    )
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": path}).stdout
    assert out.strip() == "False"


def test_no_cli_call_imports_scipy():
    src = os.path.dirname(os.path.dirname(gftkit.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", _SCIPY_PROBE],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": path},
    ).stdout
    # import, classify, const-q, palpha, sharpness, sufficiency and the ray
    # solves of factor-check: both ODE routes are Taylor steppers, no scipy
    assert out.strip() == "[False, False, False, False, False, False, False, False]"
