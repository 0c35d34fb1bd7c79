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


def test_evaluation_errors_exit_two(capsys):
    assert main(["classify", "--catalog", "no_such_entry", "--family", "bc"]) == 2
    assert "error:" in capsys.readouterr().err
    assert main(["classify", "--expr", "1/(z", "--family", "bc"]) == 2
    assert main(["schwarzian", "--expr", "1/z", "--z", "abc"]) == 2
    assert main(["theorem", "--check", "sufficiency", "--catalog", "mobius_pole"]
                + FAST) == 2  # sufficiency needs --q or --q-const


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
    assert out.stderr == "error: S_f(0.9) is not finite: the jet of f overflowed there\n"


def test_schwarzian_of_a_map_whose_derivative_overflows_abs(capsys):
    # |f'| overflows Python's abs(): far from zero, so S_f = 0, no traceback
    assert main(["schwarzian", "--expr", "1.5e308*z + 1.5e308*i*z", "--z", "0.5"]) == 0
    assert capsys.readouterr().out == "S_f((0.5+0j)) = 0 + 0i\n|S_f| = 0\n"


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

    import gftkit.cli as cli

    real_check = cli.starlike_equivalence_check

    def drifting_check(*args, **kwargs):
        return dataclasses.replace(real_check(*args, **kwargs), wronskian_worst=1e-6)

    monkeypatch.setattr(cli, "starlike_equivalence_check", drifting_check)
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


def test_parser_registers_every_subcommand():
    parser = build_parser()
    actions = [a for a in parser._actions if a.dest == "command"]
    assert sorted(actions[0].choices) == sorted(
        ["classify", "order", "schwarzian", "norm", "palpha", "const-q",
         "radius", "factor-check", "theorem", "sharpness", "catalog"]
    )


# -- import graph ----------------------------------------------------------------

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
