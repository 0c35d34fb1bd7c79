"""The benchmark's own tests: python3 -m pytest -q bench/test_bench.py

The smoke tests run every workload once with and once without tracing
(about two minutes on 2 cores).
"""

import cmath
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import references as R  # noqa: E402
import run  # noqa: E402
import workloads as W  # noqa: E402


def _digest(cycles):
    return json.dumps(cycles, sort_keys=True)


@pytest.mark.parametrize("workload", W.WORKLOADS)
def test_seed_fixes_the_input_list(workload):
    assert _digest(W.generate(workload, 7)) == _digest(W.generate(workload, 7))
    assert _digest(W.generate(workload, 7)) != _digest(W.generate(workload, 8))


@pytest.mark.parametrize("workload", W.WORKLOADS)
def test_cycles_share_one_composition(workload):
    """A seed may change parameters and order, never what a cycle costs."""

    # on cli_session the import dominates, so the seed may pick the map
    keys = ("kind", "sub") if workload == "cli_session" else (
        "kind", "map", "grid", "n_rays", "family", "n", "k", "theta")

    def shape(spec):
        return tuple(spec.get(k) for k in keys) + (len(spec.get("xs", ())),)

    for j in range(4):
        a = sorted(map(shape, W.generate(workload, 1)[j]), key=str)
        b = sorted(map(shape, W.generate(workload, 2)[j]), key=str)
        assert a == b


def test_generation_does_not_import_gftkit():
    code = ("import sys; sys.path.insert(0, 'bench'); import workloads as W; "
            "[W.generate(w, 3) for w in W.WORKLOADS]; "
            "assert not any(m.startswith('gftkit') for m in sys.modules)")
    subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True, timeout=60)


def test_benchmark_json_matches_the_registry():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert list(doc) == ["command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"]
    assert [w["name"] for w in doc["workloads"]] == list(W.WORKLOADS)
    assert all(len(w["why"]) <= 200 for w in doc["workloads"])
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in doc["end_to_end"]] == [
        tuple(x) for x in layers.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == [
        x[:3] for x in layers.PER_LAYER]
    readme = (HERE / "README.md").read_text()
    for name, *_ in layers.END_TO_END:
        assert f"`{name}`" in readme


def test_references_against_their_definitions():
    for alpha in (0.0, 0.3, 0.9):
        r = R.radius_alpha(alpha)
        assert abs((-1 - alpha) * r * r + 4 * r + alpha - 1) < 1e-14
    assert abs(R.radius_alpha(0.0) - (2 - math.sqrt(3))) < 1e-15
    rho = 0.8
    sampled = min(R.quarter_pole_bc(r * cmath.exp(1j * t)) for r in (0.2, 0.5, rho)
                  for t in [k * 2 * math.pi / 4096 for k in range(4096)])
    assert abs(sampled - R.quarter_pole_bc_inf(rho)) < 1e-12
    for c in (0.3, 2.0):
        # y'/y at x = 1 for y = sin(t x)/t, by a central difference
        t, h = math.sqrt(c), 1e-6
        slope = (math.sin(t * (1 + h)) - math.sin(t * (1 - h))) / (2 * h) / math.sin(t)
        assert abs(slope - R.const_q_limit(c)) < 1e-8
    assert abs(R.trapezoid_integral([0.0, 0.5, 1.0], [0.0, 1.0, 0.0]) - 0.5) < 1e-15


@pytest.mark.parametrize("name,param", [("cot_scaled", 0.3), ("quarter_pole", 0.0),
                                        ("mobius_a0", 0.0)])
def test_ray_references_solve_the_factor_equation(name, param):
    import numpy as np

    def sol(s):
        return np.array(R.ray_solutions(name, param, s))

    z = np.array([0.3 + 0.2j, -0.5 + 0.1j])
    h = 1e-4
    w, w_plus, w_minus = sol(z), sol(z + h), sol(z - h)
    p = np.array([R.schwarzian_at(name, x, param) / 2 for x in z])
    second = (w_plus - 2 * w + w_minus) / (h * h)
    assert np.max(np.abs(second + p * w)) < 1e-5
    (v, u), (vp, up) = w, (w_plus - w_minus) / (2 * h)
    assert np.max(np.abs(u * vp - up * v - 1)) < 1e-7


def test_tally_separates_known_defects():
    ok = W.ref("a", 1.0, 1.0, tol=1e-9)
    known = W.expect("b", False, True, defect="palpha.complex_q_accepted")
    new = W.ref("c", 2.0, 1.0, tol=1e-9)
    records = [{"id": "x", "error": None, "refs": [ok]},
               {"id": "y", "error": None, "refs": [ok, known]},
               {"id": "z", "error": None, "refs": [new]},
               {"id": "w", "error": "EvaluationFailed: boom", "refs": []}]
    t = run.tally(records)
    assert (t["attempted"], t["failed"]) == (4, 3)
    assert t["known_defects"] == {"palpha.complex_q_accepted": 1}
    assert t["unexpected"] == ["z:c", "w"]


def _run(cwd, workload, trace, seconds="0.1"):
    return subprocess.run([sys.executable, "bench/run.py", "--workload", workload, "--seed", "5",
                           "--seconds", seconds, "--trace", str(trace)],
                          cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", W.WORKLOADS)
def test_smoke_every_metric_with_its_unit(workload, trace):
    out = _run(ROOT, workload, trace)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert list(result) == ["correct", "attempted", "failed", "metrics"]
    assert result["correct"] is True
    assert result["attempted"] >= 1
    registry = layers.PER_LAYER if trace else layers.END_TO_END
    assert {n: {"unit": u} for n, u, *_ in registry} == {
        n: {"unit": m["unit"]} for n, m in result["metrics"].items()}
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())


def test_refuses_a_tree_without_sources():
    bare = ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    out = _run(bare, "grid_sweep", 0)
    shutil.rmtree(bare)
    assert out.returncode != 0
    assert out.stdout.strip() == ""
