"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import copy
import json
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "src"))

import run  # noqa: E402
from checks import load_reference  # noqa: E402
from metrics import END_TO_END, PER_LAYER, SPANS  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, Op  # noqa: E402

BENCHMARK = json.loads((REPO / "BENCHMARK.json").read_text())

# cheap operations covering every checked subcommand but verify-cd, and the
# known defect
CHEAP_OPS = [
    Op("threshold", "sphere_example", 3),
    Op("riccati", "radial_log", 3),
    Op("compare", "radial_log", 3),
    Op("curvature", "twisted_flat", 3),
    Op("bochner", "polar_general", 3),
    Op("bochner", "sphere_example", 54),
]


@pytest.fixture
def runner(monkeypatch):
    monkeypatch.chdir(REPO)
    from cdsplit import cli

    return run.Runner(cli, load_reference())


def test_benchmark_json_matches_catalogue():
    assert [(w["name"], w["why"]) for w in BENCHMARK["workloads"]] == \
        [(w.name, w.why) for w in WORKLOADS.values()]
    assert BENCHMARK["end_to_end"] == [
        {"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound in END_TO_END]
    assert BENCHMARK["per_layer"] == [
        {"name": n, "unit": u, "better": b} for n, u, b, _ in PER_LAYER]


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_emitted_with_its_unit(trace, section):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "identity-probes", "--seed", "5",
         "--seconds", "1", "--trace", str(trace)],
        cwd=REPO, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    printed = [line.split() for line in proc.stdout.splitlines()[:-1]]
    for name, unit in want.items():
        assert isinstance(result["metrics"][name]["value"], (int, float)), name
        assert any(words[:1] == [name] and words[2:3] == [unit] for words in printed), name


@pytest.mark.parametrize("key,field,shift", [
    ("threshold:sphere_example", "threshold", 1e-6),
    ("riccati:radial_log", "escape_time", 1e-3),
    ("compare:radial_log", "min_slack", 1e-6),
    ("curvature:twisted_flat", "rows", 1),
    ("bochner:polar_general", "exit", 1),
    ("bochner:sphere_example:54", "exit", -1),
    ("bochner:sphere_example:54", "max_residual", 1e-6),
])
def test_planted_wrong_reference_counts_as_failure(runner, tmp_path, key, field, shift):
    op = next(op for op in CHEAP_OPS if key in (op.ref_key, f"{op.ref_key}:{op.seed}"))
    runner.run(op, tmp_path / "good")
    assert (runner.attempted, runner.failed) == (1, 0), runner.problems
    runner.reference = copy.deepcopy(runner.reference)
    runner.reference["ops"][key][field] += shift
    runner.run(op, tmp_path / "planted")
    assert (runner.attempted, runner.failed) == (2, 1)


def test_traced_and_untraced_runs_write_identical_reports(runner, tmp_path):
    import cdsplit.chart_core as chart_core

    original = chart_core.metric_at
    plain = run.run_pass(runner, CHEAP_OPS, tmp_path / "plain")
    with Tracer(SPANS) as tracer:
        assert chart_core.metric_at is not original
        traced = run.run_pass(runner, CHEAP_OPS, tmp_path / "traced")
    assert chart_core.metric_at is original
    assert runner.failed == 0, runner.problems
    assert runner.attempted == 2 * len(CHEAP_OPS)
    assert plain[1] == traced[1] > 0
    totals = tracer.totals()
    assert totals["comparison_suite.bochner_residual"][0] == 8 + 10
    assert totals["warped_products.split_cd_threshold"][0] == 1


def test_recursive_calls_fold_into_one_span():
    from cdsplit.manifest import compile_expression

    expr = compile_expression("sin(r) * (1 + r^2) / exp(r)", ("r",))
    with Tracer(SPANS) as tracer:
        value = expr(0.5)
    assert value == expr(0.5)
    assert tracer.totals()["manifest.eval_ast"][0] == 1
