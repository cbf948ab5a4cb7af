"""Self-tests of the benchmark harness: span arithmetic, metric names, tiny runs.

Run from the root of a checkout:  python3 -m pytest perfbench -q
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import spans  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def span(name, start, end, parent, work=None):
    return [name, start, end, parent, 0, work]


def test_self_time_subtracts_direct_children_only():
    records = [
        span("op", 0.0, 10.0, -1),
        span("a", 1.0, 6.0, 0),
        span("b", 2.0, 4.0, 1),
        span("c", 4.5, 5.5, 1),
        span("a", 7.0, 9.0, 0),
    ]
    totals, gap_evals = spans.summarize(records)
    assert totals["op"]["self_s"] == pytest.approx(10.0 - 5.0 - 2.0)
    assert totals["a"]["calls"] == 2
    assert totals["a"]["self_s"] == pytest.approx((5.0 - 2.0 - 1.0) + 2.0)
    assert totals["b"]["self_s"] == pytest.approx(2.0)
    assert totals["c"]["self_s"] == pytest.approx(1.0)
    assert gap_evals == 0


def test_gap_evals_count_evolve_calls_under_the_bisection_oracle():
    records = [
        span("op", 0.0, 10.0, -1),
        span("mpemba.crossing_report", 0.0, 9.0, 0, (1,)),
        span("mpemba.crossing_time_numeric", 0.0, 8.0, 1),
        span("states.ergotropy", 1.0, 3.0, 2),
        span("dynamics.evolve_analytic", 1.0, 2.0, 3),
        span("dynamics.evolve_analytic", 3.0, 4.0, 2),
        span("dynamics.evolve_analytic", 9.0, 9.5, 1),  # outside the oracle
    ]
    metrics = spans.layer_metrics(records)
    assert metrics["mpemba.gap_evals_per_tuple"]["value"] == 1.0
    assert metrics["mpemba.crossing_time_numeric.calls"]["value"] == 1.0
    assert metrics["mpemba.crossing_share"]["value"] == 1.0
    assert metrics["dynamics.evolve_analytic.calls"]["value"] == 3.0


def test_layers_without_spans_read_zero():
    metrics = spans.layer_metrics([])
    assert [name for name, _ in spans.PER_LAYER] == list(metrics)
    assert all(entry["value"] == 0.0 for entry in metrics.values())


def test_rk4_steps_follow_the_oracle_loop():
    assert spans.rk4_steps(0.1, [0.25]) == 3  # two whole steps and a remainder
    assert spans.rk4_steps(0.1, [0.3]) == 3
    assert spans.rk4_steps(0.1, [0.1, 0.1, 0.2]) == 2


def test_tracer_patches_every_binding_and_restores_them(monkeypatch):
    import ergoflow
    from ergoflow import mpemba, states

    monkeypatch.setitem(spans.TRACED, "ergoflow.states", spans.TRACED["ergoflow.states"] + ("no_such_function",))
    original = states.ergotropy
    tracer = spans.Tracer()
    with tracer.installed():
        assert states.ergotropy is not original
        assert mpemba.ergotropy is states.ergotropy
        assert ergoflow.ergotropy is states.ergotropy
        with tracer.op(1):
            mpemba.crossing_time_numeric(1.0, 1.0, 0.2, 0.4)
    assert states.ergotropy is original and mpemba.ergotropy is original
    assert states.GaussianState.__init__.__name__ == "__init__"
    metrics = spans.layer_metrics(tracer.spans)
    assert metrics["mpemba.crossing_time_numeric.calls"]["value"] == 1.0
    assert metrics["mpemba.gap_evals_per_tuple"]["value"] > 0
    assert metrics["states.GaussianState.calls"]["value"] > 0


def test_metric_names_and_units_match_the_benchmark_file():
    names = [w["name"] for w in BENCHMARK["workloads"]]
    names += [m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) and len(name) <= 64 for name in names)
    per_layer = [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]]
    assert per_layer == list(spans.PER_LAYER)
    assert sorted(w["name"] for w in BENCHMARK["workloads"]) == sorted(workloads.WORKLOADS)


NAMED = {
    "sweep": {"sweep_points_per_s", "sweep_crossing_share"},
    "oracles": {"oracle_pass_s"},
    "closed_forms": {"closed_form_calls_per_s", "trajectory_rows_per_s"},
    "cli": {"cli_simulate_s", "cli_crossing_s"},
}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(NAMED))
def test_tiny_run_yields_every_metric(workload, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
           "--seconds", "0.5", "--trace", str(trace), "--tiny"]  # fmt: skip
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170, check=False)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == {k: v["unit"] for k, v in result["metrics"].items()}
    if trace:
        return
    assert all(v["value"] > 0 for v in result["metrics"].values())
    record = json.loads((HERE / "out" / f"{workload}.json").read_text())
    assert NAMED[workload] | {"setup_s", "peak_rss_mb", "failed_ops_frac"} == set(record["named"])
    assert record["named"]["failed_ops_frac"][0] == 0.0
