"""Tests of the benchmark itself, on tiny versions of its workloads.

    python3 -m pytest perfbench/tests -q
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import stiefelprox.bench  # noqa: E402
import stiefelprox.metric  # noqa: E402
import stiefelprox.problems  # noqa: E402
import stiefelprox.solver  # noqa: E402
import stiefelprox.subproblem  # noqa: E402
from perfbench import refstep, run, workloads  # noqa: E402
from perfbench.tracing import Tracer  # noqa: E402
from perfbench.workloads import Job, SerialWorkload, SweepWorkload  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = {
    "setup_s", "solves_per_s", "iters_per_s", "solve_s_p50", "ms_per_outer_iter", "failed_frac", "peak_rss_mb",
    "ref_step_ms", "outer_iter_cost", "outer_iter_wall_cost",
}
LAYER_NAMES = {m["name"] for m in SPEC["per_layer"]}

TINY_SERIAL = SerialWorkload(
    "cm-small-r",
    lambda base, b: [Job("cm", 16, 2, 0.1, base + 2 * b + i, mode) for i in range(2) for mode in ("nls", "pg")],
)
TINY_SPCA = SerialWorkload("spca-large-r", lambda base, b: [Job("spca", 20, 3, 0.1, base + b)])
TINY_SWEEP = SweepWorkload("sweep", n_values=(16,), r=2, mu=0.1, seeds=2)


@pytest.fixture(scope="module")
def reference():
    spec = TINY_SWEEP.spec(0, 0)
    with workloads.bench_threads(1):
        (row,) = stiefelprox.bench.run_experiment(spec)
    return {"fingerprints": {}, "spca_F": {}, "spca_F_band": [-1e9, 1e9], "sweep_F": {row.label: row.F}}


def assert_originals_restored():
    assert stiefelprox.solver.ssn_solve is stiefelprox.subproblem.ssn_solve
    assert stiefelprox.solver.build_diag is stiefelprox.metric.build_diag
    assert stiefelprox.solver.metric_norm_sq is stiefelprox.metric.metric_norm_sq
    assert not hasattr(stiefelprox.solver.line_search, "__wrapped__")
    assert stiefelprox.bench.make_problem is stiefelprox.problems.make_problem
    assert stiefelprox.bench.solve is stiefelprox.solver.solve


@pytest.mark.parametrize("w", [TINY_SERIAL, TINY_SPCA, TINY_SWEEP], ids=lambda w: w.name)
def test_measure_reports_every_end_to_end_metric(w, reference):
    out = workloads.measure(w, 0, 0.0, reference)
    assert out["failed"] == 0, out["errors"]
    assert out["attempted"] >= 1
    assert set(out["metrics"]) == END_TO_END
    assert {m["name"] for m in SPEC["end_to_end"]} <= END_TO_END
    for name, (value, unit) in out["metrics"].items():
        assert unit and math.isfinite(value), name
        if name != "failed_frac":
            assert value > 0, name


@pytest.mark.parametrize("w", [TINY_SERIAL, TINY_SPCA, TINY_SWEEP], ids=lambda w: w.name)
def test_trace_reports_every_layer_metric_and_restores_the_package(w, reference):
    out = workloads.trace(w, 0, 0.0, reference)
    assert out["failed"] == 0, out["errors"]
    assert set(out["layers"]) == LAYER_NAMES
    assert_originals_restored()
    assert out["tracers"] and all(t.spans for t in out["tracers"])


@pytest.mark.parametrize("w", [TINY_SERIAL, TINY_SWEEP], ids=lambda w: w.name)
def test_layer_times_account_for_the_solve_wall_time(w, reference):
    _, tracer = w.traced_block(0, reference)
    m = workloads.layer_metrics(tracer)
    busy = (
        m["subproblem.ssn_s"] + m["metric.build_diag_s"] + m["metric.norm_sq_s"] + m["stiefel.retract_s"]
        + m["problems.eval_f_s"] + m["problems.eval_grad_f_s"] + m["solver.self_s"]
    )
    assert busy == pytest.approx(m["solver.solve_s"], rel=1e-9)
    assert m["solver.self_s"] > 0 and m["stiefel.retract_s"] > 0


def test_span_counts_agree_with_the_solver_records(reference):
    _, tracer = TINY_SERIAL.traced_block(0, reference)
    m = workloads.layer_metrics(tracer)
    records = [t for _, res in tracer.solves for t in res.trace]
    # one subproblem per pass of every accepted iteration, plus the final one
    assert m["subproblem.ssn_calls"] == sum(t.resolves for t in records) + m["solver.solves"]
    assert m["stiefel.retract_calls"] == m["solver.ls_trials"]
    # nls builds the quasi-Newton diagonal once per iteration after the
    # first, the final one included; pg (sigma = 0) never does
    nls = [res for _, res in tracer.solves if res.trace[0].sigma > 0]
    assert 0 < len(nls) < len(tracer.solves)
    assert m["metric.build_diag_calls"] == sum(len(res.trace) for res in nls)


def test_wrappers_are_removed_when_a_traced_call_raises():
    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed():
            assert stiefelprox.solver.ssn_solve is not stiefelprox.subproblem.ssn_solve
            raise RuntimeError("boom")
    assert_originals_restored()


def test_checks_count_wrong_answers_as_failures(reference):
    wrong = dict(reference, sweep_F={k: v + 1.0 for k, v in reference["sweep_F"].items()})
    block = TINY_SWEEP.run_block(TINY_SWEEP.spec(0, 0), wrong, workers=1)
    assert block.failed == block.attempted == 2 and block.errors

    inputs = TINY_SPCA.setup(0, 0)
    block = TINY_SPCA.run_block(inputs, dict(reference, spca_F_band=[1e8, 1e9]))
    assert block.failed == 1 and "band" in block.errors[0]

    assert workloads.check_cm_small_r([workloads.Solved(Job("cm", 64, 4, 0.1, 0), 0.1, F=1.5, sparsity=0.8)])


def test_block_checks_allow_a_rare_local_minimum():
    def cm(seed, F, mode="nls"):
        return workloads.Solved(Job("cm", 64, 4, 0.1, seed, mode), 0.1, F=F, sparsity=0.8)

    block = [cm(i, 1.425) for i in range(18)] + [cm(18, 1.535), cm(19, 1.717)]
    assert workloads.check_cm_small_r(block) == []
    assert workloads.check_cm_small_r([cm(i, 1.5) for i in range(20)])

    modes = [cm(i, 1.88, mode) for i in range(4) for mode in ("nls", "arpqn")]
    modes[1] = cm(0, 2.03, "arpqn")
    assert workloads.check_modes_agree(modes) == []
    modes[3] = cm(1, 2.03, "arpqn")
    assert len(workloads.check_modes_agree(modes)) == 2


def test_ref_clock_spends_its_share_of_the_work_time():
    clock = refstep.RefClock(16, 2, 0.1)
    taken = clock.follow(0.2)
    assert clock.seconds >= 0.02 and taken >= clock.seconds
    assert clock.steps >= 1 and clock.step_s > 0
    clock.follow(0.0)  # a zero-length unit still times one step
    assert clock.steps >= 2


def test_fingerprint_diff_names_each_change():
    old = {"outer_iters": 100, "newton_iters": 300, "ls_trials": 101, "F_mean": 1.5, "sparsity_mean": 0.8}
    assert workloads.fingerprint_diff(old, dict(old)) == []
    diffs = workloads.fingerprint_diff(old, dict(old, outer_iters=101, F_mean=1.5 + 2e-5))
    assert len(diffs) == 2 and diffs[0].startswith("outer_iters 100 -> 101 (+1")


@pytest.mark.parametrize("trace", [0, 1])
def test_cli_prints_named_metrics_and_a_json_last_line(trace, reference, monkeypatch, capsys, tmp_path):
    monkeypatch.setitem(workloads.WORKLOADS, "cm-small-r", TINY_SERIAL)
    monkeypatch.setattr(workloads, "load_reference", lambda: reference)
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    assert run.main(["--workload", "cm-small-r", "--seed", "0", "--seconds", "0", "--trace", str(trace)]) == 0
    lines = capsys.readouterr().out.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in expected]
    for m in expected:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    printed = {line.split()[0]: line.split()[2] for line in lines if line.startswith("  ")}
    for name in END_TO_END if not trace else LAYER_NAMES:
        assert name in printed
    assert any(line.startswith("env ") for line in lines)


def test_cli_fails_without_the_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cm-small-r", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
