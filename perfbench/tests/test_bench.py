"""Tests of the benchmark's own parts: span arithmetic, the recorder, the
correctness check, the external child script and the driver's refusal to
run without sources.

    python3 -m pytest perfbench/tests -q
"""

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pigroups
import pigroups.algorithms
import pigroups.cli
from check import Expectation, check_result, dimension_matrix
from pigroups import AlgorithmConfig, algorithm2, pi_basis, pipe_quantity_system, regime_box
from pigroups.external import ExternalExperiment
from pigroups.pipeflow import SYMBOLS, PipeFlowExperiment
from run import DESIGNS, pass_seed
from spans import CHILD_RUN, Recorder, Span, layer_metrics, self_times, summarize, unaccounted_time

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
CHILD = BENCH_DIR / "pipe_child.py"


def nested_trace():
    """cli.main > evaluate_experiment > CountingExperiment > evaluate_experiment > pipe."""
    return [
        Span("cli.main", 0.0, 10.0, None),
        Span("algorithms.evaluate_experiment", 1.0, 5.0, 0, rows=7),
        Span("algorithms.CountingExperiment.evaluate_batch", 1.5, 4.5, 1, rows=7),
        Span("algorithms.evaluate_experiment", 2.0, 4.0, 2, rows=7),
        Span("pipeflow.PipeFlowExperiment.evaluate_batch", 2.5, 3.5, 3, rows=7),
        Span("subspace.assemble_C", 6.0, 8.0, 0, rows=7),
        Span("subspace.assemble_C", 6.5, 7.0, 5),
    ]


def test_self_time_subtracts_children():
    assert self_times(nested_trace()) == pytest.approx([4.0, 1.0, 1.0, 1.0, 1.0, 1.5, 0.5])


def test_self_time_counts_overlapping_children_once():
    spans = [Span("a", 0.0, 10.0, None), Span("b", 1.0, 6.0, 0), Span("c", 4.0, 12.0, 0)]
    assert self_times(spans)[0] == pytest.approx(1.0)


def test_recursive_calls_are_not_counted_twice():
    summary = summarize(nested_trace())
    ee = summary["algorithms.evaluate_experiment"]
    assert ee["calls"] == 2
    assert ee["s"] == pytest.approx(4.0)
    assert ee["self_s"] == pytest.approx(2.0)
    assert ee["rows"] == 7
    assert summary["subspace.assemble_C"]["s"] == pytest.approx(2.0)


def test_self_times_partition_the_root():
    spans = nested_trace()
    assert unaccounted_time(spans) == pytest.approx(0.0, abs=1e-12)
    assert sum(self_times(spans)) == pytest.approx(10.0)


def test_layer_metrics_report_idle_layers_as_zero():
    metrics = layer_metrics(nested_trace())
    assert metrics["algorithms.evals_per_gradient"] == 1.0
    assert metrics["external.batches"] == 0.0
    assert metrics["cli.main.s"] == pytest.approx(10.0)


def test_recorder_wraps_names_imported_with_from(tmp_path):
    original = pigroups.surrogate.grad_surface
    recorder = Recorder()
    recorder.install(pigroups)
    try:
        assert pigroups.algorithms.grad_surface is not original
        with contextlib.redirect_stdout(io.StringIO()):
            code = pigroups.cli.main([
                "analyze", "--algorithm", "1", "--regime", "turbulent", "--quad", "tensor:3",
                "--design", "60", "--holdout", "0", "--out-dir", str(tmp_path)])
    finally:
        recorder.uninstall()
    assert code == 0
    assert pigroups.algorithms.grad_surface is original
    assert pigroups.surrogate.grad_surface is original
    summary = summarize(recorder.spans)
    assert summary["surrogate.grad_surface"]["rows"] == 3 ** 5
    assert summary["algorithms.CountingExperiment.evaluate_batch"]["rows"] == 60
    assert summary["cli.main"]["calls"] == 1
    assert unaccounted_time(recorder.spans) < 1e-9


def test_recorder_counts_child_batches_and_bytes(monkeypatch):
    monkeypatch.setenv("PYTHONPATH", _child_env()["PYTHONPATH"])
    original = subprocess.run
    external = ExternalExperiment(command=(sys.executable, str(CHILD)), symbols=SYMBOLS,
                                  batch_size=150, timeout=60)
    recorder = Recorder()
    recorder.install(pigroups)
    try:
        external.evaluate_batch(_points())
    finally:
        recorder.uninstall()
    assert subprocess.run is original
    child = summarize(recorder.spans)[CHILD_RUN]
    assert child["calls"] == 3  # 400 rows in batches of 150
    assert child["failed"] == 0
    assert child["bytes_out"] > 0 and child["bytes_in"] > 0
    assert summarize(recorder.spans)["external.ExternalExperiment.evaluate_batch"]["rows"] == 400


def test_pass_seeds_cycle_through_distinct_designs():
    seeds = [pass_seed(7, i) for i in range(DESIGNS)]
    # each surface command also uses seed + 1 for its hold-out design
    assert len(set(seeds) | {s + 1 for s in seeds}) == 2 * DESIGNS
    assert pass_seed(7, DESIGNS + 3) == seeds[3]
    assert not set(seeds) & {pass_seed(8, i) for i in range(DESIGNS)}


@pytest.fixture(scope="module")
def turbulent_run():
    system = pipe_quantity_system()
    basis = pi_basis(system)
    result = algorithm2(PipeFlowExperiment(), system, basis, regime_box("turbulent"),
                        AlgorithmConfig(quad="tensor:7"))
    N = 7 ** 5
    manifest = {"evaluations": 3 * N, "total_experiment_calls": 3 * N}
    return result, basis, manifest, Expectation("fd", "turbulent", 3 * N, 3 * N, N)


@pytest.fixture(scope="module")
def D():
    return dimension_matrix(json.loads((BENCH_DIR / "pipe_system.json").read_text()))


def test_check_accepts_the_reference_run(turbulent_run, D):
    result, _, manifest, expect = turbulent_run
    outcome = check_result(result.to_dict(), manifest, expect, D)
    assert outcome.ok, outcome.problems
    assert 0 < outcome.z_err < 0.02
    assert 0 < outcome.eig_err < 0.10


def test_check_rejects_a_perturbed_Z(turbulent_run, D):
    result, basis, manifest, expect = turbulent_run
    doc = result.to_dict()
    # a shift inside the null space keeps D z = 0, so only the table comparison can catch it
    doc["Z"] = (np.asarray(doc["Z"]) + 0.05 * basis.W[:, [1, 0]]).tolist()
    outcome = check_result(doc, manifest, expect, D)
    assert not outcome.ok
    assert any("|dz|" in p for p in outcome.problems)


def test_check_rejects_a_Z_that_is_not_dimensionless(turbulent_run, D):
    result, _, manifest, expect = turbulent_run
    doc = result.to_dict()
    doc["Z"] = (np.asarray(doc["Z"]) + 1e-6).tolist()
    outcome = check_result(doc, manifest, expect, D)
    assert any("|D z|" in p for p in outcome.problems)


def test_check_rejects_a_wrong_evaluation_count(turbulent_run, D):
    result, _, manifest, expect = turbulent_run
    outcome = check_result(result.to_dict(), dict(manifest, evaluations=manifest["evaluations"] - 1),
                           expect, D)
    assert any("evaluations" in p for p in outcome.problems)


def _child_env():
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))


def _points(n=400):
    box = regime_box("laminar")
    gen = np.random.default_rng(5)
    return box.lower + gen.random((n, 5)) * (box.upper - box.lower)


def test_child_output_round_trips_exactly():
    points = _points()
    text = ",".join(SYMBOLS) + "\n" + "".join(
        ",".join("%.17g" % v for v in row) + "\n" for row in points)
    proc = subprocess.run([sys.executable, str(CHILD)], input=text, capture_output=True,
                          text=True, env=_child_env(), timeout=60, check=True)
    values = np.array([float(line) for line in proc.stdout.splitlines()])
    np.testing.assert_array_equal(values, PipeFlowExperiment().evaluate_batch(points))


def test_child_reorders_columns_by_header():
    points = _points(5)
    order = [4, 2, 0, 3, 1]
    text = ",".join(SYMBOLS[i] for i in order) + "\n" + "".join(
        ",".join("%.17g" % v for v in row[order]) + "\n" for row in points)
    proc = subprocess.run([sys.executable, str(CHILD)], input=text, capture_output=True,
                          text=True, env=_child_env(), timeout=60, check=True)
    values = np.array([float(line) for line in proc.stdout.splitlines()])
    np.testing.assert_array_equal(values, PipeFlowExperiment().evaluate_batch(points))


def test_child_matches_in_process_model_through_the_external_layer(monkeypatch):
    monkeypatch.setenv("PYTHONPATH", _child_env()["PYTHONPATH"])
    points = _points()
    external = ExternalExperiment(command=(sys.executable, str(CHILD)), symbols=SYMBOLS,
                                  batch_size=150, timeout=60)
    np.testing.assert_array_equal(external.evaluate_batch(points),
                                  PipeFlowExperiment().evaluate_batch(points))


def test_run_refuses_without_sources(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".out", "__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "fd_regimes",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
