"""Tests of the benchmark's own checks, and of each workload at a tiny horizon."""

import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

import checks
import run
import spans
import workloads
from banditbench import harness
from banditbench.posterior import DesignMatrix


@pytest.mark.parametrize("workload, index", [("synthetic-neural", 0),
                                             ("mushroom-baselines", 3)])
def test_flipped_arm_fails_regret_accounting(workload, index):
    episode = workloads.WORKLOADS[workload][index]
    config = workloads.seeded(episode, 5, index, horizon=30)
    trace = harness.run_episode(config, 0)
    expected = checks.expected_rewards(config, trace.seed)
    indicator = workload == "mushroom-baselines"
    assert checks.regret_accounting(trace.rounds, expected, indicator) == []

    # flip round 10 to an arm whose expected reward differs from the chosen one
    row = trace.rounds[9]
    row["arm"] = int(np.argmax(expected[9] != expected[9, row["arm"]]))
    assert checks.regret_accounting(trace.rounds, expected, indicator)


@pytest.mark.parametrize("mode", ["full", "diagonal"])
def test_perturbed_feature_fails_posterior_solve(mode):
    rng = np.random.default_rng(3)
    with checks.PosteriorRecorder() as recorder:
        design = DesignMatrix(40, 1.0, 8, mode)
        for g in rng.standard_normal((30, 40)):
            design.update(g)
    assert recorder.design is design
    features = np.array(recorder.features)
    assert checks.posterior_solve(design, features) == []

    features[7] *= 1.5
    assert checks.posterior_solve(design, features)


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_workload_completes_at_tiny_horizon(workload):
    tracer = spans.Tracer().install()
    try:
        results = run.measure(workload, seed=2, seconds=0, tracer=tracer,
                              horizon=8, min_cycles=1)
    finally:
        tracer.restore()
    assert [r.error for r in results] == [None] * len(results)
    assert checks.check_run(results, judge_learning=False)[0] == []
    metrics, absent = spans.layer_metrics(tracer, results)
    assert list(metrics) == [name for name, _, _ in spans.PER_LAYER]
    assert tracer.absent == []
    assert metrics["traced.rounds_per_s"][0] > 0


def test_workload_seeds_never_share_episodes():
    seeds = {workloads.episode_seed(s, i) for s in range(50) for i in range(50)}
    assert len(seeds) == 50 * 50


def test_benchmark_json_names_the_benchmark_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == \
        ["setup_s", "rounds_per_s", "peak_rss_mb"]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        spans.PER_LAYER


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    done = subprocess.run(
        [sys.executable, str(tmp_path / "bench" / "run.py"), "--workload",
         "synthetic-neural", "--seed", "0", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
