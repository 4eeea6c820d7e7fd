import json
import os
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from helpers import flat
from regret_equivalence import assert_regret_equivalent

from banditbench import data, envs, harness
from banditbench.data import BLOCK_ROWS, duplicate_half
from banditbench.harness import (ExperimentConfig, RegretTrace, build_rounds,
                                 emit_grid_summary, emit_outputs, grid_cells,
                                 read_traces, run_cells, run_episode, run_grid,
                                 run_repeats, summarize)
from banditbench.nn import TrainConfig
from banditbench.policies import Policy, Decision, PolicyConfig

# episodes play in-process unless a test sets BANDITBENCH_THREADS=2
pytestmark = pytest.mark.usefixtures("in_process")

FAST_TRAIN = TrainConfig(step_size=0.001, iterations=3, mode="gd")


def fast_config(algorithm="neural-ts", **kw):
    policy = PolicyConfig(algorithm=algorithm, nu=0.1, reg=1.0, train=FAST_TRAIN,
                          posterior="diagonal", width=4, depth=2, stop_train=1000)
    defaults = dict(dataset="synthetic-nonlinear", policy=policy, horizon=10,
                    repeats=2, base_seed=0, n_arms=3, raw_dim=4)
    defaults.update(kw)
    return ExperimentConfig(**defaults)


class SpyPolicy(Policy):
    """Test double recording the rounds at which observe is invoked."""

    def __init__(self):
        self.select_count = 0
        self.observe_rounds = []

    def select(self, contexts):
        self.select_count += 1
        return Decision(0, np.zeros(len(contexts)), np.zeros(len(contexts)),
                        np.zeros(len(contexts)))

    def observe(self, context, reward):
        self.observe_rounds.append(self.select_count)


def _synthetic_case_id(dataset, seed, horizon, n_arms, raw_dim):
    """`seed-dataset`, plus the horizon and shape when they are not the
    first case's (T=30, K=4, d=5)."""
    case = f"{seed}-{dataset}"
    if (horizon, n_arms, raw_dim) != (30, 4, 5):
        case += f"-T{horizon}-K{n_arms}-d{raw_dim}"
    return case


class TestRounds:
    def test_synthetic_deterministic(self):
        config = fast_config()
        a = build_rounds(config, 5)
        b = build_rounds(config, 5)
        for ra, rb in zip(a, b):
            np.testing.assert_array_equal(ra.contexts, rb.contexts)
            np.testing.assert_array_equal(ra.rewards, rb.rewards)

    def test_mushroom_like_shape(self):
        config = fast_config(dataset="mushroom-like", horizon=50)
        rounds = build_rounds(config, 0)
        assert len(rounds) == 50
        assert rounds[0].contexts.shape[0] == 2

    def test_synthetic_no_duplicate_plays_the_raw_contexts(self):
        config = fast_config(horizon=4, n_arms=4, raw_dim=8, duplicate=False)
        rounds = build_rounds(config, 0)
        wide = build_rounds(replace(config, duplicate=True), 0)
        assert [r.contexts.shape for r in rounds] == [(4, 8)] * 4
        for narrow, w in zip(rounds, wide):
            np.testing.assert_array_equal(duplicate_half(narrow.contexts),
                                          w.contexts)
            np.testing.assert_array_equal(narrow.rewards, w.rewards)

    def test_horizon_exceeding_dataset(self):
        config = fast_config(dataset="mushroom-like", horizon=9000)
        with pytest.raises(ValueError):
            build_rounds(config, 0)

    @pytest.mark.parametrize("field,value", [("n_arms", 0), ("n_arms", -2),
                                             ("raw_dim", 0)])
    def test_rejects_an_empty_stream_shape(self, field, value):
        # before round 1, not as numpy's or duplicate_half's error within it
        with pytest.raises(ValueError, match=f"{field} must be >= 1"):
            fast_config(**{field: value})

    @pytest.mark.parametrize("dataset", ["mushroom-like", "csv",
                                         "synthetic-nonlinear"])
    def test_builds_only_the_rounds_played(self, tmp_path, monkeypatch,
                                           dataset):
        if dataset == "csv":
            rng = np.random.default_rng(1)
            table = tmp_path / "t.csv"
            table.write_text("a,b,kind\n" + "".join(
                f"{a:.3f},{b:.3f},{'xy'[i % 2]}\n"
                for i, (a, b) in enumerate(rng.standard_normal((60, 2)))))
            schema = tmp_path / "schema.txt"
            schema.write_text("a: numeric\nb: numeric\nlabel: kind\n")
            config = fast_config(dataset=f"csv:{table}", schema=str(schema),
                                 horizon=25)
        else:
            config = fast_config(dataset=dataset, horizon=BLOCK_ROWS + 44)
        built = []

        class CountedRound(data.BanditRound):
            def __init__(self, *args):
                super().__init__(*args)
                built.append(self)

        # rounds are constructed through each module's BanditRound name,
        # which is what the benchmark's tracer counts
        for module in (data, envs):
            monkeypatch.setattr(module, "BanditRound", CountedRound)
        rounds = build_rounds(config, 3)
        assert len(built) == len(rounds) == config.horizon

    @pytest.mark.parametrize("dataset,seed,horizon,n_arms,raw_dim", [
        pytest.param(dataset, seed, horizon, n_arms, raw_dim,
                     id=_synthetic_case_id(dataset, seed, horizon, n_arms,
                                           raw_dim))
        for n_arms, raw_dim in [(4, 5), (2, 5), (10, 16)]
        for horizon in [1, 30, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1,
                        2000]
        for seed in [0, 7, 2**40 + 3]
        for dataset in ["synthetic-nonlinear", "synthetic-linear"]])
    def test_synthetic_streams_match_reference(self, dataset, seed, horizon,
                                               n_arms, raw_dim):
        config = fast_config(dataset=dataset, horizon=horizon, n_arms=n_arms,
                             raw_dim=raw_dim)
        got = build_rounds(config, seed)
        want = REFERENCE_SYNTHETIC[dataset](n_arms, raw_dim, horizon, seed,
                                            config.noise_sd)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            for name in ("contexts", "expected_rewards", "rewards"):
                a, b = getattr(g, name), getattr(w, name)
                assert a.shape == b.shape and a.tobytes() == b.tobytes()

    def test_synthetic_build_peaks_near_what_it_holds(self):
        # a block's temporaries, not a whole-horizon array, on top of the
        # rounds the stream keeps
        config = fast_config(horizon=20_000, n_arms=4, raw_dim=8)
        tracemalloc.start()
        try:
            rounds = build_rounds(config, 1)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(rounds) == 20_000
        assert peak - held <= 2**20


def _unit(v):
    return v / np.linalg.norm(v)


def reference_nonlinear(n_arms, raw_dim, horizon, seed, noise_sd):
    a = _unit(np.random.default_rng(0x5EED).standard_normal(raw_dim))
    rng = np.random.default_rng(seed)
    rounds = []
    for _ in range(horizon):
        raw = rng.standard_normal((n_arms, raw_dim))
        raw = raw / np.linalg.norm(raw, axis=1, keepdims=True)
        expected = np.cos(3.0 * raw @ a)
        rewards = expected + noise_sd * rng.standard_normal(n_arms)
        contexts = np.stack([duplicate_half(x) for x in raw])
        rounds.append(data.BanditRound(contexts, expected, rewards))
    return rounds


def reference_linear(n_arms, raw_dim, horizon, seed, noise_sd):
    w = _unit(np.random.default_rng(0x5EED + 1).standard_normal(raw_dim))
    rng = np.random.default_rng(seed)
    rounds = []
    for _ in range(horizon):
        raw = rng.standard_normal((n_arms, raw_dim))
        raw = raw / np.linalg.norm(raw, axis=1, keepdims=True)
        expected = raw @ w
        rewards = expected + noise_sd * rng.standard_normal(n_arms)
        contexts = np.stack([duplicate_half(x) for x in raw])
        rounds.append(data.BanditRound(contexts, expected, rewards))
    return rounds


# The synthetic streams as two separate generators: the reference that the
# shared generator must match bit for bit.
REFERENCE_SYNTHETIC = {"synthetic-nonlinear": reference_nonlinear,
                       "synthetic-linear": reference_linear}


class TestDelayProtocol:
    def test_flush_positions(self, monkeypatch):
        spy = SpyPolicy()
        monkeypatch.setattr(harness, "make_policy", lambda *a, **k: spy)
        run_episode(fast_config(delay=3, horizon=10), 0)
        # flushes at t = 3, 6, 9 plus the terminal flush at t = T = 10
        assert spy.observe_rounds == [3, 3, 3, 6, 6, 6, 9, 9, 9, 10]

    def test_delay_zero_equals_delay_one(self):
        t0 = run_episode(fast_config(delay=0), 0)
        t1 = run_episode(fast_config(delay=1), 0)
        for a, b in zip(t0.rounds, t1.rounds):
            assert {k: v for k, v in a.items() if k != "wall_us"} == \
                {k: v for k, v in b.items() if k != "wall_us"}

    def test_frozen_between_flushes(self, monkeypatch):
        from banditbench.policies import make_policy as real_make_policy
        states = []

        class Wrapper(Policy):
            def __init__(self, inner):
                self.inner = inner

            def select(self, contexts):
                states.append((flat(self.inner.net.theta).tobytes(),
                               self.inner.design.logdet))
                return self.inner.select(contexts)

            def observe(self, context, reward):
                self.inner.observe(context, reward)

        monkeypatch.setattr(
            harness, "make_policy",
            lambda cfg, dim, seed: Wrapper(real_make_policy(cfg, dim, seed)))
        run_episode(fast_config(algorithm="neural-ucb", delay=4, horizon=12), 0)
        # state at select time changes only at flush boundaries: rounds
        # 1-5 share the initial state (flush after round 4's select), then 6-9, ...
        assert len(states) == 12
        for t in range(1, 12):
            boundary_passed = (t % 4 == 0)
            if boundary_passed:
                assert states[t] != states[t - 1]
            else:
                assert states[t] == states[t - 1]


class TestEpisode:
    def test_uniform_regret_binomial(self):
        config = fast_config(algorithm="uniform", dataset="mushroom-like",
                             horizon=2000, repeats=1)
        trace = run_episode(config, 0)
        # balanced 2-class stream: expected regret T/2
        assert abs(trace.total_regret - 1000) < 3 * np.sqrt(2000 * 0.25) + 30

    def test_oracle_policy_zero_regret(self, monkeypatch):
        config = fast_config(dataset="mushroom-like", horizon=30)
        rounds = build_rounds(config, config.base_seed ^ 0)

        class Oracle(Policy):
            def __init__(self):
                self.t = 0

            def select(self, contexts):
                arm = int(np.argmax(rounds[self.t].expected_rewards))
                self.t += 1
                K = len(contexts)
                return Decision(arm, np.zeros(K), np.zeros(K), np.zeros(K))

            def observe(self, context, reward):
                pass

        monkeypatch.setattr(harness, "make_policy", lambda *a, **k: Oracle())
        assert run_episode(config, 0).total_regret == 0.0

    def test_regret_equals_mistake_count(self):
        config = fast_config(dataset="mushroom-like", horizon=60,
                             algorithm="eps-greedy")
        trace = run_episode(config, 0)
        mistakes = sum(1 for r in trace.rounds if r["reward"] == 0.0)
        assert trace.total_regret == mistakes

    def test_cum_regret_nondecreasing(self):
        trace = run_episode(fast_config(horizon=20), 1)
        cum = trace.cum_regret
        assert np.all(np.diff(cum) >= -1e-12)

    def test_deterministic_repeat(self):
        a = run_episode(fast_config(), 1)
        b = run_episode(fast_config(), 1)
        for ra, rb in zip(a.rounds, b.rounds):
            assert {k: v for k, v in ra.items() if k != "wall_us"} == \
                {k: v for k, v in rb.items() if k != "wall_us"}


class TestSummarize:
    @staticmethod
    def _trace(total, T=4):
        rounds = [{"t": t, "arm": 0, "reward": 0.0,
                   "regret": 0.0, "cum_regret": total * t / T, "sigma": 0.0,
                   "wall_us": 1} for t in range(1, T + 1)]
        return RegretTrace("x", 0, rounds)

    def test_single_trace_zero_std(self):
        stats = summarize([self._trace(100)])
        assert stats["std"] == 0.0
        assert stats["mean"] == 100.0

    def test_two_traces(self):
        stats = summarize([self._trace(100), self._trace(300)])
        assert stats["mean"] == pytest.approx(200.0)
        assert stats["std"] == pytest.approx(141.42, abs=0.01)
        assert stats["stderr"] == pytest.approx(stats["std"] / np.sqrt(2))

    def test_band_is_stderr_per_round(self):
        traces = [self._trace(100), self._trace(300)]
        stats = summarize(traces)
        curves = np.stack([t.cum_regret for t in traces])
        np.testing.assert_allclose(stats["curve_stderr"],
                                   curves.std(axis=0, ddof=1) / np.sqrt(2))


class TestGrid:
    def test_single_cell_equals_repeats(self):
        config = fast_config(algorithm="uniform", repeats=2)
        table, best = run_grid([config])
        assert len(table) == 1
        direct = summarize(run_repeats(config))
        assert best["mean"] == pytest.approx(direct["mean"])

    def test_grid_counting(self):
        config = fast_config(algorithm="uniform", repeats=2)
        cells = grid_cells(config, regs=(1.0, 0.1), nus=(0.1, 0.01))
        table, _ = run_grid(cells)
        assert len(table) == 4

    def test_tie_break_smaller_nu_then_reg(self):
        # uniform ignores nu/reg so every cell ties; the winner must be the
        # smallest nu, then the smallest reg
        config = fast_config(algorithm="uniform", repeats=1)
        _, best = run_grid(grid_cells(config, regs=(1.0, 0.1), nus=(0.1, 0.01)))
        assert best["nu"] == 0.01
        assert best["reg"] == 0.1


class TestCells:
    """run_cells plays every cell's repeats as one map: one pool for a whole
    grid, and each cell's traces handed over as soon as they exist."""

    @staticmethod
    def counting_pools(monkeypatch, threads):
        """The list of the process pools built from here on, with
        BANDITBENCH_THREADS set to threads on a two-CPU host."""
        import concurrent.futures

        made = []

        class CountingPool(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                made.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            CountingPool)
        monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)
        monkeypatch.setenv("BANDITBENCH_THREADS", threads)
        return made

    def test_one_pool_for_the_whole_grid(self, monkeypatch):
        made = self.counting_pools(monkeypatch, "2")
        cells = grid_cells(fast_config(algorithm="uniform", repeats=2),
                           nus=(0.1, 0.01, 0.001))
        table, _ = run_grid(cells)
        assert len(table) == 3
        assert len(made) == 1

    @pytest.mark.parametrize("threads,pools", [("1", 0), ("2", 1)])
    def test_thread_cap_decides_the_pool(self, monkeypatch, threads, pools):
        made = self.counting_pools(monkeypatch, threads)
        traces = run_repeats(fast_config(algorithm="uniform", repeats=3))
        assert [tr.seed for tr in traces] == [0, 1, 2]
        assert len(made) == pools

    def test_pooled_single_repeat_grid_equals_serial(self, monkeypatch):
        made = self.counting_pools(monkeypatch, "1")
        cells = grid_cells(fast_config(repeats=1, horizon=15),
                           regs=(1.0, 0.1), nus=(0.1, 0.01))
        serial, _ = run_grid(cells)
        assert not made
        monkeypatch.setenv("BANDITBENCH_THREADS", "2")
        pooled, _ = run_grid(cells)
        assert len(made) == 1
        assert pooled == serial

    def test_yields_a_cell_after_its_own_repeats(self, monkeypatch):
        played = []
        real = harness.run_episode
        monkeypatch.setattr(harness, "run_episode",
                            lambda config, i: played.append((config, i))
                            or real(config, i))
        cells = [fast_config(algorithm="uniform", repeats=3, base_seed=s)
                 for s in (0, 1)]
        cell_traces = run_cells(cells)
        first = next(cell_traces)
        assert played == [(cells[0], 0), (cells[0], 1), (cells[0], 2)]
        assert [tr.seed for tr in first] == [0, 1, 2]
        assert [tr.seed for tr in next(cell_traces)] == [1, 0, 3]
        assert len(played) == 6


class TestOutputs:
    def test_jsonl_roundtrip(self, tmp_path):
        config = fast_config(algorithm="uniform", repeats=2, horizon=15)
        traces = run_repeats(config)
        emit_outputs(traces, summarize(traces), str(tmp_path))
        back = read_traces(str(tmp_path), "uniform")
        assert len(back) == 2
        for a, b in zip(traces, back):
            assert a.rounds == b.rounds

    def test_plot_csv_rows(self, tmp_path):
        config = fast_config(algorithm="uniform", repeats=2, horizon=15)
        traces = run_repeats(config)
        emit_outputs(traces, summarize(traces), str(tmp_path))
        lines = (tmp_path / "plot_uniform.csv").read_text().strip().splitlines()
        assert len(lines) == 16  # header + T rows

    def test_summary_rows_match_grid_cells(self, tmp_path):
        config = fast_config(algorithm="uniform", repeats=1)
        table, _ = run_grid(grid_cells(config, regs=(1.0, 0.1), nus=(0.1,)))
        emit_grid_summary(table, str(tmp_path))
        lines = (tmp_path / "summary.csv").read_text().strip().splitlines()
        assert len(lines) == 3  # header + 2 cells
        assert os.listdir(tmp_path) == ["summary.csv"]

    def test_byte_identical_traces_modulo_wallclock(self, tmp_path):
        config = fast_config(horizon=12, repeats=1)
        for sub in ("a", "b"):
            traces = run_repeats(config)
            emit_outputs(traces, summarize(traces), str(tmp_path / sub))

        def strip(path):
            out = []
            with open(path) as fh:
                for line in fh:
                    row = json.loads(line)
                    row.pop("wall_us")
                    out.append(json.dumps(row, sort_keys=True))
            return "\n".join(out)

        name = "trace_neural-ts_0.jsonl"
        assert strip(tmp_path / "a" / name) == strip(tmp_path / "b" / name)

    def test_full_posterior_traces_match_seed_algorithm(self, monkeypatch):
        # p = 72 and 60 rounds: the design matrix leaves the dual form at
        # round 44
        from banditbench import policies
        from test_posterior import SeedDesignMatrix

        config = fast_config(horizon=60, repeats=1)
        config = replace(config, policy=replace(config.policy, posterior="full",
                                                width=8))
        real = run_episode(config, 0).rounds
        monkeypatch.setattr(policies, "DesignMatrix", SeedDesignMatrix)
        assert isinstance(policies.make_policy(config.policy, 8, 0).design,
                          SeedDesignMatrix)
        seed = run_episode(config, 0).rounds
        for key in ("arm", "reward", "regret", "cum_regret"):
            assert [r[key] for r in real] == [r[key] for r in seed]
        np.testing.assert_allclose([r["sigma"] for r in real],
                                   [r["sigma"] for r in seed], rtol=1e-9)
        assert any(r["sigma"] > 0 for r in real)

    def test_full_posterior_regret_matches_seed_algorithm(self, monkeypatch):
        # 16 fixed episode seeds of a small full-posterior NeuralTS, once
        # with the dual-then-primal design matrix and once with the seed
        # algorithm's: mean terminal regret within one pooled stderr
        from banditbench import policies
        from test_posterior import SeedDesignMatrix

        config = fast_config(horizon=60, repeats=1)
        config = replace(config, policy=replace(config.policy, posterior="full",
                                                width=8))
        seeds = range(16)

        def episodes():
            return [run_episode(replace(config, base_seed=s), 0) for s in seeds]

        real = episodes()
        monkeypatch.setattr(policies, "DesignMatrix", SeedDesignMatrix)
        assert_regret_equivalent(real, episodes())


class TestPool:
    def test_thread_cap_env(self, monkeypatch):
        monkeypatch.setenv("BANDITBENCH_THREADS", "1")
        assert harness.pool_size() == 1

    def test_thread_cap_must_be_an_integer(self, monkeypatch):
        monkeypatch.setenv("BANDITBENCH_THREADS", "two")
        with pytest.raises(ValueError, match="BANDITBENCH_THREADS must be an "
                           "integer, not 'two'"):
            harness.pool_size()

    def test_parallel_matches_serial(self, monkeypatch):
        config = fast_config(algorithm="uniform", repeats=2, horizon=20)
        serial = [t.total_regret for t in run_repeats(config)]
        monkeypatch.setenv("BANDITBENCH_THREADS", "2")
        parallel = [t.total_regret for t in run_repeats(config)]
        assert serial == parallel

    def test_import_does_not_load_the_pool(self):
        # the pool's modules cost every process about 1.2 MiB of RSS, and
        # only parallel repeats need them
        import subprocess
        import sys

        code = ("import sys, banditbench; "
                "print('concurrent.futures.process' in sys.modules)")
        src = os.path.dirname(os.path.dirname(harness.__file__))
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, check=True,
                             env={**os.environ, "PYTHONPATH": src})
        assert out.stdout.strip() == "False"

