"""Experiment driver: seeded episodes, delayed-reward batching, grids, outputs.

An episode plays one seeded pass over a round stream: select, pay the
realized reward, and buffer the observation; buffered observations reach the
policy only at delay-batch boundaries (and at the final round).  A run's or
a grid's episodes fan out over one process pool capped by BANDITBENCH_THREADS;
with BANDITBENCH_THREADS=1, or a single episode, they play in-process.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import itertools
import json
import logging
import os
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import envs
from .data import RoundStream
from .nn import TrainingDiverged
from .policies import PolicyConfig, make_policy

log = logging.getLogger(__name__)

# a JSONL record's fields, in file order
FIELDS = ("t", "arm", "reward", "regret", "cum_regret", "sigma", "wall_us")


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: a round stream, a policy, and the run protocol."""

    dataset: str                    # synthetic-nonlinear | synthetic-linear |
                                    # mushroom-like | csv:<path> | idx:<imgs>,<labels>
    policy: PolicyConfig
    horizon: int
    repeats: int = 8
    base_seed: int = 0
    delay: int = 0                  # reward batch size; 0 = immediate feedback
    duplicate: bool = True
    n_arms: int = 4                 # synthetic streams only
    raw_dim: int = 8                # synthetic streams only
    noise_sd: float = 0.1
    schema: str | None = None       # csv datasets

    def __post_init__(self):
        if self.repeats < 1:
            raise ValueError("repeats must be >= 1")
        if self.delay < 0:
            raise ValueError("delay must be >= 0")
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")
        if self.n_arms < 1:
            raise ValueError("n_arms must be >= 1")
        if self.raw_dim < 1:
            raise ValueError("raw_dim must be >= 1")


@dataclass(eq=False)
class RegretTrace:
    """Per-round log of one episode, one typed column per field, plus its
    terminal regret.  A round's regret is cum_regret[t] - cum_regret[t-1]."""

    algorithm: str
    seed: int
    arm: np.ndarray = field(repr=False)             # int64
    reward: np.ndarray = field(repr=False)
    cum_regret: np.ndarray = field(repr=False)
    sigma: np.ndarray = field(repr=False)           # the chosen arm's
    wall_us: np.ndarray = field(repr=False)         # int64

    @property
    def total_regret(self) -> float:
        return float(self.cum_regret[-1]) if len(self.cum_regret) else 0.0

    def rows(self):
        """Yields each round as its JSONL record, fields in file order."""
        regret = np.diff(self.cum_regret, prepend=0.0)
        columns = (self.arm, self.reward, regret, self.cum_regret, self.sigma,
                   self.wall_us)
        for t, values in enumerate(zip(*(c.tolist() for c in columns)), start=1):
            yield dict(zip(FIELDS, (t, *values)))

    @functools.cached_property
    def rounds(self) -> list[dict]:
        """Every row, built on first access; later accesses return the same
        list."""
        return list(self.rows())


def build_rounds(config: ExperimentConfig, seed, warn=False) -> RoundStream:
    """The `horizon` rounds one episode seed plays, as a stream that builds
    each block when iteration reaches it; a dataset's size is checked
    against the horizon here.  With warn, a dataset's zero-feature rows,
    the count its manifest records, are logged as a warning."""
    name = config.dataset
    if name in envs.SYNTHETIC:
        return envs.synthetic_rounds(name, config.n_arms, config.raw_dim,
                                     config.horizon, seed, config.noise_sd,
                                     config.duplicate)
    dataset = envs.load_dataset(name, config.schema)
    if warn and dataset.n_zero_rows:
        log.warning("%d zero-feature rows replaced by the unit basis vector",
                    dataset.n_zero_rows)
    return envs.dataset_rounds(dataset, seed, config.horizon, config.duplicate)


def run_episode(config: ExperimentConfig, repeat_index: int) -> RegretTrace:
    """One fully seeded pass; deterministic given (config, repeat_index)."""
    seed = config.base_seed ^ repeat_index
    rounds = iter(build_rounds(config, seed))
    rnd = next(rounds)  # round 1, whose context width sizes the policy
    policy = make_policy(config.policy, rnd.contexts.shape[1], seed)

    T = config.horizon
    arms, walls = np.zeros(T, np.int64), np.zeros(T, np.int64)
    rewards, cums, sigmas = np.zeros(T), np.zeros(T), np.zeros(T)
    buffer: list[tuple[np.ndarray, float]] = []
    cum = 0.0
    batch = max(config.delay, 1)
    try:
        # an exhausted list iterator drops its list, so round 1, and with it
        # the first block, is freed once played
        for t, rnd in enumerate(itertools.chain(iter([rnd]), rounds), start=1):
            t_start = time.perf_counter_ns()
            decision = policy.select(rnd.contexts)
            reward = float(rnd.rewards[decision.arm])
            cum += float(np.max(rnd.expected_rewards)
                         - rnd.expected_rewards[decision.arm])
            buffer.append((rnd.contexts[decision.arm], reward))
            if t % batch == 0 or t == T:
                for ctx, r in buffer:
                    policy.observe(ctx, r)
                buffer.clear()
            arms[t - 1] = decision.arm
            rewards[t - 1] = reward
            cums[t - 1] = cum
            sigmas[t - 1] = decision.sigmas[decision.arm]
            walls[t - 1] = (time.perf_counter_ns() - t_start) // 1000
    except (TrainingDiverged, np.linalg.LinAlgError) as err:
        raise type(err)(f"{config.policy.algorithm} on {config.dataset}, "
                        f"round {t} of {T}, episode seed {seed}: {err}") from err
    return RegretTrace(config.policy.algorithm, seed, arms, rewards, cums,
                       sigmas, walls)


def pool_size() -> int:
    """Worker processes for repeats: the CPU count, capped by
    BANDITBENCH_THREADS when it is set.  Raises ValueError if that is not
    an integer."""
    cap = os.environ.get("BANDITBENCH_THREADS")
    n = os.cpu_count() or 1
    if cap:
        try:
            n = min(n, max(int(cap), 1))
        except ValueError:
            raise ValueError("BANDITBENCH_THREADS must be an integer, "
                             f"not {cap!r}") from None
    return n


def run_cells(cells: list[ExperimentConfig]):
    """Yields each cell's list of traces, in cell order.  Every repeat of
    every cell is an episode of one map, over one process pool of
    pool_size() workers, or in-process when there is one worker or one
    episode, so a cell's traces are ready once its own episodes are."""
    configs = [cell for cell in cells for _ in range(cell.repeats)]
    repeats = [i for cell in cells for i in range(cell.repeats)]
    with contextlib.ExitStack() as stack:
        traces = map(run_episode, configs, repeats)
        workers = min(pool_size(), len(configs))
        if workers > 1:
            # imported here: the pool's modules cost every process about 1.2 MiB
            from concurrent.futures import ProcessPoolExecutor
            pool = stack.enter_context(ProcessPoolExecutor(workers))
            traces = pool.map(run_episode, configs, repeats)
        for cell in cells:
            yield list(itertools.islice(traces, cell.repeats))


def run_repeats(config: ExperimentConfig) -> list[RegretTrace]:
    """All repeats of one configuration, as run_cells plays them."""
    [traces] = run_cells([config])
    return traces


def summarize(traces: list[RegretTrace]) -> dict:
    """Terminal-regret statistics and the per-round mean curve with its band."""
    finals = np.array([tr.total_regret for tr in traces])
    curves = np.stack([tr.cum_regret for tr in traces])
    n = len(traces)
    std = float(np.std(finals, ddof=1)) if n > 1 else 0.0
    band = curves.std(axis=0, ddof=1) / np.sqrt(n) if n > 1 else np.zeros(curves.shape[1])
    return {
        "n_repeats": n,
        "mean": float(finals.mean()),
        "std": std,
        "stderr": std / np.sqrt(n),
        "curve_mean": curves.mean(axis=0),
        "curve_stderr": band,
    }


def grid_cells(config: ExperimentConfig, regs=(), nus=(),
               epss=()) -> list[ExperimentConfig]:
    """config at each cell of the cartesian sweep over regs, nus and epss;
    an empty sweep keeps config's value.  A cell's reg is the posterior's
    and the training loss's, as --lambda sets both."""
    cells = []
    for reg, nu, eps in itertools.product(regs or (config.policy.reg,),
                                          nus or (config.policy.nu,),
                                          epss or (config.policy.eps,)):
        policy = replace(config.policy, reg=reg, nu=nu, eps=eps,
                         train=replace(config.policy.train, reg=reg))
        cells.append(replace(config, policy=policy))
    return cells


def run_grid(cells: list[ExperimentConfig]):
    """Runs every cell (as grid_cells builds them); returns (table, best_row).

    Every cell is reported; the best cell has the smallest mean terminal
    regret, ties broken toward smaller nu, then smaller reg, then smaller
    eps.
    """
    table = []
    for traces, cell in zip(run_cells(cells), cells):
        stats = summarize(traces)
        table.append({"reg": cell.policy.reg, "nu": cell.policy.nu,
                      "eps": cell.policy.eps,
                      "mean": stats["mean"], "stderr": stats["stderr"],
                      "std": stats["std"]})
    best = min(table, key=lambda row: (row["mean"], row["nu"], row["reg"], row["eps"]))
    return table, best


def emit_outputs(traces: list[RegretTrace], stats: dict, out_dir: str) -> None:
    """Write JSONL episode traces, a CSV summary, and plot-ready curve data."""
    os.makedirs(out_dir, exist_ok=True)
    algo = traces[0].algorithm
    for i, tr in enumerate(traces):
        path = os.path.join(out_dir, f"trace_{tr.algorithm}_{i}.jsonl")
        with open(path, "w") as fh:
            for row in tr.rows():
                fh.write(json.dumps(row) + "\n")

    with open(os.path.join(out_dir, "summary.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["algorithm", "n_repeats", "mean", "std", "stderr"])
        writer.writerow([algo, stats["n_repeats"], stats["mean"],
                         stats["std"], stats["stderr"]])

    with open(os.path.join(out_dir, f"plot_{algo}.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "mean_cum_regret", "stderr"])
        for t, (mu, se) in enumerate(zip(stats["curve_mean"],
                                         stats["curve_stderr"]), start=1):
            writer.writerow([t, mu, se])


def emit_grid_summary(table: list[dict], out_dir: str) -> None:
    """Write the grid's CSV summary, one row per cell."""
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "summary.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["reg", "nu", "eps", "mean", "std", "stderr"])
        for row in table:
            writer.writerow([row["reg"], row["nu"], row["eps"],
                             row["mean"], row["std"], row["stderr"]])
