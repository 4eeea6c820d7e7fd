"""Command-line entry point.

Subcommands: `run` (one configuration), `grid` (hyperparameter sweep),
`ntk` (kernel diagnostics report as JSON), `ingest` (dataset manifest).
Defaults can come from a key=value config file; flags always win.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import envs, ntk
from .data import ingest_csv, ingest_idx, parse_schema, write_manifest
from .harness import (ExperimentConfig, emit_outputs, run_grid, run_repeats,
                      summarize)
from .nn import TrainConfig
from .policies import ALGORITHMS, PolicyConfig

# default sweeps for the grid subcommand, per algorithm family
NEURAL_REG_GRID = (1.0, 0.1, 0.01, 0.001)
NEURAL_NU_GRID = (1e-1, 1e-2, 1e-3, 1e-4, 1e-5)
LINEAR_KERNEL_NU_GRID = (1.0, 0.1, 0.01)
EPS_GRID = (0.01, 0.05, 0.1)


def read_config_file(path: str) -> dict[str, str]:
    """Parse `key = value` lines; '#' starts a comment."""
    values = {}
    with open(path) as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise ValueError(f"{path}: malformed line {raw.rstrip()!r}")
            values[key.strip().replace("_", "-")] = value.strip()
    return values


def _add_run_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="key=value config file; flags override it")
    parser.add_argument("--dataset", help="synthetic-nonlinear, synthetic-linear, "
                        "mushroom-like, csv:<path>, or idx:<images>,<labels>")
    parser.add_argument("--schema", help="schema file for csv datasets")
    parser.add_argument("--algo", choices=ALGORITHMS)
    parser.add_argument("--T", type=int, dest="horizon")
    parser.add_argument("--repeats", type=int)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--delay", type=int)
    parser.add_argument("--nu", type=float)
    parser.add_argument("--lambda", type=float, dest="reg")
    parser.add_argument("--eps", type=float)
    parser.add_argument("--width", type=int)
    parser.add_argument("--depth", type=int)
    parser.add_argument("--iters", type=int)
    parser.add_argument("--lr", type=float)
    parser.add_argument("--train-mode", choices=("gd", "sgd"))
    parser.add_argument("--batch-size", type=int)
    parser.add_argument("--stop-train", type=int)
    parser.add_argument("--posterior", choices=("diag", "full"))
    parser.add_argument("--arms", type=int, help="synthetic streams only")
    parser.add_argument("--raw-dim", type=int, help="synthetic streams only")
    parser.add_argument("--no-duplicate", action="store_true",
                        help="skip the duplicated-half transform")
    parser.add_argument("--serial", action="store_true",
                        help="run repeats in-process instead of a worker pool")
    parser.add_argument("--out", default="out")


# Training defaults are the acceptance config's SGD x10 at lr 1e-4: the data
# term of the loss is a sum over the history, so the effective step grows with
# the round, and GD x100 at lr 1e-3 diverged before round 110.
_DEFAULTS = {
    "dataset": "synthetic-nonlinear", "algo": "neural-ts", "horizon": 2000,
    "repeats": 8, "seed": 0, "delay": 0, "nu": 0.1, "reg": 1.0, "eps": 0.05,
    "width": 100, "depth": 2, "iters": 10, "lr": 1e-4, "train_mode": "sgd",
    "batch_size": 64, "stop_train": 1000, "posterior": "diag", "arms": 4,
    "raw_dim": 8,
}

_CONFIG_TYPES = {
    "horizon": int, "repeats": int, "seed": int, "delay": int, "width": int,
    "depth": int, "iters": int, "batch-size": int, "stop-train": int,
    "arms": int, "raw-dim": int, "nu": float, "lambda": float, "eps": float,
    "lr": float,
}
_CONFIG_KEYMAP = {"t": "horizon", "lambda": "reg"}


def _resolve(args: argparse.Namespace) -> dict:
    values = dict(_DEFAULTS)
    values.update({"schema": None, "no_duplicate": False})
    if args.config:
        for key, raw in read_config_file(args.config).items():
            name = _CONFIG_KEYMAP.get(key, key.replace("-", "_"))
            caster = _CONFIG_TYPES.get(key, str)
            values[name] = caster(raw)
    for name, value in vars(args).items():
        if name in ("config", "out", "serial") or value is None or value is False:
            continue
        values[name] = value
    return values


def build_experiment(values: dict) -> ExperimentConfig:
    train_cfg = TrainConfig(step_size=values["lr"], iterations=values["iters"],
                            reg=values["reg"], mode=values["train_mode"],
                            batch_size=values["batch_size"])
    policy = PolicyConfig(
        algorithm=values["algo"], nu=values["nu"], reg=values["reg"],
        train=train_cfg, eps=values["eps"], width=values["width"],
        depth=values["depth"], stop_train=values["stop_train"],
        posterior="full" if values["posterior"] == "full" else "diagonal",
    )
    return ExperimentConfig(
        dataset=values["dataset"], policy=policy, horizon=values["horizon"],
        repeats=values["repeats"], base_seed=values["seed"],
        delay=values["delay"], duplicate=not values["no_duplicate"],
        n_arms=values["arms"], raw_dim=values["raw_dim"],
        schema=values["schema"],
    )


def cmd_run(args: argparse.Namespace) -> int:
    config = build_experiment(_resolve(args))
    traces = run_repeats(config, parallel=not args.serial)
    stats = summarize(traces)
    emit_outputs(traces, stats, args.out)
    print(f"{config.policy.algorithm}: total regret "
          f"{stats['mean']:.1f} +/- {stats['stderr']:.1f} "
          f"over {stats['n_repeats']} repeats (T={config.horizon})")
    return 0


def cmd_grid(args: argparse.Namespace) -> int:
    values = _resolve(args)
    config = build_experiment(values)
    algo = config.policy.algorithm
    if algo in ("neural-ts", "neural-ucb"):
        config = ExperimentConfig(**{**vars_of(config),
                                     "reg_grid": NEURAL_REG_GRID,
                                     "nu_grid": NEURAL_NU_GRID})
    elif algo in ("lin-ts", "lin-ucb", "kernel-ts", "kernel-ucb"):
        config = ExperimentConfig(**{**vars_of(config),
                                     "nu_grid": LINEAR_KERNEL_NU_GRID})
    elif algo == "eps-greedy":
        config = ExperimentConfig(**{**vars_of(config), "eps_grid": EPS_GRID})
    table, best = run_grid(config, parallel=not args.serial)
    traces = []  # traces are per-cell; emit only the table and best line
    emit_outputs(traces, {"n_repeats": config.repeats, "mean": best["mean"],
                          "std": best["std"], "stderr": best["stderr"],
                          "curve_mean": np.zeros(0), "curve_stderr": np.zeros(0)},
                 args.out, grid_table=table)
    for row in table:
        print(f"lambda={row['reg']:<8g} nu={row['nu']:<8g} eps={row['eps']:<6g} "
              f"regret {row['mean']:.1f} +/- {row['stderr']:.1f}")
    print(f"best: lambda={best['reg']} nu={best['nu']} eps={best['eps']} "
          f"regret {best['mean']:.1f}")
    return 0


def vars_of(config: ExperimentConfig) -> dict:
    from dataclasses import fields
    return {f.name: getattr(config, f.name) for f in fields(config)}


def cmd_ntk(args: argparse.Namespace) -> int:
    rng = np.random.default_rng(args.seed)
    if args.dataset:
        values = {**_DEFAULTS, "dataset": args.dataset, "schema": args.schema,
                  "no_duplicate": False, "horizon": args.n}
        config = build_experiment(values)
        from .harness import build_rounds
        rounds = build_rounds(config, args.seed)
        contexts = np.stack([r.contexts[k] for r in rounds
                             for k in range(r.contexts.shape[0])])
    else:
        raw = rng.standard_normal((args.n, args.raw_dim))
        raw = raw / np.linalg.norm(raw, axis=1, keepdims=True)
        from .data import duplicate_half
        contexts = np.stack([duplicate_half(x) for x in raw])
    if contexts.shape[0] > args.max_contexts:
        pick = rng.choice(contexts.shape[0], size=args.max_contexts, replace=False)
        contexts = contexts[np.sort(pick)]

    kernel = ntk.ntk_matrix(contexts, args.depth)
    report = ntk.effective_dimension(kernel.H, args.reg,
                                     args.T * args.K)
    evals = report.eigenvalues
    out = {
        "n_contexts": int(contexts.shape[0]),
        "depth": args.depth,
        "reg": args.reg,
        "eff_dim": report.eff_dim,
        "logdet": report.logdet,
        "min_eigenvalue": float(evals[-1]),
        "max_eigenvalue": float(evals[0]),
        "spectrum": evals.tolist(),
        "H": kernel.H.tolist(),
    }
    if args.rewards == "zero":
        h = np.zeros(contexts.shape[0])
    else:
        h = np.cos(3.0 * contexts @ contexts[0])
    try:
        B = ntk.theory_B(h, kernel.H)
        out["B"] = B
        out["nu_theory"] = ntk.theory_nu(B, args.R, report.eff_dim, args.T,
                                         args.K, args.reg, args.delta)
    except np.linalg.LinAlgError as err:
        out["B"] = None
        out["nu_theory"] = None
        out["note"] = str(err)
    out["width_condition"] = ntk.check_width_condition(
        args.width, args.T, args.K, args.depth, args.reg,
        max(float(evals[-1]), 1e-12), args.delta)
    text = json.dumps(out, indent=2)
    if args.out_file:
        with open(args.out_file, "w") as fh:
            fh.write(text)
    else:
        print(text)
    return 0


def cmd_ingest(args: argparse.Namespace) -> int:
    if args.dataset.startswith("csv:"):
        if not args.schema:
            print("csv datasets need --schema", file=sys.stderr)
            return 2
        types, label = parse_schema(args.schema)
        dataset = ingest_csv(args.dataset[4:], label, types)
        source = args.dataset[4:]
    elif args.dataset.startswith("idx:"):
        images, _, labels = args.dataset[4:].partition(",")
        dataset = ingest_idx(images, labels)
        source = images
    elif args.dataset == "mushroom-like":
        dataset = envs.mushroom_like()
        source = None
    else:
        print(f"unknown dataset {args.dataset!r}", file=sys.stderr)
        return 2
    manifest = write_manifest(dataset, args.out_file, source,
                              duplicate=not args.no_duplicate)
    print(json.dumps(manifest, indent=2))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="banditbench",
                                     description="contextual-bandit benchmark engine")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one configuration")
    _add_run_flags(p_run)
    p_run.set_defaults(func=cmd_run)

    p_grid = sub.add_parser("grid", help="hyperparameter sweep")
    _add_run_flags(p_grid)
    p_grid.set_defaults(func=cmd_grid)

    p_ntk = sub.add_parser("ntk", help="kernel diagnostics report (JSON)")
    p_ntk.add_argument("--dataset", help="optional dataset to draw contexts from")
    p_ntk.add_argument("--schema")
    p_ntk.add_argument("--n", type=int, default=50, help="number of contexts")
    p_ntk.add_argument("--raw-dim", type=int, default=8)
    p_ntk.add_argument("--depth", type=int, default=2)
    p_ntk.add_argument("--reg", "--lambda", type=float, default=1.0, dest="reg")
    p_ntk.add_argument("--T", type=int, default=2000)
    p_ntk.add_argument("--K", type=int, default=4)
    p_ntk.add_argument("--R", type=float, default=0.1)
    p_ntk.add_argument("--delta", type=float, default=0.1)
    p_ntk.add_argument("--width", type=int, default=100)
    p_ntk.add_argument("--seed", type=int, default=0)
    p_ntk.add_argument("--rewards", choices=("cosine", "zero"), default="cosine")
    p_ntk.add_argument("--max-contexts", type=int, default=2000)
    p_ntk.add_argument("--out-file")
    p_ntk.set_defaults(func=cmd_ntk)

    p_ing = sub.add_parser("ingest", help="build a dataset manifest")
    p_ing.add_argument("--dataset", required=True)
    p_ing.add_argument("--schema")
    p_ing.add_argument("--no-duplicate", action="store_true")
    p_ing.add_argument("--out-file", default="manifest.json")
    p_ing.set_defaults(func=cmd_ingest)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
