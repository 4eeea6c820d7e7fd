"""Command-line entry point.

Subcommands: `run` (one configuration), `grid` (hyperparameter sweep),
`ntk` (kernel diagnostics report as JSON), `ingest` (dataset manifest).
Defaults can come from a `key = value` config file whose keys are the long
flag names; flags always win.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import envs, ntk
from .data import write_manifest
from .harness import (ExperimentConfig, check_start, emit_grid_summary,
                      emit_outputs, grid_cells, run_grid, run_repeats,
                      summarize)
from .nn import TrainConfig, TrainingDiverged
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
            values[key.strip()] = value.strip()
    return values


def _add_run_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="key = value file of these flags' "
                        "values; flags override it")
    parser.add_argument("--dataset", default="synthetic-nonlinear",
                        help="synthetic-nonlinear, synthetic-linear, "
                        "mushroom-like, csv:<path>, or idx:<images>,<labels>")
    parser.add_argument("--schema", help="schema file for csv datasets")
    parser.add_argument("--algo", choices=ALGORITHMS, default="neural-ts")
    parser.add_argument("--T", type=int, dest="horizon", default=2000)
    parser.add_argument("--repeats", type=int, default=8)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--delay", type=int, default=0)
    parser.add_argument("--nu", type=float, default=0.1)
    parser.add_argument("--lambda", type=float, dest="reg", default=1.0)
    parser.add_argument("--eps", type=float, default=0.05)
    parser.add_argument("--width", type=int, default=100)
    parser.add_argument("--depth", type=int, default=2)
    # Training defaults are the acceptance config's SGD x10 at lr 1e-4: the
    # data term of the loss is a sum over the history, so the effective step
    # grows with the round, and GD x100 at lr 1e-3 diverged before round 110.
    parser.add_argument("--iters", type=int, default=10)
    parser.add_argument("--lr", type=float, default=1e-4)
    parser.add_argument("--train-mode", choices=("gd", "sgd"), default="sgd")
    parser.add_argument("--batch-size", type=int, default=64)
    parser.add_argument("--stop-train", type=int, default=1000)
    parser.add_argument("--posterior", choices=("diag", "full"), default="diag")
    parser.add_argument("--arms", type=int, default=4, help="synthetic streams only")
    parser.add_argument("--raw-dim", type=int, default=8,
                        help="synthetic streams only")
    parser.add_argument("--no-duplicate", action="store_true",
                        help="skip the duplicated-half transform")
    parser.add_argument("--serial", action="store_true",
                        help="run repeats in-process instead of a worker pool")
    parser.add_argument("--out", default="out")


def _config_defaults(parser: argparse.ArgumentParser, path: str) -> dict:
    """The (dest, value) that each of a config file's `key = value` lines
    gives, by key: --key=value, or for a switch --key when the value is true
    and nothing when false.  Each line is parsed alone, so that an error
    names the file and the key as written."""
    try:
        values = read_config_file(path)
    except (OSError, ValueError) as err:
        parser.error(f"--config: {err}")
    namespace, by_key = argparse.Namespace(), {}
    parser.exit_on_error = False    # raise ArgumentError instead of exiting
    for key, value in values.items():
        flag = "--" + key.replace("_", "-")
        action = parser._option_string_actions.get(flag)
        if action is not None and action.nargs == 0 and value in ("true", "false"):
            argv = [flag] if value == "true" else []
        else:
            argv = [f"{flag}={value}"]  # argparse rejects what is wrong
        try:
            _, extra = parser.parse_known_args(argv, namespace)
            if extra:
                raise argparse.ArgumentError(
                    None, f"unrecognized arguments: {' '.join(extra)}")
        except argparse.ArgumentError as err:
            parser.error(f"--config {path}: {key}: {err}")
        if argv:
            by_key[key] = (action.dest, getattr(namespace, action.dest))
    parser.exit_on_error = True
    return by_key


def build_experiment(args: argparse.Namespace) -> ExperimentConfig:
    train_cfg = TrainConfig(step_size=args.lr, iterations=args.iters,
                            reg=args.reg, mode=args.train_mode,
                            batch_size=args.batch_size)
    policy = PolicyConfig(
        algorithm=args.algo, nu=args.nu, reg=args.reg, train=train_cfg,
        eps=args.eps, width=args.width, depth=args.depth,
        stop_train=args.stop_train,
        posterior="full" if args.posterior == "full" else "diagonal",
    )
    return ExperimentConfig(
        dataset=args.dataset, policy=policy, horizon=args.horizon,
        repeats=args.repeats, base_seed=args.seed, delay=args.delay,
        duplicate=not args.no_duplicate, n_arms=args.arms,
        raw_dim=args.raw_dim, schema=args.schema,
    )


def _sweeps(algo: str) -> dict:
    """grid's reg/nu/eps sweeps (run_grid's arguments) for an algorithm."""
    if algo in ("neural-ts", "neural-ucb"):
        return {"regs": NEURAL_REG_GRID, "nus": NEURAL_NU_GRID}
    if algo in ("lin-ts", "lin-ucb", "kernel-ts", "kernel-ucb"):
        return {"nus": LINEAR_KERNEL_NU_GRID}
    if algo == "eps-greedy":
        return {"epss": EPS_GRID}
    return {}


def _rejection(args: argparse.Namespace) -> str | None:
    """Why run or grid cannot start with these values, or None.  Besides
    the config dataclasses' checks, the first episode's rounds and policy
    are built, for run's config or every grid cell, so that what only they
    check is reported before any episode runs."""
    try:
        experiment = build_experiment(args)
        cells = [experiment]
        if args.command == "grid":
            cells = grid_cells(experiment, **_sweeps(experiment.policy.algorithm))
        check_start(cells)
    except (ValueError, OSError) as err:
        return str(err)
    return None


def cmd_run(args: argparse.Namespace) -> int:
    config = args.experiment
    traces = run_repeats(config, parallel=not args.serial)
    stats = summarize(traces)
    emit_outputs(traces, stats, args.out)
    print(f"{config.policy.algorithm}: total regret "
          f"{stats['mean']:.1f} +/- {stats['stderr']:.1f} "
          f"over {stats['n_repeats']} repeats (T={config.horizon})")
    return 0


def cmd_grid(args: argparse.Namespace) -> int:
    config = args.experiment
    table, best = run_grid(config, **_sweeps(config.policy.algorithm),
                           parallel=not args.serial)
    emit_grid_summary(table, args.out)
    for row in table:
        print(f"lambda={row['reg']:<8g} nu={row['nu']:<8g} eps={row['eps']:<6g} "
              f"regret {row['mean']:.1f} +/- {row['stderr']:.1f}")
    print(f"best: lambda={best['reg']} nu={best['nu']} eps={best['eps']} "
          f"regret {best['mean']:.1f}")
    return 0


def cmd_ntk(args: argparse.Namespace) -> int:
    rng = np.random.default_rng(args.seed)
    if args.dataset:
        config = ExperimentConfig(dataset=args.dataset,
                                  policy=PolicyConfig("neural-ts"),
                                  horizon=args.n, raw_dim=args.raw_dim,
                                  schema=args.schema)
        from .harness import build_rounds
        rounds = build_rounds(config, args.seed)
        contexts = np.concatenate([r.contexts for r in rounds])
    else:
        raw = rng.standard_normal((args.n, args.raw_dim))
        raw = raw / np.linalg.norm(raw, axis=1, keepdims=True)
        from .data import duplicate_half
        contexts = duplicate_half(raw)
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
    try:
        dataset = envs.load_dataset(args.dataset, args.schema)
    except ValueError as err:
        print(err, file=sys.stderr)
        return 2
    manifest = write_manifest(dataset, args.out_file,
                              duplicate=not args.no_duplicate)
    print(json.dumps(manifest, indent=2))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="banditbench",
                                     description="contextual-bandit benchmark engine")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one configuration", allow_abbrev=False)
    _add_run_flags(p_run)
    p_run.set_defaults(func=cmd_run)

    p_grid = sub.add_parser("grid", help="hyperparameter sweep", allow_abbrev=False)
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
    run_parser = {"run": p_run, "grid": p_grid}.get(args.command)
    if run_parser is not None:
        flags, lines = args, {}
        if args.config:
            # the file's values become the defaults, so explicit flags win
            lines = _config_defaults(run_parser, args.config)
            run_parser.set_defaults(**dict(lines.values()))
            args = parser.parse_args(argv)
        message = _rejection(args)
        if message is not None:
            # name the file's line without which this rejection goes away
            for key, (dest, _) in lines.items():
                without = argparse.Namespace(**vars(args))
                setattr(without, dest, getattr(flags, dest))
                if _rejection(without) != message:
                    message = f"--config {args.config}: {key}: {message}"
                    break
            run_parser.error(message)
        args.experiment = build_experiment(args)
    try:
        return args.func(args)
    except (TrainingDiverged, np.linalg.LinAlgError) as err:
        print(f"banditbench: error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
