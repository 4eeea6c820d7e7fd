"""Command-line entry point.

Subcommands: `run` (one configuration), `grid` (hyperparameter sweep),
`ntk` (kernel diagnostics report as JSON, over the contexts of the stream
that run plays), `ingest` (dataset manifest).  Each option is declared once,
in the flag group of the subcommands that take it, with the default of the
config field it sets where that has one.  run's and grid's defaults can
come from a `key = value` config file whose keys are the long flag names;
flags always win.  A flag value that a subcommand's inputs cannot be built
from stops it with exit status 2 and the reason.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import envs, ntk
from .data import write_manifest
from .harness import (ExperimentConfig, build_rounds, emit_grid_summary,
                      emit_outputs, grid_cells, pool_size, run_grid,
                      run_repeats, summarize)
from .nn import TrainConfig, TrainingDiverged
from .policies import ALGORITHMS, PolicyConfig, make_policy

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


def _add_dataset_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--dataset", default="synthetic-nonlinear",
                        help="synthetic-nonlinear, synthetic-linear, "
                        "mushroom-like, csv:<path>, or idx:<images>,<labels>")
    parser.add_argument("--schema", help="schema file for csv datasets")
    parser.add_argument("--no-duplicate", action="store_true",
                        help="skip the duplicated-half transform")


def _add_stream_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--T", type=int, dest="horizon", default=2000)
    parser.add_argument("--seed", type=int, default=ExperimentConfig.base_seed)
    parser.add_argument("--arms", type=int, default=ExperimentConfig.n_arms,
                        help="synthetic streams only")
    parser.add_argument("--raw-dim", type=int, default=ExperimentConfig.raw_dim,
                        help="synthetic streams only")
    parser.add_argument("--lambda", type=float, dest="reg",
                        default=PolicyConfig.reg)
    parser.add_argument("--width", type=int, default=PolicyConfig.width)
    parser.add_argument("--depth", type=int, default=PolicyConfig.depth)


def _add_run_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="key = value file of these flags' "
                        "values; flags override it")
    parser.add_argument("--algo", choices=ALGORITHMS, default="neural-ts")
    parser.add_argument("--repeats", type=int, default=ExperimentConfig.repeats)
    parser.add_argument("--delay", type=int, default=ExperimentConfig.delay)
    parser.add_argument("--nu", type=float, default=PolicyConfig.nu)
    parser.add_argument("--eps", type=float, default=PolicyConfig.eps)
    parser.add_argument("--iters", type=int, default=TrainConfig.iterations)
    parser.add_argument("--lr", type=float, default=TrainConfig.step_size)
    parser.add_argument("--train-mode", choices=("gd", "sgd"),
                        default=TrainConfig.mode)
    parser.add_argument("--batch-size", type=int, default=TrainConfig.batch_size)
    parser.add_argument("--stop-train", type=int, default=PolicyConfig.stop_train)
    parser.add_argument("--posterior", choices=("diag", "full"), default="diag")
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
    """grid's reg/nu/eps sweeps (grid_cells' arguments) for an algorithm."""
    if algo in ("neural-ts", "neural-ucb"):
        return {"regs": NEURAL_REG_GRID, "nus": NEURAL_NU_GRID}
    if algo in ("lin-ts", "lin-ucb", "kernel-ts", "kernel-ucb"):
        return {"nus": LINEAR_KERNEL_NU_GRID}
    if algo == "eps-greedy":
        return {"epss": EPS_GRID}
    return {}


def _ntk_report(stream: ExperimentConfig, args: argparse.Namespace) -> dict:
    """NTK diagnostics over every arm's context in the stream's rounds, with
    the budget T*K of a horizon-T episode on its K arms, the rounds' expected
    rewards as h and the stream's noise as R (0 for indicator rewards).  Its
    ValueErrors are all about flags (--lambda, --depth, --T, --delta)."""
    rounds = build_rounds(stream, args.seed)
    contexts = np.concatenate([r.contexts for r in rounds])
    h = np.concatenate([r.expected_rewards for r in rounds])
    R = stream.noise_sd if stream.dataset in envs.SYNTHETIC else 0.0
    K = rounds[0].contexts.shape[0]
    H = ntk.ntk_matrix(contexts, args.depth)
    report = ntk.effective_dimension(H, args.reg, args.horizon * K)
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
        "R": R,
    }
    try:
        out["B"] = B = ntk.theory_B(h, H, out["min_eigenvalue"])
        out["nu_theory"] = ntk.theory_nu(B, R, report.eff_dim, args.horizon,
                                         K, args.reg, args.delta)
    except np.linalg.LinAlgError as err:
        out.update(B=None, nu_theory=None, note=str(err))
    out["width_condition"] = ntk.check_width_condition(
        args.width, args.horizon, K, args.depth, args.reg,
        max(float(evals[-1]), 1e-12), args.delta)
    return out


def _inputs(args: argparse.Namespace):
    """What the subcommand runs on, built from its flags: the dataset for
    ingest, the report for ntk, the experiment for run and its cells for
    grid.  For run's config or every grid cell, the first episode's rounds
    and policy are built too, and the worker pool sized, so that what only
    they check is reported before any episode runs.  Raises the ValueError
    or OSError of a value that cannot be run, such as an --out or --out-file
    that cannot be created or written."""
    if args.command in ("ntk", "ingest") and args.out_file:
        folder = os.path.dirname(args.out_file) or "."
        if os.path.isdir(args.out_file) or not os.path.isdir(folder):
            raise ValueError(f"--out-file {args.out_file}: not a file in an "
                             "existing directory")
    if args.command == "ingest":
        if args.dataset in envs.SYNTHETIC:
            raise ValueError("ingest needs a labeled --dataset: mushroom-like, "
                             "csv:<path> or idx:<images>,<labels>, not "
                             f"the synthetic stream {args.dataset!r}")
        return envs.load_dataset(args.dataset, args.schema)
    if args.command == "ntk":
        # the width condition is about a network that run could build
        if args.width <= 0 or args.width % 2:
            raise ValueError("width must be a positive even integer, "
                             f"got {args.width}")
        # the policy checks --lambda before any kernel is built
        stream = ExperimentConfig(
            dataset=args.dataset, policy=PolicyConfig("neural-ts", reg=args.reg),
            horizon=args.n, duplicate=not args.no_duplicate,
            n_arms=args.arms, raw_dim=args.raw_dim, schema=args.schema)
        return _ntk_report(stream, args)
    experiment = build_experiment(args)
    pool_size()  # rejects a BANDITBENCH_THREADS that is not an integer
    cells = [experiment]
    if args.command == "grid":
        cells = grid_cells(experiment, **_sweeps(experiment.policy.algorithm))
    rounds = build_rounds(experiment, experiment.base_seed)  # cells share them
    for cell in cells:
        make_policy(cell.policy, rounds[0].contexts.shape[1], cell.base_seed)
    # checked, not created: main reruns this to blame a config line
    head = os.path.abspath(args.out)
    while not os.path.exists(head):
        head = os.path.dirname(head)
    if not (os.path.isdir(head) and os.access(head, os.W_OK)):
        raise ValueError(f"--out {args.out}: {head} is not a writable directory")
    return cells if args.command == "grid" else experiment


def _rejection(args: argparse.Namespace) -> str | None:
    """Builds args.inputs, or returns why it cannot be built."""
    try:
        args.inputs = _inputs(args)
    except (ValueError, OSError) as err:
        return str(err)
    return None


def cmd_run(args: argparse.Namespace) -> int:
    config = args.inputs
    traces = run_repeats(config)
    stats = summarize(traces)
    emit_outputs(traces, stats, args.out)
    print(f"{config.policy.algorithm}: total regret "
          f"{stats['mean']:.1f} +/- {stats['stderr']:.1f} "
          f"over {stats['n_repeats']} repeats (T={config.horizon})")
    return 0


def cmd_grid(args: argparse.Namespace) -> int:
    table, best = run_grid(args.inputs)
    emit_grid_summary(table, args.out)
    for row in table:
        print(f"lambda={row['reg']:<8g} nu={row['nu']:<8g} eps={row['eps']:<6g} "
              f"regret {row['mean']:.1f} +/- {row['stderr']:.1f}")
    print(f"best: lambda={best['reg']} nu={best['nu']} eps={best['eps']} "
          f"regret {best['mean']:.1f}")
    return 0


def cmd_ntk(args: argparse.Namespace) -> int:
    text = json.dumps(args.inputs, indent=2)
    if args.out_file:
        with open(args.out_file, "w") as fh:
            fh.write(text)
    else:
        print(text)
    return 0


def cmd_ingest(args: argparse.Namespace) -> int:
    manifest = write_manifest(args.inputs, args.out_file,
                              duplicate=not args.no_duplicate)
    print(json.dumps(manifest, indent=2))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="banditbench",
                                     description="contextual-bandit benchmark engine")
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {}
    for name, func, text in (
            ("run", cmd_run, "run one configuration"),
            ("grid", cmd_grid, "hyperparameter sweep"),
            ("ntk", cmd_ntk, "kernel diagnostics report (JSON)"),
            ("ingest", cmd_ingest, "build a dataset manifest")):
        command = commands[name] = sub.add_parser(name, help=text,
                                                  allow_abbrev=False)
        command.set_defaults(func=func)
        _add_dataset_flags(command)
        if name != "ingest":
            _add_stream_flags(command)
        if name in ("run", "grid"):
            _add_run_flags(command)
        else:
            command.add_argument("--out-file", help="the JSON's file "
                                 "(ntk: stdout by default)")
    ntk_parser = commands["ntk"]
    ntk_parser.add_argument("--n", type=int, default=50, help="rounds of the "
                            "stream whose arms' contexts the kernel is over")
    ntk_parser.add_argument("--delta", type=float, default=0.1)
    commands["ingest"].set_defaults(out_file="manifest.json")

    args = parser.parse_args(argv)
    command = commands[args.command]
    flags, lines = args, {}
    if getattr(args, "config", None):
        # the file's values become the defaults, so explicit flags win
        lines = _config_defaults(command, args.config)
        command.set_defaults(**dict(lines.values()))
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
        command.error(message)
    try:
        return args.func(args)
    except (TrainingDiverged, np.linalg.LinAlgError) as err:
        print(f"banditbench: error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
