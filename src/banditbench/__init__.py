"""Contextual-bandit benchmark engine built around neural Thompson sampling."""

from .nn import NetShape, ParamStack, TrainConfig, grad, init_params, train
from .posterior import DesignMatrix
from .policies import Decision, Policy, PolicyConfig, make_policy
from .harness import ExperimentConfig, RegretTrace, run_episode, run_grid, summarize

__all__ = [
    "NetShape", "ParamStack", "TrainConfig", "grad", "init_params",
    "train", "DesignMatrix", "Decision", "Policy", "PolicyConfig", "make_policy",
    "ExperimentConfig", "RegretTrace", "run_episode", "run_grid", "summarize",
]
