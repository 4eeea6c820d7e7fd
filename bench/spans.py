"""Spans around the calls into each layer, and the per-layer metrics.

The tracer replaces public functions as the calling module sees them (for
example `policies.train`, which `_NeuralNet.fit` calls) with wrappers that
record a span: episode, name, start, end and parent.  Spans stay in memory
until the run ends.  `BanditRound`, as the modules that build streams see
it, is replaced by a subclass that counts the rounds built.  A function or
class that is no longer there is reported as absent instead of failing the
run.

Every count and time below is per episode, averaged over the whole cycles a
run completed, so that it does not depend on how long the run was.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

import numpy as np

from banditbench import data, envs, harness, policies, posterior

ALGORITHMS = ("neural-ts", "bootstrap-nn", "neural-ucb", "kernel-ts", "lin-ts")

# (name, unit, better) of every per-layer metric, in BENCHMARK.json order.
PER_LAYER = [
    ("envs.build_rounds.ms", "ms", "lower"),
    ("envs.rounds_built", "count", "lower"),
    ("envs.rounds_used_per_built", "ratio", "higher"),
    ("envs.context_mb", "MiB", "lower"),
    ("nn.train.calls", "count", "lower"),
    ("nn.train.ms", "ms", "lower"),
    ("nn.train.us_p50", "us", "lower"),
    ("nn.train.us_p99", "us", "lower"),
    ("nn.train.rows", "count", "lower"),
    ("nn.forward_batch.calls", "count", "lower"),
    ("nn.forward_batch.ms", "ms", "lower"),
    ("nn.grad_batch.calls", "count", "lower"),
    ("nn.grad_batch.ms", "ms", "lower"),
    ("nn.grad.calls", "count", "lower"),
    ("nn.grad.ms", "ms", "lower"),
    ("posterior.update.calls", "count", "lower"),
    ("posterior.update.ms", "ms", "lower"),
    ("posterior.update.us_p50", "us", "lower"),
    ("posterior.update.us_p99", "us", "lower"),
    ("posterior.sigma.calls", "count", "lower"),
    ("posterior.sigma.ms", "ms", "lower"),
    ("posterior.sigma.us_p50", "us", "lower"),
    ("posterior.rebuilds", "count", "lower"),
    ("posterior.state_mb", "MiB", "lower"),
] + [
    (f"policies.{algo}.{call}.{stat}", unit, "lower")
    for algo in ALGORITHMS
    for call in ("select", "observe")
    for stat, unit in (("ms", "ms"), ("us_p50", "us"), ("us_p99", "us"))
] + [
    ("harness.episode.s", "s", "lower"),
    ("harness.flushes", "count", "lower"),
    ("harness.fits_per_flush", "count", "lower"),
    ("harness.self.ms", "ms", "lower"),
    ("traced.rounds_per_s", "rounds/s", "higher"),
]

MiB = float(1 << 20)


class Tracer:
    """Records spans of the wrapped calls; install() and restore() patch."""

    def __init__(self):
        self.spans: list[tuple | None] = []   # (episode, name, t0, t1, parent)
        self.notes: dict[str, float] = defaultdict(float)
        self.policies: list = []
        self.built: dict[int, list[int]] = defaultdict(lambda: [0, 0])
        self.absent: list[str] = []
        self.episode = -1
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def wrap(self, name, fn, note=None):
        """fn with a span around each call; note(args, result) returns
        amounts to add to self.notes."""
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[sid] = (self.episode, name, t0, t1, parent)
            if note is not None:
                for key, value in note(args, result).items():
                    self.notes[key] += value
            return result

        return traced

    def episode_span(self, index, fn, *args):
        """Calls fn(*args) as the root span of episode `index`."""
        self.episode = index
        return self.wrap("harness.episode", fn)(*args)

    def _patch(self, owner, attr, name, note=None, wrap=None):
        original = getattr(owner, attr, None)
        if original is None:
            self.absent.append(name)
            return
        self._patches.append((owner, attr, original))
        setattr(owner, attr, (wrap or self.wrap)(name, original, note))

    def install(self) -> "Tracer":
        self._patch(harness, "build_rounds", "envs.build_rounds")
        for module in (envs, data):
            self._patch(module, "BanditRound", "envs.rounds_built",
                        wrap=self._count_rounds)
        self._patch(harness, "make_policy", "policies.make_policy",
                    wrap=self._wrap_make_policy)
        self._patch(policies, "train", "nn.train", note=_rows_note)
        for fn in ("forward_batch", "grad_batch", "grad"):
            self._patch(policies, fn, f"nn.{fn}")
        design = getattr(posterior, "DesignMatrix", None)
        for fn in ("update", "sigma"):
            self._patch(design, fn, f"posterior.{fn}")
        return self

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _wrap_make_policy(self, name, make, note):
        def traced_make(cfg, *args, **kwargs):
            policy = self.wrap(name, make)(cfg, *args, **kwargs)
            self.policies.append(policy)
            return _TracedPolicy(self, policy, cfg.algorithm)
        return traced_make

    def _count_rounds(self, name, cls, note):
        """A BanditRound subclass counting, per episode, the rounds built
        and the bytes of their arrays (computed, not measured)."""
        built = self.built
        tracer = self

        class CountedRound(cls):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                tally = built[tracer.episode]
                tally[0] += 1
                tally[1] += _array_bytes(self)

        return CountedRound

    def write(self, path) -> None:
        """One JSON line per span: [episode, name, start_ns, end_ns, parent]."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


class _TracedPolicy:
    """A policy whose select and observe are recorded as spans."""

    def __init__(self, tracer, inner, algorithm):
        self.inner = inner
        self.select = tracer.wrap(f"policies.{algorithm}.select", inner.select)
        self.observe = tracer.wrap(f"policies.{algorithm}.observe",
                                   inner.observe)

    def __getattr__(self, name):
        return getattr(self.inner, name)


def _rows_note(args, _):
    """History rows handed to train(theta0, theta_init, dataset, ...)."""
    try:
        return {"nn.train.rows": len(args[2])}
    except (IndexError, TypeError):
        return {}


def _array_bytes(obj) -> int:
    return sum(a.nbytes for a in vars(obj).values() if isinstance(a, np.ndarray))


def self_times_ms(tracer: Tracer) -> dict[str, float]:
    """Total self time per span name: duration minus direct children."""
    spans = tracer.spans
    child = np.zeros(len(spans))
    for _, _, t0, t1, parent in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    out: dict[str, float] = defaultdict(float)
    for (_, name, t0, t1, _), covered in zip(spans, child):
        out[name] += (t1 - t0 - covered) / 1e6
    return dict(sorted(out.items(), key=lambda kv: -kv[1]))


def layer_metrics(tracer: Tracer, results) -> tuple[dict, list[str]]:
    """Every PER_LAYER metric as {name: (value, unit)}, and those absent.

    `results` are the run's episode results in the order the tracer saw
    them (episode index i is results[i])."""
    n_ep = len(results)
    rounds = sum(len(r.trace.rounds) for r in results if r.trace is not None)
    durations: dict[str, list[int]] = defaultdict(list)
    for _, name, t0, t1, _ in tracer.spans:
        durations[name].append(t1 - t0)
    values: dict[str, float] = {}
    for name, ds in durations.items():
        us = np.asarray(ds) / 1e3
        values[f"{name}.calls"] = len(ds) / n_ep
        values[f"{name}.ms"] = us.sum() / 1e3 / n_ep
        values[f"{name}.us_p50"] = float(np.percentile(us, 50))
        values[f"{name}.us_p99"] = float(np.percentile(us, 99))

    if tracer.built:
        built = sum(n for n, _ in tracer.built.values())
        values["envs.rounds_built"] = built / n_ep
        values["envs.rounds_used_per_built"] = rounds / built
        values["envs.context_mb"] = max(b for _, b in tracer.built.values()) / MiB
    if "nn.train.rows" in tracer.notes:
        values["nn.train.rows"] = tracer.notes["nn.train.rows"] / n_ep

    designs = [getattr(p, "design", None) for p in tracer.policies]
    designs = [d for d in designs if d is not None]
    if designs:
        values["posterior.rebuilds"] = sum(
            getattr(d, "n_rebuilds", 0) for d in designs) / n_ep
        values["posterior.state_mb"] = max(_array_bytes(d) for d in designs) / MiB

    if "harness.episode.ms" in values:
        values["harness.episode.s"] = values["harness.episode.ms"] / 1e3
        values["harness.self.ms"] = self_times_ms(tracer)["harness.episode"] / n_ep
        values["traced.rounds_per_s"] = rounds / (
            sum(durations["harness.episode"]) / 1e9)
        flushes = _delayed_flushes(tracer, results)
        if flushes:
            values["harness.flushes"] = len(flushes) / n_ep
            values["harness.fits_per_flush"] = float(np.median(flushes))

    metrics, absent = {}, []
    for name, unit, _ in PER_LAYER:
        if name not in values:
            absent.append(name)
        metrics[name] = (float(values.get(name, 0.0)), unit)
    return metrics, absent


def _delayed_flushes(tracer: Tracer, results) -> list[int]:
    """nn.train calls in each flush of the episodes run with a delay.

    A flush is a run of consecutive observe calls with no select between
    them; a train call belongs to the observe it was made under."""
    spans = tracer.spans
    delayed = {i for i, r in enumerate(results) if r.config.delay > 0}
    fits = defaultdict(int)
    for _, name, _, _, parent in spans:
        if name == "nn.train":
            while parent >= 0 and not spans[parent][1].endswith(".observe"):
                parent = spans[parent][4]
            fits[parent] += 1
    flushes: list[int] = []
    in_flush = False
    for sid, (episode, name, _, _, _) in enumerate(spans):
        if episode not in delayed:
            continue
        if name.endswith(".select"):
            in_flush = False
        elif name.endswith(".observe"):
            if not in_flush:
                flushes.append(0)
                in_flush = True
            flushes[-1] += fits[sid]
    return flushes
