"""The banditbench benchmark: one workload per run, in a fresh process.

    python3 bench/run.py --workload synthetic-neural --seed 0 --seconds 20 --trace 0

Runs whole cycles of the workload's episodes (bench/workloads.py) through
`harness.run_episode` until --seconds have passed and at least the
workload's MIN_CYCLES are done, checks the outputs
(bench/checks.py), and prints as its last line one JSON object:
{"correct", "attempted", "failed", "metrics"}.  An episode is one operation;
one that raises counts as failed.  With --trace 0 the metrics are the
end-to-end ones (setup_s, rounds_per_s, peak_rss_mb); with --trace 1 the run
is traced (bench/spans.py) and the metrics are the per-layer ones.  The line
before it records the environment, and bench/results/ keeps the full result
and, for traced runs, the spans.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"
SETUP_PROBES = 11
# One BLAS thread keeps timings independent of how many cores are idle.  The
# cap must not exceed the CPU count.
BLAS_THREADS = 1


@dataclass
class EpisodeResult:
    episode: object             # workloads.Episode
    config: object              # its seeded ExperimentConfig
    trace: object | None        # harness.RegretTrace, None if it raised
    seconds: float
    error: str | None = None


def setup_seconds(workload: str, seed: int) -> list[float]:
    """Set-up time of the first episode, each in a fresh process."""
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(BENCH / "setup_probe.py"), workload, str(seed)],
            capture_output=True, text=True, timeout=120, check=True)
        times.append(float(done.stdout.split()[-1]))
    return times


def measure(workload: str, seed: int, seconds: float, tracer=None,
            horizon: int | None = None,
            min_cycles: int | None = None) -> list[EpisodeResult]:
    """Whole cycles of the workload's episodes until `seconds` have passed
    and at least `min_cycles` (default: the workload's MIN_CYCLES) are done."""
    from banditbench import harness
    from workloads import MIN_CYCLES, WORKLOADS, seeded

    min_cycles = MIN_CYCLES[workload] if min_cycles is None else min_cycles
    results: list[EpisodeResult] = []
    cycles = 0
    start = time.perf_counter()
    while cycles < max(min_cycles, 1) or time.perf_counter() - start < seconds:
        cycles += 1
        for episode in WORKLOADS[workload]:
            index = len(results)
            config = seeded(episode, seed, index, horizon)
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    trace = harness.run_episode(config, 0)
                else:
                    trace = tracer.episode_span(index, harness.run_episode,
                                                config, 0)
                error = None
            except Exception as exc:    # a failed episode is counted, not fatal
                trace, error = None, f"{type(exc).__name__}: {exc}"
            results.append(EpisodeResult(episode, config, trace,
                                         time.perf_counter() - t0, error))
    return results


def rounds_per_s(results: list[EpisodeResult]) -> float:
    """Rounds completed in the run's episodes divided by the wall time of
    their run_episode calls.  The machine's speed drifts over minutes, not
    seconds, so a ratio over the whole run is steadier than a median over
    its few cycles."""
    rounds = sum(len(r.trace.rounds) for r in results if r.trace is not None)
    return rounds / sum(r.seconds for r in results)


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "git_sha": git_sha(),
        "src_lines": sum(len(p.read_text().splitlines())
                         for p in SRC.rglob("*.py")),
    }


def git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "banditbench" / "__init__.py").is_file():
        print(f"no banditbench sources under {SRC}", file=sys.stderr)
        return 2
    if BLAS_THREADS > (os.cpu_count() or 1):
        print("BLAS thread cap exceeds the CPU count", file=sys.stderr)
        return 2
    # The cap takes effect only if set before numpy is first imported; the
    # set-up probes inherit it.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    import checks
    import spans
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    setup = [] if args.trace else setup_seconds(args.workload, args.seed)

    tracer = spans.Tracer().install() if args.trace else None
    try:
        results = measure(args.workload, args.seed, args.seconds, tracer)
    finally:
        if tracer is not None:
            tracer.restore()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    failures, ratios = checks.check_run(results)

    if tracer is None:
        metrics = {"setup_s": (statistics.median(setup), "s"),
                   "rounds_per_s": (rounds_per_s(results), "rounds/s"),
                   "peak_rss_mb": (peak_rss_mb, "MiB")}
        absent, self_ms = [], {}
    else:
        metrics, absent = spans.layer_metrics(tracer, results)
        self_ms = spans.self_times_ms(tracer)

    failed = [f"{r.episode.label} seed {r.config.base_seed}: {r.error}"
              for r in results if r.error]
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "environment": environment(),
        "episodes": [[r.episode.label, r.config.base_seed, r.seconds]
                     for r in results],
        "episode_errors": failed, "check_failures": failures,
        "regret_to_uniform": ratios, "setup_samples_s": setup,
        "absent": absent, "self_ms": self_ms,
    }
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}.trace{args.trace}"
    (RESULTS / f"{stem}.json").write_text(json.dumps(
        {**record, "metrics": metrics}, indent=1))
    if tracer is not None:
        tracer.write(RESULTS / f"{stem}.spans.jsonl")

    for line in failed + failures:
        print(line, file=sys.stderr)
    for name, ms in list(self_ms.items())[:6]:
        print(f"self time {name}: {ms:.0f} ms", file=sys.stderr)
    print(json.dumps({k: record[k] for k in
                      ("workload", "seed", "environment", "absent")}))
    print(json.dumps({
        "correct": not failures,
        "attempted": len(results),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
