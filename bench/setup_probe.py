"""Times one set-up, in the fresh process this script runs in.

    python3 bench/setup_probe.py <workload> <seed>

Prints the seconds from before `import banditbench` until the first
episode's round stream (`harness.build_rounds`) and its policy
(`policies.make_policy`) exist: what a user waits for before round 1.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def main(workload: str, seed: int) -> float:
    start = time.perf_counter()
    from banditbench import harness, policies
    from workloads import WORKLOADS, seeded

    config = seeded(WORKLOADS[workload][0], seed, 0)
    rounds = harness.build_rounds(config, config.base_seed)
    policies.make_policy(config.policy, rounds[0].contexts.shape[1],
                         config.base_seed)
    return time.perf_counter() - start


if __name__ == "__main__":
    print(main(sys.argv[1], int(sys.argv[2])))
