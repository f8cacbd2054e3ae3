#!/usr/bin/env python
"""Custom tuner: plugging your own policy logic into RusKey.

RusKey accepts any object implementing the ``Tuner`` interface, so the RL
model is swappable. This example implements a *cost-model tuner* that picks
the white-box optimal K for the observed workload mix each mission (a
white-box analogue of Lerp), and compares it against Lerp and the greedy
threshold heuristic from the paper's Figure 12.

Run:  python examples/custom_tuner.py
"""

from repro import GreedyThresholdTuner, RusKey, SystemConfig
from repro.config import TransitionKind
from repro.core.tuners import Tuner
from repro.cost import optimal_policies_whitebox
from repro.lsm.stats import MissionStats
from repro.lsm.tree import LSMTree
from repro.workload import UniformWorkload

N_RECORDS = 20_000
N_MISSIONS = 100
MISSION_SIZE = 800


class WhiteboxTuner(Tuner):
    """Sets each level to the Eq. 5 optimum for the mission's observed mix.

    This is what a perfect-information white-box model would do; comparing
    it against Lerp shows how close the black-box RL gets without any cost
    formula (and where the formula's assumptions diverge from the actual
    system — the paper's core motivation for using RL).
    """

    def __init__(self, smoothing: float = 0.2) -> None:
        self._mix = None
        self._smoothing = smoothing

    def observe_mission(self, tree: LSMTree, mission: MissionStats) -> None:
        observed = mission.lookup_fraction
        if self._mix is None:
            self._mix = observed
        else:
            self._mix += self._smoothing * (observed - self._mix)
        if tree.n_levels == 0:
            return
        optimal = optimal_policies_whitebox(self._mix, tree.n_levels, tree.config)
        for level_no, policy in enumerate(optimal, start=1):
            if tree.level(level_no).policy != policy:
                tree.set_policy(level_no, policy, TransitionKind.FLEXIBLE)


def run(tuner, gamma):
    config = SystemConfig(write_buffer_bytes=64 * 1024, seed=7)
    store = RusKey(config, tuner=tuner)
    workload = UniformWorkload(N_RECORDS, lookup_fraction=gamma, seed=11)
    keys, values = workload.load_records()
    store.bulk_load(keys, values, distribute=True)
    store.run_missions(workload.missions(N_MISSIONS, MISSION_SIZE))
    return store


def main() -> None:
    for gamma, label in ((0.9, "read-heavy"), (0.5, "balanced")):
        print(f"\n=== {label} workload (γ={gamma}) ===")
        contenders = {
            "Lerp (RusKey)": None,  # RusKey default
            "whitebox": WhiteboxTuner(),
            "greedy 33/67": GreedyThresholdTuner(0.33, 0.67),
        }
        for name, tuner in contenders.items():
            store = run(tuner, gamma)
            print(
                f"  {name:>14}: last-25-mission latency "
                f"{store.mean_latency(last_n=25) * 1e3:.4f} ms/op, "
                f"final K = {store.policies()}"
            )


if __name__ == "__main__":
    main()
