"""``paper-sweep``: the trials a researcher waits on to reproduce the paper.

One round runs one ``CampaignSpec`` per cell through
``CampaignRunner(workers=1)`` with no cache:

* Table II: ``baseline-race`` and ``page-blocking`` for each of the 7
  ``TABLE2_DEVICE_SPECS`` as M;
* ``extraction`` (Table I's attack, default cast);
* ``blurtooth-le-to-bredr`` (LE SC pairing, AES-CCM and CTKD), two seeds
  per round.  With two LE trials among the ten SSP trials of a round the
  p90 of SSP trial time falls inside the LE cluster, not on its edge,
  which keeps that percentile steady from run to run.

Rounds repeat until the measured time is used up; throughput is the
median of the rounds' trials per second.  Every trial is timed around
``repro.campaign.runner.run_trial``, so world build is included.
"""

from __future__ import annotations

import random
import statistics
import time
from typing import Any, Dict, List, Tuple

import checks
from stats import summary_ms

#: rounds re-run for the determinism check and the traced pass
PREFIX_ROUNDS = 2

#: seed numbers one round may use (cells x trials per cell, rounded up)
SEEDS_PER_ROUND = 64

#: (scenario, ns, TrialResult, simulated events) for one trial
Trial = Tuple[str, int, Any, int]


class _Recorder:
    """Stands in for ``runner.run_trial``: times and keeps every trial."""

    def __init__(self, runner_module: Any) -> None:
        self.module = runner_module
        self.trials: List[Trial] = []

    def __enter__(self) -> "_Recorder":
        self.original = inner = self.module.run_trial
        clock = time.perf_counter_ns
        trials = self.trials

        def timed(scenario_name: str, *args: Any, **kwargs: Any) -> Any:
            started = clock()
            result, metrics = inner(scenario_name, *args, **kwargs)
            trials.append((scenario_name, clock() - started, result,
                           metrics["counters"].get("sim.events_processed", 0)))
            return result, metrics

        self.module.run_trial = timed
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.module.run_trial = self.original


class PaperSweep:
    def __init__(self, seed: int) -> None:
        self.base = 1_000_000 + random.Random(seed).randrange(10_000) * 100_000

    def setup(self) -> None:
        from repro.campaign import runner
        from repro.devices.catalog import TABLE2_DEVICE_SPECS

        self.runner_module = runner
        self.runner = runner.CampaignRunner(workers=1)
        cells: List[Tuple[str, Dict[str, Any], int]] = []
        for scenario in ("baseline-race", "page-blocking"):
            for spec in TABLE2_DEVICE_SPECS:
                cells.append((scenario, {"m_spec": spec.key}, 1))
        cells.append(("extraction", {}, 1))
        cells.append(("blurtooth-le-to-bredr", {}, 2))
        self.cells = cells
        # one trial per scenario: lazy imports and tables fill here
        self._round(self.base - SEEDS_PER_ROUND, warm=True)

    def _round(self, first_seed: int, warm: bool = False) -> List[Trial]:
        seen = set()
        seed = first_seed
        with _Recorder(self.runner_module) as recorder:
            for scenario, params, trials in self.cells:
                if warm and scenario in seen:
                    continue
                seen.add(scenario)
                self.runner.run(self.runner_module.CampaignSpec(
                    scenario, seeds=range(seed, seed + trials), params=params
                ))
                seed += trials
        return recorder.trials

    def _rounds(self, count: int) -> List[Trial]:
        trials: List[Trial] = []
        for index in range(count):
            trials.extend(self._round(self.base + index * SEEDS_PER_ROUND))
        return trials

    def measure(self, seconds: float) -> Dict[str, Any]:
        trials: List[Trial] = []
        rates: List[float] = []
        deadline = time.perf_counter() + seconds
        while len(rates) < PREFIX_ROUNDS or time.perf_counter() < deadline:
            started = time.perf_counter_ns()
            done = self._round(self.base + len(rates) * SEEDS_PER_ROUND)
            rates.append(len(done) / ((time.perf_counter_ns() - started) / 1e9))
            trials.extend(done)
        self.prefix = trials[: len(trials) // len(rates) * PREFIX_ROUNDS]
        ssp = summary_ms([t[1] for t in trials if t[0] != "baseline-race"])
        race = summary_ms([t[1] for t in trials if t[0] == "baseline-race"])
        problems = [checks.trial_problem(t[0], t[2]) for t in trials]
        return {
            "attempted": len(trials),
            "failed": sum(1 for problem in problems if problem),
            "problems": [problem for problem in problems if problem][:5],
            "work_per_s": statistics.median(rates),
            "main_op_ms_p50": ssp["p50"],
            "main_op_ms_p90": ssp["tail"],
            "side_op_ms_p50": race["p50"],
            "samples": {"ssp_trial_ms": ssp, "race_trial_ms": race,
                        "rounds": len(rates)},
        }

    # ---------------------------------------------------------- determinism

    @staticmethod
    def _counts(trials: List[Trial]) -> Dict[str, Any]:
        per_trial = [
            (name, result.seed, result.outcome, repr(result.sim_time_s), events)
            for name, _ns, result, events in trials
        ]
        return {
            "sim.events": sum(row[4] for row in per_trial),
            "sim.final_clock_s": sum(t[2].sim_time_s for t in trials),
            "campaign.race_wins": sum(
                1 for name, _ns, result, _m in trials
                if name == "baseline-race" and result.success
            ),
            "per_trial": per_trial,
        }

    def prefix_counts(self) -> Dict[str, Any]:
        return self._counts(self.prefix)

    def replay(self) -> Dict[str, Any]:
        self.replayed = self._rounds(PREFIX_ROUNDS)
        self.replay_problems = [
            problem for problem in
            (checks.trial_problem(t[0], t[2]) for t in self.replayed) if problem
        ]
        return self._counts(self.replayed)

    def replay_cost(self) -> float:
        """Nanoseconds the last replay's trials took."""
        return sum(t[1] for t in self.replayed)

    @property
    def replay_attempted(self) -> int:
        return len(self.replayed)

    def layer_counts(self, counts: Dict[str, Any]) -> Dict[str, float]:
        trials = self.replayed
        return {
            "campaign.attempts_per_trial":
                sum(t[2].attempts for t in trials) / len(trials),
        }

    def close(self) -> None:
        pass
