"""``crowd-500``: 500-device ambient worlds, stepped one simulated second at a time.

Each world is ``ambient_spec(500)`` (classic preset, no LE devices), so
almost no crypto runs: the cost is the event loop, the HCI codec, host,
controller and radio medium.  The run is a series of episodes: build a
fresh world (the side operation, what every crowded trial pays before it
starts), run 5 simulated seconds of warm-up, then time 30 steps of one
simulated second each (the main operation).  Throughput is the median
of the steps' events per second.

Why episodes and not one world for the whole run: a world's device mix
is sampled from its seed and sets how many events a simulated second
holds, so one world per run would make step time depend on the seed;
and the world's tracer keeps every record, so per-event cost would grow
with how long the run lasted.  Many worlds per run average the mix and
keep the working set the same on a fast and a slow commit.
"""

from __future__ import annotations

import gc
import random
import statistics
import time
from typing import Any, Dict, List, Tuple

from stats import summary_ms

#: devices in the crowd
SIZE = 500

#: simulated seconds run before timing starts (ambient churn ramps up)
WARMUP_S = 5.0

#: simulated seconds per timed step
STEP_S = 1.0

#: timed steps per world
EPISODE_STEPS = 30

#: steps of the first world re-run for the determinism check and tracing
PREFIX_STEPS = 8

Step = Tuple[int, int, float]

#: (build ns, events run before the timed steps, the timed steps)
Episode = Tuple[int, int, List[Step]]


class Crowd:
    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)
        self.warm_seed = self.rng.randrange(1, 1_000_000)
        self.first_seed = self.rng.randrange(1, 1_000_000)

    def _build(self, seed: int) -> Any:
        from repro.attacks.scenario import WorldConfig, build_world
        from repro.population import ambient_spec

        return build_world(
            WorldConfig(seed=seed, population=ambient_spec(SIZE))
        )

    def setup(self) -> None:
        self._build(self.warm_seed).run_for(WARMUP_S)

    @staticmethod
    def _steps(world: Any, count: int) -> List[Step]:
        """(ns, events, clock) for each of ``count`` timed steps."""
        sim = world.simulator
        steps: List[Step] = []
        for _ in range(count):
            events = sim.events_processed
            started = time.perf_counter_ns()
            world.run_for(STEP_S)
            steps.append((time.perf_counter_ns() - started,
                          sim.events_processed - events, sim.now))
        return steps

    def _episode(self, seed: int, steps: int, problems: List[str]) -> Episode:
        gc.collect()  # the previous world's garbage is not this build's cost
        started = time.perf_counter_ns()
        world = self._build(seed)
        build_ns = time.perf_counter_ns() - started
        devices = len(world.populations[0].devices)
        if devices != SIZE:
            problems.append(f"world {seed}: {devices} devices, expected {SIZE}")
        world.run_for(WARMUP_S)
        clock = world.simulator.now
        warm_events = world.simulator.events_processed
        timed = self._steps(world, steps)
        for index, (_ns, events, now) in enumerate(timed):
            clock += STEP_S
            if now != clock:
                problems.append(
                    f"world {seed} step {index}: clock {now!r}, expected {clock!r}"
                )
            elif events <= 0:
                problems.append(f"world {seed} step {index}: no events ran")
        return build_ns, warm_events, timed

    def measure(self, seconds: float) -> Dict[str, Any]:
        problems: List[str] = []
        builds: List[int] = []
        steps: List[Step] = []
        seed = self.first_seed
        deadline = time.perf_counter() + seconds
        while not builds or time.perf_counter() < deadline:
            build_ns, warm_events, timed = self._episode(
                seed, EPISODE_STEPS, problems)
            if not builds:
                self.prefix = (warm_events, timed[:PREFIX_STEPS])
            builds.append(build_ns)
            steps += timed
            seed = self.rng.randrange(1, 1_000_000)
        events = sum(step[1] for step in steps)
        step_ms = summary_ms([step[0] for step in steps])
        build_ms = summary_ms(builds)
        return {
            "attempted": len(steps) + len(builds),
            "failed": len(problems),
            "problems": problems[:5],
            "work_per_s": statistics.median(
                step[1] / (step[0] / 1e9) for step in steps
            ),
            "main_op_ms_p50": step_ms["p50"],
            "main_op_ms_p90": step_ms["tail"],
            "side_op_ms_p50": build_ms["p50"],
            "samples": {"step_ms": step_ms, "build_ms": build_ms,
                        "events": events},
        }

    @staticmethod
    def _counts(warm_events: int, steps: List[Step]) -> Dict[str, Any]:
        """Counts of a world's run from its build: ``sim.events`` holds the
        warm-up's events too, as the traced window does."""
        return {
            "sim.events": warm_events + sum(step[1] for step in steps),
            "sim.final_clock_s": steps[-1][2],
            "per_step": [step[1:] for step in steps],
        }

    def prefix_counts(self) -> Dict[str, Any]:
        return self._counts(*self.prefix)

    def replay(self) -> Dict[str, Any]:
        self.replay_problems = []
        _build_ns, warm_events, self.replayed = self._episode(
            self.first_seed, PREFIX_STEPS, self.replay_problems
        )
        return self._counts(warm_events, self.replayed)

    def replay_cost(self) -> float:
        """Nanoseconds the last replay's steps took."""
        return sum(step[0] for step in self.replayed)

    @property
    def replay_attempted(self) -> int:
        return len(self.replayed)

    def layer_counts(self, counts: Dict[str, Any]) -> Dict[str, float]:
        return {}

    def close(self) -> None:
        pass
