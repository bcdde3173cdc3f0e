"""The repository benchmark: one workload, end-to-end or per-layer metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper-sweep --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics of an untraced run.
``--trace 1`` makes the same untraced run and re-run, then re-runs the
first operations twice more with a wrapper around every ``repro.*``
function (see ``layers.py``) and prints the per-layer metrics of the
second traced pass.

Every run checks the program's outputs and that simulated counts repeat
exactly: the measured run's first operations against their untraced
re-run, and against both traced passes.  The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the exit code is 0 only when
``correct`` is true.  See ``perfbench/README.md`` for the workloads and
what each metric means.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402  (the clock above times imports too)
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any, Dict, List, Tuple  # noqa: E402

import checks  # noqa: E402
import layers  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

#: workload name -> (module, class)
WORKLOADS = {
    "paper-sweep": ("paper_sweep", "PaperSweep"),
    "crowd-500": ("crowd", "Crowd"),
    "service-ingest": ("service_ingest", "ServiceIngest"),
}

END_TO_END = {
    "work_per_s": "1/s",
    "main_op_ms_p50": "ms",
    "main_op_ms_p90": "ms",
    "side_op_ms_p50": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: layers reported by name; any other layer's time is summed into "rest"
LAYERS = (
    "crypto.ecc", "crypto.aes", "crypto.safer", "crypto.other", "sim",
    "hci", "phy", "controller", "host", "transport", "obs", "ble",
    "devices", "attacks", "population", "campaign", "core", "faults",
    "detect", "snoop", "service.ws", "service.protocol", "service.session",
    "service.server", "io_wait", "rest", "other",
)

#: per-layer counts and derived figures, with units
LAYER_FIGURES = {
    "crypto.ecc.scalar_mults": "count",
    "crypto.ecc.us_per_mult": "us",
    "crypto.aes.blocks": "count",
    "crypto.safer.blocks": "count",
    "sim.events": "count",
    "sim.us_per_event": "us",
    "sim.final_clock_s": "s",
    "hci.packets_encoded": "count",
    "hci.packets_parsed": "count",
    "phy.pages": "count",
    "attacks.build_world_s": "s",
    "population.build_s": "s",
    "campaign.attempts_per_trial": "ratio",
    "campaign.race_wins": "count",
    "detect.events": "count",
    "detect.alerts": "count",
    "service.frames": "count",
    "service.dropped_events": "count",
    "service.useful_ratio": "ratio",
    "snoop.records": "count",
    "loadgen.lag_ms_p90": "ms",
    "trace.overhead_ratio": "ratio",
    "trace.wall_s": "s",
    "trace.spans": "count",
}

#: set-ups timed per run (this process plus fresh child processes)
SETUP_REPEATS = 3


def parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time set-up alone and print it (used by the "
                             "benchmark itself to repeat set-up)")
    return parser.parse_args(argv)


def child_setup_s(args: argparse.Namespace) -> float:
    """Set-up time of a fresh process running the same workload and seed."""
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", "0", "--setup-only"],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(done.stdout.splitlines()[-1])["setup_s"]


def counts_line(counts: Dict[str, Any]) -> Dict[str, Any]:
    """The scalar counts, for the log line two same-seed runs can diff."""
    return {k: v for k, v in counts.items() if isinstance(v, (int, float))}


def traced_passes(workload: Any, prefix: Dict[str, Any], problems: List[str]
                  ) -> Tuple[Dict[str, float], Dict[str, Any], Any]:
    """Two traced re-runs of the prefix; per-layer figures of the second."""
    tracer = layers.Tracer()
    patches = layers.install(tracer)
    loop = getattr(workload, "loop", None)
    if loop is not None:
        owner = next(klass for klass in type(loop._selector).__mro__
                     if "select" in vars(klass))
        select = vars(owner)["select"]
        patches.set(owner, "select", select,
                    layers.wrap(tracer, select, "io_wait", "selectors.select"))
    untraced_cost = workload.replay_cost()
    try:
        first = workload.replay()
        first.update({k: v[0] for k, v in tracer.counts.items()})
        problems += workload.replay_problems
        tracer.reset()
        started = tracer.clock()
        second = workload.replay()
        ended = tracer.clock()
        second.update({k: v[0] for k, v in tracer.counts.items()})
        problems += workload.replay_problems
    finally:
        patches.remove()
    if not patches.restored():
        problems.append("a patched attribute was not restored")
    leftovers = layers.leftover_wrappers()
    if leftovers:
        problems.append(f"wrappers left in place: {leftovers[:3]}")
    for key in checks_mismatches(prefix, second) + checks_mismatches(first, second):
        problems.append(f"count {key} differs between runs of the same work")

    report = layers.layer_report(tracer, (started, ended))
    if not report["nested"]:
        problems.append("layer self times do not add up to traced wall time")
    wall = report["wall_ns"]
    self_ns = dict.fromkeys(LAYERS, 0)
    for layer, value in report["self_ns"].items():
        self_ns[layer if layer in self_ns else "rest"] += value
    self_ns["other"] = report["other_ns"]
    figures: Dict[str, float] = {}
    for layer in LAYERS:
        figures[f"{layer}.self_s"] = self_ns[layer] / 1e9
        figures[f"{layer}.share"] = self_ns[layer] / wall
    figures.update(dict.fromkeys(LAYER_FIGURES, 0))
    for key in LAYER_FIGURES:
        if isinstance(second.get(key), (int, float)):
            figures[key] = second[key]
    figures.update(workload.layer_counts(second))
    mults = second["crypto.ecc.scalar_mults"]
    figures["crypto.ecc.us_per_mult"] = (
        self_ns["crypto.ecc"] / mults / 1e3 if mults else 0.0
    )
    figures["sim.us_per_event"] = (
        self_ns["sim"] / figures["sim.events"] / 1e3 if figures["sim.events"] else 0.0
    )
    figures["attacks.build_world_s"] = layers.inclusive_ns(
        tracer, ["repro.attacks.scenario.build_world"]) / 1e9
    figures["population.build_s"] = layers.inclusive_ns(
        tracer, ["repro.population.ambient.populate"]) / 1e9
    figures["trace.overhead_ratio"] = workload.replay_cost() / untraced_cost - 1.0
    figures["trace.wall_s"] = wall / 1e9
    figures["trace.spans"] = len(tracer.starts)
    return figures, second, tracer


def checks_mismatches(first: Dict[str, Any], second: Dict[str, Any]) -> List[str]:
    """Keys of ``first`` whose counts differ in ``second``."""
    return checks.count_mismatches(first, {k: second.get(k) for k in first})


def main(argv: List[str]) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program at {SRC}/repro", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    module_name, class_name = WORKLOADS[args.workload]
    workload = getattr(importlib.import_module(module_name), class_name)(args.seed)
    problems: List[str] = []
    tracer = None
    try:
        workload.setup()
        setups = [time.perf_counter() - STARTED]
        if args.setup_only:
            print(json.dumps({"setup_s": setups[0]}))
            return 0
        measured = workload.measure(args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        problems += measured["problems"]
        failed = measured["failed"]
        prefix = workload.prefix_counts()
        counts = workload.replay()
        problems += workload.replay_problems
        for key in checks_mismatches(prefix, counts):
            problems.append(f"count {key} differs between runs of the same work")
        if args.trace:
            figures, counts, tracer = traced_passes(workload, prefix, problems)
        attempted = measured["attempted"] + workload.replay_attempted * (
            3 if args.trace else 1)
        failed += len(problems) - len(measured["problems"])
    finally:
        workload.close()

    print("counts " + json.dumps(counts_line(counts), sort_keys=True))
    print("samples " + json.dumps(measured["samples"], sort_keys=True),
          file=sys.stderr)
    for problem in problems:
        print(f"problem: {problem}", file=sys.stderr)
    if args.trace:
        out_dir = Path(".perfbench")
        out_dir.mkdir(exist_ok=True)
        tracer.write(str(out_dir / f"spans-{args.workload}-{args.seed}.tsv"))
        metrics = {name: {"value": figures[name], "unit": unit}
                   for name, unit in _per_layer_units().items()}
    else:
        setups += [child_setup_s(args) for _ in range(SETUP_REPEATS - 1)]
        values = {key: measured[key] for key in END_TO_END if key in measured}
        values["setup_s"] = statistics.median(setups)
        values["peak_rss_mb"] = peak_rss_mb
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    correct = not problems
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


def _per_layer_units() -> Dict[str, str]:
    units = {}
    for layer in LAYERS:
        units[f"{layer}.self_s"] = "s"
        units[f"{layer}.share"] = "ratio"
    units.update(LAYER_FIGURES)
    return units


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
