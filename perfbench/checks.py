"""Output checks: each returns ``None`` when an output is correct, else why not."""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Sequence

#: the detail flag each scenario must set on every trial
REQUIRED_FLAG = {
    "baseline-race": "connected",
    "page-blocking": "mitm_connection",
    "extraction": "validated_against_m",
    "blurtooth-le-to-bredr": "derived_key_matches_victim",
}


def trial_problem(scenario: str, result: Any) -> Optional[str]:
    """Why one campaign trial's result is wrong, or ``None``."""
    if result.error:
        return f"{scenario} seed {result.seed}: {result.error}"
    flag = REQUIRED_FLAG[scenario]
    if result.detail.get(flag) is not True:
        return f"{scenario} seed {result.seed}: {flag} is not true"
    return None


def op_problem(record: Mapping[str, Any], expected: Sequence[str]) -> Optional[str]:
    """Why one service operation's answer is wrong, or ``None``.

    ``expected[i]`` is the digest of the alerts offline
    ``replay_capture`` computes for capture ``i``.
    """
    where = f"{record['kind']} op {record['index']} (capture {record['capture']})"
    if record.get("error"):
        return f"{where}: {record['error']}"
    if record["kind"] == "upload" and record["status"] != 200:
        return f"{where}: HTTP {record['status']}"
    if record["dropped"]:
        return f"{where}: {record['dropped']} dropped events"
    if record["digest"] != expected[record["capture"]]:
        return f"{where}: verdict differs from offline replay_capture"
    return None


def count_mismatches(first: Dict[str, Any], second: Dict[str, Any]) -> List[str]:
    """Keys whose exact counts differ between two runs of the same work."""
    return sorted(
        key for key in set(first) | set(second)
        if first.get(key) != second.get(key)
    )
