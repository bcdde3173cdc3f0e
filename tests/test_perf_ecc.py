"""Same-run speed gate: Jacobian ECC against the affine oracle.

Times P-256 scalar multiplication in ``repro.crypto.ecc`` and in the
affine reference kept at ``tests/ecc_affine_oracle.py``, in one process
on the same scalars, and asserts the speed-up as a ratio, so the gate
holds on any machine.  The figures go to ``BENCH_crypto.json`` /
``BENCH_HISTORY.jsonl`` via :func:`record_bench`.

Run with ``-m perf`` (CI's perf-guard job).
"""

from __future__ import annotations

import random
import time

import pytest

from repro.core.bench import record_bench
from repro.crypto.ecc import P256, _generator_table
from tests.ecc_affine_oracle import AffinePoint

pytestmark = pytest.mark.perf

#: scalars per timed batch, and batches per implementation (best kept)
SCALARS = 6
ROUNDS = 3


def _best_per_mult(base, scalars) -> float:
    """Best-of-``ROUNDS`` seconds per multiplication of ``base``."""
    best = float("inf")
    for _ in range(ROUNDS):
        started = time.perf_counter()
        for scalar in scalars:
            base * scalar
        best = min(best, (time.perf_counter() - started) / len(scalars))
    return best


def test_jacobian_p256_beats_affine_oracle():
    rng = random.Random(2022)
    scalars = [rng.randrange(1, P256.n) for _ in range(SCALARS)]
    generator = P256.generator
    generator * 1  # builds the fixed-base table outside the timing
    other = generator * rng.randrange(2, P256.n)
    oracle_generator = AffinePoint.generator(P256)
    oracle_other = AffinePoint(P256, other.x, other.y)

    variable_new = _best_per_mult(other, scalars)
    variable_old = _best_per_mult(oracle_other, scalars)
    fixed_new = _best_per_mult(generator, scalars)
    fixed_old = _best_per_mult(oracle_generator, scalars)
    started = time.perf_counter()
    _generator_table(P256)
    table_build_s = time.perf_counter() - started

    variable_speedup = variable_old / variable_new
    fixed_speedup = fixed_old / fixed_new
    record_bench(
        "crypto",
        "ecc_p256",
        {
            "variable_base_ms": variable_new * 1e3,
            "fixed_base_ms": fixed_new * 1e3,
            "oracle_ms": variable_old * 1e3,
            "variable_base_speedup": variable_speedup,
            "fixed_base_speedup": fixed_speedup,
            "table_build_ms": table_build_s * 1e3,
        },
    )
    assert variable_speedup >= 3.0, (
        f"variable-base P-256 only {variable_speedup:.1f}x the affine oracle"
    )
    assert fixed_speedup >= 10.0, (
        f"generator P-256 only {fixed_speedup:.1f}x the affine oracle"
    )
