"""Same-run speed gate: the compiled HCI codec against the field-by-field oracle.

Encodes and parses the parameters of a fixed mix of the packets a
crowded world carries (inquiry results, command complete/status,
connection events) with ``repro.hci.packets`` (``parameters`` /
``from_parameters``) and with the interpreter kept at
``tests/hci_codec_oracle.py``, in one process, and asserts the speed-up
of encode+parse together as a ratio, so the gate holds on any machine.
The figures go to ``BENCH_hci.json`` / ``BENCH_HISTORY.jsonl`` via
:func:`record_bench`.

Run with ``-m perf`` (CI's perf-guard job).
"""

from __future__ import annotations

import time

import pytest

from repro.core.bench import record_bench
from repro.core.types import BdAddr
from repro.hci import events as evt
from repro.hci.constants import ErrorCode, EventCode, Opcode
from repro.hci.packets import _FieldPacket
from tests.hci_codec_oracle import oracle_from_parameters, oracle_parameters

pytestmark = pytest.mark.perf

#: passes over the mix per timed batch, and rounds of batches (best kept)
PASSES = 200
ROUNDS = 9


def _mix():
    addr = BdAddr.parse("00:1a:7d:da:71:0a")
    inquiry = [
        evt.InquiryResult(
            num_responses=1,
            bd_addr=BdAddr(bytes([0x10, 0x20, 0x30, 0x40, 0x50, index])),
            page_scan_repetition_mode=1,
            reserved=b"\x00\x00",
            class_of_device=0x5A020C,
            clock_offset=0x1000 + index,
        )
        for index in range(4)
    ]
    return inquiry + [
        evt.CommandComplete(
            num_hci_command_packets=1,
            command_opcode=Opcode.WRITE_SCAN_ENABLE,
            return_parameters=b"\x00",
        ),
        evt.CommandStatus(
            status=0,
            num_hci_command_packets=1,
            command_opcode=Opcode.CREATE_CONNECTION,
        ),
        evt.ConnectionRequest(
            bd_addr=addr, class_of_device=0x5A020C, link_type=1
        ),
        evt.ConnectionComplete(
            status=0,
            connection_handle=0x000B,
            bd_addr=addr,
            link_type=1,
            encryption_enabled=0,
        ),
        evt.DisconnectionComplete(
            status=0,
            connection_handle=0x000B,
            reason=ErrorCode.REMOTE_USER_TERMINATED_CONNECTION,
        ),
        evt.InquiryComplete(status=0),
    ]


def _per_packet(operation, items) -> float:
    """Seconds per call of ``operation(*item)`` over one timed batch."""
    started = time.perf_counter()
    for _ in range(PASSES):
        for item in items:
            operation(*item)
    return (time.perf_counter() - started) / (PASSES * len(items))


def _best_interleaved(cases):
    """Best batch time of each case, the cases taking turns each round.

    Taking turns spreads a slow spell of the host over every case
    instead of over whichever case was being timed at the moment.
    """
    best = {name: float("inf") for name in cases}
    for _ in range(ROUNDS):
        for name, (operation, items) in cases.items():
            best[name] = min(best[name], _per_packet(operation, items))
    return best


def _from_parameters(cls, params):
    return cls.from_parameters(params)


def test_compiled_codec_beats_field_by_field_oracle():
    packets = _mix()
    assert {p.event_code for p in packets} >= {
        EventCode.INQUIRY_RESULT,
        EventCode.COMMAND_COMPLETE,
        EventCode.COMMAND_STATUS,
        EventCode.CONNECTION_COMPLETE,
    }
    for packet in packets:  # same bytes and values before timing anything
        raw = packet.parameters()
        assert raw == oracle_parameters(packet)
        assert vars(type(packet).from_parameters(raw)) == vars(
            oracle_from_parameters(type(packet), raw)
        )

    packed = [(packet,) for packet in packets]
    params = [(type(packet), packet.parameters()) for packet in packets]
    best = _best_interleaved({
        "encode": (_FieldPacket.parameters, packed),
        "parse": (_from_parameters, params),
        "oracle_encode": (oracle_parameters, packed),
        "oracle_decode": (oracle_from_parameters, params),
    })
    encode, parse = best["encode"], best["parse"]
    oracle_encode, oracle_decode = best["oracle_encode"], best["oracle_decode"]
    compiled = encode + parse
    oracle = oracle_encode + oracle_decode
    speedup = oracle / compiled
    record_bench(
        "hci",
        "codec",
        {
            "packets": len(packets),
            "encode_us": encode * 1e6,
            "parse_us": parse * 1e6,
            "oracle_encode_us": oracle_encode * 1e6,
            "oracle_parse_us": oracle_decode * 1e6,
            "speedup": speedup,
        },
    )
    assert speedup >= 2.0, (
        f"compiled HCI codec only {speedup:.2f}x the field-by-field oracle"
    )
