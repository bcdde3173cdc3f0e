"""The LE vertical slice: advertising, connection, SMP pairing, CCM.

Covers the :mod:`repro.ble` layer end to end on real catalog devices —
including the satellite requirement that a garbled or blackholed
CONNECT_IND cannot hang a trial: the connect guard mirrors
``Gap.CONNECT_TIMEOUT`` and fails the operation instead.
"""

from __future__ import annotations

import pytest

from repro.attacks.scenario import WorldConfig, build_world
from repro.ble.pdus import SmpPublicKey
from repro.ble.smp import JUST_WORKS, NUMERIC_COMPARISON, REASON_DHKEY_CHECK_FAILED
from repro.ble.stack import BleStack
from repro.core.types import BdAddr
from repro.crypto.smp import bredr_link_key_from_le_ltk
from repro.devices.catalog import spec_by_key
from repro.faults import FaultPlan, FaultSpec
from repro.hci.constants import ErrorCode


def _le_world(seed=11, central="galaxy_s21_dual", peripheral="nexus_5x_dual",
              fault_plan=None):
    world = build_world(WorldConfig(seed=seed, fault_plan=fault_plan))
    c = world.add_device("central", spec_by_key(central))
    p = world.add_device("peripheral", spec_by_key(peripheral))
    c.power_on()
    p.power_on()
    world.run_for(1.0)
    return world, c, p


def _connect(world, c, p):
    operation = c.ble.connect(p.bd_addr)
    world.run_for(5.0)
    assert operation.success, f"LE connect failed: {operation.status}"
    return operation.result


class TestAdvertisingAndConnection:
    def test_peripheral_advertisements_are_scanned(self):
        world, c, p = _le_world()
        c.ble.le_scan_enabled = True
        world.run_for(3.0)
        seen = {addr for _t, addr, _payload in c.ble.observed_advertisements}
        assert p.bd_addr in seen

    def test_connect_creates_a_link_both_sides_see(self):
        world, c, p = _le_world()
        conn = _connect(world, c, p)
        assert conn.role == "central"
        peer_conn = p.ble.connection_for(c.bd_addr)
        assert peer_conn is not None and peer_conn.role == "peripheral"

    def test_connect_to_absent_address_times_out(self):
        world, c, p = _le_world()
        nobody = BdAddr(bytes(range(6)))
        operation = c.ble.connect(nobody)
        world.run_for(BleStack.LE_CONNECT_TIMEOUT + 1.0)
        assert operation.done and not operation.success
        assert operation.status == ErrorCode.CONNECTION_TIMEOUT

    def test_blackholed_connect_fails_instead_of_hanging(self):
        # A phy blackout eats the CONNECT_IND: the guard must fire.
        plan = FaultPlan(
            specs=(
                FaultSpec("phy.blackout", mode="window", start_s=0.0),
            )
        )
        world, c, p = _le_world(fault_plan=plan)
        operation = c.ble.connect(p.bd_addr)
        world.run_for(BleStack.LE_CONNECT_TIMEOUT + 1.0)
        assert operation.done and not operation.success
        assert operation.status == ErrorCode.CONNECTION_TIMEOUT


class TestPairing:
    def test_display_devices_use_numeric_comparison(self):
        world, c, p = _le_world()
        _connect(world, c, p)
        pairing = c.ble.pair(p.bd_addr)
        world.run_for(5.0)
        assert pairing.success
        assert pairing.result == NUMERIC_COMPARISON

    def test_nino_peripheral_pairs_just_works(self):
        world, c, p = _le_world(peripheral="generic_fitness_tracker")
        _connect(world, c, p)
        pairing = c.ble.pair(p.bd_addr)
        world.run_for(5.0)
        assert pairing.success
        assert pairing.result == JUST_WORKS

    def test_both_sides_store_the_same_ltk(self):
        world, c, p = _le_world()
        _connect(world, c, p)
        c.ble.pair(p.bd_addr)
        world.run_for(5.0)
        ltk_c = c.ble.security.le_ltk_for(p.bd_addr)
        ltk_p = p.ble.security.le_ltk_for(c.bd_addr)
        assert ltk_c is not None and ltk_c == ltk_p

    def test_rejected_numeric_comparison_fails_pairing(self):
        world, c, p = _le_world()
        p.ble.numeric_comparison_autoconfirm = False
        _connect(world, c, p)
        pairing = c.ble.pair(p.bd_addr)
        world.run_for(5.0)
        assert pairing.done and not pairing.success


    @pytest.mark.parametrize("liar", ["peripheral", "central"])
    def test_off_curve_public_key_fails_pairing_without_bond(self, liar):
        # A peer announcing the off-curve point (1, 1) as its SMP public
        # key fails the pairing; it must not raise out of the simulation.
        world, c, p = _le_world()
        stack = (p if liar == "peripheral" else c).ble
        honest_send = stack._send_smp

        def send(conn, pdu):
            if isinstance(pdu, SmpPublicKey):
                pdu = SmpPublicKey(point=(1).to_bytes(32, "big") * 2)
            honest_send(conn, pdu)

        stack._send_smp = send
        _connect(world, c, p)
        pairing = c.ble.pair(p.bd_addr)
        world.run_for(5.0)
        assert pairing.done and not pairing.success
        assert pairing.status == REASON_DHKEY_CHECK_FAILED
        for side, peer in ((c, p), (p, c)):
            assert side.ble.security.le_ltk_for(peer.bd_addr) is None
            assert side.ble.security.bond_for(peer.bd_addr) is None


class TestCtkd:
    def test_dual_mode_pairing_derives_a_bredr_key(self):
        world, c, p = _le_world()
        _connect(world, c, p)
        c.ble.pair(p.bd_addr)
        world.run_for(5.0)
        record = c.ble.security.bond_for(p.bd_addr)
        assert record is not None and record.link_key is not None
        ltk = c.ble.security.le_ltk_for(p.bd_addr)
        assert record.link_key.value == bredr_link_key_from_le_ltk(
            ltk.value
        )
        # numeric comparison -> authenticated P-256 combination key
        assert record.key_type == 0x08

    def test_just_works_yields_unauthenticated_key_type(self):
        world, c, p = _le_world(peripheral="generic_smart_watch")
        p.ble.numeric_comparison_autoconfirm = True
        c.ble.io_capability = spec_by_key(
            "generic_fitness_tracker"
        ).io_capability  # force NINO on one side -> Just Works
        _connect(world, c, p)
        pairing = c.ble.pair(p.bd_addr)
        world.run_for(5.0)
        assert pairing.success and pairing.result == JUST_WORKS
        record = c.ble.security.bond_for(p.bd_addr)
        assert record is not None and record.key_type == 0x07

    def test_le_only_peer_does_not_negotiate_ctkd(self):
        world, c, p = _le_world(peripheral="generic_earbuds")
        _connect(world, c, p)
        c.ble.pair(p.bd_addr)
        world.run_for(5.0)
        assert c.ble.security.le_ltk_for(p.bd_addr) is not None
        record = c.ble.security.bond_for(p.bd_addr)
        assert record is None or record.link_key is None


class TestEncryption:
    def _paired(self, **kwargs):
        world, c, p = _le_world(**kwargs)
        _connect(world, c, p)
        c.ble.pair(p.bd_addr)
        world.run_for(5.0)
        return world, c, p

    def test_encrypted_data_flows_both_ways(self):
        world, c, p = self._paired()
        enc = c.ble.start_encryption(p.bd_addr)
        world.run_for(2.0)
        assert enc.success
        assert c.ble.send_data(p.bd_addr, b"from central")
        assert p.ble.send_data(c.bd_addr, b"from peripheral")
        world.run_for(1.0)
        assert p.ble.received_payloads(c.bd_addr) == [b"from central"]
        assert c.ble.received_payloads(p.bd_addr) == [b"from peripheral"]

    def test_encryption_without_a_bond_fails(self):
        world, c, p = _le_world()
        _connect(world, c, p)
        enc = c.ble.start_encryption(p.bd_addr)
        world.run_for(2.0)
        assert enc.done and not enc.success
        assert enc.status == ErrorCode.PIN_OR_KEY_MISSING

    def test_reconnect_reuses_the_stored_ltk(self):
        world, c, p = self._paired()
        c.ble.disconnect(p.bd_addr)
        world.run_for(1.0)
        assert c.ble.connection_for(p.bd_addr) is None
        _connect(world, c, p)
        enc = c.ble.start_encryption(p.bd_addr)
        world.run_for(2.0)
        assert enc.success


class TestDeviceIntegration:
    def test_le_only_device_has_no_bredr_host_activity(self):
        world = build_world(WorldConfig(seed=3))
        tracker = world.add_device(
            "tracker", spec_by_key("generic_fitness_tracker")
        )
        assert tracker.ble is not None
        tracker.power_on()
        world.run_for(2.0)
        # the BR/EDR host was never initialised; LE advertising runs
        assert not tracker.controller.page_scan_enabled
        assert not tracker.controller.inquiry_scan_enabled
        assert len(tracker.ble.adv_payload.name) > 0
        assert tracker.ble.powered

    def test_classic_device_has_no_ble_stack(self):
        world = build_world(WorldConfig(seed=3))
        phone = world.add_device("phone", spec_by_key("nexus_5x_android8"))
        assert phone.ble is None


@pytest.mark.parametrize("seed", [1, 2])
def test_pairing_is_deterministic_per_seed(seed):
    def ltk_for(run_seed):
        world, c, p = _le_world(seed=run_seed)
        _connect(world, c, p)
        c.ble.pair(p.bd_addr)
        world.run_for(5.0)
        return c.ble.security.le_ltk_for(p.bd_addr)

    assert ltk_for(seed) == ltk_for(seed)
    assert ltk_for(seed) != ltk_for(seed + 100)
