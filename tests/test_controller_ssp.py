"""Controller tests: Secure Simple Pairing end to end."""

import dataclasses

import pytest

from repro.controller import lmp
from repro.core.types import IoCapability, LinkKeyType
from repro.hci.constants import ErrorCode
from repro.devices.catalog import NEXUS_5X_A8, LG_VELVET, WINDOWS_MS_DRIVER


@pytest.fixture
def pair(device_pair):
    world, m, c = device_pair
    c.user.note_pairing_initiated(m.bd_addr, world.simulator.now)
    return world, m, c


class TestSuccessfulPairing:
    def test_pairing_derives_identical_keys(self, pair):
        world, m, c = pair
        op = m.host.gap.pair(c.bd_addr)
        world.run_for(20.0)
        assert op.success
        assert (
            m.host.security.bond_for(c.bd_addr).link_key
            == c.host.security.bond_for(m.bd_addr).link_key
        )

    def test_displayyesno_pair_uses_authenticated_key(self, pair):
        world, m, c = pair
        m.host.gap.pair(c.bd_addr)
        world.run_for(20.0)
        record = m.host.security.bond_for(c.bd_addr)
        assert record.key_type in (
            LinkKeyType.AUTHENTICATED_COMBINATION_P192,
            LinkKeyType.AUTHENTICATED_COMBINATION_P256,
        )

    def test_noinput_peer_downgrades_to_unauthenticated_key(self, pair):
        world, m, c = pair
        c.host.io_capability = IoCapability.NO_INPUT_NO_OUTPUT
        op = m.host.gap.pair(c.bd_addr)
        world.run_for(20.0)
        assert op.success
        record = m.host.security.bond_for(c.bd_addr)
        assert record.key_type in (
            LinkKeyType.UNAUTHENTICATED_COMBINATION_P192,
            LinkKeyType.UNAUTHENTICATED_COMBINATION_P256,
        )

    def test_modern_devices_use_p256_keys(self, pair):
        world, m, c = pair
        m.host.gap.pair(c.bd_addr)
        world.run_for(20.0)
        record = m.host.security.bond_for(c.bd_addr)
        assert record.key_type == LinkKeyType.AUTHENTICATED_COMBINATION_P256

    def test_both_sides_persist_bonds(self, pair):
        world, m, c = pair
        m.host.gap.pair(c.bd_addr)
        world.run_for(20.0)
        assert m.host.store.load()[c.bd_addr].link_key is not None
        assert c.host.store.load()[m.bd_addr].link_key is not None

    def test_numeric_comparison_shows_same_number(self, pair):
        """Both DisplayYesNo users see the same 6-digit value."""
        world, m, c = pair
        shown = []
        orig_m = m.user.decide_confirmation
        orig_c = c.user.decide_confirmation

        def spy(orig):
            def wrapper(addr, numeric, now):
                shown.append(numeric)
                return orig(addr, numeric, now)

            return wrapper

        m.user.decide_confirmation = spy(orig_m)
        c.user.decide_confirmation = spy(orig_c)
        m.host.gap.pair(c.bd_addr)
        world.run_for(20.0)
        assert len(shown) == 2
        assert shown[0] == shown[1]
        assert shown[0] is not None and 0 <= shown[0] <= 999_999


class TestRejectedPairing:
    def test_responder_rejection_fails_pairing(self, device_pair):
        world, m, c = device_pair  # C's user has NO intent → rejects
        op = m.host.gap.pair(c.bd_addr)
        world.run_for(20.0)
        assert op.done and not op.success
        assert not m.host.security.is_bonded(c.bd_addr)
        assert not c.host.security.is_bonded(m.bd_addr)

    def test_initiator_rejection_fails_pairing(self, pair):
        world, m, c = pair
        m.user.clear_intent()
        op = m.host.gap.pair(c.bd_addr, initiated_by_user=False)
        world.run_for(20.0)
        assert op.done and not op.success

    def test_unexpected_attacker_pairing_is_rejected(self, pair):
        """§V-B1: an attacker-initiated pairing pops an unexpected
        dialog on the victim, who rejects it."""
        world, m, c = pair
        # C (attacker stand-in here) pairs at M unexpectedly:
        op = c.host.gap.pair(m.bd_addr)
        world.run_for(20.0)
        assert op.done and not op.success


def _send_off_curve_key(device):
    """Make ``device`` announce the off-curve point (1, 1) as its SSP
    public key, the way a malicious or broken peer controller would."""
    controller = device.controller
    honest_send = controller._send_lmp

    def send(link, pdu):
        if isinstance(pdu, lmp.LmpEncapsulatedKey):
            size = len(pdu.public_key) // 2
            bad = (1).to_bytes(size, "big") * 2
            pdu = dataclasses.replace(pdu, public_key=bad)
        honest_send(link, pdu)

    controller._send_lmp = send


class TestInvalidPeerKey:
    """An off-curve ECDH public key fails the pairing; it must not raise
    out of the simulation."""

    @pytest.mark.parametrize("liar", ["responder", "initiator"])
    def test_off_curve_key_fails_pairing_without_bond(self, pair, liar):
        world, m, c = pair
        _send_off_curve_key(c if liar == "responder" else m)
        op = m.host.gap.pair(c.bd_addr)
        world.run_for(20.0)
        assert op.done and not op.success
        assert op.status == ErrorCode.AUTHENTICATION_FAILURE
        assert not m.host.security.is_bonded(c.bd_addr)
        assert not c.host.security.is_bonded(m.bd_addr)


class TestLegacyP192:
    def test_old_controllers_fall_back_to_p192(self, world):
        m = world.add_device("M", WINDOWS_MS_DRIVER)  # BT 4.0
        c = world.add_device("C", NEXUS_5X_A8)
        m.power_on()
        c.power_on()
        world.run_for(0.5)
        c.user.note_pairing_initiated(m.bd_addr, world.simulator.now)
        m.user.note_pairing_initiated(c.bd_addr, world.simulator.now)
        op = m.host.gap.pair(c.bd_addr)
        world.run_for(20.0)
        assert op.success
        record = m.host.security.bond_for(c.bd_addr)
        assert record.key_type in (
            LinkKeyType.AUTHENTICATED_COMBINATION_P192,
            LinkKeyType.UNAUTHENTICATED_COMBINATION_P192,
        )
        assert (
            record.link_key == c.host.security.bond_for(m.bd_addr).link_key
        )
