"""Unit + property tests for the P-192 / P-256 elliptic curves."""

import random
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.ecc import (
    EccPoint,
    P192,
    P256,
    ecdh_shared_secret,
    generate_keypair,
)
from tests.ecc_affine_oracle import AffinePoint

CURVES = [P192, P256]

#: the Bluetooth Core specification's debug key pairs (private, public
#: X, public Y), the published vectors for both pairing curves
DEBUG_KEYS = {
    "P-192": (
        0x07915F86918DDC27005DF1D6CF0C142B625ED2EFF4A518FF,
        0x15207009984421A6586F9FC3FE7E4329D2809EA51125F8ED,
        0xB09D42B81BC5BD009F79E4B59DBBAA857FCA856FB9F7EA25,
    ),
    "P-256": (
        0x3F49F6D4A3C55F3874C9B3E3D2103F504AFF607BEB40B7995899B8A6CD3C1ABD,
        0x20B003D2F297BE2C5E2C83A7E9F9A5B9EFF49111ACF4FDDBCC0301480E359DE6,
        0xDC809C49652AEB6D63329ABF5A52155C766345C28FED3024741C8ED01589D28B,
    ),
}


@pytest.mark.parametrize("curve", CURVES, ids=lambda c: c.name)
class TestCurveStructure:
    def test_generator_is_on_curve(self, curve):
        point = curve.generator
        assert not point.is_infinity  # construction validates the equation

    def test_order_times_generator_is_infinity(self, curve):
        assert (curve.generator * curve.n).is_infinity

    def test_identity_element(self, curve):
        inf = EccPoint.infinity(curve)
        g = curve.generator
        assert g + inf == g
        assert inf + g == g

    def test_inverse_element(self, curve):
        g = curve.generator
        assert (g + (-g)).is_infinity

    def test_doubling_matches_addition(self, curve):
        g = curve.generator
        assert g + g == g * 2

    def test_scalar_distributes(self, curve):
        g = curve.generator
        assert g * 5 == g * 2 + g * 3

    def test_off_curve_point_rejected(self, curve):
        with pytest.raises(ValueError):
            EccPoint(curve, 1, 1)

    def test_point_bytes_roundtrip(self, curve):
        point = curve.generator * 1234567
        assert EccPoint.from_bytes(curve, point.to_bytes()) == point

    def test_x_bytes_length(self, curve):
        assert len(curve.generator.x_bytes()) == curve.byte_length


@pytest.mark.parametrize("curve", CURVES, ids=lambda c: c.name)
class TestEcdh:
    def test_shared_secret_agreement(self, curve):
        rng = random.Random(5)
        alice = generate_keypair(curve, rng)
        bob = generate_keypair(curve, rng)
        assert ecdh_shared_secret(alice.private, bob.public) == ecdh_shared_secret(
            bob.private, alice.public
        )

    def test_distinct_pairs_distinct_secrets(self, curve):
        rng = random.Random(6)
        alice = generate_keypair(curve, rng)
        bob = generate_keypair(curve, rng)
        eve = generate_keypair(curve, rng)
        ab = ecdh_shared_secret(alice.private, bob.public)
        ae = ecdh_shared_secret(alice.private, eve.public)
        assert ab != ae

    def test_private_scalar_range_enforced(self, curve):
        with pytest.raises(ValueError):
            ecdh_shared_secret(0, curve.generator)
        with pytest.raises(ValueError):
            ecdh_shared_secret(curve.n, curve.generator)


@pytest.mark.parametrize("curve", CURVES, ids=lambda c: c.name)
class TestDebugKeys:
    def test_generator_times_private_is_public(self, curve):
        private, x, y = DEBUG_KEYS[curve.name]
        public = curve.generator * private
        assert (public.x, public.y) == (x, y)

    def test_variable_base_reaches_the_same_public_key(self, curve):
        # (2^-1 · d) · 2G takes the variable-base path to d·G.
        private, x, y = DEBUG_KEYS[curve.name]
        half = private * pow(2, -1, curve.n) % curve.n
        public = (curve.generator * 2) * half
        assert (public.x, public.y) == (x, y)

    def test_ecdh_against_debug_key_agrees(self, curve):
        private, x, y = DEBUG_KEYS[curve.name]
        other = generate_keypair(curve, random.Random(8))
        assert ecdh_shared_secret(
            private, other.public
        ) == ecdh_shared_secret(other.private, EccPoint(curve, x, y))


# -- differential tests against the affine oracle -------------------------


def _assert_matches_oracle(curve, base, scalar):
    """``base * scalar`` agrees with the affine oracle, infinity included."""
    new = EccPoint(curve, base.x, base.y) * scalar
    old = base * scalar
    assert (new.x, new.y) == (old.x, old.y), (curve.name, scalar)


#: one fixed non-generator base per curve, computed by the oracle
_ORACLE_BASES = {
    curve.name: AffinePoint.generator(curve) * 0xB1A9 for curve in CURVES
}


def _edge_scalars(curve):
    n = curve.n
    return [1, 2, 15, 16, 17, n - 1, n, n + 1, 2 ** n.bit_length()]


@pytest.mark.parametrize("curve", CURVES, ids=lambda c: c.name)
@pytest.mark.parametrize("base", ["generator", "other"])
def test_edge_scalars_match_oracle(curve, base):
    point = (
        AffinePoint.generator(curve)
        if base == "generator"
        else _ORACLE_BASES[curve.name]
    )
    for scalar in _edge_scalars(curve):
        _assert_matches_oracle(curve, point, scalar)
        _assert_matches_oracle(curve, point, -scalar)


@given(
    curve=st.sampled_from(CURVES),
    data=st.data(),
)
@settings(max_examples=25, deadline=None)
def test_generator_multiplication_matches_oracle(curve, data):
    scalar = data.draw(st.integers(min_value=1, max_value=curve.n - 1))
    sign = data.draw(st.sampled_from([1, -1]))
    _assert_matches_oracle(curve, AffinePoint.generator(curve), sign * scalar)


@given(
    curve=st.sampled_from(CURVES),
    data=st.data(),
)
@settings(max_examples=20, deadline=None)
def test_random_base_multiplication_matches_oracle(curve, data):
    base_scalar = data.draw(st.integers(min_value=2, max_value=curve.n - 1))
    scalar = data.draw(st.integers(min_value=1, max_value=curve.n - 1))
    sign = data.draw(st.sampled_from([1, -1]))
    base = AffinePoint.generator(curve) * base_scalar
    _assert_matches_oracle(curve, base, sign * scalar)


def test_infinity_times_scalar_is_infinity():
    for curve in CURVES:
        assert (EccPoint.infinity(curve) * 12345).is_infinity
        assert (curve.generator * 0).is_infinity


def test_generator_table_is_built_on_first_use_not_at_import():
    code = (
        "import repro.cli, repro.crypto.ecc as ecc\n"
        "assert not ecc._GENERATOR_TABLES\n"
        "ecc.P256.generator * 3\n"
        "assert list(ecc._GENERATOR_TABLES) == ['P-256']\n"
    )
    subprocess.run([sys.executable, "-c", code], check=True)


@given(st.integers(min_value=1, max_value=2**64), st.integers(min_value=1, max_value=2**64))
@settings(max_examples=15, deadline=None)
def test_scalar_multiplication_is_homomorphic(a, b):
    """(a+b)G == aG + bG on P-256."""
    g = P256.generator
    assert g * (a + b) == g * a + g * b


def test_cross_curve_addition_rejected():
    with pytest.raises(ValueError):
        _ = P192.generator + P256.generator


def test_mitm_sees_different_secrets():
    """The Just Works blindness: a MITM completes two *different* ECDHs."""
    rng = random.Random(7)
    victim_m = generate_keypair(P256, rng)
    victim_c = generate_keypair(P256, rng)
    attacker = generate_keypair(P256, rng)
    m_side = ecdh_shared_secret(victim_m.private, attacker.public)
    c_side = ecdh_shared_secret(victim_c.private, attacker.public)
    legit = ecdh_shared_secret(victim_m.private, victim_c.public)
    assert m_side != legit and c_side != legit
    # ...but the attacker can compute both session secrets:
    assert ecdh_shared_secret(attacker.private, victim_m.public) == m_side
    assert ecdh_shared_secret(attacker.private, victim_c.public) == c_side
