"""Elliptic-curve arithmetic for Secure Simple Pairing.

SSP performs an ECDH key agreement on NIST P-192 (Bluetooth 2.1–4.0)
or P-256 (Secure Connections, 4.1+).  This module implements both
curves from scratch: short-Weierstrass points, key generation and the
DHKey computation.

Scalar multiplication works in Jacobian coordinates, so it inverts a
field element once per multiplication instead of once per point
operation.  A variable base (the DHKey against a peer key) runs
left-to-right double-and-add with the a = −3 doubling formula and
mixed Jacobian+affine additions.  The generator (key generation) uses
a fixed-base table of ``j·16^i·G`` built on first use, so a
multiplication is one table addition per 4-bit digit and no doublings.
Every point the module returns is checked against the curve equation,
peer keys included.  The code is variable-time: it is for simulation,
not for protecting real keys.

The page blocking attack does not break this math — it sidesteps it by
downgrading the association model to Just Works, where the legitimate
peers faithfully complete an ECDH exchange *with the attacker*.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple


@dataclass(frozen=True)
class CurveParams:
    """Short Weierstrass curve y^2 = x^3 + ax + b over GF(p)."""

    name: str
    p: int
    a: int
    b: int
    gx: int
    gy: int
    n: int

    @property
    def byte_length(self) -> int:
        return (self.p.bit_length() + 7) // 8

    @property
    def generator(self) -> "EccPoint":
        return EccPoint(self, self.gx, self.gy)


P192 = CurveParams(
    name="P-192",
    p=0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEFFFFFFFFFFFFFFFF,
    a=-3,
    b=0x64210519E59C80E70FA7E9AB72243049FEB8DEECC146B9B1,
    gx=0x188DA80EB03090F67CBF20EB43A18800F4FF0AFD82FF1012,
    gy=0x07192B95FFC8DA78631011ED6B24CDD573F977A11E794811,
    n=0xFFFFFFFFFFFFFFFFFFFFFFFF99DEF836146BC9B1B4D22831,
)

P256 = CurveParams(
    name="P-256",
    p=0xFFFFFFFF00000001000000000000000000000000FFFFFFFFFFFFFFFFFFFFFFFF,
    a=-3,
    b=0x5AC635D8AA3A93E7B3EBBD55769886BC651D06B0CC53B0F63BCE3C3E27D2604B,
    gx=0x6B17D1F2E12C4247F8BCE6E563A440F277037D812DEB33A0F4A13945D898C296,
    gy=0x4FE342E2FE1A7F9B8EE7EB4A7C0F9E162BCE33576B315ECECBB6406837BF51F5,
    n=0xFFFFFFFF00000000FFFFFFFFFFFFFFFFBCE6FAADA7179E84F3B9CAC2FC632551,
)


class EccPoint:
    """A point on a curve, including the point at infinity (x=y=None)."""

    __slots__ = ("curve", "x", "y")

    def __init__(
        self, curve: CurveParams, x: Optional[int], y: Optional[int]
    ) -> None:
        self.curve = curve
        self.x = x
        self.y = y
        if not self.is_infinity and not self._on_curve():
            raise ValueError(f"point ({x}, {y}) is not on {curve.name}")

    @classmethod
    def infinity(cls, curve: CurveParams) -> "EccPoint":
        return cls(curve, None, None)

    @property
    def is_infinity(self) -> bool:
        return self.x is None

    def _on_curve(self) -> bool:
        p = self.curve.p
        return (
            self.y * self.y - (self.x**3 + self.curve.a * self.x + self.curve.b)
        ) % p == 0

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EccPoint):
            return NotImplemented
        return (
            self.curve.name == other.curve.name
            and self.x == other.x
            and self.y == other.y
        )

    def __hash__(self) -> int:
        return hash((self.curve.name, self.x, self.y))

    def __neg__(self) -> "EccPoint":
        if self.is_infinity:
            return self
        return EccPoint(self.curve, self.x, (-self.y) % self.curve.p)

    def __add__(self, other: "EccPoint") -> "EccPoint":
        if self.curve.name != other.curve.name:
            raise ValueError("cannot add points on different curves")
        if self.is_infinity:
            return other
        if other.is_infinity:
            return self
        p = self.curve.p
        if self.x == other.x and (self.y + other.y) % p == 0:
            return EccPoint.infinity(self.curve)
        if self == other:
            slope = (3 * self.x * self.x + self.curve.a) * pow(2 * self.y, -1, p)
        else:
            slope = (other.y - self.y) * pow(other.x - self.x, -1, p)
        slope %= p
        x3 = (slope * slope - self.x - other.x) % p
        y3 = (slope * (self.x - x3) - self.y) % p
        return EccPoint(self.curve, x3, y3)

    def __mul__(self, scalar: int) -> "EccPoint":
        """Scalar multiplication ``scalar · self``.

        Both curves have prime order n (cofactor 1), so the scalar is
        reduced mod n first; a negative scalar needs no special case.
        For 0 < k < n no partial sum below is ever ±(the point being
        added), so neither loop meets a doubling-in-disguise or the
        point at infinity.  The field arithmetic is written out in the
        loop bodies: a helper call per step would cost more than the
        arithmetic it saves.
        """
        curve = self.curve
        k = scalar % curve.n
        if k == 0 or self.x is None:
            return EccPoint(curve, None, None)
        p = curve.p
        if self.x == curve.gx and self.y == curve.gy:
            table = _GENERATOR_TABLES.get(curve.name)
            if table is None:
                table = _GENERATOR_TABLES[curve.name] = _generator_table(curve)
            # k = Σ d_i·16^i, so k·G = Σ table[i][d_i]: additions only.
            # Z == 0 stands for the empty sum until the first digit.
            X = Y = Z = 0
            for row in table:
                digit = k & 15
                if digit:
                    x2, y2 = row[digit]
                    if Z:
                        zz = Z * Z % p
                        h = (x2 * zz - X) % p
                        r = (y2 * zz * Z - Y) % p
                        hh = h * h % p
                        hhh = h * hh % p
                        v = X * hh % p
                        X = (r * r - hhh - 2 * v) % p
                        Y = (r * (v - X) - Y * hhh) % p
                        Z = Z * h % p
                    else:
                        X, Y, Z = x2, y2, 1
                k >>= 4
                if not k:
                    break
        else:
            x2, y2 = self.x, self.y
            X, Y, Z = x2, y2, 1
            for bit in bin(k)[3:]:
                # doubling, a = −3: α = 3(X − Z²)(X + Z²)
                delta = Z * Z % p
                gamma = Y * Y % p
                beta = X * gamma % p
                alpha = 3 * (X - delta) * (X + delta) % p
                Z = 2 * Y * Z % p
                X = (alpha * alpha - 8 * beta) % p
                Y = (alpha * (4 * beta - X) - 8 * gamma * gamma) % p
                if bit == "1":
                    # mixed addition of the affine base (x2, y2)
                    zz = Z * Z % p
                    h = (x2 * zz - X) % p
                    r = (y2 * zz * Z - Y) % p
                    hh = h * h % p
                    hhh = h * hh % p
                    v = X * hh % p
                    X = (r * r - hhh - 2 * v) % p
                    Y = (r * (v - X) - Y * hhh) % p
                    Z = Z * h % p
        zinv = pow(Z, -1, p)
        zinv2 = zinv * zinv % p
        return EccPoint(curve, X * zinv2 % p, Y * zinv2 * zinv % p)

    __rmul__ = __mul__

    def x_bytes(self) -> bytes:
        """Big-endian X coordinate, the DHKey wire form."""
        if self.is_infinity:
            raise ValueError("point at infinity has no coordinates")
        return self.x.to_bytes(self.curve.byte_length, "big")

    def to_bytes(self) -> bytes:
        """Uncompressed point encoding (X || Y, no 0x04 prefix — the
        LMP encapsulated-payload form)."""
        if self.is_infinity:
            raise ValueError("point at infinity has no coordinates")
        size = self.curve.byte_length
        return self.x.to_bytes(size, "big") + self.y.to_bytes(size, "big")

    @classmethod
    def from_bytes(cls, curve: CurveParams, raw: bytes) -> "EccPoint":
        size = curve.byte_length
        if len(raw) != 2 * size:
            raise ValueError(f"expected {2 * size} bytes for {curve.name} point")
        x = int.from_bytes(raw[:size], "big")
        y = int.from_bytes(raw[size:], "big")
        return cls(curve, x, y)

    def __repr__(self) -> str:
        if self.is_infinity:
            return f"EccPoint({self.curve.name}, infinity)"
        return f"EccPoint({self.curve.name}, x={self.x:#x})"


#: rows of affine points; ``row[0]`` is unused
_Table = List[Tuple[Optional[Tuple[int, int]], ...]]

#: curve name -> fixed-base table, filled by the first generator multiplication
_GENERATOR_TABLES: Dict[str, _Table] = {}


def _generator_table(curve: CurveParams) -> _Table:
    """Affine ``j·16^i·G`` at ``table[i][j]`` for j in 1..15, one row per
    4-bit digit of n (``table[i][0]`` is unused).

    The rows are built in Jacobian coordinates and normalised together
    with one Montgomery batch inversion: about 0.14 MB for P-256.
    """
    p = curve.p
    jacobian: List[Tuple[int, int, int]] = []
    base = (curve.gx, curve.gy, 1)
    for _ in range((curve.n.bit_length() + 3) // 4):
        row = [base, _jacobian_double(base, p)]
        while len(row) < 15:
            row.append(_jacobian_add(row[-1], base, p))
        jacobian.extend(row)
        base = _jacobian_double(row[7], p)  # 16·base starts the next row
    prefix = []
    product = 1
    for _, _, z in jacobian:
        prefix.append(product)
        product = product * z % p
    inverse = pow(product, -1, p)  # 1 / (z_0 · … · z_last)
    affine: List[Tuple[int, int]] = [(0, 0)] * len(jacobian)
    for index in range(len(jacobian) - 1, -1, -1):
        x, y, z = jacobian[index]
        zinv = inverse * prefix[index] % p
        inverse = inverse * z % p
        zinv2 = zinv * zinv % p
        affine[index] = (x * zinv2 % p, y * zinv2 * zinv % p)
    return [
        (None, *affine[start : start + 15])
        for start in range(0, len(affine), 15)
    ]


def _jacobian_double(
    point: Tuple[int, int, int], p: int
) -> Tuple[int, int, int]:
    """2·P in Jacobian coordinates (a = −3); table construction only."""
    x, y, z = point
    delta = z * z % p
    gamma = y * y % p
    beta = x * gamma % p
    alpha = 3 * (x - delta) * (x + delta) % p
    x3 = (alpha * alpha - 8 * beta) % p
    return (
        x3,
        (alpha * (4 * beta - x3) - 8 * gamma * gamma) % p,
        2 * y * z % p,
    )


def _jacobian_add(
    first: Tuple[int, int, int], second: Tuple[int, int, int], p: int
) -> Tuple[int, int, int]:
    """P + Q in Jacobian coordinates for P ≠ ±Q; table construction only."""
    x1, y1, z1 = first
    x2, y2, z2 = second
    z1z1 = z1 * z1 % p
    z2z2 = z2 * z2 % p
    u1 = x1 * z2z2 % p
    s1 = y1 * z2z2 * z2 % p
    h = (x2 * z1z1 - u1) % p
    r = (y2 * z1z1 * z1 - s1) % p
    hh = h * h % p
    hhh = h * hh % p
    v = u1 * hh % p
    x3 = (r * r - hhh - 2 * v) % p
    return x3, (r * (v - x3) - s1 * hhh) % p, z1 * z2 * h % p


@dataclass(frozen=True)
class EccKeyPair:
    """An ECDH key pair (private scalar + public point)."""

    private: int
    public: EccPoint

    @property
    def curve(self) -> CurveParams:
        return self.public.curve


def generate_keypair(curve: CurveParams, rng) -> EccKeyPair:
    """Generate a key pair using a ``random.Random``-like source."""
    private = rng.randrange(1, curve.n)
    public = curve.generator * private
    return EccKeyPair(private, public)


def ecdh_shared_secret(private: int, peer_public: EccPoint) -> bytes:
    """Compute the DHKey: X coordinate of ``private * peer_public``."""
    if not 1 <= private < peer_public.curve.n:
        raise ValueError("private scalar out of range")
    shared = peer_public * private
    if shared.is_infinity:
        raise ValueError("degenerate ECDH result (invalid peer key)")
    return shared.x_bytes()
