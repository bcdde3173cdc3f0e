"""Affine reference arithmetic for P-192 / P-256, kept as a test oracle.

This is the straightforward affine short-Weierstrass implementation:
every point addition inverts a field element and validates its result,
and scalar multiplication is plain right-to-left double-and-add.  It is
slow and obviously correct, which is what a differential oracle for
``repro.crypto.ecc`` needs.  Nothing under ``src/`` imports it.
"""

from __future__ import annotations

from typing import Optional

from repro.crypto.ecc import CurveParams


class AffinePoint:
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
    def infinity(cls, curve: CurveParams) -> "AffinePoint":
        return cls(curve, None, None)

    @classmethod
    def generator(cls, curve: CurveParams) -> "AffinePoint":
        return cls(curve, curve.gx, curve.gy)

    @property
    def is_infinity(self) -> bool:
        return self.x is None

    def _on_curve(self) -> bool:
        p = self.curve.p
        return (
            self.y * self.y - (self.x**3 + self.curve.a * self.x + self.curve.b)
        ) % p == 0

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AffinePoint):
            return NotImplemented
        return (
            self.curve.name == other.curve.name
            and self.x == other.x
            and self.y == other.y
        )

    def __hash__(self) -> int:
        return hash((self.curve.name, self.x, self.y))

    def __neg__(self) -> "AffinePoint":
        if self.is_infinity:
            return self
        return AffinePoint(self.curve, self.x, (-self.y) % self.curve.p)

    def __add__(self, other: "AffinePoint") -> "AffinePoint":
        if self.curve.name != other.curve.name:
            raise ValueError("cannot add points on different curves")
        if self.is_infinity:
            return other
        if other.is_infinity:
            return self
        p = self.curve.p
        if self.x == other.x and (self.y + other.y) % p == 0:
            return AffinePoint.infinity(self.curve)
        if self == other:
            slope = (3 * self.x * self.x + self.curve.a) * pow(2 * self.y, -1, p)
        else:
            slope = (other.y - self.y) * pow(other.x - self.x, -1, p)
        slope %= p
        x3 = (slope * slope - self.x - other.x) % p
        y3 = (slope * (self.x - x3) - self.y) % p
        return AffinePoint(self.curve, x3, y3)

    def __mul__(self, scalar: int) -> "AffinePoint":
        """Scalar multiplication by double-and-add."""
        if scalar < 0:
            return (-self) * (-scalar)
        result = AffinePoint.infinity(self.curve)
        addend = self
        while scalar:
            if scalar & 1:
                result = result + addend
            addend = addend + addend
            scalar >>= 1
        return result

    __rmul__ = __mul__

    def __repr__(self) -> str:
        if self.is_infinity:
            return f"AffinePoint({self.curve.name}, infinity)"
        return f"AffinePoint({self.curve.name}, x={self.x:#x})"
