"""Tagged extended-real values.

Entropic functionals can legitimately take the value +infinity (relative
entropy under support violation, jump estimates of divergent families).
That value is carried as an explicit tag rather than a sentinel float, so
it can never arise silently from overflow.  Arithmetic follows the usual
conventions: any sum containing +infinity is +infinity, and scaling by a
nonnegative factor is homogeneous with 0 * inf = 0.
"""

from __future__ import annotations

import math


class ExtendedReal:
    __slots__ = ("_value", "_infinite")

    def __init__(self, value: float = 0.0, infinite: bool = False):
        self._infinite = bool(infinite)
        self._value = 0.0 if self._infinite else float(value)

    @classmethod
    def infinity(cls) -> "ExtendedReal":
        return cls(0.0, infinite=True)

    @property
    def is_infinite(self) -> bool:
        return self._infinite

    @property
    def is_finite(self) -> bool:
        return not self._infinite

    @property
    def value(self) -> float:
        """Finite value; raises on the +infinity marker."""
        if self._infinite:
            raise OverflowError("extended real is +infinity")
        return self._value

    def __float__(self) -> float:
        return math.inf if self._infinite else self._value

    @staticmethod
    def _coerce(x) -> "ExtendedReal":
        if isinstance(x, ExtendedReal):
            return x
        x = float(x)
        if math.isinf(x):
            if x < 0:
                raise ValueError("negative infinity is not representable")
            return ExtendedReal.infinity()
        return ExtendedReal(x)

    def __add__(self, other) -> "ExtendedReal":
        other = self._coerce(other)
        if self._infinite or other._infinite:
            return ExtendedReal.infinity()
        return ExtendedReal(self._value + other._value)

    __radd__ = __add__

    def __sub__(self, other) -> "ExtendedReal":
        other = self._coerce(other)
        if other._infinite:
            raise ArithmeticError("cannot subtract +infinity")
        if self._infinite:
            return ExtendedReal.infinity()
        return ExtendedReal(self._value - other._value)

    def __mul__(self, factor) -> "ExtendedReal":
        factor = float(factor)
        if factor < 0:
            raise ValueError("scaling factor must be nonnegative")
        if self._infinite:
            # Homogeneity convention: 0 * inf = 0.
            return ExtendedReal(0.0) if factor == 0.0 else ExtendedReal.infinity()
        return ExtendedReal(self._value * factor)

    __rmul__ = __mul__

    def _cmp_key(self) -> float:
        return math.inf if self._infinite else self._value

    def __le__(self, other) -> bool:
        return self._cmp_key() <= self._coerce(other)._cmp_key()

    def __lt__(self, other) -> bool:
        return self._cmp_key() < self._coerce(other)._cmp_key()

    def __ge__(self, other) -> bool:
        return self._cmp_key() >= self._coerce(other)._cmp_key()

    def __gt__(self, other) -> bool:
        return self._cmp_key() > self._coerce(other)._cmp_key()

    def __eq__(self, other) -> bool:
        try:
            other = self._coerce(other)
        except (TypeError, ValueError):
            return NotImplemented
        if self._infinite or other._infinite:
            return self._infinite and other._infinite
        return self._value == other._value

    def __hash__(self):
        return hash(("ExtendedReal", self._cmp_key()))

    def __repr__(self) -> str:
        return "ExtendedReal(+inf)" if self._infinite else f"ExtendedReal({self._value!r})"

