"""The Gaussian rational as a pair of Fractions: a test oracle for
``cherncurv.scalars.QQi``, which stores (a + b i) / d on ints.

The class below computes every operation on the Fraction parts directly,
so it shares no code with the integer representation it checks.
"""

from fractions import Fraction
from numbers import Rational


class PairQQi:
    """Gaussian rational a + b*sqrt(-1) with exact Fraction parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        if isinstance(re, PairQQi):
            re, im = re.re, re.im + Fraction(im)
        self.re = Fraction(re)
        self.im = Fraction(im)

    # -- arithmetic -----------------------------------------------------
    def _coerce(self, other):
        if isinstance(other, PairQQi):
            return other
        if isinstance(other, Rational):
            return PairQQi(other)
        return NotImplemented

    # Zero operands short-circuit: sparse structure constants make most
    # terms of a dense contraction zero, and Fraction arithmetic is costly.
    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        if not (o.re or o.im):
            return self
        if not (self.re or self.im):
            return o
        return PairQQi(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return PairQQi(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return PairQQi(o.re - self.re, o.im - self.im)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        if not (self.re or self.im):
            return self
        if not (o.re or o.im):
            return o
        return PairQQi(self.re * o.re - self.im * o.im,
                   self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        d = o.re * o.re + o.im * o.im
        if d == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return PairQQi((self.re * o.re + self.im * o.im) / d,
                   (self.im * o.re - self.re * o.im) / d)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return o / self

    def __neg__(self):
        return PairQQi(-self.re, -self.im)

    # the parts under python's complex-number names, so that code written
    # against ``.real``/``.imag`` serves both backends
    real = property(lambda self: self.re)
    imag = property(lambda self: self.im)

    def conjugate(self):
        return PairQQi(self.re, -self.im)

    # -- predicates and conversions -------------------------------------
    def __eq__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __bool__(self):
        return self.re != 0 or self.im != 0

    def __complex__(self):
        return complex(self.re) + 1j * complex(self.im)

    def __abs__(self):
        return abs(complex(self))

    def __repr__(self):
        return f"PairQQi({self.re}, {self.im})"

