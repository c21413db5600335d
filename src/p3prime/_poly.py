"""Small helpers for dense univariate polynomial coefficient lists.

Coefficient lists are indexed by power (index k holds the coefficient of
x**k).  The helpers are scalar-type agnostic: they work for floats and for
``fractions.Fraction`` alike, which the test oracles rely on.  ``TruncPoly``
wraps a list with a degree cap, and ``LazySeries`` forms a series one
coefficient at a time, so that formulas can be written as plain arithmetic
on either.
"""

from __future__ import annotations

import math
from itertools import repeat
from operator import mul, truediv


def padd(a, b):
    n = max(len(a), len(b))
    out = [0] * n
    for i, c in enumerate(a):
        out[i] = out[i] + c
    for i, c in enumerate(b):
        out[i] = out[i] + c
    return out


def pscale(a, c):
    return [c * x for x in a]


def pmul(a, b, cap=None):
    """Product of two coefficient lists, optionally truncated at degree cap."""
    if not a or not b:
        return []
    n = len(a) + len(b) - 1
    if cap is not None:
        n = min(n, cap + 1)
    out = [0] * n
    for i, x in enumerate(a):
        if x == 0 or i >= n:
            continue
        for j, y in enumerate(b):
            if i + j >= n:
                break
            out[i + j] = out[i + j] + x * y
    return out


def pcoef(a, b, j):
    """Coefficient of x**j in a*b; indices past the end of a or b count as zero.

    Sums a[i] * b[j - i] over rising i, the order of the plain generator
    form, so the result is the same bit for bit."""
    lo, hi = max(0, j - len(b) + 1), min(j, len(a) - 1)
    return sum(map(mul, a[lo : hi + 1], b[j - hi : j - lo + 1][::-1]))


def ptrim(a, cap):
    """Keep coefficients 0..cap, padding with zeros if shorter."""
    out = list(a[: cap + 1])
    while len(out) < cap + 1:
        out.append(0)
    return out


def psigma_avg(a, extra=0):
    """Integral over sigma in (0, 1) of sigma**extra * f(sigma*x), f = sum a_k x**k."""
    return [c / (k + extra + 1) for k, c in enumerate(a)]


def pder(a):
    return [k * c for k, c in enumerate(a)][1:] or [0]


def peval(a, x):
    acc = 0
    for c in reversed(a):
        acc = acc * x + c
    return acc


def precip(a, n):
    """Truncated reciprocal: first n+1 coefficients of 1/a, a[0] != 0."""
    inv0 = 1 / a[0]
    out = [inv0]
    for k in range(1, n + 1):
        acc = 0
        for j in range(1, min(k, len(a) - 1) + 1):
            acc = acc + a[j] * out[k - j]
        out.append(-acc * inv0)
    return out


def pinv_t(t0, n):
    """Coefficients of 1/(t0 + x) up to degree n (geometric series)."""
    out = [1 / t0]
    for _ in range(n):
        out.append(-out[-1] / t0)
    return out


class _Arithmetic:
    """Plain arithmetic on truncated or lazy series, numbers acting as
    constants, so a formula written as plain arithmetic runs on numbers and
    on these alike.  A subclass supplies ``_plus`` (a series or a number),
    ``_times`` (a series) and ``_scaled`` (a number and ``mul`` or
    ``truediv``), and ``sigma_avg``."""

    __slots__ = ()

    def __add__(self, other):
        return self._plus(other)

    __radd__ = __add__

    def __neg__(self):
        return self * -1

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        return self._times(other) if isinstance(other, _Arithmetic) else self._scaled(other, mul)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self._scaled(other, truediv)

    def __pow__(self, n: int):
        out = self
        for _ in range(n - 1):
            out = out * self
        return out


class TruncPoly(_Arithmetic):
    """Polynomial truncated after degree ``cap``: no operation forms a term
    past it.  All arithmetic goes through the primitives ``_sum``, ``_scale``
    and ``_prod``, which a subclass with other coefficient storage
    overrides."""

    __slots__ = ("c", "cap")

    def __init__(self, c, cap: int):
        self.c, self.cap = c[: cap + 1], cap

    _sum, _prod = staticmethod(padd), staticmethod(pmul)

    @staticmethod
    def _scale(a, c, op=mul):
        return list(map(op, a, repeat(c)))

    def _plus(self, other):
        b = other.c if isinstance(other, TruncPoly) else [other]
        return type(self)(self._sum(self.c, b), self.cap)

    def _times(self, other):
        return type(self)(self._prod(self.c, other.c, self.cap), self.cap)

    def _scaled(self, c, op):
        return type(self)(self._scale(self.c, c, op), self.cap)

    def sigma_avg(self, extra: int = 0):
        return type(self)(psigma_avg(self.c, extra), self.cap)


class LazySeries(_Arithmetic):
    """Power series formed one coefficient at a time, on demand.

    ``s[k]`` is coefficient k.  Each node of an expression (a sum, a scale,
    a ``/`` by a number, a product, ``**`` or ``sigma_avg``) caches its
    coefficients and forms coefficient k only when it is asked for, from
    its operands' coefficients up to k; a formed coefficient is never
    formed again.  A node carries a valuation ``val`` (its coefficients
    below it are zero) and a degree ``deg`` (those above it are zero;
    ``math.inf`` when unbounded), so coefficient k of a product sums
    ``a_i b_(k-i)`` only where both can be nonzero: ``eta * x`` never asks
    for ``x[k]``.  ``leaf`` reads a list that its owner extends, and asking
    it for a coefficient past the list's end raises ``IndexError``; ``poly``
    is a fixed polynomial.
    """

    __slots__ = ("c", "val", "deg", "_form")

    def __init__(self, form, val, deg, c=None):
        self.c = [0] * val if c is None else c
        self.val, self.deg, self._form = val, deg, form

    def __getitem__(self, k: int):
        return self._upto(k)[k]

    def _upto(self, k: int) -> list:
        """The coefficient cache, formed up to coefficient k."""
        c = self.c
        while len(c) <= k:
            c.append(self._form(len(c)))
        return c

    @staticmethod
    def leaf(c: list) -> "LazySeries":
        """Series reading the list ``c`` itself, which may grow later."""

        def unformed(k):
            raise IndexError(f"coefficient {k} of a leaf is not formed yet")

        return LazySeries(unformed, 0, math.inf, c)

    @staticmethod
    def poly(c) -> "LazySeries":
        """The polynomial with coefficient list ``c``."""
        c = list(c)
        return LazySeries(lambda k: 0, next((k for k, x in enumerate(c) if x != 0), len(c)), len(c) - 1, c)

    def _plus(self, other):
        b = other if isinstance(other, LazySeries) else LazySeries.poly([other])
        return LazySeries(lambda k: self[k] + b[k], min(self.val, b.val), max(self.deg, b.deg))

    def _times(self, b):
        a = self

        def form(k):
            # a_i b_(k-i) over rising i, as pcoef sums; empty past the degree
            lo, hi = max(a.val, k - b.deg), min(k - b.val, a.deg)
            if lo > hi:
                return 0
            return sum(map(mul, a._upto(hi)[lo : hi + 1], b._upto(k - lo)[k - hi : k - lo + 1][::-1]))

        return LazySeries(form, a.val + b.val, a.deg + b.deg)

    def _scaled(self, s, op):
        return LazySeries(lambda k: op(self[k], s), self.val, self.deg)

    def sigma_avg(self, extra: int = 0):
        return LazySeries(lambda k: self[k] / (k + extra + 1), self.val, self.deg)
