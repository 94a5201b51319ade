"""Exact Laurent polynomials in the deformation parameter t.

Coefficients are arbitrary-precision Python ints and exponents may be
negative; the constructor reads both with operator.index, so a float
raises TypeError instead of being truncated.  Values are canonical: a
zero coefficient is never stored, so two polynomials are equal iff
their coefficient dicts are equal.  All operations return new objects;
constructed values are never mutated.
"""

from __future__ import annotations

from operator import index


class NotDivisibleError(ArithmeticError):
    """Raised when an exact division leaves a nonzero remainder."""


def _accumulate(out, key, c):
    """out[key] += c for a dict of coefficients, dropping a zero sum."""
    s = out.get(key)
    s = c if s is None else s + c
    if s:
        out[key] = s
    else:
        out.pop(key, None)


class LaurentPoly:
    """Sparse Laurent polynomial sum_k c_k * t^k, stored as {k: c_k}."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        data = {}
        if coeffs:
            for k, c in coeffs.items():
                c = index(c)
                if c:
                    data[index(k)] = c
        self.coeffs = data

    @classmethod
    def _trusted(cls, coeffs):
        """Wrap a dict of int exponents to nonzero ints without copying."""
        res = object.__new__(cls)
        res.coeffs = coeffs
        return res

    @classmethod
    def t_power(cls, k, c=1):
        return cls({k: c})

    @staticmethod
    def _coerce(other):
        if isinstance(other, LaurentPoly):
            return other
        if isinstance(other, int):
            return LaurentPoly({0: other})
        return NotImplemented

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            _accumulate(out, k, c)
        return LaurentPoly._trusted(out)

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly._trusted({k: -c for k, c in self.coeffs.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = {}
        b = other.coeffs.items()
        for k1, c1 in self.coeffs.items():
            for k2, c2 in b:
                k = k1 + k2
                out[k] = out.get(k, 0) + c1 * c2
        return LaurentPoly._trusted({k: c for k, c in out.items() if c})

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative powers are not defined here")
        res = ONE
        base = self
        while n:
            if n & 1:
                res = res * base
            base = base * base
            n >>= 1
        return res

    def shift(self, k):
        """Multiply by t^k."""
        return LaurentPoly._trusted({e + k: c for e, c in self.coeffs.items()})

    def exact_div(self, other):
        """Exact quotient self / other; NotDivisibleError if impossible."""
        other = self._coerce(other)
        if not other:
            raise ZeroDivisionError("division by the zero polynomial")
        if not self:
            return ZERO
        am = min(self.coeffs)
        bm = min(other.coeffs)
        rem = {e - am: c for e, c in self.coeffs.items()}
        div = {e - bm: c for e, c in other.coeffs.items()}
        bdeg = max(div)
        blead = div[bdeg]
        quot = {}
        while rem:
            rdeg = max(rem)
            if rdeg < bdeg:
                raise NotDivisibleError(f"{self} is not divisible by {other}")
            q, r = divmod(rem[rdeg], blead)
            if r:
                raise NotDivisibleError(f"{self} is not divisible by {other}")
            qe = rdeg - bdeg
            quot[qe] = q
            for e, c in div.items():
                _accumulate(rem, e + qe, -q * c)
        return LaurentPoly._trusted({e + am - bm: c for e, c in quot.items()})

    def min_exp(self):
        return min(self.coeffs) if self.coeffs else 0

    def at_t_zero(self):
        """Value at t = 0; only defined when no exponent is negative."""
        if self.coeffs and min(self.coeffs) < 0:
            raise ValueError("negative exponent present, no value at t=0")
        return self.coeffs.get(0, 0)

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for k in sorted(self.coeffs):
            c = self.coeffs[k]
            if k == 0:
                body = str(abs(c))
            else:
                tp = "t" if k == 1 else f"t^{k}"
                body = tp if abs(c) == 1 else f"{abs(c)}*{tp}"
            if not parts:
                parts.append(body if c > 0 else "-" + body)
            else:
                parts.append(("+ " if c > 0 else "- ") + body)
        return " ".join(parts)

    def __repr__(self):
        return f"LaurentPoly({self})"

    def to_json(self):
        return {str(k): c for k, c in sorted(self.coeffs.items())}

    @classmethod
    def from_json(cls, data):
        return cls({int(k): int(c) for k, c in data.items()})


def _fmt_coeff(c, body):
    """Render the product of the LaurentPoly c and the text `body`."""
    cs = str(c)
    if cs in ("1", "-1"):
        return cs[:-1] + body  # no factor 1, only its sign
    if len(c.coeffs) == 1 and not cs.startswith("-"):
        return f"{cs}*{body}"
    return f"({cs})*{body}"


ZERO = LaurentPoly()
ONE = LaurentPoly({0: 1})
T = LaurentPoly({1: 1})


def t_power(k, c=1):
    return LaurentPoly.t_power(k, c)
