"""Exact multivariate Laurent polynomials over the t-coefficient ring.

An XPoly is a finite sum of monomials in named variables (x1, x2, ...,
y1, ...) whose coefficients are Laurent polynomials in t.  Storage is
one dict mapping (t, e_1, ..., e_n) tuples, the power of t in slot 0
and one slot per variable after it (negative allowed), to nonzero int
coefficients.  Values are canonical:

  * variable names are kept in natural sorted order (x1 < x2 < x10 < y1),
  * a variable appearing with exponent 0 in every term is dropped,
  * zero coefficients are never stored.

Binary operations align variable lists on their union (merge_vars), so
polynomials built over different alphabets compare and combine correctly.

The public constructor takes {exponents: LaurentPoly or int}, validates
it and canonicalizes it.  Results of arithmetic go through the private
XPoly._trusted, which only drops zero coefficients and the variables
that cancellation left unused.  Products multiply the letters t^s x^e
by adding keys, t included (see _mul_into); a product by the constant
1 returns the other factor, which is safe because no value is changed
in place.  Values leave as one LaurentPoly per monomial (_grouped)
only to be read or rendered.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from operator import add, index

from .laurent import LaurentPoly, ZERO as L_ZERO, NotDivisibleError, _fmt_coeff, _joined

_VAR_RE = re.compile(r"^([A-Za-z]+)(\d*)$")


def var_key(name):
    """Sort key giving the natural order x1 < x2 < x10 < y1."""
    m = _VAR_RE.match(name)
    if not m:
        raise ValueError(f"bad variable name {name!r}")
    head, num = m.groups()
    return (head, int(num) if num else 0)


def _numbered(head, n):
    if n < 0:
        raise ValueError(f"variable count must be nonnegative, got {n}")
    return tuple(f"{head}{i}" for i in range(1, n + 1))


def xvars(n):
    return _numbered("x", n)


def yvars(n):
    return _numbered("y", n)


def merge_vars(*groups):
    """The union of the variable names in `groups`, sorted by var_key."""
    return tuple(sorted(set().union(*groups), key=var_key))


def _mul_into(acc, a, b):
    """acc += a * b over (t, exponents) keys.

    `a` and `b` iterate over (key, int) pairs over the same variables;
    `acc` maps keys to ints and may keep zero entries, which
    XPoly._trusted drops.
    """
    b = list(b)
    get = acc.get
    for k1, v1 in a:
        for k2, v2 in b:
            k = tuple(map(add, k1, k2))
            acc[k] = get(k, 0) + v1 * v2


def _grouped(terms):
    """{exponents: LaurentPoly} of a dict of (t, exponents) keys."""
    out = {}
    for k, v in terms.items():
        out.setdefault(k[1:], {})[k[0]] = v
    return {e: LaurentPoly._trusted(d) for e, d in out.items()}


def _degree(k):
    """Total degree in every variable of a (t, exponents) key."""
    return sum(k) - k[0]


def _linear_combination(pairs):
    """The sum of c * f over (XPoly f, int or LaurentPoly c) pairs,
    built once."""
    pairs = [(f, _coerce_coeff(c)) for f, c in pairs]
    vars = merge_vars(*(f.vars for f, _ in pairs))
    zero = (0,) * len(vars)
    acc = {}
    for f, c in pairs:
        const = [((s,) + zero, m) for s, m in c.coeffs.items()]
        _mul_into(acc, f._expand_to(vars).items(), const)
    return XPoly._trusted(vars, acc)


# the terms of the constant 1, which has no variables
_UNIT = {(0,): 1}


def _coerce_coeff(c):
    return c if isinstance(c, LaurentPoly) else LaurentPoly({0: c})


def _pruned(vars, terms):
    """`vars` and `terms` without zero coefficients and without the
    variables that no term uses."""
    if not all(terms.values()):
        terms = {k: v for k, v in terms.items() if v}
    used = [i for i in range(1, len(vars) + 1) if any(k[i] for k in terms)]
    if len(used) < len(vars):
        vars = tuple(vars[i - 1] for i in used)
        terms = {(k[0], *(k[i] for i in used)): v for k, v in terms.items()}
    return vars, terms


class XPoly:
    __slots__ = ("vars", "terms")

    def __init__(self, vars=(), terms=None):
        vars = tuple(vars)
        if len(set(vars)) < len(vars):
            raise ValueError(f"repeated variable name in {vars}")
        order = sorted(range(len(vars)), key=lambda i: var_key(vars[i]))
        flat = {}
        for exps, c in (terms or {}).items():
            exps = tuple(map(index, exps))
            if len(exps) != len(vars):
                raise ValueError("exponent tuple does not match variables")
            exps = tuple(exps[i] for i in order)
            for s, v in _coerce_coeff(c).coeffs.items():
                key = (s, *exps)
                flat[key] = flat.get(key, 0) + v
        self.vars, self.terms = _pruned(tuple(vars[i] for i in order), flat)

    @classmethod
    def _trusted(cls, vars, terms):
        """Build from a tuple `vars` sorted by var_key and int
        coefficients keyed by (t, exponents) tuples: only drops zero
        coefficients and the variables that cancellation left unused."""
        res = object.__new__(cls)
        res.vars, res.terms = _pruned(vars, terms)
        return res

    # -- constructors ------------------------------------------------

    @classmethod
    def const(cls, c):
        return cls._trusted((), {(s,): v for s, v in _coerce_coeff(c).coeffs.items()})

    @classmethod
    def var(cls, name):
        return cls((name,), {(1,): 1})

    @classmethod
    def monomial(cls, vars, exps, coeff=1):
        return cls(tuple(vars), {tuple(exps): coeff})

    # -- alignment ---------------------------------------------------

    def _expand_to(self, vars):
        """Terms re-keyed over the superset `vars` (must contain self.vars)."""
        if vars == self.vars:
            return self.terms
        pos = {v: i for i, v in enumerate(vars, 1)}
        idx = [pos[v] for v in self.vars]
        n = len(vars) + 1
        out = {}
        for k, c in self.terms.items():
            key = [k[0]] + [0] * (n - 1)
            for i, e in zip(idx, k[1:]):
                key[i] = e
            out[tuple(key)] = c
        return out

    def _aligned(self, other):
        if self.vars == other.vars:
            return self.vars, self.terms, other.terms
        vars = merge_vars(self.vars, other.vars)
        return vars, self._expand_to(vars), other._expand_to(vars)

    # -- ring structure ----------------------------------------------

    @staticmethod
    def _coerce(other):
        if isinstance(other, XPoly):
            return other
        if isinstance(other, (int, LaurentPoly)):
            return XPoly.const(other)
        return NotImplemented

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.vars == other.vars and self.terms == other.terms

    def __hash__(self):
        return hash((self.vars, frozenset(self.terms.items())))

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        vars, a, b = self._aligned(other)
        out = dict(a)
        for k, v in b.items():
            out[k] = out.get(k, 0) + v
        return XPoly._trusted(vars, out)

    __radd__ = __add__

    def __neg__(self):
        return XPoly._trusted(self.vars, {k: -v for k, v in self.terms.items()})

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
        # a factor 1, the constant over no variables, gives the other one
        if other.terms == _UNIT:
            return self
        if self.terms == _UNIT:
            return other
        vars, a, b = self._aligned(other)
        acc = {}
        _mul_into(acc, a.items(), b.items())
        return XPoly._trusted(vars, acc)

    __rmul__ = __mul__

    def mul_capped(self, other, cap):
        """Product with terms of total degree > cap discarded.

        Degree counts every variable, not t.  Valid as a series
        truncation when both factors are supported in degrees >= 0,
        which holds everywhere it is used.
        """
        other = self._coerce(other)
        vars, a, b = self._aligned(other)
        # b by ascending degree: the partners of a degree-d term of a
        # are a prefix of it
        bs = sorted(b.items(), key=lambda kv: _degree(kv[0]))
        degs = [_degree(k) for k, _ in bs]
        by_deg = {}
        for k, v in a.items():
            by_deg.setdefault(_degree(k), []).append((k, v))
        acc = {}
        for d, part in by_deg.items():
            _mul_into(acc, part, bs[: bisect_right(degs, cap - d)])
        return XPoly._trusted(vars, acc)

    def scale(self, c):
        c = _coerce_coeff(c)
        if len(c.coeffs) != 1:
            return _linear_combination(((self, c),))
        ((s, m),) = c.coeffs.items()  # m*t^s: add s to slot 0
        return XPoly._trusted(
            self.vars, {(k[0] + s, *k[1:]): m * v for k, v in self.terms.items()}
        )

    # -- structure queries --------------------------------------------

    def coeff_of(self, exps, vars):
        """Coefficient of the monomial with the given exponents.

        `exps` is matched against `vars`, one distinct name per exponent;
        variables of self outside `vars` must have exponent 0 for a hit.
        """
        if len(exps) != len(vars):
            raise ValueError("exponent tuple does not match variables")
        given = dict(zip(vars, exps))
        if len(given) < len(vars):
            raise ValueError(f"repeated variable name in {tuple(vars)}")
        if any(given[v] for v in given if v not in self.vars):
            return L_ZERO
        key = tuple(given.get(v, 0) for v in self.vars)
        return _grouped(self.terms).get(key, L_ZERO)

    def truncate_degree(self, cap):
        """Drop terms whose total degree in every variable exceeds cap."""
        out = {k: v for k, v in self.terms.items() if _degree(k) <= cap}
        return XPoly._trusted(self.vars, out)

    # -- substitutions -------------------------------------------------

    def _rekeyed(self, vars, key):
        """Every exponent tuple over `vars` (which must contain self.vars)
        sent through the one-to-one map `key`; t is kept."""
        vars = tuple(vars)
        out = {(k[0], *key(k[1:])): v for k, v in self._expand_to(vars).items()}
        order = sorted(range(len(vars)), key=lambda i: var_key(vars[i]))
        if order != list(range(len(vars))):  # unsorted slots
            vars = tuple(vars[i] for i in order)
            out = {(k[0], *(k[i + 1] for i in order)): v for k, v in out.items()}
        return XPoly._trusted(vars, out)

    def permute_exponents(self, perm, vars):
        """Exponent slot i takes the value of slot perm[i].

        Slots refer to `vars` (self may omit some of them).  Summed over
        all of S_n with signs this gives the antisymmetrizer regardless
        of direction convention.
        """
        if sorted(perm) != list(range(len(vars))):
            raise ValueError("not a permutation of the variable slots")
        return self._rekeyed(vars, lambda e: tuple(e[p] for p in perm))

    def reverse_invert(self, vars):
        """Substitute x_i -> 1/x_{n+1-i} over `vars`."""
        return self._rekeyed(vars, lambda e: tuple(-x for x in reversed(e)))

    # -- exact division -------------------------------------------------

    def exact_div_diff(self, a, b):
        """Exact quotient by (a - b) for variable names a, b.

        Groups terms by the power of t and the exponents away from
        {a, b}, and by the total a+b degree; inside a group the poly is
        x_b^d * p(w) with w = a/b and integer coefficients, and division
        by a - b = x_b (w - 1) is one-variable.
        """
        vars = merge_vars(self.vars, (a, b))
        ia, ib = vars.index(a) + 1, vars.index(b) + 1
        groups = {}
        for k, v in self._expand_to(vars).items():
            rest = list(k)
            rest[ia] = rest[ib] = 0
            groups.setdefault((tuple(rest), k[ia] + k[ib]), {})[k[ia]] = v
        out = {}
        for (rest, d), coeffs in groups.items():
            key = list(rest)
            hi = max(coeffs)
            running = 0
            for j in range(min(coeffs), hi + 1):
                running += coeffs.get(j, 0)
                if running and j < hi:
                    key[ia], key[ib] = j, d - 1 - j
                    out[tuple(key)] = -running
            if running:
                raise NotDivisibleError(f"not divisible by {a} - {b}")
        return XPoly._trusted(vars, out)

    # -- rendering / io --------------------------------------------------

    def __str__(self):
        parts = []
        for e, c in sorted(_grouped(self.terms).items(), reverse=True):
            mono = "*".join(
                v if p == 1 else f"{v}^{p}"
                for v, p in zip(self.vars, e)
                if p
            )
            if mono:
                parts.append(_fmt_coeff(c, mono))
            else:
                parts.append(str(c) if len(c.coeffs) == 1 else f"({c})")
        return _joined(parts)

    def __repr__(self):
        return f"XPoly({self})"

    def to_json(self):
        return {
            "vars": list(self.vars),
            "terms": [
                {"exps": list(e), "poly": c.to_json()}
                for e, c in sorted(_grouped(self.terms).items())
            ],
        }

    @classmethod
    def from_json(cls, data):
        return cls(
            tuple(data["vars"]),
            {
                tuple(t["exps"]): LaurentPoly.from_json(t["poly"])
                for t in data["terms"]
            },
        )


X_ONE = XPoly.const(1)
