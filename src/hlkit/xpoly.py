"""Exact multivariate Laurent polynomials over the t-coefficient ring.

An XPoly is a finite sum of monomials in named variables (x1, x2, ...,
y1, ...) whose coefficients are LaurentPoly values in t.  Storage is a
dict mapping exponent tuples (one slot per variable, negative allowed)
to coefficients.  Values are canonical:

  * variable names are kept in natural sorted order (x1 < x2 < x10 < y1),
  * a variable appearing with exponent 0 in every term is dropped,
  * zero coefficients are never stored.

Binary operations align variable lists automatically, so polynomials
built over different alphabets compare and combine correctly.

The public constructor validates and canonicalizes its input.  Results
of arithmetic are canonical by construction and go through the private
XPoly._trusted, which only drops the variables that cancellation left
unused.  Products and sums of many terms accumulate flat int
coefficients, {exponents: {t exponent: int}} (see _mul_into), and turn
each output coefficient into a LaurentPoly once (_unflatten).
"""

from __future__ import annotations

import re
from bisect import bisect_right
from operator import add

from .laurent import LaurentPoly, NotDivisibleError, ZERO as L_ZERO, ONE as L_ONE
from .laurent import _accumulate, _fmt_coeff

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


def merge_vars(a, b):
    return tuple(sorted(set(a) | set(b), key=var_key))


def _mul_into(acc, a, b, sign=1):
    """acc += sign * a * b over flat int coefficients.

    `a` and `b` iterate over (exponent tuple, {t exponent: int}) pairs
    over the same variables; `acc` maps exponent tuples to such dicts
    and may keep zero entries, which _unflatten drops.
    """
    b = [(e2, c2.items()) for e2, c2 in b]
    for e1, c1 in a:
        c1 = [(t, sign * v) for t, v in c1.items()]
        for e2, c2 in b:
            k = tuple(map(add, e1, e2))
            d = acc.get(k)
            if d is None:
                d = acc[k] = {}
            for t1, v1 in c1:
                for t2, v2 in c2:
                    t = t1 + t2
                    d[t] = d.get(t, 0) + v1 * v2


def _flat(terms):
    """The (exponents, int coefficients) pairs of a term dict."""
    return [(e, c.coeffs) for e, c in terms.items()]


def _nonzero(acc):
    """The flat coefficients in `acc` without zero entries, dropping the
    terms that are left empty."""
    out = {}
    for k, d in acc.items():
        d = {t: v for t, v in d.items() if v}
        if d:
            out[k] = d
    return out


def _unflatten(acc):
    """Term dict of the nonzero flat coefficients in `acc`."""
    return {k: LaurentPoly._trusted(d) for k, d in _nonzero(acc).items()}


def _degree(vars, count_vars):
    """Total degree of an exponent tuple over `vars`, counting only the
    variables in `count_vars` (default: all)."""
    if count_vars is None:
        return sum
    cs = set(count_vars)
    mask = [v in cs for v in vars]
    return lambda e: sum(x for x, m in zip(e, mask) if m)


def _sorted_vars(polys):
    """The union of the variables of `polys`, sorted by var_key."""
    return tuple(sorted({v for f in polys for v in f.vars}, key=var_key))


def _linear_combination(pairs):
    """The sum of c * f over (XPoly f, int or LaurentPoly c) pairs,
    built once."""
    pairs = [(f, _coerce_coeff(c)) for f, c in pairs]
    vars = _sorted_vars(f for f, _ in pairs)
    zero = (0,) * len(vars)
    acc = {}
    for f, c in pairs:
        _mul_into(acc, _flat(f._expand_to(vars)), ((zero, c.coeffs),))
    return XPoly._trusted(vars, _unflatten(acc))


def _coerce_coeff(c):
    if isinstance(c, LaurentPoly):
        return c
    if isinstance(c, int):
        return LaurentPoly.from_int(c)
    raise TypeError(f"cannot use {type(c).__name__} as a coefficient")


class XPoly:
    __slots__ = ("vars", "terms")

    def __init__(self, vars=(), terms=None):
        vars = tuple(vars)
        clean = {}
        if terms:
            for exps, c in terms.items():
                c = _coerce_coeff(c)
                if not c:
                    continue
                exps = tuple(int(e) for e in exps)
                if len(exps) != len(vars):
                    raise ValueError("exponent tuple does not match variables")
                _accumulate(clean, exps, c)
        # sort variables, drop the ones never used
        order = sorted(range(len(vars)), key=lambda i: var_key(vars[i]))
        used = [i for i in order if any(e[i] for e in clean)]
        self.vars = tuple(vars[i] for i in used)
        if used == list(range(len(vars))):
            self.terms = clean
        else:
            self.terms = {tuple(e[i] for i in used): c for e, c in clean.items()}

    @classmethod
    def _trusted(cls, vars, terms):
        """Build from a tuple `vars` sorted by var_key and nonzero
        LaurentPoly coefficients keyed by int tuples: only drops the
        variables that cancellation left unused."""
        used = [i for i in range(len(vars)) if any(e[i] for e in terms)]
        if len(used) < len(vars):
            vars = tuple(vars[i] for i in used)
            terms = {tuple(e[i] for i in used): c for e, c in terms.items()}
        res = object.__new__(cls)
        res.vars = vars
        res.terms = terms
        return res

    # -- constructors ------------------------------------------------

    @classmethod
    def zero(cls):
        return cls._trusted((), {})

    @classmethod
    def const(cls, c):
        c = _coerce_coeff(c)
        return cls._trusted((), {(): c} if c else {})

    @classmethod
    def var(cls, name, exp=1):
        return cls((name,), {(exp,): L_ONE})

    @classmethod
    def monomial(cls, vars, exps, coeff=1):
        return cls(tuple(vars), {tuple(exps): _coerce_coeff(coeff)})

    # -- alignment ---------------------------------------------------

    def _expand_to(self, vars):
        """Terms re-keyed over the superset `vars` (must contain self.vars)."""
        if vars == self.vars:
            return self.terms
        pos = {v: i for i, v in enumerate(vars)}
        idx = [pos[v] for v in self.vars]
        n = len(vars)
        out = {}
        for exps, c in self.terms.items():
            key = [0] * n
            for i, e in zip(idx, exps):
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
        for k, c in b.items():
            _accumulate(out, k, c)
        return XPoly._trusted(vars, out)

    __radd__ = __add__

    def __neg__(self):
        return XPoly._trusted(self.vars, {k: -c for k, c in self.terms.items()})

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
        vars, a, b = self._aligned(other)
        acc = {}
        _mul_into(acc, _flat(a), _flat(b))
        return XPoly._trusted(vars, _unflatten(acc))

    __rmul__ = __mul__

    def mul_capped(self, other, cap, count_vars=None):
        """Product with terms of degree > cap discarded.

        Degree counts only the variables in `count_vars` (default: all).
        Valid as a series truncation when both factors are supported in
        counted degrees >= 0, which holds everywhere it is used.
        """
        other = self._coerce(other)
        vars, a, b = self._aligned(other)
        deg = _degree(vars, count_vars)
        # b by ascending degree: the partners of a degree-d term of a
        # are a prefix of it
        bs = sorted(_flat(b), key=lambda ec: deg(ec[0]))
        degs = [deg(e) for e, _ in bs]
        by_deg = {}
        for e, c in a.items():
            by_deg.setdefault(deg(e), []).append((e, c.coeffs))
        acc = {}
        for d, part in by_deg.items():
            _mul_into(acc, part, bs[: bisect_right(degs, cap - d)])
        return XPoly._trusted(vars, _unflatten(acc))

    def scale(self, c):
        c = _coerce_coeff(c)
        if not c:
            return X_ZERO
        if len(c.coeffs) > 1:
            return XPoly._trusted(self.vars, {k: v * c for k, v in self.terms.items()})
        # one term m*t^s: shift each coefficient and multiply it by m
        ((s, m),) = c.coeffs.items()
        return XPoly._trusted(
            self.vars,
            {
                k: LaurentPoly._trusted({e + s: m * a for e, a in v.coeffs.items()})
                for k, v in self.terms.items()
            },
        )

    def exact_div_scalar(self, c):
        c = _coerce_coeff(c)
        return XPoly._trusted(
            self.vars, {k: v.exact_div(c) for k, v in self.terms.items()}
        )

    # -- structure queries --------------------------------------------

    def coeff_of(self, exps, vars=None):
        """Coefficient of the monomial with the given exponents.

        `exps` is matched against `vars` (default self.vars); variables of
        self outside `vars` must have exponent 0 for a hit.
        """
        if vars is None:
            return self.terms.get(tuple(exps), L_ZERO)
        given = dict(zip(vars, exps))
        key = tuple(given.get(v, 0) for v in self.vars)
        extra = [v for v in given if v not in self.vars and given[v]]
        if extra:
            return L_ZERO
        return self.terms.get(key, L_ZERO)

    def degree_in(self, names=None):
        """Max total degree over the named variables (0 for the zero poly)."""
        if not self.terms:
            return 0
        return max(map(_degree(self.vars, names), self.terms))

    def truncate_degree(self, cap, count_vars=None):
        """Drop terms whose counted total degree exceeds cap."""
        deg = _degree(self.vars, count_vars)
        out = {e: c for e, c in self.terms.items() if deg(e) <= cap}
        return XPoly._trusted(self.vars, out)

    def truncate_t_above(self, cap):
        out = {e: c.truncate_above(cap) for e, c in self.terms.items()}
        return XPoly._trusted(self.vars, {e: c for e, c in out.items() if c})

    # -- substitutions -------------------------------------------------

    def _rekeyed(self, vars, key):
        """Every exponent tuple over `vars` (default self.vars, which it
        must contain) sent through the one-to-one map `key`."""
        vars = self.vars if vars is None else tuple(vars)
        out = {key(e): c for e, c in self._expand_to(vars).items()}
        if vars is not self.vars and vars != merge_vars(vars, ()):
            return XPoly(vars, out)  # unsorted slots: let the constructor sort
        return XPoly._trusted(vars, out)

    def permute_exponents(self, perm, vars=None):
        """Exponent slot i takes the value of slot perm[i].

        Slots refer to `vars` when given (self may omit some of them).
        Summed over all of S_n with signs this gives the antisymmetrizer
        regardless of direction convention.
        """
        n = len(self.vars if vars is None else tuple(vars))
        if sorted(perm) != list(range(n)):
            raise ValueError("not a permutation of the variable slots")
        return self._rekeyed(vars, lambda e: tuple(e[p] for p in perm))

    def swap_positions(self, i, j, vars=None):
        """Exchange the exponents of the i-th and j-th variables (0-based).

        Positions refer to `vars` when given; variables absent from self
        are treated as exponent 0 everywhere.
        """

        def swapped(e):
            le = list(e)
            le[i], le[j] = le[j], le[i]
            return tuple(le)

        return self._rekeyed(vars, swapped)

    def reverse_invert(self, vars=None):
        """Substitute x_i -> 1/x_{n+1-i} over `vars` (default self.vars)."""
        return self._rekeyed(vars, lambda e: tuple(-x for x in reversed(e)))

    # -- exact division -------------------------------------------------

    def exact_div_diff(self, a, b):
        """Exact quotient by (a - b) for variable names a, b.

        Groups terms by the exponents away from {a, b} and by the total
        a+b degree; inside a group the poly is x_b^d * p(w) with
        w = a/b, and division by a - b = x_b (w - 1) is one-variable.
        """
        vars = merge_vars(self.vars, (a, b))
        ia, ib = vars.index(a), vars.index(b)
        groups = {}
        for e, c in self._expand_to(vars).items():
            rest = list(e)
            rest[ia] = rest[ib] = 0
            groups.setdefault((tuple(rest), e[ia] + e[ib]), {})[e[ia]] = c
        out = {}
        for (rest, d), coeffs in groups.items():
            key = list(rest)
            hi = max(coeffs)
            running = L_ZERO
            for k in range(min(coeffs), hi + 1):
                running = running + coeffs.get(k, L_ZERO)
                if running and k < hi:
                    key[ia], key[ib] = k, d - 1 - k
                    out[tuple(key)] = -running
            if running:
                raise NotDivisibleError(f"not divisible by {a} - {b}")
        return XPoly._trusted(vars, out)

    # -- rendering / io --------------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for e in sorted(self.terms, reverse=True):
            c = self.terms[e]
            mono = "*".join(
                v if p == 1 else f"{v}^{p}"
                for v, p in zip(self.vars, e)
                if p
            )
            if mono:
                parts.append(_fmt_coeff(c, mono))
            else:
                parts.append(str(c) if len(c.coeffs) == 1 else f"({c})")
        return " + ".join(parts).replace("+ -", "- ")

    def __repr__(self):
        return f"XPoly({self})"

    def to_json(self):
        return {
            "vars": list(self.vars),
            "terms": [
                {"exps": list(e), "poly": c.to_json()}
                for e, c in sorted(self.terms.items())
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


X_ZERO = XPoly.zero()
X_ONE = XPoly.const(1)

