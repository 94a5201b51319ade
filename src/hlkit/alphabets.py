"""Formal alphabets: signed multisets of monomial letters.

A letter is t^a times a (possibly empty) product of named variables;
an alphabet is a plus-multiset and a minus-multiset of letters with
common letters cancelled.  This is enough to express every argument
shape used here: X+Y, X-1, t^r-X, X(1-t), XY(1-t), after clearing any
1/(1-t) by hand.  Power sums are additive over plus letters and
subtractive over minus ones, which pins down every symmetric-function
evaluation; complete functions come from the product generating series
and Schur values from Jacobi-Trudi determinants.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cache
from typing import NamedTuple

from .laurent import LaurentPoly, ONE as L_ONE
from .xpoly import XPoly, X_ONE, X_ZERO, var_key
from .xpoly import _flat, _mul_into, _sorted_vars, _unflatten


class NonTerminatingSeriesError(ValueError):
    """A series was requested whose truncation is not finite."""


class Letter(NamedTuple):
    t_exp: int
    mono: tuple  # sorted tuple of variable names, repeats allowed

    def times(self, other):
        return Letter(
            self.t_exp + other.t_exp,
            tuple(sorted(self.mono + other.mono, key=var_key)),
        )

    def shift_t(self, k):
        return Letter(self.t_exp + k, self.mono)

    def value(self):
        exps = {}
        for v in self.mono:
            exps[v] = exps.get(v, 0) + 1
        names = tuple(sorted(exps, key=var_key))
        return XPoly.monomial(
            names, tuple(exps[v] for v in names), LaurentPoly.t_power(self.t_exp)
        )

    def degree_in(self, names=None):
        if names is None:
            return len(self.mono)
        return sum(1 for v in self.mono if v in names)


def letter(t_exp=0, *names):
    return Letter(int(t_exp), tuple(sorted(names, key=var_key)))


def _cancel(plus, minus):
    plus = sorted(plus)
    minus = sorted(minus)
    out_p, out_m = [], []
    i = j = 0
    while i < len(plus) and j < len(minus):
        if plus[i] == minus[j]:
            i += 1
            j += 1
        elif plus[i] < minus[j]:
            out_p.append(plus[i])
            i += 1
        else:
            out_m.append(minus[j])
            j += 1
    out_p.extend(plus[i:])
    out_m.extend(minus[j:])
    return tuple(out_p), tuple(out_m)


@dataclass(frozen=True)
class Alphabet:
    plus: tuple = ()
    minus: tuple = ()

    def __post_init__(self):
        p, m = _cancel(self.plus, self.minus)
        object.__setattr__(self, "plus", p)
        object.__setattr__(self, "minus", m)

    @classmethod
    def of_vars(cls, *names):
        return cls(tuple(letter(0, v) for v in names))

    @classmethod
    def unit(cls, t_exp=0):
        return cls((letter(t_exp),))

    @classmethod
    def empty(cls):
        return cls()

    def __add__(self, other):
        return Alphabet(self.plus + other.plus, self.minus + other.minus)

    def __sub__(self, other):
        return Alphabet(self.plus + other.minus, self.minus + other.plus)

    def __neg__(self):
        return Alphabet(self.minus, self.plus)

    def times_letter(self, l):
        return Alphabet(
            tuple(a.times(l) for a in self.plus),
            tuple(b.times(l) for b in self.minus),
        )

    def times(self, other):
        acc_p, acc_m = [], []
        for a in self.plus:
            for b in other.plus:
                acc_p.append(a.times(b))
            for b in other.minus:
                acc_m.append(a.times(b))
        for a in self.minus:
            for b in other.plus:
                acc_m.append(a.times(b))
            for b in other.minus:
                acc_p.append(a.times(b))
        return Alphabet(tuple(acc_p), tuple(acc_m))

    def one_minus_t(self):
        """The alphabet of the argument scaled by (1 - t)."""
        return self - self.times_letter(letter(1))

    def var_names(self):
        out = set()
        for l in self.plus + self.minus:
            out.update(l.mono)
        return tuple(sorted(out, key=var_key))

    def __str__(self):
        def fmt(l):
            bits = []
            if l.t_exp == 1:
                bits.append("t")
            elif l.t_exp:
                bits.append(f"t^{l.t_exp}")
            bits.extend(l.mono)
            return "*".join(bits) if bits else "1"

        parts = [fmt(l) for l in self.plus] + [f"-{fmt(l)}" for l in self.minus]
        if not parts:
            return "0"
        return " + ".join(parts).replace("+ -", "- ")


@cache
def complete_series(A, D):
    """h_0(A), ..., h_D(A), exactly.

    Series product: multiply in each minus letter (one binomial factor)
    and each plus letter (geometric recurrence).  Finite at every fixed
    index, whatever the letters' degrees.  The series is kept as flat
    int coefficients over the variables of A until the end.
    """
    vars = A.var_names()
    h = [{(0,) * len(vars): {0: 1}}] + [{} for _ in range(D)]
    for sign, letters, ks in (
        (-1, A.minus, range(D, 0, -1)),
        (1, A.plus, range(1, D + 1)),
    ):
        for l in letters:
            factor = ((tuple(l.mono.count(v) for v in vars), {l.t_exp: 1}),)
            for k in ks:
                _mul_into(h[k], h[k - 1].items(), factor, sign)
    return tuple(XPoly._trusted(vars, _unflatten(hk)) for hk in h)


def _det(mat):
    """Determinant by expansion along the first remaining row."""
    vars = _sorted_vars(f for row in mat for f in row)
    ent = [[_flat(f._expand_to(vars)) for f in row] for row in mat]
    memo = {0: {(0,) * len(vars): L_ONE}}
    return XPoly._trusted(vars, _minor(ent, memo, (1 << len(mat)) - 1))


def _minor(ent, memo, mask):
    """Terms of the minor of `ent` on its last popcount(mask) rows and
    the columns in `mask`, each summed once over flat int coefficients.
    A module-level function, not a closure, so that no reference cycle
    keeps `memo` alive after the determinant is built."""
    got = memo.get(mask)
    if got is None:
        n = len(ent)
        r = n - mask.bit_count()
        acc = {}
        sign = 1
        for c in range(n):
            if mask & (1 << c):
                if ent[r][c]:
                    sub = _minor(ent, memo, mask ^ (1 << c))
                    _mul_into(acc, ent[r][c], _flat(sub), sign)
                sign = -sign
        memo[mask] = got = _unflatten(acc)
    return got


def _jacobi_trudi(lam, mu, A):
    """det h_{lam_i - mu_j - i + j}(A) for partitions lam, mu without
    zero parts, mu inside lam."""
    l = len(lam)
    if not l:
        return X_ONE
    mu = mu + (0,) * (l - len(mu))
    D = lam[0] + l - 1
    h = complete_series(A, D)
    mat = [
        [
            h[lam[i] - mu[j] - i + j]
            if 0 <= lam[i] - mu[j] - i + j <= D
            else X_ZERO
            for j in range(l)
        ]
        for i in range(l)
    ]
    return _det(mat)


@cache
def schur_eval(lam, A):
    """S_lam(A) by the Jacobi-Trudi determinant det h_{lam_i - i + j}."""
    lam = tuple(p for p in lam if p)
    if not A.minus and len(lam) > len(A.plus):
        return X_ZERO
    return _jacobi_trudi(lam, (), A)


@cache
def skew_schur_eval(lam, mu, A):
    """S_{lam/mu}(A) = det h_{lam_i - mu_j - i + j}; 0 unless mu fits."""
    lam = tuple(p for p in lam if p)
    mu = tuple(p for p in mu if p)
    if len(mu) > len(lam) or any(m > p for m, p in zip(mu, lam)):
        return X_ZERO
    return _jacobi_trudi(lam, mu, A)


@cache
def schur_on_xvars(lam, n):
    from .xpoly import xvars

    return schur_eval(tuple(lam), Alphabet.of_vars(*xvars(n)))


_ATOM_T = re.compile(r"^t(?:\^(-?\d+))?$")
_ATOM_V = re.compile(r"^[A-Za-z]\d+$")


def parse_alphabet(text, nx=None, ny=None):
    """Parse alphabet literals like 'x1+x2', '1-x1-x2', 't^2-x1',
    'x1*(1-t)', '(x1+x2)*(1-t)'.

    The set atoms X and Y stand for {x1..x_nx} and {y1..y_ny} and need
    the corresponding size to be bound; atoms multiply out, so 'X*Y'
    is the full product set.
    """
    from .xpoly import xvars, yvars

    text = text.strip().replace(" ", "")
    scale = 0
    while text.endswith("*(1-t)"):
        text = text[: -len("*(1-t)")]
        scale += 1
    if text.startswith("(") and text.endswith(")"):
        text = text[1:-1]
    if not text:
        raise ValueError("empty alphabet literal")
    plus, minus = [], []
    fields = re.split(r"([+-])", text)
    fields = fields[1:] if fields[0] == "" else ["+", *fields]
    for sign, tok in zip(fields[::2], fields[1::2]):
        if not tok:
            raise ValueError(f"sign with no term after it in alphabet {text!r}")
        t_exp = 0
        monos = [[]]
        for atom in tok.split("*"):
            if atom == "1":
                continue
            mt = _ATOM_T.match(atom)
            if mt:
                t_exp += int(mt.group(1)) if mt.group(1) else 1
                continue
            if atom in ("X", "Y"):
                size = nx if atom == "X" else ny
                if size is None:
                    raise ValueError(f"set atom {atom} used without its size")
                names = xvars(size) if atom == "X" else yvars(size)
                monos = [m + [v] for m in monos for v in names]
                continue
            if _ATOM_V.match(atom):
                monos = [m + [atom] for m in monos]
                continue
            raise ValueError(f"bad alphabet atom {atom!r}")
        side = plus if sign == "+" else minus
        for m in monos:
            side.append(letter(t_exp, *m))
    A = Alphabet(tuple(plus), tuple(minus))
    for _ in range(scale):
        A = A.one_minus_t()
    return A
