"""Formal alphabets: signed multisets of monomial letters.

A letter is t^a times a (possibly empty) product of named variables;
an alphabet is a plus-multiset and a minus-multiset of letters with
common letters cancelled.  This is enough to express every argument
shape used here: X+Y, X-1, t^r-X, X(1-t), XY(1-t), after clearing any
1/(1-t) by hand.  Power sums are additive over plus letters and
subtractive over minus ones, which pins down every symmetric-function
evaluation.  The evaluations themselves (Q', P, Q and Schur functions)
live in `hall_littlewood`, which adds the letters of an alphabet one at
a time.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import NamedTuple

from .laurent import LaurentPoly
from .xpoly import XPoly, var_key, xvars, yvars


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


_ATOM_T = re.compile(r"^t(?:\^(-?\d+))?$")
_ATOM_V = re.compile(r"^[A-Za-z]\d+$")


def parse_alphabet(text, nx=None, ny=None):
    """Parse alphabet literals like 'x1+x2', '1-x1-x2', 't^2-x1',
    'x1*(1-t)', '(x1+x2)*(1-t)'.

    The set atoms X and Y stand for {x1..x_nx} and {y1..y_ny} and need
    the corresponding size to be bound; atoms multiply out, so 'X*Y'
    is the full product set.
    """
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
    fields = re.split(r"(?<!\^)([+-])", text)
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
