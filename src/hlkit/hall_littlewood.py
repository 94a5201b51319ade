"""Modified Hall-Littlewood polynomials and their argument-shift theory.

Q' lives here in two incarnations:

  * kernel route: Q'_u = H_{u_1} ... H_{u_l} . 1 by the creation
    operators of Jing and Garsia, defined for any integer vector u;
    H_m is the z^m part of the alphabet shift F[X - (1-t)/z] Omega[zX],
    and the product is the truncated symmetrization of x^u against the
    geometric kernel (Garsia 1992); every Schur expansion of Q' reads it;
  * alphabet route: Q'_lam(A) one letter of A at a time.

The paper's charge route, Q'_mu = sum over tableaux T of weight mu of
t^charge(T) S_shape(T), is `kostka_foulkes`, the kernel route's oracle.

On top of that sit the one-letter skew values (a product of Gaussian
binomials, one per part value, equal to the paper's quotient, and the
column rule) and the argument shifts by +1 and -1, whose coefficients
drive the alphabet route:
Q'_mu[X +- a] = sum_nu a^{|mu/nu|} Q'_{mu/nu}[+-1] Q'_nu[X],
exact letter by letter because Q'_{mu/nu} is homogeneous of degree
|mu/nu|.  Q' on an alphabet, the skew values on an alphabet and the
plane-partition expansion (Macdonald III.5) are all this one iteration.
On an alphabet whose variables are distinct single-variable letters of
one sign and one power of t (x1 + ... + xn, X + Y, t^r - X), the value
is symmetric in them, so the iteration walks only the weakly decreasing
exponent paths and copies each coefficient over its orbit; each step
asks its table only for the sizes of nu such a path can take.  Skew
values and every other alphabet walk every exponent vector.  The walk
adds the variable letters first and the powers of t last, and keeps the
state reached after the variable letters for the memo's lifetime, so
alphabets that differ only in their powers of t (t^r - X for each r)
walk their variables once.  It keeps one int per exponent vector, its
t-polynomial at t = 2^w (Kronecker substitution), packed and read back
as balanced digits by `laurent._pack` and `_unpack`, the packing helper
that the t-binomials share; each state carries a bound on the 1-norm of
its polynomials, and w doubles before a bound could reach 2^(w-1).
Powers of t are counted from the lowest one among the letters and the
offset is put back at the end.  A table entry carries its coefficient's
1-norm and the coefficient packed at t = 2^64, so the memoized rows
norm and pack each coefficient once per memo lifetime, not at every
step that reads it; each entry of the X + 1 row of mu is built the
first time a step's window holds its size.

P, Q and Schur functions run the same iteration with other tables.
P_mu[X + a] = sum_nu a^{|mu/nu|} psi_{mu/nu}(t) P_nu[X] over the
horizontal strips mu/nu (Macdonald III (5.11')), one step per variable,
and Q_lam = b_lam(t) P_lam; the letters x and -t*x of
Q_lam = Q'_lam[X(1-t)] would walk every subpartition and every vertical
strip, and most of their terms cancel.  s_lam is Q'_lam and P_lam at
t = 0: a plus letter takes P's strips and a minus letter Q''s signed
vertical strips, each coefficient read at t = 0 (Macdonald I (5.11)).
Each evaluator on an alphabet (Q', P, Q and s) is one memo keyed by
its arguments, so its partitions are tuples.
Last come the factorizations of Q' at arguments t^r minus variables.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, field
from functools import cache
from itertools import product as iproduct, zip_longest
from math import comb
from operator import add, index, itemgetter
from typing import NamedTuple

from .laurent import LaurentPoly, ZERO as L_ZERO, ONE as L_ONE
from .laurent import _accumulate, _fmt_coeff, _joined, _pack, _unpack
from .partitions import (
    b_poly,
    conjugate,
    contains,
    dominance_leq,
    is_partition,
    multiplicities,
    n_stat,
    normalize,
    partitions_of,
    subpartitions,
    t_binomial,
)
from .tableaux import _charge, enumerate_ssyt, reading_word
from .symmetrize import _kernel_schur_cached, kernel_schur
from .alphabets import Alphabet, letter
from .xpoly import XPoly, _linear_combination, xvars


@dataclass
class BasisExpansion:
    """A finite linear combination over a labeled partition basis."""

    basis: str
    coeffs: dict = field(default_factory=dict)

    def __post_init__(self):
        self.coeffs = {
            tuple(k): v for k, v in self.coeffs.items() if v
        }

    def items_sorted(self):
        return sorted(self.coeffs.items(), key=lambda kv: (sum(kv[0]), kv[0]))

    def render(self):
        parts = []
        for lam, c in self.items_sorted():
            body = f"{self.basis}[{','.join(str(p) for p in lam)}]"
            parts.append(_fmt_coeff(c, body))
        return _joined(parts)

    def to_json(self):
        return {
            "basis": self.basis,
            "coeffs": [
                {"partition": list(lam), "poly": c.to_json()}
                for lam, c in self.items_sorted()
            ],
        }

    @classmethod
    def from_json(cls, data):
        return cls(
            data["basis"],
            {
                tuple(e["partition"]): LaurentPoly.from_json(e["poly"])
                for e in data["coeffs"]
            },
        )


# ------------------------------------------------------------- charge statistic


@cache
def kostka_foulkes(rho, mu):
    """Charge generating polynomial over tableaux of shape rho, weight mu."""
    if not (is_partition(rho) and is_partition(mu)):
        raise ValueError(f"shape {rho} and weight {mu} must be partitions")
    rho, mu = normalize(rho), normalize(mu)
    if sum(rho) != sum(mu) or not dominance_leq(mu, rho):
        return L_ZERO
    return LaurentPoly(
        Counter(_charge(reading_word(tab), mu) for tab in enumerate_ssyt(rho, mu))
    )


# ---------------------------------------------------------------- kernel route


@cache
def _qprime_schur_cached(mu):
    return _kernel_schur_cached(mu)


def qprime_schur(mu):
    """Schur expansion of Q'_mu by the creation operators; its coefficients
    are the charge polynomials `kostka_foulkes(rho, mu)`."""
    mu = tuple(map(index, mu))
    if not is_partition(mu):
        raise ValueError(f"{mu} is not a partition; qprime_vector_schur takes vectors")
    return BasisExpansion("S", dict(_qprime_schur_cached(normalize(mu))))


def schur_to_qprime(sdict):
    """Rewrite a Schur-coefficient dict over the Q' family.

    Q'_nu = S_nu + strictly lex-higher Schur terms of the same degree,
    so one ascending-lex sweep per degree back-substitutes exactly.
    """
    rem = {k: v for k, v in sdict.items() if v}
    out = {}
    for m in sorted({sum(k) for k in rem}):
        for nu in sorted(partitions_of(m)):
            d = rem.pop(nu, None)
            if not d:
                continue
            out[nu] = d
            for rho, kf in _qprime_schur_cached(nu):
                if rho != nu:
                    _accumulate(rem, rho, -(d * kf))
    if rem:
        raise AssertionError(f"back-substitution left a remainder: {rem}")
    return out


@cache
def _qprime_of_vector_cached(u):
    if is_partition(u):
        return ((normalize(u), L_ONE),)
    return tuple(schur_to_qprime(kernel_schur(u)).items())


def qprime_of_vector(u):
    """Q'_u for any integer vector u, expanded over the Q' basis.

    This is the normative meaning of a non-partition index: truncate
    and straighten the kernel image, then back-substitute.  A partition
    index, trailing zeros allowed, is its own expansion.
    """
    return BasisExpansion("Qp", dict(_qprime_of_vector_cached(tuple(map(index, u)))))


def qprime_vector_schur(u):
    """Schur expansion of Q'_u straight from the kernel."""
    u = tuple(map(index, u))
    return BasisExpansion("S", kernel_schur(u))


# ---------------------------------------------------------------- alphabet route


class _Table(NamedTuple):
    """The entries of F_mu[X + 1] = sum_nu c F_nu[X] and F_mu[X - 1]
    with |nu| in a range `window`, each (nu, |nu|, c, the 1-norm of c,
    c packed at t = 2^_ENTRY_WIDTH); see `_entry`."""

    plus: object  # (mu, window) -> entries
    minus: object  # (mu, window) -> entries
    strips: bool  # each nu of plus makes mu/nu a horizontal strip
    t_zero: bool  # each c is read at t = 0


_ENTRY_WIDTH = 64  # the digit width, in bits, a table entry is packed at


def _entry(nu, size, c):
    """The walk-table entry of nu and its coefficient c: the 1-norm of c
    and c packed at t = 2^_ENTRY_WIDTH ride along, so a memoized row
    computes each once.  The packed value is c(2^_ENTRY_WIDTH) exactly,
    whatever the size of the coefficients."""
    return nu, size, c, sum(map(abs, c.coeffs.values())), _pack(c.coeffs, _ENTRY_WIDTH)


_size = itemgetter(1)  # the |nu| of an entry


def _by_size(entries):
    """The entries of one row sorted by |nu|, as `_in_window` bisects it."""
    return tuple(sorted(entries, key=_size))


@cache
def _plus_row(mu):
    """The row of add_one(mu) as `_add_one_terms` fills it: the nu
    inside mu sorted by size, their sizes, and their entries, each None
    until a window asks for it.  Only nu = () is listed until a window
    asks for a size over 0, so a state read only at the last letter
    enumerates no subpartitions."""
    return [[()], [0], [None]]


def _add_one_terms(mu, window):
    """The entries of add_one(mu) in the window, sorted by |nu|: only
    the values of some window are computed, each once per memo lifetime
    (see `_plus_row`)."""
    row = _plus_row(mu)
    nus, sizes, entries = row
    if window.stop > 1 and len(nus) == 1 and mu:
        row[0] = nus = subpartitions(mu)
        row[1] = sizes = [sum(nu) for nu in nus]
        entries += [None] * (len(nus) - 1)
    i, j = bisect_left(sizes, window.start), bisect_left(sizes, window.stop)
    for k in range(i, j):
        if entries[k] is None:
            entries[k] = _entry(nus[k], sizes[k], skew_qprime_one(mu, nus[k]))
    return entries[i:j]


def _in_window(terms):
    """The table reader of the memoized row terms(mu), sorted by |nu|:
    the entries in the window are the slice between two bisections."""

    def read(mu, window):
        row = terms(mu)
        return row[
            bisect_left(row, window.start, key=_size) : bisect_left(row, window.stop, key=_size)
        ]

    return read


def _symmetric(A):
    """Whether F(A) is symmetric in A's variables in the way the orbit
    path of `_branch` needs: at least two letters carry variables, each
    one distinct variable to the first power, all on one side of A with
    one power of t; every other letter is a power of t."""
    sides = [side for side in (A.plus, A.minus) if any(l.mono for l in side)]
    if len(sides) != 1:
        return False
    var_letters = [l for l in sides[0] if l.mono]
    return (
        len(var_letters) >= 2
        and all(len(l.mono) == 1 for l in var_letters)
        and len({l.mono for l in var_letters}) == len(var_letters)
        and len({l.t_exp for l in var_letters}) == 1
    )


def _orbits(polys):
    """The (t, e) coefficients of {e: [(t, c), ...]} copied to every
    distinct rearrangement of e."""
    return {
        (s,) + p: c
        for e, pairs in polys.items()
        for p in _rearrangements(e)
        for s, c in pairs
    }


def _rearrangements(e):
    """The distinct permutations of the tuple e, each once, in
    lexicographic order: the next permutation of sorted(e) until the
    last one."""
    p = sorted(e)
    while True:
        yield tuple(p)
        i = len(p) - 2
        while i >= 0 and p[i] >= p[i + 1]:
            i -= 1
        if i < 0:
            return
        j = len(p) - 1
        while p[j] <= p[i]:
            j -= 1
        p[i], p[j] = p[j], p[i]
        p[i + 1 :] = reversed(p[i + 1 :])


_WIDTH = _ENTRY_WIDTH  # the starting digit width w, in bits, of a packed t-polynomial
_MAX_SPAN = 300_000  # the widest span of powers of t that `_branch` packs


def _mul_packed(acc, vecs, shift, m):
    """acc[e + shift] += v * m over the (exponent vector e, packed v) of
    vecs: one product of ints per vector."""
    get = acc.get
    if not any(shift):
        for e, v in vecs.items():
            acc[e] = get(e, 0) + v * m
        return
    for e, v in vecs.items():
        k = tuple(map(add, e, shift))
        acc[k] = get(k, 0) + v * m


def _repacked(vecs, old, w):
    """The packed values of vecs, read at the width old, packed at w."""
    return {e: _pack(dict(_unpack(v, old)), w) for e, v in vecs.items()}


def _widen(w, bound, state):
    """The least doubling of the width w with bound < 2^(w-1), each
    packed value of the {key: (vecs, bound)} `state` repacked to it in
    place."""
    old = w
    while bound >> (w - 1):
        w *= 2
    for vecs, _ in state.values():
        vecs.update(_repacked(vecs, old, w))
    return w


def _branch(table, lam, A, end=()):
    """F_{lam/end}(A) for F = Q', P or s by its `table`, adding the
    letters of A one at a time.

    The state maps each mu reached to its coefficient: one int per
    exponent vector of A's variables, the t-polynomial at t = 2^w
    (Kronecker substitution), so x and t*x in X(1-t) cancel at the step
    that meets them.  A letter a sends mu to nu with a^{|mu/nu|} times
    the c of nu in F_mu[X - 1] (minus letters) or F_mu[X + 1]; that is
    one product of ints per exponent vector, the letter's power of t a
    left shift, and the shift of the exponent vectors by d = |mu/nu|
    times the letter's is built the first time a step uses that d.
    Each letter's power of t is counted from the lowest power t^low
    among the letters, so every packed polynomial has nonnegative
    powers (the tables' c are polynomials in t), and
    t^{low (|lam| - |end|)} is put back once, when the last state is
    unpacked.  The signed coefficients are read as balanced digits,
    exact while each lies in (-2^(w-1), 2^(w-1)); so is the test of a
    packed value for zero.  Each state carries a bound on the 1-norm of
    its t-polynomials, which bounds every coefficient: the sum over the
    entries that reach it of the source's bound times the 1-norm of c,
    as the 1-norm of a product is at most the product of the 1-norms.
    Before a product would let a bound reach 2^(w-1), w doubles: the
    state being built is repacked in place (`_widen`), and each source
    state into a new dict as the step reads it, so a walk never writes
    to the state it starts from.  Each entry brings the 1-norm of c
    and c packed at t = 2^_ENTRY_WIDTH; while w is that width the
    factor is the packed c shifted left, and at any other w, or read at
    t = 0, c is packed here.  A span of powers of t, (|lam| - |end|)
    times the highest letter power of t less the lowest, over
    _MAX_SPAN raises ValueError.

    Letter order: F_{lam/end}(A) does not depend on it.  A's variable
    letters go first, then its variable-free letters (powers of t),
    minus letters before plus ones in each group.  When A has both, the
    state reached after the variable letters (`_walked`) is kept for
    the memo's lifetime, keyed by the table, lam, end, those letters,
    the signs of the powers of t still to come, t^low and the orbit
    flag, and each alphabet walks its own powers of
    t from it: `factorization_sides` walks t^r - X for r = 0 and r = 1,
    and the residual at t^{k+r} - X, from one walk of -X.  No window
    below bounds a variable letter when powers of t follow, so the kept
    state is the one the whole walk reaches.

    The table is asked only for the nu in a window of sizes, so it
    computes no pair the walk would drop; off the orbit path the window
    is [0, |mu|].  A nu not containing `end` is dropped, and the last
    letter's window holds |end| alone.  A horizontal strip shortens mu by
    at most one part, so a nu with more parts than len(end) plus the
    parts the letters left can take off is dropped.

    Orbit rule: when end is empty and A is `_symmetric`, F(A) is
    symmetric in A's variables, so only the coefficients whose variable
    letters' exponents weakly decrease in letter order are computed.
    A state is then keyed by mu and the exponent `cap` of the last
    variable letter.  At a variable letter the window starts at
    |mu| - cap, so d = |mu/nu| is at most `cap`, and when A has no
    power of t it ends where |nu| exceeds d times the variable letters
    left.  Each of these dominant coefficients is copied to the
    permutations of its exponents at the end.  Any other alphabet or
    `end` walks every exponent vector, with `cap` fixed at |lam|.
    """
    lam, end = normalize(lam), normalize(end)
    vars = A.var_names()
    letters = [(l, True) for l in A.minus] + [(l, False) for l in A.plus]
    head = tuple([x for x in letters if x[0].mono])
    tail = [x for x in letters if not x[0].mono]
    orbit = not end and _symmetric(A)
    t_exps = [l.t_exp for l, _ in letters] or [0]
    low = min(t_exps)
    if (span := (sum(lam) - sum(end)) * (max(t_exps) - low)) > _MAX_SPAN:
        raise ValueError(f"{lam} on {A}: the powers of t span {span}, over {_MAX_SPAN}")
    if head and tail:
        after = tuple([minus for _, minus in tail])
        start = _walked(table, lam, end, head, after, vars, low, orbit)
        state, w = _walk(table, lam, end, tail, (), vars, low, orbit, start)
    else:
        state, w = _walk(table, lam, end, letters, (), vars, low, orbit)
    offset = low * (sum(lam) - sum(end))
    polys = {
        e: list(_unpack(v, w, offset))
        for (mu, _), (vecs, _) in state.items() if mu == end
        for e, v in vecs.items()
    }
    if orbit:
        terms = _orbits(polys)
    else:
        terms = {(s, *e): c for e, pairs in polys.items() for s, c in pairs}
    return XPoly._trusted(vars, terms)


@cache
def _walked(table, lam, end, head, after, vars, low, orbit):
    """The state and width that `_walk` reaches from lam over the
    variable letters `head`, with powers of t of the signs `after` still
    to come: one per memo lifetime, shared by every alphabet with those
    variable letters, signs and lowest power of t, which reads it and
    never writes to it."""
    return _walk(table, lam, end, head, after, vars, low, orbit)


def _walk(table, lam, end, letters, after, vars, low, orbit, start=None):
    """The state and width that the steps of `_branch` reach by adding
    `letters` to `start` (a state and its width; by default lam alone,
    at width _WIDTH), with powers of t of the signs `after` (True for
    minus) still to come."""
    state, w = start or ({(lam, sum(lam)): ({(0,) * len(vars): 1}, 1)}, _WIDTH)
    end_size = sum(end)
    var_left = sum(1 for l, _ in letters if l.mono)
    signs = [minus for _, minus in letters] + list(after)
    # the most parts each letter left can take off a partition inside
    # lam: one per horizontal strip, len(lam) per other letter
    takes = [1 if table.strips and not minus else len(lam) for minus in signs]
    room = sum(takes)
    for k, (l, minus) in enumerate(letters, 1):
        exps = tuple(l.mono.count(v) for v in vars)
        shifts = {}
        t_rel = l.t_exp - low
        last = k == len(letters) and not after
        room -= takes[k - 1]
        longest = len(end) + room
        capped = orbit and bool(l.mono)
        var_left -= bool(l.mono)
        bounded = capped and not after
        read = table.minus if minus else table.plus
        t_zero = table.t_zero
        new, packed_at = {}, w
        for (mu, cap), (vecs, bound) in state.items():
            if w != packed_at:
                vecs = _repacked(vecs, packed_at, w)
            size = sum(mu)
            lo, hi = size - cap if capped else 0, size
            if bounded:
                hi = size * var_left // (var_left + 1)
            if last:
                lo, hi = max(lo, end_size), min(hi, end_size)
            for nu, s, c, norm, packed in read(mu, range(lo, hi + 1)):
                if len(nu) <= longest and (nu == end or not last):
                    if t_zero:
                        packed = c.at_t_zero()  # a constant packs as itself
                        norm = abs(packed)
                        if not norm:
                            continue
                    d = size - s
                    key = nu, d if capped else cap
                    to = new.get(key)
                    if to is None:
                        to = new[key] = [{}, 0]
                    to[1] += bound * norm
                    if to[1] >> (w - 1):
                        old, w = w, _widen(w, to[1], new)
                        vecs = _repacked(vecs, old, w)
                    if w != _ENTRY_WIDTH and not t_zero:
                        packed = _pack(c.coeffs, w)
                    shift = shifts.get(d)
                    if shift is None:
                        shift = shifts[d] = tuple([d * e for e in exps])
                    _mul_packed(to[0], vecs, shift, packed << w * d * t_rel)
        state = {}
        for mu_cap, (acc, bound) in new.items():
            if not end or contains(mu_cap[0], end):
                if not all(acc.values()):
                    acc = {e: v for e, v in acc.items() if v}
                if acc:
                    state[mu_cap] = acc, bound
    return state, w


@cache
def _strip_terms(mu):
    """The entries (see `_entry`) of P_mu[X + 1] =
    sum_nu psi_{mu/nu}(t) P_nu[X], sorted by |nu|.

    nu runs over the partitions with mu/nu a horizontal strip, and
    psi_{mu/nu}(t) = prod_{j in J} (1 - t^{m_j(nu)}), where J holds the
    columns j >= 1 that mu/nu leaves empty while it fills column j + 1
    (Macdonald, Symmetric Functions and Hall Polynomials, III (5.8'),
    (5.11')).  Such a j is a part of nu, so no factor vanishes.  At
    t = 0 every psi is 1: s_mu[X + 1] = sum_nu s_nu[X] (Macdonald I (5.11)).
    """
    bounds = [range(b, a + 1) for a, b in zip(mu, mu[1:] + (0,))]
    out = []
    for parts in iproduct(*bounds):
        cols = set()
        for a, b in zip(mu, parts):
            cols.update(range(b + 1, a + 1))
        nu = parts[: len(parts) - parts.count(0)]
        psi = L_ONE
        for j, m in multiplicities(nu).items():
            if j + 1 in cols and j not in cols:
                psi = psi - psi.shift(m)
        out.append(_entry(nu, sum(nu), psi))
    return _by_size(out)


@cache
def qprime_on_alphabet(lam, A):
    """Q'_lam evaluated on a formal alphabet, one letter at a time by the
    shifts X + a and X - a (see `_branch`)."""
    return _branch(_SHIFTS, lam, A)


def skew_qprime(lam, mu, A):
    """Q'_{lam/mu} evaluated at the alphabet A: the coefficient of Q'_mu
    in Q'_lam[X + A], one letter of A at a time (see `_branch`)."""
    return _branch(_SHIFTS, lam, A, mu)


def plane_partition_qprime(lam, n):
    """Q'_lam on n variables by the one-letter branching rule
    Q'_lam(x_1..x_n) = sum_mu aleph(lam, mu) x_1^{|lam/mu|} Q'_mu(x_2..x_n),
    a sum over the plane partitions of shape lam with entries at most n:
    `_branch` on the alphabet x_1 + ... + x_n."""
    return _branch(_SHIFTS, lam, Alphabet.of_vars(*xvars(n)))


def tableau_route_xpoly(lam, n):
    """Q'_lam on n variables as sum_rho K_{rho,lam}(t) s_rho(x_1..x_n),
    the Schur expansion of `qprime_schur` read on the variables."""
    X = Alphabet.of_vars(*xvars(n))
    return _linear_combination(
        (schur_eval(rho, X), kf)
        for rho, kf in _qprime_schur_cached(normalize(lam))
        if len(rho) <= n
    )


@cache
def p_on_alphabet(lam, A):
    """P_lam(A) for an alphabet A of plus letters: one horizontal-strip
    step per letter (see `_branch`)."""
    if A.minus:
        raise ValueError(f"P and Q take an alphabet of plus letters, not {A}")
    return _branch(_P_STRIPS, lam, A)


@cache
def q_on_alphabet(lam, A):
    """Q_lam(A) = b_lam(t) P_lam(A), read from the P memo."""
    return p_on_alphabet(lam, A).scale(b_poly(lam))


@cache
def schur_eval(lam, A):
    """s_lam(A), one letter of A at a time by the strip rules read at
    t = 0 (see `_branch`)."""
    return _branch(_S_STRIPS, lam, A)


# ------------------------------------------------------- one-letter skew values


@cache
def skew_qprime_one(lam, mu):
    """The one-letter skew value: Q'_{lam/mu} at the alphabet {1}.

    With lam', mu' the conjugates and m_c the parts of mu equal to c, it
    is 0 unless mu fits inside lam, and otherwise
    t^{sum_c C(lam'_c - mu'_c, 2)} * prod_{c a part of mu} [lam'_c - mu'_{c+1}, m_c]_t.
    This is the paper's closed form t^{column statistic of lam/mu} *
    prod_i (1 - t^{lam'_{mu_i} - i + 1}) / b_mu: the rows i with mu_i = c
    give m_c consecutive exponents down from lam'_c - mu'_{c+1}, and
    their factors over (1 - t)...(1 - t^{m_c}), the factor of b_mu for
    c, are that Gaussian binomial.
    """
    if not contains(lam, mu):
        return L_ZERO
    lc, mc = conjugate(lam), conjugate(mu) + (0,)
    acc = L_ONE
    for c, m in multiplicities(mu).items():
        acc = acc * t_binomial(lc[c - 1] - mc[c], m)
    return acc.shift(sum(comb(a - b, 2) for a, b in zip_longest(lc, mc, fillvalue=0)))


def skew_qprime_one_columns(lam, mu):
    """Column rule for the same value: per column, alpha ends of mu-rows
    and beta boxes of lam/mu give t^{C(beta,2)} * [alpha+beta, alpha]."""
    ends = multiplicities(mu)
    cols = zip_longest(conjugate(lam), conjugate(mu), fillvalue=0)
    acc = L_ONE
    for c, (lam_col, mu_col) in enumerate(cols, 1):
        alpha, beta = ends.get(c, 0), lam_col - mu_col
        if beta < 0:
            return L_ZERO
        acc = (acc * t_binomial(alpha + beta, alpha)).shift(comb(beta, 2))
    return acc


def aleph(lam, mu):
    """`skew_qprime_one` of two partitions in any spelling."""
    return skew_qprime_one(normalize(lam), normalize(mu))


# ------------------------------------------------------------ argument shifts


def add_one(lam):
    """Expansion of Q'_lam at the shifted argument X+1 over the Q' basis."""
    lam = normalize(lam)
    terms = _add_one_terms(lam, range(sum(lam) + 1))
    return BasisExpansion("Qp", {nu: c for nu, _, c, _, _ in terms})


def sub_one(lam):
    """Expansion of Q'_lam at X-1: signed t-binomials on vertical strips.

    Independently for each part value i with multiplicity m_i, lower
    alpha_i of the parts to i-1, at cost (-1)^alpha_i [m_i, alpha_i].
    """
    terms = _sub_one_terms(normalize(lam))
    return BasisExpansion("Qp", {nu: c for nu, _, c, _, _ in terms})


@cache
def _sub_one_terms(lam):
    """The entries (see `_entry`) of sub_one(lam), lam a partition,
    sorted by |nu|."""
    mults = multiplicities(lam)
    values = sorted(mults)
    out = {}
    for alphas in iproduct(*(range(mults[v] + 1) for v in values)):
        coeff = L_ONE
        sign = 1
        parts = []  # ascending, as v - 1 is at least every smaller value
        for v, a in zip(values, alphas):
            coeff = coeff * t_binomial(mults[v], a)
            if a % 2:
                sign = -sign
            parts.extend([v - 1] * a)
            parts.extend([v] * (mults[v] - a))
        nu = tuple(p for p in reversed(parts) if p)
        _accumulate(out, nu, coeff if sign > 0 else -coeff)
    return _by_size(_entry(nu, sum(nu), c) for nu, c in out.items())


# The tables of `_branch`.  s = Q' = P at t = 0 takes P's horizontal
# strips for plus letters and Q''s signed vertical strips for minus ones.
_SHIFTS = _Table(_add_one_terms, _in_window(_sub_one_terms), strips=False, t_zero=False)
_P_STRIPS = _Table(_in_window(_strip_terms), None, strips=True, t_zero=False)
_S_STRIPS = _P_STRIPS._replace(minus=_in_window(_sub_one_terms), t_zero=True)


def compose_shift(expansion, shift_fn):
    """Apply a Q'-basis shift map to every term of a Q'-expansion."""
    out = {}
    for lam, c in expansion.coeffs.items():
        for mu, d in shift_fn(lam).coeffs.items():
            _accumulate(out, mu, c * d)
    return BasisExpansion("Qp", out)


# ------------------------------------------------------------- factorizations


def split_for_width(lam, n):
    """Split lam as n^k + nu on top of zeta with zeta_1 < n, k maximal."""
    if n < 1:
        raise ValueError("need at least one variable")
    lam = normalize(lam)
    k = sum(1 for p in lam if p >= n)
    nu = tuple(p - n for p in lam[:k] if p > n)
    zeta = lam[k:]
    return k, nu, zeta


def t_minus_x_alphabet(r, n):
    return Alphabet((letter(r),), tuple(letter(0, v) for v in xvars(n)))


def _t_power_minus_x_product(r, k, n, s=0):
    """t^s times the product over r <= i < r + k and v = x1..xn of (t^i - v).

    The one-variable factor prod_i (t^i - x) is a {(power of t, power of
    x): int} dict built by k shift-and-subtract steps; it is tensored over
    x1..xn, one variable at a time, on keys whose slot 0 starts at s.
    """
    one = {(0, 0): 1}
    for i in range(r, r + k):
        step = {}
        for (a, b), c in one.items():
            step[a + i, b] = step.get((a + i, b), 0) + c
            step[a, b + 1] = step.get((a, b + 1), 0) - c
        one = step
    terms = {(s,): 1}
    for _ in range(n):
        step = {}
        for (a, *e), c in terms.items():
            for (ta, b), d in one.items():
                key = (a + ta, *e, b)
                step[key] = step.get(key, 0) + c * d
        terms = step
    return XPoly._trusted(xvars(n), terms)


def factorization_sides(lam, r, n):
    """Both sides of the width-split factorization of Q'_lam(t^r - X).

    LHS: direct alphabet evaluation.  RHS: one product of
    t^{n(nu) + r|nu|} prod_{r <= i < r+k} prod_v (t^i - x_v), built
    directly, with the residual Q'_zeta at t^{k+r} - X.
    """
    k, nu, zeta = split_for_width(lam, n)
    lhs = qprime_on_alphabet(lam, t_minus_x_alphabet(r, n))
    rest = qprime_on_alphabet(zeta, t_minus_x_alphabet(k + r, n))
    rhs = _t_power_minus_x_product(r, k, n, n_stat(nu) + r * sum(nu)) * rest
    return lhs, rhs


def principal_specialization(lam):
    """Closed form for Q'_lam(1 - x1): t^{n(lam) - C(l, 2)} times the
    product of (t^i - x1) over i < l = l(lam)."""
    lam = normalize(lam)
    l = len(lam)
    return _t_power_minus_x_product(0, l, 1, n_stat(lam) - comb(l, 2))


def two_letter_shape(k, nu, beta):
    if len(nu) > k:
        raise ValueError("nu must fit in k rows")
    return tuple(2 + p for p in nu) + (2,) * (k - len(nu)) + (1,) * beta


def two_letter_sides(k, nu, beta):
    """Both sides of the two-variable factorization.

    The elementary function of (t^k - x1 - x2)/(1-t), premultiplied by
    (1-t)...(1-t^beta), collapses to an exact t-multinomial sum: each
    letter family contributes its own Euler factor, and the shared
    denominators cancel against the prefactor.  The multinomial
    [beta; i, j, l] is read as the t-binomial product
    [beta, i] [beta - i, j], and the product over i < k of
    (t^i - x1)(t^i - x2) is the one of `factorization_sides` at r = 0.
    """
    lam = two_letter_shape(k, nu, beta)
    lhs = qprime_on_alphabet(lam, t_minus_x_alphabet(0, 2))
    cleared = {}  # each (j, l) comes from one i
    for i in range(beta + 1):
        for j in range(beta + 1 - i):
            l = beta - i - j
            c = t_binomial(beta, i) * t_binomial(beta - i, j)
            c = c.shift(comb(i, 2) + k * i)
            cleared[(j, l)] = -c if (j + l) % 2 else c
    cleared = XPoly(("x1", "x2"), cleared)
    rhs = _t_power_minus_x_product(0, k, 2, n_stat(nu)) * cleared
    return lhs, rhs

