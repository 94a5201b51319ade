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

On top of that sit the one-letter skew values (closed form and column
rule) and the argument shifts by +1 and -1, whose coefficients drive the
alphabet route: Q'_mu[X +- a] = sum_nu a^{|mu/nu|} Q'_{mu/nu}[+-1] Q'_nu[X],
exact letter by letter because Q'_{mu/nu} is homogeneous of degree
|mu/nu|.  Q' on an alphabet, the skew values on an alphabet and the
plane-partition expansion (Macdonald III.5) are all this one iteration.

P, Q and Schur functions run the same iteration with other tables.
P_mu[X + a] = sum_nu a^{|mu/nu|} psi_{mu/nu}(t) P_nu[X] over the
horizontal strips mu/nu (Macdonald III (5.11')), one step per variable,
and Q_lam = b_lam(t) P_lam; the letters x and -t*x of
Q_lam = Q'_lam[X(1-t)] would walk every subpartition and every vertical
strip, and most of their terms cancel.  s_lam is Q'_lam and P_lam at
t = 0: a plus letter takes P's strips and a minus letter Q''s signed
vertical strips, each coefficient read at t = 0 (Macdonald I (5.11)).
Last come the factorizations of Q' at arguments t^r minus variables.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from itertools import product as iproduct, zip_longest
from math import comb
from typing import NamedTuple

from .laurent import LaurentPoly, ZERO as L_ZERO, ONE as L_ONE
from .laurent import _accumulate, _fmt_coeff
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
    t_factorial,
)
from .tableaux import _charge, enumerate_ssyt, reading_word
from .symmetrize import _kernel_schur_cached, kernel_schur, pi_omega
from .alphabets import Alphabet, letter
from .xpoly import XPoly, X_ONE, _linear_combination, _mul_into, xvars


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
        if not self.coeffs:
            return "0"
        parts = []
        for lam, c in self.items_sorted():
            body = f"{self.basis}[{','.join(str(p) for p in lam)}]"
            parts.append(_fmt_coeff(c, body))
        return " + ".join(parts).replace("+ -", "- ")

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

    def __eq__(self, other):
        return (
            isinstance(other, BasisExpansion)
            and self.basis == other.basis
            and self.coeffs == other.coeffs
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
    counts = {}
    for tab in enumerate_ssyt(rho, mu):
        c = _charge(reading_word(tab), mu)
        counts[c] = counts.get(c, 0) + 1
    return LaurentPoly(counts)


# ---------------------------------------------------------------- kernel route


@cache
def _qprime_schur_cached(mu):
    return _kernel_schur_cached(mu)


def qprime_schur(mu):
    """Schur expansion of Q'_mu by the creation operators; its coefficients
    are the charge polynomials `kostka_foulkes(rho, mu)`."""
    mu = tuple(int(x) for x in mu)
    if not is_partition(mu):
        raise ValueError(f"{mu} is not a partition; qprime_vector_schur takes vectors")
    return BasisExpansion("S", dict(_qprime_schur_cached(normalize(mu))))


def schur_to_qprime(sdict):
    """Rewrite a Schur-coefficient dict over the Q' family.

    Q'_nu = S_nu + strictly lex-higher Schur terms of the same degree,
    so one ascending-lex sweep per degree back-substitutes exactly.
    """
    rem = {normalize(k): v for k, v in sdict.items() if v}
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


def qprime_of_vector(u):
    """Q'_u for any integer vector u, expanded over the Q' basis.

    This is the normative meaning of a non-partition index: truncate
    and straighten the kernel image, then back-substitute.  A partition
    index, trailing zeros allowed, is its own expansion.
    """
    u = tuple(int(x) for x in u)
    if is_partition(u):
        return BasisExpansion("Qp", {normalize(u): L_ONE})
    return BasisExpansion("Qp", schur_to_qprime(kernel_schur(u)))


def qprime_vector_schur(u):
    """Schur expansion of Q'_u straight from the kernel."""
    u = tuple(int(x) for x in u)
    return BasisExpansion("S", kernel_schur(u))


# ---------------------------------------------------------------- alphabet route


class _Table(NamedTuple):
    """The (nu, c) pairs of F_mu[X + 1] = sum_nu c F_nu[X] and F_mu[X - 1]."""

    plus: object  # (mu, end) -> pairs; end is set on the last letter only,
    #               where its pair alone will do
    minus: object  # mu -> pairs
    strips: bool  # each pair of plus is a horizontal strip mu/nu
    t_zero: bool  # each c is read at t = 0


def _add_one_terms(mu, end):
    if end is None:
        return add_one(mu).coeffs.items()
    return ((end, skew_qprime_one(mu, end)),)


def _branch(table, lam, A, end=()):
    """F_{lam/end}(A) for F = Q', P or s by its `table`, adding the
    letters of A one at a time.

    The state maps each mu reached to its coefficient, int coefficients
    keyed by the power of t and the exponents of A's variables as in
    XPoly.terms, so x and t*x in X(1-t) cancel at the step that meets
    them.  A letter a sends mu to nu with a^{|mu/nu|} times the c of nu
    in F_mu[X - 1] (minus letters, which go first) or F_mu[X + 1].  A
    nu not containing `end` is dropped; the last letter asks the table
    for the pair of `end` alone.  A horizontal strip shortens mu by at
    most one part, so over strips a nu with more parts than len(end)
    plus the letters left is dropped.
    """
    lam, end = normalize(lam), normalize(end)
    vars = A.var_names()
    letters = [(l, True) for l in A.minus] + [(l, False) for l in A.plus]
    state = {lam: {(0,) * (len(vars) + 1): 1}}
    for k, (l, minus) in enumerate(letters, 1):
        exps = tuple(l.mono.count(v) for v in vars)
        last = k == len(letters)
        strips = table.strips and not minus
        longest = len(end) + len(letters) - k if strips else len(lam)
        new = {}
        for mu, flat in state.items():
            coeffs = table.minus(mu) if minus else table.plus(mu, end if last else None)
            flat, size = flat.items(), sum(mu)
            for nu, c in coeffs:
                if c and len(nu) <= longest and (nu == end or not last):
                    d = size - sum(nu)
                    c = {0: c.at_t_zero()} if table.t_zero else c.coeffs
                    a_d = [((s + d * l.t_exp, *(d * e for e in exps)), v)
                           for s, v in c.items()]
                    _mul_into(new.setdefault(nu, {}), flat, a_d)
        state = {}
        for nu, acc in new.items():
            if contains(nu, end):
                if not all(acc.values()):
                    acc = {key: v for key, v in acc.items() if v}
                if acc:
                    state[nu] = acc
    return XPoly._trusted(vars, state.get(end, {}))


@cache
def _strip_terms(mu):
    """The (nu, psi_{mu/nu}(t)) pairs of P_mu[X + 1] = sum_nu psi_{mu/nu}(t)
    P_nu[X].

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
        out.append((nu, psi))
    return tuple(out)


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
    return _linear_combination(
        (schur_on_xvars(rho, n), kf)
        for rho, kf in _qprime_schur_cached(normalize(lam))
        if len(rho) <= n
    )


def p_on_alphabet(lam, A):
    """P_lam(A) for an alphabet A of plus letters: one horizontal-strip
    step per letter (see `_branch`)."""
    if A.minus:
        raise ValueError(f"P and Q take an alphabet of plus letters, not {A}")
    return _branch(_P_STRIPS, lam, A)


def q_on_alphabet(lam, A):
    """Q_lam(A) = b_lam(t) P_lam(A), which is Q'_lam(A(1-t))."""
    return p_on_alphabet(lam, A).scale(b_poly(normalize(lam)))


@cache
def p_on_xvars(lam, n):
    return p_on_alphabet(normalize(lam), Alphabet.of_vars(*xvars(n)))


@cache
def q_on_xvars(lam, n):
    return p_on_xvars(lam, n).scale(b_poly(normalize(lam)))


@cache
def schur_eval(lam, A):
    """s_lam(A), one letter of A at a time by the strip rules read at
    t = 0 (see `_branch`)."""
    return _branch(_S_STRIPS, lam, A)


@cache
def skew_schur_eval(lam, mu, A):
    """s_{lam/mu}(A): the coefficient of s_mu in s_lam[X + A], 0 unless
    mu fits in lam (see `_branch`)."""
    return _branch(_S_STRIPS, lam, A, mu)


@cache
def schur_on_xvars(lam, n):
    return _branch(_S_STRIPS, lam, Alphabet.of_vars(*xvars(n)))


# ------------------------------------------------------- one-letter skew values


@cache
def skew_qprime_one(lam, mu):
    """The one-letter skew value: Q'_{lam/mu} at the alphabet {1}.

    Closed form: with r positive parts in mu and nu_i the mu_i-th part
    of the conjugate of lam, the value is
    t^{column statistic of lam/mu} * prod_i (1 - t^{nu_i - i + 1}) / b_mu.
    The product vanishes exactly when mu does not fit inside lam.
    """
    lam, mu = normalize(lam), normalize(mu)
    lc, mc = conjugate(lam), conjugate(mu)
    prod = L_ONE
    for i, m in enumerate(mu, 1):
        nu_i = lc[m - 1] if m <= len(lc) else 0
        a = nu_i - i + 1
        if a <= 0:
            return L_ZERO
        prod = prod - prod.shift(a)
    n = sum(comb(a - b, 2) for a, b in zip_longest(lc, mc, fillvalue=0))
    return prod.shift(n).exact_div(b_poly(mu))


@cache
def skew_qprime_one_columns(lam, mu):
    """Column rule for the same value: per column, alpha ends of mu-rows
    and beta boxes of lam/mu give t^{C(beta,2)} * [alpha+beta, alpha]."""
    lam, mu = normalize(lam), normalize(mu)
    lc, mc = conjugate(lam), conjugate(mu)
    width = max(len(lc), len(mc))
    acc = L_ONE
    for c in range(1, width + 1):
        alpha = sum(1 for p in mu if p == c)
        lam_col = lc[c - 1] if c <= len(lc) else 0
        mu_col = mc[c - 1] if c <= len(mc) else 0
        beta = lam_col - mu_col
        if beta < 0:
            return L_ZERO
        acc = acc * LaurentPoly.t_power(comb(beta, 2)) * t_binomial(
            alpha + beta, alpha
        )
    return acc


def aleph(lam, mu):
    return skew_qprime_one(normalize(lam), normalize(mu))


# ------------------------------------------------------------ argument shifts


def add_one(lam):
    """Expansion of Q'_lam at the shifted argument X+1 over the Q' basis."""
    lam = normalize(lam)
    out = {}
    for mu in subpartitions(lam):
        v = skew_qprime_one(lam, mu)
        if v:
            out[mu] = v
    return BasisExpansion("Qp", out)


def sub_one(lam):
    """Expansion of Q'_lam at X-1: signed t-binomials on vertical strips.

    Independently for each part value i with multiplicity m_i, lower
    alpha_i of the parts to i-1, at cost (-1)^alpha_i [m_i, alpha_i].
    """
    return BasisExpansion("Qp", dict(_sub_one_terms(normalize(lam))))


@cache
def _sub_one_terms(lam):
    """The (nu, coefficient) pairs of sub_one(lam), for a partition lam."""
    mults = multiplicities(lam)
    values = sorted(mults)
    out = {}
    for alphas in iproduct(*(range(mults[v] + 1) for v in values)):
        coeff = L_ONE
        sign = 1
        parts = []
        for v, a in zip(values, alphas):
            coeff = coeff * t_binomial(mults[v], a)
            if a % 2:
                sign = -sign
            parts.extend([v] * (mults[v] - a))
            parts.extend([v - 1] * a)
        _accumulate(out, normalize(parts), coeff if sign > 0 else -coeff)
    return tuple(out.items())


# The tables of `_branch`.  s = Q' = P at t = 0 takes P's horizontal
# strips for plus letters and Q''s signed vertical strips for minus ones.
_SHIFTS = _Table(_add_one_terms, _sub_one_terms, strips=False, t_zero=False)
_P_STRIPS = _Table(lambda mu, end: _strip_terms(mu), None, strips=True, t_zero=False)
_S_STRIPS = _P_STRIPS._replace(minus=_sub_one_terms, t_zero=True)


def compose_shift(expansion, shift_fn):
    """Apply a Q'-basis shift map to every term of a Q'-expansion."""
    out = {}
    for lam, c in expansion.coeffs.items():
        for mu, d in shift_fn(lam).coeffs.items():
            _accumulate(out, mu, c * d)
    return BasisExpansion("Qp", out)


# ------------------------------------------------------------- factorizations


class DecompositionError(ValueError):
    """No valid width split exists for the requested variable count."""


def split_for_width(lam, n):
    """Split lam as n^k + nu on top of zeta with zeta_1 < n, k maximal."""
    if n < 1:
        raise DecompositionError("need at least one variable")
    lam = normalize(lam)
    k = sum(1 for p in lam if p >= n)
    nu = normalize(p - n for p in lam[:k])
    zeta = lam[k:]
    return k, nu, zeta


def t_minus_x_alphabet(r, n):
    return Alphabet((letter(r),), tuple(letter(0, v) for v in xvars(n)))


def factorization_sides(lam, r, n):
    """Both sides of the width-split factorization of Q'_lam(t^r - X).

    LHS: direct alphabet evaluation.  RHS: t-power times the double
    resultant product times the residual Q'_zeta at t^{k+r} - X.
    """
    lam = normalize(lam)
    k, nu, zeta = split_for_width(lam, n)
    lhs = qprime_on_alphabet(lam, t_minus_x_alphabet(r, n))
    prod = X_ONE
    for i in range(r, k + r):
        ti = XPoly.const(LaurentPoly.t_power(i))
        for v in xvars(n):
            prod = prod * (ti - XPoly.var(v))
    rest = qprime_on_alphabet(zeta, t_minus_x_alphabet(k + r, n))
    rhs = (prod * rest).scale(LaurentPoly.t_power(n_stat(nu) + r * sum(nu)))
    return lhs, rhs


def one_minus_x_factorization_check(lam, r, n):
    lhs, rhs = factorization_sides(lam, r, n)
    return lhs == rhs


def principal_specialization(lam, xname="x1"):
    """Closed form for Q'_lam(1 - {x}): a t-power times a falling
    product of (1 - x t^{-i})."""
    lam = normalize(lam)
    acc = XPoly.const(LaurentPoly.t_power(n_stat(lam)))
    for i in range(len(lam)):
        acc = acc * (X_ONE - XPoly.monomial((xname,), (1,), LaurentPoly.t_power(-i)))
    return acc


def principal_specialization_check(lam, xname="x1"):
    A = Alphabet((letter(0),), (letter(0, xname),))
    return principal_specialization(lam, xname) == qprime_on_alphabet(
        normalize(lam), A
    )


def two_letter_shape(k, nu, beta):
    nu = normalize(nu)
    if len(nu) > k:
        raise ValueError("nu must fit in k rows")
    nu = nu + (0,) * (k - len(nu))
    return normalize(tuple(2 + p for p in nu) + (1,) * beta)


def _t_multinomial(total, parts):
    acc = t_factorial(total)
    for p in parts:
        acc = acc.exact_div(t_factorial(p))
    return acc


def two_letter_sides(k, nu, beta):
    """Both sides of the two-variable factorization.

    The elementary function of (t^k - x1 - x2)/(1-t), premultiplied by
    (1-t)...(1-t^beta), collapses to an exact t-multinomial sum: each
    letter family contributes its own Euler factor, and the shared
    denominators cancel against the prefactor.
    """
    nu = normalize(nu)
    lam = two_letter_shape(k, nu, beta)
    lhs = qprime_on_alphabet(lam, t_minus_x_alphabet(0, 2))
    x1 = XPoly.var("x1")
    x2 = XPoly.var("x2")
    prod = X_ONE
    for i in range(k):
        ti = XPoly.const(LaurentPoly.t_power(i))
        prod = prod * (ti - x1) * (ti - x2)
    cleared = {}  # each (j, l) comes from one i
    for i in range(beta + 1):
        for j in range(beta + 1 - i):
            l = beta - i - j
            c = _t_multinomial(beta, (i, j, l)).shift(comb(i, 2) + k * i)
            cleared[(j, l)] = -c if (j + l) % 2 else c
    cleared = XPoly(("x1", "x2"), cleared)
    rhs = (prod * cleared).scale(LaurentPoly.t_power(n_stat(nu)))
    return lhs, rhs


def two_letter_factorization_check(k, nu, beta):
    lhs, rhs = two_letter_sides(k, nu, beta)
    return lhs == rhs


# ----------------------------------------------------------------- Q operator


def q_via_operator(lam, n):
    """Q_lam on n variables straight from the symmetrizer definition:
    normalize x^lam * prod_{i<j}(1 - t x_j/x_i) after the longest
    isobaric divided difference.  Only dominant weights extend this way."""
    lam = normalize(lam)
    if len(lam) > n:
        raise ValueError("partition longer than the variable count")
    vars = xvars(n)
    padded = lam + (0,) * (n - len(lam))
    f = XPoly.monomial(vars, padded)
    for i in range(n):
        for j in range(i + 1, n):
            ratio = XPoly.monomial(
                (vars[i], vars[j]), (-1, 1), LaurentPoly.t_power(1)
            )
            f = f * (X_ONE - ratio)
    img = pi_omega(f, n)
    one_minus_t = L_ONE - LaurentPoly.t_power(1)
    num = img.scale(one_minus_t ** n)
    m0 = n - len(lam)
    denom = L_ONE
    for j in range(1, m0 + 1):
        denom = denom * (L_ONE - LaurentPoly.t_power(j))
    return num.exact_div_scalar(denom)
