"""Modified Hall-Littlewood polynomials and their argument-shift theory.

Q' lives here in three incarnations that the test suite plays against
each other:

  * charge route: Q'_mu = sum over tableaux T of weight mu of
    t^charge(T) S_shape(T);
  * kernel route: the truncated symmetrization of x^u against the
    geometric kernel, defined for any integer vector u;
  * alphabet route: the Schur expansion evaluated on a formal alphabet.

On top of that sit the one-letter skew values (closed form and column
rule), the argument shifts by +1 and -1, general skew extraction, the
plane-partition expansion (the shift by one letter applied once per
variable, as a branching recursion over the one-letter skew values),
and the factorization of Q' at arguments of the form t^r minus a finite
variable set.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from itertools import product as iproduct
from math import comb

from .laurent import LaurentPoly, ZERO as L_ZERO, ONE as L_ONE
from .laurent import _accumulate, _fmt_coeff
from .partitions import (
    b_poly,
    conjugate,
    dominance_leq,
    is_partition,
    multiplicities,
    n_skew,
    n_stat,
    normalize,
    partitions_of,
    subpartitions,
    t_binomial,
    t_factorial,
)
from .tableaux import _charge, enumerate_ssyt, reading_word
from .symmetrize import kernel_schur
from .alphabets import Alphabet, letter, schur_eval, schur_on_xvars, skew_schur_eval
from .xpoly import XPoly, X_ONE, X_ZERO, _linear_combination, xvars


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


# ---------------------------------------------------------------- charge route


@cache
def kostka_foulkes(rho, mu):
    """Charge generating polynomial over tableaux of shape rho, weight mu."""
    rho, mu = normalize(rho), normalize(mu)
    if sum(rho) != sum(mu) or not dominance_leq(mu, rho):
        return L_ZERO
    counts = {}
    for tab in enumerate_ssyt(rho, mu):
        c = _charge(reading_word(tab), mu)
        counts[c] = counts.get(c, 0) + 1
    return LaurentPoly(counts)


@cache
def _qprime_schur_cached(mu):
    out = {}
    for rho in partitions_of(sum(mu)):
        kf = kostka_foulkes(rho, mu)
        if kf:
            out[rho] = kf
    return tuple(sorted(out.items()))


def qprime_schur(mu):
    """Schur expansion of Q'_mu by the charge statistic."""
    mu = normalize(mu)
    if not is_partition(mu):
        raise ValueError(f"{mu} is not a partition")
    return BasisExpansion("S", dict(_qprime_schur_cached(mu)))


# ---------------------------------------------------------------- kernel route


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
    and straighten the kernel image, then back-substitute.
    """
    u = tuple(int(x) for x in u)
    return BasisExpansion("Qp", schur_to_qprime(kernel_schur(u)))


def qprime_vector_schur(u):
    """Schur expansion of Q'_u straight from the kernel."""
    u = tuple(int(x) for x in u)
    return BasisExpansion("S", kernel_schur(u))


# ---------------------------------------------------------------- alphabet route


@cache
def qprime_on_alphabet(lam, A):
    """Q'_lam evaluated on a formal alphabet, via the Schur expansion."""
    lam = normalize(lam)
    return _linear_combination(
        (schur_eval(rho, A), kf) for rho, kf in _qprime_schur_cached(lam)
    )


def q_on_alphabet(lam, A):
    """Q_lam X = Q'_lam(X(1-t))."""
    return qprime_on_alphabet(tuple(normalize(lam)), A.one_minus_t())


def p_on_alphabet(lam, A):
    """P_lam = Q_lam / b_lam; the division is exact."""
    lam = normalize(lam)
    return q_on_alphabet(lam, A).exact_div_scalar(b_poly(lam))


@cache
def p_on_xvars(lam, n):
    return p_on_alphabet(normalize(lam), Alphabet.of_vars(*xvars(n)))


@cache
def q_on_xvars(lam, n):
    return q_on_alphabet(normalize(lam), Alphabet.of_vars(*xvars(n)))


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
    lc = conjugate(lam)
    r = len(mu)
    prod = L_ONE
    for i in range(1, r + 1):
        nu_i = lc[mu[i - 1] - 1] if mu[i - 1] <= len(lc) else 0
        a = nu_i - i + 1
        if a <= 0:
            return L_ZERO
        prod = prod * (L_ONE - LaurentPoly.t_power(a))
    val = LaurentPoly.t_power(n_skew(lam, mu)) * prod
    return val.exact_div(b_poly(mu))


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
    lam = normalize(lam)
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
    return BasisExpansion("Qp", out)


def compose_shift(expansion, shift_fn):
    """Apply a Q'-basis shift map to every term of a Q'-expansion."""
    out = {}
    for lam, c in expansion.coeffs.items():
        for mu, d in shift_fn(lam).coeffs.items():
            _accumulate(out, mu, c * d)
    return BasisExpansion("Qp", out)


# ------------------------------------------------------------- skew extraction


@cache
def _skew_qprime_layer(lam, A, m):
    """All Q'_{lam/mu}(A) for |mu| = m, by unitriangular extraction.

    The coefficient of S_kappa in the second alphabet is
    C_kappa = sum_rho KF(rho,lam) S_{rho/kappa}(A) and also
    C_kappa = sum_{nu dominated by kappa} KF(kappa,nu) Q'_{lam/nu}(A);
    ascending lex refines dominance, so one sweep solves the system.
    """
    charge_route = _qprime_schur_cached(normalize(lam))
    solved = {}
    for kappa in sorted(partitions_of(m)):
        known = [(skew_schur_eval(rho, kappa, A), kf) for rho, kf in charge_route]
        lower = [(q, -kostka_foulkes(kappa, nu)) for nu, q in solved.items()]
        solved[kappa] = _linear_combination(known + lower)
    return tuple(solved.items())


def skew_qprime(lam, mu, A):
    """Q'_{lam/mu} evaluated at the alphabet A."""
    lam, mu = normalize(lam), normalize(mu)
    for kappa, val in _skew_qprime_layer(lam, A, sum(mu)):
        if kappa == mu:
            return val
    return X_ZERO


# ------------------------------------------------------ plane-partition route


def plane_partition_qprime(lam, n):
    """Q'_lam on n variables by the one-letter branching rule.

    Q'_lam(x_i..x_n) = sum over mu inside lam of
    aleph(lam, mu) x_i^{|lam/mu|} Q'_mu(x_{i+1}..x_n); unrolled to the
    empty partition this sums over the plane partitions of shape lam
    with entries at most n.  Each (mu, letters left) is expanded once.
    """
    if n < 0:
        raise ValueError(f"variable count must be nonnegative, got {n}")

    @cache
    def expand(mu, k):
        """{exponents of x_{n-k+1}..x_n: coefficient} of Q'_mu."""
        if k == 0:
            return {} if mu else {(): L_ONE}
        out = {}
        size = sum(mu)
        for nu in subpartitions(mu):
            a = skew_qprime_one(mu, nu)
            if not a:
                continue
            d = size - sum(nu)
            for exps, c in expand(nu, k - 1).items():
                _accumulate(out, (d,) + exps, a * c)
        return out

    terms = expand(normalize(lam), n)
    expand.cache_clear()  # free the memo now, not at the next cycle collection
    return XPoly._trusted(xvars(n), terms)


def tableau_route_xpoly(lam, n):
    """Q'_lam on n variables via the charge-route Schur expansion."""
    return _linear_combination(
        (schur_on_xvars(rho, n), kf)
        for rho, kf in _qprime_schur_cached(normalize(lam))
        if len(rho) <= n
    )


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
    from .symmetrize import pi_omega

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
