"""Generating-function identities and scalar products.

Everything here is verified at a caller-supplied degree cap; the
identities are graded, so agreement of every capped component is a
genuine check of those components.  The building blocks (P, Q, the
one-letter skew values, theta) are exact; only sigma-style series are
truncated.

Each construction is written once: the one-variable removal sum
(`removal_sum`) and its capped product (`removal_product`) serve prodx
and theta, and the two-alphabet Cauchy sum (`cauchy_sum`) serves
Warnaar and sigmaxy.  A coefficient family is a function on partitions,
None where undefined.  P and Q are read from the memos of
`p_on_alphabet` and `q_on_alphabet`, on alphabets built once per call.

Three constructions are cached, since the checks ask for each many
times over: the Q'-expansion of an integer vector
(`hall_littlewood._qprime_of_vector_cached`, read by `extend_family`
and the dominant series), the dominant series of `theta_scalar_parts`
(`_dominant_series`), and the capped product sigma_1(-X) P_mu
(`_removal_term`).  Each is returned as a tuple or an immutable value.
A family's value c(mu) multiplies the capped product after the cap,
so the families are never summed before the product.

The theta families fix lam and run over mu: the alternating theta sum,
the skewed Warnaar form and each row of the two-alphabet Warnaar sum
read one row mu -> theta(lam, mu) (`_theta_row`), which computes the
conjugate of lam and n(lam) once; it is rebuilt per family, not kept.
"""

from __future__ import annotations

from functools import cache
from itertools import product as iproduct
from operator import index, mul, sub

from .laurent import LaurentPoly, ZERO as L_ZERO, ONE as L_ONE, T, _accumulate
from .partitions import b_poly, conjugate, n_skew, n_stat, normalize
from .partitions import partitions_up_to, subpartitions
from .xpoly import XPoly, X_ONE, _grouped, _linear_combination, xvars, yvars
from .alphabets import Alphabet, letter
from .symmetrize import pi_omega
from .hall_littlewood import (
    BasisExpansion,
    _qprime_of_vector_cached,
    p_on_alphabet,
    q_on_alphabet,
    qprime_of_vector,
    skew_qprime_one,
)


def sigma1_series(A, cap):
    """sigma_1(A) = prod over minus letters of (1 - b) times geometric
    series over plus letters, truncated at total degree cap.

    Every plus letter must carry a variable, otherwise the truncation
    never terminates.
    """
    for a in A.plus:
        if not a.mono:
            raise ValueError(f"plus letter {a} carries no variable")
    acc = X_ONE
    for b in A.minus:
        acc = acc.mul_capped(X_ONE - b.value(), cap)
    for a in A.plus:
        av = a.value()
        geom = X_ONE
        p = X_ONE
        for _ in range(cap // len(a.mono)):
            p = p * av
            geom = geom + p
        acc = acc.mul_capped(geom, cap)
    return acc.truncate_degree(cap)


# ------------------------------------------------------- one-variable removal


def extend_family(c, w):
    """Value at an arbitrary integer vector w of a family defined on
    partitions, extended through the straightening expansion of Q'_w.

    `c` maps a partition to its value, or to None where the family is
    undefined (pass `d.get` for a dict d).  The result is a LaurentPoly,
    or an XPoly when the values are.
    """
    acc = L_ZERO
    for mu, d in _qprime_of_vector_cached(tuple(map(index, w))):
        v = c(mu)
        if v is not None:
            acc = acc + v * d
    return acc


def removal_sum(c, lam, n):
    """The alternating cube sum over v in {0,1}^n of the family `c`
    (see `extend_family`) at lam - v: the coefficient of P_lam(X) in
    sigma_1(-X) times the c-weighted P sum, X = x1..xn."""
    lam = normalize(lam)
    if len(lam) > n:
        raise ValueError("partition longer than n")
    lam_pad = lam + (0,) * (n - len(lam))
    acc = L_ZERO
    for v in iproduct((0, 1), repeat=n):
        ext = extend_family(c, tuple(map(sub, lam_pad, v)))
        acc = acc - ext if sum(v) % 2 else acc + ext
    return acc


@cache
def _removal_term(mu, n, cap):
    """sigma_1(-X) P_mu(X), X = x1..xn, up to degree cap."""
    X = Alphabet.of_vars(*xvars(n))
    return sigma1_series(-X, cap).mul_capped(p_on_alphabet(mu, X), cap)


def removal_product(c, n, cap):
    """sigma_1(-X) times the sum of c(mu) P_mu(X) over partitions mu,
    X = x1..xn, up to x-degree cap; `c` is None where undefined.  A
    value c(mu) may carry other variables but never x: it multiplies
    the capped product sigma_1(-X) P_mu."""
    return _linear_combination(
        (v * _removal_term(mu, n, cap), 1)
        for mu in partitions_up_to(cap, max_length=n)
        if (v := c(mu)) is not None
    )


def prodx_sides(c, n, cap):
    """Both sides of the one-variable-removal identity for the dict `c`
    on partitions: `removal_product`, against the sum of `removal_sum`
    at lam times P_lam.  Only x-degrees are capped: a value of `c` may
    carry other variables but never x.  The keys of `c` may spell their
    partitions in any order, zeros included; two keys that spell one
    partition raise ValueError."""
    keyed = {normalize(mu): v for mu, v in c.items()}
    if len(keyed) < len(c):
        raise ValueError("two keys of the family spell one partition")
    c = keyed
    X = Alphabet.of_vars(*xvars(n))
    rhs = _linear_combination(
        (removal_sum(c.get, lam, n) * p_on_alphabet(lam, X), 1)
        for lam in partitions_up_to(cap, max_length=n)
    )
    return removal_product(c.get, n, cap), rhs


def prodx_example_families(cap=6):
    """Stock coefficient families for verification runs: a delta, the
    Q values over one extra variable, and a fixed sparse family."""
    Y = Alphabet.of_vars("y1")
    return {
        "delta at the empty partition": {(): L_ONE},
        "Q over one extra variable": {
            mu: q_on_alphabet(mu, Y) for mu in partitions_up_to(cap, max_length=1)
        },
        "fixed sparse family": {
            (): L_ONE + T,
            (1,): T,
            (2, 1): L_ONE - T,
            (3,): LaurentPoly.t_power(2),
        },
    }


# ----------------------------------------------------- two-alphabet expansion


def sigmaxy_coefficient(lam, ny=None, cap=None):
    """For fixed lam, the P-over-Y expansion of the coefficient of
    P_lam X: mu -> b_mu times the one-letter skew value of lam/mu.
    The sum is finite; ny and cap only restrict the reported terms."""
    lam = normalize(lam)
    out = {}
    for mu in subpartitions(lam):
        if ny is not None and len(mu) > ny:
            continue
        if cap is not None and sum(mu) > cap:
            continue
        v = b_poly(mu) * skew_qprime_one(lam, mu)
        if v:
            out[mu] = v
    return BasisExpansion("P", out)


def cauchy_sum(row, AX, AY, cap):
    """The sum of c P_lam(X) P_mu(Y) over |lam| + |mu| <= cap, with
    X and Y the alphabets AX and AY of plus letters, lam no longer than
    AX.  `row(lam)` gives the (mu, c) pairs of lam, each mu no longer
    than AY and |mu| <= cap - |lam|."""
    return _linear_combination(
        (p_on_alphabet(lam, AX) * p_on_alphabet(mu, AY), c)
        for lam in partitions_up_to(cap, max_length=len(AX.plus))
        for mu, c in row(lam)
    )


def sigmaxy_sides(nx, ny, cap):
    AX = Alphabet.of_vars(*xvars(nx))
    AY = Alphabet.of_vars(*yvars(ny))
    A = AX + AX.times(AY).one_minus_t()

    def row(lam):
        return sigmaxy_coefficient(lam, ny, cap - sum(lam)).coeffs.items()

    return sigma1_series(A, cap), cauchy_sum(row, AX, AY, cap)


# ------------------------------------------------------------------ theta


def _theta_row(lam):
    """The function mu -> theta(lam, mu), with the conjugate of lam and
    n(lam) computed once."""
    lc, n_lam = conjugate(lam), n_stat(lam)

    def row(mu):
        dot = sum(map(mul, lc, conjugate(mu)))
        return LaurentPoly.t_power(n_lam + n_stat(mu) - dot)

    return row


def theta(lam, mu):
    """t to the n(lam) + n(mu) - (lam~, mu~); defined for every pair."""
    return _theta_row(lam)(mu)


def theta_skew_form(lam, mu):
    """Equivalent exponent n(lam/mu) - |mu| when mu sits inside lam."""
    return LaurentPoly.t_power(n_skew(lam, mu) - sum(mu))


# ------------------------------------------------------------------ Warnaar


def warnaar_sides(nx, ny, cap):
    """The two-alphabet generating identity with theta coefficients.

    LHS alphabet: X + Y + (1/t - 1) XY, realized as plus letters
    {x_i}, {y_j}, {t^{-1} x_i y_j} and minus letters {x_i y_j}.
    """
    AX = Alphabet.of_vars(*xvars(nx))
    AY = Alphabet.of_vars(*yvars(ny))
    AXY = AX.times(AY)
    A = AX + AY + AXY.times_letter(letter(-1)) - AXY

    def row(lam):
        theta_lam = _theta_row(lam)
        for mu in partitions_up_to(cap - sum(lam), max_length=ny):
            yield mu, theta_lam(mu)

    return sigma1_series(A, cap), cauchy_sum(row, AX, AY, cap)


def warnaar3_sides(lam, n, cap):
    """Skewed single-alphabet form: sum over mu inside lam of
    t^{-|mu|} Q_mu X times the one-letter skew value, against
    sigma_1(-X) times the theta-weighted P sum."""
    lam = normalize(lam)
    X = Alphabet.of_vars(*xvars(n))
    lhs = _linear_combination(
        (q_on_alphabet(mu, X), skew_qprime_one(lam, mu).shift(-sum(mu)))
        for mu in subpartitions(lam)
        if len(mu) <= n
    )
    rhs = removal_product(_theta_row(lam), n, cap)
    return lhs.truncate_degree(cap), rhs


# --------------------------------------------------------- dominant reduction


def dominant_scalar(f, g):
    """Bilinear pairing of dominant-monomial expansions:
    ((x^lam, x^mu)) = b_lam on the diagonal, 0 off it."""
    acc = L_ZERO
    for lam, c in f.items():
        d = g.get(lam)
        if d:
            acc = acc + c * d * b_poly(lam)
    return acc


def theta_signed_sum(lam, mu, n):
    """Alternating cube sum of theta(lam, mu - v) over v in {0,1}^n."""
    return removal_sum(_theta_row(lam), mu, n)


def theta_product_form(lam, mu):
    """Closed product for the alternating theta sum: theta(lam, mu)
    times prod (1 - t^{nu_i - i + 1}) over the mu-indexed conjugate
    parts, the same exponents as in the one-letter skew value."""
    mu = normalize(mu)  # lam reaches only conjugate and theta, which sort it
    lc = conjugate(lam)
    acc = theta(lam, mu)
    for i in range(1, len(mu) + 1):
        nu_i = lc[mu[i - 1] - 1] if mu[i - 1] <= len(lc) else 0
        acc = acc * (L_ONE - LaurentPoly.t_power(nu_i - i + 1))
    return acc


@cache
def _dominant_series(base, total, weighted):
    """The dominant-monomial expansion of the Q'_{base - u} over the
    vectors u >= 0 with |u| <= total, as (kappa, coefficient) pairs.
    Weighted, each u carries t^{|u| - total}; the partner series carries
    no t factor at all."""
    out = {}
    for u in iproduct(range(total + 1), repeat=len(base)):
        s = sum(u)
        if s > total:
            continue
        w = tuple(a - b for a, b in zip(base, u))
        for kappa, d in _qprime_of_vector_cached(w):
            _accumulate(out, kappa, d.shift(s - total) if weighted else d)
    return tuple(out.items())


def theta_scalar_parts(lam, mu, n):
    """The three layers of the scalar-product proposition at rank n.

    Expands both Cauchy-style series over dominant monomials (terms of
    negative total degree reduce to zero, so the u-sum is finite),
    pairs them, and checks the value, the halfway signed sum, and the
    closed product form.
    """
    lam, mu = normalize(lam), normalize(mu)
    if len(lam) > n or len(mu) > n:
        raise ValueError("partitions longer than the rank")
    f = dict(_dominant_series(lam + (0,) * (n - len(lam)), sum(lam), True))
    g = dict(_dominant_series(mu + (0,) * (n - len(mu)), sum(mu), False))
    pair = dominant_scalar(f, g)
    signed = theta_signed_sum(lam, mu, n)
    prod = theta_product_form(lam, mu)
    half = f.get(mu, L_ZERO) * b_poly(mu)
    return {
        "pairing": pair,
        "theta": theta(lam, mu),
        "halfway": half,
        "signed_sum": signed,
        "product_form": prod,
    }


def theta_scalar_holds(parts):
    """The verdict on `theta_scalar_parts`: the pairing is theta, and
    the halfway value, the signed sum and the product form agree."""
    return (
        parts["pairing"] == parts["theta"]
        and parts["halfway"] == parts["signed_sum"]
        and parts["signed_sum"] == parts["product_form"]
    )


# --------------------------------------------------------------- CT pairing


def ct_scalar(f, g, n):
    """Constant-term pairing with the t-deformed Vandermonde kernel.

    Pushes every monomial of f times the reversed-inverted g through
    the kernel column by column.  Each Vandermonde factor (1 - x_i/x_j)
    rides in its series sum_k t^k (x_i/x_j)^k, so a step of k >= 1
    weighs t^k - t^{k-1}.  Only paths that can still reach the constant
    term are kept: the kernel preserves total degree and only lowers a
    column once its turn is over, so the bookkeeping is finite and
    complete.
    """
    vars = xvars(n)
    extra = sorted(set(f.vars + g.vars).difference(vars))
    if extra:
        raise ValueError(f"ct_scalar on n={n} cannot read {', '.join(extra)}")
    h = f * g.reverse_invert(vars)
    # keys are (t, e_1, ..., e_n) as in XPoly.terms, so column j is slot j
    cur = {k: v for k, v in h._expand_to(vars).items() if sum(k) == k[0]}
    for j in range(n, 1, -1):
        for i in range(j - 1, 0, -1):
            nxt = {}
            for key, v in cur.items():
                rem = key[j]
                if rem < 0:
                    continue
                ks = range(rem + 1) if i > 1 else (rem,)
                for k in ks:
                    w = list(key)
                    w[i] += k
                    w[j] -= k
                    w[0] += k
                    up = tuple(w)
                    nxt[up] = nxt.get(up, 0) + v
                    if k:  # the -t^(k-1) of the Vandermonde factor
                        w[0] -= 1
                        down = tuple(w)
                        nxt[down] = nxt.get(down, 0) - v
            cur = {key: v for key, v in nxt.items() if v}
    # the last push of each column j >= 2 empties it, and the total
    # degree stays 0, so only the constant term is left
    return LaurentPoly._trusted({k[0]: v for k, v in cur.items() if not any(k[1:])})


def q_monomial_pairing(lam, mu, n):
    """(Q_lam, x^mu) on n variables: `ct_scalar` of Q_lam and the monomial
    x^mu, mu padded with zeros to n exponents."""
    if len(lam) > n or len(mu) > n:
        raise ValueError("partitions longer than the variable count")
    names = xvars(n)
    g = XPoly.monomial(names, mu + (0,) * (n - len(mu)))
    return ct_scalar(q_on_alphabet(lam, Alphabet.of_vars(*names)), g, n)


# ------------------------------------------------------------- operator note


def _two_var_monomial(e, coeff=1):
    return XPoly.monomial(("x1", "x2"), e, coeff)


def kernel_image_two_vars(v):
    """Image of x^v under multiplication by (1 - t x2/x1) followed by
    the longest isobaric divided difference, in two variables."""
    f = _two_var_monomial(v) * (X_ONE - _two_var_monomial((-1, 1), T))
    return pi_omega(f, 2)


def defq_note_parts():
    """The boundary-of-definition study in two variables.

    The displayed three-term combination lies in the operator kernel;
    the image of the single non-dominant monomial x^{02}, normalized
    the same way as for dominant weights, differs from the straightened
    combination t Q_20 + (t-1) Q_11 -- so the operator recipe does not
    extend to non-dominant weights, while the straightening route gives
    the stated Q' relation.
    """
    im02 = kernel_image_two_vars((0, 2))
    im20 = kernel_image_two_vars((2, 0))
    im11 = kernel_image_two_vars((1, 1))
    relation = im02 - im20.scale(T) + im11.scale(L_ONE - T)
    expected_im02 = (
        _two_var_monomial((2, 0), T)
        + _two_var_monomial((1, 1), T - L_ONE)
        + _two_var_monomial((0, 2), T)
    )
    X = Alphabet.of_vars("x1", "x2")
    q20 = q_on_alphabet((2,), X)
    q11 = q_on_alphabet((1, 1), X)
    display = q20.scale(T) + q11.scale(T - L_ONE)
    candidate = im02.scale(L_ONE - T)
    straightened = qprime_of_vector((0, 2)).coeffs
    return {
        "kernel_relation": relation,
        "intermediate_ok": im02 == expected_im02,
        "difference": candidate - display,
        "proportional": is_proportional(candidate, display),
        "straightening_ok": straightened
        == {(2,): T, (1, 1): T - L_ONE},
    }


def defq_note_holds(parts):
    """The verdict on `defq_note_parts`: all four statements hold."""
    return (
        not parts["kernel_relation"]
        and parts["intermediate_ok"]
        and bool(parts["difference"])
        and not parts["proportional"]
        and parts["straightening_ok"]
    )


def is_proportional(f, g):
    """True when f and g differ by a fixed rational function of t."""
    if not f and not g:
        return True
    if not f or not g:
        return False
    _, a, b = f._aligned(g)
    a, b = _grouped(a), _grouped(b)
    e0 = next(iter(b))
    f0, g0 = a.get(e0, L_ZERO), b[e0]
    for e in set(a) | set(b):
        if a.get(e, L_ZERO) * g0 != b.get(e, L_ZERO) * f0:
            return False
    return True
