"""The acceptance gate: thirteen exact checks, tolerance zero.

Each criterion function returns (ok, detail).  They are deliberately
redundant with the unit suite: everything here goes through at least
two independently implemented routes, and every frozen constant was
computed by hand or by an oracle before being written down.
"""

from __future__ import annotations

import random
from itertools import product as iproduct
from operator import eq

from .laurent import LaurentPoly, ZERO as L_ZERO, ONE as L_ONE, T, _accumulate
from .partitions import (
    b_poly,
    is_horizontal_strip,
    partitions_of,
    partitions_up_to,
    subpartitions,
    suffix_nonneg,
)
from .xpoly import XPoly, xvars
from .symmetrize import kernel_schur, pi_i, straighten_schur
from .hall_littlewood import (
    BasisExpansion,
    _qprime_schur_cached,
    add_one,
    aleph,
    factorization_sides,
    kostka_foulkes,
    plane_partition_qprime,
    principal_specialization,
    qprime_on_alphabet,
    qprime_schur,
    skew_qprime_one_columns,
    t_minus_x_alphabet,
    tableau_route_xpoly,
    two_letter_sides,
)
from .identities import (
    defq_note_holds,
    defq_note_parts,
    prodx_example_families,
    prodx_sides,
    q_monomial_pairing,
    sigmaxy_coefficient,
    sigmaxy_sides,
    theta,
    theta_product_form,
    theta_scalar_holds,
    theta_scalar_parts,
    theta_signed_sum,
    theta_skew_form,
    warnaar3_sides,
    warnaar_sides,
)

# The sizes (nx, ny) of X and Y at which criteria 8 and 9 compare sides.
_TWO_ALPHABET_SIZES = ((1, 1), (1, 2), (2, 1), (2, 2))


def _first_failure(cases, holds):
    """The first case, in order, for which holds(*case) is false; None
    when every case holds."""
    return next((case for case in cases if not holds(*case)), None)


def criterion_1():
    """Q'[2,1] in the Schur basis, and the t=0 collapse up to degree 7."""
    want = BasisExpansion("S", {(2, 1): L_ONE, (3,): T})
    first = qprime_schur((2, 1)) == want
    bad = []
    for lam in partitions_up_to(7):
        at0 = {}
        for rho, c in qprime_schur(lam).coeffs.items():
            v = c.at_t_zero()
            if v:
                at0[rho] = v
        if at0 != {lam: 1}:
            bad.append(lam)
    ok = first and not bad
    return ok, (
        f"Qp[2,1] = S[2,1] + t*S[3]: {first}; "
        f"t=0 collapse to a single Schur term for all |lam| <= 7: {not bad}"
    )


def criterion_2():
    """Frozen coefficient table for the X+1 shift of Q'[2,2,1]."""
    want = BasisExpansion(
        "Qp",
        {
            (): LaurentPoly.t_power(4),
            (1,): LaurentPoly({2: 1, 3: 1, 4: 1}),
            (2,): LaurentPoly({1: 1, 2: 1}),
            (1, 1): LaurentPoly({1: 1, 2: 1, 3: 1}),
            (2, 1): LaurentPoly({0: 1, 1: 2, 2: 1}),
            (1, 1, 1): T,
            (2, 2): L_ONE,
            (2, 1, 1): LaurentPoly({0: 1, 1: 1}),
            (2, 2, 1): L_ONE,
        },
    )
    got = add_one((2, 2, 1))
    ok = got == want
    return ok, f"all nine X+1 coefficients of Qp[2,2,1] match: {ok}"


def criterion_3():
    """Closed form and column rule on a large skew one-letter value."""
    lam, mu = (4, 4, 3, 2, 2, 2, 1), (2, 2, 1, 1)
    closed = aleph(lam, mu)
    tp = LaurentPoly.t_power
    want = tp(13) * (L_ONE - tp(6)) * (L_ONE - tp(5)) ** 2 * (L_ONE - tp(4))
    want = want.exact_div(b_poly(mu))
    col = skew_qprime_one_columns(lam, mu)
    ok = closed == want and col == closed
    return ok, (
        f"closed form equals t^13(1-t^6)(1-t^5)^2(1-t^4)/b_mu: "
        f"{closed == want}; column rule agrees: {col == closed}"
    )


def criterion_4():
    """Charge route against kernel route, all |lam| <= 7, lengths <= n <= 4."""
    cases = [
        (lam, n)
        for lam in partitions_up_to(7, max_length=4)
        for n in range(max(1, len(lam)), 5)
    ]

    def holds(lam, n):
        kfs = ((rho, kostka_foulkes(rho, lam)) for rho in partitions_of(sum(lam)))
        charge_route = {rho: kf for rho, kf in kfs if kf}
        return kernel_schur(lam + (0,) * (n - len(lam))) == charge_route

    if bad := _first_failure(cases, holds):
        return False, "charge and kernel routes differ at lam={}, n={}".format(*bad)
    return True, f"{len(cases)} (lam, n) pairs agree across the two routes"


def criterion_5():
    """[S_kappa] Q'_lam(X+1), kappa inside lam, by the creation operators,
    sum_rho K(rho, lam) [rho/kappa a horizontal strip], and by charge and
    the closed form, sum_nu KF(kappa, nu) aleph(lam, nu)."""
    checked = 0
    for lam in partitions_up_to(6):
        expansion = _qprime_schur_cached(lam)
        inside = subpartitions(lam)
        for kappa in inside:
            strips = [kf for rho, kf in expansion if is_horizontal_strip(rho, kappa)]
            same_size = [nu for nu in inside if sum(nu) == sum(kappa)]
            by_aleph = [kostka_foulkes(kappa, nu) * aleph(lam, nu) for nu in same_size]
            if sum(strips, L_ZERO) != sum(by_aleph, L_ZERO):
                return False, f"mismatch at lam={lam}, kappa={kappa}"
            checked += 1
    return True, f"{checked} skew values match the closed form"


def criterion_6():
    """Layer-chain expansion against the tableau route, plus the frozen
    degree-3 coefficient pattern on three variables."""
    cases = [(lam, n) for lam in partitions_up_to(5) for n in (1, 2, 3)]

    def holds(lam, n):
        return plane_partition_qprime(lam, n) == tableau_route_xpoly(lam, n)

    if bad := _first_failure(cases, holds):
        return False, "layer-chain and tableau routes differ at lam={}, n={}".format(*bad)
    f = plane_partition_qprime((2, 1), 3)
    vars3 = xvars(3)
    pure = all(
        f.coeff_of(e, vars3) == T
        for e in ((3, 0, 0), (0, 3, 0), (0, 0, 3))
    )
    two = all(
        f.coeff_of(e, vars3) == LaurentPoly({0: 1, 1: 1})
        for e in ((2, 1, 0), (1, 2, 0), (2, 0, 1), (1, 0, 2), (0, 2, 1), (0, 1, 2))
    )
    three = f.coeff_of((1, 1, 1), vars3) == LaurentPoly({0: 2, 1: 1})
    ok = len(cases) == 57 and pure and two and three
    return ok, (
        f"{len(cases)} chain/tableau agreements; Qp[2,1] display "
        f"(t, 1+t, 2+t): {pure and two and three}"
    )


def criterion_7():
    """The three factorization families at t-power-minus-variables
    arguments: width split, single-variable closed form, two-variable
    cleared-multinomial form."""
    split = [(lam, r, n) for lam in partitions_up_to(8) for n in (1, 2, 3) for r in (0, 1)]
    if bad := _first_failure(split, lambda *case: eq(*factorization_sides(*case))):
        return False, "width split fails at lam={}, r={}, n={}".format(*bad)
    single = [(lam,) for lam in partitions_up_to(6)]
    one_minus_x1 = t_minus_x_alphabet(0, 1)

    def closed_form_holds(lam):
        return principal_specialization(lam) == qprime_on_alphabet(lam, one_minus_x1)

    if bad := _first_failure(single, closed_form_holds):
        return False, "single-variable closed form fails at lam={}".format(*bad)
    two = [
        (k, nu, beta)
        for k in (0, 1, 2)
        for beta in (0, 1, 2)
        for m in (0, 1, 2)
        for nu in partitions_of(m, max_length=k)
    ]
    if bad := _first_failure(two, lambda *case: eq(*two_letter_sides(*case))):
        return False, "two-variable form fails at k={}, nu={}, beta={}".format(*bad)
    return True, (
        f"width split: {len(split)} cases; single variable: {len(single)} cases; "
        f"two variables: {len(two)} cases"
    )


def criterion_8():
    """Capped series products: the one-variable-removal identity for
    three coefficient families, the X+XY(1-t) product, and the frozen
    P-basis display for the coefficient of P[4,2]."""
    families = prodx_example_families(6)
    removal = [(name, n) for name in families for n in (1, 2)]
    if bad := _first_failure(removal, lambda name, n: eq(*prodx_sides(families[name], n, 6))):
        return False, "product identity fails for {} at n={}".format(*bad)
    if bad := _first_failure(_TWO_ALPHABET_SIZES, lambda nx, ny: eq(*sigmaxy_sides(nx, ny, 6))):
        return False, "two-alphabet product fails at nx={}, ny={}".format(*bad)
    one_m_t = L_ONE - T
    one_m_t2 = L_ONE - LaurentPoly.t_power(2)
    want = {
        (): LaurentPoly.t_power(2),
        (1,): T * one_m_t2,
        (2,): one_m_t2,
        (1, 1): T * one_m_t * one_m_t2,
        (3,): one_m_t,
        (2, 1): one_m_t * one_m_t2,
        (4,): one_m_t,
        (3, 1): one_m_t * one_m_t,
        (2, 2): one_m_t * one_m_t2,
        (4, 1): one_m_t * one_m_t,
        (3, 2): one_m_t * one_m_t,
        (4, 2): one_m_t * one_m_t,
    }
    disp = sigmaxy_coefficient((4, 2)) == BasisExpansion("P", want)
    if not disp:
        return False, "P[4,2] coefficient display mismatch"
    return True, (
        f"{len(families)} removal families at n <= 2, "
        f"{len(_TWO_ALPHABET_SIZES)} two-alphabet caps, "
        "and the P[4,2] display all hold at cap 6"
    )


def criterion_9():
    """Theta-weighted two-alphabet product and its skewed one-alphabet
    consequence."""
    if bad := _first_failure(_TWO_ALPHABET_SIZES, lambda nx, ny: eq(*warnaar_sides(nx, ny, 6))):
        return False, "two-alphabet form fails at nx={}, ny={}".format(*bad)
    skewed = [(lam,) for lam in partitions_up_to(5)]
    if bad := _first_failure(skewed, lambda lam: eq(*warnaar3_sides(lam, 2, 6))):
        return False, "skewed form fails at lam={}".format(*bad)
    return True, (
        f"{len(_TWO_ALPHABET_SIZES)} two-alphabet caps and {len(skewed)} skewed cases "
        "hold at cap 6"
    )


def criterion_10():
    """The two theta formulas agree wherever both apply, and the product
    form of the alternating sum matches brute force."""
    pairs = [(lam, mu) for lam in partitions_up_to(8) for mu in subpartitions(lam)]
    if bad := _first_failure(pairs, lambda lam, mu: theta(lam, mu) == theta_skew_form(lam, mu)):
        return False, "theta formulas differ at lam={}, mu={}".format(*bad)
    alternating = [(lam, mu) for lam in partitions_up_to(6) for mu in subpartitions(lam)]

    def alternating_holds(lam, mu):
        return theta_signed_sum(lam, mu, len(mu)) == theta_product_form(lam, mu)

    if bad := _first_failure(alternating, alternating_holds):
        return False, "alternating sum differs at lam={}, mu={}".format(*bad)
    return True, f"{len(pairs)} formula agreements; {len(alternating)} alternating-sum cases"


def criterion_11():
    """Scalar products: the dominant-expansion pairing chain at rank 3,
    and constant-term orthogonality of Q against dominant monomials."""
    small = partitions_up_to(4, max_length=3)
    chains = [(lam, mu) for lam in small for mu in small]
    if bad := _first_failure(
        chains, lambda lam, mu: theta_scalar_holds(theta_scalar_parts(lam, mu, 3))
    ):
        return False, "pairing chain fails at lam={}, mu={}".format(*bad)
    orthogonality = [
        (lam, mu, n)
        for n in (1, 2, 3)
        for lam in partitions_up_to(4, max_length=n)
        for mu in partitions_up_to(4, max_length=n)
    ]

    def orthogonal(lam, mu, n):
        want = b_poly(lam) if lam == mu else L_ZERO
        return q_monomial_pairing(lam, mu, n) == want

    if bad := _first_failure(orthogonality, orthogonal):
        return False, "constant-term pairing fails at lam={}, mu={}, n={}".format(*bad)
    return True, f"{len(chains)} pairing chains; {len(orthogonality)} orthogonality values"


def criterion_12():
    """The two-variable boundary study: kernel relation, intermediate
    image, non-extension of the operator recipe, straightened relation."""
    parts = defq_note_parts()
    ok = defq_note_holds(parts)
    return ok, (
        f"kernel relation is zero: {not parts['kernel_relation']}; "
        f"intermediate image matches: {parts['intermediate_ok']}; "
        f"operator candidate differs from the straightened combination "
        f"(nonzero, non-proportional): "
        f"{bool(parts['difference']) and not parts['proportional']}; "
        f"straightening gives t*Qp[2] + (t-1)*Qp[1,1]: "
        f"{parts['straightening_ok']}"
    )


def criterion_13():
    """Property suites: operator idempotence and braid relations on
    random Laurent input, vanishing of dropped monomials, and
    nonnegativity of the charge-graded Schur coefficients."""
    rng = random.Random(20260816)

    def rand_poly(n):
        terms = {}
        for _ in range(4):
            e = tuple(rng.randint(-2, 4) for _ in range(n))
            c = LaurentPoly(
                {rng.randint(-1, 2): rng.choice([-3, -2, -1, 1, 2, 3])}
            )
            _accumulate(terms, e, c)
        return XPoly(xvars(n), terms)

    n_op = 0
    for n in (2, 3, 4):
        for _ in range(3):
            f = rand_poly(n)
            for i in range(1, n):
                once = pi_i(f, i, n)
                if pi_i(once, i, n) != once:
                    return False, f"idempotence fails at n={n}, i={i}"
                n_op += 1
            for i in range(1, n - 1):
                aba = pi_i(pi_i(pi_i(f, i, n), i + 1, n), i, n)
                bab = pi_i(pi_i(pi_i(f, i + 1, n), i, n), i + 1, n)
                if aba != bab:
                    return False, f"braid relation fails at n={n}, i={i}"
                n_op += 1
        if n == 4:
            f = rand_poly(4)
            if pi_i(pi_i(f, 1, 4), 3, 4) != pi_i(pi_i(f, 3, 4), 1, 4):
                return False, "distant commutation fails at n=4"
            n_op += 1
    n_drop = 0
    for n in (1, 2, 3):
        for v in iproduct(range(-4, 5), repeat=n):
            if suffix_nonneg(v):
                continue
            if straighten_schur(v) is not None:
                return False, f"dropped monomial {v} straightens nonzero"
            n_drop += 1
    n_kostka = 0
    for lam in partitions_up_to(7):
        for rho, c in kernel_schur(lam).items():
            if any(v < 0 for v in c.coeffs.values()) or (
                c and c.min_exp() < 0
            ):
                return False, f"negative Schur coefficient at lam={lam}, rho={rho}"
            n_kostka += 1
    return True, (
        f"{n_op} operator identities; {n_drop} dropped monomials vanish; "
        f"{n_kostka} charge polynomials are nonnegative"
    )


CRITERIA = (
    (1, "charge-route basics and t=0 collapse", criterion_1),
    (2, "X+1 shift coefficient table for Qp[2,2,1]", criterion_2),
    (3, "one-letter skew value closed form and column rule", criterion_3),
    (4, "charge route vs kernel route, |lam| <= 7", criterion_4),
    (5, "skew extraction at the one-letter alphabet, |lam| <= 6", criterion_5),
    (6, "layer-chain vs tableau expansion, |lam| <= 5", criterion_6),
    (7, "factorizations at t-power-minus-variables arguments", criterion_7),
    (8, "capped series products and the P[4,2] display", criterion_8),
    (9, "theta-weighted products, two-alphabet and skewed", criterion_9),
    (10, "theta formula consistency and alternating sums", criterion_10),
    (11, "dominant-expansion and constant-term scalar products", criterion_11),
    (12, "two-variable operator boundary study", criterion_12),
    (13, "operator, truncation, and nonnegativity property suites", criterion_13),
)

