"""The acceptance gate: thirteen exact checks, tolerance zero.

Each criterion function returns (ok, detail).  They are deliberately
redundant with the unit suite: everything here goes through at least
two independently implemented routes, and every frozen constant was
computed by hand or by an oracle before being written down.
"""

from __future__ import annotations

import random
from itertools import product as iproduct

from .laurent import LaurentPoly, ZERO as L_ZERO, ONE as L_ONE, T, _accumulate
from .partitions import (
    b_poly,
    partitions_of,
    partitions_up_to,
    subpartitions,
    suffix_nonneg,
)
from .xpoly import XPoly, xvars
from .alphabets import Alphabet
from .symmetrize import kernel_schur, pi_i, straighten_schur
from .hall_littlewood import (
    BasisExpansion,
    _qprime_schur_cached,
    add_one,
    aleph,
    one_minus_x_factorization_check,
    plane_partition_qprime,
    principal_specialization_check,
    q_on_xvars,
    qprime_schur,
    skew_qprime,
    skew_qprime_one_columns,
    tableau_route_xpoly,
    two_letter_factorization_check,
)
from .identities import (
    ct_scalar,
    defq_note_parts,
    prodx_check,
    sigmaxy_check,
    sigmaxy_coefficient,
    theta,
    theta_product_form,
    theta_signed_sum,
    theta_skew_form,
    theta_scalar_check,
    warnaar3_check,
    warnaar_check,
)


def _tp(k):
    return LaurentPoly.t_power(k)


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
            (): _tp(4),
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
    want = _tp(13) * (L_ONE - _tp(6)) * (L_ONE - _tp(5)) ** 2 * (
        L_ONE - _tp(4)
    )
    want = want.exact_div(b_poly(mu))
    col = skew_qprime_one_columns(lam, mu)
    ok = closed == want and col == closed
    return ok, (
        f"closed form equals t^13(1-t^6)(1-t^5)^2(1-t^4)/b_mu: "
        f"{closed == want}; column rule agrees: {col == closed}"
    )


def criterion_4():
    """Charge route against kernel route, all |lam| <= 7, lengths <= n <= 4."""
    checked = 0
    for lam in partitions_up_to(7):
        if len(lam) > 4:
            continue
        charge_route = dict(_qprime_schur_cached(lam))
        for n in range(max(1, len(lam)), 5):
            padded = lam + (0,) * (n - len(lam))
            if kernel_schur(padded) != charge_route:
                return False, f"mismatch at lam={lam}, n={n}"
            checked += 1
    return True, f"{checked} (lam, n) pairs agree across the two routes"


def criterion_5():
    """Skew extraction at the one-letter alphabet against the closed form."""
    one = Alphabet.unit()
    checked = 0
    for lam in partitions_up_to(6):
        for mu in subpartitions(lam):
            got = skew_qprime(lam, mu, one)
            want = XPoly.const(aleph(lam, mu))
            if got != want:
                return False, f"mismatch at lam={lam}, mu={mu}"
            checked += 1
    return True, f"{checked} skew values match the closed form"


def criterion_6():
    """Layer-chain expansion against the tableau route, plus the frozen
    degree-3 coefficient pattern on three variables."""
    checked = 0
    for lam in partitions_up_to(5):
        for n in (1, 2, 3):
            if plane_partition_qprime(lam, n) != tableau_route_xpoly(lam, n):
                return False, f"mismatch at lam={lam}, n={n}"
            checked += 1
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
    ok = checked == 57 and pure and two and three
    return ok, (
        f"{checked} chain/tableau agreements; Qp[2,1] display "
        f"(t, 1+t, 2+t): {pure and two and three}"
    )


def criterion_7():
    """The three factorization families at t-power-minus-variables
    arguments: width split, single-variable closed form, two-variable
    cleared-multinomial form."""
    n_split = 0
    for lam in partitions_up_to(8):
        for n in (1, 2, 3):
            for r in (0, 1):
                if not one_minus_x_factorization_check(lam, r, n):
                    return False, f"width split fails at lam={lam}, r={r}, n={n}"
                n_split += 1
    n_prin = 0
    for lam in partitions_up_to(6):
        if not principal_specialization_check(lam):
            return False, f"single-variable closed form fails at lam={lam}"
        n_prin += 1
    n_two = 0
    for k in (0, 1, 2):
        for beta in (0, 1, 2):
            for m in (0, 1, 2):
                for nu in partitions_of(m):
                    if len(nu) > k:
                        continue
                    if not two_letter_factorization_check(k, nu, beta):
                        return False, (
                            f"two-variable form fails at k={k}, nu={nu}, "
                            f"beta={beta}"
                        )
                    n_two += 1
    return True, (
        f"width split: {n_split} cases; single variable: {n_prin} cases; "
        f"two variables: {n_two} cases"
    )


def criterion_8():
    """Capped series products: the one-variable-removal identity for
    three coefficient families, the X+XY(1-t) product, and the frozen
    P-basis display for the coefficient of P[4,2]."""
    from .identities import prodx_example_families

    for name, fam in prodx_example_families(6).items():
        for n in (1, 2):
            if not prodx_check(fam, n, 6):
                return False, f"product identity fails for {name} at n={n}"
    for nx, ny in ((1, 1), (1, 2), (2, 1), (2, 2)):
        if not sigmaxy_check(nx, ny, 6):
            return False, f"two-alphabet product fails at nx={nx}, ny={ny}"
    one_m_t = L_ONE - T
    one_m_t2 = L_ONE - _tp(2)
    want = {
        (): _tp(2),
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
        "3 removal families at n <= 2, 4 two-alphabet caps, and the "
        "P[4,2] display all hold at cap 6"
    )


def criterion_9():
    """Theta-weighted two-alphabet product and its skewed one-alphabet
    consequence."""
    for nx, ny in ((1, 1), (1, 2), (2, 1), (2, 2)):
        if not warnaar_check(nx, ny, 6):
            return False, f"two-alphabet form fails at nx={nx}, ny={ny}"
    n3 = 0
    for lam in partitions_up_to(5):
        if not warnaar3_check(lam, 2, 6):
            return False, f"skewed form fails at lam={lam}"
        n3 += 1
    return True, f"4 two-alphabet caps and {n3} skewed cases hold at cap 6"


def criterion_10():
    """The two theta formulas agree wherever both apply, and the product
    form of the alternating sum matches brute force."""
    n_pairs = 0
    for lam in partitions_up_to(8):
        for mu in subpartitions(lam):
            if theta(lam, mu) != theta_skew_form(lam, mu):
                return False, f"theta formulas differ at lam={lam}, mu={mu}"
            n_pairs += 1
    n_alt = 0
    for lam in partitions_up_to(6):
        for mu in subpartitions(lam):
            n = len(mu)
            if theta_signed_sum(lam, mu, n) != theta_product_form(lam, mu):
                return False, f"alternating sum differs at lam={lam}, mu={mu}"
            n_alt += 1
    return True, (
        f"{n_pairs} formula agreements; {n_alt} alternating-sum cases"
    )


def criterion_11():
    """Scalar products: the dominant-expansion pairing chain at rank 3,
    and constant-term orthogonality of Q against dominant monomials."""
    small = [lam for lam in partitions_up_to(4) if len(lam) <= 3]
    n_chain = 0
    for lam in small:
        for mu in small:
            if not theta_scalar_check(lam, mu, 3):
                return False, f"pairing chain fails at lam={lam}, mu={mu}"
            n_chain += 1
    n_ct = 0
    for n in (1, 2, 3):
        vs = [lam for lam in partitions_up_to(4) if len(lam) <= n]
        for lam in vs:
            for mu in vs:
                f = q_on_xvars(lam, n)
                g = XPoly.monomial(xvars(n), mu + (0,) * (n - len(mu)))
                got = ct_scalar(f, g, n)
                want = b_poly(lam) if lam == mu else L_ZERO
                if got != want:
                    return False, (
                        f"constant-term pairing fails at lam={lam}, "
                        f"mu={mu}, n={n}"
                    )
                n_ct += 1
    return True, f"{n_chain} pairing chains; {n_ct} orthogonality values"


def criterion_12():
    """The two-variable boundary study: kernel relation, intermediate
    image, non-extension of the operator recipe, straightened relation."""
    parts = defq_note_parts()
    ok = (
        not parts["kernel_relation"]
        and parts["intermediate_ok"]
        and bool(parts["difference"])
        and not parts["proportional"]
        and parts["straightening_ok"]
    )
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


def run_all(numbers=None):
    """Run the gate; returns a list of (number, title, ok, detail)."""
    results = []
    for num, title, fn in CRITERIA:
        if numbers and num not in numbers:
            continue
        ok, detail = fn()
        results.append((num, title, ok, detail))
    return results
