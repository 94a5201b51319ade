"""Series identities, theta pairing, and the constant-term scalar.

Frozen values here were recomputed by hand from the closed forms
(theta exponent arithmetic, b-polynomial products, the one-letter skew
formula) before being written down.
"""

import pytest
from hypothesis import given, settings, strategies as st

from hlkit.laurent import LaurentPoly, ONE as L_ONE
from hlkit.partitions import b_poly, n_stat, partitions_up_to
from hlkit.alphabets import Alphabet, letter
from hlkit.xpoly import X_ONE, XPoly, xvars
from hlkit.hall_littlewood import p_on_xvars, q_on_xvars, qprime_of_vector
from hlkit.identities import (
    _dominant_series,
    ct_scalar,
    defq_note_holds,
    defq_note_parts,
    dominant_scalar,
    extend_family,
    is_proportional,
    kernel_image_two_vars,
    prodx_example_families,
    prodx_sides,
    removal_product,
    sigma1_series,
    sigmaxy_coefficient,
    sigmaxy_sides,
    theta,
    theta_product_form,
    theta_scalar_holds,
    theta_scalar_parts,
    theta_signed_sum,
    warnaar3_sides,
    warnaar_sides,
)
from oracles import ct_scalar_bruteforce, q_via_operator, removal_product_by_loop

T = LaurentPoly.t_power
ONE_M_T = L_ONE - T(1)


def xmono(n, exps, coeff=None):
    c = coeff if coeff is not None else L_ONE
    return XPoly.monomial(xvars(n), tuple(exps), c)


class TestSigmaSeries:
    def test_single_variable(self):
        got = sigma1_series(Alphabet.of_vars("x1"), 3)
        want = sum(
            (xmono(1, (k,)) for k in range(1, 4)), xmono(1, (0,))
        )
        assert got == want

    def test_scaled_variable(self):
        got = sigma1_series(Alphabet.of_vars("x1").one_minus_t(), 2)
        want = xmono(1, (0,)) + xmono(1, (1,), ONE_M_T) + xmono(1, (2,), ONE_M_T)
        assert got == want

    def test_minus_only_is_exact(self):
        A = -Alphabet.of_vars("x1")
        got = sigma1_series(A, 5)
        assert got == xmono(1, (0,)) - xmono(1, (1,))

    def test_unit_letter_raises(self):
        # a plus letter with no variable has a series that never ends
        for t_exp in (0, 2):
            with pytest.raises(ValueError, match="carries no variable"):
                sigma1_series(Alphabet((letter(t_exp),)), 3)


class TestTheta:
    def test_frozen(self):
        assert theta((1,), (1,)) == T(-1)
        assert theta((2, 1), ()) == T(n_stat((2, 1)))

    def test_symmetric(self):
        for lam in partitions_up_to(4):
            for mu in partitions_up_to(4):
                assert theta(lam, mu) == theta(mu, lam)

    def test_extended_matches_on_partitions(self):
        for lam in partitions_up_to(3):
            for mu in partitions_up_to(3):
                assert extend_family(lambda k: theta(lam, k), mu) == theta(lam, mu)

    def test_extended_through_reduction(self):
        for lam in partitions_up_to(3):
            want = theta(lam, (2,)) * T(1) + theta(lam, (1, 1)) * (T(1) - L_ONE)
            assert extend_family(lambda k: theta(lam, k), (0, 2)) == want
        assert not extend_family(lambda k: theta((2, 1), k), (1, -1))

    @pytest.mark.parametrize("mu", [(1,), (2,), (1, 1), (2, 1)])
    def test_signed_sum_rank_independent(self, mu):
        for lam in partitions_up_to(4):
            a = theta_signed_sum(lam, mu, len(mu))
            b = theta_signed_sum(lam, mu, len(mu) + 1)
            assert a == b == theta_product_form(lam, mu), (lam, mu)

    def test_signed_sum_needs_rank(self):
        with pytest.raises(ValueError):
            theta_signed_sum((1,), (1, 1), 1)


class TestDominantReduction:
    def test_scalar_diagonal(self):
        f = {(1,): L_ONE}
        assert dominant_scalar(f, f) == b_poly((1,))
        assert not dominant_scalar(f, {(2,): L_ONE})

    def test_scalar_bilinear(self):
        f = {(1,): T(2)}
        g = {(1,): L_ONE + T(1)}
        assert dominant_scalar(f, g) == T(2) * (L_ONE + T(1)) * b_poly((1,))


class TestThetaScalar:
    @pytest.mark.parametrize("n", [2, 3])
    def test_small_grid(self, n):
        for lam in partitions_up_to(3):
            if len(lam) > n:
                continue
            for mu in partitions_up_to(3):
                if len(mu) > n:
                    continue
                assert theta_scalar_holds(theta_scalar_parts(lam, mu, n)), (lam, mu, n)

    def test_parts_shape(self):
        parts = theta_scalar_parts((1,), (1,), 2)
        assert parts["pairing"] == parts["theta"] == T(-1)
        assert parts["signed_sum"] == parts["product_form"]

    def test_rank_guard(self):
        with pytest.raises(ValueError):
            theta_scalar_parts((1, 1, 1), (1,), 2)

    def test_mutating_a_result_leaves_the_next_call(self):
        want = theta_scalar_parts((2, 1), (1,), 2)
        f = dict(_dominant_series((2, 1), 3, True))
        g = dict(_dominant_series((1, 0), 1, False))
        for d in (f, g):
            d.clear()
            d[(9,)] = T(1)
        for u in ((2, 1), (1, 0), (0, 0)):
            qprime_of_vector(u).coeffs.clear()
        assert theta_scalar_parts((2, 1), (1,), 2) == want
        assert dict(_dominant_series((1, 0), 1, False)) == {(1,): L_ONE, (): L_ONE}

    @pytest.mark.parametrize(
        "key", ["pairing", "theta", "halfway", "signed_sum", "product_form"]
    )
    def test_holds_needs_every_layer(self, key):
        parts = theta_scalar_parts((2, 1), (1,), 2)
        assert theta_scalar_holds(parts)
        broken = {**parts, key: parts[key] + T(7)}
        assert not theta_scalar_holds(broken)


class TestConstantTermScalar:
    def test_orthogonality_micro(self):
        assert ct_scalar(q_on_xvars((1,), 1), xmono(1, (1,)), 1) == ONE_M_T
        assert ct_scalar(q_on_xvars((1, 1), 2), xmono(2, (1, 1)), 2) == b_poly(
            (1, 1)
        )
        assert not ct_scalar(q_on_xvars((2,), 2), xmono(2, (1, 1)), 2)

    def test_constant_pairing(self):
        # kernel terms carry strictly positive x1/x2 powers, so only the
        # leading 1 of the Vandermonde factor reaches the constant term
        one = xmono(2, (0, 0))
        assert ct_scalar(one, one, 2) == L_ONE

    @pytest.mark.parametrize(
        "fe,ge",
        [
            ((1, 0), (1, 0)),
            ((2, 0), (1, 1)),
            ((2, 1), (2, 1)),
            ((1, 1), (2, 0)),
            ((2, 2), (2, 2)),
        ],
    )
    def test_matches_bruteforce(self, fe, ge):
        f = xmono(2, fe) + xmono(2, (0, sum(fe)), T(1))
        g = xmono(2, ge)
        assert ct_scalar(f, g, 2) == ct_scalar_bruteforce(f, g, 2)

    def test_matches_bruteforce_three_vars(self):
        f = q_on_xvars((2, 1), 3)
        g = xmono(3, (2, 1, 0))
        assert ct_scalar(f, g, 3) == ct_scalar_bruteforce(f, g, 3)

    @given(st.data(), st.integers(1, 3))
    @settings(deadline=None, max_examples=60)
    def test_random_pairs_match_bruteforce(self, data, n):
        # non-dominant and negative exponents too; the oracle multiplies
        # by the Vandermonde factors that ct_scalar folds into its push
        terms = st.dictionaries(
            st.tuples(*[st.integers(-1, 3)] * n),
            st.dictionaries(st.integers(-1, 2), st.integers(-3, 3), max_size=2).map(
                LaurentPoly
            ),
            max_size=3,
        )
        f = XPoly(xvars(n), data.draw(terms))
        g = XPoly(xvars(n), data.draw(terms))
        assert ct_scalar(f, g, n) == ct_scalar_bruteforce(f, g, n)

    @pytest.mark.parametrize(
        "f, g, n, names",
        [
            (XPoly.var("y1"), X_ONE, 1, "y1"),
            (X_ONE, XPoly.var("y1"), 1, "y1"),
            (XPoly.var("x3") * XPoly.var("y2"), XPoly.var("x1"), 2, "x3, y2"),
        ],
    )
    def test_refuses_variables_outside_the_rank(self, f, g, n, names):
        # a bare KeyError from the re-keying before
        with pytest.raises(ValueError, match=f"cannot read {names}$"):
            ct_scalar(f, g, n)


class TestFamilies:
    def test_extend_on_partition(self):
        c = {(2,): T(1), (1, 1): L_ONE}
        got = extend_family(c.get, (2,))
        assert isinstance(got, LaurentPoly) and got == T(1)

    def test_extend_through_straightening(self):
        c = {(2,): T(1), (1, 1): L_ONE}
        want = T(2) + (T(1) - L_ONE)
        assert extend_family(c.get, (0, 2)) == want
        # values with variables give an XPoly
        y1 = XPoly.var("y1")
        got = extend_family({mu: y1.scale(v) for mu, v in c.items()}.get, (0, 2))
        assert isinstance(got, XPoly) and got == y1.scale(want)

    def test_missing_terms_drop(self):
        assert not extend_family({}.get, (0, 2))

    @pytest.mark.parametrize("n", [1, 2])
    def test_prodx_families(self, n):
        for name, fam in prodx_example_families(cap=4).items():
            lhs, rhs = prodx_sides(fam, n, 4)
            assert lhs == rhs, (name, n)

    @pytest.mark.parametrize("n", [1, 2])
    def test_removal_product_matches_the_per_call_loop(self, n):
        # each capped product comes from a memo; c(mu) multiplies it
        # after the cap, as in the loop that builds it anew every call
        families = [fam.get for fam in prodx_example_families().values()]
        families += [lambda mu, lam=lam: theta(lam, mu) for lam in partitions_up_to(4)]
        for cap in range(7):
            for c in families:
                assert removal_product(c, n, cap) == removal_product_by_loop(c, n, cap)

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("cap", range(7))
    def test_removal_product_caps_x_degree_only(self, n, cap):
        # the uncapped product, with the terms of x-degree > cap dropped
        # here; "Q over one extra variable" has values in y1, whose
        # degree must not count
        xs = xvars(n)
        sig = X_ONE
        for v in xs:
            sig = sig * (X_ONE - XPoly.var(v))
        for name, fam in prodx_example_families().items():
            full = sig * sum(
                (c * p_on_xvars(mu, n) for mu, c in fam.items() if len(mu) <= n),
                XPoly(),
            )
            keep = [i for i, v in enumerate(full.vars, 1) if v in xs]
            want = XPoly._trusted(
                full.vars,
                {k: c for k, c in full.terms.items() if sum(k[i] for i in keep) <= cap},
            )
            assert removal_product(fam.get, n, cap) == want, (name, n, cap)


class TestGeneratingIdentities:
    def test_sigmaxy(self):
        for nx, ny, cap in ((1, 1, 5), (2, 1, 4)):
            lhs, rhs = sigmaxy_sides(nx, ny, cap)
            assert lhs == rhs, (nx, ny, cap)

    def test_sigmaxy_coefficient_frozen(self):
        got = sigmaxy_coefficient((2, 1))
        assert got.basis == "P"
        assert got.coeffs == {
            (): T(1),
            (1,): L_ONE - T(2),
            (2,): ONE_M_T,
            (1, 1): b_poly((1, 1)),
            (2, 1): ONE_M_T * ONE_M_T,
        }

    def test_sigmaxy_coefficient_filters(self):
        narrow = sigmaxy_coefficient((2, 1), ny=1)
        assert set(narrow.coeffs) == {(), (1,), (2,)}
        low = sigmaxy_coefficient((2, 1), cap=1)
        assert set(low.coeffs) == {(), (1,)}

    def test_warnaar(self):
        for nx, ny, cap in ((1, 1, 5), (2, 1, 4)):
            lhs, rhs = warnaar_sides(nx, ny, cap)
            assert lhs == rhs, (nx, ny, cap)

    def test_warnaar_skew_form(self):
        for lam in ((2, 1), (2, 2)):
            lhs, rhs = warnaar3_sides(lam, 2, 5)
            assert lhs == rhs, lam

    def test_warnaar_skew_form_beyond_width(self):
        # more rows than variables: still balances
        lhs, rhs = warnaar3_sides((1, 1, 1), 2, 5)
        assert lhs == rhs


class TestOperatorBoundary:
    def test_counterexample_check(self):
        assert defq_note_holds(defq_note_parts())

    @pytest.mark.parametrize(
        "key, value",
        [
            ("kernel_relation", xmono(2, (1, 0))),
            ("intermediate_ok", False),
            ("difference", XPoly()),
            ("proportional", True),
            ("straightening_ok", False),
        ],
    )
    def test_holds_needs_every_statement(self, key, value):
        assert not defq_note_holds({**defq_note_parts(), key: value})

    def test_parts(self):
        parts = defq_note_parts()
        assert not parts["kernel_relation"]
        assert parts["intermediate_ok"]
        assert parts["difference"]
        assert not parts["proportional"]
        assert parts["straightening_ok"]

    def test_operator_normalization_on_dominant(self):
        got = kernel_image_two_vars((2, 0)).scale(ONE_M_T)
        assert got == q_via_operator((2,), 2)

    def test_is_proportional(self):
        f = xmono(2, (1, 0)) + xmono(2, (0, 1), T(1))
        assert is_proportional(f, f.scale(T(3)))
        assert not is_proportional(f, f + xmono(2, (0, 0)))
        assert is_proportional(XPoly(), XPoly())
        assert not is_proportional(f, XPoly())
