"""Letters, alphabets, complete functions, and Schur values.

schur_eval adds one letter at a time by the strip rules; the tableau
enumerator and the Jacobi-Trudi determinants of the oracles give
independent values to compare against.  The small closed forms
(geometric h_k, the two-letter difference) were worked out from the
generating series by hand.
"""

import random

import pytest

from hlkit.laurent import LaurentPoly
from hlkit.partitions import conjugate, partitions_up_to, subpartitions
from hlkit.tableaux import enumerate_ssyt, word_weight
from hlkit.xpoly import XPoly, xvars
from hlkit.alphabets import Alphabet, letter, parse_alphabet
from hlkit.hall_littlewood import schur_eval, schur_on_xvars, skew_schur_eval
from oracles import (
    berele_regev_check,
    complete_series,
    elementary_over_one_minus_t,
    rectangle_vanishing_check,
    resultant,
    schur_eval_by_jacobi_trudi,
    skew_schur_eval_by_jacobi_trudi,
)


def xp(names, *terms):
    """Explicit polynomial: terms are (exps, coeff) with integer coeff."""
    return XPoly(
        tuple(names),
        {tuple(e): LaurentPoly({0: c}) for e, c in terms},
    )


def var(name):
    return XPoly.var(name)


A_X = Alphabet.of_vars("x1")
A_AB = Alphabet((letter(0, "a1"),), (letter(0, "b1"),))


def schur_by_tableaux(lam, n):
    acc = XPoly.zero()
    for tab in enumerate_ssyt(lam, nletters=n):
        wt = word_weight([a for row in tab for a in row], nletters=n)
        acc = acc + XPoly.monomial(xvars(n), wt)
    return acc


class TestAlphabetAlgebra:
    def test_cancellation(self):
        a = letter(0, "x1")
        assert Alphabet((a,), (a,)) == Alphabet.empty()
        B = Alphabet.of_vars("x1", "x2")
        assert (B + A_X) - A_X == B

    def test_neg_and_sub(self):
        B = Alphabet.of_vars("y1")
        assert A_X - B == A_X + (-B)

    def test_times_expands_signs(self):
        D = A_AB.times(A_AB)
        # (a - b)^2 = aa + bb - ab - ab
        assert len(D.plus) == 2 and len(D.minus) == 2

    def test_one_minus_t(self):
        A = A_X.one_minus_t()
        assert A.plus == (letter(0, "x1"),)
        assert A.minus == (letter(1, "x1"),)

    def test_letter_value(self):
        v = letter(2, "x1", "x1", "y1").value()
        assert v == XPoly.monomial(("x1", "y1"), (2, 1), LaurentPoly.t_power(2))

    def test_str(self):
        assert str(Alphabet.unit() - A_X) == "1 - x1"
        assert str(Alphabet.empty()) == "0"


class TestCompleteSeries:
    def test_unit_minus_variable(self):
        h = complete_series(Alphabet.unit() - A_X, 4)
        one_minus_x = xp(("x1",), ((0,), 1), ((1,), -1))
        assert h[0] == XPoly.monomial((), ())
        for k in range(1, 5):
            assert h[k] == one_minus_x

    def test_two_letter_difference(self):
        h = complete_series(A_AB, 3)
        a, b = var("a1"), var("b1")
        assert h[1] == a - b
        assert h[2] == a * a - a * b
        assert h[3] == a * (a * a - a * b)

    def test_empty_alphabet(self):
        h = complete_series(Alphabet.empty(), 3)
        assert h[0] == XPoly.monomial((), ())
        assert all(not h[k] for k in range(1, 4))

    def test_variable_plus_unit_is_geometric(self):
        h = complete_series(A_X + Alphabet.unit(), 8)
        for k in range(9):
            want = xp(("x1",), *(((i,), 1) for i in range(k + 1)))
            assert h[k] == want

    def test_sum_is_convolution(self):
        A = Alphabet.of_vars("x1", "x2")
        B = Alphabet.unit() - Alphabet.of_vars("y1")
        ha = complete_series(A, 5)
        hb = complete_series(B, 5)
        hab = complete_series(A + B, 5)
        for k in range(6):
            acc = XPoly.zero()
            for i in range(k + 1):
                acc = acc + ha[i] * hb[k - i]
            assert hab[k] == acc


class TestSchurEval:
    def test_two_letter_difference(self):
        a, b = var("a1"), var("b1")
        assert schur_eval((1, 1), A_AB) == -b * (a - b)

    def test_empty_alphabet(self):
        assert schur_eval((), Alphabet.empty()) == XPoly.monomial((), ())
        assert not schur_eval((1,), Alphabet.empty())

    def test_too_many_rows_on_plus_only(self):
        assert not schur_eval((1, 1, 1), Alphabet.of_vars("x1", "x2"))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_tableau_sum(self, n):
        for lam in partitions_up_to(4):
            assert schur_on_xvars(lam, n) == schur_by_tableaux(lam, n), (lam, n)

    def test_duality(self):
        A = Alphabet.of_vars("x1", "x2") - Alphabet.of_vars("y1")
        for lam in partitions_up_to(4):
            want = schur_eval(conjugate(lam), -A)
            got = schur_eval(lam, A)
            assert got == (want if sum(lam) % 2 == 0 else -want), lam


class TestSkewSchur:
    def test_degenerate_shapes(self):
        A = A_AB
        assert skew_schur_eval((2, 1), (), A) == schur_eval((2, 1), A)
        assert skew_schur_eval((2, 1), (2, 1), A) == XPoly.monomial((), ())
        assert not skew_schur_eval((1,), (2,), A)

    def test_branching(self):
        A = Alphabet.of_vars("x1")
        B = Alphabet.of_vars("x2")
        for lam in partitions_up_to(4):
            acc = XPoly.zero()
            for mu in partitions_up_to(sum(lam)):
                term = schur_eval(mu, A) * skew_schur_eval(lam, mu, B)
                acc = acc + term
            assert acc == schur_eval(lam, A + B), lam


def random_alphabet(rng):
    """Up to four letters, plus or minus, each t^-1..t^2 times a product
    of at most two of x1, x2, y1 (repeats allowed)."""
    sides = ([], [])
    for _ in range(rng.randint(0, 4)):
        names = rng.choices(["x1", "x2", "y1"], k=rng.randint(0, 2))
        sides[rng.random() < 0.4].append(letter(rng.randint(-1, 2), *names))
    return Alphabet(tuple(sides[0]), tuple(sides[1]))


class TestStripRouteAgainstJacobiTrudi:
    """The strip route of schur_eval and skew_schur_eval against the
    Jacobi-Trudi determinants, on seeded random alphabets."""

    @pytest.mark.parametrize("seed", range(8))
    def test_random_alphabets(self, seed):
        rng = random.Random(seed)
        shapes = partitions_up_to(5)
        for _ in range(25):
            A = random_alphabet(rng)
            lam = rng.choice(shapes)
            assert schur_eval(lam, A) == schur_eval_by_jacobi_trudi(lam, A), (lam, A)
            # mostly ends inside lam, sometimes one that does not fit
            mu = rng.choice(subpartitions(lam) if rng.random() < 0.8 else shapes)
            got = skew_schur_eval(lam, mu, A)
            assert got == skew_schur_eval_by_jacobi_trudi(lam, mu, A), (lam, mu, A)

    def test_skew_end_on_plus_letters(self):
        # Each plus letter may shorten a shape by one part: with two
        # letters, (2,2,1,1) reaches the end (1,1) but not ().
        A = Alphabet.of_vars("x1", "x2")
        for lam, mu in (((2, 2, 1, 1), (1, 1)), ((3, 2, 1), (1,)), ((2, 2, 1, 1), ())):
            want = skew_schur_eval_by_jacobi_trudi(lam, mu, A)
            assert skew_schur_eval(lam, mu, A) == want, (lam, mu)
        assert skew_schur_eval((2, 2, 1, 1), (1, 1), A)


class TestFactorizations:
    def test_resultant(self):
        A = Alphabet.of_vars("x1", "x2")
        y = var("y1")
        assert resultant(letter(0, "y1"), A) == (y - var("x1")) * (y - var("x2"))

    def test_resultant_rejects_minus(self):
        with pytest.raises(ValueError):
            resultant(letter(0, "y1"), -A_X)

    def test_rectangle_schur_is_resultant(self):
        A = Alphabet.of_vars("x1", "x2")
        B = Alphabet.of_vars("y1")
        got = schur_eval((1, 1), A - B)
        want = (var("x1") - var("y1")) * (var("x2") - var("y1"))
        assert got == want

    def test_rectangle_split_exhaustive(self):
        names = ["x1", "x2", "y1", "y2"]
        for alpha in (1, 2):
            for beta in (1, 2):
                A = Alphabet.of_vars(*names[:alpha])
                B = Alphabet.of_vars(*names[2 : 2 + beta])
                for nu in partitions_up_to(3):
                    if len(nu) > alpha:
                        continue
                    for zeta in partitions_up_to(3):
                        if zeta and zeta[0] > beta:
                            continue
                        assert berele_regev_check(nu, zeta, A, B)

    def test_rectangle_split_preconditions(self):
        A, B = Alphabet.of_vars("x1"), Alphabet.of_vars("y1")
        with pytest.raises(ValueError):
            berele_regev_check((1, 1), (), A, B)  # length > alpha
        with pytest.raises(ValueError):
            berele_regev_check((), (2,), A, B)  # width > beta

    def test_rectangle_vanishing(self):
        A, B = Alphabet.of_vars("x1"), Alphabet.of_vars("y1")
        for nu in [(2, 2), (3, 2), (2, 2, 1), (3, 3, 2)]:
            assert rectangle_vanishing_check(nu, A, B)
        with pytest.raises(ValueError):
            rectangle_vanishing_check((2, 1), A, B)


class TestElementaryOverGeometricT:
    def test_single_variable_e1(self):
        got = elementary_over_one_minus_t(A_X, 1, 3)
        want = XPoly(
            ("x1",), {(1,): LaurentPoly({0: 1, 1: 1, 2: 1, 3: 1})}
        )
        assert got == want

    def test_single_variable_e2(self):
        got = elementary_over_one_minus_t(A_X, 2, 3)
        want = XPoly(("x1",), {(2,): LaurentPoly({1: 1, 2: 1, 3: 2})})
        assert got == want

    def test_unit_letter_e2(self):
        got = elementary_over_one_minus_t(Alphabet.unit(), 2, 4)
        assert got == XPoly((), {(): LaurentPoly({1: 1, 2: 1, 3: 2, 4: 2})})

    def test_rejects_negative_t_exponent(self):
        with pytest.raises(ValueError):
            elementary_over_one_minus_t(Alphabet((letter(-1),)), 1, 2)


class TestParseAlphabet:
    def test_variables(self):
        assert parse_alphabet("x1+x2") == Alphabet.of_vars("x1", "x2")
        assert parse_alphabet("1-x1") == Alphabet.unit() - A_X

    def test_t_powers(self):
        assert parse_alphabet("t^2-x1") == Alphabet((letter(2),), (letter(0, "x1"),))
        assert parse_alphabet("t") == Alphabet((letter(1),))

    def test_negative_t_powers(self):
        # A sign right after ^ belongs to the exponent.
        assert parse_alphabet("t^-1-x1") == Alphabet((letter(-1),), (letter(0, "x1"),))
        got = parse_alphabet("t^-1*x1*y1-x1*y1")
        assert got == Alphabet((letter(-1, "x1", "y1"),), (letter(0, "x1", "y1"),))
        assert parse_alphabet(str(got)) == got

    def test_scaling_suffix(self):
        assert parse_alphabet("x1*(1-t)") == A_X.one_minus_t()
        two = Alphabet.of_vars("x1", "x2")
        assert parse_alphabet("(x1+x2)*(1-t)") == two.one_minus_t()

    def test_set_atoms(self):
        assert parse_alphabet("X", nx=2) == Alphabet.of_vars("x1", "x2")
        assert parse_alphabet("1-X", nx=1) == Alphabet.unit() - A_X
        got = parse_alphabet("X*Y", nx=1, ny=2)
        assert got == Alphabet((letter(0, "x1", "y1"), letter(0, "x1", "y2")))

    def test_product_scaled(self):
        got = parse_alphabet("X*Y*(1-t)", nx=1, ny=1)
        assert got == Alphabet(
            (letter(0, "x1", "y1"),), (letter(1, "x1", "y1"),)
        )

    def test_errors(self):
        with pytest.raises(ValueError):
            parse_alphabet("X")
        with pytest.raises(ValueError):
            parse_alphabet("")
        with pytest.raises(ValueError):
            parse_alphabet("x1!x2")
