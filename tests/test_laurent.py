import pytest
from hypothesis import example, given, settings, strategies as st

from hlkit.laurent import LaurentPoly, NotDivisibleError, ONE, T, ZERO

try:
    import sympy
except ImportError:  # the oracle tests need sympy; the rest do not
    sympy = None

needs_sympy = pytest.mark.skipif(sympy is None, reason="needs sympy")


def lp(d):
    return LaurentPoly(d)


laurents = st.dictionaries(
    st.integers(-5, 5), st.integers(-9, 9), max_size=6
).map(LaurentPoly)


class TestConstruction:
    def test_fractional_exponent_refused(self):
        # int() would truncate 0.5 onto 0 and overwrite its coefficient
        with pytest.raises(TypeError):
            lp({0: 1, 0.5: 2})

    def test_fractional_coefficient_refused(self):
        with pytest.raises(TypeError):
            lp({0: 1.5})


class TestBasics:
    def test_zero_stripping(self):
        assert lp({0: 0, 1: 0}) == ZERO
        assert not lp({2: 0})
        assert bool(T)

    def test_int_coercion(self):
        assert ONE + 1 == lp({0: 2})
        assert T * 2 == lp({1: 2})
        assert 1 - T == lp({0: 1, 1: -1})

    def test_pow(self):
        f = ONE - T
        assert f**0 == ONE
        assert f**3 == lp({0: 1, 1: -3, 2: 3, 3: -3 + 2})
        # (1-t)^3 = 1 - 3t + 3t^2 - t^3
        assert f**3 == lp({0: 1, 1: -3, 2: 3, 3: -1})

    def test_shift(self):
        assert (ONE + T).shift(2) == lp({2: 1, 3: 1})
        assert T.shift(-3) == lp({-2: 1})

    def test_min_max_exp(self):
        f = lp({-2: 3, 5: 1})
        assert f.min_exp() == -2

    def test_at_t_zero(self):
        assert (ONE + T * 4).at_t_zero() == 1
        assert T.at_t_zero() == 0
        with pytest.raises(ValueError):
            lp({-1: 1}).at_t_zero()

    def test_str(self):
        assert str(ZERO) == "0"
        assert str(ONE - T) == "1 - t"
        assert str(lp({-1: 1, 3: 2})) == "t^-1 + 2*t^3"


class TestUnitFactor:
    """A product by 1 returns the other factor itself; every other
    one-term factor takes the general loop."""

    ONES = [1, ONE, lp({0: 1, 3: 0})]

    @given(laurents, st.sampled_from(ONES))
    @example(lp({0: 1}), lp({0: 1}))
    def test_returns_the_other_factor(self, f, one):
        # When f is a 1 too, each factor is "the other one".
        others = (f,) if f != ONE else (f, one)
        assert any(f * one is g for g in others)
        assert any(one * f is g for g in others)
        assert ONE * ONE is ONE

    @given(laurents, st.sampled_from([2, -1, T, lp({-1: 1}), lp({0: -1})]))
    def test_other_one_term_factors(self, f, c):
        (k, a), = LaurentPoly._coerce(c).coeffs.items()
        want = lp({e + k: a * v for e, v in f.coeffs.items()})
        assert f * c == c * f == want


class TestDivision:
    def test_exact(self):
        num = (ONE - T**6) * (ONE - T**5)
        den = ONE - T
        q = num.exact_div(den)
        assert q * den == num

    def test_laurent_division(self):
        f = lp({-2: 1, 0: -1})  # t^-2 (1 - t^2)
        q = f.exact_div(ONE - T)
        assert q * (ONE - T) == f

    def test_not_divisible(self):
        with pytest.raises(NotDivisibleError):
            (ONE + T).exact_div(ONE - T)

    def test_divide_zero(self):
        assert ZERO.exact_div(ONE - T) == ZERO

    @given(laurents, laurents)
    def test_mul_then_div(self, f, g):
        if not g:
            return
        assert (f * g).exact_div(g) == f


class TestAlgebraLaws:
    @given(laurents, laurents)
    def test_commutative(self, f, g):
        assert f + g == g + f
        assert f * g == g * f

    @given(laurents, laurents, laurents)
    def test_distributive(self, f, g, h):
        assert f * (g + h) == f * g + f * h

    @given(laurents)
    def test_neg(self, f):
        assert f + (-f) == ZERO


class TestJson:
    @given(laurents)
    def test_round_trip(self, f):
        assert LaurentPoly.from_json(f.to_json()) == f

    def test_negative_exponent_keys(self):
        f = lp({-3: 2, 1: -1})
        data = f.to_json()
        assert set(data) == {"-3", "1"}


# ------------------------------------------------ canonical form, sympy oracle


def to_sympy(f):
    t = sympy.Symbol("t")
    return sum((c * t**k for k, c in f.coeffs.items()), sympy.Integer(0))


def assert_canonical(f):
    assert all(type(k) is int and type(c) is int and c for k, c in f.coeffs.items())


def laurent_over_z(expr):
    """True when expr is an integer Laurent polynomial in t."""
    t = sympy.Symbol("t")
    num, den = sympy.fraction(sympy.cancel(expr))
    num, den = sympy.Poly(num, t), sympy.Poly(den, t)
    return (
        len(den.terms()) == 1
        and den.LC() in (1, -1)
        and all(c.is_integer for c in num.coeffs())
    )


class TestCanonicalForm:
    def test_cancellation_leaves_no_zero(self):
        f = lp({0: 1, 2: 3})
        assert (f - lp({2: 3})).coeffs == {0: 1}
        assert (f + (-f)).coeffs == {}
        assert ((ONE + T) * (ONE - T)).coeffs == {0: 1, 2: -1}

    @given(laurents, laurents)
    def test_after_every_operation(self, f, g):
        for h in (f + g, f - g, -f, f * g, f.shift(-2)):
            assert_canonical(h)


@needs_sympy
class TestSympyOracle:
    @given(laurents, laurents)
    @settings(deadline=None, max_examples=60)
    def test_ring_operations(self, f, g):
        for got, want in (
            (f + g, to_sympy(f) + to_sympy(g)),
            (f - g, to_sympy(f) - to_sympy(g)),
            (f * g, to_sympy(f) * to_sympy(g)),
            (-f, -to_sympy(f)),
        ):
            assert_canonical(got)
            assert sympy.expand(to_sympy(got) - want) == 0

    @given(laurents, laurents)
    @settings(deadline=None, max_examples=60)
    def test_exact_div(self, f, g):
        if not g:
            return
        want = to_sympy(f) / to_sympy(g)
        try:
            q = f.exact_div(g)
        except NotDivisibleError:
            assert not laurent_over_z(want)
        else:
            assert_canonical(q)
            assert sympy.expand(to_sympy(q) * to_sympy(g) - to_sympy(f)) == 0

    @given(laurents, laurents)
    @settings(deadline=None, max_examples=40)
    def test_exact_div_of_a_product(self, f, g):
        if not g:
            return
        q = (f * g).exact_div(g)
        assert sympy.expand(to_sympy(q) - to_sympy(f)) == 0
