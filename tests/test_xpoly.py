import pytest
from hypothesis import given, settings, strategies as st

from hlkit.laurent import LaurentPoly, NotDivisibleError, ONE as L_ONE, T
from hlkit.xpoly import XPoly, X_ONE, X_ZERO, exact_div_linear, var_key, xvars

try:
    import sympy
except ImportError:  # the oracle tests need sympy; the rest do not
    sympy = None

needs_sympy = pytest.mark.skipif(sympy is None, reason="needs sympy")


def mono(vars, exps, c=1):
    return XPoly.monomial(vars, exps, c)


coeffs = st.dictionaries(st.integers(-2, 3), st.integers(-5, 5), max_size=3).map(
    LaurentPoly
)


def xpolys(n=2, lo=0, hi=4):
    vars = xvars(n)
    return st.dictionaries(
        st.tuples(*[st.integers(lo, hi)] * n), coeffs, max_size=5
    ).map(lambda terms: XPoly(vars, terms))


class TestConstruction:
    def test_var_key_natural_order(self):
        assert var_key("x2") < var_key("x10")
        assert var_key("x9") < var_key("y1")

    def test_unused_vars_dropped(self):
        f = XPoly(("x1", "x2"), {(2, 0): L_ONE})
        assert f.vars == ("x1",)

    def test_zero_coeffs_dropped(self):
        f = XPoly(("x1",), {(1,): LaurentPoly()})
        assert f == X_ZERO

    def test_int_coeff_coercion(self):
        f = XPoly(("x1",), {(1,): 3})
        assert f.coeff_of((1,), ("x1",)) == LaurentPoly({0: 3})


class TestArithmetic:
    def test_alignment(self):
        f = XPoly.var("x1")
        g = XPoly.var("x2")
        h = f * g
        assert h.coeff_of((1, 1), ("x1", "x2")) == L_ONE

    def test_sub_self(self):
        f = mono(("x1", "x2"), (1, 2), T)
        assert f - f == X_ZERO

    @given(xpolys(), xpolys())
    def test_mul_commutative(self, f, g):
        assert f * g == g * f

    @given(xpolys(), xpolys(), xpolys())
    @settings(max_examples=40)
    def test_distributive(self, f, g, h):
        assert f * (g + h) == f * g + f * h

    @given(xpolys(), xpolys())
    @settings(max_examples=40)
    def test_mul_capped_matches_truncated_product(self, f, g):
        cap = 4
        assert f.mul_capped(g, cap) == (f * g).truncate_degree(cap)


class TestStructure:
    def test_coeff_of_missing_var(self):
        f = XPoly.var("x1")
        assert f.coeff_of((1, 0), ("x1", "x2")) == L_ONE

    def test_degree_in(self):
        f = mono(("x1", "y1"), (2, 3))
        assert f.degree_in(("x1",)) == 2
        assert f.degree_in() == 5

    def test_truncate_degree_counted_vars(self):
        f = mono(("x1", "y1"), (1, 3)) + mono(("x1",), (2,))
        g = f.truncate_degree(1, ("x1",))
        assert g == mono(("x1", "y1"), (1, 3))

    def test_permute_exponents(self):
        f = mono(("x1", "x2"), (2, 0))
        g = f.permute_exponents((1, 0), vars=("x1", "x2"))
        assert g == mono(("x1", "x2"), (0, 2))

    def test_swap_positions_on_pruned_poly(self):
        # x1^2 stored without x2; the swap must still see both slots
        f = XPoly(("x1", "x2"), {(2, 0): L_ONE})
        g = f.swap_positions(0, 1, vars=("x1", "x2"))
        assert g == mono(("x1", "x2"), (0, 2))

    def test_reverse_invert_involution(self):
        f = mono(("x1", "x2"), (2, -1), T) + mono(("x1", "x2"), (0, 3))
        vars = ("x1", "x2")
        assert f.reverse_invert(vars).reverse_invert(vars) == f

    def test_reverse_invert_value(self):
        # x1^2 x2^-1 -> reversed slots and inverted: x1^1 x2^-2
        f = mono(("x1", "x2"), (2, -1))
        assert f.reverse_invert(("x1", "x2")) == mono(("x1", "x2"), (1, -2))

    def test_subs_one(self):
        f = mono(("x1", "x2"), (2, 1), T) + mono(("x1",), (1,))
        assert f.subs_one(("x2",)) == mono(("x1",), (2,), T) + mono(
            ("x1",), (1,)
        )


class TestDivision:
    def test_exact_div_scalar(self):
        f = mono(("x1",), (1,), L_ONE - T * T)
        g = f.exact_div_scalar(L_ONE + T)
        assert g == mono(("x1",), (1,), L_ONE - T)

    @given(xpolys(2, lo=-2, hi=3))
    @settings(max_examples=60)
    def test_exact_div_diff_inverts_multiplication(self, f):
        d = XPoly.var("x1") - XPoly.var("x2")
        assert (f * d).exact_div_diff("x1", "x2") == f

    def test_exact_div_diff_remainder_raises(self):
        f = XPoly.var("x1") + XPoly.var("x2")
        with pytest.raises(ArithmeticError):
            f.exact_div_diff("x1", "x2")

    def test_exact_div_linear(self):
        x1, x2 = XPoly.var("x1"), XPoly.var("x2")
        f = x1 * x1 - x2 * x2
        q = exact_div_linear(f, x1 - x2)
        assert q == x1 + x2


class TestJson:
    @given(xpolys(2, lo=-3, hi=4))
    @settings(max_examples=40)
    def test_round_trip(self, f):
        assert XPoly.from_json(f.to_json()) == f

    def test_str_deterministic(self):
        f = mono(("x1", "x2"), (1, 2)) + mono(("x1", "x2"), (2, 1))
        assert str(f) == str(XPoly.from_json(f.to_json()))


# ------------------------------------------------- canonical form, sympy oracle

NAMES = ("x1", "x2", "x10", "y1")


@st.composite
def mixed_xpolys(draw, lo=-2, hi=3):
    """XPolys over a random subset of NAMES, listed in random order."""
    names = draw(st.lists(st.sampled_from(NAMES), unique=True, max_size=3))
    keys = st.tuples(*[st.integers(lo, hi)] * len(names))
    return XPoly(names, draw(st.dictionaries(keys, coeffs, max_size=4)))


def assert_canonical(f):
    assert list(f.vars) == sorted(set(f.vars), key=var_key)
    for i in range(len(f.vars)):
        assert any(e[i] for e in f.terms), f"unused variable {f.vars[i]}"
    for e, c in f.terms.items():
        assert len(e) == len(f.vars) and all(type(x) is int for x in e)
        assert isinstance(c, LaurentPoly) and c
        assert all(type(k) is int and type(v) is int and v for k, v in c.coeffs.items())
    again = XPoly(f.vars, f.terms)
    assert again.vars == f.vars and again.terms == f.terms


def to_sympy(f):
    t = sympy.Symbol("t")
    syms = [sympy.Symbol(v) for v in f.vars]
    out = sympy.Integer(0)
    for exps, c in f.terms.items():
        coeff = sum(v * t**k for k, v in c.coeffs.items())
        out += coeff * sympy.Mul(*(s**e for s, e in zip(syms, exps)))
    return out


def same(f, expr):
    return sympy.expand(to_sympy(f) - expr) == 0


def truncated(expr, cap, names):
    """The terms of expr of degree <= cap in the variables `names`."""
    syms = [sympy.Symbol(v) for v in names]
    out = sympy.Integer(0)
    for mono, c in sympy.expand(expr).as_coefficients_dict().items():
        powers = mono.as_powers_dict()
        if sum(powers.get(s, 0) for s in syms) <= cap:
            out += c * mono
    return out


class TestCanonicalForm:
    def test_added_variable_cancels(self):
        x1, x2 = XPoly.var("x1"), XPoly.var("x2")
        f = x1 + x2 - x2
        assert f.vars == ("x1",) and f.terms == {(1,): L_ONE}
        assert_canonical(f)

    def test_subtracted_variable_cancels(self):
        x1, x2 = XPoly.var("x1"), XPoly.var("x2")
        f = (x1 - x2) - x1
        assert f.vars == ("x2",) and f.terms == {(1,): -L_ONE}
        assert_canonical(f)

    def test_product_cancels_to_constant(self):
        x10 = XPoly.var("x10")
        f = (x10 + 1) * (x10 - 1) - x10 * x10
        assert f.vars == () and f.terms == {(): -L_ONE}

    def test_natural_variable_order(self):
        f = XPoly.var("y1") * XPoly.var("x10") + XPoly.var("x2")
        assert f.vars == ("x2", "x10", "y1")
        assert_canonical(f)

    @given(mixed_xpolys(), mixed_xpolys())
    @settings(max_examples=60)
    def test_after_every_operation(self, f, g):
        results = [
            f + g, f - g, -f, f * g, f - f, (f + g) - g,
            f.mul_capped(g, 2), f.scale(L_ONE - T), f.subs_one(("x2",)),
            f.truncate_degree(1), f.truncate_t_above(0),
        ]
        for h in results:
            assert_canonical(h)
        assert (f + g) - g == f and ((f + g) - g).terms == f.terms
        assert (f * g).terms == (g * f).terms
        assert not (f - f).terms and (f - f).vars == ()


@needs_sympy
class TestSympyOracle:
    @given(mixed_xpolys(), mixed_xpolys())
    @settings(deadline=None, max_examples=40)
    def test_ring_operations(self, f, g):
        sf, sg = to_sympy(f), to_sympy(g)
        assert same(f + g, sf + sg)
        assert same(f - g, sf - sg)
        assert same(f * g, sf * sg)

    @given(mixed_xpolys(lo=0), mixed_xpolys(lo=0), st.integers(0, 4), st.booleans())
    @settings(deadline=None, max_examples=40)
    def test_mul_capped(self, f, g, cap, only_x1):
        names = ("x1",) if only_x1 else NAMES
        got = f.mul_capped(g, cap, ("x1",) if only_x1 else None)
        assert_canonical(got)
        assert same(got, truncated(to_sympy(f) * to_sympy(g), cap, names))

    @given(mixed_xpolys(), st.sampled_from([("x1", "x2"), ("x10", "x1"), ("x2", "y1")]))
    @settings(deadline=None, max_examples=40)
    def test_exact_div_diff(self, f, pair):
        a, b = (sympy.Symbol(v) for v in pair)
        num = to_sympy(f)
        try:
            q = f.exact_div_diff(*pair)
        except NotDivisibleError:
            # monomials are units, so a - b divides exactly when a = b kills f
            assert sympy.expand(num.subs(a, b)) != 0
        else:
            assert_canonical(q)
            assert same(q, sympy.cancel(num / (a - b)))

    @given(mixed_xpolys(), st.sampled_from([("x1", "x2"), ("x10", "x1"), ("x2", "y1")]))
    @settings(deadline=None, max_examples=40)
    def test_exact_div_diff_of_a_multiple(self, f, pair):
        d = XPoly.var(pair[0]) - XPoly.var(pair[1])
        q = (f * d).exact_div_diff(*pair)
        assert_canonical(q)
        assert same(q, to_sympy(f))
