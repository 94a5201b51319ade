"""Acceptance gate: every criterion runs and prints one line.

Run with -s (or read the -v output) to see the per-criterion lines;
each test fails loudly with the criterion's own detail string.
"""

import pytest

from hlkit import acceptance
from hlkit.acceptance import CRITERIA
from hlkit.laurent import T


@pytest.mark.parametrize(
    "num,title,fn", CRITERIA, ids=[f"criterion_{num:02d}" for num, _, _ in CRITERIA]
)
def test_criterion(num, title, fn):
    ok, detail = fn()
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num}: {status} - {title}: {detail}")
    assert ok, f"criterion {num} ({title}): {detail}"


def test_criterion_5_catches_a_wrong_aleph(monkeypatch):
    true_aleph = acceptance.aleph

    def perturbed(lam, mu):
        val = true_aleph(lam, mu)
        return val * T if (lam, mu) == ((3, 2, 1), (2, 1)) else val

    monkeypatch.setattr(acceptance, "aleph", perturbed)
    ok, detail = acceptance.criterion_5()
    assert ok is False, detail


class _Unequal:
    """A value that equals nothing, in place of one side of a case."""

    def __eq__(self, other):
        return False

    __hash__ = None


def _value(v):
    return _Unequal()


def _right_side(sides):
    return sides[0], _Unequal()


def _pairing(parts):
    return {**parts, "pairing": _Unequal()}


_SPARSE = acceptance.prodx_example_families(6)["fixed sparse family"]

# (criterion, side patched in acceptance, the call it answers wrongly,
# how it goes wrong, the failure detail)
WRONG_SIDES = [
    (4, "kernel_schur", ((2, 1, 0),), _value,
     "charge and kernel routes differ at lam=(2, 1), n=3"),
    (6, "tableau_route_xpoly", ((2, 1), 2), _value,
     "layer-chain and tableau routes differ at lam=(2, 1), n=2"),
    (7, "factorization_sides", ((3, 1), 1, 2), _right_side,
     "width split fails at lam=(3, 1), r=1, n=2"),
    (7, "principal_specialization", ((2, 2),), _value,
     "single-variable closed form fails at lam=(2, 2)"),
    (7, "two_letter_sides", (2, (1,), 1), _right_side,
     "two-variable form fails at k=2, nu=(1,), beta=1"),
    (8, "prodx_sides", (_SPARSE, 2, 6), _right_side,
     "product identity fails for fixed sparse family at n=2"),
    (8, "sigmaxy_sides", (2, 1, 6), _right_side,
     "two-alphabet product fails at nx=2, ny=1"),
    (9, "warnaar_sides", (1, 2, 6), _right_side,
     "two-alphabet form fails at nx=1, ny=2"),
    (9, "warnaar3_sides", ((2, 1), 2, 6), _right_side,
     "skewed form fails at lam=(2, 1)"),
    (10, "theta_skew_form", ((3, 1), (1,)), _value,
     "theta formulas differ at lam=(3, 1), mu=(1,)"),
    (10, "theta_product_form", ((2, 2), (1,)), _value,
     "alternating sum differs at lam=(2, 2), mu=(1,)"),
    (11, "theta_scalar_parts", ((2,), (1, 1), 3), _pairing,
     "pairing chain fails at lam=(2,), mu=(1, 1)"),
    (11, "q_monomial_pairing", ((1, 1), (2,), 2), _value,
     "constant-term pairing fails at lam=(1, 1), mu=(2,), n=2"),
]


@pytest.mark.parametrize(
    "num, name, args, wrong, detail",
    WRONG_SIDES,
    ids=[f"criterion_{num:02d}-{name}" for num, name, *_ in WRONG_SIDES],
)
def test_a_wrong_side_fails_its_family_at_that_case(monkeypatch, num, name, args, wrong, detail):
    true_side = getattr(acceptance, name)

    def side(*call):
        value = true_side(*call)
        return wrong(value) if call == args else value

    monkeypatch.setattr(acceptance, name, side)
    ok, got = getattr(acceptance, f"criterion_{num}")()
    assert ok is False and got == detail
