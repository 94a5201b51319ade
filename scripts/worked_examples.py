#!/usr/bin/env python3
"""Walk through the library's main objects on small concrete inputs.

Prints each computation next to the call that produced it; useful as a
smoke run and as a readable tour of the API.
"""

import argparse
import sys

from hlkit.cli import PARTITION, piped
from hlkit.laurent import LaurentPoly
from hlkit.alphabets import Alphabet, parse_alphabet
from hlkit.hall_littlewood import (
    add_one,
    aleph,
    plane_partition_qprime,
    qprime_of_vector,
    qprime_on_alphabet,
    qprime_schur,
    sub_one,
    compose_shift,
)
from hlkit.identities import (
    q_monomial_pairing,
    sigmaxy_coefficient,
    theta,
    theta_scalar_parts,
)
from hlkit.tableaux import charge, enumerate_ssyt, charge_tableau


def section(title):
    print()
    print(title)
    print("-" * len(title))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument(
        "--lam", type=PARTITION, default="2,2,1", help="partition for the shift demo"
    )
    lam = ap.parse_args(argv).lam

    section("Schur expansions of Q'")
    for mu in [(2, 1), (1, 1, 1), (2, 2)]:
        print(f"  Q'_{mu} = {qprime_schur(mu).render()}")

    section("Vector indices straighten into the partition family")
    for v in [(0, 2), (1, -1), (0, 1, 2)]:
        print(f"  Q'_{v} = {qprime_of_vector(v).render()}")

    section("Charge on words and tableaux")
    for word in [(3, 4, 1, 2), (2, 4, 1, 3)]:
        print(f"  charge{word} = {charge(word)}")
    poly = LaurentPoly()
    for tab in enumerate_ssyt((2, 1), (1, 1, 1)):
        poly = poly + LaurentPoly.t_power(charge_tableau(tab))
    print(f"  sum of t^charge over shape (2,1), weight (1,1,1): {poly}")

    section(f"Argument shifts of Q'_{lam}")
    up = add_one(lam)
    print(f"  at X+1: {up.render()}")
    print(f"  at X-1: {sub_one(lam).render()}")
    round_trip = compose_shift(up, sub_one)
    print(f"  shift down then up recovers: {round_trip.render()}")

    section("One-letter skew values")
    for mu in [(), (1,), (2, 1)]:
        print(f"  aleph({lam}/{mu}) = {aleph(lam, mu)}")

    section("Plane-partition route on two variables")
    print(f"  Q'_(2,1)(x1,x2) = {plane_partition_qprime((2, 1), 2)}")

    section("Alphabet evaluations")
    for text in ["1-x1", "x1*(1-t)", "t^2-x1"]:
        A = parse_alphabet(text)
        print(f"  Q'_(2,1) on {text}: {qprime_on_alphabet((2, 1), A)}")

    section("Theta pairing and the scalar-product chain")
    print(f"  theta((2,1),(1,1)) = {theta((2, 1), (1, 1))}")
    parts = theta_scalar_parts((2, 1), (1, 1), 2)
    for key in ("pairing", "theta", "signed_sum", "product_form"):
        print(f"  {key}: {parts[key]}")

    section("Constant-term orthogonality")
    for mu in [(1, 1), (2,)]:
        print(f"  (Q_(1,1), x^{mu}) = {q_monomial_pairing((1, 1), mu, 2)}")

    section("Coefficient family of the two-alphabet expansion")
    print(f"  at (2,1): {sigmaxy_coefficient((2, 1)).render()}")

    return 0


if __name__ == "__main__":
    sys.exit(piped(main))
