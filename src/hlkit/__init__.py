"""Exact Hall-Littlewood computations.

Modified Hall-Littlewood polynomials over exact integer Laurent
arithmetic: Schur expansions by charge and by a truncated
symmetrization kernel, argument shifts by one letter, plane-partition
expansions, factorizations at t-power arguments, and a verification
layer for the associated generating-function identities and scalar
products.
"""

from .laurent import LaurentPoly, NotDivisibleError
from .xpoly import XPoly
from .partitions import (
    b_poly,
    conjugate,
    n_skew,
    n_stat,
    parse_partition,
    partitions_of,
    t_binomial,
)
from .tableaux import charge, enumerate_ssyt
from .symmetrize import kernel_schur, pi_i, pi_omega, straighten_schur
from .alphabets import Alphabet, letter, parse_alphabet
from .hall_littlewood import (
    BasisExpansion,
    add_one,
    aleph,
    kostka_foulkes,
    plane_partition_qprime,
    qprime_of_vector,
    qprime_schur,
    schur_eval,
    skew_qprime,
    sub_one,
)
from .identities import ct_scalar, theta

__version__ = "0.1.0"

__all__ = [
    "Alphabet",
    "BasisExpansion",
    "LaurentPoly",
    "NotDivisibleError",
    "XPoly",
    "add_one",
    "aleph",
    "b_poly",
    "charge",
    "conjugate",
    "ct_scalar",
    "enumerate_ssyt",
    "kernel_schur",
    "kostka_foulkes",
    "letter",
    "n_skew",
    "n_stat",
    "parse_alphabet",
    "parse_partition",
    "partitions_of",
    "pi_i",
    "pi_omega",
    "plane_partition_qprime",
    "qprime_of_vector",
    "qprime_schur",
    "schur_eval",
    "skew_qprime",
    "straighten_schur",
    "sub_one",
    "t_binomial",
    "theta",
]
