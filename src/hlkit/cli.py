"""Command-line front end.

Pure plumbing: every verb parses its arguments, calls one library
operation, and prints the result in canonical order (text by default,
lossless JSON with --json).  Exit codes: 0 success / identity holds,
1 a verification found a discrepancy, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .laurent import LaurentPoly
from .partitions import parse_ints, parse_partition, parse_parts
from .xpoly import XPoly, _linear_combination, xvars
from .alphabets import parse_alphabet
from .tableaux import NonDominantWeightError, charge, charge_tableau, enumerate_ssyt
from .hall_littlewood import (
    add_one,
    aleph,
    factorization_sides,
    plane_partition_qprime,
    q_on_xvars,
    qprime_of_vector,
    qprime_on_alphabet,
    qprime_vector_schur,
    sub_one,
)
from .identities import (
    ct_scalar,
    defq_note_holds,
    defq_note_parts,
    prodx_example_families,
    prodx_sides,
    sigmaxy_sides,
    theta_scalar_holds,
    theta_scalar_parts,
    warnaar_sides,
)
from . import acceptance

DEFAULT_DEG = 6


def _deg_default():
    raw = os.environ.get("HLKIT_DEG")
    if raw is None:
        return DEFAULT_DEG
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"HLKIT_DEG must be an integer, got {raw!r}") from None


def _deg(args):
    """The degree cap: --deg, else HLKIT_DEG, else the default."""
    deg = args.deg if args.deg is not None else _deg_default()
    if deg < 0:
        raise ValueError(f"degree cap must be nonnegative, got {deg}")
    return deg


def _count(args, default):
    """The -n option, or `default` when it is absent."""
    if args.n is None:
        return default
    if args.n < 1:
        raise ValueError(f"-n must be a positive integer, got {args.n}")
    return args.n


def _word(text):
    """A word: compact digits (`3412`) or an integer list (`3,4,1,2`)."""
    text = text.strip()
    return tuple(map(int, text)) if text.isdecimal() else parse_ints(text)


def _operand(parse):
    """An argparse type that reads one list operand with `parse`; a bad
    operand becomes argparse's `argument <name>: ...` usage error."""

    def convert(text):
        try:
            return parse(text)
        except ValueError as e:
            raise argparse.ArgumentTypeError(str(e)) from None

    return convert


PARTITION, VECTOR, WEIGHT, WORD = map(
    _operand, (parse_partition, parse_ints, parse_parts, _word)
)


class _Parser(argparse.ArgumentParser):
    """argparse whose usage errors take the one-line `error:` path of
    `main` instead of printing the usage text."""

    def error(self, message):
        raise ValueError(message)


def _emit(args, text, payload):
    out = getattr(args, "out", None)
    if out:
        with open(out, "w") as fh:
            json.dump(payload, fh, sort_keys=True)
            fh.write("\n")
    if getattr(args, "json", False):
        text = json.dumps(payload, sort_keys=True)
    print(text)


def _cmd_qprime(args):
    if args.on is not None:
        A = parse_alphabet(args.on, nx=args.n, ny=args.n)
        acc = _linear_combination(
            (qprime_on_alphabet(mu, A), c)
            for mu, c in qprime_of_vector(args.index).coeffs.items()
        )
        _emit(args, str(acc), acc.to_json())
        return 0
    expand = qprime_vector_schur if args.basis == "S" else qprime_of_vector
    exp = expand(args.index)
    _emit(args, exp.render(), exp.to_json())
    return 0


def _cmd_aleph(args):
    val = aleph(args.outer, args.inner)
    _emit(args, str(val), val.to_json())
    return 0


def _cmd_shift(args):
    exp = args.shift(args.partition)
    _emit(args, exp.render(), exp.to_json())
    return 0


def _cmd_pp_expand(args):
    f = plane_partition_qprime(args.partition, args.n)
    _emit(args, str(f), f.to_json())
    return 0


def _cmd_charge(args):
    c = charge(args.word)
    _emit(args, str(c), {"word": list(args.word), "charge": c})
    return 0


def _cmd_tableaux(args):
    tabs = list(enumerate_ssyt(args.shape, weight=args.weight, nletters=args.nletters))
    lines = [" / ".join(" ".join(str(x) for x in row) for row in tab) for tab in tabs]
    lines.append(f"count: {len(tabs)}")
    try:
        counts = {}
        for tab in tabs:
            c = charge_tableau(tab)
            counts[c] = counts.get(c, 0) + 1
        gen = LaurentPoly(counts)
        lines.append(f"charge polynomial: {gen}")
    except NonDominantWeightError:
        gen = None
        lines.append(
            "charge polynomial: undefined (some fillings have non-partition weight)"
        )
    payload = {
        "tableaux": [[list(row) for row in tab] for tab in tabs],
        "count": len(tabs),
        "charge_polynomial": None if gen is None else gen.to_json(),
    }
    _emit(args, "\n".join(lines), payload)
    return 0


def _report(args, ok, text, name, failure):
    """The one verdict path: print `text` (or the JSON verdict) and
    return 0 when the identity holds, else print the `failure` payload
    as one JSON line and return 1."""
    if ok:
        _emit(args, text, {"identity": name, "holds": True})
        return 0
    payload = {
        k: v.to_json() if hasattr(v, "to_json") else v for k, v in failure.items()
    }
    print(json.dumps(payload, sort_keys=True))
    return 1


def _sides_report(args, name, lhs, rhs):
    failure = {"identity": name, "holds": False, "lhs": lhs, "rhs": rhs}
    return _report(args, lhs == rhs, f"{name}: holds", name, failure)


def _factor_report(args, lam, r, n):
    lhs, rhs = factorization_sides(lam, r, n)
    return _sides_report(args, f"factorization lam={list(lam)} r={r} n={n}", lhs, rhs)


def _cmd_factor_check(args):
    return _factor_report(args, args.partition, args.r, args.n)


def _cmd_scalar(args):
    lam, mu = args.outer, args.inner
    n = _count(args, max(len(lam), len(mu), 1))
    if len(lam) > n or len(mu) > n:
        raise ValueError("partitions longer than the variable count")
    f = q_on_xvars(lam, n)
    g = XPoly.monomial(xvars(n), mu + (0,) * (n - len(mu)))
    val = ct_scalar(f, g, n)
    _emit(args, str(val), val.to_json())
    return 0


def _cmd_verify(args):
    what = args.what
    if what in ("warnaar", "sigmaxy"):
        sides = warnaar_sides if what == "warnaar" else sigmaxy_sides
        deg = _deg(args)
        lhs, rhs = sides(args.nx, args.ny, deg)
        return _sides_report(
            args, f"{what} nx={args.nx} ny={args.ny} deg={deg}", lhs, rhs
        )
    if what == "prodx":
        deg = _deg(args)
        code = 0
        for name, fam in prodx_example_families(deg).items():
            for n in (1, 2):
                lhs, rhs = prodx_sides(fam, n, deg)
                code = max(
                    code,
                    _sides_report(args, f"prodx [{name}] n={n} deg={deg}", lhs, rhs),
                )
        return code
    if what == "theta-scalar":
        lam, mu = args.l, args.m
        n = _count(args, max(len(lam), len(mu), 1))
        parts = theta_scalar_parts(lam, mu, n)
        return _report(
            args,
            theta_scalar_holds(parts),
            f"theta-scalar lam={list(lam)} mu={list(mu)} n={n}: holds",
            "theta-scalar",
            parts,
        )
    if what == "defq-note":
        parts = defq_note_parts()
        return _report(
            args,
            defq_note_holds(parts),
            "operator boundary study: all four statements hold",
            "defq-note",
            parts,
        )
    if what == "factor":
        return _factor_report(args, args.lam, args.r, _count(args, 2))
    # what == "all": the acceptance gate
    all_ok = True
    for num, title, ok, detail in acceptance.run_all():
        flag = "PASS" if ok else "FAIL"
        print(f"[{flag}] {num:2d} {title}: {detail}")
        all_ok = all_ok and ok
    return 0 if all_ok else 1


def build_parser():
    p = _Parser(
        prog="hlkit",
        description="Exact Hall-Littlewood computations: expansions, "
        "argument shifts, plane partitions, identity verification.",
    )
    sub = p.add_subparsers(dest="verb", required=True)

    def verb(name, fn, help):
        sp = sub.add_parser(name, help=help)
        sp.add_argument("--json", action="store_true", help="JSON to stdout")
        sp.add_argument("--out", metavar="FILE", help="also write JSON to FILE")
        sp.set_defaults(fn=fn)
        return sp

    sp = verb("qprime", _cmd_qprime, "expand Q' of an integer vector")
    sp.add_argument("index", type=VECTOR, help="integer vector, e.g. 2,1 or 0,2 or 1^3")
    sp.add_argument("--basis", choices=("S", "Qp"), default="S")
    sp.add_argument("--on", help="evaluate on an alphabet literal instead")
    sp.add_argument("-n", type=int, default=None, help="size binding for X/Y atoms")

    sp = verb("aleph", _cmd_aleph, "one-letter skew value of outer/inner")
    sp.add_argument("outer", type=PARTITION)
    sp.add_argument("inner", type=PARTITION)

    for name, shift, where in (("addone", add_one, "X+1"), ("subone", sub_one, "X-1")):
        sp = verb(name, _cmd_shift, f"Q' expansion at the argument {where}")
        sp.add_argument("partition", type=PARTITION)
        sp.set_defaults(shift=shift)

    sp = verb(
        "pp-expand",
        _cmd_pp_expand,
        "plane-partition (layer chain) expansion on n variables",
    )
    sp.add_argument("partition", type=PARTITION)
    sp.add_argument("n", type=int)

    sp = verb("charge", _cmd_charge, "charge of a word, e.g. 3412 or 3,4,1,2")
    sp.add_argument("word", type=WORD)

    sp = verb("tableaux", _cmd_tableaux, "enumerate semistandard tableaux")
    sp.add_argument("shape", type=PARTITION)
    sp.add_argument("--weight", type=WEIGHT, default=None)
    sp.add_argument("--nletters", type=int, default=None)

    sp = verb(
        "factor-check",
        _cmd_factor_check,
        "check the width-split factorization for one case",
    )
    sp.add_argument("partition", type=PARTITION)
    sp.add_argument("n", type=int)
    sp.add_argument("r", type=int)

    sp = verb(
        "scalar",
        _cmd_scalar,
        "constant-term pairing of Q_outer with the inner monomial",
    )
    sp.add_argument("outer", type=PARTITION)
    sp.add_argument("inner", type=PARTITION)
    sp.add_argument("-n", type=int, default=None)

    sp = verb("verify", _cmd_verify, "run an identity verification")
    sp.add_argument(
        "what",
        choices=(
            "warnaar",
            "sigmaxy",
            "prodx",
            "theta-scalar",
            "defq-note",
            "factor",
            "all",
        ),
    )
    sp.add_argument("--nx", type=int, default=2)
    sp.add_argument("--ny", type=int, default=2)
    sp.add_argument("--deg", type=int, default=None, help="degree cap (or HLKIT_DEG)")
    sp.add_argument("--l", type=PARTITION, default=(), help="theta-scalar lambda")
    sp.add_argument("--m", type=PARTITION, default=(), help="theta-scalar mu")
    sp.add_argument("-n", type=int, default=None)
    sp.add_argument(
        "--lambda", dest="lam", type=PARTITION, default=(), help="partition for factor"
    )
    sp.add_argument("-r", type=int, default=0)
    return p


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except SystemExit:  # --help; usage errors raise ValueError
        return 0
    except (ValueError, ArithmeticError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
