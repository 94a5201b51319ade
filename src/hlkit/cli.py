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
from .partitions import parse_partition
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
    defq_note_parts,
    prodx_example_families,
    prodx_sides,
    sigmaxy_sides,
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


def _vector(text):
    text = text.strip()
    if text in ("", "-", "empty", "0"):
        return ()
    for sep in (",", " "):
        if sep in text:
            return tuple(int(p) for p in text.split(sep) if p != "")
    return (int(text),)


def _word(text):
    text = text.strip()
    if "," in text or " " in text:
        return tuple(int(p) for p in text.replace(",", " ").split())
    return tuple(int(ch) for ch in text)


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
    v = _vector(args.index)
    if args.on is not None:
        A = parse_alphabet(args.on, nx=args.n, ny=args.n)
        acc = _linear_combination(
            (qprime_on_alphabet(mu, A), c)
            for mu, c in qprime_of_vector(v).coeffs.items()
        )
        _emit(args, str(acc), acc.to_json())
        return 0
    if args.basis == "S":
        exp = qprime_vector_schur(v)
    else:
        exp = qprime_of_vector(v)
    _emit(args, exp.render(), exp.to_json())
    return 0


def _cmd_aleph(args):
    val = aleph(parse_partition(args.outer), parse_partition(args.inner))
    _emit(args, str(val), val.to_json())
    return 0


def _cmd_addone(args):
    exp = add_one(parse_partition(args.partition))
    _emit(args, exp.render(), exp.to_json())
    return 0


def _cmd_subone(args):
    exp = sub_one(parse_partition(args.partition))
    _emit(args, exp.render(), exp.to_json())
    return 0


def _cmd_pp_expand(args):
    f = plane_partition_qprime(parse_partition(args.partition), args.n)
    _emit(args, str(f), f.to_json())
    return 0


def _cmd_charge(args):
    w = _word(args.word)
    c = charge(w)
    _emit(args, str(c), {"word": list(w), "charge": c})
    return 0


def _cmd_tableaux(args):
    shape = parse_partition(args.shape)
    weight = parse_partition(args.weight) if args.weight else None
    tabs = list(enumerate_ssyt(shape, weight=weight, nletters=args.nletters))
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


def _sides_report(name, lhs, rhs, args):
    ok = lhs == rhs
    to_json = lambda s: s.to_json() if hasattr(s, "to_json") else s
    if ok:
        _emit(args, f"{name}: holds", {"identity": name, "holds": True})
        return 0
    diff = {
        "identity": name,
        "holds": False,
        "lhs": to_json(lhs),
        "rhs": to_json(rhs),
    }
    print(json.dumps(diff, sort_keys=True))
    return 1


def _cmd_factor_check(args):
    lam = parse_partition(args.partition)
    lhs, rhs = factorization_sides(lam, args.r, args.n)
    return _sides_report(
        f"factorization lam={list(lam)} r={args.r} n={args.n}", lhs, rhs, args
    )


def _cmd_scalar(args):
    lam = parse_partition(args.outer)
    mu = parse_partition(args.inner)
    n = _count(args, max(len(lam), len(mu), 1))
    if len(lam) > n or len(mu) > n:
        print("partitions longer than the variable count", file=sys.stderr)
        return 2
    f = q_on_xvars(lam, n)
    g = XPoly.monomial(xvars(n), mu + (0,) * (n - len(mu)))
    val = ct_scalar(f, g, n)
    _emit(args, str(val), val.to_json())
    return 0


def _cmd_verify(args):
    what = args.what
    if what == "warnaar":
        deg = _deg(args)
        lhs, rhs = warnaar_sides(args.nx, args.ny, deg)
        return _sides_report(
            f"warnaar nx={args.nx} ny={args.ny} deg={deg}", lhs, rhs, args
        )
    if what == "sigmaxy":
        deg = _deg(args)
        lhs, rhs = sigmaxy_sides(args.nx, args.ny, deg)
        return _sides_report(
            f"sigmaxy nx={args.nx} ny={args.ny} deg={deg}", lhs, rhs, args
        )
    if what == "prodx":
        deg = _deg(args)
        code = 0
        for name, fam in prodx_example_families(deg).items():
            for n in (1, 2):
                lhs, rhs = prodx_sides(fam, n, deg)
                code = max(
                    code,
                    _sides_report(f"prodx [{name}] n={n} deg={deg}", lhs, rhs, args),
                )
        return code
    if what == "theta-scalar":
        lam = parse_partition(args.l or "")
        mu = parse_partition(args.m or "")
        n = _count(args, max(len(lam), len(mu), 1))
        parts = theta_scalar_parts(lam, mu, n)
        ok = (
            parts["pairing"] == parts["theta"]
            and parts["halfway"] == parts["signed_sum"]
            and parts["signed_sum"] == parts["product_form"]
        )
        if ok:
            _emit(
                args,
                f"theta-scalar lam={list(lam)} mu={list(mu)} n={n}: holds",
                {"identity": "theta-scalar", "holds": True},
            )
            return 0
        print(
            json.dumps(
                {k: v.to_json() for k, v in parts.items()}, sort_keys=True
            )
        )
        return 1
    if what == "defq-note":
        parts = defq_note_parts()
        ok = (
            not parts["kernel_relation"]
            and parts["intermediate_ok"]
            and bool(parts["difference"])
            and not parts["proportional"]
            and parts["straightening_ok"]
        )
        if ok:
            _emit(
                args,
                "operator boundary study: all four statements hold",
                {"identity": "defq-note", "holds": True},
            )
            return 0
        print(
            json.dumps(
                {
                    "kernel_relation": parts["kernel_relation"].to_json(),
                    "intermediate_ok": parts["intermediate_ok"],
                    "difference": parts["difference"].to_json(),
                    "proportional": parts["proportional"],
                    "straightening_ok": parts["straightening_ok"],
                },
                sort_keys=True,
            )
        )
        return 1
    if what == "factor":
        lam = parse_partition(args.lam or "")
        n = _count(args, 2)
        lhs, rhs = factorization_sides(lam, args.r, n)
        return _sides_report(
            f"factorization lam={list(lam)} r={args.r} n={n}",
            lhs,
            rhs,
            args,
        )
    if what == "all":
        results = acceptance.run_all()
        all_ok = True
        for num, title, ok, detail in results:
            flag = "PASS" if ok else "FAIL"
            print(f"[{flag}] {num:2d} {title}: {detail}")
            all_ok = all_ok and ok
        return 0 if all_ok else 1
    print(f"unknown verification target {what!r}", file=sys.stderr)
    return 2


def build_parser():
    p = argparse.ArgumentParser(
        prog="hlkit",
        description="Exact Hall-Littlewood computations: expansions, "
        "argument shifts, plane partitions, identity verification.",
    )
    sub = p.add_subparsers(dest="verb", required=True)

    def common(sp):
        sp.add_argument("--json", action="store_true", help="JSON to stdout")
        sp.add_argument("--out", metavar="FILE", help="also write JSON to FILE")

    sp = sub.add_parser("qprime", help="expand Q' of an integer vector")
    sp.add_argument("index", help="partition or integer vector, e.g. 2,1 or 0,2")
    sp.add_argument("--basis", choices=("S", "Qp"), default="S")
    sp.add_argument("--on", help="evaluate on an alphabet literal instead")
    sp.add_argument("-n", type=int, default=None, help="size binding for X/Y atoms")
    common(sp)
    sp.set_defaults(fn=_cmd_qprime)

    sp = sub.add_parser("aleph", help="one-letter skew value of outer/inner")
    sp.add_argument("outer")
    sp.add_argument("inner")
    common(sp)
    sp.set_defaults(fn=_cmd_aleph)

    sp = sub.add_parser("addone", help="Q' expansion at the argument X+1")
    sp.add_argument("partition")
    common(sp)
    sp.set_defaults(fn=_cmd_addone)

    sp = sub.add_parser("subone", help="Q' expansion at the argument X-1")
    sp.add_argument("partition")
    common(sp)
    sp.set_defaults(fn=_cmd_subone)

    sp = sub.add_parser(
        "pp-expand", help="plane-partition (layer chain) expansion on n variables"
    )
    sp.add_argument("partition")
    sp.add_argument("n", type=int)
    common(sp)
    sp.set_defaults(fn=_cmd_pp_expand)

    sp = sub.add_parser("charge", help="charge of a word, e.g. 3412 or 3,4,1,2")
    sp.add_argument("word")
    common(sp)
    sp.set_defaults(fn=_cmd_charge)

    sp = sub.add_parser("tableaux", help="enumerate semistandard tableaux")
    sp.add_argument("shape")
    sp.add_argument("--weight", default=None)
    sp.add_argument("--nletters", type=int, default=None)
    common(sp)
    sp.set_defaults(fn=_cmd_tableaux)

    sp = sub.add_parser(
        "factor-check", help="check the width-split factorization for one case"
    )
    sp.add_argument("partition")
    sp.add_argument("n", type=int)
    sp.add_argument("r", type=int)
    common(sp)
    sp.set_defaults(fn=_cmd_factor_check)

    sp = sub.add_parser(
        "scalar", help="constant-term pairing of Q_outer with the inner monomial"
    )
    sp.add_argument("outer")
    sp.add_argument("inner")
    sp.add_argument("-n", type=int, default=None)
    common(sp)
    sp.set_defaults(fn=_cmd_scalar)

    sp = sub.add_parser("verify", help="run an identity verification")
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
    sp.add_argument("--l", help="first partition for theta-scalar")
    sp.add_argument("--m", help="second partition for theta-scalar")
    sp.add_argument("-n", type=int, default=None)
    sp.add_argument("--lambda", dest="lam", help="partition for factor")
    sp.add_argument("-r", type=int, default=0)
    sp.add_argument(
        "--small", action="store_true", help="desk-scale bounds (the default)"
    )
    common(sp)
    sp.set_defaults(fn=_cmd_verify)

    return p


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (ValueError, ArithmeticError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
