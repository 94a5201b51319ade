"""Command-line front end.

Pure plumbing: every verb parses its arguments, calls one library
operation, and prints the result in canonical order (text by default,
lossless JSON with --json; --out FILE gets every JSON line too).  Exit
codes: 0 success / identity holds, 1 a verification found a
discrepancy, 2 usage error, 141 the reader of stdout went away.

The verbs are data: `VERBS` maps each one to its handler, its help
text and its arguments, and `build_parser` reads that table.  A process
parses one command line, and building a subparser costs about as much
as a small request, so when the first argument names a verb `main`
builds that verb's subparser alone.  Anything else (no arguments,
`--help`, an unknown verb, a top-level option) gets the parser with
every verb, so the help listing and argparse's messages are the same
either way.
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
    if deg < 1:
        # at cap 0 both sides are 1, and "holds" would say nothing
        raise ValueError(f"degree cap must be positive, got {deg}")
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

    def print_help(self, file=None):
        # argparse's own write swallows OSError, which would hide a
        # closed stdout from `main` when unbuffered.
        (file or sys.stdout).write(self.format_help())


def _emit(args, text, payload):
    """Print text(), or with --json payload() as one JSON line; with
    --out, also append that JSON line to FILE.  Each form is built only
    when it is asked for."""
    if args.json or args.out:
        line = json.dumps(payload(), sort_keys=True)
        if args.out:
            with open(args.out, "a") as fh:
                fh.write(line + "\n")
        if args.json:
            print(line)
            return
    print(text())


def _cmd_qprime(args):
    if args.on is not None:
        A = parse_alphabet(args.on, nx=args.n, ny=args.n)
        acc = _linear_combination(
            (qprime_on_alphabet(mu, A), c)
            for mu, c in qprime_of_vector(args.index).coeffs.items()
        )
        _emit(args, acc.__str__, acc.to_json)
        return 0
    expand = qprime_vector_schur if args.basis == "S" else qprime_of_vector
    exp = expand(args.index)
    _emit(args, exp.render, exp.to_json)
    return 0


def _cmd_aleph(args):
    val = aleph(args.outer, args.inner)
    _emit(args, val.__str__, val.to_json)
    return 0


def _cmd_shift(args):
    exp = (add_one if args.verb == "addone" else sub_one)(args.partition)
    _emit(args, exp.render, exp.to_json)
    return 0


def _cmd_pp_expand(args):
    f = plane_partition_qprime(args.partition, args.n)
    _emit(args, f.__str__, f.to_json)
    return 0


def _cmd_charge(args):
    c = charge(args.word)
    _emit(args, c.__str__, lambda: {"word": list(args.word), "charge": c})
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
    payload = lambda: {
        "tableaux": [[list(row) for row in tab] for tab in tabs],
        "count": len(tabs),
        "charge_polynomial": None if gen is None else gen.to_json(),
    }
    _emit(args, lambda: "\n".join(lines), payload)
    return 0


def _report(args, ok, text, name, failure):
    """The one verdict path: print `text` (or the JSON verdict) and
    return 0 when the identity holds, else print the `failure` payload
    as one JSON line and return 1."""
    if ok:
        _emit(args, lambda: text, lambda: {"identity": name, "holds": True})
        return 0
    payload = {
        k: v.to_json() if hasattr(v, "to_json") else v for k, v in failure.items()
    }
    _emit(args, lambda: json.dumps(payload, sort_keys=True), lambda: payload)
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
    _emit(args, val.__str__, val.to_json)
    return 0


def _cmd_verify(args):
    what = args.what
    if what in ("warnaar", "sigmaxy"):
        sides = warnaar_sides if what == "warnaar" else sigmaxy_sides
        deg = _deg(args)
        if args.nx == 0 and args.ny == 0:
            raise ValueError("--nx and --ny cannot both be 0 (both sides are 1)")
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
        _emit(
            args,
            lambda: f"[{flag}] {num:2d} {title}: {detail}",
            lambda: {
                "criterion": num, "title": title, "holds": bool(ok), "detail": detail
            },
        )
        all_ok = all_ok and ok
    return 0 if all_ok else 1


def _arg(*flags, **options):
    """One `add_argument` call, kept as data."""
    return flags, options


# Every verb, in the order `hlkit --help` lists them: name -> (handler,
# help, arguments).  Each verb also takes --json and --out.
VERBS = {
    "qprime": (
        _cmd_qprime,
        "expand Q' of an integer vector",
        (
            _arg("index", type=VECTOR, help="integer vector, e.g. 2,1 or 0,2 or 1^3"),
            _arg("--basis", choices=("S", "Qp"), default="S"),
            _arg("--on", help="evaluate on an alphabet literal instead"),
            _arg("-n", type=int, default=None, help="size binding for X/Y atoms"),
        ),
    ),
    "aleph": (
        _cmd_aleph,
        "one-letter skew value of outer/inner",
        (_arg("outer", type=PARTITION), _arg("inner", type=PARTITION)),
    ),
    "addone": (
        _cmd_shift,
        "Q' expansion at the argument X+1",
        (_arg("partition", type=PARTITION),),
    ),
    "subone": (
        _cmd_shift,
        "Q' expansion at the argument X-1",
        (_arg("partition", type=PARTITION),),
    ),
    "pp-expand": (
        _cmd_pp_expand,
        "plane-partition (layer chain) expansion on n variables",
        (_arg("partition", type=PARTITION), _arg("n", type=int)),
    ),
    "charge": (
        _cmd_charge,
        "charge of a word, e.g. 3412 or 3,4,1,2",
        (_arg("word", type=WORD),),
    ),
    "tableaux": (
        _cmd_tableaux,
        "enumerate semistandard tableaux",
        (
            _arg("shape", type=PARTITION),
            _arg("--weight", type=WEIGHT, default=None),
            _arg("--nletters", type=int, default=None),
        ),
    ),
    "factor-check": (
        _cmd_factor_check,
        "check the width-split factorization for one case",
        (
            _arg("partition", type=PARTITION),
            _arg("n", type=int),
            _arg("r", type=int),
        ),
    ),
    "scalar": (
        _cmd_scalar,
        "constant-term pairing of Q_outer with the inner monomial",
        (
            _arg("outer", type=PARTITION),
            _arg("inner", type=PARTITION),
            _arg("-n", type=int, default=None),
        ),
    ),
    "verify": (
        _cmd_verify,
        "run an identity verification",
        (
            _arg(
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
            ),
            _arg("--nx", type=int, default=2),
            _arg("--ny", type=int, default=2),
            _arg("--deg", type=int, default=None, help="degree cap (or HLKIT_DEG)"),
            _arg("--l", type=PARTITION, default=(), help="theta-scalar lambda"),
            _arg("--m", type=PARTITION, default=(), help="theta-scalar mu"),
            _arg("-n", type=int, default=None),
            _arg(
                "--lambda",
                dest="lam",
                type=PARTITION,
                default=(),
                help="partition for factor",
            ),
            _arg("-r", type=int, default=0),
        ),
    ),
}


def build_parser(verb=None):
    """The parser with the subparser of `verb` alone, or of every verb."""
    p = _Parser(
        prog="hlkit",
        description="Exact Hall-Littlewood computations: expansions, "
        "argument shifts, plane partitions, identity verification.",
    )
    sub = p.add_subparsers(dest="verb", required=True)
    for name in VERBS if verb is None else (verb,):
        fn, help, arguments = VERBS[name]
        sp = sub.add_parser(name, help=help)
        sp.add_argument("--json", action="store_true", help="JSON to stdout")
        sp.add_argument("--out", metavar="FILE", help="also write JSON to FILE")
        for flags, options in arguments:
            sp.add_argument(*flags, **options)
        sp.set_defaults(fn=fn)
    return p


def piped(fn, *args):
    """fn(*args) with stdout flushed before it returns.  When the reader
    of stdout has gone, as with | head, the result is the exit status
    141 and no traceback."""
    try:
        try:
            return fn(*args)
        finally:
            sys.stdout.flush()  # a closed pipe shows here, not at exit
    except BrokenPipeError:
        # Python flushes stdout again at exit; devnull takes what is left.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141


def _run(verb, argv):
    args = build_parser(verb).parse_args(argv)
    if args.out:  # each emitted line is appended to a fresh file
        with open(args.out, "w"):
            pass
    return args.fn(args)


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    # A verb named first is all this process parses, so only its
    # subparser is built; help, no verb or an unknown one needs them all.
    verb = argv[0] if argv and argv[0] in VERBS else None
    try:
        return piped(_run, verb, argv)
    except SystemExit:  # --help; usage errors raise ValueError
        return 0
    except (ValueError, ArithmeticError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
